"""Average-consensus engines.

A consensus run takes a K x m initial matrix whose row k is node k's local
vector and drives every row toward the network-wide mean. A leading trial
axis, (trials, K, m), stacks independent problems on the same network: each
trial is averaged on its own, with one product per step for the whole
stack. Three engines are provided: ``ideal`` (the exact mean), ``standard``
(repeated multiplication by the mixing matrix), and ``chebyshev``
(semi-iterative acceleration of the same mixing). On fixed weights an I-step
run of either mixing engine is one matrix polynomial p_I(W); it is built
once per (weights, engine, I) and then applied as a single product. Under
link failures the recurrence runs step by step on the input with fresh
surviving links each step. Before the first step a call draws the links of
all its I steps, as one (I, E) uniform draw per failure generator, which
consumes the generator exactly as I per-step draws of E values would, so the
failure stream, and every output computed from it, is the same as with a
redraw at each step. A config holds one generator, whose links every trial
of a stacked call shares, or one per trial: then each trial's links come
from its own generator, drawn in trial order, and each step mixes the whole
stack with one product. The Metropolis matrices are built in step-major
chunks of at most 32, in one buffer per call. The mixing weights are real
and the iterates often complex; the recurrence keeps the iterate, for the
whole run, as one real array of its interleaved real and imaginary parts,
updated in preallocated buffers, so each product is one real product. Every
result carries the realized error matrix, the deviation of the output from
the exact mean; that matrix is a simulation observable only, never read by
the algorithms under test, so it is computed on its first read.

Every engine speaks one protocol: ``engine.run(z0) -> ConsensusResult`` on a
(K,), (K, m) or (trials, K, m) input, averaging over the node axis.
:class:`AcConfig` runs :func:`run_consensus`, and two synthetic engines
support instrumentation: :class:`ErrorInjectingEngine` returns exact means
plus caller-chosen error terms (for verifying the closed-form error
expressions), and :class:`ReplayEngine` returns pre-recorded outputs
regardless of input (for locality tests). :func:`run_block` runs one
consensus round of a block of trials on one engine for the whole stack.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConsensusError
from .topology import ChebyshevParams, Graph, WeightMatrix, metropolis_stack

__all__ = [
    "AcConfig",
    "ConsensusResult",
    "run_consensus",
    "run_block",
    "ErrorInjectingEngine",
    "ReplayEngine",
]

_ENGINES = ("ideal", "standard", "chebyshev")


@dataclass
class ConsensusResult:
    """Output of one consensus run.

    ``error`` is z_t minus the exact per-column mean of the input (zero for
    the ideal engine), recomputed from the output so the defining identity
    holds by construction. It is computed on its first read, from the input
    as it is then, and kept; a run whose error nobody reads never pays for
    the mean. ``scalars_exchanged_per_node`` counts t * m * degree(k)
    information units for node k (one scalar per neighbor per iteration per
    input column), per trial when the input is stacked.
    """

    z: np.ndarray
    scalars_exchanged_per_node: np.ndarray
    _error: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def error(self) -> np.ndarray:
        return self._error()


@dataclass
class AcConfig:
    """Configuration of a consensus run.

    ``failure_seed`` seeds the link-failure draws: one int, or one seed per
    trial of the (B, K, m) stacks the config runs. Fresh generators are
    created at construction, so rebuilding the same config reproduces the
    same failure pattern across a sequence of runs. Under one generator every
    trial of a stacked call shares the call's surviving links; under one per
    trial, trial b's links come from generator b, so each trial sees the links
    its lone run would.
    """

    engine: str
    iterations: int
    weights: WeightMatrix | None = None
    cheb: ChebyshevParams | None = None
    link_failure_prob: float = 0.0
    failure_seed: int | Sequence[int] | None = None
    _failure_rngs: list[np.random.Generator] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ConsensusError(f"unknown engine {self.engine!r}")
        if self.iterations < 0:
            raise ConsensusError("iteration count must be nonnegative")
        if not (0.0 <= self.link_failure_prob < 1.0):
            raise ConsensusError("link failure probability must be in [0, 1)")
        if self.engine in ("standard", "chebyshev") and self.weights is None:
            raise ConsensusError(f"engine {self.engine!r} needs a weight matrix")
        if self.engine == "chebyshev" and self.cheb is None:
            raise ConsensusError("chebyshev engine needs spectral bounds")
        if self.link_failure_prob > 0.0:
            seeds = self.failure_seed
            if np.ndim(seeds) == 0:
                seeds = [] if seeds is None else [seeds]
            if len(seeds) == 0:
                raise ConsensusError("link failures need a failure_seed")
            self._failure_rngs = [np.random.default_rng(s) for s in seeds]

    @property
    def graph(self) -> Graph | None:
        return self.weights.graph if self.weights is not None else None

    def run(self, z0: np.ndarray) -> ConsensusResult:
        """Run this config on ``z0``; see :func:`run_consensus`."""
        return run_consensus(z0, self)


def _failure_masks(
    rngs: Sequence[np.random.Generator], p: float, steps: int, edges: int
) -> np.ndarray:
    """Each step's surviving links, as an (S, G, E) mask: column g from generator g.

    Each generator makes one (S, E) uniform draw, in generator order, which
    decides its steps' links edge by edge in edge order; that consumes it
    exactly as S successive per-step draws of E values (or S * E scalar
    draws) would.
    """
    alive = np.empty((steps, len(rngs), edges), dtype=bool)
    for g, rng in enumerate(rngs):
        np.greater_equal(rng.random((steps, edges)), p, out=alive[:, g])
    return alive


def _step_weights(cfg: AcConfig, trials: int) -> Iterator[np.ndarray]:
    """The mixing matrices of a run on ``trials`` stacked trials, step by step.

    Each step gives one (K, K) matrix that every trial shares, or under link
    failures with one generator per trial a (trials, K, K) stack. A failure
    step's matrices are overwritten by a later step's, and every link is
    drawn before the first step.
    """
    assert cfg.weights is not None
    if cfg.link_failure_prob == 0.0:
        return itertools.repeat(cfg.weights.entries, cfg.iterations)
    rngs = cfg._failure_rngs
    if len(rngs) not in (1, trials):
        raise ConsensusError(
            f"{trials} stacked trials need one failure generator or one per "
            f"trial, not {len(rngs)}"
        )
    graph = cfg.weights.graph
    alive = _failure_masks(
        rngs, cfg.link_failure_prob, cfg.iterations, graph.edge_index.shape[1]
    )
    steps = (w for chunk in metropolis_stack(graph, alive) for w in chunk)
    return (w[0] for w in steps) if len(rngs) == 1 else steps


def _iterate(x0: np.ndarray, cfg: AcConfig) -> np.ndarray:
    """Run the engine's recurrence on a (K, m) or (B, K, m) x0, step by step.

    The weights are real. For the whole run the iterate is one real
    (..., K, c) array, updated in preallocated buffers: a real x0's float
    copy, or the interleaved real and imaginary parts of a complex x0's
    copy, c = 2m, so that each step's product with the weights is one real
    product. A degenerate Chebyshev spectrum runs the plain averaging loop:
    plain averaging already contracts as fast as any polynomial in W of the
    same degree.
    """
    if cfg.iterations == 0:
        return x0.copy()
    as_complex = x0.dtype.kind == "c"
    x = np.array(x0, dtype=complex if as_complex else float, order="C").view(float)
    weights = _step_weights(cfg, len(x) if x.ndim == 3 else 1)
    if cfg.engine == "chebyshev" and not cfg.cheb.is_degenerate:
        x = _chebyshev_iterate(x, weights, cfg.cheb, as_complex)
    else:
        out = np.empty_like(x)
        for w in weights:
            np.matmul(w, x, out=out)
            x, out = out, x
    return x.view(complex) if as_complex else x


def _real_matmul(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w @ x`` for a real matrix ``w``, as one real product.

    numpy would cast ``w`` to complex for a complex ``x``. Instead a
    C-contiguous complex (..., K, m) ``x`` is read as the real (..., K, 2m)
    array of its interleaved real and imaginary parts, whose product with
    ``w`` is the result's. A real ``x`` takes the plain product.
    """
    if x.dtype.kind != "c":
        return w @ x
    if x.ndim == 1:
        return _real_matmul(w, x[:, None])[:, 0]
    x = np.ascontiguousarray(x, dtype=complex)
    return (w @ x.view(float)).view(complex)


def _mixing_operator(cfg: AcConfig) -> np.ndarray:
    """The K x K matrix p_I(W) that an I-step run on fixed weights applies.

    Without link failures every engine step is linear in its input with the
    same weights, so the whole run equals one matrix product. The operator is
    built once, by running the recurrence on the identity, and cached on the
    weight matrix that owns it.
    """
    assert cfg.weights is not None and cfg.link_failure_prob == 0.0
    key = (cfg.engine, cfg.iterations, cfg.cheb)
    operators = cfg.weights._operators
    op = operators.get(key)
    if op is None:
        op = operators[key] = _iterate(np.eye(cfg.weights.node_count), cfg)
    return op


def run_consensus(z0: np.ndarray, cfg: AcConfig) -> ConsensusResult:
    """Run one consensus instance on a K x m (or length-K) initial matrix.

    A (trials, K, m) input runs every trial on the same weights; under link
    failures each trial draws its links from its own generator when the
    config holds one per trial, and all trials share one draw otherwise. The
    output, error and per-node counters then carry the leading trial axis,
    and each trial's slice equals the run of that slice alone (on a config
    with that trial's generator).
    """
    z0 = np.asarray(z0)
    squeeze = z0.ndim == 1
    x0 = z0[:, None] if squeeze else z0
    if x0.ndim not in (2, 3):
        raise ConsensusError("consensus input must be 1-, 2- or 3-dimensional")
    k, m = x0.shape[-2:]
    if cfg.weights is not None and cfg.weights.node_count != k:
        raise ConsensusError(
            f"input has {k} rows but the weight matrix covers "
            f"{cfg.weights.node_count} nodes"
        )
    ideal = cfg.engine == "ideal"
    if ideal:
        z = np.broadcast_to(x0.mean(axis=-2, keepdims=True), x0.shape).copy()
    elif cfg.link_failure_prob > 0.0 or cfg.iterations == 0:
        z = _iterate(x0, cfg)
    else:
        z = _real_matmul(_mixing_operator(cfg), x0)

    def error() -> np.ndarray:
        e = np.zeros_like(z) if ideal else z - x0.mean(axis=-2, keepdims=True)
        return e[:, 0] if squeeze else e

    deg = cfg.graph.degrees() if cfg.graph is not None else np.zeros(k, dtype=np.int64)
    counters = np.empty(x0.shape[:-2] + (k,), dtype=np.int64)
    counters[...] = cfg.iterations * m * deg
    return ConsensusResult(z[:, 0] if squeeze else z, counters, error)


def _chebyshev_iterate(
    x: np.ndarray,
    weights: Iterator[np.ndarray],
    cheb: ChebyshevParams,
    as_complex: bool,
) -> np.ndarray:
    """Chebyshev semi-iteration on the rescaled mixing matrices.

    With B = (2 W - (l_max + l_min) I) / (l_max - l_min) and the scalar
    recurrence tau_0 = 1, tau_1 = b1, tau_{t+1} = 2 b1 tau_t - tau_{t-1}, the
    iterates realize p_t(W) = T_t(B)/T_t(b1): the consensus component is
    preserved exactly and disagreement is damped by at least 1/tau_t. Under
    link failures step s mixes with its own weights but the nominal scalar
    sequence is kept.

    ``x`` is the real (..., K, c) view of the iterate, ``as_complex`` whether
    it holds interleaved complex parts; it is overwritten, and the result is
    one of three buffers of its shape that the steps rotate. numpy divides a complex array by a
    real scalar as a product with the scalar's reciprocal, so complex parts
    are scaled that way and real ones divided, as the complex and real
    arithmetic would.
    """
    lam_sum = cheb.lambda_max + cheb.lambda_min
    lam_diff = cheb.lambda_max - cheb.lambda_min
    b1 = cheb.b1
    if as_complex:
        scale, by_diff, by_b1 = np.multiply, 1.0 / lam_diff, 1.0 / b1
    else:
        scale, by_diff, by_b1 = np.divide, lam_diff, b1
    spare = np.empty_like(x)

    def apply_b(w: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
        np.matmul(w, x, out=out)
        np.multiply(out, 2.0, out=out)
        np.multiply(x, lam_sum, out=spare)
        np.subtract(out, spare, out=out)
        scale(out, by_diff, out=out)

    weights = iter(weights)
    x_prev, x, x_next = x, np.empty_like(x), np.empty_like(x)
    apply_b(next(weights), x_prev, x)
    scale(x, by_b1, out=x)
    tau_prev, tau = 1.0, b1
    for w in weights:
        tau_next = 2.0 * b1 * tau - tau_prev
        apply_b(w, x, x_next)
        np.multiply(x_next, 2.0 * tau / tau_next, out=x_next)
        np.multiply(x_prev, tau_prev / tau_next, out=x_prev)
        np.subtract(x_next, x_prev, out=x_next)
        x_prev, x, x_next = x, x_next, x_prev
        tau_prev, tau = tau, tau_next
    return x


def run_block(ac, z0: np.ndarray) -> ConsensusResult:
    """One consensus round for every trial of a block.

    ``z0`` is (B, K, m), or (B, K) for a scalar round, and ``ac`` one engine
    whose ``run`` takes the whole stack in one call (a scalar round as a
    (B, K, 1) stack). A one-trial block passes the lone (K, m) or (K,)
    input, as a lone run does. The result's output and error have the shape
    of ``z0`` and its counters are (B, K); the error is computed on its
    first read, as each run's is.
    """
    if len(z0) == 1:
        res = ac.run(z0[0])
        return ConsensusResult(
            res.z[None], res.scalars_exchanged_per_node[None], lambda: res.error[None]
        )
    if z0.ndim == 2:
        res = ac.run(z0[:, :, None])
        return ConsensusResult(
            res.z[:, :, 0],
            res.scalars_exchanged_per_node,
            lambda: res.error[:, :, 0],
        )
    return ac.run(z0)


def _node_axis(z0: np.ndarray) -> int:
    """The node axis of a (K,), (K, m) or (trials, K, m) consensus input."""
    return 0 if z0.ndim == 1 else -2


def _synthetic_result(z0: np.ndarray, z: np.ndarray) -> ConsensusResult:
    """A synthetic engine's output ``z``, its error and zero (..., K) counters."""
    axis = _node_axis(z0)
    k = z0.shape[axis]
    return ConsensusResult(
        z,
        np.zeros(z0.shape[:-2] + (k,), dtype=np.int64),
        lambda: z - z0.mean(axis=axis, keepdims=True),
    )


class ErrorInjectingEngine:
    """Synthetic consensus returning the exact mean plus prescribed errors.

    ``errors`` is either a sequence consumed one entry per call or a callable
    ``(call_index, z0) -> error``. Entries must match the input shape; for
    real-valued inputs the injected error must be real, so that scalar
    averaging of nonnegative quantities stays real as it does under the
    physical engines.
    """

    def __init__(
        self,
        errors: Sequence[np.ndarray] | Callable[[int, np.ndarray], np.ndarray],
    ) -> None:
        self._errors = errors
        self.calls = 0

    def run(self, z0: np.ndarray) -> ConsensusResult:
        z0 = np.asarray(z0)
        if callable(self._errors):
            err = np.asarray(self._errors(self.calls, z0))
        else:
            if self.calls >= len(self._errors):
                raise ConsensusError("injection engine ran out of error terms")
            err = np.asarray(self._errors[self.calls])
        self.calls += 1
        if err.shape != z0.shape:
            raise ConsensusError(
                f"injected error shape {err.shape} does not match input {z0.shape}"
            )
        if z0.dtype.kind != "c" and err.dtype.kind == "c":
            raise ConsensusError("real-valued consensus cannot carry complex error")
        return _synthetic_result(z0, z0.mean(axis=_node_axis(z0), keepdims=True) + err)


class ReplayEngine:
    """Synthetic consensus returning pre-recorded outputs, ignoring the input.

    Used by locality tests: with replayed consensus outputs, a node's local
    updates must depend only on its own samples.
    """

    def __init__(self, outputs: Sequence[np.ndarray]) -> None:
        self._outputs = [np.asarray(o) for o in outputs]
        self.calls = 0

    def run(self, z0: np.ndarray) -> ConsensusResult:
        z0 = np.asarray(z0)
        if self.calls >= len(self._outputs):
            raise ConsensusError("replay engine ran out of outputs")
        z = self._outputs[self.calls].copy()
        self.calls += 1
        if z.shape != z0.shape:
            raise ConsensusError("replayed output shape does not match input")
        return _synthetic_result(z0, z)
