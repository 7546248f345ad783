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
surviving links each step. A call draws the links of all its I steps at once,
as one (I, E) uniform draw, and builds its I Metropolis matrices in one pass
before the first step. That draw consumes the failure generator exactly as I
per-step draws of E values would, so the failure stream, and every output
computed from it, is the same as with a redraw at each step; a stacked call
draws once, so every trial of the stack shares its links. The mixing
weights are real and the iterates often complex; each such product runs as
one real product on the iterate's interleaved real and imaginary parts. Every
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
consensus round of a block of trials, on one engine for the whole stack or
on one engine per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

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

    ``failure_seed`` feeds the per-iteration link-failure draws; a fresh
    generator is created at construction, so rebuilding the same config
    reproduces the same failure pattern across a sequence of runs.
    """

    engine: str
    iterations: int
    weights: WeightMatrix | None = None
    cheb: ChebyshevParams | None = None
    link_failure_prob: float = 0.0
    failure_seed: int | None = None
    _failure_rng: np.random.Generator | None = field(
        default=None, repr=False, compare=False
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
            if self.failure_seed is None:
                raise ConsensusError("link failures need a failure_seed")
            self._failure_rng = np.random.default_rng(self.failure_seed)

    @property
    def graph(self) -> Graph | None:
        return self.weights.graph if self.weights is not None else None

    def run(self, z0: np.ndarray) -> ConsensusResult:
        """Run this config on ``z0``; see :func:`run_consensus`."""
        return run_consensus(z0, self)


def _failure_stack(
    graph: Graph, rng: np.random.Generator, p: float, steps: int
) -> np.ndarray:
    """Metropolis weights on each step's surviving links, as an (S, K, K) stack.

    One (S, E) uniform draw decides every step's links, edge by edge in edge
    order; it consumes the generator exactly as S successive per-step draws of
    E values (or S * E scalar draws) would.
    """
    alive = rng.random((steps, graph.edge_index.shape[1])) >= p
    return metropolis_stack(graph, alive)


def _step_weights(cfg: AcConfig) -> np.ndarray:
    """The (I, K, K) mixing matrices of one run, step s's at index s."""
    assert cfg.weights is not None
    if cfg.link_failure_prob > 0.0:
        assert cfg._failure_rng is not None
        return _failure_stack(
            cfg.weights.graph, cfg._failure_rng, cfg.link_failure_prob, cfg.iterations
        )
    w = cfg.weights.entries
    return np.broadcast_to(w, (cfg.iterations,) + w.shape)


def _iterate(x0: np.ndarray, cfg: AcConfig) -> np.ndarray:
    """Run the engine's recurrence on x0, one mixing matrix per step.

    A degenerate Chebyshev spectrum runs the plain averaging loop: plain
    averaging already contracts as fast as any polynomial in W of the same
    degree.
    """
    weights = _step_weights(cfg)
    if cfg.engine == "chebyshev" and cfg.iterations > 0 and not cfg.cheb.is_degenerate:
        return _chebyshev_iterate(x0, weights, cfg.cheb)
    x = x0.copy()
    for w in weights:
        x = _real_matmul(w, x)
    return x


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

    A (trials, K, m) input runs every trial on the same weights (and, under
    link failures, the same surviving links); the output, error and per-node
    counters then carry the leading trial axis, and each trial's slice equals
    the run of that slice alone.
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
    x0: np.ndarray, weights: np.ndarray, cheb: ChebyshevParams
) -> np.ndarray:
    """Chebyshev semi-iteration on the rescaled mixing matrices.

    With B = (2 W - (l_max + l_min) I) / (l_max - l_min) and the scalar
    recurrence tau_0 = 1, tau_1 = b1, tau_{t+1} = 2 b1 tau_t - tau_{t-1}, the
    iterates realize p_t(W) = T_t(B)/T_t(b1): the consensus component is
    preserved exactly and disagreement is damped by at least 1/tau_t. Under
    link failures step s mixes with its own ``weights[s]`` but the nominal
    scalar sequence is kept.
    """
    lam_sum = cheb.lambda_max + cheb.lambda_min
    lam_diff = cheb.lambda_max - cheb.lambda_min
    b1 = cheb.b1

    def apply_b(w: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (2.0 * _real_matmul(w, x) - lam_sum * x) / lam_diff

    x_prev = x0.copy()
    x = apply_b(weights[0], x0) / b1
    tau_prev, tau = 1.0, b1
    for w in weights[1:]:
        tau_next = 2.0 * b1 * tau - tau_prev
        x_next = (2.0 * tau / tau_next) * apply_b(w, x) - (tau_prev / tau_next) * x_prev
        x_prev, x = x, x_next
        tau_prev, tau = tau, tau_next
    return x


def run_block(ac, z0: np.ndarray) -> ConsensusResult:
    """One consensus round for every trial of a block.

    ``z0`` is (B, K, m), or (B, K) for a scalar round. ``ac`` is one engine,
    whose ``run`` takes the whole stack in one call (a scalar round as a
    (B, K, 1) stack), or a list with one engine per trial, each running its
    own trial. A one-trial block passes the lone (K, m) or (K,) input, as a
    lone run does. The result's output and error have the shape of ``z0``
    and its counters are (B, K); the error is computed on its first read,
    as each run's is.
    """
    per_trial = isinstance(ac, (list, tuple))
    if per_trial and len(ac) != len(z0):
        raise ValueError(
            f"need one consensus engine per trial, got {len(ac)} for {len(z0)}"
        )
    if len(z0) == 1 or per_trial:
        engines = ac if per_trial else [ac]
        results = [e.run(x) for e, x in zip(engines, z0)]
        return ConsensusResult(
            np.stack([r.z for r in results]),
            np.stack([r.scalars_exchanged_per_node for r in results]),
            lambda: np.stack([r.error for r in results]),
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
