"""Average-consensus engines.

A consensus run takes a K x m initial matrix whose row k is node k's local
vector and drives every row toward the network-wide mean. A leading trial
axis, (trials, K, m), stacks independent problems on the same network: each
trial is averaged on its own, with one product per step for the whole
stack. A lone (K,) or (K, m) input is the one-trial stack. Three engines are
provided: ``ideal`` (the exact mean), ``standard`` (repeated multiplication
by the mixing matrix), and ``chebyshev`` (semi-iterative acceleration of the
same mixing).

Both mixing engines run one recurrence, x_s = A_s x_{s-1} - c_s x_{s-2} with
A_s = a_s W_s + d_s I. ``chebyshev`` takes its scalars from the spectral
bounds of the weights it mixes with, cached on them as ``WeightMatrix.bounds``;
``standard``, and ``chebyshev`` on a degenerate spectrum, is the case
a_s = 1, d_s = c_s = 0 of plain averaging. On fixed weights an I-step run of
either mixing engine is one matrix polynomial p_I(W): it is built once per
(weights, engine, I), by the recurrence on the identity with each step's
A_s folded from ``WeightMatrix.entries`` into one K x K matrix, and then
applied as a single product. Under link failures the recurrence runs step by
step on the input with fresh surviving links each step, and each trial of
the stack draws its links from its own generator: a config holds one
failure generator per trial. Before the first step a call draws the links
of all its I steps, as one (I, E) uniform draw per generator in trial order,
which consumes each generator exactly as I per-step draws of E values would,
so the failure stream, and every output computed from it, is the same as
with a redraw at each step. :func:`~eigennet.topology.metropolis_stack`
writes each step's A_s of every trial straight from the Metropolis weights
of that trial's links. The mixing weights are real and the iterates often
complex; a run reads its input once as one real array of its interleaved
real and imaginary parts, so that the operator product, or each step's
product, is one real product, and the recurrence updates that array in
preallocated buffers. A result holds the output and the per-node message
counters only: the realized error, the deviation of the output from the
exact mean, is a simulation observable that no algorithm under test reads,
so only a caller that wants it computes it from the input and the output.

Every engine speaks one protocol: ``engine.run(z0) -> ConsensusResult`` on a
(trials, K, m) stack, averaging over the node axis 1, with (trials, K)
counters. The algorithms hand every engine such a stack, a scalar round as
(trials, K, 1). :class:`AcConfig` runs :func:`run_consensus`, which also
lifts a lone (K,) or (K, m) input to the one-trial stack, and the synthetic
:class:`ErrorInjectingEngine` returns exact means plus caller-chosen error
terms, for verifying the closed-form error expressions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsensusError
from .topology import ChebyshevParams, Graph, WeightMatrix, metropolis_stack

__all__ = [
    "AcConfig",
    "ConsensusResult",
    "run_consensus",
    "ErrorInjectingEngine",
]

_ENGINES = ("ideal", "standard", "chebyshev")


@dataclass
class ConsensusResult:
    """Output of one consensus run.

    ``scalars_exchanged_per_node`` counts t * m * degree(k) information units
    for node k (one scalar per neighbor per iteration per input column), per
    trial when the input is stacked.
    """

    z: np.ndarray
    scalars_exchanged_per_node: np.ndarray


@dataclass
class AcConfig:
    """Configuration of a consensus run.

    A ``chebyshev`` run reads its spectral bounds from ``weights.bounds``.
    ``failure_seed`` seeds the link-failure draws with one generator per
    trial: a list of one seed per trial of the (B, K, m) stacks the config
    runs, or one int for a lone run. Trial b's links come from generator b,
    so each trial sees the links its lone run would. Fresh generators are
    created at construction, so rebuilding the same config reproduces the
    same failure pattern across a sequence of runs.
    """

    engine: str
    iterations: int
    weights: WeightMatrix | None = None
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
    """Each step's surviving links, as an (S, B, E) mask: column b from generator b.

    Each generator makes one (S, E) uniform draw, in generator order, which
    decides its steps' links edge by edge in edge order; that consumes it
    exactly as S successive per-step draws of E values (or S * E scalar
    draws) would.
    """
    alive = np.empty((steps, len(rngs), edges), dtype=bool)
    for b, rng in enumerate(rngs):
        np.greater_equal(rng.random((steps, edges)), p, out=alive[:, b])
    return alive


def _folded(w: np.ndarray, a: np.ndarray, d: np.ndarray) -> Iterator[np.ndarray]:
    """Each step's a_s W + d_s I, written into one K x K matrix that the next step overwrites."""
    mixing = np.empty_like(w)
    diagonal = mixing.reshape(-1)[:: len(w) + 1]
    for a_s, d_s in zip(a, d):
        np.multiply(w, a_s, out=mixing)
        diagonal += d_s
        yield mixing


def _iterate(x: np.ndarray, cfg: AcConfig) -> np.ndarray:
    """Run the engine's recurrence on the real iterate ``x``.

    ``x`` is a (B, K, c) stack, or the K x K identity of a fixed-weight
    operator build. Step s is x_s = A_s x_{s-1} - c_s x_{s-2} with
    A_s = a_s W_s + d_s I: one product and, where c_s != 0, one scaled
    subtract. The scalars are the (a, d, c) of :func:`_chebyshev_coefficients`,
    or (1, 0, 0), plain averaging, for ``standard`` and for a degenerate
    Chebyshev spectrum, where plain averaging already contracts as fast as
    any polynomial in W of the same degree. On fixed weights each A_s is folded from ``weights.entries``
    (:func:`_folded`). Under link failures step s mixes with its own weights
    but keeps the nominal scalars: the config's B generators draw every
    step's links before the first step, and :func:`metropolis_stack` builds
    each step's B matrices, one per trial, for one product over the stack.
    c_1 = 0, so x_{-1} is never read; the skipped subtracts of 0 x_{s-2}
    would change nothing on finite iterates.

    The scaled subtract treats the interleaved real and imaginary parts of
    ``x``, if any, part by part, as the complex arithmetic would. ``x`` is
    not written: the steps rotate three buffers of its shape, the first a
    copy of it, and the result is one of them.
    """
    rngs = cfg._failure_rngs  # empty on fixed weights
    if rngs and len(rngs) != len(x):
        raise ConsensusError(
            f"{len(x)} stacked trials need one failure generator each, not {len(rngs)}"
        )
    steps = cfg.iterations
    if steps == 0:
        return x.copy()
    if cfg.engine == "chebyshev" and not cfg.weights.bounds.is_degenerate:
        a, d, c = _chebyshev_coefficients(cfg.weights.bounds, steps)
    else:
        a, d, c = np.ones(steps), np.zeros(steps), np.zeros(steps)
    if rngs:
        graph = cfg.weights.graph
        alive = _failure_masks(rngs, cfg.link_failure_prob, steps, graph.edge_index.shape[1])
        mixings = (step for chunk in metropolis_stack(graph, alive, a, d) for step in chunk)
    else:
        mixings = _folded(cfg.weights.entries, a, d)
    x = x.copy()
    x_prev, x_next = np.empty_like(x), np.empty_like(x)
    for mixing, c_s in zip(mixings, c):
        np.matmul(mixing, x, out=x_next)
        if c_s != 0.0:
            np.multiply(x_prev, c_s, out=x_prev)
            np.subtract(x_next, x_prev, out=x_next)
        x_prev, x, x_next = x, x_next, x_prev
    return x


def _mixing_operator(cfg: AcConfig) -> np.ndarray:
    """The K x K matrix p_I(W) that an I-step run on fixed weights applies.

    Without link failures every engine step is linear in its input with the
    same weights, so the whole run equals one matrix product. The operator is
    built once, by running the recurrence on the real identity, and cached
    on the weight matrix that owns it.
    """
    assert cfg.weights is not None and cfg.link_failure_prob == 0.0
    key = (cfg.engine, cfg.iterations)
    operators = cfg.weights._operators
    op = operators.get(key)
    if op is None:
        op = operators[key] = _iterate(np.eye(cfg.weights.node_count), cfg)
    return op


def run_consensus(z0: np.ndarray, cfg: AcConfig) -> ConsensusResult:
    """Run one consensus instance on a (K,), (K, m) or (B, K, m) initial matrix.

    A lone (K,) or (K, m) input runs as the one-trial stack (1, K, m) and
    comes back in its own shape, with (K,) counters. A stack of B trials runs
    every trial on the same weights, under link failures each with its own
    generator (the config must hold B), and returns (B, K) counters; each
    trial's slice equals the run of that slice alone on a config with that
    trial's generator. At I = 0 the output is a copy of the input.
    """
    z0 = np.asarray(z0)
    if z0.ndim not in (1, 2, 3):
        raise ConsensusError("consensus input must be 1-, 2- or 3-dimensional")
    x0 = z0.reshape((-1,) + z0.shape[-2:] if z0.ndim > 1 else (1, -1, 1))
    k, m = x0.shape[1:]
    if cfg.weights is not None and cfg.weights.node_count != k:
        raise ConsensusError(
            f"input has {k} rows but the weight matrix covers "
            f"{cfg.weights.node_count} nodes"
        )
    if cfg.engine == "ideal":
        z = np.broadcast_to(x0.mean(axis=1, keepdims=True), x0.shape).copy()
    else:
        # the weights are real: a complex input is read as the real
        # (B, K, 2m) array of its interleaved real and imaginary parts
        as_complex = x0.dtype.kind == "c"
        x = np.ascontiguousarray(x0, dtype=complex if as_complex else float).view(float)
        if cfg.link_failure_prob > 0.0 or cfg.iterations == 0:
            x = _iterate(x, cfg)
        else:
            x = _mixing_operator(cfg) @ x
        z = x.view(complex) if as_complex else x
    deg = cfg.graph.degrees() if cfg.graph is not None else np.zeros(k, dtype=np.int64)
    counters = np.full(z0.shape[:-2] + (k,), cfg.iterations * m * deg, dtype=np.int64)
    return ConsensusResult(z.reshape(z0.shape), counters)


def _chebyshev_coefficients(
    cheb: ChebyshevParams, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scalars (a, d, c) of the folded Chebyshev steps 1..``steps``.

    With B = (2 W - (l_max + l_min) I) / (l_max - l_min), tau_0 = 1,
    tau_1 = b1 and tau_{s+1} = 2 b1 tau_s - tau_{s-1} (so tau_s = T_s(b1)),
    the semi-iteration x_1 = B x_0 / b1, x_{s+1} = (2 tau_s / tau_{s+1}) B x_s
    - (tau_{s-1} / tau_{s+1}) x_{s-1} realizes p_s(W) = T_s(B) / T_s(b1).
    In the ratios rho_s = tau_{s-1} / tau_s, rho_1 = 1 / b1 and
    rho_{s+1} = 1 / (2 b1 - rho_s), step s multiplies B by g_1 = rho_1 or
    g_s = 2 rho_s, and x_{s-2} by c_1 = 0 or c_s = rho_{s-1} rho_s. Since
    b1 > 1, every rho_s lies in (0, 1), so the scalars stay finite for any
    step count, where tau_s overflows. Folding g_s B_s into one matrix, step
    s is x_s = (a_s W_s + d_s I) x_{s-1} - c_s x_{s-2} with
    a_s = 2 g_s / (l_max - l_min) and d_s = -g_s (l_max + l_min) / (l_max -
    l_min).
    """
    b1 = cheb.b1
    rho = np.empty(steps)
    r = 1.0 / b1
    for s in range(steps):
        rho[s] = r
        r = 1.0 / (2.0 * b1 - r)
    g = 2.0 * rho
    g[0] = rho[0]
    c = np.zeros(steps)
    np.multiply(rho[:-1], rho[1:], out=c[1:])
    lam_sum = cheb.lambda_max + cheb.lambda_min
    lam_diff = cheb.lambda_max - cheb.lambda_min
    a = g * (2.0 / lam_diff)
    d = g * -(lam_sum / lam_diff)
    return a, d, c


def _synthetic_result(z0: np.ndarray, z: np.ndarray) -> ConsensusResult:
    """A synthetic engine's output ``z`` for the (B, K, m) ``z0``, with zero (B, K) counters."""
    return ConsensusResult(z, np.zeros(z0.shape[:2], dtype=np.int64))


class ErrorInjectingEngine:
    """Synthetic consensus returning the exact mean plus prescribed errors.

    It takes (B, K, m) stacks, as the algorithms hand them, and averages
    over the node axis 1. ``errors`` is either a sequence consumed one entry
    per call or a callable ``(call_index, z0) -> error``. Each entry must
    have the shape of the stack; for real-valued inputs the injected error
    must be real, so that scalar averaging of nonnegative quantities stays
    real as it does under the physical engines.
    """

    def __init__(
        self,
        errors: Sequence[np.ndarray] | Callable[[int, np.ndarray], np.ndarray],
    ) -> None:
        self._errors = errors
        self.calls = 0

    def run(self, z0: np.ndarray) -> ConsensusResult:
        z0 = np.asarray(z0)
        if z0.ndim != 3:
            raise ConsensusError("a synthetic engine takes (trials, K, m) stacks")
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
        return _synthetic_result(z0, z0.mean(axis=1, keepdims=True) + err)
