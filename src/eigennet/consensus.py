"""Average-consensus engines.

A consensus run takes a K x m initial matrix whose row k is node k's local
vector and drives every row toward the network-wide mean. Three engines are
provided: ``ideal`` (the exact mean), ``standard`` (repeated multiplication
by the mixing matrix), and ``chebyshev`` (semi-iterative acceleration of the
same mixing). On fixed weights an I-step run of either mixing engine is one
matrix polynomial p_I(W); it is built once per (weights, engine, I) and then
applied as a single product. Under link failures the recurrence runs step by
step on the input, redrawing the surviving links each step. Every result
carries the realized error matrix, the deviation of the output from the exact
mean; that matrix is a simulation observable only and is never read by the
algorithms under test.

Two synthetic engines support instrumentation: :class:`ErrorInjectingEngine`
returns exact means plus caller-chosen error terms (for verifying the
closed-form error expressions), and :class:`ReplayEngine` returns
pre-recorded outputs regardless of input (for locality tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConsensusError
from .topology import ChebyshevParams, Graph, WeightMatrix, metropolis_entries

__all__ = [
    "AcConfig",
    "ConsensusResult",
    "run_consensus",
    "node_view",
    "ErrorInjectingEngine",
    "ReplayEngine",
]

_ENGINES = ("ideal", "standard", "chebyshev")


@dataclass
class ConsensusResult:
    """Output of one consensus run.

    ``error`` is z_t minus the exact per-column mean of the input, recomputed
    from the output so the defining identity holds by construction.
    ``scalars_exchanged_per_node`` counts t * m * degree(k) information units
    for node k (one scalar per neighbor per iteration per input column).
    """

    z: np.ndarray
    error: np.ndarray
    iterations_used: int
    scalars_exchanged_per_node: np.ndarray


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


def _failure_weights(graph: Graph, rng: np.random.Generator, p: float) -> np.ndarray:
    """Metropolis weights on the subgraph of links that survive this iteration.

    One uniform draw per edge, in edge order; a single vector draw consumes
    the generator exactly as the same number of scalar draws would.
    """
    u, v = graph.edge_index
    alive = rng.random(u.size) >= p
    return metropolis_entries(graph.node_count, u[alive], v[alive])


def _iteration_weights(cfg: AcConfig) -> np.ndarray:
    if cfg.link_failure_prob > 0.0:
        assert cfg._failure_rng is not None and cfg.weights is not None
        return _failure_weights(cfg.weights.graph, cfg._failure_rng, cfg.link_failure_prob)
    assert cfg.weights is not None
    return cfg.weights.entries


def _iterate(x0: np.ndarray, cfg: AcConfig) -> np.ndarray:
    """Run the engine's recurrence on x0, fetching the mixing matrix per step."""
    if cfg.engine == "chebyshev":
        return _chebyshev_iterate(x0, cfg)
    x = x0.copy()
    for _ in range(cfg.iterations):
        x = _iteration_weights(cfg) @ x
    return x


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
    """Run one consensus instance on a K x m (or length-K) initial matrix."""
    z0 = np.asarray(z0)
    squeeze = z0.ndim == 1
    x0 = z0[:, None] if squeeze else z0
    if x0.ndim != 2:
        raise ConsensusError("consensus input must be 1- or 2-dimensional")
    k, m = x0.shape
    if cfg.weights is not None and cfg.weights.node_count != k:
        raise ConsensusError(
            f"input has {k} rows but the weight matrix covers "
            f"{cfg.weights.node_count} nodes"
        )
    mean_row = x0.mean(axis=0)
    target = np.broadcast_to(mean_row, x0.shape)

    if cfg.engine == "ideal":
        z = np.tile(mean_row, (k, 1))
        error = np.zeros_like(z)
    else:
        if cfg.link_failure_prob > 0.0 or cfg.iterations == 0:
            z = _iterate(x0, cfg)
        else:
            z = _mixing_operator(cfg) @ x0
        error = z - target

    deg = cfg.graph.degrees() if cfg.graph is not None else np.zeros(k, dtype=np.int64)
    counters = cfg.iterations * m * deg
    if squeeze:
        z = z[:, 0]
        error = error[:, 0]
    return ConsensusResult(
        z=z,
        error=error,
        iterations_used=cfg.iterations,
        scalars_exchanged_per_node=counters,
    )


def _chebyshev_iterate(x0: np.ndarray, cfg: AcConfig) -> np.ndarray:
    """Chebyshev semi-iteration on the rescaled mixing matrix.

    With B = (2 W - (l_max + l_min) I) / (l_max - l_min) and the scalar
    recurrence tau_0 = 1, tau_1 = b1, tau_{t+1} = 2 b1 tau_t - tau_{t-1}, the
    iterates realize p_t(W) = T_t(B)/T_t(b1): the consensus component is
    preserved exactly and disagreement is damped by at least 1/tau_t. Under
    link failures the per-iteration mixing matrix changes but the nominal
    scalar sequence is kept.
    """
    cheb = cfg.cheb
    assert cheb is not None
    t = cfg.iterations
    if t == 0:
        return x0.copy()
    if cheb.is_degenerate:
        # Degenerate disagreement spectrum: plain averaging already contracts
        # as fast as any polynomial in W of the same degree.
        x = x0.copy()
        for _ in range(t):
            x = _iteration_weights(cfg) @ x
        return x
    lam_sum = cheb.lambda_max + cheb.lambda_min
    lam_diff = cheb.lambda_max - cheb.lambda_min
    b1 = cheb.b1

    def apply_b(x: np.ndarray) -> np.ndarray:
        w = _iteration_weights(cfg)
        return (2.0 * (w @ x) - lam_sum * x) / lam_diff

    x_prev = x0.copy()
    x = apply_b(x0) / b1
    tau_prev, tau = 1.0, b1
    for _ in range(2, t + 1):
        tau_next = 2.0 * b1 * tau - tau_prev
        x_next = (2.0 * tau / tau_next) * apply_b(x) - (tau_prev / tau_next) * x_prev
        x_prev, x = x, x_next
        tau_prev, tau = tau, tau_next
    return x


def node_view(result: ConsensusResult, k: int) -> np.ndarray:
    """Row k of the consensus output: the single-node view of the run."""
    if not (0 <= k < result.z.shape[0]):
        raise IndexError(f"node index {k} out of range")
    return result.z[k]


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
        mean_row = z0.mean(axis=0)
        z = mean_row[None, ...] + err if z0.ndim > 1 else mean_row + err
        error = z - np.broadcast_to(mean_row, z0.shape)
        k = z0.shape[0]
        return ConsensusResult(
            z=z,
            error=error,
            iterations_used=0,
            scalars_exchanged_per_node=np.zeros(k, dtype=np.int64),
        )


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
        mean_row = z0.mean(axis=0)
        error = z - np.broadcast_to(mean_row, z0.shape)
        k = z0.shape[0]
        return ConsensusResult(
            z=z,
            error=error,
            iterations_used=0,
            scalars_exchanged_per_node=np.zeros(k, dtype=np.int64),
        )
