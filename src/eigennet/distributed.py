"""Decentralized eigenvalue algorithms over average consensus.

Per-node state machines for the decentralized power method (DPM) and the
decentralized Lanczos algorithm (DLA). Cross-node interaction happens only
through consensus calls; every local update reads a node's own sample row,
its own scalars, and its own row of the consensus output. Message counters
are always recorded. Error instrumentation is on request: a run with
``trace=True`` also keeps the realized consensus errors, their closed-form
impact on the iterates and the measured-vs-predicted Lanczos drift. The
Monte-Carlo experiments read only the estimates, so they leave it off, and
their runs keep no per-iteration consensus errors.

Implementation note: node-local scalars are stored in length-K arrays and
updated with row-wise numpy operations, which preserves locality (entry k
never reads entry j) while keeping runs vectorized. Both algorithms also
take a leading trial axis: a (B, K, N) sample stack runs B independent
sensing periods in one loop, and a plain (K, N) call is the B = 1 case,
returned without the trial axis. Every consensus round of a block is one
:func:`~eigennet.consensus.run_block` call. One engine runs the whole stack
in one ``run`` call: one stacked product on fixed weights, the per-column
mean under ideal averaging, and under link failures one draw of surviving
links that every trial of the block shares. A list with one engine per trial
runs each trial alone, so each trial's failure generator is consumed in the
order a lone run consumes it. Results carry the trial axis on every array
and one :class:`MessageAudit` per trial, and ``trial(b)`` gives the result
trial b would have had alone (on a fresh equal engine), to the bit. Past the
iteration loop, at each Ritz checkpoint the Ritz values of every node of
every trial sit in one (rows, j) stack, NaN-padded for nodes whose matrix
stopped growing, which is solved by batched LAPACK calls per distinct size
and filtered in one batched pass. A traced run reads the consensus errors
one iteration at a time (DPM drift inside the loop, DLA w-error terms after
it), because a stack of every iteration's errors for a whole block would set
the peak memory of a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .consensus import run_block
from .eigencore import (
    EigenSolution,
    TridiagonalMatrix,
    filter_spurious_batch,
    row_norms,
    sample_covariance,
    tridiagonal_eigenvalues_batch,
)
from .errors import AuditMismatch, DegenerateRunError, MissingTraceError
from .topology import Graph

__all__ = [
    "NodeState",
    "MessageAudit",
    "DpmErrorTrace",
    "DlaErrorTrace",
    "ConvergenceTrace",
    "ConvergenceVerdict",
    "DpmResult",
    "DlaResult",
    "default_dpm_start",
    "default_dla_start",
    "run_dpm",
    "run_dla",
    "predict_dpm_vector_error",
    "predict_lambda1_error",
    "predict_dla_w_error",
    "matrix_error_for_drift",
    "make_convergence_trace",
    "check_dpm_convergence_condition",
    "audit_messages",
]


@dataclass(frozen=True)
class NodeState:
    """Snapshot of one node's local scalars at the end of a run."""

    node: int
    samples: np.ndarray
    v_cur: complex
    v_prev: complex
    w: complex
    alpha_hist: np.ndarray
    beta_hist: np.ndarray
    lambda_est: np.ndarray


@dataclass(frozen=True)
class MessageAudit:
    """Consensus call counts and per-node information units for one run."""

    ac_n_calls: int
    ac_1_calls: int
    units_per_node: dict[int, int]
    time_periods: int


@dataclass
class DpmErrorTrace:
    """Realized consensus errors of a DPM run and their closed-form impact.

    ``iteration_drift`` row j-1 holds the additive error on the power iterate
    caused by iteration j's consensus error, (K/N) e_j[k]^H y_k per node.
    ``numerator_error`` and ``denominator_error`` are the exact perturbations
    of the final Rayleigh-quotient numerator and denominator induced by the
    two final-stage consensus errors.
    """

    iteration_errors: list[np.ndarray]
    iteration_drift: np.ndarray
    final_matrix_error: np.ndarray
    final_scalar_error: np.ndarray
    numerator_error: np.ndarray
    denominator_error: np.ndarray

    def trial(self, t: int) -> DpmErrorTrace:
        return DpmErrorTrace(
            iteration_errors=[e[t] for e in self.iteration_errors],
            iteration_drift=self.iteration_drift[t],
            final_matrix_error=self.final_matrix_error[t],
            final_scalar_error=self.final_scalar_error[t],
            numerator_error=self.numerator_error[t],
            denominator_error=self.denominator_error[t],
        )


@dataclass
class DlaErrorTrace:
    """Per-iteration consensus errors of a DLA run, with drift bookkeeping.

    ``normalization_errors`` row j-1 is the scalar-consensus error behind the
    off-diagonal coefficient used at iteration j (zero for j = 1).
    ``w_error_measured`` is the deviation of the computed w from the one an
    exact iteration would have produced from the same current vectors;
    ``w_error_predicted`` is its closed-form first-order prediction.
    ``taylor_flags`` marks nodes where the scalar error is too large for the
    first-order expansion of the square root to be trusted.
    """

    iteration_matrix_errors: list[np.ndarray]
    normalization_errors: np.ndarray
    w_error_measured: np.ndarray
    w_error_predicted: np.ndarray
    taylor_flags: np.ndarray

    def trial(self, t: int) -> DlaErrorTrace:
        return DlaErrorTrace(
            iteration_matrix_errors=[e[t] for e in self.iteration_matrix_errors],
            normalization_errors=self.normalization_errors[t],
            w_error_measured=self.w_error_measured[t],
            w_error_predicted=self.w_error_predicted[t],
            taylor_flags=self.taylor_flags[t],
        )


@dataclass(frozen=True)
class ConvergenceTrace:
    """Angle-to-dominant-eigenvector trajectory plus drift magnitudes."""

    sin_theta: np.ndarray
    drift_inf: np.ndarray


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Outcome of the drift-decay sufficient condition check."""

    condition_satisfied: bool
    rate_margin: float
    sin_theta_final: float
    sin_theta: np.ndarray
    ratios: np.ndarray


@dataclass
class DpmResult:
    """A DPM run; a stacked run has a leading trial axis and one audit per trial."""

    lambda1: np.ndarray
    v_hist: np.ndarray
    trace: DpmErrorTrace | None
    audit: MessageAudit | list[MessageAudit]
    checkpoints: dict[int, np.ndarray]
    m_iterations: int
    ac_iterations: int | None
    graph: Graph | None
    samples: np.ndarray = field(repr=False)
    algorithm: str = "dpm"

    def trial(self, t: int) -> DpmResult:
        """Trial t of a stacked run, as the run of that trial alone returns it."""
        return replace(
            self,
            lambda1=self.lambda1[t],
            v_hist=self.v_hist[t],
            trace=None if self.trace is None else self.trace.trial(t),
            audit=self.audit[t],
            checkpoints={j: lam[t] for j, lam in self.checkpoints.items()},
            samples=self.samples[t],
        )

    def node_state(self, k: int) -> NodeState:
        m = self.m_iterations
        return NodeState(
            node=k,
            samples=self.samples[k],
            v_cur=complex(self.v_hist[m, k]),
            v_prev=complex(self.v_hist[m - 1, k]),
            w=0j,
            alpha_hist=np.zeros(0),
            beta_hist=np.zeros(0),
            lambda_est=np.array([self.lambda1[k]]),
        )


@dataclass
class DlaResult:
    """A DLA run; a stacked run has a leading trial axis and one audit per trial.

    ``ritz_stacks`` and ``eigenvalue_stacks`` map each extracted iteration j
    to the NaN-padded (..., K, j) raw and filtered Ritz values; filtered rows
    hold their kept values first. ``ritz_raw`` and ``eigenvalues`` give the
    same values as one array per node (nested per trial for a stacked run).
    """

    alpha_hist: np.ndarray
    beta_hist: np.ndarray
    v_hist: np.ndarray
    w_hist: np.ndarray
    w_norms: np.ndarray
    sizes: np.ndarray
    ritz_stacks: dict[int, np.ndarray]
    eigenvalue_stacks: dict[int, np.ndarray]
    clamped: np.ndarray
    trace: DlaErrorTrace | None
    audit: MessageAudit | list[MessageAudit]
    m_iterations: int
    ac_iterations: int | None
    graph: Graph | None
    samples: np.ndarray = field(repr=False)
    algorithm: str = "dla"

    @cached_property
    def ritz_raw(self) -> dict[int, list]:
        return {j: _unpad(s) for j, s in self.ritz_stacks.items()}

    @cached_property
    def eigenvalues(self) -> dict[int, list]:
        return {j: _unpad(s) for j, s in self.eigenvalue_stacks.items()}

    def trial(self, t: int) -> DlaResult:
        """Trial t of a stacked run, as the run of that trial alone returns it."""
        return replace(
            self,
            alpha_hist=self.alpha_hist[t],
            beta_hist=self.beta_hist[t],
            v_hist=self.v_hist[t],
            w_hist=self.w_hist[t],
            w_norms=self.w_norms[t],
            sizes=self.sizes[t],
            ritz_stacks={j: s[t] for j, s in self.ritz_stacks.items()},
            eigenvalue_stacks={j: s[t] for j, s in self.eigenvalue_stacks.items()},
            clamped=self.clamped[t],
            trace=None if self.trace is None else self.trace.trial(t),
            audit=self.audit[t],
            samples=self.samples[t],
        )

    def tridiagonal(self, k: int, size: int | None = None) -> TridiagonalMatrix:
        s = int(self.sizes[k]) if size is None else min(size, int(self.sizes[k]))
        return TridiagonalMatrix(
            self.alpha_hist[:s, k].copy(),
            self.beta_hist[: s - 1, k].copy() if s > 1 else np.zeros(0),
            invariant_subspace=int(self.sizes[k]) < self.m_iterations,
        )

    def node_state(self, k: int) -> NodeState:
        s = int(self.sizes[k])
        last = self.eigenvalues.get(self.m_iterations)
        lam = last[k] if last is not None else np.zeros(0)
        return NodeState(
            node=k,
            samples=self.samples[k],
            v_cur=complex(self.v_hist[min(s, self.m_iterations), k]),
            v_prev=complex(self.v_hist[max(min(s, self.m_iterations) - 1, 0), k]),
            w=complex(self.w_hist[s - 1, k]),
            alpha_hist=self.alpha_hist[:s, k].copy(),
            beta_hist=np.concatenate(([0.0], self.beta_hist[: s - 1, k])),
            lambda_est=np.asarray(lam),
        )


def default_dpm_start(k: int, seed: int = 0) -> np.ndarray:
    """Seeded unit-variance complex starting scalars, one per node."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)


def default_dla_start(k: int) -> np.ndarray:
    """Uniform starting scalars meeting the global unit-norm constraint."""
    return np.full(k, 1.0 / math.sqrt(k), dtype=complex)


def _require_trace(trace):
    """The error trace of a run, or a typed error for a run made without one."""
    if trace is None:
        raise MissingTraceError(
            "the run kept no error trace; rerun it with trace=True"
        )
    return trace


def _unpad(stack: np.ndarray):
    """The values of each row of a NaN-padded stack, nested over leading axes."""
    if stack.ndim == 1:
        return stack[~np.isnan(stack)]
    return [_unpad(row) for row in stack]


def _trials(y: np.ndarray) -> tuple[bool, np.ndarray]:
    """Samples as a (B, K, N) stack, and whether they came as one (K, N) trial."""
    y = np.asarray(y, dtype=complex)
    if y.ndim not in (2, 3):
        raise ValueError("samples must be (K, N) or a (trials, K, N) stack")
    return y.ndim == 2, (y[None] if y.ndim == 2 else y)


def _start_values(v: np.ndarray, trials: int, k: int) -> np.ndarray:
    """Starting scalars as a writable (B, K) stack; a (K,) vector serves every trial."""
    v = np.asarray(v, dtype=complex)
    if v.shape not in ((k,), (trials, k)):
        raise ValueError("starting values must be one scalar per node")
    return np.array(np.broadcast_to(v, (trials, k)), order="C")


def _engine_info(ac) -> tuple[int | None, Graph | None]:
    """Averaging iterations and graph shared by every trial's engine, else None.

    Both are optional engine attributes: an engine without them (a synthetic
    one) shares neither.
    """
    engines = ac if isinstance(ac, (list, tuple)) else [ac]
    iterations = {getattr(e, "iterations", None) for e in engines}
    graphs = {id(getattr(e, "graph", None)) for e in engines}
    return (
        iterations.pop() if len(iterations) == 1 else None,
        getattr(engines[0], "graph", None) if len(graphs) == 1 else None,
    )


class _BlockConsensus:
    """A block's consensus rounds, with call counts and per-node units per trial."""

    def __init__(self, ac, trials: int, k: int) -> None:
        self.ac = ac
        self.ac_n = 0
        self.ac_1 = 0
        self.units = np.zeros((trials, k), dtype=np.int64)

    def run(self, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One consensus round of the block on (B, K, m) or (B, K) ``z0``.

        Returns the output and the error, each in the shape of ``z0``.
        """
        res = run_block(self.ac, z0)
        if z0.ndim == 2 or z0.shape[2] == 1:
            self.ac_1 += 1
        else:
            self.ac_n += 1
        self.units += res.scalars_exchanged_per_node
        return res.z, res.error

    def audits(self) -> list[MessageAudit]:
        return [
            MessageAudit(
                ac_n_calls=self.ac_n,
                ac_1_calls=self.ac_1,
                units_per_node={k: int(u) for k, u in enumerate(row)},
                time_periods=self.ac_n + self.ac_1,
            )
            for row in self.units.tolist()
        ]


def _dpm_final_stage(y, v, rounds, scale):
    z_n, e_n = rounds.run(v.conj()[:, :, None] * y)
    z_1, e_1 = rounds.run(np.abs(v) ** 2)
    denom = np.real(z_1)
    if np.any(denom == 0.0):
        raise DegenerateRunError("zero denominator in the eigenvalue stage")
    numer = scale * np.sum(np.abs(z_n) ** 2, axis=2)
    # a non-finite iterate of any earlier iteration reaches every node here
    if not (np.all(np.isfinite(numer)) and np.all(np.isfinite(denom))):
        raise DegenerateRunError(
            "DPM eigenvalue stage overflowed: the unnormalized power iterate "
            "outgrew floating point"
        )
    return numer / denom, e_n, np.real(e_1)


def run_dpm(
    y: np.ndarray,
    ac,
    m_iterations: int,
    v0: np.ndarray | None = None,
    *,
    v0_seed: int = 0,
    checkpoints: tuple[int, ...] = (),
    trace: bool = False,
) -> DpmResult:
    """Decentralized power method.

    Each iteration runs one width-N consensus on the rows v[k]* y_k and a
    local inner product per node; the eigenvalue stage adds one width-N and
    one scalar consensus. ``checkpoints`` requests additional eigenvalue
    stages after the listed iterations (each costs two extra consensus
    calls); the final iteration always gets one.

    ``y`` is one (K, N) trial or a (B, K, N) stack of trials; ``ac`` is one
    consensus engine or a list of one per trial, as
    :func:`~eigennet.consensus.run_block` takes it, and ``v0`` one (K,)
    start shared by every trial or a (B, K) stack. A stack returns a
    stacked result whose ``trial(b)`` equals the run of trial b alone.

    ``trace=True`` keeps the error trace (:class:`DpmErrorTrace`) that the
    ``predict_*`` helpers read; otherwise ``.trace`` is None. Every other
    field is the same to the bit either way.
    """
    single, y = _trials(y)
    trials, k, n = y.shape
    if m_iterations < 1:
        raise ValueError("need at least one iteration")
    if v0 is None:
        v0 = default_dpm_start(k, v0_seed)
    v = _start_values(v0, trials, k)
    if not np.all(np.any(v != 0, axis=1)):
        raise ValueError("starting values must not all be zero")
    wanted = set(int(j) for j in checkpoints)
    if not all(1 <= j <= m_iterations for j in wanted):
        raise ValueError("checkpoints must lie in 1..m_iterations")
    scale = k / n
    rounds = _BlockConsensus(ac, trials, k)
    v_hist = np.empty((trials, m_iterations + 1, k), dtype=complex)
    v_hist[:, 0] = v
    iteration_errors: list[np.ndarray] = []
    drift = np.empty((trials, m_iterations, k), dtype=complex) if trace else None
    snapshots: dict[int, np.ndarray] = {}
    # an overflowing iterate turns inf and NaN on its way to the eigenvalue
    # stage, which raises a typed error for it; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m_iterations + 1):
            z, error = rounds.run(v.conj()[:, :, None] * y)
            if trace:
                iteration_errors.append(error)
                drift[:, j - 1] = scale * np.einsum("bkn,bkn->bk", error.conj(), y)
            v = scale * np.einsum("bkn,bkn->bk", z.conj(), y)
            v_hist[:, j] = v
            if j in wanted and j != m_iterations:
                lam_j, _, _ = _dpm_final_stage(y, v, rounds, scale)
                snapshots[j] = lam_j
        lam, e_mat, e_scalar = _dpm_final_stage(y, v, rounds, scale)
    snapshots[m_iterations] = lam
    error_trace = None
    if trace:
        e_num, e_den = _lambda1_error_terms(y, v, e_mat, e_scalar)
        error_trace = DpmErrorTrace(
            iteration_errors=iteration_errors,
            iteration_drift=drift,
            final_matrix_error=e_mat,
            final_scalar_error=e_scalar,
            numerator_error=e_num,
            denominator_error=e_den,
        )
    ac_iterations, graph = _engine_info(ac)
    result = DpmResult(
        lambda1=lam,
        v_hist=v_hist,
        trace=error_trace,
        audit=rounds.audits(),
        checkpoints=snapshots,
        m_iterations=m_iterations,
        ac_iterations=ac_iterations,
        graph=graph,
        samples=y,
    )
    return result.trial(0) if single else result


def _lambda1_error_terms(y, v, e_mat, e_scalar):
    """Exact perturbations of the Rayleigh-quotient numerator and denominator.

    Takes one trial, or stacks with a leading trial axis on every argument.
    """
    k, n = y.shape[-2:]
    yhv = (np.swapaxes(y.conj(), -1, -2) @ v[..., None])[..., 0]
    cross = np.einsum("...kn,...n->...k", e_mat, yhv)
    e_num = (k / n) * 2.0 * np.real(cross) + (k * k / n) * np.sum(
        np.abs(e_mat) ** 2, axis=-1
    )
    e_den = k * np.real(e_scalar)
    return e_num, e_den


def predict_dpm_vector_error(
    trace: DpmErrorTrace, r: np.ndarray, v0: np.ndarray, m_iterations: int
) -> np.ndarray:
    """Reconstruct the final power iterate from the recorded drift terms.

    Returns R^M v0 plus the drift of each iteration propagated through the
    remaining R powers; the identity is exact, so the result matches the
    simulated iterate to rounding.
    """
    drift = _require_trace(trace).iteration_drift
    x = np.asarray(v0, dtype=complex).copy()
    for j in range(1, m_iterations + 1):
        x = r @ x + drift[j - 1]
    return x


def predict_lambda1_error(trace: DpmErrorTrace, y: np.ndarray, v_m: np.ndarray):
    """Closed-form eigenvalue-stage errors and the reconstructed estimates.

    Returns (numerator_error, denominator_error, lambda1_reconstructed); the
    reconstruction equals the simulated per-node estimates exactly because no
    approximation enters the derivation.
    """
    trace = _require_trace(trace)
    e_num, e_den = _lambda1_error_terms(
        y, v_m, trace.final_matrix_error, trace.final_scalar_error
    )
    r = sample_covariance(y)
    quad = float(np.real(np.vdot(v_m, r @ v_m)))
    norm_sq = float(np.real(np.vdot(v_m, v_m)))
    lam = (quad + e_num) / (norm_sq + e_den)
    return e_num, e_den, lam


def run_dla(
    y: np.ndarray,
    ac,
    m_iterations: int,
    v1: np.ndarray | None = None,
    *,
    ritz_iters=None,
    spurious_tol_rel: float = 1e-3,
    breakdown_tol: float | None = None,
    trace: bool = False,
) -> DlaResult:
    """Decentralized Lanczos algorithm.

    Each iteration runs one width-N consensus (for the diagonal coefficient
    and the new direction) and one scalar consensus (for the off-diagonal
    coefficient). Every node assembles its own tridiagonal matrix; Ritz
    values are extracted at the iterations listed in ``ritz_iters`` (default:
    only the final one; pass "all" for every iteration) and filtered for
    spurious values.

    Negative scalar-consensus outputs are clamped to zero and flagged. An
    off-diagonal coefficient below the breakdown guard freezes that node's
    tridiagonal matrix at its current size, mirroring centralized truncation.

    ``y``, ``ac`` and ``v1`` take a trial axis as in :func:`run_dpm`; each
    trial has its own breakdown guard. ``trace=True`` keeps the error trace
    (:class:`DlaErrorTrace`), as in :func:`run_dpm`.
    """
    single, y = _trials(y)
    trials, k, n = y.shape
    if not (1 <= m_iterations <= k):
        raise ValueError("iteration count must be between 1 and K")
    if v1 is None:
        v1 = default_dla_start(k)
    v = _start_values(v1, trials, k)
    if np.any(np.abs(np.sum(np.abs(v) ** 2, axis=1) - 1.0) > 1e-10):
        raise ValueError("starting values must have unit global norm")
    if ritz_iters is None:
        wanted = {m_iterations}
    elif ritz_iters == "all":
        wanted = set(range(1, m_iterations + 1))
    else:
        wanted = set(int(j) for j in ritz_iters)
        if not all(1 <= j <= m_iterations for j in wanted):
            raise ValueError("ritz iterations must lie in 1..m_iterations")

    if breakdown_tol is not None:
        eps_break = np.full(trials, breakdown_tol)
    else:
        # ||Y Y^H / N||_F, read off the N x N Gram matrix Y^H Y / N, whose
        # Frobenius norm is the same and which is the smaller one when N < K
        if not np.all(np.isfinite(y.view(float))):
            raise ValueError("sample matrix has non-finite entries")
        eps_break = 1e-12 * row_norms((np.swapaxes(y.conj(), -1, -2) @ y) / n)
    scale = k / n
    rounds = _BlockConsensus(ac, trials, k)

    m = m_iterations
    alpha_hist = np.zeros((trials, m, k))
    beta_hist = np.zeros((trials, m, k))
    v_hist = np.zeros((trials, m + 1, k), dtype=complex)
    w_hist = np.zeros((trials, m, k), dtype=complex)
    w_norms = np.zeros((trials, m))
    clamped = np.zeros((trials, m, k), dtype=bool)
    sizes = np.full((trials, k), m, dtype=np.int64)
    active = np.ones((trials, k), dtype=bool)

    matrix_errors: list[np.ndarray] = []
    normalization_errors = np.zeros((trials, m, k)) if trace else None

    v_hist[:, 0] = v
    v_prev = np.zeros((trials, k), dtype=complex)
    beta_cur = np.zeros((trials, k))
    for j in range(1, m + 1):
        z, error = rounds.run(v.conj()[:, :, None] * y)
        if trace:
            matrix_errors.append(error)
        alpha_j = (k * k / n) * np.sum(np.abs(z) ** 2, axis=2)
        local = scale * np.einsum("bkn,bkn->bk", z.conj(), y)
        w = local - alpha_j * v - beta_cur * v_prev
        alpha_hist[:, j - 1] = alpha_j
        w_hist[:, j - 1] = w
        w_norms[:, j - 1] = row_norms(w)
        z_1, error_1 = rounds.run(np.abs(w) ** 2)
        b = np.real(z_1)
        neg = b < 0
        clamped[:, j - 1] = neg
        b = np.where(neg, 0.0, b)
        beta_next = np.sqrt(k * b)
        if trace and j < m:
            normalization_errors[:, j] = np.real(error_1)
        broke = active & (beta_next < eps_break[:, None])
        sizes[broke] = j
        active &= ~broke
        beta_hist[:, j - 1] = beta_next
        v_prev = v
        v = np.divide(
            w, beta_next, out=np.zeros_like(w), where=beta_next > 0
        )
        v_hist[:, j] = v
        beta_cur = beta_next
    # the last round's (B, K, N) output and error would stay alive through
    # the Ritz extraction, which sets the peak memory of an untraced run
    del z, error

    error_trace = None
    if trace:
        error_trace = _dla_error_trace(
            y, matrix_errors, normalization_errors, v_hist[:, :m], w_hist, w_norms
        )
    # every node of every trial is one row of the Ritz extraction
    raw, filtered = _extract_ritz(
        alpha_hist.transpose(0, 2, 1).reshape(trials * k, m),
        beta_hist.transpose(0, 2, 1).reshape(trials * k, m),
        sizes.reshape(trials * k),
        wanted,
        k,
        n,
        spurious_tol_rel,
    )
    ac_iterations, graph = _engine_info(ac)
    result = DlaResult(
        alpha_hist=alpha_hist,
        beta_hist=beta_hist,
        v_hist=v_hist,
        w_hist=w_hist,
        w_norms=w_norms,
        sizes=sizes,
        ritz_stacks={j: s.reshape(trials, k, j) for j, s in raw.items()},
        eigenvalue_stacks={j: s.reshape(trials, k, j) for j, s in filtered.items()},
        clamped=clamped,
        trace=error_trace,
        audit=rounds.audits(),
        m_iterations=m,
        ac_iterations=ac_iterations,
        graph=graph,
        samples=y,
    )
    return result.trial(0) if single else result


def _previous(hist: np.ndarray) -> np.ndarray:
    """(B, M, ...) histories shifted down one iteration, zeros for iteration 1."""
    return np.concatenate((np.zeros_like(hist[:, :1]), hist[:, :-1]), axis=1)


def _dla_error_trace(y, matrix_errors, normalization_errors, v, w, w_norms):
    """Instrumentation of a finished DLA run, over all iterations at once.

    Every argument carries a leading trial axis. ``v`` holds the (B, M, K)
    current vectors of iterations 1..M, ``w`` the computed directions and
    ``w_norms`` their (B, M) global norms. The measured deviation compares w
    with the one an exact iteration would produce from the same current
    vectors.
    """
    k, n = y.shape[1:]
    v_prev = _previous(v)
    w_norm_prev = _previous(w_norms)
    rv = ((v @ y.conj()) @ np.swapaxes(y, 1, 2)) / n
    alpha_ideal = np.real(np.sum(v.conj() * rv, axis=2))
    w_ideal = rv - alpha_ideal[:, :, None] * v - w_norm_prev[:, :, None] * v_prev
    predicted = _dla_w_error_terms(
        y, matrix_errors, normalization_errors, v, v_prev, w_norm_prev
    )
    # the first-order expansion of the square root needs a small scalar error
    taylor_flags = (w_norm_prev[:, :, None] > 0) & (
        np.abs(normalization_errors) > 0.1 * w_norm_prev[:, :, None] ** 2 / k
    )
    return DlaErrorTrace(
        iteration_matrix_errors=matrix_errors,
        normalization_errors=normalization_errors,
        w_error_measured=w - w_ideal,
        w_error_predicted=predicted,
        taylor_flags=taylor_flags,
    )


def _dla_w_error_terms(y, e_mat, e_scalar, v, v_prev, w_norm_prev):
    """First-order prediction of the per-node deviation of w.

    Every argument carries a leading trial axis, and all but ``y`` and
    ``e_mat`` an iteration axis after it: (B, M, K) scalar errors and
    vectors, and the (B, M) previous norms (zero where there is no previous
    iteration). ``e_mat`` lists the (B, K, N) matrix errors of each
    iteration; they are read one iteration at a time, because a stack of
    them would set the peak memory of a run. The matrix-error terms are
    exact; the scalar-error term is the Taylor linearization of the square
    root in the normalization step.
    """
    k, n = y.shape[1:]
    yhv = v @ y.conj()
    pred = np.empty_like(v)
    for j, e in enumerate(e_mat):
        term1 = (k / n) * np.einsum("bkn,bkn->bk", e.conj(), y)
        cross = np.einsum("bkn,bn->bk", e, yhv[:, j])
        e_alpha = (k / n) * 2.0 * np.real(cross) + (k * k / n) * np.sum(
            np.abs(e) ** 2, axis=2
        )
        pred[:, j] = term1 - e_alpha * v[:, j]
    has_prev = w_norm_prev > 0
    pred[has_prev] -= (
        (k / (2.0 * w_norm_prev[has_prev]))[:, None]
        * e_scalar[has_prev]
        * v_prev[has_prev]
    )
    return pred


def predict_dla_w_error(
    trace: DlaErrorTrace, y: np.ndarray, result: DlaResult, j: int
) -> np.ndarray:
    """Closed-form prediction of the iteration-j deviation of w.

    Uses iteration j's width-N consensus error, the scalar-consensus error
    behind the off-diagonal coefficient applied at iteration j, and the
    simulated vectors of one trial's run. The residual against the measured
    deviation is second order in the scalar error.
    """
    trace = _require_trace(trace)
    if not (1 <= j <= result.m_iterations):
        raise ValueError("iteration out of range")
    at = slice(j - 1, j)
    v = result.v_hist[None, : result.m_iterations]
    return _dla_w_error_terms(
        np.asarray(y, dtype=complex)[None],
        [trace.iteration_matrix_errors[j - 1][None]],
        trace.normalization_errors[None, at],
        v[:, at],
        _previous(v)[:, at],
        _previous(result.w_norms[None])[:, at],
    )[0, 0]


def _extract_ritz(alpha, beta, sizes, wanted, k, n, tol_rel):
    """Ritz values of a stack of tridiagonal matrices, raw and filtered.

    Row s of the (rows, M) ``alpha`` and ``beta`` holds one matrix's
    diagonal and off-diagonal coefficient history, and ``sizes`` the size
    at which each matrix stopped growing; ``k`` and ``n`` are the sample
    dimensions that drive the spurious-value filter. Rows are the nodes of
    every trial of a decentralized run, or the trials of a centralized one.
    At iteration j every row's values sit in one (rows, j) stack, NaN-padded
    past the row's size, which is solved with one batched call per distinct
    size and filtered in one batched pass. Returns two dicts of NaN-padded
    (rows, j) stacks: raw values at every iteration the filter needs, and
    the filtered values, kept values first, at the wanted ones. Non-finite
    coefficients raise :class:`DegenerateRunError` before any solve.
    """
    # entries past a row's size are never read, so only the others count
    read = np.arange(alpha.shape[1]) < sizes[:, None]
    coefficients = np.concatenate((alpha[read], beta[:, :-1][read[:, 1:]]))
    if not np.all(np.isfinite(coefficients)):
        raise DegenerateRunError(
            "Lanczos coefficients are not finite: the samples are too large "
            "for floating point"
        )
    limit = min(k, n)
    rows = alpha.shape[0]
    needed = set(wanted) | {j - 1 for j in wanted if j > limit}
    raw: dict[int, np.ndarray] = {}
    for j in sorted(needed):
        eff = np.minimum(sizes, j)
        values = np.full((rows, j), np.nan)
        for s in np.unique(eff):
            sel = np.nonzero(eff == s)[0]
            values[sel, :s] = tridiagonal_eigenvalues_batch(
                alpha[sel, :s], beta[sel, : s - 1]
            )
        raw[j] = values
    filtered: dict[int, np.ndarray] = {}
    for j in sorted(wanted):
        cur = raw[j]
        peak = np.max(np.abs(cur), axis=1, where=~np.isnan(cur), initial=0.0)
        filtered[j] = filter_spurious_batch(
            cur,
            raw[j - 1] if j > limit else None,
            k,
            n,
            tol_rel * np.maximum(peak, 1e-12),
            padded=True,
        )
    return raw, filtered


def matrix_error_for_drift(y: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """Width-N consensus error whose induced iterate drift equals ``drift``.

    Choosing each error row proportional to the node's own sample row makes
    (K/N) e[k]^H y_k hit the requested per-node value exactly; used to drive
    instrumented runs with a prescribed drift sequence.
    """
    y = np.asarray(y, dtype=complex)
    k, n = y.shape
    row_energy = np.sum(np.abs(y) ** 2, axis=1)
    if np.any(row_energy == 0):
        raise ValueError("every node needs a nonzero sample row")
    coef = np.conj(np.asarray(drift, dtype=complex)) * n / (k * row_energy)
    return coef[:, None] * y


def make_convergence_trace(result: DpmResult, oracle: EigenSolution) -> ConvergenceTrace:
    """Angle of each power iterate to the oracle dominant eigenvector."""
    drift = _require_trace(result.trace).iteration_drift
    if oracle.vectors is None:
        raise ValueError("oracle must carry eigenvectors")
    u1 = oracle.vectors[:, 0]
    sins = np.empty(result.v_hist.shape[0])
    for i, v in enumerate(result.v_hist):
        nv = float(np.linalg.norm(v))
        c = abs(np.vdot(u1, v)) / nv if nv > 0 else 0.0
        sins[i] = math.sqrt(max(0.0, 1.0 - min(c, 1.0) ** 2))
    drift_inf = np.max(np.abs(drift), axis=1)
    return ConvergenceTrace(sin_theta=sins, drift_inf=drift_inf)


def check_dpm_convergence_condition(
    trace: ConvergenceTrace,
    spectrum: EigenSolution,
    m_iterations: int,
    *,
    decay_threshold: float = 0.1,
) -> ConvergenceVerdict:
    """Check whether the recorded drift decays fast enough for convergence.

    The sufficient condition compares the per-iteration drift magnitude
    against (1/(j+1)) * (lambda_1 / max(lambda_2, 1))^j. The returned ratios
    divide the recorded drift by that envelope; the condition is judged
    satisfied when the final ratio has fallen below ``decay_threshold`` times
    the initial one (all-zero drift trivially satisfies it).
    """
    lam = spectrum.values
    lam1 = float(lam[0])
    lam2 = float(lam[1]) if len(lam) > 1 else 0.0
    if lam1 <= 1.0:
        raise ValueError(
            "largest eigenvalue must exceed 1; rescale the samples first"
        )
    m = min(m_iterations, len(trace.drift_inf))
    j = np.arange(1, m + 1, dtype=float)
    envelope = (lam1 / max(lam2, 1.0)) ** j / (j + 1.0)
    ratios = trace.drift_inf[:m] / envelope
    if np.all(ratios == 0.0):
        satisfied, margin = True, 0.0
    elif ratios[0] == 0.0:
        satisfied, margin = False, math.inf
    else:
        margin = float(ratios[-1] / ratios[0])
        satisfied = margin < decay_threshold
    return ConvergenceVerdict(
        condition_satisfied=satisfied,
        rate_margin=margin,
        sin_theta_final=float(trace.sin_theta[m]),
        sin_theta=trace.sin_theta,
        ratios=ratios,
    )


def audit_messages(result) -> MessageAudit:
    """Assert the run's message counters against the complexity formulas.

    For a run whose consensus instances all used I iterations on a graph
    with degrees d(k): the power method must show M+1 width-N calls, one
    scalar call, I (M N + N + 1) d(k) units at node k, and M+2 time periods;
    the Lanczos variant M and M calls, I (M N + M) d(k) units, and 2M
    periods. Raises :class:`AuditMismatch` naming the first differing
    counter. Only plain runs qualify (no extra eigenvalue checkpoints).
    """
    if result.graph is None or result.ac_iterations is None:
        raise ValueError("audit needs a run driven by a weighted consensus config")
    m = result.m_iterations
    n = result.samples.shape[1]
    i_iters = result.ac_iterations
    deg = result.graph.degrees()
    if result.algorithm == "dpm":
        expected = {
            "ac_n_calls": m + 1,
            "ac_1_calls": 1,
            "time_periods": m + 2,
        }
        unit_factor = i_iters * (m * n + n + 1)
    elif result.algorithm == "dla":
        expected = {
            "ac_n_calls": m,
            "ac_1_calls": m,
            "time_periods": 2 * m,
        }
        unit_factor = i_iters * (m * n + m)
    else:
        raise ValueError(f"unknown algorithm {result.algorithm!r}")
    audit = result.audit
    for name, want in expected.items():
        got = getattr(audit, name)
        if got != want:
            raise AuditMismatch(f"{name}: measured {got}, formula gives {want}")
    for node, units in audit.units_per_node.items():
        want = unit_factor * int(deg[node])
        if units != want:
            raise AuditMismatch(
                f"units at node {node}: measured {units}, formula gives {want}"
            )
    return audit
