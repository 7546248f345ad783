"""Decentralized eigenvalue algorithms over average consensus.

Per-node state machines for the decentralized power method (DPM) and the
decentralized Lanczos algorithm (DLA). Cross-node interaction happens only
through consensus calls; every local update reads a node's own sample row,
its own scalars, and its own row of the consensus output. Runs are
instrumented: realized consensus errors, their closed-form impact on the
iterates, measured-vs-predicted Lanczos drift, and message counters are all
recorded.

Implementation note: node-local scalars are stored in length-K arrays and
updated with row-wise numpy operations, which preserves locality (entry k
never reads entry j) while keeping runs vectorized. The same holds past the
iteration loop: at each Ritz checkpoint all nodes' Ritz values sit in one
(nodes, j) stack, NaN-padded for nodes whose matrix stopped growing, which is
solved by one batched LAPACK call per distinct size and filtered in one
batched pass; the error instrumentation is derived once per run from the
stacked per-iteration consensus errors and vectors, not inside the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import AcConfig, ConsensusResult, run_consensus
from .eigencore import (
    EigenSolution,
    TridiagonalMatrix,
    filter_spurious_batch,
    sample_covariance,
    tridiagonal_eigenvalues_batch,
)
from .errors import AuditMismatch, DegenerateRunError
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
    lambda1: np.ndarray
    v_hist: np.ndarray
    trace: DpmErrorTrace
    audit: MessageAudit
    checkpoints: dict[int, np.ndarray]
    m_iterations: int
    ac_iterations: int | None
    graph: Graph | None
    samples: np.ndarray = field(repr=False)
    algorithm: str = "dpm"

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
    alpha_hist: np.ndarray
    beta_hist: np.ndarray
    v_hist: np.ndarray
    w_hist: np.ndarray
    w_norms: np.ndarray
    sizes: np.ndarray
    ritz_raw: dict[int, list[np.ndarray]]
    eigenvalues: dict[int, list[np.ndarray]]
    clamped: np.ndarray
    trace: DlaErrorTrace
    audit: MessageAudit
    m_iterations: int
    ac_iterations: int | None
    graph: Graph | None
    samples: np.ndarray = field(repr=False)
    algorithm: str = "dla"

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


def _run_ac(ac, z0: np.ndarray) -> ConsensusResult:
    if isinstance(ac, AcConfig):
        return run_consensus(z0, ac)
    return ac.run(z0)


def _ac_iterations(ac) -> int | None:
    return ac.iterations if isinstance(ac, AcConfig) else None


def _ac_graph(ac) -> Graph | None:
    return ac.graph if isinstance(ac, AcConfig) else None


class _CallCounter:
    """Accumulates consensus call counts and per-node information units."""

    def __init__(self, k: int) -> None:
        self.ac_n = 0
        self.ac_1 = 0
        self.units = np.zeros(k, dtype=np.int64)

    def record(self, res: ConsensusResult, width: int) -> None:
        if width == 1:
            self.ac_1 += 1
        else:
            self.ac_n += 1
        self.units += res.scalars_exchanged_per_node

    def audit(self) -> MessageAudit:
        return MessageAudit(
            ac_n_calls=self.ac_n,
            ac_1_calls=self.ac_1,
            units_per_node={k: int(u) for k, u in enumerate(self.units)},
            time_periods=self.ac_n + self.ac_1,
        )


def _dpm_final_stage(y, v, ac, counter, scale):
    z0 = v.conj()[:, None] * y
    res_n = _run_ac(ac, z0)
    counter.record(res_n, y.shape[1])
    res_1 = _run_ac(ac, np.abs(v) ** 2)
    counter.record(res_1, 1)
    denom = np.real(res_1.z)
    if np.any(denom == 0.0):
        raise DegenerateRunError("zero denominator in the eigenvalue stage")
    numer = scale * np.sum(np.abs(res_n.z) ** 2, axis=1)
    return numer / denom, res_n.error, np.real(res_1.error)


def run_dpm(
    y: np.ndarray,
    ac,
    m_iterations: int,
    v0: np.ndarray | None = None,
    *,
    v0_seed: int = 0,
    checkpoints: tuple[int, ...] = (),
) -> DpmResult:
    """Decentralized power method.

    Each iteration runs one width-N consensus on the rows v[k]* y_k and a
    local inner product per node; the eigenvalue stage adds one width-N and
    one scalar consensus. ``checkpoints`` requests additional eigenvalue
    stages after the listed iterations (each costs two extra consensus
    calls); the final iteration always gets one.
    """
    y = np.asarray(y, dtype=complex)
    k, n = y.shape
    if m_iterations < 1:
        raise ValueError("need at least one iteration")
    if v0 is None:
        v0 = default_dpm_start(k, v0_seed)
    v = np.asarray(v0, dtype=complex).copy()
    if v.shape != (k,):
        raise ValueError("starting values must be one scalar per node")
    if not np.any(v != 0):
        raise ValueError("starting values must not all be zero")
    scale = k / n
    counter = _CallCounter(k)
    v_hist = np.empty((m_iterations + 1, k), dtype=complex)
    v_hist[0] = v
    iteration_errors: list[np.ndarray] = []
    snapshots: dict[int, np.ndarray] = {}
    wanted = set(int(j) for j in checkpoints)
    if not all(1 <= j <= m_iterations for j in wanted):
        raise ValueError("checkpoints must lie in 1..m_iterations")
    for j in range(1, m_iterations + 1):
        z0 = v.conj()[:, None] * y
        res = _run_ac(ac, z0)
        counter.record(res, n)
        iteration_errors.append(res.error)
        v = scale * np.einsum("kn,kn->k", res.z.conj(), y)
        v_hist[j] = v
        if j in wanted and j != m_iterations:
            lam_j, _, _ = _dpm_final_stage(y, v, ac, counter, scale)
            snapshots[j] = lam_j
    lam, e_mat, e_scalar = _dpm_final_stage(y, v, ac, counter, scale)
    snapshots[m_iterations] = lam
    e_num, e_den = _lambda1_error_terms(y, v, e_mat, e_scalar)
    drift = scale * np.einsum("mkn,kn->mk", np.conj(iteration_errors), y)
    trace = DpmErrorTrace(
        iteration_errors=iteration_errors,
        iteration_drift=drift,
        final_matrix_error=e_mat,
        final_scalar_error=e_scalar,
        numerator_error=e_num,
        denominator_error=e_den,
    )
    return DpmResult(
        lambda1=lam,
        v_hist=v_hist,
        trace=trace,
        audit=counter.audit(),
        checkpoints=snapshots,
        m_iterations=m_iterations,
        ac_iterations=_ac_iterations(ac),
        graph=_ac_graph(ac),
        samples=y,
    )


def _lambda1_error_terms(y, v, e_mat, e_scalar):
    """Exact perturbations of the Rayleigh-quotient numerator and denominator."""
    k, n = y.shape
    yhv = y.conj().T @ v
    cross = np.einsum("kn,n->k", e_mat, yhv)
    e_num = (k / n) * 2.0 * np.real(cross) + (k * k / n) * np.sum(
        np.abs(e_mat) ** 2, axis=1
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
    x = np.asarray(v0, dtype=complex).copy()
    for j in range(1, m_iterations + 1):
        x = r @ x + trace.iteration_drift[j - 1]
    return x


def predict_lambda1_error(trace: DpmErrorTrace, y: np.ndarray, v_m: np.ndarray):
    """Closed-form eigenvalue-stage errors and the reconstructed estimates.

    Returns (numerator_error, denominator_error, lambda1_reconstructed); the
    reconstruction equals the simulated per-node estimates exactly because no
    approximation enters the derivation.
    """
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
    """
    y = np.asarray(y, dtype=complex)
    k, n = y.shape
    if not (1 <= m_iterations <= k):
        raise ValueError("iteration count must be between 1 and K")
    if v1 is None:
        v1 = default_dla_start(k)
    v = np.asarray(v1, dtype=complex).copy()
    if abs(np.sum(np.abs(v) ** 2) - 1.0) > 1e-10:
        raise ValueError("starting values must have unit global norm")
    if ritz_iters is None:
        wanted = {m_iterations}
    elif ritz_iters == "all":
        wanted = set(range(1, m_iterations + 1))
    else:
        wanted = set(int(j) for j in ritz_iters)
        if not all(1 <= j <= m_iterations for j in wanted):
            raise ValueError("ritz iterations must lie in 1..m_iterations")

    r = sample_covariance(y)
    r_scale = float(np.linalg.norm(r))
    eps_break = breakdown_tol if breakdown_tol is not None else 1e-12 * r_scale
    scale = k / n
    counter = _CallCounter(k)

    alpha_hist = np.zeros((m_iterations, k))
    beta_hist = np.zeros((m_iterations, k))
    v_hist = np.zeros((m_iterations + 1, k), dtype=complex)
    w_hist = np.zeros((m_iterations, k), dtype=complex)
    w_norms = np.zeros(m_iterations)
    clamped = np.zeros((m_iterations, k), dtype=bool)
    sizes = np.full(k, m_iterations, dtype=np.int64)
    active = np.ones(k, dtype=bool)

    matrix_errors: list[np.ndarray] = []
    normalization_errors = np.zeros((m_iterations, k))

    v_hist[0] = v
    v_prev = np.zeros(k, dtype=complex)
    beta_cur = np.zeros(k)
    for j in range(1, m_iterations + 1):
        z0 = v.conj()[:, None] * y
        res = _run_ac(ac, z0)
        counter.record(res, n)
        matrix_errors.append(res.error)
        alpha_j = (k * k / n) * np.sum(np.abs(res.z) ** 2, axis=1)
        local = scale * np.einsum("kn,kn->k", res.z.conj(), y)
        w = local - alpha_j * v - beta_cur * v_prev
        alpha_hist[j - 1] = alpha_j
        w_hist[j - 1] = w
        w_norms[j - 1] = float(np.linalg.norm(w))
        res_1 = _run_ac(ac, np.abs(w) ** 2)
        counter.record(res_1, 1)
        b = np.real(res_1.z)
        neg = b < 0
        clamped[j - 1] = neg
        b = np.where(neg, 0.0, b)
        beta_next = np.sqrt(k * b)
        if j < m_iterations:
            normalization_errors[j] = np.real(res_1.error)
        broke = active & (beta_next < eps_break)
        sizes[broke] = j
        active &= ~broke
        beta_hist[j - 1] = beta_next
        v_prev = v
        v = np.divide(
            w, beta_next, out=np.zeros_like(w), where=beta_next > 0
        )
        v_hist[j] = v
        beta_cur = beta_next

    trace = _dla_error_trace(
        y, matrix_errors, normalization_errors, v_hist[:m_iterations], w_hist, w_norms
    )
    raw, filtered = _extract_ritz(
        alpha_hist, beta_hist, sizes, wanted, k, n, spurious_tol_rel
    )
    return DlaResult(
        alpha_hist=alpha_hist,
        beta_hist=beta_hist,
        v_hist=v_hist,
        w_hist=w_hist,
        w_norms=w_norms,
        sizes=sizes,
        ritz_raw=raw,
        eigenvalues=filtered,
        clamped=clamped,
        trace=trace,
        audit=counter.audit(),
        m_iterations=m_iterations,
        ac_iterations=_ac_iterations(ac),
        graph=_ac_graph(ac),
        samples=y,
    )


def _previous(hist: np.ndarray) -> np.ndarray:
    """A per-iteration history shifted down one row, zeros for iteration 1."""
    return np.concatenate((np.zeros_like(hist[:1]), hist[:-1]))


def _dla_error_trace(y, matrix_errors, normalization_errors, v, w, w_norms):
    """Instrumentation of a finished DLA run, over all iterations at once.

    ``v`` holds the (M, K) current vectors of iterations 1..M, ``w`` the
    computed directions and ``w_norms`` their global norms. The measured
    deviation compares w with the one an exact iteration would produce from
    the same current vectors.
    """
    k, n = y.shape
    e_mat = np.stack(matrix_errors)
    v_prev = _previous(v)
    w_norm_prev = _previous(w_norms)
    rv = ((v @ y.conj()) @ y.T) / n
    alpha_ideal = np.real(np.sum(v.conj() * rv, axis=1))
    w_ideal = rv - alpha_ideal[:, None] * v - w_norm_prev[:, None] * v_prev
    predicted = _dla_w_error_terms(
        y, e_mat, normalization_errors, v, v_prev, w_norm_prev
    )
    # the first-order expansion of the square root needs a small scalar error
    taylor_flags = (w_norm_prev[:, None] > 0) & (
        np.abs(normalization_errors) > 0.1 * w_norm_prev[:, None] ** 2 / k
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

    Every argument but ``y`` carries a leading iteration axis: (M, K, N)
    matrix errors, (M, K) scalar errors and vectors, and the (M,) previous
    norms (zero where there is no previous iteration). The matrix-error
    terms are exact; the scalar-error term is the Taylor linearization of
    the square root in the normalization step.
    """
    k, n = y.shape
    term1 = (k / n) * np.einsum("mkn,kn->mk", e_mat.conj(), y)
    yhv = v @ y.conj()
    cross = np.einsum("mkn,mn->mk", e_mat, yhv)
    e_alpha = (k / n) * 2.0 * np.real(cross) + (k * k / n) * np.sum(
        np.abs(e_mat) ** 2, axis=2
    )
    pred = term1 - e_alpha * v
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
    simulated vectors. The residual against the measured deviation is second
    order in the scalar error.
    """
    if not (1 <= j <= result.m_iterations):
        raise ValueError("iteration out of range")
    at = slice(j - 1, j)
    v = result.v_hist[: result.m_iterations]
    return _dla_w_error_terms(
        y,
        trace.iteration_matrix_errors[j - 1][None],
        trace.normalization_errors[at],
        v[at],
        _previous(v)[at],
        _previous(result.w_norms)[at],
    )[0]


def _extract_ritz(alpha_hist, beta_hist, sizes, wanted, k, n, tol_rel):
    """Per-node Ritz values at the requested iterations, raw and filtered.

    ``alpha_hist`` and ``beta_hist`` are (M, nodes) coefficient histories
    and ``sizes`` the per-node tridiagonal sizes; ``k`` and ``n`` are the
    sample dimensions that drive the spurious-value filter. A centralized
    run is the one-node case. At iteration j every node's values sit in one
    (nodes, j) stack, NaN-padded past the node's size, which is solved with
    one batched call per distinct size and filtered in one batched pass.
    """
    limit = min(k, n)
    node_count = alpha_hist.shape[1]
    needed = set(wanted) | {j - 1 for j in wanted if j > limit}
    raw: dict[int, list[np.ndarray]] = {}
    stacks: dict[int, np.ndarray] = {}
    for j in sorted(needed):
        eff = np.minimum(sizes, j)
        values = np.full((node_count, j), np.nan)
        for s in np.unique(eff):
            nodes = np.nonzero(eff == s)[0]
            values[nodes, :s] = tridiagonal_eigenvalues_batch(
                alpha_hist[:s, nodes].T, beta_hist[: s - 1, nodes].T
            )
        stacks[j] = values
        raw[j] = [row[:e] for row, e in zip(values, eff.tolist())]
    filtered: dict[int, list[np.ndarray]] = {}
    for j in sorted(wanted):
        cur = stacks[j]
        peak = np.max(np.abs(cur), axis=1, where=~np.isnan(cur), initial=0.0)
        filtered[j] = filter_spurious_batch(
            cur,
            stacks[j - 1] if j > limit else None,
            k,
            n,
            tol_rel * np.maximum(peak, 1e-12),
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
    if oracle.vectors is None:
        raise ValueError("oracle must carry eigenvectors")
    u1 = oracle.vectors[:, 0]
    sins = np.empty(result.v_hist.shape[0])
    for i, v in enumerate(result.v_hist):
        nv = float(np.linalg.norm(v))
        c = abs(np.vdot(u1, v)) / nv if nv > 0 else 0.0
        sins[i] = math.sqrt(max(0.0, 1.0 - min(c, 1.0) ** 2))
    drift_inf = np.max(np.abs(result.trace.iteration_drift), axis=1)
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
