"""Decentralized eigenvalue algorithms over average consensus.

Per-node state machines for the decentralized power method (DPM) and the
decentralized Lanczos algorithm (DLA). Cross-node interaction happens only
through consensus calls; every local update reads a node's own sample row,
its own scalars, and its own row of the consensus output. Message counters
are always recorded. Error instrumentation is on request: a run with
``trace=True`` also computes and keeps the realized consensus errors, each
round's output minus the exact mean of its input, their closed-form impact on
the iterates and the measured-vs-predicted Lanczos drift. The Monte-Carlo
experiments read only the estimates, so they leave it off, and their runs
never compute a consensus error. A result holds what its run computed and
no copy of its engine or its samples: :func:`audit_messages` takes the
engine and the sample count beside the result.

Implementation note: node-local scalars are stored in length-K arrays and
updated with row-wise numpy operations, which preserves locality (entry k
never reads entry j) while keeping runs vectorized. Both algorithms also
take a leading trial axis: a (B, K, N) sample stack runs B independent
sensing periods in one loop, and a plain (K, N) call is the B = 1 case,
returned without the trial axis. Every consensus round of a block is one
:func:`~eigennet.consensus.run_block` call, in which one engine runs the
whole stack in one ``run`` call: one stacked product on fixed weights, the
per-column mean under ideal averaging, and under link failures one product
per step, with each trial's surviving links drawn from that trial's own
generator (a link-failure engine holds one per trial). Results carry the
trial axis on every array, their :class:`MessageAudit` included, and
``trial(b)`` gives the result trial b would have had alone (on a fresh
engine with trial b's generator), to the bit. Results, error traces and
message audits share that one ``trial`` slicer. Past the iteration loop,
at each Ritz checkpoint the Ritz values of every node of
every trial sit in one (rows, j) stack, NaN-padded for nodes whose matrix
stopped growing. Equal adjacent rows (every node of a trial under exact
consensus) are solved and filtered once; the distinct rows are solved by
batched LAPACK calls per distinct size and filtered in one batched pass. A
traced run reads the consensus errors one iteration at a time (DPM drift
inside the loop, DLA w-error terms after it), because a stack of every
iteration's errors for a whole block would set the peak memory of a run.
The error-analysis helpers take a traced run and nothing it already holds:
its start v0, its iterates, its iteration count M and its error terms come
from the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .consensus import AcConfig, run_block
from .eigencore import (
    EigenSolution,
    TridiagonalMatrix,
    _checked_samples,
    filter_spurious_batch,
    row_norms,
    sample_covariance,
    tridiagonal_eigenvalues_batch,
)
from .errors import AuditMismatch, DegenerateRunError, MissingTraceError

__all__ = [
    "MessageAudit",
    "DpmErrorTrace",
    "DlaErrorTrace",
    "ConvergenceVerdict",
    "DpmResult",
    "DlaResult",
    "default_dpm_start",
    "default_dla_start",
    "run_dpm",
    "run_dla",
    "predict_dpm_vector_error",
    "predict_lambda1_error",
    "matrix_error_for_drift",
    "check_dpm_convergence_condition",
    "audit_messages",
]


class _Stacked:
    """A result with a leading trial axis, as a stacked run returns it."""

    def trial(self, t: int):
        """Trial t of a stacked result, as the run of that trial alone returns it.

        Array fields, and the arrays in list and dict fields, are sliced on
        their leading axis, and nested stacked fields likewise; every other
        field (counts) is shared.
        """
        return replace(
            self, **{f.name: _trial_of(getattr(self, f.name), t) for f in fields(self)}
        )


def _trial_of(value, t: int):
    if isinstance(value, np.ndarray):
        return value[t]
    if isinstance(value, list):
        return [x[t] for x in value]
    if isinstance(value, dict):
        return {key: x[t] for key, x in value.items()}
    if isinstance(value, _Stacked):
        return value.trial(t)
    return value


@dataclass(frozen=True, eq=False)
class MessageAudit(_Stacked):
    """Consensus call counts and per-node information units of a run.

    ``units`` is (K,) for a lone run and (B, K) for a stacked one; every
    trial of a block makes the same calls.
    """

    ac_n_calls: int
    ac_1_calls: int
    units: np.ndarray

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MessageAudit)
            and (self.ac_n_calls, self.ac_1_calls) == (other.ac_n_calls, other.ac_1_calls)
            and np.array_equal(self.units, other.units)
        )

    @property
    def units_per_node(self) -> dict[int, int] | dict[int, list[int]]:
        """Each node's units: an int for a lone run, a per-trial list when stacked."""
        return dict(enumerate(self.units.T.tolist()))

    @property
    def time_periods(self) -> int:
        """Consensus rounds run one after another, one time period each."""
        return self.ac_n_calls + self.ac_1_calls


@dataclass
class DpmErrorTrace(_Stacked):
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
class DlaErrorTrace(_Stacked):
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
class ConvergenceVerdict:
    """Outcome of the drift-decay sufficient condition check."""

    condition_satisfied: bool
    rate_margin: float
    sin_theta_final: float
    sin_theta: np.ndarray
    ratios: np.ndarray


@dataclass
class DpmResult(_Stacked):
    """A DPM run; a stacked run has a leading trial axis on every array."""

    lambda1: np.ndarray
    v_hist: np.ndarray
    trace: DpmErrorTrace | None
    audit: MessageAudit
    checkpoints: dict[int, np.ndarray]
    m_iterations: int


@dataclass
class DlaResult(_Stacked):
    """A DLA run; a stacked run has a leading trial axis on every array.

    ``ritz_stacks`` and ``eigenvalue_stacks`` map each extracted iteration j
    to the NaN-padded (..., K, j) raw and filtered Ritz values; filtered rows
    hold their kept values first.
    """

    alpha_hist: np.ndarray
    beta_hist: np.ndarray
    v_hist: np.ndarray
    w_hist: np.ndarray
    sizes: np.ndarray
    ritz_stacks: dict[int, np.ndarray]
    eigenvalue_stacks: dict[int, np.ndarray]
    clamped: np.ndarray
    trace: DlaErrorTrace | None
    audit: MessageAudit
    m_iterations: int

    def tridiagonal(self, k: int) -> TridiagonalMatrix:
        s = int(self.sizes[k])
        return TridiagonalMatrix(
            self.alpha_hist[:s, k].copy(),
            self.beta_hist[: s - 1, k].copy() if s > 1 else np.zeros(0),
            invariant_subspace=s < self.m_iterations,
        )


def default_dpm_start(k: int, seed: int = 0) -> np.ndarray:
    """Seeded unit-variance complex starting scalars, one per node."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)


def default_dla_start(k: int) -> np.ndarray:
    """Uniform starting scalars meeting the global unit-norm constraint."""
    return np.full(k, 1.0 / math.sqrt(k), dtype=complex)


def _require_trace(result: DpmResult) -> DpmErrorTrace:
    """The error trace of one trial's DPM run, or a typed error for a run
    made without one; a stacked run is read one trial at a time."""
    trace = result.trace
    if trace is None:
        raise MissingTraceError(
            "the run kept no error trace; rerun it with trace=True"
        )
    if trace.iteration_drift.ndim > 2:
        raise ValueError("this reads one trial's trace: read result.trial(b).trace")
    return trace


def _trials(y: np.ndarray) -> tuple[bool, np.ndarray]:
    """Samples as a (B, K, N) stack, and whether they came as one (K, N) trial."""
    y = np.asarray(y, dtype=complex)
    if y.ndim not in (2, 3):
        raise ValueError("samples must be (K, N) or a (trials, K, N) stack")
    y = _checked_samples(y)
    return y.ndim == 2, (y[None] if y.ndim == 2 else y)


def _start_values(v: np.ndarray, trials: int, k: int) -> np.ndarray:
    """Starting scalars as a writable (B, K) stack; a (K,) vector serves every trial."""
    v = np.asarray(v, dtype=complex)
    if v.shape not in ((k,), (trials, k)):
        raise ValueError("starting values must be one scalar per node")
    return np.array(np.broadcast_to(v, (trials, k)), order="C")


class _BlockConsensus:
    """A block's consensus rounds, with call counts and per-node units per trial.

    Only a traced run computes the consensus errors, with
    :func:`_consensus_error`; an untraced one never does.
    """

    def __init__(self, ac, trials: int, k: int, trace: bool) -> None:
        self.ac = ac
        self.trace = trace
        self.ac_n = 0
        self.ac_1 = 0
        self.units = np.zeros((trials, k), dtype=np.int64)

    def run(self, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """One consensus round of the block on (B, K, m) or (B, K) ``z0``.

        Returns the output and, for a traced run, the error, each in the
        shape of ``z0``; an untraced run gets None for the error.
        """
        res = run_block(self.ac, z0)
        if z0.ndim == 2:  # a width-N round at N = 1 is still (B, K, 1)
            self.ac_1 += 1
        else:
            self.ac_n += 1
        self.units += res.scalars_exchanged_per_node
        return res.z, (_consensus_error(z0, res.z) if self.trace else None)

    def counts(self) -> MessageAudit:
        return MessageAudit(self.ac_n, self.ac_1, self.units)


def _consensus_error(z0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A round's realized error: its (B, K, m) or (B, K) output minus the
    exact per-trial, per-column mean of its input."""
    return z - z0.mean(axis=1, keepdims=True)


def _squared_moduli(z: np.ndarray) -> np.ndarray:
    """Sum over the last axis of |z|^2 for a complex (B, K, N) stack.

    Summed on the real (B, K, 2N) view, as the squares of the real and
    imaginary parts; each (b, k) sum reads that row alone.
    """
    zr = np.ascontiguousarray(z, dtype=complex).view(float)
    return np.einsum("bkn,bkn->bk", zr, zr)


def _dpm_final_stage(y, v, rounds, scale):
    z_n, e_n = rounds.run(v.conj()[:, :, None] * y)
    z_1, e_1 = rounds.run(np.abs(v) ** 2)
    denom = np.real(z_1)
    if np.any(denom == 0.0):
        raise DegenerateRunError("zero denominator in the eigenvalue stage")
    numer = scale * _squared_moduli(z_n)
    # a non-finite iterate of any earlier iteration reaches every node here
    if not (np.all(np.isfinite(numer)) and np.all(np.isfinite(denom))):
        raise DegenerateRunError(
            "DPM eigenvalue stage overflowed: the unnormalized power iterate "
            "outgrew floating point"
        )
    return numer / denom, e_n, e_1


def run_dpm(
    y: np.ndarray,
    ac,
    m_iterations: int,
    v0: np.ndarray | None = None,
    *,
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
    consensus engine that runs the whole stack, as
    :func:`~eigennet.consensus.run_block` takes it, and ``v0`` one (K,)
    start shared by every trial or a (B, K) stack. A stack returns a
    stacked result whose ``trial(b)`` equals the run of trial b alone.

    ``trace=True`` keeps the error trace (:class:`DpmErrorTrace`);
    otherwise ``.trace`` is None. Every other field is the same to the bit
    either way. The analysis helpers (``predict_*`` and
    :func:`check_dpm_convergence_condition`) take one trial's traced result
    and read its start, iterates and iteration count from it.
    """
    single, y = _trials(y)
    trials, k, n = y.shape
    if m_iterations < 1:
        raise ValueError("need at least one iteration")
    if v0 is None:
        v0 = default_dpm_start(k)
    v = _start_values(v0, trials, k)
    if not np.all(np.any(v != 0, axis=1)):
        raise ValueError("starting values must not all be zero")
    wanted = set(int(j) for j in checkpoints)
    if not all(1 <= j <= m_iterations for j in wanted):
        raise ValueError("checkpoints must lie in 1..m_iterations")
    scale = k / n
    rounds = _BlockConsensus(ac, trials, k, trace)
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
        e_scalar = np.real(e_scalar)
        # the exact perturbations of the Rayleigh-quotient numerator and
        # denominator
        yhv = (np.swapaxes(y.conj(), -1, -2) @ v[..., None])[..., 0]
        error_trace = DpmErrorTrace(
            iteration_errors=iteration_errors,
            iteration_drift=drift,
            final_matrix_error=e_mat,
            final_scalar_error=e_scalar,
            numerator_error=_quadratic_error(e_mat, yhv, k, n),
            denominator_error=k * e_scalar,
        )
    result = DpmResult(
        lambda1=lam,
        v_hist=v_hist,
        trace=error_trace,
        audit=rounds.counts(),
        checkpoints=snapshots,
        m_iterations=m_iterations,
    )
    return result.trial(0) if single else result


def _quadratic_error(e, yhv, k, n):
    """(K/N) 2 Re(e_k . Y^H v) + (K^2/N) sum |e_k|^2 per node: the exact error of
    (K^2/N) ||u + e_k||^2, u = (Y^H v)^* / K the mean of the width-N rows v_k^* y_k.
    """
    cross = np.einsum("...kn,...n->...k", e, yhv)
    return (k / n) * 2.0 * np.real(cross) + (k * k / n) * np.sum(np.abs(e) ** 2, axis=-1)


def predict_dpm_vector_error(result: DpmResult, r: np.ndarray) -> np.ndarray:
    """Reconstruct the final power iterate of a traced run from its drift terms.

    Returns R^M v0 plus the drift of each iteration propagated through the
    remaining R powers, with v0 and M the run's own; the identity is exact,
    so the result matches the simulated iterate to rounding.
    """
    drift = _require_trace(result).iteration_drift
    x = result.v_hist[0].copy()
    for d in drift:
        x = r @ x + d
    return x


def predict_lambda1_error(result: DpmResult, y: np.ndarray) -> np.ndarray:
    """The per-node estimates of a traced run, rebuilt in closed form.

    Rebuilt from the run's final iterate and the eigenvalue-stage error terms
    its trace holds (``numerator_error`` and ``denominator_error``). The
    reconstruction equals the simulated per-node estimates exactly because
    no approximation enters the derivation.
    """
    trace = _require_trace(result)
    v_m = result.v_hist[-1]
    r = sample_covariance(y)
    quad = float(np.real(np.vdot(v_m, r @ v_m)))
    norm_sq = float(np.real(np.vdot(v_m, v_m)))
    return (quad + trace.numerator_error) / (norm_sq + trace.denominator_error)


def run_dla(
    y: np.ndarray,
    ac,
    m_iterations: int,
    v1: np.ndarray | None = None,
    *,
    ritz_iters=None,
    trace: bool = False,
) -> DlaResult:
    """Decentralized Lanczos algorithm.

    Each iteration runs one width-N consensus (for the diagonal coefficient
    and the new direction) and one scalar consensus (for the off-diagonal
    coefficient). Every node assembles its own tridiagonal matrix; Ritz
    values are extracted at the iterations listed in ``ritz_iters`` (default:
    only the final one; an empty list extracts none, leaving the histories to
    a caller that extracts some nodes only)
    and filtered for spurious values. Non-finite coefficients raise
    :class:`DegenerateRunError` either way.

    Negative scalar-consensus outputs are clamped to zero and flagged. An
    off-diagonal coefficient below the breakdown guard, a fixed 1e-12
    ||R||_F of the trial's sample covariance R, or a zero one (the guard is
    zero itself where ||R||_F^2 underflows), freezes that node's tridiagonal
    matrix at its current size, mirroring centralized truncation.

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
    else:
        wanted = set(int(j) for j in ritz_iters)
        if not all(1 <= j <= m_iterations for j in wanted):
            raise ValueError("ritz iterations must lie in 1..m_iterations")
    scale = k / n
    rounds = _BlockConsensus(ac, trials, k, trace)

    m = m_iterations
    alpha_hist = np.zeros((trials, m, k))
    beta_hist = np.zeros((trials, m, k))
    v_hist = np.zeros((trials, m + 1, k), dtype=complex)
    w_hist = np.zeros((trials, m, k), dtype=complex)
    clamped = np.zeros((trials, m, k), dtype=bool)
    sizes = np.full((trials, k), m, dtype=np.int64)
    active = np.ones((trials, k), dtype=bool)

    matrix_errors: list[np.ndarray] = []
    normalization_errors = np.zeros((trials, m, k)) if trace else None

    v_hist[:, 0] = v
    v_prev = np.zeros((trials, k), dtype=complex)
    beta_cur = np.zeros((trials, k))
    # samples too large for floating point turn the coefficients inf and NaN,
    # which the Ritz extraction raises a typed error for; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        # 1e-12 ||Y Y^H / N||_F, read off the N x N Gram matrix Y^H Y / N,
        # whose Frobenius norm is the same and which is the smaller one when
        # N < K
        eps_break = 1e-12 * row_norms((np.swapaxes(y.conj(), -1, -2) @ y) / n)
        for j in range(1, m + 1):
            z, error = rounds.run(v.conj()[:, :, None] * y)
            if trace:
                matrix_errors.append(error)
            alpha_j = (k * k / n) * _squared_moduli(z)
            local = scale * np.einsum("bkn,bkn->bk", z.conj(), y)
            w = local - alpha_j * v - beta_cur * v_prev
            alpha_hist[:, j - 1] = alpha_j
            w_hist[:, j - 1] = w
            z_1, error_1 = rounds.run(np.abs(w) ** 2)
            b = np.real(z_1)
            neg = b < 0
            clamped[:, j - 1] = neg
            b = np.where(neg, 0.0, b)
            beta_next = np.sqrt(k * b)
            if trace and j < m:
                normalization_errors[:, j] = np.real(error_1)
            broke = active & ((beta_next < eps_break[:, None]) | (beta_next == 0.0))
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
            y, matrix_errors, normalization_errors, v_hist[:, :m], w_hist
        )
    # every node of every trial is one row of the Ritz extraction
    raw, filtered = _extract_ritz(
        alpha_hist.transpose(0, 2, 1).reshape(trials * k, m),
        beta_hist.transpose(0, 2, 1).reshape(trials * k, m),
        sizes.reshape(trials * k),
        wanted,
        k,
        n,
    )
    result = DlaResult(
        alpha_hist=alpha_hist,
        beta_hist=beta_hist,
        v_hist=v_hist,
        w_hist=w_hist,
        sizes=sizes,
        ritz_stacks={j: s.reshape(trials, k, j) for j, s in raw.items()},
        eigenvalue_stacks={j: s.reshape(trials, k, j) for j, s in filtered.items()},
        clamped=clamped,
        trace=error_trace,
        audit=rounds.counts(),
        m_iterations=m,
    )
    return result.trial(0) if single else result


def _previous(hist: np.ndarray) -> np.ndarray:
    """(B, M, ...) histories shifted down one iteration, zeros for iteration 1."""
    return np.concatenate((np.zeros_like(hist[:, :1]), hist[:, :-1]), axis=1)


def _dla_error_trace(y, matrix_errors, normalization_errors, v, w):
    """Instrumentation of a finished DLA run, over all iterations at once.

    Every argument carries a leading trial axis. ``v`` holds the (B, M, K)
    current vectors of iterations 1..M and ``w`` the computed directions,
    whose global norms the exact iteration divides by. The measured deviation
    compares w with the one an exact iteration would produce from the same
    current vectors.
    """
    k, n = y.shape[1:]
    v_prev = _previous(v)
    # one (B M, K) pass; each row's norm is rounded as that row's alone
    w_norm_prev = _previous(row_norms(w.reshape(-1, k)).reshape(w.shape[:2]))
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
        pred[:, j] = term1 - _quadratic_error(e, yhv[:, j], k, n) * v[:, j]
    has_prev = w_norm_prev > 0
    pred[has_prev] -= (
        (k / (2.0 * w_norm_prev[has_prev]))[:, None]
        * e_scalar[has_prev]
        * v_prev[has_prev]
    )
    return pred


def _row_keys(x: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque value.

    Two rows' values compare equal only when the rows are equal bit for bit
    (0.0 and -0.0 differ). One comparison per row costs a fraction of an
    elementwise comparison reduced over short rows.
    """
    x = np.ascontiguousarray(x)
    return x.view(np.dtype((np.void, x.shape[1] * x.itemsize)))[:, 0]


# the Ritz filter's duplicate and rank tolerance, relative to each list's
# largest magnitude
_SPURIOUS_TOL = 1e-3


def _extract_ritz(alpha, beta, sizes, wanted, k, n):
    """Ritz values of a stack of tridiagonal matrices, raw and filtered.

    Row s of the (rows, M) ``alpha`` and ``beta`` holds one matrix's
    diagonal and off-diagonal coefficient history, and ``sizes`` the size
    at which each matrix stopped growing; ``k`` and ``n`` are the sample
    dimensions. They set the Krylov bound min(K, N + 1), which this function
    alone applies: only past it does the filter get the previous iteration's
    values, and drop a value absent from them. Rows are the nodes of every
    trial of a decentralized run, the trials of one node, or the trials of a
    centralized one.
    At iteration j every row's values sit in one (rows, j) stack, NaN-padded
    past the row's size. Each run of adjacent rows whose ``alpha``, ``beta``
    and ``sizes`` are equal bit for bit is solved and filtered once, through
    its first row: the distinct rows are solved with one batched call per
    distinct size and filtered in one batched pass. Returns two dicts of
    NaN-padded (rows, j) stacks: raw values at every iteration the filter
    needs, and the filtered values, kept values first, at the wanted ones;
    both are empty when nothing is wanted. Non-finite coefficients raise
    :class:`DegenerateRunError` before any solve, even then.
    """
    # entries past a row's size are never read, so only the others count
    read = np.arange(alpha.shape[1]) < sizes[:, None]
    coefficients = np.concatenate((alpha[read], beta[:, :-1][read[:, 1:]]))
    if not np.all(np.isfinite(coefficients)):
        raise DegenerateRunError(
            "Lanczos coefficients are not finite: the samples are too large "
            "for floating point"
        )
    if not wanted:
        return {}, {}
    # Rows are trial-major, so a trial's nodes are neighbours, and under exact
    # consensus they hold one matrix. Each row's values, tolerance and kept
    # values depend on that row alone, so a row equal to its predecessor bit
    # for bit takes the predecessor's results.
    same = sizes[1:] == sizes[:-1]
    for x in (alpha, beta):
        keys = _row_keys(x)
        same &= keys[1:] == keys[:-1]
    first = np.concatenate(([True], ~same))
    inverse = np.cumsum(first) - 1
    keep = np.flatnonzero(first)
    alpha, beta, sizes = (np.take(x, keep, axis=0) for x in (alpha, beta, sizes))
    # the rank test starts past the Krylov bound min(K, N + 1): the filter
    # runs it on any previous stack it is given
    limit = min(k, n + 1)
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
        tol = _SPURIOUS_TOL * np.maximum(peak, 1e-12)
        filtered[j] = filter_spurious_batch(cur, raw[j - 1] if j > limit else None, tol)
    return (
        {j: np.take(values, inverse, axis=0) for j, values in raw.items()},
        {j: np.take(values, inverse, axis=0) for j, values in filtered.items()},
    )


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


def check_dpm_convergence_condition(
    result: DpmResult, oracle: EigenSolution
) -> ConvergenceVerdict:
    """Check whether a traced run's drift decays fast enough for convergence.

    ``oracle`` is the exact spectrum of the run's sample covariance, with
    eigenvectors: ``sin_theta`` is the angle of each power iterate to the
    dominant one. The sufficient condition compares the per-iteration drift
    magnitude against (1/(j+1)) * (lambda_1 / max(lambda_2, 1))^j. The
    returned ratios divide the recorded drift by that envelope; the
    condition is judged satisfied when the final ratio has fallen below 0.1
    times the initial one (all-zero drift trivially satisfies it).
    """
    drift = _require_trace(result).iteration_drift
    if oracle.vectors is None:
        raise ValueError("oracle must carry eigenvectors")
    lam = oracle.values
    lam1 = float(lam[0])
    lam2 = float(lam[1]) if len(lam) > 1 else 0.0
    if lam1 <= 1.0:
        raise ValueError(
            "largest eigenvalue must exceed 1; rescale the samples first"
        )
    u1 = oracle.vectors[:, 0]
    sins = np.empty(result.v_hist.shape[0])
    for i, v in enumerate(result.v_hist):
        nv = float(np.linalg.norm(v))
        c = abs(np.vdot(u1, v)) / nv if nv > 0 else 0.0
        sins[i] = math.sqrt(max(0.0, 1.0 - min(c, 1.0) ** 2))
    j = np.arange(1, result.m_iterations + 1, dtype=float)
    envelope = (lam1 / max(lam2, 1.0)) ** j / (j + 1.0)
    ratios = np.max(np.abs(drift), axis=1) / envelope
    if np.all(ratios == 0.0):
        satisfied, margin = True, 0.0
    elif ratios[0] == 0.0:
        satisfied, margin = False, math.inf
    else:
        margin = float(ratios[-1] / ratios[0])
        satisfied = margin < 0.1
    return ConvergenceVerdict(
        condition_satisfied=satisfied,
        rate_margin=margin,
        sin_theta_final=float(sins[-1]),
        sin_theta=sins,
        ratios=ratios,
    )


def audit_messages(result: DpmResult | DlaResult, ac, n: int) -> MessageAudit:
    """Assert the run's message counters against the complexity formulas.

    ``ac`` is the weighted :class:`~eigennet.consensus.AcConfig` that drove
    the run and ``n`` the sample count of its (K, N) samples. For a run whose
    consensus instances all used I iterations on a graph with degrees d(k):
    the power method must show M+1 width-N calls, one scalar call,
    I (M N + N + 1) d(k) units at node k, and M+2 time periods; the Lanczos
    variant M and M calls, I (M N + M) d(k) units, and 2M periods. Raises
    :class:`AuditMismatch` naming the first differing counter. Only plain
    runs of one trial qualify (no extra eigenvalue checkpoints); audit trial
    b of a stacked run as ``audit_messages(result.trial(b), ac, n)``.
    """
    if not isinstance(ac, AcConfig) or ac.graph is None:
        raise ValueError("audit needs a run driven by a weighted consensus config")
    if result.audit.units.ndim > 1:
        raise ValueError("audit needs one trial's run: audit result.trial(b)")
    m = result.m_iterations
    if isinstance(result, DpmResult):
        expected = {
            "ac_n_calls": m + 1,
            "ac_1_calls": 1,
            "time_periods": m + 2,
        }
        unit_factor = ac.iterations * (m * n + n + 1)
    else:
        expected = {
            "ac_n_calls": m,
            "ac_1_calls": m,
            "time_periods": 2 * m,
        }
        unit_factor = ac.iterations * (m * n + m)
    deg = ac.graph.degrees()
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
