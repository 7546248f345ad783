"""Centralized eigenvalue machinery.

Everything here is a pure function of its arguments: sample covariance and
its exact spectrum, unnormalized power iteration, Lanczos tridiagonalization
without reorthogonalization, symmetric-tridiagonal eigenvalues from LAPACK
(``numpy.linalg.eigvalsh``) and post-processing of Ritz lists
(spurious-value filtering). The filter runs its rank test on whatever
previous lists it is given; the caller decides when they apply, past the
Krylov bound min(K, N + 1). The power method's overflow guard is a fixed
iterate norm, 1e150.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRunError

__all__ = [
    "EigenSolution",
    "TridiagonalMatrix",
    "PowerIterationResult",
    "sample_covariance",
    "covariance_eigenvalues",
    "row_norms",
    "power_method",
    "lanczos",
    "tridiagonal_eigenvalues",
    "tridiagonal_eigenvalues_batch",
    "filter_spurious",
    "filter_spurious_batch",
    "cullum_willoughby_spurious",
]

@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalues sorted descending, with optional orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal arrays.

    ``alpha`` has the M diagonal entries, ``beta`` the M-1 off-diagonal ones.
    ``invariant_subspace`` marks a Lanczos run that terminated early because
    an off-diagonal coefficient vanished (an exact invariant subspace).
    """

    alpha: np.ndarray
    beta: np.ndarray
    invariant_subspace: bool = False

    def __post_init__(self) -> None:
        if self.alpha.ndim != 1 or self.beta.ndim != 1:
            raise ValueError("alpha and beta must be one-dimensional")
        if len(self.beta) != max(len(self.alpha) - 1, 0):
            raise ValueError("beta must have one entry fewer than alpha")
        if len(self.beta) and np.min(self.beta) < 0:
            raise ValueError("off-diagonal entries must be nonnegative")

    @property
    def size(self) -> int:
        return len(self.alpha)

    def inf_norm(self) -> float:
        if self.size == 0:
            return 0.0
        b = np.concatenate(([0.0], np.abs(self.beta), [0.0]))
        return float(np.max(np.abs(self.alpha) + b[:-1] + b[1:]))

    def dense(self) -> np.ndarray:
        t = np.diag(self.alpha)
        if len(self.beta):
            t += np.diag(self.beta, 1) + np.diag(self.beta, -1)
        return t


@dataclass(frozen=True)
class PowerIterationResult:
    """Unnormalized power-iteration output.

    ``vector`` is the final iterate up to the positive factor exp(log_scale);
    rescaling only happens when the iterate magnitude exceeds the overflow
    guard, and it never affects the Rayleigh quotient ``value``.
    """

    vector: np.ndarray
    value: float
    log_scale: float = 0.0


def sample_covariance(y: np.ndarray) -> np.ndarray:
    """Sample covariance (1/N) Y Y^H of a K x N sample matrix.

    A (trials, K, N) stack gives the (trials, K, K) stack of covariances.
    Samples whose products leave floating point raise
    :class:`DegenerateRunError`.
    """
    y = _checked_samples(y)
    return _scaled_product(y, np.swapaxes(y.conj(), -1, -2), y.shape[-1])


def covariance_eigenvalues(y: np.ndarray) -> np.ndarray:
    """Eigenvalues of the sample covariance (1/N) Y Y^H, sorted descending.

    A (K, N) sample matrix gives K values, a (trials, K, N) stack one row of
    K per trial. R = (1/N) Y Y^H has rank at most min(K, N); when N < K its
    nonzero eigenvalues are those of the N x N Gram matrix (1/N) Y^H Y, which
    is solved instead, and the remaining K - N values are exact zeros.
    """
    y = _checked_samples(y)
    k, n = y.shape[-2:]
    if n >= k:
        return np.linalg.eigvalsh(sample_covariance(y))[..., ::-1]
    gram = _scaled_product(np.swapaxes(y.conj(), -1, -2), y, n)
    values = np.zeros(y.shape[:-2] + (k,))
    values[..., :n] = np.linalg.eigvalsh(gram)[..., ::-1]
    return values


def _checked_samples(y: np.ndarray) -> np.ndarray:
    """A (K, N) sample matrix or (trials, K, N) stack with finite entries."""
    y = np.asarray(y)
    if y.ndim not in (2, 3):
        raise ValueError("sample matrix must be two-dimensional")
    if not np.all(np.isfinite(y)):
        raise ValueError("sample matrix has non-finite entries")
    return y


def _scaled_product(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """(a @ b) / n, or a typed error where the product is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = (a @ b) / n
    if not np.all(np.isfinite(out)):
        raise DegenerateRunError(
            "sample covariance overflowed: the samples are too large for "
            "floating point"
        )
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a stack, flattening trailing axes.

    Each row is rounded exactly as ``np.linalg.norm`` rounds it alone: the
    per-row dot products go through the same BLAS dot as the 1-D call.
    """
    x = np.asarray(x)
    flat = x.reshape(x.shape[0], -1)
    parts = (flat.real, flat.imag) if x.dtype.kind == "c" else (flat,)
    total = sum(p[:, None, :] @ p[:, :, None] for p in parts)
    return np.sqrt(total[:, 0, 0])


def _row_vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vdot`` of matching rows of two (S, K) stacks, with the same rounding."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _stack(r: np.ndarray, start: np.ndarray) -> tuple[bool, np.ndarray, np.ndarray]:
    """A matrix or (trials, K, K) stack and its start vectors, as stacks.

    Returns whether the input was a single matrix, the matrix stack and a
    writable complex copy of the start vectors, one row per trial (a single
    vector is shared by every trial).
    """
    r = np.asarray(r)
    single = r.ndim == 2
    stack = r[None] if single else r
    start = np.asarray(start, dtype=complex)
    return single, stack, np.array(np.broadcast_to(start, stack.shape[:-1]), order="C")


_OVERFLOW_LIMIT = 1e150  # iterate norm past which power_method renormalizes


def power_method(
    r: np.ndarray, v0: np.ndarray, m_iterations: int
) -> PowerIterationResult | list[PowerIterationResult]:
    """Unnormalized power iteration v <- R v with a tracked overflow guard.

    Returns the final iterate and the Rayleigh quotient estimate of the
    largest eigenvalue. If the iterate norm passes 1e150, or
    cannot be formed because its square overflows, the iterate is
    renormalized internally and the accumulated positive factor is reported
    through ``log_scale``. A quotient that overflows on the final iterate is
    taken on the unit iterate instead. An iterate that overflows or vanishes
    raises :class:`DegenerateRunError`.

    A (trials, K, K) stack, with one start vector per trial or one shared
    (K,) vector, returns one result per trial; each trial has its own
    overflow guard, and its result equals the run of that trial alone.
    """
    single, r, v = _stack(r, v0)
    if m_iterations < 1:
        raise ValueError("power method needs at least one iteration")
    if not np.all(np.any(v != 0, axis=1)):
        raise ValueError("starting vector must be nonzero")
    log_scale = np.zeros(len(v))
    for j in range(1, m_iterations + 1):
        v = (r @ v[:, :, None])[:, :, 0]
        # the squared norm is inf past ~1e154: scale by the largest entry first
        with np.errstate(over="ignore"):
            nv = row_norms(v)
        for t in np.nonzero(~(nv <= _OVERFLOW_LIMIT))[0]:
            peak = np.max(np.abs(v[t]))
            if not math.isfinite(peak):
                raise DegenerateRunError(f"power iterate overflowed at iteration {j}")
            v[t] /= peak
            unit = np.linalg.norm(v[t])
            v[t] /= unit
            log_scale[t] += math.log(peak) + math.log(unit)
    denom = np.real(_row_vdot(v, v))
    if np.any(denom == 0.0):
        raise DegenerateRunError("power iterate collapsed to zero")
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.real(_row_vdot(v, (r @ v[:, :, None])[:, :, 0])) / denom
    for t in np.nonzero(~np.isfinite(values))[0]:
        u = v[t] / np.max(np.abs(v[t]))
        u /= np.linalg.norm(u)
        values[t] = np.real(np.vdot(u, r[t] @ u))
        if not math.isfinite(values[t]):
            raise DegenerateRunError("power method's Rayleigh quotient overflowed")
    results = [
        PowerIterationResult(vector=v[t], value=float(values[t]), log_scale=float(log_scale[t]))
        for t in range(len(v))
    ]
    return results[0] if single else results


def lanczos(
    r: np.ndarray,
    v1: np.ndarray,
    m_iterations: int,
) -> TridiagonalMatrix | list[TridiagonalMatrix]:
    """Lanczos tridiagonalization of a Hermitian matrix, no reorthogonalization.

    Iterates alpha_j = v_j^H R v_j, w_j = R v_j - alpha_j v_j - beta_j v_{j-1},
    beta_{j+1} = ||w_j||, v_{j+1} = w_j / beta_{j+1}, starting from a unit
    vector with beta_1 = 0. A beta below the fixed breakdown guard
    1e-12 ||R||_F, or a zero beta (the guard is zero itself where ||R||_F^2
    underflows), truncates the output at the current size and flags an
    exact invariant subspace.

    A (trials, K, K) stack, with one start vector per trial or one shared
    (K,) vector, returns one matrix per trial; each trial breaks down on its
    own guard, and its matrix equals the run of that trial alone.
    """
    single = np.ndim(r) == 2
    alphas, betas, sizes = _lanczos_stack(r, v1, m_iterations)
    results = [
        TridiagonalMatrix(
            alphas[t, :s].copy(), betas[t, : s - 1].copy(), invariant_subspace=s < m_iterations
        )
        for t, s in enumerate(sizes.tolist())
    ]
    return results[0] if single else results


def _lanczos_stack(
    r: np.ndarray, v1: np.ndarray, m_iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coefficients of :func:`lanczos`, one row per trial.

    Returns the (trials, M) diagonals, the (trials, M) off-diagonals and the
    (trials,) sizes; row t's matrix has the first ``sizes[t]`` diagonal and
    ``sizes[t] - 1`` off-diagonal entries, and every entry past them is zero.
    A single matrix is the one-trial stack.
    """
    _, r, v = _stack(r, v1)
    trials, k = v.shape
    if not (1 <= m_iterations <= k):
        raise ValueError("iteration count must be between 1 and K")
    if np.any(np.abs(row_norms(v) - 1.0) > 1e-10):
        raise ValueError("starting vector must have unit norm")
    alphas = np.zeros((trials, m_iterations))
    betas = np.zeros((trials, m_iterations))
    sizes = np.full(trials, m_iterations)
    active = np.ones(trials, dtype=bool)
    v_prev = np.zeros_like(v)
    beta = np.zeros(trials)
    # overflow gives non-finite coefficients, which the Ritz extraction rejects
    with np.errstate(over="ignore", invalid="ignore"):
        eps_break = 1e-12 * row_norms(r)
        for j in range(1, m_iterations + 1):
            u = (r @ v[:, :, None])[:, :, 0]
            alpha = np.real(_row_vdot(v, u))
            alphas[:, j - 1] = alpha
            if j == m_iterations or not active.any():
                break
            w = u - alpha[:, None] * v - beta[:, None] * v_prev
            beta_next = row_norms(w)
            broke = active & ((beta_next < eps_break) | (beta_next == 0.0))
            sizes[broke] = j
            active &= ~broke
            betas[:, j - 1] = beta_next
            v_prev = v
            # a trial that broke down keeps a zero vector from here on
            v = np.divide(w, beta_next[:, None], out=np.zeros_like(w), where=active[:, None])
            beta = beta_next
    cols = np.arange(m_iterations)
    alphas[cols >= sizes[:, None]] = 0.0
    betas[cols >= sizes[:, None] - 1] = 0.0
    return alphas, betas, sizes


_DENSE_CHUNK = 1 << 15  # entries, 256 KB of float64


def tridiagonal_eigenvalues_batch(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Eigenvalues (descending) of a stack of symmetric tridiagonal matrices.

    ``alpha`` is (S, m) and ``beta`` (S, m-1); the stack is written into
    dense (m, m) matrices and solved by batched LAPACK calls. The dense
    copies are written and solved in chunks of at most ``_DENSE_CHUNK``
    entries, so a tall stack (every node of a block of trials) does not set
    the peak memory; each matrix's values do not depend on the chunking.
    """
    alpha = np.atleast_2d(np.asarray(alpha, dtype=float))
    s, m = alpha.shape
    beta = np.asarray(beta, dtype=float).reshape(s, max(m - 1, 0))
    i = np.arange(m)
    values = np.empty((s, m))
    step = max(1, _DENSE_CHUNK // max(m * m, 1))
    for start in range(0, s, step):
        rows = slice(start, start + step)
        diag = alpha[rows]
        t = np.zeros((len(diag), m, m))
        t[:, i, i] = diag
        # eigvalsh reads the lower triangle only
        t[:, i[1:], i[:-1]] = beta[rows]
        values[rows] = np.linalg.eigvalsh(t)[:, ::-1]
    return values


def tridiagonal_eigenvalues(t: TridiagonalMatrix) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, sorted descending."""
    return tridiagonal_eigenvalues_batch(t.alpha[None, :], t.beta[None, :])[0]


def filter_spurious_batch(
    current: np.ndarray, previous: np.ndarray | None, tol: float | np.ndarray
) -> np.ndarray:
    """Drop spurious Ritz values from a stack of iteration-j lists.

    ``current`` is (S, j), one list per row; NaN entries are padding, so
    rows may hold fewer values. ``previous`` is the NaN-padded (S, p) stack
    of the previous iteration's lists, or None. ``tol`` is a scalar or one
    tolerance per row. Two criteria, applied in order:

    1. Rank criterion, whenever ``previous`` is given: a value absent
       (within ``tol``) from the previous iteration's list is spurious. The
       Krylov space K_j(R, v1) lies in span{v1} plus the range of R, so its
       dimension is at most min(K, N + 1), and exact Lanczos has found the
       whole spectrum by iteration min(K, N + 1); the caller passes
       ``previous`` only past that iteration.
    2. Duplicate collapse: values within ``tol`` of the last kept value are
       merged into it (the largest of each cluster survives).

    Returns the (S, j) stack holding each row's kept values first,
    descending, and NaN after them.
    """
    # descending, with the NaN padding moved to the end of each row
    cur = -np.sort(-np.atleast_2d(np.asarray(current, dtype=float)), axis=1)
    s, width = cur.shape
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (s,))
    keep = ~np.isnan(cur)
    if previous is not None:
        prev = np.asarray(previous, dtype=float)
        # one previous column at a time: an (S, j, p) difference stack would
        # set the peak memory of a run over many trials' nodes
        near = np.zeros_like(keep)
        for c in range(prev.shape[1]):
            near |= np.abs(cur - prev[:, c, None]) <= tol[:, None]
        keep &= near
    last = np.full(s, np.nan)  # last kept value per row; NaN until one is kept
    for c in range(width):
        value = cur[:, c]
        keep[:, c] &= np.isnan(last) | (last - value > tol)
        last = np.where(keep[:, c], value, last)
    out = np.full_like(cur, np.nan)
    out[np.arange(width) < np.sum(keep, axis=1)[:, None]] = cur[keep]
    return out


def filter_spurious(
    current: np.ndarray, previous: np.ndarray | None, tol: float
) -> np.ndarray:
    """Drop spurious Ritz values from one iteration-j list.

    The one-row case of :func:`filter_spurious_batch`, without the row's
    NaN tail.
    """
    prev = None if previous is None else np.asarray(previous, dtype=float)[None, :]
    row = filter_spurious_batch(np.asarray(current, dtype=float)[None, :], prev, tol)[0]
    return row[~np.isnan(row)]


def cullum_willoughby_spurious(t: TridiagonalMatrix, tol: float) -> np.ndarray:
    """Boolean mask of Ritz values flagged spurious by first-row/column deletion.

    Compares the spectrum of T against the spectrum of T with its first row
    and column removed; a simple Ritz value that reappears in the reduced
    spectrum (within ``tol``) is flagged. Not used by the decentralized
    pipeline; exposed for experimentation.
    """
    values = tridiagonal_eigenvalues(t)
    if t.size < 2:
        return np.zeros(t.size, dtype=bool)
    reduced = TridiagonalMatrix(t.alpha[1:], t.beta[1:])
    reduced_vals = tridiagonal_eigenvalues(reduced)
    flags = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(values):
        simple = np.sum(np.abs(values - v) <= tol) == 1
        if simple and np.min(np.abs(reduced_vals - v)) <= tol:
            flags[i] = True
    return flags
