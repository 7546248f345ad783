"""Eigenvalue-based detection statistics and thresholds.

Four statistics over a descending eigenvalue list:

* RT, largest root over known noise power: lambda_1 / sigma2
* GT, largest eigenvalue ratio: lambda_1 / sum(lambda_i)
* ST, sphericity: prod(lambda_i) / mean(lambda_i)^len
* JT: sum(lambda_i^2) / sum(lambda_i)^2

GT, ST and JT are scale invariant; RT scales linearly. Statistics computed
from a partial (Ritz) list use that list's length throughout. Thresholds are
calibrated empirically as nearest-rank-higher quantiles of the statistic
under the noise-only hypothesis, using the same eigenvalue pipeline as the
evaluated detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .consensus import run_block
from .errors import DetectionError

__all__ = [
    "Statistic",
    "STATISTIC_KINDS",
    "compute_statistic",
    "trace_consensus",
    "threshold_from_h0",
]

STATISTIC_KINDS = ("RT", "GT", "ST", "JT")


@dataclass(frozen=True)
class Statistic:
    """A statistic value; per-row arrays when computed on a stack of lists."""

    kind: str
    value: float | np.ndarray
    clamped: bool | np.ndarray = False


def compute_statistic(
    kind: str,
    eigenvalues: np.ndarray,
    sigma2: float | None = None,
    *,
    trace: float | np.ndarray | None = None,
) -> Statistic:
    """Evaluate one detection statistic on a descending eigenvalue list.

    Small negative values (numerical artifacts of a PSD spectrum) are
    clamped to zero and flagged. An all-zero list leaves GT/ST/JT undefined.

    On a partial (Ritz) list the eigenvalue sum undercounts the true trace;
    passing ``trace`` substitutes it for the sum in GT/ST/JT (the exact-trace
    mode, with :func:`trace_consensus` supplying the decentralized value).

    A 2-D ``eigenvalues`` is a stack of lists, one per row, NaN-padded to a
    common width, and ``trace`` may give one value per row. The statistic's
    ``value`` and ``clamped`` are then per-row arrays, and each row's entries
    equal the call on that row's list alone, which is the one-row case.
    """
    if kind not in STATISTIC_KINDS:
        raise DetectionError(f"unknown statistic kind {kind!r}")
    rows = np.asarray(eigenvalues, dtype=float)
    single = rows.ndim == 1
    if single:
        rows = rows[None]
    if rows.ndim != 2:
        raise DetectionError("expected an eigenvalue list or a stack of lists")
    clamped = np.any(rows < 0, axis=1)
    # descending, with the NaN padding moved to the end of each row
    lam = -np.sort(-np.maximum(rows, 0.0), axis=1)
    counts = np.sum(~np.isnan(lam), axis=1)
    if np.any(counts == 0):
        raise DetectionError("empty eigenvalue list")
    if kind == "RT":
        if sigma2 is None or sigma2 <= 0:
            raise DetectionError("RT needs a positive noise variance")
        values = lam[:, 0] / sigma2
    else:
        if trace is not None:
            trace = np.broadcast_to(np.asarray(trace, dtype=float), counts.shape)
        values = np.empty(len(lam))
        # rows of one length at a time, so each sum runs over that row's values alone
        for c in np.unique(counts).tolist():
            sel = counts == c
            part = lam[sel, :c]
            total = part.sum(axis=1) if trace is None else trace[sel]
            if np.any(total == 0.0):
                raise DetectionError(f"{kind} undefined on an all-zero eigenvalue list")
            if kind == "GT":
                values[sel] = part[:, 0] / total
            elif kind == "JT":
                # normalize before squaring so tiny spectra do not underflow
                values[sel] = np.sum((part / total[:, None]) ** 2, axis=1)
            else:
                values[sel] = np.prod(part / (total / c)[:, None], axis=1)
    if single:
        return Statistic(kind, float(values[0]), bool(clamped[0]))
    return Statistic(kind, values, clamped)


def trace_consensus(y: np.ndarray, ac) -> np.ndarray:
    """Per-node covariance-trace estimates via one scalar consensus round.

    Node k contributes its sample energy; K/N times the consensus output
    equals trace((1/N) Y Y^H) exactly under ideal averaging. A (B, K, N)
    stack, with one engine or one per trial as in
    :func:`~eigennet.consensus.run_block`, gives (B, K) estimates.
    """
    y = np.asarray(y)
    single = y.ndim == 2
    stack = y[None] if single else y
    k, n = stack.shape[1:]
    energies = np.sum(np.abs(stack) ** 2, axis=2)
    estimates = (k / n) * np.real(run_block(ac, energies).z)
    return estimates[0] if single else estimates


def threshold_from_h0(values: Sequence[float], alpha: float) -> float:
    """Nearest-rank-higher (1 - alpha) quantile of noise-only statistics.

    Needs at least 10/alpha samples for the tail to be resolvable.
    """
    if not (0.0 < alpha < 1.0):
        raise DetectionError("false-alarm rate must lie in (0, 1)")
    vals = np.sort(np.asarray(values, dtype=float))
    n = len(vals)
    if n < 10.0 / alpha:
        raise DetectionError(
            f"{n} calibration trials are too few for alpha={alpha} "
            f"(need at least {math.ceil(10.0 / alpha)})"
        )
    rank = math.ceil((1.0 - alpha) * n)
    return float(vals[min(max(rank, 1), n) - 1])
