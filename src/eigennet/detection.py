"""Eigenvalue-based detection statistics and thresholds.

One table, ``STATISTICS``, holds a row for each statistic kind. A row gives
the statistic on a descending list, whether it reads the list or only
lambda_1, and whether it takes the exact covariance trace in place of the
list's sum:

====  ====================================  =========  ===========
kind  statistic                             reads      takes trace
====  ====================================  =========  ===========
RT    lambda_1 / sigma2                     lambda_1   no
GT    lambda_1 / sum(lambda_i)              the list   yes
ST    -prod(lambda_i) / mean(lambda_i)^c    the list   no
JT    sum(lambda_i^2) / sum(lambda_i)^2     the list   yes
====  ====================================  =========  ===========

RT, the largest root over the known noise power, reads lambda_1 and sigma2.
GT is the largest eigenvalue ratio, ST the sphericity ratio (negated) and JT
John's test. Statistics computed from a partial (Ritz) list use that list's
length c throughout.

What a statistic reads decides which eigenvalue pipeline can serve it: a
pipeline that gives lambda_1 alone (the power method, the DPM) serves the
kinds that do not read the list, and one that gives the exact trace beside
a partial list serves only the kinds that take the trace
(:meth:`_Kind.reads`). ST takes no trace: over the trace, the product of a
partial list's largest values rises under a signal, so its negated ratio
has no upper tail.

Every statistic grows under a signal, so each one rejects in its upper tail:
the sphericity ratio is at most 1 and falls as the spectrum spreads, which is
why ST reports its negative. GT, ST and JT are scale invariant; RT scales
linearly. When N < K the sample covariance has K - N zero eigenvalues, so ST
on the full spectrum is -0 on every trial, under either hypothesis.

Thresholds are calibrated empirically as nearest-rank-higher quantiles of
the statistic under the noise-only hypothesis, using the same eigenvalue
pipeline as the evaluated detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .consensus import run_block
from .eigencore import _checked_samples
from .errors import DetectionError

__all__ = [
    "STATISTICS",
    "STATISTIC_KINDS",
    "compute_statistic",
    "trace_consensus",
    "threshold_from_h0",
]


@dataclass(frozen=True)
class _Kind:
    """One row of ``STATISTICS``: a statistic and what it reads."""

    # (rows, c) descending lists and their normalizer: sigma2 for a kind that
    # reads lambda_1 alone, else each list's sum or exact trace
    statistic: Callable[[np.ndarray, float | np.ndarray], np.ndarray]
    reads_list: bool  # False: lambda_1 alone
    takes_trace: bool  # the exact trace may stand in for the list's sum

    def reads(self, lists: bool, trace: bool) -> bool:
        """Whether a pipeline serves this kind: one that gives eigenvalue
        lists (``lists``) or lambda_1 alone, with the exact trace
        (``trace``) or without it."""
        return (lists or not self.reads_list) and (self.takes_trace or not trace)


def _largest(lam, norm):
    return lam[:, 0] / norm


def _sphericity(lam, norm):
    return -np.prod(lam / (norm / lam.shape[1])[:, None], axis=1)


def _john(lam, norm):
    # normalize before squaring so tiny spectra do not underflow
    return np.sum((lam / norm[:, None]) ** 2, axis=1)


STATISTICS = {
    "RT": _Kind(_largest, reads_list=False, takes_trace=False),
    "GT": _Kind(_largest, reads_list=True, takes_trace=True),
    "ST": _Kind(_sphericity, reads_list=True, takes_trace=False),
    "JT": _Kind(_john, reads_list=True, takes_trace=True),
}

STATISTIC_KINDS = tuple(STATISTICS)


def compute_statistic(
    kind: str,
    eigenvalues: np.ndarray,
    sigma2: float | None = None,
    *,
    trace: float | np.ndarray | None = None,
) -> float | np.ndarray:
    """Evaluate one detection statistic on a descending eigenvalue list.

    Small negative values (numerical artifacts of a PSD spectrum) are
    clamped to zero. An all-zero list leaves GT/ST/JT undefined, and RT
    needs a positive ``sigma2``.

    On a partial (Ritz) list the eigenvalue sum undercounts the true trace;
    passing ``trace`` substitutes it for the sum (the exact-trace mode, with
    :func:`trace_consensus` supplying the decentralized value). A kind that
    takes no trace raises :class:`DetectionError` when given one.

    A 2-D ``eigenvalues`` is a stack of lists, one per row, NaN-padded to a
    common width, and ``trace`` may give one value per row. The result is
    then a (rows,) array, and each row's value equals the float the call on
    that row's list alone returns.
    """
    spec = STATISTICS.get(kind)
    if spec is None:
        raise DetectionError(f"unknown statistic kind {kind!r}")
    if trace is not None and not spec.takes_trace:
        raise DetectionError(f"{kind} takes no trace")
    rows = np.asarray(eigenvalues, dtype=float)
    single = rows.ndim == 1
    if single:
        rows = rows[None]
    if rows.ndim != 2:
        raise DetectionError("expected an eigenvalue list or a stack of lists")
    # descending, with the NaN padding moved to the end of each row
    lam = -np.sort(-np.maximum(rows, 0.0), axis=1)
    counts = np.sum(~np.isnan(lam), axis=1)
    if np.any(counts == 0):
        raise DetectionError("empty eigenvalue list")
    if not spec.reads_list:
        if sigma2 is None or sigma2 <= 0:
            raise DetectionError(f"{kind} needs a positive noise variance")
        values = spec.statistic(lam[:, :1], sigma2)
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
            values[sel] = spec.statistic(part, total)
    return float(values[0]) if single else values


def trace_consensus(y: np.ndarray, ac) -> np.ndarray:
    """Per-node covariance-trace estimates via one scalar consensus round.

    Node k contributes its sample energy; K/N times the consensus output
    equals trace((1/N) Y Y^H) exactly under ideal averaging. A (B, K, N)
    stack, with one engine for the stack as in
    :func:`~eigennet.consensus.run_block`, gives (B, K) estimates.
    """
    y = _checked_samples(y)
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
    _check_calibration_size(n, alpha)
    rank = math.ceil((1.0 - alpha) * n)
    return float(vals[min(max(rank, 1), n) - 1])


def _check_calibration_size(n: int, alpha: float) -> None:
    """Raise unless ``n`` noise-only samples can calibrate rate ``alpha``."""
    if n < 10.0 / alpha:
        raise DetectionError(
            f"{n} calibration trials are too few for alpha={alpha} "
            f"(need at least {math.ceil(10.0 / alpha)})"
        )
