"""Gaussian signal model for the two sensing hypotheses.

Noise-only samples are i.i.d. circularly-symmetric complex Gaussian with
variance sigma2 per entry (real and imaginary parts each N(0, sigma2/2)).
Signal-present samples add P Gaussian sources through a channel matrix that
is drawn once per sensing period and rescaled column-wise so each source
hits its configured SNR exactly.

Draw order per sensing period is fixed (channel, then source samples, then
noise) so a seed pins the whole sample matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRunError

__all__ = [
    "SignalConfig",
    "gen_h0",
    "gen_h1",
    "theoretical_snr",
    "samples_with_spectrum",
]


@dataclass(frozen=True)
class SignalConfig:
    """Sensing-period parameters: dimensions, noise power, per-source SNR."""

    k: int
    n: int
    sigma2: float
    p: int = 0
    snr_db: tuple[float, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1 or self.n < 1:
            raise ValueError("need at least one node and one sample")
        if self.sigma2 <= 0:
            raise ValueError("noise variance must be positive")
        if self.p < 0:
            raise ValueError("source count must be nonnegative")
        if self.p > 0 and len(self.snr_db) != self.p:
            raise ValueError("need one SNR per source")


def _complex_gaussian(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    std = math.sqrt(variance / 2.0)
    return std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def gen_h0(cfg: SignalConfig) -> np.ndarray:
    """Noise-only sample matrix: K x N i.i.d. complex Gaussian entries."""
    rng = np.random.default_rng(cfg.seed)
    return _complex_gaussian(rng, (cfg.k, cfg.n), cfg.sigma2)


def gen_h1(cfg: SignalConfig) -> tuple[np.ndarray, np.ndarray]:
    """Signal-plus-noise sample matrix and the (K, P) channel that produced it.

    The channel is drawn with unit-variance complex Gaussian entries, then
    each column i is rescaled so its SNR, ||h_i||^2 / sigma2, equals
    10^(snr_db_i / 10) exactly; a source power 10^(snr_db_i / 10) sigma2
    past floating point raises :class:`DegenerateRunError`.
    Source samples are mutually uncorrelated unit-variance complex
    Gaussians, redrawn at every time instant. A source variance would change
    no statistic of the samples: the column rescaling cancels it.
    """
    if cfg.p < 1:
        raise ValueError("signal hypothesis needs at least one source")
    rng = np.random.default_rng(cfg.seed)
    h = _complex_gaussian(rng, (cfg.k, cfg.p), 1.0)
    # an overflow to inf raises the typed error below; numpy need not warn first
    with np.errstate(over="ignore"):
        snr_lin = 10.0 ** (np.asarray(cfg.snr_db, dtype=float) / 10.0)
    for i in range(cfg.p):
        # a Python float product overflows to inf without a numpy warning
        target = float(snr_lin[i]) * cfg.sigma2
        if not math.isfinite(target):
            raise DegenerateRunError(
                f"source power overflowed: 10^(snr_db/10) sigma2 is not finite at "
                f"snr_db = {cfg.snr_db[i]:g}, sigma2 = {cfg.sigma2:g}"
            )
        h[:, i] *= math.sqrt(target) / np.linalg.norm(h[:, i])
    s = _complex_gaussian(rng, (cfg.p, cfg.n), 1.0)
    noise = _complex_gaussian(rng, (cfg.k, cfg.n), cfg.sigma2)
    return h @ s + noise, h


def theoretical_snr(h_i: np.ndarray, source_var: float, sigma2: float) -> float:
    """SNR of one source: ||h_i||^2 var / sigma2."""
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    return float(np.linalg.norm(h_i) ** 2 * source_var / sigma2)


def samples_with_spectrum(eigenvalues, seed: int):
    """Square sample matrix whose covariance has the prescribed spectrum.

    Builds Y = Q diag(sqrt(N lambda)) with a seeded random unitary Q, so
    (1/N) Y Y^H = Q diag(lambda) Q^H exactly. Used by instrumentation runs
    that need full control of the covariance eigenvalues; returns the sample
    matrix and the (values, vectors) pair.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if np.any(lam < 0):
        raise ValueError("covariance eigenvalues must be nonnegative")
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    k = len(lam)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, _ = np.linalg.qr(a)
    y = q @ np.diag(np.sqrt(k * lam))
    return y, (lam, q)
