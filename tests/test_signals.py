import warnings

import numpy as np
import pytest

from eigennet.eigencore import sample_covariance
from eigennet.errors import DegenerateRunError
from eigennet.signals import (
    SignalConfig,
    gen_h0,
    gen_h1,
    samples_with_spectrum,
    theoretical_snr,
)


class TestNoiseOnly:
    def test_entry_variance_matches_config(self):
        # pool 1e5 entries; the variance estimator's std is ~1/sqrt(n)
        ys = [
            gen_h0(SignalConfig(k=40, n=10, sigma2=1.0, seed=s)) for s in range(250)
        ]
        pooled = np.concatenate([y.ravel() for y in ys])
        assert pooled.size == 100_000
        var = np.mean(np.abs(pooled) ** 2)
        assert abs(var - 1.0) < 3.0 / np.sqrt(pooled.size)
        mean = pooled.mean()
        assert abs(mean) < 4.0 / np.sqrt(pooled.size)

    def test_zero_noise_variance_rejected(self):
        with pytest.raises(ValueError):
            SignalConfig(k=4, n=4, sigma2=0.0)

    def test_deterministic(self):
        cfg = SignalConfig(k=5, n=7, sigma2=2.0, seed=42)
        assert np.array_equal(gen_h0(cfg), gen_h0(cfg))

    def test_mean_covariance_is_noise_identity(self):
        # E[R] = sigma2 I under the noise-only hypothesis
        y = gen_h0(SignalConfig(k=4, n=100_000, sigma2=1.0, seed=7))
        r = sample_covariance(y)
        assert np.linalg.norm(r - np.eye(4)) / np.linalg.norm(np.eye(4)) < 0.01


class TestSignalPlusNoise:
    def test_snr_identity_exact(self):
        cfg = SignalConfig(k=6, n=8, sigma2=2.0, p=2, snr_db=(5.0, -3.0), seed=3)
        _, h = gen_h1(cfg)
        for i, rho_db in enumerate(cfg.snr_db):
            snr = theoretical_snr(h[:, i], 1.0, cfg.sigma2)
            assert snr == pytest.approx(10 ** (rho_db / 10), rel=1e-12)

    def test_single_source_5db_channel_energy(self):
        cfg = SignalConfig(k=40, n=10, sigma2=1.0, p=1, snr_db=(5.0,), seed=1)
        _, h = gen_h1(cfg)
        assert np.linalg.norm(h[:, 0]) ** 2 == pytest.approx(10**0.5, rel=1e-12)

    def test_large_sample_covariance_matches_model(self):
        # law of large numbers: R -> H Sigma H^H + sigma2 I
        cfg = SignalConfig(k=4, n=10_000, sigma2=1.0, p=2, snr_db=(3.0, 0.0), seed=5)
        y, h = gen_h1(cfg)
        r = sample_covariance(y)
        model = h @ h.conj().T + np.eye(4)
        rel = np.linalg.norm(r - model) / np.linalg.norm(model)
        assert rel < 0.1

    def test_needs_a_source(self):
        with pytest.raises(ValueError):
            gen_h1(SignalConfig(k=4, n=4, sigma2=1.0, p=0))

    def test_deterministic(self):
        cfg = SignalConfig(k=5, n=6, sigma2=1.0, p=1, snr_db=(4.0,), seed=9)
        ya, _ = gen_h1(cfg)
        yb, _ = gen_h1(cfg)
        assert np.array_equal(ya, yb)

    def test_overflowing_source_power_is_a_typed_error(self):
        # at 5 dB the source power 10^0.5 sigma2 leaves floating point above
        # sigma2 ~ 5.7e307, while the noise variance itself is still finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = gen_h1(SignalConfig(k=4, n=4, sigma2=1e307, p=1, snr_db=(5.0,)))
            assert np.all(np.isfinite(y))
            # the power overflows in the product, or already in 10^(snr_db/10)
            for sigma2, snr_db in ((1e308, 5.0), (1.0, 4000.0)):
                with pytest.raises(DegenerateRunError, match="source power overflowed"):
                    gen_h1(SignalConfig(k=4, n=4, sigma2=sigma2, p=1, snr_db=(snr_db,)))


class TestTheoreticalSnr:
    def test_unit_vector(self):
        assert theoretical_snr(np.array([1.0, 0.0]), 1.0, 1.0) == pytest.approx(1.0)

    def test_hand_value(self):
        assert theoretical_snr(np.array([1.0, 1.0]), 2.0, 1.0) == pytest.approx(4.0)

    def test_scaling_homogeneity(self):
        h = np.array([0.3 + 1j, -2.0])
        base = theoretical_snr(h, 1.5, 0.7)
        assert theoretical_snr(3.0 * h, 1.5, 0.7) == pytest.approx(9.0 * base, rel=1e-12)

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            theoretical_snr(np.array([1.0]), 1.0, 0.0)


class TestSpectrumConstruction:
    def test_exact_spectrum(self):
        target = np.array([4.0, 2.5, 1.0, 0.5])
        y, (vals, vecs) = samples_with_spectrum(target, seed=2)
        r = sample_covariance(y)
        got = np.sort(np.linalg.eigvalsh(r))[::-1]
        assert np.allclose(got, target, atol=1e-10)
        assert np.allclose(r @ vecs[:, 0], vals[0] * vecs[:, 0], atol=1e-10)
