import numpy as np
import pytest

from eigennet.consensus import AcConfig
from eigennet.detection import (
    DetectorConfig,
    Hypothesis,
    calibrate_threshold,
    compute_statistic,
    local_decide,
    roc_curve,
    statistic_consensus,
    threshold_from_h0,
    trace_consensus,
)
from eigennet.distributed import run_dpm, default_dpm_start
from eigennet.errors import DetectionError
from eigennet.signals import SignalConfig, gen_h0

from conftest import random_samples


def binomial_ci_halfwidth(p, n, z=2.576):
    """99% normal-approximation confidence half-width for a proportion."""
    return z * np.sqrt(p * (1 - p) / n)


class TestComputeStatistic:
    def test_hand_values(self):
        lam = np.array([2.0, 1.0, 1.0])
        assert compute_statistic("RT", lam, 1.0).value == pytest.approx(2.0)
        assert compute_statistic("GT", lam).value == pytest.approx(0.5)
        assert compute_statistic("ST", lam).value == pytest.approx(27 / 32)
        assert compute_statistic("JT", lam).value == pytest.approx(6 / 16)

    def test_flat_spectrum(self):
        lam = np.full(5, 3.3)
        assert compute_statistic("GT", lam).value == pytest.approx(1 / 5)
        assert compute_statistic("ST", lam).value == pytest.approx(1.0)
        assert compute_statistic("JT", lam).value == pytest.approx(1 / 5)

    def test_negative_values_clamped_and_flagged(self):
        st = compute_statistic("GT", np.array([2.0, -1e-12]))
        assert st.clamped
        assert st.value == pytest.approx(1.0)

    def test_all_zero_rejected_for_ratio_tests(self):
        for kind in ("GT", "ST", "JT"):
            with pytest.raises(DetectionError):
                compute_statistic(kind, np.zeros(3))

    def test_rt_needs_noise_power(self):
        with pytest.raises(DetectionError):
            compute_statistic("RT", np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(DetectionError):
            compute_statistic("GT", np.zeros(0))

    def test_value_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = np.sort(rng.random(6))[::-1] + 1e-3
            k = len(lam)
            assert 1 / k <= compute_statistic("GT", lam).value <= 1.0
            assert 0.0 < compute_statistic("ST", lam).value <= 1.0
            assert 1 / k <= compute_statistic("JT", lam).value <= 1.0

    def test_exact_trace_mode(self):
        # a partial list undercounts the trace, so GT with the true trace
        # comes out smaller than GT with the partial sum
        lam = np.array([5.0, 2.0])
        trace = 10.0
        gt = compute_statistic("GT", lam, trace=trace)
        assert gt.value == pytest.approx(0.5)
        assert gt.value < compute_statistic("GT", lam).value
        jt = compute_statistic("JT", lam, trace=trace)
        assert jt.value == pytest.approx((25 + 4) / 100)
        # RT ignores the trace entirely
        assert compute_statistic("RT", lam, 1.0, trace=trace).value == pytest.approx(5.0)

    def test_stack_rows_equal_lone_lists(self):
        rng = np.random.default_rng(5)
        lists = [rng.random(c) * 3 + 0.1 for c in (1, 4, 4, 7, 2, 8)]
        lists.append(np.array([2.0, -1e-12, 0.5]))
        stack = np.full((len(lists), 8), np.nan)
        for row, lam in zip(stack, lists):
            row[: len(lam)] = lam  # unsorted, as the statistic sorts
        traces = rng.random(len(lists)) + 20.0
        for kind in ("RT", "GT", "ST", "JT"):
            for trace in (None, traces):
                batch = compute_statistic(kind, stack, 1.5, trace=trace)
                assert batch.value.shape == batch.clamped.shape == (len(lists),)
                for i, lam in enumerate(lists):
                    alone = compute_statistic(
                        kind, lam, 1.5, trace=None if trace is None else trace[i]
                    )
                    assert batch.value[i] == alone.value
                    assert batch.clamped[i] == alone.clamped
        assert compute_statistic("GT", stack).clamped.tolist() == [False] * 6 + [True]

    def test_stack_with_an_empty_row_rejected(self):
        stack = np.array([[1.0, 0.5], [np.nan, np.nan]])
        with pytest.raises(DetectionError, match="empty"):
            compute_statistic("GT", stack)
        with pytest.raises(DetectionError, match="all-zero"):
            compute_statistic("ST", np.array([[1.0, 0.5], [0.0, np.nan]]))

    def test_trace_consensus_stack(self):
        ys = np.stack([random_samples(5, 7, seed) for seed in range(3)])
        ac = AcConfig("ideal", 0)
        out = trace_consensus(ys, ac)
        assert out.shape == (3, 5)
        for t in range(3):
            assert np.array_equal(out[t], trace_consensus(ys[t], ac))

    def test_trace_consensus_exact_under_ideal(self):
        y = random_samples(5, 7, 4)
        expected = np.real(np.trace((y @ y.conj().T) / 7))
        out = trace_consensus(y, AcConfig("ideal", 0))
        assert np.allclose(out, expected, rtol=1e-12)


class TestThresholds:
    def test_median_for_symmetric_alpha(self):
        vals = np.arange(1000, dtype=float)
        th = threshold_from_h0(vals, 0.5)
        assert abs(th - np.median(vals)) <= 1.0

    def test_too_few_trials(self):
        with pytest.raises(DetectionError):
            threshold_from_h0(np.arange(50.0), 0.1)

    def test_refuses_bad_alpha(self):
        with pytest.raises(DetectionError):
            threshold_from_h0(np.arange(2000.0), 1.5)

    def test_remeasured_pfa_within_binomial_ci(self):
        rng = np.random.default_rng(1)
        calib = rng.standard_normal(10_000)
        th = threshold_from_h0(calib, 0.1)
        fresh = rng.standard_normal(20_000)
        pfa = np.mean(fresh > th)
        assert abs(pfa - 0.1) <= binomial_ci_halfwidth(0.1, 20_000) + 1.0 / 10_000

    def test_detector_config_validation(self):
        with pytest.raises(DetectionError):
            DetectorConfig("RT", alpha=1.5, sigma2=1.0)
        with pytest.raises(DetectionError):
            DetectorConfig("GT", alpha=0.1, calibration_trials=50)
        with pytest.raises(DetectionError):
            DetectorConfig("RT", alpha=0.1)  # missing noise power
        with pytest.raises(DetectionError):
            DetectorConfig("XX", alpha=0.1)

    def test_calibrate_threshold_pipeline(self):
        n_cal, n_eval, alpha = 10_000, 10_000, 0.1
        cfg = DetectorConfig("GT", alpha=alpha, calibration_trials=n_cal)
        h0_cfg = SignalConfig(k=4, n=6, sigma2=1.0, seed=100)

        def pipeline(y):
            return np.sort(np.linalg.eigvalsh((y @ y.conj().T) / y.shape[1]))[::-1]

        th = calibrate_threshold(cfg, h0_cfg, pipeline)
        # re-measure on fresh seeds; both sides contribute binomial noise
        fresh = []
        for i in range(n_eval):
            y = gen_h0(SignalConfig(k=4, n=6, sigma2=1.0, seed=50_000 + i))
            fresh.append(compute_statistic("GT", pipeline(y)).value)
        pfa = np.mean(np.asarray(fresh) > th)
        halfwidth = 2.576 * np.sqrt(alpha * (1 - alpha) * (1 / n_cal + 1 / n_eval))
        assert abs(pfa - alpha) <= halfwidth + 1.0 / n_cal


class TestDecisions:
    def test_tie_goes_to_noise(self):
        assert local_decide(1.0, 1.0) is Hypothesis.H0

    def test_above_threshold(self):
        assert local_decide(1.0 + 1e-12, 1.0) is Hypothesis.H1

    def test_ideal_consensus_unanimous_decisions(self):
        y = random_samples(5, 6, 0)
        res = run_dpm(y, AcConfig("ideal", 0), 6, default_dpm_start(5, 0))
        stats = res.lambda1  # RT with sigma2 = 1
        decisions = {local_decide(v, 2.0) for v in stats}
        assert len(decisions) == 1


class TestStatisticConsensus:
    def test_ideal_returns_mean(self):
        vals = np.array([1.0, 2.0, 6.0])
        out = statistic_consensus(vals, AcConfig("ideal", 0))
        assert np.allclose(out, 3.0, atol=1e-15)

    def test_identical_inputs_unchanged(self, path3_weights, path3_cheb):
        vals = np.full(3, 1.7)
        cfg = AcConfig("chebyshev", 2, weights=path3_weights, cheb=path3_cheb)
        assert np.allclose(statistic_consensus(vals, cfg), vals, atol=1e-12)

    def test_chebyshev_damps_spread(self, path3_weights, path3_cheb):
        vals = np.array([0.0, 1.0, 5.0])
        t = 3
        cfg = AcConfig("chebyshev", t, weights=path3_weights, cheb=path3_cheb)
        out = statistic_consensus(vals, cfg)
        # scalar sequence for b1=2 is 1, 2, 7, 26
        assert np.linalg.norm(out - vals.mean()) <= np.linalg.norm(vals - vals.mean()) / 26 + 1e-12


class TestRoc:
    def test_extreme_thresholds(self):
        pts = roc_curve([1.0, 2.0], [3.0, 4.0], thresholds=[-np.inf, np.inf])
        assert (pts[0].pfa, pts[0].pd) == (1.0, 1.0)
        assert (pts[-1].pfa, pts[-1].pd) == (0.0, 0.0)

    def test_default_grid_monotone_with_endpoints(self):
        rng = np.random.default_rng(2)
        pts = roc_curve(rng.standard_normal(500), rng.standard_normal(500) + 1.0)
        pfa = [p.pfa for p in pts]
        pd = [p.pd for p in pts]
        assert pfa == sorted(pfa, reverse=True)
        assert pd == sorted(pd, reverse=True)
        assert pfa[0] == pd[0] == 1.0
        assert pfa[-1] == pd[-1] == 0.0

    def test_same_distribution_sits_on_diagonal(self):
        rng = np.random.default_rng(3)
        h0 = rng.standard_normal(4000)
        h1 = rng.standard_normal(4000)
        pts = roc_curve(h0, h1, thresholds=np.quantile(h0, [0.25, 0.5, 0.75]))
        for p in pts:
            assert abs(p.pd - p.pfa) <= 2 * binomial_ci_halfwidth(max(p.pfa, 0.05), 4000)

    def test_needs_both_hypotheses(self):
        with pytest.raises(DetectionError):
            roc_curve([], [1.0])
