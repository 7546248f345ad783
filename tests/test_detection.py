import numpy as np
import pytest

from eigennet.consensus import AcConfig
from eigennet.detection import compute_statistic, threshold_from_h0, trace_consensus
from eigennet.errors import DetectionError
from eigennet.experiments import run_roc
from eigennet.harness import validate_config

from conftest import random_samples


def binomial_ci_halfwidth(p, n, z=2.576):
    """99% normal-approximation confidence half-width for a proportion."""
    return z * np.sqrt(p * (1 - p) / n)


class TestComputeStatistic:
    def test_hand_values(self):
        lam = np.array([2.0, 1.0, 1.0])
        assert compute_statistic("RT", lam, 1.0).value == pytest.approx(2.0)
        assert compute_statistic("GT", lam).value == pytest.approx(0.5)
        assert compute_statistic("ST", lam).value == pytest.approx(-27 / 32)
        assert compute_statistic("JT", lam).value == pytest.approx(6 / 16)

    def test_flat_spectrum(self):
        lam = np.full(5, 3.3)
        assert compute_statistic("GT", lam).value == pytest.approx(1 / 5)
        assert compute_statistic("ST", lam).value == pytest.approx(-1.0)
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
            assert -1.0 <= compute_statistic("ST", lam).value < 0.0
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


class TestStatisticConsensus:
    """Per-node statistics averaged by one scalar consensus ``run``."""

    def test_ideal_returns_mean(self):
        vals = np.array([1.0, 2.0, 6.0])
        out = np.real(AcConfig("ideal", 0).run(vals).z)
        assert np.allclose(out, 3.0, atol=1e-15)

    def test_identical_inputs_unchanged(self, path3_weights):
        vals = np.full(3, 1.7)
        cfg = AcConfig("chebyshev", 2, weights=path3_weights)
        assert np.allclose(cfg.run(vals).z, vals, atol=1e-12)

    def test_chebyshev_damps_spread(self, path3_weights):
        vals = np.array([0.0, 1.0, 5.0])
        t = 3
        cfg = AcConfig("chebyshev", t, weights=path3_weights)
        out = cfg.run(vals).z
        # scalar sequence for b1=2 is 1, 2, 7, 26
        assert np.linalg.norm(out - vals.mean()) <= np.linalg.norm(vals - vals.mean()) / 26 + 1e-12


def test_every_detector_rejects_in_its_upper_tail():
    # A full-rank config (N > K) at 0 dB, every pipeline on the whole
    # spectrum (M = K): under a signal each statistic grows, so each
    # (detector, pipeline) pair detects at least as often as it false-alarms.
    # The margin is three binomial standard errors of a proportion at pfa
    # over the 200 trials. The sphericity ratio falls under a signal: before
    # ST reported its negative, its pd fell 0.305 below pfa on every pipeline.
    text = (
        "K = 8\nN = 32\nM = 8\nI = 30\nsnr_db = 0\ntrials = 200\nseed = 5\n"
        "radius = 0.6\ntopology_seed = 1\ndetectors = RT GT ST JT\nalphas = 0.05 0.2 0.5\n"
    )
    cfg = validate_config(text, "roc")
    checked = set()
    for row in run_roc(cfg).rows:
        if np.isfinite(row["threshold"]):
            margin = 3.0 * np.sqrt(row["pfa"] * (1.0 - row["pfa"]) / cfg.trials)
            assert row["pd"] >= row["pfa"] - margin, row
            checked.add((row["detector"], row["pipeline"]))
    assert {detector for detector, _ in checked} == {"RT", "GT", "ST", "JT"}
    assert len(checked) == 5 + 3 * 5  # RT on exact, pm, la, dpm, dla; the ratios add -tr
