"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the Monte-Carlo criteria (6-8) take a few minutes combined. Every
test is fully seeded, so outcomes are deterministic.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from eigennet.consensus import AcConfig, ErrorInjectingEngine
from eigennet.distributed import (
    audit_messages,
    check_dpm_convergence_condition,
    default_dla_start,
    default_dpm_start,
    make_convergence_trace,
    matrix_error_for_drift,
    predict_dpm_vector_error,
    predict_lambda1_error,
    run_dla,
    run_dpm,
)
from eigennet.eigencore import (
    EigenSolution,
    TridiagonalMatrix,
    dense_hermitian_eig,
    lanczos,
    power_method,
    sample_covariance,
    tridiagonal_eigenvalues,
)
from eigennet.harness import validate_config
from eigennet.experiments import run_ac_compare, run_eig_converge, run_multi_eig, run_roc
from eigennet.signals import samples_with_spectrum
from eigennet.topology import generate_random_geometric, metropolis_weights

from conftest import random_connected_graph, random_samples

IDEAL = AcConfig("ideal", 0)


def report(criterion, summary):
    print(f"ACCEPTANCE {criterion}: PASS — {summary}")


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_criterion_1_exact_consensus_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    with Timer() as t:
        for _ in range(50):
            # N >= K keeps the covariance full rank, so no run sits on the
            # knife edge of breakdown truncation; M stays short of Krylov
            # saturation, where the recurrence amplifies the rounding
            # differences of any two implementations past the tolerance
            k = int(rng.integers(2, 17))
            n = int(rng.integers(k, 17))
            m = int(rng.integers(1, k + 1))
            if k > 4:
                m = min(m, k - 3, 13)
            y = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            r = sample_covariance(y)
            v0 = default_dpm_start(k, int(rng.integers(0, 2**31)))
            res = run_dpm(y, IDEAL, m, v0)
            ref = power_method(r, v0, m)
            worst = max(worst, np.max(np.abs(res.lambda1 - ref.value)) / abs(ref.value))
            worst = max(
                worst,
                np.max(np.abs(res.v_hist[m] - ref.vector)) / np.max(np.abs(ref.vector)),
            )
            v1 = default_dla_start(k)
            res_l = run_dla(y, IDEAL, m, v1)
            ref_l = lanczos(r, v1, m)
            scale = max(np.max(np.abs(ref_l.alpha)), 1.0)
            worst = max(
                worst,
                np.max(np.abs(res_l.alpha_hist[: ref_l.size] - ref_l.alpha[:, None]))
                / scale,
            )
            if ref_l.size > 1:
                worst = max(
                    worst,
                    np.max(
                        np.abs(res_l.beta_hist[: ref_l.size - 1] - ref_l.beta[:, None])
                    )
                    / scale,
                )
            lam_ref = tridiagonal_eigenvalues(ref_l)
            for node in range(k):
                worst = max(
                    worst,
                    np.max(np.abs(res_l.ritz_raw[m][node] - lam_ref)) / max(lam_ref[0], 1.0),
                )
    assert worst <= 1e-12, f"worst relative deviation {worst:.3e}"
    assert t.elapsed < 10.0
    report(1, f"50 instances, worst relative deviation {worst:.2e}, {t.elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    with Timer() as t:
        worst_lanczos = 0.0
        for _ in range(20):
            k = int(rng.integers(3, 13))
            y = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            r = sample_covariance(y) + 0.5 * np.eye(k)  # keep it well conditioned
            v1 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            v1 /= np.linalg.norm(v1)
            mine = tridiagonal_eigenvalues(lanczos(r, v1, k))
            oracle = dense_hermitian_eig(r).values
            worst_lanczos = max(
                worst_lanczos, np.max(np.abs(mine - oracle[: len(mine)])) / oracle[0]
            )
        assert worst_lanczos <= 1e-6
        worst_tridiag = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 13))
            td = TridiagonalMatrix(
                rng.standard_normal(m), np.abs(rng.standard_normal(max(m - 1, 0)))
            )
            mine = tridiagonal_eigenvalues(td)
            oracle = dense_hermitian_eig(td.dense()).values
            worst_tridiag = max(
                worst_tridiag, np.max(np.abs(mine - oracle)) / (1.0 + td.inf_norm())
            )
        assert worst_tridiag <= 1e-8
    assert t.elapsed < 10.0
    report(
        2,
        f"lanczos vs oracle {worst_lanczos:.2e}, tridiagonal vs oracle "
        f"{worst_tridiag:.2e}, {t.elapsed:.1f}s",
    )


def test_criterion_3_error_formula_verification():
    with Timer() as t:
        k, n, m = 6, 5, 5
        y = random_samples(k, n, 31)
        r = sample_covariance(y)
        v0 = default_dpm_start(k, 3)
        rng = np.random.default_rng(5)
        errors = [
            0.02 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
            for _ in range(m + 1)
        ]
        errors.append(0.02 * rng.standard_normal(k))
        res = run_dpm(y, ErrorInjectingEngine(errors), m, v0, trace=True)
        pred = predict_dpm_vector_error(res.trace, r, v0, m)
        vec_resid = np.max(np.abs(pred - res.v_hist[m])) / np.max(np.abs(res.v_hist[m]))
        assert vec_resid <= 1e-10
        _, _, lam = predict_lambda1_error(res.trace, y, res.v_hist[m])
        lam_resid = np.max(np.abs(lam - res.lambda1)) / np.max(np.abs(res.lambda1))
        assert lam_resid <= 1e-10

        def dla_residual(eps):
            gen = np.random.default_rng(9)
            errs = []
            for _ in range(m):
                errs.append(
                    eps * (gen.standard_normal((k, n)) + 1j * gen.standard_normal((k, n)))
                )
                errs.append(eps * gen.standard_normal(k))
            run = run_dla(y, ErrorInjectingEngine(errs), m, trace=True)
            return np.max(np.abs(run.trace.w_error_measured - run.trace.w_error_predicted))

        ratio = dla_residual(1e-3) / dla_residual(5e-4)
        assert 3.0 <= ratio <= 5.0, f"second-order ratio {ratio:.3f}"
    assert t.elapsed < 30.0
    report(
        3,
        f"vector residual {vec_resid:.1e}, eigenvalue residual {lam_resid:.1e}, "
        f"halving ratio {ratio:.2f}, {t.elapsed:.1f}s",
    )


def _drift_driven_run(y, vectors, m, drift_of_j):
    k = y.shape[0]
    direction = vectors[:, 1:].sum(axis=1)
    direction /= np.max(np.abs(direction))

    def errors(call_index, z0):
        if z0.ndim == 1:
            return np.zeros(k)
        j = call_index + 1
        if j > m:
            return np.zeros_like(z0)
        return matrix_error_for_drift(y, drift_of_j(j) * direction)

    return run_dpm(y, ErrorInjectingEngine(errors), m, vectors[:, 0].copy(), trace=True)


def test_criterion_4_convergence_condition():
    m = 60
    with Timer() as t:
        finals = []
        for seed in (1, 2, 3):
            spectrum = np.array([2.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3])
            y, (vals, vecs) = samples_with_spectrum(spectrum, seed)
            oracle = EigenSolution(vals, vecs)
            rate = vals[0] / max(vals[1], 1.0)
            res = _drift_driven_run(y, vecs, m, lambda j: 0.05 * rate**j / (j + 1.0) ** 2)
            verdict = check_dpm_convergence_condition(
                make_convergence_trace(res, oracle), oracle, m
            )
            assert verdict.condition_satisfied
            assert verdict.sin_theta_final <= 1e-3
            finals.append(verdict.sin_theta_final)
        plateaus = []
        for seed in (1, 2, 3):
            flat = np.array([1.05, 1.0, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7])
            y, (vals, vecs) = samples_with_spectrum(flat, 100 + seed)
            oracle = EigenSolution(vals, vecs)
            res = _drift_driven_run(y, vecs, m, lambda j: 0.1)
            verdict = check_dpm_convergence_condition(
                make_convergence_trace(res, oracle), oracle, m
            )
            assert not verdict.condition_satisfied
            tail = verdict.sin_theta[-(m // 4):]
            assert np.min(tail) > 1e-2, "constant drift should keep the angle up"
            plateaus.append(verdict.sin_theta_final)
    assert t.elapsed < 30.0
    report(
        4,
        f"decaying drift angles {max(finals):.1e} <= 1e-3; constant drift "
        f"plateaus {min(plateaus):.2f} > 1e-2, {t.elapsed:.1f}s",
    )


def test_criterion_5_message_audit():
    rng = np.random.default_rng(55)
    with Timer() as t:
        for case in range(20):
            k = int(rng.integers(4, 13))
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, min(k, 8) + 1))
            i_iters = int(rng.integers(1, 25))
            if case % 2:
                g = random_connected_graph(k, case)
            else:
                g = generate_random_geometric(k, 0.75, case)
            w = metropolis_weights(g)
            y = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
            ac = AcConfig("standard", i_iters, weights=w)
            deg = g.degrees()
            res = run_dpm(y, ac, m, default_dpm_start(k, case))
            audit = audit_messages(res)  # raises on any mismatch
            for node in range(k):
                assert audit.units_per_node[node] == i_iters * (m * n + n + 1) * deg[node]
            assert (audit.ac_n_calls, audit.ac_1_calls) == (m + 1, 1)
            assert audit.time_periods == m + 2
            res_l = run_dla(y, ac, m, default_dla_start(k))
            audit_l = audit_messages(res_l)
            for node in range(k):
                assert audit_l.units_per_node[node] == i_iters * (m * n + m) * deg[node]
            assert (audit_l.ac_n_calls, audit_l.ac_1_calls) == (m, m)
            assert audit_l.time_periods == 2 * m
    report(5, f"20 random (M, N, I, topology) audits exact, {t.elapsed:.1f}s")


BASE_DENSE = dict(
    K="40", N="10", sigma2="1.0", radius="0.4", topology_seed="3", snr_db="5"
)


def test_criterion_6_fig2_fig3_trends():
    with Timer() as t:
        cfg = validate_config(
            {**BASE_DENSE, "M": "20", "I": "5 10 15 20 25 30", "trials": "500",
             "seed": "101"},
            "ac-compare",
        )
        rows = run_ac_compare(cfg).rows
        mse = {(r["engine"], r["I"]): r["mse"] for r in rows}
        for i_iters in (5, 10, 15, 20, 25, 30):
            assert mse[("chebyshev", i_iters)] < mse[("standard", i_iters)], (
                f"I={i_iters}: chebyshev {mse[('chebyshev', i_iters)]:.4g} !< "
                f"standard {mse[('standard', i_iters)]:.4g}"
            )
        cfg = validate_config(
            {**BASE_DENSE, "M": "2 5 10 15 20", "I": "10 15", "trials": "500",
             "seed": "102"},
            "eig-converge",
        )
        rows = run_eig_converge(cfg).rows
        curve = {(r["algorithm"], r["I"], r["M"]): r["mse"] for r in rows}
        floor = curve[("pm-ideal", 0, 20)]
        dpm10 = curve[("dpm", 10, 20)]
        assert abs(dpm10 / floor - 1.0) <= 0.10, f"dpm I=10 vs floor ratio {dpm10/floor:.3f}"
        # Lanczos at I=15 drops to its floor; early segment strictly decreasing
        dla15 = [curve[("dla", 15, m)] for m in (2, 5, 10, 15, 20)]
        assert dla15[0] > dla15[1] > dla15[2]
        assert dla15[4] < dla15[1]
        dla10_final = curve[("dla", 10, 20)]
        assert dla10_final > 2.0 * curve[("dla", 15, 20)], (
            f"dla I=10 final {dla10_final:.3g} vs I=15 {curve[('dla', 15, 20)]:.3g}"
        )
    assert t.elapsed < 300.0
    report(
        6,
        "chebyshev < metropolis at all I; dpm(I=10)/floor = "
        f"{dpm10 / floor:.3f}; dla I=10/I=15 final ratio "
        f"{dla10_final / curve[('dla', 15, 20)]:.0f}, {t.elapsed:.0f}s",
    )


def test_criterion_7_fig4_trend():
    with Timer() as t:
        cfg = validate_config(
            dict(K="40", N="10", sigma2="1.0", radius="0.3", topology_seed="1",
                 snr_db="5", M="20", I="20 30", trials="500", seed="103",
                 eig_indices="1 5 9"),
            "multi-eig",
        )
        rows = run_multi_eig(cfg).rows
        mse = {(r["I"], r["eig_index"]): r["mse"] for r in rows if r["M"] == 20}
        for idx in (5, 9):
            assert mse[(30, idx)] < mse[(20, idx)], (
                f"eigenvalue {idx}: I=30 {mse[(30, idx)]:.3g} !< I=20 {mse[(20, idx)]:.3g}"
            )
    assert t.elapsed < 300.0
    report(
        7,
        f"lambda5 {mse[(20, 5)]:.3g}->{mse[(30, 5)]:.3g}, "
        f"lambda9 {mse[(20, 9)]:.3g}->{mse[(30, 9)]:.3g} as I: 20->30, {t.elapsed:.0f}s",
    )


def test_criterion_8_roc_reproduction():
    alphas = [round(0.05 * i, 2) for i in range(1, 11)]
    with Timer() as t:
        cfg = validate_config(
            {**BASE_DENSE, "snr_db": "7", "M": "5 10", "I": "30", "trials": "2000",
             "seed": "104", "detectors": "RT GT",
             "alphas": " ".join(str(a) for a in alphas)},
            "roc",
        )
        rows = run_roc(cfg).rows

        def pd_at(table, det, pipe, alpha):
            cand = [
                r
                for r in table
                if r["detector"] == det
                and r["pipeline"] == pipe
                and np.isfinite(r["threshold"])
            ]
            return min(cand, key=lambda r: abs(r["pfa"] - alpha))["pd"]

        def max_gap(pipe):
            return max(
                abs(pd_at(rows, "RT", pipe, a) - pd_at(rows, "RT", "exact", a))
                for a in alphas
            )

        gap_dpm = max_gap("dpm-m10")
        gap_dla = max_gap("dla-m10")
        gap_dla5 = max_gap("dla-m5")
        assert gap_dpm <= 0.03, f"RT dpm-m10 gap {gap_dpm:.3f}"
        assert gap_dla <= 0.03, f"RT dla-m10 gap {gap_dla:.3f}"
        assert gap_dla5 <= 0.03, f"RT dla-m5 gap {gap_dla5:.3f}"
        gt_gap = max(
            pd_at(rows, "GT", "exact", a) - pd_at(rows, "GT", "dla-m5", a)
            for a in alphas
        )
        assert gt_gap > 0.03, f"GT dla-m5 should trail the exact GT, gap {gt_gap:.3f}"
        # detection example at the full Monte-Carlo count: 10 samples per node
        # suffice for a 7 dB source at the 10% false-alarm level
        cfg = validate_config(
            {**BASE_DENSE, "snr_db": "7", "M": "10", "I": "30", "trials": "3000",
             "seed": "104", "detectors": "RT", "alphas": "0.1"},
            "roc",
        )
        rows3000 = run_roc(cfg).rows
        detect_pd = pd_at(rows3000, "RT", "dpm-m10", 0.1)
        assert detect_pd >= 0.9, f"RT via DPM at Pfa=0.1 detects with Pd {detect_pd:.3f}"
    assert t.elapsed < 600.0
    report(
        8,
        f"RT gaps: dpm-m10 {gap_dpm:.3f}, dla-m10 {gap_dla:.3f}, dla-m5 "
        f"{gap_dla5:.3f} (<= 0.03); GT dla-m5 trails by {gt_gap:.3f}; "
        f"Pd@0.1 = {detect_pd:.3f}, {t.elapsed:.0f}s",
    )


def test_criterion_9_property_suite():
    with Timer() as t:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(Path(__file__).parent / "test_properties.py"), "-q"],
            capture_output=True,
            text=True,
        )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert t.elapsed < 120.0
    report(9, f"property suite green (200 cases per property), {t.elapsed:.0f}s")
