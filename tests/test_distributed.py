import dataclasses

import numpy as np
import pytest

from eigennet import distributed, eigencore
from eigennet.consensus import AcConfig, ErrorInjectingEngine, ReplayEngine, run_consensus
from eigennet.distributed import (
    audit_messages,
    check_dpm_convergence_condition,
    default_dla_start,
    default_dpm_start,
    make_convergence_trace,
    matrix_error_for_drift,
    predict_dla_w_error,
    predict_dpm_vector_error,
    predict_lambda1_error,
    run_dla,
    run_dpm,
)
from eigennet.eigencore import (
    EigenSolution,
    filter_spurious,
    lanczos,
    power_method,
    sample_covariance,
    tridiagonal_eigenvalues,
)
from eigennet.errors import AuditMismatch, DegenerateRunError, EigennetError
from eigennet.signals import SignalConfig, gen_h0, gen_h1, samples_with_spectrum
from eigennet.topology import Graph, metropolis_weights, spectral_bounds

from conftest import random_connected_graph, random_hermitian_psd, random_samples

IDEAL = AcConfig("ideal", 0)


def dpm_injection(k, n, m, scale, seed, *, scalar_scale=None):
    rng = np.random.default_rng(seed)
    errors = [
        scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        for _ in range(m + 1)
    ]
    errors.append((scalar_scale if scalar_scale is not None else scale) * rng.standard_normal(k))
    return ErrorInjectingEngine(errors)


def dla_injection(k, n, m, mat_scale, scalar_scale, seed):
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(m):
        errors.append(
            mat_scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
        )
        errors.append(scalar_scale * rng.standard_normal(k))
    return ErrorInjectingEngine(errors)


class TestIdealEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_dpm_matches_centralized(self, seed):
        y = random_samples(6, 5, seed)
        r = sample_covariance(y)
        v0 = default_dpm_start(6, seed)
        res = run_dpm(y, IDEAL, 4, v0)
        ref = power_method(r, v0, 4)
        assert np.max(np.abs(res.lambda1 - ref.value)) <= 1e-12 * abs(ref.value)
        assert np.ptp(res.lambda1) == 0.0  # all nodes identical under exact consensus
        rel = np.max(np.abs(res.v_hist[4] - ref.vector)) / np.max(np.abs(ref.vector))
        assert rel <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_dla_matches_centralized(self, seed):
        y = random_samples(7, 6, seed)
        r = sample_covariance(y)
        v1 = default_dla_start(7)
        m = 5
        res = run_dla(y, IDEAL, m, v1)
        ref = lanczos(r, v1, m)
        scale = max(np.max(np.abs(ref.alpha)), 1.0)
        assert np.max(np.abs(res.alpha_hist - ref.alpha[:, None])) <= 1e-12 * scale
        assert np.max(np.abs(res.beta_hist[: m - 1] - ref.beta[:, None])) <= 1e-12 * scale
        lam_ref = tridiagonal_eigenvalues(ref)
        for k in range(7):
            assert np.max(np.abs(res.ritz_raw[m][k] - lam_ref)) <= 1e-10 * lam_ref[0]

    def test_two_node_complete_graph_one_step_standard(self):
        # one-step-exact consensus makes the standard engine match exactly
        g = Graph(2, ((0, 1),))
        w = metropolis_weights(g)
        y = random_samples(2, 4, 0)
        v0 = default_dpm_start(2, 0)
        res = run_dpm(y, AcConfig("standard", 1, weights=w), 3, v0)
        ref = power_method(sample_covariance(y), v0, 3)
        assert np.max(np.abs(res.lambda1 - ref.value)) <= 1e-12 * abs(ref.value)

    def test_dla_breakdown_matches_centralized_truncation(self):
        y = 2.0 * np.eye(4)  # covariance is a scaled identity
        res = run_dla(y, IDEAL, 3, default_dla_start(4))
        assert np.all(res.sizes == 1)
        t0 = res.tridiagonal(0)
        assert t0.invariant_subspace
        assert t0.alpha == pytest.approx([1.0])


class TestRunValidation:
    def test_rejects_zero_start(self):
        with pytest.raises(ValueError):
            run_dpm(random_samples(3, 3, 0), IDEAL, 2, np.zeros(3))

    def test_rejects_bad_checkpoint(self):
        with pytest.raises(ValueError):
            run_dpm(random_samples(3, 3, 0), IDEAL, 2, checkpoints=(5,))

    def test_dla_start_norm_enforced(self):
        with pytest.raises(ValueError):
            run_dla(random_samples(3, 3, 0), IDEAL, 2, np.ones(3))

    def test_dla_iteration_bound(self):
        with pytest.raises(ValueError):
            run_dla(random_samples(3, 3, 0), IDEAL, 4)

    def test_degenerate_denominator(self):
        y = random_samples(3, 4, 1)

        def make(idx, z0):
            if z0.ndim == 1:
                return -z0.mean() * np.ones(3)  # forces the scalar output to zero
            return np.zeros_like(z0)

        with pytest.raises(DegenerateRunError):
            run_dpm(y, ErrorInjectingEngine(make), 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_dpm_iterate(self):
        # the unnormalized iterate grows like (1e200)^j and leaves floating point
        y = 1e100 * random_samples(4, 3, 2)
        with pytest.raises(DegenerateRunError, match="eigenvalue stage overflowed"):
            run_dpm(np.stack([y, y / 1e100]), IDEAL, 3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_lanczos_coefficients(self):
        # finite samples whose squared magnitudes overflow
        y = 1e160 * random_samples(4, 3, 3)
        with pytest.raises(DegenerateRunError, match="Lanczos coefficients are not finite"):
            run_dla(y, IDEAL, 3)


class TestErrorPredictions:
    def test_zero_errors_reduce_to_matrix_powers(self):
        y = random_samples(5, 4, 2)
        r = sample_covariance(y)
        v0 = default_dpm_start(5, 2)
        res = run_dpm(y, IDEAL, 3, v0, trace=True)
        pred = predict_dpm_vector_error(res.trace, r, v0, 3)
        want = np.linalg.matrix_power(r, 3) @ v0
        assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))
        e_num, e_den, lam = predict_lambda1_error(res.trace, y, res.v_hist[3])
        assert np.max(np.abs(e_num)) < 1e-12
        assert np.max(np.abs(e_den)) < 1e-12
        assert np.max(np.abs(lam - res.lambda1)) <= 1e-12 * np.max(np.abs(res.lambda1))

    def test_single_iteration_single_error(self):
        y = random_samples(4, 5, 3)
        r = sample_covariance(y)
        v0 = default_dpm_start(4, 3)
        rng = np.random.default_rng(0)
        e1 = 0.05 * (rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)))
        eng = ErrorInjectingEngine([e1, np.zeros((4, 5)), np.zeros(4)])
        res = run_dpm(y, eng, 1, v0, trace=True)
        drift = (4 / 5) * np.einsum("kn,kn->k", res.trace.iteration_errors[0].conj(), y)
        want = r @ v0 + drift
        assert np.max(np.abs(res.v_hist[1] - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_errors_reconstruct(self, seed):
        k, n, m = 6, 4, 5
        y = random_samples(k, n, seed)
        r = sample_covariance(y)
        v0 = default_dpm_start(k, seed)
        res = run_dpm(y, dpm_injection(k, n, m, 0.02, seed), m, v0, trace=True)
        pred = predict_dpm_vector_error(res.trace, r, v0, m)
        rel = np.max(np.abs(pred - res.v_hist[m])) / np.max(np.abs(res.v_hist[m]))
        assert rel <= 1e-10

    def test_lambda1_reconstruction_each_error_alone(self):
        k, n, m = 5, 6, 3
        y = random_samples(k, n, 4)
        for which in ("matrix", "scalar"):
            rng = np.random.default_rng(11)
            errors = [np.zeros((k, n), dtype=complex) for _ in range(m)]
            if which == "matrix":
                errors.append(
                    0.1 * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
                )
                errors.append(np.zeros(k))
            else:
                errors.append(np.zeros((k, n), dtype=complex))
                errors.append(0.1 * rng.standard_normal(k))
            res = run_dpm(
                y, ErrorInjectingEngine(errors), m, default_dpm_start(k, 4), trace=True
            )
            _, _, lam = predict_lambda1_error(res.trace, y, res.v_hist[m])
            rel = np.max(np.abs(lam - res.lambda1)) / np.max(np.abs(res.lambda1))
            assert rel <= 1e-12

    def test_dla_w_prediction_zero_errors(self):
        y = random_samples(5, 5, 6)
        res = run_dla(y, IDEAL, 4, trace=True)
        assert np.max(np.abs(res.trace.w_error_measured)) < 1e-10
        assert np.max(np.abs(res.trace.w_error_predicted)) < 1e-30

    def test_dla_w_prediction_matrix_errors_exact(self):
        k, n, m = 6, 5, 4
        y = random_samples(k, n, 7)
        res = run_dla(y, dla_injection(k, n, m, 1e-2, 0.0, 1), m, trace=True)
        resid = np.abs(res.trace.w_error_measured - res.trace.w_error_predicted)
        assert np.max(resid) <= 1e-10

    def test_dla_w_prediction_second_order_in_scalar_error(self):
        k, n, m = 6, 5, 4
        y = random_samples(k, n, 8)

        def residual(eps):
            res = run_dla(y, dla_injection(k, n, m, eps, eps, 2), m, trace=True)
            return np.max(np.abs(res.trace.w_error_measured - res.trace.w_error_predicted))

        ratio = residual(1e-3) / residual(5e-4)
        assert 3.0 <= ratio <= 5.0

    def test_predict_dla_w_error_matches_trace(self):
        k, n, m = 5, 4, 3
        y = random_samples(k, n, 9)
        res = run_dla(y, dla_injection(k, n, m, 1e-3, 1e-3, 3), m, trace=True)
        for j in range(1, m + 1):
            pred = predict_dla_w_error(res.trace, y, res, j)
            assert np.allclose(pred, res.trace.w_error_predicted[j - 1], atol=1e-14)


def max_rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestInstrumentationAfterTheLoop:
    """The run's instrumentation against the per-iteration formulas."""

    @pytest.mark.parametrize("scalar_scale", [0.0, 1e-3, 50.0])
    def test_dla_trace_matches_per_iteration_loop(self, scalar_scale):
        k, n, m = 7, 5, 6
        y = random_samples(k, n, 22)
        res = run_dla(y, dla_injection(k, n, m, 1e-2, scalar_scale, 5), m, trace=True)
        tr = res.trace
        measured = np.zeros((m, k), dtype=complex)
        predicted = np.zeros((m, k), dtype=complex)
        flags = np.zeros((m, k), dtype=bool)
        for j in range(1, m + 1):
            v = res.v_hist[j - 1]
            v_prev = res.v_hist[j - 2] if j >= 2 else np.zeros(k, dtype=complex)
            w_prev = res.w_norms[j - 2] if j >= 2 else 0.0
            rv = (y @ (y.conj().T @ v)) / n
            alpha_ideal = float(np.real(np.vdot(v, rv)))
            measured[j - 1] = res.w_hist[j - 1] - (rv - alpha_ideal * v - w_prev * v_prev)
            e = tr.iteration_matrix_errors[j - 1]
            e_alpha = (k / n) * 2.0 * np.real(e @ (y.conj().T @ v)) + (k * k / n) * np.sum(
                np.abs(e) ** 2, axis=1
            )
            pred = (k / n) * np.einsum("kn,kn->k", e.conj(), y) - e_alpha * v
            if w_prev > 0:
                pred = pred - (k / (2.0 * w_prev)) * tr.normalization_errors[j - 1] * v_prev
                flags[j - 1] = np.abs(tr.normalization_errors[j - 1]) > 0.1 * w_prev**2 / k
            predicted[j - 1] = pred
        assert max_rel(tr.w_error_measured, measured) <= 1e-12
        assert max_rel(tr.w_error_predicted, predicted) <= 1e-12
        assert np.array_equal(tr.taylor_flags, flags)
        assert tr.taylor_flags.any() == (scalar_scale == 50.0)
        for j in range(1, m + 1):
            assert max_rel(predict_dla_w_error(tr, y, res, j), predicted[j - 1]) <= 1e-12

    def test_dpm_drift_matches_per_iteration_loop(self):
        k, n, m = 6, 4, 5
        y = random_samples(k, n, 23)
        res = run_dpm(
            y, dpm_injection(k, n, m, 0.02, 6), m, default_dpm_start(k, 6), trace=True
        )
        drift = np.array([
            (k / n) * np.einsum("kn,kn->k", e.conj(), y) for e in res.trace.iteration_errors
        ])
        assert res.trace.iteration_drift.shape == (m, k)
        assert max_rel(res.trace.iteration_drift, drift) <= 1e-12


class TestBatchedRitzExtraction:
    @staticmethod
    def staggered_breakdowns():
        """Scalar errors that zero the off-diagonal coefficient of nodes 0 and
        1 at iteration 2 and of node 2 at iteration 4, so sizes are 2, 2, 4,
        M, ..."""
        stop = {2: [0, 1], 4: [2]}

        def errors(idx, z0):
            err = np.zeros_like(z0)
            if z0.ndim == 1:
                nodes = stop.get(idx // 2 + 1, [])
                err[nodes] = -z0.mean() - 1.0
            return err

        return ErrorInjectingEngine(errors)

    @staticmethod
    def per_node_reference(res, k, n, tol_rel):
        """Ritz lists built node by node from the one-matrix routines."""
        raw, filtered = {}, {}
        m = res.m_iterations
        for j in range(1, m + 1):
            raw[j] = [tridiagonal_eigenvalues(res.tridiagonal(node, j)) for node in range(k)]
        for j in range(1, m + 1):
            filtered[j] = []
            for node in range(k):
                cur = raw[j][node]
                tol = tol_rel * max(float(np.max(np.abs(cur))), 1e-12)
                prev = raw[j - 1][node] if j > min(k, n) else None
                filtered[j].append(filter_spurious(cur, prev, k, n, tol, iteration=j))
        return raw, filtered

    @pytest.mark.parametrize("case", ["ideal", "staggered"])
    def test_lists_match_per_node_reference(self, case):
        k, n, m = 8, 3, 7
        y = random_samples(k, n, 24)
        ac = IDEAL if case == "ideal" else self.staggered_breakdowns()
        if case == "ideal":
            y = y[:, :2]  # rank 2 < M: every node breaks down early
            n = 2
        res = run_dla(y, ac, m, ritz_iters="all", spurious_tol_rel=1e-3)
        if case == "ideal":
            assert np.all(res.sizes < m)
        else:
            assert res.sizes.tolist() == [2, 2, 4] + [m] * (k - 3)
        raw, filtered = self.per_node_reference(res, k, n, 1e-3)
        assert res.ritz_raw.keys() == raw.keys()
        assert res.eigenvalues.keys() == filtered.keys()
        for j in raw:
            assert len(res.ritz_raw[j]) == len(res.eigenvalues[j]) == k
            for node in range(k):
                assert np.array_equal(res.ritz_raw[j][node], raw[j][node])
                assert np.array_equal(res.eigenvalues[j][node], filtered[j][node])

    def test_one_solver_call_per_size_and_no_per_node_filter(self, monkeypatch):
        k, n, m = 8, 3, 7
        calls = {"tridiag": [], "batch": 0, "single": 0}
        solve = distributed.tridiagonal_eigenvalues_batch
        batch = distributed.filter_spurious_batch
        single = eigencore.filter_spurious

        def counted_solve(alpha, beta):
            calls["tridiag"].append(alpha.shape)
            return solve(alpha, beta)

        def counted_batch(*args, **kwargs):
            calls["batch"] += 1
            return batch(*args, **kwargs)

        def counted_single(*args, **kwargs):
            calls["single"] += 1
            return single(*args, **kwargs)

        monkeypatch.setattr(distributed, "tridiagonal_eigenvalues_batch", counted_solve)
        monkeypatch.setattr(distributed, "filter_spurious_batch", counted_batch)
        monkeypatch.setattr(eigencore, "filter_spurious", counted_single)
        wanted = (2, 3, 5, 7)
        res = run_dla(
            random_samples(k, n, 25), self.staggered_breakdowns(), m, ritz_iters=wanted
        )
        # past min(K, N) = 3 the filter also needs the previous iteration
        needed = sorted(set(wanted) | {4, 6})
        assert sorted(res.ritz_raw) == needed
        expected = [
            (int(np.sum(np.minimum(res.sizes, j) == s)), int(s))
            for j in needed
            for s in np.unique(np.minimum(res.sizes, j))
        ]
        assert calls["tridiag"] == expected
        assert calls["batch"] == len(wanted)
        assert calls["single"] == 0


class TestDlaRobustness:
    def test_negative_scalar_consensus_clamped(self):
        k, n, m = 4, 4, 2
        y = random_samples(k, n, 10)

        def errors(idx, z0):
            if z0.ndim == 1:
                return -(z0.mean() + 1.0) * np.ones(k)  # drives the output negative
            return np.zeros_like(z0)

        res = run_dla(y, ErrorInjectingEngine(errors), m)
        assert res.clamped.any()
        assert np.all(res.beta_hist >= 0.0)
        assert np.all(res.sizes >= 1)

    def test_taylor_flag_on_large_scalar_error(self):
        k, n, m = 4, 5, 3
        y = random_samples(k, n, 11)
        res = run_dla(y, dla_injection(k, n, m, 0.0, 50.0, 4), m, trace=True)
        assert res.trace.taylor_flags.any()

    def test_beta_nonnegative_under_ideal(self):
        y = random_samples(6, 6, 12)
        res = run_dla(y, IDEAL, 5)
        ref = lanczos(sample_covariance(y), default_dla_start(6), 5)
        assert np.all(res.beta_hist >= 0)
        assert np.allclose(res.beta_hist[:4, 0], ref.beta, atol=1e-12 * max(ref.alpha))


class TestLocality:
    class _Recorder:
        def __init__(self, cfg):
            self.cfg = cfg
            self.outputs = []

        def run(self, z0):
            res = run_consensus(z0, self.cfg)
            self.outputs.append(res.z.copy())
            return res

    @pytest.mark.parametrize("algorithm", ["dpm", "dla"])
    def test_other_rows_only_enter_through_consensus(self, algorithm):
        g = random_connected_graph(5, 0)
        w = metropolis_weights(g)
        y = random_samples(5, 4, 13)
        rec = self._Recorder(AcConfig("standard", 3, weights=w))
        if algorithm == "dpm":
            ref = run_dpm(y, rec, 3, default_dpm_start(5, 1))
        else:
            ref = run_dla(y, rec, 3, default_dla_start(5))
        y_perturbed = y.copy()
        y_perturbed[2] += 1.0 - 0.5j  # node 2 changes; replay freezes consensus
        replay = ReplayEngine(rec.outputs)
        if algorithm == "dpm":
            res = run_dpm(y_perturbed, replay, 3, default_dpm_start(5, 1))
            same = [k for k in range(5) if k != 2]
            assert np.array_equal(res.v_hist[:, same], ref.v_hist[:, same])
            assert np.array_equal(res.lambda1[same], ref.lambda1[same])
            assert not np.array_equal(res.v_hist[:, 2], ref.v_hist[:, 2])
        else:
            res = run_dla(y_perturbed, replay, 3, default_dla_start(5))
            same = [k for k in range(5) if k != 2]
            assert np.array_equal(res.alpha_hist[:, same], ref.alpha_hist[:, same])
            assert np.array_equal(res.w_hist[:, same], ref.w_hist[:, same])
            assert not np.array_equal(res.w_hist[:, 2], ref.w_hist[:, 2])


class TestConvergenceCondition:
    def test_zero_errors_classical_rate(self):
        lam = np.array([3.0, 1.5, 0.8, 0.4])
        y, (values, vectors) = samples_with_spectrum(lam, seed=5)
        oracle = EigenSolution(values, vectors)
        rng = np.random.default_rng(0)
        v0 = vectors[:, 0] + 0.3 * vectors[:, 1] + 0.1 * vectors[:, 2]
        m = 25
        res = run_dpm(y, IDEAL, m, v0, trace=True)
        trace = make_convergence_trace(res, oracle)
        verdict = check_dpm_convergence_condition(trace, oracle, m)
        assert verdict.condition_satisfied
        # classical decay bound with the start's eigen-expansion constant
        a = vectors.conj().T @ v0
        c = np.linalg.norm(a[1:]) / abs(a[0])
        assert trace.sin_theta[m] <= c * (values[1] / values[0]) ** m * (1 + 1e-9)

    def test_precondition_requires_large_top_eigenvalue(self):
        lam = np.array([0.9, 0.5, 0.1])
        y, (values, vectors) = samples_with_spectrum(lam, seed=6)
        oracle = EigenSolution(values, vectors)
        res = run_dpm(y, IDEAL, 3, vectors[:, 0], trace=True)
        trace = make_convergence_trace(res, oracle)
        with pytest.raises(ValueError):
            check_dpm_convergence_condition(trace, oracle, 3)

    def test_drift_helper_hits_target(self):
        y = random_samples(5, 5, 14)
        target = np.array([0.1, -0.2, 0.05, 0.0, 0.3]) + 0.1j
        err = matrix_error_for_drift(y, target)
        drift = (1.0) * np.einsum("kn,kn->k", err.conj(), y) * (5 / 5)
        assert np.allclose(drift, target, atol=1e-12)


class TestAudit:
    def test_hand_formula_example(self):
        # a degree-3 node exchanging I(MN + N + 1)d units: 30*(50+10+1)*3 = 5490
        g = Graph(5, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4)))
        w = metropolis_weights(g)
        y = random_samples(5, 10, 15)
        ac = AcConfig("standard", 30, weights=w)
        res = run_dpm(y, ac, 5, default_dpm_start(5, 0))
        audit = audit_messages(res)
        assert audit.ac_n_calls == 6
        assert audit.ac_1_calls == 1
        assert audit.time_periods == 7
        assert audit.units_per_node[0] == 5490  # node 0 has degree 3
        # Lanczos counterpart: 30*(50+5)*3 = 4950
        res_l = run_dla(y, ac, 5, default_dla_start(5))
        audit_l = audit_messages(res_l)
        assert audit_l.ac_n_calls == 5
        assert audit_l.ac_1_calls == 5
        assert audit_l.time_periods == 10
        assert audit_l.units_per_node[0] == 4950

    def test_single_iteration_counts(self):
        g = Graph(3, ((0, 1), (1, 2)))
        w = metropolis_weights(g)
        res = run_dpm(random_samples(3, 4, 16), AcConfig("standard", 2, weights=w), 1)
        assert res.audit.ac_n_calls == 2
        assert res.audit.ac_1_calls == 1

    def test_checkpointed_run_fails_audit(self):
        g = Graph(3, ((0, 1), (1, 2)))
        w = metropolis_weights(g)
        res = run_dpm(
            random_samples(3, 4, 17), AcConfig("standard", 2, weights=w), 3,
            checkpoints=(1,),
        )
        with pytest.raises(AuditMismatch):
            audit_messages(res)

    def test_synthetic_engine_not_auditable(self):
        res = run_dpm(random_samples(3, 4, 18), IDEAL, 2)
        with pytest.raises(ValueError):
            audit_messages(res)


class TestDeterminismAndState:
    def test_repeat_runs_bit_identical(self):
        g = random_connected_graph(6, 1)
        w = metropolis_weights(g)
        cp = spectral_bounds(w)
        y = random_samples(6, 5, 19)

        def once():
            ac = AcConfig(
                "chebyshev", 8, weights=w, cheb=cp,
                link_failure_prob=0.2, failure_seed=5,
            )
            return run_dpm(y, ac, 4, default_dpm_start(6, 2))

        a, b = once(), once()
        assert np.array_equal(a.lambda1, b.lambda1)
        assert np.array_equal(a.v_hist, b.v_hist)

    def test_node_state_contents(self):
        y = random_samples(4, 5, 20)
        res = run_dla(y, IDEAL, 3)
        st = res.node_state(2)
        assert st.node == 2
        assert np.array_equal(st.samples, y[2])
        assert st.beta_hist[0] == 0.0
        assert len(st.alpha_hist) == 3
        assert len(st.lambda_est) == len(res.eigenvalues[3][2])

    def test_dpm_node_state(self):
        y = random_samples(4, 5, 21)
        res = run_dpm(y, IDEAL, 2)
        st = res.node_state(1)
        assert st.v_cur == res.v_hist[2, 1]
        assert st.lambda_est[0] == res.lambda1[1]


def assert_same_arrays(a, b):
    """Equal to the bit: arrays, lists of arrays and dicts of either."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same_arrays(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same_arrays(x, y)
    else:
        assert np.shape(a) == np.shape(b)
        assert np.array_equal(a, b)


def assert_same_trace(a, b):
    for f in dataclasses.fields(a):
        assert_same_arrays(getattr(a, f.name), getattr(b, f.name))


class TestTrialStack:
    """A stacked run's trial slices equal the lone runs of those trials."""

    K, N, M = 8, 5, 6

    def block(self):
        """Noise-only and signal-present trials mixed in one block."""
        ys = []
        for t in range(5):
            if t % 2:
                ys.append(gen_h0(SignalConfig(k=self.K, n=self.N, sigma2=1.0, seed=t)))
            else:
                sig = SignalConfig(k=self.K, n=self.N, sigma2=1.0, p=1, snr_db=(5.0,), seed=t)
                ys.append(gen_h1(sig)[0])
        return np.stack(ys)

    def engine_factory(self, kind):
        """Trial t's engine; called twice for one t it gives equal fresh engines."""
        graph = random_connected_graph(self.K, 3)
        w = metropolis_weights(graph)
        cheb = spectral_bounds(w)
        if kind == "ideal":
            return lambda t: AcConfig("ideal", 0, weights=w)
        if kind == "chebyshev":
            return lambda t: AcConfig("chebyshev", 4, weights=w, cheb=cheb)
        if kind == "failures":
            return lambda t: AcConfig(
                "chebyshev", 4, weights=w, cheb=cheb, link_failure_prob=0.3, failure_seed=100 + t
            )
        if kind == "injected":
            return lambda t: self.noisy_engine(40 + t)
        raise ValueError(kind)

    @staticmethod
    def noisy_engine(seed):
        """Exact means plus seeded random errors, complex for complex inputs."""
        rng = np.random.default_rng(seed)

        def errors(idx, z0):
            err = 0.01 * rng.standard_normal(z0.shape)
            if np.iscomplexobj(z0):
                err = err + 0.01j * rng.standard_normal(z0.shape)
            return err

        return ErrorInjectingEngine(errors)

    @staticmethod
    def breaking_engine(stop):
        """Zero scalar-consensus outputs: nodes stop[j] break down at iteration j."""

        def errors(idx, z0):
            err = np.zeros_like(z0)
            if z0.ndim == 1:
                err[stop.get(idx // 2 + 1, [])] = -z0.mean() - 1.0
            return err

        return ErrorInjectingEngine(errors)

    def assert_same_dpm(self, part, alone):
        assert_same_arrays(part.lambda1, alone.lambda1)
        assert_same_arrays(part.v_hist, alone.v_hist)
        assert_same_arrays(part.checkpoints, alone.checkpoints)
        assert_same_trace(part.trace, alone.trace)
        assert part.audit == alone.audit
        assert (part.ac_iterations, part.graph) == (alone.ac_iterations, alone.graph)
        assert_same_arrays(part.samples, alone.samples)

    def assert_same_dla(self, part, alone):
        for name in ("alpha_hist", "beta_hist", "v_hist", "w_hist", "w_norms", "sizes", "clamped"):
            assert_same_arrays(getattr(part, name), getattr(alone, name))
        assert_same_arrays(part.ritz_raw, alone.ritz_raw)
        assert_same_arrays(part.eigenvalues, alone.eigenvalues)
        assert_same_trace(part.trace, alone.trace)
        assert part.audit == alone.audit
        assert (part.ac_iterations, part.graph) == (alone.ac_iterations, alone.graph)

    @pytest.mark.parametrize("kind", ["ideal", "chebyshev", "failures", "injected"])
    def test_dpm(self, kind):
        y = self.block()
        trials = len(y)
        make = self.engine_factory(kind)
        v0 = np.stack([default_dpm_start(self.K, seed=t) for t in range(trials)])
        stacked = run_dpm(
            y, [make(t) for t in range(trials)], self.M, v0, checkpoints=(2, 4), trace=True
        )
        assert stacked.lambda1.shape == (trials, self.K)
        assert len(stacked.audit) == trials
        for t in range(trials):
            alone = run_dpm(y[t], make(t), self.M, v0[t], checkpoints=(2, 4), trace=True)
            self.assert_same_dpm(stacked.trial(t), alone)

    @pytest.mark.parametrize("kind", ["ideal", "chebyshev", "failures", "injected"])
    def test_dla(self, kind):
        y = self.block()
        trials = len(y)
        make = self.engine_factory(kind)
        stacked = run_dla(
            y, [make(t) for t in range(trials)], self.M, ritz_iters="all", trace=True
        )
        assert stacked.sizes.shape == (trials, self.K)
        for t in range(trials):
            alone = run_dla(y[t], make(t), self.M, ritz_iters="all", trace=True)
            self.assert_same_dla(stacked.trial(t), alone)

    def test_dla_breakdowns_at_different_sizes(self):
        y = self.block()[:4]
        stops = [{2: [0]}, {3: [1, 2]}, {}, {5: [7], 2: [3]}]
        stacked = run_dla(
            y, [self.breaking_engine(s) for s in stops], self.M, ritz_iters=(2, 3, 6), trace=True
        )
        assert stacked.sizes[:, :4].tolist() == [
            [2, 6, 6, 6], [6, 3, 3, 6], [6, 6, 6, 6], [6, 6, 6, 2]
        ]
        assert stacked.sizes[3, 7] == 5
        for t, stop in enumerate(stops):
            alone = run_dla(
                y[t], self.breaking_engine(stop), self.M, ritz_iters=(2, 3, 6), trace=True
            )
            self.assert_same_dla(stacked.trial(t), alone)

    def test_shared_start_and_engine(self):
        y = self.block()
        ac = self.engine_factory("chebyshev")(0)
        v0 = default_dpm_start(self.K, seed=9)
        stacked = run_dpm(y, ac, self.M, v0, trace=True)
        for t in range(len(y)):
            self.assert_same_dpm(stacked.trial(t), run_dpm(y[t], ac, self.M, v0, trace=True))

    def test_engine_count_must_match(self):
        y = self.block()
        make = self.engine_factory("failures")
        with pytest.raises(ValueError, match="one consensus engine per trial"):
            run_dpm(y, [make(t) for t in range(3)], self.M)
        with pytest.raises(ValueError, match="one consensus engine per trial"):
            run_dla(y, [make(t) for t in range(6)], self.M)

    def test_one_failure_config_serves_the_block(self):
        # every trial of the block shares each call's surviving links, so
        # trial b equals its lone run on a fresh equal config
        y = self.block()
        make = self.engine_factory("failures")
        v0 = np.stack([default_dpm_start(self.K, seed=t) for t in range(len(y))])
        dpm = run_dpm(y, make(0), self.M, v0, checkpoints=(2, 4), trace=True)
        dla = run_dla(y, make(0), self.M, ritz_iters="all", trace=True)
        for t in range(len(y)):
            alone = run_dpm(y[t], make(0), self.M, v0[t], checkpoints=(2, 4), trace=True)
            self.assert_same_dpm(dpm.trial(t), alone)
            alone = run_dla(y[t], make(0), self.M, ritz_iters="all", trace=True)
            self.assert_same_dla(dla.trial(t), alone)

    def test_lanczos_breakdown_in_one_trial(self):
        k = 6
        r = np.stack(
            [random_hermitian_psd(k, 1), 2.5 * np.eye(k) + 0j, random_hermitian_psd(k, 2)]
        )
        v1 = default_dla_start(k)
        stacked = lanczos(r, v1, 5)
        assert [t.size for t in stacked] == [5, 1, 5]
        assert [t.invariant_subspace for t in stacked] == [False, True, False]
        for t in range(len(r)):
            alone = lanczos(r[t], v1, 5)
            assert_same_arrays(stacked[t].alpha, alone.alpha)
            assert_same_arrays(stacked[t].beta, alone.beta)
            assert stacked[t].invariant_subspace == alone.invariant_subspace

    def test_power_method_overflow_in_one_trial(self):
        k = 4
        r = np.stack([np.diag([1e60, 1.0, 1.0, 0.5]) + 0j, random_hermitian_psd(k, 3)])
        rng = np.random.default_rng(8)
        v0 = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
        stacked = power_method(r, v0, 5, overflow_limit=1e50)
        assert stacked[0].log_scale > 0.0
        assert stacked[1].log_scale == 0.0
        for t in range(len(r)):
            alone = power_method(r[t], v0[t], 5, overflow_limit=1e50)
            assert_same_arrays(stacked[t].vector, alone.vector)
            assert stacked[t].value == alone.value
            assert stacked[t].log_scale == alone.log_scale


class TestTraceOption:
    """``trace=False`` drops the error trace and changes nothing else."""

    helper = TestTrialStack()
    M = TestTrialStack.M
    RUNS = {
        "dpm": lambda y, ac, trace: run_dpm(
            y, ac, TestTraceOption.M, checkpoints=(2, 4), trace=trace
        ),
        "dla": lambda y, ac, trace: run_dla(
            y, ac, TestTraceOption.M, ritz_iters="all", trace=trace
        ),
    }

    def assert_same_untraced(self, off, on):
        assert off.trace is None
        assert on.trace is not None
        for f in dataclasses.fields(on):
            a, b = getattr(off, f.name), getattr(on, f.name)
            if f.name == "trace":
                continue
            if f.name in ("audit", "m_iterations", "ac_iterations", "algorithm"):
                assert a == b
            elif f.name == "graph":
                assert a is b
            elif f.name in ("ritz_stacks", "eigenvalue_stacks"):
                # NaN-padded past each row's values
                assert a.keys() == b.keys()
                for j in a:
                    assert np.array_equal(a[j], b[j], equal_nan=True)
            else:
                assert_same_arrays(a, b)

    def pair(self, run, kind, stacked):
        """Runs of one input with tracing off and on, and each engine's next draw."""
        make = self.helper.engine_factory(kind)
        y = self.helper.block()
        out, draws = [], []
        for trace in (False, True):
            acs = [make(t) for t in range(len(y))]
            if stacked:
                out.append(run(y, acs, trace=trace))
            else:
                out.append(run(y[0], acs[0], trace=trace))
                acs = acs[:1]
            draws.append([ac._failure_rng.random() for ac in acs if kind == "failures"])
        return out, draws

    @pytest.mark.parametrize("stacked", [True, False])
    @pytest.mark.parametrize("kind", ["ideal", "chebyshev", "failures", "injected"])
    @pytest.mark.parametrize("algorithm", ["dpm", "dla"])
    def test_same_result(self, algorithm, kind, stacked):
        (off, on), (draws_off, draws_on) = self.pair(self.RUNS[algorithm], kind, stacked)
        self.assert_same_untraced(off, on)
        assert draws_off == draws_on
        if stacked:
            assert off.trial(1).trace is None
            self.assert_same_untraced(off.trial(1), on.trial(1))

    def test_dla_with_breakdowns(self):
        y = self.helper.block()[:4]
        stops = [{2: [0]}, {3: [1, 2]}, {}, {5: [7], 2: [3]}]
        off, on = (
            run_dla(
                y, [self.helper.breaking_engine(s) for s in stops], self.M,
                ritz_iters=(2, 3, 6), trace=trace,
            )
            for trace in (False, True)
        )
        assert np.any(off.sizes < self.M)
        self.assert_same_untraced(off, on)

    def test_readers_name_the_option(self):
        k, n, m = 5, 4, 3
        y = random_samples(k, n, 40)
        v0 = default_dpm_start(k, 1)
        dpm = run_dpm(y, IDEAL, m, v0)
        dla = run_dla(y, IDEAL, m)
        values, vectors = np.linalg.eigh(sample_covariance(y))
        oracle = EigenSolution(values[::-1], vectors[:, ::-1])
        calls = [
            lambda: make_convergence_trace(dpm, oracle),
            lambda: predict_dpm_vector_error(dpm.trace, sample_covariance(y), v0, m),
            lambda: predict_lambda1_error(dpm.trace, y, dpm.v_hist[m]),
            lambda: predict_dla_w_error(dla.trace, y, dla, 1),
        ]
        for call in calls:
            with pytest.raises(EigennetError, match="trace=True"):
                call()

