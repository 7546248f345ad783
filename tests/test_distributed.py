import dataclasses
from pathlib import Path

import numpy as np
import pytest

from eigennet import distributed, eigencore, experiments, harness
from eigennet.consensus import AcConfig, ErrorInjectingEngine, run_consensus
from eigennet.detection import trace_consensus
from eigennet.distributed import (
    MessageAudit,
    audit_messages,
    check_dpm_convergence_condition,
    default_dla_start,
    default_dpm_start,
    matrix_error_for_drift,
    predict_dpm_vector_error,
    predict_lambda1_error,
    run_dla,
    run_dpm,
)
from eigennet.eigencore import (
    EigenSolution,
    TridiagonalMatrix,
    filter_spurious,
    lanczos,
    power_method,
    sample_covariance,
    tridiagonal_eigenvalues,
)
from eigennet.errors import AuditMismatch, ConsensusError, DegenerateRunError, EigennetError
from eigennet.signals import SignalConfig, gen_h0, gen_h1, samples_with_spectrum
from eigennet.topology import Graph, metropolis_weights

from conftest import (
    ReplayEngine,
    consensus_deviation,
    random_connected_graph,
    random_hermitian_psd,
    random_samples,
)

IDEAL = AcConfig("ideal", 0)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        assert np.max(np.abs(res.ritz_stacks[m] - lam_ref)) <= 1e-10 * lam_ref[0]

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

    def test_vanishing_beta_breaks_down_as_centralized(self):
        # at this scale the guard 1e-12 ||R||_F underflows to zero and so
        # does the first beta: every node's matrix stops at size 1, as the
        # centralized one does
        y = 1e-160 * random_samples(4, 6, 3)
        res = run_dla(y, IDEAL, 3, default_dla_start(4))
        ref = lanczos(sample_covariance(y), default_dla_start(4), 3)
        assert ref.size == 1 and ref.invariant_subspace
        assert np.all(res.sizes == 1)


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

    def test_overflowing_dpm_iterate(self):
        # the unnormalized iterate grows like (1e200)^j and leaves floating point
        y = 1e100 * random_samples(4, 3, 2)
        with pytest.raises(DegenerateRunError, match="eigenvalue stage overflowed"):
            run_dpm(np.stack([y, y / 1e100]), IDEAL, 3)

    def test_non_finite_lanczos_coefficients(self):
        # finite samples whose squared magnitudes overflow
        y = 1e160 * random_samples(4, 3, 3)
        with pytest.raises(DegenerateRunError, match="Lanczos coefficients are not finite"):
            run_dla(y, IDEAL, 3)

    def test_strided_samples(self):
        y = random_samples(4, 6, 6)[:, ::2]
        for run in (run_dpm, run_dla):
            assert_same_arrays(run(y, IDEAL, 2).v_hist, run(y.copy(), IDEAL, 2).v_hist)
        assert_same_arrays(trace_consensus(y, IDEAL), trace_consensus(y.copy(), IDEAL))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_samples_are_rejected(self, value):
        y = random_samples(4, 3, 4)
        y[2, 1] = value
        runs = (
            lambda ys: run_dpm(ys, IDEAL, 2),
            lambda ys: run_dla(ys, IDEAL, 2),
            lambda ys: trace_consensus(ys, IDEAL),
        )
        for run in runs:
            for ys in (y, np.stack([random_samples(4, 3, 5), y])):
                with pytest.raises(ValueError, match="non-finite"):
                    run(ys)


class TestErrorPredictions:
    def test_zero_errors_reduce_to_matrix_powers(self):
        y = random_samples(5, 4, 2)
        r = sample_covariance(y)
        v0 = default_dpm_start(5, 2)
        res = run_dpm(y, IDEAL, 3, v0, trace=True)
        pred = predict_dpm_vector_error(res, r)
        want = np.linalg.matrix_power(r, 3) @ v0
        assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))
        lam = predict_lambda1_error(res, y)
        assert np.max(np.abs(res.trace.numerator_error)) < 1e-12
        assert np.max(np.abs(res.trace.denominator_error)) < 1e-12
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
        pred = predict_dpm_vector_error(res, r)
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
            lam = predict_lambda1_error(res, y)
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
            w_prev = np.linalg.norm(res.w_hist[j - 2]) if j >= 2 else 0.0
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
    def per_node_reference(alpha, beta, sizes, k, n, tol_rel):
        """Ritz lists built row by row from the one-matrix routines.

        Row r of the (rows, M) ``alpha`` and ``beta`` holds one node's
        coefficient history and ``sizes[r]`` the size at which its matrix
        stopped growing.
        """
        raw, filtered = {}, {}
        m = alpha.shape[1]
        nodes = range(len(sizes))
        for j in range(1, m + 1):
            raw[j] = []
            for node in nodes:
                s = min(int(sizes[node]), j)
                t = TridiagonalMatrix(alpha[node, :s], beta[node, : s - 1])
                raw[j].append(tridiagonal_eigenvalues(t))
        for j in range(1, m + 1):
            filtered[j] = []
            for node in nodes:
                cur = raw[j][node]
                tol = tol_rel * max(float(np.max(np.abs(cur))), 1e-12)
                prev = raw[j - 1][node] if j > min(k, n + 1) else None
                filtered[j].append(filter_spurious(cur, prev, tol))
        return raw, filtered

    @pytest.mark.parametrize("case", ["ideal", "staggered"])
    def test_lists_match_per_node_reference(self, case):
        k, n, m = 8, 3, 7
        y = random_samples(k, n, 24)
        ac = IDEAL if case == "ideal" else self.staggered_breakdowns()
        if case == "ideal":
            y = y[:, :2]  # rank 2 < M: every node breaks down early
            n = 2
        res = run_dla(y, ac, m, ritz_iters=range(1, m + 1))
        if case == "ideal":
            assert np.all(res.sizes < m)
        else:
            assert res.sizes.tolist() == [2, 2, 4] + [m] * (k - 3)
        raw, filtered = self.per_node_reference(
            res.alpha_hist.T, res.beta_hist.T, res.sizes, k, n, 1e-3
        )
        assert res.ritz_stacks.keys() == raw.keys()
        assert res.eigenvalue_stacks.keys() == filtered.keys()
        for j in raw:
            assert res.ritz_stacks[j].shape == res.eigenvalue_stacks[j].shape == (k, j)
            for node in range(k):
                # each row holds its values first, NaN-padded
                for stack, want in ((res.ritz_stacks, raw), (res.eigenvalue_stacks, filtered)):
                    row = stack[j][node]
                    assert np.array_equal(row[: len(want[j][node])], want[j][node])
                    assert np.all(np.isnan(row[len(want[j][node]) :]))

    def test_rank_test_starts_past_the_krylov_bound(self):
        # at N = 1 the bound is min(K, N + 1) = 2: the iteration-2 lists are
        # filtered without the iteration-1 ones, and keep the exact lambda_1
        k, n = 6, 1
        y = random_samples(k, n, 26)
        lam1 = np.linalg.eigvalsh(sample_covariance(y))[-1]
        res = run_dla(y, IDEAL, 3, ritz_iters=(2, 3))
        assert sorted(res.ritz_stacks) == [2, 3]
        for j in (2, 3):
            assert np.allclose(res.eigenvalue_stacks[j][:, 0], lam1, rtol=1e-12, atol=0.0)

    @staticmethod
    def decoupled_lists(alpha, k, n, wanted):
        """Filtered Ritz lists of one matrix with diagonal ``alpha`` and zero
        off-diagonal: iteration j's values are alpha[:j], so alpha[j - 1] is
        new at iteration j."""
        m = len(alpha)
        row = np.array([alpha], dtype=float)
        _, filtered = distributed._extract_ritz(
            row, np.zeros((1, m)), np.array([m]), wanted, k, n
        )
        return {j: values[0][~np.isnan(values[0])].tolist() for j, values in filtered.items()}

    @pytest.mark.parametrize(
        "k, n, bound",
        [(6, 1, 2), (4, 3, 4), (4, 4, 4), (4, 9, 4)],
        ids=["N=1", "N=K-1", "N=K", "N>K"],
    )
    def test_rank_criterion_starts_past_the_krylov_bound(self, k, n, bound):
        # K_j(R, v1) has dimension at most min(K, N + 1): up to there every
        # Ritz value is genuine, so a value new at that iteration is kept,
        # and one new at the next iteration is dropped
        assert bound == min(k, n + 1)
        alpha = [9.0, 5.0, 2.0, 1.0, 0.7][: bound - 1] + [0.5, 0.3]
        lists = self.decoupled_lists(alpha, k, n, (bound, bound + 1))
        assert lists[bound] == alpha[:bound]
        assert lists[bound + 1] == lists[bound]

    def test_rank_criterion_inactive_at_limit(self):
        # below the bound min(K, N + 1) = 4 a new value is kept
        lists = self.decoupled_lists([9.0, 5.0, 0.7], 4, 4, (3,))
        assert lists[3] == [9.0, 5.0, 0.7]

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
        assert sorted(res.ritz_stacks) == needed
        # a node whose matrix equals its predecessor's is solved through it:
        # nodes 0 and 1 stop together, and nodes 3..7 keep the exact mean
        distinct = [
            node
            for node in range(k)
            if node == 0
            or not (
                res.sizes[node] == res.sizes[node - 1]
                and np.array_equal(res.alpha_hist[:, node], res.alpha_hist[:, node - 1])
                and np.array_equal(res.beta_hist[:, node], res.beta_hist[:, node - 1])
            )
        ]
        assert distinct == [0, 2, 3]
        sizes = res.sizes[distinct]
        expected = [
            (int(np.sum(np.minimum(sizes, j) == s)), int(s))
            for j in needed
            for s in np.unique(np.minimum(sizes, j))
        ]
        assert calls["tridiag"] == expected
        assert calls["batch"] == len(wanted)
        assert calls["single"] == 0

    def test_ideal_block_solves_one_matrix_per_trial(self, monkeypatch):
        b, k, n, m = 3, 8, 10, 5
        shapes = []
        solve = distributed.tridiagonal_eigenvalues_batch

        def counted_solve(alpha, beta):
            shapes.append(alpha.shape)
            return solve(alpha, beta)

        monkeypatch.setattr(distributed, "tridiagonal_eigenvalues_batch", counted_solve)
        y = np.stack([random_samples(k, n, 30 + t) for t in range(b)])
        res = run_dla(y, IDEAL, m, ritz_iters=(2, 5))
        assert [s for _, s in shapes] == [2, 5]
        assert all(rows <= b for rows, _ in shapes)
        # every node of a trial gets its trial's values
        for stacks in (res.ritz_stacks, res.eigenvalue_stacks):
            for stack in stacks.values():
                assert np.array_equal(stack, np.repeat(stack[:, :1], k, axis=1))

    def test_mixed_stack_matches_per_node_reference(self):
        k, n, m = 8, 3, 7
        agree = run_dla(random_samples(k, n, 27), IDEAL, m)
        staggered = run_dla(random_samples(k, n, 28), self.staggered_breakdowns(), m)
        assert staggered.sizes.tolist() == [2, 2, 4] + [m] * (k - 3)
        rows = []

        def add(res, node, d_alpha=0.0, d_beta=0.0, size=None):
            rows.append((
                res.alpha_hist[:, node] + d_alpha,
                res.beta_hist[:, node] + d_beta,
                res.sizes[node] if size is None else size,
            ))

        for node in range(k):
            add(agree, node)
        # rows that differ from their predecessor in one read entry only
        first = np.arange(m) == 0
        add(agree, 0, d_alpha=first)
        add(agree, 0, d_alpha=first, d_beta=0.5 * first)
        for node in range(k):
            add(staggered, node)
        # a row equal to the first trial's rows, but not adjacent to them
        add(agree, 0)
        # a row that differs from the next one in its size only, then two
        # size-2 rows that differ only past their size
        add(staggered, 0, size=3)
        add(staggered, 0)
        add(staggered, 0, d_alpha=np.arange(m) >= 2, d_beta=np.arange(m) >= 1)
        alpha, beta, sizes = (np.array(column) for column in zip(*rows))
        assert not np.array_equal(alpha[-1], alpha[-2])
        raw, filtered = distributed._extract_ritz(
            alpha, beta, sizes, range(1, m + 1), k, n
        )
        ref_raw, ref_filtered = self.per_node_reference(alpha, beta, sizes, k, n, 1e-3)
        assert raw.keys() == ref_raw.keys()
        assert filtered.keys() == ref_filtered.keys()
        for j in ref_raw:
            for row in range(len(sizes)):
                got_raw, got_kept = raw[j][row], filtered[j][row]
                assert np.array_equal(got_raw[~np.isnan(got_raw)], ref_raw[j][row])
                assert np.array_equal(got_kept[~np.isnan(got_kept)], ref_filtered[j][row])

    @pytest.mark.parametrize(
        "experiment, trials, rows", [("eig-converge", 8, 4536), ("roc", 200, 1600)]
    )
    def test_shipped_runs_solve_each_distinct_row_once(
        self, experiment, trials, rows, monkeypatch
    ):
        # eig-converge's ideal-consensus Lanczos hands every node of a trial
        # the same matrix (6720 rows when solved per node); roc solves its
        # 2 x 200 trials at M = 5 and 10 once for the centralized Lanczos and
        # once at the report node (32800 rows when every node was solved)
        counted = []
        solve = distributed.tridiagonal_eigenvalues_batch

        def counted_solve(alpha, beta):
            counted.append(len(alpha))
            return solve(alpha, beta)

        monkeypatch.setattr(distributed, "tridiagonal_eigenvalues_batch", counted_solve)
        text = (CONFIGS / f"{experiment.replace('-', '_')}.cfg").read_text()
        cfg = dataclasses.replace(harness.validate_config(text, experiment), trials=trials)
        harness.run(cfg)
        assert sum(counted) == rows

    @pytest.mark.parametrize("node", [3, 39])
    def test_roc_report_node_extraction_matches_all_nodes(self, node, monkeypatch):
        # roc extracts the DLA's Ritz values at the report node only; under
        # finite-I Chebyshev consensus every node's rows differ, so a slice on
        # the wrong axis of the (trials, M, K) histories cannot pass
        text = (CONFIGS / "roc.cfg").read_text()
        cfg = dataclasses.replace(
            harness.validate_config(text, "roc"), trials=20, alphas=(0.5,), report_node=node
        )
        assert cfg.engine == "chebyshev" and cfg.m_max == 10
        dla_calls, extractions = [], []
        run = experiments.run_dla
        extract = experiments._extract_ritz

        def recorded_run(*args, **kwargs):
            dla_calls.append(args)
            return run(*args, **kwargs)

        def recorded_extract(*args):
            extractions.append(extract(*args))
            return extractions[-1]

        monkeypatch.setattr(experiments, "run_dla", recorded_run)
        monkeypatch.setattr(experiments, "_extract_ritz", recorded_extract)
        experiments.run_roc(cfg)
        # one block per hypothesis, and one extraction for the whole run:
        # the 2 x 20 centralized Lanczos rows first, then the report node's
        # DLA rows, block by block
        assert len(dla_calls) == 2 and len(extractions) == 1
        _, got = extractions[0]
        start = 2 * cfg.trials
        for args in dla_calls:
            ref = run(*args, ritz_iters=cfg.m)
            assert sorted(got) == sorted(ref.eigenvalue_stacks)
            rows = slice(start, start + len(args[0]))
            for m, stack in ref.eigenvalue_stacks.items():
                assert stack.shape == (20, cfg.k, m)
                assert not np.array_equal(stack[:, node], stack[:, 0], equal_nan=True)
                assert np.array_equal(got[m][rows], stack[:, node], equal_nan=True)
            start = rows.stop
        assert start == len(got[cfg.m_max])

    def test_roc_scores_every_trial_at_once(self, monkeypatch):
        # the shipped roc config extracts Ritz values once and computes each
        # (detector, pipeline) statistic once, over all 2 x 200 trials: 18
        # pairs, where one call per 32-trial block made 28 and 252 calls
        text = (CONFIGS / "roc.cfg").read_text()
        cfg = dataclasses.replace(harness.validate_config(text, "roc"), trials=200)
        calls = {"extract": [], "statistic": []}
        extract = experiments._extract_ritz
        statistic = experiments.compute_statistic

        def counted_extract(alpha, *args):
            calls["extract"].append(len(alpha))
            return extract(alpha, *args)

        def counted_statistic(kind, rows, *args, **kwargs):
            calls["statistic"].append(len(rows))
            return statistic(kind, rows, *args, **kwargs)

        monkeypatch.setattr(experiments, "_extract_ritz", counted_extract)
        monkeypatch.setattr(experiments, "compute_statistic", counted_statistic)
        experiments.run_roc(cfg)
        assert calls == {"extract": [800], "statistic": [400] * 18}

    def test_nothing_wanted_solves_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            distributed,
            "tridiagonal_eigenvalues_batch",
            lambda alpha, beta: calls.append(alpha.shape),
        )
        y = np.stack([random_samples(6, 4, 40 + t) for t in range(3)])
        res = run_dla(y, IDEAL, 4, ritz_iters=())
        assert res.ritz_stacks == {} and res.eigenvalue_stacks == {}
        assert calls == []
        with pytest.raises(DegenerateRunError, match="Lanczos coefficients are not finite"):
            run_dla(1e160 * y, IDEAL, 3, ritz_iters=())
        assert calls == []


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
        verdict = check_dpm_convergence_condition(res, oracle)
        assert verdict.condition_satisfied
        # classical decay bound with the start's eigen-expansion constant
        a = vectors.conj().T @ v0
        c = np.linalg.norm(a[1:]) / abs(a[0])
        assert verdict.sin_theta[m] == verdict.sin_theta_final
        assert verdict.sin_theta[m] <= c * (values[1] / values[0]) ** m * (1 + 1e-9)

    def test_precondition_requires_large_top_eigenvalue(self):
        lam = np.array([0.9, 0.5, 0.1])
        y, (values, vectors) = samples_with_spectrum(lam, seed=6)
        oracle = EigenSolution(values, vectors)
        res = run_dpm(y, IDEAL, 3, vectors[:, 0], trace=True)
        with pytest.raises(ValueError, match="must exceed 1"):
            check_dpm_convergence_condition(res, oracle)

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
        audit = audit_messages(res, ac, 10)
        assert audit.ac_n_calls == 6
        assert audit.ac_1_calls == 1
        assert audit.time_periods == 7
        assert audit.units_per_node[0] == 5490  # node 0 has degree 3
        # Lanczos counterpart: 30*(50+5)*3 = 4950
        res_l = run_dla(y, ac, 5, default_dla_start(5))
        audit_l = audit_messages(res_l, ac, 10)
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
        ac = AcConfig("standard", 2, weights=w)
        res = run_dpm(random_samples(3, 4, 17), ac, 3, checkpoints=(1,))
        with pytest.raises(AuditMismatch):
            audit_messages(res, ac, 4)

    def test_stacked_run_is_audited_per_trial(self):
        g = Graph(3, ((0, 1), (1, 2)))
        ac = AcConfig("standard", 2, weights=metropolis_weights(g))
        y = np.stack([random_samples(3, 4, 20 + t) for t in range(2)])
        for res in (run_dpm(y, ac, 2), run_dla(y, ac, 2)):
            # the formulas count one trial's units per node
            with pytest.raises(ValueError, match="one trial"):
                audit_messages(res, ac, 4)
            for t in range(2):
                assert audit_messages(res.trial(t), ac, 4) == res.audit.trial(t)

    def test_synthetic_engine_not_auditable(self):
        y = random_samples(3, 4, 18)
        for ac in (IDEAL, ErrorInjectingEngine(lambda idx, z0: np.zeros_like(z0))):
            res = run_dpm(y, ac, 2)
            with pytest.raises(ValueError, match="weighted consensus config"):
                audit_messages(res, ac, 4)


class TestDeterminismAndState:
    def test_repeat_runs_bit_identical(self):
        g = random_connected_graph(6, 1)
        w = metropolis_weights(g)
        y = random_samples(6, 5, 19)

        def once():
            ac = AcConfig(
                "chebyshev", 8, weights=w,
                link_failure_prob=0.2, failure_seed=5,
            )
            return run_dpm(y, ac, 4, default_dpm_start(6, 2))

        a, b = once(), once()
        assert np.array_equal(a.lambda1, b.lambda1)
        assert np.array_equal(a.v_hist, b.v_hist)


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


def assert_same_stacks(a, b):
    """Equal to the bit: dicts of Ritz stacks, NaN-padded past each row's values."""
    assert a.keys() == b.keys()
    for j in a:
        assert np.array_equal(a[j], b[j], equal_nan=True)


def assert_same_trace(a, b):
    for f in dataclasses.fields(a):
        assert_same_arrays(getattr(a, f.name), getattr(b, f.name))


class TestTrialStack:
    """A stacked run's trial slices equal the lone runs of those trials."""

    K, N, M = 8, 5, 6
    EVERY_M = range(1, M + 1)  # Ritz values at every iteration

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
        """The engine of the trials listed, the whole block or one trial alone.

        Called twice for the same trials it gives equal fresh engines; the
        engine of trials ``ts`` runs trial ``ts[b]`` as the engine of that
        trial alone does.
        """
        graph = random_connected_graph(self.K, 3)
        w = metropolis_weights(graph)
        if kind == "ideal":
            return lambda ts: AcConfig("ideal", 0, weights=w)
        if kind == "ideal-unweighted":
            return lambda ts: AcConfig("ideal", 0)
        if kind == "standard":
            return lambda ts: AcConfig("standard", 7, weights=w)
        if kind == "standard-0":
            return lambda ts: AcConfig("standard", 0, weights=w)
        if kind == "standard+failures":
            return lambda ts: AcConfig(
                "standard", 5, weights=w, link_failure_prob=0.3,
                failure_seed=[100 + t for t in ts],
            )
        if kind == "chebyshev":
            return lambda ts: AcConfig("chebyshev", 4, weights=w)
        if kind == "failures":
            return lambda ts: AcConfig(
                "chebyshev", 4, weights=w, link_failure_prob=0.3,
                failure_seed=[100 + t for t in ts],
            )
        if kind == "injected":
            return lambda ts: self.noisy_engine([40 + t for t in ts])
        raise ValueError(kind)

    @staticmethod
    def noisy_engine(seeds):
        """Exact means plus seeded random errors, complex for complex inputs.

        One generator per trial: a lone input draws from the one generator,
        a stack draws each trial's errors from its own.
        """
        rngs = [np.random.default_rng(s) for s in seeds]

        def draw(rng, shape, complex_input):
            err = 0.01 * rng.standard_normal(shape)
            if complex_input:
                err = err + 0.01j * rng.standard_normal(shape)
            return err

        def errors(idx, z0):
            if len(rngs) == 1:
                return draw(rngs[0], z0.shape, np.iscomplexobj(z0))
            return np.stack([draw(r, z0.shape[1:], np.iscomplexobj(z0)) for r in rngs])

        return ErrorInjectingEngine(errors)

    @staticmethod
    def breaking_engine(stops):
        """Zero scalar-consensus outputs: in trial b, nodes stops[b][j] break
        down at iteration j. A lone trial's scalar round is (K,), a stack's
        (B, K, 1)."""

        def errors(idx, z0):
            err = np.zeros_like(z0)
            if z0.ndim == 1:
                err[stops[0].get(idx // 2 + 1, [])] = -z0.mean() - 1.0
            elif z0.shape[-1] == 1:
                for b, stop in enumerate(stops):
                    err[b, stop.get(idx // 2 + 1, []), 0] = -z0[b, :, 0].mean() - 1.0
            return err

        return ErrorInjectingEngine(errors)

    def assert_same_dpm(self, part, alone):
        assert_same_arrays(part.lambda1, alone.lambda1)
        assert_same_arrays(part.v_hist, alone.v_hist)
        assert_same_arrays(part.checkpoints, alone.checkpoints)
        assert_same_trace(part.trace, alone.trace)
        assert part.audit == alone.audit

    def assert_same_dla(self, part, alone):
        for name in ("alpha_hist", "beta_hist", "v_hist", "w_hist", "sizes", "clamped"):
            assert_same_arrays(getattr(part, name), getattr(alone, name))
        assert_same_stacks(part.ritz_stacks, alone.ritz_stacks)
        assert_same_stacks(part.eigenvalue_stacks, alone.eigenvalue_stacks)
        assert_same_trace(part.trace, alone.trace)
        assert part.audit == alone.audit

    @pytest.mark.parametrize("kind", ["ideal", "chebyshev", "failures", "injected"])
    def test_dpm(self, kind):
        y = self.block()
        trials = len(y)
        make = self.engine_factory(kind)
        v0 = np.stack([default_dpm_start(self.K, seed=t) for t in range(trials)])
        stacked = run_dpm(
            y, make(range(trials)), self.M, v0, checkpoints=(2, 4), trace=True
        )
        assert stacked.lambda1.shape == (trials, self.K)
        assert stacked.audit.units.shape == (trials, self.K)
        for t in range(trials):
            alone = run_dpm(y[t], make([t]), self.M, v0[t], checkpoints=(2, 4), trace=True)
            self.assert_same_dpm(stacked.trial(t), alone)

    @pytest.mark.parametrize("kind", ["ideal", "chebyshev", "failures", "injected"])
    def test_dla(self, kind):
        y = self.block()
        trials = len(y)
        make = self.engine_factory(kind)
        stacked = run_dla(y, make(range(trials)), self.M, ritz_iters=self.EVERY_M, trace=True)
        assert stacked.sizes.shape == (trials, self.K)
        for t in range(trials):
            alone = run_dla(y[t], make([t]), self.M, ritz_iters=self.EVERY_M, trace=True)
            self.assert_same_dla(stacked.trial(t), alone)

    def test_dla_breakdowns_at_different_sizes(self):
        y = self.block()[:4]
        stops = [{2: [0]}, {3: [1, 2]}, {}, {5: [7], 2: [3]}]
        stacked = run_dla(
            y, self.breaking_engine(stops), self.M, ritz_iters=(2, 3, 6), trace=True
        )
        assert stacked.sizes[:, :4].tolist() == [
            [2, 6, 6, 6], [6, 3, 3, 6], [6, 6, 6, 6], [6, 6, 6, 2]
        ]
        assert stacked.sizes[3, 7] == 5
        for t, stop in enumerate(stops):
            alone = run_dla(
                y[t], self.breaking_engine([stop]), self.M, ritz_iters=(2, 3, 6), trace=True
            )
            self.assert_same_dla(stacked.trial(t), alone)

    def test_shared_start_and_engine(self):
        y = self.block()
        ac = self.engine_factory("chebyshev")([0])
        v0 = default_dpm_start(self.K, seed=9)
        stacked = run_dpm(y, ac, self.M, v0, trace=True)
        for t in range(len(y)):
            self.assert_same_dpm(stacked.trial(t), run_dpm(y[t], ac, self.M, v0, trace=True))

    def test_failure_generator_count_must_match(self):
        y = self.block()
        make = self.engine_factory("failures")
        # one generator per trial of the block: one for the block is too few
        for seeds, count in ((range(3), 3), (range(6), 6), ([0], 1)):
            match = f"need one failure generator each, not {count}"
            with pytest.raises(ConsensusError, match=match):
                run_dpm(y, make(seeds), self.M)
            with pytest.raises(ConsensusError, match=match):
                run_dla(y, make(seeds), self.M)

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
        stacked = power_method(r, v0, 5)
        assert stacked[0].log_scale > 0.0
        assert stacked[1].log_scale == 0.0
        for t in range(len(r)):
            alone = power_method(r[t], v0[t], 5)
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
            y, ac, TestTraceOption.M, ritz_iters=TestTrialStack.EVERY_M, trace=trace
        ),
    }

    def assert_same_untraced(self, off, on):
        assert off.trace is None
        assert on.trace is not None
        for f in dataclasses.fields(on):
            a, b = getattr(off, f.name), getattr(on, f.name)
            if f.name == "trace":
                continue
            if f.name in ("audit", "m_iterations"):
                assert a == b
            elif f.name in ("ritz_stacks", "eigenvalue_stacks"):
                assert_same_stacks(a, b)
            else:
                assert_same_arrays(a, b)

    def pair(self, run, kind, stacked):
        """Runs of one input with tracing off and on, and each engine's next draw."""
        make = self.helper.engine_factory(kind)
        y = self.helper.block()
        out, draws = [], []
        for trace in (False, True):
            ac = make(range(len(y)) if stacked else [0])
            out.append(run(y if stacked else y[0], ac, trace=trace))
            draws.append([rng.random() for rng in getattr(ac, "_failure_rngs", [])])
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
                y, self.helper.breaking_engine(stops), self.M,
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
        values, vectors = np.linalg.eigh(sample_covariance(y))
        oracle = EigenSolution(values[::-1], vectors[:, ::-1])
        calls = [
            lambda: check_dpm_convergence_condition(dpm, oracle),
            lambda: predict_dpm_vector_error(dpm, sample_covariance(y)),
            lambda: predict_lambda1_error(dpm, y),
        ]
        for call in calls:
            with pytest.raises(EigennetError, match="trace=True"):
                call()


class TestUntracedRunsSkipErrors:
    """An untraced run never computes a consensus error."""

    helper = TestTrialStack()

    @pytest.fixture
    def unreadable_errors(self, monkeypatch):
        def refuse(z0, z):
            raise AssertionError("consensus error read")

        monkeypatch.setattr(distributed, "_consensus_error", refuse)

    @pytest.mark.parametrize("kind", ["ideal", "chebyshev", "failures"])
    def test_untraced_runs_never_read_the_error(self, kind, unreadable_errors):
        make = self.helper.engine_factory(kind)
        y = self.helper.block()[:3]
        for run in TestTraceOption.RUNS.values():
            ac = make(range(len(y)))
            assert run(y, ac, False).trace is None
            # the patch is in force: a traced run reads the errors
            ac = make(range(len(y)))
            with pytest.raises(AssertionError, match="consensus error read"):
                run(y, ac, True)


class TestAuditOnRead:
    """An audit works out its per-node units and time periods on read, equal
    to the ones counted as the rounds ran."""

    helper = TestTrialStack()

    @pytest.mark.parametrize("algorithm", ["dpm", "dla"])
    def test_equals_eager_audit_field_by_field(self, algorithm):
        y = self.helper.block()[:3]
        ac = self.helper.engine_factory("failures")(range(3))
        counted = {"n": 0, "1": 0, "units": np.zeros((3, self.helper.K), dtype=np.int64)}

        class Counting:
            """The block's engine, counting its rounds and units as they run."""

            iterations, graph = ac.iterations, ac.graph

            def run(self, z0):
                res = ac.run(z0)
                counted["1" if z0.shape[-1] == 1 else "n"] += 1
                counted["units"] += res.scalars_exchanged_per_node
                return res

        res = TestTraceOption.RUNS[algorithm](y, Counting(), False)
        eager = [
            {
                "ac_n_calls": counted["n"],
                "ac_1_calls": counted["1"],
                "units_per_node": {k: int(u) for k, u in enumerate(row)},
                "time_periods": counted["n"] + counted["1"],
            }
            for row in counted["units"].tolist()
        ]
        assert isinstance(res.audit, MessageAudit)
        # a stacked audit maps each node to its per-trial units
        assert res.audit.units_per_node == {
            k: [want["units_per_node"][k] for want in eager] for k in range(self.helper.K)
        }
        for t, want in enumerate(eager):
            for got in (res.audit.trial(t), res.trial(t).audit):
                for name, value in want.items():
                    assert getattr(got, name) == value
                assert all(type(u) is int for u in got.units_per_node.values())
                assert type(got.time_periods) is int


class TestTracedErrors:
    """A traced run records each round's output minus the exact mean of its
    input, as the engine took and returned them."""

    helper = TestTrialStack()
    M = TestTrialStack.M
    KINDS = [
        "ideal", "ideal-unweighted", "standard", "standard-0",
        "standard+failures", "chebyshev", "failures", "injected",
    ]

    def recorded(self, run, kind, stacked):
        """A traced run of ``run`` and each round's deviation, in round order.

        The engine of the run is wrapped to record its (z0, z) pairs; a
        stacked scalar round reaches the engine as a (B, K, 1) stack.
        """
        make = self.helper.engine_factory(kind)
        y = self.helper.block()
        ac = make(range(len(y)) if stacked else [0])
        rounds = []

        class Recording:
            def run(self, z0):
                res = ac.run(z0)
                rounds.append((z0, res.z))
                return res

        res = run(y if stacked else y[0], Recording(), self.M, trace=True)
        deviations = []
        for z0, z in rounds:
            e = consensus_deviation(z0, z)
            deviations.append(e[:, :, 0] if stacked and z0.shape[-1] == 1 else e)
        return res.trace, deviations

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_dpm(self, kind, stacked):
        tr, want = self.recorded(run_dpm, kind, stacked)
        assert len(want) == self.M + 2
        assert_same_arrays(tr.iteration_errors, want[: self.M])
        assert_same_arrays(tr.final_matrix_error, want[self.M])
        assert_same_arrays(tr.final_scalar_error, np.real(want[self.M + 1]))

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_dla(self, kind, stacked):
        tr, want = self.recorded(run_dla, kind, stacked)
        assert len(want) == 2 * self.M
        assert_same_arrays(tr.iteration_matrix_errors, want[0::2])
        # row j is the scalar error behind iteration j + 1's coefficient
        scalar = np.real(np.stack(want[1::2], axis=-2))
        assert_same_arrays(tr.normalization_errors[..., 1:, :], scalar[..., :-1, :])
        assert not np.any(tr.normalization_errors[..., 0, :])


class TestStackedTraceReaders:
    """The readers of one trial's DPM trace name ``trial(b)`` for a stack."""

    K, N, M = 4, 3, 3

    def stacked_run(self):
        y = np.stack([random_samples(self.K, self.N, 60 + t) for t in range(2)])
        return y, run_dpm(y, IDEAL, self.M, trace=True)

    def test_convergence_condition(self):
        y, res = self.stacked_run()
        values, vectors = np.linalg.eigh(sample_covariance(y[0]))
        oracle = EigenSolution(values[::-1], vectors[:, ::-1])
        with pytest.raises(ValueError, match=r"trial\(b\)"):
            check_dpm_convergence_condition(res, oracle)
        check_dpm_convergence_condition(res.trial(0), oracle)

    def test_vector_prediction(self):
        y, res = self.stacked_run()
        r = sample_covariance(y[0])
        with pytest.raises(ValueError, match=r"trial\(b\)"):
            predict_dpm_vector_error(res, r)
        predict_dpm_vector_error(res.trial(0), r)

    def test_lambda1_prediction(self):
        y, res = self.stacked_run()
        with pytest.raises(ValueError, match=r"trial\(b\)"):
            predict_lambda1_error(res, y[0])
        predict_lambda1_error(res.trial(0), y[0])
