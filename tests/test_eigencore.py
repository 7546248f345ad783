import warnings

import numpy as np
import pytest

from eigennet.eigencore import (
    TridiagonalMatrix,
    _lanczos_stack,
    covariance_eigenvalues,
    cullum_willoughby_spurious,
    filter_spurious,
    lanczos,
    power_method,
    sample_covariance,
    tridiagonal_eigenvalues,
    tridiagonal_eigenvalues_batch,
)
from eigennet.errors import DegenerateRunError

from conftest import dense_hermitian_eig, random_hermitian_psd, random_samples


class TestSampleCovariance:
    def test_identity_samples(self):
        r = sample_covariance(np.eye(3))
        assert np.allclose(r, np.eye(3) / 3, atol=1e-15)

    def test_all_ones(self):
        r = sample_covariance(np.ones((2, 2)))
        assert np.allclose(r, np.ones((2, 2)), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_identity(self, seed):
        y = random_samples(6, 9, seed)
        r = sample_covariance(y)
        expected = np.sum(np.abs(y) ** 2) / 9
        assert np.trace(r).real == pytest.approx(expected, rel=1e-10)
        # Hermitian and PSD
        assert np.linalg.norm(r - r.conj().T) <= 1e-12 * np.linalg.norm(r)
        assert np.min(np.linalg.eigvalsh(r)) > -1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sample_covariance(np.array([[np.nan, 1.0]]))

    def test_strided_samples(self):
        # a complex view whose last axis is strided has no float view
        y = random_samples(5, 8, 4)[:, ::2]
        assert np.array_equal(sample_covariance(y), sample_covariance(y.copy()))
        assert np.array_equal(covariance_eigenvalues(y), covariance_eigenvalues(y.copy()))

    def test_overflowing_product_is_a_typed_error(self):
        # finite samples whose squared magnitudes leave floating point, with
        # N < K (the Gram path of the spectrum), N > K and a stack
        y = 1e160 * random_samples(4, 3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for samples in (y, y.T.copy(), np.stack([y / 1e160, y])):
                for f in (sample_covariance, covariance_eigenvalues):
                    with pytest.raises(DegenerateRunError, match="covariance overflowed"):
                        f(samples)


class TestCovarianceEigenvalues:
    K = 7

    def samples(self, n, trials, seed, dtype=complex):
        rng = np.random.default_rng(seed)
        shape = (self.K, n) if trials is None else (trials, self.K, n)
        y = rng.standard_normal(shape)
        if dtype is complex:
            y = y + 1j * rng.standard_normal(shape)
        return y

    @pytest.mark.parametrize("dtype", [complex, float])
    @pytest.mark.parametrize("trials", [None, 1, 5])
    @pytest.mark.parametrize("n", [1, K - 1, K, K + 4])
    def test_matches_the_covariance_spectrum(self, n, trials, dtype):
        y = self.samples(n, trials, seed=n, dtype=dtype)
        got = covariance_eigenvalues(y)
        want = np.linalg.eigvalsh(sample_covariance(y))[..., ::-1]
        assert got.shape == want.shape == y.shape[:-1]
        assert got.dtype == np.float64
        lam1 = want[..., :1]
        assert np.all(np.abs(got - want) <= 1e-13 * lam1)
        # descending
        assert np.all(np.diff(got, axis=-1) <= 0)

    @pytest.mark.parametrize("trials", [None, 5])
    @pytest.mark.parametrize("n", [1, 3, K - 1])
    def test_pads_with_exact_zeros_past_the_rank(self, n, trials):
        got = covariance_eigenvalues(self.samples(n, trials, seed=10 + n))
        assert np.all(got[..., n:] == 0.0)
        assert np.all(got[..., :n] > 0.0)

    @pytest.mark.parametrize("n", [1, K - 1, K, K + 4])
    def test_rejects_non_finite_samples_as_the_covariance_does(self, n):
        for bad in (np.nan, np.inf, 1j * np.inf):
            y = self.samples(n, 3, seed=20)
            y[1, 2, 0] = bad
            for call in (sample_covariance, covariance_eigenvalues):
                with pytest.raises(ValueError, match="non-finite entries"):
                    call(y)

    def test_rejects_what_the_covariance_rejects(self):
        for y in (np.ones(4), np.ones((2, 2, 2, 2))):
            for call in (sample_covariance, covariance_eigenvalues):
                with pytest.raises(ValueError, match="two-dimensional"):
                    call(y)


class TestPowerMethod:
    def test_identity_matrix(self):
        res = power_method(np.eye(4), np.ones(4), 1)
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_diag_closed_form(self):
        # v_M = (2^M, 1)/sqrt(2), Rayleigh quotient (4^M*2+1)/(4^M+1)
        m = 20
        res = power_method(np.diag([2.0, 1.0]), np.array([1.0, 1.0]) / np.sqrt(2), m)
        expected = (4.0**m * 2 + 1) / (4.0**m + 1)
        assert res.value == pytest.approx(expected, abs=1e-12)
        assert abs(res.value - 2.0) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_error_bound_from_eigen_expansion(self, seed):
        r = random_hermitian_psd(5, seed)
        values, vectors = np.linalg.eigh(r)
        values, vectors = values[::-1], vectors[:, ::-1]
        rng = np.random.default_rng(seed + 100)
        v0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        m = 12
        res = power_method(r, v0, m)
        a = vectors.conj().T @ v0
        c = np.sum(np.abs(a[1:]) ** 2 * (values[0] - values[1:])) / (
            values[0] * np.abs(a[0]) ** 2
        )
        bound = values[0] * (values[1] / values[0]) ** (2 * m) * c
        assert abs(res.value - values[0]) <= bound * (1 + 1e-9)

    def test_overflow_guard_tracks_scale(self):
        r = np.diag([1e60, 1.0])
        res = power_method(r, np.array([1.0, 1.0]), 5)
        assert res.log_scale > 0
        assert res.value == pytest.approx(1e60, rel=1e-12)
        # reported vector times the recorded factor reproduces the raw iterate
        raw = res.vector * np.exp(res.log_scale)
        assert raw[0].real == pytest.approx(1e300, rel=1e-9)
        assert raw[1].real == pytest.approx(1.0, rel=1e-9)

    def test_guard_survives_a_squared_norm_overflow(self):
        # the third product has norm 1e180, whose square is inf: the guard must
        # rescale it rather than divide it by inf to zero
        r = np.diag([1e60, 1.0])
        res = power_method(r, np.array([1.0, 1.0]), 5)
        assert res.value == pytest.approx(1e60, rel=1e-12)
        raw = res.vector * np.exp(res.log_scale)
        assert raw[0].real == pytest.approx(1e300, rel=1e-9)
        assert raw[1].real == pytest.approx(1.0, rel=1e-9)

    def test_quotient_overflow_uses_the_unit_iterate(self):
        # iterate norm 1e140 sits under the guard, but v^H R v is 1e380
        r = np.diag([1e100, 1.0])
        res = power_method(r, np.array([1e40, 1.0]), 1)
        assert res.log_scale == 0.0
        assert res.value == pytest.approx(1e100, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_product_is_a_typed_error(self):
        with pytest.raises(DegenerateRunError, match="overflowed at iteration 1"):
            power_method(np.diag([1e300, 1.0]), np.array([1e10, 1.0]), 1)

    def test_chained_run_equals_a_fresh_one(self):
        # a run continued from an earlier run's vectors repeats the fresh
        # run's products and rescalings, so its iterates and quotients match
        # to the bit; only log_scale restarts from zero
        r = np.stack([np.diag([1e60, 1.0, 1.0, 0.5]) + 0j, random_hermitian_psd(4, 3)])
        rng = np.random.default_rng(9)
        v0 = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        fresh = power_method(r, v0, 10)
        first = power_method(r, v0, 4)
        chained = power_method(r, np.stack([p.vector for p in first]), 6)
        assert fresh[0].log_scale > first[0].log_scale > 0.0
        for a, b, c in zip(fresh, first, chained):
            assert np.array_equal(c.vector, a.vector)
            assert c.value == a.value
            assert b.log_scale + c.log_scale == pytest.approx(a.log_scale, rel=1e-12)

    def test_rejects_zero_start(self):
        with pytest.raises(ValueError):
            power_method(np.eye(2), np.zeros(2), 3)

    def test_rejects_no_iterations(self):
        with pytest.raises(ValueError):
            power_method(np.eye(2), np.ones(2), 0)


class TestLanczos:
    def test_scaled_identity_breaks_down(self):
        t = lanczos(2.5 * np.eye(4), np.array([1.0, 0, 0, 0]), 4)
        assert t.invariant_subspace
        assert t.size == 1
        assert t.alpha[0] == pytest.approx(2.5, abs=1e-14)

    def test_two_by_two_hand_values(self):
        t = lanczos(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 0.0]), 2)
        assert np.allclose(t.alpha, [2.0, 2.0], atol=1e-14)
        assert np.allclose(t.beta, [1.0], atol=1e-14)
        assert np.allclose(tridiagonal_eigenvalues(t), [3.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_run_matches_oracle(self, seed):
        k = 7
        r = random_hermitian_psd(k, seed) + 0.5 * np.eye(k)
        rng = np.random.default_rng(seed)
        v1 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v1 /= np.linalg.norm(v1)
        t = lanczos(r, v1, k)
        mine = tridiagonal_eigenvalues(t)
        oracle = dense_hermitian_eig(r).values
        assert np.max(np.abs(mine - oracle[: len(mine)])) <= 1e-6 * oracle[0]

    def test_vanishing_beta_breaks_down(self):
        # ||R||_F^2 underflows, so the guard 1e-12 ||R||_F is zero, and so is
        # the first beta: that is a breakdown, not a division by zero
        r = 1e-170 * (random_hermitian_psd(4, 5) + 0.5 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = lanczos(r, np.array([1.0, 0, 0, 0]), 3)
        assert t.invariant_subspace and t.size == 1
        assert np.all(np.isfinite(t.alpha))

    def test_stack_holds_the_matrices_and_zeros_past_them(self):
        k, m = 6, 5
        r = np.stack(
            [random_hermitian_psd(k, 1), 2.5 * np.eye(k) + 0j, random_hermitian_psd(k, 2)]
        )
        v1 = np.full(k, 1.0 / np.sqrt(k))
        alphas, betas, sizes = _lanczos_stack(r, v1, m)
        assert alphas.shape == betas.shape == (3, m)
        assert sizes.tolist() == [m, 1, m]
        for row, t in enumerate(lanczos(r, v1, m)):
            assert np.array_equal(alphas[row, : t.size], t.alpha)
            assert np.array_equal(betas[row, : t.size - 1], t.beta)
            assert not alphas[row, t.size :].any()
            assert not betas[row, t.size - 1 :].any()

    def test_rejects_non_unit_start(self):
        with pytest.raises(ValueError):
            lanczos(np.eye(3), np.array([1.0, 1.0, 0.0]), 2)

    def test_rejects_too_many_iterations(self):
        with pytest.raises(ValueError):
            lanczos(np.eye(3), np.array([1.0, 0, 0]), 4)


class TestTridiagonalEigenvalues:
    def test_analytic_two_by_two(self):
        t = TridiagonalMatrix(np.array([2.0, 2.0]), np.array([1.0]))
        assert np.allclose(tridiagonal_eigenvalues(t), [3.0, 1.0], atol=1e-10)

    def test_diagonal_matrix(self):
        t = TridiagonalMatrix(np.array([1.0, 5.0, -2.0]), np.zeros(2))
        assert np.allclose(tridiagonal_eigenvalues(t), [5.0, 1.0, -2.0], atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = 12
        t = TridiagonalMatrix(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)))
        mine = tridiagonal_eigenvalues(t)
        oracle = dense_hermitian_eig(t.dense()).values
        assert np.max(np.abs(mine - oracle)) <= 1e-8 * (1 + t.inf_norm())

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(3)
        alphas = rng.standard_normal((4, 6))
        betas = np.abs(rng.standard_normal((4, 5)))
        batch = tridiagonal_eigenvalues_batch(alphas, betas)
        for i in range(4):
            single = tridiagonal_eigenvalues(TridiagonalMatrix(alphas[i], betas[i]))
            assert np.allclose(batch[i], single, atol=1e-9)

    def test_size_one(self):
        t = TridiagonalMatrix(np.array([4.2]), np.zeros(0))
        assert np.allclose(tridiagonal_eigenvalues(t), [4.2], atol=1e-10)

    @staticmethod
    def toeplitz_values(a, b, m):
        """Closed form: a + 2b cos(j pi / (m + 1)), j = 1..m, descending for b >= 0."""
        j = np.arange(1, m + 1)
        return a + 2.0 * b * np.cos(j * np.pi / (m + 1))

    @pytest.mark.parametrize("m", [1, 2, 5, 20])
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (2.5, 0.3), (-1.0, 4.0)])
    def test_toeplitz_closed_form(self, m, a, b):
        t = TridiagonalMatrix(np.full(m, a), np.full(m - 1, b))
        mine = tridiagonal_eigenvalues(t)
        assert mine.shape == (m,)
        assert np.max(np.abs(mine - self.toeplitz_values(a, b, m))) <= 1e-12 * (1 + t.inf_norm())

    def test_toeplitz_closed_form_mixed_stack(self):
        m = 9
        rows = [(0.0, 1.0), (3.0, 0.0), (-2.0, 0.5), (1e3, 7.0), (0.1, 1e-8)]
        alphas = np.array([np.full(m, a) for a, _ in rows])
        betas = np.array([np.full(m - 1, b) for _, b in rows])
        batch = tridiagonal_eigenvalues_batch(alphas, betas)
        assert batch.shape == (len(rows), m)
        for i, (a, b) in enumerate(rows):
            scale = 1 + abs(a) + 2 * b
            assert np.max(np.abs(batch[i] - self.toeplitz_values(a, b, m))) <= 1e-12 * scale


class TestDenseHermitianEig:
    def test_diagonal_input(self):
        sol = dense_hermitian_eig(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(sol.values, [3.0, 2.0, 1.0], atol=1e-14)
        assert np.allclose(np.abs(sol.vectors), np.eye(3), atol=1e-12)

    def test_analytic_two_by_two(self):
        sol = dense_hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(sol.values, [3.0, 1.0], atol=1e-12)
        want = np.array([1.0, 1.0]) / np.sqrt(2)
        overlap = abs(np.vdot(want, sol.vectors[:, 0]))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_and_orthonormality(self, seed):
        r = random_hermitian_psd(8, seed)
        sol = dense_hermitian_eig(r)
        scale = np.linalg.norm(r)
        for i in range(8):
            res = np.linalg.norm(r @ sol.vectors[:, i] - sol.values[i] * sol.vectors[:, i])
            assert res <= 1e-8 * scale
        gram = sol.vectors.conj().T @ sol.vectors
        assert np.allclose(gram, np.eye(8), atol=1e-10)
        # cross-check against an independent solver
        assert np.allclose(sol.values, np.sort(np.linalg.eigvalsh(r))[::-1], atol=1e-10 * max(scale, 1))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            dense_hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_descending_stable_sort(self):
        sol = dense_hermitian_eig(np.diag([1.0, 3.0, 3.0, 0.5]))
        assert sol.values.tolist() == [3.0, 3.0, 1.0, 0.5]


class TestFilterSpurious:
    def test_early_iterations_unchanged(self):
        cur = np.array([5.0, 3.0, 1.0])
        out = filter_spurious(cur, None, 1e-6)
        assert np.allclose(out, cur)

    def test_duplicate_collapse(self):
        out = filter_spurious(np.array([5.0, 5.0 + 1e-9, 2.0]), None, 1e-6)
        assert np.allclose(out, [5.0 + 1e-9, 2.0])

    def test_rank_criterion_drops_new_value(self):
        prev = np.array([9.0, 5.0, 2.0, 1.0, 0.4])
        cur = np.array([9.0, 5.0, 2.0, 1.0, 0.7, 0.4])
        out = filter_spurious(cur, prev, 1e-3)
        assert 0.7 not in out
        assert np.allclose(out, [9.0, 5.0, 2.0, 1.0, 0.4])


class TestCullumWilloughby:
    def test_flags_replicated_value(self):
        # decoupled blocks make 4.0 an eigenvalue of both T and its reduction
        t = TridiagonalMatrix(np.array([1.0, 4.0, 4.0]), np.array([0.5, 0.0]))
        flags = cullum_willoughby_spurious(t, 1e-8)
        values = tridiagonal_eigenvalues(t)
        assert flags[np.argmin(np.abs(values - 4.0))]

    def test_clean_spectrum_unflagged(self):
        t = TridiagonalMatrix(np.array([2.0, 1.0]), np.array([0.7]))
        assert not cullum_willoughby_spurious(t, 1e-10).any()
