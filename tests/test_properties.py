"""Property suite: every module's invariants, at 200+ seeded cases each.

Cheap per-case properties run as 200-iteration seeded loops or hypothesis
strategies; Monte-Carlo distributional checks (entry variance, mean
covariance) live in the per-module test files as single seeded estimates.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigennet.consensus import AcConfig, ErrorInjectingEngine, run_consensus
from eigennet.detection import compute_statistic
from eigennet.distributed import (
    default_dla_start,
    default_dpm_start,
    predict_dpm_vector_error,
    predict_lambda1_error,
    run_dla,
    run_dpm,
)
from eigennet.eigencore import (
    TridiagonalMatrix,
    filter_spurious,
    filter_spurious_batch,
    lanczos,
    power_method,
    sample_covariance,
    tridiagonal_eigenvalues,
)
from eigennet.harness import trial_seed, validate_config
from eigennet.signals import SignalConfig, gen_h1, theoretical_snr
from eigennet.topology import generate_random_geometric, metropolis_weights, spectral_bounds

from conftest import ReplayEngine, dense_hermitian_eig, random_connected_graph, random_samples

CASES = 200
HYP = settings(max_examples=CASES, deadline=None, derandomize=True)


def seeded_graph_and_weights(seed, k=None):
    k = k or (4 + seed % 5)
    g = random_connected_graph(k, seed)
    w = metropolis_weights(g)
    return g, w


class TestTopologyProperties:
    def test_accepted_graphs_are_connected_by_bfs(self):
        accepted = 0
        for seed in range(CASES):
            g = generate_random_geometric(4 + seed % 7, 0.55, seed)
            # independent BFS
            adj = {i: set() for i in range(g.node_count)}
            for u, v in g.edges:
                adj[u].add(v)
                adj[v].add(u)
            seen, stack = {0}, [0]
            while stack:
                u = stack.pop()
                for x in adj[u]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            assert len(seen) == g.node_count
            accepted += 1
        assert accepted == CASES

    def test_metropolis_invariants(self):
        for seed in range(CASES):
            g, w = seeded_graph_and_weights(seed)
            m = w.entries
            assert np.max(np.abs(m - m.T)) <= 1e-12
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) <= 1e-12
            # no weight off the edge set and the diagonal
            allowed = np.eye(g.node_count, dtype=bool)
            allowed[g.edge_index[0], g.edge_index[1]] = True
            allowed[g.edge_index[1], g.edge_index[0]] = True
            assert not np.any((np.abs(m) > 1e-12) & ~allowed)

    def test_weight_spectrum_in_unit_interval_with_simple_one(self):
        for seed in range(CASES):
            _, w = seeded_graph_and_weights(seed)
            values = dense_hermitian_eig(w.entries).values
            assert values[0] == pytest.approx(1.0, abs=1e-9)
            assert values[-1] > -1.0
            if len(values) > 1:
                assert values[1] < 1.0 - 1e-9


class TestConsensusProperties:
    def test_mass_conservation(self):
        for seed in range(CASES):
            g, w = seeded_graph_and_weights(seed)
            rng = np.random.default_rng(seed)
            k = g.node_count
            z0 = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
            engine = ("standard", "chebyshev")[seed % 2]
            p = 0.2 if seed % 3 == 0 else 0.0
            cfg = AcConfig(
                engine, 1 + seed % 6, weights=w,
                link_failure_prob=p, failure_seed=seed if p else None,
            )
            res = run_consensus(z0, cfg)
            assert np.max(np.abs(res.z.sum(axis=0) - z0.sum(axis=0))) <= 1e-10

    def test_monotone_contraction(self):
        for seed in range(CASES):
            g, w = seeded_graph_and_weights(seed)
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal((g.node_count, 2))
            mean = z0.mean(axis=0)
            t = 1 + seed % 4
            near = run_consensus(z0, AcConfig("standard", t, weights=w))
            far = run_consensus(z0, AcConfig("standard", t + 1, weights=w))
            d_near = np.linalg.norm(near.z - mean)
            assert d_near <= np.linalg.norm(z0 - mean) * (1 + 1e-12)
            assert np.linalg.norm(far.z - mean) <= d_near * (1 + 1e-12)

    def test_chebyshev_damping_bound(self):
        for seed in range(CASES):
            g, w = seeded_graph_and_weights(seed)
            cp = spectral_bounds(w)
            if cp.is_degenerate:
                continue
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal((g.node_count, 3))
            mean = z0.mean(axis=0)
            t = 1 + seed % 5
            tau = [1.0, cp.b1]
            for _ in range(t - 1):
                tau.append(2 * cp.b1 * tau[-1] - tau[-2])
            res = run_consensus(z0, AcConfig("chebyshev", t, weights=w))
            lhs = np.linalg.norm(res.z - mean)
            rhs = np.linalg.norm(z0 - mean) / tau[t]
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_determinism(self):
        for seed in range(CASES):
            g, w = seeded_graph_and_weights(seed)
            rng = np.random.default_rng(seed)
            z0 = rng.standard_normal((g.node_count, 2))

            def once():
                cfg = AcConfig(
                    "chebyshev", 4, weights=w,
                    link_failure_prob=0.15, failure_seed=seed,
                )
                return run_consensus(z0, cfg)

            assert np.array_equal(once().z, once().z)


class TestEigencoreProperties:
    def test_interlacing_and_ritz_containment(self):
        for seed in range(CASES):
            k = 5 + seed % 4
            y = random_samples(k, k, seed)
            r = sample_covariance(y)
            dense = np.sort(np.linalg.eigvalsh(r))
            lam_min, lam_max = dense[0], dense[-1]
            rng = np.random.default_rng(seed)
            v1 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            v1 /= np.linalg.norm(v1)
            m = 3 + seed % (k - 3) if k > 3 else 3
            t_big = lanczos(r, v1, min(m + 1, k))
            if t_big.size < 2:
                continue
            small = TridiagonalMatrix(t_big.alpha[:-1], t_big.beta[:-1])
            lam_small = np.sort(tridiagonal_eigenvalues(small))
            lam_big = np.sort(tridiagonal_eigenvalues(t_big))
            # Cauchy interlacing: big[i] <= small[i] <= big[i+1]
            for i in range(len(lam_small)):
                assert lam_big[i] <= lam_small[i] + 1e-8
                assert lam_small[i] <= lam_big[i + 1] + 1e-8
            # Ritz containment in the dense spectrum's range
            assert np.all(lam_big >= lam_min - 1e-8)
            assert np.all(lam_big <= lam_max + 1e-8)

    def test_power_method_angle_decay(self):
        checked = 0
        for seed in range(2 * CASES):
            if checked >= CASES:
                break
            k = 6
            r = sample_covariance(random_samples(k, k, seed))
            values, vectors = np.linalg.eigh(r)
            values, vectors = values[::-1], vectors[:, ::-1]
            if values[1] / values[0] > 0.95:  # need a usable spectral gap
                continue
            rng = np.random.default_rng(seed)
            v0 = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            a = vectors.conj().T @ v0
            if abs(a[0]) < 1e-3:
                continue
            c = np.linalg.norm(a[1:]) / abs(a[0])
            for j in (2, 5, 8):
                vj = power_method(r, v0, j).vector
                cosang = abs(np.vdot(vectors[:, 0], vj)) / np.linalg.norm(vj)
                sinang = np.sqrt(max(0.0, 1 - min(cosang, 1.0) ** 2))
                assert sinang <= c * (values[1] / values[0]) ** j * (1 + 1e-9)
            checked += 1
        assert checked == CASES

    def test_tridiagonal_eigenvalues_match_dense_oracle(self):
        for seed in range(CASES):
            rng = np.random.default_rng(seed)
            m = 2 + seed % 11
            t = TridiagonalMatrix(
                rng.standard_normal(m), np.abs(rng.standard_normal(max(m - 1, 0)))
            )
            mine = tridiagonal_eigenvalues(t)
            oracle = dense_hermitian_eig(t.dense()).values
            assert np.max(np.abs(mine - oracle)) <= 1e-8 * (1.0 + t.inf_norm())


def scalar_filter_oracle(current, previous, k, n, tol, *, iteration=None):
    """The one-list spurious filter as it stood before the batched version,
    with the rank test starting past the Krylov bound min(K, N + 1)."""
    cur = np.sort(np.asarray(current, dtype=float))[::-1]
    j = iteration if iteration is not None else len(cur)
    if j > min(k, n + 1) and previous is not None and len(cur):
        prev = np.asarray(previous, dtype=float)
        if len(prev):
            seen = np.min(np.abs(cur[:, None] - prev[None, :]), axis=1) <= tol
        else:
            seen = np.zeros(len(cur), dtype=bool)
        cur = cur[seen]
    kept: list[float] = []
    for value in cur:
        if not kept or kept[-1] - value > tol:
            kept.append(float(value))
    return np.array(kept)


@st.composite
def ritz_row(draw, length, tol):
    """An unsorted Ritz list: free values, a chain of values spaced closer
    than ``tol``, or one repeated value."""
    kind = draw(st.sampled_from(["free", "chain", "equal"]))
    if kind == "free":
        return draw(st.lists(st.floats(-50, 50), min_size=length, max_size=length))
    base = draw(st.floats(-50, 50))
    if kind == "equal":
        return [base] * length
    steps = st.integers(-6, 6).map(lambda i: base + i * 0.4 * tol)
    return draw(st.lists(steps, min_size=length, max_size=length))


@st.composite
def ritz_stacks(draw):
    """A NaN-padded (S, j) stack, an optional previous stack and tolerances."""
    width = draw(st.integers(1, 8))
    rows = draw(st.integers(1, 5))
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.5, 4.0]))
    current, previous = [], []
    for _ in range(rows):
        row = draw(ritz_row(draw(st.integers(0, width)), tol))
        current.append(row)
        # the previous list: exact and near copies of current values plus strays
        offsets = st.sampled_from([0.0, 0.9, 1.0, 1.1])
        near = st.tuples(st.sampled_from(row or [0.0]), offsets).map(
            lambda pair: pair[0] + pair[1] * tol
        )
        previous.append(draw(st.lists(st.one_of(near, st.floats(-50, 50)), max_size=width)))

    def stack(lists, cols):
        out = np.full((rows, cols), np.nan)
        for r, vals in enumerate(lists):
            out[r, : len(vals)] = vals
            out[r] = out[r, draw(st.permutations(range(cols)))]
        return out

    prev_width = max([len(p) for p in previous] + [draw(st.integers(0, width))])
    prev = draw(st.sampled_from([None, stack(previous, prev_width)]))
    tols = draw(st.sampled_from([tol, tol * np.array(draw(
        st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=rows, max_size=rows)
    ))]))
    k, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    iteration = draw(st.one_of(st.none(), st.integers(1, 10)))
    return stack(current, width), prev, k, n, tols, iteration


class TestFilterBatch:
    @HYP
    @given(ritz_stacks())
    def test_batch_matches_scalar_oracle_row_by_row(self, case):
        cur, prev, k, n, tols, iteration = case
        j = iteration if iteration is not None else cur.shape[1]
        # the caller owns the Krylov bound: it passes the previous stack only
        # past min(K, N + 1)
        passed = prev if j > min(k, n + 1) else None
        got = filter_spurious_batch(cur, passed, tols)
        assert got.shape == cur.shape
        for r, row in enumerate(cur):
            tol = float(np.broadcast_to(tols, (cur.shape[0],))[r])
            prev_row = None if prev is None else prev[r][~np.isnan(prev[r])]
            want = scalar_filter_oracle(row[~np.isnan(row)], prev_row, k, n, tol, iteration=j)
            passed_row = None if passed is None else prev_row
            assert got.dtype == want.dtype
            # each row holds its kept values first, NaN after them
            padded = np.full(cur.shape[1], np.nan)
            padded[: len(want)] = want
            assert np.array_equal(got[r], padded, equal_nan=True)
            one = filter_spurious(row[~np.isnan(row)], passed_row, tol)
            assert np.array_equal(one, want)


class TestDistributedProperties:
    def test_ideal_equivalence(self):
        for seed in range(CASES):
            k = 3 + seed % 4
            n = 3 + (seed // 3) % 4
            m = 1 + seed % k
            y = random_samples(k, n, seed)
            r = sample_covariance(y)
            v0 = default_dpm_start(k, seed)
            ideal = AcConfig("ideal", 0)
            res = run_dpm(y, ideal, m, v0)
            ref = power_method(r, v0, m)
            assert np.max(np.abs(res.lambda1 - ref.value)) <= 1e-12 * abs(ref.value)
            res_l = run_dla(y, ideal, m, default_dla_start(k))
            ref_l = lanczos(r, default_dla_start(k), m)
            scale = max(np.max(np.abs(ref_l.alpha)), 1.0)
            assert (
                np.max(np.abs(res_l.alpha_hist[: ref_l.size] - ref_l.alpha[:, None]))
                <= 1e-12 * scale
            )
            assert np.all(res_l.beta_hist >= 0.0)

    def test_error_trace_reconstruction(self):
        for seed in range(CASES):
            k, n, m = 5, 4, 3
            y = random_samples(k, n, seed)
            r = sample_covariance(y)
            rng = np.random.default_rng(seed + 10_000)
            # the one-trial stacks the engine gets: (1, K, N), then (1, K, 1)
            errors = [
                0.05 * (rng.standard_normal((1, k, n)) + 1j * rng.standard_normal((1, k, n)))
                for _ in range(m + 1)
            ]
            errors.append(0.05 * rng.standard_normal((1, k, 1)))
            v0 = default_dpm_start(k, seed)
            res = run_dpm(y, ErrorInjectingEngine(errors), m, v0, trace=True)
            pred = predict_dpm_vector_error(res, r)
            rel = np.max(np.abs(pred - res.v_hist[m])) / np.max(np.abs(res.v_hist[m]))
            assert rel <= 1e-12
            lam = predict_lambda1_error(res, y)
            assert np.max(np.abs(lam - res.lambda1)) <= 1e-12 * np.max(np.abs(res.lambda1))

    def test_locality_under_replay(self):
        for seed in range(CASES):
            k = 4 + seed % 3
            g, w = seeded_graph_and_weights(seed, k=k)
            y = random_samples(k, 3, seed)
            outputs = []

            class Recorder:
                def run(self, z0):
                    res = run_consensus(z0, AcConfig("standard", 2, weights=w))
                    outputs.append(res.z.copy())
                    return res

            ref = run_dpm(y, Recorder(), 2, default_dpm_start(k, seed))
            target = seed % k
            y2 = y.copy()
            y2[target] += 1.0
            res = run_dpm(y2, ReplayEngine(outputs), 2, default_dpm_start(k, seed))
            others = [i for i in range(k) if i != target]
            assert np.array_equal(res.v_hist[:, others], ref.v_hist[:, others])

    def test_run_determinism(self):
        for seed in range(CASES):
            g, w = seeded_graph_and_weights(seed, k=5)
            y = random_samples(5, 4, seed)

            def once():
                ac = AcConfig(
                    "chebyshev", 3, weights=w,
                    link_failure_prob=0.1, failure_seed=seed,
                )
                return run_dpm(y, ac, 3, default_dpm_start(5, seed))

            a, b = once(), once()
            assert np.array_equal(a.lambda1, b.lambda1)


class TestSignalProperties:
    def test_seeded_determinism_and_exact_snr(self):
        for seed in range(CASES):
            cfg = SignalConfig(
                k=4 + seed % 4, n=3 + seed % 5, sigma2=0.5 + (seed % 7) / 4,
                p=1 + seed % 2,
                snr_db=tuple(float(3 - i) for i in range(1 + seed % 2)),
                seed=seed,
            )
            ya, ca = gen_h1(cfg)
            yb, cb = gen_h1(cfg)
            assert np.array_equal(ya, yb)
            for i, rho in enumerate(cfg.snr_db):
                snr = theoretical_snr(ca[:, i], 1.0, cfg.sigma2)
                assert snr == pytest.approx(10 ** (rho / 10), rel=1e-12)


class TestDetectionProperties:
    @HYP
    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=8),
        st.floats(0.01, 1000.0),
    )
    def test_scale_invariance(self, lam, c):
        lam = np.asarray(lam)
        for kind in ("GT", "ST", "JT"):
            base = compute_statistic(kind, lam)
            scaled = compute_statistic(kind, c * lam)
            assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)
        rt0 = compute_statistic("RT", lam, 1.0)
        rt1 = compute_statistic("RT", c * lam, 1.0)
        assert rt1 == pytest.approx(c * rt0, rel=1e-12)

    @HYP
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=9))
    def test_statistics_well_defined_on_partial_spectra(self, lam):
        lam = np.asarray(lam)
        if lam.sum() == 0.0:
            lam[0] = 1.0  # filtered Ritz lists keep at least one positive value
        k = len(lam)
        gt = compute_statistic("GT", lam)
        jt = compute_statistic("JT", lam)
        assert 1 / k - 1e-12 <= gt <= 1.0 + 1e-12
        assert 1 / k - 1e-12 <= jt <= 1.0 + 1e-12
        st_val = compute_statistic("ST", lam)
        assert -1.0 - 1e-12 <= st_val <= 0.0

    def test_unanimous_decisions_under_ideal_consensus(self):
        for seed in range(CASES):
            k = 4 + seed % 3
            y = random_samples(k, 4, seed)
            res = run_dpm(y, AcConfig("ideal", 0), 3, default_dpm_start(k, seed))
            assert np.ptp(res.lambda1) == 0.0

    @HYP
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12), st.integers(0, 3))
    def test_filter_idempotent_without_rank_criterion(self, values, _k):
        vals = np.sort(np.asarray(values))[::-1]
        tol = 1e-9
        once = filter_spurious(vals, None, tol)
        twice = filter_spurious(once, None, tol)
        assert np.array_equal(once, twice)


class TestHarnessProperties:
    def test_trial_seed_determinism_and_spread(self):
        seen = set()
        for master in range(0, CASES, 2):
            for t in range(4):
                s = trial_seed(master, t)
                assert s == trial_seed(master, t)
                seen.add(s)
        assert len(seen) == (CASES // 2) * 4

    def test_config_roundtrip_defaults(self):
        for seed in range(CASES):
            text = f"seed = {seed}\ntrials = {1 + seed % 9}\n"
            cfg = validate_config(text, "eig-converge")
            assert cfg.seed == seed
            assert cfg.k == 40 and cfg.n == 10 and cfg.sigma2 == 1.0

    def test_aggregation_order_invariance(self):
        # trial metrics are a commutative reduction: permuted sums agree
        rng = np.random.default_rng(0)
        for seed in range(CASES):
            vals = rng.standard_normal(32) ** 2
            perm = rng.permutation(32)
            assert np.sum(vals) == pytest.approx(np.sum(vals[perm]), rel=1e-12)
