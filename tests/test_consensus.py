import gc
import weakref

import numpy as np
import pytest

from eigennet.consensus import (
    AcConfig,
    ErrorInjectingEngine,
    ReplayEngine,
    _failure_stack,
    _iterate,
    _mixing_operator,
    run_block,
    run_consensus,
)
from eigennet.errors import ConsensusError
from eigennet.topology import (
    Graph,
    generate_random_geometric,
    metropolis_weights,
    spectral_bounds,
)

from conftest import random_connected_graph


def complete_weights(k):
    g = Graph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)))
    return metropolis_weights(g)


class TestEngines:
    @pytest.mark.parametrize("engine", ["ideal", "standard", "chebyshev"])
    def test_identical_rows_are_fixed_point(self, engine, path3_weights, path3_cheb):
        z0 = np.tile(np.array([1.0 + 2.0j, -0.5j, 3.0]), (3, 1))
        cfg = AcConfig(engine, 4, weights=path3_weights, cheb=path3_cheb)
        res = run_consensus(z0, cfg)
        assert np.allclose(res.z, z0, atol=1e-12)
        assert np.max(np.abs(res.error)) < 1e-12

    def test_ideal_identity_input(self):
        res = run_consensus(np.eye(2), AcConfig("ideal", 0))
        assert np.array_equal(res.z, np.full((2, 2), 0.5))
        assert not res.error.any()  # exactly zero

    def test_standard_complete_graph_one_step_exact(self):
        w = complete_weights(4)
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        res = run_consensus(z0, AcConfig("standard", 1, weights=w))
        assert np.max(np.abs(res.error)) < 1e-14

    def test_chebyshev_path3_hand_damping(self, path3_weights, path3_cheb):
        # b1 = 2 gives the scalar sequence 1, 2, 7, 26
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal((3, 5))
        mean = z0.mean(axis=0)
        res = run_consensus(z0, AcConfig("chebyshev", 3, weights=path3_weights, cheb=path3_cheb))
        assert np.linalg.norm(res.z - mean) <= np.linalg.norm(z0 - mean) / 26 + 1e-12

    def test_zero_iterations_returns_input(self, path3_weights):
        z0 = np.arange(6.0).reshape(3, 2)
        res = run_consensus(z0, AcConfig("standard", 0, weights=path3_weights))
        assert np.array_equal(res.z, z0)

    def test_degenerate_chebyshev_falls_back_to_averaging(self):
        w = complete_weights(3)
        cp = spectral_bounds(w)
        assert cp.is_degenerate
        z0 = np.array([[3.0], [0.0], [0.0]])
        res = run_consensus(z0, AcConfig("chebyshev", 1, weights=w, cheb=cp))
        assert np.allclose(res.z, 1.0, atol=1e-14)


class TestNodeView:
    def test_ideal_view_is_mean(self, path3_weights):
        z0 = np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        res = run_consensus(z0, AcConfig("ideal", 1, weights=path3_weights))
        assert np.allclose(res.z[1], [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("t", [1, 3, 7])
    def test_standard_row_matches_dense_product_oracle(self, t, path3_weights):
        rng = np.random.default_rng(t)
        z0 = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        res = run_consensus(z0, AcConfig("standard", t, weights=path3_weights))
        oracle = np.linalg.matrix_power(path3_weights.entries, t) @ z0
        for k in range(3):
            assert np.allclose(res.z[k], oracle[k], atol=1e-13)


class TestInvariantsAndCounters:
    @pytest.mark.parametrize("seed", range(4))
    def test_mass_conservation_with_failures(self, seed):
        g = random_connected_graph(7, seed)
        w = metropolis_weights(g)
        cp = spectral_bounds(w)
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        for engine in ("standard", "chebyshev"):
            cfg = AcConfig(
                engine, 9, weights=w, cheb=cp,
                link_failure_prob=0.25, failure_seed=seed,
            )
            res = run_consensus(z0, cfg)
            assert np.max(np.abs(res.z.sum(axis=0) - z0.sum(axis=0))) < 1e-10

    def test_monotone_contraction_standard(self, path3_weights):
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal((3, 2))
        mean = z0.mean(axis=0)
        last = np.linalg.norm(z0 - mean)
        for t in range(1, 8):
            res = run_consensus(z0, AcConfig("standard", t, weights=path3_weights))
            cur = np.linalg.norm(res.z - mean)
            assert cur <= last * (1 + 1e-12)
            last = cur

    def test_determinism_bit_identical(self, path3_weights, path3_cheb):
        rng = np.random.default_rng(9)
        z0 = rng.standard_normal((3, 4))

        def once():
            cfg = AcConfig(
                "chebyshev", 6, weights=path3_weights, cheb=path3_cheb,
                link_failure_prob=0.3, failure_seed=77,
            )
            return run_consensus(z0, cfg)

        a, b = once(), once()
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.error, b.error)

    def test_message_counters(self, path3_weights):
        res = run_consensus(np.zeros((3, 4)), AcConfig("standard", 5, weights=path3_weights))
        assert res.scalars_exchanged_per_node.tolist() == [20, 40, 20]
        assert res.iterations_used == 5

    def test_error_identity_recomputed(self, path3_weights):
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((3, 2))
        res = run_consensus(z0, AcConfig("standard", 3, weights=path3_weights))
        assert np.max(np.abs(res.error - (res.z - z0.mean(axis=0)))) < 1e-12


class TestValidation:
    def test_dimension_mismatch(self, path3_weights):
        with pytest.raises(ConsensusError):
            run_consensus(np.zeros((4, 2)), AcConfig("standard", 1, weights=path3_weights))

    def test_unknown_engine(self):
        with pytest.raises(ConsensusError):
            AcConfig("gossip", 1)

    def test_chebyshev_needs_bounds(self, path3_weights):
        with pytest.raises(ConsensusError):
            AcConfig("chebyshev", 1, weights=path3_weights)

    def test_failures_need_seed(self, path3_weights):
        with pytest.raises(ConsensusError):
            AcConfig("standard", 1, weights=path3_weights, link_failure_prob=0.1)

    def test_negative_iterations(self, path3_weights):
        with pytest.raises(ConsensusError):
            AcConfig("standard", -1, weights=path3_weights)


class TestSyntheticEngines:
    def test_injection_adds_prescribed_error(self):
        z0 = np.array([[1.0 + 0j, 2.0], [3.0, 4.0]])
        err = np.array([[0.1 + 0j, 0.0], [0.0, -0.1]])
        res = ErrorInjectingEngine([err]).run(z0)
        assert np.allclose(res.z, z0.mean(axis=0) + err, atol=1e-15)
        assert np.allclose(res.error, err, atol=1e-15)

    def test_injection_rejects_complex_error_on_real_input(self):
        with pytest.raises(ConsensusError):
            ErrorInjectingEngine([np.array([0.1j, 0.0])]).run(np.array([1.0, 2.0]))

    def test_injection_shape_check(self):
        with pytest.raises(ConsensusError):
            ErrorInjectingEngine([np.zeros((2, 2))]).run(np.zeros((2, 3)))

    def test_injection_exhaustion(self):
        eng = ErrorInjectingEngine([np.zeros(2)])
        eng.run(np.zeros(2))
        with pytest.raises(ConsensusError):
            eng.run(np.zeros(2))

    def test_replay_returns_recorded_output(self):
        out = np.array([[1.0, 2.0], [3.0, 4.0]])
        res = ReplayEngine([out]).run(np.zeros((2, 2)))
        assert np.array_equal(res.z, out)


def broadcast_inputs():
    rng = np.random.default_rng(17)
    k = 40
    yield rng.standard_normal(k)
    yield rng.standard_normal((k, 3))
    yield rng.standard_normal((k, 10)) + 1j * rng.standard_normal((k, 10))
    yield 1e-300 * rng.standard_normal((k, 2)) - 1e300j * rng.standard_normal((k, 2))


class TestBroadcastFormulation:
    """The engines' mean and error terms, bit for bit against the np.tile and
    np.broadcast_to formulation they replaced (kept here as the reference)."""

    @staticmethod
    def two_d(z0):
        return z0[:, None] if z0.ndim == 1 else z0

    def test_run_consensus_matches_tile_and_broadcast_to(self):
        g = generate_random_geometric(40, 0.4, 3)
        w = metropolis_weights(g)
        cheb = spectral_bounds(w)
        configs = [
            lambda: AcConfig("ideal", 0),
            lambda: AcConfig("standard", 7, weights=w),
            lambda: AcConfig("standard", 0, weights=w),
            lambda: AcConfig("chebyshev", 12, weights=w, cheb=cheb),
            lambda: AcConfig(
                "chebyshev", 5, weights=w, cheb=cheb, link_failure_prob=0.3, failure_seed=4
            ),
        ]
        for make in configs:
            for z0 in broadcast_inputs():
                cfg = make()
                res = run_consensus(z0, cfg)
                x0 = self.two_d(z0)
                mean_row = x0.mean(axis=0)
                if cfg.engine == "ideal":
                    z_old = np.tile(mean_row, (x0.shape[0], 1))
                    err_old = np.zeros_like(z_old)
                else:
                    z_old = self.two_d(res.z)
                    err_old = z_old - np.broadcast_to(mean_row, x0.shape)
                if z0.ndim == 1:
                    z_old, err_old = z_old[:, 0], err_old[:, 0]
                assert res.z.dtype == z_old.dtype and res.error.dtype == err_old.dtype
                assert np.array_equal(res.z, z_old)
                assert np.array_equal(res.error, err_old)

    def test_synthetic_engines_match_broadcast_to(self):
        rng = np.random.default_rng(3)
        for z0 in broadcast_inputs():
            err = rng.standard_normal(z0.shape)
            mean_row = z0.mean(axis=0)
            z_old = mean_row[None, ...] + err if z0.ndim > 1 else mean_row + err
            res = ErrorInjectingEngine([err]).run(z0)
            assert np.array_equal(res.z, z_old)
            assert np.array_equal(res.error, z_old - np.broadcast_to(mean_row, z0.shape))
            out = rng.standard_normal(z0.shape)
            res = ReplayEngine([out]).run(z0)
            assert np.array_equal(res.error, out - np.broadcast_to(mean_row, z0.shape))


def loop_failure_weights(graph, rng, p):
    """Per-edge reference for the link-failure redraw: one scalar draw per edge."""
    k = graph.node_count
    surviving = [e for e in graph.edges if rng.random() >= p]
    deg = np.zeros(k, dtype=np.int64)
    for u, v in surviving:
        deg[u] += 1
        deg[v] += 1
    w = np.zeros((k, k))
    for u, v in surviving:
        wij = 1.0 / (1.0 + max(deg[u], deg[v]))
        w[u, v] = wij
        w[v, u] = wij
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def max_rel_diff(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


class TestTrialStack:
    @pytest.mark.parametrize("engine", ["ideal", "standard", "chebyshev"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_each_trial_equals_its_lone_run(self, engine, width):
        w = metropolis_weights(random_connected_graph(7, 2))
        cfg = AcConfig(engine, 5, weights=w, cheb=spectral_bounds(w))
        rng = np.random.default_rng(4)
        z0 = rng.standard_normal((4, 7, width)) + 1j * rng.standard_normal((4, 7, width))
        res = run_consensus(z0, cfg)
        assert res.z.shape == res.error.shape == z0.shape
        assert res.scalars_exchanged_per_node.shape == (4, 7)
        for t in range(4):
            alone = run_consensus(z0[t], cfg)
            assert np.array_equal(res.z[t], alone.z)
            assert np.array_equal(res.error[t], alone.error)
            assert np.array_equal(
                res.scalars_exchanged_per_node[t], alone.scalars_exchanged_per_node
            )
            # a scalar round gives the same values as a one-column one
            if width == 1:
                assert np.array_equal(res.z[t, :, 0], run_consensus(z0[t, :, 0], cfg).z)

    def test_failures_share_links_across_the_stack(self):
        w = metropolis_weights(random_connected_graph(6, 5))
        make = lambda: AcConfig(  # noqa: E731
            "standard", 4, weights=w, link_failure_prob=0.4, failure_seed=11
        )
        rng = np.random.default_rng(6)
        z0 = rng.standard_normal((3, 6, 2))
        stacked = run_consensus(z0, make())
        # the same links act on every column of the side-by-side matrix
        wide = run_consensus(np.concatenate(list(z0), axis=1), make())
        assert np.allclose(np.concatenate(list(stacked.z), axis=1), wide.z, rtol=1e-13)


class TestRunBlock:
    """One engine on a stack, or one engine per trial, through ``run_block``."""

    K = 7

    @staticmethod
    def make(engine, w):
        """A fresh config; two calls give equal configs with equal generators."""
        base = engine.split("+")[0]
        failures = engine.endswith("+failures")
        return AcConfig(
            base, 5, weights=w, cheb=spectral_bounds(w),
            link_failure_prob=0.3 if failures else 0.0,
            failure_seed=17 if failures else None,
        )

    @pytest.mark.parametrize("engine", ["ideal", "standard", "chebyshev", "chebyshev+failures"])
    @pytest.mark.parametrize("shape", [(4, K, 3), (4, K), (1, K, 3), (1, K)])
    def test_one_engine_equals_one_per_trial(self, engine, shape):
        w = metropolis_weights(random_connected_graph(self.K, 2))
        rng = np.random.default_rng(5)
        z0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        shared = run_block(self.make(engine, w), z0)
        per_trial = run_block([self.make(engine, w) for _ in z0], z0)
        for res in (shared, per_trial):
            assert res.z.shape == res.error.shape == z0.shape
            assert res.scalars_exchanged_per_node.shape == shape[:2]
            assert res.iterations_used == 5
        for name in ("z", "error", "scalars_exchanged_per_node"):
            assert np.array_equal(getattr(shared, name), getattr(per_trial, name))
        # trial b of either is the lone run of trial b
        for t in range(len(z0)):
            alone = self.make(engine, w).run(z0[t])
            assert np.array_equal(shared.z[t], alone.z)
            assert np.array_equal(shared.error[t], alone.error)

    def test_synthetic_engines_average_over_nodes(self):
        rng = np.random.default_rng(8)
        z0 = rng.standard_normal((3, self.K, 2))
        node_mean = z0.mean(axis=1, keepdims=True)
        err = 0.01 * rng.standard_normal(z0.shape)
        out = rng.standard_normal(z0.shape)
        for engine, want in (
            (ErrorInjectingEngine([err]), node_mean + err),
            (ReplayEngine([out]), out),
        ):
            res = run_block(engine, z0)
            assert np.array_equal(res.z, want)
            assert np.array_equal(res.error, res.z - node_mean)
            assert res.scalars_exchanged_per_node.shape == (3, self.K)
            assert not np.any(res.scalars_exchanged_per_node)
        assert np.allclose(run_block(ErrorInjectingEngine([err]), z0).error, err, atol=1e-15)

    def test_engine_count_must_match(self, path3_weights):
        engines = [AcConfig("standard", 2, weights=path3_weights)] * 2
        with pytest.raises(ValueError, match="one consensus engine per trial, got 2 for 3"):
            run_block(engines, np.zeros((3, 3, 1)))


class TestFailureRedraw:
    @pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 0.999])
    def test_matches_per_edge_loop(self, p, path3):
        graphs = [path3, generate_random_geometric(40, 0.4, 3), Graph(1, ())]
        for g in graphs:
            fast_rng = np.random.default_rng(11)
            loop_rng = np.random.default_rng(11)
            for steps in (0, 1, 30, 1, 0, 29):
                stack = _failure_stack(g, fast_rng, p, steps)
                assert stack.shape == (steps, g.node_count, g.node_count)
                for fast in stack:
                    assert np.array_equal(fast, loop_failure_weights(g, loop_rng, p))
                # the one (steps, E) draw left the generator where steps * E
                # scalar draws leave it
                assert fast_rng.random() == loop_rng.random()

    def test_edgeless_single_node(self):
        w = _failure_stack(Graph(1, ()), np.random.default_rng(0), 0.5, 3)
        assert np.array_equal(w, np.ones((3, 1, 1)))

    def test_no_failures_reproduce_metropolis_weights(self):
        g = generate_random_geometric(40, 0.4, 3)
        w = loop_failure_weights(g, np.random.default_rng(0), 0.0)
        assert np.array_equal(metropolis_weights(g).entries, w)


def loop_failure_run(z0, cfg, rng):
    """Reference link-failure run: the recurrence step by step, each step's
    weights redrawn by the per-edge loop from ``rng``."""
    graph, p = cfg.weights.graph, cfg.link_failure_prob

    def weights():
        return loop_failure_weights(graph, rng, p)

    x = z0[..., None] if z0.ndim == 1 else z0.copy()
    cheb = cfg.cheb
    if cfg.engine == "standard" or cheb.is_degenerate or cfg.iterations == 0:
        for _ in range(cfg.iterations):
            x = weights() @ x
    else:
        lam_sum = cheb.lambda_max + cheb.lambda_min
        lam_diff = cheb.lambda_max - cheb.lambda_min

        def apply_b(x):
            return (2.0 * (weights() @ x) - lam_sum * x) / lam_diff

        x_prev = x.copy()
        x = apply_b(x) / cheb.b1
        tau_prev, tau = 1.0, cheb.b1
        for _ in range(2, cfg.iterations + 1):
            tau_next = 2.0 * cheb.b1 * tau - tau_prev
            x_next = (2.0 * tau / tau_next) * apply_b(x) - (tau_prev / tau_next) * x_prev
            x_prev, x = x, x_next
            tau_prev, tau = tau, tau_next
    return x[..., 0] if z0.ndim == 1 else x


class TestFailureStackRecurrence:
    @staticmethod
    def inputs(k):
        rng = np.random.default_rng(8)
        yield rng.standard_normal(k)
        yield rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4))
        yield rng.standard_normal((3, k, 2)) + 1j * rng.standard_normal((3, k, 2))

    @pytest.mark.parametrize("iters", [0, 1, 2, 30])
    @pytest.mark.parametrize(
        "engine,network",
        [("standard", "geometric"), ("chebyshev", "geometric"), ("chebyshev", "complete")],
    )
    def test_matches_per_step_loop(self, engine, network, iters):
        if network == "complete":
            w = complete_weights(12)
        else:
            w = metropolis_weights(generate_random_geometric(12, 0.5, 2))
        cp = spectral_bounds(w)
        assert cp.is_degenerate == (network == "complete")
        for z0 in self.inputs(12):
            cfg = AcConfig(
                engine, iters, weights=w, cheb=cp, link_failure_prob=0.2, failure_seed=5
            )
            loop_rng = np.random.default_rng(5)
            # the second call continues the config's failure stream
            for _ in range(2):
                ref = loop_failure_run(z0, cfg, loop_rng)
                z = run_consensus(z0, cfg).z
                assert z.shape == z0.shape and z.dtype == ref.dtype
                assert np.array_equal(z, ref)


class TestMixingOperator:
    @staticmethod
    def inputs():
        rng = np.random.default_rng(4)
        real_1d = rng.standard_normal(12)
        complex_2d = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
        return real_1d, complex_2d

    def check_against_recurrence(self, cfg):
        for z0 in self.inputs():
            x0 = z0.reshape(z0.shape[0], -1)
            ref = _iterate(x0, cfg)
            assert max_rel_diff(_mixing_operator(cfg) @ x0, ref) <= 1e-13
            z = run_consensus(z0, cfg).z
            assert z.shape == z0.shape
            assert max_rel_diff(z.reshape(x0.shape), ref) <= 1e-13

    @pytest.mark.parametrize("engine", ["standard", "chebyshev"])
    @pytest.mark.parametrize("iters", [0, 1, 2, 30])
    def test_matches_recurrence(self, engine, iters):
        w = metropolis_weights(generate_random_geometric(12, 0.5, 2))
        cp = spectral_bounds(w)
        assert not cp.is_degenerate
        self.check_against_recurrence(AcConfig(engine, iters, weights=w, cheb=cp))

    @pytest.mark.parametrize("iters", [0, 1, 2, 30])
    def test_degenerate_chebyshev_matches_recurrence(self, iters):
        w = complete_weights(12)
        cp = spectral_bounds(w)
        assert cp.is_degenerate
        self.check_against_recurrence(AcConfig("chebyshev", iters, weights=w, cheb=cp))

    def test_built_once_per_engine_and_iterations(self, path3_weights, path3_cheb):
        z0 = np.arange(6.0).reshape(3, 2)
        for _ in range(3):
            for engine in ("standard", "chebyshev"):
                run_consensus(z0, AcConfig(engine, 4, weights=path3_weights, cheb=path3_cheb))
        assert len(path3_weights._operators) == 2
        cfg = AcConfig("chebyshev", 4, weights=path3_weights, cheb=path3_cheb)
        assert _mixing_operator(cfg) is _mixing_operator(cfg)

    def test_operator_dies_with_its_weights(self):
        w = metropolis_weights(generate_random_geometric(12, 0.5, 2))
        cfg = AcConfig("standard", 5, weights=w)
        run_consensus(np.ones((12, 2)), cfg)
        (op,) = w._operators.values()
        refs = [weakref.ref(w), weakref.ref(op)]
        del w, cfg, op
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_weight_matrices_never_share_an_operator(self):
        g1 = generate_random_geometric(12, 0.5, 2)
        g2 = generate_random_geometric(12, 0.5, 5)
        w1, w1_again, w2 = metropolis_weights(g1), metropolis_weights(g1), metropolis_weights(g2)
        z0 = np.random.default_rng(0).standard_normal((12, 3))
        ops = []
        for w in (w1, w1_again, w2):
            cfg = AcConfig("chebyshev", 6, weights=w, cheb=spectral_bounds(w))
            assert max_rel_diff(run_consensus(z0, cfg).z, _iterate(z0, cfg)) <= 1e-13
            (op,) = w._operators.values()
            ops.append(op)
        assert ops[0] is not ops[1] and ops[0] is not ops[2]
        assert not np.allclose(ops[0], ops[2])


class TestDegrees:
    def test_read_only_and_matches_edge_count(self):
        g = generate_random_geometric(40, 0.4, 3)
        deg = g.degrees()
        expected = np.zeros(40, dtype=np.int64)
        for u, v in g.edges:
            expected[u] += 1
            expected[v] += 1
        assert np.array_equal(deg, expected)
        assert deg is g.degrees()
        with pytest.raises(ValueError):
            deg[0] = 0

    def test_edgeless_graph(self):
        assert Graph(1, ()).degrees().tolist() == [0]
