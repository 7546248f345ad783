import dataclasses
import gc
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from eigennet.consensus import (
    AcConfig,
    ErrorInjectingEngine,
    _chebyshev_coefficients,
    _failure_masks,
    _iterate,
    _mixing_operator,
    run_consensus,
)
from eigennet.errors import ConsensusError, TopologyError
from eigennet.experiments import run_ac_compare
from eigennet.harness import validate_config
from eigennet.topology import (
    ChebyshevParams,
    Graph,
    WeightMatrix,
    generate_random_geometric,
    metropolis_stack,
    metropolis_weights,
    spectral_bounds,
)

from conftest import ReplayEngine, consensus_deviation, random_connected_graph


def complete_weights(k):
    g = Graph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)))
    return metropolis_weights(g)


class TestEngines:
    @pytest.mark.parametrize("engine", ["ideal", "standard", "chebyshev"])
    def test_identical_rows_are_fixed_point(self, engine, path3_weights):
        z0 = np.tile(np.array([1.0 + 2.0j, -0.5j, 3.0]), (3, 1))
        cfg = AcConfig(engine, 4, weights=path3_weights)
        res = run_consensus(z0, cfg)
        assert np.allclose(res.z, z0, atol=1e-12)
        assert np.max(np.abs(consensus_deviation(z0, res.z))) < 1e-12

    def test_ideal_identity_input(self):
        res = run_consensus(np.eye(2), AcConfig("ideal", 0))
        assert np.array_equal(res.z, np.full((2, 2), 0.5))
        assert not consensus_deviation(np.eye(2), res.z).any()  # exactly zero

    def test_standard_complete_graph_one_step_exact(self):
        w = complete_weights(4)
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        res = run_consensus(z0, AcConfig("standard", 1, weights=w))
        assert np.max(np.abs(consensus_deviation(z0, res.z))) < 1e-14

    def test_chebyshev_path3_hand_damping(self, path3_weights):
        # b1 = 2 gives the scalar sequence 1, 2, 7, 26
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal((3, 5))
        mean = z0.mean(axis=0)
        res = run_consensus(z0, AcConfig("chebyshev", 3, weights=path3_weights))
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
        res = run_consensus(z0, AcConfig("chebyshev", 1, weights=w))
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
        rng = np.random.default_rng(seed)
        z0 = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        for engine in ("standard", "chebyshev"):
            cfg = AcConfig(
                engine, 9, weights=w,
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

    def test_determinism_bit_identical(self, path3_weights):
        rng = np.random.default_rng(9)
        z0 = rng.standard_normal((3, 4))

        def once():
            cfg = AcConfig(
                "chebyshev", 6, weights=path3_weights,
                link_failure_prob=0.3, failure_seed=77,
            )
            return run_consensus(z0, cfg)

        a, b = once(), once()
        assert np.array_equal(a.z, b.z)

    def test_message_counters(self, path3_weights):
        res = run_consensus(np.zeros((3, 4)), AcConfig("standard", 5, weights=path3_weights))
        assert res.scalars_exchanged_per_node.tolist() == [20, 40, 20]

    def test_error_identity_recomputed(self, path3_weights):
        rng = np.random.default_rng(2)
        z0 = rng.standard_normal((3, 2))
        res = run_consensus(z0, AcConfig("standard", 3, weights=path3_weights))
        # the deviation from the mean is (W^3 - 1 1^T / K) z0
        w = path3_weights.entries
        oracle = (np.linalg.matrix_power(w, 3) - np.full((3, 3), 1.0 / 3.0)) @ z0
        assert np.max(np.abs(consensus_deviation(z0, res.z) - oracle)) < 1e-12


class TestValidation:
    def test_dimension_mismatch(self, path3_weights):
        with pytest.raises(ConsensusError):
            run_consensus(np.zeros((4, 2)), AcConfig("standard", 1, weights=path3_weights))

    def test_unknown_engine(self):
        with pytest.raises(ConsensusError):
            AcConfig("gossip", 1)

    def test_bounds_are_not_a_setting(self, path3_weights):
        # a chebyshev run reads its bounds from the weights it mixes with
        with pytest.raises(TypeError):
            AcConfig("chebyshev", 1, weights=path3_weights, **{"cheb": path3_weights.bounds})

    def test_failures_need_seed(self, path3_weights):
        with pytest.raises(ConsensusError):
            AcConfig("standard", 1, weights=path3_weights, link_failure_prob=0.1)

    def test_negative_iterations(self, path3_weights):
        with pytest.raises(ConsensusError):
            AcConfig("standard", -1, weights=path3_weights)


class TestSyntheticEngines:
    """The synthetic engines take (trials, K, m) stacks, as the algorithms
    hand them."""

    def test_injection_adds_prescribed_error(self):
        z0 = np.array([[[1.0 + 0j, 2.0], [3.0, 4.0]]])
        err = np.array([[[0.1 + 0j, 0.0], [0.0, -0.1]]])
        res = ErrorInjectingEngine([err]).run(z0)
        assert np.allclose(res.z, z0.mean(axis=1, keepdims=True) + err, atol=1e-15)
        assert np.allclose(consensus_deviation(z0, res.z), err, atol=1e-15)

    def test_injection_rejects_complex_error_on_real_input(self):
        with pytest.raises(ConsensusError):
            ErrorInjectingEngine([np.array([[[0.1j], [0.0]]])]).run(np.array([[[1.0], [2.0]]]))

    def test_injection_shape_check(self):
        with pytest.raises(ConsensusError):
            ErrorInjectingEngine([np.zeros((1, 2, 2))]).run(np.zeros((1, 2, 3)))

    def test_injection_takes_stacks_only(self):
        for z0 in (np.zeros(2), np.zeros((2, 3))):
            with pytest.raises(ConsensusError, match="takes \\(trials, K, m\\) stacks"):
                ErrorInjectingEngine([np.zeros_like(z0)]).run(z0)

    def test_injection_exhaustion(self):
        eng = ErrorInjectingEngine([np.zeros((1, 2, 1))])
        eng.run(np.zeros((1, 2, 1)))
        with pytest.raises(ConsensusError):
            eng.run(np.zeros((1, 2, 1)))

    def test_replay_returns_recorded_output(self):
        out = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        res = ReplayEngine([out]).run(np.zeros((1, 2, 2)))
        assert np.array_equal(res.z, out)


def broadcast_inputs():
    rng = np.random.default_rng(17)
    k = 40
    yield rng.standard_normal(k)
    yield rng.standard_normal((k, 3))
    yield rng.standard_normal((k, 10)) + 1j * rng.standard_normal((k, 10))
    yield 1e-300 * rng.standard_normal((k, 2)) - 1e300j * rng.standard_normal((k, 2))


class TestBroadcastFormulation:
    """The engines' outputs, bit for bit against the np.tile and
    np.broadcast_to formulation they replaced (kept here as the reference)."""

    @staticmethod
    def two_d(z0):
        return z0[:, None] if z0.ndim == 1 else z0

    def test_run_consensus_matches_tile_and_broadcast_to(self):
        g = generate_random_geometric(40, 0.4, 3)
        w = metropolis_weights(g)
        configs = [
            lambda: AcConfig("ideal", 0),
            lambda: AcConfig("standard", 7, weights=w),
            lambda: AcConfig("standard", 0, weights=w),
            lambda: AcConfig("chebyshev", 12, weights=w),
            lambda: AcConfig(
                "chebyshev", 5, weights=w, link_failure_prob=0.3, failure_seed=4
            ),
        ]
        for make in configs:
            for z0 in broadcast_inputs():
                cfg = make()
                res = run_consensus(z0, cfg)
                assert res.z.shape == z0.shape and res.z.dtype == z0.dtype
                if cfg.engine == "ideal":
                    x0 = self.two_d(z0)
                    z_old = np.tile(x0.mean(axis=0), (x0.shape[0], 1))
                    assert np.array_equal(res.z, z_old[:, 0] if z0.ndim == 1 else z_old)

    def test_synthetic_engines_match_broadcast_to(self):
        rng = np.random.default_rng(3)
        for z0 in broadcast_inputs():
            # each input as the one-trial stack the synthetic engines take
            x0 = z0.reshape(1, len(z0), -1)
            err = rng.standard_normal(x0.shape)
            z_old = x0[0].mean(axis=0)[None, None, :] + err
            res = ErrorInjectingEngine([err]).run(x0)
            assert np.array_equal(res.z, z_old)
            out = rng.standard_normal(x0.shape)
            assert np.array_equal(ReplayEngine([out]).run(x0).z, out)


class TestRealProduct:
    """Real weights times a complex input, as one real product: a fixed-weight
    run applies its real operator to the input's real view."""

    @staticmethod
    def config(k, seed=3):
        return AcConfig("standard", 3, weights=metropolis_weights(random_connected_graph(k, seed)))

    @staticmethod
    def complex_inputs(k, scale):
        rng = np.random.default_rng(41)

        def draw(*shape):
            return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        yield draw(k)
        yield draw(k, 1)
        yield draw(k, 6)
        yield draw(4, k, 3)
        # a conjugated transpose: Fortran-ordered, not C-contiguous
        yield draw(6, k).T.conj()
        # a sliced stack: strided in every axis
        yield draw(6, k, 8)[::2, :, 1::2]
        if scale == 1.0:  # the range of complex64 holds only the unit scale
            yield draw(k, 3).astype(np.complex64)

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_matches_complex_product(self, scale):
        cfg = self.config(9)
        op = _mixing_operator(cfg)
        for x in self.complex_inputs(9, scale):
            got = run_consensus(x, cfg).z
            want = op.astype(complex) @ x
            assert got.shape == want.shape and got.dtype == want.dtype
            bound = 1e-15 * np.linalg.norm(op) * np.linalg.norm(x)
            assert np.max(np.abs(got - want)) <= bound

    def test_real_input_is_the_plain_product(self):
        cfg = self.config(9)
        op = _mixing_operator(cfg)
        rng = np.random.default_rng(43)
        for shape in ((9,), (9, 1), (9, 5), (3, 9, 2)):
            x = rng.standard_normal(shape)
            got = run_consensus(x, cfg).z
            assert got.dtype == x.dtype
            assert np.array_equal(got, op @ x)
        x = rng.standard_normal((9, 6))[:, ::2]
        assert np.array_equal(run_consensus(x, cfg).z, op @ x)

    @pytest.mark.parametrize("trials", [2, 3, 32])
    def test_each_trial_equals_its_lone_product(self, trials):
        cfg = self.config(40)
        rng = np.random.default_rng(trials)
        x = rng.standard_normal((trials, 40, 10)) + 1j * rng.standard_normal((trials, 40, 10))
        stacked = run_consensus(x, cfg).z
        for t in range(trials):
            assert np.array_equal(stacked[t], run_consensus(x[t], cfg).z)


def node_weight_sums(graph, wij):
    """Each node's sum of its edges' weights (..., E), as the builder adds
    them: the weights in edge order, padded with zeros to the largest degree
    (or 1), then the second half of the slots added onto the first, the
    middle slot of an odd count kept, until one is left."""
    wij = np.asarray(wij, dtype=float)
    edges_at = [[] for _ in range(graph.node_count)]
    for e, (u, v) in enumerate(graph.edges):
        edges_at[u].append(e)
        edges_at[v].append(e)
    width = max(max(graph.degrees()), 1)
    sums = np.empty(wij.shape[:-1] + (graph.node_count,))
    for node, edges in enumerate(edges_at):
        slots = [wij[..., e] for e in edges] + [np.zeros(wij.shape[:-1])] * (width - len(edges))
        while len(slots) > 1:
            half = len(slots) // 2
            rest = len(slots) - half
            slots = [slots[j] + slots[rest + j] for j in range(half)] + slots[half:rest]
        sums[..., node] = slots[0]
    return sums


def plain_stack(g, alive):
    """The builder's chunks of plain Metropolis weights: scale 1, shift 0."""
    steps = len(alive)
    return metropolis_stack(g, alive, np.ones(steps), np.zeros(steps))


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
    np.fill_diagonal(w, 1.0 - node_weight_sums(graph, [w[u, v] for u, v in graph.edges]))
    return w


def max_rel_diff(got, ref):
    return np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)


def recurrence(x0, cfg):
    """The engine's step-by-step recurrence on a (K, m) or (B, K, m) ``x0``,
    through the (B, K, 2m) real stack that run_consensus gives it."""
    as_complex = x0.dtype.kind == "c"
    x = x0.reshape((-1,) + x0.shape[-2:])
    x = np.ascontiguousarray(x, dtype=complex if as_complex else float).view(float)
    x = _iterate(x, cfg)
    return (x.view(complex) if as_complex else x).reshape(x0.shape)


def trial_seeds(x0, seed):
    """One failure seed per trial of a (K, m) or (B, K, m) ``x0``: ``seed``,
    ``seed`` + 1, ..."""
    return [seed + b for b in range(len(x0) if x0.ndim == 3 else 1)]


def trial_rngs(x0, seed):
    """The generators of :func:`trial_seeds`: a config's and a reference's."""
    return [np.random.default_rng(s) for s in trial_seeds(x0, seed)]


class TestTrialStack:
    @pytest.mark.parametrize("engine", ["ideal", "standard", "chebyshev"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_each_trial_equals_its_lone_run(self, engine, width):
        w = metropolis_weights(random_connected_graph(7, 2))
        cfg = AcConfig(engine, 5, weights=w)
        rng = np.random.default_rng(4)
        z0 = rng.standard_normal((4, 7, width)) + 1j * rng.standard_normal((4, 7, width))
        res = run_consensus(z0, cfg)
        assert res.z.shape == z0.shape
        assert res.scalars_exchanged_per_node.shape == (4, 7)
        for t in range(4):
            alone = run_consensus(z0[t], cfg)
            assert np.array_equal(res.z[t], alone.z)
            assert np.array_equal(
                res.scalars_exchanged_per_node[t], alone.scalars_exchanged_per_node
            )
            # a scalar round gives the same values as a one-column one
            if width == 1:
                assert np.array_equal(res.z[t, :, 0], run_consensus(z0[t, :, 0], cfg).z)


class TestStackRun:
    """One engine's ``run`` on a (trials, K, m) stack, a scalar round as
    (trials, K, 1), as the algorithms hand it every round."""

    K = 7

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("trials", [1, 3])
    def test_synthetic_engines_average_over_nodes(self, trials, width):
        rng = np.random.default_rng(8)
        z0 = rng.standard_normal((trials, self.K, width))
        node_mean = z0.mean(axis=1, keepdims=True)
        err = 0.01 * rng.standard_normal(z0.shape)
        out = rng.standard_normal(z0.shape)
        for engine, want in (
            (ErrorInjectingEngine([err]), node_mean + err),
            (ReplayEngine([out]), out),
        ):
            res = engine.run(z0)
            assert np.array_equal(res.z, want)
            assert res.scalars_exchanged_per_node.shape == (trials, self.K)
            assert not np.any(res.scalars_exchanged_per_node)
        res = ErrorInjectingEngine([err]).run(z0)
        assert np.allclose(res.z - node_mean, err, atol=1e-15)

    @pytest.mark.parametrize("iters", [0, 2])
    def test_failure_generator_count_must_match(self, iters, path3_weights):
        def make(seed):
            return AcConfig(
                "standard", iters, weights=path3_weights, link_failure_prob=0.3, failure_seed=seed
            )

        # one generator per trial: an int seed is the one-trial config
        for z0 in (np.zeros((3, 3, 1)), np.zeros((3, 3, 2))):
            for seed, count in ((1, 1), ([1, 2], 2)):
                match = f"need one failure generator each, not {count}"
                with pytest.raises(ConsensusError, match=match):
                    make(seed).run(z0)
            assert make([1, 2, 3]).run(z0).z.shape == z0.shape
        # a lone input is one trial
        with pytest.raises(ConsensusError, match="1 stacked trials"):
            make([1, 2]).run(np.zeros((3, 2)))
        assert make(1).run(np.zeros((3, 2))).z.shape == (3, 2)


class TestFailureRedraw:
    @pytest.mark.parametrize("p", [0.0, 0.03, 0.5, 0.999])
    def test_matches_per_edge_loop(self, p, path3):
        graphs = [path3, generate_random_geometric(40, 0.4, 3), Graph(1, ())]
        for g in graphs:
            fast_rng = np.random.default_rng(11)
            loop_rng = np.random.default_rng(11)
            for steps in (0, 1, 30, 1, 0, 29):
                alive = _failure_masks([fast_rng], p, steps, len(g.edges))
                stack = [w[0].copy() for chunk in plain_stack(g, alive) for w in chunk]
                assert len(stack) == steps
                for fast in stack:
                    assert fast.shape == (g.node_count, g.node_count)
                    assert np.array_equal(fast, loop_failure_weights(g, loop_rng, p))
                # the one (steps, E) draw left the generator where steps * E
                # scalar draws leave it
                assert fast_rng.random() == loop_rng.random()

    def test_edgeless_single_node(self):
        alive = _failure_masks([np.random.default_rng(0)], 0.5, 3, 0)
        (w,) = plain_stack(Graph(1, ()), alive)
        assert np.array_equal(w, np.ones((3, 1, 1, 1)))

    def test_no_failures_reproduce_metropolis_weights(self):
        g = generate_random_geometric(40, 0.4, 3)
        w = loop_failure_weights(g, np.random.default_rng(0), 0.0)
        assert np.array_equal(metropolis_weights(g).entries, w)


def loop_failure_run(z0, cfg, rngs):
    """Reference link-failure run: the recurrence step by step, each step's
    weights redrawn by the per-edge loop, trial b's from ``rngs[b]``."""
    if z0.ndim == 3:
        return np.stack([loop_failure_run(z, cfg, [rng]) for z, rng in zip(z0, rngs, strict=True)])
    (rng,) = rngs
    graph, p = cfg.weights.graph, cfg.link_failure_prob
    weights = [loop_failure_weights(graph, rng, p) for _ in range(cfg.iterations)]
    x = z0[..., None] if z0.ndim == 1 else z0.copy()
    cheb = cfg.weights.bounds
    if cfg.engine == "standard" or cheb.is_degenerate or cfg.iterations == 0:
        for w in weights:
            x = w @ x
    else:
        eye = np.eye(graph.node_count)
        x_prev = np.zeros_like(x)
        for w, (a, d, c) in zip(weights, folded_coefficients(cheb, cfg.iterations)):
            x_prev, x = x, (a * w + d * eye) @ x - c * x_prev
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
                engine, iters, weights=w, link_failure_prob=0.2, failure_seed=trial_seeds(z0, 5)
            )
            loop_rngs = trial_rngs(z0, 5)
            # the second call continues the config's failure streams
            for _ in range(2):
                ref = loop_failure_run(z0, cfg, loop_rngs)
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
            ref = recurrence(x0, cfg)
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
        self.check_against_recurrence(AcConfig(engine, iters, weights=w))

    @pytest.mark.parametrize("iters", [0, 1, 2, 30])
    def test_degenerate_chebyshev_matches_recurrence(self, iters):
        w = complete_weights(12)
        cp = spectral_bounds(w)
        assert cp.is_degenerate
        self.check_against_recurrence(AcConfig("chebyshev", iters, weights=w))

    def test_built_once_per_engine_and_iterations(self, path3_weights):
        z0 = np.arange(6.0).reshape(3, 2)
        for _ in range(3):
            for engine in ("standard", "chebyshev"):
                run_consensus(z0, AcConfig(engine, 4, weights=path3_weights))
        assert len(path3_weights._operators) == 2
        cfg = AcConfig("chebyshev", 4, weights=path3_weights)
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
            cfg = AcConfig("chebyshev", 6, weights=w)
            assert max_rel_diff(run_consensus(z0, cfg).z, recurrence(z0, cfg)) <= 1e-13
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


# Naive complex-typed recurrences, a fresh array per step, with a one-pass
# weight build and each step's scalars folded in after it: the reference that
# the kernel, which writes each step's folded matrix straight from the edge
# weights, must reproduce to the bit.


def reference_metropolis_stack(g, alive):
    """(S, K, K) Metropolis weights of an (S, E) mask, built in one pass, with
    each diagonal 1 minus the node's sum of edge weights as the builder adds
    them (see node_weight_sums)."""
    k = g.node_count
    u, v = g.edge_index
    steps = alive.shape[0]
    incidence = np.zeros((u.size, k))
    edges = np.arange(u.size)
    incidence[edges, u] = 1.0
    incidence[edges, v] = 1.0
    up = alive.astype(float)
    deg = up @ incidence
    wij = up / (1.0 + np.maximum(deg[:, u], deg[:, v]))
    w = np.zeros((steps, k, k))
    flat = w.reshape(steps, k * k)
    flat[:, np.concatenate((u * k + v, v * k + u))] = np.tile(wij, 2)
    flat[:, :: k + 1] = 1.0 - node_weight_sums(g, wij)
    return w


def reference_real_matmul(w, x):
    if x.dtype.kind != "c":
        return w @ x
    if x.ndim == 1:
        return reference_real_matmul(w, x[:, None])[:, 0]
    x = np.ascontiguousarray(x, dtype=complex)
    return (w @ x.view(float)).view(complex)


def folded_coefficients(cheb, steps):
    """(a_s, d_s, c_s) of steps 1..steps, from the ratios rho_s = tau_{s-1} / tau_s."""
    lam_sum = cheb.lambda_max + cheb.lambda_min
    lam_diff = cheb.lambda_max - cheb.lambda_min
    rho = [1.0 / cheb.b1]
    for _ in range(steps - 1):
        rho.append(1.0 / (2.0 * cheb.b1 - rho[-1]))
    g = [rho[0]] + [2.0 * r for r in rho[1:]]
    c = [0.0] + [r_prev * r for r_prev, r in zip(rho, rho[1:])]
    return [(gs * (2.0 / lam_diff), gs * -(lam_sum / lam_diff), cs) for gs, cs in zip(g, c)]


def reference_chebyshev(x0, weights, cheb):
    """x_s = (a_s W_s + d_s I) x_{s-1} - c_s x_{s-2} from x_{-1} = 0."""
    eye = np.eye(x0.shape[-2])
    x_prev, x = np.zeros_like(x0), x0
    for w, (a, d, c) in zip(weights, folded_coefficients(cheb, len(weights))):
        x_prev, x = x, reference_real_matmul(a * w + d * eye, x) - c * x_prev
    return x


def unfolded_chebyshev(x0, weights, cheb):
    """The recurrence in the scalars tau_s, with B_s applied as (2 W_s x -
    (l_max + l_min) x) / (l_max - l_min): the form the folded steps replaced,
    kept as an oracle. Its tau_s overflow near s = 950 on b1 = 1.287."""
    lam_sum = cheb.lambda_max + cheb.lambda_min
    lam_diff = cheb.lambda_max - cheb.lambda_min
    b1 = cheb.b1

    def apply_b(w, x):
        return (2.0 * reference_real_matmul(w, x) - lam_sum * x) / lam_diff

    x_prev = x0.copy()
    x = apply_b(weights[0], x0) / b1
    tau_prev, tau = 1.0, b1
    for w in weights[1:]:
        tau_next = 2.0 * b1 * tau - tau_prev
        x_next = (2.0 * tau / tau_next) * apply_b(w, x) - (tau_prev / tau_next) * x_prev
        x_prev, x = x, x_next
        tau_prev, tau = tau, tau_next
    return x


def reference_iterate(
    x0, cfg, rngs=None, chebyshev=reference_chebyshev, build=reference_metropolis_stack
):
    """The recurrence on a (K, m) or (trials, K, m) x0, trial by trial, on
    the weights that ``build`` makes of (S, E) masks: under link failures
    one (I, E) draw from ``rngs[b]`` gives trial b's masks, and fixed
    weights are the one all-alive mask's."""
    if x0.ndim == 3:
        per_trial = [None] * len(x0) if rngs is None else [[rng] for rng in rngs]
        return np.stack([
            reference_iterate(x, cfg, r, chebyshev, build)
            for x, r in zip(x0, per_trial, strict=True)
        ])
    graph = cfg.weights.graph
    if rngs is not None:
        (rng,) = rngs
        alive = rng.random((cfg.iterations, len(graph.edges))) >= cfg.link_failure_prob
        weights = build(graph, alive)
    else:
        (w,) = build(graph, np.ones((1, len(graph.edges)), dtype=bool))
        weights = np.broadcast_to(w, (cfg.iterations,) + w.shape)
    cheb = cfg.weights.bounds
    if cfg.engine == "chebyshev" and cfg.iterations > 0 and not cheb.is_degenerate:
        return chebyshev(x0, weights, cheb)
    x = x0.copy()
    for w in weights:
        x = reference_real_matmul(w, x)
    return x


class TestBufferedKernel:
    """The real-view recurrences in preallocated buffers, bit for bit."""

    K = 12

    @staticmethod
    def networks():
        geometric = metropolis_weights(generate_random_geometric(12, 0.5, 2))
        complete = complete_weights(12)
        assert spectral_bounds(complete).is_degenerate
        return {"geometric": geometric, "complete": complete}

    @classmethod
    def inputs(cls, scale):
        rng = np.random.default_rng(51)
        k = cls.K
        for shape in ((k,), (k, 1), (k, 4), (3, k, 1), (3, k, 5)):
            yield scale * rng.standard_normal(shape)
            yield scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    @pytest.mark.parametrize("network", ["geometric", "complete"])
    @pytest.mark.parametrize("engine", ["standard", "chebyshev"])
    @pytest.mark.parametrize("failures", [False, True])
    def test_matches_complex_typed_reference(self, engine, network, failures, scale):
        w = self.networks()[network]
        for iters in (1, 2, 30):
            for z0 in self.inputs(scale):
                x0 = z0[:, None] if z0.ndim == 1 else z0
                cfg = AcConfig(
                    engine, iters, weights=w,
                    link_failure_prob=0.2 if failures else 0.0,
                    failure_seed=trial_seeds(x0, 9) if failures else None,
                )
                rngs = trial_rngs(x0, 9) if failures else None
                want = reference_iterate(x0, cfg, rngs)
                got = recurrence(x0, cfg)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got, want)
                if failures:
                    # the whole run, with a second call continuing the streams
                    z = run_consensus(z0, cfg).z
                    want = reference_iterate(x0, cfg, rngs)
                    assert np.array_equal(z, want[:, 0] if z0.ndim == 1 else want)
                    for own, ref in zip(cfg._failure_rngs, rngs, strict=True):
                        assert own.random() == ref.random()

    @pytest.mark.parametrize("engine", ["standard", "chebyshev"])
    def test_fixed_weight_operator_matches_reference(self, engine):
        for w in self.networks().values():
            cfg = AcConfig(engine, 30, weights=w)
            want = reference_iterate(np.eye(self.K), cfg)
            assert np.array_equal(_mixing_operator(cfg), want)

    @pytest.mark.parametrize("engine", ["standard", "chebyshev"])
    def test_operator_is_the_dense_recurrence_on_the_entries(self, engine):
        # each step's a_s W + d_s I formed densely from the cached entries,
        # a fresh array per step, from x_0 = I
        networks = {
            "complete": complete_weights(self.K),
            "geometric": metropolis_weights(generate_random_geometric(self.K, 0.5, 2)),
        }
        for w in networks.values():
            eye = np.eye(self.K)
            for iters in range(33):
                cfg = AcConfig(engine, iters, weights=w)
                if engine == "chebyshev" and not w.bounds.is_degenerate:
                    steps = folded_coefficients(w.bounds, iters)[:iters]
                else:
                    steps = [(1.0, 0.0, 0.0)] * iters
                x_prev, x = np.zeros_like(eye), eye
                for a, d, c in steps:
                    x_next = (a * w.entries + d * eye) @ x
                    x_prev, x = x, (x_next - c * x_prev if c != 0.0 else x_next)
                assert np.array_equal(_mixing_operator(cfg), x)

    @pytest.mark.parametrize("trials", [1, 2, 3, 32])
    @pytest.mark.parametrize("engine", ["standard", "chebyshev"])
    def test_each_stacked_trial_equals_its_lone_run(self, engine, trials):
        w = metropolis_weights(generate_random_geometric(40, 0.4, 3))
        seeds = [1000 + 7 * t for t in range(trials)]

        def make(failure_seed):
            return AcConfig(
                engine, 15, weights=w,
                link_failure_prob=0.03, failure_seed=failure_seed,
            )

        rng = np.random.default_rng(trials)
        # a width-N round, then a scalar one as the (B, K, 1) stack
        for shape in ((trials, 40, 10), (trials, 40, 1)):
            z0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            block = make(seeds)
            lone = [make(s) for s in seeds]
            # two rounds: the second continues every trial's stream
            for _ in range(2):
                res = block.run(z0)
                assert res.z.shape == z0.shape
                for t in range(trials):
                    alone = lone[t].run(z0[t])
                    assert np.array_equal(res.z[t], alone.z)
                    assert np.array_equal(
                        res.scalars_exchanged_per_node[t], alone.scalars_exchanged_per_node
                    )
            for t in range(trials):
                assert block._failure_rngs[t].random() == lone[t]._failure_rngs[0].random()

    def test_each_trial_draws_from_its_own_generator(self):
        w = metropolis_weights(generate_random_geometric(12, 0.5, 2))
        cfg = AcConfig("standard", 4, weights=w, link_failure_prob=0.3, failure_seed=[5, 6, 7])
        rng = np.random.default_rng(3)
        z0 = rng.standard_normal((3, 12, 2))
        z = run_consensus(z0, cfg).z
        for t, seed in enumerate((5, 6, 7)):
            want = reference_iterate(z0[t], cfg, [np.random.default_rng(seed)])
            assert np.array_equal(z[t], want)


def dense_metropolis_stack(g, alive):
    """(S, K, K) Metropolis weights of an (S, E) mask whose diagonals are 1
    minus the dense row sums: the build before the diagonals came from the
    edge weights."""
    w = reference_metropolis_stack(g, alive)
    for step in w:
        np.fill_diagonal(step, 0.0)
        np.fill_diagonal(step, 1.0 - step.sum(axis=-1))
    return w


class TestParentKernel:
    """The kernel that the direct build replaced, as an oracle: dense weights
    with row-sum diagonals, each step's scalars folded in after the build,
    and the plain loop for ``standard``. Only the diagonals' rounding
    differs."""

    @staticmethod
    def inputs(k, scale):
        rng = np.random.default_rng(53)
        yield scale * rng.standard_normal((k, 3))
        yield scale * (rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4)))
        yield scale * (rng.standard_normal((3, k, 2)) + 1j * rng.standard_normal((3, k, 2)))

    @pytest.mark.parametrize("failures", [False, True])
    @pytest.mark.parametrize("engine", ["standard", "chebyshev"])
    def test_matches_parent_kernel(self, engine, failures):
        # rounding only: the largest relative difference measured here was
        # 3.1e-15 for I <= 30, at I = 1 on the complete network, and 2.5e-14
        # at I = 200, on chebyshev's fixed weights of the geometric one
        networks = dict(TestBufferedKernel.networks())
        networks["shipped"] = TestFoldedCoefficients.shipped_weights()
        for w in networks.values():
            for iters in (1, 2, 30, 200):
                bound = 2e-16 * max(iters, 25)
                for scale in (1.0, 1e150, 1e-150):
                    for z0 in self.inputs(w.node_count, scale):
                        cfg = AcConfig(
                            engine, iters, weights=w,
                            link_failure_prob=0.2 if failures else 0.0,
                            failure_seed=trial_seeds(z0, 9) if failures else None,
                        )
                        draws = trial_rngs(z0, 9) if failures else None
                        want = reference_iterate(z0, cfg, draws, build=dense_metropolis_stack)
                        assert max_rel_diff(recurrence(z0, cfg), want) <= bound

    @pytest.mark.parametrize("failures", [False, True])
    def test_zero_c_step_is_an_exact_no_op(self, failures):
        # ``standard`` through the whole three-term step, A_s = 1 W_s + 0 I
        # and x_{s-2} scaled by c_s = 0 and subtracted, equals the kernel,
        # which skips that subtract, bit for bit on finite inputs
        w = TestBufferedKernel.networks()["geometric"]
        eye = np.eye(12)

        def three_term(x0, weights, cheb):
            x_prev, x = np.zeros_like(x0), x0
            for w_s in weights:
                x_prev, x = x, reference_real_matmul(1.0 * w_s + 0.0 * eye, x) - 0.0 * x_prev
            return x

        def make(engine, x0):
            return AcConfig(
                engine, 30, weights=w,
                link_failure_prob=0.2 if failures else 0.0,
                failure_seed=trial_seeds(x0, 9) if failures else None,
            )

        for scale in (1.0, 1e150, 1e-150):
            for z0 in TestBufferedKernel.inputs(scale):
                x0 = z0[:, None] if z0.ndim == 1 else z0
                draws = trial_rngs(x0, 9) if failures else None
                # the chebyshev config routes the reference to three_term
                want = reference_iterate(x0, make("chebyshev", x0), draws, chebyshev=three_term)
                assert np.array_equal(recurrence(x0, make("standard", x0)), want)


class TestFoldedCoefficients:
    """The ratio form of the Chebyshev scalars, and what it fixes."""

    @staticmethod
    def shipped_weights():
        """The weights of the shipped configs' network (K = 40, b1 = 1.287)."""
        return metropolis_weights(generate_random_geometric(40, 0.4, 3))

    @pytest.mark.parametrize("network", ["shipped", "path3"])
    def test_ratios_match_closed_form(self, network, path3_weights):
        w = self.shipped_weights() if network == "shipped" else path3_weights
        cheb = spectral_bounds(w)
        steps = 300
        a, d, c = _chebyshev_coefficients(cheb, steps)
        # T_s(b1) = cosh(s theta) for b1 = cosh(theta) > 1
        theta = np.arccosh(cheb.b1)
        t = np.cosh(np.arange(steps + 1) * theta)
        rho = t[:-1] / t[1:]  # rho_s = T_{s-1}(b1) / T_s(b1), s = 1..steps
        lam_diff = cheb.lambda_max - cheb.lambda_min
        g = a * (lam_diff / 2.0)
        assert np.allclose(g[0], rho[0], rtol=1e-13, atol=0.0)
        assert np.allclose(g[1:] / 2.0, rho[1:], rtol=1e-13, atol=0.0)
        assert c[0] == 0.0
        assert np.allclose(c[1:], rho[:-1] * rho[1:], rtol=1e-13, atol=0.0)
        # A_s maps the all-ones vector to (a_s + d_s) times itself, and the
        # mean survives the step because a_s + d_s - c_s = 1
        assert np.allclose(a + d - c, 1.0, rtol=0.0, atol=1e-14)

    def test_ratios_stay_finite_where_tau_overflows(self):
        cheb = spectral_bounds(self.shipped_weights())
        a, d, c = _chebyshev_coefficients(cheb, 2000)
        assert all(np.isfinite(v).all() for v in (a, d, c))
        # rho_s tends to the fixed point of rho -> 1 / (2 b1 - rho)
        lam_diff = cheb.lambda_max - cheb.lambda_min
        rho_limit = cheb.b1 - np.sqrt(cheb.b1**2 - 1.0)
        assert abs(a[-1] * lam_diff / 4.0 - rho_limit) <= 1e-15
        assert abs(c[-1] - rho_limit**2) <= 1e-15

    @pytest.mark.parametrize("iters", [1, 2, 30, 500])
    @pytest.mark.parametrize("failures", [False, True])
    @pytest.mark.parametrize("network", ["geometric", "shipped"])
    def test_matches_unfolded_recurrence(self, network, failures, iters):
        # rounding only: the largest relative difference measured here was
        # 7.1e-15 for I <= 30 and 7.8e-14 at I = 500, growing about linearly
        if network == "shipped":
            w = self.shipped_weights()
        else:
            w = TestBufferedKernel.networks()["geometric"]
        k = w.node_count
        bound = 4e-16 * max(iters, 25)
        rng = np.random.default_rng(51)
        inputs = (
            rng.standard_normal((k, 4)) + 1j * rng.standard_normal((k, 4)),
            rng.standard_normal((3, k, 5)),
        )
        for scale in (1.0, 1e150, 1e-150):
            for z0 in inputs:
                x0 = scale * z0
                cfg = AcConfig(
                    "chebyshev", iters, weights=w,
                    link_failure_prob=0.2 if failures else 0.0,
                    failure_seed=trial_seeds(x0, 9) if failures else None,
                )
                draws = trial_rngs(x0, 9) if failures else None
                want = reference_iterate(x0, cfg, draws, chebyshev=unfolded_chebyshev)
                assert max_rel_diff(recurrence(x0, cfg), want) <= bound

    @pytest.mark.parametrize("iters", [1000, 2000])
    @pytest.mark.parametrize("failures", [False, True])
    def test_long_runs_stay_finite(self, failures, iters):
        # tau_s overflowed near s = 950 on this network, and the engine
        # returned NaN on fixed weights and under failures alike
        w = self.shipped_weights()
        cfg = AcConfig(
            "chebyshev", iters, weights=w,
            link_failure_prob=0.03 if failures else 0.0,
            failure_seed=4 if failures else None,
        )
        rng = np.random.default_rng(iters)
        z0 = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        res = run_consensus(z0, cfg)
        assert np.isfinite(res.z.view(float)).all()
        assert np.max(np.abs(consensus_deviation(z0, res.z))) <= 1e-12

    @pytest.mark.parametrize("failures", [False, True])
    def test_near_degenerate_spectrum_stays_finite(self, failures):
        # l_max - l_min = 1e-12 gives b1 = 2e12, whose tau_s overflowed by
        # s = 26; the complete graph mixes to the mean in one step. No graph
        # has that spectrum, so the bounds are seeded into the cache
        w = complete_weights(12)
        vars(w)["bounds"] = ChebyshevParams(-5e-13, 5e-13, 2.0 / 1e-12)
        cfg = AcConfig(
            "chebyshev", 40, weights=w,
            link_failure_prob=0.2 if failures else 0.0,
            failure_seed=6 if failures else None,
        )
        z0 = np.random.default_rng(2).standard_normal((12, 2))
        res = run_consensus(z0, cfg)
        assert np.isfinite(res.z).all()
        assert np.max(np.abs(consensus_deviation(z0, res.z))) <= 1e-12


class TestBoundsFollowWeights:
    @staticmethod
    def own_bounds(w):
        """The disagreement-spectrum bounds of ``w``, from its eigenvalues here."""
        values = np.linalg.eigvalsh(w.entries)
        lam_min, lam_max = float(values[0]), float(values[-2])
        return ChebyshevParams(lam_min, lam_max, (2.0 - lam_max - lam_min) / (lam_max - lam_min))

    @pytest.mark.parametrize("failures", [False, True])
    def test_each_network_runs_on_its_own_bounds(self, failures):
        # two networks of the same size, so a run on one could be given the
        # other's bounds while they were a setting: on the first network's
        # fixed weights, this input then ended 7.1e-4 from the mean, not 1.4e-9
        nets = [
            metropolis_weights(generate_random_geometric(40, radius, seed))
            for radius, seed in ((0.4, 3), (0.25, 5))
        ]
        rng = np.random.default_rng(61)
        z0 = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
        for w, other in (nets, nets[::-1]):
            own = self.own_bounds(w)
            assert own == w.bounds and own != other.bounds
            cfg = AcConfig(
                "chebyshev", 30, weights=w,
                link_failure_prob=0.2 if failures else 0.0,
                failure_seed=9 if failures else None,
            )

            def driven_by(bounds):
                draws = [np.random.default_rng(9)] if failures else None
                return reference_iterate(
                    z0, cfg, draws, chebyshev=lambda x, ws, _: reference_chebyshev(x, ws, bounds)
                )

            got = recurrence(z0, cfg)
            assert np.array_equal(got, driven_by(own))
            assert not np.allclose(got, driven_by(other.bounds), rtol=0.0, atol=1e-6)


class TestMetropolisBuffer:
    @staticmethod
    def graph():
        return generate_random_geometric(40, 0.4, 3)

    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("trials", [1, 3, 32, 33])
    def test_chunks_match_one_pass_build(self, trials, folded):
        g = self.graph()
        rng = np.random.default_rng(trials)
        alive = rng.random((70, trials, len(g.edges))) >= 0.5
        if folded:  # Chebyshev-like scalars, negative shifts included
            scale, shift = 1.0 + rng.random(70), -rng.random(70)
        else:
            scale, shift = np.ones(70), np.zeros(70)
        eye = np.eye(40)
        step = 0
        for chunk in metropolis_stack(g, alive, scale, shift):
            assert chunk.shape[1:] == (trials, 40, 40)
            assert chunk.size // (40 * 40) <= max(32, trials)
            for a in chunk:
                w = reference_metropolis_stack(g, alive[step])
                assert np.array_equal(a, scale[step] * w + shift[step] * eye)
                step += 1
        assert step == 70

    def test_weight_matrix_is_built_from_its_graph(self):
        g = self.graph()
        w = WeightMatrix(g)
        alive = np.ones((1, 1, len(g.edges)), dtype=bool)
        assert np.array_equal(w.entries, next(plain_stack(g, alive))[0, 0])
        assert w.entries is w.entries and not w.entries.flags.writeable
        with pytest.raises(TypeError):
            WeightMatrix(np.eye(40), g)
        with pytest.raises(TopologyError, match="not connected"):
            WeightMatrix(Graph(3, ((0, 1),)))

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("steps", [1, 5, 40])
    def test_weights_equal_every_all_alive_matrix(self, steps, trials):
        g = self.graph()
        w = metropolis_weights(g)
        alive = np.ones((steps, trials, len(g.edges)), dtype=bool)
        chunk = next(plain_stack(g, alive))
        assert all(np.array_equal(a, w.entries) for a in chunk.reshape(-1, 40, 40))

    def test_weights_are_not_a_view_of_a_later_buffer(self):
        g = self.graph()
        w = metropolis_weights(g)
        before = w.entries.copy()
        alive = np.random.default_rng(1).random((40, 1, len(g.edges))) >= 0.5
        for chunk in plain_stack(g, alive):
            assert not np.shares_memory(chunk, w.entries)
        assert np.array_equal(w.entries, before)

    def test_layout_built_once_and_freed_with_its_graph(self):
        g = self.graph()
        assert g._incidence is g._incidence and g._incident_edges is g._incident_edges
        assert g._edge_slots is g._edge_slots
        refs = [
            weakref.ref(g),
            weakref.ref(g._incidence),
            weakref.ref(g._incident_edges),
            weakref.ref(g._edge_slots[0]),
        ]
        del g
        gc.collect()
        assert all(ref() is None for ref in refs)


def test_repeated_ac_compare_runs_hold_no_memory():
    """Six in-process 1-trial ac-compare runs: traced memory after the sixth
    stays within 256 KB of the level after the second, so no buffer outlives
    the run (for example in a cache keyed by the run's graph)."""
    text = (Path(__file__).resolve().parents[1] / "configs" / "ac_compare.cfg").read_text()
    cfg = dataclasses.replace(validate_config(text, "ac-compare"), trials=1)
    levels = []
    tracemalloc.start()
    try:
        for _ in range(6):
            run_ac_compare(cfg)
            gc.collect()
            levels.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert levels[5] - levels[1] <= 256 * 1024
