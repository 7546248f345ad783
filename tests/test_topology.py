import dataclasses

import numpy as np
import pytest

from eigennet.consensus import AcConfig
from eigennet.errors import TopologyError
from eigennet.topology import (
    Graph,
    dump_edge_list,
    generate_random_geometric,
    load_edge_list,
    metropolis_weights,
    spectral_bounds,
)

from conftest import dense_hermitian_eig, random_connected_graph


def bfs_reachable(edges, k):
    """Independent BFS oracle for connectivity checks."""
    adj = {i: [] for i in range(k)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Graph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(TopologyError):
            Graph(2, ((0, 2),))

    def test_degrees(self, path3):
        assert path3.degrees().tolist() == [1, 2, 1]

    def test_connectivity(self, path3):
        assert path3.is_connected()
        assert not Graph(3, ((0, 1),)).is_connected()


class TestGeometric:
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_two_nodes_large_radius(self, seed):
        # diameter of the unit square is below 2, so the edge always exists
        g = generate_random_geometric(2, 2.0, seed)
        assert g.edges == ((0, 1),)

    def test_forty_nodes_connected(self):
        g = generate_random_geometric(40, 0.25, 1)
        assert bfs_reachable(g.edges, 40) == 40

    def test_tiny_radius_exhausts_retries(self):
        with pytest.raises(TopologyError):
            generate_random_geometric(5, 1e-9, 0)

    def test_deterministic(self):
        a = generate_random_geometric(12, 0.5, 7)
        b = generate_random_geometric(12, 0.5, 7)
        assert a.edges == b.edges
        assert np.array_equal(a.positions, b.positions)


class TestEdgeList:
    def test_path_graph(self):
        g = load_edge_list("3\n0 1\n1 2\n")
        assert g.node_count == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_duplicate_edges_collapse(self):
        g = load_edge_list("2\n0 1\n0 1\n")
        assert g.edges == ((0, 1),)

    def test_disconnected_loads_but_flags(self):
        g = load_edge_list("3\n0 1\n")
        assert not g.is_connected()
        with pytest.raises(TopologyError):
            g.require_connected()

    def test_parse_errors(self):
        with pytest.raises(TopologyError):
            load_edge_list("x\n")
        with pytest.raises(TopologyError):
            load_edge_list("3\n0 5\n")
        with pytest.raises(TopologyError):
            load_edge_list("3\n0 1 2\n")
        with pytest.raises(TopologyError):
            load_edge_list("")

    def test_dump_roundtrip(self):
        g = load_edge_list("3\n0 1\n1 2\n")
        assert load_edge_list(dump_edge_list(g)).edges == g.edges


class TestMetropolis:
    def test_complete_graph_is_uniform(self):
        k = 5
        g = Graph(k, tuple((i, j) for i in range(k) for j in range(i + 1, k)))
        w = metropolis_weights(g).entries
        assert np.allclose(w, np.full((k, k), 1.0 / k), atol=1e-15)
        # one consensus step is then the exact average
        rng = np.random.default_rng(0)
        z = rng.standard_normal((k, 3))
        assert np.allclose(w @ z, np.tile(z.mean(axis=0), (k, 1)), atol=1e-14)

    def test_path3_hand_values(self, path3_weights):
        expected = np.array(
            [[2 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 1 / 3, 2 / 3]]
        )
        assert np.allclose(path3_weights.entries, expected, atol=1e-15)

    def test_single_edge(self):
        w = metropolis_weights(Graph(2, ((0, 1),))).entries
        assert np.allclose(w, np.full((2, 2), 0.5), atol=1e-15)

    def test_equality_is_identity(self):
        a = metropolis_weights(generate_random_geometric(10, 0.5, 1))
        b = metropolis_weights(generate_random_geometric(12, 0.5, 1))
        assert a == a
        assert a != b
        assert hash(a) != hash(b)
        assert len({a, b}) == 2
        # same graph, separately built: still two weight matrices
        assert metropolis_weights(a.graph) != a
        assert AcConfig("standard", 5, weights=a) == AcConfig("standard", 5, weights=a)
        assert AcConfig("standard", 5, weights=a) != AcConfig("standard", 5, weights=b)

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError):
            metropolis_weights(Graph(3, ((0, 1),)))

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_on_random_graphs(self, seed):
        g = random_connected_graph(8, seed)
        w = metropolis_weights(g).entries
        assert w.shape == (8, 8)
        assert np.max(np.abs(w - w.T)) <= 1e-12
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
        # no weight off the edge set and the diagonal
        allowed = np.eye(8, dtype=bool)
        allowed[g.edge_index[0], g.edge_index[1]] = True
        allowed[g.edge_index[1], g.edge_index[0]] = True
        assert not np.any((np.abs(w) > 1e-12) & ~allowed)
        # direct formula oracle
        deg = g.degrees()
        for u, v in g.edges:
            assert w[u, v] == pytest.approx(1.0 / (1.0 + max(deg[u], deg[v])), abs=1e-15)
        values = np.sort(np.linalg.eigvalsh(w))
        assert values[0] > -1.0
        assert abs(values[-1] - 1.0) < 1e-12
        assert values[-2] < 1.0 - 1e-9  # eigenvalue 1 is simple


class TestSpectralBounds:
    def test_path3_hand_spectrum(self, path3_weights):
        # characteristic polynomial of the 3x3 gives {1, 2/3, 0}
        cp = spectral_bounds(path3_weights)
        assert cp.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert cp.lambda_max == pytest.approx(2 / 3, abs=1e-12)
        assert cp.b1 == pytest.approx(2.0, abs=1e-12)
        assert not cp.is_degenerate

    def test_single_edge_degenerate(self):
        cp = spectral_bounds(metropolis_weights(Graph(2, ((0, 1),))))
        assert cp.is_degenerate
        assert cp.lambda_min == pytest.approx(cp.lambda_max)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_jacobi_oracle_on_geometric_graphs(self, seed):
        wm = metropolis_weights(generate_random_geometric(20 + 5 * seed, 0.4, seed))
        cp = spectral_bounds(wm)
        values = dense_hermitian_eig(wm.entries).values
        assert abs(values[0] - 1.0) <= 1e-12
        assert cp.lambda_max == pytest.approx(values[1], abs=1e-12)
        assert cp.lambda_min == pytest.approx(values[-1], abs=1e-12)
        b1 = (2.0 - values[1] - values[-1]) / (values[1] - values[-1])
        assert cp.b1 == pytest.approx(b1, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_bracket_disagreement_spectrum(self, seed):
        g = random_connected_graph(9, seed)
        wm = metropolis_weights(g)
        cp = spectral_bounds(wm)
        values = np.sort(np.linalg.eigvalsh(wm.entries))
        disagreement = values[:-1]
        assert np.all(disagreement >= cp.lambda_min - 1e-9)
        assert np.all(disagreement <= cp.lambda_max + 1e-9)

    def test_bounds_are_cached_on_the_weights(self, path3_weights):
        bounds = path3_weights.bounds
        assert path3_weights.bounds is bounds
        assert spectral_bounds(path3_weights) is bounds
        with pytest.raises(dataclasses.FrozenInstanceError):
            path3_weights.bounds = bounds

    def test_weights_without_consensus_eigenvalue_raise(self, path3):
        w = metropolis_weights(path3)
        vars(w)["entries"] = 0.5 * np.eye(3)
        with pytest.raises(TopologyError):
            spectral_bounds(w)
