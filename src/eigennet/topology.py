"""Network graphs and consensus weight matrices.

Graphs are undirected, without self-loops. Simulations require connectivity,
which is checked by breadth-first search from node 0. Consensus mixing uses
Metropolis weights, w_ij = 1/(1 + max(d_i, d_j)) on edges, which yields a
symmetric row-stochastic matrix whose spectrum lies in (-1, 1] with a simple
eigenvalue at 1 on connected graphs.
"""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError

__all__ = [
    "Graph",
    "WeightMatrix",
    "ChebyshevParams",
    "generate_random_geometric",
    "load_edge_list",
    "dump_edge_list",
    "metropolis_weights",
    "spectral_bounds",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 0..node_count-1.

    ``positions`` is only populated by the geometric generator, for
    reproducibility and plot emission; no algorithm reads it.
    ``edge_index`` holds the edge endpoints as a read-only 2 x E integer
    array (row 0 the smaller endpoint), for vectorized weight construction.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    positions: np.ndarray | None = field(default=None, compare=False)
    edge_index: np.ndarray = field(init=False, repr=False, compare=False)
    _degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise TopologyError("graph needs at least one node")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise TopologyError(f"self-loop on node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise TopologyError(f"edge ({u}, {v}) out of range")
            if u > v:
                raise TopologyError("edges must be stored as (min, max) pairs")
            if (u, v) in seen:
                raise TopologyError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        edge_index = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        edge_index.setflags(write=False)
        deg = np.bincount(edge_index.ravel(), minlength=self.node_count)
        deg.setflags(write=False)
        object.__setattr__(self, "edge_index", edge_index)
        object.__setattr__(self, "_degrees", deg)

    def degrees(self) -> np.ndarray:
        """Node degrees, computed once at construction (read-only)."""
        return self._degrees

    def adjacency_lists(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        adj = self.adjacency_lists()
        seen = [False] * self.node_count
        seen[0] = True
        queue = deque([0])
        reached = 1
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    queue.append(w)
        return reached == self.node_count

    def require_connected(self) -> None:
        if not self.is_connected():
            raise TopologyError("graph is not connected")


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric row-stochastic consensus weights on a graph.

    ``_operators`` caches fixed-weight consensus operators built from these
    entries (see :mod:`eigennet.consensus`); it lives and dies with this
    object, so no two weight matrices share one.
    """

    entries: np.ndarray = field(compare=False)
    graph: Graph = field(compare=False)
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def validate(self, tol: float = 1e-12) -> None:
        """Raise if symmetry, stochasticity or the sparsity pattern is violated."""
        w = self.entries
        k = self.node_count
        if w.shape != (k, k):
            raise TopologyError("weight matrix shape does not match graph")
        if not np.allclose(w, w.T, rtol=0.0, atol=tol):
            raise TopologyError("weight matrix is not symmetric")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > tol:
            raise TopologyError("weight matrix rows do not sum to 1")
        allowed = np.eye(k, dtype=bool)
        for u, v in self.graph.edges:
            allowed[u, v] = allowed[v, u] = True
        if np.any((np.abs(w) > tol) & ~allowed):
            raise TopologyError("nonzero weight off the graph edge set")


@dataclass(frozen=True)
class ChebyshevParams:
    """Spectral bounds of the mixing matrix on the disagreement subspace.

    ``b1`` maps the consensus eigenvalue 1 under the affine rescaling of the
    weight matrix; accelerated averaging damps disagreement by the Chebyshev
    scalar sequence seeded with this value. A degenerate spectrum
    (lambda_min == lambda_max) is signalled by ``b1 = inf`` and makes the
    accelerated engine fall back to plain one-step averaging.
    """

    lambda_min: float
    lambda_max: float
    b1: float

    @property
    def is_degenerate(self) -> bool:
        return not np.isfinite(self.b1)


def generate_random_geometric(
    k: int, radius: float, rng_seed: int, *, max_retries: int = 100
) -> Graph:
    """Place k nodes uniformly in the unit square, connect pairs within radius.

    Placement is redrawn (up to ``max_retries`` times) until the graph is
    connected; raises :class:`TopologyError` when the budget is exhausted.
    """
    if k < 2:
        raise TopologyError("geometric generator needs at least 2 nodes")
    if radius <= 0:
        raise TopologyError("radius must be positive")
    rng = np.random.default_rng(rng_seed)
    for _ in range(max_retries):
        pos = rng.random((k, 2))
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        iu, ju = np.triu_indices(k, 1)
        mask = dist[iu, ju] <= radius
        edges = tuple((int(u), int(v)) for u, v in zip(iu[mask], ju[mask]))
        g = Graph(k, edges, positions=pos)
        if g.is_connected():
            return g
    raise TopologyError(
        f"no connected geometric graph found in {max_retries} placements "
        f"(k={k}, radius={radius})"
    )


def load_edge_list(source) -> Graph:
    """Parse the edge-list text format: first line node count, then 'u v' lines.

    Accepts a string, bytes, or a readable stream. Duplicate edges are
    collapsed. Connectivity is not enforced here; callers check on demand.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    else:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    lines = [ln.strip() for ln in io.StringIO(text)]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise TopologyError("empty edge-list input")
    try:
        k = int(lines[0])
    except ValueError as exc:
        raise TopologyError(f"bad node count line: {lines[0]!r}") from exc
    edges: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise TopologyError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise TopologyError(f"bad edge line: {ln!r}") from exc
        if not (0 <= u < k and 0 <= v < k):
            raise TopologyError(f"edge ({u}, {v}) out of range for {k} nodes")
        if u == v:
            raise TopologyError(f"self-loop on node {u}")
        edges.add((min(u, v), max(u, v)))
    return Graph(k, tuple(sorted(edges)))


def dump_edge_list(g: Graph) -> str:
    """Serialize a graph back to the edge-list text format."""
    out = [str(g.node_count)]
    out.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"


def metropolis_entries(k: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dense K x K Metropolis weights on the edges (u[e], v[e]).

    Degrees are counted over the given edges only, so passing a subset of a
    graph's ``edge_index`` columns yields the weights of that subgraph.
    """
    deg = np.bincount(u, minlength=k) + np.bincount(v, minlength=k)
    wij = 1.0 / (1.0 + np.maximum(deg[u], deg[v]))
    w = np.zeros((k, k))
    w[u, v] = wij
    w[v, u] = wij
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Metropolis weights: w_ij = 1/(1 + max(d_i, d_j)) on edges.

    Diagonal entries absorb the remaining mass so that rows sum to 1. The
    entries are read-only, because consensus operators cached on the
    returned object are built from them.
    """
    g.require_connected()
    w = metropolis_entries(g.node_count, *g.edge_index)
    w.setflags(write=False)
    return WeightMatrix(w, g)


def spectral_bounds(w: WeightMatrix) -> ChebyshevParams:
    """Bounds on the disagreement spectrum of W, for Chebyshev acceleration.

    lambda_max is the second-largest and lambda_min the smallest eigenvalue
    of W, computed with the dense Hermitian solver. When the disagreement
    spectrum collapses to a point (complete-graph-like W), the returned
    params carry b1 = inf, which downgrades the accelerated engine to plain
    averaging.
    """
    from .eigencore import dense_hermitian_eig

    values = dense_hermitian_eig(w.entries).values
    if abs(values[0] - 1.0) > 1e-9:
        raise TopologyError("weight matrix lacks the consensus eigenvalue 1")
    lam_max = float(values[1]) if len(values) > 1 else 0.0
    lam_min = float(values[-1]) if len(values) > 1 else 0.0
    # Metropolis weights on a connected graph already keep the spectrum
    # inside (-1, 1]; the clamp only guards pathological inputs.
    lam_min = max(lam_min, -1.0 + 1e-9)
    if lam_max - lam_min <= 1e-12:
        return ChebyshevParams(lam_min, max(lam_max, lam_min), np.inf)
    b1 = (2.0 - lam_max - lam_min) / (lam_max - lam_min)
    return ChebyshevParams(lam_min, lam_max, b1)
