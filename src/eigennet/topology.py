"""Network graphs and consensus weight matrices.

Graphs are undirected, without self-loops. Simulations require connectivity,
which is checked by breadth-first search from node 0. Consensus mixing uses
Metropolis weights, w_ij = 1/(1 + max(d_i, d_j)) on edges, which yields a
symmetric row-stochastic matrix whose spectrum lies in (-1, 1] with a simple
eigenvalue at 1 on connected graphs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TopologyError

__all__ = [
    "Graph",
    "WeightMatrix",
    "ChebyshevParams",
    "generate_random_geometric",
    "load_edge_list",
    "dump_edge_list",
    "metropolis_stack",
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
    The layout that :func:`metropolis_stack` builds weights with (the
    incidence matrix, the table of each node's edges and the edge slots) is
    built on its first use and kept on the graph, so it lives and dies with
    it.
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

    @cached_property
    def _incidence(self) -> np.ndarray:
        """The (E, K) edge-node incidence matrix: row e holds 1 at both ends of edge e."""
        u, v = self.edge_index
        incidence = np.zeros((u.size, self.node_count))
        edges = np.arange(u.size)
        incidence[edges, u] = 1.0
        incidence[edges, v] = 1.0
        return incidence

    @cached_property
    def _incident_edges(self) -> np.ndarray:
        """The (D, K) table of each node's edges, D the largest degree or 1.

        Column k lists the ``edge_index`` columns of the edges at node k in
        edge order, then E, the index of a padding slot that reads 0.
        """
        u, v = self.edge_index
        ends = np.concatenate((u, v))
        ids = np.tile(np.arange(u.size), 2)
        order = np.lexsort((ids, ends))  # by node, then by edge
        nodes = ends[order]
        starts = np.cumsum(self._degrees) - self._degrees
        table = np.full((max(self._degrees.max(), 1), self.node_count), u.size)
        table[np.arange(nodes.size) - starts[nodes], nodes] = ids[order]
        return table

    @cached_property
    def _edge_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions of entries (u, v) and (v, u) of each edge in a K x K matrix."""
        u, v = self.edge_index
        k = self.node_count
        return u * k + v, v * k + u

    def is_connected(self) -> bool:
        if self.node_count == 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
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


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """The Metropolis weights of a connected ``graph``.

    The read-only K x K ``entries`` are built on first read by
    :func:`metropolis_stack` (one step, all links alive, scale 1, shift 0);
    a consensus run on fixed weights folds its steps from them, so the two
    never disagree. Its Chebyshev ``bounds`` are computed on first read too.
    Equality and hashing are by identity, so weight matrices of different
    networks never compare equal. ``_operators`` caches fixed-weight
    consensus operators (see :mod:`eigennet.consensus`); it lives and dies
    with this object, so no two weight matrices share one.
    """

    graph: Graph
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.graph.require_connected()

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @cached_property
    def entries(self) -> np.ndarray:
        alive = np.ones((1, 1, len(self.graph.edges)), dtype=bool)
        w = next(metropolis_stack(self.graph, alive, np.ones(1), np.zeros(1)))[0, 0]
        w.setflags(write=False)
        return w

    @cached_property
    def bounds(self) -> ChebyshevParams:
        """Bounds on the disagreement spectrum of W, for Chebyshev acceleration.

        lambda_max is the second-largest and lambda_min the smallest
        eigenvalue of W, computed by LAPACK (``numpy.linalg.eigvalsh``). When
        the disagreement spectrum collapses to a point (complete-graph-like
        W), the params carry b1 = inf, which downgrades the accelerated
        engine to plain averaging.
        """
        values = np.linalg.eigvalsh(self.entries)[::-1]
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


_PLACEMENTS = 100  # placements generate_random_geometric tries


def generate_random_geometric(k: int, radius: float, rng_seed: int) -> Graph:
    """Place k nodes uniformly in the unit square, connect pairs within radius.

    Placement is redrawn (up to 100 times) until the graph is connected;
    raises :class:`TopologyError` when the budget is exhausted.
    """
    if k < 2:
        raise TopologyError("geometric generator needs at least 2 nodes")
    if radius <= 0:
        raise TopologyError("radius must be positive")
    rng = np.random.default_rng(rng_seed)
    for _ in range(_PLACEMENTS):
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
        f"no connected geometric graph found in {_PLACEMENTS} placements "
        f"(k={k}, radius={radius})"
    )


def load_edge_list(text: str) -> Graph:
    """Parse edge-list text: first line node count, then 'u v' lines.

    Blank lines and lines starting with '#' are skipped, and duplicate
    edges are collapsed. Connectivity is not enforced here; callers check
    on demand.
    """
    lines = [ln.strip() for ln in text.split("\n")]
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


_STACK_CHUNK = 32  # most matrices in one chunk of metropolis_stack


def _node_sums(values: np.ndarray, incident: np.ndarray) -> np.ndarray:
    """Each node's sum of an edge-major (E + 1, rows) array over its edges, as (K, rows).

    ``incident`` is the graph's (D, K) table of incident edges. Each node's D
    gathered values are added pairwise: the second half of the slots onto
    the first, the middle slot of an odd count kept, until one is left.
    These are elementwise adds, whose order no array shape changes, and the
    row sums of the weights come out as accurate as a dense row sum's.
    """
    sums = np.take(values, incident, axis=0)
    width = len(incident)
    while width > 1:
        half = width // 2
        width -= half
        np.add(sums[:half], sums[width : width + half], out=sums[:half])
    return sums[0]


def _edge_weights(g: Graph, masks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Metropolis weights of the (rows, E) link masks, and each node's 1 - r.

    The weights go edge-major into the first ``rows`` columns of ``out``,
    whose row E, the incident-edge table's padding slot, reads 0. Returns
    the (K, rows) diagonals 1 - r, r the node's sum of weights.
    """
    u, v = g.edge_index
    w = out[:, : len(masks)]
    w[:-1] = masks.T
    # each column sums 0/1 terms, so the degrees are exact integer-valued floats
    inv = 1.0 / (1.0 + g._incidence.T @ w[:-1])
    # w_ij = min(1 / (1 + d_i), 1 / (1 + d_j)) = 1 / (1 + max(d_i, d_j)),
    # exactly; dead edges get 0
    w[:-1] *= np.minimum(inv.take(u, axis=0), inv.take(v, axis=0))
    r = _node_sums(w, g._incident_edges)
    return np.subtract(1.0, r, out=r)


def metropolis_stack(
    g: Graph, alive: np.ndarray, scale: np.ndarray, shift: np.ndarray
) -> Iterator[np.ndarray]:
    """Scaled and shifted Metropolis weights, one matrix per step and trial.

    ``scale`` and ``shift`` hold one value per step, S in all. ``alive`` is
    an (S, B, E) boolean mask over the graph's ``edge_index`` columns, one
    mask per step and trial. Matrix (s, b) is A = scale[s] W + shift[s] I,
    where W carries the Metropolis weights of the subgraph of the edges
    alive in mask (s, b), with degrees counted over those edges only; scale
    1 and shift 0 give W itself. The matrices come step by step, as
    consecutive (c, B, K, K) chunks of at most 32 matrices (one step when B
    exceeds that), and every chunk is a view of one buffer that the next
    chunk overwrites.

    A is written straight from the edge weights w_ij. The buffer is
    zero-filled once per call; each chunk scatters scale[s] w_ij into the
    slots of every edge, dead (w_ij = 0) or alive, and writes each diagonal
    as scale[s] (1 - r) + shift[s], where r is the node's sum of weights.
    One product with the incidence matrix gives the degrees, exact integer
    sums. r is summed by :func:`_node_sums` instead, because a BLAS
    product's rounding depends on how many rows it multiplies at once: each
    matrix's entries then do not depend on the masks beside it in its chunk.
    """
    steps = len(scale)
    trials, edges = alive.shape[1:]
    k = g.node_count
    upper, lower = g._edge_slots
    per = max(1, min(steps, _STACK_CHUNK // trials))  # steps per chunk
    a = np.zeros((per, trials, k, k))
    flat = a.reshape(per * trials, k * k)
    weights = np.zeros((edges + 1, per * trials))
    for start in range(0, steps, per):
        n = min(per, steps - start)
        rows = n * trials
        diagonals = _edge_weights(g, alive[start : start + n].reshape(rows, edges), weights)
        diagonals = diagonals.reshape(k, n, trials)
        w = weights[:edges, :rows].reshape(edges, n, trials)
        # each step's scalars, over the step's B columns
        step_scale = scale[start : start + n, None]
        step_shift = shift[start : start + n, None]
        out = flat[:rows]
        scaled = (w * step_scale).reshape(edges, rows).T
        out[:, upper] = scaled
        out[:, lower] = scaled
        out[:, :: k + 1] = (diagonals * step_scale + step_shift).reshape(k, rows).T
        yield a[:n]


def metropolis_weights(g: Graph) -> WeightMatrix:
    """Metropolis weights: w_ij = 1/(1 + max(d_i, d_j)) on edges.

    Diagonal entries absorb the remaining mass so that rows sum to 1. Raises
    :class:`TopologyError` on a disconnected graph; see :class:`WeightMatrix`.
    """
    return WeightMatrix(g)


def spectral_bounds(w: WeightMatrix) -> ChebyshevParams:
    """The Chebyshev bounds of ``w``: its cached :attr:`WeightMatrix.bounds`."""
    return w.bounds
