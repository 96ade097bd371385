"""Instance generators, graph reductions, and desk-scale graph solvers.

Yes-instances come from two constructions: negated tree metrics (all
finite, always type I) and additive cross structure q_i + q_j around
infinite cliques (type II or III, linear on the domain).  No-instances
come from integer perturbations of single entries.  The graph reduction
maps stable-set structure to instances whose domain is exactly the family
of size-r stable sets, and ``solve_problem_p`` answers the clique-
components question for that family by brute force.

All randomness is driven by explicit seeds; equal seeds give equal
output.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import INF, InstanceFormatError, QuadraticInstance
from .oracle import DEFAULT_MAX_CANDIDATES, enumerate_domain
from .structure import InfinityGraph, check_condition_b, decompose_components


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on vertices 1..n, edges as sorted (u, v) pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = set()
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if u > v or (u, v) in seen:
                raise ValueError("edges must be sorted (u < v) and duplicate-free")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n: int, edges) -> "SimpleGraph":
        normalized = {(min(u, v), max(u, v)) for u, v in edges}
        return cls(n, tuple(sorted(normalized)))

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


@dataclass(frozen=True)
class WeightedTree:
    """Tree with positive edge weights and n labeled points at the leaves.

    ``leaves[k]`` is the node carrying label k+1; internal nodes are
    unlabeled.  Node ids run 1..num_nodes.
    """

    num_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    leaves: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.edges) != self.num_nodes - 1:
            raise ValueError("a tree on k nodes has k-1 edges")
        for u, v, w in self.edges:
            if w <= 0:
                raise ValueError("edge weights must be positive")
        if len(set(self.leaves)) != len(self.leaves):
            raise ValueError("leaf labels must map to distinct nodes")


def random_weighted_tree(n: int, rng: np.random.Generator) -> WeightedTree:
    """Random tree with n labeled leaves: a uniformly grown skeleton on n
    nodes (each new node attaches to a uniform earlier one) plus one
    pendant leaf per skeleton node.  Integer weights in [1, 10]."""
    if n < 2:
        raise ValueError("need at least two leaves")
    edges = []
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        weight = int(rng.integers(1, 11))
        edges.append((parent + 1, k + 1, float(weight)))
    pendant = rng.integers(1, 11, size=n)
    leaves = []
    for i in range(n):
        edges.append((i + 1, n + i + 1, float(pendant[i])))
        leaves.append(n + i + 1)
    return WeightedTree(2 * n, tuple(edges), tuple(leaves))


def leaf_distance_matrix(tree: WeightedTree) -> np.ndarray:
    """Pairwise path distances between the labeled leaves (desk scale:
    one traversal per leaf)."""
    adj: dict[int, list[tuple[int, float]]] = {v: [] for v in range(1, tree.num_nodes + 1)}
    for u, v, w in tree.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    n = len(tree.leaves)
    leaf_pos = {node: k for k, node in enumerate(tree.leaves)}
    out = np.zeros((n, n))
    for k, start in enumerate(tree.leaves):
        dist = {start: 0.0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w, weight in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + weight
                    queue.append(w)
        for node, d in dist.items():
            if node in leaf_pos:
                out[k, leaf_pos[node]] = d
    return out


def tree_metric_instance(
    tree: WeightedTree,
    r: int,
    *,
    ceiling: float | None = None,
    potential=None,
    linear=None,
) -> QuadraticInstance:
    """Instance with a_ij = ceiling - d(i, j) (+ optional potential terms).

    Path distances satisfy the four-point condition, so the negated
    matrix satisfies the reversed version and the instance is a finite
    (type I) yes-instance for any valid r.
    """
    dist = leaf_distance_matrix(tree)
    n = dist.shape[0]
    if ceiling is None:
        ceiling = float(math.ceil(dist.max()))
    quad = ceiling - dist
    if potential is not None:
        p = np.asarray(potential, dtype=float)
        quad = quad + (p[:, None] + p[None, :])
    np.fill_diagonal(quad, np.nan)
    lin = np.zeros(n) if linear is None else np.asarray(linear, dtype=float)
    return QuadraticInstance(n, r, lin, quad)


def gen_tree_metric_type1(n: int, r: int, seed: int) -> QuadraticInstance:
    """Seeded all-finite yes-instance from a random tree metric.

    Computes skeleton distances incrementally (new node's row copies its
    parent's row plus the edge weight) so generation stays O(n^2); the
    result equals tree_metric_instance on the same tree.
    """
    if n < 4 or not 2 <= r <= n - 2:
        raise ValueError("need n >= 4 and 2 <= r <= n-2")
    rng = np.random.default_rng(seed)
    skeleton = np.zeros((n, n))
    for k in range(1, n):
        parent = int(rng.integers(0, k))
        weight = int(rng.integers(1, 11))
        skeleton[k, :k] = skeleton[parent, :k] + weight
        skeleton[:k, k] = skeleton[k, :k]
    pendant = rng.integers(1, 11, size=n).astype(float)
    dist = skeleton + (pendant[:, None] + pendant[None, :])
    np.fill_diagonal(dist, 0.0)
    ceiling = float(math.ceil(dist.max()))
    q = rng.integers(-5, 6, size=n).astype(float)
    quad = (ceiling - dist) + (q[:, None] + q[None, :])
    np.fill_diagonal(quad, np.nan)
    lin = rng.integers(-5, 6, size=n).astype(float)
    return QuadraticInstance(n, r, lin, quad)


def gen_linear_typed(component_sizes, r: int, seed: int) -> QuadraticInstance:
    """Seeded yes-instance of type II or III.

    ``component_sizes`` partitions n into consecutive components; sizes
    >= 2 become infinite cliques.  The component count must be r+1 (type
    II) or r (type III).  Cross coefficients are q_i + q_j for random
    integer q, which satisfies the cross equalities identically.
    """
    sizes = [int(s) for s in component_sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("component sizes must be positive")
    n = sum(sizes)
    count = len(sizes)
    if count not in (r + 1, r):
        raise ValueError(
            f"{count} components match neither the r+1 nor the r target for r={r}"
        )
    rng = np.random.default_rng(seed)
    q = rng.integers(-5, 6, size=n).astype(float)
    quad = q[:, None] + q[None, :]
    start = 0
    for size in sizes:
        if size >= 2:
            quad[start : start + size, start : start + size] = INF
        start += size
    np.fill_diagonal(quad, np.nan)
    return QuadraticInstance(n, r, np.zeros(n), quad)


def perturb(instance: QuadraticInstance, pair: tuple[int, int], delta: float) -> QuadraticInstance:
    """Bump one finite pair coefficient by delta (both symmetric slots)."""
    i, j = pair
    if math.isinf(instance.pair(i, j)):
        raise ValueError(f"pair ({i},{j}) is infinite and cannot be perturbed")
    quad = instance.quad.copy()
    quad[i - 1, j - 1] += delta
    quad[j - 1, i - 1] = quad[i - 1, j - 1]
    return QuadraticInstance(instance.n, instance.r, instance.linear, quad)


# ---------------------------------------------------------------------------
# Graph reduction and the stable-set question


def build_f_graph(graph: SimpleGraph, r: int) -> QuadraticInstance:
    """Reduction instance: +inf on edges, 0 elsewhere, zero linear terms.

    Its domain is exactly the family of size-r stable sets of the graph.
    """
    quad = np.zeros((graph.n, graph.n))
    for u, v in graph.edges:
        quad[u - 1, v - 1] = INF
        quad[v - 1, u - 1] = INF
    np.fill_diagonal(quad, np.nan)
    return QuadraticInstance(graph.n, r, np.zeros(graph.n), quad)


def pad_graph(graph: SimpleGraph, m: int) -> SimpleGraph:
    """Add m fresh vertices adjacent to every original vertex and to no
    new one."""
    if m < 1:
        raise ValueError("m must be at least 1")
    new_edges = list(graph.edges)
    for k in range(m):
        fresh = graph.n + k + 1
        new_edges.extend((u, fresh) for u in range(1, graph.n + 1))
    return SimpleGraph.from_edges(graph.n + m, new_edges)


def solve_problem_p(
    graph: SimpleGraph, r: int, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> bool:
    """Is every connected component of the subgraph induced by the union
    of all size-r stable sets a clique?  Decided by enumeration of the
    reduction's domain, so the graph and r must make a valid instance:
    n >= 2 and 1 <= r <= n-1, else InstanceFormatError."""
    instance = build_f_graph(graph, r)
    domain = enumerate_domain(instance, max_candidates)
    order = np.array(sorted(set().union(*domain.supports)), dtype=np.intp) - 1
    induced = InfinityGraph(order.size, np.isinf(instance.quad)[np.ix_(order, order)])
    return check_condition_b(induced, decompose_components(induced))[0]


def max_stable_set_size(graph: SimpleGraph) -> int:
    """Cardinality of a maximum stable set, by include/exclude branching."""
    adj = graph.adjacency()

    def grow(candidates: list[int], size: int) -> int:
        if not candidates:
            return size
        v = candidates[0]
        rest = candidates[1:]
        taken = grow([u for u in rest if u not in adj[v]], size + 1)
        # explore the exclude branch only if it can still beat the include one
        if size + len(rest) > taken:
            return max(taken, grow(rest, size))
        return taken

    return grow(list(range(1, graph.n + 1)), 0)


def parse_edge_list(text: str) -> SimpleGraph:
    """Parse the plain edge-list format: first line "n m", then m lines
    "u v" with 1-based endpoints."""
    tokens = text.split()
    if len(tokens) < 2:
        raise InstanceFormatError("edge list must start with 'n m'")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        flat = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise InstanceFormatError(f"bad edge list: {exc}") from None
    if len(flat) != 2 * m:
        raise InstanceFormatError(f"expected {m} edges, found {len(flat) // 2}")
    edges = list(zip(flat[::2], flat[1::2]))
    try:
        return SimpleGraph.from_edges(n, edges)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
