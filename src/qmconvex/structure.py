"""Infinity-pattern graph, component decomposition, and instance typing.

The graph has an edge {i, j} exactly where the pair coefficient is +inf
(a tag match, no tolerance).  Its connected components drive two checks:

* condition B: every component induces a clique, which (given condition A)
  is equivalent to the effective domain being an exchangeable set;
* condition A under B: every index extends to a feasible point, which
  under B reduces to counting components against r.

Instances are then typed by s = #isolated + #big components relative to r:
s >= r+2 (type I), s = r+1 (type II), s = r (type III), s < r (empty
domain).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import DOMAIN_VIOLATION, QuadraticInstance, Witness

TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"
DOM_EMPTY = "dom_empty"


@dataclass(frozen=True)
class InfinityGraph:
    """Adjacency-list view of the infinite coefficient pattern, 1-based."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.neighbors[i - 1]


@dataclass(frozen=True)
class ComponentDecomposition:
    """Connected components split into big ones (>= 2 vertices) and isolated.

    ``components`` lists every component ordered by smallest member, with
    members ascending; ``big`` keeps the same order restricted to
    components of size at least two.
    """

    components: tuple[tuple[int, ...], ...]
    big: tuple[tuple[int, ...], ...]
    isolated: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.big)


def build_infinity_graph(instance: QuadraticInstance) -> InfinityGraph:
    """Graph on [n] with an edge wherever the pair coefficient is +inf."""
    mask = np.isinf(instance.quad)  # NaN diagonal maps to False
    idx = np.arange(1, instance.n + 1)
    neighbors = tuple(tuple(idx[row].tolist()) for row in mask)
    return InfinityGraph(instance.n, neighbors)


def connected_components(n: int, neighbors) -> list[list[int]]:
    """Connected components by BFS, 1-based, ordered by smallest member."""
    seen = [False] * (n + 1)
    out: list[list[int]] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in neighbors[v - 1]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def decompose_components(graph: InfinityGraph) -> ComponentDecomposition:
    comps = connected_components(graph.n, graph.neighbors)
    big = tuple(tuple(c) for c in comps if len(c) >= 2)
    isolated = tuple(c[0] for c in comps if len(c) == 1)
    return ComponentDecomposition(tuple(tuple(c) for c in comps), big, isolated)


def _clique_gap_witness(graph: InfinityGraph, component: tuple[int, ...]) -> Witness:
    # Find a non-edge (u, w) inside the component, walk the BFS path from u
    # to w, and stop at the first path vertex not adjacent to u.  That gives
    # i=u, j=previous vertex, k=current one with {i,j}, {j,k} edges and
    # {i,k} a non-edge.
    members = set(component)
    adj = {v: set(graph.neighbors[v - 1]) for v in component}
    non_edge = None
    for u in component:
        for w in component:
            if w > u and w not in adj[u]:
                non_edge = (u, w)
                break
        if non_edge:
            break
    assert non_edge is not None
    u, w = non_edge
    parent = {u: None}
    queue = deque([u])
    while w not in parent:
        v = queue.popleft()
        for x in sorted(adj[v] & members):
            if x not in parent:
                parent[x] = v
                queue.append(x)
    path = [w]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    for idx in range(2, len(path)):
        if path[idx] not in adj[u]:
            return Witness(DOMAIN_VIOLATION, indices=(u, path[idx - 1], path[idx]))
    raise AssertionError("path endpoint should be non-adjacent")


def check_condition_b(
    graph: InfinityGraph, decomposition: ComponentDecomposition
) -> tuple[bool, Witness | None]:
    """True iff every component induces a clique; otherwise a witness triple.

    The witness (i, j, k) has {i,j} and {j,k} infinite but {i,k} finite,
    and re-verifies against the instance directly.
    """
    for comp in decomposition.big:
        k = len(comp)
        degree_sum = sum(len(graph.neighbors[v - 1]) for v in comp)
        if degree_sum != k * (k - 1):
            return False, _clique_gap_witness(graph, comp)
    return True, None


def classify(decomposition: ComponentDecomposition, r: int) -> str:
    """Type the instance by s = #isolated + #big components against r."""
    s = len(decomposition.isolated) + decomposition.m
    if s >= r + 2:
        return TYPE_I
    if s == r + 1:
        return TYPE_II
    if s == r:
        return TYPE_III
    return DOM_EMPTY


def check_condition_a_under_b(decomposition: ComponentDecomposition, r: int) -> bool:
    """Condition A assuming B holds: every index extends to a feasible point.

    Under B a feasible point picks at most one vertex per component, so
    the extension exists for every index iff there are at least r
    components in total.
    """
    return len(decomposition.isolated) + decomposition.m >= r
