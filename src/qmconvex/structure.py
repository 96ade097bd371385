"""Infinity-pattern graph, component decomposition, and instance typing.

The graph has an edge {i, j} exactly where the pair coefficient is +inf
(a tag match, no tolerance); it is that boolean mask, ``np.isinf(quad)``.
Its connected components drive two checks:

* condition B: every component induces a clique, which (given condition A)
  is equivalent to the effective domain being an exchangeable set;
* condition A under B: every index extends to a feasible point, which
  under B reduces to counting components against r.

Isolated indices (empty rows) are found in one step.  Each other component
grows from its smallest member by frontier passes: the next frontier is
what the frontier rows mark outside the component.  Each row is read once,
so this is O(n^2) even for a long path.  A component of k indices is a
clique iff each member has k-1 edges.  If one is not, the witness is
(u, j, k): u is the first index of the first non-clique component that
misses a member of it, k the smallest index two steps from u, and j the
smallest common neighbour of u and k.

Instances are then typed by s = #isolated + #big components relative to r:
s >= r+2 (type I), s = r+1 (type II), s = r (type III), s < r (empty
domain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DOMAIN_VIOLATION, QuadraticInstance, Witness

TYPE_I = "I"
TYPE_II = "II"
TYPE_III = "III"
DOM_EMPTY = "dom_empty"


@dataclass(frozen=True, eq=False)
class InfinityGraph:
    """The infinite coefficient pattern as a read-only n x n boolean mask,
    False on the diagonal; the accessors are 1-based."""

    n: int
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.mask.flags.writeable = False

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists, ascending; built on demand, not by the decision."""
        return tuple(tuple((np.flatnonzero(row) + 1).tolist()) for row in self.mask)

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the pair {i, j} is infinite; IndexError outside 1..n."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"({i}, {j}) is not a pair of indices in 1..{self.n}")
        return bool(self.mask[i - 1, j - 1])


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
    return InfinityGraph(instance.n, np.isinf(instance.quad))  # NaN diagonal maps to False


def decompose_components(graph: InfinityGraph) -> ComponentDecomposition:
    """Isolated indices in one step, each other component by frontier passes."""
    mask = graph.mask
    isolated = ~mask.any(axis=1)
    seen = isolated.copy()
    big = []
    for start in np.flatnonzero(~isolated).tolist():
        if seen[start]:
            continue
        frontier = mask[start]
        comp = frontier.copy()
        comp[start] = True
        while frontier.any():
            frontier = mask[frontier].any(axis=0) > comp  # reached, not yet in comp
            comp |= frontier
        seen |= comp
        big.append(tuple((np.flatnonzero(comp) + 1).tolist()))
    singles = (np.flatnonzero(isolated) + 1).tolist()
    # disjoint components, so ordering the tuples orders them by first member
    components = sorted(big + [(v,) for v in singles])
    return ComponentDecomposition(tuple(components), tuple(big), tuple(singles))


def _clique_gap_witness(mask: np.ndarray, u: int) -> Witness:
    # u (0-based) misses a member of its component, so some index is two
    # steps away: {u,j} and {j,k} are edges and {u,k} is not.
    near = mask[u]
    two_steps = mask[near].any(axis=0) & ~near
    two_steps[u] = False
    k = int(two_steps.argmax())
    j = int((near & mask[k]).argmax())
    return Witness(DOMAIN_VIOLATION, indices=(u + 1, j + 1, k + 1))


def check_condition_b(
    graph: InfinityGraph, decomposition: ComponentDecomposition
) -> tuple[bool, Witness | None]:
    """True iff every component induces a clique; otherwise a witness triple.

    The witness (i, j, k) has {i,j} and {j,k} infinite but {i,k} finite,
    and re-verifies against the instance directly.
    """
    sizes = [len(c) for c in decomposition.big]
    # the mask holds each edge twice and a component of k indices has at
    # most k(k-1)/2 edges, so the count reaches the sum of k(k-1) only
    # when every component is a clique
    if np.count_nonzero(graph.mask) == sum(k * (k - 1) for k in sizes):
        return True, None
    # each index's +inf count against its component's size, members in
    # component order and each component ascending
    members = np.concatenate(decomposition.big) - 1
    short = np.count_nonzero(graph.mask[members], axis=1) < np.repeat(sizes, sizes) - 1
    return False, _clique_gap_witness(graph.mask, int(members[short.argmax()]))


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
