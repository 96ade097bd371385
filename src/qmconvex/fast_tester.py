"""Quadratic-time deciders and the top-level testing pipeline.

Type I instances are normalized (global minimum subtracted via per-index
offsets) and accepted iff the reduced matrix satisfies the reversed
ultrametric inequality a_ij >= min(a_ik, a_jk).  That holds iff every
entry equals the bottleneck between its endpoints in a maximum spanning
tree (the subdominant ultrametric of Gower & Ross 1969, read with the
order reversed; Hirai & Murota 2004 give the tree-metric view of
M-convex quadratics), which one Prim pass over the rows checks in O(n^2)
against the tree's edge weights without building any matrix.  The
laminar plateau family (``decompose`` and ``reconstruct``) is kept as a
certificate API; the decision does not use it.

Type II and III instances reduce to additive rank-one structure on cross
blocks, checked cell by cell against the block's first row and column.
Every comparison allows one absolute slack, ``QuadraticInstance.slack``.

The pipeline short-circuits the degenerate slices r = 1 and r = n-1,
rejects on a failed condition B when condition A is assumed, falls back
to the enumeration oracle on small instances otherwise, and dispatches to
the typed decider after classification.  Witness extraction is a separate
O(n^4) explain mode so the decision path stays quadratic.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from . import oracle, structure
from .core import (
    DEFAULT_EPSILON,
    INVALID_INSTANCE,
    M_CONVEX,
    NOT_M_CONVEX,
    QUADRUPLE_VIOLATION,
    UNDECIDED,
    InternalInconsistencyError,
    QuadraticInstance,
    Verdict,
    Witness,
    approx_eq_array,
    approx_gt,
)
from .structure import DOM_EMPTY, TYPE_I, TYPE_II, TYPE_III

#: Default cap on C(n, r) for the brute-force fallback of the pipeline.
DEFAULT_BRUTE_FORCE_BUDGET = 20_000


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Coefficients after stripping per-index offsets.

    global_min is the smallest pair coefficient overall; row_offsets[i] is
    the surplus of row i's minimum over global_min; reduced subtracts both
    endpoint offsets from every pair (infinite entries stay infinite).  On
    instances that pass the type-I test, every row of ``reduced`` attains
    global_min.
    """

    n: int
    global_min: float
    row_offsets: np.ndarray
    reduced: np.ndarray


@dataclass(eq=False)
class LaminarNode:
    """One plateau: a vertex set with its coefficient value.

    ``direct`` holds the 0-based members not owned by any child.  The
    node's full member set is the union of its subtree's direct members.
    """

    value: float
    direct: list[int] = field(default_factory=list)
    children: list["LaminarNode"] = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class LaminarFamily:
    """Nested plateau sets certifying the reversed ultrametric inequality.

    The root covers all of [n]; strictly deeper sets carry strictly larger
    values (possibly +inf).
    """

    n: int
    root: LaminarNode

    def sets(self) -> list[tuple[frozenset, float]]:
        """All (member set, value) pairs, 1-based, in preorder."""
        out: list[tuple[frozenset, float]] = []
        # iterative post-order accumulation; deep chains must not recurse
        stack: list[tuple[LaminarNode, int, set, int]] = [
            (self.root, 0, {i + 1 for i in self.root.direct}, 0)
        ]
        out.append((frozenset(), self.root.value))
        while stack:
            node, child_idx, members, pos = stack[-1]
            if child_idx < len(node.children):
                child = node.children[child_idx]
                stack[-1] = (node, child_idx + 1, members, pos)
                child_members = {i + 1 for i in child.direct}
                out.append((frozenset(), child.value))
                stack.append((child, 0, child_members, len(out) - 1))
                continue
            stack.pop()
            out[pos] = (frozenset(members), node.value)
            if stack:
                stack[-1][2].update(members)
        return out


def normalize_type1(instance: QuadraticInstance) -> NormalizedMatrix:
    """Strip per-index offsets so plateau structure becomes visible.

    Requires every row to contain a finite entry, which classification as
    type I guarantees (at least two components exist).
    """
    n = instance.n
    quad = instance.quad
    # the NaN diagonal drops out of the nan-aware reductions
    global_min = float(np.nanmin(quad))
    if math.isinf(global_min):
        raise InternalInconsistencyError("all pair coefficients are infinite")
    row_min = np.nanmin(quad, axis=1)
    if np.isinf(row_min).any():
        raise InternalInconsistencyError("a row contains no finite coefficient")
    offsets = row_min - global_min
    reduced = quad - offsets[:, None] - offsets[None, :]
    return NormalizedMatrix(n, global_min, offsets, reduced)


def decompose(normalized: NormalizedMatrix, slack: float = DEFAULT_EPSILON) -> LaminarFamily:
    """Split [n] into nested plateaus by repeated pivot partitioning.

    Each step takes the smallest index of the current set as pivot,
    gathers the pivot-row minimum e and its argmin set X, records the
    current set as a plateau when e strictly exceeds the inherited value
    (ties merge), and recurses on X and its complement.  Recursion stops
    on singletons and below +inf plateaus.  O(n^2) total.  ``slack`` is
    the instance's absolute slack (the default suits a unit scale).
    """
    reduced = normalized.reduced
    root = LaminarNode(value=normalized.global_min)
    stack: list[tuple[np.ndarray, float, LaminarNode]] = [
        (np.arange(normalized.n, dtype=np.intp), normalized.global_min, root)
    ]
    while stack:
        members, inherited, parent = stack.pop()
        if members.size <= 1 or math.isinf(inherited):
            parent.direct.extend(int(v) for v in members)
            continue
        pivot = members[0]
        rest = members[1:]
        row = reduced[pivot, rest]
        e = float(row.min())
        mask = approx_eq_array(row, e, slack)
        argmin = rest[mask]
        complement = np.concatenate(([pivot], rest[~mask]))
        node = parent
        value = inherited
        if approx_gt(e, inherited, slack):
            node = LaminarNode(value=e)
            parent.children.append(node)
            value = e
        stack.append((complement, value, node))
        stack.append((argmin, value, node))
    _sort_directs(root)
    return LaminarFamily(normalized.n, root)


def _sort_directs(root: LaminarNode) -> None:
    todo = [root]
    while todo:
        node = todo.pop()
        node.direct.sort()
        todo.extend(node.children)


def reconstruct(family: LaminarFamily, n: int) -> np.ndarray:
    """Matrix implied by the family: each pair gets the value of the
    smallest plateau containing both indices.

    Walks the tree once, assigning every unordered pair exactly once:
    pairs among a node's direct members at the node's value, and pairs
    between a finished child subtree and the part of the node processed
    before it, again at the node's value.  O(n^2) total.
    """
    out = np.full((n, n), np.nan)

    class Frame:
        __slots__ = ("node", "next_child", "seen")

        def __init__(self, node: LaminarNode) -> None:
            self.node = node
            self.next_child = 0
            self.seen = np.asarray(node.direct, dtype=np.intp)
            if self.seen.size:
                out[np.ix_(self.seen, self.seen)] = node.value

    stack = [Frame(family.root)]
    covered = None
    while stack:
        frame = stack[-1]
        if frame.next_child < len(frame.node.children):
            child = frame.node.children[frame.next_child]
            frame.next_child += 1
            stack.append(Frame(child))
            continue
        stack.pop()
        if stack:
            parent = stack[-1]
            if frame.seen.size and parent.seen.size:
                out[np.ix_(frame.seen, parent.seen)] = parent.node.value
                out[np.ix_(parent.seen, frame.seen)] = parent.node.value
            parent.seen = np.concatenate([parent.seen, frame.seen])
        else:
            covered = frame.seen
    if covered is None or covered.size != n:
        raise InternalInconsistencyError("laminar family does not cover the ground set")
    np.fill_diagonal(out, np.nan)
    if np.isnan(out[~np.eye(n, dtype=bool)]).any():
        raise InternalInconsistencyError("reconstruction left unassigned pairs")
    return out


def check_anti_ultrametric(
    normalized: NormalizedMatrix, slack: float = DEFAULT_EPSILON
) -> bool:
    """True iff reduced[i][j] >= min(reduced[i][k], reduced[j][k]) for all
    distinct triples, decided by one Prim pass in O(n^2).

    The inequality holds iff every entry equals the bottleneck (smallest
    edge on the tree path) between its endpoints in a maximum spanning
    tree (Gower & Ross 1969; Hirai & Murota 2004).  Prim grows that tree
    from index 0 and lists every single-linkage cluster contiguously, so
    the bottleneck between the indices at positions i < j of the visit
    order is the smallest join weight w[i+1..j].  Each joining row is
    compared against those join weights, which are exact tree edges, never
    against entries that were themselves only accepted within the slack;
    the pass stops at the first row that differs by more than ``slack``.
    """
    reduced = normalized.reduced
    n = normalized.n
    order = np.zeros(n, dtype=np.intp)  # order[:k] is the tree so far
    best = reduced[0].copy()  # heaviest edge from each index into the tree
    best[0] = -math.inf
    # bottleneck[i] = min(w[i+1..k]) from the visit-order position i to the
    # newest tree index; entries not yet reached stay +inf
    bottleneck = np.full(n, math.inf)
    for k in range(1, n):
        v = int(np.argmax(best))
        np.minimum(bottleneck[:k], best[v], out=bottleneck[:k])
        if not approx_eq_array(reduced[v, order[:k]], bottleneck[:k], slack).all():
            return False
        order[k] = v
        row = reduced[v]
        closer = row > best  # false at v itself, where the row holds NaN
        closer[order[:k]] = False
        best[closer] = row[closer]
        best[v] = -math.inf
    return True


# ---------------------------------------------------------------------------
# Typed deciders


def test_type1(instance: QuadraticInstance, eps: float = DEFAULT_EPSILON) -> Verdict:
    """Type I: normalize, then decide the reversed ultrametric inequality."""
    slack = instance.slack(eps)  # first, so its n x n mask is freed before normalizing
    ok = check_anti_ultrametric(normalize_type1(instance), slack)
    return Verdict(
        M_CONVEX if ok else NOT_M_CONVEX,
        method="algorithm-I",
        type_label=TYPE_I,
        epsilon=eps,
    )


def _adjacent_2x2_ok(block: np.ndarray, slack: float) -> bool:
    # cross pairs, all finite under condition B; anchoring every cell at the
    # first row and column keeps the slack from adding up across the block
    if np.isinf(block).any():
        raise InternalInconsistencyError("infinite coefficient in a cross block")
    lhs = block[1:, 1:] + block[0, 0]
    rhs = block[1:, :1] + block[:1, 1:]
    return bool(approx_eq_array(lhs, rhs, slack).all())


def _cross_blocks(
    n: int, decomposition: structure.ComponentDecomposition, type_label: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Lazily yield the 0-based (rows, cols) index arrays of every cross
    block in the type's quantifier range: for type II each big component
    against its sorted complement, for type III each pair a < b of big
    components."""
    big = [np.asarray(c, dtype=np.intp) - 1 for c in decomposition.big]
    if type_label == TYPE_II:
        all_idx = np.arange(n, dtype=np.intp)
        for rows in big:
            yield rows, np.setdiff1d(all_idx, rows, assume_unique=True)
    else:
        for a, rows in enumerate(big):
            for cols in big[a + 1:]:
                yield rows, cols


def _cross_verdict(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    type_label: str,
    eps: float,
) -> Verdict:
    slack = instance.slack(eps)
    # rows[:, None] indexes like np.ix_ at a fraction of its per-call cost
    ok = all(
        _adjacent_2x2_ok(instance.quad[rows[:, None], cols], slack)
        for rows, cols in _cross_blocks(instance.n, decomposition, type_label)
    )
    return Verdict(
        M_CONVEX if ok else NOT_M_CONVEX,
        method=f"algorithm-{type_label}",
        type_label=type_label,
        epsilon=eps,
    )


def test_type2(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    eps: float = DEFAULT_EPSILON,
) -> Verdict:
    """Type II: for every big component, the block against everything else
    must be additive, a_ij + a_kl = a_il + a_kj for all i,k inside and j,l
    outside; anchoring k and l at the block's first row and column checks
    all of them."""
    return _cross_verdict(instance, decomposition, TYPE_II, eps)


def test_type3(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    eps: float = DEFAULT_EPSILON,
) -> Verdict:
    """Type III: the same additivity on each block between two distinct
    big components."""
    return _cross_verdict(instance, decomposition, TYPE_III, eps)


# ---------------------------------------------------------------------------
# Degenerate slices r = 1 and r = n-1


def _slice_linear_verdict(instance: QuadraticInstance, eps: float) -> Verdict:
    """r = 1 or r = n-1: m_convex iff the domain is non-empty.

    Any two feasible points x != y differ by one swap: x = S + e_a and
    y = S + e_b for a common S (empty for r = 1, [n] minus {a, b} for
    r = n-1).  The exchange for i = a must pick j = b, which maps (x, y)
    to (y, x), so the exchange inequality reads f(x) + f(y) >= f(y) + f(x)
    and always holds.  Every singleton is feasible for r = 1; for r = n-1
    the complement of {i} is feasible iff i touches every infinite pair.
    """
    if instance.r > 1:
        # i touches every infinite pair iff it lies on all of them
        touches = np.isinf(instance.quad).sum(axis=1)
        if not (touches == touches.sum() // 2).any():
            return Verdict(INVALID_INSTANCE, method="slice-linear", epsilon=eps)
    return Verdict(M_CONVEX, method="slice-linear", epsilon=eps)


# ---------------------------------------------------------------------------
# Pipeline


def test_mconvexity(
    instance: QuadraticInstance,
    *,
    assume_condition_a: bool = False,
    brute_force_budget: int = DEFAULT_BRUTE_FORCE_BUDGET,
    eps: float = DEFAULT_EPSILON,
    explain: bool = False,
    oracle_max_checks: int = oracle.DEFAULT_MAX_CHECKS,
) -> Verdict:
    """Decide M-convexity.

    Policy: short-circuit degenerate r; if some infinite component is not
    a clique then the answer is no under condition A, otherwise fall back
    to the enumeration oracle when C(n, r) fits the budget and report
    undecided beyond it; with clique components, classify by component
    count and run the quadratic-time decider for the type.  In explain
    mode a rejecting typed verdict carries a violating quadruple.
    """
    n, r = instance.n, instance.r
    if r == 1 or r == n - 1:
        return _slice_linear_verdict(instance, eps)
    graph = structure.build_infinity_graph(instance)
    decomposition = structure.decompose_components(graph)
    b_ok, b_witness = structure.check_condition_b(graph, decomposition)
    if not b_ok:
        if assume_condition_a:
            return Verdict(
                NOT_M_CONVEX, method="condition-b", witness=b_witness, epsilon=eps
            )
        if math.comb(n, r) <= brute_force_budget:
            return oracle.exchange_axiom_holds(
                instance, eps=eps, max_candidates=brute_force_budget + 1,
                max_checks=oracle_max_checks,
            )
        return Verdict(UNDECIDED, method="budget-exceeded", epsilon=eps)
    type_label = structure.classify(decomposition, r)
    if type_label == DOM_EMPTY:
        return Verdict(INVALID_INSTANCE, method="domain-empty", epsilon=eps)
    if type_label == TYPE_I:
        verdict = test_type1(instance, eps)
    elif type_label == TYPE_II:
        verdict = test_type2(instance, decomposition, eps)
    else:
        verdict = test_type3(instance, decomposition, eps)
    if explain and verdict.status == NOT_M_CONVEX and verdict.witness is None:
        quad = find_violation_quadruple(instance, decomposition, type_label, eps)
        if quad is None:
            raise InternalInconsistencyError(
                "typed decider rejected but the full scan found no quadruple"
            )
        verdict = replace(verdict, witness=Witness(QUADRUPLE_VIOLATION, indices=quad))
    return verdict


# ---------------------------------------------------------------------------
# Witness extraction (explain mode, O(n^4))


def _min_attained_once(sums: tuple[float, float, float], slack: float) -> bool:
    smallest, second, _ = sorted(sums)
    return not math.isinf(smallest) and second - smallest > slack


def find_violation_quadruple(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    type_label: str,
    eps: float = DEFAULT_EPSILON,
) -> tuple[int, int, int, int] | None:
    """First quadruple (1-based) violating the type's condition.

    A quadruple violates iff its three pairing sums a_ij + a_kl,
    a_ik + a_jl, a_il + a_jk attain their minimum exactly once.  Type I
    scans all quadruples; types II and III scan only those in the
    condition's quantifier range (two indices inside one big component,
    respectively one big component against another).
    """
    quad = instance.quad
    slack = instance.slack(eps)

    def sums(i: int, j: int, k: int, l: int):
        return (
            quad[i, j] + quad[k, l],
            quad[i, k] + quad[j, l],
            quad[i, l] + quad[j, k],
        )

    if type_label == TYPE_I:
        for combo in combinations(range(instance.n), 4):
            if _min_attained_once(sums(*combo), slack):
                return tuple(v + 1 for v in combo)
        return None
    if type_label not in (TYPE_II, TYPE_III):
        raise ValueError(f"no quadruple condition for type {type_label!r}")
    for rows, cols in _cross_blocks(instance.n, decomposition, type_label):
        inside, outside = rows.tolist(), cols.tolist()
        for i in inside:
            for j in outside:
                for k in inside:
                    if k <= i:
                        continue
                    for l in outside:
                        if l <= j:
                            continue
                        if _min_attained_once(sums(i, j, k, l), slack):
                            return (i + 1, j + 1, k + 1, l + 1)
    return None
