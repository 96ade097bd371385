"""Quadratic-time deciders and the top-level testing pipeline.

Type I rests on one rule: in an order that keeps every cluster
contiguous, the value between positions p < q is the minimum of the gap
values between them.  Per-index offsets strip each row's surplus over the
global minimum.  One Prim pass over the reduced matrix, reduced a row at
a time so that no matrix is built, lays the indices out in O(n^2): its
visit order is the layout and its join weights are the gaps (Gower & Ross
1969; Hirai & Murota 2004).  The instance is accepted iff each joining
row lies within the slack of the exact bottleneck, the smallest gap
between the two positions; within the slack that is not the reversed
ultrametric inequality tested triple by triple.  The bottleneck matrix B
of the Prim tree is the smallest reversed ultrametric above the reduced
matrix R, so the pass rejects iff max(B - R) > slack: it accepts iff R
lies within slack/2 of an exact reversed ultrametric at the row-minimum
normalization (Farach, Kannan & Warnow 1995).  A rejection's witness is
read off the stopped pass.  The laminar plateau family (``decompose``) is
that pass's layout, run without the row check: its order and gaps, 2n
numbers; ``sets`` groups the gaps into plateaus and ``reconstruct`` reads
the family back as the running minimum of the gaps.

Type II and III instances reduce to additive rank-one structure on cross
blocks.  The big components are laid end to end once.  Each one's rows
are gathered against all of its columns by two contiguous ``take`` calls:
the sorted complement for type II, the slice of that order after the
component for type III.  Every cell is compared against the component's
first row and its block's first column; the first failing cell is the
witness, so explain mode costs the same O(n^2) as the decision.  Every
comparison allows one absolute slack, ``QuadraticInstance.slack``.

The pipeline short-circuits the degenerate slices r = 1 and r = n-1,
rejects on a failed condition B when condition A is assumed, falls back
to the enumeration oracle on small instances otherwise, and dispatches to
the typed decider after classification.  Each type has one algorithm,
which decides and names the witness, so explain mode costs O(n^2) too.
A type I witness is a violating quadruple through the failing cell and
the failing index's tree parent when one exists (rule (i), one vector
pass), else the Prim-tree path between the failing cell's ends, each of
whose reduced edges exceeds the cell by more than the slack, walked
along the tree parents that the pass records.  That path certifies the
l-infinity contract above, not a violating quadruple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import oracle, structure
from .core import (
    BOTTLENECK_PATH,
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
    check_epsilon,
)
from .structure import DOM_EMPTY, TYPE_I, TYPE_II, TYPE_III

#: Default cap on C(n, r) for the brute-force fallback of the pipeline.
DEFAULT_BRUTE_FORCE_BUDGET = 20_000


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Pair coefficients and the per-index offsets that strip them.

    global_min is the smallest pair coefficient overall; row_offsets[i] is
    the surplus of row i's minimum over global_min; matrix holds the
    coefficients as given.  The Prim pass subtracts both endpoint offsets
    from a row's pairs when it visits the row, so the reduced matrix is
    never built.  On instances that pass the type-I test, every reduced row
    attains global_min.
    """

    n: int
    global_min: float
    row_offsets: np.ndarray
    matrix: np.ndarray
    #: (order, gap, parent, stop) of each Prim pass that check_anti_ultrametric ran,
    #: by slack, so that a rejection's witness reads the pass that decided
    passes: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class LaminarFamily:
    """Nested plateau sets as the Prim layout: 2n numbers.

    order is the visit order of a Prim pass with no slack limit and gap[p],
    for p >= 1, the weight at which order[p] joined; gap[0] is the root's
    value, global_min.  Every plateau is a contiguous range of positions,
    and the value between positions p < q is min(gap[p+1..q]).  Both
    arrays are kept as read-only copies.
    """

    order: np.ndarray
    gap: np.ndarray

    def __post_init__(self) -> None:
        for name in ("order", "gap"):
            object.__setattr__(self, name, np.array(getattr(self, name)))
            getattr(self, name).flags.writeable = False

    def sets(self, slack: float = DEFAULT_EPSILON) -> list[tuple[frozenset, float]]:
        """All (member set, value) pairs, 1-based, in preorder.

        One stack walk over the positions, the root open at gap[0]: a gap
        more than ``slack`` below the open plateau closes plateaus, one more
        than ``slack`` above it opens a nested one from position p-1 (or the
        plateau just closed) to p, and one within the slack joins it.  Each
        plateau is a range [start, end) of positions and values grow
        strictly with depth, so (start, -end, value) orders them in preorder.
        """
        order, gap = self.order.tolist(), self.gap.tolist()
        n = len(order)
        ranges = []
        stack = [(0, gap[0])]  # the open plateaus as (start, value), root first
        for p in range(1, n):
            start = p - 1
            while len(stack) > 1 and approx_gt(stack[-1][1], gap[p], slack):
                start, value = stack.pop()
                ranges.append((start, p, value))
            if approx_gt(gap[p], stack[-1][1], slack):
                stack.append((start, gap[p]))
        ranges += [(start, n, value) for start, value in stack]
        ranges.sort(key=lambda r: (r[0], -r[1], r[2]))
        return [(frozenset(i + 1 for i in order[s:e]), value) for s, e, value in ranges]


def normalize_type1(instance: QuadraticInstance) -> NormalizedMatrix:
    """Per-index offsets that make plateau structure visible, in one pass
    over the coefficients; the reduced matrix is left unbuilt.

    Requires every row to contain a finite entry, which classification as
    type I guarantees (at least two components exist).
    """
    # the NaN diagonal drops out of the nan-aware reduction
    row_min = np.nanmin(instance.quad, axis=1)
    if np.isinf(row_min).any():
        raise InternalInconsistencyError("a row contains no finite coefficient")
    global_min = float(row_min.min())
    return NormalizedMatrix(instance.n, global_min, row_min - global_min, instance.quad)


def decompose(normalized: NormalizedMatrix) -> LaminarFamily:
    """Nested plateaus: the layout of a Prim pass with an infinite slack,
    so that no row stops it, O(n^2).  The root's value goes in gap[0]."""
    order, gap, _, _ = _prim_pass(normalized, math.inf)
    gap[0] = normalized.global_min
    return LaminarFamily(order, gap)


def reconstruct(family: LaminarFamily) -> np.ndarray:
    """Matrix implied by the family: the pair at positions p < q gets
    min(gap[p+1..q]), the value of the smallest plateau holding both, as a
    running minimum like the Prim pass's, O(n^2).  Raises
    InternalInconsistencyError unless order permutes 0..len(gap)-1."""
    order, gap, n = family.order, family.gap, family.gap.size
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise InternalInconsistencyError("laminar family order is not a permutation of 0..n-1")
    out = np.full((n, n), np.nan)
    bottleneck = np.full(n, math.inf)  # min(gap[p+1..k]) for positions p < k
    for k in range(1, n):
        np.minimum(bottleneck[:k], gap[k], out=bottleneck[:k])
        out[order[k], order[:k]] = bottleneck[:k]
        out[order[:k], order[k]] = bottleneck[:k]
    return out


def _prim_pass(
    normalized: NormalizedMatrix, slack: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One Prim pass over the reduced matrix: (order, gap, parent, stop).

    Prim grows a maximum spanning tree from index 0 and lists every
    single-linkage cluster contiguously (Gower & Ross 1969), so the
    bottleneck between positions p < q of the visit order is
    min(gap[p+1..q]); gap[k] is the weight at which order[k] joined, under
    its tree parent parent[order[k]], the first index in visit order with
    an edge of that weight to it.  Each joining row is compared against
    those exact tree edges, never against entries accepted only within the
    slack.  stop is the position of the first row off by more than
    ``slack``, or n when every row held; order[stop] is that row's index,
    its gap and parent are set, and order and gap are unset after it.
    """
    matrix, off = normalized.matrix, normalized.row_offsets
    n = normalized.n
    order = np.zeros(n, dtype=np.intp)  # order[:k] is the tree so far
    gap = np.full(n, -math.inf)
    best = matrix[0] - off[0] - off  # heaviest edge from each index into the tree
    best[0] = -math.inf
    parent = np.zeros(n, dtype=np.intp)  # the tree end of each index's best edge
    # bottleneck[i] = min(gap[i+1..k]) from the visit-order position i to
    # the newest tree index; entries not yet reached stay +inf
    bottleneck = np.full(n, math.inf)
    for k in range(1, n):
        v = order[k] = int(np.argmax(best))
        gap[k] = best[v]
        row = matrix[v] - off[v] - off  # reduced[v] to the bit, never built whole
        np.minimum(bottleneck[:k], gap[k], out=bottleneck[:k])
        if not approx_eq_array(row[order[:k]], bottleneck[:k], slack).all():
            return order, gap, parent, k
        closer = row > best  # false at v itself, where the row holds NaN
        closer[order[:k]] = False
        best[closer] = row[closer]
        parent[closer] = v
        best[v] = -math.inf
    return order, gap, parent, n


def _type1_witness(normalized: NormalizedMatrix, slack: float) -> Witness:
    """The witness of the Prim pass at ``slack``, which stopped at ``stop``.

    Index v = order[stop] joined at weight gap[stop] under its parent t,
    and u is the first tree index whose reduced entry to v is off by more
    than the slack from the bottleneck between them.  That bottleneck is
    the smallest edge of the tree path from u to v and is at least
    R[u, v], so each edge of the path exceeds R[u, v] by more than the
    slack.  Rule (i): the smallest l for which (u, v, t, l) violates, one
    vector pass over l, gives a quadruple.  Failing that, the path
    u, ..., t, v is the witness (``BOTTLENECK_PATH``), found by following
    the pass's parent links from both ends up to the common ancestor, O(n).
    """
    order, gap, parent, stop = normalized.passes[slack]
    a, off = normalized.matrix, normalized.row_offsets
    tree, v = order[:stop], int(order[stop])
    # the pass's bottleneck from every tree position to v, as a suffix minimum
    bottleneck = np.minimum.accumulate(gap[1:stop + 1][::-1])[::-1]
    row = a[v] - off[v] - off
    u = int(tree[(~approx_eq_array(row[tree], bottleneck, slack)).argmax()])
    t = int(parent[v])
    # the three pairing sums of (u, v, t, l); NaN where l is one of them
    s1, s2, s3 = a[u, v] + a[t], a[u, t] + a[v], a[u] + a[v, t]
    lo = np.minimum(np.minimum(s1, s2), s3)
    mid = np.maximum(np.minimum(s1, s2), np.minimum(np.maximum(s1, s2), s3))
    with np.errstate(invalid="ignore"):  # inf - inf where every sum is +inf
        hit = np.isfinite(lo) & (mid - lo > slack)
    if hit.any():
        quad = sorted(x + 1 for x in (u, v, t, int(hit.argmax())))
        return Witness(QUADRUPLE_VIOLATION, indices=tuple(quad))
    # tree path: climb parent links from the later of the two ends until they meet
    where = np.empty(normalized.n, dtype=np.intp)
    where[order[:stop + 1]] = np.arange(stop + 1)
    up_u, up_v = [u], [v]
    while up_u[-1] != up_v[-1]:
        climb = up_u if where[up_u[-1]] > where[up_v[-1]] else up_v
        climb.append(int(parent[climb[-1]]))
    path = up_u + up_v[-2::-1]
    return Witness(BOTTLENECK_PATH, indices=tuple(x + 1 for x in path))


def check_anti_ultrametric(
    normalized: NormalizedMatrix, slack: float = DEFAULT_EPSILON
) -> bool:
    """True iff each joining row of the Prim pass lies within ``slack`` of
    the exact bottleneck to every index visited before it; O(n^2).

    With B the bottleneck matrix of the Prim tree and R the reduced
    matrix, B >= R entrywise and the pass rejects iff max(B - R) > slack.
    B is the smallest reversed ultrametric above R, so (Farach, Kannan &
    Warnow 1995) this accepts iff R lies within slack/2 of an exact
    reversed ultrametric, at the row-minimum normalization.  With no
    slack that is the inequality reduced[i][j] >= min(reduced[i][k],
    reduced[j][k]) on distinct triples (Hirai & Murota 2004).  Within the
    slack it is not: a tolerance that holds triple by triple does not
    compose along a tree path, so the pass can reject an instance whose
    every triple holds within the slack.  The pass is kept on
    ``normalized`` by slack, for the witness of a rejection.
    """
    normalized.passes[slack] = found = _prim_pass(normalized, slack)
    return found[3] == normalized.n


# ---------------------------------------------------------------------------
# Typed deciders


def _typed_verdict(type_label: str, eps: float, witness: Witness | None) -> Verdict:
    """Yes without a witness, no with one."""
    return Verdict(
        M_CONVEX if witness is None else NOT_M_CONVEX,
        method=f"algorithm-{type_label}",
        type_label=type_label,
        witness=witness,
        epsilon=eps,
    )


def test_type1(instance: QuadraticInstance, eps: float = DEFAULT_EPSILON) -> Verdict:
    """Type I: normalize, then run the Prim pass against the bottlenecks.
    A rejection carries the witness read off the stopped pass."""
    normalized, slack = normalize_type1(instance), instance.slack(eps)
    if check_anti_ultrametric(normalized, slack):
        return _typed_verdict(TYPE_I, eps, None)
    return _typed_verdict(TYPE_I, eps, _type1_witness(normalized, slack))


def _cross_verdict(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    type_label: str,
    eps: float,
) -> Verdict:
    quad = _cross_violation(instance, decomposition, type_label, instance.slack(eps))
    witness = None if quad is None else Witness(QUADRUPLE_VIOLATION, indices=quad)
    return _typed_verdict(type_label, eps, witness)


def _cross_violation(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    type_label: str,
    slack: float,
) -> tuple[int, int, int, int] | None:
    """First quadruple (1-based) that breaks a_ij + a_kl = a_il + a_kj on
    the type's cross blocks, or None when every block is additive.

    The big components are laid end to end once, in one order array.  Each
    component's rows are gathered against its columns with two contiguous
    ``take`` calls, rows first: the sorted complement for type II, and for
    type III the slice of the order after the component, which holds the
    later big components side by side, one block each.  Every cell (k, l)
    is compared against the component's first row and the first column of
    l's block, which checks every 2x2 of the block without letting the
    slack add up across it.  The answer is the first failing block's first
    failing cell in row-major order, the quadruple that a block-by-block
    scan of the quantifier range meets first.  Cross pairs are finite under
    condition B; an infinite one means the decomposition does not fit the
    instance.
    """
    big = [np.asarray(c, dtype=np.intp) - 1 for c in decomposition.big]
    sizes = np.array([c.size for c in big], dtype=np.intp)
    order = np.concatenate(big)
    ends = np.cumsum(sizes)
    first = np.repeat(ends - sizes, sizes)  # block start of each position
    # corner[l] and lead[k, l] are the first row's and row k's cells in the
    # first column of l's block
    for a, rows in enumerate(big):
        if type_label == TYPE_II:
            cols = np.setdiff1d(np.arange(instance.n), rows, assume_unique=True)
            block = instance.quad.take(rows, axis=0).take(cols, axis=1)
            corner, lead = block[0, :1], block[1:, :1]  # one block; slices gather nothing
        else:
            cols = order[ends[a]:]
            anchor = first[ends[a]:] - ends[a]  # l's block start within cols
            block = instance.quad.take(rows, axis=0).take(cols, axis=1)
            corner, lead = block[0].take(anchor), block[1:].take(anchor, axis=1)
        if np.isinf(block).any():
            raise InternalInconsistencyError("infinite coefficient in a cross block")
        ok = approx_eq_array(block[1:] + corner, lead + block[0], slack)
        if ok.all():
            continue
        bad = ~ok
        start = 0
        if type_label != TYPE_II:  # keep the block of the first failing column
            start = anchor[bad.any(axis=0).argmax()]
            bad &= anchor == start
        k, l = np.unravel_index(bad.argmax(), bad.shape)
        return tuple(int(v) + 1 for v in (rows[0], cols[start], rows[k + 1], cols[l]))
    return None


def test_type2(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    eps: float = DEFAULT_EPSILON,
) -> Verdict:
    """Type II: for every big component, the block against everything else
    must be additive, a_ij + a_kl = a_il + a_kj for all i,k inside and j,l
    outside; anchoring k and l at the block's first row and column checks
    all of them.  A rejection carries the first failing quadruple."""
    return _cross_verdict(instance, decomposition, TYPE_II, eps)


def test_type3(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    eps: float = DEFAULT_EPSILON,
) -> Verdict:
    """Type III: the same additivity on each block between two distinct
    big components, with the same witness on a rejection."""
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
) -> Verdict:
    """Decide M-convexity.

    Policy: short-circuit degenerate r; if some infinite component is not
    a clique then the answer is no under condition A, otherwise fall back
    to the enumeration oracle when C(n, r) fits the budget and report
    undecided beyond it; with clique components, classify by component
    count and run the quadratic-time decider for the type.  Every typed
    decider finds its witness as it decides; explain mode keeps it.

    Type I accepts iff the reduced matrix (the coefficients less the
    row-minimum offsets) lies within slack/2 of an exact reversed
    ultrametric, the l-infinity contract of ``check_anti_ultrametric``.
    Its witness is a violating quadruple when rule (i) finds one, else a
    bottleneck path, which certifies that contract and nothing more.
    """
    check_epsilon(eps)
    n, r = instance.n, instance.r
    if r == 1 or r == n - 1:
        return _slice_linear_verdict(instance, eps)
    graph = structure.build_infinity_graph(instance)
    decomposition = structure.decompose_components(graph)
    b_ok, b_witness = structure.check_condition_b(graph, decomposition)
    del graph  # free its n x n mask before ``scale`` builds another
    if not b_ok:
        if assume_condition_a:
            return Verdict(
                NOT_M_CONVEX, method="condition-b", witness=b_witness, epsilon=eps
            )
        if math.comb(n, r) <= brute_force_budget:
            return oracle.exchange_axiom_holds(
                instance, eps=eps, max_candidates=brute_force_budget
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
    return verdict if explain else replace(verdict, witness=None)


# ---------------------------------------------------------------------------
# The quadruple of a typed rejection


def find_violation_quadruple(
    instance: QuadraticInstance,
    decomposition: structure.ComponentDecomposition,
    type_label: str,
    eps: float = DEFAULT_EPSILON,
) -> tuple[int, int, int, int] | None:
    """The quadruple (1-based) that the type's deciding pass names, or None.

    A quadruple violates iff its three pairing sums a_ij + a_kl,
    a_ik + a_jl, a_il + a_jk attain their minimum exactly once.  Types II
    and III take the quadruple (i, j, k, l), i < k in one big component and
    j < l across from it, that their deciding pass finds in O(n^2): the
    pair inside the component is +inf, so the quadruple violates iff
    a_ij + a_kl != a_il + a_kj.  Type I returns the quadruple of
    ``test_type1``'s witness, sorted; None when the pass accepts or when
    its witness is a bottleneck path.  Every branch is O(n^2).
    """
    if type_label in (TYPE_II, TYPE_III):
        return _cross_violation(instance, decomposition, type_label, instance.slack(eps))
    if type_label != TYPE_I:
        raise ValueError(f"no quadruple condition for type {type_label!r}")
    witness = test_type1(instance, eps).witness
    return witness.indices if witness and witness.kind == QUADRUPLE_VIOLATION else None
