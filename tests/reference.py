"""Independent reference implementations used only as test oracles.

The scans check the full quantifier ranges directly, with numpy
broadcasting or, to name the first violating quadruple, plain loops, and
share no code with the quadratic-time deciders they check.  Every
comparison allows the documented absolute slack, eps times the instance's
scale, which ``_slack`` computes from the coefficients.  The breadth-first
component search and path-walk witness for condition B are the
adjacency-list versions that the mask passes in ``qmconvex.structure``
replaced.  The pivot partition builds the laminar plateau family from the
whole reduced matrix (``reduced``), as ``qmconvex.fast_tester.decompose``
did before it became the layout of the Prim pass.  The exchange-axiom loop
evaluates every swapped pair of points by dictionary lookup, as
``qmconvex.oracle.exchange_axiom_holds`` did before it checked the axiom
in delta form on arrays; it is that code unchanged, so it takes its slack
from the instance.  The domain loop tests every pair of every r-subset
one at a time, as ``qmconvex.oracle.enumerate_domain`` did before it
took the subsets in chunks of index arrays.  The document parser and
serializer at the end are the entry-by-entry versions that the array
passes in ``qmconvex.core`` replaced.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque

import numpy as np

from qmconvex import (
    DEFAULT_EPSILON,
    DOMAIN_VIOLATION,
    EXCHANGE_VIOLATION,
    INF,
    INVALID_INSTANCE,
    M_CONVEX,
    NOT_M_CONVEX,
    BudgetExceededError,
    DomainSet,
    InstanceFormatError,
    NormalizedMatrix,
    QuadraticInstance,
    Verdict,
    Witness,
    approx_gt,
    approx_le,
    enumerate_domain,
)
from qmconvex.core import approx_eq_array
from qmconvex.oracle import (
    DEFAULT_MAX_CANDIDATES,
    DEFAULT_MAX_CHECKS,
    _check_budget,
    _domain_values,
)


def _slack(inst: QuadraticInstance, eps: float) -> float:
    """The documented absolute slack, eps * max(1, largest finite |quad|,
    largest |linear|), computed here rather than by the instance."""
    finite = np.abs(inst.quad[np.isfinite(inst.quad)])
    return eps * max(1.0, finite.max(initial=0.0), np.abs(inst.linear).max(initial=0.0))


def _violates_ge(lhs: np.ndarray, rhs: np.ndarray, slack: float) -> np.ndarray:
    """Elementwise failure of lhs >= rhs by more than the slack, +inf aware."""
    lhs_inf = np.isinf(lhs)
    rhs_inf = np.isinf(rhs)
    both = ~lhs_inf & ~rhs_inf
    lhs_f = np.where(both, lhs, 0.0)
    rhs_f = np.where(both, rhs, 0.0)
    return (~lhs_inf & rhs_inf) | (both & (lhs_f < rhs_f - slack))


def scan_anti_tree_metric(inst: QuadraticInstance, eps: float = 1e-9) -> bool:
    """a_ij + a_kl >= min(a_ik + a_jl, a_il + a_jk) over all distinct
    quadruples, checked by brute force over the full 4-index range."""
    n = inst.n
    a = np.where(np.eye(n, dtype=bool), 0.0, inst.quad)
    s_ij_kl = a[:, :, None, None] + a[None, None, :, :]
    s_ik_jl = a[:, None, :, None] + a[None, :, None, :]
    s_il_jk = a[:, None, None, :] + a[None, :, :, None]
    rhs = np.minimum(s_ik_jl, s_il_jk)
    viol = _violates_ge(s_ij_kl, rhs, _slack(inst, eps))
    idx = np.arange(n)
    distinct = (
        (idx[:, None, None, None] != idx[None, :, None, None])
        & (idx[:, None, None, None] != idx[None, None, :, None])
        & (idx[:, None, None, None] != idx[None, None, None, :])
        & (idx[None, :, None, None] != idx[None, None, :, None])
        & (idx[None, :, None, None] != idx[None, None, None, :])
        & (idx[None, None, :, None] != idx[None, None, None, :])
    )
    return not bool((viol & distinct).any())


def _cross_equalities_ok(block: np.ndarray, slack: float) -> bool:
    """M[i,j] + M[k,l] == M[i,l] + M[k,j] within the slack for all i != k,
    j != l."""
    assert np.isfinite(block).all()
    lhs = block[:, :, None, None] + block[None, None, :, :]
    rhs = block[:, None, None, :] + block.T[None, :, :, None]
    rows = np.arange(block.shape[0])
    cols = np.arange(block.shape[1])
    distinct = (rows[:, None, None, None] != rows[None, None, :, None]) & (
        cols[None, :, None, None] != cols[None, None, None, :]
    )
    return not bool(((np.abs(lhs - rhs) > slack) & distinct).any())


def scan_type2_equalities(inst: QuadraticInstance, big, eps: float = 1e-9) -> bool:
    """Full quantifier range of the type-II condition: every big component
    against everything outside it."""
    slack = _slack(inst, eps)
    all_idx = np.arange(inst.n)
    for comp in big:
        rows = np.asarray(comp) - 1
        cols = np.setdiff1d(all_idx, rows, assume_unique=True)
        if len(cols) < 2:
            continue
        if not _cross_equalities_ok(inst.quad[np.ix_(rows, cols)], slack):
            return False
    return True


def scan_type3_equalities(inst: QuadraticInstance, big, eps: float = 1e-9) -> bool:
    """Full quantifier range of the type-III condition: every ordered pair
    of distinct big components."""
    slack = _slack(inst, eps)
    arrays = [np.asarray(comp) - 1 for comp in big]
    for a in range(len(arrays)):
        for b in range(len(arrays)):
            if a == b:
                continue
            if not _cross_equalities_ok(inst.quad[np.ix_(arrays[a], arrays[b])], slack):
                return False
    return True


def first_cross_quadruple(inst: QuadraticInstance, big, type_label: str, eps: float = 1e-9):
    """First violating quadruple (1-based) of the type-II or type-III
    condition, or None, by the block-by-block scan: blocks in order (each
    big component against its sorted complement for type II; each pair
    a < b of big components for type III), and in each block every
    (i, j, k, l) with i < k inside and j < l outside in lexicographic
    order, until the three pairing sums attain their minimum exactly once
    (under the instance's absolute slack)."""
    quad = inst.quad
    slack = _slack(inst, eps)
    comps = [[v - 1 for v in comp] for comp in big]
    if type_label == "II":
        blocks = [(rows, [v for v in range(inst.n) if v not in rows]) for rows in comps]
    else:
        blocks = [(rows, cols) for a, rows in enumerate(comps) for cols in comps[a + 1:]]
    for inside, outside in blocks:
        for i in inside:
            for j in outside:
                for k in inside:
                    if k <= i:
                        continue
                    for l in outside:
                        if l <= j:
                            continue
                        smallest, second, _ = sorted((
                            quad[i, j] + quad[k, l],
                            quad[i, k] + quad[j, l],
                            quad[i, l] + quad[j, k],
                        ))
                        if not math.isinf(smallest) and second - smallest > slack:
                            return (i + 1, j + 1, k + 1, l + 1)
    return None


def first_violating_quadruple(inst: QuadraticInstance, eps: float = 1e-9):
    """First quadruple (1-based) in lexicographic order whose three pairing
    sums a_ij + a_kl, a_ik + a_jl, a_il + a_jk attain their minimum exactly
    once (under the instance's absolute slack), or None: the type-I
    condition, one quadruple at a time."""
    quad = inst.quad
    slack = _slack(inst, eps)
    for i, j, k, l in itertools.combinations(range(inst.n), 4):
        sums = (quad[i, j] + quad[k, l], quad[i, k] + quad[j, l], quad[i, l] + quad[j, k])
        smallest, second, _ = sorted(sums)
        if not math.isinf(smallest) and second - smallest > slack:
            return (i + 1, j + 1, k + 1, l + 1)
    return None


def anti_ultrametric_triples(matrix: np.ndarray, slack: float = 1e-9) -> bool:
    """Direct O(n^3) scan of m_ij >= min(m_ik, m_jk) over distinct triples,
    each allowed the absolute slack."""
    n = matrix.shape[0]
    m = np.where(np.eye(n, dtype=bool), 0.0, matrix)
    lhs = np.broadcast_to(m[:, :, None], (n, n, n))
    rhs = np.minimum(m[:, None, :], m[None, :, :])
    idx = np.arange(n)
    distinct = (
        (idx[:, None, None] != idx[None, :, None])
        & (idx[:, None, None] != idx[None, None, :])
        & (idx[None, :, None] != idx[None, None, :])
    )
    return not bool((_violates_ge(lhs, rhs, slack) & distinct).any())


def reduced(normalized: NormalizedMatrix) -> np.ndarray:
    """The reduced matrix, built whole: each pair less both endpoint
    offsets (infinite entries stay infinite)."""
    off = normalized.row_offsets
    return normalized.matrix - off[:, None] - off[None, :]


def pivot_decompose(
    normalized: NormalizedMatrix, slack: float = DEFAULT_EPSILON
) -> list[tuple[frozenset, float]]:
    """Split [n] into nested plateaus by repeated pivot partitioning; the
    plateaus as (1-based member set, value) pairs, the root first.

    Each step takes the smallest index of the current set as pivot,
    gathers the pivot-row minimum e and its argmin set X, records the
    current set as a plateau when e strictly exceeds the inherited value
    (ties merge), and recurses on X and its complement.  Recursion stops
    on singletons and below +inf plateaus.  O(n^2) total.  ``slack`` is
    the instance's absolute slack (the default suits a unit scale).
    """
    matrix = reduced(normalized)
    plateaus = [(frozenset(range(1, normalized.n + 1)), normalized.global_min)]
    stack = [(np.arange(normalized.n, dtype=np.intp), normalized.global_min)]
    while stack:
        members, inherited = stack.pop()
        if members.size <= 1 or math.isinf(inherited):
            continue
        pivot = members[0]
        rest = members[1:]
        row = matrix[pivot, rest]
        e = float(row.min())
        mask = approx_eq_array(row, e, slack)
        argmin = rest[mask]
        complement = np.concatenate(([pivot], rest[~mask]))
        value = inherited
        if approx_gt(e, inherited, slack):
            plateaus.append((frozenset(int(v) + 1 for v in members), e))
            value = e
        stack.append((complement, value))
        stack.append((argmin, value))
    return plateaus


def enumerate_domain_by_loop(
    instance: QuadraticInstance, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> DomainSet:
    """All r-subsets avoiding infinite pairs, in lexicographic order."""
    n, r = instance.n, instance.r
    if math.comb(n, r) > max_candidates:
        raise BudgetExceededError(
            f"C({n},{r}) = {math.comb(n, r)} exceeds the candidate budget {max_candidates}"
        )
    forbid = np.isinf(instance.quad)
    supports = []
    for combo in itertools.combinations(range(n), r):
        ok = True
        for a in range(r):
            for b in range(a + 1, r):
                if forbid[combo[a], combo[b]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            supports.append(tuple(i + 1 for i in combo))
    return DomainSet(n, r, tuple(supports))


def exchange_axiom_by_loop(
    instance: QuadraticInstance,
    *,
    eps: float = DEFAULT_EPSILON,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_checks: int = DEFAULT_MAX_CHECKS,
) -> Verdict:
    """Quantitative exchange axiom over every (x, y, i), by enumeration.

    For each x, y in the domain and i in x\\y some j in y\\x must give
    f(x) + f(y) >= f(x - i + j) + f(y + i - j).  The witness is the first
    failing (x, y, i) in lexicographic order.
    """
    domain = enumerate_domain(instance, max_candidates)
    if not domain.supports:
        return Verdict(INVALID_INSTANCE, method="oracle-exchange", epsilon=eps)
    _check_budget(domain, max_checks)
    slack = instance.slack(eps)
    values = _domain_values(instance, domain)
    sets = [frozenset(s) for s in domain.supports]
    for xi, x in enumerate(domain.supports):
        sx = sets[xi]
        fx = values[x]
        for yi, y in enumerate(domain.supports):
            if xi == yi:
                continue
            sy = sets[yi]
            lhs = fx + values[y]
            for i in x:
                if i in sy:
                    continue
                ok = False
                for j in y:
                    if j in sx:
                        continue
                    x2 = tuple(sorted(sx - {i} | {j}))
                    y2 = tuple(sorted(sy - {j} | {i}))
                    rhs = values.get(x2, INF) + values.get(y2, INF)
                    if approx_le(rhs, lhs, slack):
                        ok = True
                        break
                if not ok:
                    witness = Witness(EXCHANGE_VIOLATION, x=x, y=y, i=i)
                    return Verdict(
                        NOT_M_CONVEX, method="oracle-exchange", witness=witness, epsilon=eps
                    )
    return Verdict(M_CONVEX, method="oracle-exchange", epsilon=eps)


def condition_a_by_enumeration(inst: QuadraticInstance) -> bool | None:
    """Every index appears in some feasible point; None when enumeration
    is out of budget."""
    try:
        domain = enumerate_domain(inst)
    except BudgetExceededError:
        return None
    touched: set[int] = set()
    for support in domain.supports:
        touched.update(support)
    return bool(domain.supports) and len(touched) == inst.n


def connected_components(n: int, neighbors) -> list[list[int]]:
    """Connected components by BFS over 1-based adjacency lists, ordered
    by smallest member, members ascending."""
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


def clique_gap_witness(neighbors, component) -> Witness:
    """The first non-edge (u, w) of the component, u ascending then w, and
    the first vertex on the BFS path from u to w that is not adjacent to
    u, with its predecessor on the path: (u, predecessor, vertex)."""
    members = set(component)
    adj = {v: set(neighbors[v - 1]) for v in component}
    u, w = next(
        (u, w) for u in component for w in component if w > u and w not in adj[u]
    )
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


def condition_b(inst: QuadraticInstance):
    """(components, B holds, witness or None) from adjacency lists of the
    +inf pattern: every component must have as many adjacency entries as
    a clique of its size, else the first one that does not names the
    witness."""
    idx = np.arange(1, inst.n + 1)
    neighbors = [idx[row].tolist() for row in np.isinf(inst.quad)]
    comps = connected_components(inst.n, neighbors)
    for comp in comps:
        k = len(comp)
        if sum(len(neighbors[v - 1]) for v in comp) != k * (k - 1):
            return comps, False, clique_gap_witness(neighbors, comp)
    return comps, True, None


def _coefficient(value, *, allow_inf: bool = True) -> float:
    v = float(value)
    if math.isnan(v):
        raise InstanceFormatError("NaN is not a valid coefficient")
    if v == -math.inf:
        raise InstanceFormatError("-inf is not representable")
    if not allow_inf and math.isinf(v):
        raise InstanceFormatError("coefficient must be finite")
    return v


def _require_int(doc, key: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InstanceFormatError(f"field {key!r} must be an integer")
    return v


def _reject_constant(name: str) -> float:
    raise InstanceFormatError(f"non-finite JSON literal {name!r} is not allowed")


def parse_instance(text: str) -> QuadraticInstance:
    """Entry-by-entry parser: one Python pass over ``quad`` that checks each
    entry and remembers each pair's first value in a dict."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceFormatError("document must be a JSON object")
    unknown = set(doc) - {"n", "r", "linear", "quad"}
    if unknown:
        raise InstanceFormatError(f"unknown fields: {sorted(unknown)}")
    n = _require_int(doc, "n")
    r = _require_int(doc, "r")
    linear = doc.get("linear")
    if linear is not None:
        if not isinstance(linear, list) or len(linear) != n:
            raise InstanceFormatError("field 'linear' must be a list of n reals")
        linear = [_coefficient(v, allow_inf=False) for v in linear]
    triples = []
    for entry in doc.get("quad", []):
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "v"}:
            raise InstanceFormatError("quad entries must be objects with keys i, j, v")
        i = _require_int(entry, "i")
        j = _require_int(entry, "j")
        v = entry["v"]
        if isinstance(v, str):
            if v != "inf":
                raise InstanceFormatError(f"unknown coefficient string {v!r}")
            v = math.inf
        elif not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InstanceFormatError("coefficient must be a number or the string 'inf'")
        triples.append((i, j, v))
    if n < 2:
        raise InstanceFormatError("n must be an integer >= 2")
    quad = np.zeros((n, n), dtype=float)
    np.fill_diagonal(quad, np.nan)
    seen: dict[tuple[int, int], float] = {}
    for i, j, v in triples:
        if not (1 <= i <= n and 1 <= j <= n):
            raise InstanceFormatError(f"index out of range in pair ({i},{j})")
        if i == j:
            raise InstanceFormatError(f"diagonal pair ({i},{j}) is not allowed")
        v = _coefficient(v)
        key = (min(i, j), max(i, j))
        if key in seen and seen[key] != v:
            raise InstanceFormatError(f"asymmetric entry for pair {key}: {seen[key]} vs {v}")
        seen[key] = v
        quad[i - 1, j - 1] = v
        quad[j - 1, i - 1] = v
    lin = np.zeros(n) if linear is None else np.asarray(linear, dtype=float)
    return QuadraticInstance(n, r, lin, quad)


def serialize_instance(instance: QuadraticInstance) -> str:
    """Nested-loop serializer: a dict per nonzero pair, then ``json.dumps``."""
    doc: dict = {"n": instance.n, "r": instance.r}
    if np.any(instance.linear != 0.0):
        doc["linear"] = [float(v) for v in instance.linear]
    entries = []
    for i in range(instance.n):
        for j in range(i + 1, instance.n):
            v = instance.quad[i, j]
            if v != 0.0:
                entries.append(
                    {"i": i + 1, "j": j + 1, "v": "inf" if math.isinf(v) else float(v)}
                )
    doc["quad"] = entries
    return json.dumps(doc)
