"""Brute-force ground truths by enumeration.

Every routine here enumerates the effective domain first.  The exchange
axiom is then checked over all support pairs in delta form: the change
f(x - i + j) + f(y + i - j) - f(x) - f(y) is a sum of row sums of the
coefficient matrix over x and y, so the check runs on arrays, a chunk of
supports at a time.  The set exchange axiom and the local four-index
criterion evaluate straight from the definitions in plain Python, an
independent second oracle; the linearity certificate is a least-squares
fit over the domain.  None of this shares code with the quadratic-time
deciders, so the two can cross-check each other.  Budgets are hard:
exceeding one raises instead of sampling.  Comparisons allow the
instance's absolute slack, as in the deciders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterable

import numpy as np

from .core import (
    BOTTLENECK_PATH,
    DEFAULT_EPSILON,
    DOMAIN_VIOLATION,
    EXCHANGE_VIOLATION,
    INF,
    INVALID_INSTANCE,
    M_CONVEX,
    NOT_M_CONVEX,
    QUADRUPLE_VIOLATION,
    BudgetExceededError,
    QuadraticInstance,
    Verdict,
    Witness,
    approx_eq,
    approx_le,
    check_epsilon,
)

#: Cap on the number of r-subsets scanned while enumerating a domain.
DEFAULT_MAX_CANDIDATES = 2_000_000

#: Cap on the number of exchange-inequality checks in the axiom oracles.
DEFAULT_MAX_CHECKS = 100_000_000

#: Cells of (x, y, i, j) that one chunk of the exchange check holds at most,
#: unless one support x alone has more: 128 KB per float array.  Also the
#: number of r-subsets in one chunk of the domain enumeration.
_CHUNK_CELLS = 1 << 14


@dataclass(frozen=True)
class DomainSet:
    """The effective domain: all r-subsets with a finite objective value.

    Supports are sorted 1-based index tuples, listed lexicographically.
    """

    n: int
    r: int
    supports: tuple[tuple[int, ...], ...]


def evaluate(instance: QuadraticInstance, support: Iterable[int]) -> float:
    """Objective value at the 0/1 point with the given 1-based support.

    Returns +inf when the support has the wrong cardinality or contains a
    forbidden pair; raises IndexError for an index outside 1..n.
    """
    idx = sorted(set(support))
    if idx and not (1 <= idx[0] and idx[-1] <= instance.n):
        raise IndexError(f"support {idx} is outside 1..{instance.n}")
    if len(idx) != instance.r:
        return INF
    arr = np.asarray(idx, dtype=int) - 1
    total = float(instance.linear[arr].sum())
    quad = instance.quad
    for a in range(len(arr)):
        for b in range(a + 1, len(arr)):
            v = quad[arr[a], arr[b]]
            if math.isinf(v):
                return INF
            total += v
    return total


def enumerate_domain(
    instance: QuadraticInstance, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> DomainSet:
    """All r-subsets avoiding infinite pairs, in lexicographic order.

    The r-subsets come from ``combinations`` in chunks of ``_CHUNK_CELLS``
    rows, one column per position; one gather of the +inf mask per pair of
    positions drops the rows that hold a forbidden pair.
    """
    n, r = instance.n, instance.r
    total = math.comb(n, r)
    if total > max_candidates:
        raise BudgetExceededError(
            f"C({n},{r}) = {total} exceeds the candidate budget {max_candidates}"
        )
    allowed = ~np.isinf(instance.quad)
    combos = combinations(range(n), r)
    supports = []
    for lo in range(0, total, _CHUNK_CELLS):
        rows = min(_CHUNK_CELLS, total - lo)
        flat = chain.from_iterable(islice(combos, rows))
        chunk = np.fromiter(flat, np.intp, count=rows * r).reshape(rows, r)
        keep = np.ones(len(chunk), dtype=bool)
        for a, b in combinations(range(r), 2):
            keep &= allowed[chunk[:, a], chunk[:, b]]
        supports += map(tuple, (chunk[keep] + 1).tolist())
    return DomainSet(n, r, tuple(supports))


def is_mconvex_set(domain: DomainSet) -> tuple[bool, Witness | None]:
    """Set exchange axiom over all ordered support pairs.

    For x, y in the set and i in x\\y there must be j in y\\x with both
    swapped sets again in the family.  Returns the first violation in
    lexicographic (x, y, i) order.
    """
    members = set(domain.supports)
    sets = [frozenset(s) for s in domain.supports]
    for xi, x in enumerate(domain.supports):
        sx = sets[xi]
        for yi, y in enumerate(domain.supports):
            if xi == yi:
                continue
            sy = sets[yi]
            for i in x:
                if i in sy:
                    continue
                found = False
                for j in y:
                    if j in sx:
                        continue
                    x2 = tuple(sorted(sx - {i} | {j}))
                    y2 = tuple(sorted(sy - {j} | {i}))
                    if x2 in members and y2 in members:
                        found = True
                        break
                if not found:
                    return False, Witness(EXCHANGE_VIOLATION, x=x, y=y, i=i)
    return True, None


def _domain_values(instance: QuadraticInstance, domain: DomainSet) -> dict:
    return {s: evaluate(instance, s) for s in domain.supports}


def _check_budget(domain: DomainSet, max_checks: int) -> None:
    d = len(domain.supports)
    r, n = domain.r, domain.n
    estimate = d * d * r * max(1, min(r, n - r))
    if estimate > max_checks:
        raise BudgetExceededError(
            f"about {estimate} exchange checks exceed the budget {max_checks}"
        )


def exchange_axiom_holds(
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

    The inequality is checked in delta form, on row sums.  Let A0 be the
    quadratic coefficients with +inf and the diagonal set to 0, G[x, k] the
    sum of A0[l, k] over l in x, and C[x, k] the number of l in x with
    a_lk = +inf.  Then for x, y, i, j as above

        f(x - i + j) + f(y + i - j) - f(x) - f(y)
            = G[x, j] - G[x, i] + G[y, i] - G[y, j] - 2 A0[i, j],

    the linear terms cancelling, and both swapped points are in the domain
    iff C[x, j] and C[y, i] each equal [a_ij = +inf].  A triple (x, y, i)
    passes iff some j has both points in the domain and the delta at most
    the slack.  The supports x are taken in chunks that double up to
    ``_CHUNK_CELLS`` cells of (x, y, i, j) (or one support, when that alone
    is more), so a chunk's arrays stay small and an early failure costs
    one small chunk.  The first failing chunk holds the witness.
    """
    check_epsilon(eps)
    domain = enumerate_domain(instance, max_candidates)
    if not domain.supports:
        return Verdict(INVALID_INSTANCE, method="oracle-exchange", epsilon=eps)
    _check_budget(domain, max_checks)
    n, r, d = domain.n, domain.r, len(domain.supports)
    if d == 1:  # the axiom constrains pairs of distinct supports
        return Verdict(M_CONVEX, method="oracle-exchange", epsilon=eps)
    slack = instance.slack(eps)
    finite = np.isfinite(instance.quad)
    a0 = np.where(finite, instance.quad, 0.0)
    forbid = ~finite  # also true on the diagonal, which no count below reads
    inside = np.array(domain.supports) - 1  # (x, i), each row ascending
    rows = np.arange(d)[:, None]
    member = np.zeros((n, d))  # indexed (k, y), so that y runs last in every gather
    member[inside, rows] = 1.0
    absent = member == 0.0
    outside = absent.T.nonzero()[1].reshape(d, n - r)  # (x, j), each row ascending
    gain = a0 @ member  # gain[k, y] = G[y, k], as A0 is symmetric
    count = forbid @ member  # C[y, k], plus one for k in y
    # Row i + n [a_ij = +inf] of gain_i holds G[y, i] where y + i - j stays
    # in the domain (given j in y), else +inf; lose_j holds -G[y, j], +inf
    # where j is not in y.  plane[i, j] names the row of gain_i for (i, j).
    gain_i = np.where(count == np.arange(2)[:, None, None], gain, INF).reshape(2 * n, d)
    lose_j = np.where(absent, INF, -gain)
    plane = np.arange(n)[:, None] + n * forbid
    del member, count
    # per (x, i, j): key, the row of gain_i, and own, the x half of the
    # delta, G[x, j] - G[x, i] - 2 A0[i, j], +inf where x - i + j leaves the
    # domain (row j + n [a_ij = +inf] of gain_i at y = x)
    xi, xj, at_x = inside[:, :, None], outside[:, None, :], rows[:, None]
    key = plane[xi, xj]
    own = gain_i[plane[xj, xi], at_x]
    own -= gain[xi, at_x]
    own -= 2.0 * a0[xi, xj]
    own = own[..., None]
    # A chunk below 1/16 of the cap costs its numpy calls, not its cells, so
    # the first chunk is that size (at least one support); a tiny domain is
    # then one chunk.
    step = max(1, _CHUNK_CELLS // (d * r * (n - r)))
    lo, size = 0, max(1, step // 16)
    while lo < d:
        hi = min(d, lo + size)
        delta = gain_i.take(key[lo:hi], axis=0)  # (x, i, j, y)
        delta += own[lo:hi]
        delta += lose_j.take(outside[lo:hi], axis=0)[:, None]
        fail = np.minimum.reduce(delta, axis=2) > slack  # (x, i, y)
        fail &= absent.take(inside[lo:hi], axis=0)  # i not in y
        if np.count_nonzero(fail):
            first = fail.transpose(0, 2, 1)  # (x, y, i), lexicographic
            x, y, k = np.unravel_index(np.argmax(first), first.shape)
            x = domain.supports[lo + x]
            witness = Witness(EXCHANGE_VIOLATION, x=x, y=domain.supports[y], i=x[k])
            return Verdict(NOT_M_CONVEX, method="oracle-exchange", witness=witness, epsilon=eps)
        lo, size = hi, min(2 * size, step)
    return Verdict(M_CONVEX, method="oracle-exchange", epsilon=eps)


def local_exchange_holds(
    instance: QuadraticInstance,
    *,
    eps: float = DEFAULT_EPSILON,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
    max_checks: int = DEFAULT_MAX_CHECKS,
) -> Verdict:
    """Local exchange criterion: domain exchangeability plus a min-of-two
    swap inequality for every pair of points at symmetric difference four.

    Independent code path from exchange_axiom_holds; the two must agree.
    """
    check_epsilon(eps)
    domain = enumerate_domain(instance, max_candidates)
    if not domain.supports:
        return Verdict(INVALID_INSTANCE, method="oracle-local", epsilon=eps)
    _check_budget(domain, max_checks)
    set_ok, set_witness = is_mconvex_set(domain)
    if not set_ok:
        return Verdict(NOT_M_CONVEX, method="oracle-local", witness=set_witness, epsilon=eps)
    slack = instance.slack(eps)
    values = _domain_values(instance, domain)
    sets = [frozenset(s) for s in domain.supports]
    for xi in range(len(domain.supports)):
        for yi in range(xi + 1, len(domain.supports)):
            sx, sy = sets[xi], sets[yi]
            left = sorted(sx - sy)
            if len(left) != 2:
                continue
            i, j = left
            k, l = sorted(sy - sx)
            z = sx & sy
            lhs = values[domain.supports[xi]] + values[domain.supports[yi]]
            a = values.get(tuple(sorted(z | {i, k})), INF)
            b = values.get(tuple(sorted(z | {j, l})), INF)
            c = values.get(tuple(sorted(z | {i, l})), INF)
            d = values.get(tuple(sorted(z | {j, k})), INF)
            if not approx_le(min(a + b, c + d), lhs, slack):
                witness = Witness(QUADRUPLE_VIOLATION, indices=(i, j, k, l))
                return Verdict(
                    NOT_M_CONVEX, method="oracle-local", witness=witness, epsilon=eps
                )
    return Verdict(M_CONVEX, method="oracle-local", epsilon=eps)


# ---------------------------------------------------------------------------
# Linearity certificate


@dataclass(frozen=True, eq=False)
class LinearCertificate:
    """Affine fit f(x) ~= alpha_star + sum_i p_star[i] x_i on the domain.

    The slice constraint sum x_i = r leaves one degree of gauge freedom,
    resolved by pinning p_star[n-1] = 0.
    """

    alpha_star: float
    p_star: np.ndarray
    residual: float


def linear_fit(
    instance: QuadraticInstance, max_candidates: int = DEFAULT_MAX_CANDIDATES
) -> LinearCertificate:
    """Least-squares affine fit over the whole domain, with its max residual."""
    domain = enumerate_domain(instance, max_candidates)
    if not domain.supports:
        raise ValueError("domain is empty, nothing to fit")
    rows = len(domain.supports)
    design = np.zeros((rows, instance.n))
    design[np.arange(rows)[:, None], np.array(domain.supports) - 1] = 1.0
    target = np.array([evaluate(instance, support) for support in domain.supports])
    # Pin the last coordinate to zero and fit [alpha, p_1 .. p_{n-1}].
    mat = np.hstack([np.ones((rows, 1)), design[:, :-1]])
    coef, *_ = np.linalg.lstsq(mat, target, rcond=None)
    residual = float(np.abs(mat @ coef - target).max(initial=0.0))
    p_star = np.zeros(instance.n)
    p_star[:-1] = coef[1:]
    return LinearCertificate(float(coef[0]), p_star, residual)


def linear_certificate(
    instance: QuadraticInstance,
    *,
    eps: float = DEFAULT_EPSILON,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> LinearCertificate | None:
    """The affine fit when its residual is within the instance's slack."""
    cert = linear_fit(instance, max_candidates)
    return cert if cert.residual <= instance.slack(eps) else None


# ---------------------------------------------------------------------------
# Witness re-verification


def quadruple_violated(
    instance: QuadraticInstance, i: int, j: int, k: int, l: int, eps: float = DEFAULT_EPSILON
) -> bool:
    """True when the three pairing sums of {i,j,k,l} attain their minimum
    exactly once, i.e. some ordering fails sum >= min(other two)."""
    a = instance.pair
    sums = (a(i, j) + a(k, l), a(i, k) + a(j, l), a(i, l) + a(j, k))
    smallest = min(sums)
    hits = sum(1 for s in sums if approx_eq(s, smallest, instance.slack(eps)))
    return hits == 1


def verify_witness(
    instance: QuadraticInstance, witness: Witness, eps: float = DEFAULT_EPSILON
) -> bool:
    """Re-check a witness against the instance by direct evaluation.  A
    witness of the wrong shape (a triple or quadruple with another count
    of indices, no supports), or one that names an index outside 1..n or
    one index twice, fails.

    A bottleneck path u = t0, ..., tL = v holds when L >= 2 and each of
    its edges' reduced coefficients exceeds that of {u, v} by more than
    the slack.  With exact arithmetic the reversed ultrametric inequality
    then fails on some triple of the path, hence a quadruple violates
    (Hirai & Murota 2004); within the slack the path certifies only that
    the reduced matrix is more than slack/2 from every reversed
    ultrametric, at the row-minimum normalization.
    """
    check_epsilon(eps)
    for named in filter(None, (witness.indices, witness.x, witness.y)):
        if len(set(named)) < len(named) or not all(1 <= v <= instance.n for v in named):
            return False
    indices = witness.indices or ()
    if witness.kind == DOMAIN_VIOLATION:
        if len(indices) != 3:
            return False
        i, j, k = indices
        return (
            math.isinf(instance.pair(i, j))
            and math.isinf(instance.pair(j, k))
            and math.isfinite(instance.pair(i, k))
        )
    if witness.kind == QUADRUPLE_VIOLATION:
        return len(indices) == 4 and quadruple_violated(instance, *indices, eps=eps)
    if witness.kind == BOTTLENECK_PATH:
        # reduced coefficients less twice the global minimum, which cancels
        # from every difference: only the L+1 named rows are read, O(n L)
        if len(indices) < 3:
            return False
        idx = np.asarray(indices, dtype=np.intp) - 1
        low = np.nanmin(instance.quad[idx], axis=1)  # the NaN diagonal drops out
        if not np.isfinite(low).all():
            return False
        ends = instance.quad[idx[0], idx[-1]] - low[0] - low[-1]
        edges = instance.quad[idx[:-1], idx[1:]] - low[:-1] - low[1:]
        return math.isfinite(ends) and bool((edges - ends > instance.slack(eps)).all())
    if witness.kind == EXCHANGE_VIOLATION:
        x, y, i = witness.x, witness.y, witness.i
        if x is None or y is None:
            return False
        sx, sy = frozenset(x), frozenset(y)
        fx, fy = evaluate(instance, x), evaluate(instance, y)
        if math.isinf(fx) or math.isinf(fy) or i not in sx - sy:
            return False
        lhs = fx + fy
        slack = instance.slack(eps)
        for j in sy - sx:
            rhs = evaluate(instance, sx - {i} | {j}) + evaluate(instance, sy - {j} | {i})
            if approx_le(rhs, lhs, slack):
                return False
        return True
    raise ValueError(f"unknown witness kind {witness.kind!r}")
