"""Brute-force ground truths, straight from the definitions.

Everything here enumerates: the effective domain, the exchange axiom over
all support pairs, the local four-index exchange criterion, and a
least-squares linearity certificate.  These routines are deliberately
independent of the quadratic-time deciders so the two can cross-check
each other.  Budgets are hard: exceeding one raises instead of sampling.
Comparisons allow the instance's absolute slack, as in the deciders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .core import (
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
)

#: Cap on the number of r-subsets scanned while enumerating a domain.
DEFAULT_MAX_CANDIDATES = 2_000_000

#: Cap on the number of exchange-inequality checks in the axiom oracles.
DEFAULT_MAX_CHECKS = 100_000_000


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
    forbidden pair.
    """
    idx = sorted(set(support))
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
    """All r-subsets avoiding infinite pairs, in lexicographic order."""
    n, r = instance.n, instance.r
    if math.comb(n, r) > max_candidates:
        raise BudgetExceededError(
            f"C({n},{r}) = {math.comb(n, r)} exceeds the candidate budget {max_candidates}"
        )
    forbid = np.isinf(instance.quad)
    supports = []
    for combo in combinations(range(n), r):
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
    target = np.zeros(rows)
    for row, support in enumerate(domain.supports):
        for i in support:
            design[row, i - 1] = 1.0
        target[row] = evaluate(instance, support)
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
    residual_bound: float = 1e-9,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> LinearCertificate | None:
    """The affine fit when it reproduces f exactly (residual below bound)."""
    cert = linear_fit(instance, max_candidates)
    return cert if cert.residual < residual_bound else None


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
    """Re-check a witness against the instance by direct evaluation."""
    if witness.kind == DOMAIN_VIOLATION:
        i, j, k = witness.indices
        return (
            math.isinf(instance.pair(i, j))
            and math.isinf(instance.pair(j, k))
            and math.isfinite(instance.pair(i, k))
        )
    if witness.kind == QUADRUPLE_VIOLATION:
        return quadruple_violated(instance, *witness.indices, eps=eps)
    if witness.kind == EXCHANGE_VIOLATION:
        x, y, i = witness.x, witness.y, witness.i
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
