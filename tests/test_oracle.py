"""Brute-force oracles: evaluation, domains, exchange axioms, linearity."""

import itertools

import numpy as np
import pytest

import qmconvex as q
from helpers import all_zero, golden_no, golden_yes, traced_peak
from reference import enumerate_domain_by_loop, exchange_axiom_by_loop


def test_evaluate_golden_yes():
    inst = golden_yes()
    assert q.evaluate(inst, {2, 3, 4}) == 0.0
    assert q.evaluate(inst, {1, 3, 5}) == q.INF
    assert q.evaluate(inst, {1, 3, 4}) == 3.0
    assert q.evaluate(inst, {1, 2}) == q.INF  # wrong cardinality
    assert q.evaluate(inst, {1, 2, 3, 4}) == q.INF


def test_evaluate_uses_linear_terms():
    inst = q.QuadraticInstance.from_entries(4, 2, {(1, 2): 5.0}, linear=[1, 2, 3, 4])
    assert q.evaluate(inst, {1, 2}) == 8.0
    assert q.evaluate(inst, {3, 4}) == 7.0


def test_enumerate_domain_golden_yes():
    domain = q.enumerate_domain(golden_yes())
    assert len(domain.supports) == 7
    assert (1, 2, 5) not in domain.supports
    assert (1, 3, 5) not in domain.supports
    assert (1, 4, 5) not in domain.supports
    assert domain.supports == tuple(sorted(domain.supports))


def test_enumerate_domain_all_zero():
    domain = q.enumerate_domain(all_zero(4, 2))
    assert len(domain.supports) == 6


def test_enumerate_domain_budget():
    inst = all_zero(40, 20)
    with pytest.raises(q.BudgetExceededError):
        q.enumerate_domain(inst, max_candidates=1000)


def _inf_pattern(n: int, r: int, p_inf: float, rng: np.random.Generator) -> q.QuadraticInstance:
    upper = np.triu(rng.random((n, n)) < p_inf, 1)
    quad = np.where(upper | upper.T, q.INF, 0.0)
    np.fill_diagonal(quad, np.nan)
    return q.QuadraticInstance(n, r, np.zeros(n), quad)


def test_enumerate_domain_matches_the_loop():
    # the chunked gathers keep the loop's supports, their order and their
    # Python int entries, at every r of n 2-14, on an empty domain and on
    # n = 256, r = 2, whose 32,640 subsets take two chunks
    rng = np.random.default_rng(27)
    cases = [
        _inf_pattern(n, r, rng.uniform(0.0, 0.6), rng)
        for n in range(2, 15)
        for r in range(1, n)
        for _ in range(22)
    ]
    cases += [_inf_pattern(6, 3, 1.0, rng), _inf_pattern(256, 2, 0.5, rng)]
    assert len(cases) >= 2000
    for inst in cases:
        domain = q.enumerate_domain(inst)
        assert domain == enumerate_domain_by_loop(inst), (inst.n, inst.r)
        assert all(type(i) is int for support in domain.supports for i in support)
    assert cases[-2].n == 6 and q.enumerate_domain(cases[-2]).supports == ()


def test_enumerate_domain_memory_is_chunked():
    # C(22, 11) = 705,432 subsets, 2,048 of them feasible: unchunked, the
    # index array alone would take 62 MB; chunks of 2^14 subsets peak near 3 MB
    inst = q.gen_linear_typed([2] * 11, 11, 1)
    domain, peak = traced_peak(lambda: q.enumerate_domain(inst))
    assert len(domain.supports) == 2048
    assert peak < 4_000_000, peak


def test_evaluate_infinite_iff_not_in_domain():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(4, 8))
        r = int(rng.integers(2, n - 1))
        entries = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                entries[(i, j)] = q.INF if rng.random() < 0.3 else float(rng.integers(0, 3))
        inst = q.QuadraticInstance.from_entries(n, r, entries)
        domain = set(q.enumerate_domain(inst).supports)
        for combo in itertools.combinations(range(1, n + 1), r):
            assert (q.evaluate(inst, combo) == q.INF) == (combo not in domain)


def test_is_mconvex_set_goldens():
    ok, witness = q.is_mconvex_set(q.enumerate_domain(golden_yes()))
    assert ok and witness is None

    blocked = q.QuadraticInstance.from_entries(
        4, 2, {(1, 3): q.INF, (1, 4): q.INF, (2, 3): q.INF, (2, 4): q.INF}
    )
    domain = q.enumerate_domain(blocked)
    assert domain.supports == ((1, 2), (3, 4))
    ok, witness = q.is_mconvex_set(domain)
    assert not ok
    assert witness.x == (1, 2) and witness.y == (3, 4) and witness.i == 1

    ok, _ = q.is_mconvex_set(q.enumerate_domain(all_zero(4, 2)))
    assert ok


def test_exchange_axiom_goldens():
    assert q.exchange_axiom_holds(golden_yes()).status == q.M_CONVEX
    verdict = q.exchange_axiom_holds(golden_no())
    assert verdict.status == q.NOT_M_CONVEX
    assert q.verify_witness(golden_no(), verdict.witness)


def test_exchange_axiom_vacuous_on_single_point():
    entries = {
        (i, j): q.INF
        for i, j in itertools.combinations(range(1, 5), 2)
        if (i, j) != (1, 2)
    }
    inst = q.QuadraticInstance.from_entries(4, 2, entries)
    assert q.enumerate_domain(inst).supports == ((1, 2),)
    assert q.exchange_axiom_holds(inst).status == q.M_CONVEX


def test_exchange_axiom_empty_domain_is_invalid():
    entries = {(i, j): q.INF for i, j in itertools.combinations(range(1, 5), 2)}
    inst = q.QuadraticInstance.from_entries(4, 2, entries)
    assert q.exchange_axiom_holds(inst).status == q.INVALID_INSTANCE
    assert q.local_exchange_holds(inst).status == q.INVALID_INSTANCE


def test_exchange_budget_cap():
    inst = all_zero(12, 6)
    with pytest.raises(q.BudgetExceededError):
        q.exchange_axiom_holds(inst, max_checks=100)


def test_local_exchange_agrees_exhaustively_n4():
    pairs = list(itertools.combinations(range(1, 5), 2))
    for values in itertools.product((0.0, 1.0, q.INF), repeat=6):
        inst = q.QuadraticInstance.from_entries(4, 2, dict(zip(pairs, values)))
        assert q.exchange_axiom_holds(inst).status == q.local_exchange_holds(inst).status


def test_exchange_invariant_under_linear_rewrites():
    rng = np.random.default_rng(23)
    base = golden_no()
    expected = q.exchange_axiom_holds(base).status
    for _ in range(10):
        lin = rng.uniform(-10, 10, size=5)
        inst = q.QuadraticInstance(5, 2, lin, base.quad)
        assert q.exchange_axiom_holds(inst).status == expected
    base2 = golden_yes()
    expected2 = q.exchange_axiom_holds(base2).status
    for _ in range(10):
        lin = rng.uniform(-10, 10, size=5)
        inst = q.QuadraticInstance(5, 3, lin, base2.quad)
        assert q.exchange_axiom_holds(inst).status == expected2


def _same_as_the_loop(inst: q.QuadraticInstance) -> str:
    """The array oracle against the enumeration loop it replaced: same
    status, same witness, a witness that verifies, and the local criterion
    agreeing on the status."""
    verdict = q.exchange_axiom_holds(inst)
    loop = exchange_axiom_by_loop(inst)
    assert (verdict.status, verdict.witness) == (loop.status, loop.witness), (
        q.serialize_instance(inst)
    )
    assert q.local_exchange_holds(inst).status == verdict.status
    if verdict.status == q.NOT_M_CONVEX:
        assert q.verify_witness(inst, verdict.witness)
    return verdict.status


def _crosscheck_classes(n: int, rng: np.random.Generator):
    """One instance per class of the benchmark's crosscheck corpus at size
    n: type I yes and no, types II and III, a non-clique +inf pattern (the
    enumeration fallback) and a tree metric with symmetric noise of eps/30
    relative to its largest coefficient."""
    r = max(3, n // 4)

    def tree() -> q.QuadraticInstance:
        return q.gen_tree_metric_type1(n, r, int(rng.integers(2**31)))

    yes = tree()
    yield yes
    # a_{n-1,n} + a_12 becomes the unique smallest pairing sum, one below
    a, i, j = yes.quad, n - 2, n - 1
    target = min(a[0, i] + a[1, j], a[0, j] + a[1, i]) - 1.0
    yield q.perturb(yes, (i + 1, j + 1), target - a[i, j] - a[0, 1])
    seed = int(rng.integers(2**31))
    half = n // 2
    yield q.gen_linear_typed([half] + [1] * (n - half), n - half, seed)
    sizes = [2] * (n // 2) + [1] * (n % 2)
    yield q.gen_linear_typed(sizes, len(sizes), seed)
    quad = tree().quad.copy()
    quad[0, 1] = quad[1, 0] = quad[1, 2] = quad[2, 1] = q.INF
    yield q.QuadraticInstance(n, r, np.zeros(n), quad)
    base = tree()
    noise = rng.uniform(-1.0, 1.0, (n, n)) * (q.DEFAULT_EPSILON / 30)
    upper = np.triu(noise * np.nanmax(np.abs(base.quad)), 1)
    yield q.QuadraticInstance(n, r, base.linear, base.quad + upper + upper.T)


def test_exchange_axiom_matches_the_loop():
    rng = np.random.default_rng(21)
    seen = {q.M_CONVEX: 0, q.NOT_M_CONVEX: 0, q.INVALID_INSTANCE: 0}
    for n in (8, 9, 10):
        for inst in _crosscheck_classes(n, rng):
            seen[_same_as_the_loop(inst)] += 1
    # random integer coefficients with +inf patterns, every r
    for n in range(4, 9):
        for r in range(1, n):
            for _ in range(3):
                p_inf = rng.uniform(0.0, 0.4)
                entries = {
                    (i, j): q.INF if rng.random() < p_inf else float(rng.integers(-3, 4))
                    for i, j in itertools.combinations(range(1, n + 1), 2)
                }
                linear = rng.integers(-3, 4, n).astype(float)
                seen[_same_as_the_loop(q.QuadraticInstance.from_entries(n, r, entries, linear))] += 1
    # tree metrics with one pair bumped by +-1
    for _ in range(40):
        n = int(rng.integers(5, 10))
        inst = q.gen_tree_metric_type1(n, int(rng.integers(2, n - 1)), int(rng.integers(2**31)))
        i, j = (int(v) + 1 for v in rng.choice(n, 2, replace=False))
        seen[_same_as_the_loop(q.perturb(inst, (i, j), float(rng.choice([-1.0, 1.0]))))] += 1
    assert min(seen.values()) >= 10, seen


def test_exchange_axiom_memory_is_chunked():
    # 1,001 supports of size 4 out of 14: one support's (x, y, i, j) cells
    # number 1001 * 4 * 10, so the unchunked array would take 320 MB in
    # floats; the chunked check peaks near 1.9 MB
    inst = q.gen_tree_metric_type1(14, 4, 5)
    inst.scale  # computed once per instance, with an n x n mask of its own
    verdict, peak = traced_peak(lambda: q.exchange_axiom_holds(inst))
    assert verdict.status == q.M_CONVEX
    assert peak < 2_500_000, peak


def test_set_violation_when_b_fails_and_a_holds():
    # non-clique component with every index feasible: the domain set itself
    # must fail the exchange property
    rng = np.random.default_rng(29)
    found = 0
    for _ in range(120):
        n = int(rng.integers(4, 8))
        r = int(rng.integers(2, n - 1))
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.3
        ]
        if not edges:
            continue
        inst = q.QuadraticInstance.from_entries(n, r, {e: q.INF for e in edges})
        g = q.build_infinity_graph(inst)
        b_ok, _ = q.check_condition_b(g, q.decompose_components(g))
        if b_ok:
            continue
        domain = q.enumerate_domain(inst)
        touched = set()
        for s in domain.supports:
            touched.update(s)
        if len(touched) != n or not domain.supports:
            continue
        found += 1
        ok, witness = q.is_mconvex_set(domain)
        assert not ok
        assert q.verify_witness(inst, witness)
    assert found > 10


# ---------------------------------------------------------------------------
# Linearity certificate


def test_linear_certificate_golden_yes():
    cert = q.linear_certificate(golden_yes())
    assert cert is not None
    assert cert.residual < 1e-9
    # the fit reproduces every domain value
    for support in q.enumerate_domain(golden_yes()).supports:
        fitted = cert.alpha_star + sum(cert.p_star[i - 1] for i in support)
        assert abs(fitted - q.evaluate(golden_yes(), support)) < 1e-8
    assert cert.p_star[-1] == 0.0  # pinned gauge


def test_linear_certificate_all_zero():
    cert = q.linear_certificate(all_zero(5, 2))
    assert cert is not None
    assert cert.residual < 1e-12


def test_generic_type1_has_no_certificate():
    inst = q.gen_tree_metric_type1(6, 3, seed=3)
    assert q.test_mconvexity(inst).status == q.M_CONVEX
    fit = q.linear_fit(inst)
    assert fit.residual > 1e-6
    assert q.linear_certificate(inst) is None


def test_linear_certificate_scales_with_the_instance():
    # the residual is held to eps times the instance's scale, so scaling
    # every coefficient by 2^k keeps the certificate, and the generic type-I
    # instance, whose residual is about a tenth of its scale, never gets one
    linear = q.gen_linear_typed([3, 3, 2], 3, 1)
    generic = q.gen_tree_metric_type1(6, 3, seed=3)
    for k in (0, 20, 30, 40):
        scale = 2.0**k
        big = q.QuadraticInstance(linear.n, linear.r, linear.linear * scale, linear.quad * scale)
        cert = q.linear_certificate(big)
        assert cert is not None, k
        assert cert.residual <= big.slack(q.DEFAULT_EPSILON)
        scaled = q.QuadraticInstance(
            generic.n, generic.r, generic.linear * scale, generic.quad * scale
        )
        assert q.linear_certificate(scaled) is None, k


def test_linear_fit_empty_domain_raises():
    entries = {(i, j): q.INF for i, j in itertools.combinations(range(1, 5), 2)}
    inst = q.QuadraticInstance.from_entries(4, 2, entries)
    with pytest.raises(ValueError):
        q.linear_fit(inst)


# ---------------------------------------------------------------------------
# Witness verification


def test_verify_witness_rejects_tampered():
    verdict = q.exchange_axiom_holds(golden_no())
    w = verdict.witness
    assert q.verify_witness(golden_no(), w)
    # an index that is not in x \ y cannot certify anything
    wrong_i = next(i for i in w.y if i not in w.x)
    bad = q.Witness(q.EXCHANGE_VIOLATION, x=w.x, y=w.y, i=wrong_i)
    assert not q.verify_witness(golden_no(), bad)
    good_quad = q.Witness(q.QUADRUPLE_VIOLATION, indices=(1, 2, 3, 4))
    assert q.verify_witness(golden_no(), good_quad)
    bad_quad = q.Witness(q.QUADRUPLE_VIOLATION, indices=(2, 3, 4, 5))
    assert not q.verify_witness(golden_no(), bad_quad)


def test_verify_bottleneck_path():
    # golden_no is already reduced: a_15 = +inf and a_12 = 2 both exceed
    # a_25 = 0, so the path 5, 1, 2 certifies; a_23 = 0 does not exceed
    # a_13 = 1, and a path needs two edges and distinct ends joined finitely
    inst = golden_no()
    for path in ((5, 1, 2), (2, 1, 5), (5, 1, 3), (3, 4, 5)):
        assert q.verify_witness(inst, q.Witness(q.BOTTLENECK_PATH, indices=path)), path
    for path in ((1, 2, 3), (5, 2), (5,), (1, 2, 5), (5, 1, 2, 5), (5, 1, 6), (0, 1, 2)):
        assert not q.verify_witness(inst, q.Witness(q.BOTTLENECK_PATH, indices=path)), path
    # the global minimum cancels: adding 3 to every coefficient changes nothing
    shifted = q.apply_potential(inst, [1.5] * 5)
    assert q.verify_witness(shifted, q.Witness(q.BOTTLENECK_PATH, indices=(5, 1, 2)))
    assert not q.verify_witness(shifted, q.Witness(q.BOTTLENECK_PATH, indices=(1, 2, 3)))


def path_instance():
    # the n=5 path: +inf on {1,2} and {2,3}
    return q.QuadraticInstance.from_entries(5, 2, {(1, 2): q.INF, (2, 3): q.INF})


@pytest.mark.parametrize(
    "witness",
    [
        q.Witness(q.DOMAIN_VIOLATION, indices=(1, 2, 3, 4)),
        q.Witness(q.DOMAIN_VIOLATION, indices=(1, 2)),
        q.Witness(q.DOMAIN_VIOLATION),
        q.Witness(q.QUADRUPLE_VIOLATION, indices=(1, 2, 3)),
        q.Witness(q.QUADRUPLE_VIOLATION, indices=(1, 2, 3, 4, 5)),
        q.Witness(q.QUADRUPLE_VIOLATION),
        q.Witness(q.BOTTLENECK_PATH),
        q.Witness(q.EXCHANGE_VIOLATION, y=(2, 4), i=1),
        q.Witness(q.EXCHANGE_VIOLATION, x=(1, 3), i=1),
        q.Witness(q.EXCHANGE_VIOLATION, x=(1, 3), y=(2, 4)),
    ],
    ids=lambda w: f"{w.kind}-{len(w.indices) if w.indices else None}-{w.x}-{w.y}-{w.i}",
)
def test_verify_witness_refuses_wrong_shapes(witness):
    # witnesses can come from JSON: a wrong shape fails to verify, not raises.
    # Each kind is checked on an instance where its right shape verifies
    inst = golden_no() if witness.kind == q.QUADRUPLE_VIOLATION else path_instance()
    assert q.verify_witness(inst, witness) is False


def test_verify_witness_accepts_the_right_shapes():
    # the positive controls of the wrong-shape cases above
    path = path_instance()
    assert q.verify_witness(path, q.Witness(q.DOMAIN_VIOLATION, indices=(1, 2, 3)))
    assert q.verify_witness(path, q.Witness(q.EXCHANGE_VIOLATION, x=(1, 3), y=(2, 4), i=1))
    assert q.verify_witness(golden_no(), q.Witness(q.QUADRUPLE_VIOLATION, indices=(1, 2, 3, 4)))


def test_quadruple_violated_uses_min_multiplicity():
    # pairing sums 4 > 2 > 0: minimum attained once, violated
    assert q.quadruple_violated(golden_no(), 1, 2, 3, 4)
    # all-equal sums: minimum attained three times, fine
    assert not q.quadruple_violated(all_zero(4, 2), 1, 2, 3, 4)


def test_indices_outside_the_range_are_refused():
    # +inf on {1,2}, {2,3} and {2,5}: index 0 must not wrap round to 5
    inst = q.QuadraticInstance.from_entries(
        5, 2, {(1, 2): q.INF, (2, 3): q.INF, (2, 5): q.INF}
    )
    for i, j in ((0, 2), (2, 0), (-1, 2), (6, 2), (2, 6)):
        with pytest.raises(IndexError):
            inst.pair(i, j)
    for support in ({0, 1}, {-1, 3}, {1, 6}):
        with pytest.raises(IndexError):
            q.evaluate(inst, support)
    assert q.verify_witness(inst, q.Witness(q.DOMAIN_VIOLATION, indices=(1, 2, 3)))
    for indices in ((0, 2, 3), (-4, 2, 3), (1, 2, 6), (2, 2, 3), (1, 2, 1)):
        assert not q.verify_witness(inst, q.Witness(q.DOMAIN_VIOLATION, indices=indices))
    for indices in ((0, 1, 3, 4), (1, 1, 3, 4), (1, 3, 4, 6)):
        assert not q.verify_witness(golden_no(), q.Witness(q.QUADRUPLE_VIOLATION, indices=indices))
    w = q.exchange_axiom_holds(golden_no()).witness
    for x, y in ((w.x + (0,), w.y), (w.x, (w.y[0],) + w.y), ((6,) + w.x[1:], w.y)):
        bad = q.Witness(q.EXCHANGE_VIOLATION, x=x, y=y, i=w.i)
        assert not q.verify_witness(golden_no(), bad)
