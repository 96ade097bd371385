"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The heavy sweeps (criteria 3 and 6) take a few minutes combined.
"""

import itertools
import time

import numpy as np

import qmconvex as q
from helpers import (
    golden_yes,
    golden_no,
    random_ab_instance,
    random_laminar_matrix,
    random_partition,
    random_permutation,
    random_simple_graph,
)
from reference import (
    condition_a_by_enumeration,
    scan_anti_tree_metric,
    scan_type2_equalities,
    scan_type3_equalities,
)


def report(num: int, detail: str) -> None:
    print(f"\n[PASS] criterion {num}: {detail}")


def timed_median(fn, repeats=5):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_criterion_1_golden_yes_instance():
    inst = golden_yes()
    graph = q.build_infinity_graph(inst)
    decomp = q.decompose_components(graph)
    assert q.classify(decomp, inst.r) == q.TYPE_II

    verdict = q.test_mconvexity(inst)
    assert verdict.status == q.M_CONVEX
    assert verdict.method == "algorithm-II"
    assert q.exchange_axiom_holds(inst).status == q.M_CONVEX

    # the all-quadruple inequality fails at (1,2,3,4) with sums exactly
    # 0 < min(1, 2), yet the instance is accepted: the quadruple is outside
    # the type-II quantifier range
    a = inst.pair
    assert (a(1, 2) + a(3, 4), a(1, 3) + a(2, 4), a(1, 4) + a(2, 3)) == (0.0, 1.0, 2.0)
    assert q.quadruple_violated(inst, 1, 2, 3, 4)
    assert not scan_anti_tree_metric(inst)

    q.test_mconvexity(inst)  # warm
    elapsed = timed_median(lambda: q.test_mconvexity(inst))
    assert elapsed < 0.010, f"decision took {elapsed * 1e3:.2f} ms"
    report(1, f"golden yes-instance: type II, accepted, sums (0,1,2), {elapsed*1e6:.0f} us")


def test_criterion_2_golden_no_instance():
    inst = golden_no()
    graph = q.build_infinity_graph(inst)
    decomp = q.decompose_components(graph)
    assert q.classify(decomp, inst.r) == q.TYPE_I

    verdict = q.test_mconvexity(inst, explain=True)
    assert verdict.status == q.NOT_M_CONVEX
    assert verdict.method == "algorithm-I"
    i, j, k, l = verdict.witness.indices
    a = inst.pair
    s1, s2, s3 = a(i, j) + a(k, l), a(i, k) + a(j, l), a(i, l) + a(j, k)
    assert (s1, s2, s3) == (2.0, 1.0, q.INF)
    assert s2 < s1 < s3
    assert q.exchange_axiom_holds(inst).status == q.NOT_M_CONVEX

    q.test_mconvexity(inst, explain=True)  # warm
    elapsed = timed_median(lambda: q.test_mconvexity(inst, explain=True))
    assert elapsed < 0.010, f"decision took {elapsed * 1e3:.2f} ms"
    report(2, f"golden no-instance: type I, rejected, sums 1 < 2 < inf, {elapsed*1e6:.0f} us")


def _random_ab_mixed(n: int, rng: np.random.Generator) -> q.QuadraticInstance:
    """Instance satisfying conditions A and B: raw random structure, or a
    generated yes-instance, or a perturbed one."""
    mode = rng.random()
    if mode < 0.4:
        return random_ab_instance(n, rng)
    r = int(rng.integers(2, n - 1))
    if mode < 0.55:
        inst = q.gen_tree_metric_type1(n, r, int(rng.integers(1 << 30)))
    else:
        count = r + 1 if rng.random() < 0.5 else r
        if count >= n:
            return random_ab_instance(n, rng)
        inst = q.gen_linear_typed(
            random_partition(n, count, rng), r, int(rng.integers(1 << 30))
        )
    if rng.random() < 0.5:
        i = int(rng.integers(1, n))
        j = int(rng.integers(i + 1, n + 1))
        if np.isfinite(inst.pair(i, j)):
            inst = q.perturb(inst, (i, j), float(rng.choice((-1.0, 1.0))))
    return inst


def test_criterion_3_oracle_equivalence_sweep():
    start = time.perf_counter()
    pairs4 = list(itertools.combinations(range(1, 5), 2))
    compared = agreements = 0

    # exhaustive n=4, r=2 sweep over {0, 1, +inf}: the two oracles must
    # agree everywhere; the pipeline (under assumed condition A) is
    # compared wherever condition A actually holds, which is when its
    # rejection-on-failed-B shortcut is sound
    for values in itertools.product((0.0, 1.0, q.INF), repeat=6):
        inst = q.QuadraticInstance.from_entries(4, 2, dict(zip(pairs4, values)))
        exchange = q.exchange_axiom_holds(inst)
        local = q.local_exchange_holds(inst)
        assert exchange.status == local.status
        if condition_a_by_enumeration(inst):
            fast = q.test_mconvexity(inst, assume_condition_a=True)
            assert fast.status == exchange.status, q.serialize_instance(inst)
            compared += 1
            agreements += 1

    # random instances restricted to conditions A and B
    rng = np.random.default_rng(2026)
    counts = {5: 4000, 6: 3200, 7: 2800}
    statuses = set()
    for n, total in counts.items():
        for _ in range(total):
            inst = _random_ab_mixed(n, rng)
            fast = q.test_mconvexity(inst)
            exchange = q.exchange_axiom_holds(inst)
            local = q.local_exchange_holds(inst)
            assert exchange.status == local.status
            assert fast.status == exchange.status, q.serialize_instance(inst)
            statuses.add((fast.method, fast.status))
            compared += 1
            agreements += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"sweep took {elapsed:.0f} s"
    assert sum(counts.values()) == 10_000
    # both outcomes reached through every quadratic-time decider
    for method in ("algorithm-I", "algorithm-II", "algorithm-III"):
        assert (method, q.M_CONVEX) in statuses, statuses
        assert (method, q.NOT_M_CONVEX) in statuses, statuses
    report(3, f"{compared} comparisons, {agreements} agreements, {elapsed:.0f} s")


def test_criterion_4_reference_scan_equivalence():
    rng = np.random.default_rng(30)
    n = 30
    checked = {q.TYPE_I: 0, q.TYPE_II: 0, q.TYPE_III: 0}
    rejected = 0
    while min(checked.values()) < 200:
        kind = min(checked, key=checked.get)
        r = int(rng.integers(2, n - 1))
        if kind == q.TYPE_I:
            inst = q.gen_tree_metric_type1(n, r, int(rng.integers(1 << 30)))
        else:
            count = r + 1 if kind == q.TYPE_II else r
            inst = q.gen_linear_typed(
                random_partition(n, count, rng), r, int(rng.integers(1 << 30))
            )
        if rng.random() < 0.5:
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            if np.isfinite(inst.pair(i, j)):
                inst = q.perturb(inst, (i, j), float(rng.choice((-1.0, 1.0))))
        graph = q.build_infinity_graph(inst)
        decomp = q.decompose_components(graph)
        label = q.classify(decomp, inst.r)
        if label != kind:
            continue
        if label == q.TYPE_I:
            got = q.test_type1(inst).status
            want = scan_anti_tree_metric(inst)
        elif label == q.TYPE_II:
            got = q.test_type2(inst, decomp).status
            want = scan_type2_equalities(inst, decomp.big)
        else:
            got = q.test_type3(inst, decomp).status
            want = scan_type3_equalities(inst, decomp.big)
        assert (got == q.M_CONVEX) == want
        checked[label] += 1
        rejected += not want
    assert rejected > 100
    report(4, f"200 instances per type at n={n} match the full-range scans")


def test_criterion_5_laminar_certificate_suite():
    rng = np.random.default_rng(5)
    sizes = rng.integers(4, 201, size=500)
    for n in sizes:
        n = int(n)
        matrix, bump = random_laminar_matrix(n, rng)
        off = ~np.eye(n, dtype=bool)
        base = float(matrix[off].min())
        normalized = q.NormalizedMatrix(n, base, np.zeros(n), matrix)
        family = q.decompose(normalized)
        rebuilt = q.reconstruct(family)
        assert np.array_equal(np.isinf(rebuilt), np.isinf(matrix))
        finite = np.isfinite(matrix)
        assert np.allclose(rebuilt[finite], matrix[finite], rtol=0, atol=1e-9)
        assert q.check_anti_ultrametric(normalized)

        i, j = bump
        dented = matrix.copy()
        dented[i - 1, j - 1] += 1.0
        dented[j - 1, i - 1] += 1.0
        assert not q.check_anti_ultrametric(
            q.NormalizedMatrix(n, float(dented[off].min()), np.zeros(n), dented)
        )
    report(5, "500 laminar-built matrices round-trip and reject after a +1 bump")


def test_criterion_6_quadratic_time_scaling():
    sizes = [200, 400, 800, 1600, 3200]
    q.test_mconvexity(q.gen_tree_metric_type1(100, 25, 0))  # warm numpy
    medians = []
    for n in sizes:
        times = []
        for rep in range(3):
            inst = q.gen_tree_metric_type1(n, max(2, n // 4), seed=1000 + rep)
            start = time.perf_counter()
            verdict = q.test_mconvexity(inst)
            times.append(time.perf_counter() - start)
            assert verdict.status == q.M_CONVEX
        medians.append(float(np.median(times)))
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    assert slope <= 2.3, f"log-log slope {slope:.2f}"
    assert medians[-1] < 5.0, f"n=3200 took {medians[-1]:.2f} s"
    pretty = ", ".join(f"n={n}: {t*1e3:.0f} ms" for n, t in zip(sizes, medians))
    report(6, f"slope {slope:.2f} <= 2.3 ({pretty})")


def test_criterion_7_reduction_demo():
    rng = np.random.default_rng(7)
    graphs = 0
    reduction_checks = 0
    while graphs < 200:
        n = int(rng.integers(3, 9))
        graph = random_simple_graph(n, float(rng.uniform(0.15, 0.6)), rng)
        graphs += 1
        for r in range(2, min(4, n - 1) + 1):
            domain = q.enumerate_domain(q.build_f_graph(graph, r))
            if not domain.supports:
                continue  # no size-r stable set, outside the problem's promise
            lhs = q.solve_problem_p(graph, r)
            rhs, _ = q.is_mconvex_set(domain)
            assert lhs == rhs
            reduction_checks += 1
        # padding equivalence, m >= 2 (one fresh vertex padded onto a
        # complete graph stays complete, so that boundary is excluded)
        alpha = q.max_stable_set_size(graph)
        for m in range(2, n + 1):
            assert q.solve_problem_p(q.pad_graph(graph, m), m) == (alpha < m)
    assert reduction_checks > 200
    report(7, f"200 graphs: {reduction_checks} reduction checks and all paddings agree")


def test_criterion_8_linearity_of_types_2_and_3():
    rng = np.random.default_rng(8)
    produced = 0
    while produced < 40:
        n = int(rng.integers(5, 8))
        r = int(rng.integers(2, n - 1))
        count = r + 1 if rng.random() < 0.5 else r
        if count >= n:
            continue
        inst = q.gen_linear_typed(random_partition(n, count, rng), r, int(rng.integers(1 << 30)))
        verdict = q.test_mconvexity(inst)
        if verdict.status != q.M_CONVEX or verdict.method == "algorithm-I":
            continue
        assert verdict.method in ("algorithm-II", "algorithm-III")
        cert = q.linear_certificate(inst)
        assert cert is not None and cert.residual < 1e-9
        produced += 1

    generic = q.gen_tree_metric_type1(6, 3, seed=3)
    assert q.test_mconvexity(generic).status == q.M_CONVEX
    assert q.test_mconvexity(generic).method == "algorithm-I"
    fit = q.linear_fit(generic)
    assert fit.residual > 1e-6
    assert q.linear_certificate(generic) is None
    report(8, f"{produced} accepted type II/III instances are linear; a generic "
              f"type I one has residual {fit.residual:.2f}")


def test_criterion_9_invariance_suite():
    rng = np.random.default_rng(9)
    corpus = [golden_yes(), golden_no()]
    while len(corpus) < 100:
        pick = rng.random()
        n = int(rng.integers(5, 9))
        if pick < 0.45:
            corpus.append(_random_ab_mixed(n, rng))
        elif pick < 0.7:
            corpus.append(q.gen_tree_metric_type1(n, int(rng.integers(2, n - 1)), int(rng.integers(1 << 30))))
        elif pick < 0.9:
            r = int(rng.integers(2, n - 1))
            count = r + 1 if rng.random() < 0.5 else r
            if count >= n:
                continue
            corpus.append(q.gen_linear_typed(random_partition(n, count, rng), r, int(rng.integers(1 << 30))))
        else:
            # failed condition B, decided by the enumeration fallback
            edges = {(1, 2): q.INF, (2, 3): q.INF}
            inst = random_ab_instance(n, rng)
            quad = inst.quad.copy()
            for (i, j), v in edges.items():
                quad[i - 1, j - 1] = quad[j - 1, i - 1] = v
            corpus.append(q.QuadraticInstance(n, inst.r, inst.linear, quad))
    flips = 0
    for inst in corpus:
        base = q.test_mconvexity(inst).status
        for _ in range(50):
            perm = random_permutation(inst.n, rng)
            flips += q.test_mconvexity(q.relabel(inst, perm)).status != base
        for _ in range(50):
            lin = rng.uniform(-10, 10, size=inst.n)
            rewritten = q.QuadraticInstance(inst.n, inst.r, lin, inst.quad)
            flips += q.test_mconvexity(rewritten).status != base
        for _ in range(50):
            pot = rng.integers(-5, 6, size=inst.n).astype(float)
            flips += q.test_mconvexity(q.apply_potential(inst, pot)).status != base
    assert flips == 0
    report(9, "100 instances x 150 transforms: zero verdict flips")
