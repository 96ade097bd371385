"""Quadratic-time deciders: normalization, plateau decomposition, typed
tests, the pipeline, and witness extraction."""

import itertools
import json

import numpy as np
import pytest

import qmconvex as q
from helpers import (
    all_zero,
    boundary_case,
    golden_no,
    golden_yes,
    random_ab_instance,
    random_laminar_matrix,
    traced_peak,
)
from qmconvex.cli import main as cli_main
from reference import (
    anti_ultrametric_triples,
    first_cross_quadruple,
    first_violating_quadruple,
    pivot_decompose,
    reduced,
    scan_anti_tree_metric,
    scan_type2_equalities,
    scan_type3_equalities,
)


def normalized_from(matrix: np.ndarray) -> q.NormalizedMatrix:
    """Wrap an arbitrary symmetric matrix (NaN diagonal) for decompose."""
    n = matrix.shape[0]
    off = ~np.eye(n, dtype=bool)
    base = float(matrix[off].min())
    return q.NormalizedMatrix(n, base, np.zeros(n), matrix)


def family_sets(sets: list[tuple[frozenset, float]]) -> set:
    return {(tuple(sorted(s)), c) for s, c in sets}


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_golden_no_is_already_reduced():
    nm = q.normalize_type1(golden_no())
    assert nm.global_min == 0.0
    assert np.all(nm.row_offsets == 0.0)
    assert np.array_equal(reduced(nm), golden_no().quad, equal_nan=True)


def test_normalize_all_zero():
    nm = q.normalize_type1(all_zero(5, 2))
    assert nm.global_min == 0.0
    assert np.all(nm.row_offsets == 0.0)


def test_normalize_row_minima_after_potential():
    # potentials are absorbed into the offsets: on an accepted instance
    # every reduced row attains the global minimum
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = rng.integers(0, 6, size=6).astype(float)
        inst = q.apply_potential(all_zero(6, 3), p)
        nm = q.normalize_type1(inst)
        with_diag = np.where(np.eye(6, dtype=bool), np.inf, reduced(nm))
        assert np.allclose(with_diag.min(axis=1), nm.global_min)


def test_normalize_row_minima_on_accepted_instances():
    # whenever the all-quadruple inequality holds, stripping the offsets
    # makes every row attain the global minimum
    rng = np.random.default_rng(19)
    for _ in range(15):
        n = int(rng.integers(5, 30))
        inst = q.gen_tree_metric_type1(n, int(rng.integers(2, n - 1)), int(rng.integers(1 << 30)))
        assert scan_anti_tree_metric(inst)
        nm = q.normalize_type1(inst)
        with_diag = np.where(np.eye(n, dtype=bool), np.inf, reduced(nm))
        row_min = with_diag.min(axis=1)
        assert np.allclose(row_min, nm.global_min, rtol=0, atol=1e-9)


def test_normalize_rejects_all_infinite_row():
    quad = np.full((4, 4), np.inf)
    np.fill_diagonal(quad, np.nan)
    inst = q.QuadraticInstance(4, 2, np.zeros(4), quad)
    with pytest.raises(q.InternalInconsistencyError):
        q.normalize_type1(inst)


# ---------------------------------------------------------------------------
# Decompose / reconstruct


def test_decompose_all_zero_single_plateau():
    family = q.decompose(normalized_from(np.where(np.eye(4), np.nan, 0.0)))
    assert family_sets(family.sets()) == {((1, 2, 3, 4), 0.0)}


def test_decompose_two_plateaus():
    m = np.full((4, 4), 1.0)
    m[0, 1] = m[1, 0] = 5.0
    m[2, 3] = m[3, 2] = 3.0
    np.fill_diagonal(m, np.nan)
    family = q.decompose(normalized_from(m))
    assert family_sets(family.sets()) == {
        ((1, 2, 3, 4), 1.0),
        ((3, 4), 3.0),
        ((1, 2), 5.0),
    }
    assert np.array_equal(q.reconstruct(family), m, equal_nan=True)
    assert anti_ultrametric_triples(m)


def test_decompose_infinite_plateau():
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = np.inf
    np.fill_diagonal(m, np.nan)
    family = q.decompose(normalized_from(m))
    assert family_sets(family.sets()) == {((1, 2, 3, 4), 0.0), ((1, 2), np.inf)}
    assert np.array_equal(q.reconstruct(family), m, equal_nan=True)


def test_reconstruct_hand_built_families():
    family = q.LaminarFamily(np.arange(4), np.zeros(4))
    assert np.array_equal(
        q.reconstruct(family), np.where(np.eye(4), np.nan, 0.0), equal_nan=True
    )

    # root 1 over {3,4} at 3 and {1,2} at 5, laid out 3, 4, 1, 2
    family = q.LaminarFamily(np.array([2, 3, 0, 1]), np.array([1.0, 3.0, 1.0, 5.0]))
    out = q.reconstruct(family)
    assert family.sets() == [  # preorder, plateaus in layout order
        (frozenset({1, 2, 3, 4}), 1.0), (frozenset({3, 4}), 3.0), (frozenset({1, 2}), 5.0)
    ]
    expected = np.full((4, 4), 1.0)
    expected[0, 1] = expected[1, 0] = 5.0
    expected[2, 3] = expected[3, 2] = 3.0
    np.fill_diagonal(expected, np.nan)
    assert np.array_equal(out, expected, equal_nan=True)

    family = q.LaminarFamily(np.arange(4), np.array([0.0, np.inf, 0.0, 0.0]))
    out = q.reconstruct(family)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = np.inf
    np.fill_diagonal(expected, np.nan)
    assert np.array_equal(out, expected, equal_nan=True)

    # gap[p] = p - 1 nests plateau k, positions k..n-1 at value k, 1500
    # deep: no recursion, and the pair (i, j) gets min(i, j)
    n = 1501
    family = q.LaminarFamily(np.arange(n), np.arange(n) - 1.0)
    out = q.reconstruct(family)
    expected = np.minimum.outer(np.arange(n), np.arange(n)).astype(float)
    np.fill_diagonal(expected, np.nan)
    assert np.array_equal(out, expected, equal_nan=True)
    sets = family.sets()
    assert len(sets) == n and sets[-1] == (frozenset({n - 1, n}), n - 2.0)


@pytest.mark.parametrize("order", [
    [0, 1, 2],  # misses index 3
    [0, 1, 2, 2],
], ids=["missing", "repeated"])
def test_reconstruct_refuses_broken_families(order):
    with pytest.raises(q.InternalInconsistencyError):
        q.reconstruct(q.LaminarFamily(np.array(order), np.zeros(4)))


def test_laminar_family_is_read_only():
    order, gap = np.arange(3), np.zeros(3)
    family = q.LaminarFamily(order, gap)
    order[0] = gap[0] = 7  # the family holds copies
    assert family.order[0] == 0 and family.gap[0] == 0.0
    with pytest.raises(ValueError):
        family.gap[1] = 1.0


def test_golden_no_laminar_family():
    nm = q.normalize_type1(golden_no())
    # a no-instance, so no family certifies anything; the pivot partition
    # (the reference) and the Cartesian tree of the Prim gaps differ here
    assert family_sets(pivot_decompose(nm)) == {
        ((1, 2, 3, 4, 5), 0.0),
        ((1, 2, 3, 5), 1.0),
        ((1, 2, 5), 2.0),
        ((1, 5), np.inf),
    }
    # Prim from index 1 visits 1, 5, 2, 3, 4 with join weights inf (a_15),
    # 2 (a_12), 1 (a_13, the first of the tied a_13 and a_45) and 2 (a_34);
    # the root's value, global_min 0, goes in gap[0].  Read as plateaus:
    # inf opens {1,5}; 2 closes it and opens {1,2,5} around it; 1 closes
    # that and opens {1,2,3,5} around it; 2 opens {3,4} from the last two
    # positions.  No gap is 0, so the root's only child also covers 1..5.
    family = q.decompose(nm)
    assert family.order.tolist() == [0, 4, 1, 2, 3]
    assert family.gap.tolist() == [0.0, np.inf, 2.0, 1.0, 2.0]
    assert family_sets(family.sets()) == {
        ((1, 2, 3, 4, 5), 0.0),
        ((1, 2, 3, 4, 5), 1.0),
        ((1, 2, 5), 2.0),
        ((1, 5), np.inf),
        ((3, 4), 2.0),
    }


def test_decompose_matches_pivot_partition_on_yes_instances():
    # the Cartesian tree of the Prim gaps and the pivot partition give the
    # same plateau sets, with values within the slack, wherever the pass
    # accepts; half the inputs are laminar-built matrices with +inf
    # plateaus, half tree metrics with potential offsets
    rng = np.random.default_rng(17)
    for trial in range(400):
        n = int(rng.integers(4, 80))
        if trial % 2:
            nm, slack = normalized_from(random_laminar_matrix(n, rng)[0]), 1e-9
        else:
            inst = q.gen_tree_metric_type1(n, 2, int(rng.integers(1 << 30)))
            inst = q.apply_potential(inst, rng.integers(-4, 5, size=n).astype(float))
            nm, slack = q.normalize_type1(inst), inst.slack(1e-9)
        assert q.check_anti_ultrametric(nm, slack)
        got = sorted(q.decompose(nm).sets(slack), key=lambda sv: sorted(sv[0]))
        want = sorted(pivot_decompose(nm, slack), key=lambda sv: sorted(sv[0]))
        assert [s for s, _ in got] == [s for s, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a == b or abs(a - b) <= slack


def random_symmetric(n, rng, inf_prob=0.15, alphabet=None):
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < inf_prob:
                v = np.inf
            elif alphabet is not None:
                v = float(rng.choice(alphabet))
            else:
                v = float(np.round(rng.uniform(-3, 3), 3))
            m[i, j] = m[j, i] = v
    np.fill_diagonal(m, np.nan)
    # keep at least one finite entry so the base value exists
    if not np.isfinite(m[~np.eye(n, dtype=bool)]).any():
        m[0, 1] = m[1, 0] = 0.0
    return m


def test_laminar_invariants_on_arbitrary_input():
    rng = np.random.default_rng(7)
    for trial in range(150):
        n = int(rng.integers(3, 12))
        m = random_symmetric(n, rng, alphabet=(0, 1, 2) if trial % 2 else None)
        family = q.decompose(normalized_from(m))
        sets = family.sets()
        # nestedness: pairwise nested or disjoint, ground set present
        universe = frozenset(range(1, n + 1))
        assert sets[0][0] == universe
        for (s1, c1), (s2, c2) in itertools.combinations(sets, 2):
            assert s1 <= s2 or s2 <= s1 or not (s1 & s2)
            # preorder, and strict value growth along nesting (+inf beats
            # any finite value): a later set never holds an earlier one
            # strictly, and a later set inside an earlier one lies deeper
            assert not s1 < s2
            if s2 <= s1:
                assert c2 > c1
        # reconstruction covers every off-diagonal pair
        rebuilt = q.reconstruct(family)
        off = ~np.eye(n, dtype=bool)
        assert not np.isnan(rebuilt[off]).any()
        # every pair equals the value of the smallest containing set; on
        # junk input the root set can repeat one level down, so ties take
        # the deeper (larger) value
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                best = min(
                    (s for s, _ in sets if i in s and j in s), key=len
                )
                value = max(c for s, c in sets if s == best)
                assert rebuilt[i - 1, j - 1] == value


def test_check_anti_ultrametric_matches_triple_scan():
    rng = np.random.default_rng(9)
    accepted = rejected = 0
    for trial in range(200):
        n = int(rng.integers(3, 10))
        if trial % 3 == 0:
            m, _ = random_laminar_matrix(n, rng)
        else:
            m = random_symmetric(n, rng, alphabet=(0, 1, 2) if trial % 2 else None)
        nm = normalized_from(m)
        got = q.check_anti_ultrametric(nm)
        assert got == anti_ultrametric_triples(m)
        # the kept certificate agrees with the decision
        assert got == np.array_equal(q.reconstruct(q.decompose(nm)), m, equal_nan=True)
        accepted += got
        rejected += not got
    assert accepted > 30 and rejected > 30
    # normalized instances carry offsets, which the pass strips row by row
    accepted = rejected = 0
    for trial in range(80):
        n = int(rng.integers(4, 12))
        inst = q.gen_tree_metric_type1(n, 2, int(rng.integers(1 << 30)))
        inst = q.apply_potential(inst, rng.integers(-4, 5, size=n).astype(float))
        for _ in range(trial % 3):
            i, j = rng.choice(n, size=2, replace=False) + 1
            inst = q.perturb(inst, (int(i), int(j)), float(rng.choice((-2, -1, 1, 2))))
        nm = q.normalize_type1(inst)
        assert nm.row_offsets.any()
        slack = inst.slack(1e-9)
        got = q.check_anti_ultrametric(nm, slack)
        assert got == anti_ultrametric_triples(reduced(nm), slack)
        accepted += got
        rejected += not got
    assert accepted > 20 and rejected > 20


def test_check_anti_ultrametric_slack_does_not_add_up():
    # a_0i = 1, and on the chain 1..k every entry sits 1.8e-9 (under eps)
    # below its neighbour closer to the diagonal: each row is within eps of
    # the previous one, but the triple (1, k, k/2) falls short by about
    # (k/2) * 1.8e-9, so the check must compare against the tree's edge
    # weights rather than against rows it accepted earlier
    for k in (11, 12, 40):
        n = k + 1
        m = np.ones((n, n))
        for i in range(1, n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = 2 - (j - i - 1) * 1.8e-9
        np.fill_diagonal(m, np.nan)
        assert q.check_anti_ultrametric(normalized_from(m)) == anti_ultrametric_triples(m)
        assert not anti_ultrametric_triples(m)


def test_check_anti_ultrametric_golden_no_rejects():
    nm = q.normalize_type1(golden_no())
    assert not q.check_anti_ultrametric(nm)
    # the direct triple scan finds the same answer, e.g. at (1, 4, 3)
    r = reduced(nm)
    assert not anti_ultrametric_triples(r)
    assert r[0, 3] < min(r[0, 2], r[3, 2])


# ---------------------------------------------------------------------------
# Typed deciders


def test_type1_golden_no_rejected_and_oracle_agrees():
    verdict = q.test_mconvexity(golden_no())
    assert verdict.status == q.NOT_M_CONVEX
    assert verdict.method == "algorithm-I"
    assert verdict.type_label == q.TYPE_I
    assert q.exchange_axiom_holds(golden_no()).status == q.NOT_M_CONVEX


def test_type1_all_zero_accepted():
    verdict = q.test_mconvexity(all_zero(6, 3))
    assert verdict.status == q.M_CONVEX and verdict.method == "algorithm-I"


def test_type1_generated_tree_instances():
    for seed in range(4):
        inst = q.gen_tree_metric_type1(8, 3, seed)
        assert q.test_mconvexity(inst).status == q.M_CONVEX
        assert q.local_exchange_holds(inst).status == q.M_CONVEX


def test_type1_builds_no_square_matrix():
    n = 800
    yes = q.gen_tree_metric_type1(n, n // 4, 3)
    no = q.perturb(yes, (n // 2, n - 1), 1.0)
    for inst, want in ((yes, q.M_CONVEX), (no, q.NOT_M_CONVEX)):
        inst.scale  # computed once per instance, with its own n x n mask
        verdict, peak = traced_peak(lambda: q.test_type1(inst))
        assert verdict.status == want
        assert peak < n * n, peak
    # the laminar family comes from the same pass, not the reduced matrix
    family, peak = traced_peak(lambda: q.decompose(q.normalize_type1(yes)))
    assert family.gap[0] == q.normalize_type1(yes).global_min
    assert peak < n * n, peak


def test_pipeline_frees_the_infinity_graph_before_the_typed_pass():
    # a fresh instance computes its scale inside the typed pass, with an
    # n x n mask of its own; the infinity graph's mask must be gone by then
    n = 800
    type1 = q.gen_tree_metric_type1(n, n // 4, 3)
    type3 = q.gen_linear_typed([4] * (n // 4), n // 4, 1)
    for inst, label in ((type1, q.TYPE_I), (type3, q.TYPE_III)):
        verdict, peak = traced_peak(lambda: q.test_mconvexity(inst))
        assert verdict.status == q.M_CONVEX and verdict.type_label == label
        assert peak < 1.5 * n * n, (label, peak)


def test_type2_golden_yes_accepted():
    verdict = q.test_mconvexity(golden_yes())
    assert verdict.status == q.M_CONVEX
    assert verdict.method == "algorithm-II"
    assert verdict.type_label == q.TYPE_II


def test_type2_golden_yes_perturbed_rejected():
    inst = q.perturb(golden_yes(), (4, 5), 1.0)  # a_45: 2 -> 3
    assert q.test_mconvexity(inst).status == q.NOT_M_CONVEX
    assert q.exchange_axiom_holds(inst).status == q.NOT_M_CONVEX


def test_type2_generated_accepted():
    inst = q.gen_linear_typed([2, 1, 1, 1], 3, seed=5)
    verdict = q.test_mconvexity(inst)
    assert verdict.status == q.M_CONVEX and verdict.method == "algorithm-II"
    assert q.exchange_axiom_holds(inst).status == q.M_CONVEX


def test_type3_goldens():
    base = q.QuadraticInstance.from_entries(4, 2, {(1, 2): q.INF, (3, 4): q.INF})
    verdict = q.test_mconvexity(base)
    assert verdict.status == q.M_CONVEX and verdict.method == "algorithm-III"

    bumped = q.perturb(base, (1, 3), 1.0)
    assert q.test_mconvexity(bumped).status == q.NOT_M_CONVEX
    oracle_verdict = q.exchange_axiom_holds(bumped)
    assert oracle_verdict.status == q.NOT_M_CONVEX
    assert oracle_verdict.witness.x == (1, 4) and oracle_verdict.witness.y == (2, 3)

    gen = q.gen_linear_typed([3, 3], 2, seed=2)
    assert q.test_mconvexity(gen).status == q.M_CONVEX
    assert q.exchange_axiom_holds(gen).status == q.M_CONVEX


def test_typed_deciders_match_reference_scans():
    rng = np.random.default_rng(31)
    seen = {("I", True): 0, ("I", False): 0, ("II", True): 0, ("II", False): 0,
            ("III", True): 0, ("III", False): 0}
    for trial in range(120):
        n = int(rng.integers(6, 13))
        kind = trial % 3
        if kind == 0:
            inst = q.gen_tree_metric_type1(n, int(rng.integers(2, n - 1)), int(rng.integers(1e6)))
        elif kind == 1:
            r = int(rng.integers(2, n - 2))
            sizes = [1] * r
            sizes[0] += n - r - 1
            sizes.append(1)
            inst = q.gen_linear_typed(sizes, r, int(rng.integers(1e6)))
        else:
            r = int(rng.integers(2, n - 2))
            sizes = [1] * r
            sizes[0] += (n - r) // 2
            sizes[1] += n - r - (n - r) // 2
            inst = q.gen_linear_typed(sizes, r, int(rng.integers(1e6)))
        if rng.random() < 0.5:
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            if np.isfinite(inst.pair(i, j)):
                inst = q.perturb(inst, (i, j), float(rng.choice((-1.0, 1.0))))
        graph = q.build_infinity_graph(inst)
        decomp = q.decompose_components(graph)
        label = q.classify(decomp, inst.r)
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
        seen[(label, want)] += 1
    # both outcomes observed for every type
    assert all(count > 0 for count in seen.values()), seen


def test_type1_relabel_invariance_at_scale():
    # the Prim visit order and its argmax ties depend on the labels
    rng = np.random.default_rng(43)
    for n in (60, 200):
        for seed in range(3):
            yes = q.gen_tree_metric_type1(n, n // 4, seed)
            i, j = sorted(int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            no = q.perturb(yes, (i, j), 1.0)
            for inst, want in ((yes, q.M_CONVEX), (no, q.NOT_M_CONVEX)):
                assert q.test_mconvexity(inst).status == want
                for _ in range(4):
                    perm = [int(v) + 1 for v in rng.permutation(n)]
                    verdict = q.test_mconvexity(q.relabel(inst, perm))
                    assert verdict.status == want and verdict.method == "algorithm-I"


@pytest.mark.parametrize("label, r", [(q.TYPE_III, 2), (q.TYPE_II, 5)])
def test_cross_block_slack_does_not_add_up(label, r):
    # the 5-clique 1..5 against 6..10 (a second 5-clique for type III,
    # isolated indices for type II), cross entries 1 + 0.9e-9 * i * j:
    # a_ij + a_kl - a_il - a_kj = 0.9e-9 * (i - k) * (j - l), so adjacent
    # 2x2 cells are off by 0.9e-9, under the slack, and the block's corners
    # 1, 5 and 6, 10 by 16 times that
    n = 10
    quad = 1 + 0.9e-9 * np.outer(np.arange(1, n + 1), np.arange(1, n + 1))
    quad[:5, :5] = q.INF
    if label == q.TYPE_III:
        quad[5:, 5:] = q.INF
    np.fill_diagonal(quad, np.nan)
    inst = q.QuadraticInstance(n, r, np.zeros(n), quad)
    decomp = q.decompose_components(q.build_infinity_graph(inst))
    scan = scan_type3_equalities if label == q.TYPE_III else scan_type2_equalities
    assert not scan(inst, decomp.big)
    assert q.exchange_axiom_holds(inst).status == q.NOT_M_CONVEX
    verdict = q.test_mconvexity(inst, explain=True)
    assert (verdict.status, verdict.type_label) == (q.NOT_M_CONVEX, label)
    assert q.verify_witness(inst, verdict.witness)


# ---------------------------------------------------------------------------
# Pipeline policy


def test_typed_deciders_flag_infinite_cross_entries():
    # a decomposition that puts an infinite pair across a block boundary
    # violates the caller's preconditions and must be flagged
    inst = q.QuadraticInstance.from_entries(5, 3, {(1, 5): q.INF, (1, 3): 1.0})
    fake = q.ComponentDecomposition(((1, 2), (3,), (4,), (5,)), ((1, 2),), (3, 4, 5))
    with pytest.raises(q.InternalInconsistencyError):
        q.test_type2(inst, fake)
    fake3 = q.ComponentDecomposition(((1, 2), (4, 5), (3,)), ((1, 2), (4, 5)), (3,))
    with pytest.raises(q.InternalInconsistencyError):
        q.test_type3(inst, fake3)
    # index 3, the first member of the later component, is +inf against
    # every row of the earlier one: the whole anchor column is +inf, so the
    # additive comparison passes (inf == inf) and only the +inf check flags it
    column = q.QuadraticInstance.from_entries(
        4, 2, {(1, 2): q.INF, (3, 4): q.INF, (1, 3): q.INF, (2, 3): q.INF, (1, 4): 2.0}
    )
    block = column.quad[np.ix_([0, 1], [2, 3])]
    anchor = np.zeros(2, dtype=np.intp)
    assert q.core.approx_eq_array(block[1:] + block[0, anchor], block[1:, anchor] + block[0]).all()
    fake_column = q.ComponentDecomposition(((1, 2), (3, 4)), ((1, 2), (3, 4)), ())
    with pytest.raises(q.InternalInconsistencyError):
        q.test_type3(column, fake_column)


def test_smallest_instances_short_circuit():
    assert q.test_mconvexity(q.QuadraticInstance.from_entries(2, 1)).status == q.M_CONVEX
    assert q.test_mconvexity(q.QuadraticInstance.from_entries(3, 2)).status == q.M_CONVEX


def test_pipeline_slice_shortcuts():
    inst = q.QuadraticInstance.from_entries(5, 1, {(1, 2): q.INF})
    verdict = q.test_mconvexity(inst)
    assert verdict.status == q.M_CONVEX and verdict.method == "slice-linear"

    covered = q.QuadraticInstance.from_entries(4, 3, {(1, 2): q.INF})
    assert q.test_mconvexity(covered).status == q.M_CONVEX

    empty = q.QuadraticInstance.from_entries(4, 3, {(1, 2): q.INF, (3, 4): q.INF})
    assert q.test_mconvexity(empty).status == q.INVALID_INSTANCE


def test_slice_shortcut_matches_oracle_exhaustively():
    # every instance over {0, 1, +inf} with n <= 5 and r in {1, n-1}
    compared = {q.M_CONVEX: 0, q.INVALID_INSTANCE: 0}
    for n in range(2, 6):
        upper = np.triu_indices(n, 1)
        for values in itertools.product((0.0, 1.0, q.INF), repeat=len(upper[0])):
            quad = np.full((n, n), np.nan)
            quad[upper] = values
            quad.T[upper] = values
            for r in sorted({1, n - 1}):
                inst = q.QuadraticInstance(n, r, np.zeros(n), quad)
                verdict = q.test_mconvexity(inst)
                assert verdict.method == "slice-linear"
                assert verdict.status == q.exchange_axiom_holds(inst).status
                compared[verdict.status] += 1
    assert min(compared.values()) > 10_000


def test_pipeline_condition_b_policies():
    path = q.QuadraticInstance.from_entries(5, 2, {(1, 2): q.INF, (2, 3): q.INF})
    assumed = q.test_mconvexity(path, assume_condition_a=True)
    assert assumed.status == q.NOT_M_CONVEX
    assert assumed.method == "condition-b"
    assert assumed.witness.indices == (1, 2, 3)
    assert q.verify_witness(path, assumed.witness)
    # condition A indeed holds here, so the answer is sound
    domain = q.enumerate_domain(path)
    touched = set()
    for s in domain.supports:
        touched.update(s)
    assert touched == set(range(1, 6))
    ok, _ = q.is_mconvex_set(domain)
    assert not ok

    fallback = q.test_mconvexity(path)
    assert fallback.status == q.NOT_M_CONVEX
    assert fallback.method == "oracle-exchange"

    capped = q.test_mconvexity(path, brute_force_budget=1)
    assert capped.status == q.UNDECIDED and capped.method == "budget-exceeded"


def test_pipeline_dom_empty_is_invalid():
    entries = {(i, j): q.INF for i, j in itertools.combinations(range(1, 5), 2)}
    inst = q.QuadraticInstance.from_entries(6, 4, entries)
    verdict = q.test_mconvexity(inst)
    assert verdict.status == q.INVALID_INSTANCE and verdict.method == "domain-empty"


def test_pipeline_agrees_with_oracle_on_mixed_corpus():
    rng = np.random.default_rng(37)
    for _ in range(200):
        n = int(rng.integers(5, 8))
        inst = random_ab_instance(n, rng)
        assert q.test_mconvexity(inst).status == q.exchange_axiom_holds(inst).status


def test_pipeline_agrees_exhaustively_n4_alphabet4():
    # every n=4, r=2 instance over {0, 1, 2, +inf}; the pipeline's
    # rejection-on-failed-B shortcut is sound exactly when condition A
    # holds, so the comparison is filtered to those instances
    pairs = list(itertools.combinations(range(1, 5), 2))
    compared = 0
    for values in itertools.product((0.0, 1.0, 2.0, q.INF), repeat=6):
        inst = q.QuadraticInstance.from_entries(4, 2, dict(zip(pairs, values)))
        domain = q.enumerate_domain(inst)
        touched = set()
        for s in domain.supports:
            touched.update(s)
        if len(touched) != 4:
            continue
        fast = q.test_mconvexity(inst, assume_condition_a=True)
        assert fast.status == q.exchange_axiom_holds(inst).status
        compared += 1
    assert compared > 2000


# ---------------------------------------------------------------------------
# Witness extraction


def test_find_violation_golden_no():
    # the Prim pass visits 1, then 5 (a_15 = +inf), and stops at 2: it
    # joins under its parent 1 at a_12 = 2, so its bottleneck to 5 is 2,
    # but a_25 = 0; (5, 2, 1, l) first violates at l = 3
    graph = q.build_infinity_graph(golden_no())
    decomp = q.decompose_components(graph)
    quad = q.find_violation_quadruple(golden_no(), decomp, q.TYPE_I)
    assert quad == (1, 2, 3, 5)
    a = golden_no().pair
    sums = (a(1, 2) + a(3, 5), a(1, 3) + a(2, 5), a(1, 5) + a(2, 3))
    assert sums == (2.0, 1.0, q.INF)


def test_find_violation_none_on_accepted():
    graph = q.build_infinity_graph(all_zero(6, 3))
    decomp = q.decompose_components(graph)
    assert q.find_violation_quadruple(all_zero(6, 3), decomp, q.TYPE_I) is None


def _type1_case(rng: np.random.Generator) -> q.QuadraticInstance:
    """Type I tree-metric instance, n 4-15, sometimes with an infinite
    clique of 2-4 indices or noise of eps/100 times max|a|, then 0-3
    integer bumps."""
    n = int(rng.integers(4, 16))
    clique = int(rng.integers(2, 5)) if n >= 7 and rng.random() < 0.4 else 0
    r = int(rng.integers(2, n - max(clique, 1)))  # s = n - clique + 1 >= r + 2
    inst = q.gen_tree_metric_type1(n, r, int(rng.integers(2**31)))
    quad = inst.quad.copy()
    if clique:
        members = rng.choice(n, size=clique, replace=False)
        quad[np.ix_(members, members)] = np.inf
    if rng.random() < 0.3:
        noise = np.triu(rng.uniform(-1, 1, (n, n)), 1) * 1e-11 * np.nanmax(np.abs(inst.quad))
        quad += noise + noise.T
    np.fill_diagonal(quad, np.nan)
    inst = q.QuadraticInstance(n, r, inst.linear, quad)
    for _ in range(int(rng.integers(0, 4))):
        i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
        if np.isfinite(inst.pair(i, j)):
            inst = q.perturb(inst, (i, j), float(rng.choice((-2.0, -1.0, 1.0, 2.0))))
    return inst


def test_type1_witness_matches_quadruple_scan():
    # every rejection's witness verifies; when it is a quadruple, the loop
    # over all quadruples finds a violation too, and find_violation_quadruple
    # names the same one
    rng = np.random.default_rng(71)
    rejected = 0
    for _ in range(600):
        inst = _type1_case(rng)
        decomp = q.decompose_components(q.build_infinity_graph(inst))
        assert q.classify(decomp, inst.r) == q.TYPE_I
        verdict = q.test_mconvexity(inst, explain=True)
        found = q.find_violation_quadruple(inst, decomp, q.TYPE_I)
        if verdict.status == q.M_CONVEX:
            assert verdict.witness is None and found is None
            continue
        rejected += 1
        assert q.verify_witness(inst, verdict.witness)
        if verdict.witness.kind == q.QUADRUPLE_VIOLATION:
            assert found == verdict.witness.indices
            assert first_violating_quadruple(inst) is not None
        else:
            assert found is None
    assert 300 < rejected < 600


def test_prim_parent_is_the_first_tree_index_at_the_join_weight():
    # integer tree metrics tie often; the witness reads t = parent[v], which
    # must be the first index in visit order whose reduced entry to v is
    # the join weight, up to and including a stopped pass's failing row
    rng = np.random.default_rng(73)
    ties = 0
    for _ in range(300):
        inst = _type1_case(rng)
        nm = q.normalize_type1(inst)
        order, gap, parent, stop = q.fast_tester._prim_pass(nm, inst.slack(1e-9))
        red = reduced(nm)
        for k in range(1, min(stop + 1, inst.n)):
            column = red[order[:k], order[k]]
            assert gap[k] == column.max()
            assert parent[order[k]] == order[:k][column.argmax()]
            ties += int(np.count_nonzero(column == gap[k]) > 1)
    assert ties > 100, ties


def test_type1_witness_skips_all_infinite_quadruples():
    # {1, 2, 3, 4} is an infinite clique, so most quadruples through the
    # failing cell have three +inf pairing sums; (1, 2, 5, 6) has 0, 1 and
    # +inf, and is also the first violation in lexicographic order
    entries = {(a, b): q.INF for a, b in itertools.combinations(range(1, 5), 2)}
    entries[(1, 5)] = 1.0
    inst = q.QuadraticInstance.from_entries(8, 3, entries)
    decomp = q.decompose_components(q.build_infinity_graph(inst))
    assert q.classify(decomp, inst.r) == q.TYPE_I
    assert q.find_violation_quadruple(inst, decomp, q.TYPE_I) == (1, 2, 5, 6)
    assert first_violating_quadruple(inst) == (1, 2, 5, 6)
    verdict = q.test_mconvexity(inst, explain=True)
    assert verdict.witness.indices == (1, 2, 5, 6)
    assert q.verify_witness(inst, verdict.witness)


def test_type1_witness_deep_in_the_scan():
    # pair (n-1, n) moved so that a_12 + a_{n-1,n} is the one smallest sum
    # of {1, 2, n-1, n}, one unit below the others: the lexicographically
    # first violation sits about C(n-2, 2) quadruples into a scan, but the
    # witness comes from the stopped pass, through the cell it failed on
    n = 120
    inst = q.gen_tree_metric_type1(n, n // 4, 3)
    a = inst.quad
    target = min(a[0, n - 2] + a[1, n - 1], a[0, n - 1] + a[1, n - 2]) - 1.0
    inst = q.perturb(inst, (n - 1, n), target - a[n - 2, n - 1] - a[0, 1])
    decomp = q.decompose_components(q.build_infinity_graph(inst))
    assert q.find_violation_quadruple(inst, decomp, q.TYPE_I) == (1, 65, n - 1, n)
    verdict = q.test_mconvexity(inst, explain=True)
    assert verdict.witness.indices == (1, 65, n - 1, n)
    assert q.verify_witness(inst, verdict.witness)


def _bottleneck_matrix(nm: q.NormalizedMatrix) -> np.ndarray:
    """B[p, q] = the smallest gap between the visit positions of p and q,
    from the running minima of a Prim pass with an infinite slack."""
    order, gap, _, _ = q.fast_tester._prim_pass(nm, q.INF)
    out = np.full((nm.n, nm.n), np.nan)
    run = np.full(nm.n, q.INF)
    for k in range(1, nm.n):
        np.minimum(run[:k], gap[k], out=run[:k])
        out[order[k], order[:k]] = out[order[:k], order[k]] = run[:k]
    return out


def test_type1_rejects_iff_bottleneck_excess_exceeds_slack():
    # B is the smallest reversed ultrametric above R, so the pass's
    # contract is max(B - R) <= slack: R within slack/2 of one.  The
    # laminar family is the certificate: reconstruct(decompose) is B
    rng = np.random.default_rng(5)
    cases = [boundary_case(rng) for _ in range(300)] + [_type1_case(rng) for _ in range(300)]
    rejected = 0
    for inst in cases:
        nm, slack = q.normalize_type1(inst), inst.slack(1e-9)
        b = q.reconstruct(q.decompose(nm))
        assert np.array_equal(b, _bottleneck_matrix(nm), equal_nan=True)
        off = ~np.eye(inst.n, dtype=bool)
        with np.errstate(invalid="ignore"):  # +inf on both sides is no excess
            excess = np.where(b == reduced(nm), 0.0, b - reduced(nm))[off]
        assert excess.min() >= -slack
        accepted = q.check_anti_ultrametric(nm, slack)
        assert accepted == (excess.max() <= slack)
        rejected += not accepted
    assert 300 < rejected < 600


def test_type1_boundary_witnesses_verify(tmp_path, capsys):
    # rejections that no quadruple certifies by more than the slack get a
    # bottleneck path; explain exits 1 on every rejection, never 5
    rng = np.random.default_rng(11)
    path = tmp_path / "boundary.json"
    kinds = {q.QUADRUPLE_VIOLATION: 0, q.BOTTLENECK_PATH: 0}
    for _ in range(300):
        inst = boundary_case(rng)
        path.write_text(q.serialize_instance(inst))
        code = cli_main(["explain", "--input", str(path)])
        doc = json.loads(capsys.readouterr().out)
        accepted = q.check_anti_ultrametric(q.normalize_type1(inst), inst.slack(1e-9))
        assert doc["status"] == (q.M_CONVEX if accepted else q.NOT_M_CONVEX)
        assert code == (0 if accepted else 1)
        if not accepted:
            witness = q.Witness(doc["witness"]["kind"], indices=tuple(doc["witness"]["indices"]))
            assert q.verify_witness(inst, witness), witness
            kinds[witness.kind] += 1
    assert kinds[q.QUADRUPLE_VIOLATION] >= 100 and kinds[q.BOTTLENECK_PATH] >= 5, kinds


def test_type1_integer_bump_witnesses_are_quadruples():
    # a bump by a whole unit leaves a quadruple through the failing cell
    rng = np.random.default_rng(23)
    rejected = 0
    for _ in range(200):
        n = int(rng.integers(6, 40))
        inst = q.gen_tree_metric_type1(n, int(rng.integers(2, n - 2)), int(rng.integers(2**31)))
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(v) + 1 for v in rng.choice(n, size=2, replace=False))
            inst = q.perturb(inst, (i, j), float(rng.choice((-2.0, -1.0, 1.0, 2.0))))
        verdict = q.test_type1(inst)
        if verdict.status == q.NOT_M_CONVEX:
            rejected += 1
            assert verdict.witness.kind == q.QUADRUPLE_VIOLATION, verdict.witness
            assert q.verify_witness(inst, verdict.witness)
    assert rejected > 150


def test_find_violation_type2_roles():
    inst = q.perturb(golden_yes(), (4, 5), 1.0)
    graph = q.build_infinity_graph(inst)
    decomp = q.decompose_components(graph)
    found = q.find_violation_quadruple(inst, decomp, q.TYPE_II)
    i, j, k, l = found
    assert {i, k} <= {1, 5} and {j, l} <= {2, 3, 4}
    assert q.quadruple_violated(inst, *found)
    residual = abs(
        inst.pair(i, j) + inst.pair(k, l) - inst.pair(i, l) - inst.pair(j, k)
    )
    assert residual > 1e-6


def test_explain_mode_attaches_verified_witness():
    for inst in (golden_no(), q.perturb(golden_yes(), (4, 5), 1.0)):
        verdict = q.test_mconvexity(inst, explain=True)
        assert verdict.status == q.NOT_M_CONVEX
        assert verdict.witness is not None
        assert q.verify_witness(inst, verdict.witness)


def test_explain_mode_skips_witness_on_accept():
    verdict = q.test_mconvexity(golden_yes(), explain=True)
    assert verdict.status == q.M_CONVEX and verdict.witness is None


def test_cross_rejection_is_decided_and_explained_by_one_pass(monkeypatch):
    # test_type2 and test_type3 name the quadruple as they decide; the
    # pipeline keeps it only in explain mode, so default output has none
    calls = []
    cross_violation = q.fast_tester._cross_violation

    def counted(*args):
        calls.append(args[2])
        return cross_violation(*args)

    monkeypatch.setattr(q.fast_tester, "_cross_violation", counted)
    cases = [
        (q.perturb(golden_yes(), (4, 5), 1.0), q.TYPE_II, q.test_type2),
        (q.perturb(q.gen_linear_typed([3, 3, 2, 2], 4, 0), (1, 4), 1.0), q.TYPE_III, q.test_type3),
    ]
    for inst, label, decider in cases:
        decomp = q.decompose_components(q.build_infinity_graph(inst))
        typed = decider(inst, decomp)
        assert typed.status == q.NOT_M_CONVEX
        assert typed.witness.indices == q.find_violation_quadruple(inst, decomp, label)
        assert q.verify_witness(inst, typed.witness)
        assert q.test_mconvexity(inst).witness is None
        calls.clear()
        assert q.test_mconvexity(inst, explain=True).witness == typed.witness
        assert calls == [label]


def _bumped_cross_instance(rng: np.random.Generator, label: str) -> q.QuadraticInstance:
    """Relabeled type II or III yes-instance with up to two integer bumps."""
    count = int(rng.integers(3, 6))
    sizes = [int(rng.integers(1, 4)) for _ in range(count)]
    sizes[0] = max(sizes[0], 2)
    if label == q.TYPE_III:
        sizes[1] = max(sizes[1], 2)
    r = count - 1 if label == q.TYPE_II else count
    inst = q.gen_linear_typed(sizes, r, int(rng.integers(1e6)))
    inst = q.relabel(inst, [int(v) + 1 for v in rng.permutation(inst.n)])
    for _ in range(int(rng.integers(0, 3))):
        i, j = (int(v) + 1 for v in rng.choice(inst.n, size=2, replace=False))
        if np.isfinite(inst.pair(i, j)):
            inst = q.perturb(inst, (i, j), float(rng.choice((-2.0, -1.0, 1.0, 2.0))))
    return inst


def test_cross_witness_matches_block_scan():
    # the deciding pass names the quadruple that the block-by-block scan of
    # the quantifier range meets first: first failing block, then its first
    # failing cell in row-major order
    rng = np.random.default_rng(47)
    rejected = two_block = 0
    for trial in range(300):
        label = (q.TYPE_II, q.TYPE_III)[trial % 2]
        expected = None
        if trial % 6 == 1:
            # two failing blocks of the component {1, 2, 3}: its last row
            # against {4, 5} and its middle row against {6, 7}, so a
            # row-major walk over the whole gather would pick the later block
            inst = q.gen_linear_typed([3, 2, 2, 1], 4, int(rng.integers(1e6)))
            inst = q.perturb(q.perturb(inst, (3, 5), 1.0), (2, 7), -1.0)
            expected = (1, 4, 3, 5)
            two_block += 1
        else:
            inst = _bumped_cross_instance(rng, label)
        decomp = q.decompose_components(q.build_infinity_graph(inst))
        if inst.r in (1, inst.n - 1) or q.classify(decomp, inst.r) != label:
            continue
        found = q.find_violation_quadruple(inst, decomp, label)
        assert found == first_cross_quadruple(inst, decomp.big, label)
        if expected is not None:
            assert found == expected
        verdict = q.test_mconvexity(inst, explain=True)
        assert (verdict.status, verdict.type_label) == (
            q.M_CONVEX if found is None else q.NOT_M_CONVEX, label
        )
        if found is not None:
            rejected += 1
            assert verdict.witness.indices == found
            assert q.verify_witness(inst, verdict.witness)
    assert rejected > 100 and two_block == 50


def _scattered_cross_instance(rng, label, sizes) -> q.QuadraticInstance:
    r = len(sizes) - 1 if label == q.TYPE_II else len(sizes)
    inst = q.gen_linear_typed(sizes, r, int(rng.integers(1e6)))
    return q.relabel(inst, [int(v) + 1 for v in rng.permutation(inst.n)])


def _bump_between(inst, rng, rows, cols) -> q.QuadraticInstance:
    pair = (int(rng.choice(rows)), int(rng.choice(cols)))
    return q.perturb(inst, pair, float(rng.choice((-2.0, -1.0, 1.0, 2.0))))


def _assert_cross_witness(inst, label):
    decomp = q.decompose_components(q.build_infinity_graph(inst))
    assert q.classify(decomp, inst.r) == label
    found = q.find_violation_quadruple(inst, decomp, label)
    assert found is not None
    assert found == first_cross_quadruple(inst, decomp.big, label)
    verdict = q.test_mconvexity(inst, explain=True)
    assert verdict.status == q.NOT_M_CONVEX and verdict.witness.indices == found
    assert q.verify_witness(inst, verdict.witness)
    return found


def test_type3_scattered_mixed_components_match_block_scan():
    # about 30 relabelled cliques of 2 to 9 members: each component's
    # columns are a slice of one component order, which must name the same
    # columns, in the same blocks, as the later components laid side by side
    rng = np.random.default_rng(53)
    for _ in range(4):
        sizes = [int(v) for v in rng.integers(2, 10, size=30)]
        base = _scattered_cross_instance(rng, q.TYPE_III, sizes)
        big = q.decompose_components(q.build_infinity_graph(base)).big
        assert sorted(map(len, big)) == sorted(sizes)
        middle = len(big) // 2
        last = _bump_between(base, rng, big[-2], big[-1])
        found = _assert_cross_witness(last, q.TYPE_III)
        assert found[0] == big[-2][0] and found[1] == big[-1][0]
        both = _bump_between(last, rng, big[middle], big[int(rng.integers(middle + 1, len(big)))])
        found = _assert_cross_witness(both, q.TYPE_III)
        assert found[0] == big[middle][0]


def test_type2_two_components_and_isolated_match_block_scan():
    rng = np.random.default_rng(59)
    for _ in range(6):
        sizes = [int(v) for v in rng.integers(2, 10, size=2)] + [1] * int(rng.integers(3, 12))
        base = _scattered_cross_instance(rng, q.TYPE_II, sizes)
        decomp = q.decompose_components(q.build_infinity_graph(base))
        assert len(decomp.big) == 2
        first, second = decomp.big
        # only the second component's block fails
        found = _assert_cross_witness(_bump_between(base, rng, second, decomp.isolated), q.TYPE_II)
        assert found[0] == second[0]
        # a pair across the two components lies in both blocks; the first wins
        found = _assert_cross_witness(_bump_between(base, rng, first, second), q.TYPE_II)
        assert found[0] == first[0]


def test_type3_explain_finds_violation_in_last_block():
    # 25 cliques of 8 at n=200; only the last block (185..192 against
    # 193..200) is bumped, so the witness comes from the final block
    inst = q.perturb(q.gen_linear_typed([8] * 25, 25, seed=5), (192, 200), 1.0)
    verdict = q.test_mconvexity(inst, explain=True)
    assert (verdict.status, verdict.type_label) == (q.NOT_M_CONVEX, q.TYPE_III)
    assert verdict.witness.indices == (185, 193, 192, 200)
    assert q.verify_witness(inst, verdict.witness)
    decomp = q.decompose_components(q.build_infinity_graph(inst))
    assert first_cross_quadruple(inst, decomp.big, q.TYPE_III) == (185, 193, 192, 200)


# ---------------------------------------------------------------------------
# Verdict invariance


def test_verdict_invariance_under_transforms():
    rng = np.random.default_rng(41)
    corpus = [
        golden_yes(),
        golden_no(),
        q.gen_tree_metric_type1(7, 3, 1),
        q.perturb(q.gen_tree_metric_type1(7, 3, 2), (1, 2), -1.0),
        q.gen_linear_typed([2, 2, 1], 2, 3),
    ]
    for inst in corpus:
        base = q.test_mconvexity(inst).status
        for _ in range(8):
            perm = [int(v) + 1 for v in rng.permutation(inst.n)]
            assert q.test_mconvexity(q.relabel(inst, perm)).status == base
            pot = rng.integers(-4, 5, size=inst.n).astype(float)
            assert q.test_mconvexity(q.apply_potential(inst, pot)).status == base
            lin = rng.uniform(-5, 5, size=inst.n)
            rewritten = q.QuadraticInstance(inst.n, inst.r, lin, inst.quad)
            assert q.test_mconvexity(rewritten).status == base
