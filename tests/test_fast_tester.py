"""Quadratic-time deciders: normalization, plateau decomposition, typed
tests, the pipeline, and witness extraction."""

import itertools

import numpy as np
import pytest

import qmconvex as q
from helpers import all_zero, golden_yes, golden_no, random_ab_instance, random_laminar_matrix
from reference import (
    anti_ultrametric_triples,
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


def family_sets(family: q.LaminarFamily) -> set:
    return {(tuple(sorted(s)), c) for s, c in family.sets()}


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_golden_no_is_already_reduced():
    nm = q.normalize_type1(golden_no())
    assert nm.global_min == 0.0
    assert np.all(nm.row_offsets == 0.0)
    assert np.array_equal(nm.reduced, golden_no().quad, equal_nan=True)


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
        with_diag = np.where(np.eye(6, dtype=bool), np.inf, nm.reduced)
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
        with_diag = np.where(np.eye(n, dtype=bool), np.inf, nm.reduced)
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
    assert family_sets(family) == {((1, 2, 3, 4), 0.0)}


def test_decompose_two_plateaus():
    m = np.full((4, 4), 1.0)
    m[0, 1] = m[1, 0] = 5.0
    m[2, 3] = m[3, 2] = 3.0
    np.fill_diagonal(m, np.nan)
    family = q.decompose(normalized_from(m))
    assert family_sets(family) == {
        ((1, 2, 3, 4), 1.0),
        ((3, 4), 3.0),
        ((1, 2), 5.0),
    }
    assert np.array_equal(q.reconstruct(family, 4), m, equal_nan=True)
    assert anti_ultrametric_triples(m)


def test_decompose_infinite_plateau():
    m = np.zeros((4, 4))
    m[0, 1] = m[1, 0] = np.inf
    np.fill_diagonal(m, np.nan)
    family = q.decompose(normalized_from(m))
    assert family_sets(family) == {((1, 2, 3, 4), 0.0), ((1, 2), np.inf)}
    assert np.array_equal(q.reconstruct(family, 4), m, equal_nan=True)


def test_reconstruct_hand_built_families():
    root = q.LaminarNode(0.0, direct=[0, 1, 2, 3])
    assert np.array_equal(
        q.reconstruct(q.LaminarFamily(4, root), 4),
        np.where(np.eye(4), np.nan, 0.0),
        equal_nan=True,
    )

    inner_a = q.LaminarNode(5.0, direct=[0, 1])
    inner_b = q.LaminarNode(3.0, direct=[2, 3])
    root = q.LaminarNode(1.0, direct=[], children=[inner_b, inner_a])
    out = q.reconstruct(q.LaminarFamily(4, root), 4)
    expected = np.full((4, 4), 1.0)
    expected[0, 1] = expected[1, 0] = 5.0
    expected[2, 3] = expected[3, 2] = 3.0
    np.fill_diagonal(expected, np.nan)
    assert np.array_equal(out, expected, equal_nan=True)

    inf_node = q.LaminarNode(np.inf, direct=[0, 1])
    root = q.LaminarNode(0.0, direct=[2, 3], children=[inf_node])
    out = q.reconstruct(q.LaminarFamily(4, root), 4)
    expected = np.zeros((4, 4))
    expected[0, 1] = expected[1, 0] = np.inf
    np.fill_diagonal(expected, np.nan)
    assert np.array_equal(out, expected, equal_nan=True)


def test_golden_no_laminar_family():
    family = q.decompose(q.normalize_type1(golden_no()))
    assert family_sets(family) == {
        ((1, 2, 3, 4, 5), 0.0),
        ((1, 2, 3, 5), 1.0),
        ((1, 2, 5), 2.0),
        ((1, 5), np.inf),
    }


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
        for (s1, _), (s2, _) in itertools.combinations(sets, 2):
            assert s1 <= s2 or s2 <= s1 or not (s1 & s2)
        # strict monotonicity along the tree (+inf beats any finite value)
        def walk(node, parent_value):
            assert node.value > parent_value
            for child in node.children:
                walk(child, node.value)
        for child in family.root.children:
            walk(child, family.root.value)
        # reconstruction covers every off-diagonal pair
        rebuilt = q.reconstruct(family, n)
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
        assert got == np.array_equal(q.reconstruct(q.decompose(nm), n), m, equal_nan=True)
        accepted += got
        rejected += not got
    assert accepted > 30 and rejected > 30


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
    assert not anti_ultrametric_triples(nm.reduced)
    assert nm.reduced[0, 3] < min(nm.reduced[0, 2], nm.reduced[3, 2])


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
    graph = q.build_infinity_graph(golden_no())
    decomp = q.decompose_components(graph)
    quad = q.find_violation_quadruple(golden_no(), decomp, q.TYPE_I)
    assert quad == (1, 2, 3, 4)
    a = golden_no().pair
    sums = (a(1, 2) + a(3, 4), a(1, 3) + a(2, 4), a(1, 4) + a(2, 3))
    assert sums == (4.0, 2.0, 0.0)


def test_find_violation_none_on_accepted():
    graph = q.build_infinity_graph(all_zero(6, 3))
    decomp = q.decompose_components(graph)
    assert q.find_violation_quadruple(all_zero(6, 3), decomp, q.TYPE_I) is None


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
