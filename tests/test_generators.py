"""Generators, the graph reduction, and the stable-set question."""

import itertools

import numpy as np
import pytest

import qmconvex as q
from helpers import golden_yes, random_simple_graph
from reference import enumerate_domain_by_loop, scan_anti_tree_metric, scan_type2_equalities


# ---------------------------------------------------------------------------
# Tree-metric instances


def test_star_tree_gives_constant_matrix():
    n = 6
    edges = tuple((n + 1, i, 1.0) for i in range(1, n + 1))
    star = q.WeightedTree(n + 1, edges, tuple(range(1, n + 1)))
    dist = q.leaf_distance_matrix(star)
    off = ~np.eye(n, dtype=bool)
    assert np.all(dist[off] == 2.0)
    inst = q.tree_metric_instance(star, 3)
    assert np.all(inst.quad[off] == inst.quad[0, 1])
    assert scan_anti_tree_metric(inst)
    assert q.test_mconvexity(inst).status == q.M_CONVEX


def test_random_tree_distances_match_fast_generator():
    # same seed, two routes: incremental skeleton rows vs per-leaf traversal
    for seed in range(5):
        fast = q.gen_tree_metric_type1(9, 4, seed)
        rng = np.random.default_rng(seed)
        tree = q.random_weighted_tree(9, rng)
        potential = rng.integers(-5, 6, size=9).astype(float)
        linear = rng.integers(-5, 6, size=9).astype(float)
        slow = q.tree_metric_instance(tree, 4, potential=potential, linear=linear)
        assert fast == slow


def test_tree_instances_pass_condition_scan():
    for seed in range(6):
        n = 4 + seed
        inst = q.gen_tree_metric_type1(n, n // 2, seed)
        assert scan_anti_tree_metric(inst)


def test_tree_instances_pass_oracle_at_small_n():
    for seed in range(4):
        inst = q.gen_tree_metric_type1(7, 3, seed)
        assert q.exchange_axiom_holds(inst).status == q.M_CONVEX


def test_tree_generator_is_deterministic():
    assert q.gen_tree_metric_type1(8, 3, 42) == q.gen_tree_metric_type1(8, 3, 42)
    assert q.gen_tree_metric_type1(8, 3, 42) != q.gen_tree_metric_type1(8, 3, 43)


def test_tree_generator_validates_range():
    with pytest.raises(ValueError):
        q.gen_tree_metric_type1(3, 1, 0)
    with pytest.raises(ValueError):
        q.gen_tree_metric_type1(6, 5, 0)


# ---------------------------------------------------------------------------
# Linear typed instances


def test_linear_typed_reproduces_golden_cross_block():
    # component {1,2} with q = (0, 0, 1, 2, 0) matches the relabeled golden
    # instance on the whole cross block
    rng_free = q.QuadraticInstance.from_entries(
        5,
        3,
        {
            (1, 2): q.INF,
            **{
                (i, j): float(qi + qj)
                for (i, qi), (j, qj) in itertools.combinations(
                    enumerate([0, 0, 1, 2, 0], start=1), 2
                )
                if (i, j) != (1, 2)
            },
        },
    )
    golden = q.relabel(golden_yes(), [1, 5, 3, 4, 2])  # swap 2 <-> 5
    cross_rows = np.array([0, 1])
    cross_cols = np.array([2, 3, 4])
    assert np.array_equal(
        rng_free.quad[np.ix_(cross_rows, cross_cols)],
        golden.quad[np.ix_(cross_rows, cross_cols)],
    )
    assert q.test_mconvexity(rng_free).status == q.M_CONVEX
    assert q.test_mconvexity(golden).status == q.M_CONVEX


def test_linear_typed_trivial_type3():
    inst = q.gen_linear_typed([2, 2], 2, seed=0)
    verdict = q.test_mconvexity(inst)
    assert verdict.status == q.M_CONVEX and verdict.method == "algorithm-III"


def test_linear_typed_oracle_and_certificate():
    for sizes, r, seed in ([[2, 1, 1, 1], 3, 1], [[3, 2], 2, 2], [[2, 2, 1], 2, 3]):
        inst = q.gen_linear_typed(sizes, r, seed)
        assert q.exchange_axiom_holds(inst).status == q.M_CONVEX
        assert q.linear_certificate(inst) is not None


def test_linear_typed_classifies_as_requested():
    t2 = q.gen_linear_typed([2, 1, 1, 1], 3, seed=9)
    d2 = q.decompose_components(q.build_infinity_graph(t2))
    assert q.classify(d2, 3) == q.TYPE_II
    t3 = q.gen_linear_typed([2, 2, 1], 3, seed=9)
    d3 = q.decompose_components(q.build_infinity_graph(t3))
    assert q.classify(d3, 3) == q.TYPE_III


def test_linear_typed_rejects_bad_sizes():
    with pytest.raises(ValueError):
        q.gen_linear_typed([2, 2], 4, seed=0)
    with pytest.raises(ValueError):
        q.gen_linear_typed([2, 0, 2], 2, seed=0)


# ---------------------------------------------------------------------------
# Perturbation


def test_perturb_identity_and_inverse():
    inst = q.gen_tree_metric_type1(6, 3, 0)
    assert q.perturb(inst, (1, 2), 0.0) == inst
    assert q.perturb(q.perturb(inst, (1, 2), 2.5), (1, 2), -2.5) == inst


def test_perturb_rejects_infinite_pair():
    with pytest.raises(ValueError):
        q.perturb(golden_yes(), (1, 5), 1.0)


def test_perturb_breaks_type2_cross_pair():
    inst = q.gen_linear_typed([2, 1, 1, 1], 3, seed=4)
    decomp = q.decompose_components(q.build_infinity_graph(inst))
    bumped = q.perturb(inst, (1, 3), 1.0)  # inside the big-vs-rest block
    assert not scan_type2_equalities(bumped, decomp.big)
    assert q.test_mconvexity(bumped).status == q.NOT_M_CONVEX


def test_perturb_flips_tight_tree_instance():
    # constant matrix: every quadruple is tight, so lowering one entry
    # makes its pairing sum the unique minimum
    n = 6
    edges = tuple((n + 1, i, 1.0) for i in range(1, n + 1))
    star = q.tree_metric_instance(q.WeightedTree(n + 1, edges, tuple(range(1, n + 1))), 3)
    assert q.test_mconvexity(star).status == q.M_CONVEX
    dented = q.perturb(star, (1, 2), -1.0)
    assert not scan_anti_tree_metric(dented)
    assert q.test_mconvexity(dented).status == q.NOT_M_CONVEX


# ---------------------------------------------------------------------------
# Graph reduction


def five_cycle():
    return q.SimpleGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])


def test_build_f_graph_domain_is_stable_sets():
    domain = q.enumerate_domain(q.build_f_graph(five_cycle(), 2))
    assert domain.supports == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


def test_build_f_graph_edgeless_is_all_zero():
    inst = q.build_f_graph(q.SimpleGraph(4, ()), 2)
    off = ~np.eye(4, dtype=bool)
    assert np.all(inst.quad[off] == 0.0)


def test_build_f_graph_complete_graph_empty_domain():
    g = q.SimpleGraph.from_edges(4, itertools.combinations(range(1, 5), 2))
    inst = q.build_f_graph(g, 2)
    assert q.test_mconvexity(inst).status == q.INVALID_INSTANCE


def test_pad_graph_shapes():
    padded = q.pad_graph(q.SimpleGraph(3, ()), 2)
    assert padded.n == 5
    assert set(padded.edges) == {(u, v) for u in (1, 2, 3) for v in (4, 5)}
    with pytest.raises(ValueError):
        q.pad_graph(five_cycle(), 0)
    big = q.pad_graph(five_cycle(), 3)
    assert big.n == 8 and len(big.edges) == 5 + 15


def test_solve_problem_p_goldens():
    assert q.solve_problem_p(q.SimpleGraph(5, ()), 3)
    assert not q.solve_problem_p(five_cycle(), 2)


def test_solve_problem_p_refuses_sizes_outside_the_slice():
    # the answer comes from the reduction's domain, an instance that needs
    # n >= 2 and 1 <= r <= n-1; it also keeps the enumeration budget
    for graph, r in ((q.SimpleGraph(1, ()), 1), (q.SimpleGraph(3, ()), 3), (five_cycle(), 0)):
        with pytest.raises(q.InstanceFormatError):
            q.solve_problem_p(graph, r)
    with pytest.raises(q.BudgetExceededError):
        q.solve_problem_p(q.SimpleGraph(20, ()), 10, max_candidates=1000)


def test_problem_p_matches_domain_exchangeability():
    rng = np.random.default_rng(43)
    compared = 0
    for _ in range(120):
        n = int(rng.integers(3, 8))
        graph = random_simple_graph(n, 0.4, rng)
        for r in range(2, min(4, n - 1) + 1):
            # the right-hand side's domain shares no code with solve_problem_p
            domain = enumerate_domain_by_loop(q.build_f_graph(graph, r))
            if not domain.supports:
                continue
            lhs = q.solve_problem_p(graph, r)
            rhs, _ = q.is_mconvex_set(domain)
            assert lhs == rhs, (graph, r)
            compared += 1
    assert compared > 60


def test_padding_equivalence_against_max_stable_set():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        graph = random_simple_graph(n, 0.4, rng)
        alpha = q.max_stable_set_size(graph)
        for m in range(2, n + 1):
            assert q.solve_problem_p(q.pad_graph(graph, m), m) == (alpha < m)


def test_max_stable_set_brute_force_cross_check():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        graph = random_simple_graph(n, 0.5, rng)
        adj = graph.adjacency()
        best = 0
        for size in range(n, 0, -1):
            if any(
                all(v not in adj[u] for u, v in itertools.combinations(combo, 2))
                for combo in itertools.combinations(range(1, n + 1), size)
            ):
                best = size
                break
        assert q.max_stable_set_size(graph) == best


# ---------------------------------------------------------------------------
# Edge-list parsing


def test_parse_edge_list():
    g = q.parse_edge_list("5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n")
    assert g == five_cycle()
    with pytest.raises(q.InstanceFormatError):
        q.parse_edge_list("3 2\n1 2\n")
    with pytest.raises(q.InstanceFormatError):
        q.parse_edge_list("abc")
