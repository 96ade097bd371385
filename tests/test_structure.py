"""Infinity graph, components, conditions A/B, and typing."""

import itertools

import numpy as np
import pytest

import qmconvex as q
from helpers import all_zero, golden_yes, random_ab_instance
from reference import condition_a_by_enumeration, condition_b


def graph_from_edges(n, edges, r=2):
    return q.build_infinity_graph(
        q.QuadraticInstance.from_entries(n, r, {e: q.INF for e in edges})
    )


def test_golden_yes_graph_single_edge():
    g = q.build_infinity_graph(golden_yes())
    assert g.neighbors == ((5,), (), (), (), (1,))
    assert g.has_edge(1, 5) and not g.has_edge(1, 3)


def test_has_edge_refuses_indices_outside_the_range():
    # numpy would wrap 0 and -1 to the last rows; (0, 2) reads the entry for (5, 2)
    g = graph_from_edges(5, [(1, 2), (2, 3), (2, 5)])
    assert g.has_edge(5, 2) and g.has_edge(2, 1) and not g.has_edge(1, 3)
    for i, j in ((0, 2), (2, 0), (-1, 2), (2, -1), (6, 2), (2, 6)):
        with pytest.raises(IndexError):
            g.has_edge(i, j)


def test_all_finite_graph_is_edgeless():
    g = q.build_infinity_graph(all_zero(6, 3))
    assert all(not nb for nb in g.neighbors)


def test_components_golden_yes():
    d = q.decompose_components(q.build_infinity_graph(golden_yes()))
    assert d.big == ((1, 5),)
    assert d.isolated == (2, 3, 4)
    assert d.m == 1
    assert d.components == ((1, 5), (2,), (3,), (4,))


def test_components_edgeless():
    d = q.decompose_components(q.build_infinity_graph(all_zero(6, 3)))
    assert d.big == () and d.m == 0
    assert d.isolated == tuple(range(1, 7))


def test_components_two_groups():
    d = q.decompose_components(graph_from_edges(6, [(1, 2), (2, 3), (4, 5)]))
    assert d.big == ((1, 2, 3), (4, 5))
    assert d.isolated == (6,)


def test_condition_b_golden_yes_holds():
    g = q.build_infinity_graph(golden_yes())
    ok, witness = q.check_condition_b(g, q.decompose_components(g))
    assert ok and witness is None


def test_condition_b_path_fails_with_witness():
    inst = q.QuadraticInstance.from_entries(5, 2, {(1, 2): q.INF, (2, 3): q.INF})
    g = q.build_infinity_graph(inst)
    ok, witness = q.check_condition_b(g, q.decompose_components(g))
    assert not ok
    assert witness.kind == q.DOMAIN_VIOLATION
    assert witness.indices == (1, 2, 3)
    assert q.verify_witness(inst, witness)


def test_condition_b_clique_plus_isolated_holds():
    edges = list(itertools.combinations(range(1, 5), 2))
    g = graph_from_edges(6, edges)
    ok, witness = q.check_condition_b(g, q.decompose_components(g))
    assert ok and witness is None


def test_condition_b_witness_reverifies_on_random_graphs():
    rng = np.random.default_rng(5)
    found = 0
    for _ in range(80):
        n = int(rng.integers(4, 9))
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < 0.3
        ]
        if not edges:
            continue
        inst = q.QuadraticInstance.from_entries(n, 2, {e: q.INF for e in edges})
        g = q.build_infinity_graph(inst)
        ok, witness = q.check_condition_b(g, q.decompose_components(g))
        if not ok:
            found += 1
            i, j, k = witness.indices
            assert inst.pair(i, j) == q.INF
            assert inst.pair(j, k) == q.INF
            assert np.isfinite(inst.pair(i, k))
    assert found > 10


def test_classify_golden_cases():
    d_e3 = q.decompose_components(q.build_infinity_graph(golden_yes()))
    assert q.classify(d_e3, 3) == q.TYPE_II

    d_finite = q.decompose_components(q.build_infinity_graph(all_zero(8, 4)))
    for r in range(2, 7):
        assert q.classify(d_finite, r) == q.TYPE_I

    d_two = q.decompose_components(graph_from_edges(4, [(1, 2), (3, 4)]))
    assert q.classify(d_two, 2) == q.TYPE_III

    d_one = q.decompose_components(
        graph_from_edges(6, list(itertools.combinations(range(1, 7), 2)))
    )
    assert q.classify(d_one, 2) == q.DOM_EMPTY


def test_condition_a_under_b_golden_cases():
    d_e3 = q.decompose_components(q.build_infinity_graph(golden_yes()))
    assert q.check_condition_a_under_b(d_e3, 3)

    d_one = q.decompose_components(
        graph_from_edges(5, list(itertools.combinations(range(1, 6), 2)))
    )
    assert not q.check_condition_a_under_b(d_one, 2)

    inst = q.QuadraticInstance.from_entries(5, 3, {(1, 2): q.INF, (3, 4): q.INF})
    d = q.decompose_components(q.build_infinity_graph(inst))
    assert q.check_condition_a_under_b(d, 3)
    # confirm by enumeration: every index appears in some feasible point
    assert condition_a_by_enumeration(inst)


def test_condition_a_matches_enumeration_under_b():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(4, 9))
        inst = random_ab_instance(n, rng)
        d = q.decompose_components(q.build_infinity_graph(inst))
        assert q.check_condition_a_under_b(d, inst.r) == condition_a_by_enumeration(inst)


def test_dom_empty_iff_enumeration_empty():
    rng = np.random.default_rng(13)
    checked_empty = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        r = int(rng.integers(2, n - 1))
        # clique unions of arbitrary sizes: condition B holds, A may fail
        sizes = []
        left = n
        while left:
            s = int(rng.integers(1, left + 1))
            sizes.append(s)
            left -= s
        entries = {}
        start = 1
        for s in sizes:
            for a, b in itertools.combinations(range(start, start + s), 2):
                entries[(a, b)] = q.INF
            start += s
        inst = q.QuadraticInstance.from_entries(n, r, entries)
        d = q.decompose_components(q.build_infinity_graph(inst))
        empty = q.classify(d, r) == q.DOM_EMPTY
        domain = q.enumerate_domain(inst)
        assert empty == (not domain.supports)
        checked_empty += empty
    assert checked_empty > 5


def test_components_invariant_under_relabel():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(4, 9))
        inst = random_ab_instance(n, rng)
        perm = [int(v) + 1 for v in rng.permutation(n)]
        base = q.decompose_components(q.build_infinity_graph(inst))
        mapped = q.decompose_components(q.build_infinity_graph(q.relabel(inst, perm)))
        expected = sorted(
            tuple(sorted(perm[v - 1] for v in comp)) for comp in base.components
        )
        assert sorted(mapped.components) == expected


def instance_from_mask(mask, r=1):
    """All-zero instance whose +inf pattern is the symmetric boolean mask."""
    n = mask.shape[0]
    quad = np.where(mask, q.INF, 0.0)
    np.fill_diagonal(quad, np.nan)
    return q.QuadraticInstance(n, r, np.zeros(n), quad)


def random_pattern(rng):
    """A sparse random graph or a union of cliques (each maybe with one
    edge added or removed), relabelled half of the time."""
    n = int(rng.integers(2, 15))
    if rng.random() < 0.5:
        mask = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.45), 1)
    else:
        labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        mask = np.triu(labels[:, None] == labels[None, :], 1)
        if rng.random() < 0.6:
            i, j = sorted(rng.choice(n, size=2, replace=False))
            mask[i, j] = not mask[i, j]
    mask = mask | mask.T
    if rng.random() < 0.5:
        perm = rng.permutation(n)
        mask = mask[np.ix_(perm, perm)]
    return mask


def test_condition_b_matches_reference_on_random_patterns():
    rng = np.random.default_rng(23)
    failures = same_witness = other_witness = 0
    for _ in range(3000):
        mask = random_pattern(rng)
        inst = instance_from_mask(mask)
        comps, b_ref, w_ref = condition_b(inst)
        g = q.build_infinity_graph(inst)
        d = q.decompose_components(g)
        assert d.components == tuple(map(tuple, comps))
        assert d.big == tuple(tuple(c) for c in comps if len(c) > 1)
        assert d.isolated == tuple(c[0] for c in comps if len(c) == 1)
        ok, witness = q.check_condition_b(g, d)
        assert ok == b_ref
        if ok:
            assert witness is None
            continue
        failures += 1
        assert q.verify_witness(inst, witness)
        u = witness.indices[0]
        assert u == w_ref.indices[0]
        # the reference walks to u's smallest non-neighbour in its component;
        # when that index is two steps away both name the same triple
        comp = next(c for c in comps if u in c)
        w = next(v for v in comp if v != u and not mask[u - 1, v - 1])
        if (mask[u - 1] & mask[w - 1]).any():
            assert witness == w_ref
            same_witness += 1
        else:
            other_witness += 1
    assert failures > 500 and same_witness > 300 and other_witness > 10


def test_long_path_is_one_component():
    n = 1500
    mask = np.zeros((n, n), dtype=bool)
    mask[np.arange(n - 1), np.arange(1, n)] = True
    inst = instance_from_mask(mask | mask.T)
    g = q.build_infinity_graph(inst)
    d = q.decompose_components(g)
    assert d.big == (tuple(range(1, n + 1)),) and d.isolated == ()
    ok, witness = q.check_condition_b(g, d)
    assert not ok and witness.indices == (1, 2, 3)
    assert q.verify_witness(inst, witness)


def test_many_relabelled_cliques():
    rng = np.random.default_rng(29)
    n = 1600
    perm = rng.permutation(n)
    labels = (np.arange(n) // 8)[perm]  # 200 cliques of 8, members scattered
    mask = labels[:, None] == labels[None, :]
    np.fill_diagonal(mask, False)
    inst = instance_from_mask(mask, r=200)
    g = q.build_infinity_graph(inst)
    d = q.decompose_components(g)
    comps, _, _ = condition_b(inst)
    assert d.components == tuple(map(tuple, comps))
    assert d.m == 200 and d.isolated == ()
    assert all(len(c) == 8 for c in d.big)
    assert q.check_condition_b(g, d) == (True, None)
    assert q.classify(d, 200) == q.TYPE_III


def test_half_clique_plus_isolated():
    rng = np.random.default_rng(31)
    n = 1000
    members = np.sort(rng.choice(n, size=n // 2, replace=False))
    mask = np.zeros((n, n), dtype=bool)
    mask[np.ix_(members, members)] = True
    np.fill_diagonal(mask, False)
    inst = instance_from_mask(mask, r=n // 2)
    g = q.build_infinity_graph(inst)
    d = q.decompose_components(g)
    assert d.big == (tuple((members + 1).tolist()),)
    assert d.isolated == tuple(sorted(set(range(1, n + 1)) - set(d.big[0])))
    assert q.check_condition_b(g, d) == (True, None)
    assert q.classify(d, n // 2) == q.TYPE_II
