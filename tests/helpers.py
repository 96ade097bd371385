"""Shared builders for the test suite: golden instances, seeded corpora and
a traced-peak probe."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np

from qmconvex import INF, QuadraticInstance, SimpleGraph, gen_tree_metric_type1

#: Golden yes-instance: n=5, r=3, one infinite pair {1,5}, accepted by the
#: cross-equality decider even though the all-quadruple inequality fails.
GOLDEN_YES_ENTRIES = {(1, 3): 1.0, (1, 4): 2.0, (1, 5): INF, (3, 5): 1.0, (4, 5): 2.0}

#: Golden no-instance: n=5, r=2, all rows already reduced, rejected because
#: the pairing sums of {1,2,3,4} are 4 > 2 > 0.
GOLDEN_NO_ENTRIES = {
    (1, 5): INF,
    (1, 2): 2.0,
    (3, 4): 2.0,
    (1, 3): 1.0,
    (2, 4): 1.0,
    (4, 5): 1.0,
}


def golden_yes() -> QuadraticInstance:
    return QuadraticInstance.from_entries(5, 3, GOLDEN_YES_ENTRIES)


def golden_no() -> QuadraticInstance:
    return QuadraticInstance.from_entries(5, 2, GOLDEN_NO_ENTRIES)


def all_zero(n: int, r: int) -> QuadraticInstance:
    return QuadraticInstance.from_entries(n, r)


def boundary_case(rng: np.random.Generator) -> QuadraticInstance:
    """Type I instance at the tolerance boundary: a tree metric on n 6-13
    indices (r = 2), symmetric noise of at most a third of the slack, and
    one pair moved by 1-3 slacks either way.  Most are rejected, some with
    no quadruple that violates by more than the slack."""
    n = int(rng.integers(6, 14))
    inst = gen_tree_metric_type1(n, 2, int(rng.integers(0, 2**31)))
    slack = inst.slack(1e-9)
    noise = np.triu(rng.uniform(-slack / 3, slack / 3, (n, n)), 1)
    quad = inst.quad + noise + noise.T
    i, j = rng.choice(n, 2, replace=False)
    quad[i, j] += rng.uniform(1, 3) * slack * rng.choice([-1, 1])
    quad[j, i] = quad[i, j]
    return QuadraticInstance(n, 2, inst.linear, quad)


def random_ab_instance(n: int, rng: np.random.Generator) -> QuadraticInstance:
    """Random instance whose infinite pattern is a disjoint union of cliques
    with at least r components, so conditions A and B hold by construction.

    Coefficients come from the small integer alphabet {0, 1, 2} or from
    rounded uniform reals, chosen per instance.
    """
    r = int(rng.integers(2, n - 1))
    t = int(rng.integers(0, 3))
    components = min(n, max(r, r + (2 if t == 0 else 1 if t == 1 else 0)))
    labels = list(rng.permutation(n) + 1)
    comps = [[labels[i]] for i in range(components)]
    for v in labels[components:]:
        comps[int(rng.integers(0, components))].append(v)
    if rng.integers(0, 2):
        draw = lambda: float(rng.integers(0, 3))
    else:
        draw = lambda: float(np.round(rng.uniform(-2, 2), 3))
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entries[(i, j)] = draw()
    for comp in comps:
        for a, b in itertools.combinations(sorted(comp), 2):
            entries[(a, b)] = INF
    linear = rng.integers(-3, 4, size=n).astype(float)
    return QuadraticInstance.from_entries(n, r, entries, linear=linear)


def random_simple_graph(n: int, edge_prob: float, rng: np.random.Generator) -> SimpleGraph:
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < edge_prob
    ]
    return SimpleGraph.from_edges(n, edges)


def random_partition(n: int, count: int, rng: np.random.Generator) -> list[int]:
    sizes = [1] * count
    for _ in range(n - count):
        sizes[int(rng.integers(0, count))] += 1
    return sizes


def random_permutation(n: int, rng: np.random.Generator) -> list[int]:
    return [int(v) + 1 for v in rng.permutation(n)]


def random_laminar_matrix(
    n: int, rng: np.random.Generator, inf_prob: float = 0.15
) -> tuple[np.ndarray, tuple[int, int]]:
    """Matrix built directly from a random nested block structure, plus a
    1-based pair whose +1 bump is guaranteed to break the structure.

    Blocks are materialized by overwriting square sub-blocks with strictly
    larger integer values (possibly +inf), shallow to deep, which realizes
    "each pair takes the value of its smallest containing block" without
    using the production rebuild code.  The returned pair joins a block
    member j to an index i outside that block, so after a_ij += 1 the
    triple (i, y, j) with y a block sibling of j violates
    a_iy >= min(a_ij, a_yj).
    """
    while True:
        matrix = np.full((n, n), float(rng.integers(-3, 4)))
        break_pair: tuple[int, int] | None = None

        def fill(members: np.ndarray, value: float) -> None:
            nonlocal break_pair
            if len(members) < 2 or math.isinf(value):
                return
            k = int(rng.integers(1, min(4, len(members)) + 1))
            if k == len(members):
                return
            if k > 1:
                cuts = np.sort(
                    rng.choice(np.arange(1, len(members)), size=k - 1, replace=False)
                )
                blocks = np.split(members, cuts)
            else:
                blocks = [members]
            for block in blocks:
                if len(block) < 2 or rng.random() > 0.75:
                    continue
                child = (
                    np.inf
                    if rng.random() < inf_prob
                    else value + float(rng.integers(1, 4))
                )
                matrix[np.ix_(block, block)] = child
                if break_pair is None and len(block) < len(members):
                    inside = int(block[0])
                    outside = next(v for v in members if v not in set(block.tolist()))
                    i, j = sorted((inside, int(outside)))
                    break_pair = (i + 1, j + 1)
                if not math.isinf(child):
                    fill(block, child)

        fill(rng.permutation(n), float(matrix[0, 0]))
        np.fill_diagonal(matrix, np.nan)
        if break_pair is not None:
            return matrix, break_pair


def traced_peak(call):
    """(result, peak bytes that tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
