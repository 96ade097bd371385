"""The tolerance contract: every comparison on an instance allows one
absolute slack, eps times the instance's scale.  Inputs closer than that
get the same verdict from the fast path, the exchange oracle and the
reference scans; inputs moved well beyond it are rejected by all three."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmconvex as q
from qmconvex.cli import main
from reference import scan_anti_tree_metric, scan_type2_equalities, scan_type3_equalities

EPS = q.DEFAULT_EPSILON
KINDS = ("I", "II", "III")
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def base_instance(kind: str, seed: int) -> q.QuadraticInstance:
    """Yes-instance of the type with n <= 10 and cross blocks of at least 2 x 2."""
    if kind == "I":
        return q.gen_tree_metric_type1(10, 3, seed)
    if kind == "II":
        return q.gen_linear_typed([3, 2, 2, 1, 1, 1], 5, seed)
    return q.gen_linear_typed([3, 3, 2, 2], 4, seed)


def with_noise(inst: q.QuadraticInstance, level: float, rng) -> q.QuadraticInstance:
    """Add symmetric noise of at most level * scale to every finite pair."""
    n = inst.n
    upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    quad = inst.quad + (upper + upper.T) * level * inst.scale  # +inf and NaN stay
    return q.QuadraticInstance(n, inst.r, inst.linear, quad)


def reference_verdict(inst: q.QuadraticInstance, kind: str) -> str:
    big = q.decompose_components(q.build_infinity_graph(inst)).big
    if kind == "I":
        ok = scan_anti_tree_metric(inst)
    elif kind == "II":
        ok = scan_type2_equalities(inst, big)
    else:
        ok = scan_type3_equalities(inst, big)
    return q.M_CONVEX if ok else q.NOT_M_CONVEX


def tight_pair(inst: q.QuadraticInstance, kind: str) -> tuple[int, int]:
    """A finite pair whose coefficient cannot move by more than the slack.

    For type I: a_ij + a_kl is a tied smallest pairing sum of some
    quadruple, so lowering a_ij makes it the unique one.  For types II and
    III every cross cell of a block with at least two rows and columns is
    tight, because each one sits in an additive equality.
    """
    a = inst.quad
    if kind != "I":
        i = q.decompose_components(q.build_infinity_graph(inst)).big[0][0]
        return i, next(j for j in range(1, inst.n + 1) if np.isfinite(a[i - 1, j - 1]))
    for i, j, k, l in itertools.permutations(range(inst.n), 4):
        s = a[i, j] + a[k, l]
        if i < j and k < l and s == min(a[i, k] + a[j, l], a[i, l] + a[j, k]):
            return i + 1, j + 1
    raise AssertionError("no tight pair")


def scaled(inst: q.QuadraticInstance, factor: float) -> q.QuadraticInstance:
    return q.QuadraticInstance(inst.n, inst.r, inst.linear * factor, inst.quad * factor)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bumped", [False, True])
@given(seed=seeds)
@example(seed=4316)  # the quadruple scan once rejected it with a slack relative to each sum
@settings(max_examples=20, deadline=None)
def test_noise_far_below_eps_never_flips_the_verdict(kind, bumped, seed):
    base = base_instance(kind, seed)
    want = q.M_CONVEX
    if bumped:  # a no-instance, one unit away from a yes-instance
        base = q.perturb(base, tight_pair(base, kind), -1.0)
        want = q.NOT_M_CONVEX
    inst = with_noise(base, EPS / 100, np.random.default_rng(seed))
    assert q.test_mconvexity(inst).status == want
    assert q.exchange_axiom_holds(inst).status == want
    assert reference_verdict(inst, kind) == want


@pytest.mark.parametrize("kind", KINDS)
@given(seed=seeds, up=st.booleans())
@settings(max_examples=15, deadline=None)
def test_bump_far_above_eps_is_rejected_with_a_witness(kind, seed, up):
    base = base_instance(kind, seed)
    # type I tight pairs only break downwards; cross cells break either way
    delta = (1.0 if up and kind != "I" else -1.0) * 100 * EPS * base.scale
    inst = q.perturb(base, tight_pair(base, kind), delta)
    verdict = q.test_mconvexity(inst, explain=True)
    assert verdict.status == q.NOT_M_CONVEX
    assert q.verify_witness(inst, verdict.witness)
    assert q.exchange_axiom_holds(inst).status == q.NOT_M_CONVEX
    assert reference_verdict(inst, kind) == q.NOT_M_CONVEX


@pytest.mark.parametrize("kind", KINDS)
@given(seed=seeds)
@settings(max_examples=10, deadline=None)
def test_verdict_invariant_under_power_of_two_scaling(kind, seed):
    # the noise grows with 2^k and so does the slack; a slack relative to
    # each compared value would not keep pace where reduced values are near 0
    rng = np.random.default_rng(seed)
    inst = with_noise(base_instance(kind, seed), EPS * rng.choice([0.01, 0.5, 2.0]), rng)
    want = q.test_mconvexity(inst).status
    for k in range(41):
        assert q.test_mconvexity(scaled(inst, 2.0**k)).status == want, k


@pytest.mark.parametrize("kind", KINDS)
@given(seed=seeds, fraction=st.floats(min_value=-0.3, max_value=0.3))
@settings(max_examples=25, deadline=None)
def test_explain_on_sub_eps_bump_is_consistent(kind, seed, fraction):
    base = base_instance(kind, seed)
    inst = q.perturb(base, tight_pair(base, kind), fraction * EPS * base.scale)
    verdict = q.test_mconvexity(inst, explain=True)  # never InternalInconsistencyError
    assert verdict.status == q.M_CONVEX
    assert q.exchange_axiom_holds(inst).status == q.M_CONVEX


def test_slack_scales_with_the_largest_finite_coefficient():
    inst = q.QuadraticInstance.from_entries(
        4, 2, {(1, 2): -300.0, (1, 3): 2.5, (2, 4): q.INF}, linear=[0, 0, 0, 0]
    )
    assert inst.scale == 300.0
    assert inst.slack(1e-9) == 300.0 * 1e-9
    assert q.QuadraticInstance.from_entries(4, 2, {(1, 2): 0.25}).scale == 1.0
    assert q.QuadraticInstance.from_entries(4, 2, linear=[0, -7, 0, 0]).scale == 7.0
    assert q.QuadraticInstance.from_entries(4, 2, {(1, 2): q.INF}).scale == 1.0


def test_epsilon_floor(tmp_path, capsys, monkeypatch):
    # below MIN_EPSILON the slack drops under the rounding between the pass's
    # and the checker's float expressions of one reduced entry: at eps = 1e-16
    # this recipe rejects 274 of 300 yes-instances, 28 of them with witnesses
    # that fail verify_witness; at the floor it rejects none
    rejected = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 26))
        inst = q.apply_potential(
            q.gen_tree_metric_type1(n, 2, seed), rng.uniform(-0.37, 0.37, n)
        )
        rejected += q.test_mconvexity(inst, eps=q.MIN_EPSILON).status != q.M_CONVEX
    assert rejected == 0
    for eps in (1e-16, 0.0, float("nan")):
        with pytest.raises(ValueError):
            inst.slack(eps)
    path = tmp_path / "tree.json"
    path.write_text(q.serialize_instance(inst))
    assert main(["test", "--input", str(path), "--epsilon", "1e-16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --epsilon must be at least 1e-15, got '1e-16'\n"
    monkeypatch.setenv("MCONVEX_EPSILON", "1e-16")
    assert main(["test", "--input", str(path)]) == 3
    assert capsys.readouterr().err == "error: MCONVEX_EPSILON must be at least 1e-15, got '1e-16'\n"
    assert main(["test", "--input", str(path), "--epsilon", "1e-15"]) == 0


def test_epsilon_floor_on_every_early_return():
    # each call below returns before it computes a slack, yet refuses an
    # eps below the floor as the slack itself does
    tree = q.gen_tree_metric_type1(6, 2, 1)
    path = q.QuadraticInstance.from_entries(5, 2, {(1, 2): q.INF, (2, 3): q.INF})
    pairs = list(itertools.combinations(range(1, 5), 2))
    single = q.QuadraticInstance.from_entries(4, 2, {p: q.INF for p in pairs[1:]})
    empty = q.QuadraticInstance.from_entries(4, 2, {p: q.INF for p in pairs})
    r1, r5 = (q.QuadraticInstance(6, r, tree.linear, tree.quad) for r in (1, 5))
    domain_witness = q.Witness(q.DOMAIN_VIOLATION, indices=(1, 2, 3))
    calls = {
        "slice-linear r=1": (lambda eps: q.test_mconvexity(r1, eps=eps).status, q.M_CONVEX),
        "slice-linear r=n-1": (lambda eps: q.test_mconvexity(r5, eps=eps).status, q.M_CONVEX),
        "condition B": (
            lambda eps: q.test_mconvexity(path, eps=eps, assume_condition_a=True).status,
            q.NOT_M_CONVEX,
        ),
        "exchange, one support": (
            lambda eps: q.exchange_axiom_holds(single, eps=eps).status, q.M_CONVEX
        ),
        "exchange, empty": (
            lambda eps: q.exchange_axiom_holds(empty, eps=eps).status, q.INVALID_INSTANCE
        ),
        "local, empty": (
            lambda eps: q.local_exchange_holds(empty, eps=eps).status, q.INVALID_INSTANCE
        ),
        "local, set violation": (
            lambda eps: q.local_exchange_holds(path, eps=eps).status, q.NOT_M_CONVEX
        ),
        "verify, domain violation": (
            lambda eps: q.verify_witness(path, domain_witness, eps), True
        ),
    }
    for name, (call, expected) in calls.items():
        assert call(q.MIN_EPSILON) == expected, name
        for eps in (1e-16, 0.0, float("nan")):
            with pytest.raises(ValueError, match="MIN_EPSILON"):
                call(eps)
