"""Core model: value arithmetic, parsing, serialization, transforms."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmconvex as q
from qmconvex.core import approx_eq_array
from helpers import GOLDEN_YES_ENTRIES, all_zero, golden_yes, golden_no


# ---------------------------------------------------------------------------
# Extended values and tolerant comparisons


def test_extended_value_arithmetic_bulk():
    # x + inf = inf and min(x, inf) = x for a large random batch
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1e12, 1e12, size=1_000_000)
    assert np.all(xs + np.inf == np.inf)
    assert np.all(np.minimum(xs, np.inf) == xs)
    assert np.all(xs < np.inf)


def test_approx_comparisons_with_infinity():
    assert q.approx_eq(q.INF, q.INF)
    assert not q.approx_eq(1e300, q.INF)
    assert q.approx_le(5.0, q.INF)
    assert not q.approx_le(q.INF, 5.0)
    assert q.approx_gt(q.INF, 5.0)
    assert not q.approx_gt(q.INF, q.INF)
    assert q.approx_eq(1.0, 1.0 + 1e-12)
    assert not q.approx_gt(1.0 + 1e-12, 1.0)
    assert q.approx_gt(1.0 + 1e-6, 1.0)


def test_approx_eq_array_matches_scalar_form():
    # boundary values around the relative slack, large magnitudes, +inf
    base = [0.0, 1.0, -1.0, 1e6, -1e6, 1.5e308, -1.5e308, q.INF]
    offsets = [0.0, 0.5e-9, 0.99e-9, 1.01e-9, 2e-9, 1e-3]
    values = sorted({b + o * max(1.0, abs(b)) for b in base for o in offsets})
    xs, ys = np.meshgrid(values, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow and inf - inf stay silent
        got = approx_eq_array(xs, ys)
    want = [
        [q.approx_eq(x, y) for x, y in zip(rx, ry)]
        for rx, ry in zip(xs.tolist(), ys.tolist())
    ]
    assert got.tolist() == want
    assert not got[np.isinf(xs) != np.isinf(ys)].any()
    assert approx_eq_array([1.0, q.INF], 1.0 + 1e-12).tolist() == [True, False]


def test_approx_comparisons_use_an_absolute_slack():
    # the slack does not grow with the compared values; an instance's
    # magnitude enters once, through QuadraticInstance.slack
    assert not q.approx_eq(1e6, 1e6 + 1e-4)
    assert q.approx_eq(1e6, 1e6 + 1e-4, 1e-3)
    assert q.approx_le(1e6 + 1e-4, 1e6, 1e-3)
    assert q.approx_gt(1e-3, 0.0, 1e-4) and not q.approx_gt(1e-3, 0.0, 1e-3)
    assert approx_eq_array([1e6, 0.0, q.INF], [1e6 + 1e-4, 1e-4, q.INF]).tolist() == [
        False, False, True
    ]


@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_approx_eq_reflexive(x):
    assert q.approx_eq(x, x)
    assert q.approx_le(x, x)
    assert not q.approx_gt(x, x)


# ---------------------------------------------------------------------------
# Instance construction


def test_golden_yes_construction():
    inst = golden_yes()
    assert inst.n == 5 and inst.r == 3
    assert inst.pair(1, 3) == 1.0
    assert inst.pair(3, 1) == 1.0
    assert inst.pair(1, 5) == q.INF
    assert inst.pair(2, 3) == 0.0


def test_symmetry_enforced():
    quad = np.zeros((4, 4))
    np.fill_diagonal(quad, np.nan)
    quad[0, 1] = 1.0  # missing mirror entry
    with pytest.raises(q.InstanceFormatError):
        q.QuadraticInstance(4, 2, np.zeros(4), quad)


def test_diagonal_is_structurally_absent():
    inst = all_zero(4, 2)
    assert np.isnan(np.diagonal(inst.quad)).all()
    with pytest.raises(IndexError):
        inst.pair(2, 2)
    with pytest.raises(q.InstanceFormatError):
        q.QuadraticInstance(4, 2, np.zeros(4), np.zeros((4, 4)))


def test_instances_are_immutable():
    inst = golden_yes()
    with pytest.raises(ValueError):
        inst.quad[0, 1] = 7.0
    with pytest.raises(ValueError):
        inst.linear[0] = 7.0


@pytest.mark.parametrize(
    "n,r", [(1, 1), (4, 0), (4, 4), (4, 5), (3, 3)]
)
def test_bad_shape_rejected(n, r):
    with pytest.raises(q.InstanceFormatError):
        q.QuadraticInstance.from_entries(n, r)


# ---------------------------------------------------------------------------
# Parsing


def test_parse_golden_yes_document():
    doc = {
        "n": 5,
        "r": 3,
        "quad": [
            {"i": 1, "j": 3, "v": 1},
            {"i": 1, "j": 4, "v": 2},
            {"i": 1, "j": 5, "v": "inf"},
            {"i": 3, "j": 5, "v": 1},
            {"i": 4, "j": 5, "v": 2},
        ],
    }
    assert q.parse_instance(json.dumps(doc)) == golden_yes()


def test_parse_defaults():
    inst = q.parse_instance('{"n": 4, "r": 2, "quad": []}')
    assert inst == all_zero(4, 2)
    assert np.all(inst.linear == 0.0)


def test_parse_asymmetric_entry_rejected():
    doc = {"n": 4, "r": 2, "quad": [{"i": 1, "j": 3, "v": 1}, {"i": 3, "j": 1, "v": 2}]}
    with pytest.raises(q.InstanceFormatError, match="asymmetric"):
        q.parse_instance(json.dumps(doc))


def test_parse_duplicate_same_value_ok():
    doc = {"n": 4, "r": 2, "quad": [{"i": 1, "j": 3, "v": 1}, {"i": 3, "j": 1, "v": 1}]}
    assert q.parse_instance(json.dumps(doc)).pair(1, 3) == 1.0


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        "[1,2]",
        '{"n": 4, "r": 2, "quad": [{"i": 0, "j": 3, "v": 1}]}',
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 5, "v": 1}]}',
        '{"n": 4, "r": 2, "quad": [{"i": 2, "j": 2, "v": 1}]}',
        '{"n": 4, "r": 0, "quad": []}',
        '{"n": 4, "r": 4, "quad": []}',
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": "infinity"}]}',
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": NaN}]}',
        '{"n": 4, "r": 2, "linear": [1, 2], "quad": []}',
        '{"n": 4, "r": 2, "quad": [], "extra": 1}',
        '{"n": 4.0, "r": 2, "quad": []}',
        '{"n": 4, "r": 2, "quad": null}',
        '{"n": 4, "r": 2, "quad": 5}',
        '{"n": 4, "r": 2, "linear": [null, 0, 0, 0], "quad": []}',
        pytest.param(
            '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": 1%s}]}' % ("0" * 400),
            id="int-literal-beyond-double",
        ),
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": 1e400}]}',
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": -1e400}]}',
        '{"n": 4, "r": 2, "linear": [true, 0, 0, 0], "quad": []}',
        '{"n": 4, "r": 2, "linear": ["2", 0, 0, 0], "quad": []}',
        '{"n": 4, "r": 2, "quad": [{"i": 1, "j": 2, "v": 1, "w": 0}]}',
        '{"n": 4, "r": 2, "quad": [[1, 2, 3]]}',
        '{"n": 4, "r": 2, "quad": [{"i": true, "j": 2, "v": 1}]}',
        '{"n": 4, "r": 2, "quad": [{"i": 3, "j": 1, "v": 1}, {"i": 2, "j": true, "v": 1}]}',
        pytest.param("1" * 5000, id="int-literal-beyond-4300-digits"),
        pytest.param("[" * 100000, id="nesting-beyond-recursion-limit"),
    ],
)
def test_parse_rejects_malformed(doc):
    with pytest.raises(q.InstanceFormatError):
        q.parse_instance(doc)


# ---------------------------------------------------------------------------
# Serialization


def test_serialize_roundtrip_golden_yes():
    text = q.serialize_instance(golden_yes())
    assert q.parse_instance(text) == golden_yes()


def test_serialize_all_zero_has_empty_quad():
    doc = json.loads(q.serialize_instance(all_zero(4, 2)))
    assert doc["quad"] == []
    assert "linear" not in doc


def test_serialize_golden_no_entry_count():
    # the golden no-instance has six pairs that are nonzero or infinite (four of its ten pairs
    # are exact zeros and get omitted)
    doc = json.loads(q.serialize_instance(golden_no()))
    assert len(doc["quad"]) == 6
    assert q.parse_instance(q.serialize_instance(golden_no())) == golden_no()


def test_serialize_deterministic():
    a = q.serialize_instance(golden_yes())
    b = q.serialize_instance(q.QuadraticInstance.from_entries(5, 3, GOLDEN_YES_ENTRIES))
    assert a == b


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    r = draw(st.integers(min_value=1, max_value=n - 1))
    coeff = st.one_of(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.just(q.INF),
        st.just(0.0),
    )
    entries = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            entries[(i, j)] = draw(coeff)
    linear = [draw(st.floats(min_value=-50, max_value=50, allow_nan=False)) for _ in range(n)]
    return q.QuadraticInstance.from_entries(n, r, entries, linear=linear)


@given(instances())
@settings(max_examples=120, deadline=None)
def test_roundtrip_identity(inst):
    assert q.parse_instance(q.serialize_instance(inst)) == inst


# ---------------------------------------------------------------------------
# Transforms


def test_apply_potential_zero_is_identity():
    assert q.apply_potential(golden_yes(), [0.0] * 5) == golden_yes()


def test_apply_potential_all_zero_quad():
    out = q.apply_potential(all_zero(4, 2), [1, 2, 3, 4])
    expected = {(1, 2): 3, (1, 3): 4, (1, 4): 5, (2, 3): 5, (2, 4): 6, (3, 4): 7}
    for (i, j), v in expected.items():
        assert out.pair(i, j) == v


def test_apply_potential_golden_yes():
    # recomputed by the defining formula a'_ij = a_ij + p_i + p_j
    out = q.apply_potential(golden_yes(), [1, 0, 0, 0, -1])
    expected = {
        (1, 2): 1.0,
        (1, 3): 2.0,
        (1, 4): 3.0,
        (1, 5): q.INF,
        (2, 3): 0.0,
        (2, 4): 0.0,
        (2, 5): -1.0,
        (3, 4): 0.0,
        (3, 5): 0.0,
        (4, 5): 1.0,
    }
    for (i, j), v in expected.items():
        assert out.pair(i, j) == v
    assert np.array_equal(out.linear, golden_yes().linear)


def test_relabel_identity_and_inverse():
    assert q.relabel(golden_yes(), [1, 2, 3, 4, 5]) == golden_yes()
    perm = [3, 1, 4, 5, 2]
    inverse = [0] * 5
    for src, dst in enumerate(perm, start=1):
        inverse[dst - 1] = src
    assert q.relabel(q.relabel(golden_yes(), perm), inverse) == golden_yes()


def test_relabel_swap_keeps_entries():
    out = q.relabel(golden_yes(), [5, 2, 3, 4, 1])  # swap 1 <-> 5
    assert out.pair(1, 5) == q.INF
    assert out.pair(3, 5) == 1.0  # was (1,3)
    assert out.pair(1, 3) == 1.0  # was (5,3)


def test_relabel_rejects_non_bijection():
    with pytest.raises(ValueError):
        q.relabel(golden_yes(), [1, 1, 2, 3, 4])


def test_relabel_moves_linear_terms():
    inst = q.QuadraticInstance.from_entries(4, 2, {(1, 2): 5.0}, linear=[10, 20, 30, 40])
    out = q.relabel(inst, [4, 3, 2, 1])
    assert list(out.linear) == [40, 30, 20, 10]
    assert out.pair(3, 4) == 5.0 and out.pair(1, 2) == 0.0


@given(st.permutations(list(range(1, 6))))
@settings(max_examples=60, deadline=None)
def test_relabel_round_trip_property(perm):
    inverse = [0] * 5
    for src, dst in enumerate(perm, start=1):
        inverse[dst - 1] = src
    assert q.relabel(q.relabel(golden_yes(), perm), inverse) == golden_yes()


def test_symmetry_preserved_by_transforms():
    for inst in (
        q.apply_potential(golden_yes(), [1, -2, 0.5, 3, -1]),
        q.relabel(golden_yes(), [2, 3, 4, 5, 1]),
    ):
        quad = inst.quad
        assert np.array_equal(quad, quad.T, equal_nan=True)


# ---------------------------------------------------------------------------
# Verdict and witness serialization


def test_verdict_json_shape():
    verdict = q.Verdict(q.M_CONVEX, method="algorithm-I", type_label="I")
    doc = verdict.to_json()
    assert set(doc) == {"status", "method", "type", "witness", "epsilon"}
    assert doc["witness"] is None


def test_witness_json_shapes():
    w1 = q.Witness(q.QUADRUPLE_VIOLATION, indices=(1, 2, 3, 4))
    assert w1.to_json() == {"kind": "quadruple_violation", "indices": [1, 2, 3, 4]}
    w2 = q.Witness(q.EXCHANGE_VIOLATION, x=(1, 2), y=(3, 4), i=1)
    assert w2.to_json() == {"kind": "exchange_violation", "x": [1, 2], "y": [3, 4], "i": 1}
