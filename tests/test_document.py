"""The array-pass document layer against the entry-by-entry reference in
``reference.py``: byte-identical serialization, equal instances on valid
documents, and rejection of invalid ones."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmconvex as q
import reference

COEFFICIENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 2.5, 1e-300, -1e-300, 1e300, -1e300, 5e-324, q.INF]),
    st.integers(-(10**6), 10**6).map(float),
)


@st.composite
def instances(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=n - 1))
    quad = np.zeros((n, n))
    np.fill_diagonal(quad, np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            quad[i, j] = quad[j, i] = draw(st.one_of(st.just(0.0), COEFFICIENTS))
    linear = draw(
        st.one_of(
            st.just([0.0] * n),
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n
            ),
        )
    )
    return q.QuadraticInstance(n, r, np.array(linear), quad)


def _literal(draw, v: float):
    if math.isinf(v):
        return "inf"
    if v.is_integer() and draw(st.booleans()):
        return int(v)
    return v


@st.composite
def valid_documents(draw):
    """A document of an instance in a form other than the canonical one:
    both orientations, repeated entries that agree, explicit zeros,
    integer literals, permuted keys and shuffled entries."""
    inst = draw(instances())
    n = inst.n
    entries = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = float(inst.quad[i - 1, j - 1])
            if v == 0.0 and draw(st.booleans()):
                continue
            pair = (i, j) if draw(st.booleans()) else (j, i)
            entries.append((*pair, _literal(draw, v)))
            if draw(st.integers(0, 3)) == 0:
                again = pair if draw(st.booleans()) else pair[::-1]
                entries.append((*again, _literal(draw, v)))
    quad = []
    for i, j, v in draw(st.permutations(entries)):
        quad.append(dict(draw(st.permutations([("i", i), ("j", j), ("v", v)]))))
    doc = {"n": n, "r": inst.r, "quad": quad}
    if np.any(inst.linear != 0.0) or draw(st.booleans()):
        doc["linear"] = [_literal(draw, float(x)) for x in inst.linear]
    return inst, json.dumps(doc)


def _bad_entries(kind: str, n: int, doc: dict) -> list:
    """The quad entries that carry the fault ``kind``; a fault of the whole
    document is applied to ``doc`` in place and needs none."""
    entries = {
        "conflict": [{"i": 2, "j": 1, "v": 7.5}, {"i": 1, "j": 2, "v": "inf"}],
        "index_zero": {"i": 0, "j": 2, "v": 1},
        "index_high": {"i": 1, "j": n + 1, "v": 1},
        "index_huge": {"i": 10**30, "j": 1, "v": 1},
        "diagonal": {"i": 2, "j": 2, "v": 1},
        "unknown_string": {"i": 1, "j": 2, "v": "infinity"},
        "numeric_string": {"i": 1, "j": 2, "v": "2.5"},
        "bool_value": {"i": 1, "j": 2, "v": True},
        "null_value": {"i": 1, "j": 2, "v": None},
        "nan_value": {"i": 1, "j": 2, "v": math.nan},
        "int_overflow": {"i": 1, "j": 2, "v": 10**400},
        "bool_index": {"i": True, "j": 2, "v": 1},
        "float_index": {"i": 1.0, "j": 2, "v": 1},
        "string_index": {"i": 1, "j": "2", "v": 1},
        "missing_key": {"i": 1, "j": 2},
        "extra_key": {"i": 1, "j": 2, "v": 1, "w": 0},
        "list_entry": [1, 2, 3],
        "string_entry": "ijv",
    }
    if kind in entries:
        return entries[kind] if kind == "conflict" else [entries[kind]]
    if kind == "n_small":
        doc["n"] = 1
    elif kind == "r_zero":
        doc["r"] = 0
    elif kind == "r_n":
        doc["r"] = n
    elif kind == "linear_length":
        doc["linear"] = [0.0] * (n + 1)
    elif kind == "linear_null_entry":
        doc["linear"] = [None] * n
    elif kind == "quad_null":
        doc["quad"] = None
    elif kind == "unknown_field":
        doc["extra"] = 1
    return []


FAULTS = [
    "conflict", "index_zero", "index_high", "index_huge", "diagonal", "unknown_string",
    "numeric_string", "bool_value", "null_value", "nan_value", "int_overflow", "bool_index",
    "float_index", "string_index", "missing_key", "extra_key", "list_entry", "string_entry",
    "n_small", "r_zero", "r_n", "linear_length", "linear_null_entry", "quad_null",
    "unknown_field",
]


@st.composite
def invalid_documents(draw):
    """A valid document with one to three faults, each either a bad entry
    inserted at a random position or a bad top-level field."""
    _, text = draw(valid_documents())
    doc = json.loads(text)
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3))
    for kind in faults:
        if not isinstance(doc.get("quad"), list):
            kind = "unknown_field"
        for entry in _bad_entries(kind, max(doc["n"], 2), doc):
            doc["quad"].insert(draw(st.integers(0, len(doc["quad"]))), entry)
    return faults, json.dumps(doc)


@given(instances())
@settings(max_examples=300, deadline=None)
def test_serialize_matches_reference(inst):
    assert q.serialize_instance(inst) == reference.serialize_instance(inst)


def test_serialize_matches_reference_on_generated_instances():
    generated = [
        q.gen_tree_metric_type1(40, 10, 3),
        q.gen_linear_typed([10, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 10, 4),
        q.gen_linear_typed([8, 8, 8, 8, 8], 5, 5),
        q.perturb(q.gen_tree_metric_type1(30, 7, 6), (2, 9), -0.25),
    ]
    for inst in generated:
        text = q.serialize_instance(inst)
        assert text == reference.serialize_instance(inst)
        assert q.parse_instance(text) == reference.parse_instance(text) == inst


@given(valid_documents())
@settings(max_examples=300, deadline=None)
def test_parse_matches_reference_on_valid_documents(case):
    inst, text = case
    assert q.parse_instance(text) == reference.parse_instance(text) == inst


@given(invalid_documents())
@settings(max_examples=400, deadline=None)
def test_parse_rejects_what_reference_rejects(case):
    faults, text = case
    with pytest.raises(Exception) as expected:
        reference.parse_instance(text)
    with pytest.raises(q.InstanceFormatError) as got:
        q.parse_instance(text)
    # with one fault the message is the reference's, so it names the same pair
    if len(faults) == 1 and expected.type is q.InstanceFormatError:
        assert str(got.value) == str(expected.value)


def test_first_conflict_in_input_order():
    """Many repeated pairs, shuffled, with agreeing and disagreeing copies:
    the error names the first entry that disagrees with its pair's first
    value, as the entry-by-entry scan does."""
    rng = np.random.default_rng(11)
    n = 40
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for trial in range(5):
        entries = []
        for i, j in pairs:
            v = float(rng.integers(0, 3))
            entries += [{"i": i, "j": j, "v": v}, {"i": j, "j": i, "v": v}] * 2
        for k in rng.choice(len(entries), size=trial + 1, replace=False):
            entries[k] = {**entries[k], "v": entries[k]["v"] + 0.5}
        text = json.dumps({"n": n, "r": 3, "quad": [entries[k] for k in rng.permutation(len(entries))]})
        with pytest.raises(q.InstanceFormatError) as expected:
            reference.parse_instance(text)
        with pytest.raises(q.InstanceFormatError) as got:
            q.parse_instance(text)
        assert str(got.value) == str(expected.value)


def test_overflow_names_the_literal():
    quad = '[{"i": 1, "j": 2, "v": 1}, {"i": 4, "j": 3, "v": %s}]'
    with pytest.raises(q.InstanceFormatError, match="linear coefficient 3 overflows"):
        q.parse_instance('{"n": 4, "r": 2, "linear": [0, 0, 1e400, 0], "quad": %s}' % (quad % 5))
    with pytest.raises(q.InstanceFormatError, match=r"pair \(4,3\) overflows"):
        q.parse_instance('{"n": 4, "r": 2, "quad": %s}' % (quad % "1e400"))
    assert q.parse_instance('{"n": 4, "r": 2, "quad": %s}' % (quad % '"inf"')).pair(3, 4) == q.INF


def test_size_checked_before_allocation():
    # an n x n matrix at this n needs about 72 TB; r is checked first
    with pytest.raises(q.InstanceFormatError, match="r must satisfy"):
        q.parse_instance('{"n": 3000000, "r": 0}')
    with pytest.raises(MemoryError):
        q.parse_instance('{"n": 3000000, "r": 1}')
    with pytest.raises(MemoryError):  # beyond numpy's largest array
        q.QuadraticInstance.from_entries(10**10, 1)
