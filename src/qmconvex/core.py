"""Instance model, value conventions, and the canonical JSON format.

Coefficients take values in R together with +inf, where +inf marks a
forbidden pair: any finite value is smaller than +inf, and adding +inf to
anything gives +inf.  NaN and -inf are rejected everywhere.

The symmetric coefficient matrix is stored densely with NaN on the
diagonal; the diagonal is structurally absent (the objective sums over
i < j only) and nothing may read it.  Indices are 1-based wherever a user
sees them (documents, witnesses, function arguments) and 0-based inside
the numpy arrays.

Every type is immutable after construction and every operation returns a
new object, so values are safe to share across threads.
"""

from __future__ import annotations

import array
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

INF = math.inf

#: Default relative tolerance eps; comparisons allow eps * instance.scale.
DEFAULT_EPSILON = 1e-9

# Verdict statuses.
M_CONVEX = "m_convex"
NOT_M_CONVEX = "not_m_convex"
UNDECIDED = "undecided"
INVALID_INSTANCE = "invalid_instance"

# Witness kinds.
EXCHANGE_VIOLATION = "exchange_violation"
QUADRUPLE_VIOLATION = "quadruple_violation"
DOMAIN_VIOLATION = "domain_violation"


class InstanceFormatError(ValueError):
    """Malformed instance document or invalid field values."""


class BudgetExceededError(RuntimeError):
    """A brute-force routine would exceed its work budget."""


class InternalInconsistencyError(RuntimeError):
    """A state that the caller's preconditions rule out was observed."""


# ---------------------------------------------------------------------------
# Tolerant comparisons on R ∪ {+inf}
# with the absolute slack of QuadraticInstance.slack (default: a unit-scale
# instance's).  With a finite slack, +inf equals only +inf and exceeds all.


def approx_eq(x: float, y: float, slack: float = DEFAULT_EPSILON) -> bool:
    return x == y or abs(x - y) <= slack


def approx_eq_array(x, y, slack: float = DEFAULT_EPSILON) -> np.ndarray:
    """Elementwise approx_eq over broadcast arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and overflow
        return (x == y) | (np.abs(x - y) <= slack)


def approx_le(x: float, y: float, slack: float = DEFAULT_EPSILON) -> bool:
    return x <= y + slack


def approx_gt(x: float, y: float, slack: float = DEFAULT_EPSILON) -> bool:
    """True when x exceeds y by more than the slack."""
    return x > y + slack


def as_coefficient(value: float, *, allow_inf: bool = True) -> float:
    """Validate a single coefficient: finite float, or +inf when allowed."""
    v = float(value)
    if math.isnan(v):
        raise InstanceFormatError("NaN is not a valid coefficient")
    if v == -INF:
        raise InstanceFormatError("-inf is not representable")
    if not allow_inf and math.isinf(v):
        raise InstanceFormatError("coefficient must be finite")
    return v


# ---------------------------------------------------------------------------
# Instance model


def _check_size(n: int, r: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InstanceFormatError("n must be an integer >= 2")
    if not isinstance(r, int) or isinstance(r, bool) or not 1 <= r <= n - 1:
        raise InstanceFormatError(f"r must satisfy 1 <= r <= n-1, got r={r}")


@dataclass(frozen=True, eq=False)
class QuadraticInstance:
    """A quadratic objective restricted to the size-r slice of {0,1}^n.

    f(x) = sum_i linear[i] x_i + sum_{i<j} quad[i][j] x_i x_j on the slice
    sum_i x_i = r, and +inf off the slice.  ``quad`` is an n-by-n float
    array, exactly symmetric off the diagonal, with +inf for forbidden
    pairs and NaN on the (unused) diagonal.
    """

    n: int
    r: int
    linear: np.ndarray
    quad: np.ndarray

    def __post_init__(self) -> None:
        n, r = self.n, self.r
        _check_size(n, r)
        linear = np.array(self.linear, dtype=float)
        quad = np.array(self.quad, dtype=float)
        if linear.shape != (n,):
            raise InstanceFormatError("linear coefficients must have length n")
        if not np.isfinite(linear).all():
            raise InstanceFormatError("linear coefficients must be finite")
        if quad.shape != (n, n):
            raise InstanceFormatError("quadratic coefficients must form an n x n array")
        if not np.isnan(np.diagonal(quad)).all():
            raise InstanceFormatError("diagonal entries are structurally absent (NaN)")
        if int(np.isnan(quad).sum()) != n:  # NaN nowhere but the diagonal
            raise InstanceFormatError("NaN is not a valid coefficient")
        if np.isneginf(quad).any():
            raise InstanceFormatError("-inf is not representable")
        if not ((quad == quad.T) | np.isnan(quad)).all():  # NaN is exactly the diagonal
            raise InstanceFormatError("quadratic coefficients must be symmetric")
        linear.flags.writeable = False
        quad.flags.writeable = False
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "quad", quad)

    @classmethod
    def from_entries(
        cls,
        n: int,
        r: int,
        entries: Mapping[tuple[int, int], float] | Iterable[tuple[int, int, float]] = (),
        linear: Sequence[float] | None = None,
    ) -> "QuadraticInstance":
        """Build an instance from sparse 1-based pair entries.

        Omitted pairs default to 0.  Both (i, j) and (j, i) may be given,
        but conflicting values for the same pair are rejected.
        """
        if isinstance(entries, Mapping):
            triples = [(i, j, v) for (i, j), v in entries.items()]
        else:
            triples = list(entries)
        rows, cols, values = zip(*triples) if triples else ((), (), ())
        return _scatter(n, r, rows, cols, np.array(values, dtype=float), linear)

    @cached_property
    def scale(self) -> float:
        """Largest finite |coefficient|, linear ones too, at least 1."""
        finite = self.quad < INF  # false on +inf and on the NaN diagonal
        hi = self.quad.max(where=finite, initial=-INF)
        lo = self.quad.min(where=finite, initial=INF)
        return float(max(1.0, hi, -lo, np.abs(self.linear).max()))

    def slack(self, eps: float) -> float:
        """Absolute slack of every tolerant comparison on this instance."""
        return eps * self.scale

    def pair(self, i: int, j: int) -> float:
        """Coefficient of the pair {i, j}, 1-based."""
        if i == j:
            raise IndexError("diagonal entries do not exist")
        return float(self.quad[i - 1, j - 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadraticInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.r == other.r
            and np.array_equal(self.linear, other.linear)
            and np.array_equal(self.quad, other.quad, equal_nan=True)
        )

    def __repr__(self) -> str:
        inf_count = int(np.isinf(self.quad).sum()) // 2
        return f"QuadraticInstance(n={self.n}, r={self.r}, infinite_pairs={inf_count})"


def _index_array(indices: Sequence[int], n: int, field: str) -> np.ndarray:
    """1-based integer indices as an int64 array, with 0 in place of each
    index outside 1..n."""
    try:
        try:
            out = np.frombuffer(array.array("q", indices), dtype=np.int64)
        except OverflowError:  # an integer beyond int64 is outside 1..n as well
            clipped = [k if type(k) is not int or -n <= k <= n else 0 for k in indices]
            out = np.frombuffer(array.array("q", clipped), dtype=np.int64)
        # array("q") refuses every non-integer but bool, which reads as 0 or 1
        if any(type(indices[k]) is bool for k in np.flatnonzero(out <= 1).tolist()):
            raise TypeError
    except TypeError:
        raise InstanceFormatError(f"field {field!r} must be an integer") from None
    out[(out < 1) | (out > n)] = 0
    return out


def _scatter(
    n: int,
    r: int,
    rows: Sequence[int],
    cols: Sequence[int],
    values: np.ndarray,
    linear: Sequence[float] | None,
) -> QuadraticInstance:
    """Validate 1-based pair entries, given as parallel columns, and write
    them into the coefficient matrix.

    Each entry needs both indices in 1..n, distinct, and a value that is
    neither NaN nor -inf; entries repeating a pair, in either orientation,
    must agree.  The error names the first entry in input order at which
    an entry-by-entry scan would stop.
    """
    _check_size(n, r)
    try:
        quad = np.zeros((n, n))
    except ValueError:  # numpy refuses a shape beyond its size limit before allocating
        raise MemoryError(f"an {n} x {n} coefficient matrix is too large") from None
    i = _index_array(rows, n, "i")
    j = _index_array(cols, n, "j")
    lo = np.minimum(i, j)
    hi = np.maximum(i, j)
    bad = (lo == 0) | (lo == hi) | np.isnan(values) | np.isneginf(values)
    # a stable sort keeps each pair's entries in input order, so a neighbour
    # that differs is the first entry disagreeing with the pair's first value
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key = key[order]
    ordered = values[order]
    clash = (key[1:] == key[:-1]) & (ordered[1:] != ordered[:-1])
    clash_at = np.where(clash, order[1:], len(values))  # input position of each clash
    faults = np.flatnonzero(bad)
    k = int(faults[0]) if faults.size else len(values)
    if clash.any() and clash_at.min() < k:
        t = int(np.argmin(clash_at))
        pair = (int(lo[order[t]]), int(hi[order[t]]))
        raise InstanceFormatError(
            f"asymmetric entry for pair {pair}: {float(ordered[t])} vs {float(ordered[t + 1])}"
        )
    if faults.size:
        if lo[k] == 0:
            raise InstanceFormatError(f"index out of range in pair ({rows[k]},{cols[k]})")
        if lo[k] == hi[k]:
            raise InstanceFormatError(f"diagonal pair ({rows[k]},{cols[k]}) is not allowed")
        if np.isnan(values[k]):
            raise InstanceFormatError("NaN is not a valid coefficient")
        raise InstanceFormatError("-inf is not representable")
    # each pair once above the diagonal, in memory order, then mirrored
    quad.reshape(-1)[key - (n + 1)] = ordered
    quad += quad.T
    np.fill_diagonal(quad, np.nan)
    return QuadraticInstance(n, r, np.zeros(n) if linear is None else linear, quad)


# ---------------------------------------------------------------------------
# Canonical JSON document format


def _reject_constant(name: str) -> float:
    raise InstanceFormatError(f"non-finite JSON literal {name!r} is not allowed")


def _require_int(doc: Mapping, key: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InstanceFormatError(f"field {key!r} must be an integer")
    return v


def _overflows(x: int | float) -> bool:
    try:
        return math.isinf(x)
    except OverflowError:  # an integer too large to convert
        return True


def _doubles(literals: list, strings: int, name: Callable[[int], str]) -> np.ndarray:
    """JSON numbers and "inf" strings, ``strings`` of them, as a float array.

    JSON reads a float literal beyond the range of a double as +-inf, and
    such an integer literal cannot be converted: both are refused, so only
    the string "inf" reads as +inf.  ``name(position)`` names a literal in
    the error.
    """
    try:
        out = np.fromiter(literals, dtype=float, count=len(literals))
        inf_at = np.flatnonzero(np.isinf(out)).tolist()
        if strings == len(inf_at) and all(literals[k] == "inf" for k in inf_at):
            return out
    except (OverflowError, ValueError):  # an integer beyond a double, a non-numeric string
        pass
    word = next((v for v in literals if type(v) is str and v != "inf"), None)
    if word is not None:
        raise InstanceFormatError(f"unknown coefficient string {word!r}")
    k = next(k for k, x in enumerate(literals) if x != "inf" and _overflows(x))
    raise InstanceFormatError(f"{name(k)} overflows a double")


def parse_instance(text: str) -> QuadraticInstance:
    """Parse the canonical JSON document into a validated instance.

    Format: {"n": int, "r": int, "linear": [n numbers] (optional, zeros),
    "quad": [{"i": int, "j": int, "v": number or "inf"}, ...]} with 1-based
    i != j in either order; a pair may repeat if its values agree, omitted
    pairs are 0 and the string "inf" maps to +inf.  Number literals beyond
    the range of a double are refused.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except InstanceFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # too deep, or an integer of over 4300 digits
        raise InstanceFormatError(f"malformed JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise InstanceFormatError("document must be a JSON object")
    unknown = set(doc) - {"n", "r", "linear", "quad"}
    if unknown:
        raise InstanceFormatError(f"unknown fields: {sorted(unknown)}")
    n = _require_int(doc, "n")
    r = _require_int(doc, "r")
    linear = doc.get("linear")
    if linear is not None:
        if (
            not isinstance(linear, list)
            or len(linear) != n
            or not set(map(type, linear)) <= {int, float}
        ):
            raise InstanceFormatError("field 'linear' must be a list of n reals")
        linear = _doubles(linear, 0, lambda k: f"linear coefficient {k + 1}")
    entries = doc.get("quad", [])
    if not isinstance(entries, list):
        raise InstanceFormatError("field 'quad' must be a list of entries")
    # Three keys, none of them missing, are exactly i, j and v.  A JSON value
    # other than an object raises TypeError on len() or on a string key.
    shape_error = InstanceFormatError("quad entries must be objects with keys i, j, v")
    try:
        rows = [e["i"] for e in entries if len(e) == 3]
        cols = [e["j"] for e in entries]
        literals = [e["v"] for e in entries]
    except (KeyError, TypeError):
        raise shape_error from None
    if len(rows) != len(entries):
        raise shape_error
    types = list(map(type, literals))
    kinds = set(types)
    if not kinds <= {int, float, str}:
        raise InstanceFormatError("coefficient must be a number or the string 'inf'")
    values = _doubles(
        literals,
        types.count(str) if str in kinds else 0,
        lambda k: f"coefficient of pair ({rows[k]},{cols[k]})",
    )
    return _scatter(n, r, rows, cols, values, linear)


def serialize_instance(instance: QuadraticInstance) -> str:
    """Serialize to the canonical JSON document.

    Zero quadratic entries are omitted, entries are sorted by (i, j), and
    key order is fixed, so equal instances produce byte-identical output
    and parse_instance(serialize_instance(I)) == I.  The text is the
    ``json.dumps`` rendering of the document: floats by ``repr``, ", " and
    ": " separators.
    """
    head = f'{{"n": {instance.n}, "r": {instance.r}, '
    if np.any(instance.linear != 0.0):
        head += f'"linear": {json.dumps(instance.linear.tolist())}, '
    rows, cols = np.triu_indices(instance.n, 1)
    values = instance.quad[rows, cols]
    keep = values != 0.0
    rows, cols, values = (rows[keep] + 1).tolist(), (cols[keep] + 1).tolist(), values[keep]
    texts = list(map(repr, values.tolist()))
    for k in np.flatnonzero(np.isinf(values)).tolist():
        texts[k] = '"inf"'
    body = ", ".join([f'{{"i": {i}, "j": {j}, "v": {t}}}' for i, j, t in zip(rows, cols, texts)])
    return f'{head}"quad": [{body}]}}'


# ---------------------------------------------------------------------------
# Structure-preserving transforms


def apply_potential(instance: QuadraticInstance, potential: Sequence[float]) -> QuadraticInstance:
    """Shift every pair coefficient by potential[i] + potential[j].

    Infinite entries stay infinite and linear terms are unchanged.  The
    M-convexity verdict is invariant under this transform.
    """
    p = np.asarray(potential, dtype=float)
    if p.shape != (instance.n,) or not np.isfinite(p).all():
        raise ValueError("potential must be n finite reals")
    # add the symmetric shift in one rounding step so exact symmetry survives
    quad = instance.quad + (p[:, None] + p[None, :])
    return QuadraticInstance(instance.n, instance.r, instance.linear, quad)


def relabel(instance: QuadraticInstance, perm: Sequence[int]) -> QuadraticInstance:
    """Rename index i to perm[i-1] (1-based), permuting all coefficients."""
    images = list(perm)
    if sorted(images) != list(range(1, instance.n + 1)):
        raise ValueError("perm is not a bijection on 1..n")
    dest = np.asarray(images, dtype=int) - 1
    quad = np.empty_like(instance.quad)
    quad[np.ix_(dest, dest)] = instance.quad
    linear = np.empty_like(instance.linear)
    linear[dest] = instance.linear
    return QuadraticInstance(instance.n, instance.r, linear, quad)


# ---------------------------------------------------------------------------
# Verdicts and witnesses


@dataclass(frozen=True)
class Witness:
    """Machine-checkable certificate that a decision procedure returned no.

    kinds:
      exchange_violation  -- supports x, y and an index i in x\\y such that
                             no j makes the exchange inequality hold
      quadruple_violation -- indices (i, j, k, l) whose three pairing sums
                             attain their minimum exactly once
      domain_violation    -- indices (i, j, k) with {i,j}, {j,k} forbidden
                             but {i,k} allowed
    All indices are 1-based.
    """

    kind: str
    indices: tuple[int, ...] | None = None
    x: tuple[int, ...] | None = None
    y: tuple[int, ...] | None = None
    i: int | None = None

    def to_json(self) -> dict:
        if self.kind == EXCHANGE_VIOLATION:
            return {"kind": self.kind, "x": list(self.x), "y": list(self.y), "i": self.i}
        return {"kind": self.kind, "indices": list(self.indices)}


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure, with the method that produced it."""

    status: str
    method: str
    type_label: str | None = None
    witness: Witness | None = None
    epsilon: float = DEFAULT_EPSILON

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "method": self.method,
            "type": self.type_label,
            "witness": self.witness.to_json() if self.witness else None,
            "epsilon": self.epsilon,
        }


#: Process exit codes for each verdict status.
EXIT_CODES = {M_CONVEX: 0, NOT_M_CONVEX: 1, UNDECIDED: 2, INVALID_INSTANCE: 3}
