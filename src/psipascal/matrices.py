"""Exact matrix layer: subdiagonal generators, Pascal-type and symmetric
binomial matrices, products, the moment convolution, and the matrix-level
checks.

One storage format holds every matrix: each row is a dict from column to
nonzero entry, over one of the two field domains, with rationals promoting
to rational functions on contact.  The two public constructors differ only
in the shape they check: lower-triangular matrices have the triangle (row i
has i+1 positions), while the symmetric binomial ("Fermat") matrix and
transposes are squares.  Every position a row's dict does not hold reads
as zero; the dense rows, zeros included, are built only on demand, for
printing and entry-by-entry checks.  Equality and hashing go by the stored
entries alone, so equal matrices of either shape or field compare and hash
alike.  Products, scaling, sums and transposes touch stored entries only,
so powers of the subdiagonal generator cost in proportion to their single
nonzero diagonal, and their results are built without re-coercing entries
that already belong to the result field.  The closed-form Pascal-type
matrix P[x] is the moment matrix of the powers of x, and the checks share
one entry comparison; eq9 and eq10 are the weighted Cauchy sum of the
sequence's Pascal triangle over its memo binomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .report import IdentityReport, failing, first_difference
from .scalars import (
    RATIONAL_FIELD,
    RationalFunction,
    Scalar,
    ScalarField,
    divide,
    field_of,
    infer_field,
    scalar_to_latex,
    scalar_to_string,
    _pack,
    _ptrim,
    _unpack,
)
from .sequences import AdmissibleSequence, powers

__all__ = [
    "LowerTriMatrix",
    "SquareMatrix",
    "k_matrix",
    "psi_exp_nilpotent",
    "pascal_closed",
    "fermat",
    "matmul",
    "binom_convolve",
    "check_exp_vs_closed",
    "check_nilpotency",
    "check_semigroup",
    "check_product_identity",
    "check_transpose_fermat",
    "check_weighted_cauchy",
    "check_cauchy_vandermonde",
    "MatrixDocument",
    "matrix_document",
    "matrix_to_latex",
]


class _Matrix:
    """Storage shared by both shapes: per row, one dict from column to entry.

    A row's dict holds its nonzero entries only, each of the type of
    ``field``; every other position reads as ``field.zero``, so one
    ``entry`` serves the triangle and the square.  The order of a dict's
    items carries no meaning: equality is dict equality and the hash is
    taken over unordered items, so a triangle and a square, or a Q matrix
    and its Q(q) copy, with equal entries are equal and hash alike.
    """

    __slots__ = ("_rows", "_field")

    def __init__(self, rows: Sequence[Sequence], field: Optional[ScalarField] = None):
        # the validating path of the public constructors; results of
        # operations skip it through _make
        rows = [list(r) for r in rows]
        lower = isinstance(self, LowerTriMatrix)
        for i, row in enumerate(rows):
            width = i + 1 if lower else len(rows)
            if len(row) != width:
                raise ValueError(f"row {i} must have {width} entries, got {len(row)}")
        fld = infer_field(chain.from_iterable(rows), field)
        # every entry is coerced, zeros too, before the zeros are dropped
        self._rows = [{j: v for j, v in enumerate(map(fld.coerce, row)) if v} for row in rows]
        self._field = fld

    @classmethod
    def _make(cls, rows: list, field: ScalarField):
        # trusted constructor: a list of dicts of nonzero entries, in the
        # shape's columns, that already have the type of ``field``
        obj = object.__new__(cls)
        obj._rows, obj._field = rows, field
        return obj

    @property
    def size(self) -> int:
        return len(self._rows)

    @property
    def field(self) -> ScalarField:
        return self._field

    @property
    def rows(self) -> tuple:
        """Dense rows, built on demand: the triangle or the square, zeros included."""
        n, zero = len(self._rows), self._field.zero
        lower = isinstance(self, LowerTriMatrix)
        return tuple([
            tuple([row.get(j, zero) for j in range(i + 1 if lower else n)])
            for i, row in enumerate(self._rows)
        ])

    def entry(self, i: int, j: int) -> Scalar:
        return self._rows[i].get(j, self._field.zero)

    @property
    def is_zero(self) -> bool:
        return not any(self._rows)

    @property
    def has_zero_diagonal(self) -> bool:
        return all(i not in row for i, row in enumerate(self._rows))

    def transpose(self) -> "SquareMatrix":
        cols = [{} for _ in self._rows]
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                cols[j][i] = v
        return SquareMatrix._make(cols, self._field)

    def __matmul__(self, other):
        return matmul(self, other)

    def __eq__(self, other):
        if isinstance(other, _Matrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash(tuple([frozenset(row.items()) for row in self._rows]))

    def __repr__(self):
        return f"<{type(self).__name__} {self.size}x{self.size} over {self._field.name}>"


class LowerTriMatrix(_Matrix):
    """Square lower-triangular matrix; entries above the diagonal are implicit zeros."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence], field: Optional[ScalarField] = None):
        # each public class defines its own __init__: the benchmark's tracer
        # wraps the one in the class's __dict__
        super().__init__(rows, field)

    @classmethod
    def identity(cls, n: int, field: ScalarField = RATIONAL_FIELD) -> "LowerTriMatrix":
        one = field.one
        return cls._make([{i: one} for i in range(n)], field)

    def scale(self, value) -> "LowerTriMatrix":
        # a field has no zero divisors: the nonzero pattern is kept
        rows = [{j: v * value for j, v in row.items()} if value else {} for row in self._rows]
        return LowerTriMatrix._make(rows, self._field.join(field_of(value)))

    def __add__(self, other):
        if not isinstance(other, LowerTriMatrix) or other.size != self.size:
            return NotImplemented
        fld = self._field.join(other._field)
        # only an operand over Q added to one over Q(q) needs coercing
        mine, theirs = (
            m._rows if m._field is fld
            else [{j: fld.coerce(v) for j, v in row.items()} for row in m._rows]
            for m in (self, other)
        )
        rows = []
        for row, addend in zip(mine, theirs):
            out = dict(row)
            for j, v in addend.items():
                if j in out:
                    v = out.pop(j) + v
                if v:
                    out[j] = v
            rows.append(out)
        return LowerTriMatrix._make(rows, fld)


class SquareMatrix(_Matrix):
    """Square matrix over an exact scalar field; its zeros are not stored."""

    __slots__ = ()

    def __init__(self, rows: Sequence[Sequence], field: Optional[ScalarField] = None):
        # its own __init__, as in LowerTriMatrix, for the benchmark's tracer
        super().__init__(rows, field)


# The packed product over Q(q) needs more than this many stored entries per
# row, on average, in each operand; see matmul.  Timing both paths on
# P[1] P[1], P[1] P[1]^T, P[q] P[q] and P[q] K over q put the break-even
# between 4 and 4.5 entries per row, reached by triangles of size 8.
_PACK_CUTOFF = 4


def matmul(a, b):
    """Exact matrix product, formed row by row over nonzero entries only.

    For each nonzero a[i][k], a[i][k] * b[k][j] is added into row i for each
    nonzero b[k][j] (Gustavson's row-wise product), so the cost follows the
    nonzeros rather than n^3.  Triangular times triangular stays triangular;
    every other shape gives a square.

    Over Q(q), when every stored entry of both operands is an integer
    polynomial and each operand holds more than ``_PACK_CUTOFF`` entries per
    row on average, the same loop runs on Kronecker-packed ints: each
    operand entry is packed once, at one slot width that holds every
    coefficient of every result entry, the products are summed per result
    entry as plain ints, and each result entry is unpacked once.  Every
    other product (over Q, of mixed fields, with a proper denominator, or
    too sparse to repay the packing, such as a chain of powers of the
    generator) multiplies and adds the entries themselves.
    """
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    lower = isinstance(a, LowerTriMatrix) and isinstance(b, LowerTriMatrix)
    product = _packed_product if _packs(a, b) else _entry_product
    return (LowerTriMatrix if lower else SquareMatrix)._make(
        product(a._rows, b._rows), a.field.join(b.field)
    )


def _entry_product(a_rows: list, b_rows: list) -> list:
    rows = []
    for a_row in a_rows:
        out = {}
        for k, av in a_row.items():
            for j, bv in b_rows[k].items():
                # a product already has the result field's type: at least one
                # factor does, and Q(q) absorbs Q
                acc = out.get(j)
                out[j] = av * bv if acc is None else acc + av * bv
        # a sum may cancel to 0
        rows.append({j: v for j, v in out.items() if v})
    return rows


def _packs(a, b) -> bool:
    """Whether ``matmul`` takes the packed path for these operands."""
    if not (a._field.symbolic and b._field.symbolic):
        return False
    n = len(a._rows)
    if sum(map(len, a._rows)) <= _PACK_CUTOFF * n or sum(map(len, b._rows)) <= _PACK_CUTOFF * n:
        return False
    # an integer polynomial is stored over the denominator (1,)
    return all(v._den == (1,) for m in (a, b) for row in m._rows for v in row.values())


def _packed_product(a_rows: list, b_rows: list) -> list:
    """The row-wise product of integer polynomial entries, on packed ints.

    A coefficient of a result entry sums at most min(longest a, longest b)
    products of at most max|a| max|b| each, for each of at most (longest
    row of a) terms, and the slot width, with its sign bit, holds that bound.
    """
    bounds = []
    for rows in (a_rows, b_rows):
        top = longest = 0
        for row in rows:
            for v in row.values():
                cs = v._num
                top = max(top, max(cs), -min(cs))
                longest = max(longest, len(cs))
        bounds.append((top, longest))
    (top_a, long_a), (top_b, long_b) = bounds
    terms = max(map(len, a_rows))
    # the operands' own coefficients must fit as well: one may be zero
    bound = max(top_a, top_b, top_a * top_b * min(long_a, long_b) * terms)
    width = bound.bit_length() // 8 + 1
    bits = 8 * width
    packed_b = [{j: _pack(v._num, width) for j, v in row.items()} for row in b_rows]
    rows = []
    for a_row in a_rows:
        out = {}
        for k, av in a_row.items():
            pa = _pack(av._num, width)
            for j, pb in packed_b[k].items():
                acc = out.get(j)
                out[j] = pa * pb if acc is None else acc + pa * pb
        # a nonzero top slot m-1 gives |v| a bit length from bits (m-1) to
        # bits m, so the slot count below is m or m + 1; a sum may cancel to 0
        rows.append({
            j: RationalFunction._make(_ptrim(_unpack(v, abs(v).bit_length() // bits + 1, width)), (1,))
            for j, v in out.items() if v
        })
    return rows


# ---------------------------------------------------------------------------
# the matrices themselves
# ---------------------------------------------------------------------------


def k_matrix(seq: AdmissibleSequence, n: int) -> LowerTriMatrix:
    """The subdiagonal generator: entry (j+1, j) is the integer (j+1)_psi.

    Strictly lower-triangular, hence nilpotent with K^n = 0 at size n.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    rows = []
    for i in range(n):
        row = [seq.field.zero] * (i + 1)
        if i >= 1:
            row[i - 1] = seq.integer(i)
        rows.append(row)
    return LowerTriMatrix(rows, seq.field)


def psi_exp_nilpotent(seq: AdmissibleSequence, matrix: LowerTriMatrix, x) -> LowerTriMatrix:
    """Generalized exponential sum_k x^k M^k / k_psi! of a nilpotent matrix.

    Requires a strictly lower-triangular argument so the series terminates.
    """
    if not isinstance(matrix, LowerTriMatrix) or not matrix.has_zero_diagonal:
        raise ValueError("generalized exponential needs a strictly lower-triangular matrix")
    n = matrix.size
    acc = LowerTriMatrix.identity(n, seq.field)
    power = LowerTriMatrix.identity(n, matrix.field)
    x_powers = powers(x, n)
    for k in range(1, n):
        power = matmul(power, matrix)
        if power.is_zero:
            break
        acc = acc + power.scale(divide(x_powers[k], seq.factorial(k)))
    return acc


def pascal_closed(seq: AdmissibleSequence, n: int, x) -> LowerTriMatrix:
    """The Pascal-type matrix in closed form: entry (i, j) = x^(i-j) binomial(i, j).

    It is the moment matrix of the powers 1, x, x^2, ..., x^(n-1), over the
    field of its entries: a point in Q(q) widens a rational sequence.
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    moments = powers(x, n)
    return LowerTriMatrix(
        [[seq.binomial(i, j) * moments[i - j] for j in range(i + 1)] for i in range(n)]
    )


def fermat(seq: AdmissibleSequence, n: int) -> SquareMatrix:
    """The symmetric binomial matrix: entry (i, j) = binomial(i + j, i)."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return SquareMatrix(
        [[seq.binomial(i + j, i) for j in range(n)] for i in range(n)], seq.field
    )


# ---------------------------------------------------------------------------
# the product law: binomial convolution of moments
# ---------------------------------------------------------------------------


def binom_convolve(seq: AdmissibleSequence, a: Sequence, b: Sequence) -> tuple:
    """Binomial convolution of two moment lists: c_m = sum_t binomial(m,t) a_t b_(m-t)."""
    if len(a) != len(b):
        raise ValueError(f"moment lists differ in length: {len(a)} vs {len(b)}")
    return tuple([seq.binomial_sum(m, a, b) for m in range(len(a))])



# ---------------------------------------------------------------------------
# matrix-level identity checks
# ---------------------------------------------------------------------------


def _entrywise(actual, expected):
    """The pairs of ``actual`` against ``expected(i, j)`` at every position of its shape.

    The dense rows of ``actual``, zeros included, are walked in ascending
    row and column order over the triangle or the square, so the first
    differing position is the reported counterexample.
    """
    return (
        ((i, j), lhs, expected(i, j), None) for i, row in enumerate(actual.rows) for j, lhs in enumerate(row)
    )


def check_exp_vs_closed(seq: AdmissibleSequence, n: int, x) -> IdentityReport:
    """The nilpotent exponential of the generator must equal the closed form."""
    params = {"sequence": seq.selector, "n": str(n), "x": scalar_to_string(x)}
    series = psi_exp_nilpotent(seq, k_matrix(seq, n), x)
    return first_difference("exp-vs-closed", params, _entrywise(series, pascal_closed(seq, n, x).entry))


def check_nilpotency(seq: AdmissibleSequence, n: int) -> IdentityReport:
    """K^n = 0 while K^(n-1) != 0 at size n: nilpotency of exact index."""
    params = {"sequence": seq.selector, "n": str(n)}
    power = LowerTriMatrix.identity(n, seq.field)
    matrix = k_matrix(seq, n)
    for _ in range(n - 1):
        power = matmul(power, matrix)
    if power.is_zero:
        return failing("nilpotent", params, (n - 1,), "0", "nonzero", detail=f"K^{n - 1} vanished")
    power = matmul(power, matrix)
    # K^n against zero at its stored entries, in row and then column order
    return first_difference("nilpotent", params, (
        ((n, i, j), v, 0, f"K^{n} has a nonzero entry")
        for i, row in enumerate(power._rows)
        for j, v in sorted(row.items())
    ))


def _check_product(seq, n, x, y, identity: str, params: dict) -> IdentityReport:
    product = matmul(pascal_closed(seq, n, x), pascal_closed(seq, n, y))
    # (x +psi y)^d for every d at once: the convolution of the two power lists
    sums = binom_convolve(seq, powers(x, n), powers(y, n))
    return first_difference(
        identity, params, _entrywise(product, lambda i, j: seq.binomial(i, j) * sums[i - j])
    )


def check_semigroup(seq: AdmissibleSequence, n: int, x, y) -> IdentityReport:
    """P[x] P[y] has entries binomial(i, j) (x +psi y)^(i-j): the product law."""
    params = {
        "sequence": seq.selector,
        "n": str(n),
        "x": scalar_to_string(x),
        "y": scalar_to_string(y),
    }
    return _check_product(seq, n, x, y, "semigroup", params)


def check_product_identity(seq: AdmissibleSequence, n: int, variant: str) -> IdentityReport:
    """The product law at x = y = 1 ("eq4") or x = 1, y = -1 ("eq5").

    The second variant compares against the alternating expansion produced by
    the actual matrix product, whose sign pattern is (-1)^(k-j) within
    column j.
    """
    if variant not in ("eq4", "eq5"):
        raise ValueError(f"variant must be 'eq4' or 'eq5', got {variant!r}")
    y = 1 if variant == "eq4" else -1
    params = {"sequence": seq.selector, "n": str(n)}
    return _check_product(seq, n, seq.field.one, seq.field.coerce(y), variant, params)


def check_transpose_fermat(seq: AdmissibleSequence, n: int) -> IdentityReport:
    """Compare P[1] P[1]^T with the symmetric binomial matrix, entry by entry.

    This is the unweighted convolution sum_k binomial(i,k) binomial(j,k)
    against binomial(i+j, i).  It holds for the classical sequence (plain
    Vandermonde) and fails otherwise; the weighted identities eq9/eq10 are
    the corrected forms for the q case.
    """
    params = {"sequence": seq.selector, "n": str(n)}
    p1 = pascal_closed(seq, n, seq.field.one)
    product = matmul(p1, p1.transpose())
    return first_difference("eq6", params, _entrywise(product, fermat(seq, n).entry))


def _weighted_vandermonde(seq: AdmissibleSequence, identity: str, indices: dict, r, s, j):
    """sum_k q^((r-k)(j-k)) binomial(r,k) binomial(s,j-k) against binomial(r+s, j).

    The terms come from the sequence's ratio-rule memo, the right side from
    its Pascal triangle at q, so the two sides are independent routes; the
    integers 1 .. r+s are checked first, as the memo would check them.
    ``indices`` names the caller's own indices, in order: they are echoed as
    the report's parameters and form the counterexample's location.
    """
    triangle = seq.triangle
    if triangle is None:
        raise ValueError(f"{identity} needs a q-analog sequence, got {seq.selector!r}")
    params = {"sequence": seq.selector, **{k: str(v) for k, v in indices.items()}}
    seq.check_integers(r + s)
    lhs = triangle.weighted_cauchy(seq.binomial, r, s, j)
    rhs = triangle.binomial(r + s, j)
    return first_difference(identity, params, [(tuple(indices.values()), lhs, rhs, None)])


def check_weighted_cauchy(seq: AdmissibleSequence, i: int, j: int) -> IdentityReport:
    """Weighted symmetric Cauchy identity for q-binomials:

    sum_k q^((i-k)(j-k)) binomial(i,k) binomial(j,k) = binomial(i+j, j),
    the weighted Vandermonde convolution at (r, s, j) = (i, j, j).
    """
    return _weighted_vandermonde(seq, "eq10", {"i": i, "j": j}, i, j, j)


def check_cauchy_vandermonde(seq: AdmissibleSequence, r: int, s: int, j: int) -> IdentityReport:
    """Weighted Vandermonde convolution for q-binomials:

    sum_k q^((r-k)(j-k)) binomial(r,k) binomial(s,j-k) = binomial(r+s, j).
    """
    return _weighted_vandermonde(seq, "eq9", {"r": r, "s": s, "j": j}, r, s, j)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_JSON_KEYS = ("kind", "sequence", "size", "x", "entries")


@dataclass(frozen=True)
class MatrixDocument:
    """Serializable snapshot of a generated matrix.

    Entries are canonical scalar strings; triangular matrices keep their
    ragged row shape, dense matrices are full.  The JSON form round-trips
    byte for byte.
    """

    kind: str
    sequence: str
    size: int
    x: Optional[str]
    entries: tuple[tuple[str, ...], ...]

    def to_json(self) -> str:
        obj = {
            "kind": self.kind,
            "sequence": self.sequence,
            "size": self.size,
            "x": self.x,
            "entries": [list(row) for row in self.entries],
        }
        return json.dumps(obj, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MatrixDocument":
        obj = json.loads(text)
        if not isinstance(obj, dict) or set(obj) != set(_JSON_KEYS):
            raise ValueError(f"matrix document needs exactly the keys {_JSON_KEYS}")
        entries = tuple(tuple(str(v) for v in row) for row in obj["entries"])
        return cls(obj["kind"], obj["sequence"], int(obj["size"]), obj["x"], entries)

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self.entries)

    def to_text(self) -> str:
        return "\n".join(" ".join(row) for row in self.entries)


def matrix_document(kind: str, seq: AdmissibleSequence, matrix, x=None) -> MatrixDocument:
    entries = tuple(tuple(scalar_to_string(v) for v in row) for row in matrix.rows)
    return MatrixDocument(
        kind=kind,
        sequence=seq.selector,
        size=matrix.size,
        x=None if x is None else scalar_to_string(x),
        entries=entries,
    )


def matrix_to_latex(matrix) -> str:
    """Bracketed array form; triangular matrices are padded with zeros."""
    n = matrix.size
    lines = [f"\\left[\\begin{{array}}{{{'c' * n}}}"]
    for i in range(n):
        cells = [scalar_to_latex(matrix.entry(i, j)) for j in range(n)]
        lines.append(" & ".join(cells) + r" \\")
    lines.append("\\end{array}\\right]")
    return "\n".join(lines)
