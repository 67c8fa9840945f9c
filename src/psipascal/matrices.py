"""Exact matrix layer: subdiagonal generators, Pascal-type and symmetric
binomial matrices, moment matrices, products, and the matrix-level checks.

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
one entry comparison and one weighted Vandermonde sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from .report import IdentityReport, failing, passing
from .scalars import (
    RATIONAL_FIELD,
    Scalar,
    ScalarField,
    field_of,
    infer_field,
    scalar_to_latex,
    scalar_to_string,
)
from .sequences import AdmissibleSequence, powers

__all__ = [
    "LowerTriMatrix",
    "SquareMatrix",
    "GeneralizedPascal",
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


def matmul(a, b):
    """Exact matrix product, formed row by row over nonzero entries only.

    For each nonzero a[i][k], a[i][k] * b[k][j] is added into row i for each
    nonzero b[k][j] (Gustavson's row-wise product), so the cost follows the
    nonzeros rather than n^3.  Triangular times triangular stays triangular;
    every other shape gives a square.
    """
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    lower = isinstance(a, LowerTriMatrix) and isinstance(b, LowerTriMatrix)
    b_rows = b._rows
    rows = []
    for a_row in a._rows:
        out = {}
        for k, av in a_row.items():
            for j, bv in b_rows[k].items():
                # a product already has the result field's type: at least one
                # factor does, and Q(q) absorbs Q
                acc = out.get(j)
                out[j] = av * bv if acc is None else acc + av * bv
        # a sum may cancel to 0
        rows.append({j: v for j, v in out.items() if v})
    return (LowerTriMatrix if lower else SquareMatrix)._make(rows, a.field.join(b.field))


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
        acc = acc + power.scale(x_powers[k] / seq.factorial(k))
    return acc


def pascal_closed(seq: AdmissibleSequence, n: int, x) -> LowerTriMatrix:
    """The Pascal-type matrix in closed form: entry (i, j) = x^(i-j) binomial(i, j).

    It is the moment matrix of the powers 1, x, x^2, ..., x^(n-1).
    """
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return _moment_matrix(seq, powers(x, n))


def fermat(seq: AdmissibleSequence, n: int) -> SquareMatrix:
    """The symmetric binomial matrix: entry (i, j) = binomial(i + j, i)."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return SquareMatrix(
        [[seq.binomial(i + j, i) for j in range(n)] for i in range(n)], seq.field
    )


# ---------------------------------------------------------------------------
# moment matrices: the closure of the Pascal family under products
# ---------------------------------------------------------------------------


def _moment_matrix(seq: AdmissibleSequence, moments: Sequence) -> LowerTriMatrix:
    """Entry (i, j) = binomial(i, j) * moments[i-j], over the field of its entries."""
    return LowerTriMatrix(
        [[seq.binomial(i, j) * moments[i - j] for j in range(i + 1)] for i in range(len(moments))]
    )


def binom_convolve(seq: AdmissibleSequence, a: Sequence, b: Sequence) -> tuple:
    """Binomial convolution of two moment lists: c_m = sum_t binomial(m,t) a_t b_(m-t)."""
    if len(a) != len(b):
        raise ValueError(f"moment lists differ in length: {len(a)} vs {len(b)}")
    return tuple([seq.binomial_sum(m, a, b) for m in range(len(a))])


class GeneralizedPascal:
    """Moment matrix: entry (i, j) = binomial(i, j) * a_(i-j), with a_0 = 1.

    Products of Pascal-type matrices P[x] leave the one-parameter family for
    sequences that are not normal; moment matrices are the closed algebra
    containing them.  The product law is binomial convolution of moments,
    commutative with identity (1, 0, 0, ...) and with triangular-solve
    inverses, so these matrices form an abelian group.
    """

    __slots__ = ("seq", "moments")

    def __init__(self, seq: AdmissibleSequence, moments: Sequence):
        values = tuple(moments)
        field = seq.field.join(infer_field(values))
        values = tuple(field.coerce(m) for m in values)
        if not values:
            raise ValueError("at least one moment is required")
        if values[0] != 1:
            raise ValueError("the leading moment must be 1")
        self.seq = seq
        self.moments = values

    @classmethod
    def from_scalar_powers(cls, seq: AdmissibleSequence, x, n: int) -> "GeneralizedPascal":
        """The moment matrix of P[x]: moments 1, x, x^2, ..., x^(n-1)."""
        return cls(seq, powers(x, n))

    def matrix(self) -> LowerTriMatrix:
        return _moment_matrix(self.seq, self.moments)

    def product(self, other: "GeneralizedPascal") -> "GeneralizedPascal":
        if self.seq.selector != other.seq.selector:
            raise ValueError("moment matrices over different sequences cannot be multiplied")
        return GeneralizedPascal(self.seq, binom_convolve(self.seq, self.moments, other.moments))

    def inverse(self) -> "GeneralizedPascal":
        """Moments of the inverse matrix, by triangular solve against (1, 0, 0, ...)."""
        inv = [self.seq.field.one]
        for m in range(1, len(self.moments)):
            inv.append(-self.seq.binomial_sum(m, inv + [0], self.moments))
        return GeneralizedPascal(self.seq, inv)

    def __eq__(self, other):
        if not isinstance(other, GeneralizedPascal):
            return NotImplemented
        return self.seq.selector == other.seq.selector and self.moments == other.moments

    def __repr__(self):
        shown = ", ".join(scalar_to_string(m) for m in self.moments[:4])
        return f"<GeneralizedPascal {self.seq.selector!r} moments ({shown}, ...)>"


# ---------------------------------------------------------------------------
# matrix-level identity checks
# ---------------------------------------------------------------------------


def _first_mismatch(identity: str, params: dict, actual, expected) -> IdentityReport:
    """Compare ``actual`` with ``expected(i, j)`` at every position of its shape.

    The dense rows of ``actual``, zeros included, are walked in ascending
    row and column order over the triangle or the square, so the first
    differing position is the reported counterexample.
    """
    for i, row in enumerate(actual.rows):
        for j, lhs in enumerate(row):
            rhs = expected(i, j)
            if lhs != rhs:
                return failing(identity, params, (i, j), scalar_to_string(lhs), scalar_to_string(rhs))
    return passing(identity, params)


def check_exp_vs_closed(seq: AdmissibleSequence, n: int, x) -> IdentityReport:
    """The nilpotent exponential of the generator must equal the closed form."""
    params = {"sequence": seq.selector, "n": str(n), "x": scalar_to_string(x)}
    series = psi_exp_nilpotent(seq, k_matrix(seq, n), x)
    return _first_mismatch("exp-vs-closed", params, series, pascal_closed(seq, n, x).entry)


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
    for i, row in enumerate(power._rows):
        if row:
            j = min(row)
            return failing(
                "nilpotent", params, (n, i, j), scalar_to_string(row[j]), "0",
                detail=f"K^{n} has a nonzero entry",
            )
    return passing("nilpotent", params)


def _check_product(seq, n, x, y, identity: str, params: dict) -> IdentityReport:
    product = matmul(pascal_closed(seq, n, x), pascal_closed(seq, n, y))
    # (x +psi y)^d for every d at once: the convolution of the two power lists
    sums = binom_convolve(seq, powers(x, n), powers(y, n))
    return _first_mismatch(identity, params, product, lambda i, j: seq.binomial(i, j) * sums[i - j])


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
    return _first_mismatch("eq6", params, product, fermat(seq, n).entry)


def _weighted_vandermonde(seq: AdmissibleSequence, identity: str, indices: dict, r, s, j):
    """sum_k q^((r-k)(j-k)) binomial(r,k) binomial(s,j-k) against binomial(r+s, j).

    ``indices`` names the caller's own indices, in order: they are echoed as
    the report's parameters and form the counterexample's location.
    """
    base = seq.q_scalar
    if base is None:
        raise ValueError(f"{identity} needs a q-analog sequence, got {seq.selector!r}")
    params = {"sequence": seq.selector, **{k: str(v) for k, v in indices.items()}}
    lhs = seq.field.zero
    for k in range(max(0, j - s), min(r, j) + 1):
        lhs = lhs + (base ** ((r - k) * (j - k))) * seq.binomial(r, k) * seq.binomial(s, j - k)
    rhs = seq.binomial(r + s, j)
    if lhs != rhs:
        location = tuple(indices.values())
        return failing(identity, params, location, scalar_to_string(lhs), scalar_to_string(rhs))
    return passing(identity, params)


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
