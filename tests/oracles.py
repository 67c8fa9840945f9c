"""Independent reference computations used to freeze expected test values.

Everything here is deliberately written against plain ints/Fractions and
coefficient lists, with no imports from the package under test, so that a
test comparing package output to an oracle exercises two separate routes.
"""

from fractions import Fraction
from math import comb, gcd, lcm


def fib(n: int) -> int:
    """Fibonacci numbers with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_factorial(n: int) -> int:
    out = 1
    for m in range(1, n + 1):
        out *= fib(m)
    return out


def fibonomial(n: int, k: int) -> Fraction:
    """Fibonomial coefficient straight from the factorial ratio."""
    return Fraction(fib_factorial(n), fib_factorial(k) * fib_factorial(n - k))


def poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += Fraction(ca) * Fraction(cb)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def gaussian_binomial(n: int, k: int):
    """Gaussian binomial as a coefficient list, via the Pascal-type triangle.

    Uses the recurrence G(n, k) = G(n-1, k-1) + q^k G(n-1, k), which is a
    different route than any factorial ratio.
    """
    if k < 0 or k > n:
        return []
    row = [[Fraction(1)]]
    for r in range(1, n + 1):
        nxt = [[Fraction(1)]]
        for c in range(1, r):
            shifted = [Fraction(0)] * c + list(row[c])
            nxt.append(poly_add(row[c - 1], shifted))
        nxt.append([Fraction(1)])
        row = nxt
    return row[k]


def fibonomial_rule(n: int, k: int) -> int:
    """Fibonomial coefficient by the division-free rule, row by row:

    C(n, k) = F_(k+1) C(n-1, k) + F_(n-k-1) C(n-1, k-1) for 0 < k < n.
    """
    if k < 0 or k > n:
        return 0
    row = [1]
    for r in range(1, n + 1):
        row = [1] + [fib(c + 1) * row[c] + fib(r - c - 1) * row[c - 1] for c in range(1, r)] + [1]
    return row[k]


def poly_divexact(a, b):
    """a / b by long division; fails unless b divides a exactly."""
    rem = [Fraction(c) for c in a]
    quo = [Fraction(0)] * (len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        quo[i] = rem[i + len(b) - 1] / b[-1]
        for t, c in enumerate(b):
            rem[i + t] -= quo[i] * c
    assert not any(rem), "inexact polynomial division"
    return quo


def poly_rem(a, b):
    """Remainder of a by b over Q by long division; b has a nonzero last term."""
    rem = [Fraction(c) for c in a]
    while len(rem) >= len(b):
        f = rem[-1] / b[-1]
        off = len(rem) - len(b)
        for t, c in enumerate(b):
            rem[off + t] -= f * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def poly_gcd(a, b):
    """Monic gcd over Q by Euclid's algorithm; a and b are not both zero."""
    a = [Fraction(c) for c in a]
    while b:
        a, b = b, poly_rem(a, b)
    return [c / a[-1] for c in a]


def reduce_pair(num, den):
    """The canonical integer pair of num/den, as two tuples of ints.

    Numerator and denominator are divided by their monic gcd over Q, then
    scaled to integer coefficients with no common integer factor and a
    positive leading denominator coefficient; zero is ((), (1,)).
    """
    num, den = poly_add(num, []), poly_add(den, [])  # trimmed Fraction lists
    if not num:
        return (), (1,)
    g = poly_gcd(num, den)
    num, den = poly_divexact(num, g), poly_divexact(den, g)
    cs = num + den
    scale = Fraction(lcm(*[c.denominator for c in cs]), gcd(*[c.numerator for c in cs]))
    if den[-1] < 0:
        scale = -scale
    return tuple(int(c * scale) for c in num), tuple(int(c * scale) for c in den)


def q_factorial(n: int):
    """[n]_q! as a coefficient list: the product of 1 + q + ... + q^(m-1), m = 1 .. n."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out = poly_mul(out, [1] * m)
    return out


def gaussian_quotient(n: int, k: int):
    """Gaussian binomial as a coefficient list, straight from the factorial ratio."""
    return poly_divexact(q_factorial(n), poly_mul(q_factorial(k), q_factorial(n - k)))


def q_integer(n: int, q0: Fraction) -> Fraction:
    return sum((Fraction(q0) ** t for t in range(n)), Fraction(0))


def mat_mul(a, b):
    """Dense triple-loop product of square matrices given as lists of rows.

    Every index triple is visited, zeros included; the entries are summed
    over k in ascending order.
    """
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = Fraction(0)
            for k in range(n):
                acc += Fraction(a[i][k]) * Fraction(b[k][j])
            row.append(acc)
        out.append(row)
    return out


__all__ = [
    "comb",
    "fib",
    "fib_factorial",
    "fibonomial",
    "fibonomial_rule",
    "poly_add",
    "poly_divexact",
    "poly_mul",
    "poly_eval",
    "poly_gcd",
    "poly_rem",
    "reduce_pair",
    "gaussian_binomial",
    "gaussian_quotient",
    "q_factorial",
    "q_integer",
    "mat_mul",
]
