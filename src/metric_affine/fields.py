"""Exact coefficient fields: GF(2), GF(3), GF(4), GF(5), GF(7) and the rationals.

Field elements are plain Python values (small ints for the finite fields,
`fractions.Fraction` for the rationals); a Field object supplies the
arithmetic.  Every finite field is a PrimePowerField, GF(p^k) =
F_p[t]/(modulus) for k >= 1, and the raw value of an element *is* its
enumeration index, which keeps the table-driven group code simple: the
polynomial in t of degree < k whose coefficients are its base-p digits,
the constant term least significant.  So GF(p) = F_p[t]/(t) codes the
integers mod p as themselves, and GF(4) = F_2[t]/(t^2+t+1) codes 0, 1, t,
t+1 as 0, 1, 2, 3.  The one float is in groups.matmul_np: GF(p) products
run in float32 on integers below 2^16, where every step is exact.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction


class Field:
    """Common interface.  Each concrete subclass below is a singleton that
    supplies add, neg, mul, inv, coerce, zero, one and, if finite, elements."""

    name = "?"
    char = 0
    order = None  # None means infinite
    enumerable = False

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def elements(self):
        """All field elements in canonical order (finite fields only)."""
        raise NotImplementedError(f"{self.name} is not enumerable")

    def units(self):
        return self.elements()[1:]

    def dot(self, xs, ys):
        """Sum of pairwise products; the workhorse of matrix multiplication."""
        acc = self.zero
        for x, y in zip(xs, ys):
            acc = self.add(acc, self.mul(x, y))
        return acc

    # --- serialization -----------------------------------------------------

    def to_json(self, a):
        return a

    def from_json(self, x):
        """A coefficient read from a form file: over a finite field, a JSON
        integer (not a boolean, a float or a string)."""
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError("%s coefficients are integers, got %r"
                             % (self.name, x))
        return self.coerce(x)

    spelling = re.compile(r"-?[0-9]+")

    def parse(self, s):
        """Parse a CLI token (over Q, a form-file string too) spelt as
        self.spelling; any other spelling or a zero denominator is refused."""
        if not self.spelling.fullmatch(s):
            raise ValueError("%s numbers are spelt %s, got %r"
                             % (self.name, self.spelling.pattern, s))
        num, _, den = s.partition("/")
        if den and not int(den):
            raise ValueError("zero denominator in %r" % s)
        return self.from_json(Fraction(s) if den else int(num))

    def __repr__(self):
        return self.name


class PrimePowerField(Field):
    """GF(p^k) = F_p[t] / (modulus), for a monic irreducible modulus of
    degree k >= 1, its coefficients given constant term first (Lidl and
    Niederreiter, *Finite Fields*, ch. 2); GF(p) is the degree-one case,
    the modulus t, given as (0, 1).  Every operation is a lookup in tables
    built here once; a reducible modulus is refused.  coerce reads integers
    only (numpy ints too), and over GF(p) any integer mod p."""

    enumerable = True
    zero = 0
    one = 1

    def __init__(self, p, modulus):
        k = len(modulus) - 1
        self.char, self.order = p, p ** k
        self.name = "GF(%d)" % self.order
        els = range(self.order)
        poly = [[a // p ** i % p for i in range(k)] for a in els]

        def code(coeffs):       # the constant term least significant
            return sum(c % p * p ** i for i, c in enumerate(coeffs))

        def times(a, b):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(poly[a]):
                for j, y in enumerate(poly[b]):
                    prod[i + j] += x * y
            for d in range(2 * k - 2, k - 1, -1):   # less t^(d-k) modulus
                prod[d - k:d + 1] = [x - prod[d] * m for x, m
                                     in zip(prod[d - k:d + 1], modulus)]
            return code(prod[:k])

        self._add = tuple(tuple(code(map(operator.add, poly[a], poly[b]))
                                for b in els) for a in els)
        self._neg = tuple(code(-c for c in poly[a]) for a in els)
        self._sub = tuple(tuple(r[n] for n in self._neg) for r in self._add)
        self._mul = tuple(tuple(times(a, b) for b in els) for a in els)
        if any(1 not in row for row in self._mul[1:]):
            raise ValueError("%r is not irreducible over GF(%d)"
                             % (modulus, p))
        self._inv = (None,) + tuple(row.index(1) for row in self._mul[1:])

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def sub(self, a, b):
        return self._sub[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in %s" % self.name)
        return self._inv[a]

    def coerce(self, x):
        try:
            x = operator.index(x)
        except TypeError:
            raise ValueError("%s elements are integers, got %r"
                             % (self.name, x)) from None
        if 0 <= x < self.order:
            return x
        if self.order == self.char:
            return x % self.char
        raise ValueError("%s elements are coded 0..%d, got %r"
                         % (self.name, self.order - 1, x))

    def elements(self):
        return list(range(self.order))


class RationalField(Field):
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def coerce(self, x):
        return Fraction(x)

    def to_json(self, a):
        a = Fraction(a)
        if a.denominator == 1:
            return int(a)
        return "%d/%d" % (a.numerator, a.denominator)

    spelling = re.compile(r"-?[0-9]+(/[0-9]+)?")

    def from_json(self, x):
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return Fraction(x)
        raise ValueError("cannot read %r as a rational" % (x,))


GF2 = PrimePowerField(2, (0, 1))         # t
GF3 = PrimePowerField(3, (0, 1))
GF4 = PrimePowerField(2, (1, 1, 1))      # t^2 + t + 1
GF5 = PrimePowerField(5, (0, 1))
GF7 = PrimePowerField(7, (0, 1))
QQ = RationalField()

_BY_NAME = {f.name: f for f in (GF2, GF3, GF4, GF5, GF7, QQ)}
_BY_NAME["QQ"] = _BY_NAME["rational"] = QQ  # tolerated aliases


def field_make(name):
    """Look up a field by name: "GF(2)", ..., "GF(7)" or "Q", or by one of
    the shorthands "2", ..., "7" (the order), "QQ" and "rational"."""
    if not isinstance(name, str):
        raise ValueError("field must be a string such as \"GF(3)\", got %r"
                         % (name,))
    key = name.strip()
    f = _BY_NAME.get("GF(%s)" % key if key.isdigit() else key)
    if f is None:
        raise ValueError(
            "unknown field %r (known: %s)" % (name, ", ".join(sorted(_BY_NAME)))
        )
    return f

