"""Exact scalar arithmetic for the geometry layers.

Polytope geometry in this package is exact end-to-end.  Plain rational data
uses :class:`fractions.Fraction`.  Bodies with five-fold symmetry (the
pentagon fixture) cannot have all-rational coordinates, so this module adds
``Sqrt5``, the quadratic field Q(sqrt(5)): numbers a + b*sqrt(5) with
rational a, b, with exact arithmetic and exact order comparisons.

Exact input (polytope vertices, linear-program coefficients) enters
through :func:`exact`, the one validating coercer: it takes ints,
Fractions, Sqrt5 values and scalar strings and refuses bool, float and
everything else.  Downstream code (face enumeration, automorphism search)
is written against plain field operations, so Fraction and Sqrt5 values
flow through the same code paths; the elimination kernel of ``exactla``
lifts them into integer rings and back.
"""

from __future__ import annotations

import re
from fractions import Fraction


def _coerce(value):
    """Return value as Fraction or Sqrt5, or None if not coercible."""
    if isinstance(value, Sqrt5):
        return value
    if isinstance(value, (int, Fraction)):
        return Sqrt5(Fraction(value), Fraction(0))
    return None


class Sqrt5:
    """An element a + b*sqrt(5) of the real quadratic field Q(sqrt(5)).

    Immutable.  Mixes with int and Fraction in arithmetic and comparisons;
    results stay exact.  Comparisons use the sign of a + b*sqrt(5), decided
    by comparing a^2 with 5 b^2 (sqrt(5) is irrational, so a nonzero element
    never has sign zero).
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Sqrt5 is immutable")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt5(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Sqrt5(-self.a, -self.b)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt5(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt5(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def _inverse(self):
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return Sqrt5(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = Sqrt5(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- comparisons --------------------------------------------------------

    def _sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against 5 b^2
        big_a = a * a > 5 * b * b
        if a > 0:
            return 1 if big_a else -1
        return -1 if big_a else 1

    def _cmp(self, other):
        o = _coerce(other)
        if o is None:
            return None
        return (self - o)._sign()

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        # rational values hash like their Fraction so mixed-type dict keys work
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- conversions --------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * 5.0 ** 0.5

    def __repr__(self):
        return "Sqrt5(%r, %r)" % (str(self.a), str(self.b))

    def __str__(self):
        return format_scalar(self)


SQRT5 = Sqrt5(0, 1)
# golden ratio (1 + sqrt5)/2, handy for pentagon expectations
PHI = Sqrt5(Fraction(1, 2), Fraction(1, 2))


def exact(value):
    """``value`` as an exact scalar: Fraction or Sqrt5.

    Ints become Fractions and strings are read by :func:`parse_scalar`.
    Raises TypeError for bool, float and every other type: a float has
    already rounded, so the caller must supply the exact value it meant.
    A malformed string, a zero denominator included, raises ValueError;
    the entry points turn both into GeometryError or LPError.
    """
    if isinstance(value, (Fraction, Sqrt5)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, float):
        raise TypeError(
            f"float {value!r} is not an exact scalar; give it as an int, a "
            "Fraction or a string such as '1/3'"
        )
    raise TypeError(f"{type(value).__name__} is not an exact scalar")


def format_scalar(x) -> str:
    """Canonical string form: "3", "-1/2", "s5", "1/2+1/2*s5", "-2*s5"."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    if not isinstance(x, Sqrt5):
        raise TypeError("not an exact scalar: %r" % (x,))
    if x.b == 0:
        return str(x.a)
    if x.b == 1:
        root = "s5"
    elif x.b == -1:
        root = "-s5"
    else:
        root = "%s*s5" % (x.b,)
    if x.a == 0:
        return root
    sign = "+" if x.b > 0 else ""
    return "%s%s%s" % (x.a, sign, root)


_TERM_RE = re.compile(r"^([+-]?)((?:\d+(?:/\d+)?)?)(?:(\*?)(s5)(?:/(\d+))?)?$")


def parse_scalar(text):
    """Parse the canonical scalar grammar.

    Accepts rationals ("3", "-1/2") and sums of terms over sqrt(5):
    "s5", "-s5/2", "1/2+1/2*s5", "2-3/4*s5".  Returns Fraction when the
    value is rational, Sqrt5 otherwise.
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if re.search(r"/0+(?!\d)", s):
        raise ValueError("zero denominator in %r" % (text,))
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError("bad scalar syntax: %r" % (text,))
    a = Fraction(0)
    b = Fraction(0)
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError("bad scalar term %r in %r" % (term, text))
        sign_s, coeff_s, star, root, root_den = m.groups()
        if not coeff_s and not root:
            raise ValueError("bad scalar term %r in %r" % (term, text))
        sign = -1 if sign_s == "-" else 1
        coeff = Fraction(coeff_s) if coeff_s else Fraction(1)
        if root:
            if coeff_s and not star:
                raise ValueError("missing '*' before s5 in %r" % (text,))
            if root_den:
                coeff /= Fraction(root_den)
            b += sign * coeff
        else:
            a += sign * coeff
    if b == 0:
        return a
    return Sqrt5(a, b)
