"""Exact scalar arithmetic: rationals and Gaussian rationals.

Every computation in this package runs over Q or Q(i) -- no floats.
Every scalar is kept in one normal form.  A rational is an ``int`` when
it is integral and a ``fractions.Fraction`` only when it has a
denominator: integral values are created as ints, and ``rat`` and
``div`` return ints whenever they can.  Python's own Fraction arithmetic
can leave an integral Fraction (``Fraction(1, 2) * 2``), which equals
and hashes like the int; ``rat`` sends it back, and every
``linalg.Matrix`` entry and every Gauss part is kept in this normal form.
A Gaussian rational is a small immutable pair type with a nonzero
imaginary part: a value of Q(i) with imaginary part 0 is its rational
real part, so ``Gauss(re, 0)``, Gauss arithmetic and
``to_field(x, FIELD_GAUSSIAN)`` return an int or a Fraction whenever the
value is real.  So the rational constants of a ring over Q(i) run on
native ints, and Gauss remains only for genuinely complex values.  Every
true division goes through ``div`` (or ``Gauss``'s own methods), so
``int / int`` never makes a float.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

FIELD_RATIONAL = "rational"
FIELD_GAUSSIAN = "gaussian"


def rat(x):
    """x as an exact rational: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def div(a, b):
    """The exact quotient a / b over Q or Q(i); an int when b divides a."""
    ta, tb = type(a), type(b)
    if ta is int and tb is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    if ta is Gauss or tb is Gauss:
        return a / b
    if ta is not Fraction:
        a = Fraction(a)
    q = a / (b if tb is int or tb is Fraction else Fraction(b))
    return q.numerator if q.denominator == 1 else q


class Gauss:
    """A Gaussian rational a + b*i, b nonzero; each part an int or a
    Fraction.  ``Gauss(a)`` and ``Gauss(a, 0)`` return the rational a."""

    __slots__ = ("re", "im")

    def __new__(cls, re=0, im=0):
        return _gauss(rat(re), rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("Gauss values are immutable")

    def __reduce__(self):
        return (Gauss, (self.re, self.im))

    # -- arithmetic -------------------------------------------------
    #
    # Results are built by _gauss from parts that are already exact,
    # skipping the coercion of the public constructor; a real result comes
    # back as its rational real part.

    def __add__(self, other):
        if isinstance(other, Gauss):
            return _gauss(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _gauss(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Gauss):
            return _gauss(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _gauss(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gauss(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return _gauss(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, Gauss):
            return _gauss(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)
        if isinstance(other, (int, Fraction)):
            return _gauss(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _gauss(div(self.re, other), div(self.im, other))
        if not isinstance(other, Gauss):
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gauss(div(self.re * other.re + self.im * other.im, n),
                      div(self.im * other.re - self.re * other.im, n))

    def __rtruediv__(self, other):
        # other / self = other * conj(self) / |self|^2
        if isinstance(other, (int, Fraction)):
            n = self.re * self.re + self.im * self.im
            return _gauss(div(other * self.re, n), div(-other * self.im, n))
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = 1
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure --------------------------------------------------

    def conjugate(self) -> "Gauss":
        return _gauss(self.re, -self.im)

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    # a Gauss is never zero and never equals a rational: its imaginary
    # part is nonzero

    def __eq__(self, other):
        if isinstance(other, Gauss):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"Gauss({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_set_re = Gauss.re.__set__
_set_im = Gauss.im.__set__


def _gauss(re, im):
    """re + im*i from two exact parts (int or Fraction): the rational re
    when im is 0, else a Gauss.  An integral Fraction part becomes an int,
    nothing else is coerced."""
    if type(re) is Fraction and re.denominator == 1:
        re = re.numerator
    if not im:
        return re
    if type(im) is Fraction and im.denominator == 1:
        im = im.numerator
    g = object.__new__(Gauss)
    _set_re(g, re)
    _set_im(g, im)
    return g


class GaussInt:
    """A Gaussian integer a + b*i with int parts.

    The entry type of the sparse integer matrices of a closure over Q(i),
    where ints are the entries over Q.  Both expose ``real`` and ``imag``,
    so the two mix: it supports +, - and * with a GaussInt or an int on
    either side, and exact division of both parts by an int (``//``).
    """

    __slots__ = ("real", "imag")

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    def __add__(self, other):
        return GaussInt(self.real + other.real, self.imag + other.imag)

    def __radd__(self, other):
        return GaussInt(other + self.real, self.imag)

    def __sub__(self, other):
        return GaussInt(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        return GaussInt(other - self.real, -self.imag)

    def __mul__(self, other):
        return GaussInt(self.real * other.real - self.imag * other.imag,
                        self.real * other.imag + self.imag * other.real)

    def __rmul__(self, other):
        return GaussInt(other * self.real, other * self.imag)

    def __floordiv__(self, other):
        return GaussInt(self.real // other, self.imag // other)

    def __bool__(self):
        return bool(self.real or self.imag)

    def __repr__(self):
        return f"GaussInt({self.real}, {self.imag})"


I = Gauss(0, 1)


def clear_denominators(values, gaussian):
    """(den, ints): den the least common denominator of the exact values
    (a sequence), ints the values times den, as ints, or as GaussInt when
    gaussian.

    The one path from Q and Q(i) to integer arithmetic: an identity whose
    terms all scale by the same power of den holds on the ints exactly
    when it holds on the values.
    """
    if not gaussian:
        den = math.lcm(1, *(v.denominator for v in values))
        return den, [v.numerator * (den // v.denominator) for v in values]
    parts = [(v.real, v.imag) for v in values]
    den = math.lcm(1, *(x.denominator for xs in parts for x in xs))
    return den, [GaussInt(a.numerator * (den // a.denominator),
                          b.numerator * (den // b.denominator))
                 for a, b in parts]


def integer_values(values):
    """``clear_denominators`` of values over Q or Q(i) with the real
    scaled values as native ints, as in the normal form of Q(i): a
    GaussInt only where the imaginary part is nonzero.  The two mix
    freely in sums and products."""
    values = list(values)
    gaussian = any(type(v) is Gauss for v in values)
    den, ints = clear_denominators(values, gaussian)
    return den, [z if z.imag else z.real for z in ints] if gaussian else ints


def clear_table(table):
    """(den, den * table) for a dict of sparse rows ((index, value), ...),
    such as a ring's products, on ``integer_values``.  A table of ints is
    returned as it is, with den 1: nothing is copied.  Keys that share
    one row object share its scaled row."""
    if all(type(c) is int for row in table.values() for _, c in row):
        return 1, table
    rows = {id(row): row for row in table.values()}
    den, ints = integer_values(c for row in rows.values() for _, c in row)
    it = iter(ints)
    scaled = {key: tuple((i, next(it)) for i, _ in row)
              for key, row in rows.items()}
    return den, {key: scaled[id(row)] for key, row in table.items()}


def conj(x):
    """Complex conjugation; identity on rationals, i -> -i on Gauss."""
    if isinstance(x, Gauss):
        return x.conjugate()
    return x


def as_fraction(x) -> Fraction:
    """Demand a real value and return it as a Fraction."""
    if isinstance(x, Gauss):
        raise ValueError(f"expected a real scalar, got {x}")
    return Fraction(x)


def to_field(x, field: str):
    """Coerce a scalar into the given field, in normal form: a Gauss only
    for a non-real value of Q(i), a rational as int or Fraction."""
    if isinstance(x, Gauss):
        if field != FIELD_GAUSSIAN:
            raise ValueError(f"expected a real scalar, got {x}")
        return x
    return rat(x)


def rat_sqrt(x: Fraction):
    """Exact rational square root, or None when x is not a perfect square."""
    x = Fraction(x)
    if x < 0:
        return None
    if x == 0:
        return 0
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return div(rn, rd)
    return None


# -- coefficient strings -------------------------------------------
#
# Ring files carry coefficients as exact strings: "num/den" for
# rationals and "a/b+c/d i" style for Gaussian values.  No floats.

_RAT_RE = r"[+-]?\d+(?:/\d+)?"
_PURE_RAT = re.compile(rf"^({_RAT_RE})$")
_PURE_IMAG = re.compile(rf"^({_RAT_RE})\s*\*?\s*i$|^([+-]?)i$")
_FULL = re.compile(rf"^({_RAT_RE})\s*([+-])\s*(\d+(?:/\d+)?)?\s*\*?\s*i$")


def _fraction(part: str, text: str) -> Fraction:
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in coefficient {text!r}") from None


def parse_scalar(text: str, field: str = FIELD_RATIONAL):
    """Parse an exact coefficient string; rejects anything float-like and
    any zero denominator."""
    s = text.strip()
    if not s:
        raise ValueError("empty coefficient string")
    m = _PURE_RAT.match(s)
    if m:
        val = _fraction(m.group(1), text)
        return to_field(val, field)
    m = _PURE_IMAG.match(s)
    if m:
        if field != FIELD_GAUSSIAN:
            raise ValueError(f"imaginary coefficient {text!r} in a rational ring")
        if m.group(1) is not None:
            return Gauss(0, _fraction(m.group(1), text))
        return Gauss(0, -1 if m.group(2) == "-" else 1)
    m = _FULL.match(s)
    if m:
        if field != FIELD_GAUSSIAN:
            raise ValueError(f"imaginary coefficient {text!r} in a rational ring")
        re_part = _fraction(m.group(1), text)
        im_part = _fraction(m.group(3), text) if m.group(3) else Fraction(1)
        if m.group(2) == "-":
            im_part = -im_part
        return Gauss(re_part, im_part)
    raise ValueError(f"malformed exact coefficient: {text!r}")


def format_scalar(x) -> str:
    """Canonical exact string form, inverse to parse_scalar."""
    if isinstance(x, Gauss):
        im = x.im
        sign = "+" if im > 0 else "-"
        mag = -im if im < 0 else im
        im_txt = "i" if mag == 1 else f"{mag}i"
        if x.re == 0 and sign == "+":
            return im_txt
        if x.re == 0:
            return f"-{im_txt}"
        return f"{x.re}{sign}{im_txt}"
    return str(Fraction(x))
