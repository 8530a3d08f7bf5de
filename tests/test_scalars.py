import ast
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llvkit
from llvkit.scalars import (FIELD_GAUSSIAN, FIELD_RATIONAL, Gauss,
                             clear_denominators, div, rat, to_field)

_RATIONALS = st.one_of(st.integers(-10**6, 10**6),
                       st.fractions(max_denominator=60))


def _rule_type(value: Fraction):
    return int if value.denominator == 1 else Fraction


def test_no_true_division_outside_scalars():
    # int / int is a float: every division goes through scalars.div
    pkg = Path(llvkit.__file__).resolve().parent
    found = []
    for path in sorted(pkg.glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"true division outside scalars.py: {found}"


@given(_RATIONALS)
def test_rat_is_an_int_exactly_when_integral(x):
    got, want = rat(x), Fraction(x)
    assert got == want
    assert type(got) is _rule_type(want)


@given(_RATIONALS, _RATIONALS)
def test_div_matches_fraction_division(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            div(a, b)
        return
    got, want = div(a, b), Fraction(a) / Fraction(b)
    assert got == want
    assert type(got) is _rule_type(want)


@given(_RATIONALS, _RATIONALS, _RATIONALS, _RATIONALS)
def test_gauss_division_parts_follow_the_rule(a, b, c, d):
    x, y = Gauss(a, b), Gauss(c, d)
    if c == 0 and d == 0:
        with pytest.raises(ZeroDivisionError):
            div(x, y)
        return
    norm = Fraction(c) ** 2 + Fraction(d) ** 2
    want = ((Fraction(a) * c + Fraction(b) * d) / norm,
            (Fraction(b) * c - Fraction(a) * d) / norm)
    # a plain / of two rationals would be a float: they divide by div only
    quotients = [div(x, y)]
    if isinstance(x, Gauss) or isinstance(y, Gauss):
        quotients.append(x / y)
    for got in quotients:
        assert (got.real, got.imag) == want
        if want[1]:
            assert type(got.re) is _rule_type(want[0])
            assert type(got.im) is _rule_type(want[1])
        else:           # a real quotient is its rational real part
            assert type(got) is _rule_type(want[0])


@pytest.mark.parametrize("a, b", [(1, 0), (0, 0), (Fraction(1, 2), 0),
                                  (3, Fraction(0)), (Gauss(1, 1), 0),
                                  (1, Gauss(0)), (Gauss(0, 1), Gauss(0, 0))],
                         ids=["1-0", "0-0", "a2-0", "3-b3", "a4-0", "1-b5",
                              "a6-b6"])
def test_division_by_zero_raises(a, b):
    with pytest.raises(ZeroDivisionError):
        div(a, b)


def test_gauss_parts_are_ints_when_integral():
    g = Gauss(Fraction(4, 2), Fraction(1, 3))
    assert type(g.re) is int and type(g.im) is Fraction


# -- an independent oracle: Q(i) as pairs of Fractions ----------------------
#
# The reference below knows nothing of the normal form: a value is the pair
# (real part, imaginary part) of Fractions, and the operations are the
# textbook formulas.  The scalar core must agree with it on every value,
# and every result it returns must be in normal form.

def _pair(x):
    if type(x) is Gauss:
        return (Fraction(x.re), Fraction(x.im))
    assert type(x) in (int, Fraction), f"not an exact scalar: {x!r}"
    return (Fraction(x), Fraction(0))


def _pair_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n)


def _pair_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


_PAIR_OPS = {
    operator.add: lambda p, q: (p[0] + q[0], p[1] + q[1]),
    operator.sub: lambda p, q: (p[0] - q[0], p[1] - q[1]),
    operator.mul: _pair_mul,
}


def _assert_normal(x):
    """No float, no Gauss with imaginary part 0, no integral Fraction."""
    if type(x) is Gauss:
        assert x.im != 0, f"{x!r} is real"
        parts = (x.re, x.im)
    else:
        parts = (x,)
    for part in parts:
        assert type(part) is int or (type(part) is Fraction
                                     and part.denominator != 1), repr(x)


_SMALL_RATIONALS = st.one_of(
    st.integers(-20, 20), st.fractions(-5, 5, max_denominator=6),
    st.integers(-6, 6).map(Fraction))       # integral Fractions as given
# int, Fraction (normal or not) and Gauss operands; Gauss(a, 0) is a
# rational, so rationals come from that constructor too
_SCALARS = st.one_of(_SMALL_RATIONALS,
                     st.builds(Gauss, _SMALL_RATIONALS, _SMALL_RATIONALS))


@settings(max_examples=400, deadline=None)
@given(_SCALARS, _SCALARS)
def test_scalar_core_matches_pair_oracle(x, y):
    px, py = _pair(x), _pair(y)
    gaussian = type(x) is Gauss or type(y) is Gauss
    # operators on two rationals are Python's own; the core owns the rest
    if gaussian:
        for op, ref in _PAIR_OPS.items():
            for a, b, pa, pb in ((x, y, px, py), (y, x, py, px)):
                got = op(a, b)
                _assert_normal(got)
                assert _pair(got) == ref(pa, pb)
    for a, b, pa, pb in ((x, y, px, py), (y, x, py, px)):
        quotients = [div(a, b)] if any(pb) else []
        if gaussian and any(pb):
            quotients.append(a / b)
        for got in quotients:
            _assert_normal(got)
            assert _pair(got) == _pair_div(pa, pb)
        if not any(pb):
            with pytest.raises(ZeroDivisionError):
                div(a, b)
    assert (x == y) == (px == py)
    if x == y:
        assert hash(x) == hash(y)


@settings(max_examples=200, deadline=None)
@given(_SCALARS, st.integers(0, 5))
def test_scalar_powers_and_conjugates_match_pair_oracle(x, k):
    px = _pair(x)
    if type(x) is Gauss:
        want = (Fraction(1), Fraction(0))
        for _ in range(k):
            want = _pair_mul(want, px)
        for got, ref in ((x ** k, want), (-x, (-px[0], -px[1])),
                         (x.conjugate(), (px[0], -px[1]))):
            _assert_normal(got)
            assert _pair(got) == ref


@settings(max_examples=200, deadline=None)
@given(_SCALARS)
def test_rat_and_to_field_match_pair_oracle(x):
    px = _pair(x)
    got = to_field(x, FIELD_GAUSSIAN)
    _assert_normal(got)
    assert _pair(got) == px
    if type(x) is Gauss:
        with pytest.raises(ValueError, match="expected a real scalar"):
            to_field(x, FIELD_RATIONAL)
        return
    for got in (rat(x), to_field(x, FIELD_RATIONAL)):
        _assert_normal(got)
        assert _pair(got) == px


@settings(max_examples=300, deadline=None)
@given(st.lists(_SCALARS, max_size=8))
def test_clear_denominators_matches_pair_oracle(values):
    den, ints = clear_denominators(iter(values))
    pairs = [_pair(v) for v in values]
    parts = [x for p in pairs for x in p]
    # den is the least positive integer that makes every part integral
    assert all((den * x).denominator == 1 for x in parts)
    assert not any(all((d * x).denominator == 1 for x in parts)
                   for d in range(1, den))
    assert len(ints) == len(values)
    for z, (re, im) in zip(ints, pairs):
        _assert_normal(z)
        assert type(z) is int or type(z.re) is int and type(z.im) is int
        assert _pair(z) == (den * re, den * im)
    if all(type(v) is not Gauss for v in values):
        assert all(type(z) is int for z in ints)
