import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import llvkit
from llvkit.scalars import Gauss, div, rat

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
    for got in (div(x, y), x / y):
        assert (got.re, got.im) == want
        assert type(got.re) is _rule_type(want[0])
        assert type(got.im) is _rule_type(want[1])


@pytest.mark.parametrize("a, b", [(1, 0), (0, 0), (Fraction(1, 2), 0),
                                  (3, Fraction(0)), (Gauss(1, 1), 0),
                                  (1, Gauss(0)), (Gauss(0, 1), Gauss(0, 0))])
def test_division_by_zero_raises(a, b):
    with pytest.raises(ZeroDivisionError):
        div(a, b)


def test_gauss_parts_are_ints_when_integral():
    g = Gauss(Fraction(4, 2), Fraction(1, 3))
    assert type(g.re) is int and type(g.im) is Fraction
