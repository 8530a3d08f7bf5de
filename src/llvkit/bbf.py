"""The degree-2 quadratic form of a symplectic model ring, the top-power
intersection relation q(a)^n = c * integral(a^(2n)), and signatures."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, symmetric_signature
from .models import monomials, vector_stream
from .rings import BigradedAlgebra, QuadraticForm
from .scalars import FIELD_RATIONAL, div, rat, to_field


class DegenerateSymplecticPower(ValueError):
    """(sigma * sigma-bar)^n integrates to zero; normalization impossible."""


class FujikiError(ValueError):
    """No single constant relates q(a)^n and the top intersection numbers."""


@dataclass(frozen=True)
class FujikiData:
    form: QuadraticForm
    constant: int | Fraction  # q(a)^n = constant * integral(a^(2n))
    n: int
    classes_checked: int


def bbf_form(ring: BigradedAlgebra) -> QuadraticForm:
    """Quadratic form (n/2) I((ss')^(n-1) a^2) + (1-n) I(s^(n-1) s'^n a) I(s^n s'^(n-1) a)
    with s = sigma, s' = sigma-bar and I the integration rescaled so that
    I((s s')^n) = 1.

    On rings carrying a rational companion the Gram matrix is returned on
    the rational degree-2 basis, where all values are rational.
    """
    n = ring.symplectic_n()
    sig, sigb = ring.sigma(), ring.sigma_bar()
    ssb = ring.multiply(sig, sigb)
    ssb_n = ring.power(ssb, n)
    norm = ring.integrate(ssb_n)
    if not norm:
        raise DegenerateSymplecticPower(
            "degenerate symplectic top power: integral((sigma sigma-bar)^n) = 0")

    def integ(x):
        return div(ring.integrate(x), norm)

    if ring.rational_model is not None:
        m = ring.rational_model.dims[2]
        basis = [ring.from_rational(ring.rational_model.embed(
            2, [int(t == a) for t in range(m)]))
            for a in range(m)]
    else:
        m = ring.dims[2]
        lo, _ = ring.slice_of(2)
        basis = [ring.basis_vector(lo + a) for a in range(m)]

    ssb_nm1 = ring.power(ssb, n - 1)
    s_nm1_sb_n = ring.multiply(ring.power(sig, n - 1), ring.power(sigb, n))
    s_n_sb_nm1 = ring.multiply(ring.power(sig, n), ring.power(sigb, n - 1))
    lin_a = [integ(ring.multiply(s_nm1_sb_n, v)) for v in basis]
    lin_b = [integ(ring.multiply(s_n_sb_nm1, v)) for v in basis]
    grid = []
    for a in range(m):
        row = []
        for b in range(m):
            first = n * integ(
                ring.multiply(ssb_nm1, ring.multiply(basis[a], basis[b])))
            second = (1 - n) * (lin_a[a] * lin_b[b] + lin_a[b] * lin_b[a])
            row.append(to_field(div(first + second, 2), FIELD_RATIONAL))
        grid.append(row)
    return QuadraticForm(Matrix(grid, ncols=m))


def fujiki_check(ring, form: QuadraticForm, extra_classes=100) -> FujikiData:
    """Fit the unique constant c with form(a)^n = c * integral(a^(2n)).

    The constant is fitted on the first enumerated class with a nonzero
    top power and then verified exactly on a spanning set plus
    ``extra_classes`` further enumerated classes; any violation raises.
    """
    return _fujiki_fit(ring, form, lambda m, n: itertools.islice(
        vector_stream(m), m + extra_classes))


def fujiki_certificate(ring, form: QuadraticForm) -> FujikiData:
    """Prove form(a)^n = c * integral(a^(2n)) for every degree-2 class a,
    with c != 0, or raise FujikiError.

    Both sides are forms of degree 2n in the coordinates of a.  The
    C(m + 2n - 1, 2n) points with nonnegative integer coordinates summing
    to 2n are unisolvent for such forms: one that vanishes on all of them
    vanishes on their hyperplane, so everywhere.  Hence the relation,
    with c fitted on the first point with a nonzero top power and then
    checked exactly on every point, holds for all a.  c = 0 would make
    the n-th power of the form vanish, so it fails as well.
    """
    data = _fujiki_fit(ring, form, lambda m, n: monomials(m, 2 * n))
    if not data.constant:
        raise FujikiError(f"the Fujiki constant is zero: q^{data.n} vanishes "
                          "on a class with a nonzero top power")
    return data


def _fujiki_fit(ring, form, classes) -> FujikiData:
    """Fit c on the first class of ``classes(m, n)`` with a nonzero top
    power and check form(a)^n = c * integral(a^(2n)) on every class, in
    order; the first violation raises."""
    if ring.top % 4:
        raise FujikiError(f"ring top degree {ring.top} is not 4n")
    n = ring.top // 4
    m = ring.dims[2]
    if form.dim != m:
        raise FujikiError("form does not live on the degree-2 piece")
    constant = None
    checked = 0
    pending = []
    for v in classes(m, n):
        coords = tuple(map(rat, v))
        qn = to_field(form.evaluate(coords), FIELD_RATIONAL) ** n
        top = ring.integrate(ring.power(ring.embed(2, coords), 2 * n))
        if constant is None and top:
            constant = div(qn, top)
        pending.append((coords, qn, top))
        if constant is None:
            continue
        for a, qa, ta in pending:
            if qa != constant * ta:
                raise FujikiError(
                    f"Fujiki relation fails on class {tuple(map(str, a))}: "
                    f"q^{n} = {qa} but c*integral = {constant * ta}")
        checked += len(pending)
        pending = []
    if constant is None:
        raise FujikiError("Fujiki relation fails: every enumerated class has "
                          "vanishing top power")
    return FujikiData(form=form, constant=constant, n=n, classes_checked=checked)


def form_signature(form: QuadraticForm):
    """Signature (pos, neg) of a nondegenerate rational form."""
    pos, neg, null = symmetric_signature(form.gram)
    if null:
        raise ValueError(f"degenerate form: radical has dimension {null}")
    return (pos, neg)
