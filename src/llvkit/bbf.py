"""The degree-2 quadratic form of a symplectic model ring, the top-power
intersection relation q(a)^n = c * integral(a^(2n)), and signatures."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .linalg import Matrix, inverse
from .models import monomial_label, quadratic_power, vector_stream
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
    the rational degree-2 basis, where all values are rational.  That
    basis, in this ring's coordinates, is the columns of the inverse of
    the degree-2 change of basis ``to_rational_mats[2]``, an m x m
    inverse.
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
        from_rat = inverse(ring.to_rational_mats[2])
        m = from_rat.ncols
        basis = [ring.embed(2, from_rat.col(a)) for a in range(m)]
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
    n, m = _fujiki_degrees(ring, form)

    def classes():
        for v in itertools.islice(vector_stream(m), m + extra_classes):
            a = tuple(map(rat, v))
            yield (a, to_field(form.evaluate(a), FIELD_RATIONAL) ** n,
                   ring.integrate(ring.power(ring.embed(2, a), 2 * n)))

    constant, checked = _fit(n, classes(),
                             lambda a: f"class {tuple(map(str, a))}")
    if constant is None:
        raise FujikiError("Fujiki relation fails: every enumerated class has "
                          "vanishing top power")
    return FujikiData(form=form, constant=constant, n=n, classes_checked=checked)


def fujiki_certificate(ring, form: QuadraticForm) -> FujikiData:
    """Prove form(a)^n = c * integral(a^(2n)) for every degree-2 class a,
    with c != 0, or raise FujikiError.

    Both sides are forms of degree 2n in the coordinates of a, so they
    agree for every a exactly when their coefficients agree.  With x_i
    the degree-2 basis, the multinomial theorem gives integral(a^(2n)) =
    sum (2n)!/gamma! * integral(x^gamma) * a^gamma over the monomials
    x^gamma of degree 2n.  Each monomial is formed once, as the sparse
    product x_i * x^(gamma - e_i) through ``mul_basis``, from the
    monomials of one degree less.  c is fitted on the first monomial
    whose integral coefficient is nonzero, and every coefficient of q^n
    is compared with c times the integral's, C(m + 2n - 1, 2n) in all;
    the first that differs raises, naming its monomial.  c = 0 would make
    q^n vanish, so it fails as well.
    """
    n, m = _fujiki_degrees(ring, form)
    qn = quadratic_power(form, n)
    lo = ring.offsets[2]
    weight = {ring.offsets[ring.top] + t: w
              for t, w in enumerate(ring.integration) if w}
    powers = [(2 * n + 1) ** i for i in range(m)]

    def coefficients():
        level = {0: {0: 1}}     # the monomials of one degree, as elements
        for d in range(1, 2 * n + 1):
            prev, level = level, {}
            for combo in itertools.combinations_with_replacement(range(m), d):
                key = sum(map(powers.__getitem__, combo))
                x = {}
                for gk, c in prev[key - powers[combo[0]]].items():
                    for gl, c2 in ring.mul_basis(lo + combo[0], gk):
                        x[gl] = x.get(gl, 0) + c * c2
                if d < 2 * n:
                    level[key] = x
                    continue
                top = sum(c * weight[gl] for gl, c in x.items()
                          if gl in weight)
                if top:
                    top *= div(factorial(2 * n), prod(
                        factorial(combo.count(i)) for i in set(combo)))
                yield combo, qn.get(key, 0), top

    constant, checked = _fit(n, coefficients(), lambda combo: (
        "monomial " + monomial_label([combo.count(i) for i in range(m)],
                                     ring.labels[2])))
    if constant is None:
        raise FujikiError(f"Fujiki relation fails: integral(a^{2 * n}) "
                          "vanishes on every class")
    if not constant:
        raise FujikiError(f"the Fujiki constant is zero: q^{n} vanishes "
                          "on a class with a nonzero top power")
    return FujikiData(form=form, constant=constant, n=n, classes_checked=checked)


def _fujiki_degrees(ring, form):
    """(n, m) for a ring of top degree 4n and a form on its m-dim degree-2
    piece, or raise."""
    if ring.top % 4:
        raise FujikiError(f"ring top degree {ring.top} is not 4n")
    if form.dim != ring.dims[2]:
        raise FujikiError("form does not live on the degree-2 piece")
    return ring.top // 4, ring.dims[2]


def _fit(n, terms, name):
    """(c, count): c fitted on the first term (key, q, t) with t != 0, and
    q = c * t checked on every term, in order; c is None when every t is
    0.  The first term that fails raises, named by name(key)."""
    constant, checked, pending = None, 0, []
    for term in terms:
        if constant is None and term[2]:
            constant = div(term[1], term[2])
        pending.append(term)
        if constant is None:
            continue
        for key, q, t in pending:
            if q != constant * t:
                raise FujikiError(
                    f"Fujiki relation fails on {name(key)}: "
                    f"q^{n} = {q} but c*integral = {constant * t}")
        checked += len(pending)
        pending = []
    return constant, checked
