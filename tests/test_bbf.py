import itertools
import re
from fractions import Fraction

import pytest

from llvkit.bbf import FujikiError, bbf_form, fujiki_certificate, fujiki_check
from llvkit.linalg import Matrix, symmetric_signature
from llvkit.models import torus_ring, vector_stream
from llvkit.rings import QuadraticForm
from llvkit.scalars import Gauss


def proportionality(qa, qb):
    ratio = None
    m = qa.dim
    for i in range(m):
        for j in range(m):
            lhs, rhs = qa.gram[i, j], qb.gram[i, j]
            if rhs:
                r = lhs / rhs
                if ratio is None:
                    ratio = r
                assert r == ratio
            else:
                assert lhs == 0
    return ratio


def test_bbf_proportional_to_input(model52, model62):
    for big in (model52, model62):
        q = bbf_form(big)
        ratio = proportionality(q, big.rational_model.quadratic_form)
        assert ratio > 0


def test_bbf_n1_is_half_integral(k3big):
    q = bbf_form(k3big)
    rat = k3big.rational_model
    for v in itertools.islice(vector_stream(22), 20):
        x = rat.embed(2, [Fraction(c) for c in v])
        integral = rat.integrate(rat.multiply(x, x))
        assert q.evaluate([Fraction(c) for c in v]) == integral / 2


def test_bbf_period_domain_conditions(model52):
    # q(sigma) = 0 and q(sigma + sigma-bar) > 0 in rational coordinates
    q = bbf_form(model52)
    u1, u2 = model52.positive_pair
    sigma = [Gauss(a, b) for a, b in zip(u1, u2)]
    val = Fraction(0)
    acc = Gauss(0)
    gv = [sum((q.gram[i, j] * sigma[j] for j in range(5)), Gauss(0))
          for i in range(5)]
    acc = sum((a * b for a, b in zip(sigma, gv)), Gauss(0))
    assert acc == Gauss(0)
    assert q.evaluate(model52.gamma_rational) > 0


def test_bbf_independent_of_unit_rescale(model52):
    # replacing sigma by u*sigma for a Gaussian unit leaves the form fixed
    base = bbf_form(model52)
    sig, sigb = model52.sigma(), model52.sigma_bar()
    for unit in (Gauss(-1), Gauss(0, 1), Gauss(0, -1)):
        scaled = model52.scale(sig, unit)
        scaled_bar = model52.scale(sigb, unit.conjugate())
        q = _bbf_with_sigma(model52, scaled, scaled_bar)
        assert q.gram == base.gram


def _bbf_with_sigma(ring, sig, sigb):
    from llvkit.linalg import Matrix
    from llvkit.scalars import as_fraction
    n = ring.symplectic_n()
    ssb = ring.multiply(sig, sigb)
    norm = ring.integrate(ring.power(ssb, n))
    assert norm == 1
    m = ring.rational_model.dims[2]
    basis = [ring.from_rational(ring.rational_model.embed(
        2, [Fraction(1 if t == a else 0) for t in range(m)]))
        for a in range(m)]
    ssb_nm1 = ring.power(ssb, n - 1)
    lin_a = [ring.integrate(ring.multiply(ring.multiply(
        ring.power(sig, n - 1), ring.power(sigb, n)), v)) for v in basis]
    lin_b = [ring.integrate(ring.multiply(ring.multiply(
        ring.power(sig, n), ring.power(sigb, n - 1)), v)) for v in basis]
    grid = []
    for a in range(m):
        row = []
        for b in range(m):
            first = Fraction(n, 2) * ring.integrate(
                ring.multiply(ssb_nm1, ring.multiply(basis[a], basis[b])))
            second = (1 - n) * Fraction(1, 2) * (
                lin_a[a] * lin_b[b] + lin_a[b] * lin_b[a])
            row.append(as_fraction(first + second))
        grid.append(row)
    from llvkit.rings import QuadraticForm
    return QuadraticForm(Matrix(grid, ncols=m))


def test_bbf_restriction_consistency(model62):
    # restricting the model form to a subspace agrees with restricting q0
    q = bbf_form(model62)
    q0 = model62.rational_model.quadratic_form
    ratio = proportionality(q, q0)
    vectors = [(1, 0, 0, 1, 0, 0), (0, 1, 1, 0, 0, 1), (1, 1, 0, 0, 1, 0)]
    restricted = q.restrict(vectors)
    base = q0.restrict(vectors)
    assert restricted == base.scale(ratio)


def test_fujiki_k3(k3big):
    q = bbf_form(k3big)
    fd = fujiki_check(k3big.rational_model, q)
    assert fd.n == 1
    assert fd.constant == Fraction(1, 2)
    # equivalently, integral(a^2) = 2 q(a)
    rat = k3big.rational_model
    for v in itertools.islice(vector_stream(22), 10):
        x = rat.embed(2, [Fraction(c) for c in v])
        assert rat.integrate(rat.multiply(x, x)) == \
            2 * q.evaluate([Fraction(c) for c in v])


def test_fujiki_models_exact(model52, model62):
    for big in (model52, model62):
        q = bbf_form(big)
        fd = fujiki_check(big.rational_model, q, extra_classes=100)
        assert fd.constant != 0
        assert fd.classes_checked >= 100


def test_fujiki_fails_on_torus_g4():
    ring = torus_ring(4)
    form = QuadraticForm.diagonal([1] * ring.dims[2])
    with pytest.raises(FujikiError, match="Fujiki relation fails"):
        fujiki_check(ring, form)


def test_form_signature(model52, k3big):
    assert symmetric_signature(bbf_form(model52).gram) == (3, 2, 0)
    assert symmetric_signature(bbf_form(k3big).gram) == (3, 19, 0)
    neg = bbf_form(model52).gram.scale(-1)
    assert symmetric_signature(neg) == (2, 3, 0)


def test_form_signature_rejects_degenerate():
    # a degenerate form shows its radical as the null part
    assert symmetric_signature(Matrix.zeros(2, 2)) == (0, 0, 2)


def test_fujiki_certificate_accepts_the_declared_forms(k3, rat52, model52,
                                                      torus2):
    # C(m + 2n - 1, 2n) coefficients: (22, 1) -> 253, (5, 2) -> 70,
    # (6, 1) -> 21
    for ring, points in ((k3, 253), (rat52, 70), (model52, 70), (torus2, 21)):
        data = fujiki_certificate(ring, ring.quadratic_form)
        assert data.constant != 0 and data.classes_checked == points
    assert (fujiki_certificate(rat52, rat52.quadratic_form).constant
            == fujiki_check(rat52, rat52.quadratic_form).constant)


@pytest.mark.parametrize("entries, message", [
    ([1, 1, 1, -1, -2], "fails on monomial e1^2*e5^2"),
    ([1, 0, 0, 0, 0], "fails on monomial e1^2*e2^2"),
    ([0, 0, 0, 0, 0], "constant is zero")])
def test_fujiki_certificate_rejects_a_wrong_form(rat52, entries, message):
    with pytest.raises(FujikiError, match=re.escape(message)):
        fujiki_certificate(rat52, QuadraticForm.diagonal(entries))


def test_fujiki_certificate_sees_an_off_diagonal_error(rat52):
    # one off-diagonal entry: q(a) changes only where a_1 a_2 != 0
    rows = [list(r) for r in rat52.quadratic_form.gram.rows]
    rows[0][1] = rows[1][0] = Fraction(1, 7)
    with pytest.raises(FujikiError, match="fails on monomial"):
        fujiki_certificate(rat52, QuadraticForm(Matrix(rows)))
