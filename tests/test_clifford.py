import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llvkit.clifford import (CliffordElement, cl_multiply, cl_trace,
                             cl_trace_gram, clifford,
                             complex_structure, conjugate, polarization_check,
                             polarization_form, trace_symmetry_check)
from llvkit.linalg import Matrix
from llvkit.models import vector_stream
from llvkit.rings import QuadraticForm


@pytest.fixture(scope="module")
def alg5():
    return clifford(QuadraticForm.diagonal([1, 1, 1, -1, -1]))


def rand_element(alg, rng):
    return CliffordElement(alg, [rng.randint(-2, 2) for _ in range(alg.dim)])


def test_rank_one_algebra():
    alg = clifford(QuadraticForm.diagonal([5]))
    e = alg.generator(0)
    assert alg.dim == 2
    assert cl_multiply(e, e).coeffs == alg.one().scale(5).coeffs


def test_e12_squares_to_minus_one():
    alg = clifford(QuadraticForm.diagonal([1, 1]))
    e12 = cl_multiply(alg.generator(0), alg.generator(1))
    assert cl_multiply(e12, e12).coeffs == alg.one().scale(-1).coeffs


def test_dimension_is_two_to_m(alg5):
    assert alg5.dim == 32


def test_defining_relation_on_vectors(alg5):
    form = alg5.form
    count = 0
    for v in itertools.islice(vector_stream(5), 100):
        x = alg5.vector(v)
        expect = alg5.one().scale(form.evaluate([Fraction(c) for c in v]))
        assert cl_multiply(x, x).coeffs == expect.coeffs
        count += 1
    assert count == 100


def test_multiply_unital_and_relation(alg5):
    rng = random.Random(1)
    x = rand_element(alg5, rng)
    assert cl_multiply(alg5.one(), x).coeffs == x.coeffs
    e1, e2 = alg5.generator(0), alg5.generator(1)
    e12 = cl_multiply(e1, e2)
    assert cl_multiply(e1, e12).coeffs == e2.coeffs      # d_1 = 1


def test_multiply_associative_random(alg5):
    rng = random.Random(2)
    for _ in range(100):
        x, y, z = (rand_element(alg5, rng) for _ in range(3))
        left = cl_multiply(cl_multiply(x, y), z)
        right = cl_multiply(x, cl_multiply(y, z))
        assert left.coeffs == right.coeffs


def test_conjugate_signs(alg5):
    assert conjugate(alg5.one()).coeffs == alg5.one().coeffs
    e1 = alg5.generator(0)
    assert conjugate(e1).coeffs == (-e1).coeffs
    e12 = cl_multiply(alg5.generator(0), alg5.generator(1))
    assert conjugate(e12).coeffs == (-e12).coeffs


def test_conjugate_involution_and_antiautomorphism(alg5):
    rng = random.Random(3)
    for _ in range(50):
        x, y = rand_element(alg5, rng), rand_element(alg5, rng)
        assert conjugate(conjugate(x)).coeffs == x.coeffs
        assert conjugate(cl_multiply(x, y)).coeffs == \
            cl_multiply(conjugate(y), conjugate(x)).coeffs


def test_trace_normalization_and_vanishing(alg5):
    assert cl_trace(alg5.one()) == 1
    assert cl_trace(alg5.generator(0)) == 0
    for mask in range(1, alg5.dim):
        coeffs = [Fraction(0)] * alg5.dim
        coeffs[mask] = Fraction(1)
        assert cl_trace(CliffordElement(alg5, coeffs)) == 0


def test_trace_symmetry_and_regular_rep(alg5):
    rng = random.Random(4)
    for _ in range(100):
        x, y = rand_element(alg5, rng), rand_element(alg5, rng)
        assert cl_trace(cl_multiply(x, y)) == cl_trace(cl_multiply(y, x))
    for _ in range(10):
        x = rand_element(alg5, rng)
        assert regular_trace(x) == cl_trace(x)


def regular_trace(x):
    """Trace of left multiplication by x on the regular representation,
    over 2^m, read off the bit-count reference product."""
    alg = x.algebra
    return sum(reference_product(x, CliffordElement(
        alg, [int(s == t) for s in range(alg.dim)]))[t]
        for t in range(alg.dim)) / alg.dim


def test_complex_structure(alg5):
    mu = complex_structure(alg5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    assert cl_multiply(mu, mu).coeffs == alg5.one().scale(-1).coeffs
    mu2 = complex_structure(alg5, [2, 0, 0, 0, 0], [0, 2, 0, 0, 0])
    assert mu2.coeffs == mu.coeffs


def test_complex_structure_commutes_with_orthogonal_generators(alg5):
    mu = complex_structure(alg5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    for i in (2, 3, 4):
        g = alg5.generator(i)
        assert cl_multiply(mu, g).coeffs == cl_multiply(g, mu).coeffs


def test_complex_structure_rejects_bad_pairs(alg5):
    with pytest.raises(ValueError, match="orthogonal"):
        complex_structure(alg5, [1, 0, 0, 0, 0], [1, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="positive"):
        complex_structure(alg5, [1, 0, 0, 0, 0], [0, 0, 0, 1, 0])
    # norms 2 and 2: sqrt(2) is not rational
    alg = clifford(QuadraticForm.diagonal([2, 2]))
    with pytest.raises(ValueError, match="admissible"):
        complex_structure(alg, [1, 0], [0, 1])


def test_polarization_bilinear_and_two_routes():
    alg = clifford(QuadraticForm.diagonal([1, 1, -1]))
    a = complex_structure(alg, [1, 0, 0], [0, 1, 0])
    gram, res = polarization_form(alg, a)
    rng = random.Random(5)
    for _ in range(100):
        x, y = rand_element(alg, rng), rand_element(alg, rng)
        direct = cl_trace(cl_multiply(cl_multiply(x, a), conjugate(y)))
        via_gram = sum((xc * gram[i, j] * yc
                        for i, xc in enumerate(x.coeffs) if xc
                        for j, yc in enumerate(y.coeffs) if yc), Fraction(0))
        assert direct == via_gram


def test_polarization_forms_every_reported_product_once(monkeypatch):
    # d products a y, which give a conj(y) up to sign, and d products x a;
    # the Gram entries are trace pairings, which form no product
    from llvkit import clifford as clifford_module
    alg = clifford(QuadraticForm.diagonal([1, 1, -1]))
    a = complex_structure(alg, [1, 0, 0], [0, 1, 0])
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return cl_multiply(x, y)

    monkeypatch.setattr(clifford_module, "cl_multiply", counted)
    polarization_form(alg, a)
    d = alg.dim
    assert calls[0] == 2 * d


def test_polarization_sign_verdicts():
    # the (2, k) fixtures carry a definite probe form for exactly one sign
    for diag in ([1, 1], [1, 1, -1], [1, 1, -1, -1], [1, 1, -1, -1, -1]):
        alg = clifford(QuadraticForm.diagonal(diag))
        a = complex_structure(alg, [1] + [0] * (len(diag) - 1),
                              [0, 1] + [0] * (len(diag) - 2))
        gram, res = polarization_form(alg, a)
        assert res.ok and res.failures == []
        assert res.data["positive_sign"] in (1, -1)
        assert polarization_check(alg, a) == res


def test_polarization_indefinite_reported(alg5):
    # signature (3,2) is outside the polarization statement; the probe
    # reports indefiniteness without inventing a verdict, and the
    # statement's record skips without running it
    a = complex_structure(alg5, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    gram, res = polarization_form(alg5, a)
    assert res.data["positive_sign"] is None
    assert res.failures == [
        "neither sigma_a nor -sigma_a passes the positivity probe"]
    rec = polarization_check(alg5, a)
    assert rec.verdict == "skip"
    assert rec.data == {"reason": "the form has signature (3, 2); the "
                        "polarization statement needs (2, 3)"}


def test_clifford_rejects_degenerate_and_oversized():
    with pytest.raises(ValueError, match="nondegenerate"):
        clifford(QuadraticForm(Matrix.zeros(2, 2)))
    with pytest.raises(ValueError, match="bound"):
        clifford(QuadraticForm.diagonal([1] * 11))


def reference_product(x, y):
    """x*y term by term from the bit-count sign rule: e_S e_T picks up one
    sign per generator of T passing each generator of S above it, and
    d_i for each generator in both."""
    alg = x.algebra
    acc = [Fraction(0)] * alg.dim
    for s, cs in enumerate(x.coeffs):
        for t, ct in enumerate(y.coeffs):
            if not (cs and ct):
                continue
            coeff = Fraction(1)
            for i in range(alg.m):
                if t >> i & 1 and bin(s >> (i + 1)).count("1") % 2:
                    coeff = -coeff
                if s >> i & 1 and t >> i & 1:
                    coeff *= alg.diag[i]
            acc[s ^ t] += cs * ct * coeff
    return tuple(acc)


_nonzero_d = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(
    lambda d: d != 0)


@st.composite
def _clifford_pairs(draw):
    """Two elements of C(Q) for a random diagonal Q on m <= 6 generators;
    sparse, dense or zero, with rational coefficients."""
    diag = draw(st.lists(_nonzero_d, min_size=1, max_size=6))
    alg = clifford(QuadraticForm.diagonal(diag))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)

    def element():
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        if kind == "zero":
            return alg.zero()
        coeffs = [Fraction(0)] * alg.dim
        picks = (range(alg.dim) if kind == "dense" else
                 draw(st.lists(st.integers(0, alg.dim - 1), max_size=4)))
        for s in picks:
            coeffs[s] = draw(coeff)
        return CliffordElement(alg, coeffs)

    return element(), element()


@settings(max_examples=150, deadline=None)
@given(_clifford_pairs())
def test_multiply_matches_bitcount_reference(pair):
    x, y = pair
    product = cl_multiply(x, y)
    assert product.coeffs == reference_product(x, y)
    # the normal form: an int when integral, a Fraction only with a
    # denominator
    assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
               for c in product.coeffs)


@settings(max_examples=150, deadline=None)
@given(_clifford_pairs())
def test_trace_gram_is_the_trace_of_the_products(pair):
    x, y = pair
    gram = cl_trace_gram([x, y], [y, x])
    assert gram.rows == ((cl_trace(cl_multiply(x, y)),
                          cl_trace(cl_multiply(x, x))),
                         (cl_trace(cl_multiply(y, y)),
                          cl_trace(cl_multiply(y, x))))


def _tridiagonal(m):
    """A nondegenerate form on m generators with off-diagonal entries, so
    its diagonalizing basis has rational norms."""
    return QuadraticForm(Matrix([[(1 if i % 2 else -2) if i == j else
                                  int(abs(i - j) == 1) for j in range(m)]
                                 for i in range(m)]))


@pytest.mark.parametrize("form", [
    *(QuadraticForm.diagonal([1, 1] + [-1] * (m - 2)) for m in range(2, 7)),
    *(_tridiagonal(m) for m in range(2, 7))])
def test_trace_gram_reads_the_trace_of_seeded_products(form):
    # the product's e_0 coefficient against the table's diagonal alone,
    # on the 100 seeded pairs of the trace symmetry record's kind
    alg = clifford(form)
    rng = random.Random(0)
    for _ in range(100):
        x, y = rand_element(alg, rng), rand_element(alg, rng)
        assert cl_trace_gram([x], [y])[0, 0] == cl_trace(cl_multiply(x, y))
    assert trace_symmetry_check(alg).verdict == "pass"
