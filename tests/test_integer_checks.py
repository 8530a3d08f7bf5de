"""The integer structure-constant checks of ``GradedAlgebra.validate`` and
the coefficient certificate ``bbf.fujiki_certificate`` against the exact
checks they replaced (``ring_oracles``): the same verdicts on the model
rings, and both reject a ring with one structure constant changed."""

import pytest

from llvkit.bbf import FujikiError, fujiki_certificate
from llvkit.rings import GradedAlgebra

from ring_oracles import associativity_failures, fujiki_by_points

RINGS = ["k3", "k3big", "model52", "model62", "model53", "torus2"]


def _plain(request, name):
    ring = request.getfixturevalue(name)
    return getattr(ring, "rational_model", None) or ring


def _associativity_issues(ring):
    return [i.detail for i in ring.validate().issues
            if i.check == "associativity"]


def _oracle_issues(ring):
    """The oracle's failures with i <= k, in the validation's wording; the
    full set must be closed under the mirror (i, j, k) -> (k, j, i), which
    the validation visits once."""
    failures = associativity_failures(ring)
    assert {(c, b, a) for a, b, c in failures} == set(failures)
    return [f"({ring.label_of(a)}, {ring.label_of(b)}, {ring.label_of(c)})"
            for a, b, c in failures if a <= c]


@pytest.mark.parametrize("name", RINGS)
def test_integer_checks_agree_with_the_oracles(request, name):
    ring = _plain(request, name)
    assert ring.validate().ok and not associativity_failures(ring)
    form = ring.quadratic_form
    assert fujiki_certificate(ring, form).constant == fujiki_by_points(ring,
                                                                       form)


def _mutant(ring, degree):
    """ring with the first constant of one product x * y in ``degree``, x
    of degree 2, raised by 1 in both orders of the pair."""
    pair = next((gi, gj) for gi, gj in sorted(ring.products)
                if gi < gj and ring.degree_of(gi) == 2
                and ring.degree_of(gj) == degree - 2)
    products = dict(ring.products)
    (gk, c), *rest = products[pair]
    products[pair] = products[pair[::-1]] = ((gk, c + 1), *rest)
    return GradedAlgebra(ring.field, ring.dims, ring.labels, products,
                         ring.integration, quadratic_form=ring.quadratic_form)


@pytest.mark.parametrize("name", ["model52", "model62", "model53"])
@pytest.mark.parametrize("degree", ["top", 6])
def test_integer_checks_and_oracles_reject_one_changed_constant(
        request, name, degree):
    ring = _plain(request, name)
    mutant = _mutant(ring, ring.top if degree == "top" else degree)
    issues = _associativity_issues(mutant)
    assert issues and issues == _oracle_issues(mutant)
    assert fujiki_by_points(mutant, mutant.quadratic_form) is None
    with pytest.raises(FujikiError, match="fails on monomial"):
        fujiki_certificate(mutant, mutant.quadratic_form)
