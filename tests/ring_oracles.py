"""Oracles for the integer and coefficient checks of ``llvkit.rings`` and
``llvkit.bbf``: the exact checks they replaced, on the rings' own
constants.

``associativity_failures`` is the triple loop of ``GradedAlgebra.validate``
on the structure constants as they are, Fractions and Gauss values
included, with no common denominator.  ``fujiki_by_points`` evaluates
both sides of form(a)^n = c * integral(a^(2n)) on the C(m + 2n - 1, 2n)
points with nonnegative integer coordinates summing to 2n.  They are
unisolvent for forms of degree 2n in m variables, so the relation holds
for every class exactly when it holds on them.
"""

from fractions import Fraction

from llvkit.models import monomials


def structure_equal(a, b):
    """Whether two rings have the same type, field, dims, labels, products,
    integration and bidegrees."""
    return (type(a) is type(b) and a.field == b.field and a.dims == b.dims
            and a.labels == b.labels
            and {p: dict(e) for p, e in a.products.items()}
            == {p: dict(e) for p, e in b.products.items()}
            and a.integration == b.integration
            and getattr(a, "bidegrees", None) == getattr(b, "bidegrees", None))


def associativity_failures(ring):
    """The triples (i, j, k) of positive degree below the top with
    (e_i e_j) e_k != e_i (e_j e_k)."""
    get = ring.products.get
    deg, top = ring.degree_of, ring.top
    positive = [g for g in range(ring.total_dim) if deg(g) > 0]
    failures = []
    for gi in positive:
        for gj in positive:             # the basis runs by degree
            if deg(gi) + deg(gj) > top:
                break
            for gk in positive:
                if deg(gi) + deg(gj) + deg(gk) > top:
                    break
                left, right = {}, {}
                for gl, c in get((gi, gj), ()):
                    for gm, c2 in get((gl, gk), ()):
                        left[gm] = left.get(gm, 0) + c * c2
                for gl, c in get((gj, gk), ()):
                    for gm, c2 in get((gi, gl), ()):
                        right[gm] = right.get(gm, 0) + c * c2
                if ({g: x for g, x in left.items() if x}
                        != {g: x for g, x in right.items() if x}):
                    failures.append((gi, gj, gk))
    return failures


def fujiki_by_points(ring, form):
    """The constant c with form(a)^n = c * integral(a^(2n)) on every
    point, fitted on the first point with a nonzero top power; None when
    no constant fits."""
    n, m = ring.top // 4, ring.dims[2]
    constant, values = None, []
    for point in monomials(m, 2 * n):
        coords = tuple(map(Fraction, point))
        top = ring.integrate(ring.power(ring.embed(2, coords), 2 * n))
        values.append((form.evaluate(coords) ** n, top))
        if constant is None and top:
            constant = values[-1][0] / top
    if constant is None or any(q != constant * t for q, t in values):
        return None
    return constant
