"""The bigraded companion of ``bogomolov_model`` by change of basis over
Q(i): an oracle for the Galois-descent build in ``llvkit.models``.

This is the original construction.  It picks, in each degree, the first
u-monomials in sigma, sigma-bar and the t_i that are independent in the
rational model, and transports the rational model's products and
integration to that basis through the Q(i) change-of-basis matrices.
The Gram matrix is taken in Gaussian arithmetic, and its entries must be
real.  The e-expansion of a u-monomial is a product in the rational
model, so nothing here shares code with ``models._monomial_quotient``.
"""

from fractions import Fraction

from llvkit.linalg import Matrix, SparseEchelon, inverse, kernel
from llvkit.models import monomial_label, monomials
from llvkit.scalars import Gauss


def companion_oracle(rational, form, n, u1, u2):
    """dict with the companion's products, integration, labels, bidegrees,
    gram, to_rat and from_rat."""
    m = form.dim
    t_space = kernel(Matrix([form.gram.matvec(u1), form.gram.matvec(u2)],
                            ncols=m))
    assert t_space.dim == m - 2
    uvars = [tuple(Gauss(a, b) for a, b in zip(u1, u2)),
             tuple(Gauss(a, -b) for a, b in zip(u1, u2))]
    uvars += [tuple(Gauss(x) for x in row) for row in t_space.basis]
    u_bidegree = [(2, 0), (0, 2)] + [(1, 1)] * (m - 2)

    def gembed(k, coords):
        v = [Gauss(0)] * rational.total_dim
        lo, _ = rational.slice_of(k)
        for t, c in enumerate(coords):
            v[lo + t] = c if isinstance(c, Gauss) else Gauss(c)
        return tuple(v)

    deg2 = [gembed(2, u) for u in uvars]
    chosen = []
    to_rat = [None] * (4 * n + 1)
    from_rat = [None] * (4 * n + 1)
    for d in range(2 * n + 1):
        dim_q = rational.dims[2 * d]
        span = SparseEchelon(exact_division=True)
        picked = []
        cols = []
        for exps in monomials(m, d):
            if span.dim >= dim_q:
                break
            x = gembed(0, [Gauss(1)])
            for var, e in enumerate(exps):
                for _ in range(e):
                    x = rational.multiply(x, deg2[var])
            coords = [c if isinstance(c, Gauss) else Gauss(c)
                      for c in rational.component(x, 2 * d)]
            if span.add(coords):
                picked.append(exps)
                cols.append(coords)
        assert span.dim == dim_q
        chosen.append(picked)
        to_rat[2 * d] = Matrix.from_cols(cols, nrows=dim_q)
        from_rat[2 * d] = inverse(to_rat[2 * d])

    u_labels = ["s", "sb"] + [f"t{i + 1}" for i in range(m - 2)]
    dims = rational.dims
    labels = [()] * (4 * n + 1)
    bidegrees = []
    for d in range(2 * n + 1):
        labels[2 * d] = tuple(monomial_label(e, u_labels) for e in chosen[d])
        for e in chosen[d]:
            bidegrees.append((sum(b[0] * k for b, k in zip(u_bidegree, e)),
                              sum(b[1] * k for b, k in zip(u_bidegree, e))))

    products = {}
    for da in range(2 * n + 1):
        for db in range(da, 2 * n + 1 - da):
            for ta in range(dims[2 * da]):
                xa = gembed(2 * da, to_rat[2 * da].col(ta))
                for tb in range(dims[2 * db]):
                    xb = gembed(2 * db, to_rat[2 * db].col(tb))
                    comp = rational.component(rational.multiply(xa, xb),
                                              2 * (da + db))
                    if not any(comp):
                        continue
                    big = from_rat[2 * (da + db)].matvec(comp)
                    lo = rational.offsets[2 * (da + db)]
                    entries = {lo + t: c for t, c in enumerate(big) if c}
                    gi = rational.offsets[2 * da] + ta
                    gj = rational.offsets[2 * db] + tb
                    products[(gi, gj)] = products[(gj, gi)] = entries

    integration = tuple(
        rational.integrate(gembed(4 * n, to_rat[4 * n].col(t)))
        for t in range(dims[4 * n]))

    images = [form.gram.matvec(v) for v in uvars]
    gram = []
    for a in range(m):
        row = []
        for b in range(m):
            acc = Gauss(0)
            for x, y in zip(uvars[a], images[b]):
                acc = acc + x * y
            assert acc.imag == 0, "the adapted Gram matrix has a non-real entry"
            row.append(Fraction(acc.real))
        gram.append(row)
    return {"products": products, "integration": integration,
            "labels": tuple(labels), "bidegrees": tuple(bidegrees),
            "gram": Matrix(gram, ncols=m), "to_rat": to_rat,
            "from_rat": from_rat}
