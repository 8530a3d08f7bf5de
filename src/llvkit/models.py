"""Model cohomology rings: K3 pairing ring, exterior torus rings, and the
Bogomolov quotient Sym*(H)/<a^(n+1) : q(a) = 0> with its induced bigrading.

The quotient is Gorenstein with socle functional q^n (the Fujiki
relation), so it is built from Macaulay's inverse system: its ideal in
each degree d is the kernel of one catalecticant pairing
Sym^d x Sym^(2n-d) -> Q, whose rank must be the dimension the quotient's
Poincare duality forces -- anything else is an error.  ``bogomolov_model``
proves that this ideal is the ideal of isotropic powers.
"""

from __future__ import annotations

import itertools
from math import comb, factorial, gcd, lcm, prod

from .linalg import (Matrix, SparseEchelon, congruence_diagonalize, inverse,
                     kernel, symmetric_signature)
from .rings import BigradedAlgebra, GradedAlgebra, QuadraticForm
from .scalars import (FIELD_GAUSSIAN, FIELD_RATIONAL, Gauss, as_fraction,
                      clear_denominators, clear_table, div, integer_values,
                      rat_sqrt)


class ModelConstructionError(RuntimeError):
    """A fixture generator could not realize its contract."""


# -- deterministic enumeration -------------------------------------------


def vector_stream(dim):
    """Deterministic stream of small nonzero integer vectors.

    Layered by support size and coefficient height so that consumers can
    filter (isotropy, non-isotropy) and always find enough witnesses.
    """
    for height in itertools.count(1):
        supports = itertools.chain.from_iterable(
            itertools.combinations(range(dim), s) for s in range(1, min(dim, 4) + 1))
        for support in supports:
            values = [v for v in range(-height, height + 1) if v]
            for coeffs in itertools.product(values, repeat=len(support)):
                if max(abs(c) for c in coeffs) != height:
                    continue
                if coeffs[0] < 0:
                    continue
                v = [0] * dim
                for i, c in zip(support, coeffs):
                    v[i] = c
                yield tuple(v)


def _primitive(vec):
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), None)
    if lead is not None and lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def _reject_definite(form: QuadraticForm):
    pos, neg, _ = symmetric_signature(form.gram)
    if form.dim in (pos, neg):
        raise ModelConstructionError(
            "no rational isotropic vectors: the form is definite")


def require_nondegenerate(form: QuadraticForm):
    """Refuse a degenerate form by its rank, before anything is enumerated
    from it: no class is Hard Lefschetz for it, and searches for classes
    it pairs nontrivially with need not end."""
    if not form.is_nondegenerate():
        raise ModelConstructionError(
            f"the degree-2 form is degenerate: rank {form.gram.rank()} "
            f"< {form.dim}")


def _binary_isotropic_lines(form: QuadraticForm):
    """The number of rational isotropic lines of a binary form, or None
    when the form is zero and every line is isotropic.

    ax^2 + 2bxy + cy^2 factors over Q exactly when its discriminant
    b^2 - ac = -det is a rational square; it then has two isotropic lines
    when det != 0 and one, its kernel, when det = 0.  Otherwise it is
    anisotropic and raises.
    """
    g = form.gram
    det = as_fraction(g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
    if rat_sqrt(-det) is None:
        raise ModelConstructionError(
            f"no rational isotropic vectors: the binary form has -det = "
            f"{-det}, not a rational square")
    if det:
        return 2
    return None if g.is_zero() else 1


def isotropic_stream(form: QuadraticForm):
    """Deterministic stream of distinct rational isotropic directions.

    Fixes the first isotropic vector e from the small-vector stream, then
    turns every enumerated v with q(v,e) != 0 into the isotropic
    combination 2q(v,e)v - q(v)e (an integer multiple of
    v - (q(v)/2q(v,e))e).

    A definite form has no isotropic vector, so it is rejected from its
    signature before anything is enumerated; so is an anisotropic binary
    form, by its determinant.  A binary form has at most two isotropic
    lines, and the stream ends once it has given them all.
    """
    _reject_definite(form)
    lines = _binary_isotropic_lines(form) if form.dim == 2 else None
    base = None
    for v in itertools.islice(vector_stream(form.dim), 200000):
        if form.evaluate(v) == 0:
            base = v
            break
    if base is None:
        raise ModelConstructionError("no rational isotropic vectors found")
    seen = {_primitive(base)}
    yield _primitive(base)
    misses = 0
    for v in vector_stream(form.dim):
        if len(seen) == lines:
            return
        cross = form.pair(v, base)
        if cross == 0:
            continue
        qv = form.evaluate(v)
        w = tuple(2 * cross * a - qv * b for a, b in zip(v, base))
        w = _primitive(w)
        if any(w) and w not in seen:
            seen.add(w)
            misses = 0
            yield w
        else:
            # spaces with finitely many isotropic directions run dry
            misses += 1
            if misses > 200000:
                return


def nonisotropic_stream(form: QuadraticForm):
    seen = set()
    for v in vector_stream(form.dim):
        if form.evaluate(v) != 0:
            w = _primitive(v)
            if w not in seen:
                seen.add(w)
                yield w


def spanning_hl_classes(form: QuadraticForm):
    """Basis vectors adjusted by +-e1 when isotropic: a fixed spanning set
    of non-isotropic degree-2 classes."""
    m = form.dim
    out = []
    for i in range(m):
        v = [0] * m
        v[i] = 1
        if form.evaluate(v) != 0:
            out.append(tuple(v))
            continue
        adjusted = None
        for j in range(m):
            if j == i:
                continue
            for s in (1, -1):
                w = list(v)
                w[j] += s
                if form.evaluate(w) != 0:
                    adjusted = tuple(w)
                    break
            if adjusted:
                break
        if adjusted is None:
            raise ModelConstructionError(
                f"could not adjust basis vector {i} to a non-isotropic class")
        out.append(adjusted)
    seen = set(out)
    out = [v for v in dict.fromkeys(out)]
    span = SparseEchelon()
    for v in out:
        span.add(v)
    if span.dim < m:
        # collapsing adjustments (all-isotropic bases): extend the set from
        # the deterministic non-isotropic stream until it spans
        for v in nonisotropic_stream(form):
            if span.dim == m:
                break
            if v not in seen and span.add(v):
                seen.add(v)
                out.append(v)
    if span.dim != m:
        raise ModelConstructionError("adjusted classes do not span degree 2")
    return out


# -- monomial bookkeeping --------------------------------------------------


def monomials(nvars, degree):
    """Exponent tuples of total degree ``degree``, deterministic order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def monomial_label(exps, var_labels):
    """The monomial with exponents ``exps`` written in the variable names,
    as "x1^2*x3"; "1" for the constant."""
    if not any(exps):
        return "1"
    parts = []
    for lbl, e in zip(var_labels, exps):
        if e == 1:
            parts.append(lbl)
        elif e > 1:
            parts.append(f"{lbl}^{e}")
    return "*".join(parts)


def _unpack(key, base, nvars):
    """The exponent tuple e of the packed key sum e_i * base^i."""
    exps = []
    for _ in range(nvars):
        key, e = divmod(key, base)
        exps.append(e)
    return tuple(exps)


def _monomial_keys(nvars, degree, base):
    """The packed keys sum e_i * base^i of ``monomials(nvars, degree)``, in
    its order."""
    powers = [base ** i for i in range(nvars)]
    return [sum(map(powers.__getitem__, combo)) for combo in
            itertools.combinations_with_replacement(range(nvars), degree)]


def _poly_product(a, b):
    """The product of two dict-polys (packed key -> coefficient).  The
    base of the keys must exceed every exponent of the product, so that
    adding two keys multiplies their monomials."""
    out = {}
    for ka, x in a.items():
        for kb, y in b.items():
            key = ka + kb
            out[key] = out.get(key, 0) + x * y
    return {k: c for k, c in out.items() if c}


def quadratic_power(form: QuadraticForm, n):
    """q^n for the form q(x) = sum G_ij x_i x_j, as a dict-poly on the
    packed keys of base 2n + 1 (``_monomial_keys``)."""
    base = 2 * n + 1
    q = {}
    for i, row in enumerate(form.gram.rows):
        for j, g in enumerate(row):
            if g:
                key = base ** i + base ** j
                q[key] = q.get(key, 0) + g
    out = {0: 1}
    for _ in range(n):
        out = _poly_product(out, q)
    return out


# -- fixtures ---------------------------------------------------------------


def k3_gram(b2=22):
    """Rational model of a signature-(3, b2-3) pairing: diag(1,1,1,-1,...)."""
    return Matrix([[(1 if i < 3 else -1) if i == j else 0
                    for j in range(b2)] for i in range(b2)], ncols=b2)


def k3_ring(gram: Matrix) -> GradedAlgebra:
    """Degree (1,22,1) pairing ring: e_i * e_j = gram_ij * top."""
    if gram.nrows != 22 or gram.ncols != 22:
        raise ModelConstructionError("k3_ring expects a 22x22 Gram matrix")
    form = QuadraticForm(gram)
    if not form.is_nondegenerate():
        raise ModelConstructionError("k3_ring needs a nondegenerate Gram matrix")
    dims = (1, 0, 22, 0, 1)
    labels = (("1",), (), tuple(f"e{i + 1}" for i in range(22)), (), ("top",))
    products = {}
    top_idx = 23
    for gi in range(24):
        products[(0, gi)] = [(gi, 1)]
        if gi:
            products[(gi, 0)] = [(gi, 1)]
    for a in range(22):
        for b in range(22):
            c = gram[a, b]
            if c:
                products[(1 + a, 1 + b)] = [(top_idx, c)]
    return GradedAlgebra(FIELD_RATIONAL, dims, labels, products, [1],
                         quadratic_form=form, name="k3").require_valid()


def _subset_sign(s, t):
    inv = 0
    for a in s:
        for b in t:
            if a > b:
                inv += 1
    return -1 if inv % 2 else 1


def torus_ring(g: int) -> GradedAlgebra:
    """Exterior algebra on 2g degree-1 generators (cohomology of a torus)."""
    if g < 1:
        raise ModelConstructionError("torus_ring needs g >= 1")
    return _exterior_ring([f"x{i + 1}" for i in range(2 * g)], bidegrees=None,
                          name=f"torus(g={g})")


def torus_bigraded() -> BigradedAlgebra:
    """The g = 2 torus with Hodge bigrading; sigma = z1*z2 of type (2,0)."""
    labels = ["z1", "z2", "w1", "w2"]
    types = [(1, 0), (1, 0), (0, 1), (0, 1)]
    return _exterior_ring(labels, bidegrees=types, name="torus(g=2) bigraded")


def _exterior_ring(var_labels, bidegrees, name):
    n = len(var_labels)
    subsets = []
    for k in range(n + 1):
        subsets.append(list(itertools.combinations(range(n), k)))
    index = {}
    labels = []
    dims = []
    flat = []
    for k, subs in enumerate(subsets):
        dims.append(len(subs))
        labels.append(tuple("".join(var_labels[i] for i in s) if s else "1"
                            for s in subs))
        for s in subs:
            index[s] = len(flat)
            flat.append(s)
    products = {}
    for gi, s in enumerate(flat):
        for gj, t in enumerate(flat):
            if set(s) & set(t):
                continue
            merged = tuple(sorted(s + t))
            products[(gi, gj)] = [(index[merged], _subset_sign(s, t))]
    qform = None
    if n == 4:
        # middle pairing on the 6-dim degree-2 piece: q(a,b) = integral(a*b)
        deg2 = subsets[2]
        grid = []
        for s in deg2:
            row = []
            for t in deg2:
                row.append(0 if set(s) & set(t) else _subset_sign(s, t))
            grid.append(row)
        qform = QuadraticForm(Matrix(grid, ncols=6))
    if bidegrees is None:
        ring = GradedAlgebra(FIELD_RATIONAL, dims, labels, products, [1],
                             quadratic_form=qform, name=name)
    else:
        bg = []
        for s in flat:
            p = sum(bidegrees[i][0] for i in s)
            q = sum(bidegrees[i][1] for i in s)
            bg.append((p, q))
        ring = BigradedAlgebra(FIELD_RATIONAL, dims, labels, products,
                               [1], bg, quadratic_form=qform, name=name)
    return ring.require_valid()


# -- the Bogomolov model ----------------------------------------------------


def admissible_positive_pair(form: QuadraticForm):
    """Two orthogonal integer vectors of equal positive norm, or raise.

    Diagonalizes the form and looks for two positive directions whose
    norm ratio is a rational square, then rescales to a common norm.
    """
    p, diag = congruence_diagonalize(form.gram)
    pos = [i for i, d in enumerate(diag) if d > 0]
    if len(pos) < 2:
        raise ModelConstructionError(
            "form needs at least two positive directions for a symplectic pair")
    for a, b in itertools.combinations(pos, 2):
        ratio = rat_sqrt(div(diag[a], diag[b]))
        if ratio is None:
            continue
        u1 = list(p.row(a))
        u2 = [ratio * x for x in p.row(b)]
        den = lcm(*(x.denominator for x in itertools.chain(u1, u2)))
        u1 = tuple(int(x * den) for x in u1)
        u2 = tuple(int(x * den) for x in u2)
        g1 = gcd(*u1, *u2) or 1
        u1 = tuple(x // g1 for x in u1)
        u2 = tuple(x // g1 for x in u2)
        return u1, u2
    raise ModelConstructionError(
        "no admissible positive pair: norm ratios are not rational squares")


def verbitsky_dims(b2: int, n: int):
    """Dimensions in degrees 0, 2, ..., 4n of Sym*(H) modulo the (n+1)-st
    powers of isotropic classes, H of dimension b2 >= 1, n >= 1: dim Sym^k
    up to k = n and dim Sym^(2n-k) above (Verbitsky, GAFA 1996)."""
    return [comb(b2 + k - 1, k) if k <= n else comb(b2 + 2 * n - k - 1, 2 * n - k)
            for k in range(2 * n + 1)]


def bogomolov_model(form: QuadraticForm, n: int) -> BigradedAlgebra:
    """Sym*(H) modulo (n+1)-st powers of rational isotropic vectors.

    Returns the induced bigraded ring (field Q(i), basis adapted to the
    symplectic pair sigma, sigma-bar) whose ``rational_model`` attribute
    holds the same quotient over Q in monomial coordinates.  Integration
    is normalized so that the n-th power of sigma*sigma-bar integrates
    to 1.

    The quotient is Sym*(H)/Ann(q^n), Macaulay's inverse system of q^n
    (see ``_monomial_quotient``): by the Fujiki relation
    int a^(2n) = c*q(a)^n the ring is Gorenstein with socle functional
    q^n, so its ideal in degree d is the kernel of the catalecticant
    pairing Sym^d x Sym^(2n-d) -> Q, (x, y) -> int x*y.  This is the ideal
    of isotropic powers:

    - For isotropic w, q(w + t*beta)^n = (2t q(w, beta) + t^2 q(beta))^n
      has no t^(n-1) term, so int w^(n+1) beta^(n-1) = 0 for every beta.
      The beta^(n-1) span Sym^(n-1), so w^(n+1) lies in Ann(q^n).
    - In degree n+1 the isotropic powers span the harmonic polynomials,
      the kernel of the Laplacian sum G_ij d_i d_j : Sym^(n+1) ->
      Sym^(n-1), of dimension C(m+n, n+1) - C(m+n-2, n-1).  (A definite
      form has no rational isotropic vector and is rejected; an
      indefinite one of rank >= 5 has one (Meyer), and a quadric with a
      smooth rational point is rational, so the rational isotropic
      vectors are Zariski-dense in the cone.)  The catalecticant's rank
      in degree n+1 is checked to be C(m+n-2, n-1), so Ann(q^n) has the
      same dimension there and equals the isotropic-power span.
    - Above degree n+1, Verbitsky's dimension theorem (Verbitsky, GAFA
      1996; Bogomolov, GAFA 1996) gives the isotropic ideal codimension
      dim Sym^(2n-d) in degree d, which the rank check gives Ann(q^n).

    The same construction, run on the Gram matrix of the coordinates
    (sigma, sigma-bar, t_i), which is rational, and with the basis chosen
    in the opposite order, builds the bigraded companion by Galois
    descent (see ``_bigraded_companion``).
    The rational model runs the full ``validate``; the companion, the same
    ring after a change of basis, is certified through it instead
    (``companion_certificate``).
    """
    m = form.dim
    if m < 5:
        raise ModelConstructionError("bogomolov_model needs dim >= 5")
    if n < 1:
        raise ModelConstructionError("bogomolov_model needs n >= 1")
    if not form.is_nondegenerate():
        raise ModelConstructionError("bogomolov_model needs a nondegenerate form")
    _reject_definite(form)

    basis, red, dims, labels, products = _monomial_quotient(
        form, n, [f"e{i + 1}" for i in range(m)])
    u1, u2 = admissible_positive_pair(form)
    big = _bigraded_companion(form, n, basis, red, u1, u2)
    # the companion's top basis element is (sigma*sigma-bar)^n, so its
    # coordinate in the rational model fixes the normalization
    lam = as_fraction(big.to_rational_mats[4 * n][0, 0])
    big.rational_model = GradedAlgebra(
        FIELD_RATIONAL, dims, labels, products, [div(1, lam)],
        quadratic_form=form, name=f"bogomolov(b2={m},n={n})").require_valid()
    return big.require_valid(big.companion_certificate())


def _monomial_quotient(form: QuadraticForm, n, var_labels, reverse=False):
    """Sym*(Q^m) modulo the ideal of ``bogomolov_model`` for the Gram
    matrix of ``form``, as a graded ring on a monomial basis.

    Returns (basis, red, dims, labels, products).  ``basis[d]`` lists the
    exponent tuples of the basis monomials in Sym degree d, in monomial
    order; ``red[d]`` maps the packed key of every degree-d monomial to
    its coordinates ((t, c), ...) on ``basis[d]``, sorted by t; Sym degree
    d is ring degree 2d in ``dims``, ``labels`` and ``products``.

    A monomial x^e is keyed by the int sum e_i * (2n + 1)^i
    (``_monomial_keys``).  No exponent of a monomial of degree <= 2n exceeds
    2n, so these digits never carry, and adding two keys multiplies the
    monomials: q^n, the catalecticant and the product table are read off
    sums of keys.

    For d > n the ideal is the kernel of the catalecticant
    Cat_d[delta, gamma] = int x^(gamma + delta), delta running over the
    monomials of degree 2n - d.  Expanding int a^(2n) = c*q(a)^n by the
    multinomial theorem gives int x^gamma = c * f_gamma * gamma! / (2n)!
    for the coefficients f_gamma of q^n; the common factor is dropped,
    and so is the common denominator of the f_gamma, which leaves ints.
    So column gamma of Cat_d is the image of x^gamma in the quotient.

    - The basis is the greedy set of independent columns, scanned from
      the last monomial back to the first, or with ``reverse`` from the
      first to the last: every monomial independent, modulo the ideal, of
      the monomials after it (before it with ``reverse``).
    - Its size, the rank of Cat_d, must be dim Sym^(2n-d), the dimension
      Poincare duality forces; anything else raises.
    - Degrees d <= n keep every monomial, as the ideal of isotropic
      powers starts in degree n+1.  (For d < n, Cat_d is the transpose of
      Cat_(2n-d), so Ann(q^n) is zero there too; Cat_n is the ring's
      Poincare pairing in degree n, which ``validate`` checks.)
    - A monomial's coordinates are inv(Cat_d[:, basis]) * Cat_d[:, gamma].
      The inverse is kept as the integer rows D * inv, so each coordinate
      is a sum of int products, divided by D once.
    """
    m = form.dim
    base = 2 * n + 1
    keys = [_monomial_keys(m, d, base) for d in range(2 * n + 1)]
    qn = quadratic_power(form, n)
    # int x^gamma up to the common factor c/(2n)! and the common
    # denominator of q^n
    _, ints = clear_denominators(qn.values(), False)
    weight = {k: c * prod(map(factorial, _unpack(k, base, m)))
              for k, c in zip(qn, ints)}

    basis = []
    red = []
    packed = []        # the keys of basis[d]
    for d in range(2 * n + 1):
        if d <= n:
            basis.append(monomials(m, d))
            packed.append(keys[d])
            red.append({k: ((t, 1),) for t, k in enumerate(keys[d])})
            continue
        duals = keys[2 * n - d]
        size = len(duals)
        cat = {}
        for gamma in keys[d]:
            col = {}
            for i, delta in enumerate(duals):
                w = weight.get(gamma + delta)
                if w:
                    col[i] = w
            cat[gamma] = col
        span = SparseEchelon()
        picked = set()
        for gamma in (keys[d] if reverse else reversed(keys[d])):
            if span.dim == size:
                break
            if span.add(cat[gamma]):
                picked.add(gamma)
        if len(picked) != size:
            raise ModelConstructionError(
                f"degree {d}: catalecticant rank {len(picked)} != "
                f"dim Sym^{2 * n - d} = {size}")
        reps = [k for k in keys[d] if k in picked]
        inv = inverse(Matrix.from_cols(
            [[cat[k].get(i, 0) for i in range(size)] for k in reps],
            nrows=size)).rows
        den, flat = clear_denominators(
            [x for row in inv for x in row], False)
        # column i of D * inv as its nonzero entries (t, D * inv[t][i])
        inv_cols = [[(t, x) for t, x in enumerate(flat[i::size]) if x]
                    for i in range(size)]
        table = {}
        for gamma, col in cat.items():
            acc = [0] * size
            for i, x in col.items():
                for t, y in inv_cols[i]:
                    acc[t] += x * y
            table[gamma] = tuple((t, div(c, den)) for t, c in enumerate(acc)
                                 if c)
        basis.append([_unpack(k, base, m) for k in reps])
        packed.append(reps)
        red.append(table)

    dims = [0] * (4 * n + 1)
    labels = [()] * (4 * n + 1)
    offsets = []
    run = 0
    for d, reps in enumerate(basis):
        dims[2 * d] = len(reps)
        labels[2 * d] = tuple(monomial_label(e, var_labels) for e in reps)
        offsets.append(run)
        run += len(reps)

    products = {}
    shifted = [{} for _ in basis]   # red[d] with ring indices, per key
    for da in range(2 * n + 1):
        for db in range(da, 2 * n + 1 - da):
            d = da + db
            lo, table, cache = offsets[d], red[d], shifted[d]
            for ta, ka in enumerate(packed[da]):
                gi = offsets[da] + ta
                start = ta if da == db else 0     # each pair once
                for gj, kb in enumerate(packed[db][start:],
                                        offsets[db] + start):
                    key = ka + kb
                    entries = cache.get(key)
                    if entries is None:
                        entries = cache[key] = tuple(
                            (lo + t, c) for t, c in table[key])
                    if entries:
                        products[(gi, gj)] = entries
                        products[(gj, gi)] = entries
    return basis, red, dims, labels, products


def _adapted_gram(form: QuadraticForm, u1, u2, t_basis):
    """The Gram matrix in the coordinates (sigma, sigma-bar, t_1, ...) with
    sigma = u1 + i*u2, sigma-bar = u1 - i*u2 and the t_i spanning the
    orthogonal complement of u1, u2.  It is rational.

    q(sigma) = q(u1) - q(u2) + 2i q(u1, u2), so sigma is isotropic exactly
    when q(u1) = q(u2) and q(u1, u2) = 0; then q(sigma, sigma-bar) =
    q(u1) + q(u2).  The t_i are orthogonal to u1 and u2, hence to sigma
    and sigma-bar, and their block is the rational Gram of the t_i.
    """
    vecs = [u1, u2, *t_basis]
    images = [form.gram.matvec(v) for v in vecs]
    support = [[i for i, x in enumerate(v) if x] for v in vecs]

    def pair(a, b):
        u, img = vecs[a], images[b]
        return sum(u[i] * img[i] for i in support[a])

    if pair(0, 0) != pair(1, 1) or pair(0, 1) != 0:
        raise ModelConstructionError("the positive pair does not give an "
                                     "isotropic sigma")
    m = len(vecs)
    gram = [[0] * m for _ in range(m)]
    gram[0][1] = gram[1][0] = 2 * pair(0, 0)
    for a in range(2, m):
        for b in range(a, m):
            gram[a][b] = gram[b][a] = pair(a, b)
    return Matrix(gram, ncols=m)


def _bigraded_companion(form, n, basis, red, u1, u2):
    """Bigraded basis adapted to sigma = u1 + i*u2, over Q(i); ``basis``
    and ``red`` are the basis and reduction table of the rational model
    (``_monomial_quotient``).

    Built by Galois descent: in the coordinates (sigma, sigma-bar, t_i)
    the Gram matrix is rational (``_adapted_gram``), and the change of
    variables carries the ideal of isotropic powers to the ideal of the
    same construction on that Gram matrix.  So the companion is the
    monomial quotient of ``_monomial_quotient`` on it, with rational
    structure constants.  Its basis is chosen with ``reverse``, so it is,
    in each degree, the greedy one: each u-monomial independent modulo
    the ideal of the monomials before it.
    In the top degree that is (sigma*sigma-bar)^n, which integrates to 1;
    any monomial before it has more sigma than sigma-bar factors, so the
    wrong bidegree.  Only the maps to and from the rational model
    (``to_rational_mats``, ``from_rational_mats``) need Q(i): a column of
    the first expands one basis u-monomial in the e_i, a column of the
    second one basis e-monomial in the u-variables, through the inverse
    change of variables (``_change_of_basis``).  ``bogomolov_model``
    certifies the returned ring.
    """
    m = form.dim
    t_space = kernel(Matrix([form.gram.matvec(u1), form.gram.matvec(u2)], ncols=m))
    if t_space.dim != m - 2:
        raise ModelConstructionError("orthogonal complement of the symplectic "
                                     "pair has the wrong dimension")
    u_form = QuadraticForm(_adapted_gram(form, u1, u2, t_space.basis))
    u_labels = ["s", "sb"] + [f"t{i + 1}" for i in range(m - 2)]
    u_basis, u_red, dims, labels, products = _monomial_quotient(
        u_form, n, u_labels, reverse=True)
    if u_basis[2 * n] != [tuple([n, n] + [0] * (m - 2))]:
        raise ModelConstructionError("degenerate symplectic top power: "
                                     "(sigma*sigma-bar)^n vanishes in the quotient")

    u_bidegree = [(2, 0), (0, 2)] + [(1, 1)] * (m - 2)
    bidegrees = [(sum(b[0] * k for b, k in zip(u_bidegree, e)),
                  sum(b[1] * k for b, k in zip(u_bidegree, e)))
                 for reps in u_basis for e in reps]

    # row j: the j-th u-variable (sigma, sigma-bar, the t_i) in the e_i
    uvars = Matrix([[Gauss(a, b) for a, b in zip(u1, u2)],
                    [Gauss(a, -b) for a, b in zip(u1, u2)],
                    *t_space.basis])
    big = BigradedAlgebra(FIELD_GAUSSIAN, dims, labels, products, [1],
                          bidegrees, quadratic_form=u_form,
                          name=f"bogomolov(b2={m},n={n}) bigraded")
    big.to_rational_mats = _change_of_basis(uvars.rows, u_basis, red, n)
    big.from_rational_mats = _change_of_basis(inverse(uvars).rows, basis,
                                              u_red, n)
    big.positive_pair = (u1, u2)
    big.gamma_rational = tuple(2 * x for x in u1)
    big.gamma_prime_rational = tuple(2 * x for x in u2)
    return big


def _change_of_basis(lin, basis, red, n):
    """Per ring degree 2d, the Matrix whose column j holds the coordinates
    of the source's basis monomial ``basis[d][j]`` in a target monomial
    quotient with reduction table ``red``, when source variable v is the
    linear form ``lin[v]`` in the target variables.

    It runs on ints, or on GaussInt over Q(i): with D the common
    denominator of ``lin`` and E that of ``red[d]``, the expansion of D^d
    times a degree-d monomial and its reduction by E * red[d] have
    integral coefficients, and each coordinate is divided by D^d E once.
    A monomial's expansion is its prefix's times one linear form, and
    each prefix is expanded once.
    """
    base = 2 * n + 1
    m = len(lin)
    den, flat = integer_values(x for row in lin for x in row)
    polys = [{base ** i: x for i, x in enumerate(flat[v * m:(v + 1) * m]) if x}
             for v in range(m)]
    expansions = {(0,) * m: {0: 1}}

    def expand(exps):
        poly = expansions.get(exps)
        if poly is None:
            v = max(i for i, e in enumerate(exps) if e)
            prefix = list(exps)
            prefix[v] -= 1
            poly = expansions[exps] = _poly_product(expand(tuple(prefix)),
                                                    polys[v])
        return poly

    mats = [None] * (4 * n + 1)
    for d, reps in enumerate(basis):
        red_den, table = clear_table(red[d])
        scale = den ** d * red_den
        cols = []
        for exps in reps:
            acc = [0] * len(reps)
            for mono, c in expand(exps).items():
                for t, y in table[mono]:
                    acc[t] += c * y
            cols.append([0 if not z else div(z, scale) if type(z) is int
                         else Gauss(div(z.real, scale), div(z.imag, scale))
                         for z in acc])
        mats[2 * d] = Matrix.from_cols(cols, nrows=len(reps))
    return mats
