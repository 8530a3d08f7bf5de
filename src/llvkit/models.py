"""Model cohomology rings: K3 pairing ring, exterior torus rings, and the
Bogomolov quotient Sym*(H)/<a^(n+1) : q(a) = 0> with its induced bigrading.

The quotient is realized degree by degree: the ideal piece in degree n+1
is the kernel of the Laplacian of the form, higher pieces are variable
multiples, and each piece must have the dimension forced by the graded
structure of the degree-2-generated subalgebra -- anything else is an
error.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd

from .linalg import (Matrix, SparseEchelon, congruence_diagonalize, inverse,
                     kernel, symmetric_signature)
from .rings import (BigradedAlgebra, GradedAlgebra, QuadraticForm,
                    RingValidationError)
from .scalars import (FIELD_GAUSSIAN, FIELD_RATIONAL, Gauss, as_fraction,
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
    den = 1
    for x in vec:
        d = Fraction(x).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(x) * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
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


def _multinomial(exps):
    total = sum(exps)
    out = 1
    for e in exps:
        out *= comb(total, e)
        total -= e
    return out


def _power_coeffs(vec, k, monos, index):
    """Coefficient row of (sum vec_i x_i)^k over the degree-k monomials."""
    row = [0] * len(monos)
    for pos, exps in enumerate(monos):
        c = _multinomial(exps)
        for base, e in zip(vec, exps):
            if e:
                c *= base ** e
            if c == 0:
                break
        row[pos] = c
    return row


def _isotropic_power_span(form: QuadraticForm, k):
    """Span of the k-th powers of rational isotropic vectors in Sym^k, in
    the coordinates of ``monomials(form.dim, k)``, for a nondegenerate
    indefinite form of rank >= 5: the kernel of the Laplacian of its Gram
    matrix (see ``bogomolov_model``)."""
    upper = monomials(form.dim, k)
    lower = {e: i for i, e in enumerate(monomials(form.dim, k - 2))}
    return kernel(_laplacian(form.gram, upper, lower))


def _laplacian(gram: Matrix, upper, lower_index) -> Matrix:
    """Delta_G = sum_ij G_ij d_i d_j from the monomials ``upper`` of one
    degree to those of two degrees lower, in monomial coordinates."""
    m = gram.nrows
    entries = [(i, j, gram[i, j]) for i in range(m) for j in range(i, m)
               if gram[i, j]]
    rows = [[Fraction(0)] * len(upper) for _ in lower_index]
    for col, exps in enumerate(upper):
        for i, j, g in entries:
            # d_i d_j, counted twice off the diagonal as G is symmetric
            c = (exps[i] * (exps[i] - 1) if i == j
                 else 2 * exps[i] * exps[j])
            if c:
                e = list(exps)
                e[i] -= 1
                e[j] -= 1
                rows[lower_index[tuple(e)]][col] += c * g
    return Matrix(rows, ncols=len(upper))


def _mono_label(exps, var_labels):
    if not any(exps):
        return "1"
    parts = []
    for lbl, e in zip(var_labels, exps):
        if e == 1:
            parts.append(lbl)
        elif e > 1:
            parts.append(f"{lbl}^{e}")
    return "*".join(parts)


def _poly_mul(poly, linear):
    """Multiply a dict-poly by a linear form given as a coefficient list."""
    out = {}
    for exps, c in poly.items():
        for var, coef in enumerate(linear):
            if not coef:
                continue
            e = list(exps)
            e[var] += 1
            key = tuple(e)
            val = out.get(key, 0) + c * coef
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


# -- fixtures ---------------------------------------------------------------


def k3_gram(b2=22):
    """Rational model of a signature-(3, b2-3) pairing: diag(1,1,1,-1,...)."""
    return Matrix([[Fraction(1 if i < 3 else -1) if i == j else Fraction(0)
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
        products[(0, gi)] = [(gi, Fraction(1))]
        if gi:
            products[(gi, 0)] = [(gi, Fraction(1))]
    for a in range(22):
        for b in range(22):
            c = gram[a, b]
            if c:
                products[(1 + a, 1 + b)] = [(top_idx, c)]
    ring = GradedAlgebra(FIELD_RATIONAL, dims, labels, products, [Fraction(1)],
                         quadratic_form=form, name="k3")
    report = ring.validate()
    if not report.ok:
        raise RingValidationError(report)
    return ring


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
            products[(gi, gj)] = [(index[merged], Fraction(_subset_sign(s, t)))]
    qform = None
    if n == 4:
        # middle pairing on the 6-dim degree-2 piece: q(a,b) = integral(a*b)
        deg2 = subsets[2]
        grid = []
        for s in deg2:
            row = []
            for t in deg2:
                if set(s) & set(t):
                    row.append(Fraction(0))
                else:
                    row.append(Fraction(_subset_sign(s, t)))
            grid.append(row)
        qform = QuadraticForm(Matrix(grid, ncols=6))
    if bidegrees is None:
        ring = GradedAlgebra(FIELD_RATIONAL, dims, labels, products, [Fraction(1)],
                             quadratic_form=qform, name=name)
    else:
        bg = []
        for s in flat:
            p = sum(bidegrees[i][0] for i in s)
            q = sum(bidegrees[i][1] for i in s)
            bg.append((p, q))
        ring = BigradedAlgebra(FIELD_RATIONAL, dims, labels, products,
                               [Fraction(1)], bg, quadratic_form=qform, name=name)
    report = ring.validate()
    if not report.ok:
        raise RingValidationError(report)
    return ring


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
        ratio = rat_sqrt(Fraction(diag[a]) / Fraction(diag[b]))
        if ratio is None:
            continue
        u1 = list(p.row(a))
        u2 = [ratio * x for x in p.row(b)]
        den = 1
        for x in itertools.chain(u1, u2):
            den = den * x.denominator // gcd(den, x.denominator)
        u1 = tuple(int(x * den) for x in u1)
        u2 = tuple(int(x * den) for x in u2)
        g1 = _primitive_gcd(u1, u2)
        u1 = tuple(x // g1 for x in u1)
        u2 = tuple(x // g1 for x in u2)
        return u1, u2
    raise ModelConstructionError(
        "no admissible positive pair: norm ratios are not rational squares")


def _primitive_gcd(u1, u2):
    g = 0
    for x in itertools.chain(u1, u2):
        g = gcd(g, abs(x))
    return g or 1


def bogomolov_model(form: QuadraticForm, n: int) -> BigradedAlgebra:
    """Sym*(H) modulo (n+1)-st powers of rational isotropic vectors.

    Returns the induced bigraded ring (field Q(i), basis adapted to the
    symplectic pair sigma, sigma-bar) whose ``rational_model`` attribute
    holds the same quotient over Q in monomial coordinates.  Integration
    is normalized so that the n-th power of sigma*sigma-bar integrates
    to 1.

    The ideal piece in degree n+1 is the kernel of the Laplacian
    Delta_G = sum_ij G_ij d_i d_j : Sym^(n+1) -> Sym^(n-1) of the Gram
    matrix G, for the following reasons.

    - Delta_G(w^k) = k(k-1) q(w) w^(k-2), so every isotropic power w^(n+1)
      lies in the kernel.
    - For nondegenerate G the map is onto, so the kernel has dimension
      C(m+n, n+1) - C(m+n-2, n-1), the ideal dimension the quotient's
      Poincare duality forces; this is checked.
    - The kernel (the harmonic polynomials) is spanned by powers of
      isotropic linear forms.  A definite form has no rational isotropic
      vector and is rejected.  An indefinite form of rank >= 5 has one
      (Meyer), a quadric with a smooth rational point is rational, so the
      rational isotropic vectors are Zariski-dense in the cone and their
      powers span the whole kernel over Q.

    Higher ideal pieces are variable multiples of the piece one degree
    down.
    """
    m = form.dim
    if m < 5:
        raise ModelConstructionError("bogomolov_model needs dim >= 5")
    if n < 1:
        raise ModelConstructionError("bogomolov_model needs n >= 1")
    if not form.is_nondegenerate():
        raise ModelConstructionError("bogomolov_model needs a nondegenerate form")
    _reject_definite(form)

    monos = [monomials(m, d) for d in range(2 * n + 1)]
    mono_index = [{e: i for i, e in enumerate(ms)} for ms in monos]
    sym_dims = [len(ms) for ms in monos]
    quotient_dims = [sym_dims[d] if d <= n else sym_dims[2 * n - d]
                     for d in range(2 * n + 1)]

    # ideal pieces as canonical subspaces; degree n+1 is the kernel of the
    # Laplacian, higher degrees are variable multiples of the piece one
    # degree down
    target = sym_dims[n + 1] - quotient_dims[n + 1]
    ideal = {n + 1: _isotropic_power_span(form, n + 1)}
    if ideal[n + 1].dim != target:
        raise ModelConstructionError(
            f"ideal in degree {n + 1}: dim {ideal[n + 1].dim} != {target}")
    # sparse integer rows of the piece one degree down
    prev_rows = ([{pos: c for pos, c in enumerate(_primitive(r)) if c}
                  for r in ideal[n + 1].basis] if n > 1 else [])
    for d in range(n + 2, 2 * n + 1):
        tgt = sym_dims[d] - quotient_dims[d]
        sp = SparseEchelon()
        prev_monos = monos[d - 1]
        for var in range(m):
            if sp.dim >= tgt:
                break
            for row in prev_rows:
                if sp.dim >= tgt:
                    break
                shifted = {}
                for pos, c in row.items():
                    e = list(prev_monos[pos])
                    e[var] += 1
                    shifted[mono_index[d][tuple(e)]] = c
                sp.add(shifted)
        if sp.dim != tgt:
            raise ModelConstructionError(
                f"ideal saturation failed in degree {d}: dim {sp.dim} != {tgt}")
        ideal[d] = sp.to_subspace(sym_dims[d])
        prev_rows = [sp.rows[p] for p in sorted(sp.rows)]

    # quotient coordinates: representatives are the non-pivot monomials of
    # the fully reduced ideal basis, so reduction is a row lookup
    reps = []
    red = []
    for d in range(2 * n + 1):
        if d <= n:
            reps.append(list(range(sym_dims[d])))
            red.append([((i, Fraction(1)),) for i in range(sym_dims[d])])
            continue
        sub = ideal[d]
        pivset = set(sub.pivots)
        rep_cols = [i for i in range(sym_dims[d]) if i not in pivset]
        if len(rep_cols) != quotient_dims[d]:
            raise ModelConstructionError(
                f"degree {d}: representative count {len(rep_cols)} != predicted "
                f"{quotient_dims[d]}")
        rep_pos = {c: t for t, c in enumerate(rep_cols)}
        table = [None] * sym_dims[d]
        for c in rep_cols:
            table[c] = ((rep_pos[c], Fraction(1)),)
        for row, piv in zip(sub.basis, sub.pivots):
            entry = tuple((rep_pos[c], -x) for c, x in enumerate(row)
                          if x and c != piv)
            table[piv] = entry
        reps.append(rep_cols)
        red.append(table)

    var_labels = [f"e{i + 1}" for i in range(m)]
    dims = [0] * (4 * n + 1)
    labels = [()] * (4 * n + 1)
    for d in range(2 * n + 1):
        dims[2 * d] = quotient_dims[d]
        labels[2 * d] = tuple(_mono_label(monos[d][c], var_labels) for c in reps[d])
    offsets = []
    run = 0
    for d in dims:
        offsets.append(run)
        run += d

    def glob(d, t):
        return offsets[2 * d] + t

    products = {}
    for da in range(2 * n + 1):
        if not quotient_dims[da]:
            continue
        for db in range(da, 2 * n + 1):
            if da + db > 2 * n:
                continue
            for ta, ca in enumerate(reps[da]):
                ea = monos[da][ca]
                for tb, cb in enumerate(reps[db]):
                    eb = monos[db][cb]
                    prod = tuple(x + y for x, y in zip(ea, eb))
                    entries = tuple(
                        (glob(da + db, t), c)
                        for t, c in red[da + db][mono_index[da + db][prod]])
                    if entries:
                        products[(glob(da, ta), glob(db, tb))] = entries
                        if (da, ta) != (db, tb):
                            products[(glob(db, tb), glob(da, ta))] = entries

    u1, u2 = admissible_positive_pair(form)
    ss_bar = {}
    for vec in (u1, u2):
        sq = _power_coeffs(vec, 2, monos[2], mono_index[2])
        for pos, c in enumerate(sq):
            if c:
                key = monos[2][pos]
                ss_bar[key] = ss_bar.get(key, 0) + Fraction(c)
    top_poly = dict(ss_bar)
    for _ in range(n - 1):
        nxt = {}
        for e1, c1 in top_poly.items():
            for e2, c2 in ss_bar.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                val = nxt.get(key, 0) + c1 * c2
                if val:
                    nxt[key] = val
                elif key in nxt:
                    del nxt[key]
        top_poly = nxt
    lam = Fraction(0)
    for exps, c in top_poly.items():
        for t, cc in red[2 * n][mono_index[2 * n][exps]]:
            lam += c * cc
    if lam == 0:
        raise ModelConstructionError("degenerate symplectic top power: "
                                     "(sigma*sigma-bar)^n vanishes in the quotient")

    rational = GradedAlgebra(FIELD_RATIONAL, dims, labels, products,
                             [Fraction(1) / lam], quadratic_form=form,
                             name=f"bogomolov(b2={m},n={n})")
    report = rational.validate()
    if not report.ok:
        raise RingValidationError(report)

    big = _bigraded_companion(rational, form, n, monos, mono_index, reps, red,
                              u1, u2)
    return big


def _bigraded_companion(rational, form, n, monos, mono_index, reps, red, u1, u2):
    """Bigraded basis adapted to sigma = u1 + i*u2, over Q(i)."""
    m = form.dim
    t_space = kernel(Matrix([form.gram.matvec(u1), form.gram.matvec(u2)], ncols=m))
    if t_space.dim != m - 2:
        raise ModelConstructionError("orthogonal complement of the symplectic "
                                     "pair has the wrong dimension")
    uvars = [tuple(Gauss(a, b) for a, b in zip(u1, u2)),
             tuple(Gauss(a, -b) for a, b in zip(u1, u2))]
    uvars += [tuple(Gauss(x) for x in row) for row in t_space.basis]
    u_bidegree = [(2, 0), (0, 2)] + [(1, 1)] * (m - 2)

    chosen_monos = []       # per Sym degree: exponent tuples over u-variables
    to_rat = [None] * (4 * n + 1)
    from_rat = [None] * (4 * n + 1)
    for d in range(2 * n + 1):
        dim_q = rational.dims[2 * d]
        span = SparseEchelon(exact_division=True)
        picked = []
        cols = []
        for exps in monos[d]:
            if span.dim >= dim_q:
                break
            # expand the u-monomial into e-coordinates of the quotient
            poly = {tuple([0] * m): Gauss(1)}
            for var, e in enumerate(exps):
                for _ in range(e):
                    poly = _poly_mul(poly, uvars[var])
            coords = [Gauss(0)] * dim_q
            for mono, c in poly.items():
                for t, cc in red[d][mono_index[d][mono]]:
                    coords[t] = coords[t] + c * cc
            if span.add(coords):
                picked.append(exps)
                cols.append(coords)
        if span.dim != dim_q:
            raise ModelConstructionError(
                f"degree {2 * d}: adapted monomials span {span.dim} of {dim_q}")
        chosen_monos.append(picked)
        mat = Matrix.from_cols(cols, nrows=dim_q) if cols else Matrix([], ncols=0)
        to_rat[2 * d] = mat
        from_rat[2 * d] = inverse(mat) if dim_q else mat

    u_labels = ["s", "sb"] + [f"t{i + 1}" for i in range(m - 2)]
    dims = rational.dims
    labels = [()] * (4 * n + 1)
    bidegrees = []
    for d in range(2 * n + 1):
        labels[2 * d] = tuple(_mono_label(e, u_labels) for e in chosen_monos[d])
        for e in chosen_monos[d]:
            p = sum(b[0] * k for b, k in zip(u_bidegree, e))
            q = sum(b[1] * k for b, k in zip(u_bidegree, e))
            bidegrees.append((p, q))

    offsets = []
    run = 0
    for d in dims:
        offsets.append(run)
        run += d

    def gembed(k, coords):
        v = [Gauss(0)] * rational.total_dim
        lo, _ = rational.slice_of(k)
        for t, c in enumerate(coords):
            v[lo + t] = c if isinstance(c, Gauss) else Gauss(c)
        return tuple(v)

    products = {}
    for da in range(2 * n + 1):
        for db in range(da, 2 * n + 1):
            if da + db > 2 * n or not dims[2 * da] or not dims[2 * db]:
                continue
            for ta in range(dims[2 * da]):
                xa = gembed(2 * da, to_rat[2 * da].col(ta))
                for tb in range(dims[2 * db]):
                    xb = gembed(2 * db, to_rat[2 * db].col(tb))
                    prod = rational.multiply(xa, xb)
                    comp = rational.component(prod, 2 * (da + db))
                    if not any(comp):
                        continue
                    big_coords = from_rat[2 * (da + db)].matvec(comp)
                    entries = tuple(
                        (offsets[2 * (da + db)] + t, c)
                        for t, c in enumerate(big_coords) if c)
                    gi = offsets[2 * da] + ta
                    gj = offsets[2 * db] + tb
                    products[(gi, gj)] = entries
                    if gi != gj:
                        products[(gj, gi)] = entries

    top_dim = dims[4 * n]
    integ = []
    for t in range(top_dim):
        x = gembed(4 * n, to_rat[4 * n].col(t))
        integ.append(rational.integrate(x))

    deg2_vectors = [uvars[v] for v in range(m)]
    gram_images = [form.gram.matvec(vb) for vb in deg2_vectors]
    gram_big = []
    for a in range(m):
        row = []
        for b in range(m):
            acc = Gauss(0)
            for x, y in zip(deg2_vectors[a], gram_images[b]):
                acc = acc + x * y
            if acc.im != 0:
                raise ModelConstructionError("symplectic-adapted Gram matrix "
                                             "has a non-real entry")
            row.append(acc.re)
        gram_big.append(row)

    big = BigradedAlgebra(FIELD_GAUSSIAN, dims, labels, products, integ,
                          bidegrees, quadratic_form=QuadraticForm(
                              Matrix(gram_big, ncols=m)),
                          name=rational.name + " bigraded")
    report = big.validate()
    if not report.ok:
        raise RingValidationError(report)
    big.rational_model = rational
    big.to_rational_mats = to_rat
    big.from_rational_mats = from_rat
    big.positive_pair = (u1, u2)
    big.gamma_rational = tuple(Fraction(2 * x) for x in u1)
    big.gamma_prime_rational = tuple(Fraction(2 * x) for x in u2)
    return big
