"""Clifford algebra of a rational quadratic space, with the parity and
reversal involutions, the normalized trace, induced complex structures
from positive orthogonal pairs, and the trace polarization form.

Coefficients are rationals in the normal form of ``scalars``: an int when
integral, a Fraction only with a denominator.  Products are summed in
integers on the structure table and divided once, through ``div``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import Matrix, congruence_diagonalize, inverse, symmetric_signature
from .models import (ModelConstructionError, admissible_positive_pair,
                     vector_stream)
from .reporting import Record
from .rings import QuadraticForm
from .scalars import div, rat, rat_sqrt

MAX_CLIFFORD_DIM = 10


class CliffordAlgebra:
    """C(H, Q) on a diagonalizing basis; basis elements are the products
    e_S over bitmask subsets S of the orthogonal generators, with
    e_i e_i = d_i and e_i e_j = -e_j e_i.
    """

    def __init__(self, form: QuadraticForm):
        if not form.is_nondegenerate():
            raise ValueError("Clifford algebra needs a nondegenerate form")
        m = form.dim
        if m > MAX_CLIFFORD_DIM:
            raise ValueError(
                f"refusing Clifford algebra on {m} generators: dimension 2^{m} "
                f"exceeds the 2^{MAX_CLIFFORD_DIM} bound")
        self.form = form
        self.m = m
        self.dim = 1 << m
        p, diag = congruence_diagonalize(form.gram)
        self.change = p                  # rows: orthogonal basis, original coords
        self.change_inv = inverse(p)
        self.diag = [Fraction(d) for d in diag]
        self._table = None

    # -- elements -----------------------------------------------------

    def zero(self):
        return CliffordElement(self, (0,) * self.dim)

    def one(self):
        coeffs = [0] * self.dim
        coeffs[0] = 1
        return CliffordElement(self, coeffs)

    def generator(self, i):
        coeffs = [0] * self.dim
        coeffs[1 << i] = 1
        return CliffordElement(self, coeffs)

    def vector(self, v):
        """Degree-1 element of a vector given in the original coordinates."""
        if len(v) != self.m:
            raise ValueError(f"vector needs {self.m} coordinates")
        coords = self.change_inv.transpose().matvec([rat(c) for c in v])
        coeffs = [0] * self.dim
        for i, c in enumerate(coords):
            coeffs[1 << i] = c
        return CliffordElement(self, coeffs)

    def basis_label(self, mask):
        if not mask:
            return "1"
        return "".join(f"g{i + 1}" for i in range(self.m) if mask >> i & 1)

    def structure_table(self):
        """(C, D) with e_S * e_T = (C[S][T] / D) e_(S xor T), C integer.

        The coefficient is a sign times the product of the d_i for the
        generators in both S and T.  The sign counts the transpositions
        that carry each generator of T past the generators of S above it:
        it is odd exactly when popcount(above[S] & T) is, where bit i of
        above[S] records the parity of the generators of S above i.  D is
        the lcm of the denominators of the d_i products.  Built once, on
        the first product, so constructing an algebra stays cheap.
        """
        if self._table is None:
            dim = self.dim
            dprod = [Fraction(1)] * dim
            for mask in range(1, dim):
                low = mask & -mask
                dprod[mask] = dprod[mask ^ low] * self.diag[low.bit_length() - 1]
            denom = lcm(*(d.denominator for d in dprod))
            pos = [d.numerator * (denom // d.denominator) for d in dprod]
            neg = [-c for c in pos]
            above = [0] * dim
            for s in range(1, dim):
                # bit i: parity of the generators of s strictly above i
                top = s.bit_length() - 1
                rest = s ^ (1 << top)
                above[s] = above[rest] ^ ((1 << top) - 1)
            table = [[neg[s & t] if (above[s] & t).bit_count() & 1 else pos[s & t]
                      for t in range(dim)] for s in range(dim)]
            self._table = (table, denom)
        return self._table

    def __repr__(self):
        return f"CliffordAlgebra(m={self.m}, dim={self.dim})"


@dataclass(frozen=True)
class CliffordElement:
    algebra: CliffordAlgebra
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(rat, self.coeffs)))
        if len(self.coeffs) != self.algebra.dim:
            raise ValueError("coefficient vector length mismatch")

    def __add__(self, other):
        self._check(other)
        return CliffordElement(self.algebra,
                               tuple(a + b for a, b in
                                     zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return CliffordElement(self.algebra,
                               tuple(a - b for a, b in
                                     zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CliffordElement(self.algebra, tuple(-a for a in self.coeffs))

    def scale(self, c):
        c = rat(c)
        return CliffordElement(self.algebra, tuple(c * a for a in self.coeffs))

    def _check(self, other):
        if not isinstance(other, CliffordElement):
            raise TypeError("expected a CliffordElement")
        if other.algebra is not self.algebra:
            raise ValueError("elements live in different Clifford algebras")

    def is_zero(self):
        return not any(self.coeffs)

    def __repr__(self):
        parts = [f"{c}*{self.algebra.basis_label(s)}"
                 for s, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


def clifford(form: QuadraticForm) -> CliffordAlgebra:
    """Clifford algebra presented by v*v = Q(v, v) on every vector."""
    return CliffordAlgebra(form)


def dimension_check(alg: CliffordAlgebra) -> Record:
    return Record("algebra dimension", "dim C(H, Q) = 2^m", {"dim": alg.dim},
                  "pass" if alg.dim == 2 ** alg.m else "fail")


def defining_relation_check(alg: CliffordAlgebra) -> Record:
    """v*v = Q(v, v) on the first 100 vectors of ``vector_stream``."""
    vectors = list(itertools.islice(vector_stream(alg.m), 100))
    bad = []
    for v in vectors:
        x = alg.vector(v)
        if (cl_multiply(x, x).coeffs
                != alg.one().scale(alg.form.evaluate(v)).coeffs):
            bad.append(v)
    return Record("defining relation", "v*v = Q(v,v) on enumerated vectors",
                  {"vectors_checked": len(vectors), "violations": bad},
                  "fail" if bad else "pass")


def _cleared(coeffs):
    """(d, [(s, n_s)]) with coeffs[s] = n_s / d on the nonzero entries."""
    nonzero = [(s, c) for s, c in enumerate(coeffs) if c]
    d = lcm(*(c.denominator for _, c in nonzero))
    return d, [(s, c.numerator * (d // c.denominator)) for s, c in nonzero]


def cl_multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    """The product x*y, summed in integers on the algebra's structure
    table and divided once per nonzero output coefficient."""
    x._check(y)
    alg = x.algebra
    table, denom = alg.structure_table()
    dx, xs = _cleared(x.coeffs)
    dy, ys = _cleared(y.coeffs)
    acc = [0] * alg.dim
    for s, a in xs:
        row = table[s]
        for t, b in ys:
            acc[s ^ t] += a * b * row[t]
    d = dx * dy * denom
    if d != 1:
        acc = [div(v, d) if v else 0 for v in acc]
    return CliffordElement(alg, acc)


def conjugate(y: CliffordElement) -> CliffordElement:
    """Parity composed with reversal: e_S picks up (-1)^(k(k+1)/2), k=|S|."""
    alg = y.algebra
    out = []
    for s, c in enumerate(y.coeffs):
        k = bin(s).count("1")
        sign = -1 if (k * (k + 1) // 2) % 2 else 1
        out.append(sign * c)
    return CliffordElement(alg, out)


def cl_trace(x: CliffordElement):
    """Trace of left multiplication in the regular representation,
    normalized by 2^m so that Tr(1) = 1; equals the e_0 coefficient."""
    return x.coeffs[0]


def trace_symmetry_check(alg: CliffordAlgebra) -> Record:
    """Tr(xy) = Tr(yx) on 100 pairs of elements with coefficients in
    [-3, 3] from ``random.Random(0)``, x drawn before y."""
    rng = random.Random(0)
    ok = True
    for _ in range(100):
        x, y = (CliffordElement(alg, [rng.randint(-3, 3)
                                      for _ in range(alg.dim)])
                for _ in range(2))
        if cl_trace(cl_multiply(x, y)) != cl_trace(cl_multiply(y, x)):
            ok = False
    return Record("trace symmetry", "Tr(xy) = Tr(yx)", {"pairs_checked": 100},
                  "pass" if ok else "fail")


def cl_trace_gram(xs, ys) -> Matrix:
    """The matrix of Tr(x*y), x in xs, y in ys, without the products:
    e_S e_T has an e_0 term only when S = T, namely C[S][S]/D
    (``structure_table``), so Tr(x*y) = sum_S x_S y_S C[S][S]/D."""
    table, denom = xs[0].algebra.structure_table()
    rows = [_cleared(x.coeffs) for x in xs]
    cols = [(d, {s: b * table[s][s] for s, b in terms})
            for d, terms in (_cleared(y.coeffs) for y in ys)]
    return Matrix._of([[div(sum(a * col[s] for s, a in row if s in col),
                            dx * dy * denom) for dy, col in cols]
                       for dx, row in rows], len(ys))


def complex_structure(alg: CliffordAlgebra, gamma, gamma_prime) -> CliffordElement:
    """mu = (gamma/|gamma|)(gamma'/|gamma'|) with mu^2 = -1.

    Requires an admissible orthogonal positive pair: both norms must be
    perfect squares of rationals so the rescaling stays in the field.
    """
    form = alg.form
    g = tuple(map(rat, gamma))
    gp = tuple(map(rat, gamma_prime))
    if form.pair(g, gp) != 0:
        raise ValueError("the pair is not orthogonal")
    qg, qgp = form.evaluate(g), form.evaluate(gp)
    if qg <= 0 or qgp <= 0:
        raise ValueError("both classes must be positive for the form")
    r, rp = rat_sqrt(qg), rat_sqrt(qgp)
    if r is None or rp is None:
        raise ValueError("requires an admissible pair: norms must be perfect "
                         "squares of rationals")
    mu = cl_multiply(alg.vector(tuple(div(c, r) for c in g)),
                     alg.vector(tuple(div(c, rp) for c in gp)))
    square = cl_multiply(mu, mu)
    if square.coeffs != (-alg.one()).coeffs:
        raise RuntimeError("mu^2 != -1: complex structure construction failed")
    return mu


def complex_structure_check(alg: CliffordAlgebra):
    """(mu, record): ``complex_structure`` of the pair that
    ``admissible_positive_pair`` finds, or (None, a skip) with the reason
    there is none."""
    rec = Record("complex structure", "mu = gamma gamma' squares to -1")
    try:
        u1, u2 = admissible_positive_pair(alg.form)
        mu = complex_structure(alg, u1, u2)
    except (ValueError, ModelConstructionError) as exc:
        return None, rec.skip(str(exc))
    rec.data = {"gamma": list(u1), "gamma_prime": list(u2)}
    return mu, rec


_POLARIZATION = ("trace polarization",
                 "exactly one of +-sigma_a passes the positivity probe")


def polarization_form(alg: CliffordAlgebra, a: CliffordElement):
    """(gram, record): the Gram matrix of sigma_a(x, y) = Tr(x a conj(y))
    on the subset basis, and the record of the probe.

    The record fails unless sigma_a is antisymmetric and exact signatures
    decide which of +-sigma_a is positive in the polarization sense, i.e.
    makes (x, y) -> sigma_a(x, a y) positive-definite; ``probe_signature``
    is None when that probe form is not symmetric.
    """
    a._check(alg.one())
    res = Record(*_POLARIZATION, {"failures": []})
    basis = [CliffordElement(alg, tuple(int(t == s) for t in range(alg.dim)))
             for s in range(alg.dim)]
    # conj(e_S) = +-e_S: the products a e_S serve both Gram matrices
    a_basis = [cl_multiply(a, b) for b in basis]
    gram = cl_trace_gram(basis, [ab.scale(conjugate(b).coeffs[s]) for s, (b, ab)
                                 in enumerate(zip(basis, a_basis))])
    if not all(gram[i, j] == -gram[j, i]
               for i in range(alg.dim) for j in range(alg.dim)):
        res.fail("sigma_a is not antisymmetric")
    conj_a_basis = [conjugate(ab) for ab in a_basis]
    x_a = [cl_multiply(x, a) for x in basis]
    sym = cl_trace_gram(x_a, conj_a_basis)
    positive_sign = probe_signature = None
    if sym.is_symmetric():
        probe_signature = symmetric_signature(sym)
        if probe_signature == (alg.dim, 0, 0):
            positive_sign = 1
        elif probe_signature == (0, alg.dim, 0):
            positive_sign = -1
    else:
        res.fail("the associated probe form is not symmetric")
    res.data["probe_signature"] = probe_signature
    res.data["positive_sign"] = positive_sign
    if positive_sign is None:
        res.fail("neither sigma_a nor -sigma_a passes the positivity probe")
    return gram, res


def polarization_check(alg: CliffordAlgebra, a: CliffordElement) -> Record:
    """The record of ``polarization_form`` when the form of ``alg`` has
    the signature (2, m-2) of the polarization statement; any other
    signature skips, and the probe does not run."""
    pos, neg, _null = symmetric_signature(alg.form.gram)
    if pos != 2:
        return Record(*_POLARIZATION).skip(
            f"the form has signature ({pos}, {neg}); the polarization "
            f"statement needs (2, {alg.m - 2})")
    return polarization_form(alg, a)[1]
