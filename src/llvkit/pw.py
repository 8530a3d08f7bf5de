"""Perverse filtrations from isotropic classes, monodromy weight
filtrations of nilpotent operators, and their comparison.

Both filtrations are sums of kernel-image intersections, and each
intersection is computed as the image of a kernel, with no intersection
of subspaces:  ker A n im B = B ker(AB), since Bu lies in ker A exactly
when u lies in ker(AB).

The perverse filtration of an isotropic degree-2 class b inside degree k
is  P_m = sum over i >= 1 of  ker(L^e) n im(L^(i-1)),  e = 2n + m + i - k,
that is  P_m = sum over i >= 1 of  L^(i-1) ker(L^(e+i-1)),  the kernel
taken on degree k - 2(i-1), with L = L_b, L^0 = identity and the terms
with e <= 0 empty.  Powers of L are products of its degree blocks,
built once per class for the filtrations of every degree.

The weight filtration of a nilpotent N centered at c is built from an
exact Jordan-chain sl2 decomposition and certified by its defining
axioms, which determine it uniquely (Deligne, La conjecture de Weil II,
1.6.1).  The weak P = W comparison matches the perverse index m against
the weight index 2m + shift at one uniform shift, and the Hodge
comparison the index m against the holomorphic cutoff m + shift.  In
both, the one-dimensional H^0 of a valid ring admits a single shift,
read off the jump of P on the unit, so no shift is searched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .lefschetz import (BlockChain, DegreeOperator, complete_sl2,
                        cup_operator, hl_test)
from .linalg import (Matrix, SparseEchelon, Subspace, kernel,
                     symmetric_signature)
from .models import (ModelConstructionError, isotropic_stream,
                     require_nondegenerate, vector_stream)
from .reporting import Record
from .rings import BigradedAlgebra, GradedAlgebra
from .scalars import rat


class Filtration:
    """Increasing exhaustive flag of canonical subspaces, integer-indexed.

    Stores the jump window; below it the filtration is the zero subspace
    and above it the full space (both by construction at build time).
    """

    def __init__(self, ambient, steps):
        self.ambient = ambient
        self.steps = dict(sorted(steps.items()))
        if not self.steps:
            raise ValueError("a filtration needs at least one step")
        prev = None
        for m, sub in self.steps.items():
            if sub.ambient != ambient:
                raise ValueError("filtration steps live in different spaces")
            if prev is not None and not (prev <= sub):
                raise ValueError(f"filtration is not increasing at index {m}")
            prev = sub
        first = next(iter(self.steps.values()))
        last = prev
        if first.dim != 0:
            raise ValueError("filtration must start at the zero subspace")
        if last.dim != ambient:
            raise ValueError("filtration must end at the full space")

    @property
    def lo(self):
        return next(iter(self.steps))

    @property
    def hi(self):
        return next(reversed(self.steps))

    def at(self, m) -> Subspace:
        if m <= self.lo:
            return self.steps[self.lo]
        if m >= self.hi:
            return self.steps[self.hi]
        key = max(i for i in self.steps if i <= m)
        return self.steps[key]

    def dims(self):
        return {m: sub.dim for m, sub in self.steps.items()}

    def jumps(self):
        out = []
        prev = 0
        for m, sub in self.steps.items():
            if sub.dim != prev:
                out.append((m, sub.dim - prev))
                prev = sub.dim
        return out

    def __eq__(self, other):
        if not isinstance(other, Filtration) or self.ambient != other.ambient:
            return False
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return all(self.at(m) == other.at(m) for m in range(lo, hi + 1))

    def __repr__(self):
        return f"Filtration(dims={self.dims()})"


# -- perverse filtration ----------------------------------------------------


def perverse_filtration(ring: GradedAlgebra, beta) -> dict:
    """The isotropic-class filtration of every nonzero degree, ``{k: P}``.

    Its i-th term ker(L^e) n im(L^(i-1)), e = 2n + m + i - k, is taken as
    the image L^(i-1) ker(L^(e+i-1)) of a kernel on degree k - 2(i-1),
    so each step is one span.  L^j is a product of the degree blocks of
    the cup operator, built once for all degrees.  With L^nil = 0, the
    i = 1 term at m = k - 2n + nil - 1 is ker(L^nil) = all of H^k, so the
    steps from m = k - 2n - nil - 1 reach the full space by that index.
    """
    form = ring.quadratic_form
    if form is None:
        raise ValueError("ring carries no degree-2 quadratic form")
    beta = tuple(beta)
    if not any(beta):
        raise ValueError("beta must be a nonzero isotropic class")
    if form.evaluate(beta) != 0:
        raise ValueError("beta must be isotropic for the degree-2 form")
    if ring.top % 4:
        raise ValueError("perverse filtration needs top degree 4n")
    two_n = ring.top // 2
    chain = BlockChain(cup_operator(ring, beta).blocks,
                       dict(enumerate(ring.dims)))
    nil = chain.nilpotency_index()

    def term(k, i, e):
        """ker(L^e) n im(L^(i-1)) in degree k, as spanning rows."""
        src = k - 2 * (i - 1)
        if not chain.dim(src):
            return []
        img = chain.power(src, i - 1)
        j = e + i - 1
        if j >= nil or src + 2 * j > ring.top:
            return img.transpose().rows        # the kernel is all of it
        return [img.matvec(v) for v in kernel(chain.power(src, j)).basis]

    filts = {}
    for k, dim_k in enumerate(ring.dims):
        if not dim_k:
            continue
        steps = {}
        for m in range(k - two_n - nil - 1, k - two_n + nil):
            rows = []
            for i in range(1, two_n + 2):
                e = two_n + m + i - k
                if e > 0:
                    rows.extend(term(k, i, e))
            steps[m] = Subspace.from_rows(dim_k, rows)
            if steps[m].dim == dim_k:
                break
        filts[k] = Filtration(dim_k, steps)
    return filts


def _nilpotent_powers(mat: Matrix):
    """[I, N, ..., N^d] with N^d = 0 and d minimal; raises when N is not
    nilpotent."""
    powers = [Matrix.identity(mat.nrows), mat]
    while True:
        if len(powers) - 1 > mat.nrows:
            raise ValueError("operator is not nilpotent")
        if powers[-1].is_zero():
            return powers
        powers.append(powers[-1] * mat)


def nilpotent_index(mat: Matrix) -> int:
    """Smallest d with mat^d = 0; raises on non-nilpotent input."""
    return len(_nilpotent_powers(mat)) - 1


def perverse_hodge_check(ring: BigradedAlgebra) -> Record:
    """The sigma-bar filtration equals the flag of holomorphic-degree
    cutoffs: P_m in degree k is the span of the (p, k-p) pieces with
    p <= m + shift, at one uniform shift (reported).  Equal flags make
    each perverse jump dim A^(m+shift, k-m-shift), since every basis
    element of degree k has a bidegree (p, k-p); the jumps need no count
    against the Hodge numbers of their own.

    The unit fixes the shift.  A valid ring has dim H^0 = 1, so P jumps
    once there, at m0, and the Hodge flag of the unit, of bidegree
    (0, 0), jumps once, at cutoff 0; the flags agree on H^0 only at
    shift = -m0.  P_m(H^0) is ker L^(2n+m+1) on the unit, so
    m0 = e0 - 2n - 1 with e0 in [1, 2n+1] the least e with
    sigma-bar^e = 0, and -m0 lies in [0, 2n].  No other shift can match,
    so a search over any window holding [0, 2n] finds this one or none.
    The reported shift is None when the flags differ.
    """
    res = Record("perverse filtration detects Hodge filtration",
                 "sigma-bar filtration equals the holomorphic-degree flag",
                 {"shift": None, "failures": []})
    lo2, _ = ring.slice_of(2)
    sigma_bar = tuple(ring.sigma_bar()[lo2 + t] for t in range(ring.dims[2]))
    filts = perverse_filtration(ring, sigma_bar)

    def hodge_flag(k, cutoff):
        lo, _ = ring.slice_of(k)
        rows = []
        for t in range(ring.dims[k]):
            p, _q = ring.bidegrees[lo + t]
            if p <= cutoff:
                row = [0] * ring.dims[k]
                row[t] = 1
                rows.append(row)
        return Subspace.from_rows(ring.dims[k], rows)

    shift = -filts[0].jumps()[0][0]
    if not all(all(filt.at(m) == hodge_flag(k, m + shift)
                   for m in range(filt.lo, filt.hi + 1))
               for k, filt in filts.items()):
        res.fail("no uniform index shift matches the Hodge flags")
    else:
        res.data["shift"] = shift
    return res


# -- weight filtration ------------------------------------------------------


def weight_filtration(nmat: Matrix, center: int = 0) -> Filtration:
    """Monodromy weight filtration of a nilpotent operator, centered.

    Built from an exact Jordan-chain decomposition (the sl2 route: a
    chain of length l contributes weights center + l - 1 - 2a), certified
    by ``_verify_weight_axioms`` before return.
    """
    n = nmat.nrows
    if nmat.ncols != n:
        raise ValueError("weight filtration needs a square matrix")
    powers = _nilpotent_powers(nmat)
    nil = len(powers) - 1
    kernels = [Subspace.zero(n)] + [kernel(p) for p in powers[1:]]

    # chains: tops of length j span ker N^j modulo ker N^(j-1) + N ker N^(j+1)
    chain_vectors = {}      # weight (centered at 0) -> list of vectors
    tops = []               # (length, vector)
    for j in range(nil, 0, -1):
        blocked = SparseEchelon(exact_division=True)
        for v in kernels[j - 1].basis:
            blocked.add(v)
        for length, top in tops:
            blocked.add(powers[length - j].matvec(top))
        fresh = [v for v in kernels[j].basis if blocked.add(v)]
        for v in fresh:
            tops.append((j, v))
            vec = v
            for a in range(j):
                chain_vectors.setdefault(j - 1 - 2 * a, []).append(tuple(vec))
                vec = nmat.matvec(vec)

    weights = sorted(chain_vectors)
    steps = {}
    lo = (weights[0] if weights else 0) + center
    hi = (weights[-1] if weights else 0) + center
    acc = []
    steps[lo - 1] = Subspace.zero(n)
    for w in range(lo, hi + 1):
        acc.extend(chain_vectors.get(w - center, []))
        steps[w] = Subspace.from_rows(n, acc)
    filt = Filtration(n, steps)
    _verify_weight_axioms(filt, nmat, center, powers)
    return filt


def _verify_weight_axioms(filt: Filtration, nmat, center, powers):
    """Certify filt as the weight filtration of N centered at c.

    With ``powers`` = [I, N, ..., N^nil] and N^nil = 0, three checks:
    (a) N W_m <= W_(m-2) for every m;
    (b) N^j : gr_(c+j) -> gr_(c-j) is an isomorphism for 1 <= j < nil;
    (c) W_(c-nil) = 0 and W_(c+nil-1) is the whole space.
    For j >= nil, N^j = 0 and (c) makes gr_(c+j) = gr_(c-j) = 0, so (b)
    holds for every j >= 0.  A finite increasing filtration with (a) and
    (b) for every j is unique (Deligne, La conjecture de Weil II, 1.6.1):
    centered at 0, with l = nil - 1, N^l maps W_(l-1) into
    W_(-l-1) = W_(-nil) = 0 by (a), and V = W_l onto gr_(-l) = W_(-l), so
    W_(l-1) = ker N^l and W_(-l) = im N^l; the induced filtration of
    ker N^l / im N^l has (a) and (b) again for a nilpotent of lower index.
    So it is the monodromy weight filtration,
    W_m = sum over j >= 0 of N^j ker(N^(m-c+2j+1)), and that formula
    needs no check of its own; the tests keep it as an oracle.  Without
    (c), a jump moved past c + nil - 1 would pass (a) and (b) for
    j <= nil.
    """
    nil = len(powers) - 1
    if (filt.at(center - nil).dim
            or filt.at(center + nil - 1).dim != filt.ambient):
        raise RuntimeError(
            f"weight filtration jumps outside "
            f"[{center - nil + 1}, {center + nil - 1}]")
    for m in range(filt.lo, filt.hi + 1):
        below = filt.at(m - 2)
        if not all(below.contains(nmat.matvec(v)) for v in filt.at(m).basis):
            raise RuntimeError(f"weight filtration axiom N W_{m} <= W_{m-2} fails")
    for j in range(1, nil):
        top = filt.at(center + j)
        below_top = filt.at(center + j - 1)
        bot = filt.at(center - j)
        below_bot = filt.at(center - j - 1)
        image_rows = [powers[j].matvec(v) for v in top.basis]
        mapped = Subspace.from_rows(top.ambient,
                                    list(below_bot.basis) + image_rows)
        rank = mapped.dim - below_bot.dim
        if rank != top.dim - below_top.dim or rank != bot.dim - below_bot.dim:
            raise RuntimeError(
                f"weight filtration axiom N^{j}: gr_{center + j} ~ "
                f"gr_{center - j} fails")


# -- the monodromy operator -------------------------------------------------


@dataclass(frozen=True)
class LagrangianTriple:
    """Classes (beta, eta, rho): isotropic fibration class, isotropic
    relative class, and a positive class orthogonal to both."""

    beta: tuple
    eta: tuple
    rho: tuple

    def validate(self, form):
        for name in ("beta", "eta", "rho"):
            size = len(getattr(self, name))
            if size != form.dim:
                raise ValueError(f"{name} lists {size} coordinates, "
                                 f"expected {form.dim}")
        beta, eta, rho = (tuple(map(rat, v))
                          for v in (self.beta, self.eta, self.rho))
        if not any(beta):
            raise ValueError("beta must be nonzero")
        if form.evaluate(beta) != 0:
            raise ValueError("beta must be isotropic")
        if form.evaluate(eta) != 0:
            raise ValueError("eta must be isotropic")
        if form.evaluate(rho) <= 0:
            raise ValueError("rho must be positive for the form")
        if form.pair(eta, rho) != 0 or form.pair(beta, rho) != 0:
            raise ValueError("rho must be orthogonal to beta and eta")
        return beta, eta, rho


def lagrangian_monodromy(ring: GradedAlgebra,
                         triple: LagrangianTriple) -> DegreeOperator:
    """N = [L_beta, Lam_rho] on degree blocks: degree-preserving, nilpotent."""
    form = ring.quadratic_form
    if form is None:
        raise ValueError("ring carries no degree-2 quadratic form")
    beta, _eta, rho = triple.validate(form)
    if not hl_test(ring, rho):
        raise ValueError("rho does not satisfy Hard Lefschetz")
    nop = cup_operator(ring, beta).commutator(complete_sl2(ring, rho).Lam)
    for blk in nop.blocks.values():
        nilpotent_index(blk)      # raises when not nilpotent
    return nop


def weak_pw_check(ring: GradedAlgebra,
                  triple: LagrangianTriple | None = None) -> Record:
    """Per-degree equality of the perverse and weight filtrations.

    The weight filtration of N = [L_beta, Lam_rho] on the degree-k piece
    is centered at k - 2n; the comparison demands one uniform shift s
    with P_m = W_(2m+s) across every degree and records it.  The weight
    index runs at twice the perverse index, with jumps only on the
    matching parity.  ``triple`` defaults to ``default_lagrangian_triple``;
    a ring without a degree-2 form or a 4n grading has no such statement,
    and the record skips.

    The unit fixes s.  A valid ring has dim H^0 = 1, and N is nilpotent
    there, so N = 0 on H^0 and W jumps once, at c = -2n; P jumps once, at
    m0 = e0 - 2n - 1 in [-2n, 0], e0 the least e with beta^e = 0.
    P_(m0-1) = W_(2m0-2+s) = 0 and P_m0 = W_(2m0+s) = H^0 leave
    s = c - 2m0 or c - 2m0 + 1, and the parity of the jump at c leaves
    s = c - 2m0, in [-2n, 2n].  No other shift can match, so a search over
    any window holding [-2n, 2n] finds this one or none.
    """
    res = Record("weak P = W", "perverse filtration equals the monodromy "
                 "weight filtration")
    form = ring.quadratic_form
    if form is None or ring.top % 4:
        return res.skip("fixture lacks a degree-2 form or a 4n grading")
    if triple is None:
        triple = default_lagrangian_triple(ring)
    res.anchor += " at one uniform shift"
    res.data = {"failures": [], "beta": list(map(Fraction, triple.beta)),
                "rho": list(map(Fraction, triple.rho))}
    beta, _eta, _rho = triple.validate(form)
    two_n = ring.top // 2
    nop = lagrangian_monodromy(ring, triple)
    idx = nilpotent_index(nop.blocks[2])
    res.data["degree2_nilpotent_index"] = idx
    res.data["type_iii"] = (idx == 3)
    p_filts = perverse_filtration(ring, beta)
    w_filts = {k: weight_filtration(nop.blocks[k], center=k - two_n)
               for k in p_filts}
    s = -two_n - 2 * p_filts[0].jumps()[0][0]
    if any(any((j - s) % 2 for j, _ in w_filts[k].jumps())
           or not all(pf.at(m) == w_filts[k].at(2 * m + s)
                      for m in range(pf.lo - 1, pf.hi + 2))
           for k, pf in p_filts.items()):
        res.fail("no uniform shift aligns the perverse and weight flags")
    else:
        res.data["shift"] = s
    res.data["perverse_dims"] = {k: f.dims() for k, f in p_filts.items()}
    res.data["weight_dims"] = {k: f.dims() for k, f in w_filts.items()}
    return res


def type_iii_check(weak: Record) -> Record:
    """The monodromy of a ``weak_pw_check`` record is of type III: N has
    nilpotency index 3 on degree 2."""
    idx = weak.data["degree2_nilpotent_index"]
    return Record("type III monodromy",
                  "[L_beta, Lam_rho] has nilpotency index 3 on degree 2",
                  {"index": idx}, "pass" if idx == 3 else "fail")


def default_lagrangian_triple(ring: GradedAlgebra) -> LagrangianTriple:
    """Deterministic (beta, eta, rho) from the enumeration streams.

    A degenerate form is refused by its rank.  For a nondegenerate form of
    positive index p, the classes orthogonal to an isotropic beta carry a
    form of positive index p - 1 (beta^perp / beta is nondegenerate), so a
    positive rho exists exactly when p >= 2; this is decided by the
    signature before rho is searched for.
    """
    form = ring.quadratic_form
    require_nondegenerate(form)
    beta = next(iter(isotropic_stream(form)))
    pos, _, _ = symmetric_signature(form.gram)
    if pos < 2:
        raise ModelConstructionError(
            f"no positive class orthogonal to an isotropic class: the form "
            f"has positive index {pos} < 2")
    rho = None
    for v in itertools.islice(vector_stream(form.dim), 200000):
        if form.evaluate(v) > 0 and form.pair(v, beta) == 0:
            rho = v
            break
    if rho is None:
        raise ModelConstructionError(
            "no positive class orthogonal to beta found")
    eta = None
    for w in itertools.islice(isotropic_stream(form), 200000):
        if form.pair(w, rho) == 0 and w != beta:
            eta = w
            break
    if eta is None:
        raise ModelConstructionError(
            "no second isotropic class orthogonal to rho found")
    return LagrangianTriple(beta, eta, rho)


def isotropic_independence_check(ring: GradedAlgebra) -> Record:
    """dim P_m is the same for the first ten isotropic classes of the
    enumeration, all m and k."""
    res = Record("isotropic-class independence",
                 "perverse dimensions agree for every isotropic class",
                 {"failures": []})
    form = ring.quadratic_form
    classes = list(itertools.islice(isotropic_stream(form), 10))
    reference = None
    for mu in classes:
        dims = {k: sorted(filt.jumps())
                for k, filt in perverse_filtration(ring, mu).items()}
        if reference is None:
            reference = dims
        elif dims != reference:
            res.fail(f"class {mu} gives perverse dims {dims} != {reference}")
    res.data["classes_checked"] = len(classes)
    res.data["dims"] = {k: dict(v) for k, v in (reference or {}).items()}
    return res
