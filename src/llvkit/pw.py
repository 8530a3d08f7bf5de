"""Perverse filtrations from isotropic classes, monodromy weight
filtrations of nilpotent operators, and their comparison.

A filtration is one ordered basis and the size of each step: step m is
the span of a prefix of the basis, so the steps are nested by
construction.  Both filtrations here are read off one Jordan basis.
``_jordan_chains`` builds a degree-homogeneous Jordan basis of a
nilpotent N given by blocks N : V_w -> V_(w+shift).  The vector N^a v of
the chain of a top v of length l lies in one piece V_w, with the index
w + offset + l - 1 - 2a.  The basis is certified: N^l v = 0 for every
top v of length l, and in each piece the chain vectors are exactly
dim V_w many and of full rank, by the one elimination of ``Filtration``.

- The weight filtration of a nilpotent N centered at c is the flag of
  one piece, with shift 0 and offset c.  Its chain vectors, ordered by
  the weight c + l - 1 - 2a, satisfy Deligne's axioms, which determine
  it uniquely (La conjecture de Weil II, 1.6.1); the tests keep the
  axioms as an oracle.
- The perverse filtration of an isotropic degree-2 class b inside
  degree k is P_m = sum over i >= 1 of ker(L^e) n im(L^(i-1)),
  e = 2n + m + i - k, with L = L_b; the tests keep this formula as an
  oracle.  It is the flag of L, one piece per degree, with shift 2 and
  offset -2n: by the lemma in ``perverse_jumps``, P_m A^k is spanned by
  the chain vectors in A^k of the chains that start in A^d with length l
  and d + l - 1 - 2n <= m, and for the vector L^a v in A^k that index is
  k - 2n + l - 1 - 2a.  Where only the dimensions of P are reported
  (isotropic independence), they are read off the ranks of the block
  powers of L (``perverse_jumps``), and no flag is built.

Two flags are compared by their step sizes and one echelon, with no
canonical subspace per step (``Filtration.agrees``).  The weak P = W
comparison matches the perverse index m against the weight index
2m + shift at one uniform shift, and the Hodge comparison the index m
against the holomorphic cutoff m + shift, on the flag of coordinates
ordered by holomorphic degree.  In both, the one-dimensional H^0 of a
valid ring admits a single shift, read off the jump of P on the unit, so
no shift is searched.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .lefschetz import (BlockChain, DegreeOperator, NotHLError,
                        complete_sl2, cup_operator)
from .linalg import (Matrix, SparseEchelon, Subspace, kernel,
                     symmetric_signature)
from .models import (ModelConstructionError, isotropic_stream,
                     require_nondegenerate, vector_stream)
from .reporting import Record
from .rings import BigradedAlgebra, GradedAlgebra
from .scalars import rat


class Filtration:
    """Increasing exhaustive flag, integer-indexed: one ordered basis of
    Q^ambient and the size of each step, step m being the span of the
    first ``size(m)`` basis vectors.

    ``sizes`` lists the window, from size 0 up to ambient; below it the
    filtration is the zero subspace and above it the full space.  The
    steps are nested by construction.  The constructor checks that the
    basis is a basis, ambient vectors of full rank by one elimination,
    and that the sizes increase from 0 to ambient.
    """

    def __init__(self, ambient, basis, sizes):
        self.ambient = ambient
        self.basis = tuple(tuple(v) for v in basis)
        self.sizes = dict(sorted(sizes.items()))
        ech = SparseEchelon.over(self.basis)
        rank = sum(1 for v in self.basis if ech.add(v))
        if len(self.basis) != ambient or rank != ambient:
            raise ValueError(f"{len(self.basis)} vectors of rank {rank} are "
                             f"not a basis of Q^{ambient}")
        if not self.sizes:
            raise ValueError("a filtration needs at least one step")
        prev = 0
        for m, size in self.sizes.items():
            if size < prev:
                raise ValueError(f"filtration is not increasing at index {m}")
            prev = size
        if next(iter(self.sizes.values())):
            raise ValueError("filtration must start at the zero subspace")
        if prev != ambient:
            raise ValueError("filtration must end at the full space")

    @property
    def lo(self):
        return next(iter(self.sizes))

    @property
    def hi(self):
        return next(reversed(self.sizes))

    def size(self, m) -> int:
        """dim of step m: the size at the largest listed index <= m."""
        below = [size for i, size in self.sizes.items() if i <= m]
        return below[-1] if below else 0

    def at(self, m) -> Subspace:
        """Step m as a canonical subspace, built on demand."""
        return Subspace.from_rows(self.ambient, self.basis[:self.size(m)])

    def dims(self):
        return dict(self.sizes)

    def jumps(self):
        out = []
        prev = 0
        for m, size in self.sizes.items():
            if size != prev:
                out.append((m, size - prev))
                prev = size
        return out

    def agrees(self, other, index, window) -> bool:
        """Whether step m equals the step index(m) of ``other`` at every m
        of ``window``, for an increasing map ``index``.

        Equal sizes and containment make equal steps.  Both flags
        increase, so a basis vector that lies in other's step when it
        enters this flag lies in it at every later m: one echelon of
        other's basis, grown along m to the common size, reduces each
        basis vector once.  On a flag of coordinate vectors the echelon's
        rows are unit vectors, and the reduction is a support test.
        """
        ech = SparseEchelon.over(self.basis + other.basis)
        done = 0
        for m in window:
            size = self.size(m)
            if other.size(index(m)) != size:
                return False
            for v in other.basis[done:size]:
                ech.add(v)
            if not all(ech.contains(v) for v in self.basis[done:size]):
                return False
            done = size
        return True

    def __eq__(self, other):
        if not isinstance(other, Filtration) or self.ambient != other.ambient:
            return False
        return self.agrees(other, lambda m: m,
                           range(min(self.lo, other.lo),
                                 max(self.hi, other.hi) + 1))

    def __repr__(self):
        return f"Filtration(dims={self.dims()})"


def _flag(ambient, indexed, start) -> Filtration:
    """The filtration whose step m is spanned by the vectors of
    ``indexed``, (index, vector) pairs, of index <= m; its window runs from
    m = start to the largest index, the first full step of a basis."""
    indexed = sorted(indexed, key=lambda pair: pair[0])
    ends = [m for m, _ in indexed]
    last = ends[-1] if ends else start + 1
    sizes = {m: bisect_right(ends, m) for m in range(start, last + 1)}
    return Filtration(ambient, [v for _, v in indexed], sizes)


def _jordan_chains(chain: BlockChain, offset):
    """(nil, {w: [(index, vector)]}): a degree-homogeneous Jordan basis,
    piece by piece, of the nilpotent N that ``chain`` gives by its blocks
    N : V_w -> V_(w+shift), and the nilpotency index of N.  The vector
    N^a v of the chain of a top v of length l lies in V_w, w = d + a shift
    for v in V_d, with the index w + offset + l - 1 - 2a.

    The pieces are taken in increasing w.  In V_w, for j = nil, ..., 1,
    the tops of length j are the basis vectors of ker N^j that are
    independent of ker N^(j-1) and of the chain vectors already in V_w
    with exactly j vectors left: in a Jordan basis those span, inside
    ker N^j, the sum of ker N^(j-1) and N V.  With shift 0 the chain
    vectors already there are those of the longer tops of V_w; with shift
    2 they come from the chains of the lower pieces.

    Each chain is walked to N^j v, and one that N^j does not kill raises
    RuntimeError.  The tops come from kernels, but the basis does not
    rest on them: with N^l v = 0, N maps each chain vector to the next
    one or to zero, so the chain vectors are a Jordan basis of N as soon
    as each piece holds dim V_w of them of full rank, which ``Filtration``
    checks when the flag of the piece is built.
    """
    nil = chain.nilpotency_index()
    shift = chain.shift
    left = defaultdict(list)        # w -> [(vectors left in its chain, v)]
    indexed = defaultdict(list)     # w -> [(index, vector)]
    for d in sorted(chain.dims):
        dim_d = chain.dim(d)
        if not dim_d:
            continue
        kernels = [Subspace.zero(dim_d)] + [
            kernel(chain.power(d, j)) if chain.dim(d + j * shift)
            else Subspace.full(dim_d) for j in range(1, nil + 1)]
        for j in range(nil, 0, -1):
            blocked = SparseEchelon(exact_division=True)
            for v in kernels[j - 1].basis:
                blocked.add(v)
            for rest, u in left[d]:
                if rest == j:
                    blocked.add(u)
            for top in kernels[j].basis:
                if not blocked.add(top):
                    continue
                w, vec = d, top
                for a in range(j):
                    left[w].append((j - a, vec))
                    indexed[w].append((w + offset + j - 1 - 2 * a, vec))
                    vec = chain.block(w).matvec(vec)
                    w += shift
                if any(vec):
                    raise RuntimeError(f"a Jordan chain of length {j} is not "
                                       f"killed by N^{j}")
    return nil, indexed


# -- perverse filtration ----------------------------------------------------


def _perverse_chain(ring: GradedAlgebra, beta):
    """The chain of powers of L_beta on degree blocks, and 2n, after the
    checks that make beta's perverse filtration defined."""
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
    return (BlockChain(cup_operator(ring, beta).blocks,
                       dict(enumerate(ring.dims))), ring.top // 2)


def perverse_filtration(ring: GradedAlgebra, beta) -> dict:
    """The isotropic-class filtration of every nonzero degree, ``{k: P}``.

    Read off the certified Jordan basis of L = L_beta that
    ``_jordan_chains`` builds on the degree blocks, with shift 2 and
    offset -2n: P_m A^k is spanned by the chain vectors in A^k whose
    chain starts in A^d with length l and d + l - 1 - 2n <= m (the lemma
    in ``perverse_jumps``).  With L^nil = 0 every such index is at least
    k - 2n - nil + 1, and the flag of A^k is listed from
    m = k - 2n - nil - 1 to its first full step.
    """
    chain, two_n = _perverse_chain(ring, beta)
    nil, indexed = _jordan_chains(chain, -two_n)
    return {k: _flag(dim_k, indexed[k], k - two_n - nil - 1)
            for k, dim_k in enumerate(ring.dims) if dim_k}


def perverse_jumps(ring: GradedAlgebra, beta) -> dict:
    """The jumps of ``perverse_filtration(ring, beta)``, ``{k: [(m, d)]}``
    in increasing m, read off the ranks r(d, j) of L^j : A^d -> A^(d+2j)
    (r(d, 0) = dim A^d) with no subspace formed.

    L = L_beta raises the degree by 2 and is nilpotent, so A is a graded
    module over Q[L], a direct sum of shifted Q[L]/(L^l): A has a
    degree-homogeneous Jordan basis of chains v, Lv, ..., L^(l-1) v with
    v in A^d and L^l v = 0.  In it ker L^e and im L^(i-1) are both
    spanned by chain vectors: L^a v lies in ker L^e exactly when
    l - a <= e, and in im L^(i-1) exactly when a >= i - 1.  So the i-th
    term ker(L^e) n im(L^(i-1)), e = 2n + m + i - k, of P_m A^k is the
    span of the chain vectors L^a v in A^k (k = d + 2a) with a >= i - 1
    and l - a <= e; the widest is i = a + 1, and the sum over i >= 1 is
    the span of those whose chain has d + l - 1 - 2n <= m.  P_m A^k
    therefore jumps only at the indices m = d + l - 1 - 2n, each by the
    number of chains that start in A^d with length l and pass through A^k
    (d <= k <= d + 2(l - 1), k - d even).

    r(d, j) counts the chains through A^d that go on for at least j more
    steps, so r(d, t - 1) - r(d, t) of them have exactly t vectors from
    A^d on.  A chain through A^d either starts there or comes from
    A^(d-2) with one more vector, so the number that start in A^d with
    length l is
        r(d, l-1) - r(d, l) - r(d-2, l) + r(d-2, l+1).
    The tests check this count against the jumps of the flags that
    ``perverse_filtration`` reads off the chains themselves, and of the
    kernel/image formula.
    """
    chain, two_n = _perverse_chain(ring, beta)
    ranks = {}
    for d, dim_d in enumerate(ring.dims):
        j, r = 0, dim_d
        while r:
            ranks[d, j] = r
            j += 1
            r = chain.power(d, j).rank() if d + 2 * j <= ring.top else 0
    jumps = {k: {} for k, dim_k in enumerate(ring.dims) if dim_k}
    for (d, j), r in ranks.items():
        length = j + 1
        starts = (r - ranks.get((d, length), 0) - ranks.get((d - 2, length), 0)
                  + ranks.get((d - 2, length + 1), 0))
        if starts:
            m = d + length - 1 - two_n
            for k in range(d, d + 2 * length, 2):
                jumps[k][m] = jumps[k].get(m, 0) + starts
    return {k: sorted(at.items()) for k, at in jumps.items()}


def perverse_hodge_check(ring: BigradedAlgebra) -> Record:
    """The sigma-bar filtration equals the flag of holomorphic-degree
    cutoffs: P_m in degree k is the span of the (p, k-p) pieces with
    p <= m + shift, at one uniform shift (reported).  Equal flags make
    each perverse jump dim A^(m+shift, k-m-shift), since every basis
    element of degree k has a bidegree (p, k-p); the jumps need no count
    against the Hodge numbers of their own.  The holomorphic-degree flag
    of A^k is the flag of the coordinate vectors ordered by p, so P_m is
    it at cutoff m + shift exactly when the sizes match and every vector
    of P_m's basis prefix is supported on coordinates with p <= m + shift
    (``Filtration.agrees``).

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
    shift = -filts[0].jumps()[0][0]

    def is_hodge(k, filt):
        """filt equals the flag of the coordinates of A^k ordered by
        holomorphic degree p >= 0, step m at cutoff m + shift."""
        lo, _ = ring.slice_of(k)
        dim = filt.ambient
        hodge = _flag(dim, [(ring.bidegrees[lo + t][0],
                             tuple(int(i == t) for i in range(dim)))
                            for t in range(dim)], -1)
        return filt.agrees(hodge, lambda m: m + shift,
                           range(filt.lo, filt.hi + 1))

    if not all(is_hodge(k, filt) for k, filt in filts.items()):
        res.fail("no uniform index shift matches the Hodge flags")
    else:
        res.data["shift"] = shift
    return res


# -- weight filtration ------------------------------------------------------


def weight_filtration(nmat: Matrix, center: int = 0) -> Filtration:
    """Monodromy weight filtration of a nilpotent operator, centered.

    Read off the certified Jordan basis of N that ``_jordan_chains``
    builds on one piece, with shift 0 and offset ``center``: the vector
    N^a v of the chain of a top v of length l has weight
    center + l - 1 - 2a, and W_m is the span of the chain vectors of
    weight <= m.  In a Jordan basis N is a direct sum of Jordan blocks,
    so the flag satisfies Deligne's axioms chain by chain: N lowers the
    weight of each chain vector by 2 or kills it, so N W_m <= W_(m-2);
    and N^j sends the chain vectors of weight center + j one-to-one onto
    those of weight center - j, so N^j : gr_(center+j) -> gr_(center-j)
    is an isomorphism for every j >= 0.  A finite increasing filtration
    with both axioms is unique (Deligne, La conjecture de Weil II,
    1.6.1), so this is the monodromy weight filtration.  Its weights lie
    in [center - nil + 1, center + nil - 1], and a chain of length nil
    reaches both ends, so the flag is listed from W_(center-nil) = 0 to
    W_(center+nil-1) = V.  The tests keep the axioms themselves and the
    kernel/image formula W_m = sum over j >= 0 of
    N^j ker(N^(m-center+2j+1)) as oracles.
    """
    n = nmat.nrows
    if nmat.ncols != n:
        raise ValueError("weight filtration needs a square matrix")
    nil, indexed = _jordan_chains(BlockChain({0: nmat}, {0: n}, shift=0),
                                  center)
    return _flag(n, indexed[0], center - nil)


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
    """N = [L_beta, Lam_rho] on degree blocks, degree-preserving.  The
    completion of rho decides Hard Lefschetz for rho, and its NotHLError
    is raised as ValueError.  N is not walked for nilpotency here: the
    weight filtration of each block (``weak_pw_check``) refuses a block
    that is not nilpotent."""
    form = ring.quadratic_form
    if form is None:
        raise ValueError("ring carries no degree-2 quadratic form")
    beta, _eta, rho = triple.validate(form)
    try:
        lam = complete_sl2(ring, rho).Lam
    except NotHLError as exc:
        raise ValueError("rho does not satisfy Hard Lefschetz") from exc
    return cup_operator(ring, beta).commutator(lam)


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

    N's degree-2 nilpotency index is read off the flag of its weight
    filtration, which starts at W_(center-nil) = 0 (``weight_filtration``);
    the filtrations of the blocks of N also refuse an N that is not
    nilpotent, before any perverse flag is built.

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
    w_filts = {k: weight_filtration(blk, center=k - two_n)
               for k, blk in lagrangian_monodromy(ring, triple).blocks.items()}
    idx = 2 - two_n - w_filts[2].lo
    res.data["degree2_nilpotent_index"] = idx
    res.data["type_iii"] = (idx == 3)
    p_filts = perverse_filtration(ring, beta)
    s = -two_n - 2 * p_filts[0].jumps()[0][0]
    if any(any((j - s) % 2 for j, _ in w_filts[k].jumps())
           or not pf.agrees(w_filts[k], lambda m: 2 * m + s,
                            range(pf.lo - 1, pf.hi + 2))
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
    enumeration, all m and k.  Each class's dims are its perverse jumps,
    counted by ``perverse_jumps`` from the ranks of its one chain of
    powers, so no flag is built."""
    res = Record("isotropic-class independence",
                 "perverse dimensions agree for every isotropic class",
                 {"failures": []})
    form = ring.quadratic_form
    classes = list(itertools.islice(isotropic_stream(form), 10))
    reference = None
    for mu in classes:
        dims = perverse_jumps(ring, mu)
        if reference is None:
            reference = dims
        elif dims != reference:
            res.fail(f"class {mu} gives perverse dims {dims} != {reference}")
    res.data["classes_checked"] = len(classes)
    res.data["dims"] = {k: dict(v) for k, v in (reference or {}).items()}
    return res
