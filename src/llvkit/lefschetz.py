"""Lefschetz operators, Hard Lefschetz tests, and exact sl2-completion.

Every operator is a ``DegreeOperator``, one block per source degree,
read like a ``Matrix`` through ``entries()`` and ``shape()``.  Its
``matrix()`` is the one densifier, uncached and called only for the
Lie-closure generators and the small-ring cross-check.
One engine serves three gradings: the classical weight k - (top/2) on
total degree, and on bigraded rings the holomorphic weight p - n and the
antiholomorphic weight q - n.  Under the classical weight the degree
blocks already are the weight blocks (``classical_chain``); the other
two gradings regroup the entries.  A grading's operator H is diagonal and
is carried as its weights, never as an operator (``Sl2Triple``).  The
dual operator is produced from the primitive decomposition with
coefficient j(m - j + 1) on the j-th rung of a length-(m+1) string and
certified by the relations on each weight space.  Those relations fix
the dual uniquely; on small rings it is also re-derived as the
degree-(-2) solution of [L, X] = H, and a disagreement raises.  Powers
of a weight-raising operator are products of its weight blocks V_w ->
V_(w+2) (``BlockChain``), never of full matrices.

Duals of further classes come from one completion (``DualFamily``): the
completion at a base class b and two block brackets with psi(b) =
q(b) Lam_b give a candidate Lam_a for each non-isotropic a, certified
like a full completion, once per class; fallbacks to ``complete_sl2`` are
counted.

On a bigraded ring, sigma and sigma-bar are completed on the holomorphic
and antiholomorphic weights.  Simultaneous primitivity is read off three
commutators of the two triples: they make each dual commute with the
other triple, so it maps primitive decompositions onto primitive
decompositions, and no class is decomposed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import (Matrix, Subspace, _ints, _norm_entry, inverse, kernel,
                     solve_sparse)
from .models import vector_stream
from .reporting import Record
from .rings import BigradedAlgebra, GradedAlgebra
from .scalars import div, format_scalar

SOLVE_CROSSCHECK_LIMIT = 30


class NotHLError(ValueError):
    """The given class does not satisfy Hard Lefschetz."""


# the skip reason of the sigma and sigma-bar records: their weights p - n
# and q - n need top degree 4n
_NOT_4N = "ring top degree {} is not 4n"


class DegreeOperator:
    """Linear operator shifting the grading by a fixed even amount.

    Stored as one block per source degree in column convention: the block
    at k maps degree-k coordinates to degree-(k+shift) coordinates.
    ``shape()`` and ``entries()`` read it in full-ring indices, as they
    read a ``Matrix``.
    """

    def __init__(self, ring, shift, blocks):
        self.ring = ring
        self.shift = shift
        self.blocks = dict(blocks)
        for k, blk in self.blocks.items():
            tgt = k + shift
            want_rows = ring.dims[tgt] if 0 <= tgt <= ring.top else 0
            if blk.shape() != (want_rows, ring.dims[k]):
                raise ValueError(
                    f"block at degree {k} has shape {blk.shape()}, expected "
                    f"({want_rows}, {ring.dims[k]})")

    def shape(self):
        n = self.ring.total_dim
        return (n, n)

    def entries(self):
        """The nonzero entries (row, column, value), in full-ring indices."""
        off = self.ring.offsets
        for k, blk in self.blocks.items():
            for r, row in enumerate(blk.rows):
                for c, x in enumerate(row):
                    if x:
                        yield off[k + self.shift] + r, off[k] + c, x

    def matrix(self) -> Matrix:
        n = self.ring.total_dim
        grid = [[0] * n for _ in range(n)]
        for r, c, x in self.entries():
            grid[r][c] = x
        return Matrix._of(grid, n)

    def commutator(self, other: "DegreeOperator") -> "DegreeOperator":
        """[self, other] on the blocks; a block on every nonzero degree."""
        shift, ring = self.shift + other.shift, self.ring
        blocks = {}
        for k, d in enumerate(ring.dims):
            if d:
                blk = _bracket_at(self, other, k)
                if blk is None:
                    tgt = k + shift
                    blk = Matrix.zeros(
                        ring.dims[tgt] if 0 <= tgt <= ring.top else 0, d)
                blocks[k] = blk
        return DegreeOperator(ring, shift, blocks)

    def commutes_with(self, other: "DegreeOperator") -> bool:
        """[self, other] = 0, decided block by block with an early exit."""
        for k in range(self.ring.top + 1):
            diff = _bracket_at(self, other, k)
            if diff is not None and not diff.is_zero():
                return False
        return True

    def __repr__(self):
        return f"DegreeOperator(shift={self.shift:+d} on {self.ring!r})"


def _compose_at(outer, inner, k):
    """The block of outer * inner on degree k; None where a missing block
    makes the composite zero."""
    blk = inner.blocks.get(k)
    if blk is None:
        return None
    top = outer.blocks.get(k + inner.shift)
    return None if top is None else top * blk


def _bracket_at(a, b, k):
    """The block of [a, b] on degree k; None where both composites are."""
    ab, ba = _compose_at(a, b, k), _compose_at(b, a, k)
    if ba is None:
        return ab
    return -ba if ab is None else ab - ba


def _degrees(ring):
    return [ring.degree_of(gi) for gi in range(ring.total_dim)]


def classical_weights(ring: GradedAlgebra):
    """Weight k - top/2 on the degree-k piece."""
    if ring.top % 2:
        raise ValueError("classical weights need an even top degree")
    mid = ring.top // 2
    return tuple(ring.degree_of(gi) - mid for gi in range(ring.total_dim))


def holomorphic_weights(ring: BigradedAlgebra):
    n = ring.symplectic_n()
    return tuple(p - n for p, _ in ring.bidegrees)


def antiholomorphic_weights(ring: BigradedAlgebra):
    n = ring.symplectic_n()
    return tuple(q - n for _, q in ring.bidegrees)


def cup_operator(ring: GradedAlgebra, a) -> DegreeOperator:
    """Multiplication by a degree-2 class, as a shift +2 operator: column
    gj of block k is sum a_i e_i e_gj over the nonzero a_i, in degree k+2.
    The a_i and the ring's structure constants are in normal form, so
    the sums are too once integral Fractions become ints."""
    a_full = _as_degree2(ring, a)
    lo2, hi2 = ring.slice_of(2)
    terms = [(gi, _norm_entry(a_full[gi])) for gi in range(lo2, hi2)
             if a_full[gi]]
    blocks = {}
    for k, d in enumerate(ring.dims):
        if not d:
            continue
        lo, _ = ring.slice_of(k)
        tlo, thi = ring.slice_of(k + 2) if k + 2 <= ring.top else (0, 0)
        grid = [[0] * d for _ in range(thi - tlo)]
        for c in range(d):
            for gi, x in terms:
                for gk, y in ring.mul_basis(gi, lo + c):
                    if tlo <= gk < thi:
                        grid[gk - tlo][c] += x * y
        blocks[k] = Matrix._of(map(_ints, grid), d)
    return DegreeOperator(ring, 2, blocks)


def _as_degree2(ring, a):
    """Accept degree-2 coordinates or a full homogeneous degree-2 vector."""
    if len(a) == ring.total_dim and ring.total_dim != ring.dims[2]:
        deg = ring.homogeneous_degree(a)
        if deg not in (2, None):
            raise ValueError(f"expected a degree-2 class, got degree {deg}")
        return tuple(a)
    if len(a) != ring.dims[2]:
        raise ValueError(
            f"degree-2 class needs {ring.dims[2]} coordinates, got {len(a)}")
    return ring.embed(2, a)


# -- weight-space machinery -------------------------------------------------


class BlockChain:
    """Powers of an operator that raises a grading by ``shift`` (2 unless
    given), kept as blocks.

    ``blocks[w]`` maps V_w to V_(w+shift) in column convention,
    ``dims[w]`` is dim V_w, and a missing block is zero.  ``power(w, j)``
    is the block of the j-th power from V_w to V_(w+j shift): the product
    of the j blocks along the chain.  Each source keeps its chain of
    powers, so a longer power costs one more block product; the first
    power is the block itself, and the zeroth, the identity, is built
    only when asked for.  With shift 0 and one piece, the powers are
    those of one square matrix.
    """

    def __init__(self, blocks, dims, shift=2):
        self.blocks = blocks
        self.dims = dims
        self.shift = shift
        self._chains = {}
        self._index = None

    def dim(self, w):
        return self.dims.get(w, 0)

    def block(self, w) -> Matrix:
        blk = self.blocks.get(w)
        if blk is None:
            return Matrix.zeros(self.dim(w + self.shift), self.dim(w))
        return blk

    def power(self, w, j) -> Matrix:
        if not j:
            return Matrix.identity(self.dim(w))
        chain = self._chains.get(w)
        if chain is None:
            chain = self._chains[w] = [self.block(w)]
        while len(chain) < j:
            chain.append(self.block(w + self.shift * len(chain)) * chain[-1])
        return chain[j - 1]

    def nilpotency_index(self) -> int:
        """Smallest d >= 1 with every power(w, d) zero; raises ValueError
        when the operator is not nilpotent.

        The d-th power of the whole operator is zero exactly when each of
        its blocks power(w, d) is, so this is the index of the full matrix.
        A nilpotent operator's index is at most the total dimension.
        """
        if self._index is None:
            index, total = 1, sum(self.dims.values())
            for w, d in sorted(self.dims.items()):
                if d:
                    while not self.power(w, index).is_zero():
                        index += 1
                        if index > total:
                            raise ValueError("operator is not nilpotent")
            self._index = index
        return self._index


def _weight_spaces(weights):
    spaces = {}
    for gi, w in enumerate(weights):
        spaces.setdefault(w, []).append(gi)
    return spaces


def _regroup(entries, labels, shift, message):
    """(blocks V_l -> V_(l+shift) for the grading ``labels``, spaces V_l)
    from nonzero (row, column, value) entries; every block with two
    nonzero sides is present.  An entry off the shift raises ValueError."""
    spaces = _weight_spaces(labels)
    pos = [0] * len(labels)
    for idx in spaces.values():
        for p, gi in enumerate(idx):
            pos[gi] = p
    grids = {w: [[0] * len(idx) for _ in spaces[w + shift]]
             for w, idx in spaces.items() if w + shift in spaces}
    for r, c, x in entries:
        if labels[r] != labels[c] + shift:
            raise ValueError(message)
        grids[labels[c]][pos[r]][pos[c]] = x
    return {w: Matrix._of(g, len(spaces[w])) for w, g in grids.items()}, spaces


def _weight_chain(l_op: DegreeOperator, weights) -> BlockChain:
    """The weight blocks V_w -> V_(w+2) of ``l_op``, read from its degree
    blocks, with the +2 weight shift checked on every nonzero entry."""
    blocks, spaces = _regroup(l_op.entries(), weights, 2,
                              "operator does not raise the weight by 2")
    return BlockChain(blocks, {w: len(idx) for w, idx in spaces.items()})


def classical_chain(l_op: DegreeOperator) -> BlockChain:
    """The weight blocks of a degree-raising operator under the classical
    weights.  The weight of degree k is k - top/2, so its degree blocks
    already are its weight blocks, and nothing is regrouped."""
    ring = l_op.ring
    if ring.top % 2:
        raise ValueError("classical weights need an even top degree")
    mid = ring.top // 2
    return BlockChain({k - mid: blk for k, blk in l_op.blocks.items()},
                      {k - mid: d for k, d in enumerate(ring.dims) if d})


def hl_test_weights(chain: BlockChain) -> bool:
    """L^j : V_{-j} -> V_j bijective for every j >= 1 with a nonzero side."""
    top = max((abs(w) for w in chain.dims), default=0)
    for j in range(1, top + 1):
        lo, hi = chain.dim(-j), chain.dim(j)
        if not lo and not hi:
            continue
        if lo != hi or chain.power(-j, j).rank() != lo:
            return False
    return True


def hl_test(ring: GradedAlgebra, a) -> bool:
    """Classical Hard Lefschetz for a degree-2 class."""
    return hl_test_weights(classical_chain(cup_operator(ring, a)))


def hl_nonisotropy_check(ring: GradedAlgebra) -> Record:
    """``hl_test`` holds exactly on the non-isotropic classes among the
    first 60 of ``vector_stream``; a ring without a degree-2 form skips."""
    rec = Record("hard lefschetz detects non-isotropy",
                 "L_a powers are bijections exactly when q(a) != 0")
    form = ring.quadratic_form
    if form is None:
        return rec.skip("ring carries no degree-2 form")
    classes = list(itertools.islice(vector_stream(form.dim), 60))
    bad = [v for v in classes if hl_test(ring, v) != (form.evaluate(v) != 0)]
    rec.data = {"classes_checked": len(classes), "violations": bad}
    rec.verdict = "fail" if bad else "pass"
    return rec


@dataclass
class Sl2Triple:
    """An exact sl2-triple (L, Lam, H) adapted to a basis-aligned grading.

    H is diagonal, acting by ``weights[gi]`` on basis element gi, and is
    carried as those weights: [H, X] has entry (w_r - w_c) X_rc, so every
    bracket with H is read off the weights and never formed.
    """

    L: DegreeOperator
    Lam: DegreeOperator
    weights: tuple


def complete_sl2_weights(ring, l_op: DegreeOperator, weights) -> Sl2Triple:
    """Complete a weight-raising cup operator to an exact sl2-triple.

    Raises NotHLError when the bijectivity conditions fail.  The work
    runs on weight blocks: L_w : V_w -> V_(w+2) read from ``l_op``, and
    the dual's blocks Lam_w : V_w -> V_(w-2), assembled from the
    primitive decomposition and put back into degree blocks at the end.

    The certificate is  L_(w-2) Lam_w - Lam_(w+2) L_w = w I  on every
    V_w, which is [L, Lam] = H.  The other two relations need no check:
    [H, L] = 2L because L raises the weight by exactly 2 (checked entry
    by entry in ``_weight_chain``), and [H, Lam] = -2 Lam because Lam
    is built from blocks that lower it by exactly 2.  On rings of total
    dimension <= SOLVE_CROSSCHECK_LIMIT the certified dual is also solved
    for as the unique weight-lowering solution of [L, X] = H; any other
    answer raises RuntimeError.  The certificate already fixes the dual
    (``_dual_certified``), so this cross-check can only agree with it.
    """
    chain = _weight_chain(l_op, weights)
    if not hl_test_weights(chain):
        raise NotHLError("not an HL class")
    spaces = _weight_spaces(weights)
    top = max((abs(w) for w in spaces), default=0)

    # primitive subspace at each weight w <= 0: ker(L^(m+1)) inside V_w,
    # m = -w, and the string p, Lp, ..., L^m p of each basis vector p
    strings = {}
    for w, idx in spaces.items():
        if w > 0:
            continue
        m = -w
        if chain.dim(m + 2):
            prim = kernel(chain.power(w, m + 1))
        else:
            prim = Subspace.full(len(idx))
        strings[w] = []
        for vec in prim.basis:
            string = [vec]
            for j in range(m):
                string.append(chain.block(w + 2 * j).matvec(string[-1]))
            strings[w].append(string)

    lam_blocks = {}
    for w, idx in sorted(spaces.items()):
        below = chain.dim(w - 2)
        cols = []
        lo_cols = []       # Lam of each column, in V_(w-2)
        for j in range(max(w, 0), top + 1):
            pw_weight = w - 2 * j
            m = -pw_weight
            if pw_weight not in strings or j > m:
                continue     # the string p, Lp, ..., L^m p stops at m
            for string in strings[pw_weight]:
                cols.append(string[j])
                # Lam sends the adapted column L^j p to j*(m - j + 1) L^(j-1) p
                if j == 0:
                    lo_cols.append([0] * below)
                else:
                    coef = j * (m - j + 1)
                    lo_cols.append([coef * x for x in string[j - 1]])
        if len(cols) != len(idx):
            raise NotHLError(
                f"primitive decomposition does not fill weight {w}: "
                f"{len(cols)} of {len(idx)}")
        # so Lam restricted to V_w is Lo * T^(-1), T the adapted columns
        # and Lo the lowered ones
        if below:
            lam_blocks[w] = (Matrix.from_cols(lo_cols, nrows=below)
                             * inverse(Matrix.from_cols(cols, nrows=len(idx))))

    if not _dual_certified(chain, lam_blocks):
        raise RuntimeError("sl2 completion failed: [L, Lam] != H")

    # back to degree blocks, checking that Lam lowers the degree by 2
    lam_op = DegreeOperator(ring, -2, _regroup(
        ((r, c, x) for w, blk in lam_blocks.items()
         for r, row in zip(spaces[w - 2], blk.rows)
         for c, x in zip(spaces[w], row) if x),
        _degrees(ring), -2, "the dual does not lower the degree by 2")[0])
    if (ring.total_dim <= SOLVE_CROSSCHECK_LIMIT
            and _solve_dual(ring, l_op, weights, spaces) != lam_op.matrix()):
        raise RuntimeError("sl2 completion failed: the dual differs from "
                           "the unique solution of [L, X] = H")
    return Sl2Triple(l_op, lam_op, tuple(weights))


def _dual_certified(chain: BlockChain, lam_blocks) -> bool:
    """L_(w-2) Lam_w - Lam_(w+2) L_w = w I on every weight space of
    ``chain``, with ``lam_blocks[w]`` : V_w -> V_(w-2) (missing is zero).

    This is [L, Lam] = H.  [H, L] = 2L and [H, Lam] = -2 Lam hold by the
    block shapes.  It also fixes Lam: the difference of two solutions
    commutes with L and lowers the weight by 2, so it is a highest-weight
    vector of weight -2 for ad in End(V), hence zero.

    The two products are accumulated row by row over the nonzero entries
    only and compared with w I entry by entry.
    """
    for w, d in chain.dims.items():
        bracket = [{} for _ in range(d)]
        if w in lam_blocks and w - 2 in chain.blocks:
            _add_product(bracket, chain.blocks[w - 2], lam_blocks[w], 1)
        if w + 2 in lam_blocks and w in chain.blocks:
            _add_product(bracket, lam_blocks[w + 2], chain.blocks[w], -1)
        for r, row in enumerate(bracket):
            if row.pop(r, 0) != w or any(row.values()):
                return False
    return True


def _add_product(acc, a, b: Matrix, sign):
    """acc[r] += sign * (a b)[r] for sparse row dicts acc, skipping the
    zero entries of both factors; the left factor a is a Matrix or a list
    of sparse row dicts."""
    b_rows = b.nonzero_rows()
    a_rows = (a.nonzero_rows() if isinstance(a, Matrix)
              else [row.items() for row in a])
    for dest, row in zip(acc, a_rows):
        for k, x in row:
            if x:
                x = sign * x
                for c, y in b_rows[k]:
                    dest[c] = dest.get(c, 0) + x * y


def _solve_dual(ring, l_op, weights, spaces):
    """Unique weight-lowering solution of [L, X] = H (H diagonal, the
    weights), by exact sparse elimination; None when the system is
    inconsistent or underdetermined."""
    n = ring.total_dim
    unknowns, pos = [], {}
    for w, idx in sorted(spaces.items()):
        tgt = spaces.get(w - 2, [])
        for gi_out in tgt:
            for gi_in in idx:
                pos[(gi_out, gi_in)] = len(unknowns)
                unknowns.append((gi_out, gi_in))
    if not unknowns:
        return None if any(weights) else Matrix.zeros(n, n)
    gaussian = ring.field == "gaussian"
    l_rows, l_cols = [{} for _ in range(n)], [{} for _ in range(n)]
    for r, c, x in l_op.entries():
        l_rows[r][c] = l_cols[c][r] = x
    rows, rhs = [], []
    for r in range(n):
        for c in range(n):
            if weights[r] != weights[c]:
                continue
            row = {}
            for k, v in l_rows[r].items():
                key = pos.get((k, c))
                if key is not None:
                    row[key] = row.get(key, 0) + v
            for k, v in l_cols[c].items():
                key = pos.get((r, k))
                if key is not None:
                    row[key] = row.get(key, 0) - v
            row = {k: v for k, v in row.items() if v}
            h = weights[r] if r == c else 0
            if row or h:
                rows.append(row)
                rhs.append(h)
    sol = solve_sparse(rows, rhs, len(unknowns), exact_division=gaussian)
    if sol is None:
        return None
    grid = [[0] * n for _ in range(n)]
    for (gi_out, gi_in), v in zip(unknowns, sol):
        grid[gi_out][gi_in] = v
    return Matrix(grid, ncols=n)


def complete_sl2(ring: GradedAlgebra, a) -> Sl2Triple:
    """Classical sl2-triple of a Hard Lefschetz degree-2 class; without
    Hard Lefschetz the NotHLError names the class by its degree-2
    coordinates."""
    l_op = cup_operator(ring, a)
    try:
        return complete_sl2_weights(ring, l_op, classical_weights(ring))
    except NotHLError as exc:
        coords = ", ".join(map(format_scalar, ring.component(
            _as_degree2(ring, a), 2)))
        raise NotHLError(f"degree-2 class ({coords}) has no sl2-triple: "
                         f"{exc}") from None


class DualFamily:
    """Lam_a for every non-isotropic degree-2 class a, from the one
    completion at a base class b.

    In so(V + U), U = <e, f> with (e, f) = 1 and x ^ y acting as
    v -> (y, v) x - (x, v) y, L_a = a ^ e, psi(a) = q(a) Lam_a = -2 a ^ f
    and H = 2 e ^ f (Looijenga-Lunts; Verbitsky).  By [x ^ y, z ^ w] =
    (y, z) x ^ w - (y, w) x ^ z - (x, z) y ^ w + (x, w) y ^ z,
    [L_a, psi(b)] = 2 a ^ b + (a, b) H and [a ^ b, psi(b)] = q(b) psi(a)
    - (a, b) psi(b), so [[L_a, psi(b)], psi(b)] = 2 q(b) psi(a) -
    4 (a, b) psi(b) and the candidate is
        Lam_a = ([[L_a, psi_b], psi_b] + 4 (a, b) psi_b) / (2 q(a) q(b)),
    formed on degree blocks as L psi psi - 2 psi L psi + psi psi L with
    the squares psi_b psi_b kept.  It is accepted only by the certificate
    of ``complete_sl2_weights`` against L_a, which makes it the unique
    dual; an isotropic class or a refused candidate falls back to
    ``complete_sl2`` (which raises without Hard Lefschetz).  Each dual is
    formed once per class and kept; ``fallen_back`` holds the classes that
    fell back and ``fallbacks`` counts them.
    """

    def __init__(self, ring: GradedAlgebra, base):
        form = ring.quadratic_form
        if form is None:
            raise ValueError("ring carries no degree-2 quadratic form")
        self.base = tuple(base)
        self.base_lam = complete_sl2(ring, self.base).Lam
        self._qb = form.evaluate(self.base)
        if not self._qb:
            raise ValueError("the base class is isotropic for the ring's form")
        self.ring, self.form = ring, form
        self._lams = {self.base: self.base_lam}     # class -> formed dual
        self.fallen_back = set()
        self._psi = {k: blk.scale(self._qb)
                     for k, blk in self.base_lam.blocks.items()}
        self._sq = {k: self._psi[k - 2] * blk
                    for k, blk in self._psi.items() if k - 2 in self._psi}

    @property
    def fallbacks(self):
        return len(self.fallen_back)

    def lam(self, a, l_op=None) -> DegreeOperator:
        """The dual of the degree-2 class ``a``, formed on its first call;
        ``l_op``, when given, is ``cup_operator(ring, a)``."""
        a = tuple(a)
        lam = self._lams.get(a)
        if lam is None:
            lam = self._lams[a] = self._form_dual(a, l_op)
        return lam

    def _form_dual(self, a, l_op):
        qa = self.form.evaluate(a)
        if qa:
            l_op = l_op or cup_operator(self.ring, a)
            blocks = self._candidate(l_op.blocks, div(1, 2 * qa * self._qb),
                                     4 * self.form.pair(a, self.base))
            mid = self.ring.top // 2
            if _dual_certified(classical_chain(l_op),
                               {k - mid: x for k, x in blocks.items()}):
                return DegreeOperator(self.ring, -2, blocks)
        self.fallen_back.add(a)
        return complete_sl2(self.ring, a).Lam

    def _candidate(self, l_a, scale, ab4):
        """Blocks of scale * ([[L_a, psi_b], psi_b] + ab4 psi_b), each term
        summed into sparse rows of normal-form entries; only integral
        Fractions need normalizing in the block."""
        sq, blocks = self._sq, {}
        for k, p in self._psi.items():
            acc = [{c: ab4 * x for c, x in row} for row in p.nonzero_rows()]
            pl = [{} for _ in range(p.nrows)]
            _add_product(pl, p, l_a[k - 2], 1)
            _add_product(acc, pl, p, -2)
            if k in sq:
                _add_product(acc, l_a[k - 4], sq[k], 1)
            if k + 2 in sq:
                _add_product(acc, sq[k + 2], l_a[k], 1)
            blocks[k] = Matrix._of([_ints([row[c] * scale if row.get(c)
                                           else 0 for c in range(p.ncols)])
                                    for row in acc], p.ncols)
        return blocks


def sigma_sl2(ring: BigradedAlgebra) -> Sl2Triple:
    """sl2-triple of the symplectic class, graded by holomorphic weight."""
    return complete_sl2_weights(ring, cup_operator(ring, ring.sigma()),
                                holomorphic_weights(ring))


def sigma_bar_sl2(ring: BigradedAlgebra) -> Sl2Triple:
    return complete_sl2_weights(ring, cup_operator(ring, ring.sigma_bar()),
                                antiholomorphic_weights(ring))


def symplectic_hl_check(ring: BigradedAlgebra | None) -> Record:
    """Blockwise symplectic Hard Lefschetz for sigma and sigma-bar; a
    fixture without a bigraded model (``ring`` None), or a ring of top
    degree other than 4n, skips.

    L_sigma raises p by 2 (``_weight_chain`` checks it entry by entry) and
    the degree by 2, so it keeps q.  Its holomorphic weight block
    V_(-j) -> V_j is therefore the direct sum over q of the piece maps
    L_sigma^j: (n-j, q) -> (n+j, q), and it is bijective exactly when
    every piece map is.  So ``hl_test_weights`` on the holomorphic chain
    of L_sigma, and on the antiholomorphic chain of L_sigma-bar, decides
    the record; an operator off the weight shift fails it.  The blocks
    checked are the pieces with p < n and those with q < n.
    """
    res = Record("symplectic hard lefschetz",
                 "L_sigma^p: (n-p,q) -> (n+p,q) bijective", {"failures": []})
    if ring is None:
        return res.skip("fixture has no bigraded model")
    if ring.top % 4:
        return res.skip(_NOT_4N.format(ring.top))
    n = ring.symplectic_n()
    for name, point, weights in (
            ("sigma", ring.sigma(), holomorphic_weights(ring)),
            ("sigmabar", ring.sigma_bar(), antiholomorphic_weights(ring))):
        l_op = cup_operator(ring, point)
        try:
            chain = _weight_chain(l_op, weights)
        except ValueError as exc:
            res.fail(f"L_{name}: {exc}")
            continue
        if not hl_test_weights(chain):
            res.fail(f"L_{name}^j: V_(-j) -> V_j not bijective for "
                     "some j")
    pieces = set(ring.bidegrees)
    res.data["blocks_checked"] = (sum(p < n for p, _ in pieces)
                                  + sum(q < n for _, q in pieces))
    return res


def simultaneous_primitivity_check(ring: BigradedAlgebra) -> Record:
    """[Lam_sigma, Lam_sigmabar] = [L_sigma, Lam_sigmabar] =
    [L_sigmabar, Lam_sigma] = 0, which makes every sigma-component of a
    sigma-bar-primitive class sigma-bar-primitive.

    Lam_sigmabar lowers the degree and q by 2 (its blocks are built so),
    so it keeps p and commutes with H_sigma; with the first two relations
    it commutes with the whole sigma-triple.  It therefore maps the
    sigma-primitive decomposition x = sum L_sigma^j x_j term by term onto
    Lam_sigmabar x = sum L_sigma^j (Lam_sigmabar x_j), each Lam_sigmabar x_j
    sigma-primitive of the weight of x_j.  By the uniqueness of that
    decomposition, and since L_sigma^j is injective on those primitives,
    Lam_sigmabar x = 0 exactly when every Lam_sigmabar x_j = 0.  So the
    componentwise statement needs no loop of its own; the basis vectors
    that Lam_sigmabar kills are counted.  A sigma or sigma-bar without
    Hard Lefschetz has no triple and fails the record; a ring of top
    degree other than 4n has no weights p - n, q - n and skips.
    """
    res = Record("simultaneous primitivity",
                 "[Lam_sigma, Lam_sigma-bar] = 0 and components stay "
                 "primitive", {"failures": []})
    if ring.top % 4:
        return res.skip(_NOT_4N.format(ring.top))
    triples = []
    for name, build in (("sigma", sigma_sl2), ("sigmabar", sigma_bar_sl2)):
        try:
            triples.append(build(ring))
        except NotHLError as exc:
            res.fail(f"L_{name} has no sl2-triple: {exc}")
    if not res.ok:
        return res
    tri_s, tri_b = triples
    lam_s, lam_b = tri_s.Lam, tri_b.Lam
    if not lam_s.commutes_with(lam_b):
        res.fail("[Lam_sigma, Lam_sigmabar] != 0")
    if not tri_s.L.commutes_with(lam_b):
        res.fail("[L_sigma, Lam_sigmabar] != 0")
    if not tri_b.L.commutes_with(lam_s):
        res.fail("[L_sigmabar, Lam_sigma] != 0")
    res.data["primitive_basis_elements"] = ring.total_dim - len(
        {c for _, c, _ in lam_b.entries()})
    return res
