"""Lefschetz operators, Hard Lefschetz tests, and exact sl2-completion.

One engine serves three gradings: the classical weight k - (top/2) on
total degree, and on bigraded rings the holomorphic weight p - n and the
antiholomorphic weight q - n.  The dual operator is produced from the
primitive decomposition with coefficient j(m - j + 1) on the j-th rung of
a length-(m+1) string and certified by the relations on each weight
space.  Those relations fix the dual uniquely; on small rings it is
also re-derived as the degree-(-2) solution of [L, X] = H, and a
disagreement raises.  Powers of a weight-raising operator are products
of its blocks V_w -> V_(w+2) (``BlockChain``), never of full matrices.

Duals of further classes come from one completion (``DualFamily``): the
completion at a base class b and two block brackets with psi(b) =
q(b) Lam_b give a candidate Lam_a for each non-isotropic a, certified
like a full completion; fallbacks to ``complete_sl2`` are counted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Subspace, inverse, kernel, solve_sparse
from .reporting import CheckResult
from .rings import BigradedAlgebra, GradedAlgebra
from .scalars import div, rat, to_field

SOLVE_CROSSCHECK_LIMIT = 30


class NotHLError(ValueError):
    """The given class does not satisfy Hard Lefschetz."""


class DegreeOperator:
    """Linear operator shifting the grading by a fixed even amount.

    Stored as one block per source degree in column convention: the block
    at k maps degree-k coordinates to degree-(k+shift) coordinates.
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
        self._matrix = None

    @staticmethod
    def from_matrix(ring, shift, mat: Matrix):
        """Wrap a full matrix, verifying it is supported on the shift; the
        matrix itself is kept as the operator's ``matrix()``."""
        n = ring.total_dim
        if mat.shape() != (n, n):
            raise ValueError("operator matrix must act on the total ring")
        blocks = {}
        for k in range(ring.top + 1):
            if not ring.dims[k]:
                continue
            lo, hi = ring.slice_of(k)
            tgt = k + shift
            if 0 <= tgt <= ring.top and ring.dims[tgt]:
                tlo, thi = ring.slice_of(tgt)
                blocks[k] = Matrix._of(
                    [row[lo:hi] for row in mat.rows[tlo:thi]], ring.dims[k])
        degree = [ring.degree_of(gi) for gi in range(n)]
        for r, row in enumerate(mat.rows):
            for c, x in enumerate(row):
                if x and degree[r] != degree[c] + shift:
                    raise ValueError(
                        f"matrix entry ({r},{c}) violates degree shift {shift}")
        op = DegreeOperator(ring, shift, blocks)
        op._matrix = mat
        return op

    def matrix(self) -> Matrix:
        if self._matrix is None:
            n = self.ring.total_dim
            grid = [[0] * n for _ in range(n)]
            for k, blk in self.blocks.items():
                tgt = k + self.shift
                if not (0 <= tgt <= self.ring.top):
                    continue
                lo, _ = self.ring.slice_of(k)
                tlo, _ = self.ring.slice_of(tgt)
                for r in range(blk.nrows):
                    row = blk.row(r)
                    for c, val in enumerate(row):
                        if val:
                            grid[tlo + r][lo + c] = val
            self._matrix = Matrix._of(grid, n)
        return self._matrix

    def commutator(self, other: "DegreeOperator") -> Matrix:
        return self.matrix().commutator(other.matrix())

    def commutes_with(self, other: "DegreeOperator") -> bool:
        """[self, other] = 0, decided on the blocks: on each source degree k
        both orders of composition map degree k to k + s + t."""
        for k in range(self.ring.top + 1):
            ab = _compose_at(self, other, k)
            ba = _compose_at(other, self, k)
            diff = ba if ab is None else ab if ba is None else ab - ba
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


def weight_operator_matrix(ring, weights) -> Matrix:
    n = ring.total_dim
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        grid[i][i] = rat(weights[i])
    return Matrix._of(grid, n)


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
    """Multiplication by a degree-2 class, as a shift +2 operator."""
    a_full = _as_degree2(ring, a)
    blocks = {}
    for k in range(ring.top + 1):
        if not ring.dims[k]:
            continue
        tgt = k + 2
        rows = ring.dims[tgt] if tgt <= ring.top else 0
        lo, hi = ring.slice_of(k)
        cols = []
        for gi in range(lo, hi):
            prod = ring.multiply(a_full, ring.basis_vector(gi))
            cols.append(ring.component(prod, tgt) if rows else ())
        blocks[k] = (Matrix.from_cols(cols, nrows=rows) if rows
                     else Matrix([], ncols=ring.dims[k]))
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
    """Powers of an operator that raises a grading by 2, kept as blocks.

    ``blocks[w]`` maps V_w to V_(w+2) in column convention, ``dims[w]``
    is dim V_w, and a missing block is zero.  ``power(w, j)`` is the
    block of the j-th power from V_w to V_(w+2j): the product of the j
    blocks along the chain.  Each source keeps its chain of powers, so
    a longer power costs one more block product.
    """

    def __init__(self, blocks, dims):
        self.blocks = blocks
        self.dims = dims
        self._chains = {}
        self._index = None

    def dim(self, w):
        return self.dims.get(w, 0)

    def block(self, w) -> Matrix:
        blk = self.blocks.get(w)
        if blk is None:
            return Matrix.zeros(self.dim(w + 2), self.dim(w))
        return blk

    def power(self, w, j) -> Matrix:
        chain = self._chains.get(w)
        if chain is None:
            chain = self._chains[w] = [Matrix.identity(self.dim(w))]
        while len(chain) <= j:
            chain.append(self.block(w + 2 * (len(chain) - 1)) * chain[-1])
        return chain[j]

    def nilpotency_index(self) -> int:
        """Smallest d >= 1 with every power(w, d) zero.

        The d-th power of the whole operator is zero exactly when each of
        its blocks power(w, d) is, so this is the index of the full matrix.
        """
        if self._index is None:
            index = 1
            for w, d in sorted(self.dims.items()):
                if d:
                    while not self.power(w, index).is_zero():
                        index += 1
            self._index = index
        return self._index


def _weight_spaces(weights):
    spaces = {}
    for gi, w in enumerate(weights):
        spaces.setdefault(w, []).append(gi)
    return spaces


def _check_shift_two(mat, weights):
    for r, row in enumerate(mat.rows):
        for c, x in enumerate(row):
            if x and weights[r] != weights[c] + 2:
                raise ValueError("operator does not raise the weight by 2")


def _block(mat, rows_idx, cols_idx):
    rows = mat.rows
    return Matrix._of([[rows[r][c] for c in cols_idx] for r in rows_idx],
                      len(cols_idx))


def _weight_chain(mat, spaces) -> BlockChain:
    """The weight blocks V_w -> V_(w+2) of a full matrix."""
    blocks = {w: _block(mat, spaces[w + 2], idx)
              for w, idx in spaces.items() if w + 2 in spaces}
    return BlockChain(blocks, {w: len(idx) for w, idx in spaces.items()})


def hl_test_weights(mat: Matrix, weights) -> bool:
    """L^j : V_{-j} -> V_j bijective for every j >= 1 with a nonzero side."""
    spaces = _weight_spaces(weights)
    _check_shift_two(mat, weights)
    chain = _weight_chain(mat, spaces)
    top = max((abs(w) for w in spaces), default=0)
    for j in range(1, top + 1):
        lo, hi = chain.dim(-j), chain.dim(j)
        if not lo and not hi:
            continue
        if lo != hi or chain.power(-j, j).rank() != lo:
            return False
    return True


def hl_test(ring: GradedAlgebra, a) -> bool:
    """Classical Hard Lefschetz for a degree-2 class."""
    return hl_test_weights(cup_operator(ring, a).matrix(),
                           classical_weights(ring))


@dataclass
class Sl2Triple:
    """An exact sl2-triple (L, Lam, H) adapted to a basis-aligned grading."""

    L: DegreeOperator
    Lam: DegreeOperator
    H: DegreeOperator
    weights: tuple
    primitive: dict          # weight -> Subspace of the full ring
    adapted: dict            # weight -> (columns, inverse) for decomposition

    def check(self) -> bool:
        lm, mm, hm = self.L.matrix(), self.Lam.matrix(), self.H.matrix()
        return (lm.commutator(mm) == hm
                and hm.commutator(lm) == lm.scale(2)
                and hm.commutator(mm) == mm.scale(-2))


def complete_sl2_weights(ring, l_mat: Matrix, weights,
                         l_shift=2, crosscheck=True) -> Sl2Triple:
    """Complete a weight-raising operator to an exact sl2-triple.

    Raises NotHLError when the bijectivity conditions fail.  The work
    runs on weight blocks: L_w : V_w -> V_(w+2) read from ``l_mat``, and
    the dual's blocks Lam_w : V_w -> V_(w-2), assembled from the
    primitive decomposition and put into one full matrix at the end.

    The certificate is  L_(w-2) Lam_w - Lam_(w+2) L_w = w I  on every
    V_w, which is [L, Lam] = H.  The other two relations need no check:
    [H, L] = 2L because L raises the weight by exactly 2 (checked entry
    by entry in ``hl_test_weights``), and [H, Lam] = -2 Lam because Lam
    is built from blocks that lower it by exactly 2.  On rings of total
    dimension <= SOLVE_CROSSCHECK_LIMIT the dual is also solved for as
    the unique weight-lowering solution of [L, X] = H; any other answer
    raises RuntimeError.
    """
    n = ring.total_dim
    if not hl_test_weights(l_mat, weights):
        raise NotHLError("not an HL class")
    spaces = _weight_spaces(weights)
    chain = _weight_chain(l_mat, spaces)
    top = max((abs(w) for w in spaces), default=0)

    # primitive subspace at each weight w <= 0: ker(L^(m+1)) inside V_w,
    # m = -w, and the string p, Lp, ..., L^m p of each basis vector p
    prim = {}
    strings = {}
    for w, idx in spaces.items():
        if w > 0:
            continue
        m = -w
        if chain.dim(m + 2):
            prim[w] = kernel(chain.power(w, m + 1))
        else:
            prim[w] = Subspace.full(len(idx))
        strings[w] = []
        for vec in prim[w].basis:
            string = [vec]
            for j in range(m):
                string.append(chain.block(w + 2 * j).matvec(string[-1]))
            strings[w].append(string)

    lam_blocks = {}
    adapted = {}
    for w, idx in sorted(spaces.items()):
        below = chain.dim(w - 2)
        cols = []
        lo_cols = []       # Lam of each column, in V_(w-2)
        tags = []          # (j, weight of primitive, column within prim basis)
        for j in range(max(w, 0), top + 1):
            pw_weight = w - 2 * j
            m = -pw_weight
            if pw_weight not in strings or j > m:
                continue     # the string p, Lp, ..., L^m p stops at m
            for b_i, string in enumerate(strings[pw_weight]):
                cols.append(string[j])
                tags.append((j, pw_weight, b_i))
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
        tmat = Matrix.from_cols(cols, nrows=len(idx))
        tinv = inverse(tmat)
        adapted[w] = (tags, tmat, tinv)
        # so Lam restricted to V_w is Lo * T^(-1), Lo the lowered columns
        if below:
            lam_blocks[w] = Matrix.from_cols(lo_cols, nrows=below) * tinv

    if not _dual_certified(chain, lam_blocks):
        raise RuntimeError("sl2 completion failed: [L, Lam] != H")

    lam_grid = [[0] * n for _ in range(n)]
    for w, blk in lam_blocks.items():
        for r_pos, gi_out in enumerate(spaces[w - 2]):
            for c_pos, gi_in in enumerate(spaces[w]):
                lam_grid[gi_out][gi_in] = blk[r_pos, c_pos]
    lam_mat = Matrix._of(lam_grid, n)
    h_mat = weight_operator_matrix(ring, weights)
    if (crosscheck and n <= SOLVE_CROSSCHECK_LIMIT
            and _solve_dual(ring, l_mat, weights, spaces, h_mat) != lam_mat):
        raise RuntimeError("sl2 completion failed: the dual differs from "
                           "the unique solution of [L, X] = H")

    l_op = DegreeOperator.from_matrix(ring, l_shift, l_mat)
    lam_op = DegreeOperator.from_matrix(ring, -l_shift, lam_mat)
    h_op = DegreeOperator.from_matrix(ring, 0, h_mat)
    return Sl2Triple(l_op, lam_op, h_op, tuple(weights), prim, adapted)


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
            if row.get(r, 0) != w:
                return False
            if any(v for c, v in row.items() if c != r):
                return False
    return True


def _add_product(acc, a: Matrix, b: Matrix, sign):
    """acc[r] += sign * (a b)[r] for sparse row dicts acc, skipping the
    zero entries of both factors."""
    b_rows = [[(c, y) for c, y in enumerate(row) if y] for row in b.rows]
    for dest, row in zip(acc, a.rows):
        for k, x in enumerate(row):
            if x:
                x = sign * x
                for c, y in b_rows[k]:
                    dest[c] = dest.get(c, 0) + x * y


def _solve_dual(ring, l_mat, weights, spaces, h_mat):
    """Unique weight-lowering solution of [L, X] = H, by exact sparse
    elimination; None when the system is inconsistent or underdetermined."""
    n = ring.total_dim
    unknowns = []
    pos = {}
    for w, idx in sorted(spaces.items()):
        tgt = spaces.get(w - 2, [])
        for gi_out in tgt:
            for gi_in in idx:
                pos[(gi_out, gi_in)] = len(unknowns)
                unknowns.append((gi_out, gi_in))
    if not unknowns:
        return Matrix.zeros(n, n) if h_mat.is_zero() else None
    gaussian = ring.field == "gaussian"
    l_rows = [{k: v for k, v in enumerate(l_mat.row(r)) if v} for r in range(n)]
    l_cols = [{k: l_mat[k, c] for k in range(n) if l_mat[k, c]} for c in range(n)]
    rows = []
    rhs = []
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
            if row or h_mat[r, c]:
                rows.append(row)
                rhs.append(h_mat[r, c])
    sol = solve_sparse(rows, rhs, len(unknowns), exact_division=gaussian)
    if sol is None:
        return None
    grid = [[to_field(0, ring.field)] * n for _ in range(n)]
    for (gi_out, gi_in), v in zip(unknowns, sol):
        grid[gi_out][gi_in] = v
    return Matrix(grid, ncols=n)


def complete_sl2(ring: GradedAlgebra, a) -> Sl2Triple:
    """Classical sl2-triple of a Hard Lefschetz degree-2 class."""
    l_mat = cup_operator(ring, a).matrix()
    return complete_sl2_weights(ring, l_mat, classical_weights(ring))


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
    ``complete_sl2`` (which raises without Hard Lefschetz), and
    ``fallbacks`` counts those calls.
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
        self.ring, self.form, self.fallbacks = ring, form, 0
        self._psi = {k: blk.scale(self._qb)
                     for k, blk in self.base_lam.blocks.items()}
        self._sq = {k: self._psi[k - 2] * blk
                    for k, blk in self._psi.items() if k - 2 in self._psi}
        self._dims = {k - ring.top // 2: d for k, d in enumerate(ring.dims) if d}

    def lam(self, a, l_op=None) -> DegreeOperator:
        """The dual of the degree-2 class ``a``; ``l_op``, when given, is
        ``cup_operator(ring, a)``."""
        a = tuple(a)
        if a == self.base:
            return self.base_lam
        qa = self.form.evaluate(a)
        if qa:
            l_a = (l_op or cup_operator(self.ring, a)).blocks
            blocks = self._candidate(l_a, div(1, 2 * qa * self._qb),
                                     4 * self.form.pair(a, self.base))
            mid = self.ring.top // 2
            chain = BlockChain({k - mid: blk for k, blk in l_a.items()},
                               self._dims)
            if _dual_certified(chain, {k - mid: x for k, x in blocks.items()}):
                return DegreeOperator(self.ring, -2, blocks)
        self.fallbacks += 1
        return complete_sl2(self.ring, a).Lam

    def _candidate(self, l_a, scale, ab4):
        """Blocks of scale * ([[L_a, psi_b], psi_b] + ab4 psi_b)."""
        sq, blocks = self._sq, {}
        for k, p in self._psi.items():
            lp = l_a[k - 2]
            acc = p.scale(ab4) - ((p * lp) * p if p.nrows <= p.ncols
                                  else p * (lp * p)).scale(2)
            if k in sq:
                acc = acc + l_a[k - 4] * sq[k]
            if k + 2 in sq:
                acc = acc + sq[k + 2] * l_a[k]
            blocks[k] = acc.scale(scale)
        return blocks


def sigma_sl2(ring: BigradedAlgebra) -> Sl2Triple:
    """sl2-triple of the symplectic class, graded by holomorphic weight."""
    l_mat = cup_operator(ring, ring.sigma()).matrix()
    return complete_sl2_weights(ring, l_mat, holomorphic_weights(ring))


def sigma_bar_sl2(ring: BigradedAlgebra) -> Sl2Triple:
    l_mat = cup_operator(ring, ring.sigma_bar()).matrix()
    return complete_sl2_weights(ring, l_mat, antiholomorphic_weights(ring))


@dataclass
class PrimitiveDecomposition:
    """x = sum_j L^j x_j with every x_j primitive at its level."""

    x: tuple
    components: tuple        # pairs (j, full vector x_j)

    def reconstruct(self, triple: Sl2Triple, ring) -> tuple:
        total = [to_field(0, ring.field)] * ring.total_dim
        lmat = triple.L.matrix()
        for j, comp in self.components:
            vec = list(comp)
            for _ in range(j):
                vec = list(lmat.matvec(vec))
            total = [a + b for a, b in zip(total, vec)]
        return tuple(total)


def primitive_decomposition(ring, triple: Sl2Triple, x) -> PrimitiveDecomposition:
    """Decompose a weight-homogeneous element along the adapted basis.

    The triple is not re-checked.  An ``Sl2Triple`` is built only by
    ``complete_sl2_weights``, which has already certified it block by
    block; and the output certifies itself, since it must reconstruct x
    and each component x_j must be primitive at its level, both read off
    L alone.
    """
    weights = triple.weights
    present = {weights[gi] for gi, c in enumerate(x) if c}
    if len(present) > 1:
        raise ValueError("element is not weight-homogeneous")
    if not present:
        return PrimitiveDecomposition(tuple(x), ())
    w = present.pop()
    spaces = _weight_spaces(weights)
    idx = spaces[w]
    tags, tmat, tinv = triple.adapted[w]
    coords = tinv.matvec([x[gi] for gi in idx])
    by_j = {}
    n = len(weights)
    for (j, pw_weight, b_i), c in zip(tags, coords):
        if not c:
            continue
        vec = triple.primitive[pw_weight].basis[b_i]
        src_idx = spaces[pw_weight]
        acc = by_j.setdefault(j, [to_field(0, ring.field)] * n)
        for pos, gi in enumerate(src_idx):
            acc[gi] = acc[gi] + c * vec[pos]
    comps = tuple((j, tuple(v)) for j, v in sorted(by_j.items()))
    out = PrimitiveDecomposition(tuple(x), comps)
    if out.reconstruct(triple, ring) != tuple(x):
        raise RuntimeError("primitive decomposition failed to reconstruct")
    lmat = triple.L.matrix()
    for j, comp in comps:
        m = -(w - 2 * j)
        vec = list(comp)
        for _ in range(m + 1):
            vec = list(lmat.matvec(vec))
        if any(vec):
            raise RuntimeError("component is not primitive at its level")
    return out


def symplectic_hl_check(ring: BigradedAlgebra) -> CheckResult:
    """Blockwise symplectic Hard Lefschetz for sigma and sigma-bar."""
    res = CheckResult("symplectic hard lefschetz")
    n = ring.symplectic_n()
    ls = cup_operator(ring, ring.sigma()).matrix()
    lsb = cup_operator(ring, ring.sigma_bar()).matrix()
    piece = {}
    for gi, pq in enumerate(ring.bidegrees):
        piece.setdefault(pq, []).append(gi)
    sig_pq = ring.bidegrees[ring.sigma_index]
    if sig_pq != (2, 0):
        res.fail(f"sigma has bidegree {sig_pq}, expected (2,0)")
        return res
    powers = {0: Matrix.identity(ring.total_dim), 1: ls}
    powers_b = {0: Matrix.identity(ring.total_dim), 1: lsb}
    # the blocks below read L^j for j = n - p and j = n - q, so j <= n
    for j in range(2, n + 1):
        powers[j] = powers[j - 1] * ls
        powers_b[j] = powers_b[j - 1] * lsb
    checked = 0
    for (p, q), idx in sorted(piece.items()):
        if p < n:
            j = n - p
            tgt = piece.get((n + j, q), [])
            if len(tgt) != len(idx):
                res.fail(f"dim IH^({p},{q}) = {len(idx)} != {len(tgt)} = "
                         f"dim IH^({n + j},{q})")
            elif _block(powers[j], tgt, idx).rank() != len(idx):
                res.fail(f"L_sigma^{j}: ({p},{q}) -> ({n + j},{q}) not bijective")
            checked += 1
        if q < n:
            j = n - q
            tgt = piece.get((p, n + j), [])
            if len(tgt) != len(idx):
                res.fail(f"dim IH^({p},{q}) = {len(idx)} != {len(tgt)} = "
                         f"dim IH^({p},{n + j})")
            elif _block(powers_b[j], tgt, idx).rank() != len(idx):
                res.fail(f"L_sigmabar^{j}: ({p},{q}) -> ({p},{n + j}) not bijective")
            checked += 1
    res.data["blocks_checked"] = checked
    return res


def simultaneous_primitivity_check(ring: BigradedAlgebra) -> CheckResult:
    """Commutation of the two dual symplectic operators, plus the
    componentwise simultaneous-primitivity statement on basis elements."""
    res = CheckResult("simultaneous primitivity")
    tri_s = sigma_sl2(ring)
    tri_b = sigma_bar_sl2(ring)
    lam_s, lam_b = tri_s.Lam.matrix(), tri_b.Lam.matrix()
    if not lam_s.commutator(lam_b).is_zero():
        res.fail("[Lam_sigma, Lam_sigmabar] != 0")
    if not tri_s.L.matrix().commutator(lam_b).is_zero():
        res.fail("[L_sigma, Lam_sigmabar] != 0")
    if not tri_b.L.matrix().commutator(lam_s).is_zero():
        res.fail("[L_sigmabar, Lam_sigma] != 0")
    checked = 0
    for gi in range(ring.total_dim):
        x = ring.basis_vector(gi)
        if any(lam_b.matvec(x)):
            continue
        # x is sigma-bar-primitive; its sigma-components must stay so
        dec = primitive_decomposition(ring, tri_s, x)
        for _, comp in dec.components:
            if any(lam_b.matvec(comp)):
                res.fail(f"sigma-component of {ring.label_of(gi)} is not "
                         "sigma-bar-primitive")
        checked += 1
    res.data["primitive_basis_elements"] = checked
    return res
