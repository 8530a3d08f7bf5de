"""Lie-algebra and degree-operator helpers that only the tests call.

``llv_closure`` closes the generators ``llv_generators`` lists, as
``bracket_closure`` does without its record.  ``structure_constants``
and ``verify_closure`` read one ``retested_bracket_rows`` walk to its
end, each bracket re-tested for membership: the verifier itself only
walks a certified algebra's brackets, read at the pivots, as far as
``so_identify`` needs.  ``killing_gram`` contracts such a walk into the
Killing form, which ``so_identify`` never forms.  ``apply_blocks``
applies a ``DegreeOperator`` to a full-ring vector block by block, beside
the dense ``matrix().matvec``; ``weight_operator`` builds the diagonal
H that the package carries as its weights, ``is_sl2_triple`` checks the
three sl2 relations on dense matrices, and ``nilpotent_index`` takes dense
powers.  ``operator_rank`` is the dimension of the span of operators, one
``SparseEchelon`` over their entries, the rank the so(4) and so(4,1)
records no longer compute; ``dense_block`` cuts a block out of a dense
matrix, and ``symplectic_piece_ranks`` is the per-piece rank loop that
``symplectic_hl_check`` replaced by two weight chains."""

from types import MappingProxyType

from llvkit.lefschetz import BlockChain, DegreeOperator, cup_operator
from llvkit.linalg import Matrix, SparseEchelon
from llvkit.llv import MatrixLieAlgebra, lie_closure, llv_generators

# the value of every vanishing bracket in a structure-constant table
_NO_BRACKET = MappingProxyType({})


def llv_closure(ring):
    return lie_closure(llv_generators(ring)[0], ring.field)


def retested_bracket_rows(alg):
    """``alg.bracket_rows()`` with every bracket given the exact membership
    test: the walk of the same canonical basis, not certified."""
    return MatrixLieAlgebra(alg.ambient, alg.pivots, alg._rows,
                            alg.gaussian).bracket_rows()


def structure_constants(alg):
    """(D, table) with table[i][j] = {k: e_ijk} for i < j, where
    [b_i, b_j] = sum_k (e_ijk / D^2) b_k and every e_ijk is integral.
    A vanishing bracket holds the shared, read-only empty mapping
    ``_NO_BRACKET``: most brackets of a large algebra vanish.  Raises
    ValueError when some bracket leaves the span."""
    den, mats = alg._integer_form()
    dim = len(mats)
    table = [dict.fromkeys(range(i + 1, dim), _NO_BRACKET)
             for i in range(dim)]
    for j, row in enumerate(retested_bracket_rows(alg)):
        for i, coeffs in row.items():
            # [M_i, M_j] = -[M_j, M_i]
            table[i][j] = {k: -e for k, e in coeffs.items()}
    return den, table


def verify_closure(alg) -> bool:
    """Exhaustive [b_i, b_j] membership check (quadratic in dim)."""
    try:
        for _ in retested_bracket_rows(alg):
            pass
    except ValueError:
        return False
    return True


def killing_gram(rows, dim):
    """Integer Gram matrix G_ij = tr(E_i E_j), with E_i[k][l] = e_ilk, as
    sparse rows {j: G_ij} without zero entries, read from one walk of
    ``MatrixLieAlgebra.bracket_rows``: ad(M_i) = E_i / D in the basis
    M_k = D b_k, so G = D^2 K(M_i, M_j) = D^4 K(b_i, b_j) for the Killing
    form K.  Each entry E_a[k][l] = x is a, l, x in the flat list byrow[k]
    and a, k, x in bycol[l]; index l is contracted by grouping byrow[l] by
    k against bycol[l], and both are then freed."""
    byrow = [[] for _ in range(dim)]
    bycol = [[] for _ in range(dim)]
    # the bracket e_ijk of row i gives E_i[k][j] = e_ijk, E_j[k][i] = -e_ijk
    for i, row in enumerate(rows):
        for j, coeffs in row.items():
            for k, e in coeffs.items():
                m = -e
                byrow[k] += (i, j, e, j, i, m)
                bycol[j] += (i, k, e)
                bycol[i] += (j, k, m)
    gram = [{} for _ in range(dim)]
    for l in range(dim):
        right = {}                    # k -> [j, E_j[l][k], ...]
        it = iter(byrow[l])
        for j, k, y in zip(it, it, it):
            right.setdefault(k, []).extend((j, y))
        it = iter(bycol[l])
        for i, k, x in zip(it, it, it):
            other = right.get(k)
            if other:
                grow = gram[i]
                jt = iter(other)
                for j, y in zip(jt, jt):
                    grow[j] = grow.get(j, 0) + x * y
        byrow[l] = bycol[l] = None
    return [{j: g for j, g in grow.items() if g} for grow in gram]


def weight_operator(ring, weights) -> DegreeOperator:
    """H acting by ``weights[gi]`` on basis element gi, as diagonal degree
    blocks."""
    blocks = {}
    for k, d in enumerate(ring.dims):
        if d:
            w = weights[ring.offsets[k]:ring.offsets[k] + d]
            blocks[k] = Matrix([[w[r] if r == c else 0 for c in range(d)]
                                for r in range(d)], ncols=d)
    return DegreeOperator(ring, 0, blocks)


def triple_h(tri) -> DegreeOperator:
    """The H of an ``Sl2Triple``, built from its weights."""
    return weight_operator(tri.L.ring, tri.weights)


def is_sl2_triple(tri) -> bool:
    """[L, Lam] = H, [H, L] = 2L and [H, Lam] = -2 Lam for an
    ``Sl2Triple``, on dense matrices."""
    lm, mm, hm = tri.L.matrix(), tri.Lam.matrix(), triple_h(tri).matrix()
    return (lm.commutator(mm) == hm
            and hm.commutator(lm) == lm.scale(2)
            and hm.commutator(mm) == mm.scale(-2))


def nilpotent_index(mat) -> int:
    """Smallest d with mat^d = 0, by dense powers; raises ValueError
    ("operator is not nilpotent") when mat^n is not zero, n = nrows."""
    power, index = Matrix.identity(mat.nrows), 0
    while not power.is_zero():
        if index == mat.nrows:
            raise ValueError("operator is not nilpotent")
        power, index = power * mat, index + 1
    return index


def apply_blocks(op, vec) -> tuple:
    """``op.matrix().matvec(vec)`` for a ``DegreeOperator``, formed block
    by block."""
    out, off = [0] * op.ring.total_dim, op.ring.offsets
    for k, blk in op.blocks.items():
        src = vec[off[k]:off[k] + blk.ncols]
        if blk.nrows and any(src):
            tlo = off[k + op.shift]
            out[tlo:tlo + blk.nrows] = blk.matvec(src)
    return tuple(out)


def operator_rank(ops) -> int:
    """dim span(ops) for operators on one ring, read through
    ``entries()`` and ``shape()``."""
    n = ops[0].shape()[0]
    span = SparseEchelon(exact_division=True)
    for op in ops:
        span.add({r * n + c: x for r, c, x in op.entries()})
    return span.dim


def dense_block(mat, rows_idx, cols_idx) -> Matrix:
    """The rows ``rows_idx`` and columns ``cols_idx`` of a dense matrix."""
    return Matrix([[mat[r, c] for c in cols_idx] for r in rows_idx],
                  ncols=len(cols_idx))


def symplectic_piece_ranks(ring):
    """(failures, blocks_checked): L_sigma^(n-p): (p, q) -> (2n-p, q) for
    p < n and L_sigmabar^(n-q): (p, q) -> (p, 2n-q) for q < n, each piece
    map ranked on its own, on the degree powers of the two operators."""
    n = ring.symplectic_n()
    dims = dict(enumerate(ring.dims))
    chains = {name: BlockChain(cup_operator(ring, point).blocks, dims)
              for name, point in (("sigma", ring.sigma()),
                                  ("sigmabar", ring.sigma_bar()))}
    piece = {}
    for gi, pq in enumerate(ring.bidegrees):
        piece.setdefault(pq, []).append(gi)
    failures, checked = [], 0
    for (p, q), idx in sorted(piece.items()):
        for name, j, pq in (("sigma", n - p, (2 * n - p, q)),
                            ("sigmabar", n - q, (p, 2 * n - q))):
            if j <= 0:
                continue
            checked += 1
            tgt = piece.get(pq, [])
            k = ring.degree_of(idx[0])
            lo, tlo = ring.offsets[k], ring.offsets[k + 2 * j]
            if len(tgt) != len(idx) or dense_block(
                    chains[name].power(k, j), [gi - tlo for gi in tgt],
                    [gi - lo for gi in idx]).rank() != len(idx):
                failures.append((name, (p, q)))
    return failures, checked
