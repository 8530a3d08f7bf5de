"""Lie-algebra and degree-operator helpers that only the tests call.

``llv_closure`` closes the generators ``llv_generators`` lists, as
``bracket_closure`` does without its record.  ``structure_constants``
and ``verify_closure`` read one ``MatrixLieAlgebra.bracket_rows`` walk to
its end, each bracket re-tested for membership: the verifier itself only
walks a certified algebra's brackets as far as ``so_identify`` needs.
``apply_blocks`` applies a ``DegreeOperator`` to a full-ring vector
block by block, beside the dense ``matrix().matvec``."""

from types import MappingProxyType

from llvkit.llv import lie_closure, llv_generators

# the value of every vanishing bracket in a structure-constant table
_NO_BRACKET = MappingProxyType({})


def llv_closure(ring):
    return lie_closure(llv_generators(ring)[0], ring.field)


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
    for j, row in enumerate(alg.bracket_rows()):
        for i, coeffs in row.items():
            # [M_i, M_j] = -[M_j, M_i]; 0 - e also negates a GaussInt
            table[i][j] = {k: 0 - e for k, e in coeffs.items()}
    return den, table


def verify_closure(alg) -> bool:
    """Exhaustive [b_i, b_j] membership check (quadratic in dim)."""
    try:
        for _ in alg.bracket_rows():
            pass
    except ValueError:
        return False
    return True


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
