"""Dense reference elimination, and the sum, intersection and column
space of canonical subspaces, for the test oracles.

``full_row_rref`` is a second, independent elimination: the package runs
every span on ``linalg.SparseEchelon``, so the oracles here do not.  The
package never forms a sum or an intersection: the filtrations build each
kernel-image intersection as the image of a kernel."""

from fractions import Fraction

from llvkit.linalg import Subspace
from llvkit.scalars import Gauss


def _lift(x):
    """x as a Fraction, or as itself when it is a non-real Gauss value:
    the operands of a plain ``/`` are never two ints."""
    return x if isinstance(x, Gauss) else Fraction(x)


def full_row_rref(rows):
    """Dense Gauss-Jordan elimination over Fractions and Gauss values:
    every entry of the pivot row is divided, and every other row is
    updated across its whole length.  Every result is lifted again, as
    Gauss arithmetic returns a real value as an int or a Fraction.
    Returns (rows, pivot columns)."""
    work = [[_lift(x) for x in r] for r in rows if any(r)]
    if not work:
        return [], []
    pivots = []
    r = 0
    for c in range(len(work[0])):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = work[r][c]
        if inv != 1:
            work[r] = [_lift(a / inv) for a in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [_lift(a - f * b) for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def reference_subspace(ambient, rows):
    """The canonical subspace spanned by rows, by ``full_row_rref``."""
    return Subspace(ambient, *full_row_rref(rows))


def subspace_sum(a, b):
    assert a.ambient == b.ambient
    return reference_subspace(a.ambient, a.basis + b.basis)


def subspace_intersect(a, b):
    """Zassenhaus intersection: rref of [A|A; B|0], rows with zero left."""
    assert a.ambient == b.ambient
    n = a.ambient
    block = [list(v) + list(v) for v in a.basis]
    block += [list(v) + [0] * n for v in b.basis]
    red, _ = full_row_rref(block)
    return reference_subspace(n, [r[n:] for r in red if not any(r[:n])])


def image(mat):
    """Column space of mat, canonically (as row vectors of length nrows)."""
    return reference_subspace(mat.nrows, mat.transpose().rows)
