"""ad(x) on a closure's canonical basis, by brackets and exact membership
tests: the oracle of ``llv.ad_grading``, which reads ad(H) of a diagonal H
off the canonical rows and forms no bracket."""

from llvkit.linalg import Matrix
from llvkit.llv import _brackets, _index
from llvkit.scalars import div


def ad_rows(algebra, x):
    """ad(x) as sparse rows {j: A_kj}, [x, b_j] = sum_k A_kj b_k; raises
    ValueError when an exact membership test puts [x, b_j] outside.  x is
    a ``Matrix`` or a ``DegreeOperator`` of the ambient shape."""
    sp, scale = algebra._sparse(x)
    den, mats = algebra._integer_form()
    # x = sp / scale and b_j = M_j / D, so [x, b_j] = [sp, M_j] / (scale D)
    scale *= den
    rows = [{} for _ in mats]
    for j, b in _brackets(sp, _index(mats)).items():
        coeffs = algebra._int_coords(b)
        if coeffs is None:
            raise ValueError("element does not normalize the algebra")
        for k, e in coeffs.items():
            rows[k][j] = div(e, scale)
    return rows


def dense_ad(algebra, x):
    rows = ad_rows(algebra, x)
    n = len(rows)
    return Matrix([[row.get(j, 0) for j in range(n)] for row in rows],
                  ncols=n)
