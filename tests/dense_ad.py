"""ad(x) on a closure's canonical basis as a dense Matrix, for the test
oracles; the package keeps it as the sparse rows of ``_ad_matrix``."""

from llvkit.linalg import Matrix
from llvkit.llv import _ad_matrix


def dense_ad(algebra, x):
    rows = _ad_matrix(algebra, x)
    n = len(rows)
    return Matrix([[row.get(j, 0) for j in range(n)] for row in rows],
                  ncols=n)
