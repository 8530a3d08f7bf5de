"""Sum and intersection of canonical subspaces, for the test oracles.

The package never forms either: the filtrations build each
kernel-image intersection as the image of a kernel."""

from llvkit.linalg import Subspace, rref


def subspace_sum(a, b):
    assert a.ambient == b.ambient
    return Subspace.from_rows(a.ambient, a.basis + b.basis)


def subspace_intersect(a, b):
    """Zassenhaus intersection: rref of [A|A; B|0], rows with zero left."""
    assert a.ambient == b.ambient
    n = a.ambient
    block = [list(v) + list(v) for v in a.basis]
    block += [list(v) + [0] * n for v in b.basis]
    red, _ = rref(block)
    return Subspace.from_rows(n, [r[n:] for r in red if not any(r[:n])])
