"""Seeded nilpotent operators with a known Jordan type.

Each case conjugates a direct sum of nilpotent Jordan blocks by a random
unimodular integer matrix, so the operator has integer entries, looks
generic, and has a Jordan type fixed in advance.  The monodromy weight
filtration is determined by that type alone: a block of size k centred
at c contributes one dimension to each weight c-k+1, c-k+3, ..., c+k-1.
That gives the weight-filtration jobs an answer that does not come from
the code under test.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class NilpotentCase:
    blocks: tuple          # Jordan block sizes, largest first
    center: int
    rows: tuple            # integer matrix P J P^-1, row-major

    @property
    def dim(self):
        return sum(self.blocks)

    def expected_graded_dims(self):
        """Weight -> dim gr_w W, from the Jordan type."""
        dims = Counter()
        for k in self.blocks:
            for w in range(self.center - k + 1, self.center + k, 2):
                dims[w] += 1
        return dict(dims)

    def fraction_rows(self):
        return [[Fraction(x) for x in row] for row in self.rows]


def _partition(rng, total):
    parts = []
    while total:
        k = rng.randint(1, total)
        parts.append(k)
        total -= k
    return tuple(sorted(parts, reverse=True))


def _jordan(blocks):
    n = sum(blocks)
    mat = [[0] * n for _ in range(n)]
    start = 0
    for k in blocks:
        for i in range(start, start + k - 1):
            mat[i][i + 1] = 1
        start += k
    return mat


def _unimodular_pair(rng, n, steps):
    """(P, P^-1) as integer matrices, built from elementary row operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- E P with E = I + c e_ij;  P^-1 <- P^-1 E^-1, E^-1 = I - c e_ij
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= c * row[i]
    return p, p_inv


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def generate(seed, count, max_dim=8):
    """``count`` cases of dimension 2..max_dim, reproducible from ``seed``."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(2, max_dim)
        blocks = _partition(rng, n)
        p, p_inv = _unimodular_pair(rng, n, steps=2 * n)
        rows = _matmul(_matmul(p, _jordan(blocks)), p_inv)
        cases.append(NilpotentCase(blocks, rng.randint(-1, 2),
                                   tuple(tuple(r) for r in rows)))
    return cases
