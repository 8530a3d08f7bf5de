import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llvkit.linalg import (DimensionError, Matrix, SparseEchelon, Subspace,
                           congruence_diagonalize, integer_eigenspaces,
                           inverse, kernel, rref, symmetric_signature)
from llvkit.scalars import Gauss, I, as_fraction, div
from dense_ad import dense_ad
from subspace_ops import (full_row_rref, image, reference_subspace,
                          subspace_intersect, subspace_sum)


def _exact(x):
    """An int, a Fraction, or a Gauss whose parts are ints or Fractions."""
    if type(x) is Gauss:
        return _exact(x.re) and _exact(x.im)
    return type(x) in (int, Fraction)


def test_kernel_zero_map():
    assert kernel(Matrix.zeros(2, 2)).dim == 2


def test_kernel_identity():
    assert kernel(Matrix.identity(3)).dim == 0


def test_kernel_rank_one_nilpotent():
    ker = kernel(Matrix([[0, 1], [0, 0]]))
    assert ker.basis == ((Fraction(1), Fraction(0)),)


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rank_nullity(rows):
    m = Matrix(rows)
    assert m.rank() + kernel(m).dim == m.ncols


def test_subspace_disjoint_pair():
    a = Subspace.from_rows(2, [[1, 0]])
    b = Subspace.from_rows(2, [[0, 1]])
    assert subspace_intersect(a, b).dim == 0
    assert subspace_sum(a, b).dim == 2


def test_subspace_idempotence():
    a = Subspace.from_rows(3, [[1, 2, 0], [0, 0, 1]])
    assert subspace_intersect(a, a) == a
    assert subspace_sum(a, a) == a


def test_subspace_modular_law_random():
    rng = random.Random(11)
    for _ in range(25):
        a = Subspace.from_rows(4, [[rng.randint(-2, 2) for _ in range(4)]
                                   for _ in range(3)])
        b = Subspace.from_rows(4, [[rng.randint(-2, 2) for _ in range(4)]
                                   for _ in range(2)])
        inter, total = subspace_intersect(a, b), subspace_sum(a, b)
        assert inter.dim + total.dim == a.dim + b.dim
        assert inter <= a and inter <= b and a <= total and b <= total


@pytest.mark.parametrize("n", range(7))
def test_full_subspace_is_the_canonical_identity(n):
    full = Subspace.full(n)
    ref = Subspace.from_rows(n, Matrix.identity(n).rows)
    assert full == ref
    assert full.basis == ref.basis and full.pivots == ref.pivots
    assert all(type(x) is int for v in full.basis for x in v)


def test_subspace_equality_representation_independent():
    a = Subspace.from_rows(3, [[2, 4, 0], [0, 2, 2]])
    b = Subspace.from_rows(3, [[1, 2, 0], [1, 3, 1]])
    assert a == b
    assert hash(a) == hash(b)


def test_subspace_ambient_mismatch():
    with pytest.raises(DimensionError):
        Subspace.from_rows(2, [[1, 0]]) <= Subspace.from_rows(3, [[1, 0, 0]])


def test_signature_three_two():
    q = Matrix([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]])
    assert symmetric_signature(q) == (3, 2, 0)


def test_signature_zero_form():
    assert symmetric_signature(Matrix.zeros(2, 2)) == (0, 0, 2)


def test_signature_hyperbolic_plane():
    # diagonalizes by hand to x^2 - y^2
    assert symmetric_signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        symmetric_signature(Matrix([[0, 1], [2, 0]]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_signature_congruence_invariant(n, seed):
    rng = random.Random(seed)
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = rng.randint(-3, 3)
    q = Matrix(grid)
    sig = symmetric_signature(q)
    while True:
        p = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if p.rank() == n:
            break
    assert symmetric_signature(p * q * p.transpose()) == sig


def dense_congruence_diagonalize(q: Matrix):
    """The dense Fraction elimination that congruence_diagonalize replaced,
    kept as its oracle: the same pivot and (e_k + e_off) rules on a full
    matrix, so P and the diagonal must agree entry for entry."""
    a = [[as_fraction(x) for x in row] for row in q.rows]
    n = q.nrows
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
                p[k], p[swap] = p[swap], p[k]
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    continue
                sign = 1 if 2 * a[k][off] + a[off][off] != 0 else -1
                for j in range(n):
                    a[k][j] = a[k][j] + sign * a[off][j]
                for i in range(n):
                    a[i][k] = a[i][k] + sign * a[i][off]
                p[k] = [x + sign * y for x, y in zip(p[k], p[off])]
        d = a[k][k]
        if d == 0:
            continue
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                for j in range(k + 1, n):
                    a[i][j] = a[i][j] - f * a[k][j]
                a[i][k] = Fraction(0)
                p[i] = [x - f * y for x, y in zip(p[i], p[k])]
    return Matrix(p, ncols=n), [a[k][k] for k in range(n)]


@st.composite
def _symmetric_grids(draw):
    """Symmetric rational grids, often sparse, with zero diagonals common
    enough to reach both the swap and the (e_k + e_off) moves."""
    n = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0.15, 0.4, 1.0]))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if draw(st.floats(0, 1)) < density:
                x = draw(entry)
                if i == j and draw(st.booleans()):
                    x = Fraction(0)
                grid[i][j] = grid[j][i] = x
    return grid


@settings(max_examples=300, deadline=None)
@given(_symmetric_grids())
def test_congruence_diagonalize_matches_dense_oracle(grid):
    n = len(grid)
    want_p, want_diag = dense_congruence_diagonalize(Matrix(grid, ncols=n))
    int_rows = [[int(x) if x.denominator == 1 else x for x in row]
                for row in grid]
    sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in int_rows]
    for q in (Matrix(grid, ncols=n), int_rows, sparse_rows):
        p, diag = congruence_diagonalize(q)
        assert p == want_p
        assert diag == want_diag
        assert all(type(d) is Fraction for d in diag)
        assert symmetric_signature(q) == (sum(1 for d in diag if d > 0),
                                          sum(1 for d in diag if d < 0),
                                          sum(1 for d in diag if d == 0))


def test_congruence_diagonalize_int_rows_and_errors():
    p, diag = congruence_diagonalize([[0, 2], [2, 0]])
    assert diag == [Fraction(4), Fraction(-1)]
    assert p == Matrix([[1, 1], [Fraction(-1, 2), Fraction(1, 2)]])
    with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
        congruence_diagonalize([[1, 0, 0], [0, 1, 3], [5, 3, 1]])
    with pytest.raises(DimensionError):
        congruence_diagonalize([[1, 0], [0]])
    with pytest.raises(DimensionError):
        congruence_diagonalize(Matrix([], ncols=2))
    with pytest.raises(ValueError, match=r"not symmetric at \(0,1\)"):
        symmetric_signature([{0: 1, 1: 2}, {1: 1}])
    with pytest.raises(DimensionError):
        symmetric_signature([{0: 1}, {2: 1}])


def test_congruence_diagonalize_transform():
    q = Matrix([[0, 1, 2], [1, -2, 0], [2, 0, 3]])
    p, diag = congruence_diagonalize(q)
    d = p * q * p.transpose()
    for i in range(3):
        for j in range(3):
            assert d[i, j] == (diag[i] if i == j else 0)


def test_integer_eigenspaces_diagonal():
    spaces = integer_eigenspaces(Matrix([[-2, 0, 0], [0, 0, 0], [0, 0, 2]]),
                                 [-2, 0, 2])
    assert sorted(spaces) == [-2, 0, 2]
    assert all(s.dim == 1 for s in spaces.values())


def test_integer_eigenspaces_k3_weights(k3):
    from llvkit.lefschetz import classical_weights, weight_operator
    h = weight_operator(k3, classical_weights(k3)).matrix()
    spaces = integer_eigenspaces(h, [-2, 0, 2])
    assert {lam: s.dim for lam, s in spaces.items()} == {-2: 1, 0: 22, 2: 1}


def test_integer_eigenspaces_identity():
    assert integer_eigenspaces(Matrix.identity(4), [1])[1].dim == 4


def test_integer_eigenspaces_rejects_wrong_spectrum():
    with pytest.raises(ValueError, match="not diagonalizable"):
        integer_eigenspaces(Matrix([[0, 1], [0, 0]]), [0, 1])


def test_inverse():
    m = Matrix([[2, 1], [1, 1]])
    assert inverse(m) * m == Matrix.identity(2)
    for m in (Matrix([[1, 1], [1, 1]]), Matrix.zeros(2, 2),
              Matrix([[1, I], [I, -1]])):
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(m)


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _echelon_cases(draw):
    """(field mode, ambient, rows, dict-input flags).  Zeros are frequent,
    and some rows are combinations of earlier ones, so dependent and zero
    rows and 0-dimensional spans all occur; with Gaussian entries the
    rows mix Q and Q(i) values."""
    field = draw(st.booleans())
    gaussian = field and draw(st.booleans())
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), _small_fractions)
    if gaussian:
        entry = st.one_of(entry, st.builds(Gauss, _small_fractions,
                                           _small_fractions))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        index = st.integers(0, len(rows) - 1)
        x_row, y_row = rows[draw(index)], rows[draw(index)]
        a, b = draw(entry), draw(entry)
        rows.append([a * x + b * y for x, y in zip(x_row, y_row)])
    as_dict = draw(st.lists(st.booleans(), min_size=len(rows),
                            max_size=len(rows)))
    return field, n, rows, as_dict


@settings(max_examples=200, deadline=None)
@given(_echelon_cases())
def test_spans_agree_with_subspace(case):
    # differential test against the dense full-row elimination
    field, n, rows, as_dict = case
    ech = SparseEchelon(exact_division=field)
    seen = []
    before = Subspace.zero(n)
    for row, sparse in zip(rows, as_dict):
        vec = {k: x for k, x in enumerate(row) if x} if sparse else row
        assert ech.contains(vec) == before.contains(row)
        seen.append(row)
        after = reference_subspace(n, seen)
        assert ech.add(vec) == (after.dim > before.dim)
        assert ech.dim == after.dim
        assert ech.contains(vec)
        before = after
    if not field:
        # integer mode cleared every denominator
        assert all(type(x) is int for r in ech.rows.values() for x in r.values())
    rows, pivots = ech.canonical()
    assert [tuple(row.get(k, 0) for k in range(n)) for row in rows] == list(
        before.basis)
    assert tuple(pivots) == before.pivots


class _SortedWalkEchelon(SparseEchelon):
    """The engine with its earlier residue walk: sort the whole residue
    after every pivot step, clear the smallest pivot, copy the residue."""

    def reduce(self, vec):
        v = self._sparse(vec)
        while True:
            hit = next((p for p in sorted(v) if p in self.rows), None)
            if hit is None:
                return v
            row, c = self.rows[hit], v[hit]
            lead = 1 if self.exact_division else row[hit]
            out = {k: lead * val for k, val in v.items()}
            for k, val in row.items():
                out[k] = out.get(k, 0) - c * val
            out = {k: _int_if_integral(x) for k, x in out.items() if x}
            if not self.exact_division:
                g = 0
                for x in out.values():
                    g = gcd(g, abs(x))
                out = {k: x // g for k, x in out.items()} if g > 1 else out
            v = out


def _int_if_integral(x):
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


@settings(max_examples=200, deadline=None)
@given(_echelon_cases(), st.booleans())
def test_heap_reduce_matches_the_sorted_walk(case, ints):
    # same residues, rows and canonical rows as the sorted walk, on int,
    # Fraction and (in field mode) Gauss rows
    field, n, rows, as_dict = case
    if ints:
        rows = [[_int_if_integral(x) for x in row] for row in rows]
    ech = SparseEchelon(exact_division=field)
    ref = _SortedWalkEchelon(exact_division=field)
    for row, sparse in zip(rows, as_dict):
        vec = {k: x for k, x in enumerate(row) if x} if sparse else row
        assert ech.reduce(vec) == ref.reduce(vec)
        assert ech.add(vec) == ref.add(vec)
        assert ech.rows == ref.rows
    assert ech.canonical() == ref.canonical()


def test_gaussian_matrix_kernel():
    m = Matrix([[Gauss(1), I], [I, Gauss(-1)]])
    ker = kernel(m)
    assert ker.dim == 1
    v = ker.basis[0]
    assert all(not x for x in m.matvec(v))


def test_rref_canonical():
    rows1, piv1 = rref([[2, 4], [1, 3]])
    rows2, piv2 = rref([[1, 2], [0, 1]])
    assert rows1 == rows2 and piv1 == piv2


@settings(max_examples=300, deadline=None)
@given(_echelon_cases())
def test_rref_matches_the_full_row_elimination(case):
    # rref on SparseEchelon against the independent dense elimination, on
    # Q and mixed Q/Q(i) rows with zero and dependent rows; the oracle
    # keeps Fractions, so entries are compared by value
    _, _, rows, _ = case
    got, pivots = rref(rows)
    want, want_pivots = full_row_rref(rows)
    assert pivots == want_pivots
    assert got == want
    assert all(_normal(x) for row in got for x in row)


@st.composite
def _sparse_factors(draw):
    """Two conformable sparse matrices over Q, or over Q(i) with rational
    and Gaussian entries mixed."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))
    rat = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    value = (st.one_of(rat, st.builds(Gauss, rat, rat))
             if draw(st.booleans()) else rat)
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.just(Fraction(0)), value)
    a = Matrix(draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                             min_size=m, max_size=m)))
    b = Matrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=k, max_size=k)))
    return a, b


@settings(max_examples=80, deadline=None)
@given(_sparse_factors())
def test_sparse_product_matches_triple_loop(factors):
    # the reference multiplies (real, imaginary) Fraction pairs, so it
    # checks the Gauss arithmetic too
    a, b = factors
    naive = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            re = im = Fraction(0)
            for t in range(a.ncols):
                x, y = a[i, t], b[t, j]
                re += x.real * y.real - x.imag * y.imag
                im += x.real * y.imag + x.imag * y.real
            row.append((re, im))
        naive.append(row)
    prod = a * b
    assert [[(x.real, x.imag) for x in row] for row in prod.rows] == naive
    for row in prod.rows:
        for x in row:
            assert _exact(x)


def test_matvec_column_cache_stays_out_of_equality_and_pickling():
    m = Matrix([[0, 2, 0], [Fraction(1, 3), 0, I]])
    twin = Matrix(m.rows)
    assert m.matvec((1, 0, 0)) == (0, Fraction(1, 3))
    assert m.matvec((0, 1, 1)) == (2, I)
    assert m._cols is not None and twin._cols is None
    assert m == twin and hash(m) == hash(twin)
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert copied == m and copied._cols is None


@pytest.mark.parametrize("value", [
    Gauss(Fraction(1, 2), -3),
    Matrix([[Gauss(1, 2), 0], [Fraction(1, 3), I]]),
    Matrix([], ncols=3),
    Subspace.from_rows(3, [[1, 2, Gauss(0, 1)], [0, 1, 1]]),
    Subspace.zero(2),
], ids=["gauss", "matrix", "empty-matrix", "subspace", "zero-subspace"])
def test_exact_types_pickle_and_deepcopy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        if isinstance(value, Matrix):
            assert twin.shape() == value.shape()
        if isinstance(value, Subspace):
            assert twin.pivots == value.pivots


def test_matrix_normalizes_outside_entries():
    # bools, strings and floats from the caller become int or Fraction
    want = ((1, Fraction(1, 2)), (2, Fraction(-3, 4)))
    for mat in (Matrix([[True, "1/2"], ["4/2", -0.75]]),
                Matrix.from_cols([[True, "4/2"], ["1/2", -0.75]])):
        assert mat.rows == want
        assert [type(x) for row in mat.rows for x in row] == [
            int, Fraction, int, Fraction]


def test_matrix_operations_return_normalized_entries():
    # linalg's own results are built without a second normalization pass;
    # renormalizing them through Matrix(...) changes nothing
    a = Matrix([[1, Fraction(1, 2), 0], [Gauss(0, 1), 2, Fraction(-1, 3)]])
    b = Matrix([[3, 0, Gauss(1, -1)], [Fraction(2, 5), 1, 0]])
    sq = Matrix([[2, 1], [Gauss(1, 1), Fraction(1, 2)]])
    results = [a + b, a - b, a.scale(Fraction(2, 3)), a * 3, -a,
               a * b.transpose(), a.transpose(), a.conjugate(),
               Matrix.identity(3), Matrix.zeros(2, 4), inverse(sq),
               Matrix([], ncols=2).transpose(), Matrix.identity(0)]
    for mat in results:
        assert all(_exact(x) for row in mat.rows for x in row)
        assert all(type(row) is tuple for row in mat.rows)
        twin = Matrix(mat.rows, ncols=mat.ncols)
        assert twin == mat and twin.shape() == mat.shape()
    assert results[-2].shape() == (2, 0)
    assert inverse(sq) * sq == Matrix.identity(2)


def _normal(x):
    """The normal form of a Matrix entry: an int when integral, a Fraction
    only with a denominator, a Gauss only with a nonzero imaginary part
    and with parts both of that kind."""
    if type(x) is Gauss:
        return _normal(x.re) and _normal(x.im) and x.im != 0
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


# rationals that often cancel to integers: integral Fractions such as
# Fraction(3, 1) and halves, thirds and quarters of small numerators
_CANCELLING = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_RATIONAL_ENTRIES = st.one_of(st.integers(-3, 3), _CANCELLING,
                              st.integers(-3, 3).map(Fraction))


@st.composite
def _normal_form_operands(draw):
    """Two n x m grids, an m x p grid, a square grid, a vector of length m
    and a scalar, all over Q or all over Q(i), as raw Python values."""
    gaussian = draw(st.booleans())
    entry = (st.one_of(_RATIONAL_ENTRIES,
                       st.builds(Gauss, _RATIONAL_ENTRIES, _RATIONAL_ENTRIES))
             if gaussian else _RATIONAL_ENTRIES)
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))

    def grid(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return (grid(n, m), grid(n, m), grid(m, p), grid(m, m),
            [draw(entry) for _ in range(m)], draw(entry))


@settings(max_examples=200, deadline=None)
@given(_normal_form_operands())
@example(([[1, Fraction(1, 2), Fraction(1, 2)]], [[0, 1, -1]],
          [[Fraction(2)], [2], [Fraction(-2, 3)]],
          [[2, 1, 0], [Fraction(1, 2), Fraction(3), 1], [0, 0, Fraction(1, 4)]],
          [Fraction(4, 1), Fraction(1, 2), Fraction(3, 2)], Fraction(2)))
def test_matrix_entries_stay_in_normal_form(operands):
    a_rows, b_rows, c_rows, sq_rows, vec, scalar = operands
    a, b, c, sq = (Matrix(g) for g in (a_rows, b_rows, c_rows, sq_rows))
    results = [a, b, Matrix.from_cols([list(col) for col in zip(*a_rows)]),
               a * c, a + b, a - b, a.scale(scalar), a * scalar, -a]
    try:
        results.append(inverse(sq))
    except ValueError:
        pass
    for mat in results:
        assert all(_normal(x) for row in mat.rows for x in row)
    # the values are those of plain Python arithmetic on the raw grids
    assert (a * c).rows == tuple(
        tuple(sum((x * y for x, y in zip(row, col)), 0)
              for col in zip(*c_rows)) for row in a_rows)
    assert a.scale(scalar).rows == tuple(
        tuple(scalar * x for x in row) for row in a_rows)
    # the second product reads the column cache the first one built
    for v in (vec, vec[::-1]):
        prod = a.matvec(v)
        assert all(_normal(x) for x in prod)
        assert prod == tuple(sum((x * y for x, y in zip(row, v)), 0)
                             for row in a_rows)
    for sub in (Subspace.from_rows(len(vec), a_rows + b_rows),
                Subspace.from_rows(len(vec), sq_rows)):
        assert all(_normal(x) for v in sub.basis for x in v)
    ech = SparseEchelon(exact_division=True)
    for row in a_rows + b_rows:
        ech.add(row)
    assert all(_normal(x) for x in ech.reduce(vec).values())
    reduced, _ = ech.canonical()
    assert all(_normal(x) for r in reduced for x in r.values())


@settings(max_examples=200, deadline=None)
@given(*[_RATIONAL_ENTRIES] * 5)
def test_gauss_arithmetic_stays_in_normal_form(a, b, c, d, y):
    # Gauss(a, 0) is the rational a; an operation on rationals alone is
    # Python's own arithmetic, which the package brings back with rat
    gx, gy = Gauss(a, b), Gauss(c, d)
    values = [gx, gy]
    if isinstance(gx, Gauss):
        values += [gx + y, y + gx, gx - y, y - gx, gx * y, y * gx, -gx,
                   gx.conjugate(), gx * gx.conjugate(), gx ** 2]
        if y:
            values += [gx / y, div(gx, y)]
    if isinstance(gx, Gauss) or isinstance(gy, Gauss):
        values += [gx + gy, gx - gy, gx * gy]
        if gy:
            values += [gx / gy, div(gx, gy)]
    assert all(_normal(g) for g in values)
    assert gx * gy == Gauss(a * c - b * d, a * d + b * c)


def _reference_kernel(mat):
    """Free-variable basis of the full-row elimination, canonicalized by
    a second one."""
    n = mat.ncols
    red, pivots = full_row_rref(mat.rows)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(v)
    return reference_subspace(n, basis)


def _reference_eigenspaces(mat, candidates):
    n = mat.nrows
    spaces = {}
    for lam in candidates:
        ker = _reference_kernel(mat - Matrix.identity(n).scale(lam))
        if ker.dim:
            spaces[lam] = ker
    if sum(s.dim for s in spaces.values()) != n:
        return None
    return spaces


def _eigenspaces_or_none(mat, candidates):
    try:
        return integer_eigenspaces(mat, candidates)
    except ValueError:
        return None


_RAT = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _sparse_matrices(draw, square=False):
    """Sparse matrices over Q, or over Q(i) with rational and Gaussian
    entries mixed; some rows zero, some shapes m x 0 or 0 x n, and some
    full rank (unit lower times upper triangular)."""
    m = draw(st.integers(0, 6))
    n = m if square else draw(st.integers(0, 6))
    value = (st.one_of(_RAT, st.builds(Gauss, _RAT, _RAT))
             if draw(st.booleans()) else _RAT)
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.just(Fraction(0)), value)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [Fraction(0)] * n
    mat = Matrix(rows, ncols=n)
    if m == n and m and draw(st.booleans()):
        low = Matrix([[1 if i == j else (r[j] if j < i else 0)
                       for j, _ in enumerate(r)] for i, r in enumerate(rows)])
        up = Matrix([[r[j] if j > i else (
            draw(st.sampled_from([1, -2, 3])) if i == j else 0)
            for j, _ in enumerate(r)] for i, r in enumerate(rows)])
        mat = low * up
    return mat


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices(square=True))
def test_inverse_is_a_two_sided_inverse(mat):
    # over Q the engine runs in integer mode, over Q(i) in field mode
    n = mat.nrows
    if len(full_row_rref(mat.rows)[1]) < n:
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(mat)
        return
    inv = inverse(mat)
    assert inv * mat == mat * inv == Matrix.identity(n)


@settings(max_examples=150, deadline=None)
@given(_sparse_matrices())
def test_kernel_matches_dense_reference(mat):
    ker = kernel(mat)
    assert ker == _reference_kernel(mat)
    assert ker.pivots == _reference_kernel(mat).pivots
    for v in ker.basis:
        assert not any(mat.matvec(v))
        assert all(_exact(x) for x in v)


@st.composite
def _diagonalizable(draw):
    """P D P^-1 with D in {-2, 0, 2} and P full rank, over Q or Q(i)."""
    p = draw(_sparse_matrices(square=True).filter(
        lambda a: a.nrows and a.rank() == a.nrows))
    d = [draw(st.sampled_from([-2, 0, 2])) for _ in range(p.nrows)]
    diag = Matrix([[d[i] if i == j else 0 for j in range(p.nrows)]
                   for i in range(p.nrows)])
    return p * diag * inverse(p)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_sparse_matrices(square=True).filter(lambda a: a.nrows),
                 _diagonalizable()),
       st.sampled_from([[2, 0, -2], [0], [1, -1, 0]]))
def test_integer_eigenspaces_match_dense_reference(mat, candidates):
    assert (_eigenspaces_or_none(mat, candidates)
            == _reference_eigenspaces(mat, candidates))


@settings(max_examples=60, deadline=None)
@given(_sparse_matrices().filter(
    lambda a: not any(isinstance(x, Gauss) for r in a.rows for x in r)))
def test_rational_kernel_matches_sympy(mat):
    sympy = pytest.importorskip("sympy")
    ker = kernel(mat)
    if not mat.nrows or not mat.ncols:
        assert ker.dim == mat.ncols
        return
    ref = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                         for x in r] for r in mat.rows]).nullspace()
    rows = [[Fraction(int(x.p), int(x.q)) for x in v] for v in ref]
    assert ker == Subspace.from_rows(mat.ncols, rows)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_sparse_matrices(square=True), _diagonalizable()),
       st.sampled_from([[2, 0, -2], [0], [1, -1, 0]]))
def test_integer_eigenspaces_dict_rows_match_matrix(mat, candidates):
    rows = [{j: x for j, x in enumerate(r) if x} for r in mat.rows]
    assert (_eigenspaces_or_none(rows, candidates)
            == _eigenspaces_or_none(mat, candidates))


def test_integer_eigenspaces_ignore_repeated_candidates():
    # a Jordan block: the kernel must not count twice toward a full split
    with pytest.raises(ValueError, match="fill 1 of 2"):
        integer_eigenspaces(Matrix([[0, 1], [0, 0]]), [0, 0])
    spaces = integer_eigenspaces(Matrix([[2, 0], [0, 0]]), [2, 0, 2])
    assert {lam: s.dim for lam, s in spaces.items()} == {2: 1, 0: 1}


def test_integer_eigenspaces_dict_rows_out_of_range():
    with pytest.raises(DimensionError):
        integer_eigenspaces([{0: 1}, {2: 1}], [0, 1])
    with pytest.raises(DimensionError):
        integer_eigenspaces([{-1: 1}], [0])


def test_k3_ad_weight_kernels_match_dense_reference(k3, k3_closure):
    from llvkit.lefschetz import classical_weights, weight_operator
    from llvkit.llv import _ad_matrix
    h = weight_operator(k3, classical_weights(k3)).matrix()
    admat = dense_ad(k3_closure, h)
    assert kernel(admat) == _reference_kernel(admat)
    spaces = integer_eigenspaces(admat, [2, 0, -2])
    assert spaces == _reference_eigenspaces(admat, [2, 0, -2])
    assert integer_eigenspaces(_ad_matrix(k3_closure, h), [2, 0, -2]) == spaces
    assert {lam: s.dim for lam, s in spaces.items()} == {2: 22, 0: 232, -2: 22}


@st.composite
def _kernel_image_pair(draw):
    """A : V -> W and B : U -> V over Q, or over Q(i) with rational and
    Gaussian entries mixed; each zero, sparse, of rank at most 1, or of
    full rank, and any of U, V, W may be 0-dimensional."""
    p, q, r = (draw(st.integers(0, 5)) for _ in range(3))
    value = (st.one_of(_RAT, st.builds(Gauss, _RAT, _RAT))
             if draw(st.booleans()) else _RAT)
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), value)

    def matrix(nrows, ncols):
        kind = draw(st.sampled_from(["zero", "sparse", "rank1", "full"]))
        if kind == "zero":
            return Matrix.zeros(nrows, ncols)
        if kind == "rank1":
            col = [draw(entry) for _ in range(nrows)]
            row = [draw(entry) for _ in range(ncols)]
            return Matrix([[x * y for y in row] for x in col], ncols=ncols)
        # "full": unit upper trapezoidal, of rank min(nrows, ncols)
        rows = [[draw(entry) if kind == "sparse" or j > i else
                 Fraction(1 if i == j else 0) for j in range(ncols)]
                for i in range(nrows)]
        return Matrix(rows, ncols=ncols)

    return matrix(p, q), matrix(q, r)


@settings(max_examples=300, deadline=None)
@given(_kernel_image_pair())
def test_image_of_kernel_is_kernel_image_intersection(pair):
    # ker A n im B = B ker(AB), the identity the filtrations are built on
    a, b = pair
    rows = [b.matvec(u) for u in kernel(a * b).basis]
    assert Subspace.from_rows(a.ncols, rows) == subspace_intersect(kernel(a), image(b))
