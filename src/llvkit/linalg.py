"""Exact linear algebra: matrices, canonical subspaces, signatures.

One elimination engine serves everything here: ``SparseEchelon``,
incremental and sparse, fraction-free over Z or dividing over Q and Q(i).
``rref`` densifies its canonical rows for ``Subspace``, ``rank`` and
``inverse``; kernels, unique sparse solutions and every span grown one
vector at a time use it directly.  Subspaces are always stored with a
reduced-row-echelon basis, so equality of subspaces is literal equality
of their representations.  All routines are pure and work over
Q or Q(i).  Every Matrix entry is in the normal form of ``scalars``: a
rational is an int when it is integral and a Fraction only when it has a
denominator, and a Gauss, whose parts are of the same kind, only for a
non-real value.  ``Matrix(...)`` brings outside
data to it; the products, sums, eliminations and field-mode echelon rows
built here send each integral Fraction they make back to an int, testing
only values whose type is Fraction, so integer data pays no extra
arithmetic.  Every division goes through ``scalars.div``.  The symmetric
congruence alone works on Fractions and returns its diagonal as
Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .scalars import Gauss, as_fraction, conj, div, rat


class DimensionError(ValueError):
    """Shape mismatch between exact linear-algebra objects."""


def _norm_entry(x):
    t = type(x)
    return x if t is int or t is Gauss else rat(x)


def _ints(row):
    """row as a list whose integral Fractions are ints."""
    return [x.numerator if type(x) is Fraction and x.denominator == 1 else x
            for x in row]


class Matrix:
    """Immutable dense matrix with exact entries.

    ``Matrix(rows)`` and ``Matrix.from_cols`` take outside data and bring
    every entry to normal form with ``_norm_entry``: an int when integral,
    a Fraction only with a denominator, or a Gauss.  The matrices that
    linalg's own operations build from entries already in normal form go
    through ``_of`` instead, which stores the rows as given.

    ``_cols`` caches, on the first ``matvec``, each column's nonzero
    entries as one flat tuple (row, value, row, value, ...), and
    ``_nonzero``, on the first product, each row's nonzero entries as
    (column, value) pairs; the matrix is immutable, so neither cache goes
    stale, and they take no part in equality, hashing or pickling.
    """

    __slots__ = ("rows", "nrows", "ncols", "_cols", "_nonzero")

    def __init__(self, rows, ncols=None):
        data = tuple(tuple(_norm_entry(x) for x in row) for row in rows)
        object.__setattr__(self, "_cols", None)
        object.__setattr__(self, "_nonzero", None)
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "nrows", len(data))
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise DimensionError("ragged matrix rows")
            object.__setattr__(self, "ncols", widths.pop())
        else:
            if ncols is None:
                raise DimensionError("empty matrix needs an explicit column count")
            object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        return (Matrix, (self.rows, self.ncols))

    @staticmethod
    def _of(rows, ncols):
        """A rows-by-ncols Matrix on rows whose entries are already in
        normal form; nothing is converted or checked."""
        mat = object.__new__(Matrix)
        data = tuple(map(tuple, rows))
        object.__setattr__(mat, "_cols", None)
        object.__setattr__(mat, "_nonzero", None)
        object.__setattr__(mat, "rows", data)
        object.__setattr__(mat, "nrows", len(data))
        object.__setattr__(mat, "ncols", ncols)
        return mat

    @staticmethod
    def zeros(nrows, ncols):
        return Matrix._of([[0] * ncols for _ in range(nrows)], ncols)

    @staticmethod
    def identity(n):
        return Matrix._of([[int(i == j) for j in range(n)] for i in range(n)],
                          n)

    @staticmethod
    def from_cols(cols, nrows=None):
        if not cols:
            if nrows is None:
                raise DimensionError("empty column list needs a row count")
            return Matrix.zeros(nrows, 0) if nrows else Matrix([], ncols=0)
        return Matrix([[col[i] for col in cols] for i in range(len(cols[0]))],
                      ncols=len(cols))

    def shape(self):
        return (self.nrows, self.ncols)

    def entries(self):
        """The nonzero entries (row, column, value), row by row."""
        for r, row in enumerate(self.rows):
            for c, x in enumerate(row):
                if x:
                    yield r, c, x

    def nonzero_rows(self):
        """Each row's nonzero entries as a tuple of (column, value) pairs."""
        nz = self._nonzero
        if nz is None:
            nz = tuple([tuple([(c, x) for c, x in enumerate(row) if x])
                        if any(row) else () for row in self.rows])
            object.__setattr__(self, "_nonzero", nz)
        return nz

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __add__(self, other):
        if self.shape() != other.shape():
            raise DimensionError(f"add shape mismatch {self.shape()} vs {other.shape()}")
        return Matrix._of([_ints([a + b for a, b in zip(r, s)])
                           for r, s in zip(self.rows, other.rows)], self.ncols)

    def __sub__(self, other):
        if self.shape() != other.shape():
            raise DimensionError(f"sub shape mismatch {self.shape()} vs {other.shape()}")
        return Matrix._of([_ints([a - b for a, b in zip(r, s)])
                           for r, s in zip(self.rows, other.rows)], self.ncols)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _norm_entry(c)
        return Matrix._of([_ints([c * a if a else a for a in r])
                           for r in self.rows], self.ncols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DimensionError(
                    f"mul shape mismatch {self.shape()} vs {other.shape()}")
            nonzero = other.nonzero_rows()
            out = []
            for r in self.nonzero_rows():
                acc = [0] * other.ncols
                for k, a in r:
                    for c, y in nonzero[k]:
                        acc[c] = acc[c] + a * y
                out.append(_ints(acc))
            return Matrix._of(out, other.ncols)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def matvec(self, v):
        """self * v, walking only the nonzero entries of v."""
        if len(v) != self.ncols:
            raise DimensionError("matvec length mismatch")
        cols = self._cols
        if cols is None:
            flat = [[] for _ in range(self.ncols)]
            for r, row in enumerate(self.rows):
                for c, a in enumerate(row):
                    if a:
                        flat[c] += (r, a)
            cols = tuple(map(tuple, flat))
            object.__setattr__(self, "_cols", cols)
        out = [0] * self.nrows
        for col, x in zip(cols, v):
            if x:
                pairs = iter(col)
                for r, a in zip(pairs, pairs):
                    out[r] = out[r] + a * x
        return tuple(_ints(out))

    def transpose(self):
        return Matrix._of([self.col(j) for j in range(self.ncols)], self.nrows)

    def conjugate(self):
        return Matrix._of([[conj(a) for a in r] for r in self.rows], self.ncols)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionError("trace of a non-square matrix")
        s = 0
        for i in range(self.nrows):
            s = s + self.rows[i][i]
        return s

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def is_symmetric(self):
        return self.nrows == self.ncols and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows) for j in range(i + 1, self.ncols))

    def commutator(self, other):
        return self * other - other * self

    def power(self, k):
        if self.nrows != self.ncols:
            raise DimensionError("power of a non-square matrix")
        out = Matrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def rank(self):
        """The dimension of the row space, from one forward elimination;
        no canonical form is built."""
        ech = SparseEchelon.over(self.rows)
        for r in self.rows:
            ech.add(r)
        return ech.dim

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    The canonical basis of the row space: pivots normalized to 1 and
    cleared above and below, zero rows dropped.  ``SparseEchelon`` does
    the elimination, fraction-free over Z, or in field mode as soon as an
    entry is Gauss, and its canonical rows are densified.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return [], []
    ech = SparseEchelon.over(rows)
    for r in rows:
        ech.add(r)
    reduced, pivots = ech.canonical()
    ncols = len(rows[0])
    out = []
    for row in reduced:
        dense = [0] * ncols
        for k, x in row.items():
            dense[k] = x
        out.append(tuple(dense))
    return out, pivots


class Subspace:
    """A subspace of row vectors in canonical reduced-echelon form."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient, basis, pivots):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", tuple(tuple(v) for v in basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def __reduce__(self):
        return (Subspace, (self.ambient, self.basis, self.pivots))

    @staticmethod
    def from_rows(ambient, rows):
        rows = list(rows)
        for r in rows:
            if len(r) != ambient:
                raise DimensionError("row length does not match ambient dimension")
        basis, pivots = rref(rows)
        return Subspace(ambient, basis, pivots)

    @staticmethod
    def zero(ambient):
        return Subspace(ambient, [], [])

    @staticmethod
    def full(ambient):
        """The whole space: its canonical basis is the identity, no
        elimination needed."""
        basis = [[0] * ambient for _ in range(ambient)]
        for i, row in enumerate(basis):
            row[i] = 1
        return Subspace(ambient, basis, range(ambient))

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def reduce(self, vec):
        """Residue of vec after elimination against the basis."""
        if len(vec) != self.ambient:
            raise DimensionError("vector length does not match ambient dimension")
        v = list(vec)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b if b else a for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def __le__(self, other):
        if not isinstance(other, Subspace):
            raise TypeError("expected a Subspace")
        if self.ambient != other.ambient:
            raise DimensionError(
                f"ambient mismatch {self.ambient} vs {other.ambient}")
        return all(other.contains(v) for v in self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def kernel(mat: Matrix) -> Subspace:
    """Null space {v : mat*v = 0} as a canonical subspace."""
    return _null_space(_sparse_rows(mat), mat.ncols)


def _sparse_rows(mat: Matrix):
    return [{j: x for j, x in enumerate(r) if x} for r in mat.rows]


def _null_space(rows, n, shift=0) -> Subspace:
    """Null space of the sparse rows (over n columns) minus shift on the
    diagonal, from one elimination.

    The columns are eliminated in reverse (column j is index n-1-j):
    fraction-free over Z once a row is cleared of its denominators, in
    field mode as soon as an entry is Gauss.  A fully reduced row then
    has its pivot at the largest original column it touches.  So the
    free-variable vector of a free column f is 1 at f, 0 at the other
    free columns and nonzero only at pivots right of f: these vectors
    are already the reduced echelon basis, in the original order.
    """
    last = n - 1
    ech = SparseEchelon.over(rows)
    for i, r in enumerate(rows):
        vec = {last - j: x for j, x in r.items()}
        if shift:
            vec[last - i] = r.get(i, 0) - shift
        ech.add(vec)
    reduced, pivots = ech.canonical()
    pivset = set(pivots)
    basis = {}
    for f in range(n):
        if last - f not in pivset:
            v = [0] * n
            v[f] = 1
            basis[f] = v
    for row, q in zip(reduced, pivots):
        p = last - q
        for k, x in row.items():
            if k != q:
                basis[last - k][p] = -x
    free = sorted(basis)
    # each list is dropped once Subspace has copied it to a tuple
    return Subspace(n, (basis.pop(f) for f in free), free)


def _sparse_symmetric(q):
    """Rows {j: Fraction} of the nonzero entries of a square symmetric
    matrix given as a Matrix, as rows of scalars (plain ints allowed), or
    as sparse rows {j: scalar}."""
    if isinstance(q, Matrix) and q.nrows != q.ncols:
        raise DimensionError("diagonalization of a non-square matrix")
    rows = q.rows if isinstance(q, Matrix) else q
    n = len(rows)
    a = []
    for row in rows:
        if isinstance(row, dict):
            if not all(0 <= j < n for j in row):
                raise DimensionError("sparse row entry outside the matrix")
            entries = row.items()
        elif len(row) != n:
            raise DimensionError("diagonalization of a non-square matrix")
        else:
            entries = enumerate(row)
        a.append({j: as_fraction(x) for j, x in entries if x})
    bad = [(min(i, j), max(i, j)) for i, row in enumerate(a)
           for j, x in row.items() if a[j].get(i, 0) != x]
    if bad:
        i, j = min(bad)
        raise ValueError(f"matrix is not symmetric at ({i},{j}): "
                         f"{a[i].get(j, Fraction(0))} vs {a[j].get(i, Fraction(0))}")
    return a


def _add_scaled(row, f, other, skip=None):
    """row += f * other on {j: x} rows, dropping entries that cancel."""
    for j, x in other.items():
        if j != skip:
            y = row.get(j, 0) + f * x
            if y:
                row[j] = y
            else:
                row.pop(j, None)


def _congruence(q, track):
    """Diagonal of a symmetric congruence, and with ``track`` the rows
    {j: x} of the transform P.  Sparse: each row holds only the nonzero
    entries of the not yet eliminated block, which stays symmetric, so
    column k is read off row k.

    A heap holds every index whose diagonal may be nonzero, so the first
    j > k with a[j][j] != 0 is found without a scan: only a congruence
    step changes the diagonal of a later row, and it pushes each row it
    touches; an entry is checked when it reaches the top, and dropped
    once it lies at or before k or its diagonal is zero."""
    a = _sparse_symmetric(q)
    n = len(a)
    p = [{i: Fraction(1)} for i in range(n)] if track else None
    nonzero = [j for j in range(n) if a[j].get(j)]
    for k in range(n):
        if not a[k].get(k):
            while nonzero and (nonzero[0] <= k
                               or not a[nonzero[0]].get(nonzero[0])):
                heappop(nonzero)
            swap = nonzero[0] if nonzero else None
            if swap is not None:
                touched = set(a[k]) | set(a[swap]) | {k, swap}
                a[k], a[swap] = a[swap], a[k]
                for i in touched:
                    row = a[i]
                    x, y = row.pop(k, None), row.pop(swap, None)
                    if y is not None:
                        row[k] = y
                    if x is not None:
                        row[swap] = x
                if track:
                    p[k], p[swap] = p[swap], p[k]
            else:
                off = min(a[k], default=None)
                if off is None:
                    continue
                # row and column k gain row and column off; as the whole
                # remaining diagonal vanishes, a[k][k] becomes 2*a[k][off]
                old = a[k]
                new = dict(old)
                _add_scaled(new, 1, a[off], skip=k)
                new[k] = 2 * old[off]
                for i in set(old) | set(new):
                    if i != k:
                        if i in new:
                            a[i][k] = new[i]
                        else:
                            a[i].pop(k, None)
                a[k] = new
                if track:
                    _add_scaled(p[k], 1, p[off])
        rk = a[k]
        d = rk.get(k)
        if not d:
            continue
        # Congruence step: clearing column k by row operations leaves the
        # remaining block symmetric, so column k is never touched again.
        for i, aik in rk.items():
            if i != k:
                f = div(aik, d)
                _add_scaled(a[i], -f, rk, skip=k)
                del a[i][k]
                if a[i].get(i):
                    heappush(nonzero, i)
                if track:
                    _add_scaled(p[i], -f, p[k])
    return p, [a[k].get(k, Fraction(0)) for k in range(n)]


def congruence_diagonalize(q):
    """Rational congruence P*q*P^T = diag; returns (P, diagonal entries).

    ``q`` is a symmetric Matrix or a list of rows (plain ints allowed).
    The pivot at step k is the first nonzero diagonal entry from k on;
    when the remaining diagonal vanishes, the (e_k + e_off) move with the
    first nonzero a[k][off] makes one.  Zero diagonal entries in the
    output mark the radical of the form.
    """
    p, diag = _congruence(q, track=True)
    zero = Fraction(0)
    n = len(diag)
    return Matrix([[row.get(j, zero) for j in range(n)] for row in p],
                  ncols=n), diag


def symmetric_signature(q):
    """Signature (pos, neg, null) of a rational symmetric matrix, given as
    a Matrix, a list of rows, or a list of sparse rows {j: x}."""
    _, diag = _congruence(q, track=False)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return (pos, neg, len(diag) - pos - neg)


def inverse(mat: Matrix) -> Matrix:
    """Exact inverse of a square matrix over Q or Q(i)."""
    if mat.nrows != mat.ncols:
        raise DimensionError("inverse of a non-square matrix")
    n = mat.nrows
    aug = [list(r) + [int(i == j) for j in range(n)]
           for i, r in enumerate(mat.rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix._of([r[n:] for r in red], n)


def integer_eigenspaces(mat, candidates):
    """Eigenspace per candidate integer eigenvalue; demands a full split.

    ``mat`` is a square Matrix, read as its sparse rows, or a list of
    sparse rows {j: x}.  Raises unless the eigenspaces sum (directly) to
    the whole space, i.e. the operator is diagonalizable with spectrum
    inside candidates.
    """
    rows = _sparse_rows(mat) if isinstance(mat, Matrix) else mat
    n = len(rows)
    if (isinstance(mat, Matrix) and mat.ncols != n
            or not all(0 <= j < n for r in rows for j in r)):
        raise DimensionError("eigenspaces of a non-square matrix")
    spaces = {}
    total = 0
    for lam in dict.fromkeys(candidates):      # a repeat would count twice
        ker = _null_space(rows, n, lam)
        if ker.dim:
            spaces[lam] = ker
            total += ker.dim
    if total != n:
        raise ValueError(
            f"not diagonalizable with given spectrum: eigenspaces fill {total} of {n}")
    return spaces


class SparseEchelon:
    """Incremental echelon span over sparse vectors (dict index -> value).

    Integer mode (default) uses fraction-free elimination with gcd
    normalization and clears the denominators of Fraction input; field
    mode divides by pivots (``div``), accepts int, Fraction or Gauss
    values and keeps them in normal form, an int whenever integral.
    Vectors may be dicts or dense sequences.  Rows keep all indices >=
    their pivot, so elimination is a single ascending sweep.
    """

    def __init__(self, exact_division=False):
        self.exact_division = exact_division
        self.rows = {}          # pivot -> dict

    @staticmethod
    def over(rows):
        """An empty echelon for the span of rows (dicts or sequences): in
        field mode exactly when an entry is Gauss."""
        return SparseEchelon(exact_division=any(
            Gauss in map(type, r.values() if isinstance(r, dict) else r)
            for r in rows))

    @property
    def dim(self):
        return len(self.rows)

    def _sparse(self, vec):
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        if self.exact_division:
            return {k: x.numerator if type(x) is Fraction
                    and x.denominator == 1 else x for k, x in items if x}
        v = {k: x for k, x in items if x}
        if not all(type(x) is int for x in v.values()):
            den = lcm(*(x.denominator for x in v.values()))
            v = {k: x.numerator * (den // x.denominator) for k, x in v.items()}
        return v

    def reduce(self, vec):
        """Residue of vec against the rows, as a sparse dict.  A heap holds
        the pivots where it is nonzero: they are cleared in ascending
        order, as a step only fills indices right of its pivot."""
        return self._eliminate(self._sparse(vec))

    def _eliminate(self, v):
        rows = self.rows
        heap = [k for k in v if k in rows]
        heapify(heap)
        while heap:
            hit = heappop(heap)
            c = v.get(hit)
            if c is None:
                continue          # cleared since it was pushed
            row = rows[hit]
            if not self.exact_division:
                lead = row[hit]
                g = gcd(lead, c)
                lead, c = lead // g, c // g
                if lead != 1:
                    for k in v:
                        v[k] *= lead
            for k, val in row.items():
                nv = v.get(k, 0) - c * val
                if not nv:
                    v.pop(k, None)
                    continue
                if k not in v and k in rows:
                    heappush(heap, k)
                v[k] = (nv.numerator if type(nv) is Fraction
                        and nv.denominator == 1 else nv)
            g = 1 if self.exact_division else gcd(*v.values())
            if g > 1:
                for k in v:
                    v[k] //= g
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def add(self, vec) -> bool:
        """Insert a vector; returns True when the dimension grew."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        if self.exact_division:
            lead = v[p]
            if lead != 1:
                v = {k: div(x, lead) for k, x in v.items()}
        elif v[p] < 0:
            v = {k: -x for k, x in v.items()}
        self.rows[p] = v
        return True

    def canonical(self):
        """Fully reduced rows with pivots normalized to 1, sorted; each row
        is reduced by the later ones, which start right of its pivot."""
        pivots = sorted(self.rows)
        back = SparseEchelon(exact_division=True)
        for p in reversed(pivots):
            row = back._eliminate(dict(self.rows[p]))
            lead = row[p]
            back.rows[p] = ({k: div(v, lead) for k, v in row.items()}
                            if lead != 1 else row)
        return [back.rows[p] for p in pivots], pivots


def solve_sparse(rows, rhs, n_unknowns, exact_division=False):
    """Solve a sparse linear system demanding a unique solution.

    ``rows`` are dicts over unknown indices; the right-hand side is
    appended as column ``n_unknowns``.  Returns the solution tuple, or
    None when the system is inconsistent or underdetermined.
    """
    ech = SparseEchelon(exact_division=exact_division)
    for row, b in zip(rows, rhs):
        vec = dict(row)
        if b:
            vec[n_unknowns] = -b
        ech.add(vec)
    reduced, pivots = ech.canonical()
    if n_unknowns in pivots:
        return None
    if len(pivots) != n_unknowns:
        return None
    sol = [0] * n_unknowns
    for row, p in zip(reduced, pivots):
        sol[p] = -row.get(n_unknowns, 0)
    return tuple(sol)
