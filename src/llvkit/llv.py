"""Bracket closure of Lefschetz operators and the structure-theorem checks:
the degree (2,0,-2) decomposition, Killing-form identification of the
closure with so of the degree-2 form plus a hyperbolic plane, the so(4,1)
action of a positive 3-space and the symplectic so(4), Weil operators,
derivations, and the subalgebra generated by degree 2.  The LLV closure
is generated by the L_a and one certified dual (``llv_generators``).
``lie_closure`` builds it by one exact elimination, which also proves it
bracket-closed.
``so_identify`` reads the structure constants of such a certified closure
at its pivots, only until they span the whole algebra: a perfect algebra's
Killing signature is that of its trace form on the ambient space, and an
algebra that is not perfect is not semisimple, so it is refused.

The generators of ``lie_closure`` are the only dense matrices formed
here.  Every other check reads ``DegreeOperator`` blocks, or any operator
through ``entries()`` and ``shape()``.  The so(4,1) and so(4) actions
need no closure and no rank: their relation checks make the operators a
Lie homomorphic image of so(4,1), or of sl2 + sl2, whose only ideals
are those of a simple or semisimple algebra, and no operator is zero,
so the dimension is 10, or 6, exactly when the relations hold
(``so41_subalgebra``, ``so4_symplectic``).  No operator H is formed: a
grading is diagonal and is read off its weights, ad(H) off the closure's
canonical rows (``ad_grading``), and the relations with an H, or between
two cup operators, follow from the certified shifts and the ring axioms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, gcd

from .lefschetz import (_NOT_4N, DegreeOperator, DualFamily,
                        classical_weights, complete_sl2, cup_operator,
                        sigma_bar_sl2, sigma_sl2)
from .linalg import (DimensionError, Matrix, SparseEchelon,
                     integer_eigenspaces, symmetric_signature)
from .models import (isotropic_stream, nonisotropic_stream,
                     spanning_hl_classes, verbitsky_dims)
from .reporting import Record
from .rings import BigradedAlgebra, GradedAlgebra
from .scalars import (FIELD_GAUSSIAN, Gauss, clear_denominators, div, rat,
                      rat_sqrt)

# -- sparse integer matrices ------------------------------------------------
#
# A closure works on sparse matrices over Z[i]: each entry an int, or a
# Gauss with int parts where it is not real, as in the normal form of Q(i).
# The kernels below use only the ring operations, so they serve Q and Q(i)
# alike.  Every bracket is formed by one kernel: ``_index`` lists the
# entries of a family of matrices by row and by column, and ``_brackets``
# brackets one matrix with the whole family, forming only the products
# whose entries meet and returning only the nonzero brackets.


def _to_sparse(op):
    """(sp, den) with op = sp / den, sp a sparse matrix over Z[i] given as
    row dicts; op is a ``Matrix`` or a ``DegreeOperator``, read through
    ``entries()``."""
    cells = list(op.entries())
    den, ints = clear_denominators(v for _, _, v in cells)
    sp = {}
    for (r, c, _), v in zip(cells, ints):
        sp.setdefault(r, {})[c] = v
    return sp, den


def _index(mats):
    """Bracket index of sparse integer matrices given as row dicts: for
    each row k the entries (j, c, v) with mats[j][k][c] = v, and for each
    column k the entries (j, r, v) with mats[j][r][k] = v."""
    index = ({}, {})
    for j, m in enumerate(mats):
        _index_add(index, j, m)
    return index


def _index_add(index, j, m):
    """Add the sparse matrix m to the index under the key j."""
    by_row, by_col = index
    for r, row in m.items():
        for c, v in row.items():
            by_row.setdefault(r, []).append((j, c, v))
            by_col.setdefault(c, []).append((j, r, v))


def _brackets(x, index):
    """{j: [x, y_j]} over the matrices y_j of the index, for the nonzero
    brackets only, as row dicts without zero entries or empty rows.  Only
    products whose entries meet are formed: x[r][k] y_j[k][c] from the
    row index at k, y_j[s][r] x[r][k] from the column index at r."""
    by_row, by_col = index
    acc = {}                  # (j, row) -> {col: value}
    for r, xrow in x.items():
        down = by_col.get(r, ())
        for k, a in xrow.items():
            for j, c, v in by_row.get(k, ()):
                dest = acc.setdefault((j, r), {})
                val = dest.get(c, 0) + a * v
                if val:
                    dest[c] = val
                elif c in dest:
                    del dest[c]
            for j, s, v in down:
                dest = acc.setdefault((j, s), {})
                val = dest.get(k, 0) - v * a
                if val:
                    dest[k] = val
                elif k in dest:
                    del dest[k]
    out = {}
    for (j, r), row in acc.items():
        if row:
            out.setdefault(j, {})[r] = row
    return out


def _gcd_normalize_rows(sp):
    """sp divided by the gcd of all real and imaginary parts of its entries."""
    g = 0
    for row in sp.values():
        for v in row.values():
            g = gcd(g, v.real, v.imag)
            if g == 1:
                return sp
    if g > 1:
        return {r: {c: div(v, g) for c, v in row.items()}
                for r, row in sp.items()}
    return sp


def _vectorize(sp, n):
    return {r * n + c: v for r, row in sp.items() for c, v in row.items()}


@dataclass
class MatrixLieAlgebra:
    """Bracket-closed span of matrices with a canonical basis.

    ``_rows`` are the canonical rows: vectorized sparse matrices b_k, each
    equal to 1 at its own pivot column and 0 at every other pivot.  So x
    lies in the span iff x = sum_k x[p_k] b_k, and its coordinates are its
    entries at the pivots.  ``gaussian`` marks an algebra over Q(i).
    ``basis`` gives the b_k as dense matrices, built on first access.

    The integer form is cached on first use: D, the common denominator of
    the real and imaginary parts of the canonical rows, and the sparse
    matrices M_k = D b_k over Z[i], each entry an int, or a Gauss with
    int parts where it is not real.  An integral matrix X lies in the
    span iff D X == sum_k X[p_k] M_k, an exact equality with no
    fraction formed.  Membership and the bracket walk (unless certified)
    test it this way, on the nonzero brackets that ``_brackets`` forms;
    zero lies in every span.  ``certified`` marks an algebra built by
    ``lie_closure``, whose loop proves it bracket-closed.

    ``bracket_rows`` walks the brackets once and stores nothing: row i
    holds the coordinates {k: e_ijk} of [M_i, M_j] on the M_k for every
    j < i with a nonzero bracket, so that [b_i, b_j] = sum_k (e_ijk / D^2)
    b_k.  ``so_identify`` reads this walk, and stops a certified
    algebra's walk once the derived algebra is full.  No table of the
    constants is cached.
    """

    ambient: int
    pivots: list              # vectorized pivot index per basis element
    _rows: list               # canonical sparse rows (exact field values)
    gaussian: bool = False    # defined over Q(i) rather than Q
    _pivot_pos: dict = None   # pivot column -> basis index
    _int_form: tuple = None   # (D, [M_k as row dicts])
    _basis: list = None       # dense Matrix per canonical row
    certified: bool = field(default=False, init=False)   # by lie_closure

    def __post_init__(self):
        self._pivot_pos = {p: i for i, p in enumerate(self.pivots)}

    @property
    def dim(self):
        return len(self._rows)

    @property
    def basis(self):
        """The canonical basis as dense matrices, in canonical order."""
        if self._basis is None:
            n = self.ambient
            self._basis = []
            for row in self._rows:
                grid = [[0] * n for _ in range(n)]
                for k, v in row.items():
                    grid[k // n][k % n] = v
                self._basis.append(Matrix(grid, ncols=n))
        return self._basis

    def _integer_form(self):
        """(D, [M_k as row dicts])."""
        if self._int_form is None:
            n = self.ambient
            keys = [(k, idx) for k, row in enumerate(self._rows) for idx in row]
            den, ints = clear_denominators(
                self._rows[k][idx] for k, idx in keys)
            mats = [{} for _ in self._rows]
            for (k, idx), v in zip(keys, ints):
                mats[k].setdefault(idx // n, {})[idx % n] = v
            self._int_form = (den, mats)
        return self._int_form

    def _pivot_coords(self, sp):
        """{k: X[p_k]}, the entries of a sparse matrix X at the pivots: its
        coordinates, X = sum_k X[p_k] b_k, when X lies in the span."""
        n, pos = self.ambient, self._pivot_pos
        coeffs = {}
        for r, row in sp.items():
            base = r * n
            for c, v in row.items():
                k = pos.get(base + c)
                if k is not None:
                    coeffs[k] = v
        return coeffs

    def _int_coords(self, sp):
        """``_pivot_coords`` of a sparse integral matrix X inside the span;
        None outside.  Decided by the exact test D X == sum_k X[p_k] M_k."""
        den, mats = self._integer_form()
        n = self.ambient
        coeffs = self._pivot_coords(sp)
        rest = {r * n + c: den * v for r, row in sp.items()
                for c, v in row.items()}
        for k, e in coeffs.items():
            for r, row in mats[k].items():
                base = r * n
                for c, v in row.items():
                    idx = base + c
                    nv = rest.get(idx, 0) - e * v
                    if nv:
                        rest[idx] = nv
                    elif idx in rest:
                        del rest[idx]
        return None if rest else coeffs

    def bracket_rows(self):
        """Yield, for i = 0, 1, ..., the row {j: {k: e_ijk}} of the
        nonzero brackets D [M_i, M_j] = sum_k e_ijk M_k with j < i; every
        e_ijk is integral.  Row i brackets M_i with an index of the M_j,
        j < i, that grows as i walks up, so only the nonzero brackets are
        formed, and nothing is kept once the walk has passed.  A certified
        algebra reads each bracket's coordinates at the pivots, as
        ``lie_closure`` proved every bracket in the span (see
        ``so_identify``).  Any other span gives each bracket one exact
        membership test, and raises ValueError when some bracket leaves
        it."""
        mats = self._integer_form()[1]
        coords = self._pivot_coords if self.certified else self._int_coords
        index = ({}, {})              # holds M_j for every j < i
        for i, m in enumerate(mats):
            row = {}
            for j, b in _brackets(m, index).items():
                coeffs = coords(b)
                if coeffs is None:
                    raise ValueError("algebra is not bracket-closed")
                row[j] = coeffs
            yield row
            _index_add(index, i, m)

    def _sparse(self, op):
        """``_to_sparse`` of an operator on the ambient space; any other
        shape raises DimensionError, as its r n + c would alias."""
        n = self.ambient
        if op.shape() != (n, n):
            raise DimensionError(f"operator of shape {op.shape()} on a "
                                 f"closure of {n} x {n} matrices")
        return _to_sparse(op)

    def contains(self, op) -> bool:
        """op, a ``Matrix`` or a ``DegreeOperator``, lies in the span."""
        return self._int_coords(self._sparse(op)[0]) is not None


def lie_closure(generators, field) -> MatrixLieAlgebra:
    """Smallest bracket-closed subspace containing the generators, over
    ``field`` (``FIELD_RATIONAL`` or ``FIELD_GAUSSIAN``).

    One path serves Q and Q(i).  The field is the one given, the field of
    the ring the generators act on; it is never read off the entries,
    which over Q(i) are rational whenever they are real.  The generators
    are cleared of denominators into sparse matrices over Z[i], each
    entry an int or a Gauss with int parts.  One ``SparseEchelon`` span S
    reduces every generator and every bracket exactly as it arises, in
    the mode its generators' values call for (``SparseEchelon.over``):
    fraction-free when they are all real, as brackets of real matrices
    are real, in field mode when one is a Gauss.  Its canonical rows are
    those of the span, whichever the mode.  Each element x accepted into
    S joins the queue and is bracketed with every generator in one
    ``_brackets`` pass; [x, g] = -[g, x] spans the same line, and the
    canonical basis does not depend on the sign.

    The loop proves the result ``certified``, so no certificate pass
    follows.  S is spanned by the queue.  Every queue element x was
    bracketed with every generator g, and each [x, g] was reduced
    exactly, so it lies in S: ad(g) S lies in S.  Every generator lies in
    S.  By the Jacobi identity the y with [y, S] in S form a subalgebra;
    it holds every g, so it holds the generated algebra A.  S, spanned by
    brackets of generators, lies in A, so [S, S] lies in S and S = A.
    """
    gens = [g if isinstance(g, Matrix) else Matrix(g) for g in generators]
    if not gens:
        raise ValueError("lie_closure needs at least one generator")
    n = gens[0].nrows
    for g in gens:
        if g.shape() != (n, n):
            raise ValueError("generators must be square matrices of equal size")
    sparse_gens = [_gcd_normalize_rows(_to_sparse(g)[0]) for g in gens]
    span = SparseEchelon.over(row for g in sparse_gens for row in g.values())
    queue = [sp for sp in sparse_gens if span.add(_vectorize(sp, n))]
    index = _index(sparse_gens)
    for x in queue:                        # grows while it is walked
        brackets = _brackets(x, index)
        for j in sorted(brackets):         # in generator order
            b = _gcd_normalize_rows(brackets[j])
            if span.add(_vectorize(b, n)):
                queue.append(b)
    rows, pivots = span.canonical()
    algebra = MatrixLieAlgebra(n, pivots, rows, field == FIELD_GAUSSIAN)
    algebra.certified = True
    return algebra


# -- structure checks -------------------------------------------------------


class DecompositionError(ValueError):
    """The adjoint weight decomposition left the expected eigenvalues."""


def ad_grading(algebra: MatrixLieAlgebra, weights):
    """Split the algebra into ad(H)-eigenspaces with eigenvalues 2, 0, -2,
    for the diagonal H acting by ``weights[r]`` on the r-th ambient basis
    vector.

    Returns the three eigenspaces as lists of coordinate vectors on the
    algebra's canonical basis; a vector c stands for sum_k c_k b_k.

    No bracket is formed.  ad(H) multiplies the matrix unit E_rc by
    w_r - w_c, so the ad(H)-stable spans are the direct sums of spans of
    matrices each supported on one weight difference.  The reduced
    echelon basis of such a sum is the union of those of its summands
    (their supports are disjoint, so the union is already reduced, and
    the reduced basis is unique).  So the span is ad(H)-stable exactly
    when each canonical row b_k is supported on one difference d_k, and
    ad(H) is then the diagonal matrix of the d_k.  A row with two
    differences raises DecompositionError; ``integer_eigenspaces`` splits
    the diagonal and refuses a d_k outside {2, 0, -2}.
    """
    n = algebra.ambient
    if len(weights) != n:
        raise DimensionError(f"{len(weights)} weights on a closure of "
                             f"{n} x {n} matrices")
    diagonal = []
    for k, row in enumerate(algebra._rows):
        diffs = {weights[idx // n] - weights[idx % n] for idx in row}
        if len(diffs) != 1:
            raise DecompositionError("decomposition violated: element does "
                                     "not normalize the algebra")
        d = diffs.pop()
        diagonal.append({k: d} if d else {})
    try:
        spaces = integer_eigenspaces(diagonal, [2, 0, -2])
    except ValueError as exc:
        raise DecompositionError(f"decomposition violated: {exc}") from exc
    return tuple(list(spaces[lam].basis) if lam in spaces else []
                 for lam in (2, 0, -2))


def ad_grading_check(algebra: MatrixLieAlgebra, ring: GradedAlgebra) -> Record:
    """The closure splits under the classical weights of ``ring``
    (``ad_grading``); the record holds the three eigenspace dimensions."""
    rec = Record("adjoint weight decomposition",
                 "closure splits into ad(H) eigenvalues 2, 0, -2")
    try:
        rec.data["dims"] = [len(space) for space in ad_grading(
            algebra, classical_weights(ring))]
    except DecompositionError as exc:
        rec.verdict, rec.data = "fail", {"error": str(exc)}
    return rec


def weil_operator(ring: BigradedAlgebra) -> DegreeOperator:
    """[L_gamma, Lam_gamma'] for gamma = sigma + sigma-bar and gamma' its
    imaginary partner; asserted equal to i(H_sigma - H_sigma-bar), the
    diagonal operator acting by i(p - q) on each basis element of
    bidegree (p, q), entry by entry."""
    if ring.field != "gaussian":
        raise ValueError("the Weil operator needs the field extended by i")
    sig, sigb = ring.sigma(), ring.sigma_bar()
    gamma = ring.add(sig, sigb)
    gamma_p = ring.scale(tuple(a - b for a, b in zip(sig, sigb)), Gauss(0, -1))
    c_op = cup_operator(ring, gamma).commutator(complete_sl2(ring, gamma_p).Lam)
    if _cells(c_op) != {(gi, gi): Gauss(0, p - q) for gi, (p, q)
                        in enumerate(ring.bidegrees) if p != q}:
        raise RuntimeError("Weil operator mismatch: [L_gamma, Lam_gamma'] "
                           "!= i(H_sigma - H_sigma-bar)")
    return c_op


def weil_check(ring: BigradedAlgebra) -> Record:
    """``weil_operator`` on a ring over Q(i); a rational ring skips."""
    rec = Record("Weil operator", "[L_gamma, Lam_gamma'] acts as i(p-q)")
    if ring.field != FIELD_GAUSSIAN:
        return rec.skip("needs the field extended by i; rerun with "
                        "--field gaussian")
    try:
        weil_operator(ring)
    except RuntimeError as exc:
        rec.verdict, rec.data = "fail", {"error": str(exc)}
    return rec


def derivation_check(d, ring: GradedAlgebra) -> bool:
    """True iff d(x*y) = d(x)*y + x*d(y) on all basis pairs.  With s the
    least degree shift of d, a pair with deg e_i + deg e_j + s > top is
    skipped: all its terms vanish.  When every shift is even, d keeps
    parity, and graded commutativity turns the identity on (e_j, e_i)
    into (-1)^(deg e_i deg e_j) times the one on (e_i, e_j): only i <= j
    is checked.  d is a ``Matrix`` or a ``DegreeOperator``, read through
    its nonzero ``entries()``."""
    n = ring.total_dim
    if d.shape() != (n, n):
        raise ValueError("operator must act on the total ring")
    dcols = [{} for _ in range(n)]
    for r, c, v in d.entries():
        dcols[c][r] = v
    deg = [ring.degree_of(gi) for gi in range(n)]
    shifts = {deg[l] - deg[gi] for gi, col in enumerate(dcols) for l in col}
    reach = ring.top - min(shifts, default=0)   # largest deg e_i + deg e_j
    even = all(s % 2 == 0 for s in shifts)

    def add(acc, c, pairs):
        for k, v in pairs:
            nv = acc.get(k, 0) + c * v
            if nv:
                acc[k] = nv
            elif k in acc:
                del acc[k]

    for gi in range(n):
        for gj in range(gi if even else 0, n):
            if deg[gi] + deg[gj] > reach:
                break                       # the basis is sorted by degree
            left, right = {}, {}
            for gk, c in ring.mul_basis(gi, gj):
                add(left, c, dcols[gk].items())
            for gk, c in dcols[gi].items():         # d(e_i) * e_j
                add(right, c, ring.mul_basis(gk, gj))
            for gk, c in dcols[gj].items():         # e_i * d(e_j)
                add(right, c, ring.mul_basis(gi, gk))
            if left != right:
                return False
    return True


def derivations_check(ring: GradedAlgebra, duals: DualFamily) -> Record:
    """[L_a, Lam_b] is a derivation (``derivation_check``) for the six
    pairs of the first four classes of ``nonisotropic_stream``."""
    classes = itertools.islice(nonisotropic_stream(ring.quadratic_form), 4)
    pairs = list(itertools.combinations(classes, 2))
    bad = [(a, b) for a, b in pairs if not derivation_check(
        cup_operator(ring, a).commutator(duals.lam(b)), ring)]
    return Record("commutators act as derivations",
                  "[L_a, Lam_b] is a derivation of the ring",
                  {"pairs_checked": len(pairs), "violations": bad},
                  "fail" if bad else "pass")


@dataclass
class SoReport:
    dim: int
    expected_dim: int
    killing_signature: tuple      # (compact, noncompact)
    expected_signature: tuple
    verdict: bool


class NotSemisimpleError(ValueError):
    pass


def _trace_gram(algebra: MatrixLieAlgebra):
    """Integer Gram matrix T_ij = tr(M_i M_j) of the trace form on the
    ambient space, as sparse rows {j: T_ij} without zero entries: the
    entry (r, c) of M_i meets only the entry (c, r) of M_j, so the
    entries are grouped by position and each position paired with its
    transpose."""
    n = algebra.ambient
    mats = algebra._integer_form()[1]
    at = {}                           # r n + c -> [(i, M_i[r][c]), ...]
    for i, m in enumerate(mats):
        for r, row in m.items():
            for c, v in row.items():
                at.setdefault(r * n + c, []).append((i, v))
    gram = [{} for _ in mats]
    for idx, left in at.items():
        right = at.get(idx % n * n + idx // n)
        if right:
            for i, x in left:
                grow = gram[i]
                for j, y in right:
                    grow[j] = grow.get(j, 0) + x * y
    return [{j: g for j, g in grow.items() if g} for grow in gram]


def so_identify(algebra: MatrixLieAlgebra, b2: int) -> SoReport:
    """Dimension and Killing-signature test against so(b2-2, 4).

    The expected algebra is so of a signature-(3, b2-3) space enlarged by
    a hyperbolic plane: real form so(b2-2, 4), with 4(b2-2) noncompact
    and C(b2-2, 2) + 6 compact directions.

    One ``bracket_rows`` walk (see MatrixLieAlgebra) feeds its rows
    {k: e_ijk}, which span the derived algebra [g, g], to a sparse
    echelon.  A certified algebra's walk reads each bracket X at the
    pivots, as ``lie_closure`` proved X in the span and b_k is 1 at its
    own pivot and 0 at the others; it stops once [g, g] = g.  Any other
    span walks to its end with the exact membership test, so a span that
    is not bracket-closed raises.

    A g that is not perfect is not semisimple, so its Killing form is
    degenerate (Cartan's criterion), and NotSemisimpleError is raised
    with the dimension of [g, g]; its signature is not formed.  A perfect
    g is read through its trace form T(x, y) = tr(xy) on the ambient
    space.  If T is nondegenerate, g is reductive (Bourbaki, Lie I, 6.4),
    so semisimple, being perfect.  If g is semisimple, the radical of T
    is an ideal I with tr(xy) = 0 for x in I, y in g, solvable by
    Cartan's criterion, so I = 0.  Thus T is degenerate, and
    NotSemisimpleError raised, exactly when the Killing form is.  On a
    semisimple g, Mostow ("Self-adjoint groups", 1955) gives an inner
    product on the real ambient space for which g is closed under
    transpose: g = k + p, k skew and p symmetric, and theta(x) = -x^T is
    a Cartan involution.  So the Killing form and T, with tr(x^2) =
    -tr(x x^T) on k and tr(x x^T) on p, are both negative definite on k,
    positive definite on p, and vanish on k x p: both have signature
    (dim p, dim k).  ``_trace_gram`` is tr(M_i M_j) = D^2 T(b_i, b_j) in
    the basis M_i = D b_i, a positive scaling, so by Sylvester's law it
    has the signature of T.
    """
    expected_dim = (b2 + 2) * (b2 + 1) // 2
    dim = algebra.dim
    if algebra.gaussian:
        raise ValueError("so_identify needs a rational algebra: the Killing "
                         "signature is only defined over the reals")
    derived = SparseEchelon()
    for row in algebra.bracket_rows():
        for coeffs in row.values():
            if derived.dim == dim:
                break
            derived.add(coeffs)
        if derived.dim == dim and algebra.certified:
            break
    if derived.dim < dim:
        raise NotSemisimpleError(f"not semisimple: the derived algebra has "
                                 f"dim {derived.dim} < {dim}")
    noncompact, compact, null = symmetric_signature(_trace_gram(algebra))
    if null:
        raise NotSemisimpleError("not semisimple: Killing form degenerate "
                                 "on the derived algebra")
    expected_sig = (comb(b2 - 2, 2) + 6, 4 * (b2 - 2))
    return SoReport(dim=dim, expected_dim=expected_dim,
                    killing_signature=(compact, noncompact),
                    expected_signature=expected_sig,
                    verdict=(dim == expected_dim
                             and (compact, noncompact) == expected_sig))


def so_identification_check(algebra: MatrixLieAlgebra, b2: int,
                            skip_reason: str | None = None) -> Record:
    """``so_identify`` as a record.  It skips with ``skip_reason``, for a
    ring the prediction does not cover, or with the reason
    ``so_identify`` refuses the algebra (a Q(i) closure).  An algebra that
    is not semisimple cannot be so(b2-2, 4): the record fails with the
    reason."""
    rec = Record("so identification",
                 "closure matches so of the Mukai-completed degree-2 form")
    if skip_reason is not None:
        return rec.skip(skip_reason)
    try:
        so = so_identify(algebra, b2)
    except NotSemisimpleError as exc:
        rec.verdict, rec.data = "fail", {"error": str(exc)}
        return rec
    except ValueError as exc:
        return rec.skip(str(exc))
    rec.data = {"dim": so.dim, "expected_dim": so.expected_dim,
                "killing_compact_noncompact": list(so.killing_signature),
                "expected_compact_noncompact": list(so.expected_signature)}
    rec.verdict = "pass" if so.verdict else "fail"
    return rec


def llv_generators(ring: GradedAlgebra, family=None):
    """(generators, classes) for a fixed spanning set of non-isotropic
    classes a: Lam_b, every L_a, and Lam_a where ``family`` (by default the
    ``DualFamily`` based at the first class b) fell back to ``complete_sl2``.
    Every dual is still formed and certified.  A certified Lam_a from the
    family is the candidate ([[L_a, psi_b], psi_b] + 4 (a, b) psi_b) /
    (2 q(a) q(b)), psi_b = q(b) Lam_b, so it lies in the algebra of L_a and
    Lam_b: the list generates the closure of all L_a, Lam_a."""
    form = ring.quadratic_form
    if form is None:
        raise ValueError("ring carries no degree-2 quadratic form")
    classes = spanning_hl_classes(form)
    family = family or DualFamily(ring, classes[0])
    gens = [family.base_lam.matrix()]
    for a in classes:
        l_op = cup_operator(ring, a)
        lam = family.lam(a, l_op)
        gens.append(l_op.matrix())
        if tuple(a) in family.fallen_back:
            gens.append(lam.matrix())
    return gens, classes


def bracket_closure(ring: GradedAlgebra, family=None):
    """(closure, record): ``lie_closure`` of ``llv_generators(ring,
    family)``.  A ring without a degree-2 form has no Lefschetz classes to
    close: (None, a skip)."""
    rec = Record("bracket closure",
                 "Lie algebra generated by all Hard Lefschetz sl2-pairs")
    if ring.quadratic_form is None:
        rec.anchor = "total Lie algebra of Lefschetz operators"
        return None, rec.skip("ring carries no degree-2 form")
    algebra = lie_closure(llv_generators(ring, family)[0], ring.field)
    rec.data["dim"] = algebra.dim
    return algebra, rec


def dual_commutation_check(form, duals: DualFamily) -> Record:
    """[Lam_a, Lam_b] = 0 on the first 50 pairs of the first 11 classes of
    ``nonisotropic_stream`` (C(11, 2) = 55)."""
    classes = itertools.islice(nonisotropic_stream(form), 11)
    pairs = list(itertools.islice(itertools.combinations(classes, 2), 50))
    bad = [(a, b) for a, b in pairs
           if not duals.lam(a).commutes_with(duals.lam(b))]
    return Record("dual operators commute",
                  "[Lam_a, Lam_b] = 0 for non-isotropic pairs",
                  {"pairs_checked": len(pairs), "violations": bad},
                  "fail" if bad else "pass")


def _cells(op, c=1):
    """{(row, column): c * value} over the nonzero entries of op."""
    return {(r, col): c * x for r, col, x in op.entries()}


def so41_subalgebra(ring: GradedAlgebra, triple_classes) -> Record:
    """The algebra generated by the sl2-triples of three orthogonal
    positive classes, certified as so(4,1) by its relations.

    The three classes are rescaled to a common norm (their norm ratios
    must be rational squares) and completed to triples (L_i, Lam_i, H);
    all three share H, the classical weight operator.  With K_ij =
    [L_i, Lam_j], these relation families are checked on degree blocks:
    K_ij = -K_ji, [Lam_i, Lam_j] = 0, [K_ij, L_j] = 2 L_i, [K_ij, Lam_j]
    = 2 Lam_i, [K_ij, L_k] = [K_ij, Lam_k] = 0 and [K_ij, K_jk] = 2 K_ik,
    for i, j, k distinct.  Two more families hold without a check:
    [L_i, L_j] = 0, as L_i L_j x = a_i a_j x = a_j a_i x in the validated
    ring (associative, and commutative on the even degrees); and
    [K_ij, H] = 0, as K_ij keeps the degree (L_i raises it by 2, Lam_j
    lowers it by 2) and H is a scalar on each degree.

    All these relations close the span S of L_i, Lam_i, H and K_01,
    K_02, K_12.  Each triple's certificate gives [L_i, Lam_i] = H,
    [H, L_i] = 2 L_i and [H, Lam_i] = -2 Lam_i; [L_i, Lam_j] = K_ij lies
    in S as K_ji = -K_ij; [K_ij, L_i] = -[K_ji, L_i] = -2 L_j, and
    likewise for Lam; [K_ij, K_jk] = 2 K_ik with K_ji = -K_ij covers every
    pair of K's.
    So S is bracket-closed, and as H and the K_ij are brackets of the
    L_i, Lam_i, it is the algebra they generate.  The relations are the
    brackets of so(4,1) on this basis, so they make the map from
    so(4,1) onto S a Lie homomorphism.  so(4,1) is simple, and L_0 != 0
    (its triple was completed, which needs Hard Lefschetz), so the map
    is injective: S has dimension 10 exactly when every relation holds,
    and ``dim`` is reported then.  A failing record lists its relations
    and has no ``dim``.
    """
    form = ring.quadratic_form
    if form is None:
        raise ValueError("ring carries no degree-2 quadratic form")
    if len(triple_classes) != 3:
        raise ValueError("need exactly three classes")
    ws = [tuple(map(rat, w)) for w in triple_classes]
    for i in range(3):
        if form.evaluate(ws[i]) <= 0:
            raise ValueError(f"class {i} is not positive for the form")
        for j in range(i + 1, 3):
            if form.pair(ws[i], ws[j]) != 0:
                raise ValueError(f"classes {i} and {j} are not orthogonal")
    base = form.evaluate(ws[0])
    scaled = [ws[0]]
    for i in (1, 2):
        ratio = rat_sqrt(div(base, form.evaluate(ws[i])))
        if ratio is None:
            raise ValueError("requires an admissible triple: norm ratios must "
                             "be rational squares")
        scaled.append(tuple(ratio * c for c in ws[i]))
    triples = [complete_sl2(ring, w) for w in scaled]
    res = Record("so(4,1) action",
                 "three orthogonal positive sl2-triples close into so(4,1)",
                 {"failures": []})
    ls, lams = [t.L for t in triples], [t.Lam for t in triples]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if not lams[i].commutes_with(lams[j]):
            res.fail(f"[Lam{i}, Lam{j}] != 0")
    k = {(i, j): ls[i].commutator(lams[j])
         for i in range(3) for j in range(3) if i != j}
    for (i, j), kij in k.items():
        kk = 3 - i - j
        if _cells(kij) != _cells(k[(j, i)], -1):
            res.fail(f"K{i}{j} != -K{j}{i}")
        if _cells(kij.commutator(ls[j])) != _cells(ls[i], 2):
            res.fail(f"[K{i}{j}, L{j}] != 2 L{i}")
        if _cells(kij.commutator(lams[j])) != _cells(lams[i], 2):
            res.fail(f"[K{i}{j}, Lam{j}] != 2 Lam{i}")
        if not kij.commutes_with(ls[kk]):
            res.fail(f"[K{i}{j}, L{kk}] != 0")
        if not kij.commutes_with(lams[kk]):
            res.fail(f"[K{i}{j}, Lam{kk}] != 0")
        if _cells(kij.commutator(k[(j, kk)])) != _cells(k[(i, kk)], 2):
            res.fail(f"[K{i}{j}, K{j}{kk}] != 2 K{i}{kk}")
    if res.ok:
        res.data["dim"] = 10
    return res


def so4_symplectic(ring: BigradedAlgebra) -> Record:
    """The six symplectic operators span a bracket-closed algebra of
    dimension 6, splitting as two commuting sl2-triples.

    ``complete_sl2_weights`` certifies each of the sigma and sigma-bar
    triples: [L, Lam] = H block by block, and [H, L] = 2L, [H, Lam] =
    -2 Lam by the weight shifts.  Of the nine cross brackets, three are
    checked to vanish: [L_sigma, Lam_sigmabar], [Lam_sigma, L_sigmabar]
    and [Lam_sigma, Lam_sigmabar], the relations of simultaneous
    primitivity.  The other six vanish by what is already certified.
    H_sigma and H_sigmabar act by p - n and q - n, both diagonal, so they
    commute.  L_sigma raises p by 2 (``_weight_chain`` checks it entry by
    entry) and the degree p + q by 2, so it keeps q; Lam_sigma lowers p
    by 2 (its weight blocks are built so) and the degree by 2 (checked
    when it is put back into degree blocks), so it keeps q too.  An
    operator that keeps q commutes with H_sigmabar; likewise L_sigmabar
    and Lam_sigmabar keep p and commute with H_sigma.  And [L_sigma,
    L_sigmabar] = 0, as sigma sigma-bar x = sigma-bar sigma x in the ring,
    associative and graded-commutative (validated, or for a companion
    certified isomorphic to its validated rational model).  Then the span
    of the six is bracket-closed, it is the algebra they generate, and
    the operator map from sl2 + sl2 is a Lie homomorphism.  Its kernel is
    an ideal: 0, one factor or both.  Neither L is zero (each triple was
    completed, which needs Hard Lefschetz, and the unit has weight
    -n != 0), so the kernel is 0 and the span has dimension 6 exactly
    when the three checked brackets vanish; ``dim`` is reported then.  A
    failing record lists its brackets and has no ``dim``.  A ring of top
    degree other than 4n has no weights p - n, q - n and skips.
    """
    res = Record("symplectic so(4) action",
                 "six symplectic operators close into two commuting sl2s",
                 {"failures": []})
    if ring.top % 4:
        return res.skip(_NOT_4N.format(ring.top))
    tri_s = sigma_sl2(ring)
    tri_b = sigma_bar_sl2(ring)
    for a, b in ((tri_s.L, tri_b.Lam), (tri_s.Lam, tri_b.L),
                 (tri_s.Lam, tri_b.Lam)):
        if not a.commutes_with(b):
            res.fail("the sigma and sigma-bar triples do not commute")
    if res.ok:
        res.data["dim"] = 6
    return res


def verbitsky_component(ring: GradedAlgebra):
    """Graded dimensions of the subalgebra generated by degree 2, checked
    against the symmetric-power prediction, plus stability under every
    dual Lefschetz operator of the spanning non-isotropic classes.  One
    ``SparseEchelon`` per even degree k spans the component there; the
    same spans decide the stability test."""
    res = Record("degree-2 generated subalgebra",
                 "graded dims follow the symmetric-power pattern and the "
                 "component is Lam-stable", {"failures": []})
    lo2, hi2 = ring.slice_of(2)
    deg2 = [ring.basis_vector(gi) for gi in range(lo2, hi2)]
    bases = {0: [ring.unit()]}
    spans = {0: SparseEchelon(exact_division=True)}
    spans[0].add(ring.component(bases[0][0], 0))
    for k in range(2, ring.top + 1, 2):
        span = spans[k] = SparseEchelon(exact_division=True)
        vecs = bases[k] = []
        for x in bases[k - 2]:
            for a in deg2:
                prod = ring.component(ring.multiply(a, x), k)
                if span.add(prod):
                    vecs.append(ring.embed(k, prod))
    res.data["dims"] = [spans[k].dim for k in range(0, ring.top + 1, 2)]
    b2 = ring.dims[2]
    prediction = None
    if ring.top % 4 == 0:
        n = ring.top // 4
        prediction = verbitsky_dims(b2, n)
        res.data["predicted"] = prediction
        if res.data["dims"] != prediction:
            res.fail(f"graded dims {res.data['dims']} != predicted {prediction}")
    if ring.quadratic_form is not None:
        classes = spanning_hl_classes(ring.quadratic_form)
        family = DualFamily(ring, classes[0])
        for a in classes:
            for k, blk in family.lam(a).blocks.items():
                for x in bases.get(k, []):
                    img = blk.matvec(ring.component(x, k))
                    if not spans[k - 2].contains(img):
                        res.fail(f"Lam of class {a} leaves the component "
                                 f"in degree {k}")
                        break
        res.data["lambda_stable_classes"] = len(classes)
    return res


def isotropic_power_check(ring: GradedAlgebra) -> Record:
    """a^(n+1) = 0 for the first 100 classes of ``isotropic_stream`` on a
    ring of top degree 4n."""
    n = ring.top // 4
    classes = list(itertools.islice(isotropic_stream(ring.quadratic_form),
                                    100))
    bad = [w for w in classes if any(ring.power(ring.embed(2, w), n + 1))]
    return Record("isotropic power relations",
                  "a^(n+1) = 0 for isotropic degree-2 classes",
                  {"classes_checked": len(classes), "violations": bad},
                  "fail" if bad else "pass")
