import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from llvkit import llv
from llvkit.lefschetz import (DegreeOperator, DualFamily, classical_weights,
                              complete_sl2, cup_operator, sigma_bar_sl2,
                              sigma_sl2, weight_operator)
from llvkit.linalg import (DimensionError, Matrix, SparseEchelon, Subspace,
                           symmetric_signature)
from llvkit.llv import (DecompositionError, MatrixLieAlgebra,
                        NotSemisimpleError, ad_grading, derivation_check,
                        lie_closure, llv_closure, llv_generators,
                        so4_symplectic, so41_subalgebra, so_identify,
                        verbitsky_component, weil_operator)
from llvkit.models import nonisotropic_stream, spanning_hl_classes
from llvkit.rings import load_ring, save_ring
from llvkit.scalars import FIELD_GAUSSIAN, FIELD_RATIONAL, Gauss, GaussInt, I
from dense_ad import dense_ad


def sl2_triple_generators(ring, a):
    tri = complete_sl2(ring, a)
    return [tri.L.matrix(), tri.Lam.matrix()]


def _unit(n, r, c):
    return Matrix([[Fraction(int((i, j) == (r, c))) for j in range(n)]
                   for i in range(n)])


def _cells(n, cells):
    return Matrix([[cells.get((r, c), 0) for c in range(n)] for r in range(n)])


@pytest.fixture(scope="module")
def file52(model52, tmp_path_factory):
    """The (5,2) ring saved to a file and loaded back: a ring over Q(i)
    with no rational model, so its closure is over Q(i)."""
    path = tmp_path_factory.mktemp("ring") / "ring52.json"
    save_ring(model52, path)
    return load_ring(path)


@pytest.fixture(scope="module")
def file52_gens(file52):
    return llv_generators(file52)[0]


def _sparse_bracket(a, b):
    """Commutator of sparse integer matrices given as row dicts, every
    product x[r][k] y[k][c] formed by hand: the oracle of ``_brackets``."""
    out = {}
    for r, arow in a.items():
        for k, av in arow.items():
            brow = b.get(k)
            if brow:
                dest = out.setdefault(r, {})
                for c, bv in brow.items():
                    val = dest.get(c, 0) + av * bv
                    if val:
                        dest[c] = val
                    elif c in dest:
                        del dest[c]
    for r, brow in b.items():
        for k, bv in brow.items():
            arow = a.get(k)
            if arow:
                dest = out.setdefault(r, {})
                for c, av in arow.items():
                    val = dest.get(c, 0) - bv * av
                    if val:
                        dest[c] = val
                    elif c in dest:
                        del dest[c]
    return {r: row for r, row in out.items() if row}


def _reference_closure(gens):
    """The dense closure over the field: membership by reduction against
    a canonical Subspace basis, every accepted element bracketed against
    the generators by Matrix.commutator.  Returns (pivots, canonical
    sparse rows)."""
    n = gens[0].nrows
    sub = Subspace.zero(n * n)

    def accept(mat):
        nonlocal sub
        res = sub.reduce([mat[r, c] for r in range(n) for c in range(n)])
        if not any(res):
            return False
        sub = Subspace.from_rows(n * n, sub.basis + (res,))
        return True

    queue = [g for g in gens if accept(g)]
    for x in queue:
        for g in gens:
            b = g.commutator(x)
            if accept(b):
                queue.append(b)
    return (list(sub.pivots),
            [{k: v for k, v in enumerate(vec) if v} for vec in sub.basis])


def _all_llv_generators(ring):
    """L_a and Lam_a for every spanning class: the 2m generators that the
    reduced list of ``llv_generators`` must close to the same algebra."""
    classes = spanning_hl_classes(ring.quadratic_form)
    family = DualFamily(ring, classes[0])
    gens = []
    for a in classes:
        l_op = cup_operator(ring, a)
        gens += [l_op.matrix(), family.lam(a, l_op).matrix()]
    return gens


@pytest.fixture(scope="module")
def closure_rings(k3, rat52, model62, model53, torus2, file52):
    return {"k3": k3, "rat52": rat52, "rat62": model62.rational_model,
            "model53": model53.rational_model, "torus2": torus2,
            "file52": file52}


@pytest.mark.parametrize("name", ["k3", "rat52", "rat62", "model53",
                                  "torus2", "file52"])
def test_reduced_generators_close_to_the_full_algebra(closure_rings, name):
    ring = closure_rings[name]
    gens, classes = llv_generators(ring)
    full = _all_llv_generators(ring)
    assert len(gens) == len(classes) + 1 and len(full) == 2 * len(classes)
    want = lie_closure(full, ring.field)
    got = lie_closure(gens, ring.field)
    assert got.gaussian == (name == "file52")
    assert (got.pivots, got._rows) == (want.pivots, want._rows)


def test_single_sl2_closure(k3):
    gens = sl2_triple_generators(k3, [Fraction(1)] + [Fraction(0)] * 21)
    alg = lie_closure(gens, k3.field)
    assert alg.dim == 3
    assert alg.verify_closure()


def test_closure_small_model(rat52):
    alg = llv_closure(rat52)
    assert alg.dim == 21
    assert alg.verify_closure()


@st.composite
def _bracket_case(draw):
    """A sparse matrix x over Z or Z[i] and a list of sparse matrices y_j
    of the same size.  Some y_j are zero, and some are c x + d 1 + z for a
    sparse z (or z = 0), so that every product x y_j meets a product
    y_j x that cancels it except those of [x, z]."""
    n = draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        entry = st.tuples(small, small).filter(any).map(
            lambda t: GaussInt(*t))
    else:
        entry = small.filter(bool)
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

    def matrix():
        sp = {}
        for (r, c), v in draw(st.dictionaries(cell, entry)).items():
            sp.setdefault(r, {})[c] = v
        return sp

    def plus(a, b):
        out = {r: dict(row) for r, row in a.items()}
        for r, row in b.items():
            for c, v in row.items():
                dest = out.setdefault(r, {})
                dest[c] = dest[c] + v if c in dest else v
        return {r: {c: v for c, v in row.items() if v}
                for r, row in out.items()}

    x = matrix()
    ys = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["random", "zero", "cancel"]))
        if kind == "random":
            ys.append(matrix())
        elif kind == "zero":
            ys.append({})
        else:
            c, d = draw(entry), draw(entry)
            y = {r: {k: c * v for k, v in row.items()} for r, row in x.items()}
            y = plus(y, {r: {r: d} for r in range(n)})
            if draw(st.booleans()):
                y = plus(y, matrix())
            ys.append({r: row for r, row in y.items() if row})
    return x, ys


def _plain(sp):
    """A sparse matrix with its entries as (real, imaginary) int pairs:
    GaussInt compares by identity, not by value."""
    return {r: {c: (v.real, v.imag) for c, v in row.items()}
            for r, row in sp.items()}


@settings(max_examples=300, deadline=None)
@given(_bracket_case())
def test_brackets_match_sparse_oracle(case):
    x, ys = case
    got = llv._brackets(x, llv._index(ys))
    want = {j: _sparse_bracket(x, y) for j, y in enumerate(ys)}
    assert {j: _plain(b) for j, b in got.items()} == {
        j: _plain(b) for j, b in want.items() if b}
    for b in got.values():
        assert b and all(row and all(row.values()) for row in b.values())


def test_gaussian_closure_matches_dense_reference(model52):
    tri_s, tri_b = sigma_sl2(model52), sigma_bar_sl2(model52)
    six = [t.L.matrix() for t in (tri_s, tri_b)] + [
        t.Lam.matrix() for t in (tri_s, tri_b)] + [
        t.H.matrix() for t in (tri_s, tri_b)]
    alg = lie_closure(six, model52.field)
    assert alg.gaussian and alg.dim == 6
    assert (alg.pivots, alg._rows) == _reference_closure(six)


@pytest.mark.parametrize("name", ["rat52", "torus2", "file52"])
def test_closure_matches_dense_reference(closure_rings, name):
    ring = closure_rings[name]
    gens = llv_generators(ring)[0]
    alg = lie_closure(gens, ring.field)
    assert alg.gaussian == (name == "file52")
    assert (alg.pivots, alg._rows) == _reference_closure(gens)


@st.composite
def _closure_case(draw):
    """(generators, field): one to three small square matrices over Z or
    Z[i]; some are combinations of earlier ones, so dependent generators
    occur."""
    n = draw(st.sampled_from([2, 3]))
    small = st.integers(-2, 2)
    if draw(st.booleans()):
        field = FIELD_GAUSSIAN
        entry = st.tuples(small, small).map(lambda t: Gauss(*t))
    else:
        field = FIELD_RATIONAL
        entry = small
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if gens and draw(st.booleans()):
            a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
            gens.append(a.scale(draw(entry)) + b)
        else:
            gens.append(_cells(n, draw(st.dictionaries(cell, entry,
                                                       max_size=4))))
    return gens, field


# [h, E12] = -i E12 for h = diag(1, 1 + i), itself a canonical basis
# element: a non-real structure constant; the third generator is dependent
_NON_REAL_GENERATORS = [_cells(2, {(0, 0): 1, (1, 1): Gauss(1, 1)}),
                        _cells(2, {(0, 1): 1}), _cells(2, {(0, 1): Gauss(2, 1)})]


def test_non_real_example_has_a_non_real_structure_constant():
    alg = lie_closure(_NON_REAL_GENERATORS, FIELD_GAUSSIAN)
    den, table = alg.structure_constants()
    assert alg.gaussian and alg.pivots == [0, 1] and den == 1
    assert {k: (e.real, e.imag) for k, e in table[0][1].items()} == {
        1: (0, -1)}


@settings(max_examples=150, deadline=None)
@given(_closure_case())
@example((_NON_REAL_GENERATORS, FIELD_GAUSSIAN))
def test_closure_matches_dense_reference_on_random_generators(case):
    gens, field = case
    alg = lie_closure(gens, field)
    assert (alg.pivots, alg._rows) == _reference_closure(gens)
    assert alg.certified and alg.verify_closure()
    assert all(alg.contains(g) for g in gens)


def test_gaussian_closure_of_non_real_generators():
    # i E12 and i E21 bracket to -(E11 - E22): sl2 over Q(i)
    alg = lie_closure([_unit(2, 0, 1).scale(I), _unit(2, 1, 0).scale(I)],
                      FIELD_GAUSSIAN)
    assert alg.gaussian and alg.dim == 3
    assert alg.contains(_unit(2, 0, 0) - _unit(2, 1, 1))
    # E12 + i E13 spans an abelian line whose conjugate E12 - i E13 is
    # not in it: the closure is taken over Q(i), not by Galois descent
    x = _unit(3, 0, 1) + _unit(3, 0, 2).scale(I)
    alg = lie_closure([x], FIELD_GAUSSIAN)
    assert alg.dim == 1
    assert not alg.contains(x.conjugate())
    assert alg.contains(x.scale(Gauss(2, -3)))


def test_mixed_generators_close_without_floats(model52):
    tri_s = sigma_sl2(model52)
    gens = [tri_s.L.matrix(), tri_s.Lam.matrix(), tri_s.H.matrix()]
    assert all(type(v) in (int, Fraction) for row in gens[2].rows for v in row)
    alg = lie_closure(gens, model52.field)
    assert alg.gaussian and alg.dim == 3 and alg.verify_closure()
    den, mats = alg._integer_form()
    values = [v for row in alg._rows for v in row.values()]
    values += [x for b in alg.basis for row in b.rows for x in row]
    assert all(type(v) in (int, Fraction, Gauss) for v in values)
    assert all(type(v.re) in (int, Fraction) and type(v.im) in (int, Fraction)
               for v in values if isinstance(v, Gauss))
    ints = [v for m in mats for row in m.values() for v in row.values()]
    assert type(den) is int
    assert all(type(v) is GaussInt and type(v.real) is int
               and type(v.imag) is int for v in ints)


def _assert_structure_constants_match_dense_brackets(alg):
    den, table = alg.structure_constants()
    assert alg.dim == 21 and den > 1          # the scaling by D is exercised
    assert [list(row) for row in table] == [
        list(range(i + 1, alg.dim)) for i in range(alg.dim)]
    n = alg.ambient
    d2 = den ** 2
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            combo = Matrix.zeros(n, n)
            for k, e in table[i][j].items():
                coef = (Gauss(Fraction(e.real, d2), Fraction(e.imag, d2))
                        if alg.gaussian else Fraction(e, d2))
                combo = combo + alg.basis[k].scale(coef)
            assert combo == alg.basis[i].commutator(alg.basis[j])


def test_structure_constants_match_dense_brackets(rat52):
    _assert_structure_constants_match_dense_brackets(llv_closure(rat52))


def test_gaussian_structure_constants_match_dense_brackets(file52_gens):
    alg = lie_closure(file52_gens, FIELD_GAUSSIAN)
    assert alg.gaussian
    _assert_structure_constants_match_dense_brackets(alg)


def test_killing_gram_matches_dense_traces(rat52):
    alg = llv_closure(rat52)
    den = alg._integer_form()[0]
    gram = llv._killing_gram(alg.bracket_rows(), alg.dim)
    ads = [dense_ad(alg, b) for b in alg.basis]
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert gram[i].get(j, 0) == den ** 4 * (ads[i] * ads[j]).trace()


@st.composite
def _sparse_integer_generators(draw):
    """Two or three nonzero sparse integer 3x3 or 4x4 matrices."""
    n = draw(st.sampled_from([3, 4]))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        cells = draw(st.dictionaries(cell, st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=4))
        gens.append(_cells(n, cells))
    return gens


# generators of sl3: two Cartan elements act on the same root vectors, so
# several E_a share an entry position (k, l); on K3 no position is shared
_SL3_GENERATORS = [_cells(3, {(0, 1): 1, (1, 2): 1}),
                   _cells(3, {(1, 0): 1, (2, 1): 1}), _cells(3, {(1, 0): 1})]


def test_killing_oracle_example_shares_entry_positions():
    alg = lie_closure(_SL3_GENERATORS, FIELD_RATIONAL)
    ads = [dense_ad(alg, b) for b in alg.basis]
    shared = [(k, l) for k in range(alg.dim) for l in range(alg.dim)
              if sum(1 for a in ads if a[k, l]) > 1]
    assert alg.dim == 8 and shared
    # sl(3, R): the Killing form is positive on the 5 symmetric directions
    gram = llv._killing_gram(alg.bracket_rows(), alg.dim)
    assert symmetric_signature(gram) == (5, 3, 0)


# so(3) as skew 3x3 matrices, compact; sl2 on Q^2, split; gl2 on Q^2, not
# perfect: (compact, noncompact) is (1, 3) for its trace form, but (1, 2)
# and the null direction of the identity for its Killing form
_SO3_GENERATORS = [_cells(3, {(0, 1): 1, (1, 0): -1}),
                   _cells(3, {(0, 2): 1, (2, 0): -1})]
_SL2_GENERATORS = [_cells(2, {(0, 1): 1}), _cells(2, {(1, 0): 1})]
_GL2_GENERATORS = _SL2_GENERATORS + [_cells(2, {(0, 0): 1})]


@settings(max_examples=60, deadline=None)
@given(_sparse_integer_generators())
@example(_SL3_GENERATORS)
@example(_SO3_GENERATORS)
@example(_SL2_GENERATORS)
@example(_GL2_GENERATORS)
def test_streamed_killing_data_match_dense_oracle(gens):
    # the Gram, derived rank and signature of so_identify against dense
    # traces of ad and the rank of every bracket
    alg = lie_closure(gens, FIELD_RATIONAL)
    den = alg._integer_form()[0]
    gram = llv._killing_gram(alg.bracket_rows(), alg.dim)
    ads = [dense_ad(alg, b) for b in alg.basis]
    killing = [[(a * b).trace() for b in ads] for a in ads]
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert gram[i].get(j, 0) == den ** 4 * killing[i][j]
    n = alg.ambient
    brackets = [[x for row in a.commutator(b).rows for x in row]
                for a, b in itertools.combinations(alg.basis, 2)]
    derived_rank = Subspace.from_rows(n * n, brackets).dim
    pos, neg, null = symmetric_signature(killing)
    try:
        rep = so_identify(alg, 3)
    except NotSemisimpleError:
        # perfect, with a degenerate Killing form
        assert derived_rank == alg.dim
        assert null > 0
    else:
        assert rep.semisimple_part_dim == derived_rank
        assert rep.killing_signature == (neg, pos)
        assert rep.verdict == (alg.dim == 10 and (neg, pos) == (6, 4)
                               and null == 0)


def test_so_identify_stops_once_derived_algebra_is_full(k3_closure,
                                                        monkeypatch):
    # the certified closure stops its walk once [g, g] = g; the same span,
    # not certified, runs its whole tested walk; the reports agree
    walk = MatrixLieAlgebra.bracket_rows
    read = []

    def spy(self, retest=True):
        for row in walk(self, retest):
            read.append(row)
            yield row

    monkeypatch.setattr(MatrixLieAlgebra, "bracket_rows", spy)
    alg = k3_closure
    rep = so_identify(alg, 22)
    assert 0 < len(read) < alg.dim
    read.clear()
    tested = MatrixLieAlgebra(alg.ambient, alg.pivots, alg._rows)
    assert so_identify(tested, 22) == rep
    assert len(read) == alg.dim


def test_so_identify_rejects_unclosed_span():
    e12, e21 = _unit(2, 0, 1), _unit(2, 1, 0)
    alg = MatrixLieAlgebra(2, [1, 2], [{1: Fraction(1)}, {2: Fraction(1)}])
    assert alg.basis == [e12, e21]
    assert not alg.certified and not alg.verify_closure()
    with pytest.raises(ValueError, match="not bracket-closed"):
        so_identify(alg, 3)
    # an algebra not built by lie_closure is tested even when asked not to
    with pytest.raises(ValueError, match="not bracket-closed"):
        list(alg.bracket_rows(retest=False))
    with pytest.raises(TypeError):
        MatrixLieAlgebra(2, [1, 2], [{1: 1}, {2: 1}], certified=True)


def test_certified_walk_matches_tested_walk(k3_closure, rat52):
    # the pivot reading of a certified closure against the exact test of
    # the same basis: equal rows, Gram, derived rank and report
    for alg, b2 in ((k3_closure, 22), (llv_closure(rat52), 5),
                    (lie_closure(_SL3_GENERATORS, FIELD_RATIONAL), 3)):
        tested = MatrixLieAlgebra(alg.ambient, alg.pivots, alg._rows)
        assert alg.certified and not tested.certified
        assert (list(alg.bracket_rows(retest=False))
                == list(tested.bracket_rows()))
        assert (llv._killing_gram(alg.bracket_rows(retest=False), alg.dim)
                == llv._killing_gram(tested.bracket_rows(), alg.dim))
        assert so_identify(alg, b2) == so_identify(tested, b2)


def test_so_identify_perfect_not_semisimple():
    # sl2 acting on Q^2 as the 3x3 matrices [[A, v], [0, 0]]: the
    # algebra is perfect and Q^2 is a radical of its Killing form
    alg = lie_closure([_unit(3, 0, 1), _unit(3, 1, 0), _unit(3, 0, 2)],
                      FIELD_RATIONAL)
    assert alg.dim == 5
    with pytest.raises(NotSemisimpleError):
        so_identify(alg, 3)


def test_closure_idempotent(rat52):
    alg = llv_closure(rat52)
    again = lie_closure(alg.basis, rat52.field)
    assert again.dim == alg.dim


def test_closure_k3(k3_closure):
    assert k3_closure.dim == 276


def _element(alg, coeffs):
    """sum_k c_k b_k for coordinates on the canonical basis."""
    n = alg.ambient
    out = Matrix.zeros(n, n)
    for c, b in zip(coeffs, alg.basis):
        if c:
            out = out + b.scale(c)
    return out


def _assert_eigenvectors(alg, h, spaces):
    for lam, vecs in zip((2, 0, -2), spaces):
        for coeffs in vecs:
            assert len(coeffs) == alg.dim and any(coeffs)
            x = _element(alg, coeffs)
            assert h.commutator(x) == x.scale(lam)


def test_ad_grading_single_sl2(k3):
    a = [Fraction(1)] + [Fraction(0)] * 21
    alg = lie_closure(sl2_triple_generators(k3, a), k3.field)
    h_op = weight_operator(k3, classical_weights(k3))
    h = h_op.matrix()
    g2, g0, gm2 = ad_grading(alg, h)
    assert ad_grading(alg, h_op) == (g2, g0, gm2)
    assert (len(g2), len(g0), len(gm2)) == (1, 1, 1)
    _assert_eigenvectors(alg, h, (g2, g0, gm2))


def test_ad_grading_model(rat52):
    alg = llv_closure(rat52)
    h_op = weight_operator(rat52, classical_weights(rat52))
    h = h_op.matrix()
    g2, g0, gm2 = ad_grading(alg, h)
    assert ad_grading(alg, h_op) == (g2, g0, gm2)
    assert (len(g2), len(g0), len(gm2)) == (5, 11, 5)
    _assert_eigenvectors(alg, h, (g2, g0, gm2))


def test_ad_grading_k3(k3, k3_closure):
    h_op = weight_operator(k3, classical_weights(k3))
    h = h_op.matrix()
    g2, g0, gm2 = ad_grading(k3_closure, h)
    assert ad_grading(k3_closure, h_op) == (g2, g0, gm2)
    assert (len(g2), len(g0), len(gm2)) == (22, 232, 22)
    _assert_eigenvectors(k3_closure, h, (g2, g0, gm2))


def test_ad_grading_torus(torus2):
    gens, _ = llv_generators(torus2)
    alg = lie_closure(gens, torus2.field)
    h_op = weight_operator(torus2, classical_weights(torus2))
    h = h_op.matrix()
    g2, g0, gm2 = ad_grading(alg, h)
    assert ad_grading(alg, h_op) == (g2, g0, gm2)
    assert (len(g2), len(g0), len(gm2)) == (6, 16, 6)
    _assert_eigenvectors(alg, h, (g2, g0, gm2))


def _eager_basis(alg):
    """The dense basis as the closure used to build it up front."""
    n = alg.ambient
    out = []
    for row in alg._rows:
        grid = [[Fraction(0)] * n for _ in range(n)]
        for k, v in row.items():
            grid[k // n][k % n] = v
        out.append(Matrix(grid, ncols=n))
    return out


def test_lazy_basis_equals_eager_basis(k3_closure, rat52, torus2):
    gens, _ = llv_generators(torus2)
    for alg in (k3_closure, llv_closure(rat52),
                lie_closure(gens, torus2.field)):
        assert alg._basis is None or alg is k3_closure
        basis = alg.basis
        assert basis == _eager_basis(alg) and alg.basis is basis
        assert len(basis) == alg.dim
        # canonical: b_k is 1 at its own pivot and 0 at the others
        n = alg.ambient
        for k, b in enumerate(basis):
            assert [b[p // n, p % n] for p in alg.pivots] == [
                int(j == k) for j in range(alg.dim)]


def test_ad_grading_rejects_bad_weights(k3):
    alg = lie_closure(sl2_triple_generators(
        k3, [Fraction(1)] + [Fraction(0)] * 21), k3.field)
    bad = Matrix([[Fraction(1 if i == j and i == 0 else 0) for j in range(24)]
                  for i in range(24)])
    bad_op = weight_operator(k3, [1] + [0] * 23)
    assert bad_op.matrix() == bad
    for h in (bad, bad_op):
        with pytest.raises((DecompositionError, ValueError)):
            ad_grading(alg, h)


def _sl2_closure():
    return lie_closure([Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]])],
                       FIELD_RATIONAL)


def test_contains_rejects_a_wrong_shape():
    # [[1, 0, 0, -1]] vectorizes to the entries of diag(1, -1), an element
    # of the closure; read as r n + c it would alias to it
    alg = _sl2_closure()
    assert alg.contains(Matrix([[1, 0], [0, -1]]))
    with pytest.raises(DimensionError):
        alg.contains(Matrix([[1, 0, 0, -1]]))


def test_ad_grading_rejects_a_wrong_shape():
    # read as r n + c, diag(1, -1, 0) aliases to diag(1, -1) and would
    # grade the closure as (1, 1, 1)
    alg = _sl2_closure()
    h = Matrix([[1, 0], [0, -1]])
    assert [len(space) for space in ad_grading(alg, h)] == [1, 1, 1]
    with pytest.raises(DimensionError):
        ad_grading(alg, Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]))


def test_dual_lefschetz_commute_same_class(rat52):
    a = [Fraction(1), 0, 0, 0, 0]
    lam = DualFamily(rat52, a).lam(a)
    assert lam.commutes_with(lam)


def test_dual_lefschetz_commute_enumerated(rat52):
    classes = list(itertools.islice(
        nonisotropic_stream(rat52.quadratic_form), 11))
    pairs = list(itertools.combinations(classes, 2))[:50]
    assert len(pairs) == 50
    for a, b in pairs:
        a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
        family = DualFamily(rat52, a)
        assert family.lam(a).commutes_with(family.lam(b))


def test_dual_lefschetz_commute_gamma_pair(model52):
    rat = model52.rational_model
    family = DualFamily(rat, model52.gamma_rational)
    assert family.lam(model52.gamma_rational).commutes_with(
        family.lam(model52.gamma_prime_rational))


def test_dual_lefschetz_rejects_isotropic(rat52):
    iso = [Fraction(1), 0, 0, Fraction(1), 0]
    with pytest.raises(Exception, match="not an HL class"):
        DualFamily(rat52, iso).lam(iso)


def test_weil_operator_model(model52):
    c = weil_operator(model52)
    # zero on (p, p) classes, 2i on sigma itself
    for gi in range(model52.total_dim):
        p, q = model52.bidegrees[gi]
        out = c.apply(model52.basis_vector(gi))
        expect = model52.scale(model52.basis_vector(gi), Gauss(0, p - q))
        assert out == expect
        assert c.matrix().matvec(model52.basis_vector(gi)) == expect
    sig_out = c.apply(model52.sigma())
    assert sig_out == model52.scale(model52.sigma(), Gauss(0, 2))


def test_weil_operator_requires_gaussian(torus2):
    with pytest.raises(ValueError, match="extended by i"):
        weil_operator(torus2)


def test_weil_operator_other_bigraded_fixtures(model62, torus_big):
    from llvkit.rings import gaussian_extension
    weil_operator(model62)                       # raises on any mismatch
    weil_operator(gaussian_extension(torus_big))


def test_derived_g0_acts_by_derivations(rat52):
    alg = llv_closure(rat52)
    h = weight_operator(rat52, classical_weights(rat52)).matrix()
    _, g0, _ = ad_grading(alg, h)
    g0 = [_element(alg, coeffs) for coeffs in g0]
    n = rat52.total_dim
    span = SparseEchelon()
    derived = []
    for i in range(len(g0)):
        for j in range(i + 1, len(g0)):
            b = g0[i].commutator(g0[j])
            if span.add([b[r, c] for r in range(n) for c in range(n)]):
                derived.append(b)
    assert len(derived) == 10          # the semisimple part of g0
    assert all(derivation_check(d, rat52) for d in derived)


def test_derivation_check_commutator(rat52):
    a = [Fraction(1), 0, 0, 0, 0]
    b = [0, 0, Fraction(1), 0, 0]
    la = cup_operator(rat52, a)
    lam_b = complete_sl2(rat52, b).Lam
    assert derivation_check(la.matrix().commutator(lam_b.matrix()), rat52)
    assert derivation_check(la.commutator(lam_b), rat52)


def test_derivation_check_rejects_l_and_h(rat52):
    tri = complete_sl2(rat52, [Fraction(1), 0, 0, 0, 0])
    for op in (tri.L, weight_operator(rat52, classical_weights(rat52))):
        assert derivation_check(op.matrix(), rat52) is False
        assert derivation_check(op, rat52) is False


def _full_pair_derivation_check(d, ring):
    """d(e_i e_j) = d(e_i) e_j + e_i d(e_j) on every ordered basis pair:
    the oracle of ``derivation_check``, which skips the pairs that cannot
    fail."""
    n = ring.total_dim
    cols = [{k: v for k, v in enumerate(d.col(gi)) if v} for gi in range(n)]

    def times(vec, gj, left):
        acc = {}
        for gk, c in vec.items():
            pairs = ring.mul_basis(gj, gk) if left else ring.mul_basis(gk, gj)
            for gl, v in pairs:
                acc[gl] = acc.get(gl, 0) + c * v
        return acc

    def nonzero(vec):
        return {k: v for k, v in vec.items() if v}

    for gi in range(n):
        for gj in range(n):
            left = {}
            for gk, c in ring.mul_basis(gi, gj):
                for gl, v in cols[gk].items():
                    left[gl] = left.get(gl, 0) + c * v
            right = times(cols[gi], gj, False)
            for gl, v in times(cols[gj], gi, True).items():
                right[gl] = right.get(gl, 0) + v
            if nonzero(left) != nonzero(right):
                return False
    return True


def _odd_half_derivation(torus2):
    """An operator of degree shift +1 on the torus that satisfies the
    identity on every pair e_i, e_j with i <= j but not on all pairs: the
    graded-commutativity shortcut holds for even shifts only."""
    n = torus2.total_dim
    pos = {torus2.label_of(gi): gi for gi in range(n)}
    cells = {(pos["x1x4"], pos["x1"]): 1, (pos["x2x4"], pos["x2"]): 1,
             (pos["x1x3x4"], pos["x1x3"]): -1,
             (pos["x2x3x4"], pos["x2x3"]): -1}
    return _cells(n, cells)


@pytest.fixture(scope="module")
def derivation_pool(rat52, k3, torus2):
    """Per ring: the derivations [L_a, Lam_b] of four non-isotropic
    classes, and L_a, Lam_b and H, which are not derivations; on the torus
    also the odd operator of ``_odd_half_derivation``.  Each is a pair
    (dense matrix, DegreeOperator or None)."""
    pool = {}
    for name, ring in (("rat52", rat52), ("k3", k3), ("torus2", torus2)):
        classes = list(itertools.islice(
            nonisotropic_stream(ring.quadratic_form), 4))
        family = DualFamily(ring, classes[0])
        ops = [cup_operator(ring, a).commutator(family.lam(b))
               for a, b in itertools.combinations(classes, 2)]
        ops += [cup_operator(ring, classes[1]), family.lam(classes[2]),
                weight_operator(ring, classical_weights(ring))]
        ops = [(op.matrix(), op) for op in ops]
        if name == "torus2":
            ops.append((_odd_half_derivation(ring), None))
        pool[name] = (ring, ops)
    return pool


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["rat52", "k3", "torus2"]), st.data())
def test_derivation_check_matches_full_pair_loop(derivation_pool, name, data):
    ring, ops = derivation_pool[name]
    n = ring.total_dim
    coef = st.sampled_from([1, -1, 2, Fraction(1, 3)])
    d = Matrix.zeros(n, n)
    drawn = data.draw(st.lists(st.sampled_from(ops), min_size=1, max_size=3))
    for dense, _ in drawn:
        d = d + dense.scale(data.draw(coef))
    dense, op = drawn[0]
    if op is not None:              # both carriers of one pool operator
        assert derivation_check(op, ring) == derivation_check(dense, ring)
    # up to two entries moved, at any degree shift, odd ones included
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        cell = (data.draw(index), data.draw(index))
        d = d + _cells(n, {cell: data.draw(coef)})
    assert derivation_check(d, ring) == _full_pair_derivation_check(d, ring)


def test_derivation_check_rejects_odd_and_lowering_operators(rat52, torus2):
    odd = _odd_half_derivation(torus2)
    lam_op = complete_sl2(rat52, [Fraction(1), 0, 0, 0, 0]).Lam
    lam = lam_op.matrix()
    # d(e1) = 1 + the top class has shifts -2 and +6; the pairs of degree
    # sum at most top - 6 = 2 all pass, and (e1, e1) of degree sum 4 fails
    e1, top = rat52.slice_of(2)[0], rat52.total_dim - 1
    mixed = _cells(rat52.total_dim, {(0, e1): 1, (top, e1): 1})
    for d, ring in ((odd, torus2), (lam, rat52), (mixed, rat52)):
        assert derivation_check(d, ring) is False
        assert _full_pair_derivation_check(d, ring) is False
    assert derivation_check(lam_op, rat52) is False
    assert derivation_check(Matrix.zeros(27, 27), rat52)
    assert derivation_check(DegreeOperator(rat52, 2, {}), rat52)


def test_g0_derived_part_preserves_form(rat52):
    # [L_a, Lam_b] preserves the degree-2 form infinitesimally
    form = rat52.quadratic_form
    classes = list(itertools.islice(nonisotropic_stream(form), 4))
    lo2, _ = rat52.slice_of(2)
    for a, b in itertools.combinations(classes, 2):
        la = cup_operator(rat52, [Fraction(x) for x in a]).matrix()
        lam = complete_sl2(rat52, [Fraction(x) for x in b]).Lam.matrix()
        d = la.commutator(lam)
        block = [[d[lo2 + r, lo2 + c] for c in range(5)] for r in range(5)]
        dm = Matrix(block)
        for u in (Matrix.identity(5).rows):
            for v in (Matrix.identity(5).rows):
                du = dm.matvec(u)
                dv = dm.matvec(v)
                assert form.pair(du, v) + form.pair(u, dv) == 0


def test_so_identify_model(rat52):
    rep = so_identify(llv_closure(rat52), 5)
    assert rep.verdict
    assert rep.dim == 21 and rep.expected_dim == 21
    assert rep.killing_signature == (9, 12)
    assert rep.semisimple_part_dim == 21


def test_so_identify_k3(k3_closure):
    rep = so_identify(k3_closure, 22)
    assert rep.verdict
    assert rep.dim == 276
    assert rep.killing_signature == (196, 80)


def test_so_identify_single_sl2_fails(k3):
    alg = lie_closure(sl2_triple_generators(
        k3, [Fraction(1)] + [Fraction(0)] * 21), k3.field)
    rep = so_identify(alg, 22)
    assert not rep.verdict
    assert rep.dim == 3 and rep.expected_dim == 276


def test_so41_subalgebra(rat52):
    w = [[0, 0, Fraction(1), 0, 0], [Fraction(2), 0, 0, 0, 0],
         [0, Fraction(2), 0, 0, 0]]
    alg, res = so41_subalgebra(rat52, w)
    assert res.ok, res.failures
    assert alg.dim == 10


def test_so41_rejects_nonorthogonal(rat52):
    w = [[Fraction(1), 0, 0, 0, 0], [Fraction(1), Fraction(1), 0, 0, 0],
         [0, 0, Fraction(1), 0, 0]]
    with pytest.raises(ValueError, match="orthogonal"):
        so41_subalgebra(rat52, w)


def test_so41_rejects_inadmissible_norms(rat52):
    w = [[Fraction(1), Fraction(1), 0, 0, 0],        # norm 2
         [Fraction(1), Fraction(-1), 0, 0, 0],       # norm 2
         [0, 0, Fraction(1), 0, 0]]                  # norm 1: 2/1 not square
    with pytest.raises(ValueError, match="admissible"):
        so41_subalgebra(rat52, w)


def test_so4_symplectic_model(model52):
    alg, res = so4_symplectic(model52)
    assert res.ok, res.failures
    # over the field of the ring, although the six operators are real
    assert alg.dim == 6 and alg.gaussian
    # the Weil operator i(H_sigma - H_sigma-bar) lies in the span, dense
    # and as the DegreeOperator [L_gamma, Lam_gamma'] of ``weil_operator``
    h_s, h_b = sigma_sl2(model52).H.matrix(), sigma_bar_sl2(model52).H.matrix()
    assert alg.contains((h_s - h_b).scale(I))
    assert alg.contains(weil_operator(model52))


def test_so4_symplectic_fails_on_one_triple_twice(model52, monkeypatch):
    # the sigma triple in place of the sigma-bar one: the six operators
    # span 3 dimensions, and [L_sigma, Lam_sigma] = H_sigma != 0
    monkeypatch.setattr(llv, "sigma_bar_sl2", sigma_sl2)
    alg, res = so4_symplectic(model52)
    assert not res.ok and alg.dim == res.data["dim"] == 3
    assert res.failures[0] == ("the six symplectic operators are linearly "
                               "dependent")
    assert "the sigma and sigma-bar triples do not commute" in res.failures


def test_so41_fails_with_a_rescaled_dual(rat52, monkeypatch):
    # 2 Lam_1 in place of Lam_1 doubles K_01 = [L_0, Lam_1] but not K_10
    w = [[0, 0, Fraction(1), 0, 0], [Fraction(2), 0, 0, 0, 0],
         [0, Fraction(2), 0, 0, 0]]
    triples = []

    def rescaled(ring, a):
        tri = complete_sl2(ring, a)
        if len(triples) == 1:
            tri.Lam = DegreeOperator(ring, -2, {
                k: blk.scale(2) for k, blk in tri.Lam.blocks.items()})
        triples.append(tri)
        return tri

    monkeypatch.setattr(llv, "complete_sl2", rescaled)
    _, res = so41_subalgebra(rat52, w)
    assert len(triples) == 3 and not res.ok
    assert "K01 != -K10" in res.failures


def test_so4_symplectic_torus(torus_big):
    alg, res = so4_symplectic(torus_big)
    assert res.ok, res.failures
    assert alg.dim == 6


def test_verbitsky_component_models(rat52, model62, model53):
    for ring in (rat52, model62.rational_model, model53.rational_model):
        res = verbitsky_component(ring)
        assert res.ok, res.failures
        assert res.data["dims"] == res.data["predicted"]


def test_verbitsky_component_k3(k3):
    res = verbitsky_component(k3)
    assert res.ok
    assert res.data["dims"] == [1, 22, 1]


def test_verbitsky_sym2_embeds(model53):
    # dim Sym^2 of the degree-2 space shows up in every degree 2k, k <= n
    rat = model53.rational_model
    res = verbitsky_component(rat)
    b2 = rat.dims[2]
    sym2 = b2 * (b2 + 1) // 2
    n = rat.top // 4
    for k in range(2, n + 1):
        assert res.data["dims"][k] >= sym2
