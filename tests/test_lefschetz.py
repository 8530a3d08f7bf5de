import copy
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llvkit import lefschetz
from llvkit.lefschetz import (BlockChain, DegreeOperator, DualFamily,
                              NotHLError, antiholomorphic_weights,
                              classical_weights, complete_sl2,
                              complete_sl2_weights, cup_operator, hl_test,
                              holomorphic_weights, sigma_bar_sl2, sigma_sl2,
                              simultaneous_primitivity_check,
                              symplectic_hl_check, _solve_dual,
                              _weight_spaces)
from llvkit.linalg import Matrix, inverse
from llvkit.llv import lie_closure, llv_generators
from llvkit.models import spanning_hl_classes, vector_stream
from llvkit.pw import nilpotent_index
from llvkit.rings import QuadraticForm, ring_from_dict
from llvkit.scalars import Gauss, div


def test_cup_zero_class_is_zero(k3):
    op = cup_operator(k3, [Fraction(0)] * 22)
    assert op.matrix().is_zero()


def test_cup_square_is_norm_times_top(k3):
    # a = e1 + e2 has gram(a, a) = 2, so L_a^2 maps the unit to 2*top
    a = [Fraction(1), Fraction(1)] + [Fraction(0)] * 20
    op = cup_operator(k3, a)
    sq = op.matrix() * op.matrix()
    assert sq.matvec(k3.unit()) == k3.scale(k3.basis_vector(23), 2)


def test_cup_linearity(k3):
    import random
    rng = random.Random(2)
    for _ in range(5):
        a = [Fraction(rng.randint(-2, 2)) for _ in range(22)]
        b = [Fraction(rng.randint(-2, 2)) for _ in range(22)]
        ab = [x + y for x, y in zip(a, b)]
        assert cup_operator(k3, ab).matrix() == \
            cup_operator(k3, a).matrix() + cup_operator(k3, b).matrix()


def test_cup_operators_commute(rat52):
    import random
    rng = random.Random(9)
    for _ in range(5):
        a = [Fraction(rng.randint(-2, 2)) for _ in range(5)]
        b = [Fraction(rng.randint(-2, 2)) for _ in range(5)]
        la = cup_operator(rat52, a).matrix()
        lb = cup_operator(rat52, b).matrix()
        assert la.commutator(lb).is_zero()


def _cup_blocks_by_multiply(ring, a):
    """The cup operator's blocks from full-length products and degree
    components: the oracle of the product-table construction."""
    a_full = tuple(a) if len(a) == ring.total_dim else ring.embed(2, a)
    blocks = {}
    for k in range(ring.top + 1):
        if not ring.dims[k]:
            continue
        tgt = k + 2
        rows = ring.dims[tgt] if tgt <= ring.top else 0
        lo, hi = ring.slice_of(k)
        cols = [ring.component(ring.multiply(a_full, ring.basis_vector(gi)),
                               tgt) for gi in range(lo, hi)] if rows else []
        blocks[k] = (Matrix.from_cols(cols, nrows=rows) if rows
                     else Matrix([], ncols=ring.dims[k]))
    return blocks


def _overlapping_products_ring():
    """P^1 x P^1 on the basis a = h1, b = h1 + h2 of degree 2: a*b = p and
    b*b = 2p land on the same element, unlike the fixtures' monomial
    bases."""
    prods = [(0, g, g, "1") for g in range(4)] + [
        (g, 0, g, "1") for g in range(1, 4)] + [
        (1, 2, 3, "1"), (2, 1, 3, "1"), (2, 2, 3, "2")]
    return ring_from_dict({
        "top_degree": 4, "dims": [1, 0, 2, 0, 1],
        "basis": [["1"], [], ["a", "b"], [], ["p"]],
        "products": [{"i": i, "j": j, "k": k, "coeff": c}
                     for i, j, k, c in prods],
        "integration": ["1"]})


def test_cup_operator_matches_full_length_products(k3, rat52, torus2,
                                                    model52):
    # sigma and sigma-bar of model52 have Q(i) coordinates
    rng = random.Random(3)
    cases = [(model52, model52.sigma()), (model52, model52.sigma_bar())]
    for ring in (k3, rat52, torus2, _overlapping_products_ring()):
        cases += [(ring, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(ring.dims[2])]) for _ in range(3)]
    for ring, a in cases:
        blocks = cup_operator(ring, a).blocks
        want = _cup_blocks_by_multiply(ring, a)
        assert blocks == want
        # the same normal form: an int when integral
        for k, blk in blocks.items():
            assert [list(map(type, r)) for r in blk.rows] == \
                [list(map(type, r)) for r in want[k].rows]


def _block_operator_cases(rat52, torus2, model52):
    """L and Lam of two classes on an even and an odd-degree ring, and the
    sigma and sigma-bar triples of model52 over Q(i)."""
    cases = []
    for ring in (rat52, torus2):
        ops = []
        for cls in itertools.islice(vector_stream(ring.dims[2]), 200):
            a = [Fraction(c) for c in cls]
            if hl_test(ring, a):
                tri = complete_sl2(ring, a)
                ops += [tri.L, tri.Lam]
            if len(ops) == 4:
                break
        assert len(ops) == 4
        cases.append((ring, ops))
    tri_s, tri_b = sigma_sl2(model52), sigma_bar_sl2(model52)
    cases.append((model52, [tri_s.L, tri_s.Lam, tri_s.H,
                            tri_b.L, tri_b.Lam, tri_b.H]))
    return cases


def test_commutes_with_matches_dense_commutator(rat52, torus2, model52):
    # every pairing of the operators, commuting or not: the block bracket
    # and the block action agree with the dense ones
    rng = random.Random(11)
    for ring, ops in _block_operator_cases(rat52, torus2, model52):
        verdicts = set()
        for x, y in itertools.product(ops, repeat=2):
            dense = x.matrix().commutator(y.matrix())
            assert x.commutator(y).matrix() == dense
            assert x.commutes_with(y) is dense.is_zero()
            verdicts.add(dense.is_zero())
        assert verdicts == {True, False}
        vecs = [ring.basis_vector(gi) for gi in range(ring.total_dim)]
        for _ in range(5):
            vecs.append(tuple(
                Gauss(rng.randint(-2, 2), rng.randint(-2, 2))
                if ring.field == "gaussian"
                else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(ring.total_dim)))
        for x in ops:
            dense = x.matrix()
            for v in vecs:
                assert x.apply(v) == dense.matvec(v)


def test_cup_rejects_wrong_degree(k3):
    with pytest.raises(ValueError):
        cup_operator(k3, [Fraction(1)] * 5)
    with pytest.raises(ValueError):
        cup_operator(k3, k3.basis_vector(23))


def test_hl_iff_nonisotropic_k3(k3):
    form = k3.quadratic_form
    checked = 0
    for v in itertools.islice(vector_stream(22), 60):
        a = [Fraction(c) for c in v]
        assert hl_test(k3, a) == (form.evaluate(a) != 0)
        checked += 1
    assert checked == 60


def test_hl_iff_nonisotropic_model(rat52):
    form = rat52.quadratic_form
    for v in itertools.islice(vector_stream(5), 60):
        a = [Fraction(c) for c in v]
        assert hl_test(rat52, a) == (form.evaluate(a) != 0)


def test_hl_zero_class_false(k3, rat52):
    assert hl_test(k3, [Fraction(0)] * 22) is False
    assert hl_test(rat52, [Fraction(0)] * 5) is False


def test_complete_sl2_rejects_isotropic(k3):
    iso = [Fraction(1), 0, 0, Fraction(1)] + [Fraction(0)] * 18
    with pytest.raises(NotHLError, match="not an HL class"):
        complete_sl2(k3, iso)


def test_complete_sl2_identities_and_lambda_value(k3):
    a = [Fraction(1)] + [Fraction(0)] * 21
    tri = complete_sl2(k3, a)
    assert tri.check()
    # Lam kills primitives: degree-2 classes orthogonal to a
    prim = k3.embed(2, [0, Fraction(1)] + [0] * 20)
    assert not any(tri.Lam.matrix().matvec(prim))
    # Lam(a) = 2 * unit, independent of the norm of a
    assert tri.Lam.matrix().matvec(k3.embed(2, a)) == k3.scale(k3.unit(), 2)


def test_complete_sl2_h_acts_by_weight(k3, rat52, torus2):
    for ring, a in ((k3, [Fraction(1)] + [Fraction(0)] * 21),
                    (rat52, [Fraction(1), 0, 0, 0, 0]),
                    (torus2, [0, Fraction(1), 0, 0, Fraction(1), 0])):
        tri = complete_sl2(ring, a)
        mid = ring.top // 2
        for gi in range(ring.total_dim):
            out = tri.H.matrix().matvec(ring.basis_vector(gi))
            assert out == ring.scale(ring.basis_vector(gi),
                                     ring.degree_of(gi) - mid)


def test_complete_sl2_matches_unique_solve(k3, rat52, model52, torus2):
    # the dual operator is the unique degree(-2) solution of [L, X] = H;
    # sigma and sigma-bar are graded by holomorphic weights, over Q(i)
    cases = [
        (k3, complete_sl2(k3, [Fraction(1), Fraction(1)] + [Fraction(0)] * 20)),
        (rat52, complete_sl2(rat52, [Fraction(1), 0, Fraction(1), 0, 0])),
        (model52, sigma_sl2(model52)),
        (model52, sigma_bar_sl2(model52)),
        (torus2, complete_sl2(torus2, [0, Fraction(1), 0, 0, Fraction(1), 0])),
    ]
    assert cases[2][1].weights == holomorphic_weights(model52)
    assert cases[3][1].weights == antiholomorphic_weights(model52)
    for ring, tri in cases:
        weights = tri.weights
        solved = _solve_dual(ring, tri.L, weights, _weight_spaces(weights))
        assert solved is not None
        assert solved == tri.Lam.matrix()
        assert tri.check()


def test_complete_sl2_raises_when_the_crosscheck_disagrees(rat52,
                                                           monkeypatch):
    solve = lefschetz._solve_dual

    def perturbed(ring, l_op, weights, spaces):
        lam = solve(ring, l_op, weights, spaces)
        rows = [list(r) for r in lam.rows]
        rows[0][1] += 1          # still lowers the weight: V_-2 -> V_-4
        return Matrix(rows)

    monkeypatch.setattr(lefschetz, "_solve_dual", perturbed)
    a = [Fraction(1), 0, 0, 0, 0]
    with pytest.raises(RuntimeError, match="unique solution"):
        complete_sl2(rat52, a)
    tri = complete_sl2_weights(rat52, cup_operator(rat52, a),
                               classical_weights(rat52), crosscheck=False)
    assert tri.check()


def test_complete_sl2_certificate_rejects_a_wrong_dual(rat52, model52,
                                                       monkeypatch):
    # a doubled T^-1 doubles Lam, and [L, 2 Lam] = 2H != H
    monkeypatch.setattr(lefschetz, "inverse", lambda m: inverse(m).scale(2))
    for ring, l_op, weights in (
            (rat52, cup_operator(rat52, [Fraction(1), 0, 0, 0, 0]),
             classical_weights(rat52)),
            (model52, cup_operator(model52, model52.sigma()),
             holomorphic_weights(model52))):
        with pytest.raises(RuntimeError, match=r"\[L, Lam\] != H"):
            complete_sl2_weights(ring, l_op, weights, crosscheck=False)


def test_complete_sl2_weights_rejects_an_operator_off_the_weight_shift(
        model52):
    # a (1,1) class raises the holomorphic weight p - n by 1, not by 2
    lo2, hi2 = model52.slice_of(2)
    t = next(gi for gi in range(lo2, hi2) if model52.bidegrees[gi] == (1, 1))
    l_op = cup_operator(model52, model52.basis_vector(t))
    with pytest.raises(ValueError,
                       match="operator does not raise the weight by 2"):
        complete_sl2_weights(model52, l_op, holomorphic_weights(model52))


def _dense_block(mat, ring, src, tgt):
    lo, hi = ring.slice_of(src)
    tlo, thi = ring.slice_of(tgt)
    return Matrix([[mat[r, c] for c in range(lo, hi)]
                   for r in range(tlo, thi)], ncols=hi - lo)


def test_block_chain_powers_match_dense_powers(k3, rat52, model52, torus2):
    cases = [(k3, [Fraction(1), 0, 0, Fraction(1)] + [Fraction(0)] * 18),
             (k3, [Fraction(1)] + [Fraction(0)] * 21),
             (k3, [Fraction(0)] * 22),
             (rat52, [Fraction(1), 0, 0, Fraction(1), 0]),
             (rat52, [Fraction(1), Fraction(2), 0, 0, Fraction(-1)]),
             (model52, model52.sigma()),
             (torus2, [0, Fraction(1), 0, 0, Fraction(1), 0])]
    for ring, a in cases:
        op = cup_operator(ring, a)
        dense = op.matrix()
        chain = BlockChain(op.blocks, dict(enumerate(ring.dims)))
        # the index fixes the perverse step keys, so it must be the dense one
        assert chain.nilpotency_index() == nilpotent_index(dense)
        for j in range(ring.top // 2 + 2):
            power = dense.power(j)
            for k in range(ring.top + 1 - 2 * j):
                if ring.dims[k]:
                    assert chain.power(k, j) == _dense_block(
                        power, ring, k, k + 2 * j), (a, k, j)


def test_symplectic_hl_model(model52):
    assert symplectic_hl_check(model52).ok


def test_symplectic_hl_torus(torus_big):
    assert symplectic_hl_check(torus_big).ok


def test_symplectic_hl_fails_for_one_one_class(model52):
    # replacing sigma by a (1,1) element must break the block bijections
    from llvkit.rings import BigradedAlgebra
    bg = list(model52.bidegrees)
    lo2, _ = model52.slice_of(2)
    sig_pos = model52.sigma_index
    t_pos = next(gi for gi in range(lo2, lo2 + model52.dims[2])
                 if model52.bidegrees[gi] == (1, 1))
    bg[sig_pos], bg[t_pos] = bg[t_pos], bg[sig_pos]
    twisted = BigradedAlgebra(model52.field, model52.dims, model52.labels,
                              model52.products, model52.integration, bg,
                              quadratic_form=model52.quadratic_form)
    res = symplectic_hl_check(twisted)
    assert not res.ok


def test_simultaneous_primitivity_model(model52):
    res = simultaneous_primitivity_check(model52)
    assert res.ok
    tri_s, tri_b = sigma_sl2(model52), sigma_bar_sl2(model52)
    assert tri_s.L.matrix().commutator(tri_b.Lam.matrix()).is_zero()
    assert tri_b.L.matrix().commutator(tri_s.Lam.matrix()).is_zero()


def test_simultaneous_primitivity_k3big(k3big):
    # the degenerate n = 1 case: both commutators vanish on a 24-dim ring
    res = simultaneous_primitivity_check(k3big)
    assert res.ok


def test_simultaneous_primitivity_rejects_a_dual_not_commuting_with_l_sigma(
        model52, monkeypatch):
    # Lam_sigmabar + Lam_sigma still commutes with Lam_sigma, but its
    # bracket with L_sigma is H_sigma != 0
    tri_s = sigma_sl2(model52)

    def shifted_sigma_bar(ring):
        tri = sigma_bar_sl2(ring)
        blocks = {k: blk + tri_s.Lam.blocks[k]
                  for k, blk in tri.Lam.blocks.items()}
        return replace(tri, Lam=DegreeOperator(ring, -2, blocks))

    monkeypatch.setattr(lefschetz, "sigma_bar_sl2", shifted_sigma_bar)
    res = simultaneous_primitivity_check(model52)
    assert not res.ok
    assert res.failures == ["[L_sigma, Lam_sigmabar] != 0"]


def test_simultaneous_primitivity_fails_without_hard_lefschetz(
        model52, monkeypatch):
    # a sigma without Hard Lefschetz fails the record by name, next to a
    # sigma-bar that has its triple
    def refused(ring):
        raise NotHLError("not an HL class")

    monkeypatch.setattr(lefschetz, "sigma_sl2", refused)
    res = simultaneous_primitivity_check(model52)
    assert not res.ok
    assert res.failures == ["L_sigma has no sl2-triple: not an HL class"]


def test_sigma_weight_operators(model52):
    n = model52.symplectic_n()
    tri_s, tri_b = sigma_sl2(model52), sigma_bar_sl2(model52)
    for gi in range(model52.total_dim):
        p, q = model52.bidegrees[gi]
        e = model52.basis_vector(gi)
        assert tri_s.H.matrix().matvec(e) == model52.scale(e, p - n)
        assert tri_b.H.matrix().matvec(e) == model52.scale(e, q - n)


def test_sl2_representation_dimension_bookkeeping(rat52):
    # the whole ring decomposes into sl2-strings: weight-space dims must
    # be symmetric and increase toward the middle
    a = [Fraction(1), 0, 0, 0, 0]
    tri = complete_sl2(rat52, a)
    dims = {}
    for gi, w in enumerate(tri.weights):
        dims[w] = dims.get(w, 0) + 1
    assert dims == {-4: 1, -2: 5, 0: 15, 2: 5, 4: 1}
    assert all(dims[w] == dims[-w] for w in dims)


def test_odd_degree_torus_triple(torus2):
    om = [0, Fraction(1), 0, 0, Fraction(1), 0]
    tri = complete_sl2(torus2, om)
    assert tri.check()
    ws = sorted(set(classical_weights(torus2)))
    assert ws == [-2, -1, 0, 1, 2]


# -- duals from one completion ----------------------------------------------


@pytest.fixture(scope="module")
def family_rings(rat52, k3, torus2, model62, model52):
    """The family's rings: four over Q, and the (5,2) companion over Q(i)."""
    return {"rat52": rat52, "k3": k3, "torus2": torus2,
            "rat62": model62.rational_model, "big52": model52}


FAMILY_RINGS = ["rat52", "k3", "torus2", "rat62", "big52"]


def _nonisotropic(ring, data):
    m = ring.dims[2]
    a = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)))
    assume(ring.quadratic_form.evaluate(a) != 0)
    return a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILY_RINGS), st.data())
def test_dual_family_matches_complete_sl2(family_rings, name, data):
    ring = family_rings[name]
    family = DualFamily(ring, _nonisotropic(ring, data))
    a = _nonisotropic(ring, data)
    lam = family.lam(a)
    assert lam.shift == -2
    assert lam.matrix() == complete_sl2(ring, a).Lam.matrix()
    assert family.fallbacks == 0


def _full_completion_generators(ring):
    """L_a, Lam_a from one full completion per spanning class: the oracle
    of the generators the family derives."""
    gens = []
    for a in spanning_hl_classes(ring.quadratic_form):
        tri = complete_sl2(ring, a)
        gens += [tri.L.matrix(), tri.Lam.matrix()]
    return gens


@pytest.mark.parametrize("name", FAMILY_RINGS)
def test_llv_generators_match_full_completions(family_rings, name):
    # the list is Lam_b and every L_a; the family still forms the dual of
    # every class, and each is the full completion's
    ring = family_rings[name]
    classes = spanning_hl_classes(ring.quadratic_form)
    family = DualFamily(ring, classes[0])
    gens, used = llv_generators(ring, family)
    assert used == classes
    full = _full_completion_generators(ring)
    assert gens == [full[1]] + full[0::2]
    assert family.fallbacks == 0
    for a, lam in zip(classes, full[1::2]):
        assert family.lam(a).matrix() == lam
    assert family.fallbacks == 0


def test_llv_generators_keep_a_fallback_dual(rat52, monkeypatch):
    # the certificate refuses the candidate of the second class once: its
    # full completion joins the list, and the closure does not change
    classes = spanning_hl_classes(rat52.quadratic_form)
    family = DualFamily(rat52, classes[0])
    real = lefschetz._dual_certified
    refused = []

    def refuse_once(chain, lam_blocks):
        if not refused:
            refused.append(chain)
            return False
        return real(chain, lam_blocks)

    monkeypatch.setattr(lefschetz, "_dual_certified", refuse_once)
    gens, _ = llv_generators(rat52, family)
    monkeypatch.undo()
    assert refused and family.fallbacks == 1
    full = _full_completion_generators(rat52)
    assert gens == [full[1], full[0], full[2], full[3]] + full[4::2]
    want = lie_closure(llv_generators(rat52)[0], rat52.field)
    got = lie_closure(gens, rat52.field)
    assert (got.pivots, got._rows) == (want.pivots, want._rows)


def _dense_candidate(family, l_a, scale, ab4):
    """The candidate on dense blocks: the oracle of the sparse sums."""
    sq, blocks = family._sq, {}
    for k, p in family._psi.items():
        lp = l_a[k - 2]
        acc = p.scale(ab4) - ((p * lp) * p if p.nrows <= p.ncols
                              else p * (lp * p)).scale(2)
        if k in sq:
            acc = acc + l_a[k - 4] * sq[k]
        if k + 2 in sq:
            acc = acc + sq[k + 2] * l_a[k]
        blocks[k] = acc.scale(scale)
    return blocks


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILY_RINGS), st.data())
def test_dual_candidate_matches_dense_formula(family_rings, name, data):
    # equal blocks, and equal entry types on the nonzero entries; a zero
    # entry is the int 0, where the dense sums can leave a Gauss(0, 0)
    ring = family_rings[name]
    form = ring.quadratic_form
    family = DualFamily(ring, _nonisotropic(ring, data))
    a = _nonisotropic(ring, data)
    l_a = cup_operator(ring, a).blocks
    args = (l_a, div(1, 2 * form.evaluate(a) * family._qb),
            4 * form.pair(a, family.base))
    got, want = family._candidate(*args), _dense_candidate(family, *args)
    assert got == want
    for k, blk in got.items():
        for row, wrow in zip(blk.rows, want[k].rows):
            for x, y in zip(row, wrow):
                assert type(x) is (type(y) if y else int)


def test_dual_family_certificate_rejects_a_corrupted_psi(rat52, monkeypatch):
    # the base completion comes back with one entry of one Lam_b block off
    # by one; the candidate built from it must fail the certificate
    real = lefschetz.complete_sl2
    a = (1, 2, 0, -1, 1)
    for degree in (2, 4, 6, 8):
        corrupted = []

        def corrupted_once(ring, cls):
            tri = real(ring, cls)
            if corrupted:
                return tri
            blocks = dict(tri.Lam.blocks)
            rows = [list(r) for r in blocks[degree].rows]
            rows[0][0] += 1
            blocks[degree] = Matrix(rows)
            corrupted.append(degree)
            return replace(tri, Lam=DegreeOperator(ring, -2, blocks))

        monkeypatch.setattr(lefschetz, "complete_sl2", corrupted_once)
        family = DualFamily(rat52, (1, 0, 0, 0, 0))
        lam = family.lam(a)
        assert corrupted == [degree]
        assert family.fallbacks == 1
        assert lam.matrix() == real(rat52, a).Lam.matrix()


def test_dual_family_certificate_rejects_a_foreign_form(rat52):
    # the identity holds for the ring's own form diag(1, 1, 1, -1, -1);
    # under diag(1, 1, 1, 1, 1) the candidates of classes with a negative
    # direction are wrong, and every one is refused
    ring = copy.copy(rat52)
    ring.quadratic_form = QuadraticForm.diagonal([1, 1, 1, 1, 1])
    family = DualFamily(ring, (1, 0, 0, 0, 0))
    for n, a in enumerate([(2, 0, 0, 1, 0), (0, 2, 0, 0, 1), (1, 1, 1, 1, 0)]):
        assert family.lam(a).matrix() == complete_sl2(ring, a).Lam.matrix()
        assert family.fallbacks == n + 1


def test_dual_family_isotropic_class_raises_like_complete_sl2(rat52):
    family = DualFamily(rat52, (1, 0, 0, 0, 0))
    iso = [Fraction(1), 0, 0, Fraction(1), 0]
    with pytest.raises(NotHLError, match="not an HL class"):
        complete_sl2(rat52, iso)
    with pytest.raises(NotHLError, match="not an HL class"):
        family.lam(iso)
    assert family.fallbacks == 1


def test_dual_family_needs_a_form(rat52):
    bare = copy.copy(rat52)
    bare.quadratic_form = None
    with pytest.raises(ValueError, match="no degree-2 quadratic form"):
        DualFamily(bare, (1, 0, 0, 0, 0))


def test_dual_family_needs_a_nonisotropic_base(rat52):
    # e_1 has Hard Lefschetz but is isotropic for this form
    skew = copy.copy(rat52)
    skew.quadratic_form = QuadraticForm(Matrix(
        [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
         [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]]))
    with pytest.raises(ValueError, match="isotropic"):
        DualFamily(skew, (1, 0, 0, 0, 0))


# -- the block certificate --------------------------------------------------


def _dense_dual_certified(chain, lam_blocks):
    """The certificate on dense blocks: the oracle of the sparse one."""
    for w, d in chain.dims.items():
        bracket = Matrix.zeros(d, d)
        if w in lam_blocks:
            bracket = bracket + chain.block(w - 2) * lam_blocks[w]
        if w + 2 in lam_blocks:
            bracket = bracket - lam_blocks[w + 2] * chain.block(w)
        if bracket != Matrix.identity(d).scale(w):
            return False
    return True


@pytest.fixture(scope="module")
def certificate_cases(k3, rat52, model52, torus2):
    """(L weight chain, Lam weight blocks) of one sl2-triple per ring; the
    sigma triple of model52 lives over Q(i), torus2 has odd degrees."""
    out = {}
    for name, tri in (
            ("k3", complete_sl2(k3, [Fraction(1), Fraction(1), 0, Fraction(1)]
                                + [Fraction(0)] * 18)),
            ("rat52", complete_sl2(rat52, [Fraction(1), Fraction(2), 0, 0,
                                           Fraction(-1)])),
            ("model52-sigma", sigma_sl2(model52)),
            ("torus2", complete_sl2(torus2, [0, Fraction(1), 0, 0,
                                             Fraction(1), 0]))):
        spaces = _weight_spaces(tri.weights)
        chain = lefschetz._weight_chain(tri.L, tri.weights)
        lam = tri.Lam.matrix()
        blocks = {w: lefschetz._block(lam, spaces[w - 2], idx)
                  for w, idx in spaces.items() if w - 2 in spaces}
        out[name] = (chain, blocks)
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["k3", "rat52", "model52-sigma", "torus2"]),
       st.sampled_from(["exact", "perturb", "drop"]), st.data())
def test_sparse_dual_certificate_matches_dense(certificate_cases, name, mode,
                                               data):
    chain, blocks = certificate_cases[name]
    assert 0 in blocks
    blocks = dict(blocks)
    if mode != "exact":
        w = data.draw(st.sampled_from(sorted(blocks)))
        if mode == "drop":
            del blocks[w]
        else:
            rows = [list(r) for r in blocks[w].rows]
            r = data.draw(st.integers(0, len(rows) - 1))
            c = data.draw(st.integers(0, len(rows[0]) - 1))
            delta = data.draw(st.sampled_from(
                [Fraction(1), Fraction(-1, 2), Gauss(0, 1)]))
            rows[r][c] += delta
            blocks[w] = Matrix(rows)
    got = lefschetz._dual_certified(chain, blocks)
    assert got == _dense_dual_certified(chain, blocks)
    # the certificate fixes the dual: any change of a nonzero block fails
    assert got == (mode == "exact")


def test_sparse_dual_certificate_on_missing_chain_blocks(certificate_cases):
    # weight blocks of L with a zero side are absent from the chain; a
    # missing L block makes its product zero in both versions
    chain, blocks = certificate_cases["rat52"]
    for w in sorted(chain.blocks):
        cut = BlockChain({v: b for v, b in chain.blocks.items() if v != w},
                         chain.dims)
        got = lefschetz._dual_certified(cut, blocks)
        assert got == _dense_dual_certified(cut, blocks) is False
