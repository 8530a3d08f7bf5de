import copy
import hashlib
import itertools
import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llvkit import cli, models
from llvkit.linalg import Matrix, SparseEchelon, Subspace, inverse
from llvkit.models import (ModelConstructionError, bogomolov_model,
                           isotropic_stream, k3_gram, k3_ring,
                           nonisotropic_stream, spanning_hl_classes,
                           torus_ring, vector_stream)
from llvkit.rings import (QuadraticForm, RingValidationError,
                          ValidationReport, ring_to_dict)
from llvkit.scalars import format_scalar

from companion_oracle import companion_oracle


def test_bogomolov_dims_b2_5_n2(rat52):
    # dim Sym^k(Q^5) = C(k+4, 4), truncated to Sym^(2n-k) above the middle
    expected = [comb(k + 4, 4) for k in (0, 1, 2)] + [5, 1]
    assert [rat52.dims[2 * d] for d in range(5)] == expected == [1, 5, 15, 5, 1]


def test_bogomolov_n1_recovers_pairing(k3big):
    rat = k3big.rational_model
    assert tuple(rat.dims[d] for d in (0, 2, 4)) == (1, 22, 1)
    gram = k3_gram()
    ratio = None
    for a, b in itertools.product(range(22), repeat=2):
        val = rat.integrate(rat.multiply(rat.basis_vector(1 + a),
                                         rat.basis_vector(1 + b)))
        if gram[a, b]:
            r = val / gram[a, b]
            ratio = ratio or r
            assert r == ratio
        else:
            assert val == 0
    assert ratio > 0


def test_bogomolov_top_degree_one_dimensional(model53, model62):
    for big in (model53, model62):
        assert big.rational_model.dims[big.rational_model.top] == 1


def test_bogomolov_isotropic_powers_vanish(rat52):
    form = rat52.quadratic_form
    n = rat52.top // 4
    for w in itertools.islice(isotropic_stream(form), 100):
        x = rat52.embed(2, [Fraction(c) for c in w])
        assert not any(rat52.power(x, n + 1))


def test_bogomolov_gamma_power_nonzero(model52):
    # (sigma + sigma-bar)^(2n) generates the top degree
    rat = model52.rational_model
    x = rat.embed(2, model52.gamma_rational)
    top = rat.power(x, 4)
    assert any(top)


def test_bogomolov_integration_normalized(model52):
    rat = model52.rational_model
    u1, u2 = model52.positive_pair
    e1 = rat.embed(2, [Fraction(c) for c in u1])
    e2 = rat.embed(2, [Fraction(c) for c in u2])
    ssb = rat.add(rat.multiply(e1, e1), rat.multiply(e2, e2))
    assert rat.integrate(rat.multiply(ssb, ssb)) == 1


def test_bogomolov_bigrading_multiplicative(model52):
    assert model52.validate().ok


def test_bogomolov_hodge_symmetry(model52, model62):
    for big in (model52, model62):
        dims = big.hodge_dims()
        assert all(dims[(q, p)] == d for (p, q), d in dims.items())


# U + <2, -3, 5>: a non-diagonal form whose positive pair mixes two
# coordinates, u2 = (1, 1, 0, 0, 0)
_HYPERBOLIC_FORM = QuadraticForm(Matrix(
    [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, -3, 0],
     [0, 0, 0, 0, 5]]))


@pytest.mark.parametrize("case", ["model52", "model62", "model53", "k3big",
                                  "hyperbolic"])
def test_companion_by_descent_matches_change_of_basis(case, request):
    big = (bogomolov_model(_HYPERBOLIC_FORM, 2) if case == "hyperbolic"
           else request.getfixturevalue(case))
    rat = big.rational_model
    want = companion_oracle(rat, rat.quadratic_form, big.symplectic_n(),
                            *big.positive_pair)
    assert {p: dict(e) for p, e in big.products.items()} == want["products"]
    assert big.integration == want["integration"]
    assert big.labels == want["labels"]
    assert big.bidegrees == want["bidegrees"]
    assert big.quadratic_form.gram == want["gram"]
    assert big.to_rational_mats == want["to_rat"]
    # the one inverse left, bbf_form's degree-2 basis in companion
    # coordinates
    assert inverse(big.to_rational_mats[2]) == want["from_rat"][2]
    # every structure constant is real, so a native rational: the
    # companion descends to Q
    assert all(type(c) in (int, Fraction)
               for e in big.products.values() for _, c in e)


@pytest.mark.parametrize("case", ["model52", "model62", "model53", "k3big",
                                  "hyperbolic"])
def test_companion_certificate_and_full_validate_agree(case, request):
    # the full validate stays the oracle of the certificate that replaced
    # it in bogomolov_model
    big = (bogomolov_model(_HYPERBOLIC_FORM, 2) if case == "hyperbolic"
           else request.getfixturevalue(case))
    assert big.validation == big.companion_certificate() == ValidationReport(
        True, [])
    assert big.validate() == ValidationReport(True, [])


def _perturbed(big, **changes):
    """A shallow copy of the companion with some attributes replaced."""
    out = copy.copy(big)
    out.__dict__.update(changes)
    return out


@settings(max_examples=25, deadline=None)
@given(st.data(), st.fractions(-3, 3).filter(bool))
def test_certificate_fails_on_one_perturbed_structure_constant(
        model52, data, delta):
    # both orders of the pair change, so the commutativity and bigrading
    # checks pass and only the change of basis can catch it
    bideg = model52.bidegrees
    gi, gj, gk = data.draw(st.sampled_from([
        (gi, gj, gk) for gi in range(1, len(bideg))
        for gj in range(gi, len(bideg)) for gk in range(len(bideg))
        if bideg[gk] == (bideg[gi][0] + bideg[gj][0],
                         bideg[gi][1] + bideg[gj][1])]))
    entry = dict(model52.mul_basis(gi, gj))
    entry[gk] = entry.get(gk, 0) + delta
    products = dict(model52.products)
    products[(gi, gj)] = products[(gj, gi)] = tuple(
        (k, c) for k, c in entry.items() if c)
    bad = _perturbed(model52, products=products)
    report = bad.companion_certificate()
    li, lj = bad.label_of(gi), bad.label_of(gj)
    assert not report.ok
    assert [str(i) for i in report.issues] == [
        f"companion: T({li}*{lj}) != T({li})*T({lj})"]


@settings(max_examples=25, deadline=None)
@given(st.data(), st.fractions(-3, 3).filter(bool))
def test_certificate_fails_on_one_perturbed_change_of_basis_entry(
        model52, data, delta):
    # T no longer a ring map: a product or the integral mismatches, and
    # nothing but the change of basis is blamed
    k = data.draw(st.sampled_from([k for k, d in enumerate(model52.dims) if d]))
    d = model52.dims[k]
    r, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    rows = [list(row) for row in model52.to_rational_mats[k].rows]
    rows[r][j] += delta
    to_rat = list(model52.to_rational_mats)
    to_rat[k] = Matrix(rows, ncols=d)
    report = _perturbed(model52, to_rational_mats=to_rat).companion_certificate()
    assert not report.ok and report.issues
    assert {i.check for i in report.issues} == {"companion"}
    assert all(" != T(" in str(i) or str(i).startswith("companion: int T(")
               for i in report.issues)


def test_certificate_fails_on_a_degenerate_pairing(model52):
    # integration set to 0: every pairing block is zero, and the
    # certificate, which reads injectivity of T off the pairing, reports
    # the degenerate duality beside the integral it no longer keeps
    bad = _perturbed(model52, integration=(0,))
    report = bad.companion_certificate()
    checks = [i.check for i in report.issues]
    assert not report.ok and "duality" in checks
    assert set(checks) == {"duality", "companion"}
    assert [str(i) for i in report.issues if i.check == "companion"] == [
        f"companion: int T({bad.label_of(bad.offsets[bad.top])}) != 0"]


def test_certificate_needs_a_validated_rational_model(model52):
    rat = _perturbed(model52.rational_model, validation=None)
    report = _perturbed(model52, rational_model=rat).companion_certificate()
    assert not report.ok and report.issues[-1].check == "companion"


def test_bogomolov_model_raises_on_a_failing_certificate(monkeypatch):
    build = models._bigraded_companion

    def corrupt(*args):
        big = build(*args)
        products = dict(big.products)
        (gk, c), = products[(1, 1)]
        products[(1, 1)] = ((gk, 2 * c),)
        big.products = products
        return big

    monkeypatch.setattr(models, "_bigraded_companion", corrupt)
    with pytest.raises(RingValidationError) as err:
        bogomolov_model(QuadraticForm.diagonal([1, 1, 1, -1, -1]), 2)
    issues = [str(i) for i in err.value.report.issues]
    assert issues == ["companion: T(s*s) != T(s)*T(s)"]


def test_adapted_gram_rejects_a_non_isotropic_sigma():
    form = QuadraticForm.diagonal([1, 1, 1, -1, -1])
    with pytest.raises(ModelConstructionError, match="isotropic sigma"):
        models._adapted_gram(form, (1, 0, 0, 0, 0), (0, 2, 0, 0, 0), [])
    with pytest.raises(ModelConstructionError, match="isotropic sigma"):
        models._adapted_gram(form, (1, 0, 0, 0, 0), (1, 0, 0, 0, 0), [])


@pytest.mark.parametrize("n", [2, 3])
def test_reversed_elimination_basis_is_the_greedy_one(n):
    # the non-pivot monomials of the ideal echelonized with its columns
    # reversed are the first monomials independent modulo the ideal,
    # picked greedily on the coordinates of the monomial-order quotient
    form = QuadraticForm.diagonal([1, 1, 1, -1, -1])
    basis, red, _, _, _ = models._monomial_quotient(form, n, "abcde",
                                                    reverse=True)
    standard = models._monomial_quotient(form, n, "abcde")[1]
    for d in range(2 * n + 1):
        span = SparseEchelon(exact_division=True)
        keys = models._monomial_keys(5, d, 2 * n + 1)
        greedy = [e for e, k in zip(models.monomials(5, d), keys)
                  if span.add(dict(standard[d][k]))]
        assert greedy == basis[d]
        for entries in red[d].values():
            assert [t for t, _ in entries] == sorted(t for t, _ in entries)


def test_bogomolov_rejects_definite_form():
    form = QuadraticForm.diagonal([1, 1, 1, 1, 1])
    with pytest.raises(ModelConstructionError):
        bogomolov_model(form, 2)


def test_definite_form_rejected_without_enumeration(monkeypatch, capsys):
    def no_enumeration(dim):
        raise AssertionError("a definite form was enumerated")

    monkeypatch.setattr(models, "vector_stream", no_enumeration)
    for entries in ([1, 1, 1, 1, 1], [-1, -2, -1, -3, -1]):
        with pytest.raises(ModelConstructionError, match="definite"):
            bogomolov_model(QuadraticForm.diagonal(entries), 2)
    rc = cli.main(["validate", "--fixture", "bogomolov", "--b2", "5",
                   "--q", "diag:1,1,1,1,1"])
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error:")]
    assert rc == 2
    assert errors == ["error: no rational isotropic vectors: the form is definite"]


def test_bogomolov_rejects_small_dim():
    with pytest.raises(ModelConstructionError, match="dim >= 5"):
        bogomolov_model(QuadraticForm.diagonal([1, 1, -1]), 2)


_POWER_SPAN_CASES = {
    "diag(1,1,1,-1,-1) n=1": (QuadraticForm.diagonal([1, 1, 1, -1, -1]), 1),
    "diag(1,1,1,-1,-1) n=2": (QuadraticForm.diagonal([1, 1, 1, -1, -1]), 2),
    "diag(1,1,1,-1,-1) n=3": (QuadraticForm.diagonal([1, 1, 1, -1, -1]), 3),
    "(6,2)": (QuadraticForm.diagonal([1, 1, 1, -1, -1, -1]), 2),
    "k3 n=1": (QuadraticForm(k3_gram()), 1),
    # non-diagonal, and not unimodular: G^-1 is not a multiple of G
    "tridiagonal": (QuadraticForm(Matrix(
        [[1, 1, 0, 0, 0], [1, -1, 2, 0, 0], [0, 2, 1, 1, 0],
         [0, 0, 1, -2, 1], [0, 0, 0, 1, 3]])), 2),
    "half-integral": (QuadraticForm.diagonal(
        [Fraction(1, 2), 1, 1, -1, -3]), 2),
    "U + <2,-3,5>": (QuadraticForm(Matrix(
        [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 2, 0, 0],
         [0, 0, 0, -3, 0], [0, 0, 0, 0, 5]])), 2),
}


def _power_coeffs(vec, k, monos):
    """Coefficient row of (sum vec_i x_i)^k over the degree-k monomials:
    multinomial(e) * prod vec_i^(e_i) at the exponent tuple e."""
    row = []
    for exps in monos:
        c, total = 1, k
        for base, e in zip(vec, exps):
            c *= comb(total, e) * base ** e
            total -= e
        row.append(c)
    return row


def _sampled_power_span(form, n, monos):
    """The span of (n+1)-st powers of the enumerated isotropic vectors,
    sampled until it stops growing at the expected dimension."""
    m = form.dim
    target = comb(m + n, n + 1) - comb(m + n - 2, n - 1)
    # grown as a Subspace: the basis plus the residue of a new row spans
    # every row so far
    sub = Subspace.zero(len(monos))
    for used, w in enumerate(isotropic_stream(form)):
        if sub.dim == target or used > 8 * target + 200:
            break
        res = sub.reduce(_power_coeffs(w, n + 1, monos))
        if any(res):
            sub = Subspace.from_rows(len(monos), sub.basis + (res,))
    assert sub.dim == target
    return sub


def _ideal_rows(basis_d, red_d, monos, n):
    """The ideal in one degree read from a reduction table, keyed by the
    packed monomials of base 2n + 1: each monomial minus its reduction, as
    sparse rows over ``monos``."""
    m, d = len(monos[0]), sum(monos[0])
    keys = models._monomial_keys(m, d, 2 * n + 1)
    index = dict(zip(keys, range(len(monos))))
    position = {e: i for i, e in enumerate(monos)}
    rows = []
    for e, entries in red_d.items():
        row = {index[e]: 1}
        for t, c in entries:
            k = position[basis_d[t]]
            row[k] = row.get(k, 0) - c
        row = {k: c for k, c in row.items() if c}
        if row:
            rows.append(row)
    return rows


@pytest.mark.parametrize("case", list(_POWER_SPAN_CASES))
def test_quotient_ideal_is_span_of_isotropic_powers(case):
    # oracle: the sampled span of isotropic (n+1)-st powers
    form, n = _POWER_SPAN_CASES[case]
    monos = models.monomials(form.dim, n + 1)
    sub = _sampled_power_span(form, n, monos)
    basis, red, _, _, _ = models._monomial_quotient(form, n, "x" * form.dim)
    rows = _ideal_rows(basis[n + 1], red[n + 1], monos, n)
    dense = [[row.get(k, 0) for k in range(len(monos))] for row in rows]
    assert Subspace.from_rows(len(monos), dense) == sub


@pytest.mark.parametrize("case", [c for c, (_, n) in _POWER_SPAN_CASES.items()
                                  if n >= 2])
def test_quotient_ideal_is_generated_in_degree_n_plus_1(case):
    # oracle: the saturation of the sampled isotropic (n+1)-st powers, the
    # span of their products with every monomial of the degree missing
    form, n = _POWER_SPAN_CASES[case]
    m = form.dim
    low = models.monomials(m, n + 1)
    powers = _sampled_power_span(form, n, low).basis
    basis, red, _, _, _ = models._monomial_quotient(form, n, "x" * m)
    for d in range(n + 2, 2 * n + 1):
        monos = models.monomials(m, d)
        index = {e: i for i, e in enumerate(monos)}
        saturation = SparseEchelon(exact_division=True)
        for shift in models.monomials(m, d - n - 1):
            for row in powers:
                saturation.add({index[tuple(a + b for a, b in zip(e, shift))]: c
                                for e, c in zip(low, row) if c})
        ideal = SparseEchelon(exact_division=True)
        for row in _ideal_rows(basis[d], red[d], monos, n):
            ideal.add(row)
        assert ideal.dim == len(monos) - comb(m + 2 * n - d - 1, m - 1)
        assert saturation.canonical() == ideal.canonical()


def test_k3_ring_validates(k3):
    assert k3.validate().ok
    assert k3.total_dim == 24


def test_k3_ring_rejects_degenerate():
    gram = k3_gram()
    rows = [list(r) for r in gram.rows]
    rows[0] = [0] * 22
    with pytest.raises(ModelConstructionError, match="nondegenerate"):
        k3_ring(Matrix(rows))


def test_torus_dims():
    assert torus_ring(1).dims == (1, 2, 1)
    assert torus_ring(2).dims == (1, 4, 6, 4, 1)


def test_torus_anticommutative(torus2):
    x = torus2.basis_vector(1)
    y = torus2.basis_vector(2)
    assert torus2.multiply(x, y) == torus2.scale(torus2.multiply(y, x), -1)


def test_torus_bigraded_sigma(torus_big):
    assert torus_big.bidegrees[torus_big.sigma_index] == (2, 0)
    assert torus_big.label_of(torus_big.sigma_index) == "z1z2"
    assert torus_big.validate().ok


def test_vector_stream_deterministic():
    a = list(itertools.islice(vector_stream(4), 50))
    b = list(itertools.islice(vector_stream(4), 50))
    assert a == b
    assert all(any(v) for v in a)
    assert len(set(a)) == 50


def test_isotropic_stream_is_isotropic_and_distinct():
    form = QuadraticForm.diagonal([1, 1, 1, -1, -1])
    ws = list(itertools.islice(isotropic_stream(form), 60))
    assert len(set(ws)) == 60
    assert all(form.evaluate(w) == 0 and any(w) for w in ws)


def test_nonisotropic_stream():
    form = QuadraticForm.diagonal([1, 1, 1, -1, -1])
    vs = list(itertools.islice(nonisotropic_stream(form), 30))
    assert all(form.evaluate(v) != 0 for v in vs)


def test_spanning_hl_classes_spans_and_nonisotropic():
    form = QuadraticForm.diagonal([1, 1, 1, -1, -1])
    classes = spanning_hl_classes(form)
    assert len(classes) == 5
    assert all(form.evaluate(c) != 0 for c in classes)
    # a form with isotropic basis vectors forces the +-e1 adjustment
    from llvkit.linalg import Matrix
    hyp = Matrix([[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, 1, 0, 0],
                  [0, 0, 0, 1, 0], [0, 0, 0, 0, -1]])
    classes2 = spanning_hl_classes(QuadraticForm(hyp))
    assert all(QuadraticForm(hyp).evaluate(c) != 0 for c in classes2)


@pytest.mark.parametrize("gram", [
    [[1, 0], [0, -3]], [[2, 1], [1, -1]], [[-1, 0], [0, 7]]])
def test_anisotropic_binary_form_is_rejected_before_enumeration(
        gram, monkeypatch):
    # -det = 3, 3 and 7 are not rational squares
    def no_enumeration(dim):
        raise AssertionError("enumerated vectors")
    monkeypatch.setattr(models, "vector_stream", no_enumeration)
    with pytest.raises(ModelConstructionError, match="not a rational square"):
        next(isotropic_stream(QuadraticForm(Matrix(gram))))


@pytest.mark.parametrize("gram, lines", [
    ([[1, 0], [0, -4]], {(2, 1), (2, -1)}),
    ([[0, 1], [1, 5]], {(1, 0), (5, -2)}),
    ([[1, 0], [0, 0]], {(0, 1)}),
])
def test_isotropic_binary_form_stream_ends_after_its_lines(gram, lines):
    form = QuadraticForm(Matrix(gram))
    got = list(isotropic_stream(form))
    assert len(got) == len(lines) and set(got) == lines
    assert all(form.evaluate(w) == 0 for w in got)


def _sha256_json(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _model_digests(big):
    """sha256 of the dumps of a model and its rational companion, and of
    the exact entries of its maps to rational coordinates."""
    dumps = [ring_to_dict(big), ring_to_dict(big.rational_model)]
    to_rat = [None if m is None else
              [[format_scalar(x) for x in row] for row in m.rows]
              for m in big.to_rational_mats]
    return _sha256_json(dumps), _sha256_json(to_rat)


# sha256 of (ring dumps, maps to rational coordinates) per model.  A
# change to how scalars are represented must leave every structure
# constant and every change of basis as it was.
MODEL_DIGESTS = {
    "model52": ("112e8995e09f31fbc49c35535074d1b129e2c16d6eb2b015ce2774fde9e20bbc",
               "83b9409888ebeb853317ffc29dbe54a616f148e5860d9f4b4bf17bd5cd76f870"),
    "model62": ("e210f4f65cbfa52c4035d6edd255dc0a210eefda3f9b8619c5b1c5ca0da26065",
               "1d9324db2907cb884e8ca76ddf2125a65f19eda1450e30cff34554adcfd895f1"),
    "model53": ("d70d00154ba2b803beee4b8dc08c4374bb5587f1cafd66811363340a7711d38f",
               "18b04c625bddd4855dfbf3faba85147708e1ad76f1b9191fc2ce410aa06e8848"),
    "k3big": ("a05906bf37dd3def0c8fa24e96462249a717f778de6b33c699c5de7f564e4d4c",
             "6e7f3b03473667a8eec9240c0966470d2861dbcc0472dae0a038bf46f53bbb14"),
    "(6,3)": ("a36f95445478971263c15757a187c2c209ec5410284238c28c489adbfffcc6c3",
              "ecd6dd9d65fc16179e9c91e7c5c9ce7018f25d76a5a896aaceb1527116044578"),
    "U + <2,-3,5> n=2":
        ("068a5a2e0394e0c3c374cf88eca7ced6fea8390776e1f5ec286046de0c5b7582",
         "79604da53f372207782a0120481bf17a5c8a96b0d129ac85790a47dd0a6a1267"),
    "U + <2,-3,5> n=3":
        ("9d44ef421ca5eb57623a742b4aa963e9cb4951ad060045cb8cda79a80db57d69",
         "2cad6ea7c47aaaf9e15efaf47316179bd68a2e83207f2a4849ed5ea9e17df298"),
    "diag(1/2,1,1,-1,-3) n=2":
        ("e6b28ca48f809156a6e8a41df5b71a70618f8fcdb6a6eeeebf6ee67240a154a1",
         "a602caf4ac78437a7266cc639d2f8a4f1adab40f2bd8cec19fb5285a915958b5"),
}

# the pinned models that are not session fixtures: (form, n)
_PINNED_MODELS = {
    "(6,3)": (QuadraticForm.diagonal([1, 1, 1, -1, -1, -1]), 3),
    "U + <2,-3,5> n=2": (_HYPERBOLIC_FORM, 2),
    "U + <2,-3,5> n=3": (_HYPERBOLIC_FORM, 3),
    "diag(1/2,1,1,-1,-3) n=2": (QuadraticForm.diagonal(
        [Fraction(1, 2), 1, 1, -1, -3]), 2),
}


@pytest.mark.parametrize("case", sorted(MODEL_DIGESTS))
def test_model_dumps_match_pinned_digests(case, request):
    big = (bogomolov_model(*_PINNED_MODELS[case]) if case in _PINNED_MODELS
           else request.getfixturevalue(case))
    assert _model_digests(big) == MODEL_DIGESTS[case]
