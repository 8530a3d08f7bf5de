import itertools
import random
import time
from fractions import Fraction

import pytest

from llvkit.linalg import Matrix, Subspace, inverse, kernel
from llvkit import pw
from llvkit.models import ModelConstructionError, isotropic_stream
from llvkit.pw import (Filtration, LagrangianTriple, default_lagrangian_triple,
                       isotropic_independence_check,
                       lagrangian_monodromy, nilpotent_index,
                       perverse_chain, perverse_filtration,
                       perverse_hodge_check, weak_pw_check, weight_filtration)
from llvkit.rings import ring_from_dict, ring_to_dict
from subspace_ops import reference_subspace, subspace_intersect, subspace_sum


def jordan_block(n):
    return Matrix([[1 if j == i - 1 else 0 for j in range(n)]
                   for i in range(n)])


def rand_nilpotent(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = rng.randint(-2, 2)
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                p[i][k] += c * p[j][k]
    pm = Matrix(p)
    return pm * Matrix(a) * inverse(pm)


def weight_filtration_oracle(nmat, center):
    """Independent route: weight spaces of the sl2 eigen-decomposition.

    Builds kernels of powers and splits them greedily into Jordan strings,
    then takes spans of the low-weight vectors -- written without reusing
    any helper from the library implementation.
    """
    n = nmat.nrows
    powers = [Matrix.identity(n)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * nmat)
    nil = len(powers) - 1
    kers = [kernel(powers[j]) for j in range(nil + 1)]
    placed = []                  # (length, top vector)
    for length in range(nil, 0, -1):
        blocked = list(kers[length - 1].basis)
        for l2, top in placed:
            vec = list(top)
            for _ in range(l2 - length):
                vec = list(nmat.matvec(vec))
            blocked.append(vec)
        sub = Subspace.from_rows(n, blocked)
        for v in kers[length].basis:
            res = sub.reduce(v)
            if any(res):
                placed.append((length, v))
                sub = Subspace.from_rows(n, sub.basis + (res,))
    by_weight = {}
    for length, top in placed:
        vec = list(top)
        for a in range(length):
            by_weight.setdefault(length - 1 - 2 * a, []).append(tuple(vec))
            vec = list(nmat.matvec(vec))
    lo = min(by_weight) if by_weight else 0
    hi = max(by_weight) if by_weight else 0
    steps = {lo + center - 1: Subspace.zero(n)}
    acc = []
    for w in range(lo, hi + 1):
        acc.extend(by_weight.get(w, []))
        steps[w + center] = Subspace.from_rows(n, acc)
    return Filtration(n, steps)


def assert_kernel_image_formula(filt, nmat, center):
    """filt agrees with Deligne's formula for the weight filtration,
    W_m = sum over j >= 0 of N^j ker(N^(m - center + 2j + 1)).  The j-th
    term ker(N^e) n im(N^j), e = m - center + j + 1, is taken as the image
    of a kernel; ker N^t is the whole space for t >= nil."""
    n = nmat.nrows
    powers = [Matrix.identity(n)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * nmat)
    nil = len(powers) - 1
    kers = [kernel(p) for p in powers]
    for m in range(filt.lo - 1, filt.hi + 2):
        rows = []
        for j in range(nil):
            e = m - center + j + 1
            if e > 0:
                rows.extend(powers[j].matvec(v)
                            for v in kers[min(e + j, nil)].basis)
        assert filt.at(m) == reference_subspace(n, rows), m


def test_weight_filtration_zero_matrix():
    f = weight_filtration(Matrix.zeros(3, 3), center=5)
    assert f.dims() == {4: 0, 5: 3}


def test_weight_filtration_jordan3():
    f = weight_filtration(jordan_block(3), center=0)
    assert [f.at(m).dim for m in (-3, -2, -1, 0, 1, 2)] == [0, 1, 1, 2, 2, 3]


def test_weight_filtration_matches_oracle_on_200_random():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 8)
        nmat = rand_nilpotent(rng, n)
        center = rng.randint(-3, 3)
        ours = weight_filtration(nmat, center=center)
        oracle = weight_filtration_oracle(nmat, center)
        assert ours == oracle
        assert_kernel_image_formula(ours, nmat, center)


def test_weight_filtrations_of_model_rings_match_the_formula(rat52, k3big):
    # the weight filtrations of the weak P = W check, degree by degree
    for ring in (rat52, k3big.rational_model):
        nmat = lagrangian_monodromy(ring, default_lagrangian_triple(ring))
        two_n = ring.top // 2
        for k, dim in enumerate(ring.dims):
            if dim:
                block = nmat.blocks[k]
                filt = weight_filtration(block, center=k - two_n)
                assert_kernel_image_formula(filt, block, k - two_n)


def test_weight_axioms_reject_a_jump_outside_the_window():
    # N = J_2 + 0 on Q^3 (N e1 = e2), centered at 0, so nil = 2.  The
    # weight filtration is 0 < <e2> < <e2, e3> < V at -2, -1, 0, 1.  Moving
    # the e3 jump to c + nil + 1 = 3 or to c - nil - 1 = -3 keeps
    # N W_m <= W_(m-2) and N^j : gr_j ~ gr_(-j) for j <= nil; only
    # W_(c-nil) = 0 and W_(c+nil-1) = V reject it.
    nmat = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    powers = pw._nilpotent_powers(nmat)

    def span(*vecs):
        return Subspace.from_rows(3, vecs)

    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    zero, full = Subspace.zero(3), Subspace.full(3)
    good = Filtration(3, {-2: zero, -1: span(e2), 0: span(e2, e3), 1: full})
    assert weight_filtration(nmat) == good
    pw._verify_weight_axioms(good, nmat, 0, powers)
    for steps in ({-2: zero, -1: span(e2), 1: span(e1, e2), 3: full},
                  {-4: zero, -3: span(e3), -1: span(e2, e3), 1: full}):
        with pytest.raises(RuntimeError, match=r"jumps outside \[-1, 1\]"):
            pw._verify_weight_axioms(Filtration(3, steps), nmat, 0, powers)


def test_weight_filtration_same_on_fraction_typed_rows():
    # integral Fractions from the caller take the int path: the matrix,
    # and so every step of the filtration, is the one built from ints
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        nmat = rand_nilpotent(rng, n)
        frac = Matrix([[Fraction(x) for x in row] for row in nmat.rows])
        assert frac.rows == nmat.rows
        assert all(type(x) is int for row in frac.rows for x in row)
        center = rng.randint(-3, 3)
        want = weight_filtration(nmat, center=center)
        got = weight_filtration(frac, center=center)
        assert got.steps == want.steps
        assert ([[type(x) for v in sub.basis for x in v]
                 for sub in got.steps.values()]
                == [[type(x) for v in sub.basis for x in v]
                    for sub in want.steps.values()])


def test_weight_filtration_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="not nilpotent"):
        weight_filtration(Matrix.identity(2))


def test_nilpotent_index():
    assert nilpotent_index(Matrix.zeros(3, 3)) == 1
    assert nilpotent_index(jordan_block(3)) == 3
    with pytest.raises(ValueError):
        nilpotent_index(Matrix([[2]]))


def test_perverse_rejects_nonisotropic(rat52):
    with pytest.raises(ValueError, match="isotropic"):
        perverse_filtration(rat52, (Fraction(1), 0, 0, 0, 0), 4)
    with pytest.raises(ValueError, match="isotropic"):
        perverse_filtration(rat52, (Fraction(0),) * 5, 4)


def test_perverse_monotone_and_exhaustive(rat52):
    beta = (Fraction(1), 0, 0, Fraction(1), 0)
    for k in (0, 2, 4, 6, 8):
        filt = perverse_filtration(rat52, beta, k)
        dims = [filt.at(m).dim for m in range(filt.lo, filt.hi + 1)]
        assert dims == sorted(dims)
        assert filt.at(filt.lo).dim == 0
        assert filt.at(filt.hi).dim == rat52.dims[k]


def test_perverse_middle_jumps_match_hodge_rows(model52):
    # graded jumps of P in the middle degree equal row sums of the
    # Hodge diamond (perverse Hodge numbers)
    rat = model52.rational_model
    beta = (Fraction(1), 0, 0, Fraction(1), 0)
    filt = perverse_filtration(rat, beta, 4)
    jump_dims = [d for _, d in filt.jumps()]
    hodge = model52.hodge_dims()
    rows = {}
    for (p, q), d in hodge.items():
        if p + q == 4:
            rows[p] = rows.get(p, 0) + d
    assert jump_dims == [rows[p] for p in sorted(rows)]


def test_perverse_matches_whole_ring_oracle(rat52):
    # oracle: evaluate the kernel/image formula on full-ring subspaces and
    # slice out degree k afterwards, instead of working blockwise
    from llvkit.lefschetz import cup_operator
    beta = (Fraction(1), 0, 0, Fraction(1), 0)
    lmat = cup_operator(rat52, beta).matrix()
    n = rat52.total_dim
    two_n = rat52.top // 2
    powers = [Matrix.identity(n)]
    for _ in range(two_n + 2):
        powers.append(powers[-1] * lmat)

    def power(j):
        return powers[j] if j < len(powers) else Matrix.zeros(n, n)

    def degree_subspace(k):
        lo, hi = rat52.slice_of(k)
        rows = []
        for gi in range(lo, hi):
            rows.append(rat52.basis_vector(gi))
        return Subspace.from_rows(n, rows)

    for k in (2, 4, 6):
        filt = perverse_filtration(rat52, beta, k)
        amb_k = degree_subspace(k)
        lo, _hi = rat52.slice_of(k)
        for m in range(filt.lo, filt.hi + 1):
            total = Subspace.zero(n)
            for i in range(1, two_n + 2):
                e = two_n + m + i - k
                if e <= 0:
                    continue
                ker = kernel(power(e))
                img = Subspace.from_rows(n, power(i - 1).transpose().rows)
                total = subspace_sum(total, subspace_intersect(ker, img))
            sliced = subspace_intersect(total, amb_k)
            expected = Subspace.from_rows(
                n, [rat52.embed(k, v) for v in filt.at(m).basis])
            assert sliced == expected, (k, m)


def test_perverse_hodge_check_model(model52):
    res = perverse_hodge_check(model52)
    assert res.ok, res.failures
    assert res.data["shift"] == model52.symplectic_n()


def test_perverse_hodge_check_k3big(k3big):
    res = perverse_hodge_check(k3big)
    assert res.ok, res.failures


def test_perverse_hodge_check_rejects_a_flag_moved_off_the_hodge_flag(
        model52, monkeypatch):
    # the degree-2 flag with its coordinates reversed has the same jumps as
    # the Hodge flag but is not it, so no uniform shift matches
    filtration = pw.perverse_filtration

    def moved(ring, beta, k, chain=None):
        filt = filtration(ring, beta, k, chain)
        if k != 2:
            return filt
        return Filtration(filt.ambient, {
            m: Subspace.from_rows(filt.ambient,
                                  [tuple(reversed(v)) for v in sub.basis])
            for m, sub in filt.steps.items()}, degree=k)

    lo2, _ = model52.slice_of(2)
    sigma_bar = model52.sigma_bar()[lo2:lo2 + model52.dims[2]]
    assert moved(model52, sigma_bar, 2) != filtration(model52, sigma_bar, 2)
    assert (moved(model52, sigma_bar, 2).jumps()
            == filtration(model52, sigma_bar, 2).jumps())
    monkeypatch.setattr(pw, "perverse_filtration", moved)
    res = perverse_hodge_check(model52)
    assert not res.ok
    assert res.failures == ["no uniform index shift matches the Hodge flags"]


def test_perverse_degree_zero_single_step(model52):
    lo2, _ = model52.slice_of(2)
    sigma_bar = tuple(model52.sigma_bar()[lo2 + t]
                      for t in range(model52.dims[2]))
    filt = perverse_filtration(model52, sigma_bar, 0)
    assert [d for _, d in filt.jumps()] == [1]


def test_lagrangian_triple_validation(rat52):
    form = rat52.quadratic_form
    good = default_lagrangian_triple(rat52)
    good.validate(form)
    with pytest.raises(ValueError, match="isotropic"):
        LagrangianTriple((Fraction(1), 0, 0, 0, 0), good.eta,
                         good.rho).validate(form)
    with pytest.raises(ValueError, match="orthogonal"):
        LagrangianTriple(good.beta, good.eta,
                         (Fraction(1), 0, 0, 0, 0)).validate(form)


@pytest.mark.parametrize("diag, message", [
    ([1, 0, 0, 0, 0], "degenerate: rank 1"),
    ([0, 0, 0, 0, 0], "degenerate: rank 0"),
    ([1, -1, -1, -1, -1], "positive index 1"),
])
def test_default_triple_refuses_unusable_forms(rat52, diag, message):
    # decided from the form's rank and signature, before any search
    data = ring_to_dict(rat52)
    data["quadratic_form"] = [[str(d) if i == j else "0"
                               for j in range(5)] for i, d in enumerate(diag)]
    ring = ring_from_dict(data)
    start = time.perf_counter()
    with pytest.raises(ModelConstructionError, match=message):
        default_lagrangian_triple(ring)
    assert time.perf_counter() - start < 1


def test_lagrangian_monodromy_properties(rat52):
    tri = default_lagrangian_triple(rat52)
    nop = lagrangian_monodromy(rat52, tri)
    nmat = nop.matrix()
    # degree-preserving: blocks outside the diagonal pattern vanish
    assert nop.shift == 0
    for r in range(rat52.total_dim):
        for c in range(rat52.total_dim):
            if nmat[r, c]:
                assert rat52.degree_of(r) == rat52.degree_of(c)
    assert nilpotent_index(nop.blocks[2]) == 3
    # N lies in the degree-0 part of the LLV closure
    from llvkit.llv import llv_closure
    alg = llv_closure(rat52)
    assert alg.contains(nmat)


def test_pw_compare_different_jump_counts(rat52):
    # flags with different jumps are different filtrations
    beta = (Fraction(1), 0, 0, Fraction(1), 0)
    f4 = perverse_filtration(rat52, beta, 4)
    padded = Filtration(f4.ambient, {0: Subspace.zero(f4.ambient),
                                     1: Subspace.full(f4.ambient)})
    assert f4 != padded
    assert f4.jumps() != padded.jumps()


def test_weak_pw_model(rat52):
    tri = default_lagrangian_triple(rat52)
    res = weak_pw_check(rat52, tri)
    assert res.ok, res.failures
    assert res.data["type_iii"] is True
    assert res.data["shift"] == 0


def test_weak_pw_k3big(k3big):
    rat = k3big.rational_model
    tri = default_lagrangian_triple(rat)
    res = weak_pw_check(rat, tri)
    assert res.ok, res.failures


def test_isotropic_independence(rat52):
    res = isotropic_independence_check(rat52, count=10)
    assert res.ok, res.failures
    assert res.data["classes_checked"] == 10


def test_perverse_dims_match_across_classes_detail(rat52):
    form = rat52.quadratic_form
    mus = list(itertools.islice(isotropic_stream(form), 4))
    reference = None
    for mu in mus:
        dims = {k: perverse_filtration(
            rat52, tuple(Fraction(c) for c in mu), k).jumps()
            for k in (0, 2, 4, 6, 8)}
        reference = reference or dims
        assert dims == reference


def test_perverse_filtration_on_a_shared_chain(rat52):
    form = rat52.quadratic_form
    for mu in itertools.islice(isotropic_stream(form), 3):
        beta = tuple(Fraction(c) for c in mu)
        chain = perverse_chain(rat52, beta)
        for k in range(0, rat52.top + 1, 2):
            shared = perverse_filtration(rat52, beta, k, chain)
            own = perverse_filtration(rat52, beta, k)
            assert shared == own and shared.steps.keys() == own.steps.keys()


def test_checks_build_one_perverse_chain_per_class(rat52, model52,
                                                   monkeypatch):
    calls = {"chain": 0, "filtration": 0}
    chain, filtration = pw.perverse_chain, pw.perverse_filtration

    def counted_chain(*args):
        calls["chain"] += 1
        return chain(*args)

    def counted_filtration(*args):
        calls["filtration"] += 1
        return filtration(*args)

    monkeypatch.setattr(pw, "perverse_chain", counted_chain)
    monkeypatch.setattr(pw, "perverse_filtration", counted_filtration)
    degrees = sum(1 for k in range(0, rat52.top + 1, 2) if rat52.dims[k])
    for run, classes in (
            (lambda: isotropic_independence_check(rat52, count=3), 3),
            (lambda: weak_pw_check(rat52, default_lagrangian_triple(rat52)), 1),
            (lambda: perverse_hodge_check(model52), 1)):
        calls.update(chain=0, filtration=0)
        assert run().ok
        assert calls == {"chain": classes, "filtration": classes * degrees}
