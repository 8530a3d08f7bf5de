import itertools
import random
import time
from fractions import Fraction

import pytest

from llvkit.lefschetz import BlockChain, cup_operator
from llvkit.linalg import Matrix, Subspace, inverse, kernel
from llvkit import pw
from llvkit.models import ModelConstructionError, isotropic_stream
from llvkit.pw import (Filtration, LagrangianTriple, default_lagrangian_triple,
                       isotropic_independence_check,
                       lagrangian_monodromy,
                       perverse_filtration, perverse_jumps,
                       perverse_hodge_check, weak_pw_check, weight_filtration)
from llvkit.rings import ring_from_dict, ring_to_dict
from lie_oracles import nilpotent_index
from subspace_ops import reference_subspace, subspace_intersect, subspace_sum


def nilpotent_powers(mat):
    """[I, N, ..., N^d] with N^d = 0 and d minimal."""
    powers = [Matrix.identity(mat.nrows), mat]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * mat)
    return powers


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
    sizes = {lo + center - 1: 0}
    acc = []
    for w in range(lo, hi + 1):
        acc.extend(by_weight.get(w, []))
        sizes[w + center] = len(acc)
    return Filtration(n, acc, sizes)


def perverse_filtration_oracle(ring, beta):
    """{k: {m: P_m A^k}} from the kernel/image formula, one canonical
    subspace per step, over the window of ``perverse_filtration``.

    The i-th term ker(L^e) n im(L^(i-1)), e = 2n + m + i - k, of P_m A^k
    is taken as the image L^(i-1) ker(L^(e+i-1)) of a kernel on degree
    k - 2(i-1), since L^(i-1) u lies in ker L^e exactly when u lies in
    ker L^(e+i-1).  With L^nil = 0, the i = 1 term at m = k - 2n + nil - 1
    is all of A^k, so the steps from m = k - 2n - nil - 1 reach the full
    space by that index.
    """
    chain = BlockChain(cup_operator(ring, beta).blocks,
                       dict(enumerate(ring.dims)))
    two_n = ring.top // 2
    nil = chain.nilpotency_index()

    def term(k, i, e):
        """ker(L^e) n im(L^(i-1)) in degree k, as spanning rows."""
        src = k - 2 * (i - 1)
        if not chain.dim(src):
            return []
        img = chain.power(src, i - 1)
        j = e + i - 1
        if j >= nil or src + 2 * j > ring.top:
            return img.transpose().rows        # the kernel is all of it
        return [img.matvec(v) for v in kernel(chain.power(src, j)).basis]

    flags = {}
    for k, dim_k in enumerate(ring.dims):
        if not dim_k:
            continue
        steps = flags[k] = {}
        for m in range(k - two_n - nil - 1, k - two_n + nil):
            rows = []
            for i in range(1, two_n + 2):
                e = two_n + m + i - k
                if e > 0:
                    rows.extend(term(k, i, e))
            steps[m] = Subspace.from_rows(dim_k, rows)
            if steps[m].dim == dim_k:
                break
    return flags


def verify_weight_axioms(filt, nmat, center, powers):
    """Certify filt as the weight filtration of N centered at c.

    With ``powers`` = [I, N, ..., N^nil] and N^nil = 0, three checks:
    (a) N W_m <= W_(m-2) for every m;
    (b) N^j : gr_(c+j) -> gr_(c-j) is an isomorphism for 1 <= j < nil;
    (c) W_(c-nil) = 0 and W_(c+nil-1) is the whole space.
    For j >= nil, N^j = 0 and (c) makes gr_(c+j) = gr_(c-j) = 0, so (b)
    holds for every j >= 0, and a finite increasing filtration with (a)
    and (b) for every j is unique (Deligne, La conjecture de Weil II,
    1.6.1).  Without (c), a jump moved past c + nil - 1 would pass (a)
    and (b) for j <= nil.  Raises RuntimeError on the first axiom that
    fails.
    """
    nil = len(powers) - 1
    if (filt.at(center - nil).dim
            or filt.at(center + nil - 1).dim != filt.ambient):
        raise RuntimeError(
            f"weight filtration jumps outside "
            f"[{center - nil + 1}, {center + nil - 1}]")
    for m in range(filt.lo, filt.hi + 1):
        below = filt.at(m - 2)
        if not all(below.contains(nmat.matvec(v)) for v in filt.at(m).basis):
            raise RuntimeError(f"weight filtration axiom N W_{m} <= W_{m-2} fails")
    for j in range(1, nil):
        top = filt.at(center + j)
        below_top = filt.at(center + j - 1)
        bot = filt.at(center - j)
        below_bot = filt.at(center - j - 1)
        image_rows = [powers[j].matvec(v) for v in top.basis]
        mapped = Subspace.from_rows(top.ambient,
                                    list(below_bot.basis) + image_rows)
        rank = mapped.dim - below_bot.dim
        if rank != top.dim - below_top.dim or rank != bot.dim - below_bot.dim:
            raise RuntimeError(
                f"weight filtration axiom N^{j}: gr_{center + j} ~ "
                f"gr_{center - j} fails")


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
        verify_weight_axioms(ours, nmat, center, nilpotent_powers(nmat))


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
                verify_weight_axioms(filt, block, k - two_n,
                                     nilpotent_powers(block))


def test_weight_axioms_reject_a_jump_outside_the_window():
    # N = J_2 + 0 on Q^3 (N e1 = e2), centered at 0, so nil = 2.  The
    # weight filtration is 0 < <e2> < <e2, e3> < V at -2, -1, 0, 1.  Moving
    # the e3 jump to c + nil + 1 = 3 or to c - nil - 1 = -3 keeps
    # N W_m <= W_(m-2) and N^j : gr_j ~ gr_(-j) for j <= nil; only
    # W_(c-nil) = 0 and W_(c+nil-1) = V reject it.
    nmat = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    powers = nilpotent_powers(nmat)
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    good = Filtration(3, [e2, e3, e1], {-2: 0, -1: 1, 0: 2, 1: 3})
    assert weight_filtration(nmat) == good
    verify_weight_axioms(good, nmat, 0, powers)
    for basis, sizes in (([e2, e1, e3], {-2: 0, -1: 1, 1: 2, 3: 3}),
                         ([e3, e2, e1], {-4: 0, -3: 1, -1: 2, 1: 3})):
        with pytest.raises(RuntimeError, match=r"jumps outside \[-1, 1\]"):
            verify_weight_axioms(Filtration(3, basis, sizes), nmat, 0, powers)


def test_weight_filtration_refuses_a_kernel_that_is_too_large(monkeypatch):
    # ker N reported as the whole space makes tops of length 1 that N
    # does not kill; the Jordan-basis certificate refuses them
    rng = random.Random(5)
    nmat = rand_nilpotent(rng, 6)
    assert not nmat.is_zero()
    true_kernel = pw.kernel
    monkeypatch.setattr(pw, "kernel", lambda mat: (
        Subspace.full(mat.ncols) if mat == nmat else true_kernel(mat)))
    with pytest.raises(RuntimeError, match="not killed by N"):
        weight_filtration(nmat, center=1)


@pytest.mark.parametrize("nmat", [jordan_block(3), Matrix.zeros(2, 2),
                                  Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])])
def test_weight_filtration_refuses_a_dropped_chain(monkeypatch, nmat):
    # ker N^nil = V reported without its first basis vector, the top of
    # a longest chain, loses that chain, and the chain vectors no longer
    # fill the space
    true_kernel = pw.kernel

    def short_kernel(mat):
        sub = true_kernel(mat)
        if not mat.is_zero():
            return sub
        return Subspace.from_rows(sub.ambient, sub.basis[1:])

    monkeypatch.setattr(pw, "kernel", short_kernel)
    with pytest.raises(ValueError, match="not a basis"):
        weight_filtration(nmat)


def test_jordan_chains_refuse_dropped_and_dependent_vectors(rat52,
                                                            monkeypatch):
    # the perverse flags of L_beta: a kernel of a power of L that loses
    # its first vector loses that top's chain, and an independence test
    # that lets every top through places dependent chains; either way a
    # degree's chain vectors are no basis, and its flag is refused
    beta = (1, 0, 0, 1, 0)
    true_kernel, echelon = pw.kernel, pw.SparseEchelon
    monkeypatch.setattr(pw, "kernel", lambda mat: Subspace.from_rows(
        mat.ncols, true_kernel(mat).basis[1:]))
    with pytest.raises(ValueError, match="not a basis"):
        perverse_filtration(rat52, beta)
    monkeypatch.setattr(pw, "kernel", true_kernel)

    class Lenient(echelon):
        def add(self, vec):
            super().add(vec)
            return True

    monkeypatch.setattr(pw, "SparseEchelon", Lenient)
    for build in (lambda: perverse_filtration(rat52, beta),
                  lambda: weight_filtration(jordan_block(3))):
        with pytest.raises(ValueError, match="not a basis"):
            build()


def test_filtration_refuses_what_is_not_a_flag_of_a_basis():
    e1, e2 = (1, 0), (0, 1)
    assert Filtration(2, [e2, e1], {0: 0, 3: 1, 4: 2}).jumps() == [(3, 1),
                                                                  (4, 1)]
    for basis, sizes, message in (
            ([e1, e2], {0: 0, 1: 2, 2: 1, 3: 2}, "not increasing at index 2"),
            ([e1, e2], {0: 1, 1: 2}, "start at the zero subspace"),
            ([e1, e2], {0: 0, 1: 1}, "end at the full space"),
            ([e1, e2], {}, "at least one step"),
            ([e1], {0: 0, 1: 1}, "1 vectors of rank 1 are not a basis"),
            ([e1, (2, 0)], {0: 0, 1: 2}, "2 vectors of rank 1 are not a"),
            ([e1, e2, e1], {0: 0, 1: 3}, "3 vectors of rank 2 are not a")):
        with pytest.raises(ValueError, match=message):
            Filtration(2, basis, sizes)


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
        assert got.basis == want.basis and got.sizes == want.sizes
        assert ([type(x) for v in got.basis for x in v]
                == [type(x) for v in want.basis for x in v])


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
        perverse_filtration(rat52, (Fraction(1), 0, 0, 0, 0))
    with pytest.raises(ValueError, match="isotropic"):
        perverse_filtration(rat52, (Fraction(0),) * 5)


def test_perverse_monotone_and_exhaustive(rat52):
    beta = (Fraction(1), 0, 0, Fraction(1), 0)
    filts = perverse_filtration(rat52, beta)
    assert list(filts) == [0, 2, 4, 6, 8]
    for k, filt in filts.items():
        dims = [filt.at(m).dim for m in range(filt.lo, filt.hi + 1)]
        assert dims == sorted(dims)
        assert filt.at(filt.lo).dim == 0
        assert filt.at(filt.hi).dim == rat52.dims[k]


def test_perverse_middle_jumps_match_hodge_rows(model52):
    # graded jumps of P in the middle degree equal row sums of the
    # Hodge diamond (perverse Hodge numbers)
    rat = model52.rational_model
    beta = (Fraction(1), 0, 0, Fraction(1), 0)
    filt = perverse_filtration(rat, beta)[4]
    jump_dims = [d for _, d in filt.jumps()]
    hodge = model52.hodge_dims()
    rows = {}
    for (p, q), d in hodge.items():
        if p + q == 4:
            rows[p] = rows.get(p, 0) + d
    assert jump_dims == [rows[p] for p in sorted(rows)]


def test_perverse_matches_whole_ring_oracle(rat52, torus2):
    # oracle: evaluate the kernel/image formula on full-ring subspaces and
    # slice out degree k afterwards, instead of working blockwise; the
    # torus adds the odd degrees 1 and 3
    for ring, beta in ((rat52, (1, 0, 0, 1, 0)), (torus2, (0, 1, 0, 0, 0, -1))):
        assert_perverse_matches_whole_ring_oracle(
            ring, tuple(map(Fraction, beta)))


def assert_perverse_matches_whole_ring_oracle(ring, beta):
    lmat = cup_operator(ring, beta).matrix()
    n = ring.total_dim
    two_n = ring.top // 2
    powers = [Matrix.identity(n)]
    for _ in range(two_n + 2):
        powers.append(powers[-1] * lmat)

    def power(j):
        return powers[j] if j < len(powers) else Matrix.zeros(n, n)

    def degree_subspace(k):
        lo, hi = ring.slice_of(k)
        rows = []
        for gi in range(lo, hi):
            rows.append(ring.basis_vector(gi))
        return Subspace.from_rows(n, rows)

    filts = perverse_filtration(ring, beta)
    assert list(filts) == [k for k, d in enumerate(ring.dims) if d]
    for k, filt in filts.items():
        amb_k = degree_subspace(k)
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
                n, [ring.embed(k, v) for v in filt.at(m).basis])
            assert sliced == expected, (ring.name, k, m)


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

    def moved(ring, beta):
        filts = filtration(ring, beta)
        filt = filts[2]
        filts[2] = Filtration(filt.ambient,
                              [tuple(reversed(v)) for v in filt.basis],
                              filt.sizes)
        return filts

    lo2, _ = model52.slice_of(2)
    sigma_bar = model52.sigma_bar()[lo2:lo2 + model52.dims[2]]
    assert moved(model52, sigma_bar)[2] != filtration(model52, sigma_bar)[2]
    assert (moved(model52, sigma_bar)[2].jumps()
            == filtration(model52, sigma_bar)[2].jumps())
    monkeypatch.setattr(pw, "perverse_filtration", moved)
    res = perverse_hodge_check(model52)
    assert not res.ok
    assert res.failures == ["no uniform index shift matches the Hodge flags"]


def test_perverse_hodge_check_rejects_one_vector_off_the_hodge_support(
        model52, monkeypatch):
    # the first vector of the degree-2 flag, of holomorphic degree 0, given
    # a coordinate of holomorphic degree 2: the sizes stay, and only the
    # support of the steps below the top tells the flags apart
    filtration = pw.perverse_filtration
    lo2, _ = model52.slice_of(2)
    top = max(range(model52.dims[2]), key=lambda t: model52.bidegrees[lo2 + t])

    def moved(ring, beta):
        filts = filtration(ring, beta)
        filt = filts[2]
        first = list(filt.basis[0])
        first[top] += 1
        filts[2] = Filtration(filt.ambient, [first, *filt.basis[1:]],
                              filt.sizes)
        return filts

    sigma_bar = model52.sigma_bar()[lo2:lo2 + model52.dims[2]]
    want, got = filtration(model52, sigma_bar)[2], moved(model52, sigma_bar)[2]
    assert model52.bidegrees[lo2 + top][0] == 2
    assert got.dims() == want.dims() and got != want
    monkeypatch.setattr(pw, "perverse_filtration", moved)
    res = perverse_hodge_check(model52)
    assert not res.ok and res.data["shift"] is None
    assert res.failures == ["no uniform index shift matches the Hodge flags"]


def test_perverse_degree_zero_single_step(model52):
    lo2, _ = model52.slice_of(2)
    sigma_bar = tuple(model52.sigma_bar()[lo2 + t]
                      for t in range(model52.dims[2]))
    filt = perverse_filtration(model52, sigma_bar)[0]
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


def _with_declared_form(ring, diag):
    """``ring`` reloaded with the diagonal degree-2 form ``diag`` in place
    of its own: a triple valid for the declared form need not be for the
    ring's products."""
    data = ring_to_dict(ring)
    data["quadratic_form"] = [[str(d) if i == j else "0"
                               for j in range(len(diag))]
                              for i, d in enumerate(diag)]
    return ring_from_dict(data)


@pytest.mark.parametrize("diag, message", [
    ([1, 0, 0, 0, 0], "degenerate: rank 1"),
    ([0, 0, 0, 0, 0], "degenerate: rank 0"),
    ([1, -1, -1, -1, -1], "positive index 1"),
])
def test_default_triple_refuses_unusable_forms(rat52, diag, message):
    # decided from the form's rank and signature, before any search
    ring = _with_declared_form(rat52, diag)
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
    from lie_oracles import llv_closure
    alg = llv_closure(rat52)
    assert alg.contains(nmat)


def test_pw_compare_different_jump_counts(rat52):
    # flags with different jumps are different filtrations
    beta = (Fraction(1), 0, 0, Fraction(1), 0)
    f4 = perverse_filtration(rat52, beta)[4]
    padded = Filtration(f4.ambient, Subspace.full(f4.ambient).basis,
                        {0: 0, 1: f4.ambient})
    assert f4 != padded
    assert f4.jumps() != padded.jumps()


def test_weak_pw_model(rat52):
    tri = default_lagrangian_triple(rat52)
    res = weak_pw_check(rat52, tri)
    assert res.ok, res.failures
    assert res.data["type_iii"] is True
    assert res.data["shift"] == 0


@pytest.mark.parametrize("fixture", ["model52", "model53", "model62"])
def test_degree2_index_read_off_the_weight_flag_is_the_dense_one(request,
                                                                 fixture):
    ring = request.getfixturevalue(fixture).rational_model
    tri = default_lagrangian_triple(ring)
    res = weak_pw_check(ring, tri)
    assert res.ok, res.failures
    nop = lagrangian_monodromy(ring, tri)
    assert res.data["degree2_nilpotent_index"] == nilpotent_index(
        nop.blocks[2])


def test_monodromy_refuses_a_rho_without_hard_lefschetz(rat52):
    # rho is positive for the declared form but isotropic for the ring's
    # own form diag(1, 1, 1, -1, -1), so L_rho fails Hard Lefschetz
    ring = _with_declared_form(rat52, [1, 1, 1, 1, -1])
    tri = LagrangianTriple((0, 1, 0, 0, 1), (0, 0, 1, 0, 1), (1, 0, 0, 1, 0))
    for run in (lagrangian_monodromy, weak_pw_check):
        with pytest.raises(ValueError,
                           match="^rho does not satisfy Hard Lefschetz$"):
            run(ring, tri)


def test_weak_pw_refuses_a_monodromy_that_is_not_nilpotent(rat52):
    # (beta, rho) = 1 for the ring's own form, so N = [L_beta, Lam_rho]
    # has a nonzero H part and acts on H^0 by a nonzero scalar
    ring = _with_declared_form(rat52, [0, 1, 1, 0, -1])
    tri = LagrangianTriple((1, 0, 0, 1, 0), (0, 0, 1, 0, 1), (1, 1, 0, 0, 0))
    assert lagrangian_monodromy(ring, tri).blocks[0][0, 0] != 0
    with pytest.raises(ValueError, match="^operator is not nilpotent$"):
        weak_pw_check(ring, tri)


def test_weak_pw_k3big(k3big):
    rat = k3big.rational_model
    tri = default_lagrangian_triple(rat)
    res = weak_pw_check(rat, tri)
    assert res.ok, res.failures


def test_isotropic_independence(rat52):
    res = isotropic_independence_check(rat52)
    assert res.ok, res.failures
    assert res.data["classes_checked"] == 10


def test_perverse_dims_match_across_classes_detail(rat52):
    form = rat52.quadratic_form
    mus = list(itertools.islice(isotropic_stream(form), 4))
    reference = None
    for mu in mus:
        dims = {k: filt.jumps() for k, filt in perverse_filtration(
            rat52, tuple(Fraction(c) for c in mu)).items()}
        reference = reference or dims
        assert dims == reference


def test_checks_build_one_perverse_chain_per_class(rat52, model52,
                                                   monkeypatch):
    # one chain of powers per class; the independence check counts its
    # jumps from the ranks of that chain and builds no perverse flag
    calls = {"chain": 0, "filtration": 0}
    chain, filtration = pw.BlockChain, pw.perverse_filtration

    def counted_chain(blocks, dims, shift=2):
        calls["chain"] += shift == 2       # a weight flag's chain has shift 0
        return chain(blocks, dims, shift)

    def counted_filtration(*args):
        calls["filtration"] += 1
        return filtration(*args)

    monkeypatch.setattr(pw, "BlockChain", counted_chain)
    monkeypatch.setattr(pw, "perverse_filtration", counted_filtration)
    for run, classes, flags in (
            (lambda: isotropic_independence_check(rat52), 10, 0),
            (lambda: weak_pw_check(rat52, default_lagrangian_triple(rat52)),
             1, 1),
            (lambda: perverse_hodge_check(model52), 1, 1)):
        calls.update(chain=0, filtration=0)
        assert run().ok
        assert calls == {"chain": classes, "filtration": flags}


@pytest.mark.parametrize("fixture", ["rat52", "model53", "model62", "k3big",
                                     "torus2"])
def test_perverse_jumps_match_the_flags_of_ten_classes(request, fixture):
    # the flags read off the Jordan chains equal the kernel/image formula
    # step by step, and the rank count is the jumps of both
    ring = request.getfixturevalue(fixture)
    ring = getattr(ring, "rational_model", None) or ring
    for mu in itertools.islice(isotropic_stream(ring.quadratic_form), 10):
        flags = perverse_filtration(ring, mu)
        oracle = perverse_filtration_oracle(ring, mu)
        assert list(flags) == list(oracle), mu
        for k, filt in flags.items():
            assert filt.dims() == {m: sub.dim for m, sub in oracle[k].items()}
            assert all(filt.at(m) == sub
                       for m, sub in oracle[k].items()), (mu, k)
        assert perverse_jumps(ring, mu) == {
            k: sorted(filt.jumps()) for k, filt in flags.items()}, mu


def test_isotropic_independence_fails_on_one_class_with_other_jumps(
        rat52, monkeypatch):
    # the third class's degree-4 jumps moved by one index: the check
    # reports that class and keeps the first class's dims
    jumps, seen = pw.perverse_jumps, []

    def moved(ring, mu):
        out = jumps(ring, mu)
        seen.append(mu)
        if len(seen) == 3:
            out[4] = [(m + 1, d) for m, d in out[4]]
        return out

    want = isotropic_independence_check(rat52).data["dims"]
    monkeypatch.setattr(pw, "perverse_jumps", moved)
    res = isotropic_independence_check(rat52)
    assert not res.ok
    assert len(res.failures) == 1 and str(seen[2]) in res.failures[0]
    assert res.data["dims"] == want and res.data["classes_checked"] == 10


@pytest.mark.parametrize("offset", [2, 1])
def test_weak_pw_rejects_a_weight_flag_moved_in_one_degree(rat52, monkeypatch,
                                                           offset):
    # the degree-2 weight flag re-indexed by 2 needs a shift 2 apart from
    # that of the other degrees, and by 1 also breaks the parity of its
    # jumps; either way no uniform shift aligns the flags
    weight, two_n = pw.weight_filtration, rat52.top // 2

    def moved(nmat, center=0):
        filt = weight(nmat, center)
        if center != 2 - two_n:
            return filt
        return Filtration(filt.ambient, filt.basis,
                          {m + offset: size for m, size in filt.sizes.items()})

    monkeypatch.setattr(pw, "weight_filtration", moved)
    res = weak_pw_check(rat52, default_lagrangian_triple(rat52))
    assert not res.ok and "shift" not in res.data
    assert res.failures == [
        "no uniform shift aligns the perverse and weight flags"]
