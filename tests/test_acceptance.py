"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every assertion is exact (no tolerances anywhere); the two timed criteria
assert their stated wall-clock budgets.
"""

import itertools
import random
import time
from fractions import Fraction

from llvkit.bbf import bbf_form, fujiki_check
from llvkit.clifford import (CliffordElement, cl_multiply, cl_trace, clifford,
                             complex_structure, polarization_form)
from llvkit.lefschetz import (classical_weights, complete_sl2, hl_test,
                              sigma_bar_sl2, sigma_sl2, weight_operator)
from llvkit.llv import (ad_grading, llv_closure, so4_symplectic,
                        so41_subalgebra, so_identify, verbitsky_component,
                        weil_operator)
from llvkit.models import isotropic_stream, nonisotropic_stream, vector_stream
from llvkit.pw import (default_lagrangian_triple, isotropic_independence_check,
                       weak_pw_check, weight_filtration)
from llvkit.rings import QuadraticForm
from llvkit.scalars import Gauss


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def test_criterion_01_structure_theorem_small_model(rat52):
    t0 = time.time()
    algebra = llv_closure(rat52)
    so = so_identify(algebra, 5)
    elapsed = time.time() - t0
    ok = (algebra.dim == 21 and so.killing_signature == (9, 12)
          and so.verdict and elapsed < 10)
    report(1, ok, f"closure dim {algebra.dim} (= dim so(7)), killing "
                  f"(compact, noncompact) = {so.killing_signature}, "
                  f"{elapsed:.1f}s")


def test_criterion_02_structure_theorem_k3(k3):
    t0 = time.time()
    algebra = llv_closure(k3)
    h = weight_operator(k3, classical_weights(k3)).matrix()
    g2, g0, gm2 = ad_grading(algebra, h)
    elapsed = time.time() - t0
    dims = (len(g2), len(g0), len(gm2))
    ok = algebra.dim == 276 and dims == (22, 232, 22) and elapsed < 60
    report(2, ok, f"closure dim {algebra.dim} (= dim so(24)), grading dims "
                  f"{dims}, {elapsed:.1f}s")


def test_criterion_03_hl_iff_nonisotropic(k3, rat52):
    checked = 0
    ok = True
    for ring in (k3, rat52):
        form = ring.quadratic_form
        for v in itertools.islice(vector_stream(form.dim), 50):
            a = [Fraction(c) for c in v]
            if hl_test(ring, a) != (form.evaluate(a) != 0):
                ok = False
            checked += 1
    report(3, ok and checked == 100,
           f"hard lefschetz <=> q != 0 on {checked} classes over 2 fixtures")


def test_criterion_04_commutativity(rat52, model52):
    classes = list(itertools.islice(
        nonisotropic_stream(rat52.quadratic_form), 11))
    pairs = list(itertools.combinations(classes, 2))[:50]
    lam = {c: complete_sl2(rat52, [Fraction(x) for x in c]).Lam.matrix()
           for c in classes}
    ok = len(pairs) == 50 and all(
        lam[a].commutator(lam[b]).is_zero() for a, b in pairs)
    tri_s, tri_b = sigma_sl2(model52), sigma_bar_sl2(model52)
    ok = ok and tri_s.Lam.matrix().commutator(tri_b.Lam.matrix()).is_zero()
    ok = ok and tri_s.L.matrix().commutator(tri_b.Lam.matrix()).is_zero()
    report(4, ok, f"[Lam_a, Lam_b] = 0 on {len(pairs)} non-isotropic pairs; "
                  "[Lam_s, Lam_sb] = [L_s, Lam_sb] = 0 exactly")


def test_criterion_05_weil_operator(model52):
    try:
        c = weil_operator(model52)
        n = model52.symplectic_n()
        hs = weight_operator(model52,
                             [p - n for p, _ in model52.bidegrees]).matrix()
        hsb = weight_operator(model52,
                              [q - n for _, q in model52.bidegrees]).matrix()
        ok = c.matrix() == (hs - hsb).scale(Gauss(0, 1))
    except RuntimeError:
        ok = False
    report(5, ok, "[L_gamma, Lam_gamma'] = i(H_sigma - H_sigma-bar) exactly")


def test_criterion_06_so41_and_so4(rat52, model52):
    w = [[0, 0, Fraction(1), 0, 0], [Fraction(2), 0, 0, 0, 0],
         [0, Fraction(2), 0, 0, 0]]
    sub, res = so41_subalgebra(rat52, w)
    sub4, res4 = so4_symplectic(model52)
    ok = sub.dim == 10 and res.ok and sub4.dim == 6 and res4.ok
    report(6, ok, f"positive-3-space algebra dim {sub.dim}, a span closed by "
                  f"its relation families; symplectic span dim {sub4.dim}, "
                  "closed by two commuting certified sl2s")


def test_criterion_07_verbitsky_component(rat52, model62, model53):
    ok = True
    dims_seen = {}
    for label, ring in (("(5,2)", rat52), ("(6,2)", model62.rational_model),
                        ("(5,3)", model53.rational_model)):
        res = verbitsky_component(ring)
        dims_seen[label] = res.data["dims"]
        ok = ok and res.ok and res.data["dims"] == res.data["predicted"]
    cnt = 0
    n = rat52.top // 4
    for alpha in itertools.islice(isotropic_stream(rat52.quadratic_form), 100):
        x = rat52.embed(2, [Fraction(c) for c in alpha])
        if any(rat52.power(x, n + 1)):
            ok = False
        cnt += 1
    report(7, ok and cnt == 100,
           f"graded dims {dims_seen} match Sym predictions; alpha^(n+1) = 0 "
           f"for {cnt} isotropic classes")


def test_criterion_08_weak_p_equals_w(rat52):
    t0 = time.time()
    triple = default_lagrangian_triple(rat52)
    res = weak_pw_check(rat52, triple)
    elapsed = time.time() - t0
    ok = (res.ok and res.data["type_iii"] is True
          and res.data.get("shift") is not None and elapsed < 10)
    report(8, ok, f"P = W at uniform shift {res.data.get('shift')} in every "
                  f"degree; nilpotent index "
                  f"{res.data['degree2_nilpotent_index']} (type III), "
                  f"{elapsed:.1f}s")


def test_criterion_09_isotropic_independence(rat52):
    res = isotropic_independence_check(rat52, count=10)
    ok = res.ok and res.data["classes_checked"] == 10
    report(9, ok, "dim P_m identical across 10 isotropic classes, all m, k")


def test_criterion_10_clifford_suite():
    ok = True
    rng = random.Random(10)
    q5 = QuadraticForm.diagonal([1, 1, -1, -1, -1])
    alg = clifford(q5)
    ok = ok and alg.dim == 32
    cnt = 0
    for v in itertools.islice(vector_stream(5), 100):
        x = alg.vector(v)
        if cl_multiply(x, x).coeffs != alg.one().scale(
                q5.evaluate([Fraction(c) for c in v])).coeffs:
            ok = False
        cnt += 1
    mu = complex_structure(alg, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    ok = ok and cl_multiply(mu, mu).coeffs == alg.one().scale(-1).coeffs
    for _ in range(100):
        x = CliffordElement(alg, [rng.randint(-2, 2) for _ in range(32)])
        y = CliffordElement(alg, [rng.randint(-2, 2) for _ in range(32)])
        if cl_trace(cl_multiply(x, y)) != cl_trace(cl_multiply(y, x)):
            ok = False
    verdicts = []
    for diag in ([1, 1], [1, 1, -1], [1, 1, -1, -1], [1, 1, -1, -1, -1]):
        a2 = clifford(QuadraticForm.diagonal(diag))
        a = complex_structure(a2, [1] + [0] * (len(diag) - 1),
                              [0, 1] + [0] * (len(diag) - 2))
        _, res = polarization_form(a2, a)
        verdicts.append(res.data["positive_sign"])
        ok = ok and res.ok and res.data["positive_sign"] in (1, -1)
    report(10, ok and cnt == 100,
           f"dim 32; v*v = Q(v) on {cnt} vectors; mu^2 = -1; Tr(xy) = Tr(yx) "
           f"on 100 pairs; polarization signs {verdicts} on the (2,k) "
           "fixtures")


def test_criterion_11_weight_filtration_oracle():
    from test_pw import rand_nilpotent, weight_filtration_oracle
    rng = random.Random(1111)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 8)
        nmat = rand_nilpotent(rng, n)
        center = rng.randint(-2, 2)
        # the library verifies both defining axioms internally and raises
        ours = weight_filtration(nmat, center=center)
        if ours != weight_filtration_oracle(nmat, center):
            ok = False
    report(11, ok, "200 random nilpotents (dim <= 8): axioms hold and the "
                   "filtration matches the independent sl2 construction")


def test_criterion_12_fujiki_relation(model52, model62, k3big):
    ok = True
    report_parts = []
    for label, big in (("(5,2)", model52), ("(6,2)", model62), ("k3", k3big)):
        ring = big.rational_model
        q = bbf_form(big)
        fd = fujiki_check(ring, q, extra_classes=100)
        if fd.classes_checked < 100 or fd.constant == 0:
            ok = False
        report_parts.append(f"{label}: c = {fd.constant} "
                            f"({fd.classes_checked} classes)")
    report(12, ok, "q(a)^n = c * integral(a^(2n)) exactly; " +
           "; ".join(report_parts))
