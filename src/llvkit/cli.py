"""Command-line front end: build or load model rings, run the named
verification suites, and emit deterministic text or JSON reports.

Exit status: 0 when every record passes (skips allowed), 1 when any
check fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import bbf, clifford, lefschetz, llv, models, pw
from .rings import (BigradedAlgebra, QuadraticForm, RingFormatError,
                    RingValidationError, gaussian_extension, load_ring)
from .scalars import Gauss, format_scalar

USAGE_ERROR = 2


@dataclass
class Record:
    name: str
    anchor: str               # the mathematical claim the check verifies
    verdict: str              # pass | fail | skip
    data: dict = field(default_factory=dict)


@dataclass
class Report:
    command: str
    config: dict
    records: list = field(default_factory=list)

    def add(self, name, anchor, ok, data=None):
        self.records.append(Record(name, anchor, "pass" if ok else "fail",
                                   _jsonable(data or {})))

    def skip(self, name, anchor, reason):
        self.records.append(Record(name, anchor, "skip", {"reason": reason}))

    @property
    def ok(self):
        return all(r.verdict != "fail" for r in self.records)

    def to_text(self):
        lines = [f"command: {self.command}"]
        for key in sorted(self.config):
            lines.append(f"  {key}: {self.config[key]}")
        for r in self.records:
            lines.append(f"[{r.verdict:4s}] {r.name} ({r.anchor})")
            for key in sorted(r.data):
                lines.append(f"         {key}: {r.data[key]}")
        lines.append(f"result: {'pass' if self.ok else 'fail'}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "command": self.command,
            "config": _jsonable(self.config),
            "records": [{"name": r.name, "anchor": r.anchor,
                         "verdict": r.verdict, "data": r.data}
                        for r in self.records],
            "ok": self.ok,
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (Fraction, Gauss)):
        return format_scalar(value)
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


class UsageError(ValueError):
    pass


# -- fixtures ---------------------------------------------------------------

# "dim" bounds the total dimension of a bogomolov fixture, computed from
# its Verbitsky dimensions before anything is built: it admits every n = 2
# fixture up to b2 = 24 (350 dims) and n = 3 up to b2 = 9, and refuses the
# 2 900-dim (23,3) ring, whose dense operators and product table are out
# of reach today.
FIXTURE_BOUNDS = {"b2": 24, "n": 3, "g": 4, "dim": 350}


def _rationals(text, what):
    try:
        return tuple(Fraction(t) for t in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{what} must be exact rationals: {exc}") from exc
    except ZeroDivisionError as exc:
        raise UsageError(f"{what} must be exact rationals: zero denominator "
                         f"in {text!r}") from exc


def parse_q(text, expect_dim=None):
    if not text.startswith("diag:"):
        raise UsageError("--q expects the form diag:1,1,1,-1,-1")
    entries = _rationals(text[len("diag:"):], "--q entries")
    if expect_dim is not None and len(entries) != expect_dim:
        raise UsageError(f"--q lists {len(entries)} entries, expected {expect_dim}")
    return QuadraticForm.diagonal(entries)


def parse_class(text):
    return _rationals(text, "class coordinates")


def resolve_ring(args, need_bigraded=False):
    """Returns (plain_ring, bigraded_or_None, description).

    With --field gaussian the bigraded companion is extended to Q(i), so
    the Weil-operator checks run on fixtures that are rational by default
    (the torus)."""
    plain, big, desc = _resolve_ring_inner(args, need_bigraded)
    if (getattr(args, "field", None) == "gaussian" and big is not None
            and big.field != "gaussian"):
        big = gaussian_extension(big)
    return plain, big, desc


def _flag(args, name, default):
    """An integer fixture flag; an explicit 0 is kept for the builders to
    reject."""
    value = getattr(args, name, None)
    return default if value is None else value


def _resolve_ring_inner(args, need_bigraded):
    if getattr(args, "input", None):
        ring = load_ring(args.input)
        big = ring if isinstance(ring, BigradedAlgebra) else None
        plain = big.rational_model if (big and big.rational_model) else ring
        return plain, big, f"file:{args.input}"
    fixture = getattr(args, "fixture", None)
    if fixture is None:
        raise UsageError("either --fixture or --input is required")
    if fixture == "k3":
        ring = models.k3_ring(models.k3_gram())
        big = None
        if need_bigraded:
            big = models.bogomolov_model(QuadraticForm(models.k3_gram()), 1)
        return ring, big, "k3"
    if fixture == "bogomolov":
        b2 = _flag(args, "b2", 5)
        n = _flag(args, "n", 2)
        if b2 > FIXTURE_BOUNDS["b2"]:
            raise UsageError(f"--b2 exceeds the documented bound "
                             f"{FIXTURE_BOUNDS['b2']}")
        if n > FIXTURE_BOUNDS["n"]:
            raise UsageError(f"--n exceeds the documented bound {FIXTURE_BOUNDS['n']}")
        if b2 > 0 and n > 0:
            total = sum(models.verbitsky_dims(b2, n))
            if total > FIXTURE_BOUNDS["dim"]:
                raise UsageError(f"--b2 {b2} --n {n} gives a ring of total "
                                 f"dimension {total}, over the documented "
                                 f"bound {FIXTURE_BOUNDS['dim']}")
        if getattr(args, "q", None):
            form = parse_q(args.q, expect_dim=b2)
        else:
            neg = b2 - 3
            form = QuadraticForm.diagonal([1, 1, 1] + [-1] * neg)
        big = models.bogomolov_model(form, n)
        return big.rational_model, big, f"bogomolov(b2={b2},n={n})"
    if fixture == "torus":
        g = _flag(args, "g", 2)
        if 2 * g > 2 * FIXTURE_BOUNDS["g"]:
            raise UsageError(f"--g exceeds the documented bound {FIXTURE_BOUNDS['g']}")
        ring = models.torus_ring(g)
        big = models.torus_bigraded() if g == 2 else None
        return ring, big, f"torus(g={g})"
    raise UsageError(f"unknown fixture {fixture!r}")


# -- commands ---------------------------------------------------------------


def cmd_validate(args) -> Report:
    report = Report("validate", _config(args))
    plain, big, desc = resolve_ring(args)
    report.config["ring"] = desc
    targets = [("ring axioms", plain)]
    if big is not None and big is not plain:
        targets.append(("bigraded ring axioms", big))
    for label, ring in targets:
        validation = ring.validation or ring.validate()
        issues = [str(i) for i in validation.issues]
        form = ring.quadratic_form
        if ring is plain and form is not None and ring.top % 4 == 0:
            # the declared form against the ring's own top powers
            try:
                bbf.fujiki_certificate(ring, form)
            except bbf.FujikiError as exc:
                issues.append(f"quadratic form: {exc}")
        report.add(label, "graded commutativity, associativity, unit, "
                   "Poincare duality", not issues,
                   {"issues": issues, "dims": list(ring.dims)})
    return report


def _config(args):
    keys = ("fixture", "input", "b2", "n", "g", "q", "field")
    return {k: getattr(args, k) for k in keys
            if getattr(args, k, None) is not None}


def _nondegenerate_form(ring):
    """The ring's degree-2 form, or None; a degenerate form is refused by
    its rank, before anything is enumerated from it."""
    form = ring.quadratic_form
    if form is not None:
        models.require_nondegenerate(form)
    return form


def _certified_form(args, ring):
    """``_nondegenerate_form`` of a ring that ``llv`` and ``pw`` build on.
    The form a ring file declares must also satisfy the Fujiki relation
    on the ring's own top powers (``bbf.fujiki_certificate``): a form that
    fails sends both commands after sl2 completions that do not exist.  A
    fixture is built from its form and is not checked again."""
    form = _nondegenerate_form(ring)
    if form is not None and args.input and ring.top % 4 == 0:
        try:
            bbf.fujiki_certificate(ring, form)
        except bbf.FujikiError as exc:
            raise UsageError(f"quadratic form: {exc}") from exc
    return form


def _enumerate_noniso_pairs(form, count):
    take = 3
    while take * (take - 1) // 2 < count:
        take += 1
    classes = list(itertools.islice(models.nonisotropic_stream(form), take))
    pairs = []
    for a, b in itertools.combinations(classes, 2):
        pairs.append((a, b))
        if len(pairs) >= count:
            break
    return pairs


def cmd_llv(args) -> Report:
    report = Report("llv", _config(args))
    plain, big, desc = resolve_ring(args, need_bigraded=True)
    report.config["ring"] = desc
    form = _certified_form(args, plain)
    if form is None:
        report.skip("bracket closure", "total Lie algebra of Lefschetz "
                    "operators", "ring carries no degree-2 form")
        return report
    duals = lefschetz.DualFamily(plain, models.spanning_hl_classes(form)[0])
    # the dense generators live only inside lie_closure
    algebra = llv.lie_closure(llv.llv_generators(plain, duals)[0],
                              plain.field)
    b2 = plain.dims[2]
    is_torus = desc.startswith("torus")
    report.add("bracket closure", "Lie algebra generated by all Hard "
               "Lefschetz sl2-pairs", True, {"dim": algebra.dim})
    h = lefschetz.weight_operator(plain, lefschetz.classical_weights(plain))
    try:
        dims = [len(space) for space in llv.ad_grading(algebra, h)]
        report.add("adjoint weight decomposition",
                   "closure splits into ad(H) eigenvalues 2, 0, -2", True,
                   {"dims": dims})
        grading_ok = True
    except llv.DecompositionError as exc:
        report.add("adjoint weight decomposition",
                   "closure splits into ad(H) eigenvalues 2, 0, -2", False,
                   {"error": str(exc)})
        grading_ok = False
    if is_torus:
        report.skip("so identification",
                    "closure matches so of the Mukai-completed degree-2 form",
                    "no structure prediction for the torus fixture; computed "
                    f"dim {algebra.dim}")
    else:
        try:
            so = llv.so_identify(algebra, b2)
        except ValueError as exc:
            report.skip("so identification",
                        "closure matches so of the Mukai-completed degree-2 "
                        "form", str(exc))
        else:
            report.add("so identification",
                       "closure matches so of the Mukai-completed degree-2 form",
                       so.verdict,
                       {"dim": so.dim, "expected_dim": so.expected_dim,
                        "killing_compact_noncompact": list(so.killing_signature),
                        "expected_compact_noncompact":
                            list(so.expected_signature)})
    pairs = _enumerate_noniso_pairs(form, 50)
    bad = []
    for a, b in pairs:
        if not duals.lam(a).commutes_with(duals.lam(b)):
            bad.append((a, b))
    report.add("dual operators commute",
               "[Lam_a, Lam_b] = 0 for non-isotropic pairs", not bad,
               {"pairs_checked": len(pairs), "violations": bad})
    deriv_bad = []
    classes = list(itertools.islice(models.nonisotropic_stream(form), 4))
    for a, b in itertools.combinations(classes, 2):
        d = lefschetz.cup_operator(plain, a).commutator(duals.lam(b))
        if not llv.derivation_check(d, plain):
            deriv_bad.append((a, b))
    report.add("commutators act as derivations",
               "[L_a, Lam_b] is a derivation of the ring", not deriv_bad,
               {"pairs_checked": len(list(itertools.combinations(classes, 2))),
                "violations": deriv_bad})
    if big is not None and grading_ok:
        if big.field == "gaussian":
            try:
                llv.weil_operator(big)
                report.add("Weil operator",
                           "[L_gamma, Lam_gamma'] acts as i(p-q)", True)
            except RuntimeError as exc:
                report.add("Weil operator",
                           "[L_gamma, Lam_gamma'] acts as i(p-q)", False,
                           {"error": str(exc)})
        else:
            report.skip("Weil operator",
                        "[L_gamma, Lam_gamma'] acts as i(p-q)",
                        "needs the field extended by i; rerun with "
                        "--field gaussian")
        sub, res = llv.so4_symplectic(big)
        report.add("symplectic so(4) action",
                   "six symplectic operators close into two commuting sl2s",
                   res.ok, {"dim": sub.dim, "failures": res.failures})
    return report


def cmd_hl(args) -> Report:
    report = Report("hl", _config(args))
    plain, big, desc = resolve_ring(args, need_bigraded=True)
    report.config["ring"] = desc
    form = plain.quadratic_form
    if form is not None:
        mismatches = []
        checked = 0
        for v in itertools.islice(models.vector_stream(form.dim), 60):
            expected = form.evaluate(v) != 0
            if lefschetz.hl_test(plain, v) != expected:
                mismatches.append(v)
            checked += 1
        report.add("hard lefschetz detects non-isotropy",
                   "L_a powers are bijections exactly when q(a) != 0",
                   not mismatches,
                   {"classes_checked": checked, "violations": mismatches})
    else:
        report.skip("hard lefschetz detects non-isotropy",
                    "L_a powers are bijections exactly when q(a) != 0",
                    "ring carries no degree-2 form")
    if big is not None:
        res = lefschetz.symplectic_hl_check(big)
        report.add("symplectic hard lefschetz",
                   "L_sigma^p: (n-p,q) -> (n+p,q) bijective", res.ok,
                   dict(res.data, failures=res.failures))
        res2 = lefschetz.simultaneous_primitivity_check(big)
        report.add("simultaneous primitivity",
                   "[Lam_sigma, Lam_sigma-bar] = 0 and components stay "
                   "primitive", res2.ok,
                   dict(res2.data, failures=res2.failures))
    else:
        report.skip("symplectic hard lefschetz",
                    "L_sigma^p: (n-p,q) -> (n+p,q) bijective",
                    "fixture has no bigraded model")
    return report


def cmd_pw(args) -> Report:
    report = Report("pw", _config(args))
    plain, big, desc = resolve_ring(args, need_bigraded=True)
    report.config["ring"] = desc
    form = _certified_form(args, plain)
    if form is None or plain.top % 4:
        report.skip("weak P = W", "perverse filtration equals the monodromy "
                    "weight filtration", "fixture lacks a degree-2 form or "
                    "a 4n grading")
        return report
    if args.beta or args.rho or args.eta:
        default = pw.default_lagrangian_triple(plain)
        triple = pw.LagrangianTriple(
            parse_class(args.beta) if args.beta else default.beta,
            parse_class(args.eta) if args.eta else default.eta,
            parse_class(args.rho) if args.rho else default.rho)
    else:
        triple = pw.default_lagrangian_triple(plain)
    try:
        triple.validate(form)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    res = pw.weak_pw_check(plain, triple)
    report.add("weak P = W",
               "perverse filtration equals the monodromy weight filtration "
               "at one uniform shift", res.ok,
               dict(res.data, failures=res.failures,
                    beta=list(map(Fraction, triple.beta)),
                    rho=list(map(Fraction, triple.rho))))
    report.add("type III monodromy",
               "[L_beta, Lam_rho] has nilpotency index 3 on degree 2",
               res.data.get("degree2_nilpotent_index") == 3,
               {"index": res.data.get("degree2_nilpotent_index")})
    res2 = pw.isotropic_independence_check(plain, count=10)
    report.add("isotropic-class independence",
               "perverse dimensions agree for every isotropic class",
               res2.ok, dict(res2.data, failures=res2.failures))
    if big is not None:
        res3 = pw.perverse_hodge_check(big)
        report.add("perverse filtration detects Hodge filtration",
                   "sigma-bar filtration equals the holomorphic-degree flag",
                   res3.ok, {"shift": res3.data.get("shift"),
                             "failures": res3.failures})
    return report


def cmd_kuga(args) -> Report:
    report = Report("kuga", _config(args))
    if args.dim is None or args.q is None:
        raise UsageError("kuga needs --dim and --q")
    if args.dim > clifford.MAX_CLIFFORD_DIM:
        raise UsageError(f"--dim {args.dim} refused: the algebra has "
                         f"dimension 2^{args.dim}")
    form = parse_q(args.q, expect_dim=args.dim)
    try:
        alg = clifford.clifford(form)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report.add("algebra dimension", "dim C(H, Q) = 2^m", alg.dim == 2 ** args.dim,
               {"dim": alg.dim})
    bad = []
    count = 0
    for v in itertools.islice(models.vector_stream(args.dim), 100):
        x = alg.vector(v)
        sq = clifford.cl_multiply(x, x)
        if sq.coeffs != alg.one().scale(form.evaluate(v)).coeffs:
            bad.append(v)
        count += 1
    report.add("defining relation", "v*v = Q(v,v) on enumerated vectors",
               not bad, {"vectors_checked": count, "violations": bad})
    import random
    rng = random.Random(0)
    trace_ok = True
    for _ in range(100):
        x = clifford.CliffordElement(
            alg, [rng.randint(-3, 3) for _ in range(alg.dim)])
        y = clifford.CliffordElement(
            alg, [rng.randint(-3, 3) for _ in range(alg.dim)])
        if clifford.cl_trace(clifford.cl_multiply(x, y)) != \
                clifford.cl_trace(clifford.cl_multiply(y, x)):
            trace_ok = False
    report.add("trace symmetry", "Tr(xy) = Tr(yx)", trace_ok,
               {"pairs_checked": 100})
    try:
        u1, u2 = models.admissible_positive_pair(form)
        mu = clifford.complex_structure(alg, u1, u2)
        report.add("complex structure", "mu = gamma gamma' squares to -1",
                   True, {"gamma": list(u1), "gamma_prime": list(u2)})
    except (ValueError, models.ModelConstructionError) as exc:
        report.skip("complex structure", "mu = gamma gamma' squares to -1",
                    str(exc))
        mu = None
    if mu is not None:
        gram, res = clifford.polarization_form(alg, mu)
        verdict = res.data.get("positive_sign")
        report.add("trace polarization",
                   "exactly one of +-sigma_a passes the positivity probe",
                   res.data.get("antisymmetric", False),
                   {"positive_sign": verdict,
                    "probe_signature": res.data.get("probe_signature"),
                    "failures": res.failures})
    return report


def cmd_verbitsky(args) -> Report:
    report = Report("verbitsky", _config(args))
    plain, big, desc = resolve_ring(args)
    report.config["ring"] = desc
    form = _nondegenerate_form(plain)
    res = llv.verbitsky_component(plain)
    report.add("degree-2 generated subalgebra",
               "graded dims follow the symmetric-power pattern and the "
               "component is Lam-stable", res.ok,
               dict(res.data, failures=res.failures))
    if form is not None and plain.top % 4 == 0:
        n = plain.top // 4
        bad = []
        cnt = 0
        for w in itertools.islice(models.isotropic_stream(form), 100):
            x = plain.embed(2, w)
            if any(plain.power(x, n + 1)):
                bad.append(w)
            cnt += 1
        report.add("isotropic power relations",
                   "a^(n+1) = 0 for isotropic degree-2 classes", not bad,
                   {"classes_checked": cnt, "violations": bad})
    return report


# -- driver -----------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process: argparse objects hold
    reference cycles, so a parser per call would leave garbage that only
    the cyclic collector frees."""
    parser = argparse.ArgumentParser(
        prog="llvkit",
        description="verification suites for Lefschetz sl2 structure, "
                    "bracket closures, Clifford data, and filtration "
                    "comparisons on model cohomology rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, input_ok=True):
        if input_ok:
            p.add_argument("--fixture", choices=["k3", "bogomolov", "torus"])
            p.add_argument("--input", help="ring description file")
        p.add_argument("--b2", type=int, help="degree-2 dimension for bogomolov")
        p.add_argument("--n", type=int, help="half-dimension parameter")
        p.add_argument("--g", type=int, help="torus parameter")
        p.add_argument("--q", help="quadratic form, e.g. diag:1,1,1,-1,-1")
        p.add_argument("--field", choices=["rational", "gaussian"],
                       default="rational")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=["text", "structured"],
                       default="text")

    for name, fn in (("validate", cmd_validate), ("llv", cmd_llv),
                     ("pw", cmd_pw), ("hl", cmd_hl),
                     ("verbitsky", cmd_verbitsky)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
        if name == "pw":
            p.add_argument("--beta", help="isotropic class, comma-separated")
            p.add_argument("--eta", help="isotropic class, comma-separated")
            p.add_argument("--rho", help="positive class, comma-separated")
    p = sub.add_parser("kuga")
    p.add_argument("--dim", type=int, help="number of generators")
    common(p, input_ok=False)
    p.set_defaults(func=cmd_kuga)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        report = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RingFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except models.ModelConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RingValidationError as exc:
        report = Report(args.command, _config(args))
        report.add("ring axioms", "graded commutativity, associativity, unit, "
                   "Poincare duality", False,
                   {"issues": [str(i) for i in exc.report.issues]})
    text = report.to_json() if args.format == "structured" else report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write the report to {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        sys.stdout.write(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
