"""Command-line front end: parse the arguments, build or load the model
ring, and format the records that the library checks return as
deterministic text or JSON reports.

Exit status: 0 when every record passes (skips allowed), 1 when any
check fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
class Report:
    command: str
    config: dict
    records: list = field(default_factory=list)

    def add(self, *records):
        for r in records:
            r.data = _jsonable(r.data)
            self.records.append(r)

    @property
    def ok(self):
        return all(r.ok for r in self.records)

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


# the fixture each fixture flag configures
FIXTURE_FLAGS = {"b2": "bogomolov", "n": "bogomolov", "q": "bogomolov",
                 "g": "torus"}


def _refuse_unread_flags(args):
    """A fixture flag the resolved ring would ignore is refused: every one
    of them beside --input, and one meant for another fixture."""
    given = [k for k in ("fixture", *FIXTURE_FLAGS)
             if getattr(args, k, None) is not None]
    if args.input and given:
        raise UsageError(f"--{given[0]} does not apply to --input")
    for key in given:
        if key != "fixture" and FIXTURE_FLAGS[key] != args.fixture:
            raise UsageError(f"--{key} applies only to --fixture "
                             f"{FIXTURE_FLAGS[key]}")


def _resolve_ring_inner(args, need_bigraded):
    _refuse_unread_flags(args)
    if args.input:
        ring = load_ring(args.input)
        big = ring if isinstance(ring, BigradedAlgebra) else None
        plain = big.rational_model if (big and big.rational_model) else ring
        return plain, big, f"file:{args.input}"
    fixture = args.fixture
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
        if args.q:
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


def _config(args):
    keys = ("fixture", "input", "b2", "n", "g", "q", "field")
    return {k: getattr(args, k) for k in keys
            if getattr(args, k, None) is not None}


def _form_issue(ring):
    """Why the form a ring declares fails the Fujiki relation on the
    ring's own top powers (``bbf.fujiki_certificate``), or None."""
    form = ring.quadratic_form
    if form is None or ring.top % 4:
        return None
    try:
        bbf.fujiki_certificate(ring, form)
    except bbf.FujikiError as exc:
        return f"quadratic form: {exc}"
    return None


def _certified_form(args, ring):
    """The ring's degree-2 form, or None, for the commands that build on
    it.  A degenerate form is refused by its rank, before anything is
    enumerated from it.  The form a ring file declares must also satisfy
    the Fujiki relation (``_form_issue``): a form that fails sends
    ``llv``, ``pw`` and ``verbitsky`` after sl2 completions that do not
    exist.  A fixture is built from its form and is not checked again."""
    form = ring.quadratic_form
    if form is not None:
        models.require_nondegenerate(form)
    issue = _form_issue(ring) if args.input else None
    if issue:
        raise UsageError(issue)
    return form


# -- commands ---------------------------------------------------------------
#
# A command resolves its ring and adds the record of each library check.


def _report(args, need_bigraded=False):
    report = Report(args.command, _config(args))
    plain, big, desc = resolve_ring(args, need_bigraded)
    report.config["ring"] = desc
    return report, plain, big


def cmd_validate(args) -> Report:
    report, plain, big = _report(args)
    issue = _form_issue(plain)
    report.add((plain.validation or plain.validate()).record(
        "ring axioms", [issue] if issue else [], dims=list(plain.dims)))
    if big is not None and big is not plain:
        report.add((big.validation or big.validate()).record(
            "bigraded ring axioms", dims=list(big.dims)))
    return report


def cmd_llv(args) -> Report:
    report, plain, big = _report(args, need_bigraded=True)
    form = _certified_form(args, plain)
    duals = None
    if form is not None:
        duals = lefschetz.DualFamily(plain,
                                     models.spanning_hl_classes(form)[0])
    algebra, closure = llv.bracket_closure(plain, duals)
    report.add(closure)
    if algebra is None:
        return report
    grading = llv.ad_grading_check(algebra, plain)
    skip = None
    if args.fixture == "torus":
        skip = ("no structure prediction for the torus fixture; computed "
                f"dim {algebra.dim}")
    report.add(grading,
               llv.so_identification_check(algebra, plain.dims[2], skip),
               llv.dual_commutation_check(form, duals),
               llv.derivations_check(plain, duals))
    if big is not None and grading.ok:
        report.add(llv.weil_check(big), llv.so4_symplectic(big)[1])
    return report


def cmd_hl(args) -> Report:
    report, plain, big = _report(args, need_bigraded=True)
    report.add(lefschetz.hl_nonisotropy_check(plain),
               lefschetz.symplectic_hl_check(big))
    if big is not None:
        report.add(lefschetz.simultaneous_primitivity_check(big))
    return report


def _lagrangian_triple(args, ring, form):
    """The default triple with the classes --beta, --eta and --rho give,
    refused unless it validates; None when they give none, or on a ring
    that ``weak_pw_check`` skips, which reads no triple."""
    given = {k: getattr(args, k) for k in ("beta", "eta", "rho")
             if getattr(args, k)}
    if not given or form is None or ring.top % 4:
        return None
    triple = dataclasses.replace(
        pw.default_lagrangian_triple(ring),
        **{k: parse_class(text) for k, text in given.items()})
    try:
        triple.validate(form)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return triple


def cmd_pw(args) -> Report:
    report, plain, big = _report(args, need_bigraded=True)
    form = _certified_form(args, plain)
    weak = pw.weak_pw_check(plain, _lagrangian_triple(args, plain, form))
    report.add(weak)
    if weak.verdict == "skip":
        return report
    report.add(pw.type_iii_check(weak),
               pw.isotropic_independence_check(plain))
    if big is not None:
        report.add(pw.perverse_hodge_check(big))
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
    report.add(clifford.dimension_check(alg),
               clifford.defining_relation_check(alg),
               clifford.trace_symmetry_check(alg))
    mu, structure = clifford.complex_structure_check(alg)
    report.add(structure)
    if mu is not None:
        report.add(clifford.polarization_check(alg, mu))
    return report


def cmd_verbitsky(args) -> Report:
    report, plain, _big = _report(args)
    form = _certified_form(args, plain)
    report.add(llv.verbitsky_component(plain))
    if form is not None and plain.top % 4 == 0:
        report.add(llv.isotropic_power_check(plain))
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

    def common(p, fixtures=True):
        if fixtures:
            p.add_argument("--fixture", choices=["k3", "bogomolov", "torus"])
            p.add_argument("--input", help="ring description file")
            p.add_argument("--b2", type=int,
                           help="degree-2 dimension for bogomolov")
            p.add_argument("--n", type=int,
                           help="half-dimension parameter for bogomolov")
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
    common(p, fixtures=False)
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
        report.add(exc.report.record())
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
