"""Benchmark jobs, their expected outcomes, and the workloads built from them.

Every expected value below is written by hand from the structure
theorems, never captured from the code under test:

* The LLV algebra of a ring with degree-2 form of rank b2 is so(b2 + 2),
  of dimension C(b2 + 2, 2), with real form so(b2 - 2, 4); its Killing
  form has C(b2 - 2, 2) + 6 compact and 4 (b2 - 2) noncompact directions.
* ad(H) grades it as b2 + (so(b2) + Q h) + b2, i.e. (b2, C(b2, 2) + 1, b2).
* The degree-2 generated subalgebra of a (b2, n) model has graded dims
  C(b2 + k - 1, k) for k <= n, mirrored above n (Verbitsky).
* The six symplectic operators span two commuting sl2s: dimension 6.
* A (b2, n) Bogomolov ring is its Verbitsky component, so its graded
  dims are the same numbers, spread over even degrees.

A job runs one in-process call to a public entry point; its check turns
the outcome into a list of problems (empty when the outcome is right).
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

from llvkit import bbf, cli, models, pw
from llvkit.linalg import Matrix
from llvkit.rings import QuadraticForm

B52 = ["--fixture", "bogomolov", "--b2", "5", "--n", "2"]
B53 = ["--fixture", "bogomolov", "--b2", "5", "--n", "3"]
DEFINITE = ["--fixture", "bogomolov", "--b2", "5", "--q", "diag:1,1,1,1,1"]


def _pass(**data):
    return ("pass", data)


def _skip():
    return ("skip", {})


def _llv_records(dim, grading, so):
    return {
        "bracket closure": _pass(dim=dim),
        "adjoint weight decomposition": _pass(dims=grading),
        "so identification": so,
        "dual operators commute": _pass(pairs_checked=50, violations=[]),
        "commutators act as derivations": _pass(pairs_checked=6,
                                                violations=[]),
        "Weil operator": _pass(),
        "symplectic so(4) action": _pass(dim=6, failures=[]),
    }


HL_RECORDS = {
    "hard lefschetz detects non-isotropy": _pass(classes_checked=60,
                                                 violations=[]),
    "symplectic hard lefschetz": _pass(failures=[]),
    "simultaneous primitivity": _pass(failures=[]),
}

PW_RECORDS = {
    "weak P = W": _pass(failures=[], type_iii=True,
                        degree2_nilpotent_index=3),
    "type III monodromy": _pass(index=3),
    "isotropic-class independence": _pass(classes_checked=10, failures=[]),
    "perverse filtration detects Hodge filtration": _pass(failures=[]),
}

# (5, 2): dims 1, 5, C(6, 2) = 15, 5, 1 in degrees 0, 2, 4, 6, 8
RING52_DIMS = [1, 0, 5, 0, 15, 0, 5, 0, 1]


@dataclass(frozen=True)
class CliOutcome:
    rc: int
    out: str
    err: str


@dataclass(frozen=True)
class CliJob:
    """``llvkit <argv> --format structured`` with its expected report.

    ``records`` lists every record the report must hold, in order, each
    with its verdict and a subset of its data.  ``rc == 2`` expects a
    usage error: one ``error:`` line on stderr and no report.
    """
    id: str
    argv: tuple
    records: dict = field(default_factory=dict)
    rc: int = 0

    def run(self, inputs):
        argv = [a.format(**inputs) for a in self.argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv + ["--format", "structured"])
        return CliOutcome(rc, out.getvalue(), err.getvalue())

    def check(self, outcome):
        problems = []
        if outcome.rc != self.rc:
            problems.append(f"exit status {outcome.rc}, expected {self.rc}")
        if self.rc == cli.USAGE_ERROR:
            lines = outcome.err.splitlines()
            if len(lines) != 1 or not lines[0].startswith("error: "):
                problems.append(f"expected one 'error:' line, got {lines!r}")
            if outcome.out:
                problems.append("printed a report on a usage error")
            return problems
        try:
            report = json.loads(outcome.out)
        except ValueError:
            return problems + ["report is not JSON"]
        got = {r["name"]: r for r in report["records"]}
        if list(got) != list(self.records):
            problems.append(f"records {list(got)}, expected {list(self.records)}")
        for name, (verdict, data) in self.records.items():
            rec = got.get(name)
            if rec is None:
                continue
            if rec["verdict"] != verdict:
                problems.append(f"{name}: verdict {rec['verdict']}, "
                                f"expected {verdict}")
            for key, want in data.items():
                if rec["data"].get(key) != want:
                    problems.append(f"{name}: {key} = {rec['data'].get(key)!r}, "
                                    f"expected {want!r}")
        if report.get("ok") is not (self.rc == 0):
            problems.append(f"report ok = {report.get('ok')!r}")
        return problems

    def report_bytes(self, outcome):
        """The report, which must be byte-identical on every run."""
        return outcome.out


@dataclass(frozen=True)
class WeightBatchJob:
    """``pw.weight_filtration`` on the seeded nilpotents (``inputs``)."""
    id: str = "weight-batch"

    def run(self, inputs):
        return [pw.weight_filtration(Matrix(case.fraction_rows()), case.center)
                for case in inputs["nilpotents"]], inputs["nilpotents"]

    def check(self, outcome):
        filtrations, cases = outcome
        problems = []
        for idx, (filt, case) in enumerate(zip(filtrations, cases)):
            want = case.expected_graded_dims()
            lo, hi = min(want) - 2, max(want) + 2
            got = {w: filt.at(w).dim - filt.at(w - 1).dim
                   for w in range(lo, hi + 1)}
            got = {w: d for w, d in got.items() if d}
            if got != want or filt.at(hi).dim != case.dim:
                problems.append(f"nilpotent {idx} (blocks {case.blocks}, "
                                f"center {case.center}): graded dims {got}, "
                                f"expected {want}")
        if len(filtrations) != len(cases):
            problems.append("missing filtrations")
        return problems

    def report_bytes(self, outcome):
        return None


@dataclass(frozen=True)
class BbfJob:
    """Bogomolov model of diag(1,1,1,-1,...), then ``bbf_form`` and
    ``fujiki_check``.  Expected: the BBF form is a positive multiple of
    the defining form, and one nonzero Fujiki constant holds on at least
    100 classes."""
    id: str
    b2: int
    n: int = 2

    def run(self, inputs):
        form = QuadraticForm.diagonal([1, 1, 1] + [-1] * (self.b2 - 3))
        big = models.bogomolov_model(form, self.n)
        q = bbf.bbf_form(big)
        return form, q, bbf.fujiki_check(big.rational_model, q,
                                         extra_classes=100)

    def check(self, outcome):
        form, q, fujiki = outcome
        problems = []
        ratios = {Fraction(a) / Fraction(b) for ra, rb in
                  zip(q.gram.rows, form.gram.rows) for a, b in zip(ra, rb) if b}
        off = any(a and not b for ra, rb in zip(q.gram.rows, form.gram.rows)
                  for a, b in zip(ra, rb))
        if len(ratios) != 1 or off or min(ratios) <= 0:
            problems.append("BBF form is not a positive multiple of the "
                            "defining form")
        if fujiki.constant == 0:
            problems.append("Fujiki constant is zero")
        if fujiki.classes_checked < 100:
            problems.append(f"Fujiki relation checked on "
                            f"{fujiki.classes_checked} < 100 classes")
        return problems

    def report_bytes(self, outcome):
        return None


JOBS = {job.id: job for job in [
    # b2 = 22: so(24) of dimension C(24, 2) = 276, real form so(20, 4);
    # grading (22, C(22, 2) + 1, 22); Killing (C(20, 2) + 6, 4 * 20) = (196, 80)
    CliJob("llv-k3", ("llv", "--fixture", "k3"),
           _llv_records(276, [22, 232, 22],
                        _pass(dim=276, expected_dim=276,
                              killing_compact_noncompact=[196, 80]))),
    CliJob("hl-5-3", ("hl", *B53), HL_RECORDS),
    CliJob("pw-5-3", ("pw", *B53), PW_RECORDS),
    CliJob("validate-5-2", ("validate", *B52),
           {"ring axioms": _pass(dims=RING52_DIMS, issues=[]),
            "bigraded ring axioms": _pass(dims=RING52_DIMS, issues=[])}),
    CliJob("hl-5-2", ("hl", *B52), HL_RECORDS),
    CliJob("pw-5-2", ("pw", *B52), PW_RECORDS),
    CliJob("verbitsky-5-2", ("verbitsky", *B52),
           {"degree-2 generated subalgebra": _pass(dims=[1, 5, 15, 5, 1],
                                                   failures=[]),
            "isotropic power relations": _pass(classes_checked=100,
                                               violations=[])}),
    # b2 = 5: so(7) of dimension 21, real form so(3, 4); grading (5, 11, 5);
    # Killing (C(3, 2) + 6, 4 * 3) = (9, 12)
    CliJob("llv-5-2", ("llv", *B52),
           _llv_records(21, [5, 11, 5],
                        _pass(dim=21, expected_dim=21,
                              killing_compact_noncompact=[9, 12]))),
    # The saved bigraded ring has no rational companion, so the closure
    # runs over Q(i) and the Killing signature is skipped.
    CliJob("llv-file-5-2", ("llv", "--input", "{ring_file}"),
           _llv_records(21, [5, 11, 5], _skip())),
    # b2 = 6: so(8) of dimension 28, grading (6, 16, 6); no so prediction
    CliJob("llv-torus-2", ("llv", "--fixture", "torus", "--g", "2",
                           "--field", "gaussian"),
           _llv_records(28, [6, 16, 6], _skip())),
    CliJob("kuga-5", ("kuga", "--dim", "5", "--q", "diag:1,1,-1,-1,-1"),
           {"algebra dimension": _pass(dim=32),            # 2^5
            "defining relation": _pass(vectors_checked=100, violations=[]),
            "trace symmetry": _pass(pairs_checked=100),
            "complex structure": _pass(),
            "trace polarization": _pass(failures=[])}),
    # A definite form has no isotropic vector: a usage error, no report.
    CliJob("validate-definite-5", ("validate", *DEFINITE), rc=cli.USAGE_ERROR),
    WeightBatchJob(),
    BbfJob("bbf-5-2", 5),
    BbfJob("bbf-6-2", 6),
]}


@dataclass(frozen=True)
class Workload:
    jobs: tuple
    nilpotents: int = 0          # seeded weight-filtration inputs
    ring_file: bool = False      # the (5, 2) ring saved for --input
    expect_calls: frozenset = frozenset()   # traced targets that must run


def _targets(*names):
    return frozenset(f"llvkit.{name}" for name in names)


_K3_CALLS = _targets(
    "llv.lie_closure", "llv.ad_grading", "llv.so_identify", "llv.so4_symplectic",
    "llv.weil_operator", "llv.derivation_check",
    "lefschetz.complete_sl2_weights", "lefschetz.hl_test_weights",
    "lefschetz.cup_operator", "linalg.rref", "linalg.kernel",
    "linalg.symmetric_signature", "linalg.integer_eigenspaces",
    "models.bogomolov_model", "models.k3_ring", "cli.Report.to_json")
_HL_PW_CALLS = _targets(
    "lefschetz.complete_sl2_weights", "lefschetz.hl_test_weights",
    "lefschetz.simultaneous_primitivity_check", "lefschetz.symplectic_hl_check",
    "lefschetz.cup_operator", "pw.perverse_filtration", "pw.weak_pw_check",
    "pw.isotropic_independence_check", "pw.perverse_hodge_check",
    "pw.weight_filtration", "linalg.rref", "linalg.kernel",
    "models.bogomolov_model", "cli.Report.to_json")
_ALL_CALLS = (_K3_CALLS - _targets("models.k3_ring")) | _HL_PW_CALLS | _targets(
    "llv.verbitsky_component", "linalg.inverse", "linalg.solve_sparse",
    "models.torus_ring", "models.torus_bigraded", "rings.load_ring",
    "rings.GradedAlgebra.validate", "rings.gaussian_extension",
    "clifford.cl_multiply", "clifford.polarization_form", "bbf.bbf_form",
    "bbf.fujiki_check")

WORKLOADS = {
    "k3-lie": Workload(("llv-k3",), expect_calls=_K3_CALLS),
    "b53-lefschetz-pw": Workload(("hl-5-3", "pw-5-3"),
                                 expect_calls=_HL_PW_CALLS),
    "b52-mixed": Workload(
        ("validate-5-2", "hl-5-2", "pw-5-2", "verbitsky-5-2", "llv-5-2",
         "llv-file-5-2", "llv-torus-2", "kuga-5", "validate-definite-5",
         "weight-batch", "bbf-5-2", "bbf-6-2"),
        nilpotents=40, ring_file=True, expect_calls=_ALL_CALLS),
    # A few seconds of work for the benchmark's own tests.
    "smoke": Workload(("validate-5-2", "hl-5-2", "weight-batch", "bbf-5-2"),
                      nilpotents=5, expect_calls=_targets(
                          "lefschetz.hl_test_weights", "pw.weight_filtration",
                          "bbf.bbf_form", "bbf.fujiki_check",
                          "rings.GradedAlgebra.validate")),
}
