import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import llvkit
from llvkit import lefschetz, llv, models
from llvkit.cli import FIXTURE_BOUNDS, main
from llvkit.linalg import Matrix
from llvkit.rings import (BigradedAlgebra, GradedAlgebra, QuadraticForm,
                          ring_to_dict, save_ring)
from test_rings import BOOLEAN_EDITS, UNKNOWN_KEY_EDITS


def run(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, out


def test_validate_fixture_k3(capsys):
    rc, out = run(["validate", "--fixture", "k3"], capsys)
    assert rc == 0
    assert "result: pass" in out


def test_validate_bogomolov_dims(capsys):
    rc, out = run(["validate", "--fixture", "bogomolov", "--b2", "5",
                   "--n", "2"], capsys)
    assert rc == 0
    assert "[1, 0, 5, 0, 15, 0, 5, 0, 1]" in out


def test_validate_broken_ring_exits_one(tmp_path, capsys, k3):
    data = ring_to_dict(k3)
    data["integration"] = ["0"]
    path = tmp_path / "broken.ring"
    path.write_text(json.dumps(data))
    rc, out = run(["validate", "--input", str(path)], capsys)
    assert rc == 1
    assert "fail" in out


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    path.write_text("{oops")
    rc, _ = run(["validate", "--input", str(path)], capsys)
    assert rc == 2


@pytest.mark.parametrize("edit", ["repeated record", *sorted(UNKNOWN_KEY_EDITS)])
def test_ring_file_format_errors_exit_two(tmp_path, capsys, model52, edit):
    data = ring_to_dict(model52)
    if edit == "repeated record":
        data["products"].append(dict(data["products"][0]))
    else:
        UNKNOWN_KEY_EDITS[edit](data)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(data))
    rc = main(["llv", "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("parse error: $.")


def _unreadable_input(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "missing.ring"
    if kind == "directory":
        return tmp_path
    path = tmp_path / "latin1.ring"
    path.write_bytes(b'{"field": "rational\xff"}')
    return path


@pytest.mark.parametrize("command", ["validate", "llv"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_ring_file_exits_two(tmp_path, capsys, command, kind):
    path = _unreadable_input(tmp_path, kind)
    rc = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error: ")
    assert str(path) in lines[0]


@pytest.mark.parametrize("argv, message", [
    (["llv", "--fixture", "bogomolov", "--b2", "5", "--n", "0"], "needs n >= 1"),
    (["validate", "--fixture", "bogomolov", "--b2", "0"], "needs dim >= 5"),
    (["validate", "--fixture", "torus", "--g", "0"], "needs g >= 1"),
])
def test_explicit_zero_fixture_flag_is_rejected(capsys, argv, message):
    # 0 must reach the model builder, not be replaced by the default
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and message in lines[0]


def test_usage_error_exits_two(capsys):
    rc, _ = run(["validate"], capsys)
    assert rc == 2
    rc, _ = run(["kuga", "--dim", "11", "--q", "diag:" + ",".join(["1"] * 11)],
                capsys)
    assert rc == 2


@pytest.mark.parametrize("argv, line", [
    (["pw", "--fixture", "torus", "--g", "3", "--beta", "garbage"],
     "error: class coordinates must be exact rationals: "),
    (["pw", "--fixture", "torus", "--g", "3", "--rho", "1,0,0"],
     "error: --rho does not apply: the ring has no degree-2 form or no 4n "
     "grading"),
    (["kuga", "--dim", "3", "--q", "diag:1,1,-1", "--field", "gaussian"],
     "error: --field gaussian does not apply to kuga"),
    (["verbitsky", "--fixture", "bogomolov", "--field", "gaussian"],
     "error: --field gaussian does not apply to verbitsky"),
])
def test_flags_nothing_reads_exit_two(capsys, argv, line):
    # the torus of genus 3 has top degree 6, so weak P = W skips and reads
    # no Lagrangian class; --field extends the bigraded companion, which
    # kuga and verbitsky never read
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)


@pytest.mark.parametrize("argv, line", [
    (["kuga", "--dim", "3", "--q", "diag:1,1,-1", "--b2", "9"],
     "error: unrecognized arguments: --b2 9"),
    (["pw", "--fixture", "k4"], "error: argument --fixture: invalid choice: "),
    ([], "error: the following arguments are required: command"),
])
def test_argparse_usage_errors_print_one_error_line(capsys, argv, line):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(line)


def test_help_prints_usage_and_exits_zero(capsys):
    assert main(["kuga", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: llvkit kuga") and not captured.err


class _Built(Exception):
    pass


@pytest.mark.parametrize("b2, n, total, admitted", [
    (5, 3, 77, True), (8, 3, 210, True), (23, 2, 324, True),
    (24, 2, 350, True), (23, 3, 2900, False), (24, 3, 3250, False),
])
def test_fixture_total_dimension_bound(capsys, monkeypatch, b2, n, total,
                                       admitted):
    # the bound is decided from the Verbitsky dimensions, before building
    assert sum(models.verbitsky_dims(b2, n)) == total
    built = []

    def builder(form, n):
        built.append((form.dim, n))
        raise _Built

    monkeypatch.setattr(models, "bogomolov_model", builder)
    argv = ["validate", "--fixture", "bogomolov", "--b2", str(b2),
            "--n", str(n)]
    if admitted:
        with pytest.raises(_Built):
            main(argv)
        assert built == [(b2, n)]
        return
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2 and built == [] and captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --b2 {b2} --n {n} gives a ring of total dimension {total}, "
        f"over the documented bound {FIXTURE_BOUNDS['dim']}"]


def test_verbitsky_dims_match_the_model(model52):
    assert models.verbitsky_dims(5, 2) == [d for d in model52.dims if d]


def test_second_main_leaves_no_parser_garbage(capsys):
    argv = ["validate", "--fixture", "torus", "--g", "1"]
    assert main(argv) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        leaked = [o for o in gc.garbage if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    capsys.readouterr()
    assert leaked == []


@pytest.mark.parametrize("flag, value, message", [
    ("--beta", "1,0,0,1", "beta lists 4 coordinates, expected 5"),
    ("--eta", "1,0", "eta lists 2 coordinates, expected 5"),
    ("--rho", "0,1,0,0,0,0", "rho lists 6 coordinates, expected 5"),
])
def test_lagrangian_class_of_wrong_length_exits_two(capsys, flag, value,
                                                    message):
    rc = main(["pw", "--fixture", "bogomolov", flag, value])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv", [
    ["kuga", "--dim", "2", "--q", "diag:1/0,1"],
    ["pw", "--fixture", "bogomolov", "--beta", "1/0,1,0,0,0"],
])
def test_zero_denominator_exits_two(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "zero denominator" in lines[0]


def _edited_ring_file(tmp_path, ring, edit):
    data = ring_to_dict(ring)
    edit(data)
    path = tmp_path / "edited.ring"
    path.write_text(json.dumps(data))
    return path


def _set_cell(field, value):
    def edit(data):
        if field == "products":
            data["products"][0]["coeff"] = value
        elif field == "integration":
            data["integration"][0] = value
        else:
            data["quadratic_form"][0][0] = value
    return edit


@pytest.mark.parametrize("command",
                         ["validate", "llv", "hl", "pw", "verbitsky"])
@pytest.mark.parametrize("field, value", [
    ("products", "1/0"), ("products", "1/0i"), ("products", "2+1/0i"),
    ("integration", "1/0"), ("quadratic_form", "1/0"),
])
def test_zero_denominator_in_ring_file_exits_two(tmp_path, capsys, model52,
                                                 command, field, value):
    path = _edited_ring_file(tmp_path, model52, _set_cell(field, value))
    rc = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error: ")
    assert "zero denominator" in lines[0] and f"$.{field}" in lines[0]


@pytest.mark.parametrize("field", sorted(BOOLEAN_EDITS))
def test_json_boolean_in_ring_file_exits_two(tmp_path, capsys, model52,
                                             field):
    path = _edited_ring_file(tmp_path, model52, BOOLEAN_EDITS[field])
    rc = main(["validate", "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error: ")
    assert re.search(f"{field}( entries)? must be", lines[0])


def _set_form(diag):
    def edit(data):
        data["quadratic_form"] = [[str(d) if i == j else "0"
                                   for j in range(len(diag))]
                                  for i, d in enumerate(diag)]
    return edit


@pytest.mark.parametrize("diag, command", [
    ((1, 0, 0, 0, 0), "llv"), ((1, 0, 0, 0, 0), "verbitsky"),
    ((1, 0, 0, 0, 0), "pw"), ((-1, -1, 0, 0, 0), "llv"),
    ((-1, -1, 0, 0, 0), "verbitsky"), ((0, 0, 0, 0, 0), "pw"),
])
def test_degenerate_form_exits_two_at_once(tmp_path, capsys, model52, diag,
                                           command):
    path = _edited_ring_file(tmp_path, model52, _set_form(diag))
    start = time.perf_counter()
    rc = main([command, "--input", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    rank = sum(1 for d in diag if d)
    assert f"degenerate: rank {rank} < 5" in lines[0]
    assert elapsed < 1


@pytest.mark.parametrize("diag, issue", [
    ((1, 0, 0, 0, 0), "quadratic form: Fujiki relation fails on monomial"),
    ((0, 0, 0, 0, 0), "quadratic form: the Fujiki constant is zero")],
    ids=["diag0", "diag1"])
def test_degenerate_form_fails_validate_keeps_hl_report(tmp_path, capsys,
                                                        model52, diag, issue):
    # the ring axioms hold, but the declared form contradicts the ring's
    # own top powers; hl reports the form's isotropy prediction failing
    path = _edited_ring_file(tmp_path, model52, _set_form(diag))
    rc, out = run(["validate", "--input", str(path), "--format",
                   "structured"], capsys)
    assert rc == 1
    (record,) = json.loads(out)["records"]
    assert record["name"] == "ring axioms" and record["verdict"] == "fail"
    assert len(record["data"]["issues"]) == 1
    assert record["data"]["issues"][0].startswith(issue)
    rc, out = run(["hl", "--input", str(path), "--format", "structured"],
                  capsys)
    assert rc == 1
    verdicts = {r["name"]: r["verdict"] for r in json.loads(out)["records"]}
    assert verdicts == {"hard lefschetz detects non-isotropy": "fail",
                        "symplectic hard lefschetz": "pass",
                        "simultaneous primitivity": "pass"}


@pytest.mark.parametrize("command", ["llv", "pw"])
@pytest.mark.parametrize("diag", [(1, 1, 1, -1, -2), (1, 1, -1, -1, -1)])
@pytest.mark.parametrize("saved", ["model52", "rat52"])
def test_declared_form_contradicting_the_ring_exits_two(
        tmp_path, capsys, request, command, diag, saved):
    # a nondegenerate form that is not the ring's own: its sl2 completions
    # do not exist, so the form is refused before anything is searched
    ring = request.getfixturevalue(saved)
    path = _edited_ring_file(tmp_path, ring, _set_form(diag))
    rc = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "error: quadratic form: Fujiki relation fails on monomial ")


def test_validate_accepts_the_declared_form_of_a_saved_ring(tmp_path, capsys,
                                                           model52):
    path = _edited_ring_file(tmp_path, model52, lambda data: None)
    rc, out = run(["validate", "--input", str(path), "--format",
                   "structured"], capsys)
    assert rc == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("argv, validates, certificates", [
    (["--fixture", "bogomolov", "--b2", "5", "--n", "2"], 1, 1),
    (["--fixture", "torus", "--g", "2", "--field", "gaussian"], 2, 0),
    (["--input"], 1, 0)], ids=["bogomolov", "torus-gaussian", "input"])
def test_validate_runs_once_per_ring(argv, validates, certificates, tmp_path,
                                     capsys, monkeypatch, model52):
    # the builder's or loader's report is reused: the bogomolov companion
    # is certified against its validated rational model, and the Q(i)
    # extension of the torus keeps the report of the rational ring
    if argv == ["--input"]:
        argv = ["--input", str(_edited_ring_file(tmp_path, model52,
                                                 lambda data: None))]
    seen = {"validate": [], "companion_certificate": []}
    for cls, name in ((GradedAlgebra, "validate"),
                      (BigradedAlgebra, "companion_certificate")):
        def counting(ring, *args, _check=getattr(cls, name), _name=name,
                     **kwargs):
            seen[_name].append(ring)
            return _check(ring, *args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    rc, out = run(["validate", *argv, "--format", "structured"], capsys)
    assert rc == 0 and json.loads(out)["ok"] is True
    assert len(seen["validate"]) == validates
    assert len(seen["companion_certificate"]) == certificates


def test_unwritable_out_exits_two(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    rc = main(["kuga", "--dim", "2", "--q", "diag:1,1", "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(target) in lines[0]
    assert not target.exists()


def _binary_form_ring(tmp_path, a, c):
    """A valid ring 1, x, y, v (x, y in degree 2, v on top) with x^2 = a v,
    y^2 = c v, xy = 0: its degree-2 form is ax^2 + cy^2."""
    products = [{"i": 0, "j": g, "k": g, "coeff": "1"} for g in range(4)]
    products += [{"i": g, "j": 0, "k": g, "coeff": "1"} for g in range(1, 4)]
    products += [{"i": 1, "j": 1, "k": 3, "coeff": str(a)},
                 {"i": 2, "j": 2, "k": 3, "coeff": str(c)}]
    path = tmp_path / "binary.ring"
    path.write_text(json.dumps({
        "top_degree": 4, "field": "rational", "dims": [1, 0, 2, 0, 1],
        "basis": [["1"], [], ["x", "y"], [], ["v"]], "products": products,
        "integration": ["1"],
        "quadratic_form": [[str(a), "0"], ["0", str(c)]]}))
    return path


@pytest.mark.parametrize("command", ["verbitsky", "pw"])
def test_anisotropic_binary_form_exits_two_at_once(tmp_path, capsys,
                                                    command):
    # x^2 - 3y^2 is indefinite but has no rational zero: -det = 3
    path = _binary_form_ring(tmp_path, 1, -3)
    start = time.perf_counter()
    rc = main([command, "--input", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "not a rational square" in lines[0]
    assert elapsed < 2


def test_isotropic_binary_form_runs(tmp_path, capsys):
    # x^2 - 4y^2 = (x - 2y)(x + 2y): -det = 4 is a square
    path = _binary_form_ring(tmp_path, 1, -4)
    rc, out = run(["verbitsky", "--input", str(path), "--format",
                   "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    rec = next(r for r in data["records"]
               if r["name"] == "isotropic power relations")
    assert rec["verdict"] == "pass" and rec["data"]["classes_checked"] == 2


def test_llv_small_model(capsys):
    rc, out = run(["llv", "--fixture", "bogomolov", "--b2", "5", "--n", "2",
                   "--format", "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    by_name = {r["name"]: r for r in data["records"]}
    assert by_name["bracket closure"]["data"]["dim"] == 21
    assert by_name["so identification"]["data"]["killing_compact_noncompact"] \
        == [9, 12]
    assert data["ok"] is True


def test_llv_torus_skips_verdict(capsys):
    rc, out = run(["llv", "--fixture", "torus", "--g", "2",
                   "--format", "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    so = next(r for r in data["records"] if r["name"] == "so identification")
    assert so["verdict"] == "skip"
    closure = next(r for r in data["records"] if r["name"] == "bracket closure")
    assert closure["data"]["dim"] > 0


def test_pw_command_and_shift(capsys):
    rc, out = run(["pw", "--fixture", "bogomolov", "--b2", "5", "--n", "2",
                   "--format", "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    rec = next(r for r in data["records"] if r["name"] == "weak P = W")
    assert rec["verdict"] == "pass"
    assert rec["data"]["degree2_nilpotent_index"] == 3


def test_pw_rejects_nonisotropic_beta(capsys):
    rc, _ = run(["pw", "--fixture", "bogomolov", "--b2", "5", "--n", "2",
                 "--beta", "1,0,0,0,0"], capsys)
    assert rc == 2


def test_kuga_command(capsys):
    rc, out = run(["kuga", "--dim", "5", "--q", "diag:1,1,-1,-1,-1",
                   "--format", "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    by_name = {r["name"]: r for r in data["records"]}
    assert by_name["algebra dimension"]["data"]["dim"] == 32
    assert by_name["trace polarization"]["data"]["positive_sign"] in (1, -1)


def test_kuga_inadmissible_pair_skips(capsys):
    rc, out = run(["kuga", "--dim", "5", "--q", "diag:2,3,-1,-1,-1",
                   "--format", "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    mu = next(r for r in data["records"] if r["name"] == "complex structure")
    assert mu["verdict"] == "skip"


@pytest.mark.parametrize("argv, flag", [
    (["validate", "--fixture", "k3", "--b2", "7"], "--b2"),
    (["validate", "--fixture", "k3", "--q", "diag:1,1"], "--q"),
    (["hl", "--fixture", "torus", "--n", "3"], "--n"),
    (["llv", "--fixture", "bogomolov", "--g", "2"], "--g"),
    (["pw", "--fixture", "k3", "--g", "1"], "--g"),
    (["verbitsky", "--input", "missing.json", "--fixture", "k3"], "--fixture"),
    (["validate", "--input", "missing.json", "--b2", "5"], "--b2"),
    (["pw", "--input", "missing.json", "--g", "2"], "--g"),
    (["kuga", "--dim", "3", "--q", "diag:1,1,-1", "--b2", "9"], "--b2"),
    (["kuga", "--dim", "3", "--q", "diag:1,1,-1", "--n", "2"], "--n"),
    (["kuga", "--dim", "3", "--q", "diag:1,1,-1", "--g", "1"], "--g"),
])
def test_flags_a_command_does_not_read_are_refused(capsys, argv, flag):
    # --b2, --n and --q configure the bogomolov fixture, --g the torus;
    # beside --input no fixture flag applies, and kuga reads none of them.
    # The refusal comes before any ring file is read.
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]


def test_formless_ring_skips_under_the_skip_anchors(tmp_path, capsys,
                                                   rat52):
    # a ring without a degree-2 form: the closure and P = W records skip
    # under anchors that differ from those of their runs
    data = ring_to_dict(rat52)
    del data["quadratic_form"]
    path = tmp_path / "noform.json"
    path.write_text(json.dumps(data))
    want = {"llv": ("bracket closure",
                    "total Lie algebra of Lefschetz operators"),
            "pw": ("weak P = W", "perverse filtration equals the monodromy "
                   "weight filtration"),
            "hl": ("hard lefschetz detects non-isotropy",
                   "L_a powers are bijections exactly when q(a) != 0")}
    for command, (name, anchor) in want.items():
        rc, out = run([command, "--input", str(path), "--format",
                       "structured"], capsys)
        rec = json.loads(out)["records"][0]
        assert rc == 0
        assert (rec["name"], rec["anchor"], rec["verdict"]) == (name, anchor,
                                                                "skip")


def test_hl_command(capsys):
    rc, out = run(["hl", "--fixture", "bogomolov", "--b2", "5", "--n", "2"],
                  capsys)
    assert rc == 0
    assert "result: pass" in out


def _times_p1p1(ring):
    """ring (x) H*(P^1 x P^1), bigraded, with h1, h2 of type (1, 1) and
    h1^2 = h2^2 = 0; every degree is even, so no sign enters."""
    p_deg, p_labels = (0, 2, 2, 4), ("1", "h1", "h2", "h1h2")
    p_mul = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 3}
    p_mul.update({(j, i): k for (i, j), k in list(p_mul.items())})
    basis = sorted((ring.degree_of(a) + p_deg[b], a, b)
                   for a in range(ring.total_dim) for b in range(4))
    index = {(a, b): gi for gi, (_, a, b) in enumerate(basis)}
    top = ring.top + 4
    products = {}
    for g1, (_, a1, b1) in enumerate(basis):
        for g2, (_, a2, b2) in enumerate(basis):
            b3 = p_mul.get((b1, b2))
            terms = () if b3 is None else tuple(
                (index[a3, b3], c) for a3, c in ring.mul_basis(a1, a2))
            if terms:
                products[g1, g2] = terms
    return BigradedAlgebra(
        ring.field, [sum(d == k for d, _, _ in basis) for k in range(top + 1)],
        [[f"{ring.label_of(a)}*{p_labels[b]}" for d, a, b in basis if d == k]
         for k in range(top + 1)],
        products, ring.integration,
        [(ring.bidegrees[a][0] + p_deg[b] // 2,
          ring.bidegrees[a][1] + p_deg[b] // 2) for _, a, b in basis])


def test_hl_reports_a_symplectic_class_without_hard_lefschetz(tmp_path,
                                                              capsys):
    # S x P^1 x P^1, S the bigraded (5,1) surface, is a valid ring of top
    # degree 8 whose sigma squares to zero: neither sigma nor sigma-bar
    # has an sl2-triple, and hl says so in its report, not in a traceback
    surface = models.bogomolov_model(
        QuadraticForm.diagonal([1, 1, 1, -1, -1]), 1)
    ring = _times_p1p1(surface)
    assert ring.validate().ok and ring.dims == (1, 0, 7, 0, 12, 0, 7, 0, 1)
    assert not any(ring.multiply(ring.sigma(), ring.sigma()))
    path = tmp_path / "surface-p1p1.json"
    save_ring(ring, path)
    rc = main(["hl", "--input", str(path), "--format", "structured"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    records = {r["name"]: r for r in json.loads(captured.out)["records"]}
    assert records["symplectic hard lefschetz"]["verdict"] == "fail"
    primitivity = records["simultaneous primitivity"]
    assert primitivity["verdict"] == "fail"
    assert primitivity["data"]["failures"] == [
        "L_sigma has no sl2-triple: not an HL class",
        "L_sigmabar has no sl2-triple: not an HL class"]


def _top_six_ring(t_first=False, form=None):
    """A valid bigraded ring of top degree 6, not 4n: 1; sigma (2,0),
    sigma-bar (0,2), t (1,1); sigma t, sigma-bar t, t^2; t^3, with
    sigma sigma-bar = t^2 and sigma (sigma-bar t) = sigma-bar (sigma t) =
    t t^2 = t^3.  ``t_first`` lists t first in degree 2."""
    deg2 = ("t", "s", "sb") if t_first else ("s", "sb", "t")
    labels = [("1",), (), deg2, (), ("s*t", "sb*t", "t^2"), (), ("t^3",)]
    index = {label: gi for gi, label in
             enumerate(label for ls in labels for label in ls)}
    products = {}
    for a, b, c in [("1", x, x) for x in index] + [
            ("s", "t", "s*t"), ("sb", "t", "sb*t"), ("t", "t", "t^2"),
            ("s", "sb", "t^2"), ("s", "sb*t", "t^3"), ("sb", "s*t", "t^3"),
            ("t", "t^2", "t^3")]:
        products[index[a], index[b]] = products[index[b], index[a]] = (
            (index[c], 1),)
    pq = {"s": (2, 0), "sb": (0, 2), "t": (1, 1)}
    return BigradedAlgebra(
        "rational", [len(ls) for ls in labels], labels, products, [1],
        [(0, 0), *(pq[x] for x in deg2), (3, 1), (1, 3), (2, 2), (3, 3)],
        quadratic_form=form and QuadraticForm(Matrix(form)))


def test_sigma_records_skip_on_a_ring_of_top_degree_not_4n(tmp_path, capsys):
    # the weights p - n and q - n need top degree 4n: the sigma and
    # sigma-bar records skip by that precondition, as weak P = W does
    ring = _top_six_ring()
    assert ring.validate().ok and ring.top == 6
    path = tmp_path / "top-six.json"
    save_ring(ring, path)
    rc = main(["hl", "--input", str(path), "--format", "structured"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    records = {r["name"]: r for r in json.loads(captured.out)["records"]}
    reason = {"reason": "ring top degree 6 is not 4n"}
    for name in ("symplectic hard lefschetz", "simultaneous primitivity"):
        assert records[name]["verdict"] == "skip"
        assert records[name]["data"] == reason
    so4 = llv.so4_symplectic(ring)
    assert so4.verdict == "skip" and so4.data == reason


_TOP_SIX_FORMS = [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                  [[1, 0, 0], [0, 0, 1], [0, 1, 0]]]


@pytest.mark.parametrize("t_first, form, command, named", [
    (False, _TOP_SIX_FORMS[0], "llv", (1, 1, 0)),
    (False, _TOP_SIX_FORMS[0], "verbitsky", (1, 1, 0)),
    (True, _TOP_SIX_FORMS[1], "llv", (0, 1, -1)),
    (True, _TOP_SIX_FORMS[1], "verbitsky", (0, 1, -1)),
    (True, _TOP_SIX_FORMS[1], "pw", (0, 1, -1)),
])
def test_a_declared_non_isotropic_class_without_hard_lefschetz_exits_two(
        tmp_path, capsys, t_first, form, command, named):
    # (sigma + sigma-bar)^3 = 2 t^2 (sigma + sigma-bar) = 0, yet the form
    # calls sigma + sigma-bar, the class ``named``, non-isotropic.  A ring
    # of top degree other than 4n has no Fujiki relation, so the gate
    # refuses every form declared on it before any sl2 completion; with
    # t first, verbitsky's dual family never meets the class, so only
    # the gate refuses that case
    ring = _top_six_ring(t_first, form)
    assert ring.quadratic_form.evaluate(named) != 0
    assert not lefschetz.hl_test(ring, named)
    path = tmp_path / "top-six.json"
    save_ring(ring, path)
    rc = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: quadratic form: ring top degree 6 is not 4n"]


@pytest.mark.parametrize("t_first", [False, True])
def test_validate_lists_a_form_declared_on_a_top_degree_not_4n(
        tmp_path, capsys, t_first):
    path = tmp_path / "top-six.json"
    save_ring(_top_six_ring(t_first, _TOP_SIX_FORMS[t_first]), path)
    rc = main(["validate", "--input", str(path), "--format", "structured"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    (axioms,) = json.loads(captured.out)["records"]
    assert axioms["verdict"] == "fail"
    assert axioms["data"]["issues"] == [
        "quadratic form: ring top degree 6 is not 4n"]


def test_verbitsky_refuses_a_declared_form_that_fails_fujiki(tmp_path,
                                                              capsys):
    # S x P^1 x P^1 is a valid ring, but the nondegenerate form declared
    # for it is not its own: verbitsky exits 2 with the Fujiki error, as
    # llv and pw do, and never reaches the sl2 completion of a dual
    surface = models.bogomolov_model(
        QuadraticForm.diagonal([1, 1, 1, -1, -1]), 1)
    path = _edited_ring_file(tmp_path, _times_p1p1(surface),
                             _set_form((1, 1, 1, -1, -1, -1, -1)))
    rc = main(["verbitsky", "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: quadratic form: Fujiki relation fails on monomial 1*h1^4: "
        "q^2 = 1 but c*integral = 0"]


def test_verbitsky_command(capsys):
    rc, out = run(["verbitsky", "--fixture", "bogomolov", "--b2", "5",
                   "--n", "2", "--format", "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    rec = next(r for r in data["records"]
               if r["name"] == "degree-2 generated subalgebra")
    assert rec["data"]["dims"] == [1, 5, 15, 5, 1]


def test_torus_weil_with_gaussian_field(capsys):
    rc, out = run(["llv", "--fixture", "torus", "--g", "2",
                   "--field", "gaussian", "--format", "structured"], capsys)
    assert rc == 0
    data = json.loads(out)
    weil = next(r for r in data["records"] if r["name"] == "Weil operator")
    assert weil["verdict"] == "pass"


def test_file_input_bigraded_ring(tmp_path, model52, capsys):
    from llvkit.rings import save_ring
    path = tmp_path / "model.ring.json"
    save_ring(model52, path)
    rc, out = run(["llv", "--input", str(path), "--format", "structured"],
                  capsys)
    assert rc == 0
    data = json.loads(out)
    by_name = {r["name"]: r for r in data["records"]}
    assert by_name["bracket closure"]["data"]["dim"] == 21
    # no rational companion in a file ring: Killing signature is skipped
    assert by_name["so identification"]["verdict"] == "skip"
    assert by_name["Weil operator"]["verdict"] == "pass"
    rc, out = run(["pw", "--input", str(path), "--format", "structured"],
                  capsys)
    assert rc == 0
    data = json.loads(out)
    rec = next(r for r in data["records"] if r["name"] == "weak P = W")
    assert rec["verdict"] == "pass"


def test_reports_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["pw", "--fixture", "bogomolov", "--b2", "5", "--n", "2",
                 "--format", "structured", "--out", str(out1)]) == 0
    assert main(["pw", "--fixture", "bogomolov", "--b2", "5", "--n", "2",
                 "--format", "structured", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


B52 = ["--fixture", "bogomolov", "--b2", "5", "--n", "2"]
B53 = ["--fixture", "bogomolov", "--b2", "5", "--n", "3"]

RING52 = "ring52.json"

# sha256 of the --format structured reports.  A change that alters a
# report on purpose updates its digest here and says why.
GOLDEN_REPORTS = {
    ("llv", "--fixture", "k3"):
        "1274a30017449972250c1b97cb9f359c74e9517d0b0295058f62b9b888b9755a",
    ("validate", *B52):
        "1d060b75154e27666c736c25d27870b3a30deedbfbe603edc419eab4c996f23a",
    ("llv", *B52):
        "0fe73093dfe18fe6eee1154e1a1afdf5534d77ccfd914bfdc420348267e72fd3",
    ("llv", "--fixture", "bogomolov", "--b2", "6", "--n", "2"):
        "a646acc4321bc924238bc35784f1b3d42064f17b4203b11b9838210321512835",
    ("hl", *B52):
        "6b649c498b91759cb1b467c34506ab624070e9e26abafb32c7415cc634dfe5ba",
    ("pw", *B52):
        "cd2964655316ae01cf682cf4a1ca9752af4739006fd3f1d90c3ff15e0f2daf1a",
    ("verbitsky", *B52):
        "a07c143e45ee3d890cb37a86a06690d2cf6d4e2773dc846f8f891f77cf9ad565",
    ("kuga", "--dim", "5", "--q", "diag:1,1,-1,-1,-1"):
        "42c0f9b01ee6a365893c6ea896a034d3a6a6f1f56a027c35a9ff73bc51530468",
    ("kuga", "--dim", "3", "--q", "diag:1/4,1/9,-1"):
        "52f2d4afa9eba887507d30299e94754787f00aa32792099ad1022dcdaee9028e",
    ("kuga", "--dim", "5", "--q", "diag:2,3,-1,-1,-1"):
        "6f7651b2b8bb09cb28a230413712b39a63be26c65ee498854f2f938b494cc6ed",
    # signature (3, 2): the polarization record skips
    ("kuga", "--dim", "5", "--q", "diag:1,1,1,-1,-1"):
        "5dbc66a684e3e190588dca83d3a16e8395b7522a308c09be543d5a74b0d1cf28",
    ("hl", *B53):
        "c1813373613f8b9385c5f48b116cd617cd388f12c7e438f1dc6a390b2c1f5899",
    ("pw", *B53):
        "60c7ed96c9698a04a1e51e674491cdeb13c1fa57dc85737f48fe382a5409bfe1",
    ("llv", *B53):
        "df41df1d380fe5054bd515ea950e962db2a8975afb0c4eb02bf023bd53bfc6ff",
    ("llv", "--fixture", "torus", "--g", "2", "--field", "gaussian"):
        "d23b43be3e51c701b9d9da06fe3b7e69b8731a20590c17c2fd517b8332342ac1",
    ("pw", *B52, "--beta", "1/2,0,0,1/2,0", "--rho", "0,2/3,0,0,0"):
        "8eb2351c9afd790ebcc828b9c3a84fa28a08073ca1ee56f6879acc12fb744a37",
    ("pw", "--fixture", "torus", "--g", "2"):
        "ae7a878097c14da8c16392ebbcd304c372b7407890fe6a53797951a92ecf951f",
    # the (5,2) ring saved to RING52: a ring over Q(i), closed over Q(i)
    ("llv", "--input", RING52):
        "3c0dadb68de12f4bd793e4b35c81b43d292a646821cabc0079ddad5711f67ca7",
    ("hl", "--input", RING52):
        "95be6c94585f4341b825b2c35cfa06be1d0f57c0b004dfab65121dd340e621a1",
    ("pw", "--input", RING52):
        "11af4bad6c440d18290aa5f12b5b2f406b045028a7c2d75cd716b68fe699bf3a",
    ("verbitsky", "--input", RING52):
        "c3fe14186ca15ea9bb5ee37107f7ca92e311aa0434091d881f9bbfad79955bcd",
    ("hl", "--fixture", "torus", "--g", "2", "--field", "gaussian"):
        "015c8a60d4cd460fe4e5bdb3bf1fd7ac285c8fca5b998f16687aa18fde453651",
    # validate on the rings its integer checks and Fujiki certificate reach
    ("validate", *B53):
        "cf31b6f4eacc23efa3c21209653e9121f8bdc2394d5e0b8d486fd5190f97fc64",
    ("validate", "--fixture", "bogomolov", "--b2", "6", "--n", "2"):
        "77f01f59acd6775084b550216dc71350b913d64d16251d2a76f97664f047999a",
    ("validate", "--fixture", "k3"):
        "3b78df302f446b7fff4fd36927445dff0572419163f6d6d180a0346bfdd444b0",
    ("validate", "--input", RING52):
        "35098aadcc3a43c5c338aab7e5b77c843724b46eaa7291bedd0af242fb43cd86",
    ("validate", "--fixture", "torus", "--g", "2"):
        "1a810d56f04146afb505a2f53357648e0d4bc5479ded533e271eb6621fbd30ba",
}


@pytest.mark.parametrize("argv", list(GOLDEN_REPORTS), ids=" ".join)
def test_report_matches_golden_digest(argv, capsys, tmp_path, monkeypatch,
                                      model52):
    # the report names the ring file as given: a relative path keeps the
    # digest independent of the directory
    monkeypatch.chdir(tmp_path)
    if RING52 in argv:
        save_ring(model52, RING52)
    rc, out = run([*argv, "--format", "structured"], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[argv]
    # a record that lists its witnesses passes exactly when there are none
    for rec in json.loads(out)["records"]:
        for key in ("failures", "violations"):
            if key in rec["data"]:
                assert (rec["verdict"] == "pass") == (not rec["data"][key]), rec


def test_llv_forms_each_dual_once(capsys, monkeypatch):
    # llv asks the dual family for a class's dual for the generators, the
    # commuting pairs and the derivations; each class's candidate is
    # formed once, and the base class needs none
    asked, formed = [], []
    lam, candidate = lefschetz.DualFamily.lam, lefschetz.DualFamily._candidate

    def lam_spy(self, a, l_op=None):
        asked.append(tuple(a))
        return lam(self, a, l_op)

    def candidate_spy(self, *args):
        formed.append(asked[-1])
        return candidate(self, *args)

    monkeypatch.setattr(lefschetz.DualFamily, "lam", lam_spy)
    monkeypatch.setattr(lefschetz.DualFamily, "_candidate", candidate_spy)
    rc, _ = run(["llv", "--fixture", "k3"], capsys)
    assert rc == 0
    assert len(formed) == len(set(formed))
    assert len(set(asked) - set(formed)) == 1
    assert len(asked) > len(set(asked))


@pytest.mark.parametrize("argv", [B52, ["--fixture", "k3"]],
                         ids=["bogomolov", "k3"])
def test_llv_densifies_only_the_closure_input(argv, capsys, monkeypatch):
    # one lie_closure, and a dense matrix only for each of its generators:
    # so(4), derivations and the ad-grading read degree blocks.  The sl2
    # cross-check of small rings, an oracle inside the completion, is
    # left out of the count
    closures, gens, dense = [], [], []
    closure, generators = llv.lie_closure, llv.llv_generators
    matrix = lefschetz.DegreeOperator.matrix

    def closure_spy(*args, **kwargs):
        closures.append(args)
        return closure(*args, **kwargs)

    def generators_spy(*args, **kwargs):
        out = generators(*args, **kwargs)
        gens.append(out[0])
        return out

    def matrix_spy(self):
        caller = sys._getframe(1).f_code.co_name
        if caller != "complete_sl2_weights":
            dense.append(caller)
        return matrix(self)

    monkeypatch.setattr(llv, "lie_closure", closure_spy)
    monkeypatch.setattr(llv, "llv_generators", generators_spy)
    monkeypatch.setattr(lefschetz.DegreeOperator, "matrix", matrix_spy)
    rc, _ = run(["llv", *argv], capsys)
    assert rc == 0
    assert len(closures) == 1 and len(gens) == 1
    assert dense == ["llv_generators"] * len(gens[0])


def test_llv_runs_with_numpy_blocked():
    # the closure and its exact elimination need the standard library alone
    argv = ["llv", *B52, "--format", "structured"]
    code = ("import sys; sys.modules['numpy'] = None; "
            "from llvkit.cli import main; "
            f"sys.exit(main({argv!r}))")
    src = str(Path(llvkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == GOLDEN_REPORTS[("llv", *B52)]
