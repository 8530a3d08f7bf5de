"""Self-tests of the benchmark.  Run with ``python -m pytest perfbench``."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import nilpotents                                          # noqa: E402
import run as bench                                        # noqa: E402
import tracing                                             # noqa: E402
from workloads import JOBS, WORKLOADS, CliOutcome          # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=170, check=False)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_the_declared_metrics(trace, section):
    res = _result(_run_cli("--workload", "smoke", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 4
    declared = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in res["metrics"].values())


def test_declared_workloads_exist():
    spec = _spec()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert set(WORKLOADS) - {w["name"] for w in spec["workloads"]} == {
        "b53-lefschetz-pw", "smoke"}
    for workload in WORKLOADS.values():
        assert all(job in JOBS for job in workload.jobs)
        assert workload.expect_calls <= {
            tracing.target_key(t[0], t[1]) for t in tracing.TARGETS}


def _corrupt(out, record, key, value):
    report = json.loads(out)
    rec = next(r for r in report["records"] if r["name"] == record)
    if key == "verdict":
        rec["verdict"] = value
    else:
        rec["data"][key] = value
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


class _NoStore:
    def check(self, job_id, text):
        return []


def test_corrupted_reports_raise_fail_share(tmp_path):
    job = JOBS["llv-5-2"]
    good = job.run({})
    store = bench.ReportStore(tmp_path / "reports.json")
    assert bench.check_pass([job], {job.id: good}, store) == {}
    for record, key, value in [
            ("Weil operator", "verdict", "fail"),
            ("so identification", "verdict", "skip"),
            ("so identification", "killing_compact_noncompact", [12, 9]),
            ("bracket closure", "dim", 20)]:
        bad = dataclasses.replace(good, out=_corrupt(good.out, record, key,
                                                     value))
        problems = bench.check_pass([job], {job.id: bad}, _NoStore())
        fail_share = len(problems) / 1      # failed jobs over jobs attempted
        assert fail_share > 0, (record, key, value)


def test_changed_report_bytes_fail(tmp_path):
    path = tmp_path / "reports.json"
    store = bench.ReportStore(path)
    assert store.check("x", "report") == []
    store.save()
    assert bench.ReportStore(path).check("x", "report!") != []


def test_usage_error_expectation():
    job = JOBS["validate-definite-5"]
    assert job.check(CliOutcome(2, "", "error: no isotropic vector\n")) == []
    assert job.check(CliOutcome(2, "", "Traceback (most recent call last):\n"
                                       "ValueError: x\n"))
    assert job.check(CliOutcome(0, "{}", ""))


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nilpotents_have_the_stated_jordan_type(seed):
    cases = nilpotents.generate(seed, 20)
    assert cases == nilpotents.generate(seed, 20)
    for case in cases:
        n = case.dim
        mat = [list(r) for r in case.rows]
        # rank N^j = sum over blocks of max(k - j, 0) fixes the Jordan type
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        for j in range(1, max(case.blocks) + 1):
            power = _matmul(power, mat)
            want = sum(max(k - j, 0) for k in case.blocks)
            assert _rank(power) == want
        dims = case.expected_graded_dims()
        assert sum(dims.values()) == n
        assert all(dims.get(case.center + w) == dims.get(case.center - w)
                   for w in range(n))


def _rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_tracer_patches_every_binding():
    from llvkit import lefschetz, linalg, pw
    original = linalg.kernel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert linalg.kernel is lefschetz.kernel is pw.kernel
        assert linalg.kernel.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert linalg.kernel is original and lefschetz.kernel is original


def test_trace_fails_when_an_expected_layer_never_runs(monkeypatch):
    smoke = WORKLOADS["smoke"]
    monkeypatch.setitem(WORKLOADS, "smoke", dataclasses.replace(
        smoke, expect_calls=smoke.expect_calls | {"llvkit.llv.so_identify"}))
    assert not bench.run("smoke", 1, 0, 1)["correct"]


def test_trace_fails_when_time_falls_outside_the_wrappers(monkeypatch):
    monkeypatch.setattr(bench, "MAX_UNATTRIBUTED_SHARE", 0.0)
    assert not bench.run("smoke", 1, 0, 1)["correct"]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_cli("--workload", "smoke", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
