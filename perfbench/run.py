"""Time to verdict for llvkit workloads; prints one JSON result line.

    python3 perfbench/run.py --workload k3-lie --seed 1 --seconds 50 --trace 0

A run is one single-threaded process and a closed loop with one client:
each job is an in-process call to a public entry point (``cli.main`` with
``--format structured``, ``pw.weight_filtration``, ``bbf``), and the next
job starts only when the previous one has returned its verdict.  A run
times exactly one pass over the workload's job list, cold: a second pass
in the same process would reuse lazily imported modules and any cache
the first pass warmed, so repeated runs, not repeated passes, supply the
medians.  ``--seconds`` is the time one pass is declared to fit; a pass
that takes longer is reported on stderr.  Outcomes are checked against
the hand-written tables in ``workloads.py`` after the pass, outside the
timed region.  Fixture-only jobs ignore the seed; only the generated
inputs (the seeded nilpotents) depend on it.

``--trace 0`` reports the end-to-end metrics, tracing off.  ``--trace 1``
installs the span wrappers of ``tracing.py`` and reports the per-layer
metrics instead; the spans go to ``perfbench/_work``.

Set-up is timed before the pass, SETUP_REPEATS times over, one after
another: a fresh interpreter that imports llvkit and exits, then one
generation of the workload's inputs in this process.  ``setup_s`` is the
median of the repeats.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SETUP_REPEATS = 15
# A traced run fails if more than this share of its time falls outside
# every wrapped function: a layer the wrappers miss would land there.
MAX_UNATTRIBUTED_SHARE = 0.25


def _import_llvkit():
    """Import llvkit from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import llvkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import llvkit from {SRC}: {exc}")
    if Path(llvkit.__file__).resolve().parent != SRC / "llvkit":
        sys.exit(f"perfbench: llvkit resolved to {llvkit.__file__}, "
                 f"not to {SRC}")


_import_llvkit()

from llvkit import models, rings                           # noqa: E402
from llvkit.rings import QuadraticForm                     # noqa: E402

import nilpotents                                          # noqa: E402
import tracing                                             # noqa: E402
from workloads import JOBS, WORKLOADS                      # noqa: E402

END_TO_END = (("verify_s", "s"), ("job_geomean_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def make_inputs(workload, seed):
    inputs = {}
    if workload.ring_file:
        big = models.bogomolov_model(QuadraticForm.diagonal([1, 1, 1, -1, -1]), 2)
        path = WORK / "ring-5-2.json"
        rings.save_ring(big, path)
        inputs["ring_file"] = str(path)
    if workload.nilpotents:
        inputs["nilpotents"] = nilpotents.generate(seed, workload.nilpotents)
    return inputs


# A fresh interpreter that imports every llvkit module the jobs use.
IMPORT_ONLY = "import sys; sys.path.insert(0, sys.argv[1]); import llvkit.bbf, llvkit.cli"


def set_up(workload, seed):
    """Inputs, and the set-up time: the median over SETUP_REPEATS of the
    time from starting an interpreter until llvkit is imported (and the
    interpreter has exited) plus the time to generate the inputs."""
    WORK.mkdir(exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_ONLY, str(SRC)], check=True)
        inputs = make_inputs(workload, seed)
        times.append(time.perf_counter() - t)
    return inputs, statistics.median(times)


class Raised:
    def __init__(self):
        self.text = traceback.format_exc()


def run_pass(jobs, inputs, tracer=None):
    """Run every job once, in order.  Returns (verify_s, times, outcomes)."""
    times, outcomes = {}, {}
    start = time.perf_counter()
    for job in jobs:
        t = time.perf_counter()
        try:
            if tracer is None:
                outcome = job.run(inputs)
            else:
                with tracer.job(job.id):
                    outcome = job.run(inputs)
        except Exception:       # a traceback is a wrong outcome, not a crash
            outcome = Raised()
        times[job.id] = time.perf_counter() - t
        outcomes[job.id] = outcome
    return time.perf_counter() - start, times, outcomes


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "llvkit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class ReportStore:
    """sha256 of each job's report, kept per source tree across runs, so a
    report that changes from one run to the next counts as a failure."""

    def __init__(self, path):
        self.path = path
        try:
            self.seen = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.seen = {}

    def check(self, job_id, text):
        digest = hashlib.sha256(text.encode()).hexdigest()
        first = self.seen.setdefault(job_id, digest)
        return [] if first == digest else ["report differs from an earlier run"]

    def save(self):
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))


def check_pass(jobs, outcomes, store):
    """Problems per job id for the pass."""
    problems = {}
    for job in jobs:
        outcome = outcomes[job.id]
        if isinstance(outcome, Raised):
            found = [f"raised {outcome.text.strip().splitlines()[-1]}"]
        else:
            found = job.check(outcome)
            text = job.report_bytes(outcome)
            if text is not None:
                found += store.check(job.id, text)
        if found:
            problems[job.id] = found
    return problems


def end_to_end(verify_s, times, setup_s):
    return {
        "verify_s": verify_s,
        "job_geomean_s": math.exp(statistics.fmean(math.log(t)
                                                   for t in times.values())),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload_name, seed, seconds, trace):
    """Returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name]
    jobs = [JOBS[j] for j in workload.jobs]
    inputs, setup_s = set_up(workload, seed)
    store = ReportStore(WORK / f"reports-{_source_digest()}.json")
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        verify_s, times, outcomes = run_pass(jobs, inputs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = check_pass(jobs, outcomes, store)
    store.save()
    for job_id, found in problems.items():
        for text in found:
            print(f"FAIL {job_id}: {text}", file=sys.stderr)
    for job_id, t in times.items():
        print(f"{job_id}: {t:.3f} s", file=sys.stderr)
    if verify_s > seconds:
        print(f"note: the pass took {verify_s:.1f} s, over --seconds {seconds:g}",
              file=sys.stderr)
    correct = not problems
    if tracer is None:
        values = end_to_end(verify_s, times, setup_s)
        units = dict(END_TO_END)
    else:
        missing = tracer.uncalled(workload.expect_calls)
        if missing:
            print(f"FAIL trace: never called {missing}", file=sys.stderr)
            correct = False
        units = dict(tracing.layer_metric_names(JOBS))
        values = tracer.layer_metrics(list(JOBS), verify_s)
        share = values["trace.unattributed_share"]
        if share > MAX_UNATTRIBUTED_SHARE:
            print(f"FAIL trace: {share:.0%} of the traced time is in no "
                  f"wrapped function (limit {MAX_UNATTRIBUTED_SHARE:.0%})",
                  file=sys.stderr)
            correct = False
        tracer.write(WORK / f"trace-{workload_name}-{seed}.jsonl")
    return {"correct": correct, "attempted": len(jobs), "failed": len(problems),
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
