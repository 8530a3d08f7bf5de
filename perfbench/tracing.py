"""Span tracing of llvkit's public functions, installed from outside.

``Tracer.install`` replaces each listed function by a wrapper in every
llvkit module namespace that holds the same function object: a name
bound by ``from .linalg import kernel`` inside ``lefschetz`` is a second
reference that patching ``linalg`` alone would miss.  Methods are
patched on their class.  Nothing under ``src/llvkit`` changes.

A span records its name, start, end, parent span and job.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer self times (span
time minus the time its child spans cover) and exact call counts, and
``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

from llvkit import models
from llvkit.scalars import Gauss


def _gaussian_matrices(mats):
    return any(isinstance(v, Gauss) for m in mats
               for row in getattr(m, "rows", m) for v in row)


def _closure_name(args, kwargs):
    gens = args[0] if args else kwargs["generators"]
    return ("llv.closure_gaussian" if _gaussian_matrices(gens)
            else "llv.closure_rational")


def _sl2_name(args, kwargs):
    ring = args[0] if args else kwargs["ring"]
    return ("lefschetz.sl2_gaussian" if ring.field == "gaussian"
            else "lefschetz.sl2")


def _closure_dim(result):
    return {"llv.closure_dim_total": result.dim}


def _ring_dim(result):
    return {"models.ring_total_dim": sum(result.dims)}


# (owner module, attribute, span name or classifier, result measure)
# A dotted attribute names a method patched on its class.
TARGETS = [
    ("llvkit.llv", "lie_closure", _closure_name, _closure_dim),
    ("llvkit.llv", "ad_grading", "llv.ad_grading", None),
    ("llvkit.llv", "so_identify", "llv.so_identify", None),
    ("llvkit.llv", "so4_symplectic", "llv.so4", None),
    ("llvkit.llv", "weil_operator", "llv.weil", None),
    ("llvkit.llv", "derivation_check", "llv.derivation", None),
    ("llvkit.llv", "verbitsky_component", "llv.verbitsky", None),
    ("llvkit.lefschetz", "complete_sl2_weights", _sl2_name, None),
    ("llvkit.lefschetz", "hl_test_weights", "lefschetz.hl_test", None),
    ("llvkit.lefschetz", "simultaneous_primitivity_check",
     "lefschetz.primitivity", None),
    ("llvkit.lefschetz", "symplectic_hl_check", "lefschetz.symplectic_hl",
     None),
    ("llvkit.lefschetz", "cup_operator", "lefschetz.cup_operator", None),
    ("llvkit.pw", "perverse_filtration", "pw.perverse", None),
    ("llvkit.pw", "weak_pw_check", "pw.weak_pw", None),
    ("llvkit.pw", "isotropic_independence_check", "pw.independence", None),
    ("llvkit.pw", "perverse_hodge_check", "pw.perverse_hodge", None),
    ("llvkit.pw", "weight_filtration", "pw.weight", None),
    ("llvkit.linalg", "rref", "linalg.rref", None),
    ("llvkit.linalg", "kernel", "linalg.kernel", None),
    ("llvkit.linalg", "inverse", "linalg.inverse", None),
    ("llvkit.linalg", "symmetric_signature", "linalg.signature", None),
    ("llvkit.linalg", "integer_eigenspaces", "linalg.eigenspaces", None),
    ("llvkit.linalg", "solve_sparse", "linalg.solve_sparse", None),
    ("llvkit.models", "bogomolov_model", "models.build", _ring_dim),
    ("llvkit.models", "k3_ring", "models.build", _ring_dim),
    ("llvkit.models", "torus_ring", "models.build", _ring_dim),
    ("llvkit.models", "torus_bigraded", "models.build", _ring_dim),
    ("llvkit.rings", "load_ring", "rings.load", None),
    ("llvkit.rings", "GradedAlgebra.validate", "rings.validate", None),
    ("llvkit.rings", "gaussian_extension", "rings.gaussian_extension", None),
    ("llvkit.clifford", "cl_multiply", "clifford.multiply", None),
    ("llvkit.clifford", "polarization_form", "clifford.polarization", None),
    ("llvkit.bbf", "bbf_form", "bbf.form", None),
    ("llvkit.bbf", "fujiki_check", "bbf.fujiki", None),
    ("llvkit.cli", "Report.to_json", "cli.report", None),
]

TIMED = sorted({"llv.closure_rational", "llv.closure_gaussian",
                "lefschetz.sl2", "lefschetz.sl2_gaussian", "models.reject"}
               | {t[2] for t in TARGETS if isinstance(t[2], str)})
COUNTED = {"llv.closure": ("llv.closure_rational", "llv.closure_gaussian"),
           "lefschetz.sl2": ("lefschetz.sl2", "lefschetz.sl2_gaussian"),
           "lefschetz.hl_test": ("lefschetz.hl_test",),
           "pw.perverse": ("pw.perverse",),
           "pw.weight": ("pw.weight",),
           "linalg.rref": ("linalg.rref",),
           "linalg.kernel": ("linalg.kernel",),
           "linalg.solve_sparse": ("linalg.solve_sparse",),
           "models.build": ("models.build",),
           "rings.validate": ("rings.validate",),
           "clifford.multiply": ("clifford.multiply",)}
MEASURED = ("llv.closure_dim_total", "models.ring_total_dim")


def layer_metric_names(job_ids):
    """Every per-layer metric name, in output order, with its unit."""
    names = [(f"{name}_s", "s") for name in TIMED]
    names += [(f"{name}_calls", "count") for name in sorted(COUNTED)]
    names += [(name, "count") for name in MEASURED]
    names += [("cli.unattributed_s", "s")]
    names += [(f"cli.job.{job}_s", "s") for job in job_ids]
    names += [("trace.verify_s", "s"), ("trace.unattributed_share", "ratio"),
              ("trace.spans", "count")]
    return names


def target_key(module, attr):
    return f"{module}.{attr}"


class Tracer:
    """Records spans while a job is open; does nothing outside jobs."""

    def __init__(self):
        self.spans = []          # [id, parent, job, name, start, end]
        self.measures = {}
        self.calls = {}          # target key -> call count
        self._stack = []
        self._job = None
        self._undo = []

    # -- spans --------------------------------------------------------------

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                self._job, name, time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id):
        """The root span of one job; wrapped calls record spans only here."""
        self._job = job_id
        span = self._open("cli.job")
        try:
            yield
        finally:
            self._close(span)
            self._job = None

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, key, fn, name, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._job is None:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            label = name(args, kwargs) if callable(name) else name
            span = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            except models.ModelConstructionError:
                if label == "models.build":     # a build that rejects its input
                    span[3] = "models.reject"
                raise
            finally:
                tracer._close(span)
            if measure is not None:
                for metric, value in measure(result).items():
                    tracer.measures[metric] = tracer.measures.get(metric, 0) + value
            return result

        return wrapper

    def install(self):
        """Wrap every target in every llvkit namespace that binds it."""
        owners = {t[0]: importlib.import_module(t[0]) for t in TARGETS}
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "llvkit" or name.startswith("llvkit.")]
        for module_name, attr, name, measure in TARGETS:
            key = target_key(module_name, attr)
            self.calls[key] = 0
            owner = owners[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(key, fn, name, measure))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(key, fn, name, measure)
            for mod in namespaces:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, binding, wrapper)

    def _set(self, holder, binding, value):
        self._undo.append((holder, binding, getattr(holder, binding)))
        setattr(holder, binding, value)

    def uninstall(self):
        while self._undo:
            holder, binding, value = self._undo.pop()
            setattr(holder, binding, value)

    def uncalled(self, expected):
        """Target keys in ``expected`` that never ran inside a job."""
        return sorted(k for k in expected if not self.calls.get(k))

    # -- results ------------------------------------------------------------

    def layer_metrics(self, job_ids, traced_verify_s):
        """Per-layer metrics of the traced pass.  The self times and
        ``cli.unattributed_s`` add up to the job spans' durations by
        construction; ``trace.unattributed_share`` is the part of the
        traced time that no wrapped function covers."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[5] - span[4]
        self_time = {}
        calls = {}
        job_time = {}
        for span in self.spans:
            duration = span[5] - span[4]
            own = duration - child[span[0]]
            name = span[3]
            if name == "cli.job":
                name = "cli.unattributed"
                job_time[span[2]] = job_time.get(span[2], 0.0) + duration
            self_time[name] = self_time.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for name in TIMED:
            out[f"{name}_s"] = self_time.get(name, 0.0)
        for metric, names in sorted(COUNTED.items()):
            out[f"{metric}_calls"] = sum(calls.get(n, 0) for n in names)
        for metric in MEASURED:
            out[metric] = self.measures.get(metric, 0)
        out["cli.unattributed_s"] = self_time.get("cli.unattributed", 0.0)
        for job in job_ids:
            out[f"cli.job.{job}_s"] = job_time.get(job, 0.0)
        out["trace.verify_s"] = traced_verify_s
        out["trace.unattributed_share"] = (out["cli.unattributed_s"]
                                           / traced_verify_s)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        keys = ("id", "parent", "job", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

