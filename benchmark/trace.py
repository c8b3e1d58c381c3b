"""Span recorder for the traced benchmark run.

The traced run swaps wrappers in for the library functions that
``stochorder.harness`` and ``stochorder.cli`` import (plus ``cli.run`` and
``GammaPower.sample``), so every call the workloads make into a layer opens a
span. No file of the library changes; ``uninstall`` puts the originals back.
The untraced run installs nothing.

A span records its name, start, end and parent span. Spans stay in memory
and are written to their own file when the run ends. A span's self time is
its duration minus the durations of its child spans (the run is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from collections import defaultdict

import numpy as np

from stochorder import cli, harness, transforms
from stochorder.distributions import GammaPower

from workloads import PRESETS

# (layer module, function name): library functions wrapped where harness or
# cli hold them. Imported names the workloads never call (t_transform_chain,
# classify_pq, run_counterexample) are left alone.
IMPORTED = (
    ("majorization", "check_majorize"),
    ("majorization", "as_weight_vector"),
    ("transforms", "check_convexity_conditions"),
    ("transforms", "make_exp"),
    ("transforms", "make_power"),
    ("transforms", "make_log_shift"),
    ("distributions", "log_concavity_classify"),
    ("distributions", "lr_compare"),
    ("distributions", "transformed_density"),
    ("orders", "convolve_weighted"),
    ("orders", "st_compare_empirical"),
    ("orders", "st_compare_exact"),
    ("harness", "check_hypotheses"),
    ("harness", "run_suite"),
    ("harness", "transform_from_spec"),
)
VERIFY = "harness.verify"          # verify_iid_theorem and verify_noniid_theorem
SAMPLE = "distributions.sample"    # GammaPower.sample, which GeneralizedGamma uses
CONVOLVE = "orders.convolve_weighted"
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in IMPORTED) + (VERIFY, SAMPLE, "cli.run")


def _grid_points(args, kwargs, result):
    grid = args[3] if len(args) > 3 else kwargs.get("grid", transforms.DEFAULT_CONDITION_GRID)
    return grid.n * grid.n


def _draws(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["n"]


def _samples(args, kwargs, result):
    return np.size(args[0]) + np.size(args[1])


def _cdf_points(args, kwargs, result):
    return len(result.grid)


# span name -> (counter suffix, function of (args, kwargs, result))
WORK_COUNTERS = {
    "transforms.check_convexity_conditions": ("grid_points", _grid_points),
    SAMPLE: ("draws", _draws),
    "orders.st_compare_empirical": ("samples", _samples),
    CONVOLVE: ("grid_points", _cdf_points),
}


def _preset_of(args, kwargs):
    s = args[0] if args else kwargs["s"]
    return s.label.split("#")[0]


class _Span:
    __slots__ = ("rec", "name", "tag", "idx")

    def __init__(self, rec, name, tag):
        self.rec, self.name, self.tag = rec, name, tag

    def __enter__(self):
        rec = self.rec
        self.idx = len(rec.names)
        rec.names.append(self.name)
        rec.parent.append(rec.stack[-1] if rec.stack else -1)
        rec.end.append(0.0)
        rec.stack.append(self.idx)
        if self.tag is not None:
            rec.tags[self.idx] = self.tag
        rec.start.append(time.perf_counter())
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self.rec
        rec.end[self.idx] = time.perf_counter()
        rec.stack.pop()
        if exc_type is not None:
            rec.counts[self.name + ".errors"] += 1
        return False


class Recorder:
    """In-memory spans plus per-name counters."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.tags: dict[int, str] = {}
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def span(self, name: str, tag: str | None = None) -> _Span:
        return _Span(self, name, tag)

    def _wrap(self, name, fn, tag_of=None):
        counter = WORK_COUNTERS.get(name)
        rec = self

        def wrapper(*args, **kwargs):
            rec.counts[name + ".calls"] += 1
            tag = tag_of(args, kwargs) if tag_of is not None else None
            with rec.span(name, tag):
                result = fn(*args, **kwargs)
            if counter is not None:
                rec.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _swap(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, fn_name in IMPORTED:
            orig = getattr(importlib.import_module(f"stochorder.{module}"), fn_name)
            wrapper = self._wrap(f"{module}.{fn_name}", orig)
            for owner in (harness, cli):
                if getattr(owner, fn_name, None) is orig:
                    self._swap(owner, fn_name, wrapper)
        for fn_name in ("verify_iid_theorem", "verify_noniid_theorem"):
            orig = getattr(harness, fn_name)
            wrapper = self._wrap(VERIFY, orig, tag_of=_preset_of)
            for owner in (harness, cli):
                self._swap(owner, fn_name, wrapper)
        self._swap(GammaPower, "sample", self._wrap(SAMPLE, GammaPower.sample))
        self._swap(cli, "run", self._wrap("cli.run", cli.run))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _tag_of(self, i: int) -> str | None:
        while i >= 0:
            if i in self.tags:
                return self.tags[i]
            i = self.parent[i]
        return None

    def metrics(self, n_scenarios: int) -> dict:
        """Per-layer totals: calls, self time and errors of every span name,
        the work counters, and convolution self time per suite preset."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = defaultdict(float)
        by_preset = defaultdict(float)
        for i in range(n):
            t = self.end[i] - self.start[i] - child[i]
            self_s[self.names[i]] += t
            if self.names[i] == CONVOLVE:
                by_preset[self._tag_of(i)] += t
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.counts[f"{name}.calls"], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
            out[f"{name}.errors"] = (self.counts[f"{name}.errors"], "count")
        for name, (suffix, _) in WORK_COUNTERS.items():
            out[f"{name}.{suffix}"] = (self.counts[f"{name}.{suffix}"], "count")
        for preset in PRESETS:
            out[f"{CONVOLVE}.self_s.{preset}"] = (by_preset[preset], "s")
        calls = self.counts["harness.check_hypotheses.calls"]
        out["harness.check_hypotheses.calls_per_scenario"] = (calls / max(n_scenarios, 1), "calls/scenario")
        return out

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent] to a gzip'd JSON file."""
        doc = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [self.names[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.names))
            ],
            "tags": {str(k): v for k, v in self.tags.items()},
        }
        with gzip.open(path, "wt") as f:
            json.dump(doc, f)
