"""Span tracing of otfsync from outside the package.

``Tracer.install`` replaces the public functions listed in ``TRACED`` with
wrappers that record one span per call: (id, parent id, name, start ns,
end ns).  Spans are kept in memory and appended, one JSON list per line, to
``spans-<pid>-<ns>.jsonl`` whenever a ``harness.run_trial`` span closes, because forked pool workers never run
``atexit``; ``summarize`` merges the files of every process.  A file belongs
to one process lifetime, so span ids are unique within a file even if the
operating system reuses a pid.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import time
from collections import defaultdict

#: module -> public names wrapped in it ("Class.method" wraps a method)
TRACED = {
    "channel": ("draw_realization", "apply_channel", "add_awgn"),
    "modem": ("build_data_frame", "transmit", "remove_cp"),
    "pilot": ("make_pcp", "embed_pilots"),
    "sync": ("synchronize_user", "separate_user", "timing_correlate", "estimate_to",
             "extract_pilot_region", "estimator_bundle", "build_bem_regressor",
             "estimate_cfo", "cfo_cost", "golden_section_max", "reconstruct_channel",
             "BemRegressor.cost_many", "BemRegressor.coeffs"),
    "harness": ("run_experiment", "run_point", "run_trial", "aggregate_point",
                "true_pilot_taps", "absorbed_channel_fit"),
}
TRIAL_SPAN = "harness.run_trial"

_active = None          # the installed tracer, reset in forked children
_fork_hook_set = False


def _reset_in_child() -> None:
    if _active is not None:
        _active.reset()


class Tracer:
    """Records spans of the wrapped functions of one process tree."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._patches = []    # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        """Drop spans inherited from the parent of a forked worker."""
        self._closed = []
        self._stack = []
        self._next_id = 0
        self._path = os.path.join(
            self.out_dir, f"spans-{os.getpid()}-{time.perf_counter_ns()}.jsonl")

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self._closed.append((span_id, parent, name, start, end))
                if name == TRIAL_SPAN:
                    self.flush()
        return traced

    def install(self) -> None:
        global _active, _fork_hook_set
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"otfsync.{module_name}")
            for qualname in names:
                owner, attr = module, qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(f"{module_name}.{qualname}", original))
                self._patches.append((owner, attr, original))
        _active = self
        if not _fork_hook_set:
            os.register_at_fork(after_in_child=_reset_in_child)
            _fork_hook_set = True

    def uninstall(self) -> None:
        global _active
        self.flush()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _active = None

    def flush(self) -> None:
        if not self._closed:
            return
        with open(self._path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self._closed) + "\n")
        self._closed = []


def summarize(out_dir: str) -> dict:
    """Merge the span files of all processes into per-stage totals.

    ``stages[name]`` is [calls, inclusive seconds, self seconds]; self time is
    a span's duration minus that of its direct children.  ``in_cfo[name]`` is
    the inclusive time of ``name`` when called directly by
    ``sync.estimate_cfo``, which separates the CFO coarse scan and solve from
    the same functions used elsewhere.
    """
    stages = defaultdict(lambda: [0, 0.0, 0.0])
    in_cfo = defaultdict(float)
    trial_s, point_s = [], []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            spans = [span for line in fh for span in json.loads(line)]
        names = {span_id: name for span_id, _, name, _, _ in spans}
        child_s = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent is not None:
                child_s[parent] += 1e-9 * (end - start)
        for span_id, parent, name, start, end in spans:
            duration = 1e-9 * (end - start)
            entry = stages[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child_s[span_id]
            if parent is not None and names.get(parent) == "sync.estimate_cfo":
                in_cfo[name] += duration
            if name == TRIAL_SPAN:
                trial_s.append(duration)
            elif name == "harness.run_point":
                point_s.append(duration)
    return {"stages": dict(stages), "in_cfo": dict(in_cfo),
            "trial_s": trial_s, "point_s": point_s}
