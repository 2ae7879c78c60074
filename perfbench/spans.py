"""Span tracing of fullkl from outside the package.

A :class:`Tracer` replaces module-level functions of ``fullkl`` with wrappers
that record a span (name, start, end, parent, run id) or bump a counter.
The program resolves these names at call time (``train_step`` calls
``fullkl.model.batch_loss_and_grad`` through its module globals), so the
wrappers see every call without any change to the package.  Every binding
of a wrapped function object in the package is replaced, so a function
re-exported by another module is caught whichever name the caller uses.

Spans stay in memory until :func:`write_spans` dumps them at the end of a
run.  :func:`layer_metrics` turns one traced call's spans into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

FAMILIES = ("full_kl", "reference")
PACKAGE_MODULES = ("fullkl", "fullkl.grid", "fullkl.losses", "fullkl.model",
                   "fullkl.data", "fullkl.runner", "fullkl.verify")

# Spans of these names all count as the runner's output writing; the
# comparison files are written inline in ``runner.compare`` and land in its
# self time instead.
WRITE_OUTPUTS = "runner.write_outputs"


def _family_of(args, kwargs):
    spec = kwargs["spec"] if "spec" in kwargs else args[3]
    return spec.family


def _by_family(base):
    return lambda args, kwargs: f"{base}.{_family_of(args, kwargs)}"


def _train_run_id(args, kwargs):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
    return f"{cfg.loss.family}/seed{cfg.seed}"


# (defining module, function name, span name or name function, run-id function).
# A name function gets the call's (args, kwargs); a run-id function starts a
# new run id below the enclosing one.
SPAN_TARGETS = (
    ("losses", "batch_loss_and_grad", _by_family("losses.batch_loss_and_grad"), None),
    ("losses", "batch_loss", _by_family("losses.batch_loss"), None),
    ("losses", "full_kl_loss", "losses.full_kl_loss", None),
    ("losses", "full_kl_grad", "losses.full_kl_grad", None),
    ("losses", "reference_loss", "losses.reference_loss", None),
    ("losses", "reference_grad", "losses.reference_grad", None),
    ("model", "train_run", "model.train_run", _train_run_id),
    ("model", "train_step", "model.train_step", None),
    ("model", "_forward_cached", "model._forward_cached", None),
    ("model", "_backward", "model._backward", None),
    ("model", "adam_update", "model.adam_update", None),
    ("model", "evaluate", "model.evaluate", None),
    ("model", "forward", "model.forward", None),
    ("model", "save_checkpoint", WRITE_OUTPUTS, None),
    ("data", "gen_synthetic", "data.gen_synthetic", None),
    ("data", "split", "data.split", None),
    ("runner", "run_experiment", "runner.run_experiment", None),
    ("runner", "compare", "runner.compare", None),
    ("runner", "_write_metrics_csv", WRITE_OUTPUTS, None),
    ("runner", "_write_summary_csv", WRITE_OUTPUTS, None),
    ("verify", "gradient_fidelity", "verify.gradient_fidelity", None),
    ("verify", "component_minima", "verify.component_minima", None),
    ("verify", "gaussian_kl_sweep", "verify.gaussian_kl_sweep", None),
    ("verify", "affine_invariance_errors", "verify.affine_invariance_errors", None),
    ("verify", "exact_zero_violations", "verify.exact_zero_violations", None),
    ("verify", "fd_grad", "verify.fd_grad", None),
    ("verify", "numeric_gaussian_kl", "verify.numeric_gaussian_kl", None),
)

# Small, very frequent helpers: counted, not timed, to keep the overhead low.
COUNT_TARGETS = (
    ("grid", "softmax_probs", "grid.softmax_probs"),
    ("grid", "pmf_moments", "grid.pmf_moments"),
)


class MissingTargetError(RuntimeError):
    """A function the tracer wraps no longer exists in the package."""


def _resolve(module: str, attr: str):
    mod = importlib.import_module(f"fullkl.{module}")
    fn = getattr(mod, attr, None)
    if not callable(fn):
        raise MissingTargetError(
            f"fullkl.{module}.{attr} no longer exists; update the tracer's "
            f"targets in perfbench/spans.py instead of reporting zeros"
        )
    return fn


class Tracer:
    """In-memory span recorder that patches fullkl functions while installed."""

    def __init__(self, span_targets=SPAN_TARGETS, count_targets=COUNT_TARGETS):
        self.span_targets = span_targets
        self.count_targets = count_targets
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._root_run_id = "main"

    def _span_wrapper(self, fn, name, run_id_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_fn = name if callable(name) else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            run_id = spans[parent][4] if parent >= 0 else self._root_run_id
            if run_id_fn is not None:
                run_id = f"{run_id}:{run_id_fn(args, kwargs)}"
            rec = [name_fn(args, kwargs) if name_fn else name, clock(), 0.0, parent, run_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, run_id: str):
        """Wrap every target for the duration of the block; ``run_id`` tags its root spans."""
        wrappers = []
        for module, attr, name, run_id_fn in self.span_targets:
            fn = _resolve(module, attr)
            wrappers.append((fn, self._span_wrapper(fn, name, run_id_fn)))
        for module, attr, name in self.count_targets:
            fn = _resolve(module, attr)
            wrappers.append((fn, self._count_wrapper(fn, name)))
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        patched = []
        try:
            for fn, wrapper in wrappers:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, fn))
            self._root_run_id = run_id
            yield self
        finally:
            for mod, key, fn in reversed(patched):
                setattr(mod, key, fn)
            self._stack.clear()

def write_spans(path, tracers) -> None:
    """Dump the spans of several tracers as gzip-compressed JSON lines.

    Parent indices are renumbered to line numbers of the whole file.
    """
    offset = 0
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for tracer in tracers:
            for name, start, end, parent, run_id in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent + offset if parent >= 0 else -1,
                                     "run": run_id}) + "\n")
            offset += len(tracer.spans)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _percentile(sorted_vals, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty list)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


# (metric, unit, better) for every per-layer metric, in the order printed.
PER_LAYER = (
    *[(f"losses.batch_loss_and_grad.{f}.{s}", u, "lower")
      for f in FAMILIES for s, u in (("calls", "count"), ("s", "s"))],
    *[(f"losses.batch_loss.{f}.s", "s", "lower") for f in FAMILIES],
    ("model.evaluate.calls", "count", "lower"),
    ("model.evaluate.s", "s", "lower"),
    ("model.evaluate.self_s", "s", "lower"),
    ("model.forward.s", "s", "lower"),
    ("model._forward_cached.s", "s", "lower"),
    ("model._backward.s", "s", "lower"),
    ("model.adam_update.calls", "count", "lower"),
    ("model.adam_update.s", "s", "lower"),
    ("model.train_step.calls", "count", "lower"),
    ("model.train_step.s", "s", "lower"),
    ("model.train_step.self_s", "s", "lower"),
    ("model.train_step.p50_us", "us", "lower"),
    ("model.train_step.p99_us", "us", "lower"),
    ("model.train_run.self_s", "s", "lower"),
    ("grid.pmf_moments.calls", "count", "lower"),
    ("grid.softmax_probs.calls", "count", "lower"),
    ("data.gen_synthetic.s", "s", "lower"),
    ("data.split.s", "s", "lower"),
    ("runner.write_outputs.s", "s", "lower"),
    ("runner.write_outputs.bytes", "bytes", "lower"),
    ("runner.run_experiment.self_s", "s", "lower"),
    ("runner.train_run.busy_ratio", "ratio", "higher"),
    *[(f"losses.{fn}.{s}", u, "lower")
      for fn in ("full_kl_loss", "full_kl_grad", "reference_loss", "reference_grad")
      for s, u in (("calls", "count"), ("s", "s"))],
    *[(f"verify.{fn}.s", "s", "lower")
      for fn in ("gradient_fidelity", "component_minima", "gaussian_kl_sweep",
                 "affine_invariance_errors", "exact_zero_violations")],
    ("verify.fd_grad.calls", "count", "lower"),
    ("verify.numeric_gaussian_kl.calls", "count", "lower"),
    ("verify.numeric_gaussian_kl.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(spans, counts, wall_s: float, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced call, keyed as in :data:`PER_LAYER`.

    ``trace.overhead_s`` needs untraced calls too and is left to the caller.
    """
    selfs = self_times(spans)
    calls, incl, excl = Counter(), defaultdict(float), defaultdict(float)
    durations = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        name, dur = span[0], span[2] - span[1]
        calls[name] += 1
        incl[name] += dur
        excl[name] += self_s
        durations[name].append(dur)
    # _forward_cached also runs under the eval forward; only the train step's share counts.
    fwd_in_step = float(sum(s[2] - s[1] for s in spans
                      if s[0] == "model._forward_cached" and s[3] >= 0
                      and spans[s[3]][0] == "model.train_step"))
    steps = sorted(durations["model.train_step"])
    out = dict.fromkeys((m for m, _, _ in PER_LAYER if m != "trace.overhead_s"), 0.0)
    for metric in out:
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = float(counts[base] if base.startswith("grid.") else calls[base])
        elif stat == "s":
            out[metric] = fwd_in_step if base == "model._forward_cached" else incl[base]
        elif stat == "self_s":
            out[metric] = excl[base]
    out["model.train_step.p50_us"] = _percentile(steps, 0.50) * 1e6
    out["model.train_step.p99_us"] = _percentile(steps, 0.99) * 1e6
    out["runner.write_outputs.bytes"] = float(out_bytes)
    out["runner.train_run.busy_ratio"] = incl["model.train_run"] / wall_s
    return out


def combine(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced calls of the same workload."""
    return {k: statistics.median(d[k] for d in per_call) for k in per_call[0]}
