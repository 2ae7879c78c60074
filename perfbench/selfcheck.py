#!/usr/bin/env python3
"""Fast self-check of the benchmark itself, on a tiny config (a few seconds).

    python3 perfbench/selfcheck.py

Checks the self-time arithmetic, span nesting and run ids of a traced call,
the exact ``train_step`` count, that counts repeat between traced calls,
that a missing wrap target fails loudly, that seed 0 reproduces the
committed configs, and that ``BENCHMARK.json`` names the metrics the code
reports.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import copy
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import fullkl.model  # noqa: E402

TINY = copy.deepcopy(workloads.PROTOCOL)
TINY["dataset"]["n"] = 300
TINY["train"].update(epochs=2, hidden=[8])

# Span name -> the span names allowed as its parent (None: a root span).
PARENTS = {
    "runner.compare": {None},
    "runner.run_experiment": {None, "runner.compare"},
    "data.gen_synthetic": {"runner.run_experiment"},
    "data.split": {"runner.run_experiment"},
    "model.train_run": {"runner.run_experiment"},
    "model.train_step": {"model.train_run"},
    "model._forward_cached": {"model.train_step", "model.forward"},
    "model._backward": {"model.train_step"},
    "model.adam_update": {"model.train_step"},
    "model.evaluate": {"model.train_run"},
    "model.forward": {"model.evaluate"},
    "runner.write_outputs": {"runner.run_experiment"},
    **{f"losses.batch_loss_and_grad.{f}": {"model.train_step"} for f in spans.FAMILIES},
    **{f"losses.batch_loss.{f}": {"model.evaluate"} for f in spans.FAMILIES},
}


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def check_self_time_arithmetic() -> None:
    # root 0..10 holds b 1..3 and c 4..6; c holds d 5..5.5; e is a second root.
    synthetic = [["a", 0.0, 10.0, -1, "r"], ["b", 1.0, 3.0, 0, "r"], ["c", 4.0, 6.0, 0, "r"],
                 ["d", 5.0, 5.5, 2, "r"], ["e", 20.0, 21.0, -1, "r"]]
    check(spans.self_times(synthetic) == [6.0, 2.0, 1.5, 0.5, 1.0],
          "self time is duration minus the union of child spans")


def check_traced_workload(workload: str, inputs: Path) -> None:
    prep = workloads.prepare(workload, 0, 2, inputs, protocol=TINY)
    original = fullkl.model.train_step
    tracers, per_call = [], []
    for i in range(2):
        tracers.append(spans.Tracer())
        rep = workloads.run_rep(prep, inputs, tracers[-1], f"rep{i + 1}")
        check(not rep.problems and rep.failed == 0, f"{workload}: tiny call {i + 1} passes its output checks")
        per_call.append(spans.layer_metrics(tracers[-1].spans, tracers[-1].counts, rep.wall_s, rep.out_bytes))
    check(fullkl.model.train_step is original, f"{workload}: uninstalling restores the package functions")

    recorded = tracers[0].spans
    for i, (name, start, end, parent, run_id) in enumerate(recorded):
        pname = recorded[parent][0] if parent >= 0 else None
        if name in PARENTS and pname not in PARENTS[name]:
            check(False, f"{workload}: span {name} nests under {pname}")
        if parent >= 0:
            p = recorded[parent]
            if not (parent < i and p[1] <= start <= end <= p[2] and run_id.startswith(p[4])):
                check(False, f"{workload}: span {i} ({name}) lies inside its parent {parent} ({pname})")
        if name == "model.train_step" and "/seed" not in run_id:
            check(False, f"{workload}: train_step span {i} carries its run's family and seed ({run_id})")
    check(True, f"{workload}: {len(recorded)} spans nest inside their parents with the expected names")

    selfs = spans.self_times(recorded)
    for root, span in enumerate(recorded):
        if span[3] < 0:
            below = [j for j in range(root, len(recorded)) if _descends(recorded, j, root)]
            total = sum(selfs[j] for j in below)
            if not math.isclose(total, span[2] - span[1], rel_tol=1e-9, abs_tol=1e-9):
                check(False, f"{workload}: self times below root {root} sum to its duration")
    check(True, f"{workload}: self times of each tree sum to its root's duration")

    steps = per_call[0]["model.train_step.calls"]
    check(steps == prep.train_steps,
          f"{workload}: model.train_step.calls {steps:g} equals the predicted {prep.train_steps}")
    counts = [m for m, unit, _ in spans.PER_LAYER if unit == "count"]
    check(all(per_call[0][m] == per_call[1][m] for m in counts), f"{workload}: counts repeat between calls")


def _descends(recorded, j: int, root: int) -> bool:
    while j >= 0:
        if j == root:
            return True
        j = recorded[j][3]
    return False


def check_missing_target_fails() -> None:
    original = fullkl.model.train_step
    tracer = spans.Tracer(span_targets=(*spans.SPAN_TARGETS, ("model", "no_such_fn", "model.x", None)))
    try:
        with tracer.installed("x"):
            pass
    except spans.MissingTargetError:
        raised = True
    else:
        raised = False
    check(raised and fullkl.model.train_step is original, "a missing wrap target raises and patches nothing")


def check_committed_configs() -> None:
    configs = workloads.make_configs("compare_seeds", 0, 2)
    for family, cfg in configs.items():
        path = ROOT / "configs" / f"{family}.json"
        if not path.is_file():
            continue
        committed = json.loads(path.read_text())
        check({k: v for k, v in cfg.items() if k != "seeds"} == {k: v for k, v in committed.items() if k != "seeds"}
              and committed["seeds"][:len(cfg["seeds"])] == cfg["seeds"],
              f"seed 0 reproduces configs/{family}.json up to the seed list's length")


def check_benchmark_json() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    bench = json.loads(path.read_text())
    check([(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END),
          "BENCHMARK.json end_to_end matches the untraced run's metrics")
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(spans.PER_LAYER),
          "BENCHMARK.json per_layer matches the traced run's metrics")
    check(sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json lists every workload")


def main() -> int:
    check_self_time_arithmetic()
    check_missing_target_fails()
    check_committed_configs()
    check_benchmark_json()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=run.WORK) as tmp:
        for workload in ("train_full_kl", "compare_seeds"):
            check_traced_workload(workload, Path(tmp))
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
