#!/usr/bin/env python3
"""fullkl benchmark: end-to-end metrics per workload, or a traced per-layer breakdown.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_full_kl --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mib``); ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics.  Both repeat
the workload's main call until ``--seconds`` have passed and report medians.
Every call runs in a fresh, empty directory under ``.bench_out/`` that is
removed afterwards, and its outputs are checked.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
DIGESTS = Path(__file__).with_name("digests.json")
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _openblas_runtime():
    """(threads, runtime config, how) read from the OpenBLAS that numpy loaded, via ctypes."""
    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                how = f"ctypes {prefix}get_num_threads{suffix}() in {lib_path.name}"
                return get_threads(), get_config().decode(), how
    return None, None, "unknown: no OpenBLAS library found next to numpy (threadpoolctl is not installed)"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, runtime_config, how = _openblas_runtime()
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_runtime_config": runtime_config,
        "blas_threads": threads,
        "blas_threads_source": f"{how}; OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}",
        "git_commit": _git_commit(),
    }


def build_key(env: dict) -> str:
    """Identifies a numpy/BLAS build whose outputs are expected to be bit-identical."""
    return (f"numpy {env['numpy']} | {env['blas_name']} {env['blas_version']} | "
            f"{env['blas_runtime_config'] or env['blas_config']} | {env['machine']}")


def digest_status(env: dict, workload: str, seed: int, digest: str) -> str:
    recorded = json.loads(DIGESTS.read_text()).get(build_key(env), {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return "unrecorded for this build and seed"
    return "unchanged" if recorded == digest else "bits changed"


def _repeat(seconds: float, step) -> None:
    """Call ``step()`` while another round is expected to end within ``seconds``.

    ``step()`` returns True once a round is complete.  A run makes at least
    one round, and a round is expected to take as long as the mean round so
    far, so a run ends near ``seconds`` rather than up to a round past it.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        while not step():
            pass
        rounds += 1
        if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
            return


def untraced_run(workloads, prep, run_dir: Path, seconds: float):
    setup = workloads.measure_setup(SRC, prep, SETUP_REPEATS)
    reps = []
    _repeat(seconds, lambda: reps.append(workloads.run_rep(prep, run_dir)) or True)
    wall = statistics.median(r.wall_s for r in reps)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    attempted, failed = sum(r.attempted for r in reps), sum(r.failed for r in reps)
    extra = {"failed_ops_frac": (failed / attempted, f"of {attempted} operations")}
    if prep.train_rows:
        extra["samples_per_s"] = (prep.train_rows / wall, "train rows/s")
    for family, mae in reps[0].mae.items():
        extra[f"final_val_mae.{family}"] = (mae, "label units")
    detail = {"setup_s_samples": setup, "wall_s_samples": [r.wall_s for r in reps]}
    return metrics, extra, reps, [], detail


def traced_run(workloads, spans, prep, run_dir: Path, seconds: float):
    untraced, traced, tracers = [], [], []

    def step():
        if len(untraced) <= len(traced):
            untraced.append(workloads.run_rep(prep, run_dir))
            return False
        tracers.append(spans.Tracer())
        traced.append(workloads.run_rep(prep, run_dir, tracers[-1], f"rep{len(tracers)}"))
        return True

    _repeat(seconds, step)
    per_call = [spans.layer_metrics(t.spans, t.counts, r.wall_s, r.out_bytes)
                for t, r in zip(tracers, traced)]
    metrics = spans.combine(per_call)
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in untraced))
    problems = []
    for name, unit, _ in spans.PER_LAYER:
        values = {d.get(name) for d in per_call}
        if unit in ("count", "bytes") and len(values) > 1:
            problems.append(f"{name} differs between traced calls: {sorted(values)}")
    steps = metrics["model.train_step.calls"]
    if steps != prep.train_steps:
        problems.append(f"model.train_step.calls is {steps:g}, the protocol predicts {prep.train_steps}")
    trace_dir = WORK / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_path = trace_dir / f"{prep.workload}-seed{prep.seed}.jsonl.gz"
    spans.write_spans(trace_path, tracers)
    detail = {
        "spans_file": trace_path.relative_to(ROOT).as_posix(),
        "traced_wall_s_samples": [r.wall_s for r in traced],
        "untraced_wall_s_samples": [r.wall_s for r in untraced],
    }
    return metrics, {}, untraced + traced, problems, detail


def main(argv=None) -> int:
    if not (SRC / "fullkl" / "__init__.py").is_file():
        print(f"run.py: no fullkl package under {SRC}; run it from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # Load is one process with nproc BLAS threads, what OpenBLAS starts by
    # default; set before numpy loads OpenBLAS so the count is on record.
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed, >= 0 (default 0: the committed configs)")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long to repeat the main call")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    env = environment(nproc)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=WORK))
    try:
        prep = workloads.prepare(args.workload, args.seed, nproc, run_dir)
        if args.trace:
            metrics, extra, reps, problems, detail = traced_run(workloads, spans, prep, run_dir, args.seconds)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            metrics, extra, reps, problems, detail = untraced_run(workloads, prep, run_dir, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for i, r in enumerate(reps):
        problems += [f"call {i + 1}: {p}" for p in r.problems]
    digests = sorted({r.digest for r in reps})
    if len(digests) > 1:
        problems.append(f"identical calls wrote different outputs: {digests}")
    status = digest_status(env, args.workload, args.seed, digests[0])
    attempted, failed = sum(r.attempted for r in reps), sum(r.failed for r in reps)
    correct = not problems and failed == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  calls {len(reps)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6f} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    print(f"  output digest {digests[0]} ({status})")
    for p in problems:
        print(f"  PROBLEM: {p}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": {k: v[0] for k, v in extra.items()},
        "digest": digests[0], "digest_status": status, "problems": problems, **detail,
    }
    print("result: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
