"""Benchmark of the ppmalign pipeline: seeded closed-loop trials.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauss-m5 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --workload all --tiny --seconds 1

One process runs one workload's trials one after another (a closed loop
with one client).  ``--workload all`` starts a fresh process per workload,
so each peak RSS belongs to one workload.  The package is imported from
``src/`` of the checkout; BLAS and OpenMP threads are pinned to the CPUs
this process may use.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
whose spans are also written to ``.bench_out/``.  Lines before it are a
human-readable report.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters timed for setup_s; the median is reported
SETUP_SPAWNS = 3
CHILD_TIMEOUT_S = 900

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "trial_p50_s": ("s", "lower"),
    "mean_accuracy": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
# printed in the report but kept out of the JSON, which carries only
# metrics that are never 0 on any workload
REPORT_ONLY = {
    "exact_recovery_frac": "frac",
    "mean_error": "frac",
    "failed_frac": "frac",
    "wall_trials_per_s": "1/s",
    "slow_trials": "count",
    "factorize_warnings": "count",
}


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def import_package():
    """Put the checkout's src/ first on the path and import ppmalign from it."""
    if not (SRC / "ppmalign" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'ppmalign'}; "
                         "run from the root of a ppmalign checkout")
    sys.path.insert(0, str(SRC))
    import ppmalign

    if SRC not in Path(ppmalign.__file__).resolve().parents:
        raise SystemExit(f"error: imported ppmalign from {ppmalign.__file__}, not {SRC}")
    return ppmalign


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {"nproc": NPROC, **{v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_numpy": blas(np), "openblas_scipy": blas(scipy)}


@dataclass
class Trial:
    cell: int
    pass_no: int
    tid: int
    traced: bool
    seconds: float = 0.0
    error: float | None = None  # checked error; None when the trial failed
    failure: str = ""
    warnings: int = 0


def run_one(wl, ci: int, pass_no: int, tracer=None) -> Trial:
    """One trial, timed and checked; an exception or a bad output is a failure."""
    from check import CheckError, trial_error

    tr = Trial(ci, pass_no, pass_no * len(wl.cells) + ci, tracer is not None)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = wl.run(wl.cells[ci], pass_no)
                tr.seconds = time.perf_counter() - t0
            else:
                with tracer.installed():
                    t0 = time.perf_counter()
                    with tracer.trial_span(tr.tid):
                        out = wl.run(wl.cells[ci], pass_no)
                    tr.seconds = time.perf_counter() - t0
        except Exception as exc:  # the run goes on; the trial counts as failed
            tr.failure = f"{type(exc).__name__}: {exc}"
            return tr
    tr.warnings = sum(issubclass(w.category, UserWarning) for w in caught)
    try:
        tr.error = trial_error(wl.family, wl.m, out)
    except CheckError as exc:
        tr.failure = f"check: {exc}"
    return tr


def run_passes(wl, seconds: float, tracer=None) -> list[Trial]:
    """Passes over every cell until the time is up.

    The first ``min_passes`` passes always run.  Another pass starts
    only if it is expected to end within half a pass of ``seconds``.  With
    a tracer every trial runs twice, untraced and then traced, so the
    tracing overhead is measured on the same instance.
    """
    trials: list[Trial] = []
    durations = []
    start = time.perf_counter()
    p = 0
    while True:
        t0 = time.perf_counter()
        for ci in range(len(wl.cells)):
            trials.append(run_one(wl, ci, p))
            if tracer is not None:
                trials.append(run_one(wl, ci, p, tracer))
        durations.append(time.perf_counter() - t0)
        p += 1
        if p < wl.min_passes:
            continue
        if time.perf_counter() - start + statistics.median(durations) / 2 > seconds:
            return trials


def end_to_end(wl, trials: list[Trial]) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced trials, plus report-only figures."""
    plain = [t for t in trials if not t.traced]
    cell_p50 = []
    for ci in range(len(wl.cells)):
        times = [t.seconds for t in plain if t.cell == ci and t.error is not None]
        if not times:
            raise SystemExit(f"error: every trial of cell {wl.cell_names[ci]} failed")
        cell_p50.append(statistics.median(times))
    scored = [t.error for t in plain if t.pass_no < wl.min_passes and t.error is not None]
    metrics = {
        # one trial of each cell at that cell's median time: robust to the
        # rare slow instance, which the report lists separately
        "trials_per_s": len(cell_p50) / sum(cell_p50),
        "trial_p50_s": statistics.median(cell_p50),
        "mean_accuracy": 1.0 - statistics.fmean(scored) if scored else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    timed = [t for t in plain if t.error is not None]
    extra = {
        "timed_trials": len(timed),
        "cell_p50_s": dict(zip(wl.cell_names, cell_p50)),
        "slow_trials": sum(t.seconds > 2 * cell_p50[t.cell] for t in timed),
        "wall_trials_per_s": len(timed) / sum(t.seconds for t in timed),
        "scored_trials": len(scored),
        "exact_recovery_frac": sum(e == 0.0 for e in scored) / len(scored) if scored else 0.0,
        "mean_error": statistics.fmean(scored) if scored else 0.0,
        "failed_frac": sum(t.error is None for t in trials) / len(trials),
        "factorize_warnings": sum(t.warnings for t in plain),
    }
    return metrics, extra


def measure_setup(name: str, seed: int, tiny: bool, spawns: int = SETUP_SPAWNS) -> float:
    """Median wall time of fresh interpreters that import ppmalign and build
    the workload config."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import ppmalign, workloads; "
            "workloads.make(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1')")
    args = [sys.executable, "-c", code, str(SRC), str(HERE), name, str(seed), str(int(tiny))]
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL)
        # a blocking wait returns when the child exits; waiting with a timeout
        # polls every 50 ms and would round the time up to that step
        guard = threading.Timer(120, proc.kill)
        guard.start()
        try:
            status = proc.wait()
        finally:
            guard.cancel()
        times.append(time.perf_counter() - t0)
        if status != 0:
            raise subprocess.CalledProcessError(status, args)
    return statistics.median(times)


def write_spans(tracer, name: str, seed: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, s in enumerate(tracer.spans):
            note = {k: v for k, v in s.note.items() if isinstance(v, (bool, int, float))}
            fh.write(json.dumps({"id": i, "name": s.name, "stage": s.stage, "parent": s.parent,
                                 "trial": s.trial, "start": s.t0, "end": s.t1,
                                 "alloc_peak_bytes": s.alloc_peak, "calls": s.calls,
                                 "warnings": s.warnings, **note}) + "\n")
    return path


def layer_metrics(wl, trials: list[Trial], tracer) -> tuple[dict, list]:
    from layers import aggregate

    traced = [t for t in trials if t.traced]
    plain = {t.tid: t for t in trials if not t.traced}
    pairs = [(t.seconds, plain[t.tid].seconds) for t in traced
             if t.error is not None and plain[t.tid].error is not None]
    overhead = (sum(a for a, _ in pairs) / sum(b for _, b in pairs) - 1.0) if pairs else float("nan")
    return aggregate(wl.family, tracer.spans,
                     timed_trials=[t.tid for t in traced],
                     counted_trials=[t.tid for t in traced if t.pass_no < wl.min_passes],
                     errors={t.tid: t.error for t in traced},
                     overhead=overhead, missing=tracer.missing)


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            wraps=None) -> dict:
    """Run one workload in this process and return everything it measured."""
    import workloads
    from layers import WRAPS
    from spans import Tracer

    wl = workloads.make(name, seed, tiny)
    tracer = Tracer(WRAPS[wl.family] if wraps is None else wraps) if trace else None
    trials = run_passes(wl, seconds, tracer)
    metrics, extra = end_to_end(wl, trials)
    res = {"workload": wl, "trials": trials, "end_to_end": metrics, "extra": extra}
    if trace:
        res["per_layer"], res["not_measured"] = layer_metrics(wl, trials, tracer)
        res["missing_wraps"] = [w.label for w in tracer.missing]
        res["tracer"] = tracer
    return res


def _print_metrics(metrics: dict, units: dict) -> None:
    for k, v in metrics.items():
        print(f"  {k:28s} {v:.6g} {units[k]}")


def run_single(args) -> int:
    from layers import METRICS

    env = environment()
    setup = None if args.trace else measure_setup(args.workload, args.seed, args.tiny)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    wl, trials, extra = res["workload"], res["trials"], res["extra"]
    failed = [t for t in trials if t.error is None]
    print(f"# workload {wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tiny={args.tiny}")
    print("# env " + json.dumps(env))
    print("# instance " + json.dumps(wl.params))
    for t in failed:
        print(f"# FAILED trial {t.tid} ({wl.cell_names[t.cell]}): {t.failure}")
    if args.trace:
        metrics = res["per_layer"]
        units = {k: METRICS[k][0] for k in metrics}
        if res["missing_wraps"]:
            print("# not measured: " + ", ".join(res["missing_wraps"]))
            print("# metrics left out: " + ", ".join(res["not_measured"]))
        print(f"# spans written to {write_spans(res['tracer'], wl.name, args.seed)}")
        print(f"per-layer metrics (traced trials: {sum(t.traced for t in trials)}):")
    else:
        metrics = {**res["end_to_end"], "setup_s": setup}
        units = {k: END_TO_END[k][0] for k in metrics}
        print(f"end-to-end metrics ({extra['timed_trials']} untraced trials timed, "
              f"{extra['scored_trials']} scored, {SETUP_SPAWNS} setup spawns):")
    _print_metrics(metrics, units)
    if not args.trace:
        print("report only:")
        _print_metrics({k: extra[k] for k in REPORT_ONLY}, REPORT_ONLY)
        for cell, v in extra["cell_p50_s"].items():
            print(f"  median trial time, {cell}: {v:.6g} s")
    print(json.dumps({"correct": not failed, "attempted": len(trials), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def run_all(args, names) -> int:
    """Each workload in a fresh process; one combined result line."""
    combined, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        combined.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="phase-m2, gauss-m5, sparse-1e4, match-m20 or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0, help="time to keep starting passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny instance sizes, for a self-test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    pin_threads()
    import_package()
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.NAMES)
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}")
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
