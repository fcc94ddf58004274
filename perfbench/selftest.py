"""Fast self-test of the benchmark, at tiny instance sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, the untraced run must emit every end-to-end metric of
BENCHMARK.json with its unit and pass the output check, and the traced run
must emit every per-layer metric with its unit.  A wrapped function that
is missing must leave its layer reported as not measured while the other
metrics are still computed, and the output check must reject malformed or
misreported results.  Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import run

SEED = 5
SECONDS = "0.5"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_cli(spec: dict, names) -> None:
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(run.__file__).resolve()), "--workload", name,
                   "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
            what = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what}: exit status {proc.returncode}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{what}: {res['attempted']} trials, {res['failed']} failed the output check")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{what}: emits every {key} metric with its unit"
                   + ("" if got == want else f" (missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, units {got})"))
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in res["metrics"].values()), f"{what}: every value is a finite number")


def check_missing_wrap() -> None:
    from layers import WRAPS, METRICS

    cases = (("phase-m2", "align", "orthogonal_iteration", "factorize"),
             ("match-m20", "match", "lap_project", "project"))
    for name, family, attr, stage in cases:
        wraps = [dataclasses.replace(w, attr=w.attr + "_renamed") if w.attr == attr else w
                 for w in WRAPS[family]]
        res = run.measure(name, SEED, float(SECONDS), trace=True, tiny=True, wraps=wraps)
        layer = res["per_layer"]
        expect(any(lbl.endswith(attr + "_renamed") for lbl in res["missing_wraps"]),
               f"{name}: renamed {attr} is reported as not measured")
        expect(not any(k.startswith(stage + ".") for k in layer),
               f"{name}: no {stage}.* metric is reported")
        expect("sample.s" in layer and "trial.s" in layer,
               f"{name}: the other layers are still measured")
        e2e = res["end_to_end"]
        expect(set(e2e) == set(run.END_TO_END) - {"setup_s"}
               and all(math.isfinite(v) and v > 0 for v in e2e.values()),
               f"{name}: end-to-end metrics still run ({sorted(e2e)})")
        expect(all(t.error is not None for t in res["trials"]),
               f"{name}: every trial passes the output check")
        expect(set(layer) | set(res["not_measured"]) == set(METRICS),
               f"{name}: every per-layer metric is either reported or listed as not measured")


def check_output_check() -> None:
    import numpy as np

    from check import CheckError, trial_error
    from workloads import TrialOutput

    truth = np.array([1, 2, 3, 1])
    perms = np.array([[0, 1, 2], [2, 0, 1]])
    cases = (
        ("align", 3, TrialOutput(np.array([2, 3, 1, 2]), truth, 0.0), None),
        ("align", 3, TrialOutput(np.array([2, 3, 1, 3]), truth, 0.25), None),
        ("align", 3, TrialOutput(np.array([2, 3, 1, 3]), truth, 0.0), "misreported error"),
        ("align", 3, TrialOutput(np.array([0, 3, 1, 2]), truth, 0.0), "label 0"),
        ("align", 3, TrialOutput(np.array([2, 3, 1]), truth, 0.0), "short estimate"),
        ("match", 3, TrialOutput(perms[:, [1, 2, 0]], perms, 0.0), None),
        ("match", 3, TrialOutput(np.array([[0, 0, 2], [2, 0, 1]]), perms, 0.0),
         "row that is not a permutation"),
        ("match", 3, TrialOutput(np.array([[0, 1, 2], [2, 1, 0]]), perms, 0.0),
         "misreported mismatch"),
    )
    for family, m, out, bad in cases:
        try:
            trial_error(family, m, out)
            rejected = False
        except CheckError:
            rejected = True
        expect(rejected == (bad is not None),
               f"output check {'rejects ' + bad if bad else 'accepts a correct ' + family + ' result'}")


def main() -> int:
    run.pin_threads()
    run.import_package()
    import workloads

    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    check_output_check()
    check_cli(spec, workloads.NAMES)
    check_missing_wrap()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
