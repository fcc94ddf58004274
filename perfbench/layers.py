"""Which package calls the traced run wraps, and the per-layer metrics.

Metrics are named by pipeline stage, not by module, because both problem
families run every stage through different modules (see README.md for the
map).  Every stage therefore does work on every workload and no time metric
is identically zero.

Times are seconds per traced trial, averaged over all traced trials.
Counts, allocation peaks and quality are taken over the traced trials of
the first ``min_passes`` passes, which are the same instances for a
given seed, so they repeat exactly.
"""

from __future__ import annotations

import math

import numpy as np

from spans import Wrap

MB = 1024.0 * 1024.0


def _edges(a, k, out):
    return {"edges": int(out.n_edges)}


def _match_edges(a, k, out):
    return {"edges": int(out[0].n_edges)}


def _cols(a, k, out):
    x = a[1] if len(a) > 1 else k["x"]
    return {"cols": int(np.shape(x)[1])}


def _matvec(a, k, out):
    return {"cols": 1, "matvec": 1}


def _factor(a, k, out):
    return {"iterations": int(out.iterations), "residual": float(out.residual),
            "converged": bool(out.converged)}


def _solve(a, k, out):
    z0 = a[1] if len(a) > 1 else k["z0"]
    return {"iterations": int(out.iterations_run),
            "labels": np.argmax(np.asarray(z0), axis=1)}


def _labels(a, k, out):
    return {"labels": np.argmax(out, axis=1)}


def _match_solve(a, k, out):
    obs = a[0] if a else k["obs"]
    return {"iterations": int(out.iterations_run), "n": int(obs.n)}


def _perm(a, k, out):
    return {"perm": out}


# (stage, owner the caller resolves through, attribute)
ALIGN_WRAPS = (
    Wrap("harness", "ppmalign", "run_trial"),
    Wrap("sample", "ppmalign.harness", "sample_observations", note=_edges, alloc=True),
    Wrap("build", "ppmalign.harness", "build", alloc=True),
    Wrap("factorize", "ppmalign.harness", "orthogonal_iteration", note=_factor,
         capture_warnings=True, alloc=True),
    Wrap("init", "ppmalign.harness", "initial_guess", alloc=True),
    Wrap("iterate", "ppmalign.harness", "solve", note=_solve, alloc=True),
    Wrap("operator", "ppmalign.blockmat.CirculantBlockMatrix", "matmat", note=_cols),
    Wrap("operator", "ppmalign.blockmat.CirculantBlockMatrix", "matvec", note=_matvec),
    Wrap("project", "ppmalign.solver", "project_blockwise", note=_labels),
    Wrap("project", "ppmalign.spectral", "project_blockwise"),
    Wrap("score", "ppmalign.solver", "mcr"),
)

MATCH_WRAPS = (
    Wrap("sample", "ppmalign", "sample_match_observations", note=_match_edges,
         alloc=True),
    # match_solve builds, factorizes, initializes and iterates; init and
    # iterate are the parts of it outside the build and factorize spans
    Wrap("iterate", "ppmalign", "match_solve", note=_match_solve),
    Wrap("build", "ppmalign.matching", "DenseBlockMatrix", alloc=True),
    Wrap("operator", "ppmalign.matching.DenseBlockMatrix", "matmat", note=_cols),
    Wrap("factorize", "ppmalign.matching", "orthogonal_iteration", note=_factor,
         capture_warnings=True, alloc=True),
    Wrap("project", "ppmalign.matching", "lap_project", note=_perm),
    Wrap("project", "ppmalign.matching", "linear_sum_assignment", kind="count"),
    Wrap("score", "ppmalign.matching", "mismatch_rate"),
)

WRAPS = {"align": ALIGN_WRAPS, "match": MATCH_WRAPS}

# name -> (unit, better); the order is the order of BENCHMARK.json
METRICS = {
    "trial.s": ("s", "lower"),
    "trial.stage_cover_frac": ("frac", "higher"),
    "trial.trace_overhead_frac": ("frac", "lower"),
    "trial.exact_recovery_frac": ("frac", "higher"),
    "trial.mean_error": ("frac", "lower"),
    "trial.failed_frac": ("frac", "lower"),
    "sample.s": ("s", "lower"),
    "sample.edges": ("count", "lower"),
    "sample.peak_mb": ("MB", "lower"),
    "build.s": ("s", "lower"),
    "build.peak_mb": ("MB", "lower"),
    "operator.s": ("s", "lower"),
    "operator.calls": ("count", "lower"),
    "operator.cols": ("count", "lower"),
    "operator.matvec_calls": ("count", "lower"),
    "factorize.s": ("s", "lower"),
    "factorize.self_s": ("s", "lower"),
    "factorize.iterations": ("count", "lower"),
    "factorize.residual_max": ("1", "lower"),
    "factorize.converged_frac": ("frac", "higher"),
    "factorize.warnings": ("count", "lower"),
    "factorize.peak_mb": ("MB", "lower"),
    "init.s": ("s", "lower"),
    "iterate.s": ("s", "lower"),
    "iterate.self_s": ("s", "lower"),
    "iterate.iterations": ("count", "lower"),
    "iterate.changed_frac": ("frac", "lower"),
    "project.s": ("s", "lower"),
    "project.calls": ("count", "lower"),
    "project.lsa_per_call": ("count", "lower"),
    "score.s": ("s", "lower"),
    "score.calls": ("count", "lower"),
}

# metrics derived from spans of other stages than their own
_NEEDS = {
    "factorize.self_s": ("operator",),
    "iterate.self_s": ("operator", "project", "score"),
    "iterate.changed_frac": ("project",),
}
# on the matching family init and iterate are cut out of match_solve by the
# build, factorize and operator spans
_MATCH_NEEDS = ("iterate", "build", "factorize", "operator")


def unmeasured(family: str, missing) -> list[str]:
    """Metrics that cannot be computed because a wrap is missing."""
    gone = {w.stage for w in missing}
    if not gone:
        return []
    out = []
    for name in METRICS:
        stage = name.split(".")[0]
        needs = {stage, *_NEEDS.get(name, ())}
        if family == "match" and stage in ("init", "iterate"):
            needs.update(_MATCH_NEEDS)
        # without every stage the cover fraction would overstate the gap
        if name == "trial.stage_cover_frac" or needs & gone:
            out.append(name)
    return out


def _children(spans):
    kids = {}
    for i, s in enumerate(spans):
        kids.setdefault(s.parent, []).append(i)
    return kids


def _self_time(spans, kids, i):
    return spans[i].dur - sum(spans[c].dur for c in kids.get(i, ()))


def _trial_facts(family: str, spans: list, root: int, kids: dict) -> dict:
    """Per-trial sums for one trial whose root span is ``root``."""
    sub = []
    todo = [root]
    while todo:
        i = todo.pop()
        sub.append(i)
        todo.extend(kids.get(i, ()))
    sub.sort()
    by_stage = {}
    for i in sub:
        by_stage.setdefault(spans[i].stage, []).append(i)

    def total(stage):
        return sum(spans[i].dur for i in by_stage.get(stage, ()))

    def peak(stage):
        return max((spans[i].alloc_peak for i in by_stage.get(stage, ())), default=0)

    f = {
        "trial.s": spans[root].dur,
        "sample.s": total("sample"),
        "sample.edges": sum(spans[i].note.get("edges", 0) for i in by_stage.get("sample", ())),
        "sample.peak_mb": peak("sample") / MB,
        "build.s": total("build"),
        "build.peak_mb": peak("build") / MB,
        "operator.s": total("operator"),
        "operator.calls": len(by_stage.get("operator", ())),
        "operator.cols": sum(spans[i].note.get("cols", 0) for i in by_stage.get("operator", ())),
        "operator.matvec_calls": sum(spans[i].note.get("matvec", 0)
                                     for i in by_stage.get("operator", ())),
        "factorize.s": total("factorize"),
        "factorize.self_s": sum(_self_time(spans, kids, i) for i in by_stage.get("factorize", ())),
        "factorize.iterations": sum(spans[i].note.get("iterations", 0)
                                    for i in by_stage.get("factorize", ())),
        "factorize.peak_mb": peak("factorize") / MB,
        "project.s": total("project"),
        "project.calls": len(by_stage.get("project", ())),
        "score.s": total("score"),
        "score.calls": len(by_stage.get("score", ())),
        "_residuals": [spans[i].note["residual"] for i in by_stage.get("factorize", ())],
        "_converged": [spans[i].note["converged"] for i in by_stage.get("factorize", ())],
        "_warnings": sum(spans[i].warnings for i in by_stage.get("factorize", ())),
        "_lsa": sum(spans[i].calls for i in by_stage.get("project", ())),
    }
    covered = 0.0
    for i in sub:
        if spans[i].stage not in ("trial", "harness"):
            covered += _self_time(spans, kids, i)
    f["_covered"] = covered

    if family == "align":
        f["init.s"] = total("init")
        solves = by_stage.get("iterate", ())
        f["iterate.s"] = total("iterate")
        f["iterate.self_s"] = sum(_self_time(spans, kids, i) for i in solves)
        iters = changed = 0
        for i in solves:
            iters += spans[i].note["iterations"]
            prev = spans[i].note["labels"]
            for c in kids.get(i, ()):
                if spans[c].stage == "project":
                    cur = spans[c].note["labels"]
                    changed += int(not np.array_equal(cur, prev))
                    prev = cur
        f["iterate.iterations"] = iters
        f["_changed"] = changed
        return f

    init = it = it_self = 0.0
    iters = changed = 0
    for i in by_stage.get("iterate", ()):
        s = spans[i]
        ch = kids.get(i, ())
        fac_end = max((spans[c].t1 for c in ch if spans[c].stage in ("build", "factorize")),
                      default=s.t0)
        after = [c for c in ch if spans[c].t0 >= fac_end]
        first_op = min((spans[c].t0 for c in after if spans[c].stage == "operator"),
                       default=s.t1)
        init += first_op - fac_end
        it += s.t1 - first_op
        it_self += (s.t1 - first_op) - sum(spans[c].dur for c in after if spans[c].t0 >= first_op)
        # lap_project results called directly by match_solve: n for the
        # start, then n per iteration
        n = s.note["n"]
        perms = [spans[c].note["perm"] for c in after if spans[c].name.endswith(".lap_project")]
        rounds = [np.stack(perms[r:r + n]) for r in range(0, len(perms), n)]
        iters += s.note["iterations"]
        changed += sum(int(not np.array_equal(a, b)) for a, b in zip(rounds, rounds[1:]))
    f["init.s"] = init
    f["iterate.s"] = it
    f["iterate.self_s"] = it_self
    f["iterate.iterations"] = iters
    f["_changed"] = changed
    return f


def aggregate(family: str, spans: list, timed_trials, counted_trials,
              errors: dict, overhead: float, missing) -> tuple[dict, list]:
    """Per-layer metrics from the spans of the traced trials.

    ``timed_trials`` are the trial ids averaged for times,
    ``counted_trials`` those used for counts, peaks and quality, and
    ``errors`` maps each traced trial id to its checked error (None when
    the trial failed).  Returns (metrics, names of unmeasured metrics).
    """
    errs = [errors[t] for t in counted_trials]
    ok = [e for e in errs if e is not None]
    out = {"trial.failed_frac": (len(errs) - len(ok)) / len(errs),
           "trial.exact_recovery_frac": float(np.mean([e == 0.0 for e in ok])) if ok else 0.0,
           "trial.mean_error": float(np.mean(ok)) if ok else 0.0}
    kids = _children(spans)
    roots = {s.trial: i for i, s in enumerate(spans) if s.stage == "trial"}
    # spans of a failed trial may lack their notes; only passing trials count
    facts = {t: _trial_facts(family, spans, roots[t], kids)
             for t in set(timed_trials) | set(counted_trials) if errors[t] is not None}
    timed = [facts[t] for t in timed_trials if t in facts]
    counted = [facts[t] for t in counted_trials if t in facts]
    if not timed or not counted:
        return out, [n for n in METRICS if n not in out]
    for name, (unit, _) in METRICS.items():
        if unit == "s":
            out[name] = float(np.mean([f[name] for f in timed]))
    for name in ("sample.edges", "operator.calls", "operator.cols", "operator.matvec_calls",
                 "factorize.iterations", "iterate.iterations", "project.calls", "score.calls"):
        out[name] = float(np.mean([f[name] for f in counted]))
    for name in ("sample.peak_mb", "build.peak_mb", "factorize.peak_mb"):
        out[name] = float(max(f[name] for f in counted))
    residuals = [r for f in counted for r in f["_residuals"]]
    converged = [c for f in counted for c in f["_converged"]]
    out["factorize.residual_max"] = float(max(residuals, default=0.0))
    out["factorize.converged_frac"] = float(np.mean(converged)) if converged else 0.0
    out["factorize.warnings"] = float(np.mean([f["_warnings"] for f in counted]))
    its = sum(f["iterate.iterations"] for f in counted)
    out["iterate.changed_frac"] = sum(f["_changed"] for f in counted) / its if its else 0.0
    calls = sum(f["project.calls"] for f in counted)
    out["project.lsa_per_call"] = (sum(f["_lsa"] for f in counted) / calls
                                   if family == "match" and calls else 0.0)
    out["trial.stage_cover_frac"] = float(np.mean([f["_covered"] / f["trial.s"] for f in timed]))
    out["trial.trace_overhead_frac"] = overhead

    dropped = unmeasured(family, missing)
    dropped += [n for n, v in out.items() if not math.isfinite(v) and n not in dropped]
    for n in dropped:
        out.pop(n, None)
    return {n: out[n] for n in METRICS if n in out}, dropped
