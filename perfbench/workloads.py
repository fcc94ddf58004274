"""The benchmark's four fixed workloads and how one trial of each runs.

A workload is a list of cells (fixed instance parameters) and a trial
function.  A pass runs one trial of every cell; pass k uses trial index k,
so every pass draws fresh instances and the same workload seed always
yields the same instances.  The package sees only the configs and seeds
derived here from the workload seed.

Trials call the package through the ``ppmalign`` namespace at call time, so
the tracer can wrap ``run_trial``, ``sample_match_observations`` and
``match_solve`` where this module resolves them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import ppmalign
from ppmalign import ExperimentConfig, ScalingPolicy, threshold_random_corruption

NAMES = ("phase-m2", "gauss-m5", "sparse-1e4", "match-m20")


@dataclass(frozen=True)
class TrialOutput:
    """What one trial returns: the estimate, the truth and the package's own
    error for it (final MCR or final mismatch rate)."""

    estimate: np.ndarray
    truth: np.ndarray
    reported_error: float


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "align" (cyclic labels) or "match" (permutations)
    m: int
    params: dict  # instance parameters, recorded beside the results
    cells: tuple  # one opaque argument per cell, passed to run
    cell_names: tuple
    run: Callable[[Any, int], TrialOutput]  # (cell, trial index) -> output
    min_passes: int  # passes that always run; quality and counts come from them


def _align_trial(cell, index: int) -> TrialOutput:
    cfg, n, param, cell_index = cell
    rep, truth = ppmalign.run_trial(cfg, n, param, cell_index, index)
    return TrialOutput(rep.estimate, truth, rep.final_mcr)


def _phase_m2(seed: int, tiny: bool) -> Workload:
    n = 60 if tiny else 500
    thr = threshold_random_corruption(n, 2, 1.0)
    pis = (1.5 * thr, 0.5 * thr)
    cells, names = [], []
    for label, pol in (("inf", ScalingPolicy.infinite()),
                       ("10/sigma2", ScalingPolicy.over_sigma2(10.0))):
        cfg = ExperimentConfig(n_grid=(n,), param_grid=pis, m=2, policy=pol, T=19,
                               seed=seed, early_stop=False)
        for ci, pi0 in enumerate(pis):
            cells.append((cfg, n, pi0, ci))
            names.append(f"mu={label},pi0={pi0:.4f}")
    params = {"model": "random_corruption", "n": n, "m": 2, "p_obs": 1.0,
              "form": "agreement", "pi0": list(pis), "mu": ["inf", "10/sigma2"],
              "T": 19, "early_stop": False, "init_iters": 200}
    return Workload("phase-m2", "align", 2, params, tuple(cells), tuple(names),
                    _align_trial, min_passes=2)


def _gauss_m5(seed: int, tiny: bool) -> Workload:
    n = 60 if tiny else 500
    sigmas = (1.4, 2.2)
    cfg = ExperimentConfig(model="modified_gaussian", n_grid=(n,), param_grid=sigmas,
                           m=5, form="loglik", policy=ScalingPolicy.over_sigma_m(20.0),
                           seed=seed, init_iters=60, early_stop=True)
    cells = tuple((cfg, n, s, ci) for ci, s in enumerate(sigmas))
    params = {"model": "modified_gaussian", "n": n, "m": 5, "p_obs": 1.0,
              "form": "loglik", "sigma": list(sigmas), "mu": "20/sigmam",
              "T": ppmalign.default_iterations(n), "early_stop": True, "init_iters": 60}
    return Workload("gauss-m5", "align", 5, params, cells,
                    tuple(f"sigma={s}" for s in sigmas), _align_trial, min_passes=2)


def _sparse_1e4(seed: int, tiny: bool) -> Workload:
    n = 300 if tiny else 10_000
    p_obs = 20.0 * math.log(n) / n
    pi0 = 1.5 * threshold_random_corruption(n, 2, p_obs)
    cfg = ExperimentConfig(n_grid=(n,), param_grid=(pi0,), m=2, p_obs=p_obs,
                           policy=ScalingPolicy.infinite(), T=28, seed=seed,
                           early_stop=False)
    params = {"model": "random_corruption", "n": n, "m": 2, "p_obs": p_obs,
              "form": "agreement", "pi0": pi0, "mu": "inf", "T": 28,
              "early_stop": False, "init_iters": 200}
    return Workload("sparse-1e4", "align", 2, params, ((cfg, n, pi0, 0),),
                    (f"pi0={pi0:.4f}",), _align_trial, min_passes=1)


def _match_m20(seed: int, tiny: bool) -> Workload:
    n, m, p_obs, corrupt, T = (12, 5, 0.5, 0.3, 10) if tiny else (100, 20, 0.3, 0.7, 50)

    def trial(cell, index: int) -> TrialOutput:
        s_obs, s_solve = (int(v) for v in
                          np.random.SeedSequence([seed, cell, index]).generate_state(2, np.uint64))
        obs, truth = ppmalign.sample_match_observations(n, m, corrupt, s_obs, p_obs=p_obs)
        rep = ppmalign.match_solve(obs, T, s_solve, truth=truth)
        return TrialOutput(rep.perms, truth, rep.final_mismatch)

    params = {"n": n, "m": m, "p_obs": p_obs, "corrupt_rate": corrupt, "T": T,
              "init_iters": 200}
    return Workload("match-m20", "match", m, params, (0,), (f"corrupt={corrupt}",),
                    trial, min_passes=8)


_MAKERS = {"phase-m2": _phase_m2, "gauss-m5": _gauss_m5,
           "sparse-1e4": _sparse_1e4, "match-m20": _match_m20}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Build a workload's config from its seed; tiny shrinks every size."""
    return _MAKERS[name](seed, tiny)
