"""End-to-end acceptance suite.

Each criterion is one test that prints a single ``[acceptance N] PASS`` or
``FAIL`` line (run pytest with -s or -rA to see them) and asserts the same
condition.  Budgets are wall-clock seconds on a desk machine.
"""

import itertools
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import circulant_block, dense_expansion, operator_block
from ppmalign.blockmat import build
from ppmalign.harness import ExperimentConfig, iterations_to_recovery, run_trial, sweep_csv
from ppmalign.likelihood import (
    NoiseDistribution,
    random_corruption,
    sample_observations,
    threshold_random_corruption,
)
from ppmalign.matching import (
    input_mismatch_rate,
    lap_project,
    match_solve,
    sample_match_observations,
)
from ppmalign.simplex import project_rows, round_rows
from ppmalign.solver import ScalingPolicy, solve
from ppmalign.spectral import initial_guess, orthogonal_iteration


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def agreement_count(labels, obs) -> int:
    """Number of observed pairs consistent with the labels; the quadratic
    objective of the agreement matrix equals twice this count."""
    x = np.asarray(labels)
    return int(np.count_nonzero((x[obs.i] - x[obs.j]) % obs.m == obs.y))


def test_criterion_1_simplex_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for m in range(2, 65):
        k = 160
        v = 10.0 * rng.standard_normal((k, m))
        p = project_rows(v)
        # idempotence and feasibility
        np.testing.assert_allclose(project_rows(p), p, atol=1e-9)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert p.min() >= -1e-12
        # invariance under a per-row constant shift
        c = rng.standard_normal((k, 1))
        np.testing.assert_allclose(project_rows(v + c), p, atol=1e-9)
        # closest point: no random feasible candidate does better
        d_p = ((p - v) ** 2).sum(axis=1)
        for _ in range(16):
            w = rng.dirichlet(np.ones(m), size=k)
            d_w = ((w - v) ** 2).sum(axis=1)
            assert np.all(d_p <= d_w + 1e-9)
        # a large enough scaling collapses projection to vertex rounding
        top2 = np.partition(v, m - 2, axis=1)[:, m - 2:]
        gap = top2[:, 1] - top2[:, 0]
        safe = gap > 1e-6
        mu = 2.0 / np.where(safe, gap, 1.0)
        snapped = project_rows(v * mu[:, None])
        np.testing.assert_array_equal(np.argmax(snapped[safe], axis=1),
                                      np.argmax(v[safe], axis=1))
        np.testing.assert_allclose(snapped[safe], round_rows(v[safe]),
                                   atol=1e-12)
        checked += k
    elapsed = time.perf_counter() - t0
    ok = checked >= 10_000 and elapsed < 10.0
    report(1, ok, f"{checked} vectors, m in 2..64, {elapsed:.1f}s (budget 10s)")


def test_criterion_2_matvec_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    forms = ("agreement", "loglik", "debiased-loglik")
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(2, 33))
        p_obs = (0.2, 1.0)[case % 2]
        form = forms[case % 3]
        pmf = rng.dirichlet(np.ones(m))
        d = NoiseDistribution((pmf + 0.05) / (1.0 + 0.05 * m))
        x = rng.integers(1, m + 1, n)
        obs = sample_observations(x, d, p_obs, seed=int(rng.integers(2**32)))
        L = build(obs, None if form == "agreement" else d, form)
        dense = dense_expansion(obs, L.h)
        z = rng.standard_normal((n, m))
        got = L.matvec(z).ravel()
        want = dense @ z.ravel()
        err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        worst = max(worst, err)
        assert err <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(2, ok, f"200 instances, worst relative error {worst:.2e}, "
                  f"{elapsed:.1f}s (budget 30s)")


def test_criterion_3_tiny_instance_mle_equivalence():
    t0 = time.perf_counter()
    pol = ScalingPolicy.over_sigma2(10.0)
    rng = np.random.default_rng(2)
    wins = 0
    for _ in range(100):
        n = int(rng.integers(4, 8))
        m = int(rng.integers(2, 4))
        # stay inside the stated regime: above threshold, at least 0.8
        lo = max(0.8, threshold_random_corruption(n, m, 1.0))
        pi0 = float(rng.uniform(lo, 0.95))
        x = rng.integers(1, m + 1, n)
        s_obs, s_init, s_col = (int(rng.integers(2**32)) for _ in range(3))
        obs = sample_observations(x, random_corruption(pi0, m), 1.0, seed=s_obs)
        L = build(obs, None, "agreement")
        fac = orthogonal_iteration(L, r=max(m, 2), seed=s_init)
        z0 = initial_guess(L, fac, pol.resolve_mu(fac.S, m), seed=s_col)
        rep = solve(L, z0, pol, 20, sigmas=fac.S)
        best = max(agreement_count(np.array(a), obs)
                   for a in itertools.product(range(1, m + 1), repeat=n))
        wins += int(agreement_count(rep.estimate, obs) == best)
    elapsed = time.perf_counter() - t0
    ok = wins >= 95 and elapsed < 60.0
    report(3, ok, f"{wins}/100 trials matched the exhaustive optimum, "
                  f"{elapsed:.1f}s (budget 60s)")


@pytest.fixture(scope="module")
def phase_transition():
    """Criterion 4's trials, shared with criterion 6: 20 seeded runs per
    (policy, cell) at n=500, m=2, around the recovery threshold."""
    thr = threshold_random_corruption(500, 2, 1.0)
    t0 = time.perf_counter()
    out = {"thr": thr, "cells": {}}
    policies = (("mu=inf", ScalingPolicy.infinite()),
                ("mu=10/sigma2", ScalingPolicy.over_sigma2(10.0)))
    for pname, pol in policies:
        cfg = ExperimentConfig(n_grid=(500,), param_grid=(1.5 * thr, 0.5 * thr),
                               m=2, policy=pol, trials=20, seed=46)
        for cell, pi0 in enumerate(cfg.param_grid):
            reports = [run_trial(cfg, 500, pi0, cell, t)[0] for t in range(20)]
            out["cells"][(pname, ("hi", "lo")[cell])] = reports
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_4_phase_transition(phase_transition):
    parts = []
    ok = phase_transition["elapsed"] < 300.0
    for pname in ("mu=inf", "mu=10/sigma2"):
        hi = sum(r.final_mcr == 0.0 for r in phase_transition["cells"][(pname, "hi")])
        lo = sum(r.final_mcr == 0.0 for r in phase_transition["cells"][(pname, "lo")])
        ok = ok and hi >= 19 and lo <= 5
        parts.append(f"{pname}: hi {hi}/20, lo {lo}/20")
    report(4, ok, "; ".join(parts) + f"; threshold {phase_transition['thr']:.4f}, "
                  f"{phase_transition['elapsed']:.0f}s (budget 300s)")


def test_criterion_5_modified_gaussian_regime():
    t0 = time.perf_counter()
    grid = (1.0, 1.4, 1.8, 2.2, 2.6)
    cfg = ExperimentConfig(model="modified_gaussian", n_grid=(500,),
                           param_grid=grid, m=5,
                           policy=ScalingPolicy.over_sigma_m(20.0), trials=20,
                           seed=47, init_iters=60, early_stop=True)
    means, fracs = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for cell, sigma in enumerate(grid):
            finals = np.array([run_trial(cfg, 500, sigma, cell, t)[0].final_mcr
                               for t in range(20)])
            means.append(float(finals.mean()))
            fracs.append(float(np.mean(finals == 0.0)))
    elapsed = time.perf_counter() - t0
    recovers = [i for i, f in enumerate(fracs) if f >= 19 / 20]
    fails = [i for i, f in enumerate(fracs) if f <= 5 / 20]
    transition = bool(recovers) and bool(fails) and min(recovers) < max(fails)
    # one trial of twenty can move a cell mean by at most 1/20
    monotone = all(means[i + 1] >= means[i] - 0.05 for i in range(len(means) - 1))
    ok = transition and monotone and elapsed < 600.0
    detail = ", ".join(f"sigma={s}: {f:.2f} exact (mean mcr {mu:.3f})"
                       for s, f, mu in zip(grid, fracs, means))
    report(5, ok, detail + f"; {elapsed:.0f}s (budget 600s)")


def test_criterion_6_convergence_speed(phase_transition):
    parts = []
    ok = True
    for pname in ("mu=inf", "mu=10/sigma2"):
        reps = phase_transition["cells"][(pname, "hi")]
        med = float(np.median([iterations_to_recovery(r) for r in reps]))
        ok = ok and med <= 19
        parts.append(f"{pname}: median {med:g}")
    report(6, ok, "; ".join(parts) + " iterations to recovery (budget 19)")


def test_criterion_7_matching_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    cases = 0
    for case in range(1000):
        m = 2 + case % 5
        if case % 2 == 0:
            score = rng.integers(0, 4, (m, m)).astype(float)
        else:
            score = rng.standard_normal((m, m))
        best_val = None
        best_p = None
        for p in itertools.permutations(range(m)):
            val = sum(score[a, p[a]] for a in range(m))
            if best_val is None or val > best_val:
                best_val, best_p = val, p
        np.testing.assert_array_equal(lap_project(score), best_p)
        cases += 1

    improved = 0
    for seed in range(20):
        obs, truth = sample_match_observations(50, 10, 0.3, seed=seed)
        rep = match_solve(obs, T=50, seed=seed, truth=truth)
        improved += int(rep.final_mismatch < input_mismatch_rate(obs, truth))
    elapsed = time.perf_counter() - t0
    ok = cases == 1000 and improved >= 19 and elapsed < 120.0
    report(7, ok, f"{cases} assignment cases exact, {improved}/20 corrupted "
                  f"instances improved, {elapsed:.1f}s (budget 120s)")


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg = ExperimentConfig(n_grid=(40,), param_grid=(0.8, 0.3), m=2, trials=3,
                           T=5, seed=8)
    lib_ok = sweep_csv(cfg) == sweep_csv(cfg)

    argv = [sys.executable, "-m", "ppmalign.cli", "sweep", "--n", "30",
            "--pi0", "0.85,0.4", "--m", "2", "--trials", "2", "--iters", "4",
            "--seed", "8"]
    a = subprocess.run(argv, capture_output=True, text=True)
    b = subprocess.run(argv, capture_output=True, text=True)
    cli_ok = a.returncode == 0 and a.stdout == b.stdout and a.stdout != ""

    argv2 = [sys.executable, "-m", "ppmalign.cli", "align", "--n", "200",
             "--pi0", "0.5", "--m", "3", "--iters", "6", "--seed", "8",
             "--truth-echo"]
    c = subprocess.run(argv2, capture_output=True, text=True)
    d = subprocess.run(argv2, capture_output=True, text=True)
    align_ok = c.returncode == 0 and c.stdout == d.stdout

    ok = lib_ok and cli_ok and align_ok
    report(8, ok, f"library sweep identical: {lib_ok}, CLI sweep identical: "
                  f"{cli_ok}, CLI align identical: {align_ok}")


def test_criterion_9_debias_identities():
    rng = np.random.default_rng(909)
    blocks = 0
    worst_sum = 0.0
    worst_offset = 0.0
    for m in (3, 5, 8, 12, 16):
        pmf = rng.dirichlet(np.ones(m))
        d = NoiseDistribution((pmf + 0.02) / (1.0 + 0.02 * m))
        x = rng.integers(1, m + 1, 21)
        obs = sample_observations(x, d, 1.0, seed=int(rng.integers(2**32)))
        L_log = build(obs, d, "loglik")
        L_deb = build(obs, d, "debiased-loglik")
        mean_log = float(np.mean(np.log(d.p0)))
        for e in range(obs.n_edges):
            i, j = int(obs.i[e]), int(obs.j[e])
            col_l = circulant_block(obs, L_log.h, i, j)[:, 0]
            col_d = circulant_block(obs, L_deb.h, i, j)[:, 0]
            # entrywise block sum is m times the first-column sum
            worst_sum = max(worst_sum, abs(m * col_d.sum()))
            worst_offset = max(worst_offset,
                               float(np.max(np.abs(col_l - col_d - mean_log))))
            blocks += 1
        # spot check at the assembled-block level as well
        i, j = int(obs.i[0]), int(obs.j[0])
        diff = operator_block(L_log, i, j) - operator_block(L_deb, i, j)
        assert np.max(np.abs(diff - mean_log)) <= 1e-8
    ok = blocks >= 1000 and worst_sum <= 1e-8 and worst_offset <= 1e-8
    report(9, ok, f"{blocks} blocks, worst block sum {worst_sum:.2e}, "
                  f"worst offset deviation {worst_offset:.2e}")
