"""
Recovery under discretized Gaussian noise
==========================================
The modified Gaussian model adds a discretized, truncated Gaussian offset to
every observed difference; the noise width sigma tunes difficulty smoothly.
Recovery is governed by the minimum KL divergence between the noise law and
its cyclic shifts: exact recovery needs KL_min above roughly 4 log n / n on
the complete graph.  This script sweeps sigma, prints KL_min next to that
threshold, and shows the method's exact-recovery fraction tracking the
information boundary.

The solver here iterates on the log-likelihood matrix with the finite
scaling mu = 20 / sigma_m(L), the configuration suited to this model.

Features:
- KL_min per sigma computed from the noise law, no simulation needed
- seeded Monte Carlo sweep via the experiment harness
- side-by-side comparison of information-theoretic and empirical regimes

Usage:
    python3 demos/gaussian_noise_regimes.py [--n 300] [--trials 6]
"""

import argparse

from ppmalign import (
    ExperimentConfig,
    ScalingPolicy,
    kl_min_max,
    modified_gaussian,
    run_sweep,
    threshold_kl,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=300)
    ap.add_argument("--trials", type=int, default=6)
    args = ap.parse_args()

    m = 5
    kl_need, _ = threshold_kl(args.n, 1.0)
    print(f"n = {args.n}, m = {m}, complete graph")
    print(f"KL threshold for exact recovery: {kl_need:.4f}\n")

    grid = (1.0, 1.4, 1.8, 2.2, 2.6)
    cfg = ExperimentConfig(
        model="modified_gaussian", n_grid=(args.n,), param_grid=grid, m=m,
        policy=ScalingPolicy.over_sigma_m(20.0), trials=args.trials, seed=2,
        init_iters=60, early_stop=True,
    )
    rows = run_sweep(cfg)

    print(f"{'sigma':>6} {'KL_min':>8} {'KL/thr':>7} {'exact':>6} {'mean MCR':>9}")
    for sigma, r in zip(grid, rows):
        kmin, _ = kl_min_max(modified_gaussian(sigma, m))
        print(f"{sigma:>6.1f} {kmin:>8.4f} {kmin / kl_need:>7.2f} "
              f"{r['exact_recovery_frac']:>6.2f} {r['mean_mcr']:>9.4f}")
    print("\nrecovery degrades where KL_min drops through the threshold; far "
          "below it\nthe observations no longer identify the labels at all")


if __name__ == "__main__":
    main()
