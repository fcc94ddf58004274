"""Independent output check for one trial.

The error is recomputed here from the returned estimate and the truth, with
no call into ppmalign, and compared with the error the package reports.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

# the package and this module count the same mismatches; allow only rounding
_TOL = 1e-12


class CheckError(Exception):
    """A trial's output is malformed or its reported error is wrong."""


def alignment_error(estimate, truth, m: int) -> float:
    """Share of items wrong under the best global cyclic shift of the labels."""
    est = np.asarray(estimate)
    tru = np.asarray(truth)
    if est.shape != tru.shape or est.ndim != 1 or est.size == 0:
        raise CheckError(f"estimate shape {est.shape} does not match truth {tru.shape}")
    if not np.issubdtype(est.dtype, np.integer):
        raise CheckError(f"labels have dtype {est.dtype}, expected integers")
    if est.min() < 1 or est.max() > m:
        raise CheckError(f"labels outside 1..{m}: range {est.min()}..{est.max()}")
    diff = (est - tru) % m
    # the best shift is the most common residue difference
    agree = np.bincount(diff, minlength=m).max()
    return 1.0 - float(agree) / est.size


def matching_error(perms, truth) -> float:
    """Share of (item, feature) pairs wrong under the best global relabeling."""
    p = np.asarray(perms)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 2 or p.size == 0:
        raise CheckError(f"perms shape {p.shape} does not match truth {t.shape}")
    n, m = p.shape
    if not np.array_equal(np.sort(p, axis=1), np.broadcast_to(np.arange(m), (n, m))):
        bad = int(np.flatnonzero(np.any(np.sort(p, axis=1) != np.arange(m), axis=1))[0])
        raise CheckError(f"row {bad} is not a permutation of 0..{m - 1}")
    counts = np.zeros((m, m))
    np.add.at(counts, (t.ravel(), p.ravel()), 1.0)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    return 1.0 - float(counts[rows, cols].sum()) / (n * m)


def trial_error(family: str, m: int, out) -> float:
    """Recompute the trial's error; raise CheckError if it is malformed or
    disagrees with the package's report."""
    if family == "align":
        err = alignment_error(out.estimate, out.truth, m)
    else:
        err = matching_error(out.estimate, out.truth)
    if abs(err - out.reported_error) > _TOL:
        raise CheckError(f"package reports error {out.reported_error!r}, "
                         f"the benchmark computes {err!r}")
    return err
