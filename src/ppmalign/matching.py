"""Joint matching of feature sets from noisy pairwise correspondences.

A variant of the alignment solver where each hidden state is a permutation
of m features instead of a cyclic shift: the truth is one permutation
matrix X_i per item, observations are noisy versions of X_i X_j^T, and the
projection step becomes a linear assignment per block.  Iterates are
stacked (nm, m) matrices; the estimate is defined up to one global
relabeling of features, mirroring the global cyclic shift of the alignment
problem.

Each block of an iterate is projected by one exact assignment solve, and
the solver's maximizer is taken as it comes: under ties any maximizer is a
valid projection.  ``lap_project`` breaks ties canonically, for callers
that need one answer per score.

Permutations are represented as 0-based index arrays p of length m, with
matrix form P[a, p[a]] = 1.

scipy loads late: ``scipy.sparse`` at the first ``DenseBlockMatrix`` and
``scipy.optimize``, with scipy's dense and sparse linear algebra and their
own BLAS, at the first assignment solve.  Only a run that needs them pays
for their import (README, Dependencies, gives the import times).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .likelihood import (_csv_records, _csv_text, _edge_list, _index_dtype, _int_array,
                         _observed_pairs)
from .solver import _power_loop
from .spectral import _WARM_START_TOL, orthogonal_iteration

_LAP_TOL = 1e-9


def linear_sum_assignment(score, maximize=False):
    """scipy's assignment solver, imported at its first call."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(score, maximize=maximize)


def lap_project(score) -> np.ndarray:
    """Permutation maximizing sum_a score[a, p[a]], exactly.

    Among all maximizers, returns the lexicographically smallest index
    array: one assignment solve gives the optimum's value, then rows are
    fixed in order, each taking the smallest column that still has an
    optimal completion, at O(m^2) sub-assignment solves in all.
    ``match_solve`` takes the solver's own maximizer instead; this
    canonical one is for callers that need a unique answer under ties.
    """
    score = np.asarray(score, dtype=float)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ValueError("score must be square")
    if not np.all(np.isfinite(score)):
        raise ValueError("score must be finite")
    rows, cols = linear_sum_assignment(score, maximize=True)
    best = float(score[rows, cols].sum())
    return _lex_first_assignment(score, best, _LAP_TOL * max(1.0, abs(best)))


def _lex_first_assignment(score, best: float, tol: float) -> np.ndarray:
    """Lexicographically smallest permutation within tol of best.

    Fixes rows in order, taking the smallest free column that still has a
    completion reaching best - tol.

    The completion that admitted a row's column is kept as a witness: its
    column for the next row is admitted without a new solve.  Re-checking
    it would sum the same total in another order, and a total within
    rounding of best - tol could then fail at the next row.
    """
    m = score.shape[0]
    free = np.ones(m, dtype=bool)
    out = np.empty(m, dtype=np.int64)
    witness = None  # witness[a:] completes the rows fixed so far
    acc = 0.0
    for a in range(m):
        for c in np.flatnonzero(free):
            if witness is not None and c == witness[a]:
                break
            if a + 1 < m:
                rest = free.copy()
                rest[c] = False
                sub = score[a + 1:, rest]
                r2, c2 = linear_sum_assignment(sub, maximize=True)
                completion = float(sub[r2, c2].sum())
            else:
                completion = 0.0
            if acc + score[a, c] + completion >= best - tol:
                if a + 1 < m:
                    witness = np.empty(m, dtype=np.int64)
                    witness[a + 1:] = np.flatnonzero(rest)[c2]
                break
        else:
            raise AssertionError("no feasible completion; inconsistent assignment state")
        out[a] = c
        acc += score[a, c]
        free[c] = False
    return out


@dataclass(frozen=True, eq=False)
class MatchObservations:
    """Noisy pairwise correspondence blocks on observed pairs, i > j.

    blocks[e] scores how strongly each feature of item ii[e] matches each
    feature of item jj[e]; the mirrored block is the transpose.  The pairs
    keep their order, with ii and jj in the index dtype of ``_edge_list``.
    """

    n: int
    m: int
    ii: np.ndarray
    jj: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        ii, jj, _ = _edge_list(self.n, self.m, self.ii, self.jj)
        try:
            blocks = np.asarray(self.blocks, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("blocks must be a numeric (n_edges, m, m) array") from None
        if blocks.shape != (ii.size, self.m, self.m):
            raise ValueError("blocks must be (n_edges, m, m)")
        # the eigensolver squares norms up to max|b| n m; divide, as that product may overflow
        limit = np.sqrt(np.finfo(float).max) / (self.n * self.m)
        if blocks.size and not -limit <= blocks.min() <= blocks.max() <= limit:
            raise ValueError(f"block entries must be finite and at most {limit:.3g} in magnitude")
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_edges(self) -> int:
        return self.ii.size

    def to_csv(self) -> str:
        return _csv_text("i,j,row,col,value", (
            (self.ii[e], self.jj[e], a, b, f"{self.blocks[e, a, b]:.17g}")
            for e in range(self.n_edges) for a in range(self.m) for b in range(self.m)))

    @classmethod
    def from_csv(cls, text: str, n: int, m: int):
        """Load blocks written by ``to_csv``; every block needs all m^2 entries.

        Raises ValueError on a malformed line, an item index outside
        0..n-1, a feature index outside 0..m-1, a repeated (i, j, row, col)
        record or an incomplete block.
        """
        records = _csv_records(text, "i,j,row,col,value", (int, int, int, int, float))
        _index_dtype(n, m)  # checks n and m before i n + j can overflow
        if not records:
            raise ValueError("no blocks found")
        if not all(0 <= i < n and 0 <= j < n and 0 <= a < m and 0 <= b < m
                   for i, j, a, b, _ in records):
            raise ValueError(f"indices must lie in 0..{n - 1} (items) "
                             f"and 0..{m - 1} (features)")
        i, j, a, b = np.array([r[:4] for r in records], dtype=np.int64).T
        pairs, which = np.unique(i * n + j, return_inverse=True)
        slot = (which * m + a) * m + b
        if np.unique(slot).size != slot.size:
            raise ValueError("duplicate (i, j, row, col) record")
        if slot.size != pairs.size * m * m:
            raise ValueError(f"every observed pair needs all {m * m} block entries")
        blocks = np.empty(slot.size)
        blocks[slot] = [r[4] for r in records]
        return cls(n=n, m=m, ii=pairs // n, jj=pairs % n,
                   blocks=blocks.reshape(pairs.size, m, m))


class DenseBlockMatrix:
    """Symmetric operator of dense m x m blocks, zero diagonal.

    Stored as one (nm, nm) CSR matrix of the nonzero block entries and
    their mirrors, so a product costs O(nnz r) whatever the block pattern.
    """

    def __init__(self, obs: MatchObservations):
        import scipy.sparse as sp

        self.n = obs.n
        self.m = obs.m
        flat = np.flatnonzero(obs.blocks)
        e, ab = np.divmod(flat, self.m * self.m)
        a, b = np.divmod(ab, self.m)
        vals = obs.blocks.ravel()[flat]
        rows = obs.ii[e] * self.m + a
        cols = obs.jj[e] * self.m + b
        del flat, e, ab, a, b  # before the conversion's peak
        nm = self.n * self.m
        # the pairs lie below the block diagonal, their mirrors above: no sum overlaps
        lower = sp.csr_matrix((vals, (rows, cols)), shape=(nm, nm))
        self._a = lower + lower.T

    @property
    def shape(self):
        return (self.n * self.m, self.n * self.m)

    def matmat(self, x):
        x = np.asarray(x, dtype=float)
        nm = self.n * self.m
        if x.ndim != 2 or x.shape[0] != nm:
            raise ValueError(f"expected shape ({nm}, r)")
        return self._a @ x


def sample_match_observations(n: int, m: int, corrupt_rate: float, seed: int,
                              p_obs: float = 1.0):
    """Synthetic matching instance: truth perms and corrupted pairwise blocks.

    Each observed pair carries the exact consistency block X_i X_j^T, or an
    independent uniformly random permutation matrix with probability
    corrupt_rate.

    Pairs are drawn as in ``sample_observations``, in O(n + E) time and
    memory for E observed pairs.

    Returns (MatchObservations, truth) where truth is an (n, m) array of
    permutation index arrays.
    """
    if not 0 <= corrupt_rate <= 1:
        raise ValueError(f"corrupt_rate must lie in [0, 1], got {corrupt_rate}")
    if n < 2 or m < 1:
        raise ValueError("need at least two items and m >= 1 features")
    dtype = _index_dtype(n, m)
    rng = np.random.default_rng(seed)
    truth = rng.permuted(np.tile(np.arange(m), (n, 1)), axis=1)
    a, b = _observed_pairs(n, p_obs, rng, dtype)
    cols = _consistent_cols(truth, b, a)
    bad = rng.random(a.size) < corrupt_rate
    cols[bad] = rng.permuted(np.tile(np.arange(m), (int(bad.sum()), 1)), axis=1)
    blocks = np.zeros((a.size, m, m))
    np.put_along_axis(blocks, cols[:, :, None], 1.0, axis=2)
    return MatchObservations(n=n, m=m, ii=b, jj=a, blocks=blocks), truth


def _consistent_cols(truth, ii, jj) -> np.ndarray:
    """Column of the 1 in each row of X_i X_j^T, for every pair (ii, jj).

    Row r of X_i X_j^T has its 1 where truth[j] takes the value truth[i][r].
    """
    inverse = np.argsort(truth, axis=1)
    return np.take_along_axis(inverse[jj], truth[ii], axis=1)


def mismatch_rate(perms, truth) -> float:
    """Fraction of wrongly assigned (item, feature) pairs modulo one global
    relabeling of features, chosen by a final assignment on match counts;
    0 when there is no pair to assign.  Raises ValueError on a feature
    outside 0..m-1."""
    perms = _int_array(perms, "perms", 2, 0)
    truth = _int_array(truth, "truth", 2, 0)
    if perms.shape != truth.shape:
        raise ValueError("perms and truth must both be (n, m)")
    n, m = perms.shape
    if n * m == 0:
        return 0.0
    counts = np.bincount(truth.ravel() * m + perms.ravel(), minlength=m * m).reshape(m, m)
    rows, g = linear_sum_assignment(counts, maximize=True)
    matched = counts[rows, g].sum()
    return 1.0 - float(matched) / (n * m)


def input_mismatch_rate(obs: MatchObservations, truth) -> float:
    """Row-assignment error of the raw blocks against the consistent ones.

    Each block row's argmax is read as the input's proposed feature match;
    intended for permutation-valued inputs such as the synthetic corrupted
    instances.  Raises ValueError when no pair is observed, or unless truth
    holds one permutation of 0..m-1 per item, as its inverse assumes.
    """
    if obs.n_edges == 0:
        raise ValueError("no observed pairs to compare")
    truth = _int_array(truth, "truth", 2, 0, obs.m - 1)
    if truth.shape != (obs.n, obs.m) or not np.all(np.sort(truth, axis=1) == np.arange(obs.m)):
        raise ValueError(f"truth must be {obs.n} permutations of 0..{obs.m - 1}")
    ref = _consistent_cols(truth, obs.ii, obs.jj)
    wrong = int(np.count_nonzero(np.argmax(obs.blocks, axis=2) != ref))
    return wrong / (obs.n_edges * obs.m)


@dataclass(frozen=True, eq=False)
class MatchReport:
    """Outcome of one matching run."""

    perms: np.ndarray
    iterations_run: int
    converged: bool
    mismatch_trace: np.ndarray | None

    @property
    def final_mismatch(self) -> float:
        if self.mismatch_trace is None:
            raise ValueError("run had no ground truth; no mismatch trace")
        return float(self.mismatch_trace[-1])

    def estimates_csv(self) -> str:
        n, m = self.perms.shape
        return _csv_text("i,feature,assigned",
                         ((i, a, self.perms[i, a]) for i in range(n) for a in range(m)))


def _maximizers(blocks) -> np.ndarray:
    """The solver's maximizing permutation of every (m, m) block, stacked (n, m)."""
    return np.stack([linear_sum_assignment(b, maximize=True)[1] for b in blocks])


def match_solve(obs: MatchObservations, T: int, seed: int, truth=None) -> MatchReport:
    """Power iterations with per-block assignment rounding.

    Starts from assignments read off a random column block of the rank-m
    approximation of the stacked observation matrix, then repeats

        Z_i <- assignment maximizing <(L Z)_i, P>  over permutations P

    until the assignments stop changing or the budget runs out.  Each block
    is rounded by one assignment solve, taking the solver's maximizer as it
    comes, with no tie-break.  The loop is the one ``solve`` runs: once the
    assignments alternate between two states, products stop while the
    report still covers all T iterations.
    """
    n, m = obs.n, obs.m
    truth_arr = None if truth is None else _int_array(truth, "truth", 2, 0, m - 1)
    op = DenseBlockMatrix(obs)
    rng = np.random.default_rng(seed)
    fac = orthogonal_iteration(op, r=m, tol=_WARM_START_TOL, seed=int(rng.integers(2**63)))
    c = int(rng.integers(0, n))
    perms = _maximizers(fac.columns(slice(c * m, (c + 1) * m)).reshape(n, m, m))
    rows, feats = np.arange(n)[:, None], np.arange(m)[None, :]

    def step(cur):
        z = np.zeros((n, m, m))
        z[rows, feats, cur] = 1.0
        return _maximizers(op.matmat(z.reshape(n * m, m)).reshape(n, m, m))

    score = None if truth_arr is None else (lambda p: mismatch_rate(p, truth_arr))
    perms, trace, ran, met = _power_loop(perms, step, 0.0, T, True, score)
    return MatchReport(
        perms=perms,
        iterations_run=ran,
        converged=met,
        mismatch_trace=None if trace is None else np.asarray(trace),
    )
