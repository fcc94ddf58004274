"""Joint matching of feature sets from noisy pairwise correspondences.

A variant of the alignment solver where each hidden state is a permutation
of m features instead of a cyclic shift: the truth is one permutation
matrix X_i per item, observations are noisy versions of X_i X_j^T, and the
projection step becomes a linear assignment per block.  Iterates are
stacked (nm, m) matrices; the estimate is defined up to one global
relabeling of features, mirroring the global cyclic shift of the alignment
problem.

Permutations are represented as 0-based index arrays p of length m, with
matrix form P[a, p[a]] = 1.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linear_sum_assignment

from .likelihood import _csv_records, _edge_list, _observed_pairs
from .solver import _power_loop
from .spectral import _WARM_START_TOL, orthogonal_iteration

_LAP_TOL = 1e-9


def lap_project(score) -> np.ndarray:
    """Permutation maximizing sum_a score[a, p[a]], exactly.

    Among all maximizers, returns the lexicographically smallest index
    array, fixing rows in order and preferring smaller columns whenever an
    optimal completion still exists.

    One assignment solve settles the common case: when dual prices show
    every other permutation worse by more than the tie tolerance, that
    solve is the answer.  Otherwise rows are fixed greedily, with one
    sub-assignment per candidate column the prices cannot rule out, up to
    the column the last admitted completion already uses.
    """
    score = np.asarray(score, dtype=float)
    m = score.shape[0]
    if score.ndim != 2 or score.shape != (m, m):
        raise ValueError("score must be square")
    if not np.all(np.isfinite(score)):
        raise ValueError("score must be finite")
    rows, cols = linear_sum_assignment(score, maximize=True)
    best = float(score[rows, cols].sum())
    tol = _LAP_TOL * max(1.0, abs(best))
    # bound on the rounding in the sums below and in the tie-break's own
    slack = 8.0 * m * m * np.finfo(float).eps * float(np.abs(score).max())
    duals = _dual_prices(score, cols, slack)
    if (duals is not None and (m + 2) * slack < tol
            and _sole_near_optimum(score, cols, duals, 2.0 * tol + slack)):
        return cols.astype(np.int64)
    return _lex_first_assignment(score, best, tol, duals, margin=4.0 * m * slack)


def _dual_prices(score, sigma, slack: float):
    """Prices (u, v) with u[r] + v[c] >= score[r, c] - slack, tight on sigma.

    Any other permutation moves the rows of sigma along disjoint cycles
    over columns; moving row(c) from column c to c' loses
    W[c, c'] = score[row(c), c] - score[row(c), c'].  Bellman-Ford
    potentials d of that graph give v = -d and u = score[r, sigma[r]] +
    d[sigma[r]].  Returns None when the potentials do not settle within m
    sweeps or the prices are infeasible beyond slack, which both mean
    sigma is optimal only up to rounding.
    """
    m = sigma.size
    own = score[np.arange(m), sigma]
    w = np.empty((m, m))
    w[sigma] = own[:, None] - score
    d = np.zeros(m)
    for _ in range(m):
        nxt = np.minimum(d, (d[:, None] + w).min(axis=0))
        if np.array_equal(nxt, d):
            break
        d = nxt
    else:
        return None
    u = own + d[sigma]
    v = -d
    if (u[:, None] + v[None, :] - score).min() < -slack:
        return None
    return u, v


def _sole_near_optimum(score, sigma, duals, thr: float) -> bool:
    """Whether every permutation other than sigma loses more than thr.

    A cycle's loss is the sum of the reduced costs u[r] + v[c] - score[r, c]
    along it, all of them nonnegative up to rounding.  If the reduced costs
    at most thr form an acyclic graph over columns, every cycle crosses a
    costlier edge.
    """
    u, v = duals
    m = sigma.size
    near = np.empty((m, m), dtype=bool)
    near[sigma] = u[:, None] + v[None, :] - score <= thr  # edge sigma[r] -> c
    np.fill_diagonal(near, False)
    # Kahn peeling: acyclic iff repeatedly dropping the columns no
    # remaining edge enters empties the graph
    alive = np.ones(m, dtype=bool)
    while alive.any():
        sources = alive & ~near[alive].any(axis=0)
        if not sources.any():
            return False
        alive &= ~sources
    return True


def _lex_first_assignment(score, best: float, tol: float, duals=None,
                          margin: float = 0.0) -> np.ndarray:
    """Lexicographically smallest permutation within tol of best.

    Fixes rows in order, taking the smallest free column that still has a
    completion reaching best - tol.  With dual prices (u, v), a candidate
    whose completions are all bounded by the prices (weak duality) to fall
    short by more than margin is skipped without solving it.

    The completion that admitted a row's column is kept as a witness: its
    column for the next row is admitted without a new solve.  Re-checking
    it would sum the same total in another order, and a total within
    rounding of best - tol could then fail at the next row.
    """
    m = score.shape[0]
    if duals is not None:
        u, v = duals
        u_after = np.append(np.cumsum(u[::-1])[::-1][1:], 0.0)  # sum of u[a+1:]
    free = np.ones(m, dtype=bool)
    out = np.empty(m, dtype=np.int64)
    witness = None  # witness[a:] completes the rows fixed so far
    acc = 0.0
    for a in range(m):
        if duals is not None:
            cap = best - tol - margin - acc - u_after[a] - v[free].sum()
        for c in np.flatnonzero(free):
            if witness is not None and c == witness[a]:
                break
            if duals is not None and score[a, c] - v[c] < cap:
                continue
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
    feature of item jj[e]; the mirrored block is the transpose.
    """

    n: int
    m: int
    ii: np.ndarray
    jj: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("need n >= 1 items and m >= 1 features")
        ii, jj = _edge_list(self.n, self.ii, self.jj)
        try:
            blocks = np.asarray(self.blocks, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("blocks must be a numeric (n_edges, m, m) array") from None
        if blocks.shape != (ii.size, self.m, self.m):
            raise ValueError("blocks must be (n_edges, m, m)")
        if not np.all(np.isfinite(blocks)):
            raise ValueError("block entries must be finite")
        object.__setattr__(self, "ii", ii)
        object.__setattr__(self, "jj", jj)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_edges(self) -> int:
        return self.ii.size

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("i,j,row,col,value\n")
        for e in range(self.n_edges):
            for a in range(self.m):
                for b in range(self.m):
                    buf.write(
                        f"{self.ii[e]},{self.jj[e]},{a},{b},{self.blocks[e, a, b]:.17g}\n"
                    )
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, n: int, m: int):
        """Load blocks written by ``to_csv``; every block needs all m^2 entries.

        Raises ValueError on a malformed line, an item index outside
        0..n-1, a feature index outside 0..m-1, a repeated (i, j, row, col)
        record or an incomplete block.
        """
        records = _csv_records(text, "i,j,row,col,value", (int, int, int, int, float))
        if n < 1 or m < 1:
            raise ValueError("need n >= 1 items and m >= 1 features")
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
        self.n = obs.n
        self.m = obs.m
        e, a, b = np.nonzero(obs.blocks)
        vals = obs.blocks[e, a, b]
        rows = obs.ii[e] * self.m + a
        cols = obs.jj[e] * self.m + b
        nm = self.n * self.m
        self._a = sp.csr_matrix(
            (np.concatenate([vals, vals]),
             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(nm, nm))

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
    if not 0 <= corrupt_rate <= 1 or not 0 < p_obs <= 1:
        raise ValueError("rates must lie in [0, 1] (p_obs in (0, 1])")
    if n < 2 or m < 1:
        raise ValueError("need at least two items and m >= 1 features")
    rng = np.random.default_rng(seed)
    truth = rng.permuted(np.tile(np.arange(m), (n, 1)), axis=1)
    a, b = _observed_pairs(n, p_obs, rng)
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
    relabeling of features, chosen by a final assignment on match counts."""
    perms = np.asarray(perms, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if perms.shape != truth.shape or perms.ndim != 2:
        raise ValueError("perms and truth must both be (n, m)")
    n, m = perms.shape
    counts = np.bincount(truth.ravel() * m + perms.ravel(), minlength=m * m).reshape(m, m)
    g = lap_project(counts)
    matched = counts[np.arange(m), g].sum()
    return 1.0 - float(matched) / (n * m)


def input_mismatch_rate(obs: MatchObservations, truth) -> float:
    """Row-assignment error of the raw blocks against the consistent ones.

    Each block row's argmax is read as the input's proposed feature match;
    intended for permutation-valued inputs such as the synthetic corrupted
    instances.  Raises ValueError when no pair is observed.
    """
    if obs.n_edges == 0:
        raise ValueError("no observed pairs to compare")
    ref = _consistent_cols(np.asarray(truth, dtype=np.int64), obs.ii, obs.jj)
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
        buf = io.StringIO()
        buf.write("i,feature,assigned\n")
        n, m = self.perms.shape
        for i in range(n):
            for a in range(m):
                buf.write(f"{i},{a},{self.perms[i, a]}\n")
        return buf.getvalue()


def _assign(blocks) -> np.ndarray:
    """The best permutation of every (m, m) score block, stacked (n, m)."""
    return np.stack([lap_project(b) for b in blocks])


def match_solve(obs: MatchObservations, T: int, seed: int, truth=None) -> MatchReport:
    """Power iterations with per-block assignment rounding.

    Starts from assignments read off a random column block of the rank-m
    approximation of the stacked observation matrix, then repeats

        Z_i <- assignment maximizing <(L Z)_i, P>  over permutations P

    until the assignments stop changing or the budget runs out.  The loop
    is the one ``solve`` runs: once the assignments alternate between two
    states, products stop while the report still covers all T iterations.
    """
    if T < 0:
        raise ValueError("iteration budget must be nonnegative")
    n, m = obs.n, obs.m
    op = DenseBlockMatrix(obs)
    rng = np.random.default_rng(seed)
    fac = orthogonal_iteration(op, r=m, tol=_WARM_START_TOL, seed=int(rng.integers(2**63)))
    c = int(rng.integers(0, n))
    col_block = (fac.U * fac.S) @ fac.V[c * m:(c + 1) * m, :].T  # (nm, m)
    perms = _assign(col_block.reshape(n, m, m))
    rows, feats = np.arange(n)[:, None], np.arange(m)[None, :]

    def step(cur):
        z = np.zeros((n, m, m))
        z[rows, feats, cur] = 1.0
        return _assign(op.matmat(z.reshape(n * m, m)).reshape(n, m, m))

    truth_arr = None if truth is None else np.asarray(truth, dtype=np.int64)
    score = None if truth_arr is None else (lambda p: mismatch_rate(p, truth_arr))
    perms, trace, ran, met = _power_loop(perms, step, np.array_equal, T, True, score)
    return MatchReport(
        perms=perms,
        iterations_run=ran,
        converged=met,
        mismatch_trace=None if trace is None else np.asarray(trace),
    )
