"""Shared oracles for the test suite.

The dense expansion below is deliberately independent of the package's
operator: it reads only the observations and the generator, blocks are
materialized with scipy's circulant constructor and placed entry by entry,
so agreement between the two paths is meaningful.
"""

import math
import os
import warnings

import numpy as np
import scipy.linalg as sla
from hypothesis import settings

# a failing property test makes hypothesis write a failure patch with
# libcst, whose import warns through mypy_extensions; under -W error that
# warning would end the whole run with INTERNALERROR, so import it once here
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# HYPOTHESIS_PROFILE=stress runs the property tests at 2000 examples: those
# that fix no example count of their own, and those whose count is examples(n)
settings.register_profile("stress", max_examples=2000)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def examples(n: int) -> int:
    """A property test's own example count n, or the stress profile's."""
    return settings.get_profile(PROFILE).max_examples if PROFILE == "stress" else n


def dense_expansion(obs, h) -> np.ndarray:
    """Dense (nm, nm) circulant-block matrix of observations and a generator,
    built edge by edge: block (i, j) has entries h((y - a + b) mod m)."""
    m = obs.m
    out = np.zeros((obs.n * m, obs.n * m))
    for e in range(obs.n_edges):
        i, j = int(obs.i[e]), int(obs.j[e])
        blk = _circulant(h, int(obs.y[e]))
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
        out[j * m:(j + 1) * m, i * m:(i + 1) * m] = blk.T
    return out


def circulant_block(obs, h, a, b) -> np.ndarray:
    """Block (a, b) of the circulant-block matrix of observations and a
    generator, mirrored for a < b; the twin of ``match_block``.

    Raises KeyError for an unobserved pair, self-pairs included.
    """
    hi, lo = (a, b) if a > b else (b, a)
    hits = np.flatnonzero((obs.i == hi) & (obs.j == lo))
    if hits.size == 0:
        raise KeyError(f"pair ({a}, {b}) not observed")
    blk = _circulant(h, int(obs.y[hits[0]]))
    return blk if a > b else blk.T


def _circulant(h, y) -> np.ndarray:
    """The block of residue y: scipy's circulant of h((y - a) mod m)."""
    h = np.asarray(h, dtype=float)
    return sla.circulant(h[(y - np.arange(h.size)) % h.size])


def operator_block(L, a, b) -> np.ndarray:
    """Block (a, b) of an operator, read through its products with unit columns."""
    m = L.m
    x = np.zeros((L.n * m, m))
    x[b * m:(b + 1) * m] = np.eye(m)
    return L.matmat(x)[a * m:(a + 1) * m]


def per_shift_product(L, zb) -> np.ndarray:
    """Product of a circulant-block operator with blocks zb of shape (n, m, r)
    by one multi-vector gather per shift and half.

    The operator's general path, kept as the reference of its one-column
    path at m = 2, which must reproduce it bit for bit.
    """
    n, m, r = zb.shape
    zt = np.ascontiguousarray(zb.transpose(0, 2, 1))
    acc = np.zeros((2, n, r * m))
    for s in range(m):
        zs = np.roll(zt, s, axis=2).reshape(n, r * m)
        acc[0] += L._halves[s] @ zs
        acc[1] += L._transposes[-s % m] @ zs
    acc = acc.reshape(2, n * r, m)
    return (acc[0] @ L._g.T + acc[1] @ L._g).reshape(n, r, m).transpose(0, 2, 1)


def dense_match_expansion(obs) -> np.ndarray:
    """Dense stacked matrix of a matching instance."""
    m = obs.m
    out = np.zeros((obs.n * m, obs.n * m))
    for e in range(obs.n_edges):
        i, j = int(obs.ii[e]), int(obs.jj[e])
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = obs.blocks[e]
        out[j * m:(j + 1) * m, i * m:(i + 1) * m] = obs.blocks[e].T
    return out


def per_pair_sample_observations(x, d, p_obs, seed):
    """The per-pair sampler: one uniform per unordered pair, then the noise.

    Reference for ``likelihood.sample_observations``, which must reproduce
    it bit for bit at p_obs = 1.
    """
    from ppmalign.likelihood import PairwiseObservations

    x = np.asarray(x, dtype=np.int64)
    n, m = x.size, d.m
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(n, k=1)
    keep = rng.random(a.size) < p_obs
    a, b = a[keep], b[keep]
    cdf = np.cumsum(d.p0)
    eta = np.searchsorted(cdf, rng.random(a.size), side="right")
    np.clip(eta, 0, m - 1, out=eta)
    y = (x[b] - x[a] + eta) % m
    return PairwiseObservations(n=n, m=m, i=b, j=a, y=y)


def one_shot_sample_observations(x, d, p_obs, seed):
    """The sampler as it was before it worked in chunks: every geometric
    block drawn whole, the ranks unranked at once, one draw of all the
    noise.  Returns the arrays (i, j, y), in int64, and the generator
    after sampling.

    Reference for ``likelihood.sample_observations``, whose pairs,
    residues and final generator state must equal these at every chunk
    size.
    """
    x = np.asarray(x, dtype=np.int64)
    n, m = x.size, d.m
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    if p_obs == 1:
        rng.bit_generator.advance(total)
        a, b = np.triu_indices(n, k=1)
    else:
        blocks = []
        last = -1
        while last < total - 1:
            left = total - 1 - last
            mean = left * p_obs
            size = min(left, int(mean + 4.0 * math.sqrt(mean)) + 16)
            k = rng.geometric(p_obs, size)
            np.minimum(k, left + 1, out=k)
            k = np.cumsum(k) + last
            stop = int(np.searchsorted(k, total))
            blocks.append(k[:stop])
            if stop < size:
                break
            last = int(k[-1])
        k = np.concatenate(blocks)
        rows = np.arange(n)
        starts = rows * (2 * n - rows - 1) // 2
        a = np.repeat(rows, np.diff(np.searchsorted(k, starts), append=k.size))
        b = k - starts[a] + a + 1
    cdf = np.cumsum(d.p0)
    eta = np.clip(np.searchsorted(cdf, rng.random(a.size), side="right"), 0, m - 1)
    return b, a, (x[b] - x[a] + eta) % m, rng


def one_shot_regularize_residues(y, m, varsigma, seed):
    """``likelihood.regularize_observations`` as it was before it drew in
    chunks: one uniform per pair, then the fresh residues."""
    rng = np.random.default_rng(seed)
    repl = rng.random(len(y)) < varsigma
    y = np.array(y, dtype=np.int64)
    y[repl] = rng.integers(0, m, int(repl.sum()))
    return y


def shift_labels(labels, l: int, m: int) -> np.ndarray:
    """Apply the global cyclic shift: label -> ((label - 1 + l) mod m) + 1."""
    labels = np.asarray(labels, dtype=np.int64)
    return ((labels - 1 + l) % m) + 1


def perm_matrix(p) -> np.ndarray:
    """Dense matrix of a permutation array: one 1 per row at column p[a]."""
    p = np.asarray(p, dtype=np.int64)
    m = p.size
    out = np.zeros((m, m))
    out[np.arange(m), p] = 1.0
    return out


def match_block(obs, a, b) -> np.ndarray:
    """Block of the pair (a, b) of a matching instance, mirrored for a < b.

    Raises KeyError for a self-pair or an unobserved pair.
    """
    if a == b:
        raise KeyError("no self-pairs")
    hi, lo = (a, b) if a > b else (b, a)
    hits = np.flatnonzero((obs.ii == hi) & (obs.jj == lo))
    if hits.size == 0:
        raise KeyError(f"pair ({a}, {b}) not observed")
    blk = obs.blocks[hits[0]]
    return blk if a > b else blk.T


def per_edge_sample_match_observations(n, m, corrupt_rate, seed, p_obs=1.0):
    """The per-edge matching sampler: each block built by dense products.

    Reference for ``matching.sample_match_observations``, which must
    return the same truth and bit-identical blocks.  It draws from the
    stream in the same order: the truth row by row, the pairs, one
    corruption flag per pair, then one permutation per corrupted pair.  At
    p_obs = 1 the pairs come from one uniform per pair, independently of
    ``likelihood._observed_pairs``; below 1 they come from that sampler.
    """
    from ppmalign.likelihood import _observed_pairs
    from ppmalign.matching import MatchObservations

    rng = np.random.default_rng(seed)
    truth = np.stack([rng.permutation(m) for _ in range(n)])
    if p_obs == 1:
        a, b = np.triu_indices(n, k=1)
        keep = rng.random(a.size) < p_obs
        a, b = a[keep], b[keep]
        # the package skips these uniforms with advance(), which also drops
        # a 32-bit half-word left over from the permutations
        rng.bit_generator.state = {**rng.bit_generator.state, "has_uint32": 0, "uinteger": 0}
    else:
        a, b = _observed_pairs(n, p_obs, rng, np.int64)
    corrupted = [rng.random() < corrupt_rate for _ in range(a.size)]
    blocks = np.empty((a.size, m, m))
    for e in range(a.size):
        hi, lo = b[e], a[e]
        if corrupted[e]:
            blocks[e] = perm_matrix(rng.permutation(m))
        else:
            blocks[e] = perm_matrix(truth[hi]) @ perm_matrix(truth[lo]).T
    return MatchObservations(n=n, m=m, ii=b, jj=a, blocks=blocks), truth


def full_budget_solve(L, z0, policy, T, truth=None, sigmas=None, early_stop=True):
    """``solver.solve`` as it was before it stopped multiplying at a
    repeated iterate: one product per step until T or an early stop.

    Reference for the short-circuited loop, whose reports must match this
    one field for field, bit for bit.
    """
    from ppmalign.simplex import project_blockwise
    from ppmalign.solver import _STALL_TOL, SolveReport, labels_of, mcr

    z = np.array(z0, dtype=float)
    if z.shape != (L.n, L.m):
        raise ValueError(f"z0 must have shape {(L.n, L.m)}")
    if T < 0:
        raise ValueError("iteration budget must be nonnegative")
    mu = policy.resolve_mu(sigmas, L.m)
    hard = math.isinf(mu)
    truth_arr = None if truth is None else np.asarray(truth, dtype=np.int64)
    trace = [] if truth_arr is not None else None
    if trace is not None:
        trace.append(mcr(labels_of(z), truth_arr, L.m))
    ran = 0
    met = False
    for _ in range(T):
        w = L.matvec(z)
        z_new = project_blockwise(w, mu)
        ran += 1
        if hard:
            met = bool(np.array_equal(z_new, z))
        else:
            met = bool(np.max(np.abs(z_new - z)) <= _STALL_TOL)
        z = z_new
        if trace is not None:
            trace.append(mcr(labels_of(z), truth_arr, L.m))
        if early_stop and met:
            break
    return SolveReport(
        estimate=labels_of(z),
        z=z,
        iterates_mcr=None if trace is None else np.asarray(trace),
        iterations_run=ran,
        converged=met,
        mu_used=mu,
    )


def per_block_lap_project(score) -> np.ndarray:
    """``matching.lap_project`` as it was before the certificate was batched:
    one assignment solve, its dual prices and the acyclicity test for one
    block, then the package's tie-break if the certificate cannot settle it.

    Reference for ``matching._assign``, which must return the same
    permutation for every block of a stack.
    """
    from scipy.optimize import linear_sum_assignment

    from ppmalign.matching import _LAP_TOL, _lex_first_assignment

    score = np.asarray(score, dtype=float)
    if score.ndim != 2 or score.shape[0] != score.shape[1]:
        raise ValueError("score must be square")
    if not np.all(np.isfinite(score)):
        raise ValueError("score must be finite")
    m = score.shape[0]
    rows, cols = linear_sum_assignment(score, maximize=True)
    best = float(score[rows, cols].sum())
    tol = _LAP_TOL * max(1.0, abs(best))
    slack = 8.0 * m * m * np.finfo(float).eps * float(np.abs(score).max(initial=0.0))
    duals = _per_block_dual_prices(score, cols, slack)
    if (duals is not None and (m + 2) * slack < tol
            and _per_block_sole_near_optimum(score, cols, duals, 2.0 * tol + slack)):
        return cols.astype(np.int64)
    return _lex_first_assignment(score, best, tol, duals, margin=4.0 * m * slack)


def _per_block_dual_prices(score, sigma, slack):
    """Bellman-Ford prices (u, v) of one block, tight on sigma; None when
    they do not settle within m sweeps or are infeasible beyond slack."""
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


def _per_block_sole_near_optimum(score, sigma, duals, thr) -> bool:
    """Whether the reduced costs at most thr form an acyclic graph over
    columns, by Kahn peeling one block."""
    u, v = duals
    m = sigma.size
    near = np.empty((m, m), dtype=bool)
    near[sigma] = u[:, None] + v[None, :] - score <= thr
    np.fill_diagonal(near, False)
    alive = np.ones(m, dtype=bool)
    while alive.any():
        sources = alive & ~near[alive].any(axis=0)
        if not sources.any():
            return False
        alive &= ~sources
    return True


def full_budget_match_solve(obs, T, seed, truth=None):
    """``matching.match_solve`` as it was before it stopped multiplying at
    a 2-cycle and before it projected all blocks at once: one product per
    step until T or a fixed point, and one ``per_block_lap_project`` call
    per block."""
    from ppmalign.matching import DenseBlockMatrix, MatchReport, mismatch_rate
    from ppmalign.spectral import _WARM_START_TOL, orthogonal_iteration

    if T < 0:
        raise ValueError("iteration budget must be nonnegative")
    n, m = obs.n, obs.m
    op = DenseBlockMatrix(obs)
    rng = np.random.default_rng(seed)
    fac = orthogonal_iteration(op, r=m, tol=_WARM_START_TOL, seed=int(rng.integers(2**63)))
    c = int(rng.integers(0, n))
    col_block = (fac.U * fac.S) @ fac.V[c * m:(c + 1) * m, :].T  # (nm, m)
    zb = col_block.reshape(n, m, m)
    perms = np.stack([per_block_lap_project(zb[i]) for i in range(n)])
    trace = None
    truth_arr = None
    if truth is not None:
        truth_arr = np.asarray(truth, dtype=np.int64)
        trace = [mismatch_rate(perms, truth_arr)]
    ran = 0
    met = False
    for _ in range(T):
        z = np.zeros((n, m, m))
        z[np.arange(n)[:, None], np.arange(m)[None, :], perms] = 1.0
        w = op.matmat(z.reshape(n * m, m)).reshape(n, m, m)
        new_perms = np.stack([per_block_lap_project(w[i]) for i in range(n)])
        ran += 1
        met = bool(np.array_equal(new_perms, perms))
        perms = new_perms
        if trace is not None:
            trace.append(mismatch_rate(perms, truth_arr))
        if met:
            break
    return MatchReport(
        perms=perms,
        iterations_run=ran,
        converged=met,
        mismatch_trace=None if trace is None else np.asarray(trace),
    )


def project_simplex(v):
    """Euclidean projection of one vector onto the probability simplex.

    The sort-based one-vector algorithm; reference for the row-batched
    ``simplex.project_rows``.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    cond = u - (css - 1.0) / np.arange(1, v.size + 1) > 0
    # the satisfying indices form a prefix; take the last one
    rho = v.size - 1 - int(np.argmax(cond[::-1]))
    return np.maximum(v - (css[rho] - 1.0) / (rho + 1), 0.0)


def expected_matrix(n, m, p_obs, d) -> np.ndarray:
    """Dense expectation of the log-likelihood input matrix.

    Off-diagonal blocks are p_obs * K with K[a, b] = -KL(P0 || P_{a-b})
    - H(P0); diagonal blocks are zero.
    """
    kl_l = np.array([kl(d.p0, np.roll(d.p0, l)) for l in range(m)])
    r = np.arange(m)
    k = -kl_l[(r[:, None] - r[None, :]) % m] - entropy(d.p0)
    return np.kron(np.ones((n, n)) - np.eye(n), p_obs * k)


def kl(p, q) -> float:
    """KL divergence sum p log(p/q), natural log.

    Terms with p = 0 contribute 0; if p > 0 somewhere q = 0 the divergence
    is +inf (returned, not raised).
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must share the same support size")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def entropy(p) -> float:
    """Shannon entropy -sum p log p in nats (0 log 0 = 0)."""
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])))


def hellinger_sq(p, q) -> float:
    """Squared Hellinger distance (1/2) sum (sqrt p - sqrt q)^2."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return float(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))


def total_variation(p, q) -> float:
    """Total variation distance (1/2) sum |p - q|."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return float(0.5 * np.sum(np.abs(p - q)))
