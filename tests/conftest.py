"""Shared oracles for the test suite.

The dense expansion below is deliberately independent of the package's
matvec: blocks are materialized with scipy's circulant constructor and
placed entry by entry, so agreement between the two paths is meaningful.
"""

import numpy as np
import scipy.linalg as sla


def dense_expansion(L) -> np.ndarray:
    """Dense (nm, nm) copy of a circulant-block operator, built edge by edge."""
    m = L.m
    out = np.zeros((L.n * m, L.n * m))
    for e in range(L.n_edges):
        i, j = int(L.ii[e]), int(L.jj[e])
        blk = sla.circulant(L.cols[e])
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = blk
        out[j * m:(j + 1) * m, i * m:(i + 1) * m] = blk.T
    return out


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
    return PairwiseObservations(n=n, m=m, p_obs=p_obs, i=b, j=a, y=y)


def per_edge_sample_match_observations(n, m, corrupt_rate, seed, p_obs=1.0):
    """The per-edge matching sampler: each block built by dense products.

    Reference for ``matching.sample_match_observations``, which must
    return the same truth and bit-identical blocks.
    """
    from ppmalign.matching import MatchObservations, perm_matrix

    rng = np.random.default_rng(seed)
    truth = np.stack([rng.permutation(m) for _ in range(n)])
    a, b = np.triu_indices(n, k=1)
    keep = rng.random(a.size) < p_obs
    a, b = a[keep], b[keep]
    blocks = np.empty((a.size, m, m))
    for e in range(a.size):
        hi, lo = b[e], a[e]
        if rng.random() < corrupt_rate:
            blocks[e] = perm_matrix(rng.permutation(m))
        else:
            blocks[e] = perm_matrix(truth[hi]) @ perm_matrix(truth[lo]).T
    return MatchObservations(n=n, m=m, ii=b, jj=a, blocks=blocks), truth
