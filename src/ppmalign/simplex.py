"""Euclidean projection onto the probability simplex, blockwise and with rounding.

The iterates of the alignment solver live in a product of n standard
simplices in R^m, one block per item.  Everything here operates on an
(n, m) numpy array whose rows are the blocks, all rows at once.

``mu = math.inf`` is accepted as a distinguished policy value meaning
"project the rescaled point from infinitely far out", which collapses to
rounding each block to the vertex at its largest entry.  The infinity is
branched on before any arithmetic, never multiplied through.
"""

import math

import numpy as np


def _blocks(z, shape=None):
    """The one check of float blocks: z as a finite float (n, m) array, of shape if given."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or shape is not None and z.shape != shape:
        raise ValueError(f"expected an {shape or '(n, m)'} array of blocks, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("blocks have non-finite entries")
    return z


def project_rows(z):
    """Row-wise simplex projection of an (n, m) array, vectorized."""
    return _project(_blocks(z))


def _project(z):
    """project_rows of blocks already checked."""
    n, m = z.shape
    u = -np.sort(-z, axis=1)
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, m + 1)
    cond = u - (css - 1.0) / ks > 0
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(n), rho] - 1.0) / (rho + 1)
    return np.maximum(z - theta[:, None], 0.0)


def round_rows(z):
    """Row-wise rounding of blocks to one-hot vertices (ties: smallest index)."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    out[np.arange(z.shape[0]), np.argmax(z, axis=1)] = 1.0
    return out


def project_blockwise(z, mu):
    """Apply z |-> P(mu * z) independently to every block (row) of z.

    Parameters
    ----------
    z : ndarray, shape (n, m)
        Current blocks, all finite.
    mu : float
        Positive scaling, or ``math.inf`` to round every block to the
        vertex at its largest entry.

    Returns
    -------
    ndarray, shape (n, m)
        Feasible blocks: rows sum to 1, entries >= 0.
    """
    z = _blocks(z)
    if not mu > 0:
        raise ValueError(f"scaling mu must be positive or inf, got {mu}")
    if math.isinf(mu):
        return round_rows(z)
    # P(mu z) is unchanged by a constant added to a row, so each row's maximum
    # is moved to 0.  An entry 1/mu or more below it gets no mass; it is set
    # to exactly -1 instead of scaled, so mu z is never formed, and a row whose
    # top gap is at least 1/mu lands exactly on the vertex at its maximum
    w = z - z.max(axis=1, keepdims=True)
    return _project(np.multiply(w, mu, out=np.full_like(w, -1.0), where=w > -1.0 / float(mu)))
