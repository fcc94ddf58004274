"""Spectral initialization: low-rank factorization and the starting iterate.

The solver needs a warm start correlated with the truth.  The top-m
singular subspace of the input matrix carries it: in expectation the matrix
is a rank-m pattern plus noise, so a randomly chosen column of the best
rank-m approximation already points toward the hidden labels.

The factorization is computed by ARPACK's Lanczos method (``eigsh``) for
the r largest-magnitude eigenvalues, then one Rayleigh-Ritz step.  The
operator only needs ``shape`` and products with (N, k) matrices, so both
the circulant-block and the dense-block operators plug in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .simplex import project_blockwise


@dataclass(frozen=True, eq=False)
class LowRankFactor:
    """Rank-r factorization U diag(S) V^T of a symmetric operator.

    S holds singular values in nonincreasing order; V equals U with columns
    flipped by the sign of the corresponding eigenvalue.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    r: int
    converged: bool
    residual: float
    iterations: int

    def column(self, c: int) -> np.ndarray:
        """Column c of the low-rank approximation U diag(S) V^T."""
        return self.U @ (self.S * self.V[c, :])


def orthogonal_iteration(op, r: int, max_iters: int = 200, tol: float = 1e-8,
                         seed: int = 0) -> LowRankFactor:
    """Factor the dominant rank-r part of a symmetric operator.

    Parameters
    ----------
    op : operator
        Anything with ``shape`` (N, N) and ``matmat`` mapping (N, k) to
        (N, k).  Assumed symmetric; eigenvalues may have either sign.  An
        optional ``rotate``, an orthogonal map commuting with it, supplies
        copies of repeated eigenvalues (for circulant blocks, the second of
        each pair of conjugate frequencies k and m - k).
    r : int
        Target rank, 1 <= r <= N.
    max_iters, tol : int, float
        Restart cap and relative accuracy of the Lanczos solver.  If it
        stops at max_iters, its converged vectors are kept and filled up to
        rank r with seeded random columns.
    seed : int
        Seed for every random vector drawn, so output is bit-identical.

    Returns
    -------
    LowRankFactor
        Singular vectors and values of the dominant subspace, obtained by
        a final Rayleigh-Ritz step, ordered by decreasing magnitude, with
        residual max_k ||L u_k - theta_k u_k|| / |theta_1|, converged when
        it is at most tol, and iterations counting operator columns.
    """
    n = op.shape[0]
    if not 1 <= r <= n:
        raise ValueError(f"rank must lie in 1..{n}, got {r}")
    rng = np.random.default_rng(seed)
    cols = 0

    def apply(x):
        nonlocal cols
        cols += x.size // n
        return op.matmat(x.reshape(n, -1))

    def lanczos(f, k, eps, v0, ncv=None):
        return eigsh(LinearOperator((n, n), matvec=f, dtype=float), k, which="LM", v0=v0,
                     ncv=ncv, tol=eps, maxiter=max_iters, rng=rng)

    def ritz(q):
        # columns already in the span are dropped, not normalized noise
        if hasattr(op, "rotate"):
            q = np.hstack([q, op.rotate(q)])
        v, sv, _ = np.linalg.svd(q, full_matrices=False)
        q = v[:, sv > 1e-6 * sv[0]]
        y = apply(q)
        theta, w = np.linalg.eigh(0.5 * (q.T @ y + y.T @ q))
        order = np.argsort(-np.abs(theta))[:r]
        return q @ w[:, order], theta[order], y @ w[:, order]

    search = r < n - 1
    try:
        # ARPACK needs r < N, and at N - 1 its Krylov space is everything
        q = lanczos(apply, r, tol, rng.standard_normal(n))[1] if search else np.eye(n)
    except ArpackError as exc:
        # no convergence keeps the converged vectors, a zero operator (-9) none
        kept = getattr(exc, "eigenvectors", np.empty((n, 0)))
        q = np.hstack([kept, rng.standard_normal((n, r - kept.shape[1]))])
        search = False
    u, theta, lu = ritz(q)

    def outside(x):
        x = x.reshape(n, -1) - u @ (u.T @ x.reshape(n, -1))
        y = apply(x)
        return y - u @ (u.T @ y)

    # one Krylov space holds one vector per eigenspace, so repeated eigenvalues
    # lose copies; a short look outside span(u) finds one that stands clear of
    # the rest of the spectrum, though one close to the r-th value can hide
    for _ in range(r if search else 0):
        floor = abs(theta[-1]) + tol * abs(theta[0])
        try:
            top, w = lanczos(outside, 1, 0.1, rng.standard_normal(n), min(n, 8))
            if abs(top[0]) > floor:
                top, w = lanczos(outside, 1, tol, w[:, 0])
        except ArpackError:
            break
        if abs(top[0]) <= floor:
            break
        u, theta, lu = ritz(np.hstack([u, w]))
    residual = float(np.linalg.norm(lu - u * theta, axis=0).max() / max(abs(theta[0]), 1e-300))
    signs = np.where(theta >= 0, 1.0, -1.0)
    return LowRankFactor(U=u, S=np.abs(theta), V=u * signs, r=r,
                         converged=residual <= tol, residual=residual, iterations=cols)


def initial_guess(L, fac: LowRankFactor, mu0: float, seed: int) -> np.ndarray:
    """Feasible starting blocks from one column of the low-rank approximation.

    Picks a uniformly random column of U diag(S) V^T, reshapes it into n
    blocks, and projects each block with scaling mu0 (``math.inf`` rounds
    to vertices).

    Returns an (n, m) array of feasible blocks.
    """
    n, m = L.n, L.m
    rng = np.random.default_rng(seed)
    c = int(rng.integers(0, n * m))
    zhat = fac.column(c).reshape(n, m)
    return project_blockwise(zhat, mu0)
