"""Spectral initialization: low-rank factorization and the starting iterate.

The solver needs a warm start correlated with the truth.  The top-m
singular subspace of the input matrix carries it: in expectation the matrix
is a rank-m pattern plus noise, so a randomly chosen column of the best
rank-m approximation already points toward the hidden labels.

The factorization is computed by thick-restart Lanczos (Wu & Simon, SIAM J.
Matrix Anal. Appl. 21, 2000) for the r largest-magnitude eigenvalues, then
one Rayleigh-Ritz step.  The Lanczos basis is reorthogonalized fully and
holds at most max(2r + 1, 20) vectors.  Once it holds more than 2r, every
new column is followed by the stopping test max_k beta |s_k| <= tol
|theta_1| / 4, where the left side is the largest residual norm of the top r
Ritz pairs of the basis so far; when the basis is full and the test fails,
the leading Ritz vectors are kept and the rest rebuilt.  The factor reports
the same quantity after the Rayleigh-Ritz step, max_k ||L u_k - theta_k
u_k|| / |theta_1|, as ``residual``.  The harness's ``init_iters`` caps the
restarts; the harness and ``match_solve`` both factor to tol =
``_WARM_START_TOL``.  The operator only needs ``shape`` and products with
(N, k) matrices, so both the circulant-block and the dense-block operators
plug in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .simplex import project_blockwise

# the relative eigen-residual the pipeline's warm start is computed to: the
# power iterations only need a start inside their basin, and mu = c / sigma
# reads Ritz values, whose error is quadratic in the residual
_WARM_START_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class LowRankFactor:
    """Rank-r factorization U diag(S) V^T of a symmetric operator, r = S.size.

    S holds singular values in nonincreasing order; V equals U with columns
    flipped by the sign of the corresponding eigenvalue.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    converged: bool
    residual: float
    iterations: int

    def column(self, c: int) -> np.ndarray:
        """Column c of the low-rank approximation U diag(S) V^T."""
        return self.U @ (self.S * self.V[c, :])


# Daniel, Gragg, Kaufman & Stewart (1976): when a second pass keeps less
# than this share of the norm the first left, the remainder is rounding error
_KEPT_SHARE = 0.717


def _orthogonalize(q, w):
    """Two classical Gram-Schmidt passes of w against the orthonormal rows of q.

    Returns the remainder, its coefficients along q, its norm and whether
    it lies in the span of q to working precision.
    """
    h = q @ w
    w = w - h @ q
    first = np.linalg.norm(w)
    h2 = q @ w
    w -= h2 @ q
    beta = np.linalg.norm(w)
    return w, h + h2, beta, beta <= _KEPT_SHARE * first


def _next_vector(q, w, beta, lost, rng):
    """The unit vector that extends the basis q: the remainder w, or after a
    breakdown a seeded random vector orthogonal to q."""
    if lost:
        w, _, beta, _ = _orthogonalize(q, rng.standard_normal(q.shape[1]))
    return w / beta


def _lanczos(apply, k, ncv, tol, max_iters, v, rng, scale=0.0, early=True):
    """Top-k eigenpairs by magnitude of a symmetric operator.

    Thick-restart Lanczos with at most ncv basis vectors, kept as rows so
    that each is contiguous.  ``apply`` maps an (n, 1) column to its
    product.  A breakdown (the zero operator, rank below k, an exhausted
    Krylov space, one vector per repeated eigenvalue) continues from a fresh
    random vector, so the basis can always grow; a remainder of rounding noise
    that the test above misses is orthogonal to the basis all the same, and
    serves as one.  Once the basis holds more than 2k vectors, each new
    column is followed by the test max_k beta |s_k| <= tol max(|theta_1|,
    scale) on the Ritz pairs of the basis so far, which are returned as
    soon as it passes; no random draw or timing decides when it runs, so
    output stays deterministic.  With ``early`` false, or once a remainder
    is below tol times its column's coefficients (the Krylov space ran
    out), the test waits for a full basis.  max_iters caps the fills.  A
    caller that compares |theta_1| with a threshold passes it as scale, so
    that an operator of rounding noise below it stops on the first fill.

    Returns the Ritz values by decreasing magnitude, the (n, k) Ritz
    vectors and whether the test passed.
    """
    n = v.size
    p = min(ncv, n)
    basis = np.empty((p, n))
    proj = np.zeros((p, p))  # basis L basis^T, upper triangle
    basis[0] = v / np.linalg.norm(v)
    start = 0
    for sweep in range(max_iters):
        for j in range(start, p):
            w, proj[:j + 1, j], beta, lost = _orthogonalize(
                basis[:j + 1], apply(basis[j][:, None])[:, 0])
            # a Krylov space exhausted to within tol is invariant and passes
            # the test whatever lies outside it, so from there the basis fills
            early = early and beta > tol * np.linalg.norm(proj[:j + 1, j])
            if (early and j + 1 > 2 * k) or j + 1 == p:
                theta, s = np.linalg.eigh(proj[:j + 1, :j + 1], UPLO="U")
                order = np.argsort(-np.abs(theta), kind="stable")
                theta, s = theta[order], s[:, order]
                converged = beta * np.abs(s[-1, :k]).max() <= tol * max(abs(theta[0]), scale)
                if converged:
                    break
            if j + 1 < p:
                basis[j + 1] = _next_vector(basis[:j + 1], w, beta, lost, rng)
        if converged or sweep == max_iters - 1:
            break
        # keep the wanted Ritz vectors and half of the others; the new
        # columns' coefficients against them come out of the next pass
        keep = min(k + (p - k) // 2, p - 1)
        basis[:keep] = s[:, :keep].T @ basis
        proj[:] = 0.0
        proj[np.arange(keep), np.arange(keep)] = theta[:keep]
        basis[keep] = _next_vector(basis[:keep], w, beta, lost, rng)
        start = keep
    return theta[:k], (s[:, :k].T @ basis[:j + 1]).T, bool(converged)


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
        Restart cap and relative accuracy (> 0) of the Lanczos solver.  If
        it stops at max_iters, its current Ritz vectors are kept.
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
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    rng = np.random.default_rng(seed)
    cols = 0

    def apply(x):
        nonlocal cols
        cols += x.shape[1]
        return op.matmat(x)

    def ritz(q):
        # columns already in the span are dropped, not normalized noise.  The
        # Ritz vectors err by about tol / gap, so the cut grows with tol: 1e-6
        # at 1e-8, 1e-4 at 1e-4, far below the sine between two copies
        if hasattr(op, "rotate"):
            q = np.hstack([q, op.rotate(q)])
        v, sv, _ = np.linalg.svd(q, full_matrices=False)
        q = v[:, sv > 1e-2 * np.sqrt(tol) * sv[0]]
        y = apply(q)
        theta, w = np.linalg.eigh(0.5 * (q.T @ y + y.T @ q))
        order = np.argsort(-np.abs(theta))[:r]
        return q @ w[:, order], theta[order], y @ w[:, order]

    # a quarter of tol: the Ritz step mixes each Ritz vector with its
    # rotated copy, and the part of the copy orthogonal to the vector carries
    # their error over its length, sin of the rotation angle.  Stopping at
    # half of tol, which Lanczos does right at the test once it tests within
    # a fill, left residuals up to 1.2 tol on small random circulant
    # instances (m = 3, 5); a quarter left at most 0.78 tol over 6000 of them
    _, q, converged = _lanczos(apply, r, max(2 * r + 1, 20), tol / 4, max_iters,
                               rng.standard_normal(n), rng)
    u, theta, lu = ritz(q)

    def outside(x):
        x = x - u @ (u.T @ x)
        y = apply(x)
        return y - u @ (u.T @ y)

    # one Krylov space holds one vector per eigenspace, so repeated eigenvalues
    # lose copies; a short look outside span(u) finds one that stands clear of
    # the rest of the spectrum, though one close to the r-th value can hide.
    # The look fills its 8 vectors: a Ritz value at the loose tolerance of a
    # partial basis can sit below the floor while a missed copy lies above
    for _ in range(r if converged else 0):
        floor = abs(theta[-1]) + tol * abs(theta[0])
        top, w, _ = _lanczos(outside, 1, 8, 0.1, max_iters, rng.standard_normal(n), rng, floor,
                             early=False)
        if abs(top[0]) > floor:
            top, w, _ = _lanczos(outside, 1, 20, tol, max_iters, w[:, 0], rng, floor)
        if abs(top[0]) <= floor:
            break
        u, theta, lu = ritz(np.hstack([u, w]))
    residual = float(np.linalg.norm(lu - u * theta, axis=0).max() / max(abs(theta[0]), 1e-300))
    signs = np.where(theta >= 0, 1.0, -1.0)
    return LowRankFactor(U=u, S=np.abs(theta), V=u * signs,
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
