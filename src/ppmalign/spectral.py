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
the leading Ritz vectors are kept and the rest rebuilt.  The Rayleigh-Ritz
step multiplies nothing: the products of the Ritz vectors come from the
Lanczos relation L Q^T = Q^T P + w e^T, and those of their rotated images
from L R = R L.  The factor reports the same quantity after that step,
max_k ||L u_k - theta_k u_k|| / |theta_1|, as ``residual``.  A short look
outside the factor for missed copies of repeated eigenvalues follows, for
an operator with a rotation only where a copy can hide.  The harness's
``init_iters`` caps the restarts; the harness and ``match_solve`` both
factor to tol = ``_WARM_START_TOL``.  The operator only needs ``shape`` and
products with (N, k) matrices, so both the circulant-block and the
dense-block operators plug in.
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
    vectors, their (n, k) products, taken from the Lanczos relation, not
    from the operator, whether the test passed and whether ``early`` stayed
    true.
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
    # products without new columns: with full reorthogonalization the basis
    # Q keeps L Q^T = Q^T P + w e^T, P the symmetric projection whose upper
    # triangle is stored and w the last remainder
    s = s[:, :k]
    upper = np.triu(proj[:j + 1, :j + 1])
    both = (np.vstack([s.T, s.T @ (upper + np.triu(upper, 1).T)]) @ basis[:j + 1]).T
    both[:, k:] += np.outer(w, s[-1])
    return theta[:k], both[:, :k], both[:, k:], bool(converged), early


def _orbit(op, x):
    """The columns x beside their images under every power of the rotation,
    whose order is op.m."""
    images = [x]
    for _ in range(op.m - 1):
        images.append(op.rotate(images[-1]))
    return np.hstack(images)


def _channel_load(op, u):
    """How many of the orthonormal columns u lie in each rotation channel.

    Channel f is the eigenspace of the rotation R for exp(2 pi i f / m), and
    its load is ||P_f u||_F^2 = (1/m) sum_k cos(2 pi f k / m) tr(u^T R^k u),
    the sine terms cancelling since R^-k = (R^k)^T; so the loads add up to
    the number of columns.
    """
    m = op.m
    traces = np.einsum("nkr,nr->k", _orbit(op, u).reshape(u.shape[0], m, -1), u)
    k = np.arange(m)
    return np.cos(2 * np.pi * np.outer(k, k) / m) @ traces / m


def orthogonal_iteration(op, r: int, max_iters: int = 200, tol: float = 1e-8,
                         seed: int = 0) -> LowRankFactor:
    """Factor the dominant rank-r part of a symmetric operator.

    Parameters
    ----------
    op : operator
        Anything with ``shape`` (N, N) and ``matmat`` mapping (N, k) to
        (N, k).  Assumed symmetric; eigenvalues may have either sign.  An
        optional ``rotate``, an orthogonal map of order ``m`` commuting with
        it, supplies copies of repeated eigenvalues: for circulant blocks,
        the images of a vector under its powers span the vector's part in
        each frequency channel, so no copy that differs only by channel is
        missed.
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
        it is at most tol, and iterations counting operator columns: those
        of the Lanczos solve, and of the look where it runs.
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
    rotates = hasattr(op, "rotate")

    def apply(x):
        nonlocal cols
        cols += x.shape[1]
        return op.matmat(x)

    def ritz(q, lq):
        # L commutes with the rotation, so the orbit's products are the
        # products' orbit.  Columns already in the span are dropped, not
        # normalized noise.  The Ritz vectors err by about tol / gap, so the
        # cut on singular values grows with tol: 1e-6 at 1e-8, 1e-4 at 1e-4,
        # far below the sine between two copies.  The basis comes from the
        # Gram matrix, whose second pass restores the orthogonality that the
        # first loses along small singular values; a tall SVD would touch
        # megabytes of LAPACK workspace
        if rotates:
            q, lq = _orbit(op, q), _orbit(op, lq)
        for _ in range(2):
            sv2, w = np.linalg.eigh(q.T @ q)
            keep = sv2 > 1e-4 * tol * sv2[-1]
            w = w[:, keep] / np.sqrt(sv2[keep])
            q, lq = q @ w, lq @ w
        theta, w = np.linalg.eigh(0.5 * (q.T @ lq + lq.T @ q))
        order = np.argsort(-np.abs(theta))[:r]
        return q @ w[:, order], theta[order], lq @ w[:, order]

    # a quarter of tol: the Ritz step mixes each Ritz vector with its
    # rotated copies, and the part of a copy orthogonal to the vector carries
    # their error over its length, sin of the rotation angle.  Stopping at
    # half of tol, which Lanczos does right at the test once it tests within
    # a fill, left residuals up to 1.2 tol on small random circulant
    # instances (m = 3, 5); a quarter left at most 0.78 tol over 6000 of them
    _, x, lx, converged, early = _lanczos(apply, r, max(2 * r + 1, 20), tol / 4, max_iters,
                                          rng.standard_normal(n), rng)
    u, theta, lu = ritz(x, lx)

    def outside(x):
        x = x - u @ (u.T @ x)
        y = apply(x)
        return y - u @ (u.T @ y)

    # one Krylov space holds one vector per eigenspace, so repeated eigenvalues
    # lose copies; a short look outside span(u) finds one that stands clear of
    # the rest of the spectrum, though one close to the r-th value can hide.
    # With a rotation, the orbit restores the copies in other channels, so a
    # copy can only hide within one channel: the look runs where the Krylov
    # space ran out, or where one channel holds two of the r directions, a
    # load of 1.5 or more, since a real vector of two conjugate channels
    # counts half in each.  That is the complete graph's frequency 0, whose
    # value -h_0 repeats n - 1 times beside h_0 (n - 1), and a forest's,
    # whose values come in pairs +t, -t.  The look fills its 8 vectors: a
    # Ritz value at the loose tolerance of a partial basis can sit below the
    # floor while a missed copy lies above.  A copy it finds is multiplied
    # once for the Ritz step
    look = converged and not (rotates and early and _channel_load(op, u).max() < 1.5)
    for _ in range(r if look else 0):
        floor = abs(theta[-1]) + tol * abs(theta[0])
        top, w, *_ = _lanczos(outside, 1, 8, 0.1, max_iters, rng.standard_normal(n), rng, floor,
                              early=False)
        if abs(top[0]) > floor:
            top, w, *_ = _lanczos(outside, 1, 20, tol, max_iters, w[:, 0], rng, floor)
        if abs(top[0]) <= floor:
            break
        u, theta, lu = ritz(np.hstack([u, w]), np.hstack([lu, apply(w)]))
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
