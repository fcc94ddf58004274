import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense_expansion, dense_match_expansion, examples
from ppmalign import spectral
from ppmalign.blockmat import CirculantBlockMatrix, build
from ppmalign.likelihood import (
    NoiseDistribution,
    PairwiseObservations,
    random_corruption,
    sample_observations,
)
from ppmalign.matching import DenseBlockMatrix, MatchObservations, sample_match_observations
from ppmalign.solver import labels_of, mcr
from ppmalign.spectral import _WARM_START_TOL, initial_guess, orthogonal_iteration


class DenseOp:
    """Minimal operator wrapper for dense symmetric test matrices."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    @property
    def shape(self):
        return self.a.shape

    def matmat(self, x):
        return self.a @ x


class Counting:
    """Wraps an operator and counts the columns its products see."""

    def __init__(self, op):
        self.op = op
        self.cols = 0

    def __getattr__(self, name):  # shape, and rotate where the operator has it
        return getattr(self.op, name)

    def matmat(self, x):
        self.cols += x.shape[1]
        return self.op.matmat(x)


def with_spectrum(lam, seed):
    """Dense symmetric matrix with eigenvalues lam in a random basis."""
    lam = np.asarray(lam, dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((lam.size, lam.size)))
    return (q * lam) @ q.T


CLUSTERED = np.diag(np.r_[1.0, 0.999, 0.998, np.linspace(0.1, 0.99, 200)])


def recovery_observations(n, m, pi0, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(1, m + 1, n)
    return sample_observations(x, random_corruption(pi0, m), 1.0,
                               seed=int(rng.integers(2**32))), x


def recovery_instance(n, m, pi0, seed):
    obs, x = recovery_observations(n, m, pi0, seed)
    return build(obs, None, "agreement"), x


class TestOrthogonalIteration:
    def test_factor_invariants(self):
        L, _ = recovery_instance(40, 3, 0.6, seed=0)
        fac = orthogonal_iteration(L, r=3, seed=1)
        np.testing.assert_allclose(fac.U.T @ fac.U, np.eye(3), atol=1e-10)
        # theta is signed and ordered by magnitude; S is its magnitude, bit for bit
        assert np.all(np.diff(np.abs(fac.theta)) <= 0)
        assert fac.S.tobytes() == np.abs(fac.theta).tobytes()
        # an index reads one column, a slice a block of them, off U diag(theta) U^T
        full = (fac.U * fac.theta) @ fac.U.T
        np.testing.assert_allclose(fac.columns(5), full[:, 5], rtol=0, atol=1e-12)
        np.testing.assert_allclose(fac.columns(slice(3, 6)), full[:, 3:6], rtol=0, atol=1e-12)

    def test_top_singular_values_match_dense(self):
        # strong-signal instance: the subspace boundary gap is healthy
        obs, _ = recovery_observations(60, 2, 0.7, seed=2)
        L = build(obs, None, "agreement")
        svals = np.linalg.svd(dense_expansion(obs, L.h), compute_uv=False)
        fac = orthogonal_iteration(L, r=2, seed=3)
        np.testing.assert_allclose(fac.S, svals[:2], rtol=1e-6)

    def test_best_rank_r_approximation(self):
        # Frobenius error matches the optimal truncation from a dense SVD
        obs, _ = recovery_observations(64, 4, 0.7, seed=4)
        L = build(obs, None, "agreement")
        dense = dense_expansion(obs, L.h)
        u, s, vt = np.linalg.svd(dense)
        r = 4
        opt = np.linalg.norm(dense - (u[:, :r] * s[:r]) @ vt[:r], "fro")
        fac = orthogonal_iteration(L, r=r, seed=5, max_iters=500)
        mine = np.linalg.norm(dense - fac.columns(slice(None)), "fro")
        assert mine <= opt * (1.0 + 1e-5)
        assert mine >= opt * (1.0 - 1e-12)

    def test_deterministic_per_seed(self):
        L, _ = recovery_instance(30, 3, 0.5, seed=6)
        a = orthogonal_iteration(L, r=2, seed=7)
        b = orthogonal_iteration(L, r=2, seed=7)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.S, b.S)

    def test_zero_operator(self):
        fac = orthogonal_iteration(DenseOp(np.zeros((6, 6))), r=2, seed=0)
        np.testing.assert_array_equal(fac.S, np.zeros(2))
        assert fac.converged

    def test_rank_validation(self):
        op = DenseOp(np.eye(4))
        with pytest.raises(ValueError):
            orthogonal_iteration(op, r=0)
        with pytest.raises(ValueError):
            orthogonal_iteration(op, r=5)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            orthogonal_iteration(op, r=1, max_iters=0)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1e-8])
    def test_tol_validation(self, tol):
        # a test that can never pass would spend the whole restart cap
        with pytest.raises(ValueError, match="tol"):
            orthogonal_iteration(DenseOp(np.eye(4)), r=1, tol=tol)

    def test_early_stop_returns_rank_r_factor(self):
        # a cluster of top eigenvalues 1e-3 apart cannot meet 1e-8 within
        # one Lanczos restart; the factor still has rank r and says so
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fac = orthogonal_iteration(DenseOp(CLUSTERED), r=3, max_iters=1, seed=1)
        assert fac.U.shape == (203, 3) and fac.S.shape == (3,)
        np.testing.assert_allclose(fac.U.T @ fac.U, np.eye(3), atol=1e-12)
        assert not fac.converged
        assert fac.residual > 0
        assert fac.iterations > 3

    def test_clustered_top_converges_after_restarts(self):
        # one fill and one thick restart fall short; the default cap does not
        assert not orthogonal_iteration(DenseOp(CLUSTERED), r=3, max_iters=2, seed=1).converged
        fac = orthogonal_iteration(DenseOp(CLUSTERED), r=3, seed=1)
        assert fac.converged
        np.testing.assert_allclose(fac.S, [1.0, 0.999, 0.998], rtol=0, atol=1e-8)

    @pytest.mark.parametrize("tol", sorted({1e-1, 1e-2, 1e-4, _WARM_START_TOL, 1e-8}))
    @pytest.mark.parametrize("cap", [1, 200])
    def test_reported_residual_recomputed(self, tol, cap):
        # residual is max_k ||L u_k - theta_k u_k|| / |theta_1| through the
        # operator, and converged says whether it meets tol
        L, _ = recovery_instance(40, 3, 0.6, seed=0)
        for op in (DenseOp(CLUSTERED), L):
            fac = orthogonal_iteration(op, r=3, max_iters=cap, tol=tol, seed=1)
            want = (np.linalg.norm(op.matmat(fac.U) - fac.U * fac.theta, axis=0).max()
                    / fac.S[0])
            assert fac.residual == pytest.approx(want, rel=1e-6, abs=1e-14)
            assert fac.converged == (fac.residual <= tol)

    def test_iterations_count_operator_columns(self):
        L, _ = recovery_instance(40, 3, 0.6, seed=0)
        for op, cap in ((DenseOp(CLUSTERED), 1), (DenseOp(CLUSTERED), 200), (L, 200)):
            counted = Counting(op)
            fac = orthogonal_iteration(counted, r=3, max_iters=cap, seed=1)
            assert fac.iterations == counted.cols

    @pytest.mark.parametrize("tol", [_WARM_START_TOL, 1e-4, 1e-8])
    def test_stops_before_basis_is_full(self, tol):
        # a well-separated top pair meets the test long before the 20-vector
        # basis fills; the Ritz step takes 2 columns and the look at most 8
        a = with_spectrum(np.r_[4.0, 2.0, np.linspace(-0.1, 0.1, 198)], seed=3)
        fac = assert_matches_eigh(DenseOp(a), a, 2, seed=4, tol=tol)
        assert fac.iterations < 20 + 2 + 8

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_below_r(self, rank):
        # the Krylov space runs out after rank + 1 columns; the basis goes on
        # from fresh vectors, and the first fill already meets tol: 20
        # columns, 5 for the Ritz step and 8 for one look
        a = with_spectrum(np.r_[[4.0, -2.0, 1.0][:rank], np.zeros(30 - rank)], seed=rank)
        assert_matches_eigh(DenseOp(a), a, 5, seed=rank)
        assert orthogonal_iteration(DenseOp(a), r=5, seed=rank).iterations <= 20 + 5 + 8

    @pytest.mark.parametrize("r", [9, 10, 12])
    def test_block_repeated_more_than_look_basis(self, r):
        # nine copies of one block: each eigenvalue of the block has nine
        # copies, more than the 8 vectors of the look's basis
        a = np.kron(np.eye(9), with_spectrum([5.0, 2.0, -1.0], seed=r))
        a = np.block([[a, np.zeros((27, 2))], [np.zeros((2, 27)), np.diag([4.5, 0.5])]])
        for tol in (1e-8, 1e-4, _WARM_START_TOL):
            assert_matches_eigh(DenseOp(a), a, r, seed=r, tol=tol)

    @pytest.mark.parametrize("r", [6, 7])
    def test_rank_n_minus_1_and_n(self, r):
        # the basis is the whole space, reached through a breakdown since
        # the Krylov space of a repeated spectrum is smaller
        a = with_spectrum([3.0, 3.0, -2.0, -2.0, 1.0, 0.0, 0.0], seed=r)
        assert_matches_eigh(DenseOp(a), a, r, seed=r)

    def test_empty_graph(self):
        obs = PairwiseObservations(n=5, m=3, i=[], j=[], y=[])
        L = CirculantBlockMatrix(obs, np.log([0.5, 0.3, 0.2]))
        fac = orthogonal_iteration(L, r=3, seed=0)
        np.testing.assert_array_equal(fac.S, np.zeros(3))
        np.testing.assert_allclose(fac.U.T @ fac.U, np.eye(3), atol=1e-12)
        assert fac.converged and fac.residual == 0.0

    def test_signed_spectrum(self):
        # magnitudes govern: a large negative eigenvalue outranks smaller
        # positive ones, and theta keeps its sign
        a = np.diag([-5.0, 3.0, 1.0])
        fac = orthogonal_iteration(DenseOp(a), r=2, seed=2)
        np.testing.assert_allclose(fac.theta, [-5.0, 3.0], atol=1e-8)
        np.testing.assert_allclose(fac.S, [5.0, 3.0], atol=1e-8)
        np.testing.assert_allclose(fac.columns(slice(None)), np.diag([-5.0, 3.0, 0.0]),
                                   atol=1e-7)


def assert_matches_eigh(op, dense, r, seed, tol=1e-8):
    """S is the top-r |eigenvalue|, U spans a gapped eigenspace, and one
    seed gives bit-identical U and theta; returns the factor."""
    lam, vec = np.linalg.eigh(dense)
    order = np.argsort(-np.abs(lam), kind="stable")
    mags = np.abs(lam[order])
    scale = max(1.0, mags[0])
    fac = orthogonal_iteration(op, r=r, tol=tol, seed=seed)
    assert fac.converged and fac.residual <= tol
    np.testing.assert_allclose(fac.S, mags[:r], rtol=0, atol=10 * tol * scale)
    np.testing.assert_allclose(fac.U.T @ fac.U, np.eye(r), atol=1e-10)
    if r == mags.size or mags[r - 1] - mags[r] > 1e-2 * scale:
        # Davis-Kahan: the projectors differ by at most residual / gap
        gap = 1.0 if r == mags.size else mags[r - 1] - mags[r]
        top = vec[:, order[:r]]
        np.testing.assert_allclose(fac.U @ fac.U.T, top @ top.T,
                                   atol=max(1e-5, np.sqrt(r) * tol * scale / gap))
    again = orthogonal_iteration(op, r=r, tol=tol, seed=seed)
    for name in ("U", "theta"):
        np.testing.assert_array_equal(getattr(fac, name), getattr(again, name))
    assert (fac.residual, fac.iterations) == (again.residual, again.iterations)
    return fac


@st.composite
def symmetric_matrices(draw):
    """Small dense symmetric matrices with signed, often exactly repeated
    eigenvalues, plus a rank 1..N that includes N - 1 and N."""
    size = draw(st.integers(1, 12))
    lam = np.array(draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)),
                   dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                        .standard_normal((size, size)))
    r = draw(st.one_of(st.integers(1, size), st.sampled_from([max(size - 1, 1), size])))
    return (q * lam) @ q.T, r


def circulant_instance(n, m, p_obs, form, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(1, m + 1, n)
    d = NoiseDistribution(rng.dirichlet(np.full(m, 5.0)))
    obs = sample_observations(x, d, p_obs, seed=seed)
    return build(obs, None if form == "agreement" else d, form), obs


def isomorphic_forest(k, m, seed):
    """Loglik operator of two copies of one random tree on k items, with the
    same residues on both copies, and its observations."""
    rng = np.random.default_rng(seed)
    child = np.arange(1, k)
    parent = np.array([rng.integers(0, c) for c in child])
    y = rng.integers(0, m, k - 1)
    obs = PairwiseObservations(n=2 * k, m=m, i=np.r_[child, child + k],
                               j=np.r_[parent, parent + k], y=np.r_[y, y])
    d = NoiseDistribution(rng.dirichlet(np.full(m, 5.0)))
    return build(obs, d, "loglik"), obs


def count_solves(monkeypatch):
    """Record [basis size, operator columns] of every Lanczos solve: the
    main solve has max(2r + 1, 20) vectors, and each round of the look
    starts with 8."""
    solves = []
    solve = spectral._lanczos

    def counted(apply, k, ncv, *args, **kwargs):
        record = [ncv, 0]
        solves.append(record)

        def counting(x):
            record[1] += x.shape[1]
            return apply(x)

        return solve(counting, k, ncv, *args, **kwargs)

    monkeypatch.setattr(spectral, "_lanczos", counted)
    return solves


class TestAgainstEigh:
    @settings(max_examples=examples(150), deadline=None)
    @given(case=symmetric_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_dense_symmetric(self, case, seed):
        a, r = case
        assert_matches_eigh(DenseOp(a), a, r, seed)

    # at m in {3, 5} frequencies k and m - k give exactly equal eigenvalue
    # pairs, so a rank cut often splits a pair; at m = 2 both channels are
    # real.  On a complete graph the frequency-0 part is h_0 (J - I), whose
    # eigenvalue -h_0 is repeated n - 1 times; with loglik blocks and small n
    # it lies in the top r (the first two examples).  In the third, 7.6099
    # repeats in channel 0, and the look's first stage ends at a Ritz value
    # of 6.68, under the floor of 6.7258 but within its residual of it
    @settings(max_examples=examples(100), deadline=None)
    @example(n=5, m=5, p_obs=1.0, form="loglik", r=4, seed=0)
    @example(n=6, m=5, p_obs=1.0, form="loglik", r=6, seed=0)
    @example(n=12, m=3, p_obs=0.859375, form="loglik", r=4, seed=48411692)
    @given(n=st.integers(2, 12), m=st.sampled_from([2, 3, 5]),
           p_obs=st.floats(0.2, 1.0), form=st.sampled_from(["agreement", "loglik"]),
           r=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_circulant_blocks(self, n, m, p_obs, form, r, seed):
        L, obs = circulant_instance(n, m, p_obs, form, seed)
        assert_matches_eigh(L, dense_expansion(obs, L.h), min(r, n * m), seed)

    @pytest.mark.parametrize("n, r", [(5, 4), (6, 6)])
    def test_complete_graph_at_warm_start_tol(self, n, r):
        # the complete-graph examples above at the pipeline's tolerance,
        # where the main solve stops before its basis fills, and at 1e-4,
        # where its Krylov space runs out first
        L, obs = circulant_instance(n, 5, 1.0, "loglik", 0)
        for tol in (_WARM_START_TOL, 1e-4):
            assert_matches_eigh(L, dense_expansion(obs, L.h), r, 0, tol=tol)

    # the first example needs the look to fill its basis: after 3 columns its
    # Ritz value lies below the floor, under a missed copy of 1.956 above
    # 1.827.  In the second, the main solve's Krylov space runs out after 11
    # columns, holding one of two copies of 7; only the columns that follow
    # find the other
    @settings(max_examples=examples(40), deadline=None)
    @example(n=3, m=5, corrupt=0.5, r=3, seed=3)
    @example(n=8, m=5, corrupt=0.1, r=2, seed=2281366652)
    @given(n=st.integers(1, 10), m=st.sampled_from([3, 5]), corrupt=st.floats(0.0, 1.0),
           r=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_match_blocks(self, n, m, corrupt, r, seed):
        if n == 1:  # the sampler needs two items; one item is the zero operator
            obs = MatchObservations(n=1, m=m, ii=[], jj=[], blocks=np.empty((0, m, m)))
        else:
            obs, _ = sample_match_observations(n, m, corrupt, seed=seed)
        assert_matches_eigh(DenseBlockMatrix(obs), dense_match_expansion(obs),
                            min(r, n * m), seed)


class TestLookTrigger:
    def test_connected_sparse_m2_factors_without_look(self, monkeypatch):
        # one real copy per channel, and the Krylov space far from running
        # out: the main solve makes every column, within its first fill of
        # 20, and the Ritz step none
        rng = np.random.default_rng(3)
        n = 400
        obs = sample_observations(rng.integers(1, 3, n), random_corruption(0.4, 2),
                                  20 * np.log(n) / n, seed=3)
        L = build(obs, None, "agreement")
        solves = count_solves(monkeypatch)
        for tol in (_WARM_START_TOL, 1e-4):
            solves.clear()
            fac = orthogonal_iteration(L, r=2, tol=tol, seed=4)
            assert len(solves) == 1 and fac.iterations == solves[0][1] < 20
            assert_matches_eigh(L, dense_expansion(obs, L.h), 2, seed=4, tol=tol)

    @pytest.mark.parametrize("k, m, r", [(10, 2, 3), (10, 3, 4), (20, 2, 3), (20, 5, 4)])
    @pytest.mark.parametrize("tol", [_WARM_START_TOL, 1e-4, 1e-8])
    def test_isomorphic_forest(self, monkeypatch, k, m, r, tol):
        # two copies of one tree repeat every eigenvalue within its channel,
        # where neither the Krylov space nor the rotation holds the second
        # copy; trees are bipartite, so the channel of a value t holds -t
        # too, and the look runs
        L, obs = isomorphic_forest(k, m, seed=k + m)
        solves = count_solves(monkeypatch)
        orthogonal_iteration(L, r=r, tol=tol, seed=r)
        assert len(solves) > 1
        assert_matches_eigh(L, dense_expansion(obs, L.h), r, seed=r, tol=tol)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("tol", [_WARM_START_TOL, 1e-4, 1e-8])
    def test_noiseless_needs_the_whole_orbit(self, monkeypatch, seed, tol):
        # noiseless blocks repeat every eigenvalue once in each of the m
        # channels, and one Krylov vector holds all m copies: its images
        # under R and R^2 span them at m = 3, where R alone gives two
        rng = np.random.default_rng(seed)
        obs = sample_observations(rng.integers(1, 4, 80), random_corruption(1.0, 3), 0.1,
                                  seed=seed)
        L = build(obs, None, "agreement")
        solves = count_solves(monkeypatch)
        orthogonal_iteration(L, r=3, tol=tol, seed=seed)
        assert len(solves) == 1
        fac = assert_matches_eigh(L, dense_expansion(obs, L.h), 3, seed=seed, tol=tol)
        np.testing.assert_allclose(fac.S, fac.S[0], rtol=10 * tol)

    @pytest.mark.parametrize("tol", [_WARM_START_TOL, 1e-4, 1e-8])
    def test_complete_graph_still_looks(self, monkeypatch, tol):
        # at 1e-8 and at the warm-start tol the main solve stops before its
        # Krylov space runs out, and channel 0 holds h_0 (n - 1) and one copy
        # of -h_0 among the top 4; at 1e-4 the space runs out first
        L, obs = circulant_instance(5, 5, 1.0, "loglik", 0)
        solves = count_solves(monkeypatch)
        orthogonal_iteration(L, r=4, tol=tol, seed=0)
        assert len(solves) > 1


class TestInitialGuess:
    def test_noiseless_column_recovers_exactly(self):
        # every column of the rank-m truncation points at the true offsets
        L, x = recovery_instance(48, 3, 1.0, seed=8)
        fac = orthogonal_iteration(L, r=3, seed=9)
        for seed in range(5):
            z0 = initial_guess(L, fac, np.inf, seed=seed)
            assert mcr(labels_of(z0), x, 3) == 0.0
        z0 = initial_guess(L, fac, 2.0, seed=0)
        assert mcr(labels_of(z0), x, 3) == 0.0

    def test_feasible_output(self):
        L, _ = recovery_instance(20, 4, 0.4, seed=10)
        fac = orthogonal_iteration(L, r=4, seed=11)
        z0 = initial_guess(L, fac, 1.5, seed=12)
        np.testing.assert_allclose(z0.sum(axis=1), 1.0, atol=1e-9)
        assert z0.min() >= 0.0
        z0 = initial_guess(L, fac, np.inf, seed=12)
        assert set(np.unique(z0)) <= {0.0, 1.0}

    def test_deterministic_per_seed(self):
        L, _ = recovery_instance(20, 3, 0.5, seed=13)
        fac = orthogonal_iteration(L, r=3, seed=14)
        a = initial_guess(L, fac, np.inf, seed=15)
        b = initial_guess(L, fac, np.inf, seed=15)
        np.testing.assert_array_equal(a, b)

    def test_above_threshold_quality(self):
        # well above the recovery threshold the warm start is already close:
        # initial error at most 0.25 in at least 18 of 20 seeded runs
        hits = 0
        for trial in range(20):
            L, x = recovery_instance(500, 4, 0.35, seed=100 + trial)
            fac = orthogonal_iteration(L, r=4, seed=trial)
            z0 = initial_guess(L, fac, np.inf, seed=trial)
            if mcr(labels_of(z0), x, 4) <= 0.25:
                hits += 1
        assert hits >= 18
