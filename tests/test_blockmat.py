import math
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_expansion, entropy, expected_matrix, kl
from ppmalign.blockmat import FORMS, CirculantBlockMatrix, build
from ppmalign.exceptions import RegularizationRequiredError
from ppmalign.likelihood import (
    NoiseDistribution,
    PairwiseObservations,
    random_corruption,
    sample_observations,
)
from ppmalign.spectral import orthogonal_iteration


def random_instance(rng, n=None, m=None, p_obs=None, form="loglik"):
    n = n or int(rng.integers(6, 30))
    m = m or int(rng.integers(2, 9))
    p_obs = p_obs or float(rng.uniform(0.3, 1.0))
    x = rng.integers(1, m + 1, n)
    d = NoiseDistribution(rng.dirichlet(np.ones(m) * 5.0))
    obs = sample_observations(x, d, p_obs, seed=int(rng.integers(2**32)))
    return build(obs, d, form), x, d, obs


def edges(n, m, i, j, y):
    return PairwiseObservations(n=n, m=m, i=i, j=j, y=y)


class TestBuild:
    def test_agreement_single_pair_block(self):
        # one pair (2, 1) with y = 1, m = 3: block has ones where a - b = 1
        L = build(edges(3, 3, [2], [1], [1]), None, "agreement")
        want = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(L.block(2, 1), want)
        np.testing.assert_array_equal(L.block(1, 2), want.T)
        # the block routes mass along the observed shift
        z = np.zeros((3, 3))
        z[1, 0] = 1.0  # e_0 at item 1
        w = L.matvec(z)
        np.testing.assert_array_equal(w[2], [0.0, 1.0, 0.0])

    def test_loglik_cols(self):
        rng = np.random.default_rng(0)
        L, x, d, obs = random_instance(rng, n=8, m=4)
        for e in range(L.n_edges):
            want = np.log(d.p0[(obs.y[e] - np.arange(4)) % 4])
            np.testing.assert_allclose(L.cols[e], want)

    def test_loglik_affine_in_agreement_for_random_corruption(self):
        # log-likelihood block = log((1-pi0)/m) * ones + contrast * agreement
        rng = np.random.default_rng(1)
        m, pi0 = 3, 0.7
        d = random_corruption(pi0, m)
        x = rng.integers(1, m + 1, 10)
        obs = sample_observations(x, d, 1.0, seed=9)
        La = build(obs, None, "agreement")
        Ll = build(obs, d, "loglik")
        base = math.log((1 - pi0) / m)
        contrast = math.log((1 + (m - 1) * pi0) / (1 - pi0))
        np.testing.assert_allclose(
            Ll.cols, base + contrast * La.cols, rtol=1e-12, atol=1e-12
        )

    def test_debiased_blocks(self):
        rng = np.random.default_rng(2)
        Ld, x, d, obs = random_instance(rng, n=10, m=5, form="debiased-loglik")
        Ll = build(obs, d, "loglik")
        # per-block entrywise sum is zero
        np.testing.assert_allclose(Ld.cols.sum(axis=1), 0.0, atol=1e-12)
        # difference to the raw form is the same constant for every block
        diff = Ll.cols - Ld.cols
        np.testing.assert_allclose(diff, np.mean(np.log(d.p0)), atol=1e-12)

    def test_zero_mass_rejected(self):
        rng = np.random.default_rng(3)
        d = random_corruption(1.0, 3)
        x = rng.integers(1, 4, 6)
        obs = sample_observations(x, d, 1.0, seed=0)
        with pytest.raises(RegularizationRequiredError):
            build(obs, d, "loglik")
        build(obs, None, "agreement")  # agreement form is fine

    def test_bad_form(self):
        rng = np.random.default_rng(4)
        _, x, d, obs = random_instance(rng)
        with pytest.raises(ValueError):
            build(obs, d, "raw")
        with pytest.raises(ValueError):
            build(obs, None, "loglik")


class TestMatvec:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        # small and large blocks, odd and even m
        m = int(rng.choice([2, 3, 5, 7, 8, 12, 16, 32]))
        L, _, _, _ = random_instance(rng, m=m)
        dense = dense_expansion(L)
        z = rng.standard_normal((L.n, L.m))
        want = (dense @ z.ravel()).reshape(L.n, L.m)
        got = L.matvec(z)
        assert np.linalg.norm(got - want) <= 1e-8 * max(1.0, np.linalg.norm(want))
        X = rng.standard_normal((L.n * L.m, 4))
        np.testing.assert_allclose(L.matmat(X), dense @ X, atol=1e-8)

    def test_symmetry(self):
        rng = np.random.default_rng(77)
        L, _, _, _ = random_instance(rng, n=15, m=6)
        z = rng.standard_normal((L.n, L.m))
        w = rng.standard_normal((L.n, L.m))
        lhs = float(np.sum(w * L.matvec(z)))
        rhs = float(np.sum(z * L.matvec(w)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_ones_vector_gives_row_sums(self):
        rng = np.random.default_rng(78)
        L, _, _, _ = random_instance(rng, n=12, m=4)
        dense = dense_expansion(L)
        got = L.matvec(np.ones((L.n, L.m)))
        np.testing.assert_allclose(got.ravel(), dense.sum(axis=1), atol=1e-10)

    def test_empty_graph(self):
        L = CirculantBlockMatrix(edges(5, 3, [], [], []), np.ones(3))
        np.testing.assert_array_equal(L.matvec(np.ones((5, 3))), np.zeros((5, 3)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24), m=st.integers(2, 33),
           p_obs=st.sampled_from((0.02, 0.1, 0.4, 1.0)), form=st.sampled_from(FORMS),
           data=st.data())
    def test_products_match_dense_property(self, seed, n, m, p_obs, form, data):
        # asymmetric pmfs make G differ from its transpose; low p_obs gives
        # empty graphs and isolated items
        rng = np.random.default_rng(seed)
        pmf = rng.dirichlet(np.full(m, 0.5))
        d = NoiseDistribution((pmf + 0.01) / (1.0 + 0.01 * m))
        obs = sample_observations(rng.integers(1, m + 1, n), d, p_obs, seed=seed)
        L = build(obs, None if form == "agreement" else d, form)
        dense = dense_expansion(L)
        z = rng.standard_normal((n, m))
        w = rng.standard_normal((n, m))
        Lz = L.matvec(z)
        scale = max(1.0, np.abs(dense).sum(axis=1).max())
        np.testing.assert_allclose(Lz.ravel(), dense @ z.ravel(), rtol=0, atol=1e-12 * scale)
        r = data.draw(st.integers(1, m), label="r")
        X = rng.standard_normal((n * m, r))
        np.testing.assert_allclose(L.matmat(X), dense @ X, rtol=0, atol=1e-12 * scale)
        # the blockwise roll permutes coordinates and commutes with L
        np.testing.assert_array_equal(np.sort(L.rotate(X), axis=0), np.sort(X, axis=0))
        np.testing.assert_allclose(dense @ L.rotate(X), L.rotate(dense @ X), rtol=0,
                                   atol=1e-12 * scale)
        lhs = float(np.sum(w * Lz))
        rhs = float(np.sum(z * L.matvec(w)))
        assert abs(lhs - rhs) <= 1e-10 * scale * n * m

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), m=st.integers(1, 12),
           p_obs=st.sampled_from((0.05, 0.3, 1.0)), form=st.sampled_from(FORMS))
    def test_adjacencies_bit_identical_to_coo_build(self, seed, n, m, p_obs, form):
        # the CSR arrays are built by sorting keys; a COO-to-CSR conversion of
        # the same entries is the reference, and products must agree bit for
        # bit, since even last-bit drift can change an unconverged warm start
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < p_obs
        ii, jj = hi[keep], lo[keep]
        y = rng.integers(0, m, ii.size)
        obs = edges(n, m, ii, jj, y)
        h = np.zeros(m) if form == "agreement" else np.log(rng.dirichlet(np.ones(m)))
        h[0] += 1.0
        if form == "debiased-loglik":
            h -= h.mean()
        L = CirculantBlockMatrix(obs, h)
        ref = CirculantBlockMatrix(obs, h)
        rows = np.concatenate([ii, jj + n])
        src = np.concatenate([jj, ii])
        shift = np.concatenate([y, (-y) % m])
        ref._adj = [
            sp.csr_matrix((np.ones(np.count_nonzero(shift == s)),
                           (rows[shift == s], src[shift == s])), shape=(2 * n, n))
            for s in range(m)
        ]
        for got, want in zip(L._adj, ref._adj):
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)
        X = rng.standard_normal((n * m, 3))
        assert np.array_equal(L.matmat(X), ref.matmat(X))
        z = rng.standard_normal((n, m))
        assert np.array_equal(L.matvec(z), ref.matvec(z))

    def test_constructor_validation(self):
        # the edge list is checked by PairwiseObservations; the operator
        # checks only the generator against m
        obs = edges(3, 2, [2, 1], [0, 0], [0, 1])
        CirculantBlockMatrix(obs, np.zeros(2))
        for h in (np.zeros(3), np.zeros(1), np.zeros((2, 1))):
            with pytest.raises(ValueError, match="generator"):
                CirculantBlockMatrix(obs, h)

    def test_shape_validation(self):
        rng = np.random.default_rng(79)
        L, _, _, _ = random_instance(rng, n=6, m=3)
        with pytest.raises(ValueError):
            L.matvec(np.ones((6, 4)))
        with pytest.raises(ValueError):
            L.matmat(np.ones((7, 2)))

    def test_cost_scales_with_edges(self):
        # doubling n quadruples the edges; time should grow far slower than
        # the dense nm x nm product would (quadratic floor, 16x here)
        rng = np.random.default_rng(80)
        m = 8
        times = []
        for n in (150, 300):
            x = rng.integers(1, m + 1, n)
            d = NoiseDistribution(rng.dirichlet(np.ones(m)))
            obs = sample_observations(x, d, 1.0, seed=1)
            L = build(obs, d, "loglik")
            z = rng.standard_normal((n, m))
            L.matvec(z)  # warm up
            best = math.inf
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(3):
                    L.matvec(z)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        assert times[1] <= 10.0 * times[0]


class TestExpectedMatrix:
    def test_uniform_noise_collapses_to_entropy_rank_one(self):
        d = NoiseDistribution(np.full(4, 0.25))
        E = expected_matrix(3, 4, 0.8, d)
        # KL to every shift is zero, so blocks are -log(m) * ones
        blk = E[4:8, 0:4]
        np.testing.assert_allclose(blk, -0.8 * math.log(4), atol=1e-12)
        np.testing.assert_array_equal(E[0:4, 0:4], np.zeros((4, 4)))

    def test_structure(self):
        d = random_corruption(0.5, 3)
        E = expected_matrix(5, 3, 0.6, d)
        assert np.allclose(E, E.T)
        blk = E[3:6, 0:3]
        want = -0.6 * (np.array([[kl(d.p0, np.roll(d.p0, (a - b) % 3))
                                  for b in range(3)] for a in range(3)]) + entropy(d.p0))
        np.testing.assert_allclose(blk, want, atol=1e-12)

    def test_monte_carlo_agreement(self):
        # the sample mean of built matrices converges to expected_matrix
        rng = np.random.default_rng(5)
        n, m, p_obs = 6, 3, 0.7
        d = random_corruption(0.5, m)
        x = np.ones(n, dtype=int)  # fixed truth: offsets all zero
        reps = 200
        acc = np.zeros((n * m, n * m))
        sq = np.zeros_like(acc)
        for r in range(reps):
            obs = sample_observations(x, d, p_obs, seed=r)
            dense = dense_expansion(build(obs, d, "loglik"))
            acc += dense
            sq += dense**2
        mean = acc / reps
        sem = np.sqrt(np.maximum(sq / reps - mean**2, 0.0) / reps)
        E = expected_matrix(n, m, p_obs, d)
        assert np.all(np.abs(mean - E) <= 5.0 * sem + 1e-9)


class TestSigmaAndSeparation:
    def test_noiseless_equal_labels_sigma(self):
        # complete graph of identity blocks: the top singular value n - 1 is
        # repeated m times, the case a single Krylov space sees only once
        n, m = 24, 3
        x = np.ones(n, dtype=int)
        obs = sample_observations(x, random_corruption(1.0, m), 1.0, seed=0)
        L = build(obs, None, "agreement")
        np.testing.assert_allclose(orthogonal_iteration(L, r=m).S, n - 1, rtol=1e-8)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(6)
        L, _, _, _ = random_instance(rng, n=20, m=3, p_obs=1.0, form="agreement")
        svals = np.linalg.svd(dense_expansion(L), compute_uv=False)
        np.testing.assert_allclose(orthogonal_iteration(L, r=2).S, svals[:2], rtol=1e-6)

    def test_zero_matrix(self):
        L = CirculantBlockMatrix(edges(4, 2, [1], [0], [0]), np.zeros(2))
        assert np.all(orthogonal_iteration(L, r=1).S == 0.0)
