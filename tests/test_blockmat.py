import gc
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    circulant_block,
    dense_expansion,
    entropy,
    expected_matrix,
    kl,
    operator_block,
    per_shift_product,
)
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


def coo_reference_product(n, m, ii, jj, y, h, zb):
    """Product with blocks zb of shape (n, m, r) through (2n, n) adjacencies.

    The operator's former layout: adjacency s holds entry (i, j) for every
    pair with y = s and entry (n + j, i) for every pair with -y = s mod m,
    so its rows 0..n-1 gather the stored orientation and rows n..2n-1 the
    mirrored one.  Built by COO-to-CSR conversion and summed in shift order.
    """
    rows = np.concatenate([ii, jj + n])
    src = np.concatenate([jj, ii])
    shift = np.concatenate([y, (-y) % m])
    r = zb.shape[2]
    zt = np.ascontiguousarray(zb.transpose(0, 2, 1))
    acc = np.zeros((2 * n, r * m))
    for s in range(m):
        at = shift == s
        adj = sp.csr_matrix((np.ones(np.count_nonzero(at)), (rows[at], src[at])), shape=(2 * n, n))
        acc += adj @ np.roll(zt, s, axis=2).reshape(n, r * m)
    acc = acc.reshape(2, n * r, m)
    g = h[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]
    return (acc[0] @ g.T + acc[1] @ g).reshape(n, r, m).transpose(0, 2, 1)


class TestBuild:
    def test_agreement_single_pair_block(self):
        # one pair (2, 1) with y = 1, m = 3: block has ones where a - b = 1
        obs = edges(3, 3, [2], [1], [1])
        L = build(obs, None, "agreement")
        want = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(circulant_block(obs, L.h, 2, 1), want)
        np.testing.assert_array_equal(operator_block(L, 2, 1), want)
        np.testing.assert_array_equal(operator_block(L, 1, 2), want.T)
        # the block routes mass along the observed shift
        z = np.zeros((3, 3))
        z[1, 0] = 1.0  # e_0 at item 1
        w = L.matvec(z)
        np.testing.assert_array_equal(w[2], [0.0, 1.0, 0.0])

    def test_loglik_cols(self):
        rng = np.random.default_rng(0)
        L, x, d, obs = random_instance(rng, n=8, m=4)
        np.testing.assert_array_equal(L.h, np.log(d.p0))
        for e in range(obs.n_edges):
            want = np.log(d.p0[(obs.y[e] - np.arange(4)) % 4])
            np.testing.assert_allclose(operator_block(L, int(obs.i[e]), int(obs.j[e]))[:, 0], want)

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
        np.testing.assert_allclose(Ll.h, base + contrast * La.h, rtol=1e-12, atol=1e-12)

    def test_debiased_blocks(self):
        rng = np.random.default_rng(2)
        Ld, x, d, obs = random_instance(rng, n=10, m=5, form="debiased-loglik")
        Ll = build(obs, d, "loglik")
        # per-block entrywise sum is zero, so every row of Ld sums to zero
        np.testing.assert_allclose(Ld.h.sum(), 0.0, atol=1e-12)
        np.testing.assert_allclose(Ld.matvec(np.ones((10, 5))), 0.0, atol=1e-12)
        # difference to the raw form is the same constant for every block
        diff = Ll.h - Ld.h
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
        L, _, _, obs = random_instance(rng, m=m)
        dense = dense_expansion(obs, L.h)
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
        L, _, _, obs = random_instance(rng, n=12, m=4)
        dense = dense_expansion(obs, L.h)
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
        dense = dense_expansion(obs, L.h)
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
           p_obs=st.sampled_from((0.05, 0.3, 1.0)))
    def test_halves_equal_the_edge_list_conversion(self, seed, n, m, p_obs):
        # the stored keys are the CSC indices that the build once made from
        # the sorted i, j and y arrays, so the halves' arrays are the same;
        # the pairs reach the constructor shuffled
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < p_obs
        ii, jj = hi[keep], lo[keep]
        y = rng.integers(0, m, ii.size)
        order = rng.permutation(ii.size)
        L = CirculantBlockMatrix(edges(n, m, ii[order], jj[order], y[order]), np.ones(m))
        want = sp.csc_matrix((np.ones(ii.size, dtype=bool), y * n + ii,
                              np.searchsorted(jj, np.arange(n + 1))), shape=(m * n, n)).tocsr()
        for s, half in enumerate(L._halves):
            start, stop = want.indptr[s * n], want.indptr[(s + 1) * n]
            np.testing.assert_array_equal(half.indptr, want.indptr[s * n:(s + 1) * n + 1] - start)
            np.testing.assert_array_equal(half.indices, want.indices[start:stop])
            assert half.indices.dtype == half.indptr.dtype == np.int32

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), m=st.integers(1, 12),
           p_obs=st.sampled_from((0.05, 0.3, 1.0)), form=st.sampled_from(FORMS))
    def test_adjacencies_bit_identical_to_coo_build(self, seed, n, m, p_obs, form):
        # the stored halves are sliced out of one conversion of the sorted
        # pairs; a COO-to-CSR conversion of each shift's pairs is the
        # reference.  Products must agree bit for bit with the sum over the
        # old (2n, n) adjacencies, since even last-bit drift can change an
        # unconverged warm start.  m up to 12 covers the self-mirrored
        # shifts s = 0 and s = m/2
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
        for s, (got, mirror) in enumerate(zip(L._halves, L._transposes)):
            at = y == s
            want = sp.csr_matrix((np.ones(np.count_nonzero(at)), (ii[at], jj[at])), shape=(n, n))
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.data, want.data)
            assert mirror.format == "csc" and mirror.shape == (n, n)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(mirror, part), getattr(got, part))
            assert np.array_equal(mirror.toarray(), want.toarray().T)
        for r in (1, 3):
            X = rng.standard_normal((n * m, r))
            want = coo_reference_product(n, m, ii, jj, y, h, X.reshape(n, m, r))
            assert np.array_equal(L.matmat(X), want.reshape(n * m, r))
        z = rng.standard_normal((n, m))
        want = coo_reference_product(n, m, ii, jj, y, h, z[:, :, None])
        assert np.array_equal(L.matvec(z), want[:, :, 0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           p_obs=st.sampled_from((0.0, 0.05, 0.3, 1.0)), form=st.sampled_from(FORMS))
    def test_one_column_at_m2_bit_identical_to_per_shift_product(self, seed, n, p_obs, form):
        # at m = 2 one column takes scipy's 1-D kernel once per shift and
        # label; the sums must equal the 2-vector kernel's bit for bit.
        # p_obs = 0 is the empty graph, 0.05 leaves isolated items
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < p_obs
        obs = edges(n, 2, hi[keep], lo[keep], rng.integers(0, 2, np.count_nonzero(keep)))
        d = NoiseDistribution(rng.dirichlet(np.ones(2)) * 0.98 + 0.01)
        L = build(obs, None if form == "agreement" else d, form)
        z = rng.standard_normal((n, 2))
        want = per_shift_product(L, z[:, :, None])
        assert np.array_equal(L.matvec(z), want[:, :, 0])
        assert np.array_equal(L.matmat(z.reshape(2 * n, 1)), want.reshape(2 * n, 1))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20), m=st.sampled_from((2, 3, 5)),
           p_obs=st.sampled_from((0.0, 0.3, 1.0)), form=st.sampled_from(FORMS))
    def test_permuted_edge_list_gives_the_same_products(self, seed, n, m, p_obs, form):
        # the build reads the pairs in the (j, i) order PairwiseObservations
        # stores; an edge list in any other order must give the same operator.
        # p_obs = 0 is the empty graph and p_obs = 1 the complete one
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < p_obs
        ii, jj = hi[keep], lo[keep]
        y = rng.integers(0, m, ii.size)
        perm = rng.permutation(ii.size)
        d = NoiseDistribution(rng.dirichlet(np.ones(m) * 5.0))
        d = None if form == "agreement" else d
        obs = edges(n, m, ii, jj, y)
        ordered = build(obs, d, form)
        permuted = build(edges(n, m, ii[perm], jj[perm], y[perm]), d, form)
        dense = dense_expansion(obs, ordered.h)
        scale = max(1.0, np.abs(dense).sum(axis=1).max())
        z = rng.standard_normal((n, m))
        X = rng.standard_normal((n * m, 3))
        products = ((permuted.matvec(z), ordered.matvec(z), (dense @ z.ravel()).reshape(n, m)),
                    (permuted.matmat(X), ordered.matmat(X), dense @ X))
        for got, want, oracle in products:
            assert np.array_equal(got, want)
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-12 * scale)

    def test_shifts_share_one_array_of_ones(self):
        # equal labels and mostly uncorrupted pairs leave shifts 1..4 far under
        # half of shift 0's entries, where scipy would copy a slice of the
        # ones and of the indices, both for the stored halves and for their
        # transposed views.  The indices of all of them are slices of one
        # conversion's output
        obs = sample_observations(np.ones(60, dtype=int), random_corruption(0.9, 5), 1.0, seed=4)
        L = build(obs)
        sizes = [a.nnz for a in L._halves]
        assert 2 * min(sizes) < max(sizes)
        ones = L._halves[int(np.argmax(sizes))].data
        indices = L._halves[0].indices.base
        assert indices is not None and indices.size == sum(sizes)
        for a in L._halves + L._transposes:
            assert np.shares_memory(a.data, ones) and a.data.flags.writeable
            np.testing.assert_array_equal(a.data, 1.0)
            assert np.shares_memory(a.indices, indices)

    def test_live_bytes_per_pair_without_the_observations(self):
        # once the observations are dropped, only the operator stays live:
        # one int32 index per pair and the shared ones, as long as the
        # fullest half, about 8 B per pair at m = 2.  A kept edge list would
        # add 12 B, and copies of the shorter halves' indices about 2 B
        n, m = 20_000, 2
        x = np.random.default_rng(5).integers(1, m + 1, n)
        d = random_corruption(0.5, m)
        tracemalloc.start()
        try:
            obs = sample_observations(x, d, 20 * math.log(n) / n, seed=6)
            pairs = obs.n_edges
            L = build(obs, d, "agreement")
            del obs
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live / pairs < 9

    def test_operator_keeps_no_reference_to_the_observations(self):
        obs = sample_observations(np.arange(1, 31) % 3 + 1, random_corruption(0.7, 3), 0.5, seed=2)
        refs = [weakref.ref(obs), weakref.ref(obs.key), weakref.ref(obs.colptr)]
        L = build(obs)
        del obs
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert {name for name in dir(L) if not name.startswith("_")} == {
            "n", "m", "h", "shape", "matvec", "matmat", "rotate"}

    def test_sample_and_build_peak_bytes_per_edge(self):
        # the build sets the overall peak, about 12.3 B per pair: the 4 B
        # keys, the conversion's output and then the shared ones.  The
        # sampler peaks at about 5 B.  Three edge columns, as the sampler
        # kept them, peaked at 24 B, and the build 11 B above them; int64
        # columns, per-shift copies of the ones or scipy's own copies of the
        # shorter halves' indices would also break the bounds
        n, m = 20_000, 2
        x = np.random.default_rng(5).integers(1, m + 1, n)
        d = random_corruption(0.5, m)
        tracemalloc.start()
        try:
            obs = sample_observations(x, d, 20 * math.log(n) / n, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            L = build(obs, d, "agreement")
            build_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(peak, build_peak) / obs.n_edges < 16
        assert (build_peak - live) / obs.n_edges < 10
        ones = L._halves[0].data
        assert all(np.shares_memory(a.data, ones) for a in L._halves + L._transposes)

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
            dense = dense_expansion(obs, build(obs, d, "loglik").h)
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
        L, _, _, obs = random_instance(rng, n=20, m=3, p_obs=1.0, form="agreement")
        svals = np.linalg.svd(dense_expansion(obs, L.h), compute_uv=False)
        np.testing.assert_allclose(orthogonal_iteration(L, r=2).S, svals[:2], rtol=1e-6)

    def test_zero_matrix(self):
        L = CirculantBlockMatrix(edges(4, 2, [1], [0], [0]), np.zeros(2))
        assert np.all(orthogonal_iteration(L, r=1).S == 0.0)
