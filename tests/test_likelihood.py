import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    circulant_block,
    entropy,
    examples,
    hellinger_sq,
    kl,
    one_shot_regularize_residues,
    one_shot_sample_observations,
    operator_block,
    per_pair_sample_observations,
    total_variation,
)
from ppmalign import likelihood
from ppmalign.blockmat import build
from ppmalign.exceptions import RegularizationRequiredError
from ppmalign.matching import (
    MatchObservations,
    input_mismatch_rate,
    match_solve,
    mismatch_rate,
    sample_match_observations,
)
from ppmalign.likelihood import (
    NoiseDistribution,
    PairwiseObservations,
    _edge_list,
    _geometric,
    _int_array,
    _observed_pairs,
    _pair_of_rank,
    _row_starts,
    kl_min_max,
    modified_gaussian,
    random_corruption,
    regularize,
    regularize_observations,
    sample_observations,
    threshold_kl,
    threshold_random_corruption,
)
from ppmalign.solver import ScalingPolicy, check_contraction, lift, mcr, solve


class TestDistributions:
    def test_random_corruption_values(self):
        d = random_corruption(0.5, 2)
        np.testing.assert_allclose(d.p0, [0.75, 0.25], atol=1e-15)
        d = random_corruption(0.3, 5)
        np.testing.assert_allclose(d.p0[0], 0.3 + 0.7 / 5)
        np.testing.assert_allclose(d.p0[1:], 0.7 / 5)

    def test_random_corruption_range_checks(self):
        with pytest.raises(ValueError):
            random_corruption(-0.1, 3)
        with pytest.raises(ValueError):
            random_corruption(1.1, 3)
        with pytest.raises(ValueError):
            random_corruption(0.5, 1)

    def test_modified_gaussian_m3(self):
        d = modified_gaussian(1.0, 3)
        w = math.exp(-0.5)
        np.testing.assert_allclose(d.p0, np.array([1.0, w, w]) / (1 + 2 * w), atol=1e-15)

    def test_modified_gaussian_shapes(self):
        # wide sigma flattens toward uniform, narrow concentrates at 0
        flat = modified_gaussian(100.0, 9)
        np.testing.assert_allclose(flat.p0, np.full(9, 1 / 9), atol=1e-3)
        sharp = modified_gaussian(0.1, 9)
        assert sharp.p0[0] > 0.999
        with pytest.raises(ValueError):
            modified_gaussian(1.0, 4)
        with pytest.raises(ValueError):
            modified_gaussian(0.0, 5)

    @pytest.mark.parametrize("sigma", [1e155, 1e200, 1e308, np.float64(1e308), math.inf])
    def test_modified_gaussian_huge_sigma_is_uniform(self, sigma):
        # sigma^2 overflows here, and raised OverflowError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = modified_gaussian(sigma, 5)
        np.testing.assert_array_equal(d.p0, np.full(5, 0.2))

    @pytest.mark.parametrize("sigma", [0.02, 1e-160, 1e-300, 1e-320, 5e-324, np.float64(5e-324)])
    def test_modified_gaussian_tiny_sigma_is_a_point_mass(self, sigma):
        # sigma^2 underflows to 0 here, and the weights came out nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = modified_gaussian(sigma, 7)
        np.testing.assert_array_equal(d.p0, np.eye(7)[0])

    def test_custom_distribution_validation(self):
        with pytest.raises(ValueError):
            NoiseDistribution(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            NoiseDistribution(np.array([1.2, -0.2]))
        for p0 in ([1.0], np.full((2, 2), 0.25)):
            with pytest.raises(ValueError, match=re.escape("pmf must be 1-d with m >= 2")):
                NoiseDistribution(p0)
        d = NoiseDistribution(np.array([0.2, 0.5, 0.3]))
        assert d.m == 3 and d.min_mass == 0.2

    @pytest.mark.parametrize("p0", [[1e308, 1e308], [1.5, 1e308, 0.0], [np.inf, 0.0]])
    def test_entry_above_one_rejected_before_the_sum(self, p0):
        # the sum of [1e308, 1e308] overflows, which is a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must not exceed 1"):
                NoiseDistribution(np.array(p0))

    def test_regularize(self):
        d = random_corruption(1.0, 4)  # degenerate: all mass on 0
        r = regularize(d, 0.01)
        assert r.min_mass >= 0.01 / 4 - 1e-15
        np.testing.assert_allclose(r.p0.sum(), 1.0, atol=1e-12)
        assert total_variation(d.p0, r.p0) <= 0.01 + 1e-12
        with pytest.raises(ValueError):
            regularize(d, 0.0)


class TestDivergences:
    def test_kl_worked_example(self):
        # 0.75 ln 3 - 0.25 ln 3 = (ln 3)/2
        got = kl([0.75, 0.25], [0.25, 0.75])
        np.testing.assert_allclose(got, 0.5 * math.log(3.0), atol=1e-14)

    def test_hellinger_worked_example(self):
        # (sqrt(3)/2 - 1/2)^2 = 1 - sqrt(3)/2
        got = hellinger_sq([0.75, 0.25], [0.25, 0.75])
        np.testing.assert_allclose(got, 1.0 - math.sqrt(3.0) / 2.0, atol=1e-14)

    def test_kl_basics(self):
        # kl_min_max against the oracle over every nonzero shift: zero
        # only for uniform noise, positive otherwise, +inf on missing support
        assert kl_min_max(NoiseDistribution(np.full(4, 0.25))) == (0.0, 0.0)
        assert kl_min_max(random_corruption(1.0, 3)) == (math.inf, math.inf)
        # a shift by 2 keeps the support of [0.5, 0, 0.5, 0], a shift by 1 misses it
        assert kl_min_max(NoiseDistribution([0.5, 0.0, 0.5, 0.0])) == (0.0, math.inf)
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            want = [kl(p, np.roll(p, l)) for l in range(1, 4)]
            got = kl_min_max(NoiseDistribution(p))
            assert got == (min(want), max(want))
            assert got[0] > 0.0

    def test_pinsker(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            tv = min(total_variation(p, np.roll(p, l)) for l in range(1, 5))
            assert kl_min_max(NoiseDistribution(p))[0] >= 2.0 * tv**2 - 1e-12

    def test_kl_close_to_four_hellinger_when_small(self):
        # in the weak-signal regime KL and 4 H^2 agree within a factor 1.5
        for m in (2, 3, 5):
            for pi0 in np.linspace(0.005, 0.08, 12):
                d = random_corruption(pi0, m)
                k, _ = kl_min_max(d)
                if not 0 < k <= 0.01:
                    continue
                h = hellinger_sq(d.p0, np.roll(d.p0, 1))
                assert abs(k - 4.0 * h) <= 0.5 * k

    def test_kl_min_max_closed_form_random_corruption(self):
        # every nonzero shift has the same divergence:
        # pi0 * log((1 + (m-1) pi0) / (1 - pi0))
        for m in (2, 3, 6):
            for pi0 in (0.1, 0.35, 0.8):
                d = random_corruption(pi0, m)
                lo, hi = kl_min_max(d)
                want = pi0 * math.log((1 + (m - 1) * pi0) / (1 - pi0))
                np.testing.assert_allclose([lo, hi], [want, want], rtol=1e-12)

    def test_log_ratio_l1_closed_form_random_corruption(self):
        # the block contrast: sum_y |log P0(y)/P_l(y)| = 2 log((1+(m-1)pi0)/(1-pi0))
        m, pi0 = 4, 0.6
        d = random_corruption(pi0, m)
        for l in range(1, m):
            ratio = np.abs(np.log(d.p0) - np.log(np.roll(d.p0, l)))
            want = 2.0 * math.log((1 + (m - 1) * pi0) / (1 - pi0))
            np.testing.assert_allclose(ratio.sum(), want, rtol=1e-12)

    def test_entropy(self):
        np.testing.assert_allclose(entropy(np.full(8, 0.125)), math.log(8), atol=1e-14)
        assert entropy([1.0, 0.0]) == 0.0

    def test_mismatched_support(self):
        with pytest.raises(ValueError):
            kl([0.5, 0.5], [0.3, 0.3, 0.4])


class TestThresholds:
    def test_random_corruption_threshold_value(self):
        got = threshold_random_corruption(1000, 2, 1.0)
        want = 2.0 * math.sqrt(1.01 * math.log(1000) / (2 * 1000))
        np.testing.assert_allclose(got, want, rtol=1e-15)
        np.testing.assert_allclose(got, 0.1181, atol=5e-5)

    def test_sufficient_necessary_ratio(self):
        s = threshold_random_corruption(300, 5, 0.4, constant=1.01)
        n = threshold_random_corruption(300, 5, 0.4, constant=0.99)
        np.testing.assert_allclose(s / n, math.sqrt(1.01 / 0.99), rtol=1e-12)

    def test_kl_threshold_values(self):
        s, n = threshold_kl(1000, 1.0)
        np.testing.assert_allclose(s, 4.01 * math.log(1000) / 1000, rtol=1e-15)
        np.testing.assert_allclose(n, 3.99 * math.log(1000) / 1000, rtol=1e-15)
        np.testing.assert_allclose([s, n], [0.027700, 0.027562], atol=1e-6)

    def test_threshold_scaling(self):
        # halving p_obs scales the pi0 threshold by sqrt(2), the KL one by 2
        a = threshold_random_corruption(500, 3, 1.0)
        b = threshold_random_corruption(500, 3, 0.5)
        np.testing.assert_allclose(b / a, math.sqrt(2.0), rtol=1e-12)
        sa, _ = threshold_kl(500, 1.0)
        sb, _ = threshold_kl(500, 0.5)
        np.testing.assert_allclose(sb / sa, 2.0, rtol=1e-12)

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            threshold_random_corruption(1, 2, 1.0)
        with pytest.raises(ValueError):
            threshold_kl(100, 0.0)


class TestLoglikBlock:
    def test_entries_and_circulant_structure(self):
        d = NoiseDistribution(np.array([0.5, 0.3, 0.2]))
        obs = sample_observations(np.array([1, 2, 3, 1]), d, 1.0, seed=0)
        L = build(obs, d, "loglik")
        for e in range(obs.n_edges):
            i, j, y = int(obs.i[e]), int(obs.j[e]), int(obs.y[e])
            blk = operator_block(L, i, j)
            for a in range(3):
                for b in range(3):
                    assert blk[a, b] == math.log(d.p0[(y - a + b) % 3])
            # circulant: the generator's first column generates the block
            np.testing.assert_array_equal(blk, circulant_block(obs, L.h, i, j))

    def test_zero_mass_raises_with_residue(self):
        d = random_corruption(1.0, 3)  # zero mass off 0
        obs = sample_observations(np.array([1, 2, 3]), d, 1.0, seed=0)
        with pytest.raises(RegularizationRequiredError) as exc:
            build(obs, d, "loglik")
        assert exc.value.residue in (1, 2)


class TestObservations:
    def test_deterministic_and_complete_at_full_rate(self):
        x = np.array([1, 3, 2, 3, 1, 2])
        d = random_corruption(0.6, 3)
        a = sample_observations(x, d, 1.0, seed=42)
        b = sample_observations(x, d, 1.0, seed=42)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.i, b.i)
        assert a.n_edges == 15
        assert np.all(a.i > a.j)

    def test_noiseless_differences(self):
        x = np.array([2, 1, 3, 3, 2])
        obs = sample_observations(x, random_corruption(1.0, 3), 1.0, seed=0)
        for e in range(obs.n_edges):
            i, j = int(obs.i[e]), int(obs.j[e])
            assert obs.y[e] == (x[i] - x[j]) % 3

    def test_mirror_convention(self):
        # the mirrored reading is y_ji = (m - y_ij) mod m: the agreement
        # block (j, i) marks a - b = -y_ij where block (i, j) marks y_ij
        x = np.array([1, 2, 4, 3])
        obs = sample_observations(x, random_corruption(0.5, 4), 1.0, seed=3)
        L = build(obs, None, "agreement")
        a, b = np.indices((4, 4))
        for e in range(obs.n_edges):
            i, j = int(obs.i[e]), int(obs.j[e])
            np.testing.assert_array_equal(operator_block(L, i, j), (a - b) % 4 == obs.y[e])
            np.testing.assert_array_equal(operator_block(L, j, i),
                                          (a - b) % 4 == (4 - obs.y[e]) % 4)

    def test_sampling_rate(self):
        x = np.ones(60, dtype=int)
        obs = sample_observations(x, random_corruption(0.5, 2), 0.3, seed=7)
        total = 60 * 59 // 2
        assert 0.2 * total < obs.n_edges < 0.4 * total

    def test_noise_frequencies(self):
        # with all labels equal, observed residues are raw noise draws
        x = np.ones(120, dtype=int)
        d = NoiseDistribution(np.array([0.6, 0.3, 0.1]))
        obs = sample_observations(x, d, 1.0, seed=11)
        freq = np.bincount(obs.y, minlength=3) / obs.n_edges
        np.testing.assert_allclose(freq, d.p0, atol=0.02)

    def test_label_validation(self):
        d = random_corruption(0.5, 3)
        with pytest.raises(ValueError):
            sample_observations([0, 1, 2], d, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_observations([1, 4], d, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_observations([1, 2], d, 0.0, seed=0)
        with pytest.raises(ValueError, match="need at least two items"):
            sample_observations([1], d, 1.0, seed=0)

    @pytest.mark.parametrize("x", [[1.5, 2.7, 3.2], [1.0, 2.0, 3.0], [True, False, True]])
    def test_non_integer_labels_rejected(self, x):
        # truncation would read [1.5, 2.7, 3.2] as [1, 2, 3]
        with pytest.raises(ValueError, match="labels must be integers"):
            sample_observations(x, random_corruption(1.0, 3), 1.0, seed=0)

    def test_csv_round_trip(self):
        x = np.array([1, 2, 3, 1, 2])
        obs = sample_observations(x, random_corruption(0.4, 3), 0.8, seed=5)
        text = obs.to_csv()
        assert text.startswith("i,j,y\n")
        assert "\r" not in text
        back = PairwiseObservations.from_csv(text, n=5, m=3)
        np.testing.assert_array_equal(back.i, obs.i)
        np.testing.assert_array_equal(back.j, obs.j)
        np.testing.assert_array_equal(back.y, obs.y)

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairwiseObservations.from_csv("i,j,y\n2,0,1\n3,1,0\n2,0,1\n", n=4, m=2)
        with pytest.raises(ValueError, match="duplicate"):
            PairwiseObservations(n=4, m=2, i=np.array([2, 2]),
                                 j=np.array([1, 1]), y=np.array([0, 1]))
        # unsorted but distinct pairs are fine
        obs = PairwiseObservations.from_csv("i,j,y\n3,1,0\n2,0,1\n", n=4, m=2)
        assert obs.n_edges == 2

    def test_regularize_observations(self):
        x = np.ones(80, dtype=int)
        obs = sample_observations(x, random_corruption(1.0, 4), 1.0, seed=1)
        reg = regularize_observations(obs, 0.25, seed=2)
        changed = np.mean(reg.y != obs.y)
        # a quarter of edges rerandomized, of which 3/4 actually move
        assert 0.1 < changed < 0.3
        again = regularize_observations(obs, 0.25, seed=2)
        np.testing.assert_array_equal(reg.y, again.y)
        with pytest.raises(ValueError, match=re.escape("varsigma must lie in (0, 1)")):
            regularize_observations(obs, 0.0, 0)


def pairwise(n, i, j):
    return PairwiseObservations(n=n, m=2, i=i, j=j, y=np.zeros(len(i), dtype=int))


def matched(n, i, j):
    return MatchObservations(n=n, m=2, ii=i, jj=j, blocks=np.zeros((len(i), 2, 2)))


class TestEdgeList:
    """One check of the edge list serves both observation types."""

    @pytest.mark.parametrize("family", [pairwise, matched], ids=["pairwise", "match"])
    @pytest.mark.parametrize("i, j, message", [
        ([2, 1], [0], "edge arrays must be aligned 1-d arrays"),
        (np.array([[2]]), np.array([[0]]), "edge arrays must be aligned 1-d arrays"),
        ([1, 2], [2, 1], "edges must be stored with i > j"),
        ([1], [1], "edges must be stored with i > j"),
        ([3, 2], [0, 1], "edge endpoints must lie in 0..2"),
        ([2], [-1], "edge endpoints must lie in 0..2"),
        ([2, 2], [1, 1], "duplicate pair in observations"),
        ([2, 1, 2], [0, 0, 0], "duplicate pair in observations"),
        (np.array([2.0, 1.5]), np.array([0, 0]), "edge endpoints must be integers"),
    ], ids=["misaligned", "2-d", "i<j", "i=j", "i>=n", "j<0", "repeat-sorted",
            "repeat-unsorted", "float"])
    def test_same_rejection_for_both_families(self, family, i, j, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            family(3, i, j)

    @pytest.mark.parametrize("family", [pairwise, matched], ids=["pairwise", "match"])
    def test_accepts_unsorted_distinct_pairs_and_lists(self, family):
        obs = family(4, [2, 1, 3, 2], [1, 0, 0, 0])
        if family is pairwise:
            # stored sorted by (j, i), the order the operator build relies on
            edges, want = (obs.i, obs.j, obs.y), ([1, 2, 3, 2], [0, 0, 0, 1], [0, 0, 0, 0])
        else:
            edges, want = (obs.ii, obs.jj), ([2, 1, 3, 2], [1, 0, 0, 0])
        for got, w in zip(edges, want):
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, w)
        assert family(4, [], []).n_edges == 0

    def test_int64_input_kept_and_narrow_input_widened(self):
        # from n m = 2^31 on (m = 2 here) the edge columns are int64, and the
        # check returns input already in that dtype uncopied
        i, j = np.array([1, 2]), np.array([0, 0], dtype=np.int32)
        got_i, got_j, _ = _edge_list(2**30, 2, i, j)
        assert got_i is i and got_j.dtype == np.int64
        obs = matched(2**30, i, j)
        assert obs.ii is i and obs.jj.dtype == np.int64
        # the pairwise keys y n + i take the same dtype; a large m reaches
        # 2^31 with a short pointer over j
        obs = PairwiseObservations(n=4, m=2**29, i=i, j=j, y=[0, 2**29 - 1])
        assert obs.key.dtype == obs.i.dtype == obs.j.dtype == obs.y.dtype == np.int64
        np.testing.assert_array_equal(obs.y, [0, 2**29 - 1])

    def test_int32_input_kept_and_wide_input_narrowed(self):
        # below n m = 2^31 they are int32
        i, j = np.array([1, 2], dtype=np.int32), np.array([0, 0])
        got_i, got_j, _ = _edge_list(2**30 - 1, 2, i, j)
        assert got_i is i and got_j.dtype == np.int32
        obs = matched(2**30 - 1, i, j)
        assert obs.ii is i and obs.jj.dtype == np.int32
        m = 2**29 - 1
        obs = PairwiseObservations(n=4, m=m, i=i, j=j, y=[0, m - 1])
        assert obs.key.dtype == obs.i.dtype == obs.j.dtype == obs.y.dtype == np.int32
        np.testing.assert_array_equal(obs.y, [0, m - 1])

    @pytest.mark.parametrize("n, m", [(0, 2), (-3, 2), (3, 0)])
    def test_no_items_or_no_labels_rejected(self, n, m):
        # they were accepted, and the operator build then failed on a zero
        # slice step (n = 0), a negative shape (n < 0) or an IndexError (m = 0)
        message = "^need n >= 1 items and m >= 1 features$"
        with pytest.raises(ValueError, match=message):
            PairwiseObservations(n=n, m=m, i=[], j=[], y=[])
        with pytest.raises(ValueError, match=message):
            PairwiseObservations.from_csv("i,j,y\n", n=n, m=m)
        with pytest.raises(ValueError, match=message):
            _edge_list(n, m, [], [])

    @pytest.mark.parametrize("call", [
        lambda: _edge_list(2**62, 2, [], []),
        lambda: PairwiseObservations(n=3, m=2**62, i=[], j=[], y=[]),
        lambda: MatchObservations.from_csv("i,j,row,col,value\n", n=10**20, m=3),
        lambda: sample_match_observations(10**20, 3, 0.5, seed=0),
    ], ids=["edge-list", "pairwise", "match-csv", "match-sampler"])
    def test_n_m_beyond_int64_rejected(self, call):
        # no index dtype holds the key y n + i; the sampler raised OverflowError
        # and the loader computed i n + j in int64 before
        with pytest.raises(ValueError, match="is beyond int64$"):
            call()

    @pytest.mark.parametrize("y", [[0, 2], [-1, 0]])
    def test_residues_out_of_range_rejected(self, y):
        with pytest.raises(ValueError, match="^residues must lie in 0..1$"):
            PairwiseObservations(n=3, m=2, i=[2, 1], j=[0, 0], y=y)

    def test_float_residues_rejected(self):
        # they were truncated by the operator, y = [0.5, 2.7] acting as [0, 2]
        with pytest.raises(ValueError, match="integers"):
            PairwiseObservations(n=3, m=3, i=np.array([2, 1]),
                                 j=np.array([0, 0]), y=np.array([0.5, 2.7]))

    def test_float_indices_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            PairwiseObservations(n=3, m=3, i=np.array([2.0, 1.5]),
                                 j=np.array([0.0, 0.0]), y=np.array([0, 1]))

    def test_lists_accepted(self):
        obs = PairwiseObservations(n=3, m=3, i=[2, 1], j=[0, 0], y=[1, 2])
        L = build(obs)
        np.testing.assert_array_equal(operator_block(L, 2, 0), operator_block(L, 0, 2).T)
        assert obs.i.dtype == obs.j.dtype == obs.y.dtype == np.int32

    @pytest.mark.parametrize("text, line", [
        ("i,j,y\n3,0\n1,4\n1,0\n", 2),  # loaded as two edges before
        ("i,j,y\n3,0,1,1\n", 2),
        ("i,j,y\n3,0,1\n\n2,x,0\n", 4),
    ])
    def test_csv_field_count_and_type_checked_per_line(self, text, line):
        with pytest.raises(ValueError, match=f"^line {line}: expected i,j,y"):
            PairwiseObservations.from_csv(text, n=5, m=2)

    @pytest.mark.parametrize("load, text, line", [
        (lambda t: PairwiseObservations.from_csv(t, n=5, m=2),
         "i,j,y\n3,0,1\n99999999999999999999,0,1\n", 3),
        (lambda t: PairwiseObservations.from_csv(t, n=5, m=2),
         "i,j,y\n3,-99999999999999999999,1\n", 2),
        (lambda t: MatchObservations.from_csv(t, n=5, m=1),
         "i,j,row,col,value\n2,0,99999999999999999999,0,1\n", 2),
    ], ids=["pairwise", "pairwise-negative", "match"])
    def test_csv_integer_beyond_int64_names_its_line(self, load, text, line):
        # not an OverflowError from the int64 conversion, which names no line
        with pytest.raises(ValueError, match=f"^line {line}: expected i,j,"):
            load(text)

    def test_csv_empty_edge_list_is_the_empty_graph(self):
        obs = PairwiseObservations.from_csv("i,j,y\n", n=5, m=2)
        assert obs.n_edges == 0 and obs.i.dtype == np.int32
        with pytest.raises(ValueError, match="header"):
            PairwiseObservations.from_csv("", n=5, m=2)


def _label_readers():
    """Each reader of a label or permutation array, as (valid array, call
    with an array in its place): labels in 1..3, features in 0..2."""
    x = np.array([1, 2, 3, 1, 2])
    d = random_corruption(0.9, 3)
    L = build(sample_observations(x, d, 1.0, seed=0))
    obs, perms = sample_match_observations(5, 3, 0.2, seed=0)
    inf = ScalingPolicy.infinite()
    return {
        "sample_observations": (x, lambda a: sample_observations(a, d, 1.0, seed=0)),
        "lift": (x, lambda a: lift(a, 3)),
        "mcr": (x, lambda a: mcr(x, a, 3)),
        "solve": (x, lambda a: solve(L, lift(x, 3), inf, 2, truth=a)),
        "check_contraction": (x, lambda a: check_contraction(L, a, inf, trials=2)),
        "mismatch_rate": (perms, lambda a: mismatch_rate(perms, a)),
        "match_solve": (perms, lambda a: match_solve(obs, 2, seed=0, truth=a)),
        "input_mismatch_rate": (perms, lambda a: input_mismatch_rate(obs, a)),
    }


def _with_first(good, value):
    """good as nested lists, its first entry replaced by value."""
    bad = good.tolist()
    (bad[0] if good.ndim == 2 else bad)[0] = value
    return bad


class TestLabelArrays:
    @pytest.mark.parametrize("kind", ["float", "bool", "beyond int64", "2^63", "out of range"])
    @pytest.mark.parametrize("reader", list(_label_readers()))
    def test_every_reader_rejects_what_a_cast_would_misread(self, reader, kind):
        # the parent's int64 casts truncated floats, read bools as 0 and 1
        # and overflowed on 2^70
        good, call = _label_readers()[reader]
        call(good)
        hi = good.max() if good.ndim == 1 else good.shape[1] - 1
        bad = {"float": good + 0.5, "bool": good == good.flat[0],
               "beyond int64": _with_first(good, 2**70), "2^63": _with_first(good, 2**63),
               "out of range": _with_first(good, hi + 1)}[kind]
        with pytest.raises(ValueError, match="must be integers|must lie in"):
            call(bad)

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t[:-1], "permutations"),  # one item short
        (lambda t: t[:, :2], "permutations"),  # one feature short
        (lambda t: np.r_[[[0, 0, 1]], t[1:]], "permutations"),  # a row that repeats 0
        (lambda t: t[0], "2-d"),
    ], ids=["item short", "feature short", "repeated feature", "1-d"])
    def test_input_mismatch_needs_one_permutation_per_item(self, edit, message):
        # the argsort inverse scored a row [0, 0, 1] as if it were one
        obs, truth = sample_match_observations(5, 3, 0.2, seed=0)
        with pytest.raises(ValueError, match=message):
            input_mismatch_rate(obs, edit(truth))

    def test_int64_is_not_copied_and_lists_are_read(self):
        x = np.array([1, 3, 2], dtype=np.int64)
        assert _int_array(x, "labels", 1, 1, 3) is x
        for a in ([1, 3, 2], x.astype(np.uint8), x.astype(np.int32)):
            got = _int_array(a, "labels", 1, 1, 3)
            assert got.dtype == np.int64 and got.tobytes() == x.tobytes()
        # an empty array holds nothing to misread, whatever its dtype
        assert _int_array([], "labels", 1, 1, 3).dtype == np.int64


class _FixedGaps:
    """Stands in for a Generator whose geometric(p) draws, p < 1/3, are all
    ``gap``: each standard exponential E is one that ceil(E / -log1p(-p))
    takes to ``gap``, or past 2^63 for the int64 maximum."""

    def __init__(self, gap, p):
        self.exponential = (gap - 0.5) * -math.log1p(-p)

    def standard_exponential(self, out):
        out.fill(self.exponential)
        return out


def _rows_of(first, counts):
    """The row of each rank, from the (first row, counts) ``_pair_of_rank`` returns."""
    return np.repeat(np.arange(first, first + counts.size), counts)


class TestPairSampler:
    @settings(max_examples=examples(80), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
           p_obs=st.one_of(
               st.floats(min_value=1e-300, max_value=1.0),
               st.sampled_from([1e-300, 1e-12, 1e-6, 1.0 - 1e-12, 1.0 - 1e-6, 1.0]),
           ))
    def test_pairs_valid_sorted_and_complete_at_full_rate(self, seed, n, p_obs):
        x = np.random.default_rng(seed).integers(1, 4, n)
        obs = sample_observations(x, random_corruption(0.5, 3), p_obs, seed)
        i, j = obs.i, obs.j
        assert i.dtype == j.dtype == obs.y.dtype == np.int32
        assert np.all((0 <= j) & (j < i) & (i < n))
        key = j * n + i
        assert np.all(np.diff(key) > 0)
        if p_obs == 1.0:
            assert obs.n_edges == n * (n - 1) // 2

    @pytest.mark.parametrize("n,m,seed", [(2, 2, 0), (5, 3, 1), (37, 4, 2),
                                          (500, 2, 3), (1000, 5, 4)])
    def test_full_rate_byte_equal_to_per_pair_sampler(self, n, m, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.integers(1, m + 1, n)
        d = NoiseDistribution(rng.dirichlet(np.ones(m)))
        got = sample_observations(x, d, 1.0, seed)
        want = per_pair_sample_observations(x, d, 1.0, seed)
        for name in ("i", "j", "y"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("n", [2, 3, 4, 17, 1000, 65537, 200_000, 10**7])
    def test_unrank_exact_at_row_ends(self, n):
        if n <= 200_000:
            a = np.arange(n - 1, dtype=np.int64)
        else:
            # the rows at both ends and a spread in between; the row table
            # takes O(n) memory, which caps n here
            a = np.unique(np.concatenate([np.arange(3000), np.arange(n - 3001, n - 1),
                                          np.arange(0, n - 1, n // 30000)]))
        first = a * (2 * n - a - 1) // 2
        last = first + (n - 2 - a)
        # ascending: each row's first rank, then its last
        k = np.stack([first, last], axis=1).ravel()
        cols = np.empty(k.size, dtype=np.int32)
        rows = _rows_of(*_pair_of_rank(k, _row_starts(n), cols))
        np.testing.assert_array_equal(rows, np.repeat(a, 2))
        np.testing.assert_array_equal(
            cols, np.stack([a + 1, np.full(a.size, n - 1)], axis=1).ravel())

    @settings(max_examples=examples(100), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
           density=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    def test_unrank_matches_triu_indices(self, seed, n, density):
        total = n * (n - 1) // 2
        k = np.flatnonzero(np.random.default_rng(seed).random(total) < density)
        cols = np.empty(k.size, dtype=np.int32)
        rows = _rows_of(*_pair_of_rank(k, _row_starts(n), cols))
        ra, rb = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(rows, ra[k])
        np.testing.assert_array_equal(cols, rb[k])

    @pytest.mark.parametrize("p_obs", [0, -0.5, 1.5, math.nan])
    def test_rate_outside_unit_interval_rejected(self, p_obs):
        with pytest.raises(ValueError, match="p_obs"):
            _observed_pairs(5, p_obs, np.random.default_rng(0), np.int32)
        with pytest.raises(ValueError, match="p_obs"):
            sample_observations(np.ones(5, dtype=int), random_corruption(0.5, 2), p_obs, 0)
        with pytest.raises(ValueError, match="p_obs"):
            sample_match_observations(5, 2, 0.1, seed=0, p_obs=p_obs)

    @pytest.mark.parametrize("gap", [1, 2, 7])
    def test_sweep_runs_on_across_blocks(self, gap):
        # fixed gaps outlast every block, so the sweep must resume at the
        # last kept rank until it passes N
        n = 100
        a, b = _observed_pairs(n, 0.01, _FixedGaps(gap, 0.01), np.int32)
        ra, rb = np.triu_indices(n, k=1)
        np.testing.assert_array_equal(a, ra[gap - 1::gap])
        np.testing.assert_array_equal(b, rb[gap - 1::gap])

    def test_overlong_gap_ends_sweep(self):
        # the gaps come to 2^63 as floats; none may reach the int64 cast,
        # which would warn of an invalid value
        rng = _FixedGaps(np.iinfo(np.int64).max, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = _observed_pairs(50, 1e-300, rng, np.int32)
        assert a.size == b.size == 0

    @settings(max_examples=examples(200), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 300),
           p=st.one_of(
               st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
               # numpy switches to a search at 1/3; both its neighbours, and the ends
               st.sampled_from([1 / 3, float(np.nextafter(1 / 3, 0)),
                                float(np.nextafter(1 / 3, 1)), 0.3, 1e-300, 5e-324,
                                1.0 - 1e-12]),
           ))
    def test_gaps_equal_numpy_geometric(self, seed, size, p):
        want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = want_rng.geometric(p, size)
        got = _geometric(rng, p, np.empty(size))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_inclusion_frequencies_match_binomial(self):
        n, p, trials = 30, 0.15, 600
        total = n * (n - 1) // 2
        x = np.ones(n, dtype=int)
        d = random_corruption(0.5, 2)
        hits = np.zeros(total)
        counts = np.empty(trials)
        for seed in range(trials):
            obs = sample_observations(x, d, p, seed)
            c = 2 * n - 1
            hits[obs.j * (c - obs.j) // 2 + obs.i - obs.j - 1] += 1
            counts[seed] = obs.n_edges
        # every pair is kept Binomial(trials, p) times
        z = (hits - trials * p) / math.sqrt(trials * p * (1 - p))
        assert np.abs(z).max() < 5.0
        assert abs(np.mean(z**2) - 1.0) < 6.0 * math.sqrt(2.0 / total)
        # edge counts are Binomial(N, p)
        var = total * p * (1 - p)
        assert abs(counts.mean() - total * p) < 5.0 * math.sqrt(var / trials)
        assert abs(counts.var(ddof=1) / var - 1.0) < 5.0 * math.sqrt(2.0 / (trials - 1))

    def test_sparse_edge_counts_match_binomial(self):
        n, p, trials = 2000, 2e-5, 200
        total = n * (n - 1) // 2
        x = np.ones(n, dtype=int)
        d = random_corruption(0.5, 2)
        counts = np.array([sample_observations(x, d, p, s).n_edges for s in range(trials)])
        var = total * p * (1 - p)
        assert abs(counts.mean() - total * p) < 5.0 * math.sqrt(var / trials)
        assert abs(counts.var(ddof=1) / var - 1.0) < 5.0 * math.sqrt(2.0 / (trials - 1))

    def test_peak_memory_linear_in_edges(self):
        n = 5000
        p = 20 * math.log(n) / n
        x = np.random.default_rng(0).integers(1, 3, n)
        d = random_corruption(0.3, 2)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            obs = sample_observations(x, d, p, seed=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        # about 2.3 times the keys here, the rest being one chunk's draws
        kept = obs.key.nbytes
        assert obs.n_edges > 0.9 * p * n * (n - 1) / 2
        assert peak < 4 * kept, peak / kept


def _sample_keeping_rng(x, d, p_obs, seed):
    """``sample_observations`` and the generator it drew from."""
    made = []

    def default_rng(s):
        made.append(make(s))
        return made[-1]

    make = np.random.default_rng
    with mock.patch("numpy.random.default_rng", default_rng):
        obs = sample_observations(x, d, p_obs, seed)
    return obs, made[0]


class TestChunkedSampler:
    """The chunked sampler against the one-shot sampler it replaced."""

    def check_against_one_shot(self, x, d, p_obs, seed):
        obs, rng = _sample_keeping_rng(x, d, p_obs, seed)
        i, j, y, want_rng = one_shot_sample_observations(x, d, p_obs, seed)
        for name, want in zip("ijy", (i, j, y)):
            got = getattr(obs, name)
            assert got.dtype == np.int32, name
            np.testing.assert_array_equal(got, want, err_msg=name)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        reg = regularize_observations(obs, 0.3, seed + 1)
        np.testing.assert_array_equal(reg.y, one_shot_regularize_residues(y, d.m, 0.3, seed + 1))
        np.testing.assert_array_equal(reg.i, i)
        assert reg.colptr is obs.colptr

    @pytest.mark.parametrize("chunk", [None, 3], ids=["default", "three"])
    @settings(max_examples=examples(60), deadline=None)
    @given(seed=st.integers(0, 2**32 - 2), m=st.integers(2, 40),
           p_obs=st.one_of(st.floats(min_value=1e-6, max_value=1.0, exclude_min=True),
                           st.sampled_from([1e-3, 0.5, 1.0 - 1e-9, 1.0])),
           data=st.data())
    def test_equals_one_shot_sampler(self, chunk, seed, m, p_obs, data):
        # with three pairs per chunk, every block, row run and noise draw
        # splits many times already at n <= 60; a larger n only adds chunks,
        # each one round of numpy calls
        n = data.draw(st.integers(2, 60 if chunk else 400), label="n")
        # residues without mass repeat cdf values, where the noise draw's
        # count must equal the oracle's search with side="right"
        empty = data.draw(st.lists(st.booleans(), min_size=m, max_size=m), label="empty")
        x = np.random.default_rng(seed).integers(1, m + 1, n)
        p0 = np.random.default_rng(seed + 1).dirichlet(np.ones(m))
        if not all(empty):
            p0[empty] = 0.0
            p0 /= p0.sum()
        d = NoiseDistribution(p0)
        with mock.patch.object(likelihood, "_CHUNK", chunk or likelihood._CHUNK):
            self.check_against_one_shot(x, d, p_obs, seed)

    @pytest.mark.parametrize("m", [2, 12])
    def test_equals_one_shot_sampler_in_sparse_regime(self, m):
        # the paper's regime at the default chunk: about 2e6 pairs in 31 chunks
        n = 20_000
        x = np.random.default_rng(m).integers(1, m + 1, n)
        d = NoiseDistribution(np.random.default_rng(m + 1).dirichlet(np.ones(m)))
        self.check_against_one_shot(x, d, 20 * math.log(n) / n, seed=m)

    @pytest.mark.parametrize("chunk", [None, 7], ids=["default", "seven"])
    def test_first_block_running_out(self, chunk):
        # for this seed the first block's 23100 draws sum to 1123369 of the
        # 1124250 ranks, so a second block is drawn, and its surplus past the
        # last rank must be drawn too
        n, p, seed = 1500, 0.02, 67853
        total = n * (n - 1) // 2
        first = likelihood._block_size(total, p)
        assert np.random.default_rng(seed).geometric(p, first).sum() < total
        x = np.random.default_rng(0).integers(1, 4, n)
        with mock.patch.object(likelihood, "_CHUNK", chunk or likelihood._CHUNK):
            self.check_against_one_shot(x, random_corruption(0.5, 3), p, seed)

    def test_match_pairs_from_the_same_stream(self):
        # matching draws its pairs through the same sampler, then the flags
        for p_obs in (0.3, 1.0):
            with mock.patch.object(likelihood, "_CHUNK", 5):
                got, truth = sample_match_observations(40, 4, 0.2, seed=3, p_obs=p_obs)
            want, want_truth = sample_match_observations(40, 4, 0.2, seed=3, p_obs=p_obs)
            np.testing.assert_array_equal(truth, want_truth)
            for part in ("ii", "jj", "blocks"):
                np.testing.assert_array_equal(getattr(got, part), getattr(want, part))

    def test_public_constructor_round_trips_unsorted_input(self):
        rng = np.random.default_rng(8)
        n, m = 30, 5
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < 0.4
        i, j = hi[keep], lo[keep]
        y = rng.integers(0, m, i.size)
        order = rng.permutation(i.size)
        obs = PairwiseObservations(n=n, m=m, i=i[order], j=j[order], y=y[order])
        # (j, i) order is the order triu_indices gives
        np.testing.assert_array_equal(obs.i, i)
        np.testing.assert_array_equal(obs.j, j)
        np.testing.assert_array_equal(obs.y, y)
        np.testing.assert_array_equal(obs.key, y * n + i)
        np.testing.assert_array_equal(obs.colptr, np.searchsorted(j, np.arange(n + 1)))
        again = PairwiseObservations.from_csv(obs.to_csv(), n, m)
        np.testing.assert_array_equal(again.key, obs.key)
        np.testing.assert_array_equal(again.colptr, obs.colptr)
