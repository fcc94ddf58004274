import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ppmalign.matching as matching
from conftest import (
    dense_match_expansion,
    full_budget_match_solve,
    match_block,
    per_edge_sample_match_observations,
    perm_matrix,
)
from ppmalign.matching import (
    _LAP_TOL,
    DenseBlockMatrix,
    MatchObservations,
    input_mismatch_rate,
    lap_project,
    match_solve,
    mismatch_rate,
    sample_match_observations,
)
from ppmalign.spectral import _WARM_START_TOL


def brute_force_lap(score):
    """Lexicographically first permutation attaining the exact maximum."""
    m = score.shape[0]
    best_val = None
    best_p = None
    for p in itertools.permutations(range(m)):
        val = sum(score[a, p[a]] for a in range(m))
        if best_val is None or val > best_val:
            best_val = val
            best_p = p
    return np.array(best_p), best_val


def brute_force_lap_within_tol(score):
    """Lexicographically first permutation within lap_project's tolerance.

    Skips (via assume) scores where some permutation lies so close to the
    tolerance boundary that rounding alone could decide which side it is on.
    """
    m = score.shape[0]
    perms = list(itertools.permutations(range(m)))
    vals = np.array([sum(score[a, p[a]] for a in range(m)) for p in perms])
    best = vals.max()
    cut = best - _LAP_TOL * max(1.0, abs(best))
    band = 1e-12 * m * max(1.0, float(np.abs(score).max()))
    assume(np.all(np.abs(vals - cut) > band))
    return np.array(perms[int(np.flatnonzero(vals >= cut)[0])])


@st.composite
def score_matrices(draw, max_m):
    """Square scores that stress the tie-break: integer ties, near-ties at
    the tolerance scale, large magnitudes and plain continuous draws."""
    m = draw(st.integers(1, max_m), label="m")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = draw(st.sampled_from(("ties", "near-ties", "large", "continuous")), label="kind")
    if kind == "ties":
        return rng.integers(0, 3, (m, m)).astype(float)
    if kind == "near-ties":
        eps = draw(st.sampled_from((0.1, 0.5, 1.0, 2.0, 3.0)), label="eps") * _LAP_TOL
        return rng.integers(0, 3, (m, m)) + eps * rng.integers(-2, 3, (m, m))
    if kind == "large":
        return rng.uniform(1e6, 1e7, (m, m)).round() + rng.integers(0, 2, (m, m))
    return rng.standard_normal((m, m))


def near_tie(seed):
    """Integer scores nudged by 3e-9 steps: some permutation totals land
    exactly at the tie cut best - tol, where rounding decides the side."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, (6, 6)) + 3e-9 * rng.integers(-2, 3, (6, 6))


def greedy_reference(score):
    """The tie-break alone: no single-solve certificate, no pruning."""
    rows, cols = linear_sum_assignment(score, maximize=True)
    best = float(score[rows, cols].sum())
    return matching._lex_first_assignment(score, best, _LAP_TOL * max(1.0, abs(best)))


class TestLapProject:
    def test_worked_example(self):
        # off-diagonal pair wins: 0.8 + 0.7 > 0.9 + 0.1
        np.testing.assert_array_equal(
            lap_project(np.array([[0.9, 0.8], [0.7, 0.1]])), [1, 0]
        )

    def test_matches_brute_force_with_ties(self):
        # integer scores force exact ties; gaps are at least 1 otherwise,
        # so the tolerance can never blur distinct optima
        rng = np.random.default_rng(0)
        for m in (2, 3, 4, 5):
            for _ in range(50):
                score = rng.integers(0, 4, (m, m)).astype(float)
                want, _ = brute_force_lap(score)
                np.testing.assert_array_equal(lap_project(score), want)

    def test_matches_brute_force_value_continuous(self):
        rng = np.random.default_rng(1)
        for m in (3, 4, 5):
            for _ in range(30):
                score = rng.standard_normal((m, m))
                p = lap_project(score)
                _, best = brute_force_lap(score)
                assert score[np.arange(m), p].sum() == pytest.approx(best)

    def test_constant_ties_break_to_identity(self):
        np.testing.assert_array_equal(lap_project(np.ones((4, 4))), [0, 1, 2, 3])

    def test_validation(self):
        with pytest.raises(ValueError):
            lap_project(np.ones((2, 3)))
        with pytest.raises(ValueError):
            lap_project(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @settings(max_examples=300, deadline=None)
    @given(score=score_matrices(max_m=6))
    @example(score=near_tie(328))
    @example(score=near_tie(454))
    @example(score=near_tie(1122))
    @example(score=near_tie(1769))
    def test_matches_brute_force_property(self, score):
        np.testing.assert_array_equal(lap_project(score), brute_force_lap_within_tol(score))

    @settings(max_examples=150, deadline=None)
    @given(score=score_matrices(max_m=20))
    @example(score=near_tie(328))
    @example(score=near_tie(454))
    @example(score=near_tie(1122))
    @example(score=near_tie(1769))
    def test_single_solve_agrees_with_tie_break(self, score):
        got = lap_project(score)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, greedy_reference(score))

    def test_both_paths_exercised(self, monkeypatch):
        # one assignment solve for a unique optimum, sub-solves for ties
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linear_sum_assignment(*args, **kwargs)

        monkeypatch.setattr(matching, "linear_sum_assignment", counting)
        rng = np.random.default_rng(3)
        lap_project(rng.standard_normal((12, 12)))
        assert len(calls) == 1
        calls.clear()
        np.testing.assert_array_equal(lap_project(np.ones((5, 5))), np.arange(5))
        assert len(calls) > 1

        # a tie between the last two rows; the prices rule out every
        # column the plain tie-break solves a sub-assignment for
        score = 10.0 * np.eye(8)[::-1]
        score[6:, 0:2] = 10.0
        calls.clear()
        got = lap_project(score)
        priced = len(calls)
        calls.clear()
        np.testing.assert_array_equal(got, greedy_reference(score))
        assert 1 < priced < len(calls)

    def test_perm_matrix(self):
        np.testing.assert_array_equal(
            perm_matrix([2, 0, 1]),
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        )


class TestMismatchRate:
    def test_global_relabeling_is_free(self):
        rng = np.random.default_rng(2)
        truth = np.stack([rng.permutation(5) for _ in range(30)])
        g = rng.permutation(5)
        assert mismatch_rate(g[truth], truth) == 0.0

    def test_counts_wrong_entries(self):
        truth = np.stack([np.arange(4) for _ in range(10)])
        est = truth.copy()
        est[0] = [1, 0, 2, 3]  # two wrong assignments in one item
        assert mismatch_rate(est, truth) == pytest.approx(2 / 40)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 5))
    def test_best_relabeling_by_enumeration(self, seed, n, m):
        rng = np.random.default_rng(seed)
        perms = np.stack([rng.permutation(m) for _ in range(n)])
        truth = np.stack([rng.permutation(m) for _ in range(n)])
        best = max(int(np.count_nonzero(perms == np.array(g)[truth]))
                   for g in itertools.permutations(range(m)))
        assert mismatch_rate(perms, truth) == 1.0 - best / (n * m)

    def test_validation(self):
        with pytest.raises(ValueError):
            mismatch_rate(np.zeros((3, 2), dtype=int), np.zeros((2, 2), dtype=int))


class TestObservations:
    def test_sampling_deterministic(self):
        a, ta = sample_match_observations(12, 4, 0.3, seed=3)
        b, tb = sample_match_observations(12, 4, 0.3, seed=3)
        np.testing.assert_array_equal(a.blocks, b.blocks)
        np.testing.assert_array_equal(ta, tb)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14), m=st.integers(1, 9),
           corrupt=st.sampled_from([0.0, 0.3, 1.0]),
           p_obs=st.sampled_from([1.0, 0.5, 0.05]))
    def test_blocks_bit_identical_to_per_edge_sampler(self, seed, n, m, corrupt, p_obs):
        obs, truth = sample_match_observations(n, m, corrupt, seed, p_obs=p_obs)
        ref, ref_truth = per_edge_sample_match_observations(n, m, corrupt, seed, p_obs)
        np.testing.assert_array_equal(truth, ref_truth)
        for name in ("ii", "jj", "blocks"):
            got, want = getattr(obs, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_peak_memory_sparse_regime(self):
        # pairs by geometric skips, O(n + E); a mask over all n^2/2 pairs
        # peaks near 300 MB here
        n = 5000
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            obs, _ = sample_match_observations(n, 2, 0.3, seed=1, p_obs=20 * math.log(n) / n)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert obs.n_edges > 0
        assert peak < 60 * 2**20, peak / 2**20

    def test_blocks_are_permutation_matrices(self):
        obs, _ = sample_match_observations(10, 5, 0.5, seed=4)
        assert obs.n_edges == 45
        np.testing.assert_array_equal(obs.blocks.sum(axis=1), np.ones((45, 5)))
        np.testing.assert_array_equal(obs.blocks.sum(axis=2), np.ones((45, 5)))

    def test_input_mismatch_tracks_corruption(self):
        clean, t0 = sample_match_observations(14, 4, 0.0, seed=5)
        assert input_mismatch_rate(clean, t0) == 0.0
        noisy, t1 = sample_match_observations(14, 4, 1.0, seed=6)
        assert input_mismatch_rate(noisy, t1) > 0.5

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), m=st.integers(1, 6))
    def test_input_mismatch_matches_dense_products(self, seed, n, m):
        # real-valued blocks: each row's argmax against that of X_i X_j^T
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        blocks = rng.standard_normal((lo.size, m, m))
        obs = MatchObservations(n=n, m=m, ii=hi, jj=lo, blocks=blocks)
        truth = np.stack([rng.permutation(m) for _ in range(n)])
        wrong = 0
        for e in range(obs.n_edges):
            ref = perm_matrix(truth[hi[e]]) @ perm_matrix(truth[lo[e]]).T
            wrong += int(np.count_nonzero(blocks[e].argmax(axis=1) != ref.argmax(axis=1)))
        assert input_mismatch_rate(obs, truth) == wrong / (obs.n_edges * m)

    def test_input_mismatch_needs_pairs(self):
        lone = MatchObservations(n=1, m=3, ii=[], jj=[], blocks=np.empty((0, 3, 3)))
        with pytest.raises(ValueError, match="no observed pairs"):
            input_mismatch_rate(lone, [[0, 1, 2]])

    def test_block_accessor_mirrors(self):
        obs, _ = sample_match_observations(6, 3, 0.4, seed=7)
        np.testing.assert_array_equal(match_block(obs, 0, 4), match_block(obs, 4, 0).T)
        with pytest.raises(KeyError):
            match_block(obs, 2, 2)

    def test_partial_graph_missing_pair(self):
        obs, _ = sample_match_observations(20, 3, 0.0, seed=8, p_obs=0.3)
        assert 0 < obs.n_edges < 190
        present = set(zip(obs.ii.tolist(), obs.jj.tolist()))
        absent = next(
            (i, j) for i in range(20) for j in range(i) if (i, j) not in present
        )
        with pytest.raises(KeyError):
            match_block(obs, *absent)

    def test_csv_round_trip(self):
        # edge order is canonicalized on load; contents must survive exactly
        obs, _ = sample_match_observations(7, 3, 0.6, seed=9)
        again = MatchObservations.from_csv(obs.to_csv(), n=7, m=3)
        assert again.n_edges == obs.n_edges
        for a, b in zip(obs.ii.tolist(), obs.jj.tolist()):
            np.testing.assert_array_equal(match_block(again, a, b), match_block(obs, a, b))

    def test_csv_rejects_bad_header(self):
        with pytest.raises(ValueError):
            MatchObservations.from_csv("a,b,c\n", n=2, m=2)

    @pytest.mark.parametrize("edit, message", [
        (lambda ln: ln + ["3,0,0,0,1"], "0..2"),  # item index n
        (lambda ln: ln + ["2,-1,0,0,1"], "0..2"),  # negative item index
        (lambda ln: ln[:1] + ["1,0,0,2,1"] + ln[2:], "0..1"),  # feature index m
        (lambda ln: ln + [ln[1]], "duplicate"),  # repeated record
        (lambda ln: ln[:-1], "all 4"),  # incomplete block
        (lambda ln: ln + ["2,1,0,0"], "line"),  # short line
        (lambda ln: ln + ["2,1,0,x,1"], "line"),  # non-integer index
        (lambda ln: ln[:1] + ["1,0,0,0,nan"] + ln[2:], "finite"),
    ])
    def test_csv_rejects_bad_records(self, edit, message):
        obs, _ = sample_match_observations(3, 2, 0.0, seed=9)
        lines = obs.to_csv().splitlines()
        MatchObservations.from_csv("\n".join(lines), n=3, m=2)  # the unedited file loads
        with pytest.raises(ValueError, match=message):
            MatchObservations.from_csv("\n".join(edit(lines)), n=3, m=2)

    def test_constructor_coerces_blocks(self):
        obs = MatchObservations(n=3, m=2, ii=[2], jj=[0], blocks=[[[1, 0], [0, 1]]])
        assert obs.blocks.dtype == np.float64
        np.testing.assert_array_equal(obs.blocks, [np.eye(2)])
        for blocks in ([[[1.0, 0], [0]]], [[["a", 0], [0, 1]]]):  # ragged, non-numeric
            with pytest.raises(ValueError, match="numeric"):
                MatchObservations(n=3, m=2, ii=[2], jj=[0], blocks=blocks)

    def test_constructor_rejects_bad_pairs(self):
        blocks = np.ones((2, 2, 2))
        with pytest.raises(ValueError, match="0..2"):
            MatchObservations(n=3, m=2, ii=np.array([3, 2]), jj=np.array([0, 1]),
                              blocks=blocks)
        with pytest.raises(ValueError, match="duplicate"):
            MatchObservations(n=3, m=2, ii=np.array([2, 2]), jj=np.array([1, 1]),
                              blocks=blocks)
        with pytest.raises(ValueError, match="i > j"):
            MatchObservations(n=3, m=2, ii=np.array([1, 2]), jj=np.array([2, 1]),
                              blocks=blocks)


class TestDenseBlockMatrix:
    def test_matches_dense_oracle(self):
        obs, _ = sample_match_observations(9, 4, 0.5, seed=10)
        op = DenseBlockMatrix(obs)
        dense = dense_match_expansion(obs)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((36, 3))
        np.testing.assert_allclose(op.matmat(x), dense @ x, atol=1e-10)
        np.testing.assert_allclose(dense, dense.T, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), m=st.integers(1, 6),
           p_obs=st.sampled_from((0.0, 0.3, 1.0)), density=st.sampled_from((0.2, 1.0)),
           r=st.integers(1, 4))
    def test_products_match_dense_property(self, seed, n, m, p_obs, density, r):
        # dense and sparse non-permutation blocks, down to the empty graph
        rng = np.random.default_rng(seed)
        lo, hi = np.triu_indices(n, 1)
        keep = rng.random(lo.size) < p_obs
        e = int(keep.sum())
        blocks = rng.standard_normal((e, m, m)) * (rng.random((e, m, m)) < density)
        obs = MatchObservations(n=n, m=m, ii=hi[keep], jj=lo[keep], blocks=blocks)
        op = DenseBlockMatrix(obs)
        dense = dense_match_expansion(obs)
        x = rng.standard_normal((n * m, r))
        w = rng.standard_normal((n * m, r))
        ax = op.matmat(x)
        assert ax.shape == (n * m, r)
        np.testing.assert_allclose(ax, dense @ x, rtol=0, atol=1e-12 * max(1, n * m))
        np.testing.assert_allclose(np.sum(w * ax), np.sum(x * op.matmat(w)),
                                   rtol=1e-10, atol=1e-10)

    def test_shape_validation(self):
        obs, _ = sample_match_observations(5, 3, 0.0, seed=12)
        with pytest.raises(ValueError):
            DenseBlockMatrix(obs).matmat(np.ones((7, 2)))


class TestMatchSolve:
    def test_noiseless_exact(self):
        obs, truth = sample_match_observations(25, 5, 0.0, seed=13)
        rep = match_solve(obs, T=30, seed=14, truth=truth)
        assert rep.final_mismatch == 0.0
        assert rep.converged

    def test_corrupted_instances_recover(self):
        for seed in (20, 21, 22):
            obs, truth = sample_match_observations(40, 8, 0.3, seed=seed)
            rep = match_solve(obs, T=30, seed=seed, truth=truth)
            assert input_mismatch_rate(obs, truth) > 0.2
            assert rep.final_mismatch == 0.0
            assert rep.converged

    def test_warm_start_at_pipeline_tol(self, monkeypatch):
        tols = []
        factor = matching.orthogonal_iteration
        monkeypatch.setattr(matching, "orthogonal_iteration",
                            lambda *a, **kw: (tols.append(kw["tol"]), factor(*a, **kw))[1])
        obs, _ = sample_match_observations(10, 4, 0.2, seed=1)
        match_solve(obs, T=5, seed=2)
        assert tols == [_WARM_START_TOL]

    def test_single_solve_path_leaves_runs_unchanged(self, monkeypatch):
        # criterion-7 instances, with and without the dual prices that
        # certify a single solve and prune the tie-break
        runs = []
        for priced in (True, False):
            if not priced:
                monkeypatch.setattr(matching, "_dual_prices", lambda *args: None)
            reps = []
            for seed in range(4):
                obs, truth = sample_match_observations(50, 10, 0.3, seed=seed)
                reps.append(match_solve(obs, T=50, seed=seed, truth=truth))
            runs.append(reps)
        for fast, slow in zip(*runs):
            np.testing.assert_array_equal(fast.perms, slow.perms)
            assert fast.iterations_run == slow.iterations_run
            assert fast.mismatch_trace.tobytes() == slow.mismatch_trace.tobytes()

    # seed 8 at n=10, m=4, corrupt=0.6 enters a 2-cycle at step 5, so T = 8
    # and T = 9 leave an odd and an even number of steps to pad
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), m=st.integers(1, 5),
           corrupt=st.sampled_from((0.0, 0.2, 0.4, 0.6, 0.8)),
           p_obs=st.sampled_from((0.5, 1.0)),
           T=st.one_of(st.sampled_from((0, 1, 2)), st.integers(3, 30)),
           with_truth=st.booleans())
    @example(seed=8, n=10, m=4, corrupt=0.6, p_obs=1.0, T=8, with_truth=True)
    @example(seed=8, n=10, m=4, corrupt=0.6, p_obs=1.0, T=9, with_truth=True)
    def test_report_matches_full_budget_loop(self, seed, n, m, corrupt, p_obs, T,
                                             with_truth):
        obs, truth = sample_match_observations(n, m, corrupt, seed=seed, p_obs=p_obs)
        truth = truth if with_truth else None
        got = match_solve(obs, T=T, seed=seed, truth=truth)
        want = full_budget_match_solve(obs, T=T, seed=seed, truth=truth)
        assert got.perms.dtype == want.perms.dtype
        assert got.perms.tobytes() == want.perms.tobytes()
        assert got.iterations_run == want.iterations_run
        assert got.converged is want.converged
        if with_truth:
            assert got.mismatch_trace.tobytes() == want.mismatch_trace.tobytes()
        else:
            assert got.mismatch_trace is None and want.mismatch_trace is None

    def test_two_cycle_stops_products_at_the_repeat(self, monkeypatch):
        # without truth, each step projects n blocks and nothing else
        calls = []
        lap = matching.lap_project
        monkeypatch.setattr(matching, "lap_project", lambda s: (calls.append(1), lap(s))[1])
        obs, _ = sample_match_observations(10, 4, 0.6, seed=8)
        finals = set()
        for T in (8, 9):
            calls.clear()
            rep = match_solve(obs, T=T, seed=8)
            assert len(calls) == 10 * (1 + 5)
            assert rep.iterations_run == T and not rep.converged
            finals.add(rep.perms.tobytes())
        assert len(finals) == 2

    def test_zero_budget_returns_spectral_assignment(self):
        obs, truth = sample_match_observations(15, 4, 0.2, seed=15)
        rep = match_solve(obs, T=0, seed=16, truth=truth)
        assert rep.iterations_run == 0
        assert not rep.converged
        assert rep.mismatch_trace.shape == (1,)

    def test_estimates_csv(self):
        obs, truth = sample_match_observations(6, 3, 0.0, seed=17)
        rep = match_solve(obs, T=10, seed=18)
        lines = rep.estimates_csv().splitlines()
        assert lines[0] == "i,feature,assigned"
        assert len(lines) == 1 + 6 * 3
        assert rep.mismatch_trace is None
        with pytest.raises(ValueError):
            rep.final_mismatch

    def test_validation(self):
        obs, _ = sample_match_observations(5, 3, 0.0, seed=19)
        with pytest.raises(ValueError):
            match_solve(obs, T=-1, seed=0)
