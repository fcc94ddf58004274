import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import full_budget_solve, shift_labels
from ppmalign.blockmat import build
from ppmalign.exceptions import MissingSigmaError
from ppmalign.harness import parse_mu_spec
from ppmalign.likelihood import PairwiseObservations, random_corruption, sample_observations
from ppmalign.solver import (
    ContractionReport,
    ScalingPolicy,
    check_contraction,
    default_iterations,
    labels_of,
    lift,
    mcr,
    solve,
)


def make_instance(n, m, pi0, seed, p_obs=1.0):
    rng = np.random.default_rng(seed)
    x = rng.integers(1, m + 1, n)
    obs = sample_observations(x, random_corruption(pi0, m), p_obs,
                              seed=int(rng.integers(2**32)))
    return build(obs, None, "agreement"), x


def corrupt(x, frac, m, seed):
    rng = np.random.default_rng(seed)
    k = int(round(frac * x.size))
    pos = rng.choice(x.size, size=k, replace=False)
    out = x.copy()
    out[pos] = ((out[pos] - 1 + rng.integers(1, m, size=k)) % m) + 1
    return out


class TestMetrics:
    def test_mcr_worked_example(self):
        # best relabeling shifts [2,2,2,1] by 2 to [1,1,1,3]: one mismatch
        assert mcr([1, 1, 1, 1], [2, 2, 2, 1], 3) == 0.25

    def test_mcr_shift_invariant_and_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.integers(1, 5, 30)
        b = rng.integers(1, 5, 30)
        base = mcr(a, b, 4)
        for l in range(4):
            assert mcr(shift_labels(a, l, 4), b, 4) == base
            assert mcr(a, shift_labels(b, l, 4), 4) == base
        assert mcr(b, a, 4) == base
        assert mcr(a, a, 4) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 9), n=st.integers(1, 40))
    def test_mcr_is_least_mismatch_over_shifts(self, data, m, n):
        labels = st.lists(st.integers(1, m), min_size=n, max_size=n)
        a, b = np.array(data.draw(labels)), np.array(data.draw(labels))
        want = min(int(np.count_nonzero(a != shift_labels(b, l, m))) for l in range(m))
        assert mcr(a, b, m) == want / n

    def test_mcr_validation(self):
        with pytest.raises(ValueError):
            mcr([1, 2], [1], 3)
        with pytest.raises(ValueError):
            mcr([], [], 3)

    def test_dist_equals_sqrt_2n_mcr_on_vertices(self):
        # two one-hot iterates differ by sqrt(2) per mismatched block, so the
        # distance minimized over shifts is sqrt(2 n mcr)
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.integers(1, 4, 40)
            b = rng.integers(1, 4, 40)
            want = math.sqrt(2.0 * 40 * mcr(b, a, 3))
            dist = min(np.linalg.norm(lift(b, 3) - lift(shift_labels(a, l, 3), 3))
                       for l in range(3))
            assert dist == pytest.approx(want)

    def test_lift_round_trip(self):
        labels = np.array([3, 1, 2, 2])
        z = lift(labels, 3)
        assert z.shape == (4, 3)
        np.testing.assert_array_equal(z.sum(axis=1), np.ones(4))
        np.testing.assert_array_equal(labels_of(z), labels)

    def test_lift_validation(self):
        with pytest.raises(ValueError):
            lift([0, 1], 3)
        with pytest.raises(ValueError):
            lift([1, 4], 3)
        with pytest.raises(ValueError, match="labels must be 1-d"):
            lift([[1, 2]], 3)


class TestScalingPolicy:
    def test_resolve_infinite_and_fixed(self):
        assert math.isinf(ScalingPolicy.infinite().resolve_mu(None, 5))
        assert ScalingPolicy(2.5).resolve_mu(None, 5) == 2.5

    def test_resolve_relative(self):
        sig = np.array([100.0, 5.0, 4.0])
        assert ScalingPolicy.over_sigma2(10.0).resolve_mu(sig, 3) == pytest.approx(2.0)
        assert ScalingPolicy.over_sigma_m(20.0).resolve_mu(sig, 3) == pytest.approx(5.0)

    def test_resolve_missing_sigma(self):
        with pytest.raises(MissingSigmaError):
            ScalingPolicy.over_sigma2().resolve_mu(None, 3)
        with pytest.raises(MissingSigmaError):
            ScalingPolicy.over_sigma_m().resolve_mu([9.0, 8.0], 3)
        with pytest.raises(MissingSigmaError):
            ScalingPolicy.over_sigma2().resolve_mu([1.0, 0.0], 3)

    def test_min_rank(self):
        assert ScalingPolicy.infinite().min_rank(7) == 1
        assert ScalingPolicy.over_sigma2().min_rank(7) == 2
        assert ScalingPolicy.over_sigma_m().min_rank(7) == 7
        assert ScalingPolicy(1.0).min_rank(7) == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ScalingPolicy(1.0, "sigma9")
        with pytest.raises(ValueError):
            ScalingPolicy(-1.0, "sigma2")
        with pytest.raises(ValueError):
            ScalingPolicy(0.0)
        with pytest.raises(ValueError):
            ScalingPolicy(math.nan)
        with pytest.raises(ValueError):
            ScalingPolicy(math.nan, "sigma_m")

    # every route to one policy (classmethod, mu spec, direct construction)
    # gives the same policy, min_rank(3) and resolve_mu([100, 5, 4], 3)
    @pytest.mark.parametrize("routes,rank,mu", [
        ((ScalingPolicy.infinite(), parse_mu_spec("inf"), parse_mu_spec(" INF "),
          ScalingPolicy(), ScalingPolicy(math.inf)), 1, math.inf),
        ((ScalingPolicy.over_sigma2(10.0), parse_mu_spec("10/sigma2"),
          ScalingPolicy(10.0, "sigma2")), 2, 2.0),
        ((ScalingPolicy.over_sigma_m(20.0), parse_mu_spec("20/sigmam"),
          ScalingPolicy(20.0, "sigma_m")), 3, 5.0),
        ((ScalingPolicy(3.5), parse_mu_spec("3.5")), 1, 3.5),
        ((ScalingPolicy.over_sigma2(math.inf), parse_mu_spec("inf/sigma2"),
          ScalingPolicy(math.inf, "sigma2")), 2, math.inf),
    ])
    def test_construction_routes_agree(self, routes, rank, mu):
        sig = np.array([100.0, 5.0, 4.0])
        for policy in routes:
            assert policy == routes[0]
            assert policy.min_rank(3) == rank
            assert policy.resolve_mu(sig, 3) == mu


class TestSolve:
    def test_noiseless_recovery_from_corrupted_start(self):
        L, x = make_instance(64, 3, 1.0, seed=0)
        z0 = lift(corrupt(x, 0.4, 3, seed=1), 3)
        rep = solve(L, z0, ScalingPolicy.infinite(), T=8, truth=x)
        assert rep.final_mcr == 0.0
        assert rep.converged
        assert rep.iterations_run <= 8
        assert mcr(rep.estimate, x, 3) == 0.0

    def test_agreement_and_loglik_round_identically(self):
        # per-block constant offsets cancel inside the vertex rounding
        rng = np.random.default_rng(2)
        x = rng.integers(1, 4, 50)
        obs = sample_observations(x, random_corruption(0.5, 3), 1.0, seed=3)
        La = build(obs, None, "agreement")
        Ll = build(obs, random_corruption(0.5, 3), "loglik")
        z = rng.dirichlet(np.ones(3), size=50)
        za = solve(La, z, ScalingPolicy.infinite(), T=1).estimate
        zl = solve(Ll, z, ScalingPolicy.infinite(), T=1).estimate
        np.testing.assert_array_equal(za, zl)

    def test_trace_shape_and_monotone_decay(self):
        L, x = make_instance(200, 2, 0.5, seed=4)
        z0 = lift(corrupt(x, 0.3, 2, seed=5), 2)
        rep = solve(L, z0, ScalingPolicy.infinite(), T=10, truth=x,
                    early_stop=False)
        assert rep.iterations_run == 10
        assert rep.iterates_mcr.shape == (11,)
        assert rep.iterates_mcr[0] == pytest.approx(0.3)
        assert np.all(np.diff(rep.iterates_mcr) <= 0)
        assert rep.final_mcr == 0.0

    def test_early_stop_at_fixed_point(self):
        L, x = make_instance(64, 3, 1.0, seed=6)
        rep = solve(L, lift(x, 3), ScalingPolicy.infinite(), T=50, truth=x)
        assert rep.converged
        assert rep.iterations_run == 1

    def test_finite_mu_stall_detection(self):
        L, x = make_instance(64, 3, 1.0, seed=7)
        rep = solve(L, lift(x, 3), ScalingPolicy(100.0), T=50, truth=x)
        assert rep.converged
        assert rep.final_mcr == 0.0

    def test_no_truth_no_trace(self):
        L, x = make_instance(20, 2, 0.8, seed=8)
        rep = solve(L, lift(x, 2), ScalingPolicy.infinite(), T=3)
        assert rep.iterates_mcr is None
        with pytest.raises(ValueError):
            rep.final_mcr
        with pytest.raises(ValueError):
            rep.trace_csv()

    def test_validation(self):
        L, x = make_instance(10, 2, 0.8, seed=9)
        with pytest.raises(ValueError):
            solve(L, np.zeros((5, 2)), ScalingPolicy.infinite(), T=1)
        with pytest.raises(ValueError):
            solve(L, lift(x, 2), ScalingPolicy.infinite(), T=-1)

    def test_trace_csv_format(self):
        L, x = make_instance(30, 2, 1.0, seed=10)
        rep = solve(L, lift(corrupt(x, 0.2, 2, seed=11), 2),
                    ScalingPolicy.infinite(), T=5, truth=x)
        lines = rep.trace_csv().splitlines()
        assert lines[0] == "t,mcr"
        assert lines[1].startswith("0,")
        assert lines[-1].startswith("# final_mcr=")
        assert "mu=inf" in lines[-1]
        assert len(lines) == rep.iterations_run + 3

    def test_default_iterations(self):
        assert default_iterations(500) == 19
        assert default_iterations(7) == 6


class CountingOp:
    """An operator wrapper that counts the products it is asked for."""

    def __init__(self, L):
        self.L, self.n, self.m = L, L.n, L.m
        self.products = 0

    def matvec(self, z):
        self.products += 1
        return self.L.matvec(z)


def assert_same_report(got, want):
    """Every SolveReport field equal, arrays bit for bit."""
    for name in ("estimate", "z", "iterates_mcr"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
    assert got.iterations_run == want.iterations_run
    assert got.converged is want.converged
    assert got.mu_used == want.mu_used


def orbit_instance(seed, n, m, pi0, p_obs):
    """A sampled agreement operator, its truth and a random interior start."""
    rng = np.random.default_rng(seed)
    x = rng.integers(1, m + 1, n)
    obs = sample_observations(x, random_corruption(pi0, m), p_obs,
                              seed=int(rng.integers(2**32)))
    return build(obs, None, "agreement"), x, rng.dirichlet(np.ones(m), size=n)


class TestRepeatedIterate:
    # the 2-cycling examples repeat an iterate at step 6 (mu = inf) and at
    # step 5 (mu = 2), so each pair leaves an odd and an even number of
    # steps to pad
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 25), m=st.integers(2, 4),
           pi0=st.sampled_from((0.1, 0.2, 0.35, 0.5, 1.0)),
           p_obs=st.sampled_from((0.5, 1.0)),
           mu=st.one_of(st.just(math.inf), st.floats(0.05, 5.0)),
           T=st.one_of(st.sampled_from((0, 1, 2)), st.integers(3, 40)),
           early_stop=st.booleans(), with_truth=st.booleans(),
           start=st.sampled_from(("interior", "vertex", "truth")))
    @example(seed=0, n=16, m=3, pi0=0.35, p_obs=1.0, mu=math.inf, T=9,
             early_stop=False, with_truth=True, start="interior")
    @example(seed=0, n=16, m=3, pi0=0.35, p_obs=1.0, mu=math.inf, T=10,
             early_stop=True, with_truth=True, start="interior")
    @example(seed=0, n=16, m=3, pi0=0.35, p_obs=1.0, mu=2.0, T=8,
             early_stop=True, with_truth=True, start="interior")
    @example(seed=0, n=16, m=3, pi0=0.35, p_obs=1.0, mu=2.0, T=9,
             early_stop=False, with_truth=True, start="interior")
    def test_report_matches_full_budget_loop(self, seed, n, m, pi0, p_obs, mu, T,
                                             early_stop, with_truth, start):
        L, x, z0 = orbit_instance(seed, n, m, pi0, p_obs)
        if start == "vertex":
            z0 = lift(labels_of(z0), m)
        elif start == "truth":
            z0 = lift(x, m)
        if math.isinf(mu):
            policy, sigmas = ScalingPolicy.infinite(), None
        else:
            policy, sigmas = ScalingPolicy.over_sigma2(mu), np.array([2.0, 1.0])
        truth = x if with_truth else None
        op = CountingOp(L)
        got = solve(op, z0, policy, T, truth=truth, sigmas=sigmas, early_stop=early_stop)
        want = full_budget_solve(L, z0, policy, T, truth=truth, sigmas=sigmas,
                                 early_stop=early_stop)
        assert_same_report(got, want)
        assert op.products <= want.iterations_run
        if with_truth:
            assert got.trace_csv() == want.trace_csv()

    def test_exact_start_takes_one_product(self):
        L, x = make_instance(64, 3, 1.0, seed=6)
        op = CountingOp(L)
        rep = solve(op, lift(x, 3), ScalingPolicy.infinite(), T=50, truth=x,
                    early_stop=False)
        assert op.products == 1
        assert rep.iterations_run == 50
        assert rep.converged
        assert rep.iterates_mcr.shape == (51,)
        assert not rep.iterates_mcr.any()

    @pytest.mark.parametrize("mu,t_repeat", [(math.inf, 6), (2.0, 5)])
    def test_two_cycle_stops_products_at_the_repeat(self, mu, t_repeat):
        L, x, z0 = orbit_instance(0, 16, 3, 0.35, 1.0)
        policy = ScalingPolicy.infinite() if math.isinf(mu) else ScalingPolicy(mu)
        finals = set()
        for left in (3, 4):
            op = CountingOp(L)
            got = solve(op, z0, policy, t_repeat + left, truth=x, early_stop=False)
            want = full_budget_solve(L, z0, policy, t_repeat + left, truth=x,
                                     early_stop=False)
            assert op.products == t_repeat
            assert not got.converged
            assert_same_report(got, want)
            finals.add(got.z.tobytes())
        assert len(finals) == 2  # the parity of the steps left picks the end


class TestContraction:
    def test_contracts_above_threshold(self):
        L, x = make_instance(400, 2, 0.3, seed=12)
        rep = check_contraction(L, x, ScalingPolicy.infinite(), trials=100,
                                seed=13)
        assert isinstance(rep, ContractionReport)
        assert rep.ratios.shape == (100,)
        assert rep.contracted
        assert rep.max_ratio < 1.0

    def test_no_contraction_in_noise(self):
        L, x = make_instance(100, 2, 0.01, seed=14)
        rep = check_contraction(L, x, ScalingPolicy.infinite(), trials=100,
                                seed=15)
        assert not rep.contracted
        assert rep.max_ratio >= 1.0

    def test_validation(self):
        L, x = make_instance(20, 2, 0.5, seed=16)
        with pytest.raises(ValueError):
            check_contraction(L, x[:-1], ScalingPolicy.infinite())
        with pytest.raises(ValueError):
            check_contraction(L, x, ScalingPolicy.infinite(), trials=0)

    def test_single_item_refused(self):
        # one item has error 0 modulo the global shift, before and after
        obs = PairwiseObservations(n=1, m=3, i=[], j=[], y=[])
        with pytest.raises(ValueError, match="n >= 2"):
            check_contraction(build(obs, None, "agreement"), [1], ScalingPolicy.infinite())
