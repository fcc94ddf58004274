import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import project_simplex
from ppmalign.simplex import project_blockwise, project_rows, round_rows


def qp_projection(v):
    """Independent oracle: solve the projection QP with SLSQP."""
    v = np.asarray(v, dtype=float)
    m = v.size
    res = minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        np.full(m, 1.0 / m),
        jac=lambda x: x - v,
        bounds=[(0.0, None)] * m,
        constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                      "jac": lambda x: np.ones(m)}],
        method="SLSQP",
        tol=1e-12,
    )
    # the success flag can trip on precision noise; feasibility is what matters
    assert abs(res.x.sum() - 1.0) < 1e-9 and res.x.min() > -1e-9
    return res.x


def project_one(v):
    """project_rows on a single block."""
    return project_rows(np.asarray(v, dtype=float)[None, :])[0]


class TestProjectSimplex:
    def test_worked_example(self):
        # all entries stay positive, so mass is spread evenly: v + (1 - sum)/3
        got = project_one([0.5, 0.2, 0.1])
        want = np.array([0.5, 0.2, 0.1]) + 0.2 / 3.0
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(got, qp_projection([0.5, 0.2, 0.1]), atol=1e-7)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_qp_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        v = rng.standard_normal(m) * rng.uniform(0.1, 5.0)
        np.testing.assert_allclose(project_one(v), qp_projection(v), atol=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotent_and_feasible(self, seed):
        rng = np.random.default_rng(100 + seed)
        v = rng.standard_normal(int(rng.integers(2, 33))) * 3.0
        p = project_one(v)
        assert abs(p.sum() - 1.0) <= 1e-9 and p.min() >= 0.0
        np.testing.assert_allclose(project_one(p), p, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.standard_normal(6)
            delta = rng.uniform(-10, 10)
            np.testing.assert_allclose(project_one(v + delta), project_one(v), atol=1e-9)

    def test_projection_is_closest_feasible_point(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(2, 10))
            v = rng.standard_normal(m) * 2.0
            p = project_one(v)
            # random feasible competitors never land strictly closer
            s = rng.dirichlet(np.ones(m), size=1000)
            d_p = np.sum((p - v) ** 2)
            d_s = np.sum((s - v) ** 2, axis=1)
            assert np.all(d_s >= d_p - 1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            project_rows([[1.0, np.nan]])
        with pytest.raises(ValueError, match="non-finite"):
            project_rows([[1.0, np.inf]])
        with pytest.raises(ValueError, match="array of blocks"):
            project_rows([1.0, 2.0])
        with pytest.raises(ValueError, match="array of blocks"):
            project_rows(np.ones((2, 2, 2)))


class TestRounding:
    def test_vertex_and_tie_break(self):
        np.testing.assert_array_equal(round_rows([[0.2, 0.5, 0.3]]), [[0, 1, 0]])
        # exact tie goes to the smallest index
        np.testing.assert_array_equal(round_rows([[0.4, 0.4, 0.2]]), [[1, 0, 0]])

    def test_large_mu_projection_equals_rounding(self):
        # once mu clears 1/(top gap), the projection lands exactly on the vertex
        rng = np.random.default_rng(21)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            v = rng.standard_normal(m)
            u = np.sort(v)[::-1]
            gap = u[0] - u[1]
            if gap < 1e-9:
                continue
            mu = 2.0 / gap
            np.testing.assert_array_equal(project_blockwise(v[None, :], mu),
                                          round_rows(v[None, :]))

    @pytest.mark.parametrize("mu", [1e15, 1e80, 1e200, 1e308, np.float64(1e308)])
    def test_huge_mu_lands_on_the_vertex(self, mu):
        # mu z was formed before: at 1e15 the cumulative sum rounded and the
        # row left the simplex, from 1e80 on it overflowed
        z = np.array([[20.0, 3.0, 1.0], [-5.0, 7.0, 7.0 - 1e-9], [1.0, -3.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = project_blockwise(z, mu)
        np.testing.assert_array_equal(got[:2], round_rows(z[:2]))
        # a tie at the top splits the mass at any scale
        np.testing.assert_array_equal(got[2], [0.5, 0.0, 0.5])

    @pytest.mark.parametrize("seed", range(6))
    def test_vertex_rule_at_every_scale(self, seed):
        # the vertex exactly when the top gap is at least 1/mu, else a point of
        # the simplex off every vertex; the same projection as unscaled math
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((200, int(rng.integers(2, 9))))
        u = -np.sort(-z, axis=1)
        gap = u[:, 0] - u[:, 1]
        for mu in 10.0 ** rng.uniform(-3, 308, 8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = project_blockwise(z, mu)
            assert np.all(got >= 0) and np.allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            vertex = gap >= 1.0 / mu
            np.testing.assert_array_equal(got[vertex], round_rows(z[vertex]))
            assert np.all(got[~vertex].max(axis=1) < 1.0)
            if mu < 1e6:
                want = np.stack([project_simplex(mu * row) for row in z])
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_tiny_mu_gives_the_barycenter(self):
        for mu in (1e-300, 5e-324):
            np.testing.assert_array_equal(project_blockwise(np.array([[2.0, 1.0, -3.0]]), mu),
                                          np.full((1, 3), 1 / 3))

    def test_small_mu_keeps_mass_spread(self):
        # mu below 1/gap cannot concentrate everything on one vertex
        p = project_blockwise(np.array([[0.6, 0.4]]), 0.5)  # 1/gap = 5
        assert p[0, 1] > 0


class TestBlockwise:
    def test_matches_per_row_projection(self):
        rng = np.random.default_rng(31)
        z = rng.standard_normal((40, 5)) * 2.0
        got = project_rows(z)
        want = np.stack([project_simplex(row) for row in z])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_mu_scaling_and_inf(self):
        rng = np.random.default_rng(32)
        z = rng.standard_normal((10, 4))
        np.testing.assert_allclose(
            project_blockwise(z, 3.0),
            np.stack([project_simplex(3.0 * row) for row in z]),
            atol=1e-12,
        )
        np.testing.assert_array_equal(project_blockwise(z, np.inf), round_rows(z))

    def test_invalid_mu(self):
        z = np.zeros((2, 3))
        with pytest.raises(ValueError):
            project_blockwise(z, 0.0)
        with pytest.raises(ValueError):
            project_blockwise(z, -1.0)

    def test_projection_of_zero_is_uniform(self):
        got = project_rows(np.zeros((3, 4)))
        np.testing.assert_allclose(got, np.full((3, 4), 0.25), atol=1e-12)


def test_feasible_minus_vertex_norm_bound():
    # any simplex point minus any vertex has Euclidean norm at most sqrt(2)
    rng = np.random.default_rng(41)
    for _ in range(200):
        m = int(rng.integers(2, 20))
        s = rng.dirichlet(np.ones(m))
        e = np.zeros(m)
        e[rng.integers(m)] = 1.0
        assert np.linalg.norm(s - e) <= np.sqrt(2.0) + 1e-12
