import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nclyap.comparison import (
    KLSurface,
    SontagFitError,
    TabulatedMonotone,
    gk_threshold,
    identity_table,
    invert_table,
    kl_from_alpha,
    lipschitz_minorant,
    power_table,
    sontag_factorize,
)


def envelope_oracle(grid, values):
    """Brute-force lower 1-Lipschitz envelope over the grid."""
    out = np.empty_like(values)
    for i, s in enumerate(grid):
        out[i] = min(values[j] + abs(s - grid[j]) for j in range(grid.size))
    out[0] = 0.0
    return out


def random_kinf(rng, n=None):
    n = n or rng.integers(3, 25)
    grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, n))])
    return TabulatedMonotone(grid, vals, "Kinf")


class TestTabulatedMonotone:
    def test_rejects_wrong_monotonicity(self):
        with pytest.raises(ValueError):
            TabulatedMonotone([0, 1, 2], [0, 2, 1], "K")
        with pytest.raises(ValueError):
            TabulatedMonotone([0, 1, 2], [0, 1, 2], "L")
        with pytest.raises(ValueError):
            TabulatedMonotone([0, 1], [1, 2], "Kinf")

    def test_rejects_nonpositive_kinf_slope(self):
        with pytest.raises(ValueError):
            TabulatedMonotone([0, 1], [0, 1], "Kinf", slope=0.0)

    def test_interpolation_and_extrapolation(self):
        f = TabulatedMonotone([0, 1, 2], [0, 2, 3], "Kinf")
        assert f(0.5) == pytest.approx(1.0)
        assert f(3.0) == pytest.approx(4.0)  # last segment slope 1
        ell = TabulatedMonotone([0, 1, 2], [3, 1, 0.5], "L")
        assert ell(10.0) == pytest.approx(0.5)

    def test_inverse_roundtrip(self):
        f = power_table(2.0, r_max=4.0)
        x = np.linspace(0, 4, 17)
        np.testing.assert_allclose(invert_table(f)(f(x)), x, atol=1e-12)
        # beyond the table: inverts through the linear tail
        y = f(5.0)
        assert invert_table(f)(y) == pytest.approx(5.0)

    def test_csv_roundtrip(self):
        f = power_table(2.0, r_max=3.0, n=31)
        g = TabulatedMonotone.from_csv(f.to_csv())
        np.testing.assert_array_equal(g.grid, f.grid)
        np.testing.assert_array_equal(g.values, f.values)
        assert g.class_tag == f.class_tag and g.slope == f.slope


class TestGkThreshold:
    def test_clamps_below_threshold(self):
        assert gk_threshold(1, 0.5) == 0.0

    def test_definition_value(self):
        assert gk_threshold(2, 1.0) == 0.5

    def test_boundary_is_zero(self):
        assert gk_threshold(4, 0.25) == 0.0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            gk_threshold(0, 1.0)

    @given(
        st.integers(min_value=1, max_value=50),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
    )
    @example(k=3, r1=60.0, r2=65.0)  # the two values round in different binades
    def test_unit_lipschitz(self, k, r1, r2):
        # exact in real arithmetic; each subtraction r - 1/k rounds by up to
        # half an ulp of its result, so allow one ulp of the larger r
        gap = abs(r1 - r2)
        bound = gap * (1 + 1e-15) + np.spacing(max(r1, r2))
        assert abs(gk_threshold(k, r1) - gk_threshold(k, r2)) <= bound


class TestLipschitzMinorant:
    def test_identity_is_fixed_point(self):
        rho = lipschitz_minorant(identity_table(5.0, 21))
        np.testing.assert_allclose(rho.values, rho.grid, atol=1e-12)

    def test_double_slope_flattens_to_identity(self):
        g = np.linspace(0, 5, 26)
        alpha = TabulatedMonotone(g, 2 * g, "Kinf")
        rho = lipschitz_minorant(alpha)
        np.testing.assert_allclose(rho.values, g, atol=1e-12)

    def test_square_tangent_line(self):
        g = np.linspace(0, 2, 401)
        rho = lipschitz_minorant(TabulatedMonotone(g, g**2, "Kinf"))
        low = g <= 0.5
        np.testing.assert_allclose(rho.values[low], g[low] ** 2, atol=1e-4)
        np.testing.assert_allclose(rho.values[~low], g[~low] - 0.25, atol=1e-4)

    def test_rejects_non_kinf(self):
        ell = TabulatedMonotone([0, 1], [1, 0.5], "L")
        with pytest.raises(ValueError):
            lipschitz_minorant(ell)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            alpha = random_kinf(rng)
            rho = lipschitz_minorant(alpha)
            np.testing.assert_allclose(
                rho.values, envelope_oracle(alpha.grid, alpha.values), atol=1e-12
            )

    def test_minorant_and_unit_lipschitz_on_random_tables(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            alpha = random_kinf(rng)
            rho = lipschitz_minorant(alpha)
            assert np.all(rho.values <= alpha.values + 1e-12)
            diffs = np.abs(rho.values[:, None] - rho.values[None, :])
            gaps = np.abs(alpha.grid[:, None] - alpha.grid[None, :])
            assert np.all(diffs <= gaps + 1e-12)


def domination_holds(beta, alpha1, alpha2):
    r, t = beta.r_grid, beta.t_grid
    bound = alpha2(alpha1(r)[:, None] * np.exp(-t)[None, :])
    return np.all(beta.values <= bound + 1e-9 * (1 + np.abs(beta.values)))


class TestSontagFactorize:
    def make_surface(self, f, r_max=10.0, t_max=5.0, nr=21, nt=26):
        r = np.linspace(0, r_max, nr)
        t = np.linspace(0, t_max, nt)
        return KLSurface(r, t, f(r[:, None], t[None, :]))

    def test_already_factored_surface(self):
        beta = self.make_surface(lambda r, t: r * np.exp(-t))
        a1, a2 = sontag_factorize(beta)
        assert domination_holds(beta, a1, a2)
        # near-identity fit: alpha1 within a hair of r on the grid
        np.testing.assert_allclose(a1(beta.r_grid), beta.r_grid, rtol=1e-6, atol=1e-9)

    def test_fast_decay_surface(self):
        beta = self.make_surface(lambda r, t: 2 * r * np.exp(-2 * t))
        a1, a2 = sontag_factorize(beta)
        assert domination_holds(beta, a1, a2)

    def test_slow_decay_surface(self):
        beta = self.make_surface(lambda r, t: r / (1 + t))
        a1, a2 = sontag_factorize(beta)
        assert domination_holds(beta, a1, a2)

    def test_outputs_are_kinf(self):
        beta = self.make_surface(lambda r, t: np.sqrt(r) * np.exp(-0.5 * t))
        a1, a2 = sontag_factorize(beta)
        assert a1.class_tag == "Kinf" and a2.class_tag == "Kinf"
        assert domination_holds(beta, a1, a2)

    def test_infeasible_fit_reports_worst_point(self):
        # decay far slower than e^{-t} over a long horizon overflows the
        # required alpha1 values
        r = np.linspace(0, 1e300, 11)
        t = np.linspace(0, 1500.0, 4)
        beta = KLSurface(r, t, r[:, None] * np.exp(-1e-6 * t)[None, :])
        with pytest.raises(SontagFitError) as err:
            sontag_factorize(beta)
        assert err.value.worst_point is not None


class TestKlFromAlpha:
    def test_linear_rate_closed_form(self):
        beta = kl_from_alpha(identity_table(3.0), np.linspace(0, 2, 5), np.linspace(0, 2, 9))
        assert beta(1.0, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-6)

    def test_initial_condition_column(self):
        r = np.linspace(0, 5, 11)
        beta = kl_from_alpha(power_table(2.0, 6.0), r, np.linspace(0, 1, 5))
        np.testing.assert_array_equal(beta.values[:, 0], r)

    def test_quadratic_rate_closed_form(self):
        # dy/dt = -y^2 has y(t) = r / (1 + r t); a fine table keeps the
        # piecewise-linear rate error below the tolerance
        alpha = power_table(2.0, 6.0, n=8001)
        beta = kl_from_alpha(alpha, np.linspace(0, 2, 9), np.linspace(0, 2, 9))
        assert beta(1.0, 1.0) == pytest.approx(0.5, abs=1e-6)

    def test_surface_monotonicity(self):
        beta = kl_from_alpha(power_table(2.0, 6.0), np.linspace(0, 3, 13), np.linspace(0, 4, 17))
        assert np.all(np.diff(beta.values, axis=0) >= 0)
        assert np.all(np.diff(beta.values, axis=1) <= 0)

    def test_dominates_dini_decaying_samples(self):
        # y from dy/dt = -alpha(y)(1+u), u in [0,1], must sit below the surface
        rng = np.random.default_rng(3)
        alpha = power_table(2.0, 8.0)
        r_grid = np.linspace(0, 4, 17)
        t_grid = np.linspace(0, 3, 31)
        beta = kl_from_alpha(alpha, r_grid, t_grid)
        for _ in range(50):
            y0 = float(rng.choice(r_grid[1:]))
            u = rng.uniform(0, 1, t_grid.size - 1)
            y = y0
            for j in range(1, t_grid.size):
                dt = (t_grid[j] - t_grid[j - 1]) / 32
                for _ in range(32):
                    rate = lambda z: alpha(max(z, 0.0)) * (1 + u[j - 1])
                    k1 = -rate(y)
                    k2 = -rate(y + 0.5 * dt * k1)
                    k3 = -rate(y + 0.5 * dt * k2)
                    k4 = -rate(y + dt * k3)
                    y = max(y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), 0.0)
                assert y <= beta(y0, t_grid[j]) + 1e-6


class TestKLSurfaceType:
    def test_rejects_non_kl_shapes(self):
        r = np.linspace(0, 1, 3)
        t = np.linspace(0, 1, 3)
        grow_t = r[:, None] * (1 + t)[None, :]
        with pytest.raises(ValueError):
            KLSurface(r, t, grow_t, kind="KL")
        KLSurface(r, t, grow_t, kind="increasing")  # fine as a mu-table

    def test_csv_roundtrip(self):
        r = np.linspace(0, 2, 5)
        t = np.linspace(0, 3, 4)
        beta = KLSurface(r, t, r[:, None] * np.exp(-t)[None, :])
        back = KLSurface.from_csv(beta.to_csv())
        np.testing.assert_array_equal(back.values, beta.values)
        np.testing.assert_array_equal(back.r_grid, beta.r_grid)
        assert back.kind == "KL"

    def test_bilinear_eval(self):
        r = np.linspace(0, 2, 21)
        t = np.linspace(0, 2, 21)
        beta = KLSurface(r, t, r[:, None] * np.exp(-t)[None, :])
        assert beta(1.0, 1.0) == pytest.approx(np.exp(-1), rel=1e-2)
        assert beta(0.55, 0.35) == pytest.approx(0.55 * np.exp(-0.35), rel=1e-2)
