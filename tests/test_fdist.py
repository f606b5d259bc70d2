"""Unit tests for the F distribution module."""

import math

import pytest

from exanova import fdist
from exanova.fdist import f_cdf, f_quantile, p_value_from, power


class TestCdf:
    def test_symmetry_point_equal_dfs(self):
        for nu in (1, 2, 5, 10, 40):
            assert abs(f_cdf(1.0, nu, nu) - 0.5) <= 1e-12

    def test_bounds_and_monotone_in_x(self):
        xs = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 25.0, 400.0]
        vals = [f_cdf(x, 3, 7) for x in xs]
        assert vals[0] == 0.0
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.999

    def test_zero_ncp_is_exactly_central(self):
        for x in (0.3, 1.0, 2.7):
            for nu1, nu2 in ((1, 1), (2, 10), (6, 3)):
                assert f_cdf(x, nu1, nu2, 0.0) == f_cdf(x, nu1, nu2)

    def test_noncentral_shifts_mass_right(self):
        assert f_cdf(2.0, 3, 12, 5.0) < f_cdf(2.0, 3, 12, 0.0)

    def test_noncentral_against_chisq_mixture_identity(self):
        # P(F' <= x) with nu1=2 can be written via the series; sanity check
        # the series against a coarse numerical integral of the density ratio
        x, nu1, nu2, ncp = 3.0, 2.0, 10.0, 4.0
        val = f_cdf(x, nu1, nu2, ncp)
        assert 0.0 < val < 1.0
        # Poisson mixture evaluated with scipy's incomplete beta, so the
        # series is not checked against its own code
        special = pytest.importorskip("scipy.special")
        z = nu1 * x / (nu1 * x + nu2)
        total = 0.0
        w = math.exp(-ncp / 2)
        for k in range(200):
            total += w * float(special.betainc(nu1 / 2 + k, nu2 / 2, z))
            w *= (ncp / 2) / (k + 1)
        assert abs(val - total) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            f_cdf(-1.0, 2, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda nu1, nu2: f_cdf(1.0, nu1, nu2, 1.0),
            lambda nu1, nu2: p_value_from(1.0, nu1, nu2),
            lambda nu1, nu2: f_quantile(0.05, nu1, nu2),
            lambda nu1, nu2: power(0.05, nu1, nu2, 1.0),
        ],
        ids=["f_cdf", "p_value_from", "f_quantile", "power"],
    )
    def test_bad_df_raises(self, call):
        for nu1, nu2 in ((0, 3), (2, 0), (-1, 3), (2, -0.5), (math.nan, 3)):
            with pytest.raises(ValueError, match="degrees of freedom must be positive"):
                call(nu1, nu2)

    def test_bad_ncp_raises(self):
        with pytest.raises(ValueError, match="noncentrality must be nonnegative"):
            f_cdf(1.0, 2, 3, -1.0)
        with pytest.raises(ValueError, match="noncentrality must be nonnegative"):
            power(0.05, 2, 3, -1.0)


class TestQuantile:
    def test_median_is_one_for_equal_dfs(self):
        for nu in (2, 5, 9):
            assert abs(f_quantile(0.5, nu, nu) - 1.0) <= 1e-9

    def test_round_trip(self):
        for alpha in (0.01, 0.05, 0.5, 0.95):
            for nu1, nu2 in ((1, 1), (2, 10), (5, 5), (7, 3)):
                q = f_quantile(alpha, nu1, nu2)
                assert abs(f_cdf(q, nu1, nu2) - (1.0 - alpha)) <= 1e-10

    def test_small_alpha_round_trip_is_relative(self):
        # bisecting 1 - alpha would lose alpha below about 1e-13
        for alpha in (1e-12, 1e-16, 1e-20, 1e-50, 1e-100):
            for nu1, nu2 in ((1, 1), (1, 5), (2, 10), (3, 2), (10, 100)):
                q = f_quantile(alpha, nu1, nu2)
                assert abs(p_value_from(q, nu1, nu2) - alpha) <= 1e-8 * alpha

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            f_quantile(0.0, 2, 3)
        with pytest.raises(ValueError):
            f_quantile(1.0, 2, 3)


class TestPower:
    def test_size_equals_level_at_zero_ncp(self):
        for alpha in (0.01, 0.05, 0.1):
            assert abs(power(alpha, 3, 10, 0.0) - alpha) <= 1e-10

    def test_strictly_increasing_in_ncp(self):
        vals = [power(0.05, 2, 10, d) for d in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_numerator_df(self):
        vals = [power(0.05, nu1, 16, 4.0) for nu1 in (1, 2, 3, 4, 5, 6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_increasing_in_denominator_df(self):
        vals = [power(0.05, 2, nu2, 4.0) for nu2 in (4, 8, 16, 32)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPValue:
    def test_matches_cdf_complement(self):
        for x in (0.1, 0.5, 1.0, 2.5, 10.0, 100.0):
            for nu1, nu2 in ((1, 1), (3, 9), (2, 10), (5, 20), (10, 3), (1, 100), (4, 30)):
                assert abs(p_value_from(x, nu1, nu2) + f_cdf(x, nu1, nu2) - 1.0) <= 1e-15

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            p_value_from(-0.5, 3, 9)


class TestBetacf:
    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(fdist, "_BETACF_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            f_cdf(2.5, 30, 40)


class TestOracleGrid:
    """f_cdf and p_value_from against scipy and mpmath (test-only oracles)."""

    def test_noncentral_cdf_against_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        # 1431-1490 is where a sum up from k = 0 stalls short of its
        # Poisson mass; above 1490 its first weight exp(-ncp/2) underflows
        for ncp in (1440.0, 1462.25, 1489.0, 1600.0, 4000.0, 10000.0):
            for nu1 in (1, 2, 5, 10):
                for nu2 in (10, 100, 1000):
                    for at in (0.25, 0.5, 0.8, 1.0, 1.25, 1.5, 2.0):
                        x = at * nu2 / (nu2 - 2.0) * (nu1 + ncp) / nu1  # at times the mean
                        want = float(stats.ncf.cdf(x, nu1, nu2, ncp))
                        got = f_cdf(x, nu1, nu2, ncp)
                        assert abs(got - want) <= 1e-9, (x, nu1, nu2, ncp, got, want)

    def test_large_ncp_regression(self):
        stats = pytest.importorskip("scipy.stats")
        got = f_cdf(4005.0, 2, 10, ncp=1600.0)
        assert abs(got - 0.99628) <= 1e-5
        assert abs(got - float(stats.ncf.cdf(4005.0, 2, 10, 1600.0))) <= 1e-9

    def test_p_value_relative_down_to_1e300(self):
        mpmath = pytest.importorskip("mpmath")
        for nu1, nu2 in ((1, 4), (1, 100), (2, 8), (2, 1000), (3, 9), (4, 30), (10, 10000)):
            for p in (0.5, 1e-5, 1e-12, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300):
                # find the point by bisection on p_value_from, then check
                # that the 40-digit incomplete beta puts its tail at p too
                lo, hi = -3.0, 308.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if p_value_from(10.0**mid, nu1, nu2) > p:
                        lo = mid
                    else:
                        hi = mid
                x = 10.0**lo
                with mpmath.workdps(40):
                    w = mpmath.mpf(nu2) / (mpmath.mpf(nu2) + mpmath.mpf(nu1) * mpmath.mpf(x))
                    want = float(mpmath.betainc(mpmath.mpf(nu2) / 2, mpmath.mpf(nu1) / 2, 0, w, regularized=True))
                got = p_value_from(x, nu1, nu2)
                assert math.isclose(got, want, rel_tol=1e-8, abs_tol=0.0), (x, nu1, nu2, got, want)
                assert math.isclose(want, p, rel_tol=1e-6), (x, nu1, nu2, want, p)
