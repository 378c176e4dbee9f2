import numpy as np
import pytest
from scipy import stats

from pwexp.distribution import (
    PweModel,
    cdf,
    conditional_cdf,
    conditional_quantile,
    conditional_sample,
    conditional_survival,
    cumulative_hazard,
    density,
    hazard,
    quantile,
    sample,
    survival,
)

M3 = PweModel((0.1, 0.01, 0.2), (5.0, 14.0))
EXP_HALF = PweModel((0.5,))

# KS critical value at the 1% level, asymptotic
KS_CRIT_1PCT = 1.6276


def ref_cumhaz(m: PweModel, t: float) -> float:
    """Piece-by-piece cumulative hazard, written independently of the
    library's prefix-sum implementation."""
    edges = [0.0, *m.breakpoints, np.inf]
    total = 0.0
    for lam, lo, hi in zip(m.rates, edges[:-1], edges[1:]):
        if t <= lo:
            break
        total += lam * (min(t, hi) - lo)
    return total


class TestModelValidation:
    def test_rate_break_length_mismatch(self):
        with pytest.raises(ValueError):
            PweModel((0.1, 0.2), (1.0, 2.0))

    @pytest.mark.parametrize("rates", [(0.0,), (-0.1,), (np.inf,)])
    def test_bad_rates(self, rates):
        with pytest.raises(ValueError):
            PweModel(rates)

    @pytest.mark.parametrize("breaks", [(0.0,), (-1.0,), (2.0, 2.0), (3.0, 1.0)])
    def test_bad_breakpoints(self, breaks):
        with pytest.raises(ValueError):
            PweModel((0.1,) * (len(breaks) + 1), breaks)

    def test_r_zero_allowed(self):
        assert PweModel((0.5,)).n_pieces == 1


class TestDensity:
    def test_exponential_at_zero_equals_rate(self):
        assert density(EXP_HALF, 0.0) == 0.5

    def test_first_piece_hand_value(self):
        # 0.1 * exp(-0.3)
        assert density(M3, 3.0) == pytest.approx(0.07408182206817179, rel=1e-12)

    def test_second_piece_hand_value(self):
        # 0.01 * exp((0.01 - 0.1)*5 - 0.01*6) = 0.01 * exp(-0.51)
        assert density(M3, 6.0) == pytest.approx(0.006004955788122659, rel=1e-12)

    def test_negative_time_is_zero(self):
        assert density(M3, -1.0) == 0.0

    def test_right_continuous_at_breakpoint(self):
        # at t = d1 the next piece's rate applies
        assert density(M3, 5.0) == pytest.approx(0.01 * np.exp(-0.5), rel=1e-12)

    def test_integrates_to_one(self):
        hi = quantile(M3, 0.999999)
        ts = np.linspace(0.0, hi, 400001)
        f = density(M3, ts)
        integral = np.sum((f[1:] + f[:-1]) * np.diff(ts)) / 2.0  # trapezoid rule
        assert integral == pytest.approx(1.0, abs=1e-4)


class TestSurvival:
    def test_fitted_design_model_golden_values(self):
        m = PweModel((0.023956, 0.009931584, 0.004189957), (14.716, 29.85))
        got = survival(m, np.array([12.0, 24.0, 36.0, 48.0]))
        want = np.array([0.7501575, 0.6409900, 0.5894241, 0.5605208])
        assert np.allclose(got, want, atol=1e-6)

    def test_at_zero_is_one(self):
        assert survival(M3, 0.0) == 1.0
        assert survival(EXP_HALF, 0.0) == 1.0

    def test_hand_value_at_first_break(self):
        assert survival(M3, 5.0) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_negative_time_is_one(self):
        assert survival(M3, -2.0) == 1.0

    def test_non_increasing_and_vanishing(self):
        ts = np.linspace(0.0, 200.0, 2001)
        sv = survival(M3, ts)
        assert np.all(np.diff(sv) <= 0.0)
        assert sv[-1] < 1e-10

    def test_matches_reference_cumhaz_on_grid(self):
        ts = np.linspace(0.0, 40.0, 173)
        want = np.exp(-np.array([ref_cumhaz(M3, t) for t in ts]))
        assert np.allclose(survival(M3, ts), want, rtol=1e-13)

    def test_cdf_complements_survival(self):
        ts = np.linspace(0.0, 30.0, 50)
        assert np.allclose(cdf(M3, ts) + survival(M3, ts), 1.0, atol=1e-12)


class TestQuantile:
    def test_exponential_closed_form(self):
        assert quantile(EXP_HALF, 1.0 - np.exp(-1.0)) == pytest.approx(2.0, rel=1e-12)

    def test_boundary_at_first_break(self):
        assert quantile(M3, 1.0 - np.exp(-0.5)) == pytest.approx(5.0, rel=1e-12)

    def test_zero_probability(self):
        assert quantile(M3, 0.0) == 0.0

    def test_one_returns_infinity(self):
        assert quantile(M3, 1.0) == np.inf

    @pytest.mark.parametrize("p", [-0.1, 1.1, np.nan])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            quantile(M3, p)

    def test_roundtrip_through_cdf(self):
        ts = np.linspace(0.01, 45.0, 100)
        back = quantile(M3, cdf(M3, ts))
        assert np.allclose(back, ts, rtol=1e-10)

    def test_cdf_of_quantile(self):
        ps = np.linspace(0.0, 0.999, 100)
        assert np.allclose(cdf(M3, quantile(M3, ps)), ps, atol=1e-10)


class TestSample:
    def test_zero_draws(self):
        assert len(sample(M3, 0, np.random.default_rng(0))) == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample(M3, -1, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = sample(M3, 100, np.random.default_rng(5))
        b = sample(M3, 100, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_exponential_mean_clt(self):
        x = sample(EXP_HALF, 100_000, np.random.default_rng(11))
        se = 2.0 / np.sqrt(len(x))
        assert abs(x.mean() - 2.0) < 3.0 * se

    def test_ks_against_exact_cdf(self):
        x = sample(M3, 100_000, np.random.default_rng(12))
        stat = stats.kstest(x, lambda t: cdf(M3, t)).statistic
        assert stat < KS_CRIT_1PCT / np.sqrt(len(x))


class TestConditional:
    def test_survival_at_conditioning_point(self):
        assert conditional_survival(M3, 6.0, 6.0) == 1.0

    def test_exponential_memorylessness(self):
        for r in (0.0, 1.5, 7.0):
            got = conditional_survival(EXP_HALF, r + 3.0, r)
            assert got == pytest.approx(survival(EXP_HALF, 3.0), rel=1e-12)

    def test_ratio_of_survivals(self):
        want = survival(M3, 20.0) / survival(M3, 6.0)
        assert conditional_survival(M3, 20.0, 6.0) == pytest.approx(want, rel=1e-12)

    def test_t_below_conditioning_time_rejected(self):
        with pytest.raises(ValueError):
            conditional_survival(M3, 5.0, 6.0)

    def test_factorization_identity(self):
        for r in (0.0, 2.0, 5.0, 9.3, 14.0, 20.0):
            ts = np.linspace(r, r + 30.0, 57)
            lhs = conditional_survival(M3, ts, r) * survival(M3, r)
            assert np.allclose(lhs, survival(M3, ts), rtol=1e-12)

    def test_quantile_at_zero_is_conditioning_point(self):
        assert conditional_quantile(M3, 0.0, 6.0) == 6.0

    def test_quantile_exponential_shift(self):
        r, p = 4.0, 0.37
        want = r + (-np.log(1.0 - p)) / 0.5
        assert conditional_quantile(EXP_HALF, p, r) == pytest.approx(want, rel=1e-12)

    def test_quantile_roundtrip_grid(self):
        rs = np.linspace(0.0, 20.0, 10)
        for r in rs:
            ts = np.linspace(r + 0.01, r + 25.0, 10)
            back = conditional_quantile(M3, conditional_cdf(M3, ts, r), r)
            assert np.allclose(back, ts, rtol=1e-10)

    def test_quantile_domain_error(self):
        with pytest.raises(ValueError):
            conditional_quantile(M3, -0.5, 1.0)

    def test_sample_empty(self):
        assert len(conditional_sample(M3, 0, 6.0, np.random.default_rng(0))) == 0

    def test_sample_strictly_beyond_conditioning_point(self):
        x = conditional_sample(M3, 20_000, 6.0, np.random.default_rng(3))
        assert np.all(x > 6.0)

    def test_sample_ks_against_conditional_cdf(self):
        r = 6.0
        x = conditional_sample(M3, 100_000, r, np.random.default_rng(4))
        stat = stats.kstest(x, lambda t: conditional_cdf(M3, t, r)).statistic
        assert stat < KS_CRIT_1PCT / np.sqrt(len(x))

    def test_quantile_array_given_matches_scalar_calls(self):
        given = np.array([0.0, 2.0, 5.0, 5.0, 9.3, 14.0, 20.0])
        p = np.array([0.0, 0.3, 0.5, 1e-12, 0.9, 1.0, 0.37])
        got = conditional_quantile(M3, p, given)
        assert np.array_equal(got, [conditional_quantile(M3, q, g) for q, g in zip(p, given)])
        # a scalar p broadcasts against the conditioning times
        got = conditional_quantile(M3, 0.25, given)
        assert np.array_equal(got, [conditional_quantile(M3, 0.25, g) for g in given])

    def test_negative_given_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            conditional_quantile(M3, [0.1, 0.2], np.array([1.0, -0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            conditional_sample(M3, 2, np.array([1.0, -0.5]), np.random.default_rng(0))

    def test_sample_array_given_matches_scalar_calls(self):
        # one uniform per draw, consumed in order, so per-draw conditioning
        # gives the draws of the scalar calls on the same stream
        given = np.repeat([0.0, 6.0, 15.0], 4)
        rng = np.random.default_rng(8)
        want = np.concatenate([conditional_sample(M3, 4, g, rng) for g in (0.0, 6.0, 15.0)])
        got = conditional_sample(M3, len(given), given, np.random.default_rng(8))
        assert np.array_equal(got, want)
        assert np.all(got > given)


class TestExponentialSpecialCase:
    """The r = 0 model must match the textbook exponential exactly."""

    def test_closed_forms(self):
        lam = 0.5
        ts = np.linspace(0.0, 20.0, 97)
        assert np.allclose(survival(EXP_HALF, ts), np.exp(-lam * ts), rtol=1e-15)
        assert np.allclose(density(EXP_HALF, ts), lam * np.exp(-lam * ts), rtol=1e-15)
        assert np.allclose(hazard(EXP_HALF, ts), lam)
        ps = np.linspace(0.0, 0.99, 45)
        assert np.allclose(quantile(EXP_HALF, ps), -np.log1p(-ps) / lam, rtol=1e-15)

    def test_cumhaz_linear(self):
        ts = np.linspace(0.0, 10.0, 11)
        assert np.allclose(cumulative_hazard(EXP_HALF, ts), 0.5 * ts, rtol=1e-15)
