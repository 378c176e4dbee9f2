from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from pwexp import distribution as dist
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

    @pytest.mark.parametrize("breaks", [(0.0,), (-1.0,), (2.0, 2.0), (3.0, 1.0), (np.nan,), (1.0, np.inf),
                                        (1.0, np.nan, 3.0), (-np.inf, 1.0)])
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


class TestEdgeValues:
    """All five evaluation functions at NaN, at ±inf and exactly on each
    breakpoint, where the hazard is right-continuous."""

    FUNCTIONS = (hazard, cumulative_hazard, density, survival, cdf)

    @pytest.mark.parametrize("m", [EXP_HALF, M3, PweModel(np.linspace(0.05, 0.5, 21), np.arange(1.0, 21.0))],
                             ids=["r0", "r2", "r20"])
    def test_nan_in_nan_out(self, m):
        for fn in self.FUNCTIONS:
            assert np.isnan(fn(m, np.nan)), fn.__name__
            got = fn(m, np.array([1.0, np.nan]))
            assert np.isnan(got[1]) and not np.isnan(got[0]), fn.__name__

    def test_infinities(self):
        got = [fn(M3, -np.inf) for fn in self.FUNCTIONS]
        assert got == [0.0, 0.0, 0.0, 1.0, 0.0]
        got = [fn(M3, np.inf) for fn in self.FUNCTIONS]
        assert got == [0.2, np.inf, 0.0, 0.0, 1.0]

    def test_on_each_breakpoint(self):
        for k, d in enumerate(M3.breakpoints):
            rate = M3.rates[k + 1]  # the piece that starts at d
            h = ref_cumhaz(M3, d)
            assert hazard(M3, d) == rate
            assert cumulative_hazard(M3, d) == pytest.approx(h, rel=1e-15)
            assert density(M3, d) == pytest.approx(rate * np.exp(-h), rel=1e-15)
            assert survival(M3, d) == pytest.approx(np.exp(-h), rel=1e-15)
            assert cdf(M3, d) == pytest.approx(-np.expm1(-h), rel=1e-15)
            # one float step below the breakpoint is still the earlier piece
            assert hazard(M3, np.nextafter(d, -np.inf)) == M3.rates[k]


@st.composite
def models(draw):
    """A PWE model with 0 to 20 change-points."""
    r = draw(st.integers(0, 20))
    breaks = sorted(draw(st.lists(st.floats(1e-3, 100.0), min_size=r, max_size=r, unique=True)))
    rates = draw(st.lists(st.floats(1e-3, 10.0), min_size=r + 1, max_size=r + 1))
    return PweModel(tuple(rates), tuple(breaks))


def _keys_around(m: PweModel, draw):
    """Keys on the breakpoints and on the cumulative hazard at each piece's
    start, one float step either side of those, ±inf, and anywhere."""
    on = [*m.breakpoints, *m._cum.tolist(), 0.0]
    key = (
        st.sampled_from(on)
        | st.sampled_from(on).map(lambda b: np.nextafter(b, np.inf))
        | st.sampled_from(on).map(lambda b: np.nextafter(b, -np.inf))
        | st.sampled_from([np.inf, -np.inf])
        | st.floats(-1.0, 200.0)
    )
    return np.array(draw(st.lists(key, min_size=1, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(models(), st.data())
def test_piece_lookup_equals_searchsorted(m, data):
    keys = _keys_around(m, data.draw)
    for bounds in (m._breaks_arr, m._cum[1:]):
        want = np.searchsorted(bounds, keys, side="right")
        np.testing.assert_array_equal(np.broadcast_to(dist._locate(bounds, keys), keys.shape), want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=0, max_size=127, unique=True), st.data())
def test_comparison_count_up_to_127_bounds(bounds, data):
    # the count is kept in int8; force it on for every length it may serve
    bounds = np.sort(np.array(bounds, dtype=float))
    keys = np.array(data.draw(st.lists(
        st.sampled_from([*bounds.tolist(), np.inf, -np.inf, 0.0]) | st.floats(-60.0, 60.0),
        min_size=1, max_size=40)))
    with mock.patch.object(dist, "_COUNT_MAX", 127):
        got = np.broadcast_to(dist._locate(bounds, keys), keys.shape)
    np.testing.assert_array_equal(got, np.searchsorted(bounds, keys, side="right"))


@settings(max_examples=150, deadline=None)
@given(models(), st.integers(0, 300), st.integers(0, 2**32 - 1))
def test_sample_is_quantile_of_its_uniforms(m, n, seed):
    ref = np.random.default_rng(seed)
    want = quantile(m, ref.random(n))
    rng = np.random.default_rng(seed)
    got = sample(m, n, rng)
    assert got.dtype == float and got.shape == (n,)
    assert got.tobytes() == np.atleast_1d(want).tobytes()
    assert rng.random() == ref.random()  # one uniform per draw


@settings(max_examples=150, deadline=None)
@given(models(), st.integers(0, 300), st.integers(0, 2**32 - 1), st.data())
def test_conditional_sample_is_conditional_quantile_of_its_uniforms(m, n, seed, data):
    times = st.sampled_from([0.0, *m.breakpoints]) | st.floats(0.0, 150.0)
    scalar = data.draw(times)
    array = np.resize(data.draw(st.lists(times, min_size=1, max_size=20)), n)
    for g in (scalar, array):
        ref = np.random.default_rng(seed)
        u = np.maximum(ref.random(n), np.finfo(float).tiny)
        want = np.atleast_1d(conditional_quantile(m, u, g))
        rng = np.random.default_rng(seed)
        got = conditional_sample(m, n, g, rng)
        assert got.dtype == float and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert np.all(got >= g)
        assert rng.random() == ref.random()  # one uniform per draw


class _ZeroUniforms:
    """Stands in for a generator whose next uniforms are all exactly 0."""

    def random(self, n):
        return np.zeros(n)


def test_zero_uniform_is_replaced_by_tiny():
    # U == 0 draws at the smallest normal float instead: strictly above a
    # conditioning time of 0, and at (rounded to) a positive one. At
    # 5.2696686180767704 inverting H(g) rounds below g, and the draw is
    # raised to g.
    for g in (0.0, 5.0, 5.2696686180767704, np.array([0.0, 5.0, 14.0])):
        got = conditional_sample(M3, 3, g, _ZeroUniforms())
        want = np.atleast_1d(conditional_quantile(M3, np.finfo(float).tiny, g))
        assert got.tobytes() == np.broadcast_to(want, (3,)).tobytes()
        assert np.all(got >= g) and np.all(got[np.broadcast_to(g, 3) == 0.0] > 0.0)


@pytest.mark.parametrize("r", [0, 2, 20, 41, 60])
def test_samplers_same_with_either_lookup(r):
    """The draws do not depend on which side of the crossover a model is."""
    m = PweModel(np.linspace(0.02, 0.3, r + 1), np.linspace(1.0, 40.0, r))
    given = np.repeat(np.linspace(0.0, 45.0, 50), 20)
    runs = []
    for count_max in (-1, 127):
        with mock.patch.object(dist, "_COUNT_MAX", count_max):
            runs.append((sample(m, 1000, np.random.default_rng(r)),
                         conditional_sample(m, 1000, given, np.random.default_rng(r))))
    for a, b in zip(*runs):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("r", [0, 2, 50])
def test_conditional_sample_per_subject_equals_repeated_given(r):
    """A column of conditioning times gives each subject its consecutive
    draws, bit for bit those of the per-draw form with every time repeated.
    50 breaks are past ``_COUNT_MAX``, so pieces are found by binary search
    there."""
    m = PweModel(np.linspace(0.02, 0.3, r + 1), np.linspace(1.0, 40.0, r))
    # 0, on a break, between breaks and past the last one
    given = np.array([0.0, 1.0, 6.5, 17.3, 40.0, 55.0])
    for each in (1, 7):
        n = len(given) * each
        rng, ref = np.random.default_rng(r), np.random.default_rng(r)
        got = conditional_sample(m, n, given[:, None], rng)
        want = conditional_sample(m, n, np.repeat(given, each), ref)
        assert got.shape == (len(given), each)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref.random()  # one uniform per draw
    if r == 50:
        assert r > dist._COUNT_MAX  # the binary-search branch is the one run


def test_conditional_sample_column_shape_checked():
    rng = np.random.default_rng(0)
    for n, given in ((7, np.zeros((2, 1))), (6, np.zeros((2, 3))), (3, np.zeros((0, 1)))):
        with pytest.raises(ValueError, match="column"):
            conditional_sample(M3, n, given, rng)
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn
    assert conditional_sample(M3, 0, np.zeros((0, 1)), rng).shape == (0, 0)
