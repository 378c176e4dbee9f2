import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pwexp as pw
import pwexp.prediction as pr
from pwexp.estimation import FitResult
from pwexp.resampling import BootFit

T0 = 30.0
LAM, MU = 0.1, 0.05


def _result(model: pw.PweModel) -> FitResult:
    return FitResult(model=model, loglik=0.0, n_obs=1, optimizer="bfs")


def _ensemble(rates) -> BootFit:
    """A bootstrap ensemble of two-piece models, with a base fit."""
    reps = [_result(pw.PweModel((a, b), (6.0,))) for a, b in rates]
    return BootFit(replicates=reps, config=None, nsim=len(reps), seed=0,
                   base=_result(pw.PweModel((0.08, 0.04), (6.0,))))


@pytest.fixture(scope="module")
def snapshot():
    enroll = np.random.default_rng(5).uniform(0.0, T0, 150)
    return pw.TrialSnapshot(analysis_time=T0, n_events=40, enroll_times=enroll,
                            accrual=pw.AccrualPlan(n_remaining=60, rate=15.0))


ENSEMBLE = _ensemble([(0.1, 0.05), (0.07, 0.03), (0.09, 0.06)])
CENSOR = pw.PweModel((0.02,))


def _predict(snapshot, **kw):
    kw = {"n_each": 30, "seed": 11, "grid_points": 50, **kw}
    return pw.predict_events(ENSEMBLE, CENSOR, snapshot, **kw)


def _assert_same(a: pr.PredictionEnsemble, b: pr.PredictionEnsemble):
    for name in ("grid", "point", "expected", "predictive"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_accrual_plan_months():
    plan = pw.AccrualPlan(n_remaining=6, monthly_counts=(2, 0, 3, 4))
    assert plan.last_month == 4.0
    assert pr._enrol_months(plan.n_remaining, plan.rate, plan.monthly_counts).tolist() == [0, 0, 2, 2, 2, 3]
    assert pw.AccrualPlan(n_remaining=60, rate=15.0).last_month == 4.0
    assert pw.AccrualPlan(n_remaining=61, rate=15.0).last_month == 5.0


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
def test_accrual_rate_must_be_positive_and_finite(rate):
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        pw.AccrualPlan(n_remaining=10, rate=rate)


@pytest.mark.parametrize("make, name", [
    (lambda: pw.AccrualPlan(n_remaining=10.5, rate=1.0), "n_remaining"),
    (lambda: pw.AccrualPlan(n_remaining=2, monthly_counts=(2.5,)), "monthly counts"),
    (lambda: pw.TrialSnapshot(analysis_time=1.0, n_events=2.5, enroll_times=[]), "n_events"),
    (lambda: pw.predict_events(CENSOR, None, pw.TrialSnapshot(1.0, 2, [0.5]), n_each=2.5, seed=0), "n_each"),
    (lambda: pw.predict_events(CENSOR, None, pw.TrialSnapshot(1.0, 2, [0.5]), n_each=2, seed=0,
                               grid_points=2.5), "grid_points"),
], ids=["n_remaining", "monthly_counts", "n_events", "n_each", "grid_points"])
def test_fractional_counts_rejected(make, name):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        make()


def test_whole_valued_counts_are_ints():
    plan = pw.AccrualPlan(n_remaining=np.int64(3), monthly_counts=(2.0, np.int32(1)))
    snap = pw.TrialSnapshot(analysis_time=1.0, n_events=2.0, enroll_times=[0.5], accrual=plan)
    assert (plan.n_remaining, plan.monthly_counts, snap.n_events) == (3, (2, 1), 2)
    assert all(type(v) is int for v in (plan.n_remaining, *plan.monthly_counts, snap.n_events))
    want = pw.predict_events(CENSOR, None, snap, n_each=2, seed=0, grid_points=4)
    got = pw.predict_events(CENSOR, None, snap, n_each=np.int64(2), seed=0, grid_points=4.0)
    _assert_same(got, want)


@pytest.mark.parametrize("make, message", [
    (lambda: pw.AccrualPlan(5, monthly_counts=(2, 2)), "accrual plan provides 4 slots for 5 remaining subjects"),
    (lambda: pw.AccrualPlan(0, rate=-5.0), "rate must be positive and finite"),
    (lambda: pw.AccrualPlan(0, rate=1.0, monthly_counts=(1,)), "specify exactly one of rate or monthly_counts"),
    (lambda: pw.AccrualPlan(0, monthly_counts=(1, -1)), "monthly counts must be >= 0, got -1"),
    (lambda: pw.AccrualPlan(3), "specify exactly one of rate or monthly_counts"),
], ids=["shortfall", "no_subjects_bad_rate", "no_subjects_both_forms", "no_subjects_bad_count", "no_form"])
def test_accrual_plan_rejects_bad_plans(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_accrual_plan_for_no_subjects():
    for plan in (pw.AccrualPlan(0), pw.AccrualPlan(0, rate=2.0), pw.AccrualPlan(0, monthly_counts=(0, 1.0))):
        assert plan.n_remaining == 0 and plan.last_month == 0.0
    assert pw.AccrualPlan(0, monthly_counts=(0, 1.0)).monthly_counts == (0, 1)


@pytest.mark.parametrize("reasons", [
    [None, "drop_out", "cut", "cut", None, "drop_out"],
    [None, None, None, None, None, None],
    ["cut"] * 6,
], ids=["mixed", "none_at_risk", "all_at_risk"])
def test_snapshot_from_cut_sample(reasons):
    """Only subjects censored at the cut are at risk; events are counted
    over the whole sample."""
    rand = np.array([1.0, 2.5, 3.0, 4.25, 6.0, 7.5])
    event = np.array([1, 0, 0, 0, 1, 0]) * np.array([r is None for r in reasons])
    data = pw.SurvSample(time=10.0 - rand, event=event, rand_time=rand,
                         follow_abs_time=np.full(6, 10.0),
                         censor_reason=np.array(reasons, dtype=object))
    plan = pw.AccrualPlan(n_remaining=3, rate=2.0)
    snap = pw.TrialSnapshot.from_cut_sample(data, 10.0, plan)
    at_risk = np.array([r == "cut" for r in reasons], dtype=bool)
    assert snap.enroll_times.dtype == float
    assert snap.enroll_times.tobytes() == rand[at_risk].tobytes()
    assert (snap.analysis_time, snap.n_events, snap.accrual) == (10.0, event.sum(), plan)


def exponential_events(snap: pw.TrialSnapshot, times, lam: float, mu: float) -> np.ndarray:
    """Expected event count under constant event hazard ``lam`` and
    censoring hazard ``mu``. By memorylessness an at-risk subject has an
    observed event within d of the analysis time with probability
    I(d) = lam / h * (1 - exp(-h d)), h = lam + mu, whatever its elapsed
    follow-up. A subject enrolling uniformly within month m after it has
    J(d - m) - J(d - m - 1), J(y) = lam / h * (y - (1 - exp(-h y)) / h) the
    integral of I over [0, y] (0 for y <= 0)."""
    h = lam + mu
    d = np.asarray(times, dtype=float) - snap.analysis_time
    out = snap.n_events + len(snap.enroll_times) * lam / h * -np.expm1(-h * np.maximum(d, 0.0))
    plan = snap.accrual
    if plan is not None:
        months = (np.floor(np.arange(plan.n_remaining) / plan.rate) if plan.rate is not None
                  else np.repeat(np.arange(len(plan.monthly_counts)), plan.monthly_counts)[:plan.n_remaining])
        y = np.maximum(d[:, None] - months, 0.0)
        def integral(y):
            return lam / h * (y + np.expm1(-h * y) / h)

        out = out + (integral(y) - integral(np.maximum(y - 1.0, 0.0))).sum(axis=1)
    return out


class TestExponentialOracle:
    """Constant event hazard LAM and censoring hazard MU, at-risk subjects
    only (see ``exponential_events``)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_within_4_se(self, seed):
        """The mean of the predictive draws lies within 4 SE of the closed
        form, and the point and expected curves are the closed form."""
        enroll = np.random.default_rng(seed).uniform(0.0, T0, 300)
        snap = pw.TrialSnapshot(analysis_time=T0, n_events=25, enroll_times=enroll)
        n_each = 200
        ens = pw.predict_events(pw.PweModel((LAM,)), pw.PweModel((MU,)), snap, n_each=n_each,
                                seed=seed, horizon=T0 + 40.0, grid_points=40)
        p = LAM / (LAM + MU) * -np.expm1(-(LAM + MU) * (ens.grid - T0))
        want = snap.n_events + len(enroll) * p
        se = np.sqrt(len(enroll) * p * (1.0 - p) / n_each)
        assert ens.point[0] == snap.n_events
        np.testing.assert_array_equal(ens.expected, ens.point[None, :])
        assert np.all(np.abs(ens.predictive.mean(axis=0) - want) <= 4.0 * se)
        # the curve is far from flat: the check has power
        assert want[-1] - want[0] > 100 * se.max()
        np.testing.assert_allclose(ens.point, want, rtol=1e-9)

    @pytest.mark.parametrize("plan", [pw.AccrualPlan(n_remaining=60, rate=15.0),
                                      pw.AccrualPlan(n_remaining=70, rate=2.5),
                                      pw.AccrualPlan(n_remaining=9, monthly_counts=(2, 0, 3, 0, 0, 6))],
                             ids=["rate", "slow_rate", "monthly_counts"])
    def test_expected_events_with_accrual(self, snapshot, plan):
        snap = pw.TrialSnapshot(T0, snapshot.n_events, snapshot.enroll_times, plan)
        times = np.concatenate([[T0 - 5.0], np.linspace(T0, T0 + 60.0, 121)])
        got = pw.expected_events(pw.PweModel((LAM,)), pw.PweModel((MU,)), snap, times)
        np.testing.assert_allclose(got, exponential_events(snap, times, LAM, MU), rtol=1e-12)
        assert got[0] == got[1] == snap.n_events


def _pieces(event_m, censor_m):
    """Lower and upper bounds of the pieces on both models' breakpoints,
    with the event and the total hazard on each."""
    breaks = np.union1d(event_m.breakpoints, censor_m.breakpoints if censor_m else ())
    lower = np.concatenate(([0.0], breaks))
    lam = pw.hazard(event_m, lower)
    total = lam + (pw.hazard(censor_m, lower) if censor_m else 0.0)
    return lower, np.append(breaks, np.inf), lam, total


def reference_event_prob(event_m, censor_m, r, x):
    """P(observed event by follow-up x | at risk at r), r and x broadcast:
    the sum over the pieces [lo, hi) of exp(-(H(s) - H(r))) lam / h
    (1 - exp(-h (e - s))), [s, e] the part of the piece in [r, x] and H the
    total cumulative hazard."""
    def cumhaz(t):
        return pw.cumulative_hazard(event_m, t) + (pw.cumulative_hazard(censor_m, t) if censor_m else 0.0)

    r, x = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(x, dtype=float))
    out = np.zeros(r.shape)
    for lo, hi, lam, h in zip(*_pieces(event_m, censor_m)):
        s, e = np.maximum(r, lo), np.minimum(x, hi)
        meets = e > s
        s, e = s[meets], e[meets]
        out[meets] += (np.exp(-(cumhaz(s) - cumhaz(r[meets]))) * lam / h * -np.expm1(-h * (e - s)))
    return out


def reference_expected_events(event_m, censor_m, snap, times):
    """``expected_events`` summed subject by subject: at-risk subjects by
    ``reference_event_prob`` on blocks of subjects x times, future enrollees
    by 30-point Gauss-Legendre quadrature of the unconditional probability
    over their month, split where it has a kink."""
    d = np.maximum(np.asarray(times, dtype=float) - snap.analysis_time, 0.0)
    out = np.full(len(d), float(snap.n_events))
    r = snap.elapsed
    for lo in range(0, len(r), 64):
        out += reference_event_prob(event_m, censor_m, r[lo:lo + 64, None], r[lo:lo + 64, None] + d).sum(axis=0)
    plan = snap.accrual
    if plan is None or not plan.n_remaining:
        return out
    nodes, weights = np.polynomial.legendre.leggauss(30)
    months = (np.floor(np.arange(plan.n_remaining) / plan.rate) if plan.rate is not None
              else np.repeat(np.arange(len(plan.monthly_counts)), plan.monthly_counts)[:plan.n_remaining])
    lower = _pieces(event_m, censor_m)[0]
    for m, count in zip(*np.unique(months, return_counts=True)):
        for i, di in enumerate(d):
            # follow-up at the analysis time plus di of a subject enrolled in month m
            lo, hi = max(di - m - 1.0, 0.0), max(di - m, 0.0)
            cuts = np.unique(np.clip(np.concatenate(([lo, hi], lower)), lo, hi))
            for a, b in zip(cuts[:-1], cuts[1:]):
                y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
                out[i] += count * 0.5 * (b - a) * weights @ reference_event_prob(event_m, censor_m, 0.0, y)
    return out


def _models(max_rate=1.0):
    rates = st.lists(st.floats(0.002, max_rate), min_size=1, max_size=4)
    return st.builds(lambda rs, bs: pw.PweModel(rs, np.sort(bs)[:len(rs) - 1]), rates,
                     st.lists(st.floats(0.5, 60.0), min_size=3, max_size=3, unique=True))


@st.composite
def prediction_cases(draw):
    """An event model, a censoring model or none, whose breaks do not line
    up, at-risk subjects (none to many, elapsed up to 60) and an accrual
    plan by rate, by monthly counts, or none, and calendar times."""
    event_m = draw(_models())
    censor_m = draw(st.none() | _models(0.2))
    t0 = 60.0
    elapsed = draw(st.lists(st.floats(0.0, t0), max_size=300))
    plan = draw(st.none()
                | st.builds(lambda n, rate: pw.AccrualPlan(n, rate=rate), st.integers(0, 200), st.floats(0.5, 80.0))
                | st.lists(st.integers(0, 30), min_size=1, max_size=6).map(
                    lambda c: pw.AccrualPlan(sum(c), monthly_counts=tuple(c))))
    snap = pw.TrialSnapshot(t0, draw(st.integers(0, 50)), t0 - np.array(elapsed, dtype=float), plan)
    times = np.linspace(t0, t0 + draw(st.floats(1.0, 150.0)), draw(st.integers(2, 40)))
    return event_m, censor_m, snap, times


def _assert_curve(curve, snap):
    assert np.all(np.isfinite(curve))
    assert curve[0] == snap.n_events
    assert np.all(np.diff(curve) >= 0.0)
    assert np.all(curve <= snap.max_new_events)


# a hazard of 2.0 after t = 400, elapsed times up to 1,200: exponents of
# several thousand
STEEP_ENROLL = np.random.default_rng(3).uniform(0.0, 1200.0, 400)
STEEP = (pw.PweModel((0.01, 2.0), (400.0,)), pw.PweModel((0.002, 0.02), (333.3,)),
         pw.TrialSnapshot(1200.0, 7, STEEP_ENROLL, pw.AccrualPlan(30, rate=0.7)),
         np.linspace(1200.0, 2600.0, 60))


class TestExpectedEvents:
    @settings(max_examples=60, deadline=None)
    @given(prediction_cases())
    @example(STEEP)
    @example((STEEP[0], None, pw.TrialSnapshot(1200.0, 0, STEEP_ENROLL), np.linspace(1200.0, 1210.0, 11)))
    def test_matches_per_subject_reference(self, case):
        """Equal to the reference within rounding, finite, from the observed
        count up to the most events possible, never decreasing, and with no
        warning (warnings are errors here)."""
        event_m, censor_m, snap, times = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pw.expected_events(event_m, censor_m, snap, times)
        _assert_curve(got, snap)
        want = reference_expected_events(event_m, censor_m, snap, times)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-9)

    def test_steep_hazard_has_power(self):
        """The steep case is not trivial: most at-risk subjects have their
        event past t = 400 of follow-up, where the exponents reach
        thousands."""
        curve = pw.expected_events(*STEEP)
        assert curve[-1] - curve[0] > 0.9 * len(STEEP_ENROLL)

    def test_times_in_any_order(self, snapshot):
        times = np.array([T0 + 30.0, T0 - 1.0, T0 + 2.5, T0, T0 + 2.5, T0 + 7.0])
        got = pw.expected_events(ENSEMBLE.base, CENSOR, snapshot, times)
        order = np.argsort(times)
        np.testing.assert_array_equal(got[order],
                                      pw.expected_events(ENSEMBLE.base, CENSOR, snapshot, times[order]))

    @pytest.mark.parametrize("model", [ENSEMBLE, None, "0.1"])
    def test_rejects_models_without_one_point(self, snapshot, model):
        with pytest.raises(TypeError, match="PweModel or FitResult"):
            pw.expected_events(model, None, snapshot, [T0])

    def test_rejects_non_finite_times(self, snapshot):
        with pytest.raises(ValueError, match="finite"):
            pw.expected_events(ENSEMBLE.base, None, snapshot, [T0, np.nan])

    @pytest.mark.parametrize("seed", range(3))
    def test_simulated_at_risk_curve_within_4_se(self, snapshot, seed):
        """The mean of the at-risk subjects' predictive draws lies within 4
        SE of the closed form (the accrual cohort is checked by
        ``test_simulated_accrual_curves_within_4_se``)."""
        event_m, censor_m = pw.PweModel((0.1, 0.03, 0.2), (4.0, 13.0)), pw.PweModel((0.02, 0.05), (8.5,))
        snap = pw.TrialSnapshot(T0, snapshot.n_events, snapshot.enroll_times)
        n_each = 4000
        ens = pw.predict_events(event_m, censor_m, snap, n_each=n_each, seed=seed, grid_points=40)
        p = reference_event_prob(event_m, censor_m, snap.elapsed[:, None], snap.elapsed[:, None] + ens.grid - T0)
        se = np.sqrt((p * (1.0 - p)).sum(axis=0) / n_each)
        assert np.all(np.abs(ens.predictive.mean(axis=0) - ens.point) <= 4.0 * se)
        assert ens.point[-1] - ens.point[0] > 100 * se.max()

    @pytest.mark.parametrize("seed", range(3))
    def test_simulated_accrual_curves_within_4_se(self, seed):
        """For future enrollees only, the mean of each parameter set's
        predictive draws lies within 4 SE of that set's closed form. Each
        draw enrolls a subject anew, uniform within its month, so the
        per-draw SE holds: subject i has an event by each time with its
        probability averaged over the month, p_i, and the mean's variance
        is the sum of p_i (1 - p_i) over n_each."""
        plan = pw.AccrualPlan(n_remaining=200, rate=40.0)
        snap = pw.TrialSnapshot(T0, 12, np.empty(0), plan)
        n_each = 1000
        ens = pw.predict_events(ENSEMBLE, CENSOR, snap, n_each=n_each, seed=seed, grid_points=40)
        months = pr._enrol_months(plan.n_remaining, plan.rate, None)
        for b, rep in enumerate(ENSEMBLE.replicates):
            # p for one subject enrolling in month m, by quadrature over the month
            p = {m: reference_expected_events(rep.model, CENSOR, pw.TrialSnapshot(
                     T0, 0, np.empty(0), pw.AccrualPlan(1, monthly_counts=(0,) * int(m) + (1,))), ens.grid)
                 for m in np.unique(months)}
            se = np.sqrt(sum(p[m] * (1.0 - p[m]) for m in months) / n_each)
            mean = ens.predictive[b * n_each:(b + 1) * n_each].mean(axis=0)
            assert np.all(np.abs(mean - ens.expected[b]) <= 4.0 * se)
            assert ens.expected[b, -1] - ens.expected[b, 0] > 100 * se.max()

    def test_future_enrollees_enter_per_draw(self):
        """With an event almost at entry, each predictive curve of a lone
        future enrollee jumps where that draw enrolled: uniform over the
        month, not at one time shared by the set's draws."""
        snap = pw.TrialSnapshot(T0, 0, np.empty(0), pw.AccrualPlan(n_remaining=1, rate=1.0))
        ens = pw.predict_events(pw.PweModel((1e4,)), None, snap, n_each=400, seed=5,
                                horizon=T0 + 1.5, grid_points=30)
        assert np.all(ens.predictive[:, -1] == 1)
        # the month spans the first 20 bins, about 20 draws each
        counts = np.bincount(np.argmax(ens.predictive >= 1, axis=1), minlength=31)
        assert counts[0] == 0 and counts[1:21].min() > 0 and counts.max() < 45


def per_subject_curves(event_m, censor_m, snap, n_each, grid, seed):
    """The predictive curves of one parameter set, subject by subject: event
    and censoring times from two child streams of ``default_rng(seed)``,
    and each future enrollee's ``n_each`` entry times, uniform within its
    month, from that generator itself."""
    rng = np.random.default_rng(seed)
    event_rng, censor_rng = rng.spawn(2)
    counts = np.zeros((n_each, len(grid)), dtype=int)
    subjects = [(u, pw.conditional_sample(event_m, n_each, r, event_rng),
                 pw.conditional_sample(censor_m, n_each, r, censor_rng))
                for u, r in zip(snap.enroll_times, snap.elapsed)]
    plan = snap.accrual
    subjects += [(snap.analysis_time + m + rng.random(n_each), pw.sample(event_m, n_each, event_rng),
                  pw.sample(censor_m, n_each, censor_rng))
                 for m in pr._enrol_months(plan.n_remaining, plan.rate, plan.monthly_counts)]
    for u, t, c in subjects:
        gi = np.searchsorted(grid, u + t, side="left")
        hit = (t < c) & (gi < len(grid))
        np.add.at(counts, (np.flatnonzero(hit), gi[hit]), 1)
    return counts.cumsum(axis=1) + snap.n_events


class TestCurves:
    def test_invariants(self, snapshot):
        ens = _predict(snapshot)
        assert ens.expected.shape == (3, 51)
        assert ens.predictive.shape == (3 * 30, 51)
        for curves in (ens.point[None, :], ens.expected, ens.predictive):
            assert np.all(curves[:, 0] == snapshot.n_events)
            assert np.all(np.diff(curves, axis=1) >= 0)
            assert np.all(curves <= snapshot.max_new_events)
        # the default horizon reaches past the end of accrual, so future
        # subjects contribute events
        assert ens.predictive.max() > snapshot.n_events + len(snapshot.enroll_times) / 2

    def test_threads_do_not_change_result(self, snapshot):
        _assert_same(_predict(snapshot, threads=1), _predict(snapshot, threads=2))

    @pytest.mark.parametrize("threads", [0, -1, 2.5, np.nan, "2"])
    def test_threads_checked_before_any_draw(self, monkeypatch, snapshot, threads):
        monkeypatch.setattr(pr, "parallel_map", lambda *a: pytest.fail("draws ran"))
        monkeypatch.setattr(pr, "expected_events", lambda *a: pytest.fail("curves ran"))
        with pytest.raises(ValueError, match="threads must be"):
            _predict(snapshot, threads=threads)

    def test_whole_valued_threads_accepted(self, snapshot):
        _assert_same(_predict(snapshot), _predict(snapshot, threads=np.int64(1)))

    def test_matches_per_subject_loop(self, snapshot):
        """The blocked draws equal a per-subject loop over the same streams,
        counted with ``np.add.at``."""
        event_m = pw.PweModel((0.1, 0.05), (6.0,))
        grid = np.linspace(T0, T0 + 25.0, 41)
        ped = pr._simulate_curves(event_m, CENSOR, snapshot, 30, grid, np.random.default_rng(4))
        np.testing.assert_array_equal(ped, per_subject_curves(event_m, CENSOR, snapshot, 30, grid, 4))

    def test_matches_per_subject_loop_when_most_draws_overflow(self, snapshot):
        """The reference loop with heavy censoring and a short horizon: most
        draws are censored first or fall past the grid, into the overflow
        bin."""
        event_m, censor_m = pw.PweModel((0.1, 0.05), (6.0,)), pw.PweModel((0.8, 0.3), (1.0,))
        grid = np.linspace(T0, T0 + 2.0, 41)
        ped = pr._simulate_curves(event_m, censor_m, snapshot, 30, grid, np.random.default_rng(4))
        want = per_subject_curves(event_m, censor_m, snapshot, 30, grid, 4)
        subjects = len(snapshot.enroll_times) + snapshot.accrual.n_remaining
        assert 0 < want[:, -1].sum() - 30 * snapshot.n_events < 0.2 * 30 * subjects
        np.testing.assert_array_equal(ped, want)

    @pytest.mark.parametrize("block", [1, 777, 8192])
    def test_block_size_does_not_change_result(self, monkeypatch, snapshot, block):
        ref = _predict(snapshot)
        monkeypatch.setattr(pr, "_BLOCK", block)
        _assert_same(_predict(snapshot), ref)

    def test_pinned_digest(self, snapshot):
        """SHA-256 of the expected and predictive curves of a fixed scenario
        (3 bootstrap replicates and a base fit, a two-piece censoring model,
        future accrual), taken when the expected curves became exact and
        future enrollees got an entry time per draw: changes to the
        samplers or to the closed form must keep every bit. The digest
        covers float bits, so a numpy whose ``log1p`` rounds differently
        changes it too."""
        ens = pw.predict_events(ENSEMBLE, pw.PweModel((0.02, 0.05), (8.0,)), snapshot,
                                n_each=30, seed=11, grid_points=50)
        h = hashlib.sha256()
        for name in ("expected", "predictive"):
            h.update(getattr(ens, name).tobytes())
        assert h.hexdigest() == "137ee56bd591c58e5f874ae69208da571dd58a2585ab50f221eb344b6f0b6730"

    @pytest.mark.parametrize("event, censor", [
        (ENSEMBLE, pw.PweModel((0.02, 0.05), (8.0,))),
        (ENSEMBLE.base.model, CENSOR),
        (ENSEMBLE.base, _result(CENSOR)),
        (ENSEMBLE, None),
    ], ids=["pinned_scenario", "model", "fit", "boot_no_censoring"])
    def test_point_is_expected_events(self, snapshot, event, censor):
        """The point curve is the closed form of the point model (the base
        fit of a bootstrap ensemble), bit for bit."""
        ens = pw.predict_events(event, censor, snapshot, n_each=30, seed=11, grid_points=50)
        np.testing.assert_array_equal(ens.point, pw.expected_events(ENSEMBLE.base, censor, snapshot, ens.grid))

    @pytest.mark.parametrize("event, censor", [
        (ENSEMBLE.base.model, CENSOR),
        (ENSEMBLE.base, None),
        (ENSEMBLE, _result(CENSOR)),
        (BootFit(ENSEMBLE.replicates, None, 3, 0), None),
        (ENSEMBLE, BootFit([_result(CENSOR), _result(pw.PweModel((0.05, 0.01), (3.0,)))], None, 2, 0)),
    ], ids=["model", "fit", "boot", "boot_without_base", "boot_censoring"])
    def test_expected_is_expected_events_per_set(self, snapshot, event, censor):
        """Row b of ``expected`` is the closed form of event set b and
        censoring set b % k, bit for bit."""
        ens = pw.predict_events(event, censor, snapshot, n_each=5, seed=3, grid_points=30)
        events, censors = ([] if m is None else m.replicates if isinstance(m, BootFit) else [m]
                           for m in (event, censor))
        assert ens.expected.shape == (len(events), len(ens.grid))
        for b, m in enumerate(events):
            cm = censors[b % len(censors)] if censors else None
            np.testing.assert_array_equal(ens.expected[b], pw.expected_events(m, cm, snapshot, ens.grid))

    @pytest.mark.parametrize("event", [ENSEMBLE.base, ENSEMBLE.base.model], ids=["fit", "model"])
    def test_plain_fit_makes_one_closed_form_call(self, monkeypatch, snapshot, event):
        calls, closed_form = [], pr.expected_events

        def counting(*args):
            calls.append(args)
            return closed_form(*args)

        monkeypatch.setattr(pr, "expected_events", counting)
        ens = pw.predict_events(event, CENSOR, snapshot, n_each=5, seed=3, grid_points=30)
        assert len(calls) == 1
        np.testing.assert_array_equal(ens.point, ens.expected[0])

    @pytest.mark.parametrize("event, censor", [
        (BootFit(ENSEMBLE.replicates, None, 3, 0), CENSOR),
        (ENSEMBLE, BootFit([_result(CENSOR)] * 2, None, 2, 0)),
    ], ids=["event_boot_without_base", "censor_boot_without_base"])
    def test_point_without_a_point_model_is_the_mean(self, snapshot, event, censor):
        ens = pw.predict_events(event, censor, snapshot, n_each=5, seed=2, grid_points=20)
        np.testing.assert_array_equal(ens.point, ens.expected.mean(axis=0))

    def test_without_censoring_or_accrual(self, snapshot):
        snap = pw.TrialSnapshot(analysis_time=T0, n_events=snapshot.n_events,
                                enroll_times=snapshot.enroll_times)
        ens = pw.predict_events(ENSEMBLE, None, snap, n_each=30, seed=3, horizon=1e4)
        # with no censoring every at-risk subject has its event by a far horizon
        assert np.all(ens.predictive[:, -1] == snap.max_new_events)


@st.composite
def grids_and_keys(draw):
    """A calendar grid as ``predict_events`` builds it, near 0 or far from
    it, and keys on grid points, one float step either side of them, ±inf,
    or anywhere around the grid."""
    t0 = draw(st.floats(0.0, 100.0) | st.floats(0.0, 1e6))
    grid = np.linspace(t0, t0 + draw(st.floats(1e-3, 200.0)), draw(st.integers(2, 400)) + 1)
    on = st.sampled_from(grid.tolist())
    key = (
        on
        | on.map(lambda g: np.nextafter(g, np.inf))
        | on.map(lambda g: np.nextafter(g, -np.inf))
        | st.sampled_from([grid[-1], np.nextafter(grid[0], np.inf), np.inf, -np.inf])
        | st.floats(grid[0] - 1.0, grid[-1] + 1.0)
    )
    return grid, np.array(draw(st.lists(key, min_size=1, max_size=50)))


# a grid whose spacing is a few units in the last place of its points
FINE_GRID = np.linspace(1e6, 1e6 + 1e-9, 5)


@settings(max_examples=300, deadline=None)
@given(grids_and_keys())
@example((FINE_GRID, np.array([*FINE_GRID, *np.nextafter(FINE_GRID, np.inf), 1e6 - 1.0, np.inf])))
def test_uniform_bins_equal_searchsorted(case):
    grid, keys = case
    want = np.searchsorted(grid, keys, side="left")
    np.testing.assert_array_equal(pr._uniform_bins(grid, keys), want)
    # a block of draws is binned as one 2-D array
    np.testing.assert_array_equal(pr._uniform_bins(grid, keys.reshape(-1, 1)), want.reshape(-1, 1))


class TestTracedBindings:
    """``bench/run.py`` counts draws by wrapping ``prediction``'s own
    ``sample`` and ``conditional_sample`` bindings, and expects parameter
    sets x subjects x ``n_each`` draws from each model."""

    def test_draw_counts(self, monkeypatch, snapshot):
        drawn = {}

        def counting(name, fn):
            def wrapper(m, n, *args):
                drawn[name, m] = drawn.get((name, m), 0) + n
                return fn(m, n, *args)
            return wrapper

        for name in ("sample", "conditional_sample"):
            monkeypatch.setattr(pr, name, counting(name, getattr(pr, name)))
        n_each = 30
        ens = _predict(snapshot, n_each=n_each)
        sets = len(ens.expected)  # the point curve is not simulated
        at_risk = sets * len(snapshot.enroll_times) * n_each
        future = sets * snapshot.accrual.n_remaining * n_each

        def event_draws(sampler):
            return sum(n for (name, m), n in drawn.items() if name == sampler and m != CENSOR)

        assert event_draws("conditional_sample") == at_risk
        assert event_draws("sample") == future
        assert drawn["conditional_sample", CENSOR] == at_risk
        assert drawn["sample", CENSOR] == future


class TestPercentileRows:
    def test_matches_per_time_quantiles(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(T0, 90.0, 61)
        curves = np.cumsum(rng.integers(0, 9, (40, 61)), axis=1).astype(float)
        point = curves.mean(axis=0)
        times = np.array([T0, 33.3, 61.0, 90.0, 120.0])
        ens = pr.PredictionEnsemble(grid=grid, point=point, expected=curves, predictive=curves,
                                    n_each=1, analysis_time=T0, base_events=0, total_subjects=500)
        rows = pw.event_interval(ens, times, level=0.1)
        for i, t in enumerate(times):
            vals = [np.interp(t, grid, c) for c in curves]
            assert rows[i, 0] == t
            assert rows[i, 1] == np.interp(t, grid, point)
            assert rows[i, 2] == np.quantile(vals, 0.05)
            assert rows[i, 3] == np.quantile(vals, 0.95)


# The per-curve and per-target summaries that event_interval and
# timeline_for_events replaced, kept as their reference (for valid
# arguments: they skip the checks of level and kind).


def reference_event_interval(ens, times, level=0.05, kind="confidence"):
    curves = ens.expected if kind == "confidence" else ens.predictive
    times = np.atleast_1d(np.asarray(times, dtype=float))
    vals = np.array([np.interp(times, ens.grid, c) for c in curves])
    lo, hi = np.quantile(vals, [level / 2.0, 1.0 - level / 2.0], axis=0)
    return np.column_stack([times, np.interp(times, ens.grid, ens.point), lo, hi])


def reference_crossing_times(curves, grid, target):
    curves = np.atleast_2d(curves)
    n, g = curves.shape
    idx = (curves < target).sum(axis=1)
    out = np.empty(n)
    never = idx >= g
    at_start = idx == 0
    mid = ~never & ~at_start
    out[never] = np.inf
    out[at_start] = grid[0]
    if mid.any():
        i = idx[mid]
        c0 = curves[mid, i - 1]
        c1 = curves[mid, i]
        out[mid] = grid[i - 1] + (target - c0) * (grid[i] - grid[i - 1]) / (c1 - c0)
    return out


def reference_timeline_for_events(ens, targets, level=0.05, kind="confidence"):
    curves = ens.expected if kind == "confidence" else ens.predictive
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    lo_q, hi_q = level / 2.0, 1.0 - level / 2.0
    rows = np.empty((len(targets), 4))
    for i, target in enumerate(targets):
        if np.isnan(target):  # no curve reaches a NaN target
            rows[i] = (target, np.nan, np.nan, np.nan)
            continue
        if target < ens.base_events:
            warnings.warn(
                f"target {target:g} is below the {ens.base_events} events already "
                "observed; returning the analysis time",
                stacklevel=2,
            )
            rows[i] = (target, ens.analysis_time, ens.analysis_time, ens.analysis_time)
            continue
        point = reference_crossing_times(ens.point[None, :], ens.grid, target)[0]
        cross = reference_crossing_times(curves, ens.grid, target)
        with np.errstate(invalid="ignore"):
            lo = np.quantile(cross, lo_q)
            hi = np.quantile(cross, hi_q)
        rows[i] = (
            target,
            point if np.isfinite(point) else np.nan,
            lo if np.isfinite(lo) else np.nan,
            hi if np.isfinite(hi) else np.nan,
        )
    return rows


@st.composite
def summary_cases(draw):
    """An ensemble of non-decreasing curves that start at or above the
    observed count: steps of 0 (flat stretches, ties between curves) to 3,
    integer predictive curves and expected curves on a finer scale, one
    curve or several. Times lie on, one float step off, between and outside
    the grid points, or are ±inf or NaN; targets are curve values, between
    them, below the observed count, never reached, ±inf or NaN."""
    g = draw(st.integers(2, 12))
    n = draw(st.integers(1, 8))
    base = draw(st.integers(0, 5))
    grid = np.linspace(T0, T0 + draw(st.floats(0.5, 90.0)), g)
    steps = np.array(draw(st.lists(st.lists(st.integers(0, 3) | st.just(0), min_size=g, max_size=g),
                                   min_size=n + 1, max_size=n + 1)))
    scale = draw(st.sampled_from([1.0, 0.5, 0.1, 1 / 3]))
    predictive = base + np.cumsum(steps[1:], axis=1)
    expected = base + np.cumsum(steps[1:] * scale, axis=1)
    point = expected.mean(axis=0) if draw(st.booleans()) else base + np.cumsum(steps[0] * scale)
    ens = pr.PredictionEnsemble(grid=grid, point=point, expected=expected, predictive=predictive,
                                n_each=1, analysis_time=T0, base_events=base, total_subjects=100)
    on = st.sampled_from(grid.tolist())
    time = (on | on.map(lambda x: np.nextafter(x, np.inf)) | on.map(lambda x: np.nextafter(x, -np.inf))
            | st.floats(T0 - 10.0, grid[-1] + 10.0) | st.sampled_from([np.inf, -np.inf, np.nan]))
    values = np.concatenate([predictive.ravel(), expected.ravel(), point])
    target = (st.sampled_from(values.tolist()) | st.floats(base - 3.0, values.max() + 3.0)
              | st.sampled_from([np.inf, -np.inf, np.nan, values.max() + 0.5]))
    times = draw(st.lists(time, max_size=12))
    targets = draw(st.lists(target, max_size=12))
    kind = "predictive" if n == 1 else draw(st.sampled_from(["confidence", "predictive"]))
    level = draw(st.sampled_from([0.05, 0.5, 1.0]) | st.floats(0.01, 1.0))
    return ens, times, targets, level, kind


def _summaries(ens, times, targets, level, kind, interval, timeline):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = interval(ens, times, level, kind), timeline(ens, targets, level, kind)
    return rows, [(w.category, str(w.message), w.filename) for w in caught]


# interpolating the first expected curve to the last grid point misses its
# last value by one rounding
THIRDS = np.cumsum([[1, 0, 0, 0, 0, 0, 2], [0, 1, 1, 0, 2, 0, 1]], axis=1) / 3.0


@settings(max_examples=400, deadline=None)
@given(summary_cases())
@example((pr.PredictionEnsemble(np.linspace(T0, 40.0, 5), np.full(5, 2.0), np.full((2, 5), 2.0),
                                np.full((2, 5), 2), 1, T0, 2, 10), [], [], 1.0, "confidence"))
@example((pr.PredictionEnsemble(np.linspace(T0, T0 + 0.5, 7), THIRDS[0], THIRDS, THIRDS, 1, T0, 0, 10),
          [T0 + 0.5], [], 1.0, "confidence"))
def test_summaries_equal_reference(case):
    """Both summaries equal the per-curve and per-target reference bit for
    bit, NaN cells included, and warn alike for targets below the base."""
    got, got_warned = _summaries(*case, pw.event_interval, pw.timeline_for_events)
    want, want_warned = _summaries(*case, reference_event_interval, reference_timeline_for_events)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
    assert got_warned == want_warned


def test_summaries_of_a_real_ensemble_equal_reference(snapshot):
    ens = _predict(snapshot)
    times = np.concatenate([ens.grid[::7], np.linspace(T0 - 1.0, ens.grid[-1] + 1.0, 23)])
    targets = np.linspace(snapshot.n_events, snapshot.max_new_events + 5, 31)
    for kind in ("confidence", "predictive"):
        for level in (0.05, 0.5, 1.0):
            got, _ = _summaries(ens, times, targets, level, kind,
                                pw.event_interval, pw.timeline_for_events)
            want, _ = _summaries(ens, times, targets, level, kind,
                                 reference_event_interval, reference_timeline_for_events)
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)


def test_below_base_targets_warn_once_each_from_the_caller():
    ens = _predict(pw.TrialSnapshot(analysis_time=T0, n_events=40, enroll_times=np.full(20, 5.0)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = pw.timeline_for_events(ens, [39.0, 40.0, 12.5, 41.0, np.nan])
    assert [str(w.message) for w in caught] == [
        "target 39 is below the 40 events already observed; returning the analysis time",
        "target 12.5 is below the 40 events already observed; returning the analysis time",
    ]
    assert {w.filename for w in caught} == {__file__}
    np.testing.assert_array_equal(rows[[0, 1, 2], 1:], T0)


@pytest.mark.parametrize("kind", ["confidence", "predictive"])
def test_nan_target_gives_nan_cells(snapshot, kind):
    """No curve reaches a NaN target, as no curve has a value at a NaN time."""
    ens = _predict(snapshot)
    rows = pw.timeline_for_events(ens, [np.nan, ens.base_events + 5.0], kind=kind)
    assert np.isnan(rows[0]).all()
    assert np.isfinite(rows[1]).all()


def test_summaries_make_no_copy_of_the_ensemble():
    """Peak traced memory stays well under the ensemble's size: the point
    curve and the ensemble are evaluated apart, never stacked."""
    rng = np.random.default_rng(0)
    grid = np.linspace(T0, 90.0, 201)
    curves = 40.0 + np.cumsum(rng.random((20_000, len(grid))), axis=1)
    ens = pr.PredictionEnsemble(grid=grid, point=curves.mean(axis=0), expected=curves[:5],
                                predictive=curves, n_each=1, analysis_time=T0, base_events=40,
                                total_subjects=10**6)
    for summary, at, bound in ((pw.event_interval, np.linspace(T0, 95.0, 20), 0.5),
                               (pw.timeline_for_events, np.linspace(41.0, 200.0, 20), 1.5)):
        tracemalloc.start()
        try:
            summary(ens, at, kind="predictive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * curves.nbytes, summary.__name__


class TestNonFiniteInputs:
    @pytest.mark.parametrize("analysis_time, enroll", [
        (np.nan, [1.0, 2.0]),
        (np.inf, [1.0, 2.0]),
        (30.0, [1.0, np.nan, 3.0]),
        (30.0, [-np.inf, 3.0]),
    ])
    def test_snapshot_rejects(self, analysis_time, enroll):
        with pytest.raises(ValueError, match="must be finite"):
            pw.TrialSnapshot(analysis_time, 5, enroll)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_predict_events_rejects_horizon(self, snapshot, horizon):
        with pytest.raises(ValueError, match="horizon must be finite"):
            _predict(snapshot, horizon=horizon)
