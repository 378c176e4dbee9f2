import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pwexp as pw
import pwexp.prediction as pr
from pwexp.estimation import FitResult
from pwexp.resampling import BootFit

T0 = 30.0
LAM, MU = 0.1, 0.05


def _result(model: pw.PweModel) -> FitResult:
    return FitResult(model=model, loglik=0.0, aic=0.0, bic=0.0, n_obs=1, n_param=1,
                     optimizer="bfs")


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
    times = plan.draw_times(10.0, np.random.default_rng(0))
    assert np.floor(times - 10.0).tolist() == [0, 0, 2, 2, 2, 3]
    assert pw.AccrualPlan(n_remaining=60, rate=15.0).last_month == 4.0
    assert pw.AccrualPlan(n_remaining=61, rate=15.0).last_month == 5.0


class TestExponentialOracle:
    """Constant event hazard LAM and censoring hazard MU, at-risk subjects
    only: by memorylessness subject i has an observed event by calendar time
    t with probability LAM / (LAM + MU) * (1 - exp(-(LAM + MU) * (t - T0))),
    whatever its elapsed follow-up."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_point_within_4_se(self, seed):
        enroll = np.random.default_rng(seed).uniform(0.0, T0, 300)
        snap = pw.TrialSnapshot(analysis_time=T0, n_events=25, enroll_times=enroll)
        n_each = 200
        ens = pw.predict_events(pw.PweModel((LAM,)), pw.PweModel((MU,)), snap, n_each=n_each,
                                seed=seed, horizon=T0 + 40.0, grid_points=40)
        p = LAM / (LAM + MU) * -np.expm1(-(LAM + MU) * (ens.grid - T0))
        want = snap.n_events + len(enroll) * p
        se = np.sqrt(len(enroll) * p * (1.0 - p) / n_each)
        assert ens.point[0] == snap.n_events
        assert np.all(np.abs(ens.point - want) <= 4.0 * se)
        # the curve is far from flat: the check has power
        assert want[-1] - want[0] > 100 * se.max()


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

    def test_matches_per_subject_loop(self, snapshot):
        """The blocked draws equal a per-subject loop over the same two
        streams, counted with ``np.add.at``."""
        event_m, censor_m = pw.PweModel((0.1, 0.05), (6.0,)), CENSOR
        grid = np.linspace(T0, T0 + 25.0, 41)
        rng = np.random.default_rng(np.random.SeedSequence(4))
        ed, ped = pr._simulate_curves(event_m, censor_m, snapshot, 30, grid, rng)

        rng = np.random.default_rng(np.random.SeedSequence(4))
        event_rng, censor_rng = rng.spawn(2)
        counts = np.zeros((30, len(grid)), dtype=int)
        subjects = [(u, pw.conditional_sample(event_m, 30, r, event_rng),
                     pw.conditional_sample(censor_m, 30, r, censor_rng))
                    for u, r in zip(snapshot.enroll_times, snapshot.elapsed)]
        subjects += [(u, pw.sample(event_m, 30, event_rng), pw.sample(censor_m, 30, censor_rng))
                     for u in snapshot.accrual.draw_times(T0, rng)]
        for u, t, c in subjects:
            gi = np.searchsorted(grid, u + t, side="left")
            hit = (t < c) & (gi < len(grid))
            np.add.at(counts, (np.flatnonzero(hit), gi[hit]), 1)
        want = counts.cumsum(axis=1) + snapshot.n_events
        np.testing.assert_array_equal(ped, want)
        np.testing.assert_array_equal(ed, want.mean(axis=0))

    @pytest.mark.parametrize("block", [1, 777, 8192])
    def test_block_size_does_not_change_result(self, monkeypatch, snapshot, block):
        ref = _predict(snapshot)
        monkeypatch.setattr(pr, "_BLOCK", block)
        _assert_same(_predict(snapshot), ref)

    def test_pinned_digest(self, snapshot):
        """SHA-256 of the curves of a fixed scenario (3 bootstrap replicates
        and a base fit, a two-piece censoring model, future accrual), taken
        when the samplers searched pieces with ``np.searchsorted``: changes
        to the samplers must keep every draw. The digest covers float bits,
        so a numpy whose ``log1p`` rounds differently changes it too."""
        ens = pw.predict_events(ENSEMBLE, pw.PweModel((0.02, 0.05), (8.0,)), snapshot,
                                n_each=30, seed=11, grid_points=50)
        h = hashlib.sha256()
        for name in ("expected", "predictive", "point"):
            h.update(getattr(ens, name).tobytes())
        assert h.hexdigest() == "b19c099a2bdf212e01b04e9a076ede9340bdabdef890e273a9d54060674b5593"

    def test_without_censoring_or_accrual(self, snapshot):
        snap = pw.TrialSnapshot(analysis_time=T0, n_events=snapshot.n_events,
                                enroll_times=snapshot.enroll_times)
        ens = pw.predict_events(ENSEMBLE, None, snap, n_each=30, seed=3, horizon=1e4)
        # with no censoring every at-risk subject has its event by a far horizon
        assert np.all(ens.predictive[:, -1] == snap.max_new_events)


@st.composite
def grids_and_keys(draw):
    """A calendar grid as ``predict_events`` builds it, and keys on grid
    points, one float step either side of them, or anywhere around it."""
    t0 = draw(st.floats(0.0, 100.0))
    grid = np.linspace(t0, t0 + draw(st.floats(1e-3, 200.0)), draw(st.integers(2, 400)) + 1)
    on = st.sampled_from(grid.tolist())
    key = (
        on
        | on.map(lambda g: np.nextafter(g, np.inf))
        | on.map(lambda g: np.nextafter(g, -np.inf))
        | st.sampled_from([grid[-1], np.nextafter(grid[0], np.inf)])
        | st.floats(grid[0] - 1.0, grid[-1] + 1.0)
    )
    return grid, np.array(draw(st.lists(key, min_size=1, max_size=50)))


@settings(max_examples=300, deadline=None)
@given(grids_and_keys())
def test_uniform_bins_equal_searchsorted(case):
    grid, keys = case
    np.testing.assert_array_equal(pr._uniform_bins(grid, keys), np.searchsorted(grid, keys, side="left"))


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
        sets = len(ens.expected) + 1  # the point curve is simulated from the base fit
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
        rows = pr._percentile_rows(curves, point, grid, times, 0.1)
        for i, t in enumerate(times):
            vals = [np.interp(t, grid, c) for c in curves]
            assert rows[i, 0] == t
            assert rows[i, 1] == np.interp(t, grid, point)
            assert rows[i, 2] == np.quantile(vals, 0.05)
            assert rows[i, 3] == np.quantile(vals, 0.95)
