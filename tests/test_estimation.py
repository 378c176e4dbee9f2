import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import optimize

import pwexp as pw
from pwexp.distribution import PweModel
from pwexp.errors import EmptyPieceError, NoFeasibleModelError
from pwexp.estimation import (
    _LineSums,
    _TOL_FRAC,
    _candidate_combos,
    _candidate_values,
    _combinations,
    _profile,
    _run_segmented,
    _segmented_starts,
    _snap_row,
    _sub_sample,
    FitConfig,
    FitResult,
    fit,
    fit_bfs,
    fit_hybrid,
    fit_ols,
    fit_segmented_line,
    loglik,
    mle_given_breakpoints,
    piece_tally,
    validate_breakpoints,
)
from pwexp.rng import derive_rng
from pwexp.survdata import SurvSample, _Sorted, km_fit

from conftest import make_scenario


def random_sample(rng, n=40, censor_frac=0.25) -> SurvSample:
    times = rng.exponential(10.0, size=n)
    event = (rng.random(n) > censor_frac).astype(int)
    if event.sum() == 0:
        event[0] = 1
    return SurvSample(times, event)


def numeric_rate_mle(breakpoints, data, lo=1e-8, hi=50.0):
    """Per-piece golden-section maximization of loglik; the likelihood is
    separable in the rates, so each coordinate is exactly optimal."""
    r = len(breakpoints)
    rates = np.full(r + 1, data.n_events / data.time.sum())

    def ll_with(k, lam):
        trial = rates.copy()
        trial[k] = lam
        return loglik(PweModel(tuple(trial), tuple(breakpoints)), data)

    for k in range(r + 1):
        res = optimize.minimize_scalar(
            lambda lam: -ll_with(k, lam), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        rates[k] = res.x
    return rates


def fd_score(model: PweModel, data: SurvSample) -> np.ndarray:
    """Central finite-difference gradient of loglik in each rate."""
    out = np.empty(model.n_pieces)
    for k, lam in enumerate(model.rates):
        h = 1e-5 * lam
        up = list(model.rates)
        dn = list(model.rates)
        up[k] += h
        dn[k] -= h
        out[k] = (
            loglik(PweModel(tuple(up), model.breakpoints), data)
            - loglik(PweModel(tuple(dn), model.breakpoints), data)
        ) / (2.0 * h)
    return out


class TestLoglik:
    def test_exponential_hand_value(self):
        d = SurvSample([1.0, 2.0, 3.0], [1, 1, 1])
        assert loglik(PweModel((0.5,)), d) == pytest.approx(-5.079441541679836, rel=1e-12)

    def test_censored_at_zero_is_free(self):
        d1 = SurvSample([1.0, 2.0, 3.0], [1, 1, 1])
        d2 = SurvSample([1.0, 2.0, 3.0, 0.0], [1, 1, 1, 0])
        m = PweModel((0.1, 0.3), (2.5,))
        assert loglik(m, d1) == loglik(m, d2)

    def test_infinite_times_rejected(self):
        d = SurvSample([np.inf], [0], censor_reason=np.array(["never_event"], dtype=object))
        with pytest.raises(ValueError):
            loglik(PweModel((0.5,)), d)


class TestPieceTally:
    def test_counts_and_exposure(self):
        d = SurvSample([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        t = piece_tally([2.5], d)
        assert list(t.n_events) == [2, 2]
        assert np.allclose(t.exposure, [1.0 + 2.0 + 2 * 2.5, 0.5 + 1.5])
        assert list(t.n_suffix) == [4, 2]

    def test_event_total_preserved(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = random_sample(rng)
            bps = np.sort(rng.uniform(1.0, 20.0, size=rng.integers(1, 4)))
            t = piece_tally(bps, d)
            assert t.n_events.sum() == d.n_events
            assert np.all(t.exposure >= 0.0)
            assert t.exposure.sum() == pytest.approx(d.time.sum(), rel=1e-12)


class TestMleGivenBreakpoints:
    def test_hand_example(self):
        d = SurvSample([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        res = mle_given_breakpoints([2.5], d)
        assert res.model.rates == pytest.approx((0.25, 1.0), rel=1e-14)

    def test_no_breakpoints_exponential(self):
        d = SurvSample([2.0, 5.0, 4.0], [1, 0, 1])
        res = mle_given_breakpoints([], d)
        assert res.model.rates[0] == pytest.approx(2.0 / 11.0, rel=1e-14)

    def test_matches_numeric_maximization(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            d = random_sample(rng, n=60)
            ev = np.sort(d.time[d.event == 1])
            bps = [float(np.quantile(ev, 0.5))]
            res = mle_given_breakpoints(bps, d)
            oracle = numeric_rate_mle(bps, d)
            assert np.allclose(res.model.rates, oracle, rtol=1e-6)

    def test_score_vanishes_at_solution(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            d = random_sample(rng, n=60)
            ev = np.sort(d.time[d.event == 1])
            res = mle_given_breakpoints([float(np.quantile(ev, 0.6))], d)
            assert np.all(np.abs(fd_score(res.model, d)) < 1e-6)

    def test_empty_piece_error_names_piece(self):
        d = SurvSample([0.5, 10.0, 11.0, 12.0], [1, 1, 1, 1])
        with pytest.raises(EmptyPieceError) as err:
            mle_given_breakpoints([1.0, 2.0], d)
        assert err.value.piece == 2

    def test_rate_exposure_identity(self):
        rng = np.random.default_rng(9)
        d = random_sample(rng, n=80)
        ev = np.sort(d.time[d.event == 1])
        bps = [float(ev[10]), float(ev[25])]
        res = mle_given_breakpoints(bps, d)
        t = piece_tally(bps, d)
        assert np.allclose(np.asarray(res.model.rates) * t.exposure, t.n_events, rtol=1e-15)

    def test_information_criteria_identities(self):
        rng = np.random.default_rng(10)
        d = random_sample(rng, n=50)
        ev = np.sort(d.time[d.event == 1])
        res = mle_given_breakpoints([float(np.median(ev))], d)
        k = 2 * len(res.model.breakpoints) + 1
        assert res.n_param == k
        assert res.aic == -2.0 * res.loglik + 2.0 * k
        assert res.bic == -2.0 * res.loglik + k * np.log(res.n_obs)


class TestValidateBreakpoints:
    def test_too_early_dropped(self):
        d = SurvSample([1.0, 2.0, 3.0], [1, 1, 1])
        cleaned, warns = validate_breakpoints([0.1], d)
        assert cleaned == ()
        assert warns

    def test_close_pair_merged(self):
        d = SurvSample([1.0, 2.0, 3.0], [1, 1, 1])
        cleaned, warns = validate_breakpoints([1.4, 1.6], d)
        assert cleaned == (1.5,)
        assert len(warns) == 1

    def test_too_late_dropped(self):
        d = SurvSample([1.0, 2.0, 3.0], [1, 1, 1])
        cleaned, _ = validate_breakpoints([3.5], d)
        assert cleaned == ()

    def test_well_separated_untouched(self):
        d = SurvSample([1.0, 2.0, 3.0], [1, 1, 1])
        cleaned, warns = validate_breakpoints([1.5, 2.5], d)
        assert cleaned == (1.5, 2.5)
        assert warns == []

    def test_result_always_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = random_sample(rng, n=15)
            bps = np.sort(rng.uniform(0.01, 40.0, size=rng.integers(1, 5)))
            cleaned, _ = validate_breakpoints(bps, d)
            mle_given_breakpoints(cleaned, d)  # must not raise


def enumerate_bfs_oracle(data: SurvSample, nbreak: int, min_pt_tail: int):
    """Independent full enumeration over all event-time combinations."""
    cands = np.unique(data.time[data.event == 1])
    best = None
    for combo in itertools.combinations(cands, nbreak):
        ev = data.time[data.event == 1]
        if np.sum(ev >= combo[-1]) < min_pt_tail:
            continue
        try:
            res = mle_given_breakpoints(list(combo), data)
        except EmptyPieceError:
            continue
        key = (-res.loglik, combo)
        if best is None or key < best[0]:
            best = (key, res)
    return best[1] if best else None


class TestFitBfs:
    def test_matches_enumeration_oracle_one_break(self):
        rng = np.random.default_rng(21)
        times = rng.exponential(8.0, size=20)
        d = SurvSample(times, np.ones(20, dtype=int))
        cfg = FitConfig(nbreak=1, optimizer="bfs", min_pt_tail=2, seed=0)
        res = fit_bfs(d, cfg)
        oracle = enumerate_bfs_oracle(d, 1, 2)
        assert res.model.breakpoints == oracle.model.breakpoints
        assert res.loglik == oracle.loglik

    def test_dominates_snapped_truth(self, true_event_model):
        rng = np.random.default_rng(22)
        times = np.asarray(pw.sample(true_event_model, 50, rng))
        d = SurvSample(times, np.ones(50, dtype=int))
        cfg = FitConfig(nbreak=2, optimizer="bfs", min_pt_tail=1, max_set=100000, seed=0)
        res = fit_bfs(d, cfg)
        ev = np.unique(times)
        snapped = [float(ev[np.argmin(np.abs(ev - b))]) for b in (5.0, 14.0)]
        if snapped[0] < snapped[1]:
            ref = mle_given_breakpoints(snapped, d)
            assert res.loglik >= ref.loglik

    def test_no_feasible_model(self):
        d = SurvSample([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        cfg = FitConfig(nbreak=1, optimizer="bfs", min_pt_tail=10, seed=0)
        with pytest.raises(NoFeasibleModelError):
            fit_bfs(d, cfg)

    def test_tied_events_infeasible(self):
        # one distinct event time cannot hold two change-points
        d = SurvSample(np.full(30, 3.0), np.ones(30, dtype=int))
        with pytest.raises(NoFeasibleModelError):
            fit_bfs(d, FitConfig(nbreak=2, optimizer="bfs", seed=0))

    def test_break_at_tied_largest_time_infeasible(self):
        # five events tied at the largest time leave no exposure after a
        # break there; rounding in the running sums must not make it feasible
        d = SurvSample([0.05, 0.02, 0.04, 0.03] + [0.7] * 5, np.ones(9, dtype=int))
        res = fit_bfs(d, FitConfig(nbreak=1, optimizer="bfs", min_pt_tail=5, seed=0))
        assert res.model.breakpoints == (0.05,)
        assert res.diagnostics["n_feasible"] == 3  # breaks at 0.03, 0.04 and 0.05

    def test_subsampling_respects_max_set(self):
        rng = np.random.default_rng(23)
        times = rng.exponential(8.0, size=300)
        d = SurvSample(times, np.ones(300, dtype=int))
        cfg = FitConfig(nbreak=2, optimizer="bfs", max_set=500, min_pt_tail=2, seed=4)
        res = fit_bfs(d, cfg)
        assert res.diagnostics["n_combinations"] <= 500


class TestCandidateCombos:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_rows_match_itertools(self, r):
        # pools too small for one row give shape (0, r)
        for m in sorted({0, r - 1, r, r + 1, r + 5, 12}):
            got = _combinations(m, r)
            want = np.array(list(itertools.combinations(range(m), r)), dtype=np.intp).reshape(-1, r)
            assert got.shape == want.shape == (len(want), r)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("free,max_set", [(1, 10), (2, 10_000), (2, 50), (3, 40), (3, 1000)])
    def test_same_rows_and_picks_as_itertools(self, free, max_set):
        # the enumeration order decides which rows max_set's random picks keep
        cands = np.sort(np.random.default_rng(free).exponential(8.0, size=40))
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _candidate_combos(cands, free, max_set, rng)
        pool = _sub_sample(cands, free, max_set, ref_rng)
        want = np.array(list(itertools.combinations(pool, free)), dtype=float)
        if len(want) > max_set:
            want = want[np.sort(ref_rng.choice(len(want), size=max_set, replace=False))]
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestSegmentedLine:
    def test_recovers_exact_breakpoint(self):
        # noiseless points from a 2-piece log-survival curve
        x = np.linspace(0.2, 20.0, 60)
        y = -0.3 * x + (0.3 - 0.05) * np.maximum(x - 7.3, 0.0)
        seg = fit_segmented_line(x, y, npsi=1, rng=np.random.default_rng(0))
        assert seg.converged
        assert seg.psi[0] == pytest.approx(7.3, abs=1e-6)

    def test_recovers_two_breakpoints(self):
        x = np.linspace(0.1, 30.0, 120)
        y = -0.1 * x
        y += (0.1 - 0.01) * np.maximum(x - 5.0, 0.0)
        y += (0.01 - 0.2) * np.maximum(x - 14.0, 0.0)
        seg = fit_segmented_line(x, y, npsi=2, rng=np.random.default_rng(0))
        assert seg.converged
        assert np.allclose(seg.psi, (5.0, 14.0), atol=1e-6)

    def test_fixed_break_held(self):
        x = np.linspace(0.1, 30.0, 120)
        y = -0.1 * x
        y += (0.1 - 0.01) * np.maximum(x - 5.0, 0.0)
        y += (0.01 - 0.2) * np.maximum(x - 14.0, 0.0)
        seg = fit_segmented_line(x, y, npsi=1, fixed_psi=(14.0,), rng=np.random.default_rng(0))
        assert seg.converged
        assert seg.psi[0] == pytest.approx(5.0, abs=1e-6)


def line_design(x, ramps, steps):
    """The explicit design [x, (x - a)_+ for a in ramps, 1(x > a) for a in steps]."""
    return np.column_stack(
        [x] + [np.maximum(x - a, 0.0) for a in ramps] + [(x > a).astype(float) for a in steps]
    )


@st.composite
def line_cases(draw):
    """Sorted points with noise around a broken line, and rows of ramp and
    step thresholds inside the points, past the last one or below the first."""
    m = draw(st.integers(8, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = draw(st.floats(0.01, 5.0)) + np.cumsum(rng.uniform(0.05, 2.0, m))
    y = -0.1 * x + 0.08 * np.maximum(x - x[m // 2], 0.0) + rng.normal(0.0, 0.2, m)

    def threshold():
        where = draw(st.sampled_from(["inside", "past", "below"]))
        if where == "past":
            return x[-1] + draw(st.floats(0.0, 3.0))
        if where == "below":
            return x[0] - draw(st.floats(1e-3, 3.0))
        i = draw(st.integers(0, m - 2))
        return x[i] + draw(st.floats(0.0, 1.0)) * (x[i + 1] - x[i])

    n_rows, n_ramp, n_step = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    ramps = np.array([[threshold() for _ in range(n_ramp)] for _ in range(n_rows)]).reshape(n_rows, n_ramp)
    steps = np.array([[threshold() for _ in range(n_step)] for _ in range(n_rows)]).reshape(n_rows, n_step)
    return x, y, ramps, steps


@settings(max_examples=300, deadline=None)
@given(line_cases())
def test_line_sums_match_lstsq(case):
    # the batched normal equations square the design's condition number,
    # so the oracle holds on well-posed designs; a threshold past the last
    # point leaves an empty column, where the minimum-norm solution gives a
    # zero coefficient (lstsq over the whole design returns rounding noise
    # there, amplified by any nearly empty column, so it solves the live ones)
    x, y, ramps, steps = case
    coef, sse = _LineSums([(x, y)]).solve(ramps, steps)
    checked = 0
    for b in range(len(ramps)):
        D = line_design(x, ramps[b], steps[b])
        live = D.any(axis=0)
        if np.linalg.cond(D[:, live] / np.linalg.norm(D[:, live], axis=0)) >= 1e3:
            continue
        ref = np.zeros(D.shape[1])
        ref[live] = np.linalg.lstsq(D[:, live], y, rcond=None)[0]
        assert np.all(np.abs(coef[b] - ref) <= 1e-8 * np.abs(ref).max())
        assert np.all(coef[b, ~live] == 0.0)
        assert sse[b] == pytest.approx(float(np.sum((y - D @ ref) ** 2)), rel=1e-8)
        checked += 1
    assume(checked)


def _reference_run(x, y, psi, fixed_psi, max_iter, tol):
    """One start of the segmented iteration, with one lstsq per proposal
    and per line-search step; (psi, sse) when it converges, else None. A
    start that stops with a break within tol of a clip bound has not
    converged."""

    def sse_of(p):
        D = line_design(x, (*fixed_psi, *p), ())
        coef, *_ = np.linalg.lstsq(D, y, rcond=None)
        r = y - D @ coef
        return float(r @ r)

    npsi, nfix = len(psi), len(fixed_psi)
    margin = 1e-9 * (x[-1] - x[0])
    lo, hi = x[0] + margin, x[-1] - margin
    sse = sse_of(psi)

    def stop(ok):
        clipped = np.min(np.minimum(psi - lo, hi - psi)) <= tol
        return (psi, sse) if ok and not clipped else None

    for _ in range(max_iter):
        coef, *_ = np.linalg.lstsq(line_design(x, (*fixed_psi, *psi), psi), y, rcond=None)
        c = coef[1 + nfix : 1 + nfix + npsi]
        g = coef[1 + nfix + npsi :]
        step = np.where(np.abs(c) > 1e-10, g / np.where(c == 0.0, 1.0, c), 0.0)
        if not np.all(np.isfinite(step)):
            return None
        for h in (1.0, 0.5, 0.25, 0.125, 0.0625):
            cand = np.sort(np.clip(psi - h * step, lo, hi))
            merged = np.sort(np.concatenate([cand, fixed_psi]))
            if len(merged) > 1 and np.any(np.diff(merged) <= 0.0):
                continue
            cand_sse = sse_of(cand)
            if cand_sse <= sse * (1.0 + 1e-12) + 1e-300:
                delta = np.max(np.abs(cand - psi))
                psi, sse = cand, cand_sse
                break
        else:
            return stop(np.max(np.abs(step)) < tol)
        if delta < tol:
            return stop(True)
    return None


def segmented_starts(x, npsi, rng, n_restarts=5):
    """The starts of ``fit_segmented_line`` on sorted ``x``: quantiles, then random."""
    starts = [np.quantile(x, (np.arange(npsi) + 1) / (npsi + 1))]
    for _ in range(n_restarts - 1):
        starts.append(np.quantile(x, np.sort(rng.uniform(0.05, 0.95, size=npsi))))
    return np.sort(starts, axis=1)


@pytest.mark.parametrize("npsi", [1, 2, 3])
def test_starts_drawn_at_once_match_per_start(npsi):
    # one uniform draw and one quantile call give every start, and leave
    # the stream where the per-start draws left it
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.exponential(10.0, size=int(rng.integers(npsi + 2, 300))))
        got_rng, want_rng = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        got = _segmented_starts(x, npsi, got_rng)
        assert got.tobytes() == segmented_starts(x, npsi, want_rng).tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def reference_segmented_line(x, y, npsi, fixed_psi=(), rng=None, max_iter=50, tol_frac=1e-8):
    """``fit_segmented_line`` as a loop over starts, one after the other;
    (converged, psi) of the best converged start."""
    order = np.argsort(x)
    x, y = x[order], y[order]
    best = None
    for start in segmented_starts(x, npsi, rng):
        out = _reference_run(x, y, start, np.asarray(fixed_psi, dtype=float), max_iter,
                             tol_frac * (x[-1] - x[0]))
        if out is not None and (best is None or out[1] < best[1]):
            best = out
    return (False, ()) if best is None else (True, tuple(best[0]))


class TestLockstepMatchesPerStart:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("npsi", [1, 2, 3])
    @pytest.mark.parametrize("fixed", [(), (14.0,)])
    def test_km_points(self, true_event_model, seed, npsi, fixed):
        rng = np.random.default_rng(seed)
        n = 1000
        times = pw.sample(true_event_model, n, rng)
        censor = rng.uniform(5.0, 40.0, n)
        d = SurvSample(np.minimum(times, censor), (times <= censor).astype(int))
        x, y = km_fit(d).log_points()
        seg = fit_segmented_line(x, y, npsi, fixed, rng=np.random.default_rng(seed))
        converged, psi = reference_segmented_line(x, y, npsi, fixed, rng=np.random.default_rng(seed))
        assert seg.converged == converged
        np.testing.assert_allclose(seg.psi, psi, rtol=1e-6)


def test_clipped_break_convergence_is_stable():
    # seed 3, 300 subjects, r = 3: one start's first break ends clipped at
    # the first KM point, where accepting its last step rests on an SSE
    # difference of rounding size; a 1e-12 nudge of any iterate of any
    # start must not change whether that start converged
    data, _, _ = make_scenario(seed=3, n=300)
    x, y = km_fit(data).log_points()
    sums = _LineSums([(x, y)])
    tol = _TOL_FRAC * (x[-1] - x[0])
    lo = x[0] + 1e-9 * (x[-1] - x[0])
    no_fixed = np.empty((1, 0))
    ends = []
    for start in segmented_starts(x, 3, derive_rng(3, 202)):
        for k in range(1, 9):
            psi = _run_segmented(sums, start[None], no_fixed, k)[0]
            flags = {bool(_run_segmented(sums, psi + eps, no_fixed)[2][0]) for eps in (-1e-12, 0.0, 1e-12)}
            assert len(flags) == 1
        ends.append(_run_segmented(sums, start[None], no_fixed)[0][0])
    assert any(p[0] - lo <= tol for p in ends)


class TestFitOls:
    def test_zero_breaks_degenerates_to_exponential_mle(self):
        rng = np.random.default_rng(31)
        d = random_sample(rng, n=30)
        res = fit_ols(d, FitConfig(nbreak=0, optimizer="ols", seed=0))
        assert res.model.rates[0] == pytest.approx(d.n_events / d.time.sum(), rel=1e-12)

    def test_fixed_breakpoint_present_exactly(self, scenario_train):
        cfg = FitConfig(nbreak=2, fixed_breakpoints=(14.0,), optimizer="ols",
                        min_pt_tail=5, seed=1)
        res = fit_ols(scenario_train, cfg)
        assert 14.0 in res.model.breakpoints

    def test_hazards_reestimated_by_mle(self, scenario_train):
        cfg = FitConfig(nbreak=2, optimizer="ols", seed=1)
        res = fit_ols(scenario_train, cfg)
        ref = mle_given_breakpoints(res.model.breakpoints, scenario_train)
        assert res.model.rates == ref.model.rates

    def test_too_few_steps_rejected(self):
        d = SurvSample([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        with pytest.raises(NoFeasibleModelError):
            fit_ols(d, FitConfig(nbreak=2, optimizer="ols", seed=0))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("constraint", [{"min_pt_tail": 150}, {"exclude_int": (12.0, np.inf)}])
    def test_grid_fallback_honours_constraint(self, scenario_train, seed, constraint):
        # the segmented solution breaks the constraint, so the least-squares
        # grid search over event times picks the change-points
        cfg = FitConfig(nbreak=2, optimizer="ols", seed=seed, **constraint)
        res = fit_ols(scenario_train, cfg)
        assert any("grid fallback used" in w for w in res.warnings)
        assert res.diagnostics["breakpoint_se"] is None
        bps = res.model.breakpoints
        ev = scenario_train.time[scenario_train.event == 1]
        assert len(bps) == 2 and set(bps) <= set(ev)
        assert (ev >= bps[-1]).sum() >= cfg.min_pt_tail
        if cfg.exclude_int is not None:
            lo, hi = cfg.exclude_int
            assert not any(lo <= b < hi for b in bps)
        assert res.model.rates == mle_given_breakpoints(bps, scenario_train).model.rates


class TestFitHybrid:
    def test_tied_events_infeasible(self):
        # the KM curve drops to 0 at the only event time: no OLS points
        d = SurvSample(np.full(30, 3.0), np.ones(30, dtype=int))
        with pytest.raises(NoFeasibleModelError):
            fit_hybrid(d, FitConfig(nbreak=2, optimizer="hybrid", seed=0))

    def test_never_below_snapped_ols(self):
        rng = np.random.default_rng(41)
        wins = 0
        for _ in range(15):
            d = random_sample(rng, n=60, censor_frac=0.2)
            cfg = FitConfig(nbreak=1, optimizer="hybrid", min_pt_tail=1, seed=3)
            try:
                hyb = fit_hybrid(d, cfg)
                ols = fit_ols(d, cfg)
            except NoFeasibleModelError:
                continue
            ev = np.unique(d.time[d.event == 1])
            snapped = [float(ev[np.argmin(np.abs(ev - b))]) for b in ols.diagnostics["free_breakpoints"]]
            try:
                ref = mle_given_breakpoints(snapped, d)
            except EmptyPieceError:
                continue
            assert hyb.loglik >= ref.loglik - 1e-9
            wins += 1
        assert wins >= 10

    @pytest.mark.parametrize("max_set", [2, 30])
    def test_capped_candidate_rows(self, scenario_train, max_set):
        # the 18 x 6 candidate sets: at max_set 2 their product exceeds
        # 4 * max_set, so max_set random picks are drawn from each set; at
        # max_set 30 the product's ordered rows are subsampled to max_set
        d = scenario_train
        cfg = FitConfig(nbreak=2, optimizer="hybrid", max_set=max_set, seed=7)
        res = fit_hybrid(d, cfg)
        product = int(np.prod(res.diagnostics["candidate_set_sizes"]))
        assert product > max_set and (product > 4 * max_set) == (max_set == 2)
        assert res.diagnostics["n_rows"] <= max_set + 1
        view = d._sorted
        ll, feasible = _profile(view, np.array([res.model.breakpoints]), cfg.min_pt_tail)
        assert feasible[0] and ll[0] == pytest.approx(res.loglik, rel=1e-12)
        snapped = _snap_row(_candidate_values(view, cfg), res.diagnostics["ols_breakpoints"])
        snapped_ll, snapped_feasible = _profile(view, snapped[None, :], cfg.min_pt_tail)
        assert snapped_feasible[0] and res.loglik >= snapped_ll[0] - 1e-9
        assert fit_hybrid(d, cfg).to_dict() == res.to_dict()

    def test_never_beats_exhaustive_on_tiny_data(self):
        rng = np.random.default_rng(42)
        compared = 0
        for _ in range(12):
            times = rng.exponential(6.0, size=10)
            d = SurvSample(times, np.ones(10, dtype=int))
            try:
                hyb = fit_hybrid(d, FitConfig(nbreak=1, optimizer="hybrid", min_pt_tail=1, seed=5))
                exh = fit_bfs(d, FitConfig(nbreak=1, optimizer="bfs", min_pt_tail=1, seed=5))
            except NoFeasibleModelError:
                continue
            assert hyb.loglik <= exh.loglik + 1e-9
            compared += 1
        assert compared >= 8

    def test_matches_exhaustive_when_windows_cover_all_candidates(self):
        # few distinct event times: the 3-nearest widening makes every
        # candidate set the full grid, so hybrid == exhaustive exactly
        rng = np.random.default_rng(43)
        for _ in range(6):
            times = rng.choice([2.0, 5.0, 7.0, 9.0], size=12)
            times[:4] = [2.0, 5.0, 7.0, 9.0]
            event = np.ones(14, dtype=int)
            event[12:] = 0
            d = SurvSample(np.concatenate([times, [11.0, 12.0]]), event)
            hyb = fit_hybrid(d, FitConfig(nbreak=1, optimizer="hybrid", min_pt_tail=1, seed=5))
            exh = fit_bfs(d, FitConfig(nbreak=1, optimizer="bfs", min_pt_tail=1, seed=5))
            assert hyb.model.breakpoints == exh.model.breakpoints
            assert hyb.loglik == exh.loglik


class TestTooFewCandidates:
    """Every optimizer raises the one candidate-count error when
    ``exclude_int`` leaves fewer event times than free change-points."""

    @pytest.mark.parametrize("optimizer", ["bfs", "ols", "hybrid"])
    @pytest.mark.parametrize("nbreak, left", [(1, 0), (2, 1)])
    def test_raises_no_feasible_model(self, scenario_train, optimizer, nbreak, left):
        last = float(scenario_train._sorted.event_times[-1])
        cfg = FitConfig(nbreak=nbreak, optimizer=optimizer, exclude_int=(0.0, last if left else np.inf))
        with pytest.raises(NoFeasibleModelError, match=f"^need at least {nbreak} candidate .*, got {left}$"):
            fit(scenario_train, cfg)


class TestFitDispatch:
    def test_nbreak_zero_exponential(self):
        d = SurvSample([2.0, 3.0, 7.0], [1, 1, 0])
        res = fit(d, FitConfig(nbreak=0, seed=0))
        assert res.model.breakpoints == ()
        assert res.model.rates[0] == pytest.approx(2.0 / 12.0, rel=1e-14)

    def test_all_fixed_uses_mle_path(self, scenario_train):
        res = fit(scenario_train, FitConfig(fixed_breakpoints=(5.0, 14.0), seed=0))
        ref = mle_given_breakpoints((5.0, 14.0), scenario_train)
        assert res.model == ref.model
        assert res.optimizer == "fixed"

    def test_exclude_interval_honored(self, scenario_train):
        cfg = FitConfig(nbreak=2, optimizer="hybrid", exclude_int=(23.0, np.inf), seed=2)
        res = fit(scenario_train, cfg)
        assert all(b < 23.0 for b in res.model.breakpoints)

    def test_min_pt_tail_honored(self, scenario_train):
        cfg = FitConfig(nbreak=2, optimizer="hybrid", min_pt_tail=40, seed=2)
        res = fit(scenario_train, cfg)
        ev = scenario_train.time[scenario_train.event == 1]
        assert np.sum(ev >= res.model.breakpoints[-1]) >= 40

    @pytest.mark.parametrize("nbreak", [0, 2])
    def test_all_censored_infeasible(self, nbreak):
        d = SurvSample([1.0, 2.0, 3.0, 4.0], [0, 0, 0, 0])
        with pytest.raises(NoFeasibleModelError):
            fit(d, FitConfig(nbreak=nbreak, seed=0))

    def test_fixed_inside_exclude_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(nbreak=2, fixed_breakpoints=(25.0,), exclude_int=(23.0, np.inf))

    @pytest.mark.parametrize("nbreak", [1.7, np.nan, np.inf, "2"])
    def test_nbreak_must_be_whole(self, nbreak):
        with pytest.raises(ValueError, match="nbreak must be a whole number"):
            FitConfig(nbreak=nbreak)

    @pytest.mark.parametrize("nbreak", [2.0, np.int64(2), np.float32(2.0)])
    def test_whole_valued_nbreak_is_an_int(self, nbreak):
        nb = FitConfig(nbreak=nbreak).nbreak
        assert nb == 2 and type(nb) is int

    @pytest.mark.parametrize("kw", [dict(max_set=2.5), dict(min_pt_tail=1.5)], ids=["max_set", "min_pt_tail"])
    def test_search_counts_must_be_whole(self, kw):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be a whole number"):
            FitConfig(**kw)

    def test_whole_valued_search_counts_are_ints(self):
        cfg = FitConfig(max_set=np.int64(7), min_pt_tail=3.0)
        assert (cfg.max_set, cfg.min_pt_tail) == (7, 3)
        assert type(cfg.max_set) is int and type(cfg.min_pt_tail) is int

    def test_invalid_fixed_cleaned_with_warning(self):
        d = SurvSample([1.0, 2.0, 3.0, 4.0, 5.0], [1, 1, 1, 1, 1])
        res = fit(d, FitConfig(fixed_breakpoints=(0.1, 2.5), seed=0))
        assert res.model.breakpoints == (2.5,)
        assert any("dropped" in w for w in res.warnings)


class TestSearchProperties:
    def test_nesting_over_breakpoint_count(self):
        rng = np.random.default_rng(51)
        times = rng.exponential(5.0, size=30)
        d = SurvSample(times, np.ones(30, dtype=int))
        lls = []
        for r in (1, 2):
            cfg = FitConfig(nbreak=r, optimizer="bfs", min_pt_tail=1,
                            max_set=10**6, seed=0)
            lls.append(fit_bfs(d, cfg).loglik)
        assert lls[1] >= lls[0] - 1e-9

    def test_affine_equivariance(self):
        d = SurvSample([1.0, 2.0, 3.0, 5.0, 8.0, 13.0], [1, 1, 1, 1, 0, 1])
        c = 2.5
        scaled = SurvSample(d.time * c, d.event)
        res1 = mle_given_breakpoints([4.0], d)
        res2 = mle_given_breakpoints([4.0 * c], scaled)
        assert np.allclose(np.asarray(res2.model.rates) * c, res1.model.rates, rtol=1e-12)
        assert res2.loglik == pytest.approx(res1.loglik - d.n_events * np.log(c), rel=1e-12)
        # search path: exhaustive brute force scales the same way
        cfg = FitConfig(nbreak=1, optimizer="bfs", min_pt_tail=1, seed=0)
        b1 = fit_bfs(d, cfg)
        b2 = fit_bfs(scaled, cfg)
        assert b2.model.breakpoints[0] == pytest.approx(b1.model.breakpoints[0] * c, rel=1e-12)

    def test_json_roundtrip(self, tmp_path, scenario_train):
        res = fit(scenario_train, FitConfig(nbreak=2, optimizer="hybrid", seed=7))
        path = tmp_path / "fit.json"
        res.save_json(path)
        back = FitResult.load_json(path)
        assert back.model == res.model
        assert back.loglik == res.loglik
        assert back.n_obs == res.n_obs


def reference_tally(breakpoints, data):
    """(events, exposure, n_suffix) per piece from each subject's piece and
    one sum of min(T_i, d) over the subjects per break d."""
    b = np.asarray(breakpoints, dtype=float)
    idx = np.searchsorted(b, data.time, side="right")
    n_events = np.bincount(idx[data.event == 1], minlength=len(b) + 1)
    n_suffix = np.bincount(idx, minlength=len(b) + 1)[::-1].cumsum()[::-1]
    acc = np.array([np.minimum(data.time, d).sum() for d in b] + [data.time.sum()])
    return n_events, np.diff(np.concatenate(([0.0], acc))), n_suffix


@st.composite
def samples_and_rows(draw):
    """A censored sample, possibly with heavy ties, and strictly increasing
    rows of change-points: at event times, between them, or past the end."""
    tied = draw(st.booleans())
    time = st.sampled_from([0.7, 1.0, 2.9, 3.0, 4.7, 6.1]) if tied else st.floats(0.01, 30.0)
    obs = draw(st.lists(st.tuples(time, st.booleans()), min_size=2, max_size=40))
    times = np.array([t for t, _ in obs])
    event = np.array([e for _, e in obs], dtype=int)
    event[0] = 1
    data = SurvSample(times, event)
    pool = st.sampled_from(sorted(set(times[event == 1]))) | st.floats(0.01, 35.0)
    rows = draw(st.lists(st.lists(pool, min_size=1, max_size=3, unique=True), min_size=1, max_size=8))
    width = len(rows[0])
    B = np.array([sorted(r) for r in rows if len(r) == width], dtype=float)
    return data, B, draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(samples_and_rows())
def test_profile_feasible_exactly_when_mle_succeeds(case):
    data, B, min_pt_tail = case
    ll, feasible = _profile(data._sorted, B, min_pt_tail)
    ev = data.time[data.event == 1]
    for row, row_ll, ok in zip(B, ll, feasible):
        try:
            res = mle_given_breakpoints(row, data)
        except EmptyPieceError:
            res = None
        assert ok == (res is not None and (ev >= row[-1]).sum() >= min_pt_tail)
        if ok:
            assert row_ll == pytest.approx(res.loglik, rel=1e-9)
        else:
            assert row_ll == -np.inf
        tally = piece_tally(row, data)
        assert tally.n_events.sum() == data.n_events
        assert tally.exposure.sum() == pytest.approx(data.time.sum(), rel=1e-12)
        n_events, exposure, n_suffix = reference_tally(row, data)
        np.testing.assert_array_equal(tally.n_events, n_events)
        np.testing.assert_array_equal(tally.n_suffix, n_suffix)
        # nobody is followed inside a piece that starts at or past the
        # largest time (ties there included): both give exactly 0
        empty = np.concatenate(([0.0], row)) >= data.time.max()
        assert np.all(tally.exposure[empty] == 0.0) and np.all(exposure[empty] == 0.0)
        # both difference running sums, so a piece a few ulps wide carries
        # rounding noise of the sums' size: compare on the total's scale
        np.testing.assert_allclose(tally.exposure, exposure, rtol=1e-12, atol=1e-12 * data.time.sum())


class TestRunRecordKeys:
    """Diagnostics keys and warning texts that the layer counters of
    ``bench/run.py`` read from fit results."""

    def test_bfs_counts(self, scenario_train):
        diag = fit(scenario_train, FitConfig(nbreak=2, optimizer="bfs", seed=0)).diagnostics
        assert {"n_combinations", "n_feasible", "n_candidates"} <= diag.keys()
        assert 0 < diag["n_feasible"] <= diag["n_combinations"]

    def test_hybrid_rows(self, scenario_train):
        diag = fit(scenario_train, FitConfig(nbreak=2, optimizer="hybrid", seed=0)).diagnostics
        assert diag["n_rows"] >= 1

    @pytest.mark.parametrize("optimizer", ["ols", "hybrid"])
    @pytest.mark.parametrize("nbreak, converged", [(1, False), (2, True)])
    def test_segmented_fields(self, scenario_train, optimizer, nbreak, converged):
        diag = fit(scenario_train, FitConfig(nbreak=nbreak, optimizer=optimizer, seed=0)).diagnostics
        if converged:
            assert 1 <= diag["segmented_n_iter"] < 50
            assert 1 <= diag["segmented_starts_converged"] <= 5
        else:
            assert diag["segmented_n_iter"] == 50
            assert diag["segmented_starts_converged"] == 0

    def test_segmented_fields_without_free_breaks(self, scenario_train):
        cfg = FitConfig(nbreak=1, fixed_breakpoints=(14.0,), optimizer="ols", seed=0)
        diag = fit_ols(scenario_train, cfg).diagnostics
        assert diag["segmented_n_iter"] == 0 and diag["segmented_starts_converged"] == 0

    @pytest.mark.parametrize("optimizer", ["ols", "hybrid"])
    def test_fallback_warning_text(self, scenario_train, optimizer):
        res = fit(scenario_train, FitConfig(nbreak=2, optimizer=optimizer, min_pt_tail=150, seed=1))
        assert any("grid fallback" in w for w in res.warnings)


RECORD_CONFIGS = {
    "bfs": FitConfig(nbreak=2, optimizer="bfs", seed=7),
    "ols": FitConfig(nbreak=2, optimizer="ols", seed=7),
    "hybrid": FitConfig(nbreak=2, optimizer="hybrid", seed=7),
    "all_fixed": FitConfig(fixed_breakpoints=(5.0, 14.0), seed=7),
    "nbreak_0": FitConfig(nbreak=0, seed=7),
}


SMALL_FIT = FitResult(PweModel((0.1, 0.2), (5.0,)), loglik=-30.5, n_obs=20, optimizer="bfs")


def _bits(x) -> str:
    return float(x).hex()


class TestFitRecord:
    """``n_param``, ``aic`` and ``bic`` follow from the fit, and the JSON
    record reads back what it wrote and rejects what it did not."""

    @pytest.fixture(scope="class", params=list(RECORD_CONFIGS))
    def result(self, request, scenario_train):
        return fit(scenario_train, RECORD_CONFIGS[request.param])

    def test_criteria_follow_from_the_fit(self, result, scenario_train):
        k = 2 * len(result.model.breakpoints) + 1
        assert result.n_param == k
        assert result.n_obs == len(scenario_train)
        assert _bits(result.aic) == _bits(-2.0 * result.loglik + 2.0 * k)
        assert _bits(result.bic) == _bits(-2.0 * result.loglik + k * np.log(len(scenario_train)))

    def test_json_round_trip_is_exact(self, result, tmp_path):
        path = tmp_path / "fit.json"
        result.save_json(path)
        back = FitResult.load_json(path)
        assert json.dumps(back.to_dict()) == json.dumps(result.to_dict())
        assert (back.n_param, _bits(back.aic), _bits(back.bic)) == (
            result.n_param, _bits(result.aic), _bits(result.bic))

    def test_edited_criteria_are_not_read(self, result, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({**result.to_dict(), "aic": 0.0, "bic": -1.0}))
        back = FitResult.load_json(path)
        assert (_bits(back.aic), _bits(back.bic)) == (_bits(result.aic), _bits(result.bic))

    @pytest.mark.parametrize("name", ["rates", "breakpoints", "loglik", "n_obs", "optimizer"])
    def test_missing_field_named(self, name):
        d = SMALL_FIT.to_dict()
        del d[name]
        with pytest.raises(ValueError, match=f"record has no '{name}' field"):
            FitResult.from_dict(d)

    @pytest.mark.parametrize("edit, message", [
        ({"rates": 5}, "bad 'rates' field: expected a list, got int"),
        ({"rates": ["fast"]}, "bad 'rates' field: could not convert"),
        ({"breakpoints": None}, "bad 'breakpoints' field: expected a list"),
        ({"loglik": [1.0]}, "bad 'loglik' field"),
        ({"n_obs": 10.9}, "bad 'n_obs' field: n_obs must be a whole number, got 10.9"),
        ({"n_obs": 0}, "bad 'n_obs' field: n_obs must be >= 1, got 0"),
        ({"warnings": "none"}, "bad 'warnings' field: expected a list, got str"),
        ({"loglik": float("nan")}, "bad 'loglik' field: expected a finite number, got nan"),
        ({"loglik": float("-inf")}, "bad 'loglik' field: expected a finite number, got -inf"),
        ({"optimizer": 5}, "bad 'optimizer' field: expected one of ('bfs', 'ols', 'hybrid', 'fixed'), got 5"),
        ({"optimizer": "BFS"}, "bad 'optimizer' field: expected one of"),
    ])
    def test_ill_typed_field_named(self, edit, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            FitResult.from_dict({**SMALL_FIT.to_dict(), **edit})

    def test_record_must_be_an_object(self):
        with pytest.raises(ValueError, match="a record must be a JSON object, got list"):
            FitResult.from_dict([])


class TestOneSortedViewPerSample:
    """Searches, MLEs, tallies and the Kaplan-Meier curve all read the one
    sorted view that a sample builds on first use."""

    CONFIGS = {
        "bfs": FitConfig(nbreak=2, optimizer="bfs", seed=0),
        "ols": FitConfig(nbreak=2, optimizer="ols", seed=0),
        "hybrid": FitConfig(nbreak=2, optimizer="hybrid", seed=0),
        "ols-fallback": FitConfig(nbreak=2, optimizer="ols", min_pt_tail=150, seed=1),
        "fixed-and-searched": FitConfig(nbreak=2, fixed_breakpoints=(14.0,), optimizer="hybrid", seed=0),
        "all-fixed": FitConfig(nbreak=2, fixed_breakpoints=(5.0, 14.0)),
        "exponential": FitConfig(nbreak=0),
    }

    @staticmethod
    def count_builds(monkeypatch) -> list:
        """The samples whose view is built, one entry per build (kept, so
        no two of them share an id)."""
        built = []
        init = _Sorted.__init__

        def counting(view, data):
            built.append(data)
            init(view, data)

        monkeypatch.setattr(_Sorted, "__init__", counting)
        return built

    @staticmethod
    def fresh(data: SurvSample) -> SurvSample:
        return SurvSample(data.time.copy(), data.event.copy())

    @pytest.mark.parametrize("name", list(CONFIGS))
    def test_a_fit_builds_one_view(self, monkeypatch, scenario_train, name):
        data = self.fresh(scenario_train)
        built = self.count_builds(monkeypatch)
        fit(data, self.CONFIGS[name])
        km_fit(data)
        assert len(built) == 1 and built[0] is data

    @pytest.mark.parametrize("optimizer", ["bfs"])
    def test_boot_fit_builds_one_view_per_replicate(self, monkeypatch, scenario_train, optimizer):
        nsim = 4
        data = self.fresh(scenario_train)
        built = self.count_builds(monkeypatch)
        boot = pw.boot_fit(data, FitConfig(nbreak=2, optimizer=optimizer, seed=0), nsim=nsim, seed=3)
        assert len(boot.replicates) == nsim
        assert len(built) == 1 + nsim and built[0] is data
        assert len({id(d) for d in built}) == 1 + nsim

    @pytest.mark.parametrize("optimizer", ["ols", "hybrid"])
    def test_boot_redraws_ols_replicates(self, monkeypatch, scenario_train, optimizer):
        # an ols or hybrid replicate's resample is drawn once before the
        # segmented lockstep and once after it, each draw a new sample that
        # builds one view; both draws hold the same rows
        nsim = 4
        data = self.fresh(scenario_train)
        built = self.count_builds(monkeypatch)
        boot = pw.boot_fit(data, FitConfig(nbreak=2, optimizer=optimizer, seed=0), nsim=nsim, seed=3)
        assert len(boot.replicates) == nsim
        assert len(built) == 1 + 2 * nsim and built[0] is data
        assert len({id(d) for d in built}) == 1 + 2 * nsim
        draws = [d.time.tobytes() + d.event.tobytes() for d in built[1:]]
        assert all(draws.count(d) == 2 for d in draws)

    @pytest.mark.parametrize("optimizer, builds", [("bfs", 1), ("ols", 2), ("hybrid", 2)])
    def test_cv_builds_each_training_split(self, monkeypatch, scenario_train, optimizer, builds):
        # an ols or hybrid training split is built once before the segmented
        # lockstep and once after it, a bfs split once; the held-out splits
        # are scored without a view
        nsim = 4
        data = self.fresh(scenario_train)
        built = self.count_builds(monkeypatch)
        cv = pw.cv_loglik(data, FitConfig(nbreak=2, optimizer=optimizer, seed=0), nsim=nsim, seed=3)
        assert len(cv.values) == nsim
        trains = [d for d in built if d is not data]
        assert len(trains) == builds * nsim and all(len(d) < len(data) for d in trains)
        draws = [d.time.tobytes() + d.event.tobytes() for d in trains]
        assert all(draws.count(d) == builds for d in draws) and len(set(draws)) == nsim

    def test_repeated_fits_of_one_sample_equal_fits_of_fresh_copies(self, scenario_train):
        data = self.fresh(scenario_train)
        for config in [*self.CONFIGS.values()] * 2:
            got, want = fit(data, config), fit(self.fresh(data), config)
            assert got.to_dict() == want.to_dict()
            assert got.diagnostics == want.diagnostics
