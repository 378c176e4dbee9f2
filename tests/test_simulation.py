import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pwexp as pw
from pwexp.rng import derive_rng
from pwexp.simulation import FOLLOWUP_TYPES, _allocate_exact, sim_followup
from pwexp.survdata import SurvSample, cut_data

from conftest import DROP_RATE, TRUE_BREAKS, TRUE_RATES

DESIGN_KW = dict(rand_rate=10, total_sample=60, drop_rate=0.03)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


class TestSimFollowupThreads:
    @staticmethod
    def _assert_forked_matches_serial(design, stats):
        serial, forked = (sim_followup(design, at=[3.0, 5.0], stats=stats, by_group=True, rep=3, seed=0,
                                       threads=t) for t in (1, 2))
        for table in ("overall", "by_group"):
            a, b = getattr(serial, table), getattr(forked, table)
            assert a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)

    def test_lambda_hook_matches_serial(self):
        """A sampler hook reaches the workers through the fork, so it need
        not be picklable."""
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=lambda n, rng: rng.exponential(10.0, n)))
        self._assert_forked_matches_serial(design, [np.mean])

    def test_lambda_statistic_matches_serial(self):
        """A statistic reaches the workers through the fork, so it need not
        be picklable."""
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
        self._assert_forked_matches_serial(design, [lambda x: float(np.max(x))])

    @pytest.mark.parametrize("threads", [0, -1, 2.5, np.nan, "2"])
    def test_bad_threads_rejected_before_any_trial(self, monkeypatch, threads):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
        monkeypatch.setattr("pwexp.simulation.simulate_trial", lambda *a: pytest.fail("a trial ran"))
        monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
        with pytest.raises(ValueError, match="threads must be"):
            sim_followup(design, at=[5.0], rep=2, seed=0, threads=threads)

    def test_lambda_hook_runs_serially(self):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=lambda n, rng: rng.exponential(10.0, n)))
        res = sim_followup(design, at=[5.0], stats=[np.mean], rep=2, seed=0, threads=1)
        assert res.overall["subjects"][0] == 50.0


def test_n_rand_counts_fill_their_months():
    design = pw.TrialDesign(n_rand=(3, 0, 5), dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    frame = pw.simulate_trial(design, seed=4)
    assert np.floor(frame.randT).tolist() == [0, 0, 0, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("iid", [False, True], ids=["exact", "iid"])
@pytest.mark.parametrize("enrol", [dict(rand_rate=10, total_sample=0), dict(n_rand=(0, 0))],
                         ids=["rate", "counts"])
def test_empty_trial(enrol, iid):
    """A trial with no subjects has every column of a nonempty one, empty,
    draws nothing from a passed generator and warns of nothing."""
    kw = dict(groups=(("trt", 1.0), ("con", 2.0)), drop_rate=0.03, iid_allocation=iid,
              dists=pw.ArmModel(event=pw.PweModel((0.1,)), death=pw.PweModel((0.01,))))
    full = pw.simulate_trial(pw.TrialDesign(rand_rate=10, total_sample=5, **kw), seed=1)
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frame = pw.simulate_trial(pw.TrialDesign(**enrol, **kw), rng)
    assert rng.bit_generator.state == state
    assert len(frame) == 0
    for name, col in vars(frame).items():
        assert (col.shape, col.dtype) == ((0,), getattr(full, name).dtype), name


@pytest.mark.parametrize("hook, message", [
    (lambda n, rng: np.ones(n + 1), "sampler hook must return exactly n values"),
    (lambda n, rng: np.ones((n, 1)), "sampler hook must return exactly n values"),
    (lambda n, rng: np.where(np.arange(n) == 3, np.nan, 1.0), "sampler hook returned negative or NaN times"),
    (lambda n, rng: np.where(np.arange(n) == 3, -1.0, 1.0), "sampler hook returned negative or NaN times"),
], ids=["long", "column", "nan", "negative"])
@pytest.mark.parametrize("which", ["event", "dropout", "death"])
def test_sampler_hook_output_checked(hook, message, which):
    arm = pw.ArmModel(**{"event": pw.PweModel((0.1,)), which: hook})
    with pytest.raises(ValueError, match=f"^{message}$"):
        pw.simulate_trial(pw.TrialDesign(rand_rate=10, total_sample=8, dists=arm), seed=0)


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0])
def test_rand_rate_must_be_positive_and_finite(rate):
    with pytest.raises(ValueError, match="rand_rate must be positive and finite"):
        pw.TrialDesign(rand_rate=rate, total_sample=10, dists=pw.ArmModel(event=pw.PweModel((0.1,))))


@pytest.mark.parametrize("enrol, name", [
    (dict(rand_rate=10, total_sample=25.5), "total_sample"),
    (dict(n_rand=(2.7, 3)), "n_rand counts"),
], ids=["total_sample", "n_rand"])
def test_enrollment_counts_must_be_whole(enrol, name):
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        pw.TrialDesign(**enrol, dists=pw.ArmModel(event=pw.PweModel((0.1,))))


@pytest.mark.parametrize("which", ["groups", "strata"])
@pytest.mark.parametrize("weight", [np.nan, np.inf, -1.0, 0.0])
def test_cell_weights_must_be_positive_and_finite(which, weight):
    pairs = (("a", 1.0), ("b", weight))
    with pytest.raises(ValueError, match=f"{which} must be nonempty with positive, finite weights"):
        pw.TrialDesign(rand_rate=10, total_sample=10, **{which: pairs},
                       dists=pw.ArmModel(event=pw.PweModel((0.1,))))


@pytest.mark.parametrize("which", ["groups", "strata"])
def test_cell_names_must_be_distinct(which):
    # "1" and 1 name the same column value once written
    pairs = (("a", 1.0), ("1", 2.0), (1, 1.0))
    with pytest.raises(ValueError, match=f"{which} names must be distinct"):
        pw.TrialDesign(rand_rate=10, total_sample=10, **{which: pairs},
                       dists=pw.ArmModel(event=pw.PweModel((0.1,))))


def test_whole_valued_enrollment_counts_are_ints():
    ev = pw.ArmModel(event=pw.PweModel((0.1,)))
    design = pw.TrialDesign(rand_rate=10, total_sample=np.int64(25), dists=ev)
    assert type(design.total_sample) is int and design.total == 25
    design = pw.TrialDesign(n_rand=(2.0, np.int32(3)), dists=ev)
    assert design.n_rand == (2, 3) and all(type(c) is int for c in design.n_rand)


@pytest.mark.parametrize("rep", [2.5, np.nan, "2"])
def test_sim_followup_rep_must_be_whole(monkeypatch, rep):
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
    with pytest.raises(ValueError, match="rep must be a whole number"):
        sim_followup(design, at=[5.0], rep=rep, seed=0)


def test_sim_followup_takes_whole_valued_rep():
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    want = sim_followup(design, at=[5.0], stats=[np.mean], rep=2, seed=0).overall
    for rep in (2.0, np.int64(2)):
        got = sim_followup(design, at=[5.0], stats=[np.mean], rep=rep, seed=0).overall
        assert {k: v.tobytes() for k, v in got.items()} == {k: v.tobytes() for k, v in want.items()}


def test_sim_followup_needs_a_milestone(monkeypatch):
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
    with pytest.raises(ValueError, match="milestones must be nonempty"):
        sim_followup(design, at=[], rep=2, seed=0)


@pytest.mark.parametrize("threads", [1, 2])
def test_sim_followup_checks_type_before_any_trial(monkeypatch, threads):
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    trials = []
    simulate = pw.simulation.simulate_trial
    monkeypatch.setattr("pwexp.simulation.simulate_trial", lambda *a, **k: trials.append(1) or simulate(*a, **k))
    if threads > 1:  # trials in a worker would not be counted here
        monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
    with pytest.raises(ValueError, match="type must be"):
        sim_followup(design, at=[5.0], type="bogus", rep=3, seed=0, threads=threads)
    assert trials == []


@pytest.mark.parametrize("threads", [1, 2])
def test_sim_followup_needs_an_endpoint(monkeypatch, threads):
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
    with pytest.raises(ValueError, match="follow_up_endpoint must name at least one"):
        sim_followup(design, at=[5.0], rep=2, seed=0, follow_up_endpoint=(), threads=threads)


def test_sim_followup_rejects_a_bare_endpoint_string(monkeypatch):
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
    with pytest.raises(ValueError, match=r"sequence of endpoint names, such as \('event',\)"):
        sim_followup(design, at=[5.0], rep=2, seed=0, follow_up_endpoint="event")


@pytest.mark.parametrize("milestone", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["calendar", "event", "sample"])
def test_sim_followup_rejects_non_finite_milestones(monkeypatch, kind, milestone):
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
    with pytest.raises(ValueError, match="positive and finite"):
        sim_followup(design, at=[5.0, milestone], type=kind, rep=2, seed=0)


@pytest.mark.parametrize("kind", FOLLOWUP_TYPES)
def test_sim_followup_of_an_empty_trial(kind):
    # no subjects: nothing enrolled or observed at any cut, and a count
    # milestone is never reached (the cut is then time 0)
    design = pw.TrialDesign(rand_rate=10, total_sample=0, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        res = sim_followup(design, at=[1.0, 3.0], type=kind, stats=[np.mean], rep=2, seed=0)
    assert res.overall["subjects"].tolist() == res.overall["event"].tolist() == [0.0, 0.0]
    assert np.isnan(res.overall["mean"]).all()
    assert res.n_unreached == (0 if kind == "calendar" else 4)


@pytest.mark.parametrize("kind, column", [("event", "event"), ("sample", "subjects")])
def test_count_milestone_is_reached_exactly(kind, column):
    # the cut is the k-th event (or randomization) time, so every replicate
    # counts exactly k at milestone k
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = sim_followup(design, at=[1, 7, 20], type=kind, by_group=True, rep=5, seed=3)
    assert res.overall[column].tolist() == [1.0, 7.0, 20.0]
    assert res.n_unreached == 0


def test_milestone_beyond_trial_warns():
    design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
    with pytest.warns(UserWarning, match="3 replicate-milestone pairs never reached"):
        res = sim_followup(design, at=[5, 61], type="sample", rep=3, seed=3)
    assert res.n_unreached == 3
    # the unreached milestone reports the end-of-horizon state: every subject
    assert res.overall["subjects"].tolist() == [5.0, 60.0]


@st.composite
def pwe_models(draw):
    n_breaks = draw(st.integers(0, 4))
    breaks = np.cumsum(draw(st.lists(st.floats(0.1, 10.0), min_size=n_breaks, max_size=n_breaks)))
    rates = draw(st.lists(st.floats(1e-3, 5.0), min_size=n_breaks + 1, max_size=n_breaks + 1))
    return pw.PweModel(tuple(rates), tuple(breaks))


@settings(max_examples=200, deadline=None)
@given(pwe_models(), st.lists(st.floats(0.0, 0.999), min_size=1, max_size=20))
def test_quantile_cdf_round_trip(m, p):
    p = np.array(p)
    assert np.allclose(pw.cdf(m, pw.quantile(m, p)), p, rtol=1e-9, atol=1e-12)
    # back from times whose survival is not vanishingly small
    t = pw.quantile(m, p)
    assert np.allclose(pw.quantile(m, pw.cdf(m, t)), t, rtol=1e-9, atol=1e-12)


def _allocate_exact_oracle(month, weights, rng):
    """Exact allocation as an array recurrence per month block: the rounding
    and the draw order that :func:`_allocate_exact` must reproduce."""
    w = weights / weights.sum()
    cell = np.empty(len(month), dtype=int)
    alloc = np.zeros(len(w))
    starts = np.flatnonzero(np.diff(month, prepend=-1.0))
    for lo, hi in zip(starts, [*starts[1:], len(month)]):
        need = w * hi - alloc
        base = np.maximum(np.floor(need).astype(int), 0)
        short = hi - lo - base.sum()
        order = np.lexsort((rng.random(len(w)), -(need - base)))
        counts = base.copy()
        counts[order[:max(short, 0)]] += 1
        for _ in range(-short):
            counts[np.argmin(np.where(counts > 0, need - counts, np.inf))] -= 1
        cell[lo:hi] = np.repeat(np.arange(len(w)), counts)[rng.permutation(hi - lo)]
        alloc += counts
    return cell


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=12),
    st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
# three cells each owed just over one subject in a month of two, while two
# small cells sit above their quota
@example(per_month=[1, 1, 27, 30, 30, 2], weights=[7.0, 7.0, 7.0, 0.109375, 0.109375], seed=0)
# a give-back where the first smallest remainder is not the largest count
@example(per_month=[4, 4, 5, 5, 3], weights=[1.0, 3.0, 1.0, 0.125, 0.125], seed=0)
def test_allocate_exact_rounds_every_month_quota(per_month, weights, seed):
    # each month hands out exactly its subjects by largest-remainder
    # rounding of what every cell is owed: the floor or the ceiling of it
    # when the floors fit in the month, at most the floor when they do not
    month = np.repeat(np.arange(len(per_month), dtype=float), per_month)
    w = np.array(weights)
    rng = np.random.default_rng(seed)
    cell = _allocate_exact(month, w, rng)
    assert cell.shape == month.shape and set(cell.tolist()) <= set(range(len(w)))
    # the same cells from the same draws, made in the same order
    oracle_rng = np.random.default_rng(seed)
    want = _allocate_exact_oracle(month, w, oracle_rng)
    assert cell.dtype == want.dtype and np.array_equal(cell, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    quota = np.outer(np.cumsum(per_month), w / w.sum())
    alloc = np.zeros(len(w))
    for k, size in enumerate(per_month):
        counts = np.bincount(cell[month == k], minlength=len(w))
        owed = np.maximum(quota[k] - alloc, 0.0)
        lo, hi = np.floor(owed), np.ceil(owed)
        assert counts.sum() == size
        if lo.sum() <= size:
            assert np.all((lo <= counts) & (counts <= hi))
        else:
            assert np.all(counts <= lo)
        alloc += counts
        assert np.all(alloc - quota[k] < 1.0)


@st.composite
def calendar_samples(draw):
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rand = rng.uniform(0.0, 20.0, n)
    never = rng.random(n) < 0.2
    time = np.where(never, np.inf, rng.exponential(8.0, n))
    event = ((rng.random(n) < 0.7) & ~never).astype(int)
    reasons = np.where(never, "never_event", np.where(event == 1, None, "drop_out")).astype(object)
    return SurvSample(time, event, rand_time=rand, follow_abs_time=rand + time, censor_reason=reasons)


@settings(max_examples=200, deadline=None)
@given(calendar_samples(), st.floats(0.5, 40.0))
def test_cut_data_is_idempotent(data, cut):
    once = cut_data(data, cut)
    twice = cut_data(once, cut)
    for name in ("time", "event", "rand_time", "follow_abs_time", "censor_reason"):
        np.testing.assert_array_equal(getattr(twice, name), getattr(once, name))


def event_prob(model: pw.PweModel, mu: float, s) -> np.ndarray:
    """P(event by time s) under a PWE event hazard with a competing
    exponential drop-out hazard ``mu``: over the pieces [a_k, b_k),
    lam_k / (lam_k + mu) * exp(-(Lam + M)(a_k)) * (1 - exp(-(lam_k + mu) w_k)),
    w_k the part of the piece before s; 0 for s <= 0."""
    rates = np.asarray(model.rates)
    lower = np.concatenate(([0.0], model.breakpoints))
    upper = np.append(model.breakpoints, np.inf)
    total = rates + mu
    at_start = np.exp(-np.concatenate(([0.0], np.cumsum(total[:-1] * np.diff(lower)))))
    width = np.clip(np.asarray(s, dtype=float)[..., None] - lower, 0.0, upper - lower)
    return np.sum(rates / total * at_start * -np.expm1(-total * width), axis=-1)


MU = -np.log1p(-DROP_RATE)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cut_event_count_matches_closed_form(seed):
    # given the drawn enrollment times, each subject enrolled by the cut
    # has an event in the cut data with probability event_prob(cut - randT)
    model = pw.PweModel(TRUE_RATES, TRUE_BREAKS)
    design = pw.TrialDesign(rand_rate=100, total_sample=5000, drop_rate=DROP_RATE,
                            dists=pw.ArmModel(event=model))
    frame = pw.simulate_trial(design, seed=seed)
    for cut in (8.0, 25.0, 60.0):
        data = cut_data(frame.to_surv_sample(), cut)
        p = event_prob(model, MU, cut - frame.randT[frame.randT <= cut])
        assert abs(data.n_events - p.sum()) <= 4.0 * np.sqrt(np.sum(p * (1.0 - p)))


def test_sim_followup_events_match_closed_form():
    # 20 subjects a month, exactly 10 per arm, each enrolling uniformly in
    # the month: a subject's event by the milestone is Bernoulli with the
    # month's average of event_prob, independently of the others
    rates = {"trt": 0.05, "con": 0.1}
    design = pw.TrialDesign(
        rand_rate=20, total_sample=1000, drop_rate=DROP_RATE,
        groups=(("trt", 1.0), ("con", 1.0)),
        dists={g: pw.ArmModel(event=pw.PweModel((r,))) for g, r in rates.items()},
    )
    at, rep = (10.0, 30.0, 60.0), 100
    res = sim_followup(design, at=at, by_group=True, rep=rep, seed=1)
    enrol = np.arange(50.0)[:, None] + (np.arange(2000) + 0.5) / 2000
    overall = dict(zip(res.overall["at"], res.overall["event"]))
    for j, milestone in enumerate(at):
        mean = var = 0.0
        for g, r in rates.items():
            p = event_prob(pw.PweModel((r,)), MU, milestone - enrol).mean(axis=1)
            (row,) = np.flatnonzero((res.by_group["group"] == g) & (res.by_group["at"] == milestone))
            g_mean, g_var = 10.0 * p.sum(), 10.0 * np.sum(p * (1.0 - p))
            assert abs(res.by_group["event"][row] - g_mean) <= 4.0 * np.sqrt(g_var / rep)
            mean, var = mean + g_mean, var + g_var
        assert abs(overall[milestone] - mean) <= 4.0 * np.sqrt(var / rep)


def _never(n, rng):
    return np.full(n, np.inf)


# three groups in two strata, months with nobody enrolled, and a death model
CELLS_DESIGN = pw.TrialDesign(
    n_rand=(4, 0, 7, 3, 0, 9, 5),
    groups=(("a", 1.0), ("b", 2.0), ("c", 1.5)),
    strata=(("lo", 1.0), ("hi", 3.0)),
    drop_rate=0.02,
    dists={"a": pw.ArmModel(event=pw.PweModel((0.1,))),
           "b": pw.ArmModel(event=pw.PweModel((0.05, 0.2), (4.0,)), death=pw.PweModel((0.01,))),
           "c": pw.ArmModel(event=pw.PweModel((0.3,)))},
)


def test_simulate_trial_pinned_digest():
    """SHA-256 of the groups, strata and event times of CELLS_DESIGN, taken
    when exact allocation scanned every subject once per month: allocation
    over month runs must draw the same numbers in the same order."""
    frame = pw.simulate_trial(CELLS_DESIGN, seed=11)
    h = hashlib.sha256()
    h.update("|".join(frame.group).encode())
    h.update("|".join(frame.stratum).encode())
    h.update(frame.eventT.tobytes())
    assert h.hexdigest() == "6efc5a8beb2e19f81418355a31bee5f1b149e76cebf37830e73cac698164882b"


def _reference_cut(frame, milestone, kind):
    """A milestone's cut, sorting the trial's times once per milestone."""
    if kind == "calendar":
        return float(milestone), True
    if kind == "event":
        k = max(int(round(milestone)), 1)
        ev_abs = np.sort(frame.followT_abs[frame.event == 1])
        if k <= len(ev_abs):
            return float(ev_abs[k - 1]), True
    else:
        k = max(int(round(milestone)), 1)
        rt = np.sort(frame.randT)
        if k <= len(rt):
            return float(rt[k - 1]), True
    finite = frame.followT_abs[np.isfinite(frame.followT_abs)]
    horizon = float(finite.max()) if len(finite) else float(frame.randT.max())
    return horizon, False


def _reference_times(frame, keep, cut, endpoints):
    """Follow-up times of the kept subjects, one endpoint minimum per call."""
    parts = []
    if "cut" in endpoints:
        parts.append(cut - frame.randT[keep])
    if "drop_out" in endpoints:
        parts.append(frame.dropT[keep])
    if "death" in endpoints:
        parts.append(frame.deathT[keep])
    if "event" in endpoints:
        parts.append(frame.eventT[keep])
    out = parts[0]
    for p in parts[1:]:
        out = np.minimum(out, p)
    return out


def _reference_followup(design, at, kind, stats, by_group, rep, seed, endpoints):
    """sim_followup's tables, resolving each (milestone, cell) pair anew."""
    group_names = [g for g, _ in design.groups] if by_group else []
    outs, unreached = [], 0
    for r in range(rep):
        frame = pw.simulate_trial(design, derive_rng(seed, 20, r))
        cells = [np.ones(len(frame), dtype=bool)] + [frame.group == g for g in group_names]
        out = np.empty((len(at), len(cells), 3 + len(stats)))
        for j, milestone in enumerate(at):
            cut, ok = _reference_cut(frame, milestone, kind)
            unreached += 0 if ok else 1
            for c, mask in enumerate(cells):
                keep = mask & (frame.randT <= cut)
                fu = _reference_times(frame, keep, cut, endpoints)
                out[j, c, :3] = cut, np.sum(keep & (frame.event == 1) & (frame.followT_abs <= cut)), keep.sum()
                out[j, c, 3:] = [f(fu) if len(fu) else np.nan for f in stats]
        outs.append(out)
    mean = np.mean(outs, axis=0)
    names = ["analysis_time", "event", "subjects", *(f.__name__ for f in stats)]
    overall = {"at": np.array(at), **dict(zip(names, mean[:, 0].T))}
    groups = None
    if by_group:
        rows = mean[:, 1:].transpose(1, 0, 2).reshape(-1, len(names))
        groups = {"at": np.tile(at, len(group_names)), "group": np.repeat(group_names, len(at)),
                  **dict(zip(names, rows.T))}
    return overall, groups, unreached


def _bytes(table):
    return None if table is None else {k: np.asarray(v).tobytes() for k, v in table.items()}


FOLLOWUP_DESIGNS = {
    "one_cell": pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,)))),
    "cells": CELLS_DESIGN,
    "no_events": pw.TrialDesign(rand_rate=5, total_sample=20, groups=(("t", 1.0), ("c", 1.0)),
                                dists=pw.ArmModel(event=_never, death=pw.PweModel((0.02,)))),
}
# an early cut that leaves groups empty, 0.4 (the first event or subject),
# and counts no trial reaches
REFERENCE_MILESTONES = [0.05, 0.4, 2.5, 7.0, 20.0, 2000.0, 1e6, 1e300]


@pytest.mark.parametrize("kind", FOLLOWUP_TYPES)
@pytest.mark.parametrize("name", FOLLOWUP_DESIGNS)
def test_sim_followup_equals_reference(name, kind):
    """Every table cell, bit for bit, against the per-(milestone, cell)
    algorithm, for each endpoint set, with and without groups."""
    design, stats = FOLLOWUP_DESIGNS[name], [np.mean, np.median, pw.prop_above(3.0)]
    empty_group = False
    for endpoints in [("cut", "drop_out", "death"), ("cut",), ("event",), ("cut", "drop_out", "death", "event")]:
        for by_group in (False, True):
            args = (design, REFERENCE_MILESTONES, kind, stats, by_group, 4, 5, endpoints)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                got = sim_followup(*args[:2], type=kind, stats=stats, by_group=by_group, rep=4, seed=5,
                                   follow_up_endpoint=endpoints)
            overall, groups, unreached = _reference_followup(*args)
            assert got.n_unreached == unreached
            assert _bytes(got.overall) == _bytes(overall)
            assert _bytes(got.by_group) == _bytes(groups)
            if by_group:
                empty_group |= bool(np.isnan(got.by_group["mean"]).any())
    # the cases the comparison is meant to cover do occur
    if kind == "calendar":
        assert empty_group
    else:
        assert unreached >= 4 * 3
    if name == "no_events" and kind == "event":
        assert unreached == 4 * len(REFERENCE_MILESTONES)
