import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pwexp as pw
from pwexp.simulation import _allocate_exact, sim_followup
from pwexp.survdata import SurvSample, cut_data

DESIGN_KW = dict(rand_rate=10, total_sample=60, drop_rate=0.03)


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


class TestSimFollowupThreads:
    def test_lambda_hook_rejected_before_pool(self, monkeypatch):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=lambda n, rng: rng.exponential(10.0, n)))
        monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
        with pytest.raises(ValueError, match="module-level callables"):
            sim_followup(design, at=[5.0], rep=2, seed=0, threads=2)

    def test_lambda_statistic_rejected_before_pool(self, monkeypatch):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=pw.PweModel((0.1,))))
        monkeypatch.setattr("pwexp.simulation.parallel_map", _no_pool)
        with pytest.raises(ValueError, match="module-level callables"):
            sim_followup(design, at=[5.0], stats=[lambda x: 0.0], rep=2, seed=0, threads=2)

    def test_lambda_hook_runs_serially(self):
        design = pw.TrialDesign(**DESIGN_KW, dists=pw.ArmModel(event=lambda n, rng: rng.exponential(10.0, n)))
        res = sim_followup(design, at=[5.0], stats=[np.mean], rep=2, seed=0, threads=1)
        assert res.overall[0]["subjects"] == 50.0


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


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=12),
    st.lists(st.floats(0.1, 10.0), min_size=1, max_size=5),
    st.integers(0, 2**32 - 1),
)
# three cells each owed just over one subject in a month of two, while two
# small cells sit above their quota
@example(per_month=[1, 1, 27, 30, 30, 2], weights=[7.0, 7.0, 7.0, 0.109375, 0.109375], seed=0)
def test_allocate_exact_rounds_every_month_quota(per_month, weights, seed):
    # each month hands out exactly its subjects by largest-remainder
    # rounding of what every cell is owed: the floor or the ceiling of it
    # when the floors fit in the month, at most the floor when they do not
    month = np.repeat(np.arange(len(per_month), dtype=float), per_month)
    w = np.array(weights)
    cell = _allocate_exact(month, w, np.random.default_rng(seed))
    assert cell.shape == month.shape and set(cell.tolist()) <= set(range(len(w)))
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
