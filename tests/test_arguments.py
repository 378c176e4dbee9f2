"""Every whole-number argument of the public API goes through one check,
``errors._whole(value, name, least)``: a fraction raises "<name> must be a
whole number", a value below ``least`` raises "<name> must be >= <least>",
and ``least`` itself passes as an int, a whole-valued float and a numpy
integer. The table below lists each such argument; a walk over every
module's ``__all__`` fails when a count argument is missing from it."""
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import pwexp as pw
import pwexp.estimation as est
import pwexp.prediction as pr
import pwexp.resampling as rs
import pwexp.simulation as sim
from pwexp.estimation import fit_segmented_line

MODEL = pw.PweModel((0.1, 0.05), (5.0,))
SAMPLE = pw.SurvSample(np.linspace(1.0, 40.0, 40), np.tile([1, 0], 20))
CONFIG = pw.FitConfig(nbreak=0, seed=0)
SNAPSHOT = pw.TrialSnapshot(analysis_time=10.0, n_events=3, enroll_times=[2.0, 6.0])
ARM = pw.ArmModel(event=MODEL)
DESIGN = pw.TrialDesign(rand_rate=5, total_sample=10, dists=ARM)
X = np.linspace(1.0, 10.0, 12)


def _rng():
    return np.random.default_rng(0)


# (owner, parameter, name in the message, least, call with the value)
ARGUMENTS = [
    ("sample", "n", "n", 0, lambda v: pw.sample(MODEL, v, _rng())),
    ("conditional_sample", "n", "n", 0, lambda v: pw.conditional_sample(MODEL, v, 1.0, _rng())),
    ("fit_segmented_line", "npsi", "npsi", 0, lambda v: fit_segmented_line(X, -0.1 * X, v)),
    ("FitConfig", "nbreak", "nbreak", 0, lambda v: pw.FitConfig(nbreak=v)),
    ("FitConfig", "nbreak", "nbreak", 1, lambda v: pw.FitConfig(nbreak=v, fixed_breakpoints=(5.0,))),
    ("FitConfig", "max_set", "max_set", 1, lambda v: pw.FitConfig(max_set=v)),
    ("FitConfig", "min_pt_tail", "min_pt_tail", 1, lambda v: pw.FitConfig(min_pt_tail=v)),
    ("FitConfig", "seed", "seed", 0, lambda v: pw.FitConfig(seed=v)),
    ("boot_fit", "nsim", "nsim", 1, lambda v: pw.boot_fit(SAMPLE, CONFIG, nsim=v, seed=0)),
    ("boot_fit", "seed", "seed", 0, lambda v: pw.boot_fit(SAMPLE, CONFIG, nsim=1, seed=v)),
    ("boot_fit", "threads", "threads", 1, lambda v: pw.boot_fit(SAMPLE, CONFIG, nsim=1, seed=0, threads=v)),
    ("cv_loglik", "nsim", "nsim", 1, lambda v: pw.cv_loglik(SAMPLE, CONFIG, nsim=v, seed=0)),
    ("cv_loglik", "seed", "seed", 0, lambda v: pw.cv_loglik(SAMPLE, CONFIG, nsim=1, seed=v)),
    ("cv_loglik", "threads", "threads", 1, lambda v: pw.cv_loglik(SAMPLE, CONFIG, nsim=1, seed=0, threads=v)),
    ("AccrualPlan", "n_remaining", "n_remaining", 0, lambda v: pw.AccrualPlan(v)),
    ("AccrualPlan", "monthly_counts", "monthly counts", 0, lambda v: pw.AccrualPlan(0, monthly_counts=(2, v))),
    ("TrialSnapshot", "n_events", "n_events", 0, lambda v: pw.TrialSnapshot(10.0, v, [2.0])),
    ("predict_events", "n_each", "n_each", 1, lambda v: pw.predict_events(MODEL, None, SNAPSHOT, v, 0)),
    ("predict_events", "seed", "seed", 0, lambda v: pw.predict_events(MODEL, None, SNAPSHOT, 1, v)),
    ("predict_events", "grid_points", "grid_points", 2,
     lambda v: pw.predict_events(MODEL, None, SNAPSHOT, 1, 0, grid_points=v)),
    ("predict_events", "threads", "threads", 1,
     lambda v: pw.predict_events(MODEL, None, SNAPSHOT, 1, 0, threads=v)),
    ("TrialDesign", "total_sample", "total_sample", 0,
     lambda v: pw.TrialDesign(rand_rate=5, total_sample=v, dists=ARM)),
    ("TrialDesign", "n_rand", "n_rand counts", 0, lambda v: pw.TrialDesign(n_rand=(3, v), dists=ARM)),
    ("simulate_trial", "seed", "seed", 0, lambda v: pw.simulate_trial(DESIGN, v)),
    ("sim_followup", "rep", "rep", 1, lambda v: pw.sim_followup(DESIGN, at=[2.0], rep=v)),
    ("sim_followup", "seed", "seed", 0, lambda v: pw.sim_followup(DESIGN, at=[2.0], rep=1, seed=v)),
    ("sim_followup", "threads", "threads", 1, lambda v: pw.sim_followup(DESIGN, at=[2.0], rep=1, threads=v)),
]
IDS = [f"{owner}.{param}>={least}" for owner, param, _, least, _ in ARGUMENTS]

# parameter names that hold a count, a sample size, a worker count or a seed
COUNT_NAMES = {"n", "nsim", "rep", "n_each", "grid_points", "threads", "seed", "nbreak", "npsi",
               "max_set", "min_pt_tail", "n_remaining", "n_events", "total_sample", "n_rand",
               "monthly_counts"}
# records that the package fills in from checked arguments, not user input
RESULTS = {"PieceTally", "BootFit", "CvResult", "PredictionEnsemble"}


@pytest.mark.parametrize("owner, param, name, least, call", ARGUMENTS, ids=IDS)
def test_below_least_rejected(owner, param, name, least, call):
    with pytest.raises(ValueError, match=f"^{name} must be >= {least}, got {least - 1}$"):
        call(least - 1)


@pytest.mark.parametrize("owner, param, name, least, call", ARGUMENTS, ids=IDS)
def test_fraction_rejected(owner, param, name, least, call):
    with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got {least + 0.5}$"):
        call(least + 0.5)


@pytest.mark.parametrize("owner, param, name, least, call", ARGUMENTS, ids=IDS)
def test_least_accepted_in_every_whole_form(owner, param, name, least, call):
    for value in (least, float(least), np.int64(least)):
        call(value)


def test_every_count_argument_is_in_the_table():
    listed = {(owner, param) for owner, param, *_ in ARGUMENTS}
    missing = set()
    names = ["pwexp", *(f"pwexp.{m.name}" for m in pkgutil.iter_modules(pw.__path__))]
    for module in map(importlib.import_module, names):
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if attr in RESULTS or not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
                continue
            missing |= {(attr, p) for p in inspect.signature(obj).parameters
                        if p in COUNT_NAMES and (attr, p) not in listed}
    assert not missing


class _NoDraws:
    def random(self, *args, **kwargs):
        pytest.fail("a draw ran")


@pytest.mark.parametrize("draw", [
    lambda n, rng: pw.sample(MODEL, n, rng),
    lambda n, rng: pw.conditional_sample(MODEL, n, 1.0, rng),
    lambda n, rng: pw.conditional_sample(MODEL, n, np.ones((2, 1)), rng),
], ids=["sample", "conditional_sample", "conditional_sample_column"])
@pytest.mark.parametrize("n", [2.5, -1, np.nan, "2"])
def test_sampler_n_checked_before_any_draw(draw, n):
    with pytest.raises(ValueError, match="^n must be"):
        draw(n, _NoDraws())


@pytest.mark.parametrize("npsi", [1.5, -1, "1"])
def test_npsi_checked_before_any_fit(monkeypatch, npsi):
    monkeypatch.setattr(est, "_segmented_fits", lambda *a: pytest.fail("a fit ran"))
    monkeypatch.setattr(est, "_explicit_fit", lambda *a: pytest.fail("a fit ran"))
    with pytest.raises(ValueError, match="^npsi must be"):
        fit_segmented_line(X, -0.1 * X, npsi, rng=_NoDraws())


def test_whole_valued_npsi_gives_the_int_fit():
    y = -0.1 * X - 0.2 * np.maximum(X - 4.0, 0.0)
    want = fit_segmented_line(X, y, 1, rng=np.random.default_rng(3))
    assert fit_segmented_line(X, y, 1.0, rng=np.random.default_rng(3)) == want


@pytest.mark.parametrize("resample", [pw.boot_fit, pw.cv_loglik])
@pytest.mark.parametrize("seed", [2.5, -1, "2"])
def test_resampling_seed_checked_before_any_fit(monkeypatch, resample, seed):
    monkeypatch.setattr(rs, "fit", lambda *a: pytest.fail("a fit ran"))
    monkeypatch.setattr(rs, "parallel_map", lambda *a: pytest.fail("replicates ran"))
    with pytest.raises(ValueError, match="^seed must be"):
        resample(SAMPLE, CONFIG, nsim=2, seed=seed)


@pytest.mark.parametrize("seed", [2.5, -1, "2"])
def test_predict_seed_checked_before_any_draw(monkeypatch, seed):
    monkeypatch.setattr(pr, "parallel_map", lambda *a: pytest.fail("draws ran"))
    monkeypatch.setattr(pr, "expected_events", lambda *a: pytest.fail("curves ran"))
    with pytest.raises(ValueError, match="^seed must be"):
        pw.predict_events(MODEL, None, SNAPSHOT, 2, seed)


@pytest.mark.parametrize("seed", [2.5, -1, "2"])
def test_followup_seed_checked_before_any_trial(monkeypatch, seed):
    monkeypatch.setattr(sim, "simulate_trial", lambda *a: pytest.fail("a trial ran"))
    monkeypatch.setattr(sim, "parallel_map", lambda *a: pytest.fail("replicates ran"))
    with pytest.raises(ValueError, match="^seed must be"):
        pw.sim_followup(DESIGN, at=[2.0], rep=2, seed=seed)


@pytest.mark.parametrize("seed", [2.5, -1, "2"])
def test_trial_seed_checked_before_any_draw(monkeypatch, seed):
    monkeypatch.setattr(sim, "derive_rng", lambda *a: pytest.fail("a stream was made"))
    monkeypatch.setattr(sim, "_enrol_months", lambda *a: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match="^seed must be"):
        pw.simulate_trial(DESIGN, seed)


def test_whole_valued_seeds_give_the_int_results():
    frame = lambda s: pw.simulate_trial(DESIGN, s).followT.tobytes()
    assert frame(2.0) == frame(np.int64(2)) == frame(2)
    boot = pw.boot_fit(SAMPLE, CONFIG, nsim=2, seed=2.0)
    assert boot.to_dict() == pw.boot_fit(SAMPLE, CONFIG, nsim=2, seed=2).to_dict()
    assert type(boot.seed) is int and type(pw.FitConfig(seed=np.int64(3)).seed) is int
