import numpy as np
import pytest

import pwexp as pw
from pwexp.errors import NoFeasibleModelError, PwexpError
from pwexp.estimation import FitConfig, fit, loglik
from pwexp.resampling import BootFit, _resample_indices, boot_fit, cv_loglik
from pwexp.rng import derive_rng
from pwexp.survdata import SurvSample

from conftest import make_scenario


@pytest.fixture(scope="module")
def small_train():
    train, _, _ = make_scenario(seed=77)
    idx = np.arange(0, len(train), 2)  # thin for speed
    return train.subset(idx)


class TestBootFit:
    def test_identity_resample_reproduces_fit(self, monkeypatch, small_train):
        monkeypatch.setattr(
            "pwexp.resampling._resample_indices", lambda rng, n: np.arange(n)
        )
        cfg = FitConfig(fixed_breakpoints=(5.0, 14.0), seed=1)
        bf = boot_fit(small_train, cfg, nsim=1, seed=3)
        ref = fit(small_train, cfg)
        assert bf.replicates[0].model == ref.model
        assert bf.replicates[0].loglik == ref.loglik

    def test_breakpoint_band_covers_truth(self, small_train):
        cfg = FitConfig(nbreak=2, optimizer="hybrid", seed=1)
        bf = boot_fit(small_train, cfg, nsim=40, seed=5, threads=2)
        b1 = bf.breakpoint_matrix()[:, 0]
        lo, hi = np.quantile(b1, [0.025, 0.975])
        assert lo <= 5.0 <= hi

    def test_degenerate_data_errors(self):
        d = SurvSample(np.full(30, 3.0), np.ones(30, dtype=int))
        with pytest.raises(NoFeasibleModelError):
            boot_fit(d, FitConfig(nbreak=2, optimizer="hybrid", seed=0), nsim=4, seed=1)

    def test_thin_resamples_recorded_as_failures(self):
        # 4 events among 20 subjects: about 13% of resamples hold no event
        # or a single distinct event time, too few for one change-point
        d = SurvSample(
            np.concatenate([[1.0, 2.0, 3.0, 4.0], np.linspace(0.5, 10.0, 16)]),
            np.concatenate([np.ones(4, dtype=int), np.zeros(16, dtype=int)]),
        )
        cfg = FitConfig(nbreak=1, optimizer="bfs", min_pt_tail=1, seed=0)
        nsim = 40
        bf = boot_fit(d, cfg, nsim=nsim, seed=0)
        thin = []
        for b in range(nsim):
            idx = _resample_indices(derive_rng(0, 1, b), len(d))
            if len(np.unique(d.time[idx][d.event[idx] == 1])) <= cfg.nbreak:
                thin.append(b)
        assert thin
        assert [f.split(":")[0] for f in bf.failures] == [f"replicate {b}" for b in thin]
        assert all("observed event" in f or "distinct event times" in f for f in bf.failures)
        assert len(bf.replicates) + len(bf.failures) == nsim

    def test_value_error_propagates(self, monkeypatch, small_train):
        # a bug inside a replicate is not an infeasible resample
        def fit_then_fail(data, config, threads=1):
            if data is small_train:
                return fit(data, config)
            raise ValueError("planted bug")

        monkeypatch.setattr("pwexp.resampling.fit", fit_then_fail)
        with pytest.raises(ValueError, match="planted bug"):
            boot_fit(small_train, FitConfig(nbreak=0, seed=0), nsim=3, seed=1)

    def test_deterministic_across_threads(self, small_train):
        cfg = FitConfig(nbreak=1, optimizer="hybrid", seed=2)
        a = boot_fit(small_train, cfg, nsim=6, seed=11, threads=1)
        b = boot_fit(small_train, cfg, nsim=6, seed=11, threads=3)
        for ra, rb in zip(a.replicates, b.replicates):
            assert ra.model == rb.model
            assert ra.loglik == rb.loglik

    def test_replicates_independent_of_nsim(self, small_train):
        # replicate b depends only on (seed, b), so prefixes agree
        cfg = FitConfig(nbreak=1, optimizer="hybrid", seed=2)
        a = boot_fit(small_train, cfg, nsim=3, seed=11)
        b = boot_fit(small_train, cfg, nsim=6, seed=11)
        for ra, rb in zip(a.replicates, b.replicates[:3]):
            assert ra.model == rb.model

    def test_json_roundtrip(self, tmp_path, small_train):
        cfg = FitConfig(nbreak=1, optimizer="hybrid", seed=2)
        bf = boot_fit(small_train, cfg, nsim=4, seed=11)
        path = tmp_path / "boot.json"
        bf.save_json(path)
        back = BootFit.load_json(path)
        assert back.nsim == bf.nsim and back.seed == bf.seed
        assert [r.model for r in back.replicates] == [r.model for r in bf.replicates]
        assert back.base.to_dict() == bf.base.to_dict()
        assert back.failures == bf.failures
        assert back.to_dict() == bf.to_dict()

    def test_json_without_base_and_failures_loads(self, small_train):
        cfg = FitConfig(nbreak=1, optimizer="hybrid", seed=2)
        d = boot_fit(small_train, cfg, nsim=2, seed=11).to_dict()
        del d["base"], d["failures"]
        back = BootFit.from_dict(d)
        assert back.base is None and back.failures == []
        assert len(back.replicates) == 2

    def test_interval_width_shrinks_with_n(self):
        widths = {}
        for n, seed in ((250, 101), (4000, 102)):
            design = pw.TrialDesign(
                rand_rate=20 * n / 1000,
                total_sample=n,
                drop_rate=0.03,
                dists=pw.ArmModel(event=pw.PweModel((0.1, 0.01, 0.2), (5.0, 14.0))),
            )
            frame = pw.simulate_trial(design, seed=seed)
            cut = float(np.quantile(frame.randT, 0.8))
            train = pw.cut_data(frame.to_surv_sample(), cut)
            bf = boot_fit(train, FitConfig(nbreak=2, optimizer="hybrid", seed=1),
                          nsim=20, seed=7, threads=2)
            b1 = bf.breakpoint_matrix()[:, 0]
            lo, hi = np.quantile(b1, [0.025, 0.975])
            widths[n] = hi - lo
        assert widths[4000] < widths[250]


class TestCvLoglik:
    def test_vector_length(self, small_train):
        cv = cv_loglik(small_train, FitConfig(nbreak=0, seed=0), nsim=12, seed=4)
        assert len(cv.values) == 12
        assert np.all(np.isfinite(cv.values))

    def test_true_model_beats_wrong_model(self, small_train):
        # same splits via the shared seed; the 2-piece truth should win
        # on nearly every repetition
        cfg_true = FitConfig(fixed_breakpoints=(5.0, 14.0), seed=0)
        cfg_exp = FitConfig(nbreak=0, seed=0)
        cv_true = cv_loglik(small_train, cfg_true, nsim=100, seed=6, threads=2)
        cv_exp = cv_loglik(small_train, cfg_exp, nsim=100, seed=6, threads=2)
        assert np.mean(cv_true.values > cv_exp.values) >= 0.90

    def test_deterministic_across_threads(self, small_train):
        cfg = FitConfig(nbreak=1, optimizer="hybrid", seed=2)
        a = cv_loglik(small_train, cfg, nsim=8, seed=13, threads=1)
        b = cv_loglik(small_train, cfg, nsim=8, seed=13, threads=3)
        assert np.array_equal(a.values, b.values)

    def test_csv_output(self, tmp_path, small_train):
        cv = cv_loglik(small_train, FitConfig(nbreak=0, seed=0), nsim=5, seed=4)
        path = tmp_path / "cv.csv"
        cv.save_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "cv_loglik"
        assert len(lines) == 6

    def test_too_few_events_rejected(self):
        d = SurvSample([1.0, 2.0, 3.0], [1, 1, 0])
        with pytest.raises(ValueError):
            cv_loglik(d, FitConfig(nbreak=2, optimizer="hybrid", seed=0), nsim=2, seed=0)

    def test_all_failed_names_the_reason(self):
        # 6 distinct event times pass the up-front guard, but a split holds
        # out one event and fit_ols needs 6 KM steps
        d = SurvSample(np.arange(1.0, 21.0), np.repeat([1, 0], [6, 14]))
        cfg = FitConfig(nbreak=2, optimizer="hybrid", seed=0)
        with pytest.raises(NoFeasibleModelError, match="positive-survival event steps") as err:
            cv_loglik(d, cfg, nsim=3, seed=0)
        assert isinstance(err.value, PwexpError)
        assert "repetition 0" in str(err.value)

    @pytest.mark.parametrize("optimizer", ["ols", "hybrid"])
    def test_too_few_event_times_rejected_before_any_fit(self, monkeypatch, optimizer):
        calls = []
        monkeypatch.setattr("pwexp.resampling.fit", lambda *a: calls.append(a))
        d = SurvSample(np.arange(1.0, 21.0), np.repeat([1, 0], [5, 15]))
        cfg = FitConfig(nbreak=2, optimizer=optimizer, seed=0)
        with pytest.raises(NoFeasibleModelError, match="needs at least 6 distinct event times"):
            cv_loglik(d, cfg, nsim=3, seed=0)
        assert calls == []

    def test_event_time_guard_spares_bfs(self):
        # the same sample, which bfs can fit: the guard is for the OLS search
        d = SurvSample(np.arange(1.0, 21.0), np.repeat([1, 0], [5, 15]))
        cv = cv_loglik(d, FitConfig(nbreak=2, optimizer="bfs", min_pt_tail=1, seed=0), nsim=2, seed=0)
        assert len(cv.values) == 2

    def test_event_time_guard_counts_searched_breakpoints_only(self):
        # 4 event times are enough for the one searched change-point, so the
        # fits run (and fail, since fit() keeps the fixed one here)
        d = SurvSample(np.arange(1.0, 21.0), np.repeat([1, 0], [4, 16]))
        cfg = FitConfig(nbreak=2, fixed_breakpoints=(2.5,), optimizer="hybrid", seed=0)
        with pytest.raises(NoFeasibleModelError, match="every cross-validation repetition failed"):
            cv_loglik(d, cfg, nsim=2, seed=0)

    def test_value_error_propagates(self, monkeypatch, small_train):
        def fail(data, config, threads=1):
            raise ValueError("planted bug")

        monkeypatch.setattr("pwexp.resampling.fit", fail)
        with pytest.raises(ValueError, match="planted bug"):
            cv_loglik(small_train, FitConfig(nbreak=0, seed=0), nsim=2, seed=0)

    def test_heldout_value_matches_manual_split(self, small_train, monkeypatch):
        # pin the split, then the value must equal loglik(fit(train), test)
        mask = np.zeros(len(small_train), dtype=bool)
        mask[::5] = True
        monkeypatch.setattr(
            "pwexp.resampling._stratified_split", lambda rng, data, frac, k: mask
        )
        cfg = FitConfig(fixed_breakpoints=(5.0, 14.0), seed=0)
        cv = cv_loglik(small_train, cfg, nsim=1, seed=9)
        ref = loglik(fit(small_train.subset(~mask), cfg).model, small_train.subset(mask))
        assert cv.values[0] == ref
