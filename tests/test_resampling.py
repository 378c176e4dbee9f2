import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

import pwexp as pw
from pwexp.errors import EmptyPieceError, NoFeasibleModelError, PwexpError
from pwexp.estimation import FitConfig, _fit_batch, fit, loglik
import pwexp.estimation as est
import pwexp.resampling as rs
from pwexp.resampling import BootFit, _resample_indices, _stratified_split, boot_fit, cv_loglik
from pwexp.rng import derive_rng, derive_seed
from pwexp.survdata import SurvSample

from conftest import make_scenario


def thin_sample(n_events, n_censored):
    """Events at 1, 2, ..., ``n_events`` among censorings spread over 0.5-30:
    some resamples hold too few distinct event times for the model."""
    return SurvSample(
        np.concatenate([np.arange(1.0, n_events + 1.0), np.linspace(0.5, 30.0, n_censored)]),
        np.repeat([1, 0], [n_events, n_censored]),
    )


def tied_sample():
    """8 events at 7 distinct times: holding out two singletons leaves 5
    event times, too few KM steps for 2 change-points, so CV splits fail and
    are redrawn."""
    return SurvSample(
        np.concatenate([np.arange(1.0, 8.0), [7.0], np.linspace(8.5, 30.0, 16)]),
        np.concatenate([np.ones(8, dtype=int), np.zeros(16, dtype=int)]),
    )


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

    def test_more_than_half_failed_raises(self):
        # 3 events among 30 subjects: a resample misses one of them about
        # three times in four, leaving too few distinct event times for 2
        # change-points, while the original sample fits
        d = thin_sample(3, 27)
        cfg = FitConfig(nbreak=2, optimizer="bfs", min_pt_tail=1, seed=0)
        fit(d, cfg)
        with pytest.raises(NoFeasibleModelError, match="^1[1-9] of 20 bootstrap replicates failed to fit$"):
            boot_fit(d, cfg, nsim=20, seed=1)

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

    def test_rate_and_breakpoint_matrices(self):
        # 5 of 12 resamples are too thin for 2 change-points
        bf = boot_fit(thin_sample(9, 16), FitConfig(nbreak=2, optimizer="hybrid", min_pt_tail=1, seed=0),
                      nsim=12, seed=3)
        n = len(bf.replicates)
        assert bf.failures and n + len(bf.failures) == 12
        rates, breaks = bf.rate_matrix(), bf.breakpoint_matrix()
        assert rates.shape == (n, 3) and breaks.shape == (n, 2)
        assert rates.dtype == breaks.dtype == np.float64
        for rate_row, break_row, rep in zip(rates, breaks, bf.replicates):
            assert tuple(rate_row) == rep.model.rates
            assert tuple(break_row) == rep.model.breakpoints

    def test_value_error_propagates(self, monkeypatch, small_train):
        # a bug inside a replicate is not an infeasible resample
        def batch_fails(build, items):
            raise ValueError("planted bug")

        monkeypatch.setattr("pwexp.resampling._fit_batch", batch_fails)
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

    @pytest.mark.parametrize("edit, message", [
        ({"nsim": 2.5}, "bad 'nsim' field: nsim must be a whole number, got 2.5"),
        ({"nsim": 0}, "bad 'nsim' field: nsim must be >= 1, got 0"),
        ({"seed": -1}, "bad 'seed' field: seed must be >= 0, got -1"),
        ({"seed": "11"}, "bad 'seed' field: seed must be a whole number, got '11'"),
        ({"replicates": 5}, "bad 'replicates' field: expected a list, got int"),
        ({"replicates": [{}]}, "bad 'replicates' field: record has no 'rates' field"),
        ({"base": {"rates": 5}}, "bad 'base' field: bad 'rates' field: expected a list"),
        ({"failures": "none"}, "bad 'failures' field: expected a list, got str"),
        ({"nsim": 1}, "bad 'nsim' field: 2 replicates and 0 failures exceed nsim 1"),
        ({"failures": ["replicate 2: no events"]}, "bad 'nsim' field: 2 replicates and 1 failures exceed nsim 2"),
    ])
    def test_reader_names_a_bad_field(self, small_train, edit, message):
        d = boot_fit(small_train, FitConfig(nbreak=0, seed=2), nsim=2, seed=11).to_dict()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            BootFit.from_dict({**d, **edit})

    @pytest.mark.parametrize("name", ["replicates", "nsim", "seed"])
    def test_reader_names_a_missing_field(self, small_train, name):
        d = boot_fit(small_train, FitConfig(nbreak=0, seed=2), nsim=2, seed=11).to_dict()
        del d[name]
        with pytest.raises(ValueError, match=f"record has no '{name}' field"):
            BootFit.from_dict(d)

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


@pytest.mark.parametrize("resample", [boot_fit, cv_loglik])
class TestNsimArgument:
    def test_fractional_nsim_rejected(self, monkeypatch, small_train, resample):
        monkeypatch.setattr("pwexp.resampling.parallel_map", lambda *a: pytest.fail("replicates ran"))
        for nsim in (2.5, np.nan, "3"):
            with pytest.raises(ValueError, match="nsim must be a whole number"):
                resample(small_train, FitConfig(nbreak=0, seed=0), nsim=nsim, seed=1)

    def test_whole_valued_nsim_recorded_as_int(self, small_train, resample):
        for nsim in (3.0, np.int64(3)):
            res = resample(small_train, FitConfig(nbreak=0, seed=0), nsim=nsim, seed=1)
            assert res.nsim == 3 and type(res.nsim) is int


@pytest.mark.parametrize("resample", [boot_fit, cv_loglik])
class TestThreadsArgument:
    @pytest.mark.parametrize("threads", [0, -1, 2.5, np.nan, "2"])
    def test_rejected_before_any_fit(self, monkeypatch, small_train, resample, threads):
        monkeypatch.setattr("pwexp.resampling.fit", lambda *a: pytest.fail("a fit ran"))
        monkeypatch.setattr("pwexp.resampling.parallel_map", lambda *a: pytest.fail("replicates ran"))
        with pytest.raises(ValueError, match="threads must be"):
            resample(small_train, FitConfig(nbreak=0, seed=0), nsim=2, seed=1, threads=threads)

    def test_whole_valued_threads_accepted(self, small_train, resample):
        cfg = FitConfig(nbreak=0, seed=0)
        result = lambda r: r.to_dict() if isinstance(r, BootFit) else r.values.tobytes()
        want = result(resample(small_train, cfg, nsim=2, seed=1))
        for threads in (1.0, np.int64(1)):
            assert result(resample(small_train, cfg, nsim=2, seed=1, threads=threads)) == want


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

    def test_infinite_time_rejected(self):
        # uncut data: repetitions carry no censor reason to excuse an Inf
        d = SurvSample([1.0, 2.0, np.inf, 3.0, 4.0, 5.0], [1, 1, 0, 1, 1, 0],
                       censor_reason=[None, None, "never_event", None, None, None])
        with pytest.raises(ValueError, match="finite follow-up times"):
            cv_loglik(d, FitConfig(nbreak=0, seed=0), nsim=2, seed=0)

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
        monkeypatch.setattr("pwexp.resampling._fit_batch", lambda *a: calls.append(a))
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
        def batch_fails(build, items):
            raise ValueError("planted bug")

        monkeypatch.setattr("pwexp.resampling._fit_batch", batch_fails)
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


def reference_boot(data, cfg, nsim, seed):
    """``boot_fit``'s replicates as one :func:`fit` per resample, with every
    column of the sample: (fits, failures)."""
    fits, failures = [], []
    for b in range(nsim):
        idx = _resample_indices(derive_rng(seed, 1, b), len(data))
        try:
            fits.append(fit(data.subset(idx), replace(cfg, seed=derive_seed(seed, 2, b))))
        except (EmptyPieceError, NoFeasibleModelError) as exc:
            failures.append(f"replicate {b}: {exc}")
    return fits, failures


def reference_cv(data, cfg, nsim, seed, frac=0.2):
    """``cv_loglik``'s repetitions as one :func:`fit` per split: (values,
    number failed, draws used by each repetition)."""
    values, n_failed, draws = [], 0, []
    for i in range(nsim):
        rng = derive_rng(seed, 3, i)
        for attempt in range(6):
            mask = _stratified_split(rng, data.event, frac, cfg.nbreak + 1)
            try:
                res = fit(data.subset(~mask), replace(cfg, seed=derive_seed(seed, 4, i, attempt)))
            except (EmptyPieceError, NoFeasibleModelError):
                continue
            values.append(loglik(res.model, data.subset(mask)))
            break
        else:
            n_failed += 1
        draws.append(attempt + 1)
    return values, n_failed, draws


def fingerprint(res) -> str:
    """Everything a fit reports, bit for bit (repr keeps NaN comparable)."""
    return repr((res.to_dict(), res.diagnostics))


def assert_boot_matches_fits(data, cfg, nsim, seed):
    bf = boot_fit(data, cfg, nsim=nsim, seed=seed)
    fits, failures = reference_boot(data, cfg, nsim, seed)
    assert [fingerprint(r) for r in bf.replicates] == [fingerprint(r) for r in fits]
    assert bf.failures == failures
    return bf


def assert_cv_matches_fits(data, cfg, nsim, seed):
    cv = cv_loglik(data, cfg, nsim=nsim, seed=seed)
    values, n_failed, draws = reference_cv(data, cfg, nsim, seed)
    assert cv.values.tobytes() == np.array(values).tobytes()
    assert cv.n_failed == n_failed
    assert cv.nsim == len(cv.values) + cv.n_failed == nsim
    return cv, draws


OPTIMIZERS = ["bfs", "ols", "hybrid"]


class TestBatchMatchesSingleFits:
    """Replicates are fitted in batches; each must be the single fit."""

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_fixed_breakpoint_cleaned_in_some_resamples(self, optimizer):
        # a fixed change-point between the two largest event times is
        # dropped in resamples without the last event, so one batch mixes
        # fits with and without a fixed ramp
        data, _, _ = make_scenario(seed=2, n=300)
        cfg = FitConfig(nbreak=2, fixed_breakpoints=(6.664,), optimizer=optimizer, min_pt_tail=1, seed=2)
        bf = assert_boot_matches_fits(data, cfg, nsim=8, seed=2)
        dropped = [any("dropped" in w for w in r.warnings) for r in bf.replicates]
        assert any(dropped) and not all(dropped)
        assert_cv_matches_fits(data, cfg, nsim=4, seed=2)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_failing_replicate_inside_a_batch(self, optimizer):
        # some resamples hold too few distinct event times: 2 for bfs, 4
        # (KM steps) for the OLS search
        n_events, n_censored = (4, 16) if optimizer == "bfs" else (8, 12)
        data = SurvSample(
            np.concatenate([np.arange(1.0, n_events + 1.0), np.linspace(0.5, 30.0, n_censored)]),
            np.repeat([1, 0], [n_events, n_censored]),
        )
        cfg = FitConfig(nbreak=1, optimizer=optimizer, min_pt_tail=1, seed=0)
        bf = assert_boot_matches_fits(data, cfg, nsim=12, seed=3)
        failed = [int(f.split(":")[0].split()[1]) for f in bf.failures]
        assert failed and 0 < min(failed) and max(failed) < 11

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_grid_fallback_and_unconverged_starts(self, optimizer):
        data, _, _ = make_scenario(seed=1, n=300)
        for nbreak in (1, 2):
            cfg = FitConfig(nbreak=nbreak, optimizer=optimizer, seed=1)
            bf = assert_boot_matches_fits(data, cfg, nsim=8, seed=1)
            assert_cv_matches_fits(data, cfg, nsim=4, seed=1)
            if optimizer == "bfs":
                continue
            assert any(any("grid fallback" in w for w in r.warnings) for r in bf.replicates)
            if nbreak == 1:  # a replicate where no start converges
                assert any(r.diagnostics["segmented_starts_converged"] == 0 for r in bf.replicates)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_redrawn_split(self, optimizer):
        # 8 events at 7 distinct times: holding out two singletons leaves 5
        # event times, too few KM steps for 2 change-points, so splits fail
        # and are redrawn
        data = SurvSample(
            np.concatenate([np.arange(1.0, 8.0), [7.0], np.linspace(8.5, 30.0, 16)]),
            np.concatenate([np.ones(8, dtype=int), np.zeros(16, dtype=int)]),
        )
        cfg = FitConfig(nbreak=2, optimizer=optimizer, min_pt_tail=1, seed=0)
        _, draws = assert_cv_matches_fits(data, cfg, nsim=6, seed=2)
        if optimizer != "bfs":
            assert max(draws) > 1

    def test_nsim_counts_failed_repetitions(self):
        # tied event times: some repetitions find no feasible split in six
        # draws, the others score
        data = SurvSample([2, 2, 1, 4, 2, 4, 4, 13, 6, 1, 1, 9, 2, 14, 13, 8, 5, 17, 6, 5, 5, 8, 4, 4],
                          [0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0])
        cfg = FitConfig(nbreak=2, optimizer="hybrid", min_pt_tail=1, seed=0)
        cv, _ = assert_cv_matches_fits(data, cfg, nsim=4, seed=1)
        assert 0 < cv.n_failed < cv.nsim

    @pytest.mark.parametrize("optimizer", ["ols", "hybrid"])
    def test_independent_of_block_size_and_threads(self, monkeypatch, optimizer):
        # bootstraps with and without failing replicates, CV with and
        # without redrawn splits
        scenario, _, _ = make_scenario(seed=5, n=300)
        cfg = FitConfig(nbreak=2, optimizer=optimizer, seed=5)
        boots = [(scenario, cfg, 7, 3),
                 (thin_sample(9, 16), FitConfig(nbreak=2, optimizer=optimizer, min_pt_tail=1, seed=0), 12, 3)]
        cvs = [(scenario, cfg, 5, 3),
               (tied_sample(), FitConfig(nbreak=2, optimizer=optimizer, min_pt_tail=1, seed=0), 6, 2)]
        want_boot = [boot_fit(d, c, nsim=n, seed=s).to_dict() for d, c, n, s in boots]
        want_cv = [cv_loglik(d, c, nsim=n, seed=s).values.tobytes() for d, c, n, s in cvs]
        assert want_boot[1]["failures"] and len(want_boot[1]["replicates"]) > 6
        assert max(reference_cv(*cvs[1][:2], nsim=6, seed=2)[2]) > 1
        for block in (1, 3, est._BLOCK, 32):
            monkeypatch.setattr("pwexp.estimation._BLOCK", block)
            for threads in (1, 2, 3):
                for (d, c, n, s), want in zip(boots, want_boot):
                    assert boot_fit(d, c, nsim=n, seed=s, threads=threads).to_dict() == want
                for (d, c, n, s), want in zip(cvs, want_cv):
                    assert cv_loglik(d, c, nsim=n, seed=s, threads=threads).values.tobytes() == want

    def test_value_error_in_one_sample_propagates(self):
        # an infinite time is a bad argument, not an infeasible sample
        good, _, _ = make_scenario(seed=1, n=300)
        bad = SurvSample([1.0, np.inf, 2.0], [1, 0, 1], censor_reason=[None, "never_event", None])
        cfg = FitConfig(nbreak=1, optimizer="hybrid", seed=0)
        with pytest.raises(ValueError, match="finite follow-up times"):
            list(_fit_batch(lambda s: s, [(good, cfg), (bad, cfg), (good, cfg)]))

    def test_keys_in_input_order_from_a_generator(self, monkeypatch):
        # blocks of 3 mix fits that finish before the lockstep (bfs,
        # fixed-only, failed) with ones that finish after it
        monkeypatch.setattr("pwexp.estimation._BLOCK", 3)
        samples = {"good": make_scenario(seed=1, n=300)[0], "thin": thin_sample(2, 10)}
        configs = [FitConfig(nbreak=2, optimizer="hybrid", seed=0), FitConfig(nbreak=1, optimizer="bfs", seed=0),
                   FitConfig(nbreak=1, optimizer="ols", seed=0), FitConfig(fixed_breakpoints=(5.0,))]
        keys = [(name, j) for j in range(len(configs)) for name in samples]
        got = list(_fit_batch(lambda key: samples[key[0]], ((key, configs[key[1]]) for key in keys)))
        assert [key for key, _ in got] == keys
        kinds = set()
        for (name, j), res in got:
            try:
                want = fit(samples[name], configs[j])
            except (EmptyPieceError, NoFeasibleModelError) as exc:
                want = exc
            kinds.add(type(want))
            if isinstance(want, Exception):
                assert (type(res), str(res)) == (type(want), str(want))
            else:
                assert fingerprint(res) == fingerprint(want)
        assert kinds == {est.FitResult, NoFeasibleModelError}

    def test_finish_failure_stays_with_its_item(self):
        # an exclude_int covering every event time passes the checks and the
        # lockstep, then fails the grid fallback when the fit is finished
        good, _, _ = make_scenario(seed=1, n=300)
        configs = [FitConfig(nbreak=1, optimizer=opt, exclude_int=ex, seed=0)
                   for opt in ("ols", "hybrid") for ex in (None, (0.0, np.inf))]
        for cfg in configs[1::2]:
            est._start_search(good, cfg)
        got = list(_fit_batch(lambda key: good, enumerate(configs)))
        assert [key for key, _ in got] == list(range(len(configs)))
        for (_, res), cfg in zip(got, configs):
            if cfg.exclude_int is None:
                assert fingerprint(res) == fingerprint(fit(good, cfg))
            else:
                assert isinstance(res, NoFeasibleModelError) and res.__traceback__ is None
                assert str(res).startswith("need at least 1 candidate event times")


class TestWaitingReplicatesHoldNoSample:
    """A replicate waiting for its block's segmented lockstep holds its
    regression inputs, not its sample: the sample is drawn again to finish
    the fit. CV draws its splits as the blocks need them."""

    @staticmethod
    def track(monkeypatch):
        """Weak references to every sample that resampling builds, and the
        number of problems of each lockstep, which checks that none of those
        samples is alive when it runs."""
        samples, locksteps = [], []

        def tracked(*args, **kwargs):
            sample = SurvSample(*args, **kwargs)
            samples.append(weakref.ref(sample))
            return sample

        lockstep = est._segmented_fits

        def checked(problems):
            alive = [i for i, ref in enumerate(samples) if ref() is not None]
            assert not alive, f"samples {alive} alive in the lockstep"
            locksteps.append(len(problems))
            return lockstep(problems)

        monkeypatch.setattr("pwexp.resampling.SurvSample", tracked)
        monkeypatch.setattr("pwexp.estimation._segmented_fits", checked)
        return samples, locksteps

    @pytest.mark.parametrize("optimizer", ["ols", "hybrid"])
    def test_no_replicate_sample_alive_in_the_lockstep(self, monkeypatch, optimizer):
        samples, locksteps = self.track(monkeypatch)
        cfg = FitConfig(nbreak=2, optimizer=optimizer, min_pt_tail=1, seed=0)
        scenario, _, _ = make_scenario(seed=5, n=300)
        bf = boot_fit(thin_sample(9, 16), cfg, nsim=12, seed=3)  # failing replicates
        # the base fit, then the replicates that reach a lockstep (the
        # thinnest fail before it)
        assert bf.failures and locksteps[0] == 1
        assert len(bf.replicates) <= sum(locksteps[1:]) < 12
        boot_fit(scenario, replace(cfg, min_pt_tail=5), nsim=12, seed=3)
        cv_loglik(tied_sample(), cfg, nsim=6, seed=2)  # redrawn splits
        cv_loglik(scenario, replace(cfg, min_pt_tail=5), nsim=6, seed=3)
        assert max(locksteps) == min(12, est._BLOCK) and len(samples) > 2 * 12

    def test_a_list_of_samples_is_caught(self, monkeypatch):
        # the check is not vacuous: samples passed as keys in a list stay alive
        samples, _ = self.track(monkeypatch)
        scenario, _, _ = make_scenario(seed=5, n=300)
        batch = [rs.SurvSample(scenario.time[::2], scenario.event[::2]) for _ in range(2)]
        cfg = FitConfig(nbreak=2, optimizer="hybrid", seed=0)
        with pytest.raises(AssertionError, match="alive in the lockstep"):
            list(_fit_batch(lambda sample: sample, [(sample, cfg) for sample in batch]))

    def test_cv_holds_one_block_of_splits(self, monkeypatch):
        # 25 repetitions in blocks of 4: a run's splits drawn up front would
        # all be alive in every lockstep
        masks, alive = [], []
        split, lockstep = rs._stratified_split, est._segmented_fits

        def tracked(*args):
            mask = split(*args)
            masks.append(weakref.ref(mask))
            return mask

        def checked(problems):
            alive.append(sum(ref() is not None for ref in masks))
            return lockstep(problems)

        monkeypatch.setattr("pwexp.resampling._stratified_split", tracked)
        monkeypatch.setattr("pwexp.estimation._segmented_fits", checked)
        monkeypatch.setattr("pwexp.estimation._BLOCK", 4)
        scenario, _, _ = make_scenario(seed=5, n=300)
        cv_loglik(scenario, FitConfig(nbreak=2, optimizer="hybrid", seed=5), nsim=25, seed=3)
        assert len(masks) >= 25 and len(alive) >= 7
        assert max(alive) <= 4, alive
