"""The ``pwexp`` command line, run in-process, against the library calls it
wraps, and the CSV cell format shared by every table it writes."""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pwexp as pw
from pwexp import distribution as dist
from pwexp import survdata
from pwexp.cli import build_parser, main
from pwexp.survdata import read_survival_csv, write_table

from conftest import assert_same_sample, reference_read_survival_csv

SEED = 11
CUT = 20.0
DESIGN_ARGS = [
    "--rand_rate", "20", "--total_sample", "600", "--groups", "trt=1,con=1",
    "--event", "trt=0.05,0.02@6", "--event", "con=0.1", "--drop_rate", "0.03",
    "--seed", str(SEED),
]
# the library twin of DESIGN_ARGS; no death model, so every deathT is Inf
DESIGN = pw.TrialDesign(
    rand_rate=20,
    total_sample=600,
    groups=(("trt", 1.0), ("con", 1.0)),
    dists={
        "trt": pw.ArmModel(event=pw.PweModel((0.05, 0.02), (6.0,))),
        "con": pw.ArmModel(event=pw.PweModel((0.1,))),
    },
    drop_rate=0.03,
)
CALENDAR = dict(time_col="followT", event_col="event", rand_time_col="randT",
                follow_abs_time_col="followT_abs", censor_reason_col="censor_reason",
                id_col="ID")


def _columns(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {name: [r[name] for r in rows] for name in rows[0]}


def _floats(cells) -> np.ndarray:
    return np.array([np.nan if c == "NA" else float(c) for c in cells])


def _header(path) -> bytes:
    return path.read_bytes().split(b"\r\n", 1)[0]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["simulate", *DESIGN_ARGS, "--out", str(d / "trial.csv")]) == 0
    assert main(["cut", "--in", str(d / "trial.csv"), "--cut", str(CUT),
                 "--out", str(d / "cut.csv")]) == 0
    return d


@pytest.fixture(scope="module")
def cut_sample(workdir) -> pw.SurvSample:
    return read_survival_csv(workdir / "cut.csv", **CALENDAR)


def test_simulate_matches_simulate_trial(workdir):
    path = workdir / "trial.csv"
    frame = pw.simulate_trial(DESIGN, SEED)
    assert _header(path) == (b"ID,randT,eventT,dropT,deathT,censor_reason,event,"
                             b"followT,followT_abs,censor,group,stratum")
    back = read_survival_csv(path, **CALENDAR)
    ref = frame.to_surv_sample()
    assert np.array_equal(back.time, ref.time)
    assert np.array_equal(back.rand_time, ref.rand_time)
    assert np.array_equal(back.follow_abs_time, ref.follow_abs_time)
    assert np.array_equal(back.event, ref.event)
    assert list(back.censor_reason) == list(ref.censor_reason)
    assert [int(i) for i in back.ids] == list(frame.id)
    cols = _columns(path)
    assert np.isinf(frame.deathT).all() and set(cols["deathT"]) == {"Inf"}
    for name in ("eventT", "dropT", "deathT"):
        assert np.array_equal(_floats(cols[name]), getattr(frame, name))
    assert [int(c) for c in cols["censor"]] == list(frame.censor)
    assert cols["group"] == list(frame.group)
    assert cols["stratum"] == list(frame.stratum)


def _never(n, rng):
    return np.full(n, np.inf)


def test_write_csv_round_trips_never_event(tmp_path):
    design = pw.TrialDesign(
        rand_rate=10, total_sample=40, groups=(("a", 1.0), ("b", 1.0)),
        dists={"a": pw.ArmModel(event=pw.PweModel((0.1,))), "b": pw.ArmModel(event=_never)},
    )
    frame = pw.simulate_trial(design, 3)
    frame.write_csv(tmp_path / "trial.csv")
    back = read_survival_csv(tmp_path / "trial.csv", **CALENDAR)
    never = frame.group == "b"
    assert np.isinf(back.time[never]).all()
    assert np.array_equal(back.time, frame.followT)
    assert np.array_equal(back.follow_abs_time, frame.followT_abs)
    assert list(back.censor_reason) == list(frame.censor_reason)


def test_cut_matches_cut_data(workdir, cut_sample):
    full = read_survival_csv(workdir / "trial.csv", **CALENDAR)
    ref = pw.cut_data(full, CUT)
    assert _header(workdir / "cut.csv") == b"ID,randT,followT,event,followT_abs,censor_reason"
    assert np.array_equal(cut_sample.time, ref.time)
    assert np.array_equal(cut_sample.rand_time, ref.rand_time)
    assert np.array_equal(cut_sample.follow_abs_time, ref.follow_abs_time)
    assert np.array_equal(cut_sample.event, ref.event)
    assert list(cut_sample.censor_reason) == list(ref.censor_reason)
    assert list(cut_sample.ids) == list(ref.ids)


@pytest.mark.parametrize("name", ["trial.csv", "cut.csv"])
def test_read_matches_row_wise_reference(workdir, name):
    path = workdir / name
    assert_same_sample(read_survival_csv(path, **CALENDAR),
                       reference_read_survival_csv(path, **CALENDAR))


@pytest.mark.parametrize("rows, problem", [
    ("1.5,1\r\n2.0\r\n", "invalid column index"),
    ("1.5,256\r\n", "must be 0 or 1"),
    ("1.5,1.5\r\n", "must be 0 or 1"),
])
def test_km_reports_malformed_cells(tmp_path, capsys, rows, problem):
    path = tmp_path / "bad.csv"
    path.write_text("followT,event\r\n" + rows)
    assert main(["km", "--in", str(path), "--out", str(tmp_path / "km.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pwexp km: error: ") and problem in err
    assert "Traceback" not in err


def test_km_matches_km_fit(workdir, cut_sample):
    out = workdir / "km.csv"
    assert main(["km", "--in", str(workdir / "cut.csv"), "--out", str(out)]) == 0
    ref = pw.km_fit(cut_sample)
    cols = _columns(out)
    assert np.array_equal(_floats(cols["time"]), ref.time)
    assert np.array_equal(_floats(cols["survival"]), ref.survival)


@pytest.mark.parametrize("optimizer", ["bfs", "ols", "hybrid"])
def test_fit_matches_fit(workdir, cut_sample, optimizer):
    out, curve = workdir / f"fit_{optimizer}.json", workdir / f"curve_{optimizer}.csv"
    argv = ["fit", "--in", str(workdir / "cut.csv"), "--nbreak", "1", "--optimizer", optimizer,
            "--seed", str(SEED), "--out", str(out), "--curve-out", str(curve)]
    assert main(argv) == 0
    ref = pw.fit(cut_sample, pw.FitConfig(nbreak=1, optimizer=optimizer, seed=SEED))
    assert pw.FitResult.load_json(out).to_dict() == ref.to_dict()
    cols = _columns(curve)
    ts = np.linspace(0.0, float(cut_sample.time.max()), 201)
    assert np.array_equal(_floats(cols["time"]), ts)
    assert np.array_equal(_floats(cols["survival"]), dist.survival(ref.model, ts))


def test_fit_summary_follows_redirected_stdout(workdir, cut_sample):
    """The summary table goes to ``sys.stdout`` as it is when ``fit`` runs,
    not as it was when the CLI module was imported."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["fit", "--in", str(workdir / "cut.csv"), "--nbreak", "1",
                     "--optimizer", "bfs", "--seed", str(SEED)]) == 0
    lines = buf.getvalue().splitlines()
    ref = pw.fit(cut_sample, pw.FitConfig(nbreak=1, optimizer="bfs", seed=SEED))
    assert len(lines) == 3
    assert lines[1].split() == ["brk1", "lam1", "lam2", "likelihood", "AIC", "BIC"]
    assert float(lines[2].split()[3]) == float(f"{ref.loglik:.7g}")


def test_cv_matches_cv_loglik(workdir, cut_sample):
    out = workdir / "cv.csv"
    argv = ["cv", "--in", str(workdir / "cut.csv"), "--nbreak", "1", "--optimizer", "bfs",
            "--nsim", "3", "--seed", str(SEED), "--out", str(out)]
    assert main(argv) == 0
    ref = pw.cv_loglik(cut_sample, pw.FitConfig(nbreak=1, optimizer="bfs", seed=SEED),
                       nsim=3, seed=SEED)
    assert np.array_equal(_floats(_columns(out)["cv_loglik"]), ref.values)


def test_boot_then_predict_matches_library(workdir, cut_sample):
    boot = workdir / "boot.json"
    assert main(["boot", "--in", str(workdir / "cut.csv"), "--nbreak", "1",
                 "--optimizer", "bfs", "--nsim", "4", "--seed", str(SEED),
                 "--out", str(boot)]) == 0
    bf = pw.boot_fit(cut_sample, pw.FitConfig(nbreak=1, optimizer="bfs", seed=SEED),
                     nsim=4, seed=SEED)
    ens = pw.predict_events(bf, None, pw.TrialSnapshot.from_cut_sample(cut_sample, CUT),
                            n_each=20, seed=SEED)
    predict = ["predict", "--in", str(workdir / "cut.csv"), "--model", str(boot),
               "--analysis_time", str(CUT), "--n_each", "20", "--seed", str(SEED)]
    times = [22.0, 26.0, 30.0]
    out = workdir / "interval.csv"
    assert main([*predict, "--eval_at", "22,26,30", "--out", str(out)]) == 0
    ref = pw.event_interval(ens, times)
    cols = _columns(out)
    for j, name in enumerate(("time", "n_event", "lower", "upper")):
        np.testing.assert_array_equal(_floats(cols[name]), ref[:, j])
    targets = [cut_sample.n_events + 5.0, cut_sample.n_events + 40.0, 1e6]
    out = workdir / "timeline.csv"
    assert main([*predict, "--xyswitch", "--eval_at", ",".join(map(repr, targets)),
                 "--out", str(out)]) == 0
    ref = pw.timeline_for_events(ens, targets)
    cols = _columns(out)
    assert cols["time"][-1] == "NA"
    for j, name in enumerate(("n_event", "time", "lower", "upper")):
        np.testing.assert_array_equal(_floats(cols[name]), ref[:, j])


def test_predict_with_monthly_counts_matches_library(workdir, cut_sample):
    model = workdir / "fit_exp.json"
    res = pw.fit(cut_sample, pw.FitConfig(nbreak=0, seed=SEED))
    res.save_json(model)
    out = workdir / "accrual.csv"
    assert main(["predict", "--in", str(workdir / "cut.csv"), "--model", str(model),
                 "--analysis_time", str(CUT), "--n_remaining", "6", "--monthly_counts", "2,0,3,4",
                 "--n_each", "20", "--kind", "predictive", "--eval_at", "21,22.5,24,30",
                 "--seed", str(SEED), "--out", str(out)]) == 0
    plan = pw.AccrualPlan(n_remaining=6, monthly_counts=(2, 0, 3, 4))
    ens = pw.predict_events(res, None, pw.TrialSnapshot.from_cut_sample(cut_sample, CUT, plan),
                            n_each=20, seed=SEED)
    ref = pw.event_interval(ens, [21.0, 22.5, 24.0, 30.0], kind="predictive")
    cols = _columns(out)
    for j, name in enumerate(("time", "n_event", "lower", "upper")):
        np.testing.assert_array_equal(_floats(cols[name]), ref[:, j])


def test_predict_needs_no_id_or_follow_abs_column(workdir, cut_sample, tmp_path):
    # predict reads time, event, rand time and censor reason only; the id
    # and absolute follow-up flags stay accepted
    cols = _columns(workdir / "cut.csv")
    slim = tmp_path / "slim.csv"
    write_table(slim, {c: cols[c] for c in ("randT", "followT", "event", "censor_reason")})
    model = tmp_path / "fit_exp.json"
    pw.fit(cut_sample, pw.FitConfig(nbreak=0, seed=SEED)).save_json(model)
    common = ["--model", str(model), "--analysis_time", str(CUT), "--n_each", "20",
              "--kind", "predictive", "--seed", str(SEED), "--eval_at", "22,26,30"]
    assert main(["predict", "--in", str(workdir / "cut.csv"), *common,
                 "--out", str(tmp_path / "full.csv")]) == 0
    assert main(["predict", "--in", str(slim), "--id-col", "absent", "--follow-abs-time-col", "absent",
                 *common, "--out", str(tmp_path / "slim_out.csv")]) == 0
    assert (tmp_path / "slim_out.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def test_predict_writes_timeline_from_the_same_ensemble(workdir, cut_sample, tmp_path):
    model = tmp_path / "fit.json"
    pw.fit(cut_sample, pw.FitConfig(nbreak=1, optimizer="bfs", seed=SEED)).save_json(model)
    common = ["predict", "--in", str(workdir / "cut.csv"), "--model", str(model),
              "--analysis_time", str(CUT), "--n_each", "20", "--kind", "predictive",
              "--seed", str(SEED)]
    targets = ",".join(map(repr, [cut_sample.n_events + 5.0, cut_sample.n_events + 40.0, 1e6]))
    both = [*common, "--eval_at", "22,26,30", "--out", str(tmp_path / "interval.csv"),
            "--timeline_at", targets, "--timeline_out", str(tmp_path / "timeline.csv")]
    assert main(both) == 0
    assert main([*common, "--eval_at", "22,26,30", "--out", str(tmp_path / "interval_only.csv")]) == 0
    assert main([*common, "--xyswitch", "--eval_at", targets,
                 "--out", str(tmp_path / "timeline_only.csv")]) == 0
    assert (tmp_path / "interval.csv").read_bytes() == (tmp_path / "interval_only.csv").read_bytes()
    assert (tmp_path / "timeline.csv").read_bytes() == (tmp_path / "timeline_only.csv").read_bytes()
    assert _header(tmp_path / "timeline.csv") == b"n_event,time,lower,upper"
    manifest = (tmp_path / "timeline.csv.manifest.json").read_text()
    assert "--timeline_out" in manifest


def test_predict_timeline_flags_go_together(workdir, tmp_path, capsys):
    argv = ["predict", "--in", str(workdir / "cut.csv"), "--model", str(tmp_path / "absent.json"),
            "--analysis_time", str(CUT), "--eval_at", "22", "--seed", str(SEED),
            "--out", str(tmp_path / "out.csv"), "--timeline_at", "50"]
    assert main(argv) == 1
    assert "--timeline_at and --timeline_out go together" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_predict_rejects_a_nan_enrollment_time(workdir, cut_sample, tmp_path, capsys):
    """A NaN rand time of an at-risk subject once made the default horizon,
    and so the whole grid, NaN."""
    cols = _columns(workdir / "cut.csv")
    cols["randT"][cols["censor_reason"].index("cut")] = "nan"
    bad = tmp_path / "cut_nan.csv"
    write_table(bad, cols)
    model = tmp_path / "fit_exp.json"
    pw.fit(cut_sample, pw.FitConfig(nbreak=0, seed=SEED)).save_json(model)
    out = tmp_path / "out.csv"
    assert main(["predict", "--in", str(bad), "--model", str(model), "--analysis_time", str(CUT),
                 "--kind", "predictive", "--eval_at", "22,26", "--seed", str(SEED),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("pwexp predict: error: ")
    assert not out.exists()


def test_followup_matches_sim_followup(workdir):
    out = workdir / "followup.csv"
    argv = ["followup", *DESIGN_ARGS, "--at", "10,25", "--stat", "mean,median,prop_5",
            "--by_group", "--rep", "3", "--out", str(out)]
    assert main(argv) == 0
    ref = pw.sim_followup(DESIGN, at=[10.0, 25.0], stats=[np.mean, np.median, pw.prop_above(5)],
                          by_group=True, rep=3, seed=SEED)
    for path, table in ((out, ref.overall), (workdir / "followup.csv.by_group.csv", ref.by_group)):
        cols = _columns(path)
        assert list(cols) == list(table)
        for name, cells in cols.items():
            if name == "group":
                assert cells == table[name].tolist()
            else:
                np.testing.assert_array_equal(_floats(cells), table[name])


def test_every_output_file_has_a_manifest(tmp_path):
    """Each file a subcommand writes, by any output flag or default name,
    has a manifest next to it that names the subcommand and its argv."""
    w = lambda name: str(tmp_path / name)
    data = ["--in", w("cut.csv")]
    fit_flags = ["--nbreak", "1", "--optimizer", "bfs", "--seed", str(SEED)]
    predict = ["predict", *data, "--model", w("boot.json"), "--analysis_time", str(CUT),
               "--n_remaining", "10", "--rate", "5", "--n_each", "5", "--seed", str(SEED)]
    followup = ["followup", *DESIGN_ARGS, "--at", "10,25", "--by_group", "--rep", "2"]
    runs = [
        ["dist", "--rates", "0.1", "--at", "1,2", "--out", w("dist.csv")],
        ["simulate", *DESIGN_ARGS, "--out", w("trial.csv")],
        ["cut", "--in", w("trial.csv"), "--cut", str(CUT), "--out", w("cut.csv")],
        ["km", *data, "--out", w("km.csv")],
        ["fit", *data, *fit_flags, "--out", w("fit.json"), "--curve-out", w("curve.csv")],
        ["boot", *data, *fit_flags, "--nsim", "2", "--out", w("boot.json")],
        ["cv", *data, *fit_flags, "--nsim", "2", "--out", w("cv.csv")],
        [*predict, "--eval_at", "22,26", "--out", w("interval.csv"),
         "--timeline_at", "300", "--timeline_out", w("timeline.csv")],
        [*followup, "--out", w("followup.csv")],
        [*followup, "--out", w("followup2.csv"), "--group_out", w("groups.csv")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            assert main(argv) == 0, argv[0]
    outputs = sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith(".manifest.json"))
    assert outputs == sorted(["dist.csv", "trial.csv", "cut.csv", "km.csv", "fit.json", "curve.csv",
                              "boot.json", "cv.csv", "interval.csv", "timeline.csv", "followup.csv",
                              "followup.csv.by_group.csv", "followup2.csv", "groups.csv"])
    for name in outputs:
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["argv"] in runs and manifest["subcommand"] == manifest["argv"][0]
        assert any(w(name).startswith(arg) for arg in manifest["argv"][1:] if arg.startswith(w("")))


def test_followup_rejects_no_milestones(tmp_path, capsys):
    out = tmp_path / "followup.csv"
    assert main(["followup", *DESIGN_ARGS, "--at", ",", "--rep", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("pwexp followup: error: ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["boot", "cv", "predict", "followup"])
def test_threads_below_one_exit_1(workdir, cut_sample, tmp_path, capsys, cmd):
    data = ["--in", str(workdir / "cut.csv")]
    fit_flags = ["--nbreak", "1", "--optimizer", "bfs", "--seed", str(SEED)]
    model = tmp_path / "fit.json"
    pw.fit(cut_sample, pw.FitConfig(nbreak=0, seed=SEED)).save_json(model)
    argv = {
        "boot": ["boot", *data, *fit_flags, "--nsim", "2"],
        "cv": ["cv", *data, *fit_flags, "--nsim", "2"],
        "predict": ["predict", *data, "--model", str(model), "--analysis_time", str(CUT),
                    "--n_each", "5", "--eval_at", "22", "--seed", str(SEED)],
        "followup": ["followup", *DESIGN_ARGS, "--at", "10", "--rep", "2"],
    }[cmd]
    out = tmp_path / "out.csv"
    assert main([*argv, "--threads", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"pwexp {cmd}: error: threads must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("at, kind", [("nan", "calendar"), ("inf", "event"), ("10,nan", "sample")])
def test_followup_rejects_non_finite_milestones(tmp_path, capsys, at, kind):
    out = tmp_path / "followup.csv"
    assert main(["followup", *DESIGN_ARGS, "--at", at, "--type", kind, "--rep", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("pwexp followup: error: ")
    assert not out.exists()


def test_predict_timeline_of_a_nan_target_is_na(workdir, cut_sample, tmp_path):
    model = tmp_path / "fit_exp.json"
    pw.fit(cut_sample, pw.FitConfig(nbreak=0, seed=SEED)).save_json(model)
    out = tmp_path / "timeline.csv"
    assert main(["predict", "--in", str(workdir / "cut.csv"), "--model", str(model),
                 "--analysis_time", str(CUT), "--n_each", "10", "--kind", "predictive",
                 "--seed", str(SEED), "--xyswitch", "--eval_at", f"nan,{cut_sample.n_events + 5}",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1] == "NA,NA,NA,NA"
    assert "NA" not in rows[2]


def test_dist_prints_the_cells_it_writes(tmp_path, capsys):
    argv = ["dist", "--rates", "0.1,0.2", "--breaks", "5", "--at", "0,inf,nan", "--survival"]
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["at,value", "0.0,1.0", "Inf,0.0", "NA,NA"]
    assert main([*argv, "--out", str(tmp_path / "dist.csv")]) == 0
    assert (tmp_path / "dist.csv").read_text().splitlines() == printed


def test_dist_matches_survival(workdir):
    out = workdir / "dist.csv"
    assert main(["dist", "--rates", "0.1,0.2", "--breaks", "5", "--at", "1,7", "--out", str(out)]) == 0
    cols = _columns(out)
    model = pw.PweModel((0.1, 0.2), (5.0,))
    assert np.array_equal(_floats(cols["value"]), dist.survival(model, np.array([1.0, 7.0])))
    assert main(["dist", "--rates", "0.1,0.2", "--breaks", "5", "--at", "0.5,1", "--quantile",
                 "--out", str(out)]) == 0
    assert out.read_bytes().endswith(b"\r\n1.0,Inf\r\n")
    cols = _columns(out)
    assert np.array_equal(_floats(cols["at"]), [0.5, 1.0])
    assert np.array_equal(_floats(cols["value"]), dist.quantile(model, np.array([0.5, 1.0])))


def test_write_table_cell_rule(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, {
        "x": np.array([1 / 3, np.inf, -np.inf, np.nan]),
        "n": np.array([1, 2, 3, 4], dtype=np.int8),
        "group": np.array(["a,b", None, "c", "d"], dtype=object),
    })
    assert path.read_bytes() == (b'x,n,group\r\n0.3333333333333333,1,"a,b"\r\n'
                                 b"Inf,2,NA\r\n-Inf,3,c\r\nNA,4,d\r\n")


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]})


@pytest.mark.parametrize("column", [np.ones((2, 2)), 1.0], ids=["2-D", "scalar"])
def test_write_table_rejects_columns_not_1d(tmp_path, column):
    with pytest.raises(ValueError, match="column 'b' must be 1-D"):
        write_table(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": column})
    assert not (tmp_path / "t.csv").exists()


_ORACLE_NONFINITE = {"inf": "Inf", "-inf": "-Inf", "nan": "NA"}


def _oracle_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        text = repr(value)
        return _ORACLE_NONFINITE.get(text, text)
    return str(value)


def _oracle_write_table(path, columns):
    """The reference writer: each cell formatted on its own, and rows
    written, quoted and ended by this interpreter's ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        cells = [[_oracle_cell(v) for v in np.asarray(c).tolist()] for c in columns.values()]
        writer.writerows(zip(*cells))


_TEXT = st.text(st.sampled_from(list('ab ,"\r\n\'\té中')), max_size=4)
_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310])


@st.composite
def _tables(draw):
    """0-5 rows of 1-3 columns of every kind the writer formats apart."""
    n = draw(st.integers(0, 5))
    cells = {
        "float": (_FLOATS, float),
        "int8": (st.integers(-128, 127), np.int8),
        "int64": (st.integers(-2**63, 2**63 - 1), np.int64),
        "bool": (st.booleans(), bool),
        "str": (_TEXT, str),
        "object": (_TEXT | _FLOATS | st.integers() | st.none(), object),
        "empty": (st.just(""), object),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=3))
    names = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    table = {}
    for name, kind in zip(names, kinds):
        values, dtype = cells[kind]
        table[name] = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
    return table


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle")


@settings(max_examples=300, deadline=None)
@given(_tables(), st.sampled_from([1, 2, 1024]))
def test_write_table_bytes_equal_csv_writer(oracle_dir, table, block_rows):
    got, want = oracle_dir / "got.csv", oracle_dir / "want.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survdata, "_WRITE_BLOCK_ROWS", block_rows)
        write_table(got, table)
    _oracle_write_table(want, table)
    assert got.read_bytes() == want.read_bytes()


def test_cli_tables_pinned_digest(tmp_path):
    """SHA-256 of the simulate -> cut -> km tables of a fixed scenario, taken
    when ``write_table`` wrote through ``csv.writer``. Two groups, two
    strata, drop-out and a death model in one group: the tables hold Inf,
    every censor reason that simulate and cut give (NA, drop_out, death,
    cut), text and integer columns, and more rows than one write block. The
    digests cover the simulated values too, so a change to the samplers
    changes them as well."""
    trial, cut, km = (str(tmp_path / f"{n}.csv") for n in ("trial", "cut", "km"))
    assert main(["simulate", "--rand_rate", "50", "--total_sample", "2000",
                 "--groups", "trt=1,con=1", "--strata", "s1=1,s2=1",
                 "--event", "trt=0.05,0.02@6", "--event", "con=0.1", "--death", "trt=0.02",
                 "--drop_rate", "0.03", "--seed", "11", "--out", trial]) == 0
    assert main(["cut", "--in", trial, "--cut", "30", "--out", cut]) == 0
    assert main(["km", "--in", cut, "--out", km]) == 0
    digests = {Path(p).stem: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (trial, cut, km)}
    assert digests == {
        "trial": "16d6de0f18122c976dfdea556c9fccb467697141660bc21184ae6989ea4c05e5",
        "cut": "0c12893e057ee4df08913a1b3d78f37de2db396ce097a3207fbb72b9895b421d",
        "km": "73d316485b9d2b66a40073f38454f0397a4f27b87aa8b429ab1cacca21c3257d",
    }


def test_cli_import_loads_no_process_pool():
    """The pool modules load only when a run uses more than one worker."""
    code = ("import sys, pwexp.cli; print(sorted(m for m in sys.modules"
            " if m.startswith(('concurrent.futures', 'multiprocessing'))))")
    env = {**os.environ, "PYTHONPATH": str(Path(pw.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def roundtrip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "t.csv"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, allow_nan=False), st.floats(allow_nan=False),
                          st.integers(0, 1)), min_size=1, max_size=30))
def test_float_columns_round_trip_exactly(roundtrip_path, rows):
    time, rand, event = (np.array(c) for c in zip(*rows))
    reason = np.array(["never_event" if np.isinf(t) else None for t in time], dtype=object)
    write_table(roundtrip_path, {"time": time, "event": event, "rand": rand, "reason": reason})
    back = read_survival_csv(roundtrip_path, rand_time_col="rand", censor_reason_col="reason")
    assert back.time.tobytes() == time.astype(float).tobytes()
    assert back.rand_time.tobytes() == rand.astype(float).tobytes()
    assert np.array_equal(back.event, event)
    assert list(back.censor_reason) == list(reason)


def test_public_names_and_flags_are_pinned():
    """The package's public names and every subcommand's options. Dropping or
    renaming one breaks callers, so it needs a CHANGES.md entry and an edit
    here."""
    assert sorted(pw.__all__) == sorted([
        "PweModel", "hazard", "cumulative_hazard", "density", "survival", "cdf",
        "quantile", "sample", "conditional_survival", "conditional_cdf",
        "conditional_quantile", "conditional_sample",
        "SurvSample", "KmCurve", "km_fit", "cut_data", "read_survival_csv", "write_table",
        "PieceTally", "FitConfig", "FitResult", "piece_tally", "loglik",
        "mle_given_breakpoints", "validate_breakpoints", "fit_bfs", "fit_ols",
        "fit_hybrid", "fit", "BootFit", "CvResult", "boot_fit", "cv_loglik",
        "AccrualPlan", "TrialSnapshot", "PredictionEnsemble", "predict_events",
        "expected_events", "event_interval", "timeline_for_events",
        "ArmModel", "TrialDesign", "TrialFrame", "simulate_trial",
        "sim_followup", "SimFollowup", "prop_above",
        "PwexpError", "EmptyPieceError", "NoFeasibleModelError", "__version__",
    ])
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {cmd: {s for a in p._actions for s in a.option_strings} for cmd, p in sub.choices.items()}
    data = {"-h", "--help", "--in", "--time-col", "--event-col"}
    calendar = {"--rand-time-col", "--follow-abs-time-col", "--censor-reason-col", "--id-col"}
    fitconfig = {"--nbreak", "--fixed_breakpoints", "--optimizer", "--max_set", "--min_pt_tail",
                 "--exclude_int", "--seed"}
    design = {"-h", "--help", "--rand_rate", "--total_sample", "--n_rand", "--groups", "--strata",
              "--event", "--death", "--drop_rate", "--iid_allocation", "--seed"}
    assert flags == {
        "dist": {"-h", "--help", "--rates", "--breaks", "--breakpoints", "--at", "--given", "--out",
                 "--survival", "--density", "--cdf", "--hazard", "--quantile"},
        "simulate": design | {"--out"},
        "cut": data | calendar | {"--cut", "--out"},
        "km": data | {"--out"},
        "fit": data | fitconfig | {"--out", "--curve-out"},
        "boot": data | fitconfig | {"--nsim", "--threads", "--out"},
        "cv": data | fitconfig | {"--nsim", "--threads", "--out"},
        "predict": data | calendar | {
            "--model", "--censor_model", "--analysis_time", "--n_remaining", "--rate",
            "--monthly_counts", "--n_each", "--horizon", "--grid_points", "--eval_at", "--level",
            "--kind", "--xyswitch", "--timeline_at", "--timeline_out", "--seed", "--threads",
            "--out"},
        "followup": design | {"--at", "--type", "--stat", "--by_group", "--rep",
                              "--follow_up_endpoint", "--threads", "--out", "--group_out"},
    }
