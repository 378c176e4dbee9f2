"""The three benchmark workloads and their correctness checks.

Every workload runs the paper's whole workflow once per pass -- simulate,
cut, Kaplan-Meier, fit with each optimizer, bootstrap, cross-validation,
prediction, intervals and design-stage follow-up -- so every end-to-end
metric exists on every workload. The workloads differ in which stage is
sized up, so that each stresses different layers (see README.md).

Pass ``k`` of a run draws its own trial from the seed ``pass_seed(seed, k)``,
so a run's medians cover several inputs while the same ``--seed`` always
gives the same inputs.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pwexp as pw
import pwexp.cli

RATES = (0.1, 0.01, 0.2)
BREAKS = (5.0, 14.0)
DROP_RATE = 0.03
ACCRUAL_MONTHS = 50
CUT = 0.8 * ACCRUAL_MONTHS  # interim analysis at 80% of accrual
OPTIMIZERS = ("bfs", "ols", "hybrid")
STAGES = ("simulate_s", "cut_s", "km_s", "fit.bfs_s", "fit.ols_s", "fit.hybrid_s",
          "boot_s", "cv_s", "predict_s", "interval_s", "followup_s")
FOLLOWUP_AT = (10.0, 20.0, 30.0)
REL_TOL = 1e-9


def pass_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def reference_design(n: int) -> pw.TrialDesign:
    """The reference scenario of the test suite, scaled to ``n`` subjects."""
    return pw.TrialDesign(
        rand_rate=n / ACCRUAL_MONTHS, total_sample=n, drop_rate=DROP_RATE,
        dists=pw.ArmModel(event=pw.PweModel(RATES, BREAKS)),
    )


def followup_design() -> pw.TrialDesign:
    return pw.TrialDesign(
        rand_rate=20, total_sample=1000, drop_rate=DROP_RATE,
        groups=(("trt", 1.0), ("con", 1.0)),
        dists={"trt": pw.ArmModel(event=pw.PweModel((0.05,))),
               "con": pw.ArmModel(event=pw.PweModel((0.1,)))},
    )


@dataclass
class PassResult:
    times: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: list = field(default_factory=list)
    outputs: object = None  # what check() reads; dropped after it
    factor: float = 1.0  # speed correction set by the runner

    def timed(self, stage: str, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.times[stage] = self.times.get(stage, 0.0) + perf_counter() - t0
        return out

    def expect(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_fit(res: pw.FitResult, data: pw.SurvSample, label: str, out: PassResult):
    """The log-likelihood is the recomputed one and each rate is events over
    exposure at the fitted change-points."""
    out.expect(_close(res.loglik, pw.loglik(res.model, data)),
               f"{label}: loglik differs from pw.loglik recomputed")
    tally = pw.piece_tally(res.model.breakpoints, data)
    rates = tally.n_events / tally.exposure
    out.expect(all(_close(a, b) for a, b in zip(res.model.rates, rates)),
               f"{label}: rates differ from events / exposure")
    out.digest += [res.model.breakpoints, res.loglik]


def check_curves(ens: pw.PredictionEnsemble, snap: pw.TrialSnapshot, out: PassResult):
    for label, curves in (("point", ens.point[None, :]), ("expected", ens.expected),
                          ("predictive", ens.predictive)):
        out.expect(bool(np.all(curves[:, 0] == snap.n_events)), f"{label} curve does not start at n_events")
        out.expect(bool(np.all(np.diff(curves, axis=1) >= 0)), f"{label} curve decreases")
        out.expect(bool(np.all(curves <= snap.max_new_events)), f"{label} curve exceeds max_new_events")
    out.digest.append(ens.point.tolist())


class LibraryWorkload:
    """Library calls in one process, serial. ``forecast=False`` sizes up
    estimation and resampling (interim_fit); ``forecast=True`` sizes up
    prediction from a bootstrap ensemble with censoring and future accrual."""

    pool_size = 1

    def __init__(self, n: int, boot_nsim: int, cv_nsim: int, forecast: bool):
        self.design = reference_design(n)
        self.boot_nsim = boot_nsim
        self.cv_nsim = cv_nsim
        self.forecast = forecast
        self.accrual = pw.AccrualPlan(n_remaining=2000, rate=n / ACCRUAL_MONTHS) if forecast else None
        self.followup = followup_design()

    def run_pass(self, seed: int, span=None) -> PassResult:
        out = PassResult()
        frame = out.timed("simulate_s", pw.simulate_trial, self.design, seed)
        data = out.timed("cut_s", lambda: pw.cut_data(frame.to_surv_sample(), CUT))
        out.timed("km_s", pw.km_fit, data)
        fits = {o: out.timed(f"fit.{o}_s", pw.fit, data, pw.FitConfig(nbreak=2, optimizer=o, seed=seed))
                for o in OPTIMIZERS}
        cfg = pw.FitConfig(nbreak=2, optimizer="hybrid", seed=seed)
        boot = out.timed("boot_s", pw.boot_fit, data, cfg, nsim=self.boot_nsim, seed=seed)
        cv = out.timed("cv_s", pw.cv_loglik, data, cfg, nsim=self.cv_nsim, seed=seed)
        snap, ens = out.timed("predict_s", self._predict, data, fits["hybrid"], boot, seed)
        out.timed("interval_s", self._intervals, ens)
        out.timed("followup_s", pw.sim_followup, self.followup, at=FOLLOWUP_AT,
                  stats=(np.mean, np.median), by_group=True, rep=4, seed=seed)
        out.attempted = boot.nsim + cv.nsim
        out.failed = len(boot.failures) + cv.n_failed
        out.outputs = (data, fits, boot, cv, snap, ens)
        return out

    def check(self, out: PassResult, seed: int, first: bool):
        data, fits, boot, cv, snap, ens = out.outputs
        for o, res in fits.items():
            check_fit(res, data, f"fit {o}", out)
        check_fit(boot.base, data, "boot base fit", out)
        out.expect(len(boot.replicates) + len(boot.failures) == boot.nsim, "boot: replicates + failures != nsim")
        out.expect(len(cv.values) + cv.n_failed == cv.nsim, "cv: values + failures != nsim")
        check_curves(ens, snap, out)
        out.outputs = None

    def _predict(self, data, fit_res, boot, seed):
        snap = pw.TrialSnapshot.from_cut_sample(data, CUT, self.accrual)
        if not self.forecast:
            return snap, pw.predict_events(fit_res, None, snap, n_each=100, seed=seed)
        dropped = np.array([r == "drop_out" for r in data.censor_reason], dtype=np.int8)
        censor = pw.fit(pw.SurvSample(time=data.time, event=dropped), pw.FitConfig())
        return snap, pw.predict_events(boot, censor, snap, n_each=100, seed=seed)

    def _intervals(self, ens):
        times = np.linspace(ens.grid[0], ens.grid[-1], 20)
        targets = np.linspace(ens.base_events + 1, ens.point[-1], 20)
        for kind in (("confidence", "predictive") if self.forecast else ("predictive",)):
            pw.event_interval(ens, times, kind=kind)
            pw.timeline_for_events(ens, targets, kind=kind)


@contextlib.contextmanager
def _stdout_to(path: Path):
    """Send fd 1 to ``path``: the CLI also prints through a ``sys.stdout``
    bound at import time, which ``contextlib.redirect_stdout`` misses."""
    sys.stdout.flush()
    saved = os.dup(1)
    with open(path, "ab") as fh:
        os.dup2(fh.fileno(), 1)
        try:
            yield
        finally:
            sys.stdout.flush()
            os.dup2(saved, 1)
            os.close(saved)


class CliWorkload:
    """``pwexp.cli.main(argv)`` in-process, over CSV and JSON files in a
    scratch directory inside the checkout; boot and followup use 2 workers."""

    pool_size = 2

    def __init__(self, workdir: Path, n: int):
        self.workdir = workdir
        self.n = n

    def commands(self, seed: int) -> list[tuple[str, list[str]]]:
        n, s = self.n, str(seed)
        w = lambda name: str(self.workdir / name)
        data = ["--in", w("cut.csv")]
        fit = lambda o: ["fit", *data, "--nbreak", "2", "--optimizer", o, "--seed", s, "--out", w(f"fit_{o}.json")]
        predict = ["predict", *data, "--model", w("fit_hybrid.json"), "--analysis_time", str(CUT),
                   "--n_each", "100", "--kind", "predictive", "--seed", s]
        times = ",".join(f"{t:.6g}" for t in np.linspace(CUT + 2, 2 * CUT, 20))
        targets = ",".join(str(int(t)) for t in np.linspace(0.45 * n, 0.6 * n, 20))
        return [
            ("simulate_s", ["simulate", "--rand_rate", str(n / ACCRUAL_MONTHS), "--total_sample", str(n),
                            "--event", ",".join(map(str, RATES)) + "@" + ",".join(map(str, BREAKS)),
                            "--drop_rate", str(DROP_RATE), "--seed", s, "--out", w("trial.csv")]),
            ("cut_s", ["cut", "--in", w("trial.csv"), "--cut", str(CUT), "--out", w("cut.csv")]),
            ("km_s", ["km", *data, "--out", w("km.csv")]),
            *[(f"fit.{o}_s", fit(o)) for o in OPTIMIZERS],
            ("boot_s", ["boot", *data, "--nbreak", "2", "--optimizer", "bfs", "--nsim", "10",
                        "--threads", "2", "--seed", s, "--out", w("boot.json")]),
            ("cv_s", ["cv", *data, "--nbreak", "2", "--optimizer", "bfs", "--nsim", "4",
                      "--seed", s, "--out", w("cv.csv")]),
            ("predict_s", [*predict, "--eval_at", times, "--out", w("interval.csv")]),
            ("interval_s", [*predict, "--xyswitch", "--eval_at", targets, "--out", w("timeline.csv")]),
            ("followup_s", ["followup", "--rand_rate", "20", "--total_sample", "1000",
                            "--groups", "trt=1,con=1", "--event", "trt=0.05", "--event", "con=0.1",
                            "--drop_rate", str(DROP_RATE), "--at", ",".join(map(str, FOLLOWUP_AT)),
                            "--by_group", "--rep", "4", "--threads", "2", "--seed", s,
                            "--out", w("followup.csv")]),
        ]

    def _call(self, argv: list[str], span) -> int:
        with _stdout_to(self.workdir.parent / f"{self.workdir.name}.stdout"), span(f"cli.{argv[0]}"):
            return pwexp.cli.main(argv)

    def run_pass(self, seed: int, span=None) -> PassResult:
        """``span(name)``, when given, wraps each command."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        span = span or (lambda name: contextlib.nullcontext())
        out = PassResult()
        for stage, argv in self.commands(seed):
            rc = out.timed(stage, self._call, argv, span)
            out.attempted += 1
            if rc != 0:
                out.failed += 1
                out.problems.append(f"cli {argv[0]} exited {rc}")
        return out

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.workdir.iterdir())

    def check(self, out: PassResult, seed: int, first: bool):
        """Reads the pass's files back; ``first`` adds the comparison of
        --threads 2 against boot_fit at threads=1."""
        if out.problems:
            return
        w = self.workdir
        data = pw.read_survival_csv(w / "cut.csv", time_col="followT", event_col="event",
                                    rand_time_col="randT", censor_reason_col="censor_reason")
        for o in OPTIMIZERS:
            check_fit(pw.FitResult.load_json(w / f"fit_{o}.json"), data, f"cli fit {o}", out)
        boot_json = json.loads((w / "boot.json").read_text())
        out.expect(boot_json["nsim"] == 10 and len(boot_json["replicates"]) <= 10,
                   "cli boot: wrong nsim or more replicates than nsim")
        if first:
            cfg = pw.FitConfig(nbreak=2, optimizer="bfs", seed=seed)
            serial = pw.boot_fit(data, cfg, nsim=10, seed=seed, threads=1)
            out.expect(serial.to_dict() == boot_json, "cli boot --threads 2 differs from boot_fit threads=1")
            out.expect(len(serial.replicates) + len(serial.failures) == serial.nsim,
                       "boot: replicates + failures != nsim")
        cv = _read_rows(w / "cv.csv")
        out.expect(1 <= len(cv) <= 4 and all(math.isfinite(float(r["cv_loglik"])) for r in cv),
                   "cli cv: wrong number of finite values")
        n_events = data.n_events
        most = n_events + sum(r == "cut" for r in data.censor_reason)
        rows = _read_rows(w / "interval.csv")
        counts = [float(r["n_event"]) for r in rows]
        out.expect(all(n_events <= c <= most for c in counts), "cli predict: count outside [n_events, max]")
        out.expect(all(b >= a for a, b in zip(counts, counts[1:])), "cli predict: counts decrease")
        out.expect(all(float(r["lower"]) <= float(r["upper"]) for r in rows), "cli predict: lower > upper")
        times = [float(r["time"]) for r in _read_rows(w / "timeline.csv") if r["time"] != "NA"]
        out.expect(all(t >= CUT for t in times) and all(b >= a for a, b in zip(times, times[1:])),
                   "cli timeline: times not increasing from the analysis time")
        out.digest += [hashlib.sha256((w / f).read_bytes()).hexdigest()
                       for f in ("interval.csv", "timeline.csv", "cv.csv", "boot.json")]


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def make(name: str, workdir: Path):
    if name == "interim_fit":
        return LibraryWorkload(n=10_000, boot_nsim=10, cv_nsim=5, forecast=False)
    if name == "forecast":
        return LibraryWorkload(n=10_000, boot_nsim=5, cv_nsim=2, forecast=True)
    if name == "cli_pipeline":
        return CliWorkload(workdir, n=20_000)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("interim_fit", "forecast", "cli_pipeline")
