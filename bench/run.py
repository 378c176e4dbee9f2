"""pwexp benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload interim_fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(prefixed ``record``) holds the environment, per-metric sample counts and
tail percentiles, and the result checksum. The exit code is 0 only when
every correctness check passed. See bench/README.md.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and in the pool workers it forks:
# two workers times two OpenBLAS threads would oversubscribe two CPUs.
THREAD_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse
import hashlib
import json
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STARTUP_REPEATS = 5
# Median time of the calibration kernel with the machine at full speed: the
# speed that every reported timing is corrected to (see Calibration).
REFERENCE_KERNEL_S = 0.0055


def median(values):
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or (None, None) when there are too few samples."""
    n = len(values)
    if n < 11:
        return None, None
    pct = int(100 * (1 - 10 / n))
    return pct, float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


class Calibration:
    """A fixed interpreter-and-numpy kernel that does not touch pwexp.

    A host shared with other machines can slow the whole machine by up to
    1.7x for minutes at a time (seen on a 2-vCPU VM), which moves whole
    runs. Every timing is therefore multiplied by ``REFERENCE_KERNEL_S /
    kernel time`` measured around it, giving seconds at a fixed machine
    speed; the record keeps the raw seconds and the factors.
    """

    def __init__(self, np):
        self.np = np
        self.x = np.sort(np.random.default_rng(0).random(8000))

    def _kernel(self):
        np, x = self.np, self.x
        acc = 0
        for i in range(1000):
            v = x[(i * 7919) % len(x)]
            acc += int(np.searchsorted(x, v)) + int(np.count_nonzero(x < v)) + sum(range(30))
        return acc

    def kernel_s(self) -> float:
        times = []
        for _ in range(5):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return median(times)

    def measure(self, fn, *args):
        """(result, factor): ``fn(*args)`` between two kernel timings, and the
        factor that corrects its timings to the reference speed."""
        before = self.kernel_s()
        out = fn(*args)
        after = self.kernel_s()
        return out, REFERENCE_KERNEL_S / (0.5 * (before + after))


def time_startup(module: str) -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository (git is
    not asked then, so it cannot report a repository above the checkout)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "pwexp").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# traced layers


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_bfs(c, args, kwargs, res):
    c["rows_scored"] += res.diagnostics["n_combinations"]
    c["bfs_rows"] += res.diagnostics["n_combinations"]
    c["bfs_feasible"] += res.diagnostics["n_feasible"]


def _count_hybrid(c, args, kwargs, res):
    c["rows_scored"] += res.diagnostics["n_rows"]


def _count_ols(c, args, kwargs, res):
    c["ols_fits"] += 1
    c["ols_fallbacks"] += any("grid fallback" in w for w in res.warnings)


def _count_boot(c, args, kwargs, res):
    c["replicates"] += res.nsim
    c["replicates_failed"] += len(res.failures)


def _count_cv(c, args, kwargs, res):
    c["replicates"] += res.nsim
    c["replicates_failed"] += res.n_failed


def _count_draws(c, args, kwargs, res):
    c["draws"] += _arg(args, kwargs, 1, "n")
    c["draw_calls"] += 1


def _count_subject_draws(c, args, kwargs, ens):
    import pwexp as pw
    model, snap = _arg(args, kwargs, 0, "event_model"), _arg(args, kwargs, 2, "snapshot")
    sets = len(ens.expected)
    if isinstance(model, pw.BootFit) and model.base is not None and sets > 1:
        sets += 1  # the point curve is simulated from the base fit
    subjects = len(snap.enroll_times) + (snap.accrual.n_remaining if snap.accrual else 0)
    c["subject_draws"] += sets * subjects * ens.n_each


def _count_payload(c, args, kwargs, out):
    payloads, threads = _arg(args, kwargs, 1, "payloads"), _arg(args, kwargs, 2, "threads")
    if threads > 1 and len(payloads) > 1:
        c["pool_maps"] += 1
        c["payload_bytes"] += sum(len(pickle.dumps(p)) for p in payloads)


def traced_layers():
    import pwexp._parallel as par
    import pwexp.distribution as ds
    import pwexp.estimation as est
    import pwexp.prediction as pr
    import pwexp.resampling as rs
    import pwexp.simulation as sim
    import pwexp.survdata as sd

    functions = [
        (sd.km_fit, "survdata.km_fit", None),
        (sd.cut_data, "survdata.cut_data", None),
        (sd.read_survival_csv, "survdata.read_survival_csv", None),
        (est.fit, "estimation.fit", None),
        (est.fit_bfs, "estimation.fit_bfs", _count_bfs),
        (est.fit_ols, "estimation.fit_ols", _count_ols),
        (est.fit_hybrid, "estimation.fit_hybrid", _count_hybrid),
        (est.fit_segmented_line, "estimation.fit_segmented_line", None),
        (est.mle_given_breakpoints, "estimation.mle_given_breakpoints", None),
        (est.loglik, "estimation.loglik", None),
        (est.piece_tally, "estimation.piece_tally", None),
        (rs.boot_fit, "resampling.boot_fit", _count_boot),
        (rs.cv_loglik, "resampling.cv_loglik", _count_cv),
        (ds.sample, "distribution.sample", _count_draws),
        (ds.conditional_sample, "distribution.conditional_sample", _count_draws),
        (pr.predict_events, "prediction.predict_events", _count_subject_draws),
        (pr.event_interval, "prediction.event_interval", None),
        (pr.timeline_for_events, "prediction.timeline_for_events", None),
        (sim.simulate_trial, "simulation.simulate_trial", None),
        (sim.sim_followup, "simulation.sim_followup", None),
        # counted, not spanned: a serial map is the caller's own loop, and
        # the work of a pool map happens in workers this process cannot see
        (par.parallel_map, None, _count_payload),
    ]
    methods = [
        (sd.SurvSample, "subset", "survdata.subset", None),
        (sim.TrialFrame, "write_csv", "simulation.TrialFrame.write_csv", None),
    ]
    return functions, methods


CLI_COMMANDS = ("simulate", "cut", "km", "fit", "boot", "cv", "predict", "followup")
LIBRARY_SPANS = (
    "survdata.km_fit", "survdata.subset", "survdata.cut_data", "estimation.fit",
    "estimation.fit_bfs", "estimation.fit_ols", "estimation.fit_hybrid",
    "estimation.fit_segmented_line", "estimation.mle_given_breakpoints", "estimation.loglik",
    "estimation.piece_tally", "resampling.boot_fit", "resampling.cv_loglik",
    "distribution.sample", "distribution.conditional_sample", "prediction.predict_events",
    "prediction.event_interval", "prediction.timeline_for_events",
    "simulation.simulate_trial", "simulation.sim_followup",
)
CLI_SPANS = ("survdata.read_survival_csv", "simulation.TrialFrame.write_csv",
             *(f"cli.{c}" for c in CLI_COMMANDS))
# Spans that must record calls on each workload (the tracer's self-test).
EXPECTED_SPANS = {
    "interim_fit": LIBRARY_SPANS,
    "forecast": LIBRARY_SPANS,
    "cli_pipeline": LIBRARY_SPANS + CLI_SPANS,
}


COUNTS = ("estimation.rows_scored", "estimation.feasible_ratio", "estimation.ols_fallback_ratio",
          "resampling.replicate_fail_ratio", "distribution.draws_per_call",
          "prediction.subject_draws", "cli.bytes_written", "parallel.payload_bytes",
          "trace.overhead_s")


def per_layer_names() -> list[str]:
    names = []
    for span in LIBRARY_SPANS + CLI_SPANS:
        names += [f"{span}.self_s"] if span.startswith("cli.") else [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNTS)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    if name == "distribution.draws_per_call":
        return "draws/call"
    return "count"


# ---------------------------------------------------------------------------
# runs


def _budget(seconds):
    """Yields once per step while another step as long as the last one still
    fits in ``seconds`` (always for the first step), so a run measures about
    ``seconds`` and never overruns by a whole step."""
    t0 = perf_counter()
    last = 0.0
    while last == 0.0 or perf_counter() - t0 + last <= seconds:
        t = perf_counter()
        yield
        last = perf_counter() - t


def run_untraced(workload, seed, seconds, pass_seed, calibration):
    passes = []
    for _ in _budget(seconds):
        s = pass_seed(seed, len(passes))
        out, out.factor = calibration.measure(workload.run_pass, s)
        workload.check(out, s, first=not passes)
        passes.append(out)
    return passes


def run_traced(workload, name, seed, seconds, pass_seed):
    """Pairs of passes on the same inputs, untraced then traced; the
    difference of their wall times is the tracing overhead."""
    from tracer import Tracer

    tracer = Tracer()
    functions, methods = traced_layers()
    plain, traced, layer = [], [], []
    for _ in _budget(seconds):
        s = pass_seed(seed, len(traced))
        out = workload.run_pass(s)
        workload.check(out, s, first=not traced)
        plain.append(out)
        begin, before = tracer.mark(), dict(tracer.counters)
        tracer.install(functions, methods)
        try:
            out = workload.run_pass(s, span=tracer.span)
        finally:
            tracer.uninstall()
        workload.check(out, s, first=False)
        counts = {k2: v - before.get(k2, 0) for k2, v in tracer.counters.items()}
        if hasattr(workload, "bytes_written"):
            counts["bytes_written"] = workload.bytes_written()
        layer.append((tracer.summarize(begin, tracer.mark()), counts))
        traced.append(out)

    per_pass = lambda span, i: [s.get(span, (0, 0.0))[i] for s, _ in layer]
    calls = {span: median(per_pass(span, 0)) for span in LIBRARY_SPANS + CLI_SPANS}
    metrics = {}
    for m in per_layer_names():
        span, _, kind = m.rpartition(".")
        if kind in ("calls", "self_s") and span in calls:
            metrics[m] = calls[span] if kind == "calls" else median(per_pass(span, 1))
    total = {}
    for _, counts in layer:
        for k2, v in counts.items():
            total[k2] = total.get(k2, 0) + v
    ratio = lambda a, b: total.get(a, 0) / total[b] if total.get(b) else 0.0
    metrics.update({
        "estimation.rows_scored": median([c.get("rows_scored", 0) for _, c in layer]),
        "estimation.feasible_ratio": ratio("bfs_feasible", "bfs_rows"),
        "estimation.ols_fallback_ratio": ratio("ols_fallbacks", "ols_fits"),
        "resampling.replicate_fail_ratio": ratio("replicates_failed", "replicates"),
        "distribution.draws_per_call": ratio("draws", "draw_calls"),
        "prediction.subject_draws": median([c.get("subject_draws", 0) for _, c in layer]),
        "cli.bytes_written": median([c.get("bytes_written", 0) for _, c in layer]),
        "parallel.payload_bytes": median([c.get("payload_bytes", 0) for _, c in layer]),
        "trace.overhead_s": median([sum(t.times.values()) - sum(p.times.values())
                                    for p, t in zip(plain, traced)]),
    })
    silent = [s for s in EXPECTED_SPANS[name] if calls[s] == 0]
    if workload.pool_size > 1 and not metrics["parallel.payload_bytes"]:
        silent.append("parallel.parallel_map")
    notes = {
        "traced_passes": len(traced),
        "spans_recorded": tracer.mark(),
        "pool_maps_per_pass": median([c.get("pool_maps", 0) for _, c in layer]),
        "pool_workers": "spans inside pool workers are not visible to this process; "
                        "the time of a pool map counts in its caller's self_s",
    }
    return plain + traced, metrics, silent, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pwexp" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/pwexp; run from a pwexp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    import numpy as np
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {wl.WORKLOADS}", file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_work" / str(os.getpid())
    calibration = Calibration(np)
    try:
        module = "pwexp.cli" if args.workload == "cli_pipeline" else "pwexp"
        startup, setup_factor = calibration.measure(
            lambda: [time_startup(module) for _ in range(STARTUP_REPEATS)])
        t0 = perf_counter()
        workload = wl.make(args.workload, scratch / "pass")
        setup_raw = median(startup) + perf_counter() - t0
        if args.trace:
            passes, metrics, silent, notes = run_traced(workload, args.workload, args.seed,
                                                        args.seconds, wl.pass_seed)
            units = {m: per_layer_unit(m) for m in metrics}
        else:
            passes = run_untraced(workload, args.seed, args.seconds, wl.pass_seed, calibration)
            silent, notes = [], {}
            raw = {st: [p.times[st] for p in passes] for st in wl.STAGES}
            raw["wall_s"] = [sum(p.times.values()) for p in passes]
            samples = {m: [v * p.factor for v, p in zip(vals, passes)] for m, vals in raw.items()}
            metrics = {m: median(v) for m, v in samples.items()}
            attempted = sum(p.attempted for p in passes)
            metrics["setup_s"] = setup_raw * setup_factor
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["ok_ratio"] = (attempted - sum(p.failed for p in passes)) / attempted
            units = {m: "s" for m in metrics}
            units.update(peak_rss_mb="MB", ok_ratio="ratio")
            notes["samples"] = {m: {"n": len(v), "tail": dict(zip(("pct", "value"), tail(v))),
                                    "values": v, "raw_median": median(raw[m]), "raw": raw[m]}
                                for m, v in samples.items()}
            notes["speed_factors"] = [p.factor for p in passes]
            notes["setup"] = {"raw_s": setup_raw, "speed_factor": setup_factor, "startup_s": startup}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    problems = sorted({p for out in passes for p in out.problems})
    problems += [f"tracer self-test: {s} recorded no call" for s in silent]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__, "nproc": os.cpu_count(),
        "pool_size": workload.pool_size, "thread_pins": THREAD_PINS,
        "checksum": hashlib.sha256(repr(passes[0].digest).encode()).hexdigest(),
        "problems": problems, **notes,
    }
    print("record " + json.dumps(record))
    attempted = sum(p.attempted for p in passes)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(p.failed for p in passes),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
