"""The ``pwexp`` entry point as a user runs it: simulate -> cut -> fit ->
boot -> predict, each through ``python -m pwexp.cli`` in its own process.

Each command must exit 0 and leave one ``<output>.manifest.json`` per file
it writes, and nothing else; ``predict --model`` on a malformed JSON file
must exit 1 with an error line and no traceback. ``boot`` must write the
same bytes with ``--threads 2`` and ``3`` as with ``--threads 1``, and
``followup --by_group`` with ``--threads 2``; ``boot`` on a sample too thin
for its base fit must exit 1 with the error line that ``fit`` prints, at
``--threads`` 1 and 2. ``fit --optimizer bfs`` and ``hybrid`` with a fixed
change-point and an excluded interval must write the bytes of the same fit
made in this process. No command may leave a process running. ``--help``,
``fit --help`` and an unrecognized argument after ``km`` must print what
``build_parser()`` prints in this process, with the same exit code, at a
terminal width of 80 columns. Needs no install:

    PYTHONPATH=src python tests/cli_subprocess.py [WORKDIR]

WORKDIR (default: a temporary directory) must be empty or absent.
"""
import json
import os
import signal
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

SRC = Path(__file__).resolve().parents[1] / "src"
PINNED_FIT = ["--nbreak", "2", "--fixed_breakpoints", "14", "--exclude_int", "23,Inf", "--seed", "3"]


def pwexp(workdir: Path, *argv: str) -> subprocess.CompletedProcess:
    """Runs one command in a new session and process group. The command
    fails if it runs past 5 minutes, or if a process of that group is still
    alive once the command has exited."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-m", "pwexp.cli", *argv], cwd=workdir, start_new_session=True,
                          env=dict(os.environ, PYTHONPATH=path, COLUMNS="80"), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            # returns once every process that holds the command's stdout has ended
            stdout, stderr = proc.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            return subprocess.CompletedProcess(proc.args, 1, stdout, f"timed out\n{stderr}")
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)
    return subprocess.CompletedProcess(proc.args, 1, stdout, f"left processes running\n{stderr}")


def check(workdir: Path) -> list[str]:
    """The problems found, empty when every check passes."""
    data = ["--in", "cut.csv"]
    fit = ["--nbreak", "1", "--optimizer", "hybrid", "--seed", "3"]
    predict = ["predict", *data, "--analysis_time", "15", "--eval_at", "20,30", "--n_each", "20",
               "--kind", "predictive", "--seed", "4"]
    steps = [
        (["simulate", "--rand_rate", "20", "--total_sample", "300", "--event", "0.1,0.05@6",
          "--drop_rate", "0.02", "--seed", "1", "--out", "trial.csv"], ["trial.csv"]),
        (["cut", "--in", "trial.csv", "--cut", "15", "--out", "cut.csv"], ["cut.csv"]),
        (["cut", "--in", "trial.csv", "--cut", "40", "--out", "late.csv"], ["late.csv"]),
        *((["fit", "--in", "late.csv", *PINNED_FIT, "--optimizer", o, "--out", f"pinned_{o}.json"],
           [f"pinned_{o}.json"]) for o in ("bfs", "hybrid")),
        (["fit", *data, *fit, "--out", "fit.json", "--curve-out", "curve.csv"], ["fit.json", "curve.csv"]),
        (["boot", *data, *fit, "--nsim", "4", "--out", "boot.json"], ["boot.json"]),
        *((["boot", *data, *fit, "--nsim", "4", "--threads", t, "--out", f"boot{t}.json"], [f"boot{t}.json"])
          for t in "23"),
        *((["followup", "--rand_rate", "20", "--total_sample", "200", "--groups", "trt=1,con=1",
            "--event", "trt=0.05", "--event", "con=0.1", "--drop_rate", "0.02", "--at", "6,12",
            "--by_group", "--rep", "5", "--threads", t, "--seed", "5", "--out", f"followup{t}.csv"],
           [f"followup{t}.csv", f"followup{t}.csv.by_group.csv"]) for t in "12"),
        ([*predict, "--model", "boot.json", "--out", "interval.csv", "--timeline_at", "100",
          "--timeline_out", "timeline.csv"], ["interval.csv", "timeline.csv"]),
    ]
    problems = []
    written = set()
    for argv, outputs in steps:
        run = pwexp(workdir, *argv)
        if run.returncode != 0:
            return problems + [f"pwexp {argv[0]} exited {run.returncode}:\n{run.stderr}"]
        for out in outputs:
            manifest = workdir / f"{out}.manifest.json"
            if not manifest.is_file():
                problems.append(f"pwexp {argv[0]}: no manifest for {out}")
            elif json.loads(manifest.read_text()) != {"subcommand": argv[0], "argv": argv}:
                problems.append(f"pwexp {argv[0]}: wrong manifest for {out}")
        written.update(outputs)
    for serial, forked in [("boot.json", "boot2.json"), ("boot.json", "boot3.json"),
                           ("followup1.csv", "followup2.csv"),
                           ("followup1.csv.by_group.csv", "followup2.csv.by_group.csv")]:
        if (workdir / serial).read_bytes() != (workdir / forked).read_bytes():
            problems.append(f"{forked} (more --threads) differs from {serial} (--threads 1)")
    expected = written | {f"{out}.manifest.json" for out in written}
    found = {p.name for p in workdir.iterdir()}
    if found != expected:
        problems.append(f"files other than the outputs and their manifests: {sorted(found ^ expected)}")
    (workdir / "bad.json").write_text('{"rates": 5}')
    run = pwexp(workdir, *predict, "--model", "bad.json", "--out", "bad.csv")
    if run.returncode != 1 or "Traceback" in run.stderr or not run.stderr.startswith("pwexp predict: error: "):
        problems.append(f"predict on a malformed model exited {run.returncode}:\n{run.stderr}")
    # four distinct event times, where two change-points need six KM steps
    (workdir / "thin.csv").write_text("followT,event\n" + "".join(f"{t},{int(t < 5)}\n" for t in range(1, 12)))
    thin = ["--in", "thin.csv", "--nbreak", "2", "--optimizer", "hybrid", "--seed", "3"]
    fitted = pwexp(workdir, "fit", *thin, "--out", "thin.json")
    if fitted.returncode != 1 or not fitted.stderr.startswith("pwexp fit: error: need at least 6 "):
        problems.append(f"fit on a thin sample exited {fitted.returncode}:\n{fitted.stderr}")
    for t in "12":
        run = pwexp(workdir, "boot", *thin, "--nsim", "4", "--threads", t, "--out", "thin.json")
        if (run.returncode, run.stderr) != (1, fitted.stderr.replace("pwexp fit:", "pwexp boot:", 1)):
            problems.append(f"boot --threads {t} on a thin sample exited {run.returncode}:\n{run.stderr}")
    if (workdir / "thin.json").exists():
        problems.append("a failed fit or boot wrote thin.json")
    return problems


def check_in_process(workdir: Path) -> list[str]:
    """The problems found in the ``fit`` runs with a fixed change-point and
    an excluded interval: each must write the bytes that ``fit`` and
    ``FitResult.save_json`` write in this process, and keep the fixed
    change-point, which every searched row joins."""
    sys.path.insert(0, str(SRC))
    from pwexp import FitConfig, fit, read_survival_csv

    data = read_survival_csv(workdir / "late.csv", time_col="followT", event_col="event")
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for optimizer in ("bfs", "hybrid"):
            cfg = FitConfig(nbreak=2, fixed_breakpoints=(14.0,), optimizer=optimizer,
                            exclude_int=(23.0, float("inf")), seed=3)
            res = fit(data, cfg)
            res.save_json(Path(tmp) / "fit.json")
            name = f"pinned_{optimizer}.json"
            if (workdir / name).read_bytes() != (Path(tmp) / "fit.json").read_bytes():
                problems.append(f"{name} differs from the in-process fit's save_json")
            if 14.0 not in res.model.breakpoints or any(b >= 23.0 for b in res.model.breakpoints):
                problems.append(f"{name}: breakpoints {res.model.breakpoints} lost 14 or entered [23, Inf)")
    return problems


def check_help(workdir: Path) -> list[str]:
    """The problems found in help and usage errors: each must match what
    ``build_parser()`` prints in this process."""
    sys.path.insert(0, str(SRC))
    from pwexp.cli import build_parser

    problems = []
    for argv in (["--help"], ["fit", "--help"], ["km", "--in", "x", "--out", "y", "--bogus", "1"]):
        out, err = StringIO(), StringIO()
        with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
            try:
                build_parser().parse_args(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code
        run = pwexp(workdir, *argv)
        if (run.returncode, run.stdout, run.stderr) != (code, out.getvalue(), err.getvalue()):
            problems.append(f"pwexp {' '.join(argv)} exited {run.returncode} and printed\n{run.stdout}{run.stderr}"
                            f"where build_parser() exits {code} and prints\n{out.getvalue()}{err.getvalue()}")
    return problems


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(argv[0]) if argv else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        problems = check(workdir)
        problems += (check_in_process(workdir) if not problems else []) + check_help(workdir)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("cli subprocess checks:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
