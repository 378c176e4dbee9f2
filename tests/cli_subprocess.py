"""The ``pwexp`` entry point as a user runs it: simulate -> cut -> fit ->
boot -> predict, each through ``python -m pwexp.cli`` in its own process.

Each command must exit 0 and leave one ``<output>.manifest.json`` per file
it writes, and nothing else; ``predict --model`` on a malformed JSON file
must exit 1 with an error line and no traceback. ``boot`` and ``followup
--by_group`` must write the same bytes with ``--threads 2`` as with
``--threads 1``, and no command may leave a process running. Needs no
install:

    PYTHONPATH=src python tests/cli_subprocess.py [WORKDIR]

WORKDIR (default: a temporary directory) must be empty or absent.
"""
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def pwexp(workdir: Path, *argv: str) -> subprocess.CompletedProcess:
    """Runs one command in a new session and process group. The command
    fails if it runs past 5 minutes, or if a process of that group is still
    alive once the command has exited."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with subprocess.Popen([sys.executable, "-m", "pwexp.cli", *argv], cwd=workdir, start_new_session=True,
                          env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE,
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
        (["fit", *data, *fit, "--out", "fit.json", "--curve-out", "curve.csv"], ["fit.json", "curve.csv"]),
        (["boot", *data, *fit, "--nsim", "4", "--out", "boot.json"], ["boot.json"]),
        (["boot", *data, *fit, "--nsim", "4", "--threads", "2", "--out", "boot2.json"], ["boot2.json"]),
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
    for serial, forked in [("boot.json", "boot2.json"), ("followup1.csv", "followup2.csv"),
                           ("followup1.csv.by_group.csv", "followup2.csv.by_group.csv")]:
        if (workdir / serial).read_bytes() != (workdir / forked).read_bytes():
            problems.append(f"{forked} (--threads 2) differs from {serial} (--threads 1)")
    expected = written | {f"{out}.manifest.json" for out in written}
    found = {p.name for p in workdir.iterdir()}
    if found != expected:
        problems.append(f"files other than the outputs and their manifests: {sorted(found ^ expected)}")
    (workdir / "bad.json").write_text('{"rates": 5}')
    run = pwexp(workdir, *predict, "--model", "bad.json", "--out", "bad.csv")
    if run.returncode != 1 or "Traceback" in run.stderr or not run.stderr.startswith("pwexp predict: error: "):
        problems.append(f"predict on a malformed model exited {run.returncode}:\n{run.stderr}")
    return problems


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(argv[0]) if argv else Path(tmp)
        workdir.mkdir(parents=True, exist_ok=True)
        problems = check(workdir)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("cli subprocess checks:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
