"""The ``pwexp`` entry point as a user runs it: simulate -> cut -> fit ->
boot -> predict, each through ``python -m pwexp.cli`` in its own process.

Each command must exit 0 and leave one ``<output>.manifest.json`` per file
it writes, and nothing else; ``predict --model`` on a malformed JSON file
must exit 1 with an error line and no traceback. Needs no install:

    PYTHONPATH=src python tests/cli_subprocess.py [WORKDIR]

WORKDIR (default: a temporary directory) must be empty or absent.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def pwexp(workdir: Path, *argv: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "pwexp.cli", *argv], cwd=workdir,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


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
