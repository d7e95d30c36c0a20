"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``child.py``); this process then checks that the run left no process,
shared-memory segment or working directory behind, prints every metric by
name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` the
workload runs twice, untraced and traced, and the metrics are the per-layer
ones plus the tracing overhead between the two runs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import uuid

import metrics

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("bulk-uniform", "kmer-stream", "service-jobs", "sharded-build")
SHM = pathlib.Path("/dev/shm")
TOKEN_VAR = "PERFBENCH_RUN"
#: Allowance for interpreter start-up, input generation and set-up.
CHILD_SLACK_S = 75.0


class BenchError(Exception):
    """A run that must not report a result."""


def processes_with(token: str) -> list:
    """PIDs of live processes whose environment carries this run's token."""
    marker = f"{TOKEN_VAR}={token}".encode()
    found = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            if marker in (entry / "environ").read_bytes().split(b"\0"):
                found.append(int(entry.name))
        except OSError:
            continue
    return found


def shm_names() -> set:
    return set(os.listdir(SHM)) if SHM.is_dir() else set()


def check_clean_exit(token: str, shm_before: set, workdir: pathlib.Path) -> list:
    """What the run left behind; removes it and returns a line for each."""
    leaks = []
    deadline = time.monotonic() + 1.0
    survivors = processes_with(token)
    while survivors and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = processes_with(token)
    for pid in survivors:
        leaks.append(f"process {pid} outlived the run")
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    for name in sorted(shm_names() - shm_before):
        leaks.append(f"shared-memory segment {name} outlived the run")
        try:
            (SHM / name).unlink()
        except OSError:
            pass
    if workdir.exists():
        left = sorted(p.name for p in workdir.iterdir())
        if left:
            leaks.append(f"working files {left} outlived the run")
        shutil.rmtree(workdir, ignore_errors=True)
    return leaks


def run_child(args, traced: bool, workdir: pathlib.Path, token: str) -> dict:
    env = dict(os.environ)
    env[TOKEN_VAR] = token
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--traced",
        str(int(traced)),
        "--workdir",
        str(workdir),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=args.seconds + CHILD_SLACK_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"the {args.workload} run did not finish in time") from exc
    if done.returncode != 0:
        raise BenchError(f"the {args.workload} run exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"the {args.workload} run printed no result")
    return json.loads(lines[-1])


def report(name: str, value: float, unit: str) -> None:
    print(f"{name:28s} {value:14.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    token = uuid.uuid4().hex
    shm_before = shm_names()
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    records = []
    error = None
    try:
        records.append(run_child(args, False, workdir, token))
        if args.trace:
            records.append(run_child(args, True, workdir, token))
    except BenchError as exc:
        error = str(exc)
    finally:
        leaks = check_clean_exit(token, shm_before, workdir)
    for line in leaks:
        print(f"perfbench: {line}", file=sys.stderr)
    if error is not None or leaks:
        if error is not None:
            print(f"perfbench: {error}", file=sys.stderr)
        return 1

    plain = records[0]
    print(f"workload {args.workload}, seed {args.seed}, {plain['rounds']} rounds")
    for name, value in {**plain["end_to_end"], **plain["workload_only"]}.items():
        unit = {**metrics.END_TO_END, **metrics.WORKLOAD_ONLY}[name][0]
        report(name, value, unit)
    problems = [p for record in records for p in record["problems"]]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"operations attempted {plain['attempted']}, failed {plain['failed']}")

    if args.trace:
        traced = records[1]
        layers = dict(traced["layers"])
        layers["trace.overhead_pct"] = 100.0 * (traced["work_s"] / plain["work_s"] - 1.0)
        print(f"traced run: {traced['rounds']} rounds")
        report("modelled_v100_mops", plain["modelled_v100_mops"], "Mops/s")
        for name, value in layers.items():
            report(name, value, metrics.PER_LAYER[name][0])
        chosen = {name: (layers[name], unit) for name, (unit, _) in metrics.PER_LAYER.items()}
    else:
        end_to_end = plain["end_to_end"]
        chosen = {name: (end_to_end[name], unit) for name, (unit, _) in metrics.END_TO_END.items()}
    result = {
        "correct": not problems,
        "attempted": plain["attempted"],
        "failed": plain["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
