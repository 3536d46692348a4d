#!/usr/bin/env python3
"""Benchmark of nclyap: one workload, measured from outside the program.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {hierarchy,block,converse}
                             --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload in one fresh child process for about S
seconds of whole rounds and prints the end-to-end metrics: ``setup_s``
(child spawn to its first task call), ``wall_s`` (mean round time) and
``peak_rss_mb`` (the child's peak resident set, from ``wait4``).
``wall_s`` is stated at the reference speed of ``calibrate.py``: the
machine the benchmark was built on drifts by up to 1.8x within a minute.
``--trace 1`` runs one untraced and one traced round, each in its own
child, and prints the per-layer metrics of the traced one together with
``trace.overhead_s``.  Every output is checked against ``oracles.py`` in
this process, which never imports nclyap.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

DEADLINE_S = 170.0   # a run must end within 180 s
THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0",
}
PER_LAYER_UNITS = {"calls": "count", "steps": "count", "repeat_calls": "count",
                   "escapes": "count", "refine_calls": "count", "distinct_dt": "count"}


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, seconds, out, deadline, trace=False, rounds=0):
    """Run workload.py in a fresh process; returns (record, spawn time, rusage)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
           "--rounds", str(rounds)] + (["--trace"] if trace else [])
    env = dict(os.environ, **THREAD_ENV)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise ChildFailed(f"{workload} child exceeded the time limit")
            time.sleep(0.02)
    finally:
        if proc.returncode is None:  # time limit or interrupt: stop the child
            proc.send_signal(signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited with status {proc.returncode}")
    record = json.loads((out / "result.json").read_text())
    return record, t_spawn, usage


def check(workload, records):
    import checks

    ok = True
    failed = 0
    for rec in records:
        for err in rec["errors"]:
            print(f"operation failed: {err}", file=sys.stderr)
        results, extra_failed, notes = checks.CHECKS[workload](rec)
        failed += rec["failed"] + extra_failed
        for name, passed, detail in results:
            print(f"check {name}: {'ok' if passed else 'FAILED'} {detail}", file=sys.stderr)
            ok = ok and passed
        for key, value in notes.items():
            print(f"note {key}: {value}", file=sys.stderr)
    return ok, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description="nclyap benchmark")
    parser.add_argument("--workload", required=True, choices=["hierarchy", "block", "converse"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "nclyap" / "__init__.py").is_file():
        print(f"nclyap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        if args.trace == 0:
            rec, t_spawn, usage = spawn(args.workload, args.seed, args.seconds,
                                        run_dir / "run", deadline)
            records = [rec]
            for key in ("round_walls", "raw_round_walls"):
                print(f"{key}: " + " ".join(f"{w:.4f}" for w in rec[key]), file=sys.stderr)
            print("round 0 operations: " + ", ".join(
                f"{label} {s:.3f}" for label, s in rec["op_seconds"][0].items()),
                file=sys.stderr)
            metrics = {
                "setup_s": {"value": rec["t_first_call"] - t_spawn, "unit": "s"},
                "wall_s": {"value": statistics.mean(rec["round_walls"]), "unit": "s"},
                "peak_rss_mb": {"value": usage.ru_maxrss / 1024.0, "unit": "MB"},
            }
        else:
            plain, _, _ = spawn(args.workload, args.seed, args.seconds,
                                run_dir / "plain", deadline, rounds=1)
            traced, _, _ = spawn(args.workload, args.seed, args.seconds,
                                 run_dir / "traced", deadline, trace=True, rounds=1)
            records = [plain, traced]
            metrics = {name: {"value": value,
                              "unit": PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")}
                       for name, value in traced["per_layer"].items()}
            metrics["trace.overhead_s"] = {
                "value": traced["round_walls"][0] - plain["round_walls"][0], "unit": "s"}
            spans = HERE / "out" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(run_dir / "traced" / "spans.jsonl", spans)
        correct, failed = check(args.workload, records)
    except ChildFailed as err:
        print(str(err), file=sys.stderr)
        return 1
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"outputs kept in {run_dir}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
