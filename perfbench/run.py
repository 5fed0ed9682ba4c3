"""Benchmark of the emlaopt pipeline: bilevel grid, closed-loop tracking, efficiency maps.

    python3 perfbench/run.py --workload bilevel_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is imported from src/.  Every
repetition runs in a fresh process with one worker and one BLAS/OpenMP
thread.  With --trace 0 the run makes

  - SETUP_REPS processes that only set up, each after a process that only
    imports NumPy and SciPy (set-up time),
  - timed repetitions until --seconds have passed, at least one (work time
    on the calibrated segment clock, peak memory),
  - one profiled repetition (function-call count), whose outputs are checked,

and prints the end-to-end metrics.  With --trace 1 it makes one traced
repetition, checks its outputs, writes the spans to
perfbench/out/<workload>-seed<N>-trace.json and prints the per-layer
metrics.  The last line of standard output is one JSON object; the exit
code is 0 only if every check passed and no operation failed.  See
README.md for what each metric means and which change should move it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("bilevel_grid", "track_winner", "maps_rating")
SETUP_REPS = 3
MAX_TIMED_REPS = 8
# every run ends within this, whatever its repetitions take
RUN_TIMEOUT_S = 175
ONE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class RepError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, rep_dir: Path, deadline: float, check=False):
    """Run one repetition in a fresh process; return (record, peak RSS in MB)."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **ONE_THREAD)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--rep-dir", str(rep_dir)]
    if check:
        cmd.append("--check")
    with open(rep_dir / "worker.log", "w") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawn", repr(started)], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise RepError(f"{mode} repetition of {workload} ran out of time")
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    record_path = rep_dir / "record.json"
    if code != 0 or not record_path.exists():
        tail = (rep_dir / "worker.log").read_text()[-2000:]
        raise RepError(f"{mode} repetition of {workload} exited with {code}:\n{tail}")
    return json.loads(record_path.read_text()), usage.ru_maxrss / 1024.0


def library_import_seconds(deadline: float) -> float:
    """Wall time of a fresh interpreter importing the program's libraries."""
    import calib

    start = time.monotonic()
    subprocess.run([sys.executable, "-c", calib.LIBRARY_IMPORT], cwd=ROOT,
                   env=dict(os.environ, **ONE_THREAD), check=True,
                   timeout=max(deadline - start, 1.0))
    return time.monotonic() - start


def run_untraced(workload: str, seed: int, seconds: float, run_dir: Path, deadline) -> dict:
    import calib

    records, rss, setup_pairs = [], [], []
    for i in range(SETUP_REPS):
        lib_s = library_import_seconds(deadline)
        rec, _ = spawn(workload, seed, "setup", run_dir / f"setup{i}", deadline)
        records.append(rec)
        setup_pairs.append((rec["setup_s"], lib_s))
    timed = []
    first = time.monotonic()
    while not timed or (time.monotonic() - first < seconds and len(timed) < MAX_TIMED_REPS):
        rep_dir = run_dir / f"timed{len(timed)}"
        rec, peak = spawn(workload, seed, "timed", rep_dir, deadline)
        shutil.rmtree(rep_dir)
        timed.append(rec)
        rss.append(peak)
    profiled, _ = spawn(workload, seed, "profiled", run_dir / "profiled", deadline,
                        check=True)
    records += timed + [profiled]
    failures = [f for r in records for f in r["failures"]]
    digests = {json.dumps(r.get("outputs"), sort_keys=True) for r in timed + [profiled]}
    if len(digests) != 1:
        failures.append("repetitions with the same seed wrote different artifact bytes")
    metrics = {}
    if not failures:
        raw = min(sum(r["meter"]["segments"]) for r in timed)
        print(f"{workload}: {len(timed)} timed repetitions, fastest raw work {raw:.3f} s, "
              f"calibration median {statistics.median(c for r in timed for c in r['meter']['cal']):.5f} s, "
              f"raw set-up median {statistics.median(p[0] for p in setup_pairs):.3f} s, "
              f"library import median {statistics.median(p[1] for p in setup_pairs):.3f} s",
              file=sys.stderr)
        metrics = {
            "setup_s": {"value": calib.setup_seconds(setup_pairs), "unit": "s"},
            "work_s": {"value": calib.work_seconds([r["meter"] for r in timed]), "unit": "s"},
            "py_calls": {"value": profiled["py_calls"], "unit": "count"},
            "peak_rss_mb": {"value": max(rss), "unit": "MB"},
        }
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "failures": failures,
        "metrics": metrics,
    }


def run_traced(workload: str, seed: int, run_dir: Path, deadline) -> dict:
    rec, _ = spawn(workload, seed, "traced", run_dir / "traced", deadline, check=True)
    trace_path = OUT / f"{workload}-seed{seed}-trace.json"
    trace_path.write_text(json.dumps(rec.get("trace", {})))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in rec.get("layers", {}).items()}
    return {
        "correct": not rec["failures"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "failures": rec["failures"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emlaopt" / "__init__.py").is_file():
        print(f"error: the program's source src/emlaopt is missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run_dir = OUT / f"{name}-seed{args.seed}-{os.getpid()}"
        deadline = time.monotonic() + RUN_TIMEOUT_S
        try:
            if args.trace:
                result = run_traced(name, args.seed, run_dir, deadline)
            else:
                result = run_untraced(name, args.seed, args.seconds, run_dir, deadline)
        except (RepError, subprocess.SubprocessError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for failure in result.pop("failures"):
            print(f"{name}: CHECK FAILED: {failure}", file=sys.stderr)
        if result["correct"]:
            shutil.rmtree(run_dir, ignore_errors=True)
        results[name] = result
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
