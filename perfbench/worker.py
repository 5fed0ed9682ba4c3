"""One repetition of a workload, in a fresh process so no cache carries over.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --rep-dir DIR --spawn T [--check]

MODE is one of
  setup     set up (imports, inputs, configs) and stop;
  timed     run the work under the calibrated segment clock;
  profiled  run the work under cProfile and count its function calls;
  traced    run the work with spans at the program's public functions.
``--spawn`` is the parent's monotonic clock just before it started this
process.  ``--check`` runs the output checks after the work.  The record
goes to DIR/record.json.
"""

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "profiled", "traced"), required=True)
    parser.add_argument("--rep-dir", required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    start_import = time.monotonic()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import emlaopt.cli  # noqa: F401  (the program's entry point and all its layers)

    import workloads

    import_s = time.monotonic() - start_import
    rep_dir = Path(args.rep_dir)
    rep_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](rep_dir, args.seed)
    record = {"setup_s": time.monotonic() - args.spawn, "import_s": import_s,
              "attempted": 0, "failed": 0, "failures": []}

    if args.mode != "setup":
        try:
            record.update(_run(workload, args.mode, import_s))
        except Exception:
            record["failures"].append(f"{args.mode} repetition raised:\n{traceback.format_exc()}")
        if not record["failures"]:
            record["outputs"] = workload.outputs()
        if args.check and not record["failures"]:
            record["failures"] += workload.check()
    (rep_dir / "record.json").write_text(json.dumps(record))
    return 0


def _run(workload, mode: str, import_s: float) -> dict:
    if mode == "timed":
        import calib
        from tracer import undo

        calib.kernel()  # first-call costs stay out of the clock
        meter = calib.Meter()
        entries = workload.pulses(meter)
        meter.begin()
        try:
            attempted, failed = workload.run(meter)
            meter.tick()
        finally:
            undo(entries)
        return {"attempted": attempted, "failed": failed, "meter": meter.record()}

    if mode == "profiled":
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
        try:
            attempted, failed = workload.run()
        finally:
            profile.disable()
        # raw entries, one per code object: pstats merges functions that share
        # a (file, line, name) label, such as generated dataclass __init__s,
        # and which one survives depends on memory addresses
        calls = sum(entry.callcount for entry in profile.getstats())
        return {"attempted": attempted, "failed": failed, "py_calls": calls}

    import tracer

    trace = tracer.Tracer()
    tracer.install(trace)
    start = time.perf_counter()
    try:
        attempted, failed = workload.run()
    finally:
        work_s = time.perf_counter() - start
        tracer.undo(trace.undo)
    unseen = [name for name in workload.expects if trace.calls(name) == 0]
    metrics = tracer.layer_metrics(trace, import_s)
    doc = trace.to_doc()
    doc["work_s"] = work_s
    return {
        "attempted": attempted,
        "failed": failed,
        "layers": metrics,
        "trace": doc,
        "failures": [f"traced boundary {name} saw no calls" for name in unseen],
    }


if __name__ == "__main__":
    sys.exit(main())
