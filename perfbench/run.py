"""Benchmark entry point; run it from the root of a polygroup checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It starts perfbench/worker.py for the workload (one process, one
thread, the package taken from ./src) and prints one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; set-up is measured
in SETUP_RUNS extra processes that stop when set-up ends, and setup_s is
the median over those and the measured run. With --trace 1 the worker
wraps the package's layers and the metrics are the per-layer ones. The
result line is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dieudonne", "torsion", "polytope", "cli-cold")
SETUP_RUNS = 2
TIMEOUT_S = 170
UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_p90_s": "s", "setup_s": "s",
         "peak_rss_mb": "MB", "output_terms": "count"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    # the work of a run is fixed (worker.ROUNDS); its job lists are sized
    # for --seconds 25, and TIMEOUT_S bounds a run whatever its value
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "polygroup", "__init__.py")):
        print("run.py: no package source at ./src/polygroup; run from the root "
              "of a polygroup checkout", file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "results")
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]

    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            lines, _ = start(cmd + ["--setup-only"], env, deadline)
            setups.append(lines[0]["ready"] - lines[0]["started"])
    prefix = [sys.executable, "-X", "importtime"] if args.trace else [sys.executable]
    lines, stderr = start(prefix + cmd[1:], env, deadline)
    ready, result = lines[0], lines[-1]
    metrics = result.pop("metrics")
    if args.trace:
        import tracing
        if args.workload != "cli-cold":
            metrics.update(tracing.import_times(stderr.splitlines()))
        units = tracing.metric_names()
    else:
        setups.append(ready["ready"] - ready["started"])
        metrics["setup_s"] = statistics.median(setups)
        units = UNITS
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {name: {"value": metrics[name], "unit": unit}
                       for name, unit in units.items()}}
    line = json.dumps(out)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(outdir, name), "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


def start(cmd, env, deadline):
    """Run a worker to its end; return its JSON lines and its stderr. The
    first line gets the monotonic time at which the process was started."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=env, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the worker and any CLI process it started
        proc.communicate()
        raise SystemExit("run.py: the worker ran past the time limit")
    sys.stderr.write("".join(l + "\n" for l in err.splitlines()
                             if not l.startswith("import time:")))
    if proc.returncode != 0:
        raise SystemExit(f"run.py: the worker exited with code {proc.returncode}")
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    lines[0]["started"] = started
    return lines, err


if __name__ == "__main__":
    sys.exit(main())
