"""One workload in one process: set up, run a fixed number of rounds of
the job list, check every answer, print one JSON line.

Started by run.py with the package's `src` on PYTHONPATH. The first line
printed is the monotonic time at which set-up ended (interpreter start,
`import polygroup` and building the inputs); with --setup-only the
process stops there. Trace and work files go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import polygroup
import workloads

RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")
# rounds of the job list per run: a run does the same work whatever the
# speed of the machine; the job lists are sized for about 20 s
ROUNDS = {"dieudonne": 1, "torsion": 1, "polytope": 1, "cli-cold": 2}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    cls = workloads.WORKLOADS[args.workload]
    stem = os.path.join(RESULTS, f"trace-{args.workload}-s{args.seed}")
    trace_dir = None
    if args.workload == "cli-cold":
        if args.trace and not args.setup_only:
            trace_dir = stem
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
        wl = cls(args.seed, workdir, trace_dir)
    else:
        wl = cls(args.seed, polygroup)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace and trace_dir is None:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    rounds = ROUNDS[args.workload]
    times, failed = [], 0
    first, problems = None, []
    for _ in range(rounds):
        outs = []
        for job in wl.jobs:
            t0 = time.perf_counter()
            try:
                out = wl.run(job)
            except Exception as e:  # a failed operation is counted, not fatal
                out = e
            times.append(time.perf_counter() - t0)
            outs.append(out)
        failed += sum(isinstance(o, Exception) for o in outs)
        if first is None:
            first = outs
        else:
            for i, (a, b) in enumerate(zip(first, outs)):
                if not isinstance(a, Exception) and not isinstance(b, Exception) \
                        and wl.signature(a) != wl.signature(b):
                    problems.append(f"job {i}: answer changed between rounds")

    # checks, outside the timed region
    for i, (job, out) in enumerate(zip(wl.jobs, first)):
        if isinstance(out, Exception):
            print(f"job {i} failed: {out!r}", file=sys.stderr)
            continue
        problems += [f"job {i}: {p}" for p in wl.check(job, out)]
    for p in problems:
        print(f"check: {p}", file=sys.stderr)

    attempted = rounds * len(wl.jobs)
    jobs_per_s = attempted / sum(times)
    if args.trace:
        metrics = trace_metrics(stem, wl, tracer, trace_dir, jobs_per_s)
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        metrics = {
            "jobs_per_s": jobs_per_s,
            "job_p50_s": statistics.median(times),
            "job_p90_s": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "output_terms": sum(wl.terms(o) for o in first if not isinstance(o, Exception)),
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def trace_metrics(stem, wl, tracer, trace_dir, jobs_per_s):
    """Per-layer metrics. In-process spans go to <stem>.json; each traced
    CLI process wrote its own span and metric files into <stem>/."""
    import tracing
    if tracer is not None:
        tracer.write(stem + ".json")
        metrics = tracer.layer_metrics()
    else:
        metrics = dict.fromkeys(tracing.metric_names(), 0)
        for name in sorted(os.listdir(trace_dir)):
            if not name.endswith(".metrics.json"):
                continue
            with open(os.path.join(trace_dir, name)) as fh:
                for key, val in json.load(fh).items():
                    if key.endswith(("max_terms", "max_coeff_bits")):
                        metrics[key] = max(metrics[key], val)
                    else:
                        metrics[key] += val
        metrics.update(tracing.import_times(wl.import_lines))
    metrics["traced_jobs_per_s"] = jobs_per_s
    return metrics


if __name__ == "__main__":
    main()
