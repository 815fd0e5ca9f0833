"""phasegame benchmark.

    python3 perfbench/run.py --workload {cli,algebra,planner,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; it needs nothing but the Python standard
library and the checkout's own src/.  Each workload runs in one fresh
worker interpreter (one client, a closed loop, no threads).  Times are
corrected for the host's CPU speed, which drifts (speed.py).  The last line
of standard output is one JSON object: with --trace 0 the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
BENCHMARK.json lists the metrics, and why each workload exists.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli", "algebra", "planner")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


def worker(args, *extra):
    """Run perfbench/worker.py in a fresh interpreter; its last stdout line
    is a JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--work-dir", args.work_dir] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker failed: %s" % " ".join(extra))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(args, workload):
    """Set-up time of fresh interpreters, at the reference speed; the first
    probe only warms the bytecode and file caches and is dropped."""
    probe = ["--workload", workload, "--setup-only"]
    worker(args, *probe)
    return [worker(args, *probe)["setup_s"] for _ in range(SETUP_PROBES)]


def run_workload(args, workload):
    setups = setup_times(args, workload)
    res = worker(args, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace))
    setups.append(res["setup_s"])
    setup_s = statistics.median(setups)
    for msg in res["failures"]:
        print("FAILED: %s" % msg)
    if args.trace:
        units = {m["name"]: m["unit"] for m in args.spec["per_layer"]}
        metrics = {k: {"value": v, "unit": units.get(k)}
                   for k, v in sorted(res["metrics"].items())}
        print("%s traced run: %d per-layer metrics, spans in .perfbench_out/"
              % (workload, len(metrics)))
        for name, m in metrics.items():
            print("  %-34s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        n = res["attempted"]
        ok = n - res["failed"]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ok / res["busy_s"], "unit": "1/s"},
            "op_s.p50": {"value": res["p50_s"], "unit": "s"},
            "op_s.tail": {"value": res["tail_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print("%s: seed %d, %d rounds, %d ops" % (workload, args.seed,
                                                   res["rounds"], n))
        notes = {
            "setup_s": "median of %d fresh interpreters" % len(setups),
            "ops_per_s": "%d correct ops / %.3f CPU s" % (ok, res["busy_s"]),
            "op_s.p50": "%d samples" % n,
            "op_s.tail": "p%.1f, %d samples, 10 beyond" % (res["tail_pct"],
                                                            n),
            "peak_rss_mb": ("largest verb process" if workload == "cli"
                            else "worker process"),
        }
        for name, m in metrics.items():
            print("  %-12s %12.6g %-4s %s" % (name, m["value"], m["unit"],
                                             notes[name]))
        print("  %-12s %12.6g %-4s %d failed of %d attempted"
              % ("failed_frac", res["failed"] / float(n), "1",
                 res["failed"], n))
    listed = args.spec["per_layer" if args.trace else "end_to_end"]
    if {(m["name"], m["unit"]) for m in listed} != {
            (k, m["unit"]) for k, m in metrics.items()}:
        raise SystemExit("metrics differ from BENCHMARK.json")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "phasegame",
                                       "__init__.py")):
        sys.exit("error: no src/phasegame in %s; run from a checkout" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        args.spec = json.load(fh)
    args.work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(args, w) for w in names]
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
