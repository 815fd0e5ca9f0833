"""One workload in one fresh interpreter: a single client, a closed loop.

Run by run.py, never directly.  Prints one JSON line with the raw results.
With --setup-only it imports phasegame, loads the workload's shared shipped
inputs, prints how long that took and exits.
"""

import argparse
import json
import os
import random
import resource
import statistics
import sys

import spans
import speed

# seconds a round takes at the reference speed (speed.py).  A run is the
# whole rounds that fill --seconds at that speed, so it does the same ops
# however fast the host happens to be.
NOMINAL_ROUND_S = {"cli": 3.2, "algebra": 10.0, "planner": 1.6}
REPEAT_CHECK_ROUNDS = 1
SETUP_PROBES = 5


def tail(latencies):
    """Latency at the highest percentile with at least 10 samples beyond it:
    the 11th largest.  Returns (percentile, value)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(wl, rounds, tracer):
    """Run every round.  Only the op is timed; preparing its input and
    checking its output are not.  A speed probe runs before the first op
    and after each, and the latencies returned are CPU seconds at the
    reference speed (speed.py)."""
    raw, failures = [], []
    probes = [speed.probe()]
    failed = 0
    first = {}          # job -> output, for jobs whose reruns must match
    for jobs in rounds:
        for job in jobs:
            arg = wl.prepare(job)
            t = speed.cpu_seconds()
            try:
                out, err = wl.run(arg, tracer), None
            except Exception as exc:  # an op that raises counts as failed
                out, err = None, "%s raised %s: %s" % (
                    job.kind, type(exc).__name__, exc)
            raw.append(speed.cpu_seconds() - t)
            probes.append(speed.probe())
            if err is None:
                out = wl.output(job, out)
                err = wl.check(job, out)
            if err is None and job.kind in wl.repeat_checked:
                if job not in first:
                    first[job] = out
                elif first[job] != out:
                    err = "same-seed rerun of %s gave different output" % (
                        job.kind)
            if err:
                failed += 1
                failures.append(err)
    return {"latencies": speed.corrected(raw, probes), "failed": failed,
            "failures": failures, "first": first}


def rerun_check(wl, rounds, first, limit):
    """Rerun the repeat-checked jobs of the first `limit` rounds that ran
    only once; returns the failure messages."""
    failures = []
    counts = {}
    for jobs in rounds:
        for job in jobs:
            counts[job] = counts.get(job, 0) + 1
    for jobs in rounds[:limit]:
        for job in jobs:
            if job in first and counts[job] == 1:
                out = wl.output(job, wl.run(wl.prepare(job),
                                            spans.NullTracer()))
                if out != first[job]:
                    failures.append("same-seed rerun of %s gave different "
                                    "output" % job.kind)
    return failures


def overhead(wl, rounds, seconds, tracer):
    """Run each job untraced and traced, alternating which goes first, until
    the untraced ops have been busy for `seconds`; pairing the runs cancels
    drift in the machine's speed.  Returns (traced / untraced busy time - 1,
    ops attempted, failure messages)."""
    null = spans.NullTracer()
    busy = {False: 0.0, True: 0.0}
    failures = []
    attempted = 0
    for i, job in enumerate(job for jobs in rounds for job in jobs):
        if busy[False] >= seconds:
            break
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            arg = wl.prepare(job)
            t = speed.cpu_seconds()
            raw = wl.run(arg, tracer if traced else null)
            busy[traced] += speed.cpu_seconds() - t
            attempted += 1
            err = wl.check(job, wl.output(job, raw))
            if err:
                failures.append(err)
    return busy[True] / busy[False] - 1.0, attempted, failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    before = [speed.probe() for _ in range(SETUP_PROBES)]
    t0 = speed.cpu_seconds()
    import phasegame  # noqa: F401  the import is part of set-up time
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    shared = cls.load_shared(args.root)
    setup_s = speed.cpu_seconds() - t0
    after = [speed.probe() for _ in range(SETUP_PROBES)]
    setup_s = speed.scaled(setup_s, before + after)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rng = random.Random(args.seed)
    wl = cls(args.root, args.work_dir)
    count = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    rounds = wl.rounds(rng, shared, count)

    if not args.trace:
        res = measure(wl, rounds, spans.NullTracer())
        rerun = rerun_check(wl, rounds, res["first"],
                            REPEAT_CHECK_ROUNDS)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" \
            else resource.RUSAGE_SELF
        lat = res["latencies"]
        pct, tail_s = tail(lat)
        result = {
            "setup_s": setup_s,
            "attempted": len(lat),
            "failed": res["failed"] + len(rerun),
            "busy_s": sum(lat),
            "rounds": count,
            "p50_s": statistics.median(lat),
            "tail_s": tail_s,
            "tail_pct": pct,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            "failures": (res["failures"] + rerun)[:10],
        }
    else:
        import ladder
        tracer = spans.Tracer()
        frac, paired, failures = overhead(wl, rounds, args.seconds / 8.0,
                                          tracer)
        ladder_tracer = spans.Tracer()
        metrics, attempted, errs = ladder.run_ladders(
            args.root, args.work_dir, rng, ladder_tracer)
        metrics["trace.overhead_frac"] = frac
        failures += errs
        path = os.path.join(args.root, ".perfbench_out", "spans-%s-seed%d.json"
                            % (args.workload, args.seed))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": tracer.records(),
                       "ladder": ladder_tracer.records()}, fh)
        result = {
            "setup_s": setup_s,
            "attempted": paired + attempted,
            "failed": len(failures),
            "metrics": metrics,
            "failures": failures[:10],
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
