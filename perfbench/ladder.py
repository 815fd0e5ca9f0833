"""Scale ladders for the traced run: every layer, measured on its own.

Each call into a layer sits inside a span; the per-layer metrics are the
spans' self times and the counts recorded on them.  The ladders are the
same for every workload, so a traced run of any workload reports every
per-layer metric.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time

import phasegame as pg
import phasegame.cli

import gen
from spans import NullTracer
from workloads import AlgebraWorkload, Job

NULL_TRACER = NullTracer()

ALGEBRA_SIZES = (18, 32, 64, 128)
HORIZONS = (2, 3, 4, 5, 6)
PROBE_HORIZON = 7
GOAL_COUNTS = (1, 2, 3, 4)
GOAL_LADDER_HORIZON = 5
REPEATS = 3

# An open 15x13 grid, start in the middle, four objects at fixed offsets
# with two features each.  The table variant draws the features from a
# six-name universe (so powerset_lattice is table-backed), the set variant
# gives every object its own (eight names, set-backed); the compound games
# and their plays are identical, only the payoff lattice differs.
LADDER_OFFSETS = [(-3, -2), (3, -2), (-3, 2), (3, 2)]
LADDER_FEATURES = {
    "table": [["a0", "a1"], ["a2", "a3"], ["a4", "a5"], ["a0", "a3"]],
    "set": [["s0_0", "s0_1"], ["s1_0", "s1_1"], ["s2_0", "s2_1"],
            ["s3_0", "s3_1"]],
}


def ladder_scenario(horizon, backend, goals=4):
    objects = [{"id": "o%d" % i, "cell": [7 + dx, 6 + dy],
                "features": LADDER_FEATURES[backend][i],
                "goal": gen.GOAL_GENERATORS[i]}
               for i, (dx, dy) in enumerate(LADDER_OFFSETS[:goals])]
    return {"name": "ladder_h%d_%s" % (horizon, backend),
            "grid": ["." * 15] * 13, "start": [7, 6], "horizon": horizon,
            "goal_phase": "data:goal_phase.json", "free_move_goal": "a",
            "objects": objects}


def _median_run(argv, env, cwd):
    """Median wall time of a fresh interpreter running argv, and the median
    of what it prints when it prints a number."""
    walls, printed = [], []
    for _ in range(REPEATS):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable] + argv, env=env, cwd=cwd,
                              capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - t)
        if proc.stdout.strip():
            printed.append(float(proc.stdout))
    return (statistics.median(walls),
            statistics.median(printed) if printed else None)


def cli_layer(root, work_dir, tracer, metrics):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with tracer.span("cli.interp"):
        metrics["cli.interp_s"] = _median_run(["-c", "pass"], env, root)[0]
    with tracer.span("cli.import"):
        metrics["cli.import_s"] = _median_run(
            ["-c", "import time; t = time.perf_counter(); import phasegame; "
             "print(time.perf_counter() - t)"], env, root)[1]
    out = ["--out-dir", work_dir]
    verbs = {
        "verify": ["verify", "--lattice", "data:goal_lattice.json",
                   "--phase", "data:goal_phase.json"],
        "solve": ["solve", "data:goal_phase_candidates.json"] + out,
        "eval": ["eval", "--phase", "data:goal_phase.json",
                 gen.ESTIMATIONS[0][0]],
        "simulate": ["simulate", "data:four_goals_scenario.json"] + out,
        "oracle": ["oracle", "data:z3_monoid.json"],
        "facts": ["facts", "--phase", "data:goal_phase.json"],
    }
    failures = []
    for verb, argv in verbs.items():
        times = []
        for _ in range(REPEATS):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                t = time.perf_counter()
                with tracer.span("cli.verb", verb):
                    code = phasegame.cli.main(argv)
                times.append(time.perf_counter() - t)
            if code != 0:
                failures.append("in-process %s exited %d" % (verb, code))
        metrics["cli.verb_s.%s" % verb] = statistics.median(times)
    return REPEATS * (2 + len(verbs)), failures


def algebra_layer(root, rng, tracer, metrics):
    wl = AlgebraWorkload(root, None)
    shared = AlgebraWorkload.load_shared(root)
    goal = shared["goal_phase"]
    known = gen.ESTIMATIONS + gen.README_EVALS
    jobs = [Job("structure", (goal, known), ("goal", sorted(goal["op_class"])),
                18)]
    for n in ALGEBRA_SIZES[1:]:
        doc, model = gen.boolean_structure(rng, n)
        jobs.append(Job("structure",
                        (doc, gen.expr_batch(rng, model, len(known))),
                        ("meet", model), n))
    cands = shared["goal_phase_candidates"]
    jobs.append(Job("solve", cands, ("shipped", gen.table_of(goal)),
                    "shipped"))
    doc, table = gen.planted_table(rng, goal, 8, 3)
    jobs.append(Job("solve", doc, ("planted", table), "planted"))
    for m in (4, 5, 6):
        jobs.append(Job("oracle", gen.random_monoid(rng, m), m, m))
    failures = []
    for job in jobs:
        err = wl.check(job, wl.run(job, tracer))
        if err:
            failures.append(err)

    self_s = {k: sum(v) for k, v in tracer.self_times().items()}
    totals = tracer.totals()
    for n in ALGEBRA_SIZES:
        metrics["lattice.build_s.n%d" % n] = self_s[("lattice.build", n)]
        metrics["phase.load_s.n%d" % n] = self_s[("phase.load", n)]
        metrics["phase.verify_laws_s.n%d" % n] = \
            self_s[("phase.verify_laws", n)]
        metrics["phase.law_instances.n%d" % n] = \
            totals[("phase.verify_laws", n)]["law_instances"]
    metrics["phase.classify_s"] = sum(self_s[("phase.classify", n)]
                                      for n in ALGEBRA_SIZES)
    metrics["expr.eval_s"] = sum(self_s[("expr.eval", n)]
                                 for n in ALGEBRA_SIZES)
    metrics["expr.evals"] = sum(totals[("expr.eval", n)]["evals"]
                                for n in ALGEBRA_SIZES)
    solves = [totals[("solver.solve", k)] for k in ("shipped", "planted")]
    metrics["solver.solve_s"] = (self_s[("solver.solve", "shipped")]
                                 + self_s[("solver.solve", "planted")])
    metrics["solver.search_space"] = sum(c["search_space"] for c in solves)
    metrics["solver.completions"] = sum(c["completions"] for c in solves)
    for m in (4, 5, 6):
        metrics["subset_oracle.report_s.m%d" % m] = \
            self_s[("subset_oracle.report", m)]
    metrics["subset_oracle.subsets"] = sum(
        totals[("subset_oracle.report", m)]["subsets"] for m in (4, 5, 6))
    metrics["subset_oracle.facts"] = sum(
        totals[("subset_oracle.report", m)]["facts"] for m in (4, 5, 6))
    return len(jobs), failures


def _plays(trace):
    """Play count from the decision log's 'enumerated N alternated plays'."""
    words = trace.decision_log[0].split()
    if words[0] != "enumerated":
        raise ValueError("no play count in %r" % trace.decision_log[0])
    return int(words[1])


def planner_layer(root, rng, tracer, metrics):
    failures = []
    attempted = 0
    for h in HORIZONS:
        for backend in ("table", "set"):
            doc = ladder_scenario(h, backend)
            label = "h%d.%s" % (h, backend)
            # the cheap rungs run once untimed, then are timed three times
            # and the median kept, so that plan minus build is not lost in
            # warm-up and noise
            for rep in range(1 + REPEATS if h <= 4 else 1):
                spans_on = tracer if rep or h > 4 else NULL_TRACER
                sc = pg.load_scenario(doc)
                goals = sorted(sc.objects)
                with spans_on.span("planner.build", label):
                    game = pg.build_compound_game(sc, goals)
                # a fresh scenario, so plan_play builds its payoff lattice too
                sc = pg.load_scenario(doc)
                with spans_on.span("planner.plan", label):
                    trace = pg.plan_play(sc, goals)
                attempted += 1
            self_s = tracer.self_times()
            build = statistics.median(self_s[("planner.build", label)])
            plan = statistics.median(self_s[("planner.plan", label)])
            metrics["planner.build_s." + label] = build
            metrics["planner.plan_s." + label] = plan
            metrics["planner.search_s." + label] = plan - build
            metrics["planner.plays." + label] = _plays(trace)
            if h == HORIZONS[-1] and backend == "set":
                metrics["games.compound_vertices"] = len(game.game.vertices)
                metrics["games.compound_edges"] = len(game.game.edges)
            if h <= 3:
                want = gen.best_objective_size(game.game, game.k)
                if len(trace.objective) != want:
                    failures.append("ladder %s: objective %d, best %d"
                                    % (label, len(trace.objective), want))
            del game, trace

    # all four goals at h=5 is the h5.set rung of the horizon ladder
    metrics["planner.plan_s.g%d" % GOAL_COUNTS[-1]] = \
        metrics["planner.plan_s.h%d.set" % GOAL_LADDER_HORIZON]
    for g in GOAL_COUNTS[:-1]:
        sc = pg.load_scenario(ladder_scenario(GOAL_LADDER_HORIZON, "set", g))
        with tracer.span("planner.plan", "g%d" % g):
            pg.plan_play(sc, sorted(sc.objects))
        attempted += 1
        metrics["planner.plan_s.g%d" % g] = \
            tracer.self_times()[("planner.plan", "g%d" % g)][0]

    # the known limit: enumeration overflows its play cap at this horizon
    sc = pg.load_scenario(ladder_scenario(PROBE_HORIZON, "table"))
    metrics["planner.max_horizon"] = PROBE_HORIZON
    with tracer.span("planner.plan", "h%d.table" % PROBE_HORIZON):
        try:
            pg.plan_play(sc, sorted(sc.objects))
        except pg.PhasegameError as exc:
            if type(exc).__name__ != "InteractionOverflow":
                raise
            metrics["planner.max_horizon"] = HORIZONS[-1]
    attempted += 1

    sc = pg.load_scenario(ladder_scenario(GOAL_LADDER_HORIZON, "set"))
    with tracer.span("planner.select") as sp:
        sel = pg.select_goal_sets(sc, sorted(sc.objects), must_include="o0")
        sp.counts["candidates"] = len(sel.candidates)
    metrics["planner.select_s"] = tracer.self_times()[("planner.select",
                                                        None)][0]
    metrics["planner.candidates"] = len(sel.candidates)

    # the shipped scenario with the simulate verb's defaults, run twice:
    # the same seed must give a byte-identical trace
    doc = gen.load_json(os.path.join(gen.data_dir(root),
                                     "four_goals_scenario.json"))
    seed = rng.randrange(1000)
    texts = []
    for _ in range(2):
        with tracer.span("planner.cognition", "shipped"):
            trace = pg.run_cognition(pg.load_scenario(doc), seed=seed)
        texts.append(trace.to_json())
    if texts[0] != texts[1]:
        failures.append("same-seed cognition traces differ")
    metrics["planner.cognition_steps"] = trace.header["steps_taken"]
    return attempted + 2, failures


def run_ladders(root, work_dir, rng, tracer):
    """Every per-layer metric but the tracing overhead; returns
    (metrics, ops attempted, failure messages)."""
    metrics = {}
    attempted, failures = 0, []
    for layer in (cli_layer, algebra_layer, planner_layer):
        args = (root, work_dir) if layer is cli_layer else (root, rng)
        n, errs = layer(*args, tracer, metrics)
        attempted += n
        failures += errs
    return metrics, attempted, failures
