"""The three workloads: seeded job lists, the timed op, and the output check.

A workload is run in rounds.  Each round is a list of jobs; jobs are made
before any timing starts, the op alone is timed, and its output is checked
against a known answer afterwards, outside the timed interval.  Checks never
compare the program with itself, except where byte-identical output for the
same seed is the contract being checked.
"""

import json
import os
import shutil
import subprocess
import sys

import phasegame as pg

import gen


class Job:
    __slots__ = ("kind", "args", "expect", "key")

    def __init__(self, kind, args, expect=None, key=None):
        self.kind = kind        # op name, also the span name
        self.args = args        # what the op is given
        self.expect = expect    # the known answer
        self.key = key          # scale label for traced spans


# cli -------------------------------------------------------------------

class CliWorkload:
    """Each verb as a user runs it: a fresh `python -m phasegame.cli`."""

    name = "cli"
    # same-seed reruns of a job must give byte-identical output
    repeat_checked = ("simulate",)

    def __init__(self, root, work_dir):
        self.root = root
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cmd = [sys.executable, "-m", "phasegame.cli"]

    @staticmethod
    def load_shared(root):
        return (pg.load_lattice("data:goal_lattice.json"),
                pg.load_phase("data:goal_phase.json"))

    def rounds(self, rng, shared, count):
        phase = ["--phase", "data:goal_phase.json"]
        base = [
            Job("verify", ["verify", "--lattice", "data:goal_lattice.json"]
                + phase, (0, None)),
            Job("verify", ["verify", "--phase", "data:goal_phase_alt.json"],
                (1, None)),
            Job("solve", ["solve", "data:goal_phase_candidates.json"],
                (0, "two_solutions")),
            Job("facts", ["facts"] + phase, (0, "PASS facts: 12 of 18 ")),
        ]
        for text, value in gen.ESTIMATIONS + gen.README_EVALS:
            base.append(Job("eval", ["eval"] + phase + [text], (0, value)))
        for emit, mode in (("json", "practical"), ("dot", "practical"),
                           ("both", "practical"), ("json", "strict")):
            base.append(Job("simulate",
                            ["simulate", "data:four_goals_scenario.json",
                             "--emit", emit, "--mode", mode, "--seed",
                             str(rng.randrange(1000))], (0, emit)))
        for monoid in ("z2", "z3", "trivial"):
            base.append(Job("oracle", ["oracle", "data:%s_monoid.json"
                                       % monoid], (0, "all_pass")))
        base.append(Job("usage", rng.choice([
            ["eval"] + phase,
            ["eval"] + phase + ["a -o"],
            ["frobnicate"],
            ["oracle"],
            ["simulate", "data:four_goals_scenario.json", "--mode", "lazy"],
        ]), (2, None)))
        out = []
        for _ in range(count):
            jobs = list(base)
            rng.shuffle(jobs)
            out.append(jobs)
        return out

    def prepare(self, job):
        """Untimed: give ops that write files an empty output directory."""
        if job.kind in ("solve", "simulate"):
            shutil.rmtree(self.work_dir, ignore_errors=True)
            os.makedirs(self.work_dir)
            return job.args + ["--out-dir", self.work_dir]
        return job.args

    def run(self, argv, tracer):
        with tracer.span("cli.%s" % argv[0]):
            proc = subprocess.run(self.cmd + argv, cwd=self.root,
                                  env=self.env, capture_output=True,
                                  text=True)
        return proc

    def output(self, job, proc):
        """The comparable output of an op: exit code, stdout and any file
        it wrote (traces for simulate)."""
        files = {}
        if job.kind in ("solve", "simulate") and os.path.isdir(self.work_dir):
            for name in sorted(os.listdir(self.work_dir)):
                with open(os.path.join(self.work_dir, name)) as fh:
                    files[name] = fh.read()
        return proc.returncode, proc.stdout, proc.stderr, files

    def check(self, job, out):
        code, stdout, stderr, files = out
        want_code, want = job.expect
        if code != want_code:
            return "exit %s, want %s" % (code, want_code)
        if "Traceback" in stderr:
            return "traceback on stderr"
        if job.kind == "eval" and stdout.strip() != want:
            return "eval %r gave %r, want %r" % (job.args[-1], stdout.strip(),
                                                 want)
        if job.kind == "facts" and want not in stdout:
            return "facts census missing %r" % want
        if job.kind == "solve":
            sols = [n for n in files if "_solution_" in n]
            if len(sols) != 2:
                return "solve wrote %d completions, want 2" % len(sols)
        if job.kind == "oracle":
            lines = stdout.splitlines()
            if not lines or lines[-1] != "oracle: pass" or any(
                    not ln.startswith("PASS ") for ln in lines[:-1]):
                return "oracle law failed"
        if job.kind == "simulate":
            want_files = {"json": ["four_goals_scenario_trace.json"],
                          "dot": ["four_goals_scenario_trace.dot"],
                          "both": ["four_goals_scenario_trace.dot",
                                   "four_goals_scenario_trace.json"]}[want]
            if sorted(n for n in files if "_trace." in n) != want_files:
                return "simulate wrote %s" % sorted(files)
        return None


# algebra ---------------------------------------------------------------

# One round: 54 ops, about 9 s on a 2-core x86 machine, so a 20 s run is
# three rounds and 162 ops.  The op classes are sized so that the median
# falls in the middle of the cheap ops (n<=32, solver, small oracles) and
# the tail (the 11th largest latency) inside the n=64 structures, not on a
# boundary between classes.
ALGEBRA_ROUND = [
    # (structure kind, n, copies per round); "large" is a seeded choice of
    # Boolean or down-set lattice
    ("goal", 18, 6), ("alt", 18, 1),
    ("boolean", 32, 8), ("downset", 32, 8),
    ("boolean", 64, 6), ("downset", 64, 6),
    ("large", 128, 1),
]
EVALS_PER_STRUCTURE = 24
SHIPPED_SOLVES_PER_ROUND = 2
PLANTED_PER_ROUND = 7
ORACLE_SIZES = (4, 5, 6) * 3


class AlgebraWorkload:
    """Phase structures on a size ladder, the table solver and the oracle."""

    name = "algebra"
    repeat_checked = ()

    def __init__(self, root, work_dir):
        pass

    @staticmethod
    def load_shared(root):
        d = gen.data_dir(root)
        return {name: gen.inline_lattice(root, gen.load_json(
            os.path.join(d, name + ".json")))
            for name in ("goal_phase", "goal_phase_alt",
                         "goal_phase_candidates")}

    def rounds(self, rng, shared, count):
        goal, alt = shared["goal_phase"], shared["goal_phase_alt"]
        known = gen.ESTIMATIONS + gen.README_EVALS
        out = []
        for _ in range(count):
            jobs = []
            for kind, n, copies in ALGEBRA_ROUND:
                for _ in range(copies):
                    if kind == "goal":
                        evals = [rng.choice(known)
                                 for _ in range(EVALS_PER_STRUCTURE)]
                        expect = ("goal", sorted(goal["op_class"]))
                        jobs.append(Job("structure", (goal, evals), expect, n))
                    elif kind == "alt":
                        evals = [(rng.choice(gen.ESTIMATIONS)[0],
                                  gen.ALT_VALUE)
                                 for _ in range(EVALS_PER_STRUCTURE)]
                        jobs.append(Job("structure", (alt, evals),
                                        ("alt", None), n))
                    else:
                        if kind == "large":
                            kind = rng.choice(["boolean", "downset"])
                        make = (gen.boolean_structure if kind == "boolean"
                                else gen.downset_structure)
                        doc, model = make(rng, n)
                        evals = gen.expr_batch(rng, model,
                                               EVALS_PER_STRUCTURE)
                        jobs.append(Job("structure", (doc, evals),
                                        ("meet", model), n))
            cands = shared["goal_phase_candidates"]
            for _ in range(SHIPPED_SOLVES_PER_ROUND):
                jobs.append(Job("solve", cands,
                                ("shipped", gen.table_of(goal)), "shipped"))
            for _ in range(PLANTED_PER_ROUND):
                doc, table = gen.planted_table(rng, goal,
                                               rng.randint(6, 10), 3)
                jobs.append(Job("solve", doc, ("planted", table), "planted"))
            for m in ORACLE_SIZES:
                jobs.append(Job("oracle", gen.random_monoid(rng, m), m, m))
            rng.shuffle(jobs)
            out.append(jobs)
        return out

    def prepare(self, job):
        return job

    def run(self, job, tracer):
        if job.kind == "structure":
            doc, evals = job.args
            with tracer.span("algebra.structure", job.key):
                with tracer.span("lattice.build", job.key):
                    lat = pg.lattice_from_doc(doc["lattice"])
                with tracer.span("phase.load", job.key):
                    ps = pg.phase_from_doc(doc, lattice=lat)
                with tracer.span("phase.verify_laws", job.key) as sp:
                    report = pg.verify_laws(ps)
                    sp.counts["law_instances"] = sum(
                        law["checked"] for law in report["laws"])
                with tracer.span("phase.classify", job.key):
                    try:
                        opened = sorted(pg.classify(ps).open_class)
                    except pg.PhasegameError as exc:
                        opened = type(exc).__name__
                with tracer.span("expr.eval", job.key) as sp:
                    values = [pg.eval_expr(ps, text) for text, _ in evals]
                    sp.counts["evals"] = len(values)
            return report["ok"], opened, values
        if job.kind == "solve":
            with tracer.span("solver.solve", job.key) as sp:
                sols = pg.solve_table(job.args)
                sp.counts["search_space"] = gen.search_space(job.args)
                sp.counts["completions"] = len(sols)
            return [gen.table_of(s) for s in sols]
        els, mult, unit, pole, _ = job.args
        with tracer.span("subset_oracle.report", job.key) as sp:
            report = pg.oracle_report(els, mult, unit, pole)
            sp.counts["subsets"] = report["subsets"]
            sp.counts["facts"] = report["facts"]
        return report

    def output(self, job, out):
        return out

    def check(self, job, out):
        if job.kind == "structure":
            ok, opened, values = out
            kind, known = job.expect
            wants = [want for _, want in job.args[1]]
            if values != wants:
                bad = next(i for i, (v, w) in enumerate(zip(values, wants))
                           if v != w)
                return "eval %r gave %r, want %r" % (
                    job.args[1][bad][0], values[bad], wants[bad])
            if kind == "alt":
                return None if not ok else "goal_phase_alt passed verify_laws"
            if not ok:
                return "lawful n=%s structure failed verify_laws" % job.key
            if kind == "goal":
                return None if opened == known else "open class %r" % opened
            model = known
            if model.facts_join_closed():
                want = sorted(model.names[s] for s in model.facts())
            else:
                want = "NotClosedClass"
            return None if opened == want else "classify gave %r" % (opened,)
        if job.kind == "solve":
            kind, table = job.expect
            if table not in out:
                return "%s table is not among the completions" % kind
            if kind == "shipped" and len(out) != 2:
                return "shipped candidates gave %d completions" % len(out)
            return None
        m = job.expect
        if not out["ok"] or any(law["status"] != "pass"
                                for law in out["laws"]):
            return "oracle law failed on a %d-element monoid" % m
        if out["subsets"] != 1 << m:
            return "oracle saw %d subsets, want %d" % (out["subsets"], 1 << m)
        if out["facts"] != job.args[-1]:
            return "oracle counted %d facts, want %d" % (out["facts"],
                                                         job.args[-1])
        return None


# planner ---------------------------------------------------------------

# Seventeen jobs a round: six cheap h=2 ones, four near the median cost and
# five dearer ones, so the median falls inside one class, and twice a steady
# dear configuration (four goals of three features at h=4), so the tail, the
# 11th largest latency, falls among its costs rather than among the
# seed-dependent outliers of the h=5 configurations.
_STEADY_DEAR = (13, 11, 0.0, 4, ["J1a", "b2", "b3", "e"], [3, 3, 3, 3], None)
PLANNER_ROUND = [
    # (width, height, obstacle density, horizon, goal generators,
    #  features per object, shared feature universe or None for distinct)
    (7, 7, 0.0, 2, ["b2", "e"], [2, 2], None),
    (7, 7, 0.1, 2, ["J1a", "e"], [2, 2], None),
    (7, 9, 0.2, 2, ["J1a", "b3"], [2, 2], None),
    (9, 7, 0.1, 2, ["b2", "b3", "e"], [2, 2, 3], None),
    (9, 9, 0.0, 2, ["b2", "b3"], [2, 3], None),
    (9, 9, 0.1, 2, ["J1a", "b2", "b3", "e"], [3, 3, 2, 2], None),
    (11, 9, 0.1, 3, ["J1a", "b3", "e"], [2, 2, 2], None),
    (9, 7, 0.2, 3, ["b2", "b3", "e"], [3, 3, 3], None),
    (13, 11, 0.0, 3, ["J1a", "b2", "b3", "e"], [2, 2, 2, 2], None),
    (13, 11, 0.0, 4, ["J1a", "e"], [2, 2], None),
    (15, 13, 0.2, 4, ["b2", "b3", "e"], [3, 2, 2], None),
    (15, 13, 0.0, 5, ["b3", "e"], [2, 3], None),
    (15, 13, 0.0, 5, ["J1a"], [3], None),
    (11, 11, 0.0, 3, ["J1a", "b2", "b3", "e"], [2, 3, 2, 2],
     ["t%d" % i for i in range(6)]),
    (9, 9, 0.0, 4, ["b2", "e"], [2, 2], ["t%d" % i for i in range(4)]),
    _STEADY_DEAR,
    _STEADY_DEAR,
]
# One cognition step per op: discover, select, plan one play, move and
# reveal.  Longer runs multiply the per-op cost by a seed-dependent number of
# steps (0 to max_steps), which spreads the figures far more than the bounds
# allow.
PLANNER_MAX_STEPS = 1
BRUTE_FORCE_HORIZON = 3


class PlannerWorkload:
    """The cognition loop on seeded gridworlds."""

    name = "planner"
    repeat_checked = ("cognition",)

    def __init__(self, root, work_dir):
        pass

    @staticmethod
    def load_shared(root):
        return pg.load_phase("data:goal_phase.json")

    def rounds(self, rng, shared, count):
        out = []
        for r in range(count):
            jobs = []
            for i, (w, h, dens, hor, goals, feats, uni) in enumerate(
                    PLANNER_ROUND):
                doc = gen.scenario_doc(rng, "r%d_s%d" % (r, i), w, h, dens,
                                       hor, goals, feats, uni)
                # the exhaustive check runs on the first round only
                brute = r == 0 and hor <= BRUTE_FORCE_HORIZON
                jobs.append(Job("cognition", doc,
                                (rng.randrange(1000), brute), hor))
            rng.shuffle(jobs)
            out.append(jobs)
        return out

    def prepare(self, job):
        return job

    def run(self, job, tracer):
        with tracer.span("planner.cognition", job.key) as sp:
            sc = pg.load_scenario(job.args)
            trace = pg.run_cognition(sc, max_steps=PLANNER_MAX_STEPS,
                                     seed=job.expect[0])
            sp.counts["steps"] = trace.header["steps_taken"]
        return trace.to_json()

    def output(self, job, out):
        return out

    def check(self, job, out):
        doc = json.loads(out)
        if doc["complete"] == doc["step_limit"]:
            return "trace neither complete nor stopped at the step limit"
        if not job.expect[1]:
            return None
        # the planned play's objective must have maximal cardinality among
        # all plays of the compound game, found here by exhaustive search
        sc = pg.load_scenario(job.args)
        goals = sorted(sc.objects)
        game = pg.build_compound_game(sc, goals)
        want = gen.best_objective_size(game.game, game.k)
        got = len(pg.plan_play(sc, goals).objective)
        if got != want:
            return "plan objective has %d features, best play has %d" % (
                got, want)
        return None


WORKLOADS = {w.name: w for w in (CliWorkload, AlgebraWorkload,
                                 PlannerWorkload)}
