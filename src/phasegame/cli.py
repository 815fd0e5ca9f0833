"""Command line front end.

Verbs: verify, solve, eval, simulate, oracle, facts.  Exit codes follow a
fixed contract: 0 success; 2 usage or parse failure (a UsageError, even one
that is also a PhasegameError, or an OSError); 1 any other domain failure
(a PhasegameError).  Any other exception is a defect and propagates.

Whatever the locale, the command line and every document are read as
UTF-8 (a word that is not UTF-8 is a UsageError), and what stdout's
encoding cannot hold is printed as backslash escapes.
"""

import argparse
import os
import sys

from .data import dump_doc, fields, fs_path, load_doc, stem
from .errors import (
    NoSolution,
    CapExceeded,
    NotClosedClass,
    PhasegameError,
    UsageError,
)


class Report:
    """Aggregated command outcome.  Each item's status is 'pass', 'fail'
    or 'warn'; exit_code is 0 exactly when every item passed, and warnings
    do not change the status."""

    def __init__(self, command):
        self.command = command
        self.status = "pass"
        self.items = []

    def add(self, claim, status, detail=""):
        self.items.append({"claim": claim, "status": status,
                           "detail": str(detail)})
        if status == "fail":
            self.status = "fail"

    @property
    def exit_code(self):
        return 0 if self.status == "pass" else 1

    def to_doc(self):
        return {
            "command": self.command,
            "status": self.status,
            "exit_code": self.exit_code,
            "items": self.items,
        }

    def emit(self, args):
        if not args.quiet:
            for item in self.items:
                line = "%-4s %s" % (item["status"].upper(), item["claim"])
                if item["detail"]:
                    line += ": " + item["detail"]
                print(line)
        print("%s: %s" % (self.command, self.status))
        if args.out_dir:
            path = os.path.join(args.out_dir, "%s_report.json" % self.command)
            _write_text(path, dump_doc(self.to_doc()))
            if not args.quiet:
                print("wrote %s" % path)
        return self.exit_code


def _write_text(path, text):
    """Write text as UTF-8, whatever the locale: Graphviz reads DOT as
    UTF-8, and JSON is written as ASCII."""
    os.makedirs(fs_path(os.path.dirname(path) or "."), exist_ok=True)
    with open(fs_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def _count(text, least=0):
    """argparse type for a nonnegative integer (positive if least is 1)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < least:
        raise argparse.ArgumentTypeError(
            "expected a %s integer, got %r"
            % ("positive" if least else "nonnegative", text))
    return value


def _positive(text):
    return _count(text, 1)


# verbs -----------------------------------------------------------------
#
# Each verb imports the modules it runs, so a verb loads no layer it does
# not use.

def cmd_verify(args):
    from .lattice import load_lattice
    from .phase import classify, load_phase, verify_laws
    if args.lattice is None and args.phase is None:
        raise UsageError("verify needs --lattice and/or --phase")
    report = Report("verify")

    lattice = None
    if args.lattice is not None:
        try:
            lattice = load_lattice(args.lattice)
        except PhasegameError as exc:
            report.add("lattice_wellformed", "fail",
                       "%s: %s" % (type(exc).__name__, exc))
        else:
            report.add("lattice_wellformed", "pass",
                       "%d elements" % len(lattice.elements))
            distributive = lattice.is_distributive()
            report.add("lattice_distributive",
                       "pass" if distributive else "fail",
                       "" if distributive else "NotHeyting: no residuals")

    if args.phase is not None:
        try:
            ps = load_phase(args.phase, lattice=lattice, validate=False)
        except PhasegameError as exc:
            report.add("phase_loadable", "fail",
                       "%s: %s" % (type(exc).__name__, exc))
        else:
            audit = verify_laws(ps)
            for law in audit["laws"]:
                detail = "%d checked, %d skipped" % (law["checked"],
                                                     law["skipped"])
                if law["witnesses"]:
                    detail += "; witness %r" % (law["witnesses"][0],)
                status = law["status"] if law["status"] != "skipped" else "warn"
                report.add(law["law"], status, detail)
            try:
                cls = classify(ps)
            except NotClosedClass as exc:
                report.add("fact_classification", "fail", str(exc))
            else:
                report.add("fact_classification", "pass",
                           "open {%s} closed {%s}"
                           % (",".join(cls.open_class),
                              ",".join(cls.closed_class)))
    return report.emit(args)


def cmd_solve(args):
    from .solver import solve_table
    report = Report("solve")
    out_dir = args.out_dir or "."
    capped = False
    try:
        solutions = solve_table(args.table, max_solutions=args.max_solutions)
    except NoSolution as exc:
        report.add("completions", "fail", "no solution: %s" % exc)
        return report.emit(args)
    except CapExceeded as exc:
        solutions = exc.solutions
        capped = True

    name = stem(args.table)
    for i, doc in enumerate(solutions, 1):
        path = os.path.join(out_dir, "%s_solution_%03d.json" % (name, i))
        _write_text(path, dump_doc(doc))
        report.add("solution_%03d" % i, "pass", path)
    report.add("completions", "pass", "%d found" % len(solutions))
    if capped:
        report.add("solution_cap", "warn",
                   "stopped at --max-solutions %d; more exist"
                   % args.max_solutions)
    return report.emit(args)


def cmd_eval(args):
    from .expr import eval_expr
    from .phase import load_phase
    text = " ".join(args.expr).strip()
    if not text:
        raise UsageError("eval needs an expression")
    ps = load_phase(args.phase)
    value = eval_expr(ps, text)
    print(value)
    if args.out_dir:
        _write_text(os.path.join(args.out_dir, "eval_report.json"), dump_doc(
            {"command": "eval", "expression": text, "value": value}))
    return 0


def cmd_simulate(args):
    from .planner import load_scenario, run_cognition
    sc = load_scenario(args.scenario)
    trace = run_cognition(sc, max_steps=args.max_steps, mode=args.mode,
                          seed=args.seed)
    report = Report("simulate")
    doc = trace.to_doc()

    if doc["selections"]:
        first = doc["selections"][0]
        named = ["{%s}" % ",".join(s["elements"]) for s in first["sets"]]
        report.add("top_goal_sets", "pass", " and ".join(named))
        for s in first["sets"]:
            report.add("goal_set {%s}" % ",".join(s["goals"]), "pass",
                       "elements {%s}, priority %s"
                       % (",".join(s["elements"]), s["priority"]))
    for ev in doc["shrink_events"]:
        report.add("shrink@step%d" % ev["step"], "pass",
                   "{%s} -> {%s}" % (",".join(ev["from"]), ",".join(ev["to"])))
    for obj_id in sorted(doc["final_images"]):
        report.add("image %s" % obj_id, "pass",
                   "{%s}" % ",".join(doc["final_images"][obj_id]))

    if doc["complete"]:
        report.add("termination", "pass",
                   "complete after %d steps" % doc["header"]["steps_taken"])
    elif doc["step_limit"]:
        status = "fail" if args.strict_termination else "warn"
        report.add("termination", status,
                   "step limit %d reached" % args.max_steps)

    out_dir = args.out_dir or "."
    if args.emit in ("json", "both"):
        path = os.path.join(out_dir, "%s_trace.json" % sc.name)
        _write_text(path, dump_doc(doc))
        report.add("trace_json", "pass", path)
    if args.emit in ("dot", "both"):
        from .dot import trace_to_dot
        path = os.path.join(out_dir, "%s_trace.dot" % sc.name)
        _write_text(path, trace_to_dot(doc, name=sc.name))
        report.add("trace_dot", "pass", path)
    return report.emit(args)


def cmd_oracle(args):
    from .subset_oracle import monoid_from_doc, oracle_report
    doc, _ = load_doc(args.monoid)
    pole = frozenset(fields(doc, "oracle")["falsum_subset"])
    audit = oracle_report(*monoid_from_doc(doc), pole)
    report = Report("oracle")
    for law in audit["laws"]:
        detail = "%d checked" % law["checked"]
        if law["witnesses"]:
            detail += "; witness %s" % law["witnesses"][0]
        report.add(law["law"], law["status"], detail)
    report.add("fact_census", "pass",
               "%d facts among %d subsets" % (audit["facts"],
                                              audit["subsets"]))
    return report.emit(args)


def cmd_facts(args):
    from .phase import classify, load_phase
    ps = load_phase(args.phase)
    report = Report("facts")
    facts = ps.facts()
    report.add("facts", "pass",
               "%d of %d elements: {%s}" % (len(facts),
                                            len(ps.lattice.elements),
                                            ",".join(facts)))
    for x in facts:
        report.add("dual %s" % x, "pass", ps.dual(x))
    try:
        cls = classify(ps)
    except NotClosedClass as exc:
        report.add("classification", "fail", str(exc))
    else:
        report.add("open_class", "pass", "{%s}" % ",".join(cls.open_class))
        report.add("closed_class", "pass", "{%s}" % ",".join(cls.closed_class))
        report.add("neutral", "pass", cls.neutral)
        report.add("falsum", "pass", ps.falsum)
    return report.emit(args)


# wiring ----------------------------------------------------------------

def build_parser():
    # each verb gets only the flags it reads, so an ignored flag is an error
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", metavar="DIR",
                        help="directory for emitted files")
    common.add_argument("--quiet", action="store_true",
                        help="print only the final status line")
    phased = argparse.ArgumentParser(add_help=False, parents=[common])
    phased.add_argument("--phase", metavar="FILE", required=True,
                        help="phase structure JSON")

    parser = argparse.ArgumentParser(
        prog="phasegame",
        description="Lattice-valued phase semantics, games and planning.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="audit lattice and phase laws")
    p.add_argument("--phase", metavar="FILE", help="phase structure JSON")
    p.add_argument("--lattice", metavar="FILE",
                   help="lattice JSON (file path or data:NAME)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", parents=[common],
                       help="complete an ambiguous multiplication table")
    p.add_argument("table", help="candidates JSON")
    p.add_argument("--max-solutions", type=_positive, metavar="N")
    p.set_defaults(func=cmd_solve)

    # main passes the words no flag claims as args.expr
    p = sub.add_parser("eval", parents=[phased],
                       usage="%(prog)s [-h] [--out-dir DIR] [--quiet] "
                             "--phase FILE EXPR ...",
                       help="evaluate a connective expression",
                       description="EXPR is the words no flag claims, in "
                       "order, so flags may stand among them and '-o' needs "
                       "no quotes; no word of it starts with '--'.")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", parents=[common],
                       help="run the cognition loop on a scenario")
    p.add_argument("scenario", help="scenario JSON")
    p.add_argument("--mode", choices=("practical", "strict"),
                   default="practical")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_count, default=50)
    p.add_argument("--emit", choices=("json", "dot", "both"), default="json")
    p.add_argument("--strict-termination", action="store_true",
                   help="treat a step-limit stop as failure")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", parents=[common],
                       help="exhaustive subset-level law check on a monoid")
    p.add_argument("monoid", help="monoid JSON with falsum_subset")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("facts", parents=[phased],
                       help="print the fact census and classification")
    p.set_defaults(func=cmd_facts)
    return parser


def _utf8(word):
    """An argv word read as UTF-8.  Python decodes argv with the locale's
    codec and keeps each byte it cannot decode as a surrogate escape, so
    such a word is encoded back to its bytes and decoded as UTF-8."""
    if not any("\udc80" <= ch <= "\udcff" for ch in word):
        return word
    try:
        return os.fsencode(word).decode("utf-8")
    except UnicodeError:
        raise UsageError("argument %s is not UTF-8 text"
                         % ascii(word)) from None


def main(argv=None):
    # the one stdout policy: under a UTF-8 locale every report encodes, so
    # no byte moves; elsewhere what the encoding cannot hold is escaped
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    try:
        words = [_utf8(w) for w in (sys.argv[1:] if argv is None else argv)]
        try:
            args, extra = parser.parse_known_args(words)
            if extra and (args.verb != "eval" or any(
                    word.startswith("--") for word in extra)):
                parser.error("unrecognized arguments: %s" % " ".join(extra))
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2
        args.expr = extra
        return args.func(args)
    except (UsageError, OSError, PhasegameError) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2 if isinstance(exc, (UsageError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
