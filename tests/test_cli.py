import contextlib
import io
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys

import pytest

import phasegame
from conftest import moved, pinned, sha16
from test_differential import _load_gen
from phasegame.cli import main
from phasegame.data import (DISTINCT, ENUMS, REQUIRED, ROWS, SCHEMAS,
                            data_path)
from phasegame.dot import trace_to_dot
from phasegame.phase import phase_from_doc, verify_laws


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# verify -----------------------------------------------------------------

def test_verify_passes_on_shipped_phase(capsys):
    assert main(["verify", "--phase", "data:goal_phase.json"]) == 0
    out = capsys.readouterr().out
    assert "verify: pass" in out
    assert "commutative" in out
    assert "fact_classification" in out


def test_verify_lattice_only(capsys):
    assert main(["verify", "--lattice", "data:goal_lattice.json"]) == 0
    out = capsys.readouterr().out
    assert "lattice_wellformed" in out
    assert "lattice_distributive" in out


SELF_LOOP_VERIFY = {
    "lattice": (0, """\
PASS lattice_wellformed: 18 elements
PASS lattice_distributive
PASS commutative: 324 checked, 0 skipped
PASS associative: 5832 checked, 0 skipped
WARN unit_identity: 0 checked, 18 skipped
PASS triple_dual: 18 checked, 0 skipped
PASS double_dual_extensive: 18 checked, 0 skipped
PASS contradiction_below_falsum: 18 checked, 0 skipped
PASS dual_of_join_is_meet_of_duals: 324 checked, 0 skipped
PASS residual_matches_dual_product: 111 checked, 213 skipped
PASS fact_classification: open {0,a,b1,J1a,b2,J12} closed {b3,J13,J23,J123,J23e,1}
verify: pass
"""),
    "crown": (1, """\
FAIL lattice_wellformed: NotALattice: no unique join for 'a1', 'a2'
verify: fail
"""),
}


@pytest.mark.parametrize("kind", sorted(SELF_LOOP_VERIFY))
def test_verify_reads_a_self_loop_cover_as_nothing(tmp_path, capsys, kind):
    # a cover of an element by itself adds nothing to the order: the goal
    # lattice with every element looped to itself, each loop listed before
    # the covers, verifies with the goal phase, and a crown (a1 and a2
    # below both x and y) with loops on x and top fails at the same pair
    if kind == "lattice":
        doc = read_json(data_path("goal_lattice.json"))
        doc["covers"] = [[e, e] for e in doc["elements"]] + doc["covers"]
        argv = ["--phase", "data:goal_phase.json"]
    else:
        doc = {"elements": ["bot", "a1", "a2", "x", "y", "top"],
               "covers": [["x", "x"]] + [[a, m] for a in ("a1", "a2")
                                         for m in ("x", "y")]
               + [["top", "top"], ["bot", "a1"], ["bot", "a2"],
                  ["x", "top"], ["y", "top"]],
               "bottom": "bot", "top": "top"}
        argv = []
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc))
    code, want = SELF_LOOP_VERIFY[kind]
    assert main(["verify", "--lattice", str(path)] + argv) == code
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("overrides,code", [
    ([["zz", "0"]], 1), ([["0", "1"], ["0", "1"]], 2), ([["0", "1"]], 0)],
    ids=["foreign_key", "repeated_key", "override"])
def test_verify_checks_override_keys(tmp_path, capsys, overrides, code):
    doc = read_json(data_path("bool2_phase.json"))
    doc["dual_overrides"] = overrides
    path = tmp_path / "phase.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--phase", str(path)]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert {0: "verify: pass", 1: "ForeignElement: 'zz'",
            2: "UsageError: field 'dual_overrides' names '0' twice"}[code] \
        in out + err


def test_verify_needs_an_input():
    assert main(["verify"]) == 2


def test_verify_fails_on_broken_phase(tmp_path, capsys):
    doc = read_json(data_path("goal_phase.json"))
    doc["lattice"] = "data:goal_lattice.json"
    doc["mult"] = [m if m[:2] != ["e", "e"] else ["e", "e", "a"]
                   for m in doc["mult"]]
    bad = tmp_path / "broken_phase.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--phase", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "verify: fail" in out


def test_verify_fails_on_degenerate_phase(capsys):
    assert main(["verify", "--phase", "data:goal_phase_alt.json"]) == 1
    out = capsys.readouterr().out
    assert "FAIL associative" in out


_TWO = {"elements": ["0", "1"], "covers": [["0", "1"]], "bottom": "0",
        "top": "1"}
# facts {0}, open {0} below the neutral element 0, closed {} above falsum a
_NO_SWAP = {
    "lattice": {"elements": ["0", "a", "1"],
                "covers": [["0", "a"], ["a", "1"]], "bottom": "0",
                "top": "1"},
    "mult": [["0", "0", "1"], ["0", "a", "a"], ["0", "1", "0"],
             ["a", "a", "0"], ["a", "1", "1"], ["1", "1", "1"]],
    "unit": "a", "falsum": "a", "checks": "relaxed",
    "dual_overrides": [["0", "0"], ["a", "0"], ["1", "a"]]}


@pytest.mark.parametrize("verb,flag,doc,line", [
    ("verify", "--lattice", dict(_TWO, bottom="z"),
     "FAIL lattice_wellformed: ForeignElement: bottom/top must be declared "
     "elements"),
    ("verify", "--lattice", dict(_TWO, covers=[["0", "q"]]),
     "FAIL lattice_wellformed: ForeignElement: cover ('0', 'q') uses unknown "
     "element"),
    ("facts", "--phase", _NO_SWAP,
     "FAIL classification: duality does not swap the open and closed "
     "classes"),
    ("verify", "--phase", _NO_SWAP,
     "FAIL fact_classification: duality does not swap the open and closed "
     "classes")],
    ids=["foreign_bottom", "foreign_cover", "facts_no_swap",
         "verify_no_swap"])
def test_failed_check_prints_its_line(tmp_path, capsys, verb, flag, doc,
                                      line):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([verb, flag, str(path)]) == 1
    out, err = capsys.readouterr()
    assert line in out.splitlines(), out
    assert "Traceback" not in err


def test_verify_missing_file():
    assert main(["verify", "--phase", "no_such_file.json"]) == 2


def test_verify_unparsable_file(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert main(["verify", "--phase", str(bad)]) == 2


# solve ------------------------------------------------------------------

def test_solve_writes_verified_solutions(tmp_path, capsys):
    rc = main(["solve", "data:goal_phase_candidates.json",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "solve: pass" in capsys.readouterr().out
    paths = sorted(tmp_path.glob("goal_phase_candidates_solution_*.json"))
    assert len(paths) == 2
    for p in paths:
        ps = phase_from_doc(read_json(p))
        assert verify_laws(ps)["ok"]


def test_solve_cap_warns_but_passes(tmp_path, capsys):
    rc = main(["solve", "data:goal_phase_candidates.json",
               "--out-dir", str(tmp_path), "--max-solutions", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "WARN solution_cap" in out
    assert len(list(tmp_path.glob("*solution*"))) == 1


def test_solve_reports_dead_end(tmp_path, capsys):
    doc = read_json(data_path("goal_phase_candidates.json"))
    doc["lattice"] = "data:goal_lattice.json"
    doc["mult"] = [[x, y, ["1"] if isinstance(v, list) else v]
                   for x, y, v in doc["mult"]]
    bad = tmp_path / "bad_candidates.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad), "--out-dir", str(tmp_path)]) == 1
    assert "solve: fail" in capsys.readouterr().out


# eval -------------------------------------------------------------------

EXPRESSIONS = [
    ("a -o J1a x e x b2", "1"),
    ("a -o J1a x e x b3", "b1"),
    ("a -o J1a x e x b2 x b3", "b1"),
    ("a -o e x b2 x b3", "1"),
    ("a -o e x b2", "1"),
    ("a -o e x b3", "1"),
    ("a -o J1a x e", "1"),
    ("a -o e", "1"),
]


@pytest.mark.parametrize("text,want", EXPRESSIONS)
def test_eval_known_values(capsys, text, want):
    rc = main(["eval", "--phase", "data:goal_phase.json"] + text.split())
    assert rc == 0
    assert capsys.readouterr().out.strip() == want


def test_eval_unicode_spelling(capsys):
    rc = main(["eval", "--phase", "data:goal_phase.json", "b2", "⅋", "b3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_writes_report(tmp_path, capsys):
    rc = main(["eval", "--phase", "data:goal_phase.json",
               "--out-dir", str(tmp_path), "e^^"])
    assert rc == 0
    assert capsys.readouterr().out.strip().endswith("J23e")
    doc = read_json(tmp_path / "eval_report.json")
    assert doc["value"] == "J23e"


def test_eval_syntax_error_is_usage_failure():
    assert main(["eval", "--phase", "data:goal_phase.json", "a", "-o"]) == 2


def test_eval_unknown_element_is_domain_failure():
    assert main(["eval", "--phase", "data:goal_phase.json", "zork"]) == 1


def test_eval_requires_phase_and_expression():
    assert main(["eval", "a"]) == 2
    assert main(["eval", "--phase", "data:goal_phase.json"]) == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--phase", "data:goal_phase.json", "a", "--quiet"],
    ["eval", "a", "--phase", "data:goal_phase.json"],
    ["eval", "a", "--phase=data:goal_phase.json", "--quiet"],
    ["eval", "a", "--ph", "data:goal_phase.json"],
], ids=["quiet_after", "phase_after", "phase_equals_after", "prefix_after"])
def test_eval_flags_may_follow_the_expression(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == "a\n"


def test_eval_reads_unquoted_implication_among_flags(capsys):
    # '-o' is the connective wherever it stands, flags after it or not
    rc = main(["eval", "a", "-o", "b2", "--phase", "data:goal_phase.json"])
    assert rc == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["eval", "--phase", "data:goal_phase.json", "a -o"]) == 2
    assert main(["eval", "a", "-o", "--phase", "data:goal_phase.json"]) == 2


def test_eval_report_dir_may_follow_the_expression(tmp_path, capsys):
    rc = main(["eval", "e^^", "--out-dir", str(tmp_path), "--phase",
               "data:goal_phase.json"])
    assert rc == 0
    assert capsys.readouterr().out == "J23e\n"
    assert read_json(tmp_path / "eval_report.json")["expression"] == "e^^"


# every verb's written files, passing and failing ------------------------

@pytest.mark.parametrize("argv,code", [
    (["verify", "--lattice", "data:goal_lattice.json",
      "--phase", "data:goal_phase.json"], 0),
    (["verify", "--phase", "data:goal_phase_alt.json"], 1),
    (["solve", "data:goal_phase_candidates.json"], 0),
    (["eval", "--phase", "data:goal_phase.json", "a", "-o", "J1a"], 0),
    (["simulate", "data:four_goals_scenario.json", "--emit", "both"], 0),
    (["simulate", "data:tiny_scenario.json", "--mode", "strict",
      "--seed", "3"], 0),
    (["oracle", "data:z3_monoid.json"], 0),
    (["facts", "--phase", "data:goal_phase.json"], 0)],
    ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_every_written_json_is_the_stdlib_dump(tmp_path, capsys, argv, code):
    # each report, trace and completion a verb writes is byte for byte what
    # json.dumps(sort_keys=True, separators=(",", ":")) writes of its parse
    assert main(argv + ["--out-dir", str(tmp_path), "--quiet"]) == code
    written = sorted(tmp_path.glob("*.json"))
    assert "%s_report.json" % argv[0] in [p.name for p in written]
    for path in written:
        text = path.read_text(encoding="ascii")
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":")) + "\n", path.name


# simulate ---------------------------------------------------------------

def test_simulate_emits_stable_trace_and_dot(tmp_path, capsys):
    rc = main(["simulate", "data:four_goals_scenario.json",
               "--out-dir", str(tmp_path), "--emit", "both"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "simulate: pass" in out
    assert "{J1a,b2,e}" in out and "{b2,b3,e}" in out

    trace_path = tmp_path / "four_goals_scenario_trace.json"
    doc = read_json(trace_path)
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert trace_path.read_text() == again
    assert doc["complete"] is True

    dot = (tmp_path / "four_goals_scenario_trace.dot").read_text()
    assert dot.startswith("digraph")
    assert "penwidth=3" in dot


def test_a_trace_is_one_ascii_line_that_json_tool_reads(tmp_path, capsys):
    # text outside ASCII is written as an escape, and python -m json.tool
    # lays the one line out for a reader without changing the document
    doc = read_json(data_path("tiny_scenario.json"))
    doc["objects"][0]["id"] = "obj_\u00e9"
    scenario = tmp_path / "accent.json"
    scenario.write_text(json.dumps(doc))
    assert main(["simulate", str(scenario), "--quiet",
                 "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "accent_trace.json"
    text = path.read_bytes().decode("ascii")
    assert text.index("\n") == len(text) - 1
    assert '"obj_\\u00e9"' in text
    proc = subprocess.run([sys.executable, "-m", "json.tool", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == json.loads(text)


def test_simulate_reports_the_steps_taken(tmp_path, capsys):
    assert main(["simulate", "data:four_goals_scenario.json", "--seed", "0",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    doc = read_json(tmp_path / "four_goals_scenario_trace.json")
    assert doc["header"]["steps_taken"] == 6 < len(doc["entries"])
    assert "complete after 6 steps" in out


def test_dot_start_label_keeps_the_object_id():
    # the start cell's label lists the object on it, then "start", one
    # part a line: the parts are joined by the two characters \n, which
    # DOT reads as a line break, while a quote or backslash in a part
    # stays escaped
    header = {"grid": ["...", ".#."], "start": [0, 0],
              "objects": [{"id": "nest", "cell": [0, 0], "goal": "n1"},
                          {"id": "n", "cell": [1, 0], "goal": "g"},
                          {"id": 'q"\\', "cell": [2, 0], "goal": "n2"}]}
    lines = trace_to_dot({"header": header, "entries": []}).splitlines()
    assert lines[2:8] == [
        r'  c_0_0 [pos="0,1!", label="nest\nn1\nstart"];',
        r'  c_1_0 [pos="1,1!", label="n\ng"];',
        r'  c_2_0 [pos="2,1!", label="q\"\\\nn2"];',
        r'  c_0_1 [pos="0,0!", label=""];',
        r'  c_1_1 [pos="1,0!", style=filled, fillcolor=black, label=""];',
        r'  c_2_1 [pos="2,0!", label=""];']


def test_dot_labels_every_object_on_a_shared_cell(tmp_path):
    # objects sharing a cell are listed in header order, each by id and
    # goal, then "start"; obj_b1 moves onto obj_b2's cell
    doc = read_json(data_path("four_goals_scenario.json"))
    moved = next(o for o in doc["objects"] if o["id"] == "obj_b1")
    shared = next(o for o in doc["objects"] if o["id"] == "obj_b2")["cell"]
    moved["cell"] = shared
    scenario = tmp_path / "shared.json"
    scenario.write_text(json.dumps(doc))
    assert main(["simulate", str(scenario), "--quiet", "--emit", "dot",
                 "--out-dir", str(tmp_path)]) == 0
    dot = (tmp_path / "shared_trace.dot").read_text()
    assert r'  c_%d_%d [pos="%d,%d!", label="obj_b1\nJ1a\nobj_b2\nb2"];' % (
        shared[0], shared[1], shared[0], len(doc["grid"]) - 1 - shared[1]) \
        in dot.splitlines()
    header = {"grid": ["."], "start": [0, 0],
              "objects": [{"id": "z", "cell": [0, 0], "goal": "g1"},
                          {"id": "a", "cell": [0, 0], "goal": "g2"}]}
    assert r'label="z\ng1\na\ng2\nstart"' in trace_to_dot(
        {"header": header, "entries": []})


def test_dot_graph_name_is_quoted(tmp_path):
    # a bare DOT ID cannot hold a hyphen, so the stem is always quoted
    scenario = tmp_path / "my-scenario.json"
    doc = read_json(data_path("tiny_scenario.json"))
    scenario.write_text(json.dumps(doc))
    assert main(["simulate", str(scenario), "--quiet", "--emit", "dot",
                 "--out-dir", str(tmp_path)]) == 0
    dot = (tmp_path / "my-scenario_trace.dot").read_text()
    assert dot.startswith('digraph "my-scenario" {\n')


def test_simulate_same_seed_same_bytes(tmp_path):
    for sub in ("a", "b"):
        rc = main(["simulate", "data:four_goals_scenario.json", "--quiet",
                   "--out-dir", str(tmp_path / sub), "--seed", "7"])
        assert rc == 0
    a = (tmp_path / "a" / "four_goals_scenario_trace.json").read_text()
    b = (tmp_path / "b" / "four_goals_scenario_trace.json").read_text()
    assert a == b


@pytest.mark.parametrize("mode", ["practical", "strict"])
def test_simulate_same_seed_same_bytes_across_processes(tmp_path, mode):
    # string hashing differs between the two interpreters, so a trace that
    # followed set or dict-of-hash order would differ between them; the
    # report is left out, as it may carry timings
    src = os.path.dirname(os.path.dirname(phasegame.__file__))
    traces = []
    for hash_seed in ("0", "1"):
        out_dir = tmp_path / hash_seed
        proc = subprocess.run(
            [sys.executable, "-m", "phasegame.cli", "simulate",
             "data:four_goals_scenario.json", "--mode", mode, "--seed", "7",
             "--emit", "both", "--quiet", "--out-dir", str(out_dir)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed))
        assert proc.returncode == 0, proc.stderr
        traces.append([(out_dir / name).read_bytes() for name in (
            "four_goals_scenario_trace.json",
            "four_goals_scenario_trace.dot")])
    assert traces[0] == traces[1]


# the C locale with no UTF-8 mode, where stdout, argv and file names are
# ASCII
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_emitted_files_do_not_depend_on_the_locale(tmp_path):
    # an object id outside ASCII, under the C locale with no UTF-8 mode,
    # where text files default to ASCII: the trace and DOT files are
    # written all the same, and the DOT bytes are the UTF-8 run's
    src = os.path.dirname(os.path.dirname(phasegame.__file__))
    doc = read_json(data_path("tiny_scenario.json"))
    doc["objects"][0]["id"] = "obj_\u00e9"
    scenario = tmp_path / "accent.json"
    scenario.write_text(json.dumps(doc))
    written = []
    for name, env in [("c", C_LOCALE), ("utf8", {"PYTHONUTF8": "1"})]:
        out_dir = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "phasegame.cli", "simulate",
             str(scenario), "--emit", "both", "--quiet",
             "--out-dir", str(out_dir)],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, **env))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        written.append([(out_dir / ("accent_trace." + ext)).read_bytes()
                        for ext in ("json", "dot")])
    assert written[0] == written[1]
    assert "obj_\u00e9".encode("utf-8") in written[0][1]


def test_simulate_step_limit_warns_by_default(tmp_path, capsys):
    rc = main(["simulate", "data:empty_scenario.json", "--max-steps", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "WARN termination" in capsys.readouterr().out


def test_simulate_strict_termination_fails(tmp_path):
    rc = main(["simulate", "data:empty_scenario.json", "--max-steps", "3",
               "--out-dir", str(tmp_path), "--strict-termination"])
    assert rc == 1


@pytest.mark.parametrize("mode", ["practical", "strict"])
def test_simulate_strict_termination_passes_a_former_cycle(tmp_path, mode):
    # the system stepped to [10, 11] and back to [10, 10] until the step
    # limit; the revisit of [10, 10] now saturates the single goal
    doc = {"name": "cycle", "grid": ["." * 21] * 21, "start": [10, 10],
           "horizon": 3, "goal_phase": "data:goal_phase.json",
           "free_move_goal": "a",
           "objects": [{"id": "o", "cell": [8, 10], "features": ["x", "y"],
                        "goal": "b2"}]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", str(path), "--mode", mode, "--max-steps", "8",
               "--out-dir", str(tmp_path), "--strict-termination"])
    assert rc == 0
    trace = read_json(tmp_path / "cycle_trace.json")
    assert trace["complete"] and trace["header"]["steps_taken"] == 2
    assert "step 2: revisit of [10, 10] with the same pool and images: " \
        "a cycle" in trace["decision_log"]


def test_simulate_loads_more_than_twenty_features(tmp_path, capsys):
    # two objects of 11 features: a payoff universe of 22, which once
    # exceeded a 20-member cap and exited 2
    doc = {"name": "wide", "grid": ["...", "..."], "start": [0, 0],
           "horizon": 2, "goal_phase": "data:goal_phase.json",
           "free_move_goal": "a",
           "objects": [{"id": "o%d" % i, "cell": [2, i], "goal": goal,
                        "features": ["f%d_%02d" % (i, j) for j in range(11)]}
                       for i, goal in enumerate(["b2", "e"])]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 0
    assert "simulate: pass" in capsys.readouterr().out
    trace = read_json(tmp_path / "wide_trace.json")
    assert trace["complete"]
    assert trace["header"]["objective_lattice"] == "powerset of 22 features"
    assert trace["final_images"] == {o["id"]: o["features"]
                                     for o in doc["objects"]}


# oracle -----------------------------------------------------------------

def test_oracle_passes_shipped_monoids(capsys):
    for name in ("trivial_monoid", "z2_monoid", "z3_monoid"):
        assert main(["oracle", "data:%s.json" % name, "--quiet"]) == 0
    assert main(["oracle", "data:z2_monoid.json"]) == 0
    out = capsys.readouterr().out
    assert "4 facts among 4 subsets" in out


def test_oracle_size_cap_is_usage_failure(tmp_path):
    doc = {"elements": ["m%d" % i for i in range(7)], "unit": "m0",
           "mult": [["m%d" % i, "m%d" % j, "m0"]
                    for i in range(7) for j in range(7)],
           "falsum_subset": []}
    big = tmp_path / "big_monoid.json"
    big.write_text(json.dumps(doc))
    assert main(["oracle", str(big)]) == 2


# facts ------------------------------------------------------------------

def test_facts_census(capsys):
    assert main(["facts", "--phase", "data:goal_phase.json"]) == 0
    out = capsys.readouterr().out
    assert "12 of 18 elements" in out
    assert "PASS neutral: J12" in out
    assert "PASS falsum: b3" in out


def test_facts_report_file(tmp_path):
    rc = main(["facts", "--phase", "data:goal_phase.json",
               "--quiet", "--out-dir", str(tmp_path)])
    assert rc == 0
    doc = read_json(tmp_path / "facts_report.json")
    assert doc["status"] == "pass"
    assert doc["exit_code"] == 0


# malformed input ---------------------------------------------------------

def _short_mult_row(tmp_path):
    doc = read_json(data_path("goal_phase.json"))
    doc["lattice"] = "data:goal_lattice.json"
    doc["mult"][0] = doc["mult"][0][:1]
    path = tmp_path / "short_row.json"
    path.write_text(json.dumps(doc))
    return ["verify", "--phase", str(path)]


def _non_object(verb_argv):
    """A verb reading a document whose top level is a JSON array."""
    def make(tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[]")
        return [a.format(path) for a in verb_argv]
    return make


def _edited(name, edit, verb_argv):
    """A verb reading a copy of a shipped document changed by edit; the
    argv entries are formatted with the copy's path and tmp_path."""
    def make(tmp_path):
        doc = read_json(data_path(name))
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return [a.format(path, tmp_path) for a in verb_argv]
    return make


def _respelled(name, old, new, verb_argv):
    """A verb reading a copy of a shipped document whose text has old
    replaced by new once."""
    def make(tmp_path):
        with open(data_path(name)) as fh:
            text = fh.read()
        assert text.count(old) == 1
        path = tmp_path / name
        path.write_text(text.replace(old, new))
        return [a.format(path, tmp_path) for a in verb_argv]
    return make


def _raw(content):
    """verify --phase reading a file of the given bytes."""
    def make(tmp_path):
        path = tmp_path / "raw.json"
        path.write_bytes(content)
        return ["verify", "--phase", str(path)]
    return make


def _object(**edit):
    return lambda doc: doc["objects"][0].update(edit)


def _drop(*keys):
    """An edit deleting the field at the end of the path keys."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


SIMULATE = ["simulate", "{0}", "--out-dir", "{1}"]
VERIFY_PHASE = ["verify", "--phase", "{0}"]
VERIFY_LATTICE = ["verify", "--lattice", "{0}"]
SOLVE = ["solve", "{0}", "--out-dir", "{1}"]
ORACLE = ["oracle", "{0}"]


def _short_candidate_row(doc):
    doc["lattice"] = "data:goal_lattice.json"
    doc["mult"].append(["a", "b1"])


MALFORMED = [
    ("short_mult_row", _short_mult_row, 2),
    ("deep_expression",
     lambda tmp_path: ["eval", "--phase", "data:goal_phase.json",
                       "(" * 3000 + "a" + ")" * 3000], 2),
    # a JSON boolean is not a number, though Python's bool is an int
    ("boolean_horizon",
     _edited("tiny_scenario.json", lambda d: d.update(horizon=True),
             SIMULATE), 2),
    ("boolean_start",
     _edited("four_goals_scenario.json",
             lambda d: d.update(start=[True, d["start"][1]]), SIMULATE), 2),
    ("boolean_cell",
     _edited("tiny_scenario.json", _object(cell=[0, False]), SIMULATE), 2),
    ("boolean_attractiveness",
     _edited("four_goals_scenario.json", _object(attractiveness=True),
             SIMULATE), 2),
    ("negative_max_steps",
     lambda tmp_path: ["simulate", "data:tiny_scenario.json",
                       "--max-steps", "-1", "--out-dir", str(tmp_path)], 2),
    ("zero_max_solutions",
     lambda tmp_path: ["solve", "data:goal_phase_candidates.json",
                       "--max-solutions", "0", "--out-dir", str(tmp_path)],
     2),
    ("array_verify_phase", _non_object(["verify", "--phase", "{}"]), 2),
    ("array_verify_lattice", _non_object(["verify", "--lattice", "{}"]), 2),
    ("array_eval", _non_object(["eval", "--phase", "{}", "a"]), 2),
    ("array_facts", _non_object(["facts", "--phase", "{}"]), 2),
    ("array_solve", _non_object(["solve", "{}"]), 2),
    ("array_simulate", _non_object(["simulate", "{}"]), 2),
    ("array_oracle", _non_object(["oracle", "{}"]), 2),
    ("scenario_start_number",
     _edited("four_goals_scenario.json", lambda d: d.update(start=0),
             SIMULATE), 2),
    ("scenario_objects_number",
     _edited("four_goals_scenario.json", lambda d: d.update(objects=5),
             SIMULATE), 2),
    ("object_features_number",
     _edited("four_goals_scenario.json",
             lambda d: d["objects"][0].update(features=5), SIMULATE), 2),
    ("phase_mult_number",
     _edited("goal_phase.json",
             lambda d: d.update(mult=5, lattice="data:goal_lattice.json"),
             VERIFY_PHASE), 2),
    ("phase_lattice_number",
     _edited("goal_phase.json", lambda d: d.update(lattice=5),
             VERIFY_PHASE), 2),
    ("monoid_falsum_subset_number",
     _edited("z3_monoid.json", lambda d: d.update(falsum_subset=3),
             ["oracle", "{0}"]), 2),
    ("short_candidate_row",
     _edited("goal_phase_candidates.json", _short_candidate_row,
             ["solve", "{0}", "--out-dir", "{1}"]), 2),
    ("scenario_object_number",
     _edited("tiny_scenario.json", lambda d: d.update(objects=[5]),
             SIMULATE), 2),
    ("object_feature_number",
     _edited("tiny_scenario.json",
             lambda d: d["objects"][0].update(features=[1]), SIMULATE), 2),
    ("lattice_elements_number",
     _edited("goal_lattice.json", lambda d: d.update(elements=5),
             VERIFY_LATTICE), 2),
    ("lattice_cover_number",
     _edited("goal_lattice.json", lambda d: d.update(covers=[5]),
             VERIFY_LATTICE), 2),
    ("lattice_cover_short",
     _edited("goal_lattice.json", lambda d: d.update(covers=[["a"]]),
             VERIFY_LATTICE), 2),
    ("lattice_bottom_array",
     _edited("goal_lattice.json", lambda d: d.update(bottom=[1]),
             VERIFY_LATTICE), 2),
    ("lattice_top_array",
     _edited("goal_lattice.json", lambda d: d.update(top=[1]),
             VERIFY_LATTICE), 2),
    ("object_id_array",
     _edited("tiny_scenario.json", _object(id=[1]), SIMULATE), 2),
    ("free_move_goal_array",
     _edited("tiny_scenario.json", lambda d: d.update(free_move_goal=[1]),
             SIMULATE), 2),
    ("object_attractiveness_string",
     _edited("four_goals_scenario.json", _object(attractiveness="x"),
             SIMULATE), 2),
    ("object_cell_nested",
     _edited("tiny_scenario.json", _object(cell=[[0], [0]]), SIMULATE), 2),
    ("linked_constraints_number",
     _edited("goal_phase_candidates.json",
             lambda d: d.update(linked_constraints=5), SOLVE), 2),
    ("monoid_unit_array",
     _edited("z3_monoid.json", lambda d: d.update(unit=[1]), ORACLE), 2),
    ("falsum_subset_nested",
     _edited("z3_monoid.json", lambda d: d.update(falsum_subset=[["0"]]),
             ORACLE), 2),
    ("constraint_sum_short",
     _edited("goal_phase_candidates.json",
             lambda d: d["linked_constraints"][0].update(sum=[["0"]]),
             SOLVE), 2),
    ("binary_file", _raw(b"\xff\xfe{"), 2),
    ("deep_arrays", _raw(b"[" * 3000 + b"]" * 3000), 2),
    # json.dumps writes these constants, which are not JSON, and a trace
    # copying one could not be read back as JSON
    ("attractiveness_nan",
     _edited("four_goals_scenario.json", _object(attractiveness=float("nan")),
             SIMULATE), 2),
    ("attractiveness_infinity",
     _edited("four_goals_scenario.json", _object(attractiveness=float("inf")),
             SIMULATE), 2),
    ("attractiveness_minus_infinity",
     _edited("four_goals_scenario.json",
             _object(attractiveness=float("-inf")), SIMULATE), 2),
    # json reads a number too large for a float as an infinity
    ("attractiveness_overflow",
     _respelled("tiny_scenario.json", '"attractiveness": 1',
                '"attractiveness": 1e999', SIMULATE), 2),
    ("attractiveness_minus_overflow",
     _respelled("tiny_scenario.json", '"attractiveness": 1',
                '"attractiveness": -1e999', SIMULATE), 2),
    # json keeps the last of two values for one key, which would run
    # this scenario at horizon 0
    ("repeated_key",
     _respelled("tiny_scenario.json", '"horizon": 1,',
                '"horizon": 1, "horizon": 0,', SIMULATE), 2),
    # a one-cell scenario builds no compound game, so nothing else would
    # catch a feature that cannot name a subset
    ("tiny_feature_comma",
     _edited("tiny_scenario.json", _object(features=["a,b"]), SIMULATE), 2),
    ("tiny_feature_empty",
     _edited("tiny_scenario.json", _object(features=[""]), SIMULATE), 2),
    # a repeated feature would count twice towards what a cell reveals
    ("object_features_repeated",
     _edited("tiny_scenario.json", _object(features=["tall"] * 3),
             SIMULATE), 2),
    ("duplicate_object_id",
     _edited("four_goals_scenario.json",
             lambda d: d["objects"][1].update(id=d["objects"][0]["id"]),
             SIMULATE), 2),
    # a repeated name would be read as one element
    ("lattice_elements_repeated",
     _edited("goal_lattice.json", lambda d: d["elements"].insert(1, "a"),
             VERIFY_LATTICE), 2),
    ("monoid_elements_repeated",
     _edited("z2_monoid.json", lambda d: d.update(elements=["0", "1", "1"]),
             ORACLE), 2),
    ("monoid_elements_twice",
     _edited("z2_monoid.json",
             lambda d: d.update(elements=["a", "a"], unit="a",
                                mult=[["a", "a", "a"]], falsum_subset=[]),
             ORACLE), 2),
] + [
    ("no_%s" % "_".join(map(str, keys)), _edited(name, _drop(*keys), verb), 2)
    for name, keys, verb in [
        ("tiny_scenario.json", ["horizon"], SIMULATE),
        ("tiny_scenario.json", ["free_move_goal"], SIMULATE),
        ("tiny_scenario.json", ["objects", 0, "id"], SIMULATE),
        ("tiny_scenario.json", ["objects", 0, "goal"], SIMULATE),
        ("goal_phase_candidates.json", ["linked_constraints", 0, "sum"],
         SOLVE),
        ("goal_phase_candidates.json", ["lattice"], SOLVE),
        ("z3_monoid.json", ["unit"], ORACLE),
        ("z3_monoid.json", ["falsum_subset"], ORACLE),
    ]] + [
    ("phase_%s" % case,
     _edited("goal_phase.json",
             lambda d, edit=edit: d.update(edit,
                                           lattice="data:goal_lattice.json"),
             VERIFY_PHASE), 2)
    for case, edit in [
        ("unit_array", {"unit": [1]}),
        ("falsum_array", {"falsum": [1]}),
        ("dual_overrides_number", {"dual_overrides": 5}),
        ("dual_override_short", {"dual_overrides": [["a"]]}),
        ("op_class_number", {"op_class": 5}),
        ("cl_class_number", {"cl_class": 5}),
    ]]

# the field or row each error message must name
NAMED = {
    "scenario_start_number": "'start' must be an array, got 0",
    "scenario_objects_number": "'objects' must be an array, got 5",
    "object_features_number": "'features' must be an array, got 5",
    "phase_mult_number": "'mult' must be an array, got 5",
    "phase_lattice_number": "'lattice' must be a string or an object, got 5",
    "monoid_falsum_subset_number": "'falsum_subset' must be an array, got 3",
    "short_candidate_row": "mult row ['a', 'b1'] is not an [x, y, value]",
    "scenario_object_number": "items of field 'objects' must be an object, "
                              "got 5",
    "object_feature_number": "items of field 'features' must be a string, "
                             "got 1",
    "lattice_elements_number": "'elements' must be an array, got 5",
    "lattice_cover_number": "items of field 'covers' must be an array, got 5",
    "lattice_cover_short": "items of field 'covers' must be pairs of "
                           "strings, got ['a']",
    "lattice_bottom_array": "'bottom' must be a string, got [1]",
    "lattice_top_array": "'top' must be a string, got [1]",
    "phase_unit_array": "'unit' must be a string, got [1]",
    "phase_falsum_array": "'falsum' must be a string, got [1]",
    "phase_dual_overrides_number": "'dual_overrides' must be an array, "
                                   "got 5",
    "phase_dual_override_short": "items of field 'dual_overrides' must be "
                                 "pairs of strings, got ['a']",
    "phase_op_class_number": "'op_class' must be an array, got 5",
    "phase_cl_class_number": "'cl_class' must be an array, got 5",
    "object_id_array": "field 'id' must be a string, got [1]",
    "free_move_goal_array": "field 'free_move_goal' must be a string, "
                            "got [1]",
    "object_attractiveness_string": "field 'attractiveness' must be a "
                                    "number, got 'x'",
    "object_cell_nested": "items of field 'cell' must be an integer, got [0]",
    "linked_constraints_number": "field 'linked_constraints' must be an "
                                 "array, got 5",
    "monoid_unit_array": "field 'unit' must be a string, got [1]",
    "falsum_subset_nested": "items of field 'falsum_subset' must be a "
                            "string, got ['0']",
    "constraint_sum_short": "items of field 'sum' must be pairs of strings, "
                            "got ['0']",
    "boolean_horizon": "field 'horizon' must be an integer, got True",
    "boolean_start": "items of field 'start' must be an integer, got True",
    "boolean_cell": "items of field 'cell' must be an integer, got False",
    "boolean_attractiveness": "field 'attractiveness' must be a number, "
                              "got True",
    "binary_file": "raw.json: 'utf-8' codec can't decode byte 0xff",
    "deep_arrays": "raw.json: maximum recursion depth exceeded",
    "attractiveness_nan": "four_goals_scenario.json: NaN is not a JSON value",
    "attractiveness_infinity": "four_goals_scenario.json: Infinity is not a "
                               "JSON value",
    "attractiveness_minus_infinity": "four_goals_scenario.json: -Infinity is "
                                     "not a JSON value",
    "attractiveness_overflow": "tiny_scenario.json: 1e999 is not a finite "
                               "number",
    "attractiveness_minus_overflow": "tiny_scenario.json: -1e999 is not a "
                                     "finite number",
    "repeated_key": "tiny_scenario.json: an object names 'horizon' twice",
    "object_features_repeated": "field 'features' names 'tall' twice",
    "tiny_feature_comma": "universe members must be nonempty and contain "
                          "no commas",
    "tiny_feature_empty": "universe members must be nonempty and contain "
                          "no commas",
    "duplicate_object_id": "two objects share the id 'obj_b1'",
    "lattice_elements_repeated": "field 'elements' names 'a' twice",
    "monoid_elements_repeated": "field 'elements' names '1' twice",
    "monoid_elements_twice": "field 'elements' names 'a' twice",
    "no_horizon": "scenario document has no field 'horizon'",
    "no_free_move_goal": "scenario document has no field 'free_move_goal'",
    "no_objects_0_id": "object document has no field 'id'",
    "no_objects_0_goal": "object document has no field 'goal'",
    "no_linked_constraints_0_sum": "constraint document has no field 'sum'",
    "no_lattice": "candidates document has no field 'lattice'",
    "no_unit": "oracle document has no field 'unit'",
    "no_falsum_subset": "oracle document has no field 'falsum_subset'",
}


@pytest.mark.parametrize("case,make_argv,code", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_input_keeps_exit_code(tmp_path, capsys, case, make_argv,
                                         code):
    argv = make_argv(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if str(tmp_path / "array.json") in argv:
        assert "UsageError: %s: top level is not a JSON object" % (
            tmp_path / "array.json") in err
    if case in NAMED:
        assert "UsageError: " in err and NAMED[case] in err


def test_defect_inside_a_verb_is_not_a_usage_error(monkeypatch):
    # only malformed input exits 2: an internal KeyError stays a defect
    def broken(ps):
        raise KeyError("defect")
    monkeypatch.setattr("phasegame.phase.verify_laws", broken)
    with pytest.raises(KeyError, match="defect"):
        main(["verify", "--phase", "data:goal_phase.json"])


# the schema tables are the contract --------------------------------------

# each kind of document: a shipped document holding one, the path from its
# top level down to it, and the verb that reads it
OWNERS = {
    "lattice": ("goal_lattice.json", (), VERIFY_LATTICE),
    "phase": ("goal_phase.json", (), VERIFY_PHASE),
    "candidates": ("goal_phase_candidates.json", (), SOLVE),
    "constraint": ("goal_phase_candidates.json", ("linked_constraints", 0),
                   SOLVE),
    "scenario": ("tiny_scenario.json", (), SIMULATE),
    "object": ("tiny_scenario.json", ("objects", 0), SIMULATE),
    "monoid": ("z3_monoid.json", (), ORACLE),
    "oracle": ("z3_monoid.json", (), ORACLE),
}
_MISSING = object()


def _contract_cases():
    """(kind, field, edit of the field's shipped value) for every field of
    every kind: drop it if required, give it each wrong JSON type, a value
    outside its enum, a wrong-typed first item, a short tuple and a
    repeated name."""
    for kind, table in SCHEMAS.items():
        for key, (types, item, arity, default) in table.items():
            edits = {}
            if default is REQUIRED:
                edits["missing"] = lambda v: _MISSING
            for wrong in ["x", 5, [], {}] + [None] * (default is not None):
                if not isinstance(wrong, types):
                    edits["type_%s" % type(wrong).__name__] = \
                        lambda v, wrong=wrong: wrong
            if key in ENUMS:
                edits["enum"] = lambda v: "x"
            if item is not None:
                bad = "x" if item is int else 5
                edits["item"] = lambda v, bad=bad: [bad] + v[1:]
            if arity is not None:
                edits["short"] = lambda v: v[:-1]
            if item in ROWS:
                edits["short_row"] = lambda v: [v[0][:-1]] + v[1:]
            if key in DISTINCT:
                edits["repeated"] = lambda v: v + v[:1]
            for name, edit in edits.items():
                yield pytest.param(kind, key, edit,
                                   id="%s.%s-%s" % (kind, key, name))


@pytest.mark.parametrize("kind,key,edit", list(_contract_cases()))
def test_schema_contract(tmp_path, capsys, kind, key, edit):
    name, where, verb = OWNERS[kind]

    def change(doc):
        if doc.get("lattice") == "goal_lattice.json":
            doc["lattice"] = "data:goal_lattice.json"
        for step in where:
            doc = doc[step]
        value = edit(doc[key])
        if value is _MISSING:
            del doc[key]
        else:
            doc[key] = value

    assert main(_edited(name, change, verb)(tmp_path)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(r"\b%s\b" % key, err), err


# flags a verb does not read are usage errors ----------------------------

@pytest.mark.parametrize("argv", [
    ["simulate", "data:tiny_scenario.json", "--phase", "nosuch.json"],
    ["simulate", "data:tiny_scenario.json", "--lattice", "nosuch.json"],
    ["oracle", "data:z2_monoid.json", "--phase", "data:goal_phase.json"],
    ["oracle", "data:z2_monoid.json", "--lattice", "data:goal_lattice.json"],
    ["solve", "data:goal_phase_candidates.json", "--lattice", "nosuch.json"],
    ["eval", "--phase", "data:goal_phase.json", "--lattice", "nosuch.json",
     "a"],
    ["facts", "--phase", "data:goal_phase.json", "--lattice", "nosuch.json"],
    ["simulate", "data:four_goals_scenario.json", "--dual-payoff", "negate"],
    ["solve", "data:goal_phase_candidates.json", "--phase", "nosuch.json"],
], ids=["simulate_phase", "simulate_lattice", "oracle_phase",
        "oracle_lattice", "solve_lattice", "eval_lattice", "facts_lattice",
        "simulate_dual_payoff", "solve_phase"])
def test_ignored_flag_is_usage_failure(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # a verb that ran would write files here
    assert main(argv) == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize("argv,missing", [
    (["solve"], "table"),
    (["eval", "a"], "--phase"),
    (["facts"], "--phase"),
], ids=["solve", "eval", "facts"])
def test_required_input_is_declared_by_the_parser(tmp_path, monkeypatch,
                                                  capsys, argv, missing):
    monkeypatch.chdir(tmp_path)  # a verb that ran would write files here
    assert main(argv) == 2
    assert "the following arguments are required: %s" % missing \
        in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_stray_word_after_a_verb_is_usage_failure(tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.chdir(tmp_path)  # a verb that ran would write files here
    for argv in (["simulate", "data:tiny_scenario.json", "extra"],
                 ["verify", "--phase", "data:goal_phase.json", "extra"]):
        assert main(argv) == 2
        assert "unrecognized arguments: extra" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_eval_reads_an_expression_split_by_flags(capsys):
    rc = main(["eval", "a", "--quiet", "-o", "b2", "--phase",
               "data:goal_phase.json"])
    assert rc == 0
    assert capsys.readouterr().out == "1\n"


# the exit-code contract on a seeded argv corpus -------------------------

VERB_INPUT = {
    "verify": ["--phase", "data:goal_phase.json"],
    "solve": ["data:goal_phase_candidates.json"],
    "eval": ["--phase", "data:goal_phase.json"],
    "simulate": ["data:tiny_scenario.json"],
    "oracle": ["data:z2_monoid.json"],
    "facts": ["--phase", "data:goal_phase.json"],
}
CORPUS_WORDS = ["a", "zork", "-o", "b2", "e^^", "x", "extra", "-x", "-h",
                "--", "--quiet", "--phase", "--ph",
                "--phase=data:goal_phase.json", "--out-dir", "--lattice"]


def argv_corpus(seed=1031, size=500):
    """Seeded argv: a verb with its required input, set anywhere among 0 to
    6 words drawn from CORPUS_WORDS."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        verb = rng.choice(sorted(VERB_INPUT))
        words = [rng.choice(CORPUS_WORDS) for _ in range(rng.randint(0, 6))]
        at = rng.randint(0, len(words))
        corpus.append([verb] + words[:at] + VERB_INPUT[verb] + words[at:])
    return corpus


def corpus_answer(argv):
    """main's exit code on argv, and for eval what it printed; a help text
    reads "<help>", since its layout is argparse's."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if argv[0] != "eval":
        return [code, None]
    return [code, "<help>" if out.getvalue().startswith("usage: ")
            else out.getvalue()]


def test_argv_corpus_keeps_its_pinned_answers(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # what the verbs write goes to tmp_path
    answers = {" ".join(argv): corpus_answer(argv) for argv in argv_corpus()}
    assert len(answers) > 400
    assert moved(pinned("argv_corpus.json"), answers) == {}


# pinned outputs on generated structures --------------------------------

def test_outputs_on_generated_structures_keep_their_pins(tmp_path, capsys):
    # verify and facts on seeded Boolean and down-set structures, eval of a
    # seeded expression batch on each, and solve on two planted tables: the
    # exit codes, with sha256 prefixes of what verify and facts print (the
    # temp path masked), of eval's values and of solve's completions
    gen = _load_gen()
    answers = {}

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out.replace(str(tmp_path), "TMP")

    # a Boolean lattice has a power of two elements, so n=18 is a down-set
    # structure only
    for kind, n in [(kind, n) for kind in ("boolean", "downset")
                    for n in (32, 64, 128)] + [("downset", 18)]:
        rng = random.Random(n)
        doc, model = getattr(gen, kind + "_structure")(rng, n)
        path = tmp_path / ("%s_%d.json" % (kind, n))
        path.write_text(json.dumps(doc))
        for verb in ("verify", "facts"):
            code, out = run([verb, "--phase", str(path)])
            answers["%s %s %d" % (verb, kind, n)] = [code, sha16(out)]
        runs = [run(["eval", "--phase", str(path), text])
                for text, _ in gen.expr_batch(rng, model, 8)]
        answers["eval %s %d" % (kind, n)] = [
            max(code for code, _ in runs),
            sha16("".join(out for _, out in runs))]

    rng = random.Random(128)
    goal = gen.inline_lattice(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), read_json(data_path("goal_phase.json")))
    for i, phase_doc in enumerate(
            [goal, gen.downset_structure(rng, 12)[0]], 1):
        doc, _ = gen.planted_table(rng, phase_doc, 8, 3)
        out_dir = tmp_path / ("planted_%d" % i)
        path = tmp_path / ("planted_%d.json" % i)
        path.write_text(json.dumps(doc))
        code, _ = run(["solve", str(path), "--out-dir", str(out_dir)])
        tables = [sorted(gen.table_of(read_json(sol)).items())
                  for sol in sorted(out_dir.glob("*_solution_*.json"))]
        answers["solve planted %d" % i] = [code, sha16(json.dumps(tables))]
    assert moved(pinned("generated_cli.json"), answers) == {}


# the exit-code contract under the C locale -----------------------------

def run_in_locale(argv, cwd, locale=C_LOCALE):
    """(exit code, stdout, stderr text) of the CLI run as a process under
    locale on argv, each text word given as its UTF-8 bytes; stdout is
    decoded as ASCII under the C locale, which it must be, else as UTF-8."""
    src = os.path.dirname(os.path.dirname(phasegame.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "phasegame.cli"]
        + [w if isinstance(w, bytes) else w.encode("utf-8") for w in argv],
        capture_output=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src, **locale))
    err = proc.stderr.decode("utf-8", "backslashreplace")
    assert proc.returncode in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, (argv, err)
    return proc.returncode, proc.stdout.decode(
        "ascii" if locale is C_LOCALE else "utf-8"), err


def test_text_outside_ascii_runs_under_the_c_locale(tmp_path):
    # an element named \u00e1 and an object obj_\u00e9: the reports and
    # error lines print them as backslash escapes, eval and file names
    # read their argument as UTF-8, documents are read as UTF-8 (escaped
    # or raw), and a word that is not UTF-8 is a usage error
    phase_doc = {
        "lattice": {"elements": ["\u00e1", "1"], "covers": [["\u00e1", "1"]],
                    "bottom": "\u00e1", "top": "1"},
        "mult": [["\u00e1", "\u00e1", "\u00e1"], ["\u00e1", "1", "\u00e1"],
                 ["1", "1", "1"]],
        "unit": "1", "falsum": "\u00e1"}
    phase = tmp_path / "ph\u00e1.json"
    phase.write_text(json.dumps(phase_doc))
    raw_phase = tmp_path / "raw_phase.json"
    raw_phase.write_text(json.dumps(phase_doc, ensure_ascii=False),
                         encoding="utf-8")
    doc = read_json(data_path("tiny_scenario.json"))
    doc["objects"][0]["id"] = "obj_\u00e9"
    doc["goal_phase"] = "data:goal_phase.json"
    scenario = tmp_path / "accent.json"
    scenario.write_text(json.dumps(doc))
    out_dir = tmp_path / "d\u00e9"
    for argv, line in [
            (["verify", "--phase", str(phase)], "verify: pass"),
            (["facts", "--phase", str(phase), "--out-dir", str(out_dir)],
             "PASS falsum: \\xe1"),
            (["verify", "--phase", str(raw_phase)], "verify: pass"),
            (["facts", "--phase", str(raw_phase)], "PASS falsum: \\xe1"),
            (["simulate", str(scenario)], "PASS image obj_\\xe9: {")]:
        code, out, _ = run_in_locale(argv, tmp_path)
        assert code == 0, argv
        assert any(row.startswith(line) for row in out.splitlines()), \
            (argv, out)
    assert (out_dir / "facts_report.json").exists()
    argv = ["eval", "--phase", str(phase), "\u00e1"]
    assert run_in_locale(argv, tmp_path)[:2] == (0, "\\xe1\n")
    assert run_in_locale(argv, tmp_path, {"PYTHONUTF8": "1"})[:2] == \
        (0, "\u00e1\n")
    code, _, err = run_in_locale(
        ["eval", "--phase", str(phase), b"\xff"], tmp_path)
    assert (code, err) == \
        (2, "error: UsageError: argument '\\udcff' is not UTF-8 text\n")
    code, _, err = run_in_locale(_raw(b"\xff\xfe{")(tmp_path), tmp_path)
    assert code == 2 and NAMED["binary_file"] in err, err
    doc["grid"], doc["objects"][0]["cell"] = ["..."], [5, 0]
    off_grid = tmp_path / "off_grid.json"
    off_grid.write_text(json.dumps(doc))
    code, _, err = run_in_locale(["simulate", str(off_grid)], tmp_path)
    assert (code, err) == (1, "error: BadGrid: object 'obj_\\xe9' sits on "
                              "cell (5, 0) outside the grid\n")
    # argparse's own texts: the "(choose from ...)" tail of an invalid
    # choice differs between Python versions, so only its head is pinned
    code, _, err = run_in_locale(
        ["simulate", str(scenario), "--mode", "\u00e9"], tmp_path)
    assert code == 2
    assert "invalid choice: '\\xe9'" in err, err
    code, out, _ = run_in_locale(["simulate", "--help"], tmp_path)
    assert code == 0
    assert out.startswith("usage: "), out


def test_ascii_inputs_print_their_pinned_bytes_under_the_c_locale(tmp_path):
    # a seeded slice of the argv corpus, and verify, facts and eval on a
    # generated structure of each kind
    table = pinned("argv_corpus.json")
    for argv in random.Random(1032).sample(argv_corpus(), 12):
        code, out, _ = run_in_locale(argv, tmp_path)
        answer = [code, None if argv[0] != "eval" else
                  "<help>" if out.startswith("usage: ") else out]
        assert answer == table[" ".join(argv)], argv
    gen = _load_gen()
    table = pinned("generated_cli.json")
    for kind in ("boolean", "downset"):
        rng = random.Random(32)
        doc, model = getattr(gen, kind + "_structure")(rng, 32)
        path = tmp_path / ("%s_32.json" % kind)
        path.write_text(json.dumps(doc))
        for verb in ("verify", "facts"):
            code, out, _ = run_in_locale([verb, "--phase", str(path)],
                                         tmp_path)
            assert [code, sha16(out.replace(str(tmp_path), "TMP"))] == \
                table["%s %s 32" % (verb, kind)], (verb, kind)
        runs = [run_in_locale(["eval", "--phase", str(path), text],
                              tmp_path)
                for text, _ in gen.expr_batch(rng, model, 8)]
        assert [max(code for code, _, _ in runs),
                sha16("".join(out for _, out, _ in runs))] == \
            table["eval %s 32" % kind], kind


# installed script -------------------------------------------------------

def test_console_script_runs():
    exe = shutil.which("phasegame")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "facts", "--phase", "data:goal_phase.json",
                           "--quiet"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("facts: pass")


# README examples -----------------------------------------------------------

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_commands():
    """Each `phasegame` line of README's sh blocks, with what README says
    it prints: the text of its `# prints X` comment, and each comment line
    under it but a `# ...` aside."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    commands = []
    for line in (ln for b in blocks for ln in b.splitlines()):
        if line.startswith("phasegame "):
            prints = line.partition("#")[2].strip().partition("prints ")[2]
            commands.append((shlex.split(line, comments=True)[1:], prints,
                             []))
        elif line.startswith("# ") and line != "# ...":
            commands[-1][2].append(line[2:])
    return commands


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv,prints,shown", README_COMMANDS,
                         ids=[" ".join(c[0]) for c in README_COMMANDS])
def test_readme_example_runs(tmp_path, monkeypatch, capsys, argv, prints,
                             shown):
    # what README's examples write goes to tmp_path
    monkeypatch.chdir(tmp_path)
    argv = [str(tmp_path) if prev == "--out-dir" else arg
            for prev, arg in zip([None] + argv, argv)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if prints:
        assert out.strip() == prints
    for text in shown:
        assert text in out.splitlines()


def test_readme_shows_the_checked_outputs():
    # the examples the test above runs, and the outputs it compares
    commands = README_COMMANDS
    assert [argv[0] for argv, _, _ in commands] == [
        "verify", "solve", "eval", "eval", "eval", "simulate", "oracle",
        "facts"]
    assert [p for _, p, _ in commands if p] == ["1", "J23e", "a"]
    assert commands[-1][2] == [
        "PASS facts: 12 of 18 elements: {0,a,b1,J1a,b2,b3,J12,J13,J23,"
        "J123,J23e,1}"]
