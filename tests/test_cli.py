import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import phasegame
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
    again = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert trace_path.read_text() == again
    assert doc["complete"] is True

    dot = (tmp_path / "four_goals_scenario_trace.dot").read_text()
    assert dot.startswith("digraph")
    assert "penwidth=3" in dot


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


def test_simulate_step_limit_warns_by_default(tmp_path, capsys):
    rc = main(["simulate", "data:empty_scenario.json", "--max-steps", "3",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    assert "WARN termination" in capsys.readouterr().out


def test_simulate_strict_termination_fails(tmp_path):
    rc = main(["simulate", "data:empty_scenario.json", "--max-steps", "3",
               "--out-dir", str(tmp_path), "--strict-termination"])
    assert rc == 1


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
    "repeated_key": "tiny_scenario.json: an object names 'horizon' twice",
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
], ids=["simulate_phase", "simulate_lattice", "oracle_phase",
        "oracle_lattice", "solve_lattice", "eval_lattice", "facts_lattice",
        "simulate_dual_payoff"])
def test_ignored_flag_is_usage_failure(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)  # a verb that ran would write files here
    assert main(argv) == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


def test_solve_rejects_table_and_phase_together(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)  # a verb that ran would write files here
    assert main(["solve", "data:goal_phase_candidates.json",
                 "--phase", "data:goal_lattice.json"]) == 2
    assert "not both" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# installed script -------------------------------------------------------

def test_console_script_runs():
    exe = shutil.which("phasegame")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "facts", "--phase", "data:goal_phase.json",
                           "--quiet"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("facts: pass")
