import json
import os
import random

import pytest

from test_differential import _load_gen
from phasegame import solver
from phasegame.data import data_path, load_doc
from phasegame.errors import (CapExceeded, ForeignElement, NoSolution,
                              NotCommutative, UsageError)
from phasegame.phase import phase_from_doc, verify_laws
from phasegame.solver import solve_table


def candidates_doc():
    doc = load_doc("data:goal_phase_candidates.json")[0]
    doc["lattice"] = "data:goal_lattice.json"
    return doc


def entry_map(doc):
    return {(x, y): v for x, y, v in doc["mult"]}


def test_shipped_candidates_have_two_solutions():
    solutions = solve_table(data_path("goal_phase_candidates.json"))
    assert len(solutions) == 2
    for doc in solutions:
        m = entry_map(doc)
        assert m[("a", "b1")] == "0"
        assert m[("a", "b2")] == "a"
        assert m[("a", "b3")] == "b3"
        assert m[("a", "e")] == "e"
    assert {entry_map(d)[("b3", "b3")] for d in solutions} == {"b3", "J3e"}


def test_solutions_are_law_abiding():
    for doc in solve_table(data_path("goal_phase_candidates.json")):
        ps = phase_from_doc(doc)
        report = verify_laws(ps)
        assert report["ok"]
        assert all(l["status"] != "fail" for l in report["laws"])


def test_solver_deterministic():
    a = solve_table(candidates_doc())
    b = solve_table(candidates_doc())
    assert a == b


def test_singleton_candidates_give_one_solution():
    doc = candidates_doc()
    base = solve_table(doc)[0]
    resolved = entry_map(base)
    doc["mult"] = [[x, y, [v]] if isinstance(v, list) else [x, y, v]
                   for x, y, v in doc["mult"]]
    for entry in doc["mult"]:
        if isinstance(entry[2], list):
            entry[2] = [resolved[(entry[0], entry[1])]]
    solutions = solve_table(doc)
    assert len(solutions) == 1
    assert entry_map(solutions[0]) == resolved


def test_contradictory_candidates_raise():
    doc = candidates_doc()
    for entry in doc["mult"]:
        if isinstance(entry[2], list):
            entry[2] = ["1"]
    with pytest.raises(NoSolution):
        solve_table(doc)


def test_violated_linked_constraint_raises():
    doc = candidates_doc()
    doc["linked_constraints"][0]["equals"] = "J123"
    with pytest.raises(NoSolution):
        solve_table(doc)


def test_foreign_constraint_target_is_named():
    # named while the constraints are read, not after a search that no
    # completion could pass
    doc = candidates_doc()
    doc["linked_constraints"][0]["equals"] = "zork"
    with pytest.raises(ForeignElement, match="'zork' is not an element"):
        solve_table(doc)


def leaf_audits(monkeypatch, doc):
    """The completions of doc, and how many leaves the search audited."""
    phase_from_rows, calls = solver.phase_from_rows, []

    def counted(*args, **kwargs):
        calls.append(args)
        return phase_from_rows(*args, **kwargs)

    monkeypatch.setattr(solver, "phase_from_rows", counted)
    return solve_table(doc), len(calls)


def test_search_audits_two_leaves(monkeypatch):
    # the associativity prune leaves two completions to audit on the
    # shipped candidates; without it the search reaches 16,128 leaves
    solutions, audits = leaf_audits(monkeypatch,
                                    "data:goal_phase_candidates.json")
    assert (len(solutions), audits) == (2, 2)


def test_each_half_of_the_associativity_prune_saves_leaves(monkeypatch):
    # on the shipped candidates either half alone prunes to the same 2
    # leaves; on this planted table the search audits 1 leaf, but 4 with
    # only the (xy)z check or only the (zx)y check, and all 12,288 with
    # no prune, so deleting either half fails here
    gen = _load_gen()
    rng = random.Random(9)
    goal = gen.inline_lattice(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        load_doc("data:goal_phase.json")[0])
    doc, table = gen.planted_table(rng, goal, rng.randint(6, 10), 3)
    assert gen.search_space(doc) == 12288
    solutions, audits = leaf_audits(monkeypatch, doc)
    assert [gen.table_of(s) for s in solutions] == [table]
    assert audits == 1


def test_bad_override_keys_are_named():
    doc = candidates_doc()
    doc["dual_overrides"].append(["zz", "0"])
    with pytest.raises(ForeignElement, match="'zz'"):
        solve_table(doc)
    doc["dual_overrides"][-1] = list(doc["dual_overrides"][0])
    with pytest.raises(UsageError, match="'dual_overrides' names '0' twice"):
        solve_table(doc)


def test_loader_and_solver_name_the_same_foreign_override():
    # the first foreign name in document order, a value here, though a
    # foreign key follows it
    phase, candidates = load_doc("data:goal_phase.json")[0], candidates_doc()
    phase["lattice"] = "data:goal_lattice.json"
    for doc in (phase, candidates):
        doc["dual_overrides"][0][1] = "zz1"
        doc["dual_overrides"].append(["zz2", "0"])
    with pytest.raises(ForeignElement, match="^'zz1'$"):
        phase_from_doc(phase)
    with pytest.raises(ForeignElement, match="^'zz1'$"):
        solve_table(candidates)


def test_max_solutions_cap():
    with pytest.raises(CapExceeded) as exc:
        solve_table(data_path("goal_phase_candidates.json"), max_solutions=1)
    assert len(exc.value.solutions) == 1
    m = entry_map(exc.value.solutions[0])
    assert m[("a", "b1")] == "0"


def test_max_solutions_not_exceeded():
    solutions = solve_table(data_path("goal_phase_candidates.json"),
                            max_solutions=2)
    assert len(solutions) == 2


def test_conflicting_candidate_lists_rejected():
    doc = candidates_doc()
    doc["mult"].append(["b1", "a", ["a", "b1"]])
    with pytest.raises(NotCommutative):
        solve_table(doc)


def test_resolved_docs_round_trip():
    for doc in solve_table(data_path("goal_phase_candidates.json")):
        text = json.dumps(doc, sort_keys=True)
        again = json.loads(text)
        assert phase_from_doc(again).mult("b3", "e") == "J3e"


def test_short_candidate_row_is_named():
    doc = candidates_doc()
    doc["mult"].append(["a", "b1"])
    with pytest.raises(ValueError, match=r"mult row \['a', 'b1'\] is not"):
        solve_table(doc)
