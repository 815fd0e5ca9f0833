"""The document boundary: one reader, one reference resolver, one parser of
product rows.  Shipped documents copied elsewhere must load exactly as the
``data:`` originals do, whatever the working directory."""

import json
import os
import shutil

import pytest

from conftest import chain
from phasegame.cli import main
from phasegame.data import data_path, load_doc, product_rows, stem
from phasegame.errors import UsageError
from phasegame.lattice import load_lattice
from phasegame.phase import load_phase
from phasegame.planner import load_scenario, run_cognition
from phasegame.solver import solve_table

SHIPPED = ("goal_lattice.json", "goal_phase.json",
           "goal_phase_candidates.json", "z3_monoid.json")


@pytest.fixture
def relocated(tmp_path, monkeypatch):
    """Copies of shipped documents in docs/, with a scenario naming its
    phase by a relative path, and the working directory set to elsewhere/."""
    docs = tmp_path / "docs"
    docs.mkdir()
    for name in SHIPPED:
        shutil.copy(data_path(name), docs / name)
    with open(data_path("four_goals_scenario.json")) as fh:
        scenario = json.load(fh)
    assert scenario["goal_phase"] == "data:goal_phase.json"
    scenario["goal_phase"] = "goal_phase.json"
    (docs / "four_goals_scenario.json").write_text(json.dumps(scenario))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    return docs


def without_lattice(docs):
    return [dict(d, lattice=None) for d in docs]


def test_load_doc_passes_parsed_documents_through():
    doc = {"a": 1}
    assert load_doc(doc) == (doc, None)
    assert load_doc(doc, "somewhere")[1] == "somewhere"
    doc, base = load_doc("data:z2_monoid.json")
    assert doc["unit"] == "0"
    assert base == os.path.dirname(data_path("z2_monoid.json"))


def test_load_doc_resolves_against_base_dir(relocated):
    doc, base = load_doc("goal_phase.json", "../docs")
    assert doc["lattice"] == "goal_lattice.json"
    # absolute, so references still resolve after a change of directory
    assert base == str(relocated)


@pytest.mark.parametrize("top", ["[]", "3", '"text"', "null"])
def test_load_doc_rejects_non_object(tmp_path, top):
    path = tmp_path / "not_an_object.json"
    path.write_text(top)
    with pytest.raises(ValueError, match="not_an_object.json"):
        load_doc(str(path))


@pytest.mark.parametrize("text,key", [
    ('{"a": 1, "a": 1}', "a"),
    ('{"a": {"b": [], "c": 0, "b": []}}', "b"),
    ('{"objects": [{"id": "x", "goal": "e", "id": "y"}]}', "id")])
def test_load_doc_rejects_a_repeated_key(tmp_path, text, key):
    # at any depth, even with equal values; a key repeated only across
    # objects is fine
    path = tmp_path / "repeated.json"
    path.write_text(text)
    with pytest.raises(UsageError, match="repeated.json: an object names "
                                         "%r twice" % key):
        load_doc(str(path))
    path.write_text('{"a": {"b": 1}, "c": {"b": 2}}')
    assert load_doc(str(path))[0] == {"a": {"b": 1}, "c": {"b": 2}}


def test_stem_names_a_reference():
    assert stem("data:tiny_scenario.json") == "tiny_scenario"
    assert stem("some/dir/table.v2.json") == "table.v2"


def test_symmetrize_parses_rows():
    # each row fixes both orders of its pair; a pair no row fixes is None.
    # Foreign, conflicting and missing rows are compared with the earlier
    # two-pass parser in tests/test_differential.py
    rows = product_rows(chain(2).elements, [["0", "1", "0"], ["1", "1", "1"]])
    assert rows == [[None, 0], [0, 1]]
    with pytest.raises(ValueError, match="candidates"):
        product_rows(chain(2).elements, [["0", "1", ["0", "1"]]])


def test_relocated_documents_load_like_shipped_ones(relocated):
    lat = load_lattice(str(relocated / "goal_lattice.json"))
    shipped = load_lattice("data:goal_lattice.json")
    assert (lat.elements, lat.covers, lat.bottom, lat.top) == (
        shipped.elements, shipped.covers, shipped.bottom, shipped.top)

    ps = load_phase(str(relocated / "goal_phase.json"))
    shipped = load_phase("data:goal_phase.json")
    assert ps.lattice.elements == shipped.lattice.elements
    assert (ps._rows, ps._dual) == (shipped._rows, shipped._dual)

    sols = solve_table("../docs/goal_phase_candidates.json")
    shipped = solve_table("data:goal_phase_candidates.json")
    assert without_lattice(sols) == without_lattice(shipped)
    # each completion names the copied lattice by an absolute path, so it
    # loads from wherever it is written
    assert {s["lattice"] for s in sols} == {
        str(relocated / "goal_lattice.json")}

    sc = load_scenario(str(relocated / "four_goals_scenario.json"))
    shipped = load_scenario("data:four_goals_scenario.json")
    assert sc.name == shipped.name == "four_goals_scenario"
    assert run_cognition(sc).to_json() == run_cognition(shipped).to_json()


def cli_out(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--lattice", "{}goal_lattice.json",
     "--phase", "{}goal_phase.json"],
    ["facts", "--phase", "{}goal_phase.json"],
    ["eval", "--phase", "{}goal_phase.json", "a -o J1a x e x b2"],
    ["solve", "{}goal_phase_candidates.json", "--out-dir", "out"],
    ["simulate", "{}four_goals_scenario.json", "--out-dir", "out"],
    ["oracle", "{}z3_monoid.json"],
], ids=lambda argv: argv[0])
def test_relocated_documents_give_the_same_cli_output(relocated, capsys,
                                                      argv):
    copied = cli_out(capsys, [a.format("../docs/") for a in argv])
    shipped = cli_out(capsys, [a.format("data:") for a in argv])
    assert copied == shipped
    assert copied[0] == 0


def test_completion_written_elsewhere_finds_its_lattice(relocated, capsys):
    assert main(["solve", "../docs/goal_phase_candidates.json",
                 "--out-dir", "deep/out", "--quiet"]) == 0
    assert main(["verify", "--quiet", "--phase",
                 "deep/out/goal_phase_candidates_solution_001.json"]) == 0
