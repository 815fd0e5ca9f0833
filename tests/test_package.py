"""The package's public names, the modules each entry point loads, and the
tests each README guarantee names."""

import ast
import os
import re
import subprocess
import sys
from importlib import import_module

import pytest

import phasegame

# every name the package exports, under the module that defines it
PUBLIC = {
    "errors": ["PhasegameError"],
    "lattice": ["Lattice", "PowersetLattice", "lattice_from_doc",
                "load_lattice"],
    "phase": ["PhaseStructure", "classify", "load_phase", "phase_from_doc",
              "verify_laws"],
    "solver": ["solve_table"],
    "subset_oracle": ["SubsetPhase", "all_commutative_monoids",
                      "cyclic_monoid", "oracle_report"],
    "games": ["Game", "PayoffGame", "Strategy", "compose_strategies",
              "copycat", "dual_game", "dual_payoff_game", "implication_game",
              "is_winning", "maximal_plays", "payoff_implication",
              "payoff_tensor", "tensor_game"],
    "planner": ["Scenario", "build_compound_game", "eval_priority",
                "load_scenario", "plan_play", "run_cognition",
                "select_goal_sets", "visible_rewards"],
    "expr": ["eval_expr", "parse", "tokenize"],
}


def test_each_public_name_is_its_modules_object():
    assert set(phasegame.__all__) == {
        name for names in PUBLIC.values() for name in names}
    assert len(phasegame.__all__) == 39
    for module, names in PUBLIC.items():
        owner = import_module("phasegame." + module)
        for name in names:
            assert getattr(phasegame, name) is getattr(owner, name), name


@pytest.mark.parametrize("name", ["no_such_name", "monoid_from_doc"])
def test_other_names_are_attribute_errors(name):
    # monoid_from_doc is public in subset_oracle but not exported
    with pytest.raises(AttributeError, match=name):
        getattr(phasegame, name)


def imported(argv):
    """The phasegame modules a fresh interpreter imports to run argv."""
    src = os.path.dirname(os.path.dirname(phasegame.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = (line.rsplit("|", 1)[-1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:"))
    return {name for name in names if name.split(".")[0] == "phasegame"}


CORE = {"phasegame", "phasegame.data", "phasegame.errors"}
PHASE = CORE | {"phasegame.lattice", "phasegame.phase"}
# the cognition loop runs no Conway game, so simulate never loads games
PLANNER = PHASE | {"phasegame.planner"}


# a verb run with -m executes phasegame.cli as __main__, so the CLI module
# itself is never imported under its own name; OUT stands for a fresh
# --out-dir, so a verb that writes files leaves the working tree clean
@pytest.mark.parametrize("argv, loaded", [
    (["-c", "import phasegame"], {"phasegame"}),
    (["-m", "phasegame.cli", "oracle", "data:z3_monoid.json"],
     CORE | {"phasegame.subset_oracle"}),
    (["-m", "phasegame.cli", "eval", "--phase", "data:goal_phase.json",
      "e^^"],
     PHASE | {"phasegame.expr"}),
    (["-m", "phasegame.cli", "simulate", "data:four_goals_scenario.json",
      "--emit", "json", "--out-dir", "OUT"], PLANNER),
    (["-m", "phasegame.cli", "simulate", "data:four_goals_scenario.json",
      "--emit", "dot", "--out-dir", "OUT"], PLANNER | {"phasegame.dot"}),
    (["-m", "phasegame.cli", "verify", "--lattice", "data:goal_lattice.json",
      "--phase", "data:goal_phase.json"], PHASE),
    (["-m", "phasegame.cli", "facts", "--phase", "data:goal_phase.json"],
     PHASE),
    (["-m", "phasegame.cli", "solve", "data:goal_phase_candidates.json",
      "--out-dir", "OUT"], PHASE | {"phasegame.solver"}),
])
def test_entry_point_loads_only_what_it_runs(argv, loaded, tmp_path):
    assert imported([str(tmp_path) if word == "OUT" else word
                     for word in argv]) == loaded


def _package_trees():
    """Each module of the package, parsed: {module name: ast.Module}."""
    src = os.path.dirname(phasegame.__file__)
    trees = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def _reads(tree):
    """The names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _sibling_imports(tree):
    """The names a module imports from a sibling module."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def _bound(stmt):
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [node.id for target in stmt.targets
                for node in ast.walk(target) if isinstance(node, ast.Name)]
    return []


def test_every_import_and_private_name_is_read():
    # an import a module never reads, or a module-level name that no module
    # of the package reads and that is not exported in __all__, is code
    # with no caller
    trees = _package_trees()
    read = set().union(*map(_reads, trees.values()),
                       *map(_sibling_imports, trees.values()))
    unread = []
    for module, tree in trees.items():
        local = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += ["%s imports %s" % (module, name) for name in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if name not in local]
        for stmt in tree.body:
            unread += ["%s defines %s" % (module, name)
                       for name in _bound(stmt) if not name.endswith("__")
                       and name not in read and name not in phasegame.__all__]
    assert unread == []


TESTS = os.path.dirname(os.path.abspath(__file__))


def readme_guarantees():
    """The bullets of README's "Guarantees worth knowing about" section."""
    with open(os.path.join(TESTS, os.pardir, "README.md"),
              encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Guarantees worth knowing about\n")[1]
    return re.split(r"^- ", section.split("\n## ")[0], flags=re.M)[1:]


def test_every_readme_guarantee_names_its_tests():
    # each guarantee names the tests that check it as
    # `tests/<file>.py::<function>`, and each named function is a test
    # that its file defines, found by parsing the file, not importing it
    bullets = readme_guarantees()
    assert len(bullets) == 10
    defined = {}
    for bullet in bullets:
        named = re.findall(r"`tests/(\w+\.py)::(\w+)`", bullet)
        assert named, "names no test: " + bullet[:60]
        for name, function in named:
            if name not in defined:
                with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                    defined[name] = {
                        node.name for node in ast.parse(fh.read()).body
                        if isinstance(node, ast.FunctionDef)
                        and node.name.startswith("test_")}
            assert function in defined[name], (name, function)
