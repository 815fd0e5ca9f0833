"""Acceptance gate: one test per shipped guarantee, each timed.

Run with -v to get one pass/fail line per criterion.
"""

import json
import time

from conftest import (positionally_winning, random_distributive_lattice,
                      random_game, random_payoff, random_strategy, seeded)
from phasegame.cli import main
from phasegame.expr import eval_expr
from phasegame.games import (compose_strategies, dual_game, implication_game,
                             is_winning, payoff_implication, tensor_game)
from phasegame.phase import load_phase, phase_from_doc, verify_laws
from phasegame.planner import load_scenario, select_goal_sets

ESTIMATIONS = [
    ("a -o J1a x e x b2", "1"),
    ("a -o J1a x e x b3", "b1"),
    ("a -o J1a x e x b2 x b3", "b1"),
    ("a -o e x b2 x b3", "1"),
    ("a -o e x b2", "1"),
    ("a -o e x b3", "1"),
    ("a -o J1a x e", "1"),
    ("a -o e", "1"),
]

FIG2_ALT_DOC = {
    "name": "four_goals_alt",
    "grid": [
        ".........", ".........", ".........", ".........",
        ".........", ".........", ".........",
    ],
    "start": [4, 3],
    "horizon": 2,
    "goal_phase": "data:goal_phase_alt.json",
    "free_move_goal": "a",
    "objects": [
        {"id": "obj_b1", "cell": [2, 5], "features": ["tall", "thin"],
         "goal": "J1a", "attractiveness": 2},
        {"id": "obj_b2", "cell": [2, 2], "features": ["blue", "box"],
         "goal": "b2", "attractiveness": 3},
        {"id": "obj_b3", "cell": [6, 5], "features": ["dark", "dusty"],
         "goal": "b3", "attractiveness": 1},
        {"id": "obj_e", "cell": [6, 3], "features": ["egg", "oval", "pale"],
         "goal": "e", "attractiveness": 4},
    ],
}


def test_criterion_01_dual_equations():
    start = time.perf_counter()
    ps = load_phase("data:goal_phase.json")
    assert ps.dual("J23") == "J1a"
    assert ps.dual("J23e") == "b1"
    assert ps.dual("J13") == "b2"
    assert ps.dual("J123") == "a"
    assert ps.dual("1") == "0"
    # the dual of falsum is the neutral element I; duality is involutive
    # on facts, so the double dual lands back on falsum itself
    assert ps.dual(ps.falsum) == "J12"
    from phasegame.phase import classify
    assert classify(ps).neutral == "J12"
    assert ps.dual(ps.dual(ps.falsum)) == ps.falsum
    for x in ("J12e", "J13e", "J1e"):
        assert ps.dual(x) == "0", x
    for x in ("J2e", "J3e", "e"):
        assert ps.dual(x) == "b1", x
    assert time.perf_counter() - start < 1.0


def test_criterion_02_table_completion(tmp_path):
    start = time.perf_counter()
    rc = main(["solve", "data:goal_phase_candidates.json", "--quiet",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    paths = sorted(tmp_path.glob("*_solution_*.json"))
    assert paths
    matched = 0
    for p in paths:
        doc = json.loads(p.read_text())
        table = {(x, y): v for x, y, v in doc["mult"]}
        assert table[("a", "b1")] == "0"
        assert table[("a", "b2")] == "a"
        assert table[("a", "b3")] == "b3"
        matched += 1
        report = verify_laws(phase_from_doc(doc))
        assert report["ok"]
        assert all(l["status"] != "fail" for l in report["laws"])
    assert matched >= 1
    # the b1a=a variant admits no law-consistent completion (it breaks
    # associativity), so it ships as a relaxed-check structure instead;
    # loading it and showing the collapse is criterion 4's job
    alt = load_phase("data:goal_phase_alt.json")
    alt_report = verify_laws(alt)
    assert not alt_report["ok"]
    assert {eval_expr(alt, t) for t, _ in ESTIMATIONS} == {"J123"}
    assert time.perf_counter() - start < 60.0


def test_criterion_03_eight_estimations(capsys):
    start = time.perf_counter()
    for text, want in ESTIMATIONS:
        rc = main(["eval", "--phase", "data:goal_phase.json"] + text.split())
        assert rc == 0
        assert capsys.readouterr().out.strip() == want, text
    assert time.perf_counter() - start < 1.0


def test_criterion_04_indistinguishable_branch():
    alt = load_phase("data:goal_phase_alt.json")
    for text, _ in ESTIMATIONS:
        assert eval_expr(alt, text) == "J123", text
    sc = load_scenario(dict(FIG2_ALT_DOC))
    sel = select_goal_sets(sc, list(sc.objects), must_include="obj_e")
    assert sel.indistinguishable


def test_criterion_05_preferred_variants():
    sc = load_scenario("data:four_goals_scenario.json")
    sel = select_goal_sets(sc, list(sc.objects), must_include="obj_e")
    assert [c.goals for c in sel] == [("obj_b1", "obj_b2", "obj_e"),
                                      ("obj_b2", "obj_b3", "obj_e")]
    elements = [sorted(sc.objects[i].goal for i in c.goals) for c in sel]
    assert elements == [["J1a", "b2", "e"], ["b2", "b3", "e"]]


def test_criterion_06_composition_property_suite():
    start = time.perf_counter()
    rng = seeded(20260814)
    cases = 0
    while cases < 200:
        lat = random_distributive_lattice(rng, max_elements=8,
                                          unique_atom=True)
        gx, gy, gz = (random_game(rng, 5) for _ in range(3))
        px = random_payoff(rng, lat, gx)
        py = random_payoff(rng, lat, gy)
        pz = random_payoff(rng, lat, gz)
        sigma = random_strategy(rng, implication_game(gx, gy))
        tau = random_strategy(rng, implication_game(gy, gz))
        if not positionally_winning(payoff_implication(px, py), sigma):
            continue
        if not positionally_winning(payoff_implication(py, pz), tau):
            continue
        cases += 1
        comp = compose_strategies(gx, gy, gz, sigma, tau)
        assert is_winning(payoff_implication(px, pz), comp)
    assert cases >= 200
    assert time.perf_counter() - start < 60.0


def test_criterion_07_currying_identity():
    start = time.perf_counter()
    rng = seeded(7)
    for _ in range(20):
        lat = random_distributive_lattice(rng, max_elements=8)
        for x in lat.elements:
            for y in lat.elements:
                for z in lat.elements:
                    lhs = lat.heyting_implies(lat.meet2(x, y), z)
                    rhs = lat.heyting_implies(x, lat.heyting_implies(y, z))
                    assert lhs == rhs, (x, y, z)
    assert time.perf_counter() - start < 10.0


def test_criterion_08_subset_oracle_census():
    from itertools import combinations

    from phasegame.subset_oracle import (all_commutative_monoids,
                                         cyclic_monoid, oracle_report)
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4):
        for els, mult, unit in all_commutative_monoids(n):
            for r in range(len(els) + 1):
                for pole in combinations(els, r):
                    report = oracle_report(els, mult, unit, frozenset(pole))
                    assert report["ok"], (mult, pole)
                    checked += 1
    for n in (2, 3):
        els, mult, unit = cyclic_monoid(n)
        for r in range(len(els) + 1):
            for pole in combinations(els, r):
                report = oracle_report(els, mult, unit, frozenset(pole))
                assert report["ok"], (n, pole)
                checked += 1
    assert checked == 1598
    assert time.perf_counter() - start < 60.0


def test_criterion_09_structural_identities():
    start = time.perf_counter()
    rng = seeded(9)
    for _ in range(100):
        a, b = random_game(rng), random_game(rng)
        t = tensor_game(a, b)
        assert len(t.vertices) == len(a.vertices) * len(b.vertices)
        dd = dual_game(dual_game(a))
        assert dd.vertices == a.vertices
        assert dd.root == a.root
        assert dd.edges == a.edges
    assert time.perf_counter() - start < 5.0


def test_criterion_10_simulator_determinism(tmp_path):
    for name in ("four_goals_scenario", "tiny_scenario", "empty_scenario"):
        start = time.perf_counter()
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / name / sub
            rc = main(["simulate", "data:%s.json" % name, "--quiet",
                       "--seed", "11", "--max-steps", "12",
                       "--out-dir", str(out)])
            assert rc == 0
            texts.append((out / ("%s_trace.json" % name)).read_text())
        assert texts[0] == texts[1]

        doc = json.loads(texts[0])
        last = {}
        for entry in doc["entries"]:
            for oid, feats in entry.get("images", {}).items():
                assert set(feats) >= set(last.get(oid, set())), (name, oid)
                last[oid] = feats
        assert time.perf_counter() - start < 10.0, name
