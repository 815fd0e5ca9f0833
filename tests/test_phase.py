import json
import os
import random
from collections import Counter

import pytest

from conftest import chain, hand_built
from test_differential import _load_gen, old_classify, outcome, passed
from phasegame import phase as phase_module
from phasegame.data import data_path, load_doc
from phasegame.errors import (
    DualLawViolation,
    ForeignElement,
    NotAssociative,
    NotClosed,
    NotCommutative,
    OverrideInconsistent,
    UnitNotNeutral,
    UsageError,
)
from phasegame.phase import (
    _DUAL_LAWS,
    PhaseStructure,
    classify,
    load_phase,
    phase_from_doc,
    verify_laws,
)
from phasegame.lattice import Lattice, lattice_from_doc
from phasegame.planner import load_scenario

ESTIMATIONS = [
    (["J1a", "e", "b2"], "1"),
    (["J1a", "e", "b3"], "b1"),
    (["J1a", "e", "b2", "b3"], "b1"),
    (["e", "b2", "b3"], "1"),
    (["e", "b2"], "1"),
    (["e", "b3"], "1"),
    (["J1a", "e"], "1"),
    (["e"], "1"),
]

FACT_DUALS = {
    "0": "1", "a": "J123", "b1": "J23e", "b2": "J13", "b3": "J12",
    "J1a": "J23", "J12": "b3", "J13": "b2", "J23": "J1a",
    "J123": "a", "J23e": "b1", "1": "0",
}

NONFACT_DUALS = {
    "e": "b1", "J2e": "b1", "J3e": "b1",
    "J1e": "0", "J12e": "0", "J13e": "0",
}


def phase_doc():
    doc = load_doc("data:goal_phase.json")[0]
    doc["lattice"] = "data:goal_lattice.json"
    return doc


def test_load_goal_phase(goal_phase):
    ps = goal_phase
    assert ps.unit == "e"
    assert ps.falsum == "b3"
    assert ps.mult("e", "e") == "e"
    assert ps.mult("b1", "a") == "0"
    assert ps.mult("b2", "a") == "a"
    assert ps.mult("a", "b3") == "b3"


def test_goal_phase_duals_exact(goal_phase):
    facts = goal_phase.facts()
    for x, d in FACT_DUALS.items():
        assert goal_phase.dual(x) == d
        assert x in facts
    for x, d in NONFACT_DUALS.items():
        assert goal_phase.dual(x) == d
        assert x not in facts


def test_facts_census(goal_phase):
    assert goal_phase.facts() == sorted(FACT_DUALS,
                                        key=goal_phase.lattice.idx)


def test_verify_laws_all_pass(goal_phase):
    report = verify_laws(goal_phase)
    assert report["ok"]
    by_name = {l["law"]: l for l in report["laws"]}
    assert by_name["commutative"]["checked"] == 324
    assert by_name["associative"]["checked"] == 18 ** 3
    assert by_name["unit_identity"]["status"] == "skipped"
    # the residual law only applies where the residual is closed
    res = by_name["residual_matches_dual_product"]
    assert res["checked"] == 111
    assert res["skipped"] == 213


def test_classification(goal_phase):
    cls = classify(goal_phase)
    assert cls.open_class == ["0", "a", "b1", "J1a", "b2", "J12"]
    assert cls.closed_class == ["b3", "J13", "J23", "J123", "J23e", "1"]
    assert cls.neutral == "J12"
    assert goal_phase.dual(goal_phase.falsum) == cls.neutral


def test_estimations(goal_phase):
    ps = goal_phase
    for goals, expected in ESTIMATIONS:
        folded = goals[0]
        for g in goals[1:]:
            folded = ps.mult(folded, g)
        assert ps.impl("a", folded) == expected


def test_estimations_collapse_on_alternative(alt_phase):
    ps = alt_phase
    assert ps.mult("b1", "a") == "a"
    assert ps.mult("b2", "a") == "0"
    for goals, _ in ESTIMATIONS:
        folded = goals[0]
        for g in goals[1:]:
            folded = ps.mult(folded, g)
        assert ps.impl("a", folded) == "J123"


def test_alt_structure_fails_full_laws(alt_phase):
    # shipped with checks=relaxed precisely because these laws break
    report = verify_laws(alt_phase)
    assert not report["ok"]
    failing = {l["law"] for l in report["laws"] if l["status"] == "fail"}
    assert "associative" in failing


def test_par_de_morgan_on_facts(goal_phase):
    ps = goal_phase
    for x in ps.facts():
        for y in ps.facts():
            assert ps.par(ps.dual(x), ps.dual(y)) == ps.dual(ps.mult(x, y))


def test_impl_is_dual_of_product(goal_phase):
    ps = goal_phase
    for x in ("a", "e", "J1a", "b3"):
        for y in ("b2", "e", "1", "0"):
            assert ps.impl(x, y) == ps.dual(ps.mult(x, ps.dual(y)))


def test_lin_implies_closed_and_not(goal_phase):
    ps = goal_phase
    closed = 0
    for x in ps.lattice.elements:
        for y in ps.lattice.elements:
            try:
                star = ps.lin_implies(x, y)
            except NotClosed:
                continue
            closed += 1
            # where the residual exists it is the dual-of-product implication
            assert star == ps.dual(ps.mult(x, ps.dual(y))) or \
                ps.lattice.leq(ps.mult(x, star), y)
            assert ps.lattice.leq(ps.mult(x, star), y)
    assert closed == 155
    with pytest.raises(NotClosed):
        ps.lin_implies("a", "0")
    with pytest.raises(NotClosed):
        ps.lin_implies("b2", "b3")


def test_strict_unit_rejected_on_goal_phase():
    doc = phase_doc()
    doc["unit_mode"] = "strict"
    with pytest.raises(UnitNotNeutral):
        phase_from_doc(doc)


def test_strict_unit_accepted_on_bool2():
    ps = load_phase("data:bool2_phase.json")
    assert ps.unit_mode == "strict"
    assert ps.dual("0") == "1" and ps.dual("1") == "0"
    assert verify_laws(ps)["ok"]


def test_candidate_lists_rejected():
    doc = phase_doc()
    doc["mult"][0] = [doc["mult"][0][0], doc["mult"][0][1], ["0", "a"]]
    with pytest.raises(ValueError, match="solver"):
        phase_from_doc(doc)


def test_conflicting_symmetric_entries():
    doc = phase_doc()
    doc["mult"].append(["a", "b1", "a"])  # table already fixes b1·a = 0
    with pytest.raises(NotCommutative):
        phase_from_doc(doc)


def test_totality_enforced():
    doc = phase_doc()
    doc["mult"] = doc["mult"][:-1]
    with pytest.raises(NotCommutative, match="undefined"):
        phase_from_doc(doc)


def test_hand_built_table_is_checked_at_construction():
    lat = chain(3)
    duals = {x: x for x in lat.elements}
    table = {(x, y): "0" for x in lat.elements for y in lat.elements}
    del table[("1", "2")], table[("2", "0")]
    with pytest.raises(NotCommutative,
                       match=r"product undefined at \('1', '2'\)"):
        hand_built(lat, table, "2", "0", duals)
    table[("1", "2")] = table[("2", "0")] = "7"
    with pytest.raises(ForeignElement, match="'7'"):
        hand_built(lat, table, "2", "0", duals)


def test_associativity_enforced():
    doc = phase_doc()
    doc["mult"] = [e if (e[0], e[1]) != ("e", "e") else ["e", "e", "a"]
                   for e in doc["mult"]]
    with pytest.raises(NotAssociative):
        phase_from_doc(doc)


def test_foreign_elements_rejected():
    doc = phase_doc()
    doc["unit"] = "zz"
    with pytest.raises(ForeignElement):
        phase_from_doc(doc)


@pytest.mark.parametrize("method,args", [
    ("mult", ("zz", "a")), ("dual", ("zz",)),
    ("par", ("zz", "a")), ("impl", ("a", "zz")),
    ("lin_implies", ("zz", "a"))],
    ids=["mult", "dual", "par", "impl", "lin_implies"])
def test_foreign_names_in_connectives(goal_phase, method, args):
    with pytest.raises(ForeignElement, match="'zz'"):
        getattr(goal_phase, method)(*args)


def test_foreign_override_key_rejected():
    doc = phase_doc()
    doc["dual_overrides"].append(["zz", "0"])
    with pytest.raises(ForeignElement, match="'zz'"):
        phase_from_doc(doc)


def test_repeated_override_key_rejected():
    doc = phase_doc()
    doc["dual_overrides"].append(list(doc["dual_overrides"][0]))
    with pytest.raises(UsageError, match="'dual_overrides' names '0' twice"):
        phase_from_doc(doc)


def test_corrupted_override_reported_not_raised():
    doc = phase_doc()
    for pair in doc["dual_overrides"]:
        if pair[0] == "a":
            pair[1] = "b2"  # truth: dual(a) = J123
    ps = phase_from_doc(doc, validate=False)
    report = verify_laws(ps)
    assert not report["ok"]
    failing = {l["law"] for l in report["laws"] if l["status"] == "fail"}
    assert "triple_dual" in failing or "dual_of_join_is_meet_of_duals" in failing
    witnesses = [w for l in report["laws"] for w in l["witnesses"]]
    assert witnesses


def test_corrupted_override_raises_on_validate():
    doc = phase_doc()
    for pair in doc["dual_overrides"]:
        if pair[0] == "a":
            pair[1] = "b2"
    with pytest.raises((OverrideInconsistent, DualLawViolation)):
        phase_from_doc(doc)


def test_unit_mode_and_checks_validated():
    doc = phase_doc()
    doc["unit_mode"] = "sloppy"
    with pytest.raises(ValueError):
        phase_from_doc(doc)
    doc = phase_doc()
    doc["checks"] = "none"
    with pytest.raises(ValueError):
        phase_from_doc(doc)


def test_declared_class_mismatch_detected(goal_phase):
    from phasegame.errors import NotClosedClass
    els = goal_phase.lattice.elements
    ps = hand_built(goal_phase.lattice,
                    {(x, y): goal_phase.mult(x, y) for x in els for y in els},
                    goal_phase.unit, goal_phase.falsum,
                    {x: goal_phase.dual(x) for x in els},
                    op_class=["0"], cl_class=["1"])
    with pytest.raises(NotClosedClass):
        classify(ps)


# one hand-built structure per NotClosedClass message of classify, in the
# order classify checks them: (lattice, product rows, falsum, duals,
# declared classes, message).  Row i of the product and character i of
# the duals belong to the lattice's element i; the unit plays no part.
_SQUARE = Lattice(["0", "a", "b", "1"],
                  [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")], "0", "1")
NOT_CLOSED = [
    # the Boolean chain 0 < 1, whose both classes are {0, 1}
    (chain(2), ["00", "01"], "0", "10", {"op_class": ["0"]},
     "declared open class ['0'] differs from derived ['0', '1']"),
    (chain(2), ["00", "01"], "0", "10", {"cl_class": ["1"]},
     "declared closed class ['1'] differs from derived ['0', '1']"),
    # facts 1 and 2, open {1} and closed {1, 2}
    (chain(3), ["201", "022", "121"], "1", "112", {},
     "duality does not swap the open and closed classes"),
    # facts a and b, both classes {a, b}, and a v b = 1
    (_SQUARE, ["b0ba", "011b", "b1b1", "ab11"], "0", "1aba", {},
     "open class not join-closed at ('a', 'b')"),
    # open {1}, and 1.1 = 2 is its own double dual
    (chain(3), ["112", "120", "200"], "2", "221", {},
     "open class not tensor-closed at ('1', '1')"),
    # both classes {a, b, 1}, and a & b = 0
    (_SQUARE, ["11ab", "1a0b", "a0b1", "bb10"], "0", "1a1b", {},
     "closed class not meet-closed at ('a', 'b')"),
    # both classes {1}, and 1 par 1 = dual(1.1) = 2
    (chain(3), ["020", "202", "021"], "1", "211", {},
     "closed class not par-closed at ('1', '1')"),
    # both classes {1}, below the neutral element dual(0) = 2
    (chain(3), ["000", "020", "002"], "0", "211", {},
     "largest open fact is not the neutral element"),
    # every dual is 2, so both classes are {2}, above falsum 0
    (chain(3), ["210", "120", "000"], "0", "222", {},
     "least closed fact is not falsum"),
]


@pytest.mark.parametrize("lat,rows,falsum,duals,declared,message", NOT_CLOSED,
                         ids=[case[-1].split(" at ")[0]
                              for case in NOT_CLOSED])
def test_classify_names_the_first_failed_check(lat, rows, falsum, duals,
                                               declared, message):
    from phasegame.errors import NotClosedClass
    els = lat.elements
    ps = hand_built(lat, {(x, y): rows[i][j] for i, x in enumerate(els)
                          for j, y in enumerate(els)},
                    els[-1], falsum, dict(zip(els, duals)), **declared)
    with pytest.raises(NotClosedClass) as info:
        classify(ps)
    assert str(info.value) == message


def test_edited_cases_classify_as_before():
    # seeded one-entry edits of the cases above, to one product entry or
    # one dual: classify on index tables gives the classes, or the
    # NotClosedClass message, of the name-keyed classify it replaced
    rng = random.Random(611)
    seen = Counter()
    for lat, rows, falsum, duals, declared, _ in NOT_CLOSED:
        els = lat.elements
        for _ in range(100):
            table = {(x, y): rows[i][j] for i, x in enumerate(els)
                     for j, y in enumerate(els)}
            dual = dict(zip(els, duals))
            if rng.random() < 0.7:
                table[rng.choice(els), rng.choice(els)] = rng.choice(els)
            else:
                dual[rng.choice(els)] = rng.choice(els)
            ps = hand_built(lat, table, els[-1], falsum, dual, **declared)
            want = outcome(old_classify, ps)
            assert outcome(classify, ps) == want, (table, dual, declared)
            seen[want[1].split(" at ")[0].split(" differs")[0]
                 if isinstance(want[1], str) else "classes"] += 1
    # every check of classify fails on some edit, and 54 edits pass all
    assert seen == {"declared open class ['0']": 88,
                    "declared closed class ['1']": 91,
                    "duality does not swap the open and closed classes": 120,
                    "open class not join-closed": 84,
                    "open class not tensor-closed": 81,
                    "closed class not meet-closed": 74,
                    "closed class not par-closed": 78,
                    "largest open fact is not the neutral element": 104,
                    "least closed fact is not falsum": 126,
                    "classes": 54}, seen


def test_load_runs_no_residual_scan(monkeypatch):
    # every dual of the goal phase is an override, so loading asks no
    # residual: it only gathers every row's witness mask towards falsum,
    # in one call, which for this phase is not always the down-set of the
    # row's dual, so the load scans the dual laws and the audit folds the
    # stars of one product row per element, asking no single residual,
    # star or mask
    calls = []
    for kernel in ("masks", "residual", "stars", "_star"):
        def counting(self, arg, *args, _kernel=getattr(Lattice, kernel),
                     _name=kernel):
            calls.append(_name)
            return _kernel(self, arg, *args)

        monkeypatch.setattr(Lattice, kernel, counting)
    ps = phase_from_doc(phase_doc())
    assert calls == ["masks"]
    verify_laws(ps)
    assert calls == ["masks"] + ["stars"] * len(ps.lattice.elements)


def counting_scans(monkeypatch, names=("_light", "_dual_of_join")):
    """The calls of the phase module's scans named in names (by default
    Light's test and the dual-of-join scan) from here on, one name each."""
    calls = []
    for name in names:
        def counting(*args, _scan=getattr(phase_module, name), _name=name):
            calls.append(_name)
            return _scan(*args)

        monkeypatch.setattr(phase_module, name, counting)
    return calls


def boolean_doc(n=32):
    """A seeded lawful structure whose associativity Light's test decides."""
    doc, _ = _load_gen().boolean_structure(random.Random(n), n)
    return doc


def test_audit_reuses_the_load_time_associativity_verdict(monkeypatch):
    calls = counting_scans(monkeypatch)
    ps = phase_from_doc(boolean_doc())
    # the load proves the dual laws, so it scans no dual of a join
    assert calls == ["_light"]
    report = verify_laws(ps)
    assert calls == ["_light"]
    assert report["laws"][1] == {"law": "associative", "status": "pass",
                                 "checked": 32 ** 3, "skipped": 0,
                                 "witnesses": []}
    assert report["laws"][6] == {"law": "dual_of_join_is_meet_of_duals",
                                 "status": "pass", "checked": 32 ** 2,
                                 "skipped": 0, "witnesses": []}
    # the same rows loaded without the gates decide associativity at
    # load, and their audit reuses that verdict, to the same report
    calls.clear()
    ungated = phase_from_doc(boolean_doc(), validate=False)
    assert calls == ["_light"]
    assert verify_laws(ungated) == report
    assert calls == ["_light"]


def test_light_decides_the_goal_phase(monkeypatch):
    # 12 of the goal phase's 18 elements are no product of two others,
    # and they generate it, so Light's test decides its associativity
    # and no instance is scanned
    calls = counting_scans(monkeypatch, ("_light", "_scan_associative"))
    ps = phase_from_doc(phase_doc())
    assert calls == ["_light"]
    rows = ps._rows
    assert len(phase_module._generators(
        rows, ps.lattice.idx(ps.unit))) == 12 and len(rows) == 18


def test_audit_reuses_the_load_time_associativity_failure(monkeypatch):
    # goal_phase_alt is not associative: its ungated load finds Light's
    # test failing and scans for the first witnesses, and the audit lists
    # those, scanning nothing: it neither looks for generators nor runs
    # Light's test or the scan again
    calls = counting_scans(monkeypatch, ("_generators", "_light",
                                         "_scan_associative"))
    doc = load_doc("data:goal_phase_alt.json")[0]
    doc["lattice"] = "data:goal_lattice.json"
    ps = phase_from_doc(doc, validate=False)
    assert calls == ["_generators", "_light", "_scan_associative"]
    assert {law for law, found in ps._verdicts.items() if found} == \
        {"associative", "unit_identity"}
    calls.clear()
    report = verify_laws(ps)
    assert calls == []
    # to the report of the same tables built by hand, which decides the
    # law in full
    built = PhaseStructure(ps.lattice, ps._rows, ps.unit, ps.falsum,
                           ps._dual, ps.unit_mode)
    assert verify_laws(built) == report
    assert report["laws"][1]["status"] == "fail"


@pytest.mark.parametrize("name", ["goal_phase", "goal_phase_alt"])
@pytest.mark.parametrize("how", ["ungated", "relaxed"])
def test_a_load_and_its_audit_scan_each_law_at_most_once(name, how,
                                                         monkeypatch):
    # the shipped phases loaded without their gates or under checks:
    # relaxed: the load decides associativity and the four dual laws,
    # scanning each at most once, and the audit lists those verdicts with
    # no scan, to the report of the same tables built by hand
    calls = counting_scans(monkeypatch, ("_scan_associative",
                                         "_dual_of_join"))
    doc = load_doc("data:%s.json" % name)[0]
    doc["lattice"] = "data:goal_lattice.json"
    if how == "relaxed":
        doc["checks"] = "relaxed"
    ps = phase_from_doc(doc, validate=how == "relaxed")
    assert calls.count("_scan_associative") <= 1
    assert calls.count("_dual_of_join") <= 1
    calls.clear()
    report = verify_laws(ps)
    assert calls == []
    built = PhaseStructure(ps.lattice, ps._rows, ps.unit, ps.falsum,
                           ps._dual, ps.unit_mode)
    assert verify_laws(built) == report


def test_gated_load_proves_the_dual_laws(monkeypatch):
    # each row's witness mask towards falsum is the down-set of its dual
    # and the rows commute: the load proves the four dual laws, the
    # commutative law and the residual law, and neither it nor the audit
    # scans any of them or folds the stars of a row
    calls = counting_scans(monkeypatch,
                           ("_light", "_dual_of_join", "_commutative"))

    def folding(self, row, _stars=Lattice.stars):
        calls.append("stars")
        return _stars(self, row)

    monkeypatch.setattr(Lattice, "stars", folding)
    ps = phase_from_doc(boolean_doc())
    assert "_dual_of_join" not in calls
    assert passed(ps) == {"associative", "unit_identity", "commutative",
                          "residual_matches_dual_product", *_DUAL_LAWS}
    calls.clear()
    report = verify_laws(ps)
    assert calls == []
    assert report["ok"]


def test_loads_prove_the_same_laws_whatever_their_gates(monkeypatch):
    # a lawful table loaded with its gates, without them or under checks:
    # relaxed: each load decides commutativity (one _commutative pass)
    # and associativity (Light's test) and proves the rest from the
    # Galois connection of its duals, so none scans a dual of a join or
    # folds the stars of a row, and each audit scans nothing
    calls = counting_scans(monkeypatch,
                           ("_light", "_dual_of_join", "_commutative"))

    def folding(self, row, _stars=Lattice.stars):
        calls.append("stars")
        return _stars(self, row)

    monkeypatch.setattr(Lattice, "stars", folding)
    relaxed = boolean_doc()
    relaxed["checks"] = "relaxed"
    reports = []
    for doc, validate in ((boolean_doc(), True), (boolean_doc(), False),
                          (relaxed, True)):
        ps = phase_from_doc(doc, validate=validate)
        assert calls == ["_commutative", "_light"]
        calls.clear()
        reports.append(verify_laws(ps))
        assert calls == []
        assert passed(ps) == {"associative", "unit_identity", "commutative",
                              "residual_matches_dual_product", *_DUAL_LAWS}
    assert reports[0]["ok"] and reports.count(reports[0]) == 3
    # a structure built by hand on the same index tables is audited in
    # full, to the same report
    built = PhaseStructure(ps.lattice, ps._rows, ps.unit, ps.falsum,
                           ps._dual, ps.unit_mode)
    assert verify_laws(built) == reports[0]
    assert calls == ["_commutative", "_light", "_dual_of_join"] + \
        ["stars"] * 32


def test_verify_laws_caps_witnesses():
    doc = phase_doc()
    doc["mult"] = [e if (e[0], e[1]) != ("e", "e") else ["e", "e", "a"]
                   for e in doc["mult"]]
    report = verify_laws(phase_from_doc(doc, validate=False))
    assoc = {l["law"]: l for l in report["laws"]}["associative"]
    assert assoc["status"] == "fail"
    assert assoc["checked"] == 18 ** 3
    assert len(assoc["witnesses"]) == 5
    with pytest.raises(NotAssociative, match=r"\('a', 'J2e', 'e'\)"):
        phase_from_doc(doc)


def test_element_without_any_witness_has_no_residual():
    lat = chain(2)
    doc = {"mult": [["0", "0", "1"], ["0", "1", "1"], ["1", "1", "1"]],
           "unit": "1", "falsum": "0"}
    with pytest.raises(NotClosed):
        phase_from_doc(doc, lattice=lat)
    top = {(x, y): "1" for x in lat.elements for y in lat.elements}
    ps = hand_built(lat, top, "1", "0", {"0": "1", "1": "0"})
    with pytest.raises(NotClosed):
        ps.lin_implies("1", "0")
    # towards dual(1) = 0 no element has a witness: skipped, not raised
    residual = verify_laws(ps)["laws"][-1]
    assert residual["law"] == "residual_matches_dual_product"
    assert (residual["checked"], residual["skipped"]) == (2, 2)


def test_mult_rows_must_be_triples():
    doc = phase_doc()
    doc["mult"][3] = doc["mult"][3][:2]
    with pytest.raises(ValueError, match="triple"):
        phase_from_doc(doc, validate=False)


# the cache of phase files -------------------------------------------------

CHAIN2 = {"elements": ["0", "1"], "covers": [["0", "1"]], "bottom": "0",
          "top": "1", "generators": ["0"]}
MEET2 = {"lattice": "lattice.json",
         "mult": [["0", "0", "0"], ["0", "1", "0"], ["1", "1", "1"]],
         "unit": "1", "falsum": "0"}


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def rewrite_in_place(path, old, new):
    """Replace old by new, a string of its length, in the file at path and
    give the file back its modification time."""
    st = os.stat(path)
    text = path.read_text()
    assert len(old) == len(new) and text.count(old) == 1
    path.write_text(text.replace(old, new))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (st.st_size, st.st_mtime_ns)


@pytest.fixture
def phase_file(tmp_path):
    write_doc(tmp_path / "lattice.json", CHAIN2)
    return write_doc(tmp_path / "phase.json", MEET2)


def test_scenarios_naming_one_phase_share_it(tmp_path, phase_file,
                                             monkeypatch):
    scenario = load_doc("data:tiny_scenario.json")[0]
    assert scenario["goal_phase"] == "data:goal_phase.json"
    a = load_scenario(write_doc(tmp_path / "scenario.json", scenario))
    b = load_scenario(dict(scenario, goal_phase=data_path("goal_phase.json")))
    assert a.phase is b.phase is load_phase("data:goal_phase.json")
    # one file named by a relative and by an absolute path
    monkeypatch.chdir(tmp_path)
    assert load_phase("phase.json") is load_phase(phase_file)


def test_same_size_rewrite_of_phase_is_reloaded(tmp_path, phase_file):
    ps = load_phase(phase_file)
    assert load_phase(phase_file) is ps
    rewrite_in_place(tmp_path / "phase.json", '"falsum": "0"',
                     '"falsum": "1"')
    fresh = load_phase(phase_file)
    assert (ps.falsum, fresh.falsum) == ("0", "1")
    assert load_phase(phase_file) is fresh


def test_same_size_rewrite_of_lattice_is_reloaded(tmp_path, phase_file):
    ps = load_phase(phase_file)
    rewrite_in_place(tmp_path / "lattice.json", '"generators": ["0"]',
                     '"generators": ["1"]')
    fresh = load_phase(phase_file)
    assert (ps.lattice.generators, fresh.lattice.generators) == (["0"],
                                                                 ["1"])
    assert load_phase(phase_file) is fresh


def test_failed_load_is_not_kept(tmp_path, phase_file):
    good = (tmp_path / "phase.json").read_text()
    (tmp_path / "phase.json").write_text(good[:-1])
    for _ in range(2):
        with pytest.raises(UsageError, match="phase.json"):
            load_phase(phase_file)
    (tmp_path / "phase.json").write_text(good)
    assert load_phase(phase_file).falsum == "0"


def test_unvalidated_load_never_answers_a_validated_one(tmp_path):
    write_doc(tmp_path / "lattice.json", CHAIN2)
    path = write_doc(tmp_path / "phase.json",
                     dict(MEET2, unit="0", unit_mode="strict"))
    broken = load_phase(path, validate=False)
    assert load_phase(path, validate=False) is broken
    for _ in range(2):
        with pytest.raises(UnitNotNeutral):
            load_phase(path)


def test_given_lattice_bypasses_the_cache(tmp_path, phase_file):
    cached = load_phase(phase_file)
    lattice = lattice_from_doc(CHAIN2)
    a, b = (load_phase(phase_file, lattice=lattice) for _ in range(2))
    assert a is not b and cached not in (a, b)
    assert a.lattice is lattice
