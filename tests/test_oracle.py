"""The subset oracle computes everything from first principles, so these
tests lean on hand-worked examples plus exhaustive small censuses."""

import json
from itertools import combinations, permutations

import pytest

from phasegame.cli import main
from phasegame.data import load_doc
from phasegame.errors import (ForeignElement, NotAssociative, NotCommutative,
                              SizeExceeded, UnitNotNeutral, UsageError)
from phasegame.phase import classify, phase_from_doc, verify_laws
from phasegame.subset_oracle import (SubsetPhase, all_commutative_monoids,
                                     cyclic_monoid, monoid_from_doc,
                                     oracle_report)


def all_poles(elements):
    return [frozenset(c) for r in range(len(elements) + 1)
            for c in combinations(elements, r)]


def test_z2_hand_computed_duals():
    els, mult, unit = cyclic_monoid(2)
    sp = SubsetPhase(els, mult, unit, frozenset({"0"}))
    zero, one, both = sp.mask({"0"}), sp.mask({"1"}), sp.mask({"0", "1"})
    assert (zero, one, both) == (0b01, 0b10, 0b11)
    assert sp.dual[zero] == zero
    assert sp.dual[one] == one
    assert sp.dual[0] == both
    assert sp.dual[both] == 0
    # every subset of Z/2 with pole {0} is a fact
    assert sp.facts() == [0, zero, one, both]
    assert sp.tensor(one, one) == zero
    assert sp.impl(one, zero) == one
    assert sp.one() == zero
    assert sp.names(both) == frozenset(els)


def test_products_fold_element_masks():
    # Z/3: {1, 2}.{1, 2} = {2, 0, 1}, and {1}.{2} = {0}
    els, mult, unit = cyclic_monoid(3)
    sp = SubsetPhase(els, mult, unit, frozenset({"0"}))
    assert sp.prod(sp.mask("12"), sp.mask("12")) == sp.mask("012")
    assert sp.prod(sp.mask("1"), sp.mask("2")) == sp.mask("0")
    assert sp.prod(0, sp.mask("012")) == sp.prod(sp.mask("012"), 0) == 0
    # dual of {1} against {0}: the z with 1 + z = 0
    assert sp.names(sp.dual[sp.mask("1")]) == frozenset("2")


def test_z2_all_poles_pass():
    els, mult, unit = cyclic_monoid(2)
    for pole in all_poles(els):
        report = oracle_report(els, mult, unit, pole)
        assert report["ok"], (pole, report)
        assert report["subsets"] == 4


def test_z3_all_poles_pass():
    els, mult, unit = cyclic_monoid(3)
    for pole in all_poles(els):
        report = oracle_report(els, mult, unit, pole)
        assert report["ok"], (pole, report)
        assert report["subsets"] == 8


def test_cyclic_four_passes():
    els, mult, unit = cyclic_monoid(4)
    report = oracle_report(els, mult, unit, frozenset({"0"}))
    assert report["ok"]
    assert report["subsets"] == 16
    assert all(law["status"] == "pass" for law in report["laws"])


def test_report_shape():
    els, mult, unit = cyclic_monoid(2)
    report = oracle_report(els, mult, unit, frozenset({"0"}))
    names = [law["law"] for law in report["laws"]]
    assert "triple_dual" in names
    assert "implication_is_residual" in names
    assert "tensor_associative_on_facts" in names
    for law in report["laws"]:
        assert law["status"] in ("pass", "fail")
        assert law["witnesses"] == []


def test_census_sizes():
    assert len(all_commutative_monoids(0)) == 0
    assert len(all_commutative_monoids(1)) == 1
    assert len(all_commutative_monoids(2)) == 2
    assert len(all_commutative_monoids(3)) == 9
    assert len(all_commutative_monoids(4)) == 94


def test_census_classes_up_to_renaming():
    # renaming the non-unit elements leaves 1, 2, 5 and 19 classes: the
    # commutative monoids of orders 1 to 4 (OEIS A058131)
    def canonical(els, mult):
        return min(tuple(order.index(mult[x, y]) for x in order
                         for y in order)
                   for order in ([els[0]] + list(rest)
                                 for rest in permutations(els[1:])))

    assert [len({canonical(els, mult)
                 for els, mult, _ in all_commutative_monoids(n)})
             for n in (1, 2, 3, 4)] == [1, 2, 5, 19]


def test_census_all_poles_pass():
    for n in (1, 2, 3):
        for els, mult, unit in all_commutative_monoids(n):
            for pole in all_poles(els):
                report = oracle_report(els, mult, unit, pole)
                assert report["ok"], (n, mult, pole)


def test_census_cap():
    with pytest.raises(SizeExceeded):
        all_commutative_monoids(5)


def test_monoid_size_cap():
    els = ["m%d" % i for i in range(7)]
    mult = {(x, y): "m0" for x in els for y in els}
    with pytest.raises(SizeExceeded):
        SubsetPhase(els, mult, "m0", frozenset())


def test_rejects_non_associative():
    doc = {"elements": ["u", "a", "b"], "unit": "u",
           "mult": [["u", "u", "u"], ["u", "a", "a"], ["u", "b", "b"],
                    ["a", "a", "b"], ["a", "b", "a"], ["b", "b", "u"]]}
    els, mult, unit = monoid_from_doc(doc)
    with pytest.raises(NotAssociative):
        SubsetPhase(els, mult, unit, frozenset())


def test_rejects_non_commutative():
    mult = {("u", "u"): "u", ("u", "a"): "a",
            ("a", "u"): "u", ("a", "a"): "a"}
    with pytest.raises(NotCommutative):
        SubsetPhase(["u", "a"], mult, "u", frozenset())


def test_rejects_non_neutral_unit():
    doc = {"elements": ["u", "a"], "unit": "u",
           "mult": [["u", "u", "u"], ["u", "a", "u"], ["a", "a", "a"]]}
    els, mult, unit = monoid_from_doc(doc)
    with pytest.raises(UnitNotNeutral, match="unit is not neutral at 'a'"):
        SubsetPhase(els, mult, unit, frozenset())


def test_rejects_repeated_element():
    # a repeated name would share one bit with its first occurrence
    with pytest.raises(UsageError, match="names 'a' twice"):
        oracle_report(["a", "a"], {("a", "a"): "a"}, "a", frozenset())


def test_rejects_foreign_unit():
    # the unit must be an element, of an empty carrier or not; it is named
    # as foreign, not as a unit that fails to be neutral
    with pytest.raises(ForeignElement, match="unit 'x' is not in the carrier"):
        SubsetPhase([], {}, "x", frozenset())
    els, mult, unit = cyclic_monoid(2)
    with pytest.raises(ForeignElement, match="unit 'x' is not in the carrier"):
        SubsetPhase(els, mult, "x", frozenset())


def test_foreign_unit_exits_1(capsys, tmp_path):
    for elements, mult in (([], []), (["0", "1"], load_doc(
            "data:z2_monoid.json")[0]["mult"])):
        doc = {"elements": elements, "mult": mult, "unit": "x",
               "falsum_subset": []}
        path = tmp_path / "foreign_unit.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1
        assert "ForeignElement: unit 'x'" in capsys.readouterr().err


def test_non_neutral_unit_exits_1(capsys, tmp_path):
    # the constant product is associative, so only the unit is at fault
    doc = {"elements": ["u", "a"], "unit": "u", "falsum_subset": [],
           "mult": [["u", "u", "a"], ["u", "a", "a"], ["a", "a", "a"]]}
    path = tmp_path / "constant_monoid.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 1
    assert "UnitNotNeutral: unit is not neutral at 'u'" in (
        capsys.readouterr().err)


def test_rejects_foreign_product():
    mult = {("u", "u"): "z"}
    with pytest.raises(ForeignElement):
        SubsetPhase(["u"], mult, "u", frozenset())


def test_rejects_foreign_pole():
    els, mult, unit = cyclic_monoid(2)
    with pytest.raises(ForeignElement):
        SubsetPhase(els, mult, unit, frozenset({"7"}))


def test_shipped_monoid_files():
    for name in ("trivial_monoid.json", "z2_monoid.json", "z3_monoid.json"):
        doc = load_doc("data:" + name)[0]
        els, mult, unit = monoid_from_doc(doc)
        report = oracle_report(els, mult, unit,
                               frozenset(doc["falsum_subset"]))
        assert report["ok"], name


def test_doc_symmetrizes_table():
    els, mult, unit = monoid_from_doc(load_doc("data:z3_monoid.json")[0])
    assert mult[("2", "1")] == mult[("1", "2")] == "0"


def test_doc_rejects_an_undefined_product(capsys, tmp_path):
    # z3 without its last row fixes no product for ('2', '2'): the same
    # error as a phase structure with a pair no row fixes
    doc = load_doc("data:z3_monoid.json")[0]
    assert doc["mult"].pop() == ["2", "2", "1"]
    with pytest.raises(NotCommutative,
                       match=r"^product undefined at \('2', '2'\)$"):
        monoid_from_doc(doc)
    path = tmp_path / "undefined.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 1
    err = capsys.readouterr().err
    assert "NotCommutative: product undefined at ('2', '2')" in err
    assert "ForeignElement" not in err

def test_doc_rejects_foreign_entries(capsys, tmp_path):
    # a row naming an element outside the carrier is an error, wherever the
    # foreign name sits in the row
    for extra in (["0", "7", "1"], ["7", "7", "7"], ["1", "1", "7"]):
        doc = load_doc("data:z2_monoid.json")[0]
        doc["mult"].append(extra)
        with pytest.raises(ForeignElement, match="'7'"):
            monoid_from_doc(doc)
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1
        assert "ForeignElement" in capsys.readouterr().err


def test_doc_rejects_short_rows(capsys, tmp_path):
    doc = load_doc("data:z2_monoid.json")[0]
    doc["mult"].append(["0", "1"])
    with pytest.raises(ValueError, match=r"\['0', '1'\] is not an \[x, y"):
        monoid_from_doc(doc)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", str(path)]) == 2
    assert "triple" in capsys.readouterr().err


def test_doc_rejects_conflicting_entries(capsys, tmp_path):
    # one pair given twice with different products, off and on the diagonal
    for extra in (["1", "0", "0"], ["1", "1", "1"]):
        doc = load_doc("data:z2_monoid.json")[0]
        doc["mult"].append(extra)
        with pytest.raises(NotCommutative, match="conflicting"):
            monoid_from_doc(doc)
        path = tmp_path / "conflict.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", str(path)]) == 1
        assert "NotCommutative" in capsys.readouterr().err


def _fact_phase_doc(sp):
    """The facts of a SubsetPhase as a phase document: ordered by inclusion,
    tensor the closure of the product, unit the closure of {unit}, falsum
    the pole, and no dual overrides, so every dual is derived."""
    facts = sp.facts()
    name = {s: "{%s}" % ",".join(sorted(sp.names(s))) for s in facts}
    lattice = {"elements": [name[s] for s in facts],
               "covers": [[name[s], name[t]] for s in facts for t in facts
                          if s != t and not s & ~t],
               "bottom": name[min(facts, key=int.bit_count)],
               "top": name[sp.dual[0]]}
    mult = [[name[s], name[t], name[sp.tensor(s, t)]]
            for i, s in enumerate(facts) for t in facts[i:]]
    doc = {"lattice": lattice, "mult": mult,
           "unit": name[sp.one()], "falsum": name[sp.pole]}
    return doc, name


def up_to_relabelling(monoids):
    """One (monoid, pole) pair of each class under renamings of the
    non-unit elements, the first met; each unit is its monoid's first
    element."""
    seen = set()
    for els, mult, unit in monoids:
        for pole in all_poles(els):
            forms = []
            for perm in permutations(els[1:]):
                new = dict(zip(els, (unit,) + perm))
                forms.append((
                    sorted((new[x], new[y], new[v])
                           for (x, y), v in mult.items()),
                    sorted(new[p] for p in pole)))
            key = repr(min(forms))
            if key not in seen:
                seen.add(key)
                yield els, mult, unit, pole


def test_fact_phase_agrees_with_subset_oracle():
    # the abstract engine, loaded with the fact lattice of a monoid, must
    # compute what the oracle computes from first principles, distributive
    # or not; Z/4 is in the census up to relabelling
    monoids = [m for n in (1, 2, 3, 4) for m in all_commutative_monoids(n)]
    monoids.append(cyclic_monoid(5))
    cases = non_distributive = 0
    for els, mult, unit, pole in up_to_relabelling(monoids):
        sp = SubsetPhase(els, mult, unit, pole)
        doc, name = _fact_phase_doc(sp)
        ps = phase_from_doc(doc)
        facts = sp.facts()
        case = (mult, sorted(pole))
        for s in facts:
            assert ps.dual(name[s]) == name[sp.dual[s]], case
            for t in facts:
                assert ps.par(name[s], name[t]) == name[sp.par(s, t)], case
                assert ps.impl(name[s], name[t]) == \
                    name[sp.impl(s, t)], case
        # the oracle's laws hold on every fact structure (its reports all
        # pass), so the engine's audit must pass too
        assert verify_laws(ps)["ok"], case
        # open facts lie below the neutral element dual(pole), closed ones
        # above the pole
        neutral = sp.dual[sp.pole]
        fc = classify(ps)
        assert fc.neutral == name[neutral], case
        assert fc.open_class == [name[s] for s in facts
                                 if not s & ~neutral], case
        assert fc.closed_class == [name[s] for s in facts
                                   if not sp.pole & ~s], case
        cases += 1
        non_distributive += not ps.lattice.is_distributive()
    assert (cases, non_distributive) == (336, 54)
