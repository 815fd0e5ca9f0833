import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (chain, downset_lattice, random_distributive_lattice,
                      seeded)
from phasegame.errors import (
    ForeignElement,
    NotALattice,
    NotAPartialOrder,
    NotHeyting,
    UnboundedLattice,
    UsageError,
)
from phasegame.games import Game, PayoffGame
from phasegame.lattice import (
    Lattice,
    PowersetLattice,
    lattice_from_doc,
    load_lattice,
)


def diamond_m3():
    # three incomparable midpoints: the classic non-distributive lattice
    return Lattice(["0", "x", "y", "z", "1"],
                   [("0", "x"), ("0", "y"), ("0", "z"),
                    ("x", "1"), ("y", "1"), ("z", "1")],
                   "0", "1")


def test_chain_order_and_bounds():
    lat = chain(4)
    assert lat.bottom == "0" and lat.top == "3"
    assert lat.leq("1", "2") and not lat.leq("2", "1")
    assert lat.join(["1", "2"]) == "2"
    assert lat.meet2("1", "2") == "1"
    assert lat.join(["0", "3", "1"]) == "3"
    assert lat.meet(["2", "1", "3"]) == "1"


def test_chain_heyting_table():
    lat = chain(3)
    for a in lat.elements:
        for b in lat.elements:
            expected = lat.top if lat.leq(a, b) else b
            assert lat.heyting_implies(a, b) == expected


def test_goal_lattice_shape(goal_lattice):
    lat = goal_lattice
    assert len(lat.elements) == 18
    assert lat.bottom == "0" and lat.top == "1"
    assert lat.generators == ["J1a", "b2", "b3", "e"]
    assert lat.join(["b2", "b3"]) == "J23"
    assert lat.join(["b1", "a"]) == "J1a"
    assert lat.meet2("b2", "b3") == "a"
    assert lat.meet2("J12", "J13") == "J1a"
    assert lat.is_distributive()


def test_goal_lattice_residuation_exhaustive(goal_lattice):
    lat = goal_lattice
    for a in lat.elements:
        for b in lat.elements:
            c = lat.heyting_implies(a, b)
            assert lat.leq(lat.meet2(a, c), b)
            for z in lat.elements:
                if lat.leq(lat.meet2(a, z), b):
                    assert lat.leq(z, c)


def test_m3_not_distributive_and_not_heyting():
    lat = diamond_m3()
    assert not lat.is_distributive()
    with pytest.raises(NotHeyting):
        lat.heyting_implies("x", "y")


def test_cycle_rejected():
    with pytest.raises(NotAPartialOrder):
        Lattice(["a", "b"], [("a", "b"), ("b", "a")], "a", "b")


def test_missing_bounds_rejected():
    with pytest.raises(UnboundedLattice):
        Lattice(["a", "b", "t"], [("a", "t"), ("b", "t")], "a", "t")


def test_ambiguous_join_rejected():
    # two incomparable upper bounds c, d for the pair (a, b), no least one
    with pytest.raises(NotALattice):
        Lattice(["0", "a", "b", "c", "d", "1"],
                [("0", "a"), ("0", "b"),
                 ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"),
                 ("c", "1"), ("d", "1")],
                "0", "1")


def test_foreign_element_errors():
    lat = chain(2)
    with pytest.raises(ForeignElement):
        lat.leq("0", "nope")
    with pytest.raises(ForeignElement):
        Lattice(["a"], [], "a", "a", generators=["ghost"])


def test_rejects_repeated_element():
    with pytest.raises(UsageError, match="names 'a' twice"):
        Lattice(["a", "a", "b"], [("a", "b")], "a", "b")


def test_doc_round_trip(tmp_path):
    doc = {"elements": ["0", "1"], "covers": [["0", "1"]],
           "bottom": "0", "top": "1"}
    lat = lattice_from_doc(doc)
    assert lat.leq("0", "1")
    with pytest.raises(UsageError):
        lattice_from_doc({"elements": ["0"]})
    path = tmp_path / "l.json"
    path.write_text('{"elements": ["0"], "covers": [], '
                    '"bottom": "0", "top": "0"}')
    assert len(load_lattice(str(path)).elements) == 1


def test_powerset_implementations_agree():
    # PowersetLattice against plain frozenset algebra on every small
    # universe, over every mask
    for size in range(5):
        universe = ["u%d" % i for i in range(size)][::-1]
        lat = PowersetLattice(universe)
        full = frozenset(universe)

        def name(s):
            return ",".join(sorted(s))

        def subset(m):
            return frozenset(u for i, u in enumerate(sorted(universe))
                             if m >> i & 1)

        assert lat.bottom == name(frozenset())
        for m in range(1 << size):
            s = subset(m)
            x = name(s)
            assert x in lat
            assert lat.heyting_neg(x) == name(full - s)
            for n in range(1 << size):
                t = subset(n)
                y = name(t)
                assert lat.meet2(x, y) == name(s & t)
                assert lat.heyting_implies(x, y) == name((full - s) | t)

    # only the canonical spelling of a subset is an element
    lat = PowersetLattice(["a", "b"])
    for bad in ("b,a", ",a", "a,", "a,,b", "a,a", "c", " a"):
        assert bad not in lat
        with pytest.raises(ForeignElement):
            lat.meet2(bad, "a,b")
        with pytest.raises(ForeignElement):
            lat.heyting_implies("a", bad)


def test_powerset_mask_members_name_round_trip():
    lat = PowersetLattice(["r", "p", "q"])
    assert lat.mask([]) == 0 and lat.members(0) == [] and lat.name(0) == ""
    assert lat.mask(["p"]) == 1 and lat.mask(["r", "q"]) == 6
    for m in range(1 << 3):
        x = lat.name(m)
        assert x in lat
        assert lat.mask(x.split(",") if x else []) == m
        assert lat.members(m) == (x.split(",") if x else [])
        assert lat.mask(lat.members(m)) == m
        assert lat.name(lat.complement(m)) == lat.heyting_neg(x)
    assert lat.mask(["q", "q"]) == lat.mask(["q"])
    with pytest.raises(ForeignElement):
        lat.mask(["s"])


def test_twenty_member_powerset_is_built_without_listing():
    universe = ["f%02d" % i for i in range(20)]
    began = time.process_time()
    lat = PowersetLattice(universe)
    top = lat.name(lat.complement(0))
    assert top == ",".join(universe)
    assert lat.meet2("f00,f05,f19", "f05,f19") == "f05,f19"
    assert lat.heyting_neg(top) == lat.bottom
    assert time.process_time() - began < 1.0


def test_powerset_universe_has_no_size_cap():
    # a mask of any width costs the planner the same, so a universe of
    # 64 members builds and answers on its highest member
    universe = ["f%02d" % i for i in range(64)]
    lat = PowersetLattice(universe)
    assert lat.base == universe
    assert lat.mask(["f63"]) == 1 << 63
    assert lat.meet2("f00,f63", "f63") == "f63"
    assert lat.heyting_implies("f63", "f00") == lat.name(
        lat.complement(1 << 63) | 1)


def test_powerset_lattice_basics():
    lat = PowersetLattice(["p", "q", "r"])
    assert lat.bottom == ""
    assert lat.meet2("p,q", "q,r") == "q"
    assert lat.heyting_implies("p", "q") == "q,r"
    assert lat.heyting_neg("p,r") == "q"
    assert lat.is_distributive()
    with pytest.raises(ForeignElement):
        lat.meet2("p", "zz")


def test_powerset_lattice_answers_a_non_string_as_lattice_does():
    # a value that is no string is no element of either lattice: in says
    # False, the operations raise ForeignElement naming the value, and a
    # payoff game rejects it as a payoff outside the lattice
    game = Game(["r"], "r", [])
    for lat in (PowersetLattice(["a"]), chain(2)):
        for x in (5, None, 1.5, ("a",)):
            assert x not in lat
        with pytest.raises(ForeignElement, match="5"):
            lat.meet2(5, lat.bottom)
        with pytest.raises(ForeignElement, match="None"):
            lat.heyting_implies(lat.bottom, None)
        with pytest.raises(ForeignElement, match="5"):
            lat.heyting_neg(5)
        with pytest.raises(ForeignElement,
                           match="^payoff 5 outside the lattice$"):
            PayoffGame(game, lat, {"r": 5})


def test_empty_join_is_bottom_and_empty_meet_is_top():
    lat = chain(2)
    assert lat.join([]) == lat.bottom
    assert lat.meet([]) == lat.top
    assert lat.join(iter(())) == lat.bottom


def test_powerset_rejects_empty_member():
    # "" already names the empty set, so it cannot also name a member
    with pytest.raises(ValueError, match="nonempty"):
        PowersetLattice(["", "a"])
    with pytest.raises(ValueError, match="commas"):
        PowersetLattice(["a,b"])
    with pytest.raises(UsageError, match="duplicate"):
        PowersetLattice(["a", "b", "a"])
    lat = PowersetLattice(["a"])
    assert "" in lat and "a" in lat and lat.base == ["a"]


def test_downset_lattices_are_distributive():
    for seed in range(30):
        lat = random_distributive_lattice(seeded(seed))
        assert lat.is_distributive()


def test_rooted_posets_give_unique_atom():
    for seed in range(30):
        lat = random_distributive_lattice(seeded(seed), unique_atom=True)
        above = [x for x in lat.elements if x != lat.bottom]
        atoms = [x for x in above
                 if not any(y != x and lat.leq(y, x) for y in above)]
        assert len(atoms) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_absorption_laws_on_random_lattices(seed, data):
    lat = random_distributive_lattice(seeded(seed))
    x = data.draw(st.sampled_from(lat.elements))
    y = data.draw(st.sampled_from(lat.elements))
    assert lat.join([x, lat.meet2(x, y)]) == x
    assert lat.meet2(x, lat.join([x, y])) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.data())
def test_order_agrees_with_join_on_random_lattices(seed, data):
    lat = random_distributive_lattice(seeded(seed))
    x = data.draw(st.sampled_from(lat.elements))
    y = data.draw(st.sampled_from(lat.elements))
    assert lat.leq(x, y) == (lat.join([x, y]) == y)
    assert lat.leq(x, y) == (lat.meet2(x, y) == x)


def test_downset_lattice_of_goal_poset(goal_lattice):
    # the four-point poset a < b2, a < b3, a < e with b1 incomparable
    # generates exactly the 18-element goal lattice
    lat = downset_lattice(["a", "b1", "b2", "b3", "e"],
                          [("a", "b2"), ("a", "b3"), ("a", "e")])
    assert len(lat.elements) == 18
    assert lat.is_distributive()
