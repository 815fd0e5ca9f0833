"""The index-table algebra against the name-keyed scans it replaced.

The scans below are the earlier implementations, kept only as oracles:
the list-comprehension search for joins and meets, the triple loop for
distributivity, the name-keyed law generator with its per-pair residual
fold, and the load sequence built on them.  Seeded random posets, tables
and dual tables (most of them lawless: not monotone, not associative, not
even commutative) must give the same tables, reports, duals and errors.
The last test checks the algebra against the independent reference model
of the benchmark's generated structures.
"""

import importlib.util
import os
import random
from itertools import islice

import pytest

from phasegame.errors import (
    DualLawViolation,
    ForeignElement,
    NotALattice,
    NotAPartialOrder,
    NotAssociative,
    NotClosed,
    NotClosedClass,
    OverrideInconsistent,
    PhasegameError,
    UnboundedLattice,
    UnitNotNeutral,
)
from phasegame.expr import eval_expr
from phasegame.lattice import Lattice
from phasegame.phase import (
    _DUAL_LAWS,
    _enforce,
    PhaseStructure,
    classify,
    phase_from_doc,
    verify_laws,
)


# the earlier lattice tables -------------------------------------------

def old_tables(elements, covers, bottom, top):
    """(join, meet) index tables, or the error, as the earlier
    construction found them."""
    elements = list(dict.fromkeys(elements))
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    if bottom not in index or top not in index:
        raise ForeignElement("bottom/top must be declared elements")
    up = [1 << i for i in range(n)]
    succ = [[] for _ in range(n)]
    for lo, hi in covers:
        if lo not in index or hi not in index:
            raise ForeignElement("cover (%r, %r) uses unknown element"
                                 % (lo, hi))
        succ[index[lo]].append(index[hi])
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in succ[i]:
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in range(n):
            if i != j and (up[i] >> j) & 1 and (up[j] >> i) & 1:
                raise NotAPartialOrder(
                    "cycle through %r and %r" % (elements[i], elements[j]))
    bot, topi = index[bottom], index[top]
    if up[bot] != (1 << n) - 1:
        raise UnboundedLattice(
            "declared bottom %r is not below every element" % (bottom,))
    if any(not (up[i] >> topi) & 1 for i in range(n)):
        raise UnboundedLattice(
            "declared top %r is not above every element" % (top,))
    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if (up[j] >> i) & 1:
                down[i] |= 1 << j
    for i in range(n):
        for j in range(i, n):
            ub = up[i] & up[j]
            lub = [k for k in range(n)
                   if (ub >> k) & 1 and (ub & ~up[k]) == 0]
            lb = down[i] & down[j]
            glb = [k for k in range(n)
                   if (lb >> k) & 1 and (lb & ~down[k]) == 0]
            if len(lub) != 1:
                raise NotALattice("no unique join for %r, %r"
                                  % (elements[i], elements[j]))
            if len(glb) != 1:
                raise NotALattice("no unique meet for %r, %r"
                                  % (elements[i], elements[j]))
            join[i][j] = join[j][i] = lub[0]
            meet[i][j] = meet[j][i] = glb[0]
    return join, meet


def old_is_distributive(lat):
    n = len(lat.elements)
    join, meet = lat._join, lat._meet
    return all(meet[i][join[j][k]] == join[meet[i][j]][meet[i][k]]
               for i in range(n) for j in range(n) for k in range(n))


# the earlier name-keyed laws ------------------------------------------

RESIDUAL_LAW = "residual_matches_dual_product"


def old_residual(lat, products, y):
    """The per-pair fold: join of the z whose product is at or below y."""
    index, join = lat._index, lat._join
    ks = [index[p] for p in products]
    below = lat._down[lat.idx(y)]
    acc = index[lat.bottom]
    for z, k in enumerate(ks):
        if below >> k & 1:
            acc = join[acc][z]
    return lat.elements[acc], below >> ks[acc] & 1 == 1


def old_laws(lat, mult, unit, falsum, dual=None):
    els = lat.elements
    n = len(els)
    yield ("commutative",
           ((x, y) for x in els for y in els
            if mult.get((x, y)) != mult.get((y, x))),
           n * n)
    yield ("associative",
           ((x, y, z) for x in els for y in els for xy in [mult[(x, y)]]
            for z in els if mult[(xy, z)] != mult[(x, mult[(y, z)])]),
           n ** 3)
    yield ("unit_identity", (x for x in els if mult[(unit, x)] != x), n)
    if dual is None:
        return
    yield ("triple_dual",
           (x for x in els if dual[dual[dual[x]]] != dual[x]), n)
    yield ("double_dual_extensive",
           (x for x in els if not lat.leq(x, dual[dual[x]])), n)
    yield ("contradiction_below_falsum",
           (x for x in els if not lat.leq(mult[(x, dual[x])], falsum)), n)
    yield ("dual_of_join_is_meet_of_duals",
           ((x, y) for x in els for y in els
            if dual[lat.join2(x, y)] != lat.meet2(dual[x], dual[y])),
           n * n)
    checked, witnesses = 0, []
    for x in els:
        row = [mult[(x, z)] for z in els]
        for y in els:
            star, closed = old_residual(lat, row, dual[y])
            if closed:
                checked += 1
                if star != dual[mult[(x, y)]]:
                    witnesses.append((x, y, star, dual[mult[(x, y)]]))
    yield (RESIDUAL_LAW, iter(witnesses), checked)


def old_derive_duals(lat, mult, falsum, overrides):
    dual = {}
    for x in lat.elements:
        if x in overrides:
            if overrides[x] not in lat:
                raise ForeignElement(repr(overrides[x]))
            dual[x] = overrides[x]
            continue
        star, closed = old_residual(
            lat, [mult[(x, z)] for z in lat.elements], falsum)
        if not closed:
            raise NotClosed(
                "dual of %r is not expressible: join %r of witnesses fails "
                "mult(%r, %r) <= %r; add a dual override"
                % (x, star, x, star, falsum))
        dual[x] = star
    return dual


def old_lin_implies(lat, mult, x, y):
    star, closed = old_residual(lat, [mult[(x, z)] for z in lat.elements], y)
    if not closed:
        raise NotClosed(
            "lin_implies(%r, %r): join %r of witnesses is not a witness"
            % (x, y, star))
    return star


def old_load(lat, mult, unit, falsum, unit_mode, checks, overrides):
    """The duals a validating load derived, or its error."""
    gates = {}
    if checks == "full":
        gates["associative"] = NotAssociative
    if unit_mode == "strict":
        gates["unit_identity"] = UnitNotNeutral
    _enforce(old_laws(lat, mult, unit, falsum), gates)
    dual = old_derive_duals(lat, mult, falsum, overrides)
    if checks == "full":
        err = OverrideInconsistent if overrides else DualLawViolation
        _enforce(old_laws(lat, mult, unit, falsum, dual),
                 dict.fromkeys(_DUAL_LAWS, err))
    return dual


def old_report(lat, mult, unit, falsum, dual, unit_mode):
    n = len(lat.elements)
    laws = []
    for name, witnesses, instances in old_laws(lat, mult, unit, falsum,
                                               dual):
        if name == "unit_identity" and unit_mode != "strict":
            laws.append({"law": name, "status": "skipped", "checked": 0,
                         "skipped": instances, "witnesses": []})
            continue
        found = list(islice(witnesses, 5))
        skipped = n * n - instances if name == RESIDUAL_LAW else 0
        laws.append({"law": name, "status": "fail" if found else "pass",
                     "checked": instances, "skipped": skipped,
                     "witnesses": found})
    return {"ok": all(e["status"] != "fail" for e in laws), "laws": laws}


def outcome(fn, *args):
    """fn's result, or the class and message of the domain error it
    raised."""
    try:
        return fn(*args)
    except PhasegameError as exc:
        return type(exc).__name__, str(exc)


# random inputs ------------------------------------------------------

def random_order(rng):
    """(elements, covers, bottom, top): a random relation on up to seven
    points, often bounded, sometimes cyclic, in shuffled order."""
    n = rng.randint(1, 7)
    els = ["p%d" % i for i in range(n)]
    covers = [(els[i], els[j]) for i in range(n) for j in range(i + 1, n)
              if rng.random() < 0.35]
    if n > 1 and rng.random() < 0.08:
        i, j = sorted(rng.sample(range(n), 2))
        covers.append((els[j], els[i]))
    bottom, top = rng.choice(els), rng.choice(els)
    if rng.random() < 0.7:
        covers += [("bot", e) for e in els] + [(e, "top") for e in els]
        els += ["bot", "top"]
        bottom, top = "bot", "top"
    rng.shuffle(els)
    rng.shuffle(covers)
    return els, covers, bottom, top


def random_lattice(rng):
    while True:
        try:
            return Lattice(*random_order(rng))
        except PhasegameError:
            continue


def random_table(rng, lat):
    """A symmetric name-keyed table: the meet, a perturbed meet, or
    random values."""
    els = lat.elements
    kind = rng.choice(["meet", "perturbed", "random"])
    table = {}
    for i, x in enumerate(els):
        for y in els[i:]:
            v = lat.meet2(x, y) if kind != "random" else rng.choice(els)
            table[(x, y)] = table[(y, x)] = v
    if kind == "perturbed":
        for _ in range(rng.randint(1, 2)):
            x, y = rng.choice(els), rng.choice(els)
            table[(x, y)] = table[(y, x)] = rng.choice(els)
    return table


def test_lattice_tables_match_the_earlier_search():
    rng = random.Random(601)
    kinds = set()
    for _ in range(3000):
        els, covers, bottom, top = random_order(rng)
        want = outcome(old_tables, els, covers, bottom, top)
        try:
            lat = Lattice(els, covers, bottom, top)
        except PhasegameError as exc:
            got = type(exc).__name__, str(exc)
        else:
            got = lat._join, lat._meet
            assert lat.is_distributive() == old_is_distributive(lat)
        assert got == want, (els, covers, bottom, top)
        kinds.add(want[0] if isinstance(want[0], str) else "lattice")
    assert kinds == {"lattice", "NotALattice", "NotAPartialOrder",
                     "UnboundedLattice"}
    # x and y have two minimal upper and two maximal lower bounds, so the
    # first failing pair has neither a join nor a meet: the join is named
    covers = [(a, m) for a in ("a1", "a2") for m in ("x", "y")] + \
        [(m, b) for m in ("x", "y") for b in ("b1", "b2")] + \
        [("bot", a) for a in ("a1", "a2")] + [(b, "top") for b in ("b1", "b2")]
    els = ["x", "y", "a1", "a2", "b1", "b2", "bot", "top"]
    want = ("NotALattice", "no unique join for 'x', 'y'")
    assert outcome(old_tables, els, covers, "bot", "top") == want
    assert outcome(Lattice, els, covers, "bot", "top") == want


def loaded_duals(doc, lat):
    ps = phase_from_doc(doc, lattice=lat)
    return {x: ps.dual(x) for x in lat.elements}


def test_loaded_tables_match_the_earlier_laws():
    rng = random.Random(602)
    seen = set()
    for _ in range(1500):
        lat = random_lattice(rng)
        els = lat.elements
        table = random_table(rng, lat)
        unit, falsum = rng.choice(els), rng.choice(els)
        unit_mode = rng.choice(["weak", "strict"])
        checks = rng.choice(["full", "relaxed"])
        overrides = {}
        if rng.random() < 0.3:
            overrides = {x: rng.choice(els) for x in
                         rng.sample(els, rng.randint(1, len(els)))}
            if rng.random() < 0.1:
                overrides[rng.choice(els)] = "nowhere"
        doc = {"mult": [[x, y, v] for (x, y), v in table.items()],
               "unit": unit, "falsum": falsum, "unit_mode": unit_mode,
               "checks": checks,
               "dual_overrides": [list(p) for p in overrides.items()]}
        case = (els, table, unit, falsum, unit_mode, checks, overrides)

        want = outcome(old_load, lat, table, unit, falsum, unit_mode,
                       checks, overrides)
        assert outcome(loaded_duals, doc, lat) == want, case

        want = outcome(old_derive_duals, lat, table, falsum, overrides)
        try:
            ps = phase_from_doc(doc, lattice=lat, validate=False)
        except PhasegameError as exc:
            assert (type(exc).__name__, str(exc)) == want, case
            seen.add(type(exc).__name__)
            continue
        assert {x: ps.dual(x) for x in els} == want, case
        report = verify_laws(ps)
        assert report == old_report(lat, table, unit, falsum, want,
                                    unit_mode), case
        seen.update(law["law"] for law in report["laws"]
                    if law["status"] == "fail")
    assert seen >= {"NotClosed", "ForeignElement", "associative",
                    "unit_identity", RESIDUAL_LAW} | set(_DUAL_LAWS)


def test_hand_built_structures_match_the_earlier_laws():
    # neither the product nor the duals need be commutative or derived
    rng = random.Random(603)
    failed = set()
    for _ in range(1000):
        lat = random_lattice(rng)
        els = lat.elements
        table = {(x, y): rng.choice(els) for x in els for y in els}
        if rng.random() < 0.5:
            table = random_table(rng, lat)
        dual = {x: rng.choice(els) for x in els}
        unit, falsum = rng.choice(els), rng.choice(els)
        unit_mode = rng.choice(["weak", "strict"])
        ps = PhaseStructure(lat, table, unit, falsum, dual,
                            unit_mode=unit_mode)
        report = verify_laws(ps)
        assert report == old_report(lat, table, unit, falsum, dual,
                                    unit_mode), (els, table, dual)
        failed.update(law["law"] for law in report["laws"]
                      if law["status"] == "fail")
        for x in els:
            for y in els:
                assert ps.mult(x, y) == table[(x, y)]
                assert outcome(ps.lin_implies, x, y) == outcome(
                    old_lin_implies, lat, table, x, y)
    assert "commutative" in failed


# the benchmark's reference model ---------------------------------------

def _load_gen():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind,n", [
    ("boolean", 8), ("boolean", 16), ("boolean", 32), ("boolean", 64),
    ("downset", 8), ("downset", 12), ("downset", 16), ("downset", 24),
    ("downset", 32), ("downset", 48), ("downset", 64),
])
def test_generated_structures_agree_with_reference_model(kind, n):
    gen = _load_gen()
    make = gen.boolean_structure if kind == "boolean" else \
        gen.downset_structure
    rng = random.Random(n * 7 + len(kind))
    for _ in range(2):
        doc, model = make(rng, n)
        ps = phase_from_doc(doc)
        assert verify_laws(ps)["ok"]
        for mask in model.sets:
            assert ps.dual(model.names[mask]) == model.names[
                model.dual(mask)]
        assert sorted(ps.facts()) == sorted(model.names[s]
                                            for s in model.facts())
        if model.facts_join_closed():
            assert sorted(classify(ps).open_class) == sorted(
                model.names[s] for s in model.facts())
        else:
            with pytest.raises(NotClosedClass):
                classify(ps)
        for text, want in gen.expr_batch(rng, model, 40):
            assert eval_expr(ps, text) == want, text
