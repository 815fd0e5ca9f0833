"""The index-table algebra against the name-keyed scans it replaced.

The scans below are the earlier implementations, kept only as oracles:
the list-comprehension search for joins and meets, the triple loop for
distributivity, the name-keyed law generator with its per-pair residual
fold, the load sequence built on them (_enforce raised its gates), and
the table solver on a name-keyed table that re-read each completion as a
document.  Seeded random posets, tables and dual tables (most of them
lawless: not monotone, not associative, not even commutative) must give
the same tables, reports, duals and errors, and seeded and edited
candidate tables the same completions, in the same order, or the same
error.  One test checks the
algebra against the independent reference model of the benchmark's
generated structures.  The row scan of every associativity instance is
the oracle for Light's test, which decides the verdict: on every magma of
at most three elements, on the census monoids and on seeded structures
with one planted edit, the law must list the scan's witnesses; on
lawful seeded structures of 128 and 256 elements the scan must never run;
and on both sides of the byte bound (256 and 257 elements), where the
test and the duals' witness masks change how they gather rows, the scan
and the earlier duals are the oracles of both.
The per-pair residual fold is also the oracle for the audit of loads,
with and without their gates, whose load proves the dual laws where its
duals form a Galois connection on commuting rows, and the residual law
too on associative rows: on seeded meet, perturbed meet,
cyclic-group and chain-max products, with and without dual overrides,
both that proof and the row fold must give its report, every load the
earlier load's outcome, and each law the proof skipped must pass its
scan.  Lattice.residual, which gathers one target's witnesses, is the
oracle for the stars that the row fold reads, on random rows; and the
earlier name-keyed classify (old_classify) is the oracle for classify on
the index tables, on the generated structures of the benchmark's two
kinds (and, in tests/test_phase.py, on edits of its NotClosedClass
cases).

The earlier list-based dual and tensor games are kept here too, and the
earlier implicit games (Dual, Tensor, implication, materialize) walked on
demand by the earlier breadth-first walk (walk), as the oracles that
tests/test_games.py and tests/test_planner.py hold dual_game, tensor_game
and implication_game to; so are the earlier
play walkers behind maximal_plays, copycat and compose_strategies, which
the one unfolding must match on seeded random games, tensors of alternating chains
and (in tests/test_planner.py) compound games; so is the earlier play
search, which sorted each successor list by a repr of every vertex and
whose traces plan_play must reproduce on seeded scenarios with two-digit
coordinates and ticks and with object ids that share a prefix or hold
quotes and commas; so is the search over (vertex, objective) states of
the earlier compound game, whose play, objectives, state count and play
counts the step search must match on every step of the seeded whole
runs, on seeded and open grids and on the shapes where the play grammar
is degenerate; so is the walk of the movement game (_Movement), whose
cells in the order it first reaches them, their neighbours and side
payoffs CompoundGame's distance pass must equal from every cell of two
seeded rounds of the benchmark's planner scenarios and of the edge
shapes; so are the earlier compound game, composed of the movement game
and the per-goal chain Games, whose listing and payoffs
build_compound_game must reproduce, as must copycat on its listing, and
the earlier goal-set selection,
whose pairwise maximality test select_goal_sets must match on every
anchor, and the earlier saturation check of a cognition step (the features
visible from the movement ball against the joined images), which the
step's compound game must match on seeded states; and so is the earlier subset oracle on frozensets, whose reports the bitmask oracle must equal on every
pole of every census monoid up to size 4 and on seeded larger monoids.
Last come the earlier expression tokenizer, parser and evaluator, whose
tokens, trees, values and error messages the one operator table must
reproduce on seeded random strings, well-formed and not; and the earlier
two-pass product-row parser, a name-keyed table read back into index rows,
whose rows or errors the one parser must reproduce through phase_from_doc,
solve_table and monoid_from_doc on edited and seeded documents; and the
earlier row checks (old_fields), which took every row of a row array one
by one, and whose fields or errors the whole-array passes of fields must
reproduce on seeded row arrays.  The earlier lattice tables are also the
oracle for each meet row, which a Lattice builds only when a reader first
asks for it.
"""

import copy
import functools
import importlib.util
import os
import random
import sys
from collections import Counter, deque
from itertools import accumulate, combinations, islice, product
from operator import or_
from types import SimpleNamespace

import pytest

from conftest import hand_built, random_game, random_strategy
from phasegame import phase as phase_module
from phasegame import planner
from phasegame.data import (_KINDS, DISTINCT, ENUMS, REQUIRED, SCHEMAS,
                            _is_a, data_path, distinct, fields, load_doc,
                            resolve_path)
from phasegame.errors import (
    CapExceeded,
    DualLawViolation,
    ExprSyntaxError,
    ForeignElement,
    InteractionOverflow,
    InvalidStrategy,
    NotALattice,
    NotAPartialOrder,
    NotAssociative,
    NotClosed,
    NotClosedClass,
    NotCommutative,
    NoSolution,
    OverrideInconsistent,
    PhasegameError,
    UnboundedLattice,
    UnitNotNeutral,
    UsageError,
)
from phasegame.expr import eval_expr, parse, tokenize
from phasegame.games import (Game, PayoffGame, Strategy, compose_strategies,
                             copycat, dual_game, implication_game,
                             maximal_plays, tensor_game)
from phasegame.lattice import Lattice, lattice_from_doc
from phasegame.phase import (
    _DUAL_LAWS,
    FactClassification,
    PhaseStructure,
    _associative,
    _dual_of_join,
    _generators,
    _light,
    _scan_associative,
    classify,
    load_phase,
    phase_from_doc,
    verify_laws,
)
from phasegame.planner import (CompoundGame, GoalProcessSet, Selection,
                               Trace, _check_mode, _goal_objects,
                               _search, _vertex_doc,
                               build_compound_game, eval_priority,
                               load_scenario, plan_play, run_cognition,
                               visible_rewards)
from phasegame.solver import solve_table
from phasegame.subset_oracle import (all_commutative_monoids, cyclic_monoid,
                                     monoid_from_doc, oracle_report)


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
    join, meet = lat._join, list(map(lat._meet_row, range(n)))
    return all(meet[i][join[j][k]] == join[meet[i][j]][meet[i][k]]
               for i in range(n) for j in range(n) for k in range(n))


# the earlier name-keyed laws ------------------------------------------

RESIDUAL_LAW = "residual_matches_dual_product"


def passed(ps):
    """The laws the load of ps decided passing, by a scan or a proof."""
    return {law for law, found in ps._verdicts.items() if not found}


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


def old_override_names(lat, overrides):
    """Both sides of every override pair, in document order, must be
    elements; a load checks them before any gate."""
    for el in [el for pair in overrides.items() for el in pair]:
        if el not in lat:
            raise ForeignElement(repr(el))


def old_derive_duals(lat, mult, falsum, overrides):
    old_override_names(lat, overrides)
    dual = {}
    for x in lat.elements:
        if x in overrides:
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


def _enforce(laws, errors):
    """Raise errors[name] on the first witness of each law named in errors,
    taking the laws in order and advancing no further than the last one."""
    pending = dict(errors)
    laws = iter(laws)
    while pending:
        name, witnesses, _ = next(laws)
        err = pending.pop(name, None)
        if err is not None:
            for w in witnesses:
                raise err("%s fails at %r" % (name, w))


def old_load(lat, mult, unit, falsum, unit_mode, checks, overrides):
    """The duals a validating load derived, or its error."""
    old_override_names(lat, overrides)
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
    """fn's result, or the class and message of the domain or usage error
    it raised."""
    try:
        return fn(*args)
    except (PhasegameError, UsageError) as exc:
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
            got = lat._join, list(map(lat._meet_row, range(len(els))))
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


def test_distributive_meet_rows_residuate_closed():
    # heyting_implies takes the residual of a meet row unchecked: in a
    # distributive lattice, a /\ (join of the c with a /\ c <= b) is the
    # join of those meets, at or below b, so the residual is closed
    rng = random.Random(601)
    lattices = residuals = 0
    for _ in range(3000):
        try:
            lat = Lattice(*random_order(rng))
        except PhasegameError:
            continue
        if not lat.is_distributive():
            continue
        lattices += 1
        els = lat.elements
        for a, row in zip(els, map(lat._meet_row, range(len(els)))):
            for t, b in enumerate(els):
                star, closed = lat.residual(row, t)
                assert closed, (els, a, b)
                witnesses = [c for c in els if lat.leq(lat.meet2(a, c), b)]
                assert els[star] in witnesses
                assert all(lat.leq(c, els[star]) for c in witnesses)
                assert lat.heyting_implies(a, b) == els[star]
                residuals += 1
    assert (lattices, residuals) == (938, 13572)


def test_stars_match_one_residual_per_target():
    # Lattice.stars folds the star of every target of a row up the covers
    # at once, and a star is closed when row[star] is at or below its
    # target; Lattice.residual gathers one target's witnesses and joins
    # them.  On random rows, most of them not monotone, both give every
    # target the same star and closedness, targets with no witness too
    rng = random.Random(609)
    seen = Counter()
    for _ in range(3000):
        try:
            lat = Lattice(*random_order(rng))
        except PhasegameError:
            continue
        n, up = len(lat.elements), lat._up
        for _ in range(3):
            row = [rng.randrange(n) for _ in range(n)]
            stars = lat.stars(row)
            for t in range(n):
                star, closed = lat.residual(row, t)
                assert (stars[t], up[row[stars[t]]] >> t & 1 == 1) == \
                    (star, closed), (lat.elements, lat.covers, row, t)
                seen["closed" if closed else "open" if any(
                    up[p] >> t & 1 for p in row) else "no witness"] += 1
    assert seen == {"closed": 26004, "open": 5029, "no witness": 3005}, seen


def test_meet_rows_wait_for_their_first_reader():
    # a Lattice builds its join table only; each reader of the meet table
    # builds the rows it reads (meet's fold each row it passes through,
    # _dual_of_join the rows of the duals), and every reader agrees with
    # the earlier tables
    rng = random.Random(602)
    lattices = distributive = 0
    for _ in range(3000):
        els, covers, bottom, top = random_order(rng)
        try:
            lat = Lattice(els, covers, bottom, top)
        except PhasegameError:
            continue
        lattices += 1
        join, meet = old_tables(els, covers, bottom, top)
        n = len(els)
        assert lat._meets == [None] * n

        def built():
            return {i for i, row in enumerate(lat._meets) if row is not None}

        i, j = rng.randrange(n), rng.randrange(n)
        assert lat.meet2(els[i], els[j]) == els[meet[i][j]]
        assert built() == {i}
        xs = rng.sample(range(n), rng.randint(0, n))
        acc = els.index(top)
        rows = {i}
        for x in xs:
            rows.add(acc)
            acc = meet[acc][x]
        assert lat.meet([els[x] for x in xs]) == els[acc]
        assert built() == rows

        fresh = Lattice(els, covers, bottom, top)
        dual = [rng.randrange(n) for _ in range(n)]
        want = [(els[x], els[y]) for x in range(n) for y in range(n)
                if dual[join[x][y]] != meet[dual[x]][dual[y]]]
        assert list(_dual_of_join(fresh, dual)) == want
        assert {i for i, row in enumerate(fresh._meets)
                if row is not None} == set(dual)

        d = all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
                for a in range(n) for b in range(n) for c in range(n))
        assert lat.is_distributive() == d
        # the verdict stops at its first failing row
        assert all(row in (None, old) for row, old in zip(lat._meets, meet))
        assert list(map(lat._meet_row, range(n))) == meet
        if d:
            distributive += 1
            a, b = rng.randrange(n), rng.randrange(n)
            below = [c for c in range(n) if meet[meet[a][c]][b] == meet[a][c]]
            acc = els.index(bottom)
            for c in below:
                acc = join[acc][c]
            assert lat.heyting_implies(els[a], els[b]) == els[acc]
    assert (lattices, distributive) == (2029, 858)


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
        ps = hand_built(lat, table, unit, falsum, dual,
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


def old_classify(ps):
    """Split the facts into the open and closed classes and sanity-check them.

    Open facts sit below the neutral element dual(falsum); closed facts sit
    above falsum.  The two classes must be swapped by duality, the open class
    must be closed under join and fact-closed tensor, and the closed class
    under meet and par.  Declared classes on the structure, when present,
    must agree with the derived ones.
    """
    lat = ps.lattice
    facts = ps.facts()
    neutral = ps.dual(ps.falsum)
    op = [x for x in facts if lat.leq(x, neutral)]
    cl = [x for x in facts if lat.leq(ps.falsum, x)]

    for name, declared, derived in (("open", ps.op_class, op),
                                    ("closed", ps.cl_class, cl)):
        if declared is not None and sorted(declared) != sorted(derived):
            raise NotClosedClass("declared %s class %r differs from derived %r"
                                 % (name, list(declared), derived))

    if sorted(ps.dual(x) for x in op) != sorted(cl):
        raise NotClosedClass("duality does not swap the open and closed classes")

    def tensor(x, y):
        """The fact-closed tensor: the double dual of the product."""
        return ps.dual(ps.dual(ps.mult(x, y)))

    for name, members, closures in (
            ("open", op, [("join", lat.join2), ("tensor", tensor)]),
            ("closed", cl, [("meet", lat.meet2), ("par", ps.par)])):
        member = set(members)
        for x in members:
            for y in members:
                for closure, combine in closures:
                    if combine(x, y) not in member:
                        raise NotClosedClass(
                            "%s class not %s-closed at (%r, %r)"
                            % (name, closure, x, y))

    if lat.join(op) != neutral:
        raise NotClosedClass("largest open fact is not the neutral element")
    if lat.meet(cl) != ps.falsum:
        raise NotClosedClass("least closed fact is not falsum")

    return FactClassification(facts, op, cl, neutral)


def test_generated_structures_classify_as_before():
    # classify on index tables against the name-keyed classify it
    # replaced, on seeded lawful structures of the benchmark's two kinds:
    # the same classes, or the same NotClosedClass message
    gen = _load_gen()
    rng = random.Random(610)
    seen = Counter()
    for kind, sizes in (("boolean", (8, 16, 32, 64, 128)),
                        ("downset", (8, 12, 16, 24, 32, 48, 64, 128))):
        for n in sizes:
            for _ in range(3):
                doc, _ = getattr(gen, kind + "_structure")(rng, n)
                ps = phase_from_doc(doc)
                want = outcome(old_classify, ps)
                assert outcome(classify, ps) == want, (kind, n)
                seen[kind, "classes" if isinstance(want, FactClassification)
                     else want[1].split(" at ")[0]] += 1
    assert seen == {("boolean", "classes"): 15, ("downset", "classes"): 20,
                    ("downset", "open class not join-closed"): 4}, seen


# associativity by Light's test ----------------------------------------
#
# The row scan of every instance is the oracle: the law's witnesses must be
# the scan's, in its order, on every magma of at most three elements with
# any element as the unit, on the census monoids, and on seeded structures
# with one planted edit.

def scan_rows(rows):
    """The witnesses of the row scan, as index triples in scan order."""
    n = len(rows)
    return [(x, y, z) for x in range(n) for y in range(n)
            for z in range(n)
            if rows[rows[x][y]][z] != rows[x][rows[y][z]]]


def associative_witnesses(rows, unit, limit=None):
    return list(islice(_associative(range(len(rows)), rows, unit), limit))


def test_light_verdict_matches_the_scan_on_every_small_magma():
    tested = Counter()
    for n in (1, 2, 3):
        for values in product(range(n), repeat=n * n):
            rows = tuple(values[i:i + n] for i in range(0, n * n, n))
            want = scan_rows(rows)
            assert list(_scan_associative(range(n), rows)) == want
            for unit in range(n):
                assert associative_witnesses(rows, unit) == want, (rows, unit)
            tested[n, not want] += 1
    # 8 of the 16 two-element and 113 of the 19,683 three-element tables
    # are semigroups
    assert tested == {(1, True): 1, (2, True): 8, (2, False): 8,
                      (3, True): 113, (3, False): 19570}


def test_light_verdict_matches_the_scan_on_the_census():
    for n in range(1, 5):
        for els, mult, unit in all_commutative_monoids(n):
            rows = tuple(tuple(els.index(mult[x, y]) for y in els)
                         for x in els)
            assert associative_witnesses(rows, els.index(unit)) == []
            if n > 2:
                gens = _generators(rows, els.index(unit))
                assert gens is None or _light(rows, gens)


def structure_rows(doc):
    """The index rows and unit of a generated structure's document."""
    index = {x: i for i, x in enumerate(doc["lattice"]["elements"])}
    n = len(index)
    rows = [[None] * n for _ in range(n)]
    for x, y, v in doc["mult"]:
        rows[index[x]][index[y]] = rows[index[y]][index[x]] = index[v]
    return tuple(map(tuple, rows)), index[doc["unit"]]


def test_light_verdict_matches_the_scan_on_edited_structures():
    gen = _load_gen()
    rng = random.Random(604)
    cases = [("boolean", n) for n in (32, 64, 128)] + \
        [("downset", n) for n in (32, 48, 64, 96, 128)]
    edits = Counter()
    for kind, n in cases * 2:
        doc, _ = getattr(gen, kind + "_structure")(rng, n)
        rows, unit = structure_rows(doc)
        assert associative_witnesses(rows, unit) == []
        for _ in range(20):
            x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            one_sided = rng.random() < 0.5
            edited = [list(row) for row in rows]
            edited[x][y] = v
            if not one_sided:
                edited[y][x] = v
            edited = tuple(map(tuple, edited))
            want = list(islice(_scan_associative(range(n), edited), 5))
            assert associative_witnesses(edited, unit, 5) == want, \
                (kind, n, x, y, v, one_sided)
            edits[one_sided, not want] += 1
    assert sum(edits.values()) >= 300
    assert edits[True, False] and edits[False, False]


@pytest.mark.parametrize("n", [256, 257])
def test_light_and_dual_masks_match_the_scans_across_the_byte_bound(n):
    # the generator search, Light's test and the duals' witness masks read
    # the rows as bytes up to 256 elements and through itemgetter and
    # compress past them: the meet product on the 256 down-sets of 8
    # points, and on those plus one point above them all, lawful and with
    # 20 planted edits (one- or two-sided, five in the unit's column, some
    # with a dual override), each at one of three seeded falsums, must
    # find the generators of their definition, list the scan's first
    # witnesses and derive the earlier duals, with the Galois verdict of
    # masks gathered one product at a time
    gen = _load_gen()
    rng = random.Random(609 + n)
    below = [1 << i for i in range(8)] + [(1 << 9) - 1] * (n == 257)
    doc, _ = gen._structure(rng, below)
    lat = lattice_from_doc(doc["lattice"])
    els, up = lat.elements, lat._up
    assert len(els) == n and (n > phase_module._BYTE_ROWS) == (n == 257)
    rows, unit = structure_rows(doc)
    assert associative_witnesses(rows, unit) == \
        list(_scan_associative(range(n), rows)) == []

    def made(a, p, b):
        # y.z makes p when y and z are neither the unit nor p itself
        return unit not in (a, b) and p not in (a, b)

    def generators(edited):
        gens = [p for p in range(n) if not products[p]]
        reached = list(gens)
        for a in reached:
            reached += {edited[a][g] for g in gens} - set(reached)
        return gens if len(reached) == n else None

    # how many products of the lawful rows make each element; an edit
    # changes at most two of them
    products = Counter(p for a, row in enumerate(rows)
                       for b, p in enumerate(row) if made(a, p, b))
    gens = _generators(rows, unit)
    assert gens == generators(rows) is not None

    def mask(row, falsum):
        return sum(1 << z for z, p in enumerate(row) if up[p] >> falsum & 1)

    # the masks of the lawful rows at each falsum; an edit changes two rows
    falsums = rng.sample(range(n), 3)
    masks = {f: [mask(row, f) for row in rows] for f in falsums}
    table = {(els[a], els[b]): els[p]
             for a, row in enumerate(rows) for b, p in enumerate(row)}
    seen = Counter()
    for edit in range(21):
        edited = [list(row) for row in rows]
        x = y = 0
        if edit:
            x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            if edit % 4 == 1:
                # a product with the unit, valued at a generator, which
                # the generator search must not count as made
                y, v = unit, rng.choice(gens)
            edited[x][y] = v
            if rng.random() < 0.5:
                edited[y][x] = v
        edited = tuple(map(tuple, edited))
        changed = {(x, y), (y, x)}
        for a, b in changed:
            products[rows[a][b]] -= made(a, rows[a][b], b)
            products[edited[a][b]] += made(a, edited[a][b], b)
        assert _generators(edited, unit) == generators(edited), edit
        for a, b in changed:
            products[edited[a][b]] -= made(a, edited[a][b], b)
            products[rows[a][b]] += made(a, rows[a][b], b)
        want = list(islice(_scan_associative(range(n), edited), 5))
        assert associative_witnesses(edited, unit, 5) == want, edit
        falsum = rng.choice(falsums)
        overrides = {}
        if rng.random() < 0.25:
            overrides = {els[rng.randrange(n)]: els[rng.randrange(n)]}
        for a, b in changed:
            table[els[a], els[b]] = els[edited[a][b]]
        got = outcome(phase_module._derive_duals, lat, edited, falsum,
                      overrides)
        old = outcome(old_derive_duals, lat, table, els[falsum], overrides)
        for a, b in changed:
            table[els[a], els[b]] = els[rows[a][b]]
        if isinstance(old, dict):
            dual, galois = got
            assert dict(zip(els, map(els.__getitem__, dual))) == old, edit
            row_masks = list(masks[falsum])
            row_masks[x], row_masks[y] = (mask(edited[x], falsum),
                                          mask(edited[y], falsum))
            assert galois == (row_masks == [lat._down[d] for d in dual]), \
                edit
            seen[bool(want), "galois" if galois else "not galois"] += 1
        else:
            assert got == old, edit
            seen[bool(want), old[0]] += 1
    # duals that form a Galois connection and duals that do not, and
    # most edits break associativity
    assert {kind for _, kind in seen} >= {"galois", "not galois"}, seen
    assert sum(count for (fails, _), count in seen.items() if fails) >= 15, \
        seen


@pytest.mark.parametrize("kind,n", [(kind, n)
                                    for kind in ("boolean", "downset")
                                    for n in (32, 64, 128, 256)])
def test_lawful_structures_never_scan_associativity(kind, n, monkeypatch):
    gen = _load_gen()
    doc, _ = getattr(gen, kind + "_structure")(random.Random(n + 605), n)
    assert fields(doc, "phase")["checks"] == "full"

    def scan(els, rows):
        raise AssertionError("associativity scanned instance by instance")

    monkeypatch.setattr(phase_module, "_scan_associative", scan)
    report = verify_laws(phase_from_doc(doc))
    assert report["ok"]
    assert report["laws"][1] == {"law": "associative", "status": "pass",
                                 "checked": n ** 3, "skipped": 0,
                                 "witnesses": []}


# the residual law by residuation or by rows ------------------------------
#
# The audit skips the rows altogether when the load proved the law: the
# load decided associativity, the rows commute and each row's witness
# mask towards falsum is the down-set of its dual, which decides every
# pair by residuation, whatever the load's gates.  Otherwise the stars of
# every row are folded up the covers once (Lattice.stars) and each pair
# reads its own, so the audit asks Lattice._star nothing.  The per-pair
# fold of old_laws is the oracle for both.

def counting_star(monkeypatch):
    """The witness masks Lattice._star is asked about from here on."""
    calls = []
    star = Lattice._star

    def counting(self, w):
        calls.append(w)
        return star(self, w)

    monkeypatch.setattr(Lattice, "_star", counting)
    return calls


def counting_folds(monkeypatch):
    """The product rows Lattice.stars folds from here on."""
    calls = []
    stars = Lattice.stars

    def counting(self, row):
        calls.append(row)
        return stars(self, row)

    monkeypatch.setattr(Lattice, "stars", counting)
    return calls


@pytest.mark.parametrize("kind,n", [("boolean", 128), ("boolean", 256),
                                    ("downset", 128), ("downset", 256)])
def test_lawful_structures_never_scan_residual_pairs(kind, n, monkeypatch):
    gen = _load_gen()
    ps = phase_from_doc(getattr(gen, kind + "_structure")(
        random.Random(n + 606), n)[0])
    calls, folds = counting_star(monkeypatch), counting_folds(monkeypatch)
    report = verify_laws(ps)
    # the gated load proved the law by residuation
    assert calls == [] and folds == []
    assert report["ok"]
    assert report["laws"][-1] == {"law": RESIDUAL_LAW, "status": "pass",
                                  "checked": n * n, "skipped": 0,
                                  "witnesses": []}


def test_edited_structures_match_the_earlier_residual_law(monkeypatch):
    # one planted product or dual edit, loaded without the gates: unless
    # the load proved the residual law, the stars of every row are folded
    # once and its pairs read them, to the report of the per-pair fold
    gen = _load_gen()
    rng = random.Random(607)
    calls, folds = counting_star(monkeypatch), counting_folds(monkeypatch)
    seen = Counter()
    for kind, n in [("boolean", 32), ("boolean", 64), ("downset", 32),
                    ("downset", 64)] * 6:
        doc, _ = getattr(gen, kind + "_structure")(rng, n)
        lat = lattice_from_doc(doc["lattice"])
        els = lat.elements
        table = {}
        for x, y, v in doc["mult"]:
            table[x, y] = table[y, x] = v
        x, y, v = rng.choice(els), rng.choice(els), rng.choice(els)
        overrides = {}
        if rng.random() < 0.5:
            table[x, y] = table[y, x] = v
            doc["mult"] = [[a, b, c] for (a, b), c in table.items()]
        else:
            overrides = {x: v}
            doc["dual_overrides"] = [[x, v]]
        case = (kind, n, x, y, v, bool(overrides))
        want = outcome(old_derive_duals, lat, table, doc["falsum"],
                       overrides)
        try:
            ps = phase_from_doc(doc, lattice=lat, validate=False)
        except PhasegameError as exc:
            assert (type(exc).__name__, str(exc)) == want, case
            continue
        assert {e: ps.dual(e) for e in els} == want, case
        calls.clear()
        folds.clear()
        report = verify_laws(ps)
        assert report == old_report(lat, table, doc["unit"], doc["falsum"],
                                    want, doc["unit_mode"]), case
        # a scanned row folds its stars once, and no pair asks _star
        scanned = 0 if RESIDUAL_LAW in passed(ps) else n
        assert len(folds) == scanned and calls == [], case
        seen[report["laws"][-1]["status"], bool(scanned)] += 1
    # no edit keeps the premises of the proof, and one keeps the law
    assert seen == {("fail", True): 23, ("pass", True): 1}, seen


def gated_product(rng, lat):
    """(kind, name-keyed symmetric table, unit) for a gated load: the
    meet, a perturbed meet, a cyclic group on the elements in shuffled
    order, or the max over a shuffled chain of the elements.  The last two
    are associative but, on most orders, not monotone."""
    els = lat.elements
    n = len(els)
    kind = rng.choice(["meet", "perturbed", "cyclic", "chain_max"])
    ranked = list(els)
    rng.shuffle(ranked)
    rank = {x: r for r, x in enumerate(ranked)}
    if kind == "cyclic":
        value = lambda x, y: ranked[(rank[x] + rank[y]) % n]
    elif kind == "chain_max":
        value = lambda x, y: max(x, y, key=rank.__getitem__)
    else:
        value = lat.meet2
    table = {(x, y): value(x, y) for x in els for y in els}
    if kind == "perturbed":
        for _ in range(rng.randint(1, 2)):
            x, y = rng.choice(els), rng.choice(els)
            table[(x, y)] = table[(y, x)] = rng.choice(els)
    return kind, table, lat.top if kind in ("meet", "perturbed") else ranked[0]


def monotone(lat, table):
    els = lat.elements
    return all(lat.leq(table[x, z], table[y, z]) for x in els for y in els
               if lat.leq(x, y) for z in els)


def test_gated_audits_match_the_earlier_residual_law(monkeypatch):
    # gated loads of seeded products: the audit decides the residual law
    # by residuation when the load decided associativity, the rows commute
    # and each row's witness mask towards falsum is the down-set of its
    # dual, with no row's stars folded, under checks: full or relaxed;
    # any other structure folds the stars of each row once, and asks
    # _star nothing.  Both paths must give the per-pair fold's report
    rng = random.Random(608)
    calls, folds = counting_star(monkeypatch), counting_folds(monkeypatch)
    paths = Counter()
    for _ in range(1200):
        lat = random_lattice(rng)
        els = lat.elements
        kind, table, unit = gated_product(rng, lat)
        falsum = rng.choice(els)
        unit_mode = rng.choice(["weak", "strict"])
        checks = rng.choice(["full", "full", "relaxed"])
        # no overrides, random ones, or the duals towards an element at or
        # below falsum, which pass the dual gates more often
        overrides, pick = {}, rng.random()
        if pick < 0.2:
            overrides = {x: rng.choice(els) for x in
                         rng.sample(els, rng.randint(1, len(els)))}
        elif pick < 0.4:
            lower = rng.choice([x for x in els if lat.leq(x, falsum)])
            overrides = outcome(old_derive_duals, lat, table, lower, {})
            if not isinstance(overrides, dict):
                overrides = {}
        doc = {"mult": [[x, y, v] for (x, y), v in table.items()],
               "unit": unit, "falsum": falsum, "unit_mode": unit_mode,
               "checks": checks,
               "dual_overrides": [list(p) for p in overrides.items()]}
        case = (els, table, unit, falsum, unit_mode, checks, overrides)
        want = outcome(old_load, lat, table, unit, falsum, unit_mode,
                       checks, overrides)
        assert outcome(loaded_duals, doc, lat) == want, case
        if not isinstance(want, dict):
            continue
        ps = phase_from_doc(doc, lattice=lat)
        calls.clear()
        folds.clear()
        report = verify_laws(ps)
        assert report == old_report(lat, table, unit, falsum, want,
                                    unit_mode), case
        assert len(folds) in (0, len(els)) and calls == [], case
        if folds:
            paths["fold", checks, bool(overrides)] += 1
        else:
            assert report["ok"], case
            paths["proof", monotone(lat, table), bool(overrides)] += 1
    # keys: ("proof", monotone, overridden) and ("fold", checks,
    # overridden).  Non-monotone products take the proof as well; a load
    # keeps the fold when some row's witness mask towards falsum is not
    # the down-set of its dual (a mask that is no down-set, which only a
    # non-monotone product has, or an override other than the residual),
    # or, under checks: relaxed, when its rows are not associative
    assert paths == {("proof", True, False): 191, ("proof", True, True): 56,
                     ("proof", False, False): 74, ("proof", False, True): 13,
                     ("fold", "full", False): 14, ("fold", "full", True): 23,
                     ("fold", "relaxed", False): 45,
                     ("fold", "relaxed", True): 80}, paths



def gated_loads(rng):
    """(lattice, name-keyed table, unit, falsum, unit_mode, checks,
    overrides, document) of seeded gated loads, drawn as
    test_gated_audits_match_the_earlier_residual_law draws them."""
    while True:
        lat = random_lattice(rng)
        els = lat.elements
        kind, table, unit = gated_product(rng, lat)
        falsum = rng.choice(els)
        unit_mode = rng.choice(["weak", "strict"])
        checks = rng.choice(["full", "full", "relaxed"])
        overrides, pick = {}, rng.random()
        if pick < 0.2:
            overrides = {x: rng.choice(els) for x in
                         rng.sample(els, rng.randint(1, len(els)))}
        elif pick < 0.4:
            lower = rng.choice([x for x in els if lat.leq(x, falsum)])
            overrides = outcome(old_derive_duals, lat, table, lower, {})
            if not isinstance(overrides, dict):
                overrides = {}
        doc = {"mult": [[x, y, v] for (x, y), v in table.items()],
               "unit": unit, "falsum": falsum, "unit_mode": unit_mode,
               "checks": checks,
               "dual_overrides": [list(p) for p in overrides.items()]}
        yield lat, table, unit, falsum, unit_mode, checks, overrides, doc


def counting_dual_of_join(monkeypatch):
    """The dual-of-join scans run from here on, one None each."""
    calls = []
    scan = phase_module._dual_of_join
    monkeypatch.setattr(phase_module, "_dual_of_join",
                        lambda *args: calls.append(None) or scan(*args))
    return calls


def test_gated_loads_prove_only_dual_laws_that_scans_pass(monkeypatch):
    # the 1,200 seeded loads above: every load decides the four dual laws,
    # to the earlier scans' first witnesses.  A load whose duals form a
    # Galois connection on its rows (all of them commute here) proves
    # them and scans none, and on associative rows proves the commutative
    # and residual laws as well, under checks: full or relaxed; every
    # other load scans them once, to the earlier load's outcome under
    # checks: full.  Each proved law, scanned directly here, finds no
    # witness
    scans = counting_dual_of_join(monkeypatch)
    paths = Counter()
    for lat, table, unit, falsum, unit_mode, checks, overrides, doc in \
            islice(gated_loads(random.Random(608)), 1200):
        case = (lat.elements, table, unit, falsum, unit_mode, checks,
                overrides)
        scans.clear()
        got = outcome(phase_from_doc, doc, lat)
        want = outcome(old_load, lat, table, unit, falsum, unit_mode,
                       checks, overrides)
        if not isinstance(got, PhaseStructure):
            assert got == want, case
            if got[0] in ("DualLawViolation", "OverrideInconsistent"):
                paths["scan", got[0]] += 1
            continue
        els = lat.elements
        assert {x: got.dual(x) for x in els} == want, case
        galois = all({z for z in els if lat.leq(table[x, z], falsum)} ==
                     {z for z in els if lat.leq(z, want[x])} for x in els)
        assert len(scans) == (not galois), case
        found = {name: list(islice(w, 5)) for name, w, _ in
                 old_laws(lat, table, unit, falsum, want)
                 if name in _DUAL_LAWS}
        assert {name: list(got._verdicts[name]) for name in _DUAL_LAWS} == \
            found, case
        proved = RESIDUAL_LAW in passed(got)
        paths["proof" if proved else "scan" if scans else "dual proof",
              checks, "fail" if any(found.values()) else "pass"] += 1
        if proved:
            assert {"commutative", RESIDUAL_LAW, *_DUAL_LAWS} <= passed(got)
            idx = lat.idx
            for name, witnesses, _ in phase_module._laws(
                    lat, got._rows, idx(unit), idx(falsum), got._dual):
                if name in _DUAL_LAWS or name == "commutative":
                    assert next(witnesses, None) is None, (name, case)
    # the proofs are the 334 audits that the test above pins as proved,
    # the scans under checks: full its 37 gated folds, and the other 125
    # its folds under checks: relaxed, of which 10 prove the dual laws on
    # rows that are not associative and 115 scan them, 79 to a witness
    assert paths == {("proof", "full", "pass"): 225,
                     ("proof", "relaxed", "pass"): 109,
                     ("dual proof", "relaxed", "pass"): 10,
                     ("scan", "full", "pass"): 37,
                     ("scan", "relaxed", "pass"): 36,
                     ("scan", "relaxed", "fail"): 79,
                     ("scan", "DualLawViolation"): 37,
                     ("scan", "OverrideInconsistent"): 98}, paths


def test_ungated_loads_prove_exactly_the_lawful_tables():
    # the 1,200 seeded loads above, without the gates: each gives the
    # earlier duals or error and the per-pair fold's report, and a load
    # proves the residual law exactly where, on the name-keyed table, the
    # rows commute and are associative and the z with x.z <= falsum are
    # the z <= dual(x) for every x
    paths = Counter()
    for lat, table, unit, falsum, unit_mode, checks, overrides, doc in \
            islice(gated_loads(random.Random(608)), 1200):
        els = lat.elements
        case = (els, table, unit, falsum, unit_mode, checks, overrides)
        got = outcome(phase_from_doc, doc, lat, None, False)
        want = outcome(old_derive_duals, lat, table, falsum, overrides)
        if not isinstance(got, PhaseStructure):
            assert got == want, case
            paths[got[0]] += 1
            continue
        assert {x: got.dual(x) for x in els} == want, case
        assert verify_laws(got) == old_report(lat, table, unit, falsum,
                                              want, unit_mode), case
        laws = {name: next(w, None) for name, w, _ in
                old_laws(lat, table, unit, falsum)}
        lawful = laws["commutative"] is None and \
            laws["associative"] is None and \
            all({z for z in els if lat.leq(table[x, z], falsum)} ==
                {z for z in els if lat.leq(z, want[x])} for x in els)
        assert (RESIDUAL_LAW in passed(got)) == lawful, case
        paths["proof" if lawful else "fold"] += 1
    # the 334 proofs of the gated audits above, and one load whose unit
    # gate raises UnitNotNeutral
    assert paths == {"proof": 335, "fold": 386, "NotClosed": 479}, paths


def test_a_non_residual_override_makes_the_load_scan(monkeypatch):
    # Boolean meet structures whose every dual is overridden by its
    # residual take the proof and scan no dual law.  Each override turned
    # into another element breaks the Galois connection at that row, so
    # the load scans the dual laws, to the earlier load's outcome.  A scan
    # of the dual laws is a _laws call given the dual table (a load that
    # raises at an earlier dual law never reaches _dual_of_join)
    gen = _load_gen()
    dual_scans = []
    laws = phase_module._laws
    monkeypatch.setattr(phase_module, "_laws", lambda *args: (
        len(args) > 4 and dual_scans.append(None)) or laws(*args))
    rng = random.Random(609)
    seen = Counter()
    for n in (4, 8, 16, 32) * 5:
        doc, _ = gen.boolean_structure(rng, n)
        lat = lattice_from_doc(doc["lattice"])
        els = lat.elements
        residual = phase_from_doc(doc, lattice=lat)
        doc["dual_overrides"] = [[x, residual.dual(x)] for x in els]
        dual_scans.clear()
        ps = phase_from_doc(doc, lattice=lat)
        assert len(dual_scans) == 0 and RESIDUAL_LAW in passed(ps)
        x = rng.choice(els)
        v = rng.choice([y for y in els if y != residual.dual(x)])
        doc["dual_overrides"][els.index(x)][1] = v
        table = {}
        for a, b, c in doc["mult"]:
            table[a, b] = table[b, a] = c
        overrides = dict(map(tuple, doc["dual_overrides"]))
        case = (n, x, v)
        dual_scans.clear()
        got = outcome(loaded_duals, doc, lat)
        assert len(dual_scans) == 1, case
        assert got == outcome(old_load, lat, table, doc["unit"],
                              doc["falsum"], "strict", "full", overrides), \
            case
        seen[got[0] if isinstance(got, tuple) else "loaded"] += 1
    assert seen == {"OverrideInconsistent": 20}, seen


# the earlier two-pass product-row parser -------------------------------
#
# symmetrize and _product_rows as they were before one parser read the
# rows straight into index rows: a name-keyed table holding both orders of
# each pair, read back into index rows by a second pass that also checked
# that the table was total.  The earlier solver below reads its fixed rows
# with symmetrize too.

def symmetrize(names, rows):
    """Product table of checked [x, y, value] rows, each fixing both orders
    of its pair, with every name in names (a set, dict or lattice).  The
    first bad row raises: UsageError for a row listing candidates,
    ForeignElement for a foreign name, NotCommutative for a conflict."""
    table = {}
    for row in rows:
        x, y, v = row
        if isinstance(v, list):
            raise UsageError(
                "entry %r lists candidates; resolve it with the solver first"
                % (row,))
        if x not in names or y not in names or v not in names:
            raise ForeignElement(repr(next(e for e in row if e not in names)))
        for key in ((x, y), (y, x)):
            if table.setdefault(key, v) != v:
                raise NotCommutative("conflicting entries at %r: %r vs %r"
                                     % (key, table[key], v))
    return table


def old_product_rows(lattice, mult):
    """The name-keyed product table mult as index rows; NotCommutative at
    the first pair it leaves undefined."""
    els, index = lattice.elements, lattice._index
    rows = []
    for x in els:
        try:
            rows.append(tuple([index[mult[x, y]] for y in els]))
        except KeyError:
            for y in els:
                if (x, y) not in mult:
                    raise NotCommutative(
                        "product undefined at (%r, %r)" % (x, y)) from None
                lattice.idx(mult[x, y])
    return tuple(rows)


def old_phase_rows(doc, lattice=None, base_dir=None):
    f = fields(doc, "phase", given=() if lattice is None else ("lattice",))
    if lattice is None:
        lattice = lattice_from_doc(f["lattice"], base_dir)
    return old_product_rows(lattice, symmetrize(lattice._index, f["mult"]))


def new_phase_rows(doc, lattice=None, base_dir=None):
    return phase_from_doc(doc, lattice, base_dir, validate=False)._rows


def old_monoid_from_doc(doc):
    # the earlier parser, and the first pair it leaves undefined, as the
    # phase loader names it
    f = fields(doc, "monoid")
    els = f["elements"]
    mult = symmetrize(set(els), f["mult"])
    for x in els:
        for y in els:
            if (x, y) not in mult:
                raise NotCommutative("product undefined at (%r, %r)" % (x, y))
    return els, mult, f["unit"]


ROW_EDITS = ["shipped", "candidates", "foreign_left", "foreign_right",
             "foreign_value", "conflict", "reversed_conflict",
             "conflicting_diagonal", "missing_pair", "repeated_row"]


def edit_rows(doc, edit):
    """doc with its mult rows after the named edit, which takes its pair
    from the first fixed row off the diagonal, its diagonal from the first
    fixed row on it, and a conflicting value from the names they use."""
    doc = copy.deepcopy(doc)
    mult = doc["mult"]
    fixed = [row for row in mult if not isinstance(row[2], list)]
    x, y, v = next(row for row in fixed if row[0] != row[1])
    d, _, u = next(row for row in fixed if row[0] == row[1])
    names = [name for row in fixed for name in row]
    if edit == "candidates":
        mult.append([y, x, [v, "zz"]])
    elif edit == "foreign_left":
        mult.append(["zz", y, v])
    elif edit == "foreign_right":
        mult.append([x, "zz", v])
    elif edit == "foreign_value":
        mult.append([x, y, "zz"])
    elif edit in ("conflict", "reversed_conflict"):
        w = next(name for name in names if name != v)
        mult.append([x, y, w] if edit == "conflict" else [y, x, w])
    elif edit == "conflicting_diagonal":
        mult.append([d, d, next(name for name in names if name != u)])
    elif edit == "missing_pair":
        mult.remove([x, y, v])
    elif edit == "repeated_row":
        mult += [[x, y, v], [y, x, v]]
    else:
        assert edit == "shipped", edit
    return doc


@pytest.mark.parametrize("edit", ROW_EDITS)
def test_phase_rows_match_the_earlier_parser_on_edited_rows(edit):
    doc, base_dir = load_doc("data:goal_phase.json")
    doc = edit_rows(doc, edit)
    want = outcome(old_phase_rows, doc, None, base_dir)
    assert outcome(new_phase_rows, doc, None, base_dir) == want
    if edit in ("shipped", "repeated_row"):
        assert want == load_phase("data:goal_phase.json")._rows
    else:
        assert want[0] in ("UsageError", "ForeignElement", "NotCommutative")


@pytest.mark.parametrize("edit", ROW_EDITS)
def test_solver_matches_the_earlier_solver_on_edited_rows(edit):
    want = assert_solvers_agree(edit_rows(edited_candidates("shipped"), edit))
    if edit in ("foreign_left", "foreign_right", "foreign_value",
                "conflict", "reversed_conflict", "conflicting_diagonal"):
        assert want[0] in ("ForeignElement", "NotCommutative")


@pytest.mark.parametrize("edit", ROW_EDITS)
def test_monoid_rows_match_the_earlier_parser_on_edited_rows(edit):
    doc = edit_rows(load_doc("data:z3_monoid.json")[0], edit)
    want = outcome(old_monoid_from_doc, doc)
    assert outcome(monoid_from_doc, doc) == want
    if edit not in ("shipped", "repeated_row"):
        assert want[0] in ("UsageError", "ForeignElement", "NotCommutative")


def test_phase_rows_match_the_earlier_parser_on_seeded_rows():
    # rows in shuffled order and orientation, some repeated, some dropped,
    # some conflicting and some foreign; every element's dual is overridden
    # so that no residual is asked for
    rng = random.Random(605)
    seen = set()
    for _ in range(400):
        lat = random_lattice(rng)
        els = lat.elements
        table = random_table(rng, lat)
        rows = [[x, y, v] for (x, y), v in table.items()
                if rng.random() < 0.6 or x == y]
        rows += rng.sample(rows, rng.randint(0, len(rows) // 2))
        for _ in range(rng.choice([0, 0, 1, 2])):
            rows.append([rng.choice(els), rng.choice(els), rng.choice(els)])
        if rng.random() < 0.1:
            row = rng.choice(rows)
            row[rng.randrange(3)] = "nowhere"
        rng.shuffle(rows)
        doc = {"mult": rows, "unit": els[0], "falsum": els[0],
               "dual_overrides": [[x, x] for x in els]}
        want = outcome(old_phase_rows, doc, lat)
        assert outcome(new_phase_rows, doc, lat) == want, (els, rows)
        seen.add(want[0] if isinstance(want[0], str) else "rows")
    assert seen == {"rows", "ForeignElement", "NotCommutative"}


@pytest.mark.parametrize("kind,n", [("boolean", 64), ("downset", 48)])
def test_phase_rows_match_the_earlier_parser_on_generated_structures(
        kind, n):
    gen = _load_gen()
    make = gen.boolean_structure if kind == "boolean" else \
        gen.downset_structure
    rng = random.Random(606 + n)
    doc = make(rng, n)[0]
    doc["mult"] = [[y, x, v] if rng.random() < 0.5 else [x, y, v]
                   for x, y, v in doc["mult"]]
    rng.shuffle(doc["mult"])
    assert new_phase_rows(doc) == old_phase_rows(doc)


# the earlier row checks ------------------------------------------------
#
# fields as it was before row arrays were checked in whole-array passes:
# every row of a pair or product array checked on its own, in order.

OLD_ROWS = {"pair": ({(str, str)}, "items of field {0!r} must be pairs of "
                     "strings, got {1!r}"),
            "product": ({(str, str, str), (str, str, list)},
                        "{0} row {1!r} is not an [x, y, value] triple")}


def old_fields(doc, kind, given=()):
    out = {}
    for key, (types, item, arity, default) in SCHEMAS[kind].items():
        if key in given:
            continue
        value = out[key] = doc.get(key, default)
        if value is REQUIRED:
            raise UsageError("%s document has no field %r" % (kind, key))
        if value is default:
            continue
        if not _is_a(value, types):
            raise UsageError("field %r must be %s, got %r"
                             % (key, _KINDS[types], value))
        if key in ENUMS and value not in ENUMS[key]:
            raise UsageError("field %r must be %s, got %r" % (
                key, " or ".join(map(repr, ENUMS[key])), value))
        if arity is not None and len(value) != arity:
            raise UsageError("field %r must have %d items, got %r"
                             % (key, arity, value))
        if item is None:
            continue
        entries, message = OLD_ROWS.get(item, (None, None))
        want = list if entries else dict if item in SCHEMAS else item
        fits = isinstance if entries else _is_a
        for v in value:
            if not fits(v, want):
                raise UsageError("items of field %r must be %s, got %r"
                                 % (key, _KINDS[want], v))
            if entries and (tuple(map(type, v)) not in entries
                            or type(v[-1]) is list
                            and not all(isinstance(n, str) for n in v[-1])):
                raise UsageError(message.format(key, v))
        if key in DISTINCT:
            distinct(value if item is str else [v[0] for v in value],
                     "field %r" % key)
        if item in SCHEMAS:
            out[key] = [old_fields(v, item) for v in value]
    return out


class Name(str):
    pass


class Row(list):
    pass


def random_entry(rng, names):
    """Mostly a name; else a str subclass, an int, a bool, None or a list
    of names (a candidate list), some of them not plain."""
    kind = rng.choice(["str"] * 12 + ["sub", "int", "bool", "none", "list",
                                      "list"])
    if kind == "str":
        return rng.choice(names)
    if kind == "sub":
        return Name(rng.choice(names))
    if kind == "list":
        return [rng.choice([rng.choice(names), Name("x"), 3])
                if rng.random() < 0.2 else rng.choice(names)
                for _ in range(rng.randint(0, 3))]
    return {"int": 5, "bool": True, "none": None}[kind]


def random_rows(rng, names, size):
    """A row array of up to six rows: mostly plain rows of size names, or
    a candidate row; sometimes a tuple or list subclass, a row of another
    length, odd entries, or an item that is no array."""
    rows = []
    for _ in range(rng.choice([0, 1, 2, 3, 4, 6])):
        shape = rng.choice(["plain"] * 6 + ["candidates", "odd", "length",
                                            "tuple", "subclass", "scalar"])
        row = [rng.choice(names) for _ in range(size)]
        if shape == "candidates":
            row[-1] = [rng.choice(names) for _ in range(rng.randint(0, 3))]
        elif shape == "odd":
            row[rng.randrange(size)] = random_entry(rng, names)
        elif shape == "length":
            row = [random_entry(rng, names) for _ in range(rng.randint(0, 4))]
        elif shape == "tuple":
            row = tuple(row)
        elif shape == "subclass":
            row = Row(row)
        elif shape == "scalar":
            row = rng.choice(["x", 5, {}, None])
        rows.append(row)
    if rng.random() < 0.5:
        rows = [[rng.choice(names) for _ in range(size)]
                for _ in range(rng.randint(0, 5))]
    return rows


def test_row_checks_match_the_earlier_per_row_loop():
    # every row array of every kind that has one, given seeded arrays
    # with plain, candidate, tuple, subclassed, short, long and scalar
    # rows and str subclass, int, bool, None and list entries: the same
    # fields, or the same error
    rng = random.Random(611)
    names = ["a", "b", "c"]
    bases = {
        "lattice": {"elements": names, "covers": [], "bottom": "a",
                    "top": "c"},
        "phase": {"lattice": "l.json", "mult": [], "unit": "a",
                  "falsum": "a", "dual_overrides": []},
        "constraint": {"sum": [], "equals": "a"},
        "monoid": {"elements": names, "mult": [], "unit": "a"},
        "candidates": {"lattice": "l.json", "mult": [], "unit": "a",
                       "falsum": "a", "dual_overrides": [],
                       "linked_constraints": [{"sum": [], "equals": "a"}]},
    }
    arrays = [(kind, key) for kind, base in bases.items() for key in base
              if SCHEMAS[kind][key].item in ("pair", "product")]
    seen = Counter()
    for _ in range(6000):
        kind, key = rng.choice(arrays)
        doc = copy.deepcopy(bases[kind])
        size = 2 if SCHEMAS[kind][key].item == "pair" else 3
        doc[key] = random_rows(rng, names, size)
        if kind == "candidates" and rng.random() < 0.3:
            doc["linked_constraints"][0]["sum"] = random_rows(rng, names, 2)
        want = outcome(old_fields, doc, kind)
        assert outcome(fields, doc, kind) == want, (kind, doc)
        if isinstance(want, dict):
            seen["fields", bool(doc[key])] += 1
        else:
            seen[want[0], want[1].split()[0]] += 1
    assert seen.keys() == {("fields", False), ("fields", True),
                           ("UsageError", "items"), ("UsageError", "field"),
                           ("UsageError", "mult")}, seen


# the earlier name-keyed solver ----------------------------------------

def old_canon(lattice, x, y):
    return (x, y) if lattice.idx(x) <= lattice.idx(y) else (y, x)


def old_solve_table(doc_or_path, max_solutions=None):
    """The solver on a name-keyed table, re-reading each completion as a
    phase document."""
    doc, base_dir = load_doc(doc_or_path)
    f = fields(doc, "candidates")
    lattice = lattice_from_doc(f["lattice"], base_dir)

    table = symmetrize(lattice, [row for row in f["mult"]
                                 if not isinstance(row[2], list)])
    open_slots = {}
    for x, y, cands in f["mult"]:
        if isinstance(cands, list):
            key = old_canon(lattice, x, y)
            cands = list(dict.fromkeys(cands))
            for c in cands:
                if c not in lattice:
                    raise ForeignElement(repr(c))
            if open_slots.get(key, cands) != cands:
                raise NotCommutative("conflicting candidate lists at %r"
                                     % (key,))
            open_slots[key] = cands

    constraints = []
    for c in f["linked_constraints"]:
        pairs = [old_canon(lattice, x, y) for x, y in c["sum"]]
        constraints.append((pairs, c["equals"]))

    slots = sorted(k for k in open_slots if k not in table)
    cand_lists = [open_slots[k] for k in slots]
    full_checks = f["checks"] == "full"

    els = lattice.elements
    solutions = []

    def assoc_ok_after(x, y):
        for z in els:
            xy = table[(x, y)]
            yz = table.get((y, z))
            if yz is not None:
                lhs = table.get((xy, z))
                rhs = table.get((x, yz))
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
            zx = table.get((z, x))
            if zx is not None:
                lhs = table.get((zx, y))
                rhs = table.get((z, xy))
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
        return True

    def constraints_ok():
        for pairs, want in constraints:
            vals = [table.get(p) for p in pairs]
            if any(v is None for v in vals):
                continue
            if lattice.join(vals) != want:
                return False
        return True

    def resolved_doc():
        keys = sorted({old_canon(lattice, x, y) for (x, y) in table},
                      key=lambda k: (lattice.idx(k[0]), lattice.idx(k[1])))
        out = dict(doc)
        out["mult"] = [[x, y, table[(x, y)]] for x, y in keys]
        if base_dir is not None and isinstance(f["lattice"], str):
            out["lattice"] = resolve_path(f["lattice"], base_dir)
        return out

    def accept():
        cand = resolved_doc()
        try:
            ps = phase_from_doc(cand, lattice=lattice,
                                validate=not full_checks)
        except PhasegameError:
            return None
        if full_checks and not verify_laws(ps)["ok"]:
            return None
        return cand

    def walk(i):
        if i == len(slots):
            if not constraints_ok():
                return
            cand = accept()
            if cand is not None:
                solutions.append(cand)
                if max_solutions is not None and len(solutions) > max_solutions:
                    raise CapExceeded(
                        "more than %d completions" % max_solutions,
                        solutions=solutions[:max_solutions])
            return
        x, y = slots[i]
        for v in cand_lists[i]:
            table[(x, y)] = v
            table[(y, x)] = v
            if (not full_checks or assoc_ok_after(x, y)) and constraints_ok():
                walk(i + 1)
            del table[(x, y)]
            if x != y:
                del table[(y, x)]

    walk(0)
    if not solutions:
        raise NoSolution("no completion satisfies the declared laws")
    return solutions


def solved(solve, doc, max_solutions):
    """The documents solve finds, or the class and message of the error
    it raises, with the documents a CapExceeded carries."""
    try:
        return solve(copy.deepcopy(doc), max_solutions)
    except CapExceeded as exc:
        return "CapExceeded", str(exc), exc.solutions
    except (PhasegameError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_solvers_agree(doc, max_solutions=None):
    want = solved(old_solve_table, doc, max_solutions)
    assert solved(solve_table, doc, max_solutions) == want, doc
    return want


def test_solver_matches_the_earlier_solver_on_planted_tables():
    # goal_phase_alt is degenerate and relaxed checks prune nothing, so
    # every completion may pass: a cap of 64 bounds the leaves re-read
    gen = _load_gen()
    rng = random.Random(604)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shipped = [gen.inline_lattice(root, load_doc("data:%s.json" % name)[0])
               for name in ("goal_phase", "goal_phase_alt")]
    kinds = set()
    for i in range(60):
        if i % 4 == 3:
            phase_doc, _ = gen.downset_structure(rng, rng.choice([6, 8, 10]))
        else:
            phase_doc = shipped[i % 2]
        doc, table = gen.planted_table(rng, phase_doc, rng.randint(2, 8), 3)
        if rng.random() < 0.2:
            doc["checks"] = "relaxed"
        want = assert_solvers_agree(doc, rng.choice([1, 2, 64]))
        if isinstance(want, list):
            # the planted table is lawful, so it is always a completion
            assert table in [gen.table_of(s) for s in want]
        kinds.add(want[0] if isinstance(want, tuple) else "solved")
    assert kinds == {"solved", "CapExceeded"}


def edited_candidates(edit):
    """The shipped candidates document, with its lattice referenced from
    the package, after the named edit."""
    doc = load_doc("data:goal_phase_candidates.json")[0]
    doc["lattice"] = "data:goal_lattice.json"
    mult, constraints = doc["mult"], doc["linked_constraints"]
    if edit == "relaxed":
        # relaxed checks prune nothing: three slots stay open
        doc["checks"] = "relaxed"
        for row in [row for row in mult if isinstance(row[2], list)][3:]:
            row[2] = row[2][:1]
    elif edit == "strict_unit":
        doc["unit_mode"] = "strict"
    elif edit in ("dropped_fixed_pair", "dropped_candidate_pair"):
        pair = ["a", "J12"] if edit == "dropped_fixed_pair" else ["a", "b3"]
        doc["mult"] = [row for row in mult if row[:2] != pair]
    elif edit == "foreign_candidate":
        mult.append(["a", "b1", ["0", "zz"]])
    elif edit == "foreign_candidate_row":
        mult.append(["zz", "a", ["0"]])
    elif edit == "conflicting_candidates":
        mult.append(["b1", "a", ["a", "0"]])
    elif edit == "repeated_candidates":
        mult.append(["b1", "a", ["0", "a", "0"]])
    elif edit == "fixed_closes_slot":
        mult.append(["b3", "b3", "b3"])
    elif edit == "conflicting_fixed":
        mult.append(["b1", "b1", "0"])
    elif edit == "foreign_constraint_pair":
        constraints.append({"sum": [["a", "zz"]], "equals": "a"})
    elif edit == "foreign_constraint_value":
        constraints[0]["equals"] = "zz"
    elif edit == "empty_constraint":
        constraints.append({"sum": [], "equals": "0"})
    elif edit == "foreign_unit":
        doc["unit"] = "zz"
    elif edit == "foreign_falsum":
        doc["falsum"] = "zz"
    elif edit == "foreign_override_value":
        doc["dual_overrides"][0][1] = "zz"
    elif edit == "no_overrides":
        doc["dual_overrides"] = []
    else:
        assert edit == "shipped", edit
    return doc


EDITS = ["shipped", "relaxed", "strict_unit", "dropped_fixed_pair",
         "dropped_candidate_pair", "foreign_candidate",
         "foreign_candidate_row", "conflicting_candidates",
         "repeated_candidates", "fixed_closes_slot", "conflicting_fixed",
         "foreign_constraint_pair", "foreign_constraint_value",
         "empty_constraint", "foreign_unit", "foreign_falsum",
         "foreign_override_value", "no_overrides"]
# the intended differences: a foreign name is named before the search,
# where the earlier solver searched every completion and found none
FOREIGN_BEFORE_SEARCH = {
    "foreign_constraint_value": "'zz' is not an element of this lattice",
    "foreign_unit": "'zz'",
    "foreign_falsum": "'zz'",
    "foreign_override_value": "'zz'",
}


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("max_solutions", [None, 0, 1, 2])
def test_solver_matches_the_earlier_solver_on_edited_candidates(
        edit, max_solutions):
    doc = edited_candidates(edit)
    if edit in FOREIGN_BEFORE_SEARCH:
        assert solved(old_solve_table, doc, max_solutions) == (
            "NoSolution", "no completion satisfies the declared laws")
        assert solved(solve_table, doc, max_solutions) == (
            "ForeignElement", FOREIGN_BEFORE_SEARCH[edit])
        return
    assert_solvers_agree(doc, max_solutions)


def test_solver_resolves_a_referenced_lattice_as_before():
    path = data_path("goal_phase_candidates.json")
    want = assert_solvers_agree(path)
    assert want[0]["lattice"] == data_path("goal_lattice.json")


# the earlier list-based games ------------------------------------------
#
# dual_game and tensor_game as they were before each became a walked
# implicit game.  They list from the factors' own vertex and edge lists and
# find the reachable pairs with their own search, never calling walk, Dual,
# Tensor or the Game constructor.

class Listed:
    """A game as plain vertex and edge lists, unchecked and unwalked."""

    def __init__(self, vertices, root, edges):
        self.vertices, self.root = list(vertices), root
        self.edges = list(edges)
        self._out = {}
        for f, t, p in self.edges:
            self._out.setdefault((f, p), []).append(t)

    def moves(self, v, pol):
        return self._out.get((v, pol), [])


def old_dual_game(game):
    flip = {"O": "P", "P": "O"}
    return Listed(game.vertices, game.root,
                  [(f, t, flip[p]) for f, t, p in game.edges])


def old_tensor_game(a, b):
    """Tensor listed in the order of the factors' listings, keeping only
    the pairs reachable from the root and the edges leaving them."""
    root = (a.root, b.root)
    edges = ([((f, v), (t, v), p) for f, t, p in a.edges for v in b.vertices]
             + [((u, f), (u, t), p) for u in a.vertices
                for f, t, p in b.edges])
    out = {}
    for f, t, _ in edges:
        out.setdefault(f, []).append(t)
    seen, todo = {root}, [root]
    while todo:
        for w in out.get(todo.pop(), []):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return Listed([(u, v) for u in a.vertices for v in b.vertices
                   if (u, v) in seen], root,
                  [e for e in edges if e[0] in seen])


# the earlier implicit games --------------------------------------------
#
# Dual, Tensor, implication and materialize as they were before dual_game,
# tensor_game and implication_game listed their results directly: lazy
# games over any games, walked when a caller asks for their moves.  walk
# lists any object with a root and moves(v, pol); only these oracles walk
# implicit games.

_POLS = ("O", "P")
_FLIP = {"O": "P", "P": "O"}


def walk(game):
    """The vertices reachable from the root of a game, in breadth-first
    order, and the edges (v, w, pol) leaving them.  Equal vertices are one
    shared object, the first one reached."""
    seen = {game.root: game.root}
    order = [game.root]
    edges = []
    for v in order:
        for pol in _POLS:
            for w in game.moves(v, pol):
                u = seen.get(w)
                if u is None:
                    u = seen[w] = w
                    order.append(w)
                edges.append((v, u, pol))
    return order, edges


class Dual:
    """A game with the owner of every move swapped."""

    def __init__(self, game):
        self.game = game
        self.root = game.root

    def moves(self, v, pol):
        return self.game.moves(v, _FLIP[pol])


class Tensor:
    """The product of two games: a move of either factor changes its
    coordinate and leaves the other one in place."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.root = (a.root, b.root)

    def moves(self, v, pol):
        u, w = v
        return ([(x, w) for x in self.a.moves(u, pol)]
                + [(u, y) for y in self.b.moves(w, pol)])


def implication(a, b):
    return Tensor(Dual(a), b)


def materialize(game):
    """Any game, walked and listed as a Game."""
    vertices, edges = walk(game)
    return Game(vertices, game.root, edges)


# the earlier play walkers ----------------------------------------------
#
# maximal_plays, copycat and compose_strategies as they were before the
# three became one breadth-first unfolding: a depth-first stack, and two
# queues with their own caps.  They return play sets, built without the
# Strategy constructor.

def old_maximal_plays(game, strategy):
    resp = strategy.response()
    cap = 4 * len(walk(game)[0]) + 4
    out = []
    stack = [(game.root,)]
    while stack:
        p = stack.pop()
        if len(p) > cap:
            raise InteractionOverflow(
                "play of %d moves; the game graph may be cyclic" % (len(p) - 1,))
        omoves = game.moves(p[-1], "O")
        if not omoves:
            out.append(p)
            continue
        for w in omoves:
            q = p + (w,)
            r = resp.get(q)
            if r is None:
                out.append(q)
            else:
                stack.append(q + (r,))
    return out


def old_copycat(game):
    impl = implication(game, game)
    cap = 4 * len(walk(impl)[0]) + 4
    plays = {(impl.root,)}
    queue = deque([(impl.root,)])
    while queue:
        p = queue.popleft()
        if len(p) > cap:
            raise InteractionOverflow("mirror play exceeds bound")
        v = p[-1][1]
        for w in impl.moves(p[-1], "O"):
            mirror = (w[0], w[0]) if w[1] == v else (w[1], w[1])
            if mirror not in impl.moves(w, "P"):
                continue
            q = p + (w, mirror)
            if q not in plays:
                plays.add(q)
                queue.append(q)
    return plays


def old_compose_strategies(game_x, game_y, game_z, sigma, tau):
    impl_xz = implication(game_x, game_z)
    resp_s = sigma.response()
    resp_t = tau.response()
    cap = 4 * len(walk(game_x)[0]) * len(walk(game_y)[0]) \
        * len(walk(game_z)[0])

    plays = {(impl_xz.root,)}
    # state: composite play, sigma play, tau play (all even length)
    queue = deque([((impl_xz.root,), (sigma.game.root,), (tau.game.root,))])
    while queue:
        cp, sp, tp = queue.popleft()
        if len(cp) > cap:
            raise InteractionOverflow("composite play exceeds bound")
        x, z = cp[-1]
        _, y_s = sp[-1]
        for w in impl_xz.moves((x, z), "O"):
            wx, wz = w
            if wx != x:
                side, sq, tq = "s", sp + ((wx, y_s),), tp
            else:
                y_t, _ = tp[-1]
                side, sq, tq = "t", sp, tp + ((y_t, wz),)
            steps = 0
            while True:
                steps += 1
                if steps > cap:
                    raise InteractionOverflow(
                        "interaction between strategies did not settle")
                if side == "s":
                    r = resp_s.get(sq)
                    if r is None:
                        break
                    rx, ry = r
                    sq = sq + (r,)
                    if rx != sq[-2][0]:
                        # answered in X: composite P-move
                        nq = cp + (w, (rx, wz))
                        plays.add(nq)
                        queue.append((nq, sq, tq))
                        break
                    # answered in Y: forward to tau as an O-move
                    tq = tq + ((ry, tq[-1][1]),)
                    side = "t"
                else:
                    r = resp_t.get(tq)
                    if r is None:
                        break
                    ry, rz = r
                    tq = tq + (r,)
                    if rz != tq[-2][1]:
                        nq = cp + (w, (wx, rz))
                        plays.add(nq)
                        queue.append((nq, sq, tq))
                        break
                    sq = sq + ((sq[-1][0], ry),)
                    side = "s"
    return plays


def assert_lists_the_implicit_games(a, b):
    """dual_game, tensor_game and implication_game of a and b have the
    root, vertices and edges, in order, of the earlier implicit games'
    walks."""
    for implicit, listed in [(Dual(a), dual_game(a)),
                             (Tensor(a, b), tensor_game(a, b)),
                             (implication(a, b), implication_game(a, b))]:
        assert (listed.root, listed.vertices, listed.edges) == \
            (implicit.root, *walk(implicit))


def assert_unfolds_as_before(x, y, z, sigma, tau):
    """The listed games of X, Y and Z pairs are the earlier implicit
    games' walks, and copycat on X, Y and Z, sigma;tau, and the maximal
    plays of each of these strategies equal the earlier walkers' (maximal
    plays as sets, since the unfolding lists them breadth first)."""
    strategies = [sigma, tau]
    for a, b in ((x, y), (y, z), (x, z)):
        assert_lists_the_implicit_games(a, b)
    for g in (x, y, z):
        cc = copycat(g)
        assert cc.plays == old_copycat(g)
        strategies.append(cc)
    comp = compose_strategies(x, y, z, sigma, tau)
    assert comp.plays == old_compose_strategies(x, y, z, sigma, tau)
    strategies.append(comp)
    for s in strategies:
        maximal = maximal_plays(s)
        assert len(maximal) == len(set(maximal))
        assert set(maximal) == set(old_maximal_plays(s.game, s))


def test_plays_match_the_earlier_walkers_on_random_games():
    rng = random.Random(1605)
    for _ in range(100):
        x, y, z = (random_game(rng, 4) for _ in range(3))
        sigma = random_strategy(rng, implication_game(x, y))
        tau = random_strategy(rng, implication_game(y, z))
        assert_unfolds_as_before(x, y, z, sigma, tau)
        assert_unfolds_as_before(x, x, y, copycat(x), sigma)
        assert_unfolds_as_before(x, y, y, sigma, copycat(y))


def alternating_chain(length):
    """c0 -O-> c1 -P-> c2 -O-> ... with length moves."""
    names = ["c%d" % i for i in range(length + 1)]
    return Game(names, names[0], [(names[i], names[i + 1], "OP"[i % 2])
                                  for i in range(length)])


@pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
def test_plays_match_the_earlier_walkers_on_chain_tensors(length):
    g = tensor_game(alternating_chain(length), alternating_chain(length))
    h = tensor_game(alternating_chain(length - 1), alternating_chain(1))
    cc = copycat(g)
    assert_unfolds_as_before(g, g, g, cc, cc)
    sigma = random_strategy(random.Random(length), implication_game(g, h))
    assert_unfolds_as_before(g, g, h, cc, sigma)


# the earlier strategy check ---------------------------------------------
#
# validate_strategy as it was before a play checked only its last two moves
# and its prefix: every move of every play, then the reply table in a
# second pass.

def old_validate_strategy(strategy):
    game, plays = strategy.game, strategy.plays
    if (game.root,) not in plays:
        raise InvalidStrategy("must contain the empty play at the root")
    for p in plays:
        if len(p) % 2 == 0:
            raise InvalidStrategy("odd number of moves in %r" % (p,))
        if p[0] != game.root:
            raise InvalidStrategy("play %r does not start at the root" % (p,))
        for i in range(len(p) - 1):
            pol = "O" if i % 2 == 0 else "P"
            if p[i + 1] not in game.moves(p[i], pol):
                raise InvalidStrategy(
                    "no %s-edge %r -> %r" % (pol, p[i], p[i + 1]))
        if len(p) >= 3 and p[:-2] not in plays:
            raise InvalidStrategy("prefix of %r missing" % (p,))
    resp = {}
    for p in plays:
        if len(p) >= 3 and resp.setdefault(p[:-1], p[-1]) != p[-1]:
            raise InvalidStrategy("two responses after %r: %r and %r"
                                  % (p[:-1], resp[p[:-1]], p[-1]))
    return True


_FAULTS = ("empty play", "odd number", "does not start at the root",
           "no O-edge", "no P-edge", "prefix", "two responses")


def strategy_verdicts(game, plays):
    """What Strategy and the earlier check say of plays on game: None when
    it is accepted, else which fault was named."""
    out = []
    for check in (lambda: Strategy(game, plays),
                  lambda: old_validate_strategy(SimpleNamespace(game=game,
                                                                plays=plays))):
        try:
            check()
            out.append(None)
        except InvalidStrategy as e:
            out.append(next(f for f in _FAULTS if f in str(e)))
    return out


def faulty_copies(game, plays):
    """(fault, plays with that one fault) for each fault this strategy can
    be given: the fault is what both checks must name."""
    root = game.root
    vertices = walk(game)[0]
    extended = {p[:-2] for p in plays if len(p) >= 3}
    long_plays = sorted((p for p in plays if len(p) >= 3), key=repr)
    leaves = [p for p in long_plays if p not in extended]
    for q in long_plays:
        if q in extended:
            yield "prefix", plays - {q}
            break
    for p in sorted(plays, key=repr):
        w = next(iter(game.moves(p[-1], "O")), None)
        if w is not None:
            yield "odd number", plays | {p + (w,)}
            break
    for v in vertices:
        if v != root:
            yield "does not start at the root", plays | {(v,)}
            break
    for p in long_plays:
        other = [w for w in game.moves(p[-2], "P") if w != p[-1]]
        if other:
            yield "two responses", plays | {p[:-1] + (other[0],)}
            break
    for q in leaves:
        wrong = [w for w in game.moves(q[-2], "O")
                 if w not in game.moves(q[-2], "P")]
        if wrong:
            yield "no P-edge", plays - {q} | {q[:-1] + (wrong[0],)}
            break
    for p in long_plays:
        if len(p) < 5:
            continue
        # an illegal first move in p and in every play through it, so each
        # prefix is present and only the shortest one is at fault
        bad = next((v for v in vertices
                    if v not in game.moves(root, "O")), None)
        if bad is not None:
            yield "no O-edge", frozenset(
                q[:1] + (bad,) + q[2:] if q[:2] == p[:2] else q
                for q in plays)
        break
    stray = "not a vertex"
    assert stray not in vertices
    for p in long_plays:
        if len(p) >= 5:
            # a reply off the game in p and in every play through it, so
            # the longer plays move on from a vertex the game does not have
            yield "no P-edge", frozenset(
                q[:2] + (stray,) + q[3:] if q[:3] == p[:3] else q
                for q in plays)
            break


def test_validation_agrees_with_the_earlier_strategy_check():
    rng = random.Random(2027)
    named = Counter()
    strategies = [copycat(tensor_game(alternating_chain(n),
                                      alternating_chain(n)))
                  for n in (2, 3)]
    for _ in range(150):
        x, y = random_game(rng, 5), random_game(rng, 5)
        strategies += [random_strategy(rng, implication_game(x, y)),
                       copycat(x)]
    for s in strategies:
        assert strategy_verdicts(s.game, s.plays) == [None] * 2
        for fault, plays in faulty_copies(s.game, s.plays):
            assert strategy_verdicts(s.game, plays) == [fault] * 2
            named[fault] += 1
            if fault != "no O-edge":
                continue
            # a play checks the O-move from the root only when it is three
            # vertices long, so the new check names the shortest faulty play
            root = s.game.root
            bad = next(p[1] for p in plays
                       if len(p) > 1 and p[1] not in s.game.moves(root, "O"))
            with pytest.raises(InvalidStrategy) as e:
                Strategy(s.game, plays)
            assert str(e.value) == "no O-edge %r -> %r" % (root, bad)
    assert set(named) == set(_FAULTS) - {"empty play"}
    assert min(named.values()) >= 10, named
    # and an empty set of plays, or one without the root play
    root = strategies[0].game.root
    for plays in (frozenset(), strategies[0].plays - {(root,)}):
        assert strategy_verdicts(strategies[0].game, plays) == [
            "empty play"] * 2


# the earlier play search -----------------------------------------------
#
# plan_play as it was before its successor lists were ordered by the cached
# reprs of their parts: the earlier search below, each successor list sorted
# by a fresh repr of every vertex, asked of the compound game's moves at
# each vertex, with nested tuples for vertices and states.

def old_plan_play(sc, goals, mode="practical", position=None, images=None):
    if position is None:
        position = sc.start
    game = OldCompoundGame(sc, goals, position=position, mode=mode,
                           images=images)
    lat = sc.payoff_lattice

    trace = Trace({
        "kind": "plan",
        "scenario": sc.name,
        "mode": mode,
        "position": list(position),
        "goals": sorted(goals),
        "objective_lattice": "powerset of %d features" % len(sc.universe),
    })

    play, running, states, support = old_search(game)
    trace.header["states"] = states
    trace.header["plays"] = sum(support.values())
    trace.log("enumerated %d alternated plays" % trace.header["plays"])
    trace.log("plays with an objective of largest support: %d"
              % support[max(support)])
    trace.log("plays by objective size: %s" % ", ".join(
        "%d: %d" % kv for kv in sorted(support.items())))
    if support[max(support)] > 1:
        trace.log("tie-broken by length, then move order")

    for i, v in enumerate(play):
        (cell, t), _ = v
        if i == 0:
            continue
        actor = "environment" if (i - 1) % 2 == 0 else "system"
        vis = visible_rewards(sc, cell)
        trace.entries.append({
            "actor": actor,
            "position": list(cell),
            "rewards": {g: sorted(vis[g]) for g in sorted(goals)},
            "objective_so_far": lat.members(running[i]),
        })
    trace.final_play = [_vertex_doc(v) for v in play]
    trace.objective = lat.members(running[-1])

    reached = {cell for (cell, t), _ in play}
    for g in goals:
        obj = sc.objects[g]
        if obj.cell not in reached:
            trace.log("goal %s not reached within horizon" % g)
    trace.complete = True
    return trace


# object ids that share a prefix, or hold a quote or a comma, so that the
# chains' reprs differ in length, quoting and escapes
PLAN_IDS = ["o1", "o10", "o1'", 'o"1', "o,1", "o'1\"", "o", "o0"]


def wide_plan_case(rng):
    """A seeded grid of 10 to 15 columns and 1 to 13 rows, sparse in
    obstacles, at horizon 5 to 7 so that ticks cross 9 -> 10, whose start
    and position sit at a column of 7 to 12 so that plays cross x = 9 ->
    10; one to three goals with one to three features each, about half
    of them with a revealed first feature."""
    while True:
        w, h = rng.randint(10, 15), rng.randint(1, 13)
        grid = ["".join("#" if rng.random() < 0.1 else "."
                        for _ in range(w)) for _ in range(h)]
        cells = [(x, y) for y in range(h) for x in range(w)
                 if grid[y][x] == "."]
        near = [c for c in cells if 7 <= c[0] <= 12]
        if near and len(cells) >= 4:
            break
    objects = [{"id": oid, "cell": list(rng.choice(cells)),
                "features": ["f%d_%d" % (i, j)
                             for j in range(rng.randint(1, 3))],
                "goal": goal}
               for i, (oid, goal) in enumerate(zip(
                   rng.sample(PLAN_IDS, rng.randint(1, 3)),
                   ["J1a", "b2", "b3"]))]
    sc = load_scenario({
        "name": "wide", "grid": grid, "start": list(rng.choice(near)),
        "horizon": rng.randint(5, 7), "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": objects})
    goals = sorted(sc.objects)
    images = {g: frozenset(sc.objects[g].features[:1])
              for g in goals if rng.random() < 0.5}
    return sc, goals, rng.choice(near), images


def test_plans_match_the_earlier_repr_sort_past_one_digit():
    rng = random.Random(1919)
    wide = 0
    for _ in range(16):
        sc, goals, position, images = wide_plan_case(rng)
        for mode in ("practical", "strict"):
            for at in (None, position):
                want = old_plan_play(sc, goals, mode, at, images).to_json()
                assert plan_play(sc, goals, mode, at, images).to_json() == \
                    want, (sc.rows, goals, mode, at)
        wide += max(x for x, _ in sc.passable) >= 10
    assert wide >= 12


def planner_shape_case(rng):
    """A seeded grid in the shape of the benchmark's dearer plans: 10 to 13
    columns and 1 to 11 rows at horizon 4 to 7, four goals (J1a, b2, b3,
    e) of three features each drawn from one six-name universe shared
    across objects, each object within the horizon of the start; a moved
    position with a move, and images of each goal's first feature."""
    while True:
        w, h, horizon = rng.randint(10, 13), rng.randint(1, 11), \
            rng.randint(4, 7)
        grid = ["".join("#" if rng.random() < 0.1 else "."
                        for _ in range(w)) for _ in range(h)]
        cells = [(x, y) for y in range(h) for x in range(w)
                 if grid[y][x] == "."]
        starts = [c for c in cells if c[0] >= 7]
        if not starts:
            continue
        start = rng.choice(starts)
        near = [c for c in cells
                if max(abs(c[0] - start[0]), abs(c[1] - start[1])) <= horizon]
        if len(near) >= 5:
            break
    universe = ["t%d" % i for i in range(6)]
    objects = [{"id": "o%d" % i, "cell": list(cell),
                "features": rng.sample(universe, 3), "goal": goal}
               for i, (cell, goal) in enumerate(zip(
                   rng.sample(near, 4), ["J1a", "b2", "b3", "e"]))]
    sc = load_scenario({
        "name": "shaped", "grid": grid, "start": list(start),
        "horizon": horizon, "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": objects})
    moved = rng.choice([c for c in near if c != start and sc.neighbors(c)]
                       or [start])
    goals = sorted(sc.objects)
    images = {g: frozenset(sc.objects[g].features[:1]) for g in goals}
    return sc, goals, moved, images


def test_plans_match_the_earlier_search_in_the_benchmark_shapes():
    rng = random.Random(2020)
    horizons = set()
    for _ in range(10):
        sc, goals, position, images = planner_shape_case(rng)
        horizons.add(sc.horizon)
        for mode in ("practical", "strict"):
            for at in (None, position):
                for seen in (None, images):
                    want = old_plan_play(sc, goals, mode, at, seen).to_json()
                    assert plan_play(sc, goals, mode, at, seen).to_json() \
                        == want, (sc.rows, goals, mode, at, seen)
    assert horizons == {4, 5, 6, 7}


def test_plans_match_the_earlier_search_on_twenty_features():
    # two goals of ten features make a universe of 20, so an objective that
    # holds the last feature sets the top bit of the payoff lattice's masks
    sc = load_scenario({
        "name": "twenty", "grid": ["." * 8] * 3,
        "start": [1, 1], "horizon": 3, "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": [
            {"id": "o%d" % i, "cell": cell, "goal": goal,
             "features": ["f%d_%d" % (i, j) for j in range(10)]}
            for i, (cell, goal) in enumerate([([0, 1], "b2"),
                                              ([4, 1], "e")])]})
    assert len(sc.universe) == 20
    goals = sorted(sc.objects)
    for mode in ("practical", "strict"):
        for images in (None, {"o0": frozenset(["f0_0"])}):
            plan = plan_play(sc, goals, mode, None, images)
            assert plan.to_json() == \
                old_plan_play(sc, goals, mode, None, images).to_json()
            if mode == "practical":
                assert sc.universe[-1] in plan.objective


def chain_goal_scenario(k):
    """k goals on the chain goal phase z < g0 < ... < g(k-1) < t, whose
    product is the meet, with unit t, falsum z and generators g0..g(k-1):
    one object per generator, of two features each, around the middle of
    an open 21x21 grid at horizon 5."""
    names = ["z"] + ["g%d" % i for i in range(k)] + ["t"]
    phase = {"lattice": {"elements": names,
                         "covers": [list(c) for c in zip(names, names[1:])],
                         "bottom": "z", "top": "t",
                         "generators": names[1:-1]},
             "mult": [[x, y, names[min(i, j)]] for i, x in enumerate(names)
                      for j, y in enumerate(names)],
             "unit": "t", "falsum": "z"}
    # the rings of offsets at distance 1 to 5, corners first
    offsets = [(dx * r, dy * r) for r in range(1, 6)
               for dx, dy in [(-1, -1), (1, -1), (-1, 1), (1, 1),
                              (0, -1), (0, 1), (-1, 0), (1, 0)]]
    return load_scenario({
        "name": "chain", "grid": ["." * 21] * 21, "start": [10, 10],
        "horizon": 5, "goal_phase": phase, "free_move_goal": "t",
        "objects": [{"id": "o%02d" % i, "cell": [10 + dx, 10 + dy],
                     "features": ["f%d_0" % i, "f%d_1" % i],
                     "goal": "g%d" % i}
                    for i, (dx, dy) in enumerate(offsets[:k])]})


def test_plans_match_the_earlier_search_on_eight_chain_goals():
    # 3**8 chains ranks, of which a play reaches at most 1 + 8 + 36
    sc = chain_goal_scenario(8)
    goals = sorted(sc.objects)
    for mode in ("practical", "strict"):
        assert plan_play(sc, goals, mode).to_json() == \
            old_plan_play(sc, goals, mode).to_json()


def random_case(rng):
    """A small seeded scenario, and plan_play arguments with nonempty
    images that start away from sc.start wherever another cell has a
    move."""
    while True:
        w, h = rng.randint(2, 5), rng.randint(2, 4)
        grid = ["".join("#" if rng.random() < 0.15 else "."
                        for _ in range(w)) for _ in range(h)]
        cells = [(x, y) for y in range(h) for x in range(w)
                 if grid[y][x] == "."]
        ngoals = rng.randint(1, 3)
        if len(cells) >= max(2, ngoals):
            break
    shared = ["u%d" % i for i in range(4)] if rng.random() < 0.5 else None
    objects = []
    for i, (cell, goal) in enumerate(zip(rng.sample(cells, ngoals),
                                         ["J1a", "b2", "b3", "e"])):
        n = rng.randint(1, 3)
        feats = (rng.sample(shared, n) if shared
                 else ["f%d_%d" % (i, j) for j in range(n)])
        objects.append({"id": "o%d" % i, "cell": list(cell),
                        "features": feats, "goal": goal})
    start = rng.choice(cells)
    sc = load_scenario({
        "name": "random", "grid": grid, "start": list(start),
        "horizon": rng.randint(1, 3), "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": objects})
    moving = [c for c in cells if c != start and sc.neighbors(c)]
    position = rng.choice(moving) if moving else start
    goals = sorted(sc.objects)
    images = {g: frozenset(rng.sample(sc.objects[g].features, 1))
              for g in goals if rng.random() < 0.7}
    images[goals[0]] = frozenset(sc.objects[goals[0]].features[:1])
    return sc, goals, position, images



# the earlier search over (vertex, objective) states --------------------
#
# _search as it was before it searched the movement game once per plan and
# attached the reveals at a play's two ends: one breadth-first search over
# the product states (vertex, objective so far), repeating the movement
# walk once per first reveal, run here on the earlier compound game.

def old_search(game):
    """The play of a compound game with a maximal joined payoff, as a list
    of its vertices with the objective so far at each of them, the number
    of states explored and the number of plays ending with each objective
    size.

    A play's objective is the join of its vertex payoffs.  Plays whose
    objective has the largest support win; in a powerset such an objective
    is maximal, since no other set strictly contains it.  Ties fall to
    shorter plays, then to lexical move order: the repr order of the
    vertices (tests pin it on two-digit coordinates and ticks).

    No play is listed: the search asks the game once for the moves of
    each vertex it reaches, sorted by repr, and for their payoffs.

    A breadth-first search runs over states (vertex, objective so far),
    one layer per play length: a vertex fixes its depth, so every prefix
    reaching a state has the same length, and the state keeps the number
    of prefixes reaching it and the lexically smallest one, whose every
    extension is the smallest among theirs.  Each layer is kept in the
    lexical order of those prefixes, so the first play found with the
    largest objective is the winner, and each play count is a sum of
    state counts.
    """
    root = (game.root, game.payoff(game.root))
    count = {root: 1}
    parent = {root: None}
    succ = {}
    support = {}                # objective size -> plays ending with it
    best_size, best = -1, None
    layer = [root]
    depth = 0
    while layer:
        pol = "O" if depth % 2 == 0 else "P"
        nxt = []
        for s in layer:
            v, mask = s
            out = succ.get(v)
            if out is None:
                out = succ[v] = [(w, game.payoff(w))
                                 for w in sorted(game.moves(v, pol), key=repr)]
            if not out:
                size = mask.bit_count()
                support[size] = support.get(size, 0) + count[s]
                if size > best_size:
                    best_size, best = size, s
                continue
            c = count[s]
            for w, k in out:
                u = (w, mask | k)
                if u in count:
                    count[u] += c
                else:
                    count[u] = c
                    parent[u] = s
                    nxt.append(u)
        layer = nxt
        depth += 1

    play = []
    s = best
    while s is not None:
        play.append(s[0])
        s = parent[s]
    play.reverse()
    return (play, list(accumulate(map(game.payoff, play), or_)), len(count),
            support)


def edge_scenario(grid, start, horizon, objects):
    """A scenario on grid with one object per (cell, features) pair, given
    the goals J1a, b2, b3 and e in turn."""
    return load_scenario({
        "name": "edge", "grid": grid, "start": list(start),
        "horizon": horizon, "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": [
            {"id": "o%d" % i, "cell": list(cell), "features": feats,
             "goal": goal}
            for i, ((cell, feats), goal) in enumerate(zip(
                objects, ["J1a", "b2", "b3", "e"]))]})


def search_edge_cases():
    """{label: (scenario, images)} for the shapes where a premise of the
    play grammar or of the search is degenerate, each planned with every
    goal from the start."""
    square = ["...", "...", "..."]
    return {
        # no goal can reveal, so the root is the only play
        "no features": (edge_scenario(
            square, (1, 1), 1, [((0, 0), []), ((2, 2), [])]), {}),
        "a featureless goal": (edge_scenario(
            square, (1, 1), 2, [((0, 0), []), ((2, 2), ["f1", "f2"])]),
            {}),
        # P has no move after the first reveal
        "horizon 0": (edge_scenario(
            square, (1, 1), 0, [((0, 0), ["f1", "f2"]), ((1, 1), ["g1"])]),
            {"o1": frozenset(["g1"])}),
        "walled in": (edge_scenario(
            [".#..", "##.."], (0, 0), 2,
            [((0, 0), ["f1"]), ((2, 0), ["g1", "g2"])]), {}),
        # no goal is revealed twice
        "one feature each": (edge_scenario(
            ["....", "...."], (0, 0), 2,
            [((3, 0), ["f1"]), ((1, 1), ["g1"]), ((3, 1), ["h1"])]), {}),
        "one goal of one feature": (edge_scenario(
            ["...."], (0, 0), 2, [((3, 0), ["f1"])]), {}),
        # meet is the goal's own revealed prefix, never 0 past the root
        "a single goal": (edge_scenario(
            ["......"], (2, 0), 3, [((5, 0), ["f1", "f2", "f3"])]),
            {"o0": frozenset(["f1"])}),
        # goals share features, so several reveals meet above 0
        "shared universe": (edge_scenario(
            ["....", "....", "...."], (1, 1), 2,
            [((3, 0), ["u0", "u1"]), ((0, 2), ["u1", "u0", "u2"]),
             ((3, 2), ["u0", "u2"])]),
            {"o1": frozenset(["u0"]), "o2": frozenset(["u0"])}),
    }


def open_grid_scenario(horizon, goals):
    """An open 25x25 grid, start in the middle, with goals objects of two
    distinct features each at fixed offsets from it."""
    return edge_scenario(["." * 25] * 25, (12, 12), horizon, [
        ((12 + dx, 12 + dy), ["s%d_0" % i, "s%d_1" % i])
        for i, (dx, dy) in enumerate([(-3, -2), (3, -2), (-3, 2),
                                      (3, 2)][:goals])])


def assert_searches_agree(*args):
    """The search of the CompoundGame of args picks the earlier search's
    play and objectives on the earlier compound game, and counts the same
    states and plays by size."""
    got = _search(CompoundGame(*args))
    assert got == old_search(OldCompoundGame(*args))
    return got


class RecordedGame(CompoundGame):
    """A CompoundGame that keeps the arguments it was built from."""

    def __init__(self, *args):
        super().__init__(*args)
        self.args = args


def test_search_matches_the_earlier_search_on_whole_runs(monkeypatch):
    # every step's compound game of the 600 seeded whole runs; a cognition
    # step stops its search at the bound, which keeps the full search's
    # play and objective
    stops = []

    def checked(game, stop=False):
        stops.append(stop)
        full = assert_searches_agree(*game.args)
        if not stop:
            return full
        got = _search(game, stop=True)
        assert got[:3] == (*full[:2], None)
        return got
    monkeypatch.setattr(planner, "CompoundGame", RecordedGame)
    monkeypatch.setattr(planner, "_search", checked)
    for seed in range(10000, 10300):
        sc = random_case(random.Random(seed))[0]
        for mode in ("practical", "strict"):
            run_cognition(sc, max_steps=60, mode=mode)
    assert stops == [True] * 556


def open61_scenario(horizon, dx, dy):
    """The open 61x61 grid of CI's planner scale smoke run, start in the
    middle, with four goals of two features each at (+-dx, +-dy) from it."""
    return edge_scenario(["." * 61] * 61, (30, 30), horizon, [
        ((30 + sx * dx, 30 + sy * dy), ["s%d_0" % i, "s%d_1" % i])
        for i, (sx, sy) in enumerate([(-1, -1), (1, -1), (-1, 1), (1, 1)])])


@pytest.mark.parametrize("horizon,dx,dy,mode,early", [
    (h, 12, 8, mode, True) for h in (20, 30)
    for mode in ("practical", "strict")] + [
    (30, 25, 20, "practical", False), (30, 25, 20, "strict", True)])
def test_stopped_search_keeps_the_full_search_play_on_open_grids(
        horizon, dx, dy, mode, early):
    # with the images a run holds at its start; near objects let a play
    # reach the bound, so the search stops before counting every play, and
    # far ones, in practical mode, do not, so it searches every layer
    sc = open61_scenario(horizon, dx, dy)
    game = CompoundGame(sc, sorted(sc.objects), mode=mode,
                        images=visible_rewards(sc, sc.start))
    play, objective, _, support = _search(game)
    got = _search(game, stop=True)
    assert got[:3] == (play, objective, None)
    assert (got[3] != support) == early


def test_search_matches_the_earlier_search_on_seeded_grids():
    # past one digit in ticks and coordinates, and the benchmark's shapes
    # with four goals from one shared universe
    cases = [wide_plan_case(random.Random(1919 + i)) for i in range(16)]
    rng = random.Random(2020)
    cases += [planner_shape_case(rng) for _ in range(10)]
    for sc, goals, position, images in cases:
        for mode in ("practical", "strict"):
            for at in (None, position):
                for seen in (None, images):
                    assert_searches_agree(sc, goals, at, mode, seen)


@pytest.mark.parametrize("horizon", [10, 12])
def test_search_matches_the_earlier_search_on_open_grids(horizon):
    for goals in range(1, 5):
        sc = open_grid_scenario(horizon, goals)
        for mode in ("practical", "strict"):
            assert_searches_agree(sc, sorted(sc.objects), None, mode)


@pytest.mark.parametrize("label", sorted(search_edge_cases()))
def test_search_matches_the_earlier_search_on_edge_cases(label):
    sc, images = search_edge_cases()[label]
    goals = sorted(sc.objects)
    for mode in ("practical", "strict"):
        for seen in (None, images):
            play, _, states, support = assert_searches_agree(
                sc, goals, None, mode, seen)
    if label == "no features":
        assert (len(play), states, sum(support.values())) == (1, 1, 1)
    if label in ("a single goal", "shared universe"):
        # with the images, a first reveal meets above 0
        game = CompoundGame(sc, goals, images=images)
        assert any(game.meet(y) for y in game.reveals(0))

# the walked movement game ----------------------------------------------
#
# The system's movement game as CompoundGame listed it before it read the
# cell frontiers: walked from the position with walk, and each cell's side
# payoff joined from visible_rewards.  The cells of its distance pass are
# the walk's cells in the order it first reaches them, and a cell's
# neighbours are its successors at an even tick below the last.

class _Movement:
    """The system's movement game from pos: Opponent steps to a neighbour
    at even ticks and Proponent ticks at odd ones, for radius rounds."""

    def __init__(self, sc, pos, radius):
        self.sc = sc
        self.root = (pos, 0)
        self._last_tick = 2 * radius

    def moves(self, v, pol):
        cell, t = v
        if t >= self._last_tick or t % 2 != (pol == "P"):
            return []
        if pol == "O":
            return [(n, t + 1) for n in self.sc.neighbors(cell)]
        return [(cell, t + 1)]


def old_movement_listing(sc, pos):
    """(cells, cnext) from the walk of _Movement from pos: its cells, in
    the order it first reaches them, and the ranks of each cell's
    successors at an even tick below the last, for each cell that has
    one."""
    walked, edges = walk(_Movement(sc, pos, sc.horizon))
    cells = list(dict.fromkeys(cell for cell, _ in walked))
    rank = {c: i for i, c in enumerate(cells)}
    steps = {}
    for (cell, t), (n, _), _ in edges:
        if t % 2 == 0:
            steps.setdefault((cell, t), []).append(rank[n])
    rows = {}
    for cell, t in walked:
        if t % 2 == 0 and t < 2 * sc.horizon:
            rows.setdefault(cell, steps.get((cell, t), []))
    return cells, [rows[c] for c in cells if c in rows]


def old_sides(sc, goals, cells, mode, images):
    """Each cell's side payoff, from the visible rewards of the goals at
    it joined with their images."""
    lat = sc.payoff_lattice
    images = images or {}
    seen = lat.mask(f for g in goals for f in images.get(g, ()))
    out = []
    for cell in cells:
        vis = visible_rewards(sc, cell)
        mask = seen | lat.mask(f for g in goals for f in vis[g])
        out.append(lat.complement(mask) if mode == "strict" else mask)
    return out


def assert_lists_the_walk(sc, goals, images):
    """From every passable cell, CompoundGame lists the movement game's
    cells as its walk did, in both modes, with and without the images;
    returns the largest coordinate listed."""
    top = 0
    for pos in sorted(sc.passable):
        cells, cnext = old_movement_listing(sc, pos)
        for mode in ("practical", "strict"):
            for seen in (None, images):
                game = CompoundGame(sc, goals, pos, mode, seen)
                assert (game.cells, game.cnext) == (cells, cnext), pos
                assert game.side == old_sides(sc, goals, cells, mode, seen)
        top = max([top] + [max(cell) for cell in cells])
    return top


def planner_round_scenarios(seed, monkeypatch):
    """The scenarios of one seeded round of the benchmark's planner
    workload, loaded from perfbench/workloads.py."""
    monkeypatch.setitem(sys.modules, "gen", _load_gen())
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    jobs = module.PlannerWorkload(None, None).rounds(
        random.Random(seed), None, 1)[0]
    return [load_scenario(job.args) for job in jobs]


@pytest.mark.parametrize("seed", [5, 7])
def test_movement_listing_matches_the_walk_in_the_benchmark_shapes(
        seed, monkeypatch):
    top = 0
    for sc in planner_round_scenarios(seed, monkeypatch):
        goals = sorted(sc.objects)
        images = {g: frozenset(sc.objects[g].features[:1]) for g in goals}
        top = max(top, assert_lists_the_walk(sc, goals, images))
    # two-digit coordinates, where repr order is not int order
    assert top >= 10


def listing_edge_cases():
    """{label: (scenario, images)}: the search's edge shapes (horizon 0 and
    a walled-in start among them), a one-row corridor, a grid wider than 10
    columns and an open grid at h=6, whose coordinates and ticks pass 9, a
    1x4 strip at h=2000, and walled pockets smaller than the horizon, where
    the distance pass ends at its first empty frontier."""
    cases = search_edge_cases()
    cases["strip h=2000"] = (edge_scenario(
        ["...."], (0, 0), 2000, [((3, 0), ["f1", "f2"])]), {})
    cases["pockets"] = (edge_scenario(
        ["..#...", ".##...", "###..."], (0, 0), 7,
        [((1, 0), ["f1", "f2"]), ((4, 1), ["g1"])]),
        {"o1": frozenset(["g1"])})
    cases["corridor"] = (edge_scenario(
        ["." * 14], (6, 0), 5, [((1, 0), ["f1", "f2"]), ((12, 0), ["g1"])]),
        {"o0": frozenset(["f1"])})
    cases["wide"] = (edge_scenario(
        ["............", "..#....#..#.", "....#......."], (9, 1), 3,
        [((11, 0), ["f1", "f2", "f3"]), ((0, 2), ["g1", "g2"])]),
        {"o1": frozenset(["g1"])})
    cases["open h=6"] = (edge_scenario(
        ["." * 11] * 11, (5, 5), 6,
        [((0, 0), ["f1", "f2"]), ((10, 7), ["g1", "g2", "g3"])]),
        {"o0": frozenset(["f2"])})
    return cases


@pytest.mark.parametrize("label", sorted(listing_edge_cases()))
def test_movement_listing_matches_the_walk_on_edge_cases(label):
    sc, images = listing_edge_cases()[label]
    assert_lists_the_walk(sc, sorted(sc.objects), images)


# the earlier compound game ---------------------------------------------
#
# CompoundGame as it was before it was held as ranked tables: moves
# composed from the movement game and the per-goal chain Games, each payoff
# read off the nested vertex; less its argument checks, and
# build_compound_game over it.

class OldCompoundGame:
    def __init__(self, sc, goals, position=None, mode="practical",
                 images=None):
        pos = tuple(sc.start if position is None else position)
        _check_mode(mode)
        images = images or {}
        objs = _goal_objects(sc, goals)
        self.sc = sc
        self.lattice = lat = sc.payoff_lattice
        self._ids = list(goals)
        image = [lat.mask(images.get(g, ())) for g in goals]
        self._prefix = [[lat.mask(o.features[:j]) | im
                         for j in range(len(o.features) + 1)]
                        for o, im in zip(objs, image)]
        self._images = lat.mask(f for g in goals for f in images.get(g, ()))
        self._negate = mode == "strict"
        self._side = {}
        self._meet = {}
        chains = [Game([(o.id, j) for j in range(len(o.features) + 1)],
                       (o.id, 0), [((o.id, j), (o.id, j + 1), "O")
                                   for j in range(len(o.features))])
                  for o in objs]
        game = implication(_Movement(sc, pos, sc.horizon),
                           functools.reduce(Tensor, chains))
        self.root = game.root
        self.moves = game.moves

    def payoff(self, v):
        (cell, _), b = v
        lat = self.lattice
        side = self._side.get(cell)
        if side is None:
            vis = visible_rewards(self.sc, cell)
            side = self._images | lat.mask(
                f for oid in self._ids for f in vis[oid])
            if self._negate:
                side = lat.complement(side)
            self._side[cell] = side
        meet = self._meet.get(b)
        if meet is None:
            meet, rest = lat.complement(0), b
            for prefix in reversed(self._prefix[1:]):
                rest, (_, j) = rest
                meet &= prefix[j]
            meet &= self._prefix[0][rest[1]]
            self._meet[b] = meet
        return side | meet


def old_build_compound_game(sc, goals, position=None, mode="practical",
                            images=None):
    game = OldCompoundGame(sc, goals, position=position, mode=mode,
                           images=images)
    listed = materialize(game)
    lat = sc.payoff_lattice
    k = {v: lat.name(game.payoff(v)) for v in listed.vertices}
    return PayoffGame(listed, lat, k)


def one_goal_scenario(features, start):
    """Two cells at horizon 1, with one goal obj_x on the second."""
    return load_scenario({
        "name": "inline", "grid": [".."], "start": list(start),
        "horizon": 1, "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": [
            {"id": "obj_x", "cell": [1, 0], "features": features,
             "goal": "e"}]})


@pytest.mark.parametrize("features,start", [(["f1"], (0, 0)),
                                            (["f1", "f2"], (0, 0)),
                                            (["f1"], (1, 0))])
def test_copycat_on_listed_compound_game_matches_old_copycat(
        features, start):
    # copycat on the listing build_compound_game names is the earlier
    # copycat on the earlier compound game
    sc = one_goal_scenario(features, start)
    listed = copycat(build_compound_game(sc, ["obj_x"]).game).plays
    assert len(listed) > 1
    assert listed == old_copycat(OldCompoundGame(sc, ["obj_x"]))


# the earlier goal-set selection ----------------------------------------
#
# select_goal_sets as it was before maximality was decided over the distinct
# priorities: every candidate tested against every other one.

def old_select_goal_sets(sc, discovered, must_include=None, max_size=None):
    lat = sc.lattice
    ids = sorted(discovered)
    attractiveness = {o.id: o.attractiveness for o in _goal_objects(sc, ids)}
    log = []
    candidates = []
    for size in range(1, len(ids) + 1):
        if max_size is not None and size > max_size:
            break
        for combo in combinations(ids, size):
            if must_include is not None and must_include not in combo:
                continue
            pr = eval_priority(sc, combo)
            att = sum(attractiveness[i] for i in combo)
            candidates.append(GoalProcessSet(combo, pr, att))
            log.append("candidate {%s}: priority %s"
                       % (",".join(combo), pr))

    if not candidates:
        return Selection([], [], False, log + ["no candidates"])

    prios = {c.priority for c in candidates}
    indistinguishable = len(prios) == 1 and len(candidates) > 1
    if indistinguishable:
        log.append("all priorities equal (%s): indistinguishable"
                   % next(iter(prios)))
    maximal = [c for c in candidates
               if not any(c.priority != d.priority
                          and lat.leq(c.priority, d.priority)
                          for d in candidates)]
    log.append("maximal priority sets: %d of %d"
               % (len(maximal), len(candidates)))
    best_size = max(len(c.goals) for c in maximal)
    sized = [c for c in maximal if len(c.goals) == best_size]
    if len(sized) < len(maximal):
        log.append("tie-break on goal count: kept %d of size %d"
                   % (len(sized), best_size))
    sized.sort(key=lambda c: (-c.attractiveness, c.goals))
    if len(sized) > 1:
        log.append("order by attractiveness then name: %s first"
                   % ",".join(sized[0].goals))
    return Selection(sized, candidates, indistinguishable, log)


# the earlier saturation check -----------------------------------------
#
# A cognition step's saturation test as it was before it read the step's
# compound game: the features of the active goals visible from any cell of
# the movement ball, against the join of their images.

def old_saturated(sc, pos, active, images):
    potential = frozenset()
    for cell in {cell for cell, _ in walk(_Movement(sc, pos, sc.horizon))[0]}:
        vis = visible_rewards(sc, cell)
        for i in active:
            potential = potential | vis[i]
    joined = frozenset()
    for i in active:
        joined = joined | images[i]
    return potential <= joined


def saturation_case(rng):
    """A seeded grid of 1 to 5 rows and columns, dense enough in obstacles
    to wall some cells in, at horizon 0 to 3, with one to four goals of
    one to three features from distinct or shared names."""
    while True:
        w, h = rng.randint(1, 5), rng.randint(1, 5)
        grid = ["".join("#" if rng.random() < 0.35 else "."
                        for _ in range(w)) for _ in range(h)]
        cells = [(x, y) for y in range(h) for x in range(w)
                 if grid[y][x] == "."]
        if cells:
            break
    shared = ["u%d" % i for i in range(4)] if rng.random() < 0.5 else None
    objects = [{"id": "o%d" % i, "cell": list(rng.choice(cells)),
                "features": (rng.sample(shared, n) if shared else
                             ["f%d_%d" % (i, j) for j in range(n)]),
                "goal": goal}
               for i, goal in enumerate(rng.sample(["J1a", "b2", "b3", "e"],
                                                   rng.randint(1, 4)))
               for n in [rng.randint(1, 3)]]
    return load_scenario({
        "name": "saturation", "grid": grid, "start": list(cells[0]),
        "horizon": rng.randint(0, 3), "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": objects})


def test_saturation_matches_the_earlier_ball_check():
    # images always hold what pos shows, as they do in run_cognition after
    # each reveal, joined with a seeded part of each object's features
    rng = random.Random(2323)
    seen = Counter()
    for _ in range(60):
        sc = saturation_case(rng)
        ids = sorted(sc.objects)
        for pos in sorted(sc.passable):
            vis = visible_rewards(sc, pos)
            for size in range(1, len(ids) + 1):
                active = rng.sample(ids, size)
                for mode in ("practical", "strict"):
                    images = {i: vis[i] | frozenset(
                        f for f in sc.objects[i].features
                        if rng.random() < 0.6) for i in ids}
                    want = old_saturated(sc, pos, active, images)
                    side = CompoundGame(sc, active, pos, mode, images).side
                    assert (min(side) == max(side)) == want, \
                        (sc.rows, pos, active)
                    seen[want, not sc.neighbors(pos)] += 1
    assert min(seen[k] for k in [(True, False), (False, False),
                                 (True, True)]) >= 50, seen


def test_shrinks_match_the_earlier_max_size_selection():
    # a shrink ranks the proper subsets of the active set among its step's
    # candidates; the earlier loop priced them again, selecting with the
    # step's anchor up to one goal fewer
    rng = random.Random(2424)
    shrinks = Counter()
    for _ in range(1000):
        sc = saturation_case(rng)
        for mode in ("practical", "strict"):
            trace = run_cognition(sc, mode=mode, seed=rng.randrange(100))
            selections = {}
            for sel in trace.selections:
                selections.setdefault(sel["step"], []).append(sel)
            for event in trace.shrink_events:
                # a step's shrinks follow its selections in turn
                sel = selections[event["step"]].pop(0)
                assert sel["sets"][0]["goals"] == event["from"]
                old = old_select_goal_sets(sc, event["from"], sel["anchor"],
                                           max_size=len(event["from"]) - 1)
                assert event["to"] == list(old[0].goals)
                shrinks[sel["pool"] == event["from"]] += 1
    # a shrink from part of the pool must skip the pool's other subsets
    assert min(shrinks[True], shrinks[False]) >= 300, shrinks


# the earlier frozenset subset oracle -----------------------------------
#
# SubsetPhase and oracle_report as they were before subsets became masks:
# every subset a frozenset of names, every dual a scan of the carrier.
# dual and tensor are pure, so each instance memoizes them; that keeps the
# n<=4 census and the 64-fact Z/6 pole within Tier-1 time (about 24 s
# unmemoized for Z/6 alone) and changes no result.

class OldSubsetPhase:
    def __init__(self, elements, mult, unit, pole):
        self.elements = list(elements)
        self.unit = unit
        self.mult = dict(mult)
        self.pole = frozenset(pole)
        self.dual = functools.cache(self.dual)
        self.tensor = functools.cache(self.tensor)

    def subsets(self):
        out = []
        for bits in range(1 << len(self.elements)):
            out.append(frozenset(
                e for i, e in enumerate(self.elements) if bits >> i & 1))
        return out

    def prod(self, xs, ys):
        return frozenset(self.mult[(x, y)] for x in xs for y in ys)

    def dual(self, xs):
        return frozenset(
            z for z in self.elements
            if all(self.mult[(x, z)] in self.pole for x in xs))

    def is_fact(self, xs):
        return self.dual(self.dual(xs)) == frozenset(xs)

    def facts(self):
        return [s for s in self.subsets() if self.is_fact(s)]

    def tensor(self, xs, ys):
        return self.dual(self.dual(self.prod(xs, ys)))

    def par(self, xs, ys):
        return self.dual(self.prod(self.dual(xs), self.dual(ys)))

    def impl(self, xs, ys):
        return self.dual(self.prod(xs, self.dual(ys)))

    def one(self):
        return self.dual(self.dual(frozenset([self.unit])))


def old_oracle_report(elements, mult, unit, pole):
    """The earlier report on valid input; the input checks did not change
    and stay with the new SubsetPhase."""
    sp = OldSubsetPhase(elements, mult, unit, pole)
    subs = sp.subsets()
    laws = []

    def law(name, witnesses, checked):
        laws.append({"law": name, "status": "fail" if witnesses else "pass",
                     "checked": checked, "skipped": 0,
                     "witnesses": [repr(w) for w in witnesses[:5]]})

    w = [s for s in subs if sp.dual(sp.dual(sp.dual(s))) != sp.dual(s)]
    law("triple_dual", w, len(subs))

    w = [s for s in subs if not s <= sp.dual(sp.dual(s))]
    law("double_dual_extensive", w, len(subs))

    w = [s for s in subs if not sp.prod(s, sp.dual(s)) <= sp.pole]
    law("contradiction_in_pole", w, len(subs))

    w = []
    for s in subs:
        for t in subs:
            if s <= t and not sp.dual(t) <= sp.dual(s):
                w.append((s, t))
    law("dual_antitone", w, len(subs) ** 2)

    w = []
    for s in subs:
        for t in subs:
            if sp.dual(s | t) != sp.dual(s) & sp.dual(t):
                w.append((s, t))
    law("dual_of_union_is_intersection", w, len(subs) ** 2)

    facts = sp.facts()
    w = [(s, t) for s in facts for t in facts if s & t not in facts]
    law("facts_meet_closed", w, len(facts) ** 2)

    w = []
    for s in subs:
        for t in facts:
            direct = frozenset(z for z in sp.elements
                               if sp.prod(s, frozenset([z])) <= t)
            if sp.impl(s, t) != direct:
                w.append((s, t))
    law("implication_is_residual", w, len(subs) * len(facts))

    w = []
    for s in facts:
        for t in facts:
            if sp.tensor(s, t) != sp.tensor(t, s):
                w.append((s, t))
            if sp.dual(sp.tensor(s, t)) != sp.par(sp.dual(s), sp.dual(t)):
                w.append((s, t))
    law("tensor_par_duality", w, len(facts) ** 2)

    w = []
    for s in facts:
        for t in facts:
            for u in facts:
                if sp.tensor(sp.tensor(s, t), u) != \
                        sp.tensor(s, sp.tensor(t, u)):
                    w.append((s, t, u))
    law("tensor_associative_on_facts", w, len(facts) ** 3)

    one = sp.one()
    w = [s for s in facts if sp.tensor(one, s) != s]
    law("one_neutral_on_facts", w, len(facts))

    w = [] if sp.is_fact(sp.dual(frozenset([sp.unit]))) else [sp.pole]
    law("pole_is_fact", w, 1)

    return {"ok": all(e["status"] != "fail" for e in laws),
            "laws": laws,
            "subsets": len(subs),
            "facts": len(facts)}


def oracle_inputs():
    """Every pole of every n<=4 census monoid, 30 seeded monoids of each
    of sizes 5 and 6 drawn as the benchmark draws them, and Z/6 with the
    pole {1..5}, under which all 64 subsets are facts."""
    for n in (1, 2, 3, 4):
        for els, mult, unit in all_commutative_monoids(n):
            for r in range(n + 1):
                for pole in combinations(els, r):
                    yield els, mult, unit, frozenset(pole)
    gen = _load_gen()
    rng = random.Random(1204)
    for m in (5, 6):
        for _ in range(30):
            yield gen.random_monoid(rng, m)[:4]
    els, mult, unit = cyclic_monoid(6)
    yield els, mult, unit, frozenset(els[1:])


def test_oracle_reports_match_the_earlier_oracle():
    facts = []
    for els, mult, unit, pole in oracle_inputs():
        want = old_oracle_report(els, mult, unit, pole)
        assert oracle_report(els, mult, unit, pole) == want, (mult, pole)
        assert want["ok"]
        facts.append(want["facts"])
    assert len(facts) == 1586 + 60 + 1
    assert facts[-1] == 64


# the earlier expression grammar ----------------------------------------

# tokenize, parse and eval_node as they were before one operator table
# held the grammar: two token tables, a precedence list, a recursive-descent
# parser with a special case for right-associative implication and one for
# the postfix dual, and an if-chain of meanings.

_OLD_SYMBOLS = {
    "(": "lparen",
    ")": "rparen",
    "^": "dual",
    "&": "with",
    "+": "plus",
    "⊗": "tensor",  # ⊗
    "⅋": "par",  # ⅋
    "⊸": "impl",  # ⊸
}

_OLD_WORDS = {"x": "tensor", "par": "par"}

_OLD_TOO_DEEP = "expression nested too deeply"

# the left-associative binary operators, loosest binding first
_OLD_LEFT_ASSOC = ("plus", "with", "par", "tensor")


def _old_ident_char(ch):
    return ch.isalnum() or ch == "_"


def old_tokenize(text):
    """Split an expression into (kind, lexeme) pairs."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OLD_SYMBOLS:
            tokens.append((_OLD_SYMBOLS[ch], ch))
            i += 1
            continue
        if ch == "-":
            if i + 1 < n and text[i + 1] == "o":
                tokens.append(("impl", "-o"))
                i += 2
                continue
            raise ExprSyntaxError("stray '-' at position %d (did you mean '-o'?)" % i)
        if _old_ident_char(ch):
            j = i
            while j < n and _old_ident_char(text[j]):
                j += 1
            word = text[i:j]
            tokens.append((_OLD_WORDS.get(word, "ident"), word))
            i = j
            continue
        raise ExprSyntaxError("unexpected character %r at position %d" % (ch, i))
    return tokens


class _OldParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            raise ExprSyntaxError("expected %s, got %s" % (kind, self._describe()))
        return self.take()

    def _describe(self):
        if self.pos < len(self.tokens):
            return "%r" % self.tokens[self.pos][1]
        return "end of input"

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise ExprSyntaxError("trailing input at %s" % self._describe())
        return node

    def expr(self):
        left = self.binary(0)
        if self.peek() == "impl":
            self.take()
            right = self.expr()
            return ("impl", left, right)
        return left

    def binary(self, level):
        """A left-associative chain of the operator _OLD_LEFT_ASSOC[level] over
        operands of the next tighter level, or of unary past the last."""
        op = _OLD_LEFT_ASSOC[level]
        tighter = level + 1 < len(_OLD_LEFT_ASSOC)
        node = self.binary(level + 1) if tighter else self.unary()
        while self.peek() == op:
            self.take()
            right = self.binary(level + 1) if tighter else self.unary()
            node = (op, node, right)
        return node

    def unary(self):
        node = self.primary()
        while self.peek() == "dual":
            self.take()
            node = ("dual", node)
        return node

    def primary(self):
        kind = self.peek()
        if kind == "lparen":
            self.take()
            node = self.expr()
            self.expect("rparen")
            return node
        if kind == "ident":
            return ("atom", self.take()[1])
        raise ExprSyntaxError("expected an element or '(', got %s" % self._describe())


def old_parse(text):
    """Parse an expression into a nested tuple tree."""
    tokens = old_tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression")
    try:
        return _OldParser(tokens).parse()
    except RecursionError:
        raise ExprSyntaxError(_OLD_TOO_DEEP) from None


def old_eval_node(ps, node):
    op = node[0]
    if op == "atom":
        name = node[1]
        if name not in ps.lattice.elements:
            raise ForeignElement("unknown element %r in expression" % name)
        return name
    if op == "dual":
        return ps.dual(old_eval_node(ps, node[1]))
    left = old_eval_node(ps, node[1])
    right = old_eval_node(ps, node[2])
    if op == "tensor":
        return ps.mult(left, right)
    if op == "par":
        return ps.par(left, right)
    if op == "with":
        return ps.lattice.meet2(left, right)
    if op == "plus":
        return ps.lattice.join2(left, right)
    if op == "impl":
        return ps.impl(left, right)
    raise ExprSyntaxError("unknown node %r" % (op,))


# atoms: goal_phase elements, a foreign name, the reserved words, a
# non-ASCII letter and words that only start like an operator
EXPR_ATOMS = ["a", "b1", "b2", "b3", "e", "J1a", "J23", "J12", "1", "0",
              "zork", "x", "par", "\u00e9", "parx", "x1", "_"]
EXPR_INFIX = ["-o", "\u22b8", "+", "&", "par", "\u214b", "x", "\u2297"]
EXPR_NOISE = ["^", "(", ")", "-", "?", " ", "\t", "\u00a0"]


def random_expression(rng, depth):
    """Pieces of a well-formed expression, in random spellings."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        pieces = [rng.choice(EXPR_ATOMS)]
    elif roll < 0.45:
        pieces = ["("] + random_expression(rng, depth - 1) + [")"]
    else:
        pieces = (random_expression(rng, depth - 1) + [rng.choice(EXPR_INFIX)]
                  + random_expression(rng, depth - 1))
    return pieces + ["^"] * (rng.random() < 0.2)


def random_expression_text(rng):
    """A well-formed expression, one with a piece swapped, dropped or
    added, or a soup of pieces; pieces join with or without a space."""
    pieces = random_expression(rng, rng.randint(0, 4))
    every = EXPR_ATOMS + EXPR_INFIX + EXPR_NOISE
    roll = rng.random()
    if roll < 0.3:
        pieces[rng.randrange(len(pieces))] = rng.choice(every)
    elif roll < 0.4:
        del pieces[rng.randrange(len(pieces))]
    elif roll < 0.5:
        pieces.insert(rng.randint(0, len(pieces)), rng.choice(every))
    elif roll < 0.65:
        pieces = [rng.choice(every) for _ in range(rng.randint(0, 8))]
    return "".join(p + rng.choice(["", " "]) for p in pieces)


def expr_outcome(fn, *args):
    """("ok", fn's result), or the class and message of the domain error
    it raised."""
    try:
        return "ok", fn(*args)
    except PhasegameError as exc:
        return type(exc).__name__, str(exc)


def test_expressions_match_the_earlier_grammar(goal_phase):
    rng = random.Random(1717)
    seen = Counter()
    for _ in range(20000):
        text = random_expression_text(rng)
        assert expr_outcome(tokenize, text) == expr_outcome(
            old_tokenize, text), text
        tree = expr_outcome(old_parse, text)
        assert expr_outcome(parse, text) == tree, text
        want = tree if tree[0] != "ok" else expr_outcome(
            old_eval_node, goal_phase, tree[1])
        assert expr_outcome(eval_expr, goal_phase, text) == want, text
        seen[want[0]] += 1
    assert set(seen) == {"ok", "ExprSyntaxError", "ForeignElement"}
    assert min(seen.values()) > 2000, seen
