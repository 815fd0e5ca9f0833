"""Phase structures: a commutative multiplication on a lattice plus duality.

A phase structure carries a finite bounded lattice (residuals are joins of
finitely many witnesses, checked to be witnesses themselves, so neither
completeness nor distributivity is assumed), a commutative monoid-like
product on it, a falsum element used to define duals, and the derived
multiplicative connectives (par and implication, beside the product itself)
together with the fact/open/closed classification.  The additives are the
lattice's own meet and join.

Duals come either from explicit overrides in the source document or from the
residuation dual(X) = lin_implies(X, falsum) when that join is closed.
"""

import os
from itertools import compress, islice
from operator import itemgetter, ne

from .data import (fields, load_doc, parse_doc, read_bytes, resolve_path,
                   symmetrize)
from .errors import (
    DualLawViolation,
    ForeignElement,
    NotAssociative,
    NotClosed,
    NotClosedClass,
    NotCommutative,
    OverrideInconsistent,
    UnitNotNeutral,
)
from .lattice import lattice_from_doc


class PhaseStructure:
    """Immutable bundle of lattice, product, unit, falsum and dual table.

    The product and the duals are held once, as element indices: rows[i][j]
    indexes e_i.e_j and dual[i] the dual of e_i.  Element names appear only
    in the arguments and results of the methods.
    """

    # set by a load whose associativity gate passed, so the audit reuses it
    _proved_associative = False

    def __init__(self, lattice, rows, unit, falsum, dual, unit_mode="weak",
                 op_class=None, cl_class=None):
        """rows and dual are the index tables; unit and falsum are names."""
        self.lattice = lattice
        self._rows = rows
        self._dual = dual
        self.unit = unit
        self.falsum = falsum
        self.unit_mode = unit_mode
        self.op_class = tuple(op_class) if op_class is not None else None
        self.cl_class = tuple(cl_class) if cl_class is not None else None

    def mult(self, x, y):
        idx = self.lattice.idx
        return self.lattice.elements[self._rows[idx(x)][idx(y)]]

    def dual(self, x):
        return self.lattice.elements[self._dual[self.lattice.idx(x)]]

    def is_fact(self, x):
        i = self.lattice.idx(x)
        return self._dual[self._dual[i]] == i

    def facts(self):
        dual = self._dual
        return [x for i, x in enumerate(self.lattice.elements)
                if dual[dual[i]] == i]

    # connectives -----------------------------------------------------

    def par(self, x, y):
        return self.dual(self.mult(self.dual(x), self.dual(y)))

    def impl(self, x, y):
        """Implication as the dual of x times dual y."""
        return self.dual(self.mult(x, self.dual(y)))

    def lin_implies(self, x, y):
        """Largest z with mult(x, z) <= y, if that join is itself a witness.

        Raises NotClosed when the join of all witnesses fails the bound, in
        which case the residual does not exist in this structure.
        """
        lat = self.lattice
        [(star, closed)] = lat.residual(self._rows[lat.idx(x)], [lat.idx(y)])
        if not closed:
            raise NotClosed(
                "lin_implies(%r, %r): join %r of witnesses is not a witness"
                % (x, y, lat.elements[star]))
        return lat.elements[star]


def _product_rows(lattice, mult):
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


def _derive_duals(lattice, rows, falsum, overrides):
    """Index duals: an override where the name-keyed overrides give one,
    else the residual of falsum (an index) by each element."""
    els = lattice.elements
    dual = []
    for x, row in zip(els, rows):
        if x in overrides:
            if overrides[x] not in lattice:
                raise ForeignElement(repr(overrides[x]))
            dual.append(lattice.idx(overrides[x]))
            continue
        [(star, closed)] = lattice.residual(row, [falsum])
        if not closed:
            raise NotClosed(
                "dual of %r is not expressible: join %r of witnesses fails "
                "mult(%r, %r) <= %r; add a dual override"
                % (x, els[star], x, els[star], els[falsum]))
        dual.append(star)
    return tuple(dual)


# laws -----------------------------------------------------------------
#
# Every law reads the index tables.  A law over pairs or triples first
# compares whole rows, each built in one C call, and scans single instances
# only in the rows that differ, so its witnesses come out in the order a
# scan of every instance would give them.  Associativity is decided first
# by Light's test (Clifford and Preston, The Algebraic Theory of
# Semigroups, vol. 1, 1961, section 1.2): if a set A generates the magma,
# the product is associative iff (x.a).y == x.(a.y) for every a in A and
# every x, y, which is n.|A| row comparisons instead of n^2.  Only when the
# test fails, or does not apply, are the rows scanned for witnesses.

_RESIDUAL_LAW = "residual_matches_dual_product"
_DUAL_LAWS = ("triple_dual", "double_dual_extensive",
              "contradiction_below_falsum", "dual_of_join_is_meet_of_duals")


def _commutative(els, rows):
    for x, (row, col) in enumerate(zip(rows, zip(*rows))):
        if row != col:
            for y in range(len(els)):
                if row[y] != col[y]:
                    yield els[x], els[y]


def _generators(rows, unit):
    """A generating set of the magma rows, or None when it would hold more
    than half the carrier.

    It starts from the elements that are no product y.z with y and z other
    than the unit and the element itself, and closes them under x -> x.a
    for each generator a, each pair (x, a) taken once; an element the
    closure misses becomes a generator too.  Every element reached is a
    left-nested product of generators, so a closure that covers the carrier
    proves that they generate it, whatever the product.
    """
    n = len(rows)
    others = [z for z in range(n) if z != unit]
    pick = itemgetter(*others)
    made = set()
    for y, row in enumerate(rows):
        if y != unit:
            vals = pick(row)
            got = set(compress(vals, map(ne, vals, others)))
            got.discard(y)
            made |= got
    gens, reached, seen = [], [], bytearray(n)

    def reach(vals):
        for v in vals:
            if not seen[v]:
                seen[v] = 1
                reached.append(v)

    new = [x for x in range(n) if x not in made]
    done = 0                    # reached[:done] are multiplied by all gens
    misses = iter(range(n))
    while 2 * (len(gens) + len(new)) <= n:
        reach(new)
        for x in reached[:done]:
            reach([rows[x][a] for a in new])
        gens += new
        while done < len(reached):
            row = rows[reached[done]]
            reach([row[a] for a in gens])
            done += 1
        if done == n:
            return gens
        new = [next(x for x in misses if not seen[x])]
    return None


def _light(rows, gens):
    """Light's test: (x.a).y == x.(a.y) for every a in gens and every x, y.
    For each a, the rows x.(a.y) over y are built in one C call each and
    compared with the rows of x.a."""
    for a in gens:
        if list(map(itemgetter(*rows[a]), rows)) != \
                list(map(rows.__getitem__, map(itemgetter(a), rows))):
            return False
    return True


def _associative(els, rows, unit):
    # Light's test decides the verdict; the per-instance scan runs from the
    # start only when it fails or does not apply (two elements or fewer,
    # or generators making up most of the carrier)
    if len(rows) > 2:
        gens = _generators(rows, unit)
        if gens is not None and _light(rows, gens):
            return
    yield from _scan_associative(els, rows)


def _scan_associative(els, rows):
    # (xy)z == x(yz) for every z: the row of xy against row_x taken at the
    # entries of row_y (with one element, the getter returns a bare index,
    # so the single instance is scanned)
    getters = [itemgetter(*row_y) for row_y in rows]
    for x, row_x in enumerate(rows):
        for y, xy in enumerate(row_x):
            row_y, row_xy = rows[y], rows[xy]
            if getters[y](row_x) != row_xy:
                for z in range(len(els)):
                    if row_xy[z] != row_x[row_y[z]]:
                        yield els[x], els[y], els[z]


def _dual_of_join(lattice, dual):
    # dual(x \/ y) == dual(x) /\ dual(y) for every y
    els = lattice.elements
    get = dual.__getitem__
    for x, join_x in enumerate(lattice._join):
        meet_dx = lattice._meet[dual[x]]
        if list(map(get, join_x)) != list(map(meet_dx.__getitem__, dual)):
            for y in range(len(els)):
                if dual[join_x[y]] != meet_dx[dual[y]]:
                    yield els[x], els[y]


def _laws(lattice, rows, unit, falsum, dual=None, associative=False):
    """Yield (name, witnesses, instances) for each law, in a fixed order.

    rows, unit, falsum and dual are element indices; witnesses are names.
    witnesses lazily yields the failing instances, so a caller that stops
    at the first pays only for the scan up to it.  Without a dual table only
    the product laws are listed.  associative=True lists associativity
    with no witness and no scan.
    """
    els = lattice.elements
    n = len(els)
    span = range(n)
    yield ("commutative", _commutative(els, rows), n * n)
    yield ("associative",
           iter(()) if associative else _associative(els, rows, unit), n ** 3)
    yield ("unit_identity",
           (els[x] for x in span if rows[unit][x] != x), n)
    if dual is None:
        return
    up = lattice._up
    yield ("triple_dual",
           (els[x] for x in span if dual[dual[dual[x]]] != dual[x]), n)
    yield ("double_dual_extensive",
           (els[x] for x in span if not up[x] >> dual[dual[x]] & 1), n)
    yield ("contradiction_below_falsum",
           (els[x] for x in span if not up[rows[x][dual[x]]] >> falsum & 1),
           n)
    yield ("dual_of_join_is_meet_of_duals", _dual_of_join(lattice, dual),
           n * n)
    # only pairs whose residual towards dual(y) exists are instances, so
    # this law is scanned in full before it is listed
    checked, witnesses = 0, []
    for x, row in enumerate(rows):
        for y, (star, closed) in enumerate(lattice.residual(row, dual)):
            if closed:
                checked += 1
                want = dual[row[y]]
                if star != want:
                    witnesses.append((els[x], els[y], els[star], els[want]))
    yield (_RESIDUAL_LAW, iter(witnesses), checked)


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


# phase files built so far: (absolute path, validate) -> (the file's bytes,
# the path and bytes of its lattice file or two Nones, the PhaseStructure)
_LOADED = {}


def phase_from_doc(doc, lattice=None, base_dir=None, validate=True):
    """Build a PhaseStructure from a document, or from a reference to one
    resolved against base_dir.  Its lattice field is an inline document or
    a reference resolved against the phase document's directory.

    validate=True raises on the first witness of each enforced law, in
    order: associative (NotAssociative) under checks 'full'; unit_identity
    (UnitNotNeutral) under unit_mode 'strict'; then, once duals are derived
    and under checks 'full', the dual laws triple_dual,
    double_dual_extensive, contradiction_below_falsum and
    dual_of_join_is_meet_of_duals (OverrideInconsistent if the document
    overrides duals, else DualLawViolation).  validate=False skips these
    gates so a broken table can still be loaded and audited with
    verify_laws.

    A reference with no lattice given is built once per content: while the
    bytes of its file, and of its lattice file if the lattice field is a
    reference, are those a structure was built from under the same
    validate, that structure is returned again.
    """
    if lattice is not None or not isinstance(doc, str):
        doc, base_dir = load_doc(doc, base_dir)
        return _phase_of(doc, lattice, base_dir, validate)[0]
    path = resolve_path(doc, base_dir)
    key = (os.path.abspath(path), validate)
    raw = read_bytes(path)
    if key in _LOADED:
        was, lattice_path, lattice_raw, ps = _LOADED[key]
        if was == raw and (lattice_path is None
                           or read_bytes(lattice_path) == lattice_raw):
            return ps
    ps, lattice_path, lattice_raw = _phase_of(
        parse_doc(raw, path), None, os.path.dirname(key[0]), validate)
    _LOADED[key] = (raw, lattice_path, lattice_raw, ps)
    return ps


def _phase_of(doc, lattice, base_dir, validate):
    """(structure, lattice path, lattice bytes) of a phase document; the
    last two are None unless its lattice is read here from a file."""
    f = fields(doc, "phase", given=() if lattice is None else ("lattice",))
    lattice_path = lattice_raw = None
    if lattice is None:
        lattice = f["lattice"]
        if isinstance(lattice, str):
            lattice_path = resolve_path(lattice, base_dir)
            lattice_raw = read_bytes(lattice_path)
            lattice = parse_doc(lattice_raw, lattice_path)
        lattice = lattice_from_doc(lattice)
    rows = _product_rows(lattice, symmetrize(lattice._index, f["mult"]))
    return (phase_from_rows(lattice, rows, f, validate), lattice_path,
            lattice_raw)


def phase_from_rows(lattice, rows, f, validate=True):
    """The PhaseStructure of lattice, index product rows (tuples) and checked
    phase fields f, through the gates that phase_from_doc describes."""
    unit, falsum = f["unit"], f["falsum"]
    for el in (unit, falsum):
        if el not in lattice:
            raise ForeignElement(repr(el))
    unit_mode, checks = f["unit_mode"], f["checks"]
    unit_i, falsum_i = lattice.idx(unit), lattice.idx(falsum)

    if validate:
        product_gates = {}
        if checks == "full":
            product_gates["associative"] = NotAssociative
        if unit_mode == "strict":
            product_gates["unit_identity"] = UnitNotNeutral
        _enforce(_laws(lattice, rows, unit_i, falsum_i), product_gates)

    overrides = dict(f["dual_overrides"])
    dual = _derive_duals(lattice, rows, falsum_i, overrides)
    if validate and checks == "full":
        err = OverrideInconsistent if overrides else DualLawViolation
        _enforce(_laws(lattice, rows, unit_i, falsum_i, dual),
                 dict.fromkeys(_DUAL_LAWS, err))

    ps = PhaseStructure(lattice, rows, unit, falsum, dual, unit_mode,
                        f["op_class"], f["cl_class"])
    ps._proved_associative = validate and checks == "full"
    return ps


def load_phase(path, lattice=None, validate=True):
    return phase_from_doc(path, lattice=lattice, validate=validate)


# law audit ------------------------------------------------------------

_MAX_WITNESSES = 5


def verify_laws(ps):
    """Audit every law on a structure, returning a report dictionary.

    Unlike load-time validation this never raises: hand-built or corrupted
    structures produce a report with failing entries and witnesses instead.
    Pairs with no residual are skipped by the residual law, not failed.
    """
    lat = ps.lattice
    n = len(lat.elements)
    laws = []
    for name, witnesses, instances in _laws(lat, ps._rows, lat.idx(ps.unit),
                                            lat.idx(ps.falsum), ps._dual,
                                            ps._proved_associative):
        if name == "unit_identity" and ps.unit_mode != "strict":
            laws.append({"law": name, "status": "skipped", "checked": 0,
                         "skipped": instances, "witnesses": []})
            continue
        found = list(islice(witnesses, _MAX_WITNESSES))
        skipped = n * n - instances if name == _RESIDUAL_LAW else 0
        laws.append({"law": name, "status": "fail" if found else "pass",
                     "checked": instances, "skipped": skipped,
                     "witnesses": found})
    return {"ok": all(e["status"] != "fail" for e in laws), "laws": laws}


class FactClassification:
    def __init__(self, facts, open_class, closed_class, neutral):
        self.facts = facts
        self.open_class = open_class
        self.closed_class = closed_class
        self.neutral = neutral


def classify(ps):
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

    if ps.op_class is not None and sorted(ps.op_class) != sorted(op):
        raise NotClosedClass("declared open class %r differs from derived %r"
                             % (list(ps.op_class), op))
    if ps.cl_class is not None and sorted(ps.cl_class) != sorted(cl):
        raise NotClosedClass("declared closed class %r differs from derived %r"
                             % (list(ps.cl_class), cl))

    if sorted(ps.dual(x) for x in op) != sorted(cl):
        raise NotClosedClass("duality does not swap the open and closed classes")
    for x in op:
        for y in op:
            j = lat.join2(x, y)
            if j not in op:
                raise NotClosedClass("open class not join-closed at (%r, %r)" % (x, y))
            if ps.dual(ps.dual(ps.mult(x, y))) not in op:
                raise NotClosedClass("open class not tensor-closed at (%r, %r)" % (x, y))
    for x in cl:
        for y in cl:
            m = lat.meet2(x, y)
            if m not in cl:
                raise NotClosedClass("closed class not meet-closed at (%r, %r)" % (x, y))
            p = ps.par(x, y)
            if p not in cl:
                raise NotClosedClass("closed class not par-closed at (%r, %r)" % (x, y))

    if lat.join(op) != neutral:
        raise NotClosedClass("largest open fact is not the neutral element")
    if lat.meet(cl) != ps.falsum:
        raise NotClosedClass("least closed fact is not falsum")

    return FactClassification(facts, op, cl, neutral)
