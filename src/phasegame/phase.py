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
from collections import namedtuple
from functools import reduce
from itertools import compress, islice
from operator import itemgetter, ne

from .data import (fields, load_doc, parse_doc, product_rows, read_bytes,
                   resolve_path, total_rows)
from .errors import (
    DualLawViolation,
    ForeignElement,
    NotAssociative,
    NotClosed,
    NotClosedClass,
    OverrideInconsistent,
    UnitNotNeutral,
)
from .lattice import lattice_from_doc

# up to this many elements an index fits in a byte, so a product row read
# as bytes is gathered by bytes.translate, whose table has 256 entries
_BYTE_ROWS = 256
# the bytes 0 and 1 as the digits "0" and "1", so a row of selectors
# becomes a string of binary digits for int(..., 2)
_DIGIT_OF_BYTE = bytes.maketrans(b"\x00\x01", b"01")


class PhaseStructure:
    """Immutable bundle of lattice, product, unit, falsum and dual table.

    The product and the duals are held once, as element indices: rows[i][j]
    indexes e_i.e_j and dual[i] the dual of e_i.  Element names appear only
    in the arguments and results of the methods.
    """

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
        # law -> the first witnesses its load found (none when it passed or
        # was proved), which the audit lists without a scan; phase_from_rows
        # fills it, and a structure built by hand has decided no law
        self._verdicts = {}

    def mult(self, x, y):
        idx = self.lattice.idx
        return self.lattice.elements[self._rows[idx(x)][idx(y)]]

    def dual(self, x):
        return self.lattice.elements[self._dual[self.lattice.idx(x)]]

    def facts(self):
        dual = self._dual
        return [x for i, x in enumerate(self.lattice.elements)
                if dual[dual[i]] == i]

    # connectives, each defined once on indices ------------------------

    def _par(self, i, j):
        return self._dual[self._rows[self._dual[i]][self._dual[j]]]

    def _impl(self, i, j):
        return self._dual[self._rows[i][self._dual[j]]]

    def par(self, x, y):
        return self.lattice.elements[self._par(*map(self.lattice.idx, (x, y)))]

    def impl(self, x, y):
        """Implication as the dual of x times dual y; y is looked up first."""
        j, i = map(self.lattice.idx, (y, x))
        return self.lattice.elements[self._impl(i, j)]

    def lin_implies(self, x, y):
        """Largest z with mult(x, z) <= y, if that join is itself a witness.

        Raises NotClosed when the join of all witnesses fails the bound, in
        which case the residual does not exist in this structure.
        """
        lat = self.lattice
        star, closed = lat.residual(self._rows[lat.idx(x)], lat.idx(y))
        if not closed:
            raise NotClosed(
                "lin_implies(%r, %r): join %r of witnesses is not a witness"
                % (x, y, lat.elements[star]))
        return lat.elements[star]


def named_elements(lattice, f):
    """(unit index, falsum index, dual_overrides as a dict) of checked
    phase fields f, once the unit, the falsum and both sides of every
    override pair name elements: the first foreign name, in document
    order, raises ForeignElement."""
    unit, falsum, pairs = f["unit"], f["falsum"], f["dual_overrides"]
    for el in [unit, falsum] + [el for pair in pairs for el in pair]:
        if el not in lattice:
            raise ForeignElement(repr(el))
    return lattice.idx(unit), lattice.idx(falsum), dict(pairs)


def _derive_duals(lattice, rows, falsum, overrides):
    """(dual, galois).  dual holds the index duals: an override where the
    name-keyed overrides give one, else the residual of falsum (an index)
    by each element.  galois says whether, for every x, the z with
    x.z <= falsum are exactly the z <= dual(x): each row's witness mask
    towards falsum, gathered once as Lattice.residual gathers it, is the
    down-set of its dual.  Up to _BYTE_ROWS elements a mask is the row in
    bytes translated to binary digits, "1" where the product is at or
    below falsum, and read reversed by int(..., 2), so that bit z is the
    digit of row[z]."""
    els, down, star_of = lattice.elements, lattice._down, lattice._star
    n = len(els)
    if n <= _BYTE_ROWS:
        digits = lattice._below[falsum].translate(_DIGIT_OF_BYTE) + \
            b"0" * (_BYTE_ROWS - n)
        masks = [int(bytes(row).translate(digits)[::-1], 2) for row in rows]
    else:
        bits, below = lattice._bits, lattice._below[falsum].__getitem__
        masks = [sum(compress(bits, map(below, row))) for row in rows]
    dual, galois = [], True
    for x, mask in zip(els, masks):
        if x in overrides:
            star = lattice.idx(overrides[x])
        else:
            star, closed = star_of(mask)
            if not closed:
                raise NotClosed(
                    "dual of %r is not expressible: join %r of witnesses "
                    "fails mult(%r, %r) <= %r; add a dual override"
                    % (x, els[star], x, els[star], els[falsum]))
        dual.append(star)
        galois = galois and mask == down[star]
    return tuple(dual), galois


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
# With at most _BYTE_ROWS (256) elements every index fits in a byte, so
# the test builds each row x.(a.y) as row a in bytes translated through
# row x, and the duals' witness masks are each row in bytes translated to
# binary digits: bytes.translate takes a 256-byte table, so past 256
# elements both gather through itemgetter and compress instead.
# One rule decides the laws: every load decides the seven laws before the
# residual law, whatever its gates, and the audit folds only the residual
# law.  The load scans the three product laws, and proves the four dual
# laws where its duals form a Galois connection (each row's witness mask
# towards falsum is the down-set of its dual) on commuting rows, else
# scans them; it keeps each law's first witnesses (up to _MAX_WITNESSES)
# on the structure, and the audit lists them without a scan.  On
# associative rows the same premises prove the residual law at load, and
# the audit folds each row's stars (Lattice.stars) only where they do
# not.  A structure built by hand decides nothing at load, so its audit
# scans every law.

_MAX_WITNESSES = 5

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
    """A generating set of the magma rows, or None.

    The set is the elements that are no product y.z with y and z other
    than the unit and the element itself.  It is None when their closure
    under x -> x.a, for each of them a, misses an element.  Every element
    reached is a left-nested product of generators, so a closure that
    covers the carrier proves that they generate it, whatever the product.
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
    gens = [x for x in range(n) if x not in made]
    seen, reached = bytearray(n), list(gens)
    for x in gens:
        seen[x] = 1
    for x in reached:           # reached grows while it is read
        row = rows[x]
        for v in map(row.__getitem__, gens):
            if not seen[v]:
                seen[v] = 1
                reached.append(v)
    return gens if len(reached) == n else None


def _light(rows, gens):
    """Light's test: (x.a).y == x.(a.y) for every a in gens and every x, y.
    For each a, the rows x.(a.y) over y are built in one C call each and
    compared with the rows of x.a: up to _BYTE_ROWS elements as row a in
    bytes translated through row x, padded to a 256-byte table, else as
    row x taken at the entries of row a."""
    n = len(rows)
    if n <= _BYTE_ROWS:
        brows = list(map(bytes, rows))
        pad = bytes(_BYTE_ROWS - n)
        tables = [row + pad for row in brows]
        for a in gens:
            if list(map(brows[a].translate, tables)) != \
                    list(map(brows.__getitem__, map(itemgetter(a), rows))):
                return False
        return True
    for a in gens:
        if list(map(itemgetter(*rows[a]), rows)) != \
                list(map(rows.__getitem__, map(itemgetter(a), rows))):
            return False
    return True


def _associative(els, rows, unit):
    # Light's test decides the verdict; the per-instance scan runs from the
    # start only when it fails or does not apply (two elements or fewer,
    # or no generating set found by _generators); with at most n
    # generators, it reads no more rows than the scan's row pass
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
        meet_dx = lattice._meet_row(dual[x])
        if list(map(get, join_x)) != list(map(meet_dx.__getitem__, dual)):
            for y in range(len(els)):
                if dual[join_x[y]] != meet_dx[dual[y]]:
                    yield els[x], els[y]


def _laws(lattice, rows, unit, falsum, dual=None, verdicts=()):
    """Yield (name, witnesses, instances) for each law, in a fixed order.

    rows, unit, falsum and dual are element indices; witnesses are names.
    witnesses lazily yields the failing instances, so a caller that stops
    at the first pays only for the scan up to it.  Without a dual table only
    the product laws are listed.  A law that verdicts maps to its recorded
    witnesses yields them, with no scan.
    """
    els = lattice.elements
    n = len(els)
    span = range(n)
    laws = [
        ("commutative", lambda: _commutative(els, rows), n * n),
        ("associative", lambda: _associative(els, rows, unit), n ** 3),
        ("unit_identity",
         lambda: (els[x] for x in span if rows[unit][x] != x), n),
    ]
    if dual is not None:
        up = lattice._up
        laws += [
            ("triple_dual",
             lambda: (els[x] for x in span if dual[dual[dual[x]]] != dual[x]),
             n),
            ("double_dual_extensive",
             lambda: (els[x] for x in span if not up[x] >> dual[dual[x]] & 1),
             n),
            ("contradiction_below_falsum",
             lambda: (els[x] for x in span
                      if not up[rows[x][dual[x]]] >> falsum & 1), n),
            ("dual_of_join_is_meet_of_duals",
             lambda: _dual_of_join(lattice, dual), n * n),
        ]
    for name, scan, instances in laws:
        yield name, iter(verdicts[name]) if name in verdicts else scan(), \
            instances
    if dual is None:
        return
    if _RESIDUAL_LAW in verdicts:
        # only a load's proof decides it, and then every pair has its
        # residual
        yield _RESIDUAL_LAW, iter(verdicts[_RESIDUAL_LAW]), n * n
        return
    # only pairs whose residual towards dual(y) exists are instances, so
    # this law is scanned in full, pair by pair, before it is listed
    checked, witnesses = 0, []
    for x, row in enumerate(rows):
        stars = lattice.stars(row)
        for y, t in enumerate(dual):
            star = stars[t]
            if up[row[star]] >> t & 1:
                checked += 1
                want = dual[row[y]]
                if star != want:
                    witnesses.append((els[x], els[y], els[star], els[want]))
    yield (_RESIDUAL_LAW, iter(witnesses), checked)


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
    overrides duals, else DualLawViolation).  validate=False raises none
    of these, so a broken table can still be loaded and audited with
    verify_laws.  validate, checks and unit_mode choose only what raises:
    every load decides the commutative, associative and unit laws and the
    four dual laws, proving the dual laws, and the residual law on
    associative rows, when the rows commute and, for every x, the z with
    x.z <= falsum are exactly the z <= dual(x), and scanning the dual
    laws otherwise (see phase_from_rows).  Each law's verdict, with its
    first witnesses, is kept on the structure, and verify_laws lists it
    without a scan.

    A reference with no lattice given is built once per content: while the
    bytes of its file, and of its lattice file if the lattice field is a
    reference, are those a structure was built from under the same
    validate, that structure is returned again.
    """
    key = None
    if lattice is None and isinstance(doc, str):
        path = resolve_path(doc, base_dir)
        key = (os.path.abspath(path), validate)
        raw = read_bytes(path)
        if key in _LOADED:
            was, lattice_path, lattice_raw, ps = _LOADED[key]
            if was == raw and (lattice_path is None
                               or read_bytes(lattice_path) == lattice_raw):
                return ps
        doc, base_dir = parse_doc(raw, path), os.path.dirname(key[0])
    else:
        doc, base_dir = load_doc(doc, base_dir)
    f = fields(doc, "phase", given=() if lattice is None else ("lattice",))
    lattice_path = lattice_raw = None
    if lattice is None:
        lattice = f["lattice"]
        if isinstance(lattice, str):
            lattice_path = resolve_path(lattice, base_dir)
            lattice_raw = read_bytes(lattice_path)
            lattice = parse_doc(lattice_raw, lattice_path)
        lattice = lattice_from_doc(lattice)
    ps = phase_from_rows(lattice, product_rows(lattice.elements, f["mult"]),
                         f, validate)
    if key is not None:
        _LOADED[key] = (raw, lattice_path, lattice_raw, ps)
    return ps


def phase_from_rows(lattice, rows, f, validate=True):
    """The PhaseStructure of lattice, index product rows and checked phase
    fields f, once named_elements finds every name of f an element,
    through data.total_rows (the table must be total) and the gates that
    phase_from_doc describes, which choose only what raises."""
    unit_i, falsum_i, overrides = named_elements(lattice, f)
    rows = tuple(map(tuple, total_rows(lattice.elements, rows)))
    unit_mode, checks = f["unit_mode"], f["checks"]

    gates = {}
    if validate:
        if checks == "full":
            gates["associative"] = NotAssociative
            gates.update(dict.fromkeys(_DUAL_LAWS, OverrideInconsistent
                                       if overrides else DualLawViolation))
        if unit_mode == "strict":
            gates["unit_identity"] = UnitNotNeutral
    verdicts = {}

    def decide(laws):
        # keep each law's first witnesses; the first failing law a gate
        # names raises at its first witness
        for name, witnesses, _ in laws:
            found = verdicts[name] = tuple(islice(witnesses, _MAX_WITNESSES))
            if found and name in gates:
                raise gates[name]("%s fails at %r" % (name, found[0]))

    decide(_laws(lattice, rows, unit_i, falsum_i))
    dual, galois = _derive_duals(lattice, rows, falsum_i, overrides)
    if galois and not verdicts["commutative"]:
        # Write x^ for dual(x).  galois says z <= x^ iff x.z <= falsum;
        # as the rows commute (the commutative law), that is iff
        # z.x <= falsum iff x <= z^.  So duality towards falsum is an
        # antitone Galois connection, and the dual laws are theorems:
        # - z = x^ gives x <= x^^ (double_dual_extensive) and
        #   x.x^ <= falsum (contradiction_below_falsum);
        # - x <= y <= y^^ gives y^ <= x^, so x <= x^^ gives x^^^ <= x^,
        #   and x^ <= x^^^ is the first law at x^ (triple_dual);
        # - z <= (x v y)^ iff x v y <= z^ iff x <= z^ and y <= z^ iff
        #   z <= x^ /\ y^ (dual_of_join_is_meet_of_duals).
        # With associativity decided, z <= x -o y^ iff y.(x.z) <= falsum
        # iff (x.y).z <= falsum iff z <= (x.y)^, so every pair has its
        # residual and passes the residual law.  No gate that could raise
        # is skipped
        verdicts.update(dict.fromkeys(_DUAL_LAWS, ()))
        if not verdicts["associative"]:
            verdicts[_RESIDUAL_LAW] = ()
    else:
        # entries 3 to 6 are the four dual laws, after the product laws
        # already decided; the residual law's fold after them is never
        # reached
        decide(islice(_laws(lattice, rows, unit_i, falsum_i, dual, verdicts),
                      3, 7))

    ps = PhaseStructure(lattice, rows, f["unit"], f["falsum"], dual,
                        unit_mode, f["op_class"], f["cl_class"])
    ps._verdicts = verdicts
    return ps


load_phase = phase_from_doc


# law audit ------------------------------------------------------------


def verify_laws(ps):
    """Audit every law on a structure, returning a report dictionary.

    Unlike load-time validation this never raises: hand-built or corrupted
    structures produce a report with failing entries and witnesses instead.
    Pairs with no residual are skipped by the residual law, not failed.
    A law the structure's load decided (see phase_from_doc) is listed with
    its instance count and the witnesses the load found, and not scanned
    again; only the laws no load decided are scanned here.
    """
    lat = ps.lattice
    n = len(lat.elements)
    laws = []
    for name, witnesses, instances in _laws(lat, ps._rows, lat.idx(ps.unit),
                                            lat.idx(ps.falsum), ps._dual,
                                            ps._verdicts):
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


FactClassification = namedtuple(
    "FactClassification", "facts open_class closed_class neutral")


def classify(ps):
    """Split the facts into the open and closed classes and sanity-check them.

    Open facts sit below the neutral element dual(falsum); closed facts sit
    above falsum.  The two classes must be swapped by duality, the open class
    must be closed under join and fact-closed tensor, and the closed class
    under meet and par.  Declared classes on the structure, when present,
    must agree with the derived ones.
    """
    lat = ps.lattice
    els, up, dual, rows = lat.elements, lat._up, ps._dual, ps._rows
    falsum = lat.idx(ps.falsum)
    neutral = dual[falsum]
    facts = [i for i, d in enumerate(dual) if dual[d] == i]
    op = [i for i in facts if up[i] >> neutral & 1]
    cl = [i for i in facts if up[falsum] >> i & 1]
    named = [list(map(els.__getitem__, c)) for c in (facts, op, cl)]

    for name, declared, derived in (("open", ps.op_class, named[1]),
                                    ("closed", ps.cl_class, named[2])):
        if declared is not None and sorted(declared) != sorted(derived):
            raise NotClosedClass("declared %s class %r differs from derived %r"
                                 % (name, list(declared), derived))

    if sorted(map(dual.__getitem__, op)) != sorted(cl):
        raise NotClosedClass("duality does not swap the open and closed classes")

    join, meet_row = lat._join, lat._meet_row
    for name, members, closures in (
            ("open", op, [("join", lambda i, j: join[i][j]),
                          ("tensor", lambda i, j: dual[dual[rows[i][j]]])]),
            ("closed", cl, [("meet", lambda i, j: meet_row(i)[j]),
                            ("par", ps._par)])):
        member = set(members)
        for x in members:
            for y in members:
                for closure, combine in closures:
                    if combine(x, y) not in member:
                        raise NotClosedClass(
                            "%s class not %s-closed at (%r, %r)"
                            % (name, closure, els[x], els[y]))

    if reduce(lambda a, i: join[a][i], op, lat._bot) != neutral:
        raise NotClosedClass("largest open fact is not the neutral element")
    if reduce(lambda a, i: meet_row(a)[i], cl, lat.idx(lat.top)) != falsum:
        raise NotClosedClass("least closed fact is not falsum")

    return FactClassification(*named, els[neutral])