"""Brute-force subset-of-monoid semantics, used as an independent oracle.

Here the constructions are carried out literally: propositions are subsets
of a commutative monoid, the dual of X is every z whose products with X all
land in the pole, and facts are the subsets fixed by double dual.  A subset
of the m elements is an int below 2**m, bit i standing for elements[i].
Each element x contributes two masks, built from the product table: the
image x.Y of every subset Y, and the z with x.z in the pole.  The product
of X and Y is the union over x in X of x.Y, and the dual of X is folded
over its members, D[X] = D[X without its lowest x] & (the z with x.z in the
pole), with D[empty] the whole carrier: the definition itself, applied to
every subset once.  Every law is then checked on every subset it speaks
of, so this module cross-checks the laws the abstract engine takes as
axioms.  Sizes are capped hard because everything below is exponential in
the monoid.
"""

from functools import lru_cache
from itertools import product

from .data import distinct, fields, product_rows, total_rows
from .errors import (
    ForeignElement,
    NotAssociative,
    NotCommutative,
    SizeExceeded,
    UnitNotNeutral,
)

MAX_MONOID = 6


def _associativity_failures(elements, mult):
    """Every (x, y, z) with (x.y).z != x.(y.z), lazily, in element order."""
    return ((x, y, z) for x in elements for y in elements
            for xy in [mult[(x, y)]] for z in elements
            if mult[(xy, z)] != mult[(x, mult[(y, z)])])


def _members(xs):
    """The bit positions of a mask, lowest first."""
    while xs:
        low = xs & -xs
        yield low.bit_length() - 1
        xs ^= low


class SubsetPhase:
    """All subsets of a small commutative monoid, with a chosen pole.

    Subsets are int masks, bit i for elements[i]; mask and names convert
    between masks and sets of element names.  dual[X] is the dual of X.
    """

    def __init__(self, elements, mult, unit, pole):
        if len(elements) > MAX_MONOID:
            raise SizeExceeded("monoid has %d elements, cap is %d"
                               % (len(elements), MAX_MONOID))
        self.elements = distinct(elements, "the element list")
        self.unit = unit
        self.mult = dict(mult)
        for x in elements:
            for y in elements:
                if self.mult.get((x, y)) not in elements:
                    raise ForeignElement("product out of carrier")
                if self.mult[(x, y)] != self.mult[(y, x)]:
                    raise NotCommutative("at (%r, %r)" % (x, y))
        for x, y, z in _associativity_failures(elements, self.mult):
            raise NotAssociative("at (%r, %r, %r)" % (x, y, z))
        if unit not in self.elements:
            raise ForeignElement("unit %r is not in the carrier" % (unit,))
        for x in elements:
            if self.mult.get((unit, x)) != x:
                raise UnitNotNeutral("unit is not neutral at %r" % (x,))
        if not frozenset(pole) <= frozenset(elements):
            raise ForeignElement("pole is not a subset of the carrier")

        self._bit = {e: 1 << i for i, e in enumerate(self.elements)}
        self.pole = self.mask(pole)
        size = 1 << len(self.elements)
        # times[i][Y] is the mask of elements[i].Y, folded over Y's members
        self.times = []
        for x in self.elements:
            row = [0] * size
            for ys in range(1, size):
                low = ys & -ys
                y = self.elements[low.bit_length() - 1]
                row[ys] = row[ys ^ low] | self._bit[self.mult[(x, y)]]
            self.times.append(row)
        # into_pole[i] is the mask of the z with elements[i].z in the pole
        into_pole = [sum(1 << j for j, z in enumerate(self.elements)
                         if self.pole & self._bit[self.mult[(x, z)]])
                     for x in self.elements]
        dual = self.dual = [size - 1] * size
        for xs in range(1, size):
            low = xs & -xs
            dual[xs] = dual[xs ^ low] & into_pole[low.bit_length() - 1]

    def mask(self, names):
        return sum(self._bit[e] for e in frozenset(names))

    def names(self, xs):
        return frozenset(self.elements[i] for i in _members(xs))

    def subsets(self):
        return range(len(self.dual))

    def prod(self, xs, ys):
        out = 0
        for i in _members(xs):
            out |= self.times[i][ys]
        return out

    def is_fact(self, xs):
        return self.dual[self.dual[xs]] == xs

    def facts(self):
        dual = self.dual
        return [xs for xs in self.subsets() if dual[dual[xs]] == xs]

    def tensor(self, xs, ys):
        return self.dual[self.dual[self.prod(xs, ys)]]

    def par(self, xs, ys):
        return self.dual[self.prod(self.dual[xs], self.dual[ys])]

    def impl(self, xs, ys):
        return self.dual[self.prod(xs, self.dual[ys])]

    def one(self):
        return self.dual[self.dual[self._bit[self.unit]]]


def monoid_from_doc(doc):
    """Elements, symmetric product table and unit of a monoid document;
    data.product_rows raises ForeignElement for a name outside the elements
    and NotCommutative for two rows that disagree on a pair, and
    data.total_rows NotCommutative for a pair that no row fixes."""
    f = fields(doc, "monoid")
    els = f["elements"]
    rows = total_rows(els, product_rows(els, f["mult"]))
    return els, {(x, y): els[v] for x, row in zip(els, rows)
                 for y, v in zip(els, row)}, f["unit"]


def oracle_report(elements, mult, unit, pole):
    """Check every subset-level law, returning the same report shape as
    phase.verify_laws.  All of these are theorems, so any failing entry
    indicates a bug in the construction, not in the input."""
    sp = SubsetPhase(elements, mult, unit, pole)
    dual, prod = sp.dual, sp.prod
    # the tensor of each pair of subsets, computed once when first asked
    tensor = lru_cache(maxsize=None)(sp.tensor)
    subs = sp.subsets()
    laws = []

    def law(name, witnesses, checked):
        shown = [tuple(map(sp.names, w)) if isinstance(w, tuple)
                 else sp.names(w) for w in witnesses[:5]]
        laws.append({"law": name, "status": "fail" if witnesses else "pass",
                     "checked": checked, "skipped": 0,
                     "witnesses": [repr(w) for w in shown]})

    w = [s for s in subs if dual[dual[dual[s]]] != dual[s]]
    law("triple_dual", w, len(subs))

    w = [s for s in subs if s & ~dual[dual[s]]]
    law("double_dual_extensive", w, len(subs))

    w = [s for s in subs if prod(s, dual[s]) & ~sp.pole]
    law("contradiction_in_pole", w, len(subs))

    w = [(s, t) for s in subs for t in subs
         if not s & ~t and dual[t] & ~dual[s]]
    law("dual_antitone", w, len(subs) ** 2)

    w = [(s, t) for s in subs for t in subs
         if dual[s | t] != dual[s] & dual[t]]
    law("dual_of_union_is_intersection", w, len(subs) ** 2)

    facts = sp.facts()
    w = [(s, t) for s in facts for t in facts if not sp.is_fact(s & t)]
    law("facts_meet_closed", w, len(facts) ** 2)

    w = []
    singletons = [1 << i for i in range(len(sp.elements))]
    for s in subs:
        images = [(z, prod(s, z)) for z in singletons]
        for t in facts:
            direct = sum(z for z, image in images if not image & ~t)
            if sp.impl(s, t) != direct:
                w.append((s, t))
    law("implication_is_residual", w, len(subs) * len(facts))

    w = []
    for s in facts:
        for t in facts:
            if tensor(s, t) != tensor(t, s):
                w.append((s, t))
            if dual[tensor(s, t)] != sp.par(dual[s], dual[t]):
                w.append((s, t))
    law("tensor_par_duality", w, len(facts) ** 2)

    w = []
    for s in facts:
        for t in facts:
            st = tensor(s, t)
            w += [(s, t, u) for u in facts
                  if tensor(st, u) != tensor(s, tensor(t, u))]
    law("tensor_associative_on_facts", w, len(facts) ** 3)

    one = sp.one()
    w = [s for s in facts if tensor(one, s) != s]
    law("one_neutral_on_facts", w, len(facts))

    w = [] if sp.is_fact(dual[sp.mask([sp.unit])]) else [sp.pole]
    law("pole_is_fact", w, 1)

    return {"ok": all(e["status"] != "fail" for e in laws),
            "laws": laws,
            "subsets": len(subs),
            "facts": len(facts)}


def cyclic_monoid(n):
    """The additive group of integers mod n, written multiplicatively."""
    elements = [str(i) for i in range(n)]
    mult = {(str(i), str(j)): str((i + j) % n)
            for i in range(n) for j in range(n)}
    return elements, mult, "0"


def all_commutative_monoids(n):
    """Every commutative monoid table on n named elements with unit m0;
    none for n <= 0, since a monoid has a unit."""
    if n > 4:
        raise SizeExceeded("enumeration supported up to size 4")
    if n <= 0:
        return []
    els = ["m%d" % i for i in range(n)]
    free = [(i, j) for i in range(1, n) for j in range(i, n)]
    out = []
    for choice in product(range(n), repeat=len(free)):
        mult = {}
        for x in els:
            mult[(els[0], x)] = x
            mult[(x, els[0])] = x
        for (i, j), v in zip(free, choice):
            mult[(els[i], els[j])] = els[v]
            mult[(els[j], els[i])] = els[v]
        if next(_associativity_failures(els, mult), None) is None:
            out.append((els, mult, els[0]))
    return out
