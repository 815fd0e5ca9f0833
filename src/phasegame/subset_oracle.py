"""Brute-force subset-of-monoid semantics, used as an independent oracle.

Here the constructions are carried out literally: propositions are subsets
of a commutative monoid, the dual of X is every z whose products with X all
land in the pole, and facts are the subsets fixed by double dual.  Nothing
is looked up in a table, so this module cross-checks the laws the abstract
engine takes as axioms.  Sizes are capped hard because everything below is
exponential in the monoid.
"""

from itertools import product

from .data import fields, symmetrize
from .errors import ForeignElement, NotAssociative, NotCommutative, SizeExceeded

MAX_MONOID = 6


def _associativity_failures(elements, mult):
    """Every (x, y, z) with (x.y).z != x.(y.z), lazily, in element order."""
    return ((x, y, z) for x in elements for y in elements
            for xy in [mult[(x, y)]] for z in elements
            if mult[(xy, z)] != mult[(x, mult[(y, z)])])


class SubsetPhase:
    """All subsets of a small commutative monoid, with a chosen pole."""

    def __init__(self, elements, mult, unit, pole):
        if len(elements) > MAX_MONOID:
            raise SizeExceeded("monoid has %d elements, cap is %d"
                               % (len(elements), MAX_MONOID))
        self.elements = list(elements)
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
        for x in elements:
            if self.mult.get((unit, x)) != x:
                raise NotAssociative("unit is not neutral at %r" % (x,))
        self.pole = frozenset(pole)
        if not self.pole <= frozenset(elements):
            raise ForeignElement("pole is not a subset of the carrier")

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


def monoid_from_doc(doc):
    """Elements, symmetric product table and unit of a monoid document;
    data.symmetrize raises ForeignElement for a name outside the elements
    and NotCommutative for two rows that disagree on a pair."""
    f = fields(doc, "monoid")
    return (f["elements"], symmetrize(set(f["elements"]), f["mult"]),
            f["unit"])


def oracle_report(elements, mult, unit, pole):
    """Check every subset-level law, returning the same report shape as
    phase.verify_laws.  All of these are theorems, so any failing entry
    indicates a bug in the construction, not in the input."""
    sp = SubsetPhase(elements, mult, unit, pole)
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
                if sp.tensor(sp.tensor(s, t), u) != sp.tensor(s, sp.tensor(t, u)):
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


def cyclic_monoid(n):
    """The additive group of integers mod n, written multiplicatively."""
    elements = [str(i) for i in range(n)]
    mult = {(str(i), str(j)): str((i + j) % n)
            for i in range(n) for j in range(n)}
    return elements, mult, "0"


def all_commutative_monoids(n):
    """Every commutative monoid table on n named elements with unit m0."""
    if n > 3:
        raise SizeExceeded("enumeration supported up to size 3")
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
