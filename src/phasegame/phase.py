"""Phase structures: a commutative multiplication on a lattice plus duality.

A phase structure carries a finite bounded lattice (residuals are joins of
finitely many witnesses, checked to be witnesses themselves, so neither
completeness nor distributivity is assumed), a commutative monoid-like
product on it, a falsum element used to define duals, and the derived
apparatus of linear-logic connectives (tensor, par, implication,
additives) together with the fact/open/closed classification.

Duals come either from explicit overrides in the source document or from the
residuation dual(X) = lin_implies(X, falsum) when that join is closed.
"""

import warnings
from itertools import islice

from .data import field, load_doc, symmetrize
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


class NonFactWarning(UserWarning):
    """Additive connective applied to an element outside the fact set."""


class PhaseStructure:
    """Immutable bundle of lattice, product, unit, falsum and dual table."""

    def __init__(self, lattice, mult, unit, falsum, dual_table,
                 unit_mode="weak", op_class=None, cl_class=None):
        self.lattice = lattice
        self._mult = dict(mult)
        self.unit = unit
        self.falsum = falsum
        self._dual = dict(dual_table)
        self.unit_mode = unit_mode
        self.op_class = list(op_class) if op_class is not None else None
        self.cl_class = list(cl_class) if cl_class is not None else None

    def mult(self, x, y):
        try:
            return self._mult[(x, y)]
        except KeyError:
            if x not in self.lattice or y not in self.lattice:
                raise ForeignElement("%r, %r" % (x, y))
            raise

    def dual(self, x):
        return self._dual[x]

    def is_fact(self, x):
        return self._dual[self._dual[x]] == x

    def facts(self):
        return [x for x in self.lattice.elements if self.is_fact(x)]

    # connectives -----------------------------------------------------

    def tensor(self, x, y, mode="raw"):
        """Product of x and y; mode 'fact_closed' applies double dual."""
        v = self.mult(x, y)
        if mode == "fact_closed":
            return self._dual[self._dual[v]]
        if mode != "raw":
            raise ValueError("mode must be 'raw' or 'fact_closed'")
        return v

    def par(self, x, y):
        return self._dual[self.mult(self._dual[x], self._dual[y])]

    def impl(self, x, y):
        """Implication as the dual of x times dual y."""
        return self._dual[self.mult(x, self._dual[y])]

    def additive_conj(self, x, y):
        self._warn_non_fact("additive_conj", x, y)
        return self.lattice.meet2(x, y)

    def additive_disj(self, x, y):
        self._warn_non_fact("additive_disj", x, y)
        j = self.lattice.join2(x, y)
        return self._dual[self._dual[j]]

    def _warn_non_fact(self, op, *xs):
        for x in xs:
            if not self.is_fact(x):
                warnings.warn("%s: %r is not a fact" % (op, x),
                              NonFactWarning, stacklevel=3)

    def lin_implies(self, x, y):
        """Largest z with mult(x, z) <= y, if that join is itself a witness.

        Raises NotClosed when the join of all witnesses fails the bound, in
        which case the residual does not exist in this structure.
        """
        star, closed = self.lattice.residual(
            [self._mult[(x, z)] for z in self.lattice.elements], y)
        if not closed:
            raise NotClosed(
                "lin_implies(%r, %r): join %r of witnesses is not a witness"
                % (x, y, star))
        return star


def _check_totality(lattice, mult):
    for x in lattice.elements:
        for y in lattice.elements:
            if (x, y) not in mult:
                raise NotCommutative("product undefined at (%r, %r)" % (x, y))


def _derive_duals(lattice, mult, falsum, overrides):
    dual = {}
    for x in lattice.elements:
        if x in overrides:
            if overrides[x] not in lattice:
                raise ForeignElement(repr(overrides[x]))
            dual[x] = overrides[x]
            continue
        star, closed = lattice.residual(
            [mult[(x, z)] for z in lattice.elements], falsum)
        if not closed:
            raise NotClosed(
                "dual of %r is not expressible: join %r of witnesses fails "
                "mult(%r, %r) <= %r; add a dual override" % (x, star, x, star, falsum))
        dual[x] = star
    return dual


# laws -----------------------------------------------------------------

_RESIDUAL_LAW = "residual_matches_dual_product"
_DUAL_LAWS = ("triple_dual", "double_dual_extensive",
              "contradiction_below_falsum", "dual_of_join_is_meet_of_duals")


def _laws(lattice, mult, unit, falsum, dual=None):
    """Yield (name, witnesses, instances) for each law, in a fixed order.

    witnesses lazily yields the failing instances, so a caller that stops
    at the first pays only for the scan up to it.  Without a dual table only
    the product laws are listed.
    """
    els = lattice.elements
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
           (x for x in els if not lattice.leq(x, dual[dual[x]])), n)
    yield ("contradiction_below_falsum",
           (x for x in els if not lattice.leq(mult[(x, dual[x])], falsum)), n)
    yield ("dual_of_join_is_meet_of_duals",
           ((x, y) for x in els for y in els
            if dual[lattice.join2(x, y)] != lattice.meet2(dual[x], dual[y])),
           n * n)
    # only pairs whose residual towards dual(y) exists are instances, so
    # this law is scanned in full before it is listed
    checked, witnesses = 0, []
    for x in els:
        row = [mult[(x, z)] for z in els]
        for y in els:
            star, closed = lattice.residual(row, dual[y])
            if closed:
                checked += 1
                if star != dual[mult[(x, y)]]:
                    witnesses.append((x, y, star, dual[mult[(x, y)]]))
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
    """
    doc, base_dir = load_doc(doc, base_dir)
    if lattice is None:
        lattice = lattice_from_doc(field(doc, "lattice", (str, dict)),
                                   base_dir)
    mult = symmetrize(lattice, field(doc, "mult", list))
    _check_totality(lattice, mult)

    unit = doc["unit"]
    falsum = doc["falsum"]
    for el in (unit, falsum):
        if el not in lattice:
            raise ForeignElement(repr(el))
    unit_mode = doc.get("unit_mode", "weak")
    checks = doc.get("checks", "full")
    if unit_mode not in ("weak", "strict"):
        raise ValueError("unit_mode must be 'weak' or 'strict'")
    if checks not in ("full", "relaxed"):
        raise ValueError("checks must be 'full' or 'relaxed'")

    if validate:
        product_gates = {}
        if checks == "full":
            product_gates["associative"] = NotAssociative
        if unit_mode == "strict":
            product_gates["unit_identity"] = UnitNotNeutral
        _enforce(_laws(lattice, mult, unit, falsum), product_gates)

    overrides = {x: d for x, d in doc.get("dual_overrides", [])}
    dual = _derive_duals(lattice, mult, falsum, overrides)
    if validate and checks == "full":
        err = OverrideInconsistent if overrides else DualLawViolation
        _enforce(_laws(lattice, mult, unit, falsum, dual),
                 dict.fromkeys(_DUAL_LAWS, err))

    return PhaseStructure(
        lattice, mult, unit, falsum, dual, unit_mode=unit_mode,
        op_class=doc.get("op_class"), cl_class=doc.get("cl_class"))


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
    n = len(ps.lattice.elements)
    laws = []
    for name, witnesses, instances in _laws(ps.lattice, ps._mult, ps.unit,
                                            ps.falsum, ps._dual):
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
                             % (ps.op_class, op))
    if ps.cl_class is not None and sorted(ps.cl_class) != sorted(cl):
        raise NotClosedClass("declared closed class %r differs from derived %r"
                             % (ps.cl_class, cl))

    if sorted(ps.dual(x) for x in op) != sorted(cl):
        raise NotClosedClass("duality does not swap the open and closed classes")
    for x in op:
        for y in op:
            j = lat.join2(x, y)
            if j not in op:
                raise NotClosedClass("open class not join-closed at (%r, %r)" % (x, y))
            t = ps.tensor(x, y, mode="fact_closed")
            if t not in op:
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
