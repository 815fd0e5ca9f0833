"""Finite bounded lattices described by their Hasse (cover) relation.

Order is the reflexive-transitive closure of the covers, computed once at
construction and cached as bitmasks.  All operations are pure; a Lattice is
immutable after __init__.
"""
from .data import items, load_doc
from .errors import (
    ForeignElement,
    NotALattice,
    NotAPartialOrder,
    NotHeyting,
    SizeExceeded,
    UnboundedLattice,
)


class Lattice:
    def __init__(self, elements, covers, bottom, top, generators=None):
        self.elements = list(dict.fromkeys(elements))
        self.covers = [(lo, hi) for lo, hi in covers]
        self.bottom = bottom
        self.top = top
        self.generators = list(generators) if generators else []
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        if bottom not in self._index or top not in self._index:
            raise ForeignElement("bottom/top must be declared elements")
        for g in self.generators:
            if g not in self._index:
                raise ForeignElement("generator %r not an element" % (g,))

        # upward closure per element as a bitmask: bit j set iff e_i <= e_j
        up = [1 << i for i in range(n)]
        succ = [[] for _ in range(n)]
        for lo, hi in self.covers:
            if lo not in self._index or hi not in self._index:
                raise ForeignElement("cover (%r, %r) uses unknown element" % (lo, hi))
            succ[self._index[lo]].append(self._index[hi])
        # transitive closure, reverse topological-ish fixpoint
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
        self._up = up

        for i in range(n):
            for j in range(n):
                if i != j and (up[i] >> j) & 1 and (up[j] >> i) & 1:
                    raise NotAPartialOrder(
                        "cycle through %r and %r" % (self.elements[i], self.elements[j]))

        bot, topi = self._index[bottom], self._index[top]
        full = (1 << n) - 1
        if up[bot] != full:
            raise UnboundedLattice("declared bottom %r is not below every element" % (bottom,))
        if any(not (up[i] >> topi) & 1 for i in range(n)):
            raise UnboundedLattice("declared top %r is not above every element" % (top,))

        # join/meet tables; uniqueness of lub/glb is the lattice test
        self._join = [[0] * n for _ in range(n)]
        self._meet = [[0] * n for _ in range(n)]
        down = [0] * n
        for i in range(n):
            for j in range(n):
                if (up[j] >> i) & 1:
                    down[i] |= 1 << j
        self._down = down
        for i in range(n):
            for j in range(i, n):
                ub = up[i] & up[j]
                # least element of ub: the k in ub whose up-set contains all of ub
                lub = [k for k in range(n) if (ub >> k) & 1 and (ub & ~up[k]) == 0]
                lb = down[i] & down[j]
                glb = [k for k in range(n) if (lb >> k) & 1 and (lb & ~down[k]) == 0]
                if len(lub) != 1:
                    raise NotALattice("no unique join for %r, %r"
                                      % (self.elements[i], self.elements[j]))
                if len(glb) != 1:
                    raise NotALattice("no unique meet for %r, %r"
                                      % (self.elements[i], self.elements[j]))
                self._join[i][j] = self._join[j][i] = lub[0]
                self._meet[i][j] = self._meet[j][i] = glb[0]
        self._distributive = None

    def idx(self, x):
        try:
            return self._index[x]
        except KeyError:
            raise ForeignElement("%r is not an element of this lattice" % (x,))

    def leq(self, x, y):
        return (self._up[self.idx(x)] >> self.idx(y)) & 1 == 1

    def join(self, xs):
        """Join of xs; bottom when xs is empty."""
        acc = self.idx(self.bottom)
        for x in xs:
            acc = self._join[acc][self.idx(x)]
        return self.elements[acc]

    def meet(self, xs):
        """Meet of xs; top when xs is empty."""
        acc = self.idx(self.top)
        for x in xs:
            acc = self._meet[acc][self.idx(x)]
        return self.elements[acc]

    def join2(self, x, y):
        return self.elements[self._join[self.idx(x)][self.idx(y)]]

    def meet2(self, x, y):
        return self.elements[self._meet[self.idx(x)][self.idx(y)]]

    def is_distributive(self):
        if self._distributive is None:
            n = len(self.elements)
            self._distributive = True
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if self._meet[i][self._join[j][k]] != \
                                self._join[self._meet[i][j]][self._meet[i][k]]:
                            self._distributive = False
                            break
                    if not self._distributive:
                        break
                if not self._distributive:
                    break
        return self._distributive

    def residual(self, products, y):
        """(join, closed): the join of the witnesses, the z whose product
        products[z] (listed in element order) is at or below y, and whether
        that join is itself a witness.

        When products is the row of some x, a closed join is the largest z
        with x.z <= y: the residual of y by x.  Bottom when no z is a witness.
        """
        index, join = self._index, self._join
        ks = [index[p] for p in products]
        below = self._down[self.idx(y)]
        acc = index[self.bottom]
        for z, k in enumerate(ks):
            if below >> k & 1:
                acc = join[acc][z]
        return self.elements[acc], below >> ks[acc] & 1 == 1

    def heyting_implies(self, a, b):
        """Relative pseudo-complement: join of all c with a /\\ c <= b."""
        if not self.is_distributive():
            raise NotHeyting("lattice is not distributive")
        star, closed = self.residual(
            [self.elements[k] for k in self._meet[self.idx(a)]], b)
        if not closed:
            raise NotHeyting("residuation fails at (%r, %r)" % (a, b))
        return star

    def heyting_neg(self, a):
        return self.heyting_implies(a, self.bottom)

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "Lattice(%d elements, bottom=%r, top=%r)" % (
            len(self.elements), self.bottom, self.top)


def lattice_from_doc(doc, base_dir=None):
    """Build a Lattice from a document, or from a reference to one resolved
    against base_dir (the directory of the document that names it)."""
    doc, _ = load_doc(doc, base_dir)
    for key in ("elements", "covers", "bottom", "top"):
        if key not in doc:
            raise NotALattice("lattice document missing %r" % (key,))
    return Lattice(items(doc, "elements", str),
                   [tuple(c) for c in items(doc, "covers", list)],
                   doc["bottom"], doc["top"],
                   items(doc, "generators", str, []))


def load_lattice(path):
    return lattice_from_doc(path)


def chain(n, names=None):
    """Chain lattice 0 < 1 < ... < n-1."""
    if names is None:
        names = [str(i) for i in range(n)]
    covers = [(names[i], names[i + 1]) for i in range(n - 1)]
    return Lattice(names, covers, names[0], names[-1])


def check_universe(universe):
    """Raise unless universe can name the subsets of a PowersetLattice: at
    most 20 distinct members, each nonempty and free of commas."""
    if len(universe) > 20:
        raise SizeExceeded("universe of %d members" % len(universe))
    if len(set(universe)) != len(universe):
        raise ValueError("duplicate universe members")
    for u in universe:
        if not u or "," in u:
            raise ValueError(
                "universe members must be nonempty and contain no commas")


class PowersetLattice:
    """Boolean lattice of all subsets of a universe, backed by set algebra.

    Shares the Lattice interface but skips the quadratic table construction,
    so it stays fast for the feature universes the planner builds.  Elements
    are named by comma-joined sorted members ('' for the empty set); any
    other spelling of a subset is not an element.
    """

    def __init__(self, universe):
        self.base = sorted(universe)
        check_universe(self.base)
        self.bottom = ""
        self.top = ",".join(self.base)
        self.generators = list(self.base)
        subsets = [[]]
        for u in self.base:
            subsets += [s + [u] for s in subsets]
        self.elements = [",".join(s) for s in
                         sorted(subsets, key=lambda s: (len(s), s))]
        self._members = set(self.base)
        self._parsed = {}

    def _set(self, x):
        s = self._parsed.get(x)
        if s is not None:
            return s
        s = frozenset(x.split(",")) if x else frozenset()
        if not s <= self._members or self._name(s) != x:
            raise ForeignElement(repr(x))
        self._parsed[x] = s
        return s

    def _name(self, s):
        return ",".join(sorted(s))

    def leq(self, x, y):
        return self._set(x) <= self._set(y)

    def join2(self, x, y):
        return self._name(self._set(x) | self._set(y))

    def meet2(self, x, y):
        return self._name(self._set(x) & self._set(y))

    def join(self, xs):
        out = frozenset()
        for x in xs:
            out = out | self._set(x)
        return self._name(out)

    def meet(self, xs):
        out = frozenset(self.base)
        for x in xs:
            out = out & self._set(x)
        return self._name(out)

    def heyting_implies(self, x, y):
        return self._name((frozenset(self.base) - self._set(x)) | self._set(y))

    def heyting_neg(self, x):
        return self._name(frozenset(self.base) - self._set(x))

    def is_distributive(self):
        return True

    def __contains__(self, x):
        try:
            self._set(x)
            return True
        except ForeignElement:
            return False

    def __len__(self):
        return 1 << len(self.base)

    def __repr__(self):
        return "PowersetLattice(%d members)" % len(self.base)

