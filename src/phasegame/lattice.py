"""Finite bounded lattices described by their Hasse (cover) relation.

Order is the reflexive-transitive closure of the covers, computed once at
construction and cached as bitmasks, with the join table.  All operations
are pure; the only state a Lattice gains after __init__ is its meet rows,
each built from the down-sets the first time it is read, and its
distributivity verdict.
"""
from itertools import compress
from operator import itemgetter

from .data import distinct, fields, load_doc
from .errors import (
    ForeignElement,
    NotALattice,
    NotAPartialOrder,
    NotHeyting,
    UnboundedLattice,
    UsageError,
)

# the digits "0" and "1" as the bytes 0 and 1, so a string of binary digits
# becomes selectors for itertools.compress
_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


class Lattice:
    def __init__(self, elements, covers, bottom, top, generators=None):
        self.elements = distinct(elements, "the element list")
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
        lower = [[] for _ in range(n)]
        for lo, hi in self.covers:
            if lo not in self._index or hi not in self._index:
                raise ForeignElement("cover (%r, %r) uses unknown element" % (lo, hi))
            succ[self._index[lo]].append(self._index[hi])
            lower[self._index[hi]].append(self._index[lo])
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
        # i and j reach each other exactly when their up-sets are equal
        by_up = {m: k for k, m in enumerate(up)}
        if len(by_up) < n:
            i, j = next((i, j) for i in range(n) for j in range(n)
                        if i != j and up[i] == up[j])
            raise NotAPartialOrder(
                "cycle through %r and %r" % (self.elements[i], self.elements[j]))

        bot, topi = self._index[bottom], self._index[top]
        full = (1 << n) - 1
        if up[bot] != full:
            raise UnboundedLattice("declared bottom %r is not below every element" % (bottom,))
        if any(not (up[i] >> topi) & 1 for i in range(n)):
            raise UnboundedLattice("declared top %r is not above every element" % (top,))

        # the down-sets are the columns of the up-set bit matrix: row j of
        # the matrix spells up[j] most significant bit first, so column
        # n-1-i holds bit i of every row, row 0 first.  below[i] is that
        # column as bytes, byte j 1 iff j <= i, and down[i] the same bits
        # as a mask
        cols = ["".join(col) for col in zip(*[format(u, "0%db" % n)
                                              for u in up])][::-1]
        self._below = [c.encode().translate(_BYTE_OF_DIGIT) for c in cols]
        self._down = down = [int(c[::-1], 2) for c in cols]
        self._by_down = {m: k for k, m in enumerate(down)}
        self._bot = bot
        self._bits = [1 << z for z in range(n)]
        # each element with its lower covers, after them, for folds upwards
        self._upward = [(k, lower[k]) for k in sorted(
            range(n), key=lambda k: down[k].bit_count())]
        # the join of i and j is the k whose up-set is the common up-set, if
        # there is one.  Row i looks up only the pairs j >= i and copies the
        # pairs j < i from column i of the rows before it.  With every join
        # found, every meet exists too (the join of the common lower bounds,
        # which bottom makes nonempty), so meet rows wait for _meet_row
        self._join = join = []
        for i, u in enumerate(up):
            joins = list(map(itemgetter(i), join))
            joins += map(by_up.get, map(u.__and__, up[i:]))
            if None in joins:
                self._no_lattice(by_up)
            join.append(joins)
        self._meets = [None] * n
        self._distributive = None

    def _no_lattice(self, by_up):
        """Raise NotALattice at the first pair (i, j), j >= i, in element
        order, that has no join or, failing that, no meet; by_up indexes
        the elements by their up-sets."""
        els, up, down, by_down = (self.elements, self._up, self._down,
                                  self._by_down)
        for i, (u, d) in enumerate(zip(up, down)):
            for j in range(i, len(els)):
                for word, have in (("join", u & up[j] in by_up),
                                   ("meet", d & down[j] in by_down)):
                    if not have:
                        raise NotALattice("no unique %s for %r, %r"
                                          % (word, els[i], els[j]))

    def _meet_row(self, i):
        """Row i of the meet table, built from the down-sets when first
        asked for: the meet of i and j is the k whose down-set is the
        common down-set."""
        row = self._meets[i]
        if row is None:
            row = self._meets[i] = list(map(self._by_down.__getitem__,
                                            map(self._down[i].__and__,
                                                self._down)))
        return row

    @property
    def key(self):
        """What defines this lattice beside its class: its order, as the
        pairs (x, y) of names with x <= y, whatever order they were
        declared in."""
        els = self.elements
        return type(self), frozenset(
            (x, y) for x, up in zip(els, self._up)
            for j, y in enumerate(els) if up >> j & 1)

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
            acc = self._meet_row(acc)[self.idx(x)]
        return self.elements[acc]

    def join2(self, x, y):
        return self.elements[self._join[self.idx(x)][self.idx(y)]]

    def meet2(self, x, y):
        return self.elements[self._meet_row(self.idx(x))[self.idx(y)]]

    def is_distributive(self):
        # row-wise: i /\ (j \/ k) == (i /\ j) \/ (i /\ k) for every k at once
        if self._distributive is None:
            join = self._join
            self._distributive = all(
                list(map(mi.__getitem__, join[j]))
                == list(map(join[mij].__getitem__, mi))
                for mi in map(self._meet_row, range(len(join)))
                for j, mij in enumerate(mi))
        return self._distributive

    def residual(self, row, t):
        """(star, closed), as _star gives them, for the witnesses of target
        index t, where row lists the indices of some products in element
        order: the z with row[z] at or below t, gathered in one pass.

        When row is the product row of some x, a closed star is the largest
        z with x.z <= t: the residual of t by x.
        """
        return self._star(sum(compress(
            self._bits, map(self._below[t].__getitem__, row))))

    def stars(self, row):
        """Every target index t's star for the product row row, as residual
        gives it for one: the join of the z whose product is t and the stars
        of t's lower covers, folded upwards; closed iff row[star] <= t."""
        join = self._join
        stars = [self._bot] * len(row)
        for z, p in enumerate(row):
            stars[p] = join[stars[p]][z]
        for t, lower in self._upward:
            for s in lower:
                stars[t] = join[stars[t]][stars[s]]
        return stars

    def _star(self, w):
        """(star, closed) for a witness bitmask w: star indexes the join of
        the witnesses, bottom when there is none, and closed says whether
        star is itself a witness.  When the witnesses form a principal
        down-set its top is their join, else (products need not be
        monotone) the join is folded."""
        star = self._by_down.get(w)
        if star is None:
            star, rest, join = self._bot, w, self._join
            while rest:
                low = rest & -rest
                star = join[star][low.bit_length() - 1]
                rest ^= low
        return star, w >> star & 1 == 1

    def heyting_implies(self, a, b):
        """Relative pseudo-complement: join of all c with a /\\ c <= b."""
        if not self.is_distributive():
            raise NotHeyting("lattice is not distributive")
        # a /\ (join of the witnesses) is the join of their meets with a,
        # at or below b, so the residual of a distributive meet row is closed
        star, _ = self.residual(self._meet_row(self.idx(a)), self.idx(b))
        return self.elements[star]

    def heyting_neg(self, a):
        return self.heyting_implies(a, self.bottom)

    def __contains__(self, x):
        return x in self._index

    def __repr__(self):
        return "Lattice(%d elements, bottom=%r, top=%r)" % (
            len(self.elements), self.bottom, self.top)


def lattice_from_doc(doc, base_dir=None):
    """Build a Lattice from a document, or from a reference to one resolved
    against base_dir (the directory of the document that names it)."""
    return Lattice(**fields(load_doc(doc, base_dir)[0], "lattice"))


load_lattice = lattice_from_doc


class PowersetLattice:
    """Boolean lattice of all subsets of a universe, on int bitmasks.

    Bit i of a mask stands for the i-th member of the sorted universe, so
    meet and complement are & and a flip of every member's bit.  An element
    is named by its members, comma-joined in that order ('' for the empty
    set); any other spelling of a subset is not an element.  The universe
    holds distinct members, each nonempty and free of commas, and may be of
    any size: no element is ever listed.  Answers the payoff-lattice
    protocol of games.PayoffGame, plus the masks the planner works on.
    """

    def __init__(self, universe):
        self.base = sorted(universe)
        self._bit = {u: 1 << i for i, u in enumerate(self.base)}
        if len(self._bit) != len(self.base):
            raise UsageError("duplicate universe members")
        for u in self.base:
            if not u or "," in u:
                raise UsageError(
                    "universe members must be nonempty and contain no commas")
        self._full = (1 << len(self.base)) - 1
        self.bottom = ""
        self._parsed = {}

    @property
    def key(self):
        """What defines this lattice beside its class: its universe."""
        return type(self), tuple(self.base)

    def mask(self, members):
        """The mask of an iterable of members."""
        out = 0
        for u in members:
            try:
                out |= self._bit[u]
            except KeyError:
                raise ForeignElement("%r is not a member of the universe"
                                     % (u,))
        return out

    def members(self, mask):
        """The members of a mask, in sorted order."""
        return [u for i, u in enumerate(self.base) if mask >> i & 1]

    def name(self, mask):
        return ",".join(self.members(mask))

    def complement(self, mask):
        return self._full & ~mask

    def _parse(self, x):
        m = self._parsed.get(x)
        if m is not None:
            return m
        m = self.mask(x.split(",")) if x else 0
        if self.name(m) != x:
            raise ForeignElement(repr(x))
        self._parsed[x] = m
        return m

    def meet2(self, x, y):
        return self.name(self._parse(x) & self._parse(y))

    def heyting_implies(self, x, y):
        return self.name(self.complement(self._parse(x)) | self._parse(y))

    def heyting_neg(self, x):
        return self.name(self.complement(self._parse(x)))

    def is_distributive(self):
        return True

    def __contains__(self, x):
        try:
            self._parse(x)
            return True
        except ForeignElement:
            return False
