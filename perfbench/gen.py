"""Seeded inputs for the benchmark, and reference models that know the answers.

Every generator takes a ``random.Random`` and returns plain JSON-shaped
documents, so the program under test only ever sees generated input.  The
reference models compute expected answers from first principles (bitmask set
algebra), never by calling phasegame.
"""

# Every meet-product structure below is a phase structure on a distributive
# lattice: D is the lattice of down-sets of a finite poset, the product is
# intersection, the unit is the top and the falsum f is any element.  Then
# dual(x) = x -> f is the relative pseudo-complement, every law that
# verify_laws audits is a theorem, and classify succeeds exactly when the
# facts (x with dual(dual(x)) == x) are closed under union.

import json
import os

ESTIMATIONS = [
    ("a -o J1a x e x b2", "1"),
    ("a -o J1a x e x b3", "b1"),
    ("a -o J1a x e x b2 x b3", "b1"),
    ("a -o e x b2 x b3", "1"),
    ("a -o e x b2", "1"),
    ("a -o e x b3", "1"),
    ("a -o J1a x e", "1"),
    ("a -o e", "1"),
]
"""The eight acceptance estimations on the shipped goal phase (README)."""

README_EVALS = [("e^^", "J23e"), ("b2 & b3", "a")]

ALT_VALUE = "J123"
"""Every estimation gives this value on the degenerate goal_phase_alt."""

GOAL_GENERATORS = ["J1a", "b2", "b3", "e"]


def data_dir(root):
    return os.path.join(root, "src", "phasegame", "data")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def inline_lattice(root, doc):
    """Copy of a shipped phase/candidates document with its lattice inlined,
    so building it reads no file."""
    out = dict(doc)
    out["lattice"] = load_json(os.path.join(data_dir(root), doc["lattice"]))
    return out


# meet-product structures ----------------------------------------------

class DownsetModel:
    """Down-sets of a poset as bitmasks over its points; the reference for
    a generated meet-product structure."""

    def __init__(self, below, sets, names, falsum):
        self.below = below          # principal down-set of each point
        self.sets = sets            # every down-set, in document order
        self.names = names          # mask -> element name
        self.by_name = {v: k for k, v in names.items()}
        self.falsum = falsum

    def dual(self, x):
        # largest down-set z with z & x <= f: the points whose principal
        # down-set meets x only inside f
        f = self.falsum
        out = 0
        for p, d in enumerate(self.below):
            if d & x & ~f == 0:
                out |= 1 << p
        return out

    def facts(self):
        return [s for s in self.sets if self.dual(self.dual(s)) == s]

    def facts_join_closed(self):
        facts = set(self.facts())
        return all((a | b) in facts for a in facts for b in facts)

    def eval(self, node):
        op = node[0]
        if op == "atom":
            return self.by_name[node[1]]
        if op == "dual":
            return self.dual(self.eval(node[1]))
        a, b = self.eval(node[1]), self.eval(node[2])
        if op in ("tensor", "with"):
            return a & b
        if op == "plus":
            return a | b
        if op == "par":
            return self.dual(self.dual(a) & self.dual(b))
        if op == "impl":
            return self.dual(a & self.dual(b))
        raise ValueError(op)


def _downsets(below):
    """All down-sets of a poset given in a linear extension order."""
    out = [0]
    for p, d in enumerate(below):
        strict = d & ~(1 << p)
        out += [s | 1 << p for s in out if s & strict == strict]
    return out


def _random_poset(rng, m, density):
    below = []
    for j in range(m):
        d = 1 << j
        for i in range(j):
            if rng.random() < density:
                d |= below[i]
        below.append(d)
    return below


def _structure(rng, below):
    sets = _downsets(below)
    rng.shuffle(sets)
    ids = rng.sample(range(10 * len(sets)), len(sets))
    names = {s: "v%d" % i for s, i in zip(sets, ids)}
    covers = []
    for s in sets:
        for p, d in enumerate(below):
            bit = 1 << p
            if not s & bit and d & ~bit & ~s == 0:
                covers.append([names[s], names[s | bit]])
    rng.shuffle(covers)
    top = (1 << len(below)) - 1
    falsum = rng.choice(sets)
    mult = [[names[a], names[b], names[a & b]]
            for i, a in enumerate(sets) for b in sets[i:]]
    doc = {
        "lattice": {"elements": [names[s] for s in sets], "covers": covers,
                    "bottom": names[0], "top": names[top]},
        "mult": mult,
        "unit": names[top],
        "falsum": names[falsum],
        "unit_mode": "strict",
    }
    return doc, DownsetModel(below, sets, names, falsum)


def boolean_structure(rng, n):
    """Meet-product structure on the Boolean lattice with n = 2**k elements."""
    k = n.bit_length() - 1
    if 1 << k != n:
        raise ValueError("a Boolean lattice has 2**k elements, not %d" % n)
    return _structure(rng, [1 << p for p in range(k)])


def downset_structure(rng, n):
    """Meet-product structure on the down-sets of a seeded poset that is not
    an antichain (so the lattice is not Boolean), with exactly n elements."""
    lo = n.bit_length()
    while True:
        m = rng.randrange(lo, 2 * lo + 2)
        below = _random_poset(rng, m, rng.uniform(0.05, 0.6))
        if len(_downsets(below)) == n and any(d & (d - 1) for d in below):
            return _structure(rng, below)


def random_expr(rng, names, depth):
    """A random connective expression as (text, tree); fully parenthesised so
    the text needs no precedence rules."""
    if depth == 0 or rng.random() < 0.25:
        name = rng.choice(names)
        return name, ("atom", name)
    if rng.random() < 0.2:
        text, tree = random_expr(rng, names, depth - 1)
        return "(%s)^" % text, ("dual", tree)
    op, sym = rng.choice([("tensor", "x"), ("par", "par"), ("with", "&"),
                          ("plus", "+"), ("impl", "-o")])
    lt, ltree = random_expr(rng, names, depth - 1)
    rt, rtree = random_expr(rng, names, depth - 1)
    return "(%s %s %s)" % (lt, sym, rt), (op, ltree, rtree)


def expr_batch(rng, model, size, depth=4):
    """Seeded expressions with their expected values."""
    names = sorted(model.by_name)
    out = []
    for _ in range(size):
        text, tree = random_expr(rng, names, depth)
        out.append((text, model.names[model.eval(tree)]))
    return out


# solver inputs ---------------------------------------------------------

def _canon(triples):
    return {tuple(sorted((x, y))): v for x, y, v in triples}


def planted_table(rng, phase_doc, slots, max_decoys):
    """Candidates document made from a lawful phase document: `slots` seeded
    entries become candidate lists holding the true value and decoys.
    Returns (document, the planted table)."""
    elements = phase_doc["lattice"]["elements"]
    mult = [list(e) for e in phase_doc["mult"]]
    for i in rng.sample(range(len(mult)), slots):
        true = mult[i][2]
        cands = [true] + rng.sample([e for e in elements if e != true],
                                    rng.randint(1, max_decoys))
        rng.shuffle(cands)
        mult[i][2] = cands
    doc = dict(phase_doc)
    doc["mult"] = mult
    return doc, _canon(phase_doc["mult"])


def table_of(phase_doc):
    return _canon(phase_doc["mult"])


def search_space(cand_doc):
    space = 1
    for _, _, v in cand_doc["mult"]:
        if isinstance(v, list):
            space *= len(set(v))
    return space


# oracle inputs ---------------------------------------------------------

def _cyclic(m):
    return [(i + j) % m for i in range(m) for j in range(m)]


def _truncated(m):
    return [min(i + j, m - 1) for i in range(m) for j in range(m)]


def _semilattice(m):
    return [max(i, j) for i in range(m) for j in range(m)]


def _product(a, b):
    # Z_a x Z_b flattened: element i*b + j
    m = a * b
    return [((i // b + j // b) % a) * b + (i % b + j % b) % b
            for i in range(m) for j in range(m)]


_MONOIDS = {
    4: [("cyclic", lambda: _cyclic(4)), ("truncated", lambda: _truncated(4)),
        ("semilattice", lambda: _semilattice(4)),
        ("z2xz2", lambda: _product(2, 2))],
    5: [("cyclic", lambda: _cyclic(5)), ("truncated", lambda: _truncated(5)),
        ("semilattice", lambda: _semilattice(5))],
    6: [("cyclic", lambda: _cyclic(6)), ("truncated", lambda: _truncated(6)),
        ("semilattice", lambda: _semilattice(6)),
        ("z2xz3", lambda: _product(2, 3))],
}


MAX_FACTS = 12
"""The oracle checks facts**3 triples; Z6 with a one-element pole has 64
facts and takes about 24 s, so drawn poles keep the fact count at most this."""


def count_facts(m, flat, pole_mask):
    """Subsets X of an m-element monoid with dual(dual(X)) == X, where
    dual(X) is every z whose products with X all land in the pole."""
    def dual(xs):
        out = 0
        for z in range(m):
            if all(pole_mask >> flat[x * m + z] & 1
                   for x in range(m) if xs >> x & 1):
                out |= 1 << z
        return out
    return sum(1 for xs in range(1 << m) if dual(dual(xs)) == xs)


def random_monoid(rng, m):
    """A seeded commutative monoid on m elements (unit 'u0') with a seeded
    nonempty proper pole that has at most MAX_FACTS facts:
    (elements, mult, unit, pole, fact count)."""
    while True:
        _, make = rng.choice(_MONOIDS[m])
        flat = make()
        members = rng.sample(range(m), rng.randint(1, m - 1))
        facts = count_facts(m, flat, sum(1 << i for i in members))
        if facts <= MAX_FACTS:
            break
    els = ["u%d" % i for i in range(m)]
    mult = {(els[i], els[j]): els[flat[i * m + j]]
            for i in range(m) for j in range(m)}
    return els, mult, els[0], frozenset(els[i] for i in members), facts


# planner inputs --------------------------------------------------------

def scenario_doc(rng, name, width, height, density, horizon, goals,
                 feature_counts, universe=None):
    """A seeded gridworld: obstacles at `density`, the start at least
    `horizon` cells from the border where the grid allows, and one object per
    goal generator in `goals`, between (horizon + 1) / 2 and `horizon` cells
    from the start: an object with two or more features is then seen from
    the start, but not yet all of it.  With `universe`, object features are
    drawn from it (shared names); otherwise every feature is distinct."""
    mx, my = min(horizon, (width - 1) // 2), min(horizon, (height - 1) // 2)
    while True:
        grid = [["#" if rng.random() < density else "."
                 for _ in range(width)] for _ in range(height)]
        start = (rng.randrange(mx, width - mx), rng.randrange(my, height - my))
        grid[start[1]][start[0]] = "."
        seen = {start}
        todo = [start]
        while todo:
            x, y = todo.pop()
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if (0 <= nx < width and 0 <= ny < height
                        and grid[ny][nx] == "." and (nx, ny) not in seen):
                    seen.add((nx, ny))
                    todo.append((nx, ny))
        near = sorted(c for c in seen if (horizon + 1) / 2.0 <= max(
            abs(c[0] - start[0]), abs(c[1] - start[1])) <= horizon)
        if len(near) >= len(goals):
            break
    objects = []
    cells = rng.sample(near, len(goals))
    for i, (cell, goal, count) in enumerate(zip(cells, goals,
                                                feature_counts)):
        if universe is None:
            feats = ["f%d_%d" % (i, j) for j in range(count)]
        else:
            feats = rng.sample(universe, count)
        objects.append({"id": "o%d" % i, "cell": list(cell),
                        "features": feats, "goal": goal,
                        "attractiveness": rng.randrange(5)})
    return {"name": name, "grid": ["".join(r) for r in grid],
            "start": list(start), "horizon": horizon,
            "goal_phase": "data:goal_phase.json", "free_move_goal": "a",
            "objects": objects}


def best_objective_size(game, payoff):
    """Largest number of features any alternated play of `game` collects:
    an exhaustive search, independent of the planner's own enumeration.
    Payoffs are comma-joined feature names."""
    feats = {v: frozenset(x for x in k.split(",") if x)
             for v, k in payoff.items()}
    best = 0
    seen = set()
    stack = [(game.root, 0, feats[game.root])]
    while stack:
        v, depth, acc = stack.pop()
        key = (v, depth % 2, acc)
        if key in seen:
            continue
        seen.add(key)
        nxt = game.moves(v, "O" if depth % 2 == 0 else "P")
        if not nxt:
            best = max(best, len(acc))
        for w in nxt:
            stack.append((w, depth + 1, acc | feats[w]))
    return best
