"""Shared fixtures and random-structure generators for the test suite."""

import hashlib
import json
import os
import random
from collections import Counter

import pytest

from phasegame.errors import NotCommutative
from phasegame.games import Game, PayoffGame, Strategy, maximal_plays
from phasegame.lattice import Lattice
from phasegame.phase import PhaseStructure, load_phase


@pytest.fixture(scope="session")
def goal_phase():
    return load_phase("data:goal_phase.json")


@pytest.fixture(scope="session")
def goal_lattice(goal_phase):
    return goal_phase.lattice


@pytest.fixture(scope="session")
def alt_phase():
    return load_phase("data:goal_phase_alt.json")


def chain(n):
    """Chain lattice 0 < 1 < ... < n-1."""
    names = [str(i) for i in range(n)]
    covers = [(names[i], names[i + 1]) for i in range(n - 1)]
    return Lattice(names, covers, names[0], names[-1])


def hand_built(lattice, table, unit, falsum, duals, **kwargs):
    """A PhaseStructure from a name-keyed product table and dual map, turned
    into its index tables; a partial table raises NotCommutative and a
    foreign product ForeignElement, at the first such pair in element order.
    The table need not be commutative, so each pair is read in its own
    order."""
    els = lattice.elements
    rows = []
    for x in els:
        row = []
        for y in els:
            if (x, y) not in table:
                raise NotCommutative("product undefined at (%r, %r)" % (x, y))
            row.append(lattice.idx(table[x, y]))
        rows.append(tuple(row))
    dual = tuple(lattice.idx(duals[x]) for x in els)
    return PhaseStructure(lattice, tuple(rows), unit, falsum, dual, **kwargs)


# random distributive lattices -------------------------------------------
#
# Down-sets of a finite poset always form a distributive lattice, so random
# posets give random distributive lattices.  Rooting the poset (one element
# below all others) forces the lattice to have a unique atom.

def downset_lattice(elements, le_pairs):
    """Distributive lattice of down-sets of the poset given by le_pairs."""
    below = {e: {e} for e in elements}
    changed = True
    while changed:
        changed = False
        for lo, hi in le_pairs:
            if not below[lo] <= below[hi]:
                below[hi] |= below[lo]
                changed = True
    downsets = [frozenset()]
    for _ in elements:
        grown = set(downsets)
        for d in downsets:
            for e in elements:
                if e not in d and below[e] - {e} <= d:
                    grown.add(d | {e})
        downsets = sorted(grown, key=lambda s: (len(s), sorted(s)))

    def name(s):
        return ",".join(sorted(s)) if s else "()"

    covers = [(name(a), name(b))
              for a in downsets for b in downsets
              if a < b and len(b) == len(a) + 1]
    names = [name(s) for s in downsets]
    return Lattice(names, covers, names[0], names[-1])


def random_distributive_lattice(rng, max_elements=8, unique_atom=False):
    while True:
        n = rng.randint(1, 3)
        elements = ["p%d" % i for i in range(n)]
        pairs = [(elements[i], elements[j])
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        if unique_atom:
            root = "r"
            pairs += [(root, e) for e in elements]
            elements = [root] + elements
        lat = downset_lattice(elements, pairs)
        if 2 <= len(lat.elements) <= max_elements:
            return lat


# random games and strategies ---------------------------------------------

def random_game(rng, max_vertices=5):
    """Random acyclic rooted game; every vertex reachable by construction."""
    n = rng.randint(1, max_vertices)
    vertices = ["v%d" % i for i in range(n)]
    edges = []
    for i in range(1, n):
        parent = vertices[rng.randrange(i)]
        edges.append((parent, vertices[i], rng.choice("OP")))
    seen = set(edges)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                e = (vertices[i], vertices[j], rng.choice("OP"))
                if e not in seen:
                    seen.add(e)
                    edges.append(e)
    return Game(vertices, vertices[0], edges)


def random_payoff(rng, lattice, game, bottom_chance=0.12):
    nonbottom = [e for e in lattice.elements if e != lattice.bottom]
    k = {}
    for v in game.vertices:
        if rng.random() < bottom_chance:
            k[v] = lattice.bottom
        else:
            k[v] = rng.choice(nonbottom)
    return PayoffGame(game, lattice, k)


def random_strategy(rng, game, answer_chance=0.9):
    """Random deterministic strategy: each reachable Opponent move is
    answered by a random Proponent move when one exists."""
    plays = {(game.root,)}
    frontier = [(game.root,)]
    while frontier:
        p = frontier.pop()
        for w in game.moves(p[-1], "O"):
            answers = game.moves(w, "P")
            if answers and rng.random() < answer_chance:
                q = p + (w, rng.choice(answers))
                if q not in plays:
                    plays.add(q)
                    frontier.append(q)
    return Strategy(game, plays)


def positionally_winning(pg, strategy):
    """Winning, and additionally above bottom at every even rest point.

    Composition preserves plain winning only under extra hypotheses; this
    stronger predicate is the one that composes (see test_games).
    """
    bot = pg.lattice.bottom
    for p in maximal_plays(strategy):
        if pg.k[p[-1]] == bot:
            return False
        for i in range(0, len(p), 2):
            if pg.k[p[i]] == bot:
                return False
    return True


def seeded(seed):
    return random.Random(seed)


def pinned(name):
    """The table checked in as tests/pinned/<name>: a JSON object from each
    case to its answer."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned", name)) as fh:
        return json.load(fh)


def sha16(text):
    """The 16-hex sha256 prefix by which a pinned table names an output."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def doc_digest(text):
    """The sha256 hex digest of the JSON document in text, taken on its
    indented canonical form, so a pin holds the document, not its
    layout."""
    doc = json.loads(text)
    return hashlib.sha256((json.dumps(doc, sort_keys=True, indent=2)
                           + "\n").encode()).hexdigest()


def moved(table, answers):
    """Each case whose answer differs from the table's, as (pinned, now); a
    case missing on either side has moved too."""
    return {key: (table.get(key), answers.get(key))
            for key in sorted(set(table) | set(answers))
            if table.get(key) != answers.get(key)}


def count_moves(monkeypatch):
    """A Counter of the moves asked of a Game from now on."""
    calls = Counter()

    def counted(self, v, pol, _moves=Game.moves):
        calls["Game"] += 1
        return _moves(self, v, pol)
    monkeypatch.setattr(Game, "moves", counted)
    return calls
