"""Two-player graph games with lattice-valued payoffs.

A game is a rooted graph whose edges are owned by Opponent ("O") or Player
("P"); plays alternate O first.  Payoff games attach a distributive-lattice
value to every vertex; a strategy wins when every maximal play it allows
ends strictly above bottom.  Tensor is the product graph, the dual flips
edge ownership, and implication is tensor of the dual with the consequent,
with payoffs combined by meet and by Heyting implication respectively.
A Game holds its graph once, as each vertex's successor lists, walked
breadth-first from its root for one vertex order however its vertices and
edges were given; edges is read off the lists in that order.  Its root and
every successor are the objects its vertex list holds, so equal vertices
are one object.  dual_game swaps each vertex's two lists and tensor_game
zips its factors' lists; each lists its result as a Game.
A strategy is a set of plays, checked in one pass that builds the reply
table it keeps.  One breadth-first unfolding of plays against
a response (_unfold) lists the maximal plays of a strategy, copycat, and
the composite of two strategies with the middle game hidden.
"""

from .errors import (
    ComponentMismatch,
    ForeignElement,
    InteractionOverflow,
    InvalidStrategy,
    LatticeMismatch,
    NotHeyting,
)

_POLS = ("O", "P")


class Game:
    def __init__(self, vertices, root, edges):
        vertices = list(vertices)
        # each vertex keyed to itself: the root and every successor are
        # kept as the object the vertex list holds
        vset = {v: v for v in vertices}
        if len(vset) != len(vertices):
            raise ValueError("duplicate vertices")
        if root not in vset:
            raise ForeignElement("root %r is not a vertex" % (root,))
        self.root = root = vset[root]
        # each vertex's successors as (O-moves, P-moves), in edge order
        self._succ = succ = {v: ([], []) for v in vertices}
        for frm, to, pol in edges:
            if frm not in vset or to not in vset:
                raise ForeignElement("edge (%r, %r) leaves the vertex set"
                                     % (frm, to))
            if pol not in _POLS:
                raise ValueError("edge polarity must be 'O' or 'P'")
            succ[frm][pol == "P"].append(vset[to])
        # the breadth-first walk from the root
        seen = {root}
        order = [root]
        for v in order:
            for ws in succ[v]:
                for w in ws:
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
        if len(order) != len(vset):
            raise ValueError("unreachable vertices: %r"
                             % [v for v in vertices if v not in seen])
        self.vertices = order

    @property
    def edges(self):
        """A new list of every edge (v, w, pol), in walk order."""
        return [(v, w, pol) for v in self.vertices
                for pol, ws in zip(_POLS, self._succ[v]) for w in ws]

    def moves(self, v, pol):
        """A new list of v's pol-moves, in edge order."""
        return list(self._succ[v][_POLS.index(pol)])

    def __repr__(self):
        return "Game(%d vertices, %d edges)" % (len(self.vertices), sum(
            len(o) + len(p) for o, p in self._succ.values()))


class PayoffGame:
    """A game with a payoff k(v) in a distributive lattice at each vertex.

    The payoff-lattice protocol, all that payoff games ask of a lattice
    (Lattice and PowersetLattice both answer it): is_distributive(),
    membership of a name (in), bottom, key (what two lattices must share
    to combine), meet2, heyting_implies and heyting_neg.
    """

    def __init__(self, game, lattice, k):
        if not lattice.is_distributive():
            raise NotHeyting("payoff lattice must be distributive")
        for v in game.vertices:
            if v not in k:
                raise ForeignElement("no payoff for vertex %r" % (v,))
            if k[v] not in lattice:
                raise ForeignElement("payoff %r outside the lattice" % (k[v],))
        self.game = game
        self.lattice = lattice
        self.k = dict(k)


def dual_game(game):
    """game with each vertex's O-moves and P-moves swapped."""
    return Game(game.vertices, game.root,
                ((v, w, pol) for v in game.vertices
                 for pol, ws in zip(_POLS, game._succ[v][::-1]) for w in ws))


def dual_payoff_game(pg):
    """Dual of a payoff game, each payoff Heyting-negated."""
    return PayoffGame(dual_game(pg.game), pg.lattice,
                      {v: pg.lattice.heyting_neg(pg.k[v])
                       for v in pg.game.vertices})


def tensor_game(a, b):
    """The product of two games' listings: a move of either factor changes
    its coordinate and leaves the other one in place, the first factor's
    moves listed first."""
    av, bv, asucc, bsucc = a.vertices, b.vertices, a._succ, b._succ
    # the edges as they are made, from the factors' rows zipped per
    # polarity: Game reads each once, so no list of them is held
    return Game([(u, w) for u in av for w in bv], (a.root, b.root),
                (((u, w), to, pol) for u in av for w in bv
                 for pol, xs, ys in zip(_POLS, asucc[u], bsucc[w])
                 for to in [(x, w) for x in xs] + [(u, y) for y in ys]))


def implication_game(a, b):
    return tensor_game(dual_game(a), b)


def _payoff_product(pa, pb, product, combine):
    if pa.lattice is not pb.lattice and pa.lattice.key != pb.lattice.key:
        raise LatticeMismatch("payoff lattices differ")
    g = product(pa.game, pb.game)
    return PayoffGame(g, pa.lattice, {(u, v): combine(pa.k[u], pb.k[v])
                                      for (u, v) in g.vertices})


def payoff_tensor(pa, pb):
    return _payoff_product(pa, pb, tensor_game, pa.lattice.meet2)


def payoff_implication(pa, pb):
    return _payoff_product(pa, pb, implication_game,
                           pa.lattice.heyting_implies)


class Strategy:
    """A deterministic set of even-length alternated plays, O moving first.

    Plays are tuples of vertices beginning at the root; the empty play is
    the one-vertex tuple (root,).  The plays are a frozenset, checked once
    when the strategy is built, and the reply table that check builds is
    kept as response().
    """

    def __init__(self, game, plays):
        self.game = game
        self.plays = frozenset(map(tuple, plays))
        self._response = _reply_table(game, self.plays)

    def response(self):
        """{play ending in an O-move: the strategy's reply}; the caller
        must not change it."""
        return self._response


def _reply_table(game, plays):
    """Check plays as a strategy on game and return its reply table.

    A play of three or more vertices checks only that its prefix p[:-2] is
    a play, then its last O-move and its last P-move.  Plays are checked
    shortest first, so that prefix has passed as a play of its own: p[-3]
    is a vertex, and by induction on length every move of every play is
    checked, each once."""
    root = game.root
    if (root,) not in plays:
        raise InvalidStrategy("must contain the empty play at the root")
    resp = {}
    for p in sorted(plays, key=len):
        if len(p) % 2 == 0:
            raise InvalidStrategy("odd number of moves in %r" % (p,))
        if p[0] != root:
            raise InvalidStrategy("play %r does not start at the root" % (p,))
        if len(p) == 1:
            continue
        if p[:-2] not in plays:
            raise InvalidStrategy("prefix of %r missing" % (p,))
        for i, pol in ((-3, "O"), (-2, "P")):
            if p[i + 1] not in game.moves(p[i], pol):
                raise InvalidStrategy(
                    "no %s-edge %r -> %r" % (pol, p[i], p[i + 1]))
        if resp.setdefault(p[:-1], p[-1]) != p[-1]:
            raise InvalidStrategy("two responses after %r: %r and %r"
                                  % (p[:-1], resp[p[:-1]], p[-1]))
    return resp


def _unfold(game, respond, state=None):
    """Every play a strategy allows on game, breadth first from the root.

    Opponent tries each move w at the end of a play p that was reached in
    state s, and respond(p, w, s) gives the strategy's (reply, next state),
    or None when it leaves w unanswered.  Returns the plays, (root,) first,
    and the maximal ones: a play at a vertex with no O-move, and p + (w,)
    for each w with no answer."""
    todo = [((game.root,), state)]
    maximal = []
    for p, s in todo:
        omoves = game.moves(p[-1], "O")
        if not omoves:
            maximal.append(p)
        for w in omoves:
            answer = respond(p, w, s)
            if answer is None:
                maximal.append(p + (w,))
            else:
                todo.append((p + (w, answer[0]), answer[1]))
    return [p for p, _ in todo], maximal


def maximal_plays(strategy):
    """Every play the strategy can be driven into on its game that cannot
    continue, in breadth-first order.  A finite strategy ends every play,
    so this ends on a cyclic game too."""
    resp = strategy.response()

    def respond(p, w, _):
        r = resp.get(p + (w,))
        return None if r is None else (r, None)
    return _unfold(strategy.game, respond)[1]


def is_winning(pg, strategy):
    """Whether every maximal play of a strategy on pg's game ends above
    bottom; a strategy on another game raises ComponentMismatch."""
    if not _same_game(strategy.game, pg.game):
        raise ComponentMismatch("strategy is not on the payoff game")
    bot = pg.lattice.bottom
    return all(pg.k[p[-1]] != bot for p in maximal_plays(strategy))


def copycat(game):
    """The mirror strategy on game -o game: each Opponent move is copied to
    the other component.  A cyclic game has mirror plays of every length,
    so a play beyond four times the vertex count raises InteractionOverflow."""
    impl = implication_game(game, game)
    cap = 4 * len(impl.vertices) + 4

    def respond(p, w, _):
        if len(p) > cap:
            raise InteractionOverflow("mirror play exceeds bound")
        # every play ends on the diagonal, and from (v, v) the mirror of an
        # O-move is a P-move of game -o game: a left O-move v -> x is a
        # P-move of game, and the mirror makes that P-move on the right; a
        # right O-move v -> y is an O-move of game, and the mirror makes it
        # on the left, where it is a P-move of the dual
        return ((w[0], w[0]) if w[1] == p[-1][1] else (w[1], w[1])), None
    return Strategy(impl, _unfold(impl, respond)[0])


def _same_game(g, h):
    """Both Games, with equal roots, equal vertex sets and, at each vertex,
    equal sets of O-moves and of P-moves: equal edge sets.  Any other
    object with a root and moves matches none, so callers raise
    ComponentMismatch for it."""
    if not (isinstance(g, Game) and isinstance(h, Game)):
        return False
    if g is h:
        return True
    hsucc = h._succ
    return g.root == h.root and g._succ.keys() == hsucc.keys() and all(
        moves == hsucc[v] or list(map(set, moves)) == list(map(set, hsucc[v]))
        for v, moves in g._succ.items())


# Strategy i of a composite is sigma (0) on X -o Y or tau (1) on Y -o Z.
# Its vertices hold its outer game (X or Z) at coordinate _OUTER[i], which
# is also that game's coordinate in X -o Z, and the middle game Y at
# _MIDDLE[i].
_OUTER, _MIDDLE = (0, 1), (1, 0)


def compose_strategies(game_x, game_y, game_z, sigma, tau):
    """Compose a strategy on X -o Y with one on Y -o Z into X -o Z.

    Runs the two strategies against each other, with the sigma and tau plays
    behind a composite play as its hidden state.  A move in the middle game
    Y is ping-ponged between them until one side answers in X or Z, or
    leaves it unanswered.  Each pass looks up a strictly longer play of
    sigma or tau, so with finite strategies every interaction and every
    composite play ends, even on cyclic games.
    """
    impl_xz = implication_game(game_x, game_z)
    # X -o Y is X -o Z when Y is Z, and Y -o Z is X -o Z when Y is X
    impl_xy = impl_xz if game_y is game_z else implication_game(game_x, game_y)
    if not _same_game(sigma.game, impl_xy):
        raise ComponentMismatch("first strategy is not on X -o Y")
    impl_yz = impl_xz if game_y is game_x else implication_game(game_y, game_z)
    if not _same_game(tau.game, impl_yz):
        raise ComponentMismatch("second strategy is not on Y -o Z")
    replies = (sigma.response(), tau.response())

    def put(v, c, u):
        """The pair v with coordinate c set to u."""
        return (u, v[1]) if c == 0 else (v[0], u)

    def respond(cp, w, hidden):
        plays = list(hidden)
        # O moved in X or in Z: the strategy with that outer game holds it
        i = 0 if w[_OUTER[0]] != cp[-1][_OUTER[0]] else 1
        plays[i] += (put(plays[i][-1], _OUTER[i], w[_OUTER[i]]),)
        while True:
            r = replies[i].get(plays[i])
            if r is None:
                return None
            plays[i] += (r,)
            if r[_OUTER[i]] != plays[i][-2][_OUTER[i]]:
                # answered in its outer game: a composite P-move
                return put(w, _OUTER[i], r[_OUTER[i]]), tuple(plays)
            # answered in Y: the other strategy's O-move
            j = 1 - i
            plays[j] += (put(plays[j][-1], _MIDDLE[j], r[_MIDDLE[i]]),)
            i = j
    hidden = ((sigma.game.root,), (tau.game.root,))
    return Strategy(impl_xz, _unfold(impl_xz, respond, hidden)[0])
