"""Two-player graph games with lattice-valued payoffs.

A game is a rooted graph whose edges are owned by Opponent ("O") or Player
("P"); plays alternate O first.  Payoff games attach a distributive-lattice
value to every vertex; a strategy wins when every maximal play it allows
ends strictly above bottom.  Tensor is the product graph, the dual flips
edge ownership, and implication is tensor of the dual with the consequent,
with payoffs combined by meet and by Heyting implication respectively.
Any object with a root and moves(v, pol) is a game: Dual, Tensor and
implication compose such games lazily, walk lists any game breadth-first,
and a Game is that walked listing, in one vertex order (see materialize).
ranked lists a game by the reprs of its vertices, as ints that index
successor tables, and ranked_tensor is Tensor on that form.
A strategy is a set of plays.  One breadth-first unfolding of plays against
a response (_unfold) lists the maximal plays of a strategy, copycat, and
the composite of two strategies with the middle game hidden.
"""

from collections import namedtuple

from .errors import (
    ComponentMismatch,
    ForeignElement,
    InteractionOverflow,
    InvalidStrategy,
    LatticeMismatch,
    NotHeyting,
)
_POLS = ("O", "P")
_FLIP = {"O": "P", "P": "O"}


def walk(game):
    """The vertices reachable from the root of a game, in breadth-first
    order, and the edges (v, w, pol) leaving them.  Equal vertices are one
    shared object, the first one reached."""
    seen = {game.root: game.root}
    order = [game.root]
    edges = []
    for v in order:
        for pol in _POLS:
            for w in game.moves(v, pol):
                u = seen.get(w)
                if u is None:
                    u = seen[w] = w
                    order.append(w)
                edges.append((v, u, pol))
    return order, edges


class Game:
    def __init__(self, vertices, root, edges):
        vertices = list(vertices)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise ValueError("duplicate vertices")
        if root not in vset:
            raise ForeignElement("root %r is not a vertex" % (root,))
        self.root = root
        self._out = {v: [] for v in vertices}
        for frm, to, pol in edges:
            if frm not in vset or to not in vset:
                raise ForeignElement("edge (%r, %r) leaves the vertex set"
                                     % (frm, to))
            if pol not in _POLS:
                raise ValueError("edge polarity must be 'O' or 'P'")
            self._out[frm].append((to, pol))
        self.vertices, self.edges = walk(self)
        if len(self.vertices) != len(vset):
            raise ValueError("unreachable vertices: %r"
                             % sorted(vset.difference(self.vertices)))

    def moves(self, v, pol):
        return [w for w, p in self._out[v] if p == pol]

    def __repr__(self):
        return "Game(%d vertices, %d edges)" % (len(self.vertices),
                                                len(self.edges))


class PayoffGame:
    """A game with a payoff k(v) in a distributive lattice at each vertex."""

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


class Dual:
    """A game with the owner of every move swapped."""

    def __init__(self, game):
        self.game = game
        self.root = game.root

    def moves(self, v, pol):
        return self.game.moves(v, _FLIP[pol])


class Tensor:
    """The product of two games: a move of either factor changes its
    coordinate and leaves the other one in place."""

    def __init__(self, a, b):
        self.a, self.b = a, b
        self.root = (a.root, b.root)

    def moves(self, v, pol):
        u, w = v
        return ([(x, w) for x in self.a.moves(u, pol)]
                + [(u, y) for y in self.b.moves(w, pol)])


def implication(a, b):
    return Tensor(Dual(a), b)


Ranked = namedtuple("Ranked", "vertices root succ")


def ranked(game):
    """Any game, walked and ranked: its vertices sorted by repr, the rank
    of its root, and for each polarity the successors of each rank as
    ranks, in move order."""
    vertices, edges = walk(game)
    vertices.sort(key=repr)
    rank = {v: i for i, v in enumerate(vertices)}
    succ = {pol: [[] for _ in vertices] for pol in _POLS}
    for v, w, pol in edges:
        succ[pol][rank[v]].append(rank[w])
    return Ranked(vertices, rank[game.root], succ)


def ranked_tensor(a, b):
    """The Tensor of two ranked games, ranked: the pair of ranks (i, j) is
    rank i * nb + j for nb = len(b.vertices), named (a.vertices[i],
    b.vertices[j]), and a move changes one coordinate, a's moves first.

    When both factors list their vertices by repr, so does the tensor: a
    tuple's or a string's repr is prefix-free, and an int's is followed in
    a pair's repr by "," or ")", below every digit, so comparing the reprs
    of two pairs compares the reprs of their first coordinates, then of
    their second ones."""
    nb = len(b.vertices)
    succ = {pol: [[x * nb + j for x in arow] + [i * nb + y for y in brow]
                  for i, arow in enumerate(a.succ[pol])
                  for j, brow in enumerate(b.succ[pol])] for pol in _POLS}
    return Ranked([(u, w) for u in a.vertices for w in b.vertices],
                  a.root * nb + b.root, succ)


def materialize(game):
    """Any game, walked and listed as a Game."""
    vertices, edges = walk(game)
    return Game(vertices, game.root, edges)


def dual_game(game):
    return materialize(Dual(game))


def dual_payoff_game(pg):
    """Dual of a payoff game, each payoff Heyting-negated."""
    return PayoffGame(dual_game(pg.game), pg.lattice,
                      {v: pg.lattice.heyting_neg(pg.k[v])
                       for v in pg.game.vertices})


def tensor_game(a, b):
    return materialize(Tensor(a, b))


def implication_game(a, b):
    return materialize(implication(a, b))


def _payoff_product(pa, pb, product, combine):
    if pa.lattice is not pb.lattice \
            and pa.lattice.elements != pb.lattice.elements:
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
    the one-vertex tuple (root,).
    """

    def __init__(self, game, plays):
        self.game = game
        self.plays = set(map(tuple, plays))
        validate_strategy(self)

    def response(self):
        return {p[:-1]: p[-1] for p in self.plays if len(p) >= 3}


def validate_strategy(strategy):
    game, plays = strategy.game, strategy.plays
    if (game.root,) not in plays:
        raise InvalidStrategy("must contain the empty play at the root")
    for p in plays:
        if len(p) % 2 == 0:
            raise InvalidStrategy("odd number of moves in %r" % (p,))
        if p[0] != game.root:
            raise InvalidStrategy("play %r does not start at the root" % (p,))
        for i in range(len(p) - 1):
            pol = "O" if i % 2 == 0 else "P"
            if p[i + 1] not in game.moves(p[i], pol):
                raise InvalidStrategy(
                    "no %s-edge %r -> %r" % (pol, p[i], p[i + 1]))
        if len(p) >= 3 and p[:-2] not in plays:
            raise InvalidStrategy("prefix of %r missing" % (p,))
    resp = {}
    for p in plays:
        if len(p) >= 3 and resp.setdefault(p[:-1], p[-1]) != p[-1]:
            raise InvalidStrategy("two responses after %r: %r and %r"
                                  % (p[:-1], resp[p[:-1]], p[-1]))
    return True


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


def maximal_plays(game, strategy):
    """Every play the strategy can be driven into that cannot continue, in
    breadth-first order.  A finite strategy ends every play, so this ends
    on a cyclic game too."""
    resp = strategy.response()

    def respond(p, w, _):
        r = resp.get(p + (w,))
        return None if r is None else (r, None)
    return _unfold(game, respond)[1]


def is_winning(pg, strategy):
    bot = pg.lattice.bottom
    return all(pg.k[p[-1]] != bot for p in maximal_plays(pg.game, strategy))


def copycat(game):
    """The mirror strategy on game -o game: each Opponent move is copied to
    the other component.  A cyclic game has mirror plays of every length,
    so a play beyond four times the vertex count raises InteractionOverflow."""
    impl = implication(game, game)
    cap = 4 * len(walk(impl)[0]) + 4

    def respond(p, w, _):
        if len(p) > cap:
            raise InteractionOverflow("mirror play exceeds bound")
        mirror = (w[0], w[0]) if w[1] == p[-1][1] else (w[1], w[1])
        if mirror in impl.moves(w, "P"):
            return mirror, None
    return Strategy(impl, _unfold(impl, respond)[0])


def _same_game(g, h):
    """Equal roots and walked edge sets, so equal vertex sets too."""
    return g.root == h.root and set(walk(g)[1]) == set(walk(h)[1])


def compose_strategies(game_x, game_y, game_z, sigma, tau):
    """Compose a strategy on X -o Y with one on Y -o Z into X -o Z.

    Runs the two strategies against each other, with the sigma and tau plays
    behind a composite play as its hidden state.  A move in the middle game
    Y is ping-ponged between them until one side answers in X or Z, or
    leaves it unanswered.  Each pass looks up a strictly longer play of
    sigma or tau, so with finite strategies every interaction and every
    composite play ends, even on cyclic games.
    """
    impl_xz = implication(game_x, game_z)
    if not _same_game(sigma.game, implication(game_x, game_y)):
        raise ComponentMismatch("first strategy is not on X -o Y")
    if not _same_game(tau.game, implication(game_y, game_z)):
        raise ComponentMismatch("second strategy is not on Y -o Z")
    resp_s, resp_t = sigma.response(), tau.response()

    def respond(cp, w, hidden):
        sq, tq = hidden
        wx, wz = w
        if wx != cp[-1][0]:
            side, sq = "s", sq + ((wx, sq[-1][1]),)
        else:
            side, tq = "t", tq + ((tq[-1][0], wz),)
        while True:
            if side == "s":
                r = resp_s.get(sq)
                if r is None:
                    return None
                sq += (r,)
                if r[0] != sq[-2][0]:
                    # answered in X: a composite P-move
                    return (r[0], wz), (sq, tq)
                # answered in Y: forwarded to tau as an O-move
                tq += ((r[1], tq[-1][1]),)
                side = "t"
            else:
                r = resp_t.get(tq)
                if r is None:
                    return None
                tq += (r,)
                if r[1] != tq[-2][1]:
                    return (wx, r[1]), (sq, tq)
                sq += ((sq[-1][0], r[0]),)
                side = "s"
    hidden = ((sigma.game.root,), (tau.game.root,))
    return Strategy(impl_xz, _unfold(impl_xz, respond, hidden)[0])
