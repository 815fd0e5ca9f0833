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
"""

from collections import deque

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


class Memo:
    """A game whose moves are computed once per (vertex, polarity), equal
    successors shared as one object; callers must not change the lists."""

    def __init__(self, game):
        self.game = game
        self.root = game.root
        self._moves = {}
        self._shared = {self.root: self.root}

    def moves(self, v, pol):
        out = self._moves.get((v, pol))
        if out is None:
            out = self._moves[v, pol] = [self._shared.setdefault(w, w)
                                         for w in self.game.moves(v, pol)]
        return out


def materialize(game):
    """Any game, walked and listed as a Game."""
    vertices, edges = walk(game)
    return Game(vertices, game.root, edges)


def dual_game(game):
    return materialize(Dual(game))


def dual_payoff_game(pg, mode="negate"):
    """Dual of a payoff game.  Payoffs are Heyting-negated by default; mode
    'copy' keeps them, for lattices whose negation collapses too much."""
    g = dual_game(pg.game)
    if mode == "negate":
        k = {v: pg.lattice.heyting_neg(pg.k[v]) for v in pg.game.vertices}
    elif mode == "copy":
        k = dict(pg.k)
    else:
        raise ValueError("mode must be 'negate' or 'copy'")
    return PayoffGame(g, pg.lattice, k)


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


def maximal_plays(game, strategy):
    """Every play the strategy can be driven into that cannot continue."""
    resp = strategy.response()
    cap = 4 * len(walk(game)[0]) + 4
    out = []
    stack = [(game.root,)]
    while stack:
        p = stack.pop()
        if len(p) > cap:
            raise InteractionOverflow(
                "play of %d moves; the game graph may be cyclic" % (len(p) - 1,))
        omoves = game.moves(p[-1], "O")
        if not omoves:
            out.append(p)
            continue
        for w in omoves:
            q = p + (w,)
            r = resp.get(q)
            if r is None:
                out.append(q)
            else:
                stack.append(q + (r,))
    return out


def is_winning(pg, strategy):
    bot = pg.lattice.bottom
    return all(pg.k[p[-1]] != bot for p in maximal_plays(pg.game, strategy))


def copycat(game):
    """The mirror strategy on game -o game."""
    impl = implication(game, game)
    cap = 4 * len(walk(impl)[0]) + 4
    plays = {(impl.root,)}
    queue = deque([(impl.root,)])
    while queue:
        p = queue.popleft()
        if len(p) > cap:
            raise InteractionOverflow("mirror play exceeds bound")
        v = p[-1][1]
        for w in impl.moves(p[-1], "O"):
            mirror = (w[0], w[0]) if w[1] == v else (w[1], w[1])
            if mirror not in impl.moves(w, "P"):
                continue
            q = p + (w, mirror)
            if q not in plays:
                plays.add(q)
                queue.append(q)
    return Strategy(impl, plays)


def _same_game(g, h):
    """Equal roots and walked edge sets, so equal vertex sets too."""
    return g.root == h.root and set(walk(g)[1]) == set(walk(h)[1])


def compose_strategies(game_x, game_y, game_z, sigma, tau):
    """Compose a strategy on X -o Y with one on Y -o Z into X -o Z.

    Runs the two strategies against each other: moves in the shared middle
    game are ping-ponged until one side answers in X or Z.  The number of
    interaction steps is capped by the product of the component sizes.
    """
    impl_xz = implication(game_x, game_z)
    if not _same_game(sigma.game, implication(game_x, game_y)):
        raise ComponentMismatch("first strategy is not on X -o Y")
    if not _same_game(tau.game, implication(game_y, game_z)):
        raise ComponentMismatch("second strategy is not on Y -o Z")

    resp_s = sigma.response()
    resp_t = tau.response()
    cap = 4 * len(walk(game_x)[0]) * len(walk(game_y)[0]) \
        * len(walk(game_z)[0])

    plays = {(impl_xz.root,)}
    # state: composite play, sigma play, tau play (all even length)
    queue = deque([((impl_xz.root,), (sigma.game.root,), (tau.game.root,))])
    while queue:
        cp, sp, tp = queue.popleft()
        if len(cp) > cap:
            raise InteractionOverflow("composite play exceeds bound")
        x, z = cp[-1]
        _, y_s = sp[-1]
        for w in impl_xz.moves((x, z), "O"):
            wx, wz = w
            if wx != x:
                side, sq, tq = "s", sp + ((wx, y_s),), tp
            else:
                y_t, _ = tp[-1]
                side, sq, tq = "t", sp, tp + ((y_t, wz),)
            steps = 0
            while True:
                steps += 1
                if steps > cap:
                    raise InteractionOverflow(
                        "interaction between strategies did not settle")
                if side == "s":
                    r = resp_s.get(sq)
                    if r is None:
                        break
                    rx, ry = r
                    sq = sq + (r,)
                    if rx != sq[-2][0]:
                        # answered in X: composite P-move
                        nq = cp + (w, (rx, wz))
                        plays.add(nq)
                        queue.append((nq, sq, tq))
                        break
                    # answered in Y: forward to tau as an O-move
                    tq = tq + ((ry, tq[-1][1]),)
                    side = "t"
                else:
                    r = resp_t.get(tq)
                    if r is None:
                        break
                    ry, rz = r
                    tq = tq + (r,)
                    if rz != tq[-2][1]:
                        nq = cp + (w, (wx, rz))
                        plays.add(nq)
                        queue.append((nq, sq, tq))
                        break
                    sq = sq + ((sq[-1][0], ry),)
                    side = "s"
    return Strategy(impl_xz, plays)

