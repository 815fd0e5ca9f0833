from collections import Counter

import pytest

from conftest import (chain, count_moves, positionally_winning,
                      random_distributive_lattice, random_game, random_payoff,
                      random_strategy, seeded)
from test_differential import (Dual, Tensor, alternating_chain, implication,
                               old_dual_game, old_tensor_game, walk)
from phasegame import games as games_module
from phasegame.errors import (ComponentMismatch, ForeignElement,
                              InteractionOverflow, InvalidStrategy,
                              LatticeMismatch, NotHeyting)
from phasegame.games import (Game, PayoffGame, Strategy, _same_game,
                             compose_strategies, copycat, dual_game,
                             dual_payoff_game, implication_game, is_winning,
                             maximal_plays, payoff_implication, payoff_tensor,
                             tensor_game)
from phasegame.lattice import Lattice, PowersetLattice


def line_game():
    # r -O-> s -P-> t
    return Game(["r", "s", "t"], "r", [("r", "s", "O"), ("s", "t", "P")])


def point(name="r"):
    return Game([name], name, [])


# game construction ------------------------------------------------------

def test_rejects_duplicate_vertices():
    with pytest.raises(ValueError, match="duplicate"):
        Game(["r", "r"], "r", [])


def test_rejects_foreign_root():
    with pytest.raises(ForeignElement):
        Game(["r"], "s", [])


def test_rejects_foreign_edge_endpoint():
    with pytest.raises(ForeignElement):
        Game(["r"], "r", [("r", "s", "O")])
    # the message names the endpoints as the edge gave them
    with pytest.raises(ForeignElement,
                       match=r"^edge \('r', 'zz'\) leaves the vertex set$"):
        Game(["r"], "r", [("r", "zz", "O")])
    with pytest.raises(ForeignElement,
                       match=r"^edge \('q', 'r'\) leaves the vertex set$"):
        Game(["r"], "r", [("q", "r", "P")])


def test_rejects_bad_polarity():
    with pytest.raises(ValueError, match="polarity"):
        Game(["r", "s"], "r", [("r", "s", "X")])


def test_rejects_unreachable_vertices():
    with pytest.raises(ValueError, match="unreachable"):
        Game(["r", "s", "t"], "r", [("s", "t", "O")])
    # named in the order the vertex list gives them, with no sort, so
    # vertices of types that do not compare are named too
    with pytest.raises(ValueError,
                       match=r"^unreachable vertices: \['t', 's'\]$"):
        Game(["t", "r", "s"], "r", [("s", "t", "O")])
    with pytest.raises(ValueError,
                       match=r"^unreachable vertices: \[1, 'x'\]$"):
        Game(["r", 1, "x"], "r", [])


def test_game_lists_vertices_and_edges_in_walk_order():
    # given out of walk order: t before s, and r's P-edge before its O-edge
    edges = [("s", "t", "O"), ("r", "t", "P"), ("r", "s", "O")]
    g = Game(["t", "s", "r"], "r", edges)
    assert g.vertices == ["r", "s", "t"]
    assert g.edges == [("r", "s", "O"), ("r", "t", "P"), ("s", "t", "O")]
    for v in "rst":
        for pol in "OP":
            assert g.moves(v, pol) == [t for f, t, p in edges
                                       if (f, p) == (v, pol)]
    rng = seeded(14)
    for _ in range(20):
        g = random_game(rng)
        vertices, edges = g.vertices[:], g.edges[:]
        rng.shuffle(vertices)
        rng.shuffle(edges)
        h = Game(vertices, g.root, edges)
        assert (h.vertices, h.edges) == walk(h)
        for v in g.vertices:
            for pol in "OP":
                assert sorted(h.moves(v, pol)) == sorted(g.moves(v, pol))


def test_moves_filters_by_polarity():
    g = Game(["r", "s", "t"], "r", [("r", "s", "O"), ("r", "t", "P")])
    assert g.moves("r", "O") == ["s"]
    assert g.moves("r", "P") == ["t"]
    assert g.moves("s", "O") == []


def test_moves_returns_a_new_list():
    g = line_game()
    listing = (g.vertices[:], g.edges[:])
    for v in g.vertices:
        for pol in "OP":
            want = g.moves(v, pol)
            g.moves(v, pol).append("x")
            assert g.moves(v, pol) == want
    # edges is read off the successor lists, a new list on every read
    g.edges.append(("r", "t", "O"))
    assert (g.vertices, g.edges) == listing


# dual, tensor, implication ----------------------------------------------

def test_dual_is_involutive():
    rng = seeded(1)
    for _ in range(25):
        g = random_game(rng)
        gg = dual_game(dual_game(g))
        assert gg.vertices == g.vertices
        assert gg.root == g.root
        assert gg.edges == g.edges


def test_dual_flips_every_edge():
    g = line_game()
    d = dual_game(g)
    assert d.edges == [("r", "s", "P"), ("s", "t", "O")]


def test_tensor_size_formulas():
    rng = seeded(2)
    for _ in range(30):
        a, b = random_game(rng), random_game(rng)
        t = tensor_game(a, b)
        assert len(t.vertices) == len(a.vertices) * len(b.vertices)
        assert len(t.edges) == (len(a.edges) * len(b.vertices)
                                + len(a.vertices) * len(b.edges))


def test_tensor_unit_is_the_point_game():
    rng = seeded(3)
    u = point("u")
    for _ in range(10):
        g = random_game(rng)
        t = tensor_game(u, g)
        assert [v for _, v in t.vertices] == g.vertices
        assert [(f[1], to[1], p) for f, to, p in t.edges] == g.edges


def test_tensor_commutative_up_to_swap():
    rng = seeded(4)
    for _ in range(20):
        a, b = random_game(rng), random_game(rng)
        ab, ba = tensor_game(a, b), tensor_game(b, a)
        swap = lambda v: (v[1], v[0])
        assert sorted(map(swap, ab.vertices)) == sorted(ba.vertices)
        assert swap(ab.root) == ba.root
        assert (sorted((swap(f), swap(t), p) for f, t, p in ab.edges)
                == sorted(ba.edges))


def test_tensor_associative_up_to_reassociation():
    rng = seeded(5)
    for _ in range(15):
        a, b, c = (random_game(rng, 4) for _ in range(3))
        left = tensor_game(tensor_game(a, b), c)
        right = tensor_game(a, tensor_game(b, c))
        flat = lambda v: (v[0][0], v[0][1], v[1])
        unflat = lambda v: (v[0], v[1][0], v[1][1])
        assert sorted(map(flat, left.vertices)) == sorted(map(unflat, right.vertices))
        assert (sorted((flat(f), flat(t), p) for f, t, p in left.edges)
                == sorted((unflat(f), unflat(t), p) for f, t, p in right.edges))


def test_dual_distributes_over_tensor():
    rng = seeded(6)
    for _ in range(20):
        a, b = random_game(rng), random_game(rng)
        lhs = dual_game(tensor_game(a, b))
        rhs = tensor_game(dual_game(a), dual_game(b))
        assert lhs.vertices == rhs.vertices
        assert lhs.edges == rhs.edges


def test_implication_flips_only_antecedent():
    a, b = line_game(), point("z")
    impl = implication_game(a, b)
    assert impl.root == ("r", "z")
    assert (("r", "z"), ("s", "z"), "P") in impl.edges
    assert (("s", "z"), ("t", "z"), "O") in impl.edges


def assert_lists_as(root, vertices, edges, oracle):
    assert root == oracle.root
    assert set(vertices) == set(oracle.vertices)
    assert len(edges) == len(oracle.edges)
    assert set(edges) == set(oracle.edges)


def test_implicit_games_walk_to_the_explicit_ones():
    # each Game listing is the walk of the earlier implicit game, in order,
    # and both list the earlier list-based construction
    rng = seeded(12)
    for _ in range(30):
        a, b, c = (random_game(rng, 4) for _ in range(3))
        for implicit, listed, oracle in [
                (Dual(a), dual_game(a), old_dual_game(a)),
                (Tensor(a, b), tensor_game(a, b), old_tensor_game(a, b)),
                (implication(a, b), implication_game(a, b),
                 old_tensor_game(old_dual_game(a), b)),
                (Tensor(Tensor(a, b), c), tensor_game(tensor_game(a, b), c),
                 old_tensor_game(old_tensor_game(a, b), c))]:
            assert (listed.root, listed.vertices, listed.edges) == \
                (implicit.root, *walk(implicit))
            assert_lists_as(implicit.root, *walk(implicit), oracle)
            assert_lists_as(listed.root, listed.vertices, listed.edges,
                            oracle)


def assert_moves_are_listed(game):
    """The root and every vertex moves returns are the objects that
    game.vertices holds."""
    listed = {id(v) for v in game.vertices}
    assert id(game.root) in listed
    assert all(id(w) in listed for v in game.vertices for pol in "OP"
               for w in game.moves(v, pol))


def assert_edges_are_listed(vertices, edges):
    """Every endpoint of edges is the object that vertices holds."""
    shared = {v: v for v in vertices}
    assert all(shared[v] is v and shared[w] is w for v, w, _ in edges)


def test_walk_shares_equal_vertices():
    rng = seeded(13)
    for _ in range(20):
        a, b = random_game(rng), random_game(rng)
        assert_edges_are_listed(*walk(Tensor(a, b)))
        for listed in (tensor_game(a, b), implication_game(a, b),
                       dual_game(tensor_game(a, b))):
            assert_edges_are_listed(listed.vertices, listed.edges)
            assert_moves_are_listed(listed)


def test_constructions_read_their_arguments_rows(monkeypatch):
    # dual_game, tensor_game and implication_game read their arguments'
    # successor lists, and ask no Game for a move
    rng = seeded(15)
    games = [random_game(rng) for _ in range(6)]
    calls = count_moves(monkeypatch)
    for a, b in zip(games, games[1:]):
        tensor_game(a, b)
        dual_game(a)
        implication_game(a, b)
    assert calls == Counter()


# payoff games -----------------------------------------------------------

def test_payoff_requires_distributive_lattice():
    m3 = Lattice(["0", "x", "y", "z", "1"],
                 [("0", "x"), ("0", "y"), ("0", "z"),
                  ("x", "1"), ("y", "1"), ("z", "1")], "0", "1")
    with pytest.raises(NotHeyting):
        PayoffGame(point(), m3, {"r": "x"})


def test_payoff_requires_total_assignment():
    with pytest.raises(ForeignElement, match="no payoff"):
        PayoffGame(line_game(), chain(3), {"r": "1", "s": "1"})


def test_payoff_values_must_be_lattice_elements():
    with pytest.raises(ForeignElement):
        PayoffGame(point(), chain(3), {"r": "9"})


def test_payoff_tensor_meets_pointwise():
    lat = chain(3)
    pa = PayoffGame(point("a"), lat, {"a": "1"})
    pb = PayoffGame(point("b"), lat, {"b": "2"})
    pt = payoff_tensor(pa, pb)
    assert pt.k[("a", "b")] == "1"


def test_payoff_implication_residuates_pointwise():
    lat = chain(3)
    cases = [("2", "1", "1"), ("0", "1", "2"), ("1", "1", "2"),
             ("2", "0", "0"), ("1", "2", "2")]
    for kx, ky, want in cases:
        pa = PayoffGame(point("a"), lat, {"a": kx})
        pb = PayoffGame(point("b"), lat, {"b": ky})
        pi = payoff_implication(pa, pb)
        assert pi.k[("a", "b")] == want, (kx, ky)


def test_payoff_lattice_mismatch():
    pa = PayoffGame(point("a"), chain(3), {"a": "1"})
    pb = PayoffGame(point("b"), chain(4), {"b": "1"})
    with pytest.raises(LatticeMismatch):
        payoff_tensor(pa, pb)
    with pytest.raises(LatticeMismatch):
        payoff_implication(pa, pb)
    # the same names in another order: 0 < 2 < 1, where the meet of 1 and
    # 2 is 2, not chain(3)'s 1
    swapped = Lattice(["0", "1", "2"], [("0", "2"), ("2", "1")], "0", "1")
    pb = PayoffGame(point("b"), swapped, {"b": "2"})
    with pytest.raises(LatticeMismatch):
        payoff_tensor(pa, pb)
    with pytest.raises(LatticeMismatch):
        payoff_implication(pa, pb)
    # equal lattices combine, also when declared in another element order
    pb = PayoffGame(point("b"), chain(3), {"b": "2"})
    assert payoff_tensor(pa, pb).k == {("a", "b"): "1"}
    reordered = Lattice(["0", "2", "1"], [("0", "1"), ("1", "2")], "0", "2")
    pb = PayoffGame(point("b"), reordered, {"b": "2"})
    assert payoff_tensor(pa, pb).k == {("a", "b"): "1"}
    assert payoff_implication(pa, pb).k == {("a", "b"): "2"}
    # powersets combine by their base
    features = ["f%02d" % i for i in range(20)]
    lats = [PowersetLattice(features) for _ in range(2)]
    top = lats[0].name(lats[0].complement(0))
    pa, pb = (PayoffGame(point(v), lat, {v: top})
              for v, lat in zip("ab", lats))
    assert payoff_tensor(pa, pb).k == {("a", "b"): top}
    pb = PayoffGame(point("b"), PowersetLattice(features[1:]),
                    {"b": "f01"})
    with pytest.raises(LatticeMismatch):
        payoff_tensor(pa, pb)
    # a Lattice is not a PowersetLattice with the same elements and order
    pb = PayoffGame(point("b"), Lattice(["", "a"], [("", "a")], "", "a"),
                    {"b": "a"})
    with pytest.raises(LatticeMismatch):
        payoff_tensor(PayoffGame(point("a"), PowersetLattice(["a"]),
                                 {"a": "a"}), pb)


def test_dual_payoff_negates_every_payoff():
    lat = chain(3)
    pg = PayoffGame(line_game(), lat, {"r": "0", "s": "1", "t": "2"})
    neg = dual_payoff_game(pg)
    assert neg.k == {"r": "2", "s": "0", "t": "0"}
    assert neg.game.edges == [("r", "s", "P"), ("s", "t", "O")]


# strategies and plays ---------------------------------------------------

def test_strategy_requires_root_play():
    with pytest.raises(InvalidStrategy, match="empty play"):
        Strategy(line_game(), {("r", "s", "t")})


def test_strategy_rejects_odd_number_of_moves():
    with pytest.raises(InvalidStrategy, match="odd number"):
        Strategy(line_game(), {("r",), ("r", "s")})


def test_strategy_rejects_wrong_start():
    with pytest.raises(InvalidStrategy, match="root"):
        Strategy(line_game(), {("r",), ("s",)})


def test_strategy_rejects_wrong_polarity():
    g = Game(["r", "s", "t"], "r", [("r", "s", "O"), ("s", "t", "O")])
    with pytest.raises(InvalidStrategy, match="no P-edge"):
        Strategy(g, {("r",), ("r", "s", "t")})


def test_strategy_rejects_missing_prefix():
    g = Game(["r", "s", "t", "u", "w"], "r",
             [("r", "s", "O"), ("s", "t", "P"),
              ("t", "u", "O"), ("u", "w", "P")])
    with pytest.raises(InvalidStrategy, match="prefix"):
        Strategy(g, {("r",), ("r", "s", "t", "u", "w")})


def test_strategy_rejects_nondeterminism():
    g = Game(["r", "s", "t1", "t2"], "r",
             [("r", "s", "O"), ("s", "t1", "P"), ("s", "t2", "P")])
    with pytest.raises(InvalidStrategy, match="two responses"):
        Strategy(g, {("r",), ("r", "s", "t1"), ("r", "s", "t2")})


def test_strategy_rejects_a_play_through_no_vertex():
    # no move is asked of a vertex the game does not have, lazy or not
    with pytest.raises(InvalidStrategy, match="prefix"):
        Strategy(line_game(), {("r",), ("r", "s", "x", "y", "z")})
    with pytest.raises(InvalidStrategy, match="no P-edge 's' -> 'x'"):
        Strategy(line_game(), {("r",), ("r", "s", "x"),
                               ("r", "s", "x", "y", "z")})
    g = Tensor(line_game(), line_game())
    with pytest.raises(InvalidStrategy, match="prefix"):
        Strategy(g, {(g.root,), (g.root, ("s", "r"), "x", "y", "z")})


class CountedMoves:
    """A game that counts the moves asked of it."""

    def __init__(self, game):
        self.game, self.root, self.calls = game, game.root, 0

    def moves(self, v, pol):
        self.calls += 1
        return self.game.moves(v, pol)


def test_strategy_checks_each_move_once():
    # a play checks its last two moves and finds its prefix among the
    # plays, so building the strategy asks at most two moves per play
    g = tensor_game(alternating_chain(5), alternating_chain(5))
    cc = copycat(g)
    counted = CountedMoves(cc.game)
    s = Strategy(counted, cc.plays)
    assert len(s.plays) == 923
    assert counted.calls <= 2 * len(s.plays)
    # the reply table is built once and kept
    assert s.response() is s.response()
    assert s.response() == cc.response() == {
        p[:-1]: p[-1] for p in cc.plays if len(p) >= 3}


def test_strategy_on_an_unlisted_game_is_on_no_game():
    # a Strategy is built on any game with a root and moves, but is_winning
    # and compose_strategies compare listed Games, so a strategy on the
    # counting wrapper above is on none of them, even one wrapping the Game
    x = point()
    s = Strategy(CountedMoves(x), {(x.root,)})
    pg = PayoffGame(x, chain(2), {x.root: "1"})
    with pytest.raises(ComponentMismatch, match="not on the payoff"):
        is_winning(pg, s)
    counted = Strategy(CountedMoves(copycat(x).game), copycat(x).plays)
    with pytest.raises(ComponentMismatch, match="first strategy"):
        compose_strategies(x, x, x, counted, copycat(x))
    with pytest.raises(ComponentMismatch, match="second strategy"):
        compose_strategies(x, x, x, copycat(x), counted)


def test_maximal_plays_answered_and_unanswered():
    g = line_game()
    answered = Strategy(g, {("r",), ("r", "s", "t")})
    assert maximal_plays(answered) == [("r", "s", "t")]
    silent = Strategy(g, {("r",)})
    assert maximal_plays(silent) == [("r", "s")]


def test_maximal_plays_of_a_finite_strategy_on_a_cyclic_game():
    # r -O-> s -P-> r forever; the strategy answers twice, so the third
    # O-move is the one unanswered ending
    g = Game(["r", "s"], "r", [("r", "s", "O"), ("s", "r", "P")])
    twice = Strategy(g, {("r",), ("r", "s", "r"), ("r", "s", "r", "s", "r")})
    assert maximal_plays(twice) == [("r", "s", "r", "s", "r", "s")]


def test_is_winning_checks_every_ending():
    lat = chain(3)
    g = line_game()
    pg = PayoffGame(g, lat, {"r": "2", "s": "0", "t": "1"})
    assert is_winning(pg, Strategy(g, {("r",), ("r", "s", "t")}))
    assert not is_winning(pg, Strategy(g, {("r",)}))


def test_is_winning_rejects_another_games_strategy():
    # a strategy on r -O-> a -P-> b, r -O-> c is judged only against its
    # own game, which a copy listed in another order still is
    lat = chain(2)
    own = Game(["r", "a", "b", "c"], "r",
               [("r", "a", "O"), ("a", "b", "P"), ("r", "c", "O")])
    s = Strategy(own, {("r",), ("r", "a", "b")})
    copy = Game(["c", "b", "a", "r"], "r",
                [("a", "b", "P"), ("r", "c", "O"), ("r", "a", "O")])
    assert copy.vertices != own.vertices
    for g in (own, copy):
        assert is_winning(PayoffGame(g, lat, dict.fromkeys("rabc", "1")), s)
    assert compose_strategies(own, own, own, copycat(copy),
                              copycat(own)).plays == copycat(own).plays
    other = Game(["r", "x"], "r", [("r", "x", "O")])
    swapped = Game(["r", "a", "c"], "r", [("r", "a", "O"), ("a", "c", "P")])
    for pg in (PayoffGame(other, lat, {"r": "1", "x": "0"}),
               PayoffGame(swapped, lat, dict.fromkeys("rac", "1"))):
        with pytest.raises(ComponentMismatch, match="not on the payoff"):
            is_winning(pg, s)


# copycat and composition ------------------------------------------------

def test_copycat_stays_on_the_diagonal():
    rng = seeded(7)
    for _ in range(20):
        g = random_game(rng)
        cc = copycat(g)
        for p in cc.plays:
            assert p[-1][0] == p[-1][1]


def test_copycat_wins_self_implication():
    rng = seeded(8)
    lat = chain(3)
    for _ in range(20):
        g = random_game(rng)
        pg = random_payoff(rng, lat, g)
        assert is_winning(payoff_implication(pg, pg), copycat(g))


def test_copycat_overflows_on_cyclic_game():
    g = Game(["r", "s"], "r", [("r", "s", "O"), ("s", "r", "P")])
    with pytest.raises(InteractionOverflow):
        copycat(g)


def test_compose_neutrality():
    rng = seeded(9)
    for _ in range(300):
        x, y = random_game(rng), random_game(rng)
        sigma = random_strategy(rng, implication_game(x, y))
        left = compose_strategies(x, x, y, copycat(x), sigma)
        right = compose_strategies(x, y, y, sigma, copycat(y))
        assert left.plays == sigma.plays
        assert right.plays == sigma.plays


def test_compose_copycat_with_itself():
    rng = seeded(10)
    for _ in range(15):
        g = random_game(rng)
        cc = copycat(g)
        assert compose_strategies(g, g, g, cc, cc).plays == cc.plays


def test_compose_lists_x_implies_z_once_for_one_game(monkeypatch):
    # X -o Y is X -o Z when Y is Z, and Y -o Z is X -o Z when Y is X, so
    # copycat;copycat with X, Y and Z one game lists one implication game
    g = tensor_game(alternating_chain(3), alternating_chain(3))
    cc = copycat(g)
    calls = []
    monkeypatch.setattr(games_module, "implication_game",
                        lambda a, b: calls.append((a, b)) or
                        implication_game(a, b))
    assert compose_strategies(g, g, g, cc, cc).plays == cc.plays
    assert calls == [(g, g)]


def test_compose_associative():
    rng = seeded(11)
    for _ in range(300):
        w, x, y, z = (random_game(rng, 4) for _ in range(4))
        s1 = random_strategy(rng, implication_game(w, x))
        s2 = random_strategy(rng, implication_game(x, y))
        s3 = random_strategy(rng, implication_game(y, z))
        a = compose_strategies(
            w, y, z, compose_strategies(w, x, y, s1, s2), s3)
        b = compose_strategies(
            w, x, z, s1, compose_strategies(x, y, z, s2, s3))
        assert a.plays == b.plays


def test_compose_through_a_cyclic_middle_game():
    # Y is r -O-> s -P-> r; tau sends the O-move of Z twice around Y's
    # cycle, sigma answering each lap, before it answers in Z
    x = point("x")
    y = Game(["r", "s"], "r", [("r", "s", "O"), ("s", "r", "P")])
    z = Game(["z0", "z1", "z2"], "z0", [("z0", "z1", "O"), ("z1", "z2", "P")])
    lap_s = (("x", "s"), ("x", "r"))
    lap_t = (("r", "z1"), ("s", "z1"))
    s_plays = [(("x", "r"),), (("x", "r"),) + lap_s,
               (("x", "r"),) + lap_s + lap_s]
    t_plays = [(("r", "z0"),), (("r", "z0"),) + lap_t,
               (("r", "z0"),) + lap_t + lap_t,
               (("r", "z0"),) + lap_t + lap_t + (("r", "z1"), ("r", "z2"))]
    sigma = Strategy(implication_game(x, y), s_plays)
    tau = Strategy(implication_game(y, z), t_plays)
    root, answered = ("x", "z0"), (("x", "z0"), ("x", "z1"), ("x", "z2"))
    comp = compose_strategies(x, y, z, sigma, tau)
    assert comp.plays == {(root,), answered}
    assert maximal_plays(comp) == [answered]
    # one lap short on either side, the interaction stops unanswered
    for s, t in [(s_plays[:2], t_plays), (s_plays, t_plays[:3])]:
        comp = compose_strategies(x, y, z, Strategy(sigma.game, s),
                                  Strategy(tau.game, t))
        assert comp.plays == {(root,)}
        assert maximal_plays(comp) == [(root, ("x", "z1"))]


def test_compose_rejects_mismatched_components():
    x, y = point("a"), point("b")
    sigma = Strategy(implication_game(x, y), {(("a", "b"),)})
    big = line_game()
    with pytest.raises(ComponentMismatch):
        compose_strategies(big, y, y, sigma, copycat(y))
    with pytest.raises(ComponentMismatch):
        compose_strategies(x, y, big, sigma, sigma)
    # the same vertices and root, with the one edge owned by the other side
    y, y2 = (Game(["r", "s"], "r", [("r", "s", pol)]) for pol in "OP")
    on_xy2 = Strategy(implication_game(x, y2), {(("a", "r"),)})
    on_y2x = Strategy(implication_game(y2, x), {(("r", "a"),)})
    with pytest.raises(ComponentMismatch, match="first strategy"):
        compose_strategies(x, y, y, on_xy2, copycat(y))
    with pytest.raises(ComponentMismatch, match="second strategy"):
        compose_strategies(y, y, x, copycat(y), on_y2x)


def test_same_game_is_judged_on_moves_not_on_listing_order():
    # a game rebuilt from its vertices and edges in shuffled order is the
    # same game; with one edge's polarity flipped it is another
    rng = seeded(49)
    for _ in range(40):
        g = random_game(rng, max_vertices=7)
        vertices, edges = list(g.vertices), g.edges
        rng.shuffle(vertices)
        rng.shuffle(edges)
        assert _same_game(g, Game(vertices, g.root, edges))
        if edges:
            v, w, pol = edges.pop()
            edges.append((v, w, "P" if pol == "O" else "O"))
            assert not _same_game(g, Game(vertices, g.root, edges))


# winning does not compose in general ------------------------------------

def test_winning_fails_to_compose_with_two_atoms():
    # two incomparable atoms let an implication dodge bottom even when the
    # consequent hits it: 1 => p and p => 0 both win, 1 => 0 does not
    lat = Lattice(["0", "p", "q", "1"],
                  [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")], "0", "1")
    gx, gy, gz = point("x"), point("y"), point("z")
    px = PayoffGame(gx, lat, {"x": "1"})
    py = PayoffGame(gy, lat, {"y": "p"})
    pz = PayoffGame(gz, lat, {"z": "0"})
    sigma = Strategy(implication_game(gx, gy), {(("x", "y"),)})
    tau = Strategy(implication_game(gy, gz), {(("y", "z"),)})
    assert is_winning(payoff_implication(px, py), sigma)
    assert is_winning(payoff_implication(py, pz), tau)
    assert positionally_winning(payoff_implication(px, py), sigma)
    assert positionally_winning(payoff_implication(py, pz), tau)
    comp = compose_strategies(gx, gy, gz, sigma, tau)
    assert not is_winning(payoff_implication(px, pz), comp)


def test_winning_fails_to_compose_on_misaligned_rests():
    # even over a chain, a strategy can win every ending yet rest on a
    # bottom payoff; the positional predicate is what rules this out
    lat = chain(2)
    gx, gz = point("x"), point("z")
    gy = Game(["y0", "y1"], "y0", [("y0", "y1", "O")])
    px = PayoffGame(gx, lat, {"x": "1"})
    py = PayoffGame(gy, lat, {"y0": "0", "y1": "1"})
    pz = PayoffGame(gz, lat, {"z": "0"})
    sigma = Strategy(implication_game(gx, gy), {(("x", "y0"),)})
    tau = Strategy(implication_game(gy, gz), {(("y0", "z"),)})
    assert is_winning(payoff_implication(px, py), sigma)
    assert is_winning(payoff_implication(py, pz), tau)
    assert not positionally_winning(payoff_implication(px, py), sigma)
    comp = compose_strategies(gx, gy, gz, sigma, tau)
    assert not is_winning(payoff_implication(px, pz), comp)


def test_positional_winning_composes_over_unique_atom_lattices():
    # over a lattice with a single atom, strategies that stay above bottom
    # at every rest point compose into winning strategies
    rng = seeded(20260814)
    found = 0
    while found < 60:
        lat = random_distributive_lattice(rng, unique_atom=True)
        gx, gy, gz = (random_game(rng, 4) for _ in range(3))
        px = random_payoff(rng, lat, gx)
        py = random_payoff(rng, lat, gy)
        pz = random_payoff(rng, lat, gz)
        sigma = random_strategy(rng, implication_game(gx, gy))
        tau = random_strategy(rng, implication_game(gy, gz))
        if not positionally_winning(payoff_implication(px, py), sigma):
            continue
        if not positionally_winning(payoff_implication(py, pz), tau):
            continue
        found += 1
        comp = compose_strategies(gx, gy, gz, sigma, tau)
        assert is_winning(payoff_implication(px, pz), comp)

