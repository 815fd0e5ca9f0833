import functools
import hashlib
import random
import time
from collections import Counter

import pytest

from conftest import random_strategy
from test_differential import (Listed, assert_unfolds_as_before,
                               old_build_compound_game, old_dual_game,
                               old_select_goal_sets, old_tensor_game,
                               one_goal_scenario, wide_plan_case)
from phasegame import planner
from phasegame.data import load_doc
from phasegame.errors import BadGrid, HorizonEmpty, UnknownGoalElement
from phasegame.games import (Dual, Game, Tensor, compose_strategies,
                             copycat, implication, walk)
from phasegame.phase import phase_from_doc
from phasegame.planner import (_Movement, _vertex_doc,
                               CompoundGame, build_compound_game,
                               eval_priority, load_scenario, plan_play,
                               run_cognition, select_goal_sets,
                               visible_rewards)


def four_goals():
    return load_scenario("data:four_goals_scenario.json")


def base_doc():
    return {
        "name": "inline",
        "grid": ["...", "...", "..."],
        "start": [1, 1],
        "horizon": 1,
        "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a",
        "objects": [
            {"id": "obj_x", "cell": [0, 0], "features": ["f1", "f2"],
             "goal": "e", "attractiveness": 1},
        ],
    }


# visibility -------------------------------------------------------------

def test_standing_on_object_reveals_everything():
    sc = four_goals()
    vis = visible_rewards(sc, (6, 3))
    assert vis["obj_e"] == frozenset({"egg", "oval", "pale"})


def test_beyond_horizon_reveals_nothing():
    sc = four_goals()
    vis = visible_rewards(sc, (8, 6))
    assert vis["obj_b2"] == frozenset()


def test_at_horizon_reveals_shortest_prefix():
    sc = four_goals()
    # obj_e has 3 features; at distance 2 of horizon 2 one shows
    vis = visible_rewards(sc, (4, 3))
    assert vis["obj_e"] == frozenset({"egg"})
    vis = visible_rewards(sc, (5, 3))
    assert vis["obj_e"] == frozenset({"egg", "oval"})


def test_reveal_counts_follow_scaled_ceiling():
    doc = base_doc()
    doc["grid"] = ["........."]
    doc["start"] = [0, 0]
    doc["horizon"] = 3
    doc["objects"] = [{"id": "o", "cell": [0, 0],
                       "features": ["a1", "a2", "a3", "a4", "a5"],
                       "goal": "e"}]
    sc = load_scenario(doc)
    for d, want in [(0, 5), (1, 4), (2, 3), (3, 2), (4, 0), (8, 0)]:
        assert len(visible_rewards(sc, (d, 0))["o"]) == want, d


def test_visibility_is_computed_once_and_returned_fresh(monkeypatch):
    sc = four_goals()
    vis = visible_rewards(sc, (6, 3))
    want = dict(vis)
    vis["obj_e"] = frozenset()
    vis["extra"] = frozenset({"x"})
    calls = []
    monkeypatch.setattr(planner, "chebyshev",
                        lambda a, b: calls.append(a) or 0)
    assert visible_rewards(sc, [6, 3]) == want
    assert calls == []
    assert visible_rewards(sc, (5, 3)) != want
    assert calls


# loading ----------------------------------------------------------------

def test_rejects_empty_grid():
    doc = base_doc()
    doc["grid"] = []
    with pytest.raises(BadGrid):
        load_scenario(doc)


def test_rejects_ragged_grid():
    doc = base_doc()
    doc["grid"] = ["...", ".."]
    with pytest.raises(BadGrid, match="equally long"):
        load_scenario(doc)


def test_rejects_unknown_grid_character():
    doc = base_doc()
    doc["grid"] = ["..x"]
    doc["objects"] = []
    with pytest.raises(BadGrid, match="unknown grid character"):
        load_scenario(doc)


def test_rejects_start_on_wall():
    doc = base_doc()
    doc["grid"] = ["#..", "...", "..."]
    doc["start"] = [0, 0]
    with pytest.raises(BadGrid, match="start"):
        load_scenario(doc)


def test_rejects_negative_horizon():
    doc = base_doc()
    doc["horizon"] = -1
    with pytest.raises(BadGrid, match="horizon"):
        load_scenario(doc)


def test_rejects_object_on_wall():
    doc = base_doc()
    doc["grid"] = ["#..", "...", "..."]
    doc["start"] = [1, 1]
    with pytest.raises(BadGrid, match="obj_x"):
        load_scenario(doc)


def test_rejects_goal_outside_generators():
    doc = base_doc()
    doc["objects"][0]["goal"] = "J123"
    with pytest.raises(UnknownGoalElement, match="generator"):
        load_scenario(doc)


def test_rejects_shared_goal_element():
    doc = base_doc()
    doc["objects"].append({"id": "obj_y", "cell": [2, 2],
                           "features": ["g"], "goal": "e"})
    with pytest.raises(UnknownGoalElement, match="share"):
        load_scenario(doc)


def test_rejects_foreign_free_move_goal():
    doc = base_doc()
    doc["free_move_goal"] = "zig"
    with pytest.raises(UnknownGoalElement, match="free_move_goal"):
        load_scenario(doc)


# goal ranking -----------------------------------------------------------

def test_priorities_of_known_goal_sets():
    sc = four_goals()
    assert eval_priority(sc, ["obj_e"]) == "1"
    assert eval_priority(sc, ["obj_b1", "obj_b2", "obj_e"]) == "1"
    assert eval_priority(sc, ["obj_b1", "obj_b3", "obj_e"]) == "b1"
    assert eval_priority(sc, ["obj_b1", "obj_b2", "obj_b3", "obj_e"]) == "b1"


def test_selection_keeps_the_two_largest_top_sets():
    sc = four_goals()
    sel = select_goal_sets(sc, list(sc.objects), must_include="obj_e")
    assert len(sel.candidates) == 8
    assert not sel.indistinguishable
    assert len(sel) == 2
    assert sel[0].goals == ("obj_b1", "obj_b2", "obj_e")
    assert sel[1].goals == ("obj_b2", "obj_b3", "obj_e")
    assert sel[0].priority == sel[1].priority == "1"
    assert sel[0].attractiveness == 9
    assert sel[1].attractiveness == 8


def test_selection_is_input_order_invariant():
    sc = four_goals()
    ids = list(sc.objects)
    a = select_goal_sets(sc, ids, must_include="obj_e")
    b = select_goal_sets(sc, list(reversed(ids)), must_include="obj_e")
    assert [c.goals for c in a] == [c.goals for c in b]
    assert [c.priority for c in a] == [c.priority for c in b]


def test_selection_collapses_on_degenerate_phase():
    doc = {
        "name": "alt",
        "grid": [".........",
                 ".........",
                 ".........",
                 ".........",
                 ".........",
                 ".........",
                 "........."],
        "start": [4, 3],
        "horizon": 2,
        "goal_phase": "data:goal_phase_alt.json",
        "free_move_goal": "a",
        "objects": [
            {"id": "obj_b1", "cell": [2, 5],
             "features": ["tall", "thin"], "goal": "J1a",
             "attractiveness": 2},
            {"id": "obj_b2", "cell": [2, 2],
             "features": ["blue", "box"], "goal": "b2",
             "attractiveness": 3},
            {"id": "obj_b3", "cell": [6, 5],
             "features": ["dark", "dusty"], "goal": "b3",
             "attractiveness": 1},
            {"id": "obj_e", "cell": [6, 3],
             "features": ["egg", "oval", "pale"], "goal": "e",
             "attractiveness": 4},
        ],
    }
    sc = load_scenario(doc)
    sel = select_goal_sets(sc, list(sc.objects), must_include="obj_e")
    assert sel.indistinguishable
    assert {c.priority for c in sel.candidates} == {"J123"}
    assert sel[0].goals == ("obj_b1", "obj_b2", "obj_b3", "obj_e")


# compound game ----------------------------------------------------------

def test_compound_vertex_count_is_product_of_projections():
    sc = four_goals()
    pg = build_compound_game(sc, ["obj_e", "obj_b2"])
    verts = pg.game.vertices
    move_part = {m for m, _ in verts}
    chain_part = {c for _, c in verts}
    assert len(verts) == len(move_part) * len(chain_part)
    assert len(chain_part) == (3 + 1) * (2 + 1)


def test_compound_game_names_payoffs_in_the_scenario_lattice():
    sc = four_goals()
    pg = build_compound_game(sc, ["obj_e", "obj_b2"])
    assert pg.lattice is sc.payoff_lattice
    assert sc.universe == sc.payoff_lattice.base


def test_compound_game_on_twenty_features_is_fast():
    # two cells and two goals of ten features each: the payoff lattice has
    # 2**20 elements, none of which needs listing
    doc = base_doc()
    doc["grid"] = [".."]
    doc["start"] = [0, 0]
    doc["objects"] = [
        {"id": "obj_%d" % i, "cell": [i, 0], "goal": goal,
         "features": ["f%d_%d" % (i, j) for j in range(10)]}
        for i, goal in enumerate(["b2", "e"])]
    sc = load_scenario(doc)
    began = time.process_time()
    pg = build_compound_game(sc, ["obj_0", "obj_1"])
    assert time.process_time() - began < 1.0
    assert len(pg.lattice) == 1 << 20
    vis = visible_rewards(sc, (0, 0))
    assert pg.k[pg.game.root] == ",".join(sorted(vis["obj_0"] | vis["obj_1"]))


def test_compound_payoffs_accumulate_images():
    sc = load_scenario("data:tiny_scenario.json")
    pg = build_compound_game(sc, ["obj_e"],
                             images={"obj_e": frozenset({"here"})})
    assert all(v != "" for v in pg.k.values())


def test_blocked_start_raises():
    doc = base_doc()
    doc["grid"] = [".#."]
    doc["start"] = [0, 0]
    doc["objects"] = [{"id": "obj_x", "cell": [0, 0],
                       "features": ["f1"], "goal": "e"}]
    sc = load_scenario(doc)
    with pytest.raises(HorizonEmpty):
        build_compound_game(sc, ["obj_x"])


def test_bad_mode_rejected():
    sc = load_scenario("data:tiny_scenario.json")
    with pytest.raises(ValueError):
        build_compound_game(sc, ["obj_e"], mode="dreamy")
    # a scenario with no goal plans nothing, and is rejected all the same
    for name in ("four_goals", "empty"):
        sc = load_scenario("data:%s_scenario.json" % name)
        with pytest.raises(ValueError, match="mode must be"):
            run_cognition(sc, mode="dreamy")


@pytest.mark.parametrize("build", [CompoundGame, build_compound_game,
                                   plan_play, eval_priority])
def test_empty_goal_list_rejected(build):
    with pytest.raises(ValueError, match="goals must not be empty"):
        build(four_goals(), [])


def _select_anchored(sc, goals):
    """select_goal_sets over goals[:-1], anchored at goals[-1]."""
    return select_goal_sets(sc, goals[:-1], must_include=goals[-1])


@pytest.mark.parametrize("call", [CompoundGame, build_compound_game,
                                  plan_play, eval_priority, select_goal_sets,
                                  _select_anchored])
def test_unknown_goal_id_is_named(call):
    with pytest.raises(UnknownGoalElement, match="'nope'"):
        call(four_goals(), ["obj_e", "nope"])
    if call is _select_anchored:
        # an object's id, but not a discovered one
        with pytest.raises(ValueError, match="anchor 'obj_b2' is not a "
                                             "discovered object"):
            call(four_goals(), ["obj_e", "obj_b2"])


@pytest.mark.parametrize("call", [CompoundGame, build_compound_game,
                                  plan_play])
@pytest.mark.parametrize("position", [(2, 0), (-1, 0), (99, 99)])
def test_impassable_position_rejected(call, position):
    # a wall and an off-grid cell beside passable ones, and a far cell
    doc = base_doc()
    doc["grid"] = ["..#", "...", "..."]
    sc = load_scenario(doc)
    with pytest.raises(BadGrid, match="position .* is not a passable cell"):
        call(sc, ["obj_x"], position=position)


@pytest.mark.parametrize("seed", range(6))
def test_payoff_is_side_joined_with_meet(seed):
    sc, goals, position, images = random_case(random.Random(200 + seed))
    for mode in ("practical", "strict"):
        game = CompoundGame(sc, goals, position, mode, images)
        pg = build_compound_game(sc, goals, position, mode, images)
        old = old_build_compound_game(sc, goals, position, mode, images)
        assert pg.game.root == old.game.root
        assert pg.game.vertices == old.game.vertices
        assert pg.game.edges == old.game.edges
        assert pg.k == old.k
        lat = sc.payoff_lattice
        for m, mv in enumerate(game.mverts):
            for b, bv in enumerate(game.bverts):
                if (mv, bv) in pg.k:
                    assert pg.k[mv, bv] == \
                        lat.name(game.side[m] | game.meet[b])


# planning ---------------------------------------------------------------

# The exhaustive oracle: the compound game built as a product of explicit
# games, every alternated play listed, and the planner's ranking applied to
# the list (largest support, then shortest, then repr order).

def oracle_compound_game(sc, goals, position=None, mode="practical",
                         images=None):
    """The earlier list-based implication (the tensor of the dual) of the
    movement game and the tensor of reveal chains, with each payoff a
    frozenset of features."""
    pos = sc.start if position is None else tuple(position)
    images = images or {}
    radius = sc.horizon
    edges = []
    for c in sorted(sc.passable):
        for t in range(2 * radius):
            if t % 2 == 0:
                edges += [((c, t), (n, t + 1), "O") for n in sc.neighbors(c)]
            else:
                edges.append(((c, t), (c, t + 1), "P"))
    reach, todo = {(pos, 0)}, [(pos, 0)]
    while todo:
        v = todo.pop()
        for f, t, _ in edges:
            if f == v and t not in reach:
                reach.add(t)
                todo.append(t)
    move_game = Listed(sorted(reach), (pos, 0),
                       [e for e in edges if e[0] in reach and e[1] in reach])
    objs = [sc.objects[g] for g in goals]
    chains = [Listed([(o.id, j) for j in range(len(o.features) + 1)],
                     (o.id, 0),
                     [((o.id, j), (o.id, j + 1), "O")
                      for j in range(len(o.features))]) for o in objs]
    consequent = chains[0]
    for ch in chains[1:]:
        consequent = old_tensor_game(consequent, ch)
    game = old_tensor_game(old_dual_game(move_game), consequent)

    full = frozenset(sc.universe)
    k = {}
    for v in game.vertices:
        (cell, _), b = v
        vis = visible_rewards(sc, cell)
        side = frozenset()
        for o in objs:
            side |= vis[o.id] | images.get(o.id, frozenset())
        if mode == "strict":
            side = full - side
        counts = []
        for _ in objs[1:]:
            b, (_, j) = b
            counts.append(j)
        counts.append(b[1])
        counts.reverse()
        meet = full
        for o, j in zip(objs, counts):
            meet &= frozenset(o.features[:j]) | images.get(o.id, frozenset())
        k[v] = side | meet
    return game, k


def enumerate_plays(game):
    plays = []
    stack = [(game.root,)]
    while stack:
        p = stack.pop()
        nxt = game.moves(p[-1], "O" if len(p) % 2 else "P")
        if not nxt:
            plays.append(p)
        stack += [p + (w,) for w in nxt]
    return plays


def oracle_plan(game, k):
    """(plays, plays of largest support, winning play, its objective,
    plays by objective size)."""
    scored = [(p, frozenset().union(*(k[v] for v in p)))
              for p in enumerate_plays(game)]
    size = max(len(val) for _, val in scored)
    ranked = [(p, val) for p, val in scored if len(val) == size]
    play, val = min(ranked, key=lambda pv: (len(pv[0]),
                                            tuple(map(repr, pv[0]))))
    sizes = Counter(len(val) for _, val in scored)
    return len(scored), len(ranked), play, sorted(val), sizes


def random_case(rng):
    """A small seeded scenario, and plan_play arguments with nonempty
    images that start away from sc.start wherever another cell has a
    move."""
    while True:
        w, h = rng.randint(2, 5), rng.randint(2, 4)
        grid = ["".join("#" if rng.random() < 0.15 else "."
                        for _ in range(w)) for _ in range(h)]
        cells = [(x, y) for y in range(h) for x in range(w)
                 if grid[y][x] == "."]
        ngoals = rng.randint(1, 3)
        if len(cells) >= max(2, ngoals):
            break
    shared = ["u%d" % i for i in range(4)] if rng.random() < 0.5 else None
    objects = []
    for i, (cell, goal) in enumerate(zip(rng.sample(cells, ngoals),
                                         ["J1a", "b2", "b3", "e"])):
        n = rng.randint(1, 3)
        feats = (rng.sample(shared, n) if shared
                 else ["f%d_%d" % (i, j) for j in range(n)])
        objects.append({"id": "o%d" % i, "cell": list(cell),
                        "features": feats, "goal": goal})
    start = rng.choice(cells)
    sc = load_scenario({
        "name": "random", "grid": grid, "start": list(start),
        "horizon": rng.randint(1, 3), "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": objects})
    moving = [c for c in cells if c != start and sc.neighbors(c)]
    position = rng.choice(moving) if moving else start
    goals = sorted(sc.objects)
    images = {g: frozenset(rng.sample(sc.objects[g].features, 1))
              for g in goals if rng.random() < 0.7}
    images[goals[0]] = frozenset(sc.objects[goals[0]].features[:1])
    return sc, goals, position, images


def assert_plan_matches_enumeration(sc, goals, position=None, images=None):
    """plan_play picks the oracle's play, objective and play counts in
    both modes; returns the numbers of plays of largest support."""
    ties = []
    for mode in ("practical", "strict"):
        plan = plan_play(sc, goals, mode=mode, position=position,
                         images=images)
        game, k = oracle_compound_game(sc, goals, position, mode, images)
        plays, ranked, play, objective, sizes = oracle_plan(game, k)
        assert plan.final_play == [_vertex_doc(v) for v in play]
        assert plan.objective == objective
        assert plan.decision_log[:3] == [
            "enumerated %d alternated plays" % plays,
            "plays with an objective of largest support: %d" % ranked,
            "plays by objective size: %s" % ", ".join(
                "%d: %d" % kv for kv in sorted(sizes.items()))]
        assert plan.header["plays"] == plays
        ties.append(ranked)
    return ties


@pytest.mark.parametrize("seed", range(24))
def test_plan_agrees_with_exhaustive_enumeration(seed):
    assert_plan_matches_enumeration(*random_case(random.Random(seed)))


@pytest.mark.parametrize("horizon", [4, 5])
@pytest.mark.parametrize("x,features", [(6, ["f1"]), (6, ["f1", "f2"]),
                                        (10, ["f1"]), (10, ["f1", "f2"]),
                                        (3, ["f1", "f2", "f3"])])
def test_tie_break_past_one_digit_agrees_with_enumeration(horizon, x,
                                                          features):
    # random_case stays below 10 in every coordinate and tick; here the
    # start's neighbours are x=8 and x=10, where repr order ("(10, 0)"
    # before "(8, 0)") and tuple order differ, and at horizon 5 a goal
    # with three features still has a reveal left at tick 9, where
    # stepping to tick 10 comes first in repr order
    doc = base_doc()
    doc["grid"] = ["." * 11]
    doc["start"] = [9, 0]
    doc["horizon"] = horizon
    doc["objects"] = [{"id": "obj_x", "cell": [x, 0], "features": features,
                       "goal": "e"}]
    ties = assert_plan_matches_enumeration(load_scenario(doc), ["obj_x"])
    assert max(ties) > 1


@pytest.mark.parametrize("seed", range(6))
def test_compound_game_matches_product_construction(seed):
    rng = random.Random(100 + seed)
    sc, goals, position, images = random_case(rng)
    for mode in ("practical", "strict"):
        pg = build_compound_game(sc, goals, position=position, mode=mode,
                                 images=images)
        game, k = oracle_compound_game(sc, goals, position, mode, images)
        assert pg.game.root == game.root
        assert set(pg.game.vertices) == set(game.vertices)
        assert len(pg.game.edges) == len(game.edges)
        assert set(pg.game.edges) == set(game.edges)
        assert pg.k == {v: ",".join(sorted(val)) for v, val in k.items()}


def test_compound_game_is_listed_in_walk_order():
    cases = [(four_goals(), ["obj_e", "obj_b2"], None, None)]
    cases += [random_case(random.Random(100 + seed)) for seed in range(3)]
    for sc, goals, position, images in cases:
        pg = build_compound_game(sc, goals, position=position, images=images)
        game = CompoundGame(sc, goals, position=position, images=images)
        vertices, edges = walk(game)
        assert pg.game.vertices == [game.vertex(v) for v in vertices]
        assert pg.game.edges == [(game.vertex(v), game.vertex(w), pol)
                                 for v, w, pol in edges]


def one_goal_game(features, start):
    """A one-goal CompoundGame on two cells at horizon 1: 3 movement
    vertices times the goal's len(features) + 1 reveal counts."""
    return CompoundGame(one_goal_scenario(features, start), ["obj_x"])


@pytest.mark.parametrize("features", [["f1"], ["f1", "f2"]])
def test_strategies_play_on_implicit_compound_games(features):
    g, h = one_goal_game(features, (0, 0)), one_goal_game(["f1"], (1, 0))
    assert len(walk(g)[0]) == 3 * (len(features) + 1)
    cc = copycat(g)
    assert len(cc.plays) > 1
    assert all(p[-1][0] == p[-1][1] for p in cc.plays)
    assert compose_strategies(g, g, g, cc, cc).plays == cc.plays
    sigma = random_strategy(random.Random(3), implication(g, h))
    assert len(sigma.plays) > 1
    assert compose_strategies(g, g, h, cc, sigma).plays == sigma.plays
    assert compose_strategies(g, h, h, sigma, copycat(h)).plays == sigma.plays
    tau = random_strategy(random.Random(4), implication(h, g))
    assert_unfolds_as_before(g, h, g, sigma, tau)
    assert_unfolds_as_before(g, g, h, cc, sigma)
    assert_unfolds_as_before(g, h, h, sigma, copycat(h))


def test_plan_objective_is_maximal_over_all_plays():
    doc = base_doc()
    doc["grid"] = ["..."]
    doc["start"] = [1, 0]
    doc["objects"] = [{"id": "obj_x", "cell": [2, 0],
                       "features": ["f1", "f2"], "goal": "e"}]
    sc = load_scenario(doc)
    game, k = oracle_compound_game(sc, ["obj_x"])
    plan = plan_play(sc, ["obj_x"])
    objective = set(plan.objective)
    for p in enumerate_plays(game):
        val = frozenset().union(*(k[v] for v in p))
        assert not objective < val, val


@pytest.mark.parametrize("seed", range(4))
def test_factor_ranks_order_the_compound_game_by_repr(seed):
    rng = random.Random(300 + seed)
    sc, goals, position, images = wide_plan_case(rng)
    game = CompoundGame(sc, goals, position, images=images)
    mverts, bverts = game.mverts, game.bverts
    chains = [Game([(g, j) for j in range(len(sc.objects[g].features) + 1)],
                   (g, 0), [((g, j), (g, j + 1), "O")
                            for j in range(len(sc.objects[g].features))])
              for g in goals]
    for factor, verts, succ in [
            (Dual(_Movement(sc, position, sc.horizon)), mverts, game.msucc),
            (functools.reduce(Tensor, chains), bverts, game.bsucc)]:
        walked, edges = walk(factor)
        assert verts == sorted(walked, key=repr)
        rank = {v: i for i, v in enumerate(verts)}
        assert sorted((rank[v], rank[w], pol) for v, w, pol in edges) == \
            sorted((i, j, pol) for pol, rows in succ.items()
                   for i, row in enumerate(rows) for j in row)
    nv = len(mverts) * len(bverts)
    assert sorted(range(nv), key=lambda v: repr(game.vertex(v))) == \
        list(range(nv))


def count_moves(monkeypatch):
    """A Counter of the moves asked of each game class from now on."""
    calls = Counter()
    for cls in (CompoundGame, Dual, Game, Tensor, _Movement):
        def counted(self, v, pol, _moves=cls.moves, _name=cls.__name__):
            calls[_name] += 1
            return _moves(self, v, pol)
        monkeypatch.setattr(cls, "moves", counted)
    return calls


def test_plan_search_asks_no_move_of_the_compound_game(monkeypatch):
    # the movement game is walked once; the search reads the ranked tables,
    # so the compound game is asked no move
    sc, goals = four_goals(), ["obj_b1", "obj_b2", "obj_e"]
    nm = len(walk(_Movement(sc, sc.start, sc.horizon))[0])
    calls = count_moves(monkeypatch)
    plan = plan_play(sc, goals)
    assert calls == {"_Movement": 2 * nm}
    assert plan.header["states"] > 2 * nm


def test_cognition_step_walks_the_movement_game_once(monkeypatch):
    # the saturation check and the plan of a step share one walk
    sc = four_goals()
    nm = len(walk(_Movement(sc, sc.start, sc.horizon))[0])
    calls = count_moves(monkeypatch)
    trace = run_cognition(sc, max_steps=1)
    assert trace.header["steps_taken"] == 1
    assert any(e.get("move") != "wander" for e in trace.entries
               if e["actor"] == "system")
    assert calls == {"_Movement": 2 * nm}


def test_cognition_walks_the_movement_game_once_per_active_set(monkeypatch):
    # each compound game walks the movement game from its position: a step
    # that moves builds one, and a saturation check after a shrink builds
    # another at the same position, with the smaller active set
    walked = []

    def counted(sc, pos, _movement=planner._movement):
        walked.append(pos)
        return _movement(sc, pos)
    monkeypatch.setattr(planner, "_movement", counted)
    trace = run_cognition(four_goals())
    moved = [e for e in trace.entries
             if e["actor"] == "system" and e["move"] != "wander"]
    assert trace.complete
    assert (len(moved), len(trace.shrink_events)) == (6, 2)
    assert len(walked) == len(moved) + len(trace.shrink_events) + 1 == 9
    assert walked[:len(moved)] == [tuple(e["move"][0]) for e in moved]
    assert len(set(walked[len(moved):])) == 1


@pytest.mark.parametrize("case", ["four_goals"] + list(range(24)))
def test_selection_matches_pairwise_maximality(case):
    if case == "four_goals":
        sc = four_goals()
    else:
        sc = random_case(random.Random(case))[0]

    def ranked(sel):
        return ([(c.goals, c.priority, c.attractiveness) for c in sel],
                sel.indistinguishable)

    ids = sorted(sc.objects)
    for must in [None] + ids:
        new = select_goal_sets(sc, ids, must)
        old = old_select_goal_sets(sc, ids, must)
        assert ranked(new) == ranked(old)
        assert new.log == old.log
        # a shrink ranks the proper subsets among the candidates its step
        # priced, where the earlier selection priced them again
        shrink = planner._rank(sc.lattice, [c for c in new.candidates
                                            if len(c.goals) < len(ids)])
        old = old_select_goal_sets(sc, ids, must, max_size=len(ids) - 1)
        assert ranked(shrink) == ranked(old)
        assert shrink.log == [line for line in old.log
                              if not line.startswith("candidate ")]


@pytest.mark.parametrize("mode,calls", [("practical", 59), ("strict", 51)])
def test_cognition_prices_each_candidate_once(monkeypatch, mode, calls):
    # a shrink re-ranks its step's candidates, so every priority the run
    # computes is one candidate line of the trace
    priced = []

    def counted(sc, goals, eval_priority=planner.eval_priority):
        priced.append(goals)
        return eval_priority(sc, goals)
    monkeypatch.setattr(planner, "eval_priority", counted)
    trace = run_cognition(four_goals(), mode=mode)
    assert trace.shrink_events
    lines = [line for line in trace.decision_log
             if line.startswith("  candidate ")]
    assert len(priced) == len(lines) == calls


def test_plan_header_counts_states_and_plays():
    sc = four_goals()
    plan = plan_play(sc, ["obj_b2", "obj_e"])
    assert plan.header["plays"] == int(plan.decision_log[0].split()[1])
    assert 0 < plan.header["states"]
    assert plan.to_json() == plan_play(sc, ["obj_b2", "obj_e"]).to_json()


def test_plan_finishes_beyond_former_play_cap():
    # an open 15x13 grid with four goals at horizon 7 has more plays than
    # an enumeration could list
    doc = base_doc()
    doc["grid"] = ["." * 15] * 13
    doc["start"] = [7, 6]
    doc["horizon"] = 7
    doc["objects"] = [
        {"id": "o%d" % i, "cell": [7 + dx, 6 + dy],
         "features": ["s%d_0" % i, "s%d_1" % i], "goal": goal}
        for i, ((dx, dy), goal) in enumerate(zip(
            [(-3, -2), (3, -2), (-3, 2), (3, 2)], ["J1a", "b2", "b3", "e"]))]
    sc = load_scenario(doc)
    plan = plan_play(sc, sorted(sc.objects))
    assert plan.header["plays"] > 200000
    assert len(plan.objective) == 8


def test_walled_off_goal_is_reported():
    doc = base_doc()
    doc["grid"] = ["...", "###", "..."]
    doc["start"] = [0, 0]
    doc["horizon"] = 2
    doc["objects"] = [{"id": "obj_x", "cell": [0, 2],
                       "features": ["f1"], "goal": "e"}]
    sc = load_scenario(doc)
    plan = plan_play(sc, ["obj_x"])
    assert any("obj_x not reached within horizon" in line
               for line in plan.decision_log)


# cognition loop ---------------------------------------------------------

def test_tiny_scenario_completes_immediately():
    sc = load_scenario("data:tiny_scenario.json")
    trace = run_cognition(sc)
    assert trace.complete
    assert not trace.step_limit
    assert trace.header["steps_taken"] <= 2
    assert trace.final_images["obj_e"] == frozenset({"here"})


def test_full_scenario_completes_and_selects():
    sc = four_goals()
    trace = run_cognition(sc, max_steps=50)
    assert trace.complete
    assert trace.selections
    first = trace.selections[0]
    assert first["anchor"] == "obj_e"
    assert first["sets"][0]["priority"] == "1"


@pytest.mark.parametrize("mode", ["practical", "strict"])
def test_walled_in_start_saturates_at_once(mode):
    # no cell neighbours the start, so it sees only itself: the pair of
    # goals shrinks to one and the run completes at step 0, with no
    # compound game built from the walled-in start
    doc = base_doc()
    doc["grid"] = [".#..", "##.."]
    doc["start"] = [0, 0]
    doc["horizon"] = 2
    doc["objects"] = [
        {"id": "obj_x", "cell": [0, 0], "features": ["f1"], "goal": "e"},
        {"id": "obj_y", "cell": [2, 0], "features": ["f2", "f3"],
         "goal": "b2"}]
    trace = run_cognition(load_scenario(doc), mode=mode)
    assert trace.complete and not trace.step_limit
    assert trace.header["steps_taken"] == 0
    assert [(e["step"], e["from"]) for e in trace.shrink_events] == [
        (0, ["obj_x", "obj_y"])]
    assert trace.decision_log[-1].startswith("step 0: single goal")
    assert not any(e["actor"] == "system" for e in trace.entries)


@pytest.mark.parametrize("case", ["four_goals"] + list(range(24)))
def test_images_grow_monotonically(case):
    if case == "four_goals":
        sc = four_goals()
    else:
        sc = random_case(random.Random(case))[0]
    trace = run_cognition(sc, max_steps=50)
    last = {}
    for entry in trace.entries:
        if "images" not in entry:
            continue
        for oid, feats in entry["images"].items():
            assert set(feats) >= set(last.get(oid, set())), oid
            last[oid] = feats


def test_empty_scenario_wanders_to_step_limit():
    sc = load_scenario("data:empty_scenario.json")
    trace = run_cognition(sc, max_steps=5, seed=1)
    assert trace.step_limit
    assert not trace.complete
    moves = [e for e in trace.entries if e["actor"] == "system"]
    assert moves and all(e["move"] == "wander" for e in moves)
    assert any("wander" in line for line in trace.decision_log)


def test_wander_priority_is_the_free_move_goal_on_itself():
    # an object id that names a goal element is still an object: the
    # priority of wandering is impl(a, a), never impl(a, goal of "a")
    doc = base_doc()
    doc["grid"] = ["......"]
    doc["start"] = [0, 0]
    doc["objects"] = [{"id": "a", "cell": [5, 0], "features": ["f"],
                       "goal": "e"}]
    sc = load_scenario(doc)
    trace = run_cognition(sc, max_steps=1)
    [wander] = [e for e in trace.entries if e.get("move") == "wander"]
    assert wander["free_move_priority"] == sc.phase.impl("a", "a") == "J123"
    assert sc.phase.impl("a", "e") != "J123"


# SHA-256 of the run_cognition trace JSON of each shipped scenario under the
# default flags.  Two runs of the same code always agree, so only fixed
# digests catch a change to the traces that every run shares.
TRACE_DIGESTS = {
    ("four_goals_scenario", "practical", 0):
        "343288b6a485c143a213850f7d0354b233212ac2864f955cde7a0d20753a545b",
    ("four_goals_scenario", "strict", 0):
        "7c3f660faa747e9d00aa1cc13443c39fd30653bcb41228faf15ef4a16d3d8d16",
    ("four_goals_scenario", "practical", 1):
        "7a886730e95bf685307f49144e95337c2aa7fe1ba0007bd286b160715cb6b894",
    ("four_goals_scenario", "strict", 1):
        "b1460eec21f8c408685c60766fb3a5e13a8f40f4baefab31024f25e3b96d6821",
    ("four_goals_scenario", "practical", 2):
        "759fcbf8fd6a4817bf8d30f60cc8f520f6fb1e52b03393bfdb3ad477b8d2f64f",
    ("four_goals_scenario", "strict", 2):
        "c6ad2de56a265f9f0a9f7a7954d6657a262cd724236979241b8a61a82b27fe14",
    ("tiny_scenario", "practical", 0):
        "3ecd779f8d050d5e0f916c3eb076b08fceb2bfa1a83c8447dd03cae3f60d3016",
    ("empty_scenario", "practical", 0):
        "107dc440ae90da524a35edde1588c0d90c411ee80293797433aa5c63c70b75b8",
}


@pytest.mark.parametrize("name,mode,seed", sorted(TRACE_DIGESTS))
def test_trace_digests_are_pinned(name, mode, seed):
    sc = load_scenario("data:%s.json" % name)
    text = run_cognition(sc, mode=mode, seed=seed).to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == TRACE_DIGESTS[(name, mode, seed)]


def test_traces_are_deterministic():
    a = run_cognition(four_goals(), seed=3).to_json()
    b = run_cognition(four_goals(), seed=3).to_json()
    assert a == b


def test_cognition_leaves_the_shared_phase_as_loaded():
    # every shipped scenario names data:goal_phase.json, so all of them play
    # on the one structure that its first load built
    first = run_cognition(four_goals(), seed=3).to_json()
    scenarios = [load_scenario("data:%s.json" % name) for name in
                 ("four_goals_scenario", "tiny_scenario", "empty_scenario")]
    shared = scenarios[0].phase
    assert all(sc.phase is shared for sc in scenarios)
    for sc in scenarios:
        for mode in ("practical", "strict"):
            run_cognition(sc, mode=mode, seed=1)
    doc, base_dir = load_doc("data:goal_phase.json")
    fresh = phase_from_doc(doc, base_dir=base_dir)
    assert fresh is not shared
    assert (shared._rows, shared._dual, shared.unit, shared.falsum) == (
        fresh._rows, fresh._dual, fresh.unit, fresh.falsum)
    again = four_goals()
    assert again.phase is shared
    assert run_cognition(again, seed=3).to_json() == first


def test_trace_header_describes_world():
    sc = four_goals()
    trace = run_cognition(sc, max_steps=3)
    head = trace.header
    assert head["grid"] == sc.rows
    assert head["start"] == [4, 3]
    assert [o["id"] for o in head["objects"]] == sorted(sc.objects)
