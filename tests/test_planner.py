import functools
import gc
import json
import random
import time
import weakref
from collections import Counter

import pytest

from conftest import (count_moves, doc_digest, moved, pinned,
                      random_strategy, sha16)
from test_differential import (Dual, Listed, OldCompoundGame, Tensor,
                               _Movement, assert_unfolds_as_before,
                               chain_goal_scenario, materialize,
                               old_build_compound_game, old_dual_game,
                               old_select_goal_sets, old_tensor_game,
                               one_goal_scenario, planner_shape_case,
                               random_case, search_edge_cases, walk,
                               wide_plan_case)
from test_games import assert_moves_are_listed
from phasegame import planner
from phasegame.data import load_doc
from phasegame.errors import BadGrid, UnknownGoalElement, UsageError
from phasegame.games import (Game, PayoffGame, compose_strategies, copycat,
                             implication_game, payoff_implication)
from phasegame.phase import phase_from_doc
from phasegame.planner import (_vertex_doc,
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


def test_visibility_is_returned_fresh():
    sc = four_goals()
    vis = visible_rewards(sc, (6, 3))
    want = dict(vis)
    vis["obj_e"] = frozenset()
    vis["extra"] = frozenset({"x"})
    assert visible_rewards(sc, [6, 3]) == want
    assert visible_rewards(sc, (5, 3)) != want


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


def test_compound_listing_shares_its_vertices():
    # the listing's root and every successor are the objects its vertex
    # list holds, so each name is one object however many edges reach it
    pg = build_compound_game(four_goals(), ["obj_e", "obj_b2"])
    assert_moves_are_listed(pg.game)


def test_compound_game_names_payoffs_in_the_scenario_lattice():
    sc = four_goals()
    pg = build_compound_game(sc, ["obj_e", "obj_b2"])
    assert pg.lattice is sc.payoff_lattice
    assert sc.universe == sc.payoff_lattice.base


def test_compound_game_on_forty_features_is_fast():
    # two cells and two goals of twenty features each: the payoff lattice
    # is the powerset of 40 features, held as masks and never listed
    doc = base_doc()
    doc["grid"] = [".."]
    doc["start"] = [0, 0]
    doc["objects"] = [
        {"id": "obj_%d" % i, "cell": [i, 0], "goal": goal,
         "features": ["f%d_%02d" % (i, j) for j in range(20)]}
        for i, goal in enumerate(["b2", "e"])]
    sc = load_scenario(doc)
    began = time.process_time()
    pg = build_compound_game(sc, ["obj_0", "obj_1"])
    assert time.process_time() - began < 1.0
    assert len(pg.lattice.base) == 40
    vis = visible_rewards(sc, (0, 0))
    assert pg.k[pg.game.root] == ",".join(sorted(vis["obj_0"] | vis["obj_1"]))


def test_plan_on_thirteen_goals_is_fast():
    # 3**13 chains ranks: a plan reads only the few its plays reach
    sc = chain_goal_scenario(13)
    began = time.process_time()
    plan = plan_play(sc, sorted(sc.objects))
    assert time.process_time() - began < 1.0
    assert plan.complete and len(plan.objective) > 0


def test_compound_payoffs_accumulate_images():
    sc = load_scenario("data:tiny_scenario.json")
    pg = build_compound_game(sc, ["obj_e"],
                             images={"obj_e": frozenset({"here"})})
    assert all(v != "" for v in pg.k.values())


def test_walled_in_start_plans_like_a_one_cell_grid():
    # with no move from the start its movement game is the root alone, as
    # on a one-cell grid, so the plan holds the start and reveals f1
    traces = []
    for grid in ([".#."], ["."]):
        doc = base_doc()
        doc["grid"] = grid
        doc["start"] = [0, 0]
        doc["objects"] = [{"id": "obj_x", "cell": [0, 0],
                           "features": ["f1"], "goal": "e"}]
        traces.append(plan_play(load_scenario(doc), ["obj_x"]))
    walled, one_cell = traces
    assert [v["cell"] for v in walled.final_play] == [[0, 0], [0, 0]]
    assert walled.final_play == one_cell.final_play
    assert walled.objective == one_cell.objective == ["f1"]
    assert walled.header["states"] == one_cell.header["states"] == 2


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


GOAL_CALLS = [CompoundGame, build_compound_game, plan_play, eval_priority,
              # over all the goals, anchored at the first
              pytest.param(lambda sc, goals: select_goal_sets(
                  sc, goals, must_include=goals[0]), id="select_goal_sets"),
              _select_anchored]


@pytest.mark.parametrize("call", GOAL_CALLS)
def test_unknown_goal_id_is_named(call):
    with pytest.raises(UnknownGoalElement, match="'nope'"):
        call(four_goals(), ["obj_e", "nope"])
    if call is _select_anchored:
        # an object's id, but not a discovered one
        with pytest.raises(ValueError, match="anchor 'obj_b2' is not a "
                                             "discovered object"):
            call(four_goals(), ["obj_e", "obj_b2"])


@pytest.mark.parametrize("call", GOAL_CALLS)
def test_repeated_goal_id_is_named(call):
    # a repeat would tensor its chain twice, or list a candidate twice
    with pytest.raises(UsageError, match="the goal list names 'obj_e' twice"):
        call(four_goals(), ["obj_e", "obj_e", "obj_b1"])


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


# Random(200 + seed): seeds 200 to 205, then 10000 to 10099
@pytest.mark.parametrize("seed", [*range(6), *range(9800, 9900)])
def test_payoff_is_side_joined_with_meet(seed):
    # each listed vertex ((cell, tick), chains) pays the side payoff of its
    # cell joined with the meet of its chains rank, whose digits are counts
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
        side = dict(zip(game.cells, game.side))
        assert set(side) == {cell for (cell, _), _ in pg.game.vertices}
        for v in pg.game.vertices:
            (cell, _), chains = v
            b = sum(j * stride for (_, j), (_, stride, _) in zip(
                chain_counts(chains), game.goals))
            assert game.name(b) == chains
            assert pg.k[v] == lat.name(side[cell] | game.meet(b))


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


def chain_games(sc, goals):
    """Each goal's reveal chain, listed as a Game."""
    return [Game([(g, j) for j in range(len(sc.objects[g].features) + 1)],
                 (g, 0), [((g, j), (g, j + 1), "O")
                          for j in range(len(sc.objects[g].features))])
            for g in goals]


def chain_counts(b):
    """The (goal id, count) coordinates of a chains vertex, left to right."""
    return [b] if isinstance(b[0], str) else chain_counts(b[0]) + [b[1]]


@pytest.mark.parametrize("seed", range(24))
def test_strict_payoff_is_the_games_layer_implication(seed):
    # strict mode is payoff_implication from the movement game, paying what
    # a cell shows joined with the images, to the tensor of the chains,
    # paying the meet of each revealed prefix joined with its image
    sc, goals, position, images = random_case(random.Random(seed))
    lat = sc.payoff_lattice
    seen = lat.mask(f for g in goals for f in images.get(g, ()))
    movement = materialize(_Movement(sc, position, sc.horizon))
    shows = PayoffGame(movement, lat, {v: lat.name(seen | lat.mask(
        f for g in goals for f in visible_rewards(sc, v[0])[g]))
        for v in movement.vertices})
    chains = materialize(functools.reduce(Tensor, chain_games(sc, goals)))
    meets = PayoffGame(chains, lat, {b: lat.name(functools.reduce(
        int.__and__, [lat.mask(sc.objects[g].features[:j])
                      | lat.mask(images.get(g, ()))
                      for g, j in chain_counts(b)]))
        for b in chains.vertices})
    impl = payoff_implication(shows, meets)
    pg = build_compound_game(sc, goals, position, "strict", images)
    assert impl.game.root == pg.game.root
    assert set(impl.game.edges) == set(pg.game.edges)
    assert impl.k == pg.k


def test_compound_game_is_listed_in_walk_order():
    cases = [(four_goals(), ["obj_e", "obj_b2"], None, None)]
    cases += [random_case(random.Random(100 + seed)) for seed in range(3)]
    for sc, goals, position, images in cases:
        pg = build_compound_game(sc, goals, position=position, images=images)
        game = OldCompoundGame(sc, goals, position=position, images=images)
        assert (pg.game.vertices, pg.game.edges) == walk(game)


def test_benchmark_shape_listing_is_pinned():
    # the first benchmark-shaped grid: its root, vertices and edges in walk
    # order and its payoffs, by a sha256 prefix, each edge named by the
    # ranks of its ends in the vertex order
    sc, goals, _, _ = planner_shape_case(random.Random(2020))
    pg = build_compound_game(sc, goals)
    game, edges = pg.game, pg.game.edges
    assert (len(game.vertices), len(edges)) == (46336, 216576)
    rank = {v: i for i, v in enumerate(game.vertices)}
    assert sha16(repr((game.root, game.vertices,
                       [(rank[v], rank[w], pol) for v, w, pol in edges],
                       [pg.k[v] for v in game.vertices]))) == \
        "20809a9d8bf173bf"


def most_reveals_reached(game):
    """The most reveals (the summed counts of its chains name) held by a
    vertex ((cell, tick), chains) of a compound game that alternated plays
    reach from the root, O moving at even depth; every move from the root
    reveals, and a vertex holding two reveals ends every play that reaches
    it."""
    def reveals(v):
        return sum(j for _, j in chain_counts(v[1]))
    assert all(reveals(w) == 1 for w in game.moves(game.root, "O"))
    depth = {game.root: 0}
    todo = [game.root]
    while todo:
        v = todo.pop()
        moves = game.moves(v, "P" if depth[v] % 2 else "O")
        assert reveals(v) < 2 or not moves
        for w in moves:
            if w not in depth:
                depth[w] = depth[v] + 1
                todo.append(w)
    return max(reveals(v) for v in depth)


def test_no_play_holds_more_than_two_reveals():
    # the play grammar: at tick 0 O has no movement move, so O's first move
    # reveals; P steps; O ticks or reveals; a reveal at an odd tick leaves P
    # no move and ends the play
    # on build_compound_game's listing; the benchmark's shapes list tens of
    # thousands of vertices each, so there the earlier compound game, whose
    # listing it equals, is walked on demand
    most = Counter(most_reveals_reached(build_compound_game(
        sc, goals, position=position, mode=mode, images=images).game)
        for seed in range(10000, 10300)
        for sc, goals, position, images in [random_case(random.Random(seed))]
        for mode in ("practical", "strict"))
    rng = random.Random(2020)
    most.update(most_reveals_reached(OldCompoundGame(
        sc, goals, position=position, images=images))
        for sc, goals, position, images in [
            planner_shape_case(rng) for _ in range(10)])
    assert max(most) == 2, most
    # and where the grammar is degenerate: no goal can reveal, P has no
    # move (horizon 0, a walled-in start), no goal is revealed twice
    assert {label: most_reveals_reached(build_compound_game(
        sc, sorted(sc.objects), images=images).game)
        for label, (sc, images) in search_edge_cases().items()} == {
        "no features": 0, "a featureless goal": 2, "horizon 0": 1,
        "walled in": 1, "one feature each": 2, "one goal of one feature": 1,
        "a single goal": 2, "shared universe": 2}


def one_goal_game(features, start):
    """The listing of a one-goal compound game on two cells at horizon 1:
    3 movement vertices times the goal's len(features) + 1 reveal counts."""
    return build_compound_game(one_goal_scenario(features, start),
                               ["obj_x"]).game


@pytest.mark.parametrize("features", [["f1"], ["f1", "f2"]])
def test_copycat_and_composition_on_listed_compound_games(features):
    g, h = one_goal_game(features, (0, 0)), one_goal_game(["f1"], (1, 0))
    assert len(g.vertices) == 3 * (len(features) + 1)
    cc = copycat(g)
    assert len(cc.plays) > 1
    assert all(p[-1][0] == p[-1][1] for p in cc.plays)
    assert compose_strategies(g, g, g, cc, cc).plays == cc.plays
    sigma = random_strategy(random.Random(3), implication_game(g, h))
    assert len(sigma.plays) > 1
    assert compose_strategies(g, g, h, cc, sigma).plays == sigma.plays
    assert compose_strategies(g, h, h, sigma, copycat(h)).plays == sigma.plays
    tau = random_strategy(random.Random(4), implication_game(h, g))
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


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "counts past nine"])
def test_factor_ranks_order_the_compound_game_by_repr(seed):
    if seed == "counts past nine":
        # a first goal of 11 features, whose count 10 sorts before 2
        doc = base_doc()
        doc["objects"] = [
            {"id": "obj_%d" % i, "cell": [i, 0], "goal": goal,
             "features": ["f%d_%02d" % (i, j) for j in range(n)]}
            for i, (goal, n) in enumerate([("b2", 11), ("e", 2)])]
        sc = load_scenario(doc)
        goals, position, images = sorted(sc.objects), sc.start, None
    else:
        sc, goals, position, images = wide_plan_case(
            random.Random(300 + seed))
    game = CompoundGame(sc, goals, position, images=images)
    # the chains ranks name the tensor of the goals' chains, and a rank's
    # reveals are its chain moves, in move order
    walked, edges = walk(functools.reduce(Tensor, chain_games(sc, goals)))
    nb = game.goals[0][1] * len(game.goals[0][2])
    names = [game.name(b) for b in range(nb)]
    assert sorted(names, key=repr) == sorted(walked, key=repr)
    out = {}
    for v, w, pol in edges:
        assert pol == "O"
        out.setdefault(v, []).append(w)
    assert out == {names[b]: [names[y] for y in game.reveals(b)]
                   for b in range(nb) if game.reveals(b)}
    # up to a count of 2, the most a play holds, the int order of the
    # ranks is the repr order of their names; past 9 it is not
    low = [b for b in range(nb)
           if all(j <= 2 for _, j in chain_counts(names[b]))]
    assert sorted(low, key=lambda b: repr(names[b])) == low
    assert (sorted(range(nb), key=lambda b: repr(names[b])) != list(
        range(nb))) == (seed == "counts past nine")
    # the repr order of the names ((cell, tick), chains) compares them part
    # by part, cells by repr and ticks by str
    moves = walk(Dual(_Movement(sc, position, sc.horizon)))[0]
    assert sorted(moves, key=repr) == sorted(
        moves, key=lambda v: (repr(v[0]), str(v[1])))
    assert {c for c, _ in moves} == set(game.cells)
    parts = [(m, names[b]) for m in moves for b in low]
    assert sorted(parts, key=repr) == sorted(parts, key=lambda v: (
        repr(v[0][0]), str(v[0][1]), repr(v[1])))


def count_listings(monkeypatch):
    """The position of each movement game listed from now on: a
    CompoundGame lists its movement game's cells once, when it is built."""
    listed = []
    init = CompoundGame.__init__

    def counted(self, sc, goals, position=None, *args, **kwargs):
        listed.append(tuple(sc.start if position is None else position))
        init(self, sc, goals, position, *args, **kwargs)
    monkeypatch.setattr(CompoundGame, "__init__", counted)
    return listed


def count_searches(monkeypatch):
    """The position of each compound game searched from now on."""
    searched = []
    search = planner._search

    def counted(game, stop=False):
        searched.append(game.cells[0])
        return search(game, stop)
    monkeypatch.setattr(planner, "_search", counted)
    return searched


def test_plan_search_asks_no_move_of_the_compound_game(monkeypatch):
    # a plan lists the movement game's cells once; the search reads their
    # neighbours and asks the chains factor only for reveals and meets, so
    # no game is asked a move
    sc, goals = four_goals(), ["obj_b1", "obj_b2", "obj_e"]
    nm = len(walk(_Movement(sc, sc.start, sc.horizon))[0])
    calls, listed = count_moves(monkeypatch), count_listings(monkeypatch)
    plan = plan_play(sc, goals)
    assert (calls, listed) == (Counter(), [sc.start])
    assert plan.header["states"] > 2 * nm


def test_cognition_step_lists_the_movement_game_once(monkeypatch):
    # the saturation check and the plan of a step share one listing
    sc = four_goals()
    calls, listed = count_moves(monkeypatch), count_listings(monkeypatch)
    trace = run_cognition(sc, max_steps=1)
    assert trace.header["steps_taken"] == 1
    assert any(e.get("move") != "wander" for e in trace.entries
               if e["actor"] == "system")
    assert (calls, listed) == (Counter(), [sc.start])


def test_cognition_searches_once_per_move(monkeypatch):
    # every active set lists its movement game's cells once, and only a
    # step that moves searches it, from the cell it leaves; at the final
    # position each shrink and the completing check decide saturation from
    # the cells' side payoffs, searching nothing
    listed, searched = count_listings(monkeypatch), count_searches(monkeypatch)
    trace = run_cognition(four_goals())
    moved = [e for e in trace.entries
             if e["actor"] == "system" and e["move"] != "wander"]
    assert trace.complete
    assert (len(moved), len(trace.shrink_events)) == (6, 2)
    assert searched == [tuple(e["move"][0]) for e in moved]
    assert listed == searched + [tuple(moved[-1]["move"][1])] * 3


def test_a_saturated_step_searches_nothing(monkeypatch):
    # a 1x4 strip at horizon 10**7: the start shows both features of the
    # one object, 3 cells away, so the run completes at step 0 from the
    # four cells of the distance pass, which ends at its first empty
    # frontier rather than run on to the horizon
    doc = base_doc()
    doc.update(grid=["...."], start=[0, 0], horizon=10 ** 7)
    doc["objects"][0]["cell"] = [3, 0]
    sc = load_scenario(doc)
    searched = count_searches(monkeypatch)
    cpu = time.process_time()
    trace = run_cognition(sc)
    cpu = time.process_time() - cpu
    assert trace.complete and trace.header["steps_taken"] == 0
    assert searched == []
    assert cpu < 0.1


def test_a_finished_run_keeps_no_scenario_alive():
    # nothing a run builds holds its scenario once the run returns
    sc = four_goals()
    trace = run_cognition(sc)
    ref = weakref.ref(sc)
    del sc
    gc.collect()
    assert ref() is None
    assert trace.complete


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
    for must in ids:
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


@pytest.mark.parametrize("mode", ["practical", "strict"])
def test_every_run_completes_or_ends_wandering(mode):
    # a non-wander step is a function of (position, pool, images), so a
    # revisit of one is a cycle, and it saturates the step: no run ends at
    # the step limit unless it is still wandering with nothing discovered
    # each trace's document is pinned too, by a sha256 prefix of its
    # canonical form keyed "mode seed"
    revisits = 0
    digests = {}
    for seed in range(10000, 10300):
        sc = random_case(random.Random(seed))[0]
        trace = run_cognition(sc, max_steps=60, mode=mode)
        last = [e for e in trace.entries if e["actor"] == "system"][-1:]
        assert trace.complete or last[0]["move"] == "wander", seed
        # a planned move steps to a 4-neighbour: a searched play never
        # holds its position (see run_cognition)
        for e in trace.entries:
            if e["actor"] == "system" and e["move"] != "wander":
                (x, y), (u, v) = e["move"]
                assert abs(x - u) + abs(y - v) == 1, (seed, e["move"])
        revisits += any(line.endswith(": a cycle")
                        for line in trace.decision_log)
        digests["%s %d" % (mode, seed)] = doc_digest(trace.to_json())[:16]
    assert revisits == {"practical": 3, "strict": 53}[mode]
    table = pinned("run_traces.json")
    assert moved({key: table[key] for key in table
                  if key.startswith(mode + " ")}, digests) == {}


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


# SHA-256 of the run_cognition trace document of each shipped scenario under
# the default flags, taken on its indented canonical form (conftest's
# doc_digest), so the pins hold what a trace says, not how it is laid out.
# Two runs of the same code always agree, so only fixed digests catch a
# change to the traces that every run shares.
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
    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":")) + "\n"
    assert doc_digest(text) == TRACE_DIGESTS[(name, mode, seed)]


# The same digests of the whole runs of CI's planner scale smoke scenario,
# four goals on an open 61x61 grid at h=20 (default flags): its practical
# winners pass tick 9 -> 10, which no seeded run of run_traces.json does.
OPEN61_DIGESTS = {
    "practical":
        "36cbc0f30d2b7f8cfeee404ca4600f54d9a711307ada59f7c170743e6130c06f",
    "strict":
        "5ed36d042d37659e944a1ec878c5a3d521f2a8542a4ded5936040564174df38f",
}


@pytest.mark.parametrize("mode", sorted(OPEN61_DIGESTS))
def test_open_grid_run_digests_are_pinned(mode):
    sc = load_scenario({
        "name": "open61", "grid": ["." * 61] * 61, "start": [30, 30],
        "horizon": 20, "goal_phase": "data:goal_phase.json",
        "free_move_goal": "a", "objects": [
            {"id": "o%d" % i, "cell": [30 + dx, 30 + dy],
             "features": ["s%d_0" % i, "s%d_1" % i], "goal": goal}
            for i, (goal, dx, dy) in enumerate([
                ("J1a", -12, -8), ("b2", 12, -8), ("b3", -12, 8),
                ("e", 12, 8)])]})
    assert doc_digest(run_cognition(sc, mode=mode).to_json()) == \
        OPEN61_DIGESTS[mode]


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
