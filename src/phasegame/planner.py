"""Gridworld cognition loop driven by the goal lattice.

The system (Opponent) explores a grid under a visibility horizon.  Each
object carries an ordered feature list; visibility reveals a distance-scaled
prefix of it, so images of objects accumulate monotonically as the system
moves.  Discovered goals are ranked through the goal phase structure, the
preferred goal set is turned into a compound game (movement game implying
the tensor of per-goal reveal chains), and a play maximizing the
lattice-valued objective is chosen.  When lookahead cannot grow the joined
images of the active goals the set shrinks, until a single goal saturates.
"""

import json
import random
from collections import deque
from itertools import combinations

from .data import load_doc, stem
from .errors import (
    BadGrid,
    HorizonEmpty,
    InteractionOverflow,
    UnknownGoalElement,
)
from .games import Game, PayoffGame, implication_game, tensor_game
from .lattice import PowersetLattice
from .phase import phase_from_doc

_PLAY_CAP = 200000


class SceneObject:
    def __init__(self, oid, cell, features, goal, attractiveness=0):
        self.id = oid
        self.cell = cell
        self.features = tuple(features)
        self.goal = goal
        self.attractiveness = attractiveness


class Scenario:
    def __init__(self, width, height, passable, start, horizon, objects,
                 phase, free_move_goal, name="scenario", rows=None):
        self.width = width
        self.height = height
        self.passable = passable
        self.rows = rows or ["".join(
            "." if (x, y) in passable else "#" for x in range(width))
            for y in range(height)]
        self.start = start
        self.horizon = horizon
        self.objects = {o.id: o for o in objects}
        self.phase = phase
        self.lattice = phase.lattice
        self.free_move_goal = free_move_goal
        self.name = name
        self.universe = sorted({f for o in objects for f in o.features})
        self._payoff_lattice = None

    def payoff_lattice(self):
        if self._payoff_lattice is None:
            self._payoff_lattice = PowersetLattice(self.universe)
        return self._payoff_lattice

    def cells(self):
        return sorted(self.passable)

    def neighbors(self, cell):
        x, y = cell
        out = []
        for nx, ny in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
            if (nx, ny) in self.passable:
                out.append((nx, ny))
        return out

    def object_list(self):
        return [self.objects[k] for k in sorted(self.objects)]


def load_scenario(path_or_doc):
    doc, base_dir = load_doc(path_or_doc)
    name = (stem(path_or_doc) if isinstance(path_or_doc, str)
            else doc.get("name", "scenario"))

    rows = doc["grid"]
    if not rows or not all(isinstance(r, str) for r in rows):
        raise BadGrid("grid must be a nonempty list of row strings")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise BadGrid("grid rows must be nonempty and equally long")
    passable = set()
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            if ch == ".":
                passable.add((x, y))
            elif ch != "#":
                raise BadGrid("unknown grid character %r" % ch)

    start = tuple(doc["start"])
    if start not in passable:
        raise BadGrid("start %r is not a passable cell" % (start,))
    horizon = doc["horizon"]
    if isinstance(horizon, bool) or not isinstance(horizon, int) \
            or horizon < 0:
        raise BadGrid("horizon must be a nonnegative integer")

    phase = phase_from_doc(doc["goal_phase"], base_dir=base_dir)
    lattice = phase.lattice
    generators = lattice.generators if lattice.generators else list(
        lattice.elements)

    objects = []
    seen_goals = set()
    for od in doc.get("objects", []):
        cell = tuple(od["cell"])
        if cell not in passable:
            raise BadGrid("object %r sits on cell %r outside the grid"
                          % (od["id"], cell))
        goal = od["goal"]
        if goal not in generators:
            raise UnknownGoalElement(
                "goal %r of object %r is not a declared generator"
                % (goal, od["id"]))
        if goal in seen_goals:
            raise UnknownGoalElement(
                "two objects share the goal element %r" % (goal,))
        seen_goals.add(goal)
        objects.append(SceneObject(od["id"], cell, od["features"], goal,
                                   od.get("attractiveness", 0)))

    free_move_goal = doc["free_move_goal"]
    if free_move_goal not in lattice:
        raise UnknownGoalElement("free_move_goal %r not in the goal lattice"
                                 % (free_move_goal,))
    return Scenario(width, len(rows), passable, start, horizon, objects,
                    phase, free_move_goal, name=name, rows=list(rows))


def chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def visible_rewards(sc, pos):
    """Feature prefix of each object revealed from pos; empty beyond horizon.

    At distance d the first ceil(n * (1 - d/(horizon+1))) features show, so
    standing on the object reveals everything and the fraction decays with
    distance.
    """
    out = {}
    den = sc.horizon + 1
    for obj in sc.object_list():
        d = chebyshev(pos, obj.cell)
        n = len(obj.features)
        num = n * (den - d)
        count = -(-num // den) if num > 0 else 0
        out[obj.id] = frozenset(obj.features[:count])
    return out


def _as_elements(sc, goals):
    els = []
    for g in goals:
        if isinstance(g, SceneObject):
            els.append(g.goal)
        elif g in sc.objects:
            els.append(sc.objects[g].goal)
        else:
            els.append(g)
    return els


def eval_priority(sc, goals):
    """Priority of a goal set: the implication from the free-move element
    to the folded product of the goal elements."""
    ps = sc.phase
    els = _as_elements(sc, goals)
    folded = els[0]
    for el in els[1:]:
        folded = ps.mult(folded, el)
    return ps.impl(sc.free_move_goal, folded)


class GoalProcessSet:
    def __init__(self, goals, priority, attractiveness):
        self.goals = tuple(goals)            # object ids, name order
        self.priority = priority
        self.attractiveness = attractiveness

    def __repr__(self):
        return "GoalProcessSet(%s -> %s)" % (",".join(self.goals),
                                             self.priority)


class Selection(list):
    """List of surviving GoalProcessSets plus the decision log."""

    def __init__(self, sets, candidates, indistinguishable, log):
        super().__init__(sets)
        self.candidates = candidates
        self.indistinguishable = indistinguishable
        self.log = log


def select_goal_sets(sc, discovered, must_include=None, max_size=None):
    """Rank subsets of the discovered objects by goal-lattice priority.

    Keeps the subsets whose priority no other subset strictly exceeds, then
    the largest of those, ordered by declared attractiveness and then by
    name.  The indistinguishable flag reports that priorities alone carried
    no information (all candidates evaluated equal).
    """
    lat = sc.lattice
    ids = sorted(o.id if isinstance(o, SceneObject) else o
                 for o in discovered)
    if must_include is not None and isinstance(must_include, SceneObject):
        must_include = must_include.id
    log = []
    candidates = []
    for size in range(1, len(ids) + 1):
        if max_size is not None and size > max_size:
            break
        for combo in combinations(ids, size):
            if must_include is not None and must_include not in combo:
                continue
            pr = eval_priority(sc, combo)
            att = sum(sc.objects[i].attractiveness for i in combo)
            candidates.append(GoalProcessSet(combo, pr, att))
            log.append("candidate {%s}: priority %s"
                       % (",".join(combo), pr))

    if not candidates:
        return Selection([], [], False, log + ["no candidates"])

    prios = {c.priority for c in candidates}
    indistinguishable = len(prios) == 1 and len(candidates) > 1
    if indistinguishable:
        log.append("all priorities equal (%s): indistinguishable"
                   % next(iter(prios)))
    maximal = [c for c in candidates
               if not any(c.priority != d.priority
                          and lat.leq(c.priority, d.priority)
                          for d in candidates)]
    log.append("maximal priority sets: %d of %d"
               % (len(maximal), len(candidates)))
    best_size = max(len(c.goals) for c in maximal)
    sized = [c for c in maximal if len(c.goals) == best_size]
    if len(sized) < len(maximal):
        log.append("tie-break on goal count: kept %d of size %d"
                   % (len(sized), best_size))
    sized.sort(key=lambda c: (-c.attractiveness, c.goals))
    if len(sized) > 1:
        log.append("order by attractiveness then name: %s first"
                   % ",".join(sized[0].goals))
    return Selection(sized, candidates, indistinguishable, log)


# compound game ---------------------------------------------------------

def _ball(sc, pos, radius):
    seen = {pos: 0}
    todo = deque([pos])
    while todo:
        c = todo.popleft()
        if seen[c] == radius:
            continue
        for n in sc.neighbors(c):
            if n not in seen:
                seen[n] = seen[c] + 1
                todo.append(n)
    return seen


def _chain_prefix(obj, j):
    return frozenset(obj.features[:j])


def build_compound_game(sc, goals, position=None, mode="practical",
                        dual_payoff="copy", images=None):
    """Movement game implying the tensor of per-goal reveal chains.

    The movement game alternates a system move (Opponent) with a reveal tick
    (Proponent) for horizon-many rounds inside the reachable ball; each goal
    contributes a chain that steps through its feature list.  Payoffs live
    in the powerset of the scenario's feature universe; each goal's payoff
    is its accumulated image joined with what the position reveals, so a
    play that uncovers anything new strictly dominates one that does not.
    """
    if position is None:
        position = sc.start
    if images is None:
        images = {}
    pos = tuple(position)
    radius = sc.horizon
    if not sc.neighbors(pos) and len(sc.passable) > 1:
        raise HorizonEmpty("no legal move from %r" % (pos,))

    ball = _ball(sc, pos, radius)
    edges = []
    for c in sorted(ball):
        for t in range(2 * radius):
            if t % 2 == 0:
                for n in sc.neighbors(c):
                    if n in ball:
                        edges.append(((c, t), (n, t + 1), "O"))
            else:
                edges.append(((c, t), (c, t + 1), "P"))
    # keep only what the system can actually reach from the start vertex
    reach = {(pos, 0)}
    frontier = deque([(pos, 0)])
    adj = {}
    for f, t, _ in edges:
        adj.setdefault(f, []).append(t)
    while frontier:
        v = frontier.popleft()
        for w in adj.get(v, []):
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    verts = sorted(reach)
    move_game = Game(verts, (pos, 0),
                     [(f, t, p) for f, t, p in edges
                      if f in reach and t in reach])

    objs = [sc.objects[g] if not isinstance(g, SceneObject) else g
            for g in goals]
    chains = []
    for obj in objs:
        m = len(obj.features)
        chains.append(Game([(obj.id, j) for j in range(m + 1)], (obj.id, 0),
                           [((obj.id, j), (obj.id, j + 1), "O")
                            for j in range(m)]))
    consequent = chains[0]
    for ch in chains[1:]:
        consequent = tensor_game(consequent, ch)
    compound = implication_game(move_game, consequent)

    universe = sc.universe
    lat = sc.payoff_lattice()

    def name(subset):
        return ",".join(sorted(subset))

    vis_cache = {}

    def visible_union(cell):
        if cell not in vis_cache:
            vis = visible_rewards(sc, cell)
            out = frozenset()
            for o in objs:
                out = out | vis[o.id] | images.get(o.id, frozenset())
            vis_cache[cell] = out
        return vis_cache[cell]

    def chain_sets(bvert):
        out = []
        node = bvert
        for _ in range(len(objs) - 1):
            node, last = node
            out.append(last)
        out.append(node)
        out.reverse()
        return [_chain_prefix(obj, j) | images.get(obj.id, frozenset())
                for obj, (oid, j) in zip(objs, out)]

    full = frozenset(universe)
    k = {}
    for v in compound.vertices:
        (cell, t), bvert = v
        vis = visible_union(cell)
        sets = chain_sets(bvert)
        meet = sets[0]
        for s in sets[1:]:
            meet = meet & s
        if mode == "practical":
            side = vis if dual_payoff == "copy" else full - vis
            val = side | meet
        elif mode == "strict":
            val = (full - vis) | meet
        else:
            raise ValueError("mode must be 'practical' or 'strict'")
        k[v] = name(val)
    return PayoffGame(compound, lat, k)


# traces ----------------------------------------------------------------

class Trace:
    def __init__(self, header):
        self.header = dict(header)
        self.entries = []
        self.decision_log = []
        self.selections = []
        self.shrink_events = []
        self.final_play = None
        self.objective = None
        self.final_images = {}
        self.complete = False
        self.step_limit = False

    def log(self, msg):
        self.decision_log.append(msg)

    def to_doc(self):
        return {
            "header": self.header,
            "entries": self.entries,
            "decision_log": self.decision_log,
            "selections": self.selections,
            "shrink_events": self.shrink_events,
            "final_play": self.final_play,
            "objective": self.objective,
            "final_images": {k: sorted(v)
                             for k, v in self.final_images.items()},
            "complete": self.complete,
            "step_limit": self.step_limit,
        }

    def to_json(self):
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"


def _enumerate_plays(game):
    plays = []
    stack = [(game.root,)]
    while stack:
        p = stack.pop()
        pol = "O" if (len(p) - 1) % 2 == 0 else "P"
        nxt = game.moves(p[-1], pol)
        if not nxt:
            plays.append(p)
            continue
        for w in sorted(nxt, key=repr):
            stack.append(p + (w,))
        if len(plays) + len(stack) > _PLAY_CAP:
            raise InteractionOverflow("play enumeration exceeded cap")
    return plays


def plan_play(sc, goals, mode="practical", dual_payoff="copy",
              position=None, images=None):
    """Pick a play of the compound game with a maximal joined payoff.

    Every alternated play is enumerated and scored by the join of vertex
    payoffs along it.  Plays whose objective has the largest support win;
    in a powerset such an objective is maximal, since no other set strictly
    contains it.  Ties fall to shorter plays, then to lexical move order.
    """
    if position is None:
        position = sc.start
    pg = build_compound_game(sc, goals, position=position, mode=mode,
                             dual_payoff=dual_payoff, images=images)
    lat = pg.lattice
    goal_ids = [g.id if isinstance(g, SceneObject) else g for g in goals]

    trace = Trace({
        "kind": "plan",
        "scenario": sc.name,
        "mode": mode,
        "dual_payoff": dual_payoff,
        "position": list(position),
        "goals": sorted(goal_ids),
        "objective_lattice": "powerset of %d features" % len(sc.universe),
    })

    plays = _enumerate_plays(pg.game)
    by_val = {}
    for p in plays:
        val = lat.join([pg.k[v] for v in p])
        by_val.setdefault(val, []).append(p)
    trace.log("enumerated %d alternated plays" % len(plays))

    best_rank = max(lat.atom_rank(val) for val in by_val)
    ranked = [(p, val) for val, ps in by_val.items()
              if lat.atom_rank(val) == best_rank for p in ps]
    trace.log("plays with an objective of largest support: %d" % len(ranked))
    shortest = min(len(p) for p, _ in ranked)
    short = [(p, val) for p, val in ranked if len(p) == shortest]
    short.sort(key=lambda pv: tuple(repr(v) for v in pv[0]))
    if len(ranked) > 1:
        trace.log("tie-broken by length, then move order")
    play, objective = short[0]

    running = lat.bottom
    pos_now = tuple(position)
    for i, v in enumerate(play):
        (cell, t), _ = v
        running = lat.join2(running, pg.k[v])
        if i == 0:
            continue
        actor = "environment" if (i - 1) % 2 == 0 else "system"
        if actor == "system":
            pos_now = cell
        vis = visible_rewards(sc, cell)
        trace.entries.append({
            "actor": actor,
            "position": list(cell),
            "rewards": {g: sorted(vis[g]) for g in sorted(goal_ids)},
            "objective_so_far": sorted(x for x in running.split(",") if x),
        })
    trace.final_play = [_vertex_doc(v) for v in play]
    trace.objective = sorted(x for x in objective.split(",") if x)

    reached = {cell for (cell, t), _ in play}
    for g in goal_ids:
        obj = sc.objects[g]
        if obj.cell not in reached:
            trace.log("goal %s not reached within horizon" % g)
    trace.complete = True
    return trace


def _vertex_doc(v):
    (cell, t), bvert = v
    return {"cell": list(cell), "tick": t, "chains": repr(bvert)}


def run_cognition(sc, max_steps=50, mode="practical", dual_payoff="copy",
                  seed=0, lookahead=None):
    """Full exploration loop: discover, select, plan, move, accumulate.

    Images of objects only ever grow (by join with what is visible).  When
    the reachable ball cannot add anything to the joined images of the
    active goals, the active set shrinks; the run completes when a single
    goal saturates, else it stops at max_steps with the step_limit flag.
    """
    rng = random.Random(seed)
    if lookahead is None:
        lookahead = sc.horizon
    trace = Trace({
        "kind": "cognition",
        "scenario": sc.name,
        "mode": mode,
        "dual_payoff": dual_payoff,
        "seed": seed,
        "max_steps": max_steps,
        "free_move_goal": sc.free_move_goal,
        "objective_lattice": "powerset of %d features" % len(sc.universe),
        "grid": list(sc.rows),
        "start": list(sc.start),
        "horizon": sc.horizon,
        "objects": [{
            "id": o.id,
            "cell": list(o.cell),
            "features": list(o.features),
            "goal": o.goal,
            "attractiveness": o.attractiveness,
        } for o in sc.object_list()],
    })
    pos = sc.start
    images = {o.id: frozenset() for o in sc.object_list()}
    dropped = set()
    pool = []

    def reveal(where, actor="environment"):
        vis = visible_rewards(sc, where)
        for oid, feats in vis.items():
            images[oid] = images[oid] | feats
        trace.entries.append({
            "actor": actor,
            "position": list(where),
            "rewards": {oid: sorted(v) for oid, v in vis.items()},
            "images": {oid: sorted(v) for oid, v in images.items()},
        })

    def joined_image(ids):
        out = frozenset()
        for i in ids:
            out = out | images[i]
        return out

    def ball_potential(ids):
        out = frozenset()
        for cell in _ball(sc, pos, lookahead):
            vis = visible_rewards(sc, cell)
            for i in ids:
                out = out | vis[i]
        return out

    reveal(pos)
    steps = 0
    while steps < max_steps:
        discovered = [oid for oid in sorted(images)
                      if images[oid] and oid not in dropped]
        for oid in discovered:
            if oid not in pool:
                pool.append(oid)
        if not pool:
            moves = sc.neighbors(pos)
            prio = eval_priority(sc, [sc.free_move_goal])
            if moves:
                pos = moves[rng.randrange(len(moves))]
            trace.entries.append({
                "actor": "system",
                "position": list(pos),
                "move": "wander",
                "free_move_priority": prio,
            })
            trace.log("step %d: nothing discovered, wander under %s "
                      "(priority %s)" % (steps, sc.free_move_goal, prio))
            reveal(pos)
            steps += 1
            continue

        must = sorted(pool, key=lambda i: (-sc.objects[i].attractiveness, i))[0]
        selection = select_goal_sets(sc, pool, must_include=must)
        trace.log("step %d: pool {%s}, anchor %s"
                  % (steps, ",".join(sorted(pool)), must))
        for line in selection.log:
            trace.log("  " + line)
        if selection.indistinguishable:
            trace.log("  selection indistinguishable; keeping first in order")
        trace.selections.append({
            "step": steps,
            "pool": sorted(pool),
            "anchor": must,
            "indistinguishable": selection.indistinguishable,
            "sets": [{
                "goals": list(c.goals),
                "elements": _as_elements(sc, c.goals),
                "priority": c.priority,
                "attractiveness": c.attractiveness,
            } for c in selection],
        })
        active = list(selection[0].goals)
        trace.log("  active set {%s} priority %s"
                  % (",".join(active), selection[0].priority))

        potential = ball_potential(active)
        if potential <= joined_image(active):
            if len(active) == 1:
                trace.log("step %d: single goal %s saturated; run complete"
                          % (steps, active[0]))
                trace.complete = True
                break
            keep = select_goal_sets(sc, active,
                                    must_include=must if must in active
                                    else None,
                                    max_size=len(active) - 1)
            shrunk = list(keep[0].goals)
            gone = sorted(set(pool) - set(shrunk))
            dropped.update(gone)
            pool = [i for i in pool if i in shrunk]
            trace.shrink_events.append({
                "step": steps,
                "from": sorted(active),
                "to": sorted(shrunk),
            })
            trace.log("step %d: images saturated for {%s}; shrink to {%s}"
                      % (steps, ",".join(active), ",".join(shrunk)))
            continue

        plan = plan_play(sc, active, mode=mode, dual_payoff=dual_payoff,
                         position=pos, images=images)
        move_to = None
        for v in plan.final_play[1:]:
            cell = tuple(v["cell"])
            if cell != pos:
                move_to = cell
                break
        if move_to is None:
            trace.log("step %d: plan holds position" % steps)
            move_to = pos
        trace.entries.append({
            "actor": "system",
            "position": list(move_to),
            "move": [list(pos), list(move_to)],
            "active": sorted(active),
            "objective": plan.objective,
        })
        pos = move_to
        reveal(pos)
        steps += 1

    else:
        trace.step_limit = True
        trace.log("stopped at step limit %d" % max_steps)

    trace.final_images = dict(images)
    trace.header["steps_taken"] = steps
    return trace
