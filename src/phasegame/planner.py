"""Gridworld cognition loop driven by the goal lattice.

The system (Opponent) explores a grid under a visibility horizon.  Each
object carries an ordered feature list; visibility reveals a distance-scaled
prefix of it, so images of objects accumulate monotonically as the system
moves.  Discovered goals are ranked through the goal phase structure, and
the preferred goal set becomes a compound game composed from the implicit
games of games.py: the movement game implying the tensor of per-goal reveal
chains.  A play maximizing the lattice-valued objective is chosen.  When the
cells within the horizon cannot grow the joined images of the active goals
the set shrinks, until a single goal saturates.
"""

import json
import random
from functools import reduce
from itertools import combinations

from .data import fields, load_doc, stem
from .errors import BadGrid, HorizonEmpty, UnknownGoalElement, UsageError
from .games import (Game, Memo, PayoffGame, Tensor, implication,
                    materialize, walk)
from .lattice import PowersetLattice
from .phase import phase_from_doc


class SceneObject:
    def __init__(self, id, cell, features, goal, attractiveness=0):
        self.id = id
        self.cell = tuple(cell)
        self.features = tuple(features)
        self.goal = goal
        self.attractiveness = attractiveness


class Scenario:
    def __init__(self, passable, start, horizon, objects, phase,
                 free_move_goal, rows, name="scenario"):
        self.passable = passable
        self.rows = rows
        self.start = start
        self.horizon = horizon
        self.objects = {o.id: o for o in sorted(objects, key=lambda o: o.id)}
        self.phase = phase
        self.lattice = phase.lattice
        self.free_move_goal = free_move_goal
        self.name = name
        self.payoff_lattice = PowersetLattice(
            {f for o in objects for f in o.features})
        self.universe = self.payoff_lattice.base

    def neighbors(self, cell):
        x, y = cell
        out = []
        for nx, ny in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1)):
            if (nx, ny) in self.passable:
                out.append((nx, ny))
        return out


def load_scenario(path_or_doc):
    doc, base_dir = load_doc(path_or_doc)
    f = fields(doc, "scenario")
    name = stem(path_or_doc) if isinstance(path_or_doc, str) else f["name"]

    rows = f["grid"]
    if not rows:
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

    start = tuple(f["start"])
    if start not in passable:
        raise BadGrid("start %r is not a passable cell" % (start,))
    horizon = f["horizon"]
    if horizon < 0:
        raise BadGrid("horizon must be a nonnegative integer")

    phase = phase_from_doc(f["goal_phase"], base_dir=base_dir)
    lattice = phase.lattice
    generators = lattice.generators if lattice.generators else list(
        lattice.elements)

    objects = []
    seen_ids, seen_goals = set(), set()
    for obj in (SceneObject(**od) for od in f["objects"]):
        if obj.id in seen_ids:
            raise UsageError("two objects share the id %r" % (obj.id,))
        if obj.cell not in passable:
            raise BadGrid("object %r sits on cell %r outside the grid"
                          % (obj.id, obj.cell))
        if obj.goal not in generators:
            raise UnknownGoalElement(
                "goal %r of object %r is not a declared generator"
                % (obj.goal, obj.id))
        if obj.goal in seen_goals:
            raise UnknownGoalElement(
                "two objects share the goal element %r" % (obj.goal,))
        seen_ids.add(obj.id)
        seen_goals.add(obj.goal)
        objects.append(obj)

    free_move_goal = f["free_move_goal"]
    if free_move_goal not in lattice:
        raise UnknownGoalElement("free_move_goal %r not in the goal lattice"
                                 % (free_move_goal,))
    return Scenario(passable, start, horizon, objects, phase,
                    free_move_goal, list(rows), name=name)


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
    for obj in sc.objects.values():
        d = chebyshev(pos, obj.cell)
        n = len(obj.features)
        num = n * (den - d)
        count = -(-num // den) if num > 0 else 0
        out[obj.id] = frozenset(obj.features[:count])
    return out


def _goal_objects(sc, goals):
    """The scene objects with the ids in goals, in order; an id that names
    no object raises UnknownGoalElement."""
    try:
        return [sc.objects[g] for g in goals]
    except KeyError as exc:
        raise UnknownGoalElement(
            "no object has the id %r" % (exc.args[0],)) from None


def _as_elements(sc, goals):
    return [o.goal for o in _goal_objects(sc, goals)]


def eval_priority(sc, goals):
    """Priority of a goal set, given by object ids: the implication from
    the free-move element to the folded product of the goal elements."""
    if not goals:
        raise ValueError("goals must not be empty")
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
    ids = sorted(discovered)
    attractiveness = {o.id: o.attractiveness for o in _goal_objects(sc, ids)}
    log = []
    candidates = []
    for size in range(1, len(ids) + 1):
        if max_size is not None and size > max_size:
            break
        for combo in combinations(ids, size):
            if must_include is not None and must_include not in combo:
                continue
            pr = eval_priority(sc, combo)
            att = sum(attractiveness[i] for i in combo)
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

class _Movement:
    """The system's movement game from pos: Opponent steps to a neighbour
    at even ticks and Proponent ticks at odd ones, for radius rounds."""

    def __init__(self, sc, pos, radius):
        self.sc = sc
        self.root = (pos, 0)
        self._last_tick = 2 * radius

    def moves(self, v, pol):
        cell, t = v
        if t >= self._last_tick or t % 2 != (pol == "P"):
            return []
        if pol == "O":
            return [(n, t + 1) for n in self.sc.neighbors(cell)]
        return [(cell, t + 1)]


def _ball(sc, pos, radius):
    """The cells within radius steps of pos."""
    return {cell for cell, _ in walk(_Movement(sc, pos, radius))[0]}


def _check_mode(mode):
    if mode not in ("practical", "strict"):
        raise ValueError("mode must be 'practical' or 'strict'")


class CompoundGame:
    """The implicit game implication(movement, Memo(tensor of per-goal
    reveal chains)), given by its moves and payoffs instead of built.

    A vertex is ((cell, tick), chains): implication dualizes the movement
    game, so Proponent steps at even ticks and Opponent ticks at odd ones.
    A goal's chain runs through (goal id, revealed count), advanced by
    Opponent; tensoring left to right nests them as (g1, j1), then
    ((g1, j1), (g2, j2)), and so on.  Every move advances the tick or one
    count, so a vertex sits at depth tick + sum of counts.

    A payoff is a mask of the scenario's payoff lattice, the powerset of
    its feature universe: what the cell reveals of the goals, joined with
    their images (or its complement, in strict mode), joined with the meet
    over goals of each revealed prefix joined with its image.
    """

    def __init__(self, sc, goals, position=None, mode="practical",
                 images=None):
        pos = tuple(sc.start if position is None else position)
        if not sc.neighbors(pos) and len(sc.passable) > 1:
            raise HorizonEmpty("no legal move from %r" % (pos,))
        _check_mode(mode)
        if not goals:
            raise ValueError("goals must not be empty")
        images = images or {}
        objs = _goal_objects(sc, goals)
        self.sc = sc
        self.lattice = lat = sc.payoff_lattice
        self._ids = list(goals)
        image = [lat.mask(images.get(g, ())) for g in goals]
        self._prefix = [[lat.mask(o.features[:j]) | im
                         for j in range(len(o.features) + 1)]
                        for o, im in zip(objs, image)]
        self._images = lat.mask(f for g in goals for f in images.get(g, ()))
        self._negate = mode == "strict"
        self._side = {}
        self._meet = {}
        chains = [Game([(o.id, j) for j in range(len(o.features) + 1)],
                       (o.id, 0), [((o.id, j), (o.id, j + 1), "O")
                                   for j in range(len(o.features))])
                  for o in objs]
        game = implication(_Movement(sc, pos, sc.horizon),
                           Memo(reduce(Tensor, chains)))
        self.root = game.root
        self.moves = game.moves

    def payoff(self, v):
        (cell, _), b = v
        lat = self.lattice
        side = self._side.get(cell)
        if side is None:
            vis = visible_rewards(self.sc, cell)
            side = self._images | lat.mask(
                f for oid in self._ids for f in vis[oid])
            if self._negate:
                side = lat.complement(side)
            self._side[cell] = side
        meet = self._meet.get(b)
        if meet is None:
            meet, rest = lat.complement(0), b
            for prefix in reversed(self._prefix[1:]):
                rest, (_, j) = rest
                meet &= prefix[j]
            meet &= self._prefix[0][rest[1]]
            self._meet[b] = meet
        return side | meet


def build_compound_game(sc, goals, position=None, mode="practical",
                        images=None):
    """The CompoundGame materialized as a PayoffGame.

    Its vertices are those reachable from the root by moves of either
    polarity, and its payoffs are named in the scenario's payoff lattice.
    """
    game = CompoundGame(sc, goals, position=position, mode=mode, images=images)
    listed = materialize(game)
    lat = sc.payoff_lattice
    k = {v: lat.name(game.payoff(v)) for v in listed.vertices}
    return PayoffGame(listed, lat, k)


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


class _Reprs(dict):
    """repr of each key, computed on first lookup."""

    def __missing__(self, x):
        r = self[x] = repr(x)
        return r


def plan_play(sc, goals, mode="practical", position=None, images=None):
    """Pick a play of the compound game with a maximal joined payoff.

    A play's objective is the join of its vertex payoffs.  Plays whose
    objective has the largest support win; in a powerset such an objective
    is maximal, since no other set strictly contains it.  Ties fall to
    shorter plays, then to lexical move order: the repr order of the
    vertices, found by comparing the reprs of their cell, tick and chains
    in turn (tests pin it on two-digit coordinates and ticks).

    No play is listed.  A breadth-first search runs over states (vertex,
    objective so far), one layer per play length: a vertex fixes its depth,
    so every prefix reaching a state has the same length, and the state
    keeps the number of prefixes reaching it and the lexically smallest
    one, whose every extension is the smallest among theirs.  Each layer
    is kept in the lexical order of those prefixes, so the first play found
    with the largest objective is the winner, and the play counts of the
    decision log (the plays, those of the largest support, and the plays
    ending with each objective size) are sums of state counts.  The trace
    header reports the states explored and the plays counted.
    """
    if position is None:
        position = sc.start
    game = CompoundGame(sc, goals, position=position, mode=mode, images=images)
    lat = sc.payoff_lattice

    trace = Trace({
        "kind": "plan",
        "scenario": sc.name,
        "mode": mode,
        "position": list(position),
        "goals": sorted(goals),
        "objective_lattice": "powerset of %d features" % len(sc.universe),
    })

    reprs = _Reprs()

    def order(w):
        # repr(w) is "((" cell ", " tick "), " chains ")": a tuple's repr is
        # prefix-free and an int's is followed by "," or ")", below every
        # digit, so the parts' reprs compared in turn order as repr(w) does
        (cell, t), b = w
        return reprs[cell], reprs[t], reprs[b]

    root = (game.root, game.payoff(game.root))
    count = {root: 1}
    parent = {root: None}
    succ = {}
    support = {}                # objective size -> plays ending with it
    best_size, best = -1, None
    layer = [root]
    depth = 0
    while layer:
        pol = "O" if depth % 2 == 0 else "P"
        nxt = []
        for s in layer:
            v, mask = s
            if v not in succ:
                succ[v] = [(w, game.payoff(w))
                           for w in sorted(game.moves(v, pol), key=order)]
            if not succ[v]:
                size = mask.bit_count()
                support[size] = support.get(size, 0) + count[s]
                if size > best_size:
                    best_size, best = size, s
                continue
            for w, k in succ[v]:
                u = (w, mask | k)
                if u in count:
                    count[u] += count[s]
                else:
                    count[u] = count[s]
                    parent[u] = s
                    nxt.append(u)
        layer = nxt
        depth += 1
    trace.header["states"] = len(count)
    trace.header["plays"] = sum(support.values())
    trace.log("enumerated %d alternated plays" % trace.header["plays"])
    trace.log("plays with an objective of largest support: %d"
              % support[best_size])
    trace.log("plays by objective size: %s" % ", ".join(
        "%d: %d" % kv for kv in sorted(support.items())))
    if support[best_size] > 1:
        trace.log("tie-broken by length, then move order")

    play = []
    s = best
    while s is not None:
        play.append(s[0])
        s = parent[s]
    play.reverse()

    running = 0
    for i, v in enumerate(play):
        (cell, t), _ = v
        running |= game.payoff(v)
        if i == 0:
            continue
        actor = "environment" if (i - 1) % 2 == 0 else "system"
        vis = visible_rewards(sc, cell)
        trace.entries.append({
            "actor": actor,
            "position": list(cell),
            "rewards": {g: sorted(vis[g]) for g in sorted(goals)},
            "objective_so_far": lat.members(running),
        })
    trace.final_play = [_vertex_doc(v) for v in play]
    trace.objective = lat.members(best[1])

    reached = {cell for (cell, t), _ in play}
    for g in goals:
        obj = sc.objects[g]
        if obj.cell not in reached:
            trace.log("goal %s not reached within horizon" % g)
    trace.complete = True
    return trace


def _vertex_doc(v):
    (cell, t), bvert = v
    return {"cell": list(cell), "tick": t, "chains": repr(bvert)}


def run_cognition(sc, max_steps=50, mode="practical", seed=0):
    """Full exploration loop: discover, select, plan, move, accumulate.

    Images of objects only ever grow (by join with what is visible).  When
    the reachable ball cannot add anything to the joined images of the
    active goals, the active set shrinks; the run completes when a single
    goal saturates, else it stops at max_steps with the step_limit flag.
    """
    _check_mode(mode)
    rng = random.Random(seed)
    trace = Trace({
        "kind": "cognition",
        "scenario": sc.name,
        "mode": mode,
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
        } for o in sc.objects.values()],
    })
    pos = sc.start
    images = {oid: frozenset() for oid in sc.objects}
    dropped = set()
    pool = []

    def reveal(where):
        vis = visible_rewards(sc, where)
        for oid, feats in vis.items():
            images[oid] = images[oid] | feats
        trace.entries.append({
            "actor": "environment",
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
        for cell in _ball(sc, pos, sc.horizon):
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
            prio = sc.phase.impl(sc.free_move_goal, sc.free_move_goal)
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

        plan = plan_play(sc, active, mode=mode, position=pos, images=images)
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
