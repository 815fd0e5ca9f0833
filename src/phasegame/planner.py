"""Gridworld cognition loop driven by the goal lattice.

The system (Opponent) explores a grid under a visibility horizon.  Each
object carries an ordered feature list; visibility reveals a distance-scaled
prefix of it, so images of objects accumulate monotonically as the system
moves.  Discovered goals are ranked through the goal phase structure, and
the preferred goal set becomes a compound game: the movement game implying
the tensor of per-goal reveal chains, held in ranked form (CompoundGame):
its vertices are ints that index the tables of its two factors.  A play
maximizing the lattice-valued objective is chosen.  When the cells within
the horizon cannot grow the joined images of the active goals the set
shrinks, until a single goal saturates.
"""

import json
import random
from functools import reduce
from itertools import combinations

from .data import fields, load_doc, stem
from .errors import BadGrid, HorizonEmpty, UnknownGoalElement, UsageError
from .games import Game, PayoffGame, walk
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
        self._visible = {}              # cell -> visible_rewards

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
    distance.  Computed once per scenario and cell; every call returns a
    fresh dict, which the caller may change.
    """
    pos = tuple(pos)
    out = sc._visible.get(pos)
    if out is None:
        out = sc._visible[pos] = {}
        den = sc.horizon + 1
        for obj in sc.objects.values():
            d = chebyshev(pos, obj.cell)
            n = len(obj.features)
            num = n * (den - d)
            count = -(-num // den) if num > 0 else 0
            out[obj.id] = frozenset(obj.features[:count])
    return dict(out)


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


def select_goal_sets(sc, discovered, must_include=None):
    """Rank subsets of the discovered objects by goal-lattice priority.

    Prices every subset (holding must_include, if given) and ranks them
    with _rank; the log lists each candidate, then the ranking.  An id,
    the anchor's included, that names no object raises UnknownGoalElement,
    and an anchor outside discovered raises ValueError.
    """
    ids = sorted(discovered)
    attractiveness = {o.id: o.attractiveness for o in _goal_objects(sc, ids)}
    if must_include is not None and must_include not in ids:
        _goal_objects(sc, [must_include])
        raise ValueError("anchor %r is not a discovered object"
                         % (must_include,))
    candidates = []
    for size in range(1, len(ids) + 1):
        for combo in combinations(ids, size):
            if must_include is not None and must_include not in combo:
                continue
            candidates.append(GoalProcessSet(
                combo, eval_priority(sc, combo),
                sum(attractiveness[i] for i in combo)))
    ranked = _rank(sc.lattice, candidates)
    ranked.log[:0] = ["candidate {%s}: priority %s"
                      % (",".join(c.goals), c.priority) for c in candidates]
    return ranked


def _rank(lat, candidates):
    """Rank priced GoalProcessSets: keep those whose priority no other
    priority strictly exceeds, then the largest of those, ordered by
    attractiveness and then by name.  The indistinguishable flag reports
    that priorities alone carried no information (all candidates evaluated
    equal)."""
    if not candidates:
        return Selection([], [], False, ["no candidates"])
    log = []
    prios = {c.priority for c in candidates}
    indistinguishable = len(prios) == 1 and len(candidates) > 1
    if indistinguishable:
        log.append("all priorities equal (%s): indistinguishable"
                   % next(iter(prios)))
    top = {p for p in prios
           if not any(p != q and lat.leq(p, q) for q in prios)}
    maximal = [c for c in candidates if c.priority in top]
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


def _movement(sc, pos):
    """The movement game from pos, dualized and ranked: its vertices sorted
    by the reprs of cell and tick, the rank of its root (pos, 0), and for
    each polarity the successors of each vertex as ranks, in move order.
    Dualizing swaps the polarities, so Proponent steps at even ticks and
    Opponent ticks at odd ones."""
    vertices, edges = walk(_Movement(sc, pos, sc.horizon))
    root = vertices[0]
    vertices.sort(key=lambda m: (repr(m[0]), repr(m[1])))
    rank = {v: i for i, v in enumerate(vertices)}
    succ = {pol: [[] for _ in vertices] for pol in ("O", "P")}
    for v, w, pol in edges:
        succ[pol][rank[v]].append(rank[w])
    return vertices, rank[root], {"O": succ["P"], "P": succ["O"]}


def _chain(obj, lat, image):
    """A goal's reveal chain, ranked by repr: its vertices (goal id, count),
    the successor ranks of each per polarity (Opponent reveals one more
    feature), and the revealed prefix of each joined with the image."""
    n = len(obj.features)
    counts = sorted(range(n + 1), key=lambda j: repr((obj.id, j)))
    rank = {j: i for i, j in enumerate(counts)}
    return ([(obj.id, j) for j in counts],
            {"O": [[rank[j + 1]] if j < n else [] for j in counts],
             "P": [[] for _ in counts]},
            [lat.mask(obj.features[:j]) | image for j in counts])


def _tensor(f, g):
    """The ranked tensor of two ranked chains: pair (i, j) of ranks is rank
    i * len(g's vertices) + j, a move changes one coordinate, and a pair's
    prefix mask is the meet of its coordinates' masks."""
    (fv, fs, fk), (gv, gs, gk) = f, g
    n = len(gv)
    return ([(a, b) for a in fv for b in gv],
            {pol: [[x * n + j for x in fr] + [i * n + y for y in gr]
                   for i, fr in enumerate(fs[pol])
                   for j, gr in enumerate(gs[pol])]
             for pol in fs},
            [a & b for a in fk for b in gk])


def _check_mode(mode):
    if mode not in ("practical", "strict"):
        raise ValueError("mode must be 'practical' or 'strict'")


class CompoundGame:
    """The game implication(movement, tensor of per-goal reveal chains),
    held as the ranked tables of its two factors.

    The game's vertices are ints: v = m * nb + b for movement rank m,
    chains rank b and nb = len(bverts) chains vertices, and vertex(v)
    names v as the nested pair ((cell, tick), chains).  Implication
    dualizes the movement game, so Proponent steps at even ticks and
    Opponent ticks at odd ones.  A goal's chain runs through (goal id,
    revealed count), advanced by Opponent; tensoring left to right nests
    them as (g1, j1), then ((g1, j1), (g2, j2)), and so on.  Every move
    advances the tick or one count, so a vertex sits at depth tick + sum
    of counts.

    mverts lists the movement vertices by the reprs of cell and tick, and
    bverts the chains vertices by repr, the tensor of the per-goal chains
    each ranked by repr; msucc and bsucc give each rank's successor ranks
    per polarity.  A tuple's repr is prefix-free and an int's is followed
    by "," or ")", below every digit, so the int order of the vertices is
    the repr order of their names.  moves(v, pol) reads these tables in
    Tensor's order, movement moves first.

    A payoff is a mask of the scenario's payoff lattice, the powerset of
    its feature universe: side[m], what the cell of movement rank m reveals
    of the goals joined with their images (or its complement, in strict
    mode), joined with meet[b], the meet over goals of each revealed prefix
    in chains rank b joined with its image.
    """

    def __init__(self, sc, goals, position=None, mode="practical",
                 images=None):
        pos = tuple(sc.start if position is None else position)
        if pos not in sc.passable:
            raise BadGrid("position %r is not a passable cell" % (pos,))
        if not sc.neighbors(pos) and len(sc.passable) > 1:
            raise HorizonEmpty("no legal move from %r" % (pos,))
        _check_mode(mode)
        if not goals:
            raise ValueError("goals must not be empty")
        images = images or {}
        objs = _goal_objects(sc, goals)
        lat = sc.payoff_lattice
        self.mverts, mroot, self.msucc = _movement(sc, pos)
        self.bverts, self.bsucc, self.meet = reduce(_tensor, [
            _chain(o, lat, lat.mask(images.get(o.id, ()))) for o in objs])
        seen = lat.mask(f for g in goals for f in images.get(g, ()))
        side = {}
        for cell, _ in self.mverts:
            if cell not in side:
                vis = visible_rewards(sc, cell)
                mask = seen | lat.mask(f for g in goals for f in vis[g])
                side[cell] = lat.complement(mask) if mode == "strict" \
                    else mask
        self.side = [side[cell] for cell, _ in self.mverts]
        # every chain's root (goal id, 0) has the smallest repr of its chain
        self.root = mroot * len(self.bverts)

    def moves(self, v, pol):
        nb = len(self.bverts)
        m, b = divmod(v, nb)
        return ([x * nb + b for x in self.msucc[pol][m]]
                + [v - b + y for y in self.bsucc[pol][b]])

    def payoff(self, v):
        m, b = divmod(v, len(self.bverts))
        return self.side[m] | self.meet[b]

    def vertex(self, v):
        m, b = divmod(v, len(self.bverts))
        return self.mverts[m], self.bverts[b]


def build_compound_game(sc, goals, position=None, mode="practical",
                        images=None):
    """The CompoundGame listed as a PayoffGame on the names of its
    vertices, in its walk order; every vertex is reachable from the root
    by moves of either polarity.  Payoffs are named in the scenario's
    payoff lattice."""
    game = CompoundGame(sc, goals, position=position, mode=mode, images=images)
    names = [(mv, bv) for mv in game.mverts for bv in game.bverts]
    listed = Game(names, names[game.root], [
        (names[v], names[w], pol) for v in range(len(names))
        for pol in ("O", "P") for w in game.moves(v, pol)])
    lat = sc.payoff_lattice
    k = {name: lat.name(game.payoff(v)) for v, name in enumerate(names)}
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


def _search(game):
    """The play of a CompoundGame with a maximal joined payoff, as a list
    of its int vertices, with its objective mask, the number of states
    explored and the number of plays ending with each objective size.

    A play's objective is the join of its vertex payoffs.  Plays whose
    objective has the largest support win; in a powerset such an objective
    is maximal, since no other set strictly contains it.  Ties fall to
    shorter plays, then to lexical move order: the repr order of the
    vertices, which compares the reprs of their cell, tick and chains in
    turn (tests pin it on two-digit coordinates and ticks).

    No play is listed, and no move of the game is asked for: the search
    reads its ranked tables, hoisting each layer's successor rows.  A
    vertex is the int m * nb + b, whose order is the repr order of its
    name; its successors follow Tensor's rule, one coordinate moving, and
    its payoff is side[m] | meet[b].

    A breadth-first search runs over states (vertex, objective so far),
    packed as the int objective * nv + vertex for the exact vertex count
    nv, one layer per play length: a vertex fixes its depth, so every
    prefix reaching a state has the same length, and the state keeps the
    number of prefixes reaching it and the lexically smallest one, whose
    every extension is the smallest among theirs.  Each layer is kept in
    the lexical order of those prefixes, so the first play found with the
    largest objective is the winner, and each play count is a sum of
    state counts.
    """
    msucc, side = game.msucc, game.side
    bsucc, meet = game.bsucc, game.meet
    nb = len(game.bverts)
    nv = len(game.mverts) * nb
    root = game.payoff(game.root) * nv + game.root
    count = {root: 1}
    parent = {root: None}
    succ = {}
    support = {}                # objective size -> plays ending with it
    best_size, best = -1, None
    layer = [root]
    depth = 0
    while layer:
        pol = "O" if depth % 2 == 0 else "P"
        mrows, brows = msucc[pol], bsucc[pol]
        nxt = []
        for s in layer:
            mask, v = divmod(s, nv)
            out = succ.get(v)
            if out is None:
                m, b = divmod(v, nb)
                ws = [x * nb + b for x in mrows[m]]
                ws += [v - b + y for y in brows[b]]     # v - b == m * nb
                ws.sort()
                out = succ[v] = [(w, side[w // nb] | meet[w % nb])
                                 for w in ws]
            if not out:
                size = mask.bit_count()
                support[size] = support.get(size, 0) + count[s]
                if size > best_size:
                    best_size, best = size, s
                continue
            c = count[s]
            for w, k in out:
                u = (mask | k) * nv + w
                if u in count:
                    count[u] += c
                else:
                    count[u] = c
                    parent[u] = s
                    nxt.append(u)
        layer = nxt
        depth += 1

    play = []
    s = best
    while s is not None:
        play.append(s % nv)
        s = parent[s]
    play.reverse()
    return play, best // nv, len(count), support


def plan_play(sc, goals, mode="practical", position=None, images=None):
    """The play _search picks in the compound game, as a plan trace: an
    entry per move after the root, the play's vertices and objective, and
    its counts of states and plays in the header and the decision log."""
    game = CompoundGame(sc, goals, position=position, mode=mode, images=images)
    play, objective, states, support = _search(game)
    named = [game.vertex(v) for v in play]
    lat = sc.payoff_lattice
    plays = sum(support.values())
    trace = Trace({
        "kind": "plan",
        "scenario": sc.name,
        "mode": mode,
        "position": list(named[0][0][0]),
        "goals": sorted(goals),
        "objective_lattice": "powerset of %d features" % len(sc.universe),
        "states": states,
        "plays": plays,
    })
    best = support[max(support)]
    trace.log("enumerated %d alternated plays" % plays)
    trace.log("plays with an objective of largest support: %d" % best)
    trace.log("plays by objective size: %s" % ", ".join(
        "%d: %d" % kv for kv in sorted(support.items())))
    if best > 1:
        trace.log("tie-broken by length, then move order")

    running = 0
    for i, v in enumerate(play):
        running |= game.payoff(v)
        if i == 0:
            continue
        cell = named[i][0][0]
        actor = "environment" if (i - 1) % 2 == 0 else "system"
        vis = visible_rewards(sc, cell)
        trace.entries.append({
            "actor": actor,
            "position": list(cell),
            "rewards": {g: sorted(vis[g]) for g in sorted(goals)},
            "objective_so_far": lat.members(running),
        })
    trace.final_play = [_vertex_doc(v) for v in named]
    trace.objective = lat.members(objective)

    reached = {cell for (cell, _), _ in named}
    for g in goals:
        obj = sc.objects[g]
        if obj.cell not in reached:
            trace.log("goal %s not reached within horizon" % g)
    trace.complete = True
    return trace


def _vertex_doc(v):
    (cell, t), bvert = v
    return {"cell": list(cell), "tick": t, "chains": repr(bvert)}


def _step_game(sc, goals, pos, mode, images):
    """The compound game a cognition step plans in, or None when the step
    is saturated.  A side payoff joins the images, which hold what pos
    shows, with what its cell shows, so no cell within the horizon adds to
    them when every cell pays the same; a walled-in pos sees only itself."""
    if not sc.neighbors(pos):
        return None
    game = CompoundGame(sc, goals, pos, mode, images)
    return None if min(game.side) == max(game.side) else game


def run_cognition(sc, max_steps=50, mode="practical", seed=0):
    """Full exploration loop: discover, select, plan, move, accumulate.

    Images of objects only ever grow (by join with what is visible).  A
    planning step builds one compound game of the active goals.  When no
    cell within the horizon can add anything to their joined images, the
    active set shrinks; the run completes when a single goal saturates,
    else it stops at max_steps with the step_limit flag.  Otherwise the
    system moves to the first new cell of the game's searched play.
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

    reveal(pos)
    steps = 0
    while steps < max_steps:
        pool = [oid for oid in sorted(images)
                if images[oid] and oid not in dropped]
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
                  % (steps, ",".join(pool), must))
        for line in selection.log:
            trace.log("  " + line)
        if selection.indistinguishable:
            trace.log("  selection indistinguishable; keeping first in order")
        trace.selections.append({
            "step": steps,
            "pool": pool,
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

        game = _step_game(sc, active, pos, mode, images)
        if game is None:
            if len(active) == 1:
                trace.log("step %d: single goal %s saturated; run complete"
                          % (steps, active[0]))
                trace.complete = True
                break
            # the step priced every subset of the pool holding the
            # anchor, so every proper subset of active that holds it
            shrunk = _rank(sc.lattice, [
                c for c in selection.candidates
                if set(c.goals) < set(active)])[0].goals
            dropped.update(set(pool) - set(shrunk))
            trace.shrink_events.append({
                "step": steps,
                "from": sorted(active),
                "to": sorted(shrunk),
            })
            trace.log("step %d: images saturated for {%s}; shrink to {%s}"
                      % (steps, ",".join(active), ",".join(shrunk)))
            continue

        play, objective, _, _ = _search(game)
        cells = [game.vertex(v)[0][0] for v in play]
        move_to = next((cell for cell in cells if cell != pos), None)
        if move_to is None:
            trace.log("step %d: plan holds position" % steps)
            move_to = pos
        trace.entries.append({
            "actor": "system",
            "position": list(move_to),
            "move": [list(pos), list(move_to)],
            "active": sorted(active),
            "objective": sc.payoff_lattice.members(objective),
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
