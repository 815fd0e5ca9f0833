"""Gridworld cognition loop driven by the goal lattice.

The system (Opponent) explores a grid under a visibility horizon.  Each
object carries an ordered feature list; visibility reveals a distance-scaled
prefix of it, so images of objects accumulate monotonically as the system
moves.  Discovered goals are ranked through the goal phase structure, and
the preferred goal set becomes a compound game: the movement game implying
the tensor of per-goal reveal chains, held as its factors (CompoundGame):
the cells within the horizon, and chains ranks whose mixed-radix digits are
the goals' revealed counts.  A play maximizing the lattice-valued objective
is chosen.  When the cells within
the horizon cannot grow the joined images of the active goals the set
shrinks, until a single goal saturates.
"""

import random
from collections import Counter, namedtuple
from functools import reduce
from itertools import accumulate, combinations
from operator import and_, or_

from .data import distinct, dump_doc, fields, load_doc, stem
from .errors import BadGrid, UnknownGoalElement, UsageError
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
        return [n for n in ((x, y - 1), (x - 1, y), (x + 1, y), (x, y + 1))
                if n in self.passable]


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

    At distance d an object of n features shows its first _shown(n, d,
    horizon).  Every call returns a new dict, which the caller may change.
    """
    pos = tuple(pos)
    return {obj.id: frozenset(obj.features[:_shown(
        len(obj.features), chebyshev(pos, obj.cell), sc.horizon)])
        for obj in sc.objects.values()}


def _shown(n, d, horizon):
    """How many of an object's n features show at Chebyshev distance d: the
    first ceil(n * (1 - d/(horizon+1))), so standing on the object reveals
    everything, the fraction decays with distance, and none show beyond
    the horizon."""
    den = horizon + 1
    num = n * (den - d)
    return -(-num // den) if num > 0 else 0


def _goal_objects(sc, goals):
    """The scene objects with the ids in goals, in order; an id that names
    no object raises UnknownGoalElement, and a repeated id UsageError."""
    try:
        return [sc.objects[g] for g in distinct(goals, "the goal list")]
    except KeyError as exc:
        raise UnknownGoalElement(
            "no object has the id %r" % (exc.args[0],)) from None


def eval_priority(sc, goals):
    """Priority of a goal set, given by object ids: the implication from
    the free-move element to the folded product of the goal elements."""
    if not goals:
        raise ValueError("goals must not be empty")
    ps = sc.phase
    return ps.impl(sc.free_move_goal, reduce(
        ps.mult, [o.goal for o in _goal_objects(sc, goals)]))


# goals is a tuple of object ids in name order
GoalProcessSet = namedtuple("GoalProcessSet", "goals priority attractiveness")


class Selection(list):
    """List of surviving GoalProcessSets plus the decision log."""

    def __init__(self, sets, candidates, indistinguishable, log):
        super().__init__(sets)
        self.candidates = candidates
        self.indistinguishable = indistinguishable
        self.log = log


def select_goal_sets(sc, discovered, must_include):
    """Rank subsets of the discovered objects by goal-lattice priority.

    Prices every subset holding the anchor must_include, by size and then
    in name order, and ranks them with _rank; the log lists each candidate,
    then the ranking.  An id, the anchor's included, that names no object
    raises UnknownGoalElement, and an anchor outside discovered raises
    ValueError.
    """
    ids = sorted(discovered)
    attractiveness = {o.id: o.attractiveness for o in _goal_objects(sc, ids)}
    if must_include not in ids:
        _goal_objects(sc, [must_include])
        raise ValueError("anchor %r is not a discovered object"
                         % (must_include,))
    others = [i for i in ids if i != must_include]
    candidates = []
    for size in range(1, len(ids) + 1):
        for rest in combinations(others, size - 1):
            combo = tuple(sorted(rest + (must_include,)))
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

def _check_mode(mode):
    if mode not in ("practical", "strict"):
        raise ValueError("mode must be 'practical' or 'strict'")


class CompoundGame:
    """The game implication(movement, tensor of per-goal reveal chains),
    held as its two factors: the cells of the movement factor and a mixed
    radix of the chains.

    The movement factor is the dual of the system's movement game from the
    position, so Proponent steps to a neighbour at even ticks and Opponent
    ticks at odd ones, up to tick 2 * horizon.  A tick keeps the cell, so a
    walk of L steps is in the same cell at ticks 2L - 1 and 2L, and the
    factor is held as its cells: cells lists every cell at most horizon
    steps from the position, the position first, in the order one
    breadth-first distance pass reaches them.  The pass asks for the
    neighbours only of the cells closer than the horizon, and ends at its
    first empty frontier.  cnext[i] gives the ranks of the neighbours of
    cells[i] in Scenario.neighbors order, for each cell closer than the
    horizon, and side[i] its side payoff: the images joined with each
    goal's prefix mask at the count _shown gives at the cell's Chebyshev
    distance to its object, what visible_rewards shows there; in strict
    mode, its complement.

    A goal's chain runs through (goal id, revealed count), advanced by
    Opponent.  The chains factor is their tensor, left to right, which nests
    them as (g1, j1), then ((g1, j1), (g2, j2)), and so on; a move advances
    one count, the goals' in order.  It is not listed: chains rank b holds
    each goal's count as the digit b // stride % (n + 1), for its stride
    the product of the later goals' n + 1, so the first goal's digit is the
    most significant.  goals holds per goal its id, stride and meet terms
    by count (the revealed prefix mask joined with its image); name(b)
    names rank b, reveals(b) gives the ranks one reveal from it, goals in
    order, and meet(b) the meet of its terms.  A vertex pays the side
    payoff of its cell joined with the meet of its chains rank.

    Its alternated plays, Opponent first, follow one grammar, which
    _search rests on and tests pin.  At tick 0 Opponent has no movement
    move, so its first move reveals, or the root is the only play when no
    goal has a feature.  Then Proponent steps at each even tick and
    Opponent ticks at each odd one, until the last tick, or a walled-in
    position, leaves Proponent no move.  Or Opponent reveals once more at
    an odd tick, where Proponent has no move, and that ends the play.  So
    no play holds more than two reveals, nor a count above 2, and up to 2
    the int order of the ranks is the repr order of their names.
    """

    def __init__(self, sc, goals, position=None, mode="practical",
                 images=None):
        pos = tuple(sc.start if position is None else position)
        if pos not in sc.passable:
            raise BadGrid("position %r is not a passable cell" % (pos,))
        _check_mode(mode)
        if not goals:
            raise ValueError("goals must not be empty")
        images = images or {}
        objs = _goal_objects(sc, goals)
        self.horizon = sc.horizon
        cells, cnext, rank = [pos], [], {pos: 0}
        radius = 0
        while radius < sc.horizon and len(cnext) < len(cells):
            # the frontier: the cells reached last, whose rows are not made
            for c in cells[len(cnext):]:
                row = []
                for n in sc.neighbors(c):
                    if n not in rank:
                        rank[n] = len(cells)
                        cells.append(n)
                    row.append(rank[n])
                cnext.append(row)
            radius += 1
        self.cells, self.cnext = cells, cnext
        # per goal, its mask at each Chebyshev distance a cell can have: at
        # most the radius plus the goal's distance from pos
        lat = sc.payoff_lattice
        self.goals, shows = [], []
        seen, stride = 0, 1
        for o in reversed(objs):
            n = len(o.features)
            prefix = [lat.mask(o.features[:j]) for j in range(n + 1)]
            image = lat.mask(images.get(o.id, ()))
            seen |= image
            self.goals.insert(0, (o.id, stride, [p | image for p in prefix]))
            stride *= n + 1
            shows.append((*o.cell, [
                prefix[_shown(n, k, sc.horizon)]
                for k in range(radius + chebyshev(pos, o.cell) + 1)]))
        self.side = []
        for x, y in cells:
            mask = seen
            for ox, oy, shown in shows:
                mask |= shown[max(abs(x - ox), abs(y - oy))]
            self.side.append(lat.complement(mask) if mode == "strict"
                             else mask)

    def reveals(self, b):
        return [b + stride for _, stride, terms in self.goals
                if b // stride % len(terms) < len(terms) - 1]

    def meet(self, b):
        return reduce(and_, [terms[b // stride % len(terms)]
                             for _, stride, terms in self.goals])

    def name(self, b):
        return reduce(lambda x, y: (x, y), [
            (g, b // stride % len(terms)) for g, stride, terms in self.goals])


def build_compound_game(sc, goals, position=None, mode="practical",
                        images=None):
    """The CompoundGame listed as a PayoffGame: the implication from the
    system's movement game on (cell, tick) to the tensor of the goals'
    reveal chains, on the names ((cell, tick), chains) of its vertices.
    Payoffs are named in the scenario's payoff lattice."""
    from .games import Game, PayoffGame, implication_game, tensor_game
    game = CompoundGame(sc, goals, position=position, mode=mode, images=images)
    cells, cnext = game.cells, game.cnext
    # the movement game: O steps to a neighbour at even ticks and P ticks
    # in place at odd ones, up to tick 2 * horizon
    mverts, medges, frontier = [(cells[0], 0)], [], [0]
    for t in range(2 * sc.horizon):
        if t % 2 == 0:
            medges += [((cells[i], t), (cells[n], t + 1), "O")
                       for i in frontier for n in cnext[i]]
            frontier = {n for i in frontier for n in cnext[i]}
        else:
            medges += [((cells[i], t), (cells[i], t + 1), "P")
                       for i in frontier]
        mverts += [(cells[i], t + 1) for i in frontier]
    chains = [Game([(g, j) for j in range(len(terms))], (g, 0),
                   [((g, j), (g, j + 1), "O") for j in range(len(terms) - 1)])
              for g, _, terms in game.goals]
    listed = implication_game(Game(mverts, mverts[0], medges),
                              reduce(tensor_game, chains))
    _, stride, terms = game.goals[0]
    meet = {game.name(b): game.meet(b) for b in range(stride * len(terms))}
    side = dict(zip(cells, game.side))
    lat = sc.payoff_lattice
    named = {m: lat.name(m) for m in {s | x for s in game.side
                                      for x in meet.values()}}
    return PayoffGame(listed, lat, {v: named[side[v[0][0]] | meet[v[1]]]
                                    for v in listed.vertices})


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
        return dump_doc(self.to_doc())


def _search(game, stop=False):
    """The play of a CompoundGame with a maximal joined payoff, as a list
    of its named vertices, with the objective so far at each of them, the
    number of states (vertex, objective so far) its plays reach and the
    number of plays ending with each objective size.  With stop, it ends at
    its bound, and counts no states (None) and only the plays it reached.

    A play's objective is the join of its vertex payoffs.  Plays whose
    objective has the largest support win; in a powerset such an objective
    is maximal, since no other set strictly contains it.  Ties fall to
    shorter plays, then to lexical move order: the repr order of the
    vertices, which compares their names part by part (cell, tick,
    chains), since each part's repr is prefix-free (tests pin it on
    two-digit coordinates and ticks).

    No play is listed, and no move of the game is asked for: the search
    reads the movement factor's cells, and of the chains factor only the
    reveals and meets of the chains ranks a play can reach, at most 1 + k +
    k(k+1)/2 of them for k goals.  It rests on the play grammar (see
    CompoundGame): every play is the root, then a first reveal y1 under
    which a walk of L steps runs from (position, 0).  After its last
    step, at tick 2L - 1, the play may end with one second reveal y2;
    else the walk ticks on to 2L, where it ends when P has no move (L =
    horizon, or a walled-in position).  Both kinds of play hold 2L + 2
    vertices.  meet only grows
    along chain moves, so the objective is seen | meet(y), for seen the
    join of side over the walk's cells and y the play's last chains rank.

    So one breadth-first search runs over walk states (cell, seen), packed
    as the int seen << shift | cell rank, one layer per step.  Each state
    keeps the number of walks reaching it and the lexically smallest one,
    whose every extension is the smallest among theirs, and each layer is
    kept in the lexical order of those walks: a walk's ticks are fixed by
    its length, so it is ordered by its cells' reprs.  The reveals are
    attached at a walk's end: every (y1, y2) pair to a state of a layer L
    >= 1, every y1 to a state where P has no move.  They are grouped by
    meet value (with distinct features almost always just 0), so a state
    costs one popcount per group, not one per goal or per pair of goals,
    and adds its count times the group's size to the play counts.  The
    (vertex, objective) states are counted from the walk states: a layer
    L >= 1 holds the vertices of ticks 2L - 1 and 2L, so each y1 joins
    every state of it twice, and each distinct y2 once.

    No objective passes the bound, the largest popcount of every side
    payoff joined with the meet of a reached chains rank, and ties fall to
    shorter plays; so once the best size equals it, a stopped search ends
    after the layer that holds it.

    The winner's first reveal y1 is the smallest one that reaches an end
    of the largest support and then the shortest play.  Under it, the
    first walk that stops there and the first walk that takes a second
    reveal there are rebuilt, ticks named, and the smaller of the two
    plays wins, compared part by part on (repr(cell), str(tick)): both
    hold the same number of vertices and the same chains rank but at their
    last one.
    """
    side, cnext, cells = game.side, game.cnext, game.cells

    def no_move(steps):
        """Whether P has no move after a walk of that many steps."""
        return steps == game.horizon or not cnext[0]

    firsts = sorted(game.reveals(0))
    if not firsts:
        objective = side[0] | game.meet(0)
        return [((cells[0], 0), game.name(0))], [objective], 1, {
            objective.bit_count(): 1}
    seconds = {y: sorted(game.reveals(y)) for y in firsts}
    meet = {y: game.meet(y) for y in set(firsts).union(*seconds.values())}
    # meet value -> the reveal ends with it: the first reveals, which end
    # a walk where P has no move, and the (first, second) pairs
    ends = (Counter(meet[y] for y in firsts),
            Counter(meet[y] for y1 in firsts for y in seconds[y1]))
    shift = len(cells).bit_length()
    low = (1 << shift) - 1
    # each cell's moves, as the packed side payoff and rank they add, in
    # the repr order of the cells, made when the search first reaches it
    moves = [None] * len(cnext)
    support = {}                # objective size -> plays ending with it
    best_size, best_steps = -1, 0
    bound = None
    if stop:
        sides = reduce(or_, side)
        bound = max((sides | g).bit_count() for g in meet.values())
    layers, parents = [], [{}]  # packed state -> walks, and -> its parent
    layer = {side[0] << shift: 1}
    while layer:
        steps = len(layers)
        layers.append(layer)
        final = no_move(steps)
        # both kinds of end hold 2 * steps + 2 vertices
        groups = ((ends[1] if steps else Counter())
                  + (ends[0] if final else Counter())).items()
        nxt, parent = {}, {}
        for s, c in layer.items():
            seen = s >> shift
            for g, n in groups:
                size = (seen | g).bit_count()
                support[size] = support.get(size, 0) + c * n
                if size > best_size:
                    best_size, best_steps = size, steps
            if final:
                continue
            i = s & low
            out = moves[i]
            if out is None:
                out = moves[i] = [side[x] << shift | x for x in sorted(
                    cnext[i], key=lambda x: repr(cells[x]))]
            base = s ^ i
            for x in out:
                u = base | x
                if u in nxt:
                    nxt[u] += c
                else:
                    nxt[u] = c
                    parent[u] = s
        parents.append(parent)
        if best_size == bound:
            break
        layer = nxt

    states = None
    if not stop:
        distinct = Counter(meet[y] for y in set().union(*seconds.values()))
        states = 1 + _joined(layers[0], shift, ends[0]) + sum(
            2 * _joined(layer, shift, ends[0])
            + _joined(layer, shift, distinct) for layer in layers[1:])

    def fits(s, y):
        return ((s >> shift) | meet[y]).bit_count() == best_size

    def rebuilt(s, y1, y):
        """The (cell rank, tick, chains rank) of each vertex of the play of
        the walk to state s under the first reveal y1, then the second
        reveal y unless it is y1."""
        parts = [(s & low, 2 * best_steps - (y != y1), y)]
        for k in range(best_steps, 0, -1):
            parts.append((s & low, 2 * k - 1, y1))
            s = parents[k][s]
            parts.append((s & low, 2 * k - 2, y1))
        parts.append((0, 0, 0))     # the root
        return parts[::-1]

    last, stops = layers[best_steps], no_move(best_steps)
    for y1 in firsts:
        ended = stops and next((rebuilt(s, y1, y1) for s in last
                                if fits(s, y1)), None)
        turned = next((rebuilt(s, y1, y) for s in last if best_steps
                       for y in seconds[y1] if fits(s, y)), None)
        if ended or turned:
            break
    parts = min((p for p in (ended, turned) if p), key=lambda p: [
        (repr(cells[i]), str(t)) for i, t, _ in p])
    play = [((cells[i], t), game.name(y)) for i, t, y in parts]
    running = accumulate([side[i] | game.meet(y) for i, _, y in parts], or_)
    return play, list(running), states, support


def _joined(packed, shift, values):
    """The number of distinct (cell, seen | g) over packed walk states for
    each meet value g, times its count in values."""
    return sum(n * (len({s | g << shift for s in packed}) if g
                    else len(packed)) for g, n in values.items())


def plan_play(sc, goals, mode="practical", position=None, images=None):
    """The play _search picks in the compound game, as a plan trace: an
    entry per move after the root, the play's vertices and objective, and
    its counts of states and plays in the header and the decision log."""
    game = CompoundGame(sc, goals, position=position, mode=mode, images=images)
    play, running, states, support = _search(game)
    lat = sc.payoff_lattice
    plays = sum(support.values())
    trace = Trace({
        "kind": "plan",
        "scenario": sc.name,
        "mode": mode,
        "position": list(play[0][0][0]),
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

    for i in range(1, len(play)):
        cell = play[i][0][0]
        actor = "environment" if (i - 1) % 2 == 0 else "system"
        vis = visible_rewards(sc, cell)
        trace.entries.append({
            "actor": actor,
            "position": list(cell),
            "rewards": {g: sorted(vis[g]) for g in sorted(goals)},
            "objective_so_far": lat.members(running[i]),
        })
    trace.final_play = [_vertex_doc(v) for v in play]
    trace.objective = lat.members(running[-1])

    reached = {cell for (cell, _), _ in play}
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

    Images of objects only ever grow (by join with what is visible).  A
    planning step builds the active goals' compound game, whose distance
    pass lists the cells within the horizon.  When no cell can add anything
    to their joined images (every cell has the same side payoff), or the
    step revisits the position, pool and images of an earlier one, the
    active set shrinks, and nothing is searched; the run completes when a
    single goal saturates, else it stops at max_steps with the step_limit
    flag.  Otherwise the step searches the game, stopping at its bound, and
    the system moves to the cell of the play's third vertex, a neighbour of
    pos.

    That vertex is always a step.  A step reaches _search only when it is
    not saturated, so some cell of the game is not pos; so pos has
    a neighbour and Proponent moves at tick 0.  Every active goal has a
    shown feature, so the chains root has a reveal, and by the play grammar
    (see CompoundGame) every searched play is the root, a first reveal, and
    then a step to a neighbour.
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
    visited = set()     # (position, pool, images) of each non-wander step

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
                "elements": [sc.objects[i].goal for i in c.goals],
                "priority": c.priority,
                "attractiveness": c.attractiveness,
            } for c in selection],
        })
        active = list(selection[0].goals)
        trace.log("  active set {%s} priority %s"
                  % (",".join(active), selection[0].priority))

        # a non-wander step is a function of this state, so a repeat of it
        # would repeat every step since, and the run would never complete
        state = (pos, tuple(pool), frozenset(images.items()))
        if state in visited:
            trace.log("step %d: revisit of %s with the same pool and images: "
                      "a cycle" % (steps, list(pos)))
            saturated = True
        else:
            visited.add(state)
            # a side payoff joins the images, which hold what pos shows,
            # with what its cell shows, so no cell adds to them when every
            # cell pays the same, as at a walled-in pos, its only cell
            game = CompoundGame(sc, active, pos, mode, images)
            saturated = min(game.side) == max(game.side)
        if saturated:
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

        play, running, _, _ = _search(game, stop=True)
        move_to = play[2][0][0]
        trace.entries.append({
            "actor": "system",
            "position": list(move_to),
            "move": [list(pos), list(move_to)],
            "active": sorted(active),
            "objective": sc.payoff_lattice.members(running[-1]),
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
