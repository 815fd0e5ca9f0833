"""Gridworld cognition loop driven by the goal lattice.

The system (Opponent) explores a grid under a visibility horizon.  Each
object carries an ordered feature list; visibility reveals a distance-scaled
prefix of it, so images of objects accumulate monotonically as the system
moves.  Discovered goals are ranked through the goal phase structure, and
the preferred goal set becomes a compound game: the movement game implying
the tensor of per-goal reveal chains, held as ints (CompoundGame): a
movement rank, which indexes the movement game's successor table, and a
chains rank, whose mixed-radix digits are the goals' revealed counts.  A play
maximizing the lattice-valued objective is chosen.  When the cells within
the horizon cannot grow the joined images of the active goals the set
shrinks, until a single goal saturates.
"""

import random
from collections import Counter, namedtuple
from functools import reduce
from itertools import combinations
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


def _movement_ball(sc, goals, pos, mode, images):
    """The ball a step at pos moves in: (pos, the distance of each cell at
    most horizon steps away, by one breadth-first pass that asks for the
    neighbours only of the cells closer than the horizon and ends at the
    first empty frontier, those neighbours, each cell's side payoff, and
    per goal, the last first, its object, prefix masks by count and image
    mask).  A side payoff joins the images with each goal's prefix mask at
    the count _shown gives at the cell's Chebyshev distance to its object,
    what visible_rewards shows there; in strict mode, its complement."""
    pos = tuple(pos)
    if pos not in sc.passable:
        raise BadGrid("position %r is not a passable cell" % (pos,))
    _check_mode(mode)
    if not goals:
        raise ValueError("goals must not be empty")
    images = images or {}
    objs = _goal_objects(sc, goals)
    lat = sc.payoff_lattice
    dist = {pos: 0}
    neighbors = {}
    frontier = [pos]
    for d in range(1, sc.horizon + 1):
        reached = []
        for c in frontier:
            neighbors[c] = sc.neighbors(c)
            for n in neighbors[c]:
                if n not in dist:
                    dist[n] = d
                    reached.append(n)
        if not reached:
            break
        frontier = reached
    # per goal, its mask at each Chebyshev distance a cell of the ball can
    # have: at most the ball's radius plus the goal's distance from pos
    radius = dist[frontier[0]]
    chains, shows = [], []
    seen = 0
    for o in reversed(objs):
        n = len(o.features)
        prefix = [lat.mask(o.features[:j]) for j in range(n + 1)]
        image = lat.mask(images.get(o.id, ()))
        seen |= image
        chains.append((o, prefix, image))
        shows.append((*o.cell, [
            prefix[_shown(n, k, sc.horizon)]
            for k in range(radius + chebyshev(pos, o.cell) + 1)]))
    side = {}
    for c in dist:
        x, y = c
        mask = seen
        for ox, oy, shown in shows:
            mask |= shown[max(abs(x - ox), abs(y - oy))]
        side[c] = lat.complement(mask) if mode == "strict" else mask
    return pos, dist, neighbors, side, chains


class CompoundGame:
    """The game implication(movement, tensor of per-goal reveal chains),
    held as ints: a movement rank and a chains rank.

    The movement factor is the dual of the system's movement game from the
    position, so Proponent steps to a neighbour at even ticks and Opponent
    ticks at odd ones, up to tick 2 * horizon.  Its vertices are (position,
    0) and (c, 2L - 1) and (c, 2L) for each cell c a walk of exactly L
    steps reaches, 1 <= L <= horizon.  A grid graph is bipartite, so once
    the position has a neighbour such a walk reaches c iff d <= L and L - d
    is even, for d the distance of c from the position: the cells follow
    from the distance pass of _movement_ball, and their ticks from one tick
    list sorted by str, filtered once per distance.  A goal's chain runs
    through (goal id, revealed count), advanced by Opponent.  The chains
    factor is their tensor, left to right, which nests them as (g1, j1),
    then ((g1, j1), (g2, j2)), and so on; a move advances one count, the
    goals' in order.  Every move advances the tick or one count, so a
    vertex sits at depth tick + sum of counts.

    Its alternated plays, Opponent first, follow one grammar, which
    _search rests on and tests pin.  At tick 0 Opponent has no movement
    move, so its first move reveals, or the root is the only play when no
    goal has a feature.  Then Proponent steps at each even tick and
    Opponent ticks at each odd one, until the last tick, or a walled-in
    position, leaves Proponent no move.  Or Opponent reveals once more at
    an odd tick, where Proponent has no move, and that ends the play.  So
    no play holds more than two reveals.

    mverts lists the movement vertices by repr: the cells sorted by repr,
    and under each cell its ticks sorted by str, which is the same order
    since a cell's repr is prefix-free.  mnext gives each rank's successor
    ranks in move order, a cell's neighbours in Scenario.neighbors order;
    its tick says which player owns them.  The chains factor is not
    listed: it is a mixed radix, one digit per goal.  A goal's digits are
    its counts 0..n sorted by repr, and chains rank b holds the digit b //
    stride % (n + 1) of a goal, for its stride the product of the later
    goals' n + 1, so the first goal's digit is the most significant; nb is
    the number of chains ranks.  A vertex is the int v = m * nb + b for
    movement rank m.  Int order is the repr order of the nested names: a
    tuple's or a string's repr is prefix-free, and an int's is followed in
    a pair's repr by "," or ")", below every digit, so comparing the reprs
    of two pairs compares the reprs of their first coordinates, then of
    their second ones.  vertex(v) names v as the nested pair ((cell, tick),
    chains), reveals(b) gives the chains ranks one reveal from b, and
    moves(v, pol) reads them in tensor_game's order, movement moves first.

    A payoff is a mask of the scenario's payoff lattice, the powerset of
    its feature universe: side[m], the side payoff _movement_ball gives the
    cell of movement rank m, joined with meet(b), the meet over goals of
    each revealed prefix in chains rank b joined with its image.
    """

    def __init__(self, sc, goals, position=None, mode="practical",
                 images=None, _ball=None):
        pos, dist, neighbors, side, chains = _ball or _movement_ball(
            sc, goals, sc.start if position is None else position, mode,
            images)
        last = 2 * sc.horizon
        # the ticks of distance d: 0 at L = 0 (the only one at a walled-in
        # pos), else 2L - 1 and 2L for L = d, d + 2, ..., sorted by str once
        order = [((t + 1) // 2, t) for t in sorted(
            range(last + 1 if len(dist) > 1 else 1), key=str)]
        ticks = [[t for n, t in order if n >= d and (n - d) % 2 == 0]
                 for d in range(max(dist.values()) + 1)]
        self.mverts, self.side = [], []
        for c in sorted(dist, key=repr):
            ts = ticks[dist[c]]
            self.mverts += [(c, t) for t in ts]
            self.side += [side[c]] * len(ts)
        rank = {v: i for i, v in enumerate(self.mverts)}
        self.mnext = [
            [] if t == last else [rank[c, t + 1]] if t % 2
            else [rank[n, t + 1] for n in neighbors[c]]
            for c, t in self.mverts]
        # each goal's stride and, per digit, the name (goal id, count), the
        # meet term and the step to the next count's digit (0 at the last)
        self._chains = []
        self.nb = 1
        for o, prefix, image in chains:
            n = len(prefix) - 1
            counts = sorted(range(n + 1), key=repr)
            self._chains.insert(0, (self.nb, [(
                (o.id, j), prefix[j] | image,
                (counts.index(j + 1) - d) * self.nb if j < n else 0)
                for d, j in enumerate(counts)]))
            self.nb *= n + 1
        # count 0 sorts first, so every digit of the chains root is 0
        self.root = rank[pos, 0] * self.nb

    def _digits(self, b):
        """The (name, meet term, step) of each goal's digit in rank b.  A
        vertex v = m * nb + b has b's digits, since nb is a multiple of
        every stride times its radix."""
        return [rows[b // stride % len(rows)] for stride, rows in self._chains]

    def reveals(self, b):
        """The chains ranks one reveal from b, goals in order; given a
        vertex, the vertices one reveal from it."""
        return [b + step for _, _, step in self._digits(b) if step]

    def meet(self, b):
        return reduce(and_, [term for _, term, _ in self._digits(b)])

    def moves(self, v, pol):
        m, b = divmod(v, self.nb)
        # the dual movement game: P steps at even ticks, O ticks at odd ones
        out = [x * self.nb + b for x in self.mnext[m]] \
            if self.mverts[m][1] % 2 == (pol == "O") else []
        return out + self.reveals(v) if pol == "O" else out

    def payoff(self, v):
        m, b = divmod(v, self.nb)
        return self.side[m] | self.meet(b)

    def vertex(self, v):
        m, b = divmod(v, self.nb)
        return self.mverts[m], reduce(
            lambda x, y: (x, y), [name for name, _, _ in self._digits(b)])


def build_compound_game(sc, goals, position=None, mode="practical",
                        images=None):
    """The CompoundGame listed as a PayoffGame on the names of its
    vertices, in its walk order; every vertex is reachable from the root
    by moves of either polarity.  Payoffs are named in the scenario's
    payoff lattice."""
    from .games import Game, PayoffGame
    game = CompoundGame(sc, goals, position=position, mode=mode, images=images)
    # vertex m * nb + b names its movement vertex and the chains of rank b,
    # so each chains name is decoded once, at movement rank 0
    chains = [game.vertex(b)[1] for b in range(game.nb)]
    names = [(mv, bv) for mv in game.mverts for bv in chains]
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
        return dump_doc(self.to_doc())


def _search(game, stop=False):
    """The play of a CompoundGame with a maximal joined payoff, as a list
    of its int vertices, with its objective mask, the number of states
    (vertex, objective so far) its plays reach and the number of plays
    ending with each objective size.  With stop, it ends at its bound, and
    counts no states (None) and only the plays it reached.

    A play's objective is the join of its vertex payoffs.  Plays whose
    objective has the largest support win; in a powerset such an objective
    is maximal, since no other set strictly contains it.  Ties fall to
    shorter plays, then to lexical move order: the repr order of the
    vertices (tests pin it on two-digit coordinates and ticks).

    No play is listed, and no move of the game is asked for: the search
    reads the movement factor's successor table, and of the chains factor
    only the reveals and meets of the chains ranks a play can reach, at
    most 1 + k + k(k+1)/2 of them for k goals.  It rests on the play
    grammar (see CompoundGame): every play is root, (m0, y1), ...,
    (mj, y1), for one first reveal y1 and a movement walk m0..mj, and ends
    there when P has no move, or goes on to one second reveal (mj, y2) at
    an odd tick, which ends it.  meet only grows along chain moves, so the
    objective is seen | meet(y), for seen the join of side over the walk
    and y the play's last chains rank.

    So one breadth-first search runs over movement states (m, seen),
    packed as the int seen << shift | m, one layer per tick.  Each state
    keeps the number of walks reaching it and the lexically smallest one,
    whose every extension is the smallest among theirs, and each layer is
    kept in the lexical order of those walks.  The reveals are attached
    at a play's two ends: every y1 to a state where P has no move, every
    (y1, y2) pair to a state at an odd tick, where O moves.  They are
    grouped by meet value (with distinct features almost always just 0),
    so a state costs one popcount per group, not one per goal or per pair
    of goals, and adds its count times the group's size to the play
    counts.  The (vertex, objective) states are counted from the movement
    states: each y1 with every one of them and each y2 with every one at
    an odd tick, seen joined with its meet, so that only a nonzero meet
    needs a set.

    No objective passes the bound, the largest popcount of every side
    payoff joined with the meet of a reached chains rank, and ties fall to
    shorter plays; so once the best size equals it, a stopped search ends
    after the layer that holds best_len - 2, the last the winner ends in.

    The winner's first reveal y1 is the smallest one that reaches an end
    of the largest support and then the shortest play.  Under it, the
    first walk that stops there and the first walk that takes a second
    reveal there are rebuilt, and the smaller of the two plays wins: both
    hold the same number of ints, and int order is repr order.
    """
    side, nb = game.side, game.nb
    mroot, broot = divmod(game.root, nb)
    firsts = sorted(game.reveals(broot))
    if not firsts:
        objective = game.payoff(game.root)
        return [game.root], objective, 1, {objective.bit_count(): 1}
    seconds = {y: sorted(game.reveals(y)) for y in firsts}
    meet = {y: game.meet(y) for y in set(firsts).union(*seconds.values())}
    # meet value -> the reveal ends with it: the first reveals, which end
    # a walk where P has no move, and the (first, second) pairs, which end
    # one at an odd tick
    ends = (Counter(meet[y] for y in firsts),
            Counter(meet[y] for y1 in firsts for y in seconds[y1]))
    shift = len(game.mverts).bit_length()
    low = (1 << shift) - 1
    # each movement rank's moves, as the packed side payoff and rank they
    # add, in rank order, made when the search first reaches the rank
    mnext = game.mnext
    moves = [None] * len(mnext)
    root = side[mroot] << shift | mroot
    count = {root: 1}
    parent = {root: None}
    support = {}                # objective size -> plays ending with it
    best_size, best_len = -1, 0
    bound = None
    if stop:
        sides = reduce(or_, side)
        bound = max((sides | g).bit_count() for g in meet.values())
    layers = []
    layer = [root]
    while layer:
        odd = len(layers) % 2
        length = len(layers) + 2 + odd      # of a play ending at this tick
        layers.append(layer)
        if best_size == bound:      # layers reach best_len - 2 now
            break
        groups = ends[odd].items()
        nxt = []
        for s in layer:
            m = s & low
            out = moves[m]
            if out is None:
                out = moves[m] = [side[x] << shift | x
                                  for x in sorted(mnext[m])]
            c = count[s]
            if odd or not out:
                seen = s >> shift
                for g, n in groups:
                    size = (seen | g).bit_count()
                    support[size] = support.get(size, 0) + c * n
                    if size > best_size:
                        best_size, best_len = size, length
            base = s ^ m
            for x in out:
                u = base | x
                if u in count:
                    count[u] += c
                else:
                    count[u] = c
                    parent[u] = s
                    nxt.append(u)
        layer = nxt

    states = None if stop else 1 + _joined(count, shift, ends[0]) + _joined(
        [s for layer in layers[1::2] for s in layer], shift,
        Counter(meet[y] for y in set().union(*seconds.values())))

    def fits(s, y):
        return ((s >> shift) | meet[y]).bit_count() == best_size

    def rebuilt(s, y1, y):
        """The play of the walk to state s under the first reveal y1, then
        the second reveal y unless it is y1, and its objective."""
        end, ms = s, []
        while s is not None:
            ms.append(s & low)
            s = parent[s]
        play = [game.root] + [m * nb + y1 for m in reversed(ms)]
        if y != y1:
            play.append(ms[0] * nb + y)
        return play, (end >> shift) | meet[y]

    # the winner ends a walk at tick best_len - 2 with no move, or takes a
    # second reveal at tick best_len - 3
    turns = layers[best_len - 3] if best_len > 3 else []
    for y1 in firsts:
        stop = next((rebuilt(s, y1, y1) for s in layers[best_len - 2]
                     if not mnext[s & low] and fits(s, y1)), None)
        turn = next((rebuilt(s, y1, y) for s in turns for y in seconds[y1]
                     if fits(s, y)), None)
        if stop or turn:
            break
    play, objective = min(p for p in (stop, turn) if p)
    return play, objective, states, support


def _joined(packed, shift, values):
    """The number of distinct (m, seen | g) over packed movement states for
    each meet value g, times its count in values."""
    return sum(n * (len({s | g << shift for s in packed}) if g
                    else len(packed)) for g, n in values.items())


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
    """The compound game a cognition step plans in, listed from the ball
    whose side payoffs decide first whether the step is saturated (None).
    A side payoff joins the images, which hold what pos shows, with what
    its cell shows, so no cell adds to them when every cell pays the same,
    as at a walled-in pos, whose ball is pos alone."""
    ball = _movement_ball(sc, goals, pos, mode, images)
    side = ball[3].values()
    if min(side) == max(side):
        return None
    return CompoundGame(sc, goals, pos, mode, images, ball)


def run_cognition(sc, max_steps=50, mode="practical", seed=0):
    """Full exploration loop: discover, select, plan, move, accumulate.

    Images of objects only ever grow (by join with what is visible).  A
    planning step reads the side payoffs of the active goals' movement
    ball.  When no cell within the horizon can add anything to their
    joined images, or the step revisits the position, pool and images of
    an earlier one, the active set shrinks, and no game is listed; the run
    completes when a single goal saturates, else it stops at max_steps
    with the step_limit flag.  Otherwise the step lists its compound game
    from that ball and searches it, stopping at its bound, and the system
    moves to the cell of the play's third vertex, a neighbour of pos.

    That vertex is always a step.  A step reaches _search only when its
    ball is not saturated, so some cell of the ball is not pos; so pos has
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
            game = None
        else:
            visited.add(state)
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

        play, objective, _, _ = _search(game, stop=True)
        move_to = game.mverts[play[2] // game.nb][0]
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
