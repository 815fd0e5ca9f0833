"""Completion solver for partially specified multiplication tables.

A candidates document looks like a phase document except that some mult
entries carry a list of candidate values instead of a single value, and it
may state linked constraints of the form "the join of these products equals
v".  The solver enumerates completions by backtracking on index product
rows, pruning with the associativity instances that become decidable after
each assignment, and keeps only completions that load through a phase
document's gates and, under full checks, then pass the law audit.
"""

from .data import fields, load_doc, product_rows, resolve_path
from .errors import (
    CapExceeded,
    ForeignElement,
    NoSolution,
    NotCommutative,
    PhasegameError,
)
from .lattice import lattice_from_doc
from .phase import named_elements, phase_from_rows, verify_laws


def _agree(a, b):
    return a is None or b is None or a == b


def solve_table(doc_or_path, max_solutions=None):
    """Enumerate law-abiding completions of a candidates document.

    Returns a list of fully resolved phase documents, in the deterministic
    order induced by entry names and listed candidate order.  Raises
    NoSolution when nothing survives and CapExceeded (carrying the documents
    found so far) when more than max_solutions survive.
    """
    doc, base_dir = load_doc(doc_or_path)
    f = fields(doc, "candidates")
    lattice = lattice_from_doc(f["lattice"], base_dir)
    els, index = lattice.elements, lattice._index
    span = range(len(els))

    def pair(x, y):
        return tuple(sorted((lattice.idx(x), lattice.idx(y))))

    # the search runs on index product rows, None marking an open entry;
    # the fixed rows parse as a phase table does, and a fixed entry closes
    # the slot a candidate row would open
    rows = product_rows(els, [row for row in f["mult"]
                              if not isinstance(row[2], list)])
    open_slots = {}
    for x, y, cands in f["mult"]:
        if isinstance(cands, list):
            key = pair(x, y)
            for c in cands:
                if c not in lattice:
                    raise ForeignElement(repr(c))
            cands = [index[c] for c in dict.fromkeys(cands)]
            if open_slots.get(key, cands) != cands:
                raise NotCommutative("conflicting candidate lists at %r"
                                     % (tuple(els[i] for i in key),))
            open_slots[key] = cands

    # a foreign unit, falsum or override name raises ForeignElement here,
    # and a foreign name in a sum or as a target just below: before the
    # search, whose leaf audit would only reject every completion
    named_elements(lattice, f)
    constraints = [([pair(x, y) for x, y in c["sum"]],
                    lattice.idx(c["equals"]))
                   for c in f["linked_constraints"]]

    slots = sorted((k for k in open_slots if rows[k[0]][k[1]] is None),
                   key=lambda k: (els[k[0]], els[k[1]]))
    full_checks = f["checks"] == "full"
    resolved = dict(doc)
    if base_dir is not None and isinstance(f["lattice"], str):
        resolved["lattice"] = resolve_path(f["lattice"], base_dir)
    solutions = []

    def assoc_ok_after(x, y):
        # only triples whose inner product is the fresh pair, (xy)z or (zx)y,
        # can newly fail; an open entry (None) agrees with any value
        row_x, row_y = rows[x], rows[y]
        xy = row_x[y]
        for z in span:
            yz, zx = row_y[z], row_x[z]
            if yz is not None and not _agree(rows[xy][z], row_x[yz]):
                return False
            if zx is not None and not _agree(rows[zx][y], rows[z][xy]):
                return False
        return True

    def constraints_ok():
        for pairs, want in constraints:
            vals = [rows[x][y] for x, y in pairs]
            if None not in vals and \
                    lattice.join([els[v] for v in vals]) != els[want]:
                return False
        return True

    def accept():
        # the loader's gates, which an entry no row fixes fails, then under
        # full checks the audit of the laws the load did not decide
        try:
            ps = phase_from_rows(lattice, rows, f)
        except PhasegameError:
            return False
        return not full_checks or verify_laws(ps)["ok"]

    def walk(i):
        if i == len(slots):
            if constraints_ok() and accept():
                solutions.append(dict(resolved, mult=[
                    [els[x], els[y], els[rows[x][y]]]
                    for x in span for y in span[x:]]))
                if max_solutions is not None and len(solutions) > max_solutions:
                    raise CapExceeded(
                        "more than %d completions" % max_solutions,
                        solutions=solutions[:max_solutions])
            return
        x, y = slots[i]
        for v in open_slots[x, y]:
            rows[x][y] = rows[y][x] = v
            if (not full_checks or assoc_ok_after(x, y)) and constraints_ok():
                walk(i + 1)
        rows[x][y] = rows[y][x] = None

    walk(0)
    if not solutions:
        raise NoSolution("no completion satisfies the declared laws")
    return solutions
