"""Completion solver for partially specified multiplication tables.

A candidates document looks like a phase document except that some mult
entries carry a list of candidate values instead of a single value, and it
may state linked constraints of the form "the join of these products equals
v".  The solver enumerates completions by backtracking, pruning with the
associativity instances that become decidable after each assignment, and
keeps only completions whose finished table passes the full law audit.
"""

from .data import fields, load_doc, resolve_path, symmetrize
from .errors import (
    CapExceeded,
    ForeignElement,
    NoSolution,
    NotCommutative,
    PhasegameError,
)
from .lattice import lattice_from_doc
from .phase import phase_from_doc, verify_laws


def _canon(lattice, x, y):
    return (x, y) if lattice.idx(x) <= lattice.idx(y) else (y, x)


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

    # the fixed rows parse as a phase table does; a fixed entry closes the
    # slot a candidate row would open
    table = symmetrize(lattice, [row for row in f["mult"]
                                 if not isinstance(row[2], list)])
    open_slots = {}
    for x, y, cands in f["mult"]:
        if isinstance(cands, list):
            key = _canon(lattice, x, y)
            cands = list(dict.fromkeys(cands))
            for c in cands:
                if c not in lattice:
                    raise ForeignElement(repr(c))
            if open_slots.get(key, cands) != cands:
                raise NotCommutative("conflicting candidate lists at %r"
                                     % (key,))
            open_slots[key] = cands

    constraints = []
    for c in f["linked_constraints"]:
        pairs = [_canon(lattice, x, y) for x, y in c["sum"]]
        constraints.append((pairs, c["equals"]))

    slots = sorted(k for k in open_slots if k not in table)
    cand_lists = [open_slots[k] for k in slots]
    full_checks = f["checks"] == "full"

    els = lattice.elements
    solutions = []

    def assoc_ok_after(x, y):
        # only triples whose inner product is the fresh pair can newly fail
        for z in els:
            xy = table[(x, y)]
            yz = table.get((y, z))
            if yz is not None:
                lhs = table.get((xy, z))
                rhs = table.get((x, yz))
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
            zx = table.get((z, x))
            if zx is not None:
                lhs = table.get((zx, y))
                rhs = table.get((z, xy))
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
        return True

    def constraints_ok():
        for pairs, want in constraints:
            vals = [table.get(p) for p in pairs]
            if any(v is None for v in vals):
                continue
            if lattice.join(vals) != want:
                return False
        return True

    def resolved_doc():
        keys = sorted({_canon(lattice, x, y) for (x, y) in table},
                      key=lambda k: (lattice.idx(k[0]), lattice.idx(k[1])))
        out = dict(doc)
        out["mult"] = [[x, y, table[(x, y)]] for x, y in keys]
        if base_dir is not None and isinstance(f["lattice"], str):
            out["lattice"] = resolve_path(f["lattice"], base_dir)
        return out

    def accept():
        # under full checks the audit covers every law that load-time
        # validation enforces, so each law is evaluated once
        cand = resolved_doc()
        try:
            ps = phase_from_doc(cand, lattice=lattice,
                                validate=not full_checks)
        except PhasegameError:
            return None
        if full_checks and not verify_laws(ps)["ok"]:
            return None
        return cand

    def walk(i):
        if i == len(slots):
            if not constraints_ok():
                return
            cand = accept()
            if cand is not None:
                solutions.append(cand)
                if max_solutions is not None and len(solutions) > max_solutions:
                    raise CapExceeded(
                        "more than %d completions" % max_solutions,
                        solutions=solutions[:max_solutions])
            return
        x, y = slots[i]
        for v in cand_lists[i]:
            table[(x, y)] = v
            table[(y, x)] = v
            if (not full_checks or assoc_ok_after(x, y)) and constraints_ok():
                walk(i + 1)
            del table[(x, y)]
            if x != y:
                del table[(y, x)]

    walk(0)
    if not solutions:
        raise NoSolution("no completion satisfies the declared laws")
    return solutions
