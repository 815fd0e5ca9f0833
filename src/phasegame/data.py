"""The document boundary: reading JSON documents and their references.

Lattices, phase structures, candidate tables, scenarios and monoids are
JSON objects, named by a path or ``data:<name>`` (a document shipped in the
package); a relative path inside a document resolves against its directory.
``load_doc`` is the one reader (``read_bytes`` and ``parse_doc`` are its two
halves, for a caller that keeps the bytes), ``SCHEMAS`` the one definition of
each kind, ``fields`` the one checker and ``product_rows`` the one parser of
product rows, straight into index rows, which ``total_rows`` requires total.
"""

import io
import json
import os
from collections import namedtuple

from .errors import ForeignElement, NotCommutative, UsageError

_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(_DATA_DIR, name)


def resolve_path(path, base_dir=None):
    """Expand a ``data:`` reference, else join relative paths onto base_dir."""
    if path.startswith("data:"):
        return data_path(path[len("data:"):])
    if base_dir is not None and not os.path.isabs(path):
        return os.path.join(base_dir, path)
    return path


def load_doc(path_or_doc, base_dir=None):
    """(doc, dir): a document and the directory its relative references
    resolve against.

    A reference, resolved against base_dir, is read and must hold a JSON
    object; dir is then its file's absolute directory.  A parsed document
    passes through unchanged, with base_dir as its directory.
    """
    if not isinstance(path_or_doc, str):
        return path_or_doc, base_dir
    path = resolve_path(path_or_doc, base_dir)
    return parse_doc(read_bytes(path), path), os.path.dirname(
        os.path.abspath(path))


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _not_json(constant):
    raise ValueError("%s is not a JSON value" % constant)


def _object(pairs):
    """A JSON object's dict; a key given twice raises ValueError naming
    it, where json would keep its last value."""
    out = dict(pairs)
    if len(out) < len(pairs):
        distinct((key for key, _ in pairs), "an object")
    return out


def parse_doc(raw, path):
    """The JSON object in raw, the bytes of the file at path, decoded as a
    text-mode open() decodes them; anything else, NaN and the infinities
    and an object that repeats a key included, raises UsageError naming
    path."""
    try:
        doc = json.load(io.TextIOWrapper(io.BytesIO(raw)),
                        parse_constant=_not_json, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        raise UsageError("%s: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise UsageError("%s: top level is not a JSON object" % path)
    return doc


def stem(ref):
    """Name of a referenced document: its file name without extension."""
    return os.path.splitext(os.path.basename(resolve_path(ref)))[0]


# document schemas -------------------------------------------------------

REQUIRED = object()

# A field's JSON type; the type of an array's items, or the kind of
# document (SCHEMAS) or row (ROWS) each item is; an array's length; and an
# absent field's value, unless REQUIRED (a None default also allows null).
Field = namedtuple("Field", "type item arity default",
                   defaults=(None, None, REQUIRED))

# each kind of document: its fields, in the order they are checked
SCHEMAS = {
    "lattice": {"elements": Field(list, str), "covers": Field(list, "pair"),
                "bottom": Field(str), "top": Field(str),
                "generators": Field(list, str, default=())},
    "phase": {"lattice": Field((str, dict)), "mult": Field(list, "product"),
              "unit": Field(str), "falsum": Field(str),
              "unit_mode": Field(str, default="weak"),
              "checks": Field(str, default="full"),
              "dual_overrides": Field(list, "pair", default=()),
              "op_class": Field(list, str, default=None),
              "cl_class": Field(list, str, default=None)},
    "constraint": {"sum": Field(list, "pair"), "equals": Field(str)},
    "scenario": {"name": Field(str, default="scenario"),
                 "grid": Field(list, str), "start": Field(list, int, 2),
                 "horizon": Field(int), "goal_phase": Field((str, dict)),
                 "objects": Field(list, "object", default=()),
                 "free_move_goal": Field(str)},
    "object": {"id": Field(str), "cell": Field(list, int, 2),
               "features": Field(list, str), "goal": Field(str),
               "attractiveness": Field((int, float), default=0)},
    "monoid": {"elements": Field(list, str), "mult": Field(list, "product"),
               "unit": Field(str)},
}
SCHEMAS["candidates"] = dict(
    SCHEMAS["phase"], linked_constraints=Field(list, "constraint", default=()))
SCHEMAS["oracle"] = dict(SCHEMAS["monoid"], falsum_subset=Field(list, str))

# the values a string field may take, where they are fixed
ENUMS = {"unit_mode": ("weak", "strict"), "checks": ("full", "relaxed")}

# the array fields that name each of their items, or the first name of each
# of their pairs, once
DISTINCT = ("elements", "dual_overrides")

# each kind of row: the types its entries may have, in order (an array
# entry lists names, as a product's candidates do), and the message for a
# row that does not fit
ROWS = {"pair": ({(str, str)}, "items of field {0!r} must be pairs of "
                 "strings, got {1!r}"),
        "product": ({(str, str, str), (str, str, list)},
                    "{0} row {1!r} is not an [x, y, value] triple")}

_KINDS = {list: "an array", dict: "an object", str: "a string",
          int: "an integer", (int, float): "a number",
          (str, dict): "a string or an object"}


def _is_a(value, types):
    """isinstance, except that a JSON boolean is not a number."""
    return isinstance(value, types) and type(value) is not bool


def fields(doc, kind, given=()):
    """The fields of doc, a document of this kind, checked against
    SCHEMAS[kind] into a new dict: absent fields take their defaults and
    items of a nested kind are checked in turn.  Fields in given are the
    caller's and are skipped.  The first bad field raises UsageError
    naming it; doc is not changed."""
    out = {}
    for key, (types, item, arity, default) in SCHEMAS[kind].items():
        if key in given:
            continue
        value = out[key] = doc.get(key, default)
        if value is REQUIRED:
            raise UsageError("%s document has no field %r" % (kind, key))
        if value is default:
            continue
        if not _is_a(value, types):
            raise UsageError("field %r must be %s, got %r"
                             % (key, _KINDS[types], value))
        if key in ENUMS and value not in ENUMS[key]:
            raise UsageError("field %r must be %s, got %r" % (
                key, " or ".join(map(repr, ENUMS[key])), value))
        if arity is not None and len(value) != arity:
            raise UsageError("field %r must have %d items, got %r"
                             % (key, arity, value))
        if item is None:
            continue
        entries, message = ROWS.get(item, (None, None))
        want = list if entries else dict if item in SCHEMAS else item
        # rows are checked by entry types below, so they skip _is_a
        fits = isinstance if entries else _is_a
        for v in value:
            if not fits(v, want):
                raise UsageError("items of field %r must be %s, got %r"
                                 % (key, _KINDS[want], v))
            if entries and (tuple(map(type, v)) not in entries
                            or type(v[-1]) is list
                            and not all(isinstance(n, str) for n in v[-1])):
                raise UsageError(message.format(key, v))
        if key in DISTINCT:
            distinct(value if item is str else [v[0] for v in value],
                     "field %r" % key)
        if item in SCHEMAS:
            out[key] = [fields(v, item) for v in value]
    return out


def distinct(values, what):
    """values as a list, once none repeats: the first repeat raises a
    UsageError naming what lists it."""
    values, seen = list(values), set()
    for v in values:
        if v in seen:
            raise UsageError("%s names %r twice" % (what, v))
        seen.add(v)
    return values


def product_rows(elements, rows):
    """Index rows of checked [x, y, value] rows over elements: out[i][j]
    indexes the value that a row fixes for (elements[i], elements[j]) in
    either order, or is None if no row does.  The first bad row raises:
    UsageError for a row listing candidates, ForeignElement for a foreign
    name, NotCommutative for a conflict."""
    index = {e: i for i, e in enumerate(elements)}
    out = [[None] * len(index) for _ in index]
    for row in rows:
        x, y, v = row
        if isinstance(v, list):
            raise UsageError(
                "entry %r lists candidates; resolve it with the solver first"
                % (row,))
        try:
            i, j, k = index[x], index[y], index[v]
        except KeyError as exc:
            raise ForeignElement(repr(exc.args[0])) from None
        was = out[i][j]
        if was is None:
            out[i][j] = out[j][i] = k
        elif was != k:
            raise NotCommutative("conflicting entries at %r: %r vs %r"
                                 % ((x, y), elements[was], v))
    return out


def total_rows(elements, rows):
    """The index rows, if every entry is fixed; else the first pair in
    element order whose entry is None raises NotCommutative."""
    for x, row in zip(elements, rows):
        if None in row:
            raise NotCommutative("product undefined at (%r, %r)"
                                 % (x, elements[row.index(None)]))
    return rows
