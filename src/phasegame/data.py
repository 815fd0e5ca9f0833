"""The document boundary: reading JSON documents and their references.

Lattices, phase structures, candidate tables, scenarios and monoids are
JSON objects.  A reference to one is a path or ``data:<name>``, a document
shipped inside the package.  A relative path inside a document resolves
against that document's directory.  ``load_doc`` is the one reader, ``field``
checks the type of a field it read, ``items`` the types of an array field's
items and ``pairs`` that they are pairs of names, ``mult_row`` checks the
shape of an ``[x, y, value]`` product row and ``symmetrize`` is the one
parser of a table of them.
"""

import json
import os

from .errors import ForeignElement, NotCommutative

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
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("%s: top level is not a JSON object" % path)
    return doc, os.path.dirname(os.path.abspath(path))


_KINDS = {list: "an array", dict: "an object", str: "a string"}
_REQUIRED = object()


def field(doc, key, kind, default=_REQUIRED):
    """doc[key], or default when the key is absent and a default is given.

    The value must be an instance of kind (a type or a tuple of types), else
    a ValueError names the field.
    """
    value = doc[key] if default is _REQUIRED else doc.get(key, default)
    if not isinstance(value, kind):
        raise ValueError("field %r must be %s, got %r"
                         % (key, _name_kinds(kind), value))
    return value


def items(doc, key, kind, default=_REQUIRED):
    """field(doc, key, list, default), each of whose items must be an
    instance of kind, else a ValueError names the field."""
    value = field(doc, key, list, default)
    for item in value:
        if not isinstance(item, kind):
            raise ValueError("items of field %r must be %s, got %r"
                             % (key, _name_kinds(kind), item))
    return value


def pairs(doc, key, default=_REQUIRED):
    """items(doc, key, list, default), each of whose items must be a pair
    of strings, else a ValueError names the field and the item."""
    value = items(doc, key, list, default)
    for item in value:
        if len(item) != 2 or not all(isinstance(v, str) for v in item):
            raise ValueError("items of field %r must be pairs of strings, "
                             "got %r" % (key, item))
    return value


def _name_kinds(kind):
    kinds = kind if isinstance(kind, tuple) else (kind,)
    return " or ".join(_KINDS[k] for k in kinds)


def stem(ref):
    """Name of a referenced document: its file name without extension."""
    return os.path.splitext(os.path.basename(resolve_path(ref)))[0]


def mult_row(row):
    """An [x, y, value] product row; ValueError naming it otherwise."""
    if not isinstance(row, (list, tuple)) or len(row) != 3:
        raise ValueError("mult row %r is not an [x, y, value] triple"
                         % (row,))
    return row


def symmetrize(carrier, rows):
    """Product table of [x, y, value] rows, each fixing both orders of its
    pair, with every name in carrier (a lattice or an element set).

    The first bad row raises: ValueError for a wrong shape, ForeignElement
    for a name outside carrier, NotCommutative for a conflicting pair.
    """
    table = {}
    for row in rows:
        x, y, v = mult_row(row)
        if isinstance(v, list):
            raise ValueError(
                "entry %r lists candidates; resolve it with the solver first"
                % (row,))
        for el in row:
            if el not in carrier:
                raise ForeignElement(repr(el))
        for key in ((x, y), (y, x)):
            if table.get(key, v) != v:
                raise NotCommutative("conflicting entries at %r: %r vs %r"
                                     % (key, table[key], v))
            table[key] = v
    return table
