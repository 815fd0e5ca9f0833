"""Resolution of bundled data files.

Paths of the form ``data:<name>`` refer to JSON documents shipped inside the
package.  Everything else is treated as an ordinary filesystem path.
"""

import os

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
