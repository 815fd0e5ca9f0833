"""Graphviz rendering of simulation traces."""

_HIGHLIGHT_PENWIDTH = 3


def _escape(text):
    return str(text).replace("\\", "\\\\").replace('"', '\\"')


def trace_to_dot(trace_doc, name="trace"):
    """Render a simulation trace as a grid with the walked path in bold."""
    header = trace_doc["header"]
    grid = header["grid"]
    start = tuple(header["start"])
    objects = {tuple(o["cell"]): o for o in header.get("objects", [])}
    walk = [start]
    for entry in trace_doc.get("entries", []):
        if entry.get("actor") == "system" and "position" in entry:
            pos = tuple(entry["position"])
            if pos != walk[-1]:
                walk.append(pos)
    hot = set(zip(walk, walk[1:]))

    def cid(cell):
        return "c_%d_%d" % cell

    def passable(x, y):
        return grid[y][x] != "#"

    lines = ['digraph "%s" {' % _escape(name),
             "  node [shape=square, fixedsize=true, width=0.7];"]
    height = len(grid)
    width = len(grid[0]) if height else 0
    for y in range(height):
        for x in range(width):
            cell = (x, y)
            attrs = ["pos=\"%d,%d!\"" % (x, height - 1 - y)]
            if not passable(x, y):
                attrs.append("style=filled")
                attrs.append("fillcolor=black")
                attrs.append("label=\"\"")
            else:
                parts = []
                if cell in objects:
                    parts += [objects[cell]["id"], objects[cell]["goal"]]
                if cell == start:
                    parts.append("start")
                # DOT reads the two characters \n in a label as a line break
                attrs.append('label="%s"' % "\\n".join(map(_escape, parts)))
            lines.append("  %s [%s];" % (cid(cell), ", ".join(attrs)))
    for a, b in zip(walk, walk[1:]):
        lines.append(
            "  %s -> %s [penwidth=%d, color=red];"
            % (cid(a), cid(b), _HIGHLIGHT_PENWIDTH)
        )
    # faint lattice of legal moves keeps the picture readable without a layout pass
    for y in range(height):
        for x in range(width):
            if not passable(x, y):
                continue
            for dx, dy in ((1, 0), (0, 1)):
                xx, yy = x + dx, y + dy
                if xx < width and yy < height and passable(xx, yy):
                    if ((x, y), (xx, yy)) in hot or ((xx, yy), (x, y)) in hot:
                        continue
                    lines.append(
                        "  %s -> %s [dir=none, color=gray80];"
                        % (cid((x, y)), cid((xx, yy)))
                    )
    lines.append("}")
    return "\n".join(lines) + "\n"
