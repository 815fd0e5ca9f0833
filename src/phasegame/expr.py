"""Parser and evaluator for linear connective expressions.

_OPERATORS below is the grammar: each operator once, loosest binding
first, with its spellings, its binding power and its meaning on a
PhaseStructure.  The tokenizer reads the spellings, the parser climbs the
binding powers and the evaluator applies the meanings.

Identifiers are runs of letters, digits and underscores, so element names
like ``J1a`` or ``1`` work unquoted.  The bare words ``x`` and ``par`` are
reserved as operators; an element that happens to carry one of those names
is still reachable through the Unicode spellings.
"""

import re
from itertools import repeat

from .errors import ExprSyntaxError, ForeignElement

# kind: (spellings, binding power, meaning).  An infix operator's power is
# (left, right): it takes the operand before it when left reaches the
# parser's floor, and parses the operand after it with right as the floor,
# so right == left binds to the right and right == left + 1 to the left.
# The postfix dual has no right power.  A meaning takes a PhaseStructure and
# operand indices to an index; the parentheses have no power and no meaning.
_OPERATORS = {
    "impl": (("-o", "⊸"), (1, 1), lambda ps, i, j: ps._impl(i, j)),
    "plus": (("+",), (2, 3), lambda ps, i, j: ps.lattice._join[i][j]),
    "with": (("&",), (3, 4), lambda ps, i, j: ps.lattice._meet_row(i)[j]),
    "par": (("par", "⅋"), (4, 5), lambda ps, i, j: ps._par(i, j)),
    "tensor": (("x", "⊗"), (5, 6), lambda ps, i, j: ps._rows[i][j]),
    "dual": (("^",), (7, None), lambda ps, i: ps._dual[i]),
    "lparen": (("(",), None, None),
    "rparen": ((")",), None, None),
}

_KIND = {s: kind for kind, (spellings, _, _) in _OPERATORS.items()
         for s in spellings}
_POWER = {kind: row[1] for kind, row in _OPERATORS.items() if row[1]}
_MEANING = {kind: row[2] for kind, row in _OPERATORS.items() if row[2]}

# an identifier, or a spelling (a word-shaped one such as "par" is matched
# whole as an identifier first); anything else visible is stray
_TOKEN = re.compile(r"(\w+|%s)|(\S)" % "|".join(
    map(re.escape, sorted(_KIND, key=len, reverse=True))))

_END = (None, None)

_TOO_DEEP = "expression nested too deeply"


def tokenize(text):
    """Split an expression into (kind, lexeme) pairs."""
    tokens = []
    for m in _TOKEN.finditer(text):
        lexeme, stray = m.groups()
        if stray == "-":
            raise ExprSyntaxError("stray '-' at position %d (did you mean "
                                  "'-o'?)" % m.start())
        if stray:
            raise ExprSyntaxError("unexpected character %r at position %d"
                                  % (stray, m.start()))
        tokens.append((_KIND.get(lexeme, "ident"), lexeme))
    return tokens


def _describe(token):
    return "end of input" if token is _END else "%r" % (token[1],)


def _climb(tokens, i, floor):
    """The tree of the expression at tokens[i] whose operators all bind at
    least as tightly as floor, and the index of the token after it."""
    kind, lexeme = tokens[i]
    if kind == "ident":
        node, i = ("atom", lexeme), i + 1
    elif kind == "lparen":
        node, i = _climb(tokens, i + 1, 0)
        if tokens[i][0] != "rparen":
            raise ExprSyntaxError("expected rparen, got %s"
                                  % _describe(tokens[i]))
        i += 1
    else:
        raise ExprSyntaxError("expected an element or '(', got %s"
                              % _describe(tokens[i]))
    while True:
        kind = tokens[i][0]
        power = _POWER.get(kind)
        if power is None or power[0] < floor:
            return node, i
        if power[1] is None:
            node, i = (kind, node), i + 1
        else:
            right, i = _climb(tokens, i + 1, power[1])
            node = (kind, node, right)


def parse(text):
    """Parse an expression into a nested tuple tree."""
    tokens = tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression")
    tokens.append(_END)
    try:
        node, i = _climb(tokens, 0, 0)
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP) from None
    if tokens[i] is not _END:
        raise ExprSyntaxError("trailing input at %s" % _describe(tokens[i]))
    return node


def eval_expr(ps, text):
    """Evaluate an expression against a phase structure; returns an element."""
    node = parse(text)
    try:
        return ps.lattice.elements[eval_node(ps, node)]
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP) from None


def eval_node(ps, node):
    """The index of the element that the tree node evaluates to."""
    kind = node[0]
    if kind == "atom":
        if node[1] not in ps.lattice:
            raise ForeignElement("unknown element %r in expression" % node[1])
        return ps.lattice._index[node[1]]
    # map, not a list display, keeps one frame per level of the tree
    return _MEANING[kind](ps, *map(eval_node, repeat(ps), node[1:]))
