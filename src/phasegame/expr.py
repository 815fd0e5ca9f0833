"""Parser and evaluator for linear connective expressions.

_OPERATORS below is the grammar: each operator once, loosest binding
first, with its spellings, its binding power and its meaning on a
PhaseStructure.  The lexer reads the spellings, and one climber reads the
binding powers: parse gives it tree builders, and eval_expr the index
lookup and the meanings, so an expression is evaluated as it is parsed.

Identifiers are runs of letters, digits and underscores, so element names
like ``J1a`` or ``1`` work unquoted.  The bare words ``x`` and ``par`` are
reserved as operators; an element that happens to carry one of those names
is still reachable through the Unicode spellings.
"""

import re
from functools import partial

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
# spelling: (kind, left power, right power)
_POWER = {s: (kind,) + row[1] for kind, row in _OPERATORS.items() if row[1]
          for s in row[0]}
_MEANING = {kind: row[2] for kind, row in _OPERATORS.items() if row[2]}

# the spellings that are not words, longest first, each with the spaces
# the lexer puts around it ("-o" is the only one longer than a character,
# and no other holds a "-" or an "o")
_SPACED = {s: " %s " % s for s in sorted(
    (s for s in _KIND if not s.isalnum()), key=len, reverse=True)}

# an identifier, or a spelling (a word-shaped one such as "par" is matched
# whole as an identifier first); anything else visible is stray
_TOKEN = re.compile(r"(\w+|%s)|(\S)" % "|".join(
    map(re.escape, sorted(_KIND, key=len, reverse=True))))

_END = None

_TOO_DEEP = "expression nested too deeply"


def _lexemes(text):
    """The lexemes of text, split in C.  The text is valid when every lexeme
    that is no spelling is a word (\\w is isalnum() or "_"); only a text
    that is not is scanned, and the scan names its first stray character."""
    spaced = text
    for spelling, padded in _SPACED.items():
        spaced = spaced.replace(spelling, padded)
    lexemes = spaced.split()
    words = "".join([w for w in lexemes if w not in _SPACED])
    if not words or words.replace("_", "0").isalnum():
        return lexemes
    lexemes = []
    for m in _TOKEN.finditer(text):
        lexeme, stray = m.groups()
        if stray == "-":
            raise ExprSyntaxError("stray '-' at position %d (did you mean "
                                  "'-o'?)" % m.start())
        if stray:
            raise ExprSyntaxError("unexpected character %r at position %d"
                                  % (stray, m.start()))
        lexemes.append(lexeme)
    return lexemes


def tokenize(text):
    """Split an expression into (kind, lexeme) pairs."""
    return [(_KIND.get(lexeme, "ident"), lexeme) for lexeme in _lexemes(text)]


def _describe(lexeme):
    return "end of input" if lexeme is _END else "%r" % (lexeme,)


def _climb(lexemes, i, floor, atom, apply):
    """The value of the expression at lexemes[i] whose operators all bind
    at least as tightly as floor, and the index of the lexeme after it.
    atom gives an identifier's value and apply an operator's, in text
    order; only right operands and parentheses take a frame."""
    lexeme = lexemes[i]
    kind = _KIND.get(lexeme)
    if kind is None and lexeme is not _END:
        value, i = atom(lexeme), i + 1
    elif kind == "lparen":
        value, i = _climb(lexemes, i + 1, 0, atom, apply)
        if _KIND.get(lexemes[i]) != "rparen":
            raise ExprSyntaxError("expected rparen, got %s"
                                  % _describe(lexemes[i]))
        i += 1
    else:
        raise ExprSyntaxError("expected an element or '(', got %s"
                              % _describe(lexeme))
    while True:
        power = _POWER.get(lexemes[i])
        if power is None or power[1] < floor:
            return value, i
        kind, _, right = power
        if right is None:
            value, i = apply(kind, value), i + 1
        else:
            operand, i = _climb(lexemes, i + 1, right, atom, apply)
            value = apply(kind, value, operand)


def _value(text, atom, apply):
    lexemes = _lexemes(text)
    if not lexemes:
        raise ExprSyntaxError("empty expression")
    lexemes.append(_END)
    value, i = _climb(lexemes, 0, 0, atom, apply)
    if lexemes[i] is not _END:
        raise ExprSyntaxError("trailing input at %s" % _describe(lexemes[i]))
    return value


def _node(kind, *operands):
    return (kind,) + operands


def parse(text):
    """Parse an expression into a nested tuple tree.

    A left-nested chain (+, &, par, x) or a run of postfix ^ parses at any
    length, into a tree as deep as the chain is long.  Python's own repr
    and == recurse on a tuple tree and raise RecursionError on one deeper
    than the recursion limit, so a caller that prints or compares such a
    tree walks it by hand."""
    try:
        return _value(text, partial(_node, "atom"), _node)
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP) from None


def eval_expr(ps, text):
    """Evaluate an expression against a phase structure; returns an element."""
    def apply(kind, *operands):
        return _MEANING[kind](ps, *operands)

    lattice = ps.lattice
    try:
        return lattice.elements[_value(text, lattice._index.__getitem__,
                                       apply)]
    except KeyError as exc:
        unknown = exc.args[0]
    except RecursionError:
        unknown = None
    # an unknown atom or the stack stopped the climb: whatever parse makes
    # of the whole text wins, as when the tree was built first
    parse(text)
    if unknown is not None:
        raise ForeignElement("unknown element %r in expression" % unknown)
    raise ExprSyntaxError(_TOO_DEEP)
