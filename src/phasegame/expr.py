"""Parser and evaluator for linear connective expressions.

Grammar, loosest binding first:

    expr    := additive (("-o" | "⊸") expr)?        right associative
    additive:= withs ("+" withs)*
    withs   := pars ("&" pars)*
    pars    := tensors (("par" | "⅋") tensors)*
    tensors := unary (("x" | "⊗") unary)*
    unary   := primary "^"*                          postfix dual
    primary := IDENT | "(" expr ")"

Identifiers are runs of letters, digits and underscores, so element names
like ``J1a`` or ``1`` work unquoted.  The bare words ``x`` and ``par`` are
reserved as operators; an element that happens to carry one of those names
is still reachable through the Unicode spellings.
"""

from .errors import ExprSyntaxError, ForeignElement

_SYMBOLS = {
    "(": "lparen",
    ")": "rparen",
    "^": "dual",
    "&": "with",
    "+": "plus",
    "⊗": "tensor",  # ⊗
    "⅋": "par",  # ⅋
    "⊸": "impl",  # ⊸
}

_WORDS = {"x": "tensor", "par": "par"}

_TOO_DEEP = "expression nested too deeply"

# the left-associative binary operators, loosest binding first
_LEFT_ASSOC = ("plus", "with", "par", "tensor")


def _ident_char(ch):
    return ch.isalnum() or ch == "_"


def tokenize(text):
    """Split an expression into (kind, lexeme) pairs."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((_SYMBOLS[ch], ch))
            i += 1
            continue
        if ch == "-":
            if i + 1 < n and text[i + 1] == "o":
                tokens.append(("impl", "-o"))
                i += 2
                continue
            raise ExprSyntaxError("stray '-' at position %d (did you mean '-o'?)" % i)
        if _ident_char(ch):
            j = i
            while j < n and _ident_char(text[j]):
                j += 1
            word = text[i:j]
            tokens.append((_WORDS.get(word, "ident"), word))
            i = j
            continue
        raise ExprSyntaxError("unexpected character %r at position %d" % (ch, i))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0]
        return None

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        if self.peek() != kind:
            raise ExprSyntaxError("expected %s, got %s" % (kind, self._describe()))
        return self.take()

    def _describe(self):
        if self.pos < len(self.tokens):
            return "%r" % self.tokens[self.pos][1]
        return "end of input"

    def parse(self):
        node = self.expr()
        if self.pos != len(self.tokens):
            raise ExprSyntaxError("trailing input at %s" % self._describe())
        return node

    def expr(self):
        left = self.binary(0)
        if self.peek() == "impl":
            self.take()
            right = self.expr()
            return ("impl", left, right)
        return left

    def binary(self, level):
        """A left-associative chain of the operator _LEFT_ASSOC[level] over
        operands of the next tighter level, or of unary past the last."""
        op = _LEFT_ASSOC[level]
        tighter = level + 1 < len(_LEFT_ASSOC)
        node = self.binary(level + 1) if tighter else self.unary()
        while self.peek() == op:
            self.take()
            right = self.binary(level + 1) if tighter else self.unary()
            node = (op, node, right)
        return node

    def unary(self):
        node = self.primary()
        while self.peek() == "dual":
            self.take()
            node = ("dual", node)
        return node

    def primary(self):
        kind = self.peek()
        if kind == "lparen":
            self.take()
            node = self.expr()
            self.expect("rparen")
            return node
        if kind == "ident":
            return ("atom", self.take()[1])
        raise ExprSyntaxError("expected an element or '(', got %s" % self._describe())


def parse(text):
    """Parse an expression into a nested tuple tree."""
    tokens = tokenize(text)
    if not tokens:
        raise ExprSyntaxError("empty expression")
    try:
        return _Parser(tokens).parse()
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP) from None


def eval_expr(ps, text):
    """Evaluate an expression against a phase structure; returns an element."""
    node = parse(text)
    try:
        return eval_node(ps, node)
    except RecursionError:
        raise ExprSyntaxError(_TOO_DEEP) from None


def eval_node(ps, node):
    op = node[0]
    if op == "atom":
        name = node[1]
        if name not in ps.lattice.elements:
            raise ForeignElement("unknown element %r in expression" % name)
        return name
    if op == "dual":
        return ps.dual(eval_node(ps, node[1]))
    left = eval_node(ps, node[1])
    right = eval_node(ps, node[2])
    if op == "tensor":
        return ps.mult(left, right)
    if op == "par":
        return ps.par(left, right)
    if op == "with":
        return ps.lattice.meet2(left, right)
    if op == "plus":
        return ps.lattice.join2(left, right)
    if op == "impl":
        return ps.impl(left, right)
    raise ExprSyntaxError("unknown node %r" % (op,))

