import pytest

from phasegame.errors import ExprSyntaxError, ForeignElement
from phasegame.expr import eval_expr, parse, tokenize


def test_tokenize_mixed_spellings():
    assert tokenize("a -o b") == [("ident", "a"), ("impl", "-o"),
                                  ("ident", "b")]
    assert tokenize("J1a x e^") == [("ident", "J1a"), ("tensor", "x"),
                                    ("ident", "e"), ("dual", "^")]
    assert tokenize("b2 ⊗ b3 ⅋ 1") == [("ident", "b2"), ("tensor", "⊗"),
                                       ("ident", "b3"), ("par", "⅋"),
                                       ("ident", "1")]


def test_implication_is_right_associative():
    assert parse("a -o b -o c") == (
        "impl", ("atom", "a"), ("impl", ("atom", "b"), ("atom", "c")))


def test_tensor_binds_tighter_than_par():
    assert parse("a x b par c") == (
        "par", ("tensor", ("atom", "a"), ("atom", "b")), ("atom", "c"))


def test_with_binds_tighter_than_plus():
    assert parse("a + b & c") == (
        "plus", ("atom", "a"), ("with", ("atom", "b"), ("atom", "c")))


def test_additives_bind_tighter_than_implication():
    assert parse("a -o b + c") == (
        "impl", ("atom", "a"), ("plus", ("atom", "b"), ("atom", "c")))


def test_postfix_dual_stacks():
    assert parse("e^^") == ("dual", ("dual", ("atom", "e")))
    assert parse("(a -o b)^") == (
        "dual", ("impl", ("atom", "a"), ("atom", "b")))


def test_unicode_and_ascii_agree():
    for uni, asc in [("a ⊸ b", "a -o b"),
                     ("b2 ⊗ b3", "b2 x b3"),
                     ("b2 ⅋ b3", "b2 par b3")]:
        assert parse(uni) == parse(asc)


def test_parentheses_override_precedence():
    assert parse("(a + b) x c") == (
        "tensor", ("plus", ("atom", "a"), ("atom", "b")), ("atom", "c"))


@pytest.mark.parametrize("bad", [
    "", "   ", "(a", "a)", "a -", "- a", "a b", "a x", "x a",
    "a ? b", "()",
])
def test_malformed_expressions_rejected(bad):
    with pytest.raises(ExprSyntaxError):
        parse(bad)


def test_eval_on_goal_structure(goal_phase):
    ps = goal_phase
    assert eval_expr(ps, "a -o J1a x b2 x e") == "1"
    assert eval_expr(ps, "a -o J1a x b3 x e") == "b1"
    assert eval_expr(ps, "a -o e") == "1"
    assert eval_expr(ps, "e^^") == "J23e"
    assert eval_expr(ps, "b2 & b3") == "a"
    assert eval_expr(ps, "b2 + b3") == "J23"
    assert eval_expr(ps, "b2 par b3") == "1"
    assert eval_expr(ps, "b2 ⊗ b3") == ps.mult("b2", "b3")


def test_eval_unknown_element(goal_phase):
    with pytest.raises(ForeignElement):
        eval_expr(goal_phase, "a -o zork")


def test_nesting_depth():
    # one parser frame per parenthesis, so 400 levels fit under the
    # default recursion limit
    deep = "(" * 400 + "a" + ")" * 400
    assert parse(deep) == ("atom", "a")
    assert parse("a x " * 400 + "a")[0] == "tensor"
    for text in ("(" * 3000 + "a" + ")" * 3000, "a -o " * 3000 + "a"):
        with pytest.raises(ExprSyntaxError, match="nested too deeply"):
            parse(text)


def test_eval_deep_expression(goal_phase):
    # one evaluator frame per tree level
    assert eval_expr(goal_phase, "(" * 400 + "e^^" + ")" * 400) == "J23e"
    assert eval_expr(goal_phase, "b2 x " * 400 + "b2") == goal_phase.mult(
        "b2", "b2")
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        eval_expr(goal_phase, "a x " * 3000 + "a")
