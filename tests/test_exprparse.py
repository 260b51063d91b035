"""Expression parser: grammar, errors, evaluation over numbers and series.

The oracle below is the hand-written tokenizer and precedence-climbing parser
that Python's ``ast`` replaced.  Strings of the grammar, and their one-character
mutations, must parse to the oracle's tree or be refused as the oracle refuses
them, except where the grammar now refuses what the oracle read: integer
literals with leading zeros (``007``), which Python refuses.
"""

import math
import re

import pytest

from finsler.errors import ExprSyntaxError, UnboundVariable, UnknownIdentifier
from finsler.exprparse import (FUNCTIONS, MAX_DEPTH, Binary, Call, Const, Unary, Var,
                               eval_expr, parse, to_string)
from finsler.jets import jet_variable
from finsler.phi_families import CustomExprPhi


class TestParsing:
    def test_precedence_and_associativity(self):
        ast = parse("1 + 2 * 3 ^ 2 ^ 2 - 4 / 2", set())
        assert eval_expr(ast, {}) == pytest.approx(1 + 2 * 3**4 - 2)

    def test_unary_minus_binds_below_power(self):
        # -x^2 parses as -(x^2)
        ast = parse("-x^2", {"x"})
        assert eval_expr(ast, {"x": 3.0}) == pytest.approx(-9.0)

    def test_functions_and_parens(self):
        ast = parse("exp(log(2)) + sin(0) * cos(0) + sqrt(atan(0) + 16)", set())
        assert eval_expr(ast, {}) == pytest.approx(6.0)

    def test_to_string_round_trip(self):
        text = "1 + s * sqrt(1 - s^2) / (2 + s)"
        ast = parse(text, {"s"})
        again = parse(to_string(ast), {"s"})
        for v in (-0.5, 0.0, 0.3, 0.9):
            assert eval_expr(ast, {"s": v}) == pytest.approx(
                eval_expr(again, {"s": v}))

    def test_syntax_error_has_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 + * 2", set())
        assert err.value.offset is not None

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("1 + frobnicate(2)", set())
        with pytest.raises(UnknownIdentifier):
            parse("x + y", {"x"})

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + 2", set())
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2)", set())


class TestEvaluation:
    def test_unbound_variable(self):
        ast = parse("x + 1", {"x"})
        with pytest.raises(UnboundVariable):
            eval_expr(ast, {})

    def test_eval_over_jets(self):
        ast = parse("sqrt(x^2 + y^2)", {"x", "y"})
        xj = jet_variable(0, 3.0, 2, 2)
        yj = jet_variable(1, 4.0, 2, 2)
        out = eval_expr(ast, {"x": xj, "y": yj})
        assert out.value == pytest.approx(5.0)
        assert out.partial((1, 0)) == pytest.approx(3.0 / 5.0)

    def test_eval_over_series(self):
        ast = parse("exp(2 * t)", {"t"})
        t = jet_variable(0, 0.1, 1, 3)
        out = eval_expr(ast, {"t": t})
        d = [out.partial((k,)) for k in range(3)]
        assert d[0] == pytest.approx(math.exp(0.2))
        assert d[1] == pytest.approx(2 * math.exp(0.2))
        assert d[2] == pytest.approx(4 * math.exp(0.2))

    def test_integer_power_of_negative_base(self):
        ast = parse("x^3", {"x"})
        assert eval_expr(ast, {"x": -2.0}) == pytest.approx(-8.0)

    def test_variable_exponent_keeps_its_derivative(self):
        # d/ds 2^s = ln2 2^s
        c = CustomExprPhi("2^s").taylor(0.3, 2)
        ln2, v = math.log(2.0), 2.0**0.3
        assert c == pytest.approx([v, ln2 * v, 0.5 * ln2**2 * v], rel=1e-14)

    def test_variable_base_and_exponent(self):
        # d/ds s^(1+s) = s^(1+s) (log s + (1+s)/s)
        c = CustomExprPhi("1 + s^(1+s)", b0=1.0).taylor(0.5, 1)
        v = 0.5**1.5
        assert c[0] == pytest.approx(1.0 + v, rel=1e-14)
        assert c[1] == pytest.approx(v * (math.log(0.5) + 3.0), rel=1e-14)


# -- oracle: the hand-written parser that ast replaced ------------------------

_OPS = set("+-*/^()")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError(f"bad number {text[i:j]!r}", i) from None
            tokens.append(("num", value, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", None, n))
    return tokens


# -- parser ------------------------------------------------------------------

_BINOPS = {"+": ("add", 10), "-": ("sub", 10), "*": ("mul", 20), "/": ("div", 20)}
_UNARY_PREC = 30
_POW_PREC = 40


class _Parser:
    def __init__(self, tokens, allowed_vars):
        self.tokens = tokens
        self.pos = 0
        self.allowed = frozenset(allowed_vars)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self, min_prec=0):
        node = self.parse_prefix(min_prec)
        while True:
            kind, _, _ = self.peek()
            if kind not in _BINOPS:
                return node
            op, prec = _BINOPS[kind]
            if prec < min_prec:
                return node
            self.advance()
            node = Binary(op, node, self.parse_expr(prec + 1))

    def parse_prefix(self, min_prec):
        kind, value, off = self.peek()
        if kind == "-":
            self.advance()
            return Unary("neg", self.parse_prefix(_UNARY_PREC))
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, _, _ = self.peek()
        if kind == "^":
            self.advance()
            # right-associative; exponent may itself carry a unary minus
            return Binary("pow", base, self.parse_prefix(_POW_PREC))
        return base

    def parse_atom(self):
        kind, value, off = self.advance()
        if kind == "num":
            return Const(value)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                if value not in FUNCTIONS:
                    raise UnknownIdentifier(value, off)
                self.advance()
                arg = self.parse_expr()
                self.expect(")")
                return Call(value, arg)
            if value not in self.allowed:
                raise UnknownIdentifier(value, off)
            return Var(value)
        raise ExprSyntaxError(f"unexpected token {value!r}", off)


def oracle_parse(text, allowed_vars):
    """Parse expression ``text``; identifiers must come from ``allowed_vars``."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), allowed_vars)
    node = parser.parse_expr()
    kind, value, off = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"trailing input {value!r}", off)
    return node


# -- parity with the oracle --------------------------------------------------

NAMES = ("x1", "x2", "s", "k")
#: the grammar's characters, and some that Python reads but the grammar does not
ALPHABET = "0123456789.eE+-*/^() \n\tx1sk,#_j'<%"


def _parse_or_error(parser, text):
    try:
        return parser(text, NAMES)
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        assert 0 <= exc.offset <= len(text), (text, exc.offset)
        return exc


def _leading_zero_integer(text):
    """Whether the oracle read an integer literal with a leading zero."""
    return any(re.fullmatch(r"0+[1-9][0-9]*", re.match(r"[0-9.]+(?:[eE][+-]?[0-9]+)?",
                                                        text[off:]).group())
               for kind, _, off in _tokenize(text) if kind == "num")


def _past_the_floats(text):
    """Whether the oracle read a number literal past the float range, as inf."""
    return any(kind == "num" and math.isinf(value) for kind, value, _ in _tokenize(text))


def _grammar(st):
    """Strings of the documented grammar, with random spacing."""
    ws = st.sampled_from(["", " ", "  ", "\n", "\t", " \n "])
    digits = st.text("0123456789", min_size=1, max_size=4)
    mantissa = st.one_of(digits, st.tuples(digits, st.just("."), st.text("0123456789", max_size=3)),
                         st.tuples(st.just("."), digits)).map("".join)
    number = st.tuples(mantissa, st.sampled_from(["", "e5", "E-3", "e+12", "e0"])).map("".join)
    leaf = st.one_of(number, st.sampled_from(NAMES))

    def grow(expr):
        binary = st.tuples(expr, ws, st.sampled_from("+-*/^"), ws, expr).map("".join)
        neg = st.tuples(st.just("-"), ws, expr).map("".join)
        group = st.tuples(st.just("("), ws, expr, ws, st.just(")")).map("".join)
        call = st.tuples(st.sampled_from(FUNCTIONS), ws, st.just("("), expr, st.just(")")
                         ).map("".join)
        return st.one_of(binary, neg, group, call)

    return st.tuples(ws, st.recursive(leaf, grow, max_leaves=12), ws).map("".join)


def _agree(text):
    new, old = _parse_or_error(parse, text), _parse_or_error(oracle_parse, text)
    if isinstance(old, Exception):
        assert isinstance(new, Exception), (text, new)
    elif isinstance(new, Exception):  # the two inputs the grammar now refuses
        assert isinstance(new, ExprSyntaxError) and (
            _leading_zero_integer(text) or _past_the_floats(text)), (text, new)
    else:
        assert new == old, text


def test_grammar_strings_parse_as_the_oracle_parses_them():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(_grammar(hypothesis.strategies))
    def check(text):
        _agree(text)

    check()


def test_one_character_mutations_are_refused_as_the_oracle_refuses_them():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(_grammar(st), st.floats(0, 1), st.sampled_from(ALPHABET),
                      st.sampled_from(["insert", "delete", "replace"]))
    def check(text, where, ch, how):
        i = min(int(where * (len(text) + 1)), len(text))
        j = i + (how != "insert") * (i < len(text))
        _agree(text[:i] + ("" if how == "delete" else ch) + text[j:])

    check()


def test_leading_zero_integers_are_refused():
    for text in ("007", "01 + s", "s ^ 010"):
        assert isinstance(oracle_parse(text, NAMES), (Const, Binary))
        with pytest.raises(ExprSyntaxError):
            parse(text, NAMES)
    for text, value in (("00", 0.0), ("00.5", 0.5), ("01e1", 10.0), ("0.0", 0.0)):
        assert parse(text, ()) == oracle_parse(text, ()) == Const(value)


# -- refusals ----------------------------------------------------------------

#: input, error, offset of the offending character
REFUSED = [
    ("1 +", ExprSyntaxError, 3),  # the end of the text
    ("1 + * 2", ExprSyntaxError, 4),
    ("(1 + 2", ExprSyntaxError, 0),  # the parenthesis never closed
    ("1 + 2)", ExprSyntaxError, 5),
    ("x $ 1", ExprSyntaxError, 2),
    ("x ^ ^ 2", ExprSyntaxError, 4),
    ("é + $", ExprSyntaxError, 4),
    ("1 +\x00", ExprSyntaxError, 3),
    ("x ** 2", ExprSyntaxError, 2),
    ("x # note", ExprSyntaxError, 2),
    ("exp(x,)", ExprSyntaxError, 5),
    ("(exp)(x)", ExprSyntaxError, 0),
    ("'x'", ExprSyntaxError, 0),
    ("True", ExprSyntaxError, 0),
    ("None", ExprSyntaxError, 0),
    ("...", ExprSyntaxError, 0),
    ("1_0", ExprSyntaxError, 0),
    ("0x1f", ExprSyntaxError, 0),
    ("1j", ExprSyntaxError, 0),
    ("007", ExprSyntaxError, 0),
    ("(x, 1)", ExprSyntaxError, 0),
    ("(x < 1)", ExprSyntaxError, 1),
    ("x.real", ExprSyntaxError, 0),
    ("+x", ExprSyntaxError, 0),
    ("x % 2", ExprSyntaxError, 0),
    ("exp()", ExprSyntaxError, 0),
    ("exp(x, x)", ExprSyntaxError, 0),
    ("exp(x=1)", ExprSyntaxError, 0),
    ("frob(x)", UnknownIdentifier, 0),
    ("x(1)", UnknownIdentifier, 0),
    ("x + y", UnknownIdentifier, 4),
    ("ﬁ", UnknownIdentifier, 0),  # not read as "fi", as Python's names are
]


@pytest.mark.parametrize("prefix", ["", "  s ^ k ^ 2 + "])
@pytest.mark.parametrize("text, error, offset", REFUSED)
def test_refusals_point_at_the_offending_character(text, error, offset, prefix):
    # the prefix's ^ are two characters where Python reads them
    with pytest.raises(error) as err:
        parse(prefix + text, {"x", "s", "k", "fi"})
    assert err.value.offset == len(prefix) + offset


@pytest.mark.parametrize("text, offset", [
    ("", 0),
    (" \n\t ", 0),
    ("-" * MAX_DEPTH + "-x", MAX_DEPTH + 1),  # x, one level past the bound
    # past Python's own limits, which lie past the bound
    ("exp(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1), None),
    ("(" * 1500 + "x" + ")" * 1500, None),  # once a RecursionError
    ("+".join(["x"] * 3000), None),  # once a RecursionError in eval_expr
    # Python warns about these: the warning is the refusal
    ("'\\d'", None),
    ("1in x", None),
], ids=["empty", "blank", "minus", "calls", "parens", "sum", "escape", "literal"])
def test_refused_at_an_offset_inside_the_text(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, {"x"})
    assert 0 <= err.value.offset <= len(text)
    assert offset is None or err.value.offset == offset


def test_deepest_admitted_tree_evaluates():
    text = "-" * MAX_DEPTH + "x"
    assert eval_expr(parse(text, {"x"}), {"x": 2.0}) == 2.0
    ast = parse("+".join(["x"] * MAX_DEPTH), {"x"})
    assert eval_expr(ast, {"x": 1.0}) == MAX_DEPTH
    assert parse(to_string(ast), {"x"}) == ast


def test_whitespace_and_names_keep_their_text():
    assert parse(" \n x1\n^\t2\u2003", {"x1"}) == Binary("pow", Var("x1"), Const(2.0))
    assert parse("ﬁ", {"ﬁ"}) == Var("ﬁ")
    assert parse("abs (-1.5e-3)", ()) == Call("abs", Unary("neg", Const(1.5e-3)))


@pytest.mark.parametrize("text, offset", [("x1 + 1e400", 5), ("2*" + "9" * 310, 2)])
def test_a_number_past_the_float_range_is_refused(text, offset):
    # float() reads it as inf, which then reached every value of the expression
    with pytest.raises(ExprSyntaxError, match=rf"past the float range \(at offset {offset}\)"):
        parse(text, NAMES)
