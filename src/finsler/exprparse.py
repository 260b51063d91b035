"""Parser and evaluator for coordinate expressions in metric configs.

A tiny precedence-climbing parser; no grammar tooling so that every error can
carry an exact byte offset.  Precedence, tightest first::

    ^ (right-assoc)  >  unary -  >  * /  >  + -

The same AST evaluates over plain floats or jets (multivariate fiber jets and
univariate series alike): every operation goes through ``jet_apply``, so
user-supplied metrics plug straight into the differentiation machinery.
"""

from dataclasses import dataclass

from .errors import ExprSyntaxError, UnboundVariable, UnknownIdentifier
from .jets import jet_apply

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "atan", "abs")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # only "neg"
    child: object


@dataclass(frozen=True)
class Binary:
    op: str  # add sub mul div pow
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


# -- tokenizer ---------------------------------------------------------------

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


def parse(text, allowed_vars):
    """Parse expression ``text``; identifiers must come from ``allowed_vars``."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), allowed_vars)
    node = parser.parse_expr()
    kind, value, off = parser.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"trailing input {value!r}", off)
    return node


# -- printing ----------------------------------------------------------------

def to_string(ast):
    """Canonical (fully parenthesized) form; re-parsing reproduces the AST."""
    if isinstance(ast, Const):
        return repr(ast.value)
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Unary):
        return f"(-{to_string(ast.child)})"
    if isinstance(ast, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}[ast.op]
        return f"({to_string(ast.left)} {sym} {to_string(ast.right)})"
    if isinstance(ast, Call):
        return f"{ast.fn}({to_string(ast.arg)})"
    raise TypeError(f"not an AST node: {ast!r}")


# -- evaluation --------------------------------------------------------------

def eval_expr(ast, bindings):
    """Evaluate over whatever algebra the bindings carry (floats or jets)."""
    if isinstance(ast, Const):
        return ast.value
    if isinstance(ast, Var):
        try:
            return bindings[ast.name]
        except KeyError:
            raise UnboundVariable(f"no binding for variable {ast.name!r}") from None
    if isinstance(ast, Unary):
        return jet_apply(ast.op, (eval_expr(ast.child, bindings),))
    if isinstance(ast, Binary):
        return jet_apply(ast.op, (eval_expr(ast.left, bindings),
                                  eval_expr(ast.right, bindings)))
    if isinstance(ast, Call):
        return jet_apply(ast.fn, (eval_expr(ast.arg, bindings),))
    raise TypeError(f"not an AST node: {ast!r}")
