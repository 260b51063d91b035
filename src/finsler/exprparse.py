"""Parser and evaluator for coordinate expressions in metric configs.

Python's ``ast`` reads the text, with ``^`` as ``**``: its ``**`` has the
grammar's precedence and right associativity, and binds tighter than unary
minus on its left.  One walk of the tree admits only the grammar's forms and
builds this module's nodes; every error carries the offset of its character
in the original text.  Precedence, tightest first::

    ^ (right-assoc)  >  unary -  >  * /  >  + -

The same AST evaluates over plain floats or jets (multivariate fiber jets and
univariate series alike): every operation goes through ``jet_apply``, so
user-supplied metrics plug straight into the differentiation machinery.
"""

import ast
import math
import warnings
from dataclasses import dataclass

from .errors import ExprSyntaxError, UnboundVariable, UnknownIdentifier, shown
from .jets import jet_apply

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "atan", "abs")

#: deepest tree ``parse`` admits, Python's own limit on nested parentheses:
#: ``eval_expr`` and ``to_string`` recurse once per level
MAX_DEPTH = 200


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


# -- parsing -----------------------------------------------------------------

_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}


def parse(text, allowed_vars):
    """Parse expression ``text``; identifiers must come from ``allowed_vars``."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    # Python reads these, leaving no trace in its tree, or refuses them untyped
    for bad in ("#", "**", "\0"):
        if bad in text:
            raise ExprSyntaxError(f"unexpected {bad!r}", text.index(bad))
    # eval mode refuses leading indentation and bare newlines, so the text is
    # left-stripped and each whitespace character becomes one space
    lead = len(text) - len(text.lstrip())
    src = "".join(" " if ch.isspace() else ch for ch in text[lead:]).replace("^", "**")
    # where[k]: the offset in text of src's k-th character
    where = [i for i in range(lead, len(text)) for _ in range(1 + (text[i] == "^"))]
    where.append(len(text))
    try:
        with warnings.catch_warnings():  # a literal Python warns about (1in x) is refused
            warnings.simplefilter("error")
            tree = ast.parse(src, mode="eval").body
    except SyntaxError as exc:  # offset is 1-based; 0 or None is the end, where[-1]
        raise ExprSyntaxError(exc.msg, where[min(exc.offset or 0, len(src) + 1) - 1]) from None
    except ValueError as exc:  # a lone surrogate
        raise ExprSyntaxError(str(exc), 0) from None
    except (RecursionError, MemoryError):  # Python's own limits lie past MAX_DEPTH
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", 0) from None
    # Python's col_offset counts UTF-8 bytes: chars[col] is src's character at byte col
    chars = [k for k, ch in enumerate(src) for _ in ch.encode()] + [len(src)]
    allowed = frozenset(allowed_vars)

    def at(col):  # offset in text of the src character at byte col
        return where[chars[col]]

    def walk(node, depth):
        start, end = at(node.col_offset), at(node.end_col_offset)
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH}", start)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float) \
                and set(text[start:end]) <= set("0123456789.eE+-"):
            if math.isinf(float(text[start:end])):
                raise ExprSyntaxError("number past the float range", start)
            return Const(float(text[start:end]))
        if isinstance(node, ast.Name):  # the text's own name, before Python's NFKC
            if text[start:end] not in allowed:
                raise UnknownIdentifier(text[start:end], start)
            return Var(text[start:end])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Unary("neg", walk(node.operand, depth + 1))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return Binary(_BINARY[type(node.op)], walk(node.left, depth + 1),
                          walk(node.right, depth + 1))
        fn = node.func if isinstance(node, ast.Call) else None
        if isinstance(fn, ast.Name) and fn.col_offset == node.col_offset \
                and len(node.args) == 1 and not node.keywords:
            name = text[start:at(fn.end_col_offset)]
            if name not in FUNCTIONS:
                raise UnknownIdentifier(name, start)
            comma = text.find(",", at(node.args[0].end_col_offset), end)
            if comma >= 0:
                raise ExprSyntaxError("unexpected ','", comma)
            return Call(name, walk(node.args[0], depth + 1))
        raise ExprSyntaxError(f"not in the grammar: {shown(text[start:end])}", start)

    return walk(tree, 0)


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
