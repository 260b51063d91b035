"""Expression parser: grammar, errors, evaluation over numbers and series."""

import math

import pytest

from finsler.errors import ExprSyntaxError, UnboundVariable, UnknownIdentifier
from finsler.exprparse import eval_expr, parse, to_string
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
