"""Univariate jets above the multivariate order cap, against sympy series."""

import functools

import pytest

pytest.importorskip("hypothesis")
sp = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from finsler.jets import MAX_ORDER, jet_apply, jet_variable  # noqa: E402

U, A, C, H = sp.symbols("u a c h")
TOP = MAX_ORDER + 2

#: name -> (jet of f(u), f as a sympy expression, interval of the value of u)
CASES = {
    "exp": (lambda u: jet_apply("exp", (u,)), sp.exp(U), (-2.0, 2.0)),
    "log": (lambda u: jet_apply("log", (u,)), sp.log(U), (0.3, 3.0)),
    "sqrt": (lambda u: jet_apply("sqrt", (u,)), sp.sqrt(U), (0.3, 3.0)),
    "atan": (lambda u: jet_apply("atan", (u,)), sp.atan(U), (-2.0, 2.0)),
    "recip": (lambda u: jet_apply("div", (1.0, u)), 1 / U, (0.3, 3.0)),
    "pow": (lambda u: jet_apply("pow", (u, 1.7)), U ** sp.Rational(17, 10),
            (0.3, 3.0)),
}


@functools.lru_cache(maxsize=None)
def _sympy_coeffs(name):
    """Coefficients of h^k in f(a + h + c h^2), as functions of (a, c)."""
    expr = CASES[name][1].subs(U, A + H + C * H**2)
    series = sp.series(expr, H, 0, TOP + 1).removeO()
    return [sp.lambdify((A, C), series.coeff(H, k)) for k in range(TOP + 1)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_series_match_sympy(name):
    jet_of, _, (lo, hi) = CASES[name]
    coeffs = _sympy_coeffs(name)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(lo, hi), st.floats(-1.0, 1.0),
           st.integers(MAX_ORDER + 1, TOP))
    def check(a, c, order):
        # the inner argument is nonlinear in h = s - s0, so the composition
        # also runs the product kernel on a full series
        h = jet_variable(0, 0.25, 1, order) - 0.25
        got = jet_of(a + h + c * h * h).coeffs
        want = [float(coeffs[k](a, c)) for k in range(order + 1)]
        scale = max(1.0, max(abs(w) for w in want))
        assert got == pytest.approx(want, rel=1e-9, abs=1e-11 * scale)

    check()
