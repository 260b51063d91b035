"""Truncated jets (multivariate and univariate) and base-point derivatives."""

import contextlib
import io
import math
import warnings
from functools import partial
from itertools import product

import numpy as np
import pytest

from finsler.errors import DomainError, EvaluationError
from finsler.geometry_core import _at
from finsler.cli import main
from finsler.jets import (MAX_ORDER, JetScalar, _batch_bins, _tables, base_derivative,
                          jet_apply, jet_form, jet_variable)


def _num_partial(fn, point, multi, h=1e-4):
    """Crude nested central difference for cross-checks."""
    axes = [i for i, k in enumerate(multi) for _ in range(k)]
    if not axes:
        return fn(point)
    ax, rest = axes[0], multi[:]
    rest = list(multi)
    rest[ax] -= 1
    p1, p2 = list(point), list(point)
    p1[ax] += h
    p2[ax] -= h
    return (_num_partial(fn, p1, tuple(rest), h)
            - _num_partial(fn, p2, tuple(rest), h)) / (2 * h)


class TestJetArithmetic:
    def test_polynomial_partials_exact(self):
        x = jet_variable(0, 2.0, 2, 3)
        y = jet_variable(1, -1.0, 2, 3)
        p = x * x * y + 3.0 * y - x / y
        assert p.value == pytest.approx(2 * 2 * -1 + 3 * -1 - 2 / -1)
        assert p.partial((1, 0)) == pytest.approx(2 * 2 * -1 + 1)  # 2xy - 1/y
        assert p.partial((0, 1)) == pytest.approx(4 + 3 + 2)  # x^2 + 3 + x/y^2

    @pytest.mark.parametrize("multi", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                                       (2, 1), (1, 2), (3, 0)])
    def test_composite_function_vs_finite_difference(self, multi):
        def fn(p):
            u, v = p
            return math.sqrt(u * u + v * v) * math.exp(0.3 * u * v) \
                + math.sin(u) * math.cos(v) + math.atan(u - v)

        point = (0.8, -0.4)
        x = jet_variable(0, point[0], 2, 3)
        y = jet_variable(1, point[1], 2, 3)
        jet = jet_apply("sqrt", (x * x + y * y,)) * jet_apply("exp", (0.3 * x * y,)) \
            + jet_apply("sin", (x,)) * jet_apply("cos", (y,)) \
            + jet_apply("atan", (x - y,))
        expected = _num_partial(fn, point, multi)
        tol = 5e-4 * max(1.0, abs(expected)) if sum(multi) >= 3 else 1e-6
        assert jet.partial(multi) == pytest.approx(expected, abs=tol)

    def test_log_and_power(self):
        x = jet_variable(0, 1.5, 1, 4)
        j = jet_apply("log", (x,)) + x ** 3 + x ** (-0.5)
        val = math.log(1.5) + 1.5**3 + 1.5**-0.5
        d1 = 1 / 1.5 + 3 * 1.5**2 - 0.5 * 1.5**-1.5
        assert j.value == pytest.approx(val)
        assert j.partial((1,)) == pytest.approx(d1)

    def test_division_matches_multiplication(self):
        x = jet_variable(0, 0.7, 2, 4)
        y = jet_variable(1, 1.3, 2, 4)
        q = (x * x + 1.0) / (y + 2.0)
        back = q * (y + 2.0)
        for multi in [(0, 0), (1, 0), (0, 1), (2, 2), (1, 3)]:
            assert back.partial(multi) == pytest.approx(
                (x * x + 1.0).partial(multi), abs=1e-12)

    def test_abs_on_negative_branch(self):
        x = jet_variable(0, -2.0, 1, 2)
        j = jet_apply("abs", (x,))
        assert j.value == pytest.approx(2.0)
        assert j.partial((1,)) == pytest.approx(-1.0)

    def test_scalar_fallback(self):
        assert jet_apply("sqrt", (4.0,)) == pytest.approx(2.0)
        assert jet_apply("exp", (0.0,)) == pytest.approx(1.0)
        assert jet_apply("atan", (1.0,)) == pytest.approx(math.pi / 4)

    def test_product_kernel_matches_scattered_sum(self):
        # the table-order bincount kernel gives the same bits as np.add.at
        rng = np.random.default_rng(7)
        for n_vars, order in [(2, 4), (3, 4), (1, 6)]:
            ii, jj, kk = _tables(n_vars, order)[2]
            size = len(_tables(n_vars, order)[0])
            for _ in range(20):
                a, b = rng.normal(size=size), rng.normal(size=size)
                want = np.zeros(size)
                np.add.at(want, kk, a[ii] * b[jj])
                got = (JetScalar(a, n_vars, order) * JetScalar(b, n_vars, order)).coeffs
                assert np.array_equal(got, want)

    def test_order_cap_only_for_multivariate_jets(self):
        with pytest.raises(ValueError):
            jet_variable(0, 0.1, 2, MAX_ORDER + 1)
        t = jet_variable(0, 0.1, 1, MAX_ORDER + 3)
        assert (t * t).coeffs.shape == (MAX_ORDER + 4,)

    def test_integer_power_squares_only_what_it_uses(self):
        # 1e100 squared is 1e200, a float: no overflow warning from the fourth
        # power that the product never reads
        x = jet_variable(0, 1e100, 1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (x ** 2).coeffs.tobytes() == (x * x).coeffs.tobytes()
        # the bits of square-and-multiply with its last, unused square
        for base, p in product((jet_variable(0, 0.7, 1, 3), jet_variable(1, -1.3, 2, 4)),
                               range(10)):
            want, square, q = base._coerce(1.0), base, p
            while q:
                want = want * square if q & 1 else want
                square, q = square * square, q >> 1
            assert (base ** p).coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("point", [1e200, np.array([0.5, 1e200])])
    def test_integer_power_overflow_is_a_domain_error(self, point):
        # as the float route: 1e200**2 overflows a float, on one jet or in one column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"1e\+200\^2 overflows a float"):
                jet_variable(0, point, 1, 2) ** 2
            with pytest.raises(DomainError, match="overflows a float"):
                jet_apply("pow", (1e200, 2.0))


def _form_by_products(c, yj):
    """``jet_form`` as it was built before its closed form: n^2 kernel products."""
    out = yj[0]._coerce(0.0)
    linear = c.ndim == yj[0].coeffs.ndim
    for i, y_i in enumerate(yj):
        if linear:
            out = out + y_i * c[i]
        else:
            for j, y_j in enumerate(yj):
                out = out + y_i * c[i, j] * y_j
    return out


def _form_case(rng, n, order, columns, quadratic):
    """Coordinate jets and coefficients with zero components of y and signed zeros in c.

    ``columns`` is None (no batch axis), ``"each"`` (4 columns, a coefficient per
    column) or ``"shared"`` (4 columns, one length-1 coefficient axis).
    """
    lead = () if columns is None else (4,)
    y = rng.normal(size=(n,) + lead)
    y[rng.random(y.shape) < 0.3] = 0.0
    yj = [jet_variable(i, y[i] if lead else float(y[i]), n, order) for i in range(n)]
    shape = (n,) * (2 if quadratic else 1) + {None: (), "each": (4,), "shared": (1,)}[columns]
    c = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    mask = rng.random(shape)
    c[mask < 0.2], c[(mask >= 0.2) & (mask < 0.35)] = 0.0, -0.0
    return c, yj


class TestJetForm:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("order", range(MAX_ORDER + 1))
    @pytest.mark.parametrize("columns", [None, "each", "shared"])
    @pytest.mark.parametrize("quadratic", [False, True])
    def test_closed_form_has_the_bits_of_the_products(self, n, order, columns, quadratic):
        rng = np.random.default_rng([n, order, [None, "each", "shared"].index(columns), quadratic])
        for _ in range(5):
            c, yj = _form_case(rng, n, order, columns, quadratic)
            got, want = jet_form(c, yj), _form_by_products(c, yj)
            assert got.coeffs.shape == want.coeffs.shape
            assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_zero_components_and_signed_zeros(self):
        # y = (1, 0), and c with +0.0 and -0.0 where a product of a zero could
        # leave a -0.0 in a bin that starts at +0.0
        for order in range(MAX_ORDER + 1):
            yj = [jet_variable(i, v, 2, order) for i, v in enumerate((1.0, 0.0))]
            for c in (np.array([[-0.0, 2.0], [-0.0, -0.0]]), np.array([[0.0, -0.0], [3.0, 0.0]]),
                      np.array([-0.0, 0.0]), np.array([-0.0, -0.0])):
                got, want = jet_form(c, yj), _form_by_products(c, yj)
                assert got.coeffs.tobytes() == want.coeffs.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coefficient_takes_the_kernel(self, bad):
        rng = np.random.default_rng(3)
        with np.errstate(invalid="ignore"):
            for quadratic, columns in product((False, True), (None, "each")):
                c, yj = _form_case(rng, 3, 4, columns, quadratic)
                c.flat[5 % c.size] = bad
                got, want = jet_form(c, yj), _form_by_products(c, yj)
                assert got.coeffs.tobytes() == want.coeffs.tobytes()

    def test_closed_form_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(st.integers(1, 5), st.integers(0, MAX_ORDER),
                          st.sampled_from([None, "each", "shared"]), st.booleans(),
                          st.integers(0, 2**32 - 1))
        def check(n, order, columns, quadratic, seed):
            c, yj = _form_case(np.random.default_rng(seed), n, order, columns, quadratic)
            assert jet_form(c, yj).coeffs.tobytes() == _form_by_products(c, yj).coeffs.tobytes()

        check()


class TestUnivariateJets:
    def test_variable_composition(self):
        t = jet_variable(0, 0.5, 1, 5)
        f = jet_apply("exp", (t * t,)) * jet_apply("sqrt", (1.0 + t,))
        # derivative values against small finite differences
        h = 1e-5

        def g(s):
            return math.exp(s * s) * math.sqrt(1.0 + s)

        d = [f.partial((k,)) for k in range(3)]
        assert d[0] == pytest.approx(g(0.5))
        assert d[1] == pytest.approx((g(0.5 + h) - g(0.5 - h)) / (2 * h), abs=1e-7)
        assert d[2] == pytest.approx(
            (g(0.5 + h) - 2 * g(0.5) + g(0.5 - h)) / h**2, abs=1e-4)

    def test_deriv_shifts_coefficients(self):
        t = jet_variable(0, 0.0, 1, 4)
        p = 1.0 + 2.0 * t + 3.0 * t * t
        dp = p.derivative(0)
        assert dp.value == pytest.approx(2.0)
        assert dp.partial((1,)) == pytest.approx(6.0)


def _jet(order):
    return jet_variable(0, 0.0, 1, order)


@pytest.mark.parametrize("fn, args, want", [
    ("sqrt", (-1.0,), DomainError),
    ("log", (0.0,), DomainError),
    ("div", (1.0, 0.0), DomainError),
    ("pow", (-2.0, 0.5), DomainError),
    ("pow", (0.0, -1.0), DomainError),
    ("sqrt", (_jet(2) - 1.0,), DomainError),
    ("log", (_jet(2),), DomainError),
    ("div", (1.0, _jet(2)), DomainError),
    ("pow", (_jet(2) - 2.0, 0.5), DomainError),
    ("abs", (_jet(1),), DomainError),
    ("abs", (jet_variable(1, 0.0, 2, 3),), DomainError),
    ("abs", (_jet(0),), 0.0),
    ("abs", (_jet(0) - 2.0,), 2.0),
    ("abs", (-0.0,), 0.0),
    ("exp", (1000.0,), DomainError),
    ("pow", (2.0, 2000.0), DomainError),
    ("exp", (_jet(2) + 1000.0,), DomainError),
    ("pow", (_jet(2) + 2.0, 2000.5), DomainError),
    ("div", (1.0, _jet(2) + 1e-200), DomainError),
])
def test_domain_rule(fn, args, want):
    """One rule for floats and jets: DomainError outside the domain, which
    includes results that overflow a float; abs at 0 is an error only where a
    derivative is asked for."""
    if want is DomainError:
        with pytest.raises(DomainError):
            jet_apply(fn, args)
    else:
        out = jet_apply(fn, args)
        assert getattr(out, "value", out) == want


class TestBaseDerivative:
    def test_gradient_matches_the_closed_form(self):
        fn = lambda p: math.sin(p[0]) * math.exp(2.0 * p[1])
        grad = base_derivative(partial(_at, fn), np.array([0.3, -0.2]))
        assert grad.shape == (2,)
        assert grad == pytest.approx([math.cos(0.3) * math.exp(-0.4),
                                      2.0 * math.sin(0.3) * math.exp(-0.4)], abs=1e-10)

    def test_stencil_order(self):
        # one call on the whole stencil: axis 0 first, each axis at +h, -h,
        # +2h, -2h with h = 1e-3 max(1, |x^k|)
        seen = []

        def record(p):
            seen.append(p.tolist())
            return np.zeros(len(p))

        base_derivative(record, np.array([0.3, -2.0]))
        h0, h1 = 1e-3, 2e-3
        assert seen == [[[0.3 + h0, -2.0], [0.3 - h0, -2.0], [0.3 + 2 * h0, -2.0],
                         [0.3 - 2 * h0, -2.0], [0.3, -2.0 + h1], [0.3, -2.0 - h1],
                         [0.3, -2.0 + 2 * h1], [0.3, -2.0 - 2 * h1]]]

    def test_failure_is_wrapped(self):
        # the first evaluation, axis 0 at +h, fails and names itself
        def bad(p):
            raise ValueError("boom")

        with pytest.raises(EvaluationError) as info:
            base_derivative(bad, np.zeros(2))
        assert str(info.value) == "field evaluation failed at offset +0.001 along axis 0: boom"
        assert isinstance(info.value.__cause__, ValueError)

    def test_array_field_failure_is_wrapped(self):
        def bad(p):  # only the last stencil point of axis 1 fails
            if p[1] < -0.0015:
                raise ValueError("boom")
            return np.zeros(3)

        with pytest.raises(EvaluationError) as info:
            base_derivative(partial(_at, bad), np.zeros(2))
        assert str(info.value) == "field evaluation failed at offset -0.002 along axis 1: boom"

    @staticmethod
    def _components(p):
        return [math.sin(p[0]) * math.exp(2.0 * p[1]), p[0] ** 3 * p[1],
                math.cos(p[0] - p[1])]

    def test_array_field_is_stacked_scalar_calls(self):
        x = np.array([0.3, -0.2])
        got = base_derivative(partial(_at, self._components), x)
        want = [base_derivative(partial(_at, lambda p, c=c: self._components(p)[c]), x)
                for c in range(3)]
        assert got.shape == (3, 2)
        assert np.array_equal(got, want)

    def test_gradient_is_always_an_array(self):
        fn = partial(_at, lambda p: np.float64(p[0] * p[1]))  # a numpy scalar per point
        one = base_derivative(fn, np.array([0.3, -0.2]))
        stack = base_derivative(fn, np.array([[0.3, -0.2], [0.1, 0.4], [0.0, 1.0]]))
        assert type(one) is np.ndarray and one.shape == (2,)
        assert stack.shape == (3, 2) and np.array_equal(stack[0], one)


def test_batch_bins_cache_is_bounded_and_holds_one_command():
    # one (table entries x width) index array per key: a caller that varies
    # the width must not grow the cache without bound
    _batch_bins.cache_clear()
    for width in range(1, 200):
        _batch_bins(2, 2, width)
    info = _batch_bins.cache_info()
    assert info.currsize == info.maxsize == 64
    # `check` builds the most keys of any command (38), and none is evicted
    # and rebuilt
    _batch_bins.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["check"]) == 0
    info = _batch_bins.cache_info()
    assert info.misses == info.currsize < info.maxsize
