"""Oracle: the array-native univariate tables against the one-column-at-a-time code.

The reference below is the scalar table code that the array path replaced:
the elementary-function tables, the real-power table, the one-column-at-a-time
stacking, the float and jet rules of ``abs``, ``/`` and ``^`` in expressions,
and each phi family's ``taylor``.  Every table of a column array must equal
the reference's column stack bit for bit (signed zeros included), and a batch
that fails must raise the type and text of its first failing column.
"""

import math
import warnings
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest

from finsler import jets
from finsler.errors import DomainError, NonPositivePhi
from finsler.exprparse import eval_expr
from finsler.jets import TINY, JetScalar, jet_apply, jet_variable
from finsler.phi_families import (CustomExprPhi, RandersPhi, RiemannSqrtPhi,
                                  UnicornPhi)
from finsler.series import pow_coeffs, taylor_coeffs

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TAGS = ("exp", "log", "sqrt", "recip", "sin", "cos", "atan")


# -- reference: the scalar tables -------------------------------------------

def ref_recip_series(poly, order):
    out = np.zeros(order + 1)
    out[0] = 1.0 / poly[0]
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(1, k + 1):
            pj = poly[j] if j < len(poly) else 0.0
            acc += pj * out[k - j]
        out[k] = -acc / poly[0]
    return out


def ref_taylor_coeffs(tag, u0, order):
    try:
        return ref_coeffs(tag, u0, order)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{tag} at {u0} leaves the float range: {exc}") from exc


def ref_coeffs(tag, u0, order):
    c = np.zeros(order + 1)
    if tag == "exp":
        e = math.exp(u0)
        for k in range(order + 1):
            c[k] = e / math.factorial(k)
    elif tag == "log":
        if u0 <= 0.0:
            raise DomainError(f"log of non-positive value {u0}")
        c[0] = math.log(u0)
        for k in range(1, order + 1):
            c[k] = (-1.0) ** (k - 1) / (k * u0**k)
    elif tag == "sqrt":
        if u0 <= 0.0:
            raise DomainError(f"sqrt of non-positive value {u0}")
        r = math.sqrt(u0)
        c[0] = r
        binom = 1.0
        for k in range(1, order + 1):
            binom *= (0.5 - (k - 1)) / k
            c[k] = binom * r / u0**k
    elif tag == "recip":
        if abs(u0) < TINY:
            raise DomainError("division by ~0")
        for k in range(order + 1):
            c[k] = (-1.0) ** k / u0 ** (k + 1)
    elif tag == "sin":
        cycle = (math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0))
        for k in range(order + 1):
            c[k] = cycle[k % 4] / math.factorial(k)
    elif tag == "cos":
        cycle = (math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0))
        for k in range(order + 1):
            c[k] = cycle[k % 4] / math.factorial(k)
    elif tag == "atan":
        c[0] = math.atan(u0)
        if order >= 1:
            quad = np.zeros(order)
            quad[0] = 1.0 + u0 * u0
            if order >= 2:
                quad[1] = 2.0 * u0
            if order >= 3:
                quad[2] = 1.0
            g = ref_recip_series(quad, order - 1)
            for k in range(1, order + 1):
                c[k] = g[k - 1] / k
    else:
        raise ValueError(f"no Taylor table for tag {tag!r}")
    return c


def ref_pow_coeffs(u0, p, order):
    if u0 <= 0.0:
        raise DomainError(f"real power of non-positive base {u0}")
    c = np.zeros(order + 1)
    try:
        c[0] = u0**p
        binom = 1.0
        for k in range(1, order + 1):
            binom *= (p - (k - 1)) / k
            c[k] = binom * u0 ** (p - k)
    except OverflowError as exc:
        raise DomainError(f"{u0}^{p} overflows a float") from exc
    return c


def per_column(table, values):
    if getattr(values, "ndim", 0) == 0:
        return table(float(values))
    return np.column_stack([table(v) for v in np.asarray(values).tolist()])


# -- reference: expression rules and the phi families -----------------------

def ref_elementary(tag, u):
    if isinstance(u, JetScalar):
        return u._compose(tag)
    return float(ref_taylor_coeffs(tag, float(u), 0)[0])


def ref_abs(u):
    if not isinstance(u, JetScalar):
        return abs(u)
    if u.max_order >= 1 and abs(u.value) < TINY:
        raise DomainError("abs is not differentiable at 0")
    return -u if u.value < 0.0 else u


def ref_div(u, v):
    if isinstance(v, (int, float, np.floating, np.integer)) and abs(v) < TINY:
        raise DomainError("division by ~0")
    return u / v


def ref_pow(u, p):
    if isinstance(p, JetScalar):
        if np.any(p.coeffs[1:] != 0.0):
            return ref_elementary("exp", ref_elementary("log", u) * p)
        p = p.value
    p = float(p)
    if isinstance(u, JetScalar):
        return u ** p
    if p.is_integer():
        if p < 0.0 and abs(u) < TINY:
            raise DomainError("negative power of ~0")
    elif u <= 0.0:
        raise DomainError(f"real power of non-positive base {u}")
    try:
        return u ** int(p) if p.is_integer() else u ** p
    except OverflowError as exc:
        raise DomainError(f"{u}^{p} overflows a float") from exc


@contextmanager
def reference():
    """Jets and expressions on the reference tables and rules."""
    rules = {tag: partial(ref_elementary, tag)
             for tag in ("sqrt", "exp", "log", "sin", "cos", "atan")}
    with mock.patch.object(jets, "taylor_coeffs", lambda tag, u0, order: per_column(
                partial(ref_taylor_coeffs, tag, order=order), u0)), \
            mock.patch.object(jets, "pow_coeffs", lambda u0, p, order: per_column(
                partial(ref_pow_coeffs, p=float(p), order=order), u0)), \
            mock.patch.dict(jets._UNARY, {"abs": ref_abs, **rules}), \
            mock.patch.dict(jets._BINARY, {"div": ref_div, "pow": ref_pow}), \
            np.errstate(all="ignore"):
        yield


def ref_taylor(f, s0, order):
    if isinstance(f, RandersPhi):
        c = np.zeros(order + 1)
        c[0] = 1.0 + s0
        if order >= 1:
            c[1] = 1.0
        return c
    if isinstance(f, RiemannSqrtPhi):
        t = jet_variable(0, s0, 1, order)
        return jet_apply("sqrt", (1.0 + f.k * t * t,)).coeffs
    if isinstance(f, UnicornPhi):
        c = np.zeros(order + 1)
        c[0] = float(f.value_many(s0))
        if order:
            g = f._g_series(s0, order - 1).coeffs
            for m in range(order):
                c[m + 1] = float(np.dot(g[: m + 1], c[m::-1])) / (m + 1)
        return c
    bindings = dict(f.params)
    bindings["s"] = jet_variable(0, s0, 1, order)
    out = eval_expr(f.ast, bindings)
    if isinstance(out, JetScalar):
        return out.coeffs
    c = np.zeros(order + 1)
    c[0] = float(out)
    return c


def ref_check_positivity(f, b):
    half = min(b, f.b0) * (1.0 - f.delta)
    for s in np.linspace(-half, half, 41):
        phi, dphi = ref_taylor(f, s, 1)[:2]
        if phi <= 0.0:
            raise NonPositivePhi(f"phi({s}) = {phi} <= 0")
        if phi - s * dphi <= 0.0:
            raise NonPositivePhi(f"(phi - s*phi')({s}) = {phi - s * dphi} <= 0")


# -- comparison -------------------------------------------------------------

def outcome(fn, *args):
    """The result's shape and bytes, or the type and text of what it raised.

    Jet products warn where they overflow, before and after alike: warnings
    are silenced.  A NaN is compared as NaN, whatever its sign bit.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = np.asarray(fn(*args), dtype=float)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return type(exc), str(exc)
    return out.shape, np.where(np.isnan(out), np.nan, out).tobytes()


def assert_same(new, ref, *args):
    with reference():
        want = outcome(ref, *args)
    assert outcome(new, *args) == want


# -- strategies -------------------------------------------------------------

_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_VALUES = st.one_of(
    st.floats(-6.0, 6.0), _ANY_FLOAT, st.sampled_from([0.0, -0.0, 1e-300, -1e-301, 1.0]),
    st.floats(1e-200, 1e-120), st.floats(1e100, 1e200), st.floats(-1e200, -1e100))
_COLUMNS = st.lists(_VALUES, min_size=1, max_size=8).map(np.array)
_ORDERS = st.integers(0, 6)
_EXPONENTS = st.one_of(st.floats(-6.0, 6.0), st.integers(-4, 6).map(float), _ANY_FLOAT)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(st.sampled_from(TAGS), _COLUMNS, _ORDERS)
def test_elementary_tables_are_the_column_stack(tag, u, order):
    assert_same(lambda v: taylor_coeffs(tag, v, order),
                lambda v: per_column(partial(ref_taylor_coeffs, tag, order=order), v), u)
    assert_same(lambda v: taylor_coeffs(tag, v, order),
                lambda v: ref_taylor_coeffs(tag, v, order), float(u[0]))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_COLUMNS, _EXPONENTS, _ORDERS)
def test_power_tables_are_the_column_stack(u, p, order):
    assert_same(lambda v: pow_coeffs(v, p, order),
                lambda v: per_column(partial(ref_pow_coeffs, p=p, order=order), v), u)
    assert_same(lambda v: pow_coeffs(v, p, order),
                lambda v: ref_pow_coeffs(v, p, order), float(u[0]))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.lists(st.tuples(_VALUES, _EXPONENTS), min_size=1, max_size=8), _ORDERS)
def test_one_exponent_per_column(pairs, order):
    u, p = map(np.array, zip(*pairs))
    with reference():
        want = outcome(lambda: np.column_stack(
            [ref_pow_coeffs(a, b, order) for a, b in pairs]))
    assert outcome(pow_coeffs, u, p, order) == want


@pytest.mark.parametrize("tag", TAGS)
def test_a_fixed_sweep_of_each_table(tag):
    # 4000 values: numpy's exp, log, arctan and ** differ from libm in the
    # last bit on some of them, so a vectorised transcendental shows here
    u = np.random.default_rng(7).uniform(-5.0, 5.0, 4000)
    if tag in ("log", "sqrt"):
        u = np.abs(u)
    for order in (0, 4):
        assert_same(lambda v: taylor_coeffs(tag, v, order),
                    lambda v: per_column(partial(ref_taylor_coeffs, tag, order=order), v), u)
    assert_same(lambda v: pow_coeffs(v, 0.7, 3),
                lambda v: per_column(partial(ref_pow_coeffs, p=0.7, order=3), v), np.abs(u))


# -- the phi families -------------------------------------------------------

EXPRESSIONS = ("1 + s", "sqrt(1 + p1 * s^2)", "exp(s) + abs(s)", "1 + s^(1 + s)", "2^s",
               "1 / 2^s + s / 2^(s - s + 1)", "s^3 + cos(s) * atan(s)", "log(1 + s) + 1",
               "2^(s^2)", "abs(s) / s + 2", "1 / (s - 0.5) + s^(-2)", "p1^s * s^p1",
               "(1 + s)^(s*s*s) + sin(s)^2")

_FAMILIES = st.one_of(
    st.just(RandersPhi()),
    st.floats(-3.0, 3.0).map(RiemannSqrtPhi),
    st.tuples(st.floats(0.5, 2.0), st.floats(-0.3, 0.5), st.floats(0.1, 1.0),
              st.floats(0.5, 2.0)).map(lambda a: UnicornPhi(a[0], a[1] / a[0] ** 2,
                                                            a[2] / a[0] ** 2, a[3])),
    st.sampled_from(EXPRESSIONS).map(lambda e: CustomExprPhi(e, {"p1": 1.5}, b0=1.0)))
_S = st.one_of(st.floats(-1.2, 1.2), st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(_FAMILIES, st.lists(_S, min_size=1, max_size=8).map(np.array), _ORDERS)
def test_family_tables_are_the_column_stack(f, s, order):
    assert_same(lambda v: f.taylor(v, order),
                lambda v: per_column(partial(ref_taylor, f, order=order), v), s)
    assert_same(lambda v: f.taylor(v, order), lambda v: ref_taylor(f, v, order), float(s[0]))
    if isinstance(f, (RandersPhi, CustomExprPhi)):  # the families on the base value_many
        assert_same(f.value_many, lambda v: per_column(partial(ref_taylor, f, order=0), v)[0], s)


@pytest.mark.parametrize("text, s, order", [
    ("2^(s^2)", [0.3, 0.0, -0.2], 1),  # exponent constant in one column only
    ("s^(1 + s)", [0.5, 0.0, 0.25], 0),  # an integer exponent beside real ones
    ("(1 + s)^(s*s*s) / 2^s", [0.0, 0.4, -0.0, 0.1], 2),
    ("1 + s^(s - s + 2)", [0.3, -0.7], 3),
])
def test_columns_on_different_routes(text, s, order):
    f = CustomExprPhi(text, b0=1.0)
    assert_same(lambda v: f.taylor(v, order),
                lambda v: per_column(partial(ref_taylor, f, order=order), v), np.array(s))


@pytest.mark.parametrize("f, b", [
    (CustomExprPhi("1 + 3 * s", b0=1.0), 0.9), (CustomExprPhi("log(1 + s) + 1", b0=2.0), 1.5),
    (CustomExprPhi("1 + s + 2 * s^2", b0=2.0), 1.5), (UnicornPhi(1.0, 0.3, 0.7, 1.0), 2.0),
    (RiemannSqrtPhi(-1.0), 1.0), (RandersPhi(), 0.5)])
def test_positivity_check_names_the_first_bad_sample(f, b):
    assert_same(f.check_positivity, partial(ref_check_positivity, f), b)
