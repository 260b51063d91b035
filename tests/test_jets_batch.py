"""Property: a batch of jets is, column by column, the jets computed alone.

A ``JetScalar`` whose ``coeffs`` have shape ``(K, B)`` carries B jets.  Every
operation on it must give, in column b, exactly the coefficients (signed zeros
included) of the same operation on the lone jet of column b.
"""

import numpy as np
import pytest

from finsler.jets import MAX_ORDER, JetScalar, _tables

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

_FLOATS = st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False)


@st.composite
def _case(draw):
    n_vars = draw(st.integers(1, 3))
    order = draw(st.integers(0, 6 if n_vars == 1 else MAX_ORDER))
    width = draw(st.integers(1, 16))
    K = len(_tables(n_vars, order)[0])

    def coeffs(values):
        c = draw(hnp.arrays(float, (K, width), elements=_FLOATS))
        c[0] = values
        return c

    # constant terms kept away from 0 (and positive for real powers), so
    # division and powers are defined in every column
    pos = draw(hnp.arrays(float, width, elements=st.floats(0.25, 4.0)))
    sign = draw(hnp.arrays(float, width, elements=st.sampled_from([-1.0, 1.0])))
    return n_vars, order, coeffs(pos), coeffs(pos * sign), draw(_FLOATS)


def _columns(jet):
    return [JetScalar(jet.coeffs[:, b].copy(), jet.n_vars, jet.max_order)
            for b in range(jet.coeffs.shape[1])]


def _same(batched, alone):
    want = np.stack(alone, axis=-1)
    assert batched.shape == want.shape
    assert np.array_equal(batched, want)
    assert np.array_equal(np.signbit(batched), np.signbit(want))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_case())
def test_batched_arithmetic_equals_each_column_alone(case):
    n_vars, order, pa, pb, c = case
    a, b = JetScalar(pa, n_vars, order), JetScalar(pb, n_vars, order)
    ops = {
        "a*b": lambda u, v: u * v,
        "c*a": lambda u, v: c * u,
        "a*c": lambda u, v: u * c,
        "a+b": lambda u, v: u + v,
        "a-b": lambda u, v: u - v,
        "c-a": lambda u, v: c - u,
        "a+c": lambda u, v: u + c,
        "a/b": lambda u, v: u / v,
        "c/b": lambda u, v: c / v,
        "a/c": lambda u, v: u / (c if abs(c) > 1e-3 else 2.0),
        "-b": lambda u, v: -v,
        "b**0": lambda u, v: v ** 0,
        "b**3": lambda u, v: v ** 3,
        "b**-2": lambda u, v: v ** -2,
        "a**2.5": lambda u, v: u ** 2.5,
        "a**-0.5": lambda u, v: u ** -0.5,
    }
    for name, op in ops.items():
        got = op(a, b)
        alone = [op(u, v).coeffs for u, v in zip(_columns(a), _columns(b))]
        assert got.coeffs.shape == pa.shape, name
        _same(got.coeffs, alone)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_case(), st.data())
def test_batched_composition_and_readers_equal_each_column_alone(case, data):
    n_vars, order, pa, pb, _ = case
    a = JetScalar(pb, n_vars, order)
    width = pa.shape[1]
    series = data.draw(hnp.arrays(float, (order + 2, width), elements=_FLOATS))
    got = a.compose_series(series)
    _same(got.coeffs, [u.compose_series(series[:, b]).coeffs
                       for b, u in enumerate(_columns(a))])
    for k in range(order + 1):
        _same(np.moveaxis(a.tensor(k), 0, -1), [u.tensor(k) for u in _columns(a)])
        _same(a.truncate(k).coeffs, [u.truncate(k).coeffs for u in _columns(a)])
    if order:
        for axis in range(n_vars):
            _same(a.derivative(axis).coeffs,
                  [u.derivative(axis).coeffs for u in _columns(a)])


# -- per-column coefficients -------------------------------------------------

@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_case(), st.data())
def test_scaling_by_a_column_array_is_each_column_times_its_float(case, data):
    # jet * (B,) array and (B,) array * jet: column b has the bits of its
    # lone jet times the float c[b], signed zeros included, and no product
    # with a constant jet (whose zero coefficients would turn -0.0 into 0.0)
    n_vars, order, pa, _, _ = case
    a = JetScalar(pa, n_vars, order)
    elements = st.floats(-8.0, 8.0, allow_nan=False) | st.sampled_from([0.0, -0.0])
    c = data.draw(hnp.arrays(float, pa.shape[1], elements=elements))
    alone = [u.coeffs * float(v) for u, v in zip(_columns(a), c)]
    for got in (a * c, c * a):
        assert isinstance(got, JetScalar)
        _same(got.coeffs, alone)
    # a length-1 axis is one float for every column
    _same((a * c[:1]).coeffs, [u.coeffs * float(c[0]) for u in _columns(a)])


def test_an_array_on_the_left_defers_to_the_jet():
    # numpy hands ``ndarray op jet`` to the jet instead of building an
    # object array of per-element results
    a = JetScalar(np.array([[1.0, 2.0, -3.0], [0.5, -0.0, 1.0], [2.0, 1.0, 0.0]]), 2, 1)
    c = np.array([0.5, -2.0, 3.0])
    for got, want in ((c + a, a + c), (c - a, JetScalar.constant(c, 2, 1) - a),
                      (c * a, a * c)):
        assert type(got) is JetScalar
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(np.signbit(got.coeffs), np.signbit(want.coeffs))
    assert type(np.float64(2.0) * a) is JetScalar


def test_rmul_is_mul():
    # the benchmark's tracer counts products by rebinding __mul__ and
    # __rmul__ together, which needs them to be one function
    assert JetScalar.__rmul__ is JetScalar.__mul__
