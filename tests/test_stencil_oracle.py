"""One stencil per axis gives the bits of one stencil per component.

The reference functions below difference every tensor component with its own
scalar stencil, as the engine did before ``base_derivative`` took array
fields.  The engine must reproduce them exactly, not just closely: the
``report`` stdout is byte-stable.
"""

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.errors import EvaluationError
from finsler.finsler_metric import fsq_jet, fundamental
from finsler.geometry_core import (ChartDomain, MetricSpec, beta_derivatives,
                                   christoffels)
from finsler.spray_curvature import (berwald, h_curvature, riemann_flag,
                                     spray_ab, spray_data, spray_generic)


def _scalar_base_derivative(field, x, axis, order):
    # the scalar-only stencil, kept verbatim as the reference (order 1 only)
    x = np.asarray(x, dtype=float)
    h0 = 1e-3 * max(1.0, abs(x[axis]))

    def f(offset):
        xp = x.copy()
        xp[axis] += offset
        try:
            return float(field(xp))
        except Exception as exc:  # noqa: BLE001
            raise EvaluationError(str(exc)) from exc

    assert order == 1

    def central(h):
        return (f(h) - f(-h)) / (2.0 * h)

    d1 = central(h0)
    d2 = central(2.0 * h0)
    return (4.0 * d1 - d2) / 3.0


def ref_christoffels(m, x):
    x = np.asarray(x, dtype=float)
    a_inv = np.linalg.inv(np.linalg.cholesky(m.a_at(x)))
    a_inv = a_inv.T @ a_inv
    n = m.n
    da = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i, n):
            def comp(xp, i=i, j=j):
                return m.a_at(xp)[i, j]
            for k in range(n):
                d = _scalar_base_derivative(comp, x, k, 1)
                da[k, i, j] = d
                da[k, j, i] = d
    gamma = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for mm in range(n):
                    acc += a_inv[i, mm] * (da[j, mm, k] + da[k, mm, j] - da[mm, j, k])
                gamma[i, j, k] = 0.5 * acc
    return gamma


def ref_bij(m, x):
    x = np.asarray(x, dtype=float)
    n = m.n
    db = np.zeros((n, n))
    for i in range(n):
        def comp(xp, i=i):
            return m.b_at(xp)[i]
        for j in range(n):
            db[i, j] = _scalar_base_derivative(comp, x, j, 1)
    return db - np.einsum("k,kij->ij", m.b_at(x), ref_christoffels(m, x))


def ref_riemann(m, f, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = m.n
    jets = spray_ab(m, f, x, y, order=2)
    e = np.eye(n, dtype=int)
    G = np.array([j.value for j in jets])
    N = np.array([[jets[i].partial(tuple(e[j])) for j in range(n)]
                  for i in range(n)])
    Gyy = np.array([[[jets[i].partial(tuple(e[j] + e[k])) for k in range(n)]
                     for j in range(n)] for i in range(n)])
    Gx = np.array([[_scalar_base_derivative(
        lambda xp, i=i: spray_ab(m, f, xp, y)[i], x, k, 1)
        for k in range(n)] for i in range(n)])

    def n_field(xp, i, k):
        js = spray_ab(m, f, xp, y, order=1)
        return js[i].partial(tuple(e[k]))

    Gxy = np.array([[[_scalar_base_derivative(
        lambda xp, i=i, k=k: n_field(xp, i, k), x, j, 1)
        for k in range(n)] for j in range(n)] for i in range(n)])
    return (2.0 * Gx
            - np.einsum("j,ijk->ik", y, Gxy)
            + 2.0 * np.einsum("j,ijk->ik", G, Gyy)
            - N @ N)


def ref_spray_generic(m, f, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = m.n
    fd = fundamental(m, f, x, y)

    def dfsq_dy(xp, l):
        return fsq_jet(m, f, xp, y, 1).partial(tuple(np.eye(n, dtype=int)[l]))

    def fsq(xp):
        return fsq_jet(m, f, xp, y, 0).value

    bracket = np.zeros(n)
    for l in range(n):
        mixed = sum(
            y[k] * _scalar_base_derivative(lambda xp, l=l: dfsq_dy(xp, l), x, k, 1)
            for k in range(n))
        bracket[l] = mixed - _scalar_base_derivative(fsq, x, l, 1)
    return 0.25 * (fd.g_inv @ bracket)


def ref_h_curvature(m, f, x, y):
    # the x-stencil per component; dE/dy exact, off the order-4 spray jet
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = m.n

    def e_field(xp, yp):
        return berwald(m, f, xp, yp)[1]

    E = e_field(x, y)
    jets = spray_ab(m, f, x, y, order=1)
    e = np.eye(n, dtype=int)
    G = np.array([j.value for j in jets])
    N = np.array([[jets[i].partial(tuple(e[j])) for j in range(n)]
                  for i in range(n)])
    Ex = np.zeros((n, n, n))
    for mm in range(n):
        for i in range(n):
            for j in range(i, n):
                d = _scalar_base_derivative(
                    lambda xp: e_field(xp, y)[i, j], x, mm, 1)
                Ex[i, j, mm] = d
                Ex[j, i, mm] = d
    Ey = spray_data(m, f, x, y).E_vert
    return (np.einsum("m,ijm->ij", y, Ex)
            - 2.0 * np.einsum("k,ijk->ij", G, Ey)
            - np.einsum("kj,ki->ij", E, N)
            - np.einsum("ik,kj->ij", E, N))


def stencil_e_vert(m, f, x, y):
    """dE_jk/dy^l by a Richardson y-stencil over 4n berwald passes, step
    1e-3 max(1, |y|): the finite-difference oracle of ``E_vert``."""
    y = np.asarray(y, dtype=float)
    hy = 1e-3 * max(1.0, float(np.linalg.norm(y)))
    Ey = np.zeros((m.n,) * 3)
    for k in range(m.n):
        def e_at(t):
            yp = y.copy()
            yp[k] += t
            return berwald(m, f, x, yp)[1]
        d1 = (e_at(hy) - e_at(-hy)) / (2 * hy)
        d2 = (e_at(2 * hy) - e_at(-2 * hy)) / (4 * hy)
        Ey[:, :, k] = (4.0 * d1 - d2) / 3.0
    return Ey


def _e_vert_error(m, f, x, y):
    """|E_vert - y-stencil| over its bound 1e-8 max(1, |E_vert|), for |y| >= 1.

    The stencil's step is 1e-3 |y| only for |y| >= 1; a shorter y takes a
    relatively longer step, and the stencil's h^4 error grows by the fourth
    power of that ratio, so the bound does too.
    """
    exact = spray_data(m, f, x, y).E_vert
    err = np.abs(exact - stencil_e_vert(m, f, x, y)).max()
    step_ratio = max(1.0, 1.0 / float(np.linalg.norm(y)))
    return err / (1e-8 * max(1.0, np.abs(exact).max()) * step_ratio**4)


def _points(entry):
    """Three interior chart points: 30 %, 50 % and 70 % along the box diagonal."""
    lo = np.asarray(entry.metric.chart_domain.lo, dtype=float)
    hi = np.asarray(entry.metric.chart_domain.hi, dtype=float)
    pts = [lo + t * (hi - lo) for t in (0.3, 0.5, 0.7)]
    assert all(entry.metric.chart_domain.contains(p) for p in pts)
    return pts


def _directions(n):
    return [np.array([1.0, 0.3, -0.2][:n]), np.array([-0.4, 0.9, 0.5][:n])]


@pytest.mark.parametrize("name", catalog_names())
def test_point_tensors_bit_equal(name):
    entry = get_metric(name)
    m = entry.metric
    for x in _points(entry):
        assert np.array_equal(christoffels(m, x), ref_christoffels(m, x))
        assert np.array_equal(beta_derivatives(m, x).bij, ref_bij(m, x))


def test_christoffels_mirror_the_upper_triangle():
    # a custom a(x) symmetric only to roundoff: the upper triangle decides
    def a(x):
        off = 0.3 * x[0] * x[1]
        return np.array([[2.0 + x[0] ** 2, off], [off + 1e-14 * x[0] ** 3, 1.5]])

    m = MetricSpec(n=2, a=a, b_form=lambda x: np.zeros(2),
                   chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)))
    x = [0.4, -0.7]
    assert np.array_equal(christoffels(m, x), ref_christoffels(m, x))


@pytest.mark.parametrize("name", catalog_names())
def test_direction_tensors_bit_equal(name):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    for x in _points(entry):
        Y = np.array(_directions(m.n))
        for y, batched in zip(Y, spray_generic(m, f, x, Y)):  # rows of one batch
            assert np.array_equal(riemann_flag(m, f, x, y)[0],
                                  ref_riemann(m, f, x, y))
            want = ref_spray_generic(m, f, x, y)
            assert np.array_equal(spray_generic(m, f, x, y), want)
            assert np.array_equal(batched, want)
            assert np.array_equal(h_curvature(m, f, x, y),
                                  ref_h_curvature(m, f, x, y))
            assert _e_vert_error(m, f, x, y) <= 1.0


def test_batched_spray_generic_property():
    # random chart points and 1-8 random directions: a batch gives, row by
    # row, the bits of each direction alone (mw has |b| = 1, so F vanishes
    # in one direction)
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.sampled_from([n for n in catalog_names() if n != "mw"]),
                      st.data())
    def check(name, data):
        entry = get_metric(name)
        m, f = entry.metric, entry.phi
        lo = np.asarray(m.chart_domain.lo, dtype=float)
        hi = np.asarray(m.chart_domain.hi, dtype=float)
        t = data.draw(hnp.arrays(float, m.n, elements=st.floats(0.1, 0.9)))
        x = lo + t * (hi - lo)
        hypothesis.assume(m.chart_domain.contains(x))
        shape = (data.draw(st.integers(1, 8)), m.n)
        Y = data.draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0)))
        hypothesis.assume(np.linalg.norm(Y, axis=1).min() > 0.1)
        for row, y in zip(spray_generic(m, f, x, Y), Y):
            assert np.array_equal(row, spray_generic(m, f, x, y))

    check()


def test_e_vert_matches_the_y_stencil_property():
    # random chart points and directions: the exact dE/dy of the spray jet
    # against the finite-difference y-stencil (mw has |b| = 1, so F vanishes
    # in one direction)
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None)
    @hypothesis.given(st.sampled_from([n for n in catalog_names() if n != "mw"]),
                      st.data())
    def check(name, data):
        entry = get_metric(name)
        m, f = entry.metric, entry.phi
        lo = np.asarray(m.chart_domain.lo, dtype=float)
        hi = np.asarray(m.chart_domain.hi, dtype=float)
        t = data.draw(hnp.arrays(float, m.n, elements=st.floats(0.1, 0.9)))
        x = lo + t * (hi - lo)
        hypothesis.assume(m.chart_domain.contains(x))
        y = data.draw(hnp.arrays(float, m.n, elements=st.floats(-1.0, 1.0)))
        hypothesis.assume(np.linalg.norm(y) > 0.1)
        assert _e_vert_error(m, f, x, y) <= 1.0

    check()
