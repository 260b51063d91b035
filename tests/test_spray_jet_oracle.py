"""One order-4 spray jet per sample gives the bits of one jet per tensor.

The reference functions below read every partial derivative with its own
``partial`` call, off a jet of the order each tensor needs, as the engine did
before ``JetScalar.tensor`` and ``spray_data``.  The engine must reproduce
them exactly, not just closely: the ``report`` stdout is byte-stable.
"""

import itertools
import math

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.classify import default_grid
from finsler.errors import DomainError, SingularDirectionInQuadrature
from finsler.finsler_metric import fsq_jet, fundamental
from finsler.jets import MAX_ORDER, jet_variable
from finsler.spray_curvature import (_fiber, berwald, douglas, ln_sigma_gradient,
                                     s_curvature_def, spray_ab, spray_data)


def ref_spray_fiber(m, f, x, y, order):
    n = m.n
    jets = spray_ab(m, f, x, y, order=order)
    e = np.eye(n, dtype=int)
    G = np.array([j.value for j in jets])
    N = np.array([[jets[i].partial(tuple(e[j])) for j in range(n)]
                  for i in range(n)])
    if order == 1:
        return G, N
    Gyy = np.array([[[jets[i].partial(tuple(e[j] + e[k])) for k in range(n)]
                     for j in range(n)] for i in range(n)])
    return G, N, Gyy


def ref_berwald(m, f, x, y):
    n = m.n
    jets = spray_ab(m, f, x, y, order=3)
    e = np.eye(n, dtype=int)
    B = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                for l in range(k, n):
                    v = jets[i].partial(tuple(e[j] + e[k] + e[l]))
                    for p in {(j, k, l), (j, l, k), (k, j, l),
                              (k, l, j), (l, j, k), (l, k, j)}:
                        B[(i, *p)] = v
    E = 0.5 * np.einsum("mmij->ij", B)
    return B, E


def ref_berwald_full(m, f, x, y):
    n = m.n
    jets = spray_ab(m, f, x, y, order=4)
    e = np.eye(n, dtype=int)
    B = np.zeros((n, n, n, n))
    E_vert = np.zeros((n, n, n))
    for j in range(n):
        for k in range(n):
            for l in range(n):
                for i in range(n):
                    B[i, j, k, l] = jets[i].partial(tuple(e[j] + e[k] + e[l]))
                E_vert[j, k, l] = 0.5 * sum(
                    jets[mm].partial(tuple(e[mm] + e[j] + e[k] + e[l]))
                    for mm in range(n))
    E = 0.5 * np.einsum("mmij->ij", B)
    return B, E, E_vert


def ref_douglas(m, f, x, y):
    n = m.n
    jets = spray_ab(m, f, x, y, order=4)
    trace = jets[0].derivative(0)
    for i in range(1, n):
        trace = trace + jets[i].derivative(i)
    yj3 = [jet_variable(i, float(np.asarray(y, dtype=float)[i]), n, 3)
           for i in range(n)]
    e = np.eye(n, dtype=int)
    D = np.zeros((n, n, n, n))
    for i in range(n):
        proj = jets[i].truncate(3) - (1.0 / (n + 1)) * trace * yj3[i]
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    D[i, j, k, l] = proj.partial(tuple(e[j] + e[k] + e[l]))
    return D


def ref_fundamental(m, f, x, y):
    n = m.n
    jet = fsq_jet(m, f, x, y, 3)
    g = np.zeros((n, n))
    C = np.zeros((n, n, n))
    e = np.eye(n, dtype=int)
    for i in range(n):
        for j in range(n):
            g[i, j] = 0.5 * jet.partial(tuple(e[i] + e[j]))
            for k in range(n):
                C[i, j, k] = 0.25 * jet.partial(tuple(e[i] + e[j] + e[k]))
    return g, C


def ref_s_curvature_def(m, f, x, y, grad_ln_sigma):
    n = m.n
    jets = spray_ab(m, f, x, y, order=1)
    e = np.eye(n, dtype=int)
    div = sum(jets[i].partial(tuple(e[i])) for i in range(n))
    return div - float(np.asarray(y, dtype=float) @ grad_ln_sigma)


def _grad_ln_sigma(name, m, f, x):
    """The ln sigma gradient S_def is compared at.

    ``mw`` has |b| = 1, so its unit ball is unbounded and sigma refuses with
    a typed error; there S_def is compared at a fixed gradient instead.
    """
    if name != "mw":
        return ln_sigma_gradient(m, f, x)
    with pytest.raises(SingularDirectionInQuadrature, match="F <= 0 at 1 quadrature node"):
        ln_sigma_gradient(m, f, x)
    return np.array([0.5, -0.25])


def _points(entry):
    """Two interior chart points: 35 % and 65 % along the box diagonal."""
    lo = np.asarray(entry.metric.chart_domain.lo, dtype=float)
    hi = np.asarray(entry.metric.chart_domain.hi, dtype=float)
    pts = [lo + t * (hi - lo) for t in (0.35, 0.65)]
    assert all(entry.metric.chart_domain.contains(p) for p in pts)
    return pts


def _directions(n):
    return [np.array([1.0, 0.3, -0.2][:n]), np.array([-0.4, 0.9, 0.5][:n]),
            np.array([0.2, -0.7, 0.6][:n])]


@pytest.mark.parametrize("name", catalog_names())
def test_spray_data_bit_equal(name):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    for x in _points(entry):
        grad = _grad_ln_sigma(name, m, f, x)
        for y in _directions(m.n):
            sd = spray_data(m, f, x, y)
            G, N, Gyy = ref_spray_fiber(m, f, x, y, 2)
            B, E, E_vert = ref_berwald_full(m, f, x, y)
            D = ref_douglas(m, f, x, y)
            for got, want in ((sd.G, G), (sd.N, N), (sd.G_jk, Gyy),
                              (sd.B, B), (sd.E, E), (sd.E_vert, E_vert),
                              (sd.D, D)):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
            # the order-3 and order-4 readers agree with each other too
            assert all(np.array_equal(a, b) for a, b in
                       zip(berwald(m, f, x, y), ref_berwald(m, f, x, y)))
            assert np.array_equal(sd.B, ref_berwald(m, f, x, y)[0])
            assert np.array_equal(douglas(m, f, x, y), D)
            fd = fundamental(m, f, x, y)
            g, C = ref_fundamental(m, f, x, y)
            assert np.array_equal(fd.g, g) and np.array_equal(fd.C, C)
            want_s = ref_s_curvature_def(m, f, x, y, grad)
            for got_s in (s_curvature_def(m, f, x, y, grad),
                          s_curvature_def(m, f, x, y, grad, spray=sd)):
                assert type(got_s) is float
                assert got_s == want_s


@pytest.mark.parametrize("name", catalog_names())
def test_lower_order_spray_jets_have_the_order_4_bits(name):
    # riemann and s_curvature_def read G, N and d^2 G off spray_data's
    # order-4 jet, while riemann's stencil (order 1), berwald (order 3) and
    # spray_ab's plain G (order 0) read their own: bit for bit, zeros signed
    # alike, the same tensors
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    Y = np.array(_directions(m.n))
    for x in default_grid(m, 3):
        for y in (Y, Y[1]):
            sd = spray_data(m, f, x, y)
            want = (sd.G, sd.N, sd.G_jk, sd.B)
            assert _bits(spray_ab(m, f, x, y)) == _bits(sd.G)
            for order in (1, 2, 3):
                jets = spray_ab(m, f, x, y, order=order)
                for k in range(order + 1):
                    assert _bits(_fiber(jets, k)) == _bits(want[k])


def _bits(T):
    return T.shape, T.tobytes()


def test_s_curvature_def_without_gradient_is_a_float():
    e = get_metric("lie_group")
    s = s_curvature_def(e.metric, e.phi, [0.0, 1.0], [1.0, 0.0])
    assert type(s) is float and abs(s) > 0.01


@pytest.mark.parametrize("n_vars,max_order", [(2, 4), (3, 4), (3, 2), (1, 7)])
def test_tensor_matches_partial(n_vars, max_order):
    rng = np.random.default_rng(n_vars * 10 + max_order)
    ys = [jet_variable(i, v, n_vars, max_order)
          for i, v in enumerate(rng.uniform(0.5, 1.5, n_vars))]
    jet = ys[0] ** 3
    for v in ys[1:]:
        jet = jet * (v + 0.5) ** 0.5 - v
    for k in range(max_order + 1):
        T = jet.tensor(k)
        assert T.shape == (n_vars,) * k
        for axes in itertools.product(range(n_vars), repeat=k):
            multi = [axes.count(a) for a in range(n_vars)]
            assert T[axes] == jet.partial(multi)


@pytest.mark.parametrize("k", [-1, 3, MAX_ORDER + 1])
def test_tensor_beyond_the_jet_order_is_a_domain_error(k):
    jet = jet_variable(0, 0.5, 2, 2) * jet_variable(1, 1.5, 2, 2)
    with pytest.raises(DomainError):
        jet.tensor(k)


def test_spray_data_uses_one_spray_jet(monkeypatch):
    import finsler.spray_curvature as sc
    calls = []
    real = sc.spray_ab

    def counting(*args, **kwargs):
        calls.append(kwargs.get("order", 0))
        return real(*args, **kwargs)

    monkeypatch.setattr(sc, "spray_ab", counting)
    e = get_metric("bao_shen")
    sd = sc.spray_data(e.metric, e.phi, [0.1, 0.2, 0.3], [1.0, 0.3, -0.2])
    assert calls == [4]
    assert math.isfinite(float(np.abs(sd.D).max()))
