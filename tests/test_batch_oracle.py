"""A stack of directions gives, row by row, the bits of each direction alone.

``fsq_jet``, ``fundamental``, ``spray_ab``, ``spray_data``, ``berwald``,
``douglas``, ``riemann``, ``riemann_flag``, ``s_curvature_def``,
``s_curvature_formula``, ``h_curvature`` and ``curvature_bundle`` take a
``(B, n)`` stack of directions at one point and run it through batched jets.
Row b of every field must equal the field of ``y[b]`` computed alone,
exactly: the ``report`` stdout is byte-stable, and a batch that raises is
redone one direction at a time.
"""

from dataclasses import fields

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.classify import _admissible_dirs, default_directions
from finsler.errors import SingularDirectionInQuadrature
from finsler.finsler_metric import fsq_jet, fundamental
from finsler.geometry_core import beta_derivatives
from finsler.spray_curvature import (_fiber, berwald, curvature_bundle,
                                     douglas, h_curvature, landsberg,
                                     ln_sigma_gradient, riemann, riemann_flag,
                                     s_curvature_def, s_curvature_formula,
                                     spray_ab, spray_data)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _fields(obj):
    return {fl.name: getattr(obj, fl.name) for fl in fields(obj)}


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


def _point(entry, t):
    lo = np.asarray(entry.metric.chart_domain.lo, dtype=float)
    hi = np.asarray(entry.metric.chart_domain.hi, dtype=float)
    return lo + t * (hi - lo)


@pytest.mark.parametrize("name", catalog_names())
@pytest.mark.parametrize("count", [1, 3, 8])
def test_batched_fields_equal_one_direction_at_a_time(name, count):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    x = _point(entry, 0.4)
    Y = _admissible_dirs(f, beta_derivatives(m, x), default_directions(m.n, count, seed=count))
    assert len(Y)
    grad = _grad_ln_sigma(name, m, f, x)
    fd, sd = fundamental(m, f, x, Y), spray_data(m, f, x, Y)
    R = riemann(m, f, x, Y, spray=sd)
    K = riemann_flag(m, f, x, Y)[1]
    S = s_curvature_def(m, f, x, Y, grad, sd)
    fsq = fsq_jet(m, f, x, Y, 2)
    jets = {k: spray_ab(m, f, x, Y, order=k) for k in range(5)}
    (B, E), D = berwald(m, f, x, Y), douglas(m, f, x, Y)
    H = h_curvature(m, f, x, Y)
    cb = curvature_bundle(m, f, x, Y, grad)
    for b, y in enumerate(Y):
        fd1 = fundamental(m, f, x, y)
        for key, want in _fields(fd1).items():
            assert _same(getattr(fd, key)[b], want), key
        sd1 = spray_data(m, f, x, y)
        for key, want in _fields(sd1).items():
            assert _same(getattr(sd, key)[b], want), key
        B1, E1 = berwald(m, f, x, y)
        assert _same(B[b], B1) and _same(E[b], E1)
        H1 = h_curvature(m, f, x, y)
        assert _same(H[b], H1) and _same(cb.H[b], H1)
        for key in ("G", "B", "E", "D"):
            assert _same(getattr(cb, key)[b], getattr(sd1, key)), key
        assert _same(cb.L[b], landsberg(fd1, B1))
        assert _same(cb.R[b], R[b])
        assert cb.S_formula[b] == s_curvature_formula(m, f, x, y)
        assert cb.S_def[b] == S[b]
        assert _same(D[b], douglas(m, f, x, y))
        assert _same(R[b], riemann_flag(m, f, x, y)[0])
        assert _same(R[b], riemann(m, f, x, y, spray=sd1))
        if m.n == 2:
            assert K[b] == cb.K[b] == riemann_flag(m, f, x, y)[1]
        else:
            assert K is None and cb.K is None
        assert S[b] == s_curvature_def(m, f, x, y, grad, sd1)
        assert _same(fsq.coeffs[:, b], fsq_jet(m, f, x, y, 2).coeffs)
        assert _same(jets[0][b], spray_ab(m, f, x, y))
        for k in range(1, 5):
            alone = spray_ab(m, f, x, y, order=k)
            for i in range(k + 1):
                assert _same(_fiber(jets[k], i)[b], _fiber(alone, i))


@pytest.mark.parametrize("name", ["lie_group", "sphere_randers", "fish_tank"])
def test_riemann_flag_reuses_the_spray_and_fundamental_data(name):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    x = _point(entry, 0.6)
    for y in default_directions(m.n, 5, seed=1):
        sd, fd = spray_data(m, f, x, y), fundamental(m, f, x, y)
        R, K = riemann_flag(m, f, x, y)
        R3, K3 = riemann_flag(m, f, x, y, g=fd.g, R=riemann(m, f, x, y, spray=sd))
        assert np.array_equal(R, R3) and K == K3
