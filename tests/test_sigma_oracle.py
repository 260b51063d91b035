"""Cached sigma nodes, the einsum-free alpha^2 and the f(b) memo keep the bits.

The reference functions below are ``sigma_bh`` and ``finsler_eval_many`` as
they were before the quadrature nodes were cached: the grid is rebuilt on
every call and alpha^2 comes from a three-operand ``einsum``.  The engine must
reproduce them exactly, not just closely: the ``report`` stdout is
byte-stable.
"""

import math

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.errors import SingularDirectionInQuadrature
from finsler.finsler_metric import _polar_nodes, finsler_eval_many, sigma_bh
from finsler.geometry_core import ChartDomain, MetricSpec
from finsler.phi_families import CustomExprPhi, RandersPhi, UnicornPhi
from finsler.quadrature import simpson_weights
from finsler.spray_curvature import _angular_density

_UNIT_BALL_VOLUME = {2: math.pi, 3: 4.0 * math.pi / 3.0}


def ref_finsler_eval_many(m, f, x, Y):
    Y = np.asarray(Y, dtype=float)
    a = m.a_at(x)
    b = m.b_at(x)
    alpha = np.sqrt(np.einsum("ki,ij,kj->k", Y, a, Y))
    s = (Y @ b) / alpha
    return alpha * f.value_many(s), s


def _ref_radii(m, f, x, dirs, step_shift):
    F, s = ref_finsler_eval_many(m, f, x, dirs)
    half = f.b0 * (1.0 - f.delta)
    bad = (~np.isfinite(F)) | (F <= 0.0) | (np.abs(s) > half)
    shifted = bool(np.any(bad))
    if shifted:
        dirs2 = dirs.copy()
        dirs2[bad] = step_shift(dirs[bad])
        F2, s2 = ref_finsler_eval_many(m, f, x, dirs2)
        still = (~np.isfinite(F2)) | (F2 <= 0.0) | (np.abs(s2) > half)
        if np.any(still):
            raise SingularDirectionInQuadrature(
                f"{int(np.sum(still))} quadrature nodes persistently singular")
        F = np.where(bad, F2, F)
    return 1.0 / F, shifted


def ref_sigma_bh(m, f, x):
    """(sigma, shifted), with the grid rebuilt on every call."""
    n = m.n
    if n == 2:
        n_int = 2048
        theta = np.linspace(0.0, 2.0 * math.pi, n_int + 1)
        h = theta[1] - theta[0]
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])

        def shift(sub):
            ang = np.arctan2(sub[:, 1], sub[:, 0]) + 0.5 * h
            return np.column_stack([np.cos(ang), np.sin(ang)])

        r, shifted = _ref_radii(m, f, x, dirs, shift)
        area = 0.5 * h * float(np.dot(simpson_weights(n_int), r * r))
        return _UNIT_BALL_VOLUME[2] / area, shifted
    nt, np_ = 128, 256
    theta = np.linspace(0.0, math.pi, nt + 1)
    phi = np.linspace(0.0, 2.0 * math.pi, np_ + 1)
    ht, hp = theta[1] - theta[0], phi[1] - phi[0]
    T, P = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.column_stack([
        (np.sin(T) * np.cos(P)).ravel(),
        (np.sin(T) * np.sin(P)).ravel(),
        np.cos(T).ravel(),
    ])

    def shift(sub):
        c, s_ = math.cos(0.5 * hp), math.sin(0.5 * hp)
        rot = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])
        return sub @ rot.T

    r, shifted = _ref_radii(m, f, x, dirs, shift)
    integrand = (r.reshape(nt + 1, np_ + 1) ** 3) * np.sin(T) / 3.0
    wt = simpson_weights(nt) * ht
    wp = simpson_weights(np_) * hp
    vol = float(wt @ integrand @ wp)
    return _UNIT_BALL_VOLUME[3] / vol, shifted


def _points(entry):
    """Three interior chart points: 30 %, 50 % and 70 % along the box diagonal."""
    lo = np.asarray(entry.metric.chart_domain.lo, dtype=float)
    hi = np.asarray(entry.metric.chart_domain.hi, dtype=float)
    pts = [lo + t * (hi - lo) for t in (0.3, 0.5, 0.7)]
    assert all(entry.metric.chart_domain.contains(p) for p in pts)
    return pts


@pytest.mark.parametrize("name", catalog_names())
def test_sigma_bit_equal_on_catalog(name):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    for x in _points(entry):
        assert sigma_bh(m, f, x, with_flag=True) == ref_sigma_bh(m, f, x)


@pytest.mark.parametrize("name", catalog_names())
def test_alpha_sum_bit_equal_to_einsum(name):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    rng = np.random.default_rng(7)
    Y = rng.normal(size=(257, m.n))
    for x in _points(entry):
        got = finsler_eval_many(m, f, x, Y)
        want = ref_finsler_eval_many(m, f, x, Y)
        assert np.array_equal(got[0], want[0], equal_nan=True)
        assert np.array_equal(got[1], want[1], equal_nan=True)


def _edge_metric(n):
    """|beta| just past the admissible half-width, so only the nodes at
    azimuth 0 (and 2 pi) are singular and a half-step shift cures them."""
    f = CustomExprPhi("1 + 0.2*s", b0=1.0, delta=0.05)
    half = f.b0 * (1.0 - f.delta)
    step = _polar_nodes(n)[0]
    bx = half / math.cos(0.25 * step)
    m = MetricSpec(n=n, a=lambda x: np.eye(n),
                   b_form=lambda x: np.array([bx] + [0.0] * (n - 1)),
                   chart_domain=ChartDomain((-1.0,) * n, (1.0,) * n))
    return m, f


@pytest.mark.parametrize("n", [2, 3])
def test_shifted_nodes_bit_equal(n):
    m, f = _edge_metric(n)
    x = np.zeros(n)
    got = sigma_bh(m, f, x, with_flag=True)
    assert got[1] is True
    assert got == ref_sigma_bh(m, f, x)


@pytest.mark.parametrize("n", [2, 3])
def test_cached_nodes_are_read_only(n):
    _, arrays = _polar_nodes(n)
    assert _polar_nodes(n)[1][0] is arrays[0]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("f, b, n", [
    (RandersPhi(), 0.3, 2),
    (get_metric("bao_shen").phi, 0.4, 3),
    (UnicornPhi(1.0, 0.5, 1.0, 1.0), 0.6, 3),
])
def test_angular_density_memo_equals_uncached(f, b, n):
    want = _angular_density.__wrapped__(f, b, n)
    assert _angular_density(f, b, n) == want
    assert _angular_density(f, b, n) == want  # a hit returns the same value
