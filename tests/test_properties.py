"""Structural invariants of every catalog metric, as properties.

Criterion 13 of ``finsler check`` tests these on ``lie_group`` at six fixed
draws.  Here ``hypothesis`` draws the catalog entry, its parameters inside
their documented ranges, an interior point of its chart and a direction, and
each invariant is held to criterion 13's tolerance times
``max(1, magnitude)``: absolute, as there, for tensors of magnitude up to 1,
and relative beyond.  Directions are scaled to F = 1, so magnitudes do not
depend on the draw's length.
"""

import math

import numpy as np
import pytest

from finsler.catalog import get_metric
from finsler.errors import SingularDirectionInQuadrature
from finsler.finsler_metric import finsler_eval, fundamental
from finsler.spray_curvature import (curvature_bundle, ln_sigma_gradient, riemann,
                                     riemann_flag)

#: criterion 13's tolerances
TOL = {"F": 1e-8, "G": 1e-8, "S_formula": 1e-8, "S_def": 1e-8, "cartan": 1e-8,
       "B_symmetry": 1e-10, "B_annihilation": 1e-7, "flag": 1e-6}


def _params(st):
    """Each catalog entry with its parameters drawn inside their ranges."""
    eps = st.floats(-0.9, 0.9)
    return st.one_of(
        *(st.tuples(st.just(name), st.just({}))
          for name in ("euclid", "lie_group", "fish_tank", "mw")),
        st.tuples(st.sampled_from(["euclid_randers", "sphere_randers"]),
                  st.fixed_dictionaries({"eps": eps})),
        st.tuples(st.just("bao_shen"), st.fixed_dictionaries(
            {"K": st.floats(1.1, 5.0), "sign": st.sampled_from([1, -1])})),
        st.tuples(st.just("proj_sphere_killing"),
                  st.fixed_dictionaries({"kappa": st.floats(0.05, 0.95)})))


def _ratio(got, want, tol, magnitude=None):
    """max|got - want| over tol * max(1, magnitude), magnitude max|want| by default."""
    scale = np.abs(want).max() if magnitude is None else magnitude
    return float(np.abs(np.asarray(got) - want).max()) / (tol * max(1.0, scale))


def invariant_ratios(m, f, x, v, lam, edge):
    """Each invariant's residual over its tolerance at one draw; all must be <= 1.

    ``v`` is the direction before scaling to F = 1, ``lam`` the homogeneity
    factor and ``edge`` the multiple of y added to the flag's transverse edge.
    """
    y = np.asarray(v) / finsler_eval(m, f, x, v)
    try:
        grad = ln_sigma_gradient(m, f, x)
    except SingularDirectionInQuadrature:  # mw: |b| = 1, sigma's unit ball is unbounded
        grad = None
    cb = curvature_bundle(m, f, x, np.array([y, lam * y]), grad)
    out = {"F": _ratio(finsler_eval(m, f, x, lam * y), lam * finsler_eval(m, f, x, y), TOL["F"]),
           "G": _ratio(cb.G[1], lam * lam * cb.G[0], TOL["G"]),
           "S_formula": _ratio(cb.S_formula[1], lam * cb.S_formula[0], TOL["S_formula"])}
    if grad is not None:
        out["S_def"] = _ratio(cb.S_def[1], lam * cb.S_def[0], TOL["S_def"])
    C, B = cb.fd.C[0], cb.B[0]
    y_size = np.abs(y).max()
    out["cartan"] = _ratio(C @ y, 0.0, TOL["cartan"], np.abs(C).max() * y_size)
    out["B_symmetry"] = max(_ratio(B, np.transpose(B, axes), TOL["B_symmetry"])
                            for axes in ((0, 2, 1, 3), (0, 1, 3, 2)))
    out["B_annihilation"] = _ratio(B @ y, 0.0, TOL["B_annihilation"], np.abs(B).max() * y_size)
    if m.n == 2:
        u = np.array([-y[1], y[0]]) + edge * y
        K = riemann_flag(m, f, x, y, u=u, g=cb.fd.g[0], R=cb.R[0])[1]
        out["flag"] = _ratio(K, cb.K[0], TOL["flag"])
    return out


def test_structural_invariants_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.floats(0.05, 0.95)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(_params(st), st.tuples(unit, unit, unit),
                      st.floats(0.0, 2.0 * math.pi), st.floats(0.0, math.pi),
                      st.floats(0.5, 2.0), st.floats(-2.0, 2.0))
    def check(entry, t, azimuth, polar, lam, edge):
        name, params = entry
        e = get_metric(name, **params)
        m, f = e.metric, e.phi
        lo, hi = (np.asarray(b, dtype=float) for b in (m.chart_domain.lo, m.chart_domain.hi))
        x = lo + np.asarray(t[:m.n]) * (hi - lo)
        assert m.chart_domain.contains(x)  # fish_tank's box lies inside its disc
        v = np.array([math.cos(azimuth), math.sin(azimuth)])
        if m.n == 3:
            v = np.array([*(math.sin(polar) * v), math.cos(polar)])
        # mw's |b| = 1 lets F vanish at y = -b: keep s = beta/alpha off the cone's edge
        hypothesis.assume(abs(m.b_at(x) @ v) < 0.9 * math.sqrt(v @ m.a_at(x) @ v))
        ratios = invariant_ratios(m, f, x, v, lam, edge)
        assert max(ratios.values()) <= 1.0, ratios

    check()


#: bound on |kappa - K| and on the residual rho below, both over F^2-scaled
#: R: 600 random draws over the whole chart read at most 4.8e-8 and 1.9e-8
#: (Richardson stencil noise), so 5e-7 leaves a factor of 10
BAO_SHEN_TOL = 5e-7


def test_bao_shen_has_constant_flag_curvature_K():
    # Bao-Shen's invariant Randers metrics on S^3 have flag curvature K in
    # every flag: R^i_k = K (F^2 delta^i_k - y^i y_k), so tr R = 2 K F^2 in 3-D
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coordinate = st.floats(-0.99, 0.99)

    # each draw takes about 10 ms: 60 examples add at most 2 s
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.floats(1.0, 5.0, exclude_min=True), st.sampled_from([1, -1]),
                      st.tuples(coordinate, coordinate, coordinate), st.integers(0, 2**32 - 1))
    def check(K, sign, x, seed):
        e = get_metric("bao_shen", K=K, sign=sign)
        x, Y = np.array(x), np.random.default_rng(seed).normal(size=(4, 3))
        R, fd = riemann(e.metric, e.phi, x, Y), fundamental(e.metric, e.phi, x, Y)
        F2 = fd.F[:, None, None] ** 2
        kappa = np.trace(R, axis1=-2, axis2=-1)[:, None, None] / (2.0 * F2)
        rho = np.abs(R - kappa * (F2 * np.eye(3) - Y[:, :, None] * fd.y_low[:, None, :])) / F2
        assert np.abs(kappa - K).max() <= BAO_SHEN_TOL, (K, sign, x)
        assert rho.max() <= BAO_SHEN_TOL, (K, sign, x)

    check()
