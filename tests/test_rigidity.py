"""The paper's rigidity claim for left-invariant Finsler surfaces, as a property.

PAPER.md: a left-invariant Finsler surface with S = 0 is Riemannian of
constant curvature.  On the affine group's chart (``lie_group``'s upper
half-plane) the left-invariant Randers metrics are a = A / x2^2 and
b = c / x2 for a constant SPD A and a constant covector c; the one-form then
has the constant length ||beta||_alpha = sqrt(c A^-1 c).
"""

import math

import numpy as np
import pytest

from finsler.catalog import get_metric
from finsler.classify import classify_metric, default_directions, default_grid
from finsler.geometry_core import MetricSpec
from finsler.phi_families import RandersPhi
from finsler.spray_curvature import curvature_bundle


def _left_invariant(draw):
    """A, c and the metric from a draw of (l11, l21, l22, nu, theta).

    A = L L^T for the lower-triangular L, and c = nu L (cos theta, sin theta),
    so that sqrt(c A^-1 c) = nu.
    """
    l11, l21, l22, nu, theta = draw
    L = np.array([[l11, 0.0], [l21, l22]])
    A = L @ L.T
    c = nu * L @ np.array([math.cos(theta), math.sin(theta)])
    m = MetricSpec(n=2, a=lambda x: A / (x[1] * x[1]), b_form=lambda x: c / x[1],
                   chart_domain=get_metric("lie_group").metric.chart_domain,
                   name="left_invariant")
    return A, c, m


def _draws(nu):
    st = pytest.importorskip("hypothesis").strategies
    return st.tuples(st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
                     nu, st.floats(0.0, 2.0 * math.pi))


def test_s_zero_only_on_riemannian_verdicts_property():
    # every draw either has S = 0 and the Riemannian verdict, or neither; a
    # non-Riemannian draw passing the S = 0 threshold would contradict the paper
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=15, deadline=None)
    @hypothesis.given(_draws(st.just(0.0) | st.floats(0.2, 0.9)))
    def check(draw):
        A, c, m = _left_invariant(draw)
        assert math.sqrt(c @ np.linalg.solve(A, c)) == pytest.approx(draw[3], abs=1e-12)
        report = classify_metric(m, RandersPhi())
        if report.predicates["s_zero"]:
            assert report.verdict == "RiemannianIsotropic", report.to_json()
        if draw[3] > 0.0:
            assert not report.predicates["s_zero"], report.to_json()

    check()


def test_riemannian_left_invariant_surface_has_constant_curvature_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=10, deadline=None)
    @hypothesis.given(_draws(st.just(0.0)))
    def check(draw):
        _, _, m = _left_invariant(draw)
        f = RandersPhi()
        assert classify_metric(m, f).verdict == "RiemannianIsotropic"
        K = np.array([curvature_bundle(m, f, x, default_directions(2, 4)).K
                      for x in default_grid(m)])
        assert np.max(np.abs(K - K[0, 0])) <= 1e-6 * abs(K[0, 0])

    check()
