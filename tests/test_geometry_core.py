"""One-form calculus: Christoffels, covariant derivative, r/s split."""

import gc
import math
import weakref

import numpy as np
import pytest

from finsler.catalog import get_metric
from finsler.classify import classify_metric
from finsler.errors import DimensionMismatch, DomainError, SingularMetric, ZeroNorm
from finsler.geometry_core import (ChartDomain, MetricSpec,
                                   _inverse_spd, beta_derivatives,
                                   beta_norm_gradient_check, christoffels)


def _euclid_spec(b=lambda x: np.zeros(2)):
    return MetricSpec(n=2, a=lambda x: np.eye(2), b_form=b,
                      chart_domain=ChartDomain((-1, -1), (1, 1)))


class TestChristoffels:
    def test_flat_metric_vanishes(self):
        gamma = christoffels(_euclid_spec(), [0.3, -0.2])
        assert np.abs(gamma).max() < 1e-10

    def test_poincare_half_plane(self):
        # a = diag(1,1)/y^2: known coefficients gamma^1_12 = -1/y,
        # gamma^2_11 = 1/y, gamma^2_22 = -1/y.
        m = MetricSpec(n=2, a=lambda x: np.eye(2) / x[1] ** 2,
                       b_form=lambda x: np.zeros(2),
                       chart_domain=ChartDomain((-2, 0.1), (2, 4)))
        y = 1.7
        g = christoffels(m, [0.4, y])
        assert g[0, 0, 1] == pytest.approx(-1 / y, abs=1e-9)
        assert g[0, 1, 0] == pytest.approx(-1 / y, abs=1e-9)
        assert g[1, 0, 0] == pytest.approx(1 / y, abs=1e-9)
        assert g[1, 1, 1] == pytest.approx(-1 / y, abs=1e-9)
        assert g[1, 0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_in_lower_indices(self):
        m = get_metric("sphere_randers", eps=0.5).metric
        g = christoffels(m, [1.2, 0.8])
        assert np.abs(g - np.transpose(g, (0, 2, 1))).max() < 1e-9


class TestBetaCalculus:
    def test_parallel_form_has_zero_derivative(self):
        bc = beta_derivatives(_euclid_spec(lambda x: np.array([0.5, 0.1])),
                              [0.2, 0.3])
        assert np.abs(bc.bij).max() < 1e-10
        assert bc.b2 == pytest.approx(0.26)

    def test_split_reconstructs_bij(self):
        bc = beta_derivatives(get_metric("lie_group").metric, [0.5, 1.5])
        assert np.abs(bc.r + bc.s - bc.bij).max() < 1e-14
        assert np.abs(bc.r - bc.r.T).max() < 1e-14
        assert np.abs(bc.s + bc.s.T).max() < 1e-14

    def test_raisings_consistent(self):
        bc = beta_derivatives(get_metric("sphere_randers", eps=0.5).metric, [0.9, 1.1])
        assert np.allclose(bc.b_up, bc.a_inv @ bc.b_i)
        assert np.allclose(bc.s_i, bc.b_up @ bc.s)
        assert np.allclose(bc.s_up, bc.a_inv @ bc.s)
        assert bc.b == pytest.approx(math.sqrt(bc.b2))

    def test_gradient_identity_on_fish_tank(self):
        m = get_metric("fish_tank").metric
        res = beta_norm_gradient_check(m, beta_derivatives(m, [0.3, 0.2]))
        assert np.abs(res).max() < 1e-8

    def test_gradient_check_zero_norm(self):
        with pytest.raises(ZeroNorm):
            m = _euclid_spec()
            beta_norm_gradient_check(m, beta_derivatives(m, [0.0, 0.0]))


class TestValidation:
    def test_singular_metric_raises(self):
        m = MetricSpec(n=2, a=lambda x: np.array([[1.0, 2.0], [2.0, 1.0]]),
                       b_form=lambda x: np.zeros(2),
                       chart_domain=ChartDomain((-1, -1), (1, 1)))
        with pytest.raises(SingularMetric):
            beta_derivatives(m, [0.0, 0.0])

    def test_shape_mismatch_raises(self):
        m = MetricSpec(n=2, a=lambda x: np.eye(3), b_form=lambda x: np.zeros(2),
                       chart_domain=ChartDomain((-1, -1), (1, 1)))
        with pytest.raises(DimensionMismatch):
            m.a_at([0.0, 0.0])

    def test_inverse_spd(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.allclose(_inverse_spd(a) @ a, np.eye(2), atol=1e-12)


class TestChartDomain:
    def test_contains_with_predicate(self):
        dom = ChartDomain((-1, -1), (1, 1),
                          predicate=lambda x: x[0] ** 2 + x[1] ** 2 < 0.5)
        assert dom.contains([0.1, 0.2])
        assert not dom.contains([0.9, 0.9])
        assert not dom.contains([2.0, 0.0])

    def test_grid_respects_margin_and_predicate(self):
        dom = ChartDomain((0, 0), (1, 1), predicate=lambda x: x[0] < 0.5)
        pts = dom.grid([5, 5], margin=0.1)
        assert all(0.1 <= p[0] <= 0.9 for p in pts)
        assert all(p[0] < 0.5 for p in pts)


def test_spec_released_when_classify_returns():
    # no cache outlives the call that filled it: once classify_metric
    # returns, nothing holds on to the metric spec
    entry = get_metric("lie_group")
    ref = weakref.ref(entry.metric)
    classify_metric(entry.metric, entry.phi)
    del entry
    gc.collect()
    assert ref() is None


def test_a_non_finite_derivative_is_refused_per_point():
    # b(x) is NaN for 0.55 < x1 < 0.65 but at x1 = 0.6 itself, so only the
    # stencils of the points at x1 = 0.6 see it; each is refused, and named
    def b_form(x):
        near = (np.abs(x[..., 0] - 0.6) < 0.05) & (x[..., 0] != 0.6)
        return np.stack([np.where(near, np.nan, 0.5), 0.0 * x[..., 1]], axis=-1)

    m = MetricSpec(n=2, a=lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)),
                   b_form=b_form, chart_domain=ChartDomain((-1, -1), (1, 1)), stacked=True)
    X = np.array([[0.6, 0.0], [0.0, 0.0], [0.6, 0.5]])
    with pytest.raises(DomainError, match=r"^d b_i / dx is not finite") as refused:
        beta_derivatives(m, X)
    assert refused.value.columns.tolist() == [True, False, True]
    with pytest.raises(DomainError, match=r"^d b_i / dx is not finite"):
        beta_derivatives(m, X[0])
    assert beta_derivatives(m, X[1]).b == 0.5
