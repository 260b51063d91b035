"""Fundamental tensor, Cartan torsion and the volume density."""

import math

import numpy as np
import pytest

from finsler.catalog import get_metric
from finsler.errors import SingularG, ZeroVector
from finsler.finsler_metric import finsler_eval, fsq_jet, fundamental, sigma_bh
from finsler.geometry_core import ChartDomain, MetricSpec
from finsler.phi_families import RandersPhi, RiemannSqrtPhi


def _euclid_randers(eps):
    return MetricSpec(n=2, a=lambda x: np.eye(2),
                      b_form=lambda x: np.array([eps, 0.0]),
                      chart_domain=ChartDomain((-1, -1), (1, 1)))


class TestEvaluation:
    def test_randers_value(self):
        m = _euclid_randers(0.5)
        F = finsler_eval(m, RandersPhi(), [0, 0], [3.0, 4.0])
        assert F == pytest.approx(5.0 + 0.5 * 3.0)

    def test_homogeneity(self):
        e = get_metric("lie_group")
        F1 = finsler_eval(e.metric, e.phi, [0.3, 1.2], [1.0, 0.5])
        F2 = finsler_eval(e.metric, e.phi, [0.3, 1.2], [3.0, 1.5])
        assert F2 == pytest.approx(3.0 * F1)

    def test_zero_vector_rejected(self):
        m = _euclid_randers(0.0)
        with pytest.raises(ZeroVector):
            finsler_eval(m, RandersPhi(), [0, 0], [0.0, 0.0])

    def test_vectorized_agrees_with_scalar(self):
        # fundamental's F over a stack of directions, one jet batch
        e = get_metric("sphere_randers", eps=0.5)
        x = [1.0, 0.5]
        Y = np.array([[1.0, 0.2], [-0.3, 1.0], [0.5, -0.8]])
        F = fundamental(e.metric, e.phi, x, Y).F
        for i, y in enumerate(Y):
            assert F[i] == pytest.approx(finsler_eval(e.metric, e.phi, x, y))


class TestFundamental:
    def test_riemannian_case_reduces_to_a(self):
        # phi = sqrt(1 + k s^2) gives F^2 = alpha^2 + k beta^2, a Riemannian
        # metric with g independent of y and zero Cartan torsion.
        m = _euclid_randers(0.5)
        f = RiemannSqrtPhi(2.0)
        fd1 = fundamental(m, f, [0, 0], [1.0, 0.4])
        fd2 = fundamental(m, f, [0, 0], [-0.3, 1.0])
        expected = np.eye(2) + 2.0 * np.outer([0.5, 0], [0.5, 0])
        assert np.allclose(fd1.g, expected, atol=1e-10)
        assert np.allclose(fd2.g, expected, atol=1e-10)
        assert np.abs(fd1.C).max() < 1e-10

    def test_g_reproduces_f_squared(self):
        e = get_metric("lie_group")
        x, y = [0.2, 1.5], np.array([0.8, -0.3])
        fd = fundamental(e.metric, e.phi, x, y)
        # Euler: F^2 = g_ij y^i y^j
        assert float(y @ fd.g @ y) == pytest.approx(fd.F ** 2, rel=1e-12)
        # y_low and ell are consistent
        assert np.allclose(fd.y_low, fd.g @ y)
        assert np.allclose(fd.ell, y / fd.F)

    def test_cartan_annihilates_y(self):
        e = get_metric("sphere_randers", eps=0.5)
        x, y = [1.2, 0.4], np.array([0.5, 1.0])
        fd = fundamental(e.metric, e.phi, x, y)
        assert np.abs(np.einsum("ijk,k->ij", fd.C, y)).max() < 1e-10

    def test_angular_metric_annihilates_y(self):
        e = get_metric("lie_group")
        x, y = [0.0, 1.0], np.array([1.0, 0.7])
        fd = fundamental(e.metric, e.phi, x, y)
        assert np.abs(fd.h @ y).max() < 1e-8

    def test_jet_matches_value(self):
        e = get_metric("lie_group")
        x, y = [0.1, 2.0], [0.6, 0.2]
        jet = fsq_jet(e.metric, e.phi, x, y, 2)
        assert jet.value == pytest.approx(
            finsler_eval(e.metric, e.phi, x, y) ** 2)


class TestSigma:
    def test_euclidean_density_is_one(self):
        e = get_metric("euclid")
        assert sigma_bh(e.metric, e.phi, [0.2, -0.3]) == pytest.approx(1.0, abs=1e-10)

    def test_randers_closed_form(self):
        # flat Randers: sigma = (1 - eps^2)^{(n+1)/2}
        eps = 0.5
        e = get_metric("euclid_randers", eps=eps)
        assert sigma_bh(e.metric, e.phi, [0, 0]) == pytest.approx(
            (1 - eps * eps) ** 1.5, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.96, 0.99])
    def test_randers_closed_form_near_the_cone_edge(self, eps):
        # Randers is regular on all of |s| < 1: no margin cuts these nodes
        e = get_metric("euclid_randers", eps=eps)
        assert sigma_bh(e.metric, e.phi, [0, 0]) == pytest.approx(
            (1 - eps * eps) ** 1.5, rel=1e-9)

    def test_riemannian_density_is_sqrt_det(self):
        m = MetricSpec(n=2, a=lambda x: np.diag([4.0, 9.0]),
                       b_form=lambda x: np.zeros(2),
                       chart_domain=ChartDomain((-1, -1), (1, 1)))
        f = RandersPhi()
        assert sigma_bh(m, f, [0, 0]) == pytest.approx(6.0, abs=1e-8)

    def test_3d_randers_closed_form(self):
        eps = 0.4
        m = MetricSpec(n=3, a=lambda x: np.eye(3),
                       b_form=lambda x: np.array([0.0, eps, 0.0]),
                       chart_domain=ChartDomain((-1,) * 3, (1,) * 3))
        # n = 3: sigma = (1 - eps^2)^2
        assert sigma_bh(m, RandersPhi(), [0, 0, 0]) == pytest.approx(
            (1 - eps * eps) ** 2, abs=1e-6)

    def test_unsupported_dimension(self):
        # no dimension is unsupported: sigma = sqrt(det a) (1 - |b|_alpha^2)^((n+1)/2)
        # for Randers in n = 1, 4 and 5 too, and b = 0 leaves sqrt(det a)
        for n in (1, 4, 5):
            scale = np.arange(1.0, n + 1.0)  # a = diag(scale^2): sqrt(det a) = n!
            a = np.diag(scale ** 2)
            for b_i, want in ((np.zeros(n), math.factorial(n)),
                              (0.3 * scale, math.factorial(n) * (1 - 0.09 * n) ** ((n + 1) / 2))):
                m = MetricSpec(n=n, a=lambda x, a=a: a, b_form=lambda x, b_i=b_i: b_i,
                               chart_domain=ChartDomain((-1,) * n, (1,) * n))
                assert sigma_bh(m, RandersPhi(), np.zeros(n)) == pytest.approx(want, rel=1e-14)
