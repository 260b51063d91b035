"""Spray coefficients and the curvature tensors, against independent oracles."""

import math
import warnings

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.classify import default_directions, default_grid
from finsler.errors import DegenerateFlag, DimensionError, DomainError, ZeroVector
from finsler.finsler_metric import _unit_ball, fundamental
from finsler.geometry_core import beta_derivatives
from finsler.phi_families import RandersPhi
from finsler.spray_curvature import (berwald, berwald_2d_identity,
                                     curvature_bundle, douglas,
                                     douglas_2d_identity, h_curvature,
                                     landsberg, ln_sigma_gradient,
                                     riemann_flag, s_curvature_def,
                                     s_curvature_formula, spray_ab,
                                     spray_data, spray_generic)


class TestSpray:
    def test_flat_spray_vanishes(self):
        e = get_metric("euclid_randers", eps=0.5)
        G = spray_ab(e.metric, e.phi, [0.1, 0.2], [1.0, 0.5])
        assert np.abs(G).max() < 1e-12

    def test_riemannian_limit_is_alpha_spray(self):
        # eps=0 sphere metric: the Randers phi reduces to phi=1+0 and the
        # spray must equal the alpha geodesic spray.
        e = get_metric("sphere_randers", eps=0.0)
        x, y = [1.1, 0.7], np.array([0.4, 1.0])
        gamma = beta_derivatives(e.metric, x).gamma  # alpha's spray: (1/2) gamma^i_jk y^j y^k
        assert np.allclose(spray_ab(e.metric, e.phi, x, y),
                           0.5 * np.einsum("ijk,j,k->i", gamma, y, y), atol=1e-10)

    @pytest.mark.parametrize("name,kw", [("lie_group", {}),
                                         ("sphere_randers", {"eps": 0.5}),
                                         ("fish_tank", {})])
    def test_two_routes_agree(self, name, kw):
        e = get_metric(name, **kw)
        x = [0.4, 1.1] if name == "lie_group" else [0.35, 0.2]
        for y in ([1.0, 0.3], [-0.4, 0.9]):
            ga = spray_ab(e.metric, e.phi, x, y)
            gg = spray_generic(e.metric, e.phi, x, y)
            assert np.abs(ga - gg).max() < 1e-7 * max(1, np.abs(ga).max())

    def test_positive_homogeneity_degree_two(self):
        e = get_metric("lie_group")
        x, y = [0.2, 0.9], np.array([0.8, 0.5])
        G1 = spray_ab(e.metric, e.phi, x, y)
        G2 = spray_ab(e.metric, e.phi, x, 2.5 * y)
        assert np.allclose(G2, 2.5 ** 2 * G1, rtol=1e-10)

    def test_spray_data_fields(self):
        e = get_metric("lie_group")
        sd = spray_data(e.metric, e.phi, [0.0, 1.0], [1.0, 0.4])
        # N^i_j y^j = 2 G^i (Euler, G is 2-homogeneous)
        assert np.allclose(sd.N @ [1.0, 0.4], 2.0 * sd.G, atol=1e-10)
        # G_jk y^j y^k = 2 G^i as well
        assert np.allclose(np.einsum("ijk,j,k->i", sd.G_jk, [1.0, 0.4], [1.0, 0.4]),
                           2.0 * sd.G, atol=1e-10)


    def test_zero_direction_is_a_domain_error(self):
        e = get_metric("lie_group")
        with pytest.raises(ZeroVector):
            spray_ab(e.metric, e.phi, [0.0, 1.0], [0.0, 0.0])
        assert issubclass(ZeroVector, DomainError)


class TestBerwaldFamily:
    def test_flat_randers_is_berwald(self):
        e = get_metric("euclid_randers", eps=0.5)
        B, E = berwald(e.metric, e.phi, [0.0, 0.0], [1.0, 0.3])
        assert np.abs(B).max() < 1e-12
        assert np.abs(E).max() < 1e-12

    def test_berwald_symmetry_and_annihilation(self):
        e = get_metric("lie_group")
        y = np.array([1.0, 0.6])
        B, E = berwald(e.metric, e.phi, [0.3, 1.4], y)
        assert np.allclose(B, np.transpose(B, (0, 2, 1, 3)))
        assert np.allclose(B, np.transpose(B, (0, 1, 3, 2)))
        assert np.abs(np.einsum("ijkl,l->ijk", B, y)).max() < 1e-9
        assert np.allclose(E, E.T)

    def test_spray_data_berwald_consistent(self):
        e = get_metric("lie_group")
        x, y = [0.1, 1.0], [0.9, -0.2]
        B1, E1 = berwald(e.metric, e.phi, x, y)
        sd = spray_data(e.metric, e.phi, x, y)
        B2, E2, E_vert = sd.B, sd.E, sd.E_vert
        assert np.allclose(B1, B2, atol=1e-12)
        assert np.allclose(E1, E2, atol=1e-12)
        # E_{jk,l} is totally symmetric and annihilated twice by y (E is
        # 0-homogeneous of degree... E_jk is (-1)-homogeneous contracted)
        assert np.allclose(E_vert, np.transpose(E_vert, (1, 0, 2)), atol=1e-12)

    def test_landsberg_zero_for_riemannian(self):
        e = get_metric("sphere_randers", eps=0.0)
        x, y = [1.0, 0.3], [0.7, 0.7]
        fd = fundamental(e.metric, e.phi, x, y)
        B, _ = berwald(e.metric, e.phi, x, y)
        assert np.abs(landsberg(fd, B)).max() < 1e-9

    def test_douglas_projective_trace_free(self):
        # D^i_jkl contracted on i=j vanishes identically.
        e = get_metric("lie_group")
        D = douglas(e.metric, e.phi, [0.5, 1.2], [1.0, 0.4])
        assert np.abs(np.einsum("iikl->kl", D)).max() < 1e-9


class TestSurfaceIdentities:
    @pytest.mark.parametrize("name,kw,x", [("lie_group", {}, [0.0, 1.0]),
                                           ("sphere_randers", {"eps": 0.5}, [1.0, 0.8])])
    def test_decompositions(self, name, kw, x):
        e = get_metric(name, **kw)
        y = [1.0, 0.45]
        cb = curvature_bundle(e.metric, e.phi, x, y)
        assert np.abs(douglas_2d_identity(cb)).max() < 1e-8
        assert np.abs(berwald_2d_identity(cb)).max() < 1e-8

    def test_dimension_guard(self):
        e = get_metric("bao_shen", K=2.0)
        with pytest.raises(DimensionError):
            douglas_2d_identity(curvature_bundle(e.metric, e.phi, [0.1, 0.1, 0.1],
                                                 [1, 0, 0]))
        with pytest.raises(DimensionError):
            berwald_2d_identity(curvature_bundle(e.metric, e.phi, [0.1, 0.1, 0.1],
                                                 [1, 0, 0]))


class TestRiemannFlag:
    def test_beltrami_sphere_has_constant_flag_one(self):
        e = get_metric("sphere_randers", eps=0.0)
        for x in ([0.5, 1.0], [1.5, 2.0]):
            for y in ([1.0, 0.2], [0.1, 1.0]):
                _, K = riemann_flag(e.metric, e.phi, x, y)
                assert K == pytest.approx(1.0, abs=1e-7)

    def test_flat_metric_has_zero_riemann(self):
        e = get_metric("euclid_randers", eps=0.5)
        R, K = riemann_flag(e.metric, e.phi, [0, 0], [1.0, 0.3])
        assert np.abs(R).max() < 1e-9
        assert K == pytest.approx(0.0, abs=1e-9)

    def test_flag_independent_of_transverse_edge(self):
        e = get_metric("lie_group")
        x, y = [0.0, 1.0], np.array([1.0, 0.3])
        u1 = np.array([-0.3, 1.0])
        u2 = u1 + 1.7 * y
        _, K1 = riemann_flag(e.metric, e.phi, x, y, u=u1)
        _, K2 = riemann_flag(e.metric, e.phi, x, y, u=u2)
        assert K1 == pytest.approx(K2, abs=1e-8)
        # and of the flagpole's length: the flag is judged degenerate
        # relative to g(y,y) g(u,u), so a short y is refused only with a u
        # parallel to it
        x, y = [0.3, 1.2], np.array([0.6, 0.8])
        _, K = riemann_flag(e.metric, e.phi, x, y)
        assert K == pytest.approx(0.0021880016781356, rel=1e-12)
        for scale in (1e-4, 1e-6, 1e3):
            assert riemann_flag(e.metric, e.phi, x, scale * y)[1] == pytest.approx(K, rel=1e-10)
        with pytest.raises(DegenerateFlag):
            riemann_flag(e.metric, e.phi, x, 1e-4 * y, u=-2.0 * y)

    def test_riemann_annihilates_y(self):
        e = get_metric("lie_group")
        y = np.array([0.8, 0.5])
        R, _ = riemann_flag(e.metric, e.phi, [0.4, 1.3], y)
        assert np.abs(R @ y).max() < 1e-6


class TestSCurvature:
    def test_flat_randers_s_zero_both_routes(self):
        e = get_metric("euclid_randers", eps=0.5)
        x, y = [0.0, 0.0], [1.0, 0.4]
        assert s_curvature_def(e.metric, e.phi, x, y) == pytest.approx(0.0, abs=1e-9)
        assert s_curvature_formula(e.metric, e.phi, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_routes_agree_on_constant_length_metric(self):
        e = get_metric("lie_group")
        x, y = [0.0, 1.0], [1.0, 0.0]
        sd = s_curvature_def(e.metric, e.phi, x, y)
        sf = s_curvature_formula(e.metric, e.phi, x, y)
        assert sd == pytest.approx(sf, rel=1e-6)
        assert abs(sd) > 0.01

    @pytest.mark.parametrize("name", [n for n in catalog_names() if n != "mw"])
    def test_formula_matches_definition_on_every_metric(self, name):
        # fish_tank and sphere_randers have a one-form of varying length, so
        # only the Busemann-Hausdorff f(b) that S_def differentiates agrees
        # there (a Holmes-Thompson f(b) is off by 5.2 and 0.165); mw has
        # |b| = 1 and no sigma
        e = get_metric(name)
        m, f = e.metric, e.phi
        for x in default_grid(m, 3)[:6]:
            Y = default_directions(m.n, 4)
            sd = s_curvature_def(m, f, x, Y, ln_sigma_gradient(m, f, x))
            sf = [s_curvature_formula(m, f, x, y) for y in Y]
            assert np.abs(sd - sf).max() <= 1e-6

    @pytest.mark.parametrize("n", [2, 3])
    def test_density_is_the_randers_closed_form(self, n):
        # Randers: f(b) = (1 - b^2)^((n+1)/2), so d ln f / db = -(n+1) b / (1 - b^2)
        for b in np.linspace(0.1, 0.97, 12):
            want = -(n + 1) * b / (1.0 - b * b)
            assert _unit_ball(RandersPhi(), float(b), n)[1] == pytest.approx(want, rel=1e-14)

    def test_formula_is_finite_where_beta_vanishes(self):
        e = get_metric("fish_tank")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            S = s_curvature_formula(e.metric, e.phi, [0.0, 0.0], [1.0, 0.4])
        assert S == pytest.approx(0.0, abs=1e-12)  # fish_tank has S = 0

    def test_s_is_one_homogeneous(self):
        e = get_metric("lie_group")
        x, y = [0.0, 1.0], np.array([1.0, 0.2])
        s1 = s_curvature_formula(e.metric, e.phi, x, y)
        s2 = s_curvature_formula(e.metric, e.phi, x, 3.0 * y)
        assert s2 == pytest.approx(3.0 * s1, rel=1e-10)


class TestHCurvature:
    def test_vanishes_when_e_vanishes(self):
        e = get_metric("euclid_randers", eps=0.5)
        H = h_curvature(e.metric, e.phi, [0.0, 0.0], [1.0, 0.4])
        assert np.abs(H).max() < 1e-9

    def test_symmetric(self):
        e = get_metric("lie_group")
        H = h_curvature(e.metric, e.phi, [0.0, 1.0], [1.0, 0.4])
        assert np.allclose(H, H.T, atol=1e-6)

    @pytest.mark.parametrize("name", ["lie_group", "bao_shen"])
    def test_one_spray_jet_and_an_x_stencil(self, name, monkeypatch):
        # dE/dy comes off the spray jet: only the x-stencil calls berwald,
        # once, on the 4 stencil points of each of the n axes as one stack
        import finsler.spray_curvature as sc
        calls = {"berwald": 0, "spray_data": 0}
        stacks = []

        def counting(fn):
            def wrapped(*args):
                calls[fn.__name__] += 1
                stacks.append(np.shape(args[2]))
                return fn(*args)
            return wrapped

        for fn in (sc.berwald, sc.spray_data):
            monkeypatch.setattr(sc, fn.__name__, counting(fn))
        e = get_metric(name)
        x = default_grid(e.metric, 2)[0]
        h_curvature(e.metric, e.phi, x, default_directions(e.metric.n, 1)[0])
        assert calls == {"berwald": 1, "spray_data": 1}
        assert (4 * e.metric.n, e.metric.n) in stacks


class TestBundle:
    def test_r_and_k_have_the_bits_of_riemann_flag(self):
        # the bundle hands its spray and fundamental data to riemann_flag
        for name in ("lie_group", "sphere_randers", "fish_tank"):
            e = get_metric(name)
            x = default_grid(e.metric)[2]
            for y in default_directions(2, 3, seed=2):
                cb = curvature_bundle(e.metric, e.phi, x, y)
                R, K = riemann_flag(e.metric, e.phi, x, y)
                assert np.array_equal(cb.R, R) and cb.K == K

    def test_bundle_consistency(self):
        e = get_metric("lie_group")
        cb = curvature_bundle(e.metric, e.phi, [0.0, 1.0], [1.0, 0.3])
        assert cb.S_def == pytest.approx(cb.S_formula, rel=1e-6)
        assert cb.K is not None
        assert cb.H is not None
        assert cb.B.shape == (2, 2, 2, 2)
        # with owner, the fiber fields pair each direction with its point, and
        # the fields computed at one x raise typed, not with every point
        # against every direction (R, H), zipped pairs (K) or a numpy error
        x, y = np.array([[0.3, 1.2], [0.5, 2.0]]), default_directions(2, 4)
        owner = np.array([0, 0, 1, 1])
        pairs = curvature_bundle(e.metric, e.phi, x, y, bc=beta_derivatives(e.metric, x),
                                 owner=owner)
        for j, k in enumerate(owner):
            alone = curvature_bundle(e.metric, e.phi, x[k], y[j])
            assert np.array_equal(pairs.L[j], alone.L)
        for field in ("R", "H", "K", "S_formula"):
            with pytest.raises(DomainError, match=rf"^{field} is computed at one x: .* owner"):
                getattr(pairs, field)

    def test_tensors_share_one_spray_jet_and_fundamental_data(self, monkeypatch):
        # every field is computed on first read: H alone builds one spray
        # jet, and reading every field after it builds no other
        import finsler.spray_curvature as sc
        calls = {"spray_data": 0, "fundamental": 0}

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapped

        for fn in (sc.spray_data, sc.fundamental):
            monkeypatch.setattr(sc, fn.__name__, counting(fn))
        e = get_metric("lie_group")
        cb = curvature_bundle(e.metric, e.phi, [0.0, 1.0], [1.0, 0.3])
        cb.H
        assert calls == {"spray_data": 1, "fundamental": 0}
        for name in ("fd", "spray", "G", "B", "E", "D", "L", "R", "K",
                     "S_formula", "S_def", "H"):
            getattr(cb, name)
        assert calls == {"spray_data": 1, "fundamental": 1}

    def test_no_flag_curvature_off_surfaces(self, monkeypatch):
        import finsler.spray_curvature as sc
        monkeypatch.setattr(sc, "riemann", None)  # K must not compute R
        e = get_metric("bao_shen")
        assert curvature_bundle(e.metric, e.phi, [0.1, 0.2, 0.3],
                                [1.0, 0.3, -0.2]).K is None
