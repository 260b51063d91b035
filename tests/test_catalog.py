"""Catalog entries and the Zermelo navigation converter."""

import dataclasses
import math

import numpy as np
import pytest

from finsler.catalog import (ZermeloData, catalog_names, get_metric,
                             zermelo_metric_spec, zermelo_to_randers)
from finsler.errors import FastWind, ParamOutOfRange, UnknownName
from finsler.finsler_metric import finsler_eval
from finsler.geometry_core import ChartDomain, _inverse_spd, beta_derivatives
from finsler.phi_families import RandersPhi


class TestEntries:
    def test_names(self):
        assert "lie_group" in catalog_names()
        assert "fish_tank" in catalog_names()
        with pytest.raises(UnknownName):
            get_metric("nope")

    def test_lie_group_components(self):
        m = get_metric("lie_group").metric
        assert np.allclose(m.a_at([0.0, 1.0]), [[2, 1], [1, 2]])
        assert np.allclose(m.b_at([0.0, 1.0]), [1, 1])
        # inverse components: a^11 = (2/3) y^2
        a_inv = _inverse_spd(m.a_at([0.0, 2.0]))
        assert a_inv[0, 0] == pytest.approx(2.0 / 3.0 * 4.0)

    def test_fish_tank_norm_and_origin(self):
        m = get_metric("fish_tank").metric
        assert beta_derivatives(m, [0.3, 0.4]).b == pytest.approx(0.5, abs=1e-10)
        # degenerates gracefully at the origin: beta = 0, alpha Euclidean
        assert np.allclose(m.a_at([0.0, 0.0]), np.eye(2))
        assert np.allclose(m.b_at([0.0, 0.0]), 0.0)
        assert m.chart_domain.contains([0.3, 0.3])
        assert not m.chart_domain.contains([0.7, 0.7])

    def test_param_ranges(self):
        with pytest.raises(ParamOutOfRange):
            get_metric("euclid_randers", eps=1.0)
        with pytest.raises(ParamOutOfRange):
            get_metric("sphere_randers", eps=-1.2)
        with pytest.raises(ParamOutOfRange):
            get_metric("bao_shen", K=1.0)
        with pytest.raises(ParamOutOfRange):
            get_metric("proj_sphere_killing", kappa=1.5)

    def test_an_int_past_the_str_digit_limit_is_out_of_range(self):
        # its repr raised a bare ValueError inside the ParamOutOfRange message
        with pytest.raises(ParamOutOfRange, match="got an int of about 5001 digits$"):
            get_metric("euclid_randers", eps=10**5000)

    def test_sphere_randers_eps_zero_is_riemannian(self):
        m = get_metric("sphere_randers", eps=0.0).metric
        assert np.abs(m.b_at([1.0, 0.5])).max() == 0.0

    def test_bao_shen_norm_both_signs(self):
        for sign in (+1, -1):
            m = get_metric("bao_shen", K=3.0, sign=sign).metric
            b = beta_derivatives(m, [0.2, -0.4, 0.7]).b
            assert b == pytest.approx(math.sqrt(1 - 1 / 3.0), abs=1e-10)

    def test_proj_sphere_killing_norm(self):
        m = get_metric("proj_sphere_killing", kappa=0.3).metric
        assert beta_derivatives(m, [0.5, -0.2, 0.8]).b == pytest.approx(0.3, abs=1e-10)

    def test_positive_definite_on_domains(self):
        for name, kw in [("lie_group", {}), ("fish_tank", {}), ("mw", {}),
                         ("sphere_randers", {"eps": 0.5}),
                         ("bao_shen", {"K": 2.0}),
                         ("proj_sphere_killing", {"kappa": 0.5})]:
            m = get_metric(name, **kw).metric
            lo = np.asarray(m.chart_domain.lo)
            hi = np.asarray(m.chart_domain.hi)
            for frac in (0.2, 0.5, 0.8):
                x = lo + frac * (hi - lo)
                if m.chart_domain.contains(x):
                    _inverse_spd(m.a_at(x))  # raises if not SPD

    @pytest.mark.parametrize("name", catalog_names())
    def test_entry_and_spec_are_frozen(self, name):
        # a spec hashes by identity and is frozen: nothing derived from it goes stale
        entry = get_metric(name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.metric.name = "renamed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.phi = RandersPhi()
        spec = entry.metric
        assert hash(spec) == object.__hash__(spec)
        assert dataclasses.replace(spec) != spec


class TestZermelo:
    def test_zero_wind_is_riemannian(self):
        z = ZermeloData(h=lambda x: np.diag([2.0, 3.0]),
                        W=lambda x: np.zeros(2), n=2)
        a, b = zermelo_to_randers(z, [0.1, 0.2])
        assert np.allclose(a, np.diag([2.0, 3.0]))
        assert np.abs(b).max() == 0.0

    def test_length_identity(self):
        w = np.array([0.6, 0.0])
        z = ZermeloData(h=lambda x: np.eye(2), W=lambda x: w, n=2)
        a, b = zermelo_to_randers(z, [0, 0])
        assert float(b @ _inverse_spd(a) @ b) == pytest.approx(0.36, abs=1e-12)

    def test_navigation_equation(self):
        rng = np.random.default_rng(7)
        w = np.array([0.3, -0.4])
        z = ZermeloData(h=lambda x: np.eye(2), W=lambda x: w, n=2)
        dom = ChartDomain((-1, -1), (1, 1))
        m = zermelo_metric_spec(z, dom)
        for _ in range(5):
            y = rng.normal(size=2)
            F = finsler_eval(m, RandersPhi(), [0, 0], y)
            v = y / F - w
            assert float(v @ v) == pytest.approx(1.0, abs=1e-10)

    def test_fast_wind_rejected(self):
        z = ZermeloData(h=lambda x: np.eye(2),
                        W=lambda x: np.array([1.2, 0.0]), n=2)
        with pytest.raises(FastWind):
            zermelo_to_randers(z, [0, 0])
