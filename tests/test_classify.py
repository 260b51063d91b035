"""Classification predicates, the unicorn fit and the verdict ladder."""

import json

import numpy as np
import pytest

from finsler.catalog import get_metric
from finsler.classify import (ClassificationReport, Verdict, classify_metric,
                              curvature_flags, default_directions,
                              default_grid, is_generalized_berwald,
                              killing_constant_length, randers_s0_shortcut,
                              theorem11_verdict, unicorn_fit)
from finsler.errors import (DegenerateFlag, DomainError, EvaluationError,
                            MissingReports, RankDeficient, WrongPhiVariant)
from finsler.geometry_core import beta_derivatives
from finsler.phi_families import RandersPhi, RiemannSqrtPhi, UnicornPhi


def _calc(m, grid=None):
    """The beta calculus of ``grid`` (the default grid), one stacked pass."""
    return beta_derivatives(m, np.array(default_grid(m) if grid is None else grid))


class TestGeneralizedBerwald:
    def test_lie_group_true(self):
        m = get_metric("lie_group").metric
        v = is_generalized_berwald(_calc(m))
        assert v
        assert v.residual < 1e-10

    def test_fish_tank_false(self):
        m = get_metric("fish_tank").metric
        assert not is_generalized_berwald(_calc(m))

    def test_bao_shen_true(self):
        m = get_metric("bao_shen", K=2.0).metric
        assert is_generalized_berwald(_calc(m))

    def test_empty_grid(self):
        # the predicate reads a stacked pass, which an empty grid cannot give
        m = get_metric("euclid").metric
        with pytest.raises(DomainError):
            _calc(m, np.empty((0, 2)))


class TestDefaultGrid:
    def test_margin_defaults_to_the_regularity_margin(self):
        m = get_metric("lie_group").metric
        # the regularity margin: 5 % of the box's shortest side
        got = default_grid(m, 3)
        want = default_grid(m, 3, margin=0.05)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, default_grid(m, 3, margin=0.1))

    def test_explicit_margin(self):
        m = get_metric("euclid").metric
        lo = np.asarray(m.chart_domain.lo, dtype=float)
        hi = np.asarray(m.chart_domain.hi, dtype=float)
        inset = float(np.min(hi - lo)) * 0.1
        grid = default_grid(m, 2, margin=0.1)
        assert np.array_equal(grid[0], lo + inset)
        assert np.array_equal(grid[-1], hi - inset)


class TestKillingConstantLength:
    def test_parallel_form_true(self):
        m = get_metric("euclid_randers", eps=0.5).metric
        assert killing_constant_length(_calc(m))

    def test_lie_group_false(self):
        m = get_metric("lie_group").metric
        assert not killing_constant_length(_calc(m))

    def test_sphere_randers_false(self):
        m = get_metric("sphere_randers", eps=0.5).metric
        assert not killing_constant_length(_calc(m))

    def test_proj_sphere_killing_r_zero_s_nonzero(self):
        m = get_metric("proj_sphere_killing", kappa=0.5).metric
        v = killing_constant_length(_calc(m))
        # r = 0 but s_i != 0 here (b is constant, beta not closed)
        x = default_grid(m)[0]
        assert np.abs(beta_derivatives(m, x).r).max() < 1e-6


class TestRandersShortcut:
    def test_sphere_randers_true(self):
        e = get_metric("sphere_randers", eps=0.5)
        assert randers_s0_shortcut(_calc(e.metric), e.phi)

    def test_fish_tank_true(self):
        e = get_metric("fish_tank")
        assert randers_s0_shortcut(_calc(e.metric), e.phi)

    def test_lie_group_false(self):
        e = get_metric("lie_group")
        assert not randers_s0_shortcut(_calc(e.metric), e.phi)

    def test_wrong_variant_rejected(self):
        e = get_metric("lie_group")
        with pytest.raises(WrongPhiVariant):
            randers_s0_shortcut(_calc(e.metric), RiemannSqrtPhi(1.0))


class TestCurvatureFlags:
    def test_flat_randers(self):
        e = get_metric("euclid_randers", eps=0.5)
        flags = curvature_flags(e.metric, e.phi, _calc(e.metric),
                                default_directions(2, 8))
        assert flags["berwald"]
        assert flags["landsberg"]
        assert flags["douglas"]
        assert flags["s_zero"]
        assert not flags["riemannian"]
        assert flags["riemannian"].residual > 0.01

    def test_riemann_sqrt_is_riemannian(self):
        e = get_metric("mw")
        flags = curvature_flags(e.metric, RiemannSqrtPhi(0.5),
                                _calc(e.metric, default_grid(e.metric)[:2]),
                                default_directions(2, 4))
        assert flags["riemannian"]

    def test_lie_group_all_nonzero(self):
        e = get_metric("lie_group")
        flags = curvature_flags(e.metric, e.phi, _calc(e.metric, default_grid(e.metric)[:2]),
                                default_directions(2, 4))
        for name in ("berwald", "landsberg", "douglas", "s_zero", "riemannian"):
            assert not flags[name]

    def test_logical_closure(self):
        e = get_metric("euclid_randers", eps=0.3)
        flags = curvature_flags(e.metric, e.phi, _calc(e.metric, default_grid(e.metric)[:3]),
                                default_directions(2, 4))
        if flags["berwald"]:
            assert flags["landsberg"].residual < 10 * flags["landsberg"].threshold
            assert flags["douglas"].residual < 10 * flags["douglas"].threshold
            assert flags["s_zero"].residual < 10 * flags["s_zero"].threshold


class TestUnicornFit:
    def test_exact_family_member(self):
        f = UnicornPhi(1.0, 0.3, 0.7, 1.0)
        fit = unicorn_fit(f, 1.0)
        assert fit.k == pytest.approx(0.3, abs=1e-8)
        assert fit.q == pytest.approx(0.7, abs=1e-8)
        assert fit.rms < 1e-9

    def test_riemannian_gives_q_zero(self):
        fit = unicorn_fit(RiemannSqrtPhi(2.0), 0.8)
        assert fit.k == pytest.approx(2.0, abs=1e-8)
        assert fit.q == pytest.approx(0.0, abs=1e-8)

    def test_randers_poor_fit(self):
        fit = unicorn_fit(RandersPhi(), 0.8)
        assert fit.rms > 0.01

    def test_idempotence(self):
        f = UnicornPhi(1.0, 0.25, 0.6, 1.0)
        fit1 = unicorn_fit(f, 1.0)
        # resample Q from the fitted coefficients and fit again
        s = np.linspace(-0.9, 0.9, 25)
        q = fit1.k * s + fit1.q * np.sqrt(1.0 - s * s)
        fit2 = unicorn_fit((s, q), 1.0)
        assert fit2.k == pytest.approx(fit1.k, abs=1e-10)
        assert fit2.q == pytest.approx(fit1.q, abs=1e-10)

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            unicorn_fit((np.array([0.5, 0.5, 0.5]), np.array([1.0, 1.0, 1.0])),
                        1.0)


class TestVerdict:
    def _v(self, flag, residual=0.0):
        return Verdict(flag, residual, 1e-6, 9)

    def test_priority_order(self):
        t, f = self._v(True), self._v(False, 1.0)
        assert theorem11_verdict({"gb": f, "s_zero": t}) == ("NotGeneralizedBerwald", None)
        assert theorem11_verdict({"gb": t, "s_zero": f}) == ("SNonzero", None)
        assert theorem11_verdict({"gb": t, "s_zero": t, "riemannian": t}) \
            == ("RiemannianIsotropic", None)
        assert theorem11_verdict({"gb": t, "s_zero": t, "riemannian": f,
                                  "berwald": t}, flag_zero=self._v(True)) \
            == ("LocallyMinkowskiLike", None)
        assert theorem11_verdict({"gb": t, "s_zero": t, "riemannian": f,
                                  "berwald": f, "killing_cl": f}) == ("Inconclusive", None)

    def test_an_errored_rung_is_inconclusive_and_says_why(self):
        t, f = self._v(True), self._v(False, 1.0)
        err = Verdict.errored(1e-5, EvaluationError("sigma failed"))
        assert not err and err.as_dict() == {"verdict": None, "threshold": 1e-5,
                                             "error": "EvaluationError: sigma failed",
                                             "n_samples": 0}
        why = "s_zero could not be evaluated: EvaluationError: sigma failed"
        assert theorem11_verdict({"gb": t, "s_zero": err, "riemannian": t}) \
            == ("Inconclusive", why)
        # a one-form of varying length decides the ladder before S is read
        assert theorem11_verdict({"gb": f, "s_zero": err}) == ("NotGeneralizedBerwald", None)

    def test_missing_reports(self):
        with pytest.raises(MissingReports):
            theorem11_verdict({"gb": self._v(True)})

    def test_numpy_scalars_are_stored_as_python_types(self):
        v = Verdict(np.float64(0.5) < np.float64(1.0), np.float64(0.5),
                    np.float64(1.0), 3)
        assert type(v.value) is bool and type(v.residual) is float
        assert type(v.threshold) is float
        assert bool(v) is True

    def test_one_form_longer_than_one(self):
        # |b| = 2 makes the threshold a numpy float and the comparison a
        # numpy bool, which Verdict.__bool__ must not hand back
        from finsler.geometry_core import ChartDomain, MetricSpec
        m = MetricSpec(n=2, a=lambda x: np.eye(2),
                       b_form=lambda x: np.array([2.0, 0.0]),
                       chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)))
        v = is_generalized_berwald(_calc(m))
        assert v and type(v.value) is bool

    def test_tol_monotonicity(self):
        # loosening tol never flips a true verdict to false
        m = get_metric("lie_group").metric
        calc = _calc(m)
        prev = None
        for tol in (1e-10, 1e-8, 1e-6, 1e-4):
            v = is_generalized_berwald(calc, tol=tol)
            if prev is not None and prev.value:
                assert v.value
            prev = v


class TestEndToEnd:
    @pytest.mark.parametrize("name,kw,expected", [
        ("lie_group", {}, "SNonzero"),
        ("fish_tank", {}, "NotGeneralizedBerwald"),
        ("sphere_randers", {"eps": 0.5}, "NotGeneralizedBerwald"),
        ("euclid_randers", {"eps": 0.5}, "LocallyMinkowskiLike"),
        ("euclid", {}, "RiemannianIsotropic"),
        # Randers is regular on all of |s| < 1, right up to the cone edge
        ("euclid_randers", {"eps": 0.96}, "LocallyMinkowskiLike"),
        ("euclid_randers", {"eps": 0.99}, "LocallyMinkowskiLike"),
    ])
    def test_catalog_verdicts(self, name, kw, expected):
        e = get_metric(name, **kw)
        rep = classify_metric(e.metric, e.phi)
        assert rep.verdict == expected

    def test_report_serializes(self):
        e = get_metric("euclid_randers", eps=0.5)
        rep = classify_metric(e.metric, e.phi)
        doc = json.loads(rep.to_json())
        assert doc["verdict"] == "LocallyMinkowskiLike"
        for pred in ("gb", "killing_cl", "berwald", "landsberg", "douglas",
                     "s_zero", "riemannian"):
            entry = doc["predicates"][pred]
            assert set(entry) == {"verdict", "residual", "threshold", "n_samples"}


class TestFlagZeroLoop:
    @pytest.mark.parametrize("error", [DegenerateFlag, EvaluationError])
    def test_a_failing_flag_sample_is_skipped(self, monkeypatch, error):
        # the flag-zero check reads K off one curvature bundle per point,
        # whose riemann_flag raises DegenerateFlag (denominator ~ 0) or
        # EvaluationError (a failing stencil point) for one direction here;
        # the point's batch is redone one direction at a time, and that one
        # sample is skipped instead of aborting the whole classification
        import finsler.classify as classify
        import finsler.spray_curvature as spray_curvature
        e = get_metric("euclid_randers")
        flag_zero = []
        verdict = classify.theorem11_verdict

        def recording(reports, **kw):
            flag_zero.append(kw["flag_zero"])
            return verdict(reports, **kw)

        monkeypatch.setattr(classify, "theorem11_verdict", recording)
        base = classify_metric(e.metric, e.phi)
        grid = default_grid(e.metric)
        chosen = classify._admissible_dirs(e.phi, beta_derivatives(e.metric, grid[1]),
                                           default_directions(2))[2]
        riemann = spray_curvature.riemann_flag
        failed = []

        def failing_for_one(m, f, x, y, **kwargs):
            if np.array_equal(x, grid[1]) and np.array_equal(y, chosen):
                failed.append(y)
                raise error("one flag sample fails")
            return riemann(m, f, x, y, **kwargs)

        monkeypatch.setattr(spray_curvature, "riemann_flag", failing_for_one)
        rep = classify_metric(e.metric, e.phi)
        assert failed  # the chosen direction was read, and raised
        assert rep.verdict == base.verdict == "LocallyMinkowskiLike"
        assert flag_zero[-1].n_samples == flag_zero[0].n_samples - 1 > 0


def test_curvature_flags_scale_by_the_bits_of_fundamental():
    # the F that scales a sample to F = 1 comes from an order-0 F^2 jet of
    # the sample batch; it must have the bits of `fundamental(...).F`
    from finsler.finsler_metric import fsq_jet, fundamental
    for name in ("lie_group", "bao_shen", "fish_tank"):
        e = get_metric(name)
        x = default_grid(e.metric)[1]
        Y = default_directions(e.metric.n, 9, seed=3)
        F = np.sqrt(fsq_jet(e.metric, e.phi, x, Y, 0).value)
        assert np.array_equal(F, fundamental(e.metric, e.phi, x, Y).F)
        assert np.array_equal(F, [fundamental(e.metric, e.phi, x, y).F for y in Y])
