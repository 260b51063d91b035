"""The closed-form gradient of ln sigma against the stencil it replaced.

``ln_sigma_gradient`` reads d ln f / db off the memoised unit-ball sweep of
b = |beta|_alpha at x, which the S formula shares, and d a and d b off x's
beta calculus.  The reference below is the route it replaced: the Richardson
stencil of ``base_derivative`` over ln ``sigma_bh``, 4 n sweeps per point.
The two routes differ by the stencil's truncation error, and by the error of
the d a and d b stencils on the new route, so each metric is held near its
own gap, not to one loose bound.
"""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import finsler
from finsler.catalog import catalog_names, get_metric
from finsler.classify import default_directions, default_grid
from finsler.cli import RunConfig, cmd_report, main
from finsler.errors import FinslerError, SingularDirectionInQuadrature, ZeroNorm
from finsler.finsler_metric import _polar_nodes, _sweep, sigma_bh
from finsler.geometry_core import ChartDomain, MetricSpec, _at, beta_derivatives
from finsler.jets import base_derivative
from finsler.phi_families import RandersPhi, RiemannSqrtPhi
from finsler.spray_curvature import curvature_bundle, ln_sigma_gradient


def ref_ln_sigma_gradient(m, f, x):
    """The stencil route: ``base_derivative`` of ln ``sigma_bh``, one sweep per stencil point."""
    return base_derivative(partial(_at, lambda p: math.log(sigma_bh(m, f, p))),
                           np.asarray(x, dtype=float))


#: the largest |new - stencil| over ``default_grid(m, 3)``, measured, times
#: about 2 (and 1e-15 where both routes give 0 exactly); fish_tank's gap is
#: the d a stencil's error, since ln sigma is constant there and the direct
#: stencil cancels
GAP = {"bao_shen": 2e-11, "euclid": 1e-15, "euclid_randers": 1e-15,
       "fish_tank": 6e-8, "lie_group": 8e-9, "proj_sphere_killing": 1e-11,
       "sphere_randers": 2e-9}


@pytest.mark.parametrize("name", sorted(GAP))
def test_gradient_matches_the_stencil_route(name):
    e = get_metric(name)
    m, f = e.metric, e.phi
    grid = default_grid(m, 3)
    gap = 0.0
    for x, bc in zip(grid, beta_derivatives(m, np.array(grid)).rows()):
        gap = max(gap, float(np.abs(ln_sigma_gradient(m, f, x, bc)
                                    - ref_ln_sigma_gradient(m, f, x)).max()))
    assert gap <= GAP[name]


def test_every_sweepable_catalog_metric_has_a_gap():
    assert sorted(GAP) == [name for name in catalog_names() if name != "mw"]


def test_own_calculus_gives_the_bits_of_a_stack_row():
    e = get_metric("bao_shen")
    m, f = e.metric, e.phi
    grid = default_grid(m, 2)
    for x, bc in zip(grid, beta_derivatives(m, np.array(grid)).rows()):
        assert np.array_equal(ln_sigma_gradient(m, f, x), ln_sigma_gradient(m, f, x, bc))


def _randers_near_one(b1):
    """Randers on a = (1 + x2/10) I with |b|_alpha = b1 + 0.002 x1 at x2 = 0."""
    return MetricSpec(n=2, a=lambda x: np.eye(2) * (1.0 + 0.1 * x[1]),
                      b_form=lambda x: np.array([b1 + 0.002 * x[0], 0.003 * x[1]]),
                      chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)), name="near_one")


def _randers_closed_form(x, b1):
    """ln sigma_BH = (n + 1)/2 ln(1 - |b|_alpha^2) + ln sqrt(det a), n = 2, complex-safe."""
    scale = 1.0 + 0.1 * x[1]
    b2 = ((b1 + 0.002 * x[0]) ** 2 + (0.003 * x[1]) ** 2) / scale
    return 1.5 * np.log(1.0 - b2) + np.log(scale)


def test_refined_rule_point(monkeypatch):
    # |b|_alpha = 0.9902: the radii vary by about 200x, past the ratio where
    # the 2-D product rule took its 4x finer rule; the tanh-sinh rule makes
    # one sweep of its nodes.  Against the closed form (by complex step) the
    # new route is off by 8.2e-13, the stencil by 4.3e-9
    b1, x = 0.99, np.array([0.1, 0.0])
    m, f = _randers_near_one(b1), RandersPhi()
    _sweep.cache_clear()
    sweeps = _count(monkeypatch, RandersPhi, "value_many")
    got = ln_sigma_gradient(m, f, x)
    assert [len(s) for _, s in sweeps] == [len(_polar_nodes(2)[1])]
    step = 1e-20
    exact = np.array([_randers_closed_form(x + 1j * step * e, b1).imag / step
                      for e in np.eye(2)])
    assert np.abs(got - exact).max() < 2e-12
    assert np.abs(got - ref_ln_sigma_gradient(m, f, x)).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_nodes_past_the_admissible_cone_raise(n):
    # sqrt(alpha^2 - beta^2) with |b|_alpha past the admissible half-width
    # 0.95 by 1e-6 of it, at the nodes within 1.4e-3 of the poles +-b: no
    # node is moved back inside, and the gradient refuses the sweep
    f = RiemannSqrtPhi(-1.0)
    b = f.b0 * (1.0 - f.delta) * (1.0 + 1e-6)
    bad = 56
    m = MetricSpec(n=n, a=lambda x: np.diag([1.0 + 0.02 * x[0], 1.0 + 0.01 * x[1]]
                                            + [1.0] * (n - 2)),
                   b_form=lambda x: np.array([b] + [0.0] * (n - 1)),
                   chart_domain=ChartDomain((-1.0,) * n, (1.0,) * n), name="edge")
    with pytest.raises(SingularDirectionInQuadrature,
                       match=rf"\|s\| > b0 \(1 - delta\) = 0.95 at {bad} quadrature node"):
        ln_sigma_gradient(m, f, np.zeros(n))


@pytest.mark.parametrize("name", ["bao_shen", "fish_tank", "lie_group", "proj_sphere_killing",
                                  "sphere_randers"])
def test_s_routes_agree_to_roundoff(name):
    # the stencil of ln sigma left 9.5e-12, 4.3e-9 and 5.1e-12 on bao_shen,
    # lie_group and proj_sphere_killing; the b +- 1e-4 stencil of f(b) left
    # 1.5e-7 and 8.4e-10 on fish_tank and sphere_randers, where |b|_alpha varies
    e = get_metric(name)
    m, f = e.metric, e.phi
    grid = default_grid(m, 3)
    dirs = default_directions(m.n, 16)
    worst = 0.0
    for x, bc in zip(grid, beta_derivatives(m, np.array(grid)).rows()):
        cb = curvature_bundle(m, f, x, dirs, ln_sigma_gradient(m, f, x, bc), bc)
        worst = max(worst, float(np.abs(cb.S_def - cb.S_formula).max()))
    assert worst <= 1e-13


def _count(monkeypatch, module, name):
    """Calls of ``module.name``, through every finsler module that binds it."""
    original, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in [module, *(getattr(finsler, sub) for sub in ("geometry_core", "spray_curvature"))]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("case", ["regular", "refined"])
def test_one_sweep_per_refine_level_and_no_stencil(case, monkeypatch):
    # one sweep at every b: "refined" is the point where the 2-D product
    # rule swept twice, once more on its 4x finer rule
    if case == "regular":
        e = get_metric("bao_shen")
        m, f, x = e.metric, e.phi, np.array([0.2, -0.1, 0.3])
    else:
        m, f, x = _randers_near_one(0.99), RandersPhi(), np.array([0.1, 0.0])
    bc = beta_derivatives(m, x)
    _sweep.cache_clear()
    sweeps = _count(monkeypatch, type(f), "value_many")
    stencils = _count(monkeypatch, finsler.jets, "base_derivative")
    ln_sigma_gradient(m, f, x, bc)
    assert (_sweep.cache_info().misses, len(sweeps), len(stencils)) == (1, 1, 0)
    # a memo hit makes no sweep; without a calculus at hand, the only
    # stencils are those of a and b
    ln_sigma_gradient(m, f, x)
    assert (_sweep.cache_info().misses, len(sweeps)) == (1, 1)
    assert [field for field, _ in stencils] == [m.a_at, m.b_at]


def test_table_s_makes_one_sweep_per_point(monkeypatch):
    # fish_tank's |b|_alpha varies over the grid (three values on these nine
    # points, by symmetry): the gradient of ln sigma at the first point of
    # each b misses the memo, and every other read, the S formula's density
    # term included, hits that key
    e = get_metric("fish_tank")
    grid = default_grid(e.metric, 3)
    keys = {bc.b for bc in beta_derivatives(e.metric, np.array(grid)).rows()}
    assert 1 < len(keys) < len(grid)
    _sweep.cache_clear()
    sweeps = _count(monkeypatch, type(e.phi), "value_many")
    reads = _count(monkeypatch, finsler.finsler_metric, "_unit_ball")
    argv = ["table", "--metric", "fish_tank", "--quantity", "S", "--per-axis", "3",
            "--out", "/dev/null"]
    assert main(argv) == 0
    info = _sweep.cache_info()
    assert (info.misses, len(sweeps)) == (len(keys), len(keys))
    assert info.misses + info.hits == len(reads) > len(grid)


def test_a_refused_sweep_is_made_once_per_key(monkeypatch):
    # log_phi's sigma refuses at every point, all of one b: the gradients of ln
    # sigma on the report's 9 points and the classification's 9 read one
    # memoised refusal, each read raising a fresh error with its text, and a
    # run that only hits the memo prints the same bytes
    doc = json.loads((Path(__file__).resolve().parent / "fixtures" / "log_phi.json").read_text())
    cfg = RunConfig({**doc, "grid": {"per_axis": 3}})
    _sweep.cache_clear()
    sweeps = _count(monkeypatch, type(cfg.phi), "value_many")
    unit_ball, raised = finsler.finsler_metric._unit_ball, []

    def reading(*args):
        try:
            return unit_ball(*args)
        except FinslerError as exc:
            raised.append(exc)
            raise

    for mod in (finsler.finsler_metric, finsler.spray_curvature):
        monkeypatch.setattr(mod, "_unit_ball", reading)
    first = cmd_report(cfg)
    assert (len(sweeps), _sweep.cache_info().misses) == (1, 1)
    assert len(raised) == 18 and len({id(exc) for exc in raised}) == 18
    assert len({f"{type(exc).__name__}: {exc}" for exc in raised}) == 1
    assert cmd_report(cfg) == first and len(sweeps) == 1


def test_mw_sigma_error_comes_from_x(capsys):
    # mw has |b| = 1: F = 0 at one node of the sweep at x itself, and that
    # typed error, not a stencil neighbour's, reaches the s_zero verdict
    e = get_metric("mw")
    x = np.array([0.3, 0.3])
    with pytest.raises(SingularDirectionInQuadrature, match=r"F <= 0 at 1 quadrature node\(s\)"):
        ln_sigma_gradient(e.metric, e.phi, x, ZeroNorm("not read: the sweep fails first"))
    assert main(["classify", "--metric", "mw"]) == 0
    out = capsys.readouterr().out
    assert "SingularDirectionInQuadrature: F <= 0 at 1 quadrature node(s)" in out
    assert "offset" not in out


def test_a_failed_calculus_is_raised_after_the_sweep():
    e = get_metric("lie_group")
    with pytest.raises(ZeroNorm, match="handed in"):
        ln_sigma_gradient(e.metric, e.phi, [0.5, 1.0], ZeroNorm("handed in"))
