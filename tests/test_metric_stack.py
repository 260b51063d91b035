"""Metric callables over point stacks: every row keeps the bytes of its point.

Every catalog entry declares ``stacked=True``, so ``MetricSpec.a_at`` and
``b_at`` evaluate a whole stencil or grid in one call.  The references below
are the one-point callables the catalog had before, copied verbatim: each row
of a stacked call, and each one-point call, must give their bytes, so that the
sign of a zero counts too.  An undeclared spec keeps one call per row.
"""

import math

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.classify import default_grid
from finsler.errors import DimensionMismatch
from finsler.geometry_core import ChartDomain, MetricSpec
from finsler.phi_families import RandersPhi


def _ref_euclid():
    return (lambda x: np.eye(2)), (lambda x: np.zeros(2))


def _ref_euclid_randers(eps=0.5):
    b = np.array([float(eps), 0.0])
    return (lambda x: np.eye(2)), (lambda x: b.copy())


def _ref_lie_group():
    def a(x):
        y = x[1]
        return np.array([[2.0, 1.0], [1.0, 2.0]]) / (y * y)

    def b(x):
        y = x[1]
        return np.array([1.0 / y, 1.0 / y])

    return a, b


def _ref_fish_tank():
    def a(x):
        r2 = x[0] ** 2 + x[1] ** 2
        d = (1.0 - r2) ** 2
        return np.array([[1.0 - x[0] ** 2, -x[0] * x[1]],
                         [-x[0] * x[1], 1.0 - x[1] ** 2]]) / d

    def b(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([x[1], -x[0]]) / (1.0 - r2)

    return a, b


def _ref_mw():
    return (lambda x: np.diag([1.0, math.exp(2.0 * x[0])])), (lambda x: np.array([1.0, 0.0]))


def _ref_sphere_randers(eps=0.5):
    e2 = 1.0 - eps * eps

    def a(x):
        r = x[0]
        return np.diag([
            1.0 / ((1.0 + r * r) * (1.0 + e2 * r * r)),
            r * r * (1.0 + r * r) / (1.0 + e2 * r * r) ** 2,
        ])

    def b(x):
        r = x[0]
        return np.array([0.0, -eps * r * r / (1.0 + e2 * r * r)])

    return a, b


def _ref_bao_shen(K=2.0, sign=+1):
    rootK1 = math.sqrt(K - 1.0)

    def frames(x):
        xx, yy, zz = x
        w1 = np.array([1.0, -zz, yy])
        w2 = np.array([zz, 1.0, -xx])
        w3 = np.array([-yy, xx, 1.0])
        d = 1.0 + xx * xx + yy * yy + zz * zz
        return w1, w2, w3, d

    def a(x):
        w1, w2, w3, d = frames(x)
        return (K * np.outer(w1, w1) + np.outer(w2, w2) + np.outer(w3, w3)) / (d * d)

    def b(x):
        w1, _, _, d = frames(x)
        return sign * rootK1 * w1 / d

    return a, b


def _ref_proj_sphere_killing(kappa=0.5):
    def a(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        return ((1.0 + r2) * np.eye(3) - np.outer(x, x)) / (1.0 + r2) ** 2

    def b(x):
        r2 = float(np.asarray(x) @ np.asarray(x))
        return kappa * np.array([x[2], 1.0, -x[0]]) / (1.0 + r2)

    return a, b


REFERENCES = {name[5:]: fn for name, fn in globals().items() if name.startswith("_ref_")}

CASES = [(name, {}) for name in catalog_names()] + [
    ("euclid_randers", {"eps": -0.3}), ("sphere_randers", {"eps": 0.9}),
    ("bao_shen", {"K": 3.5, "sign": -1}), ("proj_sphere_killing", {"kappa": 0.2})]


def test_references_cover_the_catalog():
    assert sorted(REFERENCES) == catalog_names()


def _points(m, seed):
    """``default_grid(m, 5)``, then seeded random points of the chart's box
    grown by half its size on every side, where a stencil or a caller may reach."""
    lo, hi = (np.asarray(v, dtype=float) for v in (m.chart_domain.lo, m.chart_domain.hi))
    t = np.random.default_rng(seed).uniform(-0.5, 1.5, (3000, m.n))
    return np.concatenate([default_grid(m, 5), lo + t * (hi - lo)])


@pytest.mark.parametrize("name, params", CASES, ids=lambda v: str(v))
def test_stacked_rows_have_the_one_point_bytes(name, params):
    entry = get_metric(name, **params)
    m = entry.metric
    # every entry is built by one rule: a stacked spec named as the entry, on
    # a chart box of its dimension, with the Randers phi
    assert m.stacked and m.name == entry.name == name
    assert m.n == len(m.chart_domain.lo) == len(m.chart_domain.hi)
    assert isinstance(entry.phi, RandersPhi)
    X = _points(m, seed=len(name))
    for at, ref, shape in ((m.a_at, REFERENCES[name](**params)[0], (m.n, m.n)),
                           (m.b_at, REFERENCES[name](**params)[1], (m.n,))):
        stack = at(X)
        assert stack.shape == (len(X),) + shape and stack.flags.c_contiguous
        for row, x in zip(stack, X):
            want = np.asarray(ref(x), dtype=float).tobytes()
            assert row.tobytes() == want
            assert at(x).tobytes() == want


def test_undeclared_spec_maps_the_rows():
    calls = []

    def a(x):
        calls.append(x.shape)
        return np.eye(2)

    m = MetricSpec(n=2, a=a, b_form=lambda x: np.zeros(2),
                   chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)))
    assert not m.stacked
    X = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 2))
    assert np.array_equal(m.a_at(X), np.tile(np.eye(2), (5, 1, 1)))
    assert calls == [(2,)] * 5
    assert m.b_at(X).shape == (5, 2)


def test_undeclared_spec_is_not_read_by_its_output_shape():
    # on a 2-point stack this callable returns a (2, 2, 2) array, the shape a
    # stacked a(x) would have, with the wrong values: only the declaration counts
    def a(x):
        return np.array([[x[0], 0.0], [0.0, x[1]]])

    m = MetricSpec(n=2, a=a, b_form=lambda x: x,
                   chart_domain=ChartDomain((0.0, 0.0), (1.0, 1.0)))
    X = np.array([[0.2, 0.3], [0.4, 0.5]])
    assert np.array_equal(m.a_at(X), [np.diag(x) for x in X])


def test_wrong_shapes_raise_with_the_shape_named():
    dom = ChartDomain((-1.0, -1.0), (1.0, 1.0))
    X = np.zeros((5, 2))
    declared = MetricSpec(n=2, a=lambda x: np.eye(2), b_form=lambda x: np.zeros(2),
                          chart_domain=dom, stacked=True)
    with pytest.raises(DimensionMismatch, match=r"^a\(x\) has shape \(2, 2\), "
                       r"expected \(5, 2, 2\)$"):
        declared.a_at(X)
    with pytest.raises(DimensionMismatch, match=r"^b\(x\) has shape \(2,\), expected \(5, 2\)$"):
        declared.b_at(X)
    # one point of a declared spec, and every row of an undeclared one, as before
    assert declared.a_at(X[0]).shape == (2, 2)
    undeclared = MetricSpec(n=2, a=lambda x: np.eye(3), b_form=lambda x: np.zeros(3),
                            chart_domain=dom)
    with pytest.raises(DimensionMismatch, match=r"^a\(x\) has shape \(3, 3\), expected \(2, 2\)$"):
        undeclared.a_at(X)
    with pytest.raises(DimensionMismatch, match=r"^b\(x\) has shape \(3,\), expected \(2,\)$"):
        undeclared.b_at(X)
