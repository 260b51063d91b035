"""Built-in metric constructions and the Zermelo navigation converter."""

import inspect
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FastWind, ParamOutOfRange, UnknownName
from .geometry_core import ChartDomain, MetricSpec
from .phi_families import PhiFamily, RandersPhi


@dataclass(eq=False, frozen=True)
class CatalogEntry:
    """A fully wired metric: Riemannian data, default phi and chart domain."""

    name: str
    metric: MetricSpec
    phi: PhiFamily
    params: dict = field(default_factory=dict)
    description: str = ""


def _euclid():
    m = MetricSpec(
        n=2,
        a=lambda x: np.eye(2),
        b_form=lambda x: np.zeros(2),
        chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)),
        name="euclid",
    )
    return CatalogEntry("euclid", m, RandersPhi(), {},
                        "Euclidean plane, zero one-form")


def _euclid_randers(eps=0.5):
    if not abs(eps) < 1.0:
        raise ParamOutOfRange(f"euclid_randers requires |eps| < 1, got {eps}")
    b = np.array([float(eps), 0.0])
    m = MetricSpec(
        n=2,
        a=lambda x: np.eye(2),
        b_form=lambda x: b.copy(),
        chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)),
        name="euclid_randers",
    )
    return CatalogEntry("euclid_randers", m, RandersPhi(), {"eps": eps},
                        "flat Randers metric with a constant one-form")


def _lie_group():
    def a(x):
        y = x[1]
        return np.array([[2.0, 1.0], [1.0, 2.0]]) / (y * y)

    def b(x):
        y = x[1]
        return np.array([1.0 / y, 1.0 / y])

    m = MetricSpec(
        n=2, a=a, b_form=b,
        chart_domain=ChartDomain((-3.0, 0.2), (3.0, 5.0)),
        name="lie_group",
    )
    return CatalogEntry("lie_group", m, RandersPhi(), {},
                        "left-invariant Randers metric on the affine group of the upper half-plane")


def _fish_tank():
    def a(x):
        r2 = x[0] ** 2 + x[1] ** 2
        d = (1.0 - r2) ** 2
        return np.array([[1.0 - x[0] ** 2, -x[0] * x[1]],
                         [-x[0] * x[1], 1.0 - x[1] ** 2]]) / d

    def b(x):
        r2 = x[0] ** 2 + x[1] ** 2
        return np.array([x[1], -x[0]]) / (1.0 - r2)

    m = MetricSpec(
        n=2, a=a, b_form=b,
        chart_domain=ChartDomain((-0.63, -0.63), (0.63, 0.63),
                                 predicate=lambda x: x[0] ** 2 + x[1] ** 2 < 0.95**2),
        name="fish_tank",
    )
    return CatalogEntry("fish_tank", m, RandersPhi(), {},
                        "rotational Randers metric on the unit disc with vanishing S- and flag curvature")


def _mw():
    m = MetricSpec(
        n=2,
        a=lambda x: np.diag([1.0, math.exp(2.0 * x[0])]),
        b_form=lambda x: np.array([1.0, 0.0]),
        chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)),
        name="mw",
    )
    return CatalogEntry("mw", m, RandersPhi(), {},
                        "warped-product surface with a closed unit one-form")


def _sphere_randers(eps=0.5):
    if not abs(eps) < 1.0:
        raise ParamOutOfRange(f"sphere_randers requires |eps| < 1, got {eps}")
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

    m = MetricSpec(
        n=2, a=a, b_form=b,
        chart_domain=ChartDomain((0.1, 0.0), (3.0, 2.0 * math.pi)),
        name="sphere_randers",
    )
    return CatalogEntry("sphere_randers", m, RandersPhi(), {"eps": eps},
                        "rotational Randers perturbation of the projective sphere metric, polar coordinates")


def _bao_shen(K=2.0, sign=+1):
    if not K > 1.0:
        raise ParamOutOfRange(f"bao_shen requires K > 1, got {K}")
    if sign not in (+1, -1):
        raise ParamOutOfRange("bao_shen sign must be +1 or -1")
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

    m = MetricSpec(
        n=3, a=a, b_form=b,
        chart_domain=ChartDomain((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        name="bao_shen",
    )
    return CatalogEntry("bao_shen", m, RandersPhi(), {"K": K, "sign": sign},
                        "invariant Randers metrics on the 3-sphere with constant one-form length")


def _proj_sphere_killing(kappa=0.5):
    if not 0.0 < kappa < 1.0:
        raise ParamOutOfRange(f"proj_sphere_killing requires 0 < kappa < 1, got {kappa}")

    def a(x):
        x = np.asarray(x, dtype=float)
        r2 = float(x @ x)
        return ((1.0 + r2) * np.eye(3) - np.outer(x, x)) / (1.0 + r2) ** 2

    def b(x):
        r2 = float(np.asarray(x) @ np.asarray(x))
        return kappa * np.array([x[2], 1.0, -x[0]]) / (1.0 + r2)

    m = MetricSpec(
        n=3, a=a, b_form=b,
        chart_domain=ChartDomain((-1.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        name="proj_sphere_killing",
    )
    return CatalogEntry("proj_sphere_killing", m, RandersPhi(), {"kappa": kappa},
                        "projective sphere metric with a non-closed Killing one-form of constant length")


_FACTORIES = {
    "euclid": _euclid,
    "euclid_randers": _euclid_randers,
    "lie_group": _lie_group,
    "fish_tank": _fish_tank,
    "mw": _mw,
    "sphere_randers": _sphere_randers,
    "bao_shen": _bao_shen,
    "proj_sphere_killing": _proj_sphere_killing,
}


def catalog_names():
    return sorted(_FACTORIES)


def get_metric(name, **params) -> CatalogEntry:
    """Construct a catalog entry by name with its documented parameters, each a finite real."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise UnknownName(
            f"no catalog metric {name!r}; known: {', '.join(catalog_names())}") from None
    known = inspect.signature(factory).parameters
    for key, value in params.items():
        if key not in known:
            raise UnknownName(f"{name} has no parameter {key!r}; known: "
                              f"{', '.join(known) or 'none'}")
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise ParamOutOfRange(f"{name} parameter {key!r} must be a finite real number, "
                                  f"got {value!r}")
    return factory(**params)


@dataclass(eq=False)
class ZermeloData:
    """Navigation data: Riemannian sea h_ij(x) and wind W^i(x) with |W|_h < 1."""

    h: Callable  # x -> (n, n)
    W: Callable  # x -> (n,)
    n: int

    def at(self, x):
        h = np.asarray(self.h(x), dtype=float)
        w = np.asarray(self.W(x), dtype=float)
        w_low = h @ w
        lam = 1.0 - float(w @ w_low)
        return h, w, w_low, lam


def zermelo_to_randers(z: ZermeloData, x):
    """Randers data (a_ij, b_i) solving the navigation problem at ``x``."""
    h, _, w_low, lam = z.at(x)
    if lam <= 0.0:
        raise FastWind(f"wind reaches unit h-length at {x} (lambda = {lam})")
    a = (lam * h + np.outer(w_low, w_low)) / (lam * lam)
    b = -w_low / lam
    return a, b


def zermelo_metric_spec(z: ZermeloData, chart_domain: ChartDomain) -> MetricSpec:
    """MetricSpec whose Randers metric solves the navigation problem of ``z``."""

    def a(x):
        return zermelo_to_randers(z, x)[0]

    def b(x):
        return zermelo_to_randers(z, x)[1]

    return MetricSpec(n=z.n, a=a, b_form=b, chart_domain=chart_domain,
                      name="zermelo")
