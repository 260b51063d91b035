"""Built-in metric constructions and the Zermelo navigation converter."""

import inspect
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import FastWind, ParamOutOfRange, UnknownName, shown
from .geometry_core import ChartDomain, MetricSpec
from .phi_families import PhiFamily, RandersPhi
from .series import _each


@dataclass(eq=False, frozen=True)
class CatalogEntry:
    """A fully wired metric: Riemannian data, default phi and chart domain."""

    name: str
    metric: MetricSpec
    phi: PhiFamily
    params: dict = field(default_factory=dict)
    description: str = ""


# Every catalog callable is stacked: it takes one point (n,) or a (P, n) stack
# and unpacks the coordinates as x.T, floats at one point and (P,) rows of a
# stack, so one point keeps the cost of float arithmetic.


def _entry(name, a, b, lo, hi, params, description, predicate=None):
    """The entry ``name``: the stacked metric (a, b) on the box [lo, hi], with the Randers phi."""
    m = MetricSpec(n=len(lo), a=a, b_form=b, chart_domain=ChartDomain(lo, hi, predicate),
                   name=name, stacked=True)
    return CatalogEntry(name, m, RandersPhi(), params, description)


def _square(t):
    return t ** 2  # libm pow, as a float's ** 2 is, not numpy's t * t


def _diag(x, d0, d1):
    """The 2 x 2 diagonal matrices of ``d0`` and ``d1`` at a point or a stack ``x``."""
    out = np.zeros(x.shape[:-1] + (2, 2))
    out[..., 0, 0], out[..., 1, 1] = d0, d1
    return out


def _euclid():
    return _entry("euclid", lambda x: np.tile(np.eye(2), x.shape[:-1] + (1, 1)),
                  lambda x: np.zeros(x.shape), (-1.0, -1.0), (1.0, 1.0), {},
                  "Euclidean plane, zero one-form")


def _euclid_randers(eps=0.5):
    if not abs(eps) < 1.0:
        raise ParamOutOfRange(f"euclid_randers requires |eps| < 1, got {shown(eps)}")
    b = np.array([float(eps), 0.0])
    return _entry("euclid_randers", lambda x: np.tile(np.eye(2), x.shape[:-1] + (1, 1)),
                  lambda x: np.tile(b, x.shape[:-1] + (1,)), (-1.0, -1.0), (1.0, 1.0),
                  {"eps": eps}, "flat Randers metric with a constant one-form")


def _lie_group():
    def a(x):
        y = x.T[1][..., None, None]
        return np.array([[2.0, 1.0], [1.0, 2.0]]) / (y * y)

    def b(x):
        inv = 1.0 / x.T[1]
        return np.array([inv, inv]).T

    return _entry("lie_group", a, b, (-3.0, 0.2), (3.0, 5.0), {},
                  "left-invariant Randers metric on the affine group of the upper half-plane")


def _fish_tank():
    def a(x):
        x0, x1 = x.T
        sq0, sq1 = _each(_square, x).T
        off = -x0 * x1
        m = np.array([[1.0 - sq0, off], [off, 1.0 - sq1]]).T  # symmetric: .T moves P first
        return m / _each(_square, 1.0 - (sq0 + sq1))[..., None, None]

    def b(x):
        x0, x1 = x.T
        sq0, sq1 = _each(_square, x).T
        return np.array([x1, -x0]).T / (1.0 - (sq0 + sq1))[..., None]

    return _entry("fish_tank", a, b, (-0.63, -0.63), (0.63, 0.63), {},
                  "rotational Randers metric on the unit disc with vanishing S- and flag curvature",
                  predicate=lambda x: x[0] ** 2 + x[1] ** 2 < 0.95**2)


def _mw():
    return _entry("mw", lambda x: _diag(x, 1.0, _each(math.exp, 2.0 * x.T[0])),
                  lambda x: np.tile([1.0, 0.0], x.shape[:-1] + (1,)), (-1.0, -1.0), (1.0, 1.0),
                  {}, "warped-product surface with a closed unit one-form")


def _sphere_randers(eps=0.5):
    if not abs(eps) < 1.0:
        raise ParamOutOfRange(f"sphere_randers requires |eps| < 1, got {shown(eps)}")
    e2 = 1.0 - eps * eps

    def a(x):
        r = x.T[0]
        return _diag(x, 1.0 / ((1.0 + r * r) * (1.0 + e2 * r * r)),
                     r * r * (1.0 + r * r) / _each(_square, 1.0 + e2 * r * r))

    def b(x):
        r = x.T[0]
        return np.array([np.zeros_like(r), -eps * r * r / (1.0 + e2 * r * r)]).T

    return _entry("sphere_randers", a, b, (0.1, 0.0), (3.0, 2.0 * math.pi), {"eps": eps},
                  "rotational Randers perturbation of the projective sphere metric, polar coordinates")


#: the invariant coframes of ``_bao_shen`` as indices into (x, y, z, 1, -x, -y, -z):
#: w1 = (1, -z, y), w2 = (z, 1, -x), w3 = (-y, x, 1)
_COFRAME = np.array([[3, 6, 1], [2, 3, 4], [5, 0, 3]])


def _bao_shen(K=2.0, sign=+1):
    if not K > 1.0:
        raise ParamOutOfRange(f"bao_shen requires K > 1, got {shown(K)}")
    if sign not in (+1, -1):
        raise ParamOutOfRange("bao_shen sign must be +1 or -1")
    rootK1 = math.sqrt(K - 1.0)

    def frames(x):
        """w[..., k, :] is the coframe w_(k+1), d the conformal factor."""
        xx, yy, zz = x.T
        w = np.concatenate([x, np.ones(x.shape[:-1] + (1,)), -x], axis=-1)[..., _COFRAME]
        return w, 1.0 + xx * xx + yy * yy + zz * zz

    def a(x):
        w, d = frames(x)
        outer = w[..., :, None] * w[..., None, :]  # outer[..., k, :, :] = w_k w_k^T
        return ((K * outer[..., 0, :, :] + outer[..., 1, :, :] + outer[..., 2, :, :])
                / (d * d)[..., None, None])

    def b(x):
        w, d = frames(x)
        return sign * rootK1 * w[..., 0, :] / d[..., None]

    return _entry("bao_shen", a, b, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0), {"K": K, "sign": sign},
                  "invariant Randers metrics on the 3-sphere with constant one-form length")


def _proj_sphere_killing(kappa=0.5):
    if not 0.0 < kappa < 1.0:
        raise ParamOutOfRange(f"proj_sphere_killing requires 0 < kappa < 1, got {shown(kappa)}")

    def r2(x):  # x @ x per point, with the bits of a one-point dot product
        return (x[..., None, :] @ x[..., :, None])[..., 0, 0]

    def a(x):
        c = (1.0 + r2(x))[..., None, None]
        return (c * np.eye(3) - x[..., :, None] * x[..., None, :]) / _each(_square, c)

    def b(x):
        x0, _, x2 = x.T
        return kappa * np.array([x2, np.ones_like(x0), -x0]).T / (1.0 + r2(x))[..., None]

    return _entry("proj_sphere_killing", a, b, (-1.0, -1.0, -1.0), (1.0, 1.0, 1.0),
                  {"kappa": kappa},
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


def finite_real(value):
    """Whether ``value`` is a real number, no bool, within the float range (an
    int past it too: ``math.isfinite`` would overflow on it)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def get_metric(name, **params) -> CatalogEntry:
    """Construct a catalog entry by name with its documented parameters, each a finite real."""
    factory = _FACTORIES.get(name) if isinstance(name, str) else None
    if factory is None:
        raise UnknownName(f"no catalog metric {shown(name)}; known: {', '.join(catalog_names())}")
    known = inspect.signature(factory).parameters
    for key, value in params.items():
        if key not in known:
            raise UnknownName(f"{name} has no parameter {shown(key)}; known: "
                              f"{', '.join(known) or 'none'}")
        if not finite_real(value):
            raise ParamOutOfRange(f"{name} parameter {key!r} must be a finite real number, "
                                  f"got {shown(value)}")
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
