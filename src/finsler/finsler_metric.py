"""Fiber-level Finsler quantities for F = alpha * phi(beta/alpha).

Fundamental tensor, Cartan torsion and friends come from exact fiber jets of
F^2; the Busemann-Hausdorff density, and its factor f(b) = sigma_F / sigma_alpha
for the S formula, come from one polar quadrature of the unit ball.  Fiber
derivatives are never finite-differenced: g and C feed the noise-critical
Landsberg and flag computations.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DimensionError, NonPositiveDensity,
                     SingularDirectionInQuadrature, SingularG, ZeroVector)
from .geometry_core import MetricSpec, _inverse_cholesky, _inverse_spd
from .jets import jet_form, jet_variable
from .phi_families import PhiFamily

_UNIT_BALL_VOLUME = {2: math.pi, 3: 4.0 * math.pi / 3.0}


def finsler_eval(m: MetricSpec, f: PhiFamily, x, y):
    """F(x, y) = alpha * phi(beta/alpha)."""
    y = np.asarray(y, dtype=float)
    a = m.a_at(x)
    alpha2 = float(y @ a @ y)
    if alpha2 <= 0.0:
        raise ZeroVector("alpha(x, y) must be positive")
    alpha = math.sqrt(alpha2)
    s = float(m.b_at(x) @ y) / alpha
    f.require_admissible(s)
    return alpha * f.value(s)


def finsler_eval_many(m: MetricSpec, f: PhiFamily, x, Y, a=None, b=None):
    """Vectorized F over rows of ``Y``, given a(x) and b(x) if at hand; returns (F, s)."""
    Y = np.asarray(Y, dtype=float)
    a = m.a_at(x) if a is None else a
    b = m.b_at(x) if b is None else b
    # term by term in this order: the bits of einsum("ki,ij,kj->k") at less
    # than half its cost (Y @ a, faster still, sums in another order)
    alpha2 = 0.0
    for i in range(m.n):
        for j in range(m.n):
            alpha2 = alpha2 + Y[:, i] * a[i, j] * Y[:, j]
    alpha = np.sqrt(alpha2)
    s = (Y @ b) / alpha
    return alpha * f.value_many(s), s


def pair_columns(x, y, owner=None):
    """(Point, direction) pairs as jet columns: column j is ``y[j]`` at ``x[owner[j]]``.

    ``x`` is one point or a ``(S, n)`` stack, and ``owner`` indexes it once
    per row of ``y``.  Without ``owner`` every point pairs with ``y``, one
    direction or a ``(B, n)`` stack, point-major: ``owner = repeat(arange(S), B)``.
    Returns each column's direction, and ``col``, which lays a per-point field
    out as ``jet_form`` coefficients: unchanged for one pair, else with a
    trailing column axis (of length 1 at one point).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        if y.ndim == 1:
            return y, lambda v: v
        return y, lambda v: v if np.ndim(v) == 0 else v[..., None]
    if owner is None:
        owner = np.repeat(np.arange(len(x)), 1 if y.ndim == 1 else len(y))
        y = np.tile(y, (len(x), 1))
    return y, lambda v: np.moveaxis(v[owner], 0, -1)


def alpha_beta_jets(a, b_i, f: PhiFamily, y, order):
    """Fiber jets of y^i, alpha^2, alpha and an admissible s = beta/alpha at y.

    A stack of y takes ``a`` and ``b_i`` as per-column coefficients (``pair_columns``).
    """
    y = np.asarray(y, dtype=float)
    yj = [jet_variable(i, y[..., i], len(b_i), order) for i in range(len(b_i))]
    A = jet_form(a, yj)
    if (A.coeffs[0] <= 0.0).any():
        raise ZeroVector("alpha(x, y) must be positive")
    alpha = A ** 0.5
    s = jet_form(b_i, yj) / alpha
    f.require_admissible(s.coeffs[0])
    return yj, A, alpha, s


def fsq_jet(m: MetricSpec, f: PhiFamily, x, y, order, owner=None):
    """Jet of F^2 in the fiber variables, exact to ``order``; batched for a stack of y.

    A ``(S, n)`` stack of x runs its (point, direction) pairs, every one or
    those ``owner`` names (``pair_columns``), as one batch.
    """
    x = np.asarray(x, dtype=float)
    y, col = pair_columns(x, y, owner)
    _, A, _, s = alpha_beta_jets(col(m.a_at(x)), col(m.b_at(x)), f, y, order)
    phi = s.compose_series(f.taylor(s.value, order))
    return A * phi * phi


@dataclass
class FundamentalData:
    """F, fundamental tensor, Cartan torsion and derived fiber tensors at (x, y)."""

    F: float
    g: np.ndarray
    g_inv: np.ndarray
    C: np.ndarray  # C_ijk
    y_low: np.ndarray  # y_i = g_ij y^j
    ell: np.ndarray  # y^i / F
    h: np.ndarray  # angular metric h_ij


def fundamental(m: MetricSpec, f: PhiFamily, x, y, owner=None) -> FundamentalData:
    """All fundamental-tensor data from an order-3 fiber jet of F^2, batched for a stack of y
    (or of the (point, direction) pairs of ``owner``, ``pair_columns``)."""
    y = np.asarray(y, dtype=float)
    jet = fsq_jet(m, f, x, y, 3, owner)
    F = np.sqrt(jet.value)
    g = 0.5 * jet.tensor(2)
    C = 0.25 * jet.tensor(3)
    try:
        g_inv = _inverse_spd(g, what="g_ij")
    except Exception as exc:
        raise SingularG(str(exc)) from exc
    y_low = (g @ y[..., None])[..., 0]
    F_col = F[..., None]
    h = g - y_low[..., :, None] * y_low[..., None, :] / (F_col * F_col)[..., None]
    return FundamentalData(F=F, g=g, g_inv=g_inv, C=C, y_low=y_low,
                           ell=y / F_col, h=h)


def _radii(m, f, x, ab, dirs, h, to_y):
    """1/F and s at the directions ``dirs @ to_y``, and the nodes they were taken at;
    ``ab`` is the pair a(x), b(x).

    A node past the admissible |s| of an almost-regular family turns by h/2
    about the polar axis, and the nodes returned are then a copy of ``dirs``
    with those rows turned.  F <= 0 or non-finite at a node raises: there the
    unit ball is unbounded or undefined, and no turned node would measure it.
    """
    F, s = finsler_eval_many(m, f, x, dirs @ to_y, *ab)
    half = f.b0 * (1.0 - f.delta)
    bad = np.abs(s) > half
    if np.any(bad):
        c, s_ = math.cos(0.5 * h), math.sin(0.5 * h)
        rot = np.eye(m.n)
        rot[:2, :2] = [[c, -s_], [s_, c]]
        dirs = dirs.copy()
        dirs[bad] = dirs[bad] @ rot.T
        F[bad], s[bad] = finsler_eval_many(m, f, x, dirs[bad] @ to_y, *ab)
        still = np.abs(s) > half
        if np.any(still):
            raise SingularDirectionInQuadrature(
                f"{int(np.sum(still))} quadrature nodes persistently singular")
    for fault, cause in ((~np.isfinite(F), "is not finite"), (F <= 0.0, "<= 0")):
        if np.any(fault):
            raise SingularDirectionInQuadrature(
                f"F {cause} at {int(np.sum(fault))} quadrature node(s)")
    return 1.0 / F, s, dirs


#: the largest max(r) / min(r) on the nodes of ``_polar_nodes(n)`` with a
#: relative error near 1e-14 (Randers with |b|_alpha = 0.987 for n = 2, 0.846
#: for n = 3); past it the sweep is redone on the 4x finer rule
_MAX_RADIUS_RATIO = {2: 150.0, 3: 12.0}


@lru_cache(maxsize=None)
def _polar_nodes(n, refine=1):
    """sigma_bh's nodes for n = 2 or 3: (azimuthal step, read-only arrays).

    The arrays are the unit directions z, the weights of vol = int r^n / n,
    and the table z (x) z of ``ln_sigma_gradient``, row k the flattened outer
    product of node k: the trapezoid rule on 256 azimuths (n = 2), or 32
    Gauss-Legendre nodes in u = cos(theta) times the trapezoid rule on 64
    azimuths (n = 3), each count times ``refine``, with 1/n folded into one
    product weight per node.  Built once per (n, refine), on first use;
    another n is a DimensionError.
    """
    if n not in _UNIT_BALL_VOLUME:
        raise DimensionError("sigma_bh supports n = 2 or 3 only")
    n_az = (256 if n == 2 else 64) * refine
    h = 2.0 * math.pi / n_az
    phi = h * np.arange(n_az)
    if n == 2:
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
        w = np.full(n_az, 0.5 * h)
    else:
        u, wu = np.polynomial.legendre.leggauss(32 * refine)
        rho = np.sqrt(1.0 - u * u)[:, None]
        dirs = np.column_stack([(rho * np.cos(phi)).ravel(),
                                (rho * np.sin(phi)).ravel(), np.repeat(u, n_az)])
        w = np.repeat(wu * (h / 3.0), n_az)
    zz = _outer_rows(dirs)
    for arr in (dirs, w, zz):
        arr.flags.writeable = False
    return h, (dirs, w, zz)


def _outer_rows(z):
    """Row k the flattened outer product z[k] (x) z[k]: ``(N, n * n)``."""
    return (z[:, :, None] * z[:, None, :]).reshape(len(z), -1)


def unit_ball_sweep(m: MetricSpec, f: PhiFamily, x):
    """One sweep of ``sigma_bh``'s rule at x: ``(L^-1, w, z, zz, r, s)``.

    L^-1 for a(x) = L L^T, the weights w, the nodes z the sweep was taken at
    (the rule's, or a copy with turned rows) and their z (x) z table, and
    r = 1/F and s = beta/alpha at y = L^-T z.  The nodes are the unit
    sphere's image under z -> z L^-1 (Jacobian det L^-1), so that the rule
    sees no anisotropy of a: the trapezoid rule on 256 azimuths (n = 2), or
    32 Gauss-Legendre nodes in cos(theta) x 64 azimuths (n = 3), redone 4x
    finer when the radii vary by more than ``_MAX_RADIUS_RATIO`` (|b|_alpha
    near 1).  F <= 0 or non-finite at a node (an unbounded unit ball, as for
    Randers with |b|_alpha = 1) raises ``SingularDirectionInQuadrature``.
    """
    a = m.a_at(x)
    to_y = _inverse_cholesky(a)
    ab = a, m.b_at(x)  # once per sweep, for every node
    for refine in (1, 4):
        h, (dirs, w, zz) = _polar_nodes(m.n, refine)
        r, s, z = _radii(m, f, x, ab, dirs, h, to_y)
        if r.max() <= _MAX_RADIUS_RATIO[m.n] * r.min():
            break
    return to_y, w, z, zz if z is dirs else _outer_rows(z), r, s


def sigma_bh(m: MetricSpec, f: PhiFamily, x):
    """Busemann-Hausdorff volume density sigma_F(x) = vol(B^n) / vol{F(x, y) < 1}.

    The unit-ball volume int r^n / n, r = 1/F, over the alpha-unit sphere,
    from one ``unit_ball_sweep``; the rule converges exponentially for this
    smooth periodic integrand.
    """
    to_y, w, _, _, r, _ = unit_ball_sweep(m, f, x)
    vol = float(w @ r ** m.n) * float(np.prod(np.diag(to_y)))
    return _UNIT_BALL_VOLUME[m.n] / vol


@lru_cache(maxsize=256)
def _angular_density(f: PhiFamily, b, n):
    """Busemann-Hausdorff f(b) = vol(B^n) / vol{y : |y| phi(b y_1 / |y|) < 1}.

    sigma_BH = f(b) sigma_alpha (Cheng-Shen); this is ``sigma_bh``'s rule and
    refine switch at a = I, with beta off the polar axis of the n = 3 rule,
    where it is more accurate near b = 1.  Memoised on (f, b, n), the 256
    most recent keys; a ``PhiFamily`` hashes by identity and is frozen, and
    the cache's strong reference keeps its id from reuse.
    """
    for refine in (1, 4):
        _, (dirs, w, _) = _polar_nodes(n, refine)
        phi = f.value_many(b * dirs[:, 0])
        if not np.all(phi > 0.0):  # also false where phi is NaN
            raise NonPositiveDensity(f"phi <= 0 or not finite on the unit sphere at b = {b}")
        if phi.max() <= _MAX_RADIUS_RATIO[n] * phi.min():
            break
    return _UNIT_BALL_VOLUME[n] / float(w @ (1.0 / phi) ** n)
