"""Fiber-level Finsler quantities for F = alpha * phi(beta/alpha).

Fundamental tensor, Cartan torsion and friends come from exact fiber jets of
F^2.  The Busemann-Hausdorff density is sigma_F = f(b) sqrt(det a), and its
factor f(b) and the slope d ln f / db, which the gradient of ln sigma_F and
the S formula read, come from one memoised sweep of a polar rule of the unit
ball in one frame: a = I with beta = b on the first axis (``_unit_ball``).
Fiber derivatives are never finite-differenced: g and C feed the
noise-critical Landsberg and flag computations.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, SingularDirectionInQuadrature, SingularG, ZeroVector
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


#: the largest max(r) / min(r) on the nodes of ``_polar_nodes(n)`` with a
#: relative error near 1e-14 (Randers with |b|_alpha = 0.987 for n = 2, 0.846
#: for n = 3); past it the sweep is redone on the 4x finer rule
_MAX_RADIUS_RATIO = {2: 150.0, 3: 12.0}


@lru_cache(maxsize=None)
def _polar_nodes(n, refine=1):
    """The unit-ball rule's nodes for n = 2 or 3, as read-only arrays.

    The unit directions z and the weights of vol = int r^n / n: the
    trapezoid rule on 256 azimuths (n = 2), or 32 Gauss-Legendre nodes in
    u = cos(theta) times the trapezoid rule on 64 azimuths (n = 3), each count
    times ``refine``, with 1/n folded into one product weight per node.  The
    first axis lies in the equator plane, away from the poles u = +-1.  Built
    once per (n, refine), on first use; another n is a DimensionError.
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
    for arr in (dirs, w):
        arr.flags.writeable = False
    return dirs, w


@lru_cache(maxsize=256)
def _unit_ball(f: PhiFamily, b, n):
    """``(vol, d ln f / db)`` of the unit ball {z : |z| phi(b z_1 / |z|) < 1}.

    sigma_F = f(b) sqrt(det a) with f(b) = vol(B^n) / vol (Cheng-Shen): in
    z = L^T y, a = L L^T, turned so that beta lies on the first axis,
    F = |z| phi(b z_1 / |z|).  One sweep of the rule (``_polar_nodes``) gives
    r = 1/F, vol = sum w r^n and, differentiated under the integral sign,
    d ln f / db = n sum w r^(n+1) phi'(s) z_1 / sum w r^n.  The rule is redone
    4x finer when the radii vary by more than ``_MAX_RADIUS_RATIO`` (b near
    1).  A node raises ``SingularDirectionInQuadrature`` where |s| passes the
    admissible b0 (1 - delta) of an almost-regular family, or F <= 0 or is
    not finite (an unbounded unit ball, as for Randers with b = 1).
    Memoised on (f, b, n), the 256 most recent keys; a ``PhiFamily`` hashes
    by identity and is frozen, and the cache's strong reference keeps its id
    from reuse.
    """
    half = f.b0 * (1.0 - f.delta)
    for refine in (1, 4):
        z, w = _polar_nodes(n, refine)
        # |z| is 1 only to roundoff; dividing by it keeps the bits of d ln f / db
        alpha = np.sqrt(sum(z[:, i] * z[:, i] for i in range(n)))
        s = z[:, 0] * b / alpha
        F = alpha * f.value_many(s)
        for fault, cause in ((np.abs(s) > half, f"|s| > b0 (1 - delta) = {half}"),
                             (~np.isfinite(F), "F is not finite"), (F <= 0.0, "F <= 0")):
            if np.any(fault):
                raise SingularDirectionInQuadrature(
                    f"{cause} at {int(np.sum(fault))} quadrature node(s)")
        r = 1.0 / F
        if r.max() <= _MAX_RADIUS_RATIO[n] * r.min():
            break
    wr = w * r ** n
    dF = f.taylor(s, 1)[1] * z[:, 0]  # dF/db
    vol = wr.sum()
    return float(vol), float(n * ((wr * r) @ dF) / vol)


def sigma_bh(m: MetricSpec, f: PhiFamily, x):
    """Busemann-Hausdorff volume density sigma_F(x) = vol(B^n) / vol{F(x, y) < 1}.

    = vol(B^n) / (vol(b) det L^-1) for a(x) = L L^T, with vol(b) the
    ``_unit_ball`` of b = |beta|_alpha = |L^-1 b(x)|; the rule converges
    exponentially for this smooth periodic integrand.
    """
    a, b_i = m.a_at(x), m.b_at(x)
    to_y = _inverse_cholesky(a)
    vol = _unit_ball(f, float(np.linalg.norm(to_y @ b_i)), m.n)[0]
    return _UNIT_BALL_VOLUME[m.n] / (vol * float(np.prod(np.diag(to_y))))
