"""Fiber-level Finsler quantities for F = alpha * phi(beta/alpha).

Fundamental tensor, Cartan torsion and friends come from exact fiber jets of
F^2.  The Busemann-Hausdorff density sigma_F, the gradient of ln sigma_F and
the slope d ln f / db of its factor f(b) = sigma_F / sigma_alpha for the S
formula come from one polar rule of the unit ball (``unit_ball_sweep``) and
one slope of its volume, differentiated under the integral sign
(``_ln_sigma_slope``).  Fiber derivatives are never finite-differenced: g and
C feed the noise-critical Landsberg and flag computations.
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


def finsler_eval_many(f: PhiFamily, a, b, Y):
    """Vectorized F over rows of ``Y`` where a(x) = ``a`` and b(x) = ``b``; returns (F, s)."""
    Y = np.asarray(Y, dtype=float)
    # term by term in this order: the bits of einsum("ki,ij,kj->k") at less
    # than half its cost (Y @ a, faster still, sums in another order)
    alpha2 = 0.0
    for i in range(len(b)):
        for j in range(len(b)):
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


#: the largest max(r) / min(r) on the nodes of ``_polar_nodes(n)`` with a
#: relative error near 1e-14 (Randers with |b|_alpha = 0.987 for n = 2, 0.846
#: for n = 3); past it the sweep is redone on the 4x finer rule
_MAX_RADIUS_RATIO = {2: 150.0, 3: 12.0}


@lru_cache(maxsize=None)
def _polar_nodes(n, refine=1):
    """The unit-ball rule's nodes for n = 2 or 3, as read-only arrays.

    The unit directions z, the weights of vol = int r^n / n, and the table
    z (x) z of ``_ln_sigma_slope``, row k the flattened outer product of
    node k: the trapezoid rule on 256 azimuths (n = 2), or 32 Gauss-Legendre
    nodes in u = cos(theta) times the trapezoid rule on 64 azimuths (n = 3),
    each count times ``refine``, with 1/n folded into one product weight per
    node.  Built once per (n, refine), on first use; another n is a
    DimensionError.
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
    zz = (dirs[:, :, None] * dirs[:, None, :]).reshape(len(dirs), -1)
    for arr in (dirs, w, zz):
        arr.flags.writeable = False
    return dirs, w, zz


def unit_ball_sweep(f: PhiFamily, a, b_i):
    """One sweep of the unit-ball rule where a(x) = ``a`` and b(x) = ``b_i``:
    ``(L^-1, w, z, zz, r, s)``.

    L^-1 for a = L L^T, the rule's weights w, nodes z and z (x) z table
    (``_polar_nodes``), and r = 1/F and s = beta/alpha at y = L^-T z.  The
    nodes are the unit sphere's image under z -> z L^-1 (Jacobian det L^-1),
    so that the rule sees no anisotropy of a; the rule is redone 4x finer
    when the radii vary by more than ``_MAX_RADIUS_RATIO`` (|b|_alpha near 1).
    A node raises ``SingularDirectionInQuadrature`` where |s| passes the
    admissible b0 (1 - delta) of an almost-regular family, or F <= 0 or is
    not finite (an unbounded unit ball, as for Randers with |b|_alpha = 1).
    """
    to_y = _inverse_cholesky(a)
    half = f.b0 * (1.0 - f.delta)
    for refine in (1, 4):
        z, w, zz = _polar_nodes(len(b_i), refine)
        F, s = finsler_eval_many(f, a, b_i, z @ to_y)
        for fault, cause in ((np.abs(s) > half, f"|s| > b0 (1 - delta) = {half}"),
                             (~np.isfinite(F), "F is not finite"), (F <= 0.0, "F <= 0")):
            if np.any(fault):
                raise SingularDirectionInQuadrature(
                    f"{cause} at {int(np.sum(fault))} quadrature node(s)")
        r = 1.0 / F
        if r.max() <= _MAX_RADIUS_RATIO[len(b_i)] * r.min():
            break
    return to_y, w, z, zz, r, s


def _ln_sigma_slope(f: PhiFamily, sweep, da, db):
    """Slope of ln sigma_F along k variations (da[k], db[:, k]) of a and b, from one sweep.

    vol = det L^-1 sum w r^n over the sweep's nodes (r = 1/F at y = L^-T z,
    where alpha = 1), so d ln sigma = n sum w r^(n+1) dF / sum w r^n,
    differentiated under the integral sign with the frame L held, where
    dF = phi d alpha + phi' (d beta - s d alpha), d alpha = z^T (L^-1 da L^-T) z / 2
    and d beta = (L^-1 db) . z.
    """
    to_y, w, z, zz, r, s = sweep
    n = z.shape[1]
    # column k: L^-1 da[k] L^-T, flattened as the rows of the z (x) z table
    frame = (to_y @ da @ to_y.T).reshape(len(da), -1).T
    d_alpha = 0.5 * (zz @ frame)
    d_beta = z @ (to_y @ db)
    phi, dphi = f.taylor(s, 1)
    dF = phi[:, None] * d_alpha + dphi[:, None] * (d_beta - s[:, None] * d_alpha)
    wr = w * r ** n
    return n * ((wr * r) @ dF) / wr.sum()


def sigma_bh(m: MetricSpec, f: PhiFamily, x):
    """Busemann-Hausdorff volume density sigma_F(x) = vol(B^n) / vol{F(x, y) < 1}.

    The unit-ball volume int r^n / n, r = 1/F, over the alpha-unit sphere,
    from one ``unit_ball_sweep``; the rule converges exponentially for this
    smooth periodic integrand.
    """
    to_y, w, _, _, r, _ = unit_ball_sweep(f, m.a_at(x), m.b_at(x))
    vol = float(w @ r ** m.n) * float(np.prod(np.diag(to_y)))
    return _UNIT_BALL_VOLUME[m.n] / vol


@lru_cache(maxsize=256)
def _ln_density_slope(f: PhiFamily, b, n):
    """d ln f / db of the Busemann-Hausdorff f(b) = vol(B^n) / vol{y : |y| phi(b y_1 / |y|) < 1}.

    sigma_BH = f(b) sigma_alpha (Cheng-Shen): this is ``_ln_sigma_slope`` at
    a = I and beta = b y_1, along db = e_1 with a held.  Memoised on
    (f, b, n), the 256 most recent keys; a ``PhiFamily`` hashes by identity
    and is frozen, and the cache's strong reference keeps its id from reuse.
    """
    e_1 = np.eye(n)[0]
    sweep = unit_ball_sweep(f, np.eye(n), b * e_1)
    return float(_ln_sigma_slope(f, sweep, np.zeros((1, n, n)), e_1[:, None])[0])
