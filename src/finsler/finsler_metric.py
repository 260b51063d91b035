"""Fiber-level Finsler quantities for F = alpha * phi(beta/alpha).

Fundamental tensor, Cartan torsion and friends come from exact fiber jets of
F^2.  The Busemann-Hausdorff density is sigma_F = f(b) sqrt(det a), and its
factor f(b) and the slope d ln f / db, which the gradient of ln sigma_F and
the S formula read, come from one memoised sweep of the unit ball in one
frame, a = I with beta = b on the first axis, where F on the unit sphere
depends on the polar angle alone: a 1-D tanh-sinh rule in that angle serves
every dimension n (``_unit_ball``).
Fiber derivatives are never finite-differenced: g and C feed the
noise-critical Landsberg and flag computations.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DomainError, NonPositivePhi, SingularDirectionInQuadrature, SingularG,
                     ZeroVector)
from .geometry_core import MAX_ENTRY, MetricSpec, _inverse_cholesky, _inverse_spd
from .jets import jet_form, jet_variable
from .phi_families import PhiFamily


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
    if (bad := A.coeffs[0] <= 0.0).any():
        raise ZeroVector("alpha(x, y) must be positive", columns=bad)
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
    finite = np.isfinite(A.coeffs).all() and np.isfinite(phi.coeffs).all()
    with np.errstate(**({"over": "ignore", "invalid": "ignore"} if finite else {})):
        fsq = A * phi * phi
    if finite and not (ok := np.isfinite(fsq.coeffs).all(axis=0)).all():
        raise DomainError("F(x, y)^2 or one of its fiber derivatives overflows a float",
                          columns=~ok)
    if np.any(bad := fsq.value <= 0.0):  # phi <= 0, or F^2 under the float range
        raise NonPositivePhi("F(x, y)^2 must be positive", columns=bad)
    return fsq


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
        raise SingularG(str(exc), columns=getattr(exc, "columns", None)) from exc
    y_low = (g @ y[..., None])[..., 0]
    F_col = F[..., None]
    h = g - y_low[..., :, None] * y_low[..., None, :] / (F_col * F_col)[..., None]
    return FundamentalData(F=F, g=g, g_inv=g_inv, C=C, y_low=y_low,
                           ell=y / F_col, h=h)


@lru_cache(maxsize=None)
def _polar_nodes(n):
    """The unit-ball rule for dimension n: nodes u = cos(theta) and weights, read-only.

    At a = I with beta = b e_1, F on the unit sphere is phi(b u), a function of
    the polar angle theta, whose area element is sin^(n-2)(theta) dtheta up to
    a constant that f(b) cancels.  Tanh-sinh (Takahasi-Mori) in theta on
    [0, pi], t = k/30 for |k| <= 96, crowds the nodes doubly exponentially to
    the poles, where an elongated unit ball's radii peak.  Nodes whose u rounds
    to one float are merged, weights summed, and ordered from theta = 0: the
    poles u = +-1 are nodes.  S^0 (n = 1) is u = +-1, of weight 1.
    """
    if n == 1:
        u, w = np.array([1.0, -1.0]), np.ones(2)
    else:
        t = np.arange(-96, 97) / 30.0
        v = 0.5 * math.pi * np.sinh(t)
        theta = math.pi / (1.0 + np.exp(-2.0 * v))  # pi (1 + tanh v) / 2
        u, merged = np.unique(-np.cos(theta), return_inverse=True)  # -u ascends
        u, w = -u, np.bincount(merged, np.cosh(t) / np.cosh(v) ** 2 * np.sin(theta) ** (n - 2))
    for arr in (u, w):
        arr.flags.writeable = False
    return u, w


@lru_cache(maxsize=256)
def _unit_ball(f: PhiFamily, b, n):
    """``(f(b), d ln f / db)`` of the unit ball {y : |y| phi(b y_1 / |y|) < 1}.

    sigma_F = f(b) sqrt(det a) with f(b) = vol(B^n) / vol{F < 1} (Cheng-Shen),
    in the frame a = I, beta = b e_1.  One sweep of the rule (``_polar_nodes``)
    gives r = 1/F, f(b) = sum w / sum w r^n (so f(0) = 1 exactly) and,
    differentiated under the integral sign,
    d ln f / db = n sum w r^(n+1) phi'(b u) u / sum w r^n.  A node raises
    ``SingularDirectionInQuadrature`` where |s| passes the admissible
    b0 (1 - delta) of an almost-regular family, or F <= 0 or is not finite (an
    unbounded unit ball, as for Randers with b = 1), or F is so small or large
    that r^(n+1) would leave the float range.  Memoised on (f, b, n),
    the 256 most recent keys; a ``PhiFamily`` hashes by identity and is
    frozen, and the cache's strong reference keeps its id from reuse.
    """
    u, w = _polar_nodes(n)
    s = b * u
    F = f.value_many(s)
    half = f.b0 * (1.0 - f.delta)
    span = MAX_ENTRY ** (1.0 / (n + 1))  # F within it keeps r^(n+1) a float
    for fault, cause in ((np.abs(s) > half, f"|s| > b0 (1 - delta) = {half}"),
                         (~np.isfinite(F), "F is not finite"), (F <= 0.0, "F <= 0"),
                         ((F < 1.0 / span) | (F > span), f"F outside [1/{span:g}, {span:g}]")):
        if np.any(fault):
            raise SingularDirectionInQuadrature(
                f"{cause} at {int(np.sum(fault))} quadrature node(s)")
    r = 1.0 / F
    wr = w * r ** n
    vol = wr.sum()
    return float(w.sum() / vol), float(n * ((wr * r) @ (f.taylor(s, 1)[1] * u)) / vol)


def sigma_bh(m: MetricSpec, f: PhiFamily, x):
    """Busemann-Hausdorff volume density sigma_F(x) = vol(B^n) / vol{F(x, y) < 1}.

    = f(b) sqrt(det a) = f(b) / det L^-1 for a(x) = L L^T, with f(b) from the
    ``_unit_ball`` of b = |beta|_alpha = |L^-1 b(x)|.
    """
    to_y = _inverse_cholesky(m.a_at(x))
    fb = _unit_ball(f, float(np.linalg.norm(to_y @ m.b_at(x))), m.n)[0]
    return fb / float(np.prod(np.diag(to_y)))
