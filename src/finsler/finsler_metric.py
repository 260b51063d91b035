"""Fiber-level Finsler quantities for F = alpha * phi(beta/alpha).

Fundamental tensor, Cartan torsion and friends come from exact fiber jets of
F^2; the Busemann-Hausdorff density comes from a polar quadrature of the unit
ball.  Fiber derivatives are never finite-differenced: g and C feed the
noise-critical Landsberg and flag computations.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (DomainError, SingularDirectionInQuadrature, SingularG,
                     ZeroVector)
from .geometry_core import MetricSpec, _inverse_spd
from .jets import jet_form, jet_variable, per_column
from .phi_families import PhiFamily
from .quadrature import simpson_weights

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


def finsler_eval_many(m: MetricSpec, f: PhiFamily, x, Y):
    """Vectorized F over rows of ``Y``; returns (F values, s values)."""
    Y = np.asarray(Y, dtype=float)
    a = m.a_at(x)
    b = m.b_at(x)
    # term by term in this order: the bits of einsum("ki,ij,kj->k") at less
    # than half its cost (Y @ a, faster still, sums in another order)
    alpha2 = 0.0
    for i in range(m.n):
        for j in range(m.n):
            alpha2 = alpha2 + Y[:, i] * a[i, j] * Y[:, j]
    alpha = np.sqrt(alpha2)
    s = (Y @ b) / alpha
    return alpha * f.value_many(s), s


def alpha_beta_jets(a, b_i, f: PhiFamily, y, order):
    """Fiber jets of y^i, alpha^2, alpha and an admissible s = beta/alpha at y."""
    y = np.asarray(y, dtype=float)
    yj = [jet_variable(i, y[..., i], len(b_i), order) for i in range(len(b_i))]
    A = jet_form(a, yj)
    if (A.coeffs[0] <= 0.0).any():
        raise ZeroVector("alpha(x, y) must be positive")
    alpha = A ** 0.5
    s = jet_form(b_i, yj) / alpha
    for s0 in s.coeffs[:1].ravel().tolist():
        f.require_admissible(s0)
    return yj, A, alpha, s


def fsq_jet(m: MetricSpec, f: PhiFamily, x, y, order):
    """Jet of F^2 in the fiber variables, exact to ``order``; batched for a stack of y."""
    _, A, _, s = alpha_beta_jets(m.a_at(x), m.b_at(x), f, y, order)
    phi = s.compose_series(per_column(lambda s0: f.taylor(s0, order), s.value))
    return A * phi * phi


@dataclass
class FundamentalData:
    """F, fundamental tensor, Cartan torsion and derived fiber tensors at (x, y)."""

    F: float
    g: np.ndarray
    g_inv: np.ndarray
    C: np.ndarray  # C_ijk
    I: np.ndarray  # mean Cartan torsion I_i
    y_low: np.ndarray  # y_i = g_ij y^j
    ell: np.ndarray  # y^i / F
    h: np.ndarray  # angular metric h_ij

    def __getitem__(self, b):
        """The data of direction b of a batch."""
        return FundamentalData(*(getattr(self, fl.name)[b] for fl in fields(self)))


def fundamental(m: MetricSpec, f: PhiFamily, x, y) -> FundamentalData:
    """All fundamental-tensor data from an order-3 fiber jet of F^2, batched for a stack of y."""
    y = np.asarray(y, dtype=float)
    jet = fsq_jet(m, f, x, y, 3)
    F = np.sqrt(jet.value)
    g = 0.5 * jet.tensor(2)
    C = 0.25 * jet.tensor(3)
    try:
        g_inv = _inverse_spd(g, what="g_ij")
    except Exception as exc:
        raise SingularG(str(exc)) from exc
    I = np.einsum("...jk,...ijk->...i", g_inv, C)
    y_low = (g @ y[..., None])[..., 0]
    F_col = F[..., None]
    h = g - y_low[..., :, None] * y_low[..., None, :] / (F_col * F_col)[..., None]
    return FundamentalData(F=F, g=g, g_inv=g_inv, C=C, I=I, y_low=y_low,
                           ell=y / F_col, h=h)


def _radii(m, f, x, dirs, step_shift):
    """1/F on the given unit directions, shifting singular nodes once."""
    F, s = finsler_eval_many(m, f, x, dirs)
    half = f.b0 * (1.0 - f.delta)
    bad = (~np.isfinite(F)) | (F <= 0.0) | (np.abs(s) > half)
    shifted = bool(np.any(bad))
    if shifted:
        dirs2 = dirs.copy()
        dirs2[bad] = step_shift(dirs[bad])
        F2, s2 = finsler_eval_many(m, f, x, dirs2)
        still = (~np.isfinite(F2)) | (F2 <= 0.0) | (np.abs(s2) > half)
        if np.any(still):
            raise SingularDirectionInQuadrature(
                f"{int(np.sum(still))} quadrature nodes persistently singular")
        F = np.where(bad, F2, F)
    return 1.0 / F, shifted


@lru_cache(maxsize=None)
def _polar_nodes(n):
    """sigma_bh's grid for n = 2 or 3: (azimuthal step, read-only arrays).

    The arrays are the unit directions and the Simpson weights, plus sin(theta)
    on the grid for n = 3.  Built once per dimension, on first use.
    """
    if n == 2:
        n_int = 2048
        theta = np.linspace(0.0, 2.0 * math.pi, n_int + 1)
        h = theta[1] - theta[0]
        arrays = (np.column_stack([np.cos(theta), np.sin(theta)]),
                  simpson_weights(n_int))
    else:
        nt, np_ = 128, 256
        theta = np.linspace(0.0, math.pi, nt + 1)
        phi = np.linspace(0.0, 2.0 * math.pi, np_ + 1)
        ht, h = theta[1] - theta[0], phi[1] - phi[0]
        T, P = np.meshgrid(theta, phi, indexing="ij")
        dirs = np.column_stack([
            (np.sin(T) * np.cos(P)).ravel(),
            (np.sin(T) * np.sin(P)).ravel(),
            np.cos(T).ravel(),
        ])
        arrays = (dirs, simpson_weights(nt) * ht, simpson_weights(np_) * h,
                  np.sin(T))
    for arr in arrays:
        arr.flags.writeable = False
    return h, arrays


def sigma_bh(m: MetricSpec, f: PhiFamily, x, with_flag=False):
    """Busemann-Hausdorff volume density sigma_F(x).

    Unit-ball volume by polar quadrature: composite Simpson with 2048 intervals
    on the circle (n=2) or a 128 x 256 spherical grid (n=3).  The nodes and
    weights are built once per dimension, on first use, and shared read-only
    by later calls.  Singular nodes of almost-regular metrics are shifted by a
    half step; ``with_flag`` also returns whether any shift occurred.
    """
    n = m.n
    if n == 2:
        h, (dirs, w) = _polar_nodes(2)

        def shift(sub):
            ang = np.arctan2(sub[:, 1], sub[:, 0]) + 0.5 * h
            return np.column_stack([np.cos(ang), np.sin(ang)])

        r, shifted = _radii(m, f, x, dirs, shift)
        area = 0.5 * h * float(np.dot(w, r * r))
        sigma = _UNIT_BALL_VOLUME[2] / area
    elif n == 3:
        hp, (dirs, wt, wp, sin_t) = _polar_nodes(3)

        def shift(sub):
            # nudge azimuthally by half a step
            c, s_ = math.cos(0.5 * hp), math.sin(0.5 * hp)
            rot = np.array([[c, -s_, 0.0], [s_, c, 0.0], [0.0, 0.0, 1.0]])
            return sub @ rot.T

        r, shifted = _radii(m, f, x, dirs, shift)
        integrand = (r.reshape(sin_t.shape) ** 3) * sin_t / 3.0
        vol = float(wt @ integrand @ wp)
        sigma = _UNIT_BALL_VOLUME[3] / vol
    else:
        raise DomainError("sigma_bh supports n = 2 or 3 only")
    if with_flag:
        return sigma, shifted
    return sigma
