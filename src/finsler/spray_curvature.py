"""Spray coefficients by two routes and the full curvature bundle.

The (alpha, beta) route assembles the spray from the one-form calculus and the
phi scalar series, in exact fiber-jet arithmetic, so every y-derivative up to
the Douglas order is exact.  The generic route differentiates F^2 directly
(fiber jets in y, extrapolated differences in x) and serves as an independent
oracle.  Base-point derivatives of spray-level fields are one
``base_derivative`` gradient per field, the derivative axis last: one field
call on the whole stencil as a point stack, so ``spray_ab`` and ``fsq_jet``
run every (stencil point, direction) pair as one jet batch, and the stencil is
redone one point at a time if that batch raises.

``spray_ab``, ``spray_generic``, ``spray_data``, ``berwald``, ``douglas``,
``riemann``, ``riemann_flag``, ``s_curvature_def``, ``s_curvature_formula`` and
``h_curvature`` take one direction ``y`` or a ``(B, n)`` stack at one x, which
goes through as one jet batch and gives every field a leading B axis, each row
with the bits of its direction alone.  ``spray_ab`` and ``spray_data``, as
``fsq_jet`` and ``fundamental``, also take a ``(S, n)`` stack of x with an
``owner`` array: pair j is direction ``y[j]`` at point ``x[owner[j]]``, one
jet column per pair, so a whole grid's samples, with directions that differ
from point to point, go through as one batch (``pair_columns``); ``landsberg``
and ``s_curvature_def``, handed the pairs' fiber data, give one row per pair.
The classification and ``report``'s records run their grid this way;
:func:`pair_rows` cuts one point's rows out of such a batch's data.
:func:`per_direction` runs a caller's batch and, if it raises, redoes it one
direction at a time.

A sample's G, N and d^2 G come from one order-4 spray jet (``spray_data``),
which ``riemann`` and ``s_curvature_def`` compute unless handed it; a jet of
lower order gives the same bits, so the stencils and ``berwald`` run their own.
:func:`curvature_bundle` evaluates the fiber tensors at one point, each on
first read, from one copy of the fundamental data and of the order-4 spray
jet; ``report`` fills a bundle's ``fd``, ``spray``, ``L`` and ``S_def`` with
one point's rows of a pair batch.  A ``bc`` argument is the beta calculus of
x, if at hand (a row of the caller's stacked pass).

Both S-curvature routes read the slope d ln f / db of the Busemann-Hausdorff
f(b) of sigma_F = f(b) sqrt(det a), from one memoised unit-ball sweep per b
(``_unit_ball``): ``s_curvature_def`` through the gradient of ln sigma_F, in
closed form from it and x's d a and d b, and ``s_curvature_formula`` through
its density term.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFlag, DimensionError, DomainError, FinslerError
from .finsler_metric import (FundamentalData, _unit_ball, alpha_beta_jets, fsq_jet,
                             fundamental, pair_columns, sigma_bh)
from .geometry_core import MetricSpec, beta_derivatives
from .jets import base_derivative, jet_form, jet_variable
from .phi_families import PhiFamily, ab_scalars, spray_scalar_series


def per_direction(fn, Y):
    """``fn(Y)`` on a ``(B, n)`` stack, or, if it raises, ``fn(y)`` per direction.

    ``fn`` returns one item per direction; the fallback concatenates them, so
    every error, raised or recorded, is the one its direction raises alone.
    """
    try:
        return fn(Y)
    except FinslerError:
        return [item for y in Y for item in fn(y)]


def _spray_jets(bc, f: PhiFamily, y, order, owner=None):
    """G^i as fiber jets of the requested order, from the one-form calculus.

    A stacked ``bc`` runs the (point, direction) pairs of ``pair_columns``.
    """
    y, col = pair_columns(bc.x, y, owner)
    yj, _, alpha, s = alpha_beta_jets(col(bc.a), col(bc.b_i), f, y, order)
    q_t, theta_t, psi_t = spray_scalar_series(f, col(bc.b), s.value, order)
    Q = s.compose_series(q_t.coeffs)
    Theta = s.compose_series(theta_t.coeffs)
    Psi = s.compose_series(psi_t.coeffs)
    r, s_i, gamma, s_up, b_up = map(col, (bc.r, bc.s_i, bc.gamma, bc.s_up, bc.b_up))
    core = (jet_form(r, yj) - 2.0 * Q * alpha * jet_form(s_i, yj)) / alpha
    return [jet_form(0.5 * gamma[i], yj) + alpha * Q * jet_form(s_up[i], yj)
            + core * (Theta * yj[i] + alpha * Psi * b_up[i]) for i in range(bc.n)]


def spray_ab(m: MetricSpec, f: PhiFamily, x, y, order=0, bc=None, owner=None):
    """Spray coefficients G^i by the (alpha, beta) formula.

    With ``order`` 0 returns a plain array; otherwise a list of jets carrying
    exact y-derivatives up to ``order``.  A ``(S, n)`` stack of x takes its
    beta calculus from one stacked ``beta_derivatives`` and runs its
    (point, direction) pairs as one jet batch: every pair, point-major, and
    order 0 then gives a leading S axis; or, with ``owner``, direction
    ``y[j]`` at point ``x[owner[j]]`` (``pair_columns``).
    """
    x = np.asarray(x, dtype=float)
    bc = beta_derivatives(m, x) if bc is None else bc
    jets = _spray_jets(bc, f, y, order, owner)
    if order == 0:
        return _fiber(jets, 0, _pairs_shape(x, y, owner))
    return jets


def spray_generic(m: MetricSpec, f: PhiFamily, x, y):
    """Spray coefficients from F^2 directly; independent of the r/s calculus."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = m.n
    fd = fundamental(m, f, x, y)

    def fsq_and_grad(xp):  # [F^2, dF^2/dy^l] per (point, direction)
        jet = fsq_jet(m, f, xp, y, 1)
        both = np.concatenate((np.asarray(jet.value)[..., None], jet.tensor(1)), axis=-1)
        return both.reshape(_pairs_shape(xp, y) + (1 + n,))

    # d[..., k, 0] = dF^2/dx^k, d[..., k, 1 + l] = d^2F^2/dx^k dy^l
    d = np.moveaxis(base_derivative(fsq_and_grad, x), -1, -2)
    mixed = sum(y[..., k, None] * d[..., k, 1:] for k in range(n))
    return 0.25 * (fd.g_inv @ (mixed - d[..., 0])[..., None])[..., 0]


def _pairs_shape(x, y, owner=None):
    """The batch axes of the (point, direction) pairs of ``x`` and ``y``, one with ``owner``."""
    return np.shape(y)[:-1] if owner is not None else np.shape(x)[:-1] + np.shape(y)[:-1]


def _fiber(jets, k, lead=None):
    """k-th fiber derivatives of every G^i: shape ``(n,) * (k + 1)`` after any batch axis.

    ``lead`` splits the jet columns into batch axes (``_pairs_shape``).
    """
    T = np.array([j.tensor(k) for j in jets])
    if T.ndim == k + 1:
        return T
    T = np.ascontiguousarray(T.swapaxes(0, 1))
    return T if lead is None else T.reshape(lead + T.shape[1:])


def _berwald(jets, lead=None):
    B = _fiber(jets, 3, lead)
    return B, 0.5 * np.einsum("...mmij->...ij", B)


def berwald(m: MetricSpec, f: PhiFamily, x, y):
    """Berwald curvature B^i_jkl and its mean E_ij, from order-3 spray jets.

    A ``(S, n)`` stack of x gives a leading S axis, as ``spray_ab`` does.
    """
    return _berwald(spray_ab(m, f, x, y, order=3), _pairs_shape(x, y))


def landsberg(fd: FundamentalData, B):
    """Landsberg curvature L_jkl = -(1/2) y_i B^i_jkl."""
    return -0.5 * np.einsum("...i,...ijkl->...jkl", fd.y_low, B)


def douglas(m: MetricSpec, f: PhiFamily, x, y):
    """Douglas curvature: third fiber derivatives of the projective spray."""
    return spray_data(m, f, x, y).D


def douglas_2d_identity(cb: "CurvatureBundle"):
    """Residual of the surface decomposition of D through B, E and E_{jk,l}, at one y."""
    if cb.m.n != 2:
        raise DimensionError("surface identity requires n = 2")
    sd, delta = cb.spray, np.eye(2)
    rhs = sd.B - (2.0 / 3.0) * (
        np.einsum("jk,il->ijkl", sd.E, delta)
        + np.einsum("kl,ij->ijkl", sd.E, delta)
        + np.einsum("lj,ik->ijkl", sd.E, delta)
        + np.einsum("jkl,i->ijkl", sd.E_vert, cb.y))
    return sd.D - rhs


def berwald_2d_identity(cb: "CurvatureBundle"):
    """Residual of the surface decomposition of B through L, E and h, at one y."""
    if cb.m.n != 2:
        raise DimensionError("surface identity requires n = 2")
    fd, B, E = cb.fd, cb.B, cb.E
    y = fd.ell * fd.F
    h_mixed = fd.g_inv @ fd.h  # h^i_l
    rhs = (-2.0 / fd.F**2) * np.einsum("jkl,i->ijkl", cb.L, y) + (2.0 / 3.0) * (
        np.einsum("jk,il->ijkl", E, h_mixed)
        + np.einsum("kl,ij->ijkl", E, h_mixed)
        + np.einsum("jl,ik->ijkl", E, h_mixed))
    return B - rhs


def _bilinear(u, g, v):
    """u . g v over the last axes, with the bits of ``u @ g @ v`` per direction."""
    return (u[..., None, :] @ g @ v[..., :, None])[..., 0, 0]


def riemann(m: MetricSpec, f: PhiFamily, x, y, spray=None):
    """Riemann curvature R^i_k; ``spray`` is the ``spray_data`` of (x, y), if at hand."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sd = spray_data(m, f, x, y) if spray is None else spray

    def g_and_n(xp):  # [G^i, N^i_k] as an (n, 1 + n) array per (point, direction)
        jets, lead = spray_ab(m, f, xp, y, order=1), _pairs_shape(xp, y)
        return np.concatenate((_fiber(jets, 0, lead)[..., None], _fiber(jets, 1, lead)),
                              axis=-1)

    # d[..., i, j, 0] = dG^i/dx^j, d[..., i, j, 1 + k] = dN^i_k/dx^j; einsum
    # takes Gxy contiguous, as its last bits depend on the operand's layout
    d = np.moveaxis(base_derivative(g_and_n, x), -1, -2)
    Gx, Gxy = d[..., 0], np.ascontiguousarray(d[..., 1:])
    return (2.0 * Gx
            - np.einsum("...j,...ijk->...ik", y, Gxy)
            + 2.0 * np.einsum("...j,...ijk->...ik", sd.G, sd.G_jk)
            - sd.N @ sd.N)


def riemann_flag(m: MetricSpec, f: PhiFamily, x, y, u=None, g=None, R=None):
    """Riemann curvature R^i_k and (given or default transverse u) flag curvature.

    ``g`` and ``R`` take the caller's fundamental tensor and riemann.
    """
    y = np.asarray(y, dtype=float)
    if R is None:
        R = riemann(m, f, x, y)
    if u is None:
        if m.n != 2:
            return R, None
        u = np.stack([-y[..., 1], y[..., 0]], axis=-1)
    u = np.asarray(u, dtype=float)
    if g is None:
        g = fundamental(m, f, x, y).g
    # K is scale-invariant in y and u, so the denominator is judged against g(y,y) g(u,u)
    gyy, guu = _bilinear(y, g, y), _bilinear(u, g, u)
    denom = gyy * guu - _bilinear(y, g, u) ** 2
    if (np.abs(denom) < 1e-12 * gyy * guu).any():
        raise DegenerateFlag("flag denominator is numerically zero")
    K = _bilinear(u, g, (R @ u[..., None])[..., 0]) / denom
    return R, K


def ln_sigma_gradient(m: MetricSpec, f: PhiFamily, x, bc=None):
    """Gradient of ln sigma_F at ``x``, from one ``_unit_ball`` sweep; reusable across directions.

    d_k ln sigma_F = tr(a^-1 d_k a) / 2 + (d ln f / db) d_k b, with
    b d_k b = b^i d_k b_i - b^i b^j d_k a_ij / 2 from ``bc``, x's beta
    calculus (one pass of its own if not at hand); the second term is skipped
    where b = 0, as in the S formula.  An exception handed in as ``bc`` is
    raised again, after sigma's own error.
    """
    bc = beta_derivatives(m, x) if bc is None else bc
    if isinstance(bc, Exception):
        sigma_bh(m, f, x)
        raise bc
    slope = _unit_ball(f, bc.b, m.n)[1]
    grad = 0.5 * np.einsum("ij,kji->k", bc.a_inv, bc.da)
    if bc.b == 0.0:
        return grad
    db = bc.b_up @ bc.db - 0.5 * np.einsum("i,kij,j->k", bc.b_up, bc.da, bc.b_up)
    return grad + slope / bc.b * db


def s_curvature_def(m: MetricSpec, f: PhiFamily, x, y, grad_ln_sigma=None,
                    spray=None, bc=None):
    """S-curvature from its definition: spray divergence minus the drift of ln sigma.

    Pass a precomputed ``grad_ln_sigma`` when sweeping directions at one point,
    the ``spray_data`` of (x, y) when the caller already has it, and x's beta
    calculus ``bc`` if at hand.  One direction gives a float, a ``(B, n)``
    stack a ``(B,)`` array; a ``(B, n)`` ``grad_ln_sigma`` gives each
    direction its own gradient, as the pairs of a ``spray_data`` with
    ``owner`` need.
    """
    y = np.asarray(y, dtype=float)
    if spray is None:  # one calculus pass for the spray and the gradient
        bc = beta_derivatives(m, x) if bc is None else bc
        spray = spray_data(m, f, x, y, bc)
    div = sum(spray.N[..., i, i] for i in range(m.n))
    if grad_ln_sigma is None:
        grad_ln_sigma = ln_sigma_gradient(m, f, x, bc)
    S = div - (y[..., None, :] @ grad_ln_sigma[..., :, None])[..., 0, 0]
    return float(S) if S.ndim == 0 else S


def s_curvature_formula(m: MetricSpec, f: PhiFamily, x, y, bc=None):
    """S-curvature from the (alpha, beta) scalar formula with the Busemann-Hausdorff f(b)."""
    y = np.asarray(y, dtype=float)
    bc = beta_derivatives(m, x) if bc is None else bc
    # v_0 = v_i y^i per direction, with the bits of a one-direction dot product
    beta, r_0, s_0 = ((y[..., None, :] @ v[:, None])[..., 0, 0]
                      for v in (bc.b_i, bc.r_i, bc.s_i))
    alpha = np.sqrt(_bilinear(y, bc.a, y))
    sc = ab_scalars(f, bc.b, beta / alpha, m.n)
    # the density term multiplies r_0 + s_0 = b^i b_{i;0}, exactly 0 where
    # beta vanishes, and there (d ln f / db) / b is 0/0: skip it
    rs_0 = r_0 + s_0
    density = 0.0
    if (rs_0 != 0.0).any():
        slope = _unit_ball(f, bc.b, m.n)[1]
        density = np.where(rs_0 != 0.0, (2.0 * sc.Psi - slope / bc.b) * rs_0, 0.0)
    # Delta * Delta, not Delta ** 2: a float's ** is libm pow, an array's a
    # product, and they differ in the last bit for some Delta
    S = density - (sc.Phi / (2.0 * alpha * (sc.Delta * sc.Delta))
                   * (_bilinear(y, bc.r, y) - 2.0 * alpha * sc.Q * s_0))
    return float(S) if S.ndim == 0 else S


def h_curvature(m: MetricSpec, f: PhiFamily, x, y, spray=None):
    """H_ij: horizontal derivative of the mean Berwald curvature along the flow.

    dE_ij/dy^k is exact, ``E_vert`` of the order-4 spray jet (``spray``, the
    ``spray_data`` of (x, y), if at hand); dE_ij/dx^m is the
    ``base_derivative`` gradient of order-3 ``berwald`` jets.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sd = spray_data(m, f, x, y) if spray is None else spray
    Ex = base_derivative(lambda xp: berwald(m, f, xp, y)[1], x)
    return (np.einsum("...m,...ijm->...ij", y, Ex)
            - 2.0 * np.einsum("...k,...ijk->...ij", sd.G, sd.E_vert)
            - np.einsum("...kj,...ki->...ij", sd.E, sd.N)
            - np.einsum("...ik,...kj->...ij", sd.E, sd.N))


@dataclass
class SprayData:
    """The spray's fiber tensors at one (x, y), from one order-4 jet per G^i."""

    G: np.ndarray
    N: np.ndarray
    G_jk: np.ndarray  # connection coefficients d^2 G^i / dy^j dy^k
    B: np.ndarray  # Berwald curvature d^3 G^i / dy^j dy^k dy^l
    E: np.ndarray  # mean Berwald curvature
    E_vert: np.ndarray  # E_{jk,l} = d E_jk / dy^l
    D: np.ndarray  # Douglas curvature, from the projective spray


def pair_rows(data, part):
    """A pair batch's ``SprayData`` or ``FundamentalData`` at the pairs ``part``: every field's rows."""
    return type(data)(**{key: value[part] for key, value in vars(data).items()})


def spray_data(m: MetricSpec, f: PhiFamily, x, y, bc=None, owner=None) -> SprayData:
    """Every fiber tensor of the spray at (x, y), read off one order-4 jet.

    D comes from the projective spray G^i - (d_m G^m) y^i / (n + 1) by jet
    products, independently of B and E.  ``owner`` pairs as in ``pair_columns``.
    """
    y = np.asarray(y, dtype=float)
    n = m.n
    jets = spray_ab(m, f, x, y, order=4, bc=bc, owner=owner)
    B, E = _berwald(jets)
    d4 = _fiber(jets, 4)
    trace = jets[0].derivative(0)
    for i in range(1, n):
        trace = trace + jets[i].derivative(i)
    projective = [jets[i].truncate(3) - (1.0 / (n + 1)) * trace
                  * jet_variable(i, y[..., i], n, 3) for i in range(n)]
    return SprayData(G=_fiber(jets, 0), N=_fiber(jets, 1),
                     G_jk=_fiber(jets, 2), B=B, E=E,
                     E_vert=0.5 * sum(d4[..., mm, mm, :, :, :] for mm in range(n)),
                     D=_fiber(projective, 3))


class CurvatureBundle:
    """The curvature tensors at one x, for one direction or a ``(B, n)`` stack, B >= 1.

    Each field is computed on first read and kept; the tensors share one
    ``fd`` (``fundamental``) and one ``spray`` (``spray_data``, an order-4
    jet).  A field raises when read, so the caller's reading order fixes which
    error a sample reports.  ``grad_ln_sigma`` feeds ``S_def`` if at hand, and
    ``bc`` feeds ``spray``, ``S_formula`` and a gradient ``S_def`` computes
    itself, else is computed on first read; ``bc`` may also be the exception
    x's calculus raised (``grid_calculus``), raised again wherever it is read.

    A grid's (point, direction) pairs go through the fiber functions themselves,
    with ``owner``; ``report`` sets its bundles' fields to their points' rows.
    """

    def __init__(self, m: MetricSpec, f: PhiFamily, x, y, grad_ln_sigma=None, bc=None):
        self.m, self.f, self.grad_ln_sigma = m, f, grad_ln_sigma
        self.x, self.y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        self.dirs = np.reshape(self.y, (-1, m.n))  # y as a stack
        if not len(self.dirs):
            raise DomainError("curvature_bundle needs at least one direction, got an empty stack")
        self._bc = bc

    @cached_property
    def bc(self):
        """The ``bc`` handed in, else one pass of its own; a handed-in exception is raised."""
        if isinstance(self._bc, Exception):
            raise self._bc
        return beta_derivatives(self.m, self.x) if self._bc is None else self._bc

    fd = cached_property(lambda self: fundamental(self.m, self.f, self.x, self.y))
    spray = cached_property(lambda self: spray_data(self.m, self.f, self.x, self.y, self.bc))
    G = property(lambda self: self.spray.G)
    B = property(lambda self: self.spray.B)
    E = property(lambda self: self.spray.E)
    D = property(lambda self: self.spray.D)
    L = cached_property(lambda self: landsberg(self.fd, self.B))
    R = cached_property(lambda self: riemann(self.m, self.f, self.x, self.y, self.spray))
    S_def = cached_property(lambda self: s_curvature_def(
        self.m, self.f, self.x, self.y, self.grad_ln_sigma, self.spray, self.bc))
    S_formula = cached_property(lambda self: s_curvature_formula(self.m, self.f, self.x,
                                                                 self.y, self.bc))
    H = cached_property(lambda self: h_curvature(self.m, self.f, self.x, self.y, self.spray))

    @cached_property
    def K(self):
        """Flag curvature where n = 2, one ``riemann_flag`` call per direction, else ``None``."""
        if self.m.n != 2:
            return None
        K = np.array([riemann_flag(self.m, self.f, self.x, y, g=g, R=R)[1] for y, g, R in zip(
            self.dirs, np.reshape(self.fd.g, (-1, 2, 2)), np.reshape(self.R, (-1, 2, 2)))])
        return K[0] if self.y.ndim == 1 else K


#: ``curvature_bundle(m, f, x, y, grad_ln_sigma=None, bc=None)``:
#: every curvature tensor at x, for one direction or a ``(B, n)`` stack
curvature_bundle = CurvatureBundle
