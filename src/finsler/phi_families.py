"""The phi(s) families and the scalar machinery built on them.

Each family exposes its local Taylor expansion ``taylor(s0, order)``; every
downstream quantity (Q, Delta, Theta, Phi, Psi, spray scalars) is assembled
from those coefficients as univariate jets (``JetScalar`` with ``n_vars = 1``),
so all s-derivatives are exact.  The almost-regular family takes its values
from the paper's closed form (``UnicornPhi``), a whole sweep of s in one numpy
pass, and its derivatives from the first-order recurrence phi' = g * phi.
"""

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (DegenerateDenominator, DomainError, FinslerError, NonPositivePhi,
                     ParamOutOfRange, at_first)
from .exprparse import eval_expr, parse
from .jets import JetScalar, SplitBatch, jet_apply, jet_variable
from .series import over_columns


class PhiFamily:
    """Base class: a smooth phi(s) with Taylor expansions of any small order."""

    variant = "abstract"
    #: half-width of the admissible s-interval (inf when unrestricted)
    b0 = math.inf
    #: margin excluded near the singular endpoints of almost-regular families
    delta = 0.05

    # frozen once built: the f(b) memo keys on identity
    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot change")

    __delattr__ = __setattr__

    def taylor(self, s0, order):
        """phi's Taylor coefficients at ``s0``: ``(order + 1,)``, or a column per s of an array."""
        raise NotImplementedError

    def value(self, s):
        return float(self.taylor(s, 0)[0])

    def value_many(self, s):
        return self.taylor(np.asarray(s, dtype=float), 0)[0]

    def admissible(self, s):
        return abs(s) < self.b0 * (1.0 - self.delta)

    def require_admissible(self, s):  # at a float, or at the first bad s of an array
        ok = self.admissible(np.asarray(s))
        if not ok.all():
            raise DomainError(f"s={np.asarray(s)[~ok].ravel()[0]} outside admissible "
                              f"interval |s| < {self.b0}*(1-{self.delta})", columns=~ok)

    def check_positivity(self, b):
        """Positivity of phi and phi - s*phi' at 41 samples of the working interval."""
        half = min(b, self.b0) * (1.0 - self.delta)
        samples = np.linspace(-half, half, 41)
        for s, phi, dphi in zip(samples, *self.taylor(samples, 1)):
            if phi <= 0.0:
                raise NonPositivePhi(f"phi({s}) = {phi} <= 0")
            if phi - s * dphi <= 0.0:
                raise NonPositivePhi(f"(phi - s*phi')({s}) = {phi - s * dphi} <= 0")


class RandersPhi(PhiFamily):
    """phi(s) = 1 + s, regular on the whole cone |s| < 1."""

    variant = "randers"
    b0 = 1.0
    delta = 0.0

    def taylor(self, s0, order):
        c = np.zeros((order + 1,) + np.shape(s0))
        c[0] = 1.0 + s0
        c[1:2] = 1.0  # phi' = 1, where order >= 1
        return c


class RiemannSqrtPhi(PhiFamily):
    """phi(s) = sqrt(1 + k s^2); the Finsler metric is then Riemannian."""

    variant = "riemann_sqrt"

    def __init__(self, k):
        k = float(k)
        self.__dict__.update(k=k, b0=math.inf if k >= 0 else 1.0 / math.sqrt(-k))

    def taylor(self, s0, order):
        t = jet_variable(0, s0, 1, order)
        return jet_apply("sqrt", (1.0 + self.k * t * t,)).coeffs

    def value_many(self, s):  # NaN past b0, where 1 + k s^2 < 0: the caller refuses it
        q = 1.0 + self.k * np.asarray(s, dtype=float) ** 2
        return np.sqrt(np.where(q < 0.0, np.nan, q))


class UnicornPhi(PhiFamily):
    """Almost-regular family phi = c * exp(int_0^s g), singular at s = +-b0.

    g = (k t + q w) / D with w = sqrt(b0^2 - t^2) and D = 1 + k t^2 + q t w.
    With u = s / w, a = 1 + k b0^2, Q = q b0^2 / 2 and r = sqrt(a - Q^2),
    phi(s) = c sqrt(D(s)) exp((Q/r) [atan((a u + Q)/r) - atan(Q/r)]); the
    bracket is the one angle atan2(r s, w + Q s), free of its cancellation.
    a <= Q^2 puts a zero of D inside (-b0, b0), where phi is not positive.
    """

    variant = "unicorn"

    def __init__(self, b0, k, q, c, delta=0.05):
        if not (b0 > 0 and q > 0 and c > 0 and 0 <= delta < 1):
            raise ParamOutOfRange("unicorn family requires b0 > 0, q > 0, c > 0, 0 <= delta < 1")
        try:
            a, Q = 1.0 + k * b0**2, q * b0**2 / 2.0
        except OverflowError:  # a float b0**2 past the float range raises
            a = Q = math.inf
        if math.isinf(a) or math.isinf(Q):
            raise ParamOutOfRange("unicorn family requires 1 + k b0^2 and q b0^2 / 2 "
                                  "within the float range")
        if not a > Q * Q:  # D then has a zero inside (-b0, b0), or k is NaN
            raise ParamOutOfRange("unicorn family requires 1 + k b0^2 > (q b0^2 / 2)^2, "
                                  f"got {a} <= {Q * Q}")
        self.__dict__.update(b0=float(b0), k=float(k), q=float(q), c=float(c),
                             delta=float(delta), _Q=Q, _r=math.sqrt(a - Q * Q))

    def _g_series(self, s0, order):
        t = jet_variable(0, s0, 1, order)
        root = jet_apply("sqrt", (self.b0**2 - t * t,))
        return (self.k * t + self.q * root) / (1.0 + self.k * t * t + self.q * t * root)

    def value_many(self, s):
        s = np.asarray(s, dtype=float)
        self.require_admissible(s)
        w = np.sqrt(self.b0**2 - s * s)
        D = 1.0 + self.k * s * s + self.q * s * w
        Q, r = self._Q, self._r
        return self.c * np.sqrt(D) * np.exp(Q / r * np.arctan2(r * s, w + Q * s))

    def taylor(self, s0, order):
        s = np.array(s0, dtype=float, ndmin=1)
        c = np.zeros((order + 1, len(s)))
        c[0] = self.value_many(s)
        if order:
            g = self._g_series(s, order - 1).coeffs
            for m in range(order):  # phi' = g * phi, order by order
                # a stack of contiguous rows: per column, the bits of np.dot
                a, b = (np.ascontiguousarray(v.T) for v in (g[: m + 1], c[m::-1]))
                c[m + 1] = (a[:, None, :] @ b[:, :, None])[:, 0, 0] / (m + 1)
        return c if np.ndim(s0) else c[:, 0]


class CustomExprPhi(PhiFamily):
    """phi given by a user expression in s (with numeric parameters p1..p9)."""

    variant = "custom"

    def __init__(self, text, params=None, b0=math.inf, delta=0.05):
        params = MappingProxyType(dict(params or {}))  # read-only, like the family
        self.__dict__.update(text=text, params=params, ast=parse(text, {"s"} | set(params)),
                             b0=float(b0), delta=float(delta))

    def taylor(self, s0, order):
        return over_columns(lambda s: self._table(s, order), s0)

    def _table(self, s, order):
        t = jet_variable(0, s, 1, order)
        try:
            out = eval_expr(self.ast, {**self.params, "s": t})
        except SplitBatch as split:  # columns on different routes, each group batched
            c = np.empty((order + 1, len(s)))
            for cols in (split.args[0], ~split.args[0]):
                try:
                    c[:, cols] = self._table(s[cols], order)
                except FinslerError as exc:  # a fault of the group, naming the batch's columns
                    if np.shape(exc.columns) == (np.count_nonzero(cols),):
                        exc.columns = np.isin(np.arange(len(s)), np.flatnonzero(cols)[exc.columns])
                    raise
            return c
        return (out if isinstance(out, JetScalar) else t._coerce(out)).coeffs  # free of s


def phi_eval(f: PhiFamily, s):
    """(phi, phi', phi'', phi''') at s."""
    f.require_admissible(s)
    c = f.taylor(s, 3)
    return (c[0], c[1], 2.0 * c[2], 6.0 * c[3])


@dataclass
class AlphaBetaScalars:
    Q: float
    Qp: float
    Qpp: float
    Delta: float
    Theta: float
    Phi: float
    Psi: float


def _series(f: PhiFamily, s, order):
    """phi at s as a univariate jet of the given order, batched for an array of s."""
    return JetScalar(f.taylor(s, order), 1, order)


def _q_series(f: PhiFamily, s, order, phi=None):
    """Taylor series of Q = phi'/(phi - s phi') at s, to the given order.

    ``phi`` is phi's series at s to order + 1, if the caller has it.
    """
    if phi is None:
        phi = _series(f, s, order + 1)
    phip = phi.derivative(0)
    sv = jet_variable(0, s, 1, order)
    den = phi.truncate(order) - sv * phip
    if (bad := den.coeffs[0] <= 1e-12).any():
        raise DegenerateDenominator(f"phi - s*phi' = {at_first(den.value, bad)} "
                                    f"at s={at_first(s, bad)}", columns=bad)
    return phip / den


def ab_scalars(f: PhiFamily, b, s, n) -> AlphaBetaScalars:
    """The seven scalars Q, Q', Q'', Delta, Theta, Phi, Psi at (b, s), or at each s of an array."""
    if (bad := np.abs(s) > b + 1e-12).any():
        raise DomainError(f"|s|={np.max(np.abs(s))} exceeds b={b}", columns=bad)
    c = _q_series(f, s, 3).coeffs
    q, qp, qpp = c[0], c[1], 2.0 * c[2]
    delta = 1.0 + s * q + (b * b - s * s) * qp
    if (bad := delta <= 1e-12).any():
        raise DegenerateDenominator(f"Delta = {at_first(delta, bad)} "
                                    f"at (b={b}, s={at_first(s, bad)})", columns=bad)
    theta = (q - s * qp) / (2.0 * delta)
    phi_big = -(q - s * qp) * (n * delta + 1.0 + s * q) \
        - (b * b - s * s) * (1.0 + s * q) * qpp
    c = _series(f, s, 2).coeffs
    phi, phip, phipp = c[0], c[1], 2.0 * c[2]
    psi_den = (phi - s * phip) + (b * b - s * s) * phipp
    if (bad := np.abs(psi_den) <= 1e-300).any():
        raise DegenerateDenominator(f"Psi denominator ~0 at (b={b}, s={at_first(s, bad)})",
                                    columns=bad)
    psi = phipp / (2.0 * psi_den)
    return AlphaBetaScalars(Q=q, Qp=qp, Qpp=qpp, Delta=delta, Theta=theta,
                            Phi=phi_big, Psi=psi)


def ode_residual(f: PhiFamily, b, s):
    """Residual of Q'' - s Q'/(b^2-s^2) + Q/(b^2-s^2) = 0, at s or at each s of an array."""
    if (np.abs(s) >= b).any():
        raise DomainError(f"|s|={np.max(np.abs(s))} must be < b={b}")
    c = _q_series(f, s, 2).coeffs
    w = b * b - s * s
    r = 2.0 * c[2] - s * c[1] / w + c[0] / w
    return float(r) if np.ndim(r) == 0 else r


def spray_scalar_series(f: PhiFamily, b, s0, order):
    """Taylor series (in s at s0) of Q, Theta and Psi, used by the spray assembly.

    A ``(B,)`` array of s0 gives batched series.
    """
    phi = _series(f, s0, order + 2)
    q_big = _q_series(f, s0, order + 1, phi)
    qp = q_big.derivative(0)
    q = q_big.truncate(order)
    sv = jet_variable(0, s0, 1, order)
    delta = 1.0 + sv * q + (b * b - sv * sv) * qp
    if (bad := delta.coeffs[0] <= 1e-12).any():
        raise DegenerateDenominator(f"Delta = {at_first(delta.value, bad)} at (b="
                                    f"{at_first(b, bad)}, s={at_first(s0, bad)})", columns=bad)
    theta = (q - sv * qp) / (2.0 * delta)
    phip = phi.derivative(0)
    phipp = phip.derivative(0)
    psi = phipp / ((phi.truncate(order) - sv * phip.truncate(order)
                    + (b * b - sv * sv) * phipp) * 2.0)
    return q, theta, psi
