"""Truncated Taylor-jet arithmetic: the package's one Taylor algebra.

A :class:`JetScalar` stores the Taylor coefficients of a scalar in ``n_vars``
variables up to total degree ``max_order``.  Arithmetic and the elementary
functions propagate coefficients exactly, so derivatives of any composed
expression up to ``max_order`` are exact up to roundoff.

Two uses share the class.  Fiber jets in the direction variables (``n_vars``
equal to the dimension) are capped at ``MAX_ORDER``, enough for the Douglas
tensor.  Univariate jets (``n_vars = 1``) are the series in the ratio
s = beta/alpha that the phi families expand in; they take any order, because
a quotient like Q = phi'/(phi - s phi') eats orders.  Every product of two
jets goes through one kernel over the truncated product table; a linear or
quadratic form in the coordinate jets (alpha^2, beta, r_00, the Christoffel
forms) is written in closed form instead, with the bits of those products
(:func:`jet_form`).  Every elementary function, on floats and jets alike,
goes through :func:`jet_apply`.

A jet may carry a trailing batch axis: ``coeffs`` of shape ``(K, B)`` holds B
jets, one per column, each with the bits it has alone, so one Python
operation serves B samples; so does one univariate table (:mod:`.series`).

Base-point (x-)derivatives are a different regime: the metric callables a(x)
and b(x) are plain functions that need not take jets, so every x-derivative of
a field goes through :func:`base_derivative`, the whole gradient of a scalar
or array field by Richardson-extrapolated central differences, with the
derivative axis last.  No quadrature sits behind it: the gradient of ln sigma
is a closed form in the stencils of a and b and the slope d ln f / db of one
memoised unit-ball sweep (``spray_curvature.ln_sigma_gradient``).  A gradient
is one field call on the whole stencil as a point stack, redone one point at
a time if that call raises, so an error names the stencil point that raises
alone.
"""

import math
import operator
from functools import lru_cache, partial
from itertools import product

import numpy as np

from .errors import ArityError, DomainError, EvaluationError
from .series import TINY, pow_coeffs, taylor_coeffs

#: order cap of multivariate jets; univariate jets are uncapped
MAX_ORDER = 4
_NUMBER = (int, float, np.floating, np.integer)


@lru_cache(maxsize=None)
def _tables(n_vars, max_order):
    """Multi-index list, index positions and the truncated product table."""
    idx = [m for m in product(range(max_order + 1), repeat=n_vars)
           if sum(m) <= max_order]
    idx.sort(key=lambda m: (sum(m), m))
    pos = {m: i for i, m in enumerate(idx)}
    ii, jj, kk = [], [], []
    for i, mi in enumerate(idx):
        di = sum(mi)
        for j, mj in enumerate(idx):
            if di + sum(mj) > max_order:
                continue
            ii.append(i)
            jj.append(j)
            kk.append(pos[tuple(a + b for a, b in zip(mi, mj))])
    return idx, pos, (np.array(ii), np.array(jj), np.array(kk))


@lru_cache(maxsize=None)
def _tensor_index(n_vars, max_order, k):
    """Positions and factorial weights of the k-th partials, row-major."""
    pos = _tables(n_vars, max_order)[1]
    multis = [tuple(map(axes.count, range(n_vars)))
              for axes in product(range(n_vars), repeat=k)]
    return (np.array([pos[m] for m in multis], dtype=int),
            np.array([math.prod(map(math.factorial, m)) for m in multis], dtype=float))


@lru_cache(maxsize=64)  # `check`, the widest command, builds 38
def _batch_bins(n_vars, max_order, width):
    """Bin of each (table entry, column) pair of a ``width``-column product."""
    kk = _tables(n_vars, max_order)[2][2]
    return (kk[:, None] * width + np.arange(width)).ravel()


class SplitBatch(Exception):
    """A batch whose columns take different routes: its ``args[0]`` masks one group."""


class JetScalar:
    """Dense truncated Taylor expansion of a scalar in ``n_vars`` variables."""

    __slots__ = ("coeffs", "n_vars", "max_order")
    # numpy defers to the jet: ``ndarray - jet`` is ``jet.__rsub__(ndarray)``
    __array_ufunc__ = None

    def __init__(self, coeffs, n_vars, max_order):
        if max_order < 0 or (n_vars > 1 and max_order > MAX_ORDER):
            raise ValueError(f"max_order must be >= 0, and <= {MAX_ORDER} "
                             "when n_vars > 1")
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.n_vars = n_vars
        self.max_order = max_order

    # -- construction -------------------------------------------------------

    @staticmethod
    def constant(value, n_vars, max_order):
        """Constant jet; a ``(B,)`` array of values gives a batch."""
        idx, _, _ = _tables(n_vars, max_order)
        c = np.zeros((len(idx),) + getattr(value, "shape", ()))
        c[0] = value
        return JetScalar(c, n_vars, max_order)

    # -- basic queries ------------------------------------------------------

    @property
    def value(self):
        """The constant term: a float, or a ``(B,)`` array for a batch."""
        return float(self.coeffs[0]) if self.coeffs.ndim == 1 else self.coeffs[0]

    def coeff(self, multi_index):
        _, pos, _ = _tables(self.n_vars, self.max_order)
        return float(self.coeffs[pos[tuple(multi_index)]])

    def partial(self, multi_index):
        """Partial derivative for the given multi-index (coefficient times factorials)."""
        fac = 1.0
        for m in multi_index:
            fac *= math.factorial(m)
        return self.coeff(multi_index) * fac

    def tensor(self, k):
        """All k-th partial derivatives as a symmetric ``(n_vars,) * k`` array.

        One gather over a cached index table; each entry has the bits of the
        matching :meth:`partial`.  A batch gives a leading B axis.
        """
        if not 0 <= k <= self.max_order:
            raise DomainError(f"k = {k} is outside 0..{self.max_order}")
        positions, weights = _tensor_index(self.n_vars, self.max_order, k)
        c = np.ascontiguousarray(self.coeffs[positions].T * weights)
        return c.reshape(self.coeffs.shape[1:] + (self.n_vars,) * k)

    def derivative(self, axis):
        """Jet of the partial derivative along ``axis``; order drops by one."""
        if self.max_order == 0:
            raise DomainError("cannot differentiate an order-0 jet")
        idx_out, pos_out, _ = _tables(self.n_vars, self.max_order - 1)
        _, pos_in, _ = _tables(self.n_vars, self.max_order)
        out = np.zeros((len(idx_out),) + self.coeffs.shape[1:])
        for i, m in enumerate(idx_out):
            shifted = list(m)
            shifted[axis] += 1
            out[i] = self.coeffs[pos_in[tuple(shifted)]] * shifted[axis]
        return JetScalar(out, self.n_vars, self.max_order - 1)

    def truncate(self, order):
        if order > self.max_order:
            raise ValueError("cannot truncate to a higher order")
        idx_out, _, _ = _tables(self.n_vars, order)
        return JetScalar(self.coeffs[: len(idx_out)].copy(), self.n_vars, order)

    # -- arithmetic ---------------------------------------------------------

    def _like(self, coeffs):
        return JetScalar(coeffs, self.n_vars, self.max_order)

    def _coerce(self, other):
        if isinstance(other, JetScalar):
            if other.n_vars != self.n_vars or other.max_order != self.max_order:
                raise DomainError("jet arithmetic requires equal n_vars and max_order")
            return other
        if isinstance(other, _NUMBER + (np.ndarray,)):
            # a constant of this jet's batch shape: a number, or one per column
            c = np.zeros(self.coeffs.shape)
            c[0] = other
            return self._like(c)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._like(self.coeffs + o.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._like(self.coeffs - o.coeffs)

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._like(o.coeffs - self.coeffs)

    def __mul__(self, other):
        if isinstance(other, _NUMBER):
            return self._like(self.coeffs * float(other))
        if isinstance(other, np.ndarray) and other.ndim == self.coeffs.ndim - 1:
            # one float per column: each column has the bits of its float product
            return self._like(self.coeffs * other)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # the one product kernel: each output coefficient sums its table
        # entries in table order, each column in its own bins (one column
        # where the jet has no batch axis)
        ii, jj, _ = _tables(self.n_vars, self.max_order)[2]
        w = self.coeffs[ii] * o.coeffs[jj]
        out = np.bincount(_batch_bins(self.n_vars, self.max_order, w[0].size),
                          weights=w.ravel(), minlength=self.coeffs.size)
        return self._like(out.reshape(self.coeffs.shape))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _NUMBER + (np.ndarray,)):  # a number, or one per column
            if np.any(abs(other) < TINY):
                raise DomainError("division by ~0")
            return self._like(self.coeffs / other)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o._compose("recip")

    def __rtruediv__(self, other):
        return self._compose("recip") * other

    def __neg__(self):
        return self._like(-self.coeffs)

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p < 0:
                return (self._compose("recip")) ** (-p)
            out, base, q = self._coerce(1.0), self, p
            finite = np.isfinite(self.coeffs).all()  # then an inf or NaN out is an overflow
            with np.errstate(**({"over": "ignore", "invalid": "ignore"} if finite else {})):
                while q:
                    if q & 1:
                        out = out * base
                    q >>= 1
                    base = base * base if q else base  # the last square goes unused
            bad = ~np.isfinite(out.coeffs).all(axis=0)
            if finite and bad.any():
                u = float(np.ravel(self.value)[np.ravel(bad).argmax()])
                raise DomainError(f"{u}^{p} overflows a float")
            return out
        return self.compose_series(pow_coeffs(self.value, p, self.max_order))

    # -- composition --------------------------------------------------------

    def compose_series(self, coeffs):
        """Compose with a univariate Taylor series given at this jet's value.

        ``coeffs[k]`` must be f^(k)(value)/k!; a batch takes an ``(L, B)``
        table, one series per column.  Exact to ``max_order`` because the
        offset jet has no constant term.
        """
        w = self._like(self.coeffs.copy())
        w.coeffs[0] = 0.0
        top = min(len(coeffs) - 1, self.max_order)
        out = JetScalar.constant(coeffs[top], self.n_vars, self.max_order)
        for k in range(top - 1, -1, -1):
            out = out * w + coeffs[k]
        return out

    def _compose(self, tag):
        return self.compose_series(taylor_coeffs(tag, self.value, self.max_order))

    def __repr__(self):
        return (f"JetScalar(value={self.value!r}, n_vars={self.n_vars}, "
                f"max_order={self.max_order})")


def jet_variable(index, point_value, n_vars, max_order):
    """Jet of the coordinate function y^index at ``point_value``, batched for an array."""
    if not 0 <= index < n_vars:
        raise DomainError(f"variable index {index} out of range for n_vars={n_vars}")
    j = JetScalar.constant(point_value, n_vars, max_order)
    if max_order >= 1:
        _, pos, _ = _tables(n_vars, max_order)
        unit = tuple(1 if i == index else 0 for i in range(n_vars))
        j.coeffs[pos[unit]] = 1.0
    return j


def jet_form(c, yj):
    """Jet of the form c_i y^i or c_ij y^i y^j in the coordinate jets ``yj``.

    ``yj`` must be the ``jet_variable`` jets of every coordinate: the form
    then has only a value, a gradient and a Hessian, written here with the
    bits of the kernel's products ``y_i * c_ij * y_j`` summed in index order.
    Each kernel bin holds the same products, summed from +0.0 in the same
    order, plus signed zeros, which leave such a sum unchanged.  A NaN or inf
    term takes the products, which spread it to every entry.  Batched jets
    take ``c`` with a trailing column axis, per column or of length 1.
    """
    n, order, v = yj[0].n_vars, yj[0].max_order, [y.coeffs[0] for y in yj]
    grad, hess = (_tensor_index(n, order, k)[0].reshape((n,) * k).tolist() if order >= k
                  else None for k in (1, 2))
    linear = c.ndim == yj[0].coeffs.ndim
    out = np.zeros(yj[0].coeffs.shape)
    for i in range(n) if linear else ():
        out[0] += v[i] * c[i]
        if order:
            out[grad[i]] += c[i]
    for i, j in () if linear else product(range(n), repeat=2):
        vc, cv = v[i] * c[i, j], c[i, j] * v[j]
        out[0] += vc * v[j]
        if order and i == j:  # the kernel sums this bin's two products first
            out[grad[i]] += vc + cv
        elif order:
            out[grad[j]] += vc
            out[grad[i]] += cv
        if order > 1:
            out[hess[i][j]] += c[i, j]
    if not np.isfinite(out[0]).all():
        return sum([y_i * c[i] for i, y_i in enumerate(yj)] if linear else
                   [y_i * c[i, j] * y_j for (i, y_i), (j, y_j) in product(enumerate(yj), repeat=2)],
                   yj[0]._coerce(0.0))
    return JetScalar(out, n, order)


def _elementary(tag, u):
    # a float, or a batch's float per column, is an order-0 jet: the same domain checks
    if isinstance(u, JetScalar):
        return u._compose(tag)
    c = taylor_coeffs(tag, u, 0)[0]
    return c if np.ndim(u) else float(c)


def _abs(u):
    if not isinstance(u, JetScalar):
        return abs(u)
    if u.max_order >= 1 and np.any(np.abs(u.value) < TINY):
        raise DomainError("abs is not differentiable at 0")
    return u._like(np.where(u.value < 0.0, -u.coeffs, u.coeffs))


def _div(u, v):
    if not isinstance(v, JetScalar) and np.any(abs(v) < TINY):
        raise DomainError("division by ~0")
    return u / v


def _pow(u, p):
    if isinstance(p, JetScalar):
        varies = np.any(p.coeffs[1:] != 0.0, axis=0)
        if np.all(varies):
            # the exponent varies: u^p = exp(p log u)
            return _elementary("exp", _elementary("log", u) * p)
        if np.any(varies):
            raise SplitBatch(varies)
        p = p.value
    if isinstance(u, JetScalar):
        whole = p[np.floor(p) == p] if np.ndim(p) else ()  # integers take the product route
        if len(whole):
            if np.any(p != whole[0]):
                raise SplitBatch(p == whole[0])
            p = float(whole[0])
        return u ** p
    if np.ndim(u) or np.ndim(p):  # one float per column, each through Python's pow
        return np.array([_pow(float(a), float(b)) for a, b in np.broadcast(u, p)])
    p = float(p)
    if p.is_integer():
        if p < 0.0 and abs(u) < TINY:
            raise DomainError("negative power of ~0")
    elif u <= 0.0:
        raise DomainError(f"real power of non-positive base {u}")
    try:
        return u ** int(p) if p.is_integer() else u ** p
    except OverflowError as exc:
        raise DomainError(f"{u}^{p} overflows a float") from exc


_UNARY = {"neg": operator.neg, "abs": _abs,
          **{tag: partial(_elementary, tag)
             for tag in ("sqrt", "exp", "log", "sin", "cos", "atan")}}
_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": _div, "pow": _pow}


def jet_apply(fn, args):
    """Apply an elementary-function tag to floats or jets.

    The one entry point for elementary functions: the expression evaluator and
    the phi families call it.  Outside its domain it raises
    :class:`DomainError`, on floats as on jets.
    """
    table = _UNARY if fn in _UNARY else _BINARY if fn in _BINARY else None
    if table is None:
        raise ArityError(f"unknown elementary-function tag {fn!r}")
    want = 1 if table is _UNARY else 2
    if len(args) != want:
        raise ArityError(f"{fn} expects {want} argument(s), got {len(args)}")
    return table[fn](*args)


#: the stencil of one axis, in steps of h: +h, -h, +2h, -2h
_STENCIL = np.array([1.0, -1.0, 2.0, -2.0])


def base_derivative(field, x):
    """Gradient of a scalar or array field at ``x`` by extrapolated differences.

    The one entry point for base-point (x-)derivatives; fiber derivatives come
    exact from jets.  Per chart axis k, one Richardson step over the central
    stencils with steps h and 2h, h = 1e-3 max(1, |x^k|): fourth-order
    accurate.  The derivative axis comes last, after the field's own axes,
    each entry with the bits of differencing that component alone.  A
    ``(P, n)`` stack gives a leading P axis, h per row, and each row the bits
    of its point.

    ``field`` takes one point ``(n,)`` or a ``(S, n)`` stack, and returns its
    value, or the values stacked along a leading S axis.  It is called once,
    on the whole stencil as a ``(4 n P, n)`` stack: axis 0 first, each axis at
    +h, -h, +2h, -2h, the rows of ``x`` in order.  If that call raises, the
    stencil is redone one point at a time in the same order, and the first
    point that raises is named in an :class:`EvaluationError`.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    steps = 1e-3 * np.maximum(1.0, abs(x))  # one h per point and axis
    offsets = np.multiply.outer(_STENCIL, steps)  # [j, ..., k]: step j along axis k
    points = np.empty((n, len(_STENCIL)) + x.shape)
    for k in range(n):
        points[k] = x
        points[k, ..., k] += offsets[..., k]
    try:
        values = np.asarray(field(points.reshape(-1, n)), dtype=float)
    except Exception:  # noqa: BLE001 - redone point by point, to name the point
        values = np.array([_evaluate(field, p, offset, k) for k in range(n)
                           for p, offset in zip(points[k].reshape(-1, n),
                                                offsets[..., k].ravel())])
    values = values.reshape(points.shape[:-1] + values.shape[1:])  # [k, j, ...]
    h = np.moveaxis(steps, -1, 0)
    h = h.reshape(h.shape + (1,) * (values.ndim - h.ndim - 1))  # over the field's axes
    d1, d2 = ((values[:, j] - values[:, j + 1]) / (2.0 * (step * h))
              for j, step in ((0, 1.0), (2, 2.0)))
    return np.ascontiguousarray(np.moveaxis((4.0 * d1 - d2) / 3.0, 0, -1))


def _evaluate(field, xp, offset, axis):
    """``field`` at the one stencil point ``xp``; a failure names its offset and axis."""
    try:
        return np.asarray(field(xp), dtype=float)
    except Exception as exc:  # noqa: BLE001 - surface stencil failures uniformly
        raise EvaluationError(
            f"field evaluation failed at offset {offset:+g} along axis {axis}: {exc}"
        ) from exc
