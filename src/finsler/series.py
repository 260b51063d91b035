"""Univariate Taylor-coefficient tables for the elementary functions.

``taylor_coeffs(tag, u0, order)`` returns the coefficients c_k = f^(k)(u0)/k!
of the elementary function ``tag`` at ``u0``: ``(L,)`` at a float, ``(L, B)`` at
a ``(B,)`` array.  Every jet composes through these tables, and a float is
evaluated as their order-0 entry, so the domain checks live here alone.  Each
column has the bits it has alone: libm and Python's ``**`` give values and
powers one float at a time (numpy's differ in the last bit).  A domain check
names its failing columns, and a batch that raises is redone through
``errors.by_columns``, so its error is the one its first failing column
raises alone.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, at_first, by_columns

#: denominators smaller than this are treated as exact singularities
TINY = 1e-300


def over_columns(table, *args):
    """``table(*args)`` at floats or at ``(B,)`` arrays (an arg shared or one per column,
    the table's columns last); a batch that raises is redone through ``by_columns``.

    The plain call comes first, so a batch that computes, as nearly every one
    does, pays nothing for the runner's index arrays.
    """
    try:
        return table(*args)
    except Exception:  # noqa: BLE001 - redone by columns: the error is its first failing one's
        per_column = [isinstance(a, np.ndarray) and a.ndim > 0 for a in args]
        if not any(per_column):
            raise
    return by_columns(lambda k: table(*(a[k] if c else a for a, c in zip(args, per_column))).T,
                      len(args[per_column.index(True)])).T


def _table(fn, fault, u0, *args):
    """``fn(u, *args)`` at the values ``u`` of ``u0``: ``(L, B)``, or ``(L,)`` at a float.

    A float overflow or zero divisor raises the :class:`DomainError`
    ``fault.format(u0, *args, exc=exc)`` with a batch's first values, which
    are the failing column's where ``over_columns`` redoes it alone.
    """
    u = np.array(u0, dtype=float, ndmin=1)
    try:
        c = fn(u, *args)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(fault.format(*(at_first(v, True) for v in (u0, *args)),
                                       exc=exc)) from exc
    return c if getattr(u0, "ndim", 0) else c[:, 0]


def _each(fn, u, args=None, divisor=False):
    """``fn`` per value of ``u`` on Python floats, in ``u``'s shape (a numpy float at a
    float), or one row ``fn(u, a)`` of a ``(B,)`` ``u`` per shared or per-value arg."""
    if args is None:
        if not np.ndim(u):  # one point's coordinate skips the array round trip
            return np.float64(fn(float(u)))
        return np.array(list(map(fn, u.ravel().tolist())), dtype=float).reshape(u.shape)
    vals = u.tolist()
    rows = [list(map(fn, vals, a.tolist() if isinstance(a, np.ndarray) else [a] * len(vals)))
            for a in args]
    if divisor and any(0.0 in row for row in rows):  # as float division raises
        raise ZeroDivisionError("float division by zero")
    return np.array(rows, dtype=float).reshape(len(rows), len(u))


def _refuse(bad, message, u):
    """A :class:`DomainError` naming the first value of ``u`` where ``bad`` holds, and ``bad``
    as its columns."""
    if np.count_nonzero(bad):
        raise DomainError(message.format(u.tolist()[bad.argmax()]), columns=bad)


@lru_cache(maxsize=None)
def _rows(order):
    """One row per order: k = 1..order, then (-1)^k and k! from k = 0."""
    k = np.arange(order + 1.0)[:, None]
    return k[1:], np.resize([1.0, -1.0], order + 1)[:, None], np.cumprod(np.maximum(k, 1.0), 0)


def taylor_coeffs(tag, u0, order):
    """Taylor coefficients of the elementary function ``tag`` at ``u0``.

    A coefficient that overflows, or a power of ``u0`` that underflows to a
    zero divisor, is a :class:`DomainError` like any other domain fault.
    """
    fault = "{1} at {0} leaves the float range: {exc}"
    return over_columns(lambda u0: _table(_coeffs, fault, u0, tag, order), u0)


def _coeffs(u, tag, order):
    c = np.zeros((order + 1, len(u)))
    k, sign, factorial = _rows(order)
    if tag == "exp":
        c[:] = _each(math.exp, u) / factorial
    elif tag == "log":
        _refuse(u <= 0.0, "log of non-positive value {}", u)
        c[0] = _each(math.log, u)
        c[1:] = sign[:-1] / (k * _each(pow, u, range(1, order + 1), divisor=True))
    elif tag == "sqrt":
        _refuse(u <= 0.0, "sqrt of non-positive value {}", u)
        c[0] = _each(math.sqrt, u)
        # binomial(1/2, k) * u0^(1/2 - k), the binomial a running product
        binom = np.multiply.accumulate((0.5 - (k - 1.0)) / k)
        c[1:] = binom * c[0] / _each(pow, u, range(1, order + 1), divisor=True)
    elif tag == "recip":
        _refuse(np.abs(u) < TINY, "division by ~0", u)
        c[:] = sign / _each(pow, u, range(1, order + 2), divisor=True)
    elif tag in ("sin", "cos"):
        sin, cos = _each(math.sin, u), _each(math.cos, u)
        cycle = np.array((sin, cos, -sin, -cos) if tag == "sin" else (cos, -sin, -cos, sin))
        c[:] = cycle[np.arange(order + 1) % 4] / factorial
    elif tag == "atan":
        # atan' = 1/(1 + u^2): c[1 + j] takes the reciprocal of the quadratic's
        # series at u0, term by term, then c_k = g_(k-1) / k
        c[0] = _each(math.atan, u)
        quad = np.zeros((max(order, 3), len(u)))
        quad[0], quad[1], quad[2] = 1.0 + u * u, 2.0 * u, 1.0
        for j in range(order):
            acc = 0.0
            for i in range(1, j + 1):
                acc += quad[i] * c[1 + j - i]
            c[1 + j] = (-acc if j else 1.0) / quad[0]
        c[1:] /= k
    else:
        raise ValueError(f"no Taylor table for tag {tag!r}")
    return c


def pow_coeffs(u0, p, order):
    """Taylor coefficients of u^p at ``u0`` for a real exponent ``p``, or one per column."""
    fault = "{0}^{1} overflows a float"
    return over_columns(lambda u0, p: _table(_pow_coeffs, fault, u0, p, order), u0, p)


def _pow_coeffs(u, p, order):
    _refuse(u <= 0.0, "real power of non-positive base {}", u)
    k = _rows(order)[0]
    c = _each(pow, u, [p - j for j in range(order + 1)])
    c[1:] *= np.multiply.accumulate((p - (k - 1.0)) / k)  # binomial(p, k)
    return c
