"""Univariate Taylor-coefficient tables for the elementary functions.

``taylor_coeffs(tag, u0, order)`` returns the coefficients c_k = f^(k)(u0)/k!
of the elementary function ``tag`` expanded at ``u0``.  Every jet, fiber jet
or univariate series alike, composes through these tables, and a float is
evaluated as their order-0 entry, so the domain checks live here alone.
"""

import math

import numpy as np

from .errors import DomainError

#: denominators smaller than this are treated as exact singularities
TINY = 1e-300


def _recip_series(poly, order):
    # reciprocal of a power series with nonzero constant term
    out = np.zeros(order + 1)
    out[0] = 1.0 / poly[0]
    for k in range(1, order + 1):
        acc = 0.0
        for j in range(1, k + 1):
            pj = poly[j] if j < len(poly) else 0.0
            acc += pj * out[k - j]
        out[k] = -acc / poly[0]
    return out


def taylor_coeffs(tag, u0, order):
    """Taylor coefficients of the elementary function ``tag`` at ``u0``.

    A coefficient that overflows, or a power of ``u0`` that underflows to a
    zero divisor, is a :class:`DomainError` like any other domain fault.
    """
    try:
        return _coeffs(tag, u0, order)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"{tag} at {u0} leaves the float range: {exc}") from exc


def _coeffs(tag, u0, order):
    c = np.zeros(order + 1)
    if tag == "exp":
        e = math.exp(u0)
        for k in range(order + 1):
            c[k] = e / math.factorial(k)
    elif tag == "log":
        if u0 <= 0.0:
            raise DomainError(f"log of non-positive value {u0}")
        c[0] = math.log(u0)
        for k in range(1, order + 1):
            c[k] = (-1.0) ** (k - 1) / (k * u0**k)
    elif tag == "sqrt":
        if u0 <= 0.0:
            raise DomainError(f"sqrt of non-positive value {u0}")
        r = math.sqrt(u0)
        c[0] = r
        # binomial(1/2, k) * u0^(1/2 - k)
        binom = 1.0
        for k in range(1, order + 1):
            binom *= (0.5 - (k - 1)) / k
            c[k] = binom * r / u0**k
    elif tag == "recip":
        if abs(u0) < TINY:
            raise DomainError("division by ~0")
        for k in range(order + 1):
            c[k] = (-1.0) ** k / u0 ** (k + 1)
    elif tag == "sin":
        cycle = (math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0))
        for k in range(order + 1):
            c[k] = cycle[k % 4] / math.factorial(k)
    elif tag == "cos":
        cycle = (math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0))
        for k in range(order + 1):
            c[k] = cycle[k % 4] / math.factorial(k)
    elif tag == "atan":
        # atan' = 1/(1 + u^2); expand the quadratic at u0 and invert the series
        c[0] = math.atan(u0)
        if order >= 1:
            quad = np.zeros(order)
            quad[0] = 1.0 + u0 * u0
            if order >= 2:
                quad[1] = 2.0 * u0
            if order >= 3:
                quad[2] = 1.0
            g = _recip_series(quad, order - 1)
            for k in range(1, order + 1):
                c[k] = g[k - 1] / k
    else:
        raise ValueError(f"no Taylor table for tag {tag!r}")
    return c


def pow_coeffs(u0, p, order):
    """Taylor coefficients of u^p at ``u0`` for real exponent ``p``."""
    if u0 <= 0.0:
        raise DomainError(f"real power of non-positive base {u0}")
    c = np.zeros(order + 1)
    try:
        c[0] = u0**p
        binom = 1.0
        for k in range(1, order + 1):
            binom *= (p - (k - 1)) / k
            c[k] = binom * u0 ** (p - k)
    except OverflowError as exc:
        raise DomainError(f"{u0}^{p} overflows a float") from exc
    return c
