"""Adaptive Simpson quadrature for smooth 1-D integrands (the tests' phi oracle)."""

from .errors import EvaluationError


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=50):
    """Adaptive Simpson rule with the standard 15-fold error estimate."""
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fb, fm, whole, tol, max_depth)


def _simpson_step(f, a, b, fa, fb, fm, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0:
        raise EvaluationError("adaptive Simpson recursion depth exhausted")
    if abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return (_simpson_step(f, a, m, fa, fm, flm, left, tol / 2.0, depth - 1)
            + _simpson_step(f, m, b, fm, fb, frm, right, tol / 2.0, depth - 1))
