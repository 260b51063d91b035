"""The batched S formula gives the bits of the one-direction formula.

The reference below is the scalar route that ``s_curvature_formula`` took
before it accepted a ``(B, n)`` stack: the beta contractions, the seven
(alpha, beta) scalars and the Busemann-Hausdorff density term, one direction
at a time.  The engine must reproduce it exactly, compared by ``repr`` so that
a signed zero counts: ``report`` and ``table`` stdout are byte-stable.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.classify import default_directions, default_grid
from finsler.errors import (DegenerateDenominator, DimensionMismatch,
                            DomainError, FinslerError)
from finsler.finsler_metric import _unit_ball
from finsler.geometry_core import ChartDomain, MetricSpec, beta_derivatives
from finsler.phi_families import AlphaBetaScalars, UnicornPhi, _q_series
from finsler.spray_curvature import s_curvature_formula


@dataclass
class RefContractions:
    r_00: float
    r_0: float
    s_0: float
    r_i0: np.ndarray
    s_i0: np.ndarray
    s_up0: np.ndarray  # s^i_0


def ref_beta_contractions(bc, y):
    y = np.asarray(y, dtype=float)
    if y.shape != (bc.n,):
        raise DimensionMismatch(f"direction has shape {y.shape}, expected {(bc.n,)}")
    return RefContractions(
        r_00=float(y @ bc.r @ y),
        r_0=float(bc.r_i @ y),
        s_0=float(bc.s_i @ y),
        r_i0=bc.r @ y,
        s_i0=bc.s @ y,
        s_up0=bc.s_up @ y,
    )


def ref_ab_scalars(f, b, s, n):
    if abs(s) > b + 1e-12:
        raise DomainError(f"|s|={abs(s)} exceeds b={b}")
    qs = _q_series(f, s, 3)
    q, qp, qpp = (qs.partial((k,)) for k in range(3))
    delta = 1.0 + s * q + (b * b - s * s) * qp
    if delta <= 1e-12:
        raise DegenerateDenominator(f"Delta = {delta} at (b={b}, s={s})")
    theta = (q - s * qp) / (2.0 * delta)
    phi_big = -(q - s * qp) * (n * delta + 1.0 + s * q) \
        - (b * b - s * s) * (1.0 + s * q) * qpp
    c = f.taylor(s, 2)
    phi, phip, phipp = c[0], c[1], 2.0 * c[2]
    psi_den = (phi - s * phip) + (b * b - s * s) * phipp
    if abs(psi_den) <= 1e-300:
        raise DegenerateDenominator(f"Psi denominator ~0 at (b={b}, s={s})")
    psi = phipp / (2.0 * psi_den)
    return AlphaBetaScalars(Q=q, Qp=qp, Qpp=qpp, Delta=delta, Theta=theta,
                            Phi=phi_big, Psi=psi)


def ref_s_curvature_formula(m, f, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bc = beta_derivatives(m, x)
    con = ref_beta_contractions(bc, y)
    alpha = math.sqrt(float(y @ bc.a @ y))
    s = float(bc.b_i @ y) / alpha
    sc = ref_ab_scalars(f, bc.b, s, m.n)
    rs_0 = con.r_0 + con.s_0
    density = 0.0
    if rs_0 != 0.0:
        density = (2.0 * sc.Psi - _unit_ball(f, bc.b, m.n)[1] / bc.b) * rs_0
    return density - (sc.Phi / (2.0 * alpha * (sc.Delta * sc.Delta))
                      * (con.r_00 - 2.0 * alpha * sc.Q * con.s_0))


def _metric(name):
    """A catalog metric and phi, or ``unicorn``: an almost-regular phi.

    Its admissible cone is |s| < 0.665, and the one-form is longer than that
    near x1 = +-1, so that some directions, and there f(b), raise
    ``DomainError``.
    """
    if name != "unicorn":
        entry = get_metric(name)
        return entry.metric, entry.phi
    m = MetricSpec(n=2, a=lambda x: np.eye(2) * (1.0 + 0.2 * x[1] ** 2),
                   b_form=lambda x: np.array([0.3 + 0.5 * x[0] ** 2, 0.1 * x[1]]),
                   chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)), name="unicorn")
    return m, UnicornPhi(b0=0.7, k=0.3, q=1.0, c=1.0)


def _outcome(fn, *args):
    """``repr`` of fn's value as a float, or the type of the error it raises."""
    try:
        return repr(float(fn(*args)))
    except FinslerError as exc:
        return type(exc)


@pytest.mark.parametrize("name", catalog_names())
def test_batched_rows_have_the_reference_bits(name):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    Y = default_directions(m.n, 16)
    for x in default_grid(m):
        want = [_outcome(ref_s_curvature_formula, m, f, x, y) for y in Y]
        assert all(isinstance(w, str) for w in want)
        assert [_outcome(s_curvature_formula, m, f, x, y) for y in Y] == want
        batch = s_curvature_formula(m, f, x, Y)
        assert batch.shape == (len(Y),)
        assert [repr(float(v)) for v in batch] == want


def test_batched_rows_equal_one_direction_calls_property():
    # random chart points and 1-6 random directions: a batch gives, row by
    # row, the bits of each direction alone, or raises an error that one of
    # its directions raises alone
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from([*catalog_names(), "unicorn"]), st.data())
    def check(name, data):
        m, f = _metric(name)
        lo = np.asarray(m.chart_domain.lo, dtype=float)
        hi = np.asarray(m.chart_domain.hi, dtype=float)
        t = data.draw(hnp.arrays(float, m.n, elements=st.floats(0.05, 0.95)))
        x = lo + t * (hi - lo)
        hypothesis.assume(m.chart_domain.contains(x))
        shape = (data.draw(st.integers(1, 6)), m.n)
        Y = data.draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0)))
        hypothesis.assume(np.linalg.norm(Y, axis=1).min() > 0.1)
        alone = [_outcome(s_curvature_formula, m, f, x, y) for y in Y]
        assert alone == [_outcome(ref_s_curvature_formula, m, f, x, y) for y in Y]
        try:
            batch = s_curvature_formula(m, f, x, Y)
        except FinslerError as exc:
            assert type(exc) in alone
        else:
            assert [repr(float(v)) for v in batch] == alone

    check()
