"""phi families and the Q / Delta / Theta / Phi / Psi scalar machinery."""

import math

import numpy as np
import pytest

from finsler.errors import (DegenerateDenominator, DomainError, NonPositivePhi,
                            ParamOutOfRange)
from finsler.phi_families import (CustomExprPhi, RandersPhi, RiemannSqrtPhi,
                                  UnicornPhi, _q_series, ab_scalars,
                                  ode_residual, phi_eval, spray_scalar_series)
from finsler.quadrature import adaptive_simpson


class TestRanders:
    def test_values_and_derivatives(self):
        f = RandersPhi()
        phi, d1, d2, d3 = phi_eval(f, 0.3)
        assert phi == pytest.approx(1.3)
        assert d1 == pytest.approx(1.0)
        assert d2 == pytest.approx(0.0)
        assert d3 == pytest.approx(0.0)

    def test_q_is_constant_one(self):
        f = RandersPhi()
        for s in (-0.5, 0.0, 0.4):
            q = _q_series(f, s, 2)
            assert q.coeffs[0] == pytest.approx(1.0)
            assert abs(q.coeffs[1]) < 1e-14

    def test_admissibility(self):
        # regular on the whole cone |s| < 1, with no margin
        f = RandersPhi()
        f.require_admissible(0.99)
        with pytest.raises(DomainError):
            f.require_admissible(1.0)


class TestRiemannSqrt:
    def test_q_linear_in_s(self):
        k = 2.0
        f = RiemannSqrtPhi(k)
        for s in (-0.4, 0.1, 0.7):
            q, qp = _q_series(f, s, 1).coeffs
            assert q == pytest.approx(k * s, abs=1e-12)
            assert qp == pytest.approx(k, abs=1e-12)

    def test_negative_k_has_finite_b0(self):
        f = RiemannSqrtPhi(-4.0)
        assert f.b0 == pytest.approx(0.5)
        with pytest.raises(DomainError):
            f.require_admissible(0.49)  # inside b0 but outside the delta margin

    def test_values(self):
        f = RiemannSqrtPhi(3.0)
        assert f.value(0.5) == pytest.approx(math.sqrt(1.75))
        assert np.allclose(f.value_many(np.array([0.0, 0.2])),
                           np.sqrt(1 + 3 * np.array([0.0, 0.2]) ** 2))


def _unicorn_g(f, t):
    """g = phi'/phi of the almost-regular family."""
    w = math.sqrt(f.b0**2 - t * t)
    return (f.k * t + f.q * w) / (1.0 + f.k * t * t + f.q * t * w)


def _unicorn_oracle(f, s, tol=1e-14):
    """phi(s) = c exp(int_0^s g) by adaptive Simpson, the definition.

    At tol = 1e-12 the rule can be off by 1.2e-12 relative (b0 = c = 1,
    k = 0.509765625, q = 1.5, s = 0.509765625 against 40-digit mpmath).
    """
    return f.c * math.exp(adaptive_simpson(lambda t: _unicorn_g(f, t), 0.0, s, tol=tol))


class TestUnicorn:
    def test_param_validation(self):
        with pytest.raises(ParamOutOfRange):
            UnicornPhi(1.0, 0.0, -1.0, 1.0)
        with pytest.raises(ParamOutOfRange):
            UnicornPhi(-1.0, 0.0, 1.0, 1.0)
        # a negative margin admits |s| > b0, where sqrt(b0^2 - s^2) is NaN
        for delta in (-0.1, 1.0):
            with pytest.raises(ParamOutOfRange, match="0 <= delta < 1"):
                UnicornPhi(1.0, 0.0, 1.0, 1.0, delta=delta)

    def test_d_with_a_zero_in_the_cone_is_rejected(self):
        # a = 1 + k b0^2 = 1 = Q^2 with Q = q b0^2 / 2: D = 1 + sin(2 theta)
        # has a double zero at s = -1/sqrt(2), inside the admissible interval
        with pytest.raises(ParamOutOfRange, match=r"1 \+ k b0\^2 > \(q b0\^2 / 2\)\^2"):
            UnicornPhi(1.0, 0.0, 2.0, 1.0)
        for k, q in ((0.0, 3.0), (math.nan, 1.0)):
            with pytest.raises(ParamOutOfRange):
                UnicornPhi(1.0, k, q, 1.0)
        # just above: a - Q^2 = 0.01, and D dips to 0.005 at s = -1/sqrt(2),
        # where the rule runs out of depth at tol = 1e-14
        f = UnicornPhi(1.0, 0.0, 1.99, 1.0)
        for s in (-0.9, -1.0 / math.sqrt(2.0), -0.3, 0.5):
            assert 0.0 < f.value(s) == pytest.approx(_unicorn_oracle(f, s, 1e-12), rel=1e-10)

    def test_phi_at_zero_is_c(self):
        f = UnicornPhi(1.0, 0.3, 0.7, 2.5)
        assert f.value(0.0) == pytest.approx(2.5)

    def test_q_closed_form(self):
        b0, k, q = 0.9, -0.1, 0.6
        f = UnicornPhi(b0, k, q, 1.0)
        for s in np.linspace(-0.8, 0.8, 9):
            Q = _q_series(f, s, 0).value
            assert Q == pytest.approx(k * s + q * math.sqrt(b0 * b0 - s * s),
                                      abs=1e-10)

    def test_taylor_matches_quadrature_values(self):
        f = UnicornPhi(1.0, 0.2, 0.5, 1.0)
        c = f.taylor(0.1, 3)
        h = 1e-4
        d1 = (_unicorn_oracle(f, 0.1 + h) - _unicorn_oracle(f, 0.1 - h)) / (2 * h)
        assert c[0] == pytest.approx(_unicorn_oracle(f, 0.1), rel=1e-12)
        assert c[1] == pytest.approx(d1, abs=1e-7)

    def test_ode_residual_zero_at_b0(self):
        f = UnicornPhi(1.0, 0.3, 0.7, 1.0)
        for s in (-0.6, 0.0, 0.5):
            assert abs(ode_residual(f, 1.0, s)) < 1e-10

    def test_singular_margin(self):
        f = UnicornPhi(1.0, 0.0, 1.0, 1.0, delta=0.1)
        with pytest.raises(DomainError):
            f.value(0.95)
        with pytest.raises(DomainError, match="s=-0.95 outside"):
            f.value_many(np.array([[0.1, -0.95], [0.97, 0.0]]))

    def test_closed_form_matches_the_quadrature_oracle(self):
        # random parameters with a = 1 + k b0^2 clear of Q^2 = (q b0^2 / 2)^2
        # (nearer, the oracle's own rule runs out of depth; the a = Q^2 edge
        # has its own test) and random admissible s: the closed form against
        # the definition, a sweep against scalar calls bit for bit, and
        # taylor's phi' = g phi recurrence against 40-digit finite differences
        # (mpmath.taylor) of the paper's closed form
        hypothesis = pytest.importorskip("hypothesis")
        mp = pytest.importorskip("mpmath")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.floats(0.3, 3.0), st.floats(-0.9, 2.0), st.floats(0.05, 3.0),
                          st.floats(0.1, 5.0),
                          st.lists(st.floats(-0.94, 0.94), min_size=1, max_size=8))
        def check(b0, kb, qb, c, ts):
            hypothesis.assume(1.0 + kb - (qb / 2.0) ** 2 > 0.25)  # a - Q^2
            f = UnicornPhi(b0, kb / b0**2, qb / b0**2, c)
            s = b0 * np.array(ts)
            sweep = f.value_many(s)
            for v, phi in zip(s, sweep):
                assert phi == f.value(v) == f.value_many([v])[0]
                assert phi == pytest.approx(_unicorn_oracle(f, v), rel=1e-12)

            def closed_form(t):
                b0, k, q, c = map(mp.mpf, (f.b0, f.k, f.q, f.c))
                w = mp.sqrt(b0**2 - t * t)
                a, Q = 1 + k * b0**2, q * b0**2 / 2
                r = mp.sqrt(a - Q * Q)
                angle = mp.atan((a * t / w + Q) / r) - mp.atan(Q / r)
                return c * mp.sqrt(1 + k * t * t + q * t * w) * mp.exp(Q / r * angle)

            with mp.workdps(40):
                want = np.array([float(v) for v in mp.taylor(closed_form, s[0], 6)])
            assert np.allclose(f.taylor(s[0], 6), want, rtol=1e-10,
                               atol=1e-12 * np.abs(want).max())

        check()


class TestCustomExpr:
    def test_matches_randers(self):
        f = CustomExprPhi("1 + s", b0=1.0)
        g = RandersPhi()
        for s in (-0.3, 0.0, 0.4):
            assert np.allclose(f.taylor(s, 3), g.taylor(s, 3))

    def test_with_parameters(self):
        f = CustomExprPhi("sqrt(1 + k * s^2)", params={"k": 2.0})
        g = RiemannSqrtPhi(2.0)
        for s in (-0.5, 0.2):
            assert np.allclose(f.taylor(s, 3), g.taylor(s, 3), atol=1e-12)

    def test_positivity_check(self):
        f = CustomExprPhi("1 + 3 * s", b0=1.0)
        with pytest.raises(NonPositivePhi):
            f.check_positivity(0.9)


class TestScalars:
    def test_randers_closed_forms(self):
        # Randers: Q = 1, Delta = 1 + s, Theta = 1/(2(1+s)), Psi = 0.
        f = RandersPhi()
        b, s, n = 0.8, 0.3, 2
        sc = ab_scalars(f, b, s, n)
        assert sc.Q == pytest.approx(1.0)
        assert sc.Qp == pytest.approx(0.0, abs=1e-14)
        assert sc.Delta == pytest.approx(1.0 + s)
        assert sc.Theta == pytest.approx(1.0 / (2.0 * (1.0 + s)))
        assert sc.Psi == pytest.approx(0.0, abs=1e-14)
        assert sc.Phi == pytest.approx(-(n * (1 + s) + 1 + s))

    def test_s_exceeding_b_rejected(self):
        with pytest.raises(DomainError):
            ab_scalars(RandersPhi(), 0.2, 0.5, 2)

    def test_degenerate_denominator(self):
        # phi = s has phi - s*phi' = 0 identically.
        f = CustomExprPhi("s", b0=1.0)
        with pytest.raises(DegenerateDenominator):
            _q_series(f, 0.5, 1)

    def test_spray_scalar_series_match_point_scalars(self):
        f = RiemannSqrtPhi(1.5)
        b, s0 = 0.7, 0.2
        q_t, theta_t, psi_t = spray_scalar_series(f, b, s0, 2)
        sc = ab_scalars(f, b, s0, 2)
        assert q_t.value == pytest.approx(sc.Q)
        assert theta_t.value == pytest.approx(sc.Theta)
        assert psi_t.value == pytest.approx(sc.Psi)
        # first series coefficient of Q is Q'
        assert q_t.partial((1,)) == pytest.approx(sc.Qp)

    def test_spray_scalar_series_builds_phi_once(self):
        # Q and Psi share one order + 2 series of phi
        calls = []

        class Counted(UnicornPhi):
            def taylor(self, s0, order):
                calls.append((s0, order))
                return super().taylor(s0, order)

        spray_scalar_series(Counted(1.0, 0.3, 0.7, 1.0), 0.6, 0.3, 4)
        assert calls == [(0.3, 6)]


#: one constructed member of each family, and the attributes it carries
FAMILIES = {
    "randers": (RandersPhi, ("b0", "delta")),
    "riemann_sqrt": (lambda: RiemannSqrtPhi(-4.0), ("k", "b0", "delta")),
    "unicorn": (lambda: UnicornPhi(1.0, 0.3, 0.7, 1.0), ("b0", "k", "q", "c", "delta")),
    "custom": (lambda: CustomExprPhi("1 + p1 * s", {"p1": 0.5}, b0=1.0),
               ("text", "params", "ast", "b0", "delta")),
}


@pytest.mark.parametrize("variant", FAMILIES)
def test_family_is_frozen_and_hashes_by_identity(variant):
    # the f(b) memo keys on the family: a family that changed after its
    # first use would read the values of its old self
    make, names = FAMILIES[variant]
    f = make()
    assert f.variant == variant
    before = {name: getattr(f, name) for name in names}
    for name in (*names, "variant", "new_attribute"):
        with pytest.raises(AttributeError, match="frozen"):
            setattr(f, name, 0.25)
        with pytest.raises(AttributeError, match="frozen"):
            delattr(f, name)
    assert {name: getattr(f, name) for name in names} == before
    assert not hasattr(f, "new_attribute")
    assert hash(f) == object.__hash__(f)
    g = make()
    assert f != g and hash(f) != hash(g)
    assert f.value(0.3) == g.value(0.3)
    if variant == "custom":
        with pytest.raises(TypeError):
            f.params["p1"] = 2.0
