"""sigma_bh's 1-D tanh-sinh rule against closed forms, 2-D product rules and Simpson.

``sigma_bh`` integrates the unit-ball volume in the frame a = I, beta = b e_1,
where F on the unit sphere depends on the polar angle alone, with one
tanh-sinh rule in that angle per dimension.  f(b) and d ln f / db must give
the closed forms in every dimension n = 1..5 (Randers, and the Riemannian
sqrt(1 + k s^2)) and a 30-digit mpmath quadrature of the unicorn family.
sigma must give the closed-form densities at 1e-13, the 2-D product rules it
replaced (Gauss-Legendre in cos(theta) x the trapezoid rule in the azimuth on
the sphere, the trapezoid rule on the circle) at their base size with the 4x
refine switch, and refined (GL 96 x 192, 4096 nodes) at 1e-12, and the
composite Simpson rule within that rule's own error.  The 2-D oracles
integrate in the unturned frame of a(x) and b(x).  The cached nodes and the
unit-ball memo must keep the bits of the uncached computations exactly: the
``report`` stdout is byte-stable.
"""

import math

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.errors import SingularDirectionInQuadrature, SingularMetric
from finsler.finsler_metric import _polar_nodes, _sweep, _unit_ball, sigma_bh
from finsler.geometry_core import ChartDomain, MetricSpec, _inverse_cholesky
from finsler.phi_families import CustomExprPhi, RandersPhi, RiemannSqrtPhi, UnicornPhi

_UNIT_BALL_VOLUME = {2: math.pi, 3: 4.0 * math.pi / 3.0}
#: the largest max(r) / min(r) on the nodes of ``product_rule(n)`` with a
#: relative error near 1e-14; past it the product rule is redone 4x finer
_MAX_RADIUS_RATIO = {2: 150.0, 3: 12.0}
#: every catalog metric with a bounded unit ball (mw has |b| = 1)
BOUNDED = [name for name in catalog_names() if name != "mw"]


def ref_finsler_eval_many(m, f, x, Y):
    Y = np.asarray(Y, dtype=float)
    a = m.a_at(x)
    b = m.b_at(x)
    alpha = np.sqrt(np.einsum("ki,ij,kj->k", Y, a, Y))
    s = (Y @ b) / alpha
    return alpha * f.value_many(s), s


def _F(m, f, x, Y):
    """F over the rows of Y at x."""
    return ref_finsler_eval_many(m, f, x, Y)[0]


def _sphere(n_u, n_az):
    """Unit directions and weights of int r^3/3: Gauss-Legendre in u x trapezoid."""
    u, wu = np.polynomial.legendre.leggauss(n_u)
    phi = np.linspace(0.0, 2.0 * math.pi, n_az, endpoint=False)
    rho = np.sqrt(1.0 - u * u)[:, None]
    dirs = np.column_stack([(rho * np.cos(phi)).ravel(),
                            (rho * np.sin(phi)).ravel(), np.repeat(u, n_az)])
    return dirs, np.repeat(wu * (2.0 * math.pi / n_az) / 3.0, n_az)


def product_rule(n, refine=1):
    """The 2-D product rule sigma_bh used before, for n = 2 or 3: unit directions
    z and the weights of vol = int r^n / n.

    The trapezoid rule on 256 azimuths (n = 2), or 32 Gauss-Legendre nodes in
    u = cos(theta) times the trapezoid rule on 64 azimuths (n = 3), each count
    times ``refine``; the first axis lies in the equator plane.
    """
    n_az = (256 if n == 2 else 64) * refine
    h = 2.0 * math.pi / n_az
    if n == 2:
        phi = h * np.arange(n_az)
        return np.column_stack([np.cos(phi), np.sin(phi)]), np.full(n_az, 0.5 * h)
    return _sphere(32 * refine, n_az)


def refined_sigma(m, f, x):
    """The same rule on many more nodes: GL 96 x 192, or 4096 on the circle."""
    if m.n == 2:
        phi = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
        w = np.full(4096, math.pi / 4096)
    else:
        dirs, w = _sphere(96, 192)
    return _UNIT_BALL_VOLUME[m.n] / float(w @ _F(m, f, x, dirs) ** -float(m.n))


def simpson_sigma(m, f, x):
    """The composite Simpson rule sigma_bh used before: 2048 intervals on the
    circle, 128 x 256 intervals in (theta, azimuth) on the sphere."""
    def weights(k):
        w = np.ones(k + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return w / 3.0

    if m.n == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, 2049)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        r = 1.0 / _F(m, f, x, dirs)
        return math.pi / (0.5 * (theta[1] - theta[0]) * float(weights(2048) @ r ** 2))
    theta = np.linspace(0.0, math.pi, 129)
    phi = np.linspace(0.0, 2.0 * math.pi, 257)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.column_stack([(np.sin(T) * np.cos(P)).ravel(),
                            (np.sin(T) * np.sin(P)).ravel(), np.cos(T).ravel()])
    r = 1.0 / _F(m, f, x, dirs)
    integrand = r.reshape(T.shape) ** 3 * np.sin(T) / 3.0
    vol = float((weights(128) * (theta[1] - theta[0])) @ integrand
                @ (weights(256) * (phi[1] - phi[0])))
    return _UNIT_BALL_VOLUME[3] / vol


def _points(entry):
    """Three interior chart points: 30 %, 50 % and 70 % along the box diagonal."""
    lo = np.asarray(entry.metric.chart_domain.lo, dtype=float)
    hi = np.asarray(entry.metric.chart_domain.hi, dtype=float)
    pts = [lo + t * (hi - lo) for t in (0.3, 0.5, 0.7)]
    assert all(entry.metric.chart_domain.contains(p) for p in pts)
    return pts


def _constant_metric(a, b):
    n = len(b)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return MetricSpec(n=n, a=lambda x: a, b_form=lambda x: b,
                      chart_domain=ChartDomain((-1.0,) * n, (1.0,) * n))


@pytest.mark.parametrize("n, b", [
    (2, [0.3, 0.0]), (2, [0.48, 0.64]), (2, [0.99, 0.0]),
    (3, [0.3, 0.0, 0.0]), (3, [0.0, 0.0, 0.8]), (3, [0.48, 0.0, 0.64]),
    (3, [0.95, 0.0, 0.0]),
])
def test_sigma_closed_form_flat_randers(n, b):
    # F = |y| + b.y: the unit ball is an ellipsoid, sigma = (1 - |b|^2)^((n+1)/2)
    m = _constant_metric(np.eye(n), b)
    want = (1.0 - float(np.dot(b, b))) ** ((n + 1) / 2)
    assert sigma_bh(m, RandersPhi(), np.zeros(n)) == pytest.approx(want, rel=1e-13)


def test_sigma_closed_form_of_euclid_randers():
    e = get_metric("euclid_randers", eps=0.7)
    got = sigma_bh(e.metric, e.phi, [0.1, -0.2])
    assert got == pytest.approx((1.0 - 0.49) ** 1.5, rel=1e-13)


@pytest.mark.parametrize("a, b", [
    ([[2.0, 0.3], [0.3, 0.5]], [0.0, 0.0]),
    ([[1.5, 0.2, 0.1], [0.2, 1.0, -0.1], [0.1, -0.1, 1.2]], [0.0, 0.0, 0.0]),
    ([[200.0, 1.0], [1.0, 0.5]], [3.0, 0.2]),
    ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 200.0]], [0.2, -0.3, 5.0]),
])
def test_sigma_closed_form_randers(a, b):
    # F = alpha + beta: sigma = sqrt(det a) (1 - |b|_alpha^2)^((n+1)/2), and
    # b = 0 leaves the density of alpha, sqrt(det a)
    n = len(a)
    m = _constant_metric(a, b)
    b_alpha2 = float(np.dot(b, np.linalg.solve(a, b)))
    want = math.sqrt(np.linalg.det(a)) * (1.0 - b_alpha2) ** ((n + 1) / 2)
    assert sigma_bh(m, RandersPhi(), np.zeros(n)) == pytest.approx(want, rel=1e-13)


def test_elongated_unit_ball_takes_the_finer_rule():
    # |b| = 0.95 stretches the unit ball: its radii vary by 39x, past the
    # ratio the base product rule integrates to 1e-14, and that rule alone
    # is off by about 3e-8; the tanh-sinh rule's nodes crowd to the poles,
    # where the radii peak, and its one sweep of 153 nodes needs no finer rule
    m = _constant_metric(np.eye(3), [0.95, 0.0, 0.0])
    x, want = np.zeros(3), (1.0 - 0.95 ** 2) ** 2
    dirs, w = product_rule(3)
    r = 1.0 / _F(m, RandersPhi(), x, dirs)
    assert r.max() > _MAX_RADIUS_RATIO[3] * r.min()
    base = _UNIT_BALL_VOLUME[3] / float(w @ r ** 3)
    assert abs(base / want - 1.0) > 1e-9
    assert len(_polar_nodes(3)[0]) == 153
    assert sigma_bh(m, RandersPhi(), x) == pytest.approx(want, rel=1e-14)


# the ids keep the bounds of the product rule, 2e-10 and 1e-5; the
# tanh-sinh rule reads 5.2e-15 and 4.5e-14
@pytest.mark.parametrize("b, rel", [pytest.param(0.995, 1e-14, id="0.995-2e-10"),
                                    pytest.param(0.999, 1e-13, id="0.999-1e-05")])
@pytest.mark.parametrize("axis", [0, 2])
def test_sigma_near_the_unit_one_form_on_either_axis(b, rel, axis):
    # the unit ball's radii vary by 400-2000x here; with beta on the product
    # rule's polar axis e_3 its unturned sweep read 6.9e-9 and 2.2e-3, and
    # sigma integrates with beta turned onto e_1, the tanh-sinh rule's pole
    m = _constant_metric(np.eye(3), b * np.eye(3)[axis])
    want = ((1.0 - b) * (1.0 + b)) ** 2  # 1 - b is exact
    assert sigma_bh(m, RandersPhi(), np.zeros(3)) == pytest.approx(want, rel=rel)


#: |b| up to 0.99999, where a Randers unit ball's radii vary by 2e5, with the
#: relative bound at each: 1e-13 to b = 0.999, 1e-11 at 0.99999
NEAR_ONE = [*((b, 1e-13) for b in (0.0, 0.3, 0.7, 0.9, 0.99, 0.999)),
            (0.9999, 1e-12), (0.99999, 1e-11)]


def _closed_form_cases():
    """(phi, b, rel, f(b), d ln f / db) in closed form: Randers, with
    f(b) = (1 - b^2)^((n+1)/2), and phi = sqrt(1 + k s^2), Riemannian with
    f(b) = sqrt(det(I + k b b^T)) = sqrt(1 + k b^2), for k = 2 and -0.5."""
    for b, rel in NEAR_ONE:
        one_minus_b2 = (1.0 - b) * (1.0 + b)  # 1 - b is exact
        yield RandersPhi(), b, rel, one_minus_b2, -b / one_minus_b2
        for k in (2.0, -0.5):
            yield RiemannSqrtPhi(k), b, rel, math.sqrt(1.0 + k * b * b), k * b / (1.0 + k * b * b)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unit_ball_closed_forms_in_every_dimension(n):
    # f(b) and d ln f / db checked on their own: the S routes agree through
    # the same slope, so that check cannot see an error in it
    for phi, b, rel, f_b, slope in _closed_form_cases():
        if isinstance(phi, RandersPhi):  # (1 - b^2)^((n+1)/2) and its log-slope
            f_b, slope = f_b ** ((n + 1) / 2), (n + 1) * slope
        got = _sweep.__wrapped__(phi, b, n)
        assert got[0] == pytest.approx(f_b, rel=rel)
        assert got[1] == pytest.approx(slope, rel=rel, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unicorn_unit_ball_matches_mpmath(n):
    # f(b) = int sin^(n-2) / int r^n sin^(n-2) over the polar angle, and the
    # slope differentiated under the integral sign, with phi in closed form
    # and phi' = g phi, all in 30 digits; S^0 is the two points u = +-1
    mp = pytest.importorskip("mpmath")
    f = UnicornPhi(1.0, 0.5, 1.0, 1.0)
    with mp.workdps(30):
        b0, k, q, c = map(mp.mpf, (f.b0, f.k, f.q, f.c))
        a, Q = 1 + k * b0 ** 2, q * b0 ** 2 / 2
        r = mp.sqrt(a - Q * Q)

        def phi_and_slope(t):
            w = mp.sqrt(b0 ** 2 - t * t)
            D = 1 + k * t * t + q * t * w
            phi = c * mp.sqrt(D) * mp.exp(Q / r * (mp.atan((a * t / w + Q) / r) - mp.atan(Q / r)))
            return phi, (k * t + q * w) / D * phi

        def integral(g, b):
            if n == 1:
                return sum(g(mp.mpf(u), b * u) for u in (1, -1))
            return mp.quad(lambda th: mp.sin(th) ** (n - 2) * g(mp.cos(th), b * mp.cos(th)),
                           [0, mp.pi / 2, mp.pi])

        for b in (0.3, 0.6, 0.9):
            bm = mp.mpf(b)
            vol = integral(lambda u, s: phi_and_slope(s)[0] ** -n, bm)
            f_b = integral(lambda u, s: 1, bm) / vol
            slope = n * integral(lambda u, s: phi_and_slope(s)[1] * u
                                 / phi_and_slope(s)[0] ** (n + 1), bm) / vol
            got = _sweep.__wrapped__(f, b, n)
            assert got[0] == pytest.approx(float(f_b), rel=1e-13)
            assert got[1] == pytest.approx(float(slope), rel=1e-13)


@pytest.mark.parametrize("name", BOUNDED)
def test_sigma_matches_refined_rule(name):
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    for x in _points(entry):
        assert sigma_bh(m, f, x) == pytest.approx(refined_sigma(m, f, x), rel=1e-12)


@pytest.mark.parametrize("name", BOUNDED)
def test_sigma_within_simpson_error(name):
    # the Simpson rule's own error reaches 1.1e-8 (bao_shen) on these points
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    for x in _points(entry):
        assert sigma_bh(m, f, x) == pytest.approx(simpson_sigma(m, f, x), rel=1e-7)


@pytest.mark.parametrize("name", catalog_names())
def test_sigma_bit_equal_on_catalog(name):
    # the cached read-only nodes give the bits of freshly built ones, also
    # after sweeps that failed; the unit-ball memo is cleared too,
    # as a hit would make no sweep
    entry = get_metric(name)
    m, f = entry.metric, entry.phi

    def sweep(x):
        try:
            return sigma_bh(m, f, x)
        except SingularDirectionInQuadrature as exc:
            return str(exc)

    for x in _points(entry):
        cached = sweep(x)
        _polar_nodes.cache_clear()
        _sweep.cache_clear()
        assert sweep(x) == cached


def _edge_metric(n):
    """|beta| past the admissible half-width by 1e-6 of it, at the nodes within
    1.4e-3 of the poles u = +-1, where the rule's nodes crowd."""
    f = CustomExprPhi("1 + 0.2*s", b0=1.0, delta=0.05)
    b = f.b0 * (1.0 - f.delta) * (1.0 + 1e-6)
    return _constant_metric(np.eye(n), [b] + [0.0] * (n - 1)), f, b


@pytest.mark.parametrize("n", [2, 3])
def test_nodes_past_the_admissible_cone_raise(n):
    # no node is moved back inside: sigma and the S formula's f(b) slope both
    # refuse a unit ball whose nodes leave |s| <= b0 (1 - delta); the nodes
    # are those of every n >= 2
    m, f, b = _edge_metric(n)
    bad = 56
    message = rf"\|s\| > b0 \(1 - delta\) = 0.95 at {bad} quadrature node\(s\)"
    with pytest.raises(SingularDirectionInQuadrature, match=message):
        sigma_bh(m, f, np.zeros(n))
    with pytest.raises(SingularDirectionInQuadrature, match=message):
        _unit_ball(f, b, n)


@pytest.mark.parametrize("n, b", [
    (2, lambda half: [half / math.cos(0.05), 0.0]),  # 44 nodes about each pole
    (3, lambda half: [0.0, 0.0, 1.0]),  # turned onto the first axis: 57 about each pole
])
def test_persistently_singular_nodes_raise(n, b):
    f = CustomExprPhi("1 + 0.2*s", b0=1.0, delta=0.05)
    m = _constant_metric(np.eye(n), b(0.95))
    bad = {2: 88, 3: 114}[n]
    with pytest.raises(SingularDirectionInQuadrature,
                       match=rf"\|s\| > b0 \(1 - delta\) = 0.95 at {bad} quadrature node\(s\)"):
        sigma_bh(m, f, np.zeros(n))


def test_unbounded_unit_ball_raises():
    # mw is Randers with |b| = 1: F(y) = 0 at y = -b, where the unit ball
    # reaches to infinity and sigma = 0 is not a density
    e = get_metric("mw")
    with pytest.raises(SingularDirectionInQuadrature,
                       match=r"F <= 0 at 1 quadrature node\(s\)"):
        sigma_bh(e.metric, e.phi, [0.3, 0.3])


def test_undefined_unit_ball_raises():
    m = _constant_metric(np.eye(2), [math.nan, 0.0])
    with pytest.raises(SingularDirectionInQuadrature,
                       match=r"F is not finite at 153 quadrature node\(s\)"):
        sigma_bh(m, RandersPhi(), np.zeros(2))
    with pytest.raises(SingularMetric, match="a_ij is not positive definite"):
        sigma_bh(_constant_metric(np.diag([1.0, -1.0]), [0.0, 0.0]),
                 RandersPhi(), np.zeros(2))


def ref_unit_ball(f, b, n):
    """``(f(b), d ln f / db)`` from the product rule with its 4x refine switch,
    F from ``ref_finsler_eval_many`` at a = I, beta = b e_1.

    None where F is not positive and finite at some node.
    """
    m = _constant_metric(np.eye(n), b * np.eye(n)[0])
    for refine in (1, 4):
        z, w = product_rule(n, refine)
        F, s = ref_finsler_eval_many(m, f, np.zeros(n), z)
        if not np.all(np.isfinite(F) & (F > 0.0)):
            return None
        r = 1.0 / F
        if r.max() <= _MAX_RADIUS_RATIO[n] * r.min():
            break
    wr = w * r ** n
    vol = wr.sum()
    return (_UNIT_BALL_VOLUME[n] / float(vol),
            float(n * ((wr * r) @ (f.taylor(s, 1)[1] * z[:, 0])) / vol))


@pytest.mark.parametrize("name", catalog_names())
def test_alpha_sum_bit_equal_to_einsum(name):
    # the 1-D rule sweeps u = cos(theta) with |z| = 1, so no alpha is summed;
    # at every catalog point's b = |L^-1 b(x)| (all <= 0.82, or mw's 1) it
    # agrees with the 2-D product rule it replaced, and fails where that
    # rule's F does
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    for x in _points(entry):
        b = float(np.linalg.norm(_inverse_cholesky(m.a_at(x)) @ m.b_at(x)))
        want = ref_unit_ball(f, b, m.n)
        if want is None:
            assert isinstance(_sweep.__wrapped__(f, b, m.n), SingularDirectionInQuadrature)
        else:
            assert b <= 0.99
            assert _sweep.__wrapped__(f, b, m.n) == pytest.approx(want, rel=1e-14,
                                                                      abs=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_cached_nodes_are_read_only(n):
    arrays = _polar_nodes(n)
    assert _polar_nodes(n)[0] is arrays[0]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("f, b, n", [
    (RandersPhi(), 0.3, 2),
    (get_metric("bao_shen").phi, 0.4, 3),
    (UnicornPhi(1.0, 0.5, 1.0, 1.0), 0.6, 3),
])
def test_angular_density_memo_equals_uncached(f, b, n):
    # the memo of the unit-ball volume and d ln f / db, which sigma, the
    # gradient of ln sigma and the S formula read
    want = _sweep.__wrapped__(f, b, n)
    assert _unit_ball(f, b, n) == want
    assert _unit_ball(f, b, n) == want  # a hit returns the same values
