"""sigma_bh's spectral rule against closed forms, a refined rule and Simpson.

``sigma_bh`` integrates the unit-ball volume with the trapezoid rule on the
circle, and with Gauss-Legendre in cos(theta) x the trapezoid rule in the
azimuth on the sphere.  It must give the closed-form densities at 1e-13, the
same rule refined (GL 96 x 192 on the sphere, 4096 nodes on the circle) at
1e-12, and the composite Simpson rule it replaced within that rule's own
error.  The oracles integrate in the unturned frame of a(x) and b(x), where
``sigma_bh`` turns beta onto the rule's first axis.  The cached nodes, the
einsum-free alpha^2 and the unit-ball memo must keep the bits of the uncached
computations exactly: the ``report`` stdout is byte-stable.
"""

import math

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.errors import SingularDirectionInQuadrature, SingularMetric
from finsler.finsler_metric import _MAX_RADIUS_RATIO, _polar_nodes, _unit_ball, sigma_bh
from finsler.geometry_core import ChartDomain, MetricSpec, _inverse_cholesky
from finsler.phi_families import CustomExprPhi, RandersPhi, UnicornPhi

_UNIT_BALL_VOLUME = {2: math.pi, 3: 4.0 * math.pi / 3.0}
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
    # ratio the base sphere rule integrates to 1e-14, and the base rule alone
    # is off by about 3e-8
    m = _constant_metric(np.eye(3), [0.95, 0.0, 0.0])
    x, want = np.zeros(3), (1.0 - 0.95 ** 2) ** 2
    dirs, w = _polar_nodes(3)
    r = 1.0 / _F(m, RandersPhi(), x, dirs)
    assert r.max() > _MAX_RADIUS_RATIO[3] * r.min()
    base = _UNIT_BALL_VOLUME[3] / float(w @ r ** 3)
    assert abs(base / want - 1.0) > 1e-9
    assert sigma_bh(m, RandersPhi(), x) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("b, rel", [(0.995, 2e-10), (0.999, 1e-5)])
@pytest.mark.parametrize("axis", [0, 2])
def test_sigma_near_the_unit_one_form_on_either_axis(b, rel, axis):
    # the unit ball's radii vary by 400-2000x here; with beta on the rule's
    # polar axis e_3 the unturned sweep read 6.9e-9 and 2.2e-3, and sigma
    # now integrates with beta turned onto e_1, in the equator plane
    m = _constant_metric(np.eye(3), b * np.eye(3)[axis])
    want = (1.0 - b * b) ** 2
    assert sigma_bh(m, RandersPhi(), np.zeros(3)) == pytest.approx(want, rel=rel)


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
    # after sweeps that refined or failed; the unit-ball memo is cleared too,
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
        _unit_ball.cache_clear()
        assert sweep(x) == cached


#: the azimuthal step of the base rule of ``_polar_nodes(n)``
STEP = {2: 2.0 * math.pi / 256, 3: 2.0 * math.pi / 64}


def _edge_metric(n):
    """|beta| just past the admissible half-width at the nodes of azimuth 0
    and pi nearest to +-b: two on the circle, four on the sphere, at u = +-u_min."""
    f = CustomExprPhi("1 + 0.2*s", b0=1.0, delta=0.05)
    half = f.b0 * (1.0 - f.delta)
    dirs = _polar_nodes(n)[0]
    rho = np.hypot(dirs[:, 0], dirs[:, 1]).max()  # 1 on the circle
    b = half / (rho * math.cos(0.25 * STEP[n]))
    return _constant_metric(np.eye(n), [b] + [0.0] * (n - 1)), f, b


@pytest.mark.parametrize("n", [2, 3])
def test_nodes_past_the_admissible_cone_raise(n):
    # no node is moved back inside: sigma and the S formula's f(b) slope both
    # refuse a unit ball whose nodes leave |s| <= b0 (1 - delta)
    m, f, b = _edge_metric(n)
    bad = {2: 2, 3: 4}[n]
    message = rf"\|s\| > b0 \(1 - delta\) = 0.95 at {bad} quadrature node\(s\)"
    with pytest.raises(SingularDirectionInQuadrature, match=message):
        sigma_bh(m, f, np.zeros(n))
    with pytest.raises(SingularDirectionInQuadrature, match=message):
        _unit_ball(f, b, n)


@pytest.mark.parametrize("n, b", [
    (2, lambda half, h: [half / math.cos(2.0 * h), 0.0]),  # arcs of 3 nodes about +-b
    (3, lambda half, h: [0.0, 0.0, 1.0]),  # turned onto the first axis: 68 nodes about +-e_1
])
def test_persistently_singular_nodes_raise(n, b):
    f = CustomExprPhi("1 + 0.2*s", b0=1.0, delta=0.05)
    m = _constant_metric(np.eye(n), b(0.95, STEP[n]))
    bad = {2: 6, 3: 68}[n]
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
                       match=r"F is not finite at 256 quadrature node\(s\)"):
        sigma_bh(m, RandersPhi(), np.zeros(2))
    with pytest.raises(SingularMetric, match="a_ij is not positive definite"):
        sigma_bh(_constant_metric(np.diag([1.0, -1.0]), [0.0, 0.0]),
                 RandersPhi(), np.zeros(2))


def ref_unit_ball(f, b, n):
    """``_unit_ball``'s sweep with F from ``ref_finsler_eval_many`` at a = I, beta = b e_1.

    None where F is not positive and finite at some node.
    """
    m = _constant_metric(np.eye(n), b * np.eye(n)[0])
    for refine in (1, 4):
        z, w = _polar_nodes(n, refine)
        F, s = ref_finsler_eval_many(m, f, np.zeros(n), z)
        if not np.all(np.isfinite(F) & (F > 0.0)):
            return None
        r = 1.0 / F
        if r.max() <= _MAX_RADIUS_RATIO[n] * r.min():
            break
    wr = w * r ** n
    vol = wr.sum()
    return float(vol), float(n * ((wr * r) @ (f.taylor(s, 1)[1] * z[:, 0])) / vol)


@pytest.mark.parametrize("name", catalog_names())
def test_alpha_sum_bit_equal_to_einsum(name):
    # the sweep sums alpha^2 = z_i z_i term by term; at every catalog point's
    # b = |L^-1 b(x)| it keeps the bits of the same sweep with einsum's alpha
    entry = get_metric(name)
    m, f = entry.metric, entry.phi
    for x in _points(entry):
        b = float(np.linalg.norm(_inverse_cholesky(m.a_at(x)) @ m.b_at(x)))
        want = ref_unit_ball(f, b, m.n)
        if want is None:
            with pytest.raises(SingularDirectionInQuadrature):
                _unit_ball.__wrapped__(f, b, m.n)
        else:
            assert _unit_ball.__wrapped__(f, b, m.n) == want


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
    want = _unit_ball.__wrapped__(f, b, n)
    assert _unit_ball(f, b, n) == want
    assert _unit_ball(f, b, n) == want  # a hit returns the same values
