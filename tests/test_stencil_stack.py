"""The stacked stencil gives the bits of the per-point stencil it replaced.

``base_derivative`` calls its field once on the whole ``(4 n P, n)`` stencil
stack, and the spray fields run every (stencil point, direction) pair as one
jet batch.  The reference below is the route the engine took before: a
stencil that calls the field one point at a time, and ``riemann``,
``spray_generic`` and ``h_curvature`` with their per-point fields, copied
verbatim.  Every output must match it exactly, signs of zero included, and
every error must carry the same text.

Mutation note: with ``riemann``'s ``np.ascontiguousarray(d[..., 1:])`` made
the strided view ``d[..., 1:]``, ``test_stacked_stencil_has_the_reference_bits``
fails for ``riemann`` (numpy 2.4.6: the einsum over y and Gxy sums in another
order on a strided operand), so that guard is live.
"""

import math
from functools import partial

import numpy as np
import pytest

import finsler.geometry_core as geometry_core
from finsler.catalog import catalog_names, get_metric
from finsler.classify import default_grid
from finsler.cli import RunConfig
from finsler.errors import EvaluationError, FinslerError
from finsler.finsler_metric import fsq_jet, fundamental
from finsler.geometry_core import (ChartDomain, MetricSpec, _at, beta_derivatives,
                                   christoffels)
from finsler.jets import base_derivative
from finsler.phi_families import UnicornPhi
from finsler.spray_curvature import (_fiber, berwald, h_curvature, riemann,
                                     spray_ab, spray_data, spray_generic)


def ref_base_derivative(field, x):
    x = np.asarray(x, dtype=float)
    steps = 1e-3 * np.maximum(1.0, abs(x))  # one h per point and axis

    def at(xp, offset, axis):
        try:
            return np.asarray(field(xp), dtype=float)
        except Exception as exc:  # noqa: BLE001 - surface stencil failures uniformly
            raise EvaluationError(
                f"field evaluation failed at offset {offset:+g} along axis {axis}: {exc}"
            ) from exc

    def along(axis):
        h = steps.T[axis]

        def f(step):  # the field at x + step h, transposed so that the points come last
            xp = x.copy()
            offset = step * h
            xp.T[axis] += offset
            return (at(xp, offset, axis) if x.ndim == 1
                    else np.array([at(p, o, axis) for p, o in zip(xp, offset)])).T

        d1, d2 = ((f(k) - f(-k)) / (2.0 * (k * h)) for k in (1.0, 2.0))
        return ((4.0 * d1 - d2) / 3.0).T

    return np.stack([along(k) for k in range(x.shape[-1])], axis=-1)


def ref_spray_generic(m, f, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = m.n
    fd = fundamental(m, f, x, y)

    def fsq_and_grad(xp):  # [F^2, dF^2/dy^l] per direction
        jet = fsq_jet(m, f, xp, y, 1)
        return np.concatenate((np.asarray(jet.value)[..., None], jet.tensor(1)), axis=-1)

    # d[..., k, 0] = dF^2/dx^k, d[..., k, 1 + l] = d^2F^2/dx^k dy^l
    d = np.moveaxis(ref_base_derivative(fsq_and_grad, x), -1, -2)
    mixed = sum(y[..., k, None] * d[..., k, 1:] for k in range(n))
    return 0.25 * (fd.g_inv @ (mixed - d[..., 0])[..., None])[..., 0]


def ref_riemann(m, f, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    jets = spray_ab(m, f, x, y, order=2)
    G, N, Gyy = (_fiber(jets, k) for k in range(3))

    def g_and_n(xp):  # [G^i, N^i_k] as an (n, 1 + n) array per direction
        jets = spray_ab(m, f, xp, y, order=1)
        return np.concatenate((_fiber(jets, 0)[..., None], _fiber(jets, 1)), axis=-1)

    # d[..., i, j, 0] = dG^i/dx^j, d[..., i, j, 1 + k] = dN^i_k/dx^j; einsum
    # takes Gxy contiguous, as its last bits depend on the operand's layout
    d = np.moveaxis(ref_base_derivative(g_and_n, x), -1, -2)
    Gx, Gxy = d[..., 0], np.ascontiguousarray(d[..., 1:])
    return (2.0 * Gx
            - np.einsum("...j,...ijk->...ik", y, Gxy)
            + 2.0 * np.einsum("...j,...ijk->...ik", G, Gyy)
            - N @ N)


def ref_h_curvature(m, f, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sd = spray_data(m, f, x, y)
    Ex = ref_base_derivative(lambda xp: berwald(m, f, xp, y)[1], x)
    return (np.einsum("...m,...ijm->...ij", y, Ex)
            - 2.0 * np.einsum("...k,...ijk->...ij", sd.G, sd.E_vert)
            - np.einsum("...kj,...ki->...ij", sd.E, sd.N)
            - np.einsum("...ik,...kj->...ij", sd.E, sd.N))


def _per_point_stencil(fn):
    """``fn`` with the β calculus on the reference stencil."""
    def run(*args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry_core, "base_derivative", ref_base_derivative)
            return fn(*args)
    return run


#: an almost-regular ``--config`` metric: expression a(x) and b(x), unicorn phi
ALMOST_REGULAR = {"schema": 1, "metric": {"custom": {
    "n": 2,
    "a": [["1 + x1*x1", "0.3*sin(x1*x2)"], ["0.3*sin(x1*x2)", "exp(0.5*x2)"]],
    "b": ["0.5*cos(x2)", "0.4*x1*x2 - 0.05"],
    "lo": [-1, -1], "hi": [1, 1],
    "phi": {"variant": "unicorn", "b0": 1, "k": 0.3, "q": 0.7, "c": 1}}}}


def _metrics():
    cfg = RunConfig(ALMOST_REGULAR)
    return ([(get_metric(name).metric, get_metric(name).phi) for name in catalog_names()]
            + [(cfg.metric, cfg.phi)])


def _bits(value):
    """Values, shape and signs of zero, so that -0.0 and 0.0 differ."""
    value = np.asarray(value, dtype=float)
    return value.shape, value.tobytes()


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except FinslerError as exc:
        return type(exc), str(exc)
    if isinstance(out, geometry_core.BetaCalculus):
        return [_bits(v) for k, v in vars(out).items() if k != "n"]
    return _bits(out)


ROUTES = {
    "riemann": (riemann, ref_riemann),
    "spray_generic": (spray_generic, ref_spray_generic),
    "h_curvature": (h_curvature, ref_h_curvature),
    "christoffels": (christoffels, _per_point_stencil(christoffels)),
    "beta_derivatives": (beta_derivatives, _per_point_stencil(beta_derivatives)),
}
_FIBER = ("riemann", "spray_generic", "h_curvature")


def _draw_points(data, m, count):
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = pytest.importorskip("hypothesis").strategies
    lo = np.asarray(m.chart_domain.lo, dtype=float)
    hi = np.asarray(m.chart_domain.hi, dtype=float)
    t = data.draw(hnp.arrays(float, (count, m.n), elements=st.floats(0.05, 0.95)))
    return lo + t * (hi - lo)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_stacked_stencil_has_the_reference_bits(route):
    # random interior points of the 8 catalog metrics and of an almost-regular
    # expression metric, 1-6 random directions (fiber routes) or a (P, n)
    # stack of 1-4 points (the beta calculus): the same bits or the same error
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies
    fn, ref = ROUTES[route]
    metrics = _metrics()

    @hypothesis.settings(max_examples=25, deadline=None)
    @hypothesis.given(st.sampled_from(range(len(metrics))), st.integers(1, 6),
                      st.booleans(), st.data())
    def check(index, count, stacked, data):
        m, f = metrics[index]
        if route in _FIBER:
            x = _draw_points(data, m, 1)[0]
            hypothesis.assume(m.chart_domain.contains(x))
            Y = data.draw(hnp.arrays(float, (count, m.n), elements=st.floats(-1.0, 1.0)))
            hypothesis.assume(np.linalg.norm(Y, axis=1).min() > 0.1)
            args = (m, f, x, Y if stacked else Y[0])
        else:
            X = _draw_points(data, m, min(count, 4))
            hypothesis.assume(all(m.chart_domain.contains(x) for x in X))
            args = (m, X if stacked else X[0])
        assert _outcome(fn, *args) == _outcome(ref, *args)

    check()


@pytest.mark.parametrize("name", ["lie_group", "bao_shen"])
def test_default_grid_has_the_reference_bits(name):
    # the fixed points the byte fixtures read, 4 directions each
    e = get_metric(name)
    Y = np.array([[1.0, 0.3, -0.2], [-0.5, 1.0, 0.1], [0.2, -0.4, 1.0],
                  [0.7, 0.7, 0.0]])[:, :e.metric.n]
    for x in default_grid(e.metric, 2):
        for route in _FIBER:
            fn, ref = ROUTES[route]
            assert _outcome(fn, e.metric, e.phi, x, Y) == _outcome(ref, e.metric, e.phi, x, Y)


# -- the fallback keeps the per-point error text ------------------------------

def test_a_field_failing_at_one_stencil_point_names_it():
    # a stacked field that fails at one point of the stack (axis 1, -2h):
    # the stencil is redone point by point, and the text is the per-point one
    x = np.array([0.3, -0.2])

    def field(p):
        if np.any(p[..., 1] < -0.2 - 1.5e-3):
            raise ValueError("boom")
        return np.zeros(p.shape[:-1] + (3,))

    def per_point(p):
        if p[1] < -0.2 - 1.5e-3:
            raise ValueError("boom")
        return np.zeros(3)

    with pytest.raises(EvaluationError) as new:
        base_derivative(field, x)
    with pytest.raises(EvaluationError) as old:
        ref_base_derivative(per_point, x)
    assert str(new.value) == str(old.value) == (
        "field evaluation failed at offset -0.002 along axis 1: boom")
    assert isinstance(new.value.__cause__, ValueError)


def test_a_spray_stencil_point_leaving_the_cone_keeps_the_text():
    # |b| sits just inside the unicorn cone at x, so that a stencil point
    # along axis 0 leaves it: the batched pass raises, and the per-point redo
    # raises the per-point engine's text, not a bare DomainError
    edge = 1.0 * (1.0 - 0.05)
    m = MetricSpec(n=2, a=lambda x: np.eye(2),
                   b_form=lambda x: np.array([edge - 5e-4 + 0.5 * x[0], 0.0]),
                   chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)), name="edge")
    f = UnicornPhi(b0=1.0, k=0.3, q=0.7, c=1.0)
    x, Y = np.array([0.0, 0.0]), np.array([[1.0, 0.0], [0.6, 0.8]])
    for fn, ref in (ROUTES["riemann"], ROUTES["spray_generic"], ROUTES["h_curvature"]):
        with pytest.raises(EvaluationError) as new:
            fn(m, f, x, Y)
        with pytest.raises(EvaluationError) as old:
            ref(m, f, x, Y)
        assert str(new.value) == str(old.value)
        assert str(new.value).startswith("field evaluation failed at offset +0.001 along axis 0: s=")


def test_per_point_fields_map_over_the_stack():
    # a per-point field goes through `_at`: one call per stencil point, in order
    seen = []

    def field(p):
        seen.append(p.tolist())
        return math.fsum(p)

    x = np.array([[0.3, -2.0], [0.1, 0.4]])
    grad = base_derivative(partial(_at, field), x)
    assert grad.shape == (2, 2) and len(seen) == 4 * 2 * 2
    assert seen[:2] == [[0.3 + 1e-3, -2.0], [0.1 + 1e-3, 0.4]]
    assert np.array_equal(grad, ref_base_derivative(field, x))
