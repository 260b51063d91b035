"""The beta calculus over a stack of points gives the bits of one point alone.

``beta_derivatives`` takes one point or a ``(P, n)`` stack, and every command
reads one stacked pass over its sample set.  The reference below is the one-point
route the engine took before: its stencil, its Christoffel loop and its
contractions, copied verbatim.  Every field must match it exactly, not just
closely: ``report`` and ``table`` stdout are byte-stable, and the CSV shows
only 12 digits.
"""

import io
import sys
import types
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from finsler.catalog import catalog_names, get_metric
from finsler.classify import default_grid
from finsler.cli import RunConfig, cmd_check, cmd_table, main
from finsler.errors import DomainError, EvaluationError, SingularMetric
from finsler.geometry_core import (BetaCalculus, ChartDomain, MetricSpec, _at,
                                   _inverse_spd, beta_derivatives)
from finsler.jets import base_derivative
from finsler.spray_curvature import curvature_bundle, per_direction

FIELDS = [name for name in BetaCalculus.__dataclass_fields__ if name != "n"]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def ref_base_derivative(field, x, axis):
    x = np.asarray(x, dtype=float)
    h0 = 1e-3 * max(1.0, abs(x[axis]))

    def f(offset):
        xp = x.copy()
        xp[axis] += offset
        try:
            v = field(xp)
            return float(v) if np.ndim(v) == 0 else np.asarray(v, dtype=float)
        except Exception as exc:  # noqa: BLE001
            raise EvaluationError(
                f"field evaluation failed at offset {offset:+g} along axis {axis}: {exc}"
            ) from exc

    def central(h):
        return (f(h) - f(-h)) / (2.0 * h)

    d1 = central(h0)
    d2 = central(2.0 * h0)
    return (4.0 * d1 - d2) / 3.0


def ref_beta_derivatives(m, x):
    x = np.asarray(x, dtype=float)
    a = m.a_at(x)
    a_inv = _inverse_spd(a)
    n = m.n
    da = np.array([ref_base_derivative(m.a_at, x, k) for k in range(n)])
    rows, cols = np.tril_indices(n, -1)
    da[:, rows, cols] = da[:, cols, rows]
    gamma = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = 0.0
                for mm in range(n):
                    acc += a_inv[i, mm] * (da[j, mm, k] + da[k, mm, j] - da[mm, j, k])
                gamma[i, j, k] = 0.5 * acc
    b_i = m.b_at(x)
    db = np.array([ref_base_derivative(m.b_at, x, j) for j in range(n)]).T
    bij = db - np.einsum("k,kij->ij", b_i, gamma)
    r = 0.5 * (bij + bij.T)
    s = 0.5 * (bij - bij.T)
    b_up = a_inv @ b_i
    b2 = float(b_i @ b_up)
    return BetaCalculus(x=x, n=n, a=a, a_inv=a_inv, gamma=gamma, b_i=b_i,
                        b_up=b_up, b2=b2, b=float(np.sqrt(max(b2, 0.0))),
                        bij=bij, r=r, s=s, r_i=b_up @ r, s_i=b_up @ s,
                        s_up=a_inv @ s, da=da, db=db)


def _bits(value):
    """Values and signs of zero, so that -0.0 and 0.0 differ."""
    value = np.asarray(value)
    return value.tolist(), np.signbit(value).tolist()


def _same(got, want):
    for name in FIELDS:
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    assert type(got.b) is float and type(got.b2) is float


#: an expression-based ``--config`` metric: a(x) and b(x) parsed from text
CUSTOM = {"schema": 1, "metric": {"custom": {
    "n": 2,
    "a": [["1 + x1*x1", "0.3*sin(x1*x2)"], ["0.3*sin(x1*x2)", "exp(0.5*x2)"]],
    "b": ["0.2*cos(x2)", "0.1*x1*x2 - 0.05"],
    "lo": [-1, -1], "hi": [1, 1]}}}


def _metrics():
    return ([get_metric(name).metric for name in catalog_names()]
            + [RunConfig(CUSTOM).metric])


@pytest.mark.parametrize("m", _metrics(), ids=lambda m: m.name)
def test_stack_rows_have_the_one_point_bits(m):
    grid = default_grid(m, per_axis=4)
    stack = beta_derivatives(m, np.array(grid))
    assert stack.gamma.shape == (len(grid),) + (m.n,) * 3
    for k, x in enumerate(grid):
        want = ref_beta_derivatives(m, x)
        _same(beta_derivatives(m, x), want)
        _same(stack.row(k), want)


def test_stacked_base_derivative_keeps_the_error_wrapping():
    def field(p):
        if p[0] > 0.5:
            raise ValueError("boom")
        return np.zeros(3)

    # the second point's first stencil point fails, at axis 0 and offset +h
    with pytest.raises(EvaluationError, match=r"^field evaluation failed at "
                       r"offset \+0\.001 along axis 0: boom$"):
        base_derivative(field, np.array([[0.0, 0.0], [0.5, 0.0]]))


def test_grid_mask_equals_the_contains_filter():
    calls = []

    def inside(p):
        calls.append(p)
        return p[0] ** 2 + p[1] ** 2 < 0.6

    dom = ChartDomain((-0.8, -0.5), (0.7, 0.9), predicate=inside)
    counts = [7, 9]
    # a negative margin grows the box, so the mask has points to drop
    pts = dom.grid(counts, margin=-0.2)
    lo, hi = np.array(dom.lo) - 0.2, np.array(dom.hi) + 0.2
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(2)]
    every = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    in_box = [p for p in every if np.all(p >= dom.lo) and np.all(p <= dom.hi)]
    assert len(calls) == len(in_box) < len(every)
    want = [p for p in every if dom.contains(p)]
    assert np.array_equal(np.array(pts), np.array(want))


def test_empty_stacks_fail_typed():
    entry = get_metric("euclid_randers")
    empty = np.zeros((0, 2))
    with pytest.raises(DomainError, match="empty stack"):
        beta_derivatives(entry.metric, empty)
    with pytest.raises(DomainError, match="empty stack"):
        curvature_bundle(entry.metric, entry.phi, [0.1, 0.2], empty)
    assert per_direction(lambda Y: [curvature_bundle(entry.metric, entry.phi,
                                                     [0.1, 0.2], Y).K], empty) == []


def _draw_points(data, m, count):
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = pytest.importorskip("hypothesis").strategies
    lo = np.asarray(m.chart_domain.lo, dtype=float)
    hi = np.asarray(m.chart_domain.hi, dtype=float)
    t = data.draw(hnp.arrays(float, (count, m.n), elements=st.floats(0.05, 0.95)))
    return lo + t * (hi - lo)


def test_stack_equals_one_point_calls_property():
    # random interior points of every catalog metric and of an expression
    # metric: each row of the stacked call has its point's bits
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    metrics = _metrics()

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.sampled_from(range(len(metrics))), st.integers(1, 6), st.data())
    def check(index, count, data):
        m = metrics[index]
        X = _draw_points(data, m, count)
        hypothesis.assume(all(m.chart_domain.contains(x) for x in X))
        stack = beta_derivatives(m, X)
        for k, x in enumerate(X):
            one = beta_derivatives(m, x)
            for name in FIELDS:
                assert np.array_equal(getattr(stack.row(k), name), getattr(one, name)), name

    check()


def test_stacked_base_derivative_equals_scalar_rows_property():
    # column k of the gradient has the bits of the one-axis reference stencil,
    # at one point and on every row of a (P, n) stack
    hypothesis = pytest.importorskip("hypothesis")
    hnp = pytest.importorskip("hypothesis.extra.numpy")
    st = hypothesis.strategies

    def scalar(p):
        return np.sin(p[0]) * np.exp(0.3 * p[-1]) + p[0] ** 3

    def tensor(p):
        return np.array([[p[0] * p[-1], np.cos(p[-1])], [1.0 / (2.0 + p[0]), p[1] ** 2]])

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(st.sampled_from([scalar, tensor]),
                      hnp.arrays(float, st.tuples(st.integers(1, 5), st.integers(2, 3)),
                                 elements=st.floats(-1.5, 1.5)))
    def check(field, X):
        n = X.shape[1]
        stack = base_derivative(partial(_at, field), X)
        assert stack.shape == (len(X),) + np.shape(field(X[0])) + (n,)
        for row, x in zip(stack, X):
            alone = base_derivative(partial(_at, field), x)
            assert _bits(row) == _bits(alone)
            for k in range(n):
                assert _bits(alone[..., k]) == _bits(ref_base_derivative(field, x, k))

    check()


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is the outcome
        return type(exc), str(exc)
    return None


def test_table_reports_what_the_first_failing_point_raises_property():
    # a(x) raises (or is singular) at one grid point, and b(x) may raise at
    # another: the stacked pass can fail at a later point first, and the
    # table must still report the first point that fails alone, also when
    # the grid's stacked passes are split into chunks of a few points
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    import finsler.geometry_core as geometry_core

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.integers(2, 4), st.data())
    def check(per_axis, data):
        base = get_metric("lie_group").metric
        grid = default_grid(base, per_axis)
        bad_a = grid[data.draw(st.integers(0, len(grid) - 1))]
        bad_b = grid[data.draw(st.integers(0, len(grid) - 1))]
        how = data.draw(st.sampled_from(["raise", "singular", "stencil"]))
        b_fails = data.draw(st.booleans())

        def a(x):
            if how == "stencil" and 0 < np.abs(x - bad_a).max() < 3e-3:
                raise ValueError("a(x) undefined next to the point")
            if how != "stencil" and np.array_equal(x, bad_a):
                if how == "raise":
                    raise SingularMetric("a(x) undefined at the point")
                return np.zeros((2, 2))
            return base.a(x)

        def b(x):
            if b_fails and np.array_equal(x, bad_b):
                raise ValueError("b(x) undefined at the point")
            return base.b_form(x)

        m = MetricSpec(n=2, a=a, b_form=b, chart_domain=base.chart_domain, name="flaky")
        want = next(filter(None, (_outcome(beta_derivatives, m, x) for x in grid)))
        cfg = types.SimpleNamespace(metric=m, phi=get_metric("lie_group").phi,
                                    per_axis=per_axis, n_directions=4, seed=42)
        chunk = data.draw(st.sampled_from([geometry_core._GRID_CHUNK, 1, 3, 5]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry_core, "_GRID_CHUNK", chunk)
            assert _outcome(cmd_table, cfg, "r") == want

    check()


@pytest.mark.parametrize("quantity", ["gamma", "r", "s_i", "bnorm"])
def test_chunked_grid_passes_keep_the_table_bytes(quantity, monkeypatch):
    # table reads the grid's beta calculus one chunk of points at a time, to
    # bound the memory of the stacked stencil; the chunk size moves no bit
    import finsler.geometry_core as geometry_core
    e = get_metric("bao_shen")
    cfg = types.SimpleNamespace(metric=e.metric, phi=e.phi, per_axis=3,
                                n_directions=4, seed=42)
    whole = cmd_table(cfg, quantity)
    monkeypatch.setattr(geometry_core, "_GRID_CHUNK", 7)
    assert cmd_table(cfg, quantity) == whole


def _count_one_point_passes(monkeypatch):
    """(spec, point) of each ``beta_derivatives`` call at one point, through every
    module that binds it; the list keeps every spec alive, so no id is reused."""
    original, calls = beta_derivatives, []

    def counting(m, x):
        if np.ndim(x) == 1:
            calls.append((m, tuple(np.asarray(x, dtype=float).tolist())))
        return original(m, x)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("finsler")
                and getattr(mod, "beta_derivatives", None) is original):
            monkeypatch.setattr(mod, "beta_derivatives", counting)
    return calls


@pytest.mark.parametrize("command", ["report", "classify"])
@pytest.mark.parametrize("name", ["lie_group", "bao_shen"])
def test_commands_make_no_one_point_pass(name, command, monkeypatch, capsys):
    # each command builds its sample set's beta calculus as one stacked pass
    # and hands every point its row; stencils pass stacks of their own
    calls = _count_one_point_passes(monkeypatch)
    assert main([command, "--metric", name, "--per-axis", "2", "--directions", "4"]) == 0
    capsys.readouterr()
    assert calls == []


def test_check_computes_each_point_once(monkeypatch):
    # every criterion hands its stack's rows, or one bundle's calculus, to
    # whatever reads a point: no (spec, point) pair is passed twice
    calls = _count_one_point_passes(monkeypatch)
    assert cmd_check(stream=io.StringIO()) == 0
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("argv", [["report"], ["table", "--quantity", "K"],
                                  ["table", "--quantity", "B"]])
def test_directions_of_a_failing_grid_share_their_point_once(argv, monkeypatch, capsys):
    # the grid's stacked pass raises, and so does each point's direction
    # batch: the bundles of its directions, redone one at a time, share the
    # point's calculus or its error.  The classification samples its own
    # grid, and its redo is not the records' concern here
    import finsler.cli as cli

    def no_classification(*args):
        raise DomainError("not sampled here")

    monkeypatch.setattr(cli, "classify_metric", no_classification)
    calls = _count_one_point_passes(monkeypatch)
    main([argv[0], "--config", str(FIXTURES / "singular_a_b_first.json"), *argv[1:]])
    capsys.readouterr()
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("name", ["singular_a", "singular_a_b_first"])
def test_table_of_a_failing_grid_computes_each_point_once(name, monkeypatch, capsys):
    # the grid's stacked pass raises, so the table computes each point alone,
    # once, up to the first point that fails
    calls = _count_one_point_passes(monkeypatch)
    assert main(["table", "--config", str(FIXTURES / f"{name}.json"), "--quantity", "r"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls and len(calls) == len(set(calls))
