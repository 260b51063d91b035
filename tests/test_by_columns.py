"""``errors.by_columns``: a failing column no longer sinks its batch.

The property below runs a synthetic batch function through the runner: each
column fails one of a few checks or none, the checks run in a drawn order,
and each check names its failing columns with a mask, with none, or with a
mask of the wrong length.  The runner's result, or the error it raises, must
equal a one-column-at-a-time reference; where every fault carries its mask,
no healthy column may run alone.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from finsler import classify, cli, finsler_metric, geometry_core, spray_curvature
from finsler.catalog import catalog_names
from finsler.errors import DomainError, EvaluationError, FinslerError, by_columns
from finsler.geometry_core import BetaCalculus
from finsler.jets import base_derivative

FIXTURES = Path(__file__).resolve().parent / "fixtures"


class Synthetic:
    """Columns 0..B-1 through checks in ``order``; ``fails[j]`` is the check column j
    fails, or None; ``kinds[c]`` is how check c names its columns."""

    def __init__(self, fails, order, kinds, record=False):
        self.fails, self.order, self.kinds, self.record = fails, order, kinds, record
        self.alone_runs = []

    def batch(self, cols):
        for check in self.order:
            bad = np.array([self.fails[j] == check for j in cols])
            if bad.any():
                kind = self.kinds[check]
                columns = {"mask": bad, "none": None, "long": np.append(bad, True)}[kind]
                raise DomainError(f"column {cols[bad.argmax()]} fails check {check}",
                                  columns=columns)
        return [f"value {j}" for j in cols]

    def alone(self, cols):
        self.alone_runs.append(int(cols[0]))
        try:
            return self.batch(cols)
        except FinslerError as exc:
            if not self.record:
                raise
            return [f"error: {exc}"]

    def reference(self, count):
        """One column at a time: the items, or the first failing column's error."""
        items = []
        for j in range(count):
            try:
                items += self.batch(np.array([j]))
            except FinslerError as exc:
                if not self.record:
                    return str(exc)
                items.append(f"error: {exc}")
        return items


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FinslerError as exc:
        return exc


def test_runner_equals_one_column_at_a_time_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    checks = 3

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 40).flatmap(lambda count: st.tuples(
        st.lists(st.one_of(st.none(), st.integers(0, checks - 1)), min_size=count,
                 max_size=count),
        st.permutations(range(checks)),
        st.lists(st.sampled_from(["mask", "none", "long"]), min_size=checks, max_size=checks),
        st.booleans())))
    def check(case):
        fails, order, kinds, record = case
        run = Synthetic(fails, order, kinds, record)
        want = run.reference(len(fails))
        got = _outcome(by_columns, run.batch, len(fails), run.alone)
        if isinstance(got, FinslerError):
            assert str(got) == want
            # the escaping mask names failing columns only, the raising one first
            assert got.columns.shape == (len(fails),)
            assert all(fails[j] is not None for j in np.flatnonzero(got.columns))
            assert f"column {got.columns.argmax()} " in want
        else:
            assert got == want
        if all(kind == "mask" for kind in kinds):
            assert all(fails[j] is not None for j in run.alone_runs)

    check()


def test_arrays_join_on_their_first_axis():
    # a table-like batch: rows per column, column 2 fails alone and is recorded
    def batch(cols):
        if 2 in cols:
            raise DomainError("column 2", columns=cols == 2)
        return np.stack([cols, 10 * cols], axis=1).astype(float)

    got = by_columns(batch, 5, lambda cols: np.array([[-1.0, -1.0]]))
    assert got.tolist() == [[0, 0], [1, 10], [-1, -1], [3, 30], [4, 40]]


def _counting(monkeypatch):
    """One entry per ``alpha_beta_jets`` call: its number of directions."""
    widths, jets = [], finsler_metric.alpha_beta_jets

    def counted(a, b_i, f, y, order):
        widths.append(1 if np.ndim(y) == 1 else len(y))
        return jets(a, b_i, f, y, order)

    for module in (finsler_metric, spray_curvature):
        monkeypatch.setattr(module, "alpha_beta_jets", counted)
    return widths


def test_failing_phi_report_runs_no_healthy_pair_alone(monkeypatch):
    # log_phi's phi = 1 + s^(1+s) / 2 takes the log of s <= 0, so half of its
    # pairs fail: each failing pair is redone alone, once, and records its
    # error, and no healthy pair runs alone (a batch redone one direction at
    # a time once made 457 one-direction calls here).  The one call more is
    # the classification's first failing pair, run alone to raise its error.
    doc = json.loads((FIXTURES / "log_phi.json").read_text())
    cfg = cli.RunConfig({**doc, "grid": {"per_axis": 3}, "directions": 32})
    widths = _counting(monkeypatch)
    alone = []
    bundle = cli.curvature_bundle
    monkeypatch.setattr(cli, "curvature_bundle", lambda m, f, x, y, *args: alone.append(
        np.ndim(y) == 1) or bundle(m, f, x, y, *args))
    records = json.loads(cli.cmd_report(cfg))["records"]
    errored = sum("error" in rec for rec in records)
    assert (len(records), errored) == (288, 144)
    assert widths.count(1) <= errored + 1
    assert sum(alone) == errored  # every one-direction bundle is a failing pair


def test_singular_points_alone_only(monkeypatch):
    # singular_a_b_first: b = 1/x2 fails at the 3 grid points with x2 = 0, and
    # a = diag(x1^2 + x2^2, 1) is singular at the origin among them.  Only
    # those points are computed alone (a stack redone one point at a time
    # once made 11 one-point passes here, at all 9 points): 3 in the report's
    # grid calculus and 1 in the classification, which raises the first one's
    # error
    doc = json.loads((FIXTURES / "singular_a_b_first.json").read_text())
    cfg = cli.RunConfig(doc)
    alone = []
    calculus = geometry_core.beta_derivatives

    def counted(m, x):
        if np.ndim(x) == 1:
            alone.append(tuple(x))
        return calculus(m, x)

    for module in (geometry_core, classify):
        monkeypatch.setattr(module, "beta_derivatives", counted)
    out = json.loads(cli.cmd_report(cfg))
    assert len(alone) == 4 and all(x[1] == 0.0 for x in alone)
    assert out["classification"] == {"error": "DomainError: division by ~0"}


#: the pair pass's property cases: every catalog metric, and the fixtures whose
#: pairs (log_phi, unicorn_near_edge), sigma (both) or calculus (singular_a) fail;
#: 5 directions, so that most chunks split a point's pairs
PAIR_CASES = [*({"name": name} for name in catalog_names()), *(
    json.loads((FIXTURES / f"{name}.json").read_text())["metric"]
    for name in ("log_phi", "unicorn_near_edge", "singular_a"))]


def _pair_pass_outputs(k):
    """The report of case k on a 3-point-per-axis grid, and the verdicts of
    ``curvature_flags`` at that grid's healthy points, an error as its text."""
    cfg = cli.RunConfig({"schema": 1, "metric": PAIR_CASES[k], "grid": {"per_axis": 3},
                         "directions": 5})
    m, grid = cfg.metric, cli._sample_grid(cfg)
    calc = BetaCalculus.stack([bc for bc in geometry_core.grid_calculus(m, grid)
                               if not isinstance(bc, Exception)])
    dirs = classify.default_directions(m.n, cfg.n_directions, seed=cfg.seed)
    flags = _outcome(classify.curvature_flags, m, cfg.phi, calc, dirs)
    if isinstance(flags, FinslerError):
        return cli.cmd_report(cfg), f"{type(flags).__name__}: {flags}"
    return cli.cmd_report(cfg), {name: (v.value, np.float64(v.residual).tobytes(), v.n_samples,
                                        v.error) for name, v in flags.items()}


def test_any_pair_chunk_keeps_report_and_verdicts_property():
    # the pair pass's chunk rule is flat: a chunk of 1..40 pairs cuts the
    # report's and the classification's points anywhere, and each part must
    # give the bytes of the default chunk, where each grid here is one chunk
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    want = {}

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, len(PAIR_CASES) - 1), st.integers(1, 40))
    def check(k, chunk):
        if k not in want:
            want[k] = _pair_pass_outputs(k)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "_PAIR_CHUNK", chunk)
            assert _pair_pass_outputs(k) == want[k]

    check()


@pytest.mark.parametrize("names_columns", [True, False], ids=["mask", "no-mask"])
def test_a_stencil_fault_names_the_points_it_serves(names_columns):
    # the field refuses x1 < -0.9, so only the -h stencil points of the rows
    # at x1 = -0.9 fail; the error names the first of them, as a stencil redone
    # one point at a time does, and marks the rows whose stencils fail
    def field(xp):
        bad = xp[..., 0] < -0.9
        if bad.any():
            if names_columns:
                raise DomainError("below the edge", columns=bad if xp.ndim > 1 else None)
            raise ValueError("below the edge")
        return xp[..., 0] ** 2 + xp[..., 1]

    X = np.array([[0.0, 0.0], [-0.9, 0.5], [0.3, 0.1], [-0.9, -0.2]])
    with pytest.raises(EvaluationError) as refused:
        base_derivative(field, X)
    assert str(refused.value) == "field evaluation failed at offset -0.001 along axis 0: below the edge"
    marked = [False, True, False, True] if names_columns else [False, True, False, False]
    assert refused.value.columns.tolist() == marked
    healthy = X[[0, 2]]
    assert np.array_equal(base_derivative(field, healthy),
                          np.array([base_derivative(field, x) for x in healthy]))
