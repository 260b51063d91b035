"""``report``'s grid batch gives the bytes of one curvature bundle per point.

The reference functions below are the per-point records loop that
``cmd_report`` ran before its (point, direction) pairs went through one jet
batch per ``_PAIR_CHUNK`` pairs: each grid point's directions as one bundle,
redone one direction at a time if it raises (``per_direction``, the old
package helper, kept here).  The engine must reproduce its text exactly, not
just closely: the ``report`` stdout is byte-stable, also where a batch raises
and ``errors.by_columns`` redoes it in parts.
"""

import json
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from finsler import classify, cli, spray_curvature
from finsler.catalog import catalog_names
from finsler.classify import classify_metric, default_directions
from finsler.errors import DomainError, FinslerError
from finsler.geometry_core import grid_calculus
from finsler.spray_curvature import (CurvatureBundle, curvature_bundle, ln_sigma_gradient,
                                     spray_data)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
#: the run configs among the fixtures: ``<name>.json``, not ``<name>.<command>.json``
CONFIGS = sorted(p for p in FIXTURES.glob("*.json") if p.name.count(".") == 1)


def per_direction(fn, Y):
    """``fn(Y)`` on a ``(B, n)`` stack, or, if it raises, ``fn(y)`` per direction:
    the loop the package ran before ``errors.by_columns``, kept as this oracle's."""
    try:
        return fn(Y)
    except FinslerError:
        return [item for y in Y for item in fn(y)]


def _fmt(v):
    return float(f"{float(v):.12g}")


def ref_records(m, f, x, Y, grad, bc):
    cb = curvature_bundle(m, f, x, Y, grad, bc)
    recs = [{"x": [_fmt(v) for v in x], "y": [_fmt(v) for v in y]} for y in cb.dirs]

    def fill(key, T, fmt=lambda row: _fmt(row[0])):
        for rec, row in zip(recs, np.reshape(T, (len(recs), -1))):
            rec[key] = fmt(row)

    def norm(row):
        return _fmt(np.abs(row).max())

    try:
        fill("F", cb.fd.F)
        fill("g", cb.fd.g, lambda row: [[_fmt(v) for v in r] for r in row.reshape(m.n, -1)])
        fill("C_norm", cb.fd.C, norm)
        fill("G", cb.G, lambda row: [_fmt(v) for v in row])
        for key in ("B", "E", "L", "D"):
            fill(f"{key}_norm", getattr(cb, key), norm)
        if m.n == 2:
            fill("K", cb.K)
        fill("S_formula", cb.S_formula)
        if grad is not None:
            fill("S_def", cb.S_def)
    except FinslerError as exc:
        if Y.ndim == 2:
            raise
        for rec in recs:
            rec["error"] = f"{type(exc).__name__}: {exc}"
    return recs


def ref_report(cfg):
    m, f = cfg.metric, cfg.phi
    grid = cli._sample_grid(cfg)
    dirs = default_directions(m.n, cfg.n_directions, seed=cfg.seed)
    records = []
    for x, bc in zip(grid, grid_calculus(m, grid)):
        try:
            grad = ln_sigma_gradient(m, f, x, bc)
        except FinslerError:
            grad = None
        records += per_direction(lambda Y: ref_records(m, f, x, Y, grad, bc), dirs)
    try:
        classification = json.loads(classify_metric(m, f, dirs).to_json())
    except FinslerError as exc:
        classification = {"error": f"{type(exc).__name__}: {exc}"}
    doc = {"metric": cfg.metric_name, "n_points": len(grid),
           "n_directions": len(dirs), "records": records,
           "classification": classification}
    return json.dumps(doc, indent=2, sort_keys=True)


def _fallbacks(monkeypatch):
    """The points of ``cmd_report``'s bundles that compute their own spray: a
    point whose calculus raised, one of a batch that raised, or one whose
    filled bundle raised; a bundle filled from the batch computes none."""
    points = set()

    class Counted(CurvatureBundle):
        @cached_property
        def spray(self):
            points.add(tuple(self.x))
            return CurvatureBundle.spray.func(self)

    monkeypatch.setattr(cli, "curvature_bundle", Counted)
    return points


#: a unicorn phi whose records fail where |b| = 0.99 (x1 = -0.9 and 0.9), not at x1 = 0
NEAR_EDGE_ROWS = {"schema": 1, "metric": {"custom": {
    "n": 2, "a": [["1", "0"], ["0", "1"]], "b": ["1.1*x1", "0"], "lo": [-1, -1], "hi": [1, 1],
    "phi": {"variant": "unicorn", "b0": 1, "k": 0.3, "q": 0.7, "c": 1}}},
    "grid": {"per_axis": 3}, "directions": 8}


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_report_has_the_per_point_bytes(name, monkeypatch):
    cfg = cli.RunConfig({"schema": 1, "metric": {"name": name},
                         "grid": {"per_axis": 2}, "directions": 4})
    calls = _fallbacks(monkeypatch)
    assert cli.cmd_report(cfg) == ref_report(cfg)
    assert calls == set()  # every point went through the grid batch


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_report_has_the_per_point_bytes(path):
    # log_phi, singular_a, singular_a_b_first and unicorn_near_edge raise in a
    # point's calculus or in a batch, and take the per-point loop there
    cfg = cli.RunConfig(json.loads(path.read_text()))
    assert cli.cmd_report(cfg) == ref_report(cfg)


@pytest.mark.parametrize("doc, fallbacks", [
    (NEAR_EDGE_ROWS, 6),  # the batches of x1 = -0.9 and 0.9 raise, that of x1 = 0 computes
    (json.loads((FIXTURES / "singular_a.json").read_text()), 1),  # a = 0 at the origin
], ids=["near_edge_rows", "singular_a"])
def test_small_batches_beside_fallbacks_keep_the_bytes(doc, fallbacks, monkeypatch):
    # one grid row of 3 points per batch (3 x 8 and 3 x 16 pairs)
    cfg = cli.RunConfig(doc)
    want = ref_report(cfg)
    monkeypatch.setattr(classify, "_PAIR_CHUNK", 3 * cfg.n_directions)
    points = _fallbacks(monkeypatch)
    assert cli.cmd_report(cfg) == want
    assert len(points) == fallbacks


def test_directions_that_do_not_divide_the_chunk():
    # 64 points x 24 directions = 1536 pairs: two batches of 1024 and 512 pairs,
    # which split the 43rd point (index 42) after its 16th direction
    cfg = cli.RunConfig({"schema": 1, "metric": {"name": "bao_shen"},
                         "grid": {"per_axis": 4}, "directions": 24, "seed": 7})
    assert cli.cmd_report(cfg) == ref_report(cfg)


def test_report_makes_one_spray_batch_per_chunk(monkeypatch, capsys):
    # bao_shen's default 125 points x 16 directions = 2000 pairs: two record
    # batches (1024 and 976 pairs) and one for the classification's 27 x 16
    # pairs; counted through every module that binds spray_data
    calls = []
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("finsler")
                and getattr(mod, "spray_data", None) is spray_data):
            monkeypatch.setattr(mod, "spray_data", lambda *args, **kw:
                                calls.append(1) or spray_data(*args, **kw))
    assert cli.main(["report", "--metric", "bao_shen"]) == 0
    assert len(json.loads(capsys.readouterr().out)["records"]) == 2000
    assert len(calls) == 2 + 1


def test_a_point_whose_own_s_formula_raises_is_redone_alone(monkeypatch):
    # the batch computes; the first point's filled bundle raises in _records,
    # and that point alone takes one bundle per direction
    cfg = cli.RunConfig({"schema": 1, "metric": {"name": "lie_group"},
                         "grid": {"per_axis": 2}, "directions": 4})
    x0 = cli._sample_grid(cfg)[0]
    formula = spray_curvature.s_curvature_formula

    def raising(m, f, x, y, bc=None):
        if np.array_equal(x, x0):
            raise DomainError("S formula refused at this x")
        return formula(m, f, x, y, bc)

    monkeypatch.setattr(spray_curvature, "s_curvature_formula", raising)
    want = ref_report(cfg)
    assert '"error": "DomainError: S formula refused at this x"' in want
    points = _fallbacks(monkeypatch)
    assert cli.cmd_report(cfg) == want
    assert points == {tuple(x0)}


#: a filled bundle's fields, as (name, reader); K exists for n = 2 only
FIELDS = [("F", lambda cb: cb.fd.F), ("g", lambda cb: cb.fd.g), ("C", lambda cb: cb.fd.C),
          *((key, lambda cb, key=key: getattr(cb, key))
            for key in ("G", "B", "E", "D", "L", "S_formula", "R", "H"))]


@pytest.mark.parametrize("name", catalog_names())
def test_a_filled_bundle_has_the_bits_of_one_computed_alone(name, monkeypatch):
    cfg = cli.RunConfig({"schema": 1, "metric": {"name": name},
                         "grid": {"per_axis": 2}, "directions": 4})
    m, f = cfg.metric, cfg.phi
    grid = cli._sample_grid(cfg)
    dirs = default_directions(m.n, cfg.n_directions, seed=cfg.seed)
    calcs = list(grid_calculus(m, grid))
    grads = []
    for x, bc in zip(grid, calcs):
        try:
            grads.append(ln_sigma_gradient(m, f, x, bc))
        except FinslerError:
            grads.append(None)
    fields = FIELDS + [("K", lambda cb: cb.K)] * (m.n == 2)
    owner, Y = np.repeat(np.arange(len(grid)), len(dirs)), np.tile(dirs, (len(grid), 1))
    bundles = []  # the filled bundles, one per point, as _pair_records reads them
    monkeypatch.setattr(cli, "_records", lambda cb: bundles.append(cb) or [])
    assert cli._pair_records(m, f, calcs, grads, owner, Y) == []
    assert len(bundles) == len(grid)
    for x, bc, grad, filled in zip(grid, calcs, grads, bundles):
        alone = curvature_bundle(m, f, x, dirs, grad, bc)
        read = fields + [("S_def", lambda cb: cb.S_def)] * (grad is not None)
        for key, field in read:
            assert np.asarray(field(filled)).tobytes() == np.asarray(field(alone)).tobytes(), key
