"""curvature_flags runs every (point, direction) pair of its grid as one jet batch.

The reference below is the per-point loop that ``curvature_flags`` ran before:
each point's admissible directions as one batch, redone one direction at a
time if it raises (``per_direction``, the old package helper, kept here).  The grid batch must give every pair's row the bytes of
that loop, and so the same verdicts, residual bytes included; an error must be
the one the loop raises.  Its S column is read from the spray's N and the
gradient of ln sigma as the loop read it.
"""

import json

import numpy as np
import pytest

import finsler.classify as classify
import finsler.spray_curvature as spray_curvature
from finsler.catalog import catalog_names, get_metric
from finsler.classify import (PER_AXIS, TOL_S, TOL_TENSOR, Verdict,
                              _admissible_dirs, classify_metric,
                              curvature_flags, default_directions,
                              default_grid)
from finsler.cli import RunConfig
from finsler.errors import AllSamplesSingular, DomainError, FinslerError
from finsler.finsler_metric import fsq_jet
from finsler.geometry_core import ChartDomain, MetricSpec, beta_derivatives
from finsler.phi_families import RandersPhi, UnicornPhi
from finsler.spray_curvature import curvature_bundle, ln_sigma_gradient

FIXTURES = "tests/fixtures/"


def per_direction(fn, Y):
    """``fn(Y)`` on a ``(B, n)`` stack, or, if it raises, ``fn(y)`` per direction:
    the loop the package ran before ``errors.by_columns``, kept as this oracle's."""
    try:
        return fn(Y)
    except FinslerError:
        return [item for y in Y for item in fn(y)]


def ref_sample_norms(m, f, bc, Y, grad):
    Y = Y / np.sqrt(fsq_jet(m, f, bc.x, Y, 0).value)[..., None]
    cb = curvature_bundle(m, f, bc.x, Y, grad, bc)
    C = cb.fd.C
    if grad is None:
        S = np.zeros(len(cb.dirs))
    else:
        N = cb.spray.N
        S = sum(N[..., i, i] for i in range(m.n)) - (Y[..., None, :] @ grad)[..., 0]
    return np.column_stack([np.abs(np.reshape(T, (len(cb.dirs), -1))).max(axis=1)
                            for T in (cb.B, cb.L, cb.D, S, C)]).tolist()


def ref_curvature_flags(m, f, calc, dirs, rows_out=None):
    """The per-point loop: one batch per point, one direction at a time if it raises."""
    res = {"berwald": 0.0, "landsberg": 0.0, "douglas": 0.0,
           "s_zero": 0.0, "riemannian": 0.0}
    n_used = 0
    sigma_error = None
    for bc in calc.rows():
        usable = _admissible_dirs(f, bc, np.asarray(dirs, dtype=float))
        if not len(usable):
            continue
        try:
            grad = ln_sigma_gradient(m, f, bc.x)
        except FinslerError as exc:
            grad, sigma_error = None, sigma_error or exc
        for row in per_direction(lambda Y: ref_sample_norms(m, f, bc, Y, grad), usable):
            if rows_out is not None:
                rows_out.append(row)
            for name, r in zip(res, row):
                res[name] = max(res[name], r)
            n_used += 1
    if n_used == 0:
        raise AllSamplesSingular("every grid x direction sample was inadmissible")
    out = {}
    for name, r in res.items():
        t = TOL_S if name == "s_zero" else TOL_TENSOR
        out[name] = Verdict(r < t, r, t, n_used)
    if sigma_error is not None:
        out["s_zero"] = Verdict.errored(TOL_S, sigma_error)
    return out


def _key(flags):
    """Every field of every verdict, the residual as its bytes (a NaN included)."""
    return {name: (v.value, np.float64(v.residual).tobytes(), v.threshold, v.n_samples,
                   v.error) for name, v in flags.items()}


def _grid(m):
    return beta_derivatives(m, np.array(default_grid(m, PER_AXIS)))


def _assert_same(m, f, dirs, monkeypatch):
    """Equal verdicts and equal rows: each pair's row with its reference bytes."""
    rows = []
    pair_pass = classify.pair_pass

    def kept(*args):
        out = pair_pass(*args)
        rows.extend(out[0])
        return out

    monkeypatch.setattr(classify, "pair_pass", kept)
    calc = _grid(m)
    want_rows = []
    want = ref_curvature_flags(m, f, calc, dirs, want_rows)
    assert _key(curvature_flags(m, f, calc, dirs)) == _key(want)
    assert np.array(rows).tobytes() == np.array(want_rows).tobytes()


def _config(name):
    with open(FIXTURES + name) as fh:
        cfg = RunConfig(json.load(fh))
    return cfg.metric, cfg.phi, default_directions(cfg.metric.n, cfg.n_directions, seed=cfg.seed)


@pytest.mark.parametrize("name", catalog_names())
def test_every_catalog_metric(name, monkeypatch):
    e = get_metric(name)
    _assert_same(e.metric, e.phi, default_directions(e.metric.n), monkeypatch)


#: whether the config's sigma sweep fails at every grid point: unit_form_3d
#: has |b| = 1, an unbounded unit ball; four_d's sigma computes, as the
#: unit-ball rule serves every dimension
SIGMA_FAILS = {"unicorn_near_edge.json": True, "unit_form_3d.json": True, "four_d.json": False}


@pytest.mark.parametrize("name", list(SIGMA_FAILS))
def test_configs_where_sigma_fails(name, monkeypatch):
    m, f, dirs = _config(name)
    _assert_same(m, f, dirs, monkeypatch)
    s_zero = curvature_flags(m, f, _grid(m), dirs)["s_zero"]
    assert (s_zero.error is not None) == SIGMA_FAILS[name]


def _sloped(slope):
    """a = I and b = (slope x1, 0): |b| and the admissible set vary with x1."""
    return MetricSpec(n=2, a=lambda x: np.eye(2),
                      b_form=lambda x: np.array([slope * x[0], 0.0]),
                      chart_domain=ChartDomain((-1.0, -1.0), (1.0, 1.0)))


def test_ragged_admissible_sets(monkeypatch):
    m, f = _sloped(0.65), UnicornPhi(0.6, 0.3, 0.7, 1.0)
    dirs = default_directions(2, 16)
    counts = {len(_admissible_dirs(f, bc, dirs)) for bc in _grid(m).rows()}
    assert len(counts) > 1 and 16 in counts  # ragged
    _assert_same(m, f, dirs, monkeypatch)


class _Refusing(RandersPhi):
    """Randers, whose order >= 3 series refuses s in (0.5, 0.6), naming the first."""

    def taylor(self, s0, order):
        s = np.asarray(s0)
        bad = (s > 0.5) & (s < 0.6) & (order >= 3)
        if bad.any():
            raise DomainError(f"refused s = {s[bad].ravel()[0]}")
        return super().taylor(s0, order)


class _Narrow(RandersPhi):
    """Randers, whose order >= 3 series refuses a batch of more than 20 columns."""

    def taylor(self, s0, order):
        if order >= 3 and np.size(s0) > 20:
            raise DomainError("batch too wide")
        return super().taylor(s0, order)


def test_a_raising_pair_gives_the_per_point_error():
    m = get_metric("fish_tank").metric
    f, dirs, calc = _Refusing(), default_directions(2, 16), _grid(m)
    with pytest.raises(FinslerError) as want:
        ref_curvature_flags(m, f, calc, dirs)
    with pytest.raises(FinslerError) as got:
        curvature_flags(m, f, calc, dirs)
    assert type(got.value) is type(want.value) is DomainError
    assert str(got.value) == str(want.value)


def test_a_raising_batch_is_redone_per_point(monkeypatch):
    # every point's 16 directions pass as one batch, the grid's 144 pairs do not;
    # the fault names no columns, so the grid pass redoes its batch one pair at a time
    e = get_metric("fish_tank")
    _assert_same(e.metric, _Narrow(), default_directions(2, 16), monkeypatch)


@pytest.mark.parametrize("name, chunk", [("bao_shen", 7), ("lie_group", 16), ("fish_tank", 50)])
def test_chunk_boundaries(name, chunk, monkeypatch):
    monkeypatch.setattr(classify, "_PAIR_CHUNK", chunk)
    e = get_metric(name)
    _assert_same(e.metric, e.phi, default_directions(e.metric.n), monkeypatch)


@pytest.mark.parametrize("chunk, calls", [(1024, 1), (100, 5)])
def test_one_order4_spray_per_chunk(chunk, calls, monkeypatch):
    # bao_shen: 27 points x 16 directions = 432 pairs
    monkeypatch.setattr(classify, "_PAIR_CHUNK", chunk)
    orders = []
    spray_ab = spray_curvature.spray_ab
    monkeypatch.setattr(spray_curvature, "spray_ab",
                        lambda *args, **kw: orders.append(kw.get("order")) or spray_ab(*args, **kw))
    e = get_metric("bao_shen")
    classify_metric(e.metric, e.phi)
    assert orders.count(4) == calls
