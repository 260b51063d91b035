"""Command-line front end.

Subcommands: ``report`` (JSON curvature report over a sample grid), ``table``
(CSV of one named quantity), ``classify`` (predicate report as JSON) and
``check`` (the built-in verification suite).  Metrics come from the catalog or
from an inline JSON config with expression strings for a_ij, b_i and phi.
Output is deterministic for a fixed config and seed.
"""

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache
from itertools import product

import numpy as np

from . import acceptance
from .catalog import catalog_names, finite_real, get_metric
from .classify import (_PAIR_CHUNK, _admissible_dirs, classify_metric, default_directions,
                       default_grid)
from .errors import (AllSamplesSingular, ConfigError, FinslerError, UnknownQuantity, by_columns,
                     marked, shown)
from .exprparse import parse
from .exprparse import eval_expr
from .finsler_metric import fundamental, sigma_bh
from .geometry_core import BetaCalculus, ChartDomain, MetricSpec, grid_calculus
from .phi_families import (CustomExprPhi, RandersPhi, RiemannSqrtPhi,
                           UnicornPhi, _q_series)
# the bundle's K calls riemann_flag; perfbench/tests/test_tracer.py requires it bound here
from .spray_curvature import (curvature_bundle, landsberg, ln_sigma_gradient,  # noqa: F401
                              pair_rows, riemann_flag, s_curvature_def, spray_data)

QUANTITIES = ("a", "b_form", "gamma", "r", "s", "r_i", "s_i", "bnorm", "Q",
              "G", "B", "E", "L", "D", "R", "K", "S", "H", "sigma")

#: quantities read off a curvature bundle, one per grid point; these and Q
#: need a direction as well as a point
_FIBER = {"G", "B", "E", "L", "D", "R", "K", "S", "H"}

_CONFIG_KEYS = {"schema", "metric", "grid", "directions", "seed", "out"}
_METRIC_KEYS = {"name", "params", "custom"}
_CUSTOM_KEYS = {"n", "a", "b", "phi", "lo", "hi"}
_PHI_KEYS = {"variant", "k", "b0", "q", "c", "delta", "expr", "params"}
_GRID_KEYS = {"per_axis"}

#: the most grid points (per_axis ** n) or directions a run takes; more would take gigabytes
MAX_SAMPLES = 10**6


def _reject_unknown(doc, allowed, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {shown(doc)}")
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unknown field(s) {shown(sorted(extra))} in {where}")


def _real(value, where):
    """A finite real config value, by ``get_metric``'s rule."""
    if not finite_real(value):
        raise ConfigError(f"{where} must be a finite real number, got {shown(value)}")
    return float(value)


def _integer(value, where, minimum):
    """A finite real config value that is a whole number >= ``minimum``."""
    if _real(value, where) % 1 or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {shown(value)}")
    return int(value)


def _entries(value, where, n):
    """A config list of n entries."""
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{where} must be a list of n = {n} entries, got {shown(value)}")
    return value


#: each phi variant's family and its numeric fields, with their defaults
_PHI_VARIANTS = {"randers": (RandersPhi, {}), "riemann_sqrt": (RiemannSqrtPhi, {"k": 1.0}),
                 "unicorn": (UnicornPhi, {"b0": 1.0, "k": 0.0, "q": 1.0, "c": 1.0, "delta": 0.05}),
                 "custom": (CustomExprPhi, {"b0": math.inf, "delta": 0.05})}


def _phi_from_config(doc):
    _reject_unknown(doc, _PHI_KEYS, "metric.custom.phi")
    variant = doc.get("variant", "randers")
    if not isinstance(variant, str) or variant not in _PHI_VARIANTS:
        raise ConfigError(f"unknown phi variant {shown(variant)}")
    family, kw = _PHI_VARIANTS[variant]
    kw = {key: _real(doc[key], f"metric.custom.phi.{key}") if key in doc else v
          for key, v in kw.items()}
    if variant == "custom":
        expr, params = doc.get("expr"), doc.get("params", {})
        if not isinstance(expr, str):
            raise ConfigError(f"metric.custom.phi.expr must be an expression string, got {shown(expr)}")
        if not isinstance(params, dict):
            raise ConfigError(f"metric.custom.phi.params must be an object, got {shown(params)}")
        kw.update(text=expr, params={key: _real(v, f"metric.custom.phi.params.{key}")
                                     for key, v in params.items()})
    try:  # a phi its family refuses is a config mistake, as a bad a or b is
        return family(**kw)
    except FinslerError as exc:
        raise ConfigError(f"bad metric.custom.phi: {type(exc).__name__}: {exc}") from exc


def _custom_metric(doc):
    _reject_unknown(doc, _CUSTOM_KEYS, "metric.custom")
    for key in ("n", "a", "b", "lo", "hi"):
        if key not in doc:
            raise ConfigError(f"metric.custom missing field {key!r}")
    n = _integer(doc["n"], "metric.custom.n", 1)
    rows = [_entries(row, "metric.custom.a", n) for row in _entries(doc["a"], "metric.custom.a", n)]
    var_names = [f"x{i + 1}" for i in range(n)]
    allowed = set(var_names)
    try:
        a_ast = [[parse(str(v), allowed) for v in row] for row in rows]
        b_ast = [parse(str(v), allowed) for v in _entries(doc["b"], "metric.custom.b", n)]
    except FinslerError as exc:
        raise ConfigError(f"bad expression in metric.custom: {exc}") from exc

    def bind(x):
        return {name: float(x[i]) for i, name in enumerate(var_names)}

    def a(x):
        env = bind(x)
        return np.array([[eval_expr(a_ast[i][j], env) for j in range(n)]
                         for i in range(n)], dtype=float)

    def b(x):
        env = bind(x)
        return np.array([eval_expr(b_ast[i], env) for i in range(n)], dtype=float)

    lo, hi = (tuple(_real(v, f"metric.custom.{key}")
                    for v in _entries(doc[key], f"metric.custom.{key}", n)) for key in ("lo", "hi"))
    m = MetricSpec(n=n, a=a, b_form=b, chart_domain=ChartDomain(lo, hi), name="custom")
    phi = _phi_from_config(doc.get("phi", {}))
    return m, phi


class RunConfig:
    """Validated run configuration (catalog or inline metric, grid, seed)."""

    def __init__(self, doc):
        _reject_unknown(doc, _CONFIG_KEYS, "config")
        if doc.get("schema") != 1:
            raise ConfigError("config must declare \"schema\": 1")
        mdoc = doc.get("metric")
        if not isinstance(mdoc, dict):
            raise ConfigError("config needs a 'metric' object")
        _reject_unknown(mdoc, _METRIC_KEYS, "metric")
        if "custom" in mdoc:
            self.metric, self.phi = _custom_metric(mdoc["custom"])
            self.metric_name = "custom"
        elif "name" in mdoc:
            params = mdoc.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError(f"metric.params must be an object, got {shown(params)}")
            try:
                entry = get_metric(mdoc["name"], **params)
            except FinslerError as exc:
                raise ConfigError(str(exc)) from exc
            self.metric, self.phi = entry.metric, entry.phi
            self.metric_name = entry.name
        else:
            raise ConfigError("metric needs either 'name' or 'custom'")
        grid = doc.get("grid", {})
        _reject_unknown(grid, _GRID_KEYS, "grid")
        per_axis, directions = grid.get("per_axis", 5), doc.get("directions", 16)
        self.per_axis = _integer(per_axis, "grid.per_axis", 1)
        self.n_directions = _integer(directions, "directions", 4)
        if self.per_axis ** self.metric.n > MAX_SAMPLES:
            raise ConfigError(f"grid.per_axis must give at most {MAX_SAMPLES} grid points "
                              f"(per_axis ** n, n = {self.metric.n}), got {shown(per_axis)}")
        if self.n_directions > MAX_SAMPLES:
            raise ConfigError(f"directions must be at most {MAX_SAMPLES}, got {shown(directions)}")
        self.seed = _integer(doc.get("seed", 42), "seed", 0)
        self.out = doc.get("out")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"out must be a non-empty file name, got {shown(self.out)}")


def _config_from_args(args):
    if getattr(args, "config", None):
        # the file sets these: given next to it, they would be dropped
        ignored = [flag for flag in ("--metric", "--param", "--per-axis", "--directions", "--seed")
                   if getattr(args, flag[2:].replace("-", "_"), None) is not None]
        if ignored:
            raise ConfigError(f"{', '.join(ignored)} cannot be combined with --config; "
                              "set them in the config file")
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {_path(args.config)}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from exc
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return RunConfig(doc)
    if not getattr(args, "metric", None):
        raise ConfigError("provide --metric NAME or --config FILE")
    params = {}
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {shown(item)}")
        key, _, val = item.partition("=")
        try:
            params[key] = json.loads(val)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"--param {shown(key, str)}: {shown(val)} "
                              f"is not a JSON value ({shown(exc, str)})") from exc
    doc = {"schema": 1, "metric": {"name": args.metric, "params": params}}
    if getattr(args, "per_axis", None) is not None:
        doc["grid"] = {"per_axis": args.per_axis}
    if getattr(args, "directions", None) is not None:
        doc["directions"] = args.directions
    if getattr(args, "seed", None) is not None:
        doc["seed"] = args.seed
    return RunConfig(doc)


def _sample_grid(cfg):
    return default_grid(cfg.metric, cfg.per_axis)


def _fmt(v):
    return float(f"{float(v):.12g}")


def _records(cb):
    """Curvature records of a curvature bundle, at its x and each of its directions.

    A stack of directions raises if any field does; one direction gives its
    record, a partial one with the error text if a field raises.
    """
    m = cb.m
    recs = [{"x": [_fmt(v) for v in cb.x], "y": [_fmt(v) for v in y]} for y in cb.dirs]

    def fill(key, T, fmt=lambda row: _fmt(row[0])):  # from one flat row per direction
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
        if m.n == 2:  # K exists for n = 2 only, and R is not kept
            fill("K", cb.K)
        fill("S_formula", cb.S_formula)
        if cb.grad_ln_sigma is not None:
            fill("S_def", cb.S_def)
    except FinslerError as exc:
        if cb.y.ndim == 2:
            raise
        for rec in recs:
            rec["error"] = f"{type(exc).__name__}: {exc}"
    return recs


def _filled_bundles(m, f, bcs, grads, owner, dirs):
    """A curvature bundle per point of ``bcs`` whose ``fd``, ``spray``, ``L`` and
    (with a gradient) ``S_def`` are that point's rows of one jet batch of the
    (point, direction) pairs ``dirs[j]`` at ``bcs[owner[j]]``, point-major;
    raises if the batch does."""
    calc, bounds = BetaCalculus.stack(bcs), np.searchsorted(owner, np.arange(len(bcs) + 1))
    grad = np.array([np.zeros(m.n) if g is None else g for g in grads])[owner]  # 0: sigma failed
    fd = fundamental(m, f, calc.x, dirs, owner)
    sd = spray_data(m, f, calc.x, dirs, calc, owner)
    L, S_def = landsberg(fd, sd.B), s_curvature_def(m, f, calc.x, dirs, grad, sd, calc)
    bundles = []
    for bc, g, rows in zip(bcs, grads, map(slice, bounds, bounds[1:])):
        cb = curvature_bundle(m, f, bc.x, dirs[rows], g, bc)
        vars(cb).update(fd=pair_rows(fd, rows), spray=pair_rows(sd, rows), L=L[rows],
                        **({} if g is None else {"S_def": S_def[rows]}))
        bundles.append(cb)
    return bundles


def _pair_records(m, f, calcs, grads, owner, Y):
    """The records of the pairs ``Y[j]`` at point ``owner[j]`` from filled bundles; a
    point whose calculus or records raise raises naming its pairs (or those it names)."""
    points, local = np.unique(owner, return_inverse=True)
    failed = np.array([isinstance(calcs[k], Exception) for k in points])
    if failed.any():
        raise marked(calcs[points[failed.argmax()]], failed[local])
    records = []
    for k, cb in enumerate(_filled_bundles(m, f, [calcs[p] for p in points],
                                           [grads[p] for p in points], local, Y)):
        try:
            records += _records(cb)
        except FinslerError as exc:
            rows = np.flatnonzero(local == k)
            fits = np.shape(exc.columns) == rows.shape
            raise marked(exc, np.isin(np.arange(len(Y)), rows[exc.columns] if fits else rows))
    return records


def cmd_report(cfg):
    """Per-sample curvature records plus the aggregate classification.

    The records read one curvature bundle per point, filled from one jet batch
    per ``_PAIR_CHUNK`` (point, direction) pairs, whole points each
    (``_pair_records``).  A batch that raises goes through ``by_columns``: the
    pairs its fault names are redone alone, each as a one-direction bundle
    that records its error, and the other pairs stay batched.
    """
    m, f = cfg.metric, cfg.phi
    grid = _sample_grid(cfg)
    dirs = default_directions(m.n, cfg.n_directions, seed=cfg.seed)
    calcs = list(grid_calculus(m, grid))
    grads = []
    for x, bc in zip(grid, calcs):
        try:
            grads.append(ln_sigma_gradient(m, f, x, bc))
        except FinslerError:
            grads.append(None)
    records, step = [], max(1, _PAIR_CHUNK // len(dirs))
    for start in range(0, len(grid), step):
        owner = np.repeat(np.arange(start, min(start + step, len(grid))), len(dirs))
        Y = np.tile(dirs, (len(owner) // len(dirs), 1))
        records += by_columns(lambda j: _pair_records(m, f, calcs, grads, owner[j], Y[j]), len(Y),
                              lambda j: _records(curvature_bundle(
                                  m, f, grid[owner[j[0]]], Y[j[0]], grads[owner[j[0]]],
                                  calcs[owner[j[0]]])))
    try:
        report = classify_metric(m, f, dirs)  # on its own grid, not the records'
        classification = json.loads(report.to_json())
    except FinslerError as exc:
        classification = {"error": f"{type(exc).__name__}: {exc}"}
    doc = {"metric": cfg.metric_name, "n_points": len(grid),
           "n_directions": len(dirs), "records": records,
           "classification": classification}
    return json.dumps(doc, indent=2, sort_keys=True)


@lru_cache(maxsize=None)
def _names(label, n, rank, upper):
    """Column names of an ``(n,) * rank`` tensor, built once and kept: ``label_12``,
    or ``label^1_2`` when ``upper`` marks the first index as contravariant."""
    names = []
    for idx in product(range(1, n + 1), repeat=rank):
        digits = "".join(map(str, idx))
        # a lone upper index leaves a trailing "_" to strip: G^1_ -> G^1
        names.append(f"{label}^{digits[0]}_{digits[1:]}".rstrip("_") if upper
                     else f"{label}_{digits}")
    return tuple(names)


def _cells(label, T, upper=False):
    """Column names and values of an ``(n,) * r`` tensor, in row-major order."""
    T = np.asarray(T)
    return _names(label, len(T), T.ndim, upper), T.ravel().tolist()


def _header_and_row(name, m, bc, x, y, f):
    """Columns and cells of a beta-calculus quantity, sigma or Q."""
    if name in ("a", "r", "s"):
        return _cells(name, getattr(bc, name))
    if name in ("r_i", "s_i"):
        return _cells(name[0], getattr(bc, name))
    if name == "gamma":
        return _cells("gamma", bc.gamma, upper=True)
    if name == "b_form":
        return _cells("b", bc.b_i)
    if name == "bnorm":
        return (["bnorm"], [bc.b])
    if name == "sigma":
        return (["sigma"], [sigma_bh(m, f, x)])
    alpha = math.sqrt(float(np.asarray(y) @ bc.a @ np.asarray(y)))  # Q
    s_val = float(bc.b_i @ np.asarray(y)) / alpha
    return (["Q"], [_q_series(f, s_val, 0).value])


def _fiber_cells(name, cb):
    """Columns and cells of a fiber quantity, per direction of a bundle's ``(B, n)`` stack."""
    if name == "S":
        return [(["S_formula", "S_def"], [a, b]) for a, b in zip(cb.S_formula, cb.S_def)]
    if name == "K":  # an empty cell where n != 2
        return [(["K"], [k]) for k in (cb.K if cb.K is not None else [""] * len(cb.dirs))]
    return [_cells(name, T, upper=name in ("G", "B", "D", "R")) for T in getattr(cb, name)]


def cmd_table(cfg, quantity):
    """CSV table of one quantity over the sample grid (and directions).

    Every quantity reads the grid's beta calculus (``grid_calculus``); a
    directional one keeps, at each point, the directions inside phi's cone, as
    the classification does, and a point with none gives no row.  A fiber
    quantity hands each point's row to one curvature bundle per grid point, its
    directions as one batch, redone through ``by_columns`` if it raises.
    """
    if quantity not in QUANTITIES:
        raise UnknownQuantity(
            f"unknown quantity {shown(quantity)}; choose from {QUANTITIES}")
    m, f = cfg.metric, cfg.phi
    grid = _sample_grid(cfg)
    directional = quantity in _FIBER or quantity == "Q"
    dirs = (default_directions(m.n, cfg.n_directions, seed=cfg.seed)
            if directional else [None])
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    for x, bc in zip(grid, grid_calculus(m, grid)):
        usable = dirs  # a point whose calculus raised raises it below
        if directional and not isinstance(bc, Exception):
            usable = _admissible_dirs(f, bc, dirs)
            if not len(usable):
                continue
        if quantity in _FIBER:
            grad = ln_sigma_gradient(m, f, x, bc) if quantity == "S" else None
            rows = by_columns(lambda k: _fiber_cells(
                quantity, curvature_bundle(m, f, x, usable[k], grad, bc)), len(usable))
        else:
            if isinstance(bc, Exception):  # x's own calculus raised it
                raise bc
            rows = [_header_and_row(quantity, m, bc, x, y, f) for y in usable]
        if not buf.tell():
            axes = ("x", "y") if directional else ("x",)
            writer.writerow([*(f"{a}{i+1}" for a in axes for i in range(m.n)), *rows[0][0]])
        for y, (_, vals) in zip(usable, rows):
            writer.writerow([f"{v:.12g}" for v in ([*x, *y] if directional else x)]
                            + [v if isinstance(v, str) else f"{v:.12g}" for v in vals])
    if not buf.tell():
        raise AllSamplesSingular("every grid x direction sample was inadmissible")
    return buf.getvalue()


def cmd_classify(cfg):
    dirs = default_directions(cfg.metric.n, cfg.n_directions, seed=cfg.seed)
    return classify_metric(cfg.metric, cfg.phi, dirs).to_json()


def cmd_check(seed=42, stream=None):
    """Run the verification suite; returns the number of failed criteria."""
    stream = sys.stdout if stream is None else stream
    results = acceptance.run_all(seed=seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        stream.write(f"[{status}] {r.number:2d}: {r.title}\n")
        for c in r.checks:
            cmp = "<" if c.mode == "lt" else ">"
            mark = "ok " if c.passed else "BAD"
            stream.write(f"    {mark} {c.label}: {c.residual:.3e} {cmp} "
                         f"{c.threshold:.1e}\n")
        failed += 0 if r.passed else 1
    stream.write(f"{len(results) - failed}/{len(results)} criteria passed\n")
    return failed


def _emit(text, out):
    text += "" if text.endswith("\n") else "\n"
    if out:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {_path(out)}: "
                              f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _path(path):
    """A path for an error line: its repr, or past 120 characters its ``shown`` form."""
    return repr(path) if len(repr(path)) <= 120 else shown(path)


class _Parser(argparse.ArgumentParser):
    """Also the subparsers' class: a usage error line past 200 characters is ``shown``."""

    def error(self, message):
        super().error(message if len(f"{self.prog}: error: {message}") <= 200
                      else shown(message, str))


def build_parser():
    p = _Parser(
        prog="finsler",
        description="Curvature reports and classification for "
                    "(alpha, beta)-Finsler metrics.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--metric", choices=catalog_names(), help="catalog metric name")
        sp.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="metric parameter (JSON value), repeatable")
        sp.add_argument("--config", help="JSON config file (schema 1)")
        sp.add_argument("--per-axis", dest="per_axis", type=int,
                        help="grid points per axis (default 5)")
        sp.add_argument("--directions", type=int,
                        help="direction count (default 16)")
        sp.add_argument("--seed", type=int, help="direction seed (default 42)")
        sp.add_argument("--out", help="output file (default stdout)")

    common(sub.add_parser("report", help="JSON curvature report"))
    tp = sub.add_parser("table", help="CSV table of one quantity")
    common(tp)
    tp.add_argument("--quantity", required=True,
                    help=f"one of {', '.join(QUANTITIES)}")
    common(sub.add_parser("classify", help="predicate report as JSON"))
    cp = sub.add_parser("check", help="run the verification suite")
    cp.add_argument("--seed", type=int, default=42)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed its usage error (exit 2) or --help (0)
        return exc.code
    try:
        if args.command == "check":
            return 1 if cmd_check(seed=_integer(args.seed, "seed", 0)) else 0
        cfg = _config_from_args(args)
        if args.command == "report":
            _emit(cmd_report(cfg), args.out or cfg.out)
        elif args.command == "table":
            _emit(cmd_table(cfg, args.quantity), args.out or cfg.out)
        elif args.command == "classify":
            _emit(cmd_classify(cfg), args.out or cfg.out)
        return 0
    except (ConfigError, UnknownQuantity) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FinslerError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
