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
from .classify import classify_metric, default_directions, default_grid
from .errors import ConfigError, FinslerError, UnknownQuantity
from .exprparse import parse
from .exprparse import eval_expr
from .finsler_metric import sigma_bh
from .geometry_core import ChartDomain, MetricSpec, grid_calculus
from .phi_families import (CustomExprPhi, RandersPhi, RiemannSqrtPhi,
                           UnicornPhi, _q_series)
# curvature_bundle calls riemann_flag; perfbench/tests/test_tracer.py requires it bound here
from .spray_curvature import (curvature_bundle, ln_sigma_gradient,  # noqa: F401
                              per_direction, riemann_flag)

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


def _reject_unknown(doc, allowed, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unknown field(s) {sorted(extra)} in {where}")


def _real(value, where):
    """A finite real config value, by ``get_metric``'s rule."""
    if not finite_real(value):
        raise ConfigError(f"{where} must be a finite real number, got {value!r}")
    return float(value)


def _integer(value, where, minimum):
    """A finite real config value that is a whole number >= ``minimum``."""
    if _real(value, where) % 1 or value < minimum:
        raise ConfigError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _entries(value, where, n):
    """A config list of n entries."""
    if not isinstance(value, list) or len(value) != n:
        raise ConfigError(f"{where} must be a list of n = {n} entries, got {value!r}")
    return value


#: each phi variant's family and its numeric fields, with their defaults
_PHI_VARIANTS = {"randers": (RandersPhi, {}), "riemann_sqrt": (RiemannSqrtPhi, {"k": 1.0}),
                 "unicorn": (UnicornPhi, {"b0": 1.0, "k": 0.0, "q": 1.0, "c": 1.0, "delta": 0.05}),
                 "custom": (CustomExprPhi, {"b0": math.inf, "delta": 0.05})}


def _phi_from_config(doc):
    _reject_unknown(doc, _PHI_KEYS, "metric.custom.phi")
    variant = doc.get("variant", "randers")
    if not isinstance(variant, str) or variant not in _PHI_VARIANTS:
        raise ConfigError(f"unknown phi variant {variant!r}")
    family, kw = _PHI_VARIANTS[variant]
    kw = {key: _real(doc[key], f"metric.custom.phi.{key}") if key in doc else v
          for key, v in kw.items()}
    if variant == "custom":
        expr, params = doc.get("expr"), doc.get("params", {})
        if not isinstance(expr, str):
            raise ConfigError(f"metric.custom.phi.expr must be an expression string, got {expr!r}")
        if not isinstance(params, dict):
            raise ConfigError(f"metric.custom.phi.params must be an object, got {params!r}")
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
                raise ConfigError(f"metric.params must be an object, got {params!r}")
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
        self.per_axis = _integer(grid.get("per_axis", 5), "grid.per_axis", 1)
        self.n_directions = _integer(doc.get("directions", 16), "directions", 4)
        self.seed = _integer(doc.get("seed", 42), "seed", 0)
        self.out = doc.get("out")
        if self.out is not None and not (isinstance(self.out, str) and self.out):
            raise ConfigError(f"out must be a non-empty file name, got {self.out!r}")


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
            raise ConfigError(f"cannot read config file {args.config!r}: "
                              f"{getattr(exc, 'strerror', None) or exc}") from exc
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return RunConfig(doc)
    if not getattr(args, "metric", None):
        raise ConfigError("provide --metric NAME or --config FILE")
    params = {}
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            params[key] = json.loads(val)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"--param {key}: {val!r} is not a JSON value ({exc})") from exc
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


def _records(m, f, x, Y, grad, bc):
    """Curvature records at x for one direction or a ``(B, n)`` stack of them.

    A stack goes through every layer as one batch and raises if any layer
    does; one direction gives its record, a partial one with the error text
    if a layer raises.
    """
    cb = curvature_bundle(m, f, x, Y, grad, bc)
    recs = [{"x": [_fmt(v) for v in x], "y": [_fmt(v) for v in y]} for y in cb.dirs]

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
        if grad is not None:
            fill("S_def", cb.S_def)
    except FinslerError as exc:
        if Y.ndim == 2:
            raise
        for rec in recs:
            rec["error"] = f"{type(exc).__name__}: {exc}"
    return recs


def cmd_report(cfg):
    """Per-sample curvature records plus the aggregate classification."""
    m, f = cfg.metric, cfg.phi
    grid = _sample_grid(cfg)
    dirs = default_directions(m.n, cfg.n_directions, seed=cfg.seed)
    records = []
    for x, bc in zip(grid, grid_calculus(m, grid)):
        try:
            grad = ln_sigma_gradient(m, f, x, bc)
        except FinslerError:
            grad = None
        records += per_direction(lambda Y: _records(m, f, x, Y, grad, bc), dirs)
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
    """Columns and cells of a fiber quantity, per direction of a bundle."""
    def each(T):  # one item per direction
        return [T] if cb.y.ndim == 1 else T

    if name == "S":
        return [(["S_formula", "S_def"], [a, b])
                for a, b in zip(each(cb.S_formula), each(cb.S_def))]
    if name == "K":  # an empty cell where n != 2
        return [(["K"], [k]) for k in
                (each(cb.K) if cb.K is not None else [""] * len(cb.dirs))]
    return [_cells(name, T, upper=name in ("G", "B", "D", "R"))
            for T in each(getattr(cb, name))]


def cmd_table(cfg, quantity):
    """CSV table of one quantity over the sample grid (and directions).

    Every quantity reads the grid's beta calculus (``grid_calculus``); a
    fiber quantity hands each point's row to one curvature bundle per grid
    point, its directions as one batch, redone one direction at a time if it
    raises.
    """
    if quantity not in QUANTITIES:
        raise UnknownQuantity(
            f"unknown quantity {quantity!r}; choose from {QUANTITIES}")
    m, f = cfg.metric, cfg.phi
    grid = _sample_grid(cfg)
    directional = quantity in _FIBER or quantity == "Q"
    dirs = (default_directions(m.n, cfg.n_directions, seed=cfg.seed)
            if directional else [None])
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    for k, (x, bc) in enumerate(zip(grid, grid_calculus(m, grid))):
        if quantity in _FIBER:
            grad = ln_sigma_gradient(m, f, x, bc) if quantity == "S" else None
            rows = per_direction(lambda Y: _fiber_cells(
                quantity, curvature_bundle(m, f, x, Y, grad, bc)), dirs)
        else:
            if isinstance(bc, Exception):  # x's own calculus raised it
                raise bc
            rows = [_header_and_row(quantity, m, bc, x, y, f) for y in dirs]
        if k == 0:
            axes = ("x", "y") if directional else ("x",)
            writer.writerow([*(f"{a}{i+1}" for a in axes for i in range(m.n)), *rows[0][0]])
        for y, (_, vals) in zip(dirs, rows):
            writer.writerow([f"{v:.12g}" for v in ([*x, *y] if directional else x)]
                            + [v if isinstance(v, str) else f"{v:.12g}" for v in vals])
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
            raise ConfigError(f"cannot write output file {out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="finsler",
        description="Curvature reports and classification for "
                    "(alpha, beta)-Finsler metrics.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--metric", choices=catalog_names(),
                        help="catalog metric name")
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
            return 1 if cmd_check(seed=args.seed) else 0
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
