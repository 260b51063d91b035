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
from itertools import product

import numpy as np

from . import acceptance
from .catalog import catalog_names, get_metric
from .classify import classify_metric, default_directions, default_grid
from .errors import ConfigError, FinslerError, UnknownQuantity
from .exprparse import parse
from .exprparse import eval_expr
from .finsler_metric import sigma_bh
from .geometry_core import ChartDomain, MetricSpec, beta_at
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
    extra = set(doc) - allowed
    if extra:
        raise ConfigError(f"unknown field(s) {sorted(extra)} in {where}")


def _phi_from_config(doc):
    _reject_unknown(doc, _PHI_KEYS, "metric.custom.phi")
    variant = doc.get("variant", "randers")
    if variant == "randers":
        return RandersPhi()
    if variant == "riemann_sqrt":
        return RiemannSqrtPhi(doc.get("k", 1.0))
    if variant == "unicorn":
        return UnicornPhi(doc.get("b0", 1.0), doc.get("k", 0.0),
                          doc.get("q", 1.0), doc.get("c", 1.0),
                          doc.get("delta", 0.05))
    if variant == "custom":
        if "expr" not in doc:
            raise ConfigError("custom phi needs an 'expr' string")
        return CustomExprPhi(doc["expr"], doc.get("params"),
                             b0=doc.get("b0", math.inf),
                             delta=doc.get("delta", 0.05))
    raise ConfigError(f"unknown phi variant {variant!r}")


def _custom_metric(doc):
    _reject_unknown(doc, _CUSTOM_KEYS, "metric.custom")
    for key in ("n", "a", "b", "lo", "hi"):
        if key not in doc:
            raise ConfigError(f"metric.custom missing field {key!r}")
    n = int(doc["n"])
    var_names = ["x1", "x2", "x3"][:n]
    allowed = set(var_names)
    try:
        a_ast = [[parse(str(doc["a"][i][j]), allowed) for j in range(n)]
                 for i in range(n)]
        b_ast = [parse(str(doc["b"][i]), allowed) for i in range(n)]
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

    dom = ChartDomain(tuple(float(v) for v in doc["lo"]),
                      tuple(float(v) for v in doc["hi"]))
    m = MetricSpec(n=n, a=a, b_form=b, chart_domain=dom, name="custom")
    phi = _phi_from_config(doc.get("phi", {}))
    return m, phi


def _count(value, what, minimum):
    try:
        count = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc
    if count < minimum:
        raise ConfigError(f"{what} must be >= {minimum}")
    return count


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
            try:
                entry = get_metric(mdoc["name"], **mdoc.get("params", {}))
            except FinslerError as exc:
                raise ConfigError(str(exc)) from exc
            self.metric, self.phi = entry.metric, entry.phi
            self.metric_name = entry.name
        else:
            raise ConfigError("metric needs either 'name' or 'custom'")
        grid = doc.get("grid", {})
        _reject_unknown(grid, _GRID_KEYS, "grid")
        self.per_axis = _count(grid.get("per_axis", 5), "grid.per_axis", 1)
        self.n_directions = _count(doc.get("directions", 16), "direction count", 4)
        self.seed = _count(doc.get("seed", 42), "seed", 0)
        self.out = doc.get("out")


def _config_from_args(args):
    if getattr(args, "config", None):
        # the file sets these: given next to it, they would be dropped
        ignored = [flag for flag in ("--metric", "--param", "--per-axis", "--directions", "--seed")
                   if getattr(args, flag[2:].replace("-", "_"), None) is not None]
        if ignored:
            raise ConfigError(f"{', '.join(ignored)} cannot be combined with --config; "
                              "set them in the config file")
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return RunConfig(doc)
    if not getattr(args, "metric", None):
        raise ConfigError("provide --metric NAME or --config FILE")
    params = {}
    for item in getattr(args, "param", None) or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        params[key] = json.loads(val)
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


def _records(m, f, x, Y, grad):
    """Curvature records at x for one direction or a ``(B, n)`` stack of them.

    A stack goes through every layer as one batch and raises if any layer
    does; one direction gives its record, a partial one with the error text
    if a layer raises.
    """
    cb = curvature_bundle(m, f, x, Y, grad)
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
        recs[0]["error"] = f"{type(exc).__name__}: {exc}"
    return recs


def cmd_report(cfg):
    """Per-sample curvature records plus the aggregate classification."""
    m, f = cfg.metric, cfg.phi
    grid = _sample_grid(cfg)
    dirs = default_directions(m.n, cfg.n_directions, seed=cfg.seed)
    records = []
    for x in grid:
        try:
            grad = ln_sigma_gradient(m, f, x)
        except FinslerError:
            grad = None
        records += per_direction(lambda Y: _records(m, f, x, Y, grad), dirs)
    try:
        # classification always samples 3 points per axis: a coarser grid can
        # be radius-symmetric and mask a non-constant one-form length
        report = classify_metric(m, f, per_axis=3, dirs=dirs)
        classification = json.loads(report.to_json())
    except FinslerError as exc:
        classification = {"error": f"{type(exc).__name__}: {exc}"}
    doc = {"metric": cfg.metric_name, "n_points": len(grid),
           "n_directions": len(dirs), "records": records,
           "classification": classification}
    return json.dumps(doc, indent=2, sort_keys=True)


def _cells(label, T, upper=False):
    """Column names and values of an ``(n,) * r`` tensor, in row-major order.

    Names read ``label_12``, or ``label^1_2`` when ``upper`` marks the first
    index as contravariant.
    """
    T = np.asarray(T)
    names = []
    for idx in product(range(1, len(T) + 1), repeat=T.ndim):
        digits = "".join(map(str, idx))
        # a lone upper index leaves a trailing "_" to strip: G^1_ -> G^1
        names.append(f"{label}^{digits[0]}_{digits[1:]}".rstrip("_") if upper
                     else f"{label}_{digits}")
    return names, list(T.ravel())


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

    A fiber quantity reads one curvature bundle per grid point, its
    directions as one batch, redone one direction at a time if it raises.
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
    for k, x in enumerate(grid):
        if quantity in _FIBER:
            grad = ln_sigma_gradient(m, f, x) if quantity == "S" else None
            rows = per_direction(lambda Y: _fiber_cells(
                quantity, curvature_bundle(m, f, x, Y, grad)), dirs)
        else:
            bc = beta_at(m, x)
            rows = [_header_and_row(quantity, m, bc, x, y, f) for y in dirs]
        if k == 0:
            axes = ("x", "y") if directional else ("x",)
            writer.writerow([f"{a}{i+1}" for a in axes for i in range(m.n)] + rows[0][0])
        for y, (_, vals) in zip(dirs, rows):
            writer.writerow([f"{v:.12g}" for v in ([*x, *y] if directional else x)]
                            + [v if isinstance(v, str) else f"{v:.12g}" for v in vals])
    return buf.getvalue()


def cmd_classify(cfg):
    report = classify_metric(cfg.metric, cfg.phi, per_axis=3,
                             dirs=default_directions(cfg.metric.n,
                                                     cfg.n_directions,
                                                     seed=cfg.seed))
    return report.to_json()


def cmd_check(seed=42, stream=sys.stdout):
    """Run the verification suite; returns the number of failed criteria."""
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
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


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
    args = build_parser().parse_args(argv)
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
