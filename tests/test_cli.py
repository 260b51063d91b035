"""CLI subcommands, config validation, CSV/JSON output, exit codes."""

import contextlib
import csv
import importlib.util
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from finsler import classify, spray_curvature
from finsler.catalog import catalog_names
from finsler.cli import (build_parser, cmd_check, cmd_classify, cmd_report,
                         cmd_table, main)
from finsler.cli import RunConfig
from finsler.errors import ConfigError, EvaluationError, UnknownQuantity, shown

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _benchmark_check(command, text, expected_name):
    """perfbench's own output check of ``text`` against its expected stdout."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_outputs", EXPECTED.parent / "outputs.py")
    outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(outputs)
    want = (EXPECTED / expected_name).read_text()
    return outputs.check_output(command, text, want)


#: ``table --metric lie_group --quantity S --per-axis 2 --directions 4``,
#: as printed when every direction recomputed the ln sigma gradient (two
#: S_def cells re-recorded for the spectral sigma rule: ...734 -> ...733;
#: S_formula re-recorded for the Busemann-Hausdorff f(b), which moves it by
#: at most 2.9e-9: 9 = 3 / (1 - b^2) times the stencil noise of r_0 + s_0,
#: 0 in exact arithmetic since b is constant; S_def re-recorded for the
#: gradient of ln sigma under the integral sign, which moves it by at most
#: 4.3e-9 and brings it to S_formula's printed digits in every row)
S_TABLE_ROWS = [
    "x1,x2,y1,y2,S_formula,S_def",
    "-2.76,0.44,0.995004165278,0.0998334166468,-1.40990952102,-1.40990952102",
    "-2.76,0.44,-0.0998334166468,0.995004165278,1.18861772213,1.18861772213",
    "-2.76,0.44,-0.995004165278,-0.0998334166468,-1.59172674362,-1.59172674362",
    "-2.76,0.44,0.0998334166468,-0.995004165278,-1.52202085726,-1.52202085726",
    "-2.76,4.76,0.995004165278,0.0998334166468,-0.130327770851,-0.130327770851",
    "-2.76,4.76,-0.0998334166468,0.995004165278,0.109872226719,0.109872226719",
    "-2.76,4.76,-0.995004165278,-0.0998334166468,-0.147134404999,-0.147134404999",
    "-2.76,4.76,0.0998334166468,-0.995004165278,-0.140691003713,-0.140691003713",
    "2.76,0.44,0.995004165278,0.0998334166468,-1.40990952102,-1.40990952102",
    "2.76,0.44,-0.0998334166468,0.995004165278,1.18861772213,1.18861772213",
    "2.76,0.44,-0.995004165278,-0.0998334166468,-1.59172674362,-1.59172674362",
    "2.76,0.44,0.0998334166468,-0.995004165278,-1.52202085726,-1.52202085726",
    "2.76,4.76,0.995004165278,0.0998334166468,-0.130327770851,-0.130327770851",
    "2.76,4.76,-0.0998334166468,0.995004165278,0.109872226719,0.109872226719",
    "2.76,4.76,-0.995004165278,-0.0998334166468,-0.147134404999,-0.147134404999",
    "2.76,4.76,0.0998334166468,-0.995004165278,-0.140691003713,-0.140691003713",
]


def _cfg(name, per_axis=3, directions=8, **params):
    return RunConfig({"schema": 1,
                      "metric": {"name": name, "params": params},
                      "grid": {"per_axis": per_axis},
                      "directions": directions})


class TestConfig:
    def test_schema_required(self):
        with pytest.raises(ConfigError):
            RunConfig({"metric": {"name": "euclid"}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig({"schema": 1, "metric": {"name": "euclid"},
                       "tolerence": {}})

    def test_unknown_metric_is_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig({"schema": 1, "metric": {"name": "nope"}})

    def test_direction_minimum(self):
        with pytest.raises(ConfigError):
            RunConfig({"schema": 1, "metric": {"name": "euclid"},
                       "directions": 2})

    def test_custom_inline_metric(self):
        cfg = RunConfig({"schema": 1, "metric": {"custom": {
            "n": 2,
            "a": [["1", "0"], ["0", "1 + x1^2"]],
            "b": ["0.3", "0"],
            "phi": {"variant": "randers"},
            "lo": [-1, -1], "hi": [1, 1]}}})
        a = cfg.metric.a_at([0.5, 0.0])
        assert a[1, 1] == pytest.approx(1.25)
        assert cfg.phi.variant == "randers"

    def test_custom_bad_expression(self):
        with pytest.raises(ConfigError):
            RunConfig({"schema": 1, "metric": {"custom": {
                "n": 2, "a": [["1", "0"], ["0", "1 +"]], "b": ["0", "0"],
                "lo": [-1, -1], "hi": [1, 1]}}})

    def test_tolerances_field_is_rejected(self):
        with pytest.raises(ConfigError, match="tolerances"):
            RunConfig({"schema": 1, "metric": {"name": "euclid"},
                       "tolerances": {}})


@pytest.mark.parametrize("source", [
    {"grid": {"per_axis": -1}},
    {"grid": {"per_axis": 0}},
    {"grid": {"per_axis": "three"}},
    {"directions": 0},
    ["--per-axis", "0"],
    ["--per-axis", "-2"],
    ["--directions", "0"],
    ["--seed", "-1"],
])
@pytest.mark.parametrize("command", ["report", "table"])
def test_bad_counts_exit_2(source, command, tmp_path, capsys):
    argv = [command]
    if isinstance(source, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": 1, "metric": {"name": "euclid"},
                                    **source}))
        argv += ["--config", str(path)]
    else:
        argv += ["--metric", "euclid", *source]
    if command == "table":
        argv += ["--quantity", "a"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be" in err


#: a valid inline metric, which each case below breaks in one field
CUSTOM = {"n": 2, "a": [["1", "0"], ["0", "1"]], "b": ["0.1", "0"], "lo": [-1, -1], "hi": [1, 1]}


@pytest.mark.parametrize("fields, name", [
    ({"a": [["1"]]}, "metric.custom.a"),
    ({"b": ["0.1"]}, "metric.custom.b"),
    ({"lo": [-1]}, "metric.custom.lo"),
    ({"lo": ["a", -1]}, "metric.custom.lo"),
    ({"hi": [1, True]}, "metric.custom.hi"),
    ({"n": "two"}, "metric.custom.n"),
    ({"phi": {"variant": "unicorn", "b0": "1"}}, "metric.custom.phi.b0"),
    ({"phi": {"variant": "unicorn", "k": None}}, "metric.custom.phi.k"),
    ({"phi": {"variant": "riemann_sqrt", "k": "x"}}, "metric.custom.phi.k"),
    ({"phi": {"variant": "custom", "expr": 5}}, "metric.custom.phi.expr"),
    ({"phi": {"variant": "riemann_sqrt", "k": 10**400}}, "metric.custom.phi.k"),
    # the family refuses the phi: exit 2 as for a bad a or b, not 1
    ({"phi": {"variant": "custom", "expr": "1 + "}}, "metric.custom.phi: ExprSyntaxError"),
    ({"phi": {"variant": "unicorn", "q": -1}}, "metric.custom.phi: ParamOutOfRange"),
    # once a TypeError traceback, and a literal read as inf
    ({"phi": "randers"}, "metric.custom.phi must be an object"),
    ({"b": [str(10**400), "0"]}, "metric.custom: number past the float range"),
])
def test_malformed_custom_metric_exits_2(fields, name, tmp_path, capsys):
    # a typed ConfigError naming the field, not a Python exception's traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "metric": {"custom": {**CUSTOM, **fields}}}))
    _refused(["table", "--config", str(path), "--quantity", "a"], name, capsys)


@pytest.mark.parametrize("fields, name", [
    ({"metric": {"custom": {**CUSTOM, "n": 2.7}}}, "metric.custom.n"),
    ({"metric": {"custom": {**CUSTOM, "n": True}}}, "metric.custom.n"),
    ({"grid": {"per_axis": 2.9}}, "grid.per_axis"),
    ({"directions": 4.5}, "directions"),
    ({"directions": "16"}, "directions"),
    ({"seed": 0.5}, "seed"),
    ({"seed": 10**400}, "seed"),  # past the floats: math.isfinite raised OverflowError
])
def test_counts_are_whole_numbers(fields, name, tmp_path, capsys):
    # once truncated by int(): n = 2.7 ran as n = 2, and "16" or true passed
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "metric": {"name": "euclid"}, **fields}))
    assert main(["table", "--config", str(path), "--quantity", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name} must be ") and captured.out == ""


#: counts past MAX_SAMPLES: at 300 digits each once left main as numpy's
#: ValueError "Maximum allowed size exceeded"; at 10**7 a run would take gigabytes
@pytest.mark.parametrize("count", [10**300, 10**7], ids=["10**300", "10**7"])
@pytest.mark.parametrize("source, name", [
    (["table", "--metric", "lie_group", "--quantity", "r", "--per-axis"], "grid.per_axis"),
    (["classify", "--metric", "bao_shen", "--directions"], "directions"),
    ("config", "grid.per_axis"),
    ("config", "directions"),
], ids=["--per-axis", "--directions", "config_per_axis", "config_directions"])
def test_counts_past_max_samples_exit_2(source, name, count, tmp_path, capsys):
    if source != "config":
        argv = [*source, str(count)]
    else:  # the count as a JSON number: 1e+300 or 10000000.0
        doc = ({"grid": {"per_axis": float(count)}} if name == "grid.per_axis"
               else {"directions": float(count)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": 1, "metric": {"name": "euclid"}, **doc}))
        argv = ["report", "--config", str(path)]
    _refused(argv, f"{name} must ", capsys)


@pytest.mark.parametrize("out", [1, True, "", {"path": "x"}, ["x"]])
def test_out_must_be_a_file_name(out, tmp_path, capsys):
    # "out": 1 once wrote the table to file descriptor 1 and closed it
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "metric": {"name": "euclid"}, "out": out}))
    assert main(["classify", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: out must be a non-empty file name, got {out!r}\n"
    assert captured.out == ""


def _refused(argv, named, capsys):
    """``main(argv)`` exits 2 with nothing on stdout and one ``error:`` line of at
    most 200 characters naming ``named``."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err and len(captured.err) <= 200 + 1, captured.err


#: a config file that cannot be read: each once ended in a traceback with exit 1,
#: and a name of 5000 characters was quoted in full; it is quoted in ``shown`` form
@pytest.mark.parametrize("case", ["missing", "directory", "not_utf8", "long_name"])
def test_unreadable_config_exits_2(case, tmp_path, capsys):
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "not_utf8": tmp_path / "latin1.json", "long_name": tmp_path / ("c" * 5000)}[case]
    (tmp_path / "latin1.json").write_bytes('{"schema": 1, "metric": {"name": "é"}}'.encode("latin-1"))
    named = shown(str(path)) if case == "long_name" else repr(str(path))
    _refused(["report", "--config", str(path)], named, capsys)


#: an output path that cannot be written, from the flag or the config: each
#: once ended in a traceback with exit 1, and a long one is quoted in ``shown`` form
@pytest.mark.parametrize("where", ["missing_dir", "directory", "config_out", "long_name"])
def test_unwritable_out_exits_2(where, tmp_path, capsys):
    out = {"directory": tmp_path, "long_name": tmp_path / ("o" * 5000)}.get(
        where, tmp_path / "missing" / "x.csv")
    argv = ["table", "--quantity", "a"]
    if where == "config_out":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": 1, "metric": {"name": "lie_group"},
                                    "grid": {"per_axis": 2}, "out": str(out)}))
        argv += ["--config", str(path)]
    else:
        argv += ["--metric", "lie_group", "--per-axis", "2", "--out", str(out)]
    _refused(argv, shown(str(out)) if where == "long_name" else repr(str(out)), capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] * (where == "config_out")


#: config text past any ordinary length: each was once quoted in full
LONG_CONFIG_TEXT = {
    "identifier": {"metric": {"custom": {**CUSTOM, "b": ["x" * 5000, "0"]}}},
    "expression": {"metric": {"custom": {**CUSTOM, "b": ["'" + "x" * 5000 + "'", "0"]}}},
    "field": {"metric": {"name": "euclid"}, "g" * 5000: 1},
}


@pytest.mark.parametrize("fields", LONG_CONFIG_TEXT.values(), ids=LONG_CONFIG_TEXT)
def test_long_config_text_is_quoted_in_bounded_form(fields, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, **fields}))
    _refused(["classify", "--config", str(path)], " chars)", capsys)


@pytest.mark.parametrize("seed", ["-1", "-7", str(-10**400)], ids=["-1", "-7", "-10**400"])
def test_check_refuses_a_negative_seed(seed, capsys):
    # -1 once ran the suite, and four criteria printed a ValueError as BAD
    _refused(["check", "--seed", seed], "error: seed must be ", capsys)


#: values argparse itself refuses, each once quoted in full on a 5000-character
#: line, and the length ``shown`` gives: of the value, or of argparse's message
LONG_ARGUMENTS = {
    "check_seed": (["check", "--seed", "1" * 5000], 5038),
    "metric": (["report", "--metric", "x" * 5000], 5163),
    "per_axis": (["report", "--metric", "euclid", "--per-axis", "1" * 5000], 5042),
    "command": (["x" * 5000], 5089),
    "positional": (["report", "--metric", "euclid", "y" * 5000], 5024),
    "unknown_option": (["report", "--metric", "euclid", "--bogus" + "z" * 5000], 5031),
}


@pytest.mark.parametrize("argv, chars", LONG_ARGUMENTS.values(), ids=LONG_ARGUMENTS)
def test_argparse_refusals_quote_in_bounded_form(argv, chars, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    last = captured.err.splitlines()[-1]
    assert captured.out == "" and last.startswith(("finsler: ", "finsler check: ",
                                                   "finsler report: "))
    assert f"... ({chars} chars)" in last and len(last) <= 200, last


@pytest.mark.parametrize("argv, line", [
    (["check", "--seed", "x"], "finsler check: error: argument --seed: invalid int value: 'x'"),
    (["report", "--metric", "euclid", "--directions", "1.5"],
     "finsler report: error: argument --directions: invalid int value: '1.5'"),
    (["report", "--metric", "eucld"],
     "finsler report: error: argument --metric: invalid choice: 'eucld' (choose from "),
    (["bogus"], "finsler: error: argument command: invalid choice: 'bogus' (choose from "),
    (["report", "--metric", "euclid", "yyy"], "finsler: error: unrecognized arguments: yyy"),
    (["report", "--metric", "euclid", "--bogus"],
     "finsler: error: unrecognized arguments: --bogus"),
    # past shown's 60 characters, quoted whole while the line fits in 200
    (["report", "--metric", "euclid", "--per-axis", "x" * 61],
     f"finsler report: error: argument --per-axis: invalid int value: '{'x' * 61}'"),
])
def test_argparse_refusals_of_ordinary_length_keep_their_text(argv, line, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(line)


@pytest.mark.parametrize("fields, name", [
    ({"grid": [2]}, "grid must be an object"),
    ({"metric": {"custom": None}}, "metric.custom must be an object"),
    ({"metric": {"name": ["euclid"]}}, "no catalog metric ['euclid']"),
])
def test_config_sections_of_the_wrong_type_exit_2(fields, name, tmp_path, capsys):
    # each once ended in a TypeError or AttributeError traceback
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "metric": {"name": "euclid"}, **fields}))
    _refused(["classify", "--config", str(path)], name, capsys)


#: custom metrics whose values leave the float range, each once a NaN or an inf
#: with a RuntimeWarning on its way to the output: now a typed error where it arises
FLOAT_RANGE = {
    # a_11 up to e^680: past the bound of a metric's entries, whose products overflowed
    "a_past_the_bound": ({**CUSTOM, "a": [["exp(800*x1)", "0"], ["0", "1"]],
                          "lo": [0.4, -1], "hi": [0.85, 1]}, "classify",
                         "DomainError: a(x) has the entry 1.4035922178528375e+217, "
                         "past the bound 1e+150 of a metric's entries"),
    # a^-1 up to 1e300: its products overflowed
    "a_nearly_singular": ({**CUSTOM, "a": [["1e-300", "0"], ["0", "1"]]}, "classify",
                          "SingularMetric: a_ij is singular within the float range"),
    # Cholesky reads one triangle; y^T a y < 0 elsewhere, then sqrt of it
    "a_not_symmetric": ({**CUSTOM, "a": [["1", "1.5"], ["0", "1"]]}, "classify",
                        "SingularMetric: a(x) is not symmetric"),
    # F^2 = 0 under the floats, then Y / F
    "phi_under_the_floats": ({**CUSTOM, "phi": {"variant": "unicorn", "b0": 1, "k": 0.3,
                                                "q": 0.7, "c": 1e-300}}, "classify",
                             "NonPositivePhi: F(x, y)^2 must be positive"),
    # r = 1/F at the unit ball's nodes, then r^n overflowed
    "unit_ball_past_the_floats": ({**CUSTOM, "phi": {"variant": "unicorn", "b0": 1, "k": 0.3,
                                                     "q": 0.7, "c": 1e-300}}, "sigma",
                                  "SingularDirectionInQuadrature: F outside [1/1e+50, 1e+50] "
                                  "at 153 quadrature node(s)"),
    # phi = sqrt(1 - s^2) past b0 = 1 took a square root of a negative number
    # before the unit ball refused those nodes
    "riemann_sqrt_past_b0": ({**CUSTOM, "b": ["1.5", "0"],
                              "phi": {"variant": "riemann_sqrt", "k": -1}}, "sigma",
                             "SingularDirectionInQuadrature: |s| > b0 (1 - delta) = 0.95 "
                             "at 136 quadrature node(s)"),
}


@pytest.mark.parametrize("custom, command, error", FLOAT_RANGE.values(), ids=FLOAT_RANGE)
def test_float_faults_fail_typed(custom, command, error, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "grid": {"per_axis": 2}, "directions": 4,
                                "metric": {"custom": custom}}))
    argv = ["table", "--quantity", command] if command == "sigma" else [command]
    assert main([*argv, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {error}\n"


def _fixture_with(tmp_path, name, value, *keys):
    """The fixture config ``name``, its value at ``keys`` replaced, written to ``tmp_path``."""
    doc = json.loads((FIXTURES / f"{name}.json").read_text())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _strict_report(out):
    """A report's JSON, refusing NaN and Infinity, which JSON does not have."""
    def refuse(constant):
        raise AssertionError(f"{constant} in the report")
    return json.loads(out, parse_constant=refuse)


def test_an_integer_power_past_the_floats_is_a_domain_error(tmp_path, capsys):
    # log_phi's 1 + 0.5 s^(1+s) with b_1 = 2**64: s^(1+s) is an integer power of
    # a jet, once 1525 RuntimeWarnings (pytest fails on one) behind exit 0, and a
    # classification that blamed alpha (ZeroVector)
    path = _fixture_with(tmp_path, "log_phi", str(2**64), "metric", "custom", "b", 0)
    assert main(["report", "--config", path]) == 0
    report = _strict_report(capsys.readouterr().out)
    assert report["classification"] == {
        "error": "DomainError: 1.8354587189158742e+19^18354587189158742016 overflows a float"}


def test_f_squared_past_the_floats_is_refused_as_such(tmp_path, capsys):
    # unicorn_near_edge with phi.c = 1e300: once "C_norm": NaN in the records and a
    # classification that blamed alpha (ZeroVector) for the F = 1 scaling's division by inf
    path = _fixture_with(tmp_path, "unicorn_near_edge", 1e300, "metric", "custom", "phi", "c")
    assert main(["report", "--config", path]) == 0
    report = _strict_report(capsys.readouterr().out)
    error = "DomainError: F(x, y)^2 or one of its fiber derivatives overflows a float"
    assert report["classification"] == {"error": error}
    # the 2 others of the 8 records lie outside the admissible cone
    assert sum(r.get("error") == error for r in report["records"]) == 6


#: a_22 = NaN wherever x1 != -0.9 (inf - inf) and 1 at log_phi's one grid
#: point, x1 = -0.9: a(x) is NaN at the x-stencil points only
NAN_AT_STENCIL = "1 + (1e300*(x1+0.9)*1e300 - 1e300*(x1+0.9)*1e300)"


def test_a_metric_nan_at_the_stencil_points_is_refused(tmp_path, capsys):
    # once 24 NaN in the report's records (G, B_norm, D_norm, E_norm, L_norm)
    # behind exit 0, and 6 nan cells from table gamma: the beta calculus
    # differentiates a(x) on the stencil, and now refuses its non-finite d a
    path = _fixture_with(tmp_path, "log_phi", NAN_AT_STENCIL, "metric", "custom", "a", 1, 1)
    error = "DomainError: d a_ij / dx is not finite at x: a(x) or b(x) is not finite nearby"
    assert main(["report", "--config", path]) == 0
    report = _strict_report(capsys.readouterr().out)
    assert report["classification"] == {"error": error}
    # a direction whose F computes records the calculus error at G; the others fail at F
    assert all(r["error"] == error for r in report["records"] if "F" in r)
    assert all("G" not in r for r in report["records"])
    assert sum("F" in r for r in report["records"]) == 4
    assert main(["table", "--config", path, "--quantity", "gamma"]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("phi", [{"b0": 1e300}, {"b0": 1e5, "k": 1e300}], ids=["b0", "k"])
def test_unicorn_constants_past_the_floats_exit_2(phi, tmp_path, capsys):
    # b0 = 1e300 once raised a bare OverflowError out of main (b0**2), and
    # k b0^2 = inf built a family with r = inf
    doc = json.loads((FIXTURES / "unicorn_near_edge.json").read_text())
    doc["metric"]["custom"]["phi"].update(phi)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    _refused(["report", "--config", str(path)],
             "ParamOutOfRange: unicorn family requires 1 + k b0^2 and q b0^2 / 2 "
             "within the float range", capsys)


def test_a_float_fault_in_a_catalog_report_is_not_swallowed(monkeypatch):
    # numpy's RuntimeWarning is what `python -W error::RuntimeWarning` in CI and
    # pytest's filterwarnings fail on: a NaN on its way into a catalog metric's
    # records reaches the caller, not a record's "error"
    def nan_landsberg(fd, B):
        return np.sqrt(-np.ones(np.shape(B)))

    for module in (spray_curvature, classify):
        monkeypatch.setattr(module, "landsberg", nan_landsberg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            main(["report", "--metric", "lie_group", "--per-axis", "2", "--directions", "4"])


#: past the parser's depth bound, or Python's own limits: each once ended in a
#: RecursionError traceback with exit 1
DEEP = ["(" * 1500 + "0.1" + ")" * 1500, "-" * 250 + "0.1", "+".join(["0.001"] * 3000)]


@pytest.mark.parametrize("text", DEEP, ids=["parens", "minus", "sum"])
@pytest.mark.parametrize("where", ["b", "phi"])
def test_expressions_nested_too_deeply_exit_2(where, text, tmp_path, capsys):
    custom = ({**CUSTOM, "b": [text, "0"]} if where == "b" else
              {**CUSTOM, "phi": {"variant": "custom", "expr": f"1 + s * ({text})"}})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "metric": {"custom": custom}}))
    assert main(["table", "--config", str(path), "--quantity", "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ") and "nested" in err and err.count("\n") == 1


#: |b| = 2 > 1: the generalized-Berwald threshold is a numpy float
LONG_FORM_CONFIG = {"schema": 1, "grid": {"per_axis": 2}, "directions": 4,
                    "metric": {"custom": {
                        "n": 2, "a": [["1", "0"], ["0", "1"]], "b": ["2", "0"],
                        "phi": {"variant": "riemann_sqrt", "k": 1},
                        "lo": [-1, -1], "hi": [1, 1]}}}


@pytest.mark.parametrize("command", ["classify", "report"])
def test_one_form_longer_than_one_runs(command, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(LONG_FORM_CONFIG))
    assert main([command, "--config", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    cls = doc if command == "classify" else doc["classification"]
    assert cls["predicates"]["gb"]["verdict"] is True
    assert cls["verdict"] == "RiemannianIsotropic"


class TestTable:
    def test_s_table_on_lie_group(self):
        out = cmd_table(_cfg("lie_group"), "s")
        rows = list(csv.reader(io.StringIO(out)))
        header = rows[0]
        assert header[:2] == ["x1", "x2"]
        assert "s_12" in header
        j = header.index("s_12")
        for row in rows[1:]:
            y = float(row[1])
            assert float(row[j]) == pytest.approx(-1.0 / (2 * y * y), rel=1e-8)

    def test_bnorm_table_on_fish_tank(self):
        out = cmd_table(_cfg("fish_tank"), "bnorm")
        rows = list(csv.reader(io.StringIO(out)))
        j = rows[0].index("bnorm")
        for row in rows[1:]:
            x, y = float(row[0]), float(row[1])
            assert float(row[j]) == pytest.approx(math.hypot(x, y), abs=1e-10)

    def test_sigma_table_on_euclid(self):
        out = cmd_table(_cfg("euclid", per_axis=2), "sigma")
        rows = list(csv.reader(io.StringIO(out)))
        j = rows[0].index("sigma")
        for row in rows[1:]:
            assert float(row[j]) == pytest.approx(1.0, abs=1e-9)

    def test_directional_quantity_has_y_columns(self):
        out = cmd_table(_cfg("euclid_randers", per_axis=2, directions=4,
                             eps=0.5), "G")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:4] == ["x1", "x2", "y1", "y2"]
        assert rows[0][4:] == ["G^1", "G^2"]
        # 4 grid points x 4 directions
        assert len(rows) - 1 == 4 * 4

    def test_unknown_quantity(self):
        with pytest.raises(UnknownQuantity):
            cmd_table(_cfg("euclid"), "bogus")

    def test_crlf_line_endings(self):
        out = cmd_table(_cfg("euclid", per_axis=2), "bnorm")
        assert "\r\n" in out

    def test_s_table_bytes(self, capsys):
        # one ln sigma gradient per point gives the bytes of one per direction
        rc = main(["table", "--metric", "lie_group", "--quantity", "S",
                   "--per-axis", "2", "--directions", "4"])
        assert rc == 0
        assert capsys.readouterr().out == "\r\n".join(S_TABLE_ROWS) + "\r\n"


TABLES = FIXTURES / "tables"


FIBER_FLAGS = ["--per-axis", "2", "--directions", "4"]


@pytest.mark.parametrize("metric,quantity,extra", [
    *(("lie_group", q, FIBER_FLAGS) for q in "QGBELDRKH"),
    *(("bao_shen", q, [*FIBER_FLAGS, "--seed", "0"]) for q in "GBDRH"),
    *((metric, q, ["--per-axis", "3"]) for metric in ("lie_group", "bao_shen", "fish_tank")
      for q in ("a", "b_form", "gamma", "r", "s", "r_i", "s_i", "bnorm", "sigma")),
])
def test_table_bytes(metric, quantity, extra, capsys):
    # one curvature bundle per grid point, its directions as one batch, and
    # one beta calculus over the whole grid must print the bytes of one
    # direction and one point at a time (recorded in the fixtures)
    rc = main(["table", "--metric", metric, "--quantity", quantity, *extra])
    assert rc == 0
    want = (TABLES / f"{metric}.{quantity}.csv").read_bytes().decode()
    assert capsys.readouterr().out == want


def _replay(path, capsys, monkeypatch):
    doc = json.loads(path.read_text())
    monkeypatch.chdir(FIXTURES.parents[1])
    assert main(doc["argv"]) == doc["exit_code"]
    assert capsys.readouterr() == (doc["stdout"], doc["stderr"])


def test_table_reports_the_first_failing_direction(capsys, monkeypatch):
    # a point's batch raises inside the cone (phi = 1 + s^(1+s) / 2 takes the
    # log of s < 0); redone one direction at a time, the error is the one the
    # first failing direction raises alone
    _replay(TABLES / "log_phi.B.json", capsys, monkeypatch)


def test_table_drops_directions_outside_the_cone(capsys, monkeypatch):
    # 2 of the 8 directions leave the unicorn phi's cone, |s| < 0.95, and
    # each once ended the whole table, B or Q, in a DomainError; the rows are
    # those of the classification's admissible directions
    _replay(TABLES / "unicorn_near_edge.B.json", capsys, monkeypatch)
    assert main(["table", "--config", "tests/fixtures/unicorn_near_edge.json",
                 "--quantity", "Q"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out.splitlines()) == 1 + 6


def test_table_with_no_admissible_direction_fails_as_classify(tmp_path, capsys):
    # a cone |s| < 1e-9 (1 - 0.05) holds none of the 4 directions at any point
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema": 1, "grid": {"per_axis": 2}, "directions": 4,
                                "metric": {"custom": {**CUSTOM, "b": ["0.5", "0"], "phi": {
                                    "variant": "custom", "expr": "1 + s", "b0": 1e-9}}}}))
    for argv in (["table", "--quantity", "B"], ["table", "--quantity", "Q"], ["classify"]):
        assert main([*argv, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: AllSamplesSingular: every grid x direction "
                                           "sample was inadmissible\n")


@pytest.mark.parametrize("name", ["singular_a.r.json", "singular_a_b_first.r.json"])
def test_table_reports_the_first_failing_point(name, capsys, monkeypatch):
    # a(x) is singular at the middle grid point, so the grid's stacked beta
    # calculus raises; in the second case b(x) fails alone at an earlier
    # point, and that is the error the table must report
    _replay(TABLES / name, capsys, monkeypatch)


@pytest.mark.parametrize("config", ["singular_a", "singular_a_b_first", "four_d"])
@pytest.mark.parametrize("command", ["report", "classify"])
def test_config_bytes(config, command, capsys, monkeypatch):
    # stdout, stderr and exit code as recorded: the report of a singular
    # metric keeps one error record per failing sample, its classification
    # fails with the first failing point's error, and the 4-D metric carries
    # S from the 4-D unit ball
    _replay(FIXTURES / f"{config}.{command}.json", capsys, monkeypatch)


@pytest.mark.parametrize("name", catalog_names())
def test_classify_bytes(name, capsys):
    assert main(["classify", "--metric", name]) == 0
    assert capsys.readouterr().out == (FIXTURES / f"classify_{name}.out").read_text()


class TestReport:
    def test_lie_group_report(self):
        doc = json.loads(cmd_report(_cfg("lie_group", per_axis=2,
                                         directions=4)))
        assert doc["metric"] == "lie_group"
        assert doc["classification"]["predicates"]["gb"]["verdict"] is True
        assert doc["classification"]["predicates"]["s_zero"]["verdict"] is False
        rec = doc["records"][0]
        for key in ("F", "g", "C_norm", "G", "B_norm", "L_norm", "D_norm",
                    "S_def", "S_formula", "K"):
            assert key in rec

    def test_fish_tank_report(self):
        doc = json.loads(cmd_report(_cfg("fish_tank", per_axis=2,
                                         directions=4)))
        cls = doc["classification"]
        assert cls["predicates"]["gb"]["verdict"] is False
        assert cls["predicates"]["s_zero"]["verdict"] is True
        assert all(abs(r.get("K", 0.0)) < 1e-5 for r in doc["records"])

    def test_report_is_valid_json_where_beta_vanishes(self, capsys):
        # beta = 0 at the fish_tank origin, a grid point: S_formula was NaN
        # there, and a bare NaN token is not JSON
        assert main(["report", "--metric", "fish_tank", "--per-axis", "3",
                     "--directions", "4"]) == 0

        def reject(token):
            raise ValueError(f"{token} in report output")

        doc = json.loads(capsys.readouterr().out, parse_constant=reject)
        origin = [r for r in doc["records"] if r["x"] == [0.0, 0.0]]
        assert len(origin) == 4
        assert all(abs(r["S_formula"]) < 1e-12 for r in origin)

    def test_s_table_is_finite_where_beta_vanishes(self, capsys):
        assert main(["table", "--metric", "euclid", "--quantity", "S",
                     "--per-axis", "2", "--directions", "4"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        j = rows[0].index("S_formula")
        assert len(rows) == 17 and all(float(r[j]) == 0.0 for r in rows[1:])

    def test_deterministic(self):
        cfg = _cfg("euclid_randers", per_axis=2, directions=4, eps=0.5)
        assert cmd_report(cfg) == cmd_report(
            _cfg("euclid_randers", per_axis=2, directions=4, eps=0.5))


class TestRiemannSkip:
    """``report`` calls ``riemann_flag`` only where it keeps K, i.e. n = 2.

    The records read K off a curvature bundle, which calls ``riemann_flag``
    once per direction.
    """

    def test_not_called_for_n3(self, monkeypatch):
        def broken(*args, **kwargs):
            raise EvaluationError("Riemann stencil failed")

        monkeypatch.setattr("finsler.spray_curvature.riemann_flag", broken)
        doc = json.loads(cmd_report(_cfg("bao_shen", per_axis=2,
                                         directions=4)))
        assert doc["records"]
        assert not any("error" in r or "K" in r for r in doc["records"])

    def test_called_for_n2(self, monkeypatch):
        import finsler.spray_curvature
        real, calls = finsler.spray_curvature.riemann_flag, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr("finsler.spray_curvature.riemann_flag", counting)
        doc = json.loads(cmd_report(_cfg("lie_group", per_axis=2,
                                         directions=4)))
        assert len(calls) == len(doc["records"]) == 16
        assert all("K" in r for r in doc["records"])


class TestMain:
    def test_classify_to_file(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc = main(["classify", "--metric", "euclid_randers",
                   "--param", "eps=0.5", "--per-axis", "2",
                   "--directions", "4", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "LocallyMinkowskiLike"

    def test_bad_quantity_exit_2(self):
        assert main(["table", "--metric", "euclid", "--quantity", "zzz"]) == 2

    def test_missing_metric_exit_2(self):
        assert main(["report"]) == 2

    @pytest.mark.parametrize("command", ["report", "classify"])
    def test_unicorn_with_a_zero_of_d_fails_typed(self, command, tmp_path, capsys):
        # a = 1 + k b0^2 = 1 <= Q^2 = (q b0^2 / 2)^2 = 2.25: phi is not
        # positive on the whole cone, which the family rejects when built
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": 1, "metric": {"custom": {
            "n": 2, "a": [["1", "0"], ["0", "1"]], "b": ["0.6", "0"],
            "lo": [-1, -1], "hi": [1, 1],
            "phi": {"variant": "unicorn", "b0": 1, "k": 0, "q": 3, "c": 1}}}}))
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "error: bad metric.custom.phi: ParamOutOfRange: unicorn family requires")
        assert captured.out == ""

    @pytest.mark.parametrize("metric,param,named", [
        ("euclid_randers", "esp=0.3", "no parameter 'esp'"),  # once run with the default
        ("euclid_randers", "eps=abc", "--param eps: 'abc' is not a JSON value"),
        ("euclid_randers", 'eps="x"', "parameter 'eps' must be a finite real number, got 'x'"),
        ("euclid_randers", "eps=[1]", "parameter 'eps' must be a finite real number, got [1]"),
        ("euclid_randers", "eps=true", "parameter 'eps' must be a finite real number, got True"),
        # once K > 1 held and every sample came out NaN
        ("bao_shen", "K=Infinity", "parameter 'K' must be a finite real number, got inf"),
        # past the float range: math.isfinite once raised OverflowError
        ("euclid_randers", f"eps={10**400}", "parameter 'eps' must be a finite real number"),
        ("bao_shen", f"K={10**400}", "parameter 'K' must be a finite real number"),
        # past int's digit limit (where it has one) and past the recursion limit
        ("euclid_randers", "eps=1" + "0" * 5000, "eps"),
        ("euclid_randers", "eps=" + "[" * 100_000, "--param eps: "),
        # each of these and the two above once quoted the value in full
        ("euclid_randers", "eps=1" + "0" * 3999, "(4000 chars)"),
        ("euclid_randers", "k" * 5000 + "=[", "(5000 chars)"),
    ])
    def test_bad_catalog_parameter_exit_2(self, metric, param, named, capsys):
        _refused(["classify", "--metric", metric, "--param", param], named, capsys)

    @pytest.mark.parametrize("params,named", [
        ({"esp": 0.3}, "no parameter 'esp'"),
        ({"eps": "x"}, "parameter 'eps' must be a finite real number"),
        ([0.3], "metric.params must be an object"),
        ({"eps": 10**400}, "parameter 'eps' must be a finite real number"),
        ({"eps": 10**3999}, "(4000 chars)"),  # once quoted in full
    ])
    def test_bad_catalog_parameter_in_a_config_exit_2(self, params, named, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema": 1, "metric": {"name": "euclid_randers",
                                                            "params": params}}))
        _refused(["classify", "--config", str(path)], named, capsys)

    @pytest.mark.parametrize("flags", [
        ["--per-axis", "3", "--directions", "2"],
        ["--seed", "42"],
        ["--param", "eps=0.5"],
        ["--metric", "euclid"],
    ])
    def test_config_with_run_flags_exit_2(self, flags, capsys):
        # the config file sets the grid, directions, seed and metric: a flag
        # next to it would be silently dropped, so it is refused
        argv = ["report", "--config", str(FIXTURES / "unicorn_near_edge.json"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        named = [flag for flag in flags if flag.startswith("--")]
        assert err == f"error: {', '.join(named)} cannot be combined with --config; " \
                      "set them in the config file\n"

    def test_config_with_out(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["report", "--config", str(FIXTURES / "unicorn_near_edge.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        # the file holds the bytes of stdout, trailing newline included
        assert out.read_text() == (FIXTURES / "unicorn_near_edge.report.out").read_text()

    def test_check_writes_to_the_current_stdout(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["check"]) == 0
        assert out.getvalue().endswith("13/13 criteria passed\n")

    def test_parser_subcommands(self):
        p = build_parser()
        for cmd in ("report", "table", "classify", "check"):
            assert cmd in p.format_help()

    # The byte-stable stdout contract, checked on every test run against the
    # bytes recorded in tests/fixtures/, and the benchmark's check of the same
    # stdout against perfbench/expected/ (recorded with the Simpson sigma
    # rule, so within the acceptance thresholds rather than byte for byte).

    def test_report_bytes_match_benchmark_expectation(self, capsys):
        rc = main(["report", "--metric", "lie_group", "--per-axis", "2",
                   "--directions", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (FIXTURES / "report_surface.out").read_text()
        assert _benchmark_check("report", out, "report_surface.any.out")[1:4] == (True, 32, 0)

    def test_report_solid_bytes_match_benchmark_expectation(self, capsys):
        # the same contract in 3-D: n = 3 jets, Riemann without K, 3-D stencils
        rc = main(["report", "--metric", "bao_shen", "--per-axis", "2",
                   "--directions", "4", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (FIXTURES / "report_solid.seed0.out").read_text()
        assert _benchmark_check("report", out, "report_solid.seed0.out")[1:4] == (True, 32, 0)

    def test_check_bytes_match_benchmark_expectation(self):
        stream = io.StringIO()
        assert cmd_check(seed=0, stream=stream) == 0
        out = stream.getvalue()
        assert out == (FIXTURES / "check.seed0.out").read_text()
        assert out.endswith("13/13 criteria passed\n")
        assert _benchmark_check("check", out, "check_suite.seed0.out")[1:4] == (True, 13, 0)

    def test_mw_classification_fails_typed(self, capsys):
        # mw has |b| = 1: F = 0 at one sigma node, so the ln sigma sweep at
        # the point fails; s_zero records the typed error and the verdict says
        # why it is Inconclusive, while the six verdicts that need no sigma stand
        assert main(["classify", "--metric", "mw"]) == 0
        out = capsys.readouterr().out
        assert out == (FIXTURES / "classify_mw.out").read_text()
        doc = json.loads(out)
        error = "SingularDirectionInQuadrature: F <= 0 at 1 quadrature node(s)"
        assert doc["predicates"]["s_zero"] == {"verdict": None, "error": error,
                                               "threshold": 1e-5, "n_samples": 0}
        assert doc["verdict"] == "Inconclusive"
        assert doc["reason"] == f"s_zero could not be evaluated: {error}"
        decided = {k: v["verdict"] for k, v in doc["predicates"].items() if k != "s_zero"}
        assert decided == {"gb": True, "killing_cl": False, "berwald": False,
                           "landsberg": False, "douglas": True, "riemannian": False}

    def test_report_bytes_of_failing_directions(self, capsys):
        # a custom unicorn metric with |b| = 0.97 near the edge of its cone:
        # two records fail at `fundamental`, and the classification's sigma
        # sweep fails at the point, so its s_zero is an errored verdict.  The
        # point's batch raises and is redone one direction at a time, which
        # must print the bytes of the one-direction-at-a-time engine that
        # recorded this file.  (The six other records, which
        # failed where the old S formula's density met s = 0.97, were
        # re-recorded with S_formula = 0: exact for constant a and b, where
        # the density term is skipped.)
        rc = main(["report", "--config", str(FIXTURES / "unicorn_near_edge.json")])
        assert rc == 0
        want = (FIXTURES / "unicorn_near_edge.report.out").read_bytes().decode()
        assert capsys.readouterr().out == want


#: a 4-dimensional custom metric whose one-form reads the fourth coordinate
FOUR_D = str(FIXTURES / "four_d.json")


class TestFourDimensionalConfig:
    def test_a_config_names_every_coordinate(self, capsys):
        assert main(["table", "--config", FOUR_D, "--quantity", "r"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:4] == ["x1", "x2", "x3", "x4"]
        assert len(rows) == 1 + 2**4

    def test_sigma_names_its_dimension_limit(self, capsys):
        # sigma has no dimension limit left: at a = I it is the Randers
        # (1 - |b|^2)^(5/2), and S and the s_zero verdict compute
        assert main(["table", "--config", FOUR_D, "--quantity", "sigma"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        for row in rows:
            b2 = (0.1 * float(row["x4"])) ** 2 + 0.04
            assert float(row["sigma"]) == pytest.approx((1.0 - b2) ** 2.5, rel=1e-11)
        assert main(["table", "--config", FOUR_D, "--quantity", "S"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 64 and all(row["S_formula"] == row["S_def"] for row in rows)
        assert main(["classify", "--config", FOUR_D]) == 0
        s_zero = json.loads(capsys.readouterr().out)["predicates"]["s_zero"]
        assert "error" not in s_zero and s_zero["verdict"] is False

    def test_report_records_the_dimension_limit(self, capsys):
        # no record names a dimension limit: each carries the S formula with
        # the f(b) slope of the 4-D unit ball, and S_def to its printed digits
        assert main(["report", "--config", FOUR_D]) == 0
        records = json.loads(capsys.readouterr().out)["records"]
        assert len(records) == 64
        assert all("error" not in r and r["S_formula"] == r["S_def"] for r in records)

    def test_report_computes_each_point_once(self, capsys, monkeypatch):
        # no layer raises: the records' (point, direction) pairs are one jet
        # batch, never redone one point or one direction at a time; counted
        # through every module that binds spray_data
        from finsler.spray_curvature import spray_data
        calls = []
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("finsler")
                    and getattr(mod, "spray_data", None) is spray_data):
                monkeypatch.setattr(mod, "spray_data", lambda *args, **kw:
                                    calls.append(1) or spray_data(*args, **kw))
        assert main(["report", "--config", FOUR_D]) == 0
        capsys.readouterr()
        # one jet batch for the records' 2-per-axis grid (256 pairs) and one
        # for the classification's 3-per-axis grid (324 pairs), one chunk each
        assert len(calls) == 1 + 1
