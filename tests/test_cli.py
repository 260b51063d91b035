"""CLI subcommands, config validation, CSV/JSON output, exit codes."""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import pytest

from finsler.cli import (build_parser, cmd_check, cmd_classify, cmd_report,
                         cmd_table, main)
from finsler.cli import RunConfig
from finsler.errors import ConfigError, EvaluationError, UnknownQuantity

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
#: 0 in exact arithmetic since b is constant)
S_TABLE_ROWS = [
    "x1,x2,y1,y2,S_formula,S_def",
    "-2.76,0.44,0.995004165278,0.0998334166468,-1.40990952102,-1.40990952059",
    "-2.76,0.44,-0.0998334166468,0.995004165278,1.18861772213,1.18861772638",
    "-2.76,0.44,-0.995004165278,-0.0998334166468,-1.59172674362,-1.59172674405",
    "-2.76,0.44,0.0998334166468,-0.995004165278,-1.52202085726,-1.52202086151",
    "-2.76,4.76,0.995004165278,0.0998334166468,-0.130327770851,-0.130327770849",
    "-2.76,4.76,-0.0998334166468,0.995004165278,0.109872226719,0.109872226733",
    "-2.76,4.76,-0.995004165278,-0.0998334166468,-0.147134404999,-0.147134405001",
    "-2.76,4.76,0.0998334166468,-0.995004165278,-0.140691003713,-0.140691003728",
    "2.76,0.44,0.995004165278,0.0998334166468,-1.40990952102,-1.40990952059",
    "2.76,0.44,-0.0998334166468,0.995004165278,1.18861772213,1.18861772638",
    "2.76,0.44,-0.995004165278,-0.0998334166468,-1.59172674362,-1.59172674405",
    "2.76,0.44,0.0998334166468,-0.995004165278,-1.52202085726,-1.52202086151",
    "2.76,4.76,0.995004165278,0.0998334166468,-0.130327770851,-0.130327770849",
    "2.76,4.76,-0.0998334166468,0.995004165278,0.109872226719,0.109872226733",
    "2.76,4.76,-0.995004165278,-0.0998334166468,-0.147134404999,-0.147134405001",
    "2.76,4.76,0.0998334166468,-0.995004165278,-0.140691003713,-0.140691003728",
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


@pytest.mark.parametrize("metric,quantity,extra", [
    *(("lie_group", q, []) for q in "QGBELDRKH"),
    *(("bao_shen", q, ["--seed", "0"]) for q in "GBDRH"),
])
def test_table_bytes(metric, quantity, extra, capsys):
    # one curvature bundle per grid point, its directions as one batch, must
    # print the bytes of one direction at a time (recorded in the fixtures)
    rc = main(["table", "--metric", metric, "--quantity", quantity,
               "--per-axis", "2", "--directions", "4", *extra])
    assert rc == 0
    want = (TABLES / f"{metric}.{quantity}.csv").read_bytes().decode()
    assert capsys.readouterr().out == want


def test_table_reports_the_first_failing_direction(capsys, monkeypatch):
    # a point's batch raises; redone one direction at a time, the error is
    # the one the first failing direction raises alone
    doc = json.loads((TABLES / "unicorn_near_edge.B.json").read_text())
    monkeypatch.chdir(FIXTURES.parents[1])
    assert main(doc["argv"]) == doc["exit_code"]
    assert capsys.readouterr() == (doc["stdout"], doc["stderr"])


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
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ParamOutOfRange: unicorn family requires")
        assert captured.out == ""

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
        # stdout ends the JSON with a newline, the file does not
        assert out.read_text() + "\n" == (FIXTURES / "unicorn_near_edge.report.out").read_text()

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
        # mw has |b| = 1: F = 0 at one sigma node, so the ln sigma stencil fails
        assert main(["classify", "--metric", "mw", "--per-axis", "2",
                     "--directions", "4"]) == 1
        assert ("EvaluationError: field evaluation failed at offset +0.001 "
                "along axis 0: F <= 0 at 1 quadrature node(s)") in capsys.readouterr().err

    def test_report_bytes_of_failing_directions(self, capsys):
        # a custom unicorn metric with |b| = 0.97 near the edge of its cone:
        # two records fail at `fundamental`, and the classification fails in
        # a stencil.  The point's batch raises and is redone one direction at
        # a time, which must print the bytes of the one-direction-at-a-time
        # engine that recorded this file.  (The six other records, which
        # failed where the old S formula's density met s = 0.97, were
        # re-recorded with S_formula = 0: exact for constant a and b, where
        # the density term is skipped.)
        rc = main(["report", "--config", str(FIXTURES / "unicorn_near_edge.json")])
        assert rc == 0
        want = (FIXTURES / "unicorn_near_edge.report.out").read_bytes().decode()
        assert capsys.readouterr().out == want
