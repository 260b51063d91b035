"""Tests of the benchmark's tracer, output check and metric list.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import outputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _finsler_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "finsler" or name.startswith("finsler.")}


def test_every_binding_of_a_traced_function_is_rebound():
    import finsler.cli  # noqa: F401  (loads every module that binds a target)
    import importlib
    originals = {}
    for target in tracer.TRACED:
        mod, name = target.split(".")
        originals[target] = getattr(
            importlib.import_module(f"finsler.{mod}"), name)
    holders = {target: [(m, a) for m in _finsler_modules().values()
                        for a, v in vars(m).items() if v is fn]
               for target, fn in originals.items()}
    acceptance = sys.modules["finsler.acceptance"]
    jet = sys.modules["finsler.jets"].JetScalar
    mul = jet.__mul__

    t = tracer.Tracer()
    undo = tracer.install(t)
    try:
        for target, fn in originals.items():
            assert holders[target], f"{target} is bound nowhere"
            wrapped = {id(getattr(m, a)) for m, a in holders[target]}
            assert len(wrapped) == 1, f"{target} bound to different objects"
            for m, a in holders[target]:
                assert getattr(m, a) is not fn, f"{m.__name__}.{a} untraced"
                assert getattr(m, a).__wrapped__ is fn
        for mod in _finsler_modules().values():
            for attr, value in vars(mod).items():
                assert all(value is not fn for fn in originals.values()), (
                    f"{mod.__name__}.{attr} still binds the original")
        modules = {m.__name__ for m, _ in
                   holders["spray_curvature.riemann_flag"]}
        assert {"finsler", "finsler.spray_curvature", "finsler.classify",
                "finsler.cli", "finsler.acceptance"} <= modules
        assert all(isinstance(c, tracer._Traced) for c in acceptance.CRITERIA)
        assert "seed" in acceptance.CRITERIA[8].__code__.co_varnames
        assert jet.__mul__ is not mul and jet.__rmul__ is jet.__mul__

        result = acceptance.CRITERIA[0]()
        assert result.passed
        spans = t.summary()["spans"]
        assert spans["acceptance.criterion_1"]["calls"] == 1
        assert spans["geometry_core.beta_derivatives"]["calls"] >= 1
    finally:
        undo()
    for target, fn in originals.items():
        for m, a in holders[target]:
            assert getattr(m, a) is fn
    assert jet.__mul__ is mul and jet.__rmul__ is mul
    assert all(isinstance(c, types.FunctionType) for c in acceptance.CRITERIA)


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0,  # a(b(c) b)
                  20.0, 21.0, 22.0, 23.0, 24.0, 26.0])  # c(c(c))
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("a")
    t.enter("b")
    t.enter("c")
    t.exit()
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    t.enter("c")
    t.enter("c")
    t.enter("c")
    t.exit()
    t.exit()
    t.exit()
    s = t.summary()
    spans = s["spans"]
    assert spans["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert spans["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    # c: 1 s inside b, then a recursive span 20..26 counted once in total
    assert spans["c"] == {"calls": 4, "total_s": 7.0, "self_s": 7.0}
    edges = {(p, c): (n, d) for p, c, n, d in s["edges"]}
    assert edges[("a", "b")] == (2, 5.0)
    assert edges[("b", "c")] == (1, 1.0)
    assert edges[(None, "c")] == (1, 6.0)
    assert edges[("c", "c")] == (2, 4.0)


def test_traced_stdout_equals_untraced_stdout():
    argv = ["report", "--metric", "lie_group", "--per-axis", "1",
            "--directions", "4", "--seed", "3"]
    plain, plain_out = run.run_child(argv, "run", 120)
    traced, traced_out = run.run_child(argv, "trace", 120)
    assert plain["rc"] == 0 and traced["rc"] == 0
    assert plain_out and traced_out == plain_out
    spans = traced["trace"]["spans"]
    assert spans["cli.cmd_report"]["calls"] == 1
    assert spans["spray_curvature.riemann_flag"]["calls"] == 4
    assert traced["trace"]["counts"]["jets.mul_calls"] > 0
    assert "trace" not in plain


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())


def _expected(workload, seed=0):
    return run.expected_path(workload, seed).read_bytes().decode()


def test_output_check_accepts_small_drift_and_rejects_large():
    text = _expected("report_surface")
    doc = json.loads(text)
    assert outputs.check_output("report", text, text) == (
        True, True, len(doc["records"]), 0, "")
    for delta, ok in ((1e-9, True), (1e-3, False)):
        drifted = json.loads(text)
        drifted["records"][0]["K"] += delta
        identical, passed, items, failed, _ = outputs.check_output(
            "report", json.dumps(drifted, indent=2, sort_keys=True), text)
        assert not identical and passed is ok
        assert failed == (0 if ok else items)

    table = _expected("table_geometry")
    rows = table.split("\r\n")
    cells = rows[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-3)
    bad = "\r\n".join([rows[0], ",".join(cells), *rows[2:]])
    assert outputs.check_output("table", bad, table)[1] is False

    check = _expected("check_suite")
    assert outputs.check_output("check", check, check)[2:4] == (13, 0)
    short = check.replace("13/13 criteria passed", "12/13 criteria passed")
    assert outputs.check_output("check", short, check)[1:4] == (False, 13, 13)
