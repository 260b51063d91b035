"""Every CLI run computes or refuses typed, as a property over its inputs.

``hypothesis`` draws argv for ``report``, ``table`` and ``classify`` of every
catalog metric, with flag values that are valid, out of range, past the float
range, not finite, not numbers or missing, argv for ``check`` with seeds of any
sign and size, or none, and config documents that change one key of a
``tests/fixtures`` config: drop it, add an unknown one next to it, or give it a
value of another type, a huge or non-finite number, a deep nesting, a non-ASCII
name or an expression that cannot be evaluated.  A third property draws
argv whose only fault is a count past ``MAX_SAMPLES``, and a sweep sets every
leaf of every fixture config to 2**64 and to 1e300 in turn.  Grids stay tiny:
at most 2 points per axis and 4 directions.  Each run must return 0, 1 or 2 without
raising, print exactly one ``error:`` line and nothing on stdout when it
refuses (2), name a ``FinslerError`` when a computation fails (1), and emit no
``RuntimeWarning``; ``check`` passes every criterion when it runs.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest

from finsler import errors
from finsler.catalog import catalog_names
from finsler.cli import MAX_SAMPLES, QUANTITIES, main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: the fixtures that are configs (the others are recorded outputs), each cut
#: to a tiny grid
CONFIGS = {path.stem: {**doc, "grid": {"per_axis": min(2, doc["grid"]["per_axis"])},
                       "directions": 4}
           for path in sorted(FIXTURES.glob("*.json"))
           for doc in [json.loads(path.read_text())] if "schema" in doc}

#: stands for a list nested past Python's recursion limit, spliced into the text
DEEP = "deeply nested"

#: replacement values: other types, huge (2**64 and 1e300 as well as past the
#: float range), tiny and non-finite numbers, non-ASCII text and expressions
#: that overflow or divide by zero
VALUES = [None, True, False, 0, 1, 2, -1, 2.5, -0.0, 1e-300, 1e6 + 0.5, 2**64, 1e300,
          10**400, -10**400, math.nan, math.inf, -math.inf, "", "x", "é", "x1", "s^2", "(",
          "exp(800*x1)", "1/(x1-x1)", "log(x1)", "sqrt(-1)", "x1^-1", [], [1], [[["0.1"]]],
          {}, {"é": 1}, json.loads("[" * 30 + "1" + "]" * 30), DEEP]

#: keys that set the grid's size: changed, never dropped, and the grid never
#: becomes another object (its per_axis would default to 5), so it stays tiny
SIZE_KEYS = {("grid",), ("grid", "per_axis"), ("directions",)}

#: per flag, values that run and values that are refused (None: the value is missing)
FLAGS = {
    "--metric": (catalog_names(), ["nope", None]),
    "--per-axis": (["1", "2"], ["0", "-1", str(10**300), str(10**400), "nan", "2.5", "x", None]),
    "--directions": (["4"], ["3", "0", "-4", "4.0", "inf", str(10**300), str(10**400), None]),
    "--seed": (["0", "1", "7"], ["-1", "1.5", str(10**400), None]),
    "--param": (["eps=0.1", "eps=-0.5", "K=2", "sign=-1", "kappa=0.5", "eps=1e-320"],
                ["eps=1e400", "eps=NaN", "eps=-Infinity", f"eps={10**400}", "eps", "=1",
                 "nope=1", "eps=[[[1]]]", 'eps="0.1"', "eps=true", "eps=null", None]),
    # the tiny configs, written to the test's directory, or no file there
    "--config": (sorted(CONFIGS), ["missing", ".", None]),
}


def _paths(node, prefix=()):
    """Every key path of a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(doc, path, how, value):
    """``doc`` with the key at ``path`` dropped, replaced by ``value`` or given an
    unknown sibling, as JSON text."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    node = doc
    for k in parents:
        node = node[k]
    if how == "drop" and path not in SIZE_KEYS:
        del node[key]
    elif how == "add" and isinstance(node, dict):
        node["é"] = value
    elif path != ("grid",) or not isinstance(value, dict):
        node[key] = value
    deep = "[" * 100_000 + "]" * 100_000
    return json.dumps(doc).replace(json.dumps(DEEP), deep)


def _at_path(doc, path):
    """The value at ``path`` of ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


def _check_run(argv):
    """One ``main`` run, held to the contract of exit codes, stderr and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    assert rc in (0, 1, 2), (argv, rc)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (argv, caught)
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == [], (argv, lines)
        return
    assert out.getvalue() == "", argv
    if rc == 2:  # argparse's usage lines come before its error line
        flagged = [line for line in lines if re.match(r"(finsler[\w ]*: )?error: ", line)]
        assert len(flagged) == 1 and lines[-1] == flagged[0], (argv, lines)
    else:
        assert len(lines) == 1, (argv, lines)
        name = re.match(r"error: (\w+): ", lines[0])
        assert name and issubclass(getattr(errors, name[1], type), errors.FinslerError), lines


@st.composite
def _argv(draw, tmp):
    """A subcommand and up to four flags, ``--metric`` among them unless
    ``--config`` is, each value as likely to run as to be refused; without
    ``--config``, a tiny grid comes first, so that a drawn size flag replaces it."""
    command = draw(st.sampled_from(["report", "table", "classify"]))
    flags = draw(st.lists(st.sampled_from(sorted(FLAGS)), unique=True, max_size=4))
    if "--config" not in flags and "--metric" not in flags:
        flags.append("--metric")
    argv = [command]
    if command == "table":
        argv += ["--quantity", draw(st.sampled_from([*QUANTITIES, "nope"]))]
    if "--config" not in flags:
        argv += ["--per-axis", draw(st.sampled_from(["1", "2"])), "--directions", "4"]
    for flag in flags:
        value = draw(st.sampled_from(draw(st.sampled_from(FLAGS[flag]))))
        if flag == "--config" and value is not None:
            value = str(Path(tmp) / (value if value == "." else f"{value}.json"))
        argv += [flag] if value is None else [flag, value]
    return argv + draw(st.sampled_from([[], ["--out", str(Path(tmp) / "out")],
                                        ["--out", str(Path(tmp) / "missing" / "x")],
                                        ["--out", tmp]]))


#: ``check --seed``'s values: integers of any sign and size, and text that is no integer
SEEDS = st.one_of(st.integers().map(str), st.sampled_from(
    [str(10**400), str(-10**400), "1.5", "1e3", "-0", "x", "", "nan"]))


def test_check_argv_property():
    # each run that computes takes about 0.3 s: 20 examples add at most 6 s
    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True)
    @hypothesis.given(st.one_of(st.sampled_from([[], ["--seed"]]),
                                SEEDS.map(lambda seed: ["--seed", seed])))
    def check(flags):
        _check_run(["check", *flags])

    check()


def test_argv_property():
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in CONFIGS.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(_argv(tmp))
        def check(argv):
            _check_run(argv)

        check()


@st.composite
def _count_past_max_argv(draw):
    """Argv that runs but for one count past ``MAX_SAMPLES``: ``--per-axis`` or
    ``--directions`` past it, never an admitted large count, and within the float
    range (an int past it is no finite real number, a refusal of its own)."""
    command = draw(st.sampled_from(["report", "table", "classify"]))
    argv = [command, "--metric", draw(st.sampled_from(catalog_names()))]
    if command == "table":
        argv += ["--quantity", draw(st.sampled_from(QUANTITIES))]
    flags = {"--per-axis": "2", "--directions": "4", "--seed": str(draw(st.integers(0, 99)))}
    flag = draw(st.sampled_from(["--per-axis", "--directions"]))
    flags[flag] = str(draw(st.integers(MAX_SAMPLES + 1, 10**308)))
    order = draw(st.permutations(sorted(flags)))
    return [*argv, *(part for key in order for part in (key, flags[key]))], flag


def test_counts_past_max_samples_property():
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(_count_past_max_argv())
    def check(drawn):
        argv, flag = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 2, argv
        named = ("grid.per_axis must give at most" if flag == "--per-axis"
                 else "directions must be at most")
        assert out.getvalue() == "" and err.getvalue().startswith(
            f"error: {named} {MAX_SAMPLES}"), (argv, err.getvalue())
        assert err.getvalue().count("\n") == 1

    check()


def test_config_mutation_property():
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(st.sampled_from(sorted(CONFIGS)), st.data())
        def check(name, data):
            doc = CONFIGS[name]
            path = data.draw(st.sampled_from(list(_paths(doc))))
            how = data.draw(st.sampled_from(["drop", "replace", "add"]))
            config.write_text(_mutated(doc, path, how, data.draw(st.sampled_from(VALUES))),
                              encoding="utf-8")
            command = data.draw(st.sampled_from([["report"], ["classify"],
                                                 ["table", "--quantity", "S"]]))
            _check_run([*command, "--config", str(config)])

        check()


def test_float_range_edges_at_every_leaf():
    # the derandomized draws above rarely pair a fixture's one sensitive leaf with
    # a huge value: here every leaf of every config takes 2**64 and 1e300, and
    # 1e300 as expression text (phi's expr must be text); they once found
    # a jet power, an F^2 and a unicorn constant past the float range, seen only
    # as RuntimeWarnings behind exit 0, a NaN in the report or a traceback
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        for name, doc in CONFIGS.items():
            leaves = [path for path in _paths(doc)
                      if not isinstance(_at_path(doc, path), (dict, list))]
            for path in leaves:
                for value in (2**64, 1e300, "1e300"):
                    config.write_text(_mutated(doc, path, "replace", value), encoding="utf-8")
                    _check_run(["report", "--config", str(config)])
