"""Checks a CLI run's stdout against the stored expected stdout.

A run is *identical* when its bytes equal the expected bytes; ROADMAP asks
that "bit-identical" be checked, so every run records it.  A run that is not
identical still passes when its structure matches and every numeric field
stays within the acceptance threshold of its quantity (below); otherwise it
fails, and every item of it counts as failed.

Thresholds are frozen here, copied from the package at the commit that added
the benchmark: ``TOL_TENSOR`` and ``TOL_S`` from ``finsler.classify``, and
``10 * TOL_S`` for the flag curvature (the flag-zero verdict of
``classify_metric``).  A classification predicate carries its own threshold,
which is used for its residual.  Differences are scaled by
``max(1, |expected|)``.
"""

import csv
import io
import json
import re

TOL_TENSOR = 1e-6
TOL_S = 1e-5
TOL_K = 1e-4
TOL_INPUT = 1e-12

#: report record fields -> threshold of their quantity
REPORT_TOL = {
    "x": TOL_INPUT, "y": TOL_INPUT,
    "F": TOL_TENSOR, "g": TOL_TENSOR, "C_norm": TOL_TENSOR, "G": TOL_TENSOR,
    "B_norm": TOL_TENSOR, "E_norm": TOL_TENSOR, "L_norm": TOL_TENSOR,
    "D_norm": TOL_TENSOR, "K": TOL_K, "S_formula": TOL_S, "S_def": TOL_S,
}

_CHECK_HEAD = re.compile(r"^\[(PASS|FAIL)\]\s+(\d+): (.*)$")
_CHECK_ITEM = re.compile(r"^    (ok |BAD) (.*): (\S+) ([<>]) (\S+)$")
_CHECK_TAIL = re.compile(r"^(\d+)/(\d+) criteria passed$")


class Mismatch(Exception):
    """The output differs from the expected output beyond tolerance."""


def _close(got, want, tol, where):
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        if got != want:
            raise Mismatch(f"{where}: {got!r} != {want!r}")
        return
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        raise Mismatch(f"{where}: {got!r} is not a number")
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise Mismatch(f"{where}: {got!r} drifts from {want!r} by more than {tol:g}")


def _same_tree(got, want, tol, where):
    """Structural equality with numeric leaves compared at ``tol``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            raise Mismatch(f"{where}: keys differ")
        own = want.get("threshold") if "residual" in want else None
        for key in want:
            t = own if key == "residual" and isinstance(own, float) else tol
            _same_tree(got[key], want[key], t, f"{where}.{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            raise Mismatch(f"{where}: lengths differ")
        for i, (g, w) in enumerate(zip(got, want)):
            _same_tree(g, w, tol, f"{where}[{i}]")
    else:
        _close(got, want, tol, where)


def _report(text, expected):
    got, want = json.loads(text), json.loads(expected)
    records = want["records"]
    if set(got) != set(want) or len(got["records"]) != len(records):
        raise Mismatch("report layout differs")
    for key in want:
        if key != "records":
            _same_tree(got[key], want[key], TOL_TENSOR, key)
    for i, (g, w) in enumerate(zip(got["records"], records)):
        if set(g) != set(w):
            raise Mismatch(f"records[{i}]: fields differ")
        for key in w:
            _same_tree(g[key], w[key], REPORT_TOL.get(key, TOL_TENSOR),
                       f"records[{i}].{key}")
    return len(records), sum("error" in r for r in got["records"])


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


def _table(text, expected):
    got = list(csv.reader(io.StringIO(text, newline="")))
    want = list(csv.reader(io.StringIO(expected, newline="")))
    if not want or got[:1] != want[:1] or len(got) != len(want):
        raise Mismatch("table header or row count differs")
    header = want[0]
    for r, (g, w) in enumerate(zip(got[1:], want[1:]), start=1):
        if len(g) != len(w):
            raise Mismatch(f"row {r}: column count differs")
        for col, a, b in zip(header, g, w):
            tol = TOL_INPUT if col[0] in "xy" else TOL_TENSOR
            _close(_number(a), _number(b), tol, f"row {r} {col}")
    return len(want) - 1, 0


def _check(text, expected):
    got, want = text.splitlines(), expected.splitlines()
    if len(got) != len(want):
        raise Mismatch("check output has a different number of lines")
    criteria = failed = 0
    for g, w in zip(got, want):
        if _CHECK_HEAD.match(w):
            head = _CHECK_HEAD.match(g)
            if not head or head.group(2, 3) != _CHECK_HEAD.match(w).group(2, 3):
                raise Mismatch(f"criterion line differs: {g!r}")
            criteria += 1
            failed += head.group(1) == "FAIL"
        elif _CHECK_ITEM.match(w):
            item, ref = _CHECK_ITEM.match(g), _CHECK_ITEM.match(w)
            if not item or item.group(2, 4, 5) != ref.group(2, 4, 5):
                raise Mismatch(f"check line differs: {g!r}")
            residual, threshold = float(item.group(3)), float(item.group(5))
            holds = (residual < threshold if item.group(4) == "<"
                     else residual > threshold)
            if not holds or item.group(1) != "ok ":
                raise Mismatch(f"past its threshold: {g!r}")
        else:
            tail = _CHECK_TAIL.match(g)
            if not tail or g != w or tail.group(1) != tail.group(2):
                raise Mismatch(f"summary line differs: {g!r}")
    return criteria, failed


_KINDS = {"report": _report, "table": _table, "check": _check}


def expected_items(command, expected):
    """Number of items (records, rows or criteria) the expected output holds."""
    return _KINDS[command](expected, expected)[0]


def check_output(command, text, expected):
    """Compare one run's stdout with the expected stdout.

    Returns ``(identical, ok, items, failed_items, detail)``.  Items are
    report records, table rows or check criteria; failed items are records
    carrying ``"error"`` or FAILed criteria, or every item when the output
    does not match.
    """
    identical = text == expected
    try:
        items, failed = _KINDS[command](text, expected)
    except (Mismatch, ValueError, KeyError, TypeError) as exc:
        items = expected_items(command, expected)
        return identical, False, items, items, str(exc)
    return identical, True, items, failed, ""
