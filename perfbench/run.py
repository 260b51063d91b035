"""End-to-end and per-layer benchmark of the finsler CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run is the real CLI command in a fresh interpreter
(``perfbench/child.py``), one child at a time, after one discarded warm-up
child.  A fresh interpreter per run matters: the ``beta_at`` and jet-table
caches and ``UnicornPhi._value_cache`` live in-process, and a CLI user pays
them cold on every invocation.  Each child's stdout is checked against the
stored expected stdout (``perfbench/outputs.py``).

With ``--trace 0`` children run untraced for ``--seconds`` (at least
``MIN_SAMPLES`` of them); set-up time and memory are their medians, wall
time and throughput their means.  With ``--trace 1`` untraced and traced
children alternate; the traced ones give the per-layer metrics, and the
ratio of the two medians of compute time gives ``trace_overhead_frac``.
Every time is scaled to a reference CPU speed measured inside each child
(``perfbench/child.py``), because the speed of the machine the benchmark
was written on drifts.

The last stdout line is the result object; the line before it holds the
provenance, which also goes, with every child's figures, to
``perfbench/_results/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import outputs
from child import CAL_REF_S, MARKER
from tracer import COUNTS, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected"
RESULTS = HERE / "_results"

#: the CLI seed is the benchmark seed modulo this; expected stdout is stored
#: for each of these seeds of a workload whose output depends on the seed
SEED_VARIANTS = 16
MIN_SAMPLES = 3
MIN_TRACE_PAIRS = 2
#: a run stops launching children when the next one could end past this
RUN_BUDGET_S = 150.0

WORKLOADS = {
    "report_surface": {
        "argv": ["report", "--metric", "lie_group", "--per-axis", "2",
                 "--directions", "8"],
        "seeded": False,
        "why": "2-D report keeping K: Riemann stencils and n=2 jet products "
               "dominate, and directions share stencil points so beta_at "
               "mostly hits",
    },
    "report_solid": {
        "argv": ["report", "--metric", "bao_shen", "--per-axis", "2",
                 "--directions", "4"],
        "seeded": True,
        "why": "3-D report whose 32 records dominate: n=3 jets, a "
               "riemann_flag whose R is thrown away, sigma quadrature; "
               "classify_metric is about a quarter",
    },
    "table_geometry": {
        "argv": ["table", "--metric", "lie_group", "--quantity", "r",
                 "--per-axis", "65"],
        "seeded": False,
        "why": "geometry_core alone on 4225 points, more than the 4096-entry "
               "beta_at cache: no jet products, spray or quadrature, every "
               "lookup misses",
    },
    "check_suite": {
        "argv": ["check"],
        "seeded": True,
        "why": "the 13 acceptance criteria: the only path through "
               "spray_generic and fsq_jet oracles, UnicornPhi and Zermelo",
    },
}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["geometry_core.beta_hit_ratio"] = "hits/call"
    units["trace_overhead_frac"] = "ratio"
    return units


def cli_argv(workload, seed):
    return WORKLOADS[workload]["argv"] + [
        "--seed", str(seed % SEED_VARIANTS)]


def expected_path(workload, seed):
    tag = f"seed{seed % SEED_VARIANTS}" if WORKLOADS[workload]["seeded"] else "any"
    return EXPECTED / f"{workload}.{tag}.out"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, mode, timeout):
    """Spawn one child in ``mode`` (run, trace or setup) and wait for it.

    Returns the child's figures and its stdout.
    """
    env = child_env()
    spawn = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(CHILD), str(spawn), mode, "--", *argv]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT, env=env) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"rc": None, "error": f"timed out after {timeout:.0f} s",
                    "wall_s": timeout}, ""
    wall = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawn) / 1e9
    stats = {}
    for line in err.decode(errors="replace").splitlines():
        if line.startswith(MARKER):
            stats = json.loads(line[len(MARKER):])
    if proc.returncode != 0 or not stats:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        return {"rc": proc.returncode, "error": " | ".join(tail),
                "wall_s": wall}, out.decode()
    cal = stats["cal_s"]
    stats["wall_s"] = wall - sum(cal)
    stats["setup_scale"] = CAL_REF_S / cal[0]
    stats["scale"] = CAL_REF_S / statistics.fmean(cal)
    return stats, out.decode()


def judge(stats, text, command, expected):
    """Attach the output check to a child's figures."""
    if stats.get("rc") != 0:
        items = outputs.expected_items(command, expected)
        stats.update(identical=False, ok=False, items=items, failed=items)
        return stats
    identical, ok, items, failed, detail = outputs.check_output(
        command, text, expected)
    stats.update(identical=identical, ok=ok, items=items, failed=failed)
    if detail:
        stats["detail"] = detail
    return stats


def measure(workload, seed, seconds, trace):
    """Warm up once, then run children until ``seconds`` have passed."""
    argv = cli_argv(workload, seed)
    expected = expected_path(workload, seed).read_bytes().decode()
    command = argv[0]
    start = time.monotonic()

    def remaining():
        return RUN_BUDGET_S - (time.monotonic() - start)

    # only the OS page cache and .pyc files outlive a child, and importing
    # finsler.cli loads every module, so the warm-up stops after set-up
    warm, _ = run_child(argv, "setup", remaining())
    if warm.get("rc") != 0:
        raise RuntimeError(f"warm-up run failed: {warm.get('error')}")
    longest = warm["wall_s"]
    plain, traced, setups = [], [], []
    modes = ("run", "trace") if trace else ("run",)
    need = MIN_TRACE_PAIRS if trace else MIN_SAMPLES
    measuring = time.monotonic()
    while len(plain) < need or time.monotonic() - measuring < seconds:
        if remaining() < longest * len(modes) * 1.5 + 1.0:
            break
        for mode in modes:
            stats, text = run_child(argv, mode, remaining())
            (traced if mode == "trace" else plain).append(
                judge(stats, text, command, expected))
            longest = max(longest, stats["wall_s"])
        if not trace:  # set-up is short and noisy: sample it twice as often
            setups.append(run_child(argv, "setup", remaining())[0])
    return argv, plain, traced, setups


def scaled_median(samples, key, scale="scale"):
    """Median of a time over samples, each scaled to the reference speed."""
    return statistics.median(s[key] * s[scale] for s in samples)


def end_to_end(plain, setups):
    done = [s for s in plain if s.get("rc") == 0]
    if not done:
        raise RuntimeError("no measured run completed")
    return {
        "setup_s": scaled_median(
            done + [s for s in setups if s.get("rc") == 0], "setup_s",
            "setup_scale"),
        # a run has only 3 to 8 children; their mean is steadier than
        # their median (see README.md, "Speed calibration")
        "wall_s": statistics.fmean(s["wall_s"] * s["scale"] for s in done),
        "items_per_s": statistics.fmean(
            s["items"] / (s["run_s"] * s["scale"]) for s in done),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
    }


def per_layer(plain, traced):
    done = [s for s in traced if s.get("rc") == 0]
    if not done or not any(s.get("rc") == 0 for s in plain):
        raise RuntimeError("no traced or untraced run completed")
    first = done[0]["trace"]
    values = {}
    for name in TRACED:
        span = first["spans"].get(name)
        values[f"{name}.calls"] = span["calls"] if span else 0
        for key in ("self_s", "total_s"):
            values[f"{name}.{key}"] = statistics.median(
                s["trace"]["spans"].get(name, {}).get(key, 0.0) * s["scale"]
                for s in done)
    values.update(first["counts"])
    lookups = values["geometry_core.beta_at.calls"]
    misses = sum(calls for parent, name, calls, _ in first["edges"]
                 if parent == "geometry_core.beta_at"
                 and name == "geometry_core.beta_derivatives")
    values["geometry_core.beta_hit_ratio"] = (
        1.0 - misses / lookups if lookups else 0.0)
    values["trace_overhead_frac"] = (
        scaled_median(done, "run_s")
        / scaled_median([s for s in plain if s.get("rc") == 0], "run_s")
        - 1.0)
    return values


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def provenance(workload, seed, argv, samples):
    done = [s for s in samples if s.get("rc") == 0]
    unscaled = {key: statistics.median(s[key] for s in done) if done else None
                for key in ("setup_s", "wall_s", "run_s")}
    unscaled["cal_s"] = (statistics.median(c for s in done for c in s["cal_s"])
                         if done else None)
    return {
        "workload": workload,
        "seed": seed,
        "argv": ["finsler", *argv],
        "git_sha": git_sha(),
        "python": done[0]["python"] if done else platform.python_version(),
        "numpy": done[0]["numpy"] if done else "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "samples": len(samples),
        "bit_identical": all(s.get("identical") for s in samples),
        "unscaled_medians": unscaled,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "finsler" / "cli.py").is_file():
        sys.stderr.write("perfbench: src/finsler/cli.py not found; run from "
                         "the root of a finsler checkout\n")
        return 2
    try:
        cli, plain, traced, setups = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            values, units = per_layer(plain, traced), per_layer_units()
        else:
            values, units = end_to_end(plain, setups), END_TO_END
    except (OSError, RuntimeError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    samples = plain + traced
    prov = provenance(args.workload, args.seed, cli, samples)
    result = {
        "correct": all(s.get("ok") for s in samples),
        "attempted": sum(s["items"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"provenance": prov, "result": result,
                                  "samples": samples, "setups": setups},
                                 indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
