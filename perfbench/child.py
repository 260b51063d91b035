"""One CLI invocation in a fresh interpreter, as a user runs it.

Usage::

    python3 perfbench/child.py SPAWN_NS MODE -- CLI_ARG...

``SPAWN_NS`` is the parent's ``CLOCK_MONOTONIC`` reading just before the
spawn; that clock is system-wide on Linux, so set-up time is measured from
the moment the parent started this process.  Set-up ends when
``finsler.cli`` is imported and the run config (catalog entry, grid,
directions) is built.  With ``MODE`` ``setup`` the child stops there.
Otherwise it runs ``finsler.cli.main`` on the CLI arguments, which writes
the command's output to stdout as usual; with ``MODE`` ``trace`` the
package is traced.  The child ends by printing one line
``perfbench-child <json>`` to stderr with its timings, its peak resident
memory and the per-layer trace, if any.

The speed of the machine this runs on drifts by up to 2x within seconds, so
the child also times a fixed pure-Python loop right after set-up and right
after the command (``cal_s``).  The parent scales times by ``CAL_REF_S``
over those loop times and subtracts the time spent in them.
"""

import json
import platform
import resource
import sys
import time

MARKER = "perfbench-child "
#: the calibration loop's length, and its time at the reference speed
CAL_LOOPS = 2_000_000
CAL_REF_S = 0.2


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate(loops=CAL_LOOPS):
    """Seconds a fixed pure-Python loop takes now: the CPU's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += (i * i) % 7
    return time.perf_counter() - start


def main(argv):
    spawn_ns, mode, sep, *cli_argv = argv
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py SPAWN_NS run|trace|setup -- CLI_ARG...")
    import numpy
    from finsler import cli
    from finsler.classify import default_directions

    args = cli.build_parser().parse_args(cli_argv)
    if args.command != "check":
        cfg = cli._config_from_args(args)
        cli._sample_grid(cfg)
        default_directions(cfg.metric.n, cfg.n_directions, seed=cfg.seed)
    setup_end = _now_ns()
    stats = {
        "rc": 0,
        "setup_s": (setup_end - int(spawn_ns)) / 1e9,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cal_s": [calibrate()],
    }
    if mode != "setup":
        tracer = None
        if mode == "trace":
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        start = _now_ns()
        stats["rc"] = cli.main(cli_argv)
        sys.stdout.flush()
        stats["run_s"] = (_now_ns() - start) / 1e9
        stats["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        stats["cal_s"].append(calibrate())
        if tracer is not None:
            stats["trace"] = tracer.summary()
    sys.stderr.write(MARKER + json.dumps(stats) + "\n")
    return stats["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
