"""Write the expected stdout of every workload into ``perfbench/expected/``.

Usage (from the repository root)::

    python3 perfbench/record_expected.py [WORKLOAD ...]

Run it only at a commit whose output is known to be right: every later run
of the benchmark is checked against these files.  A seeded workload gets one
file per CLI seed ``0 .. SEED_VARIANTS-1``; an unseeded one gets one file,
after checking that two seeds give the same bytes.
"""

import sys

import run


def record(workload):
    seeds = (range(run.SEED_VARIANTS) if run.WORKLOADS[workload]["seeded"]
             else (0, 1))
    texts = {}
    for seed in seeds:
        argv = run.cli_argv(workload, seed)
        stats, text = run.run_child(argv, "run", run.RUN_BUDGET_S)
        if stats.get("rc") != 0:
            raise SystemExit(f"{workload} seed {seed} failed: {stats.get('error')}")
        texts[seed] = text
        print(f"{workload} seed {seed}: {len(text)} bytes, "
              f"{stats['wall_s']:.2f} s", flush=True)
    if not run.WORKLOADS[workload]["seeded"] and texts[0] != texts[1]:
        raise SystemExit(f"{workload} output depends on the seed")
    run.EXPECTED.mkdir(exist_ok=True)
    for seed, text in texts.items():
        run.expected_path(workload, seed).write_bytes(text.encode())


def main(names):
    for workload in names or run.WORKLOADS:
        record(workload)


if __name__ == "__main__":
    main(sys.argv[1:])
