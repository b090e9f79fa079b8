"""Minor page faults per round of a benchmark workload, config by config.

    python3 tools/faults.py --workload wide-d4 --seed 7 [CHECKOUT]

Runs the workload's round of ``perfbench/workloads.py`` as
``perfbench/run.py`` does: ``cli.run`` then ``render_report`` for each
config, the reference kernel after each round, one BLAS thread, the program
imported from ``src/`` of CHECKOUT (this checkout by default). After
WARMUP rounds it counts ROUNDS more and prints, one line a round, the minor
page faults (``getrusage`` ``ru_minflt`` of this process) each config made
and the round's total, then the median of each column.

In steady state a round allocates nothing it keeps, so its faults are pages
the C heap returned to the system between chunks or runs and touched again:
a count of heap churn, which costs time the round's own counters do not show.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import reference  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP = 3
ROUNDS = 8


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def count_round(cli, configs: list, kernel: reference.Reference) -> list:
    """Minor faults of each config's run and render, then the kernel's run."""
    faults = []
    for config in configs:
        before = minor_faults()
        cli.render_report(cli.run(config))
        faults.append(minor_faults() - before)
    kernel.measure()
    return faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=ROOT)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    for var in THREAD_VARS:  # before numpy is loaded
        os.environ[var] = "1"
    try:
        cli = workloads.load_cli(args.checkout)
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    configs = workloads.build_configs(cli.ExperimentConfig, args.workload, args.seed)
    kernel = reference.Reference()
    for _ in range(WARMUP):
        count_round(cli, configs, kernel)
    rounds = [count_round(cli, configs, kernel) for _ in range(ROUNDS)]
    print("round", *map(workloads.label, configs), "total", sep="\t")
    for i, faults in enumerate(rounds):
        print(i, *faults, sum(faults), sep="\t")
    print("median", *(statistics.median(column) for column in zip(*rounds)),
          statistics.median(sum(faults) for faults in rounds), sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
