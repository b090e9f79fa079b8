"""Time one fresh start of the program for ``setup_s``.

    python3 perfbench/setup_probe.py <checkout root> <workload> <seed>

Prints one JSON line: the seconds from the first statement of this script to
``assignlab`` imported and the workload's configs built, and the median of
five reference-kernel timings taken right after.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    root, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    cli = workloads.load_cli(root)
    workloads.build_configs(cli.ExperimentConfig, workload, seed)
    setup_s = time.perf_counter() - _START

    import reference

    kernel = reference.Reference()
    ref = statistics.median(kernel.measure() for _ in range(5))
    print(json.dumps({"setup_s": setup_s, "reference_s": ref}))
