"""Closed-loop round benchmark of assignlab: one client, one process, one BLAS thread.

    python3 perfbench/run.py --workload qubit-probes --seed 7 --seconds 35 --trace 0

Each workload repeats a fixed round of ``cli.run`` + ``render_report`` calls
(see ``workloads.py``) for ``--seconds``.  After every round a fixed
reference kernel is timed, and every timing is reported in reference seconds
(``reference.py``).  Every report is checked by the oracle (``oracle.py``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the first
part of the run untraced and the rest with the layer trace (``layertrace.py``)
installed, and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import oracle
import reference
import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_STARTS = 11  # fresh interpreters timed for setup_s
SETUP_TIMEOUT_S = 60
UNTRACED_SHARE = 0.5  # of --seconds, in a traced run
TAIL_BEYOND = 10  # rounds that must lie beyond the tail percentile


@dataclass(frozen=True)
class Round:
    wall_s: float
    cpu_s: float
    reference_s: float
    passed: int
    failed: int

    @property
    def scale(self) -> float:
        return reference.NOMINAL_S / self.reference_s


def run_round(cli, configs: list, checker: oracle.RoundChecker,
              kernel: reference.Reference) -> Round:
    """One round, the reference kernel right after it, and the oracle's verdict."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rendered = [cli.render_report(cli.run(config)) for config in configs]
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    ref = kernel.measure()
    passed = sum(checker.check(i, text) for i, text in enumerate(rendered))
    return Round(wall, cpu, ref, passed, len(configs) - passed)


def run_for(cli, configs, checker, kernel, seconds: float, tracer=None) -> tuple:
    """Repeat rounds until ``seconds`` have passed; at least one round."""
    rounds, layer_rounds = [], []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(cli, configs, checker, kernel))
        if tracer is not None:
            layer_rounds.append(tracer.summarise(tracer.end_round()))
        if time.perf_counter() >= deadline:
            return rounds, layer_rounds


def measure_setup(workload: str, seed: int) -> tuple:
    """Median setup time over fresh interpreters: (reference s, raw s, scale)."""
    probe = os.path.join(HERE, "setup_probe.py")
    normalised, raw, scales = [], [], []
    for _ in range(SETUP_STARTS):
        done = subprocess.run(
            [sys.executable, probe, ROOT, workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        child = json.loads(done.stdout.splitlines()[-1])
        scale = reference.NOMINAL_S / child["reference_s"]
        normalised.append(child["setup_s"] * scale)
        raw.append(child["setup_s"])
        scales.append(scale)
    return statistics.median(normalised), statistics.median(raw), statistics.median(scales)


def tail(values: list) -> tuple:
    """Highest-percentile value with TAIL_BEYOND values above it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def end_to_end(cold: Round, rounds: list, setup: tuple) -> dict:
    """Metric -> (value, unit, raw value or None, scale or None)."""
    every = [cold] + rounds
    scaled = [r.wall_s * r.scale for r in rounds]
    p50_scale = statistics.median(r.scale for r in rounds)
    tail_s, _ = tail(scaled)
    attempted = sum(r.passed + r.failed for r in every)
    return {
        "round_s.p50": (statistics.median(scaled), "s",
                        statistics.median(r.wall_s for r in rounds), p50_scale),
        "round_s.tail": (tail_s, "s", tail([r.wall_s for r in rounds])[0], p50_scale),
        "certs_per_s": (statistics.median(r.passed / s for r, s in zip(rounds, scaled)), "1/s",
                        statistics.median(r.passed / r.wall_s for r in rounds), p50_scale),
        "cpu_s_per_round": (statistics.median(r.cpu_s * r.scale for r in rounds), "s",
                            statistics.median(r.cpu_s for r in rounds), p50_scale),
        "setup_s": (setup[0], "s", setup[1], setup[2]),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        None, None),
        "pass_frac": (sum(r.passed for r in every) / attempted, "frac", None, None),
    }


def per_layer(cold: Round, untraced: list, traced: list, layer_rounds: list, tracer) -> dict:
    """Metric -> (value, unit, None, None); per-round medians in reference units."""
    untraced_p50 = statistics.median(r.wall_s * r.scale for r in untraced)
    traced_p50 = statistics.median(r.wall_s * r.scale for r in traced)
    metrics = {}
    for name, (unit, _) in layer_rounds[0].items():
        if tracer.unavailable(name):
            metrics[name] = (None, unit, None, None)
            continue
        values = []
        for r, layer in zip(traced, layer_rounds):
            value = layer[name][1]
            values.append(value * r.scale if unit == "s" else
                          value / r.scale if unit == "1/s" else value)
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = (median(values), unit, None, None)
    metrics["cli.cold_round_excess_s"] = (cold.wall_s * cold.scale - untraced_p50, "s",
                                          cold.wall_s - statistics.median(r.wall_s for r in untraced),
                                          cold.scale)
    metrics["trace.overhead_frac"] = (traced_p50 / untraced_p50 - 1.0, "frac", None, None)
    return metrics


def report_line(name: str, value, unit: str, raw, scale) -> str:
    shown = "null" if value is None else f"{value:.6g}"
    line = f"  {name:38s} {shown:>12s} {unit}"
    if raw is not None:
        line += f"   (raw {raw:.6g} {unit}, scale {scale:.4f})"
    return line


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is loaded, here or in a setup child
        os.environ[var] = "1"
    try:
        cli = workloads.load_cli(ROOT)
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    configs = workloads.build_configs(cli.ExperimentConfig, args.workload, args.seed)
    references = None
    if args.seed == workloads.DEFAULT_SEED:
        references = oracle.load_references(args.workload)
        print(f"oracle: seed {args.seed}: comparing every report with the stored references")
    else:
        print(f"oracle: seed {args.seed} has no stored references; "
              "checking pass and determinism only")
    checker = oracle.RoundChecker([workloads.label(c) for c in configs], references)

    env = environment()
    print("environment:", json.dumps(env, sort_keys=True))

    kernel = reference.Reference()
    cold = run_round(cli, configs, checker, kernel)
    if args.trace == 0:
        setup = measure_setup(args.workload, args.seed)
        rounds, _ = run_for(cli, configs, checker, kernel, args.seconds)
        metrics = end_to_end(cold, rounds, setup)
        every = [cold] + rounds
        _, pct = tail([r.wall_s * r.scale for r in rounds])
        print(f"rounds: {len(rounds)} measured after 1 warm-up; round_s.tail is p{pct:.1f}"
              + (f" ({TAIL_BEYOND} rounds beyond it)" if pct < 100 else " (the maximum)"))
    else:
        untraced, _ = run_for(cli, configs, checker, kernel, args.seconds * UNTRACED_SHARE)
        import layertrace

        tracer = layertrace.Tracer(cli)
        tracer.install()
        try:
            traced, layer_rounds = run_for(cli, configs, checker, kernel,
                                           args.seconds * (1 - UNTRACED_SHARE), tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(cold, untraced, traced, layer_rounds, tracer)
        every = [cold] + untraced + traced
        print(f"rounds: {len(untraced)} untraced and {len(traced)} traced after 1 warm-up")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_path = os.path.join(HERE, "out", f"trace-{args.workload}.json")
        tracer.write(spans_path)
        print(f"trace: {tracer.span_count()} spans over {len(traced)} rounds "
              f"written to {os.path.relpath(spans_path, ROOT)}")
        if tracer.missing:
            print("trace: not found in the program:", ", ".join(sorted(tracer.missing)))

    ref_s = statistics.median(r.reference_s for r in every)
    print(f"reference: nominal {reference.NOMINAL_S} s, measured median {ref_s:.6g} s, "
          f"scale {reference.NOMINAL_S / ref_s:.4f}")
    for message in checker.messages:
        print("oracle: FAILED", message)
    print(f"metrics ({'per layer, per round' if args.trace else 'end to end'}; "
          "times in reference seconds):")
    for name, row in metrics.items():
        print(report_line(name, *row))

    attempted = sum(r.passed + r.failed for r in every)
    failed = sum(r.failed for r in every)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
