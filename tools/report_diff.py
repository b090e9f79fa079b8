"""Compare the reports of this checkout with those of another checkout.

    python3 tools/report_diff.py BASE_CHECKOUT --seeds 0-9

Renders all ten experiments at samples 100, for this checkout and for
BASE_CHECKOUT, at every seed of the inclusive range and at dims (2,2), (3,3),
(4,4), (2,3) and (3,2) wherever the experiment honours them: ``table1`` and
``broadcast`` run on qubits whatever the dims, so they run at (2,2) only, and
``pechukas`` reads only d_e and ``compat-domain`` only d_s, so they run at
(2,2), (3,3) and (4,4) only (their (2,3) and (3,2) reports would repeat those
apart from the echoed config); ``compat-domain`` also runs at (5,5), its
only 5 x 5 flag blocks. After those, ``compat-domain`` runs once more at
(2,2) with tol 1e-8 (``TOL_CONFIGS``), every seed in turn: at the default
tol every bisection step toward axis state 5 leaves the domain, at 1e-8 its
boundary lands inside (0, 1), so both branches of a step are rendered.
Each checkout renders in its own interpreter with one BLAS thread, and
``runtime_ms`` is stripped. Prints the number of byte-different reports,
every report that fails ``perfbench/oracle.compare`` (pass, witnesses and
integers exact, floats within 1e-12), and, for each (experiment, field) that
differs anywhere, how many reports it differs in and its largest absolute
change; exits 1 if any report fails the oracle or the two checkouts do not
run the same configs.

    python3 tools/report_diff.py --render CHECKOUT --seeds 0-9

prints the stripped reports of one checkout as a JSON list of [label, report
body] pairs instead, one label or body a line; ``tests/golden/reports.json``
is that list at seeds 0-2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SAMPLES = 100
DIMS = ((2, 2), (3, 3), (4, 4), (2, 3), (3, 2))
# the dims an experiment renders at when it reads fewer than it is given
FEWER_DIMS = {"table1": DIMS[:1], "broadcast": DIMS[:1],
              "pechukas": DIMS[:3], "compat-domain": DIMS[:3] + ((5, 5),)}
# (experiment, dims, tol as labelled) rendered after the default-tol configs
TOL_CONFIGS = (("compat-domain", (2, 2), "1e-8"),)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def seed_range(text: str) -> range:
    first, sep, last = text.partition("-")
    try:
        seeds = range(int(first), int(last if sep else first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected FIRST-LAST, got {text!r}") from None
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"expected 0 <= FIRST <= LAST, got {text!r}")
    return seeds


def render(checkout: str, seeds: range) -> list:
    """[label, report without runtime_ms] for every config, in a fixed order."""
    cli = workloads.load_cli(checkout)
    configs = [(f"{experiment}@({dim_s},{dim_e}) seed {seed}",
                dict(experiment=experiment, seed=seed, dim_s=dim_s, dim_e=dim_e))
               for experiment in cli.EXPERIMENTS for seed in seeds
               for dim_s, dim_e in FEWER_DIMS.get(experiment, DIMS)]
    configs += [(f"{experiment}@({dim_s},{dim_e}) tol={tol} seed {seed}",
                 dict(experiment=experiment, seed=seed, dim_s=dim_s, dim_e=dim_e, tol=float(tol)))
                for experiment, (dim_s, dim_e), tol in TOL_CONFIGS for seed in seeds]
    return [[label, oracle.without_runtime(cli.render_report(
        cli.run(cli.ExperimentConfig(samples=SAMPLES, **fields))))] for label, fields in configs]


def render_elsewhere(checkout: str, seeds: range) -> list:
    """``render`` in a fresh interpreter with one BLAS thread."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--render", checkout,
         "--seeds", f"{seeds.start}-{seeds.stop - 1}"],
        env=env, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"rendering {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _gap(new, old):
    """Largest absolute change between two numbers or two equal-length lists
    of numbers; None for anything else."""
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        gaps = [_gap(a, b) for a, b in zip(new, old)]
        return None if None in gaps else max(gaps, default=0.0)
    numbers = (int, float)
    if isinstance(new, numbers) and isinstance(old, numbers) \
            and not isinstance(new, bool) and not isinstance(old, bool):
        return abs(new - old)
    return None


def changed_fields(new: dict, old: dict) -> dict:
    """{field: _gap} of every field in which report ``new`` differs from ``old``:
    ``pass``, ``config``, ``metrics.<name>`` and ``witnesses.<key>``."""
    fields = {key: None for key in ("config", "pass") if new.get(key) != old.get(key)}
    metrics_new = {m["name"]: m["value"] for m in new.get("metrics", [])}
    metrics_old = {m["name"]: m["value"] for m in old.get("metrics", [])}
    if list(metrics_new) != list(metrics_old):
        fields["metrics"] = None
    for name in metrics_new.keys() & metrics_old.keys():
        if metrics_new[name] != metrics_old[name]:
            fields[f"metrics.{name}"] = _gap(metrics_new[name], metrics_old[name])
    witnesses_new, witnesses_old = new.get("witnesses", []), old.get("witnesses", [])
    if len(witnesses_new) != len(witnesses_old):
        fields["witnesses"] = None
    for w_new, w_old in zip(witnesses_new, witnesses_old):
        for key in w_new.keys() | w_old.keys():
            if w_new.get(key) != w_old.get(key):
                gap = _gap(w_new.get(key), w_old.get(key))
                previous = fields.get(f"witnesses.{key}", 0.0)
                fields[f"witnesses.{key}"] = None if None in (gap, previous) else max(gap, previous)
    return fields


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", metavar="BASE_CHECKOUT")
    parser.add_argument("--render", metavar="CHECKOUT")
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="FIRST-LAST")
    args = parser.parse_args(argv)
    if (args.base is None) == (args.render is None):
        parser.error("give either BASE_CHECKOUT or --render CHECKOUT")
    if args.render is not None:
        json.dump(render(args.render, args.seeds), sys.stdout, indent=0)
        return 0

    base = render_elsewhere(args.base, args.seeds)
    head = render_elsewhere(ROOT, args.seeds)
    if [label for label, _ in base] != [label for label, _ in head]:
        print("the two checkouts do not run the same configs")
        return 1
    different = failing = 0
    changes = {}  # (experiment, field) -> [reports, largest change or None]
    for (label, old), (_, new) in zip(base, head):
        if old == new:
            continue
        different += 1
        new_report, old_report = json.loads(new + "\n}"), json.loads(old + "\n}")
        problems = oracle.compare(new_report, old_report)
        for problem in problems:
            print(f"{label}: {problem}")
        failing += bool(problems)
        for field, gap in changed_fields(new_report, old_report).items():
            seen = changes.setdefault((label.partition("@")[0], field), [0, 0.0])
            seen[0] += 1
            seen[1] = None if None in (gap, seen[1]) else max(seen[1], gap)
    for (experiment, field), (count, gap) in sorted(changes.items()):
        largest = "not numeric" if gap is None else f"largest change {gap:.3g}"
        print(f"{experiment} {field}: {count} reports differ, {largest}")
    print(f"{len(head)} reports: {different} byte-different, {failing} failing the oracle")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
