"""Correctness oracle for benchmark rounds.

Reference reports for every workload config at the default seed are stored
under ``oracle/``.  A report matches its reference when ``experiment``,
``config``, ``pass`` and ``witnesses`` are equal, integer metrics are equal
and float metrics agree within ``FLOAT_TOL`` absolute.  Independently of the
references, every repeat of a config must render byte-identically to its
first run, ``runtime_ms`` aside: the program's determinism contract.

Run ``python3 perfbench/oracle.py`` to rewrite the references from the
program in this checkout; only do so on the code the references pin.
"""

from __future__ import annotations

import json
import os

import workloads

FLOAT_TOL = 1e-12
ORACLE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle")


def without_runtime(rendered: str) -> str:
    """The rendered report minus its trailing ``runtime_ms`` entry."""
    head, sep, _ = rendered.rpartition(',\n  "runtime_ms": ')
    if not sep:
        raise ValueError("report has no runtime_ms entry")
    return head


def _parse(body: str) -> dict:
    """The report fields of a body returned by ``without_runtime``."""
    return json.loads(body + "\n}")


def _reference_path(workload: str) -> str:
    return os.path.join(ORACLE_DIR, f"{workload}.json")


def load_references(workload: str) -> list:
    with open(_reference_path(workload), encoding="utf-8") as fh:
        stored = json.load(fh)
    if stored["seed"] != workloads.DEFAULT_SEED:
        raise ValueError(f"oracle for {workload} was made at seed {stored['seed']}")
    return stored["reports"]


def _same_metric(got, ref) -> bool:
    """Integers exactly, floats within FLOAT_TOL.

    Reports print an integral float without a decimal point, so a number
    that parses as a float on either side is compared as a float.
    """
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, ref))
    if numbers and (isinstance(got, float) or isinstance(ref, float)):
        return abs(got - ref) <= FLOAT_TOL
    return got == ref


def compare(report: dict, reference: dict) -> list:
    """Mismatching fields of ``report`` against ``reference``, one message each."""
    problems = []
    for key in ("experiment", "config", "pass", "witnesses"):
        if report.get(key) != reference.get(key):
            problems.append(f"{key}: got {report.get(key)!r}, reference {reference.get(key)!r}")
    got = [(m["name"], m["value"]) for m in report.get("metrics", [])]
    ref = [(m["name"], m["value"]) for m in reference.get("metrics", [])]
    if [n for n, _ in got] != [n for n, _ in ref]:
        problems.append(f"metrics: names {[n for n, _ in got]} != reference {[n for n, _ in ref]}")
        return problems
    for (name, g), (_, r) in zip(got, ref):
        if not _same_metric(g, r):
            problems.append(f"metrics.{name}: got {g!r}, reference {r!r}")
    return problems


class RoundChecker:
    """Decides, for every run of every config in a round, whether it failed.

    A run fails when it renders differently from the first run of the same
    config, or when that first run did not pass or (at ``DEFAULT_SEED``)
    disagreed with the stored reference.
    """

    def __init__(self, labels: list, references: list | None):
        self.labels = labels
        self.references = references
        self.first: list = [None] * len(labels)
        self.first_bad = [False] * len(labels)
        self.messages: list = []

    def _problem(self, index: int, text: str) -> None:
        message = f"{self.labels[index]}: {text}"
        if message not in self.messages:
            self.messages.append(message)

    def check(self, index: int, rendered: str) -> bool:
        """True when this run of config ``index`` is correct."""
        body = without_runtime(rendered)
        if self.first[index] is None:
            self.first[index] = body
            report = _parse(body)
            problems = [] if report["pass"] else ["pass is false"]
            if self.references is not None:
                problems += compare(report, self.references[index])
            for problem in problems:
                self._problem(index, problem)
            self.first_bad[index] = bool(problems)
        elif body != self.first[index]:
            self._problem(index, "a repeat rendered differently from the first run")
            return False
        return not self.first_bad[index]


def write_references(root: str) -> None:
    cli = workloads.load_cli(root)
    os.makedirs(ORACLE_DIR, exist_ok=True)
    for name in workloads.WORKLOADS:
        configs = workloads.build_configs(cli.ExperimentConfig, name, workloads.DEFAULT_SEED)
        reports = [_parse(without_runtime(cli.render_report(cli.run(c)))) for c in configs]
        with open(_reference_path(name), "w", encoding="utf-8") as fh:
            json.dump({"seed": workloads.DEFAULT_SEED, "reports": reports}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    write_references(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
