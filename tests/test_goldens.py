"""Committed goldens: the stripped reports of ``tools/report_diff.py``'s
configs at seeds 0-2, compared through the benchmark oracle's rule, both as
the tool's docstring states them. Re-render them with

    OPENBLAS_NUM_THREADS=1 python3 tools/report_diff.py --render . --seeds 0-2 \\
        > tests/golden/reports.json

only under the re-pin rule in CHANGES.md."""

import copy
import importlib.util
import json
import pathlib

import pytest

from assignlab.cli import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "reports.json"
SEEDS = range(0, 3)

# report_diff puts perfbench/ on sys.path and imports the oracle from there
_spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)
compare = report_diff.oracle.compare


def _parse(pairs) -> dict:
    return {label: json.loads(body + "\n}") for label, body in pairs}


@pytest.fixture(scope="module")
def goldens() -> dict:
    return _parse(json.loads(GOLDEN.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def rendered() -> dict:
    return _parse(report_diff.render(str(ROOT), SEEDS))


def test_same_configs(goldens, rendered):
    assert list(rendered) == list(goldens)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_reports_match_goldens(experiment, goldens, rendered):
    labels = [label for label in goldens if label.startswith(experiment + "@")]
    assert labels
    problems = [f"{label}: {problem}" for label in labels
                for problem in compare(rendered[label], goldens[label])]
    assert not problems, "\n".join(problems)


def test_a_changed_witness_index_fails_the_comparator(goldens):
    golden = goldens["dynamics-cp@(4,4) seed 0"]
    assert golden["witnesses"] and compare(golden, golden) == []
    changed = copy.deepcopy(golden)
    changed["witnesses"][0]["index"] += 1
    problems = compare(changed, golden)
    assert len(problems) == 1 and problems[0].startswith("witnesses:")
