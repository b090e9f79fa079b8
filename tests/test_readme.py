"""The README's command-line facts against the program: the experiments
table, the flag table and its defaults, the guard table's limits, the entry
points it names and every ``assignlab`` example it shows."""

import ast
import dataclasses
import pathlib
import re
import shlex

import pytest

import assignlab.assignments
import assignlab.cli as cli
import assignlab.compatibility
import assignlab.dynamics
import assignlab.operators
from assignlab.cli import EXPERIMENTS, ExperimentConfig, UsageError

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY = (assignlab.operators, assignlab.assignments, assignlab.compatibility, assignlab.dynamics)
DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def table(first_header: str, last_header: str) -> list[list[str]]:
    """The body rows of the README table whose header row starts with
    ``first_header`` and ends with ``last_header``, as lists of cells."""
    lines = README.splitlines()
    for i, line in enumerate(lines):
        header = cells(line)
        if header[0] == first_header and header[-1] == last_header:
            rows = []
            for row in lines[i + 2:]:
                if not row.startswith("|"):
                    break
                rows.append(cells(row))
            return rows
    raise AssertionError(f"no table with header {first_header!r} ... {last_header!r}")


def names(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def examples() -> list[list[str]]:
    """The argument lists of the ``assignlab`` lines in fenced code blocks."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, flags=re.M | re.S)
    return [shlex.split(line, comments=True)[1:]
            for block in blocks for line in block.splitlines() if line.startswith("assignlab ")]


EXPERIMENTS_TABLE = table("experiment", "main library entry points")
FLAGS_TABLE = table("flag", "meaning")
GUARD_TABLE = table("experiment", "largest accepted dims")


def test_experiments_table_lists_the_experiments_in_order():
    assert [names(row[0])[0] for row in EXPERIMENTS_TABLE] == list(EXPERIMENTS)


@pytest.mark.parametrize("name", [name for row in EXPERIMENTS_TABLE for name in names(row[-1])])
def test_entry_point_is_exported_where_it_is_defined(name):
    homes = [module for module in LIBRARY
             if getattr(getattr(module, name, None), "__module__", None) == module.__name__]
    assert len(homes) == 1, f"{name} is defined in {len(homes)} library modules"
    assert name in homes[0].__all__


def test_flag_table_lists_the_parser_options_in_order():
    options = [option for action in cli._build_parser()._actions
               for option in action.option_strings if option not in ("-h", "--help")]
    assert [names(row[0])[0] for row in FLAGS_TABLE] == options


def test_flag_defaults_are_the_config_defaults():
    dests = {option: action.dest for action in cli._build_parser()._actions
             for option in action.option_strings}
    stated = {}
    for row in FLAGS_TABLE:
        default = DEFAULTS.get(dests[names(row[0])[0]])
        if default is dataclasses.MISSING or default is None:
            assert row[1] == "none", row
        else:
            value = ast.literal_eval(row[1])
            assert type(value) is type(default) and value == default, row
            stated[names(row[0])[0]] = value
    assert stated == {"--seed": 0, "--samples": 500, "--dim-s": 2, "--dim-e": 2, "--tol": 1e-10}


def test_examples_parse_and_resolve(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    argvs = examples()
    assert argvs
    for argv in argvs:
        try:
            args = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: assignlab {shlex.join(argv)}")
        if args.config is None:
            assert isinstance(cli._resolve_config(args), ExperimentConfig)


def test_guard_table_covers_every_experiment():
    listed = [name for row in GUARD_TABLE for name in names(row[0])]
    assert sorted(listed) == sorted(EXPERIMENTS)


def limit_cases(cell: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(accepted dims, refused dims) for each clause of a limits cell: the
    dims at a limit and one step past it; dims not named are the defaults."""
    default = DEFAULTS["dim_s"]
    assert default == DEFAULTS["dim_e"]
    cases = []
    for clause in cell.split("; "):
        if m := re.fullmatch(r"\((\d+), (\d+)\)", clause):
            s, e = int(m[1]), int(m[2])
            cases.append(((s, e), (s + 1, e + 1)))
        elif m := re.fullmatch(r"d_s ≤ (\d+)", clause):
            cases.append(((int(m[1]), default), (int(m[1]) + 1, default)))
        elif m := re.fullmatch(r"d_e ≤ (\d+)(?: at d_s = (\d+))?", clause):
            s = int(m[2] or default)
            cases.append(((s, int(m[1])), (s, int(m[1]) + 1)))
        else:
            raise AssertionError(f"unreadable limit {clause!r}")
    return cases


@pytest.mark.parametrize("row", GUARD_TABLE, ids=lambda row: ",".join(names(row[0])))
def test_guard_limits(row):
    for experiment in names(row[0]):
        if row[-1] == "any":
            ExperimentConfig(experiment, dim_s=1000, dim_e=1000)
            continue
        for (s, e), (past_s, past_e) in limit_cases(row[-1]):
            ExperimentConfig(experiment, dim_s=s, dim_e=e)
            with pytest.raises(UsageError, match="^dimensions too large"):
                ExperimentConfig(experiment, dim_s=past_s, dim_e=past_e)
