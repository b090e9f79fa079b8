"""The config guard sizes the operator stacks an experiment really builds."""

import json

import pytest

import assignlab.cli as cli
from assignlab.cli import ExperimentConfig, UsageError, main


def stack_bytes(experiment, dim_s, dim_e):
    config = ExperimentConfig(experiment=experiment, dim_s=dim_s, dim_e=dim_e)
    return cli._largest_stack_bytes(config)


class TestEffectiveDims:
    @pytest.mark.parametrize("experiment", ["table1", "broadcast"])
    def test_qubit_experiments_ignore_requested_dims(self, experiment):
        ExperimentConfig(experiment=experiment, dim_s=13, dim_e=13)
        assert stack_bytes(experiment, 13, 13) == stack_bytes(experiment, 2, 2)

    def test_pechukas_sizes_by_dim_e_only(self):
        ExperimentConfig(experiment="pechukas", dim_s=13, dim_e=2)
        assert stack_bytes("pechukas", 13, 5) == stack_bytes("pechukas", 2, 5)
        with pytest.raises(UsageError, match="too large"):
            ExperimentConfig(experiment="pechukas", dim_s=2, dim_e=600)

    def test_table1_at_requested_13_runs_on_qubits(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["--experiment", "table1", "--dim-s", "13", "--dim-e", "13",
                "--samples", "20", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        config = json.loads(out.read_text())["config"]
        # the echo keeps the requested dims
        assert (config["dim-s"], config["dim-e"]) == (13, 13)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_dynamics_cp_counts_terms_and_unit_images(self, d):
        one_stack = 16 * d**2 * (d * d**2) ** 2
        assert stack_bytes("dynamics-cp", d, 2) == 2 * one_stack
        assert stack_bytes("compat-domain", d, 2) == one_stack
        assert stack_bytes("lemma1", d, 2) == one_stack
