"""The config guard counts the term-sized operator stacks each experiment
holds at once, at all the dims it builds, and a traced run stays within that
count: its peak is at most 2.5 counts plus 8 MiB, at samples 1 and, for the
stacked sweep and audits, at samples 20. The factor 2.5 covers an assigned
output stack and its eigensolve beside the terms (lemma1 at (2, 512) peaks at
2.3 counts); the 8 MiB covers what does not grow with the dims. theorem1 at
(2, 512), which the guard accepts, does not hold to it: it peaks at 2.8
counts (181 MiB against 168 MiB), and no test runs it, as it takes 7 s. The
sweep and the appendix hold one chunk of assignments at a time."""

import importlib.util
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

import assignlab.cli as cli
import assignlab.operators as operators
from assignlab.assignments import (
    AUDIT_SAMPLES,
    LinearAssignment,
    audit_corruption,
    audit_outputs,
    pechukas_constraints,
)
from assignlab.cli import ExperimentConfig, UsageError, main, run
from assignlab.dynamics import classical_cp_sweep
from assignlab.operators import canonical_basis, random_density

ROOT = pathlib.Path(__file__).resolve().parents[1]
MIB = 2**20


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


class TestRequestedDims:
    @pytest.mark.parametrize("experiment,dim_s,dim_e,mib", [
        # the negative-tau assignment at the requested dims
        ("lemma1", 2, 600, 88),
        # two stacks of terms at the sweep's requested dims, which it never builds
        ("dynamics-cp", 2, 600, 176),
        # the audit's terms and one corrupted set
        ("appendix", 12, 12, 91),
        # the d_s terms of a measurement
        ("theorem2", 22, 22, 79),
        ("theorem3", 22, 22, 79),
    ])
    def test_refused(self, experiment, dim_s, dim_e, mib):
        with pytest.raises(UsageError, match=f"too large.*needs a {mib} MiB"):
            ExperimentConfig(experiment=experiment, dim_s=dim_s, dim_e=dim_e)

    @pytest.mark.parametrize("experiment,largest_dim_e", [
        ("lemma1", 512), ("dynamics-cp", 362), ("theorem2", 591), ("theorem3", 591)])
    def test_qubit_bound_in_dim_e(self, experiment, largest_dim_e):
        ExperimentConfig(experiment=experiment, dim_s=2, dim_e=largest_dim_e)
        with pytest.raises(UsageError, match="too large"):
            ExperimentConfig(experiment=experiment, dim_s=2, dim_e=largest_dim_e + 1)

    def test_benchmark_configs_are_accepted(self):
        spec = importlib.util.spec_from_file_location(
            "workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in benchmark["workloads"]:
            assert workloads.build_configs(ExperimentConfig, workload["name"], 0)


class TestMemoryOracle:
    @pytest.mark.parametrize("experiment,dim_s,dim_e", [
        ("lemma1", 2, 200),
        ("dynamics-cp", 2, 150),
        ("appendix", 11, 11),
        # dims the d_s^2 terms of a projector basis would refuse
        ("theorem2", 13, 13),
        ("theorem3", 13, 13),
        # controls: dims that a count of the flags or of one stack covers too
        ("theorem1", 9, 9),
        ("compat-domain", 5, 5),
        ("dynamics-cp", 5, 5),
        ("pechukas", 2, 181),
    ])
    def test_traced_peak_within_count(self, experiment, dim_s, dim_e):
        config = ExperimentConfig(experiment=experiment, samples=1, dim_s=dim_s, dim_e=dim_e)
        assert traced_peak(run, config) <= 2.5 * cli._largest_stack_bytes(config) + 8 * MIB

    @pytest.mark.parametrize("experiment,dim_s,dim_e", [
        ("dynamics-cp", 2, 100),
        ("appendix", 11, 11),
    ])
    def test_two_assignments_within_count(self, experiment, dim_s, dim_e):
        # samples 20: two sweep assignments, two audits; a sweep that held
        # all the couplings of an assignment at once would exceed the count
        config = ExperimentConfig(experiment=experiment, samples=20, dim_s=dim_s, dim_e=dim_e)
        assert traced_peak(run, config) <= 2.5 * cli._largest_stack_bytes(config) + 8 * MIB

    def test_flag_domain_check_builds_no_joint_operators(self):
        # the flag check holds block stacks and the flags' Kronecker factors,
        # never a D x D output: (6, 6) at samples 100 traces about 4 MiB,
        # where the flags' terms alone would be 25.6 MiB
        config = ExperimentConfig(experiment="compat-domain", samples=100, dim_s=6, dim_e=6)
        assert traced_peak(run, config) < 8 * MIB

    def test_sweep_holds_one_assignment_per_chunk(self, monkeypatch):
        # at a one-byte budget a chunk is one assignment and one coupling:
        # eight assignments at (2, 30) peak at 15 joint operators of
        # 16 D^2 bytes; a pass holding all eight at once peaks at 114
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
        joint = 16 * (2 * 30) ** 2
        assert traced_peak(classical_cp_sweep, 8, 2, 30, np.random.default_rng(0)) <= 24 * joint

    @pytest.mark.parametrize("d", [2, 3])
    def test_sweep_budget_counts_the_couplings_arrays(self, d):
        # a chunk of assignments is charged the six D x D arrays each of its
        # couplings holds, so 50 assignments peak near one budget: 0.31 MiB
        # at (2, 2) and 0.28 at (3, 3); a budget that also charged d_s terms
        # and d_s^2 unit images, which the sweep never builds, let 0.51 and
        # 0.37 MiB through
        peak = traced_peak(classical_cp_sweep, 50, d, d, np.random.default_rng(0))
        assert peak <= 1.35 * operators._CHUNK_BYTES

    def test_appendix_holds_one_audit_per_chunk(self, monkeypatch):
        # ten audits at (6, 6), one per chunk, peak at 1.6 term stacks (the
        # terms and one corrupted set); all ten at once peak at 12.1
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
        config = ExperimentConfig(experiment="appendix", samples=100, dim_s=6, dim_e=6)
        assert traced_peak(run, config) <= 2.5 * 16 * 36 * 36**2

    def test_pechukas_lifts_the_probes_within_the_budget(self):
        # at d_e = 128 delta (D = 256, 1 MiB) fills the budget four times,
        # so each probe's product is formed alone: the residuals peak at
        # 4.0 joint operators; all four probes lifted at once peak at 10.1
        taus = random_density(128, np.random.default_rng(0), 4)
        assert traced_peak(pechukas_constraints, list(taus)) <= 5 * 16 * 256**2

    def test_audit_holds_one_corrupted_set_beside_the_terms(self):
        d = 8
        rng = np.random.default_rng(0)
        assignment = LinearAssignment(canonical_basis(d), random_density(d, rng, d * d))
        one_stack = 16 * d**2 * (d * d) ** 2
        states = random_density(d, rng, AUDIT_SAMPLES)

        def audit():
            audit_outputs(assignment, states)
            audit_corruption(assignment)

        # the terms (built by the audit's own apply) and one corrupted set
        # peak at 2.1 stacks; both corrupted sets at once peak at 3.1
        assert traced_peak(audit) <= 2.5 * one_stack


def traced_peak(fn, *args):
    """Peak bytes traced while ``fn(*args)`` runs."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
