"""The config guard counts the term-sized operator stacks each experiment
holds at once, at all the dims it builds, and a traced run stays within that
count: its peak is at most 2.5 counts plus 8 MiB, at samples 1 and, for the
stacked sweep and audits, at samples 20. The factor 2.5 covers an assigned
output stack and its Hermitian part beside the terms (lemma1 at (2, 512)
peaks at 2.1 counts); the 8 MiB covers what does not grow with the dims.
theorem1 at (2, 512), the largest the guard accepts, peaks at 2.1 counts
(133 MiB against 168 MiB); it takes about 12 s, so CI runs it in a step of
its own, not here. The sweep and the appendix hold one chunk of assignments
at a time. The canonical flags are built once per process and kept
(``canonical_flags``), so each traced run starts with none, and its peak
counts building them."""

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
    canonical_flags,
    audit_outputs,
    orthogonal_flag_assignment,
    pechukas_constraints,
    product_assignment,
)
from assignlab.cli import ExperimentConfig, UsageError, main, run
from assignlab.dynamics import classical_cp_sweep, induced_map
from assignlab.operators import canonical_basis, random_density, random_unitary

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
        # the flag check holds the blocks q_i P_i, never a D x D output:
        # (6, 6) at samples 100 traces about 3.8 MiB, where the flags' terms
        # alone would be 25.6 MiB
        config = ExperimentConfig(experiment="compat-domain", samples=100, dim_s=6, dim_e=6)
        assert traced_peak(run, config) < 5 * MIB

    def test_theorem2_builds_no_joint_operators(self):
        # the consistency checks read the marginals from the weights: (21, 21)
        # at samples 100 traces about 2.0 MiB, where one stack of a
        # measurement's d_s joint terms (16 d_s D^2 bytes) would be 62.3 MiB
        config = ExperimentConfig(experiment="theorem2", samples=100, dim_s=21, dim_e=21)
        assert traced_peak(run, config) < 4 * MIB

    def test_theorem2_releases_a_chunk_before_drawing_the_next(self, monkeypatch):
        # at a 256 KiB budget and d_s = 2, d_e = 46 is the smallest d_e at
        # which a theorem2 chunk is one sample (about 135 KiB, over half the
        # budget); samples 1 and 2 both trace 0.392 MiB, where a loop that
        # kept one chunk's arrays while drawing the next traced 0.458 MiB
        # (+17%) at samples 2; the bound leaves a 5% margin
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 256 * 1024)
        peaks = [traced_peak(run, ExperimentConfig(experiment="theorem2", samples=samples,
                                                   dim_s=2, dim_e=46))
                 for samples in (1, 2)]
        assert peaks[1] <= 1.05 * peaks[0]

    def test_full_path_holds_one_chunk_of_unit_images(self):
        # with the flags' terms built first, induced_map at (5, 5) (D = 125)
        # traces 1.22 MiB, about five 250 KB images: one chunk of two
        # images, one product and the unitary's checks, under a fifth of
        # the bound; mapping all 25 unit images at once traced 6.94 MiB
        flags = orthogonal_flag_assignment(canonical_basis(5))
        flags._terms  # built before the trace starts
        u = random_unitary(125, np.random.default_rng(0))
        image_stack = 16 * 5**2 * 125**2
        assert traced_peak(induced_map, flags, u) < image_stack

    def test_flag_full_path_conjugates_in_the_images_buffer(self):
        # at (4, 4) a chunk is eight 64 KiB unit images; each chunk is
        # conjugated in its own buffer and freed before the next is mapped,
        # so the map holds one chunk of images and one product: 1.07 MiB
        # traced, where a new array for the conjugate traced 1.57
        flags = canonical_flags(4)
        flags._terms  # built before the trace starts
        u = random_unitary(64, np.random.default_rng(0))
        assert traced_peak(induced_map, flags, u) <= 2 * operators._CHUNK_BYTES + 0.1 * MIB

    def test_full_path_probe_holds_two_output_stacks(self):
        # a product assignment at (2, 128) has no support factor (R = 512 is
        # over D = 256), so a probe eigensolves its 1 MiB output: the output
        # and its Hermitian part trace 2.1 MiB beside the kept terms; the
        # conjugate transpose in a new array of its own traced 3.1
        rng = np.random.default_rng(0)
        assignment = product_assignment(canonical_basis(2), random_density(128, rng))
        assignment._terms, assignment._support  # built before the trace starts
        state = random_density(2, rng)
        assert traced_peak(assignment.min_output_eigenvalue, state) <= 2.5 * MIB

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
        # couplings holds, so 50 assignments peak near one budget: 1.24
        # budgets at (2, 2) and 1.00 at (3, 3) (0.62 and 0.50 MiB); at a
        # 256 KiB budget, one that also charged d_s terms and d_s^2 unit
        # images, which the sweep never builds, let 2.0 and 1.5 through
        peak = traced_peak(classical_cp_sweep, 50, d, d, np.random.default_rng(0))
        assert peak <= 1.35 * operators._CHUNK_BYTES

    def test_appendix_holds_one_audit_per_chunk(self, monkeypatch):
        # ten audits at (6, 6), one per chunk, peak at 1.6 term stacks (the
        # terms and one corrupted set); all ten at once peak at 12.1
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
        config = ExperimentConfig(experiment="appendix", samples=100, dim_s=6, dim_e=6)
        assert traced_peak(run, config) <= 2.5 * 16 * 36 * 36**2

    def test_pechukas_peaks_at_the_mixture(self):
        # at d_e = 128 forming delta (D = 256, 1 MiB) peaks at 4.0 joint
        # operators; the four relations weigh the d_e x d_e taus and lift
        # no probe (all four probes lifted at once peaked at 10.1)
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
    """Peak bytes traced while ``fn(*args)`` runs, from no canonical flags."""
    canonical_flags.cache_clear()
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
