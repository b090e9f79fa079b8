"""Per-sample draws, stacked construction, against the loops they replaced.

The theorem-2 runner and the linearity probe of the condition table draw
their random inputs one sample at a time, in stream order, and build the
unitaries and Ginibre states of a chunk as stacks. Each reference below is a
test-local copy of the loop that built every state with its own
``random_density`` call; the stacked paths must give the same metrics bit
for bit and leave the generator in the same state, whatever the chunking.
"""

import numpy as np
import pytest

import assignlab.operators as operators
from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    consistency_defect,
    dephase,
    orthogonal_flag_assignment,
    probe_chunks,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.cli import ExperimentConfig, _run_theorem2
from assignlab.dynamics import _consistency_defect_max, _linearity_defect
from assignlab.operators import (
    canonical_basis,
    chunk_ranges,
    ginibre_densities,
    haar_unitaries,
    qubit_states,
    random_density,
    require_density,
    trace_norm,
    weighted_sum,
)


def old_random_density(d, rng, size=None):
    x = rng.standard_normal(((size,) if size is not None else ()) + (2, d, d))
    g = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    m = g @ g.conj().swapaxes(-1, -2)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return (m + m.conj().swapaxes(-1, -2)) / 2


def old_theorem2(config, rng):
    d_s, d_e = config.dim_s, config.dim_e
    max_formula_gap = 0.0
    max_diagonal_defect = 0.0
    for lo, hi in chunk_ranges(config.samples, 16 * d_s * (d_s * d_e) ** 2):
        normals, envs, etas, weights = [], [], [], []
        for _ in range(hi - lo):
            normals.append(rng.standard_normal((2, d_s, d_s)))
            envs.append(old_random_density(d_e, rng, d_s))
            etas.append(old_random_density(d_s, rng))
            weights.append(rng.dirichlet(np.ones(d_s)))
        z = LinearAssignment(
            OrthogonalProjectorSet.from_unitary(haar_unitaries(np.stack(normals))),
            np.stack(envs))
        eta = np.stack(etas)
        defect = consistency_defect(z, eta)
        gap = np.abs(defect - trace_norm(eta - dephase(eta, z.basis)))
        diagonal = weighted_sum(np.stack(weights), z.basis.projectors)
        max_formula_gap = max(max_formula_gap, float(np.max(gap)))
        max_diagonal_defect = max(max_diagonal_defect,
                                  float(np.max(consistency_defect(z, diagonal))))
    metrics = {"max_formula_gap": max_formula_gap, "max_defect_diagonal": max_diagonal_defect}
    if d_s == 2:
        taus = old_random_density(d_e, rng, 2)
        z_basis = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
        metrics["defect_eta1"] = consistency_defect(z_basis, qubit_states()[0])
    return metrics


def old_linearity_defect(assignment, samples, rng):
    worst = 0.0
    d = assignment.dim_s
    for lo, hi in probe_chunks(assignment, samples):
        a, rho1, rho2 = [], [], []
        for _ in range(hi - lo):
            a.append(rng.uniform(-1.0, 2.0))
            rho1.append(old_random_density(d, rng))
            rho2.append(old_random_density(d, rng))
        a = np.array(a)[:, None, None]
        b = 1.0 - a
        rho1, rho2 = np.stack(rho1), np.stack(rho2)
        mixed = assignment.apply(a * rho1 + b * rho2)
        split = a * assignment.apply(rho1) + b * assignment.apply(rho2)
        worst = max(worst, float(np.max(trace_norm(mixed - split))))
    return worst


def linearity_family(family, d, rng):
    basis = canonical_basis(d)
    if family == "flag":
        return orthogonal_flag_assignment(basis)
    if family == "zero-discord":
        return random_zero_discord_assignment(d, 2, rng)
    return product_assignment(basis, random_density(2, rng))


@pytest.fixture(params=[False, True], ids=["budget-chunks", "one-sample-chunks"])
def chunking(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
    return request.param


class TestGinibreDensities:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_per_sample_random_density(self, d):
        for seed in (0, 5):
            normal_rng, density_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            normals = np.stack([normal_rng.standard_normal((2, d, d)) for _ in range(30)])
            stack = ginibre_densities(normals)
            assert stack.shape == (30, d, d)
            singles = np.stack([random_density(d, density_rng) for _ in range(30)])
            assert np.array_equal(stack, singles)
            # and random_density is the pair of its own normal draw
            old = old_random_density(d, np.random.default_rng(seed), 30)
            assert np.array_equal(random_density(d, np.random.default_rng(seed), 30), old)

    def test_nested_stack(self):
        normals = np.random.default_rng(3).standard_normal((4, 3, 2, 2, 2))
        nested = ginibre_densities(normals)
        assert nested.shape == (4, 3, 2, 2)
        assert np.array_equal(nested.reshape(12, 2, 2),
                              ginibre_densities(normals.reshape(12, 2, 2, 2)))


class TestStackedTheorem2:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_sample_loop(self, d, chunking):
        for seed in (0, 13):
            config = ExperimentConfig(experiment="theorem2", seed=seed, samples=37,
                                      dim_s=d, dim_e=d)
            rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows, _, _ = _run_theorem2(config, rng)
            expected = old_theorem2(config, old_rng)
            assert [row.name for row in rows] == list(expected)
            for row in rows:
                assert np.array_equal(row.value, expected[row.name]), row.name
            assert rng.standard_normal() == old_rng.standard_normal()

    def test_mixed_dims(self, chunking):
        config = ExperimentConfig(experiment="theorem2", seed=4, samples=9, dim_s=3, dim_e=2)
        rng, old_rng = np.random.default_rng(4), np.random.default_rng(4)
        rows, _, _ = _run_theorem2(config, rng)
        assert {row.name: row.value for row in rows} == old_theorem2(config, old_rng)
        assert rng.standard_normal() == old_rng.standard_normal()


class TestStackedLinearityDefect:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("family", ["flag", "zero-discord", "product"])
    def test_matches_per_sample_loop(self, family, d, chunking):
        assignment = linearity_family(family, d, np.random.default_rng(70 + d))
        for seed in (1, 8):
            rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            defect = _linearity_defect(assignment, 23, rng)
            assert np.array_equal(defect, old_linearity_defect(assignment, 23, old_rng))
            assert rng.standard_normal() == old_rng.standard_normal()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", ["flag", "zero-discord", "product"])
    def test_stacked_apply_matches_three_calls(self, family, d):
        rng = np.random.default_rng(80 + d)
        assignment = linearity_family(family, d, rng)
        a = rng.uniform(-1.0, 2.0, (5, 1, 1))
        rho1, rho2 = random_density(d, rng, 5), random_density(d, rng, 5)
        mixed = a * rho1 + (1.0 - a) * rho2
        stacked = assignment.apply(np.stack([mixed, rho1, rho2]))
        for got, state in zip(stacked, (mixed, rho1, rho2)):
            assert np.array_equal(got, assignment.apply(state))


def old_consistency_defect_max(assignment, samples, rng):
    d = assignment.dim_s
    worst = 0.0
    if d == 2:
        worst = float(np.max(consistency_defect(assignment, np.stack(qubit_states()))))
    for lo, hi in probe_chunks(assignment, samples):
        states = random_density(d, rng, hi - lo)
        worst = max(worst, float(np.max(consistency_defect(assignment, states))))
    return worst


class TestConsistencyDefectMax:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", ["flag", "zero-discord", "product"])
    def test_axis_states_in_the_first_chunk_match_their_own_call(self, family, d, chunking):
        assignment = linearity_family(family, d, np.random.default_rng(90 + d))
        for seed in (2, 6):
            rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            defect = _consistency_defect_max(assignment, 23, rng)
            assert defect == old_consistency_defect_max(assignment, 23, old_rng)
            assert rng.standard_normal() == old_rng.standard_normal()


class TestRequireDensityStack:
    def test_valid_stack_passes(self):
        states = random_density(3, np.random.default_rng(2), 5)
        assert require_density(states) is states

    def test_names_matrix_with_negative_eigenvalue(self):
        states = random_density(2, np.random.default_rng(3), 4)
        states[2] = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match=r"^state 2 has negative eigenvalue -5\.000e-01"):
            require_density(states)

    def test_names_matrix_with_wrong_trace(self):
        states = random_density(2, np.random.default_rng(4), 3).reshape(3, 1, 2, 2)
        states[1, 0] *= 2.0
        with pytest.raises(ValueError, match=r"^target 1 0 has trace 2\.0"):
            require_density(states, name="target")

    def test_single_matrix_message_has_no_index(self):
        with pytest.raises(ValueError, match=r"^state has negative eigenvalue"):
            require_density(np.diag([1.5, -0.5]).astype(complex))
