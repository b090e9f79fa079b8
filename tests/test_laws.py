"""Laws of the samplers, not their bits: seeded moments of many draws
against their closed forms, each within five standard errors.

A reference copy of a sampler catches a change to its algorithm but not a
wrong algorithm copied into the reference; a moment checks the law itself.
"""

import numpy as np
import pytest

import assignlab.cli as cli
from assignlab.assignments import zero_discord_assignment, zero_discord_size
from assignlab.cli import ExperimentConfig, _theorem2_samples
from assignlab.operators import haar_unitaries, random_density, random_pure, weighted_sum

DRAWS = 20000
# zero-discord assignments: their projector sets check their orthogonality
# when built, which costs most of the draw
MEASUREMENTS = 10000
# theorem2 samples: each also runs the consistency checks the weights feed
WEIGHT_SAMPLES = 4000
Z_BOUND = 5.0


def z_score(values: np.ndarray, expected: float) -> float:
    """(sample mean - expected) over the sample mean's standard error."""
    return float((values.mean() - expected) / (values.std(ddof=1) / np.sqrt(len(values))))


class TestHaarUnitaries:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_mean_squared_trace_is_one(self, dim):
        # E|Tr U|^2 = 1 on U(D) (Diaconis and Shahshahani, J. Appl. Probab.
        # 31A, 49 (1994)); these draws give z = -0.42 at D = 2 and -0.29 at
        # D = 4. Q without Mezzadri's phase fix draws 1.35 and 1.86 (z =
        # +46.6 and +90.5), and Q times R's diagonal, not its phases, 1.49
        # and 2.50 (z = +40.1 and +79.3)
        normals = np.random.default_rng(dim).standard_normal((DRAWS, 2, dim, dim))
        u = haar_unitaries(normals)
        squared = np.abs(np.trace(u, axis1=-2, axis2=-1)) ** 2
        assert abs(z_score(squared, 1.0)) <= Z_BOUND


class TestHilbertSchmidtStates:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mean_purity(self, d):
        # E Tr rho^2 = 2d / (d^2 + 1) under the Hilbert-Schmidt measure
        # (Zyczkowski and Sommers, J. Phys. A 34, 7111 (2001)): the square
        # Ginibre G G^dag / Tr, which random_density draws; these draws give
        # z = +0.94, -0.92 and +0.12 at d = 2, 3, 4, and real Ginibre
        # matrices z = +29, +39 and +43
        rho = random_density(d, np.random.default_rng(d), DRAWS)
        purity = np.einsum("nij,nji->n", rho, rho).real
        assert abs(z_score(purity, 2 * d / (d * d + 1))) <= Z_BOUND


def fourth_moment(d: int) -> float:
    """E|psi_0|^4 = 2 / (d (d + 1)) for a uniformly random unit vector of C^d."""
    return 2 / (d * (d + 1))


class TestUniformVectors:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pure_state_fourth_moment(self, d):
        # |psi_0|^2 is the projector's first diagonal entry; these draws give
        # z = +2.09, +0.33 and -2.42 at d = 2, 3, 4, and a real Gaussian
        # vector, whose moment is 3 / (d (d + 2)), z = +18, +18 and +17
        pure = random_pure(d, np.random.default_rng(d), DRAWS)
        assert abs(z_score(pure[:, 0, 0].real ** 2, fourth_moment(d))) <= Z_BOUND

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_measurement_vectors_fourth_moment(self, d):
        # each projector of the Haar measurement is |v><v| for a column v of
        # a Haar unitary, so its first diagonal entry is |v_0|^2; one
        # projector an assignment keeps the draws independent (z = +1.16,
        # -1.78 and +0.30 at d = 2, 3, 4)
        normals = np.random.default_rng(d).standard_normal((MEASUREMENTS, zero_discord_size(d, 1)))
        projectors = zero_discord_assignment(normals, d, 1).basis.projectors
        assert abs(z_score(projectors[:, 0, 0, 0].real ** 2, fourth_moment(d))) <= Z_BOUND


class TestFlatDirichletWeights:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_first_weight_mean_and_variance(self, d, monkeypatch):
        # theorem2's diagonal states weigh the measurement's projectors by a
        # flat Dirichlet sample, read where the runner hands it to
        # weighted_sum; a weight has mean 1/d and variance
        # (d - 1) / (d^2 (d + 1)). The first weight only: the weights of a
        # sample sum to one, so their mean is 1/d whatever the law. These
        # draws give mean z = +1.22, +2.15 and -0.99 at d = 2, 3, 4, and
        # variance z = -0.62, +0.11 and -1.85; weights divided by the first
        # one, not by their sum, have a first weight of 1 and no spread
        seen = []

        def spy(weights, terms):
            seen.append(np.array(weights))
            return weighted_sum(weights, terms)

        monkeypatch.setattr(cli, "weighted_sum", spy)
        config = ExperimentConfig(experiment="theorem2", seed=d, samples=WEIGHT_SAMPLES,
                                  dim_s=d, dim_e=2)
        _theorem2_samples(config, np.random.default_rng(d))
        first = np.concatenate(seen)[:, 0]
        assert len(first) == WEIGHT_SAMPLES
        assert abs(z_score(first, 1 / d)) <= Z_BOUND
        assert abs(z_score((first - 1 / d) ** 2, (d - 1) / (d * d * (d + 1)))) <= Z_BOUND
