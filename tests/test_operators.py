import numpy as np
import pytest

from assignlab.assignments import LinearAssignment, OrthogonalProjectorSet, product_assignment
from assignlab.operators import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ProjectorBasis,
    bloch_coeffs,
    bloch_state,
    canonical_basis,
    decompose,
    hermiticity_defect,
    hs_inner,
    partial_trace,
    qubit_states,
    random_density,
    random_pure,
    random_unitary,
    recompose,
    require_density,
    require_hermitian,
    require_unitary,
    tensor,
    trace_norm,
)

I2 = np.eye(2, dtype=complex)


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestTensor:
    def test_identity(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_projector_product(self):
        eta1 = qubit_states()[0]
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1.0
        out = tensor(eta1, zero)
        assert abs(np.trace(out) - 1.0) < 1e-12
        # rank-1: single unit eigenvalue
        lam = np.linalg.eigvalsh(out)
        assert np.allclose(lam, [0, 0, 0, 1], atol=1e-12)

    def test_sigma_x_squared(self):
        # hand expansion: anti-diagonal of ones
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert np.allclose(tensor(PAULI_X, PAULI_X), expected, atol=0)


class TestPartialTrace:
    def test_product_marginals(self):
        rng = np.random.default_rng(3)
        eta1 = qubit_states()[0]
        tau = random_density(3, rng)
        x = tensor(eta1, tau)
        assert np.allclose(partial_trace(x, 2, 3, "E"), eta1, atol=1e-12)
        assert np.allclose(partial_trace(x, 2, 3, "S"), tau, atol=1e-12)

    def test_bell_marginal(self):
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        bell = np.outer(v, v.conj())
        assert np.allclose(partial_trace(bell, 2, 2, "E"), I2 / 2, atol=1e-12)

    def test_trace_preserving(self):
        rng = np.random.default_rng(4)
        x = random_hermitian(6, rng)
        for out in ("S", "E"):
            assert abs(np.trace(partial_trace(x, 2, 3, out)) - np.trace(x)) < 1e-10

    def test_adjoint_to_tensor(self):
        # <a, Tr_E x> = <a tensor I, x>
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = random_hermitian(2, rng)
            x = random_hermitian(6, rng)
            lhs = hs_inner(a, partial_trace(x, 2, 3, "E"))
            rhs = hs_inner(tensor(a, np.eye(3)), x)
            assert abs(lhs - rhs) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 3, "E")


class TestHsInner:
    def test_pauli_normalization(self):
        assert hs_inner(PAULI_X, PAULI_X) == pytest.approx(2.0)
        assert hs_inner(PAULI_X, PAULI_Y) == pytest.approx(0.0)

    def test_axis_state_overlap(self):
        # (1/4) Tr[(I+sx)(I+sy)] = 1/2
        eta = qubit_states()
        assert hs_inner(eta[0], eta[1]) == pytest.approx(0.5)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
        assert hs_inner(a, a).real > 0


class TestQubitStates:
    def test_axis_forms(self):
        eta = qubit_states()
        assert np.allclose(eta[0], (I2 + PAULI_X) / 2, atol=0)
        assert np.allclose(eta[4], (I2 - PAULI_Y) / 2, atol=0)
        assert np.allclose(eta[2], (I2 + PAULI_Z) / 2, atol=0)

    def test_all_valid_pure_states(self):
        for eta in qubit_states():
            require_density(eta)
            assert np.allclose(eta @ eta, eta, atol=1e-14)

    def test_shared_and_read_only(self):
        eta = qubit_states()
        assert qubit_states() is eta
        for state in eta:
            assert not state.flags.writeable


class TestCanonicalBasis:
    def test_qubit_choice(self):
        eta = qubit_states()
        basis = canonical_basis(2)
        assert basis.size == 4
        for p, expected in zip(basis.projectors, eta[:4]):
            assert np.allclose(p, expected, atol=0)

    def test_rejects_small_dim(self):
        # a refusal is not cached: every call raises again
        for _ in range(2):
            with pytest.raises(ValueError):
                canonical_basis(1)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_shared_and_read_only(self, d):
        basis = canonical_basis(d)
        assert canonical_basis(d) is basis
        for field in (basis.projectors, basis.gram, basis.dual_frame):
            assert not field.flags.writeable

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dual_frame_exactness(self, d):
        basis = canonical_basis(d)
        overlaps = np.einsum("iab,jba->ij", basis.dual_frame, basis.projectors)
        assert np.max(np.abs(overlaps - np.eye(d * d))) < 1e-9

    def test_d3_spans_hermitian_space(self):
        basis = canonical_basis(3)
        rng = np.random.default_rng(8)
        for _ in range(9):
            h = random_hermitian(3, rng)
            q = decompose(h, basis)
            assert np.max(np.abs(recompose(q, basis) - h)) < 1e-9

    def test_rejects_dependent_set(self):
        eta = qubit_states()
        # x+ appears twice: rank-deficient Gram
        with pytest.raises(ValueError):
            ProjectorBasis.from_projectors([eta[0], eta[0], eta[2], eta[3]])


class TestDecompose:
    def test_eta5_coefficients(self):
        basis = canonical_basis(2)
        eta5 = qubit_states()[4]
        assert np.allclose(decompose(eta5, basis), [1, -1, 0, 1], atol=1e-12)

    def test_basis_element(self):
        basis = canonical_basis(2)
        q = decompose(basis.projectors[1], basis)
        assert np.allclose(q, [0, 1, 0, 0], atol=1e-12)

    def test_maximally_mixed(self):
        basis = canonical_basis(2)
        assert np.allclose(decompose(I2 / 2, basis), [0.5, 0, 0, 0.5], atol=1e-12)

    def test_recompose_eta5(self):
        basis = canonical_basis(2)
        eta5 = qubit_states()[4]
        assert np.allclose(recompose(np.array([1, -1, 0, 1.0]), basis), eta5, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip(self, d):
        basis = canonical_basis(d)
        rng = np.random.default_rng(d)
        for _ in range(100):
            h = random_hermitian(d, rng)
            q = decompose(h, basis)
            assert np.max(np.abs(recompose(q, basis) - h)) < 1e-9
            assert np.max(np.abs(decompose(recompose(q, basis), basis) - q)) < 1e-9
            assert abs(q.sum() - np.trace(h).real) < 1e-10

    def test_rejects_non_hermitian(self):
        basis = canonical_basis(2)
        with pytest.raises(ValueError):
            decompose(np.array([[0, 1], [0, 0]], dtype=complex), basis)

    @pytest.mark.parametrize("d", [2, 3])
    def test_rejects_nan(self, d):
        basis = canonical_basis(d)
        env = np.eye(2, dtype=complex) / 2
        measured = LinearAssignment(OrthogonalProjectorSet.computational(d), np.stack([env] * d))
        for bad in (np.nan, np.inf, -np.inf):
            state = np.eye(d, dtype=complex) / (d - 1)
            state[0, 0] = bad
            with pytest.raises(ValueError, match="operator has non-finite entries"):
                decompose(state, basis)
            with pytest.raises(ValueError, match="operator has non-finite entries"):
                product_assignment(basis, env).apply(state)
            with pytest.raises(ValueError, match="state has non-finite entries"):
                measured.apply(state)


class TestBlochCoeffs:
    def test_minus_y(self):
        assert np.allclose(bloch_coeffs([0, -1, 0]), [1, -1, 0, 1], atol=0)

    def test_plus_z(self):
        assert np.allclose(bloch_coeffs([0, 0, 1]), [0, 0, 1, 0], atol=0)

    def test_center(self):
        assert np.allclose(bloch_coeffs([0, 0, 0]), [0.5, 0, 0, 0.5], atol=0)

    def test_agrees_with_decompose(self):
        basis = canonical_basis(2)
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = rng.standard_normal(3)
            a *= rng.uniform() ** (1 / 3) / np.linalg.norm(a)
            assert np.max(np.abs(bloch_coeffs(a) - decompose(bloch_state(a), basis))) < 1e-10

    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            bloch_coeffs([1.0, 1.0, 0.0])


class TestRandomSampling:
    def test_density_valid(self):
        rng = np.random.default_rng(10)
        for d in (2, 3, 4):
            rho = random_density(d, rng)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12

    def test_unitary_valid(self):
        rng = np.random.default_rng(11)
        require_unitary(random_unitary(4, rng))

    def test_pure_valid(self):
        rng = np.random.default_rng(12)
        p = random_pure(3, rng)
        require_density(p)
        assert np.max(np.abs(p @ p - p)) < 1e-12

    def test_density_mean_is_maximally_mixed(self):
        rng = np.random.default_rng(13)
        mean = np.zeros((2, 2), dtype=complex)
        n = 10_000
        for _ in range(n):
            mean += random_density(2, rng)
        mean /= n
        assert np.max(np.abs(mean - I2 / 2)) < 0.02

    def test_deterministic_under_seed(self):
        a = random_density(3, np.random.default_rng(42))
        b = random_density(3, np.random.default_rng(42))
        assert np.array_equal(a, b)
        u = random_unitary(3, np.random.default_rng(42))
        v = random_unitary(3, np.random.default_rng(42))
        assert np.array_equal(u, v)


class TestNormsAndChecks:
    def test_trace_norm_pauli(self):
        assert trace_norm(PAULI_Z) == pytest.approx(2.0)

    def test_hermiticity_defect(self):
        # (m - m^dag)/2 = 0.1i * sigma_z has trace norm 0.2
        m = I2 + 0.1j * PAULI_Z
        assert hermiticity_defect(m) == pytest.approx(0.2)
        assert hermiticity_defect(PAULI_X) == pytest.approx(0.0, abs=1e-15)

    def test_require_hermitian_rejects(self):
        with pytest.raises(ValueError):
            require_hermitian(np.array([[0, 1], [0.5, 0]], dtype=complex))
        with pytest.raises(ValueError):
            require_hermitian(np.array([[np.nan, 0], [0, 0]], dtype=complex))

    def test_require_density_rejects(self):
        with pytest.raises(ValueError):
            require_density(PAULI_Z)  # trace 0
        with pytest.raises(ValueError):
            require_density(np.diag([1.5, -0.5]).astype(complex))

    def test_require_unitary_rejects(self):
        with pytest.raises(ValueError):
            require_unitary(np.diag([1.0, 0.5]).astype(complex))
