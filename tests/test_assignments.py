import re

import numpy as np
import pytest

from assignlab.assignments import (
    AUDIT_SAMPLES,
    LinearAssignment,
    OrthogonalProjectorSet,
    audit_corruption,
    audit_outputs,
    broadcast_assignment,
    consistency_defect,
    dephase,
    env_negativity_report,
    equal_env_certificate,
    orthogonal_flag_assignment,
    pechukas_constraints,
    positivity_certificate,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.cli import ENV_EQUALITY_TOL
from assignlab.operators import (
    PAULI_Z,
    PSD_TOL,
    canonical_basis,
    min_eigenvalue,
    partial_trace,
    qubit_states,
    random_density,
    random_unitary,
    tensor,
    trace_norm,
)

I2 = np.eye(2, dtype=complex)
ETA = qubit_states()
BASIS = canonical_basis(2)


def assignment_families(rng):
    """One instance per assignment family, for shared property tests."""
    return [
        product_assignment(BASIS, random_density(2, rng)),
        LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)])),
        LinearAssignment(
            OrthogonalProjectorSet.computational(2),
            np.stack([random_density(2, rng) for _ in range(2)]),
        ),
        broadcast_assignment(BASIS),
        orthogonal_flag_assignment(BASIS),
    ]


class TestLinearAssignment:
    def test_product_case_is_tensor(self):
        rng = np.random.default_rng(0)
        t = random_density(2, rng)
        a = product_assignment(BASIS, t)
        for _ in range(10):
            eta = random_density(2, rng)
            assert np.max(np.abs(a.apply(eta) - tensor(eta, t))) < 1e-12

    def test_basis_element_maps_to_term(self):
        rng = np.random.default_rng(1)
        taus = np.stack([random_density(2, rng) for _ in range(4)])
        a = LinearAssignment(BASIS, taus)
        for j in range(4):
            out = a.apply(BASIS.projectors[j])
            assert np.max(np.abs(out - tensor(BASIS.projectors[j], taus[j]))) < 1e-12

    def test_eta5_three_term_form(self):
        rng = np.random.default_rng(2)
        taus = np.stack([random_density(2, rng) for _ in range(4)])
        a = LinearAssignment(BASIS, taus)
        expected = (
            tensor(BASIS.projectors[0], taus[0])
            + tensor(BASIS.projectors[3], taus[3])
            - tensor(BASIS.projectors[1], taus[1])
        )
        assert np.max(np.abs(a.apply(ETA[4]) - expected)) < 1e-12

    def test_unit_trace_output(self):
        rng = np.random.default_rng(3)
        a = LinearAssignment(BASIS, np.stack([random_density(3, rng) for _ in range(4)]))
        out = a.apply(random_density(2, rng))
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_rejects_traceless_env_op(self):
        with pytest.raises(ValueError):
            LinearAssignment(BASIS, np.stack([PAULI_Z, I2 / 2, I2 / 2, I2 / 2]))

    def test_rejects_non_hermitian_env_op(self):
        bad = np.array([[1, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            LinearAssignment(BASIS, np.stack([bad, I2 / 2, I2 / 2, I2 / 2]))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            LinearAssignment(BASIS, np.stack([I2 / 2, I2 / 2]))

    def test_accepts_negative_but_unit_trace(self):
        # positivity of env ops is deliberately not enforced
        taus = np.stack([np.diag([1.5, -0.5]).astype(complex), I2 / 2, I2 / 2, I2 / 2])
        LinearAssignment(BASIS, taus)


class TestZeroDiscord:
    def test_diagonal_input(self):
        rng = np.random.default_rng(4)
        taus = np.stack([random_density(2, rng) for _ in range(2)])
        z = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
        p = np.diag([0.3, 0.7]).astype(complex)
        pis = z.basis.projectors
        expected = 0.3 * tensor(pis[0], taus[0]) + 0.7 * tensor(pis[1], taus[1])
        assert np.max(np.abs(z.apply(p) - expected)) < 1e-12

    def test_eta1_equal_weights(self):
        rng = np.random.default_rng(5)
        taus = np.stack([random_density(2, rng) for _ in range(2)])
        z = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
        pis = z.basis.projectors
        expected = 0.5 * tensor(pis[0], taus[0]) + 0.5 * tensor(pis[1], taus[1])
        assert np.max(np.abs(z.apply(ETA[0]) - expected)) < 1e-12

    def test_positive_when_env_positive(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            z = random_zero_discord_assignment(2, 3, rng)
            eta = random_density(2, rng)
            assert min_eigenvalue(z.apply(eta)) >= -1e-10

    def test_unit_trace(self):
        rng = np.random.default_rng(7)
        z = random_zero_discord_assignment(3, 2, rng)
        out = z.apply(random_density(3, rng))
        assert abs(np.trace(out).real - 1.0) < 1e-10

    def test_classical_broadcast_marginals(self):
        meas = OrthogonalProjectorSet.computational(2)
        z = broadcast_assignment(meas)
        rng = np.random.default_rng(8)
        eta = random_density(2, rng)
        out = z.apply(eta)
        diag = dephase(eta, meas)
        assert np.max(np.abs(partial_trace(out, 2, 2, "E") - diag)) < 1e-12
        assert np.max(np.abs(partial_trace(out, 2, 2, "S") - diag)) < 1e-12


class TestOrthogonalProjectorSet:
    def test_from_unitary(self):
        rng = np.random.default_rng(9)
        s = OrthogonalProjectorSet.from_unitary(random_unitary(4, rng))
        assert s.dim == 4

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="not mutually orthogonal"):
            OrthogonalProjectorSet(np.stack([ETA[0], ETA[2]]))
        # only the pair (1, 2) overlaps, alone and as the second set of a stack
        plus = np.zeros((3, 3), dtype=complex)
        plus[1:, 1:] = 0.5
        bad = np.stack([np.diag([1.0, 0.0, 0.0]), plus, np.diag([0.0, 1.0, 0.0])]).astype(complex)
        good = OrthogonalProjectorSet.computational(3).projectors
        assert OrthogonalProjectorSet(np.stack([good, good])).dim == 3
        for projectors in (bad, np.stack([good, bad])):
            with pytest.raises(ValueError, match="not mutually orthogonal"):
                OrthogonalProjectorSet(projectors)

    def test_rejects_incomplete(self):
        half = np.zeros((2, 2, 2), dtype=complex)
        half[0, 0, 0] = 1.0
        half[1, 0, 0] = 1.0
        with pytest.raises(ValueError):
            OrthogonalProjectorSet(half)


class TestBroadcast:
    def test_copies_basis_states(self):
        b = broadcast_assignment(BASIS)
        for eta in (ETA[0], ETA[1], ETA[3]):
            assert np.max(np.abs(b.apply(eta) - tensor(eta, eta))) < 1e-12

    def test_eta5_negative(self):
        b = broadcast_assignment(BASIS)
        out = b.apply(ETA[4])
        lam = np.linalg.eigvalsh(out)
        expected = np.sort([1.0, 1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)])
        assert np.max(np.abs(lam - expected)) < 1e-9

    def test_both_marginals(self):
        b = broadcast_assignment(BASIS)
        rng = np.random.default_rng(10)
        for _ in range(20):
            eta = random_density(2, rng)
            out = b.apply(eta)
            assert trace_norm(partial_trace(out, 2, 2, "E") - eta) < 1e-10
            assert trace_norm(partial_trace(out, 2, 2, "S") - eta) < 1e-10


class TestLinearityProperty:
    def test_all_families_linear(self):
        rng = np.random.default_rng(11)
        for assignment in assignment_families(rng):
            for _ in range(20):
                a = rng.uniform(-1.0, 2.0)
                b = 1.0 - a
                r1 = random_density(assignment.dim_s, rng)
                r2 = random_density(assignment.dim_s, rng)
                mixed = assignment.apply(a * r1 + b * r2)
                split = a * assignment.apply(r1) + b * assignment.apply(r2)
                assert trace_norm(mixed - split) < 1e-9

    def test_mixture_well_defined(self):
        # both halves of I/2 give the same output for linear assignments
        rng = np.random.default_rng(12)
        a = LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)]))
        lhs = a.apply(0.5 * ETA[0] + 0.5 * ETA[3])
        rhs = a.apply(0.5 * ETA[1] + 0.5 * ETA[4])
        assert trace_norm(lhs - rhs) < 1e-10
        assert trace_norm(lhs - a.apply(I2 / 2)) < 1e-10


class TestConsistency:
    def test_linear_always_consistent(self):
        rng = np.random.default_rng(13)
        a = LinearAssignment(BASIS, np.stack([random_density(3, rng) for _ in range(4)]))
        for _ in range(20):
            assert consistency_defect(a, random_density(2, rng)) < 1e-10

    def test_zero_discord_diagonal_consistent(self):
        rng = np.random.default_rng(14)
        z = random_zero_discord_assignment(2, 2, rng)
        p = rng.uniform(0, 1)
        diag = p * z.basis.projectors[0] + (1 - p) * z.basis.projectors[1]
        assert consistency_defect(z, diag) < 1e-12

    def test_zero_discord_defect_is_dephasing_distance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            z = random_zero_discord_assignment(2, 3, rng)
            eta = random_density(2, rng)
            defect = consistency_defect(z, eta)
            assert abs(defect - trace_norm(eta - dephase(eta, z.basis))) < 1e-10

    def test_eta1_against_z_basis(self):
        rng = np.random.default_rng(16)
        taus = np.stack([random_density(2, rng) for _ in range(2)])
        z = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
        assert consistency_defect(z, ETA[0]) == pytest.approx(1.0, abs=1e-10)


class TestPositivityCertificate:
    def test_product_passes(self):
        rng = np.random.default_rng(17)
        a = product_assignment(BASIS, random_density(2, rng))
        report = positivity_certificate(a, 200, rng)
        assert report.min_eigenvalue >= -PSD_TOL

    def test_flag_assignment_witness_eta5(self):
        rng = np.random.default_rng(18)
        a = orthogonal_flag_assignment(BASIS)
        report = positivity_certificate(a, 200, rng)
        assert report.min_eigenvalue < -PSD_TOL
        assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-9)
        assert report.witness_label == "axis state 5"

    def test_zero_discord_positive_env(self):
        rng = np.random.default_rng(19)
        z = random_zero_discord_assignment(2, 2, rng)
        assert positivity_certificate(z, 200, rng).min_eigenvalue >= -PSD_TOL

    def test_deterministic_under_seed(self):
        a = orthogonal_flag_assignment(BASIS)
        r1 = positivity_certificate(a, 50, np.random.default_rng(20))
        r2 = positivity_certificate(a, 50, np.random.default_rng(20))
        assert r1.min_eigenvalue == r2.min_eigenvalue
        assert r1.witness_label == r2.witness_label


def negative_env_shows_in_output(report):
    """Every environment operator below -PSD_TOL has an output below it."""
    return np.all(report.output_min_eigs[report.env_min_eigs < -PSD_TOL] < -PSD_TOL)


class TestEnvNegativity:
    def test_positive_env_ops(self):
        rng = np.random.default_rng(21)
        a = LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)]))
        report = env_negativity_report(a)
        assert negative_env_shows_in_output(report)
        assert np.all(report.output_min_eigs >= -1e-10)

    def test_negative_env_op_detected(self):
        taus = np.stack([np.diag([1.5, -0.5]).astype(complex), I2 / 2, I2 / 2, I2 / 2])
        a = LinearAssignment(BASIS, taus)
        report = env_negativity_report(a)
        assert negative_env_shows_in_output(report)
        assert report.output_min_eigs[0] == pytest.approx(-0.5, abs=1e-12)
        # spectrum of P_1 (x) diag(1.5, -0.5) is {1.5, -0.5, 0, 0}
        lam = np.linalg.eigvalsh(a.apply(BASIS.projectors[0]))
        assert np.max(np.abs(lam - np.sort([1.5, -0.5, 0, 0]))) < 1e-12

    def test_converse_fails_for_flags(self):
        # all env ops positive, yet the assignment itself is not positive
        a = orthogonal_flag_assignment(BASIS)
        report = env_negativity_report(a)
        assert np.all(report.env_min_eigs >= 0)
        assert min_eigenvalue(a.apply(ETA[4])) == pytest.approx(-1.0, abs=1e-9)


def equal_and_positive(verdict):
    """Both sides of Theorem 1's biconditional: all environment operators
    equal, and every probe output positive."""
    return (verdict.max_env_distance <= ENV_EQUALITY_TOL,
            verdict.positivity.min_eigenvalue >= -PSD_TOL)


class TestEqualEnvCertificate:
    # each test asserts both sides, and so that they agree
    def test_equal_env_ops_positive(self):
        rng = np.random.default_rng(22)
        a = product_assignment(BASIS, random_density(2, rng))
        verdict = equal_env_certificate(a, 200, rng)
        assert equal_and_positive(verdict) == (True, True)

    def test_unequal_env_ops_break_positivity(self):
        rng = np.random.default_rng(23)
        t = random_density(2, rng)
        taus = np.stack([t, random_density(2, rng), t, t])
        verdict = equal_env_certificate(LinearAssignment(BASIS, taus), 500, rng)
        assert equal_and_positive(verdict) == (False, False)

    def test_d3_product_positive(self):
        rng = np.random.default_rng(24)
        basis3 = canonical_basis(3)
        a = product_assignment(basis3, random_density(3, rng))
        verdict = equal_env_certificate(a, 1000, rng)
        assert equal_and_positive(verdict) == (True, True)


class TestPechukasConstraints:
    def test_all_equal_vanishes(self):
        rng = np.random.default_rng(25)
        t = random_density(2, rng)
        res = pechukas_constraints([t, t, t, t])
        assert res.max_residual == pytest.approx(0.0, abs=1e-12)

    def test_known_residual(self):
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1.0
        res = pechukas_constraints([zero, I2 / 2, I2 / 2, I2 / 2])
        # 2 tau1 - tau2 - tau5 = 2|0><0| - I has eigenvalues +-1
        assert res.expectation_residuals[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_residuals_force_equality(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            taus = [random_density(2, rng) for _ in range(4)]
            res = pechukas_constraints(taus)
            max_dist = max(
                trace_norm(a - b) for i, a in enumerate(taus) for b in taus[i + 1:]
            )
            assert (res.max_residual <= 1e-12) == (max_dist <= 1e-9)

    def test_z_axis_substitution(self):
        rng = np.random.default_rng(27)
        t = random_density(2, rng)
        z_states = (ETA[0], ETA[2], ETA[3], ETA[5])  # replace y pair with z pair
        res = pechukas_constraints([t, t, t, t], states=z_states)
        assert res.max_residual == pytest.approx(0.0, abs=1e-12)
        res_bad = pechukas_constraints(
            [t, random_density(2, rng), t, t], states=z_states
        )
        assert res_bad.max_residual > 1e-6


class TestAudit:
    def test_valid_assignment_clean(self):
        rng = np.random.default_rng(28)
        a = LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)]))
        for _ in range(5):  # 5 * AUDIT_SAMPLES random states
            max_herm, max_trace = audit_outputs(a, random_density(2, rng, AUDIT_SAMPLES))
            assert max_herm <= 1e-10
            assert max_trace <= 1e-10
            corrupted_herm, corrupted_trace = audit_corruption(a)
            assert abs(corrupted_herm - 0.2) <= 1e-10
            assert abs(corrupted_trace - 0.1) <= 1e-10

    def test_corruption_magnitudes(self):
        rng = np.random.default_rng(29)
        a = LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)]))
        corrupted_herm, corrupted_trace = audit_corruption(a)
        assert corrupted_herm == pytest.approx(0.2, abs=1e-10)
        assert corrupted_trace == pytest.approx(0.1, abs=1e-10)

    def test_refuses_a_one_level_environment(self):
        # the trace-free bump needs two environment levels
        with pytest.raises(ValueError, match="dim_e >= 2, got 1"):
            audit_corruption(LinearAssignment(BASIS, np.ones((4, 1, 1))))


# orthogonal within the 1e-10 the check allows, but their sum is off the
# identity by 2 * 9e-11: the two checks' errors add up on one entry
NEAR_ORTHOGONAL = np.array([np.diag([1 - 9e-11, 9e-11]), np.diag([-9e-11, 1 + 9e-11])])


class TestRefusals:
    """Each refusal names what is wrong, word for word."""

    @pytest.mark.parametrize("call,message", [
        (lambda: OrthogonalProjectorSet(np.zeros((3, 2, 2))),
         "need 2 projectors of dimension 2, got shape (3, 2, 2)"),
        (lambda: OrthogonalProjectorSet(NEAR_ORTHOGONAL),
         "projectors do not resolve the identity"),
        (lambda: OrthogonalProjectorSet.computational(2).coefficients(np.eye(3)),
         "state shape (3, 3) does not match dim 2"),
        (lambda: positivity_certificate(product_assignment(BASIS, np.eye(2) / 2), 0,
                                        np.random.default_rng(0)),
         "samples must be at least 1"),
        (lambda: pechukas_constraints([np.eye(2) / 2] * 3),
         "need exactly four environment operators and four states"),
        (lambda: pechukas_constraints([np.eye(2) / 2] * 3 + [np.eye(3) / 3]),
         "environment operators must share one dimension"),
    ], ids=["projector-set-shape", "projectors-not-resolving-identity", "measurement-shape",
            "no-positivity-samples", "three-taus", "mixed-tau-dimensions"])
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
