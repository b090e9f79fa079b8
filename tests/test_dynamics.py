import dataclasses
import re

import numpy as np
import pytest

import assignlab.dynamics as dynamics
import assignlab.operators as operators
from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    orthogonal_flag_assignment,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.cli import CP_TOL, EXPECTED_CONDITIONS, condition_cells
from assignlab.dynamics import (
    SWEEP_COUPLINGS,
    assignment_condition_table,
    choi_matrix,
    classical_cp_sweep,
    cp_certificate,
    find_noncp_unitary,
    induced_map,
    replay_unitary,
)
from assignlab.operators import (
    canonical_basis,
    hermiticity_defect,
    partial_trace,
    random_density,
    random_unitary,
)

I2 = np.eye(2, dtype=complex)
BASIS = canonical_basis(2)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def apply_map(m, x):
    """The superoperator matrix ``m`` acting on the operator ``x``."""
    return (m @ x.reshape(-1)).reshape(x.shape)


class TestInducedMap:
    def test_product_with_identity_is_identity(self):
        rng = np.random.default_rng(0)
        a = product_assignment(BASIS, random_density(2, rng))
        m = induced_map(a, np.eye(4))
        assert not m.flags.writeable
        assert np.max(np.abs(m - np.eye(4))) < 1e-12

    def test_product_with_swap_is_constant(self):
        rng = np.random.default_rng(1)
        t = random_density(2, rng)
        a = product_assignment(BASIS, t)
        m = induced_map(a, SWAP)
        for _ in range(10):
            eta = random_density(2, rng)
            assert np.max(np.abs(apply_map(m, eta) - t)) < 1e-12

    def test_composition_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)]))
            u = random_unitary(4, rng)
            m = induced_map(a, u)
            eta = random_density(2, rng)
            direct = partial_trace(u @ a.apply(eta) @ u.conj().T, 2, 2, "E")
            assert np.max(np.abs(apply_map(m, eta) - direct)) < 1e-9

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = random_zero_discord_assignment(2, 3, rng)
            u = random_unitary(6, rng)
            m = induced_map(z, u)
            eta = random_density(2, rng)
            out = apply_map(m, eta)
            assert abs(np.trace(out).real - 1.0) < 1e-9
            assert hermiticity_defect(out) < 1e-9

    def test_linearity_of_superoperator(self):
        rng = np.random.default_rng(4)
        a = product_assignment(BASIS, random_density(2, rng))
        m = induced_map(a, random_unitary(4, rng))
        r1, r2 = random_density(2, rng), random_density(2, rng)
        mixed = apply_map(m, 0.3 * r1 + 0.7 * r2)
        assert np.max(np.abs(mixed - 0.3 * apply_map(m, r1) - 0.7 * apply_map(m, r2))) < 1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        a = product_assignment(BASIS, random_density(2, rng))
        with pytest.raises(ValueError):
            induced_map(a, np.eye(6))


class TestChoi:
    def test_identity_channel(self):
        rng = np.random.default_rng(6)
        a = product_assignment(BASIS, random_density(2, rng))
        choi = choi_matrix(induced_map(a, np.eye(4)))
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1.0
        bell2 = np.outer(v, v.conj())  # 2 * maximally entangled projector
        assert np.max(np.abs(choi.mat - bell2)) < 1e-12
        assert np.allclose(choi.spectrum, [0, 0, 0, 2], atol=1e-12)

    def test_constant_channel(self):
        rng = np.random.default_rng(7)
        a = product_assignment(BASIS, I2 / 2)
        choi = choi_matrix(induced_map(a, SWAP))
        assert np.max(np.abs(choi.mat - np.eye(4) / 2)) < 1e-12
        assert np.allclose(choi.spectrum, [0.5] * 4, atol=1e-12)

    def test_dephasing_channel(self):
        rng = np.random.default_rng(8)
        z = LinearAssignment(
            OrthogonalProjectorSet.computational(2),
            np.stack([random_density(2, rng) for _ in range(2)]),
        )
        choi = choi_matrix(induced_map(z, np.eye(4)))
        assert np.max(np.abs(choi.mat - np.diag([1.0, 0, 0, 1.0]))) < 1e-12
        assert np.allclose(choi.spectrum, [0, 0, 1, 1], atol=1e-12)

    def test_trace_equals_dim(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            z = random_zero_discord_assignment(2, 2, rng)
            choi = choi_matrix(induced_map(z, random_unitary(4, rng)))
            assert abs(np.trace(choi.mat).real - 2.0) < 1e-8

    def test_refuses_a_side_that_is_not_a_square(self):
        for check in (choi_matrix, cp_certificate):
            with pytest.raises(ValueError, match=r"superoperator matrix, got shape \(5, 5\)"):
                check(np.eye(5))


class TestCPCertificate:
    def test_identity_coupling_gives_a_cptp_map(self):
        rng = np.random.default_rng(10)
        a = product_assignment(BASIS, random_density(2, rng))
        report = cp_certificate(induced_map(a, np.eye(4)))
        assert report.lambda_min_choi >= -CP_TOL and report.tp_defect <= CP_TOL

    def test_classical_always_cp(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = random_zero_discord_assignment(2, 2, rng)
            u = random_unitary(4, rng)
            report = cp_certificate(induced_map(z, u))
            assert report.lambda_min_choi >= -CP_TOL and report.tp_defect <= CP_TOL

    def test_flag_assignment_breaks_cp(self):
        a = orthogonal_flag_assignment(BASIS)
        search = find_noncp_unitary(a, attempts=50, seed=7)
        assert search.found
        assert search.first_lambda < -1e-6
        # witness replay reproduces the certificate
        u = replay_unitary(search.seed, search.first_index, 8)
        lam = cp_certificate(induced_map(a, u)).lambda_min_choi
        assert lam == search.first_lambda

    def test_search_deterministic(self):
        a = orthogonal_flag_assignment(BASIS)
        s1 = find_noncp_unitary(a, attempts=20, seed=3)
        s2 = find_noncp_unitary(a, attempts=20, seed=3)
        assert s1 == s2


class TestClassicalSweep:
    def test_small_sweep_stays_cp(self):
        sweep = classical_cp_sweep(n_assignments=20, dim_s=2, dim_e=2,
                                   rng=np.random.default_rng(13))
        assert sweep.maps_checked == 20 * SWEEP_COUPLINGS
        assert sweep.min_lambda >= -CP_TOL


def reference_map(assignment, u):
    """Independent reference: one assign-conjugate-trace per matrix unit."""
    d_s, d_e = assignment.dim_s, assignment.dim_e
    u_dag = u.conj().T

    def act(h):
        return partial_trace(u @ assignment.apply(h) @ u_dag, d_s, d_e, "E")

    mat = np.zeros((d_s * d_s, d_s * d_s), dtype=complex)
    for j in range(d_s):
        for k in range(d_s):
            unit = np.zeros((d_s, d_s), dtype=complex)
            unit[j, k] = 1.0
            herm = (unit + unit.conj().T) / 2
            skew = (unit - unit.conj().T) / 2j
            mat[:, j * d_s + k] = (act(herm) + 1j * act(skew)).reshape(-1)
    return mat


def whole_stack_map(assignment, u):
    """Reference: every unit image from one ``apply``, conjugated and traced
    as one stack."""
    d_s, d_e = assignment.dim_s, assignment.dim_e
    inputs, herm, skew, sign = dynamics._unit_inputs(d_s)
    joint = u @ assignment.apply(inputs) @ u.conj().T
    traced = np.einsum("niaja->nij", joint.reshape(-1, d_s, d_e, d_s, d_e))
    columns = traced[herm] + 1j * (sign[:, None, None] * traced[skew])
    return np.ascontiguousarray(columns.reshape(d_s * d_s, d_s * d_s).T)


def reference_choi_spectrum(mat, d):
    """Independent reference: the Choi matrix as a sum of kron blocks."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[j, k] = 1.0
            c += np.kron(unit, mat[:, j * d + k].reshape(d, d))
    return np.linalg.eigvalsh((c + c.conj().T) / 2)


def bit_identity_families(d, rng):
    basis = canonical_basis(d)
    d_e = 3
    return [
        orthogonal_flag_assignment(basis),
        random_zero_discord_assignment(d, d_e, rng),
        product_assignment(basis, random_density(d_e, rng)),
        LinearAssignment(basis, np.stack([random_density(d_e, rng) for _ in range(d * d)])),
    ]


class TestBitIdentity:
    """The batched unit-image core reproduces the per-unit loop bit for bit."""

    @pytest.mark.parametrize("one_matrix_chunks", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_unit_loop(self, d, one_matrix_chunks, monkeypatch):
        if one_matrix_chunks:
            monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
        rng = np.random.default_rng(100 + d)
        for assignment in bit_identity_families(d, rng):
            for _ in range(3):
                u = random_unitary(assignment.dim_s * assignment.dim_e, rng)
                superop = induced_map(assignment, u)
                ref = reference_map(assignment, u)
                assert np.array_equal(superop, ref)
                ref_spectrum = reference_choi_spectrum(ref, d)
                assert np.array_equal(choi_matrix(superop).spectrum, ref_spectrum)
                assert cp_certificate(superop).lambda_min_choi == ref_spectrum[0]

    @pytest.mark.parametrize("per_chunk", ["one image", "all images"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_chunked_images_match_the_whole_stack(self, d, per_chunk, monkeypatch):
        rng = np.random.default_rng(200 + d)
        for assignment in bit_identity_families(d, rng):
            dim = assignment.dim_s * assignment.dim_e
            images = 1 if per_chunk == "one image" else d * d
            monkeypatch.setattr(operators, "_CHUNK_BYTES", 16 * dim * dim * images)
            u = random_unitary(dim, rng)
            assert induced_map(assignment, u).tobytes() == whole_stack_map(assignment, u).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_unit_inputs_match_the_per_unit_loop(self, d):
        # every bit, signed zeros included: the images are taken of these
        inputs = []
        for j in range(d):
            for k in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[min(j, k), max(j, k)] = 1.0
                if j <= k:
                    inputs.append((unit + unit.conj().T) / 2)
                else:
                    inputs.append((unit - unit.conj().T) / 2j)
        table = dynamics._unit_inputs(d)
        assert table[0].tobytes() == np.stack(inputs).tobytes()
        j, k = np.divmod(np.arange(d * d), d)
        lo, hi = np.minimum(j, k), np.maximum(j, k)
        for got, ref in zip(table[1:], (lo * d + hi, hi * d + lo, np.sign(k - j))):
            assert np.array_equal(got, ref)
        assert dynamics._unit_inputs(d) is table
        assert not any(a.flags.writeable for a in table)

    # (4, 30) is the search dynamics-cp runs in the wide-d4 benchmark workload
    @pytest.mark.parametrize("d,attempts", [(2, 12), (3, 12), (4, 12), (4, 30)])
    def test_replay_equals_search(self, d, attempts):
        flags = orthogonal_flag_assignment(canonical_basis(d))
        search = find_noncp_unitary(flags, attempts=attempts, seed=7)
        assert search.found
        dim = flags.dim_s * flags.dim_e
        # the first witness is a full-path value
        u = replay_unitary(search.seed, search.first_index, dim)
        assert cp_certificate(induced_map(flags, u)).lambda_min_choi == search.first_lambda
        assert reference_choi_spectrum(reference_map(flags, u), d)[0] == search.first_lambda
        # the best is the screen of its coupling alone, close to the full path
        u = replay_unitary(search.seed, search.best_index, dim)
        screened = dynamics._screen_minima(dynamics._factor(flags), flags, u[None])[0]
        assert screened == search.best_lambda
        assert abs(reference_choi_spectrum(reference_map(flags, u), d)[0] - screened) <= 1e-12
        assert np.array_equal(search.first_unitary,
                              replay_unitary(search.seed, search.first_index, dim))

    def test_first_unitary_is_the_confirmed_witness(self):
        # qubit flags mixed half and half with the maximally mixed state: at
        # seed 1 the first witness is draw 6 of a chunk, at seed 0 there is none
        taus = 0.5 * OrthogonalProjectorSet.computational(4).projectors + np.eye(4) / 8
        noisy = LinearAssignment(canonical_basis(2), taus)
        search = find_noncp_unitary(noisy, attempts=12, seed=1)
        assert search.first_index == 6
        assert np.array_equal(search.first_unitary, replay_unitary(1, 6, 8))
        assert not search.first_unitary.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            search.first_unitary[0, 0] = 0.0
        # the coupling takes no part in equality or repr
        assert dataclasses.replace(search, first_unitary=None) == search
        assert "first_unitary" not in repr(search)
        nothing = find_noncp_unitary(noisy, attempts=12, seed=0)
        assert not nothing.found and nothing.first_unitary is None

    def test_sweep_matches_per_unit_loop(self):
        sweep = classical_cp_sweep(n_assignments=3, dim_s=3, dim_e=2,
                                   rng=np.random.default_rng(21))
        rng = np.random.default_rng(21)
        screens = []
        for _ in range(3):
            z = random_zero_discord_assignment(3, 2, rng)
            for _ in range(SWEEP_COUPLINGS):
                u = random_unitary(6, rng)
                screens.append(dynamics._block_minima(z, u[None])[0])
                lam = reference_choi_spectrum(reference_map(z, u), 3)[0]
                assert abs(screens[-1] - lam) <= 1e-12
        assert sweep.min_lambda == min(screens)


class TestConditionRows:
    def test_rows_read_the_expected_pattern(self):
        rows = assignment_condition_table(samples=200, rng=np.random.default_rng(1))
        assert all(condition_cells(row) == EXPECTED_CONDITIONS[row.family] for row in rows)
        by_family = {row.family: row for row in rows}
        assert condition_cells(by_family["none"]) == (True, True, True)
        assert condition_cells(by_family["classical"]) == (True, False, True)
        assert condition_cells(by_family["quantum"]) == (True, True, False)

    def test_recorded_defects(self):
        rows = assignment_condition_table(samples=200, rng=np.random.default_rng(2))
        by_family = {row.family: row for row in rows}
        # classical family: consistency fails by the dephasing distance on some probe
        assert by_family["classical"].max_consistency_defect > 0.1
        # quantum family: positivity witness reaches -1
        assert by_family["quantum"].min_output_eigenvalue == pytest.approx(-1.0, abs=1e-9)

    def test_deterministic(self):
        t1 = assignment_condition_table(samples=200, rng=np.random.default_rng(5))
        t2 = assignment_condition_table(samples=200, rng=np.random.default_rng(5))
        for r1, r2 in zip(t1, t2):
            assert r1.family == r2.family
            assert condition_cells(r1) == condition_cells(r2)
            assert r1.max_linearity_defect == r2.max_linearity_defect

    def test_expected_table_shape(self):
        assert set(EXPECTED_CONDITIONS) == {"none", "classical", "quantum"}


class TestRefusals:
    """Each refusal names what is wrong, word for word."""

    @pytest.mark.parametrize("call,message", [
        (lambda: induced_map(orthogonal_flag_assignment(BASIS), np.stack([np.eye(8)] * 2)),
         "expected one 8-dimensional unitary, got shape (2, 8, 8)"),
    ], ids=["induced-map-of-a-stack"])
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
