import re

import numpy as np
import pytest

import assignlab.compatibility as compatibility
import assignlab.operators as operators
from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    broadcast_assignment,
    orthogonal_flag_assignment,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.compatibility import (
    boundary_along_ray,
    domain_verdict,
    domain_volume,
    simplex_domain_check,
    wilson_interval,
)
from assignlab.operators import (
    canonical_basis,
    min_eigenvalue,
    qubit_states,
    random_density,
    random_unitary,
)

I2 = np.eye(2, dtype=complex)
ETA = qubit_states()
BASIS = canonical_basis(2)
FLAG = orthogonal_flag_assignment(BASIS)


class TestVerdict:
    def test_basis_projector_on_boundary(self):
        v = domain_verdict(FLAG, BASIS.projectors[2])
        assert v.in_domain
        assert v.lambda_min == pytest.approx(0.0, abs=1e-12)

    def test_eta5_out(self):
        v = domain_verdict(FLAG, ETA[4])
        assert not v.in_domain
        assert v.lambda_min == pytest.approx(-1.0, abs=1e-9)

    def test_product_always_in(self):
        rng = np.random.default_rng(0)
        a = product_assignment(BASIS, random_density(2, rng))
        for _ in range(20):
            assert domain_verdict(a, random_density(2, rng)).in_domain

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            eta = random_density(2, rng)
            loose = domain_verdict(FLAG, eta, tol=1e-2)
            tight = domain_verdict(FLAG, eta, tol=1e-10)
            assert loose.in_domain or not tight.in_domain


class TestBoundaryAlongRay:
    def test_whole_segment_compatible(self):
        section = boundary_along_ray(FLAG, I2 / 2, ETA[0])
        assert section.t_star == pytest.approx(1.0, abs=1e-8)
        assert section.iterations == 0

    def test_center_on_boundary(self):
        section = boundary_along_ray(FLAG, I2 / 2, ETA[4])
        assert section.t_star == pytest.approx(0.0, abs=1e-8)
        assert section.bracket_width <= 1e-8

    def test_product_assignment_full_ray(self):
        rng = np.random.default_rng(2)
        a = product_assignment(BASIS, random_density(2, rng))
        section = boundary_along_ray(a, I2 / 2, random_density(2, rng))
        assert section.t_star == 1.0

    def test_bracket_postcondition(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            target = random_density(2, rng)
            section = boundary_along_ray(FLAG, I2 / 2, target)
            inside = (1 - max(section.t_star - section.bracket_width, 0.0)) * I2 / 2 \
                + max(section.t_star - section.bracket_width, 0.0) * target
            assert min_eigenvalue(FLAG.apply(inside)) >= -1e-10
            if section.t_star < 1.0:
                assert min_eigenvalue(FLAG.apply(target)) < -1e-10
                assert section.bracket_width <= 1e-8

    def test_rejects_center_out_of_domain(self):
        with pytest.raises(ValueError):
            boundary_along_ray(FLAG, ETA[4], I2 / 2)

    def test_rejects_a_center_that_is_not_a_state(self):
        with pytest.raises(ValueError, match="center has trace 2.0"):
            boundary_along_ray(FLAG, np.eye(2), ETA[4])
        with pytest.raises(ValueError, match="center has negative eigenvalue"):
            boundary_along_ray(FLAG, np.diag([1.5, -0.5]), ETA[4])

    def test_interval_property_on_random_rays(self):
        # in-domain set along each ray is a prefix interval: no -,+ pattern
        # (dense scan at 1e-3 resolution on 100 random rays; the outputs along
        # a ray are affine in t because the assignment is linear)
        rng = np.random.default_rng(4)
        grid = np.linspace(0.0, 1.0, 1001)
        out_center = FLAG.apply(I2 / 2)
        good = []
        for _ in range(100):
            target = random_density(2, rng)
            out_target = FLAG.apply(target)
            outputs = (
                (1 - grid)[:, None, None] * out_center + grid[:, None, None] * out_target
            )
            good.append(np.linalg.eigvalsh(outputs)[:, 0] >= -1e-10)
        good = np.array(good)
        assert good[:, 0].all() and not good[:, -1].all()  # some rays leave the domain
        # an out-of-domain point followed by an in-domain one breaks the prefix
        assert not np.any(~good[:, :-1] & good[:, 1:]), "in-domain set along a ray is not an interval"


def old_boundary_along_ray(assignment, center, target, tol):
    """(t_star, iterations, bracket_width) as the bisection found them with
    one ``domain_verdict`` per step."""
    def in_domain(t):
        return domain_verdict(assignment, (1.0 - t) * center + t * target, tol).in_domain

    assert domain_verdict(assignment, center, tol).in_domain
    if in_domain(1.0):
        return 1.0, 0, 0.0
    lo, hi = 0.0, 1.0
    iterations = 0
    while (hi - lo > compatibility.BISECTION_BRACKET
           and iterations < compatibility.BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if in_domain(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return lo, iterations, hi - lo


def bisection_rays(rng):
    """(assignment, center, target) on the flag, product and zero-discord
    families, with boundaries at t = 1, at t = 0 and inside (0, 1)."""
    rays = [(FLAG, I2 / 2, ETA[0]), (FLAG, I2 / 2, ETA[4])]
    rays += [(FLAG, I2 / 2, random_density(2, rng)) for _ in range(6)]
    flags3 = orthogonal_flag_assignment(canonical_basis(3))
    rays += [(flags3, np.eye(3) / 3, random_density(3, rng)) for _ in range(3)]
    product = product_assignment(BASIS, random_density(2, rng))
    rays.append((product, I2 / 2, random_density(2, rng)))
    # the zero-discord family with a negative environment operator on
    # branch 0: its domain holds the states with no weight there, such as
    # the projector of branch 1, and the ray from it leaves the domain at
    # once or once the weight outgrows the tolerance
    z = random_zero_discord_assignment(2, 2, rng)
    negative = np.array(z.env_ops)
    negative[0] = np.diag([1.25, -0.25])
    bad = LinearAssignment(z.basis, negative)
    rays += [(z, I2 / 2, random_density(2, rng)),
             (bad, z.basis.projectors[1], random_density(2, rng)),
             (bad, z.basis.projectors[1], z.basis.projectors[0])]
    return rays


class TestSpeculativeBisection:
    """Each stacked verdict decides _SPECULATIVE_STEPS steps, with the same
    section as one verdict per step, bit for bit."""

    @pytest.mark.parametrize("bracket, max_iter", [(compatibility.BISECTION_BRACKET, 60),
                                                   (1e-3, 60), (1e-8, 7)],
                             ids=["default", "wide-bracket", "iteration-cap"])
    def test_matches_one_step_per_verdict(self, bracket, max_iter, monkeypatch):
        monkeypatch.setattr(compatibility, "BISECTION_BRACKET", bracket)
        monkeypatch.setattr(compatibility, "BISECTION_MAX_ITER", max_iter)
        seen = set()
        for tol in (1e-10, 1e-8, 1e-4):
            where = set()
            for assignment, center, target in bisection_rays(np.random.default_rng(12)):
                section = boundary_along_ray(assignment, center, target, tol)
                got = (section.t_star, section.iterations, section.bracket_width)
                want = old_boundary_along_ray(assignment, center, target, tol)
                assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
                where.add("one" if got[0] == 1.0 else "zero" if got[0] == 0.0 else "inside")
            # t = 0 needs a ray that is out by more than tol at the last
            # midpoint: at the default bracket only tol 1e-10 has such rays
            assert {"one", "inside"} <= where
            seen |= where
        assert seen == {"one", "zero", "inside"}

    def test_one_verdict_decides_the_ends_and_each_block_three_steps(self, monkeypatch):
        calls = []

        def counted(assignment, state, tol):
            calls.append(len(state))
            return domain_verdict(assignment, state, tol)

        monkeypatch.setattr(compatibility, "domain_verdict", counted)
        section = boundary_along_ray(FLAG, I2 / 2, ETA[4], 1e-8)
        assert 0.0 < section.t_star < 1e-8 and section.iterations == 27
        assert calls == [2] + [7] * 9
        calls.clear()
        assert boundary_along_ray(FLAG, I2 / 2, ETA[0]).iterations == 0
        assert calls == [2]


class TestDomainVolume:
    def test_product_full_volume(self):
        rng = np.random.default_rng(5)
        a = product_assignment(BASIS, random_density(2, rng))
        est = domain_volume(a, 300, rng)
        assert est.fraction == 1.0
        assert est.ci95[1] == 1.0

    def test_zero_discord_full_volume(self):
        rng = np.random.default_rng(6)
        z = random_zero_discord_assignment(2, 2, rng)
        est = domain_volume(z, 300, rng)
        assert est.fraction == 1.0

    def test_flag_assignment_partial_volume(self):
        rng = np.random.default_rng(7)
        est = domain_volume(FLAG, 1000, rng)
        assert 0.0 < est.fraction < 1.0
        assert est.ci95[0] < est.fraction < est.ci95[1]

    def test_deterministic(self):
        a = domain_volume(FLAG, 200, np.random.default_rng(8))
        b = domain_volume(FLAG, 200, np.random.default_rng(8))
        assert a == b

    def test_rejects_small_sample(self):
        with pytest.raises(ValueError):
            domain_volume(FLAG, 50, np.random.default_rng(9))


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
@pytest.mark.parametrize("check", [
    lambda tol: domain_verdict(FLAG, I2 / 2, tol),
    lambda tol: boundary_along_ray(FLAG, I2 / 2, ETA[4], tol),
    lambda tol: domain_volume(FLAG, 100, np.random.default_rng(0), tol),
    lambda tol: simplex_domain_check(FLAG, 10, np.random.default_rng(0), tol),
], ids=["verdict", "ray", "volume", "simplex"])
def test_tolerance_must_be_finite_and_positive(check, tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        check(tol)


class TestWilson:
    def test_known_value(self):
        # 8/10 successes: classic Wilson interval
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.4901625, abs=1e-6)
        assert high == pytest.approx(0.9433178, abs=1e-6)

    def test_bounds(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0


class TestSimplexDomain:
    def test_spectral_matches_coefficients(self):
        rng = np.random.default_rng(10)
        report = simplex_domain_check(FLAG, 1000, rng)
        assert report.agreements == report.probes
        assert report.max_gap < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_measurement_flags_read_the_weights(self, d):
        rng = np.random.default_rng(d)
        measurement = OrthogonalProjectorSet.from_unitary(random_unitary(d, rng))
        report = simplex_domain_check(broadcast_assignment(measurement), 200, rng)
        assert report.agreements == report.probes
        assert report.max_gap < 1e-9

    def test_named_probes(self):
        q_mixed = BASIS.coefficients(I2 / 2)
        assert q_mixed.min() == pytest.approx(0.0, abs=1e-12)
        assert domain_verdict(FLAG, I2 / 2).in_domain
        q5 = BASIS.coefficients(ETA[4])
        assert q5.min() == pytest.approx(-1.0, abs=1e-12)
        assert not domain_verdict(FLAG, ETA[4]).in_domain

    def test_rejects_non_orthonormal_env(self):
        rng = np.random.default_rng(11)
        a = LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)]))
        with pytest.raises(ValueError):
            simplex_domain_check(a, 10, rng)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_refuses_fewer_than_one_probe(self, samples):
        with pytest.raises(ValueError, match="^samples must be at least 1$"):
            simplex_domain_check(FLAG, samples, np.random.default_rng(0))


def flag_families(d, rng):
    """Canonical flags, flags on a Haar measurement (tau_i = Pi_i), and a
    Haar measurement's flags spanning d of d + 3 environment dimensions."""
    measurement = OrthogonalProjectorSet.from_unitary(random_unitary(d, rng))
    few = random_unitary(d + 3, rng)[:, :d].T
    return [
        orthogonal_flag_assignment(canonical_basis(d)),
        broadcast_assignment(measurement),
        LinearAssignment(measurement, few[:, :, None] * few.conj()[:, None, :]),
    ]


class TestFlagBlocks:
    """The block eigensolve against the full one, and what it refuses."""

    @pytest.mark.parametrize("d,families", [(2, 3), (3, 3), (4, 1), (5, 1)])
    def test_blocks_agree_with_the_full_spectrum(self, d, families):
        rng = np.random.default_rng(30 + d)
        for assignment in flag_families(d, rng)[:families]:
            frame = compatibility._flag_frame(assignment)
            assert np.max(np.abs(frame.conj().T @ frame - np.eye(assignment.dim_e))) <= 1e-12
            rotated_env = frame.conj().T @ assignment.env_ops @ frame
            states = random_density(d, rng, 12)
            blocks, q = compatibility._flag_block_minima(
                assignment.basis, *compatibility._flag_blocks(assignment.basis, rotated_env),
                states)
            assert np.array_equal(q, assignment.basis.coefficients(states))
            full = np.linalg.eigvalsh(assignment.apply(states))[:, 0]
            assert np.max(np.abs(blocks - full)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_off_block_bound_covers_the_rotated_output(self, d, monkeypatch):
        rng = np.random.default_rng(50 + d)
        for k, assignment in enumerate(flag_families(d, rng)):
            frame = compatibility._flag_frame(assignment)
            rotated_env = frame.conj().T @ assignment.env_ops @ frame
            states = random_density(d, rng, 12)
            # states, and unit-trace Hermitian operators with negative weights
            inputs = np.concatenate([states, 2 * states[:6] - states[6:]])
            q = assignment.basis.coefficients(inputs)
            diag, norms = compatibility._flag_blocks(assignment.basis, rotated_env)
            bound = np.abs(q) @ norms
            out = LinearAssignment(assignment.basis, rotated_env).apply(inputs)
            out = out.reshape(len(inputs), d, assignment.dim_e, d, assignment.dim_e)
            j = np.arange(assignment.dim_e)
            out[:, :, j, :, j] = 0.0
            actual = np.linalg.norm(out.reshape(len(inputs), -1), axis=1)
            assert np.any(q < 0.0)
            if k == 0:  # computational flags: no off-diagonal entry at all
                assert np.array_equal(bound, np.zeros(len(inputs)))
            else:  # measured and few flags: nonzero off-diagonal rounding
                assert np.all(actual > 0.0) and np.all(bound >= actual)
                # the check itself refuses each input whose true norm is
                # above BLOCK_TOL
                for i in range(len(inputs)):
                    monkeypatch.setattr(compatibility, "BLOCK_TOL", actual[i] * (1 - 1e-9))
                    with pytest.raises(ValueError, match="off-diagonal flag blocks"):
                        compatibility._flag_block_minima(
                            assignment.basis, diag, norms, inputs[i:i + 1])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_computational_flags_are_their_own_frame(self, d):
        assert np.array_equal(compatibility._flag_frame(orthogonal_flag_assignment(
            canonical_basis(d))), np.eye(d * d))

    def test_fewer_flags_than_environment_dimensions(self):
        rng = np.random.default_rng(12)
        assignment = flag_families(2, rng)[2]
        assert (len(assignment.env_ops), assignment.dim_e) == (2, 5)
        report = simplex_domain_check(assignment, 100, rng)
        assert report.agreements == report.probes and report.max_gap <= 1e-12

    def test_rounded_off_diagonal_blocks_exceed_a_zero_tolerance(self, monkeypatch):
        monkeypatch.setattr(compatibility, "BLOCK_TOL", 0.0)
        rng = np.random.default_rng(13)
        measured = broadcast_assignment(OrthogonalProjectorSet.from_unitary(random_unitary(3, rng)))
        with pytest.raises(ValueError, match=r"^probe 0: off-diagonal flag blocks have norm"):
            simplex_domain_check(measured, 20, rng)
        # computational flags: the rotation is the identity and the zeros exact
        for d in (2, 3, 4):
            flags = orthogonal_flag_assignment(canonical_basis(d))
            report = simplex_domain_check(flags, 20, rng)
            assert report.agreements == report.probes

    def test_a_nan_weight_names_its_probe_across_chunks(self, monkeypatch):
        # on qubit flags a budget of 2048 bytes draws and eigensolves 8
        # probes at a time: probe 13 is the sixth of the second chunk
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 2048)
        original = operators.ProjectorBasis.coefficients
        seen = []

        def poisoned(self, states):
            q = original(self, states)
            first = sum(seen)
            seen.append(len(q))
            if first <= 13 < first + len(q):
                q[13 - first, 1] = np.nan
            return q

        monkeypatch.setattr(operators.ProjectorBasis, "coefficients", poisoned)
        flags = orthogonal_flag_assignment(canonical_basis(2))
        with pytest.raises(ValueError, match=r"^probe 13: diagonal flag blocks are not finite$"):
            simplex_domain_check(flags, 20, np.random.default_rng(3))
        assert seen == [8, 8]

    def test_the_check_maps_no_probe_through_apply(self, monkeypatch):
        def refused(self, states):
            raise AssertionError("apply was called")

        monkeypatch.setattr(LinearAssignment, "apply", refused)
        for assignment in flag_families(3, np.random.default_rng(15)):
            report = simplex_domain_check(assignment, 20, np.random.default_rng(16))
            assert report.agreements == report.probes

    def test_a_nan_off_diagonal_flag_entry_fails_the_bound(self):
        rotated_env = np.array(OrthogonalProjectorSet.computational(4).projectors)
        rotated_env[2, 0, 1] = np.nan
        states = random_density(2, np.random.default_rng(3), 5)
        with pytest.raises(ValueError, match=r"^probe 0: off-diagonal flag blocks have norm nan"):
            compatibility._flag_block_minima(
                BASIS, *compatibility._flag_blocks(BASIS, rotated_env), states)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_report_is_the_same_at_every_chunk_budget(self, d, monkeypatch):
        flags = orthogonal_flag_assignment(canonical_basis(d))
        reports = []
        for budget in (1, operators._CHUNK_BYTES, 64 * 2**20):
            monkeypatch.setattr(operators, "_CHUNK_BYTES", budget)
            reports.append(simplex_domain_check(flags, 100, np.random.default_rng(40 + d)))
        assert reports[0] == reports[1] == reports[2]
        assert len({report.max_gap.hex() for report in reports}) == 1

    def test_rejects_a_unit_overlap_pair_that_is_not_projectors(self):
        # Tr tau_i tau_j = delta_ij, but neither tau is idempotent
        taus = np.stack([np.diag([2, 2, -1]), np.diag([2, -1, 2])]) / 3
        assert np.allclose(np.einsum("iab,jba->ij", taus, taus), np.eye(2), rtol=0, atol=1e-15)
        a = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
        with pytest.raises(ValueError, match="not orthonormal rank-1 projectors"):
            simplex_domain_check(a, 10, np.random.default_rng(14))


class TestRefusals:
    """Each refusal names what is wrong, word for word."""

    @pytest.mark.parametrize("call,message", [
        (lambda: wilson_interval(0, 0), "samples must be at least 1"),
    ], ids=["wilson-no-samples"])
    def test_refusal_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
