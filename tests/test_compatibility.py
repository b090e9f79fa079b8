import numpy as np
import pytest

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
    decompose,
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
        assert report.all_agree
        assert report.max_gap < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_measurement_flags_read_the_weights(self, d):
        rng = np.random.default_rng(d)
        measurement = OrthogonalProjectorSet.from_unitary(random_unitary(d, rng))
        report = simplex_domain_check(broadcast_assignment(measurement), 200, rng)
        assert report.all_agree
        assert report.max_gap < 1e-9

    def test_named_probes(self):
        q_mixed = decompose(I2 / 2, BASIS)
        assert q_mixed.min() == pytest.approx(0.0, abs=1e-12)
        assert domain_verdict(FLAG, I2 / 2).in_domain
        q5 = decompose(ETA[4], BASIS)
        assert q5.min() == pytest.approx(-1.0, abs=1e-12)
        assert not domain_verdict(FLAG, ETA[4]).in_domain

    def test_rejects_non_orthonormal_env(self):
        rng = np.random.default_rng(11)
        a = LinearAssignment(BASIS, np.stack([random_density(2, rng) for _ in range(4)]))
        with pytest.raises(ValueError):
            simplex_domain_check(a, 10, rng)
