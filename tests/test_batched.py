"""Stacked probing against the per-state loops it replaced.

Each reference below is a test-local copy of the loop that probed one state
at a time. The stacked paths must draw the same states, report the same
witness (label and state, bit for bit) and the same counts, and agree on
every float within 1e-12.
"""

import numpy as np
import pytest

import assignlab.assignments as assignments
import assignlab.operators as operators
from assignlab.assignments import (
    AUDIT_SAMPLES,
    LinearAssignment,
    OrthogonalProjectorSet,
    _probe_states,
    audit_corruption,
    audit_outputs,
    broadcast_assignment,
    eigen_chunks,
    env_negativity_report,
    equal_env_certificate,
    orthogonal_flag_assignment,
    pechukas_constraints,
    positivity_certificate,
    probe_chunks,
    product_assignment,
    random_zero_discord_assignment,
    zero_discord_assignment,
    zero_discord_size,
)
from assignlab.cli import ExperimentConfig, run
from assignlab.compatibility import domain_volume, simplex_domain_check
from assignlab.operators import (
    PSD_TOL,
    ProjectorBasis,
    canonical_basis,
    expectations,
    hermiticity_defect,
    min_eigenvalue,
    partial_trace,
    qubit_states,
    random_density,
    random_pure,
    random_unitary,
    require_hermitian,
    tensor,
    trace_norm,
    weighted_sum,
)

FLOAT_TOL = 1e-12


def old_random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return (m + m.conj().T) / 2


def old_random_pure(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def families(d, rng):
    basis = canonical_basis(d)
    z = random_zero_discord_assignment(d, 2, rng)
    bad_states = np.array(z.env_ops)
    bad_states[0] = np.diag([1.25, -0.25])
    return [
        orthogonal_flag_assignment(basis),
        product_assignment(basis, random_density(3, rng)),
        LinearAssignment(basis, np.stack([random_density(2, rng) for _ in range(d * d)])),
        z,
        LinearAssignment(z.basis, bad_states),
        broadcast_assignment(basis),
    ]


def ref_positivity(assignment, samples, rng):
    d = assignment.dim_s
    kind = "basis" if isinstance(assignment.basis, ProjectorBasis) else "measurement"
    probes = [(f"{kind} projector {i}", p) for i, p in enumerate(assignment.basis.projectors)]
    if d == 2:
        probes += [(f"axis state {i + 1}", eta) for i, eta in enumerate(qubit_states())]
    n_pure = (samples + 1) // 2
    probes += [(f"random pure {k}", old_random_pure(d, rng)) for k in range(n_pure)]
    probes += [(f"random mixed {k}", old_random_density(d, rng))
               for k in range(samples - n_pure)]
    best, label, state = np.inf, "", None
    for name, probe in probes:
        lam = min_eigenvalue(assignment.apply(probe))
        if lam < best:
            best, label, state = lam, name, probe
    return best, label, state, len(probes)


def ref_domain_volume(assignment, samples, rng, tol):
    return sum(
        min_eigenvalue(assignment.apply(old_random_density(assignment.dim_s, rng))) >= -tol
        for _ in range(samples)
    )


def ref_simplex(assignment, samples, rng, tol):
    agreements, max_gap = 0, 0.0
    for _ in range(samples):
        state = old_random_density(assignment.dim_s, rng)
        q = assignment.basis.coefficients(state)
        lam = min_eigenvalue(assignment.apply(state))
        agreements += (lam >= -tol) == (q.min() >= -tol)
        max_gap = max(max_gap, abs(lam - min(0.0, q.min())))
    return agreements, max_gap


def ref_audit_sampling(assignment, samples, rng):
    max_herm, max_trace = 0.0, 0.0
    for _ in range(samples):
        state = old_random_density(assignment.dim_s, rng)
        out = assignment.apply(state)
        max_herm = max(max_herm, hermiticity_defect(out))
        max_trace = max(max_trace, abs(np.trace(out).real - np.trace(state).real))
    return max_herm, max_trace


def old_broadcast_apply(basis, state):
    """``apply`` of the broadcast class the factory replaced."""
    return weighted_sum(basis.coefficients(state), tensor(basis.projectors, basis.projectors))


def old_zero_discord_apply(measurement, env_states, state):
    """``apply`` of the zero-discord class that a ``LinearAssignment`` on a
    measurement replaced: the weights Tr[state Pi_i], then the weighted sum."""
    require_hermitian(state, tol=1e-9, name="state")
    weights = expectations(measurement.projectors, np.asarray(state, dtype=complex)).real
    return weighted_sum(weights, tensor(measurement.projectors, env_states))


def old_audit(assignment, samples, rng, herm_bump=0.1, trace_scale=1.1):
    """The audit's four numbers, and the output of the Hermiticity-corrupted
    set, as computed through the validation bypass: each corrupted set mapped
    P_0 alone, as ``apply`` of an unvalidated assignment does."""
    max_herm = max_trace = 0.0
    for lo, hi in probe_chunks(assignment, max(samples, 1)):
        states = random_density(assignment.dim_s, rng, hi - lo)
        out = assignment.apply(states)
        trace_gap = np.trace(out, axis1=-2, axis2=-1) - np.trace(states, axis1=-2, axis2=-1)
        max_herm = max(max_herm, np.max(hermiticity_defect(out)))
        max_trace = max(max_trace, np.max(np.abs(trace_gap.real)))
    basis = assignment.basis
    p0 = basis.projectors[0]
    d_e = assignment.dim_e
    skew = np.zeros((d_e, d_e), dtype=complex)
    skew[0, 0], skew[1, 1] = 1.0, -1.0
    bad_herm = np.array(assignment.env_ops)
    bad_herm[0] = bad_herm[0] + 1j * herm_bump * skew
    herm_out = weighted_sum(basis.coefficients(p0), tensor(basis.projectors, bad_herm))
    bad_trace = np.array(assignment.env_ops)
    bad_trace[0] = trace_scale * bad_trace[0]
    trace_out = weighted_sum(basis.coefficients(p0), tensor(basis.projectors, bad_trace))
    numbers = (float(max_herm), float(max_trace), float(hermiticity_defect(herm_out)),
               float(abs(np.trace(trace_out).real - np.trace(p0).real)))
    return numbers, herm_out


def ref_appendix(d, samples, seed):
    """The appendix runner's four metrics as its loop computed them: one
    freshly drawn assignment and one audit per iteration."""
    rng = np.random.default_rng(seed)
    basis = canonical_basis(d)
    audits = []
    for _ in range(max(1, samples // 10)):
        taus = random_density(d, rng, basis.size)
        audits.append(old_audit(LinearAssignment(basis, taus), AUDIT_SAMPLES, rng)[0])
    return [max(a[0] for a in audits), max(a[1] for a in audits), audits[0][2], audits[0][3]]


def ref_pechukas(taus, states):
    s1, s2, s4, s5 = states
    t1, t2, t4, t5 = taus
    dim_e = t1.shape[0]
    delta = 0.5 * (np.kron(s1, t1) + np.kron(s4, t4)) - 0.5 * (np.kron(s2, t2) + np.kron(s5, t5))
    residuals = [trace_norm(delta)]
    for probe in (s1, s2, s4, s5):
        reduced = partial_trace(np.kron(probe, np.eye(dim_e)) @ delta, 2, dim_e, "S")
        residuals.append(trace_norm(4.0 * reduced))
    return residuals


def old_pechukas_constraints(taus, states):
    """The mixture residual and the four probe residuals as computed one
    probe at a time, each with its own product, partial trace and eigensolve."""
    s1, s2, s4, s5 = (np.asarray(s, dtype=complex) for s in states)
    t1, t2, t4, t5 = (np.asarray(t, dtype=complex) for t in taus)
    dim_e = t1.shape[-1]
    delta = 0.5 * (tensor(s1, t1) + tensor(s4, t4)) - 0.5 * (tensor(s2, t2) + tensor(s5, t5))
    residuals = []
    for probe in (s1, s2, s4, s5):
        reduced = partial_trace(tensor(probe, np.eye(dim_e)) @ delta, 2, dim_e, "S")
        residuals.append(trace_norm(4.0 * reduced))
    return trace_norm(delta), residuals


@pytest.fixture(params=[False, True], ids=["budget-chunks", "one-state-chunks"])
def chunking(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 1)
    return request.param


class TestStackedDraws:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_density_stack_is_sequential_stream(self, d):
        for seed in range(5):
            stacked_rng, single_rng, old_rng = (np.random.default_rng(seed) for _ in range(3))
            stack = random_density(d, stacked_rng, 40)
            assert stack.shape == (40, d, d)
            singles = [random_density(d, single_rng) for _ in range(40)]
            old = [old_random_density(d, old_rng) for _ in range(40)]
            assert np.array_equal(stack, np.stack(singles))
            assert np.array_equal(stack, np.stack(old))
            assert stacked_rng.standard_normal() == old_rng.standard_normal()

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pure_stack_is_sequential_stream(self, d):
        for seed in range(5):
            stacked_rng, single_rng, old_rng = (np.random.default_rng(seed) for _ in range(3))
            stack = random_pure(d, stacked_rng, 40)
            singles = [random_pure(d, single_rng) for _ in range(40)]
            old = [old_random_pure(d, old_rng) for _ in range(40)]
            assert np.array_equal(stack, np.stack(singles))
            assert np.array_equal(stack, np.stack(old))
            assert stacked_rng.standard_normal() == old_rng.standard_normal()

    def test_split_draws_continue_the_stream(self):
        whole = random_density(3, np.random.default_rng(4), 30)
        rng = np.random.default_rng(4)
        parts = np.concatenate([random_density(3, rng, 7), random_density(3, rng, 23)])
        assert np.array_equal(whole, parts)


class TestStackedOperators:
    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_decompose_stack_matches_single(self, d):
        rng = np.random.default_rng(d)
        basis = canonical_basis(d)
        states = random_density(d, rng, 25)
        q = basis.coefficients(states)
        assert np.array_equal(q, np.stack([basis.coefficients(s) for s in states]))
        reference = np.stack([np.einsum("kab,ba->k", basis.dual_frame, s).real for s in states])
        assert np.array_equal(q, reference)

    def test_tensor_stack_matches_kron(self):
        rng = np.random.default_rng(1)
        a, b = random_density(2, rng, 5), random_density(3, rng, 5)
        assert np.array_equal(tensor(a, b), np.stack([np.kron(x, y) for x, y in zip(a, b)]))
        assert np.array_equal(tensor(a[0], b), np.stack([np.kron(a[0], y) for y in b]))

    def test_chunk_ranges_cover_in_order(self):
        ranges = list(operators.chunk_ranges(10, operators._CHUNK_BYTES // 3))
        assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]
        oversized = 10 * operators._CHUNK_BYTES
        assert list(operators.chunk_ranges(3, oversized)) == [(0, 1), (1, 2), (2, 3)]
        assert list(operators.chunk_ranges(0, 16)) == []


class TestStackedProbing:
    @pytest.mark.parametrize("d", [2, 4])
    def test_probe_chunks_respect_the_budget(self, d, chunking):
        # outputs mapped through apply are D x D; the flags' eigensolves run
        # on their support factor, R x R with R = d^2 < D = d^3
        flags = orthogonal_flag_assignment(canonical_basis(d))
        full = product_assignment(canonical_basis(d), random_density(3, np.random.default_rng(1)))

        def largest(side):
            return max(1, operators._CHUNK_BYTES // (16 * side * side))

        for chunks_of, assignment, side in ((probe_chunks, flags, d * flags.dim_e),
                                            (eigen_chunks, flags, d * d),
                                            (eigen_chunks, full, 3 * d)):
            chunks = list(chunks_of(assignment, 50))
            assert max(hi - lo for lo, hi in chunks) == min(largest(side), 50)
        # one chunking over every probe, so chunks run across kinds; each
        # piece's offset is where its kind starts in the chunk
        total = d * d + 6 * (d == 2) + 50
        chunks = list(_probe_states(flags, 50, np.random.default_rng(0)))
        assert max(len(states) for _, states in chunks) == min(largest(d * d), total)
        assert sum(len(states) for _, states in chunks) == total
        for pieces, states in chunks:
            offsets = [offset for _, _, offset in pieces]
            assert offsets[0] == 0 and offsets == sorted(set(offsets))
            assert offsets[-1] < len(states)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_positivity_certificate(self, d, chunking):
        for seed in (0, 1):
            for assignment in families(d, np.random.default_rng(50 + seed)):
                samples = 9 if chunking else 31
                report = positivity_certificate(assignment, samples, np.random.default_rng(seed))
                best, label, state, count = ref_positivity(
                    assignment, samples, np.random.default_rng(seed))
                assert report.witness_label == label
                assert np.array_equal(report.witness_state, state)
                assert report.probes == count
                assert abs(report.min_eigenvalue - best) <= FLOAT_TOL

    @pytest.mark.parametrize("d", [2, 3])
    def test_domain_volume_and_simplex(self, d, chunking):
        flags = orthogonal_flag_assignment(canonical_basis(d))
        for seed in (0, 5):
            estimate = domain_volume(flags, 120, np.random.default_rng(seed))
            hits = ref_domain_volume(flags, 120, np.random.default_rng(seed), 1e-10)
            assert estimate.hits == hits
            report = simplex_domain_check(flags, 40, np.random.default_rng(seed))
            agreements, max_gap = ref_simplex(flags, 40, np.random.default_rng(seed), 1e-10)
            assert report.agreements == agreements
            assert abs(report.max_gap - max_gap) <= FLOAT_TOL

    @pytest.mark.parametrize("d", [2, 3])
    def test_audit_sampling(self, d, chunking):
        rng = np.random.default_rng(9)
        assignment = LinearAssignment(
            canonical_basis(d), np.stack([random_density(3, rng) for _ in range(d * d)]))
        herm, trace = audit_outputs(
            assignment, random_density(d, np.random.default_rng(3), AUDIT_SAMPLES))
        max_herm, max_trace = ref_audit_sampling(assignment, AUDIT_SAMPLES,
                                                 np.random.default_rng(3))
        assert abs(herm - max_herm) <= FLOAT_TOL
        assert abs(trace - max_trace) <= FLOAT_TOL

    @pytest.mark.parametrize("dim_e", [2, 3])
    def test_pechukas_constraints_broadcast(self, dim_e):
        rng = np.random.default_rng(dim_e)
        taus = random_density(dim_e, rng, 4 * 12).reshape(12, 4, dim_e, dim_e)
        taus[3] = taus[3, 0]  # one system with four equal operators
        eta = qubit_states()
        for states in (None, (eta[0], eta[2], eta[3], eta[5])):
            res = pechukas_constraints(taus.swapaxes(0, 1), states=states)
            quartet = (eta[0], eta[1], eta[3], eta[4]) if states is None else states
            for k, t in enumerate(taus):
                ref = ref_pechukas(t, quartet)
                got = [res.mixture_residual[k]] + [r[k] for r in res.expectation_residuals]
                assert np.allclose(got, ref, rtol=0, atol=FLOAT_TOL)
                assert abs(res.max_residual[k] - max(ref)) <= FLOAT_TOL
            assert res.max_residual[3] <= FLOAT_TOL

    @pytest.mark.parametrize("dim_e", [2, 3])
    def test_pechukas_residuals_match_one_probe_at_a_time(self, dim_e):
        rng = np.random.default_rng(30 + dim_e)
        eta = qubit_states()
        for taus in (random_density(dim_e, rng, 4),
                     random_density(dim_e, rng, 4 * 9).reshape(4, 9, dim_e, dim_e)):
            for states in (None, (eta[0], eta[2], eta[3], eta[5])):
                res = pechukas_constraints(taus, states=states)
                mixture, residuals = old_pechukas_constraints(
                    taus, (eta[0], eta[1], eta[3], eta[4]) if states is None else states)
                assert np.array_equal(res.mixture_residual, mixture)
                assert len(res.expectation_residuals) == 4
                for got, want in zip(res.expectation_residuals, residuals):
                    assert np.shape(got) == np.shape(want)
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("case, kind", [
        ((2, 0, 4, 1, 0), "measurement projector"),
        ((2, 0, 0, 1, 0), "axis state"),
        ((2, 0, 2, 1, 1), "random pure"),
        ((2, 0, 5, 4, 16), "random mixed"),
        ((3, None, None, 1, 0), "basis projector"),
        ((3, 0, 0, 2, 5), "random mixed"),
    ])
    def test_witness_in_each_kind_under_chunks_across_kinds(self, case, kind, monkeypatch):
        # (d, family seed, family, samples, seed); family None is a basis
        # assignment with one negative environment operator, whose witness
        # is its basis projector 0
        d, family_seed, family, samples, seed = case
        if family is None:
            taus = random_density(2, np.random.default_rng(0), d * d)
            taus[0] = np.diag([1.5, -0.5])
            assignment = LinearAssignment(canonical_basis(d), taus)
        else:
            assignment = families(d, np.random.default_rng(50 + family_seed))[family]
        best, label, state, count = ref_positivity(assignment, samples, np.random.default_rng(seed))
        assert label.rsplit(" ", 1)[0] == kind and best < -1e-6
        # the witness's value on the support factor may differ from the full
        # eigensolve's in the last bits, but not with the chunking
        whole = positivity_certificate(assignment, samples, np.random.default_rng(seed))
        assert abs(whole.min_eigenvalue - best) <= FLOAT_TOL
        support = assignment._support
        side = d * assignment.dim_e if support is None else len(support[0])
        for step in (1, 2, 3, 4, 5, 7, count):
            monkeypatch.setattr(operators, "_CHUNK_BYTES", 16 * side * side * step)
            chunks = list(_probe_states(assignment, samples, np.random.default_rng(seed)))
            assert [len(states) for _, states in chunks[:-1]] == [step] * (len(chunks) - 1)
            report = positivity_certificate(assignment, samples, np.random.default_rng(seed))
            assert report.witness_label == label
            assert np.array_equal(report.witness_state, state)
            assert report.probes == count
            assert report.min_eigenvalue == whole.min_eigenvalue


class TestFactoriesAndAudit:
    """The broadcast factory and the audit without forged assignments
    reproduce the code they replaced bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_broadcast_factory_matches_class(self, d, chunking):
        basis = canonical_basis(d)
        b = broadcast_assignment(basis)
        assert (b.dim_s, b.dim_e) == (d, d)
        states = np.concatenate([basis.projectors,
                                 random_density(d, np.random.default_rng(d), 20)])
        for lo, hi in probe_chunks(b, len(states)):
            assert np.array_equal(b.apply(states[lo:hi]), old_broadcast_apply(basis, states[lo:hi]))
        for state in states[:3]:
            assert np.array_equal(b.apply(state), old_broadcast_apply(basis, state))

    @pytest.mark.parametrize("seed", [0, 13])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_audit_matches_bypass(self, d, seed, chunking, monkeypatch):
        seen = []

        def spy(m):
            seen.append(m)
            return hermiticity_defect(m)

        monkeypatch.setattr(assignments, "hermiticity_defect", spy)
        rng = np.random.default_rng(seed)
        assignment = LinearAssignment(canonical_basis(d), random_density(3, rng, d * d))
        states = random_density(d, np.random.default_rng(seed + 1), AUDIT_SAMPLES)
        audit = audit_outputs(assignment, states) + audit_corruption(assignment)
        numbers, herm_out = old_audit(assignment, AUDIT_SAMPLES, np.random.default_rng(seed + 1))
        assert audit == numbers
        assert abs(audit[2] - 0.2) <= 1e-10 and abs(audit[3] - 0.1) <= 1e-10
        # the corrupted output itself: P_0 (x) tau_0' alone is off in the
        # last bits at d >= 3, which the four numbers do not show
        assert np.array_equal(seen[-1], herm_out)

    @pytest.mark.parametrize("d", [2, 3])
    def test_appendix_matches_per_audit_loop(self, d, chunking):
        for seed in range(10):
            report = run(ExperimentConfig(experiment="appendix", seed=seed, samples=40,
                                          dim_s=d, dim_e=d))
            assert [m["value"] for m in report.metrics] == ref_appendix(d, 40, seed)
            assert report.passed


class TestStackedAssignments:
    def test_zero_discord_stack_maps_entry_by_entry(self):
        # one (n, zero_discord_size) normal draw builds the same n assignments
        # as n draws of one, which draw as the unitary and the states did
        for d_s, d_e in ((3, 2), (2, 3), (2, 2)):
            rng, stacked_rng, old_rng = (np.random.default_rng(12) for _ in range(3))
            singles = [random_zero_discord_assignment(d_s, d_e, rng) for _ in range(4)]
            normals = stacked_rng.standard_normal((4, zero_discord_size(d_s, d_e)))
            stacked = zero_discord_assignment(normals, d_s, d_e)
            assert rng.bit_generator.state == stacked_rng.bit_generator.state
            for z, projectors, env_ops in zip(singles, stacked.basis.projectors, stacked.env_ops):
                assert np.array_equal(z.basis.projectors, projectors)
                assert np.array_equal(z.env_ops, env_ops)
                u = random_unitary(d_s, old_rng)
                assert np.array_equal(z.basis.projectors,
                                      OrthogonalProjectorSet.from_unitary(u).projectors)
                assert np.array_equal(z.env_ops, random_density(d_e, old_rng, d_s))
            square = zero_discord_assignment(normals.reshape(2, 2, -1), d_s, d_e)
            assert np.array_equal(square.env_ops, stacked.env_ops.reshape(square.env_ops.shape))
            states = random_density(d_s, rng, 4)
            out = stacked.apply(states)
            for z, state, o in zip(singles, states, out):
                assert np.array_equal(o, z.apply(state))

    @pytest.mark.parametrize("d,d_e", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_basis_stack_maps_entry_by_entry(self, d, d_e):
        # environment operators stacked (n, d^2, d_e, d_e) over one projector
        # basis: one assignment per entry, the unit inputs (the sweep's call)
        # and one state per entry alike
        rng = np.random.default_rng(20 + d)
        basis = canonical_basis(d)
        env_ops = random_density(d_e, rng, 5 * d * d).reshape(5, d * d, d_e, d_e)
        stacked = LinearAssignment(basis, env_ops)
        states = random_density(d, rng, 5)
        out = stacked.apply(states)
        shared = stacked.apply(states[:, None])  # every state through every entry
        for j, taus in enumerate(env_ops):
            single = LinearAssignment(basis, taus)
            assert np.array_equal(out[j], single.apply(states[j]))
            assert np.array_equal(shared[:, j], single.apply(states))

    def test_from_unitary_stack(self):
        rng = np.random.default_rng(2)
        us = np.stack([random_unitary(3, rng) for _ in range(3)])
        stacked = OrthogonalProjectorSet.from_unitary(us).projectors
        for u, p in zip(us, stacked):
            ref = np.stack([np.outer(u[:, i], u[:, i].conj()) for i in range(3)])
            assert np.array_equal(p, ref)

    def test_stacked_checks_name_the_bad_entry(self):
        rng = np.random.default_rng(0)
        envs = random_density(2, rng, 6).reshape(3, 2, 2, 2)
        envs[2, 1] *= 1.5
        measurement = OrthogonalProjectorSet(
            np.broadcast_to(OrthogonalProjectorSet.computational(2).projectors, (3, 2, 2, 2)))
        with pytest.raises(ValueError, match="environment operator 2 1 has trace"):
            LinearAssignment(measurement, envs)
        bad = np.array(measurement.projectors)
        bad[1, 0, 0, 1] = 0.5
        with pytest.raises(ValueError, match="projector 1 0 is not Hermitian"):
            OrthogonalProjectorSet(bad)
        computational = OrthogonalProjectorSet.computational(2)
        broadcast = broadcast_assignment(computational)
        with pytest.raises(ValueError, match="state 1 is not Hermitian"):
            broadcast.apply(np.stack([np.eye(2) / 2, np.array([[0.5, 1.0], [0.0, 0.5]])]))

    @pytest.mark.parametrize("check", [
        lambda a, rng: positivity_certificate(a, 10, rng),
        lambda a, rng: env_negativity_report(a),
        lambda a, rng: equal_env_certificate(a, 10, rng),
        lambda a, rng: domain_volume(a, 100, rng),
        lambda a, rng: simplex_domain_check(a, 10, rng),
        lambda a, rng: audit_corruption(a),
    ], ids=["positivity", "env-negativity", "equal-env", "domain-volume", "simplex", "audit"])
    def test_probing_checkers_refuse_a_stack(self, check):
        rng = np.random.default_rng(4)
        measurement = OrthogonalProjectorSet.from_unitary(random_unitary(2, rng, 3))
        stacked = LinearAssignment(measurement, random_density(2, rng, 6).reshape(3, 2, 2, 2))
        with pytest.raises(ValueError, match=r"expected one assignment, got a stack \(3,\)"):
            check(stacked, rng)


class TestOneAssignmentClass:
    """A ``LinearAssignment`` on a measurement is the zero-discord class it
    replaced, bit for bit, and the probes keep their labels."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_measurement_matches_zero_discord_class(self, d, chunking):
        rng = np.random.default_rng(d)
        z = random_zero_discord_assignment(d, 3, rng)
        states = np.concatenate([z.basis.projectors, random_density(d, rng, 20)])
        assert z.basis.coefficients(states).dtype == np.float64
        for lo, hi in probe_chunks(z, len(states)):
            ref = old_zero_discord_apply(z.basis, z.env_ops, states[lo:hi])
            assert np.array_equal(z.apply(states[lo:hi]), ref)
        for state in states[:3]:
            assert np.array_equal(z.apply(state), old_zero_discord_apply(z.basis, z.env_ops, state))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_measurements_match_zero_discord_class(self, d, chunking):
        rng = np.random.default_rng(10 + d)
        projectors = OrthogonalProjectorSet.from_unitary(random_unitary(d, rng, 7)).projectors
        envs = random_density(2, rng, 7 * d).reshape(7, d, 2, 2)
        states = random_density(d, rng, 7)
        for lo, hi in probe_chunks(LinearAssignment(OrthogonalProjectorSet(projectors[0]),
                                                    envs[0]), len(states)):
            measurement = OrthogonalProjectorSet(projectors[lo:hi])
            stacked = LinearAssignment(measurement, envs[lo:hi])
            ref = old_zero_discord_apply(measurement, envs[lo:hi], states[lo:hi])
            assert np.array_equal(stacked.apply(states[lo:hi]), ref)

    def test_env_stack_must_match_the_basis_stack(self):
        rng = np.random.default_rng(5)
        measurement = OrthogonalProjectorSet.from_unitary(random_unitary(2, rng, 3))
        for envs in (random_density(2, rng, 4).reshape(2, 2, 2, 2), random_density(2, rng, 2)):
            with pytest.raises(ValueError, match="stacked as the basis"):
                LinearAssignment(measurement, envs)
        assert LinearAssignment(measurement, random_density(2, rng, 6).reshape(3, 2, 2, 2))

    def test_probe_labels_name_the_basis_kind(self):
        rng = np.random.default_rng(0)
        for assignment, kind in ((orthogonal_flag_assignment(canonical_basis(3)), "basis"),
                                 (random_zero_discord_assignment(3, 2, rng), "measurement")):
            pieces, states = next(_probe_states(assignment, 4, rng))
            n = len(assignment.basis.projectors)
            assert pieces == [(f"{kind} projector", 0, 0), ("random pure", 0, n),
                              ("random mixed", 0, n + 2)]
            assert np.array_equal(states[:n], assignment.basis.projectors)


def support_families(d, rng):
    """(assignment, takes the support factor) for ``families`` and for the
    families whose environment operators leave R = sum_i rank tau_i below D."""
    cases = [(a, i == 0) for i, a in enumerate(families(d, rng))]  # flags come first
    z = random_zero_discord_assignment(d, 4, rng)
    negative = np.array(z.env_ops)
    u = random_unitary(4, rng)
    negative[0] = (u * [-0.25, 1.25, 0.0, 0.0]) @ u.conj().T  # rank 2, as theorem3 builds it
    measurement = OrthogonalProjectorSet.from_unitary(random_unitary(d, rng))
    return cases + [
        (orthogonal_flag_assignment(canonical_basis(d)), True),
        (LinearAssignment(z.basis, negative), True),
        (product_assignment(canonical_basis(d), random_pure(d + 1, rng)), True),
        (broadcast_assignment(measurement), True),
    ]


class TestSupportFactor:
    """``min_output_eigenvalue`` against the full eigensolve of ``apply``."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_the_full_eigensolve(self, d):
        rng = np.random.default_rng(70 + d)
        for assignment, factored in support_families(d, rng):
            rank = np.count_nonzero(np.abs(np.linalg.eigvalsh(assignment.env_ops)) > 1e-14)
            assert factored == (rank < assignment.dim_s * assignment.dim_e)
            assert (assignment._support is not None) == factored
            states = np.concatenate([assignment.basis.projectors, random_pure(d, rng, 10),
                                     random_density(d, rng, 10)])
            lams = assignment.min_output_eigenvalue(states)
            full = min_eigenvalue(assignment.apply(states))
            assert np.max(np.abs(lams - full)) <= FLOAT_TOL
            for threshold in (-PSD_TOL, PSD_TOL):
                assert np.array_equal(lams >= threshold, full >= threshold)
            if not factored:
                assert np.array_equal(lams, full)
            singles = [assignment.min_output_eigenvalue(state) for state in states]
            assert np.array_equal(lams, singles)

    def test_a_stacked_assignment_takes_the_full_path(self):
        rng = np.random.default_rng(8)
        measurement = OrthogonalProjectorSet.from_unitary(random_unitary(3, rng, 4))
        stacked = broadcast_assignment(measurement)
        assert stacked._support is None
        states = random_density(3, rng, 4)
        assert np.array_equal(stacked.min_output_eigenvalue(states),
                              min_eigenvalue(stacked.apply(states)))

    def test_block_spectrum_checks_keep_the_full_eigensolve(self, monkeypatch):
        def refuse(assignment, state):
            raise AssertionError("a block-spectrum check went through the support factor")

        flags = orthogonal_flag_assignment(canonical_basis(3))
        monkeypatch.setattr(LinearAssignment, "min_output_eigenvalue", refuse)
        simplex = simplex_domain_check(flags, 20, np.random.default_rng(0))
        assert simplex.agreements == simplex.probes
        report = env_negativity_report(flags)
        assert np.all(report.output_min_eigs[report.env_min_eigs < -PSD_TOL] < -PSD_TOL)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_vectors_span_the_projectors(self, d):
        rng = np.random.default_rng(d)
        for projectors, vectors in (
            (canonical_basis(d).projectors, canonical_basis(d).vectors),
            *((m.projectors, m.vectors) for m in (
                OrthogonalProjectorSet.from_unitary(random_unitary(d, rng)),
                OrthogonalProjectorSet.from_unitary(random_unitary(d, rng, 3))))):
            assert np.allclose(np.linalg.norm(vectors, axis=-1), 1.0, rtol=0, atol=1e-14)
            outer = vectors[..., :, None] * vectors.conj()[..., None, :]
            assert np.max(np.abs(outer - projectors)) <= 1e-14
            assert not vectors.flags.writeable
