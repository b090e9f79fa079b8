"""Acceptance suite: one test per certification criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Every tolerance is pinned here; expected values come from independent
oracles computed inside the tests (closed-form spectra, block-spectrum
predictions, hand-expanded overlaps), never from the code path under test.
"""

import time

import numpy as np

from assignlab.assignments import (
    AUDIT_SAMPLES,
    LinearAssignment,
    OrthogonalProjectorSet,
    audit_corruption,
    audit_outputs,
    broadcast_assignment,
    consistency_defect,
    dephase,
    orthogonal_flag_assignment,
    pechukas_constraints,
    positivity_certificate,
    probe_chunks,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.compatibility import boundary_along_ray, domain_volume, simplex_domain_check
from assignlab.dynamics import (
    assignment_condition_table,
    classical_cp_sweep,
    cp_certificate,
    find_noncp_unitary,
    induced_map,
    replay_unitary,
)
from assignlab.operators import (
    canonical_basis,
    min_eigenvalue,
    partial_trace,
    qubit_states,
    random_density,
    random_pure,
    tensor,
    trace_norm,
)

from bloch import bloch_state

ETA = qubit_states()
I2 = np.eye(2, dtype=complex)


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"{criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _state_at_distance(t: np.ndarray, rng: np.random.Generator, distance: float) -> np.ndarray:
    """A valid state at the given trace-norm distance from ``t`` (the hardest
    allowed perturbation size)."""
    while True:
        r = random_density(t.shape[0], rng)
        gap = trace_norm(r - t)
        if gap >= distance:
            return (1.0 - distance / gap) * t + (distance / gap) * r


def test_criterion_1_single_env_state_biconditional():
    """Positivity of a consistent linear assignment holds iff every basis
    projector is assigned one and the same environment state (qubit and d=3)."""
    ok = True
    details = []
    for d, seed in ((2, 101), (3, 102)):
        basis = canonical_basis(d)
        rng = np.random.default_rng(seed)
        t = random_density(d, rng)

        equal = positivity_certificate(product_assignment(basis, t), 10_000, rng)
        ok &= equal.min_eigenvalue >= -1e-10

        worst_witness = 0.0
        for config in range(3):
            taus = np.stack([t] * basis.size)
            idx = int(rng.integers(0, basis.size))
            taus[idx] = _state_at_distance(t, rng, 0.1)
            if config == 2:  # second independent perturbation elsewhere
                other = (idx + 1) % basis.size
                taus[other] = _state_at_distance(t, rng, 0.1)
            assignment = LinearAssignment(basis, taus)
            # pure-state probes only: basis projectors, axis states, Haar draws
            # (drawn in probe-sized stacks, the same stream as one at a time)
            probes = list(basis.projectors)
            if d == 2:
                probes += list(ETA)
            lam = np.min(min_eigenvalue(assignment.apply(np.stack(probes))))
            for lo, hi in probe_chunks(assignment, 10_000 - len(probes)):
                pure = random_pure(d, rng, hi - lo)
                lam = min(lam, np.min(min_eigenvalue(assignment.apply(pure))))
            worst_witness = min(worst_witness, lam)
            ok &= lam < -1e-6
        details.append(f"d={d}: equal {equal.min_eigenvalue:.2e}, witness {worst_witness:.3f}")
    _report("criterion 1 (single-env-state biconditional)", ok, "; ".join(details))


def test_criterion_2_pechukas_constraint_system():
    """Constraint residuals vanish iff the four assigned environment
    operators coincide, over 1000 random quadruples plus the equal case."""
    rng = np.random.default_rng(201)
    t = random_density(2, rng)
    equal = pechukas_constraints([t, t, t, t])
    ok = equal.max_residual <= 1e-12

    # 1000 quadruples drawn in a row and checked as one stack
    taus = random_density(2, rng, 4000).reshape(1000, 4, 2, 2)
    residual = pechukas_constraints(taus.swapaxes(0, 1)).max_residual
    max_dist = np.max([trace_norm(taus[:, i] - taus[:, j])
                       for i in range(4) for j in range(i + 1, 4)], axis=0)
    agreement = bool(np.all((residual <= 1e-12) == (max_dist <= 1e-9)))
    ok &= agreement
    _report(
        "criterion 2 (constraint system iff equal env ops)",
        ok,
        f"equal-case residual {equal.max_residual:.2e}, equivalence on 1000 quadruples: {agreement}",
    )


def test_criterion_3_consistency_defect_is_dephasing_distance():
    """The consistency defect of a zero-discord assignment equals the
    trace distance to the measurement-dephased state."""
    rng = np.random.default_rng(301)
    max_gap = 0.0
    max_diag = 0.0
    for _ in range(1000):
        z = random_zero_discord_assignment(2, 2, rng)
        eta = random_density(2, rng)
        defect = consistency_defect(z, eta)
        oracle = trace_norm(eta - dephase(eta, z.basis))
        max_gap = max(max_gap, abs(defect - oracle))
        weights = rng.dirichlet(np.ones(2))
        diagonal = np.tensordot(weights, z.basis.projectors, axes=1)
        max_diag = max(max_diag, consistency_defect(z, diagonal))

    taus = np.stack([random_density(2, rng) for _ in range(2)])
    z_basis = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
    defect_eta1 = consistency_defect(z_basis, ETA[0])

    ok = max_gap <= 1e-10 and max_diag <= 1e-12 and abs(defect_eta1 - 1.0) <= 1e-10
    _report(
        "criterion 3 (consistency defect = dephasing distance)",
        ok,
        f"formula gap {max_gap:.2e}, diagonal defect {max_diag:.2e}, defect(eta1) {defect_eta1:.12f}",
    )


def test_criterion_4_zero_discord_positivity_biconditional():
    """Positive env states pass 10^4 probes; one injected negative eigenvalue
    -0.25 shows up exactly as the block spectrum predicts."""
    rng = np.random.default_rng(401)
    worst = 0.0
    for _ in range(5):
        z = random_zero_discord_assignment(2, 2, rng)
        report = positivity_certificate(z, 2000, rng)
        worst = min(worst, report.min_eigenvalue)
    ok = worst >= -1e-10

    z = random_zero_discord_assignment(2, 2, rng)
    bad = np.array(z.env_ops)
    eigs = np.array([-0.25, 1.25])
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    bad[0] = (u * eigs) @ u.conj().T
    z_bad = LinearAssignment(z.basis, bad)
    report = positivity_certificate(z_bad, 10_000, rng)

    weights = z_bad.basis.coefficients(report.witness_state)
    # block spectrum: eigenvalues are Tr[eta Pi_i] times the spectrum of tau_i
    predicted = min(
        w * lam for w, taus in zip(weights, z_bad.env_ops)
        for lam in np.linalg.eigvalsh(taus)
    )
    bound = -0.25 * weights.min()
    ok &= report.min_eigenvalue <= bound + 1e-9
    ok &= abs(report.min_eigenvalue - predicted) <= 1e-9
    _report(
        "criterion 4 (zero-discord positivity biconditional)",
        ok,
        f"positive-env min {worst:.2e}, witness {report.min_eigenvalue:.6f}, "
        f"block prediction {predicted:.6f}",
    )


def test_criterion_5_no_broadcasting_witness():
    """Copying the fourth axis state yields the analytic indefinite spectrum
    while still satisfying the broadcast condition."""
    basis = canonical_basis(2)
    out = broadcast_assignment(basis).apply(ETA[4])
    spectrum = np.linalg.eigvalsh(out)

    # independent oracle: nonzero eigenvalues of the 3x3 sign/Gram matrix of
    # the doubled kets, from hand-computed squared overlaps
    kets = [
        np.array([1, 1], dtype=complex) / np.sqrt(2),   # x+
        np.array([1, -1], dtype=complex) / np.sqrt(2),  # x-
        np.array([1, 1j], dtype=complex) / np.sqrt(2),  # y+
    ]
    signs = np.array([1.0, 1.0, -1.0])
    gram = np.array([[np.vdot(u, v) ** 2 for v in kets] for u in kets])
    assert abs(gram[0, 2] - 0.5j) < 1e-15 and abs(gram[1, 2] + 0.5j) < 1e-15
    sg_eigs = np.linalg.eigvals(np.diag(signs) @ gram)
    assert np.max(np.abs(sg_eigs.imag)) < 1e-12
    oracle = np.sort(np.concatenate([sg_eigs.real, [0.0]]))

    closed_form = np.sort([1.0, 1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)])
    gap_oracle = float(np.max(np.abs(spectrum - oracle)))
    gap_closed = float(np.max(np.abs(spectrum - closed_form)))
    marginal = max(
        trace_norm(partial_trace(out, 2, 2, "E") - ETA[4]),
        trace_norm(partial_trace(out, 2, 2, "S") - ETA[4]),
    )
    ok = gap_oracle <= 1e-9 and gap_closed <= 1e-9 and marginal <= 1e-10
    _report(
        "criterion 5 (no-broadcasting witness spectrum)",
        ok,
        f"spectrum gap {gap_oracle:.2e} vs oracle, marginal defect {marginal:.2e}",
    )


def test_criterion_6_commuting_states_broadcast_exactly():
    """The two commuting axis states copy to exact products, as does the
    non-commuting second axis state."""
    b = broadcast_assignment(canonical_basis(2))
    gaps = {
        label: float(np.max(np.abs(b.apply(state) - tensor(state, state))))
        for label, state in (("eta1", ETA[0]), ("eta4", ETA[3]), ("eta2", ETA[1]))
    }
    ok = all(gap <= 1e-12 for gap in gaps.values())
    _report(
        "criterion 6 (commuting broadcastability)",
        ok,
        ", ".join(f"{k}: {v:.2e}" for k, v in gaps.items()),
    )


def test_criterion_7_classical_correlations_give_cp_maps():
    """1000 induced maps from random zero-discord assignments with positive
    env states all have positive Choi spectra, within the time budget."""
    start = time.perf_counter()
    sweep = classical_cp_sweep(n_assignments=100, dim_s=2, dim_e=2, rng=np.random.default_rng(701))
    elapsed = time.perf_counter() - start
    ok = sweep.maps_checked == 1000 and sweep.min_lambda >= -1e-9 and elapsed <= 60.0
    _report(
        "criterion 7 (classical correlations imply CP)",
        ok,
        f"min Choi eigenvalue {sweep.min_lambda:.2e} over {sweep.maps_checked} maps "
        f"in {elapsed:.1f}s",
    )


def test_criterion_8_quantum_correlations_break_cp():
    """Random unitary search on the orthogonal-flag assignment finds a
    non-CP induced map, with a replayable witness seed."""
    flags = orthogonal_flag_assignment(canonical_basis(2))
    search = find_noncp_unitary(flags, attempts=1000, seed=801)
    ok = search.found and search.first_lambda < -1e-6
    if search.found:
        u = replay_unitary(search.seed, search.first_index, 8)
        replayed = cp_certificate(induced_map(flags, u)).lambda_min_choi
        ok &= replayed == search.first_lambda
    _report(
        "criterion 8 (quantum correlations can break CP)",
        ok,
        f"witness (seed {search.seed}, index {search.first_index}) "
        f"Choi min {search.first_lambda!r}, best {search.best_lambda:.3f}",
    )


def test_criterion_9_compatibility_domain_exactness():
    """Spectral domain membership coincides with coefficient signs for the
    flag assignment; rays from the maximally mixed state hit the predicted
    boundary parameters."""
    flags = orthogonal_flag_assignment(canonical_basis(2))
    rng = np.random.default_rng(901)
    simplex = simplex_domain_check(flags, 1000, rng)
    ray_in = boundary_along_ray(flags, I2 / 2, ETA[0])
    ray_out = boundary_along_ray(flags, I2 / 2, ETA[4])
    ok = (
        simplex.agreements == simplex.probes
        and abs(ray_in.t_star - 1.0) <= 1e-8
        and abs(ray_out.t_star) <= 1e-8
    )
    _report(
        "criterion 9 (compatibility domain exactness)",
        ok,
        f"agreement {simplex.agreements}/{simplex.probes}, "
        f"t*(mixed->eta1)={ray_in.t_star}, t*(mixed->eta5)={ray_out.t_star}",
    )


def test_criterion_10_hermiticity_and_trace_preservation():
    """Valid assignments preserve Hermiticity and trace to 1e-10 over 1000
    random instances; bypass corruptions produce defects of exactly 0.2/0.1."""
    max_herm = 0.0
    max_trace = 0.0
    corrupted = []
    count = 0
    for dims, seed in (((2, 2), 1001), ((2, 3), 1002), ((3, 2), 1003)):
        d_s, d_e = dims
        basis = canonical_basis(d_s)
        rng = np.random.default_rng(seed)
        n = 334 if d_s == 2 else 332
        for i in range(n):
            taus = np.stack([random_density(d_e, rng) for _ in range(basis.size)])
            assignment = LinearAssignment(basis, taus)
            herm, trace = audit_outputs(assignment, random_density(d_s, rng, AUDIT_SAMPLES))
            max_herm = max(max_herm, herm)
            max_trace = max(max_trace, trace)
            if i == 0:
                corrupted.append(audit_corruption(assignment))
            count += 1
    ok = (
        count == 1000
        and max_herm <= 1e-10
        and max_trace <= 1e-10
        and all(abs(h - 0.2) <= 1e-10 and abs(t - 0.1) <= 1e-10 for h, t in corrupted)
    )
    _report(
        "criterion 10 (Hermiticity/trace preservation audit)",
        ok,
        f"{count} assignments, forward defects ({max_herm:.2e}, {max_trace:.2e}), "
        f"corruption magnitudes {corrupted[0]}",
    )


def test_criterion_11_condition_table_reproduction():
    """Product / zero-discord / flag families give exactly the expected
    (linear, consistent, positive) pattern."""
    table = assignment_condition_table(samples=500, rng=np.random.default_rng(1101))
    rows = {row.family: row.conditions for row in table}
    expected = {
        "none": (True, True, True),
        "classical": (True, False, True),
        "quantum": (True, True, False),
    }
    ok = rows == expected
    _report(
        "criterion 11 (condition table reproduction)",
        ok,
        ", ".join(f"{fam}: {''.join('y' if v else 'n' for v in conds)}"
                  for fam, conds in rows.items()),
    )


def test_criterion_12_qubit_flag_domain_volume():
    """The qubit flag domain has Hilbert-Schmidt volume 1/(4 pi).

    The Hilbert-Schmidt measure on qubits is uniform on the Bloch ball. With
    a = (a1, a2, a3) the weights on (x+, y+, z+, x-) are
    q = ((1 + a1 - a2 - a3)/2, a2, a3, (1 - a1 - a2 - a3)/2), so the domain
    {q >= 0} is {a2, a3 >= 0, |a1| + a2 + a3 <= 1}: a quarter of the
    inscribed octahedron, of volume 1/3 against the ball's 4 pi/3. Each of
    three fixed seeds must land within 5 binomial standard deviations.
    """
    flags = orthogonal_flag_assignment(canonical_basis(2))
    n, p = 20_000, 1.0 / (4.0 * np.pi)
    sigma = np.sqrt(p * (1.0 - p) / n)
    fractions = [domain_volume(flags, n, np.random.default_rng(seed)).fraction
                 for seed in (0, 1, 2)]
    worst = max(abs(f - p) for f in fractions) / sigma
    _report(
        "criterion 12 (qubit flag domain volume is 1/(4 pi))",
        worst <= 5.0,
        f"fractions {fractions} vs {p:.5f}, worst {worst:.2f} sigma",
    )


def bloch_grid():
    """Bloch vectors on the sphere at polar and azimuthal angles in steps of
    pi/16 (17 x 32 points, the six axis states among them), and their states."""
    polar, azimuth = np.meshgrid(np.arange(17) * np.pi / 16, np.arange(32) * np.pi / 16,
                                 indexing="ij")
    bloch = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth),
                      np.cos(polar)], axis=-1).reshape(-1, 3)
    return bloch, np.stack([bloch_state(a) for a in bloch])


def test_criterion_13_qubit_broadcast_minimum():
    """The smallest output eigenvalue of the qubit broadcast assignment over
    all states is -(2 + sqrt2)/4, at the Bloch vector a = (0, -s, -s), s = 1/sqrt2.

    On (x+, y+, z+, x-) the weights are q = ((1 + a1 - a2 - a3)/2, a2, a3,
    (1 - a1 - a2 - a3)/2), so at that point q = ((1 + sqrt2)/2, -s, -s,
    (1 + sqrt2)/2). With P (x) P = (I + n.sigma) (x) (I + n.sigma)/4 the
    output is [I (x) I + a.sigma (x) I + I (x) a.sigma + sum_k T_k sigma_k (x)
    sigma_k]/4 with T = (q1 + q4, q2, q3) = (1 + sqrt2, -s, -s). It vanishes
    on the singlet; on the triplet, in the Cartesian basis that makes every
    sigma_k (x) sigma_k diagonal, it is [diag(1 - T) + i [a]x]/2 with [a]x the
    cross-product matrix of a. (0, 1, 1)/sqrt2 is an eigenvector, eigenvalue
    (1 + s)/2, and the rest is [[-sqrt2, i], [-i, 1 + s]]/2, with eigenvalues
    1 and -(1 + s)/2 = -(2 + sqrt2)/4. The smallest eigenvalue is concave in
    the state, so its minimum lies on the sphere: a grid of polar and
    azimuthal angles in steps of pi/16, which holds that point, must reach
    the closed form and never go below it.
    """
    broadcast = broadcast_assignment(canonical_basis(2))
    closed_form = -(2.0 + np.sqrt(2.0)) / 4.0
    bloch, states = bloch_grid()
    lams = broadcast.min_output_eigenvalue(states)
    s = 1.0 / np.sqrt(2.0)
    at_point = lams[np.argmin(np.sum((bloch - [0.0, -s, -s]) ** 2, axis=-1))]
    ok = abs(at_point - closed_form) <= 1e-12 and lams.min() >= closed_form - 1e-12
    _report(
        "criterion 13 (qubit broadcast minimum is -(2 + sqrt2)/4)",
        ok,
        f"at (0, -s, -s): {float(at_point)!r}, grid min {float(lams.min())!r}, "
        f"closed form {closed_form!r}",
    )


def test_criterion_14_qubit_flag_minimum():
    """The smallest output eigenvalue of the qubit flag assignment over all
    states is -1, at y- (eta5).

    The output sum_i q_i P_i (x) |i><i| is block diagonal in the flag, block
    i being q_i P_i with spectrum {q_i, 0}, so its smallest eigenvalue is
    min(0, min_i q_i). On (x+, y+, z+, x-) the weights are
    q = ((1 + a1 - a2 - a3)/2, a2, a3, (1 - a1 - a2 - a3)/2). On the unit
    sphere q_{y+} = a2 >= -1, with equality at y- = (0, -1, 0) (and q_{z+} = a3
    likewise at z-), while |a1 +- (a2 + a3)| <= sqrt3 keeps the x weights at or
    above (1 - sqrt3)/2 > -1. The smallest eigenvalue is concave in the state,
    so criterion 13's grid, which holds y-, must reach -1 there and never go
    below it; the outputs are eigensolved in full, not on the support factor.
    """
    flags = orthogonal_flag_assignment(canonical_basis(2))
    bloch, states = bloch_grid()
    lams = np.linalg.eigvalsh(flags.apply(states))[:, 0]
    at_point = lams[np.argmin(np.sum((bloch - [0.0, -1.0, 0.0]) ** 2, axis=-1))]
    ok = abs(at_point + 1.0) <= 1e-12 and lams.min() >= -1.0 - 1e-12
    _report(
        "criterion 14 (qubit flag minimum is -1)",
        ok,
        f"at y-: {float(at_point)!r}, grid min {float(lams.min())!r}, closed form -1.0",
    )
