"""Property tests of the assignment families (hypothesis, derandomized).

Stacked ``apply`` equals per-state ``apply`` bit for bit, every family
preserves trace and Hermiticity, every projector basis's dual frame
satisfies Tr[D_i P_j] = delta_ij, and the map a product assignment induces
matches its Kraus form and is certified CP.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from assignlab.assignments import (  # noqa: E402
    LinearAssignment,
    OrthogonalProjectorSet,
    broadcast_assignment,
    orthogonal_flag_assignment,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.dynamics import choi_matrix, cp_certificate, induced_map  # noqa: E402
from assignlab.operators import (  # noqa: E402
    GRAM_MIN_SINGULAR_VALUE,
    ProjectorBasis,
    canonical_basis,
    random_density,
    random_pure,
    random_unitary,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=30, deadline=None)
FAMILIES = ("flag", "product", "linear", "zero-discord", "negative-zero-discord", "broadcast")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=2, max_value=4)


def build(family, d, rng):
    basis = canonical_basis(d)
    if family == "flag":
        return orthogonal_flag_assignment(basis)
    if family == "product":
        return product_assignment(basis, random_density(3, rng))
    if family == "linear":
        # Hermitian unit-trace environment operators, indefinite in general
        ops = random_density(2, rng, d * d) + 0.5 * np.array([[1, 0], [0, -1]])
        return LinearAssignment(basis, ops)
    if family == "broadcast":
        return broadcast_assignment(basis)
    z = random_zero_discord_assignment(d, 3, rng)
    if family == "zero-discord":
        return z
    envs = np.array(z.env_ops)
    envs[0] = np.diag([1.5, -0.25, -0.25])
    return LinearAssignment(z.basis, envs)


def hermitian_inputs(d, rng, n):
    """Hermitian unit-trace operators, not all positive: mixtures of random
    states with real weights that may be negative."""
    weights = rng.uniform(-1.0, 2.0, size=(n, 1, 1))
    return weights * random_density(d, rng, n) + (1 - weights) * random_pure(d, rng, n)


@PROPERTY
@given(family=st.sampled_from(FAMILIES), d=dims, seed=seeds, n=st.integers(1, 7))
def test_stacked_apply_equals_per_state_apply(family, d, seed, n):
    rng = np.random.default_rng(seed)
    assignment = build(family, d, rng)
    states = hermitian_inputs(d, rng, n)
    stacked = assignment.apply(states)
    for state, out in zip(states, stacked):
        assert np.array_equal(out, assignment.apply(state))
    grid = states.reshape((1, n, d, d))
    assert np.array_equal(assignment.apply(grid)[0], stacked)


@PROPERTY
@given(family=st.sampled_from(FAMILIES), d=dims, seed=seeds)
def test_trace_and_hermiticity_preserved(family, d, seed):
    rng = np.random.default_rng(seed)
    assignment = build(family, d, rng)
    states = hermitian_inputs(d, rng, 5)
    out = assignment.apply(states)
    assert out.shape == (5,) + (d * assignment.dim_e,) * 2
    assert np.max(np.abs(out - out.conj().swapaxes(-1, -2))) <= 1e-12
    traces = np.trace(out, axis1=-2, axis2=-1)
    assert np.max(np.abs(traces - np.trace(states, axis1=-2, axis2=-1))) <= 1e-12


@PROPERTY
@given(d=st.integers(min_value=2, max_value=5), seed=seeds, random_basis=st.booleans())
def test_dual_frame_is_biorthogonal(d, seed, random_basis):
    if random_basis:
        # rank-1 projectors onto generic vectors span the Hermitian matrices
        rng = np.random.default_rng(seed)
        projectors = random_pure(d, rng, d * d)
        gram = np.einsum("iab,jba->ij", projectors, projectors).real
        assume(np.linalg.svd(gram, compute_uv=False)[-1] > 1e3 * GRAM_MIN_SINGULAR_VALUE)
        basis = ProjectorBasis.from_projectors(projectors)
        tol = 1e-13 * np.linalg.cond(basis.gram)
    else:
        basis = canonical_basis(d)
        tol = 1e-12
    overlaps = np.einsum("iab,jba->ij", basis.dual_frame, basis.projectors)
    assert np.max(np.abs(overlaps - np.eye(d * d))) <= tol


@PROPERTY
@given(d=dims, seed=seeds)
def test_stacked_zero_discord_assignments_map_entry_by_entry(d, seed):
    rng = np.random.default_rng(seed)
    unitaries = np.stack([random_unitary(d, rng) for _ in range(3)])
    envs = random_density(2, rng, 3 * d).reshape(3, d, 2, 2)
    stacked = LinearAssignment(OrthogonalProjectorSet.from_unitary(unitaries), envs)
    states = random_density(d, rng, 3)
    out = stacked.apply(states)
    for k in range(3):
        single = LinearAssignment(OrthogonalProjectorSet.from_unitary(unitaries[k]), envs[k])
        assert np.array_equal(out[k], single.apply(states[k]))


@PROPERTY
@given(family=st.sampled_from(FAMILIES), d=dims, seed=seeds)
def test_apply_is_linear(family, d, seed):
    rng = np.random.default_rng(seed)
    assignment = build(family, d, rng)
    rho = hermitian_inputs(d, rng, 2)
    a = rng.uniform(-1.0, 2.0)
    mixed = assignment.apply(a * rho[0] + (1 - a) * rho[1])
    split = a * assignment.apply(rho[0]) + (1 - a) * assignment.apply(rho[1])
    assert np.max(np.abs(mixed - split)) <= 1e-12


@PROPERTY
@given(d_s=st.integers(min_value=2, max_value=3), d_e=st.integers(min_value=2, max_value=3),
       seed=seeds)
def test_product_assignment_induces_its_kraus_map(d_s, d_e, seed):
    """rho (x) tau with tau = sum_b p_b |b><b| under a Haar U induces
    rho -> sum_ab K_ab rho K_ab^dag, K_ab = sqrt(p_b) (I (x) <a|) U (I (x) |b>)
    (Shabani and Lidar, PRL 102, 100402 (2009): zero discord gives CP)."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d_e))
    u = random_unitary(d_s * d_e, rng)
    superop = induced_map(product_assignment(canonical_basis(d_s), np.diag(p)), u)
    blocks = u.reshape(d_s, d_e, d_s, d_e)
    kraus = [np.sqrt(p[b]) * blocks[:, a, :, b] for a in range(d_e) for b in range(d_e)]
    # row-major vec(K X K^dag) = (K (x) conj(K)) vec(X)
    oracle = sum(np.kron(k, k.conj()) for k in kraus)
    assert np.max(np.abs(superop - oracle)) <= 1e-12
    # sum_jk E_jk (x) K E_jk K^dag = |v><v| with v = vec(K^T): a Gram sum, PSD
    gram = sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in kraus)
    assert np.max(np.abs(choi_matrix(superop).mat - gram)) <= 1e-12
    report = cp_certificate(superop)
    assert report.is_cp and report.is_tp
