"""Induced dynamical maps: trace out the environment after a unitary acts on
an assigned system-environment operator.

The composed map is its superoperator matrix, a plain complex ndarray acting
on row-major vectorized operators; complete positivity is certified through
the spectrum of its Choi matrix. Includes the seeded random search for
unitaries that break complete positivity, and the summary table of
linearity/consistency/positivity per correlation family.

Induced maps are built from a stack of d_s^2 assigned unit images: the
images, under the assignment's own ``apply``, of the Hermitian parts H_jk and
K_jk of the matrix units E_jk = H_jk + i K_jk, which are all the distinct
inputs. A search or sweep assigns them once per assignment, then takes its
couplings as stacks: one Haar draw (one stacked QR) per chunk of couplings
(a chunk is sized by its couplings' normals and unitaries, in the search and
the sweep alike), one stacked unitarity check, every (coupling, image) pair
conjugated in byte-bounded blocks, one batched contraction tracing out the
environment, the columns H + iK assembled, the Choi matrices by reshape and
their spectra from one stacked eigensolve. ``induced_map``, ``choi_matrix``
and ``cp_certificate`` are the same core on a stack of one. Contract: every
superoperator, Choi matrix and Choi spectrum is bit-identical to mapping
each E_jk by its own assign-conjugate-trace and summing the Choi blocks
E_jk (x) M[E_jk], one coupling at a time, which is why the images are not
combined before the conjugation and the kept blocks are not computed alone;
both save flops but round differently. A search or sweep reports the same
draws, minima and first witnesses as one coupling at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

import numpy as np

from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    consistency_defect,
    orthogonal_flag_assignment,
    positivity_certificate,
    probe_chunks,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.operators import (
    _hermitian_part,
    canonical_basis,
    chunk_ranges,
    ginibre_densities,
    haar_unitaries,
    partial_trace,
    qubit_states,
    random_density,
    random_unitary,
    require_hermitian,
    require_unitary,
    trace_norm,
)

__all__ = [
    "CP_TOL",
    "NONCP_THRESHOLD",
    "SWEEP_COUPLINGS",
    "induced_map",
    "ChoiMatrix",
    "choi_matrix",
    "CPReport",
    "cp_certificate",
    "replay_unitary",
    "NonCPSearch",
    "find_noncp_unitary",
    "CPSweep",
    "classical_cp_sweep",
    "ConditionRow",
    "ConditionTable",
    "EXPECTED_CONDITIONS",
    "assignment_condition_table",
]

# CP is decided at -1e-9 on the Choi spectrum; asserting genuine non-CP uses
# the stricter -1e-6 to stay clear of numerical noise.
CP_TOL = 1e-9
NONCP_THRESHOLD = -1e-6
SWEEP_COUPLINGS = 10  # Haar couplings per assignment in the classical sweep


def _unit_images(assignment) -> np.ndarray:
    """Assigned images of the d_s^2 distinct Hermitian parts of the matrix units.

    E_jk = H_jk + i K_jk with H = (E + E^dag)/2 and K = (E - E^dag)/2i. Slot
    j*d_s + k holds the image of H_jk for j <= k and of K_kj for j > k; the
    rest follow from H_kj = H_jk, K_kj = -K_jk and K_jj = 0. The images come
    from one stacked call of the family's own ``apply``.
    """
    d = assignment.dim_s
    inputs = []
    for j in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[min(j, k), max(j, k)] = 1.0
            if j <= k:
                inputs.append((unit + unit.conj().T) / 2)
            else:
                inputs.append((unit - unit.conj().T) / 2j)
    return assignment.apply(np.stack(inputs))


@cache
def _unit_slots(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each matrix unit E_jk, row-major: the image slot of H_jk, the slot
    of K_jk up to sign, and that sign (0 on the diagonal)."""
    j, k = np.divmod(np.arange(d * d), d)
    lo, hi = np.minimum(j, k), np.maximum(j, k)
    slots = (lo * d + hi, hi * d + lo, np.sign(k - j))
    for a in slots:
        a.setflags(write=False)
    return slots


def _superoperator(images: np.ndarray, assignment, u: np.ndarray) -> np.ndarray:
    """Superoperator matrices (K, d_s^2, d_s^2) induced by a stack of K
    couplings ``u`` from the assignment's unit images: conjugate every image
    by every coupling, trace out the environment, assemble the columns H + iK.

    Every (coupling, image) pair gets the same two matrix products and the
    same trace as a lone operator would, so the columns are bit-identical to
    mapping each matrix unit on its own under each coupling alone. A block of
    pairs, bounded by ``chunk_ranges``, is a block of whole couplings by all
    images, or one coupling by a block of images when one coupling's images
    exceed the budget.
    """
    d_s, d_e = assignment.dim_s, assignment.dim_e
    u = require_unitary(u)
    if u.ndim != 3 or u.shape[-1] != d_s * d_e:
        raise ValueError(f"expected a stack of {d_s * d_e}-dimensional unitaries, "
                         f"got shape {u.shape}")
    u, u_dag = u[:, None], u.conj()[:, None].swapaxes(-1, -2)
    k, n = u.shape[0], images.shape[0]
    traced = np.empty((k, n, d_s, d_s), dtype=complex)
    for c, c_end in chunk_ranges(k, images.nbytes):
        for i, i_end in chunk_ranges(n, images[0].nbytes):
            joint = u[c:c_end] @ images[i:i_end] @ u_dag[c:c_end]
            traced[c:c_end, i:i_end] = np.einsum(
                "kniaja->knij", joint.reshape(joint.shape[:2] + (d_s, d_e, d_s, d_e)))
    herm, skew, sign = _unit_slots(d_s)
    columns = traced[:, herm] + 1j * (sign[:, None, None] * traced[:, skew])
    return np.ascontiguousarray(columns.reshape(k, d_s * d_s, d_s * d_s).swapaxes(-1, -2))


def induced_map(assignment, u: np.ndarray) -> np.ndarray:
    """Read-only superoperator matrix of: assign, conjugate by ``u``, trace out the environment.

    Assignments are defined on Hermitian operators only, so each matrix unit
    is extended complex-linearly through its Hermitian decomposition
    E = H + iK.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError(f"expected one unitary, got shape {u.shape}")
    mat = _superoperator(_unit_images(assignment), assignment, u[None])[0]
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Block matrix sum_jk E_jk (x) M[E_jk]; positive iff M is completely positive."""

    mat: np.ndarray
    spectrum: np.ndarray  # ascending real eigenvalues


def _choi(mats: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Choi matrices of superoperator matrices (..., d^2, d^2) and their
    ascending spectra, from one stacked eigensolve."""
    # block (j, k) is column j*d + k of the superoperator, reshaped to d x d;
    # summing onto zeros, as the block sum does, makes every zero +0.0, and
    # the spectrum's bits depend on the signs of zeros
    lead = mats.ndim - 2
    c = np.zeros(mats.shape, dtype=complex)
    c += mats.reshape(mats.shape[:-2] + (d, d, d, d)).transpose(
        *range(lead), lead + 2, lead, lead + 3, lead + 1).reshape(mats.shape)
    require_hermitian(c, tol=1e-9, name="Choi matrix")
    return c, np.linalg.eigvalsh(_hermitian_part(c))


def choi_matrix(superop: np.ndarray) -> ChoiMatrix:
    d = isqrt(len(superop))
    if not d or np.shape(superop) != (d * d, d * d):
        raise ValueError(f"expected a (d^2, d^2) superoperator matrix, got shape {np.shape(superop)}")
    c, spectrum = _choi(np.asarray(superop), d)
    c.setflags(write=False)
    spectrum.setflags(write=False)
    return ChoiMatrix(mat=c, spectrum=spectrum)


def _choi_minima(images: np.ndarray, assignment, u: np.ndarray) -> np.ndarray:
    """Smallest Choi eigenvalue of the map induced by each coupling of ``u``."""
    return _choi(_superoperator(images, assignment, u), assignment.dim_s)[1][:, 0]


@dataclass(frozen=True)
class CPReport:
    lambda_min_choi: float
    is_cp: bool
    is_tp: bool


def cp_certificate(superop: np.ndarray) -> CPReport:
    """Complete positivity and trace preservation of a superoperator matrix."""
    choi = choi_matrix(superop)
    lam_min = float(choi.spectrum[0])
    d = isqrt(choi.mat.shape[0])
    tp_defect = np.max(np.abs(partial_trace(choi.mat, d, d, "E") - np.eye(d)))
    return CPReport(lambda_min_choi=lam_min, is_cp=lam_min >= -CP_TOL, is_tp=tp_defect <= CP_TOL)


def replay_unitary(seed: int, index: int, dim: int) -> np.ndarray:
    """Regenerate the Haar draw used at one index of a seeded search."""
    return random_unitary(dim, np.random.default_rng([seed, index]))


@dataclass(frozen=True)
class NonCPSearch:
    """Outcome of a seeded random search for a CP-breaking unitary."""

    found: bool
    seed: int
    attempts: int
    first_index: int | None
    first_lambda: float | None
    best_index: int
    best_lambda: float


def find_noncp_unitary(assignment, attempts: int, seed: int) -> NonCPSearch:
    """Search seeded Haar unitaries for one whose induced map is not CP.

    Draw ``i`` uses the stream keyed by (seed, i), so any witness is
    replayable with :func:`replay_unitary` independently of the scan order.
    """
    dim = assignment.dim_s * assignment.dim_e
    first_index = None
    first_lambda = None
    best_index = -1
    best_lambda = np.inf
    images = _unit_images(assignment)
    # a chunk of couplings is bounded by their normals and unitaries;
    # _superoperator bounds their joint operators on its own
    for lo, hi in chunk_ranges(attempts, 32 * dim * dim):
        # the normals replay_unitary(seed, i) draws, one stream per index
        normals = np.stack([np.random.default_rng([seed, i]).standard_normal((2, dim, dim))
                            for i in range(lo, hi)])
        lams = _choi_minima(images, assignment, haar_unitaries(normals))
        i = int(np.argmin(lams))  # the first minimum, as a strict < scan keeps
        if lams[i] < best_lambda:
            best_index, best_lambda = lo + i, lams[i]
        below = np.flatnonzero(lams < NONCP_THRESHOLD)
        if first_index is None and below.size:
            first_index, first_lambda = lo + int(below[0]), float(lams[below[0]])
    return NonCPSearch(
        found=first_index is not None,
        seed=seed,
        attempts=attempts,
        first_index=first_index,
        first_lambda=first_lambda,
        best_index=best_index,
        best_lambda=float(best_lambda),
    )


@dataclass(frozen=True)
class CPSweep:
    maps_checked: int
    min_lambda: float
    all_cp: bool


def classical_cp_sweep(n_assignments: int, dim_s: int, dim_e: int, seed: int) -> CPSweep:
    """Check that random zero-discord assignments with positive environment
    states always induce CP maps, under ``SWEEP_COUPLINGS`` Haar couplings each."""
    rng = np.random.default_rng(seed)
    dim = dim_s * dim_e
    min_lambda = np.inf
    maps_checked = 0
    for _ in range(n_assignments):
        z = random_zero_discord_assignment(dim_s, dim_e, rng)
        images = _unit_images(z)
        # consecutive draws: a stack is the same stream as one draw at a time
        for lo, hi in chunk_ranges(SWEEP_COUPLINGS, 32 * dim * dim):
            lams = _choi_minima(images, z, random_unitary(dim, rng, hi - lo))
            min_lambda = min(min_lambda, float(np.min(lams)))
            maps_checked += hi - lo
    return CPSweep(maps_checked=maps_checked, min_lambda=float(min_lambda),
                   all_cp=min_lambda >= -CP_TOL)


EXPECTED_CONDITIONS = {
    "none": (True, True, True),
    "classical": (True, False, True),
    "quantum": (True, True, False),
}


@dataclass(frozen=True, eq=False)
class ConditionRow:
    family: str
    linear: bool
    consistent: bool
    positive: bool
    max_linearity_defect: float
    max_consistency_defect: float
    min_output_eigenvalue: float

    @property
    def conditions(self) -> tuple[bool, bool, bool]:
        return (self.linear, self.consistent, self.positive)


@dataclass(frozen=True, eq=False)
class ConditionTable:
    rows: tuple[ConditionRow, ...]

    @property
    def matches_expected(self) -> bool:
        return all(row.conditions == EXPECTED_CONDITIONS[row.family] for row in self.rows)


def _linearity_defect(assignment, samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    d = assignment.dim_s
    for lo, hi in probe_chunks(assignment, samples):
        # a sample draws its weight, then the Ginibre pairs of its two
        # states; the draws stay per sample, in stream order, and both
        # states of the chunk are built in one stacked pass
        n = hi - lo
        a = np.empty((n, 1, 1))
        normals = np.empty((2, n, 2, d, d))
        for i in range(n):
            a[i] = rng.uniform(-1.0, 2.0)
            normals[:, i] = rng.standard_normal((2, 2, d, d))
        b = 1.0 - a
        rho1, rho2 = ginibre_densities(normals)
        mixed = assignment.apply(a * rho1 + b * rho2)
        split = a * assignment.apply(rho1) + b * assignment.apply(rho2)
        worst = max(worst, float(np.max(trace_norm(mixed - split))))
    return worst


def _consistency_defect_max(assignment, samples: int, rng: np.random.Generator) -> float:
    d = assignment.dim_s
    worst = 0.0
    if d == 2:
        worst = float(np.max(consistency_defect(assignment, np.stack(qubit_states()))))
    for lo, hi in probe_chunks(assignment, samples):
        states = random_density(d, rng, hi - lo)
        worst = max(worst, float(np.max(consistency_defect(assignment, states))))
    return worst


def assignment_condition_table(seed: int, samples: int) -> ConditionTable:
    """Linearity / consistency / positivity verdicts for the three qubit
    assignment families: uncorrelated product, classically correlated
    zero-discord, and quantum-correlated orthogonal flags."""
    rng = np.random.default_rng(seed)
    basis = canonical_basis(2)
    families = (
        ("none", product_assignment(basis, random_density(2, rng))),
        ("classical", LinearAssignment(
            OrthogonalProjectorSet.computational(2),
            random_density(2, rng, 2),
        )),
        ("quantum", orthogonal_flag_assignment(basis)),
    )
    n_lin = max(20, samples // 10)
    rows = []
    for family, assignment in families:
        lin = _linearity_defect(assignment, n_lin, rng)
        cons = _consistency_defect_max(assignment, n_lin, rng)
        pos = positivity_certificate(assignment, samples, rng)
        rows.append(ConditionRow(
            family=family,
            linear=lin <= 1e-9,
            consistent=cons <= 1e-10,
            positive=pos.passed(),
            max_linearity_defect=float(lin),
            max_consistency_defect=float(cons),
            min_output_eigenvalue=float(pos.min_eigenvalue),
        ))
    return ConditionTable(rows=tuple(rows))
