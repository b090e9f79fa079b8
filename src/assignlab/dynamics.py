"""Induced dynamical maps: trace out the environment after a unitary acts on
an assigned system-environment operator.

The composed map is its superoperator matrix, a plain complex ndarray acting
on row-major vectorized operators; complete positivity is certified through
the spectrum of its Choi matrix. Includes the seeded random search for
unitaries that break complete positivity, and the summary table of
linearity/consistency/positivity per correlation family. The results carry
Choi eigenvalues, defects and counts; the command line's gates decide on them.

The full path is ``induced_map`` then ``choi_matrix``. Contract: a
coupling's superoperator, Choi matrix and Choi spectrum are bit-identical to
mapping each E_jk by its own assign-conjugate-trace and summing the Choi
blocks E_jk (x) M[E_jk], which is why the images are not combined before the
conjugation and the kept blocks are not computed alone; both save flops but
round differently. The non-CP search (``find_noncp_unitary``) and the
classical sweep (``classical_cp_sweep``) rank their couplings on cheaper
forms of the same Choi spectrum and say where they take the full path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import isqrt

import numpy as np

from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    canonical_flags,
    consistency_defect,
    positivity_certificate,
    probe_chunks,
    product_assignment,
    zero_discord_assignment,
    zero_discord_size,
)
from assignlab.operators import (
    _hermitian_part,
    canonical_basis,
    chunk_ranges,
    ginibre_densities,
    haar_unitaries,
    min_eigenvalue,
    partial_trace,
    qubit_states,
    random_density,
    random_unitary,
    require_hermitian,
    require_unitary,
    trace_norm,
)

__all__ = [
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
    "assignment_condition_table",
]

# a search witness needs a Choi eigenvalue below -1e-6, clear of the
# numerical noise the CP decision (-1e-9, on the command line) allows
NONCP_THRESHOLD = -1e-6
# the non-CP search confirms its first witness on the full path among the
# couplings screened this close to NONCP_THRESHOLD or below it
SCREEN_TOL = 1e-10
SWEEP_COUPLINGS = 10  # Haar couplings per assignment in the classical sweep


@cache
def _unit_inputs(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The d^2 distinct Hermitian parts of the matrix units, and where each
    matrix unit finds its own; all read-only.

    E_jk = H_jk + i K_jk with H = (E + E^dag)/2 and K = (E - E^dag)/2i. Input
    slot j*d + k holds H_jk for j <= k and K_kj for j > k; the rest follow
    from H_kj = H_jk, K_kj = -K_jk and K_jj = 0. Then, for each E_jk in
    row-major order: the slot of H_jk, the slot of K_jk up to sign, and that
    sign (0 on the diagonal). The entries carry the bits, signed zeros
    included, of forming each H and K from its matrix unit.
    """
    slot = np.arange(d * d)
    j, k = np.divmod(slot, d)
    lo, hi = np.minimum(j, k), np.maximum(j, k)
    herm, skew, sign = lo * d + hi, hi * d + lo, np.sign(k - j)
    half = np.where(j == k, 1.0, 0.5)
    inputs = np.zeros((d * d, d, d), dtype=complex)
    inputs[slot, lo, hi] = np.where(j > k, complex(0.0, -0.5), half)
    inputs[slot, hi, lo] = np.where(j > k, complex(0.0, 0.5), half)
    table = (inputs, herm, skew, sign)
    for a in table:
        a.setflags(write=False)
    return table


def induced_map(assignment, u: np.ndarray) -> np.ndarray:
    """Read-only superoperator matrix of: assign, conjugate by ``u``, trace out the environment.

    Assignments are defined on Hermitian operators only, so each matrix unit
    is extended complex-linearly through its Hermitian decomposition
    E = H + iK. The images of the d_s^2 distinct parts are built one block
    of inputs at a time, one call of the assignment's ``apply`` a block, in
    blocks bounded by ``chunk_ranges`` at one D x D image an input, so one
    block of images is held at a time. Each image gets its own two matrix
    products and trace, so the columns are bit-identical to mapping each
    matrix unit on its own.
    """
    d_s, d_e = assignment.dim_s, assignment.dim_e
    dim = d_s * d_e
    if np.shape(u) != (dim, dim):
        raise ValueError(f"expected one {dim}-dimensional unitary, got shape {np.shape(u)}")
    u = require_unitary(u)
    inputs, herm, skew, sign = _unit_inputs(d_s)
    u_dag = u.conj().T
    traced = np.empty((len(inputs), d_s, d_s), dtype=complex)
    for i, i_end in chunk_ranges(len(inputs), 16 * dim * dim):
        # conjugated in the images' own buffer, which is freed before the
        # next block is mapped
        images = assignment.apply(inputs[i:i_end])
        np.matmul(u @ images, u_dag, out=images)
        traced[i:i_end] = np.einsum("niaja->nij", images.reshape(-1, d_s, d_e, d_s, d_e))
        del images
    columns = traced[herm] + 1j * (sign[:, None, None] * traced[skew])
    mat = np.ascontiguousarray(columns.reshape(d_s * d_s, d_s * d_s).T)
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
    """Choi matrix and spectrum of a (d^2, d^2) superoperator matrix, from
    one eigensolve; any other shape is a ValueError."""
    d = isqrt(len(superop))
    if not d or np.shape(superop) != (d * d, d * d):
        raise ValueError(f"expected a (d^2, d^2) superoperator matrix, got shape {np.shape(superop)}")
    c, spectrum = _choi(np.asarray(superop), d)
    c.setflags(write=False)
    spectrum.setflags(write=False)
    return ChoiMatrix(mat=c, spectrum=spectrum)


@dataclass(frozen=True)
class CPReport:
    lambda_min_choi: float  # the map is CP iff this is nonnegative
    tp_defect: float  # largest entry of |Tr_out Choi - I|; 0 iff trace preserving


def cp_certificate(superop: np.ndarray) -> CPReport:
    """Complete positivity and trace preservation values of a superoperator matrix."""
    choi = choi_matrix(superop)
    d = isqrt(choi.mat.shape[0])
    tp_defect = np.max(np.abs(partial_trace(choi.mat, d, d, "E") - np.eye(d)))
    return CPReport(lambda_min_choi=float(choi.spectrum[0]), tp_defect=float(tp_defect))


def replay_unitary(seed: int, index: int, dim: int) -> np.ndarray:
    """Regenerate the Haar draw used at one index of a seeded search."""
    return random_unitary(dim, np.random.default_rng([seed, index]))


@dataclass(frozen=True)
class NonCPSearch:
    """Outcome of ``find_noncp_unitary``, whose docstring says how each
    field is found. ``first_unitary`` is the first witness's coupling,
    read-only, or None when nothing was found; a caller can check a replay
    of ``first_index`` against its bits. It takes no part in equality or
    repr, which compare the reported fields only. ``found`` says whether
    ``first_*`` exist."""

    found: bool
    seed: int
    attempts: int
    first_index: int | None
    first_lambda: float | None
    best_index: int
    best_lambda: float
    first_unitary: np.ndarray | None = field(default=None, compare=False, repr=False)


def _factor(assignment) -> tuple[np.ndarray, np.ndarray]:
    """The induced map's factors (W, T) of one assignment: coupling U induces
    the superoperator vec(A) T, with A_r = Tr_E[U w_r w_r^dag U^dag] over the
    columns w_r of the assignment's ``_columns`` W and T[r, jk] =
    t_r q_owner(r)(E_jk) = t_r (F_owner(r))_kj, q extended complex-linearly
    through the basis's dual frame F, q_i(h) = Tr[F_i h]: the factored form
    of Jordan, Shaji and Sudarshan, PRA 70, 052110 (2004)."""
    owner, t, w = assignment._columns
    frame = assignment.basis.dual_frame[owner].swapaxes(-1, -2)
    return w, frame.reshape(len(owner), -1) * t[:, None]


def _screen_minima(factor, assignment, u: np.ndarray) -> np.ndarray:
    """Smallest Choi eigenvalue of the map induced by each coupling of ``u``,
    up to rounding, from the factored map: D^2 R flops per coupling for U W,
    against 2 d_s^2 D^3 on the full path (128 times fewer for the flags at
    (4, 4))."""
    d_s, d_e = assignment.dim_s, assignment.dim_e
    w, coeffs = factor
    # row r of (U W)^T, reshaped to (d_s, d_e), is X_r with A_r = X_r X_r^dag
    x = (w.T @ u.swapaxes(-1, -2)).reshape(len(u), -1, d_s, d_e)
    a = (x @ x.conj().swapaxes(-1, -2)).reshape(len(u), -1, d_s * d_s)
    return _choi(a.swapaxes(-1, -2) @ coeffs, d_s)[1][:, 0]


def _first_witness(assignment, u: np.ndarray, screened: np.ndarray, lo: int):
    """(index, lambda, read-only copy of the unitary) of the first witness
    that ``find_noncp_unitary`` confirms in a chunk of couplings starting at
    ``lo``, or None."""
    for i in np.flatnonzero(screened < NONCP_THRESHOLD + SCREEN_TOL):
        lam = choi_matrix(induced_map(assignment, u[i])).spectrum[0]
        if not abs(lam - screened[i]) <= SCREEN_TOL:
            raise RuntimeError(f"coupling {lo + i}: the screened Choi minimum "
                               f"{screened[i]!r} is off the full path's {lam!r} "
                               f"by more than {SCREEN_TOL:.0e}")
        if lam < NONCP_THRESHOLD:
            witness = u[i].copy()
            witness.setflags(write=False)
            return lo + int(i), float(lam), witness
    return None


def find_noncp_unitary(assignment, attempts: int, seed: int) -> NonCPSearch:
    """Search seeded Haar unitaries for one whose induced map is not CP: a
    witness has a Choi eigenvalue below ``NONCP_THRESHOLD``.

    Draw ``i`` uses the stream keyed by (seed, i), so any witness is
    replayable with :func:`replay_unitary` independently of the scan order;
    the first witness's coupling is returned too, as ``first_unitary``. The
    streams are those of ``default_rng([seed, i])``, bit for bit, from one
    hash pass per chunk of 16384 indices (``_seeds.keyed_streams``) in place
    of a SeedSequence per index, while ``replay_unitary`` goes through
    ``default_rng`` itself; a negative ``seed`` raises ValueError, as
    ``default_rng`` does, and so do ``attempts`` below one.

    Each chunk of couplings, sized by their normals and unitaries, is one
    Haar draw (one stacked QR), screened on the factored map (``_factor``,
    ``_screen_minima``). The best is the first lowest screened value, the
    same bits as screening its coupling alone and within 1e-12 of the full
    path's (measured below 4e-15 at d_s <= 5). Only the first witness is
    confirmed on the full path, ``induced_map`` and ``choi_matrix``: the
    couplings screened below NONCP_THRESHOLD + SCREEN_TOL run on it in
    order, up to the first one confirmed below NONCP_THRESHOLD; a confirmed
    value further than SCREEN_TOL from its screened one (or NaN) raises
    RuntimeError. The unit images are built only when a coupling reaches
    confirmation, so a search that confirms none calls no ``apply``. The
    draws and first witness are those of scanning every coupling on the full
    path, but on one coupling ``first_lambda`` and ``best_lambda`` may
    differ in the last bits.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    dim = assignment.dim_s * assignment.dim_e
    first = None
    best_index, best_lambda = -1, np.inf
    factor = _factor(assignment)
    # imported here: it imports numpy.random, which importing the package does not
    from assignlab._seeds import keyed_streams

    streams = keyed_streams(seed, attempts)
    # a chunk of couplings is bounded by their normals and unitaries (the
    # screen's U W is R/D of the unitaries); induced_map bounds the joint
    # operators of each witness candidate it confirms on its own
    for lo, hi in chunk_ranges(attempts, 32 * dim * dim):
        # the normals replay_unitary(seed, i) draws, one stream per index
        normals = np.empty((hi - lo, 2, dim, dim))
        for normal, stream in zip(normals, streams):
            stream.standard_normal(out=normal)
        u = haar_unitaries(normals)
        del normals, normal  # freed once the unitaries are built
        screened = _screen_minima(factor, assignment, u)
        if first is None:
            first = _first_witness(assignment, u, screened, lo)
        i = int(np.argmin(screened))
        if screened[i] < best_lambda:
            best_index, best_lambda = lo + i, float(screened[i])
    first_index, first_lambda, first_unitary = first or (None, None, None)
    return NonCPSearch(
        found=first is not None,
        seed=seed,
        attempts=attempts,
        first_index=first_index,
        first_lambda=first_lambda,
        best_index=best_index,
        best_lambda=best_lambda,
        first_unitary=first_unitary,
    )


@dataclass(frozen=True)
class CPSweep:
    """``min_lambda``: the lowest Choi block minimum of ``maps_checked``
    couplings, within 1e-12 of the full path's."""

    maps_checked: int
    min_lambda: float


def _block_minima(assignment, u: np.ndarray) -> np.ndarray:
    """Smallest Choi eigenvalue of the map each coupling induces from a
    zero-discord assignment, up to rounding, from its Choi block spectrum;
    couplings (k, D, D), or (n, k, D, D) for a stack of n assignments.

    The map Lambda(rho) = sum_i Tr[Pi_i rho] A_i, A_i = Tr_E[U (Pi_i (x)
    tau_i) U^dag], has the Choi matrix sum_i conj(Pi_i) (x) A_i, whose
    spectrum is the union of the spectra of the A_i, which is why classical
    correlations give CP maps (Rodriguez-Rosario et al., J. Phys. A 41,
    205301 (2008)). With the eigenpairs
    (t_im, e_im) of tau_i, signed, A_i = sum_m t_im X_im X_im^dag for the
    columns x_im = U (v_i (x) e_im), reshaped to (d_s, d_e): D^3 flops and
    d_s eigensolves of d_s x d_s per coupling.
    """
    d_s, d_e = assignment.dim_s, assignment.dim_e
    t, e = np.linalg.eigh(assignment.env_ops)
    w = np.einsum("...is,...iem->...seim", assignment.basis.vectors, e)
    x = u @ w.reshape(w.shape[:-4] + (1, d_s * d_e, d_s * d_e))
    # rows (i, s) of X_im stacked over (e, m): A_i = Y_i diag(t_i) Y_i^dag
    y = np.moveaxis(x.reshape(x.shape[:-2] + (d_s, d_e, d_s, d_e)), -2, -4)
    y = y.reshape(y.shape[:-2] + (d_e * d_e,))
    ty = y * np.tile(t, d_e)[..., None, :, None, :]
    np.conjugate(ty, out=ty)
    return min_eigenvalue(y @ ty.swapaxes(-1, -2)).min(axis=-1)


def classical_cp_sweep(n_assignments: int, dim_s: int, dim_e: int,
                       rng: np.random.Generator) -> CPSweep:
    """Check that random zero-discord assignments with positive environment
    states always induce CP maps, under ``SWEEP_COUPLINGS`` Haar couplings each.

    An assignment draws the normals ``zero_discord_assignment`` builds it
    from, then its couplings' normals: one draw per chunk of assignments is
    the same stream. A chunk is budgeted for the arrays its couplings hold,
    six D x D each: the normals, the Ginibre matrix and its QR, the unitary
    and the screen's x, y and ty. An assignment whose couplings alone exceed
    ``_CHUNK_BYTES`` then charges more than half of it, so it is a chunk of
    its own and draws its later couplings in chunks of their own.

    Every coupling is screened on the Choi block spectrum
    (``_block_minima``), which is the certificate itself: ``min_lambda`` is
    the lowest screened value, the same bits as screening its coupling
    alone and within 1e-12 of the full path's, and no coupling runs on the
    full path. ``n_assignments`` below one raises ValueError.
    """
    if n_assignments < 1:
        raise ValueError("n_assignments must be at least 1")
    dim = dim_s * dim_e
    size = zero_discord_size(dim_s, dim_e)
    couplings = list(chunk_ranges(SWEEP_COUPLINGS, 32 * dim * dim))
    per_assignment = 16 * dim * dim * 6 * SWEEP_COUPLINGS
    min_lambda = np.inf
    maps_checked = 0
    for lo, hi in chunk_ranges(n_assignments, per_assignment):
        n = hi - lo
        for c, c_end in couplings:
            # the chunk's first couplings share the draw of its assignments
            head = size if c == 0 else 0
            normals = rng.standard_normal((n, head + (c_end - c) * 2 * dim * dim))
            if c == 0:
                z = zero_discord_assignment(normals[:, :size], dim_s, dim_e)
            u = haar_unitaries(normals[:, head:].reshape(n, c_end - c, 2, dim, dim))
            screened = _block_minima(z, u)
            maps_checked += screened.size
            min_lambda = min(min_lambda, float(np.min(screened)))
    return CPSweep(maps_checked=maps_checked, min_lambda=min_lambda)


@dataclass(frozen=True, eq=False)
class ConditionRow:
    """One family's Table-1 row: the values its linear, consistent and
    positive cells are read from, at the command line's tolerances."""

    family: str
    max_linearity_defect: float
    max_consistency_defect: float
    min_output_eigenvalue: float


def _linearity_defect(assignment, samples: int, rng: np.random.Generator) -> float:
    worst = 0.0
    d = assignment.dim_s
    for lo, hi in probe_chunks(assignment, samples):
        # a sample draws its weight, then the Ginibre pairs of its two
        # states; the draws stay per sample, in stream order, and both
        # states of the chunk are built in one stacked pass. uniform(-1, 2)
        # is low + (high - low) * random(), the same arithmetic as below
        n = hi - lo
        a = np.empty((n, 1, 1))
        normals = np.empty((n, 2, 2, d, d))
        for i in range(n):
            a[i] = -1.0 + 3.0 * rng.random()
            rng.standard_normal(out=normals[i])
        b = 1.0 - a
        rho1, rho2 = ginibre_densities(normals).swapaxes(0, 1)
        # the mixture and both states through one apply
        mixed, out1, out2 = assignment.apply(np.stack([a * rho1 + b * rho2, rho1, rho2]))
        worst = max(worst, float(np.max(trace_norm(mixed - (a * out1 + b * out2)))))
    return worst


def _consistency_defect_max(assignment, samples: int, rng: np.random.Generator) -> float:
    """Largest consistency defect over the six axis states on qubits, then
    ``samples`` random states; the axis states join the first random chunk.
    ``consistency_defect`` reads each marginal from the weights, so a chunk
    is budgeted by its d x d states, not by D x D outputs."""
    d = assignment.dim_s
    fixed = np.stack(qubit_states()) if d == 2 else np.empty((0, d, d), dtype=complex)
    worst = 0.0
    for lo, hi in chunk_ranges(len(fixed) + samples, 16 * d * d):
        drawn = random_density(d, rng, hi - max(lo, len(fixed))) if hi > len(fixed) else fixed[:0]
        states = np.concatenate([fixed[lo:hi], drawn])
        worst = max(worst, float(np.max(consistency_defect(assignment, states))))
    return worst


def assignment_condition_table(samples: int,
                               rng: np.random.Generator) -> tuple[ConditionRow, ...]:
    """Linearity / consistency / positivity rows for the three qubit
    assignment families: uncorrelated product, classically correlated
    zero-discord, and quantum-correlated orthogonal flags."""
    basis = canonical_basis(2)
    families = (
        ("none", product_assignment(basis, random_density(2, rng))),
        ("classical", LinearAssignment(
            OrthogonalProjectorSet.computational(2),
            random_density(2, rng, 2),
        )),
        ("quantum", canonical_flags(2)),
    )
    n_lin = max(20, samples // 10)
    rows = []
    for family, assignment in families:
        lin = _linearity_defect(assignment, n_lin, rng)
        cons = _consistency_defect_max(assignment, n_lin, rng)
        pos = positivity_certificate(assignment, samples, rng)
        rows.append(ConditionRow(
            family=family,
            max_linearity_defect=float(lin),
            max_consistency_defect=float(cons),
            min_output_eigenvalue=float(pos.min_eigenvalue),
        ))
    return tuple(rows)
