"""Assignment maps from system states to system-environment operators.

One class carries every family: ``LinearAssignment`` maps a state to
sum_i q_i P_i (x) tau_i, reading the weights q from its ``basis``. On a
spanning ``ProjectorBasis`` (Pechukas) q are the dual-frame coefficients;
on an orthogonal measurement ``OrthogonalProjectorSet`` (the zero-discord
family) q_i = Tr[Pi_i state]. The factories ``product_assignment``,
``orthogonal_flag_assignment`` and ``broadcast_assignment`` (tau_i = P_i)
build the special cases, and ``zero_discord_assignment`` builds zero-discord
assignments, one or a stack, from standard normals (which
``random_zero_discord_assignment`` draws). ``canonical_flags(d)``, the flags
on ``canonical_basis(d)``, is built once per process and d and shared, with
its terms and support factor once built, all read-only: the process keeps
them, 16 d^8 bytes of terms per d once built, and a tracemalloc measurement
of a run must call ``canonical_flags.cache_clear()`` first to count
building them.
Checkers measure consistency and positivity and audit Hermiticity/trace
preservation, as values for gates. Consistency is read from the weights: the
system marginal of an output is sum_i q_i Tr(tau_i) P_i, d_s x d_s, so
``consistency_defect`` forms no joint operator.

``apply`` (and the basis's ``coefficients`` beneath it) maps one system
operator or a stack (..., d, d) of them. Environment operators stacked over
leading axes make a stack of assignments, one per entry, on one shared basis
or measurement or on a measurement stacked over the same axes. The probing
checkers draw their probe states as stacks with the same draws, the same
probe order and the same first-minimum witness as probing one state at a
time, each chunk within ``_CHUNK_BYTES`` of the matrices a probe holds:
``probe_chunks`` for outputs mapped through ``apply`` (D x D), and
``eigen_chunks`` for ``min_output_eigenvalue`` (R x R on the support factor
below). ``positivity_certificate`` chunks its whole probe sequence at once,
so a chunk may span probe kinds (basis projectors, axis states, random pure
and mixed states). ``pechukas_constraints`` needs no chunks: it weighs the
d_e x d_e environment operators by its four probe states' overlaps. The
Hermiticity/trace audit has two halves: ``audit_outputs`` maps caller-drawn
states, for one assignment or a stack, and ``audit_corruption`` corrupts one
assignment.

Positivity is decided by ``min_output_eigenvalue``. Every output lies in the
span of the R vectors v_i (x) e_im, where P_i = |v_i><v_i| and e_im are the
eigenvectors of tau_i with nonzero eigenvalues t_im: the output is
W diag(q_i t_im) W^dag for the columns W = [v_i (x) e_im]. When R is below
D = dim_s * dim_e (flags, measurements with pure or rank-deficient
environment operators), the assignment keeps the triangle G of W = QG, and
the smallest output eigenvalue is min(0, lambda_min(G diag(q_i t_im) G^dag)),
an R x R eigensolve in place of a D x D one; otherwise it eigensolves
``apply``'s output. When the columns are exactly orthogonal, as on the flags
(their environment factors are distinct basis vectors), G is exactly
diagonal and the spectrum on the support is read from the weights,
|g_r|^2 q t, with no eigensolve. One eigendecomposition of the tau_i per
assignment gives W, its weights and their owners, which the non-CP search's
factored induced map reads too; the factor counts R from the tau_i's
eigenvalues first, so an assignment with R >= D builds no W for it.
``env_negativity_report`` keeps the full
eigensolve, since it checks a block-spectrum claim about the assigned
operators themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import accumulate

import numpy as np

from assignlab.operators import (
    ProjectorBasis,
    _hermitian_part,
    _rank1_vectors,
    canonical_basis,
    chunk_ranges,
    expectations,
    ginibre_densities,
    haar_unitaries,
    hermiticity_defect,
    min_eigenvalue,
    qubit_states,
    random_density,
    random_pure,
    require_hermitian,
    require_unit_trace,
    tensor,
    trace_norm,
    weighted_sum,
)

__all__ = [
    "LinearAssignment",
    "OrthogonalProjectorSet",
    "product_assignment",
    "orthogonal_flag_assignment",
    "canonical_flags",
    "broadcast_assignment",
    "zero_discord_size",
    "zero_discord_assignment",
    "random_zero_discord_assignment",
    "consistency_defect",
    "dephase",
    "PositivityReport",
    "positivity_certificate",
    "EnvNegativityReport",
    "env_negativity_report",
    "EqualEnvVerdict",
    "equal_env_certificate",
    "PechukasResiduals",
    "pechukas_constraints",
    "audit_outputs",
    "audit_corruption",
    "probe_chunks",
    "eigen_chunks",
]

AUDIT_SAMPLES = 10  # random states of the forward Hermiticity/trace audit
# environment eigenvalues at most this far from zero are the rounding of an
# exact zero (a pure or rank-deficient tau) and leave the support factor;
# dropping one moves an output eigenvalue by at most this much
SUPPORT_EIG_TOL = 1e-14


def _one(assignment):
    """The assignment, refused with ValueError when it is a stack: the
    probing checkers take one assignment."""
    if assignment.env_ops.ndim != 3:
        raise ValueError(f"expected one assignment, got a stack {assignment.env_ops.shape[:-3]}")
    return assignment


def probe_chunks(assignment, total: int):
    """``chunk_ranges`` over ``total`` probe states of ``assignment`` mapped
    through ``apply``: each chunk's assigned joint operators fit in
    ``_CHUNK_BYTES``."""
    n = _one(assignment).dim_s * assignment.dim_e
    return chunk_ranges(total, 16 * n * n)


def eigen_chunks(assignment, total: int):
    """``chunk_ranges`` over ``total`` probe states of ``assignment`` handed to
    ``min_output_eigenvalue``: each chunk's matrices, R x R on the support
    factor and D x D without it, fit in ``_CHUNK_BYTES``. On a diagonal
    support factor a probe holds no matrix beyond its d_s x d_s state, so it
    is budgeted by that state, its coefficients and its R weights."""
    support = _one(assignment)._support
    if support is None:
        n = assignment.dim_s * assignment.dim_e
        return chunk_ranges(total, 16 * n * n)
    owner, *_, diagonal = support
    if diagonal is None:
        return chunk_ranges(total, 16 * len(owner) ** 2)
    d, count = assignment.dim_s, assignment.basis.projectors.shape[-3]
    return chunk_ranges(total, 16 * d * d + 8 * (count + len(owner)))


@dataclass(frozen=True, eq=False)
class LinearAssignment:
    """Linear assignment sum_i q_i(state) P_i (x) env_ops[i], with the
    weights q = ``basis.coefficients(state)`` and P_i = ``basis.projectors``.

    On a ``ProjectorBasis`` (dim_s^2 projectors) q are the coefficients of
    the state on the basis, so each P_i goes to P_i (x) env_ops[i]. On an
    ``OrthogonalProjectorSet`` (dim_s projectors Pi_i) q_i = Tr[Pi_i state]:
    the zero-discord family, whose output is classically correlated and
    which is positive iff every environment operator is. Environment
    operators stacked over leading axes make a stack of assignments, one per
    entry, which maps a stack of states entry by entry: on one basis or
    measurement shared by every entry, or on a stacked measurement with the
    same leading axes.

    Environment operators must be Hermitian and unit trace (that keeps the
    map Hermiticity and trace preserving); they are *not* required to be
    positive, which is exactly the property the checkers probe.
    """

    basis: ProjectorBasis | OrthogonalProjectorSet
    env_ops: np.ndarray  # stacked (..., number of projectors, dim_e, dim_e)

    def __post_init__(self):
        lead, count = self.basis.projectors.shape[:-3], self.basis.projectors.shape[-3]
        stack = np.array(self.env_ops, dtype=complex)
        if stack.ndim < 3 or stack.shape[-3] != count:
            raise ValueError(f"need {count} environment operators, got shape {stack.shape}")
        require_hermitian(stack, name="environment operator")
        require_unit_trace(stack, name="environment operator")
        if lead and stack.shape[:-3] != lead:
            raise ValueError(f"environment operators must be stacked as the basis {lead}, "
                             f"got shape {stack.shape}")
        stack.setflags(write=False)
        object.__setattr__(self, "env_ops", stack)

    @property
    def dim_s(self) -> int:
        return self.basis.dim

    @property
    def dim_e(self) -> int:
        return self.env_ops.shape[-1]

    @cached_property
    def _terms(self) -> np.ndarray:
        # stacked kron(P_i, tau_i), shape (..., n, D, D) with D = dim_s*dim_e
        return _read_only(tensor(self.basis.projectors, self.env_ops))

    @cached_property
    def _columns(self):
        """(owner, t, W) of one assignment, with every output
        W diag(q[owner] * t) W^dag: the R columns of W (D x R) are
        v_i (x) e_im over the eigenpairs (t_im, e_im) of tau_i with
        |t_im| > SUPPORT_EIG_TOL, and owner holds their i."""
        t, e = np.linalg.eigh(_one(self).env_ops)
        owner, m = np.nonzero(np.abs(t) > SUPPORT_EIG_TOL)
        columns = tensor(self.basis.vectors[owner, :, None], e[owner, :, m][:, :, None])
        return _read_only(owner, t[owner, m], columns[..., 0].T)

    @cached_property
    def _support(self):
        """(owner, t, G, G^dag, diagonal) with G the triangle of
        ``_columns``' W = QG and diagonal its diagonal when every entry off
        it is exactly zero (the columns of W exactly orthogonal, as on the
        flags), else None; None for a stack of assignments or when R >= D,
        where the factor saves nothing. R is counted as ``_columns`` counts
        it, so W is built only when the factor is."""
        if self.env_ops.ndim != 3:
            return None
        t = np.linalg.eigh(self.env_ops)[0]
        if np.count_nonzero(np.abs(t) > SUPPORT_EIG_TOL) >= self.dim_s * self.dim_e:
            return None
        owner, t, w = self._columns
        g = np.linalg.qr(w, mode="r")
        diagonal = np.diagonal(g)
        if np.count_nonzero(g - np.diag(diagonal)):
            diagonal = None
        return owner, t, *_read_only(g, g.conj().T, diagonal)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Map a Hermitian system operator, or a stack of them, to
        sum_i q_i P_i (x) env_ops[i]."""
        return weighted_sum(self.basis.coefficients(state), self._terms)

    def min_output_eigenvalue(self, state: np.ndarray):
        """Smallest eigenvalue of ``apply(state)``, one per state of a stack:
        on the support factor when there is one, since W = QG with
        orthonormal Q leaves the output the spectrum of G diag(w) G^dag and
        D - R zeros; otherwise from the full output, bit for bit. When G is
        diagonal, G diag(w) G^dag is diag(g_r w_r conj(g_r)), read off with
        no eigensolve."""
        if self._support is None:
            # min_eigenvalue's steps inline, as its parameter would keep the
            # output alive through the eigensolve: here the output is a
            # temporary, freed once its Hermitian part is formed, so the
            # eigensolve holds two D x D stacks, not three
            return np.linalg.eigvalsh(_hermitian_part(self.apply(state)))[..., 0]
        owner, t, g, g_dag, diagonal = self._support
        w = self.basis.coefficients(state)[..., owner] * t
        if diagonal is not None:
            return np.minimum(np.min((diagonal * w * diagonal.conj()).real, axis=-1), 0.0)
        return np.minimum(min_eigenvalue((g * w[..., None, :]) @ g_dag), 0.0)


def _read_only(*arrays):
    """The arrays, each set read-only with every array it views; the one
    array when given one."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.setflags(write=False)
            a = a.base
    return arrays[0] if len(arrays) == 1 else arrays


def product_assignment(basis: ProjectorBasis, env_state: np.ndarray) -> LinearAssignment:
    """Assignment sending every state to state (x) env_state."""
    env_state = np.asarray(env_state, dtype=complex)
    return LinearAssignment(basis, np.broadcast_to(env_state, (basis.size,) + env_state.shape))


def orthogonal_flag_assignment(basis: ProjectorBasis) -> LinearAssignment:
    """Assignment tagging each basis projector with a distinct orthonormal
    environment flag |i><i| on an environment of dimension dim_s^2."""
    return LinearAssignment(basis, OrthogonalProjectorSet.computational(basis.size).projectors)


@cache
def canonical_flags(d: int) -> LinearAssignment:
    """``orthogonal_flag_assignment(canonical_basis(d))``, built once per d
    and shared, as ``canonical_basis`` is: its terms, support columns and
    factor are built on first use and kept with it, all read-only, until
    ``canonical_flags.cache_clear()``."""
    return orthogonal_flag_assignment(canonical_basis(d))


def broadcast_assignment(basis: ProjectorBasis | OrthogonalProjectorSet) -> LinearAssignment:
    """Assignment copying each projector to both legs: P_i -> P_i (x) P_i.

    On a projector basis both marginals of the output reproduce the input,
    and positivity fails on states whose basis decomposition has a negative
    coefficient. On a measurement it broadcasts the measurement-diagonal
    part of the input, positively.
    """
    return LinearAssignment(basis, basis.projectors)


@dataclass(frozen=True, eq=False)
class OrthogonalProjectorSet:
    """Complete set of d mutually orthogonal rank-1 projectors, or a stack of
    such sets (..., d, d, d)."""

    projectors: np.ndarray  # stacked (..., d, d, d)

    def __post_init__(self):
        stack = np.array(self.projectors, dtype=complex)
        d = stack.shape[-1]
        if stack.ndim < 3 or stack.shape[-3:] != (d, d, d):
            raise ValueError(f"need {d} projectors of dimension {d}, got shape {stack.shape}")
        require_hermitian(stack, name="projector")
        require_unit_trace(stack, name="projector")
        for i in range(d):  # Pi_i Pi_j = delta_ij Pi_i, one i at a time to bound memory
            products = stack[..., i:i + 1, :, :] @ stack
            products[..., i, :, :] -= stack[..., i, :, :]
            if np.max(np.abs(products)) > 1e-10:
                raise ValueError("projectors are not mutually orthogonal")
        if np.max(np.abs(stack.sum(axis=-3) - np.eye(d))) > 1e-10:
            raise ValueError("projectors do not resolve the identity")
        stack.setflags(write=False)
        object.__setattr__(self, "projectors", stack)

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @cached_property
    def vectors(self) -> np.ndarray:
        """Unit vectors v_i with Pi_i = |v_i><v_i|, stacked (..., d, d)."""
        return _rank1_vectors(self.projectors)

    @property
    def dual_frame(self) -> np.ndarray:
        """The projectors themselves: Tr[Pi_i Pi_j] = delta_ij, so q_i = Tr[Pi_i state]."""
        return self.projectors

    def coefficients(self, state: np.ndarray) -> np.ndarray:
        """Measurement weights Tr[state Pi_i], (..., dim) for a stack."""
        state = require_hermitian(state, tol=1e-9, name="state")
        if state.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"state shape {state.shape} does not match dim {self.dim}")
        return expectations(self.projectors, state).real

    @classmethod
    @cache
    def computational(cls, d: int) -> "OrthogonalProjectorSet":
        """The projectors |i><i|, built once per d and shared."""
        stack = np.zeros((d, d, d), dtype=complex)
        i = np.arange(d)
        stack[i, i, i] = 1.0
        return cls(stack)

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "OrthogonalProjectorSet":
        """Projectors onto the columns of a unitary, or of each of a stack."""
        columns = np.ascontiguousarray(np.swapaxes(np.asarray(u, dtype=complex), -1, -2))
        # the product np.outer forms for each column
        return cls(columns[..., :, :, None] * columns.conj()[..., :, None, :])


def zero_discord_size(dim_s: int, dim_e: int) -> int:
    """Standard normals one zero-discord assignment is built from."""
    return 2 * dim_s * (dim_s + dim_e * dim_e)


def zero_discord_assignment(normals: np.ndarray, dim_s: int, dim_e: int) -> LinearAssignment:
    """Zero-discord assignment from ``zero_discord_size`` standard normals,
    or a stack of them from normals (..., zero_discord_size): the first
    Ginibre pair makes a Haar-random measurement, the next dim_s pairs its
    Hilbert-Schmidt-random (hence positive) environment states, as
    ``random_unitary`` and ``random_density`` would draw them back to back."""
    lead = normals.shape[:-1]
    measured, envs = np.split(normals, [2 * dim_s * dim_s], axis=-1)
    u = haar_unitaries(measured.reshape(lead + (2, dim_s, dim_s)))
    return LinearAssignment(OrthogonalProjectorSet.from_unitary(u),
                            ginibre_densities(envs.reshape(lead + (dim_s, 2, dim_e, dim_e))))


def random_zero_discord_assignment(
    dim_s: int, dim_e: int, rng: np.random.Generator
) -> LinearAssignment:
    """Haar-random measurement basis with Hilbert-Schmidt-random (hence
    positive) environment states, from one normal draw."""
    normals = rng.standard_normal(zero_discord_size(dim_s, dim_e))
    return zero_discord_assignment(normals, dim_s, dim_e)


def consistency_defect(assignment, state: np.ndarray):
    """Trace-norm distance between the system marginal of the assigned
    operator and the input state; zero iff the assignment is consistent
    on this state. One distance per state of a stack, for one assignment or
    a stack of them.

    The marginal is read from the weights, with no joint operator:
    Tr_E[sum_i q_i P_i (x) tau_i] = sum_i q_i Tr(tau_i) P_i, a d_s x d_s
    weighted sum of the projectors."""
    state = np.asarray(state, dtype=complex)
    basis = assignment.basis
    env_traces = np.trace(assignment.env_ops, axis1=-2, axis2=-1).real
    marginal = weighted_sum(basis.coefficients(state) * env_traces, basis.projectors)
    return trace_norm(marginal - state)


def dephase(state: np.ndarray, measurement: OrthogonalProjectorSet) -> np.ndarray:
    """Erase coherences: sum_i Tr[state Pi_i] Pi_i, state by state on a stack."""
    state = np.asarray(state, dtype=complex)
    return weighted_sum(expectations(measurement.projectors, state), measurement.projectors)


@dataclass(frozen=True, eq=False)
class PositivityReport:
    """Worst output eigenvalue found over a probe set of input states."""

    min_eigenvalue: float
    witness_label: str
    witness_state: np.ndarray
    probes: int


def _probe_states(assignment, samples: int, rng: np.random.Generator):
    """Positivity probes in order, as (pieces, stack of states) chunks of one
    ``eigen_chunks`` over all of them: basis projectors, the six axis states
    on qubits (labelled from 1), then seeded Haar-random pure and
    Hilbert-Schmidt-random mixed states, each random kind drawn as one
    stream, piece by piece. A chunk may span kinds; ``pieces`` holds, for
    each kind it cuts, (label, label index of the piece's first state,
    offset of that state in the chunk)."""
    d = assignment.dim_s
    kind = "basis" if isinstance(assignment.basis, ProjectorBasis) else "measurement"
    projectors = assignment.basis.projectors
    kinds = [(f"{kind} projector", 0, len(projectors), lambda lo, hi: projectors[lo:hi])]
    if d == 2:
        axis = np.stack(qubit_states())
        kinds.append(("axis state", 1, len(axis), lambda lo, hi: axis[lo:hi]))
    n_pure = (samples + 1) // 2
    for label, draw, count in (("random pure", random_pure, n_pure),
                               ("random mixed", random_density, samples - n_pure)):
        kinds.append((label, 0, count, lambda lo, hi, draw=draw: draw(d, rng, hi - lo)))
    starts = list(accumulate((count for _, _, count, _ in kinds), initial=0))
    for lo, hi in eigen_chunks(assignment, starts[-1]):
        pieces, parts = [], []
        for (label, first, _, take), start, stop in zip(kinds, starts, starts[1:]):
            a, b = max(lo, start), min(hi, stop)
            if a < b:
                pieces.append((label, first + a - start, a - lo))
                parts.append(take(a - start, b - start))
        yield pieces, parts[0] if len(parts) == 1 else np.concatenate(parts)


def positivity_certificate(assignment, samples: int, rng: np.random.Generator) -> PositivityReport:
    """Probe the assignment for negative outputs; deterministic under the rng seed.

    Returns the worst (most negative) output eigenvalue together with the
    first witness state that produced it.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    best = np.inf
    witness_label = ""
    witness_state = None
    count = 0
    for pieces, states in _probe_states(assignment, samples, rng):
        count += len(states)
        lams = assignment.min_output_eigenvalue(states)
        i = int(np.argmin(lams))
        if lams[i] < best:
            label, first, offset = next(p for p in reversed(pieces) if p[2] <= i)
            best, witness_label, witness_state = lams[i], f"{label} {first + i - offset}", states[i]
    return PositivityReport(
        min_eigenvalue=float(best),
        witness_label=witness_label,
        witness_state=witness_state,
        probes=count,
    )


@dataclass(frozen=True, eq=False)
class EnvNegativityReport:
    """Smallest eigenvalue of each environment operator next to the smallest
    output eigenvalue on the matching basis projector."""

    env_min_eigs: np.ndarray
    output_min_eigs: np.ndarray


def env_negativity_report(assignment: LinearAssignment) -> EnvNegativityReport:
    """Smallest eigenvalues of the environment operators and of their outputs.

    The output on basis projector P_i is P_i (x) tau_i, whose spectrum is
    {0} united with the spectrum of tau_i, so negativity must carry over.
    """
    env_eigs = min_eigenvalue(assignment.env_ops)
    projectors = assignment.basis.projectors
    out_eigs = np.concatenate([
        min_eigenvalue(assignment.apply(projectors[lo:hi]))
        for lo, hi in probe_chunks(assignment, len(projectors))
    ])
    return EnvNegativityReport(env_min_eigs=env_eigs, output_min_eigs=out_eigs)


@dataclass(frozen=True, eq=False)
class EqualEnvVerdict:
    """Both sides of Theorem 1's biconditional (probe positivity iff all
    environment operators are one state), as values."""

    max_env_distance: float
    positivity: PositivityReport


def equal_env_certificate(
    assignment: LinearAssignment, samples: int, rng: np.random.Generator
) -> EqualEnvVerdict:
    """Measure the exact algebraic condition (all env ops equal) next to the
    probe certificate."""
    taus = assignment.env_ops
    return EqualEnvVerdict(
        max_env_distance=float(np.max(trace_norm(taus - taus[0]))),
        positivity=positivity_certificate(assignment, samples, rng),
    )


@dataclass(frozen=True, eq=False)
class PechukasResiduals:
    """Residuals of the two-decomposition identity for the maximally mixed
    state and of the four expectation-value relations it implies; arrays
    over the leading axes when the environment operators are stacks."""

    mixture_residual: float
    expectation_residuals: tuple[float, float, float, float]

    @property
    def max_residual(self):
        return np.maximum.reduce([self.mixture_residual, *self.expectation_residuals])


def pechukas_constraints(taus, states=None) -> PechukasResiduals:
    """Constraint system for assigning product states to two antipodal pairs
    of pure states whose mixtures both give the maximally mixed state.

    ``taus`` are the four assigned environment operators and ``states`` the
    four pure system states (default: the x+/y+/x-/y- axis states; passing
    the z pair instead repeats the argument along the other axis). All
    residuals vanish iff the four environment operators coincide. Each of
    the four may be a stack (..., dim_e, dim_e), one system per entry.
    """
    if states is None:
        eta = qubit_states()
        states = (eta[0], eta[1], eta[3], eta[4])
    if len(taus) != 4 or len(states) != 4:
        raise ValueError("need exactly four environment operators and four states")
    taus = [require_hermitian(t, name=f"tau {i}") for i, t in enumerate(taus)]
    for i, t in enumerate(taus):
        if t.shape != taus[0].shape:
            raise ValueError("environment operators must share one dimension")
        require_unit_trace(t, name=f"tau {i}")
    probes = np.array(states, dtype=complex)
    s1, s2, s4, s5 = probes
    t1, t2, t4, t5 = taus

    delta = 0.5 * (tensor(s1, t1) + tensor(s4, t4)) - 0.5 * (tensor(s2, t2) + tensor(s5, t5))
    mixture = trace_norm(delta)

    # expectation of the identity over each probe state s_k, scaled to match
    # the 2*tau_a - tau_b - tau_c normalization: with delta = sum_j c_j s_j (x)
    # tau_j, Tr_S[(s_k (x) 1) delta] = sum_j c_j Tr(s_k s_j) tau_j, so the four
    # relations are the probes' overlaps weighing the taus, d_e x d_e each
    overlaps = np.einsum("kab,jba->kj", probes, probes).real
    weights = 4.0 * overlaps * np.array([0.5, -0.5, 0.5, -0.5])
    residuals = trace_norm(np.tensordot(weights, np.stack(taus), axes=1))
    return PechukasResiduals(mixture_residual=mixture, expectation_residuals=tuple(residuals))


def audit_outputs(assignment, states: np.ndarray) -> tuple[float, float]:
    """Forward audit: the largest Hermiticity defect and the largest trace
    gap |Tr out - Tr state| of the outputs on ``states`` (..., k, d, d), the
    k states of each assignment of a stack (or of one assignment), mapped k
    at a time in chunks of at most ``_CHUNK_BYTES`` of outputs."""
    states = np.moveaxis(np.asarray(states, dtype=complex), -3, 0)
    n = assignment.dim_s * assignment.dim_e
    per_state = 16 * n * n * math.prod(states.shape[1:-2])
    max_herm = max_trace = 0.0
    for lo, hi in chunk_ranges(len(states), per_state):
        out = assignment.apply(states[lo:hi])
        trace_gap = np.trace(out, axis1=-2, axis2=-1) - np.trace(states[lo:hi], axis1=-2, axis2=-1)
        max_herm = max(max_herm, np.max(hermiticity_defect(out)))
        max_trace = max(max_trace, np.max(np.abs(trace_gap.real)))
    return float(max_herm), float(max_trace)


def audit_corruption(assignment: LinearAssignment) -> tuple[float, float]:
    """Reverse audit of one assignment: the Hermiticity defect and the trace
    gap of the output on P_0 after corrupting tau_0, unvalidated, by a
    trace-free anti-Hermitian bump (trace norm 0.2) and by a 1.1 scale; the
    bump needs dim_e >= 2."""
    if _one(assignment).dim_e < 2:
        raise ValueError(f"the audit's trace-free bump needs dim_e >= 2, got {assignment.dim_e}")
    basis = assignment.basis
    p0 = basis.projectors[0]
    coefficients = basis.coefficients(p0)
    skew = np.zeros((assignment.dim_e, assignment.dim_e), dtype=complex)
    skew[0, 0], skew[1, 1] = 1.0, -1.0  # trace-free bump, trace norm 2

    # each corrupted set maps P_0 with ``apply``'s arithmetic (P_0 (x) tau_0'
    # alone differs in the last bits at d >= 3), one set at a time
    bad = np.array(assignment.env_ops)
    bad[0] += 1j * 0.1 * skew
    corrupted_herm = hermiticity_defect(weighted_sum(coefficients, tensor(basis.projectors, bad)))
    bad = np.array(assignment.env_ops)
    bad[0] *= 1.1
    trace_out = weighted_sum(coefficients, tensor(basis.projectors, bad))
    return float(corrupted_herm), float(abs(np.trace(trace_out).real - np.trace(p0).real))
