"""Assignment maps from system states to system-environment operators.

One class carries every family: ``LinearAssignment`` maps a state to
sum_i q_i P_i (x) tau_i, reading the weights q from its ``basis``. On a
spanning ``ProjectorBasis`` (Pechukas) q are the dual-frame coefficients;
on an orthogonal measurement ``OrthogonalProjectorSet`` (the zero-discord
family) q_i = Tr[Pi_i state]. The factories ``product_assignment``,
``orthogonal_flag_assignment``, ``broadcast_assignment`` (tau_i = P_i) and
``random_zero_discord_assignment`` build the special cases. Checkers certify
linearity, consistency, and positivity, and audit Hermiticity/trace
preservation.

``apply`` (and the basis's ``coefficients`` beneath it) maps one system
operator or a stack (..., d, d) of them; an assignment on a stacked
measurement carries the same leading stack axes, one assignment per entry.
The probing checkers draw and push their probe states through
``apply`` as stacks of at most ``_CHUNK_BYTES`` of joint operators
(``probe_chunks``), with the same draws, the same probe order and the same
first-minimum witness as probing one state at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from assignlab.operators import (
    PSD_TOL,
    ProjectorBasis,
    chunk_ranges,
    expectations,
    hermiticity_defect,
    min_eigenvalue,
    partial_trace,
    qubit_states,
    random_density,
    random_pure,
    random_unitary,
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
    "broadcast_assignment",
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
    "AuditReport",
    "hermiticity_trace_audit",
    "probe_chunks",
]

ENV_EQUALITY_TOL = 1e-9  # trace-norm threshold for "same environment operator"
AUDIT_SAMPLES = 10  # random states of the forward Hermiticity/trace audit


def probe_chunks(assignment, total: int):
    """``chunk_ranges`` over ``total`` probe states of ``assignment``: each
    chunk's assigned joint operators fit in ``_CHUNK_BYTES``."""
    if assignment.env_ops.ndim != 3:
        raise ValueError(f"expected one assignment, got a stack {assignment.env_ops.shape[:-3]}")
    n = assignment.dim_s * assignment.dim_e
    return chunk_ranges(total, 16 * n * n)


@dataclass(frozen=True, eq=False)
class LinearAssignment:
    """Linear assignment sum_i q_i(state) P_i (x) env_ops[i], with the
    weights q = ``basis.coefficients(state)`` and P_i = ``basis.projectors``.

    On a ``ProjectorBasis`` (dim_s^2 projectors) q are the coefficients of
    the state on the basis, so each P_i goes to P_i (x) env_ops[i]. On an
    ``OrthogonalProjectorSet`` (dim_s projectors Pi_i) q_i = Tr[Pi_i state]:
    the zero-discord family, whose output is classically correlated and
    which is positive iff every environment operator is. A stacked
    measurement with environment operators stacked over the same leading
    axes makes a stack of assignments, which maps a stack of states entry
    by entry; a projector basis takes one stack of environment operators.

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
        if stack.shape[:-3] != lead:
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
        return tensor(self.basis.projectors, self.env_ops)

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Map a Hermitian system operator, or a stack of them, to
        sum_i q_i P_i (x) env_ops[i]."""
        return weighted_sum(self.basis.coefficients(state), self._terms)


def product_assignment(basis: ProjectorBasis, env_state: np.ndarray) -> LinearAssignment:
    """Assignment sending every state to state (x) env_state."""
    env_state = np.asarray(env_state, dtype=complex)
    return LinearAssignment(basis, np.broadcast_to(env_state, (basis.size,) + env_state.shape))


def orthogonal_flag_assignment(basis: ProjectorBasis) -> LinearAssignment:
    """Assignment tagging each basis projector with a distinct orthonormal
    environment flag |i><i| on an environment of dimension dim_s^2."""
    return LinearAssignment(basis, OrthogonalProjectorSet.computational(basis.size).projectors)


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

    def coefficients(self, state: np.ndarray) -> np.ndarray:
        """Measurement weights Tr[state Pi_i], (..., dim) for a stack."""
        state = require_hermitian(state, tol=1e-9, name="state")
        if state.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"state shape {state.shape} does not match dim {self.dim}")
        return expectations(self.projectors, state).real

    @classmethod
    def computational(cls, d: int) -> "OrthogonalProjectorSet":
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


def random_zero_discord_assignment(
    dim_s: int, dim_e: int, rng: np.random.Generator
) -> LinearAssignment:
    """Haar-random measurement basis with Hilbert-Schmidt-random (hence
    positive) environment states."""
    measurement = OrthogonalProjectorSet.from_unitary(random_unitary(dim_s, rng))
    return LinearAssignment(measurement, random_density(dim_e, rng, dim_s))


def consistency_defect(assignment, state: np.ndarray):
    """Trace-norm distance between the system marginal of the assigned
    operator and the input state; zero iff the assignment is consistent
    on this state. One distance per state of a stack."""
    state = np.asarray(state, dtype=complex)
    out = assignment.apply(state)
    marginal = partial_trace(out, assignment.dim_s, assignment.dim_e, "E")
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

    def passed(self) -> bool:
        return self.min_eigenvalue >= -PSD_TOL


def _probe_states(assignment, samples: int, rng: np.random.Generator):
    """Positivity probes in order, as (label, index of the first state,
    stack of states) chunks: basis projectors, the six axis states on qubits
    (labelled from 1), then seeded Haar-random pure and
    Hilbert-Schmidt-random mixed states, each kind drawn as one stream."""
    d = assignment.dim_s
    kind = "basis" if isinstance(assignment.basis, ProjectorBasis) else "measurement"
    fixed = [(f"{kind} projector", 0, assignment.basis.projectors)]
    if d == 2:
        fixed.append(("axis state", 1, np.stack(qubit_states())))
    for label, first, stack in fixed:
        for lo, hi in probe_chunks(assignment, len(stack)):
            yield label, first + lo, stack[lo:hi]
    n_pure = (samples + 1) // 2
    for label, draw, count in (("random pure", random_pure, n_pure),
                               ("random mixed", random_density, samples - n_pure)):
        for lo, hi in probe_chunks(assignment, count):
            yield label, lo, draw(d, rng, hi - lo)


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
    for label, first, states in _probe_states(assignment, samples, rng):
        count += len(states)
        lams = min_eigenvalue(assignment.apply(states))
        i = int(np.argmin(lams))
        if lams[i] < best:
            best, witness_label, witness_state = lams[i], f"{label} {first + i}", states[i]
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
    holds: bool  # every negative env op shows up as a negative output


def env_negativity_report(assignment: LinearAssignment) -> EnvNegativityReport:
    """Check that a negative environment operator forces a negative output.

    The output on basis projector P_i is P_i (x) tau_i, whose spectrum is
    {0} united with the spectrum of tau_i, so negativity must carry over.
    """
    env_eigs = min_eigenvalue(assignment.env_ops)
    projectors = assignment.basis.projectors
    out_eigs = np.concatenate([
        min_eigenvalue(assignment.apply(projectors[lo:hi]))
        for lo, hi in probe_chunks(assignment, len(projectors))
    ])
    holds = np.all(out_eigs[env_eigs < -PSD_TOL] < -PSD_TOL)
    return EnvNegativityReport(env_min_eigs=env_eigs, output_min_eigs=out_eigs, holds=bool(holds))


@dataclass(frozen=True, eq=False)
class EqualEnvVerdict:
    """Certificate that probe positivity is equivalent to all environment
    operators being a single state."""

    all_env_ops_equal: bool
    max_env_distance: float
    positivity: PositivityReport
    biconditional_holds: bool


def equal_env_certificate(
    assignment: LinearAssignment, samples: int, rng: np.random.Generator
) -> EqualEnvVerdict:
    """Decide positivity via the exact algebraic condition (all env ops equal)
    and cross-check it against the probe certificate."""
    taus = assignment.env_ops
    max_dist = np.max(trace_norm(taus - taus[0]))
    all_equal = max_dist <= ENV_EQUALITY_TOL
    report = positivity_certificate(assignment, samples, rng)
    return EqualEnvVerdict(
        all_env_ops_equal=all_equal,
        max_env_distance=float(max_dist),
        positivity=report,
        biconditional_holds=all_equal == report.passed(),
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
    dim_e = taus[0].shape[-1]
    for i, t in enumerate(taus):
        if t.shape != taus[0].shape:
            raise ValueError("environment operators must share one dimension")
        require_unit_trace(t, name=f"tau {i}")
    s1, s2, s4, s5 = (np.asarray(s, dtype=complex) for s in states)
    dim_s = s1.shape[0]
    t1, t2, t4, t5 = taus

    delta = 0.5 * (tensor(s1, t1) + tensor(s4, t4)) - 0.5 * (tensor(s2, t2) + tensor(s5, t5))
    mixture = trace_norm(delta)

    eye_e = np.eye(dim_e)
    residuals = []
    for probe in (s1, s2, s4, s5):
        # expectation of the identity over the probe state, scaled to match
        # the 2*tau_a - tau_b - tau_c normalization
        reduced = partial_trace(tensor(probe, eye_e) @ delta, dim_s, dim_e, "S")
        residuals.append(trace_norm(4.0 * reduced))
    return PechukasResiduals(mixture_residual=mixture, expectation_residuals=tuple(residuals))


@dataclass(frozen=True, eq=False)
class AuditReport:
    """Hermiticity/trace preservation audit of a linear assignment.

    Forward direction: valid environment operators give Hermitian,
    trace-preserving outputs on random states. Reverse direction: corrupting
    one environment operator, unvalidated, produces a detectable defect on
    the matching basis projector.
    """

    max_hermiticity_defect: float
    max_trace_defect: float
    corrupted_hermiticity_defect: float
    corrupted_trace_defect: float
    detects_corruption: bool


def hermiticity_trace_audit(assignment: LinearAssignment, rng: np.random.Generator) -> AuditReport:
    """Audit both directions of the Hermiticity/trace preservation conditions."""
    max_herm = 0.0
    max_trace = 0.0
    for lo, hi in probe_chunks(assignment, AUDIT_SAMPLES):
        states = random_density(assignment.dim_s, rng, hi - lo)
        out = assignment.apply(states)
        trace_gap = np.trace(out, axis1=-2, axis2=-1) - np.trace(states, axis1=-2, axis2=-1)
        max_herm = max(max_herm, np.max(hermiticity_defect(out)))
        max_trace = max(max_trace, np.max(np.abs(trace_gap.real)))

    basis = assignment.basis
    p0 = basis.projectors[0]
    d_e = assignment.dim_e
    skew = np.zeros((d_e, d_e), dtype=complex)
    skew[0, 0], skew[1, 1] = 1.0, -1.0  # trace-free bump, trace norm 2

    # both corrupted operator sets map P_0 with ``apply``'s own arithmetic;
    # P_0 (x) tau_0' alone would differ in the last bits at d >= 3
    bad = np.array([assignment.env_ops, assignment.env_ops])
    bad[0, 0] += 1j * 0.1 * skew
    bad[1, 0] *= 1.1
    herm_out, trace_out = weighted_sum(basis.coefficients(p0), tensor(basis.projectors, bad))
    corrupted_herm = hermiticity_defect(herm_out)
    corrupted_trace = abs(np.trace(trace_out).real - np.trace(p0).real)

    return AuditReport(
        max_hermiticity_defect=float(max_herm),
        max_trace_defect=float(max_trace),
        corrupted_hermiticity_defect=float(corrupted_herm),
        corrupted_trace_defect=float(corrupted_trace),
        detects_corruption=bool(corrupted_herm > 1e-6 and corrupted_trace > 1e-6),
    )
