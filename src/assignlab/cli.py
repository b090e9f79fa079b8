"""Command-line experiment runner with seeded, serializable reports.

Each experiment drives one family of library checks and emits a JSON report
with a fixed key order (experiment, config, pass, metrics, witnesses,
runtime_ms); ``_EXPERIMENTS`` declares each one once, with its runner and
the operator stacks the config guard counts for it. A runner returns metric
rows and gates (``Gate``); an experiment passes when all its gates hold,
and ``main`` names each failing gate on stderr; the library results carry
values, and the gates decide. Reports are byte-identical across runs of the
same configuration, runtime_ms aside. The runners' random samples are drawn
and checked as stacks, in chunks of at most ``_CHUNK_BYTES``.
"""

from __future__ import annotations

import argparse
import json
import numbers
import operator
import os
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

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
from assignlab.compatibility import (
    boundary_along_ray,
    domain_volume,
    simplex_domain_check,
)
from assignlab.dynamics import (
    classical_cp_sweep,
    find_noncp_unitary,
    assignment_condition_table,
    replay_unitary,
)
from assignlab.operators import (
    PSD_TOL,
    canonical_basis,
    chunk_ranges,
    ginibre_densities,
    min_eigenvalue,
    partial_trace,
    qubit_states,
    random_density,
    random_unitary,
    tensor,
    trace_norm,
    weighted_sum,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentReport",
    "Gate",
    "UsageError",
    "run",
    "emit",
    "render_report",
    "main",
]

SEED_ENV_VAR = "ASSIGNLAB_SEED"

_MAX_STACK_BYTES = 64 * 2**20  # refuse a config whose stacks exceed this many bytes

# a probe's full eigensolve holds three joint operators beside the terms (its
# output, the output's Hermitian part and the eigensolver's copy), which 2.5
# counts cover only when a count is at least three of them: it decides only
# for a qubit measurement's two terms
_PROBE_OPERATORS = 3


def _largest_stack_bytes(config) -> int:
    """Bytes of the stacks the experiment holds at once, at its largest dims."""
    _, stacks, dims = _EXPERIMENTS[config.experiment]
    return stacks * max(16 * max(n, _PROBE_OPERATORS) * (s * e) ** 2
                        for n, s, e in dims(config.dim_s, config.dim_e))


class UsageError(ValueError):
    """Invalid configuration or flags; maps to exit status 2."""


# config-file key -> ExperimentConfig field and flag dest; echo() skips "out"
_CONFIG_KEYS = {
    "experiment": "experiment",
    "seed": "seed",
    "samples": "samples",
    "dim-s": "dim_s",
    "dim-e": "dim_e",
    "tol": "tol",
    "out": "out_path",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings; an invalid one raises ``UsageError`` when built."""

    experiment: str
    seed: int = 0
    samples: int = 500
    dim_s: int = 2
    dim_e: int = 2
    tol: float = 1e-10
    out_path: str | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise UsageError(f"unknown experiment {self.experiment!r}")
        for key, value in (("seed", self.seed), ("samples", self.samples),
                           ("dim-s", self.dim_s), ("dim-e", self.dim_e)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise UsageError(f"{key} must be an integer, got {value!r}")
        if self.seed < 0 or self.seed > 2**64 - 1:
            raise UsageError("seed must fit in an unsigned 64-bit integer")
        if self.samples < 1:
            raise UsageError("samples must be at least 1")
        if self.dim_s < 2 or self.dim_e < 2:
            raise UsageError("dimensions must be at least 2")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise UsageError(f"tol must be a number, got {self.tol!r}")
        if not 0 < self.tol < sys.float_info.max:
            raise UsageError(f"tol must be finite and positive, got {self.tol!r}")
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise UsageError(f"out must be a path, got {self.out_path!r}")
        stack_bytes = _largest_stack_bytes(self)
        if stack_bytes > _MAX_STACK_BYTES:
            raise UsageError(
                f"dimensions too large: {self.experiment} at dim-s {self.dim_s}, "
                f"dim-e {self.dim_e} needs a {stack_bytes / 2**20:.0f} MiB operator "
                f"stack, over the {_MAX_STACK_BYTES // 2**20} MiB limit"
            )

    def echo(self) -> dict:
        return {key: getattr(self, field) for key, field in _CONFIG_KEYS.items() if key != "out"}


_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
        ">=": operator.ge, ">": operator.gt}


class Gate(NamedTuple):
    """A pass condition ``value op bound``, ``op`` one of ``_OPS``; a NaN value
    fails every op. A metric row that decides no verdict has op None."""

    name: str
    value: object
    op: str | None
    bound: object

    def holds(self) -> bool:
        return bool(_OPS[self.op](self.value, self.bound))

    def __str__(self) -> str:
        return f"gate failed: {self.name} = {self.value}, needs {self.op} {self.bound}"


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: dict
    passed: bool  # every gate holds
    metrics: list
    witnesses: list
    runtime_ms: float
    gates: tuple = field(compare=False, repr=False)  # not rendered


def _metric(name: str, value, *gate) -> Gate:
    """A metric row; ``gate`` is the (op, bound) its value must meet, if any."""
    return Gate(name, value, *gate) if gate else Gate(name, value, None, None)


def _state_witness(description: str, state: np.ndarray) -> dict:
    state = np.asarray(state, dtype=complex)
    return {
        "description": description,
        "state_real": state.real.tolist(),
        "state_imag": state.imag.tolist(),
    }


# ---------------------------------------------------------------------------
# experiment runners; each returns (metric rows, unreported gates, witnesses)
# ---------------------------------------------------------------------------

CP_TOL = 1e-9  # CP is decided at -CP_TOL on the Choi spectrum
ENV_EQUALITY_TOL = 1e-9  # environment operators this close in trace norm are equal
EXPECTED_CONDITIONS = {  # each Table-1 family's (linear, consistent, positive)
    "none": (True, True, True),
    "classical": (True, False, True),
    "quantum": (True, True, False),
}


def _run_pechukas(config, rng):
    t = random_density(config.dim_e, rng)
    equal = pechukas_constraints([t, t, t, t])
    eta = qubit_states()
    z_quartet = (eta[0], eta[2], eta[3], eta[5])
    equal_z = pechukas_constraints([t, t, t, t], states=z_quartet)

    d_e = config.dim_e
    first, second = np.triu_indices(4, 1)  # the six pairs of a sample's operators
    disagreements = 0
    min_random_residual = np.inf
    # one sample is four environment operators, drawn in a row
    for lo, hi in chunk_ranges(config.samples, 16 * (2 * d_e) ** 2):
        taus = random_density(d_e, rng, 4 * (hi - lo)).reshape(hi - lo, 4, d_e, d_e)
        residual = pechukas_constraints(taus.swapaxes(0, 1)).max_residual
        max_dist = np.max(trace_norm(taus[:, first] - taus[:, second]), axis=1)
        disagreements += int(np.count_nonzero((residual <= 1e-12) != (max_dist <= 1e-9)))
        min_random_residual = min(min_random_residual, float(np.min(residual)))

    metrics = [
        _metric("max_residual_all_equal", equal.max_residual, "<=", 1e-12),
        _metric("max_residual_all_equal_z_axis", equal_z.max_residual, "<=", 1e-12),
        _metric("min_random_max_residual", float(min_random_residual)),
        _metric("equivalence_disagreements", disagreements, "==", 0),
    ]
    return metrics, [], []


def _run_theorem1(config, rng):
    basis = canonical_basis(config.dim_s)
    t = random_density(config.dim_e, rng)
    equal_verdict = equal_env_certificate(
        product_assignment(basis, t), config.samples, rng
    )

    perturbed_ops = np.stack([t] * basis.size)
    perturbed_ops[1] = random_density(config.dim_e, rng)
    perturbed = equal_env_certificate(LinearAssignment(basis, perturbed_ops), config.samples, rng)

    # Theorem 1 both ways: equal env ops give a positive output, unequal a negative one
    metrics = [
        _metric("min_eig_equal_env", equal_verdict.positivity.min_eigenvalue, ">=", -PSD_TOL),
        _metric("min_eig_perturbed_env", perturbed.positivity.min_eigenvalue, "<", -1e-6),
        _metric("env_distance_perturbed", perturbed.max_env_distance, ">", ENV_EQUALITY_TOL),
    ]
    gates = [Gate("env_distance_equal", equal_verdict.max_env_distance, "<=", ENV_EQUALITY_TOL)]
    witnesses = [
        _state_witness(
            f"negative output on {perturbed.positivity.witness_label}",
            perturbed.positivity.witness_state,
        )
    ]
    return metrics, gates, witnesses


def _theorem2_samples(config, rng) -> tuple[float, float]:
    """The largest formula gap and diagonal defect over the random samples;
    their assignments are released on return, before the qubit check."""
    d_s, d_e = config.dim_s, config.dim_e
    max_formula_gap = 0.0
    max_diagonal_defect = 0.0
    # a sample draws its zero-discord assignment's normals and the Ginibre
    # pair of its state as one normal draw, then its Dirichlet weights
    size = zero_discord_size(d_s, d_e)
    alpha = np.ones(d_s)
    # a sample's assignment terms: d_s joint operators
    for lo, hi in chunk_ranges(config.samples, 16 * d_s * (d_s * d_e) ** 2):
        # the draws stay per sample, in stream order; each kind is then built
        # as one stack, which the stacked assignment checks and maps at once
        n = hi - lo
        normals = np.empty((n, size + 2 * d_s * d_s))
        weights = np.empty((n, d_s))
        for i in range(n):
            rng.standard_normal(out=normals[i])
            weights[i] = rng.dirichlet(alpha)
        z = zero_discord_assignment(normals[:, :size], d_s, d_e)
        eta = ginibre_densities(normals[:, size:].reshape(n, 2, d_s, d_s))
        defect = consistency_defect(z, eta)
        gap = np.abs(defect - trace_norm(eta - dephase(eta, z.basis)))
        diagonal = weighted_sum(weights, z.basis.projectors)
        max_formula_gap = max(max_formula_gap, float(np.max(gap)))
        max_diagonal_defect = max(max_diagonal_defect,
                                  float(np.max(consistency_defect(z, diagonal))))
    return max_formula_gap, max_diagonal_defect


def _run_theorem2(config, rng):
    max_formula_gap, max_diagonal_defect = _theorem2_samples(config, rng)
    metrics = [
        _metric("max_formula_gap", max_formula_gap, "<=", 1e-10),
        _metric("max_defect_diagonal", max_diagonal_defect, "<=", 1e-12),
    ]
    gates = []
    if config.dim_s == 2:
        taus = random_density(config.dim_e, rng, 2)
        z_basis = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
        defect_eta1 = consistency_defect(z_basis, qubit_states()[0])
        metrics.append(_metric("defect_eta1", defect_eta1))
        gates.append(Gate("defect_eta1_gap_to_1", abs(defect_eta1 - 1.0), "<=", 1e-10))
    return metrics, gates, []


def _negative_env_state(dim_e: int, rng) -> np.ndarray:
    """Hermitian unit-trace operator with smallest eigenvalue -0.25."""
    eigs = np.zeros(dim_e)
    eigs[0] = -0.25
    eigs[1] = 1.25
    u = random_unitary(dim_e, rng)
    return (u * eigs) @ u.conj().T


def _run_theorem3(config, rng):
    z_good = random_zero_discord_assignment(config.dim_s, config.dim_e, rng)
    good = positivity_certificate(z_good, config.samples, rng)

    bad_states = np.array(z_good.env_ops)
    bad_states[0] = _negative_env_state(config.dim_e, rng)
    z_bad = LinearAssignment(z_good.basis, bad_states)
    bad = positivity_certificate(z_bad, config.samples, rng)

    weights = z_bad.basis.coefficients(bad.witness_state)
    # block spectrum: eigenvalues of the output are the branch weights times
    # the env-state spectra
    predicted = float(np.min(weights[:, None] * np.linalg.eigvalsh(z_bad.env_ops)))
    bound = -0.25 * weights.min()

    metrics = [
        _metric("min_eig_positive_env", good.min_eigenvalue, ">=", -PSD_TOL),
        _metric("witness_min_eig", bad.min_eigenvalue, "<=", bound + 1e-9),
        _metric("block_spectrum_prediction", predicted),
        _metric("predicted_bound", bound),
    ]
    gates = [Gate("min_env_eig", float(np.min(min_eigenvalue(z_good.env_ops))), ">=", -PSD_TOL),
             Gate("witness_prediction_gap", abs(bad.min_eigenvalue - predicted), "<=", 1e-9)]
    witnesses = [_state_witness("negative output witness", bad.witness_state)]
    return metrics, gates, witnesses


def _run_lemma1(config, rng):
    basis = canonical_basis(config.dim_s)
    neg = np.zeros((config.dim_e, config.dim_e), dtype=complex)
    neg[0, 0], neg[1, 1] = 1.5, -0.5
    taus = np.concatenate([neg[None], random_density(config.dim_e, rng, basis.size - 1)])
    report = env_negativity_report(LinearAssignment(basis, taus))

    flags = orthogonal_flag_assignment(basis)
    converse = positivity_certificate(flags, config.samples, rng)
    converse_env_min = np.min(min_eigenvalue(flags.env_ops))

    metrics = [
        _metric("min_output_eig_negative_env", float(report.output_min_eigs[0])),
        _metric("converse_env_min_eig", float(converse_env_min), ">=", -1e-12),
        _metric("converse_output_min_eig", converse.min_eigenvalue, "<", -1e-6),
    ]
    negative = report.output_min_eigs[report.env_min_eigs < -PSD_TOL]  # outputs of negative taus
    gates = [Gate("negative_env_shows_in_output", float(np.max(negative, initial=-np.inf)),
                  "<", -PSD_TOL),
             Gate("negative_env_output_gap", abs(report.output_min_eigs[0] + 0.5), "<=", 1e-10)]
    return metrics, gates, []


def _run_appendix(config, rng):
    basis = canonical_basis(config.dim_s)
    d_s, d_e = config.dim_s, config.dim_e
    joint = 16 * (d_s * d_e) ** 2
    # an audit draws its environment states, then its audit states: a chunk
    # of audits is one normal draw, split in that order; it holds each
    # audit's terms and its outputs
    cut = 2 * basis.size * d_e * d_e
    max_herm = max_trace = 0.0
    corrupted = None
    for lo, hi in chunk_ranges(max(1, config.samples // 10), (basis.size + AUDIT_SAMPLES) * joint):
        n = hi - lo
        envs, states = np.split(
            rng.standard_normal((n, cut + 2 * AUDIT_SAMPLES * d_s * d_s)), [cut], axis=1)
        taus = ginibre_densities(envs.reshape(n, basis.size, 2, d_e, d_e))
        herm, trace = audit_outputs(
            LinearAssignment(basis, taus),
            ginibre_densities(states.reshape(n, AUDIT_SAMPLES, 2, d_s, d_s)))
        max_herm, max_trace = max(max_herm, herm), max(max_trace, trace)
        if corrupted is None:  # the report reads the first audit's corrupted sets
            corrupted = audit_corruption(LinearAssignment(basis, taus[0]))
    corrupted_herm, corrupted_trace = corrupted
    metrics = [
        _metric("max_hermiticity_defect", max_herm, "<=", 1e-10),
        _metric("max_trace_defect", max_trace, "<=", 1e-10),
        _metric("corrupted_hermiticity_defect", corrupted_herm),
        _metric("corrupted_trace_defect", corrupted_trace),
    ]
    gates = [Gate("corrupted_hermiticity_gap_to_0.2", abs(corrupted_herm - 0.2), "<=", 1e-10),
             Gate("corrupted_trace_gap_to_0.1", abs(corrupted_trace - 0.1), "<=", 1e-10)]
    return metrics, gates, []


def _run_compat_domain(config, rng):
    basis = canonical_basis(config.dim_s)
    flags = orthogonal_flag_assignment(basis)
    volume = domain_volume(flags, max(config.samples, 100), rng, tol=config.tol)
    simplex = simplex_domain_check(flags, config.samples, rng, tol=config.tol)
    center = np.eye(config.dim_s, dtype=complex) / config.dim_s

    # the domain is always a strict subset for flag assignments; whether any
    # random state lands inside depends on dimension and sample count
    metrics = [
        _metric("fraction", volume.fraction, "<", 1.0),
        _metric("ci95_low", volume.ci95[0]),
        _metric("ci95_high", volume.ci95[1]),
        _metric("hits", volume.hits),
        _metric("simplex_agreements", simplex.agreements, "==", simplex.probes),
        _metric("simplex_probes", simplex.probes),
        _metric("max_block_spectrum_gap", simplex.max_gap),
    ]
    gates = []
    witnesses = []
    if config.dim_s == 2:
        eta = qubit_states()
        ray_in = boundary_along_ray(flags, center, eta[0], tol=config.tol)
        ray_out = boundary_along_ray(flags, center, eta[4], tol=config.tol)
        metrics += [
            _metric("t_star_to_eta1", ray_in.t_star),
            _metric("t_star_to_eta5", ray_out.t_star, "<=", 1e-8),
        ]
        gates.append(Gate("t_star_to_eta1_gap_to_1", abs(ray_in.t_star - 1.0), "<=", 1e-8))
        grid = [round(0.1 * k, 1) for k in range(11)]
        t = np.array(grid)[:, None, None]
        # the full eigensolve, not the support factor the rays bisect with:
        # the profile is their independent check
        profile = min_eigenvalue(flags.apply((1 - t) * center + t * eta[4])).tolist()
        witnesses.append({
            "description": "ray profile from maximally mixed state toward axis state 5",
            "t_grid": grid,
            "min_eigenvalues": profile,
        })
    return metrics, gates, witnesses


def _run_broadcast(config, rng):
    basis = canonical_basis(2)
    b = broadcast_assignment(basis)
    eta = qubit_states()

    out5 = b.apply(eta[4])
    spectrum = np.linalg.eigvalsh(out5)
    analytic = np.sort([1.0, 1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)])
    spectrum_gap = float(np.max(np.abs(spectrum - analytic)))
    marginal_defect = max(
        trace_norm(partial_trace(out5, 2, 2, "E") - eta[4]),
        trace_norm(partial_trace(out5, 2, 2, "S") - eta[4]),
    )
    product_defect = max(
        float(np.max(np.abs(b.apply(s) - tensor(s, s)))) for s in (eta[0], eta[1], eta[3])
    )
    random_marginal_defect = 0.0
    for lo, hi in probe_chunks(b, config.samples):
        states = random_density(2, rng, hi - lo)
        out = b.apply(states)
        random_marginal_defect = max(
            random_marginal_defect,
            float(np.max(trace_norm(partial_trace(out, 2, 2, "E") - states))),
            float(np.max(trace_norm(partial_trace(out, 2, 2, "S") - states))),
        )

    metrics = [
        _metric("min_eig_eta5", float(spectrum[0])),
        _metric("spectrum_gap_vs_analytic", spectrum_gap, "<=", 1e-9),
        _metric("max_marginal_defect_eta5", marginal_defect, "<=", 1e-10),
        _metric("max_product_case_defect", product_defect, "<=", 1e-12),
        _metric("max_marginal_defect_random", random_marginal_defect, "<=", 1e-10),
    ]
    return metrics, [], []


def _run_dynamics_cp(config, rng):
    """Classical correlations give CP maps; flags (quantum correlations) give
    a non-CP one. Passes when the classical sweep is all CP, the search on
    the flags finds a witness, and ``replay_unitary`` regenerates that
    witness's coupling bit for bit (the search's ``first_unitary``), so the
    reported (seed, index) names the coupling whose lambda was reported."""
    sweep = classical_cp_sweep(max(1, config.samples // 10), config.dim_s, config.dim_e, rng)
    flags = orthogonal_flag_assignment(canonical_basis(config.dim_s))
    search = find_noncp_unitary(flags, attempts=config.samples, seed=config.seed)

    metrics = [
        _metric("classical_maps_checked", sweep.maps_checked),
        _metric("classical_min_choi_eig", sweep.min_lambda, ">=", -CP_TOL),
        _metric("noncp_best_lambda", search.best_lambda),
        _metric("noncp_attempts", search.attempts),
    ]
    gates = [Gate("noncp_found", search.found, "==", True)]
    witnesses = []
    if search.found:
        u = replay_unitary(search.seed, search.first_index, flags.dim_s * flags.dim_e)
        gates.append(Gate("witness_replays", np.array_equal(u, search.first_unitary), "==", True))
        witnesses.append({
            "description": "CP-breaking unitary coupling (replayable Haar draw)",
            "seed": search.seed,
            "index": search.first_index,
            "lambda_min_choi": search.first_lambda,
        })
    return metrics, gates, witnesses


def _run_table1(config, rng):
    rows = assignment_condition_table(config.samples, rng)
    metrics = []
    for row in rows:
        for label, value, expected in zip(("linear", "consistent", "positive"),
                                          row.conditions, EXPECTED_CONDITIONS[row.family]):
            metrics.append(_metric(f"{row.family}_{label}", int(value), "==", int(expected)))
    for row in rows:
        metrics.append(_metric(f"{row.family}_min_output_eig", row.min_output_eigenvalue))
    return metrics, [], []


# per experiment: its runner, the term-sized stacks it holds at once, and
# the (terms, dim_s, dim_e) of every assignment it builds: dim_s^2 terms on a
# projector basis, dim_s on a measurement (theorem2, theorem3); the flags
# have dim_e = dim_s^2
_EXPERIMENTS = {
    "pechukas": (_run_pechukas, 1, lambda s, e: [(4, 2, e)]),
    "theorem1": (_run_theorem1, 1, lambda s, e: [(s * s, s, e)]),
    "theorem2": (_run_theorem2, 1, lambda s, e: [(s, s, e)]),
    "theorem3": (_run_theorem3, 1, lambda s, e: [(s, s, e)]),
    # the negative tau, the flags
    "lemma1": (_run_lemma1, 1, lambda s, e: [(s * s, s, e), (s * s, s, s * s)]),
    # the terms, one corrupted set
    "appendix": (_run_appendix, 2, lambda s, e: [(s * s, s, e)]),
    "compat-domain": (_run_compat_domain, 1, lambda s, e: [(s * s, s, s * s)]),
    "broadcast": (_run_broadcast, 1, lambda s, e: [(4, 2, 2)]),
    # the flags' terms and unit images on the search's full path; the first
    # entry counts them at the sweep's dims, where the sweep builds neither
    "dynamics-cp": (_run_dynamics_cp, 2, lambda s, e: [(s * s, s, e), (s * s, s, s * s)]),
    "table1": (_run_table1, 1, lambda s, e: [(4, 2, 2)]),
}

EXPERIMENTS = tuple(_EXPERIMENTS)


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment; deterministic under (experiment, seed, samples,
    dims, tol)."""
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    rows, gates, witnesses = _EXPERIMENTS[config.experiment][0](config, rng)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    gates = (*(row for row in rows if row.op is not None), *gates)
    return ExperimentReport(
        experiment=config.experiment,
        config=config.echo(),
        passed=all(gate.holds() for gate in gates),
        metrics=[{"name": row.name, "value": row.value} for row in rows],
        witnesses=witnesses,
        runtime_ms=runtime_ms,
        gates=gates,
    )


# ---------------------------------------------------------------------------
# serialization: fixed key order, floats at 17 significant digits
# ---------------------------------------------------------------------------

def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_report(report: ExperimentReport) -> str:
    ordered = {
        "experiment": report.experiment,
        "config": report.config,
        "pass": report.passed,
        "metrics": report.metrics,
        "witnesses": report.witnesses,
        "runtime_ms": report.runtime_ms,
    }
    lines = [f"  {json.dumps(key)}: {_json_value(value)}" for key, value in ordered.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def emit(report: ExperimentReport, path: str | None = None) -> None:
    """Write the report as UTF-8 JSON to ``path`` or standard output."""
    payload = render_report(report)
    if path is None:
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assignlab",
        description="Seeded certification experiments for assignment maps.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS)
    parser.add_argument("--seed", type=int,
                        help=f"default: the config file's seed, else ${SEED_ENV_VAR}, else 0")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--dim-s", type=int, dest="dim_s")
    parser.add_argument("--dim-e", type=int, dest="dim_e")
    parser.add_argument("--tol", type=float,
                        help="PSD tolerance of compat-domain's domain checks; "
                             "the other experiments only echo it in the report")
    parser.add_argument("--out", dest="out_path", metavar="OUT")
    parser.add_argument("--config", help="JSON file with flag values (flags win)")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise UsageError(f"config file is not valid UTF-8: {exc}") from exc
        # bad JSON, an integer past Python's digit limit, or too deep nesting
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        for key, raw in file_values.items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            values[_CONFIG_KEYS[key]] = raw

    for field in _CONFIG_KEYS.values():
        flag_value = getattr(args, field)
        if flag_value is not None:
            values[field] = flag_value

    if "seed" not in values:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                values["seed"] = int(env_seed)
            except ValueError as exc:
                raise UsageError(
                    f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
                ) from exc

    if "experiment" not in values:
        raise UsageError("an experiment must be named via --experiment or --config")
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        config = _resolve_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run(config)
    status = 0 if report.passed else 1
    try:
        emit(report, config.out_path)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a non-finite metric; rendered before any write
        print(f"error: cannot render report: {exc}", file=sys.stderr)
        status = 1
    for gate in report.gates:
        if not gate.holds():
            print(gate, file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
