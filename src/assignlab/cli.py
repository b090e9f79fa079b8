"""Command-line experiment runner with seeded, serializable reports.

Each experiment drives one family of library checks and emits a JSON report
with a fixed key order (experiment, config, pass, metrics, witnesses,
runtime_ms). Reports are byte-identical across runs of the same
configuration, runtime_ms aside. The runners' random samples are drawn and
checked as stacks, in chunks of at most ``_CHUNK_BYTES``.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    broadcast_assignment,
    consistency_defect,
    dephase,
    env_negativity_report,
    equal_env_certificate,
    hermiticity_trace_audit,
    orthogonal_flag_assignment,
    pechukas_constraints,
    positivity_certificate,
    probe_chunks,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.compatibility import (
    boundary_along_ray,
    domain_volume,
    simplex_domain_check,
)
from assignlab.dynamics import (
    classical_cp_sweep,
    cp_certificate,
    find_noncp_unitary,
    induced_map,
    assignment_condition_table,
    replay_unitary,
)
from assignlab.operators import (
    PSD_TOL,
    canonical_basis,
    chunk_ranges,
    ginibre_densities,
    haar_unitaries,
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
    "UsageError",
    "run",
    "emit",
    "render_report",
    "main",
]

SEED_ENV_VAR = "ASSIGNLAB_SEED"

# experiments that build the orthogonal-flag assignment, whose environment
# has dimension dim_s^2 whatever dim-e says
_FLAG_EXPERIMENTS = ("lemma1", "compat-domain", "dynamics-cp")

# refuse a config whose largest operator stack exceeds this many bytes
_MAX_STACK_BYTES = 64 * 2**20


def _effective_dims(config) -> tuple[int, int]:
    """(dim_s, dim_e) of the assignments the experiment really builds."""
    if config.experiment in ("table1", "broadcast"):
        return 2, 2
    if config.experiment == "pechukas":
        return 2, config.dim_e
    if config.experiment in _FLAG_EXPERIMENTS:
        return config.dim_s, config.dim_s**2
    return config.dim_s, config.dim_e


def _largest_stack_bytes(config) -> int:
    """Bytes of dim_s^2 complex joint operators, as in a linear assignment's
    terms, at the effective dims; dynamics-cp holds two such stacks at once
    (the flag assignment's terms and their induced-map unit images)."""
    dim_s, dim_e = _effective_dims(config)
    copies = 2 if config.experiment == "dynamics-cp" else 1
    return copies * 16 * dim_s**2 * (dim_s * dim_e) ** 2


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
    experiment: str
    seed: int = 0
    samples: int = 500
    dim_s: int = 2
    dim_e: int = 2
    tol: float = 1e-10
    out_path: str | None = None

    def validate(self) -> "ExperimentConfig":
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
        return self

    def echo(self) -> dict:
        return {key: getattr(self, field) for key, field in _CONFIG_KEYS.items() if key != "out"}


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    config: dict
    passed: bool
    metrics: list
    witnesses: list
    runtime_ms: float


def _metric(name: str, value) -> dict:
    return {"name": name, "value": value}


def _state_witness(description: str, state: np.ndarray) -> dict:
    state = np.asarray(state, dtype=complex)
    return {
        "description": description,
        "state_real": state.real.tolist(),
        "state_imag": state.imag.tolist(),
    }


# ---------------------------------------------------------------------------
# experiment runners; each returns (passed, metrics, witnesses)
# ---------------------------------------------------------------------------

def _run_pechukas(config, rng):
    t = random_density(config.dim_e, rng)
    equal = pechukas_constraints([t, t, t, t])
    eta = qubit_states()
    z_quartet = (eta[0], eta[2], eta[3], eta[5])
    equal_z = pechukas_constraints([t, t, t, t], states=z_quartet)

    d_e = config.dim_e
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    disagreements = 0
    min_random_residual = np.inf
    # one sample is four environment operators, drawn in a row
    for lo, hi in chunk_ranges(config.samples, 16 * (2 * d_e) ** 2):
        taus = random_density(d_e, rng, 4 * (hi - lo)).reshape(hi - lo, 4, d_e, d_e)
        residual = pechukas_constraints(taus.swapaxes(0, 1)).max_residual
        max_dist = np.max([trace_norm(taus[:, i] - taus[:, j]) for i, j in pairs], axis=0)
        disagreements += int(np.count_nonzero((residual <= 1e-12) != (max_dist <= 1e-9)))
        min_random_residual = min(min_random_residual, float(np.min(residual)))

    passed = (
        equal.max_residual <= 1e-12
        and equal_z.max_residual <= 1e-12
        and disagreements == 0
    )
    metrics = [
        _metric("max_residual_all_equal", equal.max_residual),
        _metric("max_residual_all_equal_z_axis", equal_z.max_residual),
        _metric("min_random_max_residual", float(min_random_residual)),
        _metric("equivalence_disagreements", disagreements),
    ]
    return passed, metrics, []


def _run_theorem1(config, rng):
    basis = canonical_basis(config.dim_s)
    t = random_density(config.dim_e, rng)
    equal_verdict = equal_env_certificate(
        product_assignment(basis, t), config.samples, rng
    )

    perturbed_ops = np.stack([t] * basis.size)
    perturbed_ops[1] = random_density(config.dim_e, rng)
    perturbed = LinearAssignment(basis, perturbed_ops)
    perturbed_verdict = equal_env_certificate(perturbed, config.samples, rng)

    passed = (
        equal_verdict.all_env_ops_equal
        and equal_verdict.positivity.passed()
        and equal_verdict.biconditional_holds
        and not perturbed_verdict.all_env_ops_equal
        and perturbed_verdict.positivity.min_eigenvalue < -1e-6
        and perturbed_verdict.biconditional_holds
    )
    metrics = [
        _metric("min_eig_equal_env", equal_verdict.positivity.min_eigenvalue),
        _metric("min_eig_perturbed_env", perturbed_verdict.positivity.min_eigenvalue),
        _metric("env_distance_perturbed", perturbed_verdict.max_env_distance),
    ]
    witnesses = [
        _state_witness(
            f"negative output on {perturbed_verdict.positivity.witness_label}",
            perturbed_verdict.positivity.witness_state,
        )
    ]
    return passed, metrics, witnesses


def _run_theorem2(config, rng):
    d_s, d_e = config.dim_s, config.dim_e
    max_formula_gap = 0.0
    max_diagonal_defect = 0.0
    # a sample draws the Ginibre pairs of its measurement, of its d_s
    # environment states and of its state as one normal draw (the draws
    # random_unitary and random_density would make, back to back), then its
    # Dirichlet weights
    cuts = (2 * d_s * d_s, 2 * d_s * d_s + 2 * d_s * d_e * d_e)
    alpha = np.ones(d_s)
    # a sample's assignment terms: d_s joint operators
    for lo, hi in chunk_ranges(config.samples, 16 * d_s * (d_s * d_e) ** 2):
        # the draws stay per sample, in stream order; each kind is then built
        # as one stack, which the stacked assignment checks and maps at once
        n = hi - lo
        normals = np.empty((n, cuts[1] + 2 * d_s * d_s))
        weights = np.empty((n, d_s))
        for i in range(n):
            rng.standard_normal(out=normals[i])
            weights[i] = rng.dirichlet(alpha)
        measured, envs, etas = np.split(normals, cuts, axis=1)
        z = LinearAssignment(
            OrthogonalProjectorSet.from_unitary(haar_unitaries(measured.reshape(n, 2, d_s, d_s))),
            ginibre_densities(envs.reshape(n, d_s, 2, d_e, d_e)))
        eta = ginibre_densities(etas.reshape(n, 2, d_s, d_s))
        defect = consistency_defect(z, eta)
        gap = np.abs(defect - trace_norm(eta - dephase(eta, z.basis)))
        diagonal = weighted_sum(weights, z.basis.projectors)
        max_formula_gap = max(max_formula_gap, float(np.max(gap)))
        max_diagonal_defect = max(max_diagonal_defect,
                                  float(np.max(consistency_defect(z, diagonal))))

    metrics = [
        _metric("max_formula_gap", max_formula_gap),
        _metric("max_defect_diagonal", max_diagonal_defect),
    ]
    passed = max_formula_gap <= 1e-10 and max_diagonal_defect <= 1e-12
    if config.dim_s == 2:
        taus = random_density(config.dim_e, rng, 2)
        z_basis = LinearAssignment(OrthogonalProjectorSet.computational(2), taus)
        defect_eta1 = consistency_defect(z_basis, qubit_states()[0])
        metrics.append(_metric("defect_eta1", defect_eta1))
        passed = passed and abs(defect_eta1 - 1.0) <= 1e-10
    return passed, metrics, []


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

    passed = (
        good.min_eigenvalue >= -1e-10
        and np.all(min_eigenvalue(z_good.env_ops) >= -PSD_TOL)
        and bad.min_eigenvalue <= bound + 1e-9
        and abs(bad.min_eigenvalue - predicted) <= 1e-9
    )
    metrics = [
        _metric("min_eig_positive_env", good.min_eigenvalue),
        _metric("witness_min_eig", bad.min_eigenvalue),
        _metric("block_spectrum_prediction", predicted),
        _metric("predicted_bound", bound),
    ]
    witnesses = [_state_witness("negative output witness", bad.witness_state)]
    return passed, metrics, witnesses


def _run_lemma1(config, rng):
    basis = canonical_basis(config.dim_s)
    neg = np.zeros((config.dim_e, config.dim_e), dtype=complex)
    neg[0, 0], neg[1, 1] = 1.5, -0.5
    taus = np.concatenate([neg[None], random_density(config.dim_e, rng, basis.size - 1)])
    report = env_negativity_report(LinearAssignment(basis, taus))

    flags = orthogonal_flag_assignment(basis)
    converse = positivity_certificate(flags, config.samples, rng)
    converse_env_min = np.min(min_eigenvalue(flags.env_ops))

    passed = (
        report.holds
        and abs(report.output_min_eigs[0] + 0.5) <= 1e-10
        and converse_env_min >= -1e-12
        and converse.min_eigenvalue < -1e-6
    )
    metrics = [
        _metric("min_output_eig_negative_env", float(report.output_min_eigs[0])),
        _metric("converse_env_min_eig", float(converse_env_min)),
        _metric("converse_output_min_eig", converse.min_eigenvalue),
    ]
    return passed, metrics, []


def _run_appendix(config, rng):
    basis = canonical_basis(config.dim_s)
    max_herm = 0.0
    max_trace = 0.0
    corrupted_herm = corrupted_trace = None
    n_assignments = max(1, config.samples // 10)
    for i in range(n_assignments):
        taus = random_density(config.dim_e, rng, basis.size)
        audit = hermiticity_trace_audit(LinearAssignment(basis, taus), rng)
        max_herm = max(max_herm, audit.max_hermiticity_defect)
        max_trace = max(max_trace, audit.max_trace_defect)
        if i == 0:
            corrupted_herm = audit.corrupted_hermiticity_defect
            corrupted_trace = audit.corrupted_trace_defect
    passed = (
        max_herm <= 1e-10
        and max_trace <= 1e-10
        and abs(corrupted_herm - 0.2) <= 1e-10
        and abs(corrupted_trace - 0.1) <= 1e-10
    )
    metrics = [
        _metric("max_hermiticity_defect", max_herm),
        _metric("max_trace_defect", max_trace),
        _metric("corrupted_hermiticity_defect", corrupted_herm),
        _metric("corrupted_trace_defect", corrupted_trace),
    ]
    return passed, metrics, []


def _run_compat_domain(config, rng):
    basis = canonical_basis(config.dim_s)
    flags = orthogonal_flag_assignment(basis)
    volume = domain_volume(flags, max(config.samples, 100), rng, tol=config.tol)
    simplex = simplex_domain_check(flags, config.samples, rng, tol=config.tol)
    center = np.eye(config.dim_s, dtype=complex) / config.dim_s

    metrics = [
        _metric("fraction", volume.fraction),
        _metric("ci95_low", volume.ci95[0]),
        _metric("ci95_high", volume.ci95[1]),
        _metric("hits", volume.hits),
        _metric("simplex_agreements", simplex.agreements),
        _metric("simplex_probes", simplex.probes),
        _metric("max_block_spectrum_gap", simplex.max_gap),
    ]
    # the domain is always a strict subset for flag assignments; whether any
    # random state lands inside depends on dimension and sample count
    passed = simplex.all_agree and volume.fraction < 1.0
    witnesses = []
    if config.dim_s == 2:
        eta = qubit_states()
        ray_in = boundary_along_ray(flags, center, eta[0], tol=config.tol)
        ray_out = boundary_along_ray(flags, center, eta[4], tol=config.tol)
        metrics += [
            _metric("t_star_to_eta1", ray_in.t_star),
            _metric("t_star_to_eta5", ray_out.t_star),
        ]
        passed = passed and abs(ray_in.t_star - 1.0) <= 1e-8 and ray_out.t_star <= 1e-8
        grid = [round(0.1 * k, 1) for k in range(11)]
        t = np.array(grid)[:, None, None]
        profile = min_eigenvalue(flags.apply((1 - t) * center + t * eta[4])).tolist()
        witnesses.append({
            "description": "ray profile from maximally mixed state toward axis state 5",
            "t_grid": grid,
            "min_eigenvalues": profile,
        })
    return passed, metrics, witnesses


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

    passed = (
        spectrum_gap <= 1e-9
        and marginal_defect <= 1e-10
        and product_defect <= 1e-12
        and random_marginal_defect <= 1e-10
    )
    metrics = [
        _metric("min_eig_eta5", float(spectrum[0])),
        _metric("spectrum_gap_vs_analytic", spectrum_gap),
        _metric("max_marginal_defect_eta5", marginal_defect),
        _metric("max_product_case_defect", product_defect),
        _metric("max_marginal_defect_random", random_marginal_defect),
    ]
    return passed, metrics, []


def _run_dynamics_cp(config, rng):
    sweep = classical_cp_sweep(n_assignments=max(1, config.samples // 10),
                               dim_s=config.dim_s, dim_e=config.dim_e, seed=config.seed)
    flags = orthogonal_flag_assignment(canonical_basis(config.dim_s))
    search = find_noncp_unitary(flags, attempts=config.samples, seed=config.seed)

    replay_ok = False
    if search.found:
        u = replay_unitary(search.seed, search.first_index, flags.dim_s * flags.dim_e)
        replay_ok = (
            cp_certificate(induced_map(flags, u)).lambda_min_choi == search.first_lambda
        )

    passed = sweep.all_cp and search.found and replay_ok
    metrics = [
        _metric("classical_maps_checked", sweep.maps_checked),
        _metric("classical_min_choi_eig", sweep.min_lambda),
        _metric("noncp_best_lambda", search.best_lambda),
        _metric("noncp_attempts", search.attempts),
    ]
    witnesses = []
    if search.found:
        witnesses.append({
            "description": "CP-breaking unitary coupling (replayable Haar draw)",
            "seed": search.seed,
            "index": search.first_index,
            "lambda_min_choi": search.first_lambda,
        })
    return passed, metrics, witnesses


def _run_table1(config, rng):
    table = assignment_condition_table(config.seed, config.samples)
    metrics = []
    for row in table.rows:
        for label, value in zip(("linear", "consistent", "positive"), row.conditions):
            metrics.append(_metric(f"{row.family}_{label}", int(value)))
    for row in table.rows:
        metrics.append(_metric(f"{row.family}_min_output_eig", row.min_output_eigenvalue))
    return table.matches_expected, metrics, []


_RUNNERS = {
    "pechukas": _run_pechukas,
    "theorem1": _run_theorem1,
    "theorem2": _run_theorem2,
    "theorem3": _run_theorem3,
    "lemma1": _run_lemma1,
    "appendix": _run_appendix,
    "compat-domain": _run_compat_domain,
    "broadcast": _run_broadcast,
    "dynamics-cp": _run_dynamics_cp,
    "table1": _run_table1,
}

EXPERIMENTS = tuple(_RUNNERS)


def run(config: ExperimentConfig) -> ExperimentReport:
    """Execute one experiment; deterministic under (experiment, seed, samples,
    dims, tol)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    start = time.perf_counter()
    passed, metrics, witnesses = _RUNNERS[config.experiment](config, rng)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ExperimentReport(
        experiment=config.experiment,
        config=config.echo(),
        passed=bool(passed),
        metrics=metrics,
        witnesses=witnesses,
        runtime_ms=runtime_ms,
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
    parser.add_argument("--seed", type=int)
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
        except json.JSONDecodeError as exc:
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
        config = ExperimentConfig(**values)
    except TypeError as exc:
        raise UsageError(str(exc)) from exc
    config.validate()
    return config


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
    try:
        emit(report, config.out_path)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
