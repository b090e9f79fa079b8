"""Numerical laboratory for assignment maps in open quantum system dynamics.

Constructs linear, zero-discord, product, and broadcasting assignments,
certifies their linearity/consistency/positivity trade-offs, maps
compatibility domains, and tests complete positivity of the induced
dynamical maps.
"""

from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    broadcast_assignment,
    consistency_defect,
    dephase,
    env_negativity_report,
    equal_env_certificate,
    orthogonal_flag_assignment,
    pechukas_constraints,
    positivity_certificate,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.compatibility import (
    CompatibilityVerdict,
    DomainEstimate,
    RaySection,
    boundary_along_ray,
    domain_verdict,
    domain_volume,
    simplex_domain_check,
)
from assignlab.dynamics import (
    ChoiMatrix,
    CPReport,
    assignment_condition_table,
    choi_matrix,
    classical_cp_sweep,
    cp_certificate,
    find_noncp_unitary,
    induced_map,
    replay_unitary,
)
from assignlab.operators import (
    ProjectorBasis,
    canonical_basis,
    ginibre_densities,
    haar_unitaries,
    partial_trace,
    qubit_states,
    random_density,
    random_pure,
    random_unitary,
    tensor,
    trace_norm,
)

__version__ = "0.1.0"
