"""Compatibility domain of an assignment: the system states it maps to
valid system-environment density operators.

``domain_verdict`` decides membership by the smallest output eigenvalue;
bisection along affine rays locates the boundary with the same verdict, and
the volume is estimated by Monte Carlo sampling under the Hilbert-Schmidt
measure. The Monte Carlo checks draw and assign their states as byte-bounded
stacks (``probe_chunks``), with the same draws and counts as one state at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from assignlab.assignments import probe_chunks
from assignlab.operators import (
    PSD_TOL,
    min_eigenvalue,
    random_density,
    require_density,
)

__all__ = [
    "CompatibilityVerdict",
    "domain_verdict",
    "RaySection",
    "boundary_along_ray",
    "DomainEstimate",
    "domain_volume",
    "SimplexDomainReport",
    "simplex_domain_check",
]

BISECTION_BRACKET = 1e-8
BISECTION_MAX_ITER = 60

# two-sided 95% normal quantile for the Wilson score interval
Z95 = 1.959963984540054


@dataclass(frozen=True)
class CompatibilityVerdict:
    lambda_min: float
    in_domain: bool


def domain_verdict(assignment, state: np.ndarray, tol: float = PSD_TOL) -> CompatibilityVerdict:
    """Is ``state`` mapped to a positive semidefinite operator?"""
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = min_eigenvalue(assignment.apply(state))
    return CompatibilityVerdict(lambda_min=lam, in_domain=lam >= -tol)


@dataclass(frozen=True, eq=False)
class RaySection:
    """Largest in-domain prefix [0, t_star] of a segment center -> target."""

    t_star: float
    iterations: int
    bracket_width: float


def boundary_along_ray(
    assignment,
    center: np.ndarray,
    target: np.ndarray,
    tol: float = PSD_TOL,
) -> RaySection:
    """Bisect for the largest t in [0, 1] with (1-t) center + t target in domain.

    The smallest output eigenvalue is concave along an affine segment of
    inputs, so the in-domain set on the ray is an interval containing t = 0;
    bisection on the exit point is therefore valid.
    """
    center = np.asarray(center, dtype=complex)
    target = require_density(np.asarray(target, dtype=complex), name="target")
    if not domain_verdict(assignment, center, tol).in_domain:
        raise ValueError("center state is not in the compatibility domain")

    def in_domain(t: float) -> bool:
        return domain_verdict(assignment, (1.0 - t) * center + t * target, tol).in_domain

    if in_domain(1.0):
        return RaySection(t_star=1.0, iterations=0, bracket_width=0.0)
    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > BISECTION_BRACKET and iterations < BISECTION_MAX_ITER:
        mid = 0.5 * (lo + hi)
        if in_domain(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return RaySection(t_star=lo, iterations=iterations, bracket_width=hi - lo)


@dataclass(frozen=True)
class DomainEstimate:
    samples: int
    hits: int
    fraction: float
    ci95: tuple[float, float]


def wilson_interval(hits: int, samples: int) -> tuple[float, float]:
    """Wilson score interval; well-behaved for fractions near 0 or 1."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    p = hits / samples
    denom = 1.0 + Z95 * Z95 / samples
    center = (p + Z95 * Z95 / (2 * samples)) / denom
    half = Z95 * np.sqrt(p * (1.0 - p) / samples + Z95 * Z95 / (4 * samples * samples)) / denom
    # the interval endpoints are exactly 0 (resp. 1) at p = 0 (resp. 1)
    low = 0.0 if hits == 0 else max(0.0, center - half)
    high = 1.0 if hits == samples else min(1.0, center + half)
    return (low, high)


def domain_volume(
    assignment, samples: int, rng: np.random.Generator, tol: float = PSD_TOL
) -> DomainEstimate:
    """Fraction of Hilbert-Schmidt-random states inside the compatibility domain."""
    if samples < 100:
        raise ValueError("need at least 100 samples for a volume estimate")
    hits = 0
    for lo, hi in probe_chunks(assignment, samples):
        states = random_density(assignment.dim_s, rng, hi - lo)
        hits += int(np.count_nonzero(min_eigenvalue(assignment.apply(states)) >= -tol))
    return DomainEstimate(
        samples=samples,
        hits=hits,
        fraction=hits / samples,
        ci95=wilson_interval(hits, samples),
    )


@dataclass(frozen=True)
class SimplexDomainReport:
    probes: int
    agreements: int
    max_gap: float  # worst |lambda_min - min(0, min_i q_i)| observed

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.probes


def simplex_domain_check(
    assignment, samples: int, rng: np.random.Generator, tol: float = PSD_TOL
) -> SimplexDomainReport:
    """For an assignment with mutually orthonormal environment flags, the
    output spectrum is the weight vector ``basis.coefficients`` padded with
    zeros, so domain membership is equivalent to all weights being
    nonnegative. Verify that equivalence on random probes."""
    taus = assignment.env_ops
    overlaps = np.einsum("iab,jba->ij", taus, taus)
    if np.max(np.abs(overlaps - np.eye(len(taus)))) > 1e-10:
        raise ValueError("environment operators are not orthonormal projectors")
    agreements = 0
    max_gap = 0.0
    for lo, hi in probe_chunks(assignment, samples):
        states = random_density(assignment.dim_s, rng, hi - lo)
        q_min = assignment.basis.coefficients(states).min(axis=-1)
        lam = min_eigenvalue(assignment.apply(states))
        agreements += int(np.count_nonzero((lam >= -tol) == (q_min >= -tol)))
        max_gap = max(max_gap, float(np.max(np.abs(lam - np.minimum(0.0, q_min)))))
    return SimplexDomainReport(probes=samples, agreements=agreements, max_gap=max_gap)
