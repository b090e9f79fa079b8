"""Compatibility domain of an assignment: the system states it maps to
valid system-environment density operators.

``domain_verdict`` decides membership by the smallest output eigenvalue
(``min_output_eigenvalue``, on the assignment's support factor when it has
one, read from the weights when that factor is diagonal, as on the flags),
for one state or a stack; bisection along affine rays locates the
boundary with the same verdict, deciding ``_SPECULATIVE_STEPS`` steps per
stacked call on the midpoints they could visit (and the center with t = 1
in one call), with the bits of one step per call; the volume is estimated
by Monte Carlo sampling under the Hilbert-Schmidt measure, handing each
byte-bounded stack of draws (``eigen_chunks``) to ``domain_verdict``.
``simplex_domain_check`` is the independent check that the flag
assignment's output spectrum is its weights padded with zeros, which the
flags' diagonal factor reads off directly; it eigensolves the outputs'
d_s x d_s environment blocks, never a D x D output. Its probes are drawn,
weighed and eigensolved in chunks sized by those blocks, and a count below
one is refused. All of them refuse a tolerance that is not finite and positive.
``domain_verdict`` returns the verdicts themselves; the other results carry
values, and the command line's gates decide on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from assignlab.assignments import OrthogonalProjectorSet, _one, eigen_chunks
from assignlab.operators import (
    PSD_TOL,
    chunk_ranges,
    min_eigenvalue,
    random_density,
    require_density,
)

__all__ = [
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
# bisection steps decided per stacked domain_verdict, on 2^k - 1 midpoints
_SPECULATIVE_STEPS = 3

# two-sided 95% normal quantile for the Wilson score interval
Z95 = 1.959963984540054


def _require_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite positive number (NaN is neither)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def domain_verdict(assignment, state: np.ndarray, tol: float = PSD_TOL):
    """Is ``state`` mapped to a positive semidefinite operator, its smallest
    output eigenvalue at least -``tol``? A stack of states gets one verdict
    per state."""
    _require_tol(tol)
    return assignment.min_output_eigenvalue(state) >= -tol


@dataclass(frozen=True, eq=False)
class RaySection:
    """Largest in-domain prefix [0, t_star] of a segment center -> target."""

    t_star: float
    iterations: int
    bracket_width: float


def _midpoint_tree(lo: float, hi: float) -> list:
    """The 2^k - 1 midpoints the next k = ``_SPECULATIVE_STEPS`` bisection
    steps from [lo, hi] could visit, in heap order: node j brackets [a, b]
    at its midpoint 0.5 * (a + b), and its children 2j + 1 and 2j + 2
    bracket the steps that leave the midpoint out of the domain and in it."""
    brackets, mids = [(lo, hi)], []
    for j in range(2**_SPECULATIVE_STEPS - 1):
        a, b = brackets[j]
        mids.append(0.5 * (a + b))
        brackets += [(a, mids[j]), (mids[j], b)]
    return mids


def boundary_along_ray(
    assignment,
    center: np.ndarray,
    target: np.ndarray,
    tol: float = PSD_TOL,
) -> RaySection:
    """Bisect for the largest t in [0, 1] with (1-t) center + t target in
    domain, to a bracket of ``BISECTION_BRACKET``; ``center`` and ``target``
    must be density operators, and ``center`` in the domain.

    The smallest output eigenvalue is concave along an affine segment of
    inputs, so the in-domain set on the ray is an interval containing t = 0;
    bisection on the exit point is therefore valid.

    The center and t = 1 are decided in one stacked ``domain_verdict``, and
    the bisection takes ``_SPECULATIVE_STEPS`` steps per stacked call: it
    decides the 2^k - 1 midpoints those steps could visit, each formed as
    the step would form it, 0.5 * (lo + hi), which is exact on the dyadic
    brackets, and replays the steps on their verdicts. So ``t_star``,
    ``iterations`` and ``bracket_width`` are those of one step per call,
    bit for bit.
    """
    _require_tol(tol)
    center = require_density(np.asarray(center, dtype=complex), name="center")
    target = require_density(np.asarray(target, dtype=complex), name="target")

    def ray(t) -> np.ndarray:
        t = np.asarray(t)[:, None, None]
        return (1.0 - t) * center + t * target

    # the center and the far end in one call
    ends = np.concatenate([center[None], ray([1.0])])
    inside = domain_verdict(assignment, ends, tol)
    if not inside[0]:
        raise ValueError("center state is not in the compatibility domain")
    if inside[1]:
        return RaySection(t_star=1.0, iterations=0, bracket_width=0.0)
    lo, hi = 0.0, 1.0
    iterations = 0
    mids, j = [], 0
    while hi - lo > BISECTION_BRACKET and iterations < BISECTION_MAX_ITER:
        if j >= len(mids):  # past the last decided step
            mids, j = _midpoint_tree(lo, hi), 0
            verdicts = domain_verdict(assignment, ray(mids), tol)
        if verdicts[j]:
            lo, j = mids[j], 2 * j + 2
        else:
            hi, j = mids[j], 2 * j + 1
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
    """Fraction of Hilbert-Schmidt-random states inside the compatibility
    domain, with its Wilson 95% interval, from at least 100 samples."""
    if samples < 100:
        raise ValueError("need at least 100 samples for a volume estimate")
    _require_tol(tol)
    hits = 0
    for lo, hi in eigen_chunks(assignment, samples):
        states = random_density(assignment.dim_s, rng, hi - lo)
        hits += int(np.count_nonzero(domain_verdict(assignment, states, tol)))
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


def simplex_domain_check(
    assignment, samples: int, rng: np.random.Generator, tol: float = PSD_TOL
) -> SimplexDomainReport:
    """For an assignment whose environment operators are the computational
    flags tau_i = |i><i| (the first n of d_e), each output
    sum_i q_i P_i (x) |i><i| is block diagonal on the environment index with
    block i exactly q_i P_i, so its spectrum is the weight vector
    ``basis.coefficients`` padded with zeros and domain membership is
    equivalent to all weights being nonnegative. Verify that equivalence on
    random probes, independently of ``min_output_eigenvalue`` and ``apply``:
    each probe's smallest eigenvalue is the least over its n blocks, and no
    D x D output is formed. Other environment operators raise ValueError.

    The probes come in chunks sized by their blocks (16 n d_s^2 bytes a
    probe); each chunk's states are drawn, and their weights read, once. A
    probe whose blocks are not finite raises ValueError naming it."""
    _require_tol(tol)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    projectors = _one(assignment).basis.projectors
    n, d_s, d_e = len(projectors), assignment.dim_s, assignment.dim_e
    if not np.array_equal(assignment.env_ops,
                          OrthogonalProjectorSet.computational(d_e).projectors[:n]):
        raise ValueError("environment operators are not the computational flags |i><i|")
    agreements = 0
    max_gap = 0.0
    for lo, hi in chunk_ranges(samples, 16 * n * d_s * d_s):
        q = assignment.basis.coefficients(random_density(d_s, rng, hi - lo))
        blocks = q[:, :, None, None] * projectors
        finite = np.isfinite(blocks).all(axis=(1, 2, 3))
        if not finite.all():
            raise ValueError(f"probe {lo + np.argmin(finite)}: flag blocks are not finite")
        lam = min_eigenvalue(blocks).min(axis=-1)
        q_min = q.min(axis=-1)
        agreements += int(np.count_nonzero((lam >= -tol) == (q_min >= -tol)))
        max_gap = max(max_gap, float(np.max(np.abs(lam - np.minimum(0.0, q_min)))))
    return SimplexDomainReport(probes=samples, agreements=agreements, max_gap=max_gap)
