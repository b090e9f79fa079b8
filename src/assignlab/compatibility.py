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
byte-bounded stack of draws (``eigen_chunks``) to ``domain_verdict``. ``simplex_domain_check``
is the independent check that the flag assignment's output spectrum is its
weights padded with zeros, which the flags' diagonal factor reads off
directly: with the flags rotated onto the computational basis, the
output's environment blocks are weighted sums of Kronecker factors, so it
eigensolves the d_e diagonal d_s x d_s blocks and bounds the Frobenius norm
of the off-diagonal ones by the triangle inequality, never forming the
D x D output; a bound within ``BLOCK_TOL`` moves the smallest eigenvalue by
at most ``BLOCK_TOL`` (Weyl's inequality). Its probes are drawn, weighed and
eigensolved in chunks sized by those blocks, and a count below one is
refused. All of them refuse a tolerance that is not finite and positive.
Their results carry values; the command line's gates decide on them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from assignlab.assignments import _one, _read_only, eigen_chunks
from assignlab.operators import (
    PSD_TOL,
    _rank1_vectors,
    chunk_ranges,
    min_eigenvalue,
    random_density,
    require_density,
    require_unitary,
    weighted_sum,
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
# bisection steps decided per stacked domain_verdict, on 2^k - 1 midpoints
_SPECULATIVE_STEPS = 3

# largest Frobenius norm of a flag output's off-diagonal environment blocks
# that the block eigensolve drops; it bounds the shift of every eigenvalue
BLOCK_TOL = 1e-12

# two-sided 95% normal quantile for the Wilson score interval
Z95 = 1.959963984540054

# each checked flag assignment's rotated ``_flag_blocks``, kept while the
# assignment lives and never keeping it alive: the shared canonical flags
# build theirs once, until ``canonical_flags.cache_clear()`` drops the flags
_FLAG_BLOCKS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class CompatibilityVerdict:
    """``in_domain`` (at ``tol``) stays a boolean: ``domain_volume`` counts
    it and ``boundary_along_ray`` bisects on it."""

    lambda_min: float  # arrays of one per state for a stack of states
    in_domain: bool


def _require_tol(tol: float) -> None:
    """Refuse a tolerance that is not a finite positive number (NaN is neither)."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def domain_verdict(assignment, state: np.ndarray, tol: float = PSD_TOL) -> CompatibilityVerdict:
    """Is ``state`` mapped to a positive semidefinite operator? A stack of
    states gets one smallest eigenvalue and one verdict per state."""
    _require_tol(tol)
    lam = assignment.min_output_eigenvalue(state)
    return CompatibilityVerdict(lambda_min=lam, in_domain=lam >= -tol)


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
    inside = domain_verdict(assignment, ends, tol).in_domain
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
            verdicts = domain_verdict(assignment, ray(mids), tol).in_domain
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
        hits += int(np.count_nonzero(domain_verdict(assignment, states, tol).in_domain))
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


def _flag_frame(assignment) -> np.ndarray:
    """Unitary F whose first columns are the flag vectors f_i of the
    environment operators tau_i = |f_i><f_i|, completed by an orthonormal
    complement when there are fewer flags than d_e; exactly the identity for
    computational flags."""
    taus = assignment.env_ops
    not_idempotent = np.max(np.abs(taus @ taus - taus)) > 1e-10
    overlaps = np.einsum("iab,jba->ij", taus, taus)
    if not_idempotent or np.max(np.abs(overlaps - np.eye(len(taus)))) > 1e-10:
        raise ValueError("environment operators are not orthonormal rank-1 projectors")
    flags = _rank1_vectors(taus)
    if len(flags) < assignment.dim_e:
        # the right singular vectors past the flags span their complement
        flags = np.concatenate([flags, np.linalg.svd(flags.conj())[2][len(flags):].conj()])
    return require_unitary(flags.T)


def _flag_blocks(basis, rotated_env: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(diag, norms) of the outputs sum_i q_i P_i (x) tau'_i of flags rotated
    onto their frame, ``rotated_env`` = tau'_i. Environment block (j, k) of
    an output is sum_i q_i (tau'_i)_jk P_i: the d_e diagonal ones are the
    weighted sums of diag[j, i] = (tau'_i)_jj P_i, and the off-diagonal ones
    have Frobenius norm at most sum_i |q_i| norms_i, with norms_i =
    ||P_i||_F ||OFF(tau'_i)||_F (triangle inequality and ||A (x) B||_F =
    ||A||_F ||B||_F); exactly 0 when every tau'_i is diagonal."""
    j = np.arange(rotated_env.shape[-1])
    # (d_e, n, d_s, d_s): the product tensor forms for the same entries
    diag = basis.projectors * rotated_env[:, j, j].T[:, :, None, None]
    off_env = rotated_env.copy()
    off_env[:, j, j] = 0.0
    norms = np.linalg.norm(basis.projectors, axis=(1, 2)) * np.linalg.norm(off_env, axis=(1, 2))
    return diag, norms


def _rotated_flag_blocks(assignment) -> tuple[np.ndarray, np.ndarray]:
    """``_flag_blocks`` of the flags rotated once onto their ``_flag_frame``,
    tau'_i = F^dag tau_i F, built on the assignment's first check and kept
    with it, read-only, in ``_FLAG_BLOCKS``."""
    blocks = _FLAG_BLOCKS.get(assignment)
    if blocks is None:
        frame = _flag_frame(assignment)
        rotated = frame.conj().T @ assignment.env_ops @ frame
        blocks = _FLAG_BLOCKS[assignment] = _read_only(*_flag_blocks(assignment.basis, rotated))
    return blocks


def _flag_block_minima(basis, diag: np.ndarray, norms: np.ndarray, states: np.ndarray,
                       first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(lam, q) on a stack of states: the weights q = ``basis.coefficients``
    and each output's least eigenvalue lam over its diagonal blocks, built
    from the ``_flag_blocks`` (diag, norms) and eigensolved in one stacked
    call. ValueError, naming the probe (numbered from ``first``), when the
    off-block bound is above ``BLOCK_TOL`` or a diagonal block is not finite."""
    q = basis.coefficients(states)
    blocks = weighted_sum(q[:, None, :], diag)
    off = np.abs(q) @ norms
    finite = np.isfinite(blocks).all(axis=(1, 2, 3))
    bad = np.flatnonzero(~(off <= BLOCK_TOL) | ~finite)
    if bad.size:
        i = bad[0]
        if not finite[i]:
            raise ValueError(f"probe {first + i}: diagonal flag blocks are not finite")
        raise ValueError(f"probe {first + i}: off-diagonal flag blocks have norm "
                         f"{off[i]:.3e} > BLOCK_TOL {BLOCK_TOL:.0e}")
    return min_eigenvalue(blocks).min(axis=-1), q


def simplex_domain_check(
    assignment, samples: int, rng: np.random.Generator, tol: float = PSD_TOL
) -> SimplexDomainReport:
    """For an assignment whose environment operators are mutually orthogonal
    rank-1 projectors tau_i = |f_i><f_i| (flags), the output
    sum_i q_i P_i (x) tau_i has the weight vector ``basis.coefficients``
    padded with zeros as its spectrum, so domain membership is equivalent to
    all weights being nonnegative. Verify that equivalence on random probes,
    independently of the weights and of the support factor.

    The flags are rotated once onto their frame F (``_flag_frame``), as
    tau'_i = F^dag tau_i F: the outputs sum_i q_i P_i (x) tau'_i are the
    originals conjugated by I (x) F, with the same spectra and block diagonal
    on the environment index. Their Kronecker terms and off-block norms are
    built once per assignment and kept with it (``_rotated_flag_blocks``).
    The probes come in chunks sized by their diagonal blocks (16 d_e d_s^2
    bytes a probe); each chunk's states are drawn, and their weights read,
    once, and ``_flag_block_minima`` sums those blocks, with no D x D output:
    a probe whose off-diagonal environment blocks may have Frobenius norm
    above ``BLOCK_TOL`` raises ValueError, and otherwise its smallest eigenvalue
    is the least over the d_e diagonal d_s x d_s blocks. The dropped blocks
    have spectral norm at most their Frobenius norm, so by Weyl's inequality
    that eigenvalue is within ``BLOCK_TOL`` of the full output's."""
    _require_tol(tol)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    d_s, d_e = _one(assignment).dim_s, assignment.dim_e
    diag, norms = _rotated_flag_blocks(assignment)
    agreements = 0
    max_gap = 0.0
    for lo, hi in chunk_ranges(samples, 16 * d_e * d_s * d_s):
        states = random_density(d_s, rng, hi - lo)
        lam, q = _flag_block_minima(assignment.basis, diag, norms, states, lo)
        q_min = q.min(axis=-1)
        agreements += int(np.count_nonzero((lam >= -tol) == (q_min >= -tol)))
        max_gap = max(max_gap, float(np.max(np.abs(lam - np.minimum(0.0, q_min)))))
    return SimplexDomainReport(probes=samples, agreements=agreements, max_gap=max_gap)
