"""Dense complex linear algebra for small quantum systems.

Tensor products, partial traces, Hermitian spectra, rank-1 projector bases
that check their projectors and derive their dual frames when built (and
their unit vectors on first use), and seeded random sampling of states and
unitaries. Everything operates on plain complex ndarrays; the composite
index convention is system-major (s * dim_e + e).

The operator functions also take stacks (..., d, d) and act on each matrix
of the stack; ``random_density``, ``random_pure`` and ``random_unitary``
draw a stack with one rng call, and ``require_unitary`` and
``require_density`` check a stack, naming the first matrix that fails.
Sampling is split in two: a draw of standard normals, and a construction
from them (``haar_unitaries`` for unitaries, ``ginibre_densities`` for
states). Callers whose samples interleave kinds keep the draws per sample,
in stream order, and build each kind as one stack. Contract: every matrix of
a stacked result is bit-identical to the same call on that matrix alone, and
a drawn stack is bit-identical to drawing its states or unitaries one at a
time (the Generator fills in C order, and consecutive normal draws are one
stream; the QR of a stack factors each matrix as it would factor it alone).
Callers that build stacks bound them with ``chunk_ranges``: at most
``_CHUNK_BYTES`` per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "UNITARITY_TOL",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "chunk_ranges",
    "tensor",
    "partial_trace",
    "min_eigenvalue",
    "trace_norm",
    "expectations",
    "weighted_sum",
    "hermiticity_defect",
    "require_hermitian",
    "require_unit_trace",
    "require_density",
    "require_unitary",
    "qubit_states",
    "ProjectorBasis",
    "canonical_basis",
    "random_density",
    "ginibre_densities",
    "random_pure",
    "random_unitary",
    "haar_unitaries",
]

# Structural identities are held near machine precision; spectral decisions
# get an extra order of magnitude of slack (dense eigensolvers, dim <= 16).
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10
GRAM_MIN_SINGULAR_VALUE = 1e-10
IMAG_RESIDUE_TOL = 1e-10

# largest stack of operators built or transformed in one batched pass
_CHUNK_BYTES = 256 * 1024


def chunk_ranges(total: int, item_bytes: int):
    """Consecutive (start, stop) ranges covering range(total), each spanning
    at most ``_CHUNK_BYTES`` of items of ``item_bytes`` (at least one item)."""
    step = max(1, _CHUNK_BYTES // item_bytes)
    for start in range(0, total, step):
        yield start, min(start + step, total)


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


PAULI_X = _frozen([[0, 1], [1, 0]])
PAULI_Y = _frozen([[0, -1j], [1j, 0]])
PAULI_Z = _frozen([[1, 0], [0, -1]])


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the system factor first; leading stack axes
    broadcast, so stacks give one product per pair of matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    # the same broadcast product np.kron forms for two matrices
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    rows, cols = a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]
    return out.reshape(out.shape[:-4] + (rows, cols))


def partial_trace(x: np.ndarray, dim_s: int, dim_e: int, trace_out: str = "E") -> np.ndarray:
    """Trace out one factor of a (dim_s*dim_e)-dimensional operator or stack.

    ``trace_out`` names the subsystem removed: "E" keeps the dim_s x dim_s
    system block, "S" keeps the dim_e x dim_e environment block.
    """
    x = np.asarray(x, dtype=complex)
    n = dim_s * dim_e
    if x.shape[-2:] != (n, n):
        raise ValueError(f"expected a {n}x{n} operator, got shape {x.shape}")
    blocks = x.reshape(x.shape[:-2] + (dim_s, dim_e, dim_s, dim_e))
    if trace_out == "E":
        return np.einsum("...iaja->...ij", blocks)
    if trace_out == "S":
        return np.einsum("...aiaj->...ij", blocks)
    raise ValueError(f"trace_out must be 'S' or 'E', got {trace_out!r}")


def hermiticity_defect(m: np.ndarray):
    """Trace norm of the anti-Hermitian part (m - m^dag)/2, one per matrix."""
    m = np.asarray(m, dtype=complex)
    skew = (m - _dagger(m)) / 2j  # i * (anti-Hermitian) is Hermitian
    return np.abs(np.linalg.eigvalsh(skew)).sum(axis=-1)


def _first(mask: np.ndarray) -> str:
    """Stack index of the first offending matrix, for error messages."""
    return "".join(f" {i}" for i in np.argwhere(mask)[0]) if mask.ndim else ""


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "operator") -> np.ndarray:
    """Return ``m`` as complex if it is a Hermitian matrix, or a stack of them."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    defect = np.max(np.abs(m - _dagger(m)), axis=(-2, -1))
    if np.any(defect > tol):
        raise ValueError(f"{name}{_first(defect > tol)} is not Hermitian "
                         f"(defect {np.max(defect):.3e} > {tol:.1e})")
    return m


def require_unit_trace(m: np.ndarray, name: str = "operator") -> np.ndarray:
    """Return ``m`` if every matrix of it has unit trace."""
    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = np.abs(tr - 1.0) > TRACE_TOL
    if np.any(bad):
        raise ValueError(f"{name}{_first(bad)} has trace {float(tr[bad].flat[0])!r}, expected 1")
    return m


def require_density(m: np.ndarray, name: str = "state") -> np.ndarray:
    """Return ``m`` as complex if it is a density operator, or a stack of them."""
    m = require_unit_trace(require_hermitian(m, name=name), name=name)
    lam = np.linalg.eigvalsh(m)[..., 0]
    bad = lam < -PSD_TOL
    if np.any(bad):
        raise ValueError(f"{name}{_first(bad)} has negative eigenvalue "
                         f"{float(lam[bad].flat[0]):.3e}")
    return m


def require_unitary(u: np.ndarray) -> np.ndarray:
    """Return ``u`` as complex if it is a unitary matrix, or a stack of them."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ValueError(f"unitary must be square, got shape {u.shape}")
    defect = np.max(np.abs(_dagger(u) @ u - np.eye(u.shape[-1])), axis=(-2, -1))
    bad = ~(defect <= UNITARITY_TOL)  # a non-finite entry fails too
    if np.any(bad):
        raise ValueError(f"matrix{_first(bad)} is not unitary "
                         f"(defect {np.max(defect):.3e} > {UNITARITY_TOL:.1e})")
    return u


def _hermitian_part(h) -> np.ndarray:
    """(h + h^dag)/2 in one new array: the same bits as the two-step form,
    one stack-sized copy fewer."""
    h = np.asarray(h, dtype=complex)
    out = np.add(h, _dagger(h))
    out /= 2
    return out


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of ``h``, one per matrix."""
    return np.linalg.eigvalsh(_hermitian_part(h))[..., 0]


def trace_norm(h: np.ndarray):
    """Sum of absolute eigenvalues of the Hermitian part of ``h``, one per matrix."""
    return np.abs(np.linalg.eigvalsh(_hermitian_part(h))).sum(axis=-1)


def expectations(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Tr[ops_k state] for a (..., k, d, d) operator set and (..., d, d) states.

    Leading axes broadcast; the result has shape (..., k). The products
    ops[k, a, b] * state[b, a] are summed over b, then over a, in the order
    einsum("kab,ba->k") uses on one matrix, so stacked results are
    bit-identical to single-state ones.
    """
    rows = np.einsum("...kab,...ba->...ka", ops, states)
    out = np.zeros(rows.shape[:-1], dtype=complex)
    for a in range(rows.shape[-1]):
        out += rows[..., a]
    return out


def weighted_sum(coeffs, ops: np.ndarray) -> np.ndarray:
    """sum_k coeffs[..., k] ops[..., k, :, :], leading axes broadcast.

    One vector-matrix product per stack entry, the same product
    np.tensordot(coeffs, ops, axes=1) forms for one coefficient vector.
    """
    flat = ops.reshape(ops.shape[:-2] + (-1,))
    out = np.matmul(np.asarray(coeffs)[..., None, :], flat)[..., 0, :]
    return out.reshape(out.shape[:-1] + ops.shape[-2:])


@cache
def qubit_states() -> tuple[np.ndarray, ...]:
    """The six axis-aligned pure qubit states (x+, y+, z+, x-, y-, z-)."""
    eye = np.eye(2, dtype=complex)
    return tuple(
        _frozen((eye + sign * pauli) / 2)
        for sign in (1.0, -1.0)
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z)
    )


@dataclass(frozen=True, eq=False)
class ProjectorBasis:
    """A spanning set of dim^2 rank-1 projectors with its dual frame.

    ``projectors`` is stacked (dim^2, dim, dim) and checked on construction:
    Hermitian, unit trace, idempotent and linearly independent. ``gram``
    holds their Hilbert-Schmidt overlaps and ``dual_frame`` the Hermitian
    operators D_i with Tr[D_i P_j] = delta_ij, obtained by solving the Gram
    system; all three are read-only, as is ``vectors``, the unit vectors of
    the projectors, derived on first use.
    """

    projectors: np.ndarray
    gram: np.ndarray = field(init=False, repr=False)
    dual_frame: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = np.array(self.projectors, dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"projectors must stack square matrices, got shape {stack.shape}")
        n, d = stack.shape[:2]
        if n != d * d:
            raise ValueError(f"need {d * d} projectors to span dim {d}, got {n}")
        require_hermitian(stack, name="projector")
        require_unit_trace(stack, name="projector")
        not_idempotent = np.max(np.abs(stack @ stack - stack), axis=(-2, -1)) > 1e-10
        if np.any(not_idempotent):
            raise ValueError(f"projector{_first(not_idempotent)} is not idempotent")
        gram = np.einsum("iab,jba->ij", stack, stack).real
        smallest = np.linalg.svd(gram, compute_uv=False)[-1]
        if smallest < GRAM_MIN_SINGULAR_VALUE:
            raise ValueError(
                f"projector set is too close to linear dependence "
                f"(smallest Gram singular value {smallest:.3e})"
            )
        dual = np.tensordot(np.linalg.inv(gram), stack, axes=1)
        stack.setflags(write=False)
        object.__setattr__(self, "projectors", stack)
        object.__setattr__(self, "gram", _frozen(gram).real)
        object.__setattr__(self, "dual_frame", _frozen(dual))

    @property
    def dim(self) -> int:
        return self.projectors.shape[-1]

    @property
    def size(self) -> int:
        return self.dim * self.dim

    @cached_property
    def vectors(self) -> np.ndarray:
        """Unit vectors v_i with P_i = |v_i><v_i|, stacked (dim^2, dim)."""
        return _rank1_vectors(self.projectors)

    def coefficients(self, h: np.ndarray) -> np.ndarray:
        """Real coefficients q with h = sum_i q_i P_i, read through the dual
        frame; a stack (..., d, d) gives coefficients (..., d^2)."""
        h = np.asarray(h, dtype=complex)
        if h.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"operator shape {h.shape} does not match basis dim {self.dim}")
        q = expectations(self.dual_frame, h)
        residue = np.max(np.abs(q.imag))
        if not np.isfinite(residue):
            raise ValueError("operator has non-finite entries")
        if residue > IMAG_RESIDUE_TOL:
            raise ValueError(
                f"coefficients have imaginary residue {residue:.3e}; input is not Hermitian"
            )
        return q.real


@cache
def canonical_basis(d: int) -> ProjectorBasis:
    """Standard rank-1 projector basis spanning the Hermitian d x d matrices.

    For d = 2 this is the axis basis (x+, y+, z+, x-); for d >= 3 it is the
    tomography-style set |j><j| together with the projectors onto
    (|j> + |k>)/sqrt2 and (|j> + i|k>)/sqrt2 for j < k, pairs in row-major order.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if d == 2:
        return ProjectorBasis(qubit_states()[:4])
    j, k = np.triu_indices(d, 1)
    pair = d + 2 * np.arange(len(j))  # row of (|j> + |k>)/sqrt2; (|j> + i|k>)/sqrt2 follows
    v = np.zeros((d * d, d), dtype=complex)
    v[np.arange(d), np.arange(d)] = 1.0
    v[pair, j] = v[pair + 1, j] = v[pair, k] = 1.0
    v[pair + 1, k] = 1.0j
    v[d:] /= np.sqrt(2.0)
    # the product np.outer forms for each vector
    return ProjectorBasis(v[:, :, None] * v.conj()[:, None, :])


def _rank1_vectors(projectors: np.ndarray) -> np.ndarray:
    """Unit vectors v with P = |v><v| for a stack (..., d, d) of rank-1
    projectors: the column j of largest diagonal entry, P[:, j] / sqrt(P[j, j]),
    which is v up to a phase."""
    diagonal = np.diagonal(projectors, axis1=-2, axis2=-1).real
    j = np.argmax(diagonal, axis=-1)[..., None]
    column = np.take_along_axis(projectors, j[..., None, :], axis=-1)[..., 0]
    out = column / np.sqrt(np.take_along_axis(diagonal, j, axis=-1))
    out.setflags(write=False)
    return out


def _shape(size: int | None) -> tuple:
    return () if size is None else (size,)


def ginibre_densities(normals: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt random density operators from standard normals of
    shape (..., 2, d, d): G G^dag / Tr[G G^dag] of the Ginibre matrices
    G = x[0] + i x[1], symmetrized."""
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    m = g @ _dagger(g)
    m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    return _hermitian_part(m)


def random_density(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt random density operator (normalized Ginibre G G^dag),
    or a stack of ``size`` of them drawn with one rng call."""
    return ginibre_densities(rng.standard_normal(_shape(size) + (2, d, d)))


def random_pure(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random pure-state projector, or a stack of ``size`` of them."""
    x = rng.standard_normal(_shape(size) + (2, d))
    v = x[..., 0, :] + 1j * x[..., 1, :]
    # the dot products np.linalg.norm takes, on the same strided views
    re, im = v.real[..., None, :], v.imag[..., None, :]
    norm = np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))
    v /= norm[..., 0]
    return v[..., :, None] * v.conj()[..., None, :]


def haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from standard normals of shape (..., 2, d, d):
    one stacked QR of the Ginibre matrices (x[0] + i x[1])/sqrt2, with the
    phases of each R diagonal moved onto the columns of Q."""
    g = (normals[..., 0, :, :] + 1j * normals[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return q * phases[..., None, :]


def random_unitary(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-random unitary, or a stack of ``size`` of them drawn with one rng
    call (the real parts of a matrix, then its imaginary parts, in turn)."""
    return haar_unitaries(rng.standard_normal(_shape(size) + (2, d, d)))
