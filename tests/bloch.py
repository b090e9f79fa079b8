"""Qubit Bloch-vector oracles for the tests: the state (I + a . sigma)/2 and
its coefficients over the qubit axis basis, in closed form."""

import numpy as np

from assignlab.operators import PAULI_X, PAULI_Y, PAULI_Z


def bloch_state(a) -> np.ndarray:
    """Qubit state (I + a . sigma)/2 for a Bloch vector inside the unit ball."""
    a = _require_bloch(a)
    return (np.eye(2, dtype=complex) + a[0] * PAULI_X + a[1] * PAULI_Y + a[2] * PAULI_Z) / 2


def _require_bloch(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 real components, got shape {a.shape}")
    if a @ a > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector has norm^2 {a @ a!r} > 1")
    return a


def bloch_coeffs(a) -> np.ndarray:
    """Coefficients of (I + a . sigma)/2 over the qubit axis basis (x+, y+, z+, x-)."""
    a1, a2, a3 = _require_bloch(a)
    return np.array([
        0.5 * (1.0 + a1 - a2 - a3),
        a2,
        a3,
        0.5 * (1.0 - a1 - a2 - a3),
    ])
