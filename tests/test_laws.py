"""Laws of the samplers, not their bits: seeded moments of many draws
against their closed forms, each within five standard errors.

A reference copy of a sampler catches a change to its algorithm but not a
wrong algorithm copied into the reference; a moment checks the law itself.
"""

import numpy as np
import pytest

from assignlab.operators import haar_unitaries

DRAWS = 20000
Z_BOUND = 5.0


def z_score(values: np.ndarray, expected: float) -> float:
    """(sample mean - expected) over the sample mean's standard error."""
    return float((values.mean() - expected) / (values.std(ddof=1) / np.sqrt(len(values))))


class TestHaarUnitaries:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_mean_squared_trace_is_one(self, dim):
        # E|Tr U|^2 = 1 on U(D) (Diaconis and Shahshahani, J. Appl. Probab.
        # 31A, 49 (1994)); these draws give z = -0.42 at D = 2 and -0.29 at
        # D = 4. Q without Mezzadri's phase fix draws 1.35 and 1.86 (z =
        # +46.6 and +90.5), and Q times R's diagonal, not its phases, 1.49
        # and 2.50 (z = +40.1 and +79.3)
        normals = np.random.default_rng(dim).standard_normal((DRAWS, 2, dim, dim))
        u = haar_unitaries(normals)
        squared = np.abs(np.trace(u, axis1=-2, axis2=-1)) ** 2
        assert abs(z_score(squared, 1.0)) <= Z_BOUND
