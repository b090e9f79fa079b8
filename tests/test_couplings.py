"""Stacked couplings against the per-coupling loops they replaced.

The non-CP search and the classical sweep draw, check, conjugate and
eigensolve a stack of Haar couplings per chunk. Each reference below is a
test-local copy of the loop that took one coupling at a time; the stacked
paths must draw the same unitaries and report the same minima and the same
first witnesses, bit for bit, whatever the chunking.
"""

import numpy as np
import pytest

import assignlab.dynamics as dynamics
import assignlab.operators as operators
from assignlab.assignments import (
    orthogonal_flag_assignment,
    product_assignment,
    random_zero_discord_assignment,
)
from assignlab.dynamics import (
    CP_TOL,
    NONCP_THRESHOLD,
    CPSweep,
    NonCPSearch,
    classical_cp_sweep,
    cp_certificate,
    find_noncp_unitary,
    induced_map,
    replay_unitary,
)
from assignlab.operators import (
    canonical_basis,
    haar_unitaries,
    min_eigenvalue,
    random_density,
    random_unitary,
    require_unitary,
    trace_norm,
)


def old_random_unitary(d, rng):
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def old_lambda(assignment, u):
    return cp_certificate(induced_map(assignment, u)).lambda_min_choi


def ref_find_noncp(assignment, attempts, seed):
    dim = assignment.dim_s * assignment.dim_e
    first_index = first_lambda = None
    best_index, best_lambda = -1, np.inf
    for i in range(attempts):
        lam = old_lambda(assignment, old_random_unitary(dim, np.random.default_rng([seed, i])))
        if lam < best_lambda:
            best_index, best_lambda = i, lam
        if first_index is None and lam < NONCP_THRESHOLD:
            first_index, first_lambda = i, lam
    return NonCPSearch(found=first_index is not None, seed=seed, attempts=attempts,
                       first_index=first_index, first_lambda=first_lambda,
                       best_index=best_index, best_lambda=float(best_lambda))


def ref_sweep(n_assignments, dim_s, dim_e, seed, tol=CP_TOL):
    rng = np.random.default_rng(seed)
    min_lambda, maps_checked = np.inf, 0
    for _ in range(n_assignments):
        z = random_zero_discord_assignment(dim_s, dim_e, rng)
        for _ in range(dynamics.SWEEP_COUPLINGS):
            min_lambda = min(min_lambda, old_lambda(z, old_random_unitary(dim_s * dim_e, rng)))
            maps_checked += 1
    return CPSweep(maps_checked=maps_checked, min_lambda=float(min_lambda),
                   all_cp=min_lambda >= -tol)


def set_chunking(monkeypatch, chunking, dim):
    """``one-map``: one coupling and one joint operator per chunk;
    ``straddling``: two couplings per chunk, given the bytes the search and
    the sweep charge one coupling (its normals and unitary, 32 D^2). Pair
    chunks then hold five joint operators and, for d_s >= 3, end inside a
    coupling's images."""
    if chunking == "default":
        return
    budget = 1 if chunking == "one-map" else int(2.5 * 32 * dim * dim)
    monkeypatch.setattr(operators, "_CHUNK_BYTES", budget)


def search_family(family, d, rng):
    basis = canonical_basis(d)
    if family == "flag":
        return orthogonal_flag_assignment(basis)
    if family == "zero-discord":
        return random_zero_discord_assignment(d, 2, rng)
    return product_assignment(basis, random_density(3, rng))


CHUNKINGS = ("default", "one-map", "straddling")


class TestRandomUnitary:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_equals_sequential_draws(self, d):
        rng, old_rng = np.random.default_rng(d), np.random.default_rng(d)
        stack = random_unitary(d, rng, 5)
        assert stack.shape == (5, d, d)
        assert np.array_equal(stack, np.stack([old_random_unitary(d, old_rng) for _ in range(5)]))
        # the streams stay in step after the stack
        assert np.array_equal(random_unitary(d, rng), old_random_unitary(d, old_rng))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_replay_is_the_search_draw(self, d):
        normals = np.stack([np.random.default_rng([9, i]).standard_normal((2, d, d))
                            for i in range(4)])
        for i, u in enumerate(haar_unitaries(normals)):
            assert np.array_equal(u, replay_unitary(9, i, d))
            assert np.array_equal(u, old_random_unitary(d, np.random.default_rng([9, i])))


class TestRequireUnitary:
    def test_stack_passes(self):
        us = random_unitary(3, np.random.default_rng(0), 4)
        assert require_unitary(us) is not None

    def test_names_offending_matrix(self):
        us = random_unitary(3, np.random.default_rng(1), 4)
        us[2, 0, 0] += 1e-3
        with pytest.raises(ValueError, match=r"matrix 2 is not unitary"):
            require_unitary(us)

    def test_names_offending_matrix_in_nested_stack(self):
        us = random_unitary(2, np.random.default_rng(2), 6).reshape(2, 3, 2, 2)
        us[1, 0] *= 2.0
        with pytest.raises(ValueError, match=r"matrix 1 0 is not unitary"):
            require_unitary(us)

    def test_non_finite_rejected(self):
        u = np.eye(3, dtype=complex)
        u[1, 1] = np.nan
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(u)

    def test_single_matrix_message_has_no_index(self):
        with pytest.raises(ValueError, match=r"^matrix is not unitary"):
            require_unitary(np.diag([1.0, 0.5]).astype(complex))


class TestSymmetrizedSpectra:
    """One copy fewer, the same bits as the two-step (h + h^dag)/2."""

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bit_identical_to_two_step_form(self, d):
        rng = np.random.default_rng(d)
        h = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
        h += h.conj().swapaxes(-1, -2)
        h[..., 0, 1] += 1e-13  # a defect the symmetrization removes
        herm = (h + h.conj().swapaxes(-1, -2)) / 2
        assert np.array_equal(min_eigenvalue(h), np.linalg.eigvalsh(herm)[..., 0])
        assert np.array_equal(trace_norm(h), np.abs(np.linalg.eigvalsh(herm)).sum(axis=-1))


class TestStackedSearch:
    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("family", ["flag", "zero-discord", "product"])
    def test_matches_per_coupling_loop(self, family, d, chunking, monkeypatch):
        assignment = search_family(family, d, np.random.default_rng(50 + d))
        dim = assignment.dim_s * assignment.dim_e
        set_chunking(monkeypatch, chunking, dim)
        attempts = 5 if d == 4 else 9
        for seed in (3, 11):
            search = find_noncp_unitary(assignment, attempts=attempts, seed=seed)
            assert search == ref_find_noncp(assignment, attempts, seed)
            if search.found:
                u = replay_unitary(seed, search.first_index, dim)
                assert old_lambda(assignment, u) == search.first_lambda

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    def test_first_witnesses_on_ties(self, chunking, monkeypatch):
        """Couplings from a pool of two give equal minima; the search keeps
        the first index of the minimum and the first below the threshold."""
        flags = orthogonal_flag_assignment(canonical_basis(2))
        dim = flags.dim_s * flags.dim_e
        set_chunking(monkeypatch, chunking, dim)
        pool = random_unitary(dim, np.random.default_rng(4), 2)
        lams = [old_lambda(flags, u) for u in pool]
        assert lams[0] != lams[1] and min(lams) < NONCP_THRESHOLD

        def pick(normals):
            return pool[(normals[:, 0, 0, 0] > 0).astype(int)]

        monkeypatch.setattr(dynamics, "haar_unitaries", pick)
        attempts, seed = 12, 5
        choice = [int(np.random.default_rng([seed, i]).standard_normal() > 0)
                  for i in range(attempts)]
        low = int(np.argmin(lams))
        assert choice.count(low) >= 2  # a tie the search must break
        search = find_noncp_unitary(flags, attempts=attempts, seed=seed)
        first = choice.index(low)
        assert (search.best_index, search.best_lambda) == (first, lams[low])
        assert (search.first_index, search.first_lambda) == (first, lams[low])
        # a threshold every coupling meets: the very first draw is the witness
        monkeypatch.setattr(dynamics, "NONCP_THRESHOLD", max(lams) + 1.0)
        loose = find_noncp_unitary(flags, attempts=attempts, seed=seed)
        assert (loose.first_index, loose.first_lambda) == (0, lams[choice[0]])

    def test_no_attempts(self):
        flags = orthogonal_flag_assignment(canonical_basis(2))
        search = find_noncp_unitary(flags, attempts=0, seed=1)
        assert search == ref_find_noncp(flags, 0, 1)
        assert (search.found, search.best_index, search.best_lambda) == (False, -1, np.inf)


class TestStackedSweep:
    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_coupling_loop(self, d, chunking, monkeypatch):
        d_e = 2
        dim = d * d_e
        set_chunking(monkeypatch, chunking, dim)
        # an odd count: the straddling chunks leave a ragged last one
        monkeypatch.setattr(dynamics, "SWEEP_COUPLINGS", 5)
        for seed in (0, 21):
            sweep = classical_cp_sweep(n_assignments=3, dim_s=d, dim_e=d_e, seed=seed)
            assert sweep == ref_sweep(3, d, d_e, seed)
            assert sweep.maps_checked == 15 and sweep.all_cp

    def test_empty_sweeps(self, monkeypatch):
        for n in (0, -1):
            assert classical_cp_sweep(n, 2, 2, seed=1) == ref_sweep(n, 2, 2, 1)
        monkeypatch.setattr(dynamics, "SWEEP_COUPLINGS", 0)
        assert classical_cp_sweep(3, 2, 2, seed=1) == ref_sweep(3, 2, 2, 1)


class TestStackedChoi:
    def test_names_offending_map(self):
        flags = orthogonal_flag_assignment(canonical_basis(2))
        good = induced_map(flags, random_unitary(8, np.random.default_rng(0)))
        bad = good.copy()
        bad[0, 1] += 1e-3  # no longer Hermiticity preserving
        with pytest.raises(ValueError, match=r"Choi matrix 1 is not Hermitian"):
            dynamics._choi(np.stack([good, bad]), 2)
