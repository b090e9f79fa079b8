"""Stacked couplings against the per-coupling loops they replaced.

The non-CP search and the classical sweep draw, check, screen and
eigensolve a stack of Haar couplings per chunk. Each reference below is a
test-local copy of the loop that took one coupling at a time; the stacked
paths must draw the same unitaries, report the same first witnesses as that
loop on the full path, and the same best and minimum as screening each
coupling alone, bit for bit, whatever the chunking. The references also
check every coupling's screen against its full-path value within 1e-12.
"""

import numpy as np
import pytest

import assignlab._seeds as seeds
import assignlab.dynamics as dynamics
import assignlab.operators as operators
from assignlab.assignments import (
    LinearAssignment,
    OrthogonalProjectorSet,
    orthogonal_flag_assignment,
    product_assignment,
    random_zero_discord_assignment,
    zero_discord_assignment,
    zero_discord_size,
)
from assignlab.cli import CP_TOL
from assignlab.dynamics import (
    NONCP_THRESHOLD,
    SCREEN_TOL,
    CPSweep,
    NonCPSearch,
    choi_matrix,
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
    random_pure,
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


# a screen's value and the full path's agree this closely on one coupling
SCREEN_GAP = 1e-12


def screen_lambda(assignment, u):
    """The search's screen of one coupling, alone."""
    return dynamics._screen_minima(dynamics._factor(assignment), assignment, u[None])[0]


def ref_find_noncp(assignment, attempts, seed):
    dim = assignment.dim_s * assignment.dim_e
    first_index = first_lambda = None
    best_index, best_lambda = -1, np.inf
    for i in range(attempts):
        u = old_random_unitary(dim, np.random.default_rng([seed, i]))
        lam, screened = old_lambda(assignment, u), screen_lambda(assignment, u)
        assert abs(screened - lam) <= SCREEN_GAP
        if screened < best_lambda:
            best_index, best_lambda = i, screened
        if first_index is None and lam < NONCP_THRESHOLD:
            first_index, first_lambda = i, lam
    return NonCPSearch(found=first_index is not None, seed=seed, attempts=attempts,
                       first_index=first_index, first_lambda=first_lambda,
                       best_index=best_index, best_lambda=float(best_lambda))


def ref_sweep(n_assignments, dim_s, dim_e, seed):
    rng = np.random.default_rng(seed)
    min_lambda, maps_checked = np.inf, 0
    for _ in range(n_assignments):
        z = random_zero_discord_assignment(dim_s, dim_e, rng)
        for _ in range(dynamics.SWEEP_COUPLINGS):
            u = old_random_unitary(dim_s * dim_e, rng)
            screened = dynamics._block_minima(z, u[None])[0]
            assert abs(screened - old_lambda(z, u)) <= SCREEN_GAP
            min_lambda = min(min_lambda, screened)
            maps_checked += 1
    return CPSweep(maps_checked=maps_checked, min_lambda=float(min_lambda))


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


def seed_sequence_states(seed, lo, hi):
    return np.stack([np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
                     for i in range(lo, hi)])


class TestKeyedStreams:
    """The search's streams are those of default_rng([seed, i]), bit for bit,
    from one vectorized SeedSequence hash per chunk of indices."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2026, 2**32 - 1, 2**32, 2**64 - 1])
    def test_states_match_seed_sequence(self, seed):
        # indices 0 and 1, and both sides of the default key-chunk boundary
        for lo, hi in ((0, 2), (8190, 8194)):
            assert np.array_equal(seeds.seed_states(seed, lo, hi),
                                  seed_sequence_states(seed, lo, hi))

    @pytest.mark.parametrize("seed", [2**64, 2**96 + 5, 2**128 - 1, 2**160 + 2**40 + 3])
    def test_library_seeds_beyond_64_bits(self, seed):
        # 3 to 6 seed words: from 4 on the entropy runs past the pool of 4
        assert np.array_equal(seeds.seed_states(seed, 0, 3), seed_sequence_states(seed, 0, 3))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_indices_beyond_32_bits_split_into_words(self, seed):
        for lo, hi in ((2**32 - 2, 2**32 + 2), (2**64 - 3, 2**64)):
            assert np.array_equal(seeds.seed_states(seed, lo, hi),
                                  seed_sequence_states(seed, lo, hi))
        with pytest.raises(ValueError, match="beyond 2"):
            seeds.seed_states(seed, 2**64 - 1, 2**64 + 1)

    def test_negative_seed_is_refused_as_default_rng_refuses_it(self):
        flags = orthogonal_flag_assignment(canonical_basis(2))
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.default_rng([-1, 0])
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            seeds.seed_states(-1, 0, 2)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            find_noncp_unitary(flags, attempts=3, seed=-1)
        # no attempt is refused before the seed is read
        with pytest.raises(ValueError, match="^attempts must be at least 1$"):
            find_noncp_unitary(flags, attempts=0, seed=-1)

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_normals_match_default_rng(self, d, monkeypatch):
        # key chunks of 3 indices
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 3 * 32)
        for seed in (7, 2**64 - 1):
            for i, stream in enumerate(seeds.keyed_streams(seed, 7)):
                out = np.empty((2, d, d))
                stream.standard_normal(out=out)
                ref = np.random.default_rng([seed, i]).standard_normal((2, d, d))
                assert np.array_equal(out, ref)

    def test_key_chunks_straddling_draw_chunks(self, monkeypatch):
        """Draw chunks of 2 couplings against key chunks of 131 indices:
        the draw chunk [130, 132) takes its streams from two key chunks."""
        flags = orthogonal_flag_assignment(canonical_basis(2))
        dim = flags.dim_s * flags.dim_e
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 2 * 32 * dim * dim + 3 * 32)
        assert list(operators.chunk_ranges(140, 32))[0] == (0, 131)
        drawn = []
        haar = dynamics.haar_unitaries

        def recorded(normals):
            drawn.append(normals.copy())
            return haar(normals)

        monkeypatch.setattr(dynamics, "haar_unitaries", recorded)
        attempts, seed = 140, 2026
        search = find_noncp_unitary(flags, attempts=attempts, seed=seed)
        assert [len(n) for n in drawn] == [2] * 70
        ref = [np.random.default_rng([seed, i]).standard_normal((2, dim, dim))
               for i in range(attempts)]
        assert np.array_equal(np.concatenate(drawn), np.stack(ref))
        assert search == ref_find_noncp(flags, attempts, seed)
        assert np.array_equal(search.first_unitary, replay_unitary(seed, search.first_index, dim))


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
                assert np.array_equal(search.first_unitary, u)

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    def test_first_witnesses_on_ties(self, chunking, monkeypatch):
        """Couplings from a pool of two give equal minima; the search keeps
        the first index of the lowest screen and the first below the threshold."""
        flags = orthogonal_flag_assignment(canonical_basis(2))
        dim = flags.dim_s * flags.dim_e
        set_chunking(monkeypatch, chunking, dim)
        pool = random_unitary(dim, np.random.default_rng(4), 2)
        lams = [old_lambda(flags, u) for u in pool]
        screens = [screen_lambda(flags, u) for u in pool]
        assert lams[0] != lams[1] and min(lams) < NONCP_THRESHOLD
        assert np.argmin(screens) == np.argmin(lams)

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
        assert (search.best_index, search.best_lambda) == (first, screens[low])
        assert (search.first_index, search.first_lambda) == (first, lams[low])
        # a threshold every coupling meets: the very first draw is the witness
        monkeypatch.setattr(dynamics, "NONCP_THRESHOLD", max(lams) + 1.0)
        loose = find_noncp_unitary(flags, attempts=attempts, seed=seed)
        assert (loose.first_index, loose.first_lambda) == (0, lams[choice[0]])

    def test_no_attempts(self):
        # an empty search has no verdict to report
        flags = orthogonal_flag_assignment(canonical_basis(2))
        for attempts in (0, -3):
            with pytest.raises(ValueError, match="^attempts must be at least 1$"):
                find_noncp_unitary(flags, attempts=attempts, seed=1)


def screen_families(d, rng):
    """Flags, zero-discord, product, lemma1's assignment with one negative
    environment operator, and a generic one; d_e is d^2, 2, 3, 3 and 2."""
    basis = canonical_basis(d)
    neg = np.diag([1.5, -0.5, 0.0]).astype(complex)
    return [
        orthogonal_flag_assignment(basis),
        random_zero_discord_assignment(d, 2, rng),
        product_assignment(basis, random_density(3, rng)),
        LinearAssignment(basis, np.concatenate([neg[None], random_density(3, rng, d * d - 1)])),
        LinearAssignment(basis, random_density(2, rng, d * d)),
    ]


def count_full_path(monkeypatch):
    """Couplings run through ``induced_map`` from now on, in a one-item list."""
    count = [0]
    full = dynamics.induced_map

    def counted(assignment, u):
        count[0] += 1
        return full(assignment, u)

    monkeypatch.setattr(dynamics, "induced_map", counted)
    return count


def full_path_lambda(assignment, u):
    """Full-path Choi minimum of one coupling, as the search confirms it."""
    return choi_matrix(induced_map(assignment, u)).spectrum[0]


def noisy_screen(monkeypatch, size):
    """Move every screened value by ``size``, with a sign fixed by the coupling."""
    screen = dynamics._screen_minima

    def noisy(factor, assignment, u):
        return screen(factor, assignment, u) + size * np.where(u[:, 0, 0].real > 0, 1.0, -1.0)

    monkeypatch.setattr(dynamics, "_screen_minima", noisy)


class TestScreenedSearch:
    """The search reports the factored map's best and confirms its first
    witness on the full path."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_screen_agrees_with_full_path(self, d):
        rng = np.random.default_rng(70 + d)
        for assignment in screen_families(d, rng):
            u = random_unitary(assignment.dim_s * assignment.dim_e, rng, 3)
            screened = dynamics._screen_minima(dynamics._factor(assignment), assignment, u)
            exact = np.array([full_path_lambda(assignment, u_k) for u_k in u])
            assert np.max(np.abs(screened - exact)) <= 1e-12

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("family", ["flag", "zero-discord", "product"])
    def test_noise_within_tolerance_leaves_the_witness(self, family, d, chunking, monkeypatch):
        assignment = search_family(family, d, np.random.default_rng(60 + d))
        set_chunking(monkeypatch, chunking, assignment.dim_s * assignment.dim_e)
        refs = {seed: ref_find_noncp(assignment, 9, seed) for seed in (3, 11)}
        noisy_screen(monkeypatch, SCREEN_TOL / 4)
        for seed, ref in refs.items():
            search = find_noncp_unitary(assignment, 9, seed)
            assert (search.found, search.first_index, search.first_lambda) \
                == (ref.found, ref.first_index, ref.first_lambda)

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("side", [1, -1], ids=["below", "above"])
    def test_threshold_within_tolerance_is_confirmed(self, side, chunking, monkeypatch):
        """Couplings from a pool of two, the higher one drawn first at seed 2,
        with the threshold SCREEN_TOL/8 above (or below) the higher value and
        that coupling's screened value moved SCREEN_TOL/4 across it: only the
        full path tells whether the higher coupling is the first witness."""
        flags = orthogonal_flag_assignment(canonical_basis(2))
        set_chunking(monkeypatch, chunking, flags.dim_s * flags.dim_e)
        pool = random_unitary(8, np.random.default_rng(4), 2)
        lams = [full_path_lambda(flags, u) for u in pool]
        high = int(np.argmax(lams))
        monkeypatch.setattr(dynamics, "haar_unitaries",
                            lambda normals: pool[(normals[:, 0, 0, 0] > 0).astype(int)])
        attempts, seed = 12, 2
        choice = [int(np.random.default_rng([seed, i]).standard_normal() > 0)
                  for i in range(attempts)]
        first_low = choice.index(1 - high)
        assert choice[:first_low] == [high] * first_low and first_low >= 2
        monkeypatch.setattr(dynamics, "NONCP_THRESHOLD", lams[high] + side * SCREEN_TOL / 8)
        noisy_screen(monkeypatch, side * np.sign(pool[high][0, 0].real) * SCREEN_TOL / 4)
        count = count_full_path(monkeypatch)
        search = find_noncp_unitary(flags, attempts=attempts, seed=seed)
        first = 0 if side > 0 else first_low
        assert (search.first_index, search.first_lambda) == (first, lams[choice[first]])
        # the best is the low coupling's screened value, noise included
        low_screen = dynamics._screen_minima(dynamics._factor(flags), flags, pool[1 - high][None])
        assert (search.best_index, search.best_lambda) == (first_low, low_screen[0])
        assert count[0] >= first + 1  # every draw up to the witness was confirmed

    @pytest.mark.parametrize("chunking", CHUNKINGS)
    def test_screen_ties_keep_the_first(self, chunking, monkeypatch):
        """A pool of U and -U induces one map and one screen, bit for bit:
        drawn U first and -U second, the first stays best. With the screen
        moved SCREEN_TOL/4 up for U and down for -U, the best is -U's lower
        screened value, and the first witness, confirmed on the full path,
        is still U."""
        flags = orthogonal_flag_assignment(canonical_basis(2))
        set_chunking(monkeypatch, chunking, flags.dim_s * flags.dim_e)
        u = random_unitary(8, np.random.default_rng(4))
        pool = np.stack([u, -u]) * np.sign(u[0, 0].real)
        monkeypatch.setattr(dynamics, "haar_unitaries",
                            lambda normals: pool[(normals[:, 0, 0, 0] > 0).astype(int)])
        attempts, seed = 12, 5
        assert [int(np.random.default_rng([seed, i]).standard_normal() > 0)
                for i in range(2)] == [0, 1]
        lam, screened = old_lambda(flags, pool[0]), screen_lambda(flags, pool[0])
        assert (old_lambda(flags, pool[1]), screen_lambda(flags, pool[1])) == (lam, screened)
        search = find_noncp_unitary(flags, attempts=attempts, seed=seed)
        assert (search.best_index, search.best_lambda) == (0, screened)
        assert (search.first_index, search.first_lambda) == (0, lam)
        noisy_screen(monkeypatch, SCREEN_TOL / 4)
        search = find_noncp_unitary(flags, attempts=attempts, seed=seed)
        assert (search.best_index, search.best_lambda) == (1, screened - SCREEN_TOL / 4)
        assert (search.first_index, search.first_lambda) == (0, lam)

    def test_noise_beyond_tolerance_raises(self, monkeypatch):
        flags = orthogonal_flag_assignment(canonical_basis(2))
        noisy_screen(monkeypatch, 2 * SCREEN_TOL)
        with pytest.raises(RuntimeError, match=r"^coupling \d+: .* off the full path"):
            find_noncp_unitary(flags, attempts=9, seed=3)

    def test_search_without_candidates_calls_no_apply(self, monkeypatch):
        """A product assignment induces CP maps only, so no coupling is
        screened near the threshold and its unit images are never built."""
        product = product_assignment(canonical_basis(3),
                                     random_density(3, np.random.default_rng(12)))
        calls = [0]
        apply = type(product).apply

        def counted(self, *args):
            calls[0] += 1
            return apply(self, *args)

        monkeypatch.setattr(type(product), "apply", counted)
        count = count_full_path(monkeypatch)
        search = find_noncp_unitary(product, attempts=20, seed=7)
        assert not search.found and search.best_lambda >= -CP_TOL
        assert (calls[0], count[0]) == (0, 0)

    def test_full_path_runs_few_couplings(self, monkeypatch):
        flags = orthogonal_flag_assignment(canonical_basis(3))
        count = count_full_path(monkeypatch)
        search = find_noncp_unitary(flags, attempts=30, seed=7)
        assert search.found
        assert count[0] <= 2


class TestStackedSweep:
    @pytest.mark.parametrize("chunking", CHUNKINGS)
    @pytest.mark.parametrize("d,d_e", [(2, 2), (3, 2), (4, 2), (3, 3), (2, 3)],
                             ids=["2", "3", "4", "3-3", "2-3"])
    def test_matches_per_coupling_loop(self, d, d_e, chunking, monkeypatch):
        dim = d * d_e
        set_chunking(monkeypatch, chunking, dim)
        # an odd count: the straddling chunks leave a ragged last one
        monkeypatch.setattr(dynamics, "SWEEP_COUPLINGS", 5)
        for seed in (0, 21):
            sweep = classical_cp_sweep(n_assignments=3, dim_s=d, dim_e=d_e,
                                       rng=np.random.default_rng(seed))
            assert sweep == ref_sweep(3, d, d_e, seed)
            assert sweep.maps_checked == 15 and sweep.min_lambda >= -CP_TOL

    def test_chunks_of_several_assignments(self, monkeypatch):
        # two whole assignments per chunk: 5 assignments in chunks of 2, 2, 1,
        # each charged six D x D arrays per coupling
        d, d_e = 3, 2
        dim = d * d_e
        monkeypatch.setattr(dynamics, "SWEEP_COUPLINGS", 3)
        per_assignment = 16 * dim * dim * 6 * 3
        monkeypatch.setattr(operators, "_CHUNK_BYTES", 2 * per_assignment)
        chunks = []
        build = dynamics.zero_discord_assignment

        def recorded(normals, dim_s, dim_e):
            chunks.append(len(normals))
            return build(normals, dim_s, dim_e)

        monkeypatch.setattr(dynamics, "zero_discord_assignment", recorded)
        for seed in (4, 8):
            chunks.clear()
            sweep = classical_cp_sweep(5, d, d_e, np.random.default_rng(seed))
            assert sweep == ref_sweep(5, d, d_e, seed)
            assert chunks == [2, 2, 1]

    def test_empty_sweeps(self):
        # no assignment is no verdict
        for n in (0, -1):
            with pytest.raises(ValueError, match="^n_assignments must be at least 1$"):
                classical_cp_sweep(n, 2, 2, np.random.default_rng(1))


def explicit_partial_trace(x, d_s, d_e):
    """Tr_E of a (d_s d_e)-dimensional operator, one environment index at a time."""
    out = np.zeros((d_s, d_s), dtype=complex)
    for e in range(d_e):
        out += x[e::d_e, e::d_e]
    return out


class TestScreenedSweep:
    """The sweep reports the Choi block spectrum, which is the certificate."""

    @pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (2, 5)])
    def test_screen_agrees_with_full_path(self, d_s, d_e):
        rng = np.random.default_rng(80 + 10 * d_s + d_e)
        pure = LinearAssignment(OrthogonalProjectorSet.from_unitary(random_unitary(d_s, rng)),
                                random_pure(d_e, rng, d_s))
        for z in (random_zero_discord_assignment(d_s, d_e, rng), pure):
            u = random_unitary(d_s * d_e, rng, 3)
            screened = dynamics._block_minima(z, u)
            exact = np.array([full_path_lambda(z, u_k) for u_k in u])
            assert np.max(np.abs(screened - exact)) <= 1e-12

    def test_a_stack_screens_each_assignment(self):
        rng = np.random.default_rng(90)
        z = zero_discord_assignment(rng.standard_normal((3, zero_discord_size(3, 2))), 3, 2)
        u = random_unitary(6, rng, 12).reshape(3, 4, 6, 6)
        stacked = dynamics._block_minima(z, u)
        for j in range(3):
            one = LinearAssignment(OrthogonalProjectorSet(z.basis.projectors[j]), z.env_ops[j])
            assert np.max(np.abs(stacked[j] - dynamics._block_minima(one, u[j]))) <= 1e-15

    @pytest.mark.parametrize("d_s,d_e", [(2, 2), (3, 2), (2, 3)])
    def test_choi_spectrum_is_the_union_of_the_blocks(self, d_s, d_e):
        """Closed form: for Lambda(rho) = sum_i Tr[Pi_i rho] A_i the Choi
        matrix sum_jk E_jk (x) Lambda(E_jk) has the spectra of the
        A_i = Tr_E[U (Pi_i (x) tau_i) U^dag] as its own."""
        rng = np.random.default_rng(95 + d_s * d_e)
        z = random_zero_discord_assignment(d_s, d_e, rng)
        u = random_unitary(d_s * d_e, rng)
        projectors, taus = z.basis.projectors, z.env_ops
        blocks = [explicit_partial_trace(u @ np.kron(p, t) @ u.conj().T, d_s, d_e)
                  for p, t in zip(projectors, taus)]
        choi = np.zeros((d_s * d_s, d_s * d_s), dtype=complex)
        for j in range(d_s):
            for k in range(d_s):
                unit = np.zeros((d_s, d_s), dtype=complex)
                unit[j, k] = 1.0
                joint = sum(np.trace(p @ unit) * np.kron(p, t) for p, t in zip(projectors, taus))
                choi += np.kron(unit, explicit_partial_trace(u @ joint @ u.conj().T, d_s, d_e))
        union = np.sort(np.concatenate([np.linalg.eigvalsh(a) for a in blocks]))
        assert np.max(np.abs(np.linalg.eigvalsh(choi) - union)) <= 1e-12
        assert abs(dynamics._block_minima(z, u[None])[0] - union[0]) <= 1e-12

    def test_full_path_runs_no_coupling(self, monkeypatch):
        ref = ref_sweep(5, 2, 2, 7)
        count = count_full_path(monkeypatch)
        assert classical_cp_sweep(5, 2, 2, np.random.default_rng(7)) == ref
        assert count[0] == 0  # of the 50 couplings


class TestStackedChoi:
    def test_names_offending_map(self):
        flags = orthogonal_flag_assignment(canonical_basis(2))
        good = induced_map(flags, random_unitary(8, np.random.default_rng(0)))
        bad = good.copy()
        bad[0, 1] += 1e-3  # no longer Hermiticity preserving
        with pytest.raises(ValueError, match=r"Choi matrix 1 is not Hermitian"):
            dynamics._choi(np.stack([good, bad]), 2)
