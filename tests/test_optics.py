"""Tests for optical elements, Fock evolution, and the permanent oracle.

The evolution engine (multinomial expansion) and the single-amplitude route
(matrix permanent) are implemented independently; here each is also checked
against third routes: dense single-photon matrix action and a brute-force
permutation sum for the permanent.
"""

import gc
import itertools
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, BeamSplitterCoeffs, DetectionPattern,
                   DimensionMismatchError, ExpansionTooLargeError, FockState,
                   InvalidCoefficientsError, NonUnitaryError,
                   PhotonCountError, SectorError, basis_state, bs_unitary,
                   classify_table1, compile, evolve, is_unitary,
                   pattern_probability, permanent, phase_unitary,
                   scenarios, swap_unitary, transition_amplitude, vacuum)
from mzsim.fock import PRUNE_THRESHOLD, _trusted_state
from mzsim.optics import (MAX_TERMS, ROW_CUTOFF, _build_plan, _compositions,
                          _evolve_grid, _expansion_plan, _held_bytes,
                          _key_places, _restrict_plan, _term_count)
from strategies import (occupied_rows, random_unitary, reading,
                        superpositions, swept_circuits)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_occupation(rng, m, n):
    occ = [0] * m
    for mode in rng.integers(0, m, size=n):
        occ[mode] += 1
    return tuple(occ)


# ---------------------------------------------------------------------------
# coefficients and unitary builders


def test_balanced_coefficients():
    assert abs(BALANCED.t - INV_SQRT2) < 1e-15
    assert abs(BALANCED.r - 1j * INV_SQRT2) < 1e-15
    BALANCED.validate()


def test_from_angle_is_always_valid(seed=3):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        theta = rng.uniform(0, 2 * math.pi)
        alpha = rng.uniform(0, 2 * math.pi)
        sign = int(rng.choice([-1, 1]))
        c = BeamSplitterCoeffs.from_angle(theta, alpha, sign)
        c.validate(tol=1e-12)
        assert abs(abs(c.t) - abs(math.cos(theta))) < 1e-12


def test_invalid_coefficients_rejected():
    with pytest.raises(InvalidCoefficientsError):
        BeamSplitterCoeffs(1.0, 1.0).validate()        # not energy conserving
    with pytest.raises(InvalidCoefficientsError):
        BeamSplitterCoeffs(0.8, 0.6).validate()        # both real: rt*+tr* != 0
    BeamSplitterCoeffs(0.8, 0.6j).validate()


def test_bs_unitary_block_and_identity_elsewhere():
    u = bs_unitary(BALANCED, 1, 3, 5)
    assert u[1, 1] == BALANCED.t and u[3, 3] == BALANCED.t
    assert u[1, 3] == BALANCED.r and u[3, 1] == BALANCED.r
    assert u[0, 0] == 1.0 and u[2, 2] == 1.0 and u[4, 4] == 1.0
    assert u[0, 1] == 0.0
    assert is_unitary(u)


def test_builders_validate_modes():
    with pytest.raises(ValueError):
        bs_unitary(BALANCED, 0, 0, 3)
    with pytest.raises(ValueError):
        bs_unitary(BALANCED, 0, 3, 3)
    with pytest.raises(ValueError):
        phase_unitary(4, 0.1, 4)
    with pytest.raises(ValueError):
        swap_unitary(2, 2, 4)


@pytest.mark.parametrize("build", [
    lambda: bs_unitary(BALANCED, 0.0, 1, 2),
    lambda: bs_unitary(BALANCED, 0, 1.0, 2),
    lambda: phase_unitary(0.0, 0.1, 2),
    lambda: swap_unitary(0.0, 1, 2),
    lambda: phase_unitary(True, 0.1, 2),
    lambda: swap_unitary(0, True, 2),
])
def test_builders_reject_modes_that_are_not_integers(build):
    with pytest.raises(ValueError, match="mode"):
        build()


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="10**400"),
                                 1j, "0.1"])
def test_phase_unitary_rejects_a_phase_that_is_not_finite(phi):
    real = not isinstance(phi, (complex, str))
    with pytest.raises(ValueError,
                       match="not finite" if real else "not a real number"):
        phase_unitary(0, phi, 2)


@pytest.mark.parametrize("phi", [np.array([0.1, 0.2]), [0.1], np.zeros((1, 1))])
def test_phase_unitary_takes_one_phase_value(phi):
    # as compile does for an array phase
    with pytest.raises(DimensionMismatchError, match="mode 0"):
        phase_unitary(0, phi, 2)


def test_phase_and_swap_unitaries():
    p = phase_unitary(1, math.pi / 3, 3)
    assert abs(p[1, 1] - complex(math.cos(math.pi / 3), math.sin(math.pi / 3))) < 1e-15
    assert p[0, 0] == 1.0
    s = swap_unitary(0, 2, 3)
    assert s[0, 2] == 1.0 and s[2, 0] == 1.0 and s[1, 1] == 1.0
    assert s[0, 0] == 0.0
    assert is_unitary(p) and is_unitary(s)


def test_is_unitary_rejects_bad_matrices():
    assert not is_unitary(np.ones((2, 2)))
    assert not is_unitary(np.ones((2, 3)))
    assert not is_unitary(np.ones(4))
    assert is_unitary(np.eye(7))


# ---------------------------------------------------------------------------
# evolution


def test_hom_bunching():
    out = evolve(basis_state((1, 1)), bs_unitary(BALANCED, 0, 1, 2))
    assert abs(out[(2, 0)] - 1j * INV_SQRT2) < 1e-14
    assert abs(out[(0, 2)] - 1j * INV_SQRT2) < 1e-14
    assert out[(1, 1)] == 0j


def test_single_photon_follows_matrix_row(seed=5):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        m = int(rng.integers(2, 7))
        u = random_unitary(rng, m)
        mode = int(rng.integers(0, m))
        occ = tuple(1 if k == mode else 0 for k in range(m))
        out = evolve(basis_state(occ), u)
        for k in range(m):
            ek = tuple(1 if j == k else 0 for j in range(m))
            assert abs(out[ek] - u[mode, k]) < 1e-12


def test_vacuum_is_invariant(seed=6):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    assert evolve(vacuum(4), u).allclose(vacuum(4))
    # and a state with no kets has no terms
    kets, amplitudes = _evolve_grid(FockState({}, 4), np.stack([u, u])[:, :0])
    assert kets.shape == (0, 4) and amplitudes.shape == (2, 0)


def test_evolution_preserves_norm_and_photon_number(seed=8):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        keys = {random_occupation(rng, m, n) for _ in range(4)}
        amps = {occ: complex(rng.normal(), rng.normal()) for occ in keys}
        state = FockState(amps, m).normalized()
        out = evolve(state, random_unitary(rng, m))
        assert abs(out.norm() - 1.0) < 1e-12
        assert out.total_photons == n


def test_evolution_is_linear(seed=9):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 3)
    a = basis_state((2, 0, 0))
    b = basis_state((0, 1, 1))
    mixed = evolve(0.6 * a + 0.8j * b, u)
    separate = 0.6 * evolve(a, u) + 0.8j * evolve(b, u)
    assert mixed.allclose(separate)


def test_sequential_evolution_composes_left_to_right(seed=10):
    rng = np.random.default_rng(seed)
    u1 = random_unitary(rng, 3)
    u2 = random_unitary(rng, 3)
    state = FockState({(1, 1, 0): INV_SQRT2, (0, 0, 2): INV_SQRT2})
    stepwise = evolve(evolve(state, u1), u2)
    composed = evolve(state, u1 @ u2)
    assert stepwise.allclose(composed)


def test_inverse_evolution_round_trips(seed=12):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    state = FockState({(2, 1, 0, 0): 0.5, (0, 1, 1, 1): 0.5,
                       (1, 0, 2, 0): INV_SQRT2})
    back = evolve(evolve(state, u), u.conj().T)
    assert back.allclose(state)


def test_evolve_rejects_bad_matrices():
    state = basis_state((1, 0))
    with pytest.raises(DimensionMismatchError):
        evolve(state, np.eye(3))
    with pytest.raises(NonUnitaryError):
        evolve(state, np.array([[1.0, 0.0], [0.0, 2.0]]))
    for bad in (math.inf, math.nan):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        with pytest.raises(NonUnitaryError):
            evolve(state, u)


@pytest.mark.parametrize("modulus, raises", [(0.99e-8, False), (1.01e-8, True)])
def test_the_unitarity_bound_is_on_the_modulus_of_each_deviation(modulus, raises):
    # split evenly between re and im, each part of the larger deviation is
    # still below 1e-8: only its modulus crosses the bound.  The second
    # stack checks the real diagonal of the gram, where u u^dagger - I = d.
    state = basis_state((1, 0))
    off = np.eye(2, dtype=complex)
    off[0, 1] = modulus * (1 + 1j) / math.sqrt(2)
    diagonal = np.diag([math.sqrt(1 + modulus), 1.0])
    good = bs_unitary(BALANCED, 0, 1, 2)
    for run in (lambda: evolve(state, off),
                lambda: _evolve_grid(state, np.stack([good, diagonal])[:, :1])):
        if raises:
            with pytest.raises(NonUnitaryError, match="within 1e-8"):
                run()
        else:
            run()


def test_evolve_rejects_photon_counts_beyond_its_factorial_table():
    assert evolve(basis_state((20, 0)), np.eye(2))[(20, 0)] == 1.0
    with pytest.raises(PhotonCountError):
        evolve(basis_state((21, 0)), bs_unitary(BALANCED, 0, 1, 2))


def test_twenty_photons_on_a_wide_register_split_binomially():
    """|20, 0, ...> on a balanced splitter gives sqrt(C(20, k)) t^k r^(20-k).

    Over the whole register neither an (N+1)^M mixed-radix key nor a
    C(N+M-1, N) combinatorial rank of the kets fits in 64 bits.  Evolve keys
    kets over the live columns only, the two the occupied row reaches, so
    one word holds them here; the several-word keys are exercised by
    ``test_two_photons_through_a_dense_64_mode_unitary_need_two_key_words``.
    """
    m, n = 68, 20
    assert (n + 1) ** m > 2 ** 64 and math.comb(n + m - 1, n) > 2 ** 64
    u = bs_unitary(BALANCED, 0, 1, m)
    n_in = (n,) + (0,) * (m - 1)
    out = evolve(basis_state(n_in), u)
    assert len(out) == n + 1
    for k in range(n + 1):
        occ = (k, n - k) + (0,) * (m - 2)
        want = math.sqrt(math.comb(n, k)) * BALANCED.t ** k * BALANCED.r ** (n - k)
        assert abs(out[occ] - want) < 1e-12
    middle = (10, 10) + (0,) * (m - 2)
    assert abs(out[middle] - transition_amplitude(u, n_in, middle)) < 1e-12


def test_two_photons_through_a_dense_64_mode_unitary_need_two_key_words():
    # every column is live and 3^64 > 2^63, so the base-3 keys of the output
    # kets take two int64 words, folded into one rank
    m = 64
    assert 3 ** m > 2 ** 63
    assert _key_places(np.arange(m), m, 2).shape[1] == 2
    u = random_unitary(np.random.default_rng(64), m)
    n_in = (1, 1) + (0,) * (m - 2)
    out = evolve(basis_state(n_in), u)
    kets = out.occupations()
    assert kets == sector(m, 2) and len(kets) == 2080
    assert all(a < b for a, b in zip(kets, kets[1:]))
    for n_out, amp in out.items():
        assert abs(amp - transition_amplitude(u, n_in, n_out)) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7))
def test_composition_factor_slots_count_back_to_their_composition(total, slots):
    comps, weights, factors = _compositions(total, slots)
    assert len(comps) == len(weights) == len(factors) == math.comb(
        total + slots - 1, total)
    assert len({tuple(c) for c in comps.tolist()}) == len(comps)
    assert factors.shape == (len(comps), total)
    for comp, weight, row in zip(comps.tolist(), weights, factors):
        assert np.bincount(row, minlength=slots).tolist() == comp
        assert list(row) == sorted(row)
        assert weight == math.factorial(total) / math.prod(
            math.factorial(k) for k in comp)


def test_compositions_follow_combinations_with_replacement():
    # the factor slots in itertools' order, each composition its slots'
    # counts, each weight its multinomial; no slots hold no photons
    for total in range(9):
        for slots in range(9):
            comps, weights, factors = _compositions(total, slots)
            combos = list(itertools.combinations_with_replacement(
                range(slots), total))
            counts = [[combo.count(j) for j in range(slots)]
                      for combo in combos]
            assert factors.dtype == np.intp
            assert factors.shape == (len(combos), total)
            assert factors.tolist() == [list(combo) for combo in combos]
            assert comps.dtype == np.uint8
            assert comps.shape == (len(combos), slots)
            assert comps.tolist() == counts
            assert weights.tolist() == [
                math.factorial(total) / math.prod(map(math.factorial, ks))
                for ks in counts]


def test_an_expansion_keeps_no_composition_table_once_its_plan_is_dropped(
        seed=60):
    # |12, 0, ..., 0> through a dense 8-mode unitary expands into 50,388
    # compositions, whose factor table alone holds 4.8 MB; once the plan
    # cache is cleared nothing of the expansion is left
    u = random_unitary(np.random.default_rng(seed), 8)
    state = basis_state((12,) + (0,) * 7)
    gc.collect()
    tracemalloc.start()
    try:
        assert len(evolve(state, u)) == 50_388
        _expansion_plan.cache_clear()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20


def test_swap_relabels_occupations():
    state = FockState({(2, 0, 1): 1.0})
    out = evolve(state, swap_unitary(0, 2, 3))
    assert out[(1, 0, 2)] == 1.0


def test_the_grid_zeroes_a_ket_only_when_every_phase_prunes_it():
    # at the first grid phase the reflected ket sits below the prune
    # threshold, at the second it is bright: it stays, with both amplitudes
    state = basis_state((1, 0))
    faint = bs_unitary(BeamSplitterCoeffs.from_angle(1e-15), 0, 1, 2)
    bright = bs_unitary(BeamSplitterCoeffs.from_angle(0.5), 0, 1, 2)
    kets, amplitudes = _evolve_grid(state, np.stack([faint, bright])[:, :1])
    assert kets.tolist() == [[0, 1], [1, 0]]
    assert 0 < abs(amplitudes[0, 0]) <= PRUNE_THRESHOLD
    assert len(evolve(state, faint)) == 1
    out = evolve(state, bright)
    assert np.allclose(amplitudes[1], [out[(0, 1)], out[(1, 0)]],
                       rtol=0, atol=1e-15)
    # below the threshold at every grid phase: kept, and exactly 0; evolve
    # drops it.  Both photons reflecting gives r^2 <= 4e-16, although each
    # row entry r is expanded
    pair = basis_state((2, 0))
    dim = [bs_unitary(BeamSplitterCoeffs.from_angle(a), 0, 1, 2)
           for a in (1e-8, 2e-8)]
    assert 1e-8 > ROW_CUTOFF and (2e-8) ** 2 < PRUNE_THRESHOLD
    kets, amplitudes = _evolve_grid(pair, np.stack(dim)[:, :1])
    assert kets.tolist() == [[0, 2], [1, 1], [2, 0]]
    assert amplitudes.shape == (2, 3)
    assert np.array_equal(amplitudes[:, 0], np.zeros(2))
    assert all((0, 2) not in evolve(pair, u) for u in dim)


def grid_states(state, stack):
    """The rows of one ``_evolve_grid`` call on a stack's occupied rows as
    K states, each slice pruned on its own."""
    occupations, amplitudes = _evolve_grid(state, occupied_rows(state, stack))
    return [_trusted_state(occupations, row, state.mode_count)
            for row in amplitudes]


def test_each_slice_is_pruned_on_its_own():
    # the faint reflected ket survives the stack (bright at the second
    # matrix) but not its own slice, exactly as evolve drops it
    state = basis_state((1, 0))
    faint = bs_unitary(BeamSplitterCoeffs.from_angle(1e-15), 0, 1, 2)
    bright = bs_unitary(BeamSplitterCoeffs.from_angle(0.5), 0, 1, 2)
    dim, lit = grid_states(state, np.stack([faint, bright]))
    assert dim == evolve(state, faint) and len(dim) == 1
    assert lit == evolve(state, bright) and len(lit) == 2


@st.composite
def unitary_stacks(draw):
    """A state and a stack of random unitaries and phased permutations.

    A permutation sends each ket to a single ket, so its slice keeps far
    fewer kets than a random unitary's.
    """
    m = draw(st.integers(2, 4))
    state = draw(superpositions(m, draw(st.integers(1, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    stack = []
    for kind in draw(st.lists(st.sampled_from(("random", "permutation")),
                              min_size=1, max_size=4)):
        if kind == "random":
            stack.append(random_unitary(rng, m))
        else:
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, m))
            stack.append(np.eye(m)[rng.permutation(m)] * phases)
    return state, np.stack(stack)


@settings(max_examples=80, deadline=None)
@given(unitary_stacks())
def test_each_slice_of_a_stack_equals_evolve(case):
    state, stack = case
    outs = grid_states(state, stack)
    assert len(outs) == len(stack)
    for out, u in zip(outs, stack):
        want = evolve(state, u)
        assert out.occupations() == want.occupations()
        assert np.max(np.abs(out.amplitude_array - want.amplitude_array)) < 1e-13
        assert out.mode_count == want.mode_count


def test_the_grid_checks_every_matrix_of_its_stack():
    # the stack is the row of mode 0, the one the photon occupies
    state = basis_state((1, 0))
    good = bs_unitary(BALANCED, 0, 1, 2)
    for bad in (np.diag([2.0, 1.0]), np.diag([math.nan, 1.0])):
        with pytest.raises(NonUnitaryError):
            _evolve_grid(state, np.stack([good, bad])[:, :1])
    for unblocked in (good, good[:1], good[None]):
        with pytest.raises(DimensionMismatchError):
            _evolve_grid(state, unblocked)
    with pytest.raises(PhotonCountError):
        _evolve_grid(basis_state((21, 0)), np.stack([good, good])[:, :1])


def test_the_engine_checks_a_row_block_and_evolve_the_whole_matrix():
    # a splitter 1e-7 off unitary on modes 2 and 3, which the photon on
    # mode 0 never enters: its rows are orthonormal, the whole matrix is not
    state = basis_state((1, 0, 0, 0))
    leaky = BeamSplitterCoeffs(math.sqrt(0.5 + 1e-7), BALANCED.r)
    u = bs_unitary(BALANCED, 0, 1, 4) @ bs_unitary(leaky, 2, 3, 4)
    kets, amplitudes = _evolve_grid(state, u[None, :1])
    assert kets.tolist() == [[0, 1, 0, 0], [1, 0, 0, 0]]
    assert amplitudes.tobytes() == np.array(
        [[BALANCED.r, BALANCED.t]]).tobytes()
    with pytest.raises(NonUnitaryError, match="within 1e-8"):
        evolve(state, u)
    # the same defect on the occupied row is refused on the rows alone
    with pytest.raises(NonUnitaryError, match="within 1e-8"):
        _evolve_grid(basis_state((0, 0, 1, 0)), u[None, 2:3])
    # the engine takes one row per occupied mode, never a whole stack
    for stack in (u[None, :2], u[None]):
        with pytest.raises(DimensionMismatchError, match="1 of them occupied"):
            _evolve_grid(state, stack)
    # evolve takes only an M x M matrix: a row is not read as the
    # occupied one
    for wrong in ([[0, 1]], np.eye(4)[:1], np.eye(4)[:, :2], np.eye(5)):
        with pytest.raises(DimensionMismatchError, match="4 modes"):
            evolve(state, wrong)
    with pytest.raises(DimensionMismatchError, match="2 modes"):
        evolve(basis_state((1, 0)), [[0, 1]])
    # evolve reads the occupied rows of the whole matrix, bit for bit, as a
    # view of the leading rows or a copy of the others
    good = bs_unitary(BALANCED, 0, 1, 4) @ bs_unitary(BALANCED, 2, 3, 4)
    for occupied in ((1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 2, 0)):
        state = basis_state(occupied)
        modes = [j for j, n in enumerate(occupied) if n]
        kets, (amplitudes,) = _evolve_grid(state, good[None, modes])
        want = _trusted_state(kets, amplitudes, 4)
        out = evolve(state, good)
        assert out.occupation_array.tobytes() == want.occupation_array.tobytes()
        assert out.amplitude_array.tobytes() == want.amplitude_array.tobytes()


def test_an_expansion_too_large_to_build_is_refused_before_building_it(
        seed=48):
    # 20 photons on one row that reaches all 12 columns: C(31, 11) terms,
    # which would take tens of GiB.  The count is exact and made from the
    # entry mask before anything is allocated.  classify_table1(8)'s full
    # plan, 980,628 terms, stays within the bound, and so would the
    # 1,110,395 of the engineered input through the whole stack
    m, n = 12, 20
    u = random_unitary(np.random.default_rng(seed), m)
    state = basis_state((n,) + (0,) * (m - 1))
    terms = math.comb(n + m - 1, n)
    assert terms == 84_672_315 and 1_110_395 <= MAX_TERMS < terms
    message = f"{terms:,} terms; evolve builds at most {MAX_TERMS:,}"
    with pytest.raises(ExpansionTooLargeError, match=message):
        evolve(state, u)
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionTooLargeError):
            evolve(state, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


@st.composite
def shared_entry_stacks(draw):
    """A state, a stack whose matrices all have the same nonzero entries
    (random unitaries, or one permutation at random phases), and a seed of
    a read mask or None.

    A shared entry mask gives each matrix alone the stack's plan.
    """
    m = draw(st.integers(1, 4))
    state = draw(superpositions(m, draw(st.integers(0, 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        stack = [random_unitary(rng, m) for _ in range(k)]
    else:
        permutation = np.eye(m)[rng.permutation(m)]
        stack = [permutation * np.exp(1j * rng.uniform(0, 2 * math.pi, m))
                 for _ in range(k)]
    return state, np.stack(stack), draw(st.none() | st.integers(0, 2 ** 32))


@settings(max_examples=80, deadline=None)
@given(shared_entry_stacks())
def test_each_row_of_a_stack_is_a_one_matrix_call_bit_for_bit(case):
    state, stack, seed = case
    select = None if seed is None else reading(
        lambda kets: np.random.default_rng(seed).random(len(kets)) < 0.5)
    kets, amplitudes = _evolve_grid(state, occupied_rows(state, stack), select)
    for u, row in zip(stack, amplitudes):
        alone_kets, (alone,) = _evolve_grid(state, occupied_rows(state, u[None]),
                                            select)
        assert np.array_equal(alone_kets, kets)
        # a ket the stack keeps for another matrix's sake is pruned alone
        row = np.where(np.abs(row) > PRUNE_THRESHOLD, row, 0)
        assert alone.tobytes() == row.tobytes()


@pytest.mark.parametrize("occ, draws", [((1, 0, 0), 300), ((2, 1, 0), 150)])
def test_each_ket_read_alone_is_the_full_plans_amplitude_bit_for_bit(
        occ, draws, seed=46):
    # a restriction to one ket keeps few terms, down to one: its products
    # must round as the full plan's do, one entry or many
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        state = FockState({occ: np.exp(1j * rng.uniform(0, 2 * math.pi))})
        rows = occupied_rows(state, random_unitary(rng, 3)[None])
        kets, (full,) = _evolve_grid(state, rows)
        for ket in range(len(kets)):
            read = np.arange(len(kets)) == ket
            _, (alone,) = _evolve_grid(state, rows, reading(read))
            assert alone.tobytes() == full[ket:ket + 1].tobytes()


def test_a_warm_scan_evolve_holds_less_than_one_stacked_block(monkeypatch):
    # classify_table1(5) evolves one 12-matrix stack onto 495 read kets fed
    # by the restricted plan's terms; one (K x terms) complex block would
    # take 16 bytes per entry
    scans = []

    def recording(state, stack, select=None):
        def recorded(key, full):
            scans.append((state, stack, select(key, full)))
            return scans[-1][2]
        return _evolve_grid(state, stack, recorded)

    monkeypatch.setattr(scenarios, "_evolve_grid", recording)
    classify_table1(5)
    (state, stack, plan), = scans
    terms = len(plan.weights)
    assert (len(stack), len(plan.occupations), terms) == (12, 495, 990)
    _evolve_grid(state, stack, lambda key, full: plan)
    gc.collect()
    tracemalloc.start()
    try:
        _evolve_grid(state, stack, lambda key, full: plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * terms * 16


# ---------------------------------------------------------------------------
# the cached expansion plan


def permanent_route(state, u, n_out):
    """<n_out|U|state> summed ket by ket from transition amplitudes."""
    return sum(a * transition_amplitude(u, n_in, n_out)
               for n_in, a in state.items())


def assert_matches_the_permanent(out, state, u):
    assert abs(out.norm() - 1.0) < 1e-12
    for n_out in out.occupations():
        assert abs(out[n_out] - permanent_route(state, u, n_out)) < 1e-12


def test_states_sharing_occupations_share_a_plan_but_not_amplitudes(seed=41):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    first = FockState({(1, 1, 0, 0): 0.6, (0, 1, 1, 0): 0.8j})
    second = FockState({(1, 1, 0, 0): -0.8j, (0, 1, 1, 0): 0.6})
    _expansion_plan.cache_clear()
    out_first, out_second = evolve(first, u), evolve(second, u)
    info = _expansion_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert not out_first.allclose(out_second)
    assert_matches_the_permanent(out_first, first, u)
    assert_matches_the_permanent(out_second, second, u)


def test_an_exact_zero_entry_gets_its_own_plan(seed=42):
    rng = np.random.default_rng(seed)
    state = FockState({(1, 1, 1): INV_SQRT2, (2, 0, 1): INV_SQRT2})
    dense = random_unitary(rng, 3)
    # mode 2 only picks up a phase: its row and column are zero elsewhere
    sparse = bs_unitary(BALANCED, 0, 1, 3) @ phase_unitary(2, 0.3, 3)
    _expansion_plan.cache_clear()
    out_dense, out_sparse = evolve(state, dense), evolve(state, sparse)
    assert _expansion_plan.cache_info().misses == 2
    assert_matches_the_permanent(out_dense, state, dense)
    assert_matches_the_permanent(out_sparse, state, sparse)
    assert {occ[2] for occ in out_sparse.occupations()} == {1}
    assert len(out_dense) > len(out_sparse)


def test_a_cold_and_a_warm_plan_give_identical_outputs(seed=43):
    rng = np.random.default_rng(seed)
    state = FockState({(2, 1, 0, 0): 0.5, (0, 1, 1, 1): 0.5j,
                       (1, 0, 0, 2): -math.sqrt(0.5)})
    stack = np.stack([random_unitary(rng, 4) for _ in range(3)])
    _expansion_plan.cache_clear()
    cold_kets, cold_amps = _evolve_grid(state, stack)
    warm_kets, warm_amps = _evolve_grid(state, stack)
    assert _expansion_plan.cache_info().hits == 1
    assert np.array_equal(cold_kets, warm_kets)
    assert np.array_equal(cold_amps, warm_amps)


def test_plan_arrays_are_read_only(seed=44):
    rng = np.random.default_rng(seed)
    state = FockState({(1, 1, 0): INV_SQRT2, (0, 0, 2): INV_SQRT2})
    u = random_unitary(rng, 3)
    out = evolve(state, u)
    needed = np.abs(u) > ROW_CUTOFF
    plan = _build_plan(state.occupation_array, needed)
    assert np.array_equal(plan.occupations, out.occupation_array)
    # and those of its restriction to every other output ket
    read = np.arange(len(plan.occupations)) % 2 == 0
    restricted = _restrict_plan(plan, read)
    for array in (*plan, *restricted):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[...] = 0


@st.composite
def plan_cases(draw):
    """A state, the entry mask of its occupied rows of a unitary with some
    entries zeroed (each row keeps its own mode's entry), and a read mask
    drawn over the plan's output kets."""
    m = draw(st.integers(1, 4))
    state = draw(superpositions(m, draw(st.integers(0, 3))))
    occupied = state._occupied_modes()
    r = len(occupied)
    needed = np.array(draw(st.lists(st.booleans(), min_size=r * m,
                                    max_size=r * m)), dtype=bool).reshape(r, m)
    needed[np.arange(r), occupied] = True
    plan = _build_plan(state.occupation_array, needed)
    read = np.array(draw(st.lists(st.booleans(), min_size=len(plan.occupations),
                                  max_size=len(plan.occupations))), dtype=bool)
    return state, needed, plan, read


@settings(max_examples=80, deadline=None)
@given(plan_cases())
def test_each_term_of_a_plan_counts_back_to_its_kets(case):
    # a term's factor positions row * M + col in the R x M block of the
    # occupied rows: the rows' modes count to its input ket, the columns to
    # its output ket, and each row's columns to the composition its
    # multinomial weight is of
    state, needed, plan, read = case
    m = state.mode_count
    occupied = state._occupied_modes()
    inputs = state.occupation_array
    ket_of = plan.scatter[::2].astype(np.intp) // 2
    assert needed.shape == (len(occupied), m)
    assert plan.positions.shape == (state.total_photons, len(plan.weights))
    assert plan.positions.dtype == np.min_scalar_type(len(occupied) * m)
    assert len(plan.inputs) == len(ket_of) == len(plan.weights)
    rows, cols = np.divmod(plan.positions.astype(np.intp), m)
    assert needed[rows, cols].all()
    modes = occupied[rows]
    for t in range(len(plan.weights)):
        n_in = inputs[plan.inputs[t]]
        assert np.bincount(modes[:, t], minlength=m).tolist() == n_in.tolist()
        assert np.bincount(cols[:, t], minlength=m).tolist() == (
            plan.occupations[ket_of[t]].tolist())
        weight = 1.0
        for mode, count in enumerate(n_in.tolist()):
            comp = np.bincount(cols[modes[:, t] == mode, t], minlength=m)
            weight *= math.factorial(count) / math.prod(
                math.factorial(k) for k in comp.tolist())
            weight /= math.sqrt(math.factorial(count))
        assert math.isclose(plan.weights[t], weight, rel_tol=1e-14)
    # input kets in order, each with as many terms as its rows'
    # compositions, which the count made before the build also gives
    per_ket = [math.prod(math.comb(count + int(needed[row].sum()) - 1, count)
                         for row, count in enumerate(n_in))
               for n_in in inputs[:, occupied].tolist()]
    assert np.bincount(plan.inputs, minlength=len(inputs)).tolist() == per_ket
    assert _term_count(inputs[:, occupied].tolist(), needed) == len(
        plan.weights)
    assert np.all(np.diff(plan.inputs.astype(np.intp)) >= 0)
    # a restricted plan's terms are the full plan's terms whose ket is read,
    # in order, sent to their ket's place among the read kets
    restricted = _restrict_plan(plan, read)
    kept = read[ket_of]
    assert np.array_equal(restricted.positions, plan.positions[:, kept])
    assert np.array_equal(restricted.weights, plan.weights[kept])
    assert np.array_equal(restricted.inputs, plan.inputs[kept])
    assert np.array_equal(restricted.occupations, plan.occupations[read])
    assert np.array_equal(restricted.scale, plan.scale[read])
    assert np.array_equal(restricted.scatter[::2].astype(np.intp) // 2,
                          (np.cumsum(read) - 1)[ket_of[kept]])


def test_the_plan_cache_keeps_at_most_64_plans(seed=45):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 6)
    inputs = [occ for occ in itertools.product(range(5), repeat=6)
              if sum(occ) == 4][:80]
    assert len(inputs) == 80
    _expansion_plan.cache_clear()
    for occ in inputs:
        evolve(basis_state(occ), u)
    info = _expansion_plan.cache_info()
    assert info.misses == 80 and info.currsize == 64


def uniform_superposition(photons, modes, skip=0):
    """Every ket of `photons` in `modes` but the first `skip`, all equal."""
    occs = [occ for occ in itertools.product(range(photons + 1), repeat=modes)
            if sum(occ) == photons][skip:]
    return FockState({occ: 1 / math.sqrt(len(occs)) for occ in occs})


@pytest.mark.parametrize("occ, kets, dtype", [
    ((1, 1, 0, 0), 10, np.uint8),
    ((1, 1, 1) + (0,) * 8, 286, np.uint16),
    ((1, 1, 1) + (0,) * 6, 165, np.uint16)])
def test_a_plan_keeps_its_merge_index_in_the_narrowest_type(occ, kets, dtype,
                                                            seed=46):
    # the index interleaves real and imaginary parts, 2q and 2q + 1 for
    # merged ket q, so it is narrowed on twice the ket count: 165 kets fit
    # a uint8, their 330 float64 slots do not
    state = basis_state(occ)
    u = random_unitary(np.random.default_rng(seed), len(occ))
    out = evolve(state, u)
    occupied = state._occupied_modes()
    plan = _build_plan(state.occupation_array,
                       (np.abs(u) > ROW_CUTOFF)[occupied])
    assert len(plan.occupations) == len(out) == kets
    scatter = plan.scatter
    assert scatter.dtype == dtype and int(scatter.max()) == 2 * kets - 1
    assert np.array_equal(scatter[1::2], scatter[::2] + 1)
    # factor positions index the R x M block of the occupied rows, at most
    # 3 x 11, so every one fits a uint8; one input ket
    assert plan.positions.dtype == plan.inputs.dtype == np.uint8
    assert int(plan.positions.max()) == len(occupied) * len(occ) - 1
    assert_matches_the_permanent(out, state, u)


def retained_by_plans(states, u):
    """Bytes the plan cache still holds after evolving `states` through `u`,
    by tracemalloc, and its own count; every other cache warmed first."""
    for state in states:
        evolve(state, u)
    _expansion_plan.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for state in states:
            evolve(state, u)
            held = _expansion_plan.cache_info().nbytes
            assert held <= _expansion_plan.budget
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained, _expansion_plan.cache_info()


def test_the_plan_cache_counts_the_bytes_its_plans_hold(monkeypatch, seed=47):
    u = random_unitary(np.random.default_rng(seed), 7)
    states = [uniform_superposition(3, 7, skip) for skip in range(3)]
    monkeypatch.setattr(_expansion_plan, "budget", 2 ** 20)
    retained, info = retained_by_plans(states, u)
    assert (info.misses, info.currsize) == (3, 3)
    assert 0.9 * retained < info.nbytes < 1.1 * retained


def test_the_plan_cache_counts_each_array_once_with_its_base():
    # a slice holds the array it views, two parts sharing an array hold it
    # once, and a tuple holds its contents
    base = np.zeros(1000)
    view = base[::2]
    assert _held_bytes(view) == sys.getsizeof(view) + sys.getsizeof(base)
    pair = (view, base)
    assert _held_bytes(pair, view) == sum(map(sys.getsizeof,
                                              (pair, view, base)))


def test_the_plan_cache_keeps_within_its_byte_budget(monkeypatch, seed=47):
    u = random_unitary(np.random.default_rng(seed), 7)
    states = [uniform_superposition(3, 7, skip) for skip in range(3)]
    one_plan = retained_by_plans(states[:1], u)[1].nbytes
    kept = evolve(states[0], u)
    # room for two plans: the third evicts the first
    monkeypatch.setattr(_expansion_plan, "budget", int(2.5 * one_plan))
    retained, info = retained_by_plans(states, u)
    assert info.currsize == 2 and retained < 2.5 * one_plan
    # a plan larger than the whole budget is used once and not kept
    monkeypatch.setattr(_expansion_plan, "budget", one_plan // 2)
    retained, info = retained_by_plans(states[:1], u)
    assert (info.currsize, info.nbytes) == (0, 0)
    assert retained < 0.05 * one_plan
    out = evolve(states[0], u)
    assert np.array_equal(out.occupation_array, kept.occupation_array)
    assert np.array_equal(out.amplitude_array, kept.amplitude_array)
    # and it evicts nothing: a plan kept before it survives and still hits
    small = basis_state((1,) + (0,) * 6)
    _expansion_plan.cache_clear()
    evolve(small, u)
    held = _expansion_plan.cache_info()
    assert held.currsize == 1 and 0 < held.nbytes <= _expansion_plan.budget
    evolve(states[0], u)
    evolve(small, u)
    info = _expansion_plan.cache_info()
    assert (info.misses, info.hits) == (2, 1)
    assert (info.currsize, info.nbytes) == (1, held.nbytes)


# ---------------------------------------------------------------------------
# permanents and transition amplitudes


def brute_force_permanent(a):
    """Permutation-sum definition, one row per permutation; only usable for
    small matrices (7! = 5,040 rows at n = 7)."""
    n = a.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    return complex(a[np.arange(n), perms].prod(axis=1).sum())


def test_permanent_small_cases():
    assert permanent(np.zeros((0, 0))) == 1.0
    assert abs(permanent(np.array([[2.5]])) - 2.5) < 1e-15
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(permanent(a) - 10.0) < 1e-12
    # only a square 2-D matrix, with the same error for every other shape
    for matrix in (np.ones((2, 3)), np.array(5.0), np.ones(1), np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match="permanent needs a square matrix"):
            permanent(matrix)


def test_permanent_matches_permutation_sum(seed=13):
    rng = np.random.default_rng(seed)
    for n in range(1, 6):
        for _ in range(4):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            expected = brute_force_permanent(a)
            assert abs(permanent(a) - expected) < 1e-10 * max(1.0, abs(expected))


def test_permanent_row_scaling():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    scaled = a.copy()
    scaled[1] *= 2.0 - 1j
    assert abs(permanent(scaled) - (2.0 - 1j) * permanent(a)) < 1e-10


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(0, 7), st.data())
def test_the_sum_over_multiplicities_is_the_repeated_matrix_permanent(
        modes, photons, data):
    # any complex matrix, not only unitaries; the sum runs over whichever
    # side has fewer terms, so both sides get drawn as the smaller one.
    # The reference is the permutation sum, not permanent(), which runs
    # the same Glynn sum with every count 1
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    counts = st.lists(st.integers(0, modes - 1), min_size=photons,
                      max_size=photons)
    drawn_in, drawn_out = Counter(data.draw(counts)), Counter(data.draw(counts))
    n_in = tuple(drawn_in[m] for m in range(modes))
    n_out = tuple(drawn_out[m] for m in range(modes))
    repeated = a[np.ix_([m for m in range(modes) for _ in range(n_in[m])],
                        [m for m in range(modes) for _ in range(n_out[m])])]
    norm = math.sqrt(math.prod(map(math.factorial, n_in + n_out)))
    want = brute_force_permanent(repeated)
    got = transition_amplitude(a, n_in, n_out) * norm
    assert abs(got - want) <= 1e-11 * max(1.0, abs(want))


def test_transition_amplitude_validates_inputs():
    u = np.eye(3)
    with pytest.raises(DimensionMismatchError):
        transition_amplitude(u, (1, 0), (1, 0, 0))
    with pytest.raises(SectorError):
        transition_amplitude(u, (1, 0, 0), (1, 1, 0))
    assert transition_amplitude(u, (0, 0, 0), (0, 0, 0)) == 1.0
    with pytest.raises(PhotonCountError):
        transition_amplitude(np.eye(2), (21, 0), (21, 0))
    with pytest.raises(PhotonCountError):
        transition_amplitude(np.eye(2), (11, 10), (0, 21))
    # only a square 2-D matrix: no row of a wide one, no 1-D vector
    for shape in ((2, 3), (3, 2), (2,)):
        with pytest.raises(DimensionMismatchError, match="square"):
            transition_amplitude(np.ones(shape), (1, 0), (1, 0))
    # counts are read as FockState reads them: a count that is not a whole
    # number in 0..255 raises, and is never truncated to one that is
    u = bs_unitary(BALANCED, 0, 1, 2)
    for bad in ((1.5, 0), (-1, 2), ("1", 0), (256, 0)):
        with pytest.raises(PhotonCountError, match="not a whole number"):
            transition_amplitude(u, bad, (1, 0))
        with pytest.raises(PhotonCountError, match="not a whole number"):
            transition_amplitude(u, (1, 0), bad)
    assert transition_amplitude(u, (1.0, 0), (np.int64(1), 0)) == \
        transition_amplitude(u, (1, 0), (1, 0))


def test_transition_amplitude_agrees_with_evolution(seed=17):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        u = random_unitary(rng, m)
        n_in = random_occupation(rng, m, n)
        out = evolve(basis_state(n_in), u)
        for n_out in out.occupations():
            assert abs(out[n_out] - transition_amplitude(u, n_in, n_out)) < 1e-10
        missing = random_occupation(rng, m, n)
        assert abs(out[missing] - transition_amplitude(u, n_in, missing)) < 1e-10


def test_transition_amplitudes_are_complete(seed=18):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    n_in = (2, 1, 0, 0)
    total = 0.0
    for n_out in itertools.product(range(4), repeat=4):
        if sum(n_out) != 3:
            continue
        total += abs(transition_amplitude(u, n_in, n_out)) ** 2
    assert abs(total - 1.0) < 1e-10


def test_balanced_splitter_amplitude_from_permanent():
    u = bs_unitary(BALANCED, 0, 1, 2)
    assert abs(transition_amplitude(u, (1, 1), (2, 0)) - 1j * INV_SQRT2) < 1e-14
    assert abs(transition_amplitude(u, (1, 1), (1, 1))) < 1e-14


# ---------------------------------------------------------------------------
# randomized properties of the evolution engine


def sector(modes, photons):
    """Every occupation vector of ``photons`` photons over ``modes`` modes."""
    return sorted(tuple(Counter(c)[m] for m in range(modes)) for c in
                  itertools.combinations_with_replacement(range(modes), photons))


@st.composite
def unitary_cases(draw):
    """A normalized state of 1-3 photons and a random unitary on 2-4 modes."""
    m = draw(st.integers(2, 4))
    state = draw(superpositions(m, draw(st.integers(1, 3))))
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32))), m)
    return state, u


@settings(max_examples=80, deadline=None)
@given(unitary_cases())
def test_evolve_matches_the_permanent_on_every_ket(case):
    state, u = case
    out = evolve(state, u)
    for n_out in sector(state.mode_count, state.total_photons):
        want = sum(a * transition_amplitude(u, n_in, n_out)
                   for n_in, a in state.items())
        assert abs(out[n_out] - want) < 1e-10
        if n_out not in out:
            assert out[n_out] == 0j
    other_sector = (state.total_photons + 1,) + (0,) * (state.mode_count - 1)
    assert other_sector not in out and out[other_sector] == 0j
    assert out[(0,) * (state.mode_count + 1)] == 0j


@settings(max_examples=80, deadline=None)
@given(unitary_cases())
def test_evolve_preserves_the_norm(case):
    state, u = case
    assert abs(evolve(state, u).norm() - 1.0) < 1e-12


@settings(max_examples=80, deadline=None)
@given(unitary_cases())
def test_evolve_output_is_sorted_and_round_trips_through_json(case):
    state, u = case
    out = evolve(state, u)
    kets = out.occupations()
    assert all(a < b for a, b in zip(kets, kets[1:]))
    assert list(out) == kets
    assert out.occupation_array.dtype == np.uint8
    assert out.occupation_array.tolist() == [list(k) for k in kets]
    assert list(out.amplitude_array) == [a for _, a in out.items()]
    assert FockState.from_json(out.to_json(), out.mode_count) == out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exclusive_patterns_sum_to_one_on_random_circuits(data):
    circuit, enabled = data.draw(swept_circuits())
    m = circuit.mode_count
    state = data.draw(superpositions(m, data.draw(st.integers(1, 3))))
    phases = {p: data.draw(st.floats(0, 2 * math.pi))
              for p in circuit.parameters}
    out = evolve(state, compile(circuit, phases, enabled))
    total = sum(pattern_probability(
        out, DetectionPattern({f"D{k}": c for k, c in enumerate(occ) if c}),
        circuit.detectors) for occ in sector(m, state.total_photons))
    assert abs(total - 1.0) < 1e-12
