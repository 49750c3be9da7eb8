"""Tests for optical elements, Fock evolution, and the permanent oracle.

The evolution engine (multinomial expansion) and the single-amplitude route
(matrix permanent) are implemented independently; here each is also checked
against third routes: dense single-photon matrix action and a brute-force
permutation sum for the permanent.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, BeamSplitterCoeffs, DetectionPattern,
                   DimensionMismatchError, FockState,
                   InvalidCoefficientsError, NonUnitaryError,
                   PhotonCountError, SectorError, basis_state, bs_unitary,
                   compile, evolve, is_unitary, pattern_probability,
                   permanent, phase_unitary, swap_unitary,
                   transition_amplitude, vacuum)
from mzsim.fock import PRUNE_THRESHOLD
from mzsim.optics import _evolve_grid
from strategies import random_unitary, superpositions, swept_circuits

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
    scaled = evolve(state, np.array([[1.0, 0.0], [0.0, 2.0]]),
                    check_unitary=False)
    assert scaled[(1, 0)] == 1.0
    for bad in (math.inf, math.nan):
        u = np.eye(2, dtype=complex)
        u[0, 1] = bad
        for check in (True, False):
            with pytest.raises(NonUnitaryError):
                evolve(state, u, check_unitary=check)


def test_evolve_rejects_photon_counts_beyond_its_factorial_table():
    assert evolve(basis_state((20, 0)), np.eye(2))[(20, 0)] == 1.0
    with pytest.raises(PhotonCountError):
        evolve(basis_state((21, 0)), bs_unitary(BALANCED, 0, 1, 2))


def test_twenty_photons_on_a_wide_register_split_binomially():
    """|20, 0, ...> on a balanced splitter gives sqrt(C(20, k)) t^k r^(20-k).

    The register is wide enough that neither an (N+1)^M mixed-radix key nor
    a C(N+M-1, N) combinatorial rank of the kets fits in 64 bits.
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
    assert abs(out[middle] - transition_amplitude(u, n_in, middle)) < 1e-9


def test_swap_relabels_occupations():
    state = FockState({(2, 0, 1): 1.0})
    out = evolve(state, swap_unitary(0, 2, 3))
    assert out[(1, 0, 2)] == 1.0


def test_the_grid_drops_a_ket_only_when_every_phase_prunes_it():
    # at the first grid phase the reflected ket sits below the prune
    # threshold, at the second it is bright: it stays, with both amplitudes
    state = basis_state((1, 0))
    faint = bs_unitary(BeamSplitterCoeffs.from_angle(1e-15), 0, 1, 2)
    bright = bs_unitary(BeamSplitterCoeffs.from_angle(0.5), 0, 1, 2)
    kets, amplitudes = _evolve_grid(state, np.stack([faint, bright]))
    assert kets.tolist() == [[0, 1], [1, 0]]
    assert 0 < abs(amplitudes[0, 0]) <= PRUNE_THRESHOLD
    assert len(evolve(state, faint)) == 1
    out = evolve(state, bright)
    assert np.allclose(amplitudes[1], [out[(0, 1)], out[(1, 0)]],
                       rtol=0, atol=1e-15)
    # below the threshold at every grid phase: dropped
    dim = [bs_unitary(BeamSplitterCoeffs.from_angle(a), 0, 1, 2)
           for a in (1e-12, 2e-12)]
    kets, amplitudes = _evolve_grid(state, np.stack(dim), prune=1e-10)
    assert kets.tolist() == [[1, 0]]
    assert amplitudes.shape == (2, 1)


def test_the_grid_checks_every_matrix_of_its_stack():
    state = basis_state((1, 0))
    good = bs_unitary(BALANCED, 0, 1, 2)
    for bad in (np.diag([1.0, 2.0]), np.diag([1.0, math.nan])):
        with pytest.raises(NonUnitaryError):
            _evolve_grid(state, np.stack([good, bad]))
    with pytest.raises(DimensionMismatchError):
        _evolve_grid(state, good)
    with pytest.raises(PhotonCountError):
        _evolve_grid(basis_state((21, 0)), np.stack([good, good]))


# ---------------------------------------------------------------------------
# permanents and transition amplitudes


def brute_force_permanent(a):
    """Permutation-sum definition; only usable for small matrices."""
    n = a.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0j
        for i, j in enumerate(perm):
            term *= a[i, j]
        total += term
    return total


def test_permanent_small_cases():
    assert permanent(np.zeros((0, 0))) == 1.0
    assert abs(permanent(np.array([[2.5]])) - 2.5) < 1e-15
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert abs(permanent(a) - 10.0) < 1e-12
    with pytest.raises(ValueError):
        permanent(np.ones((2, 3)))


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
