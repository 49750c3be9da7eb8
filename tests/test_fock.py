"""Tests for sparse Fock states: construction, algebra, embedding, JSON."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mzsim import (DegenerateStateError, DensityMatrix, DimensionMismatchError,
                   FockState, NonFiniteAmplitudeError, PhotonCountError,
                   SectorError, basis_state, embed, inner_product, vacuum)
from mzsim.fock import _check_occupation

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_basis_state_and_vacuum():
    s = basis_state((0, 2, 1))
    assert s.mode_count == 3
    assert s.total_photons == 3
    assert s[(0, 2, 1)] == 1.0
    assert s[(1, 1, 1)] == 0j
    v = vacuum(4)
    assert v.total_photons == 0
    assert v[(0, 0, 0, 0)] == 1.0


def test_amplitudes_below_prune_threshold_are_dropped():
    s = FockState({(1, 0): 1.0, (0, 1): 1e-15}, 2)
    assert len(s) == 1
    assert (0, 1) not in s
    kept = FockState({(1, 0): 1.0, (0, 1): 1e-15}, 2, prune=0.0)
    assert len(kept) == 2


def test_duplicate_keys_accumulate():
    s = FockState({(1, 0): 0.5})
    t = s + s
    assert t[(1, 0)] == 1.0
    assert len(t) == 1


def test_mixed_photon_number_rejected():
    with pytest.raises(SectorError):
        FockState({(1, 0): 0.5, (1, 1): 0.5})


def test_wrong_occupation_length_rejected():
    with pytest.raises(DimensionMismatchError):
        FockState({(1, 0): 1.0, (0, 1, 0): 1.0}, 2)
    with pytest.raises(DimensionMismatchError):
        FockState({(1, 0, 0): 1.0}, 2)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        FockState({(1, -1): 1.0}, 2)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                 complex(0.0, float("nan")),
                                 complex(float("-inf"), 1.0)])
def test_non_finite_amplitudes_rejected(bad):
    with pytest.raises(NonFiniteAmplitudeError):
        FockState({(1, 0): bad})
    with pytest.raises(NonFiniteAmplitudeError):
        FockState({(1, 0): 1.0, (0, 1): bad}, 2, prune=0.0)
    with pytest.raises(NonFiniteAmplitudeError):
        basis_state((1, 0)) * bad


def test_an_amplitude_too_large_for_a_float_is_not_finite_and_named():
    huge = 10 ** 400
    with pytest.raises(NonFiniteAmplitudeError, match=r"at \(1, 0\)"):
        FockState({(1, 0): huge})
    with pytest.raises(NonFiniteAmplitudeError, match=r"at \[1, 0\]"):
        FockState.from_json(
            f'[{{"occupation": [1, 0], "re": 0.5, "im": {huge}}}]')
    # a finite amplitude whose magnitude is past the largest float is kept
    big = complex(1.5e308, 1.5e308)
    s = FockState({(1, 0): big, (0, 1): 1.0})
    assert s[(1, 0)] == big and s.norm() == math.inf


#: Photon counts of every kind a caller may pass: ints just inside and
#: outside 0..255, bools, numpy integers and floats, other numbers and
#: strings.
COUNTS = st.one_of(
    st.integers(-2, 257), st.booleans(), st.booleans().map(np.bool_),
    st.integers(-2, 257).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.floats(-2, 257), st.floats(-2, 257).map(np.float64),
    st.sampled_from([0.0, 1.0, 1.5, 255.0, 256.0, Fraction(1), Fraction(1, 2),
                     "1", math.nan, math.inf, -math.inf, 10 ** 400]))


def reference_occupation(occ, mode_count):
    """The count rule written one count at a time: the occupation's bytes,
    or the type of error it must raise."""
    if len(occ) != mode_count:
        return DimensionMismatchError
    if not all(n in range(256) for n in occ):
        return PhotonCountError
    return bytes(int(n) for n in occ)


def verdict(build):
    try:
        return build()
    except (DimensionMismatchError, PhotonCountError) as exc:
        return type(exc)


def nearest_ket(occ):
    """A valid ket near ``occ``, which a lookup of an invalid ``occ`` must
    still miss."""
    def nearest(n):
        try:
            return min(max(int(n), 0), 255)
        except (ValueError, OverflowError):
            return 0
    return tuple(map(nearest, occ))


@given(st.lists(COUNTS, max_size=4).map(tuple), st.integers(1, 3))
def test_one_count_rule_for_checks_lookups_and_densities(occ, mode_count):
    want = reference_occupation(occ, mode_count)
    assert verdict(lambda: _check_occupation(occ, mode_count)) == want
    state = verdict(lambda: FockState({occ: 1.0}, mode_count))
    rho = verdict(lambda: DensityMatrix({(occ, occ): 1.0}, range(mode_count)))
    if isinstance(want, bytes):
        assert state.occupation_array.tobytes() == want
        assert rho.basis_array.tobytes() == want
        found = basis_state(tuple(want))
        assert occ in found and found[occ] == 1.0
    else:
        assert state is want and rho is want
        other = (basis_state(nearest_ket(occ)) if len(occ) == mode_count
                 else vacuum(mode_count))
        assert occ not in other and other[occ] == 0j


def test_counts_beyond_one_byte_and_modeless_states_rejected():
    assert basis_state((255, 0))[(255, 0)] == 1.0
    with pytest.raises(PhotonCountError):
        basis_state((256, 0))
    # a count must equal its int: no truncation, no parsing, no overflow
    for occ in [(1.5, 0.5), ("1", 0), (math.inf, 0)]:
        with pytest.raises(PhotonCountError):
            FockState({occ: 1.0})
    with pytest.raises(ValueError):
        FockState({(): 1.0})


def test_array_storage_is_sorted_aligned_and_read_only():
    s = FockState({(0, 2): 1.0, (2, 0): 2.0, (1, 1): 3j})
    occ, amp = s.occupation_array, s.amplitude_array
    assert occ.dtype == np.uint8 and amp.dtype == np.complex128
    assert occ.tolist() == [[0, 2], [1, 1], [2, 0]]
    assert amp.tolist() == [1.0, 3j, 2.0]
    with pytest.raises(ValueError):
        occ[0, 0] = 5
    with pytest.raises(ValueError):
        amp[0] = 5.0
    assert all(type(n) is int for occ, _ in s.items() for n in occ)
    assert all(type(a) is complex for _, a in s.items())


def test_lookups_of_foreign_occupations_read_zero():
    s = FockState({(0, 2): 1.0, (1, 1): 1.0})
    for occ in [(2, 0), (1, 0), (1, 1, 0), (1,), (-1, 3), (300, 0), (1.5, 1)]:
        assert occ not in s
        assert s[occ] == 0j
    assert (1, 1) in s and s[[1, 1]] == 1.0 and s[(1.0, np.int64(1))] == 1.0
    assert FockState({}, 2)[(1, 0)] == 0j


def test_addition_checks_sectors_and_keeps_empty_states_neutral():
    with pytest.raises(SectorError):
        basis_state((1, 0)) + basis_state((2, 0))
    s = basis_state((2, 0))
    assert s + FockState({}, 2) == s
    assert (s - s).norm() == 0.0 and len(s - s) == 0
    assert not s.allclose(s * (1 + 1e-15), tol=0.0)


def test_empty_state_needs_explicit_mode_count():
    with pytest.raises(ValueError):
        FockState({})
    z = FockState({}, 3)
    assert z.mode_count == 3
    assert z.total_photons == 0
    assert z.norm() == 0.0


def test_norm_and_normalized():
    s = FockState({(2, 0): 3.0, (0, 2): 4.0j})
    assert abs(s.norm() - 5.0) < 1e-15
    n = s.normalized()
    assert abs(n.norm() - 1.0) < 1e-15
    assert abs(n[(2, 0)] - 0.6) < 1e-15
    assert s.normalized().allclose(n)
    with pytest.raises(DegenerateStateError):
        FockState({}, 2).normalized()


@pytest.mark.parametrize("size", [1e-200, 1e200])
def test_norm_and_normalized_do_not_overflow_or_underflow(size):
    # squares of these amplitudes leave the float range; the pyproject
    # filter turns any overflow warning into a failure
    s = FockState({(1, 0): size, (0, 1): -1j * size}, prune=0.0)
    assert s.norm() == pytest.approx(math.sqrt(2) * size, rel=1e-15)
    n = s.normalized()
    assert abs(n[(1, 0)] - 1 / math.sqrt(2)) < 1e-15
    assert abs(n[(0, 1)] + 1j / math.sqrt(2)) < 1e-15
    assert abs(n.norm() - 1.0) < 1e-15


def test_norm_and_normalized_round_as_if_unscaled(seed=7):
    # the scale is a power of two, so for amplitudes whose squares stay in
    # the float range the results match the plain computation bit for bit
    rng = np.random.default_rng(seed)
    keys = [(n, 4 - n) for n in range(5)]
    for size in (1e-100, 3e-7, 1.0, 0.7, 12345.678, 1e100):
        amps = size * (rng.normal(size=5) + 1j * rng.normal(size=5))
        s = FockState(dict(zip(keys, amps)), prune=0.0)
        plain = np.linalg.norm(s.amplitude_array)
        assert s.norm() == float(plain)
        assert np.array_equal(s.normalized().amplitude_array,
                              s.amplitude_array / plain)


def test_a_norm_past_the_largest_float_reads_inf():
    s = FockState({(1, 0): 1.5e308, (0, 1): 1.5e308})
    assert s.norm() == math.inf
    assert abs(s.normalized().norm() - 1.0) < 1e-15


def test_linear_algebra_ops():
    a = FockState({(1, 0): 1.0})
    b = FockState({(0, 1): 1.0})
    s = INV_SQRT2 * a + INV_SQRT2 * b
    assert abs(s.norm() - 1.0) < 1e-15
    d = s - INV_SQRT2 * b
    assert d.allclose(INV_SQRT2 * a)
    with pytest.raises(DimensionMismatchError):
        a + basis_state((1, 0, 0))


def test_scalar_multiplication_is_commutative():
    s = FockState({(1, 1): 0.5 - 0.5j})
    assert (2j * s).allclose(s * 2j)
    assert (2j * s)[(1, 1)] == 1j * (1 - 1j)


def test_items_sorted_lexicographically():
    s = FockState({(0, 2): 1.0, (2, 0): 1.0, (1, 1): 1.0})
    assert [occ for occ, _ in s.items()] == [(0, 2), (1, 1), (2, 0)]
    assert list(s) == s.occupations()


def test_inner_product_conjugates_first_argument():
    a = FockState({(1, 0): 1j})
    b = FockState({(1, 0): 1.0, (0, 1): 1.0}) * INV_SQRT2
    assert abs(inner_product(a, b) - (-1j * INV_SQRT2)) < 1e-15
    assert abs(inner_product(b, a) - (1j * INV_SQRT2)) < 1e-15
    with pytest.raises(DimensionMismatchError):
        inner_product(a, basis_state((1, 0, 0)))


def test_inner_product_of_random_states_matches_dense(seed=7):
    rng = np.random.default_rng(seed)
    keys = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    for _ in range(20):
        amps_a = rng.normal(size=6) + 1j * rng.normal(size=6)
        amps_b = rng.normal(size=6) + 1j * rng.normal(size=6)
        a = FockState(dict(zip(keys, amps_a)), 3, prune=0.0)
        b = FockState(dict(zip(keys, amps_b)), 3, prune=0.0)
        expected = np.vdot(amps_a, amps_b)
        assert abs(inner_product(a, b) - expected) < 1e-12
        assert abs(a.norm() - np.linalg.norm(amps_a)) < 1e-12


def test_equality_and_allclose():
    a = FockState({(1, 0): 1.0})
    b = FockState({(1, 0): 1.0})
    c = FockState({(1, 0): 1.0 + 5e-13})
    assert a == b
    assert a != c
    assert a.allclose(c)
    assert not a.allclose(c, tol=1e-13)
    assert not a.allclose(basis_state((1, 0, 0)))
    assert a != "not a state"


def test_embed_places_modes_and_leaves_vacuum():
    small = FockState({(2, 0): INV_SQRT2, (0, 2): INV_SQRT2})
    big = embed(small, 5, (3, 1))
    assert big.mode_count == 5
    assert big[(0, 0, 0, 2, 0)] == INV_SQRT2
    assert big[(0, 2, 0, 0, 0)] == INV_SQRT2
    assert abs(big.norm() - 1.0) < 1e-15
    # decreasing targets reorder the kets: equal to the mapping-built state
    small = FockState({(2, 0): 0.6, (1, 1): 0.8j, (0, 2): 0.0}, prune=-1.0)
    for modes, kets in (((3, 1), ((0, 0, 0, 2, 0), (0, 1, 0, 1, 0),
                                  (0, 2, 0, 0, 0))),
                        ((1, 3), ((0, 2, 0, 0, 0), (0, 1, 0, 1, 0),
                                  (0, 0, 0, 2, 0)))):
        big = embed(small, 5, modes)
        assert big == FockState(dict(zip(kets, (0.6, 0.8j, 0.0))), 5,
                                prune=0.0)
        assert big.occupations() == sorted(big.occupations())


def test_embed_validates_targets():
    s = basis_state((1, 1))
    with pytest.raises(DimensionMismatchError):
        embed(s, 5, (0, 1, 2))
    with pytest.raises(ValueError):
        embed(s, 5, (2, 2))
    with pytest.raises(ValueError):
        embed(s, 5, (0, 5))


@pytest.mark.parametrize("modes", [(True, 2), (0.0, 1)])
def test_embed_targets_are_integers_not_bools(modes):
    with pytest.raises(ValueError, match="invalid target modes"):
        embed(basis_state((1, 1)), 4, modes)


def test_json_round_trip(seed=11):
    rng = np.random.default_rng(seed)
    keys = [(3, 0), (2, 1), (1, 2), (0, 3)]
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = FockState(dict(zip(keys, amps)), 2, prune=0.0)
    back = FockState.from_json(s.to_json())
    assert back == s
    assert FockState.from_json(vacuum(3).to_json(), mode_count=3) == vacuum(3)


def test_repr_mentions_amplitudes():
    s = basis_state((1, 1))
    text = repr(s)
    assert "(1, 1)" in text
    assert "modes=2" in text
