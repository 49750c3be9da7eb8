"""Tests for detection patterns, projections, and reduced density matrices."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, DensityMatrix, DetectionPattern,
                   DimensionMismatchError, FockState, NonFiniteAmplitudeError,
                   PhotonCountError, UnknownDetectorError, basis_state,
                   bs_unitary, coincidence_from_density, density_from_pure,
                   embed, evolve, mean_photon_number, partial_trace,
                   pattern_probability, projected_probability)
from mzsim.measurement import pattern_mask
from strategies import random_unitary, superpositions

INV_SQRT2 = 1.0 / math.sqrt(2.0)

DETECTORS = {"Da": 0, "Db": 1, "Dc": 2}


def three_mode_state():
    # |1,1,0> and |0,0,2> with weights 1/3 and 2/3
    return FockState({(1, 1, 0): 1 / math.sqrt(3),
                      (0, 0, 2): math.sqrt(2 / 3)})


# ---------------------------------------------------------------------------
# detection patterns


def test_pattern_total_and_describe():
    p = DetectionPattern({"Da": 2, "Db": 1})
    assert p.total == 3
    assert p.exclusive
    assert p.describe() == "Da:2,Db:1"
    q = DetectionPattern({"Da": 1}, exclusive=False)
    assert q.describe() == "Da:1 (non-exclusive)"


def test_pattern_rejects_negative_counts():
    with pytest.raises(ValueError):
        DetectionPattern({"Da": -1})


def test_pattern_resolve_validates_names():
    p = DetectionPattern({"Dz": 1})
    with pytest.raises(UnknownDetectorError):
        p.resolve(DETECTORS)
    assert DetectionPattern({"Db": 2}).resolve(DETECTORS) == {1: 2}


def test_exclusive_pattern_requires_silent_other_detectors():
    state = three_mode_state()
    p_strict = DetectionPattern({"Da": 1})
    # the (1,1,0) ket has a photon at Db, so the exclusive pattern misses it
    assert pattern_probability(state, p_strict, DETECTORS) == 0.0
    p_loose = DetectionPattern({"Da": 1}, exclusive=False)
    assert abs(pattern_probability(state, p_loose, DETECTORS) - 1 / 3) < 1e-15


def test_exclusive_pattern_selects_exact_counts():
    state = three_mode_state()
    assert abs(pattern_probability(state, DetectionPattern({"Dc": 2}),
                                   DETECTORS) - 2 / 3) < 1e-15
    assert abs(pattern_probability(state, DetectionPattern({"Da": 1, "Db": 1}),
                                   DETECTORS) - 1 / 3) < 1e-15
    assert pattern_probability(state, DetectionPattern({"Dc": 1}),
                               DETECTORS) == 0.0


def test_unlisted_modes_outside_detectors_are_ignored():
    # the detector map only covers modes 0 and 1; mode 2 may hold photons
    state = three_mode_state()
    dets = {"Da": 0, "Db": 1}
    assert abs(pattern_probability(state, DetectionPattern({"Da": 1, "Db": 1}),
                                   dets) - 1 / 3) < 1e-15


def test_overfull_pattern_warns_and_returns_zero():
    state = basis_state((1, 0, 0))
    for exclusive in (True, False):
        pattern = DetectionPattern({"Da": 1, "Db": 1}, exclusive=exclusive)
        with pytest.warns(RuntimeWarning, match="identically zero"):
            value = pattern_probability(state, pattern, DETECTORS)
        assert value == 0.0


def test_pattern_mask_is_the_selection_rule():
    kets = np.array([(1, 1, 0), (1, 0, 1), (0, 0, 2), (1, 1, 0)])
    loose = DetectionPattern({"Da": 1}, exclusive=False)
    strict = DetectionPattern({"Da": 1, "Db": 1})
    assert pattern_mask(loose, DETECTORS, kets, 2).tolist() == \
        [True, True, False, True]
    assert pattern_mask(strict, DETECTORS, kets, 2).tolist() == \
        [True, False, False, True]
    # a mode without a detector is unconstrained even for exclusive patterns
    assert pattern_mask(strict, {"Da": 0, "Db": 1}, kets[:2], 2).tolist() == \
        [True, False]


def test_exclusive_patterns_partition_probability(seed=37):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        keys = [occ for occ in itertools.product(range(3), repeat=3)
                if sum(occ) == 2]
        amps = {occ: complex(rng.normal(), rng.normal()) for occ in keys}
        state = FockState(amps, 3).normalized()
        total = 0.0
        for occ in keys:
            pattern = DetectionPattern({"Da": occ[0], "Db": occ[1],
                                        "Dc": occ[2]})
            total += pattern_probability(state, pattern, DETECTORS)
        assert abs(total - 1.0) < 1e-12


def test_projected_probability():
    state = evolve(basis_state((1, 1)), bs_unitary(BALANCED, 0, 1, 2))
    proj = FockState({(2, 0): INV_SQRT2, (0, 2): INV_SQRT2})
    assert abs(projected_probability(state, proj) - 1.0) < 1e-12
    anti = FockState({(2, 0): INV_SQRT2, (0, 2): -INV_SQRT2})
    assert projected_probability(state, anti) < 1e-24


# ---------------------------------------------------------------------------
# density matrices


def test_density_from_pure_basics():
    state = three_mode_state()
    rho = density_from_pure(state)
    assert rho.modes == (0, 1, 2)
    assert abs(rho.trace() - 1.0) < 1e-15
    assert rho.is_hermitian()
    assert abs(rho.entry((1, 1, 0), (1, 1, 0)) - 1 / 3) < 1e-15
    cross = rho.entry((1, 1, 0), (0, 0, 2))
    assert abs(cross - math.sqrt(2) / 3) < 1e-15
    assert rho.entry((0, 0, 2), (1, 1, 0)) == cross.conjugate()


def test_diagonal_and_dense_round_trip():
    rho = density_from_pure(three_mode_state())
    diag = rho.diagonal()
    assert abs(sum(diag.values()) - 1.0) < 1e-15
    basis, dense = rho.to_dense()
    assert dense.shape == (len(basis), len(basis))
    assert abs(np.trace(dense) - 1.0) < 1e-14
    evals = np.linalg.eigvalsh(dense)
    assert evals.min() > -1e-12                  # positive semidefinite
    assert abs(evals.max() - 1.0) < 1e-12        # pure state: rank one


def test_partial_trace_of_product_state_factors():
    # |1>_0 (x) (|1,0> + |0,1>)_{1,2} / sqrt2: each factor reduces to a pure state
    state = FockState({(1, 1, 0): INV_SQRT2, (1, 0, 1): INV_SQRT2})
    rho = density_from_pure(state)
    left = partial_trace(rho, [1, 2])
    assert left.modes == (0,)
    assert abs(left.entry((1,), (1,)) - 1.0) < 1e-15
    right = partial_trace(rho, [0])
    assert abs(right.entry((1, 0), (0, 1)) - 0.5) < 1e-15
    _, dense = right.to_dense()
    assert abs(np.linalg.eigvalsh(dense).max() - 1.0) < 1e-12


def test_partial_trace_kills_coherence_with_traced_modes():
    # (|1,0> + |0,1>)/sqrt2: tracing either mode leaves an even mixture
    state = FockState({(1, 0): INV_SQRT2, (0, 1): INV_SQRT2})
    reduced = partial_trace(density_from_pure(state), [1])
    assert abs(reduced.entry((0,), (0,)) - 0.5) < 1e-15
    assert abs(reduced.entry((1,), (1,)) - 0.5) < 1e-15
    assert reduced.entry((1,), (0,)) == 0j
    assert abs(reduced.trace() - 1.0) < 1e-15


def test_partial_trace_keeps_original_mode_labels():
    state = FockState({(1, 0, 1): INV_SQRT2, (0, 1, 1): INV_SQRT2})
    rho = density_from_pure(state)
    reduced = partial_trace(rho, [0])
    assert reduced.modes == (1, 2)
    again = partial_trace(reduced, [2])
    assert again.modes == (1,)
    assert abs(again.entry((1,), (1,)) - 0.5) < 1e-15
    assert abs(mean_photon_number(again, 1) - 0.5) < 1e-15


def test_partial_trace_preserves_coherence_within_kept_modes():
    state = FockState({(1, 0, 0): INV_SQRT2, (0, 1, 0): INV_SQRT2})
    reduced = partial_trace(density_from_pure(state), [2])
    assert abs(reduced.entry((1, 0), (0, 1)) - 0.5) < 1e-15


def test_partial_trace_validation():
    rho = density_from_pure(basis_state((1, 1)))
    with pytest.raises(ValueError):
        partial_trace(rho, [5])
    with pytest.raises(ValueError):
        partial_trace(rho, [0, 1])
    with pytest.raises(ValueError):
        partial_trace(partial_trace(rho, [0]), [0])


def test_trace_is_preserved_by_partial_trace(seed=41):
    rng = np.random.default_rng(seed)
    keys = [occ for occ in itertools.product(range(3), repeat=3)
            if sum(occ) == 2]
    for _ in range(5):
        amps = {occ: complex(rng.normal(), rng.normal()) for occ in keys}
        rho = density_from_pure(FockState(amps, 3).normalized())
        for traced in ([0], [1], [2], [0, 1], [1, 2]):
            reduced = partial_trace(rho, traced)
            assert abs(reduced.trace() - 1.0) < 1e-12
            assert reduced.is_hermitian()


def test_mean_photon_number():
    rho = density_from_pure(three_mode_state())
    assert abs(mean_photon_number(rho, 0) - 1 / 3) < 1e-15
    assert abs(mean_photon_number(rho, 2) - 4 / 3) < 1e-15
    with pytest.raises(ValueError):
        mean_photon_number(partial_trace(rho, [0]), 0)


def test_coincidence_from_density_is_a_number_operator_product():
    rho = density_from_pure(three_mode_state())
    # <n_a n_b> picks up only the (1,1,0) branch
    both = DetectionPattern({"Da": 1, "Db": 1})
    assert abs(coincidence_from_density(rho, both, DETECTORS) - 1 / 3) < 1e-15
    # <n_c> = 2 * 2/3; <n_c^2> = 4 * 2/3
    one = DetectionPattern({"Dc": 1})
    two = DetectionPattern({"Dc": 2})
    assert abs(coincidence_from_density(rho, one, DETECTORS) - 4 / 3) < 1e-15
    assert abs(coincidence_from_density(rho, two, DETECTORS) - 8 / 3) < 1e-15


def test_coincidence_ignores_the_exclusive_flag():
    rho = density_from_pure(three_mode_state())
    strict = DetectionPattern({"Da": 1, "Db": 1}, exclusive=True)
    loose = DetectionPattern({"Da": 1, "Db": 1}, exclusive=False)
    assert (coincidence_from_density(rho, strict, DETECTORS)
            == coincidence_from_density(rho, loose, DETECTORS))


def test_coincidence_agrees_with_pattern_probability_for_single_counts(seed=43):
    # with at most one photon per listed mode and all photons listed, the
    # number operator product coincides with the exact-count projector
    rng = np.random.default_rng(seed)
    keys = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    for _ in range(10):
        amps = {occ: complex(rng.normal(), rng.normal()) for occ in keys}
        state = FockState(amps, 3).normalized()
        rho = density_from_pure(state)
        for pair in (("Da", "Db"), ("Da", "Dc"), ("Db", "Dc")):
            pattern = DetectionPattern({pair[0]: 1, pair[1]: 1})
            assert abs(coincidence_from_density(rho, pattern, DETECTORS)
                       - pattern_probability(state, pattern, DETECTORS)) < 1e-12


def test_coincidence_survives_tracing_unrelated_modes():
    state = three_mode_state()
    rho = density_from_pure(state)
    reduced = partial_trace(rho, [2])
    pattern = DetectionPattern({"Da": 1, "Db": 1})
    assert abs(coincidence_from_density(reduced, pattern, DETECTORS)
               - 1 / 3) < 1e-15
    with pytest.raises(ValueError):
        coincidence_from_density(reduced, DetectionPattern({"Dc": 1}), DETECTORS)


def test_density_allclose():
    a = density_from_pure(three_mode_state())
    b = density_from_pure(three_mode_state())
    assert a.allclose(b)
    assert not a.allclose(partial_trace(b, [2]))


def test_density_matrix_from_a_plain_mapping():
    rho = density_from_pure(three_mode_state())
    copy = DensityMatrix(dict(rho.entries), [0, 1, 2])
    assert copy.modes == (0, 1, 2)
    assert copy.items() == rho.items()
    assert np.array_equal(copy.basis_array, rho.basis_array)
    assert np.array_equal(copy.matrix_array, rho.matrix_array)
    # a zero entry given to the constructor is not stored
    zeroed = dataclasses.replace(
        rho, entries={**rho.entries, ((1, 1, 0), (0, 0, 2)): 0})
    assert len(zeroed.entries) == 3
    assert ((1, 1, 0), (0, 0, 2)) not in zeroed.entries
    assert zeroed.entry((1, 1, 0), (0, 0, 2)) == 0j
    # a ket that only ever carries zeros leaves the basis
    lone = DensityMatrix({((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 0.0}, (0, 1))
    assert lone.to_dense()[0] == [(1, 0)]


def test_density_entries_is_a_read_only_view_of_the_arrays():
    rho = density_from_pure(three_mode_state())
    assert len(rho.entries) == 4
    assert list(rho.entries) == sorted(rho.entries)
    assert abs(rho.entries[((1, 1, 0), (1, 1, 0))] - 1 / 3) < 1e-15
    for missing in (((1, 1, 0), (2, 0, 0)), ((1, 1), (1, 1)), (1, 2), "x"):
        assert missing not in rho.entries
        with pytest.raises(KeyError):
            rho.entries[missing]
    assert rho.basis_array.dtype == np.uint8
    assert rho.basis_array.tolist() == [[0, 0, 2], [1, 1, 0]]
    with pytest.raises(ValueError):
        rho.matrix_array[0, 0] = 0
    with pytest.raises(ValueError):
        rho.basis_array[0, 0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.entries = {}


def test_entry_reads_agree_in_order_and_value(seed=47):
    # a spread-out state with a traced mode, so the matrix holds zeros too
    rng = np.random.default_rng(seed)
    state = embed(basis_state((2, 1)), 4, (0, 1))
    rho = partial_trace(density_from_pure(evolve(state, random_unitary(rng, 4))),
                        [3])
    items = rho.entries.items()
    assert 0 < len(items) == len(rho.entries) < rho.matrix_array.size
    assert list(dict(rho.entries).items()) == list(items)
    assert list(rho.entries.values()) == [v for _, v in items]
    assert all(rho.entries[key] == value for key, value in items)
    assert all(rho.entry(*key) == value for key, value in items)


@pytest.mark.parametrize("entries,error", [
    ({((1, 0, 0), (1, 0)): 1.0}, DimensionMismatchError),
    ({((1, 0), (1,)): 1.0}, DimensionMismatchError),
    ({((256, 0), (256, 0)): 1.0}, PhotonCountError),
    ({((0, 0), (-1, 0)): 1.0}, PhotonCountError),
    ({((1, 0), (1, 0)): math.nan}, NonFiniteAmplitudeError),
    ({((1, 0), (0, 1)): complex(0.5, math.inf)}, NonFiniteAmplitudeError),
])
def test_density_matrix_rejects_bad_entries(entries, error):
    with pytest.raises(error):
        DensityMatrix(entries, (0, 1))


def test_density_matrix_needs_a_mode():
    with pytest.raises(ValueError):
        DensityMatrix({}, ())


# ---------------------------------------------------------------------------
# the grouped partial trace against a brute-force regroup of the pure state


@st.composite
def traced_cases(draw):
    """A normalized state on 2-5 modes and two disjoint sets of modes to
    trace that together leave at least one mode.

    Half the states are spread over their whole photon sector by a random
    unitary, so that the traced occupations group many kets together.
    """
    m = draw(st.integers(2, 5))
    state = draw(superpositions(m, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        state = evolve(state, random_unitary(rng, m))
    order = draw(st.permutations(range(m)))
    first = draw(st.integers(0, m - 1))
    second = draw(st.integers(0, m - 1 - first))
    return state, set(order[:first]), set(order[first:first + second])


def regrouped(state, traced):
    """Reduced entries summed pair by pair over the pure state's kets."""
    keep = [m for m in range(state.mode_count) if m not in traced]
    out = {}
    for a, x in state.items():
        for b, y in state.items():
            if all(a[m] == b[m] for m in traced):
                key = (tuple(a[m] for m in keep), tuple(b[m] for m in keep))
                out[key] = out.get(key, 0j) + x * y.conjugate()
    return out


@settings(max_examples=80, deadline=None)
@given(traced_cases())
def test_partial_trace_is_the_regrouped_pure_state(case):
    state, first, second = case
    traced = first | second
    reduced = partial_trace(density_from_pure(state), traced)
    assert reduced.modes == tuple(m for m in range(state.mode_count)
                                  if m not in traced)
    want = regrouped(state, traced)
    for key in set(reduced.entries) | set(want):
        assert abs(reduced.entries.get(key, 0j) - want.get(key, 0j)) < 1e-12


@settings(max_examples=80, deadline=None)
@given(traced_cases())
def test_tracing_in_two_steps_equals_tracing_at_once(case):
    state, first, second = case
    rho = density_from_pure(state)
    assert partial_trace(partial_trace(rho, first), second).allclose(
        partial_trace(rho, first | second), 1e-12)


@settings(max_examples=80, deadline=None)
@given(traced_cases())
def test_reduced_matrix_is_a_state(case):
    state, first, second = case
    reduced = partial_trace(density_from_pure(state), first | second)
    assert abs(reduced.trace() - 1.0) < 1e-12
    assert reduced.is_hermitian()
    _, dense = reduced.to_dense()
    assert np.linalg.eigvalsh(dense).min() > -1e-12


@settings(max_examples=80, deadline=None)
@given(traced_cases(), st.data())
def test_reduced_readouts_are_sums_over_the_pure_state(case, data):
    state, first, second = case
    reduced = partial_trace(density_from_pure(state), first | second)
    detectors = {f"D{m}": m for m in range(state.mode_count)}
    counts = {m: data.draw(st.integers(0, 3)) for m in reduced.modes}
    pattern = DetectionPattern({f"D{m}": c for m, c in counts.items()})
    weights = [(occ, abs(a) ** 2) for occ, a in state.items()]
    want = sum(w * math.prod(occ[m] ** c for m, c in counts.items())
               for occ, w in weights)
    assert abs(coincidence_from_density(reduced, pattern, detectors)
               - want) < 1e-12
    for m in reduced.modes:
        want = sum(w * occ[m] for occ, w in weights)
        assert abs(mean_photon_number(reduced, m) - want) < 1e-12
