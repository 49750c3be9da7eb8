"""Tests for detection patterns, projections, and reduced density matrices."""

import dataclasses
import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, DensityMatrix, DetectionPattern,
                   DimensionMismatchError, FockState, NonFiniteAmplitudeError,
                   PhotonCountError, UnknownDetectorError, basis_state, braced,
                   bs_unitary, coincidence_from_density, compile,
                   density_from_pure, embed, engineered_input, evolve,
                   mean_photon_number, noon_target, partial_trace,
                   pattern_probability, projected_probability)
from mzsim.measurement import _trace_plan, pattern_masks
from mzsim.optics import _expansion_plan
from strategies import occupations, random_unitary, superpositions

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


@pytest.mark.parametrize("count", [1.5, 1.9, -1, 256, "1", math.inf,
                                   math.nan, None])
def test_pattern_counts_must_be_whole_numbers_in_a_byte(count):
    for exclusive in (True, False):
        with pytest.raises(PhotonCountError, match="Da"):
            DetectionPattern({"Da": count, "Db": 1}, exclusive=exclusive)


def test_whole_number_counts_are_kept_as_ints():
    p = DetectionPattern({"Da": 2.0, "Db": np.uint8(1), "Dc": True})
    assert p.counts == {"Da": 2, "Db": 1, "Dc": 1}
    assert all(type(c) is int for c in p.counts.values())
    assert p.total == 4 and p.describe() == "Da:2,Db:1,Dc:1"


def test_pattern_resolve_validates_names():
    p = DetectionPattern({"Dz": 1})
    with pytest.raises(UnknownDetectorError):
        p.resolve(DETECTORS)
    assert DetectionPattern({"Db": 2}).resolve(DETECTORS) == {1: 2}


def test_a_detector_beyond_the_state_is_a_dimension_mismatch():
    # a detector on mode 2 cannot read a two-mode state: the error names it
    detectors = {"Da": 0, "Db": 1, "Dc": 2}
    for exclusive in (True, False):
        with pytest.raises(DimensionMismatchError, match="'Dc' .* 2 modes"):
            pattern_probability(basis_state((1, 0)),
                                DetectionPattern({"Da": 1}, exclusive),
                                detectors)


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
    assert pattern_masks([loose], DETECTORS, kets, 2)[0].tolist() == \
        [True, True, False, True]
    assert pattern_masks([strict], DETECTORS, kets, 2)[0].tolist() == \
        [True, False, False, True]
    # a mode without a detector is unconstrained even for exclusive patterns
    assert pattern_masks([strict], {"Da": 0, "Db": 1}, kets[:2],
                         2)[0].tolist() == [True, False]


def selects(occ, pattern, detectors):
    """The selection rule read off one ket, detector by detector."""
    return all(occ[mode] == pattern.counts.get(name, 0)
               for name, mode in detectors.items()
               if name in pattern.counts or pattern.exclusive)


@st.composite
def pattern_cases(draw):
    """Kets of one photon sector, a detector map over some of their modes
    and patterns on it, one of them asking for a photon too many."""
    modes = draw(st.integers(1, 5))
    photons = draw(st.integers(0, 3))
    kets = np.array(draw(st.lists(occupations(modes, photons), min_size=1,
                                  max_size=8)), dtype=np.uint8)
    watched = draw(st.lists(st.integers(0, modes - 1), min_size=1,
                            unique=True))
    detectors = {f"D{mode}": mode for mode in watched}
    names = st.lists(st.sampled_from(sorted(detectors)), unique=True)
    patterns = [DetectionPattern({name: draw(st.integers(0, photons))
                                  for name in draw(names)},
                                 exclusive=draw(st.booleans()))
                for _ in range(draw(st.integers(0, 4)))]
    over = DetectionPattern({next(iter(detectors)): photons + 1},
                            exclusive=draw(st.booleans()))
    patterns.insert(draw(st.integers(0, len(patterns))), over)
    return kets, photons, detectors, patterns


@settings(max_examples=100, deadline=None)
@given(pattern_cases())
def test_every_mask_row_is_the_rule_read_ket_by_ket(case):
    kets, photons, detectors, patterns = case
    with pytest.warns(RuntimeWarning, match="identically zero"):
        masks = pattern_masks(patterns, detectors, kets, photons)
    assert masks.shape == (len(patterns), len(kets)) and masks.dtype == bool
    for pattern, row in zip(patterns, masks):
        if pattern.total > photons:
            assert not row.any()
            continue
        assert row.tolist() == [selects(occ, pattern, detectors)
                                for occ in kets.tolist()]
        assert np.array_equal(
            pattern_masks([pattern], detectors, kets, photons)[0], row)
    with pytest.raises(UnknownDetectorError):
        pattern_masks([DetectionPattern({"nowhere": 1}), *patterns],
                      detectors, kets, photons)


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


def test_trace_reads_the_pruned_matrix_that_every_view_reads():
    # the (0, 1) diagonal, 1e-14, is pruned from the reduced matrix while
    # the unpruned factors still carry it; trace() must read the matrix
    state = FockState({(1, 0, 0): 1.0, (0, 1, 0): 1e-7}, prune=0.0).normalized()
    reduced = partial_trace(density_from_pure(state), [2])
    assert reduced.entry((0, 1), (0, 1)) == 0j
    assert reduced.trace() == complex(np.trace(reduced.matrix_array))
    assert reduced.trace().real < 1.0 - 5e-15


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
    # a key is read as (tuple(ket), tuple(bra)), so lists find it too
    listed = [[1, 1, 0], [1, 1, 0]]
    assert rho.entries[listed] == rho.entries[((1, 1, 0), (1, 1, 0))]
    assert listed in rho.entries and rho.entry(*listed) == rho.entries[listed]
    for missing in (((1, 1, 0), (2, 0, 0)), ((1, 1), (1, 1)), (1, 2), "x",
                    [[1, 1, 0]], [[1, 1, 0], [[1], 1, 0]]):
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
    # a spread-out state with a traced mode, so the matrix holds zeros too,
    # and a mapping-built matrix whose entries are given out of order
    rng = np.random.default_rng(seed)
    state = embed(basis_state((2, 1)), 4, (0, 1))
    rho = partial_trace(density_from_pure(evolve(state, random_unitary(rng, 4))),
                        [3])
    shuffled = DensityMatrix(dict(reversed(list(rho.entries.items()))),
                             rho.modes)
    for density in (rho, shuffled):
        items = density.entries.items()
        assert 0 < len(items) == len(density.entries) < density.matrix_array.size
        assert list(density.entries) == sorted(density.entries)
        assert list(dict(density.entries).items()) == list(items)
        assert list(density.entries.values()) == [v for _, v in items]
        assert all(density.entries[key] == value for key, value in items)
        assert all(density.entry(*key) == value for key, value in items)
    assert list(shuffled.entries.items()) == list(rho.entries.items())


def test_one_entry_of_a_pure_density_reads_two_factor_rows():
    # the 330-ket output of the braced_4 workload: its dense matrix takes
    # 1.7 MiB and a dict of its 108,900 entries about 15 MiB
    circuit = braced(4)
    state = embed(engineered_input(noon_target(4)), circuit.mode_count, (0, 1))
    phases = {p: 0.3 * (k + 1) for k, p in enumerate(circuit.parameters)}
    out = evolve(state, compile(circuit, phases, tuple(circuit.toggles)))
    rho = density_from_pure(out)
    kets = list(map(tuple, rho.basis_array.tolist()))
    assert len(kets) == 330
    tracemalloc.start()
    try:
        value = rho.entry(kets[5], kets[300])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # a rank-1 factor read is the one product the matmul makes too
    assert value == rho.matrix_array[5, 300]
    assert rho.entry(kets[5], (9,) * 24) == rho.entry((1,), kets[5]) == 0


def test_a_mapping_lookup_reads_one_entry_without_the_entry_map():
    # entries[key], get and in on the 330-ket braced_4 output read two
    # factor rows, as entry() does, not the 108,900-entry dict
    circuit = braced(4)
    state = embed(engineered_input(noon_target(4)), circuit.mode_count, (0, 1))
    phases = {p: 0.3 * (k + 1) for k, p in enumerate(circuit.parameters)}
    out = evolve(state, compile(circuit, phases, tuple(circuit.toggles)))
    rho = density_from_pure(out)
    kets = list(map(tuple, rho.basis_array.tolist()))
    key = (kets[5], kets[300])
    tracemalloc.start()
    try:
        value = rho.entries[key]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert value == rho.entry(*key) == rho.matrix_array[5, 300]
    assert key in rho.entries and rho.entries.get(key) == value
    assert rho.entries.get((kets[5], (9,) * 24)) is None


def test_a_zero_entry_reads_as_missing(seed=48):
    # a traced mode leaves zeros between kets of different traced counts
    rng = np.random.default_rng(seed)
    state = embed(basis_state((2, 1)), 4, (0, 1))
    rho = partial_trace(density_from_pure(evolve(state, random_unitary(rng, 4))),
                        [3])
    kets = list(map(tuple, rho.basis_array.tolist()))
    rows, cols = np.nonzero(rho.matrix_array == 0)
    assert len(rows)
    for i, j in zip(rows.tolist(), cols.tolist()):
        key = (kets[i], kets[j])
        assert key not in rho.entries and rho.entries.get(key) is None
        with pytest.raises(KeyError):
            rho.entries[key]
        assert rho.entry(*key) == 0


def test_counting_entries_builds_no_map_of_them():
    # all 220 kets of 3 photons over 10 modes: the dense matrix takes
    # 220^2 * 16 B = 0.77 MB, a dict of its 48,400 entries several MB;
    # a pure state's entries are counted from its 220 amplitudes
    rho = density_from_pure(full_sector_state(3, 10, seed=61))
    tracemalloc.start()
    try:
        assert len(rho.entries) == 220 ** 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    # 1e-170 squared underflows to zero, so psi psi^dagger holds 3 nonzeros
    tiny = density_from_pure(FockState({(1, 0): 1.0, (0, 1): 1e-170},
                                       prune=0.0))
    assert len(tiny.entries) == np.count_nonzero(tiny.matrix_array) == 3


def test_walking_a_pure_densitys_entries_keeps_nothing_of_them():
    # the 330-ket braced_4 output: its matrix takes 330^2 * 16 B = 1.66 MiB,
    # and a dict of its 108,900 entries kept beside it about 14 MiB
    circuit, state, _ = reduced_n4_loop()
    phases = {p: 0.3 * (k + 1) for k, p in enumerate(circuit.parameters)}
    rho = density_from_pure(
        evolve(state, compile(circuit, phases, tuple(circuit.toggles))))
    tracemalloc.start()
    try:
        items = list(rho.entries.items())
        del items
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 330 ** 2 * 16
    kets = list(map(tuple, rho.basis_array.tolist()))
    assert rho.entries.items() == [
        ((kets[i], kets[j]), rho.matrix_array[i, j])
        for i in range(330) for j in range(330)]


@pytest.mark.parametrize("entries,error", [
    ({((1, 0, 0), (1, 0)): 1.0}, DimensionMismatchError),
    ({((1, 0), (1,)): 1.0}, DimensionMismatchError),
    ({((256, 0), (256, 0)): 1.0}, PhotonCountError),
    ({((0, 0), (-1, 0)): 1.0}, PhotonCountError),
    ({((1, 0), (1, 0)): math.nan}, NonFiniteAmplitudeError),
    ({((1, 0), (0, 1)): complex(0.5, math.inf)}, NonFiniteAmplitudeError),
    ({((1, 0), (0, 1)): 10 ** 400}, NonFiniteAmplitudeError),
])
def test_density_matrix_rejects_bad_entries(entries, error):
    with pytest.raises(error):
        DensityMatrix(entries, (0, 1))


@pytest.mark.parametrize("mode", [True, 1.0, np.float64(1.0)])
def test_a_mode_that_is_not_an_index_is_refused_by_name(mode):
    # mode 1 exists, but True and 1.0 only compare equal to it
    rho = density_from_pure(three_mode_state())
    reads = [lambda: mean_photon_number(rho, mode),
             lambda: partial_trace(rho, [mode]),
             lambda: coincidence_from_density(
                 rho, DetectionPattern({"Db": 1}), {"Db": mode})]
    for read in reads:
        with pytest.raises(ValueError, match=re.escape(f"mode {mode!r}")):
            read()


def test_density_matrix_needs_a_mode():
    with pytest.raises(ValueError):
        DensityMatrix({}, ())


@pytest.mark.parametrize("modes", [(0, 0), (-1, 3), (2, 1, 2), (0.5, 1.7),
                                   (True, 2)])
def test_density_matrix_modes_are_distinct_and_not_negative(modes):
    ket = (1,) + (0,) * (len(modes) - 1)
    with pytest.raises(ValueError, match="mode"):
        DensityMatrix({(ket, ket): 1.0}, modes)


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


def regrouped_entries(entries, modes, traced):
    """Reduced entries summed pair by pair over a matrix's own entries."""
    drop = [i for i, m in enumerate(modes) if m in traced]
    keep = [i for i, m in enumerate(modes) if m not in traced]
    out = {}
    for (ket, bra), v in entries.items():
        if all(ket[i] == bra[i] for i in drop):
            key = (tuple(ket[i] for i in keep), tuple(bra[i] for i in keep))
            out[key] = out.get(key, 0j) + v
    return out


def traced_cold_and_warm(rho, traced):
    """partial_trace with the plan cache cleared, then again with its plan
    kept: the two results must be equal bit for bit."""
    _expansion_plan.cache_clear()
    cold = partial_trace(rho, traced)
    warm = partial_trace(rho, traced)
    info = _expansion_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cold.modes == warm.modes
    for a, b in zip(density_arrays(cold), density_arrays(warm)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    return warm


def density_arrays(rho):
    entries = rho.entries
    return entries.basis, (entries.matrix if entries.psi is None
                           else entries.psi)


def regrouped(state, traced):
    """Reduced entries summed pair by pair over the pure state's kets."""
    outer = {(a, b): x * y.conjugate()
             for a, x in state.items() for b, y in state.items()}
    return regrouped_entries(outer, range(state.mode_count), traced)


@settings(max_examples=80, deadline=None)
@given(traced_cases())
def test_partial_trace_is_the_regrouped_pure_state(case):
    state, first, second = case
    traced = first | second
    reduced = traced_cold_and_warm(density_from_pure(state), traced)
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
    nested = traced_cold_and_warm(traced_cold_and_warm(rho, first), second)
    assert nested.allclose(partial_trace(rho, first | second), 1e-12)


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


# ---------------------------------------------------------------------------
# matrices given as mappings, and the memory a pure state's trace needs


@st.composite
def mapping_cases(draw):
    """A matrix with random entries between random kets of 2-4 modes, not
    Hermitian or positive and not in one photon sector, and two disjoint
    sets of modes to trace that together leave at least one mode."""
    m = draw(st.integers(2, 4))
    occ = st.tuples(*[st.integers(0, 2)] * m)
    parts = st.floats(-1, 1)
    entries = draw(st.dictionaries(
        st.tuples(occ, occ), st.builds(complex, parts, parts),
        min_size=1, max_size=16))
    order = draw(st.permutations(range(m)))
    first = draw(st.integers(0, m - 1))
    second = draw(st.integers(0, m - 1 - first))
    return (DensityMatrix(entries, range(m)), set(order[:first]),
            set(order[first:first + second]))


@settings(max_examples=80, deadline=None)
@given(mapping_cases())
def test_partial_trace_of_a_mapping_built_matrix(case):
    rho, first, second = case
    traced = first | second
    reduced = traced_cold_and_warm(rho, traced)
    want = regrouped_entries(dict(rho.entries), rho.modes, traced)
    for key in set(reduced.entries) | set(want):
        assert abs(reduced.entries.get(key, 0j) - want.get(key, 0j)) < 1e-12
    nested = traced_cold_and_warm(traced_cold_and_warm(rho, first), second)
    assert nested.allclose(reduced, 1e-12)


def full_sector_state(photons, modes, seed):
    """A random normalized state on every ket of the photon sector."""
    rng = np.random.default_rng(seed)
    kets = [tuple(Counter(c)[m] for m in range(modes)) for c in
            itertools.combinations_with_replacement(range(modes), photons)]
    amps = rng.normal(size=len(kets)) + 1j * rng.normal(size=len(kets))
    return FockState(dict(zip(kets, amps)), modes).normalized()


def traced_peak(rho, traced):
    """The reduced matrix and the peak bytes allocated while tracing."""
    tracemalloc.start()
    try:
        reduced = partial_trace(rho, traced)
        return reduced, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_pure_state_trace_builds_nothing_of_size_kets_squared():
    # 5 photons over 10 modes: all 2,002 kets of the sector, whose dense
    # density matrix would take 2002^2 * 16 B = 64 MiB
    state = full_sector_state(5, 10, seed=53)
    assert len(state) == 2002
    reduced, peak = traced_peak(density_from_pure(state), range(2, 10))
    assert peak < 4 * 2 ** 20
    assert len(reduced.basis_array) == 21
    assert abs(reduced.trace() - 1.0) < 1e-12


def test_a_mapping_built_matrix_holds_one_kets_squared_array():
    # 78 kets: the matrix takes 78^2 * 16 B = 97 KB, and no array of that
    # size (such as an identity) is kept beside it
    state = full_sector_state(2, 12, seed=57)
    entries = dict(density_from_pure(state).entries)
    tracemalloc.start()
    try:
        rho = DensityMatrix(entries, range(12))
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    arrays = snapshot.filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    held = sum(stat.size for stat in arrays.statistics("filename"))
    assert len(rho.basis_array) == 78
    assert 78 ** 2 * 16 <= held < 1.1 * 78 ** 2 * 16


def test_a_mapping_built_trace_gives_one_column_per_ket_not_per_group():
    # 220 kets in 165 traced-occupation groups: a column for every (group,
    # ket) pair of the identity right factor would take 10 x 165 x 220 x
    # 16 B = 5.5 MiB and its scatter about 17 MiB
    state = full_sector_state(3, 10, seed=59)
    rho = DensityMatrix(dict(density_from_pure(state).entries), range(10))
    reduced, peak = traced_peak(rho, range(2, 10))
    assert peak < 4 * 2 ** 20
    assert reduced.allclose(partial_trace(density_from_pure(state),
                                          range(2, 10)), 1e-12)


# ---------------------------------------------------------------------------
# trace plans, kept in the plan cache evolve uses


def reduced_n4_loop():
    """The braced_4 circuit, its engineered input and the modes traced to
    leave D10 and D11, as the reduced_n4 phase loop uses them."""
    circuit = braced(4)
    state = embed(engineered_input(noon_target(4)), circuit.mode_count, (0, 1))
    keep = {circuit.detectors["D10"], circuit.detectors["D11"]}
    return circuit, state, [m for m in range(circuit.mode_count)
                            if m not in keep]


def test_a_mapping_built_trace_peaks_below_half_its_matrix():
    # braced_4's 170-ket output at phases 0, rebuilt from its entries: the
    # matrix takes 170^2 * 16 B = 462,400 B, and a cold and a warm trace
    # to D10 and D11 peak at 0.37 and 0.35 times that, so nothing of the
    # matrix's size is built beside it
    circuit, state, traced = reduced_n4_loop()
    out = evolve(state, compile(circuit, dict.fromkeys(circuit.parameters,
                                                       0.0), circuit.toggles))
    rho = DensityMatrix(dict(density_from_pure(out).entries),
                        range(circuit.mode_count))
    assert len(rho.basis_array) == 170
    _expansion_plan.cache_clear()
    for _ in range(2):
        reduced, peak = traced_peak(rho, traced)
        assert peak < rho.matrix_array.nbytes / 2
    assert reduced.allclose(partial_trace(density_from_pure(out), traced),
                            1e-12)


def test_a_phase_loop_plans_its_trace_once(seed=61):
    circuit, state, traced = reduced_n4_loop()
    rng = np.random.default_rng(seed)
    _expansion_plan.cache_clear()
    for k in range(5):
        phases = {p: rng.uniform(0, 2 * math.pi) for p in circuit.parameters}
        rho = density_from_pure(
            evolve(state, compile(circuit, phases, tuple(circuit.toggles))))
        before = _expansion_plan.cache_info()
        reduced = partial_trace(rho, traced)
        after = _expansion_plan.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (
            (1, 0) if k == 0 else (0, 1))
        if k == 0:
            first = reduced
        assert np.array_equal(reduced.basis_array, first.basis_array)
    # one expansion plan and one trace plan
    assert _expansion_plan.cache_info().currsize == 2


def test_each_traced_set_basis_and_nested_trace_gets_its_own_plan(seed=62):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    rho = density_from_pure(evolve(embed(basis_state((2, 1)), 4, (0, 1)), u))
    other = density_from_pure(evolve(embed(basis_state((1, 1)), 4, (0, 1)), u))
    # the same basis as a whole matrix, which shares rho's plans
    mapped = DensityMatrix(dict(rho.entries), rho.modes)
    assert np.array_equal(mapped.basis_array, rho.basis_array)
    _expansion_plan.cache_clear()
    traces = [lambda: partial_trace(rho, [3]),
              lambda: partial_trace(rho, [2, 3]),
              lambda: partial_trace(other, [3]),
              lambda: partial_trace(mapped, [3]),
              lambda: partial_trace(partial_trace(rho, [3]), [2])]
    for trace in traces:
        trace()
    # the mapped trace and the nested trace's first step hit the plan of
    # the first trace
    info = _expansion_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 2, 4)
    for trace in traces:
        trace()
    info = _expansion_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 8, 4)


def test_trace_plan_arrays_are_read_only(seed=63):
    rng = np.random.default_rng(seed)
    state = embed(basis_state((2, 1)), 4, (0, 1))
    rho = density_from_pure(evolve(state, random_unitary(rng, 4)))
    mapped = DensityMatrix(dict(rho.entries), rho.modes)
    for density in (rho, mapped, partial_trace(rho, [3])):
        entries = density.entries
        *arrays, count = _trace_plan(entries.basis, (0, 1))
        assert count > 0
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0


def test_a_mapping_built_trace_plan_counts_its_key_bytes():
    # the plan of the 330-ket braced_4 output holds arrays of its kets, not
    # of its 330 x 330 entries, and its key no mask
    circuit, state, traced = reduced_n4_loop()
    phases = {p: 0.3 * (k + 1) for k, p in enumerate(circuit.parameters)}
    out = evolve(state, compile(circuit, phases, tuple(circuit.toggles)))
    rho = DensityMatrix(dict(density_from_pure(out).entries), range(24))
    assert len(rho.basis_array) == 330
    partial_trace(rho, traced)
    _expansion_plan.cache_clear()
    tracemalloc.start()
    try:
        cold = partial_trace(rho, traced)
        del cold
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    info = _expansion_plan.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.nbytes < 330 * 330
    assert 0.9 * retained < info.nbytes < 1.1 * retained
