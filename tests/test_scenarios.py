"""Tests for fringe scans, engineered inputs, and scenario classification."""

import dataclasses
import gc
import json
import math
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, BeamSplitterCoeffs, Circuit, CircuitElement,
                   CircuitError,
                   DegenerateStateError, DetectionPattern, DimensionMismatchError, FockState,
                   FringeScan, NonUnitaryError, PhotonCountError,
                   UnclassifiableScanError, UnknownDetectorError, basis_state, braced,
                   bs_unitary,
                   classify_table1, compile, delayed_choice_variant, embed,
                   engineered_input, evolve, inner_product, noon_target,
                   one_photon_each_input, pattern_probability, preset,
                   run_scan, run_triple, transition_amplitude)
from mzsim import optics, reference, scenarios
from mzsim.circuit import PRESET_NAMES, _compile_grid, preset_fig2
from mzsim.fock import _common_rows
from mzsim.measurement import pattern_masks
from mzsim.optics import (ROW_CUTOFF, _build_plan, _evolve_grid,
                          _expansion_plan, _restrict_plan)
from mzsim.scenarios import _fit_samples, _probabilities, _scan_values
from strategies import (occupations, occupied_rows, random_unitary,
                        superpositions, swept_circuits)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def eraser_projector():
    """Tap-side superposition whose projection revives the outer fringes."""
    occ_a = [0] * 12
    occ_a[6] = occ_a[10] = 1
    occ_b = [0] * 12
    occ_b[7] = occ_b[10] = 1
    return FockState({tuple(occ_a): INV_SQRT2, tuple(occ_b): -1j * INV_SQRT2}, 12)


# ---------------------------------------------------------------------------
# fitting

PHIS = np.linspace(0, 4 * math.pi, 128, endpoint=False)


def cosine_harmonics(mean, *terms, k=6):
    """Harmonics h_0 .. h_{k-1} of mean + sum of amplitude cos(f phi + offset),
    as the one-row (1 x k) array one scan's fit takes."""
    harmonics = np.zeros((1, k), dtype=complex)
    harmonics[0, 0] = mean
    for amplitude, f, offset in terms:
        harmonics[0, f] += 0.5 * amplitude * np.exp(1j * offset)
    return harmonics


def test_fit_recovers_a_known_cosine():
    (scan,) = _fit_samples("phi", PHIS, cosine_harmonics(0.5, (0.25, 2, 0.3)))
    assert abs(scan.mean - 0.5) < 1e-12
    assert abs(scan.amplitude - 0.25) < 1e-12
    assert scan.spatial_frequency == 2.0
    assert abs(scan.phase_offset - 0.3) < 1e-12
    assert abs(scan.visibility - 0.5) < 1e-12
    assert scan.residual < 1e-12
    values = np.array([v for _, v in scan.samples])
    assert np.allclose(values, 0.5 + 0.25 * np.cos(2 * PHIS + 0.3),
                       rtol=0, atol=1e-12)


def test_fit_takes_any_single_harmonic_and_rejects_two():
    # a pure fourth harmonic is what a four-photon NOON fringe looks like
    (scan,) = _fit_samples("phi", PHIS, cosine_harmonics(0.5, (0.3, 4, 0.0)))
    assert scan.spatial_frequency == 4.0
    assert abs(scan.amplitude - 0.3) < 1e-12
    with pytest.raises(UnclassifiableScanError):
        _fit_samples("phi", PHIS,
                     cosine_harmonics(0.5, (0.3, 2, 0.0), (0.1, 4, 1.0)))
    # the bounds scale with the scan's mean: a weak scan is read the same way
    (weak,) = _fit_samples("phi", PHIS, cosine_harmonics(1e-8, (1e-8, 3, 0.5)))
    assert weak.spatial_frequency == 3.0 and abs(weak.visibility - 1) < 1e-12
    with pytest.raises(UnclassifiableScanError):
        _fit_samples("phi", PHIS,
                     cosine_harmonics(1e-8, (3e-9, 2, 0.0), (1e-9, 4, 1.0)))


def test_flat_scan_reports_frequency_zero():
    (scan,) = _fit_samples("phi", PHIS, cosine_harmonics(0.125, (1e-9, 3, 0.5)))
    assert scan.spatial_frequency == 0.0
    assert scan.amplitude == 0.0 and scan.visibility == 0.0
    assert scan.classify() == "flat"
    (dark,) = _fit_samples("phi", PHIS, cosine_harmonics(0.0))
    assert dark.visibility == 0.0 and dark.spatial_frequency == 0.0


def test_classification_thresholds():
    def scan_with_visibility(v):
        return FringeScan("phi", ((0.0, 0.5),), 0.5, 0.5 * v, 1.0, 0.0, v, 0.0)
    assert scan_with_visibility(0.95).classify() == "fringes"
    assert scan_with_visibility(0.005).classify() == "flat"
    assert scan_with_visibility(0.5).classify() == "ambiguous"


@pytest.mark.parametrize("reflectance", [1e-4, 1e-6, 1e-8])
def test_a_weak_fringe_is_still_a_fringe(reflectance):
    # the README's fig2 sweep with weak taps: the fringe shrinks with the
    # tap's reflectance but keeps its frequency and unit visibility
    tap = BeamSplitterCoeffs.from_angle(math.asin(math.sqrt(reflectance)))
    c = preset_fig2(tap)
    scan = run_scan(c, ("BS2",), one_photon_each_input(c),
                    DetectionPattern({"D6": 1, "D10": 1}), "phi_C",
                    {"phi_B": 0.4, "phi_S": 1.1})
    assert abs(scan.mean / reflectance - 0.5) < 1e-3
    assert scan.classify() == "fringes" and scan.spatial_frequency == 2.0
    assert abs(scan.visibility - 1.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(0.01, 1), st.floats(0, 1),
                          st.integers(1, 5), st.floats(-3, 3)),
                min_size=1, max_size=5))
def test_a_stack_of_scans_fits_as_each_scan_alone(scans):
    stack = np.concatenate([cosine_harmonics(mean, (mean * v, f, offset))
                            for mean, v, f, offset in scans])
    fits = _fit_samples("phi", PHIS, stack)
    assert len(fits) == len(scans)
    for row, fit in zip(stack, fits):
        (alone,) = _fit_samples("phi", PHIS, row[None])
        # the fit is read row by row; the samples come from one matmul
        assert dataclasses.replace(fit, samples=alone.samples) == alone
        assert np.allclose(fit.samples, alone.samples, rtol=0, atol=1e-15)


def test_an_unclassifiable_row_of_a_stack_names_its_own_residual():
    # the middle row carries a second harmonic whose cosine has rms
    # 0.03 / sqrt(2); the rows around it fit
    stack = np.concatenate([cosine_harmonics(0.5, (0.25, 2, 0.3)),
                            cosine_harmonics(0.4, (0.2, 1, 0.0), (0.03, 3, 1.0)),
                            cosine_harmonics(0.125)])
    with pytest.raises(UnclassifiableScanError,
                       match=f"strongest is {0.03 / math.sqrt(2):.3e}$"):
        _fit_samples("phi", PHIS, stack)
    assert len(_fit_samples("phi", PHIS, stack[[0, 2]])) == 2


def test_scan_serialization():
    phis = np.linspace(0, 4 * math.pi, 64, endpoint=False)
    (scan,) = _fit_samples("phi_B", phis, cosine_harmonics(0.25, (0.25, 1, 0.0)))
    doc = scan.to_json()
    assert doc["parameter"] == "phi_B"
    assert len(doc["samples"]) == 64
    assert abs(doc["fit"]["visibility"] - 1.0) < 1e-9
    lines = scan.to_csv().strip().splitlines()
    assert lines[0] == "phase,probability"
    phi, val = map(float, lines[1].split(","))
    assert phi == 0.0 and abs(val - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# scans of the preset layouts


def test_outer_coincidence_shows_unit_visibility_fringes():
    c = preset("fig1")
    scan = run_scan(c, (), one_photon_each_input(c),
                    DetectionPattern({"D10": 1, "D11": 1}), "phi_B",
                    {"phi_C": 0.35}, n_samples=128)
    assert scan.classify() == "fringes"
    assert scan.spatial_frequency == 2.0           # cos^2 oscillates twice per turn
    assert scan.visibility > 0.999
    assert abs(scan.mean - 0.125) < 1e-10          # |t1|^4 / 2 for balanced taps


def test_eraser_projection_halves_the_fringe_frequency():
    c = preset("fig1")
    direct = run_scan(c, (), one_photon_each_input(c),
                      DetectionPattern({"D10": 1, "D11": 1}), "phi_B",
                      {"phi_C": 0.0}, n_samples=128)
    erased = run_scan(c, (), one_photon_each_input(c), eraser_projector(),
                      "phi_B", {"phi_C": 0.0}, n_samples=128)
    assert erased.visibility > 0.999
    assert direct.spatial_frequency == 2.0
    assert erased.spatial_frequency == 0.5 * direct.spatial_frequency


def test_scan_validation():
    c = preset("fig1")
    state = one_photon_each_input(c)
    pattern = DetectionPattern({"D10": 1, "D11": 1})
    with pytest.raises(ValueError):
        run_scan(c, (), state, pattern, "phi_B", {"phi_C": 0.0}, n_samples=32)
    with pytest.raises(CircuitError,
                       match=r"parameters are \['phi_C', 'phi_B'\]"):
        run_scan(c, (), state, pattern, "phi_Q", {"phi_C": 0.0})
    with pytest.raises(CircuitError):
        run_scan(c, (), state, eraser_projector(), "phi_Q", {"phi_C": 0.0})
    with pytest.raises(ValueError):
        run_scan(c, (), state, eraser_projector(), "phi_B", {"phi_C": 0.0},
                 n_samples=10)
    # the CLI's sweep cap holds here too, and a count must be whole
    for n_samples in (scenarios.MAX_SWEEP_SAMPLES + 1, 64.5):
        with pytest.raises(ValueError, match="whole number of 64 to 100000"):
            run_scan(c, (), state, pattern, "phi_B", {"phi_C": 0.0},
                     n_samples=n_samples)


def test_a_scan_with_more_harmonics_than_fit_is_refused_before_compiling():
    # two photons through 1,672 delays on phi need K = 3,345 harmonics, one
    # past the bound: the (2K x K) sampling matrices would peak at 96 K^2
    # bytes, over EXPANSION_BYTES
    assert optics.MAX_HARMONICS == 3_344
    assert 96 * optics.MAX_HARMONICS ** 2 <= optics.EXPANSION_BYTES
    crossings = optics.MAX_HARMONICS // 2
    c = Circuit(2, (CircuitElement("bs", "B", (0, 1), BALANCED),
                    *(CircuitElement("phase", f"P{i}", (0,), param="phi")
                      for i in range(crossings))), {"D0": 0, "D1": 1})
    state = basis_state((1, 1))
    pattern = DetectionPattern({"D0": 2})
    message = "a scan of phi needs K = 3,345 harmonics; at most 3,344 fit"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            run_scan(c, (), state, pattern, "phi", {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


# ---------------------------------------------------------------------------
# the exact scan engine


def test_a_scan_evolves_once_per_harmonic(monkeypatch):
    # phi_C is crossed once and the input has two photons: one batched evolve
    # over K = 2 * 1 + 1 grid phases of the two occupied rows, and no evolve
    # per phase
    stacks, calls = [], []

    def counting_evolve_grid(state, unitaries, *args, **kwargs):
        stacks.append(np.shape(unitaries))
        return _evolve_grid(state, unitaries, *args, **kwargs)

    def counting_evolve(state, unitary):
        calls.append(1)
        return evolve(state, unitary)

    monkeypatch.setattr(scenarios, "_evolve_grid", counting_evolve_grid)
    monkeypatch.setattr(scenarios, "evolve", counting_evolve)
    c = preset("fig2")
    scan = run_scan(c, ("BS2",), one_photon_each_input(c),
                    DetectionPattern({"D6": 1, "D10": 1}), "phi_C",
                    {"phi_B": 0.4, "phi_S": 1.1})
    assert stacks == [(3, 2, 12)]
    assert not calls
    assert len(scan.samples) == 256


def test_classify_table1_evolves_its_input_once(monkeypatch):
    # three configurations over two distinct toggle sets: one compile of
    # the input's two occupied rows for both sets, in the order the sets
    # first appear, and one batched evolve over the two grids stacked
    compiled, stacks = [], []

    def counting_compile_grid(circuit, phases, toggles=(), rows=None,
                              **family):
        compiled.append(([frozenset(s) for s in family["sets"]],
                         len(phases["phi_B"]), list(rows)))
        return _compile_grid(circuit, phases, toggles, rows, **family)

    def counting_evolve_grid(state, unitaries, *args, **kwargs):
        stacks.append(np.shape(unitaries))
        return _evolve_grid(state, unitaries, *args, **kwargs)

    monkeypatch.setattr(scenarios, "_compile_grid", counting_compile_grid)
    monkeypatch.setattr(scenarios, "_evolve_grid", counting_evolve_grid)
    reports = classify_table1(3)
    toggles = {frozenset(r.toggles) for r in reports}
    assert toggles == {frozenset({"BS2", "BS2p"}), frozenset({"BS2p"})}
    # K = 3 photons x 1 crossing + 1 per set
    assert compiled == [([frozenset({"BS2", "BS2p"}), frozenset({"BS2p"})],
                         4, [0, 1])]
    assert stacks == [(8, 2, 18)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_row_block_is_the_whole_compiles_rows_and_scans_alike(data):
    # a grid compile of some rows equals those rows of the whole compile,
    # and a scan on the input's rows gives the harmonics of the same scan
    # on the occupied rows read off whole matrices
    circuit, enabled = data.draw(swept_circuits())
    m = circuit.mode_count
    k = data.draw(st.integers(1, 4))
    grid = {p: np.array(data.draw(st.lists(st.floats(-10, 10), min_size=k,
                                           max_size=k)))
            for p in circuit.parameters}
    rows = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m)))
    whole = _compile_grid(circuit, grid, enabled)
    block = _compile_grid(circuit, grid, enabled, rows)
    assert block.shape == (k, len(rows), m)
    assert np.array_equal(block, whole[:, rows])

    state = data.draw(superpositions(m, data.draw(st.integers(1, 3))))
    listed = data.draw(occupations(m, state.total_photons))
    pattern = DetectionPattern({f"D{j}": c for j, c in enumerate(listed) if c})
    scans = [(enabled, [pattern, data.draw(superpositions(
        m, state.total_photons))])]
    fixed = {"psi": data.draw(st.floats(0, 2 * math.pi))}
    (got,) = _scan_values(circuit, state, "phi", fixed, scans)

    def whole_compile(circuit, phases, toggles=(), rows=None, **family):
        return _compile_grid(circuit, phases, toggles, **family)[:, rows]

    with unittest.mock.patch.object(scenarios, "_compile_grid",
                                    whole_compile):
        (want,) = _scan_values(circuit, state, "phi", fixed, scans)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stacked_scans_match_one_scan_per_toggle_set(data):
    # any element may be toggled, and is on in the second set only: a
    # splitter, a swap or a delay, the swept one included, so the sets may
    # cross "phi" a different number of times.  The set () is passed twice
    # and evolved once.  A stacked scan's K can exceed a set's own, so the
    # probabilities are compared at sample phases, not the raw harmonics
    circuit, enabled = data.draw(swept_circuits())
    toggled = data.draw(st.sampled_from(
        [e.name for e in circuit.elements if e.name not in enabled]))
    circuit = Circuit(circuit.mode_count, circuit.elements, circuit.detectors,
                      circuit.toggles | {toggled})
    m = circuit.mode_count
    photons = data.draw(st.integers(1, 3))
    state = data.draw(superpositions(m, photons))
    projector = data.draw(superpositions(m, photons))
    listed = data.draw(occupations(m, photons))
    pattern = DetectionPattern({f"D{k}": c for k, c in enumerate(listed) if c})
    fixed = {"psi": data.draw(st.floats(0, 2 * math.pi))}
    phis = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=1,
                                       max_size=4)))
    scans = [(enabled, [pattern]), ((*enabled, toggled), [projector, pattern]),
             (enabled, [projector])]
    stacked = _scan_values(circuit, state, "phi", fixed, scans)
    assert [len(got) for got in stacked] == [1, 2, 1]
    assert len({got.shape[1] for got in stacked}) == 1
    for scan, got in zip(scans, stacked):
        (alone,) = _scan_values(circuit, state, "phi", fixed, [scan])
        assert got.shape[1] >= alone.shape[1]
        assert np.max(np.abs(_probabilities(got, phis)
                             - _probabilities(alone, phis))) < 1e-12


def test_sets_that_differ_in_a_delay_or_a_swap_scan_as_each_set_alone():
    # toggle sets of one call may differ in any element: the delay P adds a
    # crossing of phi, so K is set by the set that holds it, and the swap S
    # exchanges the modes the pattern reads.  Each set's probabilities are
    # its own scan's
    circuit = Circuit(2, (CircuitElement("bs", "B", (0, 1), BALANCED),
                          CircuitElement("phase", "P", (0,), param="phi"),
                          CircuitElement("phase", "Q", (0,), param="phi"),
                          CircuitElement("bs", "C", (0, 1), BALANCED),
                          CircuitElement("swap", "S", (0, 1))),
                      {"D0": 0, "D1": 1}, frozenset({"B", "P", "S"}))
    state = basis_state((1, 1))
    pattern = DetectionPattern({"D0": 2})
    phis = np.linspace(0, 4 * math.pi, 9)
    scans = [(("B",), [pattern]), (("B", "P"), [pattern]),
             (("B", "S"), [pattern]), ((), [pattern])]
    stacked = _scan_values(circuit, state, "phi", {}, scans)
    # K = 2 photons x 2 crossings (P and Q, in the set with P) + 1, shared
    assert [got.shape for got in stacked] == [(1, 5)] * 4
    fits = []
    for scan, got in zip(scans, stacked):
        (alone,) = _scan_values(circuit, state, "phi", {}, [scan])
        assert np.max(np.abs(_probabilities(got, phis)
                             - _probabilities(alone, phis))) < 1e-14
        (fit,) = _fit_samples("phi", phis, got)
        fits.append(fit)
    # one crossing by both photons fringes at 2 phi, two crossings at 4 phi
    assert [f.spatial_frequency for f in fits[:3]] == [2.0, 4.0, 2.0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_engine_samples_match_per_phase_evolution(data):
    circuit, enabled = data.draw(swept_circuits())
    m = circuit.mode_count
    photons = data.draw(st.integers(1, 3))
    state = data.draw(superpositions(m, photons))
    projector = data.draw(superpositions(m, photons))
    listed = data.draw(occupations(m, data.draw(st.integers(1, photons))))
    pattern = DetectionPattern({f"D{k}": c for k, c in enumerate(listed)
                                if c or data.draw(st.booleans())},
                               exclusive=data.draw(st.booleans()))
    psi = data.draw(st.floats(0, 2 * math.pi))
    phis = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=1,
                                       max_size=4)))

    (harmonics,) = _scan_values(
        circuit, state, "phi", {"psi": psi}, [(enabled, [pattern, projector])])
    got_pattern, got_projector = _probabilities(harmonics, phis)
    for phi, p, q in zip(phis, got_pattern, got_projector):
        out = evolve(state, compile(circuit, {"phi": float(phi), "psi": psi},
                                    enabled))
        assert abs(p - pattern_probability(out, pattern,
                                           circuit.detectors)) < 1e-12
        assert abs(q - abs(inner_product(projector, out)) ** 2) < 1e-12

    # the batched expansion at one grid phase against the permanent oracle
    crossings = sum(1 for e in circuit.elements if e.param == "phi"
                    and (e.name not in circuit.toggles or e.name in enabled))
    k = photons * crossings + 1
    grid = 2 * math.pi * np.arange(k) / k
    kets, amplitudes = _evolve_grid(
        state, _compile_grid(circuit, {"phi": grid, "psi": psi}, enabled,
                             state._occupied_modes()))
    step = data.draw(st.integers(0, k - 1))
    u = compile(circuit, {"phi": float(grid[step]), "psi": psi}, enabled)
    for ket, amplitude in zip(kets.tolist(), amplitudes[step]):
        expected = sum(a * transition_amplitude(u, occ, ket)
                       for occ, a in state.items())
        assert abs(amplitude - expected) < 1e-12
    assert abs(np.linalg.norm(amplitudes[step]) - 1.0) < 1e-12


def full_evolve_harmonics(circuit, state, swept, fixed, toggles, readouts):
    """A scan's harmonics from every output ket: the input evolved through
    the K grid phases with no read set, each ket's K-point DFT, and each
    readout's gram summed along its diagonals."""
    crossings = sum(1 for e in circuit.enabled(toggles)
                    if e.kind == "phase" and e.param == swept)
    k = state.total_photons * crossings + 1
    steps = np.arange(k)
    phases = dict(fixed)
    phases[swept] = 2 * math.pi * steps / k
    kets, values = _evolve_grid(
        state, occupied_rows(state, _compile_grid(circuit, phases, toggles)))
    psi = values.T @ (np.exp(-2j * math.pi * np.outer(steps, steps) / k) / k)
    harmonics = []
    for readout in readouts:
        if isinstance(readout, FockState):
            found, rows = _common_rows(readout.occupation_array, kets)
            series = readout.amplitude_array[found].conj()[None, :] @ psi[rows]
        else:
            (mask,) = pattern_masks([readout], circuit.detectors, kets,
                                    state.total_photons)
            series = psi[mask]
        gram = series.conj().T @ series
        harmonics.append([np.trace(gram, offset=f) for f in steps])
    return np.array(harmonics)


def per_phase_harmonics(circuit, state, swept, fixed, toggles, readouts):
    """Each readout's h_f = sum_{l - j = f} <psi_j| Pi |psi_l>, f = 0 .. K-1:
    the input evolved by ``evolve`` at each of the K grid phases, psi_j the
    K-point DFT of those states, and Pi the pattern's diagonal, read off
    each ket's counts, or the projector."""
    crossings = sum(1 for e in circuit.enabled(toggles)
                    if e.kind == "phase" and e.param == swept)
    k = state.total_photons * crossings + 1
    steps = np.arange(k)
    outs = [evolve(state, compile(circuit, {**fixed, swept: 2 * math.pi * j / k},
                                  toggles)) for j in steps]
    kets = sorted({ket for out in outs for ket in out.occupations()})
    psi = (np.exp(-2j * math.pi * np.outer(steps, steps) / k) / k
           @ np.array([[out[ket] for ket in kets] for out in outs]))
    harmonics = []
    for readout in readouts:
        if isinstance(readout, FockState):
            series = psi @ np.array([readout[ket] for ket in kets]).conj()
            gram = np.outer(series.conj(), series)
        else:
            listed = readout.resolve(circuit.detectors)
            quiet = set(circuit.detectors.values()) - set(listed)
            picked = [all(ket[mode] == c for mode, c in listed.items())
                      and not (readout.exclusive and any(ket[q] for q in quiet))
                      for ket in kets]
            gram = psi[:, picked].conj() @ psi[:, picked].T
        harmonics.append([np.trace(gram, offset=f) for f in steps])
    return np.array(harmonics)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_scan_harmonics_are_the_gram_sums_of_per_phase_evolves(data):
    # a random swept circuit, the same with its delays toggled off (K = 1),
    # or |1,1> through delays and a balanced splitter, whose |1,1> output
    # is read by the coincidence pattern and pruned at every phase
    case = data.draw(st.sampled_from(("crossed", "uncrossed", "pruned")))
    if case == "pruned":
        m, photons = data.draw(st.integers(2, 3)), 2
        delays = tuple(CircuitElement("phase", f"P{i}", (0,), param="phi")
                       for i in range(data.draw(st.integers(1, 2))))
        circuit = Circuit(m, delays + (CircuitElement("bs", "B", (0, 1),
                                                      BALANCED),),
                          {f"D{k}": k for k in range(m)})
        state, enabled = basis_state((1, 1) + (0,) * (m - 2)), ()
    else:
        circuit, enabled = data.draw(swept_circuits())
        m, photons = circuit.mode_count, data.draw(st.integers(1, 3))
        state = data.draw(superpositions(m, photons))
        if case == "uncrossed":
            delays = frozenset(e.name for e in circuit.elements
                               if e.param == "phi")
            circuit = Circuit(m, circuit.elements, circuit.detectors, delays)
            enabled = ()
    readouts = [data.draw(superpositions(m, photons))]
    for exclusive in (True, False):
        listed = data.draw(occupations(m, data.draw(st.integers(0, photons))))
        readouts.append(DetectionPattern(
            {f"D{k}": c for k, c in enumerate(listed)
             if c or data.draw(st.booleans())}, exclusive=exclusive))
    if case == "pruned":
        readouts.append(DetectionPattern({"D0": 1, "D1": 1}))
    fixed = {"psi": data.draw(st.floats(0, 2 * math.pi))}

    (got,) = _scan_values(circuit, state, "phi", fixed, [(enabled, readouts)])
    want = per_phase_harmonics(circuit, state, "phi", fixed, enabled, readouts)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12
    if case == "uncrossed":
        assert got.shape[1] == 1
    if case == "pruned":
        assert not np.any(got[-1]) and not np.any(want[-1])


def projector_on(data, outputs, circuit):
    """A normalized projector on one or two output kets and one drawn ket."""
    photons = sum(outputs[0])
    kets = data.draw(st.lists(st.sampled_from(outputs), min_size=1, max_size=2,
                              unique=True))
    drawn = data.draw(occupations(circuit.mode_count, photons))
    amps = {occ: complex(data.draw(st.floats(0.1, 1)), data.draw(st.floats(-1, 1)))
            for occ in {*kets, drawn}}
    return FockState(amps, circuit.mode_count).normalized()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_scan_reading_few_kets_gives_the_full_evolve_harmonics(data):
    # two scans of a preset, each under its own toggles, with random
    # patterns, a pattern no ket matches and projectors partly on output
    # kets: the restricted expansion reads only what they select
    circuit = preset(data.draw(st.sampled_from(PRESET_NAMES)))
    photons = data.draw(st.integers(1, 3))
    state = embed(data.draw(superpositions(2, photons)), circuit.mode_count,
                  (0, 1))
    swept = data.draw(st.sampled_from(sorted(circuit.parameters)))
    fixed = {p: data.draw(st.floats(0, 2 * math.pi))
             for p in circuit.parameters if p != swept}
    toggles = sorted(circuit.toggles)
    names = sorted(circuit.detectors)
    u = compile(circuit, {p: 0.5 for p in circuit.parameters}, toggles)
    outputs = evolve(state, u).occupations()
    scans = []
    for _ in range(2):
        enabled = tuple(data.draw(st.lists(st.sampled_from(toggles), unique=True))
                        if toggles else ())
        readouts = [DetectionPattern({}), projector_on(data, outputs, circuit)]
        for _ in range(data.draw(st.integers(1, 3))):
            listed = data.draw(st.lists(st.sampled_from(names), max_size=photons))
            readouts.append(DetectionPattern(
                {name: listed.count(name) for name in listed},
                exclusive=data.draw(st.booleans())))
        scans.append((enabled, data.draw(st.permutations(readouts))))
    got = _scan_values(circuit, state, swept, fixed, scans)
    for (enabled, readouts), harmonics in zip(scans, got):
        want = full_evolve_harmonics(circuit, state, swept, fixed, enabled,
                                     readouts)
        assert harmonics.shape == want.shape
        assert np.max(np.abs(harmonics - want)) < 1e-14
        unmatched = readouts.index(DetectionPattern({}))
        assert not np.any(harmonics[unmatched])


def test_evolving_a_read_set_gives_the_read_rows_of_the_full_evolve(seed=53):
    # |1,1> into a balanced splitter leaves no |1,1>, so one read ket is
    # pruned at every grid phase, and reads 0 as in the full evolve
    rng = np.random.default_rng(seed)
    hom = FockState({(1, 1, 0): 1.0})
    splitter = bs_unitary(BALANCED, 0, 1, 3)
    states = [(hom, np.stack([splitter, splitter])),
              (FockState({(2, 1, 0, 0): 0.6, (0, 1, 1, 1): 0.8j}),
               np.stack([random_unitary(rng, 4) for _ in range(3)]))]
    states = [(state, occupied_rows(state, stack)) for state, stack in states]
    hom_kets, hom_values = _evolve_grid(*states[0])
    dark = hom_kets.tolist().index([1, 1, 0])
    assert np.array_equal(hom_values[:, dark], np.zeros(2))
    for state, stack in states:
        full_kets, full = _evolve_grid(state, stack)
        for read in (np.ones(len(full_kets), dtype=bool),
                     np.zeros(len(full_kets), dtype=bool),
                     rng.random(len(full_kets)) < 0.5):
            got_kets, got = _evolve_grid(state, stack, lambda kets, key: read)
            assert np.array_equal(got_kets, full_kets[read])
            assert np.array_equal(got, full[:, read])
            assert not (got_kets.flags.writeable or full_kets.flags.writeable)


def test_select_runs_once_and_sees_every_reachable_ket(seed=54):
    # select sees the kets of the full evolve, read-only and in
    # lexicographic order: every ket some phase reaches, and the |1,1> that
    # interference empties at every phase
    rng = np.random.default_rng(seed)
    splitter = bs_unitary(BALANCED, 0, 1, 3)
    cases = [(FockState({(1, 1, 0): 1.0}), np.stack([splitter, splitter])),
             (FockState({(2, 1, 0, 0): 0.6, (0, 1, 1, 1): 0.8j}),
              np.stack([random_unitary(rng, 4) for _ in range(3)]))]
    for state, stack in cases:
        rows = occupied_rows(state, stack)
        seen = []

        def select(kets, key):
            seen.append((kets, key))
            return np.ones(len(kets), dtype=bool)

        _evolve_grid(state, rows, select)
        ((kets, key),) = seen
        # the full plan's key, under which the plan cache keeps that plan
        assert key == (state.occupation_array.shape,
                       state.occupation_array.tobytes(),
                       (np.abs(rows) > ROW_CUTOFF).any(axis=0).tobytes())
        assert not kets.flags.writeable
        assert kets.tolist() == sorted(kets.tolist())
        assert np.array_equal(kets, _evolve_grid(state, rows)[0])
        reached = {ket for u in stack for ket in evolve(state, u).occupations()}
        assert reached <= set(map(tuple, kets.tolist()))
        if len(state) == 1:
            assert (1, 1, 0) in set(map(tuple, kets.tolist())) - reached


def test_a_scan_whose_read_ket_is_pruned_reads_it_as_zero():
    # a delay before a balanced splitter: |1,1> comes out with amplitude 0
    # at every phase, so the coincidence pattern reads a pruned ket
    circuit = Circuit(2, (CircuitElement("phase", "P", (0,), param="phi"),
                          CircuitElement("bs", "B", (0, 1), BALANCED)),
                      {"Da": 0, "Db": 1})
    state = basis_state((1, 1))
    coincidence = DetectionPattern({"Da": 1, "Db": 1})
    bunched = DetectionPattern({"Da": 2})
    (harmonics,) = _scan_values(circuit, state, "phi", {},
                                [((), [coincidence, bunched])])
    want = full_evolve_harmonics(circuit, state, "phi", {}, (),
                                 [coincidence, bunched])
    assert np.array_equal(harmonics[0], np.zeros(3))
    assert np.max(np.abs(harmonics - want)) < 1e-15
    assert abs(harmonics[1, 0] - 0.5) < 1e-15


def test_a_non_unitary_scan_reports_its_unknown_detector_first():
    # the readouts are checked before the stack's unitarity: the pattern's
    # error wins over the splitter rounded to 7 digits (2.5e-7 from unitary)
    rounded = BeamSplitterCoeffs(0.7071067, 0.7071067j)
    circuit = Circuit(2, (CircuitElement("phase", "P", (0,), param="phi"),
                          CircuitElement("bs", "B", (0, 1), rounded)),
                      {"Da": 0, "Db": 1})
    state = basis_state((1, 1))
    with pytest.raises(NonUnitaryError):
        run_scan(circuit, (), state, DetectionPattern({"Da": 1}), "phi", {})
    with pytest.raises(UnknownDetectorError):
        run_scan(circuit, (), state, DetectionPattern({"Dx": 1}), "phi", {})


def test_a_warm_non_unitary_scan_reports_its_readout_faults_first():
    # the first scan keeps its full plan and read set, then fails the
    # unitarity check; later scans on that kept plan still check their own
    # readouts first, and a repeat of the first reads its read set cached
    rounded = BeamSplitterCoeffs(0.7071067, 0.7071067j)
    circuit = Circuit(2, (CircuitElement("phase", "P", (0,), param="phi"),
                          CircuitElement("bs", "B", (0, 1), rounded)),
                      {"Da": 0, "Db": 1})
    state = basis_state((1, 1))
    _expansion_plan.cache_clear()
    with pytest.raises(NonUnitaryError):
        run_scan(circuit, (), state, DetectionPattern({"Da": 1}), "phi", {})
    warm = _expansion_plan.cache_info()
    assert (warm.misses, warm.currsize) == (2, 2)
    with pytest.raises(UnknownDetectorError):
        run_scan(circuit, (), state, DetectionPattern({"Dx": 1}), "phi", {})
    with pytest.raises(DimensionMismatchError, match="mode counts"):
        run_scan(circuit, (), state, basis_state((1, 1, 0)), "phi", {})
    with pytest.raises(NonUnitaryError):
        run_scan(circuit, (), state, DetectionPattern({"Da": 1}), "phi", {})
    info = _expansion_plan.cache_info()
    # the full plan hit on every call; only the two bad read sets missed
    assert (info.hits, info.misses, info.currsize) == (
        warm.hits + 4, warm.misses + 2, 2)


def test_projectors_on_the_same_kets_keep_their_own_overlaps():
    # two projectors that differ only in their amplitudes key two read
    # sets: the second scan does not read the first one's overlaps
    c = preset("fig1")
    state = one_photon_each_input(c)
    eraser = reference.eraser_projector()
    rotated = FockState({occ: amp * 1j ** k for k, (occ, amp) in
                         enumerate(eraser.items())}, 12)
    assert [occ for occ, _ in rotated.items()] == [
        occ for occ, _ in eraser.items()]
    _expansion_plan.cache_clear()
    got = [_scan_values(c, state, "phi_B", {"phi_C": 0.4},
                        [((), [projector])])[0]
           for projector in (eraser, rotated, eraser)]
    assert _expansion_plan.cache_info().misses == 4
    want = [full_evolve_harmonics(c, state, "phi_B", {"phi_C": 0.4}, (),
                                  [projector])
            for projector in (eraser, rotated)]
    assert np.max(np.abs(want[0] - want[1])) > 0.05
    for harmonics, expected in zip(got, want + want[:1]):
        assert np.max(np.abs(harmonics - expected)) < 1e-15
    assert got[2].tobytes() == got[0].tobytes()


def test_an_empty_read_set_gives_zero_harmonics():
    c = preset("fig2")
    state = one_photon_each_input(c)
    elsewhere = FockState({(1,) + (0,) * 10 + (1,): 1.0}, 12)
    (harmonics,) = _scan_values(c, state, "phi_C", {"phi_B": 0.4, "phi_S": 1.1},
                                [(("BS2",), [DetectionPattern({}), elsewhere])])
    assert harmonics.shape == (2, 3) and not np.any(harmonics)
    scan = run_scan(c, ("BS2",), state, DetectionPattern({}), "phi_C",
                    {"phi_B": 0.4, "phi_S": 1.1})
    assert scan.classify() == "flat" and scan.mean == 0.0


def test_an_over_photon_pattern_warns_once_per_scan():
    c = preset("fig2")
    state = one_photon_each_input(c)
    over = DetectionPattern({"D6": 3})
    scans = [(("BS2",), [over, DetectionPattern({"D6": 1, "D10": 1})]),
             ((), [DetectionPattern({"D6": 1})])]
    _expansion_plan.cache_clear()
    for call in ("cold", "warm"):
        # the warm call reads its read set from the plan cache
        misses = _expansion_plan.cache_info().misses
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = _scan_values(
                c, state, "phi_C", {"phi_B": 0.4, "phi_S": 1.1}, scans)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert not np.any(results[0][0]) and np.any(results[0][1])
        assert (_expansion_plan.cache_info().misses == misses) == (
            call == "warm")


def test_an_over_photon_pattern_warns_at_the_callers_line():
    # the warning names the first frame outside the package, so a direct
    # read and a scan both point at this file
    c = preset("fig1")
    state = one_photon_each_input(c)
    phases = {"phi_C": 0.3, "phi_B": 0.2}
    over = DetectionPattern({"D10": 3})
    with pytest.warns(RuntimeWarning, match="identically zero") as caught:
        pattern_probability(evolve(state, compile(c, phases)), over,
                            c.detectors)
    assert [w.filename for w in caught] == [__file__]
    for call in ("cold", "warm"):
        # the second scan reads its read set from the plan cache
        with pytest.warns(RuntimeWarning, match="identically zero") as caught:
            run_scan(c, (), state, over, "phi_C", {"phi_B": 0.2})
        assert [w.filename for w in caught] == [__file__]


def test_a_scan_keeps_its_restricted_plan_in_the_plan_cache():
    # the full plan, the readouts' read set and the plan's restriction to
    # it: three misses, then the same scan again hits all three, and the
    # byte count holds all three
    c = preset("fig2")
    state = one_photon_each_input(c)
    scan = [(("BS2",), [DetectionPattern({"D6": 1, "D10": 1})])]
    _expansion_plan.cache_clear()
    first = _scan_values(c, state, "phi_C", {"phi_B": 0.4, "phi_S": 1.1}, scan)
    info = _expansion_plan.cache_info()
    assert (info.misses, info.currsize) == (3, 3)
    again = _scan_values(c, state, "phi_C", {"phi_B": 0.4, "phi_S": 1.1}, scan)
    info_again = _expansion_plan.cache_info()
    assert info_again.misses == 3 and info_again.hits == info.hits + 3
    assert info_again.nbytes == info.nbytes > 0
    assert np.array_equal(first[0], again[0])


def test_a_call_builds_each_full_plan_once_when_no_plan_is_kept(monkeypatch):
    # with a budget nothing fits, every lookup misses; the restriction is
    # still made from the full plan the scan's select already had
    built, restricted = [], []

    def build(inputs, needed):
        built.append((inputs.shape, inputs.tobytes(), needed.tobytes()))
        return _build_plan(inputs, needed)

    def restrict(plan, read):
        restricted.append(len(plan.occupations))
        return _restrict_plan(plan, read)

    monkeypatch.setattr(_expansion_plan, "budget", 1)
    monkeypatch.setattr(optics, "_build_plan", build)
    monkeypatch.setattr(optics, "_restrict_plan", restrict)
    _expansion_plan.cache_clear()
    classify_table1(3)
    # the stack's plan, once: the NOON target needs no plan of its own
    assert len(set(built)) == len(built) == 1
    assert len(restricted) == 1
    assert _expansion_plan.cache_info().currsize == 0


def test_classify_table1_evolves_the_noon_target_after_bs1(monkeypatch):
    # BS1 maps the engineered input onto the NOON target on its two arms,
    # so one scan evolves the target's 2 kets through the stack after BS1,
    # and no evolve builds the engineered input.  At five photons 4,004
    # terms reach 2,002 kets, and 990 of them feed the 495 read kets; the
    # engineered input's 6 kets through the whole stack took 8,568 and 1,820
    states, plans = [], []

    def recording_evolve_grid(state, stack, select=None):
        states.append(state)
        return _evolve_grid(state, stack, select)

    def recording_restrict(plan, read):
        plans.append((plan, _restrict_plan(plan, read)))
        return plans[-1][1]

    def no_evolve(*args):
        raise AssertionError("classify_table1 called evolve")

    monkeypatch.setattr(scenarios, "_evolve_grid", recording_evolve_grid)
    monkeypatch.setattr(scenarios, "evolve", no_evolve)
    monkeypatch.setattr(optics, "_restrict_plan", recording_restrict)
    _expansion_plan.cache_clear()
    classify_table1(5)
    (state,) = states
    want = embed(noon_target(5), 30, (0, 1))
    assert len(state) == 2
    assert state.occupation_array.tobytes() == want.occupation_array.tobytes()
    assert state.amplitude_array.tobytes() == want.amplitude_array.tobytes()
    ((full, restricted),) = plans
    assert (len(full.weights), len(full.occupations)) == (4004, 2002)
    assert (len(restricted.weights), len(restricted.occupations)) == (990, 495)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_table1_scans_as_the_engineered_input_through_braced(n):
    # the route through the whole stack, kept as an oracle: the same
    # classifications and frequencies, every other field and sample within
    # rounding
    circuit = braced(n)
    state = embed(engineered_input(noon_target(n)), circuit.mode_count,
                  (0, 1))
    fixed = {p: 0.0 for p in circuit.parameters}
    for report in classify_table1(n):
        got = report.scan
        want = run_scan(circuit, report.toggles, state, report.pattern,
                        "phi_B", fixed, 64)
        assert report.classification == got.classify() == want.classify()
        assert got.parameter == want.parameter
        assert got.spatial_frequency == want.spatial_frequency
        for field in ("mean", "amplitude", "phase_offset", "visibility",
                      "residual"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-14
        assert [p for p, _ in got.samples] == [p for p, _ in want.samples]
        assert max(abs(a - b) for (_, a), (_, b)
                   in zip(got.samples, want.samples)) <= 1e-14


def test_a_scan_keeps_no_sampling_matrices_past_the_plan_budget():
    # one photon crossing K - 1 delays on one mode scans with K harmonics,
    # and a pair of (2K x K) sampling matrices holds 64 K^2 bytes: 5.5 and
    # 15.3 MiB at K = 300 and 500, past PLAN_CACHE_BYTES, so each pair is
    # used once and not kept.  A small pair is kept
    def scan(k):
        circuit = Circuit(1, tuple(
            CircuitElement("phase", f"P{i}", (0,), param="phi")
            for i in range(k - 1)), {"D0": 0})
        return run_scan(circuit, (), basis_state((1,)),
                        DetectionPattern({"D0": 1}), "phi", {}, 64)

    assert scenarios._sampling(6) is scenarios._sampling(6)
    gc.collect()
    tracemalloc.start()
    try:
        for k in (300, 500):
            assert scan(k).visibility == 0.0
        _expansion_plan.cache_clear()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2 ** 20


# ---------------------------------------------------------------------------
# engineered inputs


def test_engineered_input_round_trips_through_the_splitter():
    for target in (basis_state((2, 0)), noon_target(2), noon_target(3),
                   FockState({(1, 2): 0.6, (3, 0): 0.8j})):
        source = engineered_input(target)
        forward = evolve(source, bs_unitary(BALANCED, 0, 1, 2))
        assert forward.allclose(target, tol=1e-12)
        assert abs(source.norm() - 1.0) < 1e-12


def test_engineered_input_validation():
    with pytest.raises(DimensionMismatchError):
        engineered_input(basis_state((1, 0, 0)))
    with pytest.raises(DegenerateStateError):
        engineered_input(FockState({(2, 0): 0.5}, 2))


def test_noon_target():
    s = noon_target(4)
    assert abs(s[(4, 0)] - INV_SQRT2) < 1e-15
    assert abs(s[(0, 4)] - INV_SQRT2) < 1e-15
    assert len(s) == 2
    with pytest.raises(ValueError):
        noon_target(0)
    # built from arrays, equal to the state built from a mapping
    for n in range(1, 6):
        assert noon_target(n) == FockState({(n, 0): INV_SQRT2,
                                            (0, n): INV_SQRT2})
    # a count past one byte or not whole raises, and does not wrap
    for n in (256, 2.5, "2", -1, None):
        with pytest.raises(PhotonCountError):
            noon_target(n)


def test_one_photon_each_input():
    c = preset("fig3")
    state = one_photon_each_input(c)
    assert state.mode_count == 18
    occ = [0] * 18
    occ[0] = occ[1] = 1
    assert state[tuple(occ)] == 1.0


def test_triple_coincidence_over_arrays_matches_one_call_per_phase_set():
    rng = np.random.default_rng(71)
    c = preset("fig3")
    toggles = ("BS2", "BS2p")
    phases = {p: rng.uniform(0, 2 * math.pi, 5) for p in c.parameters}
    phases["phi_Sp"] = 0.4                      # a float mixes with arrays
    got = run_triple(c, toggles, phases)
    assert got.shape == (5,)
    state = embed(engineered_input(noon_target(3)), c.mode_count, (0, 1))
    triple = DetectionPattern({"D6p": 1, "D6": 1, "D10": 1})
    for k, value in enumerate(got):
        at_k = {p: v if np.ndim(v) == 0 else float(v[k])
                for p, v in phases.items()}
        one = run_triple(c, toggles, at_k)
        assert isinstance(one, float)
        assert abs(value - one) < 1e-14
        # the pattern read per phase from its own evolve, pruned alone
        out = evolve(state, compile(c, at_k, toggles))
        assert abs(one - pattern_probability(out, triple, c.detectors)) < 1e-15


def test_triple_coincidence_rejects_phase_arrays_that_do_not_line_up():
    c = preset("fig3")
    toggles = ("BS2", "BS2p")
    fixed = {"phi_S": 0.0, "phi_Sp": 0.0}
    for phases, named in (
            ({"phi_C": np.zeros(3), "phi_B": np.zeros(4)},
             "phi_C of shape (3,), phi_B of shape (4,)"),
            ({"phi_C": np.zeros(0), "phi_B": 0.0}, "phi_C of shape (0,)"),
            ({"phi_C": np.zeros((2, 2)), "phi_B": np.zeros(2)},
             "phi_C of shape (2, 2), phi_B of shape (2,)")):
        with pytest.raises(DimensionMismatchError) as caught:
            run_triple(c, toggles, {**phases, **fixed})
        assert named in str(caught.value)


def test_triple_coincidence_at_the_crest():
    c = preset("fig3")
    toggles = ("BS2", "BS2p")
    crest = {"phi_C": math.pi / 6, "phi_B": 0.0, "phi_S": 0.0, "phi_Sp": 0.0}
    assert abs(run_triple(c, toggles, crest) - 3 / 64) < 1e-12
    trough = {"phi_C": -math.pi / 6, "phi_B": 0.0, "phi_S": 0.0, "phi_Sp": 0.0}
    assert run_triple(c, toggles, trough) < 1e-12


# ---------------------------------------------------------------------------
# delayed choice and conditioning


def test_delayed_choice_reordering_leaves_the_unitary_unchanged(seed=47):
    rng = np.random.default_rng(seed)
    c = preset("fig2")
    late = delayed_choice_variant(c, "BS2")
    assert late.elements[-1].name == "BS2"
    assert [e.name for e in late.elements] != [e.name for e in c.elements]
    for _ in range(5):
        phases = {p: float(rng.uniform(0, 2 * math.pi)) for p in c.parameters}
        assert np.allclose(compile(c, phases, ("BS2",)),
                           compile(late, phases, ("BS2",)))
    with pytest.raises(KeyError):
        delayed_choice_variant(c, "BS99")


def test_conditioning_on_a_tap_click_follows_the_product_rule():
    # P(D6 and D10) = P(D6) * P(D10 given D6), with the conditional state
    # built by keeping only the kets where the tap detector fired
    c = preset("fig1")
    out = evolve(one_photon_each_input(c),
                 compile(c, {"phi_C": 0.3, "phi_B": 1.2}))
    joint = pattern_probability(out, DetectionPattern({"D6": 1, "D10": 1}),
                                c.detectors)
    marginal = pattern_probability(out, DetectionPattern({"D6": 1},
                                                         exclusive=False),
                                   c.detectors)
    kept = {occ: a for occ, a in out.items() if occ[6] == 1}
    conditional = FockState(kept, out.mode_count).normalized()
    cond_prob = pattern_probability(conditional,
                                    DetectionPattern({"D10": 1},
                                                     exclusive=False),
                                    c.detectors)
    assert abs(joint - marginal * cond_prob) < 1e-12


# ---------------------------------------------------------------------------
# classification


def test_classify_table1_validation():
    with pytest.raises(ValueError):
        classify_table1(2)
    with pytest.raises(ValueError):
        classify_table1(6)
    # a whole float is a count, as in an occupation; 2.5 and "3" are not
    assert ([r.to_json() for r in classify_table1(4.0)]
            == [r.to_json() for r in classify_table1(4)])
    for n in (2.5, "3"):
        with pytest.raises(ValueError):
            classify_table1(n)


def test_classify_table1_structure_for_three_photons():
    # three configurations; the cooperating one lists one tap detector fewer,
    # so it scans one marginal order fewer
    reports = classify_table1(3)
    assert len(reports) == 8
    ids = [r.scenario for r in reports]
    assert ids[0] == "photons-3/all-erased/order-1"
    assert ids[2] == "photons-3/all-erased/order-3"
    assert ids[-2] == "photons-3/cooperating-outer-stages/order-1"
    assert ids[-1] == "photons-3/cooperating-outer-stages/order-3"
    assert len(set(ids)) == 8
    for r in reports:
        assert r.classification in ("fringes", "flat")
        doc = json.loads(r.to_json_str())
        assert doc["scenario"] == r.scenario
        assert doc["classification"] == r.classification
        assert doc["scan"]["fit"]["visibility"] == r.scan.visibility
    erased_full = reports[2]
    assert erased_full.classification == "fringes"
    assert not erased_full.which_path_available
    marked_orders = [r for r in reports
                     if "innermost-distinguishing" in r.scenario]
    assert all(r.classification == "flat" for r in marked_orders)
    assert all(r.which_path_available for r in marked_orders)
