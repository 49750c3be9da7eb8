"""Tests for fringe scans, engineered inputs, and scenario classification."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, CircuitError, DegenerateStateError,
                   DetectionPattern, DimensionMismatchError, FockState,
                   FringeScan,
                   UnclassifiableScanError, basis_state, bs_unitary,
                   classify_table1, compile, delayed_choice_variant,
                   engineered_input, evolve, inner_product, noon_target,
                   one_photon_each_input, pattern_probability, preset,
                   run_projection_scan, run_scan, run_triple,
                   transition_amplitude)
from mzsim import scenarios
from mzsim.circuit import _compile_grid
from mzsim.optics import _evolve_grid
from mzsim.scenarios import _fit_samples, _probabilities, _scan_values
from strategies import occupations, superpositions, swept_circuits

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
    """Harmonics h_0 .. h_{k-1} of mean + sum of amplitude cos(f phi + offset)."""
    harmonics = np.zeros(k, dtype=complex)
    harmonics[0] = mean
    for amplitude, f, offset in terms:
        harmonics[f] += 0.5 * amplitude * np.exp(1j * offset)
    return harmonics


def test_fit_recovers_a_known_cosine():
    scan = _fit_samples("phi", PHIS, cosine_harmonics(0.5, (0.25, 2, 0.3)))
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
    scan = _fit_samples("phi", PHIS, cosine_harmonics(0.5, (0.3, 4, 0.0)))
    assert scan.spatial_frequency == 4.0
    assert abs(scan.amplitude - 0.3) < 1e-12
    with pytest.raises(UnclassifiableScanError):
        _fit_samples("phi", PHIS,
                     cosine_harmonics(0.5, (0.3, 2, 0.0), (0.1, 4, 1.0)))


def test_flat_scan_reports_frequency_zero():
    scan = _fit_samples("phi", PHIS, cosine_harmonics(0.125, (1e-9, 3, 0.5)))
    assert scan.spatial_frequency == 0.0
    assert scan.amplitude == 0.0 and scan.visibility == 0.0
    assert scan.classify() == "flat"


def test_classification_thresholds():
    def scan_with_visibility(v):
        return FringeScan("phi", ((0.0, 0.5),), 0.5, 0.5 * v, 1.0, 0.0, v, 0.0)
    assert scan_with_visibility(0.95).classify() == "fringes"
    assert scan_with_visibility(0.005).classify() == "flat"
    assert scan_with_visibility(0.5).classify() == "ambiguous"


def test_scan_serialization():
    phis = np.linspace(0, 4 * math.pi, 64, endpoint=False)
    scan = _fit_samples("phi_B", phis, cosine_harmonics(0.25, (0.25, 1, 0.0)))
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


def test_marked_cross_coincidence_is_flat():
    c = preset("fig1")
    scan = run_scan(c, (), one_photon_each_input(c),
                    DetectionPattern({"D6": 1, "D10": 1}), "phi_B",
                    {"phi_C": 0.35}, n_samples=64)
    assert scan.classify() == "flat"
    assert abs(scan.mean - 0.125) < 1e-10          # |t1 r1|^2 / 2


def test_eraser_projection_halves_the_fringe_frequency():
    c = preset("fig1")
    direct = run_scan(c, (), one_photon_each_input(c),
                      DetectionPattern({"D10": 1, "D11": 1}), "phi_B",
                      {"phi_C": 0.0}, n_samples=128)
    erased = run_projection_scan(c, (), one_photon_each_input(c),
                                 eraser_projector(), "phi_B",
                                 {"phi_C": 0.0}, n_samples=128)
    assert erased.visibility > 0.999
    assert direct.spatial_frequency == 2.0
    assert erased.spatial_frequency == 0.5 * direct.spatial_frequency


def test_closed_inner_interferometer_doubles_the_common_delay_frequency():
    c = preset("fig2")
    scan = run_scan(c, ("BS2",), one_photon_each_input(c),
                    DetectionPattern({"D6": 1, "D10": 1}), "phi_C",
                    {"phi_B": 0.4, "phi_S": 1.1}, n_samples=128)
    assert scan.spatial_frequency == 2.0
    assert scan.visibility > 0.999


def test_scan_validation():
    c = preset("fig1")
    state = one_photon_each_input(c)
    pattern = DetectionPattern({"D10": 1, "D11": 1})
    with pytest.raises(ValueError):
        run_scan(c, (), state, pattern, "phi_B", {"phi_C": 0.0}, n_samples=32)
    with pytest.raises(CircuitError):
        run_scan(c, (), state, pattern, "phi_Q", {"phi_C": 0.0})
    with pytest.raises(CircuitError):
        run_projection_scan(c, (), state, eraser_projector(), "phi_Q",
                            {"phi_C": 0.0})
    with pytest.raises(ValueError):
        run_projection_scan(c, (), state, eraser_projector(), "phi_B",
                            {"phi_C": 0.0}, n_samples=10)


# ---------------------------------------------------------------------------
# the exact scan engine


def test_a_scan_evolves_once_per_harmonic(monkeypatch):
    # phi_C is crossed once and the input has two photons: one batched evolve
    # over K = 2 * 1 + 1 grid phases, and no evolve per phase
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
    assert stacks == [(3, 12, 12)]
    assert not calls
    assert len(scan.samples) == 256


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

    by_pattern, by_projector = _scan_values(
        circuit, enabled, state, [pattern, projector], "phi", {"psi": psi})
    got_pattern = _probabilities(by_pattern, phis)
    got_projector = _probabilities(by_projector, phis)
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
        state, _compile_grid(circuit, {"phi": grid, "psi": psi}, enabled))
    step = data.draw(st.integers(0, k - 1))
    u = compile(circuit, {"phi": float(grid[step]), "psi": psi}, enabled)
    for ket, amplitude in zip(kets.tolist(), amplitudes[step]):
        expected = sum(a * transition_amplitude(u, occ, ket)
                       for occ, a in state.items())
        assert abs(amplitude - expected) < 1e-12
    assert abs(np.linalg.norm(amplitudes[step]) - 1.0) < 1e-12


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


def test_one_photon_each_input():
    c = preset("fig3")
    state = one_photon_each_input(c)
    assert state.mode_count == 18
    occ = [0] * 18
    occ[0] = occ[1] = 1
    assert state[tuple(occ)] == 1.0


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
