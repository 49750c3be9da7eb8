"""Acceptance checks for the shipped interferometer layouts.

One test per headline behavior; pytest -v prints one pass or fail line for
each.  Expected values come from mzsim.reference, whose closed forms are
derived by hand and share no computation code with the evolution engine.
"""

import cmath
import itertools
import math
from collections import Counter

import numpy as np

import mzsim.reference as ref
from mzsim import (BALANCED, BeamSplitterCoeffs, DetectionPattern,
                   basis_state, bs_unitary, classify_table1,
                   coincidence_from_density, compile, density_from_pure,
                   embed, engineered_input, evolve, inner_product,
                   mean_photon_number, noon_target, one_photon_each_input,
                   partial_trace, pattern_probability, phase_unitary, preset,
                   preset_fig1, preset_fig2, run_projection_scan, run_scan,
                   run_triple, swap_unitary, transition_amplitude,
                   PRESET_NAMES)
from mzsim.scenarios import _fit_samples, _scan_values

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def random_tap(rng):
    return BeamSplitterCoeffs.from_angle(float(rng.uniform(0.2, math.pi / 2 - 0.2)))


def assert_equal_up_to_global_phase(state, expected, tol):
    anchor = max(expected.occupations(), key=lambda occ: abs(expected[occ]))
    phase = state[anchor] / expected[anchor]
    assert abs(abs(phase) - 1.0) < tol
    assert state.allclose(expected * phase, tol=tol)


def test_criterion_01_photon_pair_bunches_at_a_balanced_splitter():
    out = evolve(basis_state((1, 1)), bs_unitary(BALANCED, 0, 1, 2))
    assert abs(out[(2, 0)] - 1j * INV_SQRT2) < 1e-12
    assert abs(out[(0, 2)] - 1j * INV_SQRT2) < 1e-12
    assert abs(out[(1, 1)]) < 1e-12
    assert out.allclose(ref.hom_pair_output(), tol=1e-12)


def test_criterion_02_marked_paths_keep_outer_fringes_and_flatten_the_cross():
    rng = np.random.default_rng(202601)
    pattern_outer = DetectionPattern({"D10": 1, "D11": 1})
    pattern_cross = DetectionPattern({"D6": 1, "D10": 1})
    for _ in range(50):
        tap = random_tap(rng)
        phi_c, phi_b = rng.uniform(0, 2 * math.pi, size=2)
        c = preset_fig1(tap)
        out = evolve(one_photon_each_input(c),
                     compile(c, {"phi_C": phi_c, "phi_B": phi_b}))
        got = pattern_probability(out, pattern_outer, c.detectors)
        assert abs(got - ref.outer_coincidence(tap.t, phi_c, phi_b)) < 1e-10
    # the tap-to-outer coincidence stays pinned at |t1 r1|^2 / 2 across a sweep
    tap = random_tap(rng)
    c = preset_fig1(tap)
    state = one_photon_each_input(c)
    expected = ref.cross_coincidence_monitored(tap.t, tap.r)
    phi_c = float(rng.uniform(0, 2 * math.pi))
    worst = 0.0
    for phi_b in np.linspace(0, 4 * math.pi, 256, endpoint=False):
        out = evolve(state, compile(c, {"phi_C": phi_c, "phi_B": float(phi_b)}))
        got = pattern_probability(out, pattern_cross, c.detectors)
        worst = max(worst, abs(got - expected))
    assert worst < 1e-10


def test_criterion_03_eraser_projection_revives_fringes_at_half_frequency():
    c = preset("fig1")
    state = one_photon_each_input(c)
    direct = run_scan(c, (), state, DetectionPattern({"D10": 1, "D11": 1}),
                      "phi_B", {"phi_C": 0.0}, n_samples=256)
    projected = run_projection_scan(c, (), state, ref.eraser_projector(),
                                    "phi_B", {"phi_C": 0.0}, n_samples=256)
    assert projected.visibility > 0.999
    assert projected.spatial_frequency == 0.5 * direct.spatial_frequency
    assert abs(projected.mean - 0.125) < 1e-10         # |t1 r1|^2 / 2
    # projection probabilities match the closed form at random draws
    rng = np.random.default_rng(202602)
    for _ in range(20):
        tap = random_tap(rng)
        phi_c, phi_b = rng.uniform(0, 2 * math.pi, size=2)
        cc = preset_fig1(tap)
        out = evolve(one_photon_each_input(cc),
                     compile(cc, {"phi_C": phi_c, "phi_B": phi_b}))
        got = abs(inner_product(ref.eraser_projector(), out)) ** 2
        assert abs(got - ref.eraser_projection(tap.t, tap.r, phi_c, phi_b)) < 1e-10


def test_criterion_04_closed_inner_interferometer_coincidences():
    rng = np.random.default_rng(202603)
    inner = DetectionPattern({"D6": 1, "D7": 1})
    cross = DetectionPattern({"D6": 1, "D10": 1})
    for _ in range(50):
        tap = random_tap(rng)
        phi_c, phi_b, phi_s = rng.uniform(0, 2 * math.pi, size=3)
        c = preset_fig2(tap)
        out = evolve(one_photon_each_input(c),
                     compile(c, {"phi_C": phi_c, "phi_B": phi_b,
                                 "phi_S": phi_s}, ("BS2",)))
        got_inner = pattern_probability(out, inner, c.detectors)
        got_cross = pattern_probability(out, cross, c.detectors)
        assert abs(got_inner
                   - ref.inner_coincidence_erased(tap.r, phi_c, phi_s)) < 1e-10
        assert abs(got_cross - ref.cross_coincidence_erased(
            tap.t, tap.r, phi_c, phi_b, phi_s)) < 1e-10
    # the common delay drives the cross coincidence at doubled frequency:
    # the scan fits mean * (1 + cos(2 phi_C - phi_B - phi_S))
    c = preset("fig2")
    phi_b, phi_s = (float(x) for x in rng.uniform(0, 2 * math.pi, size=2))
    scan = run_scan(c, ("BS2",), one_photon_each_input(c), cross, "phi_C",
                    {"phi_B": phi_b, "phi_S": phi_s}, n_samples=256)
    assert scan.spatial_frequency == 2.0
    assert scan.visibility > 0.999
    assert abs(cmath.exp(1j * scan.phase_offset)
               - cmath.exp(-1j * (phi_b + phi_s))) < 1e-9


def test_criterion_05_two_photon_output_states_match_the_closed_forms():
    rng = np.random.default_rng(202604)
    for _ in range(20):
        tap = random_tap(rng)
        phi_c, phi_b, phi_s = rng.uniform(0, 2 * math.pi, size=3)
        c1 = preset_fig1(tap)
        out1 = evolve(one_photon_each_input(c1),
                      compile(c1, {"phi_C": phi_c, "phi_B": phi_b}))
        assert out1.allclose(
            ref.pair_output_monitored(tap.t, tap.r, phi_c, phi_b), tol=1e-10)
        c2 = preset_fig2(tap)
        out2 = evolve(one_photon_each_input(c2),
                      compile(c2, {"phi_C": phi_c, "phi_B": phi_b,
                                   "phi_S": phi_s}, ("BS2",)))
        assert out2.allclose(
            ref.pair_output_erased(tap.t, tap.r, phi_c, phi_b, phi_s),
            tol=1e-10)


def test_criterion_06_engineered_inputs_round_trip_and_defeat_every_scan():
    splitter = bs_unitary(BALANCED, 0, 1, 2)
    pair = engineered_input(basis_state((2, 0)))
    assert_equal_up_to_global_phase(pair, ref.engineered_pair_input(), 1e-12)
    assert evolve(pair, splitter).allclose(basis_state((2, 0)), tol=1e-12)
    noon3 = engineered_input(noon_target(3))
    assert_equal_up_to_global_phase(noon3, ref.engineered_noon3_input(), 1e-12)
    assert evolve(noon3, splitter).allclose(ref.noon3_target(), tol=1e-12)
    # feeding the pair into the closed layout gives the fixed state whose
    # squared amplitudes never depend on any delay
    c = preset("fig2")
    state = embed(pair, c.mode_count, (0, 1))
    zero = {p: 0.0 for p in c.parameters}
    out = evolve(state, compile(c, zero, ("BS2",)))
    assert out.allclose(ref.engineered_pair_output(BALANCED.t, BALANCED.r),
                        tol=1e-12)
    patterns = [DetectionPattern(counts) for counts in (
        {"D6": 2}, {"D7": 2}, {"D6": 1, "D7": 1}, {"D10": 2}, {"D11": 2},
        {"D10": 1, "D11": 1}, {"D6": 1, "D10": 1}, {"D6": 1, "D11": 1},
        {"D7": 1, "D10": 1}, {"D7": 1, "D11": 1})]
    for swept in c.parameters:
        fixed = {p: 0.3 for p in c.parameters if p != swept}
        phis = np.linspace(0.0, 4 * math.pi, 64, endpoint=False)
        (by_pattern,) = _scan_values(c, state, swept, fixed,
                                     [(("BS2",), patterns)])
        for harmonics in by_pattern:
            scan = _fit_samples(swept, phis, harmonics)
            assert scan.visibility < 1e-6


def test_criterion_07_triple_coincidence_follows_the_three_photon_closed_form():
    rng = np.random.default_rng(202605)
    c = preset("fig3")
    toggles = ("BS2", "BS2p")
    for _ in range(50):
        phi_c, phi_b, phi_s, phi_sp = rng.uniform(0, 2 * math.pi, size=4)
        phases = {"phi_C": phi_c, "phi_B": phi_b, "phi_S": phi_s,
                  "phi_Sp": phi_sp}
        expected = ref.triple_coincidence(BALANCED.t, BALANCED.r, BALANCED.t,
                                          BALANCED.r, phi_c, phi_b, phi_s,
                                          phi_sp)
        assert abs(run_triple(c, toggles, phases) - expected) < 1e-10
    # with the innermost closing splitter removed the coincidence goes flat
    state = embed(engineered_input(noon_target(3)), c.mode_count, (0, 1))
    pattern = DetectionPattern({"D6p": 1, "D6": 1, "D10": 1})
    for swept in c.parameters:
        fixed = {p: 0.4 for p in c.parameters if p != swept}
        scan = run_scan(c, ("BS2",), state, pattern, swept, fixed,
                        n_samples=64)
        assert scan.visibility < 1e-6


def test_criterion_08_reduced_outer_state_is_blind_to_the_tap_wiring():
    rng = np.random.default_rng(202606)
    outer_pair = DetectionPattern({"D10": 1, "D11": 1})
    arm_modes = list(range(10))
    for _ in range(20):
        tap = random_tap(rng)
        phi_c, phi_b, phi_s = rng.uniform(0, 2 * math.pi, size=3)
        c1 = preset_fig1(tap)
        out1 = evolve(one_photon_each_input(c1),
                      compile(c1, {"phi_C": phi_c, "phi_B": phi_b}))
        rho1 = partial_trace(density_from_pure(out1), arm_modes)
        assert rho1.modes == (10, 11)
        expected = ref.reduced_outer_entries(tap.t, tap.r, phi_c, phi_b)
        keys = set(rho1.entries) | set(expected)
        for key in keys:
            assert abs(rho1.entries.get(key, 0j) - expected.get(key, 0j)) < 1e-10
        # the closed inner interferometer leaves the very same reduced state
        c2 = preset_fig2(tap)
        out2 = evolve(one_photon_each_input(c2),
                      compile(c2, {"phi_C": phi_c, "phi_B": phi_b,
                                   "phi_S": phi_s}, ("BS2",)))
        rho2 = partial_trace(density_from_pure(out2), arm_modes)
        assert rho2.allclose(rho1, tol=1e-10)
        # number operator products on the reduced state recover the
        # coincidence and the phase independent singles rate
        got = coincidence_from_density(rho1, outer_pair, c1.detectors)
        assert abs(got - ref.outer_coincidence(tap.t, phi_c, phi_b)) < 1e-10
        singles = mean_photon_number(rho1, 10)
        assert abs(singles - ref.outer_singles_rate(tap.t, tap.r)) < 1e-10


def test_criterion_09_permanent_amplitudes_match_the_evolution_engine():
    rng = np.random.default_rng(202607)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        u = np.eye(m, dtype=complex)
        for _ in range(int(rng.integers(3, 9))):
            kind = rng.choice(("bs", "phase", "swap"))
            a, b = rng.choice(m, size=2, replace=False)
            if kind == "bs":
                coeffs = BeamSplitterCoeffs.from_angle(
                    float(rng.uniform(0, 2 * math.pi)),
                    float(rng.uniform(0, 2 * math.pi)),
                    int(rng.choice((-1, 1))))
                u = u @ bs_unitary(coeffs, int(a), int(b), m)
            elif kind == "phase":
                u = u @ phase_unitary(int(a), float(rng.uniform(0, 2 * math.pi)), m)
            else:
                u = u @ swap_unitary(int(a), int(b), m)
        n = int(rng.integers(1, 5))
        n_in = [0] * m
        for mode in rng.integers(0, m, size=n):
            n_in[mode] += 1
        n_in = tuple(n_in)
        out = evolve(basis_state(n_in), u)
        for n_out in out.occupations():
            assert abs(out[n_out] - transition_amplitude(u, n_in, n_out)) < 1e-9
        for _ in range(3):
            probe = [0] * m
            for mode in rng.integers(0, m, size=n):
                probe[mode] += 1
            probe = tuple(probe)
            assert abs(out[probe] - transition_amplitude(u, n_in, probe)) < 1e-9


def test_criterion_10_multi_stage_classification_has_no_misses():
    for n in (3, 4, 5):
        for report in classify_table1(n):
            _, config, order_part = report.scenario.split("/")
            order = int(order_part.removeprefix("order-"))
            if config == "innermost-distinguishing":
                expected = "flat"
            else:
                expected = "fringes" if order == n else "flat"
            assert report.classification == expected, report.scenario


def test_criterion_11_exclusive_patterns_always_sum_to_one():
    rng = np.random.default_rng(202608)

    def check(circuit, toggles, state):
        for _ in range(20):
            phases = {p: float(rng.uniform(0, 2 * math.pi))
                      for p in circuit.parameters}
            out = evolve(state, compile(circuit, phases, toggles))
            names = list(circuit.detectors)
            total = 0.0
            for combo in itertools.combinations_with_replacement(
                    names, state.total_photons):
                pattern = DetectionPattern(Counter(combo))
                total += pattern_probability(out, pattern, circuit.detectors)
            assert abs(total - 1.0) < 1e-10

    for name in PRESET_NAMES:
        circuit = preset(name)
        for k in range(len(circuit.toggles) + 1):
            for toggles in itertools.combinations(sorted(circuit.toggles), k):
                check(circuit, toggles, one_photon_each_input(circuit))
    fig3 = preset("fig3")
    noon3 = embed(engineered_input(noon_target(3)), fig3.mode_count, (0, 1))
    for toggles in ((), ("BS2",), ("BS2p",), ("BS2", "BS2p")):
        check(fig3, toggles, noon3)
