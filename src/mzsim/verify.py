"""Built-in verification suite: the one copy of the golden checks.

Each check recomputes a closed-form result through the full pipeline
(compile, evolve, measure) and compares against the independent expressions
in :mod:`mzsim.reference`; no other code in the repository makes those
comparisons.  ``mzsim --verify`` runs :data:`CHECKS` at the fixed seed
``_SEED``, and the tier-1 tests run every check under that seed and two
others, so the random taps and phases are drawn three times over.

The five checks on randomly tapped layouts read one shared draw: 20 random
taps with random phases.  The monitored and the erased layout are built
once each and compiled at all 20 taps in one call each, the taps given per
slice, and each layout family is evolved in one batched expansion.  The
draw is memoised by seed and rebuilt by every :func:`run_all`.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from . import reference as ref
from .circuit import (PRESET_NAMES, _compile_grid, compile, load_preset_file,
                      parse_circuit, preset, preset_fig1, preset_fig2,
                      preset_fig3, serialize)
from .fock import FockState, _trusted_state, basis_state, embed
from .measurement import (DetectionPattern, coincidence_from_density,
                          density_from_pure, mean_photon_number, partial_trace,
                          pattern_probability, projected_probability,
                          DensityMatrix)
from .optics import (BALANCED, BeamSplitterCoeffs, _evolve_grid, bs_unitary,
                     evolve, is_unitary, transition_amplitude)
from .scenarios import (MIN_SCAN_SAMPLES, _fit_samples, _scan_phases,
                        _scan_values, classify_table1, engineered_input,
                        noon_target, one_photon_each_input, run_scan,
                        run_triple)

_SEED = 20260823

#: Random taps (with their phases) in the shared draw.
_TAP_DRAWS = 20

#: A flat scan leaves at most this rms in its harmonics.
_FLAT_RESIDUAL = 1e-10


def _rng():
    return np.random.default_rng(_SEED)


def _random_tap(rng) -> BeamSplitterCoeffs:
    theta = rng.uniform(0.2, 1.35)
    return BeamSplitterCoeffs(math.cos(theta), 1j * math.sin(theta))


def _require(ok: bool, detail: str):
    if not ok:
        raise AssertionError(detail)


def _close(a, b, tol, what: str):
    err = abs(a - b)
    if not err <= tol:                  # the message is built on failure only
        raise AssertionError(f"{what}: |{a} - {b}| = {err:.3e} > {tol:g}")


def _require_flat(scan, max_visibility: float, what: str):
    """Flat to 1e-10 rms.  A fit reports visibility 0 whenever no harmonic
    exceeds its bound (``RESIDUAL_LIMIT`` times the mean); its residual
    bounds them all."""
    if not (scan.visibility < max_visibility
            and scan.residual < _FLAT_RESIDUAL):
        raise AssertionError(f"{what} should be flat, got "
                             f"vis={scan.visibility:.2e} "
                             f"residual={scan.residual:.2e}")


class _Draw(NamedTuple):
    """One random tap and phase set through the monitored (1) and erased (2)
    layouts: the compiled rows of the two input modes and the output of one
    photon per input."""

    tap: BeamSplitterCoeffs
    phi_c: float
    phi_b: float
    phi_s: float
    u1: np.ndarray
    u2: np.ndarray
    out1: FockState
    out2: FockState


def _draw_taps(rng) -> list[_Draw]:
    """Draw the taps and phases, compile the rows of the input modes of
    the monitored and the erased layout at every draw, one call per layout
    with the taps given per slice, and evolve each layout family in one
    expansion over its stack of rows."""
    params = [(_random_tap(rng), *rng.uniform(0, 2 * math.pi, 3))
              for _ in range(_TAP_DRAWS)]
    taps, pc, pb, ps = zip(*params)
    coeffs = {"BS4": taps, "BS5": taps}
    u1 = _compile_grid(preset_fig1(), {"phi_C": pc, "phi_B": pb}, (), (0, 1),
                       coeffs=coeffs)
    u2 = _compile_grid(preset_fig2(), {"phi_C": pc, "phi_B": pb, "phi_S": ps},
                       ("BS2",), (0, 1), coeffs=coeffs)
    inp = embed(basis_state((1, 1)), 12, (0, 1))
    outs = []
    for stack in (u1, u2):
        occupations, amplitudes = _evolve_grid(inp, stack)
        outs.append([_trusted_state(occupations, row, 12)
                     for row in amplitudes])
    return [_Draw(*p, *rest) for p, *rest in zip(params, u1, u2, *outs)]


_MEMO: dict[int, list[_Draw]] = {}


def _tapped_draws() -> list[_Draw]:
    """The shared draw of the current seed, built on first use."""
    if _SEED not in _MEMO:
        _MEMO[_SEED] = _draw_taps(_rng())
    return _MEMO[_SEED]


def expected_classification(scenario: str) -> str:
    """What the scenario table predicts for ``photons-n/<config>/order-k``.

    Only the full-order coincidence (k = n) shows fringes, and only while the
    innermost stage erases its marks.
    """
    photons, config, order = scenario.split("/")
    full = order.removeprefix("order-") == photons.removeprefix("photons-")
    if full and config != "innermost-distinguishing":
        return "fringes"
    return "flat"


# ---------------------------------------------------------------------------
# individual checks


def check_bunching_at_balanced_splitter():
    out = evolve(basis_state((1, 1)), bs_unitary(BALANCED, 0, 1, 2))
    _require(out.allclose(ref.hom_pair_output(), 1e-12),
             "two photons meeting on a balanced splitter must bunch")
    _close(abs(out[(1, 1)]), 0.0, 1e-12, "coincidence amplitude")


def check_row_coefficients():
    for d in _tapped_draws():
        t, r = d.tap.t, d.tap.r
        for layout, u, rows in (
                ("monitored", d.u1,
                 ref.rows_monitored_taps(t, r, d.phi_c, d.phi_b)),
                ("erased", d.u2,
                 ref.rows_erased_taps(t, r, d.phi_c, d.phi_b, d.phi_s))):
            for row, expected in enumerate(rows):
                for mode, coeff in expected.items():
                    _close(u[row, mode], coeff, 1e-12,
                           f"{layout} row {row} -> mode {mode}")


def check_toggle_removal_equivalence():
    rng = _rng()
    tap = _random_tap(rng)
    pc, pb = rng.uniform(0, 2 * math.pi, 2)
    off = compile(preset_fig2(tap=tap),
                  {"phi_C": pc, "phi_B": pb, "phi_S": 0.0}, ())
    base = compile(preset_fig1(tap=tap), {"phi_C": pc, "phi_B": pb})
    _require(np.max(np.abs(off - base)) < 1e-12,
             "disabling the closing splitter must reproduce the open layout")


def check_pair_output_states():
    for d in _tapped_draws():
        t, r = d.tap.t, d.tap.r
        _require(d.out1.allclose(
                     ref.pair_output_monitored(t, r, d.phi_c, d.phi_b), 1e-10),
                 "monitored-tap pair state mismatch")
        _require(d.out2.allclose(
                     ref.pair_output_erased(t, r, d.phi_c, d.phi_b, d.phi_s),
                     1e-10),
                 "erased-tap pair state mismatch")


def check_coincidence_values():
    fig1 = preset_fig1()
    detectors = fig1.detectors
    both_outer = DetectionPattern({"D10": 1, "D11": 1})
    cross = DetectionPattern({"D6": 1, "D10": 1})
    both_inner = DetectionPattern({"D6": 1, "D7": 1})
    for d in _tapped_draws():
        t, r, pc, pb, ps = d.tap.t, d.tap.r, d.phi_c, d.phi_b, d.phi_s
        _close(pattern_probability(d.out1, both_outer, detectors),
               ref.outer_coincidence(t, pc, pb), 1e-10, "outer coincidence")
        _close(pattern_probability(d.out1, cross, detectors),
               ref.cross_coincidence_monitored(t, r), 1e-10,
               "cross coincidence with monitored taps")
        _close(pattern_probability(d.out1, both_inner, detectors),
               0.0, 1e-12, "inner coincidence (antibunching)")
        _close(pattern_probability(d.out2, both_inner, detectors),
               ref.inner_coincidence_erased(r, pc, ps), 1e-10,
               "inner coincidence with erased taps")
        _close(pattern_probability(d.out2, cross, detectors),
               ref.cross_coincidence_erased(t, r, pc, pb, ps), 1e-10,
               "cross coincidence with erased taps")
    out = evolve(one_photon_each_input(fig1),
                 compile(fig1, {"phi_C": 0.7, "phi_B": 0.7}))
    _close(pattern_probability(out, both_outer, detectors), 0.25, 1e-12,
           "outer coincidence at zero arm imbalance")
    _close(pattern_probability(out, cross, detectors), 0.125, 1e-12,
           "cross coincidence with balanced monitored taps")


def check_eraser_projection():
    projector = ref.eraser_projector()
    for d in _tapped_draws():
        _close(projected_probability(d.out1, projector),
               ref.eraser_projection(d.tap.t, d.tap.r, d.phi_c, d.phi_b),
               1e-10, "eraser projection probability")


def check_frequency_halving():
    fig1, fig2 = preset_fig1(), preset_fig2()
    inp = one_photon_each_input(fig1)
    outer = run_scan(fig1, (), inp, DetectionPattern({"D10": 1, "D11": 1}),
                     "phi_B", {"phi_C": 0.4}, 128)
    _require(outer.spatial_frequency == 2.0 and outer.visibility > 0.999,
             f"outer coincidence should fit f=2, vis 1, got "
             f"f={outer.spatial_frequency} vis={outer.visibility:.4f}")
    _close(outer.mean, 0.125, 1e-10, "outer coincidence mean")
    erased = run_scan(fig2, ("BS2",), inp, DetectionPattern({"D6": 1, "D10": 1}),
                      "phi_B", {"phi_C": 0.4, "phi_S": 0.2}, 128)
    _require(erased.spatial_frequency == 1.0 and erased.visibility > 0.999,
             f"erased cross coincidence should fit f=1, got "
             f"f={erased.spatial_frequency} vis={erased.visibility:.4f}")
    projected = run_scan(fig1, (), inp, ref.eraser_projector(),
                         "phi_B", {"phi_C": 0.4}, 128)
    _require(projected.spatial_frequency == 1.0 and projected.visibility > 0.999,
             "projection-based erasure should halve the fitted frequency")
    _close(projected.mean, 0.125, 1e-10, "eraser projection mean")


def check_common_delay_sees_both_photons():
    pb, ps = _rng().uniform(0, 2 * math.pi, 2)
    fig2 = preset_fig2()
    scan = run_scan(fig2, ("BS2",), one_photon_each_input(fig2),
                    DetectionPattern({"D6": 1, "D10": 1}),
                    "phi_C", {"phi_B": pb, "phi_S": ps}, 128)
    _require(scan.spatial_frequency == 2.0 and scan.visibility > 0.999,
             "common-arm delay must fit f=2: both photons cross it")
    # the fringe goes as 1 + cos(2 phi_C - phi_B - phi_S)
    _close(cmath.exp(1j * scan.phase_offset), cmath.exp(-1j * (pb + ps)),
           1e-9, "common-delay fringe phase")


def check_monitored_cross_is_flat():
    rng = _rng()
    tap = _random_tap(rng)
    pc = rng.uniform(0, 2 * math.pi)
    cross = DetectionPattern({"D6": 1, "D10": 1})
    for circuit, fixed, expected in (
            (preset_fig1(), {"phi_C": 0.9}, 0.125),
            (preset_fig1(tap=tap), {"phi_C": pc},
             ref.cross_coincidence_monitored(tap.t, tap.r))):
        scan = run_scan(circuit, (), one_photon_each_input(circuit), cross,
                        "phi_B", fixed, 256)
        _require_flat(scan, 1e-10, "monitored cross coincidence")
        _close(scan.mean, expected, 1e-10, "monitored cross coincidence mean")
        worst = max(abs(value - expected) for _, value in scan.samples)
        _close(worst, 0.0, 1e-10, "monitored cross coincidence sample")


def check_engineered_pair():
    eng = engineered_input(basis_state((2, 0)))
    _require(eng.allclose(ref.engineered_pair_input(), 1e-12),
             "engineered pair input amplitudes")
    forward = evolve(eng, bs_unitary(BALANCED, 0, 1, 2))
    _require(forward.allclose(basis_state((2, 0)), 1e-12),
             "engineered pair must exit entirely on the upper arm")
    fig2 = preset_fig2()
    state = embed(eng, 12, (0, 1))
    out = evolve(state, compile(fig2, {p: 0.0 for p in fig2.parameters},
                                ("BS2",)))
    _require(out.allclose(ref.engineered_pair_output(BALANCED.t, BALANCED.r),
                          1e-12),
             "engineered pair output amplitudes")
    patterns = [DetectionPattern(Counter(pair)) for pair in
                itertools.combinations_with_replacement(fig2.detectors, 2)]
    phis = _scan_phases(MIN_SCAN_SAMPLES)
    for swept in fig2.parameters:
        fixed = {p: 0.3 for p in fig2.parameters if p != swept}
        (by_pattern,) = _scan_values(fig2, state, swept, fixed,
                                     [(("BS2",), patterns)])
        for pattern, scan in zip(patterns, _fit_samples(swept, phis, by_pattern)):
            _require_flat(scan, 1e-6, f"engineered pair "
                          f"{pattern.describe()} against {swept}")


def check_engineered_noon3():
    eng = engineered_input(noon_target(3))
    _require(eng.allclose(ref.engineered_noon3_input(), 1e-12),
             "engineered three-photon input amplitudes")
    forward = evolve(eng, bs_unitary(BALANCED, 0, 1, 2))
    _require(forward.allclose(ref.noon3_target(), 1e-12),
             "three-photon input must become the all-or-nothing superposition")


def check_triple_coincidence():
    rng = _rng()
    fig3 = preset_fig3()
    t1 = r1 = t1p = r1p = 1 / math.sqrt(2)
    draws = rng.uniform(0, 2 * math.pi, (20, 4))
    # the 20 draws, then the crest and the node of the fringe
    pc, pb, ps, psp = np.vstack([draws, [[math.pi / 6, 0.0, 0.0, 0.0],
                                         [-math.pi / 6, 0.0, 0.0, 0.0]]]).T
    *got, peak, node = run_triple(fig3, ("BS2", "BS2p"),
                                  {"phi_C": pc, "phi_B": pb, "phi_S": ps,
                                   "phi_Sp": psp})
    for value, phases in zip(got, draws):
        _close(value, ref.triple_coincidence(t1, r1, t1p, r1p, *phases),
               1e-10, "triple coincidence")
    _close(peak, 3 / 64, 1e-12, "triple coincidence at the crest")
    _close(node, 0.0, 1e-12, "triple coincidence at the node")


def check_triple_needs_both_erasers():
    fig3 = preset_fig3()
    state = embed(engineered_input(noon_target(3)), fig3.mode_count, (0, 1))
    pattern = DetectionPattern({"D6p": 1, "D6": 1, "D10": 1})
    # the other phases at zero and at a generic value, where no sin term of
    # a fixed phase vanishes
    for swept, value in itertools.product(fig3.parameters, (0.0, 0.4)):
        fixed = {p: value for p in fig3.parameters if p != swept}
        scan = run_scan(fig3, ("BS2",), state, pattern, swept, fixed, 96)
        _require_flat(scan, 1e-10, "with the outermost eraser removed the "
                                   f"triple count against {swept} "
                                   f"(others at {value})")


def check_reduced_state_blindness():
    detectors = preset_fig1().detectors
    traced = list(range(10))
    for d in _tapped_draws():
        t, r, pc, pb = d.tap.t, d.tap.r, d.phi_c, d.phi_b
        rho1 = partial_trace(density_from_pure(d.out1), traced)
        rho2 = partial_trace(density_from_pure(d.out2), traced)
        _require(rho1.modes == (10, 11),
                 f"reduced state kept modes {rho1.modes}, not (10, 11)")
        _require(rho1.allclose(rho2, 1e-10),
                 "reduced outer state must not reveal the tap wiring")
        expected = DensityMatrix(ref.reduced_outer_entries(t, r, pc, pb),
                                 (10, 11))
        _require(rho1.allclose(expected, 1e-10),
                 "reduced outer state entries mismatch")
        for ket, weight in ref.reduced_outer_diagonal(t, r, pc, pb).items():
            _close(rho1.entry(ket, ket).real, weight, 1e-10,
                   f"reduced diagonal weight at {ket}")
        _close(coincidence_from_density(
                   rho1, DetectionPattern({"D10": 1, "D11": 1}), detectors),
               ref.outer_coincidence(t, pc, pb), 1e-10,
               "coincidence from the reduced state")
        _close(mean_photon_number(rho1, 10), ref.outer_singles_rate(t, r),
               1e-10, "singles rate from the reduced state")


def check_exclusive_patterns_sum_to_one():
    rng = _rng()
    fig2 = preset_fig2()
    inp = one_photon_each_input(fig2)
    names = list(fig2.detectors)
    for toggles in ((), ("BS2",)):
        pc, pb, ps = rng.uniform(0, 2 * math.pi, 3)
        out = evolve(inp, compile(
            fig2, {"phi_C": pc, "phi_B": pb, "phi_S": ps}, toggles))
        total = 0.0
        for i, a in enumerate(names):
            for b in names[i:]:
                counts = {a: 1}
                counts[b] = counts.get(b, 0) + 1
                total += pattern_probability(
                    out, DetectionPattern(counts), fig2.detectors)
        _close(total, 1.0, 1e-10, "exclusive two-photon patterns must sum to 1")


def check_transition_amplitude_oracle():
    rng = _rng()
    for _ in range(10):
        m = int(rng.integers(2, 5))
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u, _ = np.linalg.qr(z)
        n_in = tuple(int(x) for x in rng.multinomial(3, np.ones(m) / m))
        state = evolve(basis_state(n_in), u)
        for n_out in list(state.occupations())[:6]:
            _close(state[n_out], transition_amplitude(u, n_in, n_out), 1e-9,
                   f"oracle disagreement at {n_in} -> {n_out}")


def check_preset_round_trips():
    for name in PRESET_NAMES:
        circ = preset(name)
        again = parse_circuit(serialize(circ))
        _require(again == circ, f"serialize/parse round trip failed: {name}")
    for name in ("fig1", "fig2", "fig3"):
        _require(load_preset_file(name) == preset(name),
                 f"shipped circuit file out of sync with preset: {name}")


def check_compiled_unitarity():
    rng = _rng()
    for name in PRESET_NAMES:
        circ = preset(name)
        phases = {p: float(v) for p, v in
                  zip(circ.parameters,
                      rng.uniform(0, 2 * math.pi, len(circ.parameters)))}
        for toggles in ((), tuple(sorted(circ.toggles))):
            _require(is_unitary(compile(circ, phases, toggles), 1e-10),
                     f"compiled {name} with toggles {toggles} not unitary")


def check_classification_matrix():
    for report in classify_table1(3):
        expected = expected_classification(report.scenario)
        _require(report.classification == expected,
                 f"{report.scenario}: expected {expected}, "
                 f"got {report.classification}")


CHECKS = (
    ("bunching-at-balanced-splitter", check_bunching_at_balanced_splitter),
    ("single-photon-row-coefficients", check_row_coefficients),
    ("toggle-removal-equivalence", check_toggle_removal_equivalence),
    ("two-photon-output-states", check_pair_output_states),
    ("coincidence-values", check_coincidence_values),
    ("eraser-projection", check_eraser_projection),
    ("frequency-halving", check_frequency_halving),
    ("common-delay-sees-both-photons", check_common_delay_sees_both_photons),
    ("monitored-cross-is-flat", check_monitored_cross_is_flat),
    ("engineered-pair", check_engineered_pair),
    ("engineered-three-photon-input", check_engineered_noon3),
    ("triple-coincidence", check_triple_coincidence),
    ("triple-needs-both-erasers", check_triple_needs_both_erasers),
    ("reduced-state-blindness", check_reduced_state_blindness),
    ("exclusive-patterns-sum-to-one", check_exclusive_patterns_sum_to_one),
    ("transition-amplitude-oracle", check_transition_amplitude_oracle),
    ("preset-round-trips", check_preset_round_trips),
    ("compiled-unitarity", check_compiled_unitarity),
    ("classification-matrix", check_classification_matrix),
)


def run_all() -> tuple[int, list[tuple[str, str | None]]]:
    """Run every check; returns (failure count, [(name, error or None)]).

    The shared draw is rebuilt first, so every run does all of its work.
    """
    _MEMO.clear()
    results = []
    failures = 0
    for name, fn in CHECKS:
        try:
            fn()
            results.append((name, None))
        except Exception as exc:
            failures += 1
            results.append((name, str(exc)))
    return failures, results
