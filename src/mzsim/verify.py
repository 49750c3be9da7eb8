"""Built-in verification suite.

Each check recomputes a closed-form result through the full pipeline
(compile, evolve, measure) and compares against the independent expressions
in :mod:`mzsim.reference`.  A check that draws random phases for a fixed
circuit compiles all of its draws in one batched pass and evolves its input
through them in one expansion, then asserts draw by draw.  The command line
exposes this through ``mzsim --verify``; tests reuse individual checks as
well.
"""

from __future__ import annotations

import math

import numpy as np

from . import reference as ref
from .circuit import (PRESET_NAMES, _compile_grid, compile, load_preset_file,
                      parse_circuit, preset, preset_fig1, preset_fig2,
                      preset_fig3, serialize)
from .fock import basis_state, embed
from .measurement import (DetectionPattern, coincidence_from_density,
                          density_from_pure, mean_photon_number, partial_trace,
                          pattern_probability, projected_probability,
                          DensityMatrix)
from .optics import (BALANCED, BeamSplitterCoeffs, _evolve_each, bs_unitary,
                     evolve, is_unitary, transition_amplitude)
from .scenarios import (classify_table1, engineered_input, noon_target,
                        one_photon_each_input, run_projection_scan, run_scan,
                        run_triple)

_SEED = 20260823


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
    _require(err <= tol, f"{what}: |{a} - {b}| = {err:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# individual checks


def check_bunching_at_balanced_splitter():
    out = evolve(basis_state((1, 1)), bs_unitary(BALANCED, 0, 1, 2))
    _require(out.allclose(ref.hom_pair_output(), 1e-12),
             "two photons meeting on a balanced splitter must bunch")
    _close(abs(out[(1, 1)]), 0.0, 1e-12, "coincidence amplitude")


def check_row_coefficients():
    rng = _rng()
    for _ in range(20):
        tap = _random_tap(rng)
        pc, pb, ps = rng.uniform(0, 2 * math.pi, 3)
        u1 = compile(preset_fig1(tap=tap), {"phi_C": pc, "phi_B": pb})
        r0, r1 = ref.rows_monitored_taps(tap.t, tap.r, pc, pb)
        for row, expected in ((0, r0), (1, r1)):
            for mode, coeff in expected.items():
                _close(u1[row, mode], coeff, 1e-12,
                       f"monitored row {row} -> mode {mode}")
        u2 = compile(preset_fig2(tap=tap),
                     {"phi_C": pc, "phi_B": pb, "phi_S": ps}, ("BS2",))
        r0, r1 = ref.rows_erased_taps(tap.t, tap.r, pc, pb, ps)
        for row, expected in ((0, r0), (1, r1)):
            for mode, coeff in expected.items():
                _close(u2[row, mode], coeff, 1e-12,
                       f"erased row {row} -> mode {mode}")


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
    rng = _rng()
    inp = embed(basis_state((1, 1)), 12, (0, 1))
    for _ in range(20):
        tap = _random_tap(rng)
        pc, pb, ps = rng.uniform(0, 2 * math.pi, 3)
        out1 = evolve(inp, compile(preset_fig1(tap=tap),
                                   {"phi_C": pc, "phi_B": pb}))
        _require(out1.allclose(ref.pair_output_monitored(tap.t, tap.r, pc, pb),
                               1e-10), "monitored-tap pair state mismatch")
        out2 = evolve(inp, compile(preset_fig2(tap=tap),
                                   {"phi_C": pc, "phi_B": pb, "phi_S": ps},
                                   ("BS2",)))
        _require(out2.allclose(ref.pair_output_erased(tap.t, tap.r, pc, pb, ps),
                               1e-10), "erased-tap pair state mismatch")


def check_coincidence_values():
    rng = _rng()
    fig1, fig2 = preset_fig1(), preset_fig2()
    inp = one_photon_each_input(fig1)
    both_outer = DetectionPattern({"D10": 1, "D11": 1})
    cross = DetectionPattern({"D6": 1, "D10": 1})
    both_inner = DetectionPattern({"D6": 1, "D7": 1})
    t1 = r1 = 1 / math.sqrt(2)
    pcs, pbs, pss = rng.uniform(0, 2 * math.pi, (20, 3)).T
    outs1 = _evolve_each(inp, _compile_grid(fig1, {"phi_C": pcs, "phi_B": pbs}))
    outs2 = _evolve_each(inp, _compile_grid(
        fig2, {"phi_C": pcs, "phi_B": pbs, "phi_S": pss}, ("BS2",)))
    for pc, pb, ps, out1, out2 in zip(pcs, pbs, pss, outs1, outs2):
        _close(pattern_probability(out1, both_outer, fig1.detectors),
               ref.outer_coincidence(t1, pc, pb), 1e-10, "outer coincidence")
        _close(pattern_probability(out1, cross, fig1.detectors),
               ref.cross_coincidence_monitored(t1, r1), 1e-10,
               "cross coincidence with monitored taps")
        _close(pattern_probability(out1, both_inner, fig1.detectors),
               0.0, 1e-12, "inner coincidence (antibunching)")
        _close(pattern_probability(out2, both_inner, fig2.detectors),
               ref.inner_coincidence_erased(r1, pc, ps), 1e-10,
               "inner coincidence with erased taps")
        _close(pattern_probability(out2, cross, fig2.detectors),
               ref.cross_coincidence_erased(t1, r1, pc, pb, ps), 1e-10,
               "cross coincidence with erased taps")
    out1 = evolve(inp, compile(fig1, {"phi_C": 0.7, "phi_B": 0.7}))
    _close(pattern_probability(out1, both_outer, fig1.detectors), 0.25,
           1e-12, "outer coincidence at zero arm imbalance")


def check_eraser_projection():
    rng = _rng()
    fig1 = preset_fig1()
    inp = one_photon_each_input(fig1)
    t1 = r1 = 1 / math.sqrt(2)
    pcs, pbs = rng.uniform(0, 2 * math.pi, (20, 2)).T
    outs = _evolve_each(inp, _compile_grid(fig1, {"phi_C": pcs, "phi_B": pbs}))
    for pc, pb, out in zip(pcs, pbs, outs):
        _close(projected_probability(out, ref.eraser_projector()),
               ref.eraser_projection(t1, r1, pc, pb), 1e-10,
               "eraser projection probability")


def check_frequency_halving():
    fig1, fig2 = preset_fig1(), preset_fig2()
    inp = one_photon_each_input(fig1)
    outer = run_scan(fig1, (), inp, DetectionPattern({"D10": 1, "D11": 1}),
                     "phi_B", {"phi_C": 0.4}, 128)
    _require(outer.spatial_frequency == 2.0 and outer.visibility > 0.999,
             f"outer coincidence should fit f=2, vis 1, got "
             f"f={outer.spatial_frequency} vis={outer.visibility:.4f}")
    erased = run_scan(fig2, ("BS2",), inp, DetectionPattern({"D6": 1, "D10": 1}),
                      "phi_B", {"phi_C": 0.4, "phi_S": 0.2}, 128)
    _require(erased.spatial_frequency == 1.0 and erased.visibility > 0.999,
             f"erased cross coincidence should fit f=1, got "
             f"f={erased.spatial_frequency} vis={erased.visibility:.4f}")
    projected = run_projection_scan(fig1, (), inp, ref.eraser_projector(),
                                    "phi_B", {"phi_C": 0.4}, 128)
    _require(projected.spatial_frequency == 1.0 and projected.visibility > 0.999,
             "projection-based erasure should halve the fitted frequency")


def check_common_delay_sees_both_photons():
    fig2 = preset_fig2()
    scan = run_scan(fig2, ("BS2",), one_photon_each_input(fig2),
                    DetectionPattern({"D6": 1, "D10": 1}),
                    "phi_C", {"phi_B": 0.0, "phi_S": 0.0}, 128)
    _require(scan.spatial_frequency == 2.0 and scan.visibility > 0.999,
             "common-arm delay must fit f=2: both photons cross it")


def check_monitored_cross_is_flat():
    fig1 = preset_fig1()
    scan = run_scan(fig1, (), one_photon_each_input(fig1),
                    DetectionPattern({"D6": 1, "D10": 1}),
                    "phi_B", {"phi_C": 0.9}, 128)
    _require(scan.visibility < 1e-10 and abs(scan.mean - 0.125) < 1e-10,
             f"monitored cross coincidence should be flat at 1/8, got "
             f"vis={scan.visibility:.2e} mean={scan.mean:.6f}")


def check_engineered_pair():
    eng = engineered_input(basis_state((2, 0)))
    _require(eng.allclose(ref.engineered_pair_input(), 1e-12),
             "engineered pair input amplitudes")
    forward = evolve(eng, bs_unitary(BALANCED, 0, 1, 2))
    _require(forward.allclose(basis_state((2, 0)), 1e-12),
             "engineered pair must exit entirely on the upper arm")
    fig2 = preset_fig2()
    out = evolve(embed(eng, 12, (0, 1)),
                 compile(fig2, {"phi_C": 0.0, "phi_B": 0.0, "phi_S": 0.0},
                         ("BS2",)))
    _require(out.allclose(ref.engineered_pair_output(BALANCED.t, BALANCED.r),
                          1e-10),
             "engineered pair output amplitudes")
    for swept, fixed in (("phi_B", {"phi_C": 0.3, "phi_S": 0.1}),
                         ("phi_C", {"phi_B": 0.3, "phi_S": 0.1}),
                         ("phi_S", {"phi_B": 0.3, "phi_C": 0.1})):
        scan = run_scan(fig2, ("BS2",), embed(eng, 12, (0, 1)),
                        DetectionPattern({"D6": 1, "D10": 1}), swept, fixed, 96)
        _require(scan.visibility < 1e-6,
                 f"engineered pair scans must stay flat, {swept} gave "
                 f"vis={scan.visibility:.2e}")


def check_engineered_noon3():
    eng = engineered_input(noon_target(3))
    _require(eng.allclose(ref.engineered_noon3_input(), 1e-12),
             "engineered three-photon input amplitudes")
    forward = evolve(eng, bs_unitary(BALANCED, 0, 1, 2))
    _require(forward.allclose(noon_target(3), 1e-12),
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
    scan = run_scan(fig3, ("BS2",), state,
                    DetectionPattern({"D6p": 1, "D6": 1, "D10": 1}),
                    "phi_C", {"phi_B": 0.0, "phi_S": 0.0, "phi_Sp": 0.0}, 96)
    _require(scan.visibility < 1e-10,
             "with the outermost eraser removed the triple count must be flat")


def check_reduced_state_blindness():
    rng = _rng()
    fig1, fig2 = preset_fig1(), preset_fig2()
    inp = one_photon_each_input(fig1)
    t1 = r1 = 1 / math.sqrt(2)
    traced = [m for m in range(12) if m not in (10, 11)]
    pcs, pbs, pss = rng.uniform(0, 2 * math.pi, (20, 3)).T
    outs1 = _evolve_each(inp, _compile_grid(fig1, {"phi_C": pcs, "phi_B": pbs}))
    outs2 = _evolve_each(inp, _compile_grid(
        fig2, {"phi_C": pcs, "phi_B": pbs, "phi_S": pss}, ("BS2",)))
    for pc, pb, out1, out2 in zip(pcs, pbs, outs1, outs2):
        rho1 = partial_trace(density_from_pure(out1), traced)
        rho2 = partial_trace(density_from_pure(out2), traced)
        _require(rho1.allclose(rho2, 1e-10),
                 "reduced outer state must not reveal the tap wiring")
        expected = DensityMatrix(ref.reduced_outer_entries(t1, r1, pc, pb),
                                 (10, 11))
        _require(rho1.allclose(expected, 1e-10),
                 "reduced outer state entries mismatch")
        for ket, weight in ref.reduced_outer_diagonal(t1, r1, pc, pb).items():
            _close(rho1.entry(ket, ket).real, weight, 1e-10,
                   f"reduced diagonal weight at {ket}")
        _close(coincidence_from_density(
                   rho1, DetectionPattern({"D10": 1, "D11": 1}),
                   fig1.detectors),
               ref.outer_coincidence(t1, pc, pb), 1e-10,
               "coincidence from the reduced state")
        _close(mean_photon_number(rho1, 10), ref.outer_singles_rate(t1, r1),
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
        order = int(report.scenario.rsplit("-", 1)[1])
        wants_fringes = (order == 3 and
                         "distinguishing" not in report.scenario)
        expected = "fringes" if wants_fringes else "flat"
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
    """Run every check; returns (failure count, [(name, error or None)])."""
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
