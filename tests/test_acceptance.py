"""Acceptance tests: the golden suite under three seeds, plus three sweeps.

Every comparison against the closed forms of mzsim.reference lives in
mzsim.verify.CHECKS, which ``mzsim --verify`` runs at one fixed seed.  Here
each check is its own test under that seed and two others, so the random
taps and phases of the suite are drawn three times over.  The remaining
tests are sweeps that need no closed form and are too large for the
command-line suite: the permanent oracle against the evolution engine, the
scenario classification for four and five photons, and the completeness of
the exclusive detection patterns.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from mzsim import (BeamSplitterCoeffs, DetectionPattern, basis_state,
                   bs_unitary, classify_table1, compile, embed,
                   engineered_input, evolve, noon_target,
                   one_photon_each_input, pattern_probability, phase_unitary,
                   preset, swap_unitary, transition_amplitude, PRESET_NAMES)
from mzsim import optics, verify

#: The seed ``mzsim --verify`` uses, then two more.
SEEDS = (verify._SEED, 202601, 99991)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("check", [fn for _, fn in verify.CHECKS],
                         ids=[name for name, _ in verify.CHECKS])
def test_golden_check(monkeypatch, check, seed):
    monkeypatch.setattr(verify, "_SEED", seed)
    check()


def test_each_run_builds_the_shared_draw_once(monkeypatch):
    builds = []

    def counting_draw_taps(rng):
        builds.append(1)
        return draw_taps(rng)

    draw_taps = verify._draw_taps
    monkeypatch.setattr(verify, "_draw_taps", counting_draw_taps)
    for _ in range(2):
        failures, results = verify.run_all()
        assert failures == 0 and len(results) == len(verify.CHECKS)
    assert len(builds) == 2


def test_a_cold_run_builds_24_full_plans_and_a_warm_run_misses_none(
        monkeypatch):
    # the plan cache keeps 24 full plans, one entry per distinct scan (11)
    # and 2 trace plans; a second run finds every one of them
    builds = []

    def counting_build_plan(*args):
        builds.append(1)
        return build_plan(*args)

    build_plan = optics._build_plan
    monkeypatch.setattr(optics, "_build_plan", counting_build_plan)
    optics._expansion_plan.cache_clear()
    assert verify.run_all()[0] == 0
    cold = optics._expansion_plan.cache_info()
    assert len(builds) == 24 and cold.currsize == 37
    assert verify.run_all()[0] == 0
    warm = optics._expansion_plan.cache_info()
    assert len(builds) == 24
    assert (warm.misses, warm.currsize, warm.nbytes) == (
        cold.misses, cold.currsize, cold.nbytes)


def test_the_shared_draw_builds_and_compiles_each_layout_once(monkeypatch):
    # 20 taps through two layouts: one build and one compile per layout,
    # each of all 20 slices
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in ("preset_fig1", "preset_fig2", "_compile_grid"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    draws = verify._draw_taps(verify._rng())
    assert sorted(calls) == ["_compile_grid", "_compile_grid", "preset_fig1",
                             "preset_fig2"]
    assert len(draws) == verify._TAP_DRAWS
    assert {d.u1.shape for d in draws} | {d.u2.shape for d in draws} == {
        (2, 12)}


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
    # three photons are the classification-matrix check
    for n in (4, 5):
        for report in classify_table1(n):
            assert (report.classification
                    == verify.expected_classification(report.scenario)), \
                report.scenario


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
