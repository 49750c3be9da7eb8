"""Executable experiments: fringe scans, engineered inputs, classification.

A scan sweeps one delay parameter phi over [0, 4*pi).  Every entry of the
compiled unitary is a polynomial in e^{i phi} of degree at most c, the number
of enabled phase elements carrying the parameter, so every output amplitude
of an N-photon input has degree at most N*c.  The scan engine therefore
compiles the circuit at K = N*c + 1 equally spaced phases in one pass,
evolves the input through all K unitaries in one batched expansion and
takes a K-point DFT, which gives psi(phi) = sum_j e^{i j phi} psi_j exactly.  The probability of a
readout (a detection pattern or a projector overlap) is then the finite
Fourier series

    P(phi) = h_0 + 2 Re sum_{f > 0} h_f e^{i f phi},
    h_f = sum_{l - j = f} <psi_j| Pi |psi_l>,

and samples at any phases are evaluated from its harmonics h_f.  The fit
a + b cos(f phi + c) is read off the harmonics exactly: a = h_0, f is the
one nonzero harmonic, b = 2 |h_f| and c = arg h_f.  A scan with no nonzero
harmonic is flat and reports spatial frequency 0; a scan with more than one
fits no single cosine and raises :class:`UnclassifiableScanError`.  The
fitted visibility b/a then classifies the configuration as showing fringes
or not, which is the qualitative content of the multi-stage scenario table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _compile_grid, braced, compile
from .errors import (CircuitError, DegenerateStateError,
                     DimensionMismatchError, UnclassifiableScanError)
from .fock import FockState, _common_rows, basis_state, embed
from .measurement import DetectionPattern, pattern_mask, pattern_probability
from .optics import BALANCED, _evolve_grid, bs_unitary, evolve

FRINGE_VISIBILITY = 0.9
FLAT_VISIBILITY = 0.01
#: A harmonic whose cosine has an rms above this is nonzero; the rms left
#: after the fitted harmonic must stay below it.
RESIDUAL_LIMIT = 1e-6
MIN_SCAN_SAMPLES = 64


@dataclass(frozen=True)
class FringeScan:
    """One swept-parameter scan together with its cosine fit."""

    parameter: str
    samples: tuple[tuple[float, float], ...]
    mean: float
    amplitude: float
    spatial_frequency: float
    phase_offset: float
    visibility: float
    residual: float

    def classify(self) -> str:
        if self.visibility > FRINGE_VISIBILITY:
            return "fringes"
        if self.visibility < FLAT_VISIBILITY:
            return "flat"
        return "ambiguous"

    def to_json(self) -> dict:
        return {"parameter": self.parameter,
                "samples": [[p, v] for p, v in self.samples],
                "fit": {"mean": self.mean,
                        "amplitude": self.amplitude,
                        "spatial_frequency": self.spatial_frequency,
                        "phase_offset": self.phase_offset,
                        "visibility": self.visibility,
                        "residual": self.residual}}

    def to_csv(self) -> str:
        lines = ["phase,probability"]
        lines += [f"{p!r},{v!r}" for p, v in self.samples]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScenarioReport:
    """Outcome of one configuration in the scenario classification."""

    scenario: str
    toggles: tuple[str, ...]
    pattern: DetectionPattern
    scan: FringeScan
    classification: str
    which_path_available: bool

    def to_json(self) -> dict:
        return {"scenario": self.scenario,
                "toggles": list(self.toggles),
                "pattern": {"counts": dict(self.pattern.counts),
                            "exclusive": self.pattern.exclusive},
                "scan": self.scan.to_json(),
                "classification": self.classification,
                "which_path_available": self.which_path_available}

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def _scan_values(circuit: Circuit, toggles, input_state: FockState,
                 readouts, swept: str, fixed) -> list[np.ndarray]:
    """Exact probability harmonics h_0 .. h_{K-1} of each readout.

    ``readouts`` holds detection patterns and projector states.  The circuit
    is compiled at all K grid phases in one pass and the input is evolved
    through the K unitaries in one expansion; projector kets are looked up
    among the output kets.
    """
    if swept not in circuit.parameters:
        raise CircuitError(f"cannot sweep unknown parameter {swept!r}")
    enabled = set(toggles)
    crossings = sum(1 for e in circuit.elements
                    if e.kind == "phase" and e.param == swept
                    and (e.name not in circuit.toggles or e.name in enabled))
    k = input_state.total_photons * crossings + 1
    steps = np.arange(k)
    phases = dict(fixed)
    phases[swept] = 2 * math.pi * steps / k
    occupations, values = _evolve_grid(
        input_state, _compile_grid(circuit, phases, toggles))
    coeffs = values.T @ (np.exp(-2j * math.pi * np.outer(steps, steps) / k) / k)

    harmonics = []
    for readout in readouts:
        if isinstance(readout, FockState):
            if readout.mode_count != circuit.mode_count:
                raise DimensionMismatchError(
                    "projector and circuit have different mode counts")
            kets, rows = _common_rows(readout.occupation_array, occupations)
            series = readout.amplitude_array[kets].conj()[None, :] @ coeffs[rows]
        else:
            series = coeffs[pattern_mask(readout, circuit.detectors,
                                         occupations,
                                         input_state.total_photons)]
        gram = series.conj().T @ series
        harmonics.append(np.array([np.trace(gram, offset=f)
                                   for f in range(k)]))
    return harmonics


def _probabilities(harmonics: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """P(phi) = h_0 + 2 Re sum_{f>0} h_f e^{i f phi} at the given phases."""
    freqs = np.arange(1, len(harmonics))
    # the series is 2*pi-periodic; reducing first keeps f * phi finite
    ripple = np.exp(1j * np.outer(np.mod(phis, 2 * math.pi), freqs)) @ harmonics[1:]
    return np.maximum(harmonics[0].real + 2 * ripple.real, 0.0)


def _fit_samples(parameter: str, phis: np.ndarray,
                 harmonics: np.ndarray) -> FringeScan:
    """Sample the scan at ``phis`` and read its cosine off the harmonics."""
    mean = float(harmonics[0].real)
    rms = math.sqrt(2) * np.abs(harmonics[1:])
    f = int(np.argmax(rms)) + 1 if rms.size else 0
    if f and rms[f - 1] > RESIDUAL_LIMIT:
        amplitude = 2 * abs(harmonics[f])
        phase_offset = float(np.angle(harmonics[f]))
        rest = np.delete(rms, f - 1)
    else:
        f, amplitude, phase_offset, rest = 0, 0.0, 0.0, rms
    residual = float(np.sqrt(np.sum(rest ** 2)))
    if residual > RESIDUAL_LIMIT:
        raise UnclassifiableScanError(
            f"scan of {parameter} has more than one nonzero harmonic; "
            f"rms left after the strongest is {residual:.3e}")
    visibility = amplitude / mean if mean > 1e-12 else 0.0
    vals = _probabilities(harmonics, phis)
    return FringeScan(parameter=parameter,
                      samples=tuple((float(p), float(v))
                                    for p, v in zip(phis, vals)),
                      mean=mean, amplitude=float(amplitude),
                      spatial_frequency=float(f), phase_offset=phase_offset,
                      visibility=float(visibility), residual=residual)


def _scan_phases(n_samples: int) -> np.ndarray:
    if n_samples < MIN_SCAN_SAMPLES:
        raise ValueError(
            f"a scan needs at least {MIN_SCAN_SAMPLES} samples")
    return np.linspace(0.0, 4 * math.pi, n_samples, endpoint=False)


def run_scan(circuit: Circuit, toggles, input_state: FockState,
             pattern: DetectionPattern, swept: str, fixed,
             n_samples: int = 256) -> FringeScan:
    """Scan one delay, read the pattern probability, fit the fringe."""
    phis = _scan_phases(n_samples)
    (harmonics,) = _scan_values(circuit, toggles, input_state, [pattern],
                                swept, fixed)
    return _fit_samples(swept, phis, harmonics)


def run_projection_scan(circuit: Circuit, toggles, input_state: FockState,
                        projector: FockState, swept: str, fixed,
                        n_samples: int = 256) -> FringeScan:
    """Like run_scan but against |<projector|psi>|^2 for a superposition."""
    return run_scan(circuit, toggles, input_state, projector, swept, fixed,
                    n_samples)


# ---------------------------------------------------------------------------
# engineered inputs


def engineered_input(target_after_bs1: FockState) -> FockState:
    """Two-mode input whose image under the first splitter is the target.

    Computed by running the target backwards through the balanced input
    splitter, so feeding the result forward reproduces the target exactly.
    """
    if target_after_bs1.mode_count != 2:
        raise DimensionMismatchError(
            "target must live on the two arm modes right after the "
            f"input splitter, got {target_after_bs1.mode_count} modes")
    if abs(target_after_bs1.norm() - 1.0) > 1e-6:
        raise DegenerateStateError("target state must be normalized")
    inverse = bs_unitary(BALANCED, 0, 1, 2).conj().T
    return evolve(target_after_bs1, inverse)


def noon_target(n: int) -> FockState:
    """(|n,0> + |0,n>)/sqrt(2): all photons together on one arm or the other."""
    if n < 1:
        raise ValueError("need at least one photon")
    amp = 1 / math.sqrt(2)
    return basis_state((n, 0)) * amp + basis_state((0, n)) * amp


def one_photon_each_input(circuit: Circuit) -> FockState:
    """|1,1> on the two input modes, vacuum elsewhere."""
    return embed(basis_state((1, 1)), circuit.mode_count, (0, 1))


# ---------------------------------------------------------------------------
# headline scenarios


def run_triple(circuit: Circuit, toggles, phases) -> float:
    """Three-photon coincidence: outermost tap, inner tap, first outer port.

    The input is the engineered three-photon state that the first splitter
    maps onto (|3,0> + |0,3>)/sqrt(2) on the arms.
    """
    state = embed(engineered_input(noon_target(3)), circuit.mode_count, (0, 1))
    out = evolve(state, compile(circuit, phases, toggles))
    pattern = DetectionPattern({"D6p": 1, "D6": 1, "D10": 1})
    return pattern_probability(out, pattern, circuit.detectors)


def delayed_choice_variant(circuit: Circuit, element_name: str) -> Circuit:
    """Move one element to the end of the pipeline, modes permitting.

    When the element shares no modes with anything downstream of it, the
    compiled unitary is unchanged: deciding late is the same as deciding
    early.  That reordering is the simulation-level content of performing
    the erasure choice after the other photon has already left.
    """
    chosen = circuit.element(element_name)
    rest = tuple(e for e in circuit.elements if e.name != element_name)
    return Circuit(circuit.mode_count, rest + (chosen,), dict(circuit.detectors),
                   frozenset(circuit.toggles))


def classify_table1(n: int) -> list[ScenarioReport]:
    """Classify fringe visibility across stage configurations for n photons.

    Three toggle configurations are examined: every tap stage erasing,
    the innermost stage distinguishing, and the outer stages cooperating
    while the innermost stage stays distinguishing and unobserved.  Each is
    scanned at every coincidence order against the outer-arm delay, whose
    effect survives only in full-order exclusive coincidences.
    """
    if not 3 <= n <= 5:
        raise ValueError("supported photon numbers are 3 to 5")
    circuit = braced(n)
    state = embed(engineered_input(noon_target(n)), circuit.mode_count, (0, 1))
    primes = ["p" * k for k in range(n - 2, 0, -1)]
    tap_detectors = [f"D6{s}" for s in primes] + ["D6"]
    all_on = tuple(sorted(circuit.toggles))
    inner_off = tuple(t for t in all_on if t != "BS2")
    fixed = {p: 0.0 for p in circuit.parameters}
    phis = _scan_phases(MIN_SCAN_SAMPLES)

    configs = (("all-erased", all_on, tap_detectors, False),
               ("innermost-distinguishing", inner_off, tap_detectors, True),
               ("cooperating-outer-stages", inner_off, tap_detectors[:-1], True))
    reports = []
    for config_id, toggles, dets, which_path in configs:
        patterns, orders = [], []
        for k in range(1, len(dets) + 1):
            patterns.append(DetectionPattern({d: 1 for d in dets[:k]},
                                             exclusive=False))
            orders.append(k)
        patterns.append(DetectionPattern(
            {d: 1 for d in dets} | {"D10": n - len(dets)}))
        orders.append(n)
        harmonics = _scan_values(circuit, toggles, state, patterns,
                                 "phi_B", fixed)
        for pattern, series, order in zip(patterns, harmonics, orders):
            scan = _fit_samples("phi_B", phis, series)
            reports.append(ScenarioReport(
                scenario=f"photons-{n}/{config_id}/order-{order}",
                toggles=tuple(toggles), pattern=pattern, scan=scan,
                classification=scan.classify(),
                which_path_available=which_path))
    return reports
