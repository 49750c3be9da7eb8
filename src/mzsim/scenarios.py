"""Executable experiments: fringe scans, engineered inputs, classification.

A scan sweeps one delay parameter phi over [0, 4*pi).  Every entry of the
compiled unitary is a polynomial in e^{i phi} of degree at most c, the number
of enabled phase elements carrying the parameter, so every output amplitude
of an N-photon input has degree at most N*c.  The scan engine therefore
compiles the circuit at K = N*c + 1 equally spaced phases in one pass and
evolves the input through all K unitaries in one batched expansion; those
K values fix psi(phi) = sum_{j < K} e^{i j phi} psi_j exactly.  Only the
rows of the modes the input occupies enter an expansion, so a scan, like
:func:`run_triple` and a CLI point run, compiles just those R rows, a
(K x R x M) block, and the expansion checks that they are orthonormal
within 1e-8: a splitter off unitary on modes no input photon reaches
cannot change a probability, and passes.  The
scans of one call share that expansion: their toggle sets are compiled in
one pass, one grid each, and evolved as one stack, so
:func:`classify_table1` compiles and evolves its input once for all of its
configurations.  That input is the engineered state the first splitter
maps onto the NOON target (:func:`engineered_input`); the classification
feeds the target itself to the stack after that splitter, the same output
from 2 input kets in place of up to n + 1.  A readout's probability is
the finite Fourier series

    P(phi) = h_0 + 2 Re sum_{0 < f < K} h_f e^{i f phi},

whose frequencies -(K-1) .. K-1 stay distinct modulo 2K, so the 2K-point
DFT of its values at the phases pi m / K gives h_0 .. h_{K-1} exactly;
samples at other phases are evaluated from the harmonics.  The fit
a + b cos(f phi + c) is read off them exactly: a = h_0, f is the one
nonzero harmonic (none: a flat scan, f = 0), b = 2 |h_f| and c = arg h_f.
The fitted visibility b/a then classifies the configuration as showing
fringes or not, which is the qualitative content of the multi-stage
scenario table.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _braced_circuit, _compile_grid
from .errors import (CircuitError, DegenerateStateError,
                     DimensionMismatchError, UnclassifiableScanError)
from .fock import (FockState, _check_occupation, _common_rows, _trusted_state,
                   basis_state, embed)
from .measurement import DetectionPattern, _warn_unreachable, pattern_masks
from .optics import (BALANCED, MAX_HARMONICS, PLAN_CACHE_BYTES, _evolve_grid,
                     _expansion_plan, _PlanCache, bs_unitary, evolve)

FRINGE_VISIBILITY = 0.9
FLAT_VISIBILITY = 0.01
#: A harmonic whose cosine has an rms above this fraction of the scan's
#: mean is nonzero; the rms left after the fitted harmonic must stay below
#: it.  Flat scans of the golden checks read at most 1.2e-15.
RESIDUAL_LIMIT = 1e-8
#: The bound for scans whose mean is too small for RESIDUAL_LIMIT to rise
#: above rounding: a probability carries errors of order eps * sqrt(p),
#: under 1e-21 wherever this floor binds (means below 1e-12).
RESIDUAL_FLOOR = 1e-20
MIN_SCAN_SAMPLES = 64
#: Most samples one scan or CLI sweep may ask for.
MAX_SWEEP_SAMPLES = 100_000
#: A state whose norm is farther than this from 1 is not normalised.
NORM_TOL = 1e-6


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
        return _samples_csv(self.samples)


def _samples_csv(samples) -> str:
    """``phase,probability`` CSV of (phase, probability) pairs, floats as repr."""
    return "phase,probability\n" + "".join(f"{p!r},{v!r}\n" for p, v in samples)


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


def _scan_values(circuit: Circuit, input_state: FockState, swept: str, fixed,
                 scans) -> list[np.ndarray]:
    """Exact probability harmonics h_0 .. h_{K-1} of each scan's readouts,
    as one (readouts x K) array per scan.

    ``scans`` holds ``(toggles, readouts)`` pairs of one circuit and input;
    a readout is a detection pattern or a projector state.  The distinct
    toggle sets are compiled in one call, a family of S grids of K phases,
    K - 1 being N times the most delays any set has on ``swept``, and one
    expansion evolves the (S K x R x M) block.  It computes only the kets
    the readouts read, and they come back in order, one column each.  Its
    ``select`` reads them among every reachable ket (:func:`_read_set`),
    cached in the plan cache under the full plan's key and the readouts'
    own key, so a warm scan skips that phase-free work.  Each set's
    amplitudes are taken to the 2K phases pi m / K and its samples there
    to harmonics by one DFT (:func:`_sampling`).
    """
    if swept not in circuit.parameters:
        raise CircuitError(f"cannot sweep unknown parameter {swept!r}; "
                           f"parameters are {list(circuit.parameters)}")
    sets = list(dict.fromkeys(frozenset(toggles) for toggles, _ in scans))
    delays = [e.name for e in circuit.elements if e.param == swept]
    crossings = max(sum(name not in circuit.toggles or name in enabled
                        for name in delays) for enabled in sets)
    photons = input_state.total_photons
    k = photons * crossings + 1
    if k > MAX_HARMONICS:
        raise ValueError(f"a scan of {swept} needs K = {k:,} harmonics; "
                         f"at most {MAX_HARMONICS:,} fit in memory")
    phases = dict(fixed)
    phases[swept] = 2 * math.pi * np.arange(k) / k
    readouts = [r for _, scan in scans for r in scan]
    readout_key = ("readouts", tuple(circuit.detectors.items()), *(
        (r.occupation_array.shape, r.occupation_array.tobytes(),
         r.amplitude_array.tobytes()) if isinstance(r, FockState)
        else (tuple(r.counts.items()), r.exclusive) for r in readouts))
    weights = overlaps = None

    def select(kets, key):
        nonlocal weights, overlaps
        built = []

        def build():
            built.append(True)
            return _read_set(circuit, readouts, kets, photons)

        read, weights, overlaps, unreachable = _expansion_plan.lookup(
            key + readout_key, build)
        if not built:
            # a cached read set: warn as pattern_masks did when it was made
            for total in unreachable:
                _warn_unreachable(total, photons)
        overlaps = iter(overlaps)
        return read

    _, values = _evolve_grid(input_state, _compile_grid(
        circuit, phases, rows=input_state._occupied_modes(), sets=sets),
        select)

    interpolate, dft = _sampling(k)
    blocks = {}
    for i, enabled in enumerate(sets):
        psi = interpolate @ values[i * k:(i + 1) * k]
        blocks[enabled] = psi, psi.real ** 2 + psi.imag ** 2
    results, first = [], 0
    for toggles, scan in scans:
        psi, density = blocks[frozenset(toggles)]
        count = sum(not isinstance(r, FockState) for r in scan)
        patterns = iter(weights[first:first + count] @ density.T)
        first += count
        samples = [np.abs(psi @ next(overlaps)) ** 2
                   if isinstance(r, FockState) else next(patterns) for r in scan]
        results.append(np.array(samples) @ dft)
    return results


def _read_set(circuit: Circuit, readouts, kets: np.ndarray, photons: int):
    """What the readouts read over the reachable ``kets``, read-only: the
    bool mask of the kets any readout reads, the patterns' (patterns x read
    kets) 0/1 weights, each projector's conjugate amplitudes on the read
    kets, and the totals of the patterns that want more than ``photons``
    (each warned about here, by :func:`pattern_masks`).

    A pattern's unknown detector or a projector on other modes than the
    circuit's raises here, before the stack is checked for unitarity.
    """
    masks = pattern_masks(
        [r for r in readouts if not isinstance(r, FockState)],
        circuit.detectors, kets, photons)
    read = masks.any(axis=0)
    overlaps = []
    for readout in readouts:
        if isinstance(readout, FockState):
            if readout.mode_count != circuit.mode_count:
                raise DimensionMismatchError(
                    "projector and circuit have different mode counts")
            found, rows = _common_rows(readout.occupation_array, kets)
            overlaps.append(np.zeros(len(kets), dtype=complex))
            overlaps[-1][rows] = readout.amplitude_array[found].conj()
            read[rows] = True
    overlaps = tuple(overlap[read] for overlap in overlaps)
    weights = masks[:, read].astype(float)
    for array in (read, weights, *overlaps):
        array.flags.writeable = False
    return read, weights, overlaps, tuple(
        r.total for r in readouts
        if not isinstance(r, FockState) and r.total > photons)


#: The sampling matrices of the most recent scans' K.  A pair holds
#: 64 K^2 bytes, so it is bounded in bytes as the plans are: a pair past
#: ``PLAN_CACHE_BYTES``, from K = 256 on, is used once and not kept.
_sampling_matrices = _PlanCache(maxsize=64, budget=PLAN_CACHE_BYTES)


def _sampling(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The (2K x K) matrices that take amplitudes at the K grid phases
    2 pi j / K to their values at the 2K phases pi m / K, and samples at
    those 2K phases to the harmonics h_0 .. h_{K-1}, read-only and kept in
    :data:`_sampling_matrices`."""
    return _sampling_matrices.lookup((k,), lambda: _build_sampling(k))


def _build_sampling(k: int) -> tuple[np.ndarray, np.ndarray]:
    steps = np.arange(2 * k)
    # e^{i pi j m / K}, with j m reduced modulo 2K before the exponential
    upsample = np.exp(1j * math.pi * (np.outer(steps, steps[:k]) % (2 * k)) / k)
    interpolate = upsample @ upsample[::2].conj().T / k
    dft = upsample.conj() / (2 * k)
    interpolate.flags.writeable = dft.flags.writeable = False
    return interpolate, dft


def _probabilities(harmonics: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """P(phi) = h_0 + 2 Re sum_{f>0} h_f e^{i f phi} of each row of an
    (R x K) harmonics array at the given phases, as an (R x phases) array."""
    freqs = np.arange(1, harmonics.shape[1])
    # the series is 2*pi-periodic; reducing first keeps f * phi finite
    ripple = harmonics[:, 1:] @ np.exp(1j * np.outer(freqs, np.mod(phis, 2 * math.pi)))
    return np.maximum(harmonics[:, :1].real + 2 * ripple.real, 0.0)


def _fit_samples(parameter: str, phis: np.ndarray,
                 harmonics: np.ndarray) -> list[FringeScan]:
    """Sample each scan of an (R x K) harmonics array at ``phis`` and read
    its cosine off its harmonics, as R scans.

    A harmonic is nonzero when its cosine's rms exceeds ``RESIDUAL_LIMIT``
    times the scan's mean, or ``RESIDUAL_FLOOR`` when that is larger, and
    the rms left after the strongest one must stay within the same bound;
    the bound scales with the scan, so a weak fringe is still a fringe.
    """
    means = harmonics[:, 0].real
    limits = np.maximum(RESIDUAL_LIMIT * means, RESIDUAL_FLOOR)
    rms = math.sqrt(2) * np.abs(harmonics)
    rms[:, 0] = 0.0
    rows = np.arange(len(harmonics))
    freqs = rms.argmax(axis=1)
    fringe = rms[rows, freqs] > limits
    freqs[~fringe] = 0
    chosen = np.where(fringe, harmonics[rows, freqs], 0)
    amplitudes = 2 * np.abs(chosen)
    rms[rows, freqs] = 0.0
    residuals = np.sqrt(np.sum(rms ** 2, axis=1))
    bad = np.flatnonzero(residuals > limits)
    if bad.size:
        raise UnclassifiableScanError(
            f"scan of {parameter} has more than one nonzero harmonic; "
            f"rms left after the strongest is {residuals[bad[0]]:.3e}")
    visibilities = np.divide(amplitudes, means, out=np.zeros_like(means),
                             where=means != 0)
    phases = phis.tolist()
    return [FringeScan(parameter, tuple(zip(phases, vals)), *fit)
            for vals, *fit in zip(
                _probabilities(harmonics, phis).tolist(), means.tolist(),
                amplitudes.tolist(), freqs.astype(float).tolist(),
                np.angle(chosen).tolist(), visibilities.tolist(),
                residuals.tolist())]


def _scan_phases(n_samples: int) -> np.ndarray:
    if not (isinstance(n_samples, numbers.Integral)
            and MIN_SCAN_SAMPLES <= n_samples <= MAX_SWEEP_SAMPLES):
        raise ValueError(
            f"a scan needs a whole number of {MIN_SCAN_SAMPLES} to "
            f"{MAX_SWEEP_SAMPLES} samples, got {n_samples!r}")
    return np.linspace(0.0, 4 * math.pi, n_samples, endpoint=False)


def run_scan(circuit: Circuit, toggles, input_state: FockState,
             pattern: DetectionPattern | FockState, swept: str, fixed,
             n_samples: int = 256) -> FringeScan:
    """Scan one delay, read the pattern probability, fit the fringe.

    ``pattern`` may also be a projector state, read as |<projector|psi>|^2.
    """
    phis = _scan_phases(n_samples)
    (harmonics,) = _scan_values(circuit, input_state, swept, fixed,
                                [(toggles, [pattern])])
    (scan,) = _fit_samples(swept, phis, harmonics)
    return scan


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
    if abs(target_after_bs1.norm() - 1.0) > NORM_TOL:
        raise DegenerateStateError("target state must be normalized")
    inverse = bs_unitary(BALANCED, 0, 1, 2).conj().T
    return evolve(target_after_bs1, inverse)


def noon_target(n: int) -> FockState:
    """(|n,0> + |0,n>)/sqrt(2): all photons together on one arm or the other.

    Its two kets are written as a sorted uint8 array and built by
    :func:`~mzsim.fock._trusted_state`; an n that is not a whole number in
    1..255 raises as :class:`~mzsim.fock.FockState` would.
    """
    n = _check_occupation((n, 0), 2)[0]
    if n < 1:
        raise ValueError("need at least one photon")
    return _trusted_state(np.array([[0, n], [n, 0]], dtype=np.uint8),
                          np.full(2, 1 / math.sqrt(2), dtype=complex), 2)


def one_photon_each_input(circuit: Circuit) -> FockState:
    """|1,1> on the two input modes, vacuum elsewhere."""
    return embed(basis_state((1, 1)), circuit.mode_count, (0, 1))


# ---------------------------------------------------------------------------
# headline scenarios


def run_triple(circuit: Circuit, toggles, phases):
    """Three-photon coincidence: outermost tap, inner tap, first outer port.

    The input is the engineered three-photon state that the first splitter
    maps onto (|3,0> + |0,3>)/sqrt(2) on the arms.  As in
    :func:`~mzsim.circuit._compile_grid`, a phase value is a float or a
    length-K array; the result is one probability for float phases and an
    array of K probabilities otherwise, read with one mask off one evolve.
    """
    state = embed(engineered_input(noon_target(3)), circuit.mode_count, (0, 1))
    occupations, amplitudes = _evolve_grid(state, _compile_grid(
        circuit, phases, toggles, state._occupied_modes()))
    mask = pattern_masks([DetectionPattern({"D6p": 1, "D6": 1, "D10": 1})],
                         circuit.detectors, occupations, 3)[0]
    probs = np.sum(np.abs(amplitudes[:, mask]) ** 2, axis=1)
    if all(np.ndim(v) == 0 for v in phases.values()):
        return float(probs[0])
    return probs


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
    effect survives only in full-order exclusive coincidences; all the
    scans come from one evolve of the input.

    The input is the engineered n-photon state on ``braced(n)``'s input
    modes, which the first splitter BS1 maps onto :func:`noon_target` on
    its two arms.  So the scans evolve that target, placed on modes 0 and
    1, through the stack after BS1: the same output state, from 2 input
    kets and without the evolve that :func:`engineered_input` takes
    (at n = 5, 990 terms feed the 495 read kets, against 1,820 through the
    whole stack).  The stack is built once, with one ``Circuit`` check.
    """
    if n not in range(3, 6):
        raise ValueError(f"supported photon numbers are 3 to 5, got {n!r}")
    n = int(n)
    circuit = _braced_circuit(n, first=1)
    state = embed(noon_target(n), circuit.mode_count, (0, 1))
    primes = ["p" * k for k in range(n - 2, 0, -1)]
    tap_detectors = [f"D6{s}" for s in primes] + ["D6"]
    all_on = tuple(sorted(circuit.toggles))
    inner_off = tuple(t for t in all_on if t != "BS2")
    fixed = {p: 0.0 for p in circuit.parameters}
    phis = _scan_phases(MIN_SCAN_SAMPLES)

    configs = (("all-erased", all_on, tap_detectors, False),
               ("innermost-distinguishing", inner_off, tap_detectors, True),
               ("cooperating-outer-stages", inner_off, tap_detectors[:-1], True))
    scans = []
    for _, toggles, dets, _ in configs:
        patterns = [DetectionPattern({d: 1 for d in dets[:k]}, exclusive=False)
                    for k in range(1, len(dets) + 1)]
        patterns.append(DetectionPattern(
            {d: 1 for d in dets} | {"D10": n - len(dets)}))
        scans.append((toggles, patterns))
    # the two inner_off scans share one compiled and evolved block, and
    # every block has the same K: one fit
    fits = iter(_fit_samples("phi_B", phis, np.concatenate(
        _scan_values(circuit, state, "phi_B", fixed, scans))))
    reports = []
    for (config_id, toggles, dets, which_path), (_, patterns) in zip(
            configs, scans):
        orders = [*range(1, len(dets) + 1), n]
        for pattern, scan, order in zip(patterns, fits, orders):
            reports.append(ScenarioReport(
                scenario=f"photons-{n}/{config_id}/order-{order}",
                toggles=tuple(toggles), pattern=pattern, scan=scan,
                classification=scan.classify(),
                which_path_available=which_path))
    return reports
