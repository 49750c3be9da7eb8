"""Sparse Fock-state simulation of passive linear-optical interferometers.

The package models networks of beam splitters, phase delays and mirrors
acting on few-photon states, with presets for nested tap-and-erase
interferometer stacks: each arm of an outer interferometer carries a tap
splitter whose output either feeds dedicated detectors (marking the path)
or recombines on a removable closing splitter (erasing the mark).
"""

from .circuit import (Circuit, CircuitElement, PRESET_NAMES, braced, compile,
                      load_preset_file, parse_circuit, preset, preset_fig1,
                      preset_fig2, preset_fig3, serialize)
from .errors import (CircuitError, CircuitParseError, DegenerateStateError,
                     DimensionMismatchError, ExpansionTooLargeError,
                     InvalidCoefficientsError, MissingPhaseError,
                     NonFiniteAmplitudeError, NonUnitaryError,
                     PhotonCountError, SectorError, UnclassifiableScanError,
                     UnknownDetectorError)
from .fock import FockState, basis_state, embed, inner_product, vacuum
from .measurement import (DensityMatrix, DetectionPattern,
                          coincidence_from_density, density_from_pure,
                          mean_photon_number, partial_trace,
                          pattern_probability, projected_probability)
from .optics import (BALANCED, BeamSplitterCoeffs, bs_unitary, evolve,
                     is_unitary, permanent, phase_unitary, swap_unitary,
                     transition_amplitude)
from .scenarios import (FringeScan, ScenarioReport, classify_table1,
                        delayed_choice_variant, engineered_input, noon_target,
                        one_photon_each_input, run_scan, run_triple)

__version__ = "0.1.0"

__all__ = [
    "BALANCED", "BeamSplitterCoeffs", "Circuit", "CircuitElement",
    "CircuitError", "CircuitParseError", "DegenerateStateError",
    "DensityMatrix", "DetectionPattern", "DimensionMismatchError",
    "ExpansionTooLargeError", "FockState", "FringeScan",
    "InvalidCoefficientsError",
    "MissingPhaseError", "NonFiniteAmplitudeError", "NonUnitaryError",
    "PRESET_NAMES", "PhotonCountError", "ScenarioReport",
    "SectorError", "UnclassifiableScanError", "UnknownDetectorError",
    "basis_state", "braced", "bs_unitary", "classify_table1",
    "coincidence_from_density", "compile", "delayed_choice_variant",
    "density_from_pure", "embed", "engineered_input", "evolve",
    "inner_product", "is_unitary", "load_preset_file", "mean_photon_number",
    "noon_target", "one_photon_each_input", "parse_circuit",
    "partial_trace", "pattern_probability", "permanent", "phase_unitary",
    "preset", "preset_fig1", "preset_fig2", "preset_fig3",
    "projected_probability", "run_scan", "run_triple",
    "serialize", "swap_unitary", "transition_amplitude", "vacuum",
]
