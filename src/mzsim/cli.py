"""Command line front end.

Runs a preset or a .mzc circuit file on a chosen input state, evaluates one
detection pattern either at a fixed phase assignment or swept along one
parameter, and prints CSV or JSON.  ``mzsim --verify`` runs the built-in
golden-check suite instead.

Exit codes: 0 success, 2 usage error, 3 circuit parse error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import PRESET_NAMES, Circuit, compile, parse_circuit, preset
from .errors import (CircuitError, CircuitParseError, MissingPhaseError,
                     PhotonCountError, UnclassifiableScanError,
                     UnknownDetectorError)
from .fock import FockState, basis_state, embed
from .measurement import DetectionPattern, pattern_probability
from .optics import evolve
from .scenarios import (_fit_samples, _probabilities, _scan_values,
                        engineered_input, noon_target)

#: Most samples one --sweep may ask for.
MAX_SWEEP_SAMPLES = 100_000


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from the flags."""

    circuit: Circuit
    source: str
    input_state: FockState
    toggles: tuple[str, ...]
    pattern: DetectionPattern
    phases: dict[str, float]
    sweep: tuple[str, float, float, int] | None
    output_format: str


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzsim",
        description="Fock-state simulation of tap-and-erase interferometer "
                    "stacks.",
        epilog="Presets: " + ", ".join(PRESET_NAMES))
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--preset", metavar="NAME",
                        help="built-in circuit to run")
    source.add_argument("--circuit", metavar="FILE",
                        help="path to a .mzc circuit file")
    parser.add_argument("--input", default="one-one", metavar="SPEC",
                        help="one-one | engineered-noon:N | path to a state "
                             "JSON file (default: one-one)")
    parser.add_argument("--toggles", default="", metavar="A,B",
                        help="comma-separated toggleable elements to enable")
    parser.add_argument("--pattern", metavar="D10:1,D11:1",
                        help="required detector counts")
    parser.add_argument("--non-exclusive", action="store_true",
                        help="leave unlisted detectors unconstrained")
    parser.add_argument("--sweep", metavar="PARAM:START:END:N",
                        help="sweep one phase over [START, END), N samples")
    parser.add_argument("--phases", default="", metavar="P=V,...",
                        help="fixed phase values in radians")
    parser.add_argument("--format", dest="output_format", default="csv",
                        choices=("csv", "json"), help="output format")
    parser.add_argument("--verify", action="store_true",
                        help="run the built-in golden-check suite and exit")
    return parser


def _parse_pattern(text: str, exclusive: bool,
                   circuit: Circuit) -> DetectionPattern:
    counts = {}
    for item in filter(None, (s.strip() for s in text.split(","))):
        name, sep, value = item.partition(":")
        if not sep:
            raise _UsageError(f"bad pattern item {item!r}, want NAME:COUNT")
        if name in counts:
            raise _UsageError(f"detector {name!r} is given twice")
        try:
            counts[name] = int(value)
        except ValueError:
            raise _UsageError(f"bad pattern count in {item!r}") from None
    if not counts:
        raise _UsageError("empty pattern")
    unknown = set(counts) - set(circuit.detectors)
    if unknown:
        raise _UsageError(f"unknown detectors {sorted(unknown)}; this circuit "
                          f"has {sorted(circuit.detectors)}")
    return DetectionPattern(counts, exclusive=exclusive)


def _parse_phases(text: str) -> dict[str, float]:
    phases = {}
    for item in filter(None, (s.strip() for s in text.split(","))):
        name, sep, value = item.partition("=")
        if not sep:
            raise _UsageError(f"bad phase assignment {item!r}, want NAME=VALUE")
        if name in phases:
            raise _UsageError(f"phase {name!r} is given twice")
        try:
            phases[name] = float(value)
        except ValueError:
            raise _UsageError(f"bad phase value in {item!r}") from None
        if not math.isfinite(phases[name]):
            raise _UsageError(f"phase value in {item!r} is not finite")
    return phases


def _parse_sweep(text: str, circuit: Circuit) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError("sweep wants PARAM:START:END:N")
    name, start, end, n = parts
    if name not in circuit.parameters:
        raise _UsageError(f"cannot sweep {name!r}; parameters are "
                          f"{list(circuit.parameters)}")
    try:
        start, end, n = float(start), float(end), int(n)
    except ValueError:
        raise _UsageError(f"bad sweep bounds in {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise _UsageError(f"sweep bounds in {text!r} are not finite")
    if not 2 <= n <= MAX_SWEEP_SAMPLES:
        raise _UsageError(
            f"sweep needs 2 to {MAX_SWEEP_SAMPLES} samples, got {n}")
    return name, start, end, n


def _load_input(spec: str, circuit: Circuit) -> FockState:
    if spec == "one-one":
        state = basis_state((1, 1))
    elif spec.startswith("engineered-noon:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad photon number in {spec!r}") from None
        if n < 1:
            raise _UsageError("engineered-noon needs a positive photon number")
        state = engineered_input(noon_target(n))
    else:
        try:
            text = Path(spec).read_text()
        except OSError as exc:
            raise _UsageError(f"cannot read input state {spec!r}: {exc}")
        try:
            state = FockState.from_json(text)
        except (ValueError, KeyError, TypeError) as exc:
            raise _UsageError(f"bad state file {spec!r}: {exc}")
    if state.mode_count == circuit.mode_count:
        return state
    if state.mode_count == 2:
        return embed(state, circuit.mode_count, (0, 1))
    raise _UsageError(
        f"input has {state.mode_count} modes; need 2 (fed to the input "
        f"splitter) or {circuit.mode_count} (the full register)")


def _load_circuit(args) -> tuple[Circuit, str]:
    if bool(args.preset) == bool(args.circuit):
        raise _UsageError("exactly one of --preset/--circuit is required")
    if args.preset:
        if args.preset not in PRESET_NAMES:
            raise _UsageError(f"unknown preset {args.preset!r}; choose from "
                              + ", ".join(PRESET_NAMES))
        return preset(args.preset), args.preset
    try:
        text = Path(args.circuit).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.circuit!r}: {exc}")
    return parse_circuit(text), args.circuit


def _resolve(args) -> RunConfig:
    circuit, source = _load_circuit(args)
    toggles = tuple(filter(None, (s.strip() for s in args.toggles.split(","))))
    unknown = set(toggles) - set(circuit.toggles)
    if unknown:
        raise _UsageError(f"unknown toggles {sorted(unknown)}; this circuit "
                          f"has {sorted(circuit.toggles)}")
    if not args.pattern:
        raise _UsageError("--pattern is required unless --verify is given")
    pattern = _parse_pattern(args.pattern, not args.non_exclusive, circuit)
    phases = _parse_phases(args.phases)
    sweep = _parse_sweep(args.sweep, circuit) if args.sweep else None
    unknown = set(phases) - set(circuit.parameters)
    if unknown:
        raise _UsageError(f"unknown phases {sorted(unknown)}; parameters are "
                          f"{list(circuit.parameters)}")
    needed = set(circuit.parameters) - set(phases)
    if sweep:
        needed -= {sweep[0]}
    if needed:
        raise _UsageError("missing phase values for " + ", ".join(sorted(needed)))
    return RunConfig(circuit=circuit, source=source,
                     input_state=_load_input(args.input, circuit),
                     toggles=toggles, pattern=pattern, phases=phases,
                     sweep=sweep, output_format=args.output_format)


def _probability(config: RunConfig, phases: dict[str, float]) -> float:
    unitary = compile(config.circuit, phases, config.toggles)
    out = evolve(config.input_state, unitary)
    return pattern_probability(out, config.pattern, config.circuit.detectors)


def _run_sweep(config: RunConfig, out) -> int:
    name, start, end, n = config.sweep
    phis = np.linspace(start, end, n, endpoint=False)
    (harmonics,) = _scan_values(config.circuit, config.toggles,
                                config.input_state, [config.pattern], name,
                                config.phases)
    vals = _probabilities(harmonics, phis)
    if config.output_format == "csv":
        out.write("phase,probability\n")
        for phi, v in zip(phis, vals):
            out.write(f"{float(phi)!r},{float(v)!r}\n")
        return 0
    try:
        fit = _fit_samples(name, phis, harmonics).to_json()["fit"]
    except UnclassifiableScanError:
        fit = None
    doc = {"circuit": config.source, "parameter": name,
           "pattern": config.pattern.describe(),
           "toggles": list(config.toggles),
           "samples": [[float(p), float(v)] for p, v in zip(phis, vals)],
           "fit": fit}
    json.dump(doc, out, indent=2)
    out.write("\n")
    return 0


def _run_point(config: RunConfig, out) -> int:
    value = _probability(config, config.phases)
    if config.output_format == "csv":
        out.write("pattern,probability\n")
        out.write(f"{config.pattern.describe()},{value!r}\n")
    else:
        doc = {"circuit": config.source,
               "pattern": config.pattern.describe(),
               "toggles": list(config.toggles),
               "phases": config.phases,
               "probability": value}
        json.dump(doc, out, indent=2)
        out.write("\n")
    return 0


def _run_verify(out) -> int:
    from . import verify
    failures, results = verify.run_all()
    width = max(len(name) for name, _ in results)
    for name, error in results:
        mark = "PASS" if error is None else "FAIL"
        out.write(f"{mark}  {name:<{width}}"
                  + (f"  {error}" if error else "") + "\n")
    out.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 0 if failures == 0 else 4


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = sys.stdout
    if args.verify:
        return _run_verify(out)
    try:
        config = _resolve(args)
    except CircuitParseError as exc:
        print(f"mzsim: parse error: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, CircuitError, UnknownDetectorError, ValueError) as exc:
        print(f"mzsim: {exc}", file=sys.stderr)
        return 2
    try:
        if config.sweep:
            return _run_sweep(config, out)
        return _run_point(config, out)
    except (MissingPhaseError, CircuitError, UnknownDetectorError,
            PhotonCountError) as exc:
        print(f"mzsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
