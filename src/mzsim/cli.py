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
import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .circuit import (PRESET_NAMES, Circuit, _compile_grid, parse_circuit,
                      preset)
from .errors import (CircuitParseError, NonUnitaryError,
                     UnclassifiableScanError)
from .fock import FockState, _trusted_state, basis_state, embed
from .measurement import DetectionPattern, pattern_probability
from .optics import _evolve_grid
from .scenarios import (MAX_SWEEP_SAMPLES, NORM_TOL, _fit_samples,
                        _probabilities, _samples_csv, _scan_values,
                        engineered_input, noon_target)


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


class _UsageError(ValueError):
    pass


# built on the first call only: a parser costs more to build than a small
# sweep's physics, parsing leaves it unchanged, and building it loads
# gettext's locale modules, which a program that never runs the CLI skips
@functools.cache
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
    # run options default to None so that --verify can tell which were given
    parser.add_argument("--input", metavar="SPEC",
                        help="one-one | engineered-noon:N | path to a state "
                             "JSON file (default: one-one)")
    parser.add_argument("--toggles", metavar="A,B",
                        help="comma-separated toggleable elements to enable")
    parser.add_argument("--pattern", metavar="D10:1,D11:1",
                        help="required detector counts")
    parser.add_argument("--non-exclusive", action="store_true",
                        help="leave unlisted detectors unconstrained")
    parser.add_argument("--sweep", metavar="PARAM:START:END:N",
                        help="sweep one phase over [START, END), N samples")
    parser.add_argument("--phases", metavar="P=V,...",
                        help="fixed phase values in radians")
    parser.add_argument("--format", choices=("csv", "json"),
                        help="output format (default: csv)")
    parser.add_argument("--verify", action="store_true",
                        help="run the built-in golden-check suite and exit; "
                             "takes no other option")
    return parser


def _split_list(text: str, what: str, sep: str = "") -> dict[str, str]:
    """Name -> value of each item of a comma list; no name may come twice.

    With ``sep`` every item is NAME<sep>VALUE; without, an item is a bare
    name and its value is empty.
    """
    items = {}
    for item in filter(None, (s.strip() for s in text.split(","))):
        name, found, value = item.partition(sep) if sep else (item, "", "")
        if sep and not found:
            raise _UsageError(f"bad {what} item {item!r}, want NAME{sep}VALUE")
        if name in items:
            raise _UsageError(f"{what} {name!r} is given twice")
        items[name] = value
    return items


def _parse_pattern(text: str, exclusive: bool) -> DetectionPattern:
    counts = {}
    for name, value in _split_list(text, "detector", ":").items():
        try:
            counts[name] = int(value)
        except ValueError:
            raise _UsageError(
                f"bad count {value!r} for detector {name!r}") from None
    if not counts:
        raise _UsageError("empty pattern")
    return DetectionPattern(counts, exclusive=exclusive)


def _parse_phases(text: str) -> dict[str, float]:
    phases = {}
    for name, value in _split_list(text, "phase", "=").items():
        try:
            phases[name] = float(value)
        except ValueError:
            raise _UsageError(
                f"bad value {value!r} for phase {name!r}") from None
        if not math.isfinite(phases[name]):
            raise _UsageError(f"phase {name!r} value {value!r} is not finite")
    return phases


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError("sweep wants PARAM:START:END:N")
    name, start, end, n = parts
    try:
        start, end, n = float(start), float(end), int(n)
    except ValueError:
        raise _UsageError(f"bad sweep bounds in {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(end)):
        raise _UsageError(f"sweep bounds in {text!r} are not finite")
    # the samples are start + k (end - start) / n: a width that overflows
    # makes them NaN and infinite
    if not math.isfinite(end - start):
        raise _UsageError(f"sweep range in {text!r} is too wide")
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
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise _UsageError(f"bad state file {spec!r}: {exc}")
        if abs(state.norm() - 1.0) > NORM_TOL:
            raise _UsageError(f"state in {spec!r} has norm {state.norm():.6g}, "
                              f"not 1")
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
        return preset(args.preset), args.preset
    try:
        text = Path(args.circuit).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.circuit!r}: {exc}")
    return parse_circuit(text), args.circuit


def _resolve(args) -> RunConfig:
    circuit, source = _load_circuit(args)
    toggles = tuple(_split_list(args.toggles or "", "toggle"))
    if not args.pattern:
        raise _UsageError("--pattern is required unless --verify is given")
    pattern = _parse_pattern(args.pattern, not args.non_exclusive)
    phases = _parse_phases(args.phases or "")
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    # compile ignores a phase it has no element for, and a scan overrides a
    # fixed value of its swept phase; on the command line both are mistakes
    unknown = set(phases) - set(circuit.parameters)
    if unknown:
        raise _UsageError(f"unknown phases {sorted(unknown)}; parameters are "
                          f"{list(circuit.parameters)}")
    if sweep and sweep[0] in phases:
        raise _UsageError(f"phase {sweep[0]!r} is both swept and fixed")
    return RunConfig(circuit=circuit, source=source,
                     input_state=_load_input(args.input or "one-one", circuit),
                     toggles=toggles, pattern=pattern, phases=phases,
                     sweep=sweep, output_format=args.format or "csv")


def _probability(config: RunConfig, phases: dict[str, float]) -> float:
    """The pattern's probability at one phase set, compiled and checked on
    the input's occupied rows, as a sweep is."""
    state = config.input_state
    occupations, (amplitudes,) = _evolve_grid(state, _compile_grid(
        config.circuit, phases, config.toggles, state._occupied_modes()))
    out = _trusted_state(occupations, amplitudes, state.mode_count)
    return pattern_probability(out, config.pattern, config.circuit.detectors)


def _write_json(doc: dict, out) -> None:
    # one dumps call: json.dump and any indent fall back to the pure-Python
    # encoder, which costs more than the whole sweep's physics
    out.write(json.dumps(doc) + "\n")


def _run_sweep(config: RunConfig, out) -> int:
    name, start, end, n = config.sweep
    phis = np.linspace(start, end, n, endpoint=False)
    (harmonics,) = _scan_values(config.circuit, config.input_state, name,
                                config.phases,
                                [(config.toggles, [config.pattern])])
    samples = np.column_stack((phis, _probabilities(harmonics, phis)[0])).tolist()
    if config.output_format == "csv":
        out.write(_samples_csv(samples))
        return 0
    try:
        # no phases: only the fit, without sampling the scan a second time
        fit = _fit_samples(name, phis[:0], harmonics)[0].to_json()["fit"]
    except UnclassifiableScanError:
        fit = None
    _write_json({"circuit": config.source, "parameter": name,
                 "pattern": config.pattern.describe(),
                 "toggles": list(config.toggles),
                 "samples": samples, "fit": fit}, out)
    return 0


def _run_point(config: RunConfig, out) -> int:
    value = _probability(config, config.phases)
    if config.output_format == "csv":
        out.write("pattern,probability\n")
        out.write(f"{config.pattern.describe()},{value!r}\n")
    else:
        _write_json({"circuit": config.source,
                     "pattern": config.pattern.describe(),
                     "toggles": list(config.toggles),
                     "phases": config.phases,
                     "probability": value}, out)
    return 0


def _run_verify(args, out) -> int:
    given = ["--" + name.replace("_", "-") for name, value in vars(args).items()
             if name != "verify" and value not in (None, False)]
    if given:
        raise _UsageError(
            f"--verify takes no other option, got {' '.join(given)}")
    from . import verify
    failures, results = verify.run_all()
    width = max(len(name) for name, _ in results)
    for name, error in results:
        mark = "PASS" if error is None else "FAIL"
        out.write(f"{mark}  {name:<{width}}"
                  + (f"  {error}" if error else "") + "\n")
    out.write(f"{len(results) - failures}/{len(results)} checks passed\n")
    return 0 if failures == 0 else 4


def _worst_splitter(config: RunConfig) -> str:
    """Name the compiled splitter farthest from |t|^2 + |r|^2 = 1.

    Each splitter passes its own ``COEFF_TOL`` check, but their errors add up
    in the compiled matrix; this points at the coefficients to write out in
    full.
    """
    splitters = [e for e in config.circuit.enabled(config.toggles)
                 if e.kind == "bs"]
    if not splitters:
        return ""
    excess = {e.name: abs(e.coeffs.t) ** 2 + abs(e.coeffs.r) ** 2 - 1
              for e in splitters}
    name = max(excess, key=lambda n: abs(excess[n]))
    return (f"; splitter {name} has the largest |t|^2+|r|^2-1, "
            f"{excess[name]:.2g}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = sys.stdout
    config = None
    with warnings.catch_warnings(record=True) as caught:
        # recorded under any filter the caller set, such as -W error
        warnings.simplefilter("default")
        try:
            if args.verify:
                return _run_verify(args, out)
            config = _resolve(args)
            if config.sweep:
                return _run_sweep(config, out)
            return _run_point(config, out)
        except CircuitParseError as exc:
            print(f"mzsim: parse error: {exc}", file=sys.stderr)
            return 3
        except NonUnitaryError as exc:
            hint = _worst_splitter(config) if config else ""
            print(f"mzsim: {exc}{hint}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"mzsim: {exc}", file=sys.stderr)
            return 2
        finally:
            # as the CLI's own notice, such as a pattern's "identically
            # zero": Python's would name a source line that is not the user's
            for warning in caught:
                print(f"mzsim: warning: {warning.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
