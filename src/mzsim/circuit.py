"""Interferometer circuits: elements, presets, the .mzc text format, compile.

A circuit is an ordered list of elements in propagation order.  Elements are
2-mode beam splitter blocks, single-mode delays carrying a named phase
parameter, and mode relabelings (swaps; mirrors and routing are phase-free
relabelings).  Detectors name the modes that are read out.  Elements listed
in ``toggles`` may be removed at compile time: a disabled toggle compiles to
the identity, which models physically taking the splitter out of the beam.

Compiling walks the elements once and updates the columns of the product in
place; ``_compile_grid`` does so at a grid of phases at once, as a
(K x M x M) stack, which is how a scan compiles its grid of phases.

Preset layouts
--------------

``fig1`` is a Mach-Zehnder interferometer (BS1, BS3, balanced) whose two
arms each contain a tap beam splitter (BS4 upper, BS5 lower, coefficients
t1/r1) sending a fraction of the light to monitor detectors D7/D6.  A delay
phi_C sits in the upper arm before its tap; phi_B sits in the lower arm
after its tap.  The MZI outputs are D10 and D11.

Mode numbering follows the convention that every element has two inputs and
two outputs: 0,1 circuit inputs; 2,3 arms; 4,5 vacuum ports of the taps;
6,7 monitor detectors; 8,9 arms after the taps; 10,11 outputs.

``fig2`` adds a balanced, removable splitter BS2 recombining the two tapped
beams before D6/D7 (closing a small inner MZI) plus a delay phi_S on the
D6-side tapped beam.

``fig3`` (= ``braced_3``) nests one more stage: immediately after BS1 both
arms are tapped again (BS4p/BS5p, coefficients t1p/r1p) into a second
removable inner MZI (BS2p, delay phi_Sp, detectors D6p/D7p).  The stage is
wired mirror-fashion: the upper tap exits on the D6p side and phi_Sp sits on
the D7p-side beam.  Each extra stage appends six modes; primed labels map to
fresh indices 12+ (2p..7p -> 12..17, 2pp..7pp -> 18..23, ...).

``braced_4`` and ``braced_5`` repeat the primed-stage pattern inward.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (CircuitError, CircuitParseError, DimensionMismatchError,
                     MissingPhaseError)
from .fock import _is_mode
from .optics import BALANCED, BeamSplitterCoeffs, _real_phases


#: One .mzc token: non-empty text without whitespace (``str.isspace``) or #.
_TOKEN = re.compile(r"[^\s#]+")


def _check_name(what: str, name) -> None:
    if not isinstance(name, str) or not _TOKEN.fullmatch(name):
        raise CircuitError(
            f"{what} name {name!r} must be non-empty text without "
            f"whitespace or '#'")


def _check_modes(what: str, name: str, modes: Iterable[int],
                 mode_count: int) -> None:
    for m in modes:
        if not _is_mode(m, mode_count):
            raise CircuitError(
                f"{what} {name} uses mode {m!r}, mode count is {mode_count}")


@dataclass(frozen=True)
class CircuitElement:
    """One optical element; ``kind`` is "bs", "phase" or "swap".

    Beam splitters carry valid ``coeffs`` and phases a ``param``; no other
    element carries either, so every element has one .mzc line.
    """

    kind: str
    name: str
    modes: tuple[int, ...]
    coeffs: BeamSplitterCoeffs | None = None
    param: str | None = None

    def __post_init__(self):
        _check_name("element", self.name)
        if self.kind == "bs":
            if len(self.modes) != 2 or not isinstance(self.coeffs, BeamSplitterCoeffs):
                raise CircuitError(f"bs element {self.name} needs two modes and coefficients")
            self.coeffs.validate()
        elif self.kind == "phase":
            if len(self.modes) != 1 or not self.param:
                raise CircuitError(f"phase element {self.name} needs one mode and a parameter")
            _check_name("phase parameter", self.param)
        elif self.kind == "swap":
            if len(self.modes) != 2:
                raise CircuitError(f"swap element {self.name} needs two modes")
        else:
            raise CircuitError(f"unknown element kind {self.kind!r}")
        if len(set(self.modes)) != len(self.modes):
            raise CircuitError(f"element {self.name} repeats a mode")
        if self.kind != "bs" and self.coeffs is not None:
            raise CircuitError(f"{self.kind} element {self.name} takes no coefficients")
        if self.kind != "phase" and self.param is not None:
            raise CircuitError(f"{self.kind} element {self.name} takes no parameter")


@dataclass(frozen=True)
class Circuit:
    mode_count: int
    elements: tuple[CircuitElement, ...]
    detectors: dict[str, int] = field(default_factory=dict)
    toggles: frozenset[str] = frozenset()

    def __post_init__(self):
        if not (isinstance(self.mode_count, (int, np.integer))
                and self.mode_count > 0):
            raise CircuitError(
                f"mode count {self.mode_count!r} is not a positive integer")
        names = [e.name for e in self.elements]
        if len(set(names)) != len(names):
            raise CircuitError("duplicate element names")
        for e in self.elements:
            _check_modes("element", e.name, e.modes, self.mode_count)
        for det, mode in self.detectors.items():
            _check_name("detector", det)
            _check_modes("detector", det, (mode,), self.mode_count)
        if len(set(self.detectors.values())) != len(self.detectors):
            raise CircuitError("detector modes must be pairwise distinct")
        unknown = self.toggles - set(names)
        if unknown:
            raise CircuitError(f"toggles reference unknown elements {sorted(unknown)}")

    @property
    def parameters(self) -> tuple[str, ...]:
        seen: list[str] = []
        for e in self.elements:
            if e.kind == "phase" and e.param not in seen:
                seen.append(e.param)
        return tuple(seen)

    def element(self, name: str) -> CircuitElement:
        for e in self.elements:
            if e.name == name:
                return e
        raise KeyError(name)

    def enabled(self, toggles: Iterable[str] = ()) -> tuple[CircuitElement, ...]:
        """Elements in beam order; a toggle stays only when it is named.

        Naming an element that is not a toggle raises :class:`CircuitError`.
        """
        chosen = set(toggles)
        unknown = chosen - self.toggles
        if unknown:
            raise CircuitError(f"unknown toggles {sorted(unknown)}; toggles "
                               f"are {sorted(self.toggles)}")
        return tuple(e for e in self.elements
                     if e.name not in self.toggles or e.name in chosen)


def compile(circuit: Circuit, phases: Mapping[str, float],
            enabled_toggles: Iterable[str] = ()) -> np.ndarray:
    """Total mode unitary, first element acting first (leftmost factor).

    It equals the ordered product of the elements' ``bs_unitary``,
    ``phase_unitary`` and ``swap_unitary`` matrices; it is built by column
    updates, as the one-phase case of :func:`_compile_grid`.  A phase
    value that is not a scalar raises :class:`DimensionMismatchError`.
    """
    arrays = [p for p, v in phases.items() if _phase_values(p, v).ndim]
    if arrays:
        raise DimensionMismatchError(f"compile takes one value per phase; "
                                     f"{arrays} hold arrays")
    return _compile_grid(circuit, phases, enabled_toggles)[0]


def _phase_values(name: str, value) -> np.ndarray:
    """A phase value as an array; a ragged one raises
    :class:`DimensionMismatchError` naming the phase."""
    try:
        return np.asarray(value)
    except ValueError:
        raise DimensionMismatchError(
            f"phase {name} is a ragged array") from None


def _compile_grid(circuit: Circuit, phases: Mapping[str, object],
                  enabled_toggles: Iterable[str] = ()) -> np.ndarray:
    """Mode unitaries at K phase sets at once, as a (K x M x M) stack.

    A phase value is a real number or a length-K array of them, every
    array of one length; slice k of the result is :func:`compile` at the
    k-th entry of every array.  The elements (:meth:`Circuit.enabled`)
    update the columns of K identities once each; each column is one
    contiguous (K x M) block, and a swap only relabels where its columns
    are stored.
    """
    elements = circuit.enabled(enabled_toggles)
    parameters = circuit.parameters
    missing = [p for p in parameters if p not in phases]
    if missing:
        raise MissingPhaseError(f"missing phase parameters {missing}")
    factors, shapes = {}, {}
    for p in parameters:
        values = _real_phases(p, _phase_values(p, phases[p]))
        if values.ndim:
            shapes[p] = values.shape
        factors[p] = np.exp(1j * values)[..., None]
    if (len(set(shapes.values())) > 1
            or any(len(s) != 1 or not s[0] for s in shapes.values())):
        raise DimensionMismatchError(
            "phase arrays must be one-dimensional, non-empty and of one "
            "length; got " + ", ".join(f"{p} of shape {s}"
                                       for p, s in shapes.items()))
    m = circuit.mode_count
    # cols[stored[j]] is column j of the product so far, one row per phase
    cols = np.zeros((m, next(iter(shapes.values()), (1,))[0], m),
                    dtype=complex)
    cols[range(m), :, range(m)] = 1.0
    stored = list(range(m))
    for e in elements:
        if e.kind == "bs":
            t, r = e.coeffs.t, e.coeffs.r
            col_a, col_b = cols[stored[e.modes[0]]], cols[stored[e.modes[1]]]
            mixed = t * col_a + r * col_b
            col_b *= t
            col_b += r * col_a
            col_a[...] = mixed
        elif e.kind == "phase":
            col = cols[stored[e.modes[0]]]
            col *= factors[e.param]
        else:
            a, b = e.modes
            stored[a], stored[b] = stored[b], stored[a]
    return np.ascontiguousarray(cols[stored].transpose(1, 2, 0))


# ---------------------------------------------------------------------------
# presets


def _trusted_element(kind: str, name: str, modes: tuple[int, ...],
                     coeffs: BeamSplitterCoeffs | None = None,
                     param: str | None = None) -> CircuitElement:
    """An element from fields already known to be valid, built without the
    checks of ``CircuitElement.__post_init__``: :func:`braced` generates
    its names and modes, and checks each tap it is given.  The
    ``Circuit`` it builds still checks names, modes and toggles."""
    element = object.__new__(CircuitElement)
    element.__dict__.update(kind=kind, name=name, modes=modes, coeffs=coeffs,
                            param=param)
    return element


def braced(n: int, taps: Sequence[BeamSplitterCoeffs] | None = None) -> Circuit:
    """N-photon braced interferometer stack with N - 1 tap stages.

    ``taps[0]`` is the outermost (unprimed) tap pair, ``taps[q]`` the stage
    with q primes; all default to balanced.  Stage order along the beam is
    innermost (most primed) first.  Stage q's arm inputs, tap vacuum ports
    and detectors D6/D7 are six modes from 2 (q = 0) or 6 + 6q; its arms
    leave on stage q - 1's inputs, stage 0's on modes 8 and 9.  Each tap is
    checked where its BS4 element is built; the other elements, whose names
    and modes are generated here, are built unchecked
    (:func:`_trusted_element`), and the ``Circuit`` checks the whole.
    """
    if n not in range(2, 6):
        raise ValueError(f"braced stack supports 2 <= n <= 5, got {n!r}")
    n = int(n)
    if taps is None:
        taps = [BALANCED] * (n - 1)
    if len(taps) != n - 1:
        raise ValueError(f"need {n - 1} tap coefficient pairs, got {len(taps)}")
    start = [2] + [6 + 6 * q for q in range(1, n - 1)]
    top = start[-1]
    elements = [_trusted_element("bs", "BS1", (0, 1), BALANCED),
                _trusted_element("swap", "BS1a", (0, top)),
                _trusted_element("swap", "BS1b", (1, top + 1)),
                _trusted_element("phase", "PC", (top,), param="phi_C")]
    # detector listing: innermost stage first, outputs last
    detectors: dict[str, int] = {}
    for q in range(n - 2, -1, -1):
        m, p, tap = start[q], "p" * q, taps[q]
        out = start[q - 1] if q else 8
        det_a, det_b = m + 4, m + 5
        # primed stages exit mirror-fashion: upper tap toward the D6 side
        side_a, side_b = (det_a, det_b) if q else (det_b, det_a)
        elements += [
            CircuitElement("bs", f"BS4{p}", (m, m + 2), tap),
            _trusted_element("swap", f"BS4{p}a", (m, out)),
            _trusted_element("swap", f"BS4{p}b", (m + 2, side_a)),
            _trusted_element("bs", f"BS5{p}", (m + 1, m + 3), tap),
            _trusted_element("swap", f"BS5{p}a", (m + 1, out + 1)),
            _trusted_element("swap", f"BS5{p}b", (m + 3, side_b)),
            _trusted_element("phase", f"PS{p}", (side_b,), param=f"phi_S{p}"),
            _trusted_element("bs", f"BS2{p}", (det_a, det_b), BALANCED)]
        detectors[f"D6{p}"], detectors[f"D7{p}"] = det_a, det_b
    elements += [_trusted_element("phase", "PB", (9,), param="phi_B"),
                 _trusted_element("bs", "BS3", (8, 9), BALANCED),
                 _trusted_element("swap", "BS3a", (8, 10)),
                 _trusted_element("swap", "BS3b", (9, 11))]
    detectors.update(D10=10, D11=11)
    toggles = frozenset(f"BS2{'p' * q}" for q in range(n - 1))
    return Circuit(6 * n, tuple(elements), detectors, toggles)


def preset_fig1(tap: BeamSplitterCoeffs = BALANCED) -> Circuit:
    """Tapped MZI without the inner recombiner: parameters phi_C, phi_B."""
    fig2 = braced(2, [tap])
    elements = tuple(e for e in fig2.elements if e.name not in ("PS", "BS2"))
    return Circuit(fig2.mode_count, elements, dict(fig2.detectors), frozenset())


def preset_fig2(tap: BeamSplitterCoeffs = BALANCED) -> Circuit:
    return braced(2, [tap])


def preset_fig3(tap: BeamSplitterCoeffs = BALANCED,
                tap_prime: BeamSplitterCoeffs = BALANCED) -> Circuit:
    return braced(3, [tap, tap_prime])


PRESET_NAMES = ("fig1", "fig2", "fig3", "braced_3", "braced_4", "braced_5")


def preset(name: str) -> Circuit:
    """Preset by name, exactly one of :data:`PRESET_NAMES`."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from "
                         + ", ".join(PRESET_NAMES))
    if name == "fig1":
        return preset_fig1()
    if name == "fig2":
        return preset_fig2()
    if name == "fig3":
        return preset_fig3()
    return braced(int(name.removeprefix("braced_")))


# ---------------------------------------------------------------------------
# .mzc text format


def format_complex(z: complex) -> str:
    """a+bi literal with shortest round-trip floats."""
    re_, im = float(z.real), float(z.imag)
    if im == 0.0:
        return repr(re_)
    if re_ == 0.0:
        return f"{im!r}i"
    sign = "+" if im >= 0 else "-"
    return f"{re_!r}{sign}{abs(im)!r}i"


def parse_complex(text: str) -> complex:
    """Parse an a+bi literal ("1", "0.6i", "-0.3+0.2i", "i")."""
    text = text.strip()
    if len(text.split()) != 1:
        raise ValueError(f"bad complex literal {text!r}")
    try:
        if text.endswith("i"):
            z = complex(text[:-1] + "j")
        else:
            z = complex(float(text))
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex literal {text!r}")
    return z


def serialize(circuit: Circuit) -> str:
    """Deterministic .mzc text; parse(serialize(c)) reproduces c exactly."""
    lines = [f"modes {circuit.mode_count}"]
    for e in circuit.elements:
        if e.kind == "bs":
            line = (f"bs {e.name} {e.modes[0]} {e.modes[1]} "
                    f"T={format_complex(e.coeffs.t)} R={format_complex(e.coeffs.r)}")
        elif e.kind == "phase":
            line = f"phase {e.name} {e.modes[0]} {e.param}"
        else:
            line = f"swap {e.name} {e.modes[0]} {e.modes[1]}"
        if e.name in circuit.toggles:
            line += " toggle"
        lines.append(line)
    for det, mode in circuit.detectors.items():
        lines.append(f"detect {det} {mode}")
    return "\n".join(lines) + "\n"


#: Each directive's token count, less an element's trailing "toggle", and
#: its usage.
_DIRECTIVES = {"modes": (2, "modes M"), "detect": (3, "detect NAME MODE"),
               "bs": (6, "bs NAME A B T=c R=c [toggle]"),
               "phase": (4, "phase NAME MODE PARAM [toggle]"),
               "swap": (4, "swap NAME A B [toggle]")}


def _index(token: str, what: str = "mode index") -> int:
    try:
        value = int(token)
    except ValueError:
        raise CircuitError(f"bad {what} {token!r}") from None
    if value < 0:
        raise CircuitError(f"negative {what} {value}")
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    Directives: ``modes M`` (optional, else inferred; it comes first),
    ``bs NAME A B T=c R=c``, ``phase NAME MODE PARAM``, ``swap NAME A B``,
    ``detect NAME MODE``.  An element line may end in ``toggle`` to make
    the element removable.  ``#`` starts a comment.

    Each line is checked as it is read, by the rules of
    :class:`CircuitElement` and :class:`Circuit`.  A fault of any line,
    whether syntax, element or detector (a repeated name, a mode past
    ``modes``, a detector on another detector's mode), raises
    :class:`CircuitParseError` carrying that line's 1-based number.
    """
    mode_count: int | None = None
    elements: dict[str, CircuitElement] = {}
    detectors: dict[str, int] = {}
    toggles: set[str] = set()
    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        try:
            directive = tokens[0]
            if directive not in _DIRECTIVES:
                raise CircuitError(f"unknown directive {directive!r}")
            count, usage = _DIRECTIVES[directive]
            if usage.endswith("[toggle]") and tokens[count:] == ["toggle"]:
                del tokens[count]
                toggles.add(tokens[1])
            if len(tokens) != count:
                raise CircuitError(f"usage: {usage}")
            if directive == "modes":
                if mode_count is not None or elements or detectors:
                    raise CircuitError("modes must come first, and only once")
                mode_count = _index(tokens[1], "mode count")
                Circuit(mode_count, ())  # a count no circuit takes raises
                continue
            name = tokens[1]
            if name in (detectors if directive == "detect" else elements):
                raise CircuitError(f"duplicate name {name!r}")
            modes = tuple(map(_index, tokens[2:4 if directive in ("bs", "swap")
                                              else 3]))
            if mode_count is not None:
                _check_modes(directive, name, modes, mode_count)
            if directive == "detect":
                if modes[0] in detectors.values():
                    raise CircuitError("detector modes must be pairwise distinct")
                detectors[name] = modes[0]
            elif directive == "bs":
                kv = dict(t.partition("=")[::2] for t in tokens[4:])
                if set(kv) != {"T", "R"}:
                    raise CircuitError("bs line needs exactly T= and R=")
                coeffs = BeamSplitterCoeffs(parse_complex(kv["T"]),
                                            parse_complex(kv["R"]))
                elements[name] = CircuitElement("bs", name, modes, coeffs)
            else:
                elements[name] = CircuitElement(
                    directive, name, modes,
                    param=tokens[3] if directive == "phase" else None)
        except ValueError as exc:
            raise CircuitParseError(line_no, str(exc)) from exc

    if mode_count is None:
        used = [m for e in elements.values() for m in e.modes]
        used += detectors.values()
        if not used:
            raise CircuitParseError(1, "empty circuit")
        mode_count = max(used) + 1
    try:
        return Circuit(mode_count, tuple(elements.values()), detectors,
                       frozenset(toggles))
    except CircuitError as exc:
        raise CircuitParseError(len(lines) or 1, str(exc)) from exc


def load_preset_file(name: str) -> Circuit:
    """Parse one of the .mzc files shipped with the package."""
    text = (resources.files("mzsim") / "circuits" / f"{name}.mzc").read_text()
    return parse_circuit(text)
