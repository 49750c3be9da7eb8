"""Interferometer circuits: elements, presets, the .mzc text format, compile.

A circuit is an ordered list of elements in propagation order.  Elements are
2-mode beam splitter blocks, single-mode delays carrying a named phase
parameter, and mode relabelings (swaps; mirrors and routing are phase-free
relabelings).  Detectors name the modes that are read out.  Elements listed
in ``toggles`` may be removed at compile time: a disabled toggle compiles to
the identity, which models physically taking the splitter out of the beam.

Compiling walks the elements once and updates the columns of the product in
place: a splitter mixes two columns, a delay scales one, a swap exchanges
two.  One pass can compile a circuit at K phase sets at once, as a
(K x M x M) stack; a scan uses that for its grid of phases.

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

from .errors import (CircuitError, CircuitParseError, MissingPhaseError)
from .optics import BALANCED, BeamSplitterCoeffs


#: One .mzc token: non-empty text without whitespace (``str.isspace``) or #.
_TOKEN = re.compile(r"[^\s#]+")


def _check_name(what: str, name) -> None:
    if not isinstance(name, str) or not _TOKEN.fullmatch(name):
        raise CircuitError(
            f"{what} name {name!r} must be non-empty text without "
            f"whitespace or '#'")


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
            if len(self.modes) != 2 or self.coeffs is None:
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
        names = [e.name for e in self.elements]
        if len(set(names)) != len(names):
            raise CircuitError("duplicate element names")
        for e in self.elements:
            if any(not 0 <= m < self.mode_count for m in e.modes):
                raise CircuitError(
                    f"element {e.name} uses modes {e.modes}, "
                    f"mode count is {self.mode_count}")
            if len(set(e.modes)) != len(e.modes):
                raise CircuitError(f"element {e.name} repeats a mode")
        for det, mode in self.detectors.items():
            _check_name("detector", det)
            if not 0 <= mode < self.mode_count:
                raise CircuitError(f"detector {det} mode {mode} out of range")
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


def compile(circuit: Circuit, phases: Mapping[str, float],
            enabled_toggles: Iterable[str] = ()) -> np.ndarray:
    """Total mode unitary, first element acting first (leftmost factor).

    It equals the ordered product of the elements' ``bs_unitary``,
    ``phase_unitary`` and ``swap_unitary`` matrices; it is built by column
    updates, as the one-phase case of :func:`_compile_grid`.
    """
    return _compile_grid(circuit, phases, enabled_toggles)[0]


def _compile_grid(circuit: Circuit, phases: Mapping[str, object],
                  enabled_toggles: Iterable[str] = ()) -> np.ndarray:
    """Mode unitaries at K phase sets at once, as a (K x M x M) stack.

    A phase value is a float or a length-K array; slice k of the result is
    :func:`compile` at the k-th entry of every array.  Starting from K
    identities, the elements are applied once each, in order, by column
    updates: a splitter mixes its two columns, a delay scales its column by
    e^{i phi} (by K factors when its parameter is an array), and a swap
    exchanges two columns, which is done by relabeling where each column is
    stored.  A disabled toggle is skipped.
    """
    enabled = set(enabled_toggles)
    unknown = enabled - circuit.toggles
    if unknown:
        raise CircuitError(f"unknown toggles {sorted(unknown)}")
    missing = [p for p in circuit.parameters if p not in phases]
    if missing:
        raise MissingPhaseError(f"missing phase parameters {missing}")
    factors = {}
    for p in circuit.parameters:
        values = np.asarray(phases[p], dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"phase {p} is not finite")
        factors[p] = np.exp(1j * values)[..., None]
    m = circuit.mode_count
    # cols[:, stored[j]] is column j of the product so far, kept as a row
    cols = np.zeros((max((f.size for f in factors.values()), default=1), m, m),
                    dtype=complex)
    cols[:, range(m), range(m)] = 1.0
    stored = list(range(m))
    for e in circuit.elements:
        if e.name in circuit.toggles and e.name not in enabled:
            continue
        if e.kind == "bs":
            t, r = e.coeffs.t, e.coeffs.r
            col_a, col_b = cols[:, stored[e.modes[0]]], cols[:, stored[e.modes[1]]]
            mixed = t * col_a + r * col_b
            col_b *= t
            col_b += r * col_a
            col_a[...] = mixed
        elif e.kind == "phase":
            cols[:, stored[e.modes[0]]] *= factors[e.param]
        else:
            a, b = e.modes
            stored[a], stored[b] = stored[b], stored[a]
    return np.ascontiguousarray(cols[:, stored].transpose(0, 2, 1))


# ---------------------------------------------------------------------------
# presets


def _primes(q: int) -> str:
    return "p" * q


def braced(n: int, taps: Sequence[BeamSplitterCoeffs] | None = None) -> Circuit:
    """N-photon braced interferometer stack with N - 1 tap stages.

    ``taps[0]`` is the outermost (unprimed) tap pair, ``taps[q]`` the stage
    with q primes; all default to balanced.  Stage order along the beam is
    innermost (most primed) first.
    """
    if not 2 <= n <= 5:
        raise ValueError(f"braced stack supports 2 <= n <= 5, got {n}")
    stages = n - 1                      # tap stages, innermost first
    primed = stages - 1                 # number of primed stages
    if taps is None:
        taps = [BALANCED] * stages
    if len(taps) != stages:
        raise ValueError(f"need {stages} tap coefficient pairs, got {len(taps)}")
    for c in taps:
        c.validate()
    mode_count = 12 + 6 * primed

    def block(q: int) -> dict[str, int]:
        # mode indices of the stage with q primes
        if q == 0:
            return {"up_in": 2, "lo_in": 3, "up_vac": 4, "lo_vac": 5,
                    "det_a": 6, "det_b": 7, "up_out": 8, "lo_out": 9}
        base = 12 + 6 * (q - 1)
        nxt = block(q - 1)
        return {"up_in": base + 0, "lo_in": base + 1, "up_vac": base + 2,
                "lo_vac": base + 3, "det_a": base + 4, "det_b": base + 5,
                "up_out": nxt["up_in"], "lo_out": nxt["lo_in"]}

    elements: list[CircuitElement] = []
    detectors: dict[str, int] = {}
    toggles: set[str] = set()
    first = block(primed)

    elements.append(CircuitElement("bs", "BS1", (0, 1), BALANCED))
    elements.append(CircuitElement("swap", "BS1a", (0, first["up_in"])))
    elements.append(CircuitElement("swap", "BS1b", (1, first["lo_in"])))
    elements.append(CircuitElement("phase", "PC", (first["up_in"],), param="phi_C"))

    for q in range(primed, -1, -1):
        b = block(q)
        p = _primes(q)
        tap = taps[q]
        elements.append(CircuitElement("bs", f"BS4{p}", (b["up_in"], b["up_vac"]), tap))
        elements.append(CircuitElement("swap", f"BS4{p}a", (b["up_in"], b["up_out"])))
        if q > 0:
            # primed stages exit mirror-fashion: upper tap toward the D6 side
            elements.append(CircuitElement("swap", f"BS4{p}b", (b["up_vac"], b["det_a"])))
        else:
            elements.append(CircuitElement("swap", "BS4b", (b["up_vac"], b["det_b"])))
        elements.append(CircuitElement("bs", f"BS5{p}", (b["lo_in"], b["lo_vac"]), tap))
        elements.append(CircuitElement("swap", f"BS5{p}a", (b["lo_in"], b["lo_out"])))
        if q > 0:
            elements.append(CircuitElement("swap", f"BS5{p}b", (b["lo_vac"], b["det_b"])))
            elements.append(CircuitElement("phase", f"PS{p}", (b["det_b"],),
                                           param=f"phi_S{p}"))
        else:
            elements.append(CircuitElement("swap", "BS5b", (b["lo_vac"], b["det_a"])))
            elements.append(CircuitElement("phase", "PS", (b["det_a"],),
                                           param="phi_S"))
        elements.append(CircuitElement("bs", f"BS2{p}", (b["det_a"], b["det_b"]),
                                       BALANCED))
        toggles.add(f"BS2{p}")
        detectors[f"D6{p}"] = b["det_a"]
        detectors[f"D7{p}"] = b["det_b"]

    elements.append(CircuitElement("phase", "PB", (9,), param="phi_B"))
    elements.append(CircuitElement("bs", "BS3", (8, 9), BALANCED))
    elements.append(CircuitElement("swap", "BS3a", (8, 10)))
    elements.append(CircuitElement("swap", "BS3b", (9, 11)))
    detectors["D10"] = 10
    detectors["D11"] = 11

    # detector listing: innermost stage first, outputs last
    ordered = {}
    for q in range(primed, -1, -1):
        p = _primes(q)
        ordered[f"D6{p}"] = detectors[f"D6{p}"]
        ordered[f"D7{p}"] = detectors[f"D7{p}"]
    ordered["D10"] = detectors["D10"]
    ordered["D11"] = detectors["D11"]

    return Circuit(mode_count, tuple(elements), ordered, frozenset(toggles))


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


def preset(name: str) -> Circuit:
    """Preset by name: fig1, fig2, fig3, braced_3 .. braced_5."""
    if name == "fig1":
        return preset_fig1()
    if name == "fig2":
        return preset_fig2()
    if name == "fig3":
        return preset_fig3()
    match = re.fullmatch(r"braced_(\d+)", name)
    if match:
        return braced(int(match.group(1)))
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig1", "fig2", "fig3", "braced_3", "braced_4", "braced_5")


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
    if not text or any(c.isspace() for c in text):
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


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format.

    Directives: ``modes M`` (optional, else inferred), ``bs NAME A B T=c R=c``,
    ``phase NAME MODE PARAM``, ``swap NAME A B``, ``detect NAME MODE``.  An
    element line may end in ``toggle`` to make the element removable.  ``#``
    starts a comment.  Errors carry the 1-based line number.
    """
    mode_count: int | None = None
    elements: list[CircuitElement] = []
    detectors: dict[str, int] = {}
    toggles: set[str] = set()
    names: set[str] = set()

    def err(line_no: int, msg: str):
        raise CircuitParseError(line_no, msg)

    def parse_mode(tok: str, line_no: int) -> int:
        try:
            value = int(tok)
        except ValueError:
            err(line_no, f"bad mode index {tok!r}")
        if value < 0:
            err(line_no, f"negative mode index {value}")
        return value

    def element_name(tokens: list[str], count: int, usage: str,
                     line_no: int) -> str:
        # an element line has ``count`` tokens, or one more: "toggle"
        if len(tokens) not in (count, count + 1):
            err(line_no, f"usage: {usage} [toggle]")
        if len(tokens) > count:
            if tokens[count] != "toggle":
                err(line_no, f"unexpected token {tokens[count]!r}")
            toggles.add(tokens[1])
        if tokens[1] in names:
            err(line_no, f"duplicate element name {tokens[1]!r}")
        names.add(tokens[1])
        return tokens[1]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive = tokens[0]
        if directive == "modes":
            if mode_count is not None:
                err(line_no, "duplicate modes directive")
            if elements or detectors:
                err(line_no, "modes directive must come before elements")
            if len(tokens) != 2:
                err(line_no, "usage: modes M")
            try:
                mode_count = int(tokens[1])
            except ValueError:
                err(line_no, f"bad mode count {tokens[1]!r}")
            if mode_count <= 0:
                err(line_no, "mode count must be positive")
        elif directive == "bs":
            name = element_name(tokens, 6, "bs NAME A B T=c R=c", line_no)
            a = parse_mode(tokens[2], line_no)
            b = parse_mode(tokens[3], line_no)
            kv = {}
            for tok in tokens[4:6]:
                if "=" not in tok:
                    err(line_no, f"expected T=.. or R=.., got {tok!r}")
                key, _, value = tok.partition("=")
                kv[key] = value
            if set(kv) != {"T", "R"}:
                err(line_no, "bs line needs exactly T= and R=")
            try:
                coeffs = BeamSplitterCoeffs(parse_complex(kv["T"]),
                                            parse_complex(kv["R"])).validate()
            except ValueError as exc:
                err(line_no, str(exc))
            elements.append(CircuitElement("bs", name, (a, b), coeffs))
        elif directive == "phase":
            name = element_name(tokens, 4, "phase NAME MODE PARAM", line_no)
            mode = parse_mode(tokens[2], line_no)
            elements.append(CircuitElement("phase", name, (mode,), param=tokens[3]))
        elif directive == "swap":
            name = element_name(tokens, 4, "swap NAME A B", line_no)
            a = parse_mode(tokens[2], line_no)
            b = parse_mode(tokens[3], line_no)
            elements.append(CircuitElement("swap", name, (a, b)))
        elif directive == "detect":
            if len(tokens) != 3:
                err(line_no, "usage: detect NAME MODE")
            name = tokens[1]
            if name in detectors:
                err(line_no, f"duplicate detector {name!r}")
            detectors[name] = parse_mode(tokens[2], line_no)
        else:
            err(line_no, f"unknown directive {directive!r}")

    used = [m for e in elements for m in e.modes] + list(detectors.values())
    if mode_count is None:
        if not used:
            raise CircuitParseError(1, "empty circuit")
        mode_count = max(used) + 1
    try:
        return Circuit(mode_count, tuple(elements), detectors, frozenset(toggles))
    except CircuitError as exc:
        raise CircuitParseError(len(text.splitlines()) or 1, str(exc)) from exc


def load_preset_file(name: str) -> Circuit:
    """Parse one of the .mzc files shipped with the package."""
    text = (resources.files("mzsim") / "circuits" / f"{name}.mzc").read_text()
    return parse_circuit(text)
