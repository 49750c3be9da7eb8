"""Sparse multimode Fock states.

A state is a map from occupation vectors (one photon count per mode) to
complex amplitudes.  Only kets with nonzero amplitude are stored, which keeps
few-photon states over many modes cheap: the dimension of the N-photon sector
of M modes is C(N+M-1, N), but the states produced by passive interferometers
touch only a small corner of it.

All occupation vectors in one state must have the same length (the mode
count) and the same total photon number, since passive linear optics never
changes the photon number.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Mapping

from .errors import (DegenerateStateError, DimensionMismatchError,
                     NonFiniteAmplitudeError, SectorError)

Occupation = tuple[int, ...]

#: Amplitudes below this magnitude are dropped when states are built.
PRUNE_THRESHOLD = 1e-14

_INF = math.inf


def _check_occupation(occ: Occupation, mode_count: int) -> Occupation:
    occ = tuple(int(n) for n in occ)
    if len(occ) != mode_count:
        raise DimensionMismatchError(
            f"occupation {occ} has {len(occ)} modes, expected {mode_count}")
    if any(n < 0 for n in occ):
        raise ValueError(f"negative photon count in occupation {occ}")
    return occ


class FockState:
    """Immutable sparse superposition of Fock basis states.

    >>> s = FockState({(2, 0): 0.5, (0, 2): 0.5, (1, 1): -0.5j * math.sqrt(2)})
    >>> s.mode_count, s.total_photons
    (2, 2)
    >>> abs(s.norm() - 1.0) < 1e-15
    True
    """

    __slots__ = ("_amp", "mode_count", "total_photons")

    def __init__(self, amplitudes: Mapping[Occupation, complex],
                 mode_count: int | None = None, *, prune: float = PRUNE_THRESHOLD):
        items = list(amplitudes.items())
        if mode_count is None:
            if not items:
                raise ValueError("cannot infer mode count of an empty state")
            mode_count = len(items[0][0])
        amp: dict[Occupation, complex] = {}
        total: int | None = None
        for occ, a in items:
            occ = _check_occupation(occ, mode_count)
            a = complex(a)
            magnitude = abs(a)
            if magnitude <= prune:
                continue
            if not magnitude < _INF:
                raise NonFiniteAmplitudeError(
                    f"amplitude {a} at {occ} is not finite")
            n = sum(occ)
            if total is None:
                total = n
            elif n != total:
                raise SectorError(
                    f"mixed photon numbers {total} and {n} in one state")
            amp[occ] = amp.get(occ, 0j) + a
        self._amp = amp
        self.mode_count = mode_count
        self.total_photons = total if total is not None else 0

    # -- mapping-ish access -------------------------------------------------

    def __getitem__(self, occ: Iterable[int]) -> complex:
        return self._amp.get(tuple(occ), 0j)

    def __contains__(self, occ: Iterable[int]) -> bool:
        return tuple(occ) in self._amp

    def __len__(self) -> int:
        return len(self._amp)

    def __iter__(self) -> Iterator[Occupation]:
        return iter(sorted(self._amp))

    def items(self) -> list[tuple[Occupation, complex]]:
        """Amplitudes in lexicographic occupation order."""
        return sorted(self._amp.items())

    def occupations(self) -> list[Occupation]:
        return sorted(self._amp)

    # -- algebra ------------------------------------------------------------

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._amp.values()))

    def normalized(self) -> "FockState":
        n = self.norm()
        if n == 0.0:
            raise DegenerateStateError("cannot normalize a zero state")
        return FockState({occ: a / n for occ, a in self._amp.items()},
                         self.mode_count, prune=0.0)

    def __mul__(self, scalar: complex) -> "FockState":
        return FockState({occ: a * scalar for occ, a in self._amp.items()},
                         self.mode_count, prune=0.0)

    __rmul__ = __mul__

    def __add__(self, other: "FockState") -> "FockState":
        if other.mode_count != self.mode_count:
            raise DimensionMismatchError("cannot add states on different mode counts")
        out = dict(self._amp)
        for occ, a in other._amp.items():
            out[occ] = out.get(occ, 0j) + a
        return FockState(out, self.mode_count)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + (other * -1.0)

    def allclose(self, other: "FockState", tol: float = 1e-12) -> bool:
        if other.mode_count != self.mode_count:
            return False
        keys = set(self._amp) | set(other._amp)
        return all(abs(self[k] - other[k]) <= tol for k in keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return self.mode_count == other.mode_count and self._amp == other._amp

    def __repr__(self) -> str:
        terms = ", ".join(f"{occ}: {a:.6g}" for occ, a in self.items())
        return f"FockState({{{terms}}}, modes={self.mode_count})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """JSON array of ``{occupation, re, im}`` in lexicographic key order."""
        rows = [{"occupation": list(occ), "re": a.real, "im": a.imag}
                for occ, a in self.items()]
        return json.dumps(rows)

    @classmethod
    def from_json(cls, text: str, mode_count: int | None = None) -> "FockState":
        rows = json.loads(text)
        amp = {tuple(r["occupation"]): complex(r["re"], r["im"]) for r in rows}
        return cls(amp, mode_count)


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b> with the conjugate on the first argument."""
    if a.mode_count != b.mode_count:
        raise DimensionMismatchError("inner product of states on different mode counts")
    small = a if len(a) <= len(b) else b
    acc = 0j
    for occ in small.occupations():
        acc += a[occ].conjugate() * b[occ]
    return acc


def normalize(state: FockState) -> FockState:
    return state.normalized()


def basis_state(occ: Iterable[int]) -> FockState:
    """Single Fock basis ket |occ> with amplitude 1."""
    occ = tuple(occ)
    return FockState({occ: 1.0}, len(occ))


def vacuum(mode_count: int) -> FockState:
    return basis_state((0,) * mode_count)


def embed(state: FockState, mode_count: int, modes: Iterable[int]) -> FockState:
    """Place a small state onto the given modes of a larger register.

    ``modes`` lists, for each mode of ``state``, its index in the larger
    register; every other mode is left in vacuum.
    """
    modes = tuple(modes)
    if len(modes) != state.mode_count:
        raise DimensionMismatchError("embed: one target index per source mode required")
    if len(set(modes)) != len(modes) or any(not 0 <= m < mode_count for m in modes):
        raise ValueError(f"embed: invalid target modes {modes}")
    amp = {}
    for occ, a in state.items():
        big = [0] * mode_count
        for m, n in zip(modes, occ):
            big[m] = n
        amp[tuple(big)] = a
    return FockState(amp, mode_count, prune=0.0)
