"""Sparse multimode Fock states stored as two aligned arrays.

A state holds only the kets with nonzero amplitude, which keeps few-photon
states over many modes cheap: the dimension of the N-photon sector of M
modes is C(N+M-1, N), but the states produced by passive interferometers
touch only a small corner of it.  The kets are stored as a (kets x modes)
``uint8`` occupation array whose rows are unique and in lexicographic order,
next to a ``complex128`` vector of their amplitudes.  On top sits a mapping
API (``items``, ``state[occ]``, ``occ in state``, iteration) that yields
occupation tuples in that same order.

A photon count fits in one byte, so each row read as one fixed-width byte
string is a key whose byte order is the lexicographic order of the
occupations, whatever the mode count; the private helpers below merge,
match and look up rows on those keys.  :func:`_check_occupation` is the
one photon-count rule: it turns an occupation into that key, or raises.
``FockState(mapping)``, lookups, ``measurement.DensityMatrix(mapping)``
and detection patterns all read counts through it, while
:func:`_trusted_state` builds a state from rows already known to be
valid.  ``DensityMatrix`` stores its basis the same way and merges it
with :func:`_union`.

All occupation vectors in one state must have the same length (the mode
count) and the same total photon number, since passive linear optics never
changes the photon number.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (DegenerateStateError, DimensionMismatchError,
                     NonFiniteAmplitudeError, PhotonCountError, SectorError)

Occupation = tuple[int, ...]

#: Amplitudes below this magnitude are dropped when states are built.
PRUNE_THRESHOLD = 1e-14

#: Largest photon count one mode of a stored state can hold (one byte).
MAX_MODE_PHOTONS = 255
_COUNTS = range(MAX_MODE_PHOTONS + 1)

def _is_mode(m, mode_count=math.inf) -> bool:
    """Whether ``m`` is a mode index below ``mode_count``: an ``int`` or
    numpy integer, not a ``bool``, and not negative."""
    return (isinstance(m, (int, np.integer)) and not isinstance(m, bool)
            and 0 <= m < mode_count)


def _valid_modes(modes: tuple, mode_count=math.inf) -> bool:
    """Whether ``modes`` are distinct mode indices below ``mode_count``."""
    return len(set(modes)) == len(modes) and all(
        _is_mode(m, mode_count) for m in modes)


def _check_occupation(occ: Iterable[int], mode_count: int) -> bytes:
    """``occ`` as one byte per mode, or :class:`DimensionMismatchError` for
    the wrong length and :class:`PhotonCountError` for a count that is not
    a whole number in 0..255.

    The one photon-count rule of the package.  Counts given as ``int``,
    ``bool`` or numpy integers convert in one ``bytes`` call; any other
    type falls back to ``n in range(256)``, which compares by equality, so
    ``1.0`` and ``Fraction(1)`` are counts while 1.5, "1" and inf are not.
    """
    occ = tuple(occ)
    if len(occ) != mode_count:
        raise DimensionMismatchError(
            f"occupation {occ} has {len(occ)} modes, expected {mode_count}")
    try:
        return bytes(occ)
    except (TypeError, ValueError):
        if all(n in _COUNTS for n in occ):
            return bytes(map(int, occ))
    raise PhotonCountError(f"occupation {occ} has a photon count that is "
                           f"not a whole number in 0..{MAX_MODE_PHOTONS}")


def _amplitude(where, *parts) -> complex:
    """``complex(*parts)``, or :class:`NonFiniteAmplitudeError` naming
    ``where`` when a part is NaN, infinite or too large for a float."""
    try:
        a = complex(*parts)
        if math.isfinite(a.real) and math.isfinite(a.imag):
            return a
    except OverflowError:
        a = "too large for a float"
    raise NonFiniteAmplitudeError(f"amplitude {a} at {where} is not finite")


def _keys(occupations: np.ndarray) -> np.ndarray:
    """One fixed-width byte-string key per row of a uint8 occupation array."""
    rows = np.ascontiguousarray(occupations, dtype=np.uint8)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def _union(occupations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order, and where each input row went."""
    keys, inverse = np.unique(_keys(occupations), return_inverse=True)
    return keys.view(np.uint8).reshape(len(keys), occupations.shape[1]), inverse


def _merge(occupations: np.ndarray,
           amplitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows lexicographically and sum the amplitudes of equal rows."""
    rows, inverse = _union(occupations)
    summed = np.empty(len(rows), dtype=complex)
    summed.real = np.bincount(inverse, amplitudes.real, len(rows))
    summed.imag = np.bincount(inverse, amplitudes.imag, len(rows))
    return rows, summed


def _find_row(keys: np.ndarray, occ: Iterable[int]) -> int:
    """Index of ``occ`` among the sorted :func:`_keys` of unique rows, or -1,
    also when ``occ`` is not an occupation of their width."""
    try:
        key = np.void(_check_occupation(occ, keys.dtype.itemsize))
    except (DimensionMismatchError, PhotonCountError):
        return -1
    i = int(keys.searchsorted(key))
    return i if i < len(keys) and keys[i] == key else -1


def _common_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices into two unique occupation arrays of the rows they share."""
    _, ia, ib = np.intersect1d(_keys(a), _keys(b), assume_unique=True,
                               return_indices=True)
    return ia, ib


def _check_finite(occupations: np.ndarray, amplitudes: np.ndarray) -> None:
    """Raise :class:`NonFiniteAmplitudeError` at the first NaN or infinite
    entry of a 1-D or (K x n) amplitude array, in row-major order, naming
    its value and the ket of its column among ``occupations``."""
    finite = np.isfinite(amplitudes)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0])
        raise NonFiniteAmplitudeError(
            f"amplitude {amplitudes[bad]} at "
            f"{tuple(occupations[bad[-1]].tolist())} is not finite")


def _trusted_state(occupations: np.ndarray, amplitudes: np.ndarray,
                   mode_count: int, *,
                   prune: float = PRUNE_THRESHOLD) -> "FockState":
    """A state from uint8 rows already sorted, unique and in one sector.

    Only the amplitudes are checked: a NaN or infinite one raises
    :class:`NonFiniteAmplitudeError`, and those at or below ``prune`` in
    magnitude are dropped.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    _check_finite(occupations, amplitudes)
    keep = np.abs(amplitudes) > prune
    if not keep.all():
        occupations, amplitudes = occupations[keep], amplitudes[keep]
    state = object.__new__(FockState)
    state._store(occupations, amplitudes, mode_count)
    return state


class FockState:
    """Immutable sparse superposition of Fock basis states.

    >>> s = FockState({(2, 0): 0.5, (0, 2): 0.5, (1, 1): -0.5j * math.sqrt(2)})
    >>> s.mode_count, s.total_photons
    (2, 2)
    >>> abs(s.norm() - 1.0) < 1e-15
    True
    """

    __slots__ = ("_occ", "_amp", "mode_count", "total_photons", "_modes")

    def __init__(self, amplitudes: Mapping[Occupation, complex],
                 mode_count: int | None = None, *, prune: float = PRUNE_THRESHOLD):
        items = list(amplitudes.items())
        if mode_count is None:
            if not items:
                raise ValueError("cannot infer mode count of an empty state")
            mode_count = len(items[0][0])
        if mode_count < 1:
            raise ValueError("a state needs at least one mode")
        amp: dict[bytes, complex] = {}
        total: int | None = None
        for occ, a in items:
            key = _check_occupation(occ, mode_count)
            a = _amplitude(occ, a)
            # abs() raises where hypot() gives inf, past the largest float
            if math.hypot(a.real, a.imag) <= prune:
                continue
            n = sum(key)
            if total is None:
                total = n
            elif n != total:
                raise SectorError(
                    f"mixed photon numbers {total} and {n} in one state")
            amp[key] = amp.get(key, 0j) + a
        kets = sorted(amp)
        self._store(np.frombuffer(b"".join(kets), dtype=np.uint8)
                    .reshape(len(kets), mode_count),
                    np.array([amp[k] for k in kets], dtype=complex), mode_count)

    def _store(self, occupations: np.ndarray, amplitudes: np.ndarray,
               mode_count: int) -> None:
        occupations.flags.writeable = False
        amplitudes.flags.writeable = False
        self._occ = occupations
        self._amp = amplitudes
        self.mode_count = mode_count
        self.total_photons = int(occupations[0].sum()) if len(occupations) else 0
        self._modes = None

    def _occupied_modes(self) -> np.ndarray:
        """The modes some ket holds photons in, in mode order (read-only):
        the rows of a unitary that an expansion of the state reads.  Found
        on the first call and kept, as a phase loop evolves one state again
        and again."""
        if self._modes is None:
            self._modes = np.flatnonzero(self._occ.any(axis=0))
            self._modes.flags.writeable = False
        return self._modes

    # -- array access -------------------------------------------------------

    @property
    def occupation_array(self) -> np.ndarray:
        """Read-only (kets x modes) uint8 occupations, rows in lexicographic order."""
        return self._occ

    @property
    def amplitude_array(self) -> np.ndarray:
        """Read-only complex amplitudes aligned with :attr:`occupation_array`."""
        return self._amp

    # -- mapping-ish access -------------------------------------------------

    def __getitem__(self, occ: Iterable[int]) -> complex:
        i = _find_row(_keys(self._occ), occ)
        return complex(self._amp[i]) if i >= 0 else 0j

    def __contains__(self, occ: Iterable[int]) -> bool:
        return _find_row(_keys(self._occ), occ) >= 0

    def __len__(self) -> int:
        return len(self._amp)

    def __iter__(self) -> Iterator[Occupation]:
        return iter(self.occupations())

    def items(self) -> list[tuple[Occupation, complex]]:
        """Amplitudes in lexicographic occupation order."""
        return list(zip(self.occupations(), self._amp.tolist()))

    def occupations(self) -> list[Occupation]:
        return list(map(tuple, self._occ.tolist()))

    # -- algebra ------------------------------------------------------------

    def _scaled(self) -> tuple[float, np.ndarray]:
        """A power of two and the amplitudes divided by it.

        The scale is the largest power of two not above the largest |re| or
        |im|, so dividing by it is exact and the norm rounds as it would
        unscaled.  Summing the squares of the scaled amplitudes cannot
        overflow, and a square that underflows is negligible against the
        largest, which is at least 1.
        """
        largest = max(float(np.abs(part).max(initial=0.0))
                      for part in (self._amp.real, self._amp.imag))
        if not largest:
            return 0.0, self._amp
        scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
        return scale, self._amp / scale

    def norm(self) -> float:
        """Euclidean norm; ``inf`` only if it exceeds the largest float."""
        scale, scaled = self._scaled()
        return scale * float(np.linalg.norm(scaled))

    def normalized(self) -> "FockState":
        scale, scaled = self._scaled()
        if scale == 0.0:
            raise DegenerateStateError("cannot normalize a zero state")
        return _trusted_state(self._occ, scaled / np.linalg.norm(scaled),
                              self.mode_count, prune=0.0)

    def __mul__(self, scalar: complex) -> "FockState":
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                amplitudes = self._amp * scalar
        except OverflowError:   # an int too large for a float
            raise NonFiniteAmplitudeError(
                "scalar too large for a float is not finite") from None
        return _trusted_state(self._occ, amplitudes, self.mode_count, prune=0.0)

    __rmul__ = __mul__

    def __add__(self, other: "FockState") -> "FockState":
        if other.mode_count != self.mode_count:
            raise DimensionMismatchError("cannot add states on different mode counts")
        if len(self) and len(other) and other.total_photons != self.total_photons:
            raise SectorError(
                f"mixed photon numbers {self.total_photons} and "
                f"{other.total_photons} in one state")
        occ, amp = _merge(np.concatenate([self._occ, other._occ]),
                          np.concatenate([self._amp, other._amp]))
        return _trusted_state(occ, amp, self.mode_count)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + (other * -1.0)

    def allclose(self, other: "FockState", tol: float = 1e-12) -> bool:
        if other.mode_count != self.mode_count:
            return False
        _, diff = _merge(np.concatenate([self._occ, other._occ]),
                         np.concatenate([self._amp, -other._amp]))
        return bool(np.all(np.abs(diff) <= tol))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockState):
            return NotImplemented
        return (self.mode_count == other.mode_count
                and np.array_equal(self._occ, other._occ)
                and np.array_equal(self._amp, other._amp))

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
        amp = {tuple(r["occupation"]): _amplitude(r["occupation"], r["re"],
                                                  r["im"]) for r in rows}
        return cls(amp, mode_count)


def inner_product(a: FockState, b: FockState) -> complex:
    """<a|b> with the conjugate on the first argument."""
    if a.mode_count != b.mode_count:
        raise DimensionMismatchError("inner product of states on different mode counts")
    ia, ib = _common_rows(a._occ, b._occ)
    return complex(np.vdot(a._amp[ia], b._amp[ib]))


def basis_state(occ: Iterable[int]) -> FockState:
    """Single Fock basis ket |occ> with amplitude 1."""
    occ = tuple(occ)
    return FockState({occ: 1.0}, len(occ))


def vacuum(mode_count: int) -> FockState:
    return basis_state((0,) * mode_count)


def embed(state: FockState, mode_count: int, modes: Iterable[int]) -> FockState:
    """Place a small state onto the given modes of a larger register.

    ``modes`` lists, for each mode of ``state``, its index in the larger
    register; every other mode is left in vacuum.  The rows are written
    into a uint8 array and built by :func:`_trusted_state`; they keep the
    source order when ``modes`` increases, and are sorted by
    :func:`_union` otherwise.
    """
    modes = tuple(modes)
    if len(modes) != state.mode_count:
        raise DimensionMismatchError("embed: one target index per source mode required")
    if not _valid_modes(modes, mode_count):
        raise ValueError(f"embed: invalid target modes {modes}")
    occupations = np.zeros((len(state), mode_count), dtype=np.uint8)
    occupations[:, modes] = state.occupation_array
    amplitudes = state.amplitude_array
    if any(a > b for a, b in zip(modes, modes[1:])):
        occupations, inverse = _union(occupations)
        amplitudes = np.empty_like(amplitudes)
        amplitudes[inverse] = state.amplitude_array
    return _trusted_state(occupations, amplitudes, mode_count, prune=0.0)
