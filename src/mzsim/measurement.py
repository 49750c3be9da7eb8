"""Detection patterns, projections and reduced density matrices.

Detection patterns are keyed by detector name and resolved against a
circuit's detector map.  ``exclusive`` patterns additionally require every
unlisted detector to register nothing, which for a pattern using all N
photons pins a single basis ket.  :func:`pattern_masks` reads the detector
columns of a set of kets once for any number of patterns.

A density matrix is kept over a basis of kets, stored like a state's kets,
with one of two ``complex128`` arrays.  A pure state keeps its amplitude
column psi, so |psi><psi| costs nothing of size kets x kets until a dense
view is asked for; a matrix given as a mapping, and the result of a
partial trace, keep the matrix itself.  Its entries are read from those
arrays alone: one walk of the matrix per iteration, and a ket -> row
dict for lookups.  :func:`partial_trace` plans its
phase-free grouping of the basis once per basis in the plan cache evolve
uses (``optics._PlanCache``).  Matrices retain the original mode indices
through partial traces, so number operators can still be addressed by
circuit mode after tracing.
"""

from __future__ import annotations

import os
import sys
import warnings
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, PhotonCountError,
                     UnknownDetectorError)
from .fock import (PRUNE_THRESHOLD, FockState, Occupation, _amplitude,
                   _check_occupation, _is_mode, _union, _valid_modes,
                   inner_product)
from .optics import _expansion_plan


def _outside_stacklevel() -> int:
    """The ``stacklevel`` that names the first frame outside the package,
    counted from the caller (``skip_file_prefixes`` needs Python 3.12)."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _warn_unreachable(total: int, photons: int) -> None:
    """Warn, at the first line outside the package, that a pattern of
    ``total`` photons reads a state of fewer ``photons``."""
    warnings.warn(f"pattern wants {total} photons, state carries {photons}; "
                  f"probability is identically zero", RuntimeWarning,
                  stacklevel=_outside_stacklevel())


@dataclass(frozen=True)
class DetectionPattern:
    """Required photon counts per detector name.

    With ``exclusive`` (the default) every detector not listed must see zero
    photons; otherwise unlisted detectors are unconstrained and the pattern
    describes a marginal count.  Each count must be a whole number in
    0..255, the counts a ket can hold; anything else raises
    :class:`PhotonCountError`.
    """

    counts: Mapping[str, int]
    exclusive: bool = True

    def __post_init__(self):
        counts = dict(self.counts)
        try:
            values = _check_occupation(counts.values(), len(counts))
        except PhotonCountError as exc:
            raise PhotonCountError(f"detector counts {counts}: {exc}") from None
        object.__setattr__(self, "counts", dict(zip(counts, values)))

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def resolve(self, detectors: Mapping[str, int]) -> dict[int, int]:
        """Map detector names to mode indices, validating the names."""
        out = {}
        for name, c in self.counts.items():
            if name not in detectors:
                raise UnknownDetectorError(
                    f"unknown detector {name!r}; have {sorted(detectors)}")
            out[detectors[name]] = c
        return out

    def describe(self) -> str:
        body = ",".join(f"{k}:{v}" for k, v in self.counts.items())
        return body + ("" if self.exclusive else " (non-exclusive)")


def pattern_masks(patterns, detectors: Mapping[str, int],
                  occupations: np.ndarray, photons: int) -> np.ndarray:
    """Which rows of a (kets x modes) occupation array each pattern selects,
    as one (patterns x kets) bool array.

    A ket is selected when every listed detector shows its count and, for an
    exclusive pattern, every unlisted detector shows zero: since counts are
    never negative, that is when the detectors' total equals the listed
    total.  Each (detector, count) column test is made once per call.  A
    pattern that asks for more than the ``photons`` the kets carry selects
    nothing, with a warning, since its probability is identically zero.
    """
    modes = list(dict.fromkeys(detectors.values()))
    masks = np.empty((len(patterns), len(occupations)), dtype=bool)
    tests, total = {}, None
    for mask, pattern in zip(masks, patterns):
        by_mode = pattern.resolve(detectors)
        if pattern.total > photons:
            _warn_unreachable(pattern.total, photons)
            mask[:] = False
            continue
        if pattern.exclusive:
            if total is None:
                total = occupations[:, modes].sum(axis=1)
            np.equal(total, sum(by_mode.values()), out=mask)
        else:
            mask[:] = True
        for test in by_mode.items():
            if test not in tests:
                mode, count = test
                tests[test] = occupations[:, mode] == count
            mask &= tests[test]
    return masks


def pattern_probability(state: FockState, pattern: DetectionPattern,
                        detectors: Mapping[str, int]) -> float:
    """Probability that the listed detectors show exactly these counts."""
    for name, mode in detectors.items():
        if not 0 <= mode < state.mode_count:
            raise DimensionMismatchError(f"detector {name!r} reads mode {mode}, "
                                         f"state has {state.mode_count} modes")
    mask = pattern_masks([pattern], detectors, state.occupation_array,
                         state.total_photons)[0]
    return float(np.sum(np.abs(state.amplitude_array[mask]) ** 2))


def projected_probability(state: FockState, projector: FockState) -> float:
    """|<projector|state>|^2 for a normalized projector superposition."""
    return abs(inner_product(projector, state)) ** 2


# ---------------------------------------------------------------------------
# density matrices


class DensityEntries(Mapping):
    """Read-only ``(ket, bra) -> entry`` view of a density matrix's arrays.

    It holds the basis and either ``psi``, the (kets x 1) amplitude column
    of a pure state, or the matrix itself; ``matrix`` is the matrix given,
    or psi psi^dagger built on first use.  Iteration, ``items``, ``values``
    and ``repr`` each walk the nonzero entries of the matrix once per call,
    in lexicographic ``(ket, bra)`` order, keyed by occupation tuples; a
    walk over psi keeps nothing of size kets x kets.  Lookups (``[key]``,
    ``get``, ``in``) read one value as :meth:`entry` does, a zero entry
    reading as missing.  ``len`` counts the nonzero entries, from psi
    alone when no product of two amplitudes can underflow to zero.  A key
    is read as ``(tuple(ket), tuple(bra))``, so list occupations find their
    entry too.
    """

    __slots__ = ("basis", "psi", "_matrix", "_rows")

    def __init__(self, basis: np.ndarray, psi: np.ndarray | None = None,
                 matrix: np.ndarray | None = None):
        for array in (basis, psi, matrix):
            if array is not None:
                array.flags.writeable = False
        self.basis = basis
        self.psi = psi
        self._matrix = matrix
        self._rows = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._dense()
            self._matrix.flags.writeable = False
        return self._matrix

    def _dense(self) -> np.ndarray:
        """The matrix, or psi psi^dagger built without keeping it."""
        return (self.psi @ self.psi.conj().T if self._matrix is None
                else self._matrix)

    def __getitem__(self, key) -> complex:
        # read through entry(): two row lookups, nothing of size kets x kets
        try:
            ket, bra = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        value = self.entry(ket, bra)
        if not value:
            raise KeyError(key)
        return value

    def __iter__(self) -> Iterator[tuple[Occupation, Occupation]]:
        return (key for key, _ in self.items())

    def items(self) -> list[tuple[tuple[Occupation, Occupation], complex]]:
        """The nonzero entries in (ket, bra) order, from one matrix walk."""
        matrix = self._dense()
        rows, cols = np.nonzero(matrix)
        kets = list(map(tuple, self.basis.tolist()))
        return [((kets[i], kets[j]), v) for i, j, v in zip(
            rows.tolist(), cols.tolist(), matrix[rows, cols].tolist())]

    def values(self) -> list[complex]:
        return [v for _, v in self.items()]

    def entry(self, ket: Iterable[int], bra: Iterable[int]) -> complex:
        """One entry, 0 when either occupation is not in the basis.

        The two rows are looked up in a ket -> row dict, built once and of
        the basis's size; the value is read from the dense matrix when it
        exists, and from two amplitudes of ``psi`` otherwise, so nothing of
        size kets x kets is built.  The dict stays beside the sorted basis
        because ``dict(entries)`` looks up every key: 108,900 of them on
        the 330-ket output of ``braced(4)``, about 0.2 s through the dict
        and 0.7 s through a binary search of the basis per lookup.
        """
        if self._rows is None:
            self._rows = {occ: i for i, occ in
                          enumerate(map(tuple, self.basis.tolist()))}
        try:
            i, j = self._rows[tuple(ket)], self._rows[tuple(bra)]
        except (KeyError, TypeError):
            return 0j
        if self._matrix is not None:
            return complex(self._matrix[i, j])
        return complex(self.psi[i] @ self.psi[j].conj())

    def __len__(self) -> int:
        # a product of two amplitudes above 1e-150 is a normal float
        if self._matrix is None and np.abs(self.psi).min(initial=1) > 1e-150:
            return len(self.psi) ** 2
        return int(np.count_nonzero(self.matrix))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian operator on a subset of the original modes.

    Each of its basis kets carries some nonzero entry in its row or column.
    ``entries`` is a read-only mapping view of the nonzero entries keyed
    ``(ket, bra)``.  A plain mapping given as ``entries`` is validated and
    converted into its basis and matrix once; the fields cannot be
    reassigned after.  ``modes`` lists the original mode indices the
    occupations refer to, in order, each a non-negative integer (not a
    bool) at most once; a freshly built matrix has modes (0, .., M-1).
    """

    entries: Mapping[tuple[Occupation, Occupation], complex]
    modes: tuple[int, ...]

    def __post_init__(self):
        modes = tuple(self.modes)
        width = len(modes)
        if not width:
            raise ValueError("a density matrix needs at least one mode")
        if not _valid_modes(modes):
            raise ValueError(f"modes {modes} repeat a mode or hold one that "
                             f"is not a non-negative integer")
        object.__setattr__(self, "modes", tuple(map(int, modes)))
        items = list(self.entries.items())
        rows = [_check_occupation(ket, width) for (ket, _), _ in items]
        rows += [_check_occupation(bra, width) for (_, bra), _ in items]
        values = np.array([_amplitude(key, v) for key, v in items], dtype=complex)
        rows = np.frombuffer(b"".join(rows), np.uint8).reshape(-1, width)
        basis, index = _union(rows)
        matrix = np.zeros((len(basis), len(basis)), dtype=complex)
        matrix[index[:len(items)], index[len(items):]] = values
        basis, matrix = _support(basis, matrix)
        object.__setattr__(self, "entries", DensityEntries(basis, matrix=matrix))

    @property
    def basis_array(self) -> np.ndarray:
        """Read-only (kets x modes) uint8 basis, rows in lexicographic order."""
        return self.entries.basis

    @property
    def matrix_array(self) -> np.ndarray:
        """Read-only complex matrix over :attr:`basis_array`, built on first use."""
        return self.entries.matrix

    def entry(self, ket: Iterable[int], bra: Iterable[int]) -> complex:
        return self.entries.entry(ket, bra)

    def items(self):
        """Nonzero entries in lexicographic (ket, bra) order."""
        return self.entries.items()

    def trace(self) -> complex:
        return complex(np.trace(self.matrix_array))

    def diagonal(self) -> dict[Occupation, float]:
        """Real diagonal weight of each ket whose diagonal entry is nonzero."""
        diag = np.diagonal(self.matrix_array)
        nonzero = np.flatnonzero(diag)
        return dict(zip(map(tuple, self.basis_array[nonzero].tolist()),
                        diag[nonzero].real.tolist()))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        m = self.matrix_array
        return bool(np.all(np.abs(m - m.conj().T) <= tol))

    def allclose(self, other: "DensityMatrix", tol: float = 1e-12) -> bool:
        if self.modes != other.modes:
            return False
        n = len(self.basis_array)
        rows, index = _union(np.concatenate([self.basis_array,
                                             other.basis_array]))
        diff = np.zeros((len(rows), len(rows)), dtype=complex)
        diff[np.ix_(index[:n], index[:n])] = self.matrix_array
        diff[np.ix_(index[n:], index[n:])] -= other.matrix_array
        return bool(np.all(np.abs(diff) <= tol))

    def to_dense(self) -> tuple[list[Occupation], np.ndarray]:
        """Dense matrix over the sorted support basis, for spectral tests."""
        return list(map(tuple, self.basis_array.tolist())), self.matrix_array.copy()

    def _positions(self, modes: Iterable[int]) -> list[int]:
        """Where each of ``modes`` sits in :attr:`modes`, found in one pass
        over them; the first that is no mode index or is not present
        raises ``ValueError``."""
        where = {mode: i for i, mode in enumerate(self.modes)}
        positions = []
        for mode in modes:
            if not (_is_mode(mode) and mode in where):
                raise ValueError(
                    f"mode {mode!r} was traced out or never present")
            positions.append(where[mode])
        return positions


def _support(basis: np.ndarray,
             matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the basis kets whose row and column hold only zeros."""
    nonzero = matrix.astype(bool)
    live = nonzero.any(axis=0) | nonzero.any(axis=1)
    if live.all():
        return basis, matrix
    return basis[live], matrix[np.ix_(live, live)]


def _trusted_density(basis: np.ndarray, modes: tuple[int, ...],
                     psi: np.ndarray | None = None,
                     matrix: np.ndarray | None = None) -> DensityMatrix:
    """A matrix over a unique, sorted basis, from a finite amplitude column
    or a finite matrix, unchecked."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", DensityEntries(basis, psi, matrix))
    object.__setattr__(rho, "modes", modes)
    return rho


def density_from_pure(state: FockState) -> DensityMatrix:
    """|psi><psi| of a normalized pure state, over the state's kets.

    It keeps the amplitude column itself, so nothing of size kets x kets is
    built until a dense view is asked for.
    """
    return _trusted_density(state.occupation_array,
                            tuple(range(state.mode_count)),
                            psi=state.amplitude_array[:, None])


def partial_trace(rho: DensityMatrix,
                  traced_modes: Iterable[int]) -> DensityMatrix:
    """Trace out the given modes, keeping the remaining original labels.

    The basis kets fall into groups g that share one occupation of the
    traced modes, and the reduced entry of two kept occupations sums rho's
    entries between kets of one group with those kept occupations.  A pure
    state's amplitudes are laid out as a (kept kets x groups) matrix A, so
    that the trace is A A^dagger, one matmul; a whole matrix has each
    same-group entry added into its kept pair.  The grouping is phase-free
    and planned once per basis and kept modes (:func:`_trace_plan`).  Sums
    at or below ``PRUNE_THRESHOLD`` are dropped, and kept kets left with
    only zero entries leave the basis; the result keeps its matrix.
    """
    traced = set(rho._positions(traced_modes))
    keep_pos = tuple(i for i in range(len(rho.modes)) if i not in traced)
    if not keep_pos:
        raise ValueError("tracing every mode leaves a scalar, not a matrix")
    basis = rho.entries.basis
    kept, rows, group, groups = _expansion_plan.lookup(
        ("partial_trace", basis.shape, keep_pos, basis.tobytes()),
        lambda: _trace_plan(basis, keep_pos))
    if rho.entries.psi is not None:
        columns = np.zeros((len(kept), groups), dtype=complex)
        columns[rows, group] = rho.entries.psi[:, 0]
        matrix = columns @ columns.conj().T
    else:
        i, j = np.nonzero(group[:, None] == group)
        matrix = np.zeros((len(kept), len(kept)), dtype=complex)
        np.add.at(matrix, (rows[i], rows[j]), rho.entries.matrix[i, j])
    matrix[np.abs(matrix) <= PRUNE_THRESHOLD] = 0
    kept, matrix = _support(kept, matrix)
    return _trusted_density(kept, tuple(rho.modes[i] for i in keep_pos),
                            matrix=matrix)


def _trace_plan(basis: np.ndarray, keep_pos: tuple[int, ...]):
    """The phase-free half of :func:`partial_trace`.

    ``basis`` is a matrix's (kets x modes) basis and ``keep_pos`` the
    columns of it that stay.  The plan is the kept basis, unique and in
    lexicographic order; each basis ket's row in it; each ket's group, the
    rank of its traced occupation among the distinct ones; and the group
    count.  Every array is read-only, since the plan cache hands it out
    again.
    """
    drop_pos = [i for i in range(basis.shape[1]) if i not in keep_pos]
    kept, rows = _union(basis[:, list(keep_pos)])
    if drop_pos:
        traced, group = _union(basis[:, drop_pos])
        groups = len(traced)
    else:
        group, groups = np.zeros(len(basis), dtype=np.intp), 1
    for array in (kept, rows, group):
        array.flags.writeable = False
    return kept, rows, group, groups


def mean_photon_number(rho: DensityMatrix, mode: int) -> float:
    """Tr{n_mode rho}; diagonal sum, since number operators are diagonal."""
    counts = rho.basis_array[:, rho._positions([mode])[0]]
    return float(counts @ np.diagonal(rho.matrix_array).real)


def coincidence_from_density(rho: DensityMatrix, pattern: DetectionPattern,
                             detectors: Mapping[str, int]) -> float:
    """Expectation of the product of number operators named by the pattern.

    Computes Tr{prod_d n_d^{c_d} rho}; number operators are diagonal in the
    Fock basis so only diagonal entries contribute.  The pattern's exclusive
    flag plays no role here, the observable is fixed by the listed counts.
    Listed detectors must refer to modes still present in ``rho``.
    """
    by_mode = pattern.resolve(detectors)
    columns = rho._positions(by_mode)
    counts = rho.basis_array[:, columns].astype(float)
    weight = np.prod(counts ** list(by_mode.values()), axis=1)
    return float(weight @ np.diagonal(rho.matrix_array).real)
