"""Detection patterns, projections and reduced density matrices.

Detection patterns are keyed by detector name and resolved against a
circuit's detector map.  ``exclusive`` patterns additionally require every
unlisted detector to register nothing, which for a pattern using all N
photons pins a single basis ket.

A density matrix is a dense ``complex128`` matrix over a basis of kets,
stored like a state's kets as a (kets x modes) ``uint8`` array with unique
rows in lexicographic order; ``entries`` presents its nonzero entries as a
read-only map (ket occupation, bra occupation) -> entry.  A pure state's
matrix is the outer product of its amplitude vector over its own kets.  A
partial trace groups the basis kets by their occupation of the traced
modes and sums only the entries between two kets of one group into the
entry between their kept occupations with ``np.bincount``.  Matrices
retain the identity of the original mode indices through partial traces,
so number operators can still be addressed by circuit mode after tracing.
"""

from __future__ import annotations

import warnings
from collections.abc import (ItemsView, Iterable, Iterator, Mapping,
                             ValuesView)
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteAmplitudeError, UnknownDetectorError
from .fock import (PRUNE_THRESHOLD, FockState, Occupation, _check_occupation,
                   _union, inner_product)


@dataclass(frozen=True)
class DetectionPattern:
    """Required photon counts per detector name.

    With ``exclusive`` (the default) every detector not listed must see zero
    photons; otherwise unlisted detectors are unconstrained and the pattern
    describes a marginal count.
    """

    counts: Mapping[str, int]
    exclusive: bool = True

    def __post_init__(self):
        object.__setattr__(self, "counts", dict(self.counts))
        for name, c in self.counts.items():
            if int(c) < 0:
                raise ValueError(f"negative count for {name}")

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
            out[detectors[name]] = int(c)
        return out

    def describe(self) -> str:
        body = ",".join(f"{k}:{v}" for k, v in self.counts.items())
        return body + ("" if self.exclusive else " (non-exclusive)")


def pattern_mask(pattern: DetectionPattern, detectors: Mapping[str, int],
                 occupations: np.ndarray, photons: int) -> np.ndarray:
    """Which rows of a (kets x modes) occupation array the pattern selects.

    A ket is selected when every listed detector shows its count and, for an
    exclusive pattern, every unlisted detector shows zero.  A pattern that
    asks for more than the ``photons`` the kets carry selects nothing, with
    a warning, since its probability is identically zero.
    """
    by_mode = pattern.resolve(detectors)
    if pattern.total > photons:
        warnings.warn(
            f"pattern wants {pattern.total} photons, state carries "
            f"{photons}; probability is identically zero",
            RuntimeWarning, stacklevel=3)
        return np.zeros(len(occupations), dtype=bool)
    mask = np.all(occupations[:, list(by_mode)] == list(by_mode.values()),
                  axis=1)
    if pattern.exclusive:
        others = [m for m in detectors.values() if m not in by_mode]
        mask &= ~np.any(occupations[:, others], axis=1)
    return mask


def pattern_probability(state: FockState, pattern: DetectionPattern,
                        detectors: Mapping[str, int]) -> float:
    """Probability that the listed detectors show exactly these counts."""
    mask = pattern_mask(pattern, detectors, state.occupation_array,
                        state.total_photons)
    return float(np.sum(np.abs(state.amplitude_array[mask]) ** 2))


def projected_probability(state: FockState, projector: FockState) -> float:
    """|<projector|state>|^2 for a normalized projector superposition."""
    return abs(inner_product(projector, state)) ** 2


# ---------------------------------------------------------------------------
# density matrices


class DensityEntries(Mapping):
    """Read-only ``(ket, bra) -> entry`` view of a density matrix's arrays.

    Only nonzero entries are present; iteration yields them in lexicographic
    ``(ket, bra)`` order, with occupation tuples as keys.  ``items()`` and
    ``values()`` read the arrays in one pass; a lookup goes through a
    ket -> row dict built on first use.
    """

    __slots__ = ("basis", "matrix", "_rows")

    def __init__(self, basis: np.ndarray, matrix: np.ndarray):
        basis.flags.writeable = False
        matrix.flags.writeable = False
        self.basis = basis
        self.matrix = matrix
        self._rows = None

    def _index(self, ket: Iterable[int], bra: Iterable[int]) -> tuple[int, int]:
        """Row and column of an entry, -1 where the basis lacks the ket."""
        if self._rows is None:
            self._rows = {occ: i for i, occ in
                          enumerate(map(tuple, self.basis.tolist()))}
        return self._rows.get(tuple(ket), -1), self._rows.get(tuple(bra), -1)

    def __getitem__(self, key) -> complex:
        try:
            i, j = self._index(*key)
        except TypeError:
            raise KeyError(key) from None
        if i < 0 or j < 0 or self.matrix[i, j] == 0:
            raise KeyError(key)
        return complex(self.matrix[i, j])

    def __iter__(self) -> Iterator[tuple[Occupation, Occupation]]:
        return (key for key, _ in self._pairs())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.matrix))

    def items(self) -> ItemsView:
        return _EntryItems(self)

    def values(self) -> ValuesView:
        return _EntryValues(self)

    def _pairs(self) -> Iterator[tuple[tuple[Occupation, Occupation], complex]]:
        rows, cols = np.nonzero(self.matrix)
        kets = list(map(tuple, self.basis.tolist()))
        values = self.matrix[rows, cols].tolist()
        return (((kets[i], kets[j]), v)
                for i, j, v in zip(rows.tolist(), cols.tolist(), values))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self._pairs())!r})"


class _EntryItems(ItemsView):
    """Items read off the arrays in one pass instead of key by key."""

    def __iter__(self):
        return self._mapping._pairs()


class _EntryValues(ValuesView):
    """Values read off the arrays in one pass, in the order of the keys."""

    def __iter__(self):
        matrix = self._mapping.matrix
        return iter(matrix[matrix != 0].tolist())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian operator on a subset of the original modes.

    It is stored as a dense ``complex128`` matrix over a basis of kets: a
    (kets x modes) ``uint8`` array whose rows are unique, in lexicographic
    order, and each carry some nonzero entry in their row or column.
    ``entries`` is a read-only mapping view of the nonzero entries keyed
    ``(ket, bra)``.  A plain mapping given as ``entries`` is validated and
    converted into the arrays once; the fields cannot be reassigned after.  ``modes`` lists the original mode
    indices the occupations refer to, in order; a freshly built matrix has
    modes (0, .., M-1).
    """

    entries: Mapping[tuple[Occupation, Occupation], complex]
    modes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        width = len(self.modes)
        if not width:
            raise ValueError("a density matrix needs at least one mode")
        items = list(self.entries.items())
        kets = [_check_occupation(ket, width) for (ket, _), _ in items]
        bras = [_check_occupation(bra, width) for (_, bra), _ in items]
        values = np.array([v for _, v in items], dtype=complex)
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteAmplitudeError(
                f"entry {values[bad]} at {items[bad][0]} is not finite")
        rows = np.array(kets + bras, dtype=np.uint8).reshape(2 * len(items), width)
        basis, index = _union(rows)
        matrix = np.zeros((len(basis), len(basis)), dtype=complex)
        matrix[index[:len(items)], index[len(items):]] = values
        object.__setattr__(self, "entries",
                           DensityEntries(*_support(basis, matrix)))

    @property
    def basis_array(self) -> np.ndarray:
        """Read-only (kets x modes) uint8 basis, rows in lexicographic order."""
        return self.entries.basis

    @property
    def matrix_array(self) -> np.ndarray:
        """Read-only complex matrix over :attr:`basis_array`."""
        return self.entries.matrix

    def entry(self, ket: Iterable[int], bra: Iterable[int]) -> complex:
        i, j = self.entries._index(ket, bra)
        return complex(self.matrix_array[i, j]) if i >= 0 and j >= 0 else 0j

    def items(self):
        """Nonzero entries in lexicographic (ket, bra) order."""
        return list(self.entries.items())

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

    def _position(self, mode: int) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"mode {mode} was traced out or never present") from None


def _support(basis: np.ndarray,
             matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the basis kets whose row and column hold only zeros."""
    nonzero = matrix != 0
    live = nonzero.any(axis=0) | nonzero.any(axis=1)
    if live.all():
        return basis, matrix
    return basis[live], matrix[np.ix_(live, live)]


def _trusted_density(basis: np.ndarray, matrix: np.ndarray,
                     modes: tuple[int, ...]) -> DensityMatrix:
    """A matrix over a unique, sorted basis with finite entries, unchecked."""
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "entries", DensityEntries(basis, matrix))
    object.__setattr__(rho, "modes", modes)
    return rho


def density_from_pure(state: FockState) -> DensityMatrix:
    """|psi><psi| of a normalized pure state, over the state's kets."""
    a = state.amplitude_array
    return _trusted_density(state.occupation_array, np.outer(a, a.conj()),
                            tuple(range(state.mode_count)))


def _pairs_within_groups(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered index pair (i, j) with ``group[i] == group[j]``."""
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group)
    size = counts[group[order]]
    start = (np.cumsum(counts) - counts)[group[order]]
    rows = np.repeat(order, size)
    offset = np.arange(len(rows)) - np.repeat(np.cumsum(size) - size, size)
    return rows, order[np.repeat(start, size) + offset]


def partial_trace(rho: DensityMatrix, traced_modes: Iterable[int],
                  prune: float = PRUNE_THRESHOLD) -> DensityMatrix:
    """Trace out the given modes, keeping the remaining original labels.

    The basis kets are grouped by their occupation of the traced modes.
    Only entries between two kets of one group survive the trace; each is
    summed into the entry between the two kets' kept occupations, and the
    other entries are never read.  Sums at or below ``prune`` in magnitude
    are dropped.
    """
    traced = set(traced_modes)
    unknown = traced - set(rho.modes)
    if unknown:
        raise ValueError(f"cannot trace modes {sorted(unknown)}: not present")
    keep_pos = [i for i, m in enumerate(rho.modes) if m not in traced]
    drop_pos = [i for i, m in enumerate(rho.modes) if m in traced]
    if not keep_pos:
        raise ValueError("tracing every mode leaves a scalar, not a matrix")
    basis = rho.basis_array
    kept, kept_of = _union(basis[:, keep_pos])
    group = (_union(basis[:, drop_pos])[1] if drop_pos
             else np.zeros(len(basis), dtype=np.intp))
    rows, cols = _pairs_within_groups(group)
    values = rho.matrix_array[rows, cols]
    flat = kept_of[rows] * len(kept) + kept_of[cols]
    size = len(kept) ** 2
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(flat, values.real, size)
    out.imag = np.bincount(flat, values.imag, size)
    out[np.abs(out) <= prune] = 0
    return _trusted_density(*_support(kept, out.reshape(len(kept), len(kept))),
                            tuple(m for m in rho.modes if m not in traced))


def mean_photon_number(rho: DensityMatrix, mode: int) -> float:
    """Tr{n_mode rho}; diagonal sum, since number operators are diagonal."""
    counts = rho.basis_array[:, rho._position(mode)]
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
    columns = [rho._position(m) for m in by_mode]
    counts = rho.basis_array[:, columns].astype(float)
    weight = np.prod(counts ** list(by_mode.values()), axis=1)
    return float(weight @ np.diagonal(rho.matrix_array).real)
