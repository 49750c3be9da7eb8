"""Detection patterns, projections and reduced density matrices.

Detection patterns are keyed by detector name and resolved against a
circuit's detector map.  ``exclusive`` patterns additionally require every
unlisted detector to register nothing, which for a pattern using all N
photons pins a single basis ket.

Density matrices are sparse maps (ket occupation, bra occupation) -> entry
and retain the identity of the original mode indices through partial traces,
so number operators can still be addressed by circuit mode after tracing.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import UnknownDetectorError
from .fock import PRUNE_THRESHOLD, FockState, Occupation, inner_product


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


@dataclass
class DensityMatrix:
    """Sparse Hermitian operator on a subset of the original modes.

    ``modes`` lists the original mode indices the occupation keys refer to,
    in order; a freshly built matrix has modes (0, .., M-1).
    """

    entries: dict[tuple[Occupation, Occupation], complex]
    modes: tuple[int, ...]

    def entry(self, ket: Iterable[int], bra: Iterable[int]) -> complex:
        return self.entries.get((tuple(ket), tuple(bra)), 0j)

    def items(self):
        return sorted(self.entries.items())

    def trace(self) -> complex:
        return sum(v for (a, b), v in self.entries.items() if a == b)

    def diagonal(self) -> dict[Occupation, float]:
        return {a: v.real for (a, b), v in self.entries.items() if a == b}

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        for (a, b), v in self.entries.items():
            if abs(self.entries.get((b, a), 0j).conjugate() - v) > tol:
                return False
        return True

    def allclose(self, other: "DensityMatrix", tol: float = 1e-12) -> bool:
        if self.modes != other.modes:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(abs(self.entries.get(k, 0j) - other.entries.get(k, 0j)) <= tol
                   for k in keys)

    def to_dense(self) -> tuple[list[Occupation], np.ndarray]:
        """Dense matrix over the sorted support basis, for spectral tests."""
        basis = sorted({a for a, _ in self.entries} | {b for _, b in self.entries})
        index = {occ: i for i, occ in enumerate(basis)}
        dense = np.zeros((len(basis), len(basis)), dtype=complex)
        for (a, b), v in self.entries.items():
            dense[index[a], index[b]] = v
        return basis, dense

    def _position(self, mode: int) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"mode {mode} was traced out or never present") from None


def density_from_pure(state: FockState) -> DensityMatrix:
    """|psi><psi| of a normalized pure state."""
    entries: dict[tuple[Occupation, Occupation], complex] = {}
    items = state.items()
    for ket, a in items:
        for bra, b in items:
            entries[(ket, bra)] = a * b.conjugate()
    return DensityMatrix(entries, tuple(range(state.mode_count)))


def partial_trace(rho: DensityMatrix, traced_modes: Iterable[int],
                  prune: float = PRUNE_THRESHOLD) -> DensityMatrix:
    """Trace out the given modes, keeping the remaining original labels."""
    traced = set(traced_modes)
    unknown = traced - set(rho.modes)
    if unknown:
        raise ValueError(f"cannot trace modes {sorted(unknown)}: not present")
    keep_pos = [i for i, m in enumerate(rho.modes) if m not in traced]
    drop_pos = [i for i, m in enumerate(rho.modes) if m in traced]
    if not keep_pos:
        raise ValueError("tracing every mode leaves a scalar, not a matrix")
    out: dict[tuple[Occupation, Occupation], complex] = {}
    for (a, b), v in rho.entries.items():
        if any(a[i] != b[i] for i in drop_pos):
            continue
        key = (tuple(a[i] for i in keep_pos), tuple(b[i] for i in keep_pos))
        out[key] = out.get(key, 0j) + v
    out = {k: v for k, v in out.items() if abs(v) > prune}
    return DensityMatrix(out, tuple(m for m in rho.modes if m not in traced))


def mean_photon_number(rho: DensityMatrix, mode: int) -> float:
    """Tr{n_mode rho}; diagonal sum, since number operators are diagonal."""
    pos = rho._position(mode)
    return sum(a[pos] * v.real for (a, b), v in rho.entries.items() if a == b)


def coincidence_from_density(rho: DensityMatrix, pattern: DetectionPattern,
                             detectors: Mapping[str, int]) -> float:
    """Expectation of the product of number operators named by the pattern.

    Computes Tr{prod_d n_d^{c_d} rho}; number operators are diagonal in the
    Fock basis so only diagonal entries contribute.  The pattern's exclusive
    flag plays no role here, the observable is fixed by the listed counts.
    Listed detectors must refer to modes still present in ``rho``.
    """
    by_mode = pattern.resolve(detectors)
    positions = {rho._position(m): c for m, c in by_mode.items()}
    total = 0.0
    for (a, b), v in rho.entries.items():
        if a != b:
            continue
        weight = 1.0
        for pos, c in positions.items():
            weight *= a[pos] ** c
        total += weight * v.real
    return total
