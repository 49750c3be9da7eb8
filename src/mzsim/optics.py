"""Passive linear-optical elements and Fock-state evolution.

A network element is an M x M complex unitary acting on the mode creation
operators row-wise:

    a_k^dag  ->  sum_j U[k][j] a_j^dag

so sequential application of U1 then U2 composes to the single matrix
``U1 @ U2``.  Two independent evaluation routes are provided:

* :func:`evolve` expands the substituted operator polynomial with exact
  multinomial bookkeeping (this mirrors the textbook derivation of output
  states and works on whole superpositions at once);
* :func:`transition_amplitude` computes a single <out|U|in> element from the
  permanent of a row/column-repeated submatrix (Ryser's algorithm).

The two share no code and are tested against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DimensionMismatchError, InvalidCoefficientsError,
                     NonUnitaryError, PhotonCountError, SectorError)
from .fock import (PRUNE_THRESHOLD, FockState, Occupation, _merge,
                   _trusted_state)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Validation tolerance for beam splitter coefficient constraints.  Loose
#: enough to accept coefficients written with 8 significant digits in circuit
#: files; canonical constructors are exact to machine precision.
COEFF_TOL = 1e-6

#: Largest photon number evolve and transition_amplitude handle: the top of
#: their factorial table, since any one output mode may end up holding every
#: photon.
MAX_PHOTONS = 20

_FACT = np.array([math.factorial(k) for k in range(MAX_PHOTONS + 1)],
                 dtype=float)
_SQRT_FACT = np.sqrt(_FACT)


@dataclass(frozen=True)
class BeamSplitterCoeffs:
    """Transmission/reflection pair (t, r) of a symmetric beam splitter.

    The 2-mode block is [[t, r], [r, t]]; unitarity of that symmetric block
    is equivalent to the two constraints |t|^2 + |r|^2 = 1 and
    r t* + t r* = 0 (the reflected amplitude is a quarter wave out of phase
    with the transmitted one).
    """

    t: complex
    r: complex

    def validate(self, tol: float = COEFF_TOL) -> "BeamSplitterCoeffs":
        t, r = complex(self.t), complex(self.r)
        energy = abs(t) ** 2 + abs(r) ** 2
        cross = r * t.conjugate() + t * r.conjugate()
        if abs(energy - 1.0) > tol or abs(cross) > tol:
            raise InvalidCoefficientsError(
                f"(t={t}, r={r}): |t|^2+|r|^2 = {energy:.12g}, "
                f"rt*+tr* = {cross:.3g}")
        return self

    @classmethod
    def balanced(cls) -> "BeamSplitterCoeffs":
        """The 50/50 convention used throughout: t = 1/sqrt2, r = i/sqrt2."""
        return cls(_INV_SQRT2, 1j * _INV_SQRT2)

    @classmethod
    def from_angle(cls, theta: float, alpha: float = 0.0,
                   sign: int = 1) -> "BeamSplitterCoeffs":
        """General valid pair t = e^{ia} cos(theta), r = +-i e^{ia} sin(theta)."""
        phase = complex(math.cos(alpha), math.sin(alpha))
        return cls(phase * math.cos(theta), sign * 1j * phase * math.sin(theta))


BALANCED = BeamSplitterCoeffs.balanced()


# ---------------------------------------------------------------------------
# unitary builders


def bs_unitary(coeffs: BeamSplitterCoeffs, mode_a: int, mode_b: int,
               mode_count: int) -> np.ndarray:
    """Identity everywhere except the [[t, r], [r, t]] block on (mode_a, mode_b)."""
    if mode_a == mode_b or not (0 <= mode_a < mode_count and 0 <= mode_b < mode_count):
        raise ValueError(f"invalid beam splitter modes ({mode_a}, {mode_b})")
    coeffs.validate()
    u = np.eye(mode_count, dtype=complex)
    u[mode_a, mode_a] = u[mode_b, mode_b] = coeffs.t
    u[mode_a, mode_b] = u[mode_b, mode_a] = coeffs.r
    return u


def phase_unitary(mode: int, phi: float, mode_count: int) -> np.ndarray:
    """Diagonal delay, e^{i phi} on one mode."""
    if not 0 <= mode < mode_count:
        raise ValueError(f"phase mode {mode} out of range")
    u = np.eye(mode_count, dtype=complex)
    u[mode, mode] = complex(math.cos(phi), math.sin(phi))
    return u


def swap_unitary(mode_a: int, mode_b: int, mode_count: int) -> np.ndarray:
    """Mode relabeling (a mirror with no phase)."""
    if mode_a == mode_b or not (0 <= mode_a < mode_count and 0 <= mode_b < mode_count):
        raise ValueError(f"invalid swap modes ({mode_a}, {mode_b})")
    u = np.eye(mode_count, dtype=complex)
    u[[mode_a, mode_b]] = u[[mode_b, mode_a]]
    return u


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) <= tol)


# ---------------------------------------------------------------------------
# polynomial-expansion evolution


@lru_cache(maxsize=None)
def _compositions(total: int, slots: int) -> np.ndarray:
    """All weak compositions of `total` into `slots` parts, as an int array."""
    if slots == 0:
        return np.zeros((1 if total == 0 else 0, 0), dtype=np.uint8)
    combos = itertools.combinations(range(total + slots - 1), slots - 1)
    rows = []
    for dividers in combos:
        prev = -1
        row = []
        for d in (*dividers, total + slots - 1):
            row.append(d - prev - 1)
            prev = d
        rows.append(row)
    return np.array(rows, dtype=np.uint8)


def _row_expansion(row: np.ndarray, count: int, cutoff: float):
    """Occupations and coefficients of (sum_j row[j] a_j^dag)^count.

    Coefficients are relative to monomials prod (a_j^dag)^k_j, i.e. without
    the sqrt(k!) ket normalization (applied once at the end).
    """
    cols = np.flatnonzero(np.abs(row) > cutoff)
    if cols.size == 0:
        return None
    comps = _compositions(count, int(cols.size))
    weights = _FACT[count] / np.prod(_FACT[comps], axis=1)
    coeffs = weights * np.prod(row[cols][None, :] ** comps, axis=1)
    return cols, comps, coeffs


def evolve(state: FockState, unitary: np.ndarray, *,
           prune: float = PRUNE_THRESHOLD, check_unitary: bool = True,
           row_cutoff: float = 1e-13) -> FockState:
    """Apply a mode unitary to a Fock state.

    Each ket's creation-operator product is substituted row-wise and expanded
    with multinomial coefficients; equal output kets are then merged on their
    byte keys.  Entries of a row smaller than ``row_cutoff`` are treated as
    exact zeros; they could only shift output amplitudes by ~N * row_cutoff,
    far below the working tolerances.  A matrix with a NaN or infinite entry
    is rejected even when ``check_unitary`` is off.
    """
    u = np.asarray(unitary, dtype=complex)
    m = state.mode_count
    if u.shape != (m, m):
        raise DimensionMismatchError(
            f"unitary is {u.shape}, state has {m} modes")
    if not np.isfinite(u).all():
        raise NonUnitaryError("matrix has a NaN or infinite entry")
    if check_unitary and not is_unitary(u, tol=1e-8):
        raise NonUnitaryError("matrix is not unitary within 1e-8")
    if state.total_photons > MAX_PHOTONS:
        raise PhotonCountError(
            f"state carries {state.total_photons} photons; evolve supports "
            f"at most {MAX_PHOTONS}")

    occ_blocks = [np.zeros((0, m), dtype=np.uint8)]
    amp_blocks = [np.zeros(0, dtype=complex)]
    for occ, amp in zip(state.occupation_array.tolist(),
                        state.amplitude_array.tolist()):
        block_occ = np.zeros((1, m), dtype=np.uint8)
        block_amp = np.array([amp], dtype=complex)
        dead = False
        for mode, count in enumerate(occ):
            if count == 0:
                continue
            block_amp = block_amp / math.sqrt(_FACT[count])
            expansion = _row_expansion(u[mode], count, row_cutoff)
            if expansion is None:
                dead = True
                break
            cols, comps, coeffs = expansion
            added = np.zeros((comps.shape[0], m), dtype=np.uint8)
            added[:, cols] = comps
            block_occ = (block_occ[:, None, :] + added[None, :, :]).reshape(-1, m)
            block_amp = (block_amp[:, None] * coeffs[None, :]).ravel()
        if not dead:
            occ_blocks.append(block_occ)
            amp_blocks.append(block_amp)

    occupations, amplitudes = _merge(np.concatenate(occ_blocks, axis=0),
                                     np.concatenate(amp_blocks))
    amplitudes *= np.prod(_SQRT_FACT[occupations], axis=1)
    return _trusted_state(occupations, amplitudes, m, prune=prune)


# ---------------------------------------------------------------------------
# permanent-based single-amplitude oracle


def permanent(matrix: np.ndarray) -> complex:
    """Permanent by Ryser's inclusion-exclusion formula with Gray-code updates."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("permanent needs a square matrix")
    if n == 0:
        return 1.0 + 0j
    row_sums = np.zeros(n, dtype=complex)
    total = 0j
    sign = 1.0
    gray = 0
    for k in range(1, 2 ** n):
        new_gray = k ^ (k >> 1)
        flipped = (gray ^ new_gray).bit_length() - 1
        if new_gray & (1 << flipped):
            row_sums += a[:, flipped]
        else:
            row_sums -= a[:, flipped]
        gray = new_gray
        sign = -sign
        total += sign * np.prod(row_sums)
    return complex(total * (-1.0) ** n)


def _repeat_indices(occ: Occupation) -> list[int]:
    out: list[int] = []
    for index, count in enumerate(occ):
        out.extend([index] * count)
    return out


def transition_amplitude(unitary: np.ndarray, n_in: Occupation,
                         n_out: Occupation) -> complex:
    """<n_out| U |n_in> from a matrix permanent.

    Rows of the submatrix repeat input modes by their counts, columns repeat
    output modes; the permanent is divided by sqrt(prod n_in! prod n_out!).
    """
    u = np.asarray(unitary, dtype=complex)
    n_in = tuple(int(x) for x in n_in)
    n_out = tuple(int(x) for x in n_out)
    if len(n_in) != u.shape[0] or len(n_out) != u.shape[0]:
        raise DimensionMismatchError("occupation length does not match the matrix")
    if sum(n_in) != sum(n_out):
        raise SectorError("input and output photon numbers differ")
    if sum(n_in) > MAX_PHOTONS:
        raise PhotonCountError(
            f"{sum(n_in)} photons; transition_amplitude supports at most "
            f"{MAX_PHOTONS}")
    rows = _repeat_indices(n_in)
    cols = _repeat_indices(n_out)
    if not rows:
        return 1.0 + 0j
    sub = u[np.ix_(rows, cols)]
    norm = math.sqrt(float(np.prod(_FACT[list(n_in)]) * np.prod(_FACT[list(n_out)])))
    return permanent(sub) / norm
