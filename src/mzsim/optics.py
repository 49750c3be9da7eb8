"""Passive linear-optical elements and Fock-state evolution.

A network element is an M x M complex unitary acting on the mode creation
operators row-wise:

    a_k^dag  ->  sum_j U[k][j] a_j^dag

so sequential application of U1 then U2 composes to the single matrix
``U1 @ U2``.  Two independent evaluation routes are provided:

* :func:`evolve` expands the substituted operator polynomial with exact
  multinomial bookkeeping (this mirrors the textbook derivation of output
  states and works on whole superpositions at once).  The same expansion
  runs over a stack of K unitaries at once (``_evolve_grid``): each input
  ket is expanded once with a K-column coefficient block, which is how a
  scan evolves through all of its grid phases in one pass;
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
                     NonFiniteAmplitudeError, NonUnitaryError,
                     PhotonCountError, SectorError)
from .fock import (PRUNE_THRESHOLD, FockState, Occupation, _trusted_state,
                   _union)

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
def _compositions(total: int, slots: int):
    """Weak compositions of `total` into `slots` parts, with their lookups.

    Returns the compositions as a (terms x slots) uint8 array and, aligned
    with it, the multinomial coefficients total! / prod k_j! and the flat
    index of each part k_j in a (slots x (total + 1)) table of powers.
    """
    combos = itertools.combinations(range(total + slots - 1), slots - 1)
    rows = []
    for dividers in combos:
        prev = -1
        row = []
        for d in (*dividers, total + slots - 1):
            row.append(d - prev - 1)
            prev = d
        rows.append(row)
    comps = np.array(rows, dtype=np.uint8).reshape(len(rows), slots)
    comps.flags.writeable = False
    weights = _FACT[total] / np.prod(_FACT[comps], axis=1)
    picks = comps + (total + 1) * np.arange(slots)
    for array in (weights, picks):
        array.flags.writeable = False
    return comps, weights, picks


def _row_expansion(rows: np.ndarray, cols: np.ndarray, count: int):
    """Occupations and coefficients of (sum_j row[j] a_j^dag)^count per row.

    ``rows`` holds one row of the mode unitary per grid phase, (K x modes),
    and only the columns ``cols`` are expanded; the coefficients come back
    as a (K x terms) block.  They are relative to monomials
    prod (a_j^dag)^k_j, i.e. without the sqrt(k!) ket normalization (applied
    once at the end).
    """
    comps, weights, picks = _compositions(count, len(cols))
    powers = rows[:, cols, None] ** np.arange(count + 1)
    return comps, weights * np.prod(powers.reshape(len(rows), -1)[:, picks],
                                    axis=2)


def evolve(state: FockState, unitary: np.ndarray, *,
           prune: float = PRUNE_THRESHOLD, check_unitary: bool = True,
           row_cutoff: float = 1e-13) -> FockState:
    """Apply a mode unitary to a Fock state.

    Each ket's creation-operator product is substituted row-wise and expanded
    with multinomial coefficients; equal output kets are then merged on their
    byte keys.  Entries of a row smaller than ``row_cutoff`` are treated as
    exact zeros; they could only shift output amplitudes by ~N * row_cutoff,
    far below the working tolerances.  A matrix with a NaN or infinite entry
    is rejected even when ``check_unitary`` is off.  This is the one-matrix
    case of :func:`_evolve_grid`.
    """
    u = np.asarray(unitary, dtype=complex)
    m = state.mode_count
    if u.shape != (m, m):
        raise DimensionMismatchError(
            f"unitary is {u.shape}, state has {m} modes")
    occupations, amplitudes = _evolve_grid(
        state, u[None], prune, check_unitary=check_unitary,
        row_cutoff=row_cutoff)
    return _trusted_state(occupations, amplitudes[0], m, prune=prune)


def _evolve_grid(state: FockState, unitaries: np.ndarray,
                 prune: float = PRUNE_THRESHOLD, *, check_unitary: bool = True,
                 row_cutoff: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """Apply each matrix of a (K x M x M) stack of mode unitaries to a state.

    Every input ket is expanded once, over the columns that some matrix of
    the stack needs, with a (K x terms) coefficient block; the terms of all
    kets are merged with one sort of their byte keys.  Returns the output
    occupations, unique and in lexicographic order, and a (K x kets)
    amplitude block whose row k is the state evolved by ``unitaries[k]``.
    A ket is dropped only when it is at or below ``prune`` at every k.
    Every matrix of the stack gets the checks :func:`evolve` makes.
    """
    u = np.asarray(unitaries, dtype=complex)
    m = state.mode_count
    if u.ndim != 3 or not len(u) or u.shape[1:] != (m, m):
        raise DimensionMismatchError(
            f"unitary stack is {u.shape}, state has {m} modes")
    if not np.isfinite(u).all():
        raise NonUnitaryError("matrix has a NaN or infinite entry")
    if check_unitary and np.max(np.abs(
            u @ u.conj().transpose(0, 2, 1) - np.eye(m))) > 1e-8:
        raise NonUnitaryError("matrix is not unitary within 1e-8")
    if state.total_photons > MAX_PHOTONS:
        raise PhotonCountError(
            f"state carries {state.total_photons} photons; evolve supports "
            f"at most {MAX_PHOTONS}")

    k = len(u)
    # the columns of each row that some matrix of the stack needs
    live = (np.abs(u) > row_cutoff).any(axis=0)
    occ_blocks = [np.zeros((0, m), dtype=np.uint8)]
    amp_blocks = []
    for occ, amp in zip(state.occupation_array.tolist(),
                        state.amplitude_array.tolist()):
        block_occ = np.zeros((1, m), dtype=np.uint8)
        block_amp = np.full((k, 1), amp, dtype=complex)
        for mode, count in enumerate(occ):
            if count == 0:
                continue
            cols = np.flatnonzero(live[mode])
            if not len(cols):
                break
            block_amp = block_amp / _SQRT_FACT[count]
            comps, coeffs = _row_expansion(u[:, mode], cols, count)
            added = np.zeros((len(comps), m), dtype=np.uint8)
            added[:, cols] = comps
            block_occ = (block_occ[:, None, :] + added[None, :, :]).reshape(-1, m)
            block_amp = (block_amp[:, :, None]
                         * coeffs[:, None, :]).reshape(k, -1)
        else:                           # every row had a needed column
            occ_blocks.append(block_occ)
            amp_blocks.append(block_amp)

    # one key sort for all terms; each ket's block is summed per grid phase
    # and released, so no (K x terms) array spans every input ket at once
    occupations, inverse = _union(np.concatenate(occ_blocks))
    del occ_blocks
    n = len(occupations)
    amplitudes = np.zeros((k, n), dtype=complex)
    start = 0
    for i, block in enumerate(amp_blocks):
        index = inverse[start:start + block.shape[1]]
        start += block.shape[1]
        for row, out in zip(block, amplitudes):
            out.real += np.bincount(index, row.real, n)
            out.imag += np.bincount(index, row.imag, n)
        amp_blocks[i] = None
    amplitudes *= np.prod(_SQRT_FACT[occupations], axis=1)

    finite = np.isfinite(amplitudes)
    if not finite.all():
        step, bad = np.argwhere(~finite)[0]
        raise NonFiniteAmplitudeError(
            f"amplitude {amplitudes[step, bad]} at "
            f"{tuple(occupations[bad].tolist())} is not finite")
    keep = (np.abs(amplitudes) > prune).any(axis=0)
    if not keep.all():
        occupations, amplitudes = occupations[keep], amplitudes[:, keep]
    return occupations, amplitudes


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
