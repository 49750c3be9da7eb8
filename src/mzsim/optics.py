"""Passive linear-optical elements and Fock-state evolution.

A network element is an M x M complex unitary acting on the mode creation
operators row-wise:

    a_k^dag  ->  sum_j U[k][j] a_j^dag

so sequential application of U1 then U2 composes to the single matrix
``U1 @ U2``.  Two independent evaluation routes are provided:

* :func:`evolve` expands the substituted operator polynomial with exact
  multinomial bookkeeping (this mirrors the textbook derivation of output
  states and works on whole superpositions at once).  It is the one-matrix
  case of ``_evolve_grid``, which evolves a stack of K unitaries, as a
  scan's grid of phases needs.  Only the R rows of the modes the input
  occupies enter an expansion, so the engine takes just a (K x R x M)
  block of them: a scan compiles only those rows, and :func:`evolve`
  checks its whole M x M matrix and hands on the occupied rows.  The
  phase-free half of the expansion is a flat table of its terms, each a
  product of N entries of those rows (positions ``row * M + col`` in the
  raveled block) times a weight, with the input ket it comes from and the
  output ket it adds into; it is planned once per structure and cached
  (:class:`_PlanCache`), and each matrix of the stack then evolves in a
  fixed number of numpy calls, each product out of place.  A scan passes
  a ``select`` callback that picks the kets its readouts read among every
  reachable ket, and the plan keeps only the terms that add into them
  (``classify_table1(5)`` reads 495 of 2,002 kets, fed by 990 of 4,004
  terms), bit for bit as the full plan computes them, however few; the
  output is always the reachable kets, or exactly the selected ones, a
  ket pruned at every phase reading 0;
* :func:`transition_amplitude` computes a single <out|U|in> element from the
  permanent of a row/column-repeated submatrix, summed over the repeat
  counts by Glynn's formula; :func:`permanent` is the same sum with every
  count 1, for any square matrix.

The two share no code and are tested against each other.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, ExpansionTooLargeError,
                     InvalidCoefficientsError, NonUnitaryError,
                     PhotonCountError, SectorError)
from .fock import (PRUNE_THRESHOLD, FockState, Occupation, _check_finite,
                   _check_occupation, _trusted_state, _valid_modes)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: Validation tolerance for beam splitter coefficient constraints.  One
#: splitter passes with 1/sqrt2 rounded to 6 significant digits, but a circuit
#: must also compile to a matrix unitary within 1e-8 to evolve: 0.70710678 is
#: off by 3.4e-9 in |t|^2+|r|^2, and fig2 with its five splitters written so
#: compiles 1.0e-8 from unitary and fails.  So circuit files need coefficients
#: at full double precision, as ``serialize`` writes them; canonical
#: constructors are exact to machine precision.
COEFF_TOL = 1e-6

#: Largest photon number evolve and transition_amplitude handle: the top of
#: their factorial table, since any one output mode may end up holding every
#: photon.
MAX_PHOTONS = 20

#: Entries of a unitary row at or below this magnitude are not expanded.
ROW_CUTOFF = 1e-13

#: Most bytes an expansion, a whole compile or a scan's sampling may take
#: at its peak; the bounds below are derived from it, and each input is
#: refused before anything of its size is allocated.  The plan and the
#: work arrays of an expansion take 400 to 460 bytes per term at their
#: peak on a dense input, so an input whose term count, counted exactly
#: before anything is built, exceeds ``MAX_TERMS`` is refused: 2,097,152
#: terms, which ``classify_table1(8)``'s 980,628 fit.
EXPANSION_BYTES = 2 ** 30
MAX_TERMS = EXPANSION_BYTES // 512
#: Bytes a compile holds at its peak per entry of its (slices x R x M)
#: block: three complex arrays of the block's size, the columns it updates,
#: their reordered copy and the contiguous result.  ``circuit._compile_grid``
#: refuses a block that would peak past ``EXPANSION_BYTES``.
COMPILE_ENTRY_BYTES = 48
#: Most modes a circuit may have (``circuit.Circuit``): compiling one whole
#: at one phase, an M x M block, peaks at 48 M^2 bytes, so 4,729 modes.
MAX_MODES = math.isqrt(EXPANSION_BYTES // COMPILE_ENTRY_BYTES)
#: Most harmonics K one scan may have (``scenarios._scan_values``): its two
#: (2K x K) sampling matrices peak at 96 K^2 bytes while they are built,
#: so 3,344 harmonics.  K - 1 is the photon count times the swept delay's
#: crossings: 20 photons may cross 167 times.
MAX_HARMONICS = math.isqrt(EXPANSION_BYTES // 96)

_FACT = np.array([math.factorial(k) for k in range(MAX_PHOTONS + 1)],
                 dtype=float)
_SQRT_FACT = np.sqrt(_FACT)
#: (-1)^k C(n, k) at [n, k], 0 for k > n.
_SIGNED_BINOMIAL = np.array([[(-1) ** k * math.comb(n, k)
                              for k in range(MAX_PHOTONS + 1)]
                             for n in range(MAX_PHOTONS + 1)], dtype=float)


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
        try:
            energy = abs(t) ** 2 + abs(r) ** 2
        except OverflowError:  # finite coefficients, too large to square
            energy = math.inf
        cross = r * t.conjugate() + t * r.conjugate()
        # written so that a NaN fails the bounds
        if not (abs(energy - 1.0) <= tol and abs(cross) <= tol):
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
    if not _valid_modes((mode_a, mode_b), mode_count):
        raise ValueError(f"invalid beam splitter modes ({mode_a!r}, {mode_b!r})")
    coeffs.validate()
    u = np.eye(mode_count, dtype=complex)
    u[mode_a, mode_a] = u[mode_b, mode_b] = coeffs.t
    u[mode_a, mode_b] = u[mode_b, mode_a] = coeffs.r
    return u


def _real_phases(name: str, values) -> np.ndarray:
    """A phase value, a real number or an array of them, as a float array.

    A value that is not a real number, or not finite, raises ``ValueError``
    naming the phase ``name``.
    """
    values = np.asarray(values)
    if values.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) for v in values.flat):
        try:
            values = values.astype(float)
        except OverflowError:
            raise ValueError(f"phase {name} is not finite") from None
    if values.dtype.kind not in "biuf":
        raise ValueError(f"phase {name} is not a real number")
    values = values.astype(float, copy=False)
    if not np.isfinite(values).all():
        raise ValueError(f"phase {name} is not finite")
    return values


def phase_unitary(mode: int, phi: float, mode_count: int) -> np.ndarray:
    """Diagonal delay, e^{i phi} on one mode."""
    if not _valid_modes((mode,), mode_count):
        raise ValueError(f"invalid phase mode {mode!r}")
    phi = _real_phases(f"on mode {mode}", phi)
    if phi.ndim:
        raise DimensionMismatchError(f"phase on mode {mode} is not one value")
    u = np.eye(mode_count, dtype=complex)
    u[mode, mode] = complex(math.cos(phi), math.sin(phi))
    return u


def swap_unitary(mode_a: int, mode_b: int, mode_count: int) -> np.ndarray:
    """Mode relabeling (a mirror with no phase)."""
    if not _valid_modes((mode_a, mode_b), mode_count):
        raise ValueError(f"invalid swap modes ({mode_a!r}, {mode_b!r})")
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


def _compositions(total: int, slots: int):
    """Weak compositions of `total` into `slots` parts, with their lookups.

    Returns the compositions as a (terms x slots) uint8 array and, aligned
    with it, the multinomial coefficients total! / prod k_j! and the
    (terms x total) factor slots of each composition: the slot indices in
    ascending order, slot j written k_j times, so that the monomial
    prod x_j^k_j is the product of the entries x at those slots.  The
    order is that of ``itertools.combinations_with_replacement(range(slots),
    total)`` over the factor slots: the compositions in descending
    lexicographic order.
    """
    # one row per first photon's slot, then photon by photon: each row
    # splits into one row per next slot from its last one up, in ascending
    # order, so the rows stay in lexicographic order
    factors = (np.arange(slots, dtype=np.intp)[:, None] if total
               else np.zeros((1, 0), dtype=np.intp))
    for _ in range(total - 1):
        splits = slots - factors[:, -1]
        rows = np.repeat(np.arange(len(factors)), splits)
        # each row's run of new slots ends at its split's end, on slots - 1
        factors = np.column_stack((factors[rows], np.arange(len(rows))
                                   - (np.cumsum(splits) - slots)[rows]))
    # count each slot per composition: one bincount over offset slot indices
    offsets = slots * np.arange(len(factors))[:, None]
    comps = np.bincount((factors + offsets).ravel(),
                        minlength=len(factors) * slots).astype(
        np.uint8).reshape(len(factors), slots)
    weights = _FACT[total] / np.prod(_FACT[comps], axis=1)
    for array in (comps, weights, factors):
        array.flags.writeable = False
    return comps, weights, factors


def _key_places(live: np.ndarray, mode_count: int, photons: int
                ) -> np.ndarray:
    """Place values that key the output kets of an expansion on integers.

    Only the live columns, those some occupied input row needs, can be
    occupied in an output ket; every other column is zero in every term.
    A ket is keyed by its live digits as a base-(N+1) number, the first live
    column most significant, so integer order is lexicographic row order.
    Where (N+1)^live does not fit one int64 word, the digits are split over
    several words.  Returns each column's place value in its word, a
    (modes x words) int64 matrix, zero off the live columns: a term's key is
    the sum of the places of its factors' columns, so the keys of a product
    of row expansions are outer sums of the rows' ``compositions @
    place[cols]``.

    ``fock._union`` merges on void byte keys instead: on the few hundred
    rows that density matrices, partial traces and ``verify`` merge, packing
    costs more than it saves; it pays on the thousands of terms an expansion
    merges.
    """
    base = photons + 1
    # digits per word: base ** width - 1, the largest word, fits an int64
    width = 1
    while width < len(live) and base ** (width + 1) <= 2 ** 63:
        width += 1
    word_of, digit = np.divmod(np.arange(len(live)), width)
    place = np.zeros((mode_count, -(-len(live) // width) or 1), dtype=np.int64)
    place[live, word_of] = np.power(base, width - 1 - digit, dtype=np.int64)
    return place


def _merge_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct kets of (terms x words) keys, in lexicographic order:
    one term of each, and the ket index of each term.

    Each word is ranked with one integer sort; every further word is folded
    in as ``rank * n_word + dense_word`` and ranked again, which keeps ranks
    below terms^2 and in word-by-word order.
    """
    for w, word in enumerate(keys.T):
        values, dense = np.unique(word, return_inverse=True)
        if w:
            values, rank = np.unique(rank * len(values) + dense,
                                     return_inverse=True)
        else:
            rank = dense
    first = np.empty(len(values), dtype=np.intp)
    first[rank] = np.arange(len(rank))
    return first, rank


def evolve(state: FockState, unitary: np.ndarray) -> FockState:
    """Apply a mode unitary to a Fock state: the one-matrix case of
    :func:`_evolve_grid`, its kets at or below ``PRUNE_THRESHOLD`` dropped
    as :func:`~mzsim.fock._trusted_state` builds the state.

    Entries of a row at or below ``ROW_CUTOFF`` are treated as exact zeros;
    they could only shift output amplitudes by ~N * ROW_CUTOFF, far below
    the working tolerances.  A matrix that is not M x M, has a NaN or
    infinite entry, or is not unitary within 1e-8 is rejected: the whole
    matrix is checked, and then only the rows of the modes the state
    occupies are read.  An expansion of more than ``MAX_TERMS`` terms
    raises :class:`~mzsim.errors.ExpansionTooLargeError` before it is
    built.
    """
    u = np.asarray(unitary, dtype=complex)
    m = state.mode_count
    if u.shape != (m, m):
        raise DimensionMismatchError(
            f"unitary is {u.shape}, state has {m} modes")
    occupied = state._occupied_modes()
    r = len(occupied)
    # the occupied rows: a view when they are the first R modes, as every
    # input fed through the first splitter's two modes is
    rows = u[:r] if not r or occupied[-1] < r else u[occupied]
    occupations, (amplitudes,) = _evolve_grid(state, rows[None],
                                              whole=u[None])
    return _trusted_state(occupations, amplitudes, state.mode_count)


#: An expansion plan: its merged output kets, its term table (factor
#: positions, weights, input kets) and scatter index, and each output ket's
#: sqrt(prod k_j!) scale.
_Plan = namedtuple("_Plan", "occupations positions weights inputs scatter scale")


def _term_count(counts: list[list[int]], needed: np.ndarray) -> int:
    """Exact number of terms of an expansion: a row holding n photons with
    c entries marked in ``needed`` expands into C(n + c - 1, n)
    compositions, and a ket into the product of its rows' counts.
    ``counts`` holds each input ket's photons on the R occupied rows."""
    reach = needed.sum(axis=1).tolist()
    return sum(math.prod(math.comb(n + c - 1, n)
                         for n, c in zip(occ, reach) if n) for occ in counts)


def _build_plan(inputs: np.ndarray, needed: np.ndarray) -> _Plan:
    """The phase-free half of an expansion: a flat table of its terms.

    The input's (kets x modes) uint8 occupations and the (R x modes) mask
    of the entries above ``ROW_CUTOFF`` in its R occupied rows, those of
    the modes some ket holds photons in, in mode order, fix every term.
    Input ket n expands into the outer product of its occupied rows'
    compositions (:func:`_compositions`), earlier rows major; each term is
    the product of N = sum_i n_i entries of those rows, one per photon,
    times the phase-free weight prod_i (multinomial_i / sqrt(n_i!)).  Terms
    are keyed on :func:`_key_places` and merged (:func:`_merge_keys`); each
    merged ket's occupation is counted off one of its terms' factor
    columns.  The terms are counted first (:func:`_term_count`), and more
    than ``MAX_TERMS`` raise :class:`ExpansionTooLargeError` before
    anything is built.

    The plan lists, in input-ket order, each term's N factor positions
    ``row * M + col`` in the raveled R x M block of rows (an (N x terms)
    array, uint8 while R * M <= 255), its weight, its input ket and its
    merged output ket (:func:`_plan`).
    """
    mode_count = inputs.shape[1]
    counts = inputs[:, inputs.any(axis=0)].tolist()
    terms = _term_count(counts, needed)
    if terms > MAX_TERMS:
        raise ExpansionTooLargeError(
            f"the expansion has {terms:,} terms; evolve builds at most "
            f"{MAX_TERMS:,} (about {EXPANSION_BYTES // 2 ** 20:,} MiB)")
    photons = sum(counts[0]) if counts else 0
    # the live columns: those some occupied row needs
    live = np.flatnonzero(needed.any(axis=0))
    place = _key_places(live, mode_count, photons)
    words = place.shape[1]
    narrow = np.min_scalar_type(needed.size)
    expanded = {}
    # an empty first block, so that a state with no kets concatenates
    blocks = [(np.zeros((photons, 0), dtype=narrow), np.zeros(0),
               np.zeros((0, words), dtype=np.int64))]
    for occ in counts:
        positions, weights = np.zeros((0, 1), dtype=narrow), np.ones(1)
        keys = np.zeros((1, words), dtype=np.int64)
        for row, count in enumerate(occ):
            if not count:
                continue
            # a row's factor positions, weights and keys, one column per
            # composition, shared by every ket that fills the row
            if (row, count) not in expanded:
                cols = np.flatnonzero(needed[row])
                comps, multinomials, factors = _compositions(count, len(cols))
                expanded[row, count] = ((row * mode_count + cols[factors]
                                         ).T.astype(narrow),
                                        multinomials / _SQRT_FACT[count],
                                        comps @ place[cols])
            row_positions, row_weights, row_keys = expanded[row, count]
            grown = np.empty((len(positions) + count, len(weights),
                              len(row_weights)), dtype=narrow)
            grown[:len(positions)] = positions[:, :, None]
            grown[len(positions):] = row_positions[:, None]
            positions = grown.reshape(len(grown), -1)
            weights = np.multiply.outer(weights, row_weights).ravel()
            keys = (keys[:, None] + row_keys).reshape(-1, words)
        blocks.append((positions, weights, keys))
    positions, weights, keys = zip(*blocks)
    positions = np.concatenate(positions, axis=1)
    first, ket_of = _merge_keys(np.concatenate(keys))
    # each merged ket's occupation, counted off one of its terms' columns
    occupations = np.zeros((len(first), mode_count), dtype=np.uint8)
    for cols in positions[:, first] % mode_count:
        occupations[np.arange(len(first)), cols] += 1
    return _plan(occupations, positions, np.concatenate(weights),
                 np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(
                     len(counts))), [len(w) for w in weights[1:]]),
                 ket_of, np.prod(_SQRT_FACT[occupations[:, live]], axis=1))


def _plan(occupations, positions, weights, inputs, ket_of, scale) -> _Plan:
    """A read-only :class:`_Plan` whose term t adds into merged ket
    ``ket_of[t]``.

    Its scatter index sends the real and imaginary parts of term t (float64
    entries 2t and 2t + 1 of a coefficient row) to entries 2q and 2q + 1 of
    an output row, q = ``ket_of[t]``, in the narrowest unsigned type that
    holds twice the ket count.  Every array is read-only, since
    :data:`_expansion_plan` hands it out again.
    """
    scatter = (2 * ket_of[:, None] + np.arange(2)).ravel().astype(
        np.min_scalar_type(2 * len(occupations)))
    plan = _Plan(occupations, positions, weights, inputs, scatter, scale)
    for array in plan:
        array.flags.writeable = False
    return plan


def _restrict_plan(plan: _Plan, read: np.ndarray) -> _Plan:
    """The part of a plan that adds into the output kets ``read`` marks.

    ``read`` is a bool mask over the plan's output kets.  One mask over the
    terms, ``read`` at each term's merged ket, keeps the terms that add
    into a read ket, in order; the kept kets are renumbered in order.
    Evolving by the result gives exactly the read kets' amplitudes of the
    full plan, with the same floating-point operations in the same order,
    however few terms it keeps: :func:`_evolve_grid` takes each product
    out of place, which numpy rounds alike at every length, one included.
    """
    ket_of = plan.scatter[::2] // 2
    kept = read[ket_of]
    return _plan(plan.occupations[read], plan.positions.compress(kept, axis=1),
                 plan.weights[kept], plan.inputs[kept],
                 (np.cumsum(read) - 1)[ket_of[kept]], plan.scale[read])


def _held_bytes(*parts) -> int:
    """Bytes the parts hold: each object once, a tuple with its contents and
    an array with its base."""
    stack, seen, size = list(parts), set(), 0
    while stack:
        part = stack.pop()
        if id(part) in seen:
            continue
        seen.add(id(part))
        size += sys.getsizeof(part)
        if isinstance(part, tuple):
            stack.extend(part)
        elif isinstance(part, np.ndarray) and part.base is not None:
            stack.append(part.base)
    return size


_PlanCacheInfo = namedtuple("_PlanCacheInfo", "hits misses currsize nbytes")


class _PlanCache:
    """The most recently used phase-free plans, bounded in count and bytes.

    Full expansion plans, their restrictions to a read set, the read sets
    of scans and the scatter plans of ``measurement.partial_trace`` share
    one cache and both bounds.  :meth:`lookup` is the one way in, and each
    caller owns its keys: :func:`_evolve_grid` keys a full plan on the
    input's shape and bytes and the bytes of the R x M entry mask of its
    occupied rows, and a restriction on those and the read mask's bytes; a
    scan's read set (``scenarios._read_set``) is keyed on the full plan's
    key and its readouts' key, tagged ``"readouts"``, and a trace plan's
    key is tagged ``"partial_trace"``.  It pays where one structure comes
    back call after call, as in a phase loop over :func:`evolve`.

    An expansion plan holds N factor positions, a weight, an input ket and
    two scatter entries per expanded term (N or 2N bytes, and 11 to 14
    more), and a trace plan three entries per basis ket, so plans differ in
    size by orders of magnitude and a count bound alone bounds no memory.
    This keeps at most ``maxsize`` plans that, with their keys, hold at
    most ``budget`` bytes, dropping the least recently used first; a plan
    larger than the whole budget is returned and not kept, and evicts
    nothing.  The cache sizes what it keeps by walking it: each array once,
    with its base, and each tuple with its contents.

    The bounds of :data:`_expansion_plan`: one ``verify.run_all()`` keeps
    48 entries (24 full plans, 11 read sets, 11 restricted plans, 2 trace
    plans) holding 103 KiB, which 32 would cycle through, so a second run
    takes no miss.  ``classify_table1(5)``'s entries hold 146 KiB (full),
    63 KiB (read set) and 39 KiB (restricted), 6% of ``PLAN_CACHE_BYTES``,
    the factor positions in uint8 (R * M = 60); one plan of a 330-ket,
    4-photon superposition through a dense 8-mode unitary holds 13.2 MiB,
    so it is used once and not kept.  ``scenarios._sampling_matrices`` is
    a second cache under the same bounds, of a scan's sampling matrices.
    """

    def __init__(self, maxsize: int, budget: int):
        self.maxsize = maxsize
        self.budget = budget
        self._plans = OrderedDict()
        self._lock = threading.Lock()
        self.cache_clear()

    def lookup(self, key: tuple, build):
        """The plan kept under ``key``, a tuple of hashable parts, or the
        one ``build()`` returns, kept under it if it fits the budget; the
        key counts toward the budget too."""
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                return entry[0]
            self._misses += 1
        plan = build()
        size = _held_bytes(key, plan)
        if size > self.budget:
            return plan
        with self._lock:
            if key not in self._plans:
                self._plans[key] = (plan, size)
                self._nbytes += size
            while self._plans and (len(self._plans) > self.maxsize
                                   or self._nbytes > self.budget):
                _, (_, freed) = self._plans.popitem(last=False)
                self._nbytes -= freed
        return plan

    def cache_info(self) -> _PlanCacheInfo:
        with self._lock:
            return _PlanCacheInfo(self._hits, self._misses, len(self._plans),
                                 self._nbytes)

    def cache_clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._hits = self._misses = self._nbytes = 0


#: The byte budget of :data:`_expansion_plan`; :class:`_PlanCache` states
#: its policy and why these bounds.
PLAN_CACHE_BYTES = 4 * 2 ** 20
_expansion_plan = _PlanCache(maxsize=64, budget=PLAN_CACHE_BYTES)


def _evolve_grid(state: FockState, rows: np.ndarray, select=None,
                 whole=None) -> tuple[np.ndarray, np.ndarray]:
    """Apply each matrix of a stack of K mode unitaries to a state, given
    as the rows an expansion reads: a (K x R x M) block.

    The R rows are those of the modes the state occupies (some ket holds a
    photon there), in mode order, as :func:`~mzsim.circuit._compile_grid`
    compiles them for a scan.  They must be orthonormal within 1e-8, entry
    by entry in modulus, checked by one (K x R x R) gram; orthonormal
    input rows keep the output normalised, so a defect on a row no photon
    enters passes.  ``whole``, if given, is the (K x M x M) stack the rows
    were read from, and is checked in their place, at the same point:
    :func:`evolve` checks the whole matrix it is given.

    The expansion runs in two passes.  The first, :func:`_build_plan`, is
    phase-free and cached in :data:`_expansion_plan`; it depends on the
    input's occupations and the R x M mask of the row entries above
    ``ROW_CUTOFF`` in some matrix of the stack, whose bytes key it.  The
    second walks the stack one matrix at a time, in a fixed number of
    numpy calls per matrix however many input kets there are: N takes of
    the terms' factors from the raveled rows, multiplied into a terms
    vector, one multiply by the terms' weights times their input kets'
    amplitudes (computed once per call), one ``bincount`` of that vector
    into the n output kets' sums, and one multiply of those by each ket's
    scale into its row of the (K x n) output.  Each product is taken out
    of place, from operands of one shape, never into one of them: numpy
    rounds an in-place product of one entry otherwise than of more, and a
    restricted plan may keep one term or one ket.  So no temporary of
    this pass outgrows a terms vector of complex values, whatever K is;
    each row equals a one-matrix call's bit for bit, and each read ket
    the full plan's.
    Returns the output occupations, unique and in lexicographic order
    (read-only), and a (K x kets) amplitude block whose row k is the state
    evolved by matrix k.  The kets are every ket the plan can reach; a ket
    at or below ``PRUNE_THRESHOLD`` at every k reads exactly 0.

    ``select``, if given, is called once with those reachable kets and the
    full plan's cache key, before the stack's unitarity is checked, and
    returns a bool mask over them: the work is then limited to the kets it
    marks, by a restriction of the full plan in hand (:func:`_restrict_plan`)
    cached under the full plan's key and the mask's bytes, and the result is
    exactly their columns of the full result.  So a call builds the full
    plan at most once, whether or not either plan fits the cache.  The key
    lets ``select`` keep its own phase-free work in :data:`_expansion_plan`
    under a key that extends it, as a scan keeps its read set.
    """
    rows = np.asarray(rows, dtype=complex)
    m = state.mode_count
    inputs = state.occupation_array
    r = len(state._occupied_modes())
    if rows.ndim != 3 or not len(rows) or rows.shape[1:] != (r, m):
        raise DimensionMismatchError(
            f"row block is {rows.shape}, state has {m} modes, {r} of them "
            f"occupied")
    if state.total_photons > MAX_PHOTONS:
        raise PhotonCountError(
            f"state carries {state.total_photons} photons; evolve supports "
            f"at most {MAX_PHOTONS}")
    needed = (np.abs(rows) > ROW_CUTOFF).any(axis=0)
    key = (inputs.shape, inputs.tobytes(), needed.tobytes())
    full = _expansion_plan.lookup(key, lambda: _build_plan(inputs, needed))
    read = None if select is None else select(full.occupations, key)
    u = rows if whole is None else whole
    if not np.isfinite(u).all():
        raise NonUnitaryError("matrix has a NaN or infinite entry")
    # |gram - I| <= 1e-8 entry by entry, in modulus: one batched gram
    gram = u @ u.conj().transpose(0, 2, 1)
    gram.reshape(len(u), -1)[:, ::u.shape[1] + 1] -= 1.0     # the diagonal
    if np.abs(gram).max(initial=0.0) > 1e-8:
        raise NonUnitaryError("matrix is not unitary within 1e-8")

    plan = full if read is None else _expansion_plan.lookup(
        key + (read.tobytes(),), lambda: _restrict_plan(full, read))
    occupations, n = plan.occupations, len(plan.occupations)
    weights = plan.weights * state.amplitude_array.take(plan.inputs)
    amplitudes = np.empty((len(rows), n), dtype=complex)
    for row, entries in zip(amplitudes, rows.reshape(len(rows), -1)):
        # with no photons a term is the empty product
        term = (entries.take(plan.positions[0]) if len(plan.positions)
                else np.ones(len(weights), dtype=complex))
        for positions in plan.positions[1:]:
            term = term * entries.take(positions)
        sums = np.bincount(plan.scatter, (term * weights).view(float), 2 * n)
        np.multiply(sums.view(complex), plan.scale, row)
    # the last row's terms vector and sums are not needed past here: drop
    # them before the prune mask's (K x kets) temporaries are made
    del term, sums

    _check_finite(occupations, amplitudes)
    keep = (np.abs(amplitudes) > PRUNE_THRESHOLD).any(axis=0)
    if not keep.all():
        amplitudes[:, ~keep] = 0
    return occupations, amplitudes


# ---------------------------------------------------------------------------
# permanent-based single-amplitude oracle


def permanent(matrix: np.ndarray) -> complex:
    """Permanent of a square matrix by Glynn's formula: the sum over
    multiplicities (:func:`_repeated_permanent`) with every count 1, over
    2^(n-1) sign vectors."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("permanent needs a square matrix")
    n = len(a)
    if n == 0:
        return 1.0 + 0j
    return _repeated_permanent(a, [1] * n, [1] * n)


#: Terms of the permanent's sum evaluated in one vectorised block; 20
#: photons in 20 modes take 2^19 terms, a block at a time.
_PERMANENT_BLOCK = 4096


def _repeated_permanent(matrix: np.ndarray, row_counts: list[int],
                        col_counts: list[int]) -> complex:
    """Permanent of ``matrix`` with row i written ``row_counts[i]`` times and
    column j ``col_counts[j]`` times, all counts positive.

    Glynn's formula over multiplicities.  Glynn sums over sign vectors
    delta with delta_1 = +1; giving k_j of column j's copies the sign -1
    can be done C(n_j, k_j) ways (C(n_1 - 1, k_1) for the first column, one
    of whose copies is fixed), each giving row i the sum
    s_i = sum_j (n_j - 2 k_j) a_ij, so with N photons

        perm = 2^(1-N) sum_k prod_j (-1)^k_j C(n_j', k_j) prod_i s_i^m_i

    over n_1 prod_{j>1} (n_j + 1) vectors k, instead of 2^N column subsets.
    Ryser's formula over multiplicities has about twice as many terms, and
    they cancel far more: over the 21 amplitudes of |20, 0> through a
    balanced splitter, Ryser's sum is up to 4e-7 off summed over the input
    side and 5e-9 over the output side, this one 1.4e-13.  A matrix and its
    transpose have one permanent, so the sum runs over the side with fewer
    terms, in blocks of ``_PERMANENT_BLOCK`` terms.
    """
    if math.prod(c + 1 for c in row_counts) < math.prod(c + 1 for c in col_counts):
        matrix, row_counts, col_counts = matrix.T, col_counts, row_counts
    counts = np.array(col_counts)
    free = [col_counts[0] - 1, *col_counts[1:]]
    sizes = [c + 1 for c in free]
    terms = math.prod(sizes)
    total = 0j
    for first in range(0, terms, _PERMANENT_BLOCK):
        picks = np.stack(np.unravel_index(
            np.arange(first, min(first + _PERMANENT_BLOCK, terms)), sizes),
            axis=1)
        weights = _SIGNED_BINOMIAL[free, picks].prod(axis=1)
        sums = (counts - 2 * picks) @ matrix.T
        total += weights @ (sums ** row_counts).prod(axis=1)
    return complex(total) / 2 ** (sum(col_counts) - 1)


def transition_amplitude(unitary: np.ndarray, n_in: Occupation,
                         n_out: Occupation) -> complex:
    """<n_out| U |n_in> from a matrix permanent.

    Rows of the submatrix repeat input modes by their counts, columns repeat
    output modes; the permanent is divided by sqrt(prod n_in! prod n_out!).
    It is summed over the multiplicities (:func:`_repeated_permanent`), so
    |20, 0> to |10, 10> takes 20 terms, not the 2^19 sign vectors of the
    20 x 20 repeated matrix's :func:`permanent`.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"need a square matrix, got shape {u.shape}")
    n_in = _check_occupation(n_in, len(u))
    n_out = _check_occupation(n_out, len(u))
    if sum(n_in) != sum(n_out):
        raise SectorError("input and output photon numbers differ")
    if sum(n_in) > MAX_PHOTONS:
        raise PhotonCountError(
            f"{sum(n_in)} photons; transition_amplitude supports at most "
            f"{MAX_PHOTONS}")
    if not sum(n_in):
        return 1.0 + 0j
    rows = [i for i, c in enumerate(n_in) if c]
    cols = [j for j, c in enumerate(n_out) if c]
    norm = math.sqrt(math.prod(map(math.factorial, n_in + n_out)))
    return _repeated_permanent(u[np.ix_(rows, cols)], [n_in[i] for i in rows],
                               [n_out[j] for j in cols]) / norm
