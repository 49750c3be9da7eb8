"""Correctness gates for the benchmark workloads.

Every timed result is checked here before it counts as a correct operation.
The gates avoid the code paths they judge: mode unitaries are rebuilt by
column updates instead of :func:`mzsim.compile`'s matrix products, output
amplitudes come from a permutation-sum permanent instead of
:func:`mzsim.evolve` or Ryser's formula, reduced states are regrouped from
the pure state directly, and the two-photon coincidences come from the
closed forms in :mod:`mzsim.reference`.  Each gate returns ``None`` when the
result is correct and a one-line reason otherwise; none of them raises on
a wrong result.

Names are bound at import time, so a gate never runs through the wrappers
the traced run installs on the package.
"""

from __future__ import annotations

import cmath
import json
import math
from itertools import permutations

from mzsim.reference import cross_coincidence_erased

_SQRT_HALF = 1 / math.sqrt(2)

#: Tolerances, as stated for each gate.
AMPLITUDE_TOL = 1e-10
FRINGE_VISIBILITY = 0.999

#: Sample indices of each full-order table row recomputed independently.
TABLE1_SAMPLE_CHECKS = (0, 7, 22, 41, 58)


# ---------------------------------------------------------------------------
# independent references


def unitary(circuit, phases, toggles):
    """Mode unitary of ``circuit`` built by in-place column updates.

    Row k of the result is the image of the creation operator of mode k, the
    convention :func:`mzsim.compile` documents.
    """
    m = circuit.mode_count
    u = [[complex(i == j) for j in range(m)] for i in range(m)]
    enabled = set(toggles)
    for e in circuit.elements:
        if e.name in circuit.toggles and e.name not in enabled:
            continue
        if e.kind == "bs":
            a, b = e.modes
            t, r = complex(e.coeffs.t), complex(e.coeffs.r)
            for row in u:
                row[a], row[b] = t * row[a] + r * row[b], r * row[a] + t * row[b]
        elif e.kind == "phase":
            (k,) = e.modes
            factor = cmath.exp(1j * phases[e.param])
            for row in u:
                row[k] *= factor
        elif e.kind == "swap":
            a, b = e.modes
            for row in u:
                row[a], row[b] = row[b], row[a]
        else:
            raise ValueError(f"unknown element kind {e.kind!r}")
    return u


def amplitude(u, n_in, n_out) -> complex:
    """<n_out| U |n_in> as a sum over permutations of repeated rows/columns."""
    rows = [i for i, c in enumerate(n_in) for _ in range(c)]
    cols = [j for j, c in enumerate(n_out) for _ in range(c)]
    if len(rows) != len(cols):
        return 0j
    total = 0j
    for perm in permutations(cols):
        term = 1 + 0j
        for r, c in zip(rows, perm):
            term *= u[r][c]
            if term == 0:
                break
        total += term
    norm = math.prod(math.factorial(c) for c in n_in) \
        * math.prod(math.factorial(c) for c in n_out)
    return total / math.sqrt(norm)


def engineered_noon(n: int, mode_count: int) -> dict:
    """Input that a balanced splitter on modes 0, 1 turns into (|n,0>+|0,n>)/sqrt2.

    It is the NOON target run backwards through the splitter, embedded on
    modes 0 and 1 of a ``mode_count``-mode register.
    """
    inverse = [[_SQRT_HALF, -1j * _SQRT_HALF], [-1j * _SQRT_HALF, _SQRT_HALF]]
    targets = ((n, 0), (0, n))
    state = {}
    for k in range(n + 1):
        amp = sum(_SQRT_HALF * amplitude(inverse, t, (k, n - k)) for t in targets)
        if abs(amp) > 1e-14:
            state[(k, n - k) + (0,) * (mode_count - 2)] = amp
    return state


def output_amplitude(u, state: dict, n_out) -> complex:
    return sum(a * amplitude(u, occ, n_out) for occ, a in state.items())


def _occupation(counts: dict, detectors: dict, mode_count: int) -> tuple:
    occ = [0] * mode_count
    for name, c in counts.items():
        occ[detectors[name]] = c
    return tuple(occ)


# ---------------------------------------------------------------------------
# table1: classify_table1(n)


def table1_rows(n: int, toggles):
    """Expected (scenario, toggles, pattern counts, exclusive, wants fringes)
    per row; ``toggles`` are the circuit's toggleable elements."""
    primes = ["p" * k for k in range(n - 2, 0, -1)]
    taps = [f"D6{s}" for s in primes] + ["D6"]
    all_on = tuple(sorted(toggles))
    inner_off = tuple(t for t in all_on if t != "BS2")
    rows = []
    for config, on, dets in (("all-erased", all_on, taps),
                             ("innermost-distinguishing", inner_off, taps),
                             ("cooperating-outer-stages", inner_off, taps[:-1])):
        for k in range(1, len(dets) + 1):
            rows.append((f"photons-{n}/{config}/order-{k}", on,
                         {d: 1 for d in dets[:k]}, False, False))
        rows.append((f"photons-{n}/{config}/order-{n}", on,
                     {d: 1 for d in dets} | {"D10": n - len(dets)}, True,
                     "distinguishing" not in config))
    return rows


def check_table1(n: int, circuit, reports) -> str | None:
    """Fringes only at full order without a distinguishing stage, flat elsewhere.

    Full-order rows are exclusive patterns that pin one output ket, so their
    samples are recomputed from the permanent at a few phases.  The fitted
    frequency of flat rows is not asserted: it is chosen by sampling noise.
    """
    expected = table1_rows(n, circuit.toggles)
    if len(reports) != len(expected):
        return f"{len(reports)} table rows, expected {len(expected)}"
    state = engineered_noon(n, circuit.mode_count)
    phases = {p: 0.0 for p in circuit.parameters}
    for report, (scenario, toggles, counts, exclusive, fringes) \
            in zip(reports, expected):
        if report.scenario != scenario:
            return f"row {report.scenario!r}, expected {scenario!r}"
        if tuple(report.toggles) != toggles:
            return f"{scenario}: toggles {report.toggles}, expected {toggles}"
        if dict(report.pattern.counts) != counts \
                or report.pattern.exclusive != exclusive:
            return f"{scenario}: pattern {report.pattern.describe()} is not {counts}"
        want = "fringes" if fringes else "flat"
        if report.classification != want:
            return f"{scenario}: classified {report.classification}, expected {want}"
        if fringes and not report.scan.visibility > FRINGE_VISIBILITY:
            return f"{scenario}: visibility {report.scan.visibility:.6f}"
        if not exclusive:
            continue
        samples = report.scan.samples
        if len(samples) != 64:
            return f"{scenario}: {len(samples)} samples, expected 64"
        n_out = _occupation(counts, circuit.detectors, circuit.mode_count)
        for i in TABLE1_SAMPLE_CHECKS:
            phi, value = samples[i]
            if abs(phi - 4 * math.pi * i / 64) > 1e-12:
                return f"{scenario}: sample {i} at phase {phi}"
            u = unitary(circuit, phases | {"phi_B": phi}, toggles)
            want_p = abs(output_amplitude(u, state, n_out)) ** 2
            if abs(value - want_p) > AMPLITUDE_TOL:
                return (f"{scenario}: sample {i} is {value!r}, permanent "
                        f"gives {want_p!r}")
    return None


# ---------------------------------------------------------------------------
# cli_sweep: fig2 sweep of the erased cross coincidence D6 & D10


def cli_expected_frequency(swept: str) -> float:
    """phi_C is crossed by both photons, phi_B and phi_S by one."""
    return 2.0 if swept == "phi_C" else 1.0


def check_cli_sweep(swept: str, fixed: dict, start: float, end: float,
                    n_samples: int, exit_code: int, text: str) -> str | None:
    if exit_code != 0:
        return f"mzsim exited with {exit_code}"
    try:
        doc = json.loads(text)
        samples = doc["samples"]
        fit = doc["fit"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable sweep output: {exc}"
    if doc.get("parameter") != swept:
        return f"swept {doc.get('parameter')!r}, expected {swept!r}"
    if len(samples) != n_samples:
        return f"{len(samples)} samples, expected {n_samples}"
    step = (end - start) / n_samples
    for i, (phi, value) in enumerate(samples):
        if abs(phi - (start + i * step)) > 1e-9:
            return f"sample {i} at phase {phi}"
        phases = fixed | {swept: phi}
        want = cross_coincidence_erased(_SQRT_HALF, 1j * _SQRT_HALF,
                                        phases["phi_C"], phases["phi_B"],
                                        phases["phi_S"])
        if abs(value - want) > AMPLITUDE_TOL:
            return f"sample {i} is {value!r}, closed form gives {want!r}"
    if fit is None:
        return "sweep was not fitted"
    if fit["spatial_frequency"] != cli_expected_frequency(swept):
        return (f"fitted frequency {fit['spatial_frequency']} for {swept}, "
                f"expected {cli_expected_frequency(swept)}")
    if not fit["visibility"] > FRINGE_VISIBILITY:
        return f"visibility {fit['visibility']:.6f}"
    return None


# ---------------------------------------------------------------------------
# reduced: compile, evolve, density matrix, partial trace, readouts


def reduce_pure(items, keep) -> dict:
    """Reduced density matrix on the ``keep`` modes, grouped from pure amplitudes."""
    groups: dict[tuple, list] = {}
    keep_set = set(keep)
    for occ, a in items:
        traced = tuple(c for m, c in enumerate(occ) if m not in keep_set)
        groups.setdefault(traced, []).append((tuple(occ[m] for m in keep), a))
    rho: dict[tuple, complex] = {}
    for members in groups.values():
        for ket, a in members:
            for bra, b in members:
                rho[(ket, bra)] = rho.get((ket, bra), 0j) + a * b.conjugate()
    return rho


def check_reduced(circuit, toggles, phases, input_state: dict, keep,
                  result) -> str | None:
    """Trace 1, Hermitian, and readouts equal to sums over the pure state.

    ``result`` is (pure output state, reduced matrix, coincidence of the
    two kept modes, mean photon number of the first kept mode).  The largest
    output amplitudes are also recomputed from the permanent.
    """
    out, rho, coincidence, mean_first = result
    items = list(out.items())
    norm = sum(abs(a) ** 2 for _, a in items)
    if abs(norm - 1) > AMPLITUDE_TOL:
        return f"output norm {norm!r}"
    u = unitary(circuit, phases, toggles)
    for occ, a in sorted(items, key=lambda kv: -abs(kv[1]))[:2]:
        want = output_amplitude(u, input_state, occ)
        if abs(a - want) > AMPLITUDE_TOL:
            return f"amplitude at {occ} is {a!r}, permanent gives {want!r}"
    entries = rho.entries
    if tuple(rho.modes) != tuple(keep):
        return f"reduced modes {rho.modes}, expected {tuple(keep)}"
    trace = sum(v for (a, b), v in entries.items() if a == b)
    if abs(trace - 1) > AMPLITUDE_TOL:
        return f"trace {trace!r}"
    for (a, b), v in entries.items():
        if abs(v - entries.get((b, a), 0j).conjugate()) > AMPLITUDE_TOL:
            return f"not Hermitian at {a}, {b}"
    want_rho = reduce_pure(items, keep)
    for key in set(entries) | set(want_rho):
        if abs(entries.get(key, 0j) - want_rho.get(key, 0j)) > AMPLITUDE_TOL:
            return f"reduced entry {key} is {entries.get(key, 0j)!r}, " \
                   f"pure state gives {want_rho.get(key, 0j)!r}"
    first, second = keep
    want_c = sum(occ[first] * occ[second] * abs(a) ** 2 for occ, a in items)
    if abs(coincidence - want_c) > AMPLITUDE_TOL:
        return f"coincidence {coincidence!r}, pure state gives {want_c!r}"
    want_n = sum(occ[first] * abs(a) ** 2 for occ, a in items)
    if abs(mean_first - want_n) > AMPLITUDE_TOL:
        return f"mean photon number {mean_first!r}, pure state gives {want_n!r}"
    return None


# ---------------------------------------------------------------------------
# verify: the built-in golden suite

VERIFY_MIN_CHECKS = 19


def check_verify(result) -> str | None:
    failures, results = result
    failed = [name for name, error in results if error is not None]
    if failures or failed:
        return f"{failures} verify checks failed: {', '.join(failed)}"
    if len(results) < VERIFY_MIN_CHECKS:
        return f"only {len(results)} verify checks ran, expected {VERIFY_MIN_CHECKS}"
    return None
