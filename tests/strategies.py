"""Hypothesis strategies shared by the test modules: occupations,
normalized superpositions and random circuits with a swept delay, plus the
random unitaries some of them are evolved through, and the row block of a
unitary stack that the expansion engine reads."""

import math
from collections import Counter

import numpy as np
from hypothesis import strategies as st

from mzsim import BeamSplitterCoeffs, Circuit, CircuitElement, FockState


def random_unitary(rng, m):
    """Haar-ish unitary from the QR decomposition of a complex Gaussian."""
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def occupied_rows(state, stack):
    """The (K x R x M) block of a (K x M x M) stack that ``_evolve_grid``
    takes: the rows of the modes ``state`` occupies, in mode order."""
    return stack[:, state._occupied_modes()]


@st.composite
def occupations(draw, modes, photons):
    """One occupation vector of ``photons`` photons over ``modes`` modes."""
    counts = Counter(draw(st.lists(st.integers(0, modes - 1),
                                   min_size=photons, max_size=photons)))
    return tuple(counts[m] for m in range(modes))


@st.composite
def superpositions(draw, modes, photons):
    kets = draw(st.lists(occupations(modes, photons), min_size=1, max_size=3,
                         unique=True))
    parts = st.floats(-1, 1)
    amps = {occ: complex(draw(parts), draw(parts)) for occ in kets}
    if sum(abs(a) ** 2 for a in amps.values()) < 1e-3:
        amps[kets[0]] = 1.0
    return FockState(amps, modes).normalized()


@st.composite
def swept_circuits(draw):
    """A random circuit with the swept delay "phi" on 1-3 elements.

    Splitters, swaps and a second delay "psi" are mixed in; the first "phi"
    element may be toggleable and disabled.
    """
    m = draw(st.integers(2, 4))
    crossings = draw(st.integers(1, 3))
    others = draw(st.lists(st.sampled_from(("bs", "bs", "psi", "swap")),
                           min_size=2, max_size=6))
    kinds = draw(st.permutations(["phi"] * crossings + others))
    elements = []
    for i, kind in enumerate(kinds):
        a, b = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2,
                             unique=True))
        if kind == "bs":
            coeffs = BeamSplitterCoeffs.from_angle(
                draw(st.floats(0.1, 1.5)), draw(st.floats(0, 2 * math.pi)),
                draw(st.sampled_from((1, -1))))
            elements.append(CircuitElement("bs", f"B{i}", (a, b), coeffs))
        elif kind == "swap":
            elements.append(CircuitElement("swap", f"S{i}", (a, b)))
        else:
            elements.append(CircuitElement("phase", f"P{i}", (a,), param=kind))
    first_phi = next(e.name for e in elements if e.param == "phi")
    toggles = frozenset([first_phi]) if draw(st.booleans()) else frozenset()
    enabled = tuple(toggles) if draw(st.booleans()) else ()
    detectors = {f"D{k}": k for k in range(m)}
    return Circuit(m, tuple(elements), detectors, toggles), enabled
