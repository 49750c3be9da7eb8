"""Erasing the path mark revives fringes, and the choice can be made late.

Two ways of erasing the which-path mark left by the arm taps of fig1/fig2:

1.  Projective erasure (fig1): keep the taps wired to their detectors, but
    instead of asking "did D6 or D7 click" project the tap photon onto a
    balanced superposition of the two tap paths.  In coincidence with the
    outer detector D10 the fringes return, at half the spatial frequency of
    the direct D10 & D11 fringes.

2.  A closing splitter (fig2): recombine the two tapped beams on a removable
    balanced splitter BS2 before the detectors.  After BS2 a click at D6
    no longer says which arm the photon came from, and coincidences with the
    outer detectors oscillate again.

Because BS2 shares no modes with anything placed after it, moving it to the
very end of the element list compiles to the same total unitary.  Deciding
whether to erase after the other photon has already flown through the outer
interferometer changes nothing; this is the delayed-choice version of the
experiment.
"""

import numpy as np

from mzsim import (DetectionPattern, compile, delayed_choice_variant,
                   one_photon_each_input, preset, run_scan)
from mzsim.reference import eraser_projector


def main():
    print(__doc__)
    fig1 = preset("fig1")
    state = one_photon_each_input(fig1)

    direct = run_scan(fig1, (), state, DetectionPattern({"D10": 1, "D11": 1}),
                      "phi_B", {"phi_C": 0.0}, n_samples=128)
    projected = run_scan(fig1, (), state, eraser_projector(),
                         "phi_B", {"phi_C": 0.0}, n_samples=128)
    print("fig1, sweeping phi_B:")
    print(f"  direct D10 & D11 fringes:   frequency {direct.spatial_frequency}"
          f"  visibility {direct.visibility:.4f}")
    print(f"  projective erasure & D10:   frequency "
          f"{projected.spatial_frequency}  visibility {projected.visibility:.4f}")
    print("  -> full visibility at half the frequency: the conditioned")
    print("     fringe goes as cos^2(phi_B / 2) instead of cos^2(phi_B).")
    print()

    fig2 = preset("fig2")
    state2 = one_photon_each_input(fig2)
    marked = run_scan(fig2, (), state2, DetectionPattern({"D6": 1, "D10": 1}),
                      "phi_B", {"phi_C": 0.0, "phi_S": 0.0}, n_samples=128)
    erased = run_scan(fig2, ("BS2",), state2,
                      DetectionPattern({"D6": 1, "D10": 1}),
                      "phi_B", {"phi_C": 0.0, "phi_S": 0.0}, n_samples=128)
    print("fig2, D6 & D10 coincidence while sweeping phi_B:")
    print(f"  BS2 removed (marking):  visibility {marked.visibility:.2e}"
          f"  ({marked.classify()})")
    print(f"  BS2 in place (erasing): visibility {erased.visibility:.4f}"
          f"  ({erased.classify()}), frequency {erased.spatial_frequency}")
    print()

    late = delayed_choice_variant(fig2, "BS2")
    phases = {"phi_C": 0.8, "phi_S": 0.3, "phi_B": 1.7}
    same = np.allclose(compile(fig2, phases, ("BS2",)),
                       compile(late, phases, ("BS2",)))
    print("Delayed choice: moving BS2 to the end of the element list")
    print(f"  element order changed, compiled unitary identical: {same}")


if __name__ == "__main__":
    main()
