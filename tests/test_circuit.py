"""Tests for circuit construction, presets, compilation, and the .mzc format."""

import dataclasses
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, BeamSplitterCoeffs, Circuit, CircuitElement,
                   CircuitError, CircuitParseError, DimensionMismatchError,
                   InvalidCoefficientsError,
                   MissingPhaseError, PRESET_NAMES, braced, compile, evolve,
                   is_unitary, load_preset_file, parse_circuit, preset,
                   preset_fig1, preset_fig2, preset_fig3, serialize,
                   basis_state, bs_unitary, embed, phase_unitary,
                   swap_unitary)
from mzsim.circuit import _compile_grid, format_complex, parse_complex
from mzsim.optics import COMPILE_ENTRY_BYTES, EXPANSION_BYTES, MAX_MODES
from strategies import swept_circuits


def random_phases(rng, circuit):
    return {p: float(rng.uniform(0, 2 * math.pi)) for p in circuit.parameters}


# ---------------------------------------------------------------------------
# elements and circuit validation


def test_element_kind_validation():
    with pytest.raises(CircuitError):
        CircuitElement("bs", "B", (0, 1))                   # missing coeffs
    with pytest.raises(CircuitError):
        CircuitElement("phase", "P", (0, 1), param="phi")   # two modes
    with pytest.raises(CircuitError):
        CircuitElement("phase", "P", (0,))                  # missing param
    with pytest.raises(CircuitError):
        CircuitElement("swap", "S", (0,))
    with pytest.raises(CircuitError):
        CircuitElement("mirror", "M", (0, 1))
    with pytest.raises(CircuitError):
        CircuitElement("swap", "S", (0, 1), BALANCED)       # stray coeffs
    with pytest.raises(CircuitError):
        CircuitElement("bs", "B", (0, 1), BALANCED, "phi")  # stray param
    with pytest.raises(InvalidCoefficientsError):
        CircuitElement("bs", "B", (0, 1), BeamSplitterCoeffs(0.9, 0.1j))


@pytest.mark.parametrize("coeffs", [BeamSplitterCoeffs(math.nan, BALANCED.r),
                                    BeamSplitterCoeffs(BALANCED.t, math.nan),
                                    BeamSplitterCoeffs(math.nan, math.nan)])
def test_nan_coefficients_are_rejected(coeffs):
    with pytest.raises(InvalidCoefficientsError):
        coeffs.validate()
    with pytest.raises(InvalidCoefficientsError):
        CircuitElement("bs", "B", (0, 1), coeffs)
    with pytest.raises(InvalidCoefficientsError):
        braced(3, [coeffs] * 2)


@pytest.mark.parametrize("name", ["a#b", "a b", "a\tb", "a\u2028b", "", 7])
def test_names_that_cannot_be_one_mzc_token_are_rejected(name):
    with pytest.raises(CircuitError):
        CircuitElement("bs", name, (0, 1), BALANCED)
    with pytest.raises(CircuitError):
        CircuitElement("phase", "P", (0,), param=name)
    with pytest.raises(CircuitError):
        Circuit(2, (), {name: 0})


def test_circuit_validation():
    bs = CircuitElement("bs", "B", (0, 1), BALANCED)
    with pytest.raises(CircuitError):
        Circuit(2, (bs, bs))                                # duplicate name
    with pytest.raises(CircuitError):
        Circuit(1, (bs,))                                   # mode out of range
    with pytest.raises(CircuitError):
        Circuit(2, (CircuitElement("swap", "S", (1, 1)),))  # repeated mode
    with pytest.raises(CircuitError):
        Circuit(2, (bs,), {"D": 5})
    with pytest.raises(CircuitError):
        Circuit(2, (bs,), {"Da": 0, "Db": 0})               # shared detector mode
    with pytest.raises(CircuitError):
        Circuit(2, (bs,), {}, frozenset({"nope"}))


@pytest.mark.parametrize("build", [
    lambda: Circuit(2, (CircuitElement("swap", "S", (0.0, 1)),)),
    lambda: Circuit(2, (CircuitElement("phase", "P", (1.0,), param="p"),)),
    lambda: Circuit(2.5, (), {}),
    lambda: Circuit(0, (), {}),
    lambda: Circuit("2", (), {}),
    lambda: Circuit(2, (), {"D": 0.5}),
    lambda: Circuit(2, (), {"D": 1.0}),
])
def test_modes_and_mode_counts_must_be_integers(build):
    with pytest.raises(CircuitError, match="mode"):
        build()


def test_a_mode_count_too_large_to_compile_is_refused_when_built():
    # a whole compile peaks at 48 M^2 bytes, which EXPANSION_BYTES bounds;
    # braced(5)'s 30 modes and a 48-mode braced(8) are far inside it
    assert MAX_MODES == 4_729 and 48 * MAX_MODES ** 2 <= EXPANSION_BYTES
    assert Circuit(MAX_MODES, ()).mode_count == MAX_MODES
    message = "mode count 4730 is not a whole number in 1..4,729"
    with pytest.raises(CircuitError, match=message):
        Circuit(MAX_MODES + 1, ())
    tracemalloc.start()
    try:
        with pytest.raises(CircuitParseError, match="line 1: mode count"):
            parse_circuit("modes 1000000000\nswap S 0 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


def test_a_family_too_large_to_compile_is_refused_before_it_allocates():
    # 11 toggle sets x 251 phases x 2 rows x 4,051 modes is one entry past
    # what EXPANSION_BYTES holds at COMPILE_ENTRY_BYTES per entry, though
    # each of K, R and M is within its own bound
    entries = 11 * 251 * 2 * 4051
    assert entries == EXPANSION_BYTES // COMPILE_ENTRY_BYTES + 1
    circuit = Circuit(4051, (CircuitElement("bs", "B", (0, 1), BALANCED),
                             CircuitElement("phase", "P", (0,), param="phi")),
                      toggles=frozenset({"B"}))
    phases = {"phi": np.linspace(0.0, 1.0, 251)}
    sets = [("B",), ()] * 5 + [()]
    message = ("compiling 2,761 slices of 2 x 4,051 entries peaks at "
               "1,073,741,856 bytes; at most 1,073,741,824 fit in memory")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            _compile_grid(circuit, phases, rows=(0, 1), sets=sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


def test_per_slice_coefficients_are_checked():
    c = preset("fig2")
    phases = {"phi_C": [0.1, 0.2], "phi_B": 0.3, "phi_S": 0.4}
    taps = [BeamSplitterCoeffs.from_angle(0.3), BALANCED]
    with pytest.raises(InvalidCoefficientsError):
        _compile_grid(c, phases, coeffs={
            "BS4": [taps[0], BeamSplitterCoeffs(0.6, 0.6j)]})
    for name in ("PS", "BS4a", "nope"):
        with pytest.raises(CircuitError, match="not a beam splitter"):
            _compile_grid(c, phases, coeffs={name: taps})
    for given in ([], taps[:1], taps * 2):
        with pytest.raises(DimensionMismatchError,
                           match="BS4 coefficients of shape"):
            _compile_grid(c, phases, coeffs={"BS4": given})
    # coefficients alone set K
    grid = _compile_grid(c, {"phi_C": 0.1, "phi_B": 0.3, "phi_S": 0.4},
                         coeffs={"BS5": taps})
    for row, tap in zip(grid, taps):
        layout = Circuit(c.mode_count, tuple(
            dataclasses.replace(e, coeffs=tap) if e.name == "BS5" else e
            for e in c.elements), c.detectors, c.toggles)
        assert row.tobytes() == compile(
            layout, {"phi_C": 0.1, "phi_B": 0.3, "phi_S": 0.4}).tobytes()


def test_parameters_listed_in_order_without_duplicates():
    c = preset("fig2")
    assert c.parameters == ("phi_C", "phi_S", "phi_B")
    assert preset("fig1").parameters == ("phi_C", "phi_B")


def test_element_lookup():
    c = preset("fig1")
    assert c.element("BS1").kind == "bs"
    with pytest.raises(KeyError):
        c.element("BS99")


# ---------------------------------------------------------------------------
# presets


def test_preset_names_cover_all_presets():
    for name in PRESET_NAMES:
        c = preset(name)
        assert isinstance(c, Circuit)
    # names that parse as a braced stack are still not presets
    for name in ("fig9", "braced_03", "braced_2", "braced_6", " fig1"):
        with pytest.raises(ValueError, match="choose from fig1, fig2, fig3, "
                                             "braced_3, braced_4, braced_5"):
            preset(name)


def test_preset_shapes():
    fig1 = preset("fig1")
    assert fig1.mode_count == 12
    assert fig1.detectors == {"D6": 6, "D7": 7, "D10": 10, "D11": 11}
    assert fig1.toggles == frozenset()

    fig2 = preset("fig2")
    assert fig2.mode_count == 12
    assert fig2.toggles == frozenset({"BS2"})

    fig3 = preset("fig3")
    assert fig3.mode_count == 18
    assert fig3.detectors["D6p"] == 16 and fig3.detectors["D7p"] == 17
    assert fig3.toggles == frozenset({"BS2", "BS2p"})
    assert fig3.parameters == ("phi_C", "phi_Sp", "phi_S", "phi_B")


def test_braced_scaling():
    for n, modes, toggles in ((2, 12, 1), (3, 18, 2), (4, 24, 3), (5, 30, 4)):
        c = braced(n)
        assert c.mode_count == modes
        assert len(c.toggles) == toggles
        assert len(c.detectors) == 2 * n
    with pytest.raises(ValueError):
        braced(1)
    with pytest.raises(ValueError):
        braced(6)
    with pytest.raises(ValueError):
        braced(3, [BALANCED])                               # needs two tap pairs


@pytest.mark.parametrize("build", [
    lambda: braced(3, [1, 2]),
    lambda: braced(3, [BALANCED, (BALANCED.t, BALANCED.r)]),
    lambda: preset_fig1(tap=1),
    lambda: CircuitElement("bs", "X", (0, 1), coeffs=5),
], ids=["braced-int", "braced-tuple", "fig1-int", "element-int"])
def test_a_tap_that_is_not_a_coefficient_pair_is_a_circuit_error(build):
    with pytest.raises(CircuitError, match="needs two modes and coefficients"):
        build()


def test_braced_reads_its_photon_number_as_a_count():
    # a whole float is a count, as in an occupation; 2.5 and "3" are not
    assert braced(3.0) == braced(3)
    for n in (2.5, "3"):
        with pytest.raises(ValueError):
            braced(n)


def test_braced_3_equals_fig3():
    assert braced(3) == preset_fig3()
    assert preset("braced_3") == preset("fig3")


def test_custom_tap_coefficients_show_up_in_elements():
    tap = BeamSplitterCoeffs.from_angle(0.3)
    c = preset_fig1(tap)
    assert c.element("BS4").coeffs == tap
    assert c.element("BS5").coeffs == tap
    assert c.element("BS1").coeffs == BALANCED


def test_fig1_is_fig2_without_the_closing_splitter():
    fig1, fig2 = preset_fig1(), preset_fig2()
    names1 = {e.name for e in fig1.elements}
    names2 = {e.name for e in fig2.elements}
    assert names2 - names1 == {"PS", "BS2"}
    for e in fig1.elements:
        assert fig2.element(e.name) == e


# ---------------------------------------------------------------------------
# compilation


def test_compile_is_unitary_for_all_presets(seed=21):
    rng = np.random.default_rng(seed)
    for name in PRESET_NAMES:
        c = preset(name)
        u = compile(c, random_phases(rng, c), c.toggles)
        assert u.shape == (c.mode_count, c.mode_count)
        assert is_unitary(u)


def test_compile_applies_first_element_leftmost():
    elements = (CircuitElement("bs", "B", (0, 1), BALANCED),
                CircuitElement("phase", "P", (0,), param="phi"))
    c = Circuit(2, elements)
    u = compile(c, {"phi": 0.7})
    from mzsim import bs_unitary, phase_unitary
    expected = bs_unitary(BALANCED, 0, 1, 2) @ phase_unitary(0, 0.7, 2)
    assert np.allclose(u, expected)


def test_disabled_toggle_compiles_to_identity():
    elements = (CircuitElement("bs", "B1", (0, 1), BALANCED),
                CircuitElement("bs", "B2", (0, 1), BALANCED))
    c = Circuit(2, elements, {}, frozenset({"B2"}))
    from mzsim import bs_unitary
    block = bs_unitary(BALANCED, 0, 1, 2)
    assert np.allclose(compile(c, {}), block)
    assert np.allclose(compile(c, {}, ("B2",)), block @ block)


def test_open_closing_splitter_reduces_to_the_untapped_layout():
    # fig2 with BS2 disabled differs from fig1 only by the phi_S delay, and
    # that delay commutes with everything downstream of it
    c = preset("fig2")
    assert c.enabled(()) == tuple(e for e in c.elements if e.name != "BS2")
    assert c.enabled(("BS2",)) == c.elements
    phases = {"phi_C": 0.2, "phi_S": 0.4, "phi_B": 0.6}
    without = compile(c, phases)
    baseline = compile(preset("fig1"), {"phi_C": 0.2, "phi_B": 0.6})
    from mzsim import phase_unitary
    ps_mode = c.element("PS").modes[0]
    assert np.allclose(without, baseline @ phase_unitary(ps_mode, 0.4, 12))
    assert not np.allclose(without, compile(c, phases, ("BS2",)))


def test_compile_rejects_unknown_toggles_and_missing_phases():
    c = preset("fig2")
    with pytest.raises(CircuitError, match=r"toggles are \['BS2'\]"):
        compile(c, {"phi_C": 0, "phi_S": 0, "phi_B": 0}, ("BS9",))
    with pytest.raises(MissingPhaseError):
        compile(c, {"phi_C": 0.0})


def test_compile_takes_one_real_number_per_phase():
    # an array is not dropped after its first entry, and a string or a
    # complex number is not read as a phase
    c = preset("fig2")
    for value in ([0.1, 0.2], np.array([0.1]), [[0.1]]):
        with pytest.raises(DimensionMismatchError, match="one value per phase"):
            compile(c, {"phi_C": value, "phi_B": 0, "phi_S": 0})
    for value in ("1", 1j, np.array([1 + 0j, 2]), None):
        with pytest.raises(ValueError, match="phase phi_C is not a real"):
            _compile_grid(c, {"phi_C": value, "phi_B": 0, "phi_S": 0})
    with pytest.raises(ValueError, match="phase phi_B is not a real"):
        compile(c, {"phi_C": 0, "phi_B": "1", "phi_S": 0})
    # bools, signed and unsigned integers and floats are real numbers
    want = compile(c, {"phi_C": 1.0, "phi_B": 0.0, "phi_S": 0.0})
    for value in (True, np.uint8(1), np.int64(1), np.float32(1)):
        got = compile(c, {"phi_C": value, "phi_B": 0, "phi_S": False})
        assert np.array_equal(got, want)


def test_a_python_int_beyond_int64_is_a_real_phase():
    # numpy holds 2**70 in an object array; its entries are real numbers,
    # read with float, and one that float cannot hold is not finite
    c = preset("fig2")
    big = {"phi_C": 2 ** 70, "phi_B": Fraction(1, 3), "phi_S": 0}
    want = compile(c, {"phi_C": float(2 ** 70), "phi_B": 1 / 3, "phi_S": 0.0})
    assert np.array_equal(compile(c, big), want)
    assert np.array_equal(_compile_grid(c, big), want[None])
    grid = _compile_grid(c, {"phi_C": [2 ** 70, 0.5], "phi_B": 0, "phi_S": 0})
    for row, phi in zip(grid, (float(2 ** 70), 0.5)):
        assert np.array_equal(row, compile(c, {"phi_C": phi, "phi_B": 0,
                                               "phi_S": 0}))
    for value in (2 ** 1100, [0.5, -2 ** 1100]):
        with pytest.raises(ValueError, match="phase phi_C is not finite"):
            _compile_grid(c, {"phi_C": value, "phi_B": 0, "phi_S": 0})
    with pytest.raises(ValueError, match="phase phi_C is not finite"):
        compile(c, {"phi_C": 2 ** 1100, "phi_B": 0, "phi_S": 0})
    for value in ([2 ** 70, "1"], [2 ** 70, 1j], [2 ** 70, None]):
        with pytest.raises(ValueError, match="phase phi_C is not a real"):
            _compile_grid(c, {"phi_C": value, "phi_B": 0, "phi_S": 0})


def test_a_ragged_phase_raises_a_dimension_mismatch():
    c = preset("fig2")
    for ragged in ([[0.1], [0.1, 0.2]], [0.1, [0.2, 0.3]]):
        for build in (compile, _compile_grid):
            with pytest.raises(DimensionMismatchError, match="phase phi_B"):
                build(c, {"phi_C": 0.1, "phi_B": ragged, "phi_S": 0})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compile_is_the_ordered_product_of_element_matrices(data):
    # compile works by column updates; the element matrices multiplied in
    # propagation order are the reference, and slice k of the grid compile
    # is compile at the k-th phase set
    circuit, enabled = data.draw(swept_circuits())
    m = circuit.mode_count
    k = data.draw(st.integers(1, 4))
    angle = st.floats(-10, 10)
    # the swept "phi" takes k values; "psi", when present, may be one float
    grid = {p: (np.array(data.draw(st.lists(angle, min_size=k, max_size=k)))
                if p == "phi" or data.draw(st.booleans()) else data.draw(angle))
            for p in circuit.parameters}
    stack = _compile_grid(circuit, grid, enabled)
    assert stack.shape == (k, m, m)
    for step in range(k):
        phases = {p: float(np.broadcast_to(v, k)[step]) for p, v in grid.items()}
        product = np.eye(m, dtype=complex)
        for e in circuit.elements:
            if e.name in circuit.toggles and e.name not in enabled:
                continue
            if e.kind == "bs":
                factor = bs_unitary(e.coeffs, *e.modes, m)
            elif e.kind == "phase":
                factor = phase_unitary(e.modes[0], phases[e.param], m)
            else:
                factor = swap_unitary(*e.modes, m)
            product = product @ factor
        u = compile(circuit, phases, enabled)
        assert np.max(np.abs(u - product)) < 1e-14
        assert np.max(np.abs(stack[step] - u)) < 1e-15


def test_compiled_network_conserves_photons(seed=23):
    rng = np.random.default_rng(seed)
    c = preset("fig3")
    u = compile(c, random_phases(rng, c), ("BS2",))
    state = embed(basis_state((1, 1)), c.mode_count, (0, 1))
    out = evolve(state, u)
    assert out.total_photons == 2
    assert abs(out.norm() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# complex literals


def test_complex_literal_round_trip(seed=29):
    rng = np.random.default_rng(seed)
    values = [1.0, -1.0, 1j, -0.5j, 0.25 + 0.75j, -0.3 - 0.4j,
              complex(1 / math.sqrt(2), 1 / math.sqrt(2))]
    values += [complex(rng.normal(), rng.normal()) for _ in range(10)]
    for z in values:
        assert parse_complex(format_complex(z)) == z


def test_parse_complex_accepts_common_forms():
    assert parse_complex("1") == 1.0
    assert parse_complex("0.5i") == 0.5j
    assert parse_complex("-0.25+0.75i") == -0.25 + 0.75j
    for bad in ("", "1 + 2i", "abc", "1j", "infi"):
        with pytest.raises(ValueError):
            parse_complex(bad)


# ---------------------------------------------------------------------------
# .mzc serialization


def test_serialize_parse_round_trip_for_presets():
    for name in PRESET_NAMES:
        c = preset(name)
        assert parse_circuit(serialize(c)) == c


mzc_names = st.text(st.characters(exclude_categories=("Cs",),
                                   exclude_characters="#"),
                    min_size=1, max_size=6).filter(
    lambda text: not any(c.isspace() for c in text))


@st.composite
def named_circuits(draw):
    """A random swept circuit with random element, phase-parameter,
    detector and toggle names."""
    circuit, _ = draw(swept_circuits())
    count = len(circuit.elements)
    labels = draw(st.lists(mzc_names, min_size=count, max_size=count,
                           unique=True))
    params = dict(zip(("phi", "psi"), draw(st.lists(
        mzc_names, min_size=2, max_size=2, unique=True))))
    elements = tuple(
        dataclasses.replace(e, name=label, param=params.get(e.param))
        for e, label in zip(circuit.elements, labels))
    toggles = draw(st.sets(st.sampled_from(labels)))
    m = circuit.mode_count
    detected = draw(st.permutations(range(m)))[:draw(st.integers(0, m))]
    detector_names = draw(st.lists(mzc_names, min_size=len(detected),
                                   max_size=len(detected), unique=True))
    return Circuit(m, elements, dict(zip(detector_names, detected)),
                   frozenset(toggles))


@settings(max_examples=150, deadline=None)
@given(named_circuits())
def test_serialize_round_trips_random_circuits(circuit):
    text = serialize(circuit)
    back = parse_circuit(text)
    assert back == circuit
    assert serialize(back) == text


def test_shipped_circuit_files_match_presets():
    for name in ("fig1", "fig2", "fig3"):
        assert load_preset_file(name) == preset(name)
    # the deeper stacks are pinned by test data, detector order included
    for name in ("braced_4", "braced_5"):
        text = (pathlib.Path(__file__).parent / "data" / f"{name}.mzc").read_text()
        assert parse_circuit(text) == preset(name)
        assert serialize(preset(name)) == text


def test_parse_ignores_comments_and_blank_lines():
    text = """
    # a tiny interferometer
    modes 2

    bs B 0 1 T=0.7071067811865475 R=0.7071067811865475i  # balanced
    detect Da 0
    detect Db 1
    """
    c = parse_circuit(text)
    assert c.mode_count == 2
    assert c.detectors == {"Da": 0, "Db": 1}


def test_parse_infers_mode_count_when_absent():
    c = parse_circuit("swap S 0 4\ndetect D 2\n")
    assert c.mode_count == 5


def test_parse_toggle_flag():
    text = ("bs B 0 1 T=0.7071067811865475 R=0.7071067811865475i toggle\n"
            "detect D 0\n")
    c = parse_circuit(text)
    assert c.toggles == frozenset({"B"})
    c = parse_circuit("phase P 0 toggle toggle\nswap S 0 1 toggle\n"
                      "phase Q 1 toggle\n")
    assert c.toggles == frozenset({"P", "S"})
    assert c.element("Q").param == "toggle"


@pytest.mark.parametrize("bad_line,line_no", [
    ("modes 0", 1),
    ("modes two", 1),
    ("bs B 0 1 T=1", 1),
    ("bs B 0 1 T=1 Q=0", 1),
    ("bs B 0 1 T=0.9 R=0.1i", 1),          # fails unitarity check
    ("bs B 0 1 T=1 R=0 extra", 1),
    ("phase P 0", 1),
    ("phase P 0 phi on", 1),
    ("swap S 0 1 on", 1),
    ("swap S 0", 1),
    ("detect D", 1),
    ("teleport T 0 1", 1),
    ("swap S 0 x", 1),
    ("swap S -1 0", 1),
    # faults of one element or detector, reported at its own line
    ("modes 4\nbs X 1 1 T=0.7071067811865475 R=0.7071067811865475i\n"
     "swap S 0 1\nswap Q 2 3", 2),                           # repeated mode
    ("modes 4\nbs X 1 9 T=0.7071067811865475 R=0.7071067811865475i\n"
     "swap S 0 1\nswap Q 2 3", 2),                           # past modes 4
    ("modes 4\nswap S 0 1\ndetect D 7\nswap Q 2 3", 3),
    ("modes 4\ndetect A 1\ndetect B 1\ndetect C 2", 3),     # shared mode
    ("swap S 1 1\nswap Q 2 3", 1),
    ("detect D 1 toggle", 1),
    ("detect D 0\ndetect D 1\nswap S 0 1", 2),            # repeated name
    ("detect D 0\nmodes 2\nswap S 0 1", 2),               # modes after it
    ("bs B 0 1 T=abc R=0", 1),
    ("bs B 0 1 T=1e200 R=0", 1),                          # |T|^2 overflows
])
def test_parse_errors_carry_line_numbers(bad_line, line_no):
    with pytest.raises(CircuitParseError) as exc:
        parse_circuit(bad_line)
    assert exc.value.line_no == line_no
    assert f"line {line_no}" in str(exc.value)


#: Tokens a mutation may insert, beside the file's own: a coefficient too
#: large to square must still be a parse error, not an OverflowError.
JUNK_TOKENS = ("toggle", "modes", "detect", "-1", "99", "x", "T=abc", "R=",
               "#", "T=1e200", "R=1.7e308+1.7e308i")


@st.composite
def mutated_mzc(draw):
    """The .mzc text of a preset or a swept circuit, mutated one to three
    times: a line duplicated or dropped, or a token inserted, replaced or
    deleted."""
    circuit = draw(st.one_of(st.sampled_from(PRESET_NAMES).map(preset),
                             swept_circuits().map(lambda drawn: drawn[0])))
    lines = [line.split() for line in serialize(circuit).splitlines()]
    tokens = st.sampled_from(sorted({t for line in lines for t in line})
                             + list(JUNK_TOKENS))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        op = draw(st.sampled_from(("duplicate", "drop", "insert", "replace",
                                   "delete")))
        if op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), list(line))
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "insert" or not line:
            line.insert(draw(st.integers(0, len(line))), draw(tokens))
        elif op == "replace":
            line[draw(st.integers(0, len(line) - 1))] = draw(tokens)
        else:
            del line[draw(st.integers(0, len(line) - 1))]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_mzc())
def test_a_mutated_file_parses_or_fails_at_one_of_its_lines(text):
    try:
        circuit = parse_circuit(text)
    except CircuitParseError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines())
    else:
        assert parse_circuit(serialize(circuit)) == circuit


def test_parse_reports_later_line_numbers():
    text = "modes 2\nswap S 0 1\nswap S 1 0\n"
    with pytest.raises(CircuitParseError) as exc:
        parse_circuit(text)
    assert exc.value.line_no == 3


def test_parse_rejects_structural_problems():
    with pytest.raises(CircuitParseError):
        parse_circuit("modes 2\nmodes 3\n")
    with pytest.raises(CircuitParseError):
        parse_circuit("swap S 0 1\nmodes 2\n")             # modes after elements
    with pytest.raises(CircuitParseError):
        parse_circuit("detect D 0\ndetect D 1\n")
    with pytest.raises(CircuitParseError):
        parse_circuit("modes 2\nswap S 0 5\n")             # out of range
    with pytest.raises(CircuitParseError):
        parse_circuit("")


def test_serialized_presets_compile_identically(seed=31):
    rng = np.random.default_rng(seed)
    for name in ("fig2", "fig3"):
        c = preset(name)
        back = parse_circuit(serialize(c))
        phases = random_phases(rng, c)
        assert np.allclose(compile(c, phases, c.toggles),
                           compile(back, phases, back.toggles))
