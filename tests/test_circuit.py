"""Tests for circuit construction, presets, compilation, and the .mzc format."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import (BALANCED, BeamSplitterCoeffs, Circuit, CircuitElement,
                   CircuitError, CircuitParseError, InvalidCoefficientsError,
                   MissingPhaseError, PRESET_NAMES, braced, compile, evolve,
                   is_unitary, load_preset_file, parse_circuit, preset,
                   preset_fig1, preset_fig2, preset_fig3, serialize,
                   basis_state, bs_unitary, embed, phase_unitary,
                   swap_unitary)
from mzsim.circuit import _compile_grid, format_complex, parse_complex
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
    with pytest.raises(ValueError):
        preset("fig9")


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
    phases = {"phi_C": 0.2, "phi_S": 0.4, "phi_B": 0.6}
    without = compile(c, phases)
    baseline = compile(preset("fig1"), {"phi_C": 0.2, "phi_B": 0.6})
    from mzsim import phase_unitary
    ps_mode = c.element("PS").modes[0]
    assert np.allclose(without, baseline @ phase_unitary(ps_mode, 0.4, 12))
    assert not np.allclose(without, compile(c, phases, ("BS2",)))


def test_compile_rejects_unknown_toggles_and_missing_phases():
    c = preset("fig2")
    with pytest.raises(CircuitError):
        compile(c, {"phi_C": 0, "phi_S": 0, "phi_B": 0}, ("BS9",))
    with pytest.raises(MissingPhaseError):
        compile(c, {"phi_C": 0.0})


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
])
def test_parse_errors_carry_line_numbers(bad_line, line_no):
    with pytest.raises(CircuitParseError) as exc:
        parse_circuit(bad_line)
    assert exc.value.line_no == line_no
    assert f"line {line_no}" in str(exc.value)


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
