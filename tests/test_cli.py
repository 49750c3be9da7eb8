"""Tests for the mzsim command line front end.

main() is called in process with argument lists; stdout and stderr are read
back through capsys.  One subprocess test checks the installed entry point.
"""

import contextlib
import io
import json
import math
import pathlib
import shutil
import subprocess
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzsim import (DetectionPattern, FockState, NonUnitaryError, compile,
                   evolve, one_photon_each_input, parse_circuit,
                   pattern_probability, preset, serialize)
from mzsim.cli import MAX_SWEEP_SAMPLES, main
from mzsim.scenarios import _fit_samples, _probabilities, _scan_values

BALANCED_BS = "T=0.7071067811865475 R=0.7071067811865475i"

# two passes of the same delay between splitters: the coincidence mixes
# harmonics, so the scan fit has to give up on it
DOUBLE_PASS = f"""modes 2
bs B1 0 1 {BALANCED_BS}
phase P1 0 phi
bs B2 0 1 T=0.8 R=0.6i
phase P2 0 phi
bs B3 0 1 {BALANCED_BS}
detect Da 0
detect Db 1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# point evaluations


def test_point_run_csv(capsys):
    code, out, err = run_cli(capsys, "--preset", "fig1",
                             "--pattern", "D10:1,D11:1",
                             "--phases", "phi_C=0.0,phi_B=0.0")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "pattern,probability"
    label, value = lines[1].rsplit(",", 1)
    assert label == "D10:1,D11:1"
    assert abs(float(value) - 0.25) < 1e-12      # |t1|^4 cos^2(0)


def test_point_run_json(capsys):
    code, out, _ = run_cli(capsys, "--preset", "fig2", "--format", "json",
                           "--toggles", "BS2",
                           "--pattern", "D6:1,D7:1",
                           "--phases", "phi_C=0.0,phi_S=0.0,phi_B=0.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["circuit"] == "fig2"
    assert doc["toggles"] == ["BS2"]
    assert abs(doc["probability"] - 0.25) < 1e-12  # |r1|^4 cos^2(0)


def test_engineered_noon_input(capsys):
    code, out, _ = run_cli(capsys, "--preset", "fig3",
                           "--input", "engineered-noon:3",
                           "--toggles", "BS2,BS2p",
                           "--pattern", "D6p:1,D6:1,D10:1",
                           "--phases",
                           f"phi_C={math.pi / 6},phi_B=0,phi_S=0,phi_Sp=0")
    assert code == 0
    value = float(out.strip().splitlines()[1].rsplit(",", 1)[1])
    assert abs(value - 3 / 64) < 1e-12


def test_state_file_input(capsys, tmp_path):
    state = FockState({(1, 1): 1.0})
    path = tmp_path / "pair.json"
    path.write_text(state.to_json())
    code, out, _ = run_cli(capsys, "--preset", "fig1",
                           "--input", str(path),
                           "--pattern", "D10:1,D11:1",
                           "--phases", "phi_C=0.1,phi_B=0.1")
    assert code == 0
    value = float(out.strip().splitlines()[1].rsplit(",", 1)[1])
    assert abs(value - 0.25) < 1e-12


def test_non_exclusive_flag_changes_the_answer(capsys):
    args = ("--preset", "fig1", "--pattern", "D10:1",
            "--phases", "phi_C=0.0,phi_B=0.0")
    _, strict_out, _ = run_cli(capsys, *args)
    _, loose_out, _ = run_cli(capsys, *args, "--non-exclusive")
    strict = float(strict_out.strip().splitlines()[1].rsplit(",", 1)[1])
    loose = float(loose_out.strip().splitlines()[1].rsplit(",", 1)[1])
    assert loose > strict                         # marginal includes tap clicks
    assert abs(strict - 0.0) < 1e-12              # both photons bunch or tap fires
    assert abs(loose - 0.5) < 1e-12


def test_circuit_file_matches_preset(capsys, tmp_path):
    path = tmp_path / "own.mzc"
    path.write_text(serialize(preset("fig1")))
    args = ("--pattern", "D10:1,D11:1", "--phases", "phi_C=0.3,phi_B=1.0")
    _, from_file, _ = run_cli(capsys, "--circuit", str(path), *args)
    _, from_preset, _ = run_cli(capsys, "--preset", "fig1", *args)
    value_file = float(from_file.strip().splitlines()[1].rsplit(",", 1)[1])
    value_preset = float(from_preset.strip().splitlines()[1].rsplit(",", 1)[1])
    assert value_file == value_preset


@pytest.mark.parametrize("run", [("--phases", "phi_C=0.1,phi_B=0.4,phi_S=1.1"),
                                 ("--sweep", "phi_C:0:1:4",
                                  "--phases", "phi_B=0.4,phi_S=1.1")])
def test_an_over_photon_pattern_is_a_cli_warning_without_a_location(capsys,
                                                                    run):
    # the notice is the CLI's own line on stderr, at every call, and no
    # Python warning (which would name a source line) leaves main
    for _ in range(2):
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "--preset", "fig2",
                                     "--pattern", "D10:3", *run)
        assert code == 0 and not escaped
        assert err == ("mzsim: warning: pattern wants 3 photons, state "
                       "carries 2; probability is identically zero\n")
        assert {line.rsplit(",", 1)[1] for line in out.splitlines()[1:]} == {
            "0.0"}


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_csv_reproduces_the_fringe(capsys):
    code, out, _ = run_cli(capsys, "--preset", "fig1",
                           "--pattern", "D10:1,D11:1",
                           "--sweep", "phi_B:0:6.283185307179586:32",
                           "--phases", "phi_C=0.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phase,probability"
    assert len(lines) == 33
    for line in lines[1:]:
        phi, value = map(float, line.split(","))
        assert abs(value - 0.25 * math.cos(phi) ** 2) < 1e-12


def test_sweep_json_includes_the_fit(capsys):
    code, out, _ = run_cli(capsys, "--preset", "fig1", "--format", "json",
                           "--pattern", "D10:1,D11:1",
                           "--sweep", "phi_B:0:12.566370614359172:64",
                           "--phases", "phi_C=0.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameter"] == "phi_B"
    assert len(doc["samples"]) == 64
    assert doc["fit"]["spatial_frequency"] == 2.0
    assert abs(doc["fit"]["visibility"] - 1.0) < 1e-9


def test_sweep_json_reports_null_fit_when_nothing_matches(capsys, tmp_path):
    path = tmp_path / "double.mzc"
    path.write_text(DOUBLE_PASS)
    code, out, _ = run_cli(capsys, "--circuit", str(path), "--format", "json",
                           "--pattern", "Da:1,Db:1",
                           "--sweep", "phi:0:12.566370614359172:64")
    assert code == 0
    doc = json.loads(out)
    assert doc["fit"] is None
    assert len(doc["samples"]) == 64


def test_flat_sweep_fits_frequency_zero(capsys):
    code, out, _ = run_cli(capsys, "--preset", "fig1", "--format", "json",
                           "--pattern", "D6:1,D10:1",
                           "--sweep", "phi_B:0:12.566370614359172:64",
                           "--phases", "phi_C=0.9")
    assert code == 0
    fit = json.loads(out)["fit"]
    assert fit["spatial_frequency"] == 0.0
    assert fit["visibility"] == 0.0
    assert abs(fit["mean"] - 0.125) < 1e-12


def test_json_output_is_one_line_with_the_engine_values(capsys):
    # the README's fig2 sweep
    code, out, _ = run_cli(capsys, "--preset", "fig2", "--toggles", "BS2",
                           "--pattern", "D6:1,D10:1",
                           "--sweep", "phi_C:0:12.566:256",
                           "--phases", "phi_B=0.4,phi_S=1.1",
                           "--format", "json")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")
    doc = json.loads(out)
    c = preset("fig2")
    pattern = DetectionPattern({"D6": 1, "D10": 1})
    (harmonics,) = _scan_values(c, one_photon_each_input(c), "phi_C",
                                {"phi_B": 0.4, "phi_S": 1.1},
                                [(("BS2",), [pattern])])
    phis = np.linspace(0.0, 12.566, 256, endpoint=False)
    (values,) = _probabilities(harmonics, phis)
    assert doc["samples"] == [[p, v] for p, v in zip(phis.tolist(),
                                                     values.tolist())]
    (scan,) = _fit_samples("phi_C", phis, harmonics)
    assert doc["fit"] == scan.to_json()["fit"]

    code, out, _ = run_cli(capsys, "--preset", "fig1", "--format", "json",
                           "--pattern", "D10:1,D11:1",
                           "--phases", "phi_C=0,phi_B=0")
    assert code == 0
    assert out.count("\n") == 1 and out.endswith("\n")


def test_sweep_leaves_other_phases_fixed(capsys):
    code, out, _ = run_cli(capsys, "--preset", "fig2",
                           "--toggles", "BS2",
                           "--pattern", "D6:1,D7:1",
                           "--sweep", "phi_S:0:6.283185307179586:16",
                           "--phases", "phi_C=0.5,phi_B=0.9")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        phi, value = map(float, line.split(","))
        assert abs(value - 0.25 * math.cos(phi - 0.5) ** 2) < 1e-12


def test_sweep_samples_stay_finite_for_huge_bounds(capsys):
    # f * phi overflows for phi near 1e308; the samples are read at phi
    # reduced mod 2 pi, where the fringe has the same value
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    code, out, _ = run_cli(capsys, "--preset", "fig2", "--format", "json",
                           "--pattern", "D6:1,D10:1",
                           "--sweep", "phi_B:0:1e308:64",
                           "--phases", "phi_C=0,phi_S=0")
    assert code == 0
    samples = json.loads(out, parse_constant=reject)["samples"]
    assert len(samples) == 64
    c = preset("fig2")
    state = one_photon_each_input(c)
    pattern = DetectionPattern({"D6": 1, "D10": 1})
    for phi, value in samples:
        assert 0.0 <= value <= 1.0
        out = evolve(state, compile(c, {"phi_B": math.fmod(phi, 2 * math.pi),
                                        "phi_C": 0.0, "phi_S": 0.0}))
        assert abs(value - pattern_probability(out, pattern,
                                               c.detectors)) < 1e-12


# ---------------------------------------------------------------------------
# verification and errors


def test_verify_runs_all_checks(capsys):
    code, out, _ = run_cli(capsys, "--verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    total = len(lines) - 1
    assert lines[-1] == f"{total}/{total} checks passed"


@pytest.mark.parametrize("argv", [
    ("--preset", "fig1"),                                        # no pattern
    ("--preset", "fig9", "--pattern", "D10:1"),                  # bad preset
    ("--pattern", "D10:1",),                                     # no source
    ("--preset", "fig1", "--pattern", "D99:1",
     "--phases", "phi_C=0,phi_B=0"),                             # bad detector
    ("--preset", "fig1", "--pattern", "D10",
     "--phases", "phi_C=0,phi_B=0"),                             # bad pattern
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0"),                                     # missing phase
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0,phi_B=0,phi_Q=1"),                     # unknown phase
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0", "--sweep", "phi_Q:0:1:64"),          # bad sweep name
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0", "--sweep", "phi_B:0:1"),             # bad sweep form
    ("--preset", "fig1", "--toggles", "BS9", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0,phi_B=0"),                             # bad toggle
    ("--preset", "fig1", "--input", "engineered-noon:zero",
     "--pattern", "D10:1,D11:1", "--phases", "phi_C=0,phi_B=0"),
    ("--preset", "fig1", "--input", "/nonexistent/state.json",
     "--pattern", "D10:1,D11:1", "--phases", "phi_C=0,phi_B=0"),
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=nan,phi_B=0"),                           # NaN phase
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=inf,phi_B=0"),                           # inf phase
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0", "--sweep", "phi_B:0:nan:64"),        # NaN bound
    ("--preset", "fig2", "--pattern", "D6:1,D10:1",
     "--sweep", "phi_B:-1e308:1e308:64", "--phases", "phi_C=0.1,phi_S=0.2",
     "--format", "json"),                                        # width overflows
    ("--preset", "fig1", "--pattern", "D10:1,D11:1", "--phases", "phi_C=0",
     "--sweep", f"phi_B:0:1:{MAX_SWEEP_SAMPLES + 1}"),           # huge sweep
    ("--preset", "fig1", "--input", "engineered-noon:30",
     "--pattern", "D10:1,D11:1", "--phases", "phi_C=0,phi_B=0"), # 30 photons
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0,phi_B=0", "--seed", "1"),              # removed flag
    ("--preset", "fig1", "--pattern", "D10:1,D10:2",
     "--phases", "phi_C=0,phi_B=0"),                             # detector twice
    ("--preset", "fig1", "--pattern", "D10:1,D11:1",
     "--phases", "phi_C=0,phi_C=2,phi_B=0"),                     # phase twice
    ("--preset", "fig2", "--pattern", "D6:1,D10:1", "--toggles", "BS2,BS2",
     "--phases", "phi_C=0,phi_B=0,phi_S=0"),                     # toggle twice
    ("--preset", "fig2", "--pattern", "D6:1,D10:1", "--sweep", "phi_B:0:1:2",
     "--phases", "phi_C=0,phi_B=1,phi_S=0"),                     # swept and fixed
    ("--verify", "--preset", "nope", "--pattern", "zz",
     "--format", "json"),                                        # verify and a run
    ("--verify", "--format", "csv"),                             # verify and a format
    ("--verify", "--input", "one-one"),                          # verify and an input
    ("--verify", "--toggles", ""),                               # verify and toggles
    ("--verify", "--non-exclusive"),                             # verify and a flag
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "mzsim:" in err


@pytest.mark.parametrize("count", ["1.5", "256", "-1"])
def test_a_pattern_count_that_is_not_a_byte_exits_2(capsys, count):
    code, out, err = run_cli(capsys, "--preset", "fig1",
                             "--pattern", f"D10:{count}", "--non-exclusive",
                             "--phases", "phi_C=0,phi_B=0")
    assert code == 2 and out == ""
    assert err.startswith("mzsim:") and "Traceback" not in err


def test_one_process_runs_a_sweep_an_error_and_the_sweep_again(capsys):
    sweep = ("--preset", "fig2", "--toggles", "BS2", "--pattern", "D6:1,D10:1",
             "--sweep", "phi_C:0:12.566:64", "--phases", "phi_B=0.4,phi_S=1.1",
             "--format", "json")
    first = run_cli(capsys, *sweep)
    code, out, err = run_cli(capsys, "--verify", "--format", "json")
    assert code == 2 and out == "" and "mzsim:" in err
    again = run_cli(capsys, *sweep)
    assert first[0] == again[0] == 0
    assert first[1] == again[1] and len(json.loads(first[1])["samples"]) == 64


def test_a_repeated_toggle_or_a_fixed_swept_phase_is_named(capsys):
    _, _, err = run_cli(capsys, "--preset", "fig2", "--pattern", "D6:1,D10:1",
                        "--toggles", "BS2,BS2",
                        "--phases", "phi_C=0,phi_B=0,phi_S=0")
    assert "'BS2' is given twice" in err
    _, _, err = run_cli(capsys, "--preset", "fig2", "--pattern", "D6:1,D10:1",
                        "--sweep", "phi_B:0:1:2",
                        "--phases", "phi_C=0,phi_B=1,phi_S=0")
    assert "'phi_B' is both swept and fixed" in err


@pytest.mark.parametrize("content,message", [
    ('[{"occupation": [1, 1], "re": NaN, "im": 0.0}]', "not finite"),
    (FockState({(21, 0): 1.0}).to_json(), "at most 20"),
    ('[{"occupation": [1e999, 0], "re": 1.0, "im": 0.0}]', "whole number"),
    (FockState({(1, 1): 1.0, (2, 0): 1.0}).to_json(), "norm 1.41421"),
    pytest.param("[" * 100_000, "bad state file", id="nested-past-the-stack"),
    pytest.param('[{"occupation": [1, 1], "re": 1' + "0" * 400 + ', "im": 0}]',
                 "not finite", id="integer-past-the-largest-float"),
    pytest.param('[{"occupation": [1, 1], "re": 1.5e308, "im": 1.5e308}]',
                 "norm inf", id="magnitude-past-the-largest-float"),
])
def test_unusable_state_files_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "state.json"
    path.write_text(content)
    code, _, err = run_cli(capsys, "--preset", "fig1", "--input", str(path),
                           "--pattern", "D10:1,D11:1",
                           "--phases", "phi_C=0,phi_B=0")
    assert code == 2
    assert message in err


def test_an_unknown_preset_exits_2_and_names_the_presets(capsys):
    code, _, err = run_cli(capsys, "--preset", "braced_03",
                           "--pattern", "D10:1,D11:1",
                           "--phases", "phi_C=0,phi_B=0")
    assert code == 2
    assert err == ("mzsim: unknown preset 'braced_03'; choose from fig1, "
                   "fig2, fig3, braced_3, braced_4, braced_5\n")


def test_a_state_file_whose_norm_overflows_exits_2_with_one_message(
        capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(FockState({(1, 0): 1.5e308, (0, 1): 1.5e308}).to_json())
    code, _, err = run_cli(capsys, "--preset", "fig1", "--input", str(path),
                           "--pattern", "D10:1,D11:1",
                           "--phases", "phi_C=0,phi_B=0")
    assert code == 2
    assert err.startswith("mzsim: ") and err.count("\n") == 1
    assert "has norm inf" in err


def test_parse_errors_exit_3(capsys, tmp_path):
    path = tmp_path / "broken.mzc"
    for text in ("modes 2\nteleport T 0 1\n",
                 "modes 4\nswap X 1 1\nswap S 0 1\nswap Q 2 3\n"):
        path.write_text(text)
        code, _, err = run_cli(capsys, "--circuit", str(path),
                               "--pattern", "Da:1", "--phases", "")
        assert code == 3
        assert "line 2" in err


@pytest.mark.parametrize("run", [
    ("--phases", "phi_C=0,phi_B=0"),
    ("--sweep", "phi_C:0:6.283185307179586:16", "--phases", "phi_B=0")])
def test_a_parsed_circuit_that_is_not_unitary_exits_2(capsys, tmp_path, run):
    # 0.7071068 passes the splitter's 1e-6 coefficient check but leaves the
    # compiled matrix about 5e-8 from unitary, past the evolve tolerance
    path = tmp_path / "fig1.mzc"
    path.write_text(serialize(preset("fig1")).replace("0.7071067811865475",
                                                      "0.7071068"))
    code, out, err = run_cli(capsys, "--circuit", str(path),
                             "--pattern", "D10:1,D11:1", *run)
    assert code == 2 and out == ""
    assert err.startswith("mzsim: ") and "unitary" in err


def test_a_non_unitary_circuit_names_its_worst_splitter(capsys, tmp_path):
    # 0.70710678 passes each splitter's coefficient check, yet the five of
    # fig2 compile about 1e-8 from unitary; the message points at a splitter
    path = tmp_path / "fig2_8digits.mzc"
    path.write_text(serialize(preset("fig2")).replace("0.7071067811865475",
                                                      "0.70710678"))
    code, out, err = run_cli(capsys, "--circuit", str(path), "--toggles", "BS2",
                             "--pattern", "D6:1,D10:1",
                             "--phases", "phi_C=0.1,phi_B=0.2,phi_S=0.3")
    assert code == 2 and out == ""
    assert err.startswith("mzsim: ") and "not unitary" in err
    assert "splitter BS1 " in err and "-3.4e-09" in err
    assert "Traceback" not in err


def test_a_defect_no_input_photon_reaches_passes_a_point_run_and_a_sweep(
        capsys, tmp_path):
    # fig2 on 14 modes, with a splitter 1e-7 off unitary on modes 12 and
    # 13, which no element links to the input rows: both CLI modes check
    # the input's rows and accept it, while evolve checks the whole matrix
    leaky = f"T={math.sqrt(0.5 + 1e-7)!r} R=0.7071067811865475i"
    text = serialize(preset("fig2")).replace(
        "modes 12\n", f"modes 14\nbs BX 12 13 {leaky}\n")
    path = tmp_path / "fig2_leaky.mzc"
    path.write_text(text)
    code, out, err = run_cli(capsys, "--circuit", str(path), "--toggles",
                             "BS2", "--pattern", "D6:1,D10:1", "--phases",
                             "phi_C=0.1,phi_B=0.2,phi_S=0.3")
    assert code == 0 and err == ""
    code, want, _ = run_cli(capsys, "--preset", "fig2", "--toggles", "BS2",
                            "--pattern", "D6:1,D10:1", "--phases",
                            "phi_C=0.1,phi_B=0.2,phi_S=0.3")
    assert code == 0 and out == want
    code, out, err = run_cli(capsys, "--circuit", str(path), "--toggles",
                             "BS2", "--pattern", "D6:1,D10:1", "--sweep",
                             "phi_C:0:6.283185307179586:16", "--phases",
                             "phi_B=0.2,phi_S=0.3")
    assert code == 0 and err == "" and len(out.splitlines()) == 17
    circuit = parse_circuit(text)
    with pytest.raises(NonUnitaryError, match="within 1e-8"):
        evolve(one_photon_each_input(circuit),
               compile(circuit, {"phi_C": 0.1, "phi_B": 0.2, "phi_S": 0.3},
                       ("BS2",)))


def mesh_text(modes, layers):
    """A mesh of balanced splitters, each layer on alternate pairs of
    neighbouring modes, with a delay on mode 0 and a detector per mode."""
    lines = [f"modes {modes}", "phase P 0 phi"]
    for layer in range(layers):
        for a in range(layer % 2, modes - 1, 2):
            lines.append(f"bs B{layer}_{a} {a} {a + 1} {BALANCED_BS}")
    lines += [f"detect D{k} {k}" for k in range(modes)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("run", [("--phases", "phi=0"),
                                 ("--sweep", "phi:0:6.283185307179586:8")])
def test_an_expansion_too_large_to_build_exits_2(capsys, tmp_path, run):
    # 20 photons on two input rows that each reach all 12 columns: the
    # expansion is counted and refused before it is built
    path = tmp_path / "mesh.mzc"
    path.write_text(mesh_text(12, 12))
    code, out, err = run_cli(capsys, "--circuit", str(path), "--input",
                             "engineered-noon:20", "--pattern", "D0:20", *run)
    assert code == 2 and out == ""
    assert err.startswith("mzsim: the expansion has ")
    assert "terms; evolve builds at most 2,097,152" in err
    assert "Traceback" not in err


def crossings_text(crossings, modes=2):
    """A splitter and ``crossings`` delays on phi, on ``modes`` modes."""
    return "\n".join([f"modes {modes}", f"bs B 0 1 {BALANCED_BS}",
                      *(f"phase P{i} 0 phi" for i in range(crossings)),
                      "detect D0 0", "detect D1 1"]) + "\n"


#: A circuit too large to compile, one whose scan has too many harmonics
#: to sample (K = 2 photons x 5,000 crossings + 1), and one whose scan's
#: (2,761 x 2 x 4,051) block is one entry past what a compile may hold:
#: unrefused, the point run would compile a (1 x 2 x 10^9) block, 29.8
#: GiB, the first sweep a (3 x 2 x 10^9) one, 89.4 GiB, the second sweep's
#: sampling would allocate 1.49 GiB for its first (2K x K) array alone,
#: and the third sweep's compile would peak just past 1 GiB.
ABSURD_RUNS = [
    (crossings_text(1, 10 ** 9), ["--phases", "phi=0"], 3,
     "mzsim: parse error: line 1: mode count 1000000000 is not a whole "
     "number in 1..4,729\n"),
    (crossings_text(1, 10 ** 9), ["--sweep", "phi:0:1:64"], 3,
     "mzsim: parse error: line 1: mode count 1000000000 is not a whole "
     "number in 1..4,729\n"),
    (crossings_text(5000), ["--sweep", "phi:0:1:64"], 2,
     "mzsim: a scan of phi needs K = 10,001 harmonics; at most 3,344 fit "
     "in memory\n"),
    (crossings_text(1380, 4051), ["--sweep", "phi:0:1:64"], 2,
     "mzsim: compiling 2,761 slices of 2 x 4,051 entries peaks at "
     "1,073,741,856 bytes; at most 1,073,741,824 fit in memory\n"),
]


@pytest.mark.parametrize("text, run, code, message", ABSURD_RUNS,
                         ids=["modes-point-run", "modes-sweep",
                              "harmonics-sweep", "compile-sweep"])
def test_a_circuit_too_large_to_run_is_refused_before_it_allocates(
        capsys, tmp_path, text, run, code, message):
    path = tmp_path / "absurd.mzc"
    path.write_text(text)
    tracemalloc.start()
    try:
        got = run_cli(capsys, "--circuit", str(path), "--pattern", "D0:1",
                      *run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (code, "", message)
    assert peak < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# robustness: any argv, state file and circuit text


#: Stand-ins in a drawn argv for the paths of the drawn files.
CIRCUIT, STATE = "<circuit.mzc>", "<state.json>"

TOKENS = st.sampled_from([
    "0", "1", "2", "3", "-1", "255", "256", "1000000000", "4729", "4730",
    "1.5", "nan", "inf", "1e999", "i", "0.6i", "T=1", "R=0", "T=0.8",
    "R=0.6i", "toggle", "#", "phi", "phi_B", "x", "B1", "D10", "bs",
    "phase", "swap", "detect", "modes"])
OPTION_VALUES = {
    "--preset": st.sampled_from(["fig1", "fig2", "fig3", "braced_3",
                                 "braced_4", "nope", ""]),
    "--circuit": st.sampled_from([CIRCUIT, STATE, "", "."]),
    "--input": st.sampled_from([
        "one-one", STATE, "engineered-noon:1", "engineered-noon:3",
        "engineered-noon:0", "engineered-noon:-2", "engineered-noon:21",
        "engineered-noon:300", "engineered-noon:x", "two-two"]),
    "--toggles": st.sampled_from(["BS2", "BS2,BS2p", "BS2,BS2", "B1",
                                  "nope", ""]),
    "--pattern": st.sampled_from([
        "D10:1,D11:1", "D6:1,D10:1", "D0:1", "D0:2", "Da:1,Db:1",
        "D10:256", "D10:-1", "D10:x", "D10:1,D10:1", "D10", ""]),
    "--sweep": st.builds(
        ":".join, st.lists(st.sampled_from(
            ["phi", "phi_B", "phi_C", "0", "1", "-1e308", "1e308", "nan",
             "inf", "2", "64", "1", "100001", "x", ""]), min_size=2,
            max_size=5)),
    "--phases": st.builds(",".join, st.lists(st.builds(
        "{}={}".format, st.sampled_from(["phi", "phi_B", "phi_C", "phi_S",
                                         "x"]),
        st.sampled_from(["0", "0.4", "-1e308", "nan", "inf", "1e999",
                         "x", ""])), max_size=3)),
    "--format": st.sampled_from(["csv", "json", "xml"]),
}
FLAGS = ["--non-exclusive", "--verify", "--bogus"]


#: Runs that succeed, each with the circuit text that its CIRCUIT names.
VALID_RUNS = [
    (serialize(preset("fig1")), [["--circuit", CIRCUIT],
                                 ["--pattern", "D10:1,D11:1"],
                                 ["--phases", "phi_C=0,phi_B=0.4"]]),
    (serialize(preset("fig2")), [["--circuit", CIRCUIT], ["--toggles", "BS2"],
                                 ["--pattern", "D6:1,D10:1"],
                                 ["--sweep", "phi_C:0:12.566:64"],
                                 ["--phases", "phi_B=0.4,phi_S=1.1"],
                                 ["--format", "json"]]),
    (DOUBLE_PASS, [["--circuit", CIRCUIT], ["--pattern", "Da:1"],
                   ["--sweep", "phi:0:6.28:16"], ["--format", "json"]]),
    (crossings_text(3), [["--circuit", CIRCUIT], ["--input", STATE],
                         ["--pattern", "D0:1"], ["--sweep", "phi:0:1:8"]]),
    ("", [["--preset", "braced_3"], ["--input", "engineered-noon:3"],
          ["--pattern", "D6p:1,D6:1,D10:1"],
          ["--phases", "phi_C=0,phi_B=0,phi_S=0,phi_Sp=0"]]),
]


@st.composite
def mzc_texts(draw, text):
    """``text`` with a few lines dropped, repeated or given a drawn token."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["drop", "repeat", "token"]))
        if action == "drop" and at < len(lines):
            del lines[at]
        elif action == "repeat" and at < len(lines):
            lines.insert(at, lines[at])
        elif action == "token":
            tokens = lines[at].split() if at < len(lines) else []
            where = draw(st.integers(0, len(tokens)))
            tokens[where:where + draw(st.integers(0, 1))] = [draw(TOKENS)]
            lines[at:at + 1] = [" ".join(tokens)]
    return "\n".join(lines) + "\n"


@st.composite
def state_texts(draw):
    """A state file: kets on 1, 2 or 12 modes with drawn counts and parts,
    or text that is not a state."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(["", "[]", "{}", "[1]", "[{}]", "nan",
                                     "[" * 5000, "\xff"]))
    modes = draw(st.sampled_from([1, 2, 2, 12]))
    counts = st.integers(0, 2) | st.sampled_from([-1, 21, 256, 1.5])
    parts = (st.floats(-2, 2) | st.sampled_from(
        [math.nan, math.inf, 1.5e308, 10 ** 400]))
    kets = draw(st.lists(st.fixed_dictionaries({
        "occupation": st.lists(counts, min_size=modes, max_size=modes),
        "re": parts, "im": parts}), max_size=3))
    return json.dumps(kets)


@st.composite
def cli_runs(draw):
    """A circuit text, a state text and an argv, as option groups, that
    may name them: one of :data:`VALID_RUNS` with a few groups dropped,
    changed or added."""
    text, groups = draw(st.sampled_from(VALID_RUNS))
    groups = [list(group) for group in groups]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(groups)))
        action = draw(st.sampled_from(["drop", "value", "option", "flag"]))
        if action == "drop" and at < len(groups):
            del groups[at]
        elif action == "value" and at < len(groups) and len(groups[at]) == 2:
            option = groups[at][0]
            if option in OPTION_VALUES:
                groups[at][1] = draw(OPTION_VALUES[option])
        elif action == "option":
            option = draw(st.sampled_from(sorted(OPTION_VALUES)))
            groups.insert(at, [option, draw(OPTION_VALUES[option])])
        elif action == "flag":
            groups.insert(at, [draw(st.sampled_from(FLAGS))])
    return draw(mzc_texts(text)), draw(state_texts()), groups


@settings(max_examples=150, deadline=None)
@given(cli_runs())
@example((crossings_text(1, 10 ** 9), "", [["--circuit", CIRCUIT],
                                            ["--pattern", "D0:1"],
                                            ["--phases", "phi=0"]]))
@example((crossings_text(1, 10 ** 9), "", [["--circuit", CIRCUIT],
                                            ["--pattern", "D0:1"],
                                            ["--sweep", "phi:0:1:64"]]))
@example((crossings_text(5000), "", [["--circuit", CIRCUIT],
                                     ["--pattern", "D0:1"],
                                     ["--sweep", "phi:0:1:64"]]))
@example(("", "", [["--preset", "braced_3"], ["--pattern", "D6p:1,D6:1,D10:1"],
                   ["--phases", "phi_C=0,phi_B=0,phi_S=0,phi_Sp=0"]]))
def test_any_run_exits_with_a_documented_code_and_no_traceback(run):
    # the examples: a circuit too large to compile, a scan with too many
    # harmonics, and a warning (two photons for a three-photon pattern)
    # under the suite's "error" filter for RuntimeWarning
    text, state, groups = run
    with tempfile.TemporaryDirectory() as folder:
        paths = {CIRCUIT: pathlib.Path(folder, "circuit.mzc"),
                 STATE: pathlib.Path(folder, "state.json")}
        paths[CIRCUIT].write_text(text)
        paths[STATE].write_text(state)
        argv = [str(paths.get(arg, arg)) for group in groups for arg in group]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_mutually_exclusive_sources(capsys, tmp_path):
    path = tmp_path / "own.mzc"
    path.write_text(serialize(preset("fig1")))
    code, _, _ = run_cli(capsys, "--preset", "fig1", "--circuit", str(path),
                         "--pattern", "D10:1")
    assert code == 2


def test_help_exits_cleanly(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "--sweep" in out


def test_installed_entry_point():
    exe = shutil.which("mzsim")
    if exe is None:
        pytest.skip("mzsim script not on PATH")
    proc = subprocess.run([exe, "--preset", "fig1",
                           "--pattern", "D10:1,D11:1",
                           "--phases", "phi_C=0.0,phi_B=0.0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    value = float(proc.stdout.strip().splitlines()[1].rsplit(",", 1)[1])
    assert abs(value - 0.25) < 1e-12
