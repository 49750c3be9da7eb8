"""Tests for the mzsim command line front end.

main() is called in process with argument lists; stdout and stderr are read
back through capsys.  One subprocess test checks the installed entry point.
"""

import json
import math
import shutil
import subprocess
import warnings

import numpy as np
import pytest

from mzsim import (DetectionPattern, FockState, compile, evolve,
                   one_photon_each_input, pattern_probability, preset,
                   serialize)
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
