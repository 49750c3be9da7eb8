"""Tests for the mzsim command line front end.

main() is called in process with argument lists; stdout and stderr are read
back through capsys.  One subprocess test checks the installed entry point.
"""

import json
import math
import shutil
import subprocess

import pytest

from mzsim import (DetectionPattern, FockState, compile, evolve,
                   one_photon_each_input, pattern_probability, preset,
                   serialize)
from mzsim.cli import MAX_SWEEP_SAMPLES, main

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
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "mzsim:" in err


@pytest.mark.parametrize("content,message", [
    ('[{"occupation": [1, 1], "re": NaN, "im": 0.0}]', "not finite"),
    (FockState({(21, 0): 1.0}).to_json(), "at most 20"),
])
def test_unusable_state_files_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "state.json"
    path.write_text(content)
    code, _, err = run_cli(capsys, "--preset", "fig1", "--input", str(path),
                           "--pattern", "D10:1,D11:1",
                           "--phases", "phi_C=0,phi_B=0")
    assert code == 2
    assert message in err


def test_parse_errors_exit_3(capsys, tmp_path):
    path = tmp_path / "broken.mzc"
    path.write_text("modes 2\nteleport T 0 1\n")
    code, _, err = run_cli(capsys, "--circuit", str(path),
                           "--pattern", "Da:1", "--phases", "")
    assert code == 3
    assert "line 2" in err


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
