"""Tests of the benchmark itself: gates, failure counting, tracing, output.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gates
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_op(workload, seed=7):
    inp = next(workloads.inputs(workload, seed))
    return inp, workload.run(inp)


# ---------------------------------------------------------------------------
# short mode of every workload passes its gate


@pytest.fixture(scope="module")
def table1_n3():
    workload = workloads.Table1(photons=3)
    return workload, *first_op(workload)


@pytest.fixture(scope="module")
def cli_op():
    workload = workloads.CliSweep()
    return workload, *first_op(workload)


@pytest.fixture(scope="module")
def reduced_n3():
    workload = workloads.Reduced(photons=3)
    return workload, *first_op(workload)


@pytest.fixture(scope="module")
def verify_op():
    workload = workloads.Verify()
    return workload, *first_op(workload)


@pytest.mark.parametrize("case", ["table1_n3", "cli_op", "reduced_n3", "verify_op"])
def test_short_workload_passes_its_gate(case, request):
    workload, inp, result = request.getfixturevalue(case)
    assert workload.check(inp, result) is None


def test_cli_sweep_draws_every_swept_phase_from_the_seed():
    draws = workloads.inputs(workloads.CliSweep(), 3)
    swept = {next(draws)[0] for _ in range(60)}
    assert swept == set(workloads.CliSweep.parameters)
    again = workloads.inputs(workloads.CliSweep(), 3)
    first = workloads.inputs(workloads.CliSweep(), 3)
    assert [next(again) for _ in range(5)] == [next(first) for _ in range(5)]


# ---------------------------------------------------------------------------
# a perturbed result fails its gate


def _replace_row(reports, index, **changes):
    out = list(reports)
    out[index] = dataclasses.replace(out[index], **changes)
    return out


def _full_order_fringe_row(reports):
    return next(i for i, r in enumerate(reports) if r.classification == "fringes")


def test_table1_gate_rejects_a_wrong_classification(table1_n3):
    workload, n, reports = table1_n3
    i = _full_order_fringe_row(reports)
    assert workload.check(n, _replace_row(reports, i, classification="flat"))
    j = next(k for k, r in enumerate(reports) if r.classification == "flat")
    assert workload.check(n, _replace_row(reports, j, classification="fringes"))


def test_table1_gate_rejects_a_wrong_sample(table1_n3):
    workload, n, reports = table1_n3
    i = _full_order_fringe_row(reports)
    scan = reports[i].scan
    samples = list(scan.samples)
    phi, value = samples[gates.TABLE1_SAMPLE_CHECKS[1]]
    samples[gates.TABLE1_SAMPLE_CHECKS[1]] = (phi, value + 1e-6)
    bad = dataclasses.replace(scan, samples=tuple(samples))
    assert "permanent" in workload.check(n, _replace_row(reports, i, scan=bad))


def test_cli_gate_rejects_a_wrong_amplitude_and_a_wrong_fit(cli_op):
    workload, inp, (code, text) = cli_op
    doc = json.loads(text)
    doc["samples"][100][1] += 1e-6
    assert "closed form" in workload.check(inp, (code, json.dumps(doc)))
    doc = json.loads(text)
    doc["fit"]["spatial_frequency"] = 0.5
    assert "frequency" in workload.check(inp, (code, json.dumps(doc)))
    assert workload.check(inp, (2, text))


def test_reduced_gate_rejects_wrong_amplitudes_and_readouts(reduced_n3):
    workload, phases, (out, rho, coincidence, mean) = reduced_n3
    biggest = max(out.items(), key=lambda kv: abs(kv[1]))[0]
    amps = dict(out.items())
    amps[biggest] *= 1j
    wrong = type(out)(amps, out.mode_count)
    assert "permanent" in workload.check(phases, (wrong, rho, coincidence, mean))
    entries = dict(rho.entries)
    key = next(k for k in entries if k[0] != k[1])
    entries[key] += 1e-6
    skewed = dataclasses.replace(rho, entries=entries)
    assert workload.check(phases, (out, skewed, coincidence, mean))
    assert "coincidence" in workload.check(phases, (out, rho, coincidence + 1e-6,
                                                    mean))


def test_verify_gate_rejects_a_failing_check(verify_op):
    workload, inp, (failures, results) = verify_op
    name = results[3][0]
    broken = [(n, "boom" if n == name else e) for n, e in results]
    assert name in workload.check(inp, (1, broken))
    assert workload.check(inp, (0, results[:-1]))


class Perturbed:
    """A workload whose every result is damaged before its gate sees it."""

    def __init__(self, workload, damage):
        self.workload, self.damage = workload, damage

    def run(self, inp):
        return self.damage(self.workload.run(inp))

    def check(self, inp, result):
        return self.workload.check(inp, result)


def _damaged_verify(result):
    failures, results = result
    return failures + 1, [(results[0][0], "forced")] + results[1:]


def _raise(_result):
    raise RuntimeError("operation crashed")


@pytest.mark.parametrize("damage", [_damaged_verify, _raise])
def test_a_failed_operation_lands_in_fail_ratio(damage):
    bad = Perturbed(workloads.Verify(), damage)
    doc = worker.measure(bad, workloads.inputs(bad.workload, 1), 0,
                         worker.SpeedSampler())
    assert doc["attempted"] == 1 and doc["durations"] == []
    assert len(doc["errors"]) == 1


# ---------------------------------------------------------------------------
# tracing


def _sites():
    import mzsim
    from mzsim import cli, optics, scenarios, verify
    return {name: getattr(module, name)
            for module, names in ((mzsim, ("compile", "evolve")),
                                  (scenarios, ("evolve", "compile",
                                               "_scan_values", "_fit_samples")),
                                  (cli, ("main", "_run_sweep", "compile")),
                                  (optics, ("FockState", "evolve")),
                                  (verify, ("CHECKS", "transition_amplitude")))
            for name in names}


def test_traced_counts_repeat_and_every_name_is_restored():
    before = _sites()
    workload = workloads.CliSweep()
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        inputs = workloads.inputs(workload, 5)
        for op in range(2):
            inp = next(inputs)
            with tracer.active(op):
                assert workload.check(inp, workload.run(inp)) is None
        runs.append(tracing.aggregate(tracer.spans, tracer.present, 2))
        assert _sites() == before
    counts = [{k: v for k, v in run.items() if not k.endswith("self_s")}
              for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["optics.evolve.calls"] == 256
    assert counts[0]["scenarios.evolves_per_scan"] == 256
    assert counts[0]["verify.classification-matrix.calls"] == 0


def test_a_span_is_a_child_of_its_caller():
    tracer = tracing.Tracer()
    workload = workloads.Reduced(photons=3)
    with tracer.active(0):
        workload.run(next(workloads.inputs(workload, 2)))
    names = [s[0] for s in tracer.spans]
    fock = tracer.spans[names.index("fock.FockState")]
    assert tracer.spans[fock[3]][0] == "optics.evolve"


def test_a_missing_layer_is_reported_absent(monkeypatch):
    from mzsim import scenarios
    monkeypatch.delattr(scenarios, "_fit_samples")
    tracer = tracing.Tracer()
    with tracer.active(0):
        pass
    metrics = tracing.aggregate(tracer.spans, tracer.present, 1)
    assert "scenarios.fit.calls" not in metrics
    assert metrics["optics.evolve.calls"] == 0


# ---------------------------------------------------------------------------
# the command and BENCHMARK.json


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_of_benchmark_json(trace, section):
    proc = _run(ROOT, "--workload", "cli_sweep", "--seed", "4",
                "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert set(doc["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]


def test_command_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "verify", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_harness():
    import mzsim.verify
    from run import WORKLOAD_NAMES
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in all_names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    checks = {m["name"].split(".")[1] for m in SPEC["per_layer"]
              if m["name"].startswith("verify.")}
    assert checks == {name for name, _ in mzsim.verify.CHECKS}
