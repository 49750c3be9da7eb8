"""The four benchmark workloads.

Each workload is a closed loop with one client: an operation starts after
the previous one ends.  A workload builds its fixed inputs once (set-up),
draws the varying input of each operation from a seeded generator, runs the
operation through mzsim's public entry points, and judges the result with a
gate from :mod:`gates`.  Why each workload exists is written in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random

import mzsim
from mzsim import cli, verify

import gates


class Table1:
    """``classify_table1(n)``: 3 configurations x 64 phases on ``braced_n``.

    The input is fixed, so the seed is unused.
    """

    name = "table1_n5"
    seeded = False
    trace_ops = 1

    def __init__(self, photons: int = 5):
        self.photons = photons
        self.circuit = mzsim.braced(photons)

    def draw(self, rng):
        return self.photons

    def warm_up(self):
        mzsim.classify_table1(3)

    def run(self, n):
        return mzsim.classify_table1(n)

    def check(self, n, reports):
        return gates.check_table1(n, self.circuit, reports)


class CliSweep:
    """In-process ``mzsim`` call: a 256-sample JSON sweep of ``fig2``.

    The pattern is the erased cross coincidence D6 & D10 with BS2 in place.
    The seed draws the swept phase and the two fixed phases of each call.
    """

    name = "cli_sweep"
    seeded = True
    trace_ops = 24
    parameters = ("phi_C", "phi_B", "phi_S")
    start, end, samples = 0.0, 12.566, 256

    def draw(self, rng):
        swept = rng.choice(self.parameters)
        fixed = {p: rng.uniform(0, 2 * math.pi)
                 for p in self.parameters if p != swept}
        return swept, fixed

    def argv(self, swept, fixed):
        return ["--preset", "fig2", "--toggles", "BS2",
                "--pattern", "D6:1,D10:1",
                "--sweep", f"{swept}:{self.start!r}:{self.end!r}:{self.samples}",
                "--phases", ",".join(f"{p}={v!r}" for p, v in fixed.items()),
                "--format", "json"]

    def warm_up(self):
        self.run(("phi_B", {"phi_C": 0.5, "phi_S": 0.25}))

    def run(self, inp):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.argv(*inp))
        return code, buffer.getvalue()

    def check(self, inp, result):
        swept, fixed = inp
        return gates.check_cli_sweep(swept, fixed, self.start, self.end,
                                     self.samples, *result)


class Reduced:
    """Reduced outer state of ``braced_n`` with every eraser in place.

    One operation compiles the circuit at seed-drawn phases, evolves the
    engineered n-photon input, forms the pure-state density matrix, traces
    out everything but D10/D11 and reads the coincidence and the D10 mean
    photon number.  Every phase changes on every operation.
    """

    name = "reduced_n4"
    seeded = True
    trace_ops = 16

    def __init__(self, photons: int = 4):
        self.circuit = mzsim.braced(photons)
        self.toggles = tuple(sorted(self.circuit.toggles))
        m = self.circuit.mode_count
        self.input_state = mzsim.embed(
            mzsim.engineered_input(mzsim.noon_target(photons)), m, (0, 1))
        self.keep = (self.circuit.detectors["D10"], self.circuit.detectors["D11"])
        self.traced = tuple(k for k in range(m) if k not in self.keep)
        self.pattern = mzsim.DetectionPattern({"D10": 1, "D11": 1})

    def draw(self, rng):
        return {p: rng.uniform(0, 2 * math.pi) for p in self.circuit.parameters}

    def warm_up(self):
        self.run({p: 0.1 * (k + 1) for k, p in enumerate(self.circuit.parameters)})

    def run(self, phases):
        out = mzsim.evolve(self.input_state,
                           mzsim.compile(self.circuit, phases, self.toggles))
        rho = mzsim.partial_trace(mzsim.density_from_pure(out), self.traced)
        return (out, rho,
                mzsim.coincidence_from_density(rho, self.pattern,
                                               self.circuit.detectors),
                mzsim.mean_photon_number(rho, self.keep[0]))

    def check(self, phases, result):
        return gates.check_reduced(self.circuit, self.toggles, phases,
                                   dict(self.input_state.items()), self.keep,
                                   result)


class Verify:
    """``verify.run_all()``, the ``mzsim --verify`` golden suite.

    The checks carry their own fixed seed, so the benchmark seed is unused.
    """

    name = "verify"
    seeded = False
    trace_ops = 3

    def draw(self, rng):
        return None

    def warm_up(self):
        verify.run_all()

    def run(self, _):
        return verify.run_all()

    def check(self, _, result):
        return gates.check_verify(result)


WORKLOADS = {w.name: w for w in (Table1, CliSweep, Reduced, Verify)}


def inputs(workload, seed: int):
    """The operation inputs of a run: the same seed gives the same sequence."""
    rng = random.Random(seed)
    return (workload.draw(rng) for _ in itertools.count())
