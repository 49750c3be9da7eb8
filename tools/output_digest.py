"""Print one SHA-256 per output that a byte-identity claim compares.

A change that claims "byte-identical output" runs this on both commits and
compares the lines.  The outputs are:

- ``classify_table1(3..5)`` reports (``to_json``), on a cleared plan cache
  (cold) and again on the plans that call kept (warm);
- three 256-sample fig2 ``--format json`` CLI sweeps, one per swept phase;
- ``verify.run_all()`` and the ``mzsim --verify`` text;
- the pure reduced D10/D11 states of ``braced(3)`` and ``braced(4)`` at 30
  seeded phase sets each: basis and matrix bytes, ``entries.items()``, the
  D10 & D11 coincidence and the D10 mean photon number;
- the fig1 eraser-projector ``run_scan``.

Standard library and ``mzsim`` only, beside the package in ``src``:

    python tools/output_digest.py
"""

import contextlib
import hashlib
import io
import json
import math
import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import mzsim  # noqa: E402
from mzsim import cli, optics, reference, verify  # noqa: E402


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def cli_output(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return f"{code}\n{buffer.getvalue()}"


def reduced_states(photons: int, sets: int = 30, seed: int = 29):
    """Basis and matrix bytes, entries and readouts of each reduced state."""
    circuit = mzsim.braced(photons)
    m = circuit.mode_count
    toggles = tuple(sorted(circuit.toggles))
    state = mzsim.embed(mzsim.engineered_input(mzsim.noon_target(photons)),
                        m, (0, 1))
    keep = (circuit.detectors["D10"], circuit.detectors["D11"])
    traced = [k for k in range(m) if k not in keep]
    pattern = mzsim.DetectionPattern({"D10": 1, "D11": 1})
    rng = random.Random(seed)
    parts = []
    for _ in range(sets):
        phases = {p: rng.uniform(0, 2 * math.pi) for p in circuit.parameters}
        out = mzsim.evolve(state, mzsim.compile(circuit, phases, toggles))
        rho = mzsim.partial_trace(mzsim.density_from_pure(out), traced)
        parts += [rho.basis_array.tobytes(), rho.matrix_array.tobytes(),
                  list(rho.entries.items()),
                  mzsim.coincidence_from_density(rho, pattern,
                                                 circuit.detectors),
                  mzsim.mean_photon_number(rho, keep[0])]
    return parts


def outputs():
    optics._expansion_plan.cache_clear()
    for when in ("cold", "warm"):
        for n in (3, 4, 5):
            reports = [r.to_json() for r in mzsim.classify_table1(n)]
            yield f"classify_table1({n}) {when}", json.dumps(reports)
    fixed = {"phi_C": 0.5, "phi_B": 0.4, "phi_S": 1.1}
    for swept in fixed:
        phases = ",".join(f"{p}={v!r}" for p, v in fixed.items() if p != swept)
        yield f"fig2 sweep {swept}", cli_output(
            ["--preset", "fig2", "--toggles", "BS2", "--pattern", "D6:1,D10:1",
             "--sweep", f"{swept}:0.0:12.566:256", "--phases", phases,
             "--format", "json"])
    yield "verify.run_all()", verify.run_all()
    yield "mzsim --verify", cli_output(["--verify"])
    for n in (3, 4):
        yield f"braced({n}) reduced states", reduced_states(n)
    fig1 = mzsim.preset("fig1")
    scan = mzsim.run_scan(fig1, (), mzsim.one_photon_each_input(fig1),
                          reference.eraser_projector(), "phi_B",
                          {"phi_C": 0.4}, 256)
    yield "fig1 eraser-projector scan", json.dumps(scan.to_json())


def main() -> None:
    for name, value in outputs():
        parts = value if isinstance(value, list) else [value]
        print(f"{digest(*parts)}  {name}")


if __name__ == "__main__":
    main()
