"""Print one SHA-256 per output that a byte-identity claim compares.

A change that claims "byte-identical output" runs this on both commits and
compares the lines.  The outputs are:

- ``classify_table1(3..5)`` reports (``to_json``), on a cleared plan cache
  (cold) and again on the plans that call kept (warm);
- three 256-sample fig2 ``--format json`` CLI sweeps, one per swept phase;
- ``verify.run_all()`` and the ``mzsim --verify`` text;
- verify's shared draw of random taps at its seed: the 40 compiled row
  blocks (monitored and erased layout per draw) and the 40 pair outputs'
  occupation and amplitude bytes;
- the pure reduced D10/D11 states of ``braced(3)`` and ``braced(4)`` at 30
  seeded phase sets each: basis and matrix bytes, ``entries.items()``, the
  D10 & D11 coincidence and the D10 mean photon number;
- mapping-built data from five seeded pure outputs of ``braced(4)``: the
  density rebuilt from ``dict(rho.entries)`` (basis and matrix bytes,
  ``entries.items()`` and ``len``), and the state rebuilt from
  ``dict(out.items())``;
- the fig1 eraser-projector ``run_scan``;
- ``run_triple`` on ``braced(3)``, every toggle on, at 16 seeded phase
  sets given as arrays (the probabilities' bytes);
- one ``braced_3`` CLI point run (``--format json``) of the engineered
  three-photon input;
- ``serialize(parse_circuit(text))`` of the shipped ``fig1``-``fig3`` files
  and of ``tests/data/braced_4.mzc`` and ``braced_5.mzc``;
- the parse outcomes of 2,000 seeded mutations of the presets' ``.mzc``
  text (:func:`mutated_presets`): each the serialized circuit or the
  error's line number, never its message.

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

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mzsim  # noqa: E402
from mzsim import cli, optics, reference, verify  # noqa: E402

#: Tokens a mutation may insert, beside the mutated file's own tokens.
JUNK_TOKENS = ("toggle", "modes", "detect", "-1", "0", "99", "x", "T=abc",
               "R=", "#")


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


def braced_outputs(photons: int, sets: int, seed: int):
    """``braced(photons)`` and its pure outputs for the engineered input, one
    per seeded phase set."""
    circuit = mzsim.braced(photons)
    toggles = tuple(sorted(circuit.toggles))
    state = mzsim.embed(mzsim.engineered_input(mzsim.noon_target(photons)),
                        circuit.mode_count, (0, 1))
    rng = random.Random(seed)
    outs = []
    for _ in range(sets):
        phases = {p: rng.uniform(0, 2 * math.pi) for p in circuit.parameters}
        outs.append(mzsim.evolve(state, mzsim.compile(circuit, phases,
                                                      toggles)))
    return circuit, outs


def reduced_states(photons: int, sets: int = 30, seed: int = 29):
    """Basis and matrix bytes, entries and readouts of each reduced state."""
    circuit, outs = braced_outputs(photons, sets, seed)
    keep = (circuit.detectors["D10"], circuit.detectors["D11"])
    traced = [k for k in range(circuit.mode_count) if k not in keep]
    pattern = mzsim.DetectionPattern({"D10": 1, "D11": 1})
    parts = []
    for out in outs:
        rho = mzsim.partial_trace(mzsim.density_from_pure(out), traced)
        parts += [rho.basis_array.tobytes(), rho.matrix_array.tobytes(),
                  list(rho.entries.items()),
                  mzsim.coincidence_from_density(rho, pattern,
                                                 circuit.detectors),
                  mzsim.mean_photon_number(rho, keep[0])]
    return parts


def mapping_built(photons: int = 4, sets: int = 5, seed: int = 31):
    """Each pure output's density rebuilt from its entry mapping (basis and
    matrix bytes, entries and length), and the output rebuilt from its
    amplitude mapping (occupation and amplitude bytes)."""
    _, outs = braced_outputs(photons, sets, seed)
    parts = []
    for out in outs:
        rho = mzsim.density_from_pure(out)
        mapped = mzsim.DensityMatrix(dict(rho.entries), rho.modes)
        state = mzsim.FockState(dict(out.items()))
        parts += [mapped.basis_array.tobytes(), mapped.matrix_array.tobytes(),
                  list(mapped.entries.items()), len(mapped.entries),
                  state.occupation_array.tobytes(),
                  state.amplitude_array.tobytes()]
    return parts


def mutated_presets(count: int = 2000, seed: int = 30):
    """``count`` preset .mzc texts, each mutated one to three times: a
    line duplicated or dropped, or a token inserted, replaced or deleted.
    An inserted or new token is one of the text's own or of JUNK_TOKENS."""
    rng = random.Random(seed)
    bases = [mzsim.serialize(mzsim.preset(name)).splitlines()
             for name in mzsim.PRESET_NAMES]
    vocabularies = [sorted({t for line in base for t in line.split()})
                    + list(JUNK_TOKENS) for base in bases]
    for _ in range(count):
        k = rng.randrange(len(bases))
        lines = [line.split() for line in bases[k]]
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(lines)), rng.randrange(5)
            line = lines[i]
            if op == 0:
                lines.insert(rng.randrange(len(lines) + 1), list(line))
            elif op == 1 and len(lines) > 1:
                del lines[i]
            elif op == 2 or not line:
                line.insert(rng.randrange(len(line) + 1),
                            rng.choice(vocabularies[k]))
            elif op == 3:
                line[rng.randrange(len(line))] = rng.choice(vocabularies[k])
            else:
                del line[rng.randrange(len(line))]
        yield "\n".join(" ".join(line) for line in lines) + "\n"


def parse_outcome(text: str):
    """The serialized circuit, or the line number of the parse error."""
    try:
        return mzsim.serialize(mzsim.parse_circuit(text))
    except mzsim.CircuitParseError as exc:
        return exc.line_no


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
    yield "verify shared draw", [
        array.tobytes() for d in verify._draw_taps(verify._rng())
        for array in (d.u1, d.u2, d.out1.occupation_array,
                      d.out1.amplitude_array, d.out2.occupation_array,
                      d.out2.amplitude_array)]
    for n in (3, 4):
        yield f"braced({n}) reduced states", reduced_states(n)
    yield "braced(4) mapping-built data", mapping_built()
    fig1 = mzsim.preset("fig1")
    scan = mzsim.run_scan(fig1, (), mzsim.one_photon_each_input(fig1),
                          reference.eraser_projector(), "phi_B",
                          {"phi_C": 0.4}, 256)
    yield "fig1 eraser-projector scan", json.dumps(scan.to_json())
    braced3 = mzsim.braced(3)
    rng = random.Random(32)
    phases = {p: [rng.uniform(0, 2 * math.pi) for _ in range(16)]
              for p in braced3.parameters}
    yield "braced(3) run_triple at 16 phase sets", mzsim.run_triple(
        braced3, tuple(sorted(braced3.toggles)), phases).tobytes()
    yield "braced_3 CLI point run", cli_output(
        ["--preset", "braced_3", "--input", "engineered-noon:3",
         "--toggles", "BS2,BS2p", "--pattern", "D6p:1,D6:1,D10:1",
         "--phases", "phi_C=0.3,phi_B=1.7,phi_S=0.9,phi_Sp=2.2",
         "--format", "json"])
    files = [mzsim.load_preset_file(name) for name in ("fig1", "fig2", "fig3")]
    files += [mzsim.parse_circuit((ROOT / "tests" / "data" / f"{name}.mzc")
                                  .read_text())
              for name in ("braced_4", "braced_5")]
    yield "parsed .mzc files", [mzsim.serialize(c) for c in files]
    yield "mutated preset parses", [parse_outcome(text)
                                    for text in mutated_presets()]


def main() -> None:
    for name, value in outputs():
        parts = value if isinstance(value, list) else [value]
        print(f"{digest(*parts)}  {name}")


if __name__ == "__main__":
    main()
