"""mzsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an mzsim checkout; the package is imported from
``src``.  ``--workload all`` runs every workload in turn.  Each workload runs
in processes of its own, single-threaded (the BLAS/OpenMP thread counts are
set to 1 before numpy loads).  ``--trace 0`` prints the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics from a
separate traced run.  Every operation's result is gated, and a run with a
failed operation exits with status 1.  The last line of output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A record of the run (seed, commit, versions, thread settings, every metric)
is written under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".perfbench_runs"

#: Extra set-up-only processes per measured run; set-up time is the median
#: over these and the measured process.
SETUP_PROBES = 3

#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 170

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

WORKLOAD_NAMES = ("table1_n5", "cli_sweep", "reduced_n4", "verify")


class RunError(Exception):
    """A worker process failed or ran out of time."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _worker(mode: str, workload: str, seed: int, seconds: float,
            deadline: float, *extra: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError(f"no time left for the {mode} process")
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
            repr(seconds)]
    try:
        proc = subprocess.run(argv + [repr(time.monotonic()), *extra],
                              cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} process of {workload} ran out of time") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} process of {workload} exited with "
                       f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _timings(times: list, prefix: str = "") -> dict:
    if not times:
        return {}
    p90 = (statistics.quantiles(times, n=10, method="inclusive")[8]
           if len(times) > 1 else times[0])
    return {prefix + "op_p50_s": statistics.median(times),
            prefix + "op_p90_s": p90,
            prefix + "ops_per_s": len(times) / sum(times)}


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, dict]:
    """Timings at reference speed; the raw wall-clock ones go in the record."""
    setups = [_worker("probe", workload, seed, seconds, deadline)
              for _ in range(SETUP_PROBES)]
    doc = _worker("measure", workload, seed, seconds, deadline)
    setups.append(doc)
    attempted = doc["attempted"]
    metrics = {"setup_s": statistics.median(s["setup_reference_s"] for s in setups),
               "peak_rss_mb": doc["peak_rss_mb"],
               "fail_ratio": (attempted - len(doc["durations"])) / attempted,
               "wall_setup_s": statistics.median(s["setup_s"] for s in setups),
               **_timings(doc["reference"]),
               **_timings(doc["durations"], "wall_")}
    doc["setup_samples"] = [[s["setup_s"], s["setup_reference_s"]]
                            for s in setups]
    doc["samples"] = len(doc["durations"])
    return metrics, doc


def per_layer(workload: str, seed: int, seconds: float,
              deadline: float, stamp: str) -> tuple[dict, dict]:
    span_file = RECORDS / f"{stamp}.spans.jsonl"
    doc = _worker("trace", workload, seed, seconds, deadline, str(span_file))
    doc["span_file"] = str(span_file.relative_to(ROOT))
    return doc.pop("layers"), doc


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: dict) -> tuple[dict, int, int]:
    """Run one workload; print and record its metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    stamp = (f"{workload}-seed{seed}-trace{int(trace)}-"
             f"{datetime.now(timezone.utc):%Y%m%dT%H%M%S%f}")
    RECORDS.mkdir(exist_ok=True)
    if trace:
        measured, doc = per_layer(workload, seed, seconds, deadline, stamp)
        wanted = spec["per_layer"]
    else:
        measured, doc = end_to_end(workload, seed, seconds, deadline)
        wanted = spec["end_to_end"]
    attempted, failed = doc["attempted"], len(doc["errors"])
    metrics, absent = {}, []
    print(f"{workload}  seed {seed}  trace {int(trace)}  "
          f"{attempted} operations, {failed} failed")
    for m in wanted:
        if m["name"] not in measured:
            absent.append(m["name"])
            print(f"  {m['name']:<46} absent")
            continue
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<46} {measured[m['name']]:.6g} {m['unit']}")
    if not trace:
        print(f"  {'fail_ratio':<46} {measured['fail_ratio']:.6g} ratio")
        print("  wall clock: " + ", ".join(
            f"{k[5:]} {v:.6g}" for k, v in measured.items()
            if k.startswith("wall_")))
        print(f"  ({doc['samples']} timed operations, "
              f"{len(doc['setup_samples'])} set-up samples)")
    for reason in doc["errors"][:5]:
        print(f"  FAILED: {reason}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "commit": _commit(),
              "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)),
              "threads": {v: "1" for v in THREAD_VARIABLES},
              "metrics": metrics, "absent": absent,
              "unlisted": {k: v for k, v in measured.items()
                           if k not in metrics},
              **doc}
    path = RECORDS / f"{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mzsim" / "__init__.py").is_file():
        print(f"perfbench: no mzsim sources under {ROOT / 'src'}; run from "
              "the root of an mzsim checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            got, tried, bad = run(name, args.seed, args.seconds,
                                  bool(args.trace), spec)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in got.items()})
            attempted += tried
            failed += bad
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
