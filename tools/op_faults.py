"""Print the minor page faults and system time per warm ``classify_table1(n)``.

One cold call first caches the expansion plans; the warm calls after it are
counted together by ``resource.getrusage`` and divided by their number.  A
warm call that faults pages in again and again shows here as faults and
system time, not in any result.  Standard library only, beside the package
in ``src``:

    python tools/op_faults.py [PHOTONS] [CALLS]

PHOTONS defaults to 5 and CALLS to 200.  Unix only (``resource``).
"""

import pathlib
import resource
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import mzsim  # noqa: E402


def main() -> None:
    photons = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    calls = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    mzsim.classify_table1(photons)
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    for _ in range(calls):
        mzsim.classify_table1(photons)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    print(f"classify_table1({photons}), {calls} warm calls, per call:")
    print(f"  minor faults  {(after.ru_minflt - before.ru_minflt) / calls:8.1f}")
    print(f"  system time   {(after.ru_stime - before.ru_stime) / calls * 1e3:8.3f} ms")
    print(f"  wall time     {wall / calls * 1e3:8.3f} ms")


if __name__ == "__main__":
    main()
