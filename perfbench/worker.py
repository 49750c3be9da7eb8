"""One benchmark process: set up a workload, then probe, measure or trace it.

Started by ``run.py`` in a fresh interpreter with the BLAS/OpenMP thread
counts already set to 1 and ``src`` on the path.  Prints one JSON object as
its last line of output:

* ``probe``: set-up time only (interpreter start to the first operation);
* ``measure``: set-up time, then untraced closed-loop operations for the
  given number of seconds, each gated, plus peak resident memory;
* ``trace``: a fixed number of seeded operations, each run once untraced
  and once traced, then per-layer metrics per operation.  Spans go to the
  given file when the run ends.

Every time is reported twice: as measured on the wall clock, and at
reference speed (see :class:`SpeedSampler`).

Usage: worker.py MODE WORKLOAD SEED SECONDS SPAWNED_AT [SPAN_FILE]
where SPAWNED_AT is the parent's ``time.monotonic()`` just before start.
"""

import gc
import json
import os
import resource
import signal
import sys
import time
import traceback

#: Seconds between speed samples.
SAMPLE_INTERVAL_S = 0.1

#: Speed samples this far before and after an interval also describe it.
SAMPLE_MARGIN_S = 0.3

#: Nominal time of the speed kernel.  A time at reference speed is the
#: measured time x REFERENCE_S / the kernel's time while it was measured.
REFERENCE_S = 0.001


def _kernel():
    """Fixed work in the mix mzsim spends its time in: dict updates on tuple
    keys with complex values, and numpy calls on small complex arrays."""
    import numpy

    d = {}
    for i in range(2000):
        key = (i % 97, i % 13, i & 7)
        d[key] = d.get(key, 0j) + complex(i, 1.0)
    u = numpy.eye(12, dtype=complex)
    for _ in range(30):
        v = numpy.eye(12, dtype=complex)
        v[1, 2] = 0.5j
        u = u @ v
        numpy.prod(u[:3, :3] ** 2, axis=1)
        numpy.concatenate([u, u])
    return len(d)


class SpeedSampler:
    """Measures the host's speed while the workload runs.

    On a shared host the same operation can take 1.6 times longer from one
    ten-second stretch to the next.  A timer signal runs a small fixed
    kernel every SAMPLE_INTERVAL_S on the main thread, between bytecodes of
    whatever is running, and records how long it took.  The kernel's own
    time is subtracted from the interval it interrupted, and the samples
    taken during an interval give the speed it ran at.  The collector is
    off while the kernel runs, so the program's heap does not change it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.busy = 0.0

    def _tick(self, _signum, _frame):
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((start, end - start))
        self.busy += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_time(self, begin: float, end: float) -> float:
        """Trimmed mean kernel time of the samples around [begin, end]."""
        near = sorted(t for s, t in self.samples
                      if begin - SAMPLE_MARGIN_S <= s <= end + SAMPLE_MARGIN_S)
        if not near:
            self._tick(None, None)
            near = [self.samples[-1][1]]
        cut = len(near) // 5
        near = near[cut:len(near) - cut]
        return sum(near) / len(near)


class Timed:
    """One gated operation: why it failed, if it did, and its times.

    The result itself is dropped once gated, so that memory does not grow
    with the number of operations in a run.
    """

    def __init__(self, workload, inp, sampler: SpeedSampler):
        busy = sampler.busy
        self.start = time.perf_counter()
        try:
            result = workload.run(inp)
        except Exception:
            error = traceback.format_exc(limit=3).strip().splitlines()[-1]
        else:
            error = None
        self.end = time.perf_counter()
        self.wall = self.end - self.start - (sampler.busy - busy)
        self.reason = error if error else workload.check(inp, result)

    def reference(self, sampler: SpeedSampler) -> float:
        return self.wall * REFERENCE_S / sampler.kernel_time(self.start, self.end)


def measure(workload, inputs, seconds: float, sampler: SpeedSampler) -> dict:
    """Closed loop: operations run back to back until ``seconds`` have
    passed; the last one runs to its end."""
    ops = []
    begin = time.perf_counter()
    while True:
        ops.append(Timed(workload, next(inputs), sampler))
        if time.perf_counter() - begin >= seconds:
            break
    good = [op for op in ops if op.reason is None]
    return {"durations": [op.wall for op in good],
            "reference": [op.reference(sampler) for op in good],
            "attempted": len(ops),
            "errors": [op.reason for op in ops if op.reason is not None]}


def trace(workload, inputs, sampler: SpeedSampler, span_file: str) -> dict:
    """Alternate untraced and traced runs of the first seeded operations."""
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    for op in range(workload.trace_ops):
        inp = next(inputs)
        plain.append(Timed(workload, inp, sampler))
        with tracer.active(op):
            traced.append(Timed(workload, inp, sampler))
    with open(span_file, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
    layers = tracing.aggregate(tracer.spans, tracer.present, workload.trace_ops)
    layers["trace.overhead_ratio"] = (
        sum(op.reference(sampler) for op in traced)
        / sum(op.reference(sampler) for op in plain) - 1)
    return {"layers": layers, "attempted": len(plain) + len(traced),
            "errors": [op.reason for op in plain + traced
                       if op.reason is not None],
            "spans": len(tracer.spans)}


def main(argv):
    mode, name, seed, seconds, spawned_at = argv[:5]
    import numpy

    sampler = SpeedSampler()
    sampler.start()
    import workloads

    workload = workloads.WORKLOADS[name]()
    workload.warm_up()
    inputs = workloads.inputs(workload, int(seed))
    ready = time.perf_counter()
    setup = time.monotonic() - float(spawned_at)
    doc = {"setup_s": setup,
           "setup_reference_s": setup * REFERENCE_S
           / sampler.kernel_time(ready - setup, ready),
           "seeded": workload.seeded,
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "mzsim_path": os.path.dirname(workloads.mzsim.__file__)}
    if mode == "measure":
        doc.update(measure(workload, inputs, float(seconds), sampler))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        doc["peak_rss_mb"] = peak / 1024
    elif mode == "trace":
        doc.update(trace(workload, inputs, sampler, argv[5]))
    sampler.stop()
    doc["speed_samples"] = len(sampler.samples)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
