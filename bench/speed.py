"""Host-speed reference for the benchmark's timings.

On a small shared host the CPU's speed changes as other tenants load it:
on a 2-vCPU cloud VM (Python 3.11, 2.0 GHz) a fixed loop took anywhere
from 1x to 1.8x its fastest time, each vCPU on its own, in states that
last from a fraction of a second to about a minute. The program's time
stretches with it, so raw timings of the same code differ by more from
one run to the next than the regressions the benchmark must catch.

So the benchmark pins itself and every process it starts to one CPU and
samples the speed of that CPU with a fixed pure-Python reference loop:
right before and right after each timed operation, and every
``SAMPLE_EVERY_S`` while a subprocess operation runs. A sample is the
loop's CPU time, so time the loop spends waiting for the CPU does not
count. Every timing the benchmark reports is scaled to the speed at
which the loop takes ``REFERENCE_S``::

    scaled = measured * REFERENCE_S / mean(samples taken around and during it)

A change to the program still moves the scaled times as it moves the
measured ones; a change in the host's speed moves the loop too and
cancels out. The samples taken during an operation take about 1 % of
the CPU from it.
"""

from __future__ import annotations

import contextlib
import os
import select
import statistics
import subprocess
from time import perf_counter, thread_time

# One reference loop runs this many iterations ...
LOOP_ITERATIONS = 2000
# ... and takes this long at the speed the timings are scaled to, which is
# close to its median on the host described above.
REFERENCE_S = 0.001
# A sample before or after an operation is the median of this many loops.
PROBE_LOOPS = 3
# While a subprocess runs, one loop is timed this often.
SAMPLE_EVERY_S = 0.1


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _loop() -> float:
    total = 0.0
    table: dict[int, float] = {}
    for i in range(LOOP_ITERATIONS):
        value = float(str(i) + ".5")
        key = i & 63
        table[key] = table.get(key, 0.0) + value
        total += value * 0.25 - key
    return total


def _sample() -> float:
    started = thread_time()
    _loop()
    return thread_time() - started


def probe() -> float:
    """CPU time of one reference loop now, in seconds (median of a few)."""
    return statistics.median(_sample() for _ in range(PROBE_LOOPS))


def scale(measured: float, samples: list[float]) -> float:
    """``measured`` seconds at the reference speed, given the loop times
    sampled around and during it."""
    return measured * REFERENCE_S / statistics.fmean(samples)


def timed(fn, *args):
    """Call ``fn(*args)`` in this process; return its time scaled to the
    reference speed, and its result."""
    before = probe()
    started = perf_counter()
    result = fn(*args)
    measured = perf_counter() - started
    return scale(measured, [before, probe()]), result


def run_timed(argv: list[str], cwd, env: dict, timeout: float) -> tuple[float, int, bytes, bytes]:
    """Run ``argv`` to completion; return its wall time scaled to the
    reference speed, its exit code, stdout and stderr.

    Output goes to files in ``cwd``, not pipes, so that the process never
    waits for this one to read it while this one samples the speed.
    """
    paths = (os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr"))
    samples = [probe()]
    try:
        with open(paths[0], "w+b") as out, open(paths[1], "w+b") as err:
            started = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                        samples.append(_sample())
                        if perf_counter() - started > timeout:
                            raise subprocess.TimeoutExpired(argv, timeout)
                finally:
                    os.close(pidfd)
                code = proc.wait()
                measured = perf_counter() - started
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
    finally:
        for path in paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
    samples.append(probe())
    return scale(measured, samples), code, stdout, stderr
