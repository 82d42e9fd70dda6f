"""Host speed reference: every timing metric at a fixed reference speed.

On a shared host the same code runs up to 1.7x slower in phases that
last from seconds to minutes, on each vCPU on its own.  A whole run can
fall into a slow phase, so neither longer windows nor medians make raw
timings comparable from run to run.  The benchmark therefore times a
fixed pure-Python kernel next to the work it measures, on the same CPU
and at the same time, and reports every timing scaled by::

    factor = REFERENCE_KERNEL_MS / median kernel time

so a timing reads as it would on a host where the kernel takes
:data:`REFERENCE_KERNEL_MS`.  A search latency is scaled by the median
of the kernel samples taken within :data:`LOCAL_SECONDS` of the search,
because the host's speed changes within a run as well; a set-up time is
scaled by the median of the samples taken during that set-up.

The kernel is timed in thread CPU time, so waiting for the GIL or being
preempted does not count as slowness.  It does not touch the program,
so a change to the program moves the scaled timings exactly as it moves
the raw ones.  Each run records the raw timings, the kernel samples and
the factors.

In process, the measuring thread runs the kernel between searches (and
every :data:`SETUP_TICK` schemas of an ingest).  For a server in its
own process, a :class:`Calibrator` process pinned to the server's CPU
runs the kernel under ``SCHED_IDLE``, in the time the server leaves
idle.  Run as ``python3 -m perfbench.speed --cpu N``, it is that
process: it samples until its standard input is closed, then prints its
samples as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

KERNEL_LOOPS = 40_000
#: Kernel time on a quiet phase of a 2-vCPU cloud host.
REFERENCE_KERNEL_MS = 2.5
#: Ingest calls between two kernel samples during a set-up.
SETUP_TICK = 100
#: How far around a search its kernel samples may lie.
LOCAL_SECONDS = 0.25
#: Fewest kernel samples a search is scaled by; the span is widened
#: until it holds this many.
LOCAL_MIN_SAMPLES = 5


def kernel() -> float:
    """Run the kernel once; its thread CPU time in seconds."""
    started = time.thread_time()
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i
    return time.thread_time() - started


#: One kernel sample: when it began (``perf_counter``, which is the
#: same clock in every process) and its thread CPU seconds.
Sample = tuple[float, float]


class Gauge:
    """Kernel samples taken by the measuring thread itself."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []
        #: Wall time spent in the kernel, to keep out of the timings.
        self.wall = 0.0

    def sample(self, count: int = 1) -> None:
        started = time.perf_counter()
        for _ in range(count):
            self.samples.append((time.perf_counter(), kernel()))
        self.wall += time.perf_counter() - started

    def factor(self) -> float:
        return factor(self.samples)


def factor(samples: list[Sample]) -> float:
    """Reference over median kernel time (below 1 on a slow phase)."""
    if not samples:
        raise ValueError("no kernel samples")
    return REFERENCE_KERNEL_MS / 1000.0 / statistics.median(
        cpu for _, cpu in samples)


def local_factors(spans: list[tuple[float, float]],
                  samples: list[Sample]) -> list[float]:
    """The factor for each (start, end) span, from the kernel samples
    that began within :data:`LOCAL_SECONDS` of it."""
    ordered = sorted(samples)
    if len(ordered) < LOCAL_MIN_SAMPLES:
        raise ValueError(f"{len(ordered)} kernel samples; need at least "
                         f"{LOCAL_MIN_SAMPLES}")
    starts = [begun for begun, _ in ordered]
    out = []
    for start, end in spans:
        reach = LOCAL_SECONDS
        while True:
            low = bisect.bisect_left(starts, start - reach)
            high = bisect.bisect_right(starts, end + reach)
            if high - low >= LOCAL_MIN_SAMPLES:
                break
            reach *= 2
        out.append(factor(ordered[low:high]))
    return out


def record(samples: list[Sample], scales: list[float]) -> dict:
    """Kernel samples and per-search factors as the run record keeps
    them."""
    cpu = [c for _, c in samples]
    return {"kernel_count": len(cpu),
            "kernel_median_ms": statistics.median(cpu) * 1000.0,
            "kernel_min_ms": min(cpu) * 1000.0,
            "kernel_max_ms": max(cpu) * 1000.0,
            "reference_kernel_ms": REFERENCE_KERNEL_MS,
            "window_factor": factor(samples),
            "search_factors": scales}


class SetupClock:
    """Times one set-up with kernel samples taken inside it.

    ``tick()`` is called once per unit of set-up work; every
    :data:`SETUP_TICK` ticks it samples the kernel.  The set-up time
    excludes the sampling, and :meth:`scaled` is that time at the
    reference speed.
    """

    def __init__(self) -> None:
        self.gauge = Gauge()
        self._ticks = 0
        self._started = 0.0
        self.raw = 0.0

    def __enter__(self) -> "SetupClock":
        self.gauge.sample()
        self._started = time.perf_counter()
        return self

    def tick(self) -> None:
        self._ticks += 1
        if self._ticks % SETUP_TICK == 0:
            self.gauge.sample()

    def __exit__(self, *exc) -> None:
        ended = time.perf_counter()
        self.raw = ended - self._started - self.gauge.wall
        self.gauge.sample()

    def scaled(self) -> float:
        return self.raw * self.gauge.factor()


# -- pinning --------------------------------------------------------------

def cpus() -> tuple[int, int]:
    """(server CPU, client CPU); the same CPU when only one is usable."""
    usable = sorted(os.sched_getaffinity(0))
    return usable[0], usable[-1]


@contextmanager
def pinned(cpu: int):
    """Run the calling thread on ``cpu`` (what it starts inherits it)."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


# -- the calibrator process -----------------------------------------------

class Calibrator:
    """A ``SCHED_IDLE`` kernel loop on one CPU, in its own process."""

    def __init__(self, cpu: int, root: Path) -> None:
        env = dict(os.environ, PYTHONPATH=str(root))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.speed", "--cpu", str(cpu)],
            cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def stop(self) -> list[Sample]:
        """End the process and return its samples."""
        try:
            out, _ = self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("calibrator did not stop")
        if self.process.returncode != 0:
            raise RuntimeError(
                f"calibrator exited with {self.process.returncode}")
        return [tuple(pair) for pair in json.loads(out)]

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def _calibrate(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        os.nice(19)
    samples = []
    while not select.select([sys.stdin], [], [], 0)[0]:
        begun = time.perf_counter()
        samples.append((begun, kernel()))
    json.dump(samples, sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="run the speed kernel "
                                     "until standard input closes")
    parser.add_argument("--cpu", type=int, required=True)
    sys.exit(_calibrate(parser.parse_args().cpu))
