"""Host-speed sampling while a job runs.

The host this benchmark was tuned on (2 CPUs of a shared machine) runs a
CPU at one of two speeds, about 1.45 apart, switching within seconds, and
the share of time at the slow speed drifts over minutes.  CPU time slows as
much as wall time, so the time is not taken by the scheduler.  Median job
times of back-to-back runs followed that drift and spread by up to 0.28 of
their median.

run.py pins its process to one CPU, with one BLAS thread, and a Sampler
thread on that CPU times a fixed probe (a loop that uses none of lzsim's
code) every PERIOD_S while a job runs.  The job's
time divided by the probes' mean slowdown over the job is its time at the
reference speed.  A change to lzsim moves the job and not the probe.  Probes
timed between jobs, or in a helper process, sample the speed of another
moment or another CPU, and tracked the job worse than not scaling at all.
The probe takes about 4% of the CPU from the job, on every commit alike.
Set-up time is scaled the same way: the set-up process runs on the
sampler's CPU.
"""

import os
import statistics
import threading
import time

# Seconds of one probe on the reference host (Python 3.11, fast state).
PROBE_REF_S = 0.0008
PERIOD_S = 0.02


def _probe():
    total = 0
    for i in range(10_000):
        total += i * i
    return total


class Sampler:
    """Times the probe every PERIOD_S in a daemon thread, on CPU `cpu`, until closed."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.samples = []   # (start, seconds) of each probe
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        os.sched_setaffinity(0, {self.cpu})   # this thread only
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            _probe()
            self.samples.append((start, time.perf_counter() - start))

    def slowdown(self, start, end):
        """Mean probe time between start and end, over the reference's."""
        inside = [seconds for at, seconds in list(self.samples) if start <= at < end]
        if not inside:
            raise RuntimeError("no host-speed probe ran during the job")
        return statistics.fmean(inside) / PROBE_REF_S

    def close(self):
        self._stop.set()
        self._thread.join()
