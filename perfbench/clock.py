"""Host-speed probe and the blocking-path clock of one workload run.

``Probe`` times one fixed chunk of interpreter and NumPy work (a counting
loop and five 128x128 matmuls) in CPU time.  ``subrun.py`` takes samples
between set-up repetitions and right after every round; the median
sample of a phase tells how fast the host executed instructions during
it, so ``run.py`` can convert times to reference-box seconds.  The probe
imports nothing from the engine, so no change to the engine can move it.

``BlockingClock`` counts CPU time, not wall time: the host is shared, and
time the hypervisor gives our vCPUs to other machines (steal) or the
guest gives to other processes passes on the wall clock without the
program doing anything.  CPU time leaves both out; the probe corrects
for how fast that CPU time ran.
"""

from __future__ import annotations

import os
import time

import numpy as np


class Probe:
    def __init__(self) -> None:
        self.a = np.random.default_rng(0).random((128, 128))
        self.out = np.empty_like(self.a)  # no allocation inside a sample
        self.samples: list[float] = []  # CPU seconds per chunk
        self._chunk()  # warm-up, not recorded

    def _chunk(self) -> None:
        total = 0
        for i in range(30000):
            total += i
        for _ in range(5):
            np.matmul(self.a, self.a, out=self.out)

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.thread_time()
            self._chunk()
            self.samples.append(time.thread_time() - t0)


def _children_cpu() -> dict[int, int]:
    """CPU nanoseconds run so far by each child process of this process."""
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                pids = f.read().split()
        except OSError:
            continue
        for pid in pids:
            try:
                with open(f"/proc/{pid}/schedstat") as f:
                    out[int(pid)] = int(f.read().split()[0])
            except OSError:  # exited meanwhile
                pass
    return out


class BlockingClock:
    """CPU seconds on the run's blocking path.

    That is this process's CPU time (all its threads) plus, for every
    dispatch to pool worker processes, the CPU time of the worker that
    spent the most in it: the dispatch returns when its busiest worker is
    done.  Work passed to ``left_out`` (probe samples) and the clock's own
    bookkeeping are not counted.
    """

    def __init__(self) -> None:
        self.left_out_s = 0.0
        self.workers_s = 0.0
        self.dispatches = 0
        self.workers_seen: set[int] = set()
        self._depth = 0

    def now(self) -> float:
        return time.process_time() - self.left_out_s + self.workers_s

    def left_out(self, fn, *args):
        t0 = time.thread_time()
        try:
            return fn(*args)
        finally:
            self.left_out_s += time.thread_time() - t0

    def hook_dispatch(self, cls, attr: str) -> None:
        """Count the busiest worker's CPU time in every ``cls.attr`` call."""
        original = vars(cls)[attr]
        clock = self

        def hooked(*args, **kwargs):
            if clock._depth:
                return original(*args, **kwargs)
            before = clock.left_out(_children_cpu)
            clock._depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                clock._depth -= 1
                after = clock.left_out(_children_cpu)
                busiest = max((ns - before.get(pid, 0) for pid, ns in after.items()), default=0)
                clock.workers_s += busiest / 1e9
                clock.workers_seen.update(after)
                clock.dispatches += 1

        setattr(cls, attr, hooked)
