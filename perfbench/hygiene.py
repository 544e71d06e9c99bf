"""Run hygiene: a private temp directory, leak checks, host facts and speed.

Every run points ``tempfile`` at a fresh directory inside the checkout
(relative, so Unix socket paths stay short) before anything starts, and
snapshots ``/dev/shm``.  After the run closed its backends and server,
``leaks()`` reports child processes still alive, shared-memory segments
created and not unlinked, and anything left in the temp directory, so
back-to-back runs cannot disturb each other.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import sys
import tempfile
import time

SHM = "/dev/shm"


def _shm_names() -> "set[str]":
    try:
        return set(os.listdir(SHM))
    except OSError:
        return set()


def children() -> "list[int]":
    """Pids of this process's live or unreaped child processes."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def peak_rss_mb(pid: "int | None" = None) -> float:
    """Peak resident set size in MB of ``pid`` (``None``: this process)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class RunScope:
    """The resources one run may create, and the check that none remain."""

    def __init__(self, root: str):
        self.tmp = os.path.join(root, ".run", str(os.getpid()))
        shutil.rmtree(self.tmp, ignore_errors=True)
        os.makedirs(self.tmp)
        tempfile.tempdir = self.tmp
        self._shm_before = _shm_names()

    def leaks(self) -> "list[str]":
        """Leftovers after the run closed everything (empty when clean)."""
        # The interpreter's shared-memory resource tracker is a child
        # that lives until it is told to stop; stop it so that every
        # process the run started has ended.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
        found = []
        deadline = time.monotonic() + 5.0
        pids = children()
        while pids and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = children()
        found += [f"child process {pid}" for pid in pids]
        found += [
            f"shm segment {name}"
            for name in sorted(_shm_names() - self._shm_before)
            if name.startswith("psm_")
        ]
        found += [f"temp entry {name}" for name in sorted(os.listdir(self.tmp))]
        tempfile.tempdir = None
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass
        return found


class SpeedProbe:
    """A fixed numpy kernel timed between units of work.

    The host this benchmark runs on shares its cores and memory with
    other machines' work, so its speed drifts by ±20% over minutes, far
    more than the drift within one run.  The kernel (random gathers over
    a small table, then a sort: the access pattern of the walk and sort
    kernels) is timed between units, about a tenth of the loop's time,
    and every reported time is scaled by ``REFERENCE_MS`` over the run's
    median kernel time, i.e. reported at reference host speed.  The
    kernel is no part of the program, so a change to the program moves
    the scaled times exactly as it moves the measured ones.
    """

    #: Sets the scale: the kernel's median on the reference host (2 vCPUs)
    #: in its fast phases, so scaled times read as that host's times.
    REFERENCE_MS = 50.0

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        size, walkers = 1 << 15, 1 << 20
        # Every buffer is allocated here, so a sample is pure compute and
        # memory traffic: no allocator or page-fault cost, which differs
        # with what the workload did to the heap before.
        self._table = rng.integers(0, size, size=size * 8)
        self._start = rng.integers(0, size, size=walkers)
        self._ports = rng.integers(0, 8, size=(4, walkers), dtype=np.uint8)
        self._walkers = np.empty(walkers, dtype=np.int64)
        self._slots = np.empty(walkers, dtype=np.int64)
        self._np = np
        self.samples_ms: "list[float]" = []

    def _kernel(self) -> float:
        np = self._np
        walkers, slots = self._walkers, self._slots
        start = time.perf_counter()
        np.copyto(walkers, self._start)
        for ports in self._ports:
            np.multiply(walkers, 8, out=slots)
            np.add(slots, ports, out=slots)
            np.take(self._table, slots, out=walkers)
        walkers.sort()
        return (time.perf_counter() - start) * 1e3

    def sample(self, busy_s: float) -> None:
        """Time the kernel for about a tenth of ``busy_s`` (at least once)."""
        spent = 0.0
        while True:
            self.samples_ms.append(self._kernel())
            spent += self.samples_ms[-1] / 1e3
            if spent >= 0.1 * busy_s:
                return

    def factor(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        import statistics

        return self.REFERENCE_MS / statistics.median(self.samples_ms)


def host() -> dict:
    """What a reader needs to compare this run with another."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }
