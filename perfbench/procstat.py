"""Memory and CPU time of the driver and every process it started.

Ray's GCS, raylet and worker processes all descend from the driver, so one
``/proc`` walk finds them.  ``TreeSampler`` runs one sampler thread that
walks the tree every ``interval`` seconds while ``active`` is set.  It keeps
the peak of the summed RSS (``/proc/<pid>/statm``; shared pages such as the
object store count once per process that maps them, as RSS does) and the
last user + system CPU time seen for every process (``/proc/<pid>/stat``).
``cpu_seconds()`` sums that CPU time over every process ever seen, so a Ray
worker that exits keeps counting with what it had used at its last sample.
Time the hypervisor gave to other guests is in neither.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TCK = os.sysconf("SC_CLK_TCK")


def cpu_times() -> list[int]:
    """The machine-wide ``cpu`` line of ``/proc/stat`` (jiffies: user, nice,
    system, idle, iowait, irq, softirq, steal, ...)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the machine's CPU time the hypervisor gave to other guests
    between two ``cpu_times()`` readings."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(sum(d[:8]), 1)


def _stats() -> dict[int, list[str]]:
    """The fields after the command name of every ``/proc/<pid>/stat``."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                out[int(name)] = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited between listdir and open
    return out


def _tree(root: int, stats: dict[int, list[str]]) -> list[int]:
    kids: dict[int, list[int]] = {}
    for pid, fields in stats.items():
        kids.setdefault(int(fields[1]), []).append(pid)   # field 4: ppid
    pids, todo = [], [root]
    while todo:
        pid = todo.pop()
        pids.append(pid)
        todo.extend(kids.get(pid, ()))
    return pids


def descendants() -> list[int]:
    """Pids of every process this one started, directly or not."""
    me = os.getpid()
    return [p for p in _tree(me, _stats()) if p != me]


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except OSError:
        return False


def wait_gone(pids: list[int], grace: float = 10.0) -> None:
    """Wait until every process in ``pids`` has ended.  Those still running
    after ``grace`` seconds are killed (Ray's agents can outlive a raylet
    that stopped mid-run, and ignore SIGTERM), then waited for."""
    deadline = time.monotonic() + grace
    killed = False
    while alive := [p for p in pids if _running(p)]:
        if time.monotonic() >= deadline:
            if killed:
                return   # not even SIGKILL ended them: uninterruptible
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.1)


class TreeSampler:
    """``with TreeSampler() as s: ... s.active.set()`` — samples only while
    ``active`` is set; ``peak_mb`` is the largest RSS sum seen and
    ``cpu_seconds()`` takes a sample now and returns the CPU total."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.active = threading.Event()
        self.peak_bytes = 0
        self._root = os.getpid()
        self._cpu: dict[tuple[int, str], int] = {}   # (pid, start time) → ticks
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="tree-sampler", daemon=True)

    def _sample(self, rss: bool) -> None:
        stats = _stats()
        total = 0
        with self._lock:
            for pid in _tree(self._root, stats):
                fields = stats.get(pid)
                if fields is None:
                    continue
                # fields 14, 15: utime, stime; 22: start time
                self._cpu[(pid, fields[19])] = int(fields[11]) + int(fields[12])
                if rss:
                    try:
                        with open(f"/proc/{pid}/statm") as f:
                            total += int(f.read().split()[1]) * _PAGE
                    except OSError:
                        continue   # exited during the walk
            self.peak_bytes = max(self.peak_bytes, total)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if self.active.is_set():
                self._sample(rss=True)

    def cpu_seconds(self) -> float:
        self._sample(rss=False)
        with self._lock:
            return sum(self._cpu.values()) / _TCK

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 2**20

    def __enter__(self) -> "TreeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        return False
