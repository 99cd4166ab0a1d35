#!/usr/bin/env python3
"""Reproductions of defects 1 and 2 in NOTES.md.  Run from the root of a
checkout; everything is written under ``perfbench/_work/repro/``.  Both
validate the ``full_scan`` fixture at ``ROWS`` rows.

    python3 perfbench/repro.py deadlock
    python3 perfbench/repro.py stall [--no-uniqueness]

``deadlock``  ``run_validation`` at ``ray.init(num_cpus=1)``; exits 1 and
              lists the live Ray worker processes if the run has not
              finished after ``WAIT_S`` seconds.
``stall``     ``PASSES`` full passes in one Ray session at 2 logical CPUs;
              per pass, the wall time, the engine's stage times and the CPU
              seconds the Ray processes used.

The append-path defects (3 and 4) show as failed ops of
``python3 perfbench/run.py --workload append_window``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work", "repro")
ROWS = 20_000        # table size of both reproductions
WINDOW_ROWS = 5_000
WAIT_S = 120.0       # deadlock: how long to wait for the run to finish
PASSES = 12          # stall: full passes in one Ray session


def _table():
    """The ``full_scan`` fixture at ``ROWS`` rows, cached under ``WORK``."""
    import workloads as W

    wl = W.FullScan(0, WORK, rows=ROWS, window_rows=WINDOW_ROWS)
    wl.prepare()
    return wl


def _ray_processes() -> list[tuple[int, str, float]]:
    """(pid, process title, CPU seconds) of every ``ray::`` process."""
    tck = os.sysconf("SC_CLK_TCK")
    out = []
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/cmdline") as f:
                title = f.read().split("\0")[0]
            with open(f"/proc/{p}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if title.startswith("ray::") or "raylet" in title or "gcs_server" in title:
            out.append((int(p), os.path.basename(title),
                        (int(fields[11]) + int(fields[12])) / tck))
    return out


def deadlock(args) -> int:
    from driftray import pipeline as P
    from run import start_ray

    wl = _table()
    start_ray(os.path.join(HERE, "_work"), cpus=1)
    out = os.path.join(WORK, "deadlock-out")
    shutil.rmtree(out, ignore_errors=True)
    done = threading.Event()

    def go():
        P.run_validation(wl.input_path, out, wl.spec, dim_paths=wl.dims, use_bloom=True)
        done.set()

    threading.Thread(target=go, daemon=True).start()
    t0 = time.perf_counter()
    if done.wait(WAIT_S):
        print(f"finished in {time.perf_counter() - t0:.1f} s: no deadlock at this size")
        return 0
    windows = sorted(n for n in os.listdir(out) if n.startswith("window="))
    print(f"not finished after {WAIT_S:.0f} s; window outputs written: {windows}")
    for pid, title, cpu in _ray_processes():
        print(f"  pid {pid:>7}  cpu {cpu:7.1f} s  {title}", flush=True)
    # ray.shutdown() would race the validation thread, whose next Ray call
    # ends the process and leaves Ray's agents and actors running
    from procstat import descendants, wait_gone

    pids = descendants()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wait_gone(pids)
    os._exit(1)  # the validation thread never returns; skip interpreter teardown


def stall(args) -> int:
    from driftray import pipeline as P
    from run import start_ray, stop_ray

    wl = _table()
    start_ray(os.path.join(HERE, "_work"))
    before = {p: c for p, _, c in _ray_processes()}
    me0 = time.process_time()
    for i in range(PASSES):
        out = os.path.join(WORK, f"stall-out-{i}")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        P.run_validation(wl.input_path, out, wl.spec, dim_paths=wl.dims,
                         use_bloom=True, check_uniqueness=not args.no_uniqueness)
        wall = time.perf_counter() - t0
        now = {p: c for p, _, c in _ray_processes()}
        ray_cpu = sum(c - before.get(p, 0.0) for p, c in now.items())
        me = time.process_time()
        with open(os.path.join(out, "run_lineage.jsonl")) as f:
            stages = json.loads(f.read().splitlines()[-1])["stages_s"]
        print(f"pass {i:2d}  wall {wall:6.2f} s  cpu driver {me - me0:5.1f} s  "
              f"ray {ray_cpu:5.1f} s  stages {stages}", flush=True)
        before, me0 = now, me
        shutil.rmtree(out, ignore_errors=True)
    stop_ray()
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("deadlock")
    sub.add_parser("stall").add_argument("--no-uniqueness", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "driftray", "pipeline.py")):
        print(f"no driftray package at {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT, HERE])
    os.makedirs(WORK, exist_ok=True)
    return {"deadlock": deadlock, "stall": stall}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
