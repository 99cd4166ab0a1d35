"""Kill/resume (SURVEY.md §5.2 #6): a validation subprocess is SIGKILLed
mid-run; the restarted run skips every window already bearing _DONE and the
final outputs match a clean uninterrupted run.

The killed run stalls after writing its first window, so the kill lands
between windows on any machine: the windows of the fixture each take well
under the parent's poll interval, and a run left to go on could finish
them all before the kill."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_SCRIPT = """
import sys, time
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False
from driftray import pipeline
from driftray.spec import repo_files_spec
if {stall!r}:
    _write = pipeline.write_window_result
    def write_window_result(out_dir, res):
        _write(out_dir, res)
        time.sleep(600)   # stalled until killed
    pipeline.write_window_result = write_window_result
pipeline.run_validation({input!r}, {out!r}, repo_files_spec(),
                        check_uniqueness=False, windows_per_pass=1)
print("COMPLETE")
"""


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    from driftray.fixtures import RepoFilesConfig, write_repo_files

    d = str(tmp_path_factory.mktemp("kill_fixture"))
    write_repo_files(d, 6000, RepoFilesConfig(window_rows=1000))
    return d


def _launch(fixture_dir, out, stall=False):
    """A ``run_validation`` subprocess; with ``stall`` it stops making
    progress once its first window is written."""
    code = RUN_SCRIPT.format(repo=REPO, input=f"{fixture_dir}/repo_files.parquet",
                             out=out, stall=stall)
    return subprocess.Popen([sys.executable, "-c", code], cwd=REPO,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)


def _done_windows(out):
    if not os.path.isdir(out):
        return set()
    return {d for d in os.listdir(out)
            if d.startswith("window=") and os.path.exists(f"{out}/{d}/_DONE")}


def _wait(proc, deadline):
    """``proc``'s stdout once it exits; past ``deadline`` it is killed and
    the test fails."""
    try:
        return proc.communicate(timeout=max(deadline - time.time(), 0))[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        pytest.fail("validation subprocess still running at the test's "
                    "600 s bound")


def test_sigkill_mid_run_then_resume(fixture_dir, tmp_path):
    deadline = time.time() + 600   # the whole test, all three runs
    out = str(tmp_path / "out")
    proc = _launch(fixture_dir, out, stall=True)
    # wait for the first window to complete, then SIGKILL the whole run
    while time.time() < deadline and len(_done_windows(out)) < 1:
        assert proc.poll() is None, "validation subprocess exited before a window was done"
        time.sleep(0.5)
    assert proc.poll() is None, "validation subprocess exited before the kill"
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    done_after_kill = _done_windows(out)
    assert len(done_after_kill) == 1, "the kill did not land mid-run"

    # restart: must complete the remaining windows and touch nothing done
    mtimes = {w: os.path.getmtime(f"{out}/{w}/_DONE") for w in done_after_kill}
    out2 = _wait(_launch(fixture_dir, out), deadline)
    assert "COMPLETE" in out2
    assert len(_done_windows(out)) == 6
    for w, m in mtimes.items():
        assert os.path.getmtime(f"{out}/{w}/_DONE") == m, f"{w} was recomputed"

    # and the merged lineage equals a clean single run
    clean = str(tmp_path / "clean")
    _wait(_launch(fixture_dir, clean), deadline)
    for w in range(6):
        with open(f"{out}/window={w}/lineage.json") as f:
            a = json.load(f)
        with open(f"{clean}/window={w}/lineage.json") as f:
            b = json.load(f)
        assert a["counters"] == b["counters"]
        assert a["n_rows"] == b["n_rows"]
