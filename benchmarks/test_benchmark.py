"""Tests of the benchmark itself (Linux: they read /proc).

    python3 -m pytest -q benchmarks/test_benchmark.py

Each test starts run.py as the leader of a new session and, once it has
exited, asserts that no process of that session is left: every command,
pool worker and helper the benchmark started must have been reaped,
whether the run completed or was interrupted mid-pass.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")


def session_members(sid: int) -> list:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


def start(*args, cwd=ROOT):
    return subprocess.Popen(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )


def finish(proc, timeout=170):
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return out.decode(), err.decode()


def assert_session_empty(sid: int):
    left = session_members(sid)
    assert left == [], f"processes left running: {left}"


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_pass_leaves_no_process(signum):
    proc = start("--workload", "verify-parallel", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    try:
        # Wait until the 2-worker grid is running: run.py, the CLI and
        # its two pool workers are all in the session.
        deadline = time.monotonic() + 120
        while len(session_members(proc.pid)) < 4:
            assert proc.poll() is None, "run.py ended before the pool started"
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.05)
        os.kill(proc.pid, signum)
        out, err = finish(proc, timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130, err
    assert '"correct"' not in out
    assert_session_empty(proc.pid)


def test_complete_run_reports_and_leaves_no_process():
    proc = start("--workload", "large-n", "--seed", "3", "--seconds", "1", "--trace", "0")
    out, err = finish(proc)
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out
    assert set(result["metrics"]) == {
        "setup_s", "wall_s", "cpu_s", "peak_rss_mb", "verify_s", "seq_s", "oct_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert_session_empty(proc.pid)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = start("--workload", "verify-grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    out, err = finish(proc, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in out
    assert_session_empty(proc.pid)
