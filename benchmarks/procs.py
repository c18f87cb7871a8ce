"""Start one command at a time in its own process group and reap it all.

Every command runs as the leader of a fresh process group, so the
command and every process it forks (the verifier's pool workers) can be
signalled together.  The benchmark process makes itself a child
subreaper where the platform allows it, so a worker orphaned by a killed
command is re-parented here and can be waited for, not left to init.

A command is finished only when its group is empty: on a normal exit,
on a timeout, on an error and on Ctrl-C or SIGTERM alike.  SIGINT and
SIGTERM are held back while a child is spawned and while a group is
being reaped, so an interrupt can never leave a pid unrecorded.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import select
import signal
import sys
import time
from dataclasses import dataclass

_HELD = {signal.SIGINT, signal.SIGTERM}
_PR_SET_CHILD_SUBREAPER = 36
_REAP_GRACE_S = 10.0


class CommandTimeout(RuntimeError):
    """A command outlived its deadline; its group was killed and reaped."""


class LeakedProcesses(RuntimeError):
    """A process group could not be emptied within the grace period."""


@dataclass(frozen=True)
class Finished:
    """Outcome of one command.  cpu_s and maxrss_kb come from wait4, so
    they cover the leader and every descendant it waited for (pool
    workers included).  maxrss_kb is at least the spawning process's own
    high-water mark, which the child inherits at exec, so keep the
    spawner small.  leaked tells whether any member of the group was
    still alive after the leader exited (they were then killed)."""

    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    leaked: bool


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux prctl); False where unsupported."""
    if not sys.platform.startswith("linux"):
        return False
    libc = ctypes.CDLL(ctypes.util.find_library("c") or None, use_errno=True)
    return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def raise_on_sigterm() -> None:
    """Turn SIGTERM into KeyboardInterrupt so cleanup paths run."""

    def handler(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, handler)


def _spawn(argv, env, stdout_path, stderr_path) -> int:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    return os.posix_spawn(
        argv[0], argv, env,
        file_actions=actions,
        setpgroup=0,
        setsigmask=(),
        setsigdef=tuple(_HELD),
    )


def _wait_exit(pid: int, timeout_s: float) -> bool:
    """Block until pid has exited (still unreaped) or the timeout ends."""
    try:
        fd = os.pidfd_open(pid)
    except (AttributeError, OSError):
        fd = None
    if fd is not None:
        try:
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            return bool(poller.poll(max(timeout_s, 0.0) * 1000))
        finally:
            os.close(fd)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT):
            return True
        time.sleep(0.005)
    return False


def _reap_orphans() -> None:
    """Collect any re-parented descendants that have exited."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _empty_group(pgid: int) -> bool:
    """SIGKILL whatever is left in the group and wait until it is gone.
    Returns whether anything was left."""
    found = False
    deadline = time.monotonic() + _REAP_GRACE_S
    while True:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return found
        found = True
        _reap_orphans()
        if time.monotonic() > deadline:
            raise LeakedProcesses(f"process group {pgid} still has members")
        time.sleep(0.01)


def run(argv, env, stdout_path, stderr_path, timeout_s: float) -> Finished:
    """Run argv to completion in its own process group.

    Raises CommandTimeout after killing the group if it outlives
    timeout_s; any exception (KeyboardInterrupt included) kills and
    reaps the group before it propagates.
    """
    old = signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
    t0 = time.perf_counter()
    try:
        pid = _spawn(argv, env, stdout_path, stderr_path)
    except BaseException:
        signal.pthread_sigmask(signal.SIG_SETMASK, old)
        raise
    reaped = False
    try:
        # A signal held back during the spawn is delivered here, inside
        # the block whose cleanup kills the new group.
        signal.pthread_sigmask(signal.SIG_SETMASK, old)
        exited = _wait_exit(pid, timeout_s)
        wall = time.perf_counter() - t0
        if not exited:
            raise CommandTimeout(f"{argv[1:]} exceeded {timeout_s:.0f} s")
        # The leader is a zombie here, which keeps pgid reserved: a
        # successful signal 0 before reaping means only that the group
        # exists, so count live members after reaping the leader instead.
        signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
        leaked = _empty_group(pid)
    finally:
        if not reaped:
            signal.pthread_sigmask(signal.SIG_BLOCK, _HELD)
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
            _empty_group(pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, old)
    return Finished(
        returncode=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        leaked=leaked,
    )
