"""Resource-limited subprocess execution for generated work.

Every spawned command runs in its own session/process group so a timeout
kill takes the whole tree down with it. Wall-clock and CPU limits are hard;
output beyond the byte cap is discarded and marked.

The limits are applied by an argv prefix that execs into the command, so no
Python code runs in the child and the spawn keeps CPython's vfork path:

    /bin/sh -c 'ulimit -S -t N && ulimit -H -t N+1 && exec "$@"' sh ARGV...

The command gets a fresh, empty network namespace without a program of its
own. The spawner, the one worker of a process-wide ``ThreadPoolExecutor``,
starts every isolated command, one at a time: it calls
``unshare(CLONE_NEWNET)`` through libc and starts the prefix from inside that
namespace (a namespace belongs to one thread, and the child inherits the
thread's). The spawner never goes back, so no other thread ever leaves the
host namespace; it is joined at interpreter exit rather than being a daemon.
Its first task is the probe: where no fresh namespace can be entered, the
executor is shut down, commands run without one, one warning is logged, and
every outcome reports ``network_isolated=False``. Once isolation is
available, a call that cannot enter a fresh namespace is a
``SandboxSpawnError`` that starts nothing, and the spawner serves the next
call. A forked child starts a spawner of its own.

The shell sets the soft CPU limit to N seconds
(SIGXCPU, exit status -24) and the hard limit to N+1 (SIGKILL if SIGXCPU is
caught or ignored); the soft limit goes first because lowering the hard limit
below an unlimited soft limit fails. Both are in force before the command's
first instruction, so every process it forks inherits them. ``exec`` keeps the
pid and the process group, so exit statuses and the group kill are those of
the command itself.

The calling thread writes stdin once before it waits (all of it, for a
request that fits the pipe); one ``poll`` loop then writes any rest, drains
stdout and stderr under the byte cap, waits for the command's exit on a pidfd
(Linux 5.3 and later; elsewhere the exit is polled once the pipes are done)
and stops at the wall-clock deadline.
"""

from __future__ import annotations

import ctypes
import functools
import logging
import os
import select
import shutil
import signal
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Optional, Sequence

logger = logging.getLogger(__name__)

TRUNCATION_MARKER = b"...[output truncated]"

_CHUNK = 65536


class SandboxSpawnError(Exception):
    """The command could not be started at all (distinct from a limit breach)."""


@dataclass(frozen=True)
class SandboxLimits:
    wall_clock_seconds: float = 60.0
    cpu_seconds: int = 60
    max_output_bytes: int = 1_000_000
    network: str = "disabled"

    def __post_init__(self) -> None:
        if self.wall_clock_seconds <= 0:
            raise ValueError("wall_clock_seconds must be positive")
        if self.cpu_seconds <= 0:
            raise ValueError("cpu_seconds must be positive")
        if self.max_output_bytes <= 0:
            raise ValueError("max_output_bytes must be positive")
        if self.network != "disabled":
            raise ValueError("network must be 'disabled' (the only supported setting)")


@dataclass
class SandboxOutcome:
    exit_status: Optional[int]
    stdout: bytes
    stderr: bytes
    elapsed: float
    timed_out: bool = False
    output_truncated: bool = False
    network_isolated: bool = False


_CLONE_NEWNET = 0x40000000


@functools.lru_cache(maxsize=1)
def _libc() -> ctypes.CDLL:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.unshare.argtypes = [ctypes.c_int]
    libc.unshare.restype = ctypes.c_int
    return libc


def _enter_fresh_namespace() -> None:
    """Move the calling thread into a new, empty network namespace."""
    if _libc().unshare(_CLONE_NEWNET) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"unshare(CLONE_NEWNET): {os.strerror(err)}")


_probe_lock = threading.Lock()


@functools.lru_cache(maxsize=1)
def _probed_spawner() -> Optional[ThreadPoolExecutor]:
    """The spawner: one worker that starts isolated commands, each from a fresh
    network namespace it enters just before the spawn; it never returns to the
    host namespace, and no other thread ever leaves it. None, its worker ended,
    where the probe cannot enter a fresh namespace."""
    spawner = ThreadPoolExecutor(max_workers=1, thread_name_prefix="evoarchive-spawner")
    try:
        spawner.submit(_enter_fresh_namespace).result()
    except OSError:
        spawner.shutdown()
        logger.warning("network namespace isolation unavailable; commands run without it")
        return None
    return spawner


def _spawner() -> Optional[ThreadPoolExecutor]:
    """The process's spawner, started on first use; None where no fresh
    namespace can be entered."""
    with _probe_lock:
        return _probed_spawner()


def _forget_spawner() -> None:
    """In a forked child, where the parent's spawner thread does not exist."""
    global _probe_lock
    _probe_lock = threading.Lock()
    _probed_spawner.cache_clear()


os.register_at_fork(after_in_child=_forget_spawner)


def network_isolation_available() -> bool:
    """Whether a thread here can enter a fresh network namespace; probed
    once per process."""
    return _spawner() is not None


def _limit_prefix(limits: SandboxLimits) -> list[str]:
    n = limits.cpu_seconds
    shim = f'ulimit -S -t {n} && ulimit -H -t {n + 1} && exec "$@"'
    return ["/bin/sh", "-c", shim, "sh"]


class _Capture:
    """One output stream, kept up to `cap` bytes; the rest is read and dropped."""

    def __init__(self, cap: int):
        self.remaining = cap
        self.chunks: list[bytes] = []
        self.truncated = False

    def feed(self, block: bytes) -> None:
        if len(block) > self.remaining:
            self.truncated = True
            block = block[: self.remaining]
        if block:
            self.chunks.append(block)
            self.remaining -= len(block)

    def value(self) -> bytes:
        data = b"".join(self.chunks)
        return data + TRUNCATION_MARKER if self.truncated else data


def _pump(
    proc: subprocess.Popen,
    stdin_data: Optional[bytes],
    captures: dict[int, _Capture],
    deadline: float,
    pidfd: Optional[int],
) -> bool:
    """Move bytes until every pipe is done and, given the command's `pidfd`, the
    command has exited; False if the deadline came first."""
    poller = select.poll()
    for fd in [*captures, pidfd] if pidfd is not None else captures:
        poller.register(fd, select.POLLIN)
    open_pipes = len(captures) + (pidfd is not None)
    pending = memoryview(stdin_data or b"")
    if proc.stdin is not None:
        os.set_blocking(proc.stdin.fileno(), False)
        pending = _feed(proc.stdin, pending)
        if pending:
            poller.register(proc.stdin.fileno(), select.POLLOUT)
            open_pipes += 1
    while open_pipes:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        for fd, _ in poller.poll(remaining * 1000):
            if fd in captures:
                block = os.read(fd, _CHUNK)
                if block:
                    captures[fd].feed(block)
                    continue
            elif fd != pidfd:
                pending = _feed(proc.stdin, pending)
                if pending:
                    continue
            poller.unregister(fd)
            open_pipes -= 1
    return True


def _feed(stdin: IO[bytes], pending: memoryview) -> memoryview:
    """Write what the non-blocking pipe `stdin` takes now and return the rest;
    close it once everything is written or its reader is gone."""
    try:
        pending = pending[os.write(stdin.fileno(), pending[:_CHUNK]):]
    except BrokenPipeError:
        pending = pending[:0]
    if not pending:
        stdin.close()
    return pending


def _start(argv: list[str], stdin_data: Optional[bytes], isolated: bool) -> subprocess.Popen:
    """Start `argv`; if `isolated` (on the spawner), from a fresh network namespace."""
    if isolated:
        try:
            _enter_fresh_namespace()
        except OSError as exc:
            raise OSError(f"no fresh network namespace: {exc}") from exc
    return subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin_data else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
        bufsize=0,
    )


def _spawn(
    command: Sequence[str],
    limits: SandboxLimits,
    stdin_data: Optional[bytes],
    spawner: Optional[ThreadPoolExecutor],
) -> subprocess.Popen:
    """Start the limit prefix and `command`; given `spawner`, from a fresh
    network namespace or not at all."""
    argv = list(command)
    if not argv or shutil.which(argv[0]) is None:
        raise SandboxSpawnError(f"failed to spawn {command!r}: not an executable file")
    argv = _limit_prefix(limits) + argv
    try:
        if spawner is None:
            return _start(argv, stdin_data, False)
        return spawner.submit(_start, argv, stdin_data, True).result()
    except (OSError, ValueError) as exc:
        raise SandboxSpawnError(f"failed to spawn {command!r}: {exc}") from exc


def sandbox_execute(
    command: Sequence[str],
    limits: SandboxLimits,
    stdin_data: Optional[bytes] = None,
) -> SandboxOutcome:
    """Run `command` under `limits`; the process cannot outlive the timeout."""
    spawner = _spawner()
    start = time.monotonic()
    proc = _spawn(command, limits, stdin_data, spawner)
    try:
        pidfd = os.pidfd_open(proc.pid)  # readable once the command exits
    except (AttributeError, OSError):  # no pidfd here (before Linux 5.3)
        pidfd = None

    out = _Capture(limits.max_output_bytes)
    err = _Capture(limits.max_output_bytes)
    deadline = start + limits.wall_clock_seconds
    try:
        finished = _pump(proc, stdin_data, {proc.stdout.fileno(): out, proc.stderr.fileno(): err},
                         deadline, pidfd)
        if finished and pidfd is None:  # the pipes are done; poll for the exit
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                finished = False
    finally:
        if pidfd is not None:
            os.close(pidfd)
        # a timeout ends here, and so does anything the command left running
        _reap(proc)
    elapsed = time.monotonic() - start

    return SandboxOutcome(
        exit_status=proc.returncode if finished else None,
        stdout=out.value(),
        stderr=err.value(),
        elapsed=elapsed,
        timed_out=not finished,
        output_truncated=out.truncated or err.truncated,
        network_isolated=spawner is not None,
    )


def _reap(proc: subprocess.Popen) -> None:
    """Kill the command's process group, close its pipes and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()
    proc.wait()
