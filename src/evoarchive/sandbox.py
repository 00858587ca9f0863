"""Resource-limited subprocess execution for generated work.

Every spawned command runs in its own session/process group so a timeout
kill takes the whole tree down with it. Wall-clock and CPU limits are hard;
output beyond the byte cap is discarded and marked.

The limits are applied by an argv prefix that execs into the command, so no
Python code runs in the child and the spawn keeps CPython's vfork path:

    unshare -n -- /bin/sh -c 'ulimit -S -t N && ulimit -H -t N+1 && exec "$@"' sh ARGV...

``unshare`` (from util-linux) gives the command a fresh, empty network
namespace. It joins the prefix, by the absolute path found on ``PATH`` once,
only when a one-time probe (``unshare -n -- true``) succeeded; where
``unshare`` is missing or not permitted, commands run without isolation,
one warning is logged, and every outcome reports ``network_isolated=False``. The shell sets the soft CPU limit to N seconds
(SIGXCPU, exit status -24) and the hard limit to N+1 (SIGKILL if SIGXCPU is
caught or ignored); the soft limit goes first because lowering the hard limit
below an unlimited soft limit fails. Both are in force before the command's
first instruction, so every process it forks inherits them. ``exec`` keeps the
pid and the process group, so exit statuses and the group kill are those of
the command itself.

One ``selectors`` loop in the calling thread writes stdin, drains stdout and
stderr under the byte cap and stops at the wall-clock deadline.
"""

from __future__ import annotations

import functools
import logging
import os
import selectors
import shutil
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Optional, Sequence

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


@functools.lru_cache(maxsize=1)
def _unshare_prefix() -> tuple[str, ...]:
    """``unshare -n --`` naming the binary by the absolute path that the
    one-time probe ran, or () where that probe failed."""
    unshare = shutil.which("unshare")
    try:
        available = unshare is not None and subprocess.run(
            [unshare, "-n", "--", "true"], capture_output=True, timeout=15
        ).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        available = False
    if not available:
        logger.warning("network namespace isolation unavailable; commands run without it")
        return ()
    return (unshare, "-n", "--")


def network_isolation_available() -> bool:
    """Whether ``unshare -n`` works here; probed once per process."""
    return bool(_unshare_prefix())


def _limit_prefix(limits: SandboxLimits, isolated: bool) -> list[str]:
    n = limits.cpu_seconds
    shim = f'ulimit -S -t {n} && ulimit -H -t {n + 1} && exec "$@"'
    return [*(_unshare_prefix() if isolated else ()), "/bin/sh", "-c", shim, "sh"]


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
) -> bool:
    """Move bytes until every pipe is done; False if the deadline came first."""
    pending = memoryview(stdin_data or b"")
    with selectors.DefaultSelector() as sel:
        if proc.stdin is not None:
            os.set_blocking(proc.stdin.fileno(), False)
            sel.register(proc.stdin.fileno(), selectors.EVENT_WRITE)
        for fd in captures:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            for key, _ in sel.select(remaining):
                fd = key.fd
                if fd in captures:
                    block = os.read(fd, _CHUNK)
                    if block:
                        captures[fd].feed(block)
                    else:
                        sel.unregister(fd)
                    continue
                try:
                    pending = pending[os.write(fd, pending[:_CHUNK]):]
                except BrokenPipeError:
                    pending = pending[:0]
                if not pending:
                    sel.unregister(fd)
                    proc.stdin.close()
    return True


def sandbox_execute(
    command: Sequence[str],
    limits: SandboxLimits,
    stdin_data: Optional[bytes] = None,
) -> SandboxOutcome:
    """Run `command` under `limits`; the process cannot outlive the timeout."""
    argv = list(command)
    if not argv or shutil.which(argv[0]) is None:
        raise SandboxSpawnError(f"failed to spawn {command!r}: not an executable file")
    isolated = network_isolation_available()
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            _limit_prefix(limits, isolated) + argv,
            stdin=subprocess.PIPE if stdin_data else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
            bufsize=0,
        )
    except (OSError, ValueError) as exc:
        raise SandboxSpawnError(f"failed to spawn {command!r}: {exc}") from exc

    out = _Capture(limits.max_output_bytes)
    err = _Capture(limits.max_output_bytes)
    deadline = start + limits.wall_clock_seconds
    try:
        finished = _pump(
            proc, stdin_data, {proc.stdout.fileno(): out, proc.stderr.fileno(): err}, deadline
        )
        if finished:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                finished = False
    finally:
        # a timeout ends here, and so does anything the command left running
        _kill_group(proc)
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            if pipe is not None:
                pipe.close()
        proc.wait()
    elapsed = time.monotonic() - start

    return SandboxOutcome(
        exit_status=proc.returncode if finished else None,
        stdout=out.value(),
        stderr=err.value(),
        elapsed=elapsed,
        timed_out=not finished,
        output_truncated=out.truncated or err.truncated,
        network_isolated=isolated,
    )


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
