"""Resource-limited subprocess execution for generated work.

Every spawned command runs in its own session/process group so a timeout
kill takes the whole tree down with it. Wall-clock and CPU limits are hard;
output beyond the byte cap is discarded and marked. Where the platform
allows it, the command also gets a fresh empty network namespace.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import logging
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

logger = logging.getLogger(__name__)

TRUNCATION_MARKER = b"...[output truncated]"

_CLONE_NEWNET = 0x40000000

_PROBE_CODE = (
    "import ctypes, ctypes.util, sys;"
    "name = ctypes.util.find_library('c');"
    "sys.exit(1) if not name else None;"
    "libc = ctypes.CDLL(name, use_errno=True);"
    f"sys.exit(0 if libc.unshare({_CLONE_NEWNET}) == 0 else 1)"
)

# loaded in the parent ahead of time: dlopen after fork is not safe
_LIBC = None
_libc_name = ctypes.util.find_library("c")
if _libc_name:
    _LIBC = ctypes.CDLL(_libc_name, use_errno=True)


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
    network_isolated: bool = True

    @property
    def limit_breached(self) -> bool:
        return self.timed_out or self.output_truncated


@functools.lru_cache(maxsize=1)
def network_isolation_available() -> bool:
    """Whether this environment lets us unshare the network namespace."""
    try:
        probe = subprocess.run(
            [sys.executable, "-c", _PROBE_CODE], capture_output=True, timeout=15
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    available = probe.returncode == 0
    if not available:
        logger.warning("network namespace isolation unavailable; commands run without it")
    return available


def _make_preexec(limits: SandboxLimits):
    def preexec() -> None:
        resource.setrlimit(
            resource.RLIMIT_CPU, (limits.cpu_seconds, limits.cpu_seconds + 1)
        )
        if _LIBC is not None:
            _LIBC.unshare(_CLONE_NEWNET)  # best effort; probed separately

    return preexec


def _drain(pipe, cap: int, chunks: list[bytes], truncated: list[bool]) -> None:
    remaining = cap
    while True:
        block = pipe.read(65536)
        if not block:
            break
        if remaining > 0:
            take = block[:remaining]
            chunks.append(take)
            remaining -= len(take)
            if remaining == 0 and len(block) > len(take):
                truncated[0] = True
        else:
            truncated[0] = True
    pipe.close()


def sandbox_execute(
    command: Sequence[str],
    limits: SandboxLimits,
    stdin_data: Optional[bytes] = None,
) -> SandboxOutcome:
    """Run `command` under `limits`; the process cannot outlive the timeout."""
    start = time.monotonic()
    try:
        proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
            preexec_fn=_make_preexec(limits),
        )
    except (OSError, ValueError) as exc:
        raise SandboxSpawnError(f"failed to spawn {command!r}: {exc}") from exc

    out_chunks: list[bytes] = []
    err_chunks: list[bytes] = []
    out_trunc = [False]
    err_trunc = [False]
    readers = [
        threading.Thread(
            target=_drain, args=(proc.stdout, limits.max_output_bytes, out_chunks, out_trunc)
        ),
        threading.Thread(
            target=_drain, args=(proc.stderr, limits.max_output_bytes, err_chunks, err_trunc)
        ),
    ]
    for r in readers:
        r.start()

    if stdin_data is not None:
        try:
            proc.stdin.write(stdin_data)
        except BrokenPipeError:
            pass
    try:
        proc.stdin.close()
    except BrokenPipeError:
        pass

    timed_out = False
    try:
        proc.wait(timeout=limits.wall_clock_seconds)
    except subprocess.TimeoutExpired:
        timed_out = True
        _kill_group(proc)
        proc.wait()
    for r in readers:
        r.join()
    # belt and braces: nothing from the group may survive the call
    _kill_group(proc)
    elapsed = time.monotonic() - start

    stdout = b"".join(out_chunks)
    stderr = b"".join(err_chunks)
    if out_trunc[0]:
        stdout += TRUNCATION_MARKER
    if err_trunc[0]:
        stderr += TRUNCATION_MARKER

    return SandboxOutcome(
        exit_status=None if timed_out else proc.returncode,
        stdout=stdout,
        stderr=stderr,
        elapsed=elapsed,
        timed_out=timed_out,
        output_truncated=out_trunc[0] or err_trunc[0],
        network_isolated=network_isolation_available(),
    )


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
