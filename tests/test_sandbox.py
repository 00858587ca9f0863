from __future__ import annotations

import os
import sys
import time

import pytest

from evoarchive.sandbox import (
    SandboxLimits,
    SandboxSpawnError,
    TRUNCATION_MARKER,
    sandbox_execute,
)


def test_limits_validation():
    with pytest.raises(ValueError):
        SandboxLimits(wall_clock_seconds=0)
    with pytest.raises(ValueError):
        SandboxLimits(cpu_seconds=0)
    with pytest.raises(ValueError):
        SandboxLimits(max_output_bytes=0)
    with pytest.raises(ValueError):
        SandboxLimits(network="enabled")


def test_exit_zero_success():
    outcome = sandbox_execute(["true"], SandboxLimits(wall_clock_seconds=10))
    assert outcome.exit_status == 0
    assert not outcome.limit_breached


def test_captures_stdout_and_stderr():
    outcome = sandbox_execute(
        [sys.executable, "-c", "import sys; print('out'); print('err', file=sys.stderr)"],
        SandboxLimits(wall_clock_seconds=20),
    )
    assert outcome.stdout.strip() == b"out"
    assert outcome.stderr.strip() == b"err"


def test_sleeping_command_killed_within_margin():
    limits = SandboxLimits(wall_clock_seconds=1.0)
    start = time.monotonic()
    outcome = sandbox_execute([sys.executable, "-c", "import time; time.sleep(30)"], limits)
    elapsed = time.monotonic() - start
    assert outcome.timed_out
    assert outcome.exit_status is None
    assert elapsed < limits.wall_clock_seconds + 1.0


def test_process_tree_does_not_survive_timeout():
    # the grandchild writes its pid then everyone sleeps; after the kill the
    # whole group must be gone
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pid_file = os.path.join(tmp, "pid")
        code = (
            "import os, time, sys\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            f"    open({pid_file!r}, 'w').write(str(os.getpid()))\n"
            "    time.sleep(60)\n"
            "else:\n"
            "    time.sleep(60)\n"
        )
        outcome = sandbox_execute(
            [sys.executable, "-c", code], SandboxLimits(wall_clock_seconds=1.5)
        )
        assert outcome.timed_out
        deadline = time.monotonic() + 5
        grandchild = None
        while time.monotonic() < deadline:
            if os.path.exists(pid_file):
                grandchild = int(open(pid_file).read())
                break
            time.sleep(0.05)
        assert grandchild is not None, "grandchild never started"
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.kill(grandchild, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)
        pytest.fail(f"grandchild {grandchild} survived the sandbox call")


def test_output_beyond_cap_truncated_with_marker():
    limits = SandboxLimits(wall_clock_seconds=30, max_output_bytes=10_000)
    outcome = sandbox_execute(
        [sys.executable, "-c", "import sys; sys.stdout.write('x' * 1000000)"], limits
    )
    assert outcome.output_truncated
    assert outcome.stdout.endswith(TRUNCATION_MARKER)
    assert len(outcome.stdout) == 10_000 + len(TRUNCATION_MARKER)
    assert outcome.exit_status == 0  # the command itself still finished


def test_spawn_failure_is_a_distinct_error():
    with pytest.raises(SandboxSpawnError):
        sandbox_execute(["/no/such/binary"], SandboxLimits())


def test_cpu_limit_kills_busy_loop():
    limits = SandboxLimits(wall_clock_seconds=30, cpu_seconds=1)
    outcome = sandbox_execute(
        [sys.executable, "-c", "while True: pass"], limits
    )
    assert not outcome.timed_out
    assert outcome.exit_status != 0  # SIGXCPU / SIGKILL


def test_stdin_reaches_command():
    outcome = sandbox_execute(
        [sys.executable, "-c", "import sys; print(sys.stdin.read().upper())"],
        SandboxLimits(wall_clock_seconds=20),
        stdin_data=b"hello",
    )
    assert outcome.stdout.strip() == b"HELLO"


def test_unread_stdin_does_not_extend_timeout():
    limits = SandboxLimits(wall_clock_seconds=1.0)
    start = time.monotonic()
    outcome = sandbox_execute(["sleep", "30"], limits, stdin_data=b"x" * 300_000)
    elapsed = time.monotonic() - start
    assert outcome.timed_out
    assert outcome.exit_status is None
    assert elapsed < limits.wall_clock_seconds + 1.0


def test_large_stdin_and_output_flow_together():
    # the command echoes its input back, so neither side may block the other
    data = bytes(range(256)) * 2000
    outcome = sandbox_execute(["cat"], SandboxLimits(wall_clock_seconds=20), stdin_data=data)
    assert outcome.exit_status == 0
    assert outcome.stdout == data


def _read_net_namespace(outcome) -> str:
    assert outcome.exit_status == 0, outcome.stderr
    return outcome.stdout.decode().strip()


def test_network_isolated_reports_this_call(monkeypatch):
    from evoarchive import sandbox

    monkeypatch.setattr(sandbox, "network_isolation_available", lambda: False)
    outcome = sandbox_execute(["readlink", "/proc/self/ns/net"], SandboxLimits())
    assert _read_net_namespace(outcome) == os.readlink("/proc/self/ns/net")
    assert not outcome.network_isolated


def test_network_namespace_differs_when_isolated():
    from evoarchive.sandbox import network_isolation_available

    if not network_isolation_available():
        pytest.skip("unshare -n is not available here")
    outcome = sandbox_execute(["readlink", "/proc/self/ns/net"], SandboxLimits())
    assert _read_net_namespace(outcome) != os.readlink("/proc/self/ns/net")
    assert outcome.network_isolated


_PRINT_CPU_LIMITS = "import resource; print(*resource.getrlimit(resource.RLIMIT_CPU))"


def test_child_sees_soft_and_hard_cpu_limits():
    outcome = sandbox_execute(
        [sys.executable, "-c", _PRINT_CPU_LIMITS], SandboxLimits(cpu_seconds=7)
    )
    assert outcome.stdout.split() == [b"7", b"8"]


def test_grandchild_forked_first_inherits_cpu_limits():
    code = (
        "import os\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        f"    {_PRINT_CPU_LIMITS}\n"
        "    os._exit(0)\n"
        "os.waitpid(pid, 0)\n"
    )
    outcome = sandbox_execute([sys.executable, "-c", code], SandboxLimits(cpu_seconds=5))
    assert outcome.exit_status == 0
    assert outcome.stdout.split() == [b"5", b"6"]


@pytest.mark.parametrize(
    "script, status",
    [("exit 3", 3), ("kill -9 $$", -9), ("while :; do :; done", -24)],
)
def test_exit_status_passes_through(script, status):
    outcome = sandbox_execute(
        ["sh", "-c", script], SandboxLimits(wall_clock_seconds=30, cpu_seconds=1)
    )
    assert not outcome.timed_out
    assert outcome.exit_status == status


def test_non_executable_file_is_a_spawn_error(tmp_path):
    script = tmp_path / "script.sh"
    script.write_text("#!/bin/sh\necho hi\n")
    script.chmod(0o644)
    with pytest.raises(SandboxSpawnError):
        sandbox_execute([str(script)], SandboxLimits())


def test_missing_binary_on_path_is_a_spawn_error():
    with pytest.raises(SandboxSpawnError):
        sandbox_execute(["evoarchive-no-such-command"], SandboxLimits())


def test_concurrent_calls_from_threads():
    from concurrent.futures import ThreadPoolExecutor

    def worker(thread: int) -> list[tuple[int, bytes]]:
        results = []
        for call in range(25):
            outcome = sandbox_execute(
                ["echo", f"{thread}-{call}"], SandboxLimits(wall_clock_seconds=30)
            )
            results.append((outcome.exit_status, outcome.stdout))
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            per_thread = list(pool.map(worker, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for thread, results in enumerate(per_thread):
        assert results == [(0, f"{thread}-{call}\n".encode()) for call in range(25)]
