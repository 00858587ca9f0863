from __future__ import annotations

import errno
import os
import sys
import time

import pytest

from evoarchive import sandbox
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
    assert not (outcome.timed_out or outcome.output_truncated)


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


def test_command_that_exits_without_reading_stdin_is_not_timed_out():
    limits = SandboxLimits(wall_clock_seconds=10.0)
    start = time.monotonic()
    outcome = sandbox_execute(["sh", "-c", "exit 3"], limits, stdin_data=b"x" * 300_000)
    assert outcome.exit_status == 3
    assert not outcome.timed_out
    assert time.monotonic() - start < limits.wall_clock_seconds / 2


@pytest.mark.parametrize("size", [65_536, 65_537])
def test_stdin_around_one_write_reaches_command_whole(size):
    # 65,536 bytes go in the write before the first poll; one more needs the loop
    outcome = sandbox_execute(["wc", "-c"], SandboxLimits(wall_clock_seconds=20),
                              stdin_data=b"y" * size)
    assert outcome.exit_status == 0
    assert int(outcome.stdout) == size


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

    monkeypatch.setattr(sandbox, "_spawner", lambda: None)
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


def _pidfd_available() -> bool:
    try:
        os.close(os.pidfd_open(os.getpid()))
    except (AttributeError, OSError):
        return False
    return True


def test_sequential_calls_never_sleep_waiting_for_an_exit(monkeypatch):
    # the exit is awaited on a pidfd in the poll loop, not polled between sleeps,
    # and the pidfd is closed with the call
    if not _pidfd_available():
        pytest.skip("no pidfd here (Linux before 5.3)")
    limits = SandboxLimits(wall_clock_seconds=10)
    sandbox_execute(["/bin/sh", "-c", "true"], limits)  # starts the spawner
    fds = sorted(os.listdir("/proc/self/fd"))
    slept = []
    real_sleep = time.sleep
    monkeypatch.setattr(time, "sleep", lambda seconds: (slept.append(seconds), real_sleep(seconds)))
    for call in range(50):
        outcome = sandbox_execute(["/bin/sh", "-c", f"echo {call}"], limits)
        assert (outcome.exit_status, outcome.stdout) == (0, f"{call}\n".encode())
    assert slept == []
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.fixture
def no_pidfd(monkeypatch):
    """`os.pidfd_open` as on a kernel without it; the calls it refused."""
    refused = []

    def enosys(pid):
        refused.append(pid)
        raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))

    monkeypatch.setattr(os, "pidfd_open", enosys, raising=False)
    return refused


@pytest.mark.parametrize(
    "script, status, stdout",
    [("echo out", 0, b"out\n"), ("exit 3", 3, b""), ("kill -9 $$", -9, b"")],
)
def test_without_a_pidfd_the_exit_is_polled(no_pidfd, script, status, stdout):
    outcome = sandbox_execute(["sh", "-c", script], SandboxLimits(wall_clock_seconds=30))
    assert no_pidfd
    assert not outcome.timed_out
    assert (outcome.exit_status, outcome.stdout) == (status, stdout)


def live_members(group: int) -> list[int]:
    """The pids in process group `group` that have not exited: a zombie, which
    only waits for its parent to reap it, is not one."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except OSError:  # exited while listed
            continue
        if int(pgrp) == group and state != "Z":
            found.append(int(entry))
    return found


@pytest.mark.parametrize("command", [
    [sys.executable, "-c", "import time; time.sleep(30)"],
    # its pipes end at once, so the exit is polled for until the deadline
    ["sh", "-c", "exec >&- 2>&-; sleep 30"],
], ids=["sleeps", "closes its pipes"])
def test_without_a_pidfd_a_timeout_still_kills(no_pidfd, monkeypatch, command):
    groups = []

    def spy_reap(proc):
        groups.append(proc.pid)  # the command's process group: `start_new_session`
        real_reap(proc)

    real_reap = sandbox._reap
    monkeypatch.setattr(sandbox, "_reap", spy_reap)
    limits = SandboxLimits(wall_clock_seconds=1.0)
    start = time.monotonic()
    outcome = sandbox_execute(command, limits)
    assert no_pidfd
    assert outcome.timed_out and outcome.exit_status is None
    assert time.monotonic() - start < limits.wall_clock_seconds + 1.0
    deadline = time.monotonic() + 5  # SIGKILL is sent; a killed `sleep 30` exits soon
    while live_members(groups[0]) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert live_members(groups[0]) == []


def test_non_executable_file_is_a_spawn_error(tmp_path):
    script = tmp_path / "script.sh"
    script.write_text("#!/bin/sh\necho hi\n")
    script.chmod(0o644)
    with pytest.raises(SandboxSpawnError):
        sandbox_execute([str(script)], SandboxLimits())


def test_missing_binary_on_path_is_a_spawn_error():
    with pytest.raises(SandboxSpawnError):
        sandbox_execute(["evoarchive-no-such-command"], SandboxLimits())


def test_relative_command_removed_after_a_call_is_a_spawn_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tool = tmp_path / "bin" / "tool"
    tool.parent.mkdir()
    tool.write_text("#!/bin/sh\necho found\n")
    tool.chmod(0o755)
    limits = SandboxLimits(wall_clock_seconds=10)
    assert sandbox_execute(["bin/tool"], limits).stdout == b"found\n"
    tool.unlink()
    with pytest.raises(SandboxSpawnError):
        sandbox_execute(["bin/tool"], limits)


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


def _require_isolation():
    from evoarchive.sandbox import network_isolation_available

    if not network_isolation_available():
        pytest.skip("no fresh network namespace can be entered here")


def _thread_namespace() -> str:
    return os.readlink("/proc/thread-self/ns/net")


class _PopenSpy:
    def __init__(self, monkeypatch, raises: Exception | None = None):
        from evoarchive import sandbox

        self.argvs: list[list[str]] = []
        real = sandbox.subprocess.Popen

        def spy(argv, *args, **kwargs):
            self.argvs.append(list(argv))
            if raises is not None:
                raise raises
            return real(argv, *args, **kwargs)

        monkeypatch.setattr(sandbox.subprocess, "Popen", spy)


def test_isolated_call_spawns_the_shell_prefix_and_returns_to_host(monkeypatch):
    _require_isolation()
    host = _thread_namespace()
    spy = _PopenSpy(monkeypatch)
    outcome = sandbox_execute(["readlink", "/proc/self/ns/net"], SandboxLimits())
    assert _read_net_namespace(outcome) != host
    assert outcome.network_isolated
    assert [argv[0] for argv in spy.argvs] == ["/bin/sh"]
    assert spy.argvs[0][-2:] == ["readlink", "/proc/self/ns/net"]
    assert _thread_namespace() == host


def test_failed_spawn_returns_to_host(monkeypatch):
    _require_isolation()
    host = _thread_namespace()
    _PopenSpy(monkeypatch, raises=OSError(errno.EAGAIN, "Resource temporarily unavailable"))
    with pytest.raises(SandboxSpawnError, match="Resource temporarily unavailable"):
        sandbox_execute(["true"], SandboxLimits())
    assert _thread_namespace() == host


def test_failed_namespace_entry_is_a_spawn_error_and_starts_nothing(monkeypatch):
    from evoarchive import sandbox

    _require_isolation()

    def no_namespace_left():
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(sandbox, "_enter_fresh_namespace", no_namespace_left)
    spy = _PopenSpy(monkeypatch)
    with pytest.raises(SandboxSpawnError, match=rf"Errno {errno.ENOSPC}\]"):
        sandbox_execute(["true"], SandboxLimits())
    assert spy.argvs == []


def test_concurrent_isolated_calls_get_their_own_namespaces():
    from concurrent.futures import ThreadPoolExecutor

    _require_isolation()
    host = os.readlink("/proc/self/ns/net")
    command = ["sh", "-c", "readlink /proc/self/ns/net; sleep 0.3"]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(sandbox_execute, command, SandboxLimits()) for _ in range(2)]
        seen = [_read_net_namespace(f.result(timeout=30)) for f in futures]
    assert len(set(seen)) == 2
    assert host not in seen


def _spawner_threads() -> set[int]:
    import threading

    return {t.native_id for t in threading.enumerate() if t.name.startswith("evoarchive-spawner")}


def _threads_off_host(host: str) -> set[int]:
    """Native ids of this process's threads outside the namespace `host`."""
    off = set()
    for tid in os.listdir("/proc/self/task"):
        try:
            if os.readlink(f"/proc/self/task/{tid}/ns/net") != host:
                off.add(int(tid))
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return off


def _assert_only_the_spawner_left_home(host: str) -> None:
    import threading

    assert _thread_namespace() == host
    seen = []
    other = threading.Thread(target=lambda: seen.append(_thread_namespace()))
    other.start()
    other.join()
    assert seen == [host]
    assert _threads_off_host(host) <= _spawner_threads()


def test_no_thread_but_the_spawner_leaves_the_host_namespace():
    from concurrent.futures import ThreadPoolExecutor

    _require_isolation()
    host = _thread_namespace()
    command = ["readlink", "/proc/self/ns/net"]

    def isolated_call(_) -> tuple[str, str]:
        outcome = sandbox_execute(command, SandboxLimits())
        assert outcome.network_isolated
        return _read_net_namespace(outcome), _thread_namespace()

    seen = [isolated_call(None)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        seen += list(pool.map(isolated_call, range(6), timeout=60))
    commands = [namespace for namespace, _ in seen]
    assert host not in commands and len(set(commands)) == len(commands)
    assert [caller for _, caller in seen] == [host] * len(seen)
    _assert_only_the_spawner_left_home(host)
    assert _threads_off_host(host)  # the spawner itself


def test_failed_entry_on_a_spawn_thread_starts_nothing(monkeypatch):
    from evoarchive import sandbox

    _require_isolation()
    host = _thread_namespace()
    before = _read_net_namespace(sandbox_execute(["readlink", "/proc/self/ns/net"],
                                                 SandboxLimits()))

    def no_namespace_left():
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patch:
        patch.setattr(sandbox, "_enter_fresh_namespace", no_namespace_left)
        spy = _PopenSpy(patch)
        with pytest.raises(SandboxSpawnError, match=rf"Errno {errno.ENOSPC}\]"):
            sandbox_execute(["true"], SandboxLimits())
        assert spy.argvs == []
    _assert_only_the_spawner_left_home(host)

    # the spawner serves the next call, from a fresh namespace again
    outcome = sandbox_execute(["readlink", "/proc/self/ns/net"], SandboxLimits())
    assert outcome.network_isolated
    assert _read_net_namespace(outcome) not in (host, before)
    _assert_only_the_spawner_left_home(host)


def test_failed_probe_leaves_no_thread_and_runs_unisolated(monkeypatch, caplog):
    from evoarchive import sandbox

    def refused():
        raise OSError(errno.EPERM, os.strerror(errno.EPERM))

    spawners = _spawner_threads()
    monkeypatch.setattr(sandbox, "_enter_fresh_namespace", refused)
    sandbox._forget_spawner()
    try:
        with caplog.at_level("WARNING", logger="evoarchive.sandbox"):
            outcomes = [sandbox_execute(["readlink", "/proc/self/ns/net"], SandboxLimits())
                        for _ in range(2)]
        assert [_read_net_namespace(o) for o in outcomes] == [_thread_namespace()] * 2
        assert not any(o.network_isolated for o in outcomes)
        assert not sandbox.network_isolation_available()
        assert [r.message for r in caplog.records] == [
            "network namespace isolation unavailable; commands run without it"
        ]
        assert _spawner_threads() <= spawners
    finally:
        sandbox._forget_spawner()


def test_forked_child_runs_an_isolated_command():
    import signal

    _require_isolation()
    assert sandbox_execute(["true"], SandboxLimits()).network_isolated
    pid = os.fork()
    if pid == 0:  # the child must never return into pytest
        status = 1
        try:
            signal.alarm(5)
            outcome = sandbox_execute(["true"], SandboxLimits(wall_clock_seconds=4))
            status = outcome.exit_status if outcome.network_isolated else 2
        finally:
            os._exit(status)
    _, wait_status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(wait_status) == 0
