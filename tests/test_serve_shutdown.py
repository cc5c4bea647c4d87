"""``repro serve`` leaves no process behind when it is terminated.

Starts a real server with a two-worker process pool, makes it start
its workers with one tiny run, and sends it SIGTERM (what
``Popen.terminate`` and most process supervisors send).  Every child
process the server had must be gone afterwards: SIGTERM is handled
like Ctrl-C, and the service's ``close`` waits for its workers.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

from repro.serve import submit

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUN_REQUEST = {"op": "run", "app": "lu", "variant": "cp_parity",
               "nodes": 4, "scale": 0.05, "interval_us": 50}

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="reads child processes from /proc")


def _stat_fields(pid: int):
    """``(state, ppid)`` of a process from ``/proc/<pid>/stat``, or
    None when it does not exist."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    fields = stat[stat.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def children_of(parent: int):
    """PIDs whose parent is ``parent``."""
    pids = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None and fields[1] == parent:
                pids.append(int(name))
    return pids


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie (an exited
    process its new parent has not reaped yet)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def test_sigterm_leaves_no_worker_behind(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--cache-dir", str(tmp_path / "cache")],
        cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        banner = server.stdout.readline()
        assert "serving on" in banner, banner + server.stderr.read()
        port = int(banner.split()[2].rsplit(":", 1)[1])
        events = list(submit(RUN_REQUEST, port=port, timeout=120))
        assert events[-1]["name"] == "svc.done", events[-1]
        children = children_of(server.pid)
        assert children, "the run should have started the worker pool"
        server.terminate()
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
        server.stderr.close()
    deadline = time.monotonic() + 10
    while any(alive(pid) for pid in children) \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    assert [pid for pid in children if alive(pid)] == []
