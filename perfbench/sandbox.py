"""Hermetic sandboxes: one fresh environment per repetition.

A sandbox is a new directory under the benchmark's work directory with
its own working directory, ``HOME``, ``TMPDIR`` and ``XDG_CACHE_HOME``,
and a fresh copy of ``src/`` byte-compiled in place.  Commands run with
every ``REPRO_*`` variable removed and ``PYTHONPATH`` pointing at the
copy, so no on-disk state a program version writes (beside its sources,
in the user's cache directories or in the temp directory) can carry warm
state from one repetition to the next.  Preparing a sandbox runs no
``repro`` code: it only copies and byte-compiles.
"""

from __future__ import annotations

import compileall
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    """How one command ended, with its host-resource usage."""

    returncode: int
    #: Host seconds from spawning the process to reaping it.
    wall_s: float
    #: User plus system seconds of the process and its reaped children.
    cpu_s: float
    #: Largest resident set of the process or any reaped child.
    peak_rss_mb: float
    timed_out: bool
    stdout: str
    stderr: str


class Sandbox:
    """A throwaway environment in which a command runs cold."""

    def __init__(self, work_root: str, src_dir: str) -> None:
        os.makedirs(work_root, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="rep-", dir=work_root)
        self.cwd = os.path.join(self.root, "cwd")
        home = os.path.join(self.root, "home")
        tmp = os.path.join(self.root, "tmp")
        xdg = os.path.join(self.root, "xdg-cache")
        for path in (self.cwd, home, tmp, xdg):
            os.mkdir(path)
        src = os.path.join(self.root, "src")
        shutil.copytree(src_dir, src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        #: False when a source file does not compile.
        self.compiled = bool(compileall.compile_dir(src, quiet=1))
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "PYTHON"))
        }
        self.env.update(HOME=home, TMPDIR=tmp, XDG_CACHE_HOME=xdg,
                        PYTHONPATH=src)

    def path(self, name: str) -> str:
        """A path inside the sandbox's working directory."""
        return os.path.join(self.cwd, name)

    def run(self, argv: "list[str]", timeout: float, label: str = "cmd") -> Outcome:
        """Run ``python3 *argv`` in the sandbox and wait for it.

        The command leads a new process group; on timeout the whole group
        is killed, and the call returns only once none of it is left.
        """
        out_path = os.path.join(self.root, f"{label}.out")
        err_path = os.path.join(self.root, f"{label}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.cwd, env=self.env,
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
            expired = threading.Event()

            def kill() -> None:
                expired.set()
                _kill_group(proc.pid)

            timer = threading.Timer(max(timeout, 0.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        # Workers the command left behind (it was killed, or it leaked
        # them) belong to its process group.
        _kill_group(proc.pid)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Outcome(
            returncode=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            timed_out=expired.is_set(),
            stdout=stdout,
            stderr=stderr,
        )

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "Sandbox":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _kill_group(pgid: int) -> None:
    """SIGKILL process group *pgid* and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
