"""Running the gluckknot CLI as a child process and accounting for it."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI = (sys.executable, "-m", "gluckknot.cli")
CHILD_ENV = {**os.environ, "PYTHONPATH": "src"}
INVOCATION = "PYTHONPATH=src " + " ".join(CLI)


# The speed probe: a fresh interpreter running a fixed pure-Python job that
# never touches gluckknot (small-int arithmetic, dict stores).
PROBE = (
    sys.executable,
    "-c",
    "d = {}\nx = 1\nfor i in range(20000):\n"
    "    x = (x * 1103515245 + 12345) & 0x7FFFFFFF\n    d[x & 4095] = i\n",
)
# About the probe's median wall time on the reference machine, a shared
# 2-core x86-64 VM running CPython 3.11 (0.057-0.069 s over runs there):
# the speed that corrected timings are scaled to.
PROBE_REF_S = 0.060


@dataclass
class Child:
    """One finished child process: a CLI call or a speed probe."""

    wall: float
    cpu: float
    rss_mb: float
    failed: bool
    stdout: str
    stderr: str
    # probe wall and CPU seconds around the call, set by the caller
    ref_wall: float = 0.0
    ref_cpu: float = 0.0


def run_child(args: tuple[str, ...], timeout: float) -> Child:
    """Run the CLI once; see spawn."""
    return spawn(CLI + args, timeout)


def probe() -> Child:
    """Run the speed probe once: a reading of the machine's current speed.

    On a shared host the CPU's speed drifts by up to 2x over seconds to
    minutes.  The probe is a child process like a CLI call, from interpreter
    start-up to exit, so it slows down with the CLI when the host is busy;
    a job timed inside this process instead swings more than the CLI does.
    """
    child = spawn(PROBE, 60.0)
    if child.failed:
        raise RuntimeError(f"speed probe failed: {child.stderr.strip()[-200:]!r}")
    return child


def spawn(argv: tuple[str, ...], timeout: float) -> Child:
    """Run a child process once.  Exit status, CPU time and max RSS come
    from os.wait4 on this child alone; a child that outlives `timeout` is
    killed.  A non-zero exit, a traceback or a timeout counts as a
    failure."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=CHILD_ENV,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    pidfd = os.pidfd_open(proc.pid)
    out, err = bytearray(), bytearray()
    exited = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            sel.register(pidfd, selectors.EVENT_READ, None)
            while not exited:
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    break
                for key, _ in sel.select(remaining):
                    if key.data is None:
                        exited = True
                        continue
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        key.data.extend(chunk)
                    else:
                        sel.unregister(key.fileobj)
        wall = time.perf_counter() - start
    finally:
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        os.close(pidfd)
    out += proc.stdout.read()
    err += proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    stderr = err.decode(errors="replace")
    return Child(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        failed=not exited or proc.returncode != 0 or "Traceback" in stderr,
        stdout=out.decode(errors="replace"),
        stderr=stderr,
    )
