"""Benchmark of the gluckknot CLI: time to verdict on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the CLI runs end to end,
one subprocess after another (a closed loop with one client), as

    PYTHONPATH=src python3 -m gluckknot.cli ARGS...

and every output is checked against the reference answers.  With --trace 1
the same inputs go through the public functions of each module in process,
with spans around each call (layers.py).  The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
is a report with the environment stamp and the details.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time

import reference
import workloads
from proc import INVOCATION, PROBE_REF_S, ROOT, Child, probe, run_child

INVOCATION_TIMEOUT = 60.0  # seconds for one CLI call
RUN_LIMIT = 150.0  # seconds from the start that no call may outlive


def corrected(samples: list[tuple[float, float]]) -> float:
    """A call's time at the reference speed: the median over the run of each
    measured time over the probe time around it, times PROBE_REF_S."""
    return statistics.median(t / ref for t, ref in samples) * PROBE_REF_S


class Clock:
    """The run's time budget: CLI calls get at most INVOCATION_TIMEOUT and
    never outlive RUN_LIMIT, so a hang cannot stall the run."""

    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        return max(0.0, min(INVOCATION_TIMEOUT, RUN_LIMIT - self.elapsed()))


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "cli": INVOCATION,
        "load": "closed loop, one client, one CLI process at a time",
    }


def untraced(invs: list[workloads.Invocation], seconds: float, clock: Clock):
    """Full passes over the invocations until `seconds` are used (at least
    one).  Each pass starts with `gluckknot --version` as a set-up sample
    (interpreter start, package import, parser build), so the set-up
    samples spread over the whole run as the passes do.

    A speed probe (proc.probe, a small fixed Python job in a child process)
    runs before the first call and after every call; a call's reference is
    the mean of the probes on either side of it.
    Each timing reported is corrected to the reference speed: the median
    over the run of the call's time over its reference, times PROBE_REF_S.
    On a shared host the machine's speed drifts by up to 2x for seconds to
    minutes at a time, and a whole run can fall in a slow spell; the ratio
    cancels most of that drift, since the probe slows down with the CLI.
    wall_s and cpu_s sum the corrected figure over the invocations of one
    pass.  The report keeps the raw figures as well."""
    run_child(("--version",), clock.timeout())  # warm-up: bytecode cache
    speed = probe()
    probes = [speed]

    def call(argv: tuple[str, ...]) -> Child:
        nonlocal speed
        child = run_child(argv, clock.timeout())
        after = probe()
        probes.append(after)
        child.ref_wall = (speed.wall + after.wall) / 2
        child.ref_cpu = (speed.cpu + after.cpu) / 2
        speed = after
        return child

    setup: list[Child] = []
    passes: list[list[Child]] = []
    verdicts: list[reference.Verdict] = []
    t0 = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - t0 + last <= seconds:
        p0 = time.perf_counter()
        setup.append(call(("--version",)))
        children = []
        for inv in invs:
            child = call(inv.argv)
            verdicts.append(reference.check(inv, child.stdout))
            # a child's ru_maxrss starts from this process's peak RSS, so
            # keep this process small: drop outputs once they are checked
            child.stdout = ""
            children.append(child)
        last = time.perf_counter() - p0
        passes.append(children)

    def column(i: int) -> list[Child]:
        return [p[i] for p in passes]

    walls = [corrected([(c.wall, c.ref_wall) for c in column(i)]) for i in range(len(invs))]
    cpus = [corrected([(c.cpu, c.ref_cpu) for c in column(i)]) for i in range(len(invs))]
    raw_walls = [statistics.median(c.wall for c in column(i)) for i in range(len(invs))]
    raw_cpus = [statistics.median(c.cpu for c in column(i)) for i in range(len(invs))]
    children = [c for p in passes for c in p]
    failed = sum(c.failed for c in children)
    setup_failed = sum(c.failed or not c.stdout.strip() for c in setup)
    cases = sum(v.cases for v in verdicts)
    wrong = sum(v.wrong for v in verdicts)
    metrics = {
        "setup_s": (corrected([(c.wall, c.ref_wall) for c in setup]), "s"),
        "wall_s": (sum(walls), "s"),
        "cpu_s": (sum(cpus), "s"),
        "peak_rss_mb": (statistics.median(max(c.rss_mb for c in p) for p in passes), "MB"),
        "decided_share": (sum(v.decided for v in verdicts) / cases, "share"),
    }
    probe_median = statistics.median(p.wall for p in probes)
    report = {
        "passes": len(passes),
        "setup_samples": len(setup),
        "raw_setup_s": statistics.median(c.wall for c in setup),
        "raw_wall_s": sum(raw_walls),
        "raw_cpu_s": sum(raw_cpus),
        "probe_s_median": probe_median,
        "probe_ref_s": PROBE_REF_S,
        "speed_vs_ref": PROBE_REF_S / probe_median,
        "wrong_outputs": wrong,
        "failed_share": failed / len(children),
        "invocations": [
            {
                "argv": [_short(a) for a in inv.argv],
                "wall_s": w,
                "cpu_s": c,
                "raw_wall_s": rw,
                "raw_cpu_s": rc,
                "raw_wall_s_min": min(ch.wall for ch in column(i)),
                "wall_s_samples": [ch.wall for ch in column(i)],
                "probe_s_samples": [ch.ref_wall for ch in column(i)],
            }
            for i, (inv, w, c, rw, rc) in enumerate(zip(invs, walls, cpus, raw_walls, raw_cpus))
        ],
        "problems": _problems(verdicts, children + setup),
    }
    ok = wrong == 0 and failed == 0 and setup_failed == 0
    return ok, len(children) + len(setup), failed + setup_failed, metrics, report


def _short(arg: str, limit: int = 40) -> str:
    return arg if len(arg) <= limit else arg[: limit - 3] + "..."


def _problems(verdicts, children, limit: int = 20) -> list[str]:
    out = [p for v in verdicts for p in v.problems]
    out += [f"failed call: {c.stderr.strip()[-200:]!r}" for c in children if c.failed]
    return out[:limit]


def _alarm(signum, frame):
    raise TimeoutError(f"traced run exceeded {RUN_LIMIT:.0f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gluckknot", "cli.py")):
        print(f"error: no gluckknot sources under {src}", file=sys.stderr)
        return 2
    env = environment()
    invs = workloads.build(args.workload, args.seed)
    if args.trace:
        sys.path.insert(0, src)
        import layers

        spans = os.path.join(ROOT, "bench", "out", f"spans-{args.workload}-{args.seed}.json")
        # calls in process cannot be killed one by one; bound the whole run
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(int(RUN_LIMIT))
        try:
            ok, attempted, failed, metrics, report = layers.traced(invs, args.seconds, spans)
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
    else:
        ok, attempted, failed, metrics, report = untraced(invs, args.seconds, Clock())
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    head = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    print(json.dumps({"report": {**head, "environment": env, **report}}))
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
