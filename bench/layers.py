"""Traced run: the workload's inputs through the public functions of each
gluckknot module, in process, with a span around every call the benchmark
makes.

A span records its name, start and end (perf_counter_ns), the span that
caused it and the invocation it belongs to.  Spans stay in memory and are
written to bench/out/ when the run ends.  Counts are taken at the same call
sites.  Nothing inside gluckknot is instrumented.

Each cycle of the run replays every invocation twice in a row, once with
the tracer off and once with it on, and then calls cli.main on every
invocation (checking its output against the reference).  The tracing
overhead is the traced replays' wall time over the untraced ones', minus 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from functools import reduce

from gluckknot import cli
from gluckknot.coset import certify_trivial, enumerate_cosets
from gluckknot.fox import (
    alexander_matrix,
    alexander_polynomial,
    first_ideal_minors,
    solve_orientation_weights,
)
from gluckknot.intmatrix import IntMatrix, cokernel
from gluckknot.laurent import divides, laurent_gcd
from gluckknot.twoknot import classify, family_presentation, family_record
from gluckknot.words import Presentation

import reference
from proc import CHILD_ENV, ROOT
from workloads import ENUM_MAX_COSETS, AlexCase, EnumCase, FamilyCase, Invocation

FAMILY_MAX_COSETS = 10000  # the CLI's default --max-cosets
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import gluckknot.cli; "
    "print(time.perf_counter() - t)"
)

# name: (unit, end-to-end metrics it should move, workloads it is mostly on)
LAYER_METRICS = {
    "cli.import_s": ("s", "setup_s", "all"),
    "cli.main_s": ("s", "wall_s, cpu_s", "all"),
    "words.parse_s": ("s", "wall_s", "ladder"),
    "words.simplify_s": ("s", "wall_s", "family-grid"),
    "intmatrix.snf_s": ("s", "wall_s, cpu_s", "family-grid"),
    "fox.weights_s": ("s", "wall_s", "family-grid"),
    "fox.matrix_s": ("s", "wall_s", "ladder"),
    "fox.minors_s": ("s", "wall_s, cpu_s", "ladder"),
    "fox.minors": ("count", "wall_s, cpu_s", "ladder"),
    "fox.alexander_s": ("s", "wall_s, cpu_s", "ladder, family-grid"),
    "laurent.gcd_s": ("s", "wall_s", "ladder, family-grid"),
    "laurent.divides_s": ("s", "wall_s", "ladder, family-grid"),
    "coset.enum_s": ("s", "wall_s, cpu_s, peak_rss_mb", "ladder"),
    "coset.cosets": ("count", "wall_s, cpu_s, peak_rss_mb", "ladder"),
    "coset.exceeded_s": ("s", "wall_s, peak_rss_mb", "ladder"),
    "coset.certify_s": ("s", "wall_s", "family-grid"),
    "twoknot.record_s": ("s", "wall_s, cpu_s", "family-grid"),
    "twoknot.classify_s": ("s", "wall_s, cpu_s", "family-grid"),
    "twoknot.records": ("count", "wall_s, cpu_s", "family-grid"),
}


class Tracer:
    """Spans and counts of one replay; when disabled it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (name, start_ns, end_ns, parent span index or -1, invocation index)
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: Counter[str] = Counter()
        self.invocation = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.invocation)

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def seconds(self) -> Counter[str]:
        total: Counter[str] = Counter()
        for name, start, end, _, _ in self.spans:
            total[name] += (end - start) / 1e9
        return total


def _alexander(tr: Tracer, text: str) -> Presentation:
    with tr.span("words.parse_s"):
        pres = Presentation.parse(text)
    with tr.span("intmatrix.snf_s"):
        cokernel(IntMatrix(pres.exponent_matrix(), cols=pres.ngens))
    with tr.span("fox.weights_s"):
        weights = solve_orientation_weights(pres)
    with tr.span("fox.matrix_s"):
        alexander_matrix(pres, weights)
    with tr.span("fox.minors_s"):
        minors = first_ideal_minors(pres)
    tr.count("fox.minors", len(minors))
    nonzero = [m for m in minors if not m.is_zero()]
    with tr.span("laurent.gcd_s"):
        g = reduce(laurent_gcd, nonzero)
    with tr.span("laurent.divides_s"):
        [divides(g, m) for m in minors]
    with tr.span("fox.alexander_s"):
        alexander_polynomial(pres)
    return pres


def _family(tr: Tracer, case: FamilyCase) -> None:
    with tr.span("twoknot.record_s"):
        family_record(case.p, case.q, FAMILY_MAX_COSETS)
    tr.count("twoknot.records")
    with tr.span("twoknot.classify_s"):
        classify(case.p, case.q)
    pres = _alexander(tr, str(family_presentation(case.p, case.q)))
    with tr.span("words.simplify_s"):
        quotient = pres.kill_generator(pres.generators[0])
        quotient.simplify()
    with tr.span("coset.certify_s"):
        certify_trivial(quotient, FAMILY_MAX_COSETS)


def _enum(tr: Tracer, text: str, case: EnumCase) -> None:
    with tr.span("words.parse_s"):
        pres = Presentation.parse(text)
    with tr.span("coset.exceeded_s" if case.order is None else "coset.enum_s"):
        outcome = enumerate_cosets(pres, (), ENUM_MAX_COSETS)
    tr.count("coset.cosets", outcome.order or 0)


def replay(tr: Tracer, i: int, inv: Invocation) -> float:
    """The layer calls behind one invocation; returns their wall time."""
    start = time.perf_counter()
    tr.invocation = i
    with tr.span("invocation"):
        for case in inv.cases:
            if isinstance(case, FamilyCase):
                _family(tr, case)
            elif isinstance(case, AlexCase):
                _alexander(tr, inv.argv[1])
            else:
                _enum(tr, inv.argv[1], case)
    return time.perf_counter() - start


def cli_pass(tr: Tracer, invs: list[Invocation]) -> tuple[list[reference.Verdict], int]:
    """cli.main on every invocation in process, output checked; returns the
    verdicts and the number of calls that failed."""
    verdicts, failed = [], 0
    for i, inv in enumerate(invs):
        tr.invocation = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span("cli.main_s"):
                try:
                    code = cli.main(list(inv.argv))
                except Exception as exc:  # an escaped exception is a failure
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                    code = -1
        failed += code != 0
        verdicts.append(reference.check(inv, out.getvalue()))
    return verdicts, failed


def import_seconds() -> list[float]:
    """Time of `import gluckknot.cli` in fresh interpreters."""
    out = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        out.append(float(done.stdout))
    return out


def write_spans(tr: Tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent", "invocation"],
                "spans": tr.spans,
                "counts": tr.counts,
            },
            f,
        )


def traced(invs: list[Invocation], seconds: float, spans_path: str):
    """Cycles of (untraced and traced replays, traced cli.main pass) after
    one warm-up pass, until `seconds` are used (at least one cycle).  Layer
    times are summed over one replay and reported as the median over the
    cycles."""
    imports = import_seconds()
    cli_pass(Tracer(False), invs)  # warm-up
    cycles: list[tuple[float, float, Tracer]] = []
    verdicts: list[reference.Verdict] = []
    failed = 0
    t0 = time.perf_counter()
    last = 0.0
    while not cycles or time.perf_counter() - t0 + last <= seconds:
        c0 = time.perf_counter()
        tr = Tracer(True)
        bare = with_spans = 0.0
        for i, inv in enumerate(invs):
            bare += replay(Tracer(False), i, inv)
            with_spans += replay(tr, i, inv)
        v, f = cli_pass(tr, invs)
        verdicts += v
        failed += f
        cycles.append((bare, with_spans, tr))
        last = time.perf_counter() - c0
    write_spans(cycles[-1][2], spans_path)

    totals = [tr.seconds() for _, _, tr in cycles]
    metrics = {}
    for name, (unit, _, _) in LAYER_METRICS.items():
        if name == "cli.import_s":
            value = statistics.median(imports)
        elif unit == "count":
            value = statistics.median_low(tr.counts[name] for _, _, tr in cycles)
        else:
            value = float(statistics.median(t[name] for t in totals))
        metrics[name] = (value, unit)
    wrong = sum(v.wrong for v in verdicts)
    calls = len(cycles) * len(invs)
    report = {
        "cycles": len(cycles),
        "tracing_overhead": statistics.median(s / b - 1 for b, s, _ in cycles),
        "spans_per_cycle": len(cycles[-1][2].spans),
        "replay_s_untraced": statistics.median(b for b, _, _ in cycles),
        "replay_s_traced": statistics.median(s for _, s, _ in cycles),
        "wrong_outputs": wrong,
        "failed_share": failed / calls,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "layers": {
            name: {"unit": unit, "moves": moves, "mostly_on": on}
            for name, (unit, moves, on) in LAYER_METRICS.items()
        },
        "problems": [p for v in verdicts for p in v.problems][:20],
    }
    return wrong == 0 and failed == 0, calls, failed, metrics, report
