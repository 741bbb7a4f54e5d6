"""Self-test of the benchmark harness; run with

    python3 -m pytest bench/test_harness.py

Every workload runs at a tiny size, untraced and traced; the metric names
and units must match BENCHMARK.json; and the reference checker must catch
fabricated wrong outputs.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import reference
import run
import workloads
from proc import PROBE_REF_S, ROOT, run_child

sys.path.insert(0, os.path.join(ROOT, "src"))
import layers  # noqa: E402  (imports gluckknot from src)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

TINY = {
    "family-grid": [workloads.grid_invocation(-1, 2, 3)],
    "ladder": [
        inv
        for inv in workloads.build("ladder", 7)
        if inv.cases[0] in (workloads.AlexCase(3), workloads.AlexCase(5))
        or getattr(inv.cases[0], "name", None) in ("A4", "F4", "Z2")
    ],
}


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_tiny(workload):
    ok, attempted, failed, metrics, report = run.untraced(TINY[workload], 0, run.Clock())
    assert ok and failed == 0 and attempted >= 1, report["problems"]
    assert {k: u for k, (_, u) in metrics.items()} == units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert report["wrong_outputs"] == 0 and report["failed_share"] == 0
    assert report["raw_wall_s"] > 0 and report["speed_vs_ref"] > 0
    expected = 4 / 5 if workload == "ladder" else 1.0  # Z^2 has no verdict
    assert metrics["decided_share"][0] == pytest.approx(expected)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_tiny(workload, tmp_path):
    spans = tmp_path / "spans.json"
    ok, _, failed, metrics, report = layers.traced(TINY[workload], 0, str(spans))
    assert ok and failed == 0, report["problems"]
    assert {k: u for k, (_, u) in metrics.items()} == units("per_layer")
    assert metrics["cli.main_s"][0] > 0 and metrics["cli.import_s"][0] > 0
    assert set(report["layers"]) == set(units("per_layer"))
    assert json.loads(spans.read_text())["spans"]


def test_seeds_keep_sizes_and_answers():
    for workload in workloads.WORKLOADS:
        canonical = workloads.build(workload, 0)
        other = workloads.build(workload, 5)
        assert other == workloads.build(workload, 5)
        assert other != canonical
        assert [len(inv.cases) for inv in other] == [len(inv.cases) for inv in canonical]
        if workload != "family-grid":  # the grid's cases move with its window
            assert [inv.cases for inv in other] == [inv.cases for inv in canonical]
            assert [len(inv.argv[1]) for inv in other] == [
                len(inv.argv[1]) for inv in canonical
            ]


def test_corrected_cancels_machine_speed():
    # the same calls on a machine half as fast, where the probe is too
    fast = run.corrected([(1.0, 0.05), (1.2, 0.06), (0.9, 0.05)])
    slow = run.corrected([(2.0, 0.10), (2.4, 0.12), (1.8, 0.10)])
    assert fast == pytest.approx(slow)
    assert run.corrected([(0.5, PROBE_REF_S)]) == pytest.approx(0.5)


def test_poly_parser_and_units():
    assert reference.parse_poly("t^2-3t+1") == {2: 1, 1: -3, 0: 1}
    assert reference.parse_poly("-t^-1+2") == {-1: -1, 0: 2}
    # -t^2+3t-1 and t^3-3t^2+t are the same up to the unit -t
    assert reference.unit_class({2: -1, 1: 3, 0: -1}) == reference.unit_class(
        {3: 1, 2: -3, 1: 1}
    )
    assert reference.torus_delta(3) == (1, -1, 1)


def _alex_record(delta: str, n: int = 3, **extra) -> str:
    rec = {"command": "alex", "h1": "Z", "delta_principal": True, "e1_zero": False,
           "delta": delta, "weights": [1] * n, **extra}
    return json.dumps(rec)


def test_checker_catches_fabricated_outputs():
    inv = workloads.Invocation(("alex", "<...>", "--json"), (workloads.AlexCase(3),))
    assert reference.check(inv, _alex_record("t^2-t+1")).wrong == 0
    assert reference.check(inv, _alex_record("-t^3+t^2-t")).wrong == 0
    for bad in (
        _alex_record("t^2-3t+1"),
        _alex_record("t^2-t+1", h1="Z + Z/2"),
        _alex_record("t^2-t+1", delta_principal=False),
        "",
        "not json",
        _alex_record("t^2-t+1") + "\n" + _alex_record("t^2-t+1"),
    ):
        v = reference.check(inv, bad)
        assert v.wrong >= 1 and v.problems, bad


def test_checker_catches_wrong_family_and_enum_records():
    fam = workloads.grid_invocation(0, 0, 1)
    good = {"command": "family", "p": 0, "q": 0, "parity": "even-even",
            "delta": "t^2-3t+1", "delta_principal": True, "h1": "Z",
            "gluck_pi1": "trivial", "handle_counts": reference.HANDLE_COUNTS,
            "spun_obstruction": "possibly-one-knot"}
    assert reference.check(fam, json.dumps(good)).wrong == 0
    for key, value in (("parity", "odd-odd"), ("delta", "2-2t+t^2"),
                       ("gluck_pi1", "inconclusive"), ("spun_obstruction", "not-one-knot")):
        assert reference.check(fam, json.dumps({**good, key: value})).wrong == 1
    enum = workloads.enum_ladder(None)
    h4 = [inv for inv in enum if inv.cases[0].name == "H4"][0]
    rec = {"command": "enum", "finite": True, "order": 14400,
           "max_cosets": workloads.ENUM_MAX_COSETS}
    assert reference.check(h4, json.dumps(rec)).wrong == 0
    assert reference.check(h4, json.dumps({**rec, "order": 14401})).wrong == 1
    z2 = enum[-1]
    assert reference.check(z2, json.dumps({**rec, "finite": False, "order": None})).wrong == 0
    assert reference.check(z2, json.dumps({**rec, "finite": True, "order": 1})).wrong == 1


def test_failures_are_counted_not_raised():
    assert run_child(("alex", "<x,y | xz>"), 30).failed  # exit 1
    assert not run_child(("--version",), 30).failed
    z2 = workloads.enum_ladder(None)[-1]
    slow = run_child(z2.argv, 0.05)  # killed by the timeout
    assert slow.failed and slow.wall < 5
