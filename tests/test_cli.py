import json

import pytest

from gluckknot.cli import main

EE = "<x,y | xyxYXyxyXY>"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlex:
    def test_even_even(self, capsys):
        code, out, _ = run(capsys, "alex", EE)
        assert code == 0
        assert "delta: t^2-3t+1" in out
        assert "principal: certified" in out
        assert "H1: Z" in out

    def test_trefoil(self, capsys):
        code, out, _ = run(capsys, "alex", "<x,y | xyxYXY>")
        assert code == 0
        assert "delta: t^2-t+1" in out

    def test_free_group_reports_delta_one(self, capsys):
        code, out, _ = run(capsys, "alex", "<x | >")
        assert code == 0
        assert "delta: 1\n" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "alex", EE, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == "t^2-3t+1"
        assert payload["delta_principal"] is True
        assert payload["weights"] == [1, -1]
        assert payload["seed"] == 0
        assert payload["tool_version"]

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "alex", "<x,y | xz>")
        assert code == 1
        assert "error" in err

    def test_rank_failure_exit_two(self, capsys):
        code, _, err = run(capsys, "alex", "<x,y | >")
        assert code == 2
        assert "rank" in err


class TestFamily:
    def test_single_record(self, capsys):
        code, out, _ = run(capsys, "family", "0", "0")
        assert code == 0
        assert "parity: even-even" in out
        assert "delta: t^2-3t+1" in out
        assert "gluck_pi1: trivial" in out

    def test_odd_even_record(self, capsys):
        code, out, _ = run(capsys, "family", "1", "0")
        assert code == 0
        assert "parity: odd-even" in out
        assert "spun_obstruction: not-one-knot" in out

    def test_grid_counts_and_classes(self, capsys):
        code, out, _ = run(capsys, "family", "--grid", "-2..2", "-2..2", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 25
        deltas = {r["delta"] for r in records}
        # mixed parities share one delta class but print two unit-normal forms
        assert len(deltas) == 4
        assert all(r["gluck_pi1"] == "trivial" for r in records)

    def test_grid_tsv(self, capsys):
        code, out, _ = run(capsys, "family", "--grid", "0..1", "0..1", "--tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("p\tq\tparity")

    def test_grid_row_major_order(self, capsys):
        _, out, _ = run(capsys, "family", "--grid", "0..1", "0..1", "--json")
        pairs = [(r["p"], r["q"]) for r in map(json.loads, out.splitlines())]
        assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "family", "1", "1", "--json")
        _, out2, _ = run(capsys, "family", "1", "1", "--json")
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "family", "--grid", "2..0", "0..1")
        assert code == 1

    def test_missing_args(self, capsys):
        code, _, _ = run(capsys, "family")
        assert code == 1


class TestGluck:
    def test_single_variant(self, capsys):
        code, out, _ = run(
            capsys, "gluck", EE, "--kill", "x", "--bands", "1", "1", "--variant", "single"
        )
        assert code == 0
        assert "pi1: trivial" in out
        assert "counts: (1,2,2,2,1) -> (1,1,2,1,1)" in out
        assert "chi: 0 -> 2" in out

    def test_double_variant(self, capsys):
        code, out, _ = run(
            capsys, "gluck", EE, "--kill", "x", "--bands", "1", "1", "--variant", "double"
        )
        assert code == 0
        assert "counts: (1,2,2,2,1) -> (1,0,2,2,1)" in out
        assert "chi: 0 -> 2" in out

    def test_unknown_generator(self, capsys):
        code, _, err = run(capsys, "gluck", EE, "--kill", "z")
        assert code == 2
        assert "unknown generator" in err

    def test_bad_variant(self, capsys):
        code, _, _ = run(capsys, "gluck", EE, "--kill", "x", "--variant", "triple")
        assert code == 1

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "gluck", EE, "--kill", "y", "--bands", "1", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pi1"] == "trivial"
        assert payload["quotient"] == "< x | x >"
        assert payload["handle_counts"]["chi"] == [0, 2]


class TestEnum:
    def test_cyclic(self, capsys):
        code, out, _ = run(capsys, "enum", "<x | x^3>")
        assert code == 0
        assert "order: 3" in out

    def test_family_triviality(self, capsys):
        code, out, _ = run(capsys, "enum", "<x,y | xyxYXyxyXY, x>")
        assert code == 0
        assert "order: 1" in out

    def test_exceeded(self, capsys):
        code, out, _ = run(capsys, "enum", "<x,y | xyXY>", "--max", "50")
        assert code == 0
        assert "exceeded: 50" in out

    def test_subgroup(self, capsys):
        code, out, _ = run(
            capsys, "enum", "<x,y | x^6, y^2, xyxy>", "--subgroup", "x"
        )
        assert code == 0
        assert "order: 2" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enum", "<x | x^3>", "--json")
        payload = json.loads(out)
        assert payload["finite"] is True and payload["order"] == 3


def test_usage_error_exit_one(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("enum", "<x | x^3>", "--max", "0"),
        ("enum", "<x | x^3>", "--max-cosets", "0"),
        ("enum", "<x | x^3>", "--max-cosets", "-5"),
        ("enum", "<x | x^3>", "--max", "ten"),
        ("gluck", EE, "--kill", "x", "--max-cosets", "0"),
        ("gluck", EE, "--kill", "x", "--max-cosets", "-1"),
        ("family", "0", "0", "--max-cosets", "0"),
        ("family", "--grid", "0..1", "0..1", "--max-cosets", "-3"),
    ],
)
def test_nonpositive_coset_bound_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err and ">= 1" in err
    assert "Traceback" not in err
