import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gluckknot import __version__, cli, cli_common, cli_family, jsonout, twoknot
from gluckknot.cli import MAX_GRID_RECORDS, _read, main
from gluckknot.cli_argparse import build_parser
from gluckknot.cli_common import UsageError
from gluckknot.coset import MAX_TABLE_ENTRIES, certify_trivial
from gluckknot.fox import alexander_polynomial
from gluckknot.intmatrix import IntMatrix, cokernel
from gluckknot.twoknot import (
    GluckVariant,
    ParityClass,
    family_knot,
    family_presentation,
    family_record,
    gluck_handle_counts,
    gluck_quotient,
    spun_obstruction,
)

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

    @pytest.mark.parametrize(
        "text,label",
        [
            # some minor is a unit multiple of Delta = 1; gcd-only before
            # the one-minor rule
            ("< a, b, c, d | d, DADbb, c, cdC >", "certified"),
            # H1 = Z + Z/2: the minors 2 and t - 1, neither a unit
            ("<x, y | yy, xyXY>", "gcd-only"),
        ],
    )
    def test_principal_label(self, capsys, text, label):
        code, out, _ = run(capsys, "alex", text)
        assert code == 0
        assert "delta: 1\n" in out and f"principal: {label}\n" in out
        code, out, _ = run(capsys, "alex", text, "--json")
        assert code == 0
        assert json.loads(out)["delta_principal"] is (label == "certified")

    def test_parse_error_exit_one(self, capsys):
        code, _, err = run(capsys, "alex", "<x,y | xz>")
        assert code == 1
        assert "error" in err

    def test_rank_failure_exit_two(self, capsys):
        code, _, err = run(capsys, "alex", "<x,y | >")
        assert code == 2
        assert "rank" in err

    @pytest.mark.parametrize(
        "text,delta,h1",
        [("<x,y | y>", "1", "Z"), ("<x,y | y^2>", "2", "Z + Z/2")],
    )
    def test_zero_weight_generator(self, capsys, text, delta, h1):
        # t^0 - 1 = 0 is the row-identity factor of a weight-0 generator
        code, out, _ = run(capsys, "alex", text)
        assert code == 0
        assert "weights: x:1 y:0\n" in out
        assert f"delta: {delta}\n" in out
        assert f"H1: {h1}\n" in out

    def test_huge_exponent_is_usage_error(self, capsys):
        code, out, err = run(capsys, "alex", "<x | x^99999999999>")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "longer than" in err


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

    def test_grid_records_match_per_pair_oracle(self, capsys):
        # the grid computes one record per parity class; every pair,
        # negative p and q included, must get its own invariants
        code, out, _ = run(capsys, "family", "--grid", "-2..3", "-2..3", "--json")
        assert code == 0
        pairs = [(p, q) for p in range(-2, 4) for q in range(-2, 4)]
        assert {ParityClass.of(p, q) for p, q in pairs} == set(ParityClass)
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == len(pairs)
        for record, (p, q) in zip(records, pairs):
            pres = family_presentation(p, q)
            alexander = alexander_polynomial(pres)
            cert = certify_trivial(gluck_quotient(family_knot(p, q), "x"), 10000)
            complement = family_knot(p, q).handle_counts()
            assert record == {
                "tool_version": __version__,
                "seed": 0,
                "command": "family",
                "p": p,
                "q": q,
                "parity": ParityClass.of(p, q).value,
                "relator": pres.word_str(pres.relators[0]),
                "delta": str(alexander.polynomial),
                "delta_principal": alexander.certified_principal,
                "h1": str(cokernel(IntMatrix(pres.exponent_matrix(), cols=2))),
                "gluck_pi1": cert.status,
                "handle_counts": {
                    "complement": list(complement.as_tuple()),
                    "gluck_single": list(
                        gluck_handle_counts(complement, GluckVariant.SINGLE).as_tuple()
                    ),
                    "gluck_double": list(
                        gluck_handle_counts(complement, GluckVariant.DOUBLE).as_tuple()
                    ),
                },
                "spun_obstruction": spun_obstruction(alexander.polynomial).value,
            }

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "family", "--grid", "2..0", "0..1")
        assert code == 1

    def test_grid_at_record_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_family, "MAX_GRID_RECORDS", 6)
        code, out, _ = run(capsys, "family", "--grid", "0..1", "-1..1", "--json")
        assert code == 0 and len(out.splitlines()) == 6
        code, out, err = run(capsys, "family", "--grid", "0..0", "-3..3", "--json")
        assert code == 1 and out == ""
        assert err == "error: grid of 7 records exceeds the limit of 6\n"

    @pytest.mark.parametrize(
        "grid",
        [
            (f"1..{MAX_GRID_RECORDS}", "0..1"),
            ("0..99999999999999999999", "-99999999999999999999..0"),
        ],
    )
    def test_grid_past_record_limit(self, capsys, grid):
        start = time.perf_counter()
        code, out, err = run(capsys, "family", "--grid", *grid)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert f"exceeds the limit of {MAX_GRID_RECORDS}" in err

    def test_missing_args(self, capsys):
        code, _, _ = run(capsys, "family")
        assert code == 1


def family_row(record):
    """Oracle: the per-record TSV renderer the CLI used before it rendered
    each parity class once."""
    flat = dict(record)
    hc = flat.pop("handle_counts")
    for key in ("complement", "gluck_single", "gluck_double"):
        flat[f"handle_counts_{key}"] = ",".join(str(h) for h in hc[key])
    return [str(flat[c]) for c in cli_family.FAMILY_COLUMNS]


def family_stdout(pairs, mode):
    """Oracle: the lines of `family` stdout, with every record computed and
    rendered on its own, one `family_record` and one JSON encoding or row
    per pair.  Compared line by line: a diff of two long strings takes
    pytest minutes."""
    records = [family_record(p, q) for p, q in pairs]
    if mode == "--json":
        reports = (cli_common.report("family", record) for record in records)
        return [json.dumps(r, sort_keys=True) + "\n" for r in reports]
    if mode == "--tsv" or len(records) > 1:
        rows = [cli_family.FAMILY_COLUMNS, *map(family_row, records)]
        return ["\t".join(row) + "\n" for row in rows]
    (record,) = records
    lines = [f"{key}: {record[key]}\n" for key in cli_family.FAMILY_COLUMNS[:9]]
    lines += [
        f"handle_counts.{key}: ({','.join(str(h) for h in counts)})\n"
        for key, counts in record["handle_counts"].items()
    ]
    return lines


BIG = 10**30


class TestFamilyStdoutOracle:
    """`family` renders each parity class once and splices p and q into
    it; stdout must match the per-record renderers byte for byte."""

    @pytest.mark.parametrize("mode", ["--json", "--tsv", None])
    @pytest.mark.parametrize(
        "p_range,q_range",
        [
            (range(0, 1), range(0, 1)),  # one parity class
            (range(0, 1), range(-3, 4)),  # two
            (range(-20, 21), range(-20, 21)),  # four
            (range(-35, 35), range(0, 70)),  # past one 4096-line write
            (range(BIG - 2, BIG + 2), range(-BIG - 1, -BIG + 2)),
        ],
    )
    def test_grid(self, capsys, mode, p_range, q_range):
        grid = [f"{r.start}..{r.stop - 1}" for r in (p_range, q_range)]
        flags = [mode] if mode else []
        code, out, err = run(capsys, "family", "--grid", *grid, *flags)
        pairs = [(p, q) for p in p_range for q in q_range]
        assert (code, err) == (0, "")
        assert out.splitlines(True) == family_stdout(pairs, mode)

    @pytest.mark.parametrize("mode", ["--json", "--tsv", None])
    @pytest.mark.parametrize("p,q", [(0, 0), (3, -4), (-BIG - 1, BIG)])
    def test_single_record(self, capsys, mode, p, q):
        flags = [mode] if mode else []
        code, out, err = run(capsys, "family", str(p), str(q), *flags)
        assert (code, err) == (0, "")
        assert out.splitlines(True) == family_stdout([(p, q)], mode)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(-(10**18), 10**18),
        st.integers(0, 5),
        st.integers(-(10**18), 10**18),
        st.integers(0, 5),
        st.sampled_from(["--json", "--tsv"]),
    )
    def test_random_windows(self, p0, p_len, q0, q_len, mode):
        p_range, q_range = range(p0, p0 + p_len + 1), range(q0, q0 + q_len + 1)
        grid = [f"{r.start}..{r.stop - 1}" for r in (p_range, q_range)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["family", "--grid", *grid, mode]) == 0
        pairs = [(p, q) for p in p_range for q in q_range]
        assert out.getvalue().splitlines(True) == family_stdout(pairs, mode)


class TestFamilyRendersEachParityClassOnce:
    GRID = ("family", "--grid", "-20..20", "-20..20")

    def test_json_encodes_once_per_class(self, capsys, monkeypatch):
        # dumps recurses through the module global, so only the calls on a
        # whole report count
        reports = []
        dumps = jsonout.dumps

        def counted(value):
            if isinstance(value, dict) and "tool_version" in value:
                reports.append(value)
            return dumps(value)

        monkeypatch.setattr(jsonout, "dumps", counted)
        code, out, _ = run(capsys, *self.GRID, "--json")
        assert code == 0 and out.count("\n") == 41 * 41
        assert 1 <= len(reports) <= 4

    def test_tsv_builds_one_row_tail_per_class(self, capsys, monkeypatch):
        # each row tail formats the record's three handle-count lists
        iterations = []

        class Counts(list):
            def __iter__(self):
                iterations.append(self)
                return super().__iter__()

        original = twoknot.family_record

        def counted(*args):
            record = original(*args)
            hc = record["handle_counts"]
            record["handle_counts"] = {k: Counts(v) for k, v in hc.items()}
            return record

        monkeypatch.setattr(twoknot, "family_record", counted)
        code, out, _ = run(capsys, *self.GRID, "--tsv")
        assert code == 0 and out.count("\n") == 41 * 41 + 1
        assert 1 <= len(iterations) <= 4 * 3

    @staticmethod
    def count_records(monkeypatch) -> list:
        """The (p, q) of every `family_record` call from here on."""
        calls = []
        original = twoknot.family_record

        def counted(p, q, *rest):
            calls.append((p, q))
            return original(p, q, *rest)

        monkeypatch.setattr(twoknot, "family_record", counted)
        return calls

    @pytest.mark.parametrize("mode", ["--json", "--tsv", None])
    def test_grid_makes_one_record_per_class(self, capsys, monkeypatch, mode):
        calls = self.count_records(monkeypatch)
        code, out, _ = run(capsys, *self.GRID, *([mode] if mode else []))
        header = mode != "--json"
        assert code == 0 and out.count("\n") == 41 * 41 + header
        assert 1 <= len(calls) <= 4

    @pytest.mark.parametrize("mode", ["--json", "--tsv", None])
    def test_single_pair_makes_one_record(self, capsys, monkeypatch, mode):
        calls = self.count_records(monkeypatch)
        code, _, _ = run(capsys, "family", "3", "-4", *([mode] if mode else []))
        assert code == 0 and calls == [(3, -4)]


class _LineCounter(io.TextIOBase):
    """A stdout that counts the lines written to it and keeps none."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


class TestFamilyStreams:
    @pytest.mark.parametrize(
        "mode,lines", [("--json", 200 * 200), ("--tsv", 200 * 200 + 1)]  # + header
    )
    def test_grid_memory_does_not_grow_with_the_grid(self, mode, lines):
        # a list of the 40000 records, as dicts sharing their values, passes 8 MB
        sink = _LineCounter()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["family", "--grid", "0..199", "0..199", mode])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, sink.lines) == (0, lines)
        assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "argv,read",
    [
        (("family", "--grid", "0..99", "0..999", "--tsv"), 1),
        (("family", "--grid", "0..99", "0..999", "--json"), 1),
        (("enum", "<x | x^3>"), 0),  # all of it still buffered when the pipe closes
        (("--version",), 0),
        (("-h",), 0),  # argparse prints the help, then exits
        (("enum", "--help"), 0),
    ],
    ids=["tsv", "json", "buffered", "version", "help", "enum-help"],
)
def test_closed_pipe_ends_quietly(argv, read):
    # `gluckknot family --grid ... | head -1`: exit 0, no traceback
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered, as in a plain shell
    proc = subprocess.Popen(
        [sys.executable, "-m", "gluckknot.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = [proc.stdout.readline() for _ in range(read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
    assert all(first)


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


# Coxeter groups by name: rank, the m_ij > 2 of the diagram, order
COXETER = {
    "A4": (4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}, 120),
    "A5": (5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3}, 720),
    "F4": (4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}, 1152),
    "A6": (6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}, 5040),
    "H4": (4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}, 14400),
}


def coxeter_text(rank, m):
    """The Coxeter presentation as `enum` reads it: s^2 for each generator,
    then (st)^m_st for each pair, m_st = 2 where the nodes are not joined."""
    gens = "abcdef"[:rank]
    rels = [g + g for g in gens]
    for i in range(rank):
        for j in range(i + 1, rank):
            rels.append((gens[i] + gens[j]) * m.get((i, j), 2))
    return f"< {', '.join(gens)} | {', '.join(rels)} >"


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

    def test_h4_closes_within_16000_cosets(self, capsys):
        # every Coxeter generator is an involution, with one table column:
        # HLT defines 15905 cosets for H4, where with two columns a generator
        # it defined 30876 and this line printed `exceeded: 16000`
        code, out, _ = run(capsys, "enum", coxeter_text(*COXETER["H4"][:2]), "--max", "16000")
        assert code == 0 and out.endswith("order: 14400\n")

    @pytest.mark.parametrize("name", COXETER)
    def test_coxeter_ladder_stays_decided(self, capsys, name):
        # the benchmark ladder's enum bound, at which each group was decided
        # with two columns a generator
        rank, m, order = COXETER[name]
        code, out, _ = run(capsys, "enum", coxeter_text(rank, m), "--max-cosets", "60000")
        assert code == 0 and out.endswith(f"order: {order}\n")

    @pytest.mark.parametrize(
        "flags,bound",
        [
            (("--max", "50", "--max-cosets", "70"), 70),
            (("--max-cosets", "70", "--max", "50"), 50),
        ],
    )
    def test_last_bound_flag_wins(self, capsys, flags, bound):
        code, out, _ = run(capsys, "enum", "<x,y | xyXY>", *flags)
        assert code == 0
        assert out.endswith(f"exceeded: {bound}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("family", "0", "0", "--max", "5"),
        ("gluck", EE, "--kill", "x", "--max", "5"),
        ("alex", EE, "--max", "5"),
    ],
)
def test_max_spelling_on_every_subcommand(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 0


def test_usage_error_exit_one(capsys):
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


# the exception classes of gluckknot that are not in cli.EXIT_CODES, and why
UNCLASSIFIED = {
    "FoxInternalError": "an AssertionError, so it exits 3",
    "_TableOverflow": "caught inside coset",
    "WordSyntaxError": "cli_common and cli_enum wrap it in a UsageError",
}


def test_every_error_class_has_an_exit_code():
    defined = {}
    for path in Path(cli.__file__).parent.glob("*.py"):
        name = "gluckknot" if path.stem == "__init__" else f"gluckknot.{path.stem}"
        module = import_module(name)
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, BaseException):
                if value.__module__ == module.__name__:
                    defined[value.__name__] = value
    assert defined.keys() - cli.EXIT_CODES.keys() <= UNCLASSIFIED.keys()
    assert cli.EXIT_CODES.keys() <= defined.keys() | {"AssertionError"}
    assert issubclass(defined["FoxInternalError"], AssertionError)


def test_unclassified_error_propagates(monkeypatch):
    def boom(p):
        raise ValueError("boom")

    monkeypatch.setattr("gluckknot.fox.alexander_polynomial", boom)
    with pytest.raises(ValueError, match="boom"):
        main(["alex", EE])


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


class TestCosetBudget:
    """One generator has two table columns per coset."""

    def test_enum_at_budget(self, capsys):
        bound = str(MAX_TABLE_ENTRIES // 2)
        code, out, _ = run(capsys, "enum", "<x | x>", "--max-cosets", bound)
        assert code == 0 and out.endswith("order: 1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("enum", "<x | x>"),
            ("enum", "<x | x>", "--subgroup", "x", "--json"),
            ("gluck", "<x, y | xyXY>", "--kill", "x"),
        ],
    )
    def test_past_budget_is_usage_error(self, capsys, argv):
        bound = str(MAX_TABLE_ENTRIES // 2 + 1)
        code, out, err = run(capsys, *argv, "--max-cosets", bound)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"{MAX_TABLE_ENTRIES} table entries" in err

    def test_family_quotients_need_no_table(self, capsys):
        # every K2(p,q) quotient simplifies to < | >
        code, _, _ = run(capsys, "family", "1", "2", "--max-cosets", str(10**15))
        assert code == 0

    def test_knot_group_exceeds_at_once(self, capsys):
        # H1 = Z proves the index infinite: no table at a bound that would
        # take seconds and hundreds of MB to overflow
        code, out, err = run(capsys, "enum", EE, "--max-cosets", "4000000")
        assert code == 0 and err == ""
        assert out == "input: < x, y | xyxYXyxyXY >\nexceeded: 4000000\n"
        code, out, _ = run(capsys, "enum", EE, "--max-cosets", "4000000", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["finite"] is False and payload["order"] is None

    def test_budget_checked_before_the_abelianization(self, capsys):
        # 5000000 cosets times 4 columns is past the budget, infinite or not
        code, out, err = run(capsys, "enum", "<x,y|xyXY>", "--max-cosets", "5000000")
        assert code == 1 and out == ""
        assert f"{MAX_TABLE_ENTRIES} table entries" in err



FUZZ_WORDS = (
    "alex family gluck enum --json --tsv --grid --kill --bands --variant single "
    "double --subgroup --max --max-cosets --version -h x y z 0 1 -1 2 -2..2"
).split()


def fuzz_presentation():
    """Presentation text on x, y, z with relators of arbitrary letters,
    carets, signs and digits."""

    def text(gens, relators):
        return f"<{', '.join(gens)} | {', '.join(relators)}>"

    return st.sampled_from(["x", "xy", "xyz"]).flatmap(
        lambda gens: st.builds(
            text,
            st.just(gens),
            st.lists(
                st.text(alphabet=gens + gens.upper() + "^-0123456789", max_size=12),
                max_size=3,
            ),
        )
    )


def fuzz_range():
    bound = st.integers(-30, 30) | st.integers()
    return st.builds(lambda a, b: f"{a}..{b}", bound, bound)


FUZZ_TOKEN = (
    st.sampled_from(FUZZ_WORDS)
    | fuzz_presentation()
    | st.text(alphabet="<>|,^-0123456789 xyzXYZab", max_size=30)
    | fuzz_range()
    | st.integers().map(str)
    | st.text(max_size=8)
)


def fuzz_command():
    """A well-formed command line of each subcommand, with fuzzed values."""
    pres = fuzz_presentation()
    flag = st.lists(st.sampled_from(["--json", "--tsv"]), max_size=1)
    number = st.integers(-50, 50).map(str)
    return st.one_of(
        st.tuples(st.just(["alex"]), pres.map(lambda t: [t]), flag),
        st.tuples(
            st.just(["enum"]),
            pres.map(lambda t: [t]),
            st.lists(st.text(alphabet="xyzXYZ,^-2", max_size=6), max_size=1).map(
                lambda ws: ["--subgroup", *ws] if ws else []
            ),
            flag,
        ),
        st.tuples(
            st.just(["gluck"]),
            pres.map(lambda t: [t]),
            st.sampled_from(["x", "y", "z"]).map(lambda g: ["--kill", g]),
            st.lists(number, min_size=2, max_size=2).map(lambda mn: ["--bands", *mn]),
            st.sampled_from(["single", "double"]).map(lambda v: ["--variant", v]),
            flag,
        ),
        st.tuples(st.just(["family"]), st.lists(number, min_size=2, max_size=2), flag),
        st.tuples(
            st.just(["family", "--grid"]),
            st.lists(fuzz_range(), min_size=2, max_size=2),
            flag,
        ),
    ).map(lambda parts: [arg for part in parts for arg in part])


# a well-formed line, one with junk after it, or junk alone
FUZZ_ARGV = st.one_of(
    fuzz_command(),
    st.builds(lambda a, b: a + b, fuzz_command(), st.lists(FUZZ_TOKEN, max_size=3)),
    st.lists(FUZZ_TOKEN, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(FUZZ_ARGV, st.integers(min_value=1, max_value=200))
def test_cli_fuzz(argv, bound):
    """Any argv ends in a documented exit code, 0-2, without a traceback and
    in bounded time; a small coset bound comes last, so it wins."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--max-cosets", str(bound)])
        except SystemExit as exc:  # --help and --version print and exit 0
            code = exc.code
    event(f"exit {code}")
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert time.perf_counter() - start < 10.0


def relator_presentation():
    """Presentation text on x, y, z whose relators are words of letters."""
    return st.sampled_from(["x", "xy", "xyz"]).flatmap(
        lambda gens: st.lists(
            st.text(alphabet=gens + gens.upper(), min_size=1, max_size=10), max_size=3
        ).map(lambda relators: f"<{', '.join(gens)} | {', '.join(relators)}>")
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(
        [["alex"], ["enum", "--max-cosets", "200"], ["gluck", "--kill", "x"]]
    ),
    relator_presentation(),
)
def test_json_report_is_what_json_writes(command, text):
    """A --json report is the text of json.dumps(its value, sort_keys=True):
    jsonout, the CLI's writer, against its oracle."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*command, text, "--json"])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == (code == 0)
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) == line


def parse_with_argparse(argv):
    """vars() of the namespace argparse makes of `argv`, or None for a line
    it refuses, or answers with help or the version."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except (UsageError, SystemExit):
        return None


# every option string of the CLI, spelled out in full
FULL_OPTIONS = {
    "--json",
    "--tsv",
    "--max-cosets",
    "--max",
    "--grid",
    "--kill",
    "--bands",
    "--variant",
    "--subgroup",
}


def check_reader(argv):
    """The reader of cli.py against argparse, both reading the GRAMMAR of the
    subcommand's handler module: a line the reader accepts must give
    argparse's namespace, subcommand included, and it may decline a line that
    argparse accepts only for a dash word that is neither a value (a lone
    dash, or a dash and a decimal digit) nor an option spelled out in full.
    So this checks the two parsing algorithms against each other, not two
    grammars: a wrong GRAMMAR entry misleads both alike, and must show in the
    goldens, the --help tests or the tests of the handlers.  Returns whether
    the reader accepted `argv`."""
    got = _read(list(argv))
    want = parse_with_argparse(list(argv))
    if got is not None:
        assert vars(got) == want
    elif want is not None:
        dash_words = [w for w in argv[1:] if w.startswith("-") and w != "-"]
        assert not all(w in FULL_OPTIONS or re.match(r"-\d", w) for w in dash_words)
    return got is not None


class TestReaderMatchesArgparse:
    """The reader's parsing algorithm against argparse's on one grammar, that
    of each handler module: value counts, negative numbers, repeated
    options, positional runs, required dests and every line it declines."""

    @settings(max_examples=400, deadline=None)
    @given(FUZZ_ARGV)
    def test_fuzz(self, argv):
        event(f"accepted {check_reader(argv)}")

    @pytest.mark.parametrize(
        "argv,accepted",
        [
            (["family", "1", "--json", "2"], False),  # argparse: unrecognized 2
            (["family", "--json", "1", "2"], True),
            (["family", "1", "2", "--json"], True),
            (["family", "1"], True),  # q is None; cli_family.run refuses it
            (["family"], True),
            (["family", "1", "2", "3"], False),
            (["family", "-3", "4"], True),
            (["family", "\u0663", "-\u0663"], True),  # Arabic-Indic 3 is a \d
            (["enum", "-\u00b2"], False),  # superscript 2 is not: an option string
            (["enum", "<x | x^3>", "--subgroup", "-\u00b2"], False),
            (["family", "--grid", "-2..2", "-2..2"], True),
            (["family", "--grid", "-2..2"], False),
            (["family", "--grid", "a", "b", "--tsv", "--json"], True),
            (["enum", "<x | x^3>", "--subgroup", ""], True),
            (["enum", "<x | x^3>", "--subgroup", "-x"], False),
            (["enum", "<x | x^3>", "--subgroup", "-"], True),
            (["enum", "-"], True),
            (["enum", "<x | x^3>", "extra"], False),
            (["enum", "--json"], False),  # no presentation
            (["enum", "<x | x^3>", "--max", "50", "--max-cosets", "70"], True),
            (["enum", "<x | x^3>", "--max", "ten"], False),
            (["enum", "<x | x^3>", "--max", "ten", "--max", "5"], False),
            (["enum", "<x | x^3>", "--max", "0"], False),
            (["enum", "<x | x^3>", "--max"], False),
            (["gluck", "<x, y | xyXY>", "--kill", "x", "--bands", "1", "-1"], True),
            (["gluck", "<x, y | xyXY>", "--kill", "x", "--kill", "y"], True),
            (["gluck", "<x, y | xyXY>", "--kill", "-"], True),
            (["gluck", "<x, y | xyXY>", "--kill", "x", "--bands", "1", "x"], False),
            (["gluck", "<x, y | xyXY>", "--kill", "x", "--variant", "double"], True),
            (["gluck", "<x, y | xyXY>", "--kill", "x", "--variant", "triple"], False),
            (["gluck", "<x, y | xyXY>"], False),  # --kill is required
            (["alex", "<x | >", "--max-cosets=5"], False),
            (["alex", "<x | >", "--js"], False),
            (["alex", "<x | >", "-h"], False),
            (["alex", "<x | >", "--"], False),
            (["--version"], False),  # main prints it before any parser
            (["nonsense"], False),
            ([], False),
        ],
    )
    def test_corner(self, argv, accepted):
        assert check_reader(argv) is accepted


@pytest.mark.parametrize(
    "name,spellings",
    [
        ("alex", []),
        ("enum", []),
        ("gluck", ["--kill GEN", "--bands M N", "{single,double}"]),
        ("family", ["--grid PRANGE QRANGE", "[p] [q]"]),
    ],
)
def test_help_shows_the_grammar(capsys, name, spellings):
    """Every option string and positional of the subcommand's GRAMMAR, and
    the metavars and choices argparse adds, appear in its --help.  Checked
    as substrings, since argparse lays help out differently across Python
    versions."""
    with pytest.raises(SystemExit):
        main([name, "--help"])
    out = capsys.readouterr().out
    options, positionals, _, _ = import_module(f"gluckknot.cli_{name}").GRAMMAR
    for text in [*options, *positionals]:
        assert re.search(rf"(?<![\w-]){re.escape(text)}(?![\w-])", out), text
    for text in spellings:
        assert text in out


@pytest.mark.parametrize(
    "subcommand", [(), ("alex",), ("family",), ("gluck",), ("enum",)]
)
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_zero_with_usage(capsys, subcommand, flag):
    # argparse prints help and exits; in a process the exit code is 0
    with pytest.raises(SystemExit) as exc:
        main([*subcommand, flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gluckknot")


@pytest.mark.parametrize(
    "spelling,full",
    [
        (["--max-c", "5"], ["--max-cosets", "5"]),
        (["--max-cosets=5"], ["--max-cosets", "5"]),
        (["--js"], ["--json"]),
    ],
)
def test_argparse_spelling_matches_the_full_one(capsys, spelling, full):
    # the reader declines an abbreviation or --opt=value; argparse takes it
    argv = ["enum", "<x, y | xyXY>", *spelling]
    assert _read(argv) is None
    assert run(capsys, *argv) == run(capsys, "enum", "<x, y | xyXY>", *full)


def test_version_in_process(capsys):
    assert run(capsys, "--version") == (0, f"{__version__}\n", "")
