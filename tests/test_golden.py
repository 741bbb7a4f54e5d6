"""Byte-exact output and exit code of the CLI on fixed inputs.

Each golden file holds one record per call: `argv` (after the program
name), `exit`, `stdout` and, where recorded, `stderr`.

`alex_golden.json` holds the Wirtinger T(2,3..11) texts of the benchmark
ladder (seed 0), the four K2(p,q) parity-class presentations (the relators
of `test_fox.GOLDEN`), `<x, y | yy, xyXY>` and `<x, y | x^2 y^-3>`, and
`< x, y, z | XXYX, XYxyyXY >`, whose one-minor check certifies Delta, beside
the same with 70 more copies of XXYX, whose 2556 row subsets put that check
past its bound so Delta is printed gcd-only, each in text and `--json` form.

`cli_golden.json` covers every subcommand: `gluck` with both meridians,
bands, a non-trivial finite and an infinite quotient and its refusals;
`enum` finite, exceeded, with subgroups and refused; `family` single
records and grids in text, `--tsv` and `--json`, and every usage error;
`alex` and parse errors.  Each call is in text and `--json` form where both
apply.  The stderr of argparse's invalid-choice errors, which Python
versions word differently, is not recorded.

The last cases pin argparse's wording of the errors that a wrong entry in a
subcommand's GRAMMAR would change: an invalid int value for `family`'s `p`
and for `gluck --bands`, `family --grid` with one value, `enum --subgroup`
with none, an unrecognized argument after `alex`'s presentation, and `alex`
with no presentation.  After them come the three refusals of
`Presentation.parse`: no `< >` (`alex`), no `|` (`enum`) and a generator
that is not one lowercase letter (`gluck`).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gluckknot import cli

HERE = Path(__file__).parent
GOLDEN = [
    case
    for name in ("alex_golden.json", "cli_golden.json")
    for case in json.loads((HERE / name).read_text())
]


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_alex_stdout_is_byte_identical(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case["argv"])
    assert (code, out.getvalue()) == (case["exit"], case["stdout"])
    if "stderr" in case:
        assert err.getvalue() == case["stderr"]
