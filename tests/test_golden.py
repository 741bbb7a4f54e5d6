"""Byte-exact stdout and exit code of `alex` on fixed inputs.

`alex_golden.json` holds one record per call: `argv` (after the program
name), `exit` and `stdout`.  The inputs are the Wirtinger T(2,3..11) texts
of the benchmark ladder (seed 0), the four K2(p,q) parity-class
presentations (the relators of `test_fox.GOLDEN`), `<x, y | yy, xyXY>` and
`<x, y | x^2 y^-3>`, each in text and `--json` form.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from gluckknot import cli

GOLDEN = json.loads((Path(__file__).parent / "alex_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_alex_stdout_is_byte_identical(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(case["argv"])
    assert (code, out.getvalue()) == (case["exit"], case["stdout"])
