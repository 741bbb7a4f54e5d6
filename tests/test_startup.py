"""Start-up cost of the CLI: the gluckknot modules each subcommand loads,
the source they compile, and the lazy package namespace that keeps the rest
unloaded."""

import ast
import functools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gluckknot

SRC = Path(gluckknot.__file__).resolve().parent.parent


# `python -m gluckknot.cli ARGV`, which then prints every name in sys.modules
# to stderr: `-X importtime` would miss a module loaded through
# importlib.import_module, as the lazy package names are
RUN_CLI = """\
import runpy, sys
try:
    runpy.run_module("gluckknot.cli", run_name="__main__", alter_sys=True)
finally:
    print("modules:", *sys.modules, file=sys.stderr)
"""


@functools.cache  # one interpreter per distinct line and code in a session
def run_cli(*argv, code=0):
    """The modules loaded at the exit of `python -m gluckknot.cli ARGV` (the
    CLI module itself runs as __main__), its stdout and the rest of its
    stderr; the call must exit with `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    *rest, last = proc.stderr.splitlines(True)
    assert last.startswith("modules: "), proc.stderr
    return frozenset(last.split()[1:]), proc.stdout, "".join(rest)


def imported_modules(*argv, code=0):
    return run_cli(*argv, code=code)[0]


def loaded_modules(*argv, code=0):
    """The gluckknot modules among `imported_modules(*argv, code=code)`."""
    names = imported_modules(*argv, code=code)
    return {n for n in names if n.split(".")[0] == "gluckknot"}


# every call loads cli_common, which the front shares with the subcommand
# handlers and the argparse fallback, and each subcommand its own handler
FRONT_MODULES = {"gluckknot", "gluckknot.cli_common"}

# coset runs the rank check of echelon before any table
TABLE_MODULES = {"gluckknot.words", "gluckknot.echelon", "gluckknot.coset"}
ENUM_MODULES = FRONT_MODULES | TABLE_MODULES | {"gluckknot.cli_enum"}

# H1 from the Smith form of intmatrix, Delta from the one elimination of fox;
# neither the row-subset path (minors), the ZF calculus (groupring) nor the
# fraction-free elimination (echelon), which only minors and coset run
ALEX_LIBRARY = {
    "gluckknot.words",
    "gluckknot.intmatrix",
    "gluckknot.laurent",
    "gluckknot.fox",
}
ALEX_MODULES = FRONT_MODULES | ALEX_LIBRARY | {"gluckknot.cli_alex"}

# every family quotient simplifies to < | >, certified in words without coset
FAMILY_MODULES = (
    FRONT_MODULES | ALEX_LIBRARY | {"gluckknot.twoknot", "gluckknot.cli_family"}
)

# a gluck quotient that simplifies to < | > needs no table, so no coset
GLUCK_MODULES = FRONT_MODULES | {"gluckknot.cli_gluck"}
TRIVIAL_GLUCK_MODULES = GLUCK_MODULES | {"gluckknot.words"}

JSON_MODULES = {"gluckknot.jsonout"}

# the ladder's calls of the benchmark, as it makes them at seed 0: alex on the
# Wirtinger presentation of T(2,3), enum on the Coxeter group A4
WIRTINGER_T23 = ("alex", "< a, b, c | baBC, cbCA, acAB >", "--json")
COXETER_A4 = (
    "enum",
    "< a, b, c, d | aa, bb, cc, dd, ababab, acac, adad, bcbcbc, bdbd, cdcdcd >",
    "--max-cosets",
    "60000",
    "--json",
)

WELL_FORMED = [
    (("--version",), FRONT_MODULES),
    (("enum", "<x | x^3>"), ENUM_MODULES),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), TRIVIAL_GLUCK_MODULES),
    (("alex", "<x, y | xyxYXY>"), ALEX_MODULES),
    (("family", "1", "2"), FAMILY_MODULES),
    (("family", "1", "2", "--tsv"), FAMILY_MODULES),
    (("family", "--grid", "0..1", "0..1"), FAMILY_MODULES),
    (("family", "--grid", "0..1", "0..1", "--json"), FAMILY_MODULES | JSON_MODULES),
    # the quotient < y | > keeps a generator, so certify_trivial builds a table
    (("gluck", "<x, y | xyXY>", "--kill", "x"), GLUCK_MODULES | TABLE_MODULES),
    (WIRTINGER_T23, ALEX_MODULES | JSON_MODULES),
    (COXETER_A4, ENUM_MODULES | JSON_MODULES),
    (
        ("gluck", "<x, y | xyxYXY>", "--kill", "x", "--json"),
        TRIVIAL_GLUCK_MODULES | JSON_MODULES,
    ),
]


@pytest.mark.parametrize("argv,modules", WELL_FORMED)
def test_subcommand_loads_only_what_it_runs(argv, modules):
    assert loaded_modules(*argv) == modules


# `main` finds the exit code of an error by its class name, so refusing a
# line loads no module beyond those that ran until the error
ERROR_LINES = [
    (("enum", "<x | x>", "--max-cosets", "8388609"), 1, ENUM_MODULES),
    (("gluck", "<x, y | xyxYXyxyXY>", "--kill", "z"), 2, TRIVIAL_GLUCK_MODULES),
    (("alex", "<x,y | >"), 2, ALEX_MODULES),
]


@pytest.mark.parametrize("argv,code,modules", ERROR_LINES)
def test_error_line_loads_only_what_it_runs(argv, code, modules):
    assert loaded_modules(*argv, code=code) == modules


@pytest.mark.parametrize("argv", [argv for argv, _ in WELL_FORMED])
def test_well_formed_line_never_imports_argparse(argv):
    # the reader of cli.py parses it: importing argparse (which loads gettext
    # and locale) and building its parsers took some 4 ms a call
    names = imported_modules(*argv)
    assert not {"argparse", "gettext", "locale", "gluckknot.cli_argparse"} & names


@pytest.mark.parametrize("argv", [argv for argv, _ in WELL_FORMED])
def test_well_formed_line_never_imports_json(argv):
    # jsonout writes a --json report: importing json (json.decoder, json.scanner
    # and json.encoder, six patterns compiled) took some 1.5 ms a call
    names = imported_modules(*argv)
    assert not {"json", "json.decoder", "json.encoder", "json.scanner"} & names


def test_declined_line_loads_the_argparse_fallback():
    argv = ["enum", "<x | x^3>", "--max", "ten"]
    names, stdout, stderr = run_cli(*argv, code=1)
    assert {"argparse", "gluckknot.cli_argparse"} <= names
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    case = next(case for case in golden if case["argv"] == argv)
    assert (stdout, stderr) == (case["stdout"], case["stderr"])


def ast_nodes(module):
    name = module.partition(".")[2] or "__init__"
    path = SRC / "gluckknot" / f"{name}.py"
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


def compiled_nodes(argv):
    """The AST nodes of each gluckknot module that `argv` compiles."""
    modules = loaded_modules(*argv) | {"gluckknot.cli"}
    return {module: ast_nodes(module) for module in sorted(modules)}


# With no bytecode cache (PYTHONDONTWRITEBYTECODE=1) every call compiles
# cli.py and each module it loads from source, at 1-2 us per AST node
# (in-process compile(), best of 40, 2 cores): 0.45 ms for echelon, 2.6-2.9 ms
# for words, coset or laurent.  Cold code dragged onto a main path shows here.
# Each group of caps below was the tightest when it was added; the earlier
# groups stay as cases.  `python tests/test_startup.py` prints the room.
COMPILE_CAPS = [
    (("enum", "<x | x^3>"), 7000),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 7000),
    (("alex", "<x, y | xyxYXY>"), 10800),
    (("family", "--grid", "0..1", "0..1", "--json"), 14600),
    # the caps since alex and family stopped compiling echelon, and family
    # coset; the two above are the caps from before, kept as cases
    (("alex", "<x, y | xyxYXY>"), 10400),
    (("family", "--grid", "0..1", "0..1", "--json"), 12200),
    # the caps since intmatrix lost bareiss and kernel_basis, coset the row
    # layout of _replay, minors its second loop, and gluck stopped loading
    # coset for a quotient that simplifies to < | >; those above are kept
    (("enum", "<x | x^3>"), 6800),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 4400),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 6800),
    (("alex", "<x, y | xyxYXY>"), 10250),
    (("family", "--grid", "0..1", "0..1", "--json"), 11950),
    # the caps since a well-formed line is read without argparse and each
    # subcommand compiles only its own handler module, cli_<name>
    (("enum", "<x | x^3>"), 6000),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 3700),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 6100),
    (("alex", "<x, y | xyxYXY>"), 9350),
    (("family", "--grid", "0..1", "0..1", "--json"), 11550),
    # the caps since each handler module states its own grammar, which
    # cli.py no longer holds, and the first on `--version`, the path that
    # the benchmark's setup_s times: cli, cli_common and the package
    (("--version",), 1150),
    (("enum", "<x | x^3>"), 5900),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 3500),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 6050),
    (("alex", "<x, y | xyxYXY>"), 9125),
    (("family", "--grid", "0..1", "0..1", "--json"), 11325),
    # the caps since the Smith form runs as one elimination on the work
    # matrix [[A, I], [I, 0]] and IntMatrix lost its unused copy()
    (("alex", "<x, y | xyxYXY>"), 8850),
    (("family", "--grid", "0..1", "0..1", "--json"), 11050),
    # the caps since intmatrix lost determinant and primitive_vector, and
    # LaurentPolynomial.parse reads its text with one term pattern
    (("alex", "<x, y | xyxYXY>"), 8540),
    (("family", "--grid", "0..1", "0..1", "--json"), 10725),
    # the first cap on the row-subset path of alex (H1 = Z + Z/2), which
    # also loads minors and echelon, since minors has one pipeline
    (("alex", "<x,y | y^2>"), 10425),
    # the caps since intmatrix lost the matrix products and laurent the
    # shift and exponent bounds, which only the tests used, and the first
    # on the ladder's --json lines of alex and enum, which compile
    # gluckknot.jsonout, the writer of every --json report
    (("alex", "<x, y | xyxYXY>"), 8275),
    (("alex", "<x,y | y^2>"), 10175),
    (WIRTINGER_T23, 8525),
    (COXETER_A4, 6175),
    # the caps since laurent runs exact division as the exact run of its
    # one long-division loop, and coset maps a word to its columns once
    (("enum", "<x | x^3>"), 5825),
    (COXETER_A4, 6100),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 5975),
    (("alex", "<x, y | xyxYXY>"), 8150),
    (("alex", "<x,y | y^2>"), 10050),
    (WIRTINGER_T23, 8400),
    (("family", "--grid", "0..1", "0..1", "--json"), 10600),
    # the caps since main decides every exit code from one table of error
    # class names, and the handlers no longer re-wrap library errors
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 3450),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 5925),
    (("alex", "<x, y | xyxYXY>"), 8125),
    (WIRTINGER_T23, 8375),
    # the caps since coset gives each involution one column, paid for by
    # path halving in CosetTable.rep, one name for the bound-word type, the
    # package's export table as strings, and shorter kill_generator and
    # word_to_str
    (("--version",), 1090),
    (("enum", "<x | x^3>"), 5800),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 3350),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 5905),
    (("alex", "<x, y | xyxYXY>"), 8010),
    (("alex", "<x,y | y^2>"), 9910),
    (WIRTINGER_T23, 8280),
    (COXETER_A4, 6065),
    (("family", "--grid", "0..1", "0..1", "--json"), 10485),
    # the caps since coset replays the HLT column lists in place and only
    # enumerate_cosets renumbers, and TableBudgetError moved from words to
    # coset, the module that raises it
    (("enum", "<x | x^3>"), 5740),
    (COXETER_A4, 6005),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 5845),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 3345),
    (("alex", "<x, y | xyxYXY>"), 8005),
    (("family", "--grid", "0..1", "0..1", "--json"), 10480),
    # the caps since CosetTable.define makes every coset, in place of grow
    # and two inline copies, and twoknot keys its relators by parity once
    # and hands each HandleCounts, a tuple, straight to list()
    (("enum", "<x | x^3>"), 5720),
    (COXETER_A4, 5985),
    (("gluck", "<x, y | xyXY>", "--kill", "x"), 5820),
    (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 3340),
    (("family", "--grid", "0..1", "0..1", "--json"), 10450),
]


@pytest.mark.parametrize("argv,budget", COMPILE_CAPS)
def test_subcommand_compiles_within_budget(argv, budget):
    nodes = compiled_nodes(argv)
    # the message names each module's count, so a cap that breaks shows
    # which module grew
    counts = ", ".join(f"{module} {n}" for module, n in nodes.items())
    assert sum(nodes.values()) <= budget, counts


def test_torsion_takes_the_row_subset_path():
    # H1 = Z + Z/2: Delta is the gcd of the minors, from the minors module
    argv = ["alex", "<x,y | y^2>"]
    names, stdout, _ = run_cli(*argv)
    assert "gluckknot.minors" in names and "gluckknot.groupring" not in names
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    assert stdout == next(case["stdout"] for case in golden if case["argv"] == argv)


@pytest.mark.parametrize(
    "argv",
    [("enum", "<x | x^3>"), ("alex", "<x, y | xyxYXY>"), ("family", "1", "2")],
)
def test_subcommand_never_imports_dataclasses(argv):
    # the result records are NamedTuples: dataclasses would also pull in
    # inspect, ast and dis, some 10 ms a call
    names = imported_modules(*argv)
    assert "gluckknot.coset" in names or "gluckknot.fox" in names
    assert "dataclasses" not in names


def test_every_public_name_resolves():
    listed = set(dir(gluckknot))
    for name in gluckknot.__all__:
        value = getattr(gluckknot, name)
        assert value.__module__ == "gluckknot." + gluckknot._MODULE_OF[name], name
        assert name in listed


def test_groupring_name_loads_no_fox():
    # `-X importtime` misses importlib.import_module, so read sys.modules
    code = "import sys, gluckknot; gluckknot.fox_derivative; print(*sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    loaded = {n for n in proc.stdout.split() if n.startswith("gluckknot")}
    assert loaded == {
        "gluckknot",
        "gluckknot.groupring",
        "gluckknot.laurent",
        "gluckknot.words",
    }


def test_star_import_and_unknown_name():
    namespace = {}
    exec("from gluckknot import *", namespace)
    assert set(gluckknot.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        gluckknot.no_such_name


if __name__ == "__main__":
    # per distinct line of COMPILE_CAPS: the nodes it compiles, its tightest
    # cap and the room left under that cap, then the nodes of each module it
    # compiles, so a builder sees which module a path's room goes to
    caps = {}
    for argv, budget in COMPILE_CAPS:
        caps[argv] = min(budget, caps.get(argv, budget))
    print("nodes\tcap\troom\tline")
    for argv, cap in caps.items():
        nodes = compiled_nodes(argv)
        total = sum(nodes.values())
        print(f"{total}\t{cap}\t{cap - total}\t{shlex.join(argv)}")
        for module, n in nodes.items():
            print(f"{n}\t\t\t  {module}")
