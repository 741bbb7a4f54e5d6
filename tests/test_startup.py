"""Start-up cost of the CLI: the gluckknot modules each subcommand loads,
the source they compile, and the lazy package namespace that keeps the rest
unloaded."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gluckknot

SRC = Path(gluckknot.__file__).resolve().parent.parent


def run_cli(*argv):
    """The modules that `python -m gluckknot.cli ARGV` imports, as
    `-X importtime` reports them (the CLI module itself runs as __main__),
    and its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gluckknot.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return names, proc.stdout


def imported_modules(*argv):
    return run_cli(*argv)[0]


def loaded_modules(*argv):
    """The gluckknot modules and `json` among `imported_modules(*argv)`."""
    names = imported_modules(*argv)
    return {n for n in names if n == "json" or n.split(".")[0] == "gluckknot"}


# coset runs the rank check of echelon before any table
ENUM_MODULES = {
    "gluckknot",
    "gluckknot.words",
    "gluckknot.echelon",
    "gluckknot.coset",
}

# H1 from the Smith form of intmatrix, Delta from the one elimination of fox;
# neither the row-subset path (minors) nor the ZF calculus (groupring)
ALEX_MODULES = {
    "gluckknot",
    "gluckknot.words",
    "gluckknot.echelon",
    "gluckknot.intmatrix",
    "gluckknot.laurent",
    "gluckknot.fox",
}

FAMILY_MODULES = ENUM_MODULES | ALEX_MODULES | {"gluckknot.twoknot"}


@pytest.mark.parametrize(
    "argv,modules",
    [
        (("--version",), {"gluckknot"}),
        (("enum", "<x | x^3>"), ENUM_MODULES),
        (("gluck", "<x, y | xyxYXY>", "--kill", "x"), ENUM_MODULES),
        (("alex", "<x, y | xyxYXY>"), ALEX_MODULES),
        (("family", "1", "2"), FAMILY_MODULES),
        (("family", "1", "2", "--tsv"), FAMILY_MODULES),
        (("family", "--grid", "0..1", "0..1"), FAMILY_MODULES),
        (("family", "--grid", "0..1", "0..1", "--json"), FAMILY_MODULES | {"json"}),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, modules):
    assert loaded_modules(*argv) == modules


def ast_nodes(module):
    name = module.partition(".")[2] or "__init__"
    path = SRC / "gluckknot" / f"{name}.py"
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


# With no bytecode cache (PYTHONDONTWRITEBYTECODE=1) every call compiles
# cli.py and each module it loads from source, at 1-2 us per AST node
# (in-process compile(), best of 40, 2 cores): 0.45 ms for echelon, 2.6-2.9 ms
# for words, coset or laurent.  Cold code dragged onto a main path shows here.
@pytest.mark.parametrize(
    "argv,budget",
    [
        (("enum", "<x | x^3>"), 7000),
        (("gluck", "<x, y | xyxYXY>", "--kill", "x"), 7000),
        (("alex", "<x, y | xyxYXY>"), 10800),
        (("family", "--grid", "0..1", "0..1", "--json"), 14600),
    ],
)
def test_subcommand_compiles_within_budget(argv, budget):
    modules = loaded_modules(*argv) - {"json"}
    assert sum(map(ast_nodes, modules | {"gluckknot.cli"})) <= budget


def test_torsion_takes_the_row_subset_path():
    # H1 = Z + Z/2: Delta is the gcd of the minors, from the minors module
    argv = ["alex", "<x,y | y^2>"]
    names, stdout = run_cli(*argv)
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
