"""Start-up cost of the CLI: the gluckknot modules each subcommand loads,
and the lazy package namespace that keeps the rest unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gluckknot

SRC = Path(gluckknot.__file__).resolve().parent.parent


def imported_modules(*argv):
    """The modules that `python -m gluckknot.cli ARGV` imports, as
    `-X importtime` reports them (the CLI module itself runs as __main__)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gluckknot.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def loaded_modules(*argv):
    """The gluckknot modules and `json` among `imported_modules(*argv)`."""
    names = imported_modules(*argv)
    return {n for n in names if n == "json" or n.split(".")[0] == "gluckknot"}


# with no bytecode cache each module compiles from source on every call,
# some 3 ms apiece
EVERY_MODULE = {
    "gluckknot",
    "gluckknot.words",
    "gluckknot.coset",
    "gluckknot.intmatrix",
    "gluckknot.laurent",
    "gluckknot.fox",
    "gluckknot.twoknot",
}


# coset runs the abelianization check of intmatrix before any table
ENUM_MODULES = {
    "gluckknot",
    "gluckknot.words",
    "gluckknot.intmatrix",
    "gluckknot.coset",
}


@pytest.mark.parametrize(
    "argv,modules",
    [
        (("--version",), {"gluckknot"}),
        (("enum", "<x | x^3>"), ENUM_MODULES),
        (("gluck", "<x, y | xyxYXY>", "--kill", "x"), ENUM_MODULES),
        (
            ("alex", "<x, y | xyxYXY>"),
            {
                "gluckknot",
                "gluckknot.words",
                "gluckknot.intmatrix",
                "gluckknot.laurent",
                "gluckknot.fox",
            },
        ),
        (("family", "1", "2"), EVERY_MODULE),
        (("family", "1", "2", "--tsv"), EVERY_MODULE),
        (("family", "--grid", "0..1", "0..1"), EVERY_MODULE),
        (("family", "--grid", "0..1", "0..1", "--json"), EVERY_MODULE | {"json"}),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, modules):
    assert loaded_modules(*argv) == modules


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
        assert value.__module__.startswith("gluckknot."), name
        assert name in listed


def test_star_import_and_unknown_name():
    namespace = {}
    exec("from gluckknot import *", namespace)
    assert set(gluckknot.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        gluckknot.no_such_name
