"""Inputs of the benchmark workloads, made in code from a seed.

Seed 0 gives the canonical inputs.  Any other seed applies transforms that
keep every answer and the size of every input:

- generator relabeling: each generator gets another letter, in the same
  position of the generator list, so the work per input stays the same;
- cyclic rotation of each relator;
- shifting the (p,q) window of the family grid.

Each input carries the answer mathematics predicts for it (see
reference.py); nothing here calls gluckknot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import factorial
from typing import Union

WORKLOADS = ("family-grid", "ladder")

GRID_SIDE = 41
GRID_SHIFT = 50  # seeds move the window's corner by up to this much
TORUS_LADDER = (3, 5, 7, 9, 11)
ENUM_MAX_COSETS = 60_000  # HLT defines 30k-33k cosets for H4
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class FamilyCase:
    """One record of the K2(p,q) grid."""

    p: int
    q: int


@dataclass(frozen=True)
class AlexCase:
    """Wirtinger presentation of the torus knot T(2,n)."""

    n: int


@dataclass(frozen=True)
class EnumCase:
    """A presented group and its order; None means infinite."""

    name: str
    order: int | None


Case = Union[FamilyCase, AlexCase, EnumCase]


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments after the program name and the cases its
    output records answer, in output order."""

    argv: tuple[str, ...]
    cases: tuple[Case, ...]


# Coxeter groups: rank, the m_ij > 2 of the diagram (0-based nodes), order.
COXETER = {
    "A4": (4, {(0, 1): 3, (1, 2): 3, (2, 3): 3}, factorial(5)),
    "A5": (5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3}, factorial(6)),
    "F4": (4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}, 1152),
    "A6": (6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}, factorial(7)),
    "H4": (4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}, 14400),
}


def coxeter_relators(rank: int, m: dict[tuple[int, int], int]) -> list[list[int]]:
    """s_i^2 for every node, then (s_i s_j)^m_ij for every pair (m_ij = 2 when
    the nodes are not joined).  Letters are generator index + 1."""
    rels = [[i + 1, i + 1] for i in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            rels.append([i + 1, j + 1] * m.get((i, j), 2))
    return rels


def wirtinger_torus(n: int) -> list[list[int]]:
    """Wirtinger relators of the closed 2-braid sigma_1^n: arc i+2 is arc i
    conjugated by arc i+1, as x_{i+1} x_i x_{i+1}^-1 x_{i+2}^-1.  Letters are
    generator index + 1, negative for inverses."""
    return [
        [(i + 1) % n + 1, i + 1, -((i + 1) % n + 1), -((i + 2) % n + 1)]
        for i in range(n)
    ]


def presentation_text(names: list[str], relators: list[list[int]]) -> str:
    """Text form `< a, b | aB, ... >`; letters are index + 1, negative for
    inverses, printed as upper case."""

    def letter(a: int) -> str:
        name = names[abs(a) - 1]
        return name if a > 0 else name.upper()

    rels = ", ".join("".join(letter(a) for a in r) for r in relators)
    return f"< {', '.join(names)} | {rels} >"


def _relabel_rotate(
    rng: random.Random | None, ngens: int, relators: list[list[int]]
) -> str:
    if rng is None:
        return presentation_text(list(LETTERS[:ngens]), relators)
    names = rng.sample(LETTERS, ngens)
    rotated = []
    for r in relators:
        k = rng.randrange(len(r))
        rotated.append(r[k:] + r[:k])
    return presentation_text(names, rotated)


def grid_invocation(p0: int, q0: int, side: int) -> Invocation:
    """`family --grid` over the side x side window with corner (p0, q0)."""
    ps = range(p0, p0 + side)
    qs = range(q0, q0 + side)
    argv = ("family", "--grid", f"{ps[0]}..{ps[-1]}", f"{qs[0]}..{qs[-1]}", "--json")
    return Invocation(argv, tuple(FamilyCase(p, q) for p in ps for q in qs))


def family_grid(rng: random.Random | None) -> list[Invocation]:
    p0 = q0 = -(GRID_SIDE // 2)
    if rng is not None:
        p0 += rng.randint(-GRID_SHIFT, GRID_SHIFT)
        q0 += rng.randint(-GRID_SHIFT, GRID_SHIFT)
    return [grid_invocation(p0, q0, GRID_SIDE)]


def alex_ladder(rng: random.Random | None) -> list[Invocation]:
    return [
        Invocation(
            ("alex", _relabel_rotate(rng, n, wirtinger_torus(n)), "--json"),
            (AlexCase(n),),
        )
        for n in TORUS_LADDER
    ]


def _enum_invocation(text: str, case: EnumCase) -> Invocation:
    return Invocation(
        ("enum", text, "--max-cosets", str(ENUM_MAX_COSETS), "--json"), (case,)
    )


def enum_ladder(rng: random.Random | None) -> list[Invocation]:
    out = []
    for name, (rank, m, order) in COXETER.items():
        text = _relabel_rotate(rng, rank, coxeter_relators(rank, m))
        out.append(_enum_invocation(text, EnumCase(name, order)))
    # Z^2 = <x,y | xyXY> never closes: the table only grows until it overflows
    text = _relabel_rotate(rng, 2, [[1, 2, -1, -2]])
    out.append(_enum_invocation(text, EnumCase("Z2", None)))
    return out


def ladder(rng: random.Random | None) -> list[Invocation]:
    """Few large calls: the alex ladder, where fox minors dominate, then the
    enum ladder, where coset enumeration dominates.  One workload holds both
    so that a run can be long: a 60 s run samples every call a dozen times
    or more."""
    return alex_ladder(rng) + enum_ladder(rng)


BUILDERS = {"family-grid": family_grid, "ladder": ladder}


def build(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocations; seed 0 is canonical."""
    rng = None if seed == 0 else random.Random(f"{workload}/{seed}")
    return BUILDERS[workload](rng)
