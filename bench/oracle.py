"""Known answers computed without epsitau.

Propositional formulas are plain tuples:

    ("atom", name) | ("bot",) | ("not", a) | ("and", a, b) | ("or", a, b) | ("imp", a, b)

They are printed in epsitau's surface grammar, fully parenthesized, and
decided here by brute force over Goedel chains (the 2-chain is classical
logic).  A formula with n atoms is valid in LC iff it is valid on the
(n+2)-chain, because Goedel truth values only matter up to their order
relative to each other, to 0 and to the top.
"""

from __future__ import annotations

import itertools
import random


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(a: tuple) -> tuple:
    return ("not", a)


def conj(parts: list[tuple]) -> tuple:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("and", p, out)
    return out


def disj(parts: list[tuple]) -> tuple:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = ("or", p, out)
    return out


def imp(a: tuple, b: tuple) -> tuple:
    return ("imp", a, b)


def iff(a: tuple, b: tuple) -> tuple:
    return ("and", ("imp", a, b), ("imp", b, a))


def text(f: tuple) -> str:
    """Surface syntax with a parenthesis around every compound subformula."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "bot":
        return "bot"
    if tag == "not":
        return "~" + _wrapped(f[1])
    op = {"and": " & ", "or": " | ", "imp": " -> "}[tag]
    return _wrapped(f[1]) + op + _wrapped(f[2])


def _wrapped(f: tuple) -> str:
    return text(f) if f[0] in ("atom", "bot", "not") else f"({text(f)})"


def atoms(f: tuple, out: list[str] | None = None) -> list[str]:
    out = [] if out is None else out
    if f[0] == "atom":
        if f[1] not in out:
            out.append(f[1])
    else:
        for sub in f[1:]:
            atoms(sub, out)
    return out


def value(f: tuple, val: dict[str, int], top: int) -> int:
    """Goedel semantics on the chain 0..top."""
    tag = f[0]
    if tag == "atom":
        return val[f[1]]
    if tag == "bot":
        return 0
    if tag == "not":
        return top if value(f[1], val, top) == 0 else 0
    a = value(f[1], val, top)
    b = value(f[2], val, top)
    if tag == "and":
        return min(a, b)
    if tag == "or":
        return max(a, b)
    return top if a <= b else b


def countervaluation(f: tuple, size: int) -> dict[str, int] | None:
    """A valuation on the size-chain that does not give f the top value."""
    names = atoms(f)
    top = size - 1
    for vals in itertools.product(range(size), repeat=len(names)):
        val = dict(zip(names, vals))
        if value(f, val, top) != top:
            return val
    return None


def valid_on_chain(f: tuple, size: int) -> bool:
    return countervaluation(f, size) is None


def chain_size(logic: str, f: tuple) -> int:
    """The chain that decides f in logic: classical, lcN or lc."""
    if logic == "classical":
        return 2
    if logic == "lc":
        return len(atoms(f)) + 2
    return int(logic[2:])


def tautology(f: tuple) -> bool:
    return valid_on_chain(f, 2)


def random_formula(rng: random.Random, names: list[str], depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.25:
        return atom(rng.choice(names))
    tag = rng.choice(("not", "and", "or", "imp", "imp"))
    if tag == "not":
        return neg(random_formula(rng, names, depth - 1))
    return (tag, random_formula(rng, names, depth - 1), random_formula(rng, names, depth - 1))


# ---------------------------------------------------------------------------
# Schema families with answers from the literature


def chain_schema(names: list[str]) -> tuple:
    """B_m over m+1 atoms: (A1 -> A2) | ... | (Am -> Am+1)."""
    return disj([imp(atom(a), atom(b)) for a, b in zip(names, names[1:])])


def implication_ring(names: list[str]) -> tuple:
    """(A1 -> A2) | ... | (An -> A1): refuting it needs A1 > A2 > ... > An > A1."""
    return disj([imp(atom(a), atom(b)) for a, b in zip(names, names[1:] + names[:1])])


def de_bruijn(names: list[str]) -> tuple:
    """The ring formula of de Bruijn: intuitionistically valid iff len(names) is odd.

    For an even ring the alternating valuation refutes it classically.
    """
    c = conj([atom(a) for a in names])
    n = len(names)
    links = [imp(iff(atom(names[i]), atom(names[(i + 1) % n])), c) for i in range(n)]
    return imp(conj(links), c)
