"""Logic tags and derivability judgments.

A Judgment is the claim "criticals, axiom instances |- goal" in a tagged
propositional logic, over quantifier-free formulas; each axiom instance
must be a theorem of the logic.  The criticals slot may hold substitution
residues that are no longer critical formulas; they are simply premises.
The instances are formulas no schema table row vouches for, such as the
`instance:` lines of a file: the instances an elimination step records stay
on the step, and the judgment after it has none.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import parser
from .syntax import Formula, dedup, is_quantifier_free, to_text


@dataclass(frozen=True, slots=True)
class Logic:
    kind: str  # "classical", "lcm", "lc", "kc", "h"
    m: int | None = None

    def __str__(self) -> str:
        return f"lc{self.m}" if self.kind == "lcm" else self.kind


CLASSICAL = Logic("classical")
LC = Logic("lc")
KC = Logic("kc")
H = Logic("h")


def lcm(m: int) -> Logic:
    if m < 2:
        raise ValueError("Godel logics need at least 2 truth values")
    return Logic("lcm", m)


def parse_logic(text: str) -> Logic:
    t = text.strip().lower()
    if t in ("classical", "c", "cl"):
        return CLASSICAL
    if t == "lc":
        return LC
    if t == "kc":
        return KC
    if t == "h":
        return H
    if t.startswith("lc") and t[2:].isdigit():
        return lcm(int(t[2:]))
    raise ValueError(f"unknown logic {text!r}")


@dataclass(frozen=True, slots=True)
class Judgment:
    logic: Logic
    criticals: tuple[Formula, ...]
    instances: tuple[Formula, ...]
    goal: Formula
    # Critical readings by term, built on first use by
    # eliminate.judgment_readings; not part of equality or hashing.
    reading_index: dict | None = field(default=None, init=False, repr=False, compare=False)


def make_judgment(logic, criticals, goal, instances=()) -> Judgment:
    criticals = tuple(dedup(criticals))
    instances = tuple(dedup(instances))
    for f in list(criticals) + list(instances) + [goal]:
        if not is_quantifier_free(f):
            raise ValueError(f"judgment formulas must be quantifier-free: {to_text(f)}")
    return Judgment(logic, criticals, instances, goal)


def load_judgment(text: str) -> Judgment:
    """Parse the judgment file format: `logic:`, `critical:`, `instance:`, `goal:` lines."""
    logic = None
    criticals: list[Formula] = []
    instances: list[Formula] = []
    goal = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key = key.strip().lower()
        rest = rest.strip()
        if (key == "logic" and logic is not None) or (key == "goal" and goal is not None):
            raise ValueError(f"line {lineno}: a second '{key}:' line")
        if key == "logic":
            logic = parse_logic(rest)
        elif key == "critical":
            criticals.append(parser.parse_formula(rest))
        elif key == "instance":
            instances.append(parser.parse_formula(rest))
        elif key == "goal":
            goal = parser.parse_formula(rest)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if logic is None:
        raise ValueError("judgment file is missing a 'logic:' line")
    if goal is None:
        raise ValueError("judgment file is missing a 'goal:' line")
    return make_judgment(logic, criticals, goal, instances)

