"""The benchmark's cases: argv, input files and known answers.

Every case records what a correct answer is and where that answer comes
from, never from epsitau's own output:

- ``paper``: a theorem about the logics or the elimination procedure;
- ``closed_form``: a count or shape that follows from the construction;
- ``golden``: the committed trace in tests/golden;
- ``glivenko``: phi is a classical tautology iff ~~phi is valid in H (and KC);
- ``evaluator``: brute force over Goedel chains in ``oracle``.

``build(workload, seed)`` is deterministic: the seed picks symbol names,
random queries and case order, never which families or sizes are present.
"""

from __future__ import annotations

import random
import re

import oracle

WORKLOADS = ("certify", "expand", "prove")

# Seconds a case may run before it counts as failed; a failed case is
# charged exactly this.  Twice the slowest case the seed solves.
CASE_LIMIT_S = 6.0

SOLVED = ("ok", "invalid", "failure_report")
CLASSES = SOLVED + ("budget", "error", "timeout", "wrong")

GRID_LOGICS = ("classical", "lc2", "lc3", "lc4", "lc5", "lc6")
GRID_KS = (1, 2, 3, 4)
# The grid keeps one set of symbol names in every run: renaming changes the
# cost of the deep equality tests in syntax.dedup by up to 2x, which would
# swamp the run-to-run comparison.  The seed still orders the cases.
GRID_NAMES = {"pred": "A", "ctx": "s", "wit": "u", "var": "x"}
GOLDEN = "tests/golden/chain_witness_trace.json"

# Outcomes the seed is known to give where they differ from the known answer.
# They stay in the workloads and are counted; only a ``wrong`` outcome on a
# case that is not listed here makes a run incorrect.
KNOWN_DEFECTS = {
    "certify/grid/lc3-k3": "budget",
    "certify/grid/lc3-k4": "budget",
    "certify/grid/lc4-k2": "budget",
    "certify/grid/lc4-k3": "budget",
    "certify/grid/lc4-k4": "budget",
    "certify/grid/lc5-k2": "budget",
    "certify/grid/lc5-k3": "budget",
    "certify/grid/lc5-k4": "timeout",  # RecursionError in _finish after ~12 s
    "certify/grid/lc6-k1": "budget",
    "certify/grid/lc6-k2": "budget",
    "certify/grid/lc6-k3": "timeout",  # RecursionError in _finish after ~9 s
    "certify/grid/lc6-k4": "timeout",  # RecursionError in _finish after ~47 s
    "certify/check/B7-lc": "budget",
    "certify/check/ring-8": "budget",
    "certify/check/ring-9": "budget",
    "certify/check/ring-10": "budget",
    "certify/check/ring-11": "budget",
    "certify/check/ring-12": "budget",
    "certify/check/chain-11-lc": "budget",
    "expand/grid/lc5-k4": "timeout",  # RecursionError in _finish after ~12 s
    "expand/grid/lc6-k3": "timeout",  # RecursionError in _finish after ~9 s
    "expand/grid/lc6-k4": "timeout",
    "prove/check/kc-axiom": "wrong",  # kc is decided as plain H
}


def build(workload: str, seed: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    cases = {"certify": _certify, "expand": _expand, "prove": _prove}[workload](rng)
    rng.shuffle(cases)
    for c in cases:
        c["id"] = f"{workload}/{c['id']}"
        c.setdefault("files", {})
        c["defect"] = KNOWN_DEFECTS.get(c["id"])
    return cases


def _case(id_, argv, expect, source, check, files=None) -> dict:
    return {"id": id_, "argv": argv, "expect": expect, "source": source,
            "check": check, "files": files or {}}


# ---------------------------------------------------------------------------
# Symbol names picked by the seed


def _names(rng: random.Random) -> dict:
    pred, other = rng.sample(["A", "B", "P", "Q", "R", "D"], 2)
    ctx = rng.choice(["s", "f", "g", "h"])
    wit = rng.choice(["u", "c", "a", "w"])
    return {"pred": pred, "other": other, "ctx": ctx, "wit": wit,
            "var": rng.choice(["x", "y", "z", "v"]),
            "prop": rng.choice(["A", "B", "P", "Q"])}


# ---------------------------------------------------------------------------
# The elimination grid


def _grid_file(logic: str, k: int) -> str:
    n = GRID_NAMES
    p, x = n["pred"], n["var"]
    e = f"eps {x}. {p}({x})"
    lines = [f"logic: {logic}"]
    lines += [f"critical: {p}({n['ctx']}{i}({e})) -> {p}({e})" for i in range(1, k + 1)]
    lines += [f"critical: {p}({n['wit']}{i}) -> {p}({e})" for i in (1, 2)]
    lines.append(f"goal: {p}({n['wit']}1) -> {p}({e})")
    return "\n".join(lines) + "\n"


def _grid_count(logic: str, k: int) -> int:
    """Final disjuncts: the elimination set of e has k+3 terms classically;
    on the m-chain it holds every context word of length < m, each met once
    by the expansion goal and once by the linearity step."""
    if logic == "classical":
        return k + 3
    m = int(logic[2:])
    return 2 * sum(k**length for length in range(m))


def _grid(verify: str) -> list[dict]:
    out = []
    for logic in GRID_LOGICS:
        for k in GRID_KS:
            name = f"grid-{logic}-k{k}.txt"
            out.append(_case(
                f"grid/{logic}-k{k}",
                ["eliminate", name, "--verify", verify],
                "success", "closed_form",
                {"type": "grid", "pred": GRID_NAMES["pred"], "count": _grid_count(logic, k)},
                {name: _grid_file(logic, k)},
            ))
    return out


# ---------------------------------------------------------------------------
# certify: the verified paths and the chain backend


def _certify(rng: random.Random) -> list[dict]:
    n = _names(rng)
    cases = _grid("full")
    cases.append(_case(
        "fixture/chain-witness",
        ["--format", "json", "eliminate", "chain_witness.txt", "--verify", "full"],
        "success", "golden", {"type": "golden", "path": GOLDEN},
        {"chain_witness.txt": "logic: classical\n"
         "critical: P(f(eps x. P(x))) -> P(eps x. P(x))\n"
         "critical: (P(f(eps x. P(x))) -> P(eps x. P(x))) -> "
         "P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z))\n"
         "goal: P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z))\n"},
    ))
    cases.append(_case(
        "fixture/lc3-worked",
        ["eliminate", "lc3_worked.txt", "--verify", "full"],
        "success", "closed_form", {"type": "grid", "pred": "A", "count": 14},
        {"lc3_worked.txt": "logic: lc3\n"
         "critical: A(s(eps x. A(x))) -> A(eps x. A(x))\n"
         "critical: A(t(eps x. A(x))) -> A(eps x. A(x))\n"
         "critical: A(u) -> A(eps x. A(x))\n"
         "critical: A(v) -> A(eps x. A(x))\n"
         "goal: A(u) -> A(eps x. A(x))\n"},
    ))
    cases += _weak_lin(rng)
    cases += _chain_table(n["prop"])
    cases += _random_chain_queries(rng, count=48)
    return cases


def _weak_lin(rng) -> list[dict]:
    """The predicative-only driver must stop at an impredicative critical formula."""
    out = []
    n = GRID_NAMES
    p, x = n["pred"], n["var"]
    e = f"eps {x}. {p}({x})"
    for k in GRID_KS:
        name = f"weaklin-lc-k{k}.txt"
        text = _grid_file("lc", k)
        impred = [f"{p}({n['ctx']}{i}({e})) -> {p}({e})" for i in range(1, k + 1)]
        out.append(_case(
            f"weak-lin/lc-k{k}",
            ["--format", "json", "eliminate", name, "--driver", "weak-lin", "--verify", "full"],
            "failure_report", "paper", {"type": "weak_lin_report", "formulas": impred},
            {name: text},
        ))
    out.append(_case(
        "weak-lin/negative-fixture",
        ["--format", "json", "eliminate", "weaklin_negative.txt", "--driver", "weak-lin",
         "--verify", "full"],
        "failure_report", "paper", {"type": "weak_lin_report", "formulas": None},
        {"weaklin_negative.txt": "logic: lc\n"
         "critical: A(f(eps y. B(y))) -> A(eps x. A(x))\n"
         "critical: B(g(eps x. A(x))) -> B(eps y. B(y))\n"
         "goal: (A(f(eps y. B(y))) -> A(eps x. A(x))) & (B(g(eps x. A(x))) -> B(eps y. B(y)))\n"},
    ))
    a, b = rng.sample(_GROUND, 2)
    lin = oracle.disj([oracle.imp(oracle.atom(f"P({a})"), oracle.atom(f"P({b})")),
                       oracle.imp(oracle.atom(f"P({b})"), oracle.atom(f"P({a})"))])
    assert oracle.valid_on_chain(lin, oracle.chain_size("lc", lin))
    out.append(_case(
        "weak-lin/reconstruction",
        ["eliminate", "reconstruction.txt", "--driver", "weak-lin", "--verify", "full"],
        "success", "paper",
        {"type": "disjunct_set", "line": "result: ",
         "expected": sorted(f"(P({s}) -> P({t}))" for s, t in ((a, b), (b, a)))},
        {"reconstruction.txt": _reconstruction_judgment(
            lambda s, t: f"P({s}) -> P({t})", [(a, b), (b, a)])},
    ))
    return out


_GROUND = ["a", "b", "c", "d", "g(a)", "g(b)", "h(a, b)"]


def _herbrand_tuples(rng, k: int) -> list[tuple[str, str]]:
    return [(rng.choice(_GROUND), rng.choice(_GROUND)) for _ in range(k)]


def _reconstruction_judgment(skeleton, tuples) -> str:
    """Predicative criticals over skeleton(x, y) whose elimination replays the
    disjunction of skeleton(t1, t2) over the tuples: the witness of y is
    eps y. skeleton(x, y), the one of x is eps x. skeleton(x, eps y. skeleton(x, y))."""

    def ey(t: str) -> str:
        return f"eps y. {skeleton(t, 'y')}"

    ex = f"eps x. {skeleton('x', ey('x'))}"
    top = skeleton(ex, ey(ex))
    lines = ["logic: lc"]
    for a, b in tuples:
        lines.append(f"critical: ({skeleton(a, b)}) -> {skeleton(a, ey(a))}")
        lines.append(f"critical: ({skeleton(a, ey(a))}) -> {top}")
    lines.append(f"goal: {top}")
    return "\n".join(lines) + "\n"


def _chain_check_case(id_, logic, f, expect_valid, source) -> dict:
    return _case(
        id_, ["--format", "json", "check", "--logic", logic, oracle.text(f)],
        "valid" if expect_valid else "invalid", source,
        {"type": "chain", "logic": logic, "formula": f},
    )


def _chain_table(prop: str) -> list[dict]:
    """B_m holds on the m-chain and fails on longer chains; the ring always holds."""
    out = []
    for m in range(2, 8):
        bm = oracle.chain_schema([f"{prop}{i}" for i in range(1, m + 2)])
        out.append(_chain_check_case(f"check/B{m}-lc{m}", f"lc{m}", bm, True, "paper"))
        out.append(_chain_check_case(f"check/B{m}-lc{m + 1}", f"lc{m + 1}", bm, False, "paper"))
        out.append(_chain_check_case(f"check/B{m}-lc", "lc", bm, False, "paper"))
    for size in range(6, 13):
        ring = oracle.implication_ring([f"{prop}{i}" for i in range(1, size + 1)])
        out.append(_chain_check_case(f"check/ring-{size}", "lc", ring, True, "paper"))
    b11 = oracle.chain_schema([f"{prop}{i}" for i in range(1, 13)])
    out.append(_chain_check_case("check/chain-11-lc", "lc", b11, False, "paper"))
    return out


def _random_chain_queries(rng, count: int) -> list[dict]:
    logics = ("classical", "lc2", "lc3", "lc4", "lc5", "lc6", "lc")
    names = [f"p{i}" for i in range(1, 5)]
    out, seen = [], set()
    while len(out) < count:
        want_valid = len(out) % 2 == 0
        logic = logics[len(out) // 2 % len(logics)]
        f = oracle.random_formula(rng, rng.sample(names, rng.randint(1, 4)), 3)
        key = (logic, oracle.text(f))
        if key in seen or not oracle.atoms(f):
            continue
        if oracle.valid_on_chain(f, oracle.chain_size(logic, f)) != want_valid:
            continue
        seen.add(key)
        out.append(_chain_check_case(f"check/random-{len(out)}", logic, f, want_valid, "evaluator"))
    return out


# ---------------------------------------------------------------------------
# expand: elimination and syntax without backend work


def _expand(rng: random.Random) -> list[dict]:
    n = _names(rng)
    cases = _grid("none")
    cases += _translations(n)
    for i in range(6):
        tuples = _herbrand_tuples(rng, 1 + i % 3)
        disj = " | ".join(f"{n['other']}({a}, {b})" for a, b in tuples)
        cases.append(_case(
            f"reconstruct/{i}",
            ["reconstruct", disj, "--skeleton", f"{n['other']}(x, y)", "--vars", "x,y"],
            "success", "paper",
            {"type": "disjunct_set", "line": "replayed: ",
             "expected": sorted({f"{n['other']}({a}, {b})" for a, b in tuples})},
        ))
    cases += _rank_degree(n)
    cases += _classify(n)
    return cases


def _translations(n: dict) -> list[dict]:
    out = []
    p, v = n["pred"], n["var"]
    for size in (2, 3, 4):
        for first in ("all", "ex"):
            kinds = [first if i % 2 == 0 else ("ex" if first == "all" else "all")
                     for i in range(size)]
            xs = [f"{v}{i}" for i in range(1, size + 1)]
            prefix = " ".join(f"{q} {x}." for q, x in zip(kinds, xs))
            phi = f"{prefix} {p}({', '.join(xs)})"
            out.append(_case(
                f"translate/{first}-{size}", ["translate", phi], "success", "closed_form",
                {"type": "translation", "pred": p, **_translation_counts(kinds)},
            ))
            out.append(_case(
                f"herbrandize/{first}-{size}", ["translate", "--herbrandize", phi],
                "success", "closed_form",
                {"type": "exact", "text": _herbrand_text(p, kinds, xs)},
            ))
    return out


def _translation_counts(kinds: list[str]) -> dict:
    """Binder and atom counts of the epsilon/tau translation of a prenex P(x1..xn).

    Binding x_j replaces each of its occurrences by a copy of the whole
    current formula under a new binder, so counts multiply inside-out.
    """
    occ = [1] * len(kinds)
    eps = tau = 0
    atoms = 1
    for j in range(len(kinds) - 1, -1, -1):
        k = occ[j]
        if kinds[j] == "ex":
            eps, tau = eps + k * (eps + 1), tau + k * tau
        else:
            eps, tau = eps + k * eps, tau + k * (tau + 1)
        atoms += k * atoms
        for i in range(j):
            occ[i] += k * occ[i]
    return {"eps": eps, "tau": tau, "atoms": atoms}


def _herbrand_text(p: str, kinds: list[str], xs: list[str]) -> str:
    """Universals become fresh functions of the existentials bound before them."""
    args, exs = [], []
    for q, x in zip(kinds, xs):
        if q == "ex":
            exs.append(x)
            args.append(x)
        else:
            args.append(f"{x}_1({', '.join(exs)})" if exs else f"{x}_1")
    return "".join(f"ex {x}. " for x in exs) + f"{p}({', '.join(args)})"


def _rank_degree(n: dict) -> list[dict]:
    """Towers whose inner terms all use the outer variables have rank d and
    degree 1; towers of closed inner terms have degree d and rank 1."""
    p, v = n["pred"], n["var"]
    out = []
    for d in range(2, 6):
        xs = [f"{v}{i}" for i in range(1, d + 1)]
        dependent = closed = ""
        for j in range(d, 0, -1):
            dep_args = xs[:j] + ([dependent] if dependent else [])
            dependent = f"eps {xs[j - 1]}. {p}({', '.join(dep_args)})"
            closed_args = [xs[j - 1]] + ([closed] if closed else [])
            closed = f"eps {xs[j - 1]}. {p}({', '.join(closed_args)})"
        for term, r, deg, label in ((dependent, d, 1, "dependent"), (closed, 1, d, "closed")):
            out.append(_case(f"rank/{label}-{d}", ["rank", term], "success", "closed_form",
                             {"type": "exact", "text": str(r)}))
            out.append(_case(f"degree/{label}-{d}", ["degree", term], "success", "closed_form",
                             {"type": "exact", "text": str(deg)}))
    return out


def _classify(n: dict) -> list[dict]:
    """A(t) -> A(eps x. A(x)) is predicative iff eps x. A(x) does not occur in t."""
    p, x, f, w = n["pred"], n["var"], n["ctx"], n["wit"]
    out = []
    for kind in ("eps", "tau"):
        e = f"{kind} {x}. {p}({x})"
        for predicative, t in ((True, f"{f}({w}1)"), (True, f"{f}2({w}1, {w}2)"),
                               (False, f"{f}({e})"), (False, f"{f}2({w}1, {f}({e}))")):
            phi = f"{p}({t}) -> {p}({e})" if kind == "eps" else f"{p}({e}) -> {p}({t})"
            label = "pred" if predicative else "impred"
            out.append(_case(
                f"classify/{kind}-{label}-{len(out)}", ["--format", "json", "classify", phi],
                "success", "paper",
                {"type": "classify", "kind": kind, "term": e, "predicative": predicative},
            ))
    return out


# ---------------------------------------------------------------------------
# prove: the intuitionistic prover


def _prove(rng: random.Random) -> list[dict]:
    n = _names(rng)
    prop = n["prop"].lower()
    cases = []
    for size in range(3, 10):
        f = oracle.de_bruijn([f"p{i}" for i in range(1, size + 1)])
        cases.append(_h_case(f"check/de-bruijn-{size}", "h", f, size % 2 == 1,
                             "paper" if size % 2 else "evaluator"))
    names = [f"{prop}{i}" for i in range(1, 5)]
    seen: set[str] = set()
    for i in range(16):
        want_taut = i % 2 == 0
        f = _sample(rng, names, seen, lambda g: oracle.tautology(g) == want_taut)
        cases.append(_h_case(f"check/glivenko-{i}", ("h", "kc")[i // 2 % 2], oracle.neg(oracle.neg(f)),
                             want_taut, "glivenko"))
    for i in range(6):
        f = _sample(rng, names, seen, lambda g: not oracle.tautology(g))
        cases.append(_h_case(f"check/classically-invalid-{i}", ("h", "kc")[i % 2], f, False,
                             "evaluator"))
    a = oracle.atom(n["prop"])
    cases.append(_h_case("check/kc-axiom", "kc", oracle.disj([oracle.neg(a), oracle.neg(oracle.neg(a))]),
                         True, "paper"))
    cases += _verify_judgments(rng, n)
    cases += _jankov(n)
    cases.append(_case("schemas/relations", ["schemas", "--check-relations"], "success", "paper",
                       {"type": "relations", "count": 8}))
    return cases


def _sample(rng, names, seen, accept) -> tuple:
    while True:
        f = oracle.random_formula(rng, names, 3)
        t = oracle.text(f)
        if t not in seen and oracle.atoms(f) and accept(f):
            seen.add(t)
            return f


def _h_case(id_, logic, f, valid, source) -> dict:
    return _case(id_, ["--format", "json", "check", "--logic", logic, oracle.text(f)],
                 "valid" if valid else "invalid", source, {"type": "h_check", "formula": f})


def _verify_judgments(rng, n) -> list[dict]:
    """Critical-formula premises; the goal is ~~psi for an entailed psi
    (holds, by Glivenko) or a psi with a classical countermodel (fails)."""
    p, x, w = n["pred"], n["var"], n["wit"]
    e = oracle.atom(f"{p}(eps {x}. {p}({x}))")
    ws = [oracle.atom(f"{p}({w}{i})") for i in range(1, 4)]
    out = []
    for i in range(6):
        logic = ("h", "kc")[i % 2]
        premises = [oracle.imp(a, e) for a in ws[: 1 + i % 2]]
        holds = i < 3
        body = oracle.conj(premises)
        while True:
            psi = oracle.random_formula(rng, [a[1] for a in ws + [e]], 2)
            if oracle.tautology(psi) or not oracle.atoms(psi):
                continue
            if oracle.tautology(oracle.imp(body, psi)) == holds:
                break
        goal = oracle.neg(oracle.neg(psi)) if holds else psi
        lines = [f"logic: {logic}"] + [f"critical: {oracle.text(c)}" for c in premises]
        lines.append(f"goal: {oracle.text(goal)}")
        out.append(_case(
            f"verify/{logic}-{i}", ["--format", "json", "verify", f"judgment-{i}.txt"],
            "valid" if holds else "invalid", "glivenko" if holds else "evaluator",
            {"type": "holds"}, {f"judgment-{i}.txt": "\n".join(lines) + "\n"},
        ))
    return out


def _jankov(n) -> list[dict]:
    """One weak-excluded-middle step on a negated KC goal: one goal disjunct
    per member of the elimination set {e} + witnesses (Jankov)."""
    p, x, w = n["pred"], n["var"], n["wit"]
    e = f"eps {x}. {p}({x})"
    out = []
    for k in (1, 2, 3):
        lines = ["logic: kc"] + [f"critical: {p}({w}{i}) -> {p}({e})" for i in range(1, k + 1)]
        lines.append(f"goal: ~~({p}({w}1) -> {p}({e}))")
        out.append(_case(
            f"jankov/k{k}", ["eliminate", f"jankov-{k}.txt", "--driver", "jankov", "--verify", "steps"],
            "success", "paper", {"type": "jankov", "count": k + 1},
            {f"jankov-{k}.txt": "\n".join(lines) + "\n"},
        ))
    return out


# ---------------------------------------------------------------------------
# Judging an answer against the known one


def outcome(case: dict, code: int | None, out: str, golden: dict | None = None) -> str:
    """The outcome class of a case that returned exit code `code` with stdout `out`."""
    if code == 3:
        return "budget"
    if code not in (0, 1):
        return "error"
    expect = case["expect"]
    said_yes = code == 0
    if expect in ("valid", "success") and not said_yes:
        return "wrong"
    if expect in ("invalid", "failure_report") and said_yes:
        return "wrong"
    if not _output_matches(case, out, golden):
        return "wrong"
    return {"valid": "ok", "success": "ok"}.get(expect, expect)


def split_top(text: str, sep: str = " | ") -> list[str]:
    """Split at separators outside parentheses."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def _line(out: str, prefix: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth < 0:
            return False
    return depth == 0


def _output_matches(case: dict, out: str, golden: dict | None) -> bool:
    import json

    check = case["check"]
    kind = check["type"]
    try:
        if kind == "grid":
            result = _line(out, "result: ")
            if result is None or re.search(r"\b(eps|tau) ", result):
                return False
            parts = split_top(result)
            p = re.escape(check["pred"])
            shape = re.compile(rf"\({p}\((.+)\) -> {p}\((.+)\)\)")
            return len(parts) == check["count"] and all(
                (m := shape.fullmatch(d)) and _balanced(m.group(1)) and _balanced(m.group(2))
                for d in parts
            )
        if kind == "golden":
            return golden is not None and json.loads(out) == golden
        if kind == "chain":
            doc = json.loads(out)
            if case["expect"] == "valid":
                return doc["valid"] is True
            counter = doc["countervaluation"]
            size = doc["chain_size"]
            f = check["formula"]
            if check["logic"] != "lc" and size != oracle.chain_size(check["logic"], f):
                return False
            return doc["valid"] is False and oracle.value(f, counter, size - 1) != size - 1
        if kind == "h_check":
            return json.loads(out)["valid"] is (case["expect"] == "valid")
        if kind == "holds":
            return json.loads(out)["holds"] is (case["expect"] == "valid")
        if kind == "weak_lin_report":
            failure = json.loads(out)["failure"]
            return failure["reason"] == "impredicative critical formula" and (
                check["formulas"] is None or failure["formula"] in check["formulas"]
            )
        if kind == "disjunct_set":
            line = _line(out, check["line"])
            return line is not None and sorted(set(split_top(line))) == check["expected"]
        if kind == "translation":
            text = out.strip()
            return (
                not re.search(r"\b(all|ex) ", text)
                and len(re.findall(r"\beps ", text)) == check["eps"]
                and len(re.findall(r"\btau ", text)) == check["tau"]
                and len(re.findall(rf"\b{re.escape(check['pred'])}\(", text)) == check["atoms"]
            )
        if kind == "exact":
            return out.strip() == check["text"]
        if kind == "classify":
            return any(
                r["kind"] == check["kind"] and r["critical_term"] == check["term"]
                and r["predicative"] is check["predicative"]
                for r in json.loads(out)["readings"]
            )
        if kind == "jankov":
            result = _line(out, "result: ")
            return result is not None and len(split_top(result)) == check["count"] and all(
                d.startswith("~~(") for d in split_top(result)
            )
        if kind == "relations":
            lines = out.splitlines()
            return len(lines) == check["count"] and all(line.startswith("pass ") for line in lines)
    except (ValueError, KeyError, TypeError, AttributeError):
        return False
    raise ValueError(f"unknown check type {kind!r}")
