"""Command-line front end.

Subcommands: translate, eliminate, check, verify, rank, degree, classify,
reconstruct, schemas.  Exit codes: 0 success/valid, 1 invalid, failure
report or failed check, 2 usage error or recursion too deep, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Iterator

from . import eliminate as elim
from . import semantics
from .critical import degree, is_predicative, is_weak, rank, recognize_critical
from .judgments import load_judgment, parse_logic
from .parser import ParseError, parse_formula, parse_term
from .semantics import BudgetExceededError, DEFAULT_BUDGET
from .syntax import to_text
from .translate import et_translate, herbrand_form, shadow

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_translate(args) -> int:
    phi = parse_formula(args.formula)
    if args.shadow:
        label, out = "shadow", shadow(phi)
    elif args.herbrandize:
        label, out = "herbrand_form", herbrand_form(phi)
    else:
        label, out = "translation", et_translate(phi)
    text = to_text(out)
    _emit(args, {label: text}, [text])
    return EXIT_OK


def cmd_check(args) -> int:
    logic = parse_logic(args.logic)
    verdict = semantics.decide(logic, [], parse_formula(args.formula), budget=args.budget)
    lines, keys = verdict.describe(logic)
    payload = {"logic": str(logic), "valid": verdict.holds, **keys}
    _emit(args, payload, [f"{'valid' if verdict else 'invalid'} in {logic}", *lines])
    return EXIT_OK if verdict else EXIT_INVALID


def cmd_verify(args) -> int:
    j = load_judgment(Path(args.judgment).read_text())
    verdict = semantics.verify_judgment(j, budget=args.budget)
    lines, keys = verdict.describe(j.logic)
    payload = {"logic": str(j.logic), "holds": verdict.holds, **keys}
    _emit(args, payload, [f"judgment {'holds' if verdict else 'fails'} in {j.logic}", *lines])
    return EXIT_OK if verdict else EXIT_INVALID


def _chain_family(family: elim.ChainFamily, memo: dict) -> str:
    """A Bm step's chains as eliminate_impredicative_Bm makes them: through
    each word of length m over the contexts, then from each first atom; no
    member is built."""
    m = family.m
    line = f"{len(family)} Bm {family.polarity} chains of {m} links, through each word of length {m}"
    if family.firsts:
        atoms = ", ".join(to_text(a, memo) for a in family.firsts)
        line += f" and from {atoms} through each word of length {m - 1}"
    return line


def _trace_lines(trace: elim.EliminationTrace) -> Iterator[str]:
    memo: dict = {}  # one text memo for the trace; see syntax.to_text
    for i, st in enumerate(trace.steps, start=1):
        yield f"step {i}: eliminate {to_text(st.target, memo)}"
        yield f"  set: {', '.join(to_text(t, memo) for t in st.elimination_set)}"
        for f in st.eliminated:
            yield f"  removed: {to_text(f, memo)}"
        insts = st.axiom_instances_used
        if isinstance(insts, elim.ChainFamily):  # JSON lists the members; one schema row certifies them all
            yield f"  instances: {_chain_family(insts, memo)}"
        else:
            for inst in insts:
                yield f"  instance: {inst.text(memo)}"
        goal = to_text(st.after.goal, memo)
        yield f"  goal: {goal}"
    for t, name in trace.grounding:
        yield f"ground {to_text(t, memo)} as {name}"
    yield f"result: {goal if trace.result_is_last_goal else to_text(trace.result, memo)}"


def cmd_eliminate(args) -> int:
    j = load_judgment(Path(args.judgment).read_text())
    out = elim.run_elimination(j, verify=args.verify, budget=args.budget, driver=args.driver)
    if isinstance(out, elim.FailureReport):
        payload = {
            "failure": {
                "step": out.step_index,
                "target": to_text(out.target),
                "formula": to_text(out.formula),
                "reason": out.reason,
            }
        }
        _emit(args, payload, [str(out)])
        return EXIT_INVALID
    if args.format == "json":
        print(elim.trace_to_json(out, j.logic))
    else:
        for line in _trace_lines(out):
            print(line)
    return EXIT_OK


def cmd_measure(args) -> int:
    # rank or degree is looked up per call, so a wrapper set on this module is called
    value = {"rank": rank, "degree": degree}[args.command](parse_term(args.term))
    _emit(args, {args.command: value}, [str(value)])
    return EXIT_OK


def cmd_classify(args) -> int:
    phi = parse_formula(args.formula)
    ambient: list = []
    if args.proof:
        j = load_judgment(Path(args.proof).read_text())
        ambient = list(elim.judgment_readings(j))
    readings = recognize_critical(phi)
    payload = []
    lines = []
    for r in readings:
        entry = {
            "kind": r.kind,
            "critical_term": to_text(r.critical_term),
            "witness": to_text(r.witness),
            "predicative": is_predicative(r),
        }
        line = (
            f"[{r.kind}] term {to_text(r.critical_term)}  witness {to_text(r.witness)}  "
            f"{'predicative' if entry['predicative'] else 'impredicative'}"
        )
        if args.proof:
            entry["weak"] = is_weak(r, ambient)
            line += f"  {'weak' if entry['weak'] else 'not weak'}"
        payload.append(entry)
        lines.append(line)
    if not readings:
        lines = ["not a critical formula"]
    _emit(args, {"readings": payload}, lines)
    return EXIT_OK if readings else EXIT_INVALID


def cmd_reconstruct(args) -> int:
    disjunction = parse_formula(args.disjunction)
    skeleton = parse_formula(args.skeleton)
    holes = args.vars.split(",")
    judgment, trace = elim.reconstruct_from_herbrand(disjunction, skeleton, holes)
    payload = {
        "criticals": [to_text(c) for c in judgment.criticals],
        "goal": to_text(judgment.goal),
        "replayed": to_text(trace.result),
    }
    lines = [f"critical: {to_text(c)}" for c in judgment.criticals]
    lines.append(f"goal: {to_text(judgment.goal)}")
    lines.append(f"replayed: {to_text(trace.result)}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_schemas(args) -> int:
    if args.check_relations:
        report = semantics.schema_relations_check()
        ok = all(report.values())
        _emit(
            args,
            {"relations": report},
            [f"{'pass' if v else 'FAIL'}  {k}" for k, v in report.items()],
        )
        return EXIT_OK if ok else EXIT_INVALID
    phi = semantics.schema(args.kind, n=args.n)
    _emit(args, {"schema": to_text(phi)}, [to_text(phi)])
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared, unchanged, by every main call."""
    ap = argparse.ArgumentParser(
        prog="epsitau",
        description="epsilon/tau calculi over intermediate propositional logics",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    budget_help = "max literal assignments (decisions plus propagations) per chain check"
    ap.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=budget_help)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="epsilon/tau translation of a formula")
    p.add_argument("formula")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--shadow", action="store_true", help="print the propositional shadow")
    form.add_argument("--herbrandize", action="store_true", help="print the Herbrand form (prenex input)")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("check", help="validity of a propositional/quantifier-free formula")
    p.add_argument("formula")
    p.add_argument("--logic", default="classical")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify", help="verify a judgment file")
    p.add_argument("judgment")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("eliminate", help="run critical formula elimination on a judgment file")
    p.add_argument("judgment")
    p.add_argument("--driver", choices=tuple(elim.DRIVERS), default="hb")
    p.add_argument("--verify", choices=elim.VERIFY_LEVELS, default="none")
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("rank", help="rank of an epsilon/tau term")
    p.add_argument("term")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("degree", help="degree of an epsilon/tau term")
    p.add_argument("term")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("classify", help="critical readings of a formula")
    p.add_argument("formula")
    p.add_argument("--proof", help="judgment file supplying the ambient critical terms")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("reconstruct", help="rebuild a judgment from a Herbrand disjunction")
    p.add_argument("disjunction")
    p.add_argument("--skeleton", required=True)
    p.add_argument("--vars", required=True, help="comma-separated skeleton variables")
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("schemas", help="print schema instances or check their relations")
    p.add_argument("kind", nargs="?", default="Lin")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--check-relations", action="store_true")
    p.set_defaults(fn=cmd_schemas)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.budget < 0:
        ap.error(f"argument --budget: must be at least 0, not {args.budget}")
    try:
        return args.fn(args)
    except BudgetExceededError as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except elim.EliminationError as ex:
        print(ex, file=sys.stderr)
        return EXIT_INVALID
    except (ParseError, ValueError, OSError, RecursionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
