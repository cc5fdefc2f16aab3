import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from epsitau import eliminate as elim
from epsitau import semantics, syntax
from epsitau.cli import build_parser, main
from epsitau.eliminate import ChainFamily, run_elimination, trace_to_json

from helpers import (
    chain_family,
    chain_witness_judgment,
    dump_judgment,
    grid_judgment,
    instance_formula,
    lc3_worked_judgment,
    random_judgment,
    refutes,
    weak_lin_negative_judgment,
)
from epsitau.judgments import H, KC, lcm, load_judgment, make_judgment
from epsitau.parser import parse_formula
from epsitau.syntax import to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_translate(capsys):
    code, out, _ = run_cli(capsys, "translate", "P(c)")
    assert code == 0 and out.strip() == "P(c)"


def test_translate_nested_shift_formula(capsys):
    code, out, _ = run_cli(capsys, "translate", "ex z. all u. (P(u) -> P(z))")
    assert code == 0
    assert "eps z." in out and "tau u" in out


def test_translate_herbrandize(capsys):
    code, out, _ = run_cli(capsys, "translate", "--herbrandize", "ex z. all u. (P(u) -> P(z))")
    assert code == 0 and out.strip() == "ex z. P(u_1(z)) -> P(z)"


def test_translate_herbrandize_symbol_at_two_arities(capsys):
    # the fresh Skolem names need only avoid the names in use, whatever their arities
    code, out, err = run_cli(capsys, "translate", "--herbrandize", "ex z. all u. (P(f(u)) -> P(f(z, u)))")
    assert (code, err) == (0, "")
    assert out.strip() == "ex z. P(f(u_1(z))) -> P(f(z, u_1(z)))"


def test_translate_herbrandize_non_prenex(capsys):
    code, _, err = run_cli(capsys, "translate", "--herbrandize", "(all x. P(x)) -> Q")
    assert code == 2 and "error" in err


def test_translate_shadow(capsys):
    code, out, _ = run_cli(capsys, "translate", "--shadow", "all x. (P(x) | Q)")
    assert code == 0 and out.strip() == "P | Q"


def test_translate_shadow_and_herbrandize_are_exclusive(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["translate", "--shadow", "--herbrandize", "all x. P(x)"])
    captured = capsys.readouterr()
    assert ex.value.code == 2 and captured.out == ""
    assert "not allowed with argument --shadow" in captured.err


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(capsys, "translate", "P( ->")
    assert code == 2 and "position" in err


def test_check_valid_invalid_budget(capsys):
    code, out, _ = run_cli(capsys, "check", "--logic", "h", "A -> A")
    assert code == 0 and "valid" in out
    code, out, _ = run_cli(capsys, "check", "--logic", "lc4", "(A1->A2)|(A2->A3)|(A3->A4)")
    assert code == 1 and "countervaluation" in out
    code, out, _ = run_cli(capsys, "check", "--logic", "lc", "~A | ~~A")
    assert code == 0
    code, _, err = run_cli(
        capsys, "--budget", "10", "check", "--logic", "lc3", "A1 | A2 | A3 | A4"
    )
    assert code == 3 and "budget" in err


@pytest.mark.parametrize(
    "budget, check",
    [("-1", ["--logic", "lc3", "A | ~A"]), ("-5", ["A -> A"])],
    ids=["lc3-excluded-middle", "classical-identity"],
)
def test_negative_budget_is_a_usage_error(capsys, budget, check):
    with pytest.raises(SystemExit) as ex:
        main(["--budget", budget, "check", *check])
    captured = capsys.readouterr()
    assert ex.value.code == 2 and captured.out == ""
    assert f"error: argument --budget: must be at least 0, not {budget}" in captured.err


def test_zero_budget_is_allowed(capsys):
    assert run_cli(capsys, "--budget", "0", "check", "A -> A") == (0, "valid in classical\n", "")
    code, out, err = run_cli(capsys, "--budget", "0", "check", "--logic", "lc3", "A | ~A")
    assert (code, out) == (3, "") and err.startswith("budget exceeded: ")


def test_check_kc_weak_excluded_middle(capsys):
    code, out, _ = run_cli(capsys, "check", "--logic", "kc", "~A | ~~A")
    assert code == 0 and out == "valid in kc\n"
    code, out, _ = run_cli(capsys, "check", "--logic", "h", "~A | ~~A")
    assert code == 1 and out == "invalid in h\n"


def test_check_lc_refutes_eleven_link_chain(capsys):
    # 12 atoms on the 14-chain: 14^12 valuations, far past any enumeration
    text = " | ".join(f"(A{i} -> A{i + 1})" for i in range(1, 12))
    code, out, _ = run_cli(capsys, "--format", "json", "check", "--logic", "lc", text)
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False and doc["chain_size"] == 14
    assert refutes(parse_formula(text), doc["countervaluation"], doc["chain_size"])


def test_check_quantifier_free_abstraction(capsys):
    code, out, _ = run_cli(capsys, "check", "--logic", "classical", "P(f(c)) | ~P(f(c))")
    assert code == 0


def test_rank_degree_classify(capsys):
    code, out, _ = run_cli(capsys, "rank", "eps x. D(x, eps y. D(x,y))")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "degree", "eps x. P(x, eps y. Q(y))")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(capsys, "classify", "P(f(a)) -> P(eps x. P(x))")
    assert code == 0 and "predicative" in out
    code, out, _ = run_cli(capsys, "classify", "P(c) -> Q(c)")
    assert code == 1


def test_schemas(capsys):
    code, out, _ = run_cli(capsys, "schemas", "Bm", "--n", "2")
    assert code == 0 and out.strip() == "(A1 -> A2) | (A2 -> A3)"
    code, out, _ = run_cli(capsys, "schemas", "--check-relations")
    assert code == 0 and "pass" in out


def test_eliminate_chain_witness_judgment(tmp_path, capsys):
    doc = """logic: classical
critical: P(f(eps x. P(x))) -> P(eps x. P(x))
critical: (P(f(eps x. P(x))) -> P(eps x. P(x))) -> (P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z)))
goal: P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z))
"""
    path = tmp_path / "chain.judgment"
    path.write_text(doc)
    code, out, _ = run_cli(capsys, "eliminate", str(path), "--verify", "full")
    assert code == 0
    assert "result:" in out
    code, out_json, _ = run_cli(capsys, "--format", "json", "eliminate", str(path))
    assert code == 0
    doc1 = json.loads(out_json)
    assert doc1["version"] == 1 and len(doc1["steps"]) == 2
    # determinism: identical bytes across runs
    code, again, _ = run_cli(capsys, "--format", "json", "eliminate", str(path))
    assert out_json == again


def test_eliminate_weak_lin_failure(tmp_path, capsys):
    path = tmp_path / "entangled.judgment"
    path.write_text(dump_judgment(weak_lin_negative_judgment()))
    code, out, _ = run_cli(capsys, "eliminate", str(path), "--driver", "weak-lin")
    assert code == 1
    assert "impredicative" in out


def test_eliminate_empty_criticals(tmp_path, capsys):
    path = tmp_path / "empty.judgment"
    path.write_text("logic: classical\ngoal: Q(c)\n")
    code, out, _ = run_cli(capsys, "eliminate", str(path))
    assert code == 0 and "result: Q(c)" in out


def test_eliminate_jankov_driver(tmp_path, capsys):
    path = tmp_path / "negated.judgment"
    path.write_text(
        "logic: kc\n"
        "critical: A(s1) -> A(eps x. A(x))\n"
        "goal: ~~(A(s1) -> A(eps x. A(x)))\n"
    )
    code, out, _ = run_cli(capsys, "eliminate", str(path), "--driver", "jankov", "--verify", "steps")
    assert code == 0 and "instance" in out


@pytest.mark.parametrize(
    "driver, logic, goal",
    [("hb", "classical", "B"), ("weak-lin", "lc", "B"), ("jankov", "kc", "~B")],
)
def test_eliminate_failed_verification_exits_1(tmp_path, capsys, driver, logic, goal):
    path = tmp_path / "unsound.judgment"
    path.write_text(f"logic: {logic}\ncritical: A(u) -> A(eps x. A(x))\ngoal: {goal}\n")
    code, _, err = run_cli(capsys, "eliminate", str(path), "--driver", driver, "--verify", "steps")
    assert code == 1
    assert err.startswith("verification failed: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "driver, logic, goal, result",
    [
        ("hb", "classical", "{g}", "P(f(a, b)) | (P(f(a)) -> P(c_1)) | (P(f(a)) -> P(f(a)))"),
        ("weak-lin", "lc", "{g}", "P(f(a, b)) | (P(f(a)) -> P(f(a)))"),
        ("jankov", "kc", "~~({g})", "~~({g}) | ~~(P(f(a, b)) | (P(f(a)) -> P(f(a))))"),
    ],
    ids=["hb", "weak-lin", "jankov"],
)
def test_eliminate_symbol_at_two_arities(tmp_path, capsys, driver, logic, goal, result):
    # f is unary in the critical and binary in the goal; every driver runs it
    g = "P(f(a, b)) | (P(f(a)) -> P(eps x. P(x)))"
    path = tmp_path / "arities.judgment"
    path.write_text(f"logic: {logic}\ncritical: P(f(a)) -> P(eps x. P(x))\ngoal: {goal.format(g=g)}\n")
    code, out, err = run_cli(capsys, "eliminate", str(path), "--driver", driver, "--verify", "full")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == f"result: {result.format(g=g)}"


def test_verify_judgment_file(tmp_path, capsys):
    path = tmp_path / "j.judgment"
    path.write_text("logic: lc3\ngoal: (A1 -> A2) | (A2 -> A3) | (A3 -> A4)\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "holds" in out
    path.write_text("logic: lc4\ngoal: (A1 -> A2) | (A2 -> A3) | (A3 -> A4)\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1


def test_verify_rejects_instance_that_is_not_a_theorem(tmp_path, capsys):
    # an instance is certified as a theorem of the logic, never assumed
    path = tmp_path / "free.judgment"
    path.write_text("logic: lc3\ninstance: P(a) -> Q(a)\ninstance: P(a)\ngoal: Q(a)\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out.splitlines()[:2] == ["judgment fails in lc3", "instance P(a) -> Q(a) is not a theorem of lc3"]
    code, out, _ = run_cli(capsys, "--format", "json", "verify", str(path))
    doc = json.loads(out)
    assert code == 1 and doc["holds"] is False and doc["instance"] == "P(a) -> Q(a)"
    counter = doc["countervaluation"]
    assert doc["chain_size"] == 3 and counter["P(a)"] > counter["Q(a)"]
    code, _, err = run_cli(capsys, "eliminate", str(path), "--verify", "steps")
    assert code == 1
    assert err == (
        "verification failed: input judgment: instance P(a) -> Q(a) is not a theorem of lc3: "
        "countervaluation on the 3-chain: {'P(a)': 1, 'Q(a)': 0}\n"
    )


def test_reconstruct(capsys):
    code, out, _ = run_cli(
        capsys,
        "reconstruct",
        "D(a, b) | D(g(a), c)",
        "--skeleton",
        "D(x, y)",
        "--vars",
        "x,y",
    )
    assert code == 0
    assert "replayed: D(a, b) | D(g(a), c)" in out


@pytest.mark.parametrize(
    "names, message",
    [
        ("x,x", "skeleton variables must be distinct"),
        ("", "skeleton variable names must not be empty"),
        ("x,", "skeleton variable names must not be empty"),
    ],
)
def test_reconstruct_checks_the_variable_names_before_matching(capsys, names, message):
    # neither disjunct matches the skeleton, so a later check would report that
    code, out, err = run_cli(capsys, "reconstruct", "P(c, d) | P(e, f)", "--skeleton", "P(x, y)", "--vars", names)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_reconstruct_refuses_a_skeleton_with_an_epsilon_term(capsys):
    # the replay would ground the skeleton's own term as a residue and print
    # P(a, c_1) | P(b, c_1), which is not the input
    code, out, err = run_cli(
        capsys, "reconstruct", "P(a, eps z. Q(z)) | P(b, eps z. Q(z))", "--skeleton", "P(x, eps z. Q(z))", "--vars", "x"
    )
    assert (code, out, err) == (2, "", "error: the skeleton must be epsilon/tau free: P(x, eps z. Q(z))\n")


def test_reconstruct_renames_holes_apart_from_the_free_variables(capsys):
    # x and y are free in the disjunction, so the holes print as x' and y'
    # (y'' where y' is already bound)
    code, out, err = run_cli(capsys, "reconstruct", "P(x, a) | P(b, y)", "--skeleton", "P(x, y)", "--vars", "x,y")
    assert (code, err) == (0, "")
    ey = "eps y'. P(eps x'. P(x', eps y''. P(x', y'')), y')"
    goal = f"P(eps x'. P(x', eps y'. P(x', y')), {ey})"
    assert out.splitlines() == [
        "critical: P(x, a) -> P(x, eps y'. P(x, y'))",
        f"critical: P(x, eps y'. P(x, y')) -> {goal}",
        "critical: P(b, y) -> P(b, eps y'. P(b, y'))",
        f"critical: P(b, eps y'. P(b, y')) -> {goal}",
        f"goal: {goal}",
        "replayed: P(x, a) | P(b, y)",
    ]


def test_eliminate_grounding_avoids_an_input_name(tmp_path, capsys):
    # c_1 is taken by the goal, so the residual terms become c_2 and c_3
    path = tmp_path / "ground.judgment"
    path.write_text(
        "logic: classical\ncritical: A(u) -> A(eps x. A(x))\n"
        "goal: A(u) -> A(eps x. A(x)) | B(eps y. B(y)) & A(c_1)\n"
    )
    code, out, err = run_cli(capsys, "eliminate", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-3:] == [
        "ground eps x. A(x) as c_2",
        "ground eps y. B(y) as c_3",
        "result: (A(u) -> A(c_2) | B(c_3) & A(c_1)) | (A(u) -> A(u) | B(c_3) & A(c_1))",
    ]


@pytest.mark.parametrize(
    "text, line, key",
    [
        ("logic: classical\ngoal: A\ngoal: B | ~B\n", 3, "goal"),
        ("logic: h\nlogic: classical\ngoal: B | ~B\n", 2, "logic"),
    ],
    ids=["goal", "logic"],
)
def test_verify_rejects_a_second_logic_or_goal_line(tmp_path, capsys, text, line, key):
    path = tmp_path / "twice.judgment"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line {line}: a second '{key}:' line\n"


def test_unknown_logic_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "check", "--logic", "nonsense", "A")
    assert code == 2


def test_verify_prints_countervaluation_of_failed_query(tmp_path, capsys):
    # the three-link chain schema fails on the 4-chain: strictly descending values
    path = tmp_path / "chain.judgment"
    path.write_text("logic: lc4\ngoal: (A1 -> A2) | (A2 -> A3) | (A3 -> A4)\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out.splitlines() == [
        "judgment fails in lc4",
        "countervaluation on the 4-chain: {'A1': 3, 'A2': 2, 'A3': 1, 'A4': 0}",
    ]
    code, out, _ = run_cli(capsys, "--format", "json", "verify", str(path))
    doc = json.loads(out)
    assert code == 1 and doc["holds"] is False and "instance" not in doc
    assert doc["chain_size"] == 4
    assert doc["countervaluation"] == {"A1": 3, "A2": 2, "A3": 1, "A4": 0}
    path.write_text("logic: classical\ncritical: A(u) -> A(eps x. A(x))\ngoal: B\n")
    code, _, err = run_cli(capsys, "eliminate", str(path), "--verify", "steps")
    assert code == 1
    assert err.startswith("verification failed: input judgment: countervaluation on the 2-chain: {")
    assert "'B': 0" in err


def test_verify_decides_a_failing_judgment_once(tmp_path, capsys, monkeypatch):
    calls = []
    decide = semantics.decide

    def counting_decide(*args, **kwargs):
        calls.append(args)
        return decide(*args, **kwargs)

    monkeypatch.setattr(semantics, "decide", counting_decide)
    path = tmp_path / "chain.judgment"
    path.write_text("logic: lc4\ngoal: (A1 -> A2) | (A2 -> A3) | (A3 -> A4)\n")
    code, _, _ = run_cli(capsys, "verify", str(path))
    assert code == 1 and len(calls) == 1


def _weak_lin_text(witnesses: int) -> str:
    e = "eps x. A(x)"
    lines = ["logic: lc", *(f"critical: A(u{i}) -> A({e})" for i in range(1, witnesses + 1))]
    return "\n".join(lines + [f"goal: A(u1) & A(u2) -> A({e})"]) + "\n"


@pytest.mark.parametrize("driver", ["hb", "weak-lin"])
def test_verified_run_decides_each_query_once_and_no_recorded_instance(
    tmp_path, capsys, monkeypatch, driver
):
    calls = []
    decide = semantics.decide

    def counting_decide(logic, premises, goal, *rest):
        calls.append((tuple(premises), goal))
        return decide(logic, premises, goal, *rest)

    monkeypatch.setattr(semantics, "decide", counting_decide)
    path = tmp_path / "run.judgment"
    path.write_text(dump_judgment(grid_judgment("lc3", 2)) if driver == "hb" else _weak_lin_text(6))
    argv = ["--format", "json", "eliminate", str(path), "--driver", driver, "--verify", "full"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    # the JSON trace lists every member, a Bm step's chains included
    steps = json.loads(out)["steps"]
    recorded = {parse_formula(i) for st in steps for i in st["axiom_instances"]}
    # the input, then each step's criticals -> goal; the final result is the
    # last step's goal with no premises left, so it is not decided again
    assert len(calls) == len(set(calls)) == 1 + len(steps)
    assert recorded and not recorded & {goal for _, goal in calls}


def test_eliminate_verify_full_reports_countervaluation_of_result(tmp_path, capsys):
    path = tmp_path / "b.judgment"
    path.write_text("logic: classical\ncritical: B\ngoal: B\n")
    code, out, err = run_cli(capsys, "eliminate", str(path), "--verify", "full")
    assert code == 1 and out == ""
    assert err == "verification failed: final result: countervaluation on the 2-chain: {'B': 0}\n"
    code, out, _ = run_cli(capsys, "eliminate", str(path), "--verify", "steps")
    assert code == 0 and out.splitlines()[-1] == "result: B"


@pytest.mark.parametrize(
    "driver, logic, instance",
    [("weak-lin", "lc", "P | ~P"), ("jankov", "kc", "(P -> Q) | (Q -> P)")],
)
def test_eliminate_checks_input_instances_on_every_driver(tmp_path, capsys, driver, logic, instance):
    # an instance given in the input is certified by the input check, since
    # no later step carries it
    path = tmp_path / "refuted.judgment"
    path.write_text(
        f"logic: {logic}\n"
        "critical: A(u) -> A(eps x. A(x))\n"
        f"instance: {instance}\n"
        "goal: ~~(A(u) -> A(eps x. A(x)))\n"
    )
    code, out, err = run_cli(capsys, "eliminate", str(path), "--driver", driver, "--verify", "steps")
    assert code == 1 and out == ""
    # a chain refutes the instance with a countervaluation; the prover gives none
    detail = ": countervaluation on the 3-chain: {'P': 1}" if logic == "lc" else ""
    assert err == f"verification failed: input judgment: instance {instance} is not a theorem of {logic}{detail}\n"


# ---------------------------------------------------------------------------
# One Verdict printer: every failing path prints what Verdict.describe says


def _described(verdict, logic):
    lines, keys = verdict.describe(logic)
    assert lines and keys  # a chain failure always carries a countervaluation
    return lines, keys


def test_check_prints_the_verdict_description(capsys):
    verdict = semantics.decide(lcm(3), [], parse_formula("A | ~A"))
    lines, keys = _described(verdict, lcm(3))
    code, out, _ = run_cli(capsys, "check", "--logic", "lc3", "A | ~A")
    assert code == 1 and out.splitlines() == ["invalid in lc3", *lines]
    code, out, _ = run_cli(capsys, "--format", "json", "check", "--logic", "lc3", "A | ~A")
    assert code == 1 and json.loads(out) == {"logic": "lc3", "valid": False, **keys}


@pytest.mark.parametrize("logic", [H, KC], ids=["h", "kc"])
def test_check_prints_the_classical_refutation_on_h_and_kc(capsys, logic):
    lines, keys = _described(semantics.decide(logic, [], parse_formula("A | B")), logic)
    assert keys == {"chain_size": 2, "countervaluation": {"A": 0, "B": 0}}
    code, out, _ = run_cli(capsys, "check", "--logic", str(logic), "A | B")
    assert code == 1 and out.splitlines() == [f"invalid in {logic}", *lines]
    code, out, _ = run_cli(capsys, "--format", "json", "check", "--logic", str(logic), "A | B")
    assert code == 1 and json.loads(out) == {"logic": str(logic), "valid": False, **keys}


@pytest.mark.parametrize("logic", ["h", "kc"])
def test_h_kc_check_ignores_the_budget(capsys, logic):
    # the prover answers when the classical check runs out of budget
    code, out, err = run_cli(capsys, "--budget", "0", "check", "--logic", logic, "(A -> B) | B")
    assert (code, out, err) == (1, f"invalid in {logic}\n", "")


def test_eliminate_error_on_kc_carries_the_classical_refutation(tmp_path, capsys):
    path = tmp_path / "refuted.judgment"
    path.write_text(
        "logic: kc\ncritical: A(u) -> A(eps x. A(x))\ninstance: P\n"
        "goal: ~~(A(u) -> A(eps x. A(x)))\n"
    )
    code, out, err = run_cli(capsys, "eliminate", str(path), "--driver", "jankov", "--verify", "steps")
    assert code == 1 and out == ""
    assert err == (
        "verification failed: input judgment: instance P is not a theorem of kc: "
        "countervaluation on the 2-chain: {'P': 0}\n"
    )


@pytest.mark.parametrize(
    "text",
    [
        "logic: lc3\ninstance: P(a) -> Q(a)\ninstance: P(a)\ngoal: Q(a)\n",
        "logic: lc4\ngoal: (A1 -> A2) | (A2 -> A3) | (A3 -> A4)\n",
    ],
    ids=["refuted-instance", "failed-query"],
)
def test_verify_prints_the_verdict_description(tmp_path, capsys, text):
    j = load_judgment(text)
    lines, keys = _described(semantics.verify_judgment(j), j.logic)
    assert ("instance" in keys) == bool(j.instances)
    path = tmp_path / "j.judgment"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 1 and out.splitlines() == [f"judgment fails in {j.logic}", *lines]
    code, out, _ = run_cli(capsys, "--format", "json", "verify", str(path))
    assert code == 1 and json.loads(out) == {"logic": str(j.logic), "holds": False, **keys}


@pytest.mark.parametrize(
    "text, options, where, query",
    [
        (
            "logic: lc\ncritical: A(u) -> A(eps x. A(x))\ninstance: P | ~P\n"
            "goal: ~~(A(u) -> A(eps x. A(x)))\n",
            ["--driver", "weak-lin", "--verify", "steps"], "input judgment", None,
        ),
        ("logic: classical\ncritical: B\ngoal: B\n", ["--verify", "full"], "final result", "B"),
    ],
    ids=["refuted-input-instance", "failed-final-result"],
)
def test_eliminate_error_carries_the_verdict_description(tmp_path, capsys, text, options, where, query):
    j = load_judgment(text)
    checked = j if query is None else make_judgment(j.logic, [], parse_formula(query))
    lines, _ = _described(semantics.verify_judgment(checked), j.logic)
    path = tmp_path / "j.judgment"
    path.write_text(text)
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, "--format", fmt, "eliminate", str(path), *options)
        assert code == 1 and out == ""
        assert err == ": ".join([f"verification failed: {where}", *lines]) + "\n"


# ---------------------------------------------------------------------------
# Deep formulas: no recursion per nested negation, and a crash is never "invalid"


@pytest.mark.parametrize("logic", ["h", "kc"])
def test_check_reads_and_proves_a_thousand_nested_negations(capsys, logic):
    tower = "~" * 1000 + "A"
    code, out, err = run_cli(capsys, "check", "--logic", logic, f"({tower} & B) -> {tower}")
    assert (code, out, err) == (0, f"valid in {logic}\n", "")


def test_check_kc_decides_a_negative_tower_classically(capsys):
    # ~^900 A | ~^901 A is ~~A | ~A: a classically valid disjunction of
    # negations holds in KC, so the prover is not asked
    formula = "~" * 900 + "A | " + "~" * 901 + "A"
    assert run_cli(capsys, "check", "--logic", "kc", formula) == (0, "valid in kc\n", "")


@pytest.mark.parametrize(
    "logic, formula, answer",
    [
        ("h", "~" * 900 + "A | " + "~" * 901 + "A", (1, "invalid in h\n", "")),
        ("kc", "(" + "~" * 900 + "A | " + "~" * 901 + "A) & (B -> B)", (0, "valid in kc\n", "")),
    ],
    ids=["h", "kc"],
)
def test_prover_reads_a_negation_tower_as_at_most_two_negations(capsys, logic, formula, answer):
    # ~^900 A | ~^901 A is ~~A | ~A: classically valid, not in H; with
    # B -> B it is no negative goal in KC either, so the prover decides both
    assert run_cli(capsys, "check", "--logic", logic, formula) == answer


def test_prover_recursion_limit_is_not_an_invalid_answer():
    # A1 -> A2 -> ... -> A3000 -> A1 is valid in H, and the prover opens
    # its 3,000 nested implications one recursive call each, which runs out
    # of stack; that must end as an error, never as exit 1 ("invalid")
    formula = " -> ".join(f"A{i}" for i in range(1, 3001)) + " -> A1"
    src = str(Path(semantics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-m", "epsitau", "check", "--logic", "h", formula],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode in (0, 2), run.stderr
    assert "Traceback" not in run.stderr
    if run.returncode == 2:
        assert run.stderr.startswith("error: ") and len(run.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "golden, judgment, verify",
    [
        ("lc3_worked_trace.txt", lc3_worked_judgment, "full"),
        ("grid_lc4_k2_trace.txt", lambda: grid_judgment("lc4", 2), "none"),
        ("grid_lc5_k3_trace.txt", lambda: grid_judgment("lc5", 3), "none"),  # words of length 4 over 3 contexts
    ],
    ids=["lc3-worked", "grid-lc4-k2", "grid-lc5-k3"],
)
def test_eliminate_text_trace_matches_golden(capsys, tmp_path, golden, judgment, verify):
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(judgment()))
    code, out, err = run_cli(capsys, "eliminate", str(path), "--verify", verify)
    expected = (Path(__file__).parent / "golden" / golden).read_bytes()
    assert (code, out.encode(), err) == (0, expected, "")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("judgment, grounded", [(lambda: grid_judgment("lc4", 2), False),
                                                (chain_witness_judgment, True)],
                         ids=["grid-lc4-k2", "chain-witness-grounded"])
def test_result_is_printed_once_when_it_is_the_last_goal(capsys, tmp_path, monkeypatch, fmt, judgment, grounded):
    # a result that is the last step's goal is rendered once, for the goal,
    # and printed from that text; a grounded result is rendered on its own
    traces, formatted = [], []
    run, fmt_ = elim.run_elimination, syntax._fmt
    monkeypatch.setattr(elim, "run_elimination", lambda *a, **k: traces.append(run(*a, **k)) or traces[-1])
    monkeypatch.setattr(syntax, "_fmt", lambda obj, *a, **k: formatted.append(obj) or fmt_(obj, *a, **k))
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(judgment()))
    code, out, err = run_cli(capsys, "--format", fmt, "eliminate", str(path))
    [trace] = traces
    goal = trace.steps[-1].after.goal
    assert (code, err, trace.result is goal, bool(trace.grounding)) == (0, "", not grounded, grounded)
    assert sum(obj is trace.result for obj in formatted) == sum(obj is goal for obj in formatted) == 1
    if fmt == "json":
        doc = json.loads(out)
        printed, last = doc["result"], doc["steps"][-1]["goal_after"]
    else:
        [printed] = [line.removeprefix("result: ") for line in out.splitlines() if line.startswith("result: ")]
        last = [line for line in out.splitlines() if line.startswith("  goal: ")][-1].removeprefix("  goal: ")
    assert (printed, printed == last) == (to_text(trace.result), not grounded)


def test_lc6_k4_cell_builds_the_same_nodes(capsys, tmp_path, monkeypatch):
    # the grid cell's elimination and text trace construct 16,587 nodes, 67
    # of them intern-table hits; the same count of each class as ever: a
    # node costs less to build, and none goes unbuilt or is built otherwise
    built, hits = [], []
    intern = syntax._intern

    def count(node):
        built.append(type(node).__name__)
        out = intern(node)
        hits.append(out is not node)
        return out

    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(grid_judgment("lc6", 4)))
    monkeypatch.setattr(syntax, "_intern", count)
    code, out, err = run_cli(capsys, "eliminate", str(path), "--verify", "none")
    assert (code, err) == (0, "")
    assert (len(built), sum(hits)) == (16587, 67)
    assert Counter(built) == {"And": 2, "App": 4099, "Atom": 4194, "Bound": 22, "Eps": 32,
                              "Implies": 4119, "Or": 4094, "Var": 25}


def _trace_blocks(text: str) -> list[list[str]]:
    """The indented lines of each step of a text trace, in order."""
    blocks: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("step "):
            blocks.append([])
        elif line.startswith("  "):
            blocks[-1].append(line)
    return blocks


def _compound_matrix_judgment():
    """The lc3 grid cell with k = 2 for e = eps x. (A(x) & B(x)): its atoms are conjunctions."""
    e = "eps x. (A(x) & B(x))"
    m = lambda t: f"A({t}) & B({t})"
    lines = ["logic: lc3", *(f"critical: {m(w)} -> {m(e)}" for w in (f"s1({e})", f"s2({e})", "u1", "u2"))]
    return load_judgment("\n".join([*lines, f"goal: {m('u1')} -> {m(e)}"]) + "\n")


def _implication_matrix_judgment():
    """The lc3 grid cell with k = 2 for e = eps x. (A(x) -> B(x)): its atoms are
    implications, which take parentheses on the left of ->."""
    e = "eps x. (A(x) -> B(x))"
    m = lambda t: f"(A({t}) -> B({t}))"
    lines = ["logic: lc3", *(f"critical: {m(w)} -> {m(e)}" for w in (f"s1({e})", f"s2({e})", "u1", "u2"))]
    return load_judgment("\n".join([*lines, f"goal: {m('u1')} -> {m(e)}"]) + "\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_trace_of_an_implication_matrix_parses_back(capsys, tmp_path, monkeypatch, fmt):
    # the instances are filled from templates before each goal, through the
    # same memo, with the implications that stand on the left of the goal's
    # disjuncts; every goal and the result still parse back to their formulas
    traces = []
    run = elim.run_elimination
    monkeypatch.setattr(elim, "run_elimination", lambda *a, **k: traces.append(run(*a, **k)) or traces[-1])
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(_implication_matrix_judgment()))
    code, out, err = run_cli(capsys, "--format", fmt, "eliminate", str(path), "--verify", "none")
    [trace] = traces
    if fmt == "json":
        doc = json.loads(out)
        goals, [result] = [st["goal_after"] for st in doc["steps"]], [doc["result"]]
    else:
        goals = [line[8:] for line in out.splitlines() if line.startswith("  goal: ")]
        [result] = [line[8:] for line in out.splitlines() if line.startswith("result: ")]
    assert (code, err, trace.result_is_last_goal, len(goals)) == (0, "", True, len(trace.steps))
    assert [parse_formula(g) for g in goals] == [st.after.goal for st in trace.steps]
    assert parse_formula(result) == trace.result


@pytest.mark.parametrize(
    "judgment",
    [lambda: grid_judgment("lc4", 3), _compound_matrix_judgment, _implication_matrix_judgment],
    ids=["grid-lc4-k3", "compound-matrix", "implication-matrix"],
)
def test_instance_lines_print_as_their_formulas(capsys, tmp_path, monkeypatch, judgment):
    # both traces print each instance from its shape's template; printing
    # the built formula instead, through the same memo, gives the same bytes
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(judgment()))
    outputs = []
    for through_formula in (False, True):
        if through_formula:
            monkeypatch.setattr(
                semantics.Instance, "text", lambda self, memo: to_text(instance_formula(self), memo)
            )
        argv = ["eliminate", str(path), "--verify", "none"]
        outputs.append([run_cli(capsys, *fmt, *argv) for fmt in ([], ["--format", "json"])])
    assert outputs[0] == outputs[1]
    (code, text, err), (_, doc, _) = outputs[0]
    assert (code, err) == (0, "")
    members = [st["axiom_instances"] for st in json.loads(doc)["steps"]]
    assert sum(map(len, members)) >= 17
    # the text trace prints a Bm step's chains as one family line, and
    # every other step's instances one a line, as the JSON lists them
    blocks = _trace_blocks(text)
    assert len(blocks) == len(members)
    families = 0
    for block, listed in zip(blocks, members):
        lines = [line[12:] for line in block if line.startswith("  instance: ")]
        family = [line for line in block if line.startswith("  instances: ")]
        if family:
            assert lines == [] and len(family) == 1 and len(listed) > 1
            families += 1
        else:
            assert lines == listed
    assert 0 < families < len(members)


def _family_polarities(capsys, tmp_path, j) -> list[str]:
    """The polarity of each family line in j's text trace, after checking
    that each line's chains, rebuilt from the line, are the step's records
    and that its count is the number of the step's JSON members."""
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(j))
    code, text, err = run_cli(capsys, "eliminate", str(path))
    _, doc, _ = run_cli(capsys, "--format", "json", "eliminate", str(path))
    steps = run_elimination(load_judgment(path.read_text())).steps
    listed = [st["axiom_instances"] for st in json.loads(doc)["steps"]]
    blocks = _trace_blocks(text)
    assert (code, err) == (0, "") and len(blocks) == len(listed) == len(steps)
    polarities = []
    for st, block, members in zip(steps, blocks, listed):
        family = [line for line in block if line.startswith("  instances: ")]
        if st.axiom_instances_used[0].kind != "Bm":
            assert family == []
            continue
        assert len(family) == 1 and not any(line.startswith("  instance: ") for line in block)
        count, chains = chain_family(st, family[0])
        assert count == len(st.axiom_instances_used) == len(members)
        assert chains == list(st.axiom_instances_used)
        polarities.append(st.axiom_instances_used[0].polarity)
    return polarities


@pytest.mark.parametrize(
    "judgment",
    [
        *(lambda n=n, k=k: grid_judgment(f"lc{n}", k) for n in range(2, 7) for k in range(1, 5)),
        lc3_worked_judgment,
        _compound_matrix_judgment,
    ],
    ids=[*(f"grid-lc{n}-k{k}" for n in range(2, 7) for k in range(1, 5)), "lc3-worked", "compound-matrix"],
)
def test_family_line_rebuilds_the_step_chains(capsys, tmp_path, judgment):
    assert _family_polarities(capsys, tmp_path, judgment()) == ["eps"]


def test_family_lines_of_random_judgments_rebuild_their_chains(capsys, tmp_path):
    rng = random.Random(11)
    polarities = [
        p for logic in (lcm(2), lcm(3), lcm(4)) for _ in range(15)
        for p in _family_polarities(capsys, tmp_path, random_judgment(rng, logic, "hb"))
    ]
    assert {"eps", "tau"} <= set(polarities)


_E, _T = "eps x. A(x)", "tau x. A(x)"


@pytest.mark.parametrize(
    "logic, criticals, goal, count",
    [
        ("lc3", [f"A(f({_E})) -> A({_E})", f"A(f(f({_E}))) -> A({_E})", f"A(u) -> A({_E})"], f"A(u) -> A({_E})", 12),
        (
            "lc3",
            [
                f"A(g({_E}, c)) -> A({_E})", f"A(g(c, {_E})) -> A({_E})", f"A(g({_E}, {_E})) -> A({_E})",
                f"A(u1) -> A({_E})", f"A(u2) -> A({_E})",
            ],
            f"A(u1) -> A({_E})",
            45,
        ),
        (
            "lc4",
            [f"A(f({_E})) -> A({_E})", f"A(f(f({_E}))) -> A({_E})", f"A(f(f(f({_E})))) -> A({_E})", f"A(u) -> A({_E})"],
            f"A(u) -> A({_E})",
            108,
        ),
        (
            "lc3",
            [f"A({_T}) -> A(f({_T}))", f"A({_T}) -> A(f(f({_T})))", f"A({_T}) -> A(u1)", f"A({_T}) -> A(u2)"],
            f"A({_T}) -> A(u1)",
            16,
        ),
    ],
    ids=["lc3-nested", "lc3-overlapping", "lc4-nested", "lc3-tau-nested"],
)
def test_chain_count_closed_form_where_contexts_nest_or_overlap(capsys, tmp_path, logic, criticals, goal, count):
    # k^m + |firsts| k^(m-1) chains, none repeated, though one context occurs inside another
    path = tmp_path / "judgment.txt"
    path.write_text("\n".join([f"logic: {logic}", *(f"critical: {c}" for c in criticals), f"goal: {goal}"]) + "\n")
    code, text, err = run_cli(capsys, "eliminate", str(path))
    _, doc, _ = run_cli(capsys, "--format", "json", "eliminate", str(path))
    step = run_elimination(load_judgment(path.read_text())).steps[0]
    family = step.axiom_instances_used
    assert isinstance(family, ChainFamily) and len(family) == count  # read before any member is built
    members = list(iter(family))
    assert (code, err) == (0, "") and len(members) == count
    assert len(json.loads(doc)["steps"][0]["axiom_instances"]) == count
    [line] = [line for line in text.splitlines() if line.startswith("  instances: ")]
    assert chain_family(step, line) == (count, members)


def test_text_trace_builds_no_chain(capsys, tmp_path, monkeypatch):
    def refuse(family):
        raise AssertionError("the text trace built the members of a chain family")

    monkeypatch.setattr(ChainFamily, "_expand", refuse)
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(grid_judgment("lc4", 2)))
    code, out, err = run_cli(capsys, "eliminate", str(path), "--verify", "full")
    expected = (Path(__file__).parent / "golden" / "grid_lc4_k2_trace.txt").read_bytes()
    assert (code, out.encode(), err) == (0, expected, "")


def test_json_trace_builds_each_chain_family_once(capsys, tmp_path, monkeypatch):
    built = []
    expand = ChainFamily._expand

    def counted(family):
        built.append(family)
        return expand(family)

    monkeypatch.setattr(ChainFamily, "_expand", counted)
    j = grid_judgment("lc6", 4)
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(j))
    code, doc, err = run_cli(capsys, "--format", "json", "eliminate", str(path))
    assert (code, err, len(built)) == (0, "", 1)
    built.clear()
    trace = run_elimination(load_judgment(path.read_text()))
    [family] = [st.axiom_instances_used for st in trace.steps if isinstance(st.axiom_instances_used, ChainFamily)]
    assert built == []
    assert [trace_to_json(trace, j.logic) + "\n" for _ in range(2)] == [doc, doc]
    assert len(list(family)) == len(family) == 6144
    assert len(built) == 1 and built[0] is family


def test_cached_parser_carries_no_state_between_calls(capsys, tmp_path, monkeypatch):
    # one process runs the calls in a row, each as a fresh process would
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line at the terminal width
    path = tmp_path / "chain.judgment"
    path.write_text("logic: lc4\ngoal: (A1 -> A2) | (A2 -> A3) | (A3 -> A4)\n")
    calls = [
        ["--format", "json", "check", "--logic", "lc3", "A | ~A"],
        ["check", "--logic", "lc3", "A | ~A"],
        ["--budget", "5", "verify", str(path)],
        ["check", "--logic"],
        ["rank", "eps x. D(x, eps y. D(x, y))"],
    ]
    src = str(Path(semantics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    codes = []
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as ex:  # argparse rejects the argv
            code = ex.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "epsitau", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [1, 1, 3, 2, 0]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("goal, result", [("(A | B) | C", "A | B | C"), ("A | A", "A")])
def test_eliminate_without_a_step_prints_a_flat_disjunction_of_distinct_disjuncts(
    tmp_path, capsys, goal, result
):
    path = tmp_path / "judgment.txt"
    path.write_text(f"logic: classical\ngoal: {goal}\n")
    assert run_cli(capsys, "eliminate", str(path)) == (0, f"result: {result}\n", "")


def test_grid_result_prints_as_the_last_goal(tmp_path, capsys):
    j = grid_judgment("lc4", 2)
    path = tmp_path / "judgment.txt"
    path.write_text(dump_judgment(j))
    _, text, _ = run_cli(capsys, "eliminate", str(path))
    goals = [line[8:] for line in text.splitlines() if line.startswith("  goal: ")]
    assert text.splitlines()[-1] == f"result: {goals[-1]}"
    _, doc, _ = run_cli(capsys, "--format", "json", "eliminate", str(path))
    doc = json.loads(doc)
    assert doc["result"] == doc["steps"][-1]["goal_after"] == goals[-1]
