"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines.  Expected values are fixed either by the independent oracles in
helpers.py or by the package's decidable backends.
"""

import random

from epsitau.critical import is_predicative, make_critical, recognize_critical
from epsitau.eliminate import (
    FailureReport,
    eliminate_complete_Gm,
    eliminate_complete_classical,
    eliminate_negated_jankov,
    judgment_measure,
    judgment_readings,
    reconstruct_from_herbrand,
    run_elimination,
)
from epsitau.judgments import CLASSICAL, KC, make_judgment
from epsitau.parser import parse_formula as pf, parse_term as pt
from epsitau.semantics import (
    eval_godel,
    prove_H,
    schema,
    lc_chain_size,
    schema_relations_check,
    valid_in_LCm,
    verify_judgment,
)
from epsitau.syntax import Implies, Not, contains_etau, match_holes, or_spine
from epsitau.translate import shadow

from helpers import (
    chain_witness_judgment,
    godel_oracle,
    is_implication_chain,
    lc3_worked_judgment,
    random_classical_judgment,
    random_matrix,
    random_term,
    recorded,
    standard_quantifier_axioms,
    recorded_judgment,
    taut_oracle,
    weak_lin_negative_judgment,
)
from paper import (
    CRITICAL_KINDS,
    MP_KINDS,
    QuantifierShiftKind,
    bm_extract,
    counterexample_Bm,
    eliminate_single_classical,
    quantifier_shift_instance,
)


def report(number: int, title: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {title}")
    assert ok, f"criterion {number} failed: {title}"


def test_criterion_1_chain_witness_pipeline():
    trace = run_elimination(chain_witness_judgment(), verify="steps")
    result = trace.result
    ok = not contains_etau(result)
    skeleton = pf("P(f(z)) -> P(z)")
    for d in or_spine(result):
        binding = match_holes(skeleton, d, {"z"})
        ok = ok and binding is not None
    ok = ok and taut_oracle(result)
    ok = ok and bm_extract(result, "f", "P") <= 2
    report(1, "chain-witness pipeline ends in a matching classical tautology", ok)


def test_criterion_2_schema_table():
    ok = True
    for m in range(2, 6):
        bm = schema("Bm", n=m)
        ok = ok and valid_in_LCm(bm, m)[0]
        invalid, _ = valid_in_LCm(bm, m + 1)
        ok = ok and not invalid
        refuting = counterexample_Bm(m)
        ok = ok and eval_godel(bm, refuting, m + 1) < m
        ok = ok and valid_in_LCm(schema("Lin"), m)[0]
    ok = ok and valid_in_LCm(schema("J"), lc_chain_size(schema("J")))[0]
    ok = ok and not valid_in_LCm(schema("EM"), 3)[0]
    report(2, "chain schema validity table with explicit refuting valuations", ok)


def test_criterion_3_quantifier_shift_coverage():
    from epsitau.syntax import eps, tau

    matrix, hole, side = pf("A(x)"), "x", pf("B")
    ok = True
    for kind in CRITICAL_KINDS:
        si = quantifier_shift_instance(
            kind, matrix, hole, None if kind is QuantifierShiftKind.K else side
        )
        cert = si.certificate
        # one of t1/t2 is the abstraction of the table's matrix; the reading
        # pairs it with the other term as witness
        eps_c = eps(cert.hole, cert.matrix)
        tau_c = tau(cert.hole, cert.matrix)
        if cert.t2 == eps_c:
            expected_term, expected_witness = cert.t2, cert.t1
        else:
            assert cert.t1 == tau_c, f"table row {kind} has no matrix abstraction"
            expected_term, expected_witness = cert.t1, cert.t2
        readings = recognize_critical(si.translation)
        ok = ok and any(
            r.critical_term == expected_term and r.witness == expected_witness
            for r in readings
        )
    for kind in MP_KINDS:
        si = quantifier_shift_instance(kind, matrix, hole, side)
        cert = si.certificate
        ok = ok and prove_H([], cert.principle)
        ok = ok and verify_judgment(
            make_judgment(KC, [cert.critical, cert.principle], si.translation)
        )
    report(3, "all seventeen shift rows certified and recognized", ok)


def test_criterion_4_conservativity():
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        matrix = random_matrix(rng, 3, "x")
        witness = random_term(rng, 2, [])
        kind = "eps" if rng.random() < 0.5 else "tau"
        c = make_critical(matrix, "x", kind, witness)
        ok = ok and prove_H([], shadow(c.rendered))
    for ax in standard_quantifier_axioms(pf("A(x)"), "x", pt("f(c)")):
        s = shadow(ax)
        ok = ok and isinstance(s, Implies) and s.left == s.right
    for kind in CRITICAL_KINDS:
        si = quantifier_shift_instance(
            kind, pf("A(x)"), "x", None if kind is QuantifierShiftKind.K else pf("B")
        )
        s = shadow(si.shift)
        ok = ok and isinstance(s, Implies) and s.left == s.right
    report(4, "shadows of critical formulas and shifts are provable self-implications", ok)


def test_criterion_5_lc3_worked_example():
    j = lc3_worked_judgment()
    e = pt("eps x. A(x)")
    steps = eliminate_complete_Gm(j, e, 3)
    expansion = steps[0]
    words = ["", "s", "t", "ss", "st", "ts", "tt"]

    def apply_word(w):
        out = "eps x. A(x)"
        for ch in reversed(w):
            out = f"{ch}({out})"
        return pt(out)

    ok = expansion.elimination_set == tuple(apply_word(w) for w in words)
    ok = ok and len(or_spine(expansion.after.goal)) == 7
    # every recorded length-3 chain matches the three-link schema shape
    lambda_instances = [inst for inst in recorded(expansion)[:8] if len(or_spine(inst)) == 3]
    ok = ok and len(lambda_instances) == 8
    ok = ok and all(is_implication_chain(i) for i in lambda_instances)
    # independent oracle: every instance either step records is valid on the 3-chain
    for inst in (i for st in steps for i in recorded(st)):
        ok = ok and godel_oracle(inst, 3)
    final = recorded_judgment(steps[-1])
    ok = ok and len(or_spine(final.goal)) == 14 and len(final.instances) == 1
    ok = ok and verify_judgment(final)
    report(5, "three-valued worked example: 7-word expansion and verified finish", ok)


def test_criterion_6_disjunct_count_bound():
    # The one-at-a-time comparison.  The iterated construction's displayed
    # term sets compose to 2^k members for k critical formulas (the product
    # of the per-step sets), against at most k+1 for the complete set.
    ok = True
    for k in (2, 3):
        witnesses = ["c", "d", "c_1"][:k]
        criticals = [pf(f"A({w}) -> A(eps x. A(x))") for w in witnesses]
        j = make_judgment(CLASSICAL, criticals, criticals[0])
        complete = eliminate_complete_classical(j, pt("eps x. A(x)"))
        ok = ok and complete.raw_disjunct_count <= k + 1
        current = j
        product = 1
        for _ in range(k):
            readings = [
                r
                for f in current.criticals
                for r in recognize_critical(f)
                if r.critical_term == pt("eps x. A(x)")
            ]
            st = eliminate_single_classical(current, readings[0])
            product *= len(st.elimination_set)
            current = st.after
        ok = ok and product == 2**k
        for downstream in (complete.after, current):
            tr = run_elimination(make_judgment(CLASSICAL, downstream.criticals, downstream.goal))
            ok = ok and taut_oracle(tr.result)
    report(6, "complete set stays linear while iterated singles grow exponentially", ok)


def test_criterion_7_termination_measure():
    rng = random.Random(777)
    ok = True
    for _ in range(100):
        j = random_classical_judgment(rng)
        trace = run_elimination(j)
        measures = [judgment_measure(list(judgment_readings(j)))]
        measures += [judgment_measure(list(judgment_readings(st.after))) for st in trace.steps]
        ok = ok and all(b < a for a, b in zip(measures, measures[1:]))
        ok = ok and not contains_etau(trace.result)
        ok = ok and taut_oracle(trace.result)
    report(7, "measure strictly decreases over 100 random classical runs", ok)


def test_criterion_8_weak_lin_negative_fixture():
    j = weak_lin_negative_judgment()
    ok = True
    for first in (pt("eps x. A(x)"), pt("eps y. B(y)")):
        out = run_elimination(j, driver="weak-lin", first=first)
        ok = ok and isinstance(out, FailureReport)
        if isinstance(out, FailureReport):
            readings = recognize_critical(out.formula)
            ok = ok and any(not is_predicative(r) for r in readings)
    report(8, "entangled fixture fails predicative elimination in either order", ok)


def test_criterion_9_reconstruction_round_trip():
    rng = random.Random(909)
    skeleton = pf("D(x, y)")
    ground = ["a", "b", "c", "d", "g(a)", "g(b)", "h(a, b)"]
    ok = True
    for _ in range(25):
        k = rng.randint(1, 3)
        disjuncts = [
            pf(f"D({rng.choice(ground)}, {rng.choice(ground)})") for _ in range(k)
        ]
        disjunction = disjuncts[0]
        for d in disjuncts[1:]:
            from epsitau.syntax import Or

            disjunction = Or(disjunction, d)
        judgment, trace = reconstruct_from_herbrand(disjunction, skeleton, ["x", "y"])
        for c in judgment.criticals:
            readings = recognize_critical(c)
            ok = ok and readings and all(is_predicative(r) for r in readings)
        ok = ok and set(or_spine(trace.result)) == set(dedup(disjuncts))
    report(9, "reconstructed judgments replay their Herbrand disjunctions", ok)


def dedup(items):
    out = []
    for i in items:
        if i not in out:
            out.append(i)
    return out


def test_criterion_10_schema_relations():
    rep = schema_relations_check()
    ok = len(rep) == 8 and all(rep.values())
    report(10, "chain schema entails linearity and the finite-chain axiom over H", ok)


def test_criterion_11_jankov_negated_goal():
    goal = Not(Not(pf("A(s1) -> A(eps x. A(x))")))
    j = make_judgment(
        KC,
        [pf("A(s1) -> A(eps x. A(x))"), pf("A(s2) -> A(eps x. A(x))")],
        goal,
    )
    ok = verify_judgment(j)
    step = eliminate_negated_jankov(j, pt("eps x. A(x)"))
    # the after-judgment is checked by the intuitionistic prover with the
    # recorded weak-excluded-middle instance adjoined as a premise
    ok = ok and verify_judgment(recorded_judgment(step))
    ok = ok and prove_H(list(step.after.criticals) + list(recorded(step)), step.after.goal)
    report(11, "negated-goal elimination verified intuitionistically", ok)
