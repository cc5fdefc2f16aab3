import gc
import json
import random
import sys
from pathlib import Path

import pytest

from epsitau.critical import rank, recognize_critical
from epsitau.eliminate import (
    _words,
    reconstruct_from_herbrand,
    EliminationError,
    EliminationTrace,
    FailureReport,
    eliminate_complete_Gm,
    eliminate_complete_classical,
    eliminate_impredicative_Bm,
    eliminate_negated_jankov,
    eliminate_predicative_lin,
    judgment_measure,
    judgment_readings,
    run_elimination,
    trace_to_json,
)
from epsitau import semantics, syntax
from epsitau.judgments import CLASSICAL, H, KC, LC, lcm, make_judgment
from epsitau.parser import parse_formula as pf, parse_term as pt
from epsitau.semantics import decide, verify_judgment
from epsitau.critical import is_predicative
from epsitau.syntax import Implies, Not, contains_etau, or_spine, to_text

from helpers import (
    chain_witness_judgment,
    godel_oracle,
    grid_judgment,
    is_bigdisj_instance,
    is_em_instance,
    is_implication_chain,
    is_weak_em_instance,
    lc3_worked_judgment,
    letter_atoms,
    oracle_valid,
    random_classical_judgment,
    random_judgment,
    recorded,
    recorded_judgment,
    subterms,
    taut_oracle,
    weak_lin_negative_judgment,
)
from paper import bm_extract, eliminate_single_classical, theorem_form_convert


# ---------------------------------------------------------------------------
# single and complete classical elimination


def test_single_classical_eps():
    c = recognize_critical(pf("A(s_0) -> A(eps x. A(x))"))[0]
    j = make_judgment(CLASSICAL, [c.rendered], pf("D(eps x. A(x))"))
    st = eliminate_single_classical(j, c)
    assert st.elimination_set == (pt("eps x. A(x)"), pt("s_0"))
    assert st.after.goal == pf("D(eps x. A(x)) | D(s_0)")
    assert recorded(st) == (pf("A(s_0) | ~A(s_0)"),)
    # on a judgment whose goal really follows, the step preserves validity
    valid = make_judgment(CLASSICAL, [c.rendered], c.rendered)
    assert verify_judgment(valid)
    assert verify_judgment(recorded_judgment(eliminate_single_classical(valid, c)))


def test_single_classical_tau():
    c = recognize_critical(pf("A(tau x. A(x)) -> A(s_0)"))[0]
    j = make_judgment(CLASSICAL, [c.rendered], pf("D(tau x. A(x))"))
    st = eliminate_single_classical(j, c)
    assert st.after.goal == pf("D(tau x. A(x)) | D(s_0)")
    # the one-atom tau instance of excluded middle, as complete elimination records it
    assert recorded(st) == (pf("A(s_0) | ~A(s_0)"),)
    assert recorded(st) == recorded(eliminate_complete_classical(j, c.critical_term))
    valid = make_judgment(CLASSICAL, [c.rendered], c.rendered)
    assert verify_judgment(recorded_judgment(eliminate_single_classical(valid, c)))


def test_single_classical_degenerate_witness():
    c = recognize_critical(pf("A(eps x. A(x)) -> A(eps x. A(x))"))[0]
    j = make_judgment(CLASSICAL, [c.rendered], pf("D(eps x. A(x))"))
    st = eliminate_single_classical(j, c)
    assert st.elimination_set == (pt("eps x. A(x)"),)
    assert st.after.goal == j.goal


def test_single_classical_retains_other_criticals_of_e():
    c1 = recognize_critical(pf("A(c) -> A(eps x. A(x))"))[0]
    c2 = pf("A(d) -> A(eps x. A(x))")
    j = make_judgment(CLASSICAL, [c1.rendered, c2], c2)
    st = eliminate_single_classical(j, c1)
    assert c2 in st.after.criticals  # kept unsubstituted
    assert verify_judgment(recorded_judgment(st))


def test_complete_classical_k1_equals_single():
    c = recognize_critical(pf("A(c) -> A(eps x. A(x))"))[0]
    j = make_judgment(CLASSICAL, [c.rendered], pf("D(eps x. A(x))"))
    single = eliminate_single_classical(j, c)
    complete = eliminate_complete_classical(j, pt("eps x. A(x)"))
    assert single.after == complete.after
    assert recorded(single) == recorded(complete)


def test_complete_classical_counts_and_instance():
    e = pt("eps x. A(x)")
    j = make_judgment(
        CLASSICAL,
        [pf("A(c) -> A(eps x. A(x))"), pf("A(d) -> A(eps x. A(x))")],
        pf("A(c) -> A(eps x. A(x))"),
    )
    st = eliminate_complete_classical(j, e)
    assert st.elimination_set == (e, pt("c"), pt("d"))
    assert len(or_spine(st.after.goal)) <= 3
    assert recorded(st) == (pf("A(c) | A(d) | ~A(c) & ~A(d)"),)
    assert is_em_instance(recorded(st)[0])
    assert verify_judgment(recorded_judgment(st))


def test_complete_classical_tau_dual():
    e = pt("tau x. A(x)")
    j = make_judgment(
        CLASSICAL,
        [pf("A(tau x. A(x)) -> A(c)"), pf("A(tau x. A(x)) -> A(d)")],
        pf("A(tau x. A(x)) -> A(c)"),
    )
    st = eliminate_complete_classical(j, e)
    assert recorded(st) == (pf("A(c) & A(d) | ~A(c) | ~A(d)"),)
    assert is_em_instance(recorded(st)[0])
    assert verify_judgment(recorded_judgment(st))


def test_complete_classical_impredicative_witness():
    e = pt("eps x. P(x)")
    u = pf("P(f(eps x. P(x))) -> P(eps x. P(x))")
    j = make_judgment(CLASSICAL, [u], pf("D(eps x. P(x))"))
    st = eliminate_complete_classical(j, e)
    assert st.elimination_set == (e, pt("f(eps x. P(x))"))
    assert verify_judgment(recorded_judgment(st)).holds == verify_judgment(j).holds


def _iterate_single(j, e):
    """Apply the single elimination to e's criticals one at a time."""
    sets = []
    current = j
    while True:
        readings = [
            r
            for f in current.criticals
            for r in recognize_critical(f)
            if r.critical_term == e
        ]
        if not readings:
            return current, sets
        st = eliminate_single_classical(current, readings[0])
        sets.append(st.elimination_set)
        current = st.after


def test_one_by_one_vs_complete_disjunct_counts_ground():
    # k ground witnesses: the complete set gives at most k+1 disjuncts while
    # iterating doubles the goal at every step, 2^k occurrences before any
    # deduplication (the per-step product of the elimination set sizes)
    for k in (2, 3):
        witnesses = ["c", "d", "c_1"][:k]
        criticals = [pf(f"A({w}) -> A(eps x. A(x))") for w in witnesses]
        j = make_judgment(CLASSICAL, criticals, criticals[0])
        complete = eliminate_complete_classical(j, pt("eps x. A(x)"))
        assert complete.raw_disjunct_count <= k + 1
        final, sets = _iterate_single(j, pt("eps x. A(x)"))
        assert len(sets) == k
        product = 1
        for s in sets:
            product *= len(s)
        assert product == 2**k
        # both final goals are classical tautologies once grounded
        for downstream in (complete.after, final):
            tr = run_elimination(
                make_judgment(CLASSICAL, downstream.criticals, downstream.goal)
            )
            assert taut_oracle(tr.result)


def test_one_by_one_composite_witnesses_realize_all_words():
    # with witnesses containing e the iterated sets compose, and the final
    # goal holds one distinct disjunct per subset of the witnesses
    for k in (2, 3):
        heads = "fgh"[:k]
        criticals = [pf(f"A({h}(eps x. A(x))) -> A(eps x. A(x))") for h in heads]
        j = make_judgment(CLASSICAL, criticals, pf("D(eps x. A(x))"))
        final, sets = _iterate_single(j, pt("eps x. A(x)"))
        assert len(sets) == k
        assert len(or_spine(final.goal)) == 2**k


# ---------------------------------------------------------------------------
# negated-goal elimination from weak excluded middle


def test_jankov_single():
    j = make_judgment(
        KC,
        [pf("A(s_0) -> A(eps x. A(x))")],
        Not(pf("D(eps x. A(x))")),
    )
    st = eliminate_negated_jankov(j, pt("eps x. A(x)"))
    assert st.after.goal == pf("~D(eps x. A(x)) | ~D(s_0)")
    assert recorded(st) == (pf("~A(s_0) | ~~A(s_0)"),)
    assert is_weak_em_instance(recorded(st)[0])


def test_jankov_rejects_unnegated_goal():
    j = make_judgment(KC, [pf("A(s_0) -> A(eps x. A(x))")], pf("P(c)"))
    with pytest.raises(ValueError):
        eliminate_negated_jankov(j, pt("eps x. A(x)"))


def test_jankov_two_witnesses_verifies_intuitionistically():
    # goal ~D(e) with D(e) := ~(A(s1) -> A(e)), derivable from the premise
    goal = Not(Not(pf("A(s1) -> A(eps x. A(x))")))
    j = make_judgment(
        KC,
        [pf("A(s1) -> A(eps x. A(x))"), pf("A(s2) -> A(eps x. A(x))")],
        goal,
    )
    assert verify_judgment(j)
    st = eliminate_negated_jankov(j, pt("eps x. A(x)"))
    assert len(or_spine(st.after.goal)) == 3
    assert is_weak_em_instance(recorded(st)[0])
    assert verify_judgment(recorded_judgment(st))


def test_jankov_tau_dual_verifies():
    goal = Not(Not(pf("A(tau x. A(x)) -> A(s1)")))
    j = make_judgment(KC, [pf("A(tau x. A(x)) -> A(s1)")], goal)
    assert verify_judgment(j)
    st = eliminate_negated_jankov(j, pt("tau x. A(x)"))
    assert verify_judgment(recorded_judgment(st))


# ---------------------------------------------------------------------------
# linearity elimination of predicative criticals


def test_pred_lin_two_witnesses():
    e = pt("eps x. A(x)")
    j = make_judgment(
        LC,
        [pf("A(u) -> A(eps x. A(x))"), pf("A(v) -> A(eps x. A(x))")],
        pf("A(u) -> A(eps x. A(x))"),
    )
    st = eliminate_predicative_lin(j, e)
    assert st.elimination_set == (pt("u"), pt("v"))
    assert st.after.goal == pf("(A(u) -> A(u)) | (A(u) -> A(v))")
    inst = recorded(st)[0]
    assert is_bigdisj_instance(inst)
    assert verify_judgment(recorded_judgment(st))


def test_pred_lin_single_witness():
    e = pt("eps x. A(x)")
    j = make_judgment(LC, [pf("A(u) -> A(eps x. A(x))")], pf("A(u) -> A(eps x. A(x))"))
    st = eliminate_predicative_lin(j, e)
    assert st.after.goal == pf("A(u) -> A(u)")
    assert recorded(st) == (pf("A(u) -> A(u)"),)


def test_pred_lin_rejects_impredicative():
    e = pt("eps x. A(x)")
    j = make_judgment(LC, [pf("A(f(eps x. A(x))) -> A(eps x. A(x))")], pf("G"))
    with pytest.raises(ValueError):
        eliminate_predicative_lin(j, e)


def test_pred_lin_tau():
    e = pt("tau x. A(x)")
    j = make_judgment(
        LC,
        [pf("A(tau x. A(x)) -> A(u)"), pf("A(tau x. A(x)) -> A(v)")],
        pf("A(tau x. A(x)) -> A(u)"),
    )
    st = eliminate_predicative_lin(j, e)
    assert is_bigdisj_instance(recorded(st)[0])
    assert verify_judgment(recorded_judgment(st))


# ---------------------------------------------------------------------------
# chain elimination of impredicative criticals


def test_bm_first_expansion_stage():
    # stage 2 of the chain expansion is the whole expansion on lc2: the goal
    # over the words of length < 2, and first the chains through length 2
    worked = lc3_worked_judgment()
    j = make_judgment(lcm(2), worked.criticals, worked.goal)
    st = eliminate_impredicative_Bm(j, pt("eps x. A(x)"), 2)
    assert len(or_spine(st.after.goal)) == 3  # D(e) | D(se) | D(te)
    assert list(recorded(st)[:4]) == [
        pf("(A(s(s(eps x. A(x)))) -> A(s(eps x. A(x)))) | (A(s(eps x. A(x))) -> A(eps x. A(x)))"),
        pf("(A(s(t(eps x. A(x)))) -> A(t(eps x. A(x)))) | (A(t(eps x. A(x))) -> A(eps x. A(x)))"),
        pf("(A(t(s(eps x. A(x)))) -> A(s(eps x. A(x)))) | (A(s(eps x. A(x))) -> A(eps x. A(x)))"),
        pf("(A(t(t(eps x. A(x)))) -> A(t(eps x. A(x)))) | (A(t(eps x. A(x))) -> A(eps x. A(x)))"),
    ]


def test_bm_full_expansion_words():
    j = lc3_worked_judgment()
    e = pt("eps x. A(x)")
    st = eliminate_impredicative_Bm(j, e, 3)
    words = ["", "s", "t", "ss", "st", "ts", "tt"]

    def apply_word(w):
        out = "eps x. A(x)"
        for ch in reversed(w):
            out = f"{ch}({out})"
        return pt(out)

    assert st.elimination_set == tuple(apply_word(w) for w in words)
    assert len(or_spine(st.after.goal)) == 7
    # predicative premises stay untouched
    assert pf("A(u) -> A(eps x. A(x))") in st.after.criticals
    assert pf("A(v) -> A(eps x. A(x))") in st.after.criticals
    # 8 word chains plus 8 three-link absorption chains, one per u, v and
    # length-2 word; every one is a theorem of lc3
    assert len(recorded(st)) == 16
    assert all(is_implication_chain(i) for i in recorded(st))
    assert all(len(or_spine(i)) == 3 for i in recorded(st))


def test_words_come_by_length_then_lexicographically():
    e = pt("eps x. A(x)")
    contexts = [pt(f"s{i}(eps x. A(x))") for i in (1, 2, 3)]
    words = _words(e, contexts, 3)
    assert list(words) == sorted(words, key=lambda w: (len(w), w))
    assert len(words) == 1 + 3 + 9 + 27
    assert words[(0, 2)] == pt("s1(s3(eps x. A(x)))")
    assert words[(2, 1, 0)] == pt("s3(s2(s1(eps x. A(x))))")


def test_bm_errors():
    j = lc3_worked_judgment()
    e = pt("eps x. A(x)")
    with pytest.raises(ValueError):
        eliminate_impredicative_Bm(j, e, 1)
    with pytest.raises(ValueError):
        eliminate_impredicative_Bm(j, e, 2)  # lc3 does not prove the 2-chain schema
    j_pred = make_judgment(lcm(3), [pf("A(u) -> A(eps x. A(x))")], pf("G"))
    with pytest.raises(ValueError):
        eliminate_impredicative_Bm(j_pred, e, 3)


def test_bm_m2_classical_agrees_with_complete():
    # a single impredicative critical formula, m = 2, classical logic
    u = pf("P(f(eps x. P(x))) -> P(eps x. P(x))")
    e = pt("eps x. P(x)")
    j = make_judgment(CLASSICAL, [u], u)
    chain_step = eliminate_impredicative_Bm(j, e, 2)
    complete_step = eliminate_complete_classical(j, e)
    assert set(chain_step.elimination_set) == set(complete_step.elimination_set)
    assert or_spine(chain_step.after.goal) == or_spine(complete_step.after.goal)
    assert verify_judgment(recorded_judgment(chain_step))
    assert verify_judgment(recorded_judgment(complete_step))


def test_complete_gm_phases():
    j = lc3_worked_judgment()
    e = pt("eps x. A(x)")
    steps = eliminate_complete_Gm(j, e, 3)
    assert len(steps) == 2
    assert steps[1].elimination_set == (pt("u"), pt("v"))
    assert len(or_spine(steps[1].after.goal)) == 14
    assert steps[1].after.criticals == ()
    assert verify_judgment(recorded_judgment(steps[1]))


def test_complete_gm_pred_only_is_single_step():
    j = make_judgment(lcm(3), [pf("A(u) -> A(eps x. A(x))")], pf("A(u) -> A(eps x. A(x))"))
    steps = eliminate_complete_Gm(j, pt("eps x. A(x)"), 3)
    assert len(steps) == 1
    assert steps[0].elimination_set == (pt("u"),)


def test_complete_gm_impred_only():
    u = pf("A(f(eps x. A(x))) -> A(eps x. A(x))")
    j = make_judgment(lcm(3), [u], u)
    steps = eliminate_complete_Gm(j, pt("eps x. A(x)"), 3)
    assert len(steps) == 1
    assert all(verify_judgment(recorded_judgment(s)) for s in steps)


# ---------------------------------------------------------------------------
# the full driver


def test_run_elimination_chain_witness():
    j = chain_witness_judgment()
    trace = run_elimination(j, verify="steps")
    assert not contains_etau(trace.result)
    for d in or_spine(trace.result):
        assert isinstance(d, Implies)
    assert taut_oracle(trace.result)
    assert bm_extract(trace.result, "f", "P") <= 2


def test_run_elimination_zero_criticals():
    j = make_judgment(CLASSICAL, [], pf("D(eps x. A(x)) | D(c)"))
    trace = run_elimination(j)
    assert trace.steps == ()
    assert trace.result == pf("D(c_1) | D(c)")
    assert dict((to_text(t), n) for t, n in trace.grounding) == {"eps x. A(x)": "c_1"}


def test_run_elimination_lc3_worked_example():
    j = lc3_worked_judgment()
    trace = run_elimination(j)
    assert len(trace.steps) == 2
    assert len(or_spine(trace.steps[-1].after.goal)) == 14
    assert not contains_etau(trace.result)
    final = make_judgment(lcm(3), [], trace.result)
    assert verify_judgment(final)


@pytest.mark.parametrize("m", [4, 5])
def test_run_elimination_worked_example_verifies_on_longer_chains(m):
    # 62 and 126 atoms: beyond reach of enumerating the valuations
    j = lc3_worked_judgment()
    j = make_judgment(lcm(m), j.criticals, j.goal)
    trace = run_elimination(j, verify="steps")
    assert isinstance(trace, EliminationTrace)
    assert not contains_etau(trace.result)


def test_run_elimination_rejects_lc():
    with pytest.raises(ValueError):
        run_elimination(make_judgment(LC, [], pf("A")))


def test_run_elimination_measure_decreases():
    rng = random.Random(99)
    for _ in range(30):
        j = random_classical_judgment(rng)
        trace = run_elimination(j)
        seq = [judgment_measure(list(judgment_readings(st.after))) for st in trace.steps]
        seq.insert(0, judgment_measure(list(judgment_readings(j))))
        assert all(b < a for a, b in zip(seq, seq[1:]))
        assert not contains_etau(trace.result)


# ---------------------------------------------------------------------------
# the predicative-only driver


def test_weak_lin_failure_both_orders():
    j = weak_lin_negative_judgment()
    e_a, e_b = pt("eps x. A(x)"), pt("eps y. B(y)")
    for first, leftover in ((e_a, e_b), (e_b, e_a)):
        report = run_elimination(j, driver="weak-lin", first=first)
        assert isinstance(report, FailureReport)
        assert report.target == leftover
        assert report.step_index == 1
        readings = recognize_critical(report.formula)
        assert readings
        assert any(r.critical_term == leftover and not is_predicative(r) for r in readings)


def test_weak_lin_failure_formula_is_impredicative_residue():
    j = weak_lin_negative_judgment()
    report = run_elimination(j, driver="weak-lin", first=pt("eps x. A(x)"))
    assert report.formula == pf("B(g(f(eps y. B(y)))) -> B(eps y. B(y))")
    report2 = run_elimination(j, driver="weak-lin", first=pt("eps y. B(y)"))
    assert report2.formula == pf("A(f(g(eps x. A(x)))) -> A(eps x. A(x))")


def test_weak_lin_all_weak_success():
    j = make_judgment(
        LC,
        [pf("A(c) -> A(eps x. A(x))"), pf("A(d) -> A(eps x. A(x))")],
        pf("A(c) -> A(eps x. A(x))"),
    )
    out = run_elimination(j, driver="weak-lin")
    assert isinstance(out, EliminationTrace)
    # weak witnesses leave the other premises untouched at every step
    for st in out.steps:
        assert st.after.criticals == ()
    assert out.result == pf("(A(c) -> A(c)) | (A(c) -> A(d))")


def test_weak_lin_zero_criticals():
    j = make_judgment(LC, [], pf("Q(c)"))
    out = run_elimination(j, driver="weak-lin")
    assert isinstance(out, EliminationTrace) and out.result == pf("Q(c)")


def test_weak_lin_wrong_logic():
    with pytest.raises(ValueError):
        run_elimination(make_judgment(CLASSICAL, [], pf("A")), driver="weak-lin")


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_two_disjuncts_three_steps():
    disj = pf("D(s_0, t_0) | D(s_1, t_1)")
    j, trace = reconstruct_from_herbrand(disj, pf("D(x, y)"), ["x", "y"])
    assert len(j.criticals) == 4
    assert len(trace.steps) == 3
    assert trace.steps[0].elimination_set == (pt("s_0"), pt("s_1"))
    assert trace.steps[1].elimination_set == (pt("t_0"),)
    assert trace.steps[2].elimination_set == (pt("t_1"),)
    assert set(or_spine(trace.result)) == set(or_spine(disj))
    for c in j.criticals:
        readings = recognize_critical(c)
        assert readings and all(is_predicative(r) for r in readings)


def test_reconstruct_single_disjunct():
    disj = pf("D(t_0)")
    j, trace = reconstruct_from_herbrand(disj, pf("D(x)"), ["x"])
    assert len(j.criticals) == 1
    assert j.criticals[0] == pf("D(t_0) -> D(eps x. D(x))")
    assert len(trace.steps) == 1
    assert trace.result == disj


def test_reconstruct_three_disjuncts_one_variable():
    disj = pf("D(t_0) | D(t_1) | D(t_2)")
    j, trace = reconstruct_from_herbrand(disj, pf("D(x)"), ["x"])
    assert len(j.criticals) == 3
    assert len(trace.steps) == 1
    assert trace.steps[0].elimination_set == (pt("t_0"), pt("t_1"), pt("t_2"))
    assert set(or_spine(trace.result)) == set(or_spine(disj))


def test_reconstruct_hb_order_rank_first():
    disj = pf("D(s_0, t_0) | D(s_1, t_1)")
    j, trace = reconstruct_from_herbrand(disj, pf("D(x, y)"), ["x", "y"])
    ranks = [rank(st.target) for st in trace.steps]
    assert ranks == sorted(ranks, reverse=True)
    assert ranks[0] == 2


def test_reconstruct_mismatch_rejected():
    with pytest.raises(ValueError):
        reconstruct_from_herbrand(pf("D(a) | E(b)"), pf("D(x)"), ["x"])


def test_reconstruct_valid_disjunction_verifies_stepwise():
    # a linearity instance is LC-valid, so the whole replay verifies
    disj = pf("(P(a) -> P(b)) | (P(b) -> P(a))")
    skeleton = pf("P(x) -> P(y)")
    j, trace = reconstruct_from_herbrand(disj, skeleton, ["x", "y"])
    assert verify_judgment(j)
    for st in trace.steps:
        assert verify_judgment(recorded_judgment(st))
    assert set(or_spine(trace.result)) == set(or_spine(disj))


# ---------------------------------------------------------------------------
# chain-length extraction


def test_bm_extract_two_links():
    assert bm_extract(pf("(P(f(c)) -> P(c)) | (P(f(f(c))) -> P(f(c)))"), "f", "P") == 2


def test_bm_extract_single():
    assert bm_extract(pf("P(f(c)) -> P(c)"), "f", "P") == 1


def test_bm_extract_two_towers_padding():
    phi = pf(
        "(P(f(c)) -> P(c))"
        " | (P(f(d)) -> P(d))"
        " | (P(f(f(d))) -> P(f(d)))"
        " | (P(f(f(f(d)))) -> P(f(f(d))))"
    )
    assert bm_extract(phi, "f", "P") == 3


def test_bm_extract_rejects_non_matrix():
    with pytest.raises(ValueError):
        bm_extract(pf("P(c) -> P(d)"), "f", "P")
    with pytest.raises(ValueError):
        bm_extract(pf("Q(f(c)) -> Q(c)"), "f", "P")


# ---------------------------------------------------------------------------
# theorem-form conversion


def test_convert_1to3():
    e1 = pt("eps y. Q(y)")
    j = make_judgment(CLASSICAL, [pf("Q(d) -> Q(eps y. Q(y))")], pf("Q(eps y. Q(y))"))
    out, trace = theorem_form_convert("1to3", j, assumption=pf("Q(eps y. Q(y))"))
    assert trace is not None
    # every premise is a hypothesis instance, the goal a disjunction of
    # conclusion instances, and the claim verifies classically
    assert verify_judgment(out)
    assert all(not contains_etau(c) for c in out.criticals)
    assert not contains_etau(out.goal)


def test_convert_2to1():
    j = make_judgment(
        CLASSICAL,
        [pf("A(s_0) -> X"), pf("A(s_1) -> X")],
        pf("X"),
    )
    out, _ = theorem_form_convert("2to1", j)
    assert out.goal == pf("A(s_0) | A(s_1)")
    assert out.criticals == (
        pf("A(s_0) -> A(s_0) | A(s_1)"),
        pf("A(s_1) -> A(s_0) | A(s_1)"),
    )
    from epsitau.semantics import prove_H

    for res in out.criticals:
        assert prove_H([], res)


def test_convert_2to1_identity_on_empty():
    j = make_judgment(CLASSICAL, [], pf("X"))
    out, trace = theorem_form_convert("2to1", j)
    assert out == j and trace is None


def test_convert_rejects_bad_shapes():
    j = make_judgment(CLASSICAL, [pf("A & X")], pf("X"))
    with pytest.raises(ValueError):
        theorem_form_convert("2to1", j)
    with pytest.raises(ValueError):
        theorem_form_convert("sideways", j)


# ---------------------------------------------------------------------------
# step soundness and instance honesty on random judgments


def test_step_soundness_random():
    rng = random.Random(123)
    for _ in range(25):
        j = random_classical_judgment(rng)
        if not verify_judgment(j):
            continue
        holds = [verify_judgment(recorded_judgment(st)) for st in run_elimination(j).steps]
        assert all(holds)


@pytest.mark.parametrize("logic", [CLASSICAL, lcm(2), lcm(3), lcm(4)], ids=str)
def test_instance_honesty_random(logic):
    rng = random.Random(321)
    size = logic.m or 2
    for _ in range(25):
        j = random_classical_judgment(rng, logic)
        for st in run_elimination(j).steps:
            for inst in recorded(st):
                assert is_em_instance(inst) or is_implication_chain(inst) or is_bigdisj_instance(inst)
                assert godel_oracle(inst, size), to_text(inst)


@pytest.mark.parametrize(
    "driver, logic",
    [("hb", CLASSICAL), ("hb", lcm(2)), ("hb", lcm(3)), ("hb", lcm(4)), ("jankov", KC), ("weak-lin", LC)],
    ids=str,
)
def test_random_judgments_whose_goals_need_the_backend(driver, logic):
    # each goal holds only with its criticals, so a verified run decides
    # real queries, and a result missing a witness's disjunct fails them
    rng = random.Random(29)
    for _ in range(40):
        j = random_judgment(rng, logic, driver)
        out = run_elimination(j, verify="full", driver=driver)
        impredicative = any(not is_predicative(r) for c in j.criticals for r in recognize_critical(c))
        if isinstance(out, FailureReport):
            assert driver == "weak-lin" and impredicative
            continue
        assert not (driver == "weak-lin" and impredicative)
        assert oracle_valid(out.result, logic), to_text(out.result)
        assert decide(logic, [], out.result).holds, to_text(out.result)


def test_verified_worked_example_query_count(monkeypatch):
    # a decide per checked judgment, the input and each step's criticals -> goal,
    # not per premise; the recorded instances are certified by their table row
    decide, calls = semantics.decide, []

    def counting_decide(logic, premises, goal, *rest):
        calls.append((tuple(premises), goal))
        return decide(logic, premises, goal, *rest)

    monkeypatch.setattr(semantics, "decide", counting_decide)
    trace = run_elimination(lc3_worked_judgment(), verify="steps")
    assert len(calls) == 1 + len(trace.steps) == 3
    instances = {f for st in trace.steps for f in recorded(st)}
    assert len(instances) > 10 and not instances & {goal for _, goal in calls}


def test_run_elimination_owns_the_final_check():
    # verify takes the --verify levels; "full" decides the result after the steps
    j = make_judgment(CLASSICAL, [pf("B")], pf("B"))
    with pytest.raises(EliminationError) as failed:
        run_elimination(j, verify="full")
    assert str(failed.value) == "verification failed: final result: countervaluation on the 2-chain: {'B': 0}"
    trace = run_elimination(j, verify="steps")
    assert isinstance(trace, EliminationTrace) and trace.result == pf("B")
    for level in ("all", True):
        with pytest.raises(ValueError, match="unknown verify level"):
            run_elimination(j, verify=level)


def _guard_cases(logic):
    """(kind, arity, step, the ValueError text) for every step constructor."""
    e = pt("eps x. A(x)")
    pred = make_judgment(logic, [pf("A(u) -> A(eps x. A(x))"), pf("A(v) -> A(eps x. A(x))")], pf("~D(eps x. A(x))"))
    impred = make_judgment(logic, [pf("A(s(eps x. A(x))) -> A(eps x. A(x))")], pf("~D(eps x. A(x))"))
    c = recognize_critical(pred.criticals[0])[0]
    yield "EM", 1, lambda: eliminate_single_classical(pred, c), (
        "single elimination via excluded middle needs classical logic"
    )
    yield "EM", 2, lambda: eliminate_complete_classical(pred, e), (
        "complete classical elimination needs classical logic"
    )
    yield "J", 2, lambda: eliminate_negated_jankov(pred, e), f"logic {logic} does not prove weak excluded middle"
    yield "bigdisj", 2, lambda: eliminate_predicative_lin(pred, e), f"logic {logic} does not prove linearity"
    for m in (2, 3, 4):
        yield "Bm", m, lambda m=m: eliminate_impredicative_Bm(impred, e, m), (
            f"logic {logic} does not prove the {m}-link chain schema"
        )


@pytest.mark.parametrize("logic", [CLASSICAL, lcm(2), lcm(3), lcm(4), LC, KC, H], ids=str)
def test_each_step_refuses_exactly_what_its_table_row_refuses(logic):
    for kind, arity, step, refusal in _guard_cases(logic):
        if semantics.proves(logic, kind, arity):
            assert step().axiom_instances_used
        else:
            with pytest.raises(ValueError) as ex:
                step()
            assert str(ex.value) == refusal


# ---------------------------------------------------------------------------
# trace serialization


def test_step_counts_its_goal_disjuncts_before_dedup():
    # bench/tracing.py reads raw_disjunct_count and after.goal: the first
    # step's set {eps x. P(x), f(eps x. P(x))} gives two copies of a goal
    # without eps x. P(x), and dedup keeps one
    trace = run_elimination(chain_witness_judgment())
    v = "P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z))"
    after = f"({v}) | (P(f(eps x. P(x))) -> P(eps x. P(x))) | (P(f(f(eps x. P(x)))) -> P(f(eps x. P(x))))"
    steps = [(st.raw_disjunct_count, len(or_spine(st.after.goal)), to_text(st.after.goal)) for st in trace.steps]
    assert steps == [(2, 1, v), (3, 3, after)]


def test_trace_json_golden(tmp_path):
    j = chain_witness_judgment()
    trace = run_elimination(j)
    doc = trace_to_json(trace, j.logic)
    golden = Path(__file__).parent / "golden" / "chain_witness_trace.json"
    assert json.loads(doc) == json.loads(golden.read_text())


def test_text_memo_prints_each_step_as_plain_printing():
    # every formula and term of a run, printed through one memo in trace
    # order, reads as it does printed alone
    rng = random.Random(19)
    for logic in (CLASSICAL, lcm(2), lcm(3)):
        for _ in range(8):
            trace = run_elimination(random_classical_judgment(rng, logic))
            objs = []
            for st in trace.steps:
                objs.extend([st.target, *st.elimination_set, *st.eliminated])
                objs.extend([*st.after.criticals, *recorded(st), st.after.goal])
            objs.append(trace.result)
            memo: dict = {}
            assert [to_text(o, memo) for o in objs] == [to_text(o) for o in objs]


def test_run_rebuilds_its_input_in_the_sharing_scope():
    # the parser builds a copy of eps x. A(x) for each occurrence; the run's
    # first step finds one node in the premises it eliminates, its target
    e = pt("eps x. A(x)")

    def copies(fs):
        return {id(t) for f in fs for t in subterms(f) if t == e}

    j = lc3_worked_judgment()
    assert len(copies((*j.criticals, j.goal))) > 1
    first = run_elimination(j).steps[0]
    assert first.target == e and copies(first.eliminated) == {id(first.target)}


def test_trace_json_deterministic():
    j = chain_witness_judgment()
    a = trace_to_json(run_elimination(j), j.logic)
    b = trace_to_json(run_elimination(j), j.logic)
    assert a == b


# ---------------------------------------------------------------------------
# Long goals and run-scoped state


@pytest.mark.parametrize("logic, k, count", [("lc5", 4, 682), ("lc6", 3, 728)])
def test_grid_cells_with_long_goals(logic, k, count):
    # the goals reach hundreds of disjuncts; the walkers keep explicit stacks,
    # so the default recursion limit is enough
    assert sys.getrecursionlimit() <= 1000
    trace = run_elimination(grid_judgment(logic, k))
    assert len(or_spine(trace.result)) == count
    assert not contains_etau(trace.result)


def test_repeated_runs_leave_no_state_behind():
    # the intern table lives for one run, and rank and degree are kept on the
    # terms, so a second run, on other terms, leaves no more behind
    def live_after_run(build) -> tuple[int, int]:
        trace = run_elimination(build())
        assert trace.result is not None and syntax._table is None
        del trace
        gc.collect()
        nodes = [o for o in gc.get_objects() if isinstance(o, syntax.Term | syntax.Formula)]
        measured = [t for t in nodes if hasattr(t, "_degree") or hasattr(t, "_rank")]
        return len(nodes), len(measured)

    first = live_after_run(lambda: grid_judgment("lc3", 3))
    second = live_after_run(chain_witness_judgment)
    assert second[0] <= first[0] and second[1] <= first[1]


# ---------------------------------------------------------------------------
# Each instance enters the run once


def _multi_step_runs():
    yield lc3_worked_judgment()
    yield chain_witness_judgment()
    for logic in ("lc3", "lc4"):
        for k in (1, 2):
            yield grid_judgment(logic, k)
    rng = random.Random(77)
    for logic in (CLASSICAL, lcm(2), lcm(3), lcm(4)):
        for _ in range(6):
            yield random_classical_judgment(rng, logic)


def test_after_judgment_holds_only_its_step_instances():
    # the copies of earlier instances substituted through later elimination
    # sets are not carried: each is a theorem already, since substituting
    # one term for another sends atoms to atoms; the oracle re-checks them
    checked, copies = set(), 0
    for j in _multi_step_runs():
        steps = run_elimination(j).steps
        size = j.logic.m or 2
        for i, st in enumerate(steps):
            own = recorded(st)
            assert st.after.instances == () and own
            carried = list(own)
            for later in steps[i + 1 :]:
                carried = [
                    syntax.subst_term(f, later.target, t)
                    for t in later.elimination_set
                    for f in carried
                ]
                copies += sum(f not in own for f in carried)
                for f in carried:
                    [letters], _ = letter_atoms([f])
                    if (letters, size) not in checked:
                        checked.add((letters, size))
                        assert godel_oracle(letters, size), (j.logic, to_text(f))
    assert copies > 100 and len(checked) > 10
