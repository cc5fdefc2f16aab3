import itertools
import random
import sys
import time

import pytest

from epsitau.judgments import CLASSICAL, H, KC, LC, lcm, make_judgment
from epsitau.parser import parse_formula as pf
from epsitau import semantics
from epsitau.semantics import (
    BudgetExceededError,
    Instance,
    Verdict,
    decide,
    eval_godel,
    lc_chain_size,
    prop_atoms,
    prove_H,
    schema,
    schema_relations_check,
    valid_in_LCm,
    verify_judgment,
)
from epsitau.eliminate import run_elimination
from epsitau.syntax import And, Atom, Bot, Implies, Not, Or, Top, and_join, or_join, sharing, to_text

from helpers import (
    KRIPKE_FRAMES,
    _forced,
    _has_top,
    _upsets,
    godel_oracle,
    godel_value,
    grid_judgment,
    is_bigdisj_instance,
    is_em_instance,
    is_implication_chain,
    is_lin_instance,
    is_weak_em_instance,
    kripke_valid,
    letter_atoms,
    matched_prove,
    random_prop_formula,
    random_qf_formula,
    refutes,
    taut_oracle,
)
from paper import counterexample_Bm


# ---------------------------------------------------------------------------
# eval_godel


def test_eval_implication_clause():
    size = 3
    assert eval_godel(pf("A -> B"), {"A": 1, "B": 0}, size) == 0
    assert eval_godel(pf("A -> B"), {"A": 0, "B": 1}, size) == 2
    assert eval_godel(pf("A -> B"), {"A": 2, "B": 2}, size) == 2


def test_eval_connectives():
    size = 4
    v = {"A": 2, "B": 1}
    assert eval_godel(pf("A & B"), v, size) == 1
    assert eval_godel(pf("A | B"), v, size) == 2
    assert eval_godel(pf("~A"), v, size) == 0
    assert eval_godel(pf("~A"), {"A": 0}, size) == 3
    assert eval_godel(pf("top"), {}, size) == 3
    assert eval_godel(pf("bot"), {}, size) == 0


def test_eval_godel_on_the_lc6_k4_grid_result():
    # 2,730 disjuncts, nested far past the interpreter's recursion limit
    result = run_elimination(grid_judgment("lc6", 4)).result
    zero = {to_text(a): 0 for a in prop_atoms(result)}
    assert eval_godel(result, zero, 6) == 5


@pytest.mark.parametrize("n", [3000, 3001])
@pytest.mark.parametrize("a", [0, 1])
def test_eval_godel_on_a_deep_negation_tower(n, a):
    # ~v is top at 0 and 0 above it, so the parity of the tower decides
    f = Atom("A", ())
    for _ in range(n):
        f = Not(f)
    assert eval_godel(f, {"A": a}, 3) == (2 if (n % 2 == 1) == (a == 0) else 0)


def test_eval_godel_on_shared_levels_takes_linear_time():
    # 30 levels of f = (f & f) | B: each distinct node is evaluated once,
    # though the tree has 2^30 copies of the deepest one
    f, b = Atom("A", ()), Atom("B", ())
    for _ in range(30):
        f = Or(And(f, f), b)
    start = time.perf_counter()
    assert eval_godel(f, {"A": 1, "B": 0}, 3) == 1
    assert time.perf_counter() - start < 1.0


def test_eval_unmapped_atom():
    with pytest.raises(ValueError):
        eval_godel(pf("A"), {}, 2)


def test_chain2_matches_classical_truth_tables():
    # exhaustive over depth <= 3 formulas on two atoms
    leaves = [Atom("A"), Atom("B"), Top(), Bot()]

    def build(depth):
        if depth == 0:
            return list(leaves)
        smaller = build(depth - 1)
        out = list(smaller)
        out += [Not(f) for f in smaller[:8]]
        for a, b in itertools.islice(itertools.product(smaller, repeat=2), 120):
            out += [And(a, b), Or(a, b), Implies(a, b)]
        return out

    size = 2
    for f in build(2):
        godel = all(
            eval_godel(f, {"A": va, "B": vb}, size) == 1
            for va in (0, 1)
            for vb in (0, 1)
        )
        assert godel == taut_oracle(f)


# ---------------------------------------------------------------------------
# chain validity


def test_lin_valid_on_chains_2_to_6():
    for m in range(2, 7):
        ok, _ = valid_in_LCm(schema("Lin"), m)
        assert ok


def test_bm_valid_at_m_invalid_above():
    for m in range(2, 6):
        bm = schema("Bm", n=m)
        ok, _ = valid_in_LCm(bm, m)
        assert ok
        bad, counter = valid_in_LCm(bm, m + 1)
        assert not bad and counter is not None


def test_em_chain2_vs_chain3():
    assert valid_in_LCm(pf("A | ~A"), 2)[0]
    ok, counter = valid_in_LCm(pf("A | ~A"), 3)
    assert not ok
    assert counter == {"A": 1}


def test_lc_validity():
    for phi, valid in [(schema("Lin"), True), (pf("A | ~A"), False), (pf("~A | ~~A"), True)]:
        assert valid_in_LCm(phi, lc_chain_size(phi))[0] == valid


def test_budget_error():
    phi = pf("A1 | A2 | A3 | A4 | A5 | A6 | A7 | A8")
    with pytest.raises(BudgetExceededError):
        valid_in_LCm(phi, 10, budget=100)


def test_counterexample_bm_refutes():
    for m in range(2, 9):
        v = counterexample_Bm(m)
        assert eval_godel(schema("Bm", n=m), v, m + 1) < m
    assert counterexample_Bm(2) == {"A1": 2, "A2": 1, "A3": 0}


def test_lcm_monotone_in_chain_size():
    rng = random.Random(7)
    for _ in range(40):
        phi = random_prop_formula(rng, 3, ["A", "B", "C"])
        verdicts = [valid_in_LCm(phi, m)[0] for m in range(2, 6)]
        # valid on a larger chain implies valid on every smaller chain
        for small, large in zip(verdicts, verdicts[1:]):
            assert small or not large


def test_lc_bound_stability():
    rng = random.Random(11)
    for _ in range(40):
        n_atoms = rng.randint(1, 3)
        phi = random_prop_formula(rng, 3, ["A", "B", "C"][:n_atoms])
        base = valid_in_LCm(phi, lc_chain_size(phi))[0]
        for m in range(lc_chain_size(phi), n_atoms + 5):
            assert valid_in_LCm(phi, m)[0] == base


def test_chain_check_agrees_with_oracle():
    # the brute-force evaluator in helpers is the reference; every
    # countervaluation is checked with it as well
    rng = random.Random(1907)
    verdicts = {True: 0, False: 0}
    for i in range(480):
        atoms = ["A", "B", "C", "D"][: rng.randint(1, 4)]
        phi = random_prop_formula(rng, rng.choice([3, 4]), atoms)
        size = lc_chain_size(phi) if i % 6 == 5 else 2 + i % 6
        ok, counter = valid_in_LCm(phi, size)
        assert ok == godel_oracle(phi, size), (str(phi), size)
        if not ok:
            assert counter is not None and refutes(phi, counter, size), (str(phi), size, counter)
        verdicts[ok] += 1
    assert min(verdicts.values()) >= 50


def test_implication_ring_valid_on_lc():
    # refuting it needs A1 > A2 > ... > A10 > A1
    names = [f"A{i}" for i in range(1, 11)]
    ring = or_join([Implies(Atom(a), Atom(b)) for a, b in zip(names, names[1:] + names[:1])])
    assert lc_chain_size(ring) == 12
    assert valid_in_LCm(ring, lc_chain_size(ring)) == (True, None)


# ---------------------------------------------------------------------------
# intuitionistic prover


def test_prover_basics():
    assert prove_H([], pf("A -> A"))
    assert prove_H([], pf("A -> B -> A"))
    assert prove_H([], pf("(A -> B) -> (B -> C) -> A -> C"))
    assert prove_H([], pf("bot -> A"))
    assert prove_H([], pf("A & B -> B & A"))
    assert prove_H([], pf("A | B -> B | A"))


def test_prover_rejects_classical_only():
    assert not prove_H([], pf("((A -> B) -> A) -> A"))  # Peirce
    assert valid_in_LCm(pf("((A -> B) -> A) -> A"), 2)[0]
    assert not prove_H([], pf("A | ~A"))
    assert not prove_H([], pf("~~A -> A"))
    assert not prove_H([], pf("~A | ~~A"))


def test_prover_intuitionistic_negatives_and_positives():
    assert prove_H([], pf("~~(A | ~A)"))
    assert prove_H([], pf("(A -> B) -> ~B -> ~A"))
    assert prove_H([], pf("~~~A -> ~A"))
    assert not prove_H([], pf("(~A -> B) -> A | B"))


def test_prover_with_premises():
    assert prove_H([pf("A"), pf("A -> B")], pf("B"))
    assert prove_H([pf("A | B"), pf("A -> C"), pf("B -> C")], pf("C"))
    assert not prove_H([pf("A -> B")], pf("B"))
    assert prove_H([pf("A")], pf("A | B"))


def test_prover_memo_is_scoped_to_one_query():
    assert prove_H([pf("A | B"), pf("A -> C"), pf("B -> C")], pf("C"))
    assert semantics._sequent_cache == {}
    assert not prove_H([], pf("((A -> B) -> A) -> A"))
    assert semantics._sequent_cache == {}


def _random_premise(rng, atoms) -> tuple[str, object]:
    """A premise of one of the shapes the prover's left rules tell apart."""
    def part():
        return random_qf_formula(rng, 1, atoms)

    match rng.choice(["any", "branch", "antecedent", "wem", "atom"]):
        case "branch":
            return "branch", Implies(Implies(part(), part()), part())
        case "antecedent":
            head = rng.choice([Top(), Bot(), And(part(), part()), Or(part(), part())])
            return type(head).__name__, Implies(head, part())
        case "wem":
            return "wem", schema("J", [rng.choice(atoms)])
        case "atom":
            return "atom", rng.choice(atoms)
    return "any", random_qf_formula(rng, 2, atoms)


def test_prover_visits_the_sequents_of_the_matched_search(monkeypatch):
    calls = 0
    search = semantics._prove

    def counted(gamma, goal):
        nonlocal calls
        calls += 1
        return search(gamma, goal)

    monkeypatch.setattr(semantics, "_prove", counted)
    rng = random.Random(38)
    atoms = [Atom(a, ()) for a in "pqr"]
    kinds, answers = {}, {True: 0, False: 0}
    for _ in range(400):
        drawn = [_random_premise(rng, atoms) for _ in range(rng.randint(1, 4))]
        premises = [f for _, f in drawn]
        goal = random_qf_formula(rng, rng.randint(1, 3), atoms)
        calls = 0
        answer = prove_H(premises, goal)
        expected = matched_prove(premises, goal)
        assert (answer, calls) == expected, (list(map(to_text, premises)), to_text(goal))
        assert semantics._sequent_cache == {}
        answers[answer] += 1
        for kind, _ in drawn:
            kinds[kind] = kinds.get(kind, 0) + 1
    assert min(answers.values()) >= 50, answers
    assert set(kinds) == {"any", "branch", "Top", "Bot", "And", "Or", "wem", "atom"}
    assert min(kinds.values()) >= 25, kinds


def test_prover_sound_for_chains():
    rng = random.Random(23)
    for _ in range(60):
        phi = random_prop_formula(rng, 3, ["A", "B"])
        if prove_H([], phi):
            for m in (2, 3, 4):
                assert valid_in_LCm(phi, m)[0]
        if not valid_in_LCm(phi, 2)[0]:
            assert not prove_H([], phi)


# ---------------------------------------------------------------------------
# schemas and matchers


def test_schema_shapes():
    assert schema("Bm", n=2) == pf("(A1 -> A2) | (A2 -> A3)")
    assert schema("Rn", n=3) == pf("A1 | (A1 -> A2) | (A2 -> A3) | ~A3")
    assert schema("bigdisj_eps", n=1) == pf("A1 -> A1")
    assert schema("J", ["A"]) == pf("~A | ~~A")
    assert schema("EM", ["A"]) == pf("A | ~A")
    assert schema("iterated_lin", n=3) == pf("(A1 -> A2) | (A2 -> A3) | (A3 -> A4)")


def test_schema_arity_errors():
    with pytest.raises(ValueError):
        schema("Lin", ["A"])
    with pytest.raises(ValueError):
        schema("Bm")
    with pytest.raises(ValueError):
        schema("nope")


def test_bigdisj_valid_on_chains():
    # the p=3 instance is valid on the 5-element chain (and via the oracle)
    for p in (1, 2, 3):
        phi = schema("bigdisj_eps", n=p)
        assert valid_in_LCm(phi, 5)[0]
        assert godel_oracle(phi, 5)
        assert valid_in_LCm(schema("bigdisj_tau", n=p), 5)[0]


def test_iterated_lin_consequence_on_chains():
    for m in range(1, 6):
        chain_formula = schema("iterated_lin", n=m)
        premise = Implies(Atom("A1"), Atom(f"A{m + 1}"))
        phi = Implies(premise, chain_formula)
        assert valid_in_LCm(phi, lc_chain_size(phi))[0]


def test_matchers():
    assert is_lin_instance(pf("(A -> B) | (B -> A)"))
    assert not is_lin_instance(pf("(A -> B) | (A -> B)"))
    assert is_em_instance(pf("A | ~A"))
    assert is_em_instance(pf("~A | A"))
    assert is_em_instance(pf("(A | B) | ~A & ~B"))
    assert is_em_instance(pf("A & B | (~A | ~B)"))
    assert not is_em_instance(pf("A | ~B"))
    assert is_weak_em_instance(pf("~A | ~~A"))
    assert is_weak_em_instance(pf("~A & ~B | ~~A | ~~B"))
    assert is_weak_em_instance(pf("~~A & ~~B | ~A | ~B"))
    assert not is_weak_em_instance(pf("~A | ~~B"))
    assert is_implication_chain(pf("(A -> B) | (B -> C)"))
    assert not is_implication_chain(pf("(A -> B) | (C -> D)"))
    assert is_bigdisj_instance(pf("(A -> A) & (B -> A) | (A -> B) & (B -> B)"))
    assert not is_bigdisj_instance(pf("(A -> A) & (B -> A) | (B -> A) & (B -> B)"))


def test_schema_relations_report():
    report = schema_relations_check()
    assert len(report) == 8
    assert all(report.values())


# ---------------------------------------------------------------------------
# the schema table: which logic proves which schema


TABLE_LOGICS = [CLASSICAL, *(lcm(m) for m in range(2, 7)), LC, KC, H]


def _table_instance(kind, arity, polarity):
    letters = arity + (kind == "Bm")  # a chain of m links runs through m + 1 atoms
    return schema(kind, [f"A{i}" for i in range(1, letters + 1)], arity, polarity)


@pytest.mark.parametrize("kind", ["EM", "J", "bigdisj", "Bm"])
def test_schema_table_rows_agree_with_the_backends(kind):
    # an accepted row is valid by decide, and by the Godel oracle on chains up
    # to arity 4 (it enumerates the valuations); a refused row is refuted,
    # unless its arity makes every instance trivial
    degenerate = {"EM": 0, "J": 0, "bigdisj": 1, "Bm": 1}[kind]
    for logic in TABLE_LOGICS:
        for arity in range(1, 6):
            for polarity in ("eps", "tau"):
                phi = _table_instance(kind, arity, polarity)
                ok = decide(logic, [], phi).holds
                if semantics.proves(logic, kind, arity):
                    assert ok, (str(logic), kind, arity, polarity)
                    if logic.kind in ("classical", "lcm", "lc") and arity <= 4:
                        size = 2 if logic == CLASSICAL else logic.m or lc_chain_size(phi)
                        assert godel_oracle(phi, size), (str(logic), kind, arity, polarity)
                elif arity > degenerate:
                    assert not ok, (str(logic), kind, arity, polarity)


def test_schema_table_rows():
    assert [str(g) for g in TABLE_LOGICS if semantics.proves(g, "EM", 3)] == ["classical", "lc2"]
    assert [str(g) for g in TABLE_LOGICS if not semantics.proves(g, "J", 1)] == ["h"]
    assert [str(g) for g in TABLE_LOGICS if not semantics.proves(g, "bigdisj", 4)] == ["kc", "h"]
    assert [str(g) for g in TABLE_LOGICS if semantics.proves(g, "Bm", 3)] == ["classical", "lc2", "lc3"]
    # the 2-link chain is refused on lc3, and the backend refutes it there
    assert not semantics.proves(lcm(3), "Bm", 2)
    assert not decide(lcm(3), [], schema("Bm", n=2)).holds
    assert not any(semantics.proves(g, k, 0) for g in TABLE_LOGICS for k in ("EM", "J", "bigdisj"))
    assert not semantics.proves(CLASSICAL, "Bm", 1)
    with pytest.raises(ValueError):
        semantics.proves(CLASSICAL, "Lin", 2)


def test_schema_polarity_and_arity():
    assert schema("EM", ["A", "B"]) == pf("A | B | ~A & ~B")
    assert schema("EM", ["A", "B"], polarity="tau") == pf("A & B | ~A | ~B")
    assert schema("J", ["A", "B"]) == pf("~A & ~B | ~~A | ~~B")
    assert schema("J", ["A", "B"], polarity="tau") == pf("~~A & ~~B | ~A | ~B")
    assert schema("Bm", ["A", "B", "C"], polarity="tau") == pf("(C -> B) | (B -> A)")
    assert schema("bigdisj", ["A", "B"], polarity="tau") == schema("bigdisj_tau", ["A", "B"])
    assert schema("bigdisj", n=3) == schema("bigdisj_eps", n=3)
    # the CLI's one-atom default for EM and J stands, whatever n says
    assert schema("EM", n=3) == pf("A1 | ~A1")
    with pytest.raises(ValueError):
        schema("EM", ["A"], polarity="up")
    with pytest.raises(ValueError):
        schema("Bm", ["A"])


def test_instance_record_prints_as_its_schema_formula():
    # a record prints by filling its shape's template through one trace memo;
    # B(eps x. A(x)) sits next to the free x of A(x) in some records, where
    # its binder is renamed apart, and alone in others; the compound atoms
    # are parenthesised wherever their context binds tighter
    texts = ("B(eps x. A(x))", "A(x)", "C(f(eps x. A(x)))", "~D(y)", "A(eps y. B(y))",
             "P -> Q", "P | Q", "P & Q", "all z. R(z, x)", "top")
    with sharing():
        pool = [pf(t) for t in texts]
    memo: dict = {}
    for kind in ("EM", "J", "bigdisj", "Bm"):
        for polarity in ("eps", "tau"):
            for arity in range(1, 7):
                for start in range(len(pool)):
                    atoms = tuple(pool[(start + i) % len(pool)] for i in range(arity + (kind == "Bm")))
                    inst = Instance(kind, polarity, atoms)
                    assert inst.arity == arity
                    assert to_text(atoms[0], memo) == to_text(atoms[0])
                    expected = to_text(schema(kind, atoms, polarity=polarity))
                    assert inst.text(memo) == expected, (kind, polarity, arity, start)
    assert "eps x'. A(x')" in Instance("EM", "eps", tuple(pool[:2])).text(memo)
    expected = "(P -> Q) & (P | Q) & P & Q | ~(P -> Q) | ~(P | Q) | ~(P & Q)"
    assert Instance("EM", "tau", tuple(pool[5:8])).text(memo) == expected


# ---------------------------------------------------------------------------
# judgment verification


def test_verify_judgment_classical():
    u = pf("P(f(eps x. P(x))) -> P(eps x. P(x))")
    v = pf("P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z))")
    uv = Implies(u, v)
    j = make_judgment(CLASSICAL, [u, uv], v)
    assert verify_judgment(j)
    j_bad = make_judgment(CLASSICAL, [u], v)
    assert not verify_judgment(j_bad)


def test_verify_judgment_trivial_and_h():
    assert verify_judgment(make_judgment(H, [], pf("top")))
    assert verify_judgment(make_judgment(H, [pf("A(c)")], pf("A(c)")))
    assert not verify_judgment(make_judgment(H, [], pf("A(c) | ~A(c)")))
    assert verify_judgment(make_judgment(KC, [], pf("~A(c) | ~~A(c)"), [pf("~A(c) | ~~A(c)")]))


def test_verify_judgment_lc_and_lcm():
    assert verify_judgment(make_judgment(LC, [], schema("Lin")))
    assert verify_judgment(make_judgment(lcm(3), [], schema("Bm", n=3)))
    assert not verify_judgment(make_judgment(lcm(4), [], schema("Bm", n=3)))


def test_decide_atoms_injective_on_alpha_classes():
    # alpha-equal atoms are one propositional variable, other atoms another
    assert decide(CLASSICAL, [], pf("P(eps x. P(x)) | ~P(eps y. P(y))")) == Verdict(True)
    assert not decide(CLASSICAL, [], pf("P(eps x. P(x)) | ~P(c)")).holds
    assert decide(H, [pf("P(eps x. P(x)) & Q")], pf("P(eps y. P(y))")) == Verdict(True)
    v = decide(LC, [], pf("P(eps x. P(x)) | P(eps y. P(y)) | P(c)"))
    assert not v.holds and v.chain_size == 4 and list(v.countervaluation) == ["P(eps x. P(x))", "P(c)"]


def test_decide_on_first_order_atoms_agrees_with_letters():
    # oracle: the same query with each alpha-class of atoms renamed to a letter
    atoms = [pf(a) for a in ("P(c1)", "P(c2)", "P(c3)", "P(eps x. Q(x))", "P(eps y. Q(y))")]
    rng = random.Random(13)
    logics = [CLASSICAL, lcm(2), lcm(3), lcm(4), LC]
    refuted = 0
    for _ in range(120):
        premises = [random_qf_formula(rng, 2, atoms) for _ in range(rng.randrange(3))]
        goal = random_qf_formula(rng, 3, atoms)
        [*letter_premises, letter_goal], texts = letter_atoms([*premises, goal])
        query = Implies(and_join(premises), goal) if premises else goal
        for logic in logics:
            v = decide(logic, premises, goal)
            letter = decide(logic, letter_premises, letter_goal)
            assert v.holds == letter.holds, (logic, query)
            if v.holds:
                continue
            size, valuation = v.chain_size, v.countervaluation
            assert eval_godel(query, valuation, size) < size - 1
            assert size == letter.chain_size
            assert valuation == {texts[a]: x for a, x in letter.countervaluation.items()}
            refuted += 1
        for logic in (H, KC):
            assert decide(logic, premises, goal).holds == decide(logic, letter_premises, letter_goal).holds
    assert refuted >= 100


# ---------------------------------------------------------------------------
# KC: H plus weak excluded middle on the query's atoms


def test_kc_weak_excluded_middle():
    assert verify_judgment(make_judgment(KC, [], pf("~A(c) | ~~A(c)")))
    assert not verify_judgment(make_judgment(H, [], pf("~A(c) | ~~A(c)")))
    assert decide(KC, [], pf("~(A & B) | ~~(A & B)")) == Verdict(True)
    assert decide(KC, [], pf("(A -> B) | (B -> A)")) == Verdict(False)
    assert decide(KC, [pf("~B")], pf("~A | ~~A")) == Verdict(True)


def test_decide_countermodel_names_first_order_atoms():
    assert decide(lcm(3), [], pf("P(f(c)) | ~P(f(c))")) == Verdict(False, 3, {"P(f(c))": 1})
    assert decide(LC, [pf("A(c) -> B(c)")], pf("B(c) | ~A(c)")).chain_size == 4


def test_h_kc_agree_with_kripke_models():
    rng = random.Random(31)
    atoms = ["A", "B"]
    formulas = [random_prop_formula(rng, 3, atoms) for _ in range(300)]
    for _ in range(50):
        g, h = (random_prop_formula(rng, 2, atoms) for _ in range(2))
        formulas += [
            Or(Not(g), Not(Not(g))),
            Implies(Or(Not(g), Not(Not(g))), h),
            Or(Not(h), Implies(g, h)),
        ]
    splits = 0
    for phi in formulas:
        in_h, in_kc = decide(H, [], phi).holds, decide(KC, [], phi).holds
        assert in_h == kripke_valid(phi, "h"), phi
        assert in_kc == kripke_valid(phi, "kc"), phi
        splits += in_h != in_kc
    assert splits >= 20


def _random_negative(rng, depth, atoms):
    """A goal built from ~g, g -> bot, top and bot by & and |."""
    if depth == 0 or rng.random() < 0.4:
        g = random_prop_formula(rng, 2, atoms)
        return rng.choice([Not(g), Implies(g, Bot()), Top(), Bot()])
    op = rng.choice([And, Or])
    return op(_random_negative(rng, depth - 1, atoms), _random_negative(rng, depth - 1, atoms))


@pytest.mark.parametrize("logic", [H, KC], ids=["h", "kc"])
def test_negative_goals_agree_with_kripke_models(logic):
    # a classically valid query with a negative goal is answered without the
    # prover (with | only on kc); the answers still agree with the Kripke
    # oracle, on goals with | in H too, which the prover decides
    rng = random.Random(26)
    atoms = ["A", "B"]
    valid = 0
    for _ in range(300):
        premises = [random_prop_formula(rng, 2, atoms) for _ in range(rng.randrange(3))]
        goal = _random_negative(rng, 2, atoms)
        query = Implies(and_join(premises), goal) if premises else goal
        holds = decide(logic, premises, goal).holds
        assert holds == kripke_valid(query, logic.kind), (premises, goal)
        valid += holds
    assert 30 <= valid <= 270


def test_negative_goals_skip_the_prover(monkeypatch):
    # the prover answers only goals outside the negative fragment
    calls = []

    def prover(premises, goal):
        calls.append(goal)
        return prove_H(premises, goal)

    monkeypatch.setattr(semantics, "prove_H", prover)
    inside = [(H, [pf("A -> B")], pf("~(A & ~B) & (A & ~A -> bot) & top")),
              (KC, [], pf("~A | ~~A")), (KC, [pf("~B")], pf("~(A & B) | bot"))]
    for logic, premises, goal in inside:
        assert decide(logic, premises, goal) == Verdict(True)
    assert calls == []
    outside = [(H, [], pf("~A | ~~A")), (H, [], pf("~~A -> A")), (KC, [], pf("~A | ~~A | B"))]
    for logic, premises, goal in outside:
        decide(logic, premises, goal)
    assert len(calls) == len(outside)
    assert decide(H, [], pf("~A | ~~A")) == Verdict(False)


def test_identity_axiom_needs_no_backend():
    # a goal disjunct that is top, a premise or a -> a settles the query in
    # every logic before the backend runs, so even budget 0 is enough
    for logic in (CLASSICAL, lcm(5), LC, KC, H):
        assert semantics.decide(logic, [], pf("(A -> A) | B"), budget=0) == Verdict(True)
        assert semantics.decide(logic, [pf("P(a)")], pf("Q | P(a)"), budget=0) == Verdict(True)
        assert semantics.decide(logic, [], pf("B | top"), budget=0) == Verdict(True)
    with pytest.raises(semantics.BudgetExceededError):
        semantics.decide(CLASSICAL, [], pf("(A -> B) | B"), budget=0)


def test_prover_takes_a_disjunction_in_one_rule_application():
    # the Or rules range over the whole disjunction, so a long one needs no
    # recursion per disjunct at the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    n = 3000
    qs = [Atom(f"Q{i}", ()) for i in range(n)]
    p, r = Atom("P", ()), Atom("R", ())
    goal = or_join([Implies(p, q) for q in qs])
    assert decide(H, [qs[7]], goal) == Verdict(True)
    assert prove_H([or_join(qs)], pf("S -> T")) is False
    assert decide(H, [or_join(qs)], pf("S -> T")).chain_size == 2
    assert decide(H, [Implies(or_join(qs), r)], Implies(qs[5], r)) == Verdict(True)


def test_h_kc_refute_classically_before_the_prover(monkeypatch):
    # a classical countervaluation is a one-world Kripke model, so it refutes
    # the query in H and in KC, and the prover is not asked
    def no_prover(*_):
        raise AssertionError("the prover was asked")

    monkeypatch.setattr(semantics, "prove_H", no_prover)
    assert decide(H, [pf("A -> B")], pf("B -> A")) == Verdict(False, 2, {"B": 1, "A": 0})
    assert decide(KC, [], pf("A | B")) == Verdict(False, 2, {"A": 0, "B": 0})


@pytest.mark.parametrize(
    "logic, text",
    [
        (H, "A | ~A"),
        (H, "~A | ~~A"),
        (H, "((A -> B) -> A) -> A"),
        (H, "(A -> B) | (B -> A)"),
        (KC, "(A -> B) | (B -> A)"),
    ],
)
def test_classically_valid_h_kc_invalid_queries_reach_the_prover(logic, text):
    assert decide(logic, [], pf(text)) == Verdict(False)


def test_h_kc_agree_with_kripke_models_on_queries_with_premises():
    # every countervaluation refutes the query on the 2-chain, that is in a
    # one-world Kripke model; 2-3 atoms keep the 4-world enumeration fast
    rng = random.Random(53)
    seen = set()
    for _ in range(300):
        atoms = ["A", "B", "C"][: rng.randint(2, 3)]
        premises = [random_prop_formula(rng, 2, atoms) for _ in range(rng.randint(1, 2))]
        goal = random_prop_formula(rng, 2, atoms)
        query = Implies(and_join(premises), goal)
        for logic in (H, KC):
            verdict = decide(logic, premises, goal)
            assert verdict.holds == kripke_valid(query, logic.kind), (logic, query)
            if verdict.countervaluation is not None:
                assert verdict.chain_size == 2 and refutes(query, verdict.countervaluation, 2)
            seen.add((verdict.holds, verdict.countervaluation is not None))
    assert seen == {(True, False), (False, True), (False, False)}


def test_h_kc_answer_never_depends_on_the_budget():
    # a classical check that runs out of budget falls through to the prover
    for logic in (H, KC):
        assert decide(logic, [], pf("(A -> B) | B"), budget=0) == Verdict(False)


def test_h_kc_agree_with_kripke_models_on_wide_disjunctions():
    rng = random.Random(47)
    atoms = ["A", "B"]
    answers = set()
    for _ in range(50):
        parts = [random_prop_formula(rng, 2, atoms) for _ in range(rng.randint(3, 4))]
        wide = or_join(parts) if rng.random() < 0.5 else Or(Or(parts[0], parts[1]), or_join(parts[2:]))
        h = random_prop_formula(rng, 2, atoms)
        for phi in (wide, Implies(wide, h), Implies(Implies(wide, h), h)):
            in_h = decide(H, [], phi).holds
            assert in_h == kripke_valid(phi, "h"), phi
            assert decide(KC, [], phi).holds == kripke_valid(phi, "kc"), phi
            answers.add(in_h)
    assert answers == {True, False}


def test_oracles_agree_with_evaluation_at_each_valuation():
    # godel_oracle and kripke_valid evaluate every valuation at once; a
    # formula's value at one valuation, by godel_value and _forced, is the
    # reference
    rng = random.Random(4)
    for _ in range(200):
        phi = random_prop_formula(rng, 3, ["A", "B", "C"][: rng.randint(1, 3)])
        atoms = prop_atoms(phi)
        for size in (2, 3, 4):
            vals = itertools.product(range(size), repeat=len(atoms))
            valid = all(godel_value(phi, dict(zip(atoms, v)), size - 1) == size - 1 for v in vals)
            assert godel_oracle(phi, size) == valid, (to_text(phi), size)
        for logic in ("h", "kc"):
            valid = all(
                _forced(phi, up, dict(zip(atoms, v))) == (1 << len(up)) - 1
                for up in KRIPKE_FRAMES
                if logic == "h" or _has_top(up)
                for v in itertools.product(_upsets(up), repeat=len(atoms))
            )
            assert kripke_valid(phi, logic) == valid, (to_text(phi), logic)
