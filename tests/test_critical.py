import random

import pytest

from epsitau.critical import (
    degree,
    is_predicative,
    is_weak,
    make_critical,
    nested_subterms,
    rank,
    recognize_critical,
    select_max,
    subordinate_subterms,
)
from epsitau.parser import parse_formula as pf, parse_term as pt
from epsitau.syntax import (
    And,
    App,
    Atom,
    Eps,
    Exists,
    Forall,
    Implies,
    Tau,
    canonical_text,
    contains_etau,
    free_vars,
    occurs,
    subst_term,
    subst_var,
    to_text,
)

from helpers import (
    dependent_tower,
    random_binder_term,
    random_formula,
    random_matrix,
    random_term,
    solved_readings,
    walked_rank,
    walked_subordinates,
)


# ---------------------------------------------------------------------------
# make_critical


def test_make_epsilon():
    c = make_critical(pf("P(x)"), "x", "eps", pt("c"))
    assert c.rendered == pf("P(c) -> P(eps x. P(x))")


def test_make_tau():
    c = make_critical(pf("P(x)"), "x", "tau", pt("c"))
    assert c.rendered == pf("P(tau x. P(x)) -> P(c)")


def test_make_with_witness_equal_to_term():
    c = make_critical(pf("P(x)"), "x", "eps", pt("eps x. P(x)"))
    assert c.rendered == pf("P(eps x. P(x)) -> P(eps x. P(x))")


def test_make_rejects_quantifiers():
    with pytest.raises(ValueError):
        make_critical(pf("all y. R(x, y)"), "x", "eps", pt("c"))


def test_make_rejects_an_unknown_kind():
    with pytest.raises(ValueError):
        make_critical(pf("P(x)"), "x", "delta", pt("c"))


def test_kind_is_read_off_the_critical_term():
    assert [c.kind for c in recognize_critical(pf("P(c) -> P(eps x. P(x))"))] == ["eps"]
    assert [c.kind for c in recognize_critical(pf("P(tau x. P(x)) -> P(c)"))] == ["tau"]
    assert make_critical(pf("P(x)"), "x", "tau", pt("c")).kind == "tau"


def test_term_never_inside_own_matrix():
    c = make_critical(pf("P(x)"), "x", "eps", pt("c"))
    assert not occurs(c.critical_term, c.matrix_pair()[1])


# ---------------------------------------------------------------------------
# recognize_critical


def test_recognize_cross_term_reading():
    u = pf("P(f(eps x. P(x))) -> P(eps x. P(x))")
    v = pf("P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z))")
    uv = pf(f"({to_text(u)}) -> ({to_text(v)})")
    readings = recognize_critical(uv)
    assert len(readings) == 1
    r = readings[0]
    assert r.critical_term == pt("eps z. P(f(z)) -> P(z)")
    assert r.witness == pt("eps x. P(x)")
    assert r.matrix_pair("z")[1] == pf("P(f(z)) -> P(z)")


def test_recognize_no_epsilon():
    assert recognize_critical(pf("P(c) -> Q(c)")) == []


def test_recognize_simple_epsilon():
    readings = recognize_critical(pf("P(f(a)) -> P(eps x. P(x))"))
    assert len(readings) == 1
    assert readings[0].witness == pt("f(a)")


def test_recognize_tau():
    readings = recognize_critical(pf("A(tau y. A(y)) -> A(g(d))"))
    assert len(readings) == 1
    assert readings[0].kind == "tau" and readings[0].witness == pt("g(d)")


def test_recognize_roundtrip_random():
    rng = random.Random(5)
    for _ in range(120):
        matrix = random_matrix(rng, 2, "x")
        witness = random_term(rng, 2, [])
        kind = "eps" if rng.random() < 0.5 else "tau"
        c = make_critical(matrix, "x", kind, witness)
        readings = recognize_critical(c.rendered)
        assert any(
            r.kind == kind
            and r.critical_term == c.critical_term
            and r.witness == c.witness
            for r in readings
        )


def test_recognize_degenerate_matrix():
    # a matrix that ignores its variable renders as Q(d) -> Q(d); the term
    # does not occur there, and recognition only reads occurring terms
    c = make_critical(pf("Q(d)"), "x", "eps", pt("c"))
    assert c.rendered == pf("Q(d) -> Q(d)")
    assert recognize_critical(c.rendered) == []


def _random_implication(rng):
    """A seeded implication that may read as a critical formula, and whether
    its candidate term's body ignores the bound variable."""
    kind = rng.choice(("eps", "tau"))
    witness = random_term(rng, 2, [])
    if rng.random() < 0.4:  # a cross-term reading: another critical term as the witness
        witness = make_critical(random_matrix(rng, 1, "y"), "y", rng.choice(("eps", "tau")), witness).critical_term
    if rng.random() < 0.2:  # a body that ignores its variable
        body = random_formula(rng, 2, [])
        e = (Eps if kind == "eps" else Tau)("x", body)
        at_e = Atom("P", (e,))
        return rng.choice((Implies(at_e, body), Implies(body, at_e), Implies(body, Implies(body, at_e)))), True
    phi = make_critical(random_matrix(rng, 2, "x"), "x", kind, witness).rendered
    if rng.random() < 0.3:  # swap the sides, mostly breaking the reading
        phi = Implies(phi.right, phi.left)
    return phi, False


def test_recognize_agrees_with_instantiate_compare_then_match():
    rng = random.Random(37)
    seen = {"tau": 0, "cross": 0, "vacuous": 0, "none": 0}
    for _ in range(400):
        phi, vacuous = _random_implication(rng)
        readings = recognize_critical(phi)
        assert readings == solved_readings(phi), to_text(phi)
        seen["tau"] += any(r.kind == "tau" for r in readings)
        seen["cross"] += any(contains_etau(r.witness) for r in readings)
        seen["none"] += not readings
        seen["vacuous"] += vacuous
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# classification


def test_predicative_ground_witness():
    c = make_critical(pf("P(x)"), "x", "eps", pt("c"))
    assert is_predicative(c)


def test_impredicative_witness():
    e = pt("eps x. P(x)")
    c = make_critical(pf("P(x)"), "x", "eps", pt("f(eps x. P(x))"))
    assert not is_predicative(c)
    assert occurs(e, c.witness)


def test_impredicative_after_substitution():
    # B(g(f(eB))) -> B(eB) arises from substituting into a predicative premise
    c = recognize_critical(pf("B(g(f(eps y. B(y)))) -> B(eps y. B(y))"))[0]
    assert not is_predicative(c)


def test_weakness():
    c = make_critical(pf("P(x)"), "x", "eps", pt("c"))
    assert is_weak(c, [pt("eps y. B(y)")])
    c2 = make_critical(pf("P(x)"), "x", "eps", pt("f(eps y. B(y))"))
    assert not is_weak(c2, [pt("eps y. B(y)")])
    assert is_weak(c2, [pt("eps w. Q(w)")])


def test_weak_implies_predicative_when_own_term_ambient():
    rng = random.Random(9)
    for _ in range(80):
        matrix = random_matrix(rng, 2, "x")
        witness = random_term(rng, 2, [])
        c = make_critical(matrix, "x", "eps", witness)
        ambient = [c.critical_term, pt("eps y. B(y)")]
        if is_weak(c, ambient):
            assert is_predicative(c)


# ---------------------------------------------------------------------------
# degree and rank


def test_degree_base():
    assert degree(pt("eps x. P(x)")) == 1


def test_degree_nested_closed():
    assert degree(pt("eps x. P(x, eps y. Q(y))")) == 2
    assert nested_subterms(pt("eps x. P(x, eps y. Q(y))")) == [pt("eps y. Q(y)")]


def test_degree_subordinate_not_nested():
    e = pt("eps x. D(x, eps y. D(x, y))")
    assert degree(e) == 1
    assert nested_subterms(e) == []


def test_degree_non_binder_is_zero():
    assert degree(pt("f(c)")) == 0


def test_rank_base():
    assert rank(pt("eps z. P(f(z)) -> P(z)")) == 1


def test_rank_subordinate():
    e = pt("eps x. D(x, eps y. D(x, y))")
    assert rank(e) == 2
    assert len(subordinate_subterms(e)) == 1


def test_rank_counts_quantifiers_between_a_term_and_its_subordinate():
    # A quantifier between e and the inner term shifts the index of e's
    # variable inside it; the inner term is subordinate all the same.
    assert rank(pt("eps x. A(eps z. P(x, z))")) == 2
    assert rank(pt("eps x. all y. A(eps z. P(x, z))")) == 2
    assert rank(pt("tau x. ex y. A(eps z. P(x, z))")) == 2
    assert rank(pt("eps x. all y. A(eps z. P(y, z))")) == 1  # z's term uses y, not x
    assert len(subordinate_subterms(pt("eps x. all y. A(eps z. P(x, z))"))) == 1


def test_subordinates_and_rank_agree_with_the_walk():
    rng = random.Random(41)
    compared = under_quantifier = deep = 0
    while compared < 240:
        e = random_binder_term(rng, 4, []) if rng.random() < 0.7 else random_term(rng, 4, [])
        if not isinstance(e, (Eps, Tau)):
            continue
        subs = subordinate_subterms(e)
        assert len(subs) == len(set(subs))
        assert set(subs) == set(walked_subordinates(e)), to_text(e)
        assert rank(e) == walked_rank(e), to_text(e)
        compared += 1
        under_quantifier += bool(subs) and isinstance(e.body, (Forall, Exists))
        deep += rank(e) >= 3
    assert under_quantifier >= 20 and deep >= 10, (under_quantifier, deep)


def test_subordinates_come_inner_first():
    e = pt("eps x. A(eps y. B(x, eps z. C(x, y, z)))")
    inner, outer = subordinate_subterms(e)
    assert occurs(inner, outer) and not occurs(outer, inner)


def test_dependent_tower_of_60_has_rank_60_and_degree_1():
    e = pt(dependent_tower(60))
    assert (rank(e), degree(e)) == (60, 1)


def test_rank_rejects_non_binder():
    with pytest.raises(ValueError):
        rank(pt("f(c)"))


def test_rank_invariant_under_substitution():
    rng = random.Random(13)
    deep = 0
    for _ in range(300):
        e = random_binder_term(rng, 4, ["v"])
        inst = subst_var(e, "v", random_term(rng, 2, []))
        assert rank(inst) == rank(e), to_text(e)
        deep += rank(e) >= 3 and "v" in free_vars(e)
    assert deep >= 10, deep


def test_select_max_prefers_rank_then_degree():
    low = pt("eps x. P(x)")
    high = pt("eps x. D(x, eps y. D(x, y))")
    assert select_max([low, high]) == high
    deg2 = pt("eps x. P(x, eps y. Q(y))")
    assert select_max([low, deg2]) == deg2


def test_select_max_singleton_and_empty():
    e = pt("eps x. P(x)")
    assert select_max([e]) == e
    with pytest.raises(ValueError):
        select_max([])


def test_select_max_tie_break_deterministic():
    a = pt("eps z. P(f(z)) -> P(z)")
    b = pt("eps x. P(x)")
    picked = select_max([a, b])
    assert picked == select_max([b, a])
    assert canonical_text(picked) == min(canonical_text(a), canonical_text(b))


# ---------------------------------------------------------------------------
# replacement lemmas as properties


def _random_critical_not_for(rng, e):
    """A critical formula whose term is not e, built over e-containing parts."""
    matrix = random_matrix(rng, 2, "x")
    if rng.random() < 0.5:
        matrix = subst_var(matrix, "x", pt("k(x)"))  # keep x present
    witness = random_term(rng, 2, [])
    if rng.random() < 0.5:
        witness = App("k", (witness, e))
    return make_critical(matrix, "x", "eps", witness)


def test_replacement_preserves_criticality():
    # substituting t for a maximal-rank term e inside another critical
    # formula leaves a critical formula
    rng = random.Random(21)
    checked = 0
    while checked < 80:
        e = pt("eps w. W(w)")
        c = _random_critical_not_for(rng, e)
        if c.critical_term == e or rank(c.critical_term) > rank(e):
            continue
        t = random_term(rng, 1, [])
        out = subst_term(c.rendered, e, t)
        assert recognize_critical(out), to_text(out)
        checked += 1


def test_replacement_does_not_raise_measure():
    rng = random.Random(22)
    checked = deep = 0
    while checked < 300:
        e = random_binder_term(rng, 4, [])
        c = _random_critical_not_for(rng, e)
        ct = c.critical_term
        if ct == e:
            continue
        if (rank(ct), degree(ct)) > (rank(e), degree(e)):
            continue
        t = random_term(rng, 1, [])
        out = subst_term(c.rendered, e, t)
        readings = recognize_critical(out)
        assert readings
        new_terms = [r.critical_term for r in readings]
        assert any(
            (rank(nt), degree(nt)) <= (rank(e), degree(e)) for nt in new_terms
        )
        checked += 1
        deep += rank(e) >= 3 and occurs(e, c.rendered)
    assert deep >= 10, deep


def test_measures_of_critical_terms_positive():
    rng = random.Random(31)
    deep = 0
    for _ in range(60):
        inner = random_binder_term(rng, 3, ["x"], quantifiers=False)
        matrix = And(random_matrix(rng, 2, "x"), Atom("D", (inner,)))
        c = make_critical(matrix, "x", rng.choice(("eps", "tau")), random_term(rng, 2, []))
        assert rank(c.critical_term) >= 1
        assert degree(c.critical_term) >= 1
        deep += rank(c.critical_term) >= 3
    assert deep >= 10, deep
