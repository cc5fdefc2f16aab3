import contextlib
import operator
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from epsitau import syntax
from epsitau.judgments import CLASSICAL
from epsitau.semantics import Instance, Verdict, decide
from epsitau.syntax import (
    And,
    App,
    Atom,
    Eps,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Tau,
    Term,
    Var,
    canonical_text,
    contains_etau,
    dedup,
    eps,
    exists,
    fill,
    forall,
    free_vars,
    fresh,
    fresh_numbered,
    is_quantifier_free,
    match_holes,
    names,
    occurs,
    or_join,
    or_spine,
    sharing,
    subst_each,
    subst_term,
    subst_var,
    tau,
    template,
    to_text,
    transform,
)
from epsitau.translate import et_translate
from epsitau.parser import parse_formula as pf, parse_term as pt

from helpers import (
    node_facts,
    random_binder_term,
    random_formula,
    random_matrix,
    random_qf_formula,
    random_term,
    stack_fmt,
)


def test_alpha_eq_renamed_binder():
    assert pt("eps x. P(x)") == pt("eps y. P(y)")


def test_alpha_eq_distinct_heads():
    assert pt("eps x. P(x)") != pt("eps x. Q(x)")


def test_alpha_eq_nested_binders():
    a = pt("eps x. P(x, eps y. Q(y, x))")
    b = pt("eps z. P(z, eps y. Q(y, z))")
    assert a == b


def test_alpha_eq_sort_mismatch():
    # a term and an atom of the same text are never equal
    assert pt("P(c)") != pf("P(c)")


def test_subst_var_direct():
    assert subst_var(pf("P(x)"), "x", pt("eps y. P(y)")) == pf("P(eps y. P(y))")


def test_subst_var_capture_forced():
    # substituting f(y) under a binder for y must not capture
    phi = pf("ex y. R(x, y)")
    out = subst_var(phi, "x", pt("f(y)"))
    assert out == pf("ex z. R(f(y), z)")
    assert "y" in free_vars(out)


def test_subst_var_not_free():
    assert subst_var(pf("P(c)"), "x", pt("t")) == pf("P(c)")


def test_subst_term_two_occurrences():
    e = pt("eps z. P(z)")
    phi = pf("P(f(eps z. P(z))) -> P(eps z. P(z))")
    assert subst_term(phi, e, pt("c")) == pf("P(f(c)) -> P(c)")


def test_subst_term_capture_blocks_replacement():
    # A(y) = B(eps x. C(x, y), y); occurrences of eps x. C(x, t) under the
    # binder for y use y, not t, so A(eps y. A(y)) is unchanged
    e = pt("eps x. C(x, t)")
    a_t = pf("B(eps x. C(x, t), t)")
    assert subst_term(a_t, e, pt("s")) == pf("B(s, t)")
    a_self = pf("B(eps x. C(x, eps y. B(eps x. C(x, y), y)), eps y. B(eps x. C(x, y), y))")
    outer = pt("eps y. B(eps x. C(x, y), y)")
    # the inner eps x. C(x, y) is alpha-distinct from e, so only exact copies go
    changed = subst_term(a_self, e, pt("s"))
    assert occurs(outer, changed) or changed == a_self
    assert subst_term(pf("B(eps x. C(x, y), y)"), e, pt("s")) == pf("B(eps x. C(x, y), y)")


def test_subst_term_no_occurrence():
    u = pf("Q(d)")
    assert subst_term(u, pt("eps z. P(z)"), pt("a")) == u


def test_subst_term_does_not_descend_into_replacement():
    e = pt("eps x. P(x)")
    s = pt("f(eps x. P(x))")
    out = subst_term(pf("Q(eps x. P(x))"), e, s)
    assert out == pf("Q(f(eps x. P(x)))")


def test_occurs_under_renamed_binder():
    assert occurs(pt("eps x. P(x)"), pf("P(f(eps y. P(y)))"))


def test_occurs_negative_and_reflexive():
    assert not occurs(pt("eps x. P(x)"), pf("Q(c)"))
    e = pt("eps x. P(x)")
    assert occurs(e, e)


def test_match_matrix_single_position():
    assert match_holes(pf("P(x)"), pf("P(f(a))"), {"x"}) == {"x": pt("f(a)")}


def test_match_matrix_multi_position():
    pattern = pf("P(f(x)) -> P(x)")
    target = pf("P(f(eps x. P(x))) -> P(eps x. P(x))")
    assert match_holes(pattern, target, {"x"}) == {"x": pt("eps x. P(x)")}


def test_match_matrix_head_mismatch():
    assert match_holes(pf("P(x)"), pf("Q(a)"), {"x"}) is None


def test_match_matrix_inconsistent_positions():
    assert match_holes(pf("R(x, x)"), pf("R(a, b)"), {"x"}) is None


def test_match_matrix_rejects_captured_solutions():
    # the only candidate uses the bound variable, which is not a term
    pattern = pf("Q(eps y. R(x, y))")
    target = pf("Q(eps y. R(y, y))")
    assert match_holes(pattern, target, {"x"}) is None


def test_or_spine_join_roundtrip():
    f = pf("A | (B | C)")
    assert or_spine(f) == [pf("A"), pf("B"), pf("C")]
    assert or_join(or_spine(f)) == f


def test_dedup_alpha():
    xs = dedup([pt("eps x. P(x)"), pt("eps y. P(y)"), pt("c")])
    assert len(xs) == 2


def test_canonical_text_ignores_hints():
    assert canonical_text(pt("eps x. P(x)")) == canonical_text(pt("eps y. P(y)"))


def test_printer_avoids_shadowed_free_names():
    # binder hint collides with a free variable of the body
    e = eps("y", Atom("R", (Var("y"), App("f", (Var("y'"),)))))
    text = to_text(e)
    assert pt(text) == e


def test_names_collects_variable_function_predicate_and_binder_names():
    phi = pf("all u. P(x, f(u, eps y. Q(y, c))) | ex v. R")
    assert names(phi, pt("g(z)")) == {"u", "P", "x", "f", "y", "Q", "c", "v", "R", "g", "z"}


def test_fresh_names_prime_or_number_the_hint_and_take_it():
    taken = {"x", "x'", "c_1"}
    assert [fresh("x", taken), fresh("x", taken), fresh("y", taken)] == ["x''", "x" + "'" * 3, "y"]
    assert [fresh_numbered("c", taken), fresh_numbered("c", taken)] == ["c_2", "c_3"]
    assert taken == {"x", "x'", "x''", "x" + "'" * 3, "y", "c_1", "c_2", "c_3"}


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def terms(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    return random_term(rng, depth=draw(st.integers(0, 4)), vars_=["v"])


@st.composite
def formulas(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    return random_formula(rng, depth=draw(st.integers(0, 4)), vars_=["v"])


@settings(max_examples=80, deadline=None)
@given(terms(), terms())
def test_alpha_is_equivalence(a, b):
    # a copy rebuilt outside any sharing scope is a distinct object, so the
    # structural compare runs and not the identity shortcut of __eq__
    copy = pt(to_text(a))
    assert copy is not a and copy == a and a == copy
    assert (a == b) == (b == a)


@settings(max_examples=80, deadline=None)
@given(formulas())
def test_subst_var_identity(phi):
    assert subst_var(phi, "v", Var("v")) == phi


@settings(max_examples=80, deadline=None)
@given(formulas(), terms())
def test_subst_term_self_and_absent(phi, t):
    es = [s for s in [t] if s.__class__.__name__ in ("Eps", "Tau")]
    for e in es:
        assert subst_term(phi, e, e) == phi
    absent = pt("eps q. Zq(q)")
    assert subst_term(phi, absent, pt("a")) == phi


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), terms())
def test_match_matrix_roundtrip(seed, t):
    rng = random.Random(seed)
    matrix = random_matrix(rng, depth=3, hole="v")
    target = subst_var(matrix, "v", t)
    assert match_holes(matrix, target, {"v"}) == {"v": t}


@settings(max_examples=60, deadline=None)
@given(formulas())
def test_print_parse_roundtrip(phi):
    assert pf(to_text(phi)) == phi


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_subst_commutes_on_disjoint_occurrences(seed):
    rng = random.Random(seed)
    phi = random_formula(rng, 3, [])
    e1 = pt("eps x. P(x)")
    e2 = pt("eps x. Q(x)")
    s1 = pt("a")
    s2 = pt("b")
    # side conditions: e2 does not occur in s1, e1 != e2, replacements ground
    one = subst_term(subst_term(phi, e1, s1), e2, s2)
    two = subst_term(subst_term(phi, e2, s2), e1, s1)
    assert one == two


# ---------------------------------------------------------------------------
# Shared nodes and long disjunctions


def test_sharing_interns_alpha_equal_terms_and_keeps_binder_names():
    with sharing():
        a, b, c = pt("eps x. P(x)"), pt("eps y. P(y)"), pt("eps x. P(x)")
        text = to_text(et_translate(pf("(ex x. P(x)) & (ex y. P(y))")))
    assert a == b and hash(a) == hash(b)
    assert a is c  # one node per structure and binder names
    assert a is not b and (to_text(a), to_text(b)) == ("eps x. P(x)", "eps y. P(y)")
    assert text == "P(eps x. P(x)) & P(eps y. P(y))"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_constructors_store_the_facts_of_the_plain_formulas(seed):
    # each node reads its hash, free variables and flags off its children's
    # stored facts; they equal the plain formulas over the children, so the
    # hash values, and with them the order of every set of nodes, stay put
    rng = random.Random(seed)
    nested = "eps x. A(eps y. B(x, eps z. C(x, y, z)), tau w. D(w, x))"  # indices escape two binders
    for scope in (contextlib.nullcontext, sharing):
        with scope():
            objs = [random_binder_term(rng, 4, ["v"]) for _ in range(3)] + [pt(nested)]
            objs += [random_formula(rng, 3, ["v", "w"]) for _ in range(3)]
            objs += [rng.choice((forall, exists))("v", Not(rng.choice(objs[-3:])))]
            objs += [Atom("P", tuple(objs[:3])), or_join(objs[-4:]), Implies(objs[-1], objs[-2])]
        nodes = list(dict.fromkeys(n for o in objs for n in syntax._nodes(o)))
        assert [(n._hash, n._fv, n._info) for n in nodes] == [node_facts(n) for n in nodes]
        assert any(n._info >> 2 >= 3 for n in nodes)


def test_sharing_never_returns_a_node_of_another_class():
    # the intern table is keyed by node, and nodes of different classes over
    # the same children share a hash; equality tells the classes apart, so
    # each constructor returns a node of its own class, the first one built
    a, b, u, body = pf("A(u)"), pf("B(u)"), pt("u"), pf("C(x)")
    groups = [
        [(And, (a, b)), (Or, (a, b)), (Implies, (a, b))],
        [(Not, (body,)), (Forall, ("x", body)), (Exists, ("x", body)), (Eps, ("x", body)), (Tau, ("x", body))],
        [(App, ("P", (u,))), (Atom, ("P", (u,)))],
    ]
    with sharing():
        for group in groups:
            first = [cls(*args) for cls, args in group]
            assert [type(n) for n in first] == [cls for cls, _ in group]
            assert len({hash(n) for n in first}) == 1 and len({id(n) for n in first}) == len(group)
            again = [cls(*args) for cls, args in reversed(group)]
            assert all(map(operator.is_, again, reversed(first)))
        x, z = eps("x", pf("C(x)")), eps("z", pf("C(z)"))
        assert x == z and x is not z
        assert eps("z", pf("C(z)")) is z and eps("x", pf("C(x)")) is x
        assert (to_text(x), to_text(z)) == ("eps x. C(x)", "eps z. C(z)")


def test_long_disjunction_needs_no_recursion():
    # A(c0) -> A(c1) | ... | A(c4999) -> A(e): every walker keeps an explicit
    # stack, so the default recursion limit is enough
    n = 5000
    e = pt("eps x. A(x)")
    ts = [App(f"c{i}", ()) for i in range(n)] + [e]
    goal = or_join([Implies(Atom("A", (ts[i],)), Atom("A", (ts[i + 1],))) for i in range(n)])
    assert len(or_spine(goal)) == n
    assert pf(to_text(goal)) == goal
    assert contains_etau(goal) and is_quantifier_free(goal)
    closed = subst_term(goal, e, ts[0])  # closes the chain into a cycle
    assert not contains_etau(closed) and is_quantifier_free(closed)
    assert to_text(closed).endswith(" | (A(c4999) -> A(c0))")
    assert decide(CLASSICAL, [], goal) == decide(CLASSICAL, [], closed) == Verdict(True)
    v = decide(CLASSICAL, [closed], Atom("B"))
    assert not v.holds and v.chain_size == 2
    assert len(v.countervaluation) == n + 1 and v.countervaluation["B"] == 0


def test_transform_fold_builds_each_distinct_node_once():
    # 40 levels of f = (f & f) | B: a tree of 4 * 2^40 - 3 nodes over 82
    # distinct ones; the fold counts the tree and builds each node once
    f, b = Atom("A", ()), Atom("B", ())
    for _ in range(40):
        f = Or(And(f, f), b)
    built = []

    def build(node, sizes):
        built.append(node)
        return 1 + sum(sizes)

    assert transform(f, lambda node, depth: 1 if isinstance(node, Atom) else None, build) == 4 * 2**40 - 3
    assert len(built) == len({id(n) for n in built}) == 80


# ---------------------------------------------------------------------------
# One text memo per output


def _through_one_memo(objs):
    memo: dict = {}
    return [to_text(o, memo) for o in objs]


def test_text_memo_keys_binder_names_by_the_free_variables():
    # the one node B(eps x. A(x)) renames its binder apart from the free x of
    # the first formula, and only there
    b = Atom("B", (eps("x", pf("A(x)")),))
    fs = [Implies(pf("A(x)"), b), Implies(pf("C(y)"), b), b]
    texts = ["A(x) -> B(eps x'. A(x'))", "C(y) -> B(eps x. A(x))", "B(eps x. A(x))"]
    assert _through_one_memo(fs) == [to_text(f) for f in fs] == texts
    t = tau("y", pf("B(y)"))
    gs = [And(pf("B(y)"), Atom("A", (t,))), Atom("A", (t,)), t]
    texts = ["B(y) & A(tau y'. B(y'))", "A(tau y. B(y))", "tau y. B(y)"]
    assert _through_one_memo(gs) == [to_text(g) for g in gs] == texts


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_text_memo_prints_shared_nodes_as_plain_printing(seed):
    # built in one scope, the formulas share their equal subterms and atoms,
    # and the implications over them have other free variables
    rng = random.Random(seed)
    with sharing():
        pool = [random_formula(rng, 3, rng.sample(["x", "y", "z"], rng.randint(0, 2))) for _ in range(6)]
        objs = pool + [Implies(rng.choice(pool), rng.choice(pool)) for _ in range(6)]
    rng.shuffle(objs)
    assert _through_one_memo(objs) == [to_text(o) for o in objs]


# ---------------------------------------------------------------------------
# One substitution walker


def _subst_one_walk(obj, e, s):
    """subst_term's definition: one transform that puts s at each node equal to e."""
    return transform(obj, lambda node, depth: s if isinstance(node, Term) and node == e else None)


_E = "eps x. C(x, y)"


def _substitution_cases(rng, e):
    """Random formulas over atoms of e, its separately parsed copies (one under
    another binder name), a term holding e, and e under a binder capturing y."""
    terms = [e, pt(_E), pt("eps z. C(z, y)"), pt(f"f({_E})"), pt("c"), Var("v"),
             pt("tau y. Q(y, c)"), pt("eps y. B(eps x. C(x, y), y)")]
    atoms = [Atom("P", (t,)) for t in terms] + [Atom("R", (rng.choice(terms), rng.choice(terms)))]
    atoms.append(pf(f"ex y. P({_E})"))  # e uses the y bound here: left alone
    return [random_qf_formula(rng, 4, atoms) for _ in range(40)]


@pytest.mark.parametrize("shared", [False, True])
def test_subst_each_agrees_with_one_walk_per_term(shared):
    rng = random.Random(30)
    with sharing() if shared else contextlib.nullcontext():
        e = pt(_E)
        ts = [pt("c"), pt(f"g({_E})"), e, pt(_E), pt("tau y. Q(y, c)")]  # s may contain e, or be e
        for obj in _substitution_cases(rng, e) + [pt(_E), pf("P(c)")]:
            got = [g for [g] in subst_each([obj], e, ts)]
            want = [_subst_one_walk(obj, e, t) for t in ts]
            assert got == want
            assert [to_text(g) for g in got] == [to_text(w) for w in want]
            assert [g is obj for g in got] == [w is obj for w in want]  # kept where nothing changed
            assert list(subst_each([obj], e, [])) == []
            assert subst_term(obj, e, ts[0]) == want[0]
            if not occurs(e, obj):
                assert all(g is obj for g in got)
        # obj == e gives each s itself, also for the alpha-variant e' of e and s = e
        for variant in (pt(_E), pt("eps z. C(z, y)")):
            assert all(map(operator.is_, [g for [g] in subst_each([variant], e, ts)], ts))
        captured = pf(f"B({_E}, y) & (ex y. B({_E}, y))")
        assert list(subst_each([captured], e, ts[:1])) == [[pf(f"B(c, y) & (ex y. B({_E}, y))")]]


@pytest.mark.parametrize("shared", [False, True])
def test_subst_each_substitutes_many_roots_in_one_walk(shared):
    rng = random.Random(31)
    with sharing() if shared else contextlib.nullcontext():
        e = pt(_E)
        ts = [pt("c"), pt(f"g({_E})"), e, pt("eps z. C(z, y)")]
        cases = _substitution_cases(rng, e)
        common = Atom("R", (pt(f"f({_E})"), e))  # one node under two roots
        roots = [And(common, cases[0]), Or(cases[1], common), *cases[2:8], e, pt(_E), pf("P(c)")]
        results = list(subst_each(roots, e, ts))
        assert len(results) == len(ts)
        for t, got in zip(ts, results):
            want = [_subst_one_walk(obj, e, t) for obj in roots]
            assert got == want
            assert [to_text(g) for g in got] == [to_text(w) for w in want]
            assert [g is obj for g, obj in zip(got, roots)] == [w is obj for w, obj in zip(want, roots)]
            assert got[0].left is got[1].right  # the shared node is rebuilt once, for both roots
            assert got[-3] is t and got[-2] is t  # roots that are e become s itself
        assert list(subst_each([], e, ts)) == [[] for _ in ts]


# ---------------------------------------------------------------------------
# Filling a template with binder-free atoms


def _binder_free_atom(rng, leaves):
    def term(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        return App(rng.choice("fg"), tuple(term(depth - 1) for _ in range(rng.randint(1, 2))))

    return Atom(rng.choice("PQ"), tuple(term(3) for _ in range(rng.randint(0, 2))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_fill_prints_binder_free_atoms_as_the_printer_does(seed):
    # the first atoms meet their eps/tau leaves unprinted; later atoms
    # find those leaves, and repeated atoms themselves, in the memo
    rng = random.Random(seed)
    leaves = [Var("x"), App("c", ()), eps("x", pf("A(x, y)")), tau("x", pf("B(x) & (ex y. C(x, y))"))]
    holes = [Atom("?0"), Atom("?1")]
    shape = template(Or(holes[0], Implies(holes[1], holes[0])), holes)
    memo: dict = {}
    printed = []  # the memo keys nodes by id: each printed node stays alive
    for _ in range(3):
        a, b = _binder_free_atom(rng, leaves), _binder_free_atom(rng, leaves)
        printed += (a, b)
        for parts in ((a, b), (b, a)):
            assert fill(shape, parts, memo) == to_text(Or(parts[0], Implies(parts[1], parts[0])))


def test_instance_line_over_a_deep_term_needs_no_recursion():
    assert sys.getrecursionlimit() <= 1000
    e = pt("eps x. A(x)")
    t = e
    for _ in range(3000):
        t = App("s", (t,))
    text = "s(" * 3000 + "eps x. A(x)" + ")" * 3000
    memo: dict = {}
    assert to_text(e, memo) == "eps x. A(x)"  # the leaf is in the memo, the tree is not
    inst = Instance("Bm", "eps", (Atom("A", (t,)), Atom("A", (e,))))
    assert inst.text(memo) == f"A({text}) -> A(eps x. A(x))"


# ---------------------------------------------------------------------------
# The printer against its work stack alone


def _printer_cases(rng):
    """Formulas, terms and atoms built in one scope, each term and atom in many
    of them: eps/tau terms, quantifiers, ~ and -> nested on both sides; and
    schema instances over the atoms."""
    with sharing():
        terms = [random_term(rng, 3, ["x", "y"]) for _ in range(6)]
        terms += [App("s", (rng.choice(terms),)) for _ in range(4)]
        atoms = [Atom(rng.choice("PQ"), tuple(rng.sample(terms, rng.randint(0, 2)))) for _ in range(8)]
        pool = [random_qf_formula(rng, 3, atoms) for _ in range(6)]
        pool += [rng.choice((forall, exists))("x", rng.choice(pool)) for _ in range(2)]
        pool += [random_formula(rng, 3, ["x", "y"]) for _ in range(4)]
        pick = lambda: rng.choice(pool + atoms)
        objs = pool + [Implies(Implies(pick(), pick()), Implies(pick(), pick())) for _ in range(6)]
        objs += [Not(pick()) for _ in range(2)] + terms + atoms
    rng.shuffle(objs)
    kinds = [("EM", 1), ("J", 2), ("bigdisj", 2), ("bigdisj", 3), ("Bm", 3)]
    instances = [Instance(k, rng.choice(("eps", "tau")), tuple(rng.sample(atoms, n))) for k, n in kinds]
    return objs, atoms, instances


def _printed(objs, atoms, instances) -> list:
    """Every text the printer makes of the cases, through one memo where the callers pass one."""
    memo: dict = {}
    out = [to_text(o, memo) for o in objs] + [to_text(o) for o in objs] + [canonical_text(o) for o in objs]
    out += [i.text(memo) for i in instances]
    for o in objs:
        shape = template(o, atoms)
        out += [shape, fill(shape, atoms[1:] + atoms[:1], memo)]
    # fill keeps an implication or quantified part's text in the memo, under
    # the free variables of an implication between two parts, which needs
    # parentheses around such a part on its left
    compound = [o for o in objs if type(o) in (Implies, Forall, Exists)]
    shape = template(Implies(atoms[0], atoms[1]), atoms[:2])
    for p, q in zip(compound, compound[1:] + compound[:1]):
        out += [fill(shape, [p, q], memo), to_text(Implies(p, q), memo)]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_printer_agrees_with_the_work_stack_printer(seed):
    # the printer composes a term, atom or implication outside every binder
    # from its parts' texts; printing every node through the work stack, as
    # helpers.stack_fmt does, gives the same bytes
    cases = _printer_cases(random.Random(seed))
    got = _printed(*cases)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syntax, "_fmt", stack_fmt)
        assert _printed(*cases) == got
