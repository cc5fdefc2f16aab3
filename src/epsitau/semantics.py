"""Decidable backends: finite Godel chains, an intuitionistic prover, schemas.

Chain validity is decided by a regular (order) CNF encoding handed to the
conflict-driven SAT solver in sat.py, whose effort is bounded by a budget
on literal assignments.  For H and KC a classical refutation comes first
and is a one-world Kripke model; a classically valid query goes to a
terminating contraction-free sequent search for intuitionistic consequence,
and KC adds weak excluded middle on the query's atoms.  Every backend takes
the first-order atoms of a quantifier-free query, one per alpha-class, as
its propositional variables.
decide is the only place a logic meets its backend.  It answers with a
Verdict, and Verdict.describe turns every failure into text.  schema builds
every schema instance, and proves is the one table of which logic proves
which schema (the lemmas of Baaz & Zach, arXiv 1907.04477).  An elimination
step records each instance as an Instance (kind, polarity, atoms) and
certifies it by its row; it prints through a template of its shape, without
its formula.  So only instances from outside a run are decided, by
verify_judgment.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .judgments import H, Judgment, Logic
from .sat import BudgetExceededError, solve
from .syntax import (
    And,
    Atom,
    BOT,
    Bot,
    Formula,
    Implies,
    Not,
    Or,
    Record,
    TOP,
    Top,
    _nodes,
    and_join,
    fill,
    is_quantifier_free,
    or_join,
    or_spine,
    sharing,
    template,
    to_text,
    transform,
)

DEFAULT_BUDGET = 20_000_000


Valuation = dict[str, int]


# ---------------------------------------------------------------------------
# Atoms as propositional variables: node equality is alpha-equality, so an
# Atom node stands for its alpha-class.  Sound for pure logics without
# identity, where distinct atoms are independent.


def prop_atoms(phi: Formula) -> list[Formula]:
    """phi's atoms in first-occurrence order, one per alpha-class."""
    nodes = _nodes(phi, lambda n: not isinstance(n, Atom))
    return list(dict.fromkeys(n for n in nodes if isinstance(n, Atom)))


# ---------------------------------------------------------------------------
# Godel evaluation


def eval_godel(phi: Formula, valuation: Valuation, size: int) -> int:
    """min/max semantics with residuated implication on the chain 0..size-1.

    The designated value is size-1.  The valuation is keyed by atom text, as
    a countervaluation is: every atom takes the value of the first atom of
    its alpha-class in phi.
    """
    if size < 2:
        raise ValueError("a Godel chain needs at least 2 values")
    if not is_quantifier_free(phi):
        raise ValueError(f"not a propositional formula: {to_text(phi)}")
    values: dict[Formula, int] = {}
    for a in prop_atoms(phi):
        v = values[a] = valuation.get(to_text(a), -1)
        if not 0 <= v < size:
            raise ValueError(f"no value on the chain for atom {to_text(a)!r}")
    return _godel_value(phi, values, size - 1)


def _godel_value(phi: Formula, values: dict[Formula, int], top: int) -> int:
    def build(f: Formula, vs: tuple[int, ...]) -> int:
        match f:
            case Not():
                return top if vs[0] == 0 else 0
            case And():
                return min(vs)
            case Or():
                return max(vs)
        return top if vs[0] <= vs[1] else vs[1]

    return transform(phi, _prop_leaf(values.__getitem__, top, 0), build)


def _prop_leaf(atom: Callable[[Formula], object], top: object, bot: object) -> Callable:
    """A transform leaf for a quantifier-free formula.

    An atom f is worth atom(f), top and bot are worth the values given, and
    a connective is built from its operands.  Anything else is refused.
    """

    def leaf(f: Formula, depth: int) -> object:
        if isinstance(f, Atom):
            return atom(f)
        if isinstance(f, (Not, And, Or, Implies)):
            return None
        if f is TOP or f is BOT:
            return top if f is TOP else bot
        raise ValueError(f"not a propositional formula: {to_text(f)}")

    return leaf


Levels = tuple[int, ...]


def _order_encode(
    phi: Formula, m: int
) -> tuple[int, list[list[int]], dict[Formula, list[int]], Levels]:
    """Regular CNF for phi on the m-chain (Haehnle's signed encoding).

    Every subformula psi gets literals x[psi, k] for k = 1..m-1 that stand
    for v(psi) >= k; equal subformulas share them.  Variable 1 is constantly
    true.  Returns the variable count, the clauses, each atom's level
    variables and the root's level literals.  One syntax.transform fold
    makes the literals, each node's after its children's, so the deep
    Herbrand disjunctions need no recursion.
    """
    top = m - 1
    nvars = 1
    clauses: list[list[int]] = [[1]]
    atoms: dict[Formula, list[int]] = {}
    shared: dict[tuple, Levels] = {}

    def fresh() -> list[int]:
        nonlocal nvars
        nvars += top
        return list(range(nvars - top + 1, nvars + 1))

    def atom(f: Formula) -> Levels:
        xs = atoms.get(f)
        if xs is None:
            xs = atoms[f] = fresh()
            clauses.extend([-xs[k + 1], xs[k]] for k in range(top - 1))
        return tuple(xs)

    def build(f: Formula, kids: tuple[Levels, ...]) -> Levels:
        nonlocal nvars
        if isinstance(f, Not):
            return (-kids[0][0],) * top
        la, lb = kids
        key = (type(f), la, lb)
        hit = shared.get(key)
        if hit is None:
            xs = fresh()
            if isinstance(f, Implies):
                # le <-> v(a) <= v(b): le forces a_k -> b_k at every level, and
                # not le forces b_k -> a_(k+1) for k = 0..m-1 (b_0 true, a_m
                # false).  Then v(a -> b) >= k iff v(b) >= k or le.
                nvars += 1
                le = nvars
                clauses.extend([-le, -p, q] for p, q in zip(la, lb))
                clauses.extend([le, -q, p] for q, p in zip((1,) + lb, la + (-1,)))
                for x, q in zip(xs, lb):
                    clauses.extend(([x, -q], [x, -le], [-x, q, le]))
            else:
                s = 1 if isinstance(f, And) else -1  # a | b is dual to a & b
                for x, p, q in zip(xs, la, lb):
                    clauses.extend(([-s * x, s * p], [-s * x, s * q], [s * x, -s * p, -s * q]))
            hit = shared[key] = tuple(xs)
        return hit

    root = transform(phi, _prop_leaf(atom, (1,) * top, (-1,) * top), build)
    return nvars, clauses, atoms, root


def valid_in_LCm(
    phi: Formula, m: int, budget: int = DEFAULT_BUDGET
) -> tuple[bool, Valuation | None]:
    """Validity on the m-valued chain; a countervaluation, keyed by atom text, on failure.

    Raises BudgetExceededError when the search needs more than `budget`
    literal assignments.
    """
    if m < 2:
        raise ValueError("chains need at least 2 values")
    nvars, clauses, atoms, root = _order_encode(phi, m)
    clauses.append([-root[-1]])
    model = solve(nvars, clauses, budget)
    if model is None:
        return True, None
    return False, {to_text(a): sum(model[x] for x in xs) for a, xs in atoms.items()}


def lc_chain_size(phi: Formula) -> int:
    """n atoms realize at most n+2 order positions against bottom and top."""
    return len(prop_atoms(phi)) + 2


# ---------------------------------------------------------------------------
# Schemas


def schema(
    kind: str,
    atoms: Sequence[str | Formula] | None = None,
    n: int | None = None,
    polarity: str = "eps",
) -> Formula:
    """Build a characteristic schema instance over the given atoms.

    Kinds: EM, Lin, J, Bm, Rn, bigdisj, bigdisj_eps, bigdisj_tau, iterated_lin.
    An atom is a name, read as a propositional atom, or a formula put in for
    the schema letter.  EM and J range over the atoms given, one by default;
    for the parametric kinds, n fixes the size (the link count for Bm and
    iterated_lin), or else the atoms given do, and atoms defaults to A1..Ak.
    The tau polarity gives the dual form that eliminating a tau term records:
    EM and J swap their parts, bigdisj turns its implications round, and Bm
    runs through the atoms backwards.  bigdisj_eps and bigdisj_tau are
    bigdisj with that polarity.
    """
    name = kind
    if kind in ("bigdisj_eps", "bigdisj_tau"):
        kind, polarity = "bigdisj", kind.removeprefix("bigdisj_")
    if polarity not in ("eps", "tau"):
        raise ValueError(f"polarity must be 'eps' or 'tau', not {polarity!r}")
    tau = polarity == "tau"

    def need(k: int | None = None) -> list[Formula]:  # None: the atoms given, or one
        names = list(atoms) if atoms is not None else [f"A{i}" for i in range(1, (k or 1) + 1)]
        if k is not None and len(names) != k:
            raise ValueError(f"schema {name} needs {k} atoms, got {len(names)}")
        return [a if isinstance(a, Formula) else Atom(a, ()) for a in names]

    def size(links: bool = False) -> int:
        k = n if n is not None or atoms is None else len(atoms) - links
        if k is None or k < 1:
            raise ValueError(f"schema {name} needs n >= 1")
        return k

    match kind:
        case "EM":
            xs = need()
            negs = [Not(x) for x in xs]
            return or_join([and_join(xs), *negs] if tau else [*xs, and_join(negs)])
        case "J":
            xs = need()
            negs, dnegs = [Not(x) for x in xs], [Not(Not(x)) for x in xs]
            return or_join([and_join(dnegs), *negs] if tau else [and_join(negs), *dnegs])
        case "Lin":
            a, b = need(2)
            return Or(Implies(a, b), Implies(b, a))
        case "Bm" | "iterated_lin":
            xs = need(size(links=True) + 1)
            xs = xs[::-1] if tau else xs
            return or_join([Implies(a, b) for a, b in zip(xs, xs[1:])])
        case "Rn":
            xs = need(size())
            return or_join([xs[0], *(Implies(a, b) for a, b in zip(xs, xs[1:])), Not(xs[-1])])
        case "bigdisj":
            xs = need(size())
            link = (lambda xi, xj: Implies(xj, xi)) if tau else Implies
            return or_join([and_join([link(xi, xj) for xi in xs]) for xj in xs])
    raise ValueError(f"unknown schema kind {kind!r}")


class Instance(Record):
    """A schema instance as an elimination step records it, without its formula.

    The step certifies it by proves(logic, kind, arity).  At one kind,
    polarity and arity two records are equal iff their formulas are, so a
    step dedups its records as it would their formulas.
    """

    __slots__ = _fields = ("kind", "polarity", "atoms")

    def __init__(self, kind: str, polarity: str, atoms: tuple[Formula, ...]) -> None:
        self.kind, self.polarity, self.atoms = kind, polarity, atoms

    @property
    def arity(self) -> int:
        """The link count for Bm, the atom count otherwise."""
        return len(self.atoms) - (self.kind == "Bm")

    def text(self, memo: dict) -> str:
        """The text of schema(kind, atoms, polarity=polarity), filled into the
        memo's template of the record's kind, polarity and atom count (see
        syntax.fill), as to_text would print it through the memo."""
        key = (self.kind, self.polarity, len(self.atoms))
        shape = memo.get(key)
        if shape is None:
            holes = [Atom(f"?{i}") for i in range(len(self.atoms))]
            shape = memo[key] = template(schema(self.kind, holes, polarity=self.polarity), holes)
        return fill(shape, self.atoms, memo)


def proves(logic: Logic, kind: str, arity: int) -> bool:
    """Does the logic prove every instance of the schema kind at this arity?

    The schema lemmas of Baaz & Zach, *Epsilon theorems in intermediate
    logics* (arXiv 1907.04477); the arity counts the atoms, or the links of
    a chain, and either polarity is meant.  Arity 0 is refused.
    - EM, excluded middle over n atoms: classical and lc2;
    - J, weak excluded middle over n atoms: kc, lc, every lcN and classical;
    - bigdisj, "one of n values is maximal" (minimal, for tau): classical,
      every lcN and lc, the logics of linear orders;
    - Bm, the m-link chain for m >= 2: lcN for N <= m (m+1 values on at most
      m cannot all descend strictly), and classical.
    """
    match kind:
        case "EM":
            row = logic.kind == "classical" or logic.m == 2
        case "J":
            row = logic.kind in ("kc", "lc", "lcm", "classical")
        case "bigdisj":
            row = logic.kind in ("classical", "lcm", "lc")
        case "Bm":
            row = arity >= 2 and (logic.kind == "classical" or logic.kind == "lcm" and logic.m <= arity)
        case _:
            raise ValueError(f"no schema table row for kind {kind!r}")
    return arity >= 1 and row


# ---------------------------------------------------------------------------
# Intuitionistic prover (contraction-free sequent search)


def _norm(phi: Formula) -> Formula:
    """Rewrite ~A to A -> bot, the prover's one negation form, and ~~~A to ~A.

    ~~~A <-> ~A is a theorem of H, so a tower of negations becomes at most
    two and the search stays shallow.  Every node is built again, so in the
    prover's sharing scope equal formulas become one node.
    """
    return transform(phi, _norm_leaf, _norm_build)


def _norm_leaf(f: Formula, depth: int) -> Formula | None:
    if isinstance(f, Atom):
        return Atom(f.pred, f.args)
    return None if isinstance(f, (Not, And, Or, Implies)) else f


def _norm_build(f: Formula, kids: tuple[Formula, ...]) -> Formula:
    if not isinstance(f, Not):
        return f._with(kids)
    match kids[0]:
        case Implies(Implies(_, Bot()) as neg, Bot()):
            return neg
    return Implies(kids[0], BOT)


# Memo of one top-level query; prove_H empties it when the query returns.
_sequent_cache: dict[tuple[frozenset, Formula], bool] = {}


def _prove(gamma: frozenset[Formula], goal: Formula) -> bool:
    if BOT in gamma or goal is TOP or goal in gamma:
        return True
    key = (gamma, goal)
    result = _sequent_cache.get(key)
    if result is not None:
        return result
    # One pass over gamma picks a rule by the class of the premise and of an
    # implication's antecedent: the first invertible left rule decides the
    # sequent, and the (c -> d) -> b branch points before it are collected.
    branches = []
    for f in gamma:
        t = type(f)
        if t is Implies:
            c, b = f.left, f.right
            t = type(c)
            if t is Bot:
                result = _prove(gamma - {f}, goal)
            elif t is Top or (t is Atom and c in gamma):
                result = _prove(gamma - {f} | {b}, goal)
            elif t is And:
                result = _prove(gamma - {f} | {Implies(c.left, Implies(c.right, b))}, goal)
            elif t is Or:
                result = _prove(gamma - {f} | {Implies(d, b) for d in or_spine(c)}, goal)
            else:
                if t is Implies:
                    branches.append(f)
                continue
        elif t is And:
            result = _prove(gamma - {f} | {f.left, f.right}, goal)
        elif t is Or:
            rest = gamma - {f}
            result = all(_prove(rest | {d}, goal) for d in or_spine(f))
        elif t is Top:
            result = _prove(gamma - {f}, goal)
        else:
            continue
        break
    else:
        match goal:
            # Invertible right rules.
            case And(a, b):
                result = _prove(gamma, a) and _prove(gamma, b)
            case Implies(a, b):
                result = _prove(gamma | {a}, b)
            # Branch points: right disjunction and implication-antecedent implications.
            case _:
                result = isinstance(goal, Or) and any(_prove(gamma, d) for d in or_spine(goal))
                for f in branches:
                    if result:
                        break
                    cd, b = f.left, f.right
                    rest = gamma - {f}
                    result = _prove(rest | {Implies(cd.right, b)}, cd) and _prove(rest | {b}, goal)
    _sequent_cache[key] = result
    return result


def prove_H(premises: Iterable[Formula], goal: Formula) -> bool:
    """Decide intuitionistic propositional consequence (premises |- goal)."""
    with sharing():
        gamma = frozenset(_norm(p) for p in premises)
        try:
            return _prove(gamma, _norm(goal))
        finally:
            _sequent_cache.clear()


# ---------------------------------------------------------------------------
# Backend dispatch

class Verdict(Record):
    """A backend's answer, true iff the query holds, and what refutes it if not."""

    __slots__ = _fields = ("holds", "chain_size", "countervaluation", "instance")

    def __init__(
        self, holds: bool, chain_size: int | None = None, countervaluation: Valuation | None = None,
        instance: Formula | None = None,
    ) -> None:
        self.holds, self.chain_size = holds, chain_size  # a chain refutes it: the chain's size and
        self.countervaluation = countervaluation  # a valuation keyed by atom text
        self.instance = instance  # a judgment's first refuted instance

    def __bool__(self) -> bool:
        return self.holds

    def describe(self, logic: Logic) -> tuple[list[str], dict]:
        """The text lines and the JSON keys that explain a failure; none for a success."""
        lines, keys = [], {}
        if self.instance is not None:
            keys["instance"] = to_text(self.instance)
            lines.append(f"instance {keys['instance']} is not a theorem of {logic}")
        if self.countervaluation is not None:
            keys["chain_size"], keys["countervaluation"] = self.chain_size, self.countervaluation
            lines.append(f"countervaluation on the {self.chain_size}-chain: {self.countervaluation}")
        return lines, keys


def decide(
    logic: Logic, premises: Sequence[Formula], goal: Formula, budget: int = DEFAULT_BUDGET
) -> Verdict:
    """Does premises |- goal hold in the logic?  The one map from logic to backend.

    The query's atoms are its propositional variables.  Classical, lcN and lc
    decide the one query and_join(premises) -> goal, or the goal alone without
    premises, on the 2-chain, the N-chain and the chain of (atom count + 2)
    values; a failure carries the chain size and a countervaluation keyed by
    atom text.  H and KC lie inside classical logic, so a classical refutation
    comes first and is a one-world Kripke model: it answers invalid with its
    2-chain countervaluation.  A classically valid query, or one whose
    classical check runs out of budget, goes to the intuitionistic prover,
    which answers without a countermodel.  KC is H plus weak excluded middle
    ~a | ~~a for each atom a of the query: H derives ~psi | ~~psi for
    compound psi from the instances for its atoms, and an instance over a
    foreign atom turns into one over top.  A classically valid query whose
    goal is negative (see _negative) holds in H and KC without the prover.
    A query that holds by the identity axiom is answered before any of this.
    """
    for f in (*premises, goal):
        if not is_quantifier_free(f):
            raise ValueError(f"not quantifier-free: {to_text(f)}")
    if _by_identity(premises, goal):
        return Verdict(True)
    query = Implies(and_join(premises), goal) if premises else goal
    match logic.kind:
        case "h" | "kc":
            try:
                ok, counter = valid_in_LCm(query, 2, budget)
            except BudgetExceededError:
                ok = True  # the prover answers, so the answer never depends on the budget
            else:
                if ok and _negative(goal, logic.kind == "kc"):
                    return Verdict(True)
            if not ok:
                return Verdict(False, 2, counter)
            wem = [schema("J", [a]) for a in prop_atoms(query)] if logic.kind == "kc" else []
            return Verdict(prove_H([*premises, *wem], goal))
        case "classical" | "lcm" | "lc":
            size = 2 if logic.kind == "classical" else logic.m or lc_chain_size(query)
            ok, counter = valid_in_LCm(query, size, budget)
            return Verdict(True) if ok else Verdict(False, size, counter)
    raise ValueError(f"unknown logic {logic}")


def _negative(goal: Formula, kc: bool) -> bool:
    """Is goal built from ~a, a -> bot, top and bot by &, and by | on kc?

    Then premises |- goal holds in H (or KC) iff it holds classically.  H:
    by Glivenko (1929), premises |- ~~goal in H, and ~~goal -> goal.  KC: a
    finite rooted KC frame has a top world t; a negative goal is forced at
    a world iff it is true at t, where the premises forced there are true.
    """
    stack = [goal]
    while stack:
        match stack.pop():
            case Not() | Implies(_, Bot()) | Top() | Bot():
                pass
            case And(a, b):
                stack += (a, b)
            case Or(a, b) if kc:
                stack += (a, b)
            case _:
                return False
    return True


def _by_identity(premises: Sequence[Formula], goal: Formula) -> bool:
    """Is a disjunct of the goal top, a premise, or of the form a -> a?

    Then premises |- goal holds in every intermediate logic.
    """
    given = set(premises)
    return any(
        d is TOP or d in given or (isinstance(d, Implies) and d.left == d.right)
        for d in or_spine(goal)
    )


def verify_judgment(j: Judgment, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Are j's instances theorems of its logic, and does criticals -> goal hold there?

    A failure names the first refuted instance, with its countermodel, or
    else has the countermodel of criticals -> goal.  The instances, which no
    table row vouches for, are decided one by one, and then leave the query:
    a theorem is top in every Godel valuation and a cut in H and KC.
    """
    for inst in j.instances:
        verdict = decide(j.logic, [], inst, budget)
        if not verdict:
            return Verdict(verdict.holds, verdict.chain_size, verdict.countervaluation, inst)
    return decide(j.logic, j.criticals, j.goal, budget)


# ---------------------------------------------------------------------------
# Cross-schema relations report


def schema_relations_check() -> dict[str, bool]:
    """Entailments between the chain schema, linearity, and Hosoi's axiom.

    For each m from 2 to 5: the alternating A/B instance of the m-link chain
    schema entails Lin over H, and the top/bottom instance entails R(m-1)
    over H.
    """
    report: dict[str, bool] = {}
    for m in (2, 3, 4, 5):
        bm_ab = schema("Bm", ["A" if i % 2 else "B" for i in range(1, m + 2)])
        lin = schema("Lin", ["A", "B"])
        report[f"B{m} odd/even instance entails Lin"] = decide(H, [bm_ab], lin).holds

        bm_tb = schema("Bm", [TOP, *(f"A{i}" for i in range(1, m)), BOT])
        rn = schema("Rn", n=m - 1)
        report[f"B{m} top/bottom instance entails R{m - 1}"] = decide(H, [bm_tb], rn).holds
    return report
