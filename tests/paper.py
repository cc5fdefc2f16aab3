"""The paper's stand-alone demonstrations, which no command runs.

Baaz & Zach, *Epsilon theorems in intermediate logics* (arXiv 1907.04477),
states these as lemmas and examples beside the elimination theorem.  Here
they check claims about the engine: the one-at-a-time classical step that
the complete elimination replaces, the chain length a Herbrand disjunction
needs, the equivalent forms of the theorem, the refuting valuation of the
m-link chain schema, and the quantifier shifts whose translations are, or
follow by modus ponens from, critical formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from epsitau.critical import CriticalFormula, recognize_critical
from epsitau.eliminate import EliminationError, EliminationStep, EliminationTrace, _step, run_elimination
from epsitau.judgments import Judgment, make_judgment
from epsitau.semantics import Valuation, prop_atoms
from epsitau.syntax import (
    And,
    App,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    Term,
    dedup,
    exists,
    forall,
    free_vars,
    or_join,
    or_spine,
    to_text,
)
from epsitau.translate import et_translate


def eliminate_single_classical(j: Judgment, c: CriticalFormula) -> EliminationStep:
    """Remove one critical formula using an excluded-middle instance.

    The elimination set is {e, s}; the other critical formulas of e are kept
    unsubstituted, the rest doubled across the set.
    """
    if c.rendered not in j.criticals:
        raise ValueError(f"not a premise: {to_text(c.rendered)}")
    e = c.critical_term
    refusal = "single elimination via excluded middle needs classical logic"
    return _step(j, e, "EM", refusal, lambda ws, pos: (dedup([e] + ws), [pos]), lambda r: r == c)


def bm_extract(herbrand: Formula, f: str, p: str) -> int:
    """Least chain length covering a disjunction of instances of P(f(z)) -> P(z).

    Disjuncts are grouped by the innermost term not headed by f; within each
    group the tower is padded to be contiguous, shared atoms are contracted
    across groups, and the longest tower determines the chain length.
    """
    best = 0
    for d in or_spine(herbrand):
        match d:
            case Implies(Atom(p1, (t1,)), Atom(p2, (t2,))) if p1 == p and p2 == p:
                if t1 != App(f, (t2,)):
                    raise ValueError(f"disjunct is not an instance of the matrix: {to_text(d)}")
                height = 0
                base = t2
                while isinstance(base, App) and base.head == f and len(base.args) == 1:
                    height += 1
                    base = base.args[0]
                best = max(best, height + 1)
            case _:
                raise ValueError(f"disjunct is not an instance of the matrix: {to_text(d)}")
    if best == 0:
        raise ValueError("empty disjunction")
    return best


def theorem_form_convert(
    direction: str, j: Judgment, assumption: Formula | None = None
) -> tuple[Judgment, EliminationTrace | None]:
    """Move between the plain and the hypothesis-bearing theorem forms.

    "1to3" packages an assumption B(e') into the goal, eliminates, and splits
    the resulting disjunction of implications into conjoined hypotheses and a
    disjoined conclusion.  "2to1" substitutes the goal disjunction for a
    placeholder atom, leaving provable residue premises.
    """
    if direction == "1to3":
        if assumption is None:
            raise ValueError("direction 1to3 needs the hypothesis formula")
        packaged = Judgment(
            j.logic, j.criticals, j.instances, Implies(assumption, j.goal)
        )
        trace = run_elimination(packaged)
        lefts: list[Formula] = []
        rights: list[Formula] = []
        for d in or_spine(trace.result):
            if not isinstance(d, Implies):
                raise EliminationError(
                    f"expected a disjunction of implications, got {to_text(d)}"
                )
            lefts.append(d.left)
            rights.append(d.right)
        out = make_judgment(j.logic, dedup(lefts), or_join(dedup(rights)))
        return out, trace
    if direction == "2to1":
        if not j.criticals:
            return j, None
        if not (isinstance(j.goal, Atom) and not j.goal.args):
            raise ValueError("direction 2to1 needs a placeholder atom as goal")
        x = j.goal
        parts: list[Formula] = []
        for pformula in j.criticals:
            if not (isinstance(pformula, Implies) and pformula.right == x):
                raise ValueError(
                    f"premises must have the placeholder as consequent: {to_text(pformula)}"
                )
            if x in prop_atoms(pformula.left):
                raise ValueError("the placeholder atom must not occur in the hypotheses")
            parts.append(pformula.left)
        big = or_join(dedup(parts))
        residues = [Implies(a, big) for a in parts]
        return make_judgment(j.logic, residues, big), None
    raise ValueError(f"unknown direction {direction!r} (use '1to3' or '2to1')")


def counterexample_Bm(m: int) -> Valuation:
    """A refuting valuation for the m-link chain schema on the (m+1)-chain.

    Strictly descending values make every link fail: atom i gets m+1-i.
    """
    if m < 2:
        raise ValueError("the chain schema needs m >= 2")
    return {f"A{i}": m + 1 - i for i in range(1, m + 2)}


# ---------------------------------------------------------------------------
# Quantifier shifts


class QuantifierShiftKind(Enum):
    """The shift schemas, split by how their translations are justified.

    The first nine translate directly to critical formulas; the remaining
    eight follow from one critical formula by modus ponens with an
    intuitionistically provable principle.
    """

    # translations are critical formulas
    CD = "cd"                                # all x (A|B) -> (all x A | B)
    EXISTS_OR = "exists-or"                  # (ex x A | B) -> ex x (A|B)
    FORALL_AND = "forall-and"                # all x (A&B) -> (all x A & B)
    EXISTS_AND = "exists-and"                # (ex x A & B) -> ex x (A&B)
    Q_EXISTS = "q-exists"                    # (B -> ex x A) -> ex x (B->A)
    FORALL_IMP = "forall-imp"                # all x (B->A) -> (B -> all x A)
    Q_FORALL = "q-forall"                    # (all x A -> B) -> ex x (A->B)
    FORALL_IMP_EXISTS = "forall-imp-exists"  # all x (A->B) -> (ex x A -> B)
    K = "k"                                  # all x ~~A -> ~~ all x A
    # translations follow by modus ponens from a critical formula
    OR_FORALL = "or-forall"                  # (all x A | B) -> all x (A|B)
    OR_EXISTS = "or-exists"                  # ex x (A|B) -> (ex x A | B)
    AND_FORALL = "and-forall"                # (all x A & B) -> all x (A&B)
    AND_EXISTS = "and-exists"                # ex x (A&B) -> (ex x A & B)
    IMP_EXISTS = "imp-exists"                # ex x (B->A) -> (B -> ex x A)
    IMP_FORALL = "imp-forall"                # (B -> all x A) -> all x (B->A)
    ANTE_EXISTS = "ante-exists"              # ex x (A->B) -> (all x A -> B)
    ANTE_FORALL = "ante-forall"              # (ex x A -> B) -> all x (A->B)


CRITICAL_KINDS = (
    QuantifierShiftKind.CD,
    QuantifierShiftKind.EXISTS_OR,
    QuantifierShiftKind.FORALL_AND,
    QuantifierShiftKind.EXISTS_AND,
    QuantifierShiftKind.Q_EXISTS,
    QuantifierShiftKind.FORALL_IMP,
    QuantifierShiftKind.Q_FORALL,
    QuantifierShiftKind.FORALL_IMP_EXISTS,
    QuantifierShiftKind.K,
)

MP_KINDS = (
    QuantifierShiftKind.OR_FORALL,
    QuantifierShiftKind.OR_EXISTS,
    QuantifierShiftKind.AND_FORALL,
    QuantifierShiftKind.AND_EXISTS,
    QuantifierShiftKind.IMP_EXISTS,
    QuantifierShiftKind.IMP_FORALL,
    QuantifierShiftKind.ANTE_EXISTS,
    QuantifierShiftKind.ANTE_FORALL,
)


@dataclass(frozen=True, slots=True)
class CriticalWitness:
    """Exhibits a translation as C(t1) -> C(t2) for a matrix with one hole."""

    matrix: Formula
    hole: str
    t1: Term
    t2: Term


@dataclass(frozen=True, slots=True)
class ModusPonensWitness:
    """A critical formula and a provable principle yielding the translation."""

    critical: Formula
    principle: Formula


@dataclass(frozen=True, slots=True)
class ShiftInstance:
    kind: QuantifierShiftKind
    shift: Formula
    translation: Formula
    certificate: CriticalWitness | ModusPonensWitness


def quantifier_shift_instance(
    kind: QuantifierShiftKind,
    matrix: Formula,
    hole: str,
    other: Formula | None = None,
) -> ShiftInstance:
    """Instantiate a shift schema with A(hole) := matrix and B := other.

    Returns the first-order shift formula, its translation, and the
    certificate justifying the translation from critical formulas, read off
    the translation by recognize_critical: a critical kind's translation is
    its own critical formula, and an MP kind's has one a1 -> a2 where its two
    sides differ, the first such pair met on the way down.
    """
    K = QuantifierShiftKind
    if hole not in free_vars(matrix):
        raise ValueError(f"the matrix does not mention {hole!r}, so it has no critical formula")
    if kind is not K.K:
        if other is None:
            raise ValueError(f"{kind.value} needs the side formula B")
        if hole in free_vars(other):
            raise ValueError(f"the bound variable {hole!r} must not be free in B")
    a = matrix
    b = other

    def ex_(f: Formula) -> Formula:
        return exists(hole, f)

    def all_(f: Formula) -> Formula:
        return forall(hole, f)

    match kind:
        case K.CD:
            shift = Implies(all_(Or(a, b)), Or(all_(a), b))
        case K.EXISTS_OR:
            shift = Implies(Or(ex_(a), b), ex_(Or(a, b)))
        case K.FORALL_AND:
            shift = Implies(all_(And(a, b)), And(all_(a), b))
        case K.EXISTS_AND:
            shift = Implies(And(ex_(a), b), ex_(And(a, b)))
        case K.Q_EXISTS:
            shift = Implies(Implies(b, ex_(a)), ex_(Implies(b, a)))
        case K.FORALL_IMP:
            shift = Implies(all_(Implies(b, a)), Implies(b, all_(a)))
        case K.Q_FORALL:
            shift = Implies(Implies(all_(a), b), ex_(Implies(a, b)))
        case K.FORALL_IMP_EXISTS:
            shift = Implies(all_(Implies(a, b)), Implies(ex_(a), b))
        case K.K:
            shift = Implies(all_(Not(Not(a))), Not(Not(all_(a))))
        case K.OR_FORALL:
            shift = Implies(Or(all_(a), b), all_(Or(a, b)))
        case K.OR_EXISTS:
            shift = Implies(ex_(Or(a, b)), Or(ex_(a), b))
        case K.AND_FORALL:
            shift = Implies(And(all_(a), b), all_(And(a, b)))
        case K.AND_EXISTS:
            shift = Implies(ex_(And(a, b)), And(ex_(a), b))
        case K.IMP_EXISTS:
            shift = Implies(ex_(Implies(b, a)), Implies(b, ex_(a)))
        case K.IMP_FORALL:
            shift = Implies(Implies(b, all_(a)), all_(Implies(b, a)))
        case K.ANTE_EXISTS:
            shift = Implies(ex_(Implies(a, b)), Implies(all_(a), b))
        case K.ANTE_FORALL:
            shift = Implies(Implies(ex_(a), b), all_(Implies(a, b)))
        case _:
            raise ValueError(f"unknown kind {kind}")

    translation = et_translate(shift)
    if kind in CRITICAL_KINDS:
        r = recognize_critical(translation)[0]
        t1, t2 = (r.witness, r.critical_term) if r.kind == "eps" else (r.critical_term, r.witness)
        used, c = r.matrix_pair(hole)
        return ShiftInstance(kind, shift, translation, CriticalWitness(c, used, t1, t2))
    a1, a2 = _differing_pair(translation.left, translation.right)
    while not recognize_critical(Implies(a1, a2)):
        a1, a2 = _differing_pair(a1, a2)
    critical = Implies(a1, a2)
    cert = ModusPonensWitness(critical, Implies(critical, translation))
    return ShiftInstance(kind, shift, translation, cert)


def _differing_pair(left: Formula, right: Formula) -> tuple[Formula, Formula]:
    """The one pair of children at which like-built left and right differ.

    Under an implication's antecedent the pair is swapped, so left -> right
    still follows from the implication of the returned pair.
    """
    (i,) = [i for i, (l, r) in enumerate(zip(left._kids(), right._kids())) if l != r]
    if isinstance(left, Implies) and i == 0:
        return right.left, left.left
    return left._kids()[i], right._kids()[i]
