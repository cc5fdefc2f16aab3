"""Quantifier elimination into epsilon/tau terms, and back-translations.

et_translate replaces quantifiers by epsilon/tau terms, innermost first.
shadow collapses a formula to its propositional skeleton.  Each is one
bottom-up syntax.transform walk, nested quantifiers included.
herbrand_form computes the purely existential form of a prenex formula.
quantifier_shift_instance builds each quantifier shift schema and reads its
certificate off its translation with recognize_critical: nine translations
*are* critical formulas, and eight follow from one critical formula by
modus ponens with an intuitionistic principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .critical import recognize_critical
from .syntax import (
    And,
    App,
    Atom,
    Bot,
    Eps,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Tau,
    Term,
    Top,
    Var,
    contains_etau,
    exists,
    forall,
    free_vars,
    fresh,
    fresh_numbered,
    instantiate,
    is_quantifier_free,
    names,
    rebuild,
    to_text,
    transform,
)


def et_translate(phi: Formula) -> Formula:
    """Replace each quantifier by the corresponding epsilon/tau witness term.

    The body is translated before the binder is formed, so nested quantifiers
    become nested terms.  Rejects inputs that already contain such terms.
    """
    if contains_etau(phi):
        raise ValueError(f"already contains epsilon/tau terms: {to_text(phi)}")
    return transform(phi, _formula_leaf, _et_build)


def _formula_leaf(node: Formula, depth: int) -> Formula | None:
    match node:
        case Atom() | Top() | Bot():
            return node
        case Not() | And() | Or() | Implies() | Exists() | Forall():
            return None
    raise ValueError(f"not a formula: {node!r}")


def _et_build(node: Formula, kids: tuple[Formula, ...]) -> Formula:
    match node:
        case Exists(hint, _):
            return instantiate(kids[0], Eps(hint, kids[0]))
        case Forall(hint, _):
            return instantiate(kids[0], Tau(hint, kids[0]))
    return rebuild(node, kids)


def shadow(phi: Formula) -> Formula:
    """The propositional image: atoms keep only their predicate, binders vanish."""
    return transform(phi, _shadow_leaf, _shadow_build)


def _shadow_leaf(node: Formula, depth: int) -> Formula | None:
    return Atom(node.pred, ()) if isinstance(node, Atom) else _formula_leaf(node, depth)


def _shadow_build(node: Formula, kids: tuple[Formula, ...]) -> Formula:
    return kids[0] if isinstance(node, (Forall, Exists)) else rebuild(node, kids)


def herbrand_form(phi: Formula) -> Formula:
    """Purely existential form of a prenex formula.

    Each universal variable becomes a fresh function symbol applied to the
    existential variables bound before it (a fresh constant when there are
    none); the existential prefix is kept in order.  Fresh names derive from
    the replaced variable's name plus a counter.
    """
    if contains_etau(phi):
        raise ValueError("input must be epsilon/tau free")
    body = phi
    taken, symbols = set(free_vars(phi)), names(phi)
    existentials: list[str] = []
    while isinstance(body, (Forall, Exists)):
        name = fresh(body.hint, taken)
        if isinstance(body, Exists):
            existentials.append(name)
            value = Var(name)
        else:
            value = App(fresh_numbered(name, symbols), tuple(map(Var, existentials)))
        body = instantiate(body.body, value)
    if not is_quantifier_free(body):
        raise ValueError(f"not prenex: {to_text(phi)}")
    for name in reversed(existentials):
        body = exists(name, body)
    return body


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
