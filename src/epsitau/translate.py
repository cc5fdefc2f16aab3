"""Quantifier elimination into epsilon/tau terms, and back-translations.

et_translate replaces quantifiers by epsilon/tau terms, innermost first.
shadow collapses a formula to its propositional skeleton.  Each is one
bottom-up syntax.transform walk, nested quantifiers included.
herbrand_form computes the purely existential form of a prenex formula.
"""

from __future__ import annotations

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
    Top,
    Var,
    contains_etau,
    exists,
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

