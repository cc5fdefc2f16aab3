"""Critical formulas: recognition, classification, and the term measures.

A critical formula is a reading of an implication as A(t) -> A(e) for an
epsilon term e = eps x. A(x), or A(e) -> A(t) for a tau term.  One formula
can admit several readings; consumers pick readings per elimination target.
Rank and degree are the two measures whose lexicographic order drives the
elimination procedure's termination.
"""

from __future__ import annotations

from typing import Iterable

from .syntax import (
    BINDER_TERMS,
    Bound,
    Eps,
    Formula,
    Implies,
    Record,
    Term,
    Var,
    canonical_text,
    dedup,
    eps,
    etau_subterms,
    free_vars,
    fresh,
    instantiate,
    is_quantifier_free,
    locally_closed,
    match_holes,
    occurs,
    tau,
    to_text,
    transform,
)


class CriticalFormula(Record):
    """One reading of a formula as a critical formula.

    critical_term is the binder term whose body is the matrix; witness is
    the instantiated side's term.  kind ("eps" or "tau") is read off the
    critical term.
    """

    __slots__ = _fields = ("critical_term", "witness")

    def __init__(self, critical_term: Term, witness: Term) -> None:
        self.critical_term, self.witness = critical_term, witness

    @property
    def kind(self) -> str:
        return "eps" if isinstance(self.critical_term, Eps) else "tau"

    def matrix_pair(self, hole: str = "x") -> tuple[str, Formula]:
        """The matrix A(hole) and the hole name actually used."""
        hole = fresh(hole, set(free_vars(self.critical_term.body)))
        return hole, instantiate(self.critical_term.body, Var(hole))

    @property
    def rendered(self) -> Formula:
        e = self.critical_term
        at_e, at_witness = instantiate(e.body, e), instantiate(e.body, self.witness)
        return Implies(at_witness, at_e) if self.kind == "eps" else Implies(at_e, at_witness)

    def __str__(self) -> str:
        return f"[{self.kind}] {to_text(self.rendered)}"


def make_critical(matrix: Formula, hole: str, kind: str, witness: Term) -> CriticalFormula:
    """Build A(t) -> A(eps x.A) or A(tau x.A) -> A(t) from a matrix with a hole."""
    if kind not in ("eps", "tau"):
        raise ValueError(f"kind must be 'eps' or 'tau', not {kind!r}")
    if not is_quantifier_free(matrix):
        raise ValueError(f"matrix must be quantifier-free: {to_text(matrix)}")
    return CriticalFormula((eps if kind == "eps" else tau)(hole, matrix), witness)


def recognize_critical(phi: Formula) -> list[CriticalFormula]:
    """All readings of phi as a critical formula, in canonical order.

    For each epsilon subterm e with body A, the pattern A(?hole) must match
    the conclusion with the hole bound to e itself, and its match on the
    premise gives the witness (dually for tau, with the premise fixed and
    the conclusion solved).  A body that ignores its variable binds no
    hole, so it admits no reading.
    """
    if not is_quantifier_free(phi):
        raise ValueError(f"expected a quantifier-free formula: {to_text(phi)}")
    if not isinstance(phi, Implies):
        return []
    hole = "?hole"
    readings: list[CriticalFormula] = []
    for e in etau_subterms(phi):
        fixed, solved = (phi.right, phi.left) if isinstance(e, Eps) else (phi.left, phi.right)
        pattern = instantiate(e.body, Var(hole))
        at_e = match_holes(pattern, fixed, {hole})
        if at_e and at_e[hole] == e:
            at_witness = match_holes(pattern, solved, {hole})
            if at_witness:
                readings.append(CriticalFormula(e, at_witness[hole]))
    readings.sort(key=lambda c: (c.kind, canonical_text(c.critical_term), canonical_text(c.witness)))
    return list(dedup(readings))


def is_predicative(c: CriticalFormula) -> bool:
    """True iff the critical term does not occur in the witness."""
    return not occurs(c.critical_term, c.witness)


def is_weak(c: CriticalFormula, critical_terms_of_proof: Iterable[Term]) -> bool:
    """True iff the witness contains no critical term of the ambient proof."""
    return not any(occurs(t, c.witness) for t in critical_terms_of_proof)


# ---------------------------------------------------------------------------
# Rank and degree


def nested_subterms(e: Term) -> list[Term]:
    """Proper epsilon/tau subterm occurrences of e whose variables stay free.

    A nested occurrence is locally closed: none of its variables is captured
    by a binder of e, so it is itself a standalone term.
    """
    if not isinstance(e, BINDER_TERMS):
        return []
    return etau_subterms(e.body)


def subordinate_subterms(e: Term) -> list[Term]:
    """Epsilon/tau occurrences inside e that use e's own bound variable.

    One fold over e's body: an index equal to its depth there is e's
    variable, a locally closed node holds none, and each epsilon/tau node
    with such an index below it is kept.  The terms come in the fold's
    post-order, inner ones before the terms around them, each once.
    """
    if not isinstance(e, BINDER_TERMS):
        return []
    found: dict[Term, None] = {}

    def leaf(node, depth):
        if locally_closed(node, depth):
            return False
        return node.index == depth if isinstance(node, Bound) else None

    def build(node, kids):
        hit = any(kids)
        if hit and isinstance(node, BINDER_TERMS):
            found[node] = None
        return hit

    transform(e.body, leaf, build)
    return list(found)


def degree(e: Term) -> int:
    """1 plus the maximal degree of the nested epsilon/tau terms (0 for non-binders).

    The value is kept on the term, so it lives exactly as long as the term.
    """
    if not isinstance(e, BINDER_TERMS):
        return 0
    try:
        return e._degree
    except AttributeError:
        e._degree = 1 + max((degree(u) for u in nested_subterms(e)), default=0)
        return e._degree


def rank(e: Term) -> int:
    """1 plus the maximal rank of the subordinate epsilon/tau terms.

    e may be an occurrence inside another term that mentions that term's
    variable through an escaping index; the recursion only inspects internal
    ones.  The value is kept on the term, like the degree.
    """
    if not isinstance(e, BINDER_TERMS):
        raise ValueError(f"rank is defined for epsilon/tau terms only: {to_text(e)}")
    try:
        return e._rank
    except AttributeError:
        e._rank = 1 + max((rank(u) for u in subordinate_subterms(e)), default=0)
        return e._rank


def select_max(critical_terms: Iterable[Term]) -> Term:
    """A term of maximal degree among those of maximal rank.

    Ties are broken by the canonical printed form, smallest first, so the
    choice is deterministic across runs.
    """
    terms = list(critical_terms)
    if not terms:
        raise ValueError("no critical terms to select from")
    return min(terms, key=lambda t: (-rank(t), -degree(t), canonical_text(t)))
