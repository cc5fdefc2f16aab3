"""First-order terms and formulas with epsilon/tau binders.

Bound variables are stored as position indices (a nameless representation),
so structural equality of nodes *is* equality up to renaming of bound
variables.  Surface names are kept as non-comparing hints and only matter
for printing.  All values are immutable; every operation returns new nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union


class SortError(TypeError):
    """Raised when a term is used where a formula is expected, or vice versa."""


# ---------------------------------------------------------------------------
# Nodes


class Term:
    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)


Obj = Union[Term, Formula]


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Bound(Term):
    """A bound variable, counted outward from its binder.  Internal."""

    index: int


@dataclass(frozen=True, slots=True)
class App(Term):
    head: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Eps(Term):
    hint: str = field(compare=False)
    body: Formula


@dataclass(frozen=True, slots=True)
class Tau(Term):
    hint: str = field(compare=False)
    body: Formula


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Top(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Forall(Formula):
    hint: str = field(compare=False)
    body: Formula


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    hint: str = field(compare=False)
    body: Formula


TOP = Top()
BOT = Bot()

BINDER_TERMS = (Eps, Tau)
BINDER_FORMULAS = (Forall, Exists)
BINDERS = BINDER_TERMS + BINDER_FORMULAS


def _children(obj: Obj) -> tuple[Obj, ...]:
    match obj:
        case Var() | Bound() | Top() | Bot():
            return ()
        case App(_, args) | Atom(_, args):
            return args
        case Eps(_, body) | Tau(_, body) | Forall(_, body) | Exists(_, body):
            return (body,)
        case Not(sub):
            return (sub,)
        case And(a, b) | Or(a, b) | Implies(a, b):
            return (a, b)
    raise SortError(f"not a term or formula: {obj!r}")


def _rebuild(obj: Obj, children: tuple[Obj, ...]) -> Obj:
    match obj:
        case Var() | Bound() | Top() | Bot():
            return obj
        case App(head, _):
            return App(head, children)
        case Atom(pred, _):
            return Atom(pred, children)
        case Eps(hint, _):
            return Eps(hint, children[0])
        case Tau(hint, _):
            return Tau(hint, children[0])
        case Forall(hint, _):
            return Forall(hint, children[0])
        case Exists(hint, _):
            return Exists(hint, children[0])
        case Not(_):
            return Not(children[0])
        case And(_, _):
            return And(children[0], children[1])
        case Or(_, _):
            return Or(children[0], children[1])
        case Implies(_, _):
            return Implies(children[0], children[1])
    raise SortError(f"not a term or formula: {obj!r}")


# ---------------------------------------------------------------------------
# Binding


def _lift(obj: Obj, by: int, cutoff: int = 0) -> Obj:
    """Add `by` to every bound index escaping `obj` (standard de Bruijn lift)."""
    if by == 0:
        return obj
    match obj:
        case Bound(i):
            return Bound(i + by) if i >= cutoff else obj
        case Eps() | Tau() | Forall() | Exists():
            return _rebuild(obj, (_lift(obj.body, by, cutoff + 1),))
        case _:
            kids = _children(obj)
            if not kids:
                return obj
            return _rebuild(obj, tuple(_lift(k, by, cutoff) for k in kids))


def abstract_var(obj: Obj, name: str, depth: int = 0) -> Obj:
    """Turn free occurrences of Var(name) into a bound index at `depth`.

    Indices that escape obj are shifted up to skip the new binder.
    """
    match obj:
        case Var(n):
            return Bound(depth) if n == name else obj
        case Bound(i):
            return Bound(i + 1) if i >= depth else obj
        case Eps() | Tau() | Forall() | Exists():
            body = abstract_var(obj.body, name, depth + 1)
            return _rebuild(obj, (body,))
        case _:
            kids = _children(obj)
            if not kids:
                return obj
            return _rebuild(obj, tuple(abstract_var(k, name, depth) for k in kids))


def instantiate(body: Obj, replacement: Term, depth: int = 0) -> Obj:
    """Substitute `replacement` for the binder at `depth` being removed.

    The textbook de Bruijn substitution: the replacement is lifted past the
    binders it is inserted under, and indices that pointed above the removed
    binder are decremented.  For locally closed replacements and one-binder
    bodies (the common case) both adjustments are identities.
    """
    match body:
        case Bound(i):
            if i == depth:
                return _lift(replacement, depth)
            return Bound(i - 1) if i > depth else body
        case Eps() | Tau() | Forall() | Exists():
            inner = instantiate(body.body, replacement, depth + 1)
            return _rebuild(body, (inner,))
        case _:
            kids = _children(body)
            if not kids:
                return body
            return _rebuild(body, tuple(instantiate(k, replacement, depth) for k in kids))


def eps(name: str, body: Formula) -> Eps:
    return Eps(name, abstract_var(body, name))


def tau(name: str, body: Formula) -> Tau:
    return Tau(name, abstract_var(body, name))


def forall(name: str, body: Formula) -> Forall:
    return Forall(name, abstract_var(body, name))


def exists(name: str, body: Formula) -> Exists:
    return Exists(name, abstract_var(body, name))


def locally_closed(obj: Obj, depth: int = 0) -> bool:
    """True if no bound index escapes `obj`; such a subtree is a standalone value."""
    match obj:
        case Bound(i):
            return i < depth
        case Eps() | Tau() | Forall() | Exists():
            return locally_closed(obj.body, depth + 1)
        case _:
            return all(locally_closed(k, depth) for k in _children(obj))


# ---------------------------------------------------------------------------
# Queries


def free_vars(obj: Obj) -> frozenset[str]:
    match obj:
        case Var(n):
            return frozenset((n,))
        case _:
            out: frozenset[str] = frozenset()
            for k in _children(obj):
                out |= free_vars(k)
            return out


def is_quantifier_free(phi: Obj) -> bool:
    if isinstance(phi, BINDER_FORMULAS):
        return False
    return all(is_quantifier_free(k) for k in _children(phi))


def contains_etau(obj: Obj) -> bool:
    if isinstance(obj, BINDER_TERMS):
        return True
    return any(contains_etau(k) for k in _children(obj))


def subterms(obj: Obj) -> Iterator[Term]:
    """All term-sort subtrees of obj (including obj itself if it is a term)."""
    if isinstance(obj, Term):
        yield obj
    for k in _children(obj):
        yield from subterms(k)


def etau_subterms(obj: Obj) -> list[Term]:
    """Standalone epsilon/tau subterms of obj, outermost first, deduplicated.

    Occurrences that use a variable of an enclosing binder are not standalone
    terms and are skipped.
    """
    seen: list[Term] = []

    def walk(node: Obj) -> None:
        if isinstance(node, BINDER_TERMS) and locally_closed(node):
            if node not in seen:
                seen.append(node)
        for k in _children(node):
            walk(k)

    walk(obj)
    return seen


def occurs(e: Term, obj: Obj) -> bool:
    """True iff some subterm of obj equals e up to bound-variable renaming."""
    if isinstance(obj, Term) and obj == e:
        return True
    return any(occurs(e, k) for k in _children(obj))


def alpha_eq(a: Obj, b: Obj) -> bool:
    """Equality up to consistent renaming of bound variables."""
    if isinstance(a, Term) != isinstance(b, Term):
        raise SortError("cannot compare a term with a formula")
    return a == b


# ---------------------------------------------------------------------------
# Substitution


def subst_var(phi: Obj, name: str, t: Term) -> Obj:
    """Replace every free occurrence of the variable by t, capture-avoiding.

    Capture cannot arise in the nameless representation: bound occurrences
    are indices and t is locally closed, so it crosses binders unchanged.
    """
    match phi:
        case Var(n):
            return t if n == name else phi
        case _:
            kids = _children(phi)
            if not kids:
                return phi
            return _rebuild(phi, tuple(subst_var(k, name, t) for k in kids))


def subst_term(obj: Obj, e: Term, s: Term) -> Obj:
    """Replace every standalone occurrence of the term e by s.

    Matches outermost first and never descends into the replacement, so the
    result is stable even when s contains e.  Occurrences under a binder that
    captures a variable of e differ structurally from e after index shifting
    and are left alone.
    """
    if isinstance(obj, Term) and obj == e:
        return s
    kids = _children(obj)
    if not kids:
        return obj
    return _rebuild(obj, tuple(subst_term(k, e, s) for k in kids))


# ---------------------------------------------------------------------------
# Matching


def match_holes(pattern: Obj, target: Obj, holes: frozenset[str] | set[str]) -> dict[str, Term] | None:
    """Match target against pattern, solving for the hole variables.

    A hole can only be bound to a standalone term: a candidate that uses a
    variable of a binder above the hole position is rejected, mirroring the
    capture-avoidance of subst_var.
    """
    binding: dict[str, Term] = {}

    def walk(p: Obj, t: Obj) -> bool:
        match p:
            case Var(n) if n in holes:
                if not isinstance(t, Term) or not locally_closed(t):
                    return False
                if n in binding:
                    return binding[n] == t
                binding[n] = t
                return True
            case Var(n):
                return isinstance(t, Var) and t.name == n
            case Bound(i):
                return isinstance(t, Bound) and t.index == i
            case App(head, args):
                return (
                    isinstance(t, App)
                    and t.head == head
                    and len(t.args) == len(args)
                    and all(walk(a, b) for a, b in zip(args, t.args))
                )
            case Atom(pred, args):
                return (
                    isinstance(t, Atom)
                    and t.pred == pred
                    and len(t.args) == len(args)
                    and all(walk(a, b) for a, b in zip(args, t.args))
                )
            case Top() | Bot():
                return type(t) is type(p)
            case _ if type(p) is type(t):
                return all(walk(a, b) for a, b in zip(_children(p), _children(t)))
            case _:
                return False

    return binding if walk(pattern, target) else None


def match_matrix(pattern: Formula, hole: str, target: Formula) -> list[Term]:
    """All terms t with subst_var(pattern, hole, t) equal to target up to alpha.

    When the hole does not occur in the pattern any term is a witness; the
    identity witness Var(hole) is returned in that degenerate case.
    """
    if hole not in free_vars(pattern):
        return [Var(hole)] if pattern == target else []
    m = match_holes(pattern, target, {hole})
    return [m[hole]] if m is not None else []


# ---------------------------------------------------------------------------
# Formula utilities


def or_spine(phi: Formula) -> list[Formula]:
    if isinstance(phi, Or):
        return or_spine(phi.left) + or_spine(phi.right)
    return [phi]


def or_join(parts: Iterable[Formula]) -> Formula:
    items = list(parts)
    if not items:
        raise ValueError("empty disjunction")
    out = items[-1]
    for p in reversed(items[:-1]):
        out = Or(p, out)
    return out


def and_join(parts: Iterable[Formula]) -> Formula:
    items = list(parts)
    if not items:
        return TOP
    out = items[-1]
    for p in reversed(items[:-1]):
        out = And(p, out)
    return out


def dedup(objs: Iterable[Obj]) -> tuple[Obj, ...]:
    """Deduplicate up to alpha, preserving first-occurrence order."""
    return tuple(dict.fromkeys(objs))


# ---------------------------------------------------------------------------
# Printing

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3, 4


def _pick_name(hint: str, avoid: set[str]) -> str:
    name = hint or "x"
    while name in avoid:
        name += "'"
    return name


def _fmt(obj: Obj, prec: int, env: list[str], avoid: set[str], canonical: bool) -> str:
    def wrap(s: str, mine: int) -> str:
        return f"({s})" if prec > mine else s

    match obj:
        case Var(n):
            return n
        case Bound(i):
            return env[-1 - i] if i < len(env) else f"?b{i - len(env)}"
        case App(head, args) | Atom(head, args):
            if not args:
                return head
            inner = ", ".join(_fmt(a, _PREC_IMP, env, avoid, canonical) for a in args)
            return f"{head}({inner})"
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Not(sub):
            return wrap("~" + _fmt(sub, _PREC_NOT, env, avoid, canonical), _PREC_NOT)
        case And(a, b):
            s = (
                _fmt(a, _PREC_AND + 1, env, avoid, canonical)
                + " & "
                + _fmt(b, _PREC_AND, env, avoid, canonical)
            )
            return wrap(s, _PREC_AND)
        case Or(a, b):
            s = (
                _fmt(a, _PREC_OR + 1, env, avoid, canonical)
                + " | "
                + _fmt(b, _PREC_OR, env, avoid, canonical)
            )
            return wrap(s, _PREC_OR)
        case Implies(a, b):
            s = (
                _fmt(a, _PREC_IMP + 1, env, avoid, canonical)
                + " -> "
                + _fmt(b, _PREC_IMP, env, avoid, canonical)
            )
            return wrap(s, _PREC_IMP)
        case Eps() | Tau() | Forall() | Exists():
            kw = {Eps: "eps", Tau: "tau", Forall: "all", Exists: "ex"}[type(obj)]
            name = f"?{len(env)}" if canonical else _pick_name(obj.hint, avoid)
            env.append(name)
            body = _fmt(obj.body, _PREC_IMP, env, avoid | {name}, canonical)
            env.pop()
            s = f"{kw} {name}. {body}"
            return wrap(s, _PREC_IMP) if isinstance(obj, BINDER_FORMULAS) else s
    raise SortError(f"not a term or formula: {obj!r}")


def to_text(obj: Obj) -> str:
    """Render in the surface grammar; parsing the result gives back obj."""
    return _fmt(obj, 0, [], set(free_vars(obj)), canonical=False)


def canonical_text(obj: Obj) -> str:
    """Hint-independent rendering, used for deterministic ordering."""
    return _fmt(obj, 0, [], set(free_vars(obj)), canonical=True)


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str
    arity: int
    kind: str  # "function", "predicate" or "propositional-atom"


class Signature:
    """Declared symbols plus a fresh-name source that never collides with them."""

    def __init__(self) -> None:
        self._arities: dict[tuple[str, str], int] = {}
        self._names: set[str] = set()

    def declare(self, name: str, arity: int, kind: str) -> Symbol:
        key = (kind, name)
        if key in self._arities and self._arities[key] != arity:
            raise ValueError(
                f"{kind} {name!r} redeclared with arity {arity}, was {self._arities[key]}"
            )
        self._arities[key] = arity
        self._names.add(name)
        return Symbol(name, arity, kind)

    def symbols(self) -> list[Symbol]:
        return [Symbol(n, a, k) for (k, n), a in sorted(self._arities.items())]

    def fresh(self, base: str, arity: int = 0, kind: str = "function") -> str:
        n = 1
        while f"{base}_{n}" in self._names:
            n += 1
        name = f"{base}_{n}"
        self.declare(name, arity, kind)
        return name

    def note_name(self, name: str) -> None:
        self._names.add(name)

    def extend(self, obj: Obj) -> None:
        match obj:
            case Var(n):
                self.note_name(n)
            case App(head, args):
                self.declare(head, len(args), "function")
            case Atom(pred, args):
                self.declare(pred, len(args), "predicate" if args else "propositional-atom")
            case Eps(hint, _) | Tau(hint, _) | Forall(hint, _) | Exists(hint, _):
                self.note_name(hint)
        for k in _children(obj):
            self.extend(k)

    @classmethod
    def collect(cls, *objs: Obj) -> "Signature":
        sig = cls()
        for o in objs:
            sig.extend(o)
        return sig


