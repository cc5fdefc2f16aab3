"""First-order terms and formulas with epsilon/tau binders.

Bound variables are stored as position indices (a nameless representation),
so structural equality of nodes *is* equality up to renaming of bound
variables.  Surface names are kept as non-comparing hints and only matter
for printing.  Every name the engine makes comes from fresh (x, x', ...)
or fresh_numbered (c_1, c_2, ...), avoiding a set of names in use.

Nodes are immutable by convention (a field is set once, when the node is
built; epsilon/tau terms also keep their rank and degree once asked) and
shared: operations return the node they were given wherever nothing
changes, so formulas are DAGs rather than trees.  Each node computes its
facts once, when it is built: its hash, its free variables, whether it
holds an epsilon/tau term or a quantifier, and how far its bound indices
escape.  The queries read those facts, and each constructor reads its
children's, instead of walking.  The hash still hashes the children through
__hash__, as hash((left, right)): a tuple of their stored ints would hash to
other values, as hash() reduces an int modulo 2**61 - 1.  Inside a
``sharing()`` scope the constructors also hash-cons: a node equal to one
already built in the scope, binder names included, *is* that node.  The
intern table belongs to the outermost open scope and is dropped when it
closes (each elimination run opens one), so it never outgrows one run.
Two walkers keep an explicit stack and visit each distinct node once, so
their cost follows the distinct nodes, not the tree, and neither recurses
along a long disjunction: transform goes bottom-up and rewrites a node or
folds it into a value from its children's, and _nodes visits in pre-order.
One walk substitutes a term by many, in many roots: subst_each visits the
distinct nodes of all the roots once, by node, to list the nodes above the
term's occurrences, then rebuilds only those per term, once for all roots.
The critical-formula module reads terms through the same tools: it
recognizes a reading with one match_holes pattern per candidate term, and
finds a term's subordinates in one transform fold over its body.
The printer, too, renders each shared term and atom once: within one
``to_text`` call, or within one output whose caller passes the same text
memo to every call.  That memo is keyed by the printed formula's free
variables, then by node id, and lives for that output only.  A term, atom
or implication of atoms outside every binder, a chain's operand too, is
composed in one step from its parts' known texts.  Formulas of one shape
print by filling its template (template, fill) with their parts.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence, Union


class SortError(TypeError):
    """Raised when a term is used where a formula is expected, or vice versa."""


class Record:
    """A plain slotted record, immutable by convention as nodes are.

    A subclass names in _fields the two or more fields that equality, hashing
    and repr read: records are equal iff they are of one class with equal
    fields, and a record hashes as the tuple of those fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Nodes

# Bits of a node's _info: whether it holds an epsilon/tau term or a
# quantifier.  The bits above them count how far its bound indices escape
# (0: locally closed).
_ETAU, _QUANT = 1, 2
_NO_VARS: frozenset[str] = frozenset()

# The intern table of the open sharing scope (None outside every scope).  A
# value is the node itself, or a tuple of alpha-equal nodes whose binder
# names differ.
_table: dict | None = None


class _Node:
    __slots__ = ("_hash", "_fv", "_info")
    __match_args__: tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and (self._same(other) or _equal(self, other))

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_text(self)!r})"

    def _label(self) -> object:
        return None

    def _kids(self) -> tuple:
        return ()

    def _same(self, other: "_Node") -> bool:
        """Same label, binder name and child objects as a node of the same class."""
        a, b = self._kids(), other._kids()
        return self._label() == other._label() and len(a) == len(b) and all(map(operator.is_, a, b))


class Term(_Node):
    __slots__ = ()


class Formula(_Node):
    __slots__ = ()


Obj = Union[Term, Formula]


def _intern(node: _Node) -> _Node:
    table = _table
    if table is None:
        return node
    hit = table.setdefault(node, node)
    if hit is node or not node._info & 3:  # equal nodes without binders are spelled alike
        return hit
    variants = hit if type(hit) is tuple else (hit,)
    for v in variants:
        if v._same(node) or _equal(v, node, names=True):
            return v
    table[node] = variants + (node,)
    return node


def _combine(kids: Iterable[_Node]) -> tuple[frozenset[str], int]:
    """The free variables and flags of a node over kids."""
    fv, info = _NO_VARS, 0
    for k in kids:
        kf = k._fv
        if not kf <= fv:
            fv = kf if fv <= kf else fv | kf
        ki = k._info
        info = (info if info > ki else ki) | ((info | ki) & 3)
    return fv, info


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> "Var":
        self = object.__new__(cls)
        self.name = name
        self._hash = hash((name,))
        self._fv = frozenset((name,))
        self._info = 0
        return _intern(self)

    def _label(self) -> object:
        return self.name


class Bound(Term):
    """A bound variable, counted outward from its binder.  Internal."""

    __slots__ = ("index",)
    __match_args__ = ("index",)

    def __new__(cls, index: int) -> "Bound":
        self = object.__new__(cls)
        self.index = index
        self._hash = hash((index,))
        self._fv = _NO_VARS
        self._info = (index + 1) << 2
        return _intern(self)

    def _label(self) -> object:
        return self.index


class App(Term):
    __slots__ = ("head", "args")
    __match_args__ = ("head", "args")

    def __new__(cls, head: str, args: tuple[Term, ...] = ()) -> "App":
        self = object.__new__(cls)
        self.head = head
        self.args = args
        self._hash = hash((head, args))
        self._fv, self._info = (args[0]._fv, args[0]._info) if len(args) == 1 else _combine(args)
        return _intern(self)

    def _label(self) -> object:
        return self.head

    def _kids(self) -> tuple:
        return self.args

    def _with(self, kids: tuple) -> "App":
        return App(self.head, kids)


class Atom(Formula):
    __slots__ = ("pred", "args")
    __match_args__ = ("pred", "args")

    def __new__(cls, pred: str, args: tuple[Term, ...] = ()) -> "Atom":
        self = object.__new__(cls)
        self.pred = pred
        self.args = args
        self._hash = hash((pred, args))
        self._fv, self._info = (args[0]._fv, args[0]._info) if len(args) == 1 else _combine(args)
        return _intern(self)

    def _label(self) -> object:
        return self.pred

    def _kids(self) -> tuple:
        return self.args

    def _with(self, kids: tuple) -> "Atom":
        return Atom(self.pred, kids)


class _Binder(_Node):
    __slots__ = ("hint", "body")
    __match_args__ = ("hint", "body")
    _flag = 0

    def __new__(cls, hint: str, body: Formula):
        self = object.__new__(cls)
        self.hint = hint
        self.body = body
        self._hash = hash((body,))
        self._fv = body._fv
        i = body._info  # the escape count drops by one past this binder
        self._info = (i - 4 if i >= 8 else i & 3) | cls._flag
        return _intern(self)

    def _kids(self) -> tuple:
        return (self.body,)

    def _with(self, kids: tuple):
        return type(self)(self.hint, kids[0])

    def _same(self, other: _Node) -> bool:
        return self.body is other.body and self.hint == other.hint


class Eps(_Binder, Term):
    # _degree and _rank memoize critical.degree and critical.rank; unset
    # until first asked for.
    __slots__ = ("_degree", "_rank")
    _flag = _ETAU


class Tau(_Binder, Term):
    __slots__ = ("_degree", "_rank")
    _flag = _ETAU


class Forall(_Binder, Formula):
    __slots__ = ()
    _flag = _QUANT


class Exists(_Binder, Formula):
    __slots__ = ()
    _flag = _QUANT


class _Constant(Formula):
    __slots__ = ()

    def __new__(cls):
        return cls._the


class Top(_Constant):
    __slots__ = ()


class Bot(_Constant):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("sub",)
    __match_args__ = ("sub",)

    def __new__(cls, sub: Formula) -> "Not":
        self = object.__new__(cls)
        self.sub = sub
        self._hash = hash((sub,))
        self._fv = sub._fv
        self._info = sub._info
        return _intern(self)

    def _kids(self) -> tuple:
        return (self.sub,)

    def _with(self, kids: tuple) -> "Not":
        return Not(kids[0])


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        self = object.__new__(cls)
        self.left = left
        self.right = right
        self._hash = hash((left, right))
        fl, fr = left._fv, right._fv
        self._fv = fl if fr <= fl else fr if fl <= fr else fl | fr
        il, ir = left._info, right._info
        self._info = (il if il > ir else ir) | ((il | ir) & 3)
        return _intern(self)

    def _kids(self) -> tuple:
        return (self.left, self.right)

    def _with(self, kids: tuple):
        return type(self)(kids[0], kids[1])

    def _same(self, other: _Node) -> bool:
        return self.left is other.left and self.right is other.right


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


def _constant(cls: type) -> _Constant:
    node = object.__new__(cls)
    node._hash, node._fv, node._info = hash(()), _NO_VARS, 0
    cls._the = node
    return node


TOP = _constant(Top)
BOT = _constant(Bot)

BINDER_TERMS = (Eps, Tau)
BINDER_FORMULAS = (Forall, Exists)
BINDERS = BINDER_TERMS + BINDER_FORMULAS


def _equal(a: _Node, b: _Node, names: bool = False) -> bool:
    """Structural equality, up to the names of bound variables unless ``names``."""
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if x is y:
            continue
        if type(x) is not type(y) or x._hash != y._hash or x._label() != y._label():
            return False
        if names and isinstance(x, _Binder) and x.hint != y.hint:
            return False
        kx, ky = x._kids(), y._kids()
        if len(kx) != len(ky):
            return False
        pairs += zip(kx, ky)
    return True


@contextmanager
def sharing() -> Iterator[None]:
    """Hash-cons the nodes built inside; the outermost scope drops the table."""
    global _table
    if _table is not None:
        yield
        return
    _table = {}
    try:
        yield
    finally:
        _table = None


def interned(obj: Obj) -> Obj:
    """obj with every node replaced by the equal one of the open sharing scope.

    Rebuilds bottom-up, so that nodes built before the scope opened, such
    as separately parsed copies of one term, become one node.  Outside
    every scope obj is returned as it is.
    """
    if _table is None:
        return obj
    return transform(obj, lambda node, depth: None, lambda node, kids: _intern(rebuild(node, kids)))


# ---------------------------------------------------------------------------
# Walkers


def _nodes(obj: Obj, descend: Callable[[_Node], object] | None = None) -> Iterator[_Node]:
    """Each distinct node of obj once, in pre-order, left to right.

    The children of a node are visited only if ``descend(node)`` holds.
    Skipping a node seen before skips no first occurrence: its whole subtree
    was visited with it.
    """
    seen: set[int] = set()
    stack = [obj]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if descend is None or descend(node):
            stack += reversed(node._kids())


def rebuild(node: _Node, kids: tuple) -> _Node:
    """node over the given children; node itself when none of them changed."""
    return node if all(map(operator.is_, kids, node._kids())) else node._with(kids)


def transform(
    obj: Obj, leaf: Callable[[_Node, int], object], build: Callable[[_Node, tuple], object] = rebuild
) -> object:
    """Fold obj bottom-up through an explicit stack: rewrite it, or compute a value.

    ``leaf(node, depth)`` is node's value, or None to make it from its
    children's: then ``build(node, values)`` gets their values, in order.
    depth counts the binders between obj and node.  The default build
    rebuilds node from its rewritten children and keeps node when they all
    come back unchanged, so transform rewrites obj.  Each distinct
    (node, depth) gets its value once in a call.
    """
    done: dict = {}  # id(node) at depth 0, (id(node), depth) below binders
    stack = [(obj, 0, False)]
    while stack:
        node, depth, ready = stack.pop()
        key = (id(node), depth) if depth else id(node)
        inner = depth + 1 if isinstance(node, _Binder) else depth
        if ready:  # every child has its value
            kids = tuple([done[(id(k), inner) if inner else id(k)] for k in node._kids()])
            done[key] = build(node, kids)
        elif key not in done:
            out = leaf(node, depth)
            if out is not None:
                done[key] = out
            else:
                stack.append((node, depth, True))
                stack += [(k, inner, False) for k in reversed(node._kids())]
    return done[id(obj)]


# ---------------------------------------------------------------------------
# Binding


def _lift(obj: Obj, by: int) -> Obj:
    """Add `by` to every bound index escaping `obj` (standard de Bruijn lift)."""
    if by == 0:
        return obj

    def leaf(node, depth):
        if node._info >> 2 <= depth:
            return node
        if isinstance(node, Bound):
            return Bound(node.index + by)
        return None

    return transform(obj, leaf)


def abstract_var(obj: Obj, name: str) -> Obj:
    """Turn free occurrences of Var(name) into the index of a new binder around obj.

    Indices that escape obj are shifted up to skip the new binder.
    """

    def leaf(node, depth):
        if name not in node._fv and node._info >> 2 <= depth:
            return node
        if isinstance(node, Var):
            return Bound(depth)
        if isinstance(node, Bound):
            return Bound(node.index + 1)
        return None

    return transform(obj, leaf)


def instantiate(body: Obj, replacement: Term) -> Obj:
    """Substitute `replacement` for the binder around `body`, which is removed.

    The textbook de Bruijn substitution: the replacement is lifted past the
    binders it is inserted under, and indices that pointed above the removed
    binder are decremented.  For locally closed replacements and one-binder
    bodies (the common case) both adjustments are identities.
    """

    def leaf(node, depth):
        if node._info >> 2 <= depth:
            return node
        if isinstance(node, Bound):
            return _lift(replacement, depth) if node.index == depth else Bound(node.index - 1)
        return None

    return transform(body, leaf)


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
    return obj._info >> 2 <= depth


# ---------------------------------------------------------------------------
# Queries


def free_vars(obj: Obj) -> frozenset[str]:
    return obj._fv


def is_quantifier_free(phi: Obj) -> bool:
    return not phi._info & _QUANT


def contains_etau(obj: Obj) -> bool:
    return bool(obj._info & _ETAU)


def etau_subterms(obj: Obj) -> list[Term]:
    """Standalone epsilon/tau subterms of obj, outermost first, deduplicated.

    Occurrences that use a variable of an enclosing binder are not standalone
    terms and are skipped.
    """
    found = (
        n
        for n in _nodes(obj, lambda n: n._info & _ETAU)
        if isinstance(n, BINDER_TERMS) and n._info < 4
    )
    return list(dict.fromkeys(found))


def occurs(e: Term, obj: Obj) -> bool:
    """True iff some subterm of obj equals e up to bound-variable renaming."""
    need = e._info & (_ETAU | _QUANT)  # only a node with e's flags can hold e
    return any(isinstance(n, Term) and n == e for n in _nodes(obj, lambda n: n._info & need == need))


# ---------------------------------------------------------------------------
# Substitution


def subst_var(phi: Obj, name: str, t: Term) -> Obj:
    """Replace every free occurrence of the variable by t, capture-avoiding.

    Capture cannot arise in the nameless representation: bound occurrences
    are indices and t is locally closed, so it crosses binders unchanged.
    """

    def leaf(node, depth):
        if name not in node._fv:
            return node
        return t if isinstance(node, Var) else None

    return transform(phi, leaf)


def subst_each(objs: Sequence[Obj], e: Term, terms: Iterable[Term]) -> Iterator[list[Obj]]:
    """objs with every standalone occurrence of the term e replaced by s, for each s in terms.

    Matches outermost first and never descends into the replacement, so the
    result is stable even when s contains e.  Occurrences under a binder that
    captures a variable of e differ structurally from e after index shifting
    and are left alone.  So whether e occurs in a node does not depend on the
    binders above it: one walk over the distinct nodes of all the objs, keyed
    by node, finds the occurrences.  Nodes that cannot hold e are kept, and an
    obj itself when e does not occur in it; each s rebuilds only the nodes
    above an occurrence, once for all the objs: unchecked, as each changes,
    unless s equals e.  Such an s goes through rebuild: an occurrence spelled
    as s stays, one spelled otherwise takes s's spelling.  The results come
    one list at a time, so a caller that flattens or keeps part of each never
    holds all.
    """
    need, h = e._info & (_ETAU | _QUANT), e._hash
    held: dict[int, bool] = {}  # id(node): whether e occurs in node
    hits: list[int] = []  # ids of the occurrences
    above: list[_Node] = []  # the nodes with an occurrence below, in post-order
    stack: list = list(reversed(objs))  # a node to visit, or (node,) once its children are in held
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            node = node[0]
            held[id(node)] = found = any([held[id(k)] for k in node._kids()])
            if found:
                above.append(node)
        elif id(node) not in held:
            if node._info & need != need:  # as in occurs
                held[id(node)] = False
            elif node._hash == h and isinstance(node, Term) and node == e:
                held[id(node)] = True
                hits.append(id(node))
            else:
                stack.append((node,))
                stack += reversed(node._kids())
    for s in terms:
        new = dict.fromkeys(hits, s)
        get, same = new.get, s._hash == h and s == e  # unless same, every node above changes
        for node in above:  # one or two children without a list
            kids = node._kids()
            if len(kids) == 1:  # the child holds e, so it is in new
                kids = (new[id(kids[0])],)
            elif len(kids) == 2:
                a, b = kids
                kids = (get(id(a), a), get(id(b), b))
            else:
                kids = tuple([get(id(k), k) for k in kids])
            new[id(node)] = rebuild(node, kids) if same else node._with(kids)
        yield [get(id(obj), obj) for obj in objs]


def subst_term(obj: Obj, e: Term, s: Term) -> Obj:
    """subst_each's one result for s: every standalone occurrence of e replaced by s."""
    return next(subst_each((obj,), e, (s,)))[0]


# ---------------------------------------------------------------------------
# Matching


def match_holes(pattern: Obj, target: Obj, holes: frozenset[str] | set[str]) -> dict[str, Term] | None:
    """Match target against pattern, solving for the hole variables.

    A hole can only be bound to a standalone term: a candidate that uses a
    variable of a binder above the hole position is rejected, mirroring the
    capture-avoidance of subst_var.
    """
    binding: dict[str, Term] = {}
    pairs = [(pattern, target)]
    while pairs:
        p, t = pairs.pop()
        if isinstance(p, Var) and p.name in holes:
            if not isinstance(t, Term) or not locally_closed(t):
                return None
            if binding.setdefault(p.name, t) != t:
                return None
            continue
        if type(p) is not type(t) or p._label() != t._label():
            return None
        kp, kt = p._kids(), t._kids()
        if len(kp) != len(kt):
            return None
        pairs += reversed(list(zip(kp, kt)))
    return binding


# ---------------------------------------------------------------------------
# Formula utilities


def or_spine(phi: Formula) -> list[Formula]:
    out: list[Formula] = []
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Or):
            stack += (f.right, f.left)
        else:
            out.append(f)
    return out


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

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4, 5
_INFIX = {Implies: " -> ", Or: " | ", And: " & "}
# The one parenthesis rule: a node is wrapped where its context binds
# tighter than it does; a class missing here is never wrapped.
_PREC = {Implies: _PREC_IMP, Or: _PREC_OR, And: _PREC_AND, Not: _PREC_NOT,
         Forall: _PREC_IMP, Exists: _PREC_IMP}
_KEYWORD = {Eps: "eps", Tau: "tau", Forall: "all", Exists: "ex"}
_LEAVE = object()  # marks the end of a binder's scope on the work stack
_SHARED = (App, Atom, Eps, Tau)


def _fmt(obj: Obj, canonical: bool, memo: dict, avoid: Iterable[str] = (), holes: dict | None = None):
    """Render obj with an explicit work stack of nodes and literal pieces.

    A chain of one infix connective nested to the right is printed in one
    pass, its operands joined by the connective, so neither the stack nor
    the string work grows with re-printing the spine.  A term or atom
    outside every binder prints the same wherever it occurs in obj: its
    binder names avoid only obj's free variables and ``avoid``.  So its
    text is kept in ``memo`` by node id, and a shared one is rendered once.
    Such a node, or an implication of two atoms, whose parts' texts are
    known (see _direct) skips the stack: its text is composed in one step,
    and a chain's leading operands so composed go straight out.  With
    ``holes``, a map from id(atom) to i, each of those atoms outside
    every binder becomes a hole (i, precedence of its context), and the
    result is a template: a tuple of literal pieces and holes, for fill.
    """
    out: list = []
    env: list[str] = []  # binder names, innermost last
    avoid = {*obj._fv, *avoid}
    work: list = [(obj, 0)]
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
            continue
        if item is _LEAVE:
            avoid.discard(env.pop())
            continue
        if type(item) is list:  # [node, start]: node's pieces are out[start:]
            node, start = item
            out[start:] = [memo.setdefault(id(node), "".join(out[start:]))]
            continue
        node, prec = item
        cls = type(node)
        if not env and holes is None:
            text = _direct(node, prec, memo)
            if text is not None:
                out.append(text)
                continue
        if not env and cls in _SHARED:
            if holes and id(node) in holes:
                out.append((holes[id(node)], prec))
                continue
            text = memo.get(id(node))
            if text is not None:
                out.append(text)
                continue
            work.append([node, len(out)])
        if prec > _PREC.get(cls, _PREC_ATOM):
            out.append("(")
            work.append(")")
        if cls is Var:
            out.append(node.name)
        elif cls is Bound:
            i = node.index
            out.append(env[-1 - i] if i < len(env) else f"?b{i - len(env)}")
        elif cls is App or cls is Atom:
            out.append(node._label())
            if node.args:
                out.append("(")
                work.append(")")
                for k, a in enumerate(reversed(node.args)):
                    if k:
                        work.append(", ")
                    work.append((a, _PREC_IMP))
        elif cls is Top or cls is Bot:
            out.append("top" if cls is Top else "bot")
        elif cls is Not:
            out.append("~")
            work.append((node.sub, _PREC_NOT))
        elif cls in _INFIX:
            sep, mine = _INFIX[cls], _PREC[cls]
            ops = []
            while type(node) is cls:
                ops.append(node.left)
                node = node.right
            ops.append(node)
            k, last = 0, len(ops) - 1
            if not env and holes is None:  # the leading operands that compose go straight out
                while k <= last and (text := _direct(ops[k], mine + (k < last), memo)) is not None:
                    out += (text, sep)
                    k += 1
                if k > last:
                    out.pop()  # the separator after the last operand
                    continue
            work.append((ops[last], mine))
            for op in reversed(ops[k:last]):
                work += (sep, (op, mine + 1))
        elif isinstance(node, _Binder):
            name = f"?{len(env)}" if canonical else fresh(node.hint, avoid)
            out.append(f"{_KEYWORD[cls]} {name}. ")
            env.append(name)
            work += (_LEAVE, (node.body, _PREC_IMP))
        else:
            raise SortError(f"not a term or formula: {node!r}")
    if holes is None:
        return "".join(out)
    return tuple(p for cls, run in groupby(out, type) for p in (["".join(run)] if cls is str else run))


def _direct(node: _Node, prec: int, memo: dict) -> str | None:
    """_part's text of node, or of an implication of two parts, in a context of precedence prec."""
    if type(node) is not Implies:
        return _part(node, memo, 2)  # such a text is never wrapped
    left, right = _part(node.left, memo, 2), _part(node.right, memo, 2)
    if left is None or right is None:
        return None
    return f"({left} -> {right})" if prec > _PREC_IMP else f"{left} -> {right}"


def _part(node: _Node, memo: dict, depth: int) -> str | None:
    """node's text outside every binder, if known without the work stack: a Var's
    name, a term's or atom's memoized text, or an App or Atom composed, and
    memoized, from its arguments' texts known so within depth - 1 levels.
    No such text takes parentheses, unlike the memo's other entries from fill."""
    cls = type(node)
    if cls is Var:
        return node.name
    text = memo.get(id(node)) if cls in _SHARED else None
    if text is None and depth and (cls is App or cls is Atom):
        args = node.args
        if len(args) == 1:  # most are: no list to build
            inner = memo.get(id(args[0])) or _part(args[0], memo, depth - 1)
        else:
            args = [memo.get(id(a)) or _part(a, memo, depth - 1) for a in args]
            inner = None if None in args else ", ".join(args)
        if inner is not None:
            text = memo[id(node)] = f"{node._label()}({inner})" if args else node._label()
    return text


def to_text(obj: Obj, memo: dict | None = None) -> str:
    """Render in the surface grammar; parsing the result gives back obj.

    A caller printing many formulas over shared nodes, such as an
    elimination trace, passes one ``memo`` (an empty dict to start) to
    every call of one output, and each shared term and atom outside every
    binder is rendered once in that output.  The memo is keyed by the
    printed formula's free variables, which the binder names avoid, and
    then by node id: it must live for that output only, while every
    printed node is alive.  Without a memo the text is kept for one call.
    """
    return _fmt(obj, False, {} if memo is None else memo.setdefault(obj._fv, {}))


def template(obj: Formula, holes: Sequence[Formula]) -> tuple:
    """obj's text as literal pieces and a hole for each occurrence of holes[i]; see fill."""
    return _fmt(obj, False, {}, holes={id(h): i for i, h in enumerate(holes)})


def fill(shape: tuple, parts: Sequence[Obj], memo: dict) -> str:
    """to_text(obj, memo), where obj is the template's formula with parts[i] for holes[i].

    The holes stand outside every binder and each part fills one at least,
    so obj's free variables are the parts'.  Each part prints as within obj:
    its binder names avoid them, its text is kept in the memo under them by
    node id, and it is wrapped where its hole's context binds tighter.
    """
    fv = frozenset().union(*[p._fv for p in parts])
    sub = memo.setdefault(fv, {})
    texts = [sub.get(id(p)) or sub.setdefault(id(p), _fmt(p, False, sub, fv)) for p in parts]
    binds = [_PREC.get(type(p), _PREC_ATOM) for p in parts]
    return "".join([s if type(s) is str else texts[s[0]] if s[1] <= binds[s[0]] else f"({texts[s[0]]})"
                    for s in shape])


def canonical_text(obj: Obj) -> str:
    """Hint-independent rendering, used for deterministic ordering."""
    return _fmt(obj, True, {})


# ---------------------------------------------------------------------------
# Fresh names


def names(*objs: Obj) -> set[str]:
    """Every variable, function, predicate and binder name in objs."""
    out: set[str] = set()
    for obj in objs:
        for node in _nodes(obj):
            match node:
                case Var(name) | App(name, _) | Atom(name, _) | _Binder(name, _):
                    out.add(name)
    return out


def fresh(hint: str, taken: set[str]) -> str:
    """The first of hint, hint', hint'', ... not in taken ("x" for no hint); taken gets it."""
    name = hint or "x"
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def fresh_numbered(base: str, taken: set[str]) -> str:
    """The first of base_1, base_2, ... not in taken; taken gets it."""
    n = 1
    while f"{base}_{n}" in taken:
        n += 1
    name = f"{base}_{n}"
    taken.add(name)
    return name
