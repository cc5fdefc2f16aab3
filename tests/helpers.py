"""Shared builders, independent oracles, and seeded generators for the tests.

The oracles here deliberately avoid the package's semantics module: the
truth-table checker works on Python bools, the Godel evaluator is a direct
dict-based recursion, the two-element model checker interprets first-order
formulas by brute force, the Kripke checker forces formulas in every
small rooted model, the schema matchers compare shapes structurally, and
the atom renaming tells alpha-classes apart by their printed form.  The
Godel and Kripke validity checks take every valuation at once on bit sets;
the per-valuation evaluators are their reference in the tests.  The
reference algorithms at the end keep the package's replaced ones: critical
readings by instantiate-and-compare, subordinates by a stack walk, and the
prover's search by structural match, which normalizes its input with
semantics._norm so that it visits the same sequents as prove_H, the
printer through its work stack alone, and each node's stored facts by the
plain formulas over its children.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import re
from typing import Iterable

from epsitau.critical import CriticalFormula, make_critical, recognize_critical
from epsitau.judgments import CLASSICAL, Judgment, make_judgment
from epsitau.parser import parse_formula
from epsitau.semantics import Instance, _norm, schema
from epsitau.syntax import (
    BINDER_TERMS,
    BINDERS,
    BOT,
    TOP,
    And,
    App,
    Atom,
    Bot,
    Bound,
    Eps,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    SortError,
    Tau,
    Term,
    Top,
    Var,
    _ETAU,
    _INFIX,
    _KEYWORD,
    _LEAVE,
    _PREC,
    _PREC_ATOM,
    _PREC_IMP,
    _PREC_NOT,
    _QUANT,
    _SHARED,
    _nodes,
    abstract_var,
    and_join,
    canonical_text,
    dedup,
    eps,
    etau_subterms,
    exists,
    forall,
    fresh,
    instantiate,
    locally_closed,
    match_holes,
    or_spine,
    sharing,
    subst_term,
    subst_var,
    tau,
    to_text,
)


def A(name: str, *args: Term) -> Atom:
    return Atom(name, tuple(args))


def V(name: str) -> Var:
    return Var(name)


def C(name: str) -> App:
    return App(name, ())


def F(name: str, *args: Term) -> App:
    return App(name, tuple(args))


# ---------------------------------------------------------------------------
# Oracle 1: classical truth tables over Python bools


def _bool_eval(phi: Formula, env: dict) -> bool:
    match phi:
        case Atom():
            return env[phi]
        case Top():
            return True
        case Bot():
            return False
        case Not(sub):
            return not _bool_eval(sub, env)
        case And(a, b):
            return _bool_eval(a, env) and _bool_eval(b, env)
        case Or(a, b):
            return _bool_eval(a, env) or _bool_eval(b, env)
        case Implies(a, b):
            return (not _bool_eval(a, env)) or _bool_eval(b, env)
    raise ValueError(phi)


def _collect_atoms(phi: Formula, out: list) -> None:
    match phi:
        case Atom():
            if phi not in out:
                out.append(phi)
        case Not(sub):
            _collect_atoms(sub, out)
        case And(a, b) | Or(a, b) | Implies(a, b):
            _collect_atoms(a, out)
            _collect_atoms(b, out)
        case _:
            pass


def taut_oracle(phi: Formula) -> bool:
    """Classical tautology by brute force over the formula's atoms."""
    atoms: list = []
    _collect_atoms(phi, atoms)
    for bits in itertools.product((False, True), repeat=len(atoms)):
        if not _bool_eval(phi, dict(zip(atoms, bits))):
            return False
    return True


# ---------------------------------------------------------------------------
# Oracle 2: finite Godel chains by direct recursion


def godel_value(f: Formula, env: dict, top: int) -> int:
    """Value of f on the chain 0..top; env maps atoms to values."""
    match f:
        case Atom():
            return env[f]
        case Top():
            return top
        case Bot():
            return 0
        case Not(sub):
            return top if godel_value(sub, env, top) == 0 else 0
        case And(a, b):
            return min(godel_value(a, env, top), godel_value(b, env, top))
        case Or(a, b):
            return max(godel_value(a, env, top), godel_value(b, env, top))
        case Implies(a, b):
            va, vb = godel_value(a, env, top), godel_value(b, env, top)
            return top if va <= vb else vb
    raise ValueError(f)


def godel_oracle(phi: Formula, size: int) -> bool:
    """Validity on the chain 0..size-1, independent of the semantics module.

    All size**n valuations of phi's n atoms are evaluated at once: bit i of
    a mask stands for the valuation that gives atom j the j-th base-size
    digit of i, and a formula is worth, for k = 1..size-1, the mask of the
    valuations where its value is at least k.  On each valuation this agrees
    with godel_value, which the tests check.
    """
    atoms: list = []
    _collect_atoms(phi, atoms)
    n = len(atoms)
    env = {a: [_digit_mask(j, size, n, range(k, size)) for k in range(1, size)] for j, a in enumerate(atoms)}
    full = (1 << size**n) - 1
    return _godel_masks(phi, env, size - 1, full)[-1] == full


def _digit_mask(j: int, base: int, n: int, digits) -> int:
    """Bit i, for i < base**n, is set iff the j-th base-`base` digit of i is in digits."""
    block, total = base**j, base**n
    mask, width = sum(((1 << block) - 1) << d * block for d in digits), base * block
    while width < total:  # the pattern repeats with period width
        mask |= mask << width
        width *= 2
    return mask & ((1 << total) - 1)


def _godel_masks(f: Formula, env: dict, top: int, full: int) -> list[int]:
    match f:
        case Atom():
            return env[f]
        case Top():
            return [full] * top
        case Bot():
            return [0] * top
        case Not(sub):
            return [full & ~_godel_masks(sub, env, top, full)[0]] * top
        case And(a, b):
            return [x & y for x, y in zip(_godel_masks(a, env, top, full), _godel_masks(b, env, top, full))]
        case Or(a, b):
            return [x | y for x, y in zip(_godel_masks(a, env, top, full), _godel_masks(b, env, top, full))]
        case Implies(a, b):
            ma, mb = _godel_masks(a, env, top, full), _godel_masks(b, env, top, full)
            le = full  # the valuations where v(a) <= v(b)
            for x, y in zip(ma, mb):
                le &= ~x | y
            return [y | le for y in mb]
    raise ValueError(f)


def refutes(phi: Formula, counter: dict[str, int], size: int) -> bool:
    """Does the countervaluation (atom name -> value) refute phi on the size-chain?"""
    atoms: list = []
    _collect_atoms(phi, atoms)
    env = {a: counter[a.pred] for a in atoms}
    top = size - 1
    return all(0 <= v <= top for v in env.values()) and godel_value(phi, env, top) != top


# ---------------------------------------------------------------------------
# Oracle 3: two-element first-order models


def _fo_symbols(phi: Formula) -> tuple[dict, dict]:
    preds: dict = {}
    funcs: dict = {}

    def walk_t(t: Term) -> None:
        if isinstance(t, App):
            funcs[t.head] = len(t.args)
            for a in t.args:
                walk_t(a)

    def walk(f) -> None:
        match f:
            case Atom(p, args):
                preds[p] = len(args)
                for a in args:
                    walk_t(a)
            case Not(sub):
                walk(sub)
            case And(a, b) | Or(a, b) | Implies(a, b):
                walk(a)
                walk(b)
            case Forall(_, body) | Exists(_, body):
                walk(body)
            case _:
                pass

    walk(phi)
    return preds, funcs


def valid_in_two_element_models(phi: Formula) -> bool:
    """Brute-force first-order validity over the domain {0, 1}."""
    preds, funcs = _fo_symbols(phi)
    dom = (0, 1)

    def interps(arity: int, codomain):
        keys = list(itertools.product(dom, repeat=arity))
        for values in itertools.product(codomain, repeat=len(keys)):
            yield dict(zip(keys, values))

    pred_names = sorted(preds)
    func_names = sorted(funcs)

    def ev_t(t: Term, fi: dict, env: dict) -> int:
        match t:
            case Var(n):
                return env[n]
            case App(h, args):
                return fi[h][tuple(ev_t(a, fi, env) for a in args)]
        raise ValueError(t)

    def ev(f, pi: dict, fi: dict, env: dict) -> bool:
        match f:
            case Atom(p, args):
                return pi[p][tuple(ev_t(a, fi, env) for a in args)]
            case Top():
                return True
            case Bot():
                return False
            case Not(sub):
                return not ev(sub, pi, fi, env)
            case And(a, b):
                return ev(a, pi, fi, env) and ev(b, pi, fi, env)
            case Or(a, b):
                return ev(a, pi, fi, env) or ev(b, pi, fi, env)
            case Implies(a, b):
                return (not ev(a, pi, fi, env)) or ev(b, pi, fi, env)
            case Forall(hint, body) | Exists(hint, body):
                name = hint
                while name in env:
                    name += "'"
                results = (
                    ev(instantiate(body, Var(name)), pi, fi, env | {name: d}) for d in dom
                )
                if isinstance(f, Forall):
                    return all(results)
                return any(results)
        raise ValueError(f)

    for pvals in itertools.product(
        *(list(interps(preds[p], (False, True))) for p in pred_names)
    ):
        pi = dict(zip(pred_names, pvals))
        for fvals in itertools.product(
            *(list(interps(funcs[fn], dom)) for fn in func_names)
        ):
            fi = dict(zip(func_names, fvals))
            if not ev(phi, pi, fi, {}):
                return False
    return True


# ---------------------------------------------------------------------------
# Oracle 4: finite Kripke models for H and KC


def labelled_rooted_posets(max_worlds: int = 4) -> list[tuple[int, ...]]:
    """Every partial order on worlds 0..n-1 (n <= max_worlds) with a least world.

    A frame is the tuple of up-set bitmasks: bit v of frame[w] is set iff
    w <= v.  There are 88 of them for max_worlds = 4.
    """
    frames = []
    for n in range(1, max_worlds + 1):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            up = [1 << w for w in range(n)]
            for (a, b), on in zip(pairs, chosen):
                if on:
                    up[a] |= 1 << b
            antisymmetric = all(not (up[b] >> a & 1) for a, b in pairs if up[a] >> b & 1)
            transitive = all(
                up[v] & ~up[w] == 0 for w in range(n) for v in range(n) if up[w] >> v & 1
            )
            if antisymmetric and transitive and (1 << n) - 1 in up:
                frames.append(tuple(up))
    return frames


def _canonical_frame(up: tuple[int, ...]) -> tuple[int, ...]:
    n = len(up)

    def relabel(perm) -> tuple[int, ...]:
        inv = {w: i for i, w in enumerate(perm)}
        return tuple(sum(1 << inv[v] for v in range(n) if up[w] >> v & 1) for w in perm)

    return min(relabel(perm) for perm in itertools.permutations(range(n)))


# one frame per isomorphism class: validity does not depend on the labels
KRIPKE_FRAMES = sorted({_canonical_frame(up) for up in labelled_rooted_posets()})


def _has_top(up: tuple[int, ...]) -> bool:
    """A world above every world: the finite rooted frames of KC."""
    common = (1 << len(up)) - 1
    for mask in up:
        common &= mask
    return common != 0


def _forced(phi: Formula, up: tuple[int, ...], val: dict) -> int:
    """Bitmask of the worlds that force phi; val maps atoms to up-set bitmasks."""
    n = len(up)
    match phi:
        case Atom():
            return val[phi]
        case Top():
            return (1 << n) - 1
        case Bot():
            return 0
        case Not(sub):
            s = _forced(sub, up, val)
            return sum(1 << w for w in range(n) if up[w] & s == 0)
        case And(a, b):
            return _forced(a, up, val) & _forced(b, up, val)
        case Or(a, b):
            return _forced(a, up, val) | _forced(b, up, val)
        case Implies(a, b):
            sa, sb = _forced(a, up, val), _forced(b, up, val)
            return sum(1 << w for w in range(n) if up[w] & sa & ~sb == 0)
    raise ValueError(phi)


def _upsets(up: tuple[int, ...]) -> list[int]:
    full = (1 << len(up)) - 1
    return [s for s in range(full + 1) if all(up[w] & ~s == 0 for w in range(len(up)) if s >> w & 1)]


def kripke_valid(phi: Formula, logic: str) -> bool:
    """Validity in every rooted Kripke model of at most 4 worlds ("h"), or of
    those whose frame has a top world ("kc").  Valuations are up-sets.

    On a frame whose worlds have u up-sets, all u**n valuations of phi's n
    atoms are evaluated at once, as godel_oracle does: a formula is worth,
    for each world, the mask of the valuations that force it there.  On each
    valuation this agrees with _forced, which the tests check.
    """
    atoms: list = []
    _collect_atoms(phi, atoms)
    for up in KRIPKE_FRAMES:
        if logic == "kc" and not _has_top(up):
            continue
        upsets = _upsets(up)
        u, n = len(upsets), len(atoms)
        holding = [{i for i, s in enumerate(upsets) if s >> w & 1} for w in range(len(up))]
        val = {a: [_digit_mask(j, u, n, ds) for ds in holding] for j, a in enumerate(atoms)}
        full = (1 << u**n) - 1
        if any(m != full for m in _forced_masks(phi, up, val, full)):
            return False
    return True


def _forced_masks(phi: Formula, up: tuple[int, ...], val: dict, full: int) -> list[int]:
    """Per world, the mask of the valuations that force phi there."""
    worlds = range(len(up))
    match phi:
        case Atom():
            return val[phi]
        case Top():
            return [full for _ in worlds]
        case Bot():
            return [0 for _ in worlds]
        case Not(sub):
            s = _forced_masks(sub, up, val, full)
            return [full & ~_join(s[v] for v in worlds if up[w] >> v & 1) for w in worlds]
        case And(a, b):
            return [x & y for x, y in zip(_forced_masks(a, up, val, full), _forced_masks(b, up, val, full))]
        case Or(a, b):
            return [x | y for x, y in zip(_forced_masks(a, up, val, full), _forced_masks(b, up, val, full))]
        case Implies(a, b):
            sa, sb = _forced_masks(a, up, val, full), _forced_masks(b, up, val, full)
            fails = [sa[v] & ~sb[v] for v in worlds]
            return [full & ~_join(fails[v] for v in worlds if up[w] >> v & 1) for w in worlds]
    raise ValueError(phi)


def _join(masks) -> int:
    out = 0
    for m in masks:
        out |= m
    return out


# ---------------------------------------------------------------------------
# Oracle 5: schema shapes (recorded axiom instances must fit their schema)


def is_implication_chain(phi: Formula) -> bool:
    """A disjunction of implications where each consequent is the next antecedent."""
    parts = or_spine(phi)
    if not all(isinstance(p, Implies) for p in parts):
        return False
    for a, b in zip(parts, parts[1:]):
        if a.right != b.left:  # type: ignore[union-attr]
            return False
    return True


def is_lin_instance(phi: Formula) -> bool:
    match phi:
        case Or(Implies(a1, b1), Implies(b2, a2)):
            return a1 == a2 and b1 == b2
    return False


def is_em_instance(phi: Formula) -> bool:
    """k-ary excluded middle: (V Ai) | (& ~Ai), or the dual (& Ai) | (V ~Ai)."""
    parts = or_spine(phi)
    if len(parts) == 2 and isinstance(parts[0], Not) and parts[0].sub == parts[1]:
        return True  # single tau instance ~A | A
    for split in range(1, len(parts)):
        pos, neg = parts[:split], parts[split:]
        if len(neg) == 1 and _is_neg_conj_of(neg[0], pos):
            return True
        if len(pos) == 1:
            conj = _is_conj_list(pos[0])
            if all(isinstance(q, Not) for q in neg) and [q.sub for q in neg] == conj:  # type: ignore[union-attr]
                return True
    return False


def _is_conj_list(phi: Formula) -> list[Formula]:
    out: list[Formula] = []

    def walk(f: Formula) -> None:
        if isinstance(f, And):
            walk(f.left)
            walk(f.right)
        else:
            out.append(f)

    walk(phi)
    return out


def _is_neg_conj_of(phi: Formula, pos: list[Formula]) -> bool:
    conj = _is_conj_list(phi)
    return conj == [Not(p) for p in pos]


def is_weak_em_instance(phi: Formula) -> bool:
    """k-ary weak excluded middle: (& ~Ai) | V ~~Ai, or the dual for tau."""
    parts = or_spine(phi)
    head, rest = parts[0], parts[1:]
    conj = _is_conj_list(head)
    if not rest:
        return False
    if all(isinstance(c, Not) for c in conj) and all(
        isinstance(r, Not) and isinstance(r.sub, Not) for r in rest
    ):
        return [c.sub for c in conj] == [r.sub.sub for r in rest]  # type: ignore[union-attr]
    if all(isinstance(c, Not) and isinstance(c.sub, Not) for c in conj) and all(
        isinstance(r, Not) for r in rest
    ):
        return [c.sub.sub for c in conj] == [r.sub for r in rest]  # type: ignore[union-attr]
    return False


def is_bigdisj_instance(phi: Formula) -> bool:
    """V_j &_i (Ai -> Aj) over one list of formulas, or the tau dual."""
    parts = or_spine(phi)
    k = len(parts)
    columns: list[list[tuple[Formula, Formula]]] = []
    for p in parts:
        conj = _is_conj_list(p)
        if len(conj) != k or not all(isinstance(c, Implies) for c in conj):
            return False
        columns.append([(c.left, c.right) for c in conj])  # type: ignore[union-attr]
    base_eps = [pair[0] for pair in columns[0]]
    if all(columns[j][i] == (base_eps[i], base_eps[j]) for j in range(k) for i in range(k)):
        return True
    base_tau = [pair[1] for pair in columns[0]]
    return all(
        columns[j][i] == (base_tau[j], base_tau[i]) for j in range(k) for i in range(k)
    )


# ---------------------------------------------------------------------------
# Seeded random generators


def random_term(rng: random.Random, depth: int, vars_: list[str]) -> Term:
    choices = ["var", "const"]
    if depth > 0:
        choices += ["fun", "fun", "eps"]
    match rng.choice(choices):
        case "var" if vars_:
            return Var(rng.choice(vars_))
        case "fun" if depth > 0:
            n = rng.randint(1, 2)
            return App(
                rng.choice("fgh"),
                tuple(random_term(rng, depth - 1, vars_) for _ in range(n)),
            )
        case "eps" if depth > 0:
            x = rng.choice("xyz")
            body = random_formula(rng, depth - 1, vars_ + [x])
            cls = Eps if rng.random() < 0.5 else Tau
            return cls(x, abstract_var(body, x))
        case _:
            return App(rng.choice("abcd"), ())


def random_formula(rng: random.Random, depth: int, vars_: list[str]) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        n = rng.randint(0, 2)
        return Atom(
            rng.choice("PQR"), tuple(random_term(rng, max(depth - 1, 0), vars_) for _ in range(n))
        )
    match rng.choice(["not", "and", "or", "imp"]):
        case "not":
            return Not(random_formula(rng, depth - 1, vars_))
        case "and":
            return And(random_formula(rng, depth - 1, vars_), random_formula(rng, depth - 1, vars_))
        case "or":
            return Or(random_formula(rng, depth - 1, vars_), random_formula(rng, depth - 1, vars_))
        case _:
            return Implies(
                random_formula(rng, depth - 1, vars_), random_formula(rng, depth - 1, vars_)
            )


def random_matrix(rng: random.Random, depth: int, hole: str) -> Formula:
    """A formula of bounded depth guaranteed to mention the hole variable."""
    for _ in range(100):
        phi = random_formula(rng, depth, [hole])
        if Var(hole) in _all_terms(phi):
            return phi
    return Atom("P", (Var(hole),))


def random_binder_term(rng: random.Random, depth: int, outer: list[str], quantifiers: bool = True) -> Term:
    """A seeded epsilon/tau term over the outer variables, with an inner
    term in its body that may use its variable, often under all/ex (never
    with ``quantifiers`` off).  Unlike random_term, it reaches rank 3 and 4
    at depth 4."""
    x = f"x{len(outer)}"
    scope = [*outer, x]
    quantified = quantifiers and rng.random() < 0.5
    if quantified:
        scope.append(f"y{len(outer)}")
    args = [random_term(rng, 1, scope) for _ in range(rng.randint(0, 2))]
    if depth > 1 and rng.random() < 0.8:
        inner = random_binder_term(rng, depth - 1, scope, quantifiers)
        args.insert(rng.randint(0, len(args)), inner)
    body = Atom(rng.choice("PQR"), tuple(args))
    if rng.random() < 0.3:
        body = Implies(random_formula(rng, 1, scope), body)
    if quantified:
        body = rng.choice((forall, exists))(scope[-1], body)
    return rng.choice((eps, tau))(x, body)


def subterms(obj):
    """The term-sort nodes of obj (obj itself if it is a term), each once."""
    return (n for n in _nodes(obj) if isinstance(n, Term))


def _all_terms(phi) -> set:
    return set(subterms(phi))


def random_prop_formula(rng: random.Random, depth: int, atoms: list[str]) -> Formula:
    return random_qf_formula(rng, depth, [Atom(a, ()) for a in atoms])


def random_qf_formula(rng: random.Random, depth: int, atoms: list[Formula]) -> Formula:
    """A random quantifier-free formula over the given atoms."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    match rng.choice(["not", "and", "or", "imp", "top", "bot"]):
        case "not":
            return Not(random_qf_formula(rng, depth - 1, atoms))
        case "and":
            return And(
                random_qf_formula(rng, depth - 1, atoms),
                random_qf_formula(rng, depth - 1, atoms),
            )
        case "or":
            return Or(
                random_qf_formula(rng, depth - 1, atoms),
                random_qf_formula(rng, depth - 1, atoms),
            )
        case "imp":
            return Implies(
                random_qf_formula(rng, depth - 1, atoms),
                random_qf_formula(rng, depth - 1, atoms),
            )
        case "top":
            return Top()
        case _:
            return Bot()


def letter_atoms(formulas: list[Formula]) -> tuple[list[Formula], dict[str, str]]:
    """Rename each alpha-class of atoms to a letter A, B, ..., in order of first
    occurrence; the alpha-class of an atom is its hint-independent rendering.
    Returns the renamed formulas and, per letter, the text of the first atom
    of its class."""
    letters: dict[str, str] = {}
    texts: dict[str, str] = {}

    def walk(phi: Formula) -> Formula:
        match phi:
            case Atom():
                key = canonical_text(phi)
                if key not in letters:
                    letters[key] = chr(ord("A") + len(letters))
                    texts[letters[key]] = to_text(phi)
                return Atom(letters[key], ())
            case Not(sub):
                return Not(walk(sub))
            case And(a, b) | Or(a, b) | Implies(a, b):
                return type(phi)(walk(a), walk(b))
        return phi

    return [walk(f) for f in formulas], texts


def random_classical_judgment(rng: random.Random, logic=CLASSICAL):
    """A small judgment, valid in every logic: criticals entail a chosen critical.

    Uses at most 3 epsilon terms with ranks up to 2 and one or two witnesses
    each, mixing ground, cross-term, and impredicative witnesses.
    """
    n_terms = rng.randint(1, 3)
    matrices = []
    holes = []
    for i in range(n_terms):
        hole = "xyz"[i]
        pred = "PQR"[i]
        if i > 0 and rng.random() < 0.35:
            # rank-2 matrix: an inner epsilon term that uses this matrix's
            # own variable, so the outer term gets a subordinate subterm
            inner = Eps("w", Atom("N" + str(i), (Bound(0), Var(hole))))
            matrices.append(Atom(pred, (Var(hole), inner)))
        else:
            matrices.append(Atom(pred, (Var(hole),)))
        holes.append(hole)
    eps_terms = [Eps(h, abstract_var(m, h)) for m, h in zip(matrices, holes)]
    criticals = []
    for i, (m, h, e) in enumerate(zip(matrices, holes, eps_terms)):
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.4:
                witness: Term = App(rng.choice("cd"), ())
            elif kind < 0.7 and n_terms > 1:
                witness = eps_terms[(i + 1) % n_terms]
            else:
                witness = App("f", (e,))  # impredicative
            criticals.append(make_critical(m, h, "eps", witness).rendered)
    goal = rng.choice(criticals)
    return make_judgment(logic, criticals, goal)


def oracle_valid(phi: Formula, logic) -> bool:
    """phi's validity in the logic by an oracle: kripke_valid for kc, and
    godel_oracle on the logic's chain otherwise, with atoms + 2 values for lc."""
    if logic.kind == "kc":
        return kripke_valid(phi, "kc")
    atoms: list = []
    _collect_atoms(phi, atoms)
    return godel_oracle(phi, {"classical": 2, "lc": len(atoms) + 2}.get(logic.kind, logic.m))


def random_judgment(rng: random.Random, logic, driver: str):
    """One epsilon or tau term e = eps x. A(x) with 1-2 witnesses w among c,
    d and f(e), their critical formulas, and a depth-3 goal over A(e), A(w)
    and B(e) that mentions e, negated for the jankov driver.  Only a goal
    that the criticals entail by the oracle, and that does not hold without
    them, is kept.
    """
    while True:
        binder = rng.choice((Eps, Tau))
        e = binder("x", A("A", Bound(0)))
        witnesses = rng.sample([C("c"), C("d"), F("f", e)], rng.randint(1, 2))
        at_e, at_ws = A("A", e), [A("A", w) for w in witnesses]
        atoms = [at_e, *at_ws, A("B", e)]
        goal = rng.choice((And, Or, Implies))(random_qf_formula(rng, 2, atoms), random_qf_formula(rng, 2, atoms))
        if e not in _all_terms(goal):
            continue
        goal = Not(goal) if driver == "jankov" else goal
        criticals = [Implies(a, at_e) if binder is Eps else Implies(at_e, a) for a in at_ws]
        if oracle_valid(Implies(and_join(criticals), goal), logic) and not oracle_valid(goal, logic):
            return make_judgment(logic, criticals, goal)


# ---------------------------------------------------------------------------
# Shared fixtures


def standard_quantifier_axioms(matrix: Formula, hole: str, witness: Term) -> list[Formula]:
    """all x A(x) -> A(t) and A(t) -> ex x A(x), for shadow checks."""
    return [
        Implies(forall(hole, matrix), subst_var(matrix, hole, witness)),
        Implies(subst_var(matrix, hole, witness), exists(hole, matrix)),
    ]


def instance_formula(inst) -> Formula:
    """The schema instance a semantics.Instance record stands for."""
    return schema(inst.kind, inst.atoms, polarity=inst.polarity)


def recorded(step) -> tuple[Formula, ...]:
    """The formulas of the schema instances an elimination step records."""
    return tuple(map(instance_formula, step.axiom_instances_used))


def recorded_judgment(step):
    """The step's after-judgment with its recorded instances as instances.

    verify_judgment then decides each recorded instance as well, as it does
    any instance given from outside a run.
    """
    return dataclasses.replace(step.after, instances=recorded(step))


_FAMILY_LINE = re.compile(
    r"  instances: (\d+) Bm (eps|tau) chains of (\d+) links, through each word of length (\d+)"
    r"(?: and from (.+) through each word of length (\d+))?"
)


def _split_top(text: str) -> list[str]:
    """The ", "-separated parts of text outside every parenthesis."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if depth == 0 and text.startswith(", ", i):
            parts.append(text[start:i])
            start = i + 2
    return parts + [text[start:]]


def chain_family(step, line: str) -> tuple[int, list]:
    """The count that a text trace's ``instances:`` line states, and the
    chains it describes, rebuilt from the step's target e, the contexts of
    its removed criticals, and the links m and the first atoms of the line.

    The contexts are the witnesses at e that contain e, sorted by their
    canonical text; a word (i, ...) applied to e is context i with e
    replaced by the rest of the word applied to e.  The chains run through
    A(w e), A(w[1:] e), ..., A(e) for each word w of length m, in
    lexicographic order, then from each first atom a through each word of
    length m - 1 (a word's chains together); a repeated chain is dropped.
    """
    match = _FAMILY_LINE.fullmatch(line)
    assert match, line
    count, polarity, links, length, firsts, shorter = match.groups()
    m = int(links)
    assert int(length) == m and (shorter is None or int(shorter) == m - 1), line
    e = step.target
    witnesses = {r.witness for f in step.eliminated for r in recognize_critical(f) if r.critical_term == e}
    contexts = sorted((w for w in witnesses if e in _all_terms(w)), key=canonical_text)

    @functools.cache
    def applied(word: tuple[int, ...]) -> Term:
        return subst_term(contexts[word[0]], e, applied(word[1:])) if word else e

    def path(word: tuple[int, ...]) -> list[Formula]:
        return [instantiate(e.body, applied(word[i:])) for i in range(len(word) + 1)]

    def words(n: int):
        return itertools.product(range(len(contexts)), repeat=n)

    atoms = [parse_formula(a) for a in _split_top(firsts)] if firsts else []
    chains = [path(w) for w in words(m)] + [[a, *path(w)] for w in words(m - 1) for a in atoms]
    return int(count), list(dict.fromkeys(Instance("Bm", polarity, tuple(c)) for c in chains))


# ---------------------------------------------------------------------------
# Reference readings and subordinates, by the direct algorithms


def solved_readings(phi: Formula) -> list[CriticalFormula]:
    """recognize_critical by instantiating each body at its term, comparing
    that with the fixed side, then solving the other side for the witness."""
    if not isinstance(phi, Implies):
        return []
    readings = []
    for e in etau_subterms(phi):
        fixed, solved = (phi.right, phi.left) if isinstance(e, Eps) else (phi.left, phi.right)
        if instantiate(e.body, e) != fixed:
            continue
        m = match_holes(instantiate(e.body, Var("?hole")), solved, {"?hole"})
        if m:
            readings.append(CriticalFormula(e, m["?hole"]))
    readings.sort(key=lambda c: (c.kind, canonical_text(c.critical_term), canonical_text(c.witness)))
    return list(dedup(readings))


def has_ref(node, level: int) -> bool:
    """Does node hold a bound index pointing ``level`` binders above it?"""
    stack = [(node, level)]
    while stack:
        n, lvl = stack.pop()
        if isinstance(n, Bound):
            if n.index == lvl:
                return True
        elif not locally_closed(n, lvl):
            inner = lvl + 1 if isinstance(n, BINDERS) else lvl
            stack += [(k, inner) for k in n._kids()]
    return False


def walked_subordinates(e: Term) -> list[Term]:
    """The epsilon/tau nodes of e's body that use e's variable, found by a
    has_ref walk from each of them, in pre-order."""
    out: list[Term] = []
    stack = [(e.body, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, BINDER_TERMS) and has_ref(node, depth) and node not in out:
            out.append(node)
        inner = depth + 1 if isinstance(node, BINDERS) else depth
        stack += [(k, inner) for k in reversed(node._kids())]
    return out


def walked_rank(e: Term, memo: dict | None = None) -> int:
    """rank(e) over walked_subordinates, each distinct term ranked once."""
    memo = {} if memo is None else memo
    if e not in memo:
        memo[e] = 1 + max((walked_rank(u, memo) for u in walked_subordinates(e)), default=0)
    return memo[e]


def dependent_tower(d: int) -> str:
    """eps x1. A(x1, eps x2. A(x1, x2, ...)), d terms deep: every inner term
    uses every outer variable, so the rank is d and the degree 1."""
    xs = [f"x{i}" for i in range(1, d + 1)]
    text = ""
    for j in range(d, 0, -1):
        text = f"eps x{j}. A({', '.join(xs[:j] + ([text] if text else []))})"
    return text


# ---------------------------------------------------------------------------
# Reference prover: the G4ip search picking its left rule by structural match


def matched_prove(premises: Iterable[Formula], goal: Formula) -> tuple[bool, int]:
    """prove_H by a match statement per premise, one scan for an invertible
    left rule and another for the (c -> d) -> b branch points: the answer and
    the number of sequents the search visited.  It reads the premises and
    goal through semantics._norm, so that it searches the same sequents."""
    memo: dict = {}
    calls = 0

    def prove(gamma: frozenset, goal: Formula) -> bool:
        nonlocal calls
        calls += 1
        if BOT in gamma or goal == TOP or goal in gamma:
            return True
        key = (gamma, goal)
        result = memo.get(key)
        if result is not None:
            return result
        for f in gamma:
            match f:
                case Top() | Implies(Bot(), _):
                    result = prove(gamma - {f}, goal)
                case And(a, b):
                    result = prove(gamma - {f} | {a, b}, goal)
                case Or():
                    rest = gamma - {f}
                    result = all(prove(rest | {d}, goal) for d in or_spine(f))
                case Implies(Top(), b):
                    result = prove(gamma - {f} | {b}, goal)
                case Implies(And(c, d), b):
                    result = prove(gamma - {f} | {Implies(c, Implies(d, b))}, goal)
                case Implies(Or() as c, b):
                    result = prove(gamma - {f} | {Implies(d, b) for d in or_spine(c)}, goal)
                case Implies(Atom() as p, b) if p in gamma:
                    result = prove(gamma - {f} | {b}, goal)
                case _:
                    continue
            break
        else:
            match goal:
                case And(a, b):
                    result = prove(gamma, a) and prove(gamma, b)
                case Implies(a, b):
                    result = prove(gamma | {a}, b)
                case _:
                    result = isinstance(goal, Or) and any(prove(gamma, d) for d in or_spine(goal))
                    for f in gamma:
                        if result:
                            break
                        match f:
                            case Implies(Implies(c, d), b):
                                rest = gamma - {f}
                                result = prove(rest | {Implies(d, b)}, Implies(c, d)) and prove(
                                    rest | {b}, goal
                                )
        memo[key] = result
        return result

    with sharing():
        answer = prove(frozenset(_norm(p) for p in premises), _norm(goal))
    return answer, calls


# ---------------------------------------------------------------------------
# Reference printer: every node through the work stack


def stack_fmt(obj, canonical: bool, memo: dict, avoid: Iterable[str] = (), holes: dict | None = None):
    """syntax._fmt's contract, every node rendered through the explicit work
    stack: a term or atom outside every binder is kept in ``memo`` by node
    id once its pieces are joined, and no node is composed from its parts'
    texts in one step."""
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
            lefts = []
            while type(node) is cls:
                lefts.append(node.left)
                node = node.right
            work.append((node, mine))
            for left in reversed(lefts):
                work += (sep, (left, mine + 1))
        elif isinstance(node, BINDERS):
            name = f"?{len(env)}" if canonical else fresh(node.hint, avoid)
            out.append(f"{_KEYWORD[cls]} {name}. ")
            env.append(name)
            work += (_LEAVE, (node.body, _PREC_IMP))
        else:
            raise SortError(f"not a term or formula: {node!r}")
    if holes is None:
        return "".join(out)
    return tuple(p for cls, run in itertools.groupby(out, type) for p in (["".join(run)] if cls is str else run))


# ---------------------------------------------------------------------------
# Reference node facts: the plain formulas over the children


def node_facts(node) -> tuple[int, frozenset, int]:
    """(hash, free variables, info) that the constructors store on node, from
    its children by the plain formulas: the hash of (label, args), (left,
    right) or (child,), each child hashed through its __hash__, and one fold
    of the children's free variables and flags, which a binder takes past
    itself with its own flag and one escape level fewer."""
    cls, kids = type(node), node._kids()
    if cls is Var:
        return hash((node.name,)), frozenset((node.name,)), 0
    if cls is Bound:
        return hash((node.index,)), frozenset(), (node.index + 1) << 2
    if cls is Top or cls is Bot:
        return hash(()), frozenset(), 0
    if cls is App or cls is Atom:
        h = hash((node._label(), node.args))
    else:
        h = hash(kids)
    fv, info = frozenset(), 0
    for k in kids:
        fv |= k._fv
        info = max(info, k._info) | ((info | k._info) & 3)
    if isinstance(node, BINDERS):
        flag = _ETAU if isinstance(node, BINDER_TERMS) else _QUANT
        info = max((info >> 2) - 1, 0) << 2 | (info & 3) | flag
    return h, fv, info


def chain_witness_judgment():
    """Goal V from premises {U, U -> V}, where both premises read as critical
    formulas and one witness feeds the other term's matrix."""
    from epsitau.parser import parse_formula as pf

    u = pf("P(f(eps x. P(x))) -> P(eps x. P(x))")
    v = pf("P(f(eps z. P(f(z)) -> P(z))) -> P(eps z. P(f(z)) -> P(z))")
    return make_judgment(CLASSICAL, [u, Implies(u, v)], v)


def lc3_worked_judgment(goal=None):
    """The four-critical judgment C_s, C_t (impredicative), C_u, C_v (predicative).

    The default goal A(u) -> A(e) equals C_u, so the judgment verifies on the
    3-valued backend.
    """
    from epsitau.judgments import lcm
    from epsitau.parser import parse_formula as pf

    cs = pf("A(s(eps x. A(x))) -> A(eps x. A(x))")
    ct = pf("A(t(eps x. A(x))) -> A(eps x. A(x))")
    cu = pf("A(u) -> A(eps x. A(x))")
    cv = pf("A(v) -> A(eps x. A(x))")
    return make_judgment(lcm(3), [cs, ct, cu, cv], goal if goal is not None else cu)


def weak_lin_negative_judgment():
    """Two mutually entangled predicative criticals whose elimination in either
    order leaves an impredicative residue."""
    from epsitau.judgments import LC
    from epsitau.parser import parse_formula as pf

    c1 = pf("A(f(eps y. B(y))) -> A(eps x. A(x))")
    c2 = pf("B(g(eps x. A(x))) -> B(eps y. B(y))")
    return make_judgment(LC, [c1, c2], And(c1, c2))


def grid_judgment(logic: str, k: int):
    """The benchmark grid's judgment: k impredicative contexts s1..sk and two
    predicative witnesses u1, u2 for e = eps x. A(x), goal A(u1) -> A(e)."""
    from epsitau.judgments import load_judgment

    e = "eps x. A(x)"
    lines = [f"logic: {logic}"]
    lines += [f"critical: A(s{i}({e})) -> A({e})" for i in range(1, k + 1)]
    lines += [f"critical: A(u{i}) -> A({e})" for i in (1, 2)]
    lines.append(f"goal: A(u1) -> A({e})")
    return load_judgment("\n".join(lines) + "\n")


def dump_judgment(j: Judgment) -> str:
    """The judgment file that load_judgment reads back as j."""
    lines = [f"logic: {j.logic}"]
    lines += [f"critical: {to_text(c)}" for c in j.criticals]
    lines += [f"instance: {to_text(i)}" for i in j.instances]
    lines.append(f"goal: {to_text(j.goal)}")
    return "\n".join(lines) + "\n"
