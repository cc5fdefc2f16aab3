"""Critical-formula elimination: single steps, drivers, and reconstructions.

Each elimination replaces one epsilon/tau term by a set of terms, disjoining
the goal over the set and substituting through the remaining premises, at
the cost of recording instances of the logic's characteristic schema.  The
step keeps them as semantics.Instance records, certified by their schema
table row (a chain step's as a ChainFamily, built only when listed); the
judgment after it has none.  The driver takes terms of maximal degree
among those of maximal rank first, so the (rank, degree, count) measure
decreases and the process stops.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import semantics
from .critical import (
    CriticalFormula,
    degree,
    is_predicative,
    make_critical,
    rank,
    recognize_critical,
    select_max,
)
from .judgments import LC, Judgment, Logic, make_judgment
from .syntax import (
    App,
    Eps,
    Formula,
    Not,
    Record,
    Term,
    Var,
    canonical_text,
    contains_etau,
    dedup,
    eps,
    etau_subterms,
    free_vars,
    fresh,
    fresh_numbered,
    instantiate,
    interned,
    match_holes,
    names,
    or_join,
    or_spine,
    sharing,
    subst_each,
    subst_term,
    subst_var,
    to_text,
)

__all__ = [
    "DRIVERS",
    "ChainFamily",
    "EliminationError",
    "EliminationStep",
    "EliminationTrace",
    "FailureReport",
    "eliminate_complete_Gm",
    "eliminate_complete_classical",
    "eliminate_impredicative_Bm",
    "eliminate_negated_jankov",
    "eliminate_predicative_lin",
    "judgment_measure",
    "reconstruct_from_herbrand",
    "run_elimination",
    "trace_to_json",
]


class EliminationError(RuntimeError):
    pass


class EliminationStep(Record):
    __slots__ = _fields = (
        "target", "eliminated", "elimination_set", "axiom_instances_used", "after", "raw_disjunct_count"
    )

    def __init__(
        self, target: Term, eliminated: tuple[Formula, ...], elimination_set: tuple[Term, ...],
        axiom_instances_used: Sequence[semantics.Instance], after: Judgment, raw_disjunct_count: int,
    ) -> None:
        self.target, self.eliminated, self.elimination_set = target, eliminated, elimination_set
        self.axiom_instances_used = axiom_instances_used  # a tuple, or a Bm step's ChainFamily
        self.after, self.raw_disjunct_count = after, raw_disjunct_count


class EliminationTrace(Record):
    __slots__ = _fields = ("steps", "result", "grounding")

    def __init__(
        self, steps: tuple[EliminationStep, ...], result: Formula, grounding: tuple[tuple[Term, str], ...]
    ) -> None:
        self.steps, self.result, self.grounding = steps, result, grounding

    @property
    def result_is_last_goal(self) -> bool:  # _finish kept the last step's goal: both print alike
        return bool(self.steps) and self.result is self.steps[-1].after.goal


class FailureReport(Record):
    __slots__ = _fields = ("step_index", "target", "formula", "reason")

    def __init__(self, step_index: int, target: Term, formula: Formula, reason: str) -> None:
        self.step_index, self.target, self.formula, self.reason = step_index, target, formula, reason

    def __str__(self) -> str:
        return (
            f"step {self.step_index}: cannot eliminate {to_text(self.target)}: "
            f"{self.reason}: {to_text(self.formula)}"
        )


# ---------------------------------------------------------------------------
# Reading bookkeeping


def judgment_readings(j: Judgment) -> dict[Term, list[tuple[Formula, CriticalFormula]]]:
    """Critical terms of the judgment, with the formulas and readings per term.

    Premises without any reading are substitution residues; they stay in the
    criticals bucket but never drive an elimination.  The index is built on
    first use and kept, shared and unchanged, on the judgment, so each
    judgment is read once.
    """
    if j.reading_index is None:
        out: dict[Term, list[tuple[Formula, CriticalFormula]]] = {}
        for f in j.criticals:
            for r in recognize_critical(f):
                out.setdefault(r.critical_term, []).append((f, r))
        j.reading_index = out
    return j.reading_index


def judgment_measure(terms: Sequence[Term]) -> tuple[int, int, int]:
    """(max rank, max degree among max-rank terms, count of those) for the driver."""
    if not terms:
        return (0, 0, 0)
    mr = max(rank(t) for t in terms)
    top_rank = [t for t in terms if rank(t) == mr]
    md = max(degree(t) for t in top_rank)
    cnt = sum(1 for t in top_rank if degree(t) == md)
    return (mr, md, cnt)


def _expand(goal: Formula, e: Term, terms: Sequence[Term]) -> tuple[Formula, int]:
    """The goal's disjuncts with e replaced by each term in turn, deduplicated and
    joined, and their count before dedup.  No disjunct is an Or, nor becomes one."""
    parts = [p for ps in subst_each(or_spine(goal), e, terms) for p in ps]
    return or_join(dedup(parts)), len(parts)


def _witnesses(pairs: list[tuple[Formula, CriticalFormula]]) -> list[Term]:
    return list(dedup([r.witness for _, r in pairs]))


def _impredicative(pairs: list[tuple[Formula, CriticalFormula]]) -> list[Formula]:
    return [f for f, r in pairs if not is_predicative(r)]


def _step(
    j: Judgment,
    e: Term,
    kind: str,
    refusal: str,
    schema: Callable[[list[Term], list[Formula]], tuple[Sequence[Term], list[list[Formula]] | ChainFamily]],
    take: Callable[[CriticalFormula], bool] = lambda r: True,
) -> EliminationStep:
    """The elimination skeleton every step constructor is built on.

    The readings at e are split into those to eliminate (``take``) and those
    kept as premises unchanged; an e with nothing to eliminate is rejected.
    ``schema`` maps the witnesses w of the eliminated readings and their
    atoms A(w) to the elimination set and the atom lists of the instances to
    record, each as semantics.Instance(kind, polarity, atoms) with e's
    polarity, or a chain step's ChainFamily.  They are certified by the row
    semantics.proves(logic, kind, arity) of the schema table, the family by
    its links m; a logic the row refuses raises ValueError(refusal).  The
    goal is disjoined over the set, and the premises that are not readings
    at e are substituted across it.
    """
    readings = judgment_readings(j).get(e, [])
    taken = [(f, r) for f, r in readings if take(r)]
    if not taken:
        raise ValueError(f"no critical formulas of {to_text(e)} to eliminate")
    ws = _witnesses(taken)
    elim_set, recorded = schema(ws, [instantiate(e.body, w) for w in ws])
    if isinstance(recorded, ChainFamily):
        instances, arities = recorded, {recorded.m}
    else:
        polarity = "eps" if isinstance(e, Eps) else "tau"
        instances = dedup(semantics.Instance(kind, polarity, tuple(xs)) for xs in recorded)
        arities = {i.arity for i in instances}
    if not all(semantics.proves(j.logic, kind, n) for n in arities):
        raise ValueError(refusal)
    at_e = {f for f, _ in readings}
    rest = [f for f in j.criticals if f not in at_e]
    kept = [f for f, r in readings if not take(r)]
    goal, raw = _expand(j.goal, e, elim_set)
    criticals = dedup([f for fs in subst_each(rest, e, elim_set) for f in fs] + kept)
    return EliminationStep(
        target=e,
        eliminated=tuple(f for f, _ in taken),
        elimination_set=tuple(elim_set),
        axiom_instances_used=instances,
        after=Judgment(j.logic, criticals, (), goal),
        raw_disjunct_count=raw,
    )


# ---------------------------------------------------------------------------
# Elimination set constructions


def eliminate_complete_classical(j: Judgment, e: Term) -> EliminationStep:
    """Remove all critical formulas of e at once; at most k+1 goal disjuncts."""
    refusal = "complete classical elimination needs classical logic"
    return _step(j, e, "EM", refusal, lambda ws, pos: (dedup([e] + ws), [pos]))


def eliminate_negated_jankov(j: Judgment, e: Term) -> EliminationStep:
    """Complete elimination for a negated goal, from weak excluded middle."""
    if not isinstance(j.goal, Not):
        raise ValueError("the goal must be a negation")
    refusal = f"logic {j.logic} does not prove weak excluded middle"
    return _step(j, e, "J", refusal, lambda ws, pos: (dedup([e] + ws), [pos]))


def eliminate_predicative_lin(j: Judgment, e: Term) -> EliminationStep:
    """Eliminate a term with only predicative critical formulas, using linearity.

    The elimination set is exactly the witness list; the recorded instance is
    the valid disjunction over j of the conjunctions of A(u_i) -> A(u_j).
    """
    bad = _impredicative(judgment_readings(j).get(e, []))
    if bad:
        raise ValueError(f"impredicative critical formula for {to_text(e)}: {to_text(bad[0])}")
    refusal = f"logic {j.logic} does not prove linearity"
    return _step(j, e, "bigdisj", refusal, lambda ws, pos: (ws, [pos]))


def _words(e: Term, contexts: Sequence[Term], n: int) -> dict[tuple[int, ...], Term]:
    """Every word of length <= n over the contexts, applied to e.

    A word is a tuple of indices into contexts.  Its term is its first
    context applied to its suffix's term, so each is built once.  The words
    come in order of length, then lexicographically.
    """
    terms: dict[tuple[int, ...], Term] = {(): e}
    for length in range(1, n + 1):
        suffixes = [x for x in terms if len(x) == length - 1]  # the previous length's words, in order
        for i, context in enumerate(contexts):
            applied = subst_each((context,), e, [terms[x] for x in suffixes])
            terms.update(((i, *x), t) for x, [t] in zip(suffixes, applied))
    return terms


def _word_paths(words: dict[tuple[int, ...], Formula], length: int) -> list[list[Formula]]:
    """For each word w of the given length, the values at w, w[1:], ..., ()."""
    return [
        [words[w[i:]] for i in range(length + 1)] for w in words if len(w) == length
    ]


class ChainFamily(Record, Sequence[semantics.Instance]):
    """A chain step's m-link chains, built once, when first iterated or indexed.

    In _words' order, the chain A(w e), ..., A(e) through each word w of length
    m over the k contexts, then through each word of length m - 1, one from
    each first atom.  None repeats (README, Text trace): k^m + |firsts| k^(m-1).
    """

    _fields = ("e", "contexts", "m", "firsts", "polarity")
    __slots__ = (*_fields, "chains")

    def __init__(
        self, e: Term, contexts: tuple[Term, ...], m: int, firsts: tuple[Formula, ...], polarity: str
    ) -> None:
        self.e, self.contexts, self.m, self.firsts, self.polarity = e, contexts, m, firsts, polarity
        self.chains: tuple[semantics.Instance, ...] | None = None  # not part of equality or hashing

    def __len__(self) -> int:
        k = len(self.contexts)
        return k**self.m + len(self.firsts) * k ** (self.m - 1)

    def __getitem__(self, i):  # Sequence iterates by index
        if self.chains is None:
            self.chains = self._expand()
        return self.chains[i]

    def _expand(self) -> tuple[semantics.Instance, ...]:
        e, m = self.e, self.m
        with sharing():
            words = _words(e, self.contexts, m)
            h = Var(fresh("h", names(e)))  # A(w e) for each word w is A(h) at the locally closed w e
            atoms = {w: a for w, [a] in zip(words, subst_each((instantiate(e.body, h),), h, words.values()))}
            paths = _word_paths(atoms, m) + [[a] + p for p in _word_paths(atoms, m - 1) for a in self.firsts]
            return dedup(semantics.Instance("Bm", self.polarity, tuple(p)) for p in paths)


def eliminate_impredicative_Bm(j: Judgment, e: Term, m: int) -> EliminationStep:
    """Eliminate the impredicative critical formulas of e using the m-link chains.

    The witnesses' contexts are iterated into words of length < m; the goal
    is disjoined over every word applied to e, the predicative premises
    stay, and the step records, unbuilt, the ChainFamily of the m-link chains
    through the length-m words, and from each predicative A(u) through the
    length-(m-1) words; the row proves(logic, "Bm", m) certifies them all.
    """
    if m < 2:
        raise ValueError("chain elimination needs m >= 2")
    readings = judgment_readings(j).get(e, [])
    pred_ws = _witnesses([(f, r) for f, r in readings if is_predicative(r)])
    firsts = tuple(instantiate(e.body, u) for u in pred_ws)

    def schema(ws, pos):
        contexts = tuple(sorted(ws, key=canonical_text))
        polarity = "eps" if isinstance(e, Eps) else "tau"
        return dedup(_words(e, contexts, m - 1).values()), ChainFamily(e, contexts, m, firsts, polarity)

    refusal = f"logic {j.logic} does not prove the {m}-link chain schema"
    return _step(j, e, "Bm", refusal, schema, take=lambda r: not is_predicative(r))


def eliminate_complete_Gm(j: Judgment, e: Term, m: int) -> list[EliminationStep]:
    """Complete elimination of e in an m-valued logic.

    The impredicative premises are expanded through the word chains first;
    the predicative ones are then removed by the linearity construction over
    the expanded goal.  Either phase is skipped when it has nothing to do.
    """
    readings = judgment_readings(j).get(e, [])
    if not readings:
        raise ValueError(f"term is not critical in the judgment: {to_text(e)}")
    has_impred = any(not is_predicative(r) for _, r in readings)
    has_pred = any(is_predicative(r) for _, r in readings)
    steps: list[EliminationStep] = []
    if has_impred:
        steps.append(eliminate_impredicative_Bm(j, e, m))
        j = steps[-1].after
    if has_pred:
        steps.append(eliminate_predicative_lin(j, e))
    return steps


# ---------------------------------------------------------------------------
# Drivers

# The logics each driver accepts; jankov's step checks the logic itself.
DRIVERS = {"hb": ("classical", "lcm"), "weak-lin": ("lc",), "jankov": None}
VERIFY_LEVELS = ("none", "steps", "full")  # what run_elimination checks, see there


def _finish(j: Judgment, steps: list[EliminationStep], taken: set[str]) -> EliminationTrace:
    """The trace, with each alpha-class of residual terms grounded as a fresh constant.

    The constants are the first of c_1, c_2, ... not in ``taken``, the
    input judgment's names: elimination adds no symbols, so they avoid
    every name of the final judgment as well.
    """
    goal = j.goal
    grounding: list[tuple[Term, str]] = []
    while residuals := etau_subterms(goal):
        name = fresh_numbered("c", taken)
        goal = subst_term(goal, residuals[0], App(name, ()))
        grounding.append((residuals[0], name))
    # A step's goal is already its deduplicated disjuncts joined (_expand).
    result = goal if steps and not grounding else or_join(dedup(or_spine(goal)))
    if contains_etau(result):
        raise EliminationError("grounding left an epsilon/tau term behind")
    return EliminationTrace(tuple(steps), result, tuple(grounding))


def run_elimination(
    j: Judgment,
    verify: str = "none",
    budget: int = semantics.DEFAULT_BUDGET,
    *,
    driver: str = "hb",
    first: Term | None = None,
) -> EliminationTrace | FailureReport:
    """The elimination loop of the three drivers.

    Each round selects a critical term of maximal degree among those of
    maximal rank (or ``first``, in the first round, if it is critical):

    - hb, for classical and m-valued logics: the logic's complete
      elimination; the (rank, degree, count) measure must strictly decrease;
    - weak-lin, for lc: the linearity step, or a FailureReport when the
      term has an impredicative critical formula;
    - jankov: one complete step for a negated goal from weak excluded
      middle; the goal after it is the result, left ungrounded.

    Residual terms in an hb or weak-lin result become fresh constants, one
    per alpha-class.  With ``verify`` "steps" semantics.verify_judgment
    checks the input judgment, its instances included, and, after the loop,
    each step's after-judgment, criticals -> goal; "full" checks the result
    too, unless that was the last query (a jankov result may keep criticals:
    no check).  A step's instances are records certified by their schema
    table row (see _step), so none reaches the backend.  A run ending in a
    failure report sends only the input query.  A failed check raises
    EliminationError.  The loop builds its nodes in one sharing scope, and
    the input criticals and goal are rebuilt in it first, so that separately
    parsed copies of a term are one node; no step reads the input instances.
    """
    if verify not in VERIFY_LEVELS:
        raise ValueError(f"unknown verify level {verify!r} (use {', '.join(VERIFY_LEVELS)})")
    if driver not in DRIVERS:
        raise ValueError(f"unknown driver {driver!r} (use {', '.join(DRIVERS)})")
    if DRIVERS[driver] is not None and j.logic.kind not in DRIVERS[driver]:
        raise ValueError(f"the {driver} driver does not handle logic {j.logic}")
    if verify != "none":
        _check_judgment(j, budget, "input judgment")
    given = j
    steps: list[EliminationStep] = []
    with sharing():
        j = Judgment(j.logic, tuple(map(interned, j.criticals)), j.instances, interned(j.goal))
        readings = judgment_readings(j)
        while readings:
            e = first if not steps and first in readings else select_max(list(readings))
            if driver == "weak-lin":
                offending = _impredicative(readings[e])
                if offending:
                    return FailureReport(
                        step_index=len(steps),
                        target=e,
                        formula=offending[0],
                        reason="impredicative critical formula",
                    )
                new_steps = [eliminate_predicative_lin(j, e)]
            elif driver == "jankov":
                new_steps = [eliminate_negated_jankov(j, e)]
            elif j.logic.kind == "classical":
                new_steps = [eliminate_complete_classical(j, e)]
            else:
                new_steps = eliminate_complete_Gm(j, e, j.logic.m)
            steps.extend(new_steps)
            j = new_steps[-1].after
            if driver == "jankov":
                break
            previous, readings = readings, judgment_readings(j)
            if driver == "hb":
                before_measure = judgment_measure(list(previous))
                after_measure = judgment_measure(list(readings))
                if not after_measure < before_measure:
                    raise EliminationError(
                        f"termination measure did not decrease: {before_measure} -> {after_measure}"
                    )
    if verify != "none":
        for st in steps:
            _check_judgment(st.after, budget, f"after eliminating {to_text(st.target)}")
    if driver == "jankov":
        return EliminationTrace(tuple(steps), j.goal, ())
    trace = _finish(j, steps, names(given.goal, *given.criticals, *given.instances))
    if verify == "full" and (j.criticals or j.goal != trace.result):
        _check_judgment(Judgment(j.logic, (), (), trace.result), budget, "final result")
    return trace


def _check_judgment(j: Judgment, budget: int, where: str) -> None:
    """Raise EliminationError, naming where and why, unless j holds in its logic."""
    if not (verdict := semantics.verify_judgment(j, budget)):
        lines, _ = verdict.describe(j.logic)
        raise EliminationError(": ".join([f"verification failed: {where}", *lines]))


# ---------------------------------------------------------------------------
# Reconstruction from a Herbrand disjunction


def reconstruct_from_herbrand(
    disjunction: Formula, skeleton: Formula, holes: Sequence[str]
) -> tuple[Judgment, EliminationTrace]:
    """Build a judgment whose predicative elimination replays the disjunction.

    The epsilon terms are nested innermost-out over the skeleton's variables;
    each disjunct contributes one predicative critical formula per variable.
    Replaying the judgment through the predicative driver reproduces the
    input disjuncts up to deduplication.
    """
    n = len(holes)
    if n == 0:
        raise ValueError("the skeleton needs at least one variable")
    if not all(holes):
        raise ValueError("skeleton variable names must not be empty")
    if len(set(holes)) != n:
        raise ValueError("skeleton variables must be distinct")
    if contains_etau(skeleton):
        raise ValueError(f"the skeleton must be epsilon/tau free: {to_text(skeleton)}")
    disjuncts = or_spine(disjunction)
    tuples: list[tuple[Term, ...]] = []
    for d in disjuncts:
        binding = match_holes(skeleton, d, set(holes))
        if binding is None or set(binding) != set(holes):
            raise ValueError(f"disjunct does not match the skeleton: {to_text(d)}")
        terms = tuple(binding[h] for h in holes)
        if any(contains_etau(t) for t in terms):
            raise ValueError(f"disjunct terms must be epsilon/tau free: {to_text(d)}")
        tuples.append(terms)

    taken = set(free_vars(disjunction)) | set(free_vars(skeleton))
    fresh_holes = [fresh(h, taken) for h in holes]
    # Rename the holes apart first so that hole names occurring free inside
    # the disjunct terms can never be captured by a later substitution.
    renamed = skeleton
    for h, fh in zip(holes, fresh_holes):
        renamed = subst_var(renamed, h, Var(fh))

    def fill(prefix: list[Term]) -> Formula:
        out = renamed
        values = list(prefix)
        while len(values) < n:
            values.append(witness_term(values))
        for fh, v in zip(fresh_holes, values):
            out = subst_var(out, fh, v)
        return out

    def witness_term(prefix: list[Term]) -> Term:
        h = fresh_holes[len(prefix)]
        return eps(h, fill(prefix + [Var(h)]))

    goal = fill([])
    criticals: list[Formula] = []
    readings: list[CriticalFormula] = []
    for terms in tuples:
        for level in range(n - 1, -1, -1):
            prefix = list(terms[:level])
            matrix = fill(prefix + [Var(fresh_holes[level])])
            c = make_critical(matrix, fresh_holes[level], "eps", terms[level])
            readings.append(c)
            criticals.append(c.rendered)

    judgment = make_judgment(LC, criticals, goal)
    outcome = run_elimination(judgment, driver="weak-lin")
    if isinstance(outcome, FailureReport):
        raise EliminationError(f"reconstruction replay failed: {outcome}")
    return judgment, outcome


# ---------------------------------------------------------------------------
# Trace serialization


def trace_to_json(trace: EliminationTrace, logic: Logic) -> str:
    import json  # here, so that a run printing no JSON does not load it

    memo: dict = {}  # one text memo for the document; see syntax.to_text
    doc = {
        "version": 1,
        "logic": str(logic),
        "steps": [
            {
                "target": to_text(st.target, memo),
                "eliminated": [to_text(f, memo) for f in st.eliminated],
                "elimination_set": [to_text(t, memo) for t in st.elimination_set],
                "axiom_instances": [i.text(memo) for i in st.axiom_instances_used],
                "goal_after": to_text(st.after.goal, memo),
            }
            for st in trace.steps
        ],
    }
    last = trace.result_is_last_goal
    doc["result"] = doc["steps"][-1]["goal_after"] if last else to_text(trace.result, memo)
    doc["grounding"] = {to_text(t, memo): name for t, name in trace.grounding}
    return json.dumps(doc, indent=2, sort_keys=True)
