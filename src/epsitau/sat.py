"""A small CDCL SAT solver, standard library only.

Clauses are lists of nonzero ints in DIMACS style: ``v`` asserts variable v,
``-v`` its negation.  The search keeps two watched literals per clause,
learns first-UIP clauses, backjumps to the second-highest level of a learnt
clause and decides on the most active variable (VSIDS) with its saved phase.
Its effort is bounded by a budget on literal assignments, that is decisions
plus propagations, so every check terminates with an answer or an error.
"""

from __future__ import annotations

import heapq

_DECAY = 1 / 0.95
_RESCALE = 1e100


class BudgetExceededError(RuntimeError):
    """A check needed more literal assignments (decisions plus propagations)
    than its budget allows."""


def solve(nvars: int, clauses: list[list[int]], budget: int) -> list[bool] | None:
    """A model indexed by variable (index 0 unused), or None if unsatisfiable.

    The clause lists are consumed: the solver rewrites each in place into
    its own literal codes, so the search never holds two copies of a clause.
    """
    return _Solver(nvars, budget).run(clauses)


class _Solver:
    # Literal codes: variable v true is 2v, false is 2v + 1; negation is ^ 1.

    def __init__(self, nvars: int, budget: int) -> None:
        n = nvars + 1
        self.budget = budget
        self.assigned = 0
        self.val = [0] * (2 * n)  # per literal code: 1 true, -1 false, 0 open
        self.level = [0] * n
        self.reason: list[list[int] | None] = [None] * n
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * n
        self.inc = 1.0
        self.phase = [1] * n  # saved polarity as the low bit of the code
        self.seen = [False] * n
        self.heap = [(0.0, v) for v in range(1, n)]  # (-activity, v); sorted is a heap

    def run(self, clauses: list[list[int]]) -> list[bool] | None:
        val, watches = self.val, self.watches
        n = len(self.level)
        # code[x] is the code of DIMACS literal x (a negative x counts from the
        # end); clauses share these int objects instead of holding their own.
        code = [v + v for v in range(n)] + [1 - x - x for x in range(1 - n, 0)]
        for lits in clauses:
            lits[:] = map(code.__getitem__, lits)
            if len({p >> 1 for p in lits}) < len(lits):
                lits = list(dict.fromkeys(lits))
                if any(p ^ 1 in lits for p in lits):
                    continue  # tautology
            if len(lits) > 1:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif not lits or val[lits[0]] == -1:
                return None
            elif val[lits[0]] == 0:
                self._enqueue(lits[0], None)
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.trail_lim:
                    return None
                learnt, back = self._analyze(confl)
                self._cancel_until(back)
                if len(learnt) > 1:
                    watches[learnt[0]].append(learnt)
                    watches[learnt[1]].append(learnt)
                self._enqueue(learnt[0], learnt)
                self.inc *= _DECAY
                continue
            v = self._pick()
            if not v:
                return [val[2 * u] == 1 for u in range(len(self.level))]
            self.trail_lim.append(len(self.trail))
            self._enqueue(2 * v + self.phase[v], None)

    def _enqueue(self, p: int, reason: list[int] | None) -> None:
        v = p >> 1
        self.val[p] = 1
        self.val[p ^ 1] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(p)
        self._charge(1)

    def _charge(self, k: int) -> None:
        self.assigned += k
        if self.assigned > self.budget:
            raise BudgetExceededError(
                f"the check needs more than {self.budget} literal assignments"
                " (decisions plus propagations)"
            )

    def _propagate(self) -> list[int] | None:
        val, watches, trail = self.val, self.watches, self.trail
        level, reason = self.level, self.reason
        lvl = len(self.trail_lim)
        qhead = self.qhead
        implied = 0
        confl = None
        while qhead < len(trail) and confl is None:
            false_lit = trail[qhead] ^ 1
            qhead += 1
            ws = watches[false_lit]
            kept = 0
            i, n = 0, len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if val[first] == 1:
                    ws[kept] = c
                    kept += 1
                    continue
                for k in range(2, len(c)):
                    q = c[k]
                    if val[q] != -1:
                        c[1], c[k] = q, false_lit
                        watches[q].append(c)
                        break
                else:
                    ws[kept] = c
                    kept += 1
                    if val[first] == -1:
                        confl = c
                        ws[kept : kept + n - i] = ws[i:n]
                        kept += n - i
                        break
                    val[first] = 1
                    val[first ^ 1] = -1
                    level[first >> 1] = lvl
                    reason[first >> 1] = c
                    trail.append(first)
                    implied += 1
            del ws[kept:]
        self.qhead = len(trail) if confl is not None else qhead
        self._charge(implied)
        return confl

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP learnt clause (asserting literal first) and its backjump level."""
        seen, level, trail = self.seen, self.level, self.trail
        lvl = len(self.trail_lim)
        learnt = [0]
        pending = 0
        idx = len(trail) - 1
        lits = confl
        while True:
            for q in lits:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] == lvl:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[p >> 1] = False
            pending -= 1
            if not pending:
                break
            lits = self.reason[p >> 1][1:]  # type: ignore[index]
        learnt[0] = p ^ 1
        for q in learnt[1:]:
            seen[q >> 1] = False
        if len(learnt) == 1:
            return learnt, 0
        top = max(range(1, len(learnt)), key=lambda i: level[learnt[i] >> 1])
        learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _bump(self, v: int) -> None:
        act = self.activity
        act[v] += self.inc
        if act[v] > _RESCALE:
            for u in range(len(act)):
                act[u] /= _RESCALE
            self.inc /= _RESCALE
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        val, act = self.val, self.activity
        self.heap = [(-act[v], v) for v in range(1, len(act)) if not val[2 * v]]
        heapq.heapify(self.heap)

    def _cancel_until(self, lvl: int) -> None:
        val, reason, phase, act, heap = self.val, self.reason, self.phase, self.activity, self.heap
        start = self.trail_lim[lvl]
        for p in self.trail[start:]:
            v = p >> 1
            val[p] = val[p ^ 1] = 0
            reason[v] = None
            phase[v] = p & 1
            heapq.heappush(heap, (-act[v], v))
        del self.trail[start:]
        del self.trail_lim[lvl:]
        self.qhead = start
        if len(heap) > 4 * len(act):  # entries of assigned variables pile up
            self._rebuild_heap()

    def _pick(self) -> int:
        """The most active open variable, or 0 when every variable is assigned."""
        heap, val = self.heap, self.val
        while heap:
            v = heapq.heappop(heap)[1]
            if not val[2 * v]:
                return v
        return 0
