"""Spans around calls into epsitau's layers, recorded from outside ``src/``.

``install()`` replaces functions with timing wrappers on the names their
callers look up (``epsitau.eliminate.subst_term`` is the name eliminate.py
calls, ``epsitau.syntax.subst_term`` is not wrapped).  A name that no longer
exists is skipped, and the metrics that depend only on it are left out.

Each span is ``[name, start, end, parent]``; spans stay in memory until
``summary()``.  A span's self time is its duration minus the time its
child spans cover.  Bookkeeping that the wrappers do themselves runs inside
``hook`` spans, so it is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

ELIM_STEP_FUNCTIONS = (
    "eliminate_complete_classical",
    "eliminate_impredicative_Bm",
    "eliminate_predicative_lin",
    "eliminate_negated_jankov",
    "eliminate_single_classical",
)

# (module, attribute, span name); a callable span name picks per call.
TARGETS = [
    ("epsitau.cli", "main", "cli"),
    ("epsitau.cli", "parse_formula", "parser"),
    ("epsitau.cli", "parse_term", "parser"),
    ("epsitau.parser", "parse_formula", "parser"),
    ("epsitau.parser", "parse_term", "parser"),
    ("epsitau.cli", "load_judgment", "judgments"),
    ("epsitau.judgments", "make_judgment", "judgments"),
    ("epsitau.eliminate", "make_judgment", "judgments"),
    ("epsitau.cli", "et_translate", "translate"),
    ("epsitau.cli", "herbrand_form", "translate"),
    ("epsitau.cli", "shadow", "translate"),
    ("epsitau.cli", "recognize_critical", "critical.recognize"),
    ("epsitau.eliminate", "recognize_critical", "critical.recognize"),
    ("epsitau.cli", "rank", "critical.rank_degree"),
    ("epsitau.cli", "degree", "critical.rank_degree"),
    ("epsitau.eliminate", "rank", "critical.rank_degree"),
    ("epsitau.eliminate", "degree", "critical.rank_degree"),
    ("epsitau.eliminate", "select_max", "critical.rank_degree"),
    ("epsitau.critical", "rank", "critical.rank_degree"),
    ("epsitau.critical", "degree", "critical.rank_degree"),
    ("epsitau.critical", "select_max", "critical.rank_degree"),
    *[("epsitau.eliminate", name, "eliminate") for name in (
        "run_elimination", "run_weak_lin", "judgment_readings", "judgment_critical_terms",
        "judgment_measure", "eliminate_complete_Gm", "reconstruct_from_herbrand",
        "trace_to_json", *ELIM_STEP_FUNCTIONS)],
    ("epsitau.eliminate", "subst_term", "syntax.subst"),
    ("epsitau.eliminate", "dedup", "syntax.dedup"),
    ("epsitau.judgments", "dedup", "syntax.dedup"),
    ("epsitau.cli", "to_text", "syntax.to_text"),
    ("epsitau.eliminate", "to_text", "syntax.to_text"),
    ("epsitau.semantics", "verify_judgment",
     lambda j, *a, **k: "semantics.prove"
     if getattr(getattr(j, "logic", None), "kind", None) in ("kc", "h") else "semantics.chain"),
    ("epsitau.semantics", "valid_in_LCm", "semantics.chain"),
    ("epsitau.semantics", "prove_H", "semantics.prove"),
]


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        while self.stack and self.stack.pop() != idx:
            pass

    def reset_stack(self) -> None:
        """Close spans left open by a case that was cut off."""
        now = perf_counter()
        for idx in self.stack:
            self.spans[idx][2] = now
        self.stack.clear()

    def outermost(self, name: str) -> bool:
        """Is the innermost open span (the one being closed) entered from another layer?"""
        parent = self.spans[self.stack[-1]][3] if self.stack else -1
        return parent < 0 or self.spans[parent][0] != name

    def summary(self) -> dict[str, dict[str, float]]:
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for idx, (name, start, end, parent) in enumerate(self.spans):
            out[name]["self_s"] += end - start - child_time[idx]
            if parent < 0 or self.spans[parent][0] != name:
                out[name]["calls"] += 1
        return dict(out)


def install(rec: Recorder) -> None:
    for module_name, attr, span in TARGETS:
        module = importlib.import_module(module_name)
        orig = getattr(module, attr, None)
        if orig is None:
            continue
        before, after = _hooks(rec, module_name, attr)
        setattr(module, attr, _wrap(rec, orig, span, before, after))
        if isinstance(span, str):
            rec.installed.add(span)
        else:
            rec.installed.update(("semantics.chain", "semantics.prove"))


def _wrap(rec, orig, span, before, after):
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        name = span if isinstance(span, str) else span(*args, **kwargs)
        if before is not None:
            _in_hook(rec, before, name, args)
        idx = rec.open(name)
        try:
            result = orig(*args, **kwargs)
        except BaseException as ex:
            outer = rec.outermost(name)
            rec.close(idx)
            if outer:
                _note_error(rec, name, ex)
            raise
        rec.close(idx)
        if after is not None:
            _in_hook(rec, after, name, result)
        return result

    return wrapper


def _in_hook(rec, fn, name, value) -> None:
    idx = rec.open("hook")
    try:
        fn(name, value)
    except (AttributeError, TypeError, ValueError):
        pass  # a changed signature leaves the count out, not the run
    finally:
        rec.close(idx)


def _note_error(rec, name: str, ex: BaseException) -> None:
    kind = type(ex).__name__
    if kind == "CaseTimeout":
        return
    if name == "semantics.chain" and kind == "BudgetExceededError":
        rec.counts["semantics.budget_exceeded"] += 1
    elif name == "eliminate" and kind != "BudgetExceededError":
        rec.counts["eliminate.errors"] += 1


def _hooks(rec, module_name: str, attr: str):
    """(before, after) callbacks that count work at this boundary."""
    counts = rec.counts
    if module_name == "epsitau.eliminate" and attr in ELIM_STEP_FUNCTIONS:
        from epsitau.syntax import or_spine

        def after(_, step):
            counts["eliminate.steps"] += 1
            counts["eliminate.set_terms"] += len(step.elimination_set)
            counts["eliminate.instances"] += len(step.axiom_instances_used)
            counts["eliminate.disjuncts_raw"] += step.raw_disjunct_count
            counts["eliminate.disjuncts_kept"] += len(or_spine(step.after.goal))

        return None, after
    if attr == "dedup":
        def before(_, args):
            if isinstance(args[0], (list, tuple)):
                counts["syntax.dedup_items"] += len(args[0])

        return before, None
    if attr == "to_text":
        def after(_, text):
            counts["syntax.to_text_chars"] += len(text)

        return None, after
    if module_name == "epsitau.semantics" and attr in ("verify_judgment", "valid_in_LCm"):
        from epsitau import semantics

        def before(name, args):
            if name != "semantics.chain":
                return
            if attr == "valid_in_LCm":
                n = len(semantics.prop_atoms(args[0]))
            else:
                j = args[0]
                n = len(semantics.abstract_atoms([*j.criticals, *j.instances, j.goal])[1])
            counts["semantics.chain_query_atoms_max"] = max(
                counts["semantics.chain_query_atoms_max"], n)

        return before, None
    return None, None


LAYER_METRICS = {
    # metric: (span, field) for times and calls, or (span, counter) for counts
    "cli.self_s": ("cli", "self_s"),
    "parser.s": ("parser", "self_s"),
    "parser.calls": ("parser", "calls"),
    "judgments.s": ("judgments", "self_s"),
    "translate.s": ("translate", "self_s"),
    "translate.calls": ("translate", "calls"),
    "critical.recognize_s": ("critical.recognize", "self_s"),
    "critical.recognize_calls": ("critical.recognize", "calls"),
    "critical.rank_degree_s": ("critical.rank_degree", "self_s"),
    "critical.rank_degree_calls": ("critical.rank_degree", "calls"),
    "eliminate.self_s": ("eliminate", "self_s"),
    "eliminate.steps": ("eliminate", "eliminate.steps"),
    "eliminate.set_terms": ("eliminate", "eliminate.set_terms"),
    "eliminate.instances": ("eliminate", "eliminate.instances"),
    "eliminate.disjuncts_raw": ("eliminate", "eliminate.disjuncts_raw"),
    "eliminate.disjuncts_kept": ("eliminate", "eliminate.disjuncts_kept"),
    "eliminate.errors": ("eliminate", "eliminate.errors"),
    "syntax.subst_s": ("syntax.subst", "self_s"),
    "syntax.subst_calls": ("syntax.subst", "calls"),
    "syntax.dedup_s": ("syntax.dedup", "self_s"),
    "syntax.dedup_items": ("syntax.dedup", "syntax.dedup_items"),
    "syntax.to_text_s": ("syntax.to_text", "self_s"),
    "syntax.to_text_chars": ("syntax.to_text", "syntax.to_text_chars"),
    "semantics.chain_s": ("semantics.chain", "self_s"),
    "semantics.chain_queries": ("semantics.chain", "calls"),
    "semantics.chain_query_atoms_max": ("semantics.chain", "semantics.chain_query_atoms_max"),
    "semantics.budget_exceeded": ("semantics.chain", "semantics.budget_exceeded"),
    "semantics.prove_s": ("semantics.prove", "self_s"),
    "semantics.prove_calls": ("semantics.prove", "calls"),
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer values for every layer whose names were found."""
    spans = rec.summary()
    out: dict[str, float] = {}
    for metric, (span, field) in LAYER_METRICS.items():
        if span not in rec.installed:
            continue
        if field in ("self_s", "calls"):
            out[metric] = spans.get(span, {}).get(field, 0)
        else:
            out[metric] = rec.counts.get(field, 0)
    if "eliminate" in rec.installed:
        raw = rec.counts.get("eliminate.disjuncts_raw", 0)
        out["eliminate.dedup_keep_ratio"] = rec.counts.get("eliminate.disjuncts_kept", 0) / raw if raw else 0.0
    return out
