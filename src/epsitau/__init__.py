"""Epsilon/tau calculi over intermediate propositional logics."""

from .critical import (
    CriticalFormula,
    degree,
    is_predicative,
    is_weak,
    make_critical,
    nested_subterms,
    rank,
    recognize_critical,
    select_max,
    subordinate_subterms,
)
from .eliminate import (
    EliminationError,
    EliminationStep,
    EliminationTrace,
    FailureReport,
    eliminate_complete_Gm,
    eliminate_complete_classical,
    eliminate_impredicative_Bm,
    eliminate_negated_jankov,
    eliminate_predicative_lin,
    reconstruct_from_herbrand,
    run_elimination,
    trace_to_json,
)
from .judgments import (
    CLASSICAL,
    H,
    KC,
    LC,
    Judgment,
    Logic,
    lcm,
    load_judgment,
    make_judgment,
    parse_logic,
)
from .parser import ParseError, parse_formula, parse_term
from .semantics import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    eval_godel,
    prove_H,
    schema,
    schema_relations_check,
    valid_in_LCm,
    verify_judgment,
)
from .syntax import (
    And,
    App,
    Atom,
    BOT,
    Bot,
    Eps,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TOP,
    Tau,
    Term,
    Top,
    Var,
    canonical_text,
    eps,
    exists,
    forall,
    free_vars,
    occurs,
    subst_term,
    subst_var,
    tau,
    to_text,
)
from .translate import et_translate, herbrand_form, shadow

__version__ = "0.1.0"
