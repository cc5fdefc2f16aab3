import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import epsitau


def test_every_exported_name_exists():
    for info in pkgutil.iter_modules(epsitau.__path__):
        module = importlib.import_module(f"epsitau.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"epsitau.{info.name}.__all__ names missing: {missing}"


# Every public name of the package; a new export is a deliberate edit here.
PUBLIC_NAMES = [
    "And", "App", "Atom", "BOT", "Bot", "BudgetExceededError", "CLASSICAL", "CriticalFormula",
    "DEFAULT_BUDGET", "EliminationError", "EliminationStep", "EliminationTrace", "Eps", "Exists",
    "FailureReport", "Forall", "Formula", "H", "Implies", "Judgment", "KC", "LC", "Logic", "Not",
    "Or", "ParseError", "TOP", "Tau", "Term", "Top", "Var", "canonical_text", "degree",
    "eliminate_complete_Gm", "eliminate_complete_classical", "eliminate_impredicative_Bm",
    "eliminate_negated_jankov", "eliminate_predicative_lin", "eps", "et_translate", "eval_godel",
    "exists", "forall", "free_vars", "herbrand_form", "is_predicative", "is_weak", "lcm",
    "load_judgment", "make_critical", "make_judgment", "nested_subterms", "occurs",
    "parse_formula", "parse_logic", "parse_term", "prove_H", "rank", "recognize_critical",
    "reconstruct_from_herbrand", "run_elimination", "schema", "schema_relations_check",
    "select_max", "shadow", "subordinate_subterms", "subst_term", "subst_var", "tau", "to_text",
    "trace_to_json", "valid_in_LCm", "verify_judgment",
]


def test_public_names_are_the_pinned_list():
    # submodules become attributes of the package as they are imported, so they are not counted
    public = [
        n for n, v in vars(epsitau).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)
    ]
    assert sorted(public) == PUBLIC_NAMES


def test_star_import_of_eliminate():
    namespace: dict = {}
    exec("from epsitau.eliminate import *", namespace)
    assert "run_elimination" in namespace


def test_cli_import_needs_no_numpy():
    src = str(Path(epsitau.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, epsitau.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode == 0
