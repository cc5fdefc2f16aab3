"""The package's records, plain slotted classes equal and hashed by their
fields, and the tokens the tokenizer builds."""

import random

import pytest

from epsitau.critical import recognize_critical
from epsitau.eliminate import ChainFamily, FailureReport, judgment_readings, run_elimination
from epsitau.judgments import LC, Judgment, Logic, lcm
from epsitau.parser import ParseError, _Token, _tokenize, parse_formula as pf
from epsitau.semantics import Instance, Verdict
from epsitau.syntax import dedup

from helpers import grid_judgment, instance_formula, reference_tokens

# The fields each record compares and hashes, as its dataclass did; a
# judgment's reading index and a chain family's built chains are not among them.
COMPARED = {
    "CriticalFormula": ("critical_term", "witness"),
    "EliminationStep": (
        "target", "eliminated", "elimination_set", "axiom_instances_used", "after", "raw_disjunct_count"
    ),
    "EliminationTrace": ("steps", "result", "grounding"),
    "FailureReport": ("step_index", "target", "formula", "reason"),
    "ChainFamily": ("e", "contexts", "m", "firsts", "polarity"),
    "Logic": ("kind", "m"),
    "Judgment": ("logic", "criticals", "instances", "goal"),
    "_Token": ("kind", "value", "pos"),
    "Instance": ("kind", "polarity", "atoms"),
    "Verdict": ("holds", "chain_size", "countervaluation", "instance"),
}


def grid_family(trace) -> ChainFamily:
    families = (st.axiom_instances_used for st in trace.steps)
    return next(f for f in families if isinstance(f, ChainFamily))


def one_of_each():
    trace = run_elimination(grid_judgment("lc4", 2))
    step, family = trace.steps[0], grid_family(trace)
    reading = recognize_critical(pf("A(u) -> A(eps x. A(x))"))[0]
    return [
        reading, step, trace, FailureReport(0, step.target, pf("A(u)"), "no reading"), family, lcm(3),
        step.after, _tokenize("A")[0], family[0], Verdict(False, 2, None, pf("A | ~A")),
    ]


def test_one_of_each_record():
    assert sorted(type(r).__name__ for r in one_of_each()) == sorted(COMPARED)


def test_each_record_hashes_as_the_tuple_of_its_compared_fields():
    for r in one_of_each():
        fields = tuple(getattr(r, name) for name in COMPARED[type(r).__name__])
        assert hash(r) == hash(fields), type(r).__name__
        assert not hasattr(r, "__dict__"), type(r).__name__


def test_records_compare_by_their_fields():
    assert Logic("lc") == LC and hash(Logic("lc")) == hash(LC)
    assert lcm(3) == Logic("lcm", 3) != lcm(4)
    assert Logic("lc") != ("lc", None)
    counter = {"A": 0}
    assert Verdict(False, 2, counter, pf("A")) == Verdict(False, 2, {"A": 0}, pf("A"))
    assert Verdict(False, 2, counter) != Verdict(False, 3, counter)
    assert Verdict(True) == Verdict(True) != Verdict(False)
    assert _Token("ident", "A", 0) == _Token("ident", "A", 0) != _Token("ident", "A", 1)
    assert _Token("J", "eps", ()) != Instance("J", "eps", ())  # records of two classes are never equal


def test_a_verdict_is_true_iff_it_holds():
    assert bool(Verdict(True)) is True
    assert bool(Verdict(False)) is False
    assert bool(Verdict(False, 2, {"A": 0})) is False


def test_a_judgment_compares_and_hashes_without_its_reading_index():
    read, fresh = grid_judgment("lc4", 2), grid_judgment("lc4", 2)
    assert judgment_readings(read) and read.reading_index is not None and fresh.reading_index is None
    assert read == fresh and hash(read) == hash(fresh)
    assert read != Judgment(read.logic, read.criticals, read.instances, read.criticals[0])
    assert repr(read) == repr(fresh) and "reading_index" not in repr(read)


def test_a_chain_family_compares_and_hashes_without_its_chains():
    built = grid_family(run_elimination(grid_judgment("lc4", 2)))
    unbuilt = ChainFamily(built.e, built.contexts, built.m, built.firsts, built.polarity)
    assert len(list(built)) == len(built) and built.chains is not None and unbuilt.chains is None
    assert built == unbuilt and hash(built) == hash(unbuilt)


def test_repr_names_the_compared_fields():
    assert repr(LC) == "Logic(kind='lc', m=None)"
    assert repr(Verdict(True)) == "Verdict(holds=True, chain_size=None, countervaluation=None, instance=None)"
    assert repr(_Token("kw", "eps", 3)) == "_Token(kind='kw', value='eps', pos=3)"


def test_instance_records_dedup_as_their_formulas():
    rng = random.Random(44)
    terms = ["u1", "u2", "s1(eps x. A(x))", "eps x. A(x)"]
    shapes = [("EM", 1), ("J", 2), ("bigdisj", 2), ("Bm", 3)]
    records = []
    for _ in range(60):  # equal records over equal atoms parsed apart
        kind, n = rng.choice(shapes)
        atoms = tuple(pf(f"A({t})") for t in rng.sample(terms, n))
        records.append(Instance(kind, rng.choice(("eps", "tau")), atoms))
    fields = [(r.kind, r.polarity, r.atoms) for r in records]
    kept = dedup(records)
    assert len(set(fields)) == len(kept) < len(records)
    assert list(kept) == [r for i, r in enumerate(records) if fields[i] not in fields[:i]]
    # at one kind, polarity and arity (one arity per kind here) records are equal iff their formulas are
    keyed = [(r.kind, r.polarity, instance_formula(r)) for r in records]
    assert [(k.kind, k.polarity, instance_formula(k)) for k in kept] == list(dedup(keyed))


ALPHABET = "AaPxeps_'09 \t->()~&|,.$é"


@pytest.mark.parametrize("seed", range(4))
def test_tokens_agree_with_the_reference_tokenizer(seed):
    rng = random.Random(seed)
    texts = ["", " ", "A  $", "P( ->", "-", "A -> B  ", "eps x. A(x)", "ex_1 topx bot"]
    texts += ["".join(rng.choice(ALPHABET) for _ in range(rng.randrange(12))) for _ in range(500)]
    for text in texts:
        try:
            expected = reference_tokens(text)
        except ParseError as ex:
            with pytest.raises(ParseError) as got:
                _tokenize(text)
            assert (str(got.value), got.value.pos) == (str(ex), ex.pos), text
        else:
            assert [(t.kind, t.value, t.pos) for t in _tokenize(text)] == expected, text
