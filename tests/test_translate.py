import dataclasses
import random
import sys
from pathlib import Path

import pytest

from epsitau.critical import is_predicative, make_critical, recognize_critical
from epsitau.judgments import CLASSICAL, H, make_judgment
from epsitau.parser import parse_formula as pf, parse_term as pt
from epsitau.semantics import prove_H, verify_judgment
from epsitau.syntax import (
    Eps,
    Implies,
    Tau,
    contains_etau,
    eps,
    free_vars,
    is_quantifier_free,
    or_join,
    or_spine,
    subst_var,
    tau,
    to_text,
)
from epsitau.translate import et_translate, herbrand_form, shadow

from helpers import (
    random_formula,
    random_matrix,
    random_term,
    standard_quantifier_axioms,
    valid_in_two_element_models,
)
from paper import (
    CRITICAL_KINDS,
    MP_KINDS,
    CriticalWitness,
    ModusPonensWitness,
    QuantifierShiftKind,
    quantifier_shift_instance,
)


# ---------------------------------------------------------------------------
# et_translate


def test_exists_becomes_epsilon():
    assert et_translate(pf("ex x. P(x)")) == pf("P(eps x. P(x))")


def test_forall_becomes_tau():
    assert et_translate(pf("all x. P(x)")) == pf("P(tau x. P(x))")


def test_negated_universal_shift():
    out = et_translate(pf("~(all x. A(x)) -> ex x. ~A(x)"))
    assert out == pf("~A(tau x. A(x)) -> ~A(eps x. ~A(x))")


def test_translate_rejects_existing_terms():
    with pytest.raises(ValueError):
        et_translate(pf("P(eps x. P(x))"))


def test_translate_output_quantifier_free_and_stable():
    rng = random.Random(3)
    done = 0
    while done < 50:
        phi = _random_closed_fo(rng)
        if contains_etau(phi):
            continue
        done += 1
        out = et_translate(phi)
        assert is_quantifier_free(out)
        if is_quantifier_free(phi) and not contains_etau(phi):
            assert et_translate(phi) == phi


def _random_closed_fo(rng):
    from epsitau.syntax import exists, forall

    phi = random_formula(rng, 2, ["x", "y"])
    for v in ("x", "y"):
        if v in free_vars(phi):
            phi = (exists if rng.random() < 0.5 else forall)(v, phi)
    return phi


def test_nested_quantifiers_innermost_first():
    out = et_translate(pf("ex z. all u. (P(u) -> P(z))"))
    inner = tau("u", Implies(pf("P(u)"), pf("P(z)")))
    body = Implies(subst_var(pf("P(u)"), "u", inner), pf("P(z)"))
    e = eps("z", body)
    assert out == subst_var(body, "z", e)


# ---------------------------------------------------------------------------
# shadow


def test_shadow_erases_arguments():
    assert shadow(pf("P(f(c))")) == pf("P")


def test_shadow_quantifier_shift_is_self_implication():
    out = shadow(pf("all x. (A(x) | B) -> (all x. A(x) | B)"))
    assert isinstance(out, Implies) and out.left == out.right


def test_shadow_of_standard_quantifier_axioms():
    for ax in standard_quantifier_axioms(pf("A(x)"), "x", pt("f(c)")):
        s = shadow(ax)
        assert isinstance(s, Implies) and s.left == s.right
        assert prove_H([], s)


def test_shadow_of_random_critical_formulas_provable():
    rng = random.Random(17)
    for _ in range(100):
        matrix = random_matrix(rng, 3, "x")
        witness = random_term(rng, 2, [])
        kind = "eps" if rng.random() < 0.5 else "tau"
        c = make_critical(matrix, "x", kind, witness)
        assert prove_H([], shadow(c.rendered))


def test_shadow_of_all_table_shifts_is_self_implication():
    for kind in QuantifierShiftKind:
        si = quantifier_shift_instance(
            kind, pf("A(x)"), "x", None if kind is QuantifierShiftKind.K else pf("B")
        )
        s = shadow(si.shift)
        assert isinstance(s, Implies) and s.left == s.right
        assert prove_H([], shadow(si.translation))


def test_translate_and_shadow_of_a_long_disjunction():
    # both walk the connectives with an explicit stack and recurse only into
    # nested quantifiers, so the default recursion limit is enough
    assert sys.getrecursionlimit() <= 1000
    phi = or_join([pf(f"ex x. P(x, c{i})") for i in range(3000)])
    parts = or_spine(et_translate(phi))
    assert len(parts) == 3000 and parts[-1] == pf("P(eps x. P(x, c2999), c2999)")
    assert or_spine(shadow(phi)) == [pf("P")] * 3000


# ---------------------------------------------------------------------------
# herbrand_form


def test_herbrand_form_of_the_drinker_like_formula():
    out = herbrand_form(pf("ex z. all u. (P(u) -> P(z))"))
    assert out == pf("ex z. (P(u_1(z)) -> P(z))")


def test_herbrand_form_identity_on_existential():
    phi = pf("ex x. A(x)")
    assert herbrand_form(phi) == phi


def test_herbrand_form_leading_universal():
    out = herbrand_form(pf("all x. ex y. R(x, y)"))
    assert out == pf("ex y. R(x_1, y)")


def test_herbrand_form_fresh_symbol_count():
    out = herbrand_form(pf("all x. ex y. all z. T(x, y, z)"))
    assert out == pf("ex y. T(x_1, y, z_1(y))")


def test_herbrand_form_skolem_constant_avoids_the_input_names():
    assert herbrand_form(pf("all x. R(x, x_1)")) == pf("R(x_2, x_1)")


def test_herbrand_form_rejects_non_prenex():
    with pytest.raises(ValueError):
        herbrand_form(pf("(all x. P(x)) -> Q"))


@pytest.mark.parametrize(
    "text",
    [
        "ex z. all u. (P(u) -> P(z))",
        "all x. ex y. R(x, y)",
        "all x. all y. (R(x, y) -> R(y, x))",
        "ex x. (P(x) -> Q(x))",
        "all x. P(x)",
    ],
)
def test_herbrand_form_preserves_two_element_validity(text):
    phi = pf(text)
    assert valid_in_two_element_models(phi) == valid_in_two_element_models(herbrand_form(phi))


# ---------------------------------------------------------------------------
# quantifier shifts


A = pf("A(x)")
B = pf("B")


def _instance(kind):
    return quantifier_shift_instance(kind, A, "x", None if kind is QuantifierShiftKind.K else B)


@pytest.mark.parametrize("kind", CRITICAL_KINDS, ids=lambda k: k.value)
def test_table_translations_are_critical(kind):
    si = _instance(kind)
    cert = si.certificate
    assert isinstance(cert, CriticalWitness)
    # the translation is C(t1) -> C(t2) per the table
    assert si.translation == Implies(
        subst_var(cert.matrix, cert.hole, cert.t1), subst_var(cert.matrix, cert.hole, cert.t2)
    )
    # and the recognizer accepts it with the table's witness
    readings = recognize_critical(si.translation)
    assert readings, f"no reading for {kind}"
    if isinstance(cert.t1, (Eps, Tau)) and cert.t1 == eps_or_tau_of(cert):
        expected_term, expected_witness = cert.t1, cert.t2
    else:
        expected_term, expected_witness = cert.t2, cert.t1
    assert any(
        r.critical_term == expected_term and r.witness == expected_witness for r in readings
    )


def eps_or_tau_of(cert):
    # the abstraction of the matrix on its hole, with the matching binder kind
    if isinstance(cert.t1, Tau):
        return tau(cert.hole, cert.matrix)
    return eps(cert.hole, cert.matrix)


@pytest.mark.parametrize("kind", MP_KINDS, ids=lambda k: k.value)
def test_mp_table_certificates(kind):
    si = _instance(kind)
    cert = si.certificate
    assert isinstance(cert, ModusPonensWitness)
    # the critical formula really is one
    assert recognize_critical(cert.critical)
    # the principle is intuitionistically provable
    assert prove_H([], cert.principle)
    # and [critical, principle] |- translation both classically and in H
    for logic in (H, CLASSICAL):
        j = make_judgment(logic, [cert.critical, cert.principle], si.translation)
        assert verify_judgment(j)
    # the principle yields the translation by one modus ponens
    assert cert.principle == Implies(cert.critical, si.translation)


def test_k_translation_matches_display():
    si = _instance(QuantifierShiftKind.K)
    assert si.translation == pf("~~A(tau x. ~~A(x)) -> ~~A(tau x. A(x))")


def test_cd_instance_shape():
    si = _instance(QuantifierShiftKind.CD)
    assert si.shift == pf("(all x. A(x) | B) -> (all x. A(x)) | B")
    cert = si.certificate
    assert cert.matrix == pf("A(x) | B")
    assert cert.t1 == pt("tau x. A(x) | B")
    assert cert.t2 == pt("tau x. A(x)")


def test_or_forall_certificate_matches_display():
    si = _instance(QuantifierShiftKind.OR_FORALL)
    cert = si.certificate
    assert cert.critical == pf("A(tau x. A(x)) -> A(tau x. A(x) | B)")
    assert cert.principle == pf(
        "(A(tau x. A(x)) -> A(tau x. A(x) | B))"
        " -> (A(tau x. A(x)) | B -> A(tau x. A(x) | B) | B)"
    )


def test_vacuous_matrix_rejected():
    # the recognizer refuses a body that ignores its variable, so no kind
    # has a critical formula for it
    for kind in QuantifierShiftKind:
        with pytest.raises(ValueError):
            quantifier_shift_instance(kind, pf("A(y)"), "x", B)


def test_random_certificates_are_read_off_their_translations():
    rng = random.Random(22)
    done = 0
    while done < 100:
        matrix = random_matrix(rng, 3, "x")
        side = random_formula(rng, 2, ["y"])
        if contains_etau(matrix) or contains_etau(side):
            continue
        done += 1
        for kind in CRITICAL_KINDS:
            si = quantifier_shift_instance(kind, matrix, "x", side)
            cert = si.certificate
            assert isinstance(cert, CriticalWitness)
            assert si.translation == Implies(
                subst_var(cert.matrix, cert.hole, cert.t1),
                subst_var(cert.matrix, cert.hole, cert.t2),
            )
        for kind in MP_KINDS:
            si = quantifier_shift_instance(kind, matrix, "x", side)
            cert = si.certificate
            assert isinstance(cert, ModusPonensWitness)
            assert recognize_critical(cert.critical)
            assert cert.principle == Implies(cert.critical, si.translation)


def test_x_free_in_b_rejected():
    with pytest.raises(ValueError):
        quantifier_shift_instance(QuantifierShiftKind.CD, A, "x", pf("B(x)"))


def test_table_witnesses_predicative_status_consistent():
    for kind in CRITICAL_KINDS:
        si = _instance(kind)
        for r in recognize_critical(si.translation):
            assert is_predicative(r) in (True, False)


# Written from a hand-written table of the 17 certificates, before the
# certificates were read off the translations instead.
GOLDEN_SHIFTS = Path(__file__).parent / "golden" / "quantifier_shift_certificates.txt"


def shift_certificate_text(matrix, side):
    """Each kind's shift, translation and certificate fields, one per line."""
    lines = [f"matrix: {to_text(matrix)}", f"side: {to_text(side)}"]
    for kind in QuantifierShiftKind:
        si = quantifier_shift_instance(
            kind, matrix, "x", None if kind is QuantifierShiftKind.K else side
        )
        lines += [kind.value, f"  shift: {to_text(si.shift)}"]
        lines.append(f"  translation: {to_text(si.translation)}")
        cert = si.certificate
        for field in dataclasses.fields(cert):
            value = getattr(cert, field.name)
            text = value if isinstance(value, str) else to_text(value)
            lines.append(f"  {type(cert).__name__}.{field.name}: {text}")
    return "".join(line + "\n" for line in lines)


def golden_shift_text():
    return shift_certificate_text(A, B) + shift_certificate_text(
        pf("P(x, c) & Q(x)"), pf("R | S(d)")
    )


def test_shift_certificates_match_golden():
    assert golden_shift_text().encode() == GOLDEN_SHIFTS.read_bytes()
