"""Construction encoding/decoding and the syntactic decision helpers.

The expected encodings are produced by ``oracle_term`` below — a direct
transcription of the inductive definition, written against the raw
constructor constants and kept deliberately independent of the module
under test — and by a handful of frozen literal trees.
"""

import random

import pytest

from cqe.constructions import (
    construction_to_term,
    constructor_constant,
    dest_name_literal,
    expand_quasiquote,
    is_expr_type_meta,
    is_free_in_meta,
    is_proper,
    name_literal,
    term_to_construction,
    type_from_construction,
    type_to_construction,
)
from cqe.errors import (
    ContainsHole,
    Improper,
    NotAConstruction,
    NotAVariable,
    NotEvalFree,
    UnsupportedArity,
)
from cqe.kernel import LAW_OF_QUO, mk_eq, new_constant
from cqe.syntax import (
    Abstraction,
    Application,
    Constant,
    Evaluation,
    Hole,
    Quotation,
    TypeApplication,
    TypeVariable,
    Variable,
    bool_ty,
    epsilon_ty,
    mk_fun,
    map_parts,
    num_ty,
    subterms,
)

from genterms import TermGen, distinct_terms


# ---------------------------------------------------------------------------
# the oracle: the encoding written out by hand
# ---------------------------------------------------------------------------


def _ap(head, *args):
    t = constructor_constant(head)
    for a in args:
        t = Application(t, a)
    return t


def oracle_type(ty):
    if isinstance(ty, TypeVariable):
        return _ap("TyVar", name_literal(ty.name))
    args = ty.arguments
    if len(args) == 0:
        return _ap("TyBase", name_literal(ty.constructor))
    if len(args) == 1:
        return _ap("TyMonoCons", name_literal(ty.constructor), oracle_type(args[0]))
    if len(args) == 2:
        return _ap(
            "TyBiCons",
            name_literal(ty.constructor),
            oracle_type(args[0]),
            oracle_type(args[1]),
        )
    raise AssertionError("oracle only covers arities 0-2")


def oracle_term(t):
    if isinstance(t, Variable):
        return _ap("QuoVar", name_literal(t.name), oracle_type(t.ty))
    if isinstance(t, Constant):
        return _ap("QuoConst", name_literal(t.name), oracle_type(t.ty))
    if isinstance(t, Application):
        return _ap("App", oracle_term(t.fn), oracle_term(t.arg))
    if isinstance(t, Abstraction):
        return _ap("Abs", oracle_term(t.var), oracle_term(t.body))
    if isinstance(t, Quotation):
        return _ap("Quo", oracle_term(t.body))
    raise AssertionError(f"oracle does not encode {type(t).__name__}")


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_frozen_encoding_of_a_variable():
    enc = term_to_construction(Variable("x", bool_ty()))
    expected = Application(
        Application(constructor_constant("QuoVar"), name_literal("x")),
        Application(constructor_constant("TyBase"), name_literal("bool")),
    )
    assert enc == expected


def test_frozen_encoding_of_a_type_variable():
    x = Variable("x", TypeVariable("'A"))
    enc = _ap("QuoVar", name_literal("x"), _ap("TyVar", name_literal("'A")))
    assert LAW_OF_QUO(Quotation(x)).concl == mk_eq(Quotation(x), enc)


def test_frozen_encoding_of_an_application():
    t = Application(Constant("~", mk_fun(bool_ty(), bool_ty())), Constant("T", bool_ty()))
    enc = term_to_construction(t)
    neg = _ap(
        "QuoConst",
        name_literal("~"),
        _ap(
            "TyBiCons",
            name_literal("fun"),
            _ap("TyBase", name_literal("bool")),
            _ap("TyBase", name_literal("bool")),
        ),
    )
    tru = _ap("QuoConst", name_literal("T"), _ap("TyBase", name_literal("bool")))
    assert enc == _ap("App", neg, tru)


def test_encoding_matches_oracle_on_generated_terms():
    gen = TermGen(seed=23)
    for _ in range(150):
        t = gen.eval_free(depth=4)
        assert term_to_construction(t) == oracle_term(t)


def oracle_quasi(t):
    """oracle_term with hole contents spliced in verbatim."""
    if isinstance(t, Hole):
        return t.content
    if isinstance(t, Application):
        return _ap("App", oracle_quasi(t.fn), oracle_quasi(t.arg))
    if isinstance(t, Abstraction):
        return _ap("Abs", oracle_quasi(t.var), oracle_quasi(t.body))
    if isinstance(t, Quotation):
        return _ap("Quo", oracle_quasi(t.body))
    return oracle_term(t)


@pytest.mark.parametrize("seed,depth", [(3, 3), (5, 4), (7, 5)])
def test_shared_encoding_equals_the_unshared_reference(seed, depth):
    gen = TermGen(seed=seed)
    for t in distinct_terms(gen, 60, depth=depth):
        assert term_to_construction(t) == oracle_term(t)
    gen = TermGen(seed=seed, holes=True)
    bodies = 0
    while bodies < 60:
        body = gen.quoted_body(gen.type(2), depth)
        if body is not None:
            bodies += 1
            assert expand_quasiquote(Quotation(body)) == oracle_quasi(body)


def _all_subterms(t):
    out = [t]
    for s in subterms(t):
        out.extend(_all_subterms(s))
    return out


def test_encoding_shares_each_type():
    x, y = Variable("x", num_ty()), Variable("y", num_ty())
    eq = Constant("=", mk_fun(num_ty(), mk_fun(num_ty(), bool_ty())))
    t = Application(Application(eq, x), y)
    enc = term_to_construction(t)
    num = type_to_construction(num_ty())
    shared = [s for s in _all_subterms(enc) if s == num]
    assert len(shared) == 4
    assert all(s is shared[0] for s in shared)
    again = [s for s in _all_subterms(term_to_construction(t)) if s == num]
    assert again == shared
    assert again[0] is shared[0]
    assert type_to_construction(num_ty()) is num


def test_encoding_refuses_evaluations_and_holes():
    ev = Evaluation(Variable("c", epsilon_ty()), bool_ty())
    with pytest.raises(NotEvalFree):
        term_to_construction(ev)
    q = Quotation(Hole(Variable("c", epsilon_ty()), bool_ty()))
    with pytest.raises(ContainsHole):
        term_to_construction(q)
    # an evaluation is refused as one, also inside a hole
    q = Quotation(Hole(Evaluation(Variable("c", epsilon_ty()), epsilon_ty()), bool_ty()))
    with pytest.raises(NotEvalFree):
        term_to_construction(q)


def test_type_encoding_arity_limit():
    # the encoding has constructors for arities 0/1/2 only
    from cqe import session

    session.current().type_arities.setdefault("wide3", 3)
    wide = TypeApplication("wide3", (bool_ty(), bool_ty(), bool_ty()))
    with pytest.raises(UnsupportedArity):
        type_to_construction(wide)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_type_round_trip():
    gen = TermGen(seed=31)
    for _ in range(100):
        ty = gen.type(3)
        assert type_from_construction(type_to_construction(ty)) == ty


def test_term_round_trip_identity():
    gen = TermGen(seed=37)
    for _ in range(150):
        t = gen.eval_free(depth=4)
        assert construction_to_term(term_to_construction(t)) == t


def test_decoding_rejects_non_constructions():
    with pytest.raises(NotAConstruction):
        construction_to_term(Variable("c", epsilon_ty()))
    ill = _ap("App", _ap("Quo", Variable("c", epsilon_ty())), Variable("d", epsilon_ty()))
    with pytest.raises(NotAConstruction):
        construction_to_term(ill)


def test_decoding_rejects_improper_constructions():
    # App of two booleans denotes no application: T is not a function
    tru = oracle_term(Constant("T", bool_ty()))
    with pytest.raises(Improper):
        construction_to_term(_ap("App", tru, tru))
    assert not is_proper(_ap("App", tru, tru))
    assert is_proper(tru)



def test_a_hole_free_quotation_decodes_to_its_own_body():
    gen = TermGen(seed=43)
    for _ in range(100):
        t = gen.eval_free(depth=3)
        assert construction_to_term(Quotation(t)) is t


def test_decoding_refuses_an_evaluation_before_reducing():
    # vsubst suspends this redex, so reducing it first would never end
    x = Variable("x", epsilon_ty())
    redex = Application(
        Abstraction(x, Evaluation(x, epsilon_ty())),
        Quotation(Constant("T", bool_ty())),
    )
    with pytest.raises(NotAConstruction):
        construction_to_term(redex)

def test_only_a_constructor_name_gives_a_constructor_constant():
    new_constant("Foo", epsilon_ty())
    assert constructor_constant("App").name == "App"
    with pytest.raises(NotAConstruction):
        constructor_constant("Foo")


def test_name_literals():
    assert dest_name_literal(name_literal("fun")) == "fun"
    with pytest.raises(NotAConstruction):
        dest_name_literal(Constant("T", bool_ty()))


# ---------------------------------------------------------------------------
# quasiquotation
# ---------------------------------------------------------------------------


def test_expand_quasiquote_splices_hole_contents_verbatim():
    c = Variable("c", epsilon_ty())
    q = Quotation(Application(Constant("~", mk_fun(bool_ty(), bool_ty())), Hole(c, bool_ty())))
    enc = expand_quasiquote(q)
    neg = oracle_term(Constant("~", mk_fun(bool_ty(), bool_ty())))
    assert enc == _ap("App", neg, c)


def test_expand_quasiquote_agrees_with_encoding_when_hole_free():
    gen = TermGen(seed=41)
    for _ in range(60):
        t = gen.eval_free(depth=3)
        assert expand_quasiquote(Quotation(t)) == term_to_construction(t)


def test_expand_quasiquote_wants_a_quotation():
    with pytest.raises(NotAConstruction):
        expand_quasiquote(Variable("c", epsilon_ty()))


def test_expand_quasiquote_reaches_nested_quotations():
    c = Variable("c", epsilon_ty())
    inner = Quotation(Hole(c, bool_ty()))
    expanded = expand_quasiquote(Quotation(inner))
    assert expanded == _ap("Quo", c)


def _punch_holes(t, rng):
    """t with random subterms s, never a binder's variable, replaced by a
    hole whose content is the construction of s."""
    if rng.random() < 0.25:
        return Hole(term_to_construction(t), t.ty)
    if isinstance(t, Abstraction):
        return Abstraction(t.var, _punch_holes(t.body, rng))
    return map_parts(t, _punch_holes, None, rng)


def test_a_quotation_with_holes_reads_as_its_expansion_does():
    rng = random.Random(47)
    read = 0
    for seed in range(150):
        t = TermGen(seed).eval_free(depth=4)
        q = Quotation(_punch_holes(t, rng))
        if not q.has_hole:
            continue
        assert construction_to_term(q) is t
        assert construction_to_term(expand_quasiquote(q)) is t
        read += 1
    assert read >= 100


# ---------------------------------------------------------------------------
# the syntactic predicates behind the decision conversions
# ---------------------------------------------------------------------------


def test_is_expr_type_meta():
    enc = oracle_term(Application(Constant("~", mk_fun(bool_ty(), bool_ty())), Constant("T", bool_ty())))
    assert is_expr_type_meta(enc, oracle_type(bool_ty()))
    assert not is_expr_type_meta(enc, oracle_type(num_ty()))
    tru = oracle_term(Constant("T", bool_ty()))
    assert not is_expr_type_meta(_ap("App", tru, tru), oracle_type(bool_ty()))


def test_is_free_in_meta_basics():
    x = Variable("x", bool_ty())
    y = Variable("y", bool_ty())
    xq = oracle_term(x)
    assert is_free_in_meta(xq, oracle_term(x))
    assert not is_free_in_meta(xq, oracle_term(y))
    assert not is_free_in_meta(xq, oracle_term(Abstraction(x, x)))
    assert is_free_in_meta(xq, oracle_term(Application(Abstraction(y, y), x)))
    with pytest.raises(NotAVariable):
        is_free_in_meta(oracle_term(Constant("T", bool_ty())), oracle_term(x))
    # an improper first argument denotes no variable either
    tru = oracle_term(Constant("T", bool_ty()))
    with pytest.raises(NotAVariable, match="denotes no variable"):
        is_free_in_meta(_ap("App", tru, tru), oracle_term(x))
    # an improper second argument denotes no term, so x is free in none
    assert not is_free_in_meta(xq, _ap("App", tru, tru))


def test_is_free_in_meta_sees_through_inner_quotations():
    # x occurs (quoted) inside the represented term Quo(x): still counted,
    # because substitution into the representation would change it
    x = Variable("x", bool_ty())
    target = oracle_term(Quotation(x))
    assert is_free_in_meta(oracle_term(x), target)


def test_is_free_in_meta_quoted_binders_do_not_hide():
    # inside the REPRESENTED term \x. x the variable is bound: not free
    x = Variable("x", bool_ty())
    rep = oracle_term(Abstraction(x, x))
    assert not is_free_in_meta(oracle_term(x), rep)
    # but an occurrence under a binder of a DIFFERENT variable stays free
    y = Variable("y", bool_ty())
    rep2 = oracle_term(Abstraction(y, x))
    assert is_free_in_meta(oracle_term(x), rep2)


def test_is_free_in_meta_counts_quoted_occurrences_under_a_live_binder():
    # \x. Q_ x _Q: the live binder does not hide the quoted occurrence
    x = Variable("x", bool_ty())
    rep = oracle_term(Abstraction(x, Quotation(x)))
    assert is_free_in_meta(oracle_term(x), rep)
