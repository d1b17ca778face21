"""The kernel: substitution discipline, type instantiation, inference rules."""

import gc
import re
import weakref
from pathlib import Path

import pytest

from cqe import kernel, session
from cqe.constructions import constructor_constant, term_to_construction
from cqe.errors import (
    ContainsHole,
    DuplicateName,
    FreeOccurrence,
    HasHoles,
    IllTyped,
    KernelError,
    NotAtomicQuote,
    NotAVariable,
    NotEvalFree,
    OpenBody,
    QuotationTypePolymorphism,
    SameVariable,
    SubstitutionBlocked,
    TypeMismatch,
    VariableCollision,
    WrongShape,
)
from cqe.kernel import (
    ABS,
    ABS_SPLIT,
    APP_SPLIT,
    ASSUME,
    BETA,
    BETA_REVAL,
    DEDUCT_ANTISYM,
    DISQUO,
    EQ_MP,
    INST,
    INST_TYPE,
    LAW_OF_QUO,
    MK_COMB,
    NEITHER_EFFECTIVE,
    NOT_FREE_OR_EFFECTIVE_IN,
    QUO_STEP,
    QUOTABLE,
    REFL,
    TRANS,
    Theorem,
    dest_not_effective,
    inst_type,
    mk_conj,
    mk_eq,
    mk_exists,
    mk_imp,
    mk_is_expr_type,
    mk_is_free_in,
    mk_neg,
    mk_not_effective,
    new_axiom,
    new_basic_definition,
    new_constant,
    new_type_constructor,
    register_not_effective,
    vsubst,
)
from cqe.syntax import (
    Abstraction,
    Application,
    Constant,
    Evaluation,
    Hole,
    Quotation,
    TypeVariable,
    Variable,
    _frees,
    alpha_equivalent,
    bool_ty,
    epsilon_ty,
    mk_fun,
    num_ty,
    str_ty,
)

from cqe.frontend import parse_type, print_type
from cqe.logic import BETA_EVAL, CONST_DISQUO, NOT_ELIM, SYM, VAR_DISQUO

from genterms import TermGen


def bv(name):
    return Variable(name, bool_ty())


def ev(name):
    return Variable(name, epsilon_ty())


T = Constant("T", bool_ty())
F = Constant("F", bool_ty())


# ---------------------------------------------------------------------------
# substitution: the classical part
# ---------------------------------------------------------------------------


def test_vsubst_plain():
    x, y = bv("x"), bv("y")
    t = mk_conj(x, y)
    assert vsubst([(x, T)], t) == mk_conj(T, y)
    assert vsubst([(x, T), (y, F)], t) == mk_conj(T, F)


def test_vsubst_checks_inputs():
    x = bv("x")
    with pytest.raises(TypeMismatch):
        vsubst([(x, Constant("_0", num_ty()))], x)
    with pytest.raises(NotAVariable):
        vsubst([(T, F)], T)


def test_vsubst_identity_bindings_are_dropped():
    x = bv("x")
    t = Abstraction(x, x)
    assert vsubst([(x, x)], t) is t


@pytest.mark.parametrize("order", ["identity-first", "identity-last"])
def test_vsubst_refuses_an_identity_pair_that_conflicts(order):
    x, y = bv("x"), bv("y")
    pairs = [(x, x), (x, y)]
    if order == "identity-last":
        pairs.reverse()
    with pytest.raises(KernelError, match="conflicting substitutions for x"):
        vsubst(pairs, x)
    with pytest.raises(KernelError, match="conflicting substitutions for x"):
        INST(pairs, ASSUME(x))


@pytest.mark.parametrize("second", ["other-type", "identity"])
@pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
def test_inst_type_refuses_conflicting_instantiations(second, reverse):
    a = TypeVariable("'A")
    x = Variable("x", a)
    pairs = [(a, num_ty()), (a, bool_ty() if second == "other-type" else a)]
    if reverse:
        pairs.reverse()
    with pytest.raises(KernelError, match="conflicting instantiations for 'A"):
        inst_type(pairs, x)
    with pytest.raises(KernelError, match="conflicting instantiations for 'A"):
        INST_TYPE(pairs, REFL(x))


def test_repeated_equal_pairs_are_not_a_conflict():
    x = bv("x")
    a = TypeVariable("'A")
    assert vsubst([(x, T), (x, T)], x) == T
    assert vsubst([(x, x), (x, x)], x) is x
    assert inst_type([(a, num_ty()), (a, num_ty())], Variable("x", a)) == Variable("x", num_ty())


def test_vsubst_shadowed_binder_protects():
    x = bv("x")
    t = Abstraction(x, x)
    assert vsubst([(x, T)], t) == t


def test_vsubst_renames_on_capture():
    x, y = bv("x"), bv("y")
    t = Abstraction(y, mk_conj(x, y))
    out = vsubst([(x, y)], t)
    y2 = Variable("y'", bool_ty())
    assert out == Abstraction(y2, mk_conj(y, y2))


def test_vsubst_no_capture_no_rename():
    x, y = bv("x"), bv("y")
    t = Abstraction(y, x)
    assert vsubst([(x, T)], t) == Abstraction(y, T)


# ---------------------------------------------------------------------------
# substitution: quotations are opaque, holes are transparent
# ---------------------------------------------------------------------------


def test_vsubst_quotation_opaque():
    x = bv("x")
    q = Quotation(mk_conj(x, T))
    assert vsubst([(x, F)], q) is q


def test_vsubst_hole_contents_substituted():
    x = bv("x")
    c = ev("c")
    q = Quotation(mk_conj(Hole(c, bool_ty()), x))
    out = vsubst([(c, Quotation(T))], q)
    assert out == Quotation(mk_conj(Hole(Quotation(T), bool_ty()), x))
    # the non-hole occurrence of x is syntax: untouched
    assert vsubst([(x, F)], q) is q


def test_vsubst_holes_reached_at_depth():
    c = ev("c")
    q = Quotation(Quotation(Hole(c, bool_ty())))
    out = vsubst([(c, Quotation(T))], q)
    assert out == Quotation(Quotation(Hole(Quotation(T), bool_ty())))


def test_vsubst_quoted_binders_do_not_shadow_hole_contents():
    c = ev("c")
    q = Quotation(Abstraction(c, Hole(c, bool_ty())))
    out = vsubst([(c, Quotation(T))], q)
    assert out == Quotation(Abstraction(c, Hole(Quotation(T), bool_ty())))


# ---------------------------------------------------------------------------
# substitution: evaluations suspend
# ---------------------------------------------------------------------------


def test_vsubst_suspends_on_evaluation():
    # suspension is unconditional: even when the substituted variable has no
    # syntactic occurrence in the content, the VALUE of the evaluation may
    # mention it (the content could denote syntax containing x), so the
    # redex is kept verbatim for the guarded rules to discharge later
    x = bv("x")
    c = ev("c")
    e = Evaluation(c, bool_ty())
    out = vsubst([(x, T)], mk_conj(x, e))
    assert out == mk_conj(T, Application(Abstraction(x, e), T))
    # substituting for the evaluation's own free variable suspends too
    out2 = vsubst([(c, Quotation(T))], e)
    assert out2 == Application(Abstraction(c, e), Quotation(T))


def test_vsubst_returns_an_eval_free_term_without_the_variable_at_once(monkeypatch):
    from cqe import kernel

    x, y, z = bv("x"), bv("y"), bv("z")
    t = mk_conj(Application(Abstraction(y, y), T), mk_imp(T, mk_conj(z, F)))
    calls = []
    walk = kernel._vsubst
    monkeypatch.setattr(kernel, "_vsubst", lambda s, *args: calls.append(s) or walk(s, *args))
    used = []
    assert vsubst([(x, F)], t, used=used) is t
    assert used == []
    assert calls == [t]  # the root only; no subterm was visited


def test_vsubst_still_suspends_on_an_evaluation_without_the_variable():
    x, c = bv("x"), ev("c")
    e = Evaluation(c, bool_ty())
    t = mk_conj(e, T)
    assert x not in _frees(t)  # t's free set misses x
    assert vsubst([(x, F)], e) == Application(Abstraction(x, e), F)
    assert vsubst([(x, F)], t) == mk_conj(Application(Abstraction(x, e), F), T)


def test_vsubst_multi_binding_evaluation_ordering():
    c, d = ev("c"), ev("d")
    e = Evaluation(Application(Application(constructor_constant("App"), c), d), bool_ty())
    out = vsubst([(c, Quotation(T)), (d, Quotation(F))], e)
    # both substitutions wrap the evaluation, one at a time, each verbatim
    assert isinstance(out, Application) and isinstance(out.fn, Abstraction)
    inner = out.fn.body
    assert isinstance(inner, Application) and isinstance(inner.fn, Abstraction)
    assert inner.fn.body == e
    # order: the replacement terms are closed, so both orders are sound;
    # what matters is that nothing was pushed inside the evaluation
    assert {out.arg, inner.arg} == {Quotation(T), Quotation(F)}


def test_vsubst_multi_binding_blocked_when_entangled():
    c, d = ev("c"), ev("d")
    e = Evaluation(Application(Application(constructor_constant("App"), c), d), bool_ty())
    # each replacement mentions the other variable: no safe order exists
    with pytest.raises(SubstitutionBlocked):
        vsubst([(c, Application(constructor_constant("Quo"), d)),
                (d, Application(constructor_constant("Quo"), c))], e)


# ---------------------------------------------------------------------------
# substitution: binders over evaluations need evidence
# ---------------------------------------------------------------------------


def _eval_under_binder():
    """lam = \\n. P n, and an eval-containing replacement for P."""
    n = Variable("n", num_ty())
    P = Variable("P", mk_fun(num_ty(), bool_ty()))
    repl = Evaluation(ev("g"), mk_fun(num_ty(), bool_ty()))
    return n, P, repl, Abstraction(n, Application(P, n))


def test_vsubst_blocked_at_binder_over_evaluation():
    n, P, repl, lam = _eval_under_binder()
    with pytest.raises(SubstitutionBlocked) as exc:
        vsubst([(P, repl)], lam)
    needed = exc.value.needed
    assert needed, "the error should say what evidence would unblock it"
    assert (n, repl) in needed


def test_vsubst_descends_when_replacement_is_eval_free():
    # an eval-free replacement with no free n crosses the binder unaided,
    # and the substitution then suspends at the inner evaluation
    n = Variable("n", num_ty())
    f, g = ev("f"), ev("g")
    e = Evaluation(f, mk_fun(num_ty(), bool_ty()))
    lam = Abstraction(n, Application(e, n))
    out = vsubst([(f, g)], lam)
    assert out == Abstraction(
        n, Application(Application(Abstraction(f, e), g), n)
    )


def test_vsubst_unblocked_by_registered_fact():
    n, P, repl, lam = _eval_under_binder()
    ax = new_axiom("nei_g_test", mk_not_effective(n, repl))
    register_not_effective(ax)
    used = []
    out = vsubst([(P, repl)], lam, used=used)
    assert out == Abstraction(n, Application(repl, n))
    assert ax in used


def test_dest_not_effective_round_trip():
    n = Variable("n", num_ty())
    g = ev("g")
    x, t = dest_not_effective(mk_not_effective(n, g))
    assert x == n and t == g
    with pytest.raises(WrongShape):
        dest_not_effective(T)


def _nei_shape(y, lhs, rhs):
    """~(?y. ~(lhs = rhs)): the outline of a not-effective statement."""
    return mk_neg(mk_exists(y, mk_neg(mk_eq(lhs, rhs))))


def _k_of(v):
    """``k v : epsilon``, a term in which v is free."""
    return Application(Variable("k", mk_fun(num_ty(), epsilon_ty())), v)


@pytest.mark.parametrize(
    "build, reason",
    [
        (lambda n, y: _nei_shape(y, _k_of(y), ev("g")), "missing applied abstraction"),
        (
            lambda n, y: _nei_shape(
                y, Application(Abstraction(n, ev("g")), Variable("z", num_ty())), ev("g")
            ),
            "witness variable mismatch",
        ),
        (
            lambda n, y: _nei_shape(y, Application(Abstraction(n, ev("g")), y), ev("h")),
            "body and right side differ",
        ),
        (
            lambda n, y: _nei_shape(n, Application(Abstraction(n, ev("g")), n), ev("g")),
            "witness is not fresh",
        ),
        (
            lambda n, y: _nei_shape(y, Application(Abstraction(n, _k_of(y)), y), _k_of(y)),
            "witness is not fresh",
        ),
    ],
    ids=["no_abstraction", "witness_mismatch", "body_differs", "witness_is_binder", "witness_in_body"],
)
def test_dest_not_effective_refuses_a_statement_off_the_shape(build, reason):
    # each would register a substitution licence that the statement does not give
    with pytest.raises(WrongShape, match=reason):
        dest_not_effective(build(Variable("n", num_ty()), Variable("y", num_ty())))


# ---------------------------------------------------------------------------
# type instantiation
# ---------------------------------------------------------------------------


def test_a_type_variable_prints_with_one_quote():
    # the name keeps the quote, so a name without one has no surface syntax
    with pytest.raises(IllTyped):
        TypeVariable("A")
    assert repr(TypeVariable("'A")) == "'A"
    assert repr(parse_type("'A")) == "'A"


def test_inst_type_basic():
    a = TypeVariable("'A")
    x = Variable("x", a)
    t = Abstraction(x, x)
    out = inst_type([(a, num_ty())], t)
    xn = Variable("x", num_ty())
    assert out == Abstraction(xn, xn)


def test_inst_type_returns_a_term_without_type_variables_unchanged():
    a = TypeVariable("'A")
    x = Variable("x", num_ty())
    q = Quotation(Hole(ev("c"), bool_ty()))
    t = Abstraction(x, mk_conj(mk_eq(x, x), mk_eq(Evaluation(q, bool_ty()), T)))
    assert inst_type([(a, num_ty())], t) is t


def test_inst_type_never_rewrites_quotations():
    a = TypeVariable("'A")
    q = Quotation(T)
    # no occurrence of 'A anywhere in the quotation: unchanged
    assert inst_type([(a, num_ty())], q) is q
    # occurrence in the quoted skeleton: refused
    qa = Quotation(Variable("x", a))
    with pytest.raises(QuotationTypePolymorphism):
        inst_type([(a, num_ty())], qa)
    # occurrence in a hole's content type environment: also refused
    c = Variable("c", epsilon_ty())
    qh = Quotation(Hole(Application(Abstraction(Variable("y", a), c), Variable("y", a)), bool_ty()))
    with pytest.raises(QuotationTypePolymorphism):
        inst_type([(a, num_ty())], qh)


def test_inst_type_binder_collision():
    a = TypeVariable("'A")
    x_a = Variable("x", a)
    x_n = Variable("x", num_ty())
    t = Abstraction(x_a, mk_eq(x_a, x_a))
    # fine: no second x around
    assert inst_type([(a, num_ty())], t) == Abstraction(x_n, mk_eq(x_n, x_n))
    # collision: a free x:num would be captured once 'A becomes num
    clash = Abstraction(x_a, mk_conj(mk_eq(x_a, x_a), mk_eq(x_n, x_n)))
    out = inst_type([(a, num_ty())], clash)
    assert isinstance(out, Abstraction) and out.var.name == "x'"
    # when the body is not eval-free the rename would be unsound: refuse
    e = Evaluation(ev("c"), bool_ty())
    clash_ev = Abstraction(x_a, mk_conj(mk_eq(x_n, x_n), e))
    with pytest.raises(VariableCollision):
        inst_type([(a, num_ty())], clash_ev)


# ---------------------------------------------------------------------------
# theorems are rule-gated
# ---------------------------------------------------------------------------


def test_theorem_cannot_be_forged():
    with pytest.raises(KernelError):
        Theorem(frozenset(), T, frozenset(), frozenset())
    th = REFL(T)
    with pytest.raises(AttributeError):
        th.concl = F


# ---------------------------------------------------------------------------
# equality rules
# ---------------------------------------------------------------------------


def test_refl_trans_mkcomb():
    x = bv("x")
    r = REFL(x)
    assert r.concl == mk_eq(x, x) and not r.hyps
    th1 = ASSUME(mk_eq(T, F))
    th2 = ASSUME(mk_eq(F, x))
    tr = TRANS(th1, th2)
    assert tr.concl == mk_eq(T, x)
    assert tr.hyps == {mk_eq(T, F), mk_eq(F, x)}
    neg = Constant("~", mk_fun(bool_ty(), bool_ty()))
    mc = MK_COMB(REFL(neg), th1)
    assert mc.concl == mk_eq(Application(neg, T), Application(neg, F))
    with pytest.raises(WrongShape):
        TRANS(th1, ASSUME(mk_eq(T, x)))  # middles do not meet
    with pytest.raises(IllTyped):
        MK_COMB(th1, th1)  # T is not a function


def test_beta_requires_the_binders_own_variable():
    x = bv("x")
    body = mk_conj(x, T)
    th = BETA(Application(Abstraction(x, body), x))
    assert th.concl == mk_eq(Application(Abstraction(x, body), x), body)
    with pytest.raises(WrongShape):
        BETA(Application(Abstraction(x, body), T))


def test_assume_and_eq_mp():
    p = bv("p")
    a = ASSUME(p)
    assert a.hyps == {p} and a.concl == p
    with pytest.raises(IllTyped):
        ASSUME(Constant("_0", num_ty()))
    eq = ASSUME(mk_eq(p, T))
    out = EQ_MP(eq, a)
    assert out.concl == T and out.hyps == {mk_eq(p, T), p}
    truth = session.current().theorems["TRUTH"]
    with pytest.raises(WrongShape, match="left side does not match"):
        EQ_MP(REFL(F), truth)


def test_deduct_antisym():
    p, q = bv("p"), bv("q")
    th = DEDUCT_ANTISYM(ASSUME(p), ASSUME(q))
    assert th.concl == mk_eq(p, q)
    assert th.hyps == {p, q}


def test_abs_side_condition_is_about_hypotheses():
    x, p = bv("x"), bv("p")
    th = ASSUME(mk_eq(p, p))
    with pytest.raises(FreeOccurrence):
        ABS(p, th)  # p free in the hypothesis
    ok = ABS(x, th)  # x is not
    assert ok.concl == mk_eq(Abstraction(x, p), Abstraction(x, p))


def test_abs_over_eval_containing_hypothesis_needs_registry():
    n = Variable("n", num_ty())
    g = ev("g")
    hyp = mk_eq(Evaluation(g, bool_ty()), Evaluation(g, bool_ty()))
    th = ASSUME(hyp)
    # n is not syntactically free in the hypothesis, but the hypothesis is
    # not eval-free, so syntax alone cannot certify ineffectiveness
    with pytest.raises(SubstitutionBlocked):
        ABS(n, th)
    ax = new_axiom("nei_abs_test", mk_not_effective(n, hyp))
    register_not_effective(ax)
    out = ABS(n, th)
    assert "nei_abs_test" in out.axioms


def test_inst_records_registry_provenance():
    n, P, repl, lam = _eval_under_binder()
    base = REFL(lam)
    ax = new_axiom("nei_inst_test", mk_not_effective(n, repl))
    register_not_effective(ax)
    out = INST([(P, repl)], base)
    assert "nei_inst_test" in out.axioms


def test_inst_type_on_theorems():
    a = TypeVariable("'A")
    x = Variable("x", a)
    th = REFL(x)
    out = INST_TYPE([(a, bool_ty())], th)
    xb = bv("x")
    assert out.concl == mk_eq(xb, xb)
    with pytest.raises(TypeMismatch):
        INST_TYPE([(bool_ty(), num_ty())], th)


# ---------------------------------------------------------------------------
# quotation rules
# ---------------------------------------------------------------------------


def test_law_of_quo_rhs_is_the_construction():
    gen = TermGen(seed=5)
    for _ in range(25):
        t = gen.eval_free(depth=3)
        th = LAW_OF_QUO(Quotation(t))
        lhs, rhs = th.concl.fn.arg, th.concl.arg
        assert lhs == Quotation(t)
        assert rhs == term_to_construction(t)
        assert not th.hyps and not th.axioms and not th.trusted


def test_law_of_quo_rejects_holes():
    c = ev("c")
    with pytest.raises(HasHoles):
        LAW_OF_QUO(Quotation(Hole(c, bool_ty())))
    with pytest.raises(WrongShape):
        LAW_OF_QUO(T)


def test_quo_step_unfolds_one_layer():
    x = bv("x")
    q = Quotation(Application(Abstraction(x, x), T))
    th = QUO_STEP(q)
    app = constructor_constant("App")
    expected = Application(
        Application(app, Quotation(Abstraction(x, x))), Quotation(T)
    )
    assert th.concl == mk_eq(q, expected)
    # atoms bottom out at the full encoding
    tq = Quotation(T)
    assert QUO_STEP(tq).concl == mk_eq(tq, term_to_construction(T))
    # quoted quotations unfold through the Quo constructor
    qq = Quotation(Quotation(T))
    assert QUO_STEP(qq).concl == mk_eq(
        qq, Application(constructor_constant("Quo"), Quotation(T))
    )


def test_disquotation_of_atoms():
    x = Variable("x", num_ty())
    th = VAR_DISQUO(Quotation(x))
    assert th.concl == mk_eq(Evaluation(Quotation(x), num_ty()), x)
    th2 = CONST_DISQUO(Quotation(T))
    assert th2.concl == mk_eq(Evaluation(Quotation(T), bool_ty()), T)
    with pytest.raises(NotAtomicQuote):
        VAR_DISQUO(Quotation(T))
    with pytest.raises(NotAtomicQuote):
        CONST_DISQUO(Quotation(x))
    with pytest.raises(NotAtomicQuote):
        DISQUO(Quotation(mk_conj(bv("p"), bv("q"))))
    assert DISQUO(Quotation(x)).concl == th.concl
    assert DISQUO(Quotation(T), bool_ty()).concl == th2.concl
    with pytest.raises(TypeMismatch):
        DISQUO(Quotation(x), bool_ty())


# ---------------------------------------------------------------------------
# evaluation rules
# ---------------------------------------------------------------------------


def test_app_split_shape():
    a, b = ev("a"), ev("b")
    th = APP_SPLIT(a, b, num_ty(), bool_ty())
    ante = mk_conj(
        mk_is_expr_type(a, mk_fun(num_ty(), bool_ty())),
        mk_is_expr_type(b, num_ty()),
    )
    lhs = Evaluation(
        Application(Application(constructor_constant("App"), a), b), bool_ty()
    )
    rhs = Application(
        Evaluation(a, mk_fun(num_ty(), bool_ty())), Evaluation(b, num_ty())
    )
    assert th.concl == mk_imp(ante, mk_eq(lhs, rhs))


def test_abs_split_shape_and_guard():
    x = Variable("x", num_ty())
    a = ev("a")
    th = ABS_SPLIT(x, a, bool_ty())
    ante = mk_conj(
        mk_is_expr_type(a, bool_ty()),
        mk_neg(mk_is_free_in(Quotation(x), Quotation(a))),
    )
    lhs = Evaluation(
        Application(Application(constructor_constant("Abs"), Quotation(x)), a),
        mk_fun(num_ty(), bool_ty()),
    )
    rhs = Abstraction(x, Evaluation(a, bool_ty()))
    assert th.concl == mk_imp(ante, mk_eq(lhs, rhs))
    with pytest.raises(NotEvalFree):
        ABS_SPLIT(x, Evaluation(a, epsilon_ty()), bool_ty())


def test_quotable_shape():
    a = ev("a")
    th = QUOTABLE(a)
    lhs = Evaluation(Application(constructor_constant("Quo"), a), epsilon_ty())
    assert th.concl == mk_imp(mk_is_expr_type(a, epsilon_ty()), mk_eq(lhs, a))


def test_beta_eval_trivial_instantiation():
    x = ev("x")
    th = BETA_EVAL(x, x, bool_ty())
    e = Evaluation(x, bool_ty())
    assert th.concl == mk_eq(Application(Abstraction(x, e), x), e)


def test_beta_reval_is_always_guarded():
    x = ev("x")
    q = Quotation(mk_disj_tf())
    th = BETA_REVAL(x, x, q, bool_ty())
    redex = Application(Abstraction(x, x), q)
    ante = mk_conj(
        mk_is_expr_type(redex, bool_ty()),
        mk_neg(mk_is_free_in(Quotation(x), Quotation(redex))),
    )
    lhs = Application(Abstraction(x, Evaluation(x, bool_ty())), q)
    rhs = Evaluation(redex, bool_ty())
    assert th.concl == mk_imp(ante, mk_eq(lhs, rhs))
    with pytest.raises(TypeMismatch):
        BETA_REVAL(x, x, T, bool_ty())


def mk_disj_tf():
    from cqe.kernel import mk_disj

    return mk_disj(T, F)


def test_not_free_or_effective_in():
    x = bv("x")
    th = NOT_FREE_OR_EFFECTIVE_IN(x, T)
    assert th.concl == mk_not_effective(x, T)
    with pytest.raises(FreeOccurrence):
        NOT_FREE_OR_EFFECTIVE_IN(x, mk_conj(x, T))
    with pytest.raises(NotEvalFree):
        NOT_FREE_OR_EFFECTIVE_IN(x, Evaluation(ev("c"), bool_ty()))


def test_neither_effective_shape():
    x, y = bv("x"), bv("y")
    a, b = T, mk_conj(bv("p"), bv("q"))
    th = NEITHER_EFFECTIVE(x, y, a, b)
    lhs = Application(Abstraction(x, Abstraction(y, b)), a)
    rhs = Abstraction(y, Application(Abstraction(x, b), a))
    from cqe.kernel import mk_disj

    ante = mk_disj(mk_not_effective(y, a), mk_not_effective(x, b))
    assert th.concl == mk_imp(ante, mk_eq(lhs, rhs))
    with pytest.raises(SameVariable):
        NEITHER_EFFECTIVE(x, x, a, b)


# ---------------------------------------------------------------------------
# guards: each refusal has one home, and each one is exercised
# ---------------------------------------------------------------------------


def _naked_hole(ty):
    """H_ Q_ T _Q _H : ty, a hole outside any quotation."""
    return Hole(Quotation(T), ty)


def _eval_in_hole():
    """Q_ H_ eval c to epsilon _H _Q: quotable, but not eval-free."""
    return Quotation(Hole(Evaluation(ev("c"), epsilon_ty()), bool_ty()))


def _truth_of_eval():
    """eval x to bool = T |- eval x to bool = T."""
    return ASSUME(mk_eq(Evaluation(ev("x"), bool_ty()), T))


_ZERO = Constant("_0", num_ty())

GUARDS = [
    # _thm's conclusion checks are the only home of "a theorem is a boolean
    # sequent with no naked hole": the rules below no longer repeat them
    ("ASSUME non-bool", lambda: ASSUME(_ZERO), IllTyped, "conclusion must have type bool"),
    ("ASSUME hole", lambda: ASSUME(_naked_hole(bool_ty())), ContainsHole, "a conclusion cannot"),
    ("REFL hole", lambda: REFL(_naked_hole(num_ty())), ContainsHole, "a conclusion cannot"),
    (
        "BETA hole",
        lambda: BETA(Application(Abstraction(bv("x"), _naked_hole(bool_ty())), bv("x"))),
        ContainsHole,
        "a conclusion cannot",
    ),
    (
        "NEITHER_EFFECTIVE hole in a",
        lambda: NEITHER_EFFECTIVE(bv("x"), bv("y"), _naked_hole(bool_ty()), T),
        ContainsHole,
        "a conclusion cannot",
    ),
    (
        "NEITHER_EFFECTIVE hole in b",
        lambda: NEITHER_EFFECTIVE(bv("x"), bv("y"), T, _naked_hole(bool_ty())),
        ContainsHole,
        "a conclusion cannot",
    ),
    # a hypothesis is a premise's, an INST or INST_TYPE image of one, or
    # ASSUME's conclusion: INST refuses the payload that would break it
    (
        "INST hole into a hypothesis",
        lambda: INST([(bv("p"), _naked_hole(bool_ty()))], ASSUME(bv("p"))),
        ContainsHole,
        "cannot substitute",
    ),
    # Abstraction formation is the home of "a binder is a variable"
    ("BETA_EVAL constant binder", lambda: BETA_EVAL(T, ev("b"), bool_ty()), NotAVariable, "binder"),
    ("BETA_EVAL non-term binder", lambda: BETA_EVAL("x", ev("b"), bool_ty()), NotAVariable, "binder"),
    # Application formation is the home of "the witness has x's type"
    (
        "not-effective witness type",
        lambda: _nei_shape(
            bv("y"), Application(Abstraction(Variable("n", num_ty()), ev("g")), bv("y")), ev("g")
        ),
        IllTyped,
        "operand type",
    ),
    # rule-local checks that nothing else makes: each input here would get
    # another class, a raw Python error or a theorem without its check
    ("ABS constant", lambda: ABS(T, _truth_of_eval()), NotAVariable, "ABS needs a variable"),
    (
        "ABS_SPLIT non-epsilon body",
        lambda: ABS_SPLIT(Variable("v", num_ty()), Evaluation(ev("x"), bool_ty()), bool_ty()),
        IllTyped,
        "must have type epsilon",
    ),
    (
        "QUOTABLE hole",
        lambda: QUOTABLE(_naked_hole(epsilon_ty())),
        ContainsHole,
        "contains a hole outside quotations",
    ),
    (
        "BETA_EVAL non-epsilon",
        lambda: BETA_EVAL(ev("x"), T, bool_ty()),
        IllTyped,
        "must have type epsilon",
    ),
    (
        "BETA_EVAL hole",
        lambda: BETA_EVAL(ev("x"), _naked_hole(epsilon_ty()), bool_ty()),
        ContainsHole,
        "contains a hole outside quotations",
    ),
    (
        "ABS_SPLIT unquotable binder",
        lambda: ABS_SPLIT(Evaluation(ev("c"), num_ty()), ev("a"), bool_ty()),
        NotAVariable,
        "ABS_SPLIT needs",
    ),
    (
        "ABS_SPLIT evaluation in a hole",
        lambda: ABS_SPLIT(Variable("v", num_ty()), _eval_in_hole(), bool_ty()),
        NotEvalFree,
        "must be eval-free",
    ),
    (
        "BETA_REVAL constant binder",
        lambda: BETA_REVAL(T, ev("b"), _ZERO, bool_ty()),
        NotAVariable,
        "BETA_REVAL needs",
    ),
    (
        "BETA_REVAL evaluation in a hole",
        lambda: BETA_REVAL(ev("x"), ev("x"), _eval_in_hole(), bool_ty()),
        NotEvalFree,
        "must be eval-free",
    ),
    (
        "NOT_FREE_OR_EFFECTIVE_IN application",
        lambda: NOT_FREE_OR_EFFECTIVE_IN(mk_neg(T), T),
        NotAVariable,
        "expected a variable",
    ),
    (
        "NEITHER_EFFECTIVE application",
        lambda: NEITHER_EFFECTIVE(bv("x"), mk_neg(T), T, T),
        NotAVariable,
        "expected variables",
    ),
    (
        "NEITHER_EFFECTIVE argument type",
        lambda: NEITHER_EFFECTIVE(bv("x"), bv("y"), _ZERO, T),
        TypeMismatch,
        "outer variable",
    ),
    ("vsubst non-term", lambda: vsubst([(bv("x"), T)], 5), KernelError, "not a term"),
    ("vsubst non-term payload", lambda: vsubst([(bv("x"), 5)], bv("x")), KernelError, "payload"),
    (
        "inst_type non-type",
        lambda: inst_type([(TypeVariable("'a"), 5)], Variable("x", TypeVariable("'a"))),
        TypeMismatch,
        "not a type",
    ),
    ("NOT_ELIM non-negation", lambda: NOT_ELIM(ASSUME(T)), WrongShape, "negation"),
    ("not-effective without binder", lambda: dest_not_effective(mk_neg(T)), WrongShape, "binder"),
]


@pytest.mark.parametrize(
    "build, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS]
)
def test_each_guard_refuses_with_its_class(build, error, message):
    with pytest.raises(error, match=message):
        build()


# ---------------------------------------------------------------------------
# session-extending operations
# ---------------------------------------------------------------------------


def test_new_constant_and_axiom():
    c = new_constant("shiny", bool_ty())
    assert c == Constant("shiny", bool_ty())
    with pytest.raises(KernelError):
        new_constant("shiny", bool_ty())
    th = new_axiom("shiny_true", mk_eq(c, T))
    assert th.axioms == {"shiny_true"}
    with pytest.raises(IllTyped):
        new_axiom("bad", Constant("_0", num_ty()))


def test_new_axiom_refusals():
    new_axiom("ax", T)
    cases = [
        ("ax", T, DuplicateName, "already used"),
        # a bootstrap theorem's name: axiom names are provenance
        ("TRUTH", F, DuplicateName, "already used"),
        ("num_ax", Constant("_0", num_ty()), IllTyped, "a conclusion must have type bool"),
        ("hole_ax", Hole(Quotation(T), bool_ty()), ContainsHole, "a conclusion cannot"),
    ]
    before = dict(session.current().theorems)
    for name, p, error, message in cases:
        with pytest.raises(error, match=message):
            new_axiom(name, p)
    assert session.current().theorems == before


def test_new_basic_definition():
    th = new_basic_definition("both", Abstraction(bv("p"), mk_conj(bv("p"), bv("p"))))
    c = Constant("both", mk_fun(bool_ty(), bool_ty()))
    assert th.concl == mk_eq(c, Abstraction(bv("p"), mk_conj(bv("p"), bv("p"))))
    assert not th.axioms  # definitions are conservative: not tracked
    with pytest.raises(KernelError):
        new_basic_definition("open_body", bv("p"))


@pytest.mark.parametrize(
    "name, build, error",
    [
        ("T", lambda: F, DuplicateName),
        ("evaluated", lambda: Evaluation(Quotation(T), bool_ty()), NotEvalFree),
        ("holed", lambda: Hole(Quotation(T), bool_ty()), ContainsHole),
        ("open_body", lambda: bv("p"), OpenBody),
        (
            "polymorphic",
            lambda: mk_eq(
                Abstraction(Variable("x", TypeVariable("'a")), T),
                Abstraction(Variable("x", TypeVariable("'a")), T),
            ),
            IllTyped,
        ),
    ],
    ids=["declared_name", "evaluation", "naked_hole", "free_variable", "escaping_type_variable"],
)
def test_new_basic_definition_refusals(name, build, error):
    # a refused definition declares nothing
    body = build()
    s = session.current()
    before = dict(s.constants), dict(s.theorems)
    with pytest.raises(error):
        new_basic_definition(name, body)
    assert (s.constants, s.theorems) == before


def test_new_type_constructor():
    new_type_constructor("pair2", 2)
    from cqe.syntax import TypeApplication

    ty = TypeApplication("pair2", (bool_ty(), num_ty()))
    assert ty.arguments == (bool_ty(), num_ty())
    with pytest.raises(KernelError):
        new_type_constructor("pair2", 2)


@pytest.mark.parametrize(
    "name, arity, error, message",
    [
        ("'a", 0, IllTyped, "not a type constructor name"),
        ("a b", 0, IllTyped, "not a type constructor name"),
        ("", 0, IllTyped, "not a type constructor name"),
        ("eval", 0, IllTyped, "not a type constructor name"),
        ("->", 0, IllTyped, "not a type constructor name"),
        (5, 0, IllTyped, "not a type constructor name"),
        ("bad", -1, KernelError, "arity"),
        ("bad", "2", KernelError, "arity"),
        ("bad", None, KernelError, "arity"),
        ("bad", True, KernelError, "arity"),
        ("bad", 1.0, KernelError, "arity"),
    ],
    ids=[
        "type_variable", "space", "empty", "keyword", "arrow", "not_a_string",
        "negative", "str_arity", "none_arity", "bool_arity", "float_arity",
    ],
)
def test_a_refused_type_constructor_leaves_the_signature_untouched(name, arity, error, message):
    before = dict(session.current().type_arities)
    with pytest.raises(error, match=message):
        new_type_constructor(name, arity)
    assert session.current().type_arities == before


def test_a_declared_type_constructor_reads_back_as_itself():
    new_type_constructor("shape_2", 0)
    ty = parse_type("shape_2")
    assert ty.constructor == "shape_2" and ty.arguments == ()
    assert parse_type(print_type(ty)) is ty


def test_a_name_literal_cannot_be_declared_a_constant():
    before = dict(session.current().constants)
    with pytest.raises(DuplicateName, match="reserved for literals"):
        new_constant('"q"', str_ty())
    assert session.current().constants == before


def _foreign_type():
    new_type_constructor("gone", 0)
    ty = parse_type("gone")
    session.reset()
    new_type_constructor("gone", 0)
    return ty


@pytest.mark.parametrize(
    "name, build, message",
    [
        ("", bool_ty, "not a constant name"),
        ("a b", bool_ty, "not a constant name"),
        ("eval", bool_ty, "not a constant name"),
        (5, bool_ty, "not a constant name"),
        ("k", lambda: 5, "not a type of this session"),
        ("k", _foreign_type, "not a type of this session"),
    ],
    ids=["empty", "space", "keyword", "not_a_string", "not_a_type", "foreign_type"],
)
def test_a_refused_constant_leaves_the_signature_untouched(name, build, message):
    ty = build()
    before = dict(session.current().constants)
    with pytest.raises(IllTyped, match=message):
        new_constant(name, ty)
    assert session.current().constants == before


def test_an_operator_or_identifier_may_name_a_constant():
    for name in ("k'", "_k2", "Q_x"):
        assert new_constant(name, bool_ty()) is Constant(name, bool_ty())
    with pytest.raises(DuplicateName, match="already registered"):
        new_constant("<=", bool_ty())


def test_register_not_effective_requires_the_shape():
    with pytest.raises(WrongShape):
        register_not_effective(REFL(T))
    n, g = Variable("n", num_ty()), ev("g")
    with pytest.raises(WrongShape, match="hypothesis"):
        register_not_effective(ASSUME(mk_not_effective(n, g)))
    assert (n, g) not in session.current().nei_registry


# ---------------------------------------------------------------------------
# sessions: a premise must come from the active session or the bootstrap
# ---------------------------------------------------------------------------


def test_a_premise_from_another_session_is_refused():
    a = new_basic_definition("c", T)
    session.reset()
    b = new_basic_definition("c", F)
    # without the session check this derives |- T = F, with no axioms and no
    # trusted tags
    with pytest.raises(KernelError, match="another session"):
        TRANS(SYM(a), b)
    with pytest.raises(KernelError, match="another session"):
        TRANS(a, REFL(T))
    assert TRANS(b, REFL(F)).concl == b.concl


def test_a_bootstrap_theorem_is_a_premise_in_every_session():
    truth = session.current().theorems["TRUTH"]
    assert truth._serial == session.template_serial
    session.reset()
    assert EQ_MP(REFL(truth.concl), truth).concl == truth.concl


def test_a_discarded_session_is_freed_without_the_garbage_collector():
    gc.disable()
    try:
        old = weakref.ref(session.current())
        th = new_basic_definition("c", T)
        session.reset()
        assert old() is None
        with pytest.raises(KernelError, match="another session"):
            TRANS(th, REFL(T))
    finally:
        gc.enable()


def test_a_term_kept_from_a_discarded_session_is_refused():
    # x_old prints as, and reads back as, x_new: ABS would state
    # (\zq. zq) = (\zq. zq) of two bodies that their binder does not bind
    x_old = Variable("zq", bool_ty())
    session.reset()
    x_new = Variable("zq", bool_ty())
    assert x_old is not x_new
    with pytest.raises(KernelError, match="another session"):
        ASSUME(x_old)
    with pytest.raises(IllTyped, match="another session"):
        ABS(x_old, REFL(x_new))


def test_inst_type_and_the_registry_refuse_a_foreign_theorem():
    a = TypeVariable("'a")
    th = ASSUME(mk_eq(Variable("x", a), Variable("x", a)))
    n, _, repl, _ = _eval_under_binder()
    fact = new_axiom("nei_g_test", mk_not_effective(n, repl))
    session.reset()
    with pytest.raises(KernelError, match="another session"):
        INST_TYPE([(a, num_ty())], th)
    with pytest.raises(KernelError, match="another session"):
        register_not_effective(fact)
    assert (n, repl) not in session.current().nei_registry


# ---------------------------------------------------------------------------
# provenance through the seven premise-taking rules
# ---------------------------------------------------------------------------


def _premise(i, concl, hyps=()):
    """A theorem carrying its own axiom ``ax<i>`` and trusted tag ``tag<i>``."""
    return kernel._thm(
        hyps, concl, axioms=frozenset({f"ax{i}"}), trusted=frozenset({f"tag{i}"})
    )


def _mk_comb():
    f, g = (Variable(name, mk_fun(bool_ty(), bool_ty())) for name in "fg")
    return MK_COMB(_premise(1, mk_eq(f, g)), _premise(2, mk_eq(bv("a"), bv("b"))))


def _abs_with_a_registry_fact():
    # the hypothesis holds an evaluation, so ABS consults the registry
    x, h = bv("x"), Evaluation(ev("g"), bool_ty())
    register_not_effective(_premise(2, mk_not_effective(x, h)))
    return ABS(x, _premise(1, mk_eq(bv("a"), bv("b")), (h,)))


def _inst_with_a_registry_fact():
    n, P, repl, lam = _eval_under_binder()
    register_not_effective(_premise(2, mk_not_effective(n, repl)))
    return INST([(P, repl)], _premise(1, mk_eq(lam, lam)))


def _inst_type():
    a = TypeVariable("'A")
    x = Variable("x", a)
    return INST_TYPE([(a, bool_ty())], _premise(1, mk_eq(x, x)))


# rule -> (number of premises and registry facts, the rule applied to them)
_PROVENANCE = {
    "TRANS": (2, lambda: TRANS(
        _premise(1, mk_eq(bv("a"), bv("b"))), _premise(2, mk_eq(bv("b"), bv("c")))
    )),
    "MK_COMB": (2, _mk_comb),
    "ABS": (2, _abs_with_a_registry_fact),
    "EQ_MP": (2, lambda: EQ_MP(_premise(1, mk_eq(bv("a"), bv("b"))), _premise(2, bv("a")))),
    "DEDUCT_ANTISYM": (2, lambda: DEDUCT_ANTISYM(
        _premise(1, bv("a"), (bv("b"),)), _premise(2, bv("b"), (bv("a"),))
    )),
    "INST": (2, _inst_with_a_registry_fact),
    "INST_TYPE": (1, _inst_type),
}


@pytest.mark.parametrize("rule", sorted(_PROVENANCE))
def test_provenance_is_the_union_of_the_premises(rule):
    n, derive = _PROVENANCE[rule]
    th = derive()
    assert th.axioms == {f"ax{i}" for i in range(1, n + 1)}
    assert th.trusted == {f"tag{i}" for i in range(1, n + 1)}


# Premises whose hypotheses and conclusions hold only template nodes, so
# that nothing but the premise guard can refuse them in a later session;
# and the rule applied to them.
_REFUSAL = {
    "TRANS": (lambda: (REFL(T), REFL(T)), TRANS),
    "MK_COMB": (lambda: (REFL(Abstraction(bv("p"), bv("p"))), REFL(T)), MK_COMB),
    "ABS": (lambda: (REFL(T),), lambda th: ABS(bv("x"), th)),
    "EQ_MP": (lambda: (REFL(T), ASSUME(T)), EQ_MP),
    "DEDUCT_ANTISYM": (lambda: (ASSUME(T), ASSUME(T)), DEDUCT_ANTISYM),
    "INST": (lambda: (REFL(T),), lambda th: INST([(bv("x"), F)], th)),
    "INST_TYPE": (lambda: (REFL(T),), lambda th: INST_TYPE([(TypeVariable("'A"), num_ty())], th)),
}


@pytest.mark.parametrize("rule", sorted(_REFUSAL))
def test_a_premise_from_a_discarded_session_is_refused(rule):
    make, apply = _REFUSAL[rule]
    old = make()
    session.reset()
    assert all(
        t._serial == session.template_serial for th in old for t in (th.concl, *th.hyps)
    )
    apply(*make())  # the same premises, derived in this session
    with pytest.raises(KernelError, match="a premise was derived in another session"):
        apply(*old)


# ---------------------------------------------------------------------------
# rule soundness under fuzzing: theorems stay boolean
# ---------------------------------------------------------------------------


def test_every_rule_yields_boolean_sequents():
    gen = TermGen(seed=99, evals=True, holes=True)
    rules = [
        lambda: REFL(gen.term(depth=2)),
        lambda: ASSUME(gen.term(bool_ty(), depth=2)),
        lambda: BETA(_beta_redex(gen)),
        lambda: LAW_OF_QUO(Quotation(gen.eval_free(depth=2))),
        lambda: QUO_STEP(Quotation(gen.eval_free(depth=2))),
        # a naked hole, which no sequent may hold
        lambda: REFL(Hole(Quotation(gen.eval_free(depth=1)), gen.type(1))),
    ]
    made = 0
    for i in range(240):
        rule = rules[i % len(rules)]
        try:
            th = rule()
        except KernelError:
            continue
        made += 1
        for t in (th.concl, *th.hyps):
            assert t.ty == bool_ty() and not t.has_naked_hole
    assert made > 100


def _beta_redex(gen):
    ty = gen.type(1)
    x = gen.var(ty)
    return Application(Abstraction(x, gen.eval_free(bool_ty(), 2)), x)


# ---------------------------------------------------------------------------
# the documented rule list
# ---------------------------------------------------------------------------


def _rule_names(text):
    return set(re.findall(r"`([A-Z][A-Z0-9_]*)`", text))


def test_the_documented_primitive_rules_are_the_kernel_rules():
    rules = {
        name for name, v in vars(kernel).items()
        if name.isupper() and callable(v) and v.__module__ == kernel.__name__
    }
    readme = Path(__file__).resolve().parents[1] / "README.md"
    row = next(
        line for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `cqe.kernel` |")
    )
    assert _rule_names(kernel.__doc__) == rules
    assert _rule_names(row) == rules
