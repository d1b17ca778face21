"""Derived rules, the bootstrap theory, and the decision conversions."""

import pytest

from cqe import kernel, logic, session
from cqe.constructions import term_to_construction, type_to_construction
from cqe.errors import (
    ContainsHole,
    CqeError,
    FreeOccurrence,
    IllTyped,
    KernelError,
    NotAConstruction,
    NotAtomicQuote,
    NotAVariable,
    NotClosed,
    NotEvalFree,
    TypeMismatch,
    UnknownName,
    WrongShape,
)
from cqe.frontend import parse_term, print_term
from cqe.kernel import (
    ABS,
    ASSUME,
    DISQUO,
    EQ_MP,
    INST,
    INST_TYPE,
    REFL,
    TRANS,
    dest_eq,
    mk_conj,
    mk_disj,
    mk_eq,
    mk_imp,
    mk_neg,
    mk_not_effective,
    new_axiom,
    new_constant,
    new_type_constructor,
    register_not_effective,
)
from cqe.logic import (
    AP_TERM,
    AP_THM,
    BETA_CONV,
    BETA_EVAL,
    CONJ,
    CONJUNCT1,
    CONJUNCT2,
    CONST_DISQUO,
    DISCH,
    DISJ1,
    DISJ2,
    DISJ_CASES,
    EQT_ELIM,
    EQT_INTRO,
    EVAL_CONV,
    GEN,
    IS_EXPR_TYPE_CONV,
    IS_FREE_IN_CONV,
    IS_PEANO_CONV,
    IS_PRESBURGER_CONV,
    MP,
    NOT_ELIM,
    NOT_INTRO,
    PROVE_HYP,
    SPEC,
    SUBS,
    SYM,
    UNDISCH,
    VAR_DISQUO,
    theorem,
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
    type_ty,
    variables_in,
)

from genterms import TermGen


T = Constant("T", bool_ty())
F = Constant("F", bool_ty())


def bv(name):
    return Variable(name, bool_ty())


# ---------------------------------------------------------------------------
# the bootstrap theory
# ---------------------------------------------------------------------------


def test_bootstrap_names_present():
    s = session.current()
    for name in ("T", "F", "/\\", "\\/", "==>", "~", "!", "?"):
        assert name in s.constants
    for name in ("TRUTH", "EXCLUDED_MIDDLE", "num_INDUCTION"):
        assert name in s.theorems


def test_truth_and_excluded_middle():
    truth = theorem("TRUTH")
    assert truth.concl == T and not truth.hyps
    lem = theorem("EXCLUDED_MIDDLE")
    p = bv("p")
    assert lem.concl == mk_disj(p, mk_neg(p))
    assert lem.axioms == {"BOOL_CASES_AX"}
    assert not lem.trusted


def test_num_induction_statement():
    th = theorem("num_INDUCTION")
    want = parse_term(
        "!P:(num->bool). P _0 /\\ (!n:num. P n ==> P (SUC n))"
        " ==> (!n:num. P n)"
    )
    assert alpha_equivalent(th.concl, want)
    assert th.axioms == {"num_INDUCTION"}


def test_datatype_facts_are_axiomatic_and_shaped():
    # one distinctness conjunct per unordered pair of the five term
    # constructors: C(5,2) = 10
    distinct = theorem("epsilon_distinct")
    assert _count_conjuncts(distinct.concl) == 10
    assert _count_conjuncts(theorem("type_distinct").concl) == 6
    for name in (
        "epsilon_distinct",
        "epsilon_injective",
        "epsilon_induction",
        "type_distinct",
        "type_injective",
        "type_induction",
    ):
        assert theorem(name).axioms == {name}


# The six datatype axioms as printed when the constructor table was first
# shared between constructions and logic; regenerating them must not change
# a single axiom.
FROZEN_DATATYPE_AXIOMS = {
    "epsilon_distinct": (
        "(!s:str. !t:type. !s':str. !t':type. ~QuoVar s t = QuoConst s' t') /\\ "
        "(!s:str. !t:type. !a':epsilon. !a1':epsilon. ~QuoVar s t = App a' a1') /\\ "
        "(!s:str. !t:type. !a':epsilon. !a1':epsilon. ~QuoVar s t = Abs a' a1') /\\ "
        "(!s:str. !t:type. !a':epsilon. ~QuoVar s t = Quo a') /\\ "
        "(!s:str. !t:type. !a':epsilon. !a1':epsilon. ~QuoConst s t = App a' a1') /\\ "
        "(!s:str. !t:type. !a':epsilon. !a1':epsilon. ~QuoConst s t = Abs a' a1') /\\ "
        "(!s:str. !t:type. !a':epsilon. ~QuoConst s t = Quo a') /\\ "
        "(!a:epsilon. !a1:epsilon. !a':epsilon. !a1':epsilon. ~App a a1 = Abs a' a1') /\\ "
        "(!a:epsilon. !a1:epsilon. !a':epsilon. ~App a a1 = Quo a') /\\ "
        "(!a:epsilon. !a1:epsilon. !a':epsilon. ~Abs a a1 = Quo a')"
    ),
    "epsilon_injective": (
        "(!s:str. !t:type. !s':str. !t':type. "
        "QuoVar s t = QuoVar s' t' ==> s = s' /\\ t = t') /\\ "
        "(!s:str. !t:type. !s':str. !t':type. "
        "QuoConst s t = QuoConst s' t' ==> s = s' /\\ t = t') /\\ "
        "(!a:epsilon. !a1:epsilon. !a':epsilon. !a1':epsilon. "
        "App a a1 = App a' a1' ==> a = a' /\\ a1 = a1') /\\ "
        "(!a:epsilon. !a1:epsilon. !a':epsilon. !a1':epsilon. "
        "Abs a a1 = Abs a' a1' ==> a = a' /\\ a1 = a1') /\\ "
        "(!a:epsilon. !a':epsilon. Quo a = Quo a' ==> a = a')"
    ),
    "epsilon_induction": (
        "!P:(epsilon->bool). (!s:str. !t:type. P (QuoVar s t)) /\\ "
        "(!s:str. !t:type. P (QuoConst s t)) /\\ "
        "(!a:epsilon. !a1:epsilon. P a /\\ P a1 ==> P (App a a1)) /\\ "
        "(!a:epsilon. !a1:epsilon. P a /\\ P a1 ==> P (Abs a a1)) /\\ "
        "(!a:epsilon. P a ==> P (Quo a)) ==> (!e:epsilon. P e)"
    ),
    "type_distinct": (
        "(!s:str. !s':str. ~TyVar s = TyBase s') /\\ "
        "(!s:str. !s':str. !t':type. ~TyVar s = TyMonoCons s' t') /\\ "
        "(!s:str. !s':str. !t':type. !t1':type. ~TyVar s = TyBiCons s' t' t1') /\\ "
        "(!s:str. !s':str. !t':type. ~TyBase s = TyMonoCons s' t') /\\ "
        "(!s:str. !s':str. !t':type. !t1':type. ~TyBase s = TyBiCons s' t' t1') /\\ "
        "(!s:str. !t:type. !s':str. !t':type. !t1':type. ~TyMonoCons s t = TyBiCons s' t' t1')"
    ),
    "type_injective": (
        "(!s:str. !s':str. TyVar s = TyVar s' ==> s = s') /\\ "
        "(!s:str. !s':str. TyBase s = TyBase s' ==> s = s') /\\ "
        "(!s:str. !t:type. !s':str. !t':type. "
        "TyMonoCons s t = TyMonoCons s' t' ==> s = s' /\\ t = t') /\\ "
        "(!s:str. !t:type. !t1:type. !s':str. !t':type. !t1':type. "
        "TyBiCons s t t1 = TyBiCons s' t' t1' ==> s = s' /\\ t = t' /\\ t1 = t1')"
    ),
    "type_induction": (
        "!P:(type->bool). (!s:str. P (TyVar s)) /\\ (!s:str. P (TyBase s)) /\\ "
        "(!s:str. !t:type. P t ==> P (TyMonoCons s t)) /\\ "
        "(!s:str. !t:type. !t1:type. P t /\\ P t1 ==> P (TyBiCons s t t1)) "
        "==> (!e:type. P e)"
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DATATYPE_AXIOMS))
def test_datatype_axioms_match_frozen_text(name):
    assert print_term(theorem(name).concl) == FROZEN_DATATYPE_AXIOMS[name]


def _count_conjuncts(t):
    head = t
    n = 1
    while (
        isinstance(head, Application)
        and isinstance(head.fn, Application)
        and isinstance(head.fn.fn, Constant)
        and head.fn.fn.name == "/\\"
    ):
        n += 1
        head = head.arg
    return n


def test_theorem_lookup():
    assert theorem("TRUTH").concl == T
    with pytest.raises(KernelError):
        theorem("no_such_theorem")


# ---------------------------------------------------------------------------
# equality and propositional rules
# ---------------------------------------------------------------------------


def test_sym_and_ap():
    p = bv("p")
    eq = ASSUME(mk_eq(p, T))
    assert SYM(eq).concl == mk_eq(T, p)
    neg = Constant("~", mk_fun(bool_ty(), bool_ty()))
    assert AP_TERM(neg, eq).concl == mk_eq(Application(neg, p), Application(neg, T))
    f = Variable("f", mk_fun(bool_ty(), num_ty()))
    g = Variable("g", mk_fun(bool_ty(), num_ty()))
    eq2 = ASSUME(mk_eq(f, g))
    assert AP_THM(eq2, T).concl == mk_eq(Application(f, T), Application(g, T))


def test_beta_conv_handles_any_argument():
    x, y = bv("x"), bv("y")
    redex = Application(Abstraction(x, mk_conj(x, y)), T)
    th = BETA_CONV(redex)
    assert th.concl == mk_eq(redex, mk_conj(T, y))
    with pytest.raises(WrongShape):
        BETA_CONV(T)


def test_eqt_intro_elim():
    p = bv("p")
    th = ASSUME(p)
    eq = EQT_INTRO(th)
    assert eq.concl == mk_eq(p, T)
    back = EQT_ELIM(eq)
    assert back.concl == p


def test_prove_hyp_and_subs():
    p, q = bv("p"), bv("q")
    th = ASSUME(p)
    discharged = PROVE_HYP(theorem("TRUTH"), th)
    assert discharged.hyps == {p}  # T was not among the hypotheses: no-op
    eq = ASSUME(mk_eq(p, q))
    subbed = SUBS(eq, ASSUME(mk_conj(p, p)))
    assert subbed.concl == mk_conj(q, q)


def test_prove_hyp_discharges_a_hypothesis_equal_only_up_to_renaming():
    y = Variable("y", num_ty())
    ath = GEN(y, REFL(y))  # |- !y:num. y = y
    bth = ASSUME(parse_term("!x:num. x = x"))
    assert ath.concl not in bth.hyps and alpha_equivalent(ath.concl, bth.concl)
    out = PROVE_HYP(ath, bth)
    assert out.concl is bth.concl and out.hyps == frozenset()


def test_mp_conj_disj():
    p, q = bv("p"), bv("q")
    imp = ASSUME(mk_imp(p, q))
    out = MP(imp, ASSUME(p))
    assert out.concl == q and out.hyps == {mk_imp(p, q), p}
    both = CONJ(ASSUME(p), ASSUME(q))
    assert both.concl == mk_conj(p, q)
    assert CONJUNCT1(both).concl == p
    assert CONJUNCT2(both).concl == q
    assert DISJ1(ASSUME(p), q).concl == mk_disj(p, q)
    assert DISJ2(p, ASSUME(q)).concl == mk_disj(p, q)
    with pytest.raises(WrongShape, match="antecedent"):
        MP(imp, ASSUME(q))


def test_disch_undisch():
    p, q = bv("p"), bv("q")
    th = DISCH(p, ASSUME(q))
    assert th.concl == mk_imp(p, q) and th.hyps == {q}
    # discharging something not among the hypotheses is allowed
    th2 = DISCH(p, theorem("TRUTH"))
    assert th2.concl == mk_imp(p, T) and not th2.hyps
    assert UNDISCH(th2).hyps == {p}


def test_disj_cases():
    p, q, r = bv("p"), bv("q"), bv("r")
    d = ASSUME(mk_disj(p, q))
    case = ASSUME(r)
    out = DISJ_CASES(d, case, case)
    assert out.concl == r
    assert mk_disj(p, q) in out.hyps
    with pytest.raises(WrongShape, match="case conclusions differ"):
        DISJ_CASES(d, case, ASSUME(p))


def test_not_intro_elim():
    p = bv("p")
    th = ASSUME(mk_imp(p, F))
    n = NOT_INTRO(th)
    assert n.concl == mk_neg(p)
    back = NOT_ELIM(n)
    assert back.concl == mk_imp(p, F)
    # an implication into anything but F: EQ_MP refuses the unfolding
    with pytest.raises(WrongShape, match="left side does not match"):
        NOT_INTRO(ASSUME(mk_imp(p, T)))


def test_a_missing_support_theorem_is_a_kernel_error():
    # the current session's basis is its own copy of the template's
    del session.current().basis["not_eq"]
    with pytest.raises(KernelError, match="bootstrap incomplete"):
        NOT_ELIM(ASSUME(mk_neg(T)))


# ---------------------------------------------------------------------------
# quantifier rules
# ---------------------------------------------------------------------------


def test_spec_on_plain_predicates():
    th = theorem("num_INDUCTION")
    P = Variable("P", mk_fun(num_ty(), bool_ty()))
    out = SPEC(P, th)
    want = parse_term(
        "P:(num->bool) _0 /\\ (!n:num. P n ==> P (SUC n)) ==> (!n:num. P n)"
    )
    assert alpha_equivalent(out.concl, want)


def test_spec_with_abstraction_reduces_only_the_head_redex():
    n = Variable("n", num_ty())
    pred = Abstraction(n, mk_eq(n, n))
    out = SPEC(pred, theorem("num_INDUCTION"))
    want = parse_term(
        "(\\n:num. n = n) _0 /\\ (!n:num. (\\n:num. n = n) n"
        " ==> (\\n:num. n = n) (SUC n)) ==> (!n:num. (\\n:num. n = n) n)"
    )
    assert alpha_equivalent(out.concl, want)


def test_gen_and_spec_round_trip():
    p = bv("p")
    th = GEN(p, REFL(p))
    assert alpha_equivalent(th.concl, parse_term("!p:bool. p = p"))
    inst = SPEC(T, th)
    assert inst.concl == mk_eq(T, T)


def test_gen_refuses_variables_free_in_hypotheses():
    p = bv("p")
    with pytest.raises(FreeOccurrence):
        GEN(p, ASSUME(p))


def test_spec_suspends_at_quotation_argument():
    # specializing a quantified evaluation at a quotation leaves suspended
    # redexes rather than pushing the quotation inside the eval
    x = Variable("x", epsilon_ty())
    lem_style = GEN(
        x,
        INST(
            [(bv("p"), Evaluation(x, bool_ty()))],
            theorem("EXCLUDED_MIDDLE"),
        ),
    )
    q = Quotation(mk_disj(T, F))
    out = SPEC(q, lem_style)
    susp = Application(Abstraction(x, Evaluation(x, bool_ty())), q)
    assert out.concl == mk_disj(susp, mk_neg(susp))


# Reference oracles: SPEC and GEN derived from the unfolded FORALL_DEF,
# (!) P = (P = \x. T), on every call.


def _spec_by_forall_def(t, th):
    f = th.concl.arg
    alpha = f.ty.arguments[0]
    pth = INST_TYPE(((TypeVariable("'A"), alpha),), session.current().basis["spec"])
    pth = INST(((Variable("P", mk_fun(alpha, bool_ty())), f),), pth)
    th2 = EQ_MP(pth, th)
    lam_t = dest_eq(th2.concl)[1]
    th3 = AP_THM(th2, t)
    th4 = TRANS(th3, BETA_CONV(Application(lam_t, t)))
    if isinstance(f, Abstraction):
        lred = BETA_CONV(Application(f, t))
        return EQT_ELIM(TRANS(SYM(lred), th4))
    return EQT_ELIM(th4)


def _gen_by_forall_def(x, th):
    ath = ABS(x, EQT_INTRO(th))
    pth = INST_TYPE(((TypeVariable("'A"), x.ty),), session.current().basis["spec"])
    lam = Abstraction(x, th.concl)
    pth2 = INST(((Variable("P", mk_fun(x.ty, bool_ty())), lam),), pth)
    return EQ_MP(SYM(pth2), ath)


def _outcome(rule, *args):
    try:
        return rule(*args)
    except CqeError as e:
        return type(e)


def _same(rule, oracle, *args):
    """Apply rule and its oracle; assert the same theorem or the same error
    class, and return the rule's outcome."""
    new, old = _outcome(rule, *args), _outcome(oracle, *args)
    if isinstance(old, type):
        assert new is old
    else:
        assert new.concl is old.concl
        assert new.hyps == old.hyps
        assert new.axioms == old.axioms
        assert new.trusted == old.trusted
    return new


def test_spec_and_gen_agree_with_unfolding_forall_def():
    checked = 0
    for seed in range(60):
        gen = TermGen(seed, evals=seed % 2 == 1)
        body = gen.term(bool_ty(), depth=3)
        frees = sorted(_frees(body), key=lambda v: v.name)
        xs = (frees + [gen.var(gen.type(1)) for _ in range(3)])[: 1 + seed % 3]
        th = REFL(body)
        for x in reversed(xs):
            th = _same(GEN, _gen_by_forall_def, x, th)
            assert not isinstance(th, type)
        th = ASSUME(th.concl)
        for x in xs:
            th = _same(SPEC, _spec_by_forall_def, gen.term(x.ty, depth=2), th)
            if isinstance(th, type):
                break
            checked += 1
    assert checked >= 60


def test_spec_under_registered_not_effective_facts_agrees():
    # the binder_chain pattern: SPEC of x1 suspends its substitution into the
    # evaluation, and the registered fact for x2 keeps the next SPEC out of it
    n = num_ty()
    ev = Evaluation(Variable("e", epsilon_ty()), bool_ty())
    for name in ("x1", "x2"):
        register_not_effective(
            new_axiom(f"nei_{name}", mk_not_effective(Variable(name, n), ev))
        )
    th = ASSUME(parse_term(
        "!x1:num. !x2:num. (x1 = x2) /\\ (SUC x2 = (+) x1 c:num)"
        " /\\ eval e:epsilon to bool"
    ))
    for t in ("_0", "SUC y2:num"):
        th = _same(SPEC, _spec_by_forall_def, parse_term(t), th)
    assert th.axioms == {"nei_x2"}
    assert th.concl == parse_term(
        "(_0 = SUC y2:num) /\\ (SUC (SUC y2) = (+) _0 c:num)"
        " /\\ (\\x1:num. eval e:epsilon to bool) _0"
    )


def test_spec_and_gen_agree_on_edge_cases():
    n = num_ty()
    a = TypeVariable("'a")
    pn = Variable("P", mk_fun(n, bool_ty()))
    forall_p = Application(
        Constant("!", mk_fun(mk_fun(n, bool_ty()), bool_ty())), pn
    )
    refl_n = parse_term("!n:num. n = n")
    zero = parse_term("_0")
    # an argument that forces the inner binder to be renamed
    out = _same(SPEC, _spec_by_forall_def, Variable("y", n),
                ASSUME(parse_term("!x:num. !y:num. x = y")))
    assert out.concl.arg.var != Variable("y", n)
    # a quantified variable, not an abstraction
    out = _same(SPEC, _spec_by_forall_def, Variable("m", n), ASSUME(forall_p))
    assert out.concl == Application(pn, Variable("m", n))
    # a binder of a type variable
    xa = Variable("x", a)
    _same(SPEC, _spec_by_forall_def, Variable("y", a),
          ASSUME(parse_term("!x:'a. x = x")))
    _same(GEN, _gen_by_forall_def, xa, REFL(xa))
    # a premise that already has the instance among its hypotheses
    for all_f, t in ((refl_n, zero), (forall_p, Variable("m", n))):
        ft = Application(all_f.arg, t)
        th = CONJUNCT1(CONJ(ASSUME(all_f), ASSUME(ft)))
        out = _same(SPEC, _spec_by_forall_def, t, th)
        assert out.hyps == {all_f, ft}


def test_spec_refusals_keep_their_classes():
    th = ASSUME(parse_term("!n:num. n = n"))
    with pytest.raises(IllTyped):
        SPEC(T, th)
    with pytest.raises(WrongShape):
        SPEC(T, theorem("TRUTH"))
    with pytest.raises(ContainsHole, match="cannot substitute"):
        SPEC(Hole(Variable("c", epsilon_ty()), num_ty()), th)


def test_spec_at_an_abstraction_makes_few_kernel_rule_applications(monkeypatch):
    calls = []

    def counted(name, rule):
        def wrapper(*args):
            calls.append(name)
            return rule(*args)

        return wrapper

    for name, rule in list(vars(logic).items()):
        if name.isupper() and getattr(rule, "__module__", None) == "cqe.kernel":
            monkeypatch.setattr(logic, name, counted(name, rule))
    th = ASSUME(parse_term("!n:num. n = n"))
    out = SPEC(parse_term("SUC _0"), th)
    assert out.concl == parse_term("SUC _0 = SUC _0")
    assert len(calls) <= 8, calls


# Reference oracles: SPEC and GEN taking INST_TYPE of their support theorem
# on every call, as they did before the per-session memo of typed support
# theorems (logic._typed_basis).


def _spec_inst_every_call(t, th):
    f = th.concl.arg
    alpha = f.ty.arguments[0]
    ft = Application(f, t)
    pth = INST_TYPE(((TypeVariable("'A"), alpha),), session.current().basis["spec_elim"])
    P, x = Variable("P", mk_fun(alpha, bool_ty())), Variable("x", alpha)
    pth = PROVE_HYP(th, INST(((P, f), (x, t)), pth))
    return EQ_MP(BETA_CONV(ft), pth) if isinstance(f, Abstraction) else pth


def _gen_inst_every_call(x, th):
    ath = ABS(x, EQT_INTRO(th))
    pth = INST_TYPE(((TypeVariable("'A"), x.ty),), session.current().basis["gen"])
    lam = Abstraction(x, th.concl)
    pth = INST(((Variable("P", mk_fun(x.ty, bool_ty())), lam),), pth)
    return EQ_MP(pth, ath)


def test_spec_and_gen_take_inst_type_once_per_session(monkeypatch):
    calls = []

    def counted(pairs, th):
        calls.append(th)
        return INST_TYPE(pairs, th)

    monkeypatch.setattr(logic, "INST_TYPE", counted)
    for _ in range(2):  # the memo does not outlive reset()
        s = session.reset()
        a = TypeVariable("'memo")  # a type the bootstrap never specialises at
        assert ("spec_elim", a) not in s.basis and ("gen", a) not in s.basis
        calls.clear()
        xs = [Variable(f"m{i}", a) for i in range(4)]
        th = REFL(xs[0])
        for x in xs:
            th = _same(GEN, _gen_inst_every_call, x, th)
        for x in reversed(xs):
            th = _same(SPEC, _spec_inst_every_call, Variable("y", a), th)
        assert th.concl is mk_eq(Variable("y", a), Variable("y", a))
        assert [c is s.basis["gen"] for c in calls] == [True, False]
        assert calls[1] is s.basis["spec_elim"]


def test_spec_and_gen_agree_with_inst_type_on_every_call():
    checked = 0
    for seed in range(40):
        session.reset()
        gen = TermGen(seed, evals=seed % 2 == 1)
        body = gen.term(bool_ty(), depth=3)
        frees = sorted(_frees(body), key=lambda v: v.name)
        xs = (frees + [gen.var(gen.type(1)) for _ in range(3)])[: 1 + seed % 3]
        th = REFL(body)
        for x in reversed(xs):  # the memo is warm from the second call at a type on
            th = _same(GEN, _gen_inst_every_call, x, th)
        th = ASSUME(th.concl)
        for _ in range(2):
            for x in xs:
                out = _same(SPEC, _spec_inst_every_call, gen.term(x.ty, depth=2), th)
                checked += not isinstance(out, type)
    assert checked >= 60


# Reference oracles: BETA_EVAL, VAR_DISQUO, CONST_DISQUO and the dispatching
# DISQUO as they were when all four were kernel primitives.


def _beta_eval_primitive(x, b, beta):
    if not isinstance(x, Variable):
        raise NotAVariable("BETA_EVAL needs the bound variable")
    kernel._want_epsilon(b, "the evaluated construction")
    ev = Evaluation(b, beta)
    return kernel._thm((), mk_eq(Application(Abstraction(x, ev), x), ev))


def _var_disquo_primitive(q):
    if not isinstance(q, Quotation) or not isinstance(q.body, Variable):
        raise NotAtomicQuote("expected the quotation of a variable")
    return kernel._thm((), mk_eq(Evaluation(q, q.body.ty), q.body))


def _const_disquo_primitive(q):
    if not isinstance(q, Quotation) or not isinstance(q.body, Constant):
        raise NotAtomicQuote("expected the quotation of a constant")
    return kernel._thm((), mk_eq(Evaluation(q, q.body.ty), q.body))


def _disquo_dispatch(q, ty=None):
    if not isinstance(q, Quotation) or not isinstance(q.body, (Variable, Constant)):
        raise NotAtomicQuote("expected the quotation of a variable or constant")
    if ty is not None and ty != q.body.ty:
        raise TypeMismatch("stated type differs from the quoted atom's type")
    if isinstance(q.body, Variable):
        return _var_disquo_primitive(q)
    return _const_disquo_primitive(q)


def test_beta_eval_agrees_with_the_primitive_rule():
    made = refused = 0
    for seed in range(80):
        gen = TermGen(seed, evals=seed % 2 == 0, holes=seed % 3 == 0)
        xty = gen.type(1)
        x = gen.var(xty)
        beta = gen.type(2)
        cases = [
            (x, gen.term(epsilon_ty(), depth=1 + seed % 3), beta),
            (gen.term(xty, depth=1), gen.term(epsilon_ty(), depth=1), beta),
            (x, gen.term(gen.type(1), depth=1), beta),
            (x, Hole(gen.term(epsilon_ty(), depth=1), epsilon_ty()), beta),
        ]
        for args in cases:
            out = _same(BETA_EVAL, _beta_eval_primitive, *args)
            if isinstance(out, type):
                refused += 1
            else:
                made += 1
    assert made >= 80 and refused >= 120


def test_disquotation_rules_agree_with_the_primitive_rules():
    outcomes = {"var": 0, "const": 0, "refused": 0}
    for seed in range(80):
        gen = TermGen(seed)
        ty = gen.type(1)
        atoms = (gen.var(ty), gen.term(bool_ty(), depth=0), gen.term(num_ty(), depth=0))
        for t in atoms + (gen.eval_free(ty, depth=2),):
            q = Quotation(t)
            for arg in (q, t):
                _same(VAR_DISQUO, _var_disquo_primitive, arg)
                _same(CONST_DISQUO, _const_disquo_primitive, arg)
                for stated in (None, t.ty, gen.type(1)):
                    out = _same(DISQUO, _disquo_dispatch, arg, stated)
                    if isinstance(out, type):
                        outcomes["refused"] += 1
                    elif isinstance(t, Variable):
                        outcomes["var"] += 1
                    else:
                        outcomes["const"] += 1
    assert min(outcomes.values()) >= 40, outcomes


# ---------------------------------------------------------------------------
# decision conversions
# ---------------------------------------------------------------------------


def test_is_expr_type_conv_positive_and_negative():
    c = Quotation(mk_disj(T, F))
    tyc = type_to_construction(bool_ty())
    is_expr = Constant(
        "isExprType", mk_fun(epsilon_ty(), mk_fun(type_ty(), bool_ty()))
    )
    th = IS_EXPR_TYPE_CONV(c, tyc)
    assert th.concl == Application(Application(is_expr, c), tyc)
    assert th.trusted == {"IS_EXPR_TYPE_CONV"}
    neg = IS_EXPR_TYPE_CONV(c, type_to_construction(num_ty()))
    assert neg.concl == mk_neg(
        Application(Application(is_expr, c), type_to_construction(num_ty()))
    )


def test_is_expr_type_conv_decides_a_quote_less_type_variable_false():
    # TyVar "A" names no type variable (a parsed one is 'A), so the variable
    # construction is improper and denotes no term of any type
    is_expr = Constant(
        "isExprType", mk_fun(epsilon_ty(), mk_fun(type_ty(), bool_ty()))
    )
    for name, holds in (("A", False), ("'A", True)):
        c = parse_term(f'QuoVar "x" (TyVar "{name}")')
        tyc = parse_term(f'TyVar "{name}"')
        claim = Application(Application(is_expr, c), tyc)
        assert IS_EXPR_TYPE_CONV(c, tyc).concl == (claim if holds else mk_neg(claim))


def test_is_expr_type_conv_guards():
    free = Variable("c", epsilon_ty())
    with pytest.raises(NotClosed):
        IS_EXPR_TYPE_CONV(free, type_to_construction(bool_ty()))
    with pytest.raises(IllTyped):
        IS_EXPR_TYPE_CONV(T, type_to_construction(bool_ty()))
    with pytest.raises(NotEvalFree):
        IS_EXPR_TYPE_CONV(
            Application(
                Abstraction(free, free), Evaluation(Quotation(T), epsilon_ty())
            ),
            type_to_construction(bool_ty()),
        )
    with pytest.raises(ContainsHole):
        IS_EXPR_TYPE_CONV(Hole(Quotation(T), epsilon_ty()), type_to_construction(bool_ty()))


def test_is_free_in_conv():
    x = bv("x")
    pos = IS_FREE_IN_CONV(Quotation(x), Quotation(mk_conj(x, T)))
    want_pos = parse_term("isFreeIn Q_ x:bool _Q Q_ x:bool /\\ T _Q")
    assert pos.concl == want_pos
    neg = IS_FREE_IN_CONV(Quotation(x), Quotation(Abstraction(x, x)))
    assert neg.concl == mk_neg(
        parse_term("isFreeIn Q_ x:bool _Q Q_ \\x:bool. x _Q")
    )
    assert neg.trusted == {"IS_FREE_IN_CONV"}


def test_eval_conv_computes_denotations():
    e = Evaluation(Quotation(mk_conj(T, F)), bool_ty())
    th = EVAL_CONV(e)
    assert th.concl == mk_eq(e, mk_conj(T, F))
    assert th.trusted == {"EVAL_CONV"}
    # open results are fine: the quoted variable is the result
    x = bv("x")
    th2 = EVAL_CONV(Evaluation(Quotation(x), bool_ty()))
    assert th2.concl == mk_eq(Evaluation(Quotation(x), bool_ty()), x)
    # the stated type must be the denoted term's type
    with pytest.raises(TypeMismatch, match="not the stated"):
        EVAL_CONV(Evaluation(Quotation(T), num_ty()))


def test_eval_conv_whnf_normalizes_first():
    x = Variable("x", epsilon_ty())
    e = Evaluation(Application(Abstraction(x, x), Quotation(T)), bool_ty())
    th = EVAL_CONV(e)
    assert th.concl == mk_eq(e, T)


def test_peano_and_presburger_convs():
    num = num_ty()
    n = Variable("n", num)
    nb = mk_fun(num, bool_ty())
    add = Constant("+", mk_fun(num, mk_fun(num, num)))
    mul = Constant("*", mk_fun(num, mk_fun(num, num)))
    suc = Constant("SUC", mk_fun(num, num))
    zero = Constant("_0", num)
    # n + n = n is Presburger (and so Peano)
    pred1 = Abstraction(
        n, mk_eq(Application(Application(add, n), n), n)
    )
    q1 = Quotation(pred1)
    assert IS_PEANO_CONV(q1).concl == parse_term("isPeano Q_ \\n:num. (+) n n = n _Q")
    assert IS_PRESBURGER_CONV(q1).concl == parse_term(
        "isPresburger Q_ \\n:num. (+) n n = n _Q"
    )
    # n * n = n mentions multiplication: Peano yes, Presburger no
    pred2 = Abstraction(
        n, mk_eq(Application(Application(mul, n), n), n)
    )
    q2 = Quotation(pred2)
    assert IS_PEANO_CONV(q2).concl.fn.name == "isPeano"
    pres = IS_PRESBURGER_CONV(q2)
    assert pres.concl == mk_neg(
        Application(Constant("isPresburger", mk_fun(epsilon_ty(), bool_ty())), q2)
    )
    # a predicate over the wrong type is not arithmetic at all
    pred3 = Abstraction(bv("p"), bv("p"))
    assert IS_PEANO_CONV(Quotation(pred3)).concl.fn.name == "~"


def test_arithmetic_convs_read_the_predicate_closed():
    # \m. m = n names a different predicate for every n, so a free n is
    # not first-order arithmetic; an n bound inside the predicate is
    for conv, name in ((IS_PEANO_CONV, "isPeano"), (IS_PRESBURGER_CONV, "isPresburger")):
        opened = parse_term("Q_ \\m:num. m = n:num _Q")
        assert conv(opened).concl == mk_neg(Application(
            Constant(name, mk_fun(epsilon_ty(), bool_ty())), opened
        ))
        closed = parse_term("Q_ \\m:num. ?n:num. m = n _Q")
        assert conv(closed).concl == parse_term(f"{name} {print_term(closed)}")


def test_arithmetic_verdicts_on_connectives_foreign_constants_and_ill_formed_trees():
    def verdict(conv, text):
        c = parse_term(text)
        concl = conv(c).concl
        name = "isPeano" if conv is IS_PEANO_CONV else "isPresburger"
        stmt = Application(Constant(name, mk_fun(epsilon_ty(), bool_ty())), c)
        assert concl in (stmt, mk_neg(stmt)), concl
        return concl is stmt

    assert verdict(IS_PEANO_CONV, "Q_ \\n:num. n = n /\\ ~(n = _0) _Q")
    refuted = (
        "Q_ \\n:num. T _Q",  # a constant outside the arithmetic signature
        "Q_ \\n:num. (<=) n n _Q",
        'QuoVar "n" (TyBase "num")',  # a term, but not a predicate
        'App (QuoConst "SUC" (TyBase "num")) (QuoConst "_0" (TyBase "num"))',
        # an ill-typed application denotes no term at all
        'App (QuoConst "_0" (TyBase "num")) (QuoConst "_0" (TyBase "num"))',
    )
    for text in refuted:
        assert not verdict(IS_PEANO_CONV, text), text
    assert not verdict(IS_PRESBURGER_CONV, "Q_ \\n:num. (*) n n = n _Q")
    # no predicate a construction denotes holds a node of another kind where
    # a number or a truth value is read, so only a direct call reaches it
    zero = Constant("_0", num_ty())
    for t in (Quotation(zero), Evaluation(Quotation(zero), num_ty())):
        assert not logic._arith_term_ok(t, True, frozenset())


def test_predicate_type_facts_are_named_axioms():
    for name, pred in (("PEANO_PRED_TYPE", "isPeano"), ("PRESBURGER_PRED_TYPE", "isPresburger")):
        th = theorem(name)
        assert th is session.current().theorems[name]
        assert th.axioms == {name} and not th.trusted
        assert th.concl == parse_term(
            f"!c:epsilon. {pred} c ==> "
            'isExprType c (TyBiCons "fun" (TyBase "num") (TyBase "bool"))'
        )


def test_conv_provenance_tags_flow_through_rules():
    c = Quotation(mk_disj(T, F))
    th = IS_EXPR_TYPE_CONV(c, type_to_construction(bool_ty()))
    combined = CONJ(th, EVAL_CONV(Evaluation(c, bool_ty())))
    assert combined.trusted == {"IS_EXPR_TYPE_CONV", "EVAL_CONV"}


# ---------------------------------------------------------------------------
# refusals: no verdict on what cannot be read, or names no one declared yet
# ---------------------------------------------------------------------------


def _bool_tyc():
    return type_to_construction(bool_ty())


def _is_negated(th):
    return isinstance(th.concl.fn, Constant) and th.concl.fn.name == "~"


def test_is_expr_type_conv_refuses_an_uninterpreted_constant():
    # an axiom k = Q_ T _Q is satisfiable, so no verdict may rest on k
    new_constant("k", epsilon_ty())
    with pytest.raises(NotAConstruction):
        IS_EXPR_TYPE_CONV(parse_term("k"), _bool_tyc())


def test_is_free_in_conv_refuses_an_uninterpreted_function():
    new_constant("f", mk_fun(epsilon_ty(), epsilon_ty()))
    with pytest.raises(NotAConstruction):
        IS_FREE_IN_CONV(parse_term("Q_ x:bool _Q"), parse_term("f Q_ x:bool _Q"))


def test_is_expr_type_conv_refuses_an_uninterpreted_type_argument():
    new_constant("tt", type_ty())
    with pytest.raises(NotAConstruction):
        IS_EXPR_TYPE_CONV(Quotation(T), parse_term("tt"))


def test_is_expr_type_conv_refuses_a_name_that_is_not_a_literal():
    new_constant("s", str_ty())
    with pytest.raises(NotAConstruction):
        IS_EXPR_TYPE_CONV(parse_term('QuoVar s (TyBase "bool")'), _bool_tyc())


@pytest.mark.parametrize("conv", [IS_PEANO_CONV, IS_PRESBURGER_CONV])
def test_arithmetic_convs_refuse_an_uninterpreted_constant(conv):
    new_constant("k", epsilon_ty())
    with pytest.raises(NotAConstruction):
        conv(parse_term("k"))


# A hole whose content is an uninterpreted constant has no value to read, so
# every conversion must refuse it: reading the hole as an improper tree would
# decide ~isExprType Q_ H_ k _H:bool _Q (TyBase "bool"), which is false when
# k = Q_ T _Q.
@pytest.mark.parametrize(
    "conv, args",
    [
        (IS_EXPR_TYPE_CONV, ("Q_ H_ k _H:bool _Q", 'TyBase "bool"')),
        (IS_FREE_IN_CONV, ("Q_ x:bool _Q", "Q_ x:bool /\\ H_ k _H:bool _Q")),
        (EVAL_CONV, ("eval Q_ H_ k _H:bool _Q to bool",)),
        (IS_PEANO_CONV, ("Q_ \\n:num. H_ k _H:bool _Q",)),
        (IS_PRESBURGER_CONV, ("Q_ \\n:num. H_ k _H:bool _Q",)),
    ],
    ids=["is-expr-type", "is-free-in", "eval", "peano", "presburger"],
)
def test_convs_refuse_an_uninterpreted_constant_in_a_hole(conv, args):
    new_constant("k", epsilon_ty())
    with pytest.raises(NotAConstruction):
        conv(*map(parse_term, args))


def test_is_free_in_conv_refuses_an_unknown_constant_until_it_is_declared():
    x = parse_term("Q_ x:bool _Q")
    gx = parse_term(
        'App (QuoConst "g" (TyBiCons "fun" (TyBase "bool") (TyBase "bool")))'
        ' (QuoVar "x" (TyBase "bool"))'
    )
    with pytest.raises(UnknownName):
        IS_FREE_IN_CONV(x, gx)
    new_constant("g", mk_fun(bool_ty(), bool_ty()))
    assert not _is_negated(IS_FREE_IN_CONV(x, gx))


def test_is_expr_type_conv_refuses_an_unknown_type_until_it_is_declared():
    foo = parse_term('TyBase "foo"')
    with pytest.raises(UnknownName):
        IS_EXPR_TYPE_CONV(Quotation(T), foo)
    new_type_constructor("foo", 0)
    assert _is_negated(IS_EXPR_TYPE_CONV(Quotation(T), foo))


@pytest.mark.parametrize(
    "c, tyc",
    [
        ('App (QuoConst "T" (TyBase "bool")) (QuoConst "T" (TyBase "bool"))',
         'TyBase "bool"'),
        ('QuoConst "T" (TyBase "num")', 'TyBase "num"'),
        ('QuoVar "x" (TyMonoCons "bool" (TyBase "bool"))', 'TyBase "bool"'),
        ('QuoVar "x" (TyBase "bool")', 'TyBase "fun"'),
        ('QuoVar "x" (TyVar "")', 'TyVar ""'),
    ],
    ids=["ill-typed-application", "constant-at-a-foreign-type",
         "wrong-arity-in-the-term", "wrong-arity-in-the-type", "empty-type-variable"],
)
def test_improper_constructions_are_still_decided_false(c, tyc):
    # these causes cannot change once the names are known, so they are verdicts
    assert _is_negated(IS_EXPR_TYPE_CONV(parse_term(c), parse_term(tyc)))



# ---------------------------------------------------------------------------
# three spellings of one argument get one verdict
# ---------------------------------------------------------------------------


def _spellings(t):
    z = Variable("z", epsilon_ty())
    q = Quotation(t)
    return [q, term_to_construction(t), Application(Abstraction(z, z), q)]


def _verdicts(c, t):
    other = num_ty() if t.ty == bool_ty() else bool_ty()
    absent = Variable("absent", bool_ty())
    out = [
        _is_negated(IS_EXPR_TYPE_CONV(c, type_to_construction(ty)))
        for ty in (t.ty, other)
    ]
    for v in sorted(variables_in(t), key=repr) + [absent]:
        out.append(_is_negated(IS_FREE_IN_CONV(Quotation(v), c)))
    out.append(_is_negated(IS_PEANO_CONV(c)))
    out.append(_is_negated(IS_PRESBURGER_CONV(c)))
    assert EVAL_CONV(Evaluation(c, t.ty)).concl == mk_eq(Evaluation(c, t.ty), t)
    return out


def test_quotation_encoding_and_redex_spellings_agree():
    gen = TermGen(seed=47)
    for _ in range(100):
        t = gen.eval_free(depth=3)
        quoted, encoded, redex = (_verdicts(c, t) for c in _spellings(t))
        assert quoted[0] is False
        assert quoted == encoded == redex
