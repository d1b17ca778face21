"""The logic layer above the kernel.

Everything here is *derived*: connectives are introduced by definition, their
rules are proved once against a handful of schematic variables during
bootstrap, and the rule functions merely instantiate those support theorems
(``SPEC`` instantiates ``spec_elim``, ``(!) P |- P x``, and ``GEN`` ``gen``).
Instantiation replaces schematic variables as leaves, so the derived rules
work uniformly for payloads containing quotations and evaluations — the
delicate substitution cases were already dealt with when the support theorem
was proved over plain variables.  The script rules ``VAR_DISQUO``,
``CONST_DISQUO`` and ``BETA_EVAL`` are instances of the kernel's ``DISQUO``
and ``BETA``.

The module also hosts the trusted conversions: decision procedures for the
syntactic predicates (is-expression-of-type, is-free-in, the arithmetic
language tests) and for evaluating closed constructions.  These do real
computation outside the kernel, so every theorem they produce is branded with
the conversion's name in its ``trusted`` field.  Each passes its closed,
eval-free arguments unchanged to ``constructions.construction_to_term``: an
improper construction is decided False (``EVAL_CONV`` refuses it), and an
argument that cannot be read as a construction, or that names something the
session does not know, is refused with no theorem.
"""

from __future__ import annotations

from itertools import combinations

from . import session
from .constructions import (
    ARG_TYPES,
    CONSTRUCTORS,
    apply_terms,
    construction_to_term,
    constructor_constant,
    is_expr_type_meta,
    is_free_in_meta,
    strip_application,
)
from .errors import (
    ContainsHole,
    IllTyped,
    Improper,
    KernelError,
    NotAtomicQuote,
    NotClosed,
    NotEvalFree,
    TypeMismatch,
    WrongShape,
)
from .kernel import (
    ABS,
    ASSUME,
    BETA,
    DEDUCT_ANTISYM,
    DISQUO,
    EQ_MP,
    INST,
    INST_TYPE,
    MK_COMB,
    REFL,
    TRANS,
    Theorem,
    _want_epsilon,
    dest_conj,
    dest_disj,
    dest_eq,
    dest_imp,
    dest_neg,
    mk_conj,
    mk_disj,
    mk_eq,
    mk_forall,
    mk_imp,
    mk_is_expr_type,
    mk_is_free_in,
    mk_neg,
    new_axiom,
    new_basic_definition,
    new_constant,
    trusted_theorem,
)
from .syntax import (
    Abstraction,
    Application,
    Constant,
    Evaluation,
    HolType,
    Quotation,
    Term,
    TypeVariable,
    Variable,
    _frees,
    alpha_equivalent,
    bool_ty,
    epsilon_ty,
    mk_fun,
    num_ty,
    type_ty,
)


def _basis(name: str) -> Theorem:
    th = session.current().basis.get(name)
    if th is None:
        raise KernelError(f"logic bootstrap incomplete: missing support theorem {name!r}")
    return th


def _typed_basis(name: str, ty: HolType) -> Theorem:
    """``INST_TYPE`` of the support theorem ``name`` at ``'A := ty``, taken
    once per session and kept in its ``basis`` under ``(name, ty)``: types
    are interned, so the memo is exact, and ``reset()`` discards it."""
    basis = session.current().basis
    th = basis.get((name, ty))
    if th is None:
        th = basis[name, ty] = INST_TYPE(((TypeVariable("'A"), ty),), _basis(name))
    return th


def theorem(name: str) -> Theorem:
    """The theorem bound to ``name``: an axiom, a script's definition or
    ``thm``, or a bootstrap theorem (a name is bound once)."""
    th = session.current().theorems.get(name)
    if th is None:
        raise KernelError(f"no theorem named {name!r}")
    return th


# ---------------------------------------------------------------------------
# equality plumbing (kernel-only derivations)
# ---------------------------------------------------------------------------


def SYM(th: Theorem) -> Theorem:
    l, _ = dest_eq(th.concl)
    eqc = th.concl.fn.fn
    lth = REFL(l)
    return EQ_MP(MK_COMB(MK_COMB(REFL(eqc), th), lth), lth)


def AP_TERM(f: Term, th: Theorem) -> Theorem:
    return MK_COMB(REFL(f), th)


def AP_THM(th: Theorem, t: Term) -> Theorem:
    return MK_COMB(th, REFL(t))


def BETA_CONV(tm: Term) -> Theorem:
    if not (isinstance(tm, Application) and isinstance(tm.fn, Abstraction)):
        raise WrongShape("BETA_CONV expects an applied abstraction")
    x = tm.fn.var
    if tm.arg == x:
        return BETA(tm)
    return INST(((x, tm.arg),), BETA(Application(tm.fn, x)))


def PROVE_HYP(ath: Theorem, bth: Theorem) -> Theorem:
    # membership first: the search's length would otherwise depend on the
    # set's order, which follows node addresses
    if ath.concl in bth.hyps or any(alpha_equivalent(h, ath.concl) for h in bth.hyps):
        return EQ_MP(DEDUCT_ANTISYM(ath, bth), ath)
    return bth


def EQT_INTRO(th: Theorem) -> Theorem:
    return DEDUCT_ANTISYM(th, _basis("truth"))


def EQT_ELIM(th: Theorem) -> Theorem:
    return EQ_MP(SYM(th), _basis("truth"))


def SUBS(eqth: Theorem, th: Theorem) -> Theorem:
    """Rewrite with an equation everywhere it matches in live positions.

    Quotations and evaluation contents are left alone: the former denote
    fixed syntax, and there is no congruence principle for the latter.
    """
    l, _ = dest_eq(eqth.concl)

    def conv(t: Term):
        if t == l:
            return eqth
        if isinstance(t, Application):
            fth = conv(t.fn)
            ath = conv(t.arg)
            if fth is None and ath is None:
                return None
            return MK_COMB(fth or REFL(t.fn), ath or REFL(t.arg))
        if isinstance(t, Abstraction):
            bth = conv(t.body)
            if bth is None:
                return None
            return ABS(t.var, bth)
        return None

    cth = conv(th.concl)
    if cth is None:
        return th
    return EQ_MP(cth, th)


# ---------------------------------------------------------------------------
# derived quotation and evaluation rules
# ---------------------------------------------------------------------------


def VAR_DISQUO(q: Term) -> Theorem:
    if not isinstance(q, Quotation) or not isinstance(q.body, Variable):
        raise NotAtomicQuote("expected the quotation of a variable")
    return DISQUO(q)


def CONST_DISQUO(q: Term) -> Theorem:
    if not isinstance(q, Quotation) or not isinstance(q.body, Constant):
        raise NotAtomicQuote("expected the quotation of a constant")
    return DISQUO(q)


def BETA_EVAL(x: Variable, b: Term, beta: HolType) -> Theorem:
    """(\\x. eval b to beta) x  =  eval b to beta, an instance of BETA.

    The trivial-instantiation law for suspended substitutions; b may itself
    contain evaluations.  A non-variable x is refused by Abstraction.
    """
    # checked before Evaluation, which would raise HoleOutsideQuotation
    _want_epsilon(b, "the evaluated construction")
    return BETA(Application(Abstraction(x, Evaluation(b, beta)), x))


# ---------------------------------------------------------------------------
# derived propositional and quantifier rules
# ---------------------------------------------------------------------------

_P = "p"
_Q = "q"
_R = "r"


def _pvar(name: str) -> Variable:
    return Variable(name, bool_ty())


def MP(thi: Theorem, thp: Theorem) -> Theorem:
    a, c = dest_imp(thi.concl)
    if not alpha_equivalent(a, thp.concl):
        raise WrongShape("antecedent does not match the supplied theorem")
    th = INST(((_pvar(_P), a), (_pvar(_Q), c)), _basis("mp"))
    return PROVE_HYP(thp, PROVE_HYP(thi, th))


def CONJ(th1: Theorem, th2: Theorem) -> Theorem:
    th = INST(((_pvar(_P), th1.concl), (_pvar(_Q), th2.concl)), _basis("conj"))
    return PROVE_HYP(th2, PROVE_HYP(th1, th))


def CONJUNCT1(th: Theorem) -> Theorem:
    l, r = dest_conj(th.concl)
    return PROVE_HYP(th, INST(((_pvar(_P), l), (_pvar(_Q), r)), _basis("conjunct1")))


def CONJUNCT2(th: Theorem) -> Theorem:
    l, r = dest_conj(th.concl)
    return PROVE_HYP(th, INST(((_pvar(_P), l), (_pvar(_Q), r)), _basis("conjunct2")))


def DISCH(a: Term, th: Theorem) -> Theorem:
    th1 = CONJ(ASSUME(a), th)
    th2 = CONJUNCT1(ASSUME(mk_conj(a, th.concl)))
    th3 = DEDUCT_ANTISYM(th1, th2)
    imp_eq = INST(((_pvar(_P), a), (_pvar(_Q), th.concl)), _basis("imp_intro"))
    return EQ_MP(imp_eq, th3)


def UNDISCH(th: Theorem) -> Theorem:
    a, _ = dest_imp(th.concl)
    return MP(th, ASSUME(a))


def SPEC(t: Term, th: Theorem) -> Theorem:
    if not (
        isinstance(th.concl, Application)
        and isinstance(th.concl.fn, Constant)
        and th.concl.fn.name == "!"
    ):
        raise WrongShape("SPEC expects a universal theorem")
    f = th.concl.arg
    alpha = f.ty.arguments[0]
    ft = Application(f, t)
    pth = _typed_basis("spec_elim", alpha)
    P, x = Variable("P", mk_fun(alpha, bool_ty())), Variable("x", alpha)
    pth = INST(((P, f), (x, t)), pth)
    pth = PROVE_HYP(th, pth)
    if isinstance(f, Abstraction):
        return EQ_MP(BETA_CONV(ft), pth)
    return pth


def GEN(x: Variable, th: Theorem) -> Theorem:
    ath = ABS(x, EQT_INTRO(th))
    pth = _typed_basis("gen", x.ty)
    lam = Abstraction(x, th.concl)
    pth = INST(((Variable("P", mk_fun(x.ty, bool_ty())), lam),), pth)
    return EQ_MP(pth, ath)


def DISJ1(th: Theorem, q: Term) -> Theorem:
    return PROVE_HYP(th, INST(((_pvar(_P), th.concl), (_pvar(_Q), q)), _basis("disj1")))


def DISJ2(p: Term, th: Theorem) -> Theorem:
    return PROVE_HYP(th, INST(((_pvar(_P), p), (_pvar(_Q), th.concl)), _basis("disj2")))


def DISJ_CASES(thd: Theorem, tha: Theorem, thb: Theorem) -> Theorem:
    l, r = dest_disj(thd.concl)
    if not alpha_equivalent(tha.concl, thb.concl):
        raise WrongShape("the two case conclusions differ")
    s = tha.concl
    th = INST(
        ((_pvar(_P), l), (_pvar(_Q), r), (_pvar(_R), s)), _basis("disj_cases")
    )
    th = PROVE_HYP(thd, th)
    th = PROVE_HYP(DISCH(l, tha), th)
    return PROVE_HYP(DISCH(r, thb), th)


def NOT_INTRO(th: Theorem) -> Theorem:
    # EQ_MP refuses a conclusion other than a ==> F
    a, _ = dest_imp(th.concl)
    eq = INST(((_pvar(_P), a),), _basis("not_eq"))
    return EQ_MP(SYM(eq), th)


def NOT_ELIM(th: Theorem) -> Theorem:
    a = dest_neg(th.concl)
    eq = INST(((_pvar(_P), a),), _basis("not_eq"))
    return EQ_MP(eq, th)


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def _beta_norm(tm: Term) -> Theorem:
    """Equate tm with the result of exhausting its leftmost spine redexes."""
    th = None
    cur = tm
    while isinstance(cur, Application):
        head, args = strip_application(cur)
        if not isinstance(head, Abstraction) or not args:
            break
        step = BETA_CONV(Application(head, args[0]))
        for a in args[1:]:
            step = AP_THM(step, a)
        th = step if th is None else TRANS(th, step)
        cur = dest_eq(step.concl)[1]
    return th if th is not None else REFL(tm)


def _unfold(def_th: Theorem, *args: Term) -> Theorem:
    th = def_th
    for a in args:
        th = AP_THM(th, a)
        th = TRANS(th, BETA_CONV(dest_eq(th.concl)[1]))
    return th


def bootstrap_logic(s) -> None:
    b = bool_ty()
    p, q, r = _pvar("p"), _pvar("q"), _pvar("r")
    A = TypeVariable("'A")

    # truth
    idb = Abstraction(p, p)
    t_def = new_basic_definition("T", mk_eq(idb, idb))
    s.theorems["T_DEF"] = t_def
    T = Constant("T", b)
    truth = EQ_MP(SYM(t_def), REFL(idb))
    s.basis["truth"] = truth
    s.theorems["TRUTH"] = truth

    # conjunction:  p /\ q  is  \f. f p q  =  \f. f T T
    f = Variable("f", mk_fun(b, mk_fun(b, b)))
    and_def = new_basic_definition(
        "/\\",
        Abstraction(
            p,
            Abstraction(
                q,
                mk_eq(
                    Abstraction(f, Application(Application(f, p), q)),
                    Abstraction(f, Application(Application(f, T), T)),
                ),
            ),
        ),
    )
    s.theorems["AND_DEF"] = and_def
    unfold_and = _unfold(and_def, p, q)

    th1 = EQT_INTRO(ASSUME(p))
    th2 = EQT_INTRO(ASSUME(q))
    th3 = ABS(f, MK_COMB(MK_COMB(REFL(f), th1), th2))
    s.basis["conj"] = EQ_MP(SYM(unfold_and), th3)

    av, bv = Variable("a", b), Variable("b", b)
    for name, sel in (
        ("conjunct1", Abstraction(av, Abstraction(bv, av))),
        ("conjunct2", Abstraction(av, Abstraction(bv, bv))),
    ):
        ath = EQ_MP(unfold_and, ASSUME(mk_conj(p, q)))
        ath = AP_THM(ath, sel)
        lred = _beta_norm(dest_eq(ath.concl)[0])
        rred = _beta_norm(dest_eq(ath.concl)[1])
        s.basis[name] = EQT_ELIM(TRANS(SYM(lred), TRANS(ath, rred)))

    # implication:  p ==> q  is  (p /\ q) = p
    imp_def = new_basic_definition(
        "==>", Abstraction(p, Abstraction(q, mk_eq(mk_conj(p, q), p)))
    )
    s.theorems["IMP_DEF"] = imp_def
    unfold_imp = _unfold(imp_def, p, q)
    s.basis["imp_intro"] = SYM(unfold_imp)

    peq = EQ_MP(unfold_imp, ASSUME(mk_imp(p, q)))
    pq = EQ_MP(SYM(peq), ASSUME(p))
    s.basis["mp"] = PROVE_HYP(pq, s.basis["conjunct2"])

    # universal quantifier:  ! P  is  P = \x. T
    P = Variable("P", mk_fun(A, bool_ty()))
    x = Variable("x", A)
    forall_def = new_basic_definition(
        "!", Abstraction(P, mk_eq(P, Abstraction(x, T)))
    )
    s.theorems["FORALL_DEF"] = forall_def
    s.basis["spec"] = spec = _unfold(forall_def, P)
    # SPEC and GEN instantiate these rather than unfold FORALL_DEF per call
    th = _unfold(EQ_MP(spec, ASSUME(dest_eq(spec.concl)[0])), x)
    s.basis["spec_elim"] = EQT_ELIM(th)
    s.basis["gen"] = SYM(spec)

    # existential quantifier
    xv = Variable("x", A)
    exists_def = new_basic_definition(
        "?",
        Abstraction(
            P,
            mk_forall(
                q,
                mk_imp(mk_forall(xv, mk_imp(Application(P, xv), q)), q),
            ),
        ),
    )
    s.theorems["EXISTS_DEF"] = exists_def

    # disjunction:  p \/ q  is  !r. (p ==> r) ==> (q ==> r) ==> r
    or_def = new_basic_definition(
        "\\/",
        Abstraction(
            p,
            Abstraction(
                q,
                mk_forall(
                    r, mk_imp(mk_imp(p, r), mk_imp(mk_imp(q, r), r))
                ),
            ),
        ),
    )
    s.theorems["OR_DEF"] = or_def
    unfold_or = _unfold(or_def, p, q)

    d1 = MP(ASSUME(mk_imp(p, r)), ASSUME(p))
    d1 = DISCH(mk_imp(p, r), DISCH(mk_imp(q, r), d1))
    s.basis["disj1"] = EQ_MP(SYM(unfold_or), GEN(r, d1))

    d2 = MP(ASSUME(mk_imp(q, r)), ASSUME(q))
    d2 = DISCH(mk_imp(p, r), DISCH(mk_imp(q, r), d2))
    s.basis["disj2"] = EQ_MP(SYM(unfold_or), GEN(r, d2))

    dc = SPEC(r, EQ_MP(unfold_or, ASSUME(mk_disj(p, q))))
    dc = MP(MP(dc, ASSUME(mk_imp(p, r))), ASSUME(mk_imp(q, r)))
    s.basis["disj_cases"] = dc

    # falsity and negation
    f_def = new_basic_definition("F", mk_forall(p, p))
    s.theorems["F_DEF"] = f_def
    not_def = new_basic_definition(
        "~", Abstraction(p, mk_imp(p, Constant("F", b)))
    )
    s.theorems["NOT_DEF"] = not_def
    s.basis["not_eq"] = _unfold(not_def, p)

    # classical base: every boolean is T or F
    bca = new_axiom(
        "BOOL_CASES_AX",
        mk_forall(
            p,
            mk_disj(mk_eq(p, T), mk_eq(p, Constant("F", b))),
        ),
    )

    cases = SPEC(p, bca)
    on_t = DISJ1(EQT_ELIM(ASSUME(mk_eq(p, T))), mk_neg(p))
    ff = EQ_MP(ASSUME(mk_eq(p, Constant("F", b))), ASSUME(p))
    on_f = DISJ2(p, NOT_INTRO(DISCH(p, ff)))
    s.theorems["EXCLUDED_MIDDLE"] = DISJ_CASES(cases, on_t, on_f)


# ---------------------------------------------------------------------------
# datatype facts for the syntax types
# ---------------------------------------------------------------------------

_ARG_BASE = {"str": "s", "type": "t", "epsilon": "a"}


def _con_args(sig, suffix: str):
    out = []
    counts = {}
    for kind in sig:
        n = counts.get(kind, 0)
        counts[kind] = n + 1
        name = _ARG_BASE[kind] + (str(n) if n else "") + suffix
        out.append(Variable(name, ARG_TYPES[kind]()))
    return out


def _forall_many(vs, body):
    for v in reversed(vs):
        body = mk_forall(v, body)
    return body


def _conj_many(ps):
    out = ps[-1]
    for p in reversed(ps[:-1]):
        out = mk_conj(p, out)
    return out


def _distinctness(cons) -> Term:
    stmts = []
    for (n1, s1), (n2, s2) in combinations(cons, 2):
        a1 = _con_args(s1, "")
        a2 = _con_args(s2, "'")
        l = apply_terms(constructor_constant(n1), a1)
        r = apply_terms(constructor_constant(n2), a2)
        stmts.append(_forall_many(a1 + a2, mk_neg(mk_eq(l, r))))
    return _conj_many(stmts)


def _injectivity(cons) -> Term:
    stmts = []
    for name, sig in cons:
        a1 = _con_args(sig, "")
        a2 = _con_args(sig, "'")
        eqs = _conj_many([mk_eq(u, v) for u, v in zip(a1, a2)])
        con = constructor_constant(name)
        body = mk_imp(mk_eq(apply_terms(con, a1), apply_terms(con, a2)), eqs)
        stmts.append(_forall_many(a1 + a2, body))
    return _conj_many(stmts)


def _induction(cons, carrier: str) -> Term:
    P = Variable("P", mk_fun(ARG_TYPES[carrier](), bool_ty()))
    clauses = []
    for name, sig in cons:
        args = _con_args(sig, "")
        rec = [a for a, kind in zip(args, sig) if kind == carrier]
        concl = Application(P, apply_terms(constructor_constant(name), args))
        if rec:
            ante = _conj_many([Application(P, a) for a in rec])
            clauses.append(_forall_many(args, mk_imp(ante, concl)))
        else:
            clauses.append(_forall_many(args, concl))
    e = Variable("e", ARG_TYPES[carrier]())
    return mk_forall(
        P, mk_imp(_conj_many(clauses), mk_forall(e, Application(P, e)))
    )


def install_datatype_facts() -> None:
    rows = {"epsilon": [], "type": []}
    for name, (cls, kinds) in CONSTRUCTORS.items():
        rows["type" if cls is None else "epsilon"].append((name, kinds))
    for carrier, cons in rows.items():
        for fact, stmt in (
            ("distinct", _distinctness(cons)),
            ("injective", _injectivity(cons)),
            ("induction", _induction(cons, carrier)),
        ):
            new_axiom(f"{carrier}_{fact}", stmt)


# ---------------------------------------------------------------------------
# arithmetic signature
# ---------------------------------------------------------------------------


def arithmetic_base() -> None:
    n = num_ty()
    new_constant("_0", n)
    new_constant("SUC", mk_fun(n, n))
    new_constant("+", mk_fun(n, mk_fun(n, n)))
    new_constant("*", mk_fun(n, mk_fun(n, n)))
    new_constant("<=", mk_fun(n, mk_fun(n, bool_ty())))
    P = Variable("P", mk_fun(n, bool_ty()))
    nv = Variable("n", n)
    zero = Constant("_0", n)
    suc = Constant("SUC", mk_fun(n, n))
    step = mk_forall(
        nv, mk_imp(Application(P, nv), Application(P, Application(suc, nv)))
    )
    ind = mk_forall(
        P,
        mk_imp(
            mk_conj(Application(P, zero), step),
            mk_forall(nv, Application(P, nv)),
        ),
    )
    new_axiom("num_INDUCTION", ind)


# ---------------------------------------------------------------------------
# trusted conversions
# ---------------------------------------------------------------------------


def _conv_input(t: Term, role: str, expected=None) -> None:
    if expected is not None and t.ty != expected:
        raise IllTyped(f"{role} must have type {expected!r}, got {t.ty!r}")
    if t.has_naked_hole:
        raise ContainsHole(f"{role} contains a hole outside quotations")
    if not t.eval_free:
        raise NotEvalFree(f"{role} must be eval-free")
    if _frees(t):
        names = ", ".join(sorted(v.name for v in _frees(t)))
        raise NotClosed(f"{role} has free variables: {names}")


def IS_EXPR_TYPE_CONV(c: Term, tyc: Term) -> Theorem:
    """Decide whether a closed construction denotes a term of a stated type."""
    _conv_input(c, "the construction argument", epsilon_ty())
    _conv_input(tyc, "the type-construction argument", type_ty())
    verdict = is_expr_type_meta(c, tyc)
    head = Constant("isExprType", mk_fun(epsilon_ty(), mk_fun(type_ty(), bool_ty())))
    stmt = apply_terms(head, [c, tyc])
    return trusted_theorem(stmt if verdict else mk_neg(stmt), "IS_EXPR_TYPE_CONV")


def IS_FREE_IN_CONV(xc: Term, bc: Term) -> Theorem:
    """Decide whether a quoted variable is free in a quoted expression."""
    _conv_input(xc, "the variable construction", epsilon_ty())
    _conv_input(bc, "the expression construction", epsilon_ty())
    verdict = is_free_in_meta(xc, bc)
    stmt = mk_is_free_in(xc, bc)
    return trusted_theorem(stmt if verdict else mk_neg(stmt), "IS_FREE_IN_CONV")


def EVAL_CONV(e: Term) -> Theorem:
    """Compute a closed evaluation: |- eval c to ty = t.

    The content is read by ``construction_to_term`` and the term it denotes
    checked to have the stated type.  That term may well be open —
    disquotation of a quoted variable is the canonical example.
    """
    if not isinstance(e, Evaluation):
        raise WrongShape("EVAL_CONV expects an evaluation")
    _conv_input(e.content, "the evaluated construction")
    t = construction_to_term(e.content)
    if t.ty != e.result_type:
        raise TypeMismatch(
            f"construction denotes a term of type {t.ty!r}, "
            f"not the stated {e.result_type!r}"
        )
    return trusted_theorem(mk_eq(e, t), "EVAL_CONV")


_FO_CONNECTIVES = {"/\\", "\\/", "~", "==>"}


def _arith_term_ok(t: Term, allow_mul: bool, bound: frozenset) -> bool:
    # closed reading: a variable is accepted only where a binder above binds it
    n = num_ty()
    if isinstance(t, Variable):
        return t in bound
    if isinstance(t, Constant):
        if t.name in ("_0", "SUC", "+"):
            return True
        if t.name == "*":
            return allow_mul
        if t.name == "=":
            return t.ty == mk_fun(n, mk_fun(n, bool_ty()))
        if t.name in _FO_CONNECTIVES:
            return True
        if t.name in ("!", "?"):
            return t.ty == mk_fun(mk_fun(n, bool_ty()), bool_ty())
        return False
    if isinstance(t, Application):
        return _arith_term_ok(t.fn, allow_mul, bound) and _arith_term_ok(
            t.arg, allow_mul, bound
        )
    if isinstance(t, Abstraction):
        return t.var.ty == n and _arith_term_ok(t.body, allow_mul, bound | {t.var})
    return False


def _arith_conv(c: Term, const_name: str, allow_mul: bool, tag: str) -> Theorem:
    _conv_input(c, "the construction argument", epsilon_ty())
    try:
        t = construction_to_term(c)
        verdict = t.ty == mk_fun(num_ty(), bool_ty()) and _arith_term_ok(
            t, allow_mul, frozenset()
        )
    except Improper:
        verdict = False
    stmt = Application(
        Constant(const_name, mk_fun(epsilon_ty(), bool_ty())), c
    )
    return trusted_theorem(stmt if verdict else mk_neg(stmt), tag)


def IS_PEANO_CONV(c: Term) -> Theorem:
    """Decide whether a construction denotes a closed first-order arithmetic
    predicate."""
    return _arith_conv(c, "isPeano", True, "IS_PEANO_CONV")


def IS_PRESBURGER_CONV(c: Term) -> Theorem:
    """Like IS_PEANO_CONV but with multiplication excluded."""
    return _arith_conv(c, "isPresburger", False, "IS_PRESBURGER_CONV")


def define_arith_predicates() -> None:
    """Declare isPeano and isPresburger, each with the named axiom that what
    it accepts is a construction of type num->bool."""
    c = Variable("c", epsilon_ty())
    for const_name, ax_name in (
        ("isPeano", "PEANO_PRED_TYPE"),
        ("isPresburger", "PRESBURGER_PRED_TYPE"),
    ):
        pred = new_constant(const_name, mk_fun(epsilon_ty(), bool_ty()))
        concl = mk_forall(
            c,
            mk_imp(Application(pred, c), mk_is_expr_type(c, mk_fun(num_ty(), bool_ty()))),
        )
        new_axiom(ax_name, concl)
