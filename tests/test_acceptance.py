"""End-to-end acceptance gate.

One test per shipped guarantee, in the order a release would check them:

1. the excluded-middle schema for evaluations, proved by the shipped
   script, and its exact instantiation at a concrete quoted formula;
2. the Peano and Presburger induction schemas for evaluated predicates;
3. the law of quotation agrees with the meta-level syntax encoding;
4. disquotation inverts quotation, and quotation is injective;
5. the substitution discipline: quotation opacity, hole transparency,
   verbatim suspension at evaluations, and block-then-register;
6. the paradox guards: no quoting of evaluations, and the
   double-substitution guard on pushing a redex inside an evaluation;
7. kernel hygiene under fuzzing: rules only ever produce boolean
   sequents, and never crash;
8. print/parse identity and byte-identical export replay.

Counts and shapes here are deliberate: loosening them is a release
decision, not a refactor.
"""

import random

import pytest

from cqe import session
from cqe.cli import RULE_SIGS, Runner, main
from cqe.constructions import (
    construction_to_term,
    term_to_construction,
)
from cqe.errors import CqeError, NotEvalFree, SubstitutionBlocked
from cqe.kernel import (
    BETA_REVAL,
    INST,
    INST_TYPE,
    LAW_OF_QUO,
    ASSUME,
    REFL,
    Theorem,
    dest_eq,
    mk_conj,
    mk_disj,
    mk_eq,
    mk_forall,
    mk_imp,
    mk_neg,
    mk_not_effective,
    new_axiom,
    register_not_effective,
    vsubst,
)
from cqe.logic import (
    CONJUNCT2,
    DISCH,
    IS_FREE_IN_CONV,
    MP,
    NOT_ELIM,
    NOT_INTRO,
)
from cqe.frontend import parse_term, print_term
from cqe.syntax import (
    Abstraction,
    Application,
    Constant,
    Evaluation,
    Hole,
    Quotation,
    Variable,
    bool_ty,
    epsilon_ty,
    mk_fun,
    num_ty,
    variables_in,
)

from test_cli import script
from genterms import TermGen, distinct_terms

T = Constant("T", bool_ty())
F = Constant("F", bool_ty())


def run_script(name):
    runner = Runner(quiet=True)
    with open(script(name), encoding="utf-8") as fh:
        runner.run_text(fh.read())
    return session.current().theorems


# ---------------------------------------------------------------------------
# 1. excluded middle for evaluations
# ---------------------------------------------------------------------------


def test_excluded_middle_schema_and_exact_instance():
    thms = run_script("lem.cqe")
    want = parse_term(
        '!x:epsilon. isExprType x (TyBase "bool")'
        " ==> ((eval x to bool) \\/ ~(eval x to bool))"
    )
    assert thms["lem"].concl == want
    assert not thms["lem"].hyps
    # provenance is pinned too, so a derived-rule rewrite cannot change it
    assert thms["lem"].axioms == {"BOOL_CASES_AX"}
    assert not thms["lem"].trusted

    session.reset()
    thms = run_script("lem_instance.cqe")
    p = mk_disj(T, F)
    assert thms["lem_inst"].concl == mk_disj(p, mk_neg(p))
    assert not thms["lem_inst"].hyps
    assert thms["lem_inst"].axioms == {"BOOL_CASES_AX"}
    assert thms["lem_inst"].trusted == {
        "EVAL_CONV", "IS_EXPR_TYPE_CONV", "IS_FREE_IN_CONV",
    }


# ---------------------------------------------------------------------------
# 2. induction schemas for evaluated predicates
# ---------------------------------------------------------------------------


def test_peano_and_presburger_induction_schemas():
    for name, pred in (("peano", "isPeano"), ("presburger", "isPresburger")):
        session.reset()
        thms = run_script(f"{name}.cqe")
        want = parse_term(
            '!f:epsilon. isExprType f (TyBiCons "fun" (TyBase "num")'
            f' (TyBase "bool")) /\\ {pred} f'
            " ==> ((eval f to (num->bool)) _0"
            " /\\ (!n:num. (eval f to (num->bool)) n"
            " ==> (eval f to (num->bool)) (SUC n))"
            " ==> (!n:num. (eval f to (num->bool)) n))"
        )
        th = thms[name]
        assert th.concl == want
        assert not th.hyps
        # ROADMAP item 1 removes nei_peano/nei_presburger from these on
        # purpose; changing this pin is a release decision
        assert th.axioms == {f"nei_{name}", "num_INDUCTION"}
        assert not th.trusted


# ---------------------------------------------------------------------------
# 3. law of quotation vs. the meta encoding
# ---------------------------------------------------------------------------


def test_law_of_quotation_matches_meta_encoding():
    gen = TermGen(101)
    corpus = distinct_terms(gen, 200, depth=5)
    mismatches = 0
    for t in corpus:
        th = LAW_OF_QUO(Quotation(t))
        lhs, rhs = dest_eq(th.concl)
        assert lhs == Quotation(t)
        if rhs != term_to_construction(t):
            mismatches += 1
        assert not th.hyps and not th.axioms and not th.trusted
    assert mismatches == 0


# ---------------------------------------------------------------------------
# 4. disquotation and injectivity
# ---------------------------------------------------------------------------


def test_disquotation_inverts_quotation_and_is_injective():
    gen = TermGen(101)  # the same corpus as the quotation-law check
    corpus = distinct_terms(gen, 200, depth=5)
    for t in corpus:
        assert construction_to_term(term_to_construction(t)) == t
    # injectivity: 10^3 pairwise-distinct terms, pairwise-distinct images
    # (distinct image cardinality covers every one of the ~5*10^5 pairs)
    big = distinct_terms(TermGen(103), 1000, depth=4)
    images = {term_to_construction(t) for t in big}
    assert len(images) == 1000


# ---------------------------------------------------------------------------
# 5. the substitution discipline
# ---------------------------------------------------------------------------


def test_substitution_discipline_properties():
    rng = random.Random(105)
    gen = TermGen(105)

    # (a) opacity: hole-free quotations pass through substitution unchanged,
    # even when the surrounding term is rewritten
    for _ in range(500):
        q = Quotation(gen.eval_free(gen.type(1), depth=rng.randrange(4)))
        x = Variable("opa", bool_ty())
        ve = Variable("c_op", epsilon_ty())
        subject = mk_conj(x, mk_eq(q, ve))
        out = vsubst([(x, gen.eval_free(bool_ty(), 2))], subject)
        inner = out.arg.fn.arg  # the left equand of the right conjunct
        assert inner is q

    # (b) transparency: substitution reaches hole contents — and only them
    for i in range(500):
        x = Variable(f"h{i}", epsilon_ty())
        content = rng.choice(
            [
                x,
                Application(
                    Application(
                        Constant(
                            "App",
                            mk_fun(epsilon_ty(), mk_fun(epsilon_ty(), epsilon_ty())),
                        ),
                        x,
                    ),
                    gen.eval_free(epsilon_ty(), 1),
                ),
            ]
        )
        hole = Hole(content, bool_ty())
        body = rng.choice(
            [
                mk_conj(gen.eval_free(bool_ty(), 1), hole),
                mk_disj(hole, gen.eval_free(bool_ty(), 1)),
                Quotation(mk_conj(T, hole)),  # hole one quotation deeper
            ]
        )
        q = Quotation(body)
        repl = gen.eval_free(epsilon_ty(), 2)
        out = vsubst([(x, repl)], q)
        _assert_same_but_holes(q, out, x, repl)

    # (c) suspension: substituting at an evaluation produces the redex
    # shape verbatim, never a rewritten evaluation
    for i in range(500):
        beta = gen.type(1)
        x = Variable(f"s{i}", epsilon_ty())
        content = rng.choice(
            [
                x,
                Application(
                    Application(
                        Constant(
                            "App",
                            mk_fun(epsilon_ty(), mk_fun(epsilon_ty(), epsilon_ty())),
                        ),
                        x,
                    ),
                    x,
                ),
            ]
        )
        subject = Evaluation(content, beta)
        repl = gen.term(epsilon_ty(), 2)
        out = vsubst([(x, repl)], subject)
        assert out == Application(Abstraction(x, subject), repl)

    # (d) a blocked substitution reports the side condition it needs, and
    # succeeds once that fact is registered
    for i in range(500):
        beta = rng.choice([bool_ty(), num_ty()])
        y = Variable(f"y{i}", beta)
        f = Variable(f"f{i}", epsilon_ty())
        ev = Evaluation(f, mk_fun(beta, bool_ty()))
        P = Variable(f"P{i}", mk_fun(beta, bool_ty()))
        lam = Abstraction(y, Application(P, y))
        with pytest.raises(SubstitutionBlocked) as info:
            vsubst([(P, ev)], lam)
        assert (y, ev) in info.value.needed
        register_not_effective(
            new_axiom(f"nei_acc_{i}", mk_not_effective(y, ev))
        )
        assert vsubst([(P, ev)], lam) == Abstraction(y, Application(ev, y))


def _assert_same_but_holes(orig, res, x, repl):
    if isinstance(orig, Hole):
        assert isinstance(res, Hole) and res.slot_type == orig.slot_type
        assert res.content == vsubst([(x, repl)], orig.content)
        return
    assert type(res) is type(orig)
    if isinstance(orig, (Application,)):
        _assert_same_but_holes(orig.fn, res.fn, x, repl)
        _assert_same_but_holes(orig.arg, res.arg, x, repl)
    elif isinstance(orig, Abstraction):
        assert res.var == orig.var
        _assert_same_but_holes(orig.body, res.body, x, repl)
    elif isinstance(orig, Quotation):
        _assert_same_but_holes(orig.body, res.body, x, repl)
    else:
        assert res == orig


# ---------------------------------------------------------------------------
# 6. paradox guards
# ---------------------------------------------------------------------------


def test_paradox_guards():
    c = Variable("c", epsilon_ty())
    e = Evaluation(c, bool_ty())
    en = Evaluation(c, num_ty())
    xb = Variable("xb", bool_ty())
    suc = Constant("SUC", mk_fun(num_ty(), num_ty()))
    f = Variable("fb", mk_fun(bool_ty(), bool_ty()))
    bodies = [
        e,
        mk_conj(T, e),
        Abstraction(xb, e),
        Application(f, e),
        Application(Evaluation(c, mk_fun(bool_ty(), bool_ty())), T),
        mk_neg(e),
        mk_forall(xb, e),
        mk_eq(e, T),
        Application(suc, en),
        mk_conj(mk_disj(T, mk_neg(e)), F),
    ]
    assert len(bodies) == 10
    rejected = 0
    for body in bodies:
        with pytest.raises(NotEvalFree):
            Quotation(body)
        rejected += 1
    assert rejected == 10

    # pushing a substitution inside an evaluation whose body quotes the
    # bound variable: the rule must answer with a guarded implication whose
    # freeness antecedent is provably false — never a bare equation
    for x, a in [
        (Variable("x", bool_ty()), T),
        (Variable("x", bool_ty()), Variable("y", bool_ty())),
        (Variable("x", epsilon_ty()), Quotation(Variable("x", epsilon_ty()))),
    ]:
        b = Quotation(x)
        th = BETA_REVAL(x, b, a, x.ty)
        ante, _ = _dest_imp(th.concl)
        redex = Application(Abstraction(x, b), a)
        free = IS_FREE_IN_CONV(Quotation(x), Quotation(redex))
        assert free.concl == _dest_neg(_dest_conj(ante)[1])
        # mechanical refutation of the antecedent
        contra = MP(NOT_ELIM(CONJUNCT2(ASSUME(ante))), free)
        refuted = NOT_INTRO(DISCH(ante, contra))
        assert refuted.concl == mk_neg(ante)
        assert not refuted.hyps


def _dest_imp(t):
    assert isinstance(t.fn.fn, Constant) and t.fn.fn.name == "==>"
    return t.fn.arg, t.arg


def _dest_conj(t):
    assert isinstance(t.fn.fn, Constant) and t.fn.fn.name == "/\\"
    return t.fn.arg, t.arg


def _dest_neg(t):
    assert isinstance(t.fn, Constant) and t.fn.name == "~"
    return t.arg


# ---------------------------------------------------------------------------
# 7. kernel hygiene under fuzzing
# ---------------------------------------------------------------------------


def test_fuzzed_rule_applications_produce_only_boolean_sequents():
    rng = random.Random(107)
    gen = TermGen(107, evals=True, holes=True)

    terms = [gen.term(depth=rng.randrange(4)) for _ in range(250)]
    types = [gen.type(2) for _ in range(30)]
    variables = [v for t in terms for v in variables_in(t)][:80] or [
        Variable("x", bool_ty())
    ]
    thms = [REFL(t) for t in terms[:20]]
    thms += [ASSUME(t) for t in terms if t.ty == bool_ty()][:20]
    thms += list(session.current().theorems.values())
    # holes outside any quotation: formable terms that no sequent may hold
    terms += [Hole(Quotation(t), t.ty) for t in terms[:40] if t.ef_outside_holes]

    pools = {
        "term": terms,
        "type": types,
        "variable": variables,
        "theorem": thms,
    }
    names = sorted(RULE_SIGS)
    applications = 0
    produced = 0
    while applications < 10_000:
        applications += 1
        use_inst = rng.random() < 0.08
        try:
            if use_inst:
                v = rng.choice(variables)
                th = INST([(v, rng.choice(terms))], rng.choice(thms))
            elif rng.random() < 0.02:
                th = INST_TYPE(
                    [(rng.choice(types), rng.choice(types))], rng.choice(thms)
                )
            else:
                fn, kinds, least = RULE_SIGS[rng.choice(names)]
                take = rng.randint(least, len(kinds))
                args = [rng.choice(pools[k]) for k in kinds[:take]]
                th = fn(*args)
        except CqeError:
            continue  # rejected input: fine, as long as it is *rejected*
        produced += 1
        assert isinstance(th, Theorem)
        # every conclusion and hypothesis is boolean and free of naked holes
        for t in (th.concl, *th.hyps):
            assert t.ty == bool_ty() and not t.has_naked_hole
        if len(thms) < 600:
            thms.append(th)
    assert applications == 10_000
    assert produced >= 1000  # the suite must not pass vacuously


# ---------------------------------------------------------------------------
# 8. round trips
# ---------------------------------------------------------------------------


def test_print_parse_identity_and_export_determinism(tmp_path):
    gen = TermGen(109, evals=True, holes=True)
    seen = {}
    budget = 60_000
    while len(seen) < 1000 and budget:
        budget -= 1
        t = gen.term(depth=3)
        seen.setdefault(t, t)
    assert len(seen) == 1000
    for t in seen:
        assert parse_term(print_term(t)) == t

    out1, out2 = tmp_path / "one.sexp", tmp_path / "two.sexp"
    assert main(["export", script("lem_instance.cqe"), "--out", str(out1)]) == 0
    assert main(["export", script("lem_instance.cqe"), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
