"""The proof kernel: theorems and the inference rules that produce them.

``Theorem`` is an opaque sequent.  Everything the checker believes reduces to
this module (plus the explicitly trusted conversions layered on top, which a
theorem records in its ``trusted`` field).  Each theorem also carries the set
of named axioms its derivation touched, so a result's assumptions are always
auditable.

The kernel has nineteen primitive rules.  Ten are the classical core —
``REFL``, ``TRANS``, ``MK_COMB``, ``ABS``, ``BETA``, ``ASSUME``, ``EQ_MP``,
``DEDUCT_ANTISYM``, ``INST``, ``INST_TYPE`` — and nine are about quotation
and evaluation — ``LAW_OF_QUO``, ``QUO_STEP``, ``DISQUO``, ``APP_SPLIT``,
``ABS_SPLIT``, ``QUOTABLE``, ``BETA_REVAL``, ``NOT_FREE_OR_EFFECTIVE_IN``,
``NEITHER_EFFECTIVE``.  Every other rule is derived from these in
:mod:`cqe.logic`.

Substitution here is not the textbook operation.  Because an evaluation
``eval c to ty`` re-reads the environment when the represented term is
produced, a variable can matter to a term without occurring in it — "x is not
free in t" stops being the right licence to move t under a binder, and "t has
no free x" stops being a licence to drop a substitution.  ``vsubst`` therefore
distinguishes syntactic absence (decisive only for eval-free terms) from
*proved* irrelevance: a registry of theorems of the form "x is not effective
in t" supplies the missing licences, and substitution fails loudly with the
conditions it would need rather than guessing.  Substitution into an
evaluation is never performed at all; the redex is kept suspended so the
equation can be discharged by inference later.

Each walk visits each distinct subterm once per call.  Nodes are interned and
a result depends only on the node, the substitution and the registry, which
no call changes, so a memo keyed by node is exact.  ``_vsubst`` keeps one per
substitution the call makes (``tables``, keyed by its pairs in order), and
``_inst_type`` keeps each term's image in its ``env``, beside the instances of
the type variables.

Each check has one home.  Formation (:mod:`cqe.syntax`) makes every term
well-typed: each part is of its field's kind, a binder is a variable, an
operand fits its operator's domain.  ``_thm`` alone checks that a conclusion
is boolean, holds no hole outside quotations and is the session's node,
refuses a premise derived outside the session and the template, and unites
the premises' axioms and trusted tags.  A rule checks only what neither
does: its premises' shape, its side conditions, and arguments that would
otherwise be refused under another class or as a raw Python error.  Every
hypothesis is boolean and free of naked holes, so ``_thm`` checks none: each
is a premise's, an ``INST`` image of one (``vsubst`` substitutes only
hole-free terms of the variable's type), an ``INST_TYPE`` image (which keeps
``bool``), or ``ASSUME``'s checked conclusion.
"""

from __future__ import annotations

from . import session
from .constructions import (
    NODE_CONSTRUCTOR,
    apply_terms,
    constructor_constant,
    term_to_construction,
    type_to_construction,
)
from .errors import (
    ContainsHole,
    DuplicateName,
    FreeOccurrence,
    HasHoles,
    IllTyped,
    KernelError,
    NotAVariable,
    NotAtomicQuote,
    NotEvalFree,
    OpenBody,
    QuotationTypePolymorphism,
    SameVariable,
    SubstitutionBlocked,
    TypeMismatch,
    VariableCollision,
    WrongShape,
)
from .syntax import (
    Abstraction,
    Application,
    Constant,
    Evaluation,
    HolType,
    Hole,
    Quotation,
    Term,
    TypeApplication,
    TypeVariable,
    Variable,
    _VAR_NAME,
    _formed_in,
    _frees,
    _interned,
    alpha_equivalent,
    bool_ty,
    epsilon_ty,
    fresh_variant,
    is_constant_name,
    map_holes,
    map_parts,
    mk_fun,
    subst_type,
    subterms,
    type_ty,
    type_variables_in,
    type_variables_in_term,
    variables_in,
)

__all__ = [
    "Theorem",
    "REFL", "TRANS", "MK_COMB", "ABS", "BETA", "ASSUME", "EQ_MP",
    "DEDUCT_ANTISYM", "INST", "INST_TYPE",
    "LAW_OF_QUO", "QUO_STEP", "DISQUO", "APP_SPLIT", "ABS_SPLIT", "QUOTABLE",
    "BETA_REVAL", "NOT_FREE_OR_EFFECTIVE_IN", "NEITHER_EFFECTIVE",
    "register_not_effective", "new_type_constructor", "new_constant",
    "new_axiom", "new_basic_definition",
    "vsubst", "inst_type",
    "mk_eq", "dest_eq", "mk_conj", "dest_conj", "mk_disj", "dest_disj",
    "mk_imp", "dest_imp", "mk_neg", "dest_neg", "mk_forall",
    "mk_exists", "dest_exists", "mk_not_effective", "dest_not_effective",
    "mk_is_expr_type", "mk_is_free_in",
]

_MAKER = object()


class Theorem:
    """A derived sequent: hypotheses, conclusion, and its trust base.

    Like a node, a theorem is stamped with the ``_serial`` of the session it
    was derived in (an integer, so a theorem holds no reference to a
    session); ``_thm`` accepts it as a premise only there or, for a
    bootstrap theorem, in any session.
    """

    __slots__ = ("hyps", "concl", "axioms", "trusted", "_serial")

    def __init__(self, hyps, concl, axioms, trusted, serial=None, token=None):
        if token is not _MAKER:
            raise KernelError("theorems can only be produced by inference rules")
        object.__setattr__(self, "hyps", hyps)
        object.__setattr__(self, "concl", concl)
        object.__setattr__(self, "axioms", axioms)
        object.__setattr__(self, "trusted", trusted)
        object.__setattr__(self, "_serial", serial)

    def __setattr__(self, name, value):
        raise AttributeError("theorems are immutable")

    def __repr__(self):
        try:
            from .frontend import print_theorem

            return print_theorem(self)
        except Exception:
            return f"<Theorem at {id(self):#x}>"


def _thm(hyps, concl, *premises, axioms=frozenset(), trusted=frozenset()) -> Theorem:
    """The theorem maker.  It refuses a premise derived outside the active
    session and the template, gives the theorem the union of the premises'
    provenance, and checks the conclusion: every hypothesis is already
    boolean and free of naked holes (see the module docstring)."""
    serial = session.current().serial
    for th in premises:
        if not _formed_in(th, serial):
            raise KernelError("a premise was derived in another session")
        axioms |= th.axioms
        trusted |= th.trusted
    if concl.ty != bool_ty():
        raise IllTyped("a conclusion must have type bool")
    if concl.has_naked_hole:
        raise ContainsHole("a conclusion cannot contain a hole outside quotations")
    if not _formed_in(concl, serial):
        raise KernelError("a term was formed in another session")
    return Theorem(frozenset(hyps), concl, axioms, trusted, serial, _MAKER)


def trusted_theorem(concl: Term, tag: str) -> Theorem:
    """Create a theorem certified by a named trusted procedure.

    This is the seam between the kernel and the conversions that decide
    syntactic predicates by computation; every theorem built here carries the
    procedure's name in its ``trusted`` set forever.
    """
    return _thm((), concl, trusted=frozenset((tag,)))


# ---------------------------------------------------------------------------
# term builders and destructors for the logical signature
# ---------------------------------------------------------------------------


def mk_eq(l: Term, r: Term) -> Term:
    eq = Constant("=", mk_fun(l.ty, mk_fun(l.ty, bool_ty())))
    return Application(Application(eq, l), r)


def _dest_binop(name: str, t: Term):
    if (
        isinstance(t, Application)
        and isinstance(t.fn, Application)
        and isinstance(t.fn.fn, Constant)
        and t.fn.fn.name == name
    ):
        return t.fn.arg, t.arg
    raise WrongShape(f"expected an application of {name!r}")


def dest_eq(t: Term):
    return _dest_binop("=", t)


def mk_bin(name: str, l: Term, r: Term) -> Term:
    c = Constant(name, mk_fun(bool_ty(), mk_fun(bool_ty(), bool_ty())))
    return Application(Application(c, l), r)


def mk_conj(l, r):
    return mk_bin("/\\", l, r)


def dest_conj(t):
    return _dest_binop("/\\", t)


def mk_disj(l, r):
    return mk_bin("\\/", l, r)


def dest_disj(t):
    return _dest_binop("\\/", t)


def mk_imp(l, r):
    return mk_bin("==>", l, r)


def dest_imp(t):
    return _dest_binop("==>", t)


def mk_neg(t: Term) -> Term:
    return Application(Constant("~", mk_fun(bool_ty(), bool_ty())), t)


def dest_neg(t: Term) -> Term:
    if isinstance(t, Application) and isinstance(t.fn, Constant) and t.fn.name == "~":
        return t.arg
    raise WrongShape("expected a negation")


def _mk_binder(name: str, v: Variable, body: Term) -> Term:
    c = Constant(name, mk_fun(mk_fun(v.ty, bool_ty()), bool_ty()))
    return Application(c, Abstraction(v, body))


def mk_forall(v, body):
    return _mk_binder("!", v, body)


def mk_exists(v, body):
    return _mk_binder("?", v, body)


def dest_exists(t):
    if (
        isinstance(t, Application)
        and isinstance(t.fn, Constant)
        and t.fn.name == "?"
        and isinstance(t.arg, Abstraction)
    ):
        return t.arg.var, t.arg.body
    raise WrongShape("expected a '?' binder applied to an abstraction")


def mk_is_expr_type(c: Term, ty: HolType) -> Term:
    k = Constant("isExprType", mk_fun(epsilon_ty(), mk_fun(type_ty(), bool_ty())))
    return Application(Application(k, c), type_to_construction(ty))


def mk_is_free_in(xg: Term, bg: Term) -> Term:
    k = Constant("isFreeIn", mk_fun(epsilon_ty(), mk_fun(epsilon_ty(), bool_ty())))
    return Application(Application(k, xg), bg)


def mk_not_effective(x: Variable, t: Term) -> Term:
    """The formula asserting that substituting anything for x leaves t alone.

    Spelled with a fresh witness variable:  ~(?y. ~((\\x. t) y = t)).
    """
    y = fresh_variant(Variable("y", x.ty), _frees(t) | {x})
    redex = Application(Abstraction(x, t), y)
    return mk_neg(mk_exists(y, mk_neg(mk_eq(redex, t))))


def dest_not_effective(p: Term):
    body = dest_neg(p)
    y, inner = dest_exists(body)
    l, r = dest_eq(dest_neg(inner))
    if not (isinstance(l, Application) and isinstance(l.fn, Abstraction)):
        raise WrongShape("not a not-effective statement: missing applied abstraction")
    if l.arg != y:
        raise WrongShape("not a not-effective statement: witness variable mismatch")
    x = l.fn.var
    t = l.fn.body
    if t != r:
        raise WrongShape("not a not-effective statement: body and right side differ")
    if x == y or y in _frees(t):
        raise WrongShape("not a not-effective statement: witness is not fresh")
    return x, t


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def vsubst(pairs, t: Term, used=None) -> Term:
    """Simultaneous substitution of terms for variables.

    ``pairs`` is an iterable of (Variable, Term) with matching types.  The
    active session's not-effective registry supplies semantic licences where
    syntax alone cannot justify a step; theorems consulted along the way are
    appended to ``used`` so callers can track what the result depends on.
    """
    if not isinstance(t, Term):
        raise KernelError(f"not a term: {t!r}")
    theta = {}
    for x, tm in dict(pairs).items() if isinstance(pairs, dict) else pairs:
        if not isinstance(x, Variable):
            raise NotAVariable(f"substitution target is not a variable: {x!r}")
        if not isinstance(tm, Term):
            raise KernelError(f"substitution payload is not a term: {tm!r}")
        if tm.ty != x.ty:
            raise TypeMismatch(
                f"cannot substitute a term of type {tm.ty!r} for {x.name}:{x.ty!r}"
            )
        if tm.has_naked_hole:
            raise ContainsHole("cannot substitute a term with a hole outside quotations")
        if x in theta and theta[x] != tm:
            raise KernelError(f"conflicting substitutions for {x.name}")
        theta[x] = tm
    # identity pairs are dropped only after every pair was checked for conflicts
    theta = {x: tm for x, tm in theta.items() if tm != x}
    if not theta:
        return t
    memo = {}
    registry, tables = session.current().nei_registry, {tuple(theta.items()): memo}
    return _vsubst(t, theta, memo, registry, [] if used is None else used, tables)


def _vsubst(t: Term, theta: dict, memo, registry, used, tables) -> Term:
    if isinstance(t, Variable):
        return theta.get(t, t)
    # An eval-free term whose free-variable set misses every substituted
    # variable is unchanged.  A term with an evaluation is not: substitution
    # still suspends there or asks the registry.
    if t.eval_free and theta.keys().isdisjoint(t._fv):
        return t
    if isinstance(t, Abstraction):
        return _vsubst_abs(t, theta, memo, registry, used, tables)
    if t in memo:
        return memo[t]
    if isinstance(t, Application):
        fn = _vsubst(t.fn, theta, memo, registry, used, tables)
        # a binder operand (the body of !, ? and \x. forms) skips a frame
        walk = _vsubst_abs if type(t.arg) is Abstraction else _vsubst
        arg = walk(t.arg, theta, memo, registry, used, tables)
        out = t if fn is t.fn and arg is t.arg else Application(fn, arg)
    elif isinstance(t, Quotation):
        # Quoted syntax is a fixed value and its binders bind nothing in the
        # live hole contents, so substitution reaches only the holes and
        # capture is impossible.
        body = map_holes(t.body, _vsubst, theta, memo, registry, used, tables)
        out = t if body is t.body else Quotation(body)
    elif isinstance(t, Hole):
        c = _vsubst(t.content, theta, memo, registry, used, tables)
        out = t if c is t.content else Hole(c, t.slot_type)
    else:
        out = _vsubst_eval(t, theta)  # an Evaluation
    memo[t] = out
    return out


def _vsubst_abs(t: Abstraction, theta: dict, memo, registry, used, tables) -> Term:
    if t in memo:
        return memo[t]
    y, s = t.var, t.body
    keep = {}
    problematic = []
    for x, tm in theta.items():
        if x == y:
            continue
        # Is the binding a no-op on the body?  Syntactic absence decides only
        # for eval-free bodies; otherwise a proved not-effective fact does.
        if s.eval_free:
            if x not in _frees(s):
                continue
        else:
            fact = registry.get((x, s))
            if fact is not None:
                used.append(fact)
                continue
        # The binding acts.  Moving tm under the binder is safe when tm
        # provably cannot vary with y.
        if tm.eval_free and y not in _frees(tm):
            keep[x] = tm
            continue
        fact = registry.get((y, tm))
        if fact is not None:
            used.append(fact)
            keep[x] = tm
            continue
        problematic.append((x, tm))
    if problematic:
        keep.update(problematic)
        if not (s.eval_free and all(tm.eval_free for tm in keep.values())):
            conds = [c for x, tm in problematic for c in ((y, tm), (x, s))]
            raise SubstitutionBlocked(
                "substitution under a binder needs a not-effective fact "
                "for: " + "; ".join(f"({v.name}, {u!r})" for v, u in conds),
                needed=conds,
            )
        frees = (_frees(tm) for x, tm in theta.items() if x != y)
        y2 = fresh_variant(y, variables_in(s).union((y,), theta, *frees))
        s2 = _vsubst(s, {y: y2}, tables.setdefault(((y, y2),), {}), registry, used, tables)
        sub = tables.setdefault(tuple(keep.items()), {})
        out = Abstraction(y2, _vsubst(s2, keep, sub, registry, used, tables))
    elif keep:
        # keep is theta, in theta's order, less the pairs it dropped
        sub = memo if len(keep) == len(theta) else tables.setdefault(tuple(keep.items()), {})
        body = _vsubst(s, keep, sub, registry, used, tables)
        out = t if body is s else Abstraction(y, body)
    else:
        out = t
    memo[t] = out
    return out


def _vsubst_eval(t: Evaluation, theta: dict) -> Term:
    # Substitution never enters an evaluation: the represented term is only
    # known once the content is computed, so the substitution is suspended as
    # an explicit redex for the inference rules to discharge.
    order = []
    remaining = list(theta.items())
    while remaining:
        pick = None
        for i, (x, tm) in enumerate(remaining):
            others = [u for j, (_, u) in enumerate(remaining) if j != i]
            if all(u.eval_free for u in others) and all(
                x not in _frees(u) for u in others
            ):
                pick = i
                break
        if pick is None:
            conds = [(x, tm) for x, tm in remaining]
            raise SubstitutionBlocked(
                "no sound nesting order for a suspended multi-variable "
                "substitution into an evaluation",
                needed=conds,
            )
        order.append(remaining[pick])
        remaining = remaining[:pick] + remaining[pick + 1 :]
    core: Term = t
    for x, tm in reversed(order):
        core = Application(Abstraction(x, core), tm)
    return core


# ---------------------------------------------------------------------------
# type instantiation
# ---------------------------------------------------------------------------


def inst_type(pairs, t: Term) -> Term:
    env = {}
    for tv, ty in dict(pairs).items() if isinstance(pairs, dict) else pairs:
        if not isinstance(tv, TypeVariable):
            raise TypeMismatch(f"not a type variable: {tv!r}")
        if not isinstance(ty, HolType):
            raise TypeMismatch(f"not a type: {ty!r}")
        if tv in env and env[tv] != ty:
            raise KernelError(f"conflicting instantiations for {tv!r}")
        env[tv] = ty
    env = {tv: ty for tv, ty in env.items() if ty != tv}
    if not env:
        return t
    return _inst_type(t, env)


def _inst_type(t: Term, env: dict) -> Term:
    if t in env:
        return env[t]
    if isinstance(t, Abstraction):
        y = t.var
        y2 = _inst_type(y, env)
        clash = any(v != y and _inst_type(v, env) == y2 for v in _frees(t.body))
        if clash:
            if not t.body.eval_free:
                raise VariableCollision(
                    f"instantiating types merges {y.name} with a free variable "
                    "of a body containing evaluations"
                )
            yr = fresh_variant(y, variables_in(t.body))
            body = vsubst(((y, yr),), t.body)
            out = _inst_type(Abstraction(yr, body), env)
        else:
            body = _inst_type(t.body, env)
            out = t if y2 is y and body is t.body else Abstraction(y2, body)
    elif isinstance(t, Quotation):
        # A quotation is a literal: its value names one fixed expression, so
        # there is nothing type-generic inside to instantiate.  Rather than
        # silently produce a different literal, refuse.
        touched = env.keys() & type_variables_in_term(t)
        if touched:
            names = ", ".join(sorted(map(repr, touched)))
            raise QuotationTypePolymorphism(
                f"type instantiation of {names} would alter a quotation"
            )
        out = t
    else:
        out = map_parts(t, _inst_type, subst_type, env)
    env[t] = out
    return out


# ---------------------------------------------------------------------------
# the classical core rules
# ---------------------------------------------------------------------------


def REFL(t: Term) -> Theorem:
    return _thm((), mk_eq(t, t))


def TRANS(th1: Theorem, th2: Theorem) -> Theorem:
    l1, r1 = dest_eq(th1.concl)
    l2, r2 = dest_eq(th2.concl)
    if not alpha_equivalent(r1, l2):
        raise WrongShape("the middle terms of a transitivity step differ")
    return _thm(th1.hyps | th2.hyps, mk_eq(l1, r2), th1, th2)


def MK_COMB(thf: Theorem, tha: Theorem) -> Theorem:
    lf, rf = dest_eq(thf.concl)
    la, ra = dest_eq(tha.concl)
    return _thm(
        thf.hyps | tha.hyps, mk_eq(Application(lf, la), Application(rf, ra)), thf, tha
    )


def ABS(x: Variable, th: Theorem) -> Theorem:
    if not isinstance(x, Variable):
        raise NotAVariable("ABS needs a variable to abstract")
    l, r = dest_eq(th.concl)
    extra = []
    reg = session.current().nei_registry
    for h in th.hyps:
        if x in _frees(h):
            raise FreeOccurrence(
                f"cannot abstract over {x.name}: it occurs free in a hypothesis"
            )
        if not h.eval_free:
            fact = reg.get((x, h))
            if fact is None:
                raise SubstitutionBlocked(
                    f"a hypothesis contains an evaluation; abstraction over "
                    f"{x.name} needs a proof that it is not effective there",
                    needed=((x, h),),
                )
            extra.append(fact)
    return _thm(th.hyps, mk_eq(Abstraction(x, l), Abstraction(x, r)), th, *extra)


def BETA(t: Term) -> Theorem:
    # (\x. b) x = b, for any body: value-level application at the very
    # variable the binder names changes nothing, so no substitution is needed
    # and bodies containing evaluations are fine.
    if not (
        isinstance(t, Application)
        and isinstance(t.fn, Abstraction)
        and t.arg == t.fn.var
    ):
        raise WrongShape("BETA wants a redex whose argument is the bound variable")
    return _thm((), mk_eq(t, t.fn.body))


def ASSUME(p: Term) -> Theorem:
    return _thm((p,), p)


def EQ_MP(theq: Theorem, th: Theorem) -> Theorem:
    l, r = dest_eq(theq.concl)
    if not alpha_equivalent(l, th.concl):
        raise WrongShape("the equation's left side does not match the theorem")
    return _thm(theq.hyps | th.hyps, r, theq, th)


def DEDUCT_ANTISYM(th1: Theorem, th2: Theorem) -> Theorem:
    hyps = frozenset(
        h for h in th1.hyps if not alpha_equivalent(h, th2.concl)
    ) | frozenset(h for h in th2.hyps if not alpha_equivalent(h, th1.concl))
    return _thm(hyps, mk_eq(th1.concl, th2.concl), th1, th2)


def INST(pairs, th: Theorem) -> Theorem:
    pairs = tuple(pairs.items() if isinstance(pairs, dict) else pairs)  # read once for all terms
    used = []
    concl = vsubst(pairs, th.concl, used)
    hyps = [vsubst(pairs, h, used) for h in th.hyps]
    return _thm(hyps, concl, th, *used)


def INST_TYPE(pairs, th: Theorem) -> Theorem:
    pairs = tuple(pairs.items() if isinstance(pairs, dict) else pairs)  # read once for all terms
    concl = inst_type(pairs, th.concl)
    hyps = [inst_type(pairs, h) for h in th.hyps]
    return _thm(hyps, concl, th)


# ---------------------------------------------------------------------------
# quotation and evaluation rules
# ---------------------------------------------------------------------------


def _want_quotation(q) -> Quotation:
    if not isinstance(q, Quotation):
        raise WrongShape("expected a quotation")
    if q.has_hole:
        raise HasHoles("this rule is only defined for hole-free quotations")
    return q


def LAW_OF_QUO(q: Term) -> Theorem:
    """A quotation equals the construction denoting its body, in one step."""
    q = _want_quotation(q)
    return _thm((), mk_eq(q, term_to_construction(q.body)))


def QUO_STEP(q: Term) -> Theorem:
    """Unfold one layer of a quotation into syntax constructors."""
    # Primitive although LAW_OF_QUO, MK_COMB, TRANS and SYM derive it: that
    # derivation encodes the body twice and is 20 to 50 times slower per call.
    q = _want_quotation(q)
    b = q.body
    if isinstance(b, (Variable, Constant)):
        rhs = term_to_construction(b)
    else:
        quoted = [Quotation(s) for s in subterms(b)]
        rhs = apply_terms(constructor_constant(NODE_CONSTRUCTOR[type(b)]), quoted)
    return _thm((), mk_eq(q, rhs))


def DISQUO(q: Term, ty: HolType | None = None) -> Theorem:
    """Disquote an atom: eval Q_ a _Q to ty = a, for a variable or constant a."""
    if not isinstance(q, Quotation) or not isinstance(q.body, (Variable, Constant)):
        raise NotAtomicQuote("expected the quotation of a variable or constant")
    if ty is not None and ty != q.body.ty:
        raise TypeMismatch(
            f"stated type {ty!r} differs from the quoted atom's type {q.body.ty!r}"
        )
    return _thm((), mk_eq(Evaluation(q, q.body.ty), q.body))


def _want_epsilon(t: Term, role: str) -> None:
    if t.ty != epsilon_ty():
        raise IllTyped(f"{role} must have type epsilon")
    if t.has_naked_hole:
        raise ContainsHole(f"{role} contains a hole outside quotations")


def APP_SPLIT(a: Term, b: Term, alpha: HolType, beta: HolType) -> Theorem:
    """Evaluating a syntactic application is applying the evaluations."""
    _want_epsilon(a, "the operator construction")
    _want_epsilon(b, "the operand construction")
    ante = mk_conj(
        mk_is_expr_type(a, mk_fun(alpha, beta)), mk_is_expr_type(b, alpha)
    )
    lhs = Evaluation(
        Application(Application(constructor_constant("App"), a), b), beta
    )
    rhs = Application(Evaluation(a, mk_fun(alpha, beta)), Evaluation(b, alpha))
    return _thm((), mk_imp(ante, mk_eq(lhs, rhs)))


def ABS_SPLIT(x: Variable, a: Term, beta: HolType) -> Theorem:
    """Evaluating a syntactic abstraction is abstracting the evaluation.

    Sound only when the bound variable cannot leak into the body's syntax:
    the antecedent demands the variable not be free in the represented body.
    """
    if not isinstance(x, Variable):
        raise NotAVariable("ABS_SPLIT needs the variable being bound")
    _want_epsilon(a, "the body construction")
    if not a.eval_free:
        raise NotEvalFree("the body construction must be eval-free to be quoted")
    ante = mk_conj(
        mk_is_expr_type(a, beta),
        mk_neg(mk_is_free_in(Quotation(x), Quotation(a))),
    )
    lhs = Evaluation(
        Application(Application(constructor_constant("Abs"), Quotation(x)), a),
        mk_fun(x.ty, beta),
    )
    rhs = Abstraction(x, Evaluation(a, beta))
    return _thm((), mk_imp(ante, mk_eq(lhs, rhs)))


def QUOTABLE(a: Term) -> Theorem:
    """Evaluating a wrapped construction at type epsilon unwraps it."""
    _want_epsilon(a, "the construction")
    ante = mk_is_expr_type(a, epsilon_ty())
    lhs = Evaluation(Application(constructor_constant("Quo"), a), epsilon_ty())
    return _thm((), mk_imp(ante, mk_eq(lhs, a)))


def BETA_REVAL(x: Variable, b: Term, a: Term, beta: HolType) -> Theorem:
    """Push a suspended substitution inside an evaluation — guardedly.

    The antecedent requires (i) the substituted construction to denote a term
    of the evaluation's type and (ii) the bound variable not to be free in
    the syntax denoted by ``(\\x. b) a``.  Without (ii) the substitution would
    act a second time on the syntax the evaluation produces.
    """
    if not isinstance(x, Variable):
        raise NotAVariable("BETA_REVAL needs the bound variable")
    _want_epsilon(b, "the evaluated construction")
    if a.ty != x.ty:
        raise TypeMismatch("the argument's type must match the bound variable's")
    redex = Application(Abstraction(x, b), a)
    if not redex.eval_free:
        raise NotEvalFree(
            "the applied abstraction must be eval-free so it can be quoted"
        )
    ante = mk_conj(
        mk_is_expr_type(redex, beta),
        mk_neg(mk_is_free_in(Quotation(x), Quotation(redex))),
    )
    lhs = Application(Abstraction(x, Evaluation(b, beta)), a)
    rhs = Evaluation(redex, beta)
    return _thm((), mk_imp(ante, mk_eq(lhs, rhs)))


def NOT_FREE_OR_EFFECTIVE_IN(x: Variable, b: Term) -> Theorem:
    """For eval-free b with no free x, substituting for x cannot change b."""
    if not isinstance(x, Variable):
        raise NotAVariable("expected a variable")
    if not b.eval_free:
        raise NotEvalFree(
            "syntactic absence only implies ineffectiveness for eval-free terms"
        )
    if x in _frees(b):
        raise FreeOccurrence(f"{x.name} is free in the term")
    return _thm((), mk_not_effective(x, b))


def NEITHER_EFFECTIVE(x: Variable, y: Variable, a: Term, b: Term) -> Theorem:
    """Commute an application past an inner binder when one side is inert.

    (\\x. \\y. b) a = \\y. ((\\x. b) a)  provided y is not effective in a or
    x is not effective in b (either licence suffices, hence the disjunction).
    """
    if not isinstance(x, Variable) or not isinstance(y, Variable):
        raise NotAVariable("expected variables")
    if x == y:
        raise SameVariable("the two bound variables must differ")
    if a.ty != x.ty:
        raise TypeMismatch("the argument's type must match the outer variable's")
    ante = mk_disj(mk_not_effective(y, a), mk_not_effective(x, b))
    lhs = Application(Abstraction(x, Abstraction(y, b)), a)
    rhs = Abstraction(y, Application(Abstraction(x, b), a))
    return _thm((), mk_imp(ante, mk_eq(lhs, rhs)))


# ---------------------------------------------------------------------------
# session-extending operations
# ---------------------------------------------------------------------------


def register_not_effective(th: Theorem) -> Theorem:
    """Admit a proved not-effective fact into the substitution registry."""
    if not _interned(th):
        raise KernelError("the theorem was derived in another session")
    if th.hyps:
        raise WrongShape("only a hypothesis-free theorem can be registered")
    x, t = dest_not_effective(th.concl)
    session.current().nei_registry[(x, t)] = th
    return th


def new_type_constructor(name: str, arity: int) -> None:
    """Declare a type constructor; a refusal leaves the signature untouched."""
    s = session.current()
    if not (isinstance(name, str) and _VAR_NAME.fullmatch(name)):
        raise IllTyped(f"not a type constructor name (an identifier, not a keyword): {name!r}")
    if name in s.type_arities:
        raise DuplicateName(f"type constructor already registered: {name!r}")
    if type(arity) is not int or arity < 0:
        raise KernelError("arity must be a non-negative integer")
    s.type_arities[name] = arity


def new_constant(name: str, ty: HolType) -> Constant:
    """Declare a constant of generic type ``ty``.  The name and the type are
    checked before the signature changes, so a refusal leaves none behind."""
    s = session.current()
    if isinstance(name, str) and name.startswith('"'):
        raise DuplicateName("names starting with a quote are reserved for literals")
    if not is_constant_name(name):
        raise IllTyped(f"not a constant name (an identifier or an operator): {name!r}")
    if name in s.constants:
        raise DuplicateName(f"constant already registered: {name!r}")
    if type(ty) not in (TypeApplication, TypeVariable) or not _interned(ty):
        raise IllTyped(f"not a type of this session: {ty!r}")
    s.constants[name] = ty
    return Constant(name, ty)


def new_axiom(name: str, p: Term) -> Theorem:
    """Assert ``p`` and bind it under ``name``, which must name no theorem:
    axiom names are the provenance that theorems carry."""
    s = session.current()
    if name in s.theorems:
        raise DuplicateName(f"theorem name already used: {name!r}")
    s.theorems[name] = th = _thm((), p, axioms=frozenset((name,)))
    return th


def new_basic_definition(name: str, body: Term) -> Theorem:
    """Declare the constant ``name`` equal to ``body``; the theorem saying so
    is the caller's to name."""
    if not body.eval_free:
        raise NotEvalFree("a definition body must be eval-free")
    if body.has_naked_hole:
        raise ContainsHole("a definition body cannot contain naked holes")
    if _frees(body):
        names = ", ".join(sorted(v.name for v in _frees(body)))
        raise OpenBody(f"definition body has free variables: {names}")
    if not type_variables_in_term(body) <= type_variables_in(body.ty):
        raise IllTyped("a type variable of the body escapes the defined constant's type")
    c = new_constant(name, body.ty)
    return _thm((), mk_eq(c, body))
