"""The kernel's substitution and type-instantiation walks, and the two
syntax walks they use, as they were before each call kept a memo: reference
oracles that walk a term as a tree, visiting a shared subterm once per
occurrence.  ``_vsubst`` makes its free-set prune test on the root and again
on each part of an application before recursing into it.

``_vsubst`` and ``_vsubst_abs`` recurse through this module's globals, so a
test may replace ``_vsubst`` here with another reference dispatch.
"""

from __future__ import annotations

from cqe import kernel, session
from cqe.errors import (
    ContainsHole,
    KernelError,
    NotAVariable,
    QuotationTypePolymorphism,
    SubstitutionBlocked,
    TypeMismatch,
    VariableCollision,
)
from cqe.syntax import (
    Abstraction,
    Application,
    Evaluation,
    HolType,
    Hole,
    Quotation,
    Term,
    TypeVariable,
    Variable,
    _frees,
    fresh_variant,
    map_holes,
    map_parts,
    subst_type,
    subterms,
    type_variables_in,
)


def vsubst(pairs, t: Term, used=None) -> Term:
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
    if used is None:
        used = []
    return _vsubst(t, theta, session.current().nei_registry, used)


def _vsubst(t: Term, theta: dict, registry, used) -> Term:
    if isinstance(t, Variable):
        return theta.get(t, t)
    # An eval-free term whose free-variable set misses every substituted
    # variable is unchanged.  A term with an evaluation is not: substitution
    # still suspends there or asks the registry.
    if t.eval_free and theta.keys().isdisjoint(t._fv):
        return t
    if isinstance(t, Application):
        # the same tests, made on each part before recursing into it
        fn, arg = t.fn, t.arg
        if type(fn) is Variable:
            fn = theta.get(fn, fn)
        elif not (fn.eval_free and theta.keys().isdisjoint(fn._fv)):
            fn = _vsubst(fn, theta, registry, used)
        if type(arg) is Variable:
            arg = theta.get(arg, arg)
        elif not (arg.eval_free and theta.keys().isdisjoint(arg._fv)):
            # a binder operand (the body of !, ? and \x. forms) skips a frame
            if type(arg) is Abstraction:
                arg = _vsubst_abs(arg, theta, registry, used)
            else:
                arg = _vsubst(arg, theta, registry, used)
        return t if fn is t.fn and arg is t.arg else Application(fn, arg)
    if isinstance(t, Abstraction):
        return _vsubst_abs(t, theta, registry, used)
    if isinstance(t, Quotation):
        # Quoted syntax is a fixed value and its binders bind nothing in the
        # live hole contents, so substitution reaches only the holes and
        # capture is impossible.
        body = map_holes(t.body, _vsubst, theta, registry, used)
        return t if body is t.body else Quotation(body)
    if isinstance(t, Hole):
        c = _vsubst(t.content, theta, registry, used)
        return t if c is t.content else Hole(c, t.slot_type)
    return _vsubst_eval(t, theta, registry, used)  # an Evaluation


def _vsubst_abs(t: Abstraction, theta: dict, registry, used) -> Term:
    y, s = t.var, t.body
    live = {x: tm for x, tm in theta.items() if x != y}
    if not live:
        return t
    keep = {}
    problematic = []
    for x, tm in live.items():
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
    if not keep and not problematic:
        return t
    if problematic:
        renamable = s.eval_free and all(
            tm.eval_free for tm in keep.values()
        ) and all(tm.eval_free for _, tm in problematic)
        if renamable:
            avoid = set(variables_in(s)) | {y}
            for x, tm in live.items():
                avoid |= _frees(tm)
                avoid.add(x)
            y2 = fresh_variant(y, avoid)
            s2 = _vsubst(s, {y: y2}, registry, used)
            rest = dict(keep)
            rest.update(problematic)
            return Abstraction(y2, _vsubst(s2, rest, registry, used))
        conds = []
        for x, tm in problematic:
            conds.append((y, tm))
            conds.append((x, s))
        raise SubstitutionBlocked(
            "substitution under a binder needs a not-effective fact "
            "for: " + "; ".join(f"({v.name}, {u!r})" for v, u in conds),
            needed=conds,
        )
    body = _vsubst(s, keep, registry, used)
    return t if body is s else Abstraction(y, body)


def _vsubst_eval(t: Evaluation, theta: dict, registry, used) -> Term:
    # Substitution never enters an evaluation: the represented term is only
    # known once the content is computed, so the substitution is suspended as
    # an explicit redex for the inference rules to discharge.
    items = list(theta.items())
    if len(items) == 1:
        x, tm = items[0]
        return Application(Abstraction(x, t), tm)
    order = []
    remaining = items
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
    if isinstance(t, Abstraction):
        y = t.var
        y2 = _inst_type(y, env)
        clash = any(
            v != y and _inst_type(v, env) == y2 for v in _frees(t.body)
        )
        if clash:
            if not t.body.eval_free:
                raise VariableCollision(
                    f"instantiating types merges {y.name} with a free variable "
                    "of a body containing evaluations"
                )
            yr = fresh_variant(y, variables_in(t.body))
            body = vsubst(((y, yr),), t.body)
            return _inst_type(Abstraction(yr, body), env)
        body = _inst_type(t.body, env)
        return t if y2 is y and body is t.body else Abstraction(y2, body)
    if isinstance(t, Quotation):
        # A quotation is a literal: its value names one fixed expression, so
        # there is nothing type-generic inside to instantiate.  Rather than
        # silently produce a different literal, refuse.
        touched = type_variables_in_term(t) & set(env)
        if touched:
            names = ", ".join(sorted(map(repr, touched)))
            raise QuotationTypePolymorphism(
                f"type instantiation of {names} would alter a quotation"
            )
        return t
    return map_parts(t, _inst_type, subst_type, env)


def INST(pairs, th: Theorem) -> Theorem:
    used = []
    concl = vsubst(pairs, th.concl, used)
    hyps = [vsubst(pairs, h, used) for h in th.hyps]
    return kernel._thm(hyps, concl, th, *used)


def INST_TYPE(pairs, th: Theorem) -> Theorem:
    concl = inst_type(pairs, th.concl)
    hyps = [inst_type(pairs, h) for h in th.hyps]
    return kernel._thm(hyps, concl, th)


def variables_in(t: Term) -> frozenset:
    if isinstance(t, Variable):
        return frozenset((t,))
    out = frozenset()
    for s in subterms(t):
        out |= variables_in(s)
    return out


def type_variables_in_term(t: Term) -> frozenset:
    out = frozenset()
    for p in t._parts:
        if isinstance(p, Term):
            out |= type_variables_in_term(p)
        elif isinstance(p, HolType):
            out |= type_variables_in(p)
    return out
