"""Free sets, alpha-equivalence and substitution against the walkers they
replaced.

The reference oracles below are the code that computed these before each
node's free set was kept at formation and the live-hole rule of quotations
was written once (``syntax.holes``/``map_holes``): a recursive, unmemoised
``_frees`` with its quotation walker, ``_alpha`` with its quotation walker,
and the memo-free ``_vsubst`` dispatch with its quotation walker.  The tests
compare the two over generated terms with evaluations and holes.
"""

from cqe import session
from cqe.errors import CqeError
from cqe.kernel import mk_not_effective, new_axiom, register_not_effective, vsubst
from cqe.syntax import (
    Abstraction,
    Application,
    Constant,
    Evaluation,
    Hole,
    Quotation,
    Term,
    Variable,
    _bound_index,
    _frees,
    alpha_equivalent,
    bool_ty,
    epsilon_ty,
    free_variables,
    map_parts,
    mk_fun,
    subterms,
    variables_in,
)

import tree_walks
from genterms import TermGen

# ---------------------------------------------------------------------------
# reference oracles
# ---------------------------------------------------------------------------


def _quoted_live_frees(body):
    if isinstance(body, Hole):
        return frees_reference(body.content)
    out = frozenset()
    for s in subterms(body):
        out |= _quoted_live_frees(s)
    return out


def frees_reference(t):
    if isinstance(t, Variable):
        return frozenset((t,))
    if isinstance(t, Constant):
        return frozenset()
    if isinstance(t, Application):
        return frees_reference(t.fn) | frees_reference(t.arg)
    if isinstance(t, Abstraction):
        return frees_reference(t.body) - frozenset((t.var,))
    if isinstance(t, Quotation):
        return _quoted_live_frees(t.body) if t.has_hole else frozenset()
    if isinstance(t, (Hole, Evaluation)):
        return frees_reference(t.content)
    raise TypeError(f"not a term: {t!r}")


def alpha_reference(s, t, env_s=(), env_t=()):
    if s is t and env_s is env_t:
        return True
    if type(s) is not type(t):
        return False
    if isinstance(s, Variable):
        i = _bound_index(s, env_s)
        j = _bound_index(t, env_t)
        if i is None and j is None:
            return s == t
        return i == j
    if isinstance(s, Constant):
        return s == t
    if isinstance(s, Application):
        return alpha_reference(s.fn, t.fn, env_s, env_t) and alpha_reference(
            s.arg, t.arg, env_s, env_t
        )
    if isinstance(s, Abstraction):
        if s.var.ty != t.var.ty:
            return False
        if s.var != t.var:
            if not (s.body.eval_free and t.body.eval_free):
                return False
        elif env_s is env_t:
            env = env_s + (s.var,)
            return alpha_reference(s.body, t.body, env, env)
        return alpha_reference(s.body, t.body, env_s + (s.var,), env_t + (t.var,))
    if isinstance(s, Quotation):
        return _alpha_quoted(s.body, t.body, env_s, env_t)
    if isinstance(s, Hole):
        return s.slot_type == t.slot_type and alpha_reference(
            s.content, t.content, env_s, env_t
        )
    if isinstance(s, Evaluation):
        return s.result_type == t.result_type and alpha_reference(
            s.content, t.content, env_s, env_t
        )
    raise TypeError(f"not a term: {s!r}")


def _alpha_quoted(s, t, env_s, env_t):
    if type(s) is not type(t):
        return False
    if isinstance(s, Hole):
        return s.slot_type == t.slot_type and alpha_reference(
            s.content, t.content, env_s, env_t
        )
    if not s.has_hole:
        return s == t
    for p, q in zip(s._parts, t._parts):
        if isinstance(p, Term):
            if not _alpha_quoted(p, q, env_s, env_t):
                return False
        elif p != q:
            return False
    return True


def _vsubst_reference(t, theta, registry, used):
    # tree_walks._vsubst's dispatch, without the free-set early return
    if isinstance(t, Variable):
        return theta.get(t, t)
    if isinstance(t, Constant):
        return t
    if isinstance(t, Application):
        fn = _vsubst_reference(t.fn, theta, registry, used)
        arg = _vsubst_reference(t.arg, theta, registry, used)
        return t if fn is t.fn and arg is t.arg else Application(fn, arg)
    if isinstance(t, Abstraction):
        return tree_walks._vsubst_abs(t, theta, registry, used)
    if isinstance(t, Quotation):
        if not t.has_hole:
            return t
        body = _vsubst_quoted(t.body, theta, registry, used)
        return t if body is t.body else Quotation(body)
    if isinstance(t, Hole):
        c = _vsubst_reference(t.content, theta, registry, used)
        return t if c is t.content else Hole(c, t.slot_type)
    if isinstance(t, Evaluation):
        return tree_walks._vsubst_eval(t, theta, registry, used)
    raise TypeError(f"not a term: {t!r}")


def _vsubst_quoted(b, theta, registry, used):
    if isinstance(b, Hole):
        return _vsubst_reference(b, theta, registry, used)
    return map_parts(b, _vsubst_quoted, None, theta, registry, used)


def _all_subterms(t):
    """Every node of t, entering quotations and holes, each object once."""
    seen, stack = {}, [t]
    while stack:
        s = stack.pop()
        if id(s) not in seen:
            seen[id(s)] = s
            stack.extend(subterms(s))
    return list(seen.values())


def _corpus(seed, count, depth):
    gen = TermGen(seed, evals=True, holes=True)
    return gen, [gen.term(depth=depth) for _ in range(count)]


# ---------------------------------------------------------------------------
# free sets
# ---------------------------------------------------------------------------


def test_free_sets_agree_with_the_reference():
    compared = 0
    for seed in range(100):
        _, terms = _corpus(seed, count=30, depth=5)
        for t in terms:
            for s in _all_subterms(t):
                assert _frees(s) == frees_reference(s), s
                compared += 1
    assert compared >= 30000, compared


def test_free_variables_returns_on_ten_thousand_nested_binders():
    x, z = Variable("x", bool_ty()), Variable("z", bool_ty())
    t = x
    for i in range(10_000):
        t = Abstraction(Variable(f"y{i}", bool_ty()), t)
    assert free_variables(t) == {x}
    # the root's free set misses z, so substitution returns at once
    assert vsubst([(z, Constant("T", bool_ty()))], t) is t


# ---------------------------------------------------------------------------
# alpha-equivalence on quotations
# ---------------------------------------------------------------------------


def _quotations(gen, terms):
    out = [s for t in terms for s in _all_subterms(t) if isinstance(s, Quotation)]
    for _ in range(30):
        body = gen.quoted_body(gen.type(1), 4)
        if body is not None:
            out.append(Quotation(body))
    return out


def _renamed_variants(q):
    """Pairs (\\v. q, \\w. q[v := w]) for each free v of q, w fresh."""
    names = {v.name for v in variables_in(q)}
    for v in sorted(_frees(q), key=lambda v: v.name):
        w = Variable(v.name + "_r", v.ty)
        if w.name in names:
            continue
        yield Abstraction(v, q), Abstraction(w, vsubst([(v, w)], q))
        yield Abstraction(v, q), Abstraction(w, q)


def test_alpha_on_quotations_agrees_with_the_reference():
    pairs = equal = variants = 0
    for seed in range(100):
        gen, terms = _corpus(seed, count=8, depth=4)
        qs = _quotations(gen, terms)[:30]
        for a in qs:
            for b in qs:
                got = alpha_equivalent(a, b)
                assert got == alpha_reference(a, b), (a, b)
                pairs += 1
                equal += got
        for q in qs:
            if q.has_hole:
                for s, t in _renamed_variants(q):
                    for u, w in ((s, t), (t, s)):
                        got = alpha_equivalent(u, w)
                        assert got == alpha_reference(u, w), (u, w)
                        variants += got
    assert pairs >= 90000 and equal >= 3000 and variants >= 2000, (pairs, equal, variants)


def test_alpha_replaces_a_repeated_hole_by_position():
    # one interned hole twice in s; t's two counterparts are alpha-equal to
    # it and to each other, but are different objects
    c = Variable("c", epsilon_ty())
    x, y = Variable("x", epsilon_ty()), Variable("y", epsilon_ty())
    h1 = Hole(Application(Abstraction(x, x), c), bool_ty())
    h2 = Hole(Application(Abstraction(y, y), c), bool_ty())
    conj = Constant("/\\", mk_fun(bool_ty(), mk_fun(bool_ty(), bool_ty())))
    s = Quotation(Application(Application(conj, h1), h1))
    t = Quotation(Application(Application(conj, h1), h2))
    u = Quotation(Application(Application(conj, h2), h1))
    for a, b in ((s, t), (t, s), (s, u), (t, u)):
        assert alpha_equivalent(a, b) and alpha_reference(a, b)
    # with the hole contents bound, and a counterpart that is not alpha-equal
    d = Variable("d", epsilon_ty())
    k = Hole(d, bool_ty())  # c's counterpart in the first slot, not in the second
    hc = Hole(c, bool_ty())
    left = Abstraction(c, Quotation(Application(Application(conj, hc), hc)))
    right = Abstraction(d, Quotation(Application(Application(conj, k), hc)))
    assert not alpha_equivalent(left, right) and not alpha_reference(left, right)


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def _register_facts(t, x, limit=2):
    """Register 'x is not effective in s' for up to ``limit`` binder bodies
    of t that hold an evaluation, so that substitution consults them."""
    made = 0
    for s in _all_subterms(t):
        if made == limit:
            break
        if isinstance(s, Abstraction) and not s.body.eval_free and not s.body.has_naked_hole:
            name = f"nei_{len(session.current().nei_registry)}"
            register_not_effective(new_axiom(name, mk_not_effective(x, s.body)))
            made += 1


def _outcome(pairs, t, subst=vsubst):
    used = []
    try:
        return subst(pairs, t, used), used
    except CqeError as e:
        return type(e), used


def test_vsubst_agrees_with_the_reference(monkeypatch):
    outcomes = {"changed": 0, "same": 0, "refused": 0, "used": 0}
    for seed in range(80):
        session.reset()
        gen, terms = _corpus(seed, count=10, depth=4)
        for i, t in enumerate(terms):
            vs = sorted(variables_in(t), key=lambda v: (v.name, repr(v.ty)))
            if not vs:
                continue
            pick = [vs[i % len(vs)], vs[(i * 7 + 3) % len(vs)]][: 1 + i % 2]
            xs = list(dict.fromkeys(pick))
            pairs = [(x, gen.term(x.ty, depth=1 + i % 3)) for x in xs]
            if seed % 2:
                _register_facts(t, xs[0])
            got, used = _outcome(pairs, t)
            with monkeypatch.context() as m:
                m.setattr(tree_walks, "_vsubst", _vsubst_reference)
                m.setattr(tree_walks, "_frees", frees_reference)
                want, want_used = _outcome(pairs, t, tree_walks.vsubst)
            assert got is want, (t, pairs)
            # the same facts in order of first consultation: the kernel
            # consults the registry once per shared subterm
            used, want_used = list(dict.fromkeys(used)), list(dict.fromkeys(want_used))
            assert len(used) == len(want_used)
            assert all(a is b for a, b in zip(used, want_used))
            if isinstance(got, type):
                outcomes["refused"] += 1
            else:
                outcomes["same" if got is t else "changed"] += 1
            outcomes["used"] += bool(used)
    assert outcomes["changed"] >= 450 and outcomes["same"] >= 120, outcomes
    assert outcomes["refused"] >= 40 and outcomes["used"] >= 30, outcomes
