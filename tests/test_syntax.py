"""Term/type formation, equality, free variables, and alpha-equivalence."""

import copy
import gc
import pickle
import weakref

import pytest

from cqe import session, syntax
from cqe.errors import (
    HoleOutsideQuotation,
    IllTyped,
    NotAVariable,
    NotEvalFree,
    UnknownName,
)
from cqe.frontend import _lex, _Meta, parse_term, parse_type, term_to_tree, tree_to_term
from cqe.kernel import new_constant, new_type_constructor
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
    _frees,
    alpha_equivalent,
    bool_ty,
    epsilon_ty,
    free_variables,
    fresh_variant,
    is_fun,
    match_type,
    mk_fun,
    num_ty,
    subst_type,
    subterms,
    type_variables_in,
    type_variables_in_term,
    variables_in,
)

from genterms import TermGen, dest_fun


def tv(name="x", ty=None):
    return Variable(name, ty or bool_ty())


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_type_arity_enforced():
    with pytest.raises(IllTyped):
        TypeApplication("bool", (bool_ty(),))
    with pytest.raises(IllTyped):
        TypeApplication("fun", (bool_ty(),))
    with pytest.raises(UnknownName):
        TypeApplication("mystery", ())
    for name in (None, [], {}):  # unhashable names are unknown names too
        with pytest.raises(UnknownName):
            TypeApplication(name, ())


def test_equal_types_are_one_object():
    assert mk_fun(num_ty(), bool_ty()) is mk_fun(num_ty(), bool_ty())
    assert TypeVariable("'a") is TypeVariable("'a")
    assert TypeApplication("fun", [num_ty(), bool_ty()]) is mk_fun(num_ty(), bool_ty())
    ty = mk_fun(TypeVariable("'a"), num_ty())
    assert parse_type("'a -> num") is ty
    assert copy.deepcopy(ty) is ty
    # a type variable and a nullary constructor of the same name stay apart
    assert TypeVariable("'num") is not num_ty()
    assert TypeVariable("'num") != num_ty()
    with pytest.raises(AttributeError):
        ty.constructor = "bool"


def test_a_table_hit_still_checks_arity():
    new_type_constructor("pair2", 2)
    ty = TypeApplication("pair2", (num_ty(), bool_ty()))
    assert TypeApplication("pair2", (num_ty(), bool_ty())) is ty
    session.reset()
    with pytest.raises(UnknownName):
        TypeApplication("pair2", (num_ty(), bool_ty()))
    new_type_constructor("pair2", 1)
    with pytest.raises(IllTyped):
        TypeApplication("pair2", (num_ty(), bool_ty()))


def test_elaboration_enters_no_unification_variable_into_the_table():
    parse_term("(x0:num = y0) /\\ (\\z0. z0) (u0:bool)")
    size = len(session.current().types)
    for i in range(1, 60):
        parse_term(f"(x{i}:num = y{i}) /\\ (\\z{i}. z{i}) (u{i}:bool)")
    assert len(session.current().types) == size
    with pytest.raises(IllTyped):
        mk_fun(num_ty(), _Meta())
    assert len(session.current().types) == size


@pytest.mark.parametrize(
    "build",
    [
        lambda: TypeApplication("fun", (bool_ty(), "junk")),
        lambda: mk_fun(num_ty(), _Meta()),
        lambda: TypeApplication("fun", (bool_ty(), [])),
    ],
    ids=["str", "meta", "unhashable"],
)
def test_a_type_argument_must_be_a_type(build):
    size = len(session.current().types)
    with pytest.raises(IllTyped):
        build()
    assert len(session.current().types) == size


@pytest.mark.parametrize("name", ["", 5, None], ids=["empty", "int", "none"])
def test_type_variable_name_must_be_a_nonempty_string(name):
    with pytest.raises(IllTyped):
        TypeVariable(name)


def test_fun_type_helpers():
    f = mk_fun(bool_ty(), num_ty())
    assert is_fun(f) and dest_fun(f) == (bool_ty(), num_ty())
    assert not is_fun(bool_ty())
    with pytest.raises(IllTyped):
        dest_fun(bool_ty())


def test_match_and_subst_type():
    a = TypeVariable("'A")
    generic = mk_fun(a, mk_fun(a, bool_ty()))
    env = {}
    assert match_type(generic, mk_fun(num_ty(), mk_fun(num_ty(), bool_ty())), env)
    assert env[a] == num_ty()
    assert not match_type(generic, mk_fun(num_ty(), mk_fun(bool_ty(), bool_ty())), {})
    assert subst_type(generic, {a: num_ty()}) == mk_fun(
        num_ty(), mk_fun(num_ty(), bool_ty())
    )
    assert type_variables_in(generic) == frozenset({a})


# ---------------------------------------------------------------------------
# term formation
# ---------------------------------------------------------------------------


def test_application_requires_matching_types():
    f = tv("f", mk_fun(bool_ty(), bool_ty()))
    with pytest.raises(IllTyped):
        Application(f, tv("n", num_ty()))
    with pytest.raises(IllTyped):
        Application(tv("p"), tv("q"))  # not a function at all
    assert Application(f, tv("p")).ty == bool_ty()


def test_abstraction_binder_must_be_variable():
    with pytest.raises(NotAVariable):
        Abstraction(Constant("T", bool_ty()), tv("p"))
    lam = Abstraction(tv("x"), tv("x"))
    assert lam.ty == mk_fun(bool_ty(), bool_ty())


def test_constant_instances_checked_against_signature():
    with pytest.raises(UnknownName):
        Constant("no_such_constant", bool_ty())
    with pytest.raises(IllTyped):
        Constant("T", num_ty())
    # generic constants admit any instance of their generic type
    eq_num = Constant("=", mk_fun(num_ty(), mk_fun(num_ty(), bool_ty())))
    assert eq_num.ty == mk_fun(num_ty(), mk_fun(num_ty(), bool_ty()))
    with pytest.raises(IllTyped):
        Constant("=", mk_fun(num_ty(), mk_fun(bool_ty(), bool_ty())))


def test_constant_formation_matches_its_signature():
    generic = session.current().constants["="]
    assert Constant("=", generic).ty is generic
    a, b = TypeVariable("'a"), TypeVariable("'b")
    assert Constant("=", mk_fun(a, mk_fun(a, bool_ty()))).ty.arguments[0] is a
    with pytest.raises(IllTyped):
        Constant("=", mk_fun(a, mk_fun(b, bool_ty())))
    with pytest.raises(IllTyped):
        Constant("~", mk_fun(num_ty(), num_ty()))


def test_name_literals_are_str_typed():
    lit = Constant('"anything at all"', TypeApplication("str", ()))
    assert lit.name == '"anything at all"'
    with pytest.raises(IllTyped):
        Constant('"anything"', bool_ty())


def test_quotation_rejects_evaluations_outside_holes():
    ev = Evaluation(tv("c", epsilon_ty()), bool_ty())
    with pytest.raises(NotEvalFree):
        Quotation(ev)
    # but an evaluation inside a hole's content is fine
    q = Quotation(Hole(Evaluation(tv("c", epsilon_ty()), epsilon_ty()), bool_ty()))
    assert q.ty == epsilon_ty() and q.has_hole


def test_hole_and_evaluation_content_must_be_epsilon():
    with pytest.raises(IllTyped):
        Hole(tv("p"), bool_ty())
    with pytest.raises(IllTyped):
        Evaluation(tv("p"), bool_ty())
    with pytest.raises(HoleOutsideQuotation):
        Evaluation(Hole(tv("c", epsilon_ty()), epsilon_ty()), bool_ty())
    with pytest.raises(HoleOutsideQuotation):
        Hole(Hole(tv("c", epsilon_ty()), epsilon_ty()), bool_ty())


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda: Variable("x", 5), "HolType"),
        (lambda: Constant("cc", 5), "HolType"),
        (lambda: Hole(Quotation(tv("p")), 7), "HolType"),
        (lambda: Evaluation(Quotation(tv("p")), "junk"), "HolType"),
        (lambda: Variable(5, bool_ty()), "str"),
        (lambda: Application(5, tv("p")), "Term"),
        (lambda: Abstraction(tv(), bool_ty()), "Term"),
        (lambda: Quotation("p"), "Term"),
    ],
    ids=["variable", "constant", "hole", "evaluation", "name", "operator", "body", "quoted"],
)
def test_each_part_must_be_of_its_fields_kind(build, kind):
    # 'a matches any type: only the part check refuses Constant("cc", 5)
    new_constant("cc", TypeVariable("'a"))
    Quotation(tv("p")), tv()  # the well-formed parts, built beforehand
    terms = session.current().terms
    size = sum(len(table) for table in terms.values())
    with pytest.raises(IllTyped, match=f"part is not a {kind}"):
        build()
    assert sum(len(table) for table in terms.values()) == size


def test_a_node_takes_one_part_per_field():
    with pytest.raises(TypeError, match="takes 2 parts"):
        Variable("x")
    with pytest.raises(TypeError, match="takes 1 parts"):
        Quotation(tv(), tv())


def test_a_constant_name_is_not_empty():
    with pytest.raises(IllTyped, match="non-empty"):
        Constant("", bool_ty())


@pytest.mark.parametrize("word", syntax.KEYWORDS)
def test_a_keyword_is_no_variable_name_and_lexes_as_itself(word):
    with pytest.raises(IllTyped, match="not a variable name"):
        Variable(word, bool_ty())
    assert _lex(word)[0] == [word, "EOF"]
    # one more identifier character makes an identifier
    assert _lex(word + "x")[0] == ["IDENT", "EOF"]
    assert Variable(word + "x", bool_ty()).name == word + "x"


def test_quotation_body_type():
    q = Quotation(tv("p"))
    assert q.ty == epsilon_ty() and q.body.ty == bool_ty()


# ---------------------------------------------------------------------------
# equality and hashing
# ---------------------------------------------------------------------------


def test_structural_equality_and_hash():
    a = Application(Abstraction(tv("x"), tv("x")), Constant("T", bool_ty()))
    b = Application(Abstraction(tv("x"), tv("x")), Constant("T", bool_ty()))
    assert a == b and hash(a) == hash(b)
    assert a != Application(Abstraction(tv("y"), tv("y")), Constant("T", bool_ty()))
    assert tv("x") != tv("x", num_ty())
    assert tv("x") != Constant("T", bool_ty())


def test_generated_terms_equal_their_rebuilds():
    gen = TermGen(seed=7)
    rebuilt = TermGen(seed=7)
    for _ in range(60):
        assert gen.term(depth=3) == rebuilt.term(depth=3)


def _node_kinds(t, out):
    out.add(type(t))
    for s in subterms(t):
        _node_kinds(s, out)


def test_equal_terms_are_one_object():
    first = TermGen(seed=11, evals=True, holes=True)
    again = TermGen(seed=11, evals=True, holes=True)
    kept = [first.term(depth=4) for _ in range(120)]
    kinds = set()
    for t in kept:
        assert again.term(depth=4) is t
        _node_kinds(t, kinds)
    assert kinds == {
        Variable, Constant, Application, Abstraction, Quotation, Hole, Evaluation
    }


def test_copies_are_the_interned_node():
    gen = TermGen(seed=12, evals=True, holes=True)
    for _ in range(40):
        t = gen.term(depth=3)
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t


def test_a_table_hit_still_checks_a_constant():
    new_constant("k", bool_ty())
    c = Constant("k", bool_ty())
    assert Constant("k", bool_ty()) is c
    session.reset()
    with pytest.raises(UnknownName):
        Constant("k", bool_ty())
    new_constant("k", num_ty())
    with pytest.raises(IllTyped):
        Constant("k", bool_ty())
    assert c.ty is bool_ty()  # the old session's node is unchanged


def test_a_table_hit_matches_a_constant_type_once(monkeypatch):
    matched = []

    def counting(generic, concrete, env):
        matched.append(concrete)
        return match_type(generic, concrete, env)

    new_constant("kpoly", mk_fun(TypeVariable("'a"), bool_ty()))
    monkeypatch.setattr(syntax, "match_type", counting)
    c = Constant("kpoly", mk_fun(num_ty(), bool_ty()))
    assert matched[0] is c.ty  # the first formation matches the type
    matched.clear()
    assert Constant("kpoly", mk_fun(num_ty(), bool_ty())) is c
    assert matched == []  # the hit, against the same generic, does not


def test_a_session_keeps_its_nodes_until_reset():
    # nothing a node holds leads back to it, so reference counting frees it
    gc.disable()
    try:
        x = Variable("unpinned", bool_ty())
        t = Abstraction(x, Application(Abstraction(x, x), x))
        refs = [weakref.ref(x), weakref.ref(t), weakref.ref(t.body)]
        del x, t
        assert all(r() is not None for r in refs)
        session.reset()
        assert [r() for r in refs] == [None, None, None]
    finally:
        gc.enable()


def test_a_node_from_a_discarded_session_is_no_part_of_a_new_one():
    new_type_constructor("box", 1)
    ty_old = TypeApplication("box", (num_ty(),))
    x_old = Variable("unpinned", bool_ty())
    session.reset()
    new_type_constructor("box", 1)
    assert TypeApplication("box", (num_ty(),)) is not ty_old
    for build in (
        lambda: mk_fun(ty_old, bool_ty()),
        lambda: Variable("y", ty_old),
        lambda: Abstraction(x_old, Variable("unpinned", bool_ty())),
    ):
        with pytest.raises(IllTyped, match="another session"):
            build()


def test_formation_checks_run_once_per_new_node(monkeypatch):
    built = []
    for cls in (Variable, Application, Abstraction):
        def post_init(node, orig=cls.__post_init__):
            built.append(type(node))
            orig(node)

        monkeypatch.setattr(cls, "__post_init__", post_init)
    x = Variable("once", bool_ty())
    t = Abstraction(x, Application(Abstraction(x, x), x))
    assert built == [Variable, Abstraction, Application, Abstraction]
    again = Variable("once", bool_ty())
    assert Abstraction(again, Application(Abstraction(again, again), again)) is t
    assert len(built) == 4


@pytest.mark.parametrize(
    "build",
    [
        lambda: Variable("x", []),
        lambda: Constant("T", []),
        lambda: Variable(["x"], bool_ty()),
    ],
    ids=["variable-type", "constant-type", "variable-name"],
)
def test_an_unhashable_part_is_ill_typed(build):
    with pytest.raises(IllTyped):
        build()


def test_terms_are_immutable():
    t = Application(Abstraction(tv(), tv()), Constant("T", bool_ty()))
    with pytest.raises(AttributeError):
        t.fn = tv("y")
    with pytest.raises(AttributeError):
        tv().name = "y"


# ---------------------------------------------------------------------------
# free variables
# ---------------------------------------------------------------------------


def test_free_variables_basics():
    x, y = tv("x"), tv("y")
    assert free_variables(Application(Application(Constant("/\\", mk_fun(bool_ty(), mk_fun(bool_ty(), bool_ty()))), x), y)) == {x, y}
    assert free_variables(Abstraction(x, x)) == frozenset()
    assert free_variables(Abstraction(x, y)) == {y}


def test_quotation_frees_are_hole_contents_only():
    x = tv("x")
    c = tv("c", epsilon_ty())
    # a quoted variable is syntax, not a use
    assert free_variables(Quotation(x)) == frozenset()
    # hole contents stay live, at any quotation depth
    assert free_variables(Quotation(Hole(c, bool_ty()))) == {c}
    deep = Quotation(Quotation(Hole(c, bool_ty())))
    assert free_variables(deep) == {c}
    # quoted binders bind nothing in hole contents
    shadow = Quotation(Abstraction(c, Hole(c, bool_ty())))
    assert free_variables(shadow) == {c}


def test_free_variables_refuses_evaluations():
    ev = Evaluation(tv("c", epsilon_ty()), bool_ty())
    with pytest.raises(NotEvalFree):
        free_variables(ev)


def test_variables_in_sees_quoted_occurrences():
    x = tv("x")
    q = Quotation(Abstraction(x, x))
    assert x in variables_in(q)
    assert free_variables(q) == frozenset()


def test_fresh_variant_primes():
    x = tv("x")
    assert fresh_variant(x, {x}).name == "x'"
    assert fresh_variant(x, {x, tv("x'")}).name == "x''"
    assert fresh_variant(x, set()) == x


def test_type_variables_in_term():
    a = TypeVariable("'A")
    v = tv("x", a)
    assert type_variables_in_term(Abstraction(v, v)) == frozenset({a})
    assert type_variables_in_term(tv("x")) == frozenset()


# ---------------------------------------------------------------------------
# alpha-equivalence
# ---------------------------------------------------------------------------


def test_alpha_renames_eval_free_binders():
    lam_x = Abstraction(tv("x"), tv("x"))
    lam_y = Abstraction(tv("y"), tv("y"))
    assert alpha_equivalent(lam_x, lam_y)
    assert not alpha_equivalent(lam_x, Abstraction(tv("y"), tv("x")))


def test_alpha_capture_respected():
    # \x. \y. x  vs  \y. \y. y : the inner occurrence binds differently
    t1 = Abstraction(tv("x"), Abstraction(tv("y"), tv("x")))
    t2 = Abstraction(tv("y"), Abstraction(tv("y"), tv("y")))
    assert not alpha_equivalent(t1, t2)
    t3 = Abstraction(tv("a"), Abstraction(tv("b"), tv("a")))
    assert alpha_equivalent(t1, t3)


def test_alpha_strict_inside_quotations():
    qx = Quotation(Abstraction(tv("x"), tv("x")))
    qy = Quotation(Abstraction(tv("y"), tv("y")))
    assert not alpha_equivalent(qx, qy)
    assert alpha_equivalent(qx, Quotation(Abstraction(tv("x"), tv("x"))))


def test_alpha_of_evaluations_requires_identical_binders():
    c = tv("c", epsilon_ty())
    ev = Evaluation(c, bool_ty())
    same = alpha_equivalent(Abstraction(tv("n", epsilon_ty()), ev), Abstraction(tv("n", epsilon_ty()), ev))
    assert same
    # renaming a binder over an evaluation is not a syntactic no-op
    assert not alpha_equivalent(
        Abstraction(tv("n", epsilon_ty()), ev), Abstraction(tv("m", epsilon_ty()), ev)
    )


def test_alpha_hole_contents_follow_live_binders():
    c1, c2 = tv("c1", epsilon_ty()), tv("c2", epsilon_ty())
    t1 = Abstraction(c1, Quotation(Hole(c1, bool_ty())))
    t2 = Abstraction(c2, Quotation(Hole(c2, bool_ty())))
    assert alpha_equivalent(t1, t2)
    # same skeleton, but the content is a different live variable
    t3 = Abstraction(c2, Quotation(Hole(c1, bool_ty())))
    assert not alpha_equivalent(t1, t3)


def test_alpha_refuses_what_is_not_a_term():
    with pytest.raises(TypeError, match="not a term"):
        alpha_equivalent(1, 2)


def test_alpha_is_reflexive_on_generated_terms():
    gen = TermGen(seed=11, evals=True, holes=True)
    for _ in range(80):
        t = gen.term(depth=3)
        assert alpha_equivalent(t, t)


# ---------------------------------------------------------------------------
# shared subterms: the identity shortcut in _alpha and the free sets kept on nodes
# ---------------------------------------------------------------------------


def _fresh(t):
    """A structurally equal copy of t that shares no node with it."""
    return tree_to_term(term_to_tree(t))


def test_alpha_swapped_binders_over_a_shared_body():
    x, y = tv("x"), tv("y")
    # \x. \y. x  vs  \y. \x. x, with one shared object for the body x
    assert not alpha_equivalent(Abstraction(x, Abstraction(y, x)), Abstraction(y, Abstraction(x, x)))
    xn, yn = tv("x", num_ty()), tv("y", num_ty())
    plus = Constant("+", mk_fun(num_ty(), mk_fun(num_ty(), num_ty())))
    body = Application(Application(plus, xn), yn)  # x + y, shared by both sides
    assert not alpha_equivalent(
        Abstraction(xn, Abstraction(yn, body)), Abstraction(yn, Abstraction(xn, body))
    )
    # a renamed outer binder, then the same inner binder: y is bound on the
    # left and free on the right, although the inner binders agree
    zn = tv("z", num_ty())
    assert not alpha_equivalent(
        Abstraction(yn, Abstraction(xn, body)), Abstraction(zn, Abstraction(xn, body))
    )
    assert alpha_equivalent(
        Abstraction(xn, Abstraction(yn, body)), Abstraction(xn, Abstraction(yn, body))
    )


def test_alpha_refuses_a_renamed_binder_over_a_shared_evaluation():
    c = tv("c", epsilon_ty())
    n, m, k = tv("n", epsilon_ty()), tv("m", epsilon_ty()), tv("k", epsilon_ty())
    body = Application(Abstraction(k, Evaluation(c, bool_ty())), Quotation(tv("x")))
    assert not alpha_equivalent(Abstraction(n, body), Abstraction(m, body))
    # the rename is refused under an identical outer binder as well
    assert not alpha_equivalent(
        Abstraction(k, Abstraction(n, body)), Abstraction(k, Abstraction(m, body))
    )
    assert alpha_equivalent(Abstraction(n, body), Abstraction(n, body))


_CORPORA = {
    "plain": (21, {}),
    "evals": (22, {"evals": True}),
    "holes": (23, {"holes": True}),
    "evals+holes": (24, {"evals": True, "holes": True}),
}


def _shared_corpus(name):
    """Generated terms, plus terms made by putting two binders drawn from a
    term's own variables over that one shared term (each built twice, so
    equal wrappers meet at the shared term under equal binders)."""
    seed, kw = _CORPORA[name]
    gen = TermGen(seed=seed, **kw)
    terms = [gen.term(depth=3) for _ in range(14)]
    for t in terms[:6]:
        vs = sorted(variables_in(t), key=lambda v: (v.name, repr(v.ty)))[:3]
        for a in vs:
            for b in vs:
                terms.append(Abstraction(a, Abstraction(b, t)))
                terms.append(Abstraction(a, Abstraction(b, t)))
    return terms


@pytest.mark.parametrize("corpus", _CORPORA)
def test_alpha_agrees_with_unshared_copies(corpus):
    terms = _shared_corpus(corpus)
    fresh = [_fresh(t) for t in terms]
    hits = 0
    for s, fs in zip(terms, fresh):
        assert alpha_equivalent(s, fs)
        for t, ft in zip(terms, fresh):
            got = alpha_equivalent(s, t)
            assert got == alpha_equivalent(fs, ft)
            hits += got
    assert hits > len(terms)  # some pairs other than s against itself agree


@pytest.mark.parametrize("corpus", _CORPORA)
def test_frees_agrees_with_unshared_copies(corpus):
    for t in _shared_corpus(corpus):
        assert _frees(t) == _frees(_fresh(t))


def test_frees_is_kept_on_the_node():
    for t in _shared_corpus("evals+holes"):
        if not isinstance(t, Variable):
            assert _frees(t) is _frees(t)
