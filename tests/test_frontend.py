"""Concrete syntax: lexing, parsing, elaboration, printing, and tree codecs."""

import re

import pytest

from cqe import session
from cqe.errors import (
    ElaborationError,
    HoleOutsideQuotation,
    ParseError,
)
from cqe.frontend import (
    json_to_tree,
    parse_term,
    parse_type,
    print_term,
    print_theorem,
    print_type,
    sexp_to_tree,
    term_to_tree,
    tree_to_json,
    tree_to_sexp,
    tree_to_term,
    tree_to_type,
    type_to_tree,
)
from cqe.kernel import (
    ASSUME,
    new_type_constructor,
    mk_conj,
    mk_disj,
    mk_eq,
    mk_exists,
    mk_forall,
    mk_imp,
    mk_neg,
)
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
    alpha_equivalent,
    bool_ty,
    epsilon_ty,
    mk_fun,
    num_ty,
)

from genterms import TermGen, distinct_terms


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


def test_parse_type_atoms_and_arrows():
    assert parse_type("bool") == bool_ty()
    assert parse_type("'a") == TypeVariable("'a")
    assert parse_type("num->bool") == mk_fun(num_ty(), bool_ty())
    # -> is right-associative
    assert parse_type("num->num->bool") == mk_fun(
        num_ty(), mk_fun(num_ty(), bool_ty())
    )
    assert parse_type("(num->num)->bool") == mk_fun(
        mk_fun(num_ty(), num_ty()), bool_ty()
    )


def test_print_type_minimal_parens():
    assert print_type(mk_fun(num_ty(), mk_fun(num_ty(), bool_ty()))) == "num->num->bool"
    assert (
        print_type(mk_fun(mk_fun(num_ty(), num_ty()), bool_ty()))
        == "(num->num)->bool"
    )


def test_type_round_trip_generated():
    gen = TermGen(5)
    for _ in range(200):
        ty = gen.type(4)
        assert parse_type(print_type(ty)) == ty


# ---------------------------------------------------------------------------
# term parsing: shapes
# ---------------------------------------------------------------------------


def test_parse_variables_and_constants():
    assert parse_term("x:bool") == Variable("x", bool_ty())
    assert parse_term("T") == Constant("T", bool_ty())
    # an operator name in parentheses denotes the constant itself
    neg = parse_term("(~)")
    assert isinstance(neg, Constant) and neg.name == "~"


def test_parse_application_left_assoc():
    t = parse_term("f:(num->num->bool) x:num y:num")
    assert isinstance(t, Application)
    assert isinstance(t.fn, Application)
    assert t.fn.arg == Variable("x", num_ty())


def test_parse_abstraction_and_multi_binders():
    one = parse_term("\\x:bool. x")
    x = Variable("x", bool_ty())
    assert one == Abstraction(x, x)
    multi = parse_term("\\x:bool y:bool. x")
    assert isinstance(multi.body, Abstraction)


def test_quantifiers_desugar_to_binders():
    t = parse_term("!x:bool. x")
    assert isinstance(t, Application)
    assert isinstance(t.fn, Constant) and t.fn.name == "!"
    assert isinstance(t.arg, Abstraction)
    e = parse_term("?x:bool. x")
    assert e.fn.name == "?"


def test_infix_precedence_frozen_samples():
    # conjunction binds tighter than disjunction, which binds tighter
    # than implication; implication is right-associative
    t = parse_term("p:bool /\\ q:bool \\/ r:bool ==> s:bool ==> u:bool")
    p, q, r, s, u = (Variable(n, bool_ty()) for n in "pqrsu")
    from cqe.kernel import mk_disj, mk_imp

    assert t == mk_imp(mk_disj(mk_conj(p, q), r), mk_imp(s, u))


def test_negation_and_equality():
    t = parse_term("~(x:bool = y:bool)")
    assert t.fn.name == "~"
    # equality does not chain
    with pytest.raises(ParseError):
        parse_term("x:bool = y:bool = z:bool")


def test_numerals_expand_to_suc_chains():
    t = parse_term("2")
    suc = Constant("SUC", mk_fun(num_ty(), num_ty()))
    zero = Constant("_0", num_ty())
    assert t == Application(suc, Application(suc, zero))


def test_quotation_and_hole_and_eval():
    q = parse_term("Q_ T _Q")
    assert q == Quotation(Constant("T", bool_ty()))
    h = parse_term("Q_ H_ c:epsilon _H:bool /\\ T _Q")
    assert isinstance(h, Quotation)
    assert h.body.fn.arg == Hole(Variable("c", epsilon_ty()), bool_ty())
    e = parse_term("eval x:epsilon to bool")
    assert e == Evaluation(Variable("x", epsilon_ty()), bool_ty())


def test_nested_quotation():
    t = parse_term("Q_ Q_ T _Q _Q")
    assert t == Quotation(Quotation(Constant("T", bool_ty())))


def test_string_literals_are_name_constructions():
    t = parse_term('QuoVar "x" (TyBase "bool")')
    assert isinstance(t, Application)
    assert print_term(t) == 'QuoVar "x" (TyBase "bool")'


# ---------------------------------------------------------------------------
# term parsing: errors
# ---------------------------------------------------------------------------


def test_unknown_name_fails_elaboration():
    with pytest.raises(ElaborationError):
        parse_term("x")  # free variable without an annotation anywhere


def test_unbalanced_and_stray_tokens_have_spans():
    with pytest.raises(ParseError) as info:
        parse_term("(T /\\ F")
    assert info.value.span is not None
    line, col = info.value.span.start
    assert line == 1 and col >= 1
    with pytest.raises(ParseError):
        parse_term("T /\\")
    with pytest.raises(ParseError):
        parse_term("")


def test_type_annotation_conflicts():
    with pytest.raises(ElaborationError):
        parse_term("x:bool /\\ (x:num = x:num)")
    with pytest.raises((ParseError, ElaborationError)):
        parse_term("T:num")


def test_an_annotation_that_fails_against_an_inner_binder_binds_an_outer_one():
    # x:(num->num) unifies with the inner x's type, (?->bool), part-way
    # before it fails there; what it bound is undone, so y can still be bool
    t = parse_term("\\x:(num->num). \\x. x y = T /\\ (x:(num->num)) _0 = _0 /\\ y = T")
    assert t.body.var.ty == mk_fun(bool_ty(), bool_ty())
    assert Variable("x", mk_fun(num_ty(), num_ty())) in t.body._fv
    assert Variable("y", bool_ty()) in t._fv


@pytest.mark.parametrize(
    "parse, text",
    [(parse_term, "x:foo"), (parse_term, "x:fun"), (parse_type, "foo")],
    ids=["unknown-in-term", "wrong-arity-in-term", "unknown-type"],
)
def test_bad_type_constructor_is_a_parse_error_with_a_span(parse, text):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.span is not None


@pytest.mark.parametrize(
    "text",
    [
        "v:(box bool)",
        "v:(pair (box bool) num)",
        "v:(box (box 'a))",
        "v:((box bool)->(pair num (box bool)))",
        "v:(pair 'a (bool->num))",
    ],
)
def test_an_applied_type_constructor_reads_back_as_printed(text):
    new_type_constructor("box", 1)
    new_type_constructor("pair", 2)
    t = parse_term(text)
    assert print_term(t) == text
    assert parse_term(print_term(t)) is t
    assert parse_type(print_type(t.ty)) is t.ty


@pytest.mark.parametrize(
    "parse, text, message, start",
    [
        (parse_term, "x:box", "'box' expects 1 argument(s), got 0", (1, 2)),
        (parse_type, "(box)", "'box' expects 1 argument(s), got 0", (1, 1)),
        (parse_term, "x:(box bool num)", "'box' expects 1 argument(s), got 2", (1, 3)),
        (parse_term, "x:(bool num)", "'bool' expects 0 argument(s), got 1", (1, 3)),
    ],
)
def test_a_type_constructor_at_the_wrong_arity_is_refused_with_a_span(parse, text, message, start):
    new_type_constructor("box", 1)
    with pytest.raises(ParseError, match=re.escape(message)) as info:
        parse(text)
    assert info.value.span.start == start


@pytest.mark.parametrize("text", ["x:'a = y:'b", "x:'a = y:num"])
def test_rigid_type_variables_unify_only_with_themselves(text):
    with pytest.raises(ElaborationError):
        parse_term(text)


def test_polymorphic_constant_at_two_instances_in_one_term():
    t = parse_term("(x:num = y) = (p:bool = q)")
    outer = t.fn.fn
    inner_num = t.fn.arg.fn.fn
    assert outer.ty == mk_fun(bool_ty(), mk_fun(bool_ty(), bool_ty()))
    assert inner_num.ty == mk_fun(num_ty(), mk_fun(num_ty(), bool_ty()))


def test_unconstrained_polymorphic_constant_is_unresolved():
    with pytest.raises(ElaborationError, match="could not infer"):
        parse_term("(=)")


def test_monomorphic_signature_is_used_as_is():
    assert parse_term("~T").fn.ty is session.current().constants["~"]


def test_eval_inside_quotation_rejected():
    with pytest.raises(ParseError):
        parse_term("Q_ eval x:epsilon to bool _Q")


def test_naked_hole_rejected():
    with pytest.raises(HoleOutsideQuotation):
        parse_term("H_ c:epsilon _H:bool")


def test_binder_cannot_shadow_constant():
    with pytest.raises(ParseError):
        parse_term("\\T:bool. T")


def test_too_deep_input_is_a_typed_error():
    def binders(n):
        return "".join(f"(!x{i}:num. x{i} = x{i} /\\ " for i in range(n)) + "T" + ")" * n

    parse_term(binders(200))
    reads = dict(session.current().reads)
    for text in (binders(250), binders(400)):
        for _ in range(2):
            with pytest.raises(ParseError, match="^input is nested too deeply$"):
                parse_term(text)
        assert session.current().reads == reads
    for text in ("(" * 2000 + "bool" + ")" * 2000, "bool->" * 2000 + "bool"):
        with pytest.raises(ParseError, match="^input is nested too deeply$"):
            parse_type(text)


# Observable parser behaviour, pinned: every malformed input's exception
# class, exact message and span start (None where the error has no span).
_MALFORMED = [
    ("(T /\\ F", ParseError, "expected ) (at 'end of input', 1:7)", (1, 7)),
    ("(~ T", ParseError, "expected ) (at 'end of input', 1:4)", (1, 4)),
    ("T /\\ F)", ParseError, "unexpected trailing input (at ')', 1:6)", (1, 6)),
    ("(T))", ParseError, "unexpected trailing input (at ')', 1:3)", (1, 3)),
    ("T /\\", ParseError, "expected a term (at 'end of input', 1:4)", (1, 4)),
    ("T /\\ /\\ F", ParseError, "expected a term (at '/\\\\', 1:5)", (1, 5)),
    ("~", ParseError, "expected a term (at 'end of input', 1:1)", (1, 1)),
    ("", ParseError, "expected a term (at 'end of input', 1:0)", (1, 0)),
    (
        "x:bool = y:bool = z:bool",
        ParseError,
        "'=' does not associate; parenthesize one side (at '=', 1:16)",
        (1, 16),
    ),
    ("_Q", ParseError, "expected a term (at '_Q', 1:0)", (1, 0)),
    ("_H", ParseError, "expected a term (at '_H', 1:0)", (1, 0)),
    ("Q_ T", ParseError, "expected '_Q' closing a quotation (at 'end of input', 1:4)", (1, 4)),
    ("Q_ T _Q _Q", ParseError, "unexpected trailing input (at '_Q', 1:8)", (1, 8)),
    (
        "Q_ eval x:epsilon to bool _Q",
        ParseError,
        "evaluation is not allowed inside a quotation (at 'eval', 1:3)",
        (1, 3),
    ),
    ("H_ c:epsilon _H:bool", HoleOutsideQuotation, "hole outside any quotation at 1:0", None),
    (
        "Q_ H_ H_ c:epsilon _H:bool _H:bool _Q",
        HoleOutsideQuotation,
        "hole outside any quotation at 1:6",
        None,
    ),
    ("x:", ParseError, "expected a type (at 'end of input', 1:2)", (1, 2)),
    ("x:(bool", ParseError, "expected ) (at 'end of input', 1:7)", (1, 7)),
    ("x:foo", ParseError, "unknown type constructor: 'foo' (at 'foo', 1:2)", (1, 2)),
    (
        "x:fun",
        ParseError,
        "type constructor 'fun' expects 2 argument(s), got 0 (at 'fun', 1:2)",
        (1, 2),
    ),
    ("(T):bool", ParseError, "unexpected trailing input (at ':', 1:3)", (1, 3)),
    ("T $ F", ParseError, "unexpected character '$'", (1, 2)),
    ("T\n  F $", ParseError, "unexpected character '$'", (2, 4)),
    ("x:bool\n/\\ ", ParseError, "expected a term (at 'end of input', 2:3)", (2, 3)),
    ("\\. x:bool", ParseError, "expected a binder variable (at '.', 1:1)", (1, 1)),
    ("!x:bool x", ParseError, "expected '.' after binder variables (at 'end of input', 1:9)", (1, 9)),
    ("T /\\ !x:bool. x", ParseError, "expected a term (at '!', 1:5)", (1, 5)),
    ("x:bool ==> !y:bool. y", ParseError, "expected a term (at '!', 1:11)", (1, 11)),
    ("p:bool = ~q:bool", ParseError, "expected a term (at '~', 1:9)", (1, 9)),
    ("x:bool ~ y:bool", ParseError, "unexpected trailing input (at '~', 1:7)", (1, 7)),
    ("eval x:epsilon bool", ParseError, "expected 'to' in an eval form (at 'end of input', 1:19)", (1, 19)),
    (
        "eval eval c:epsilon to epsilon to bool",
        ParseError,
        "expected a term (at 'eval', 1:5)",
        (1, 5),
    ),
    (
        "f:(bool->bool) eval c:epsilon to bool",
        ParseError,
        "unexpected trailing input (at 'eval', 1:15)",
        (1, 15),
    ),
    ("\\T:bool. T", ParseError, "binder variable 'T' shadows a constant (at 1:1)", None),
    (
        "x:bool /\\ (x:num = x:num)",
        ElaborationError,
        "conflicting types for free variable 'x' (at 1:11)",
        None,
    ),
    ("T:num", ElaborationError, "annotation does not fit constant 'T' (at 1:0)", None),
    ("x:'a = y:'b", ElaborationError, "operator/operand types do not agree (at 1:5)", None),
    # the occurs check: x would need a type that contains itself
    ("\\x. x x", ElaborationError, "operator/operand types do not agree (at 1:6)", None),
    ("\\f. f f", ElaborationError, "operator/operand types do not agree (at 1:6)", None),
    ("eval c:bool to bool", ElaborationError, "eval expects a construction (type epsilon) (at 1:0)", None),
    (
        "Q_ H_ T _H _Q",
        ElaborationError,
        "hole content must be a construction (type epsilon) (at 1:3)",
        None,
    ),
    ("?x y. x = y", ElaborationError, "could not infer a unique type; add an annotation", None),
    # a type error before a syntax error: the syntax error is reported
    ("T:num )", ParseError, "unexpected trailing input (at ')', 1:6)", (1, 6)),
    ("\\T:bool. T )", ParseError, "unexpected trailing input (at ')', 1:11)", (1, 11)),
    ("x:'a = y:'b )", ParseError, "unexpected trailing input (at ')', 1:12)", (1, 12)),
]


@pytest.mark.parametrize("text, exc, message, start", _MALFORMED)
def test_malformed_input_message_and_span(text, exc, message, start):
    with pytest.raises(exc) as info:
        parse_term(text)
    assert type(info.value) is exc
    assert str(info.value) == message
    span = getattr(info.value, "span", None)
    assert (span.start if span is not None else None) == start


def _bv(name, ty=None):
    return Variable(name, ty or bool_ty())


# text -> the term it must denote, built without the parser
_STRUCTURE = [
    ("p:bool /\\ q:bool /\\ r:bool", lambda: mk_conj(_bv("p"), mk_conj(_bv("q"), _bv("r")))),
    ("p:bool \\/ q:bool \\/ r:bool", lambda: mk_disj(_bv("p"), mk_disj(_bv("q"), _bv("r")))),
    ("p:bool ==> q:bool ==> r:bool", lambda: mk_imp(_bv("p"), mk_imp(_bv("q"), _bv("r")))),
    (
        "p:bool /\\ q:bool \\/ r:bool ==> s:bool",
        lambda: mk_imp(mk_disj(mk_conj(_bv("p"), _bv("q")), _bv("r")), _bv("s")),
    ),
    (
        "p:bool ==> q:bool \\/ r:bool /\\ s:bool",
        lambda: mk_imp(_bv("p"), mk_disj(_bv("q"), mk_conj(_bv("r"), _bv("s")))),
    ),
    ("~p:bool /\\ q:bool", lambda: mk_conj(mk_neg(_bv("p")), _bv("q"))),
    ("~p:bool = q:bool", lambda: mk_neg(mk_eq(_bv("p"), _bv("q")))),
    ("~ ~p:bool", lambda: mk_neg(mk_neg(_bv("p")))),
    ("p:bool = q:bool /\\ r:bool", lambda: mk_conj(mk_eq(_bv("p"), _bv("q")), _bv("r"))),
    (
        "f:(bool->bool) p:bool = q:bool",
        lambda: mk_eq(Application(_bv("f", mk_fun(bool_ty(), bool_ty())), _bv("p")), _bv("q")),
    ),
    (
        "f:(bool->bool->bool) p:bool q:bool",
        lambda: Application(
            Application(_bv("f", mk_fun(bool_ty(), mk_fun(bool_ty(), bool_ty()))), _bv("p")),
            _bv("q"),
        ),
    ),
    ("!x:bool. x /\\ p:bool", lambda: mk_forall(_bv("x"), mk_conj(_bv("x"), _bv("p")))),
    (
        "!x:bool. ?y:bool. x ==> y",
        lambda: mk_forall(_bv("x"), mk_exists(_bv("y"), mk_imp(_bv("x"), _bv("y")))),
    ),
    ("\\x:bool y:bool. x", lambda: Abstraction(_bv("x"), Abstraction(_bv("y"), _bv("x")))),
    ("\\x:bool. x = x", lambda: Abstraction(_bv("x"), mk_eq(_bv("x"), _bv("x")))),
    ("(\\x:bool. x) p:bool", lambda: Application(Abstraction(_bv("x"), _bv("x")), _bv("p"))),
    ("p:bool /\\ (!x:bool. x)", lambda: mk_conj(_bv("p"), mk_forall(_bv("x"), _bv("x")))),
    (
        "eval c:epsilon to bool /\\ p:bool",
        lambda: mk_conj(Evaluation(_bv("c", epsilon_ty()), bool_ty()), _bv("p")),
    ),
    (
        "eval c:epsilon to bool = p:bool",
        lambda: mk_eq(Evaluation(_bv("c", epsilon_ty()), bool_ty()), _bv("p")),
    ),
    ("Q_ p:bool /\\ q:bool _Q", lambda: Quotation(mk_conj(_bv("p"), _bv("q")))),
    (
        "\\x:bool. \\x:num. x",
        lambda: Abstraction(_bv("x"), Abstraction(_bv("x", num_ty()), _bv("x", num_ty()))),
    ),
    # an annotation that does not fit the inner binder refers outward
    (
        "\\x:bool. \\x:num. x:bool",
        lambda: Abstraction(_bv("x"), Abstraction(_bv("x", num_ty()), _bv("x"))),
    ),
    # a hole sees the scope where its quotation began, not quoted binders
    (
        "\\c:epsilon. Q_ \\c:bool. H_ c _H:bool _Q",
        lambda: Abstraction(
            _bv("c", epsilon_ty()),
            Quotation(Abstraction(_bv("c"), Hole(_bv("c", epsilon_ty()), bool_ty()))),
        ),
    ),
    ("!x. x", lambda: mk_forall(_bv("x"), _bv("x"))),
]


@pytest.mark.parametrize("text, expected", _STRUCTURE, ids=[t for t, _ in _STRUCTURE])
def test_precedence_associativity_and_scope(text, expected):
    assert term_to_tree(parse_term(text)) == term_to_tree(expected())


def test_hole_content_sees_outer_scope_not_quoted_binders():
    # c is bound outside the quotation: the hole may use it
    t = parse_term("\\c:epsilon. Q_ \\x:bool. H_ c _H:bool _Q")
    hole = t.body.body.body
    assert hole == Hole(Variable("c", epsilon_ty()), bool_ty())
    # quoted binders bind nothing: a same-named variable inside a hole is a
    # free occurrence of the outer scope, and the printer keeps it readable
    t2 = parse_term("Q_ \\x:epsilon. H_ x _H:bool _Q")
    from cqe.syntax import free_variables

    assert free_variables(t2) == {Variable("x", epsilon_ty())}
    assert parse_term(print_term(t2)) == t2


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def test_print_frozen_strings():
    cases = [
        "T /\\ F",
        "T \\/ F ==> T",
        "~(T /\\ F)",
        "!x:bool. x ==> x",
        "?x:num. x = _0",
        "(\\x:bool. x) T",
        "Q_ T /\\ F _Q",
        "eval x:epsilon to bool",
        "SUC _0 = SUC _0",
    ]
    for s in cases:
        assert print_term(parse_term(s)) == s


def test_print_shadowed_occurrence_annotates():
    s = "\\f:num. f:bool /\\ f:bool"
    assert print_term(parse_term(s)) == s


def test_print_theorem_format():
    th = ASSUME(mk_conj(Constant("T", bool_ty()), Constant("F", bool_ty())))
    assert print_theorem(th) == "T /\\ F |- T /\\ F"


def test_bootstrap_statements_round_trip():
    s = session.current()
    for th in list(s.theorems.values()) + list(s.basis.values()):
        for t in (th.concl, *th.hyps):
            assert alpha_equivalent(parse_term(print_term(t)), t), print_term(t)


def test_round_trip_generated_terms():
    gen = TermGen(17, evals=True, holes=True)
    for t in distinct_terms(gen, 300):
        assert parse_term(print_term(t)) == t


# ---------------------------------------------------------------------------
# tree codecs
# ---------------------------------------------------------------------------


def test_type_tree_round_trip():
    ty = mk_fun(num_ty(), mk_fun(TypeVariable("'a"), bool_ty()))
    tree = type_to_tree(ty)
    assert tree_to_type(tree) == ty
    assert tree[0] in ("tyvar", "tycon")


def test_term_tree_round_trip_generated():
    gen = TermGen(19, evals=True, holes=True)
    for t in distinct_terms(gen, 200):
        assert tree_to_term(term_to_tree(t)) == t


@pytest.mark.parametrize(
    "tree",
    [
        ("lambda", ("var", "x", ("tycon", "bool", ()))),
        ("var", "x"),
        ("quote", ("const", "T", ("tycon", "bool", ())), ("tycon", "bool", ())),
        (
            "abs",
            ("const", "T", ("tycon", "bool", ())),
            ("const", "T", ("tycon", "bool", ())),
        ),
    ],
    ids=["unknown-tag", "too-few-fields", "too-many-fields", "const-binder"],
)
def test_tree_to_term_rejects_malformed_trees(tree):
    with pytest.raises(ParseError):
        tree_to_term(tree)


@pytest.mark.parametrize(
    "tree",
    [
        ("tyvar", 5),
        ("tyvar", ""),
        ("tycon", "fun", (("tyvar", 5), ("tycon", "bool", ()))),
    ],
    ids=["int-name", "empty-name", "nested"],
)
def test_tree_to_type_rejects_a_malformed_type_variable_name(tree):
    with pytest.raises(ParseError, match="not a type variable name"):
        tree_to_type(tree)
    with pytest.raises(ParseError):
        tree_to_term(("var", "x", tree))


@pytest.mark.parametrize(
    "tree",
    [("tyapp", "bool", ()), ("tycon", "bool"), ("tyvar",), 5],
    ids=["unknown-tag", "too-few-fields", "no-name", "not-a-tree"],
)
def test_tree_to_type_rejects_a_malformed_tree(tree):
    with pytest.raises(ParseError, match="malformed type tree"):
        tree_to_type(tree)


def test_sexp_round_trip():
    gen = TermGen(23, evals=True, holes=True)
    for t in distinct_terms(gen, 150):
        tree = term_to_tree(t)
        s = tree_to_sexp(tree)
        assert sexp_to_tree(s) == tree


def test_sexp_escapes_within_atoms():
    t = parse_term('QuoVar "weird name" (TyBase "bool")')
    s = tree_to_sexp(term_to_tree(t))
    assert tree_to_term(sexp_to_tree(s)) == t


def test_json_round_trip():
    gen = TermGen(29)
    for t in distinct_terms(gen, 100):
        tree = term_to_tree(t)
        assert json_to_tree(tree_to_json(tree)) == tree


def test_sexp_rejects_garbage():
    for text in ["(unclosed", "", '("a"', ")", '"abc', '("a") ("b")', "(x)"]:
        with pytest.raises(ParseError):
            sexp_to_tree(text)


def test_sexp_reads_deep_nesting():
    depth = 5000
    tree = sexp_to_tree('("a" ' * (depth - 1) + '("a")' + ")" * (depth - 1))
    for _ in range(depth - 1):
        assert len(tree) == 2 and tree[0] == "a"
        tree = tree[1]
    assert tree == ("a",)
