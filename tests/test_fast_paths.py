"""Formation, the reader, substitution and the export codec against the code
their fast paths replaced.

The reference oracles below are that code: the lexer's loop over one
regular-expression match per token, with a group for keywords (and a
search back for each ``)``'s open parenthesis); the
foreign-node guard ``syntax._interned`` as an intern-table lookup;
``Application`` and ``Abstraction`` formation through ``_want``,
``is_fun`` and ``_frees``, interned in one flat ``(class, parts)`` table;
substitution with no memo, recursing into every part of an application
(``tree_walks``' binder and evaluation steps); the
s-expression reader over match objects; and ``cli._strip_comment``'s
character loop.  The tests compare each with its replacement (formation
also on refusals, and on leaving the template's tables as they were), and
pin what the session's read memo must keep: an entry never outlives the signature
it was read under, nor its session, a group is kept only when it reads no
name from outside itself, and a group read from the memo reads as a fresh
read of it does.  A refused text gets no entry, and raises the same error
on every call; the closed groups it read stay, and each answers its text as
a fresh read does.
"""

import json
import random
import re
from pathlib import Path

import pytest

from cqe import cli, frontend, session
from cqe.errors import (
    CqeError,
    ElaborationError,
    IllTyped,
    KernelError,
    NotAVariable,
    ParseError,
    SourceSpan,
)
from cqe.frontend import (
    _lex,
    _linecol,
    json_to_tree,
    parse_term,
    print_term,
    print_type,
    sexp_to_tree,
    term_to_tree,
    tree_to_sexp,
)
from cqe.kernel import ASSUME, new_basic_definition, new_constant, new_type_constructor, vsubst
from cqe.syntax import (
    IDENT,
    KEYWORD,
    TYVAR,
    Abstraction,
    Application,
    Constant,
    Hole,
    Quotation,
    Term,
    TypeVariable,
    Variable,
    _frees,
    _interned,
    _union,
    _want,
    bool_ty,
    is_fun,
    map_holes,
    mk_fun,
    num_ty,
    subterms,
    variables_in,
)

import fuzz_reader
import tree_walks
from genterms import TermGen

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "src" / "cqe" / "scripts"

# ---------------------------------------------------------------------------
# reference oracles
# ---------------------------------------------------------------------------

_TOKEN_RE_REFERENCE = re.compile(
    rf"""\s*(?:
        (?P<STRING>"[^"\n]*")
      | (?P<TYVAR>{TYVAR})
      | (?P<KW>{KEYWORD}(?![A-Za-z0-9_']))
      | (?P<IDENT>{IDENT})
      | (?P<NUMERAL>[0-9]+)
      | (?P<OP>==>|->|<=|/\\|\\/|[()\.:\\~=!?+*])
      | (?P<EOF>\Z)
      | (?P<BAD>.)
    )""",
    re.VERBOSE,
)


def lex_reference(text):
    kinds, texts, starts = [], [], []
    for m in _TOKEN_RE_REFERENCE.finditer(text):
        g = m.lastindex
        kind = m.lastgroup
        lexeme = m[g]
        if kind == "OP" or kind == "KW":
            kind = lexeme
        elif kind == "BAD":
            line, col = _linecol(text, m.start(g))
            raise ParseError(
                f"unexpected character {lexeme!r}",
                SourceSpan(text, (line, col), (line, col + 1)),
            )
        kinds.append(kind)
        texts.append(lexeme)
        starts.append(m.start(g))
        if kind == "EOF":
            break
    close = {}
    for j, kind in enumerate(kinds):
        if kind == ")":
            opener = [i for i in range(j) if kinds[i] == "(" and i not in close]
            if opener:
                close[opener[-1]] = j
    return kinds, texts, starts, close


def interned_reference(node):
    s = session.current()
    if isinstance(node, Term):
        return s.terms[type(node)].get(node._parts) is node
    key = node.name if type(node) is TypeVariable else (node.constructor, node.arguments)
    return s.types.get(key) is node


def application_reference(node):
    fn, arg = node._parts
    _want(node, fn, Term)
    _want(node, arg, Term)
    fty = fn.ty
    if not is_fun(fty):
        raise IllTyped(f"operator is not function-typed: {fty!r}")
    dom, cod = fty.arguments
    if dom != arg.ty:
        raise IllTyped(f"operand type {arg.ty!r} does not match operator domain {dom!r}")
    node.__dict__.update(
        fn=fn,
        arg=arg,
        ty=cod,
        eval_free=fn.eval_free and arg.eval_free,
        ef_outside_holes=fn.ef_outside_holes and arg.ef_outside_holes,
        has_hole=fn.has_hole or arg.has_hole,
        has_naked_hole=fn.has_naked_hole or arg.has_naked_hole,
        _fv=_union(_frees(fn), _frees(arg)),
    )


def abstraction_reference(node):
    var, body = node._parts
    _want(node, body, Term)
    if not isinstance(var, Variable):
        raise NotAVariable("abstraction binder must be a Variable")
    _want(node, var, Variable)
    fv = _frees(body)
    if var in fv:
        fv = fv - frozenset((var,))
    node.__dict__.update(
        var=var,
        body=body,
        ty=mk_fun(var.ty, body.ty),
        eval_free=body.eval_free,
        ef_outside_holes=body.ef_outside_holes,
        has_hole=body.has_hole,
        has_naked_hole=body.has_naked_hole,
        _fv=fv,
    )


def form_reference(table, cls, *parts):
    """``cls(*parts)`` interned in one flat ``(cls, parts)`` table, through the
    reference bodies above for Application and Abstraction."""
    key = (cls, parts)
    t = table.get(key)
    if t is None:
        t = object.__new__(cls)
        t.__dict__.update(_parts=parts, _serial=session.current().serial)
        post_init = {Application: application_reference, Abstraction: abstraction_reference}
        post_init.get(cls, cls.__post_init__)(t)
        table[key] = t
    return t


def vsubst_reference(t, theta, registry, used):
    if isinstance(t, Variable):
        return theta.get(t, t)
    if t.eval_free and theta.keys().isdisjoint(t._fv):
        return t
    if isinstance(t, Application):
        fn = vsubst_reference(t.fn, theta, registry, used)
        arg = vsubst_reference(t.arg, theta, registry, used)
        return t if fn is t.fn and arg is t.arg else Application(fn, arg)
    if isinstance(t, Abstraction):
        return tree_walks._vsubst_abs(t, theta, registry, used)
    if isinstance(t, Quotation):
        body = map_holes(t.body, vsubst_reference, theta, registry, used)
        return t if body is t.body else Quotation(body)
    if isinstance(t, Hole):
        c = vsubst_reference(t.content, theta, registry, used)
        return t if c is t.content else Hole(c, t.slot_type)
    return tree_walks._vsubst_eval(t, theta, registry, used)


_SEXP_TOKEN_REFERENCE = re.compile(r'''\s*(?:(\()|(\))|"([^"\\]*(?:\\.[^"\\]*)*)"|(")|(\S))''', re.S)
_SEXP_ESCAPE = re.compile(r"\\(.)", re.S)


def sexp_to_tree_reference(text):
    stack = [[]]
    for m in _SEXP_TOKEN_REFERENCE.finditer(text):
        group = m.lastindex
        if group == 1:
            stack.append([])
        elif group == 2:
            if len(stack) == 1:
                raise ParseError("unbalanced ')' in s-expression")
            items = stack.pop()
            stack[-1].append(tuple(items))
        elif group == 3:
            atom = m[3]
            stack[-1].append(_SEXP_ESCAPE.sub(r"\1", atom) if "\\" in atom else atom)
        elif group == 4:
            raise ParseError("unterminated string in s-expression")
        else:
            raise ParseError(f"unexpected character {m[5]!r} in s-expression")
    if len(stack) > 1:
        raise ParseError("unbalanced parentheses in s-expression")
    if not stack[0]:
        raise ParseError("unexpected end of s-expression")
    if len(stack[0]) > 1:
        raise ParseError("trailing input after s-expression")
    return stack[0][0]


def json_to_tree_reference(text):
    def tupleize(x):
        if isinstance(x, list):
            return tuple(tupleize(e) for e in x)
        if isinstance(x, str):
            return x
        raise ParseError("json tree must contain only lists and strings")

    try:
        data = json.loads(text)
    except ValueError as e:
        raise ParseError(f"bad json: {e}") from None
    return tupleize(data)


def strip_comment_reference(line):
    in_tick = False
    for i, c in enumerate(line):
        if c == "`":
            in_tick = not in_tick
        elif c == "#" and not in_tick:
            return line[:i]
    return line


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_MALFORMED = [
    "",
    "   \n\t ",
    "x @ y",
    '"unterminated',
    '"two\nlines"',
    "'",
    "' a",
    "'1",
    "a - b",
    "a / b",
    "a < b",
    "\\x. x $",
    "f x\n  g y\n    # z",
    "λx. x",
    "evalx tox Q_x _Qx H_1",
    "eval'  to'",
    "x:num->bool",
    "(==>) (/\\) (\\/) (<=)",
    "a\u00a0b\u2003",
    "\u3000",
    "x \x0c\x0b\r\n",
]


def _generated_texts():
    out = []
    for seed in range(6):
        gen = TermGen(seed, evals=True, holes=True)
        for _ in range(40):
            t = gen.term(depth=4)
            out.append(print_term(t))
            out.append(print_type(t.ty))
    return out


def _fuzzed_texts(count=400):
    rng = random.Random(17)
    alphabet = "ab_Q'H\"0 1\n\t()\\.:~=!?+*<>-/@#`λ" + "xyz"
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24))) for _ in range(count)]


def _script_texts():
    out = []
    for path in sorted(SCRIPTS.glob("*.cqe")):
        text = path.read_text()
        out += re.findall(r"`([^`]*)`", text) + [text]
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except CqeError as e:
        span = getattr(e, "span", None)
        return type(e), str(e), None if span is None else (span.text, span.start, span.end)


# ---------------------------------------------------------------------------
# the lexer
# ---------------------------------------------------------------------------


def test_lex_agrees_with_the_reference():
    texts = _script_texts() + _generated_texts() + _MALFORMED + _fuzzed_texts()
    refused = 0
    for text in texts:
        want = _outcome(lex_reference, text)
        assert _outcome(_lex, text) == want, text
        refused += want[0] is ParseError
    assert len(_script_texts()) >= 30
    assert refused >= 150, refused


# ---------------------------------------------------------------------------
# the foreign-node guard
# ---------------------------------------------------------------------------


def _nodes(t):
    """Every term and type node of t, each object once."""
    seen, stack = {}, [t]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen[id(n)] = n
        if isinstance(n, Term):
            stack.extend(p for p in n._parts if not isinstance(p, str))
        elif type(n) is not TypeVariable:
            stack.extend(n.arguments)
    return list(seen.values())


def test_interned_agrees_with_the_table_lookup():
    template = session._build_template()
    from_template = [t for table in template.terms.values() for t in table.values()]
    from_template += list(template.types.values())
    gen = TermGen(31, evals=True, holes=True)
    discarded = [n for _ in range(30) for n in _nodes(gen.term(depth=4))]
    session.reset()
    gen = TermGen(31, evals=True, holes=True)  # the same structures, formed anew
    live = [n for _ in range(30) for n in _nodes(gen.term(depth=4))]
    counts = {}
    for group, nodes in (("template", from_template), ("live", live), ("discarded", discarded)):
        for n in nodes:
            got = _interned(n)
            assert got == interned_reference(n), n
            counts[group, got] = counts.get((group, got), 0) + 1
    assert counts.get(("template", False), 0) == counts.get(("live", False), 0) == 0
    assert counts["discarded", False] >= 200 and counts["discarded", True] >= 100, counts


def test_a_discarded_node_is_still_refused():
    x_old = Variable("kept_x", bool_ty())
    session.reset()
    x = Variable("kept_x", bool_ty())
    assert x is not x_old and not _interned(x_old) and _interned(x)
    with pytest.raises(IllTyped, match="part formed in another session"):
        Abstraction(x_old, x)
    with pytest.raises(KernelError, match="a term was formed in another session"):
        ASSUME(x_old)


_CACHES = ("eval_free", "ef_outside_holes", "has_hole", "has_naked_hole")


def test_formation_agrees_with_the_reference():
    counts = {Application: 0, Abstraction: 0}
    for seed in range(40):
        session.reset()
        gen = TermGen(seed, evals=True, holes=True)
        terms = [gen.term(depth=4) for _ in range(12)]
        # every node again through the reference, parts first, in a universe
        # of its own: mirror and back map the two universes' nodes
        table, mirror, back = {}, {}, {}

        def ref(m):
            r = mirror.get(id(m))
            if r is None:
                parts = (ref(p) if isinstance(p, Term) else p for p in m._parts)
                r = mirror[id(m)] = form_reference(table, type(m), *parts)
                back[id(r)] = m
            return r

        for t in terms:
            ref(t)
        # interning agrees: distinct structures are distinct nodes in both
        assert len(table) == len(mirror) == len(back)
        for m_id, r in mirror.items():
            m = back[id(r)]
            assert id(m) == m_id and r.ty is m.ty, m
            assert [getattr(r, c) for c in _CACHES] == [getattr(m, c) for c in _CACHES], m
            if r._fv is None:
                assert m._fv is None
            else:
                assert {back[id(v)] for v in r._fv} == m._fv, m
            counts[type(m)] = counts.get(type(m), 0) + 1
    assert counts[Application] >= 1000 and counts[Abstraction] >= 200, counts


def test_formation_refuses_as_the_reference_does():
    n, b = num_ty(), bool_ty()
    x_old = Variable("x", n)  # from a discarded session
    f_old = Variable("f", mk_fun(n, b))
    session.reset()
    x, p = Variable("x", n), Variable("p", b)
    f = Variable("f", mk_fun(n, b))
    g = Variable("g", TypeVariable("'a"))
    cases = [
        (Application, (5, x)),  # a part that is not a Term
        (Application, (f, "x")),
        (Application, (f, x_old)),  # a part from a discarded session
        (Application, (f_old, x)),
        (Application, (p, x)),  # an operator that is not a function
        (Application, (g, x)),
        (Application, (f, p)),  # a domain mismatch
        (Application, (5, p)),  # two faults: the first part's is reported
        (Abstraction, (x, 5)),
        (Abstraction, (x, x_old)),
        (Abstraction, (Constant("T", b), x)),  # a binder that is not a Variable
        (Abstraction, (Application(f, x), x)),
        (Abstraction, (x_old, p)),  # a binder from another session
        (Abstraction, (7, "junk")),
    ]
    terms = session.current().terms
    size = sum(len(table) for table in terms.values())
    for cls, parts in cases:
        with pytest.raises(KernelError) as want:
            form_reference({}, cls, *parts)
        with pytest.raises(KernelError) as got:
            cls(*parts)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert sum(len(table) for table in terms.values()) == size


def test_forming_nodes_leaves_the_template_tables_unchanged():
    template = session._build_template()
    before = {cls: dict(table) for cls, table in template.terms.items()}
    s = session.reset()
    gen = TermGen(5, evals=True, holes=True)
    for _ in range(40):
        gen.term(depth=4)
    assert sum(map(len, s.terms.values())) > sum(map(len, before.values()))
    assert template.terms.keys() == before.keys()
    for cls, table in template.terms.items():
        assert s.terms[cls] is not table
        assert table.keys() == before[cls].keys()
        assert all(table[k] is t for k, t in before[cls].items())


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def _subst_outcome(pairs, t, subst=vsubst):
    used = []
    try:
        return subst(pairs, t, used), used
    except CqeError as e:
        return type(e), used


def test_vsubst_agrees_with_recursing_into_every_part(monkeypatch):
    outcomes = {"changed": 0, "same": 0, "refused": 0}
    for seed in range(60):
        session.reset()
        gen = TermGen(seed, evals=True, holes=True)
        for i in range(12):
            t = gen.term(depth=4)
            vs = sorted(variables_in(t), key=lambda v: (v.name, repr(v.ty)))
            if not vs:
                continue
            xs = list(dict.fromkeys([vs[i % len(vs)], vs[(i * 5 + 1) % len(vs)]][: 1 + i % 2]))
            pairs = [(x, gen.term(x.ty, depth=1 + i % 3)) for x in xs]
            got, used = _subst_outcome(pairs, t)
            with monkeypatch.context() as m:
                m.setattr(tree_walks, "_vsubst", vsubst_reference)
                want, want_used = _subst_outcome(pairs, t, tree_walks.vsubst)
            assert got is want, (t, pairs)
            # each shared subterm is substituted once, so its facts are
            # listed once: the same facts, in order of first consultation
            assert [id(u) for u in dict.fromkeys(used)] == [id(u) for u in dict.fromkeys(want_used)]
            if isinstance(got, type):
                outcomes["refused"] += 1
            else:
                outcomes["same" if got is t else "changed"] += 1
    assert outcomes["changed"] >= 300 and outcomes["same"] >= 60, outcomes
    assert outcomes["refused"] >= 20, outcomes


# ---------------------------------------------------------------------------
# the read memo
# ---------------------------------------------------------------------------


def test_a_text_is_read_once_per_signature():
    reads = session.current().reads
    t = parse_term("k:bool")
    assert isinstance(t, Variable) and len(reads) == 1
    assert parse_term("k:bool") is t and len(reads) == 1
    new_constant("k", bool_ty())
    assert isinstance(parse_term("k:bool"), Constant) and len(reads) == 2


def test_a_definition_invalidates_the_read_memo():
    assert isinstance(parse_term("d:bool"), Variable)
    new_basic_definition("d", parse_term("T"))
    assert parse_term("d:bool") is Constant("d", bool_ty())


def test_a_type_constructor_invalidates_the_read_memo():
    reads = session.current().reads
    t = parse_term("y:bool")
    with pytest.raises(ParseError, match="unknown type constructor"):
        parse_term("y:shape")
    new_type_constructor("shape", 0)
    assert parse_term("y:bool") is t and len(reads) == 2  # read again, same term
    assert print_term(parse_term("y:shape")) == "y:shape"


@pytest.mark.parametrize(
    "text",
    [
        "(x",
        "x = y = z",
        "\\x. x",
        "eval c to bool =",
        # groups that read, and are kept, before the text is refused
        "(SUC _0) = = _0",
        "((SUC _0) = _0) /\\ (p",
        "((SUC _0) = _0) /\\ (q:num)",
    ],
)
def test_a_refused_text_raises_on_every_call(text, monkeypatch):
    reads = session.current().reads
    first = _outcome(parse_term, text)
    assert first[0] in (ParseError, ElaborationError)
    assert _outcome(parse_term, text) == first
    assert _key(text) not in reads
    # the closed groups read before the refusal stay, each as its text alone reads
    kept = dict(reads)
    assert bool(kept) == text.startswith(("(SUC", "((SUC"))
    monkeypatch.setattr(session.current(), "reads", {})
    monkeypatch.setattr(frontend._Reader, "_reuse", lambda self, inner, j: None)
    for (inner, *_), (t, names) in kept.items():
        assert _outcome(parse_term, inner) is t and names == ()


def _reuse_hits(monkeypatch) -> list:
    """The inner text of each group read from the memo from now on."""
    hits = []
    reuse = frontend._Reader._reuse

    def spy(self, inner, j):
        plan = reuse(self, inner, j)
        if plan is not None:
            hits.append(inner)
        return plan

    monkeypatch.setattr(frontend._Reader, "_reuse", spy)
    return hits


def _key(text):
    s = session.current()
    return (text, len(s.constants), len(s.type_arities))


def test_a_closed_group_is_kept_and_answers_its_text(monkeypatch):
    reads = session.current().reads
    parse_term("\\x:num. ((SUC _0) = x)")
    # (SUC _0) reads no name from outside itself; its outer group reads x
    assert set(reads) == {_key("\\x:num. ((SUC _0) = x)"), _key("SUC _0")}
    suc0 = parse_term("SUC _0")
    assert reads[_key("SUC _0")] == (suc0, ()) and len(reads) == 2
    hits = _reuse_hits(monkeypatch)
    parse_term("(SUC _0) = _0")
    assert hits == ["SUC _0"]


def test_a_text_with_a_free_name_is_reused_where_the_name_reads_alike(monkeypatch):
    reads = session.current().reads
    parse_term("x = 1")
    assert reads[_key("x = 1")][1] == (("x", num_ty()),)
    hits = _reuse_hits(monkeypatch)
    # x bound at num, free at num, or neither: reused
    for text in ("\\x:num. (x = 1) /\\ T", "x:num = 2 /\\ (x = 1)", "(x = 1) /\\ (\\y. T) x"):
        parse_term(text)
    assert hits == ["x = 1"] * 3
    # where x was new, the later x got num from the entry, and so did y
    y = Variable("y", num_ty())
    assert parse_term("(x = 1) /\\ (\\y. T) x").arg.fn is Abstraction(y, parse_term("T"))
    # x bound at another type, or at one not yet known, or free at one not
    # yet known: read
    hits.clear()
    with pytest.raises(ElaborationError):
        parse_term("\\x:bool. (x = 1) /\\ T")
    parse_term("\\x. (x = 1) /\\ T")
    parse_term("x = x /\\ (x = 1)")
    assert hits == []
    # a group holding such a reuse reads a name from outside itself
    for text in ("\\x:num. ((x = 1) /\\ T)", "((x = 1) /\\ T) /\\ F"):
        parse_term(text)
        assert _key("(x = 1) /\\ T") not in reads
    with pytest.raises(ElaborationError):
        parse_term("\\x:bool. ((x = 1) /\\ T)")


def test_a_group_that_reads_an_outside_name_is_never_kept():
    f_num, f_bool = Variable("f", num_ty()), Variable("f", bool_ty())
    parse_term("!f:num. SUC (z:num) = ((f))")  # the group "(f)" reads the bound f
    assert _key("(f)") not in session.current().reads
    with pytest.raises(ElaborationError, match="could not infer a unique type"):
        parse_term("(f)")
    assert parse_term("\\f:bool. (f)") is Abstraction(f_bool, f_bool)
    assert parse_term("\\f:bool. ((f))") is Abstraction(f_bool, f_bool)
    assert parse_term("!f:num. ((f)) = z") is parse_term("!f:num. f = z:num")
    assert Abstraction(f_num, f_num) is parse_term("\\f:num. ((f))")


def test_a_group_with_an_evaluation_is_refused_inside_a_quotation():
    texts = ["Q_ (eval x:epsilon to bool) _Q", "Q_ ((eval x:epsilon to bool)) _Q"]
    want = [_outcome(parse_term, text) for text in texts]
    assert all(w[0] is ParseError and "evaluation is not allowed" in w[1] for w in want)
    session.reset()
    read = parse_term("(eval x:epsilon to bool) /\\ T")  # keeps the group
    assert parse_term("eval x:epsilon to bool") is read.fn.arg  # and the whole text
    assert [_outcome(parse_term, text) for text in texts] == want


def test_reuse_reads_every_text_as_a_fresh_read_does(monkeypatch):
    hits = _reuse_hits(monkeypatch)
    counts = {"term": 0, "refused": 0}
    for seed in range(120):
        for text, got, want in fuzz_reader.sequence(seed):
            assert fuzz_reader.same(got, want), text
            counts["term" if isinstance(want, Term) else "refused"] += 1
    assert counts["term"] >= 2000 and counts["refused"] >= 1000, counts
    assert len(hits) >= 1500, len(hits)


def test_deep_parentheses_read_with_kept_groups():
    assert parse_term("(" * 900 + "T" + ")" * 900) is Constant("T", bool_ty())
    assert parse_term("(" * 900 + "x = y:num" + ")" * 900) is parse_term("x = y:num")
    with pytest.raises(ElaborationError, match="could not infer a unique type"):
        parse_term("(" * 900 + "x = y" + ")" * 900)


def test_reset_drops_the_read_memo():
    old = parse_term("z:bool")
    session.reset()
    assert session.current().reads == {}
    new = parse_term("z:bool")
    assert new is not old and _interned(new)


def test_a_script_reads_a_name_declared_after_its_first_use(tmp_path, capsys):
    path = tmp_path / "late.cqe"
    path.write_text(
        "thm a := (REFL `late:bool`)\n"
        "constant late : bool\n"
        "thm b := (REFL `late:bool`)\n"
    )
    assert cli.main(["check", "--trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "a : |- late:bool = late:bool" in out
    assert "b : |- late = late" in out


# ---------------------------------------------------------------------------
# the export codec
# ---------------------------------------------------------------------------


def test_memoised_trees_and_texts_equal_fresh_ones():
    gen = TermGen(41, evals=True, holes=True)
    terms = [gen.term(depth=4) for _ in range(60)]
    trees = {}
    texts = {}
    shared = 0
    for t in terms:
        tree = term_to_tree(t, trees)
        assert tree == term_to_tree(t)
        assert tree_to_sexp(tree, texts) == tree_to_sexp(tree)
        for s in subterms(t):
            shared += term_to_tree(s, trees) is trees[s]
    assert shared >= 50


def test_sexp_reader_agrees_with_the_reference():
    texts = [
        '("" "a" ("b\\"c" "\\\\") ())',
        '(""""',
        '("a" "b")  ',
        ' ( ) ',
        "",
        "x",
        '("a") ("b")',
        '("a"',
        ')',
        '("unterminated)',
    ]
    for path in sorted((TESTS / "golden").glob("*.sexp")):
        texts += path.read_text().splitlines()
    rng = random.Random(5)
    texts += ["".join(rng.choice('()"\\ a') for _ in range(rng.randint(0, 12))) for _ in range(300)]
    for text in texts:
        assert _outcome(sexp_to_tree, text) == _outcome(sexp_to_tree_reference, text), text


def test_json_reader_agrees_with_the_reference():
    texts = ['"a"', "[]", '[["a", []], "b"]', "5", '["a", 5]', '[["a", null]]', "{}", "[", ""]
    for path in sorted((TESTS / "golden").glob("*.json-like")):
        texts += path.read_text().splitlines()
    for text in texts:
        assert _outcome(json_to_tree, text) == _outcome(json_to_tree_reference, text), text


def test_strip_comment_agrees_with_the_reference():
    lines = []
    for path in sorted(SCRIPTS.glob("*.cqe")):
        lines += path.read_text().splitlines()
    lines += ["# all comment", "thm a := (REFL `x`) # tail", "check a matches `#` # x", "`#`", "a`b#"]
    assert sum("#" in line for line in lines) >= 5
    for line in lines:
        assert cli._strip_comment(line) == strip_comment_reference(line)
