"""Concrete syntax for terms and types.

The surface language is a small HOL-style notation:

    !x:epsilon. isExprType x (TyBase "bool") ==> ((eval x to bool) \\/ ~(eval x to bool))

* ``!`` / ``?`` / ``\\`` bind variables (``!x y:bool. p``); binder variables
  may carry a ``:type`` annotation, and the printer always emits one.
* ``==>`` ``\\/`` ``/\\`` ``~`` ``=`` are the usual connectives; ``=`` does
  not associate, so chained equations need parentheses.
* ``Q_ t _Q`` quotes a term, ``H_ c _H`` splices a construction into a
  quotation (optionally annotated ``H_ c _H:bool`` with the type of the
  expression it stands for), and ``eval c to ty`` evaluates a construction.
* Prefix atoms for operators are written ``(=)``, ``(+)``, ``(<=)`` and so
  on; string literals like ``"bool"`` are the names used by syntax
  constructors; numerals abbreviate ``SUC (SUC ... _0)`` on input only.

A recursive-descent parser builds a tree of identifiers whose type
annotations are already kernel ``HolType`` values; a unification-based
elaborator then resolves identifier scoping and fills in types.  Its types
are kernel types too, plus one class of unification variable (``_Meta``):
every occurrence of a polymorphic constant gets fresh metas for its type
variables, free variables get one type per name, and ``_zonk`` replaces
solved metas when the kernel terms are built.  Anything left undetermined is
an error rather than a guess.  ``print_term`` emits text that parses back to
an equal term.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field

from . import session
from .errors import (
    ElaborationError,
    HoleOutsideQuotation,
    IllTyped,
    KernelError,
    ParseError,
    SourceSpan,
)
from .syntax import (
    Abstraction,
    Application,
    Constant,
    Evaluation,
    Hole,
    HolType,
    Quotation,
    Term,
    TypeApplication,
    TypeVariable,
    Variable,
    _is_name_literal,
    epsilon_ty,
    mk_fun,
    num_ty,
    str_ty,
    subst_type,
    type_variables_in,
)

__all__ = [
    "parse_term",
    "parse_type",
    "print_term",
    "print_type",
    "print_theorem",
    "term_to_tree",
    "tree_to_term",
    "type_to_tree",
    "tree_to_type",
    "tree_to_sexp",
    "sexp_to_tree",
    "tree_to_json",
    "json_to_tree",
]


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_KEYWORDS = ("eval", "to", "Q_", "_Q", "H_", "_H")

_TOKEN_RE = re.compile(
    r"""(?P<WS>\s+)
      | (?P<STRING>"[^"\n]*")
      | (?P<TYVAR>'[A-Za-z_][A-Za-z0-9_]*)
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<NUMERAL>[0-9]+)
      | (?P<OP>==>|->|<=|/\\|\\/|[()\.:\\~=!?+*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT TYVAR NUMERAL STRING OP KW EOF
    text: str
    line: int
    col: int


def _lex(text: str) -> list:
    toks = []
    pos = 0
    line = 1
    bol = 0  # offset of start of current line
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                SourceSpan(text, (line, pos - bol), (line, pos - bol + 1)),
            )
        kind = m.lastgroup
        lexeme = m.group()
        if kind != "WS":
            tkind = kind
            if kind == "IDENT" and lexeme in _KEYWORDS:
                tkind = "KW"
            toks.append(Token(tkind, lexeme, line, pos - bol))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            bol = pos + lexeme.rindex("\n") + 1
        pos = m.end()
    toks.append(Token("EOF", "", line, pos - bol))
    return toks


# ---------------------------------------------------------------------------
# parse trees
# ---------------------------------------------------------------------------


@dataclass
class PNode:
    pos: tuple = field(default=(0, 0), kw_only=True)


@dataclass
class PIdent(PNode):
    name: str
    ann: HolType | None


@dataclass
class PString(PNode):
    text: str


@dataclass
class PNum(PNode):
    value: int


@dataclass
class PApp(PNode):
    fn: PNode
    arg: PNode


@dataclass
class PAbs(PNode):
    name: str
    ann: HolType | None
    body: PNode


@dataclass
class PQuote(PNode):
    body: PNode


@dataclass
class PHole(PNode):
    body: PNode
    ann: HolType | None


@dataclass
class PEval(PNode):
    body: PNode
    ty: HolType


# Operator names that may appear as parenthesized atoms like (=) or (+).
_OP_ATOMS = frozenset({"=", "==>", "/\\", "\\/", "~", "!", "?", "+", "*", "<="})

_BINDERS = frozenset({"!", "?", "\\"})


class _Parser:
    def __init__(self, toks, text):
        self.toks = toks
        self.text = text
        self.i = 0
        self.ctx = []  # 'q' inside a quotation, 'h' inside a hole

    # -- plumbing ----------------------------------------------------------

    def peek(self, k=0):
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def advance(self):
        t = self.toks[self.i]
        if t.kind != "EOF":
            self.i += 1
        return t

    def _span(self, tok) -> SourceSpan:
        end = (tok.line, tok.col + max(len(tok.text), 1))
        return SourceSpan(self.text, (tok.line, tok.col), end)

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        shown = tok.text if tok.kind != "EOF" else "end of input"
        raise ParseError(f"{msg} (at {shown!r}, {tok.line}:{tok.col})", self._span(tok))

    def expect(self, kind, text=None, what=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            self.fail(f"expected {what or text or kind}")
        return self.advance()

    def expect_eof(self):
        if self.peek().kind != "EOF":
            self.fail("unexpected trailing input")

    # -- types --------------------------------------------------------------

    def type_(self) -> HolType:
        a = self.tyatom()
        t = self.peek()
        if t.kind == "OP" and t.text == "->":
            self.advance()
            return mk_fun(a, self.type_())
        return a

    def tyatom(self) -> HolType:
        t = self.peek()
        if t.kind == "TYVAR":
            self.advance()
            return TypeVariable(t.text)
        if t.kind == "IDENT":
            self.advance()
            try:
                return TypeApplication(t.text, ())
            except KernelError as e:
                self.fail(str(e), t)
        if t.kind == "OP" and t.text == "(":
            self.advance()
            ty = self.type_()
            self.expect("OP", ")")
            return ty
        self.fail("expected a type")

    # -- terms --------------------------------------------------------------

    def term(self) -> PNode:
        t = self.peek()
        if t.kind == "OP" and t.text in _BINDERS:
            return self._binder()
        return self._imp()

    def _binder(self) -> PNode:
        op = self.advance()
        bvars = [self._bvar()]
        while self.peek().kind == "IDENT":
            bvars.append(self._bvar())
        self.expect("OP", ".", what="'.' after binder variables")
        body = self.term()
        for name, ann, pos in reversed(bvars):
            body = PAbs(name, ann, body, pos=pos)
            if op.text != "\\":
                body = PApp(PIdent(op.text, None, pos=pos), body, pos=pos)
        return body

    def _bvar(self):
        t = self.expect("IDENT", what="a binder variable")
        ann = self._opt_ann()
        return (t.text, ann, (t.line, t.col))

    def _imp(self) -> PNode:
        l = self._disj()
        t = self.peek()
        if t.kind == "OP" and t.text == "==>":
            self.advance()
            r = self._imp()
            return self._binop("==>", l, r, t)
        return l

    def _disj(self) -> PNode:
        l = self._conj()
        t = self.peek()
        if t.kind == "OP" and t.text == "\\/":
            self.advance()
            return self._binop("\\/", l, self._disj(), t)
        return l

    def _conj(self) -> PNode:
        l = self._neg()
        t = self.peek()
        if t.kind == "OP" and t.text == "/\\":
            self.advance()
            return self._binop("/\\", l, self._conj(), t)
        return l

    def _neg(self) -> PNode:
        t = self.peek()
        if t.kind == "OP" and t.text == "~":
            self.advance()
            return PApp(PIdent("~", None, pos=(t.line, t.col)), self._neg(), pos=(t.line, t.col))
        return self._eq()

    def _eq(self) -> PNode:
        l = self._comb()
        t = self.peek()
        if t.kind == "OP" and t.text == "=":
            self.advance()
            r = self._comb()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "=":
                self.fail("'=' does not associate; parenthesize one side")
            return self._binop("=", l, r, t)
        return l

    def _binop(self, name, l, r, tok):
        pos = (tok.line, tok.col)
        return PApp(PApp(PIdent(name, None, pos=pos), l, pos=pos), r, pos=pos)

    def _comb(self) -> PNode:
        t = self.peek()
        if t.kind == "KW" and t.text == "eval":
            if self.ctx and self.ctx[-1] == "q":
                self.fail("evaluation is not allowed inside a quotation")
            self.advance()
            body = self._app()
            self.expect("KW", "to", what="'to' in an eval form")
            ty = self.tyatom()
            return PEval(body, ty, pos=(t.line, t.col))
        return self._app()

    def _app(self) -> PNode:
        t = self.atom()
        while self._starts_atom():
            nxt = self.peek()
            t = PApp(t, self.atom(), pos=(nxt.line, nxt.col))
        return t

    def _starts_atom(self) -> bool:
        t = self.peek()
        if t.kind in ("IDENT", "STRING", "NUMERAL"):
            return True
        if t.kind == "KW" and t.text in ("Q_", "H_"):
            return True
        return t.kind == "OP" and t.text == "("

    def atom(self) -> PNode:
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "IDENT":
            self.advance()
            return PIdent(t.text, self._opt_ann(), pos=pos)
        if t.kind == "NUMERAL":
            self.advance()
            return PNum(int(t.text), pos=pos)
        if t.kind == "STRING":
            self.advance()
            return PString(t.text[1:-1], pos=pos)
        if t.kind == "KW" and t.text == "Q_":
            self.advance()
            self.ctx.append("q")
            body = self.term()
            self.expect("KW", "_Q", what="'_Q' closing a quotation")
            self.ctx.pop()
            return PQuote(body, pos=pos)
        if t.kind == "KW" and t.text == "H_":
            if not (self.ctx and self.ctx[-1] == "q"):
                raise HoleOutsideQuotation(
                    f"hole outside any quotation at {t.line}:{t.col}"
                )
            self.advance()
            self.ctx.append("h")
            body = self.term()
            self.expect("KW", "_H", what="'_H' closing a hole")
            self.ctx.pop()
            return PHole(body, self._opt_ann(), pos=pos)
        if t.kind == "OP" and t.text == "(":
            one = self.peek(1)
            two = self.peek(2)
            if (
                one.kind == "OP"
                and one.text in _OP_ATOMS
                and two.kind == "OP"
                and two.text == ")"
            ):
                self.advance()
                self.advance()
                self.advance()
                return PIdent(one.text, self._opt_ann(), pos=pos)
            self.advance()
            body = self.term()
            self.expect("OP", ")")
            return body
        self.fail("expected a term")

    def _opt_ann(self) -> HolType | None:
        t = self.peek()
        if t.kind == "OP" and t.text == ":":
            self.advance()
            return self.tyatom()
        return None


# ---------------------------------------------------------------------------
# elaboration: parse trees -> kernel terms
# ---------------------------------------------------------------------------


class _UnifyFail(Exception):
    pass


class _Unresolved(Exception):
    pass


class _Meta:
    """A type to be found by unification; ``ref`` is its solution, if any."""

    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None


def _resolve(t):
    while isinstance(t, _Meta) and t.ref is not None:
        t = t.ref
    return t


def _occurs(m, t):
    t = _resolve(t)
    if t is m:
        return True
    if isinstance(t, TypeApplication):
        for a in t.arguments:
            if _occurs(m, a):
                return True
    return False


def _unify(a, b, trail):
    a = _resolve(a)
    b = _resolve(b)
    if a is b:
        return
    if isinstance(a, _Meta):
        if _occurs(a, b):
            raise _UnifyFail
        a.ref = b
        trail.append(a)
        return
    if isinstance(b, _Meta):
        _unify(b, a, trail)
        return
    if isinstance(a, TypeApplication) and isinstance(b, TypeApplication):
        if a.constructor != b.constructor or len(a.arguments) != len(b.arguments):
            raise _UnifyFail
        for x, y in zip(a.arguments, b.arguments):
            _unify(x, y, trail)
        return
    # rigid type variables unify only with themselves
    if a != b:
        raise _UnifyFail


def _undo(trail, mark):
    while len(trail) > mark:
        trail.pop().ref = None


def _zonk(t) -> HolType:
    """``t`` with its metas replaced by their solutions; ``t`` itself when
    nothing changes.  Raises ``_Unresolved`` on an unsolved meta.

    Terms are built only once unification is over, so a meta keeps its
    zonked solution and later occurrences share it.
    """
    if isinstance(t, _Meta):
        if t.ref is None:
            raise _Unresolved
        t.ref = _zonk(t.ref)
        return t.ref
    if isinstance(t, TypeVariable):
        return t
    args = []
    changed = False
    for a in t.arguments:
        b = _zonk(a)
        changed = changed or b is not a
        args.append(b)
    return TypeApplication(t.constructor, tuple(args)) if changed else t


class _Elab:
    def __init__(self):
        self.sess = session.current()
        self.free = {}  # free-variable name -> elaboration type
        self.env = []  # (name, binder id, elaboration type), innermost last
        self.trail = []
        self.ids = itertools.count()
        self.qdepth = 0
        self.saved = None  # live env length at the outermost open quotation

    def _unify_at(self, a, b, p, what):
        try:
            _unify(a, b, self.trail)
        except _UnifyFail:
            line, col = p.pos
            raise ElaborationError(f"{what} (at {line}:{col})") from None

    # -- terms ----------------------------------------------------------------

    def elab(self, p: PNode):
        """Return (elaboration type, build) where build(binders) makes a Term."""
        if isinstance(p, PIdent):
            return self._ident(p)
        if isinstance(p, PString):
            text = p.text
            ty = str_ty()
            return ty, lambda b: Constant('"' + text + '"', ty)
        if isinstance(p, PNum):
            return self._num(p)
        if isinstance(p, PApp):
            fe, fb = self.elab(p.fn)
            ae, ab = self.elab(p.arg)
            res = _Meta()
            self._unify_at(
                fe, mk_fun(ae, res), p, "operator/operand types do not agree"
            )
            return res, lambda b: Application(fb(b), ab(b))
        if isinstance(p, PAbs):
            return self._abs(p)
        if isinstance(p, PQuote):
            entered = self.qdepth == 0
            if entered:
                self.saved = len(self.env)
            self.qdepth += 1
            _, bb = self.elab(p.body)
            self.qdepth -= 1
            if entered:
                self.saved = None
            return epsilon_ty(), lambda b: Quotation(bb(b))
        if isinstance(p, PHole):
            return self._hole(p)
        if isinstance(p, PEval):
            ce, cb = self.elab(p.body)
            self._unify_at(
                ce, epsilon_ty(), p, "eval expects a construction (type epsilon)"
            )
            return p.ty, lambda b: Evaluation(cb(b), p.ty)
        raise AssertionError(f"unhandled parse node {p!r}")

    def _ident(self, p: PIdent):
        ann = p.ann
        for name, bid, vty in reversed(self.env):
            if name != p.name:
                continue
            if ann is not None:
                mark = len(self.trail)
                try:
                    _unify(vty, ann, self.trail)
                except _UnifyFail:
                    _undo(self.trail, mark)
                    continue  # annotation escapes this binder; look outward
            return vty, (lambda b, bid=bid: b[bid])
        generic = self.sess.constants.get(p.name)
        if generic is not None:
            ety = subst_type(generic, {tv: _Meta() for tv in type_variables_in(generic)})
            if ann is not None:
                self._unify_at(
                    ety, ann, p, f"annotation does not fit constant {p.name!r}"
                )
            name = p.name
            return ety, lambda b: Constant(name, _zonk(ety))
        ety = self.free.get(p.name)
        if ety is None:
            ety = _Meta()
            self.free[p.name] = ety
        if ann is not None:
            self._unify_at(
                ety, ann, p, f"conflicting types for free variable {p.name!r}"
            )
        name = p.name
        return ety, lambda b: Variable(name, _zonk(ety))

    def _num(self, p: PNum):
        if "_0" not in self.sess.constants or "SUC" not in self.sess.constants:
            line, col = p.pos
            raise ElaborationError(f"no numerals in this session (at {line}:{col})")
        value = p.value

        def build(b):
            t: Term = Constant("_0", num_ty())
            suc = Constant("SUC", mk_fun(num_ty(), num_ty()))
            for _ in range(value):
                t = Application(suc, t)
            return t

        return num_ty(), build

    def _abs(self, p: PAbs):
        if p.name in self.sess.constants:
            line, col = p.pos
            raise ParseError(
                f"binder variable {p.name!r} shadows a constant (at {line}:{col})"
            )
        vty = p.ann if p.ann is not None else _Meta()
        bid = next(self.ids)
        self.env.append((p.name, bid, vty))
        be, bb = self.elab(p.body)
        self.env.pop()
        name = p.name

        def build(b, bid=bid, vty=vty, bb=bb, name=name):
            v = Variable(name, _zonk(vty))
            b[bid] = v
            return Abstraction(v, bb(b))

        return mk_fun(vty, be), build

    def _hole(self, p: PHole):
        # Hole contents live outside the quotation: resolve identifiers
        # against the scope that was current where the quotation began.
        save_env, save_q, save_s = self.env, self.qdepth, self.saved
        self.env = list(self.env[: self.saved])
        self.qdepth = 0
        self.saved = None
        try:
            ce, cb = self.elab(p.body)
        finally:
            self.env, self.qdepth, self.saved = save_env, save_q, save_s
        self._unify_at(
            ce, epsilon_ty(), p, "hole content must be a construction (type epsilon)"
        )
        slot = p.ann if p.ann is not None else _Meta()
        return slot, lambda b: Hole(cb(b), _zonk(slot))


def parse_type(text: str) -> HolType:
    par = _Parser(_lex(text), text)
    ty = par.type_()
    par.expect_eof()
    return ty


def parse_term(text: str) -> Term:
    par = _Parser(_lex(text), text)
    p = par.term()
    par.expect_eof()
    el = _Elab()
    _, build = el.elab(p)
    try:
        return build({})
    except _Unresolved:
        raise ElaborationError(
            "could not infer a unique type; add an annotation"
        ) from None


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_TERM, _IMP, _DISJ, _CONJ, _NEG, _EQ, _COMB, _APP, _ATOM = range(9)

# name -> (level, left operand level, right operand level)
_INFIX = {
    "==>": (_IMP, _DISJ, _IMP),
    "\\/": (_DISJ, _CONJ, _DISJ),
    "/\\": (_CONJ, _NEG, _CONJ),
    "=": (_EQ, _COMB, _COMB),
}

_SYMBOLIC = frozenset(_OP_ATOMS)


def print_type(ty: HolType) -> str:
    return _pty(ty, False)


def _pty(ty: HolType, atom_pos: bool) -> str:
    if isinstance(ty, TypeVariable):
        return ty.name
    if ty.constructor == "fun" and len(ty.arguments) == 2:
        dom, cod = ty.arguments
        s = _pty(dom, True) + "->" + _pty(cod, False)
        return "(" + s + ")" if atom_pos else s
    if not ty.arguments:
        return ty.constructor
    # No surface syntax applies a type constructor to arguments; this
    # rendering is for diagnostics only.
    return "(" + " ".join([ty.constructor] + [_pty(a, True) for a in ty.arguments]) + ")"


def _tyann(ty: HolType) -> str:
    return ":" + _pty(ty, True)


def print_term(t: Term) -> str:
    return _print(t, _TERM, (), None)


def print_theorem(th) -> str:
    hyps = sorted(print_term(h) for h in th.hyps)
    lead = ", ".join(hyps) + " " if hyps else ""
    return lead + "|- " + print_term(th.concl)


def _print(t: Term, req: int, env: tuple, live) -> str:
    s, lvl = _render(t, env, live)
    return "(" + s + ")" if lvl < req else s


def _const_atom(t: Constant) -> str:
    if _is_name_literal(t.name):
        return t.name
    base = "(" + t.name + ")" if t.name in _SYMBOLIC else t.name
    generic = session.current().constants.get(t.name)
    if generic is not None and type_variables_in(generic):
        return base + _tyann(t.ty)
    return base


def _render(t: Term, env: tuple, live) -> tuple:
    if isinstance(t, Variable):
        for v in reversed(env):
            if v.name == t.name:
                if v == t:
                    return t.name, _ATOM
                break
        return t.name + _tyann(t.ty), _ATOM
    if isinstance(t, Constant):
        return _const_atom(t), _ATOM
    if isinstance(t, Application):
        fn, arg = t.fn, t.arg
        if isinstance(fn, Application) and isinstance(fn.fn, Constant):
            entry = _INFIX.get(fn.fn.name)
            if entry is not None:
                lvl, lreq, rreq = entry
                s = (
                    _print(fn.arg, lreq, env, live)
                    + " "
                    + fn.fn.name
                    + " "
                    + _print(arg, rreq, env, live)
                )
                return s, lvl
        if isinstance(fn, Constant) and fn.name == "~":
            return "~" + _print(arg, _NEG, env, live), _NEG
        if (
            isinstance(fn, Constant)
            and fn.name in ("!", "?")
            and isinstance(arg, Abstraction)
        ):
            return _binder_form(fn.name, arg, env, live), _TERM
        s = _print(fn, _APP, env, live) + " " + _print(arg, _ATOM, env, live)
        return s, _APP
    if isinstance(t, Abstraction):
        return _binder_form("\\", t, env, live), _TERM
    if isinstance(t, Quotation):
        inner_live = len(env) if live is None else live
        return "Q_ " + _print(t.body, _TERM, env, inner_live) + " _Q", _ATOM
    if isinstance(t, Hole):
        content = _print(t.content, _TERM, env[:live], None)
        return "H_ " + content + " _H" + _tyann(t.slot_type), _ATOM
    if isinstance(t, Evaluation):
        s = "eval " + _print(t.content, _APP, env, live) + " to " + _pty(
            t.result_type, True
        )
        return s, _COMB
    raise AssertionError(f"unhandled term {t!r}")


def _binder_form(op: str, abs_t: Abstraction, env: tuple, live) -> str:
    v = abs_t.var
    body = _print(abs_t.body, _TERM, env + (v,), live)
    return f"{op}{v.name}{_tyann(v.ty)}. {body}"


# ---------------------------------------------------------------------------
# structure trees (for export and replay)
# ---------------------------------------------------------------------------


def type_to_tree(ty: HolType):
    if isinstance(ty, TypeVariable):
        return ("tyvar", ty.name)
    return ("tycon", ty.constructor, tuple(type_to_tree(a) for a in ty.arguments))


def tree_to_type(tree) -> HolType:
    try:
        tag = tree[0]
        if tag == "tyvar":
            (_, name) = tree
            try:
                return TypeVariable(name)
            except IllTyped as e:
                raise ParseError(f"malformed type tree: {tree!r}: {e}") from None
        if tag == "tycon":
            (_, name, args) = tree
            return TypeApplication(name, tuple(tree_to_type(a) for a in args))
    except (ValueError, TypeError, IndexError):
        pass
    raise ParseError(f"malformed type tree: {tree!r}")


# tree tag -> node class and the kind of each field, in ``_parts()`` order
_TREE_NODES = {
    "var": (Variable, (str, HolType)),
    "const": (Constant, (str, HolType)),
    "app": (Application, (Term, Term)),
    "abs": (Abstraction, (Variable, Term)),
    "quote": (Quotation, (Term,)),
    "hole": (Hole, (Term, HolType)),
    "eval": (Evaluation, (Term, HolType)),
}
_TREE_TAG = {cls: tag for tag, (cls, _) in _TREE_NODES.items()}


def term_to_tree(t: Term):
    out = [_TREE_TAG[type(t)]]
    for p in t._parts():
        if isinstance(p, Term):
            out.append(term_to_tree(p))
        elif isinstance(p, HolType):
            out.append(type_to_tree(p))
        else:
            out.append(p)
    return tuple(out)


def tree_to_term(tree) -> Term:
    try:
        cls, kinds = _TREE_NODES[tree[0]]
        parts = []
        for kind, sub in zip(kinds, tree[1:], strict=True):
            if kind is HolType:
                parts.append(tree_to_type(sub))
            elif kind is str:
                parts.append(sub)
            else:
                part = tree_to_term(sub)
                if not isinstance(part, kind):
                    raise ParseError(f"{tree[0]} tree: expected a {kind.__name__}")
                parts.append(part)
        return cls(*parts)
    except (ValueError, TypeError, IndexError, KeyError):
        raise ParseError(f"malformed term tree: {tree!r}") from None


def tree_to_sexp(tree) -> str:
    if isinstance(tree, str):
        return '"' + tree.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return "(" + " ".join(tree_to_sexp(x) for x in tree) + ")"


def sexp_to_tree(text: str):
    toks = _sexp_lex(text)
    tree, rest = _sexp_parse(toks, 0)
    if rest != len(toks):
        raise ParseError("trailing input after s-expression")
    return tree


def _sexp_lex(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            toks.append(c)
            i += 1
        elif c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    out.append(text[j + 1])
                    j += 2
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string in s-expression")
            toks.append(("str", "".join(out)))
            i = j + 1
        else:
            raise ParseError(f"unexpected character {c!r} in s-expression")
    return toks


def _sexp_parse(toks, i):
    if i >= len(toks):
        raise ParseError("unexpected end of s-expression")
    t = toks[i]
    if t == "(":
        items = []
        i += 1
        while i < len(toks) and toks[i] != ")":
            item, i = _sexp_parse(toks, i)
            items.append(item)
        if i >= len(toks):
            raise ParseError("unbalanced parentheses in s-expression")
        return tuple(items), i + 1
    if t == ")":
        raise ParseError("unbalanced ')' in s-expression")
    return t[1], i + 1


def tree_to_json(tree) -> str:
    def listify(x):
        if isinstance(x, tuple):
            return [listify(e) for e in x]
        return x

    return json.dumps(listify(tree), separators=(",", ":"))


def json_to_tree(text: str):
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
