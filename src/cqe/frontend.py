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

One regular-expression scan lexes the input into parallel lists of token
kinds, texts and offsets; ``line:col`` is worked out from an offset only
for a message.  A binding-power parser (Pratt, "Top down operator
precedence", POPL 1973) reads the lists into a tree of tuples: one loop per
nesting level handles prefix forms, application and the infix connectives
of ``_INFIX``, the table the printer also uses.  Type annotations in the
tree are already kernel ``HolType`` values.

A checking elaborator then resolves identifier scoping and fills in types.
Its types are kernel types plus one class of unification variable
(``_Meta``), created only where a type is not known: a monomorphic constant
has its signature as its type, an application whose operator already has a
function type checks the operand against its domain, and an annotation is
used as the type it states.  Each occurrence of a polymorphic constant gets
fresh metas for its type variables, free variables get one type per name,
and ``_zonk`` replaces solved metas when the kernel terms are built.
Anything left undetermined is an error rather than a guess.  ``print_term``
emits text that parses back to an equal term.
"""

from __future__ import annotations

import json
import re

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

# A token's kind is IDENT, TYVAR, NUMERAL, STRING or EOF, or for an
# operator or keyword its own text.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<STRING>"[^"\n]*")
      | (?P<TYVAR>'[A-Za-z_][A-Za-z0-9_]*)
      | (?P<KW>(?:eval|to|Q_|_Q|H_|_H)(?![A-Za-z0-9_']))
      | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<NUMERAL>[0-9]+)
      | (?P<OP>==>|->|<=|/\\|\\/|[()\.:\\~=!?+*])
      | (?P<EOF>\Z)
      | (?P<BAD>.)
    )""",
    re.VERBOSE,
)


def _linecol(text: str, offset: int) -> tuple:
    """1-based line and 0-based column of an offset into ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset) - 1


def _lex(text: str) -> tuple:
    """Parallel lists (kinds, texts, offsets), ending with one EOF token."""
    kinds, texts, starts = [], [], []
    for m in _TOKEN_RE.finditer(text):
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
    return kinds, texts, starts


# ---------------------------------------------------------------------------
# parser: text -> tree of tuples
# ---------------------------------------------------------------------------

# Tree nodes are tuples whose first item is the tag; ``off`` is the offset
# of the token an elaboration error points at.
#   (_T_ID, name, annotation or None, off)      (_T_APP, fn, arg, off)
#   (_T_ABS, name, annotation or None, body, off)
#   (_T_STR, text)   (_T_NUM, value, off)   (_T_QUOTE, body)
#   (_T_HOLE, body, annotation or None, off)    (_T_EVAL, body, type, off)
_T_ID, _T_APP, _T_ABS, _T_STR, _T_NUM, _T_QUOTE, _T_HOLE, _T_EVAL = range(8)

# Grammar levels, loosest first.  A form parsed at some level may contain
# only forms of that level or a tighter one, unparenthesized.
_TERM, _IMP, _DISJ, _CONJ, _NEG, _EQ, _COMB, _APP, _ATOM = range(9)

# infix name -> (level, left operand level, right operand level); the
# right operand's level makes ==>, \/ and /\ associate to the right
_INFIX = {
    "==>": (_IMP, _DISJ, _IMP),
    "\\/": (_DISJ, _CONJ, _DISJ),
    "/\\": (_CONJ, _NEG, _CONJ),
    "=": (_EQ, _COMB, _COMB),
}

# Operator names that may appear as parenthesized atoms like (=) or (+).
_OP_ATOMS = frozenset({"=", "==>", "/\\", "\\/", "~", "!", "?", "+", "*", "<="})

_BINDERS = frozenset({"!", "?", "\\"})

_ATOM_START = frozenset({"IDENT", "STRING", "NUMERAL", "Q_", "H_", "("})


class _Parser:
    def __init__(self, text):
        self.text = text
        self.kinds, self.texts, self.starts = _lex(text)
        self.i = 0
        self.ctx = []  # 'q' inside a quotation, 'h' inside a hole

    def fail(self, msg, j=None):
        j = self.i if j is None else j
        kind, tok = self.kinds[j], self.texts[j]
        line, col = _linecol(self.text, self.starts[j])
        shown = tok if kind != "EOF" else "end of input"
        span = SourceSpan(self.text, (line, col), (line, col + max(len(tok), 1)))
        raise ParseError(f"{msg} (at {shown!r}, {line}:{col})", span)

    def expect(self, kind, what):
        """Consume a token of ``kind`` and return its index."""
        i = self.i
        if self.kinds[i] != kind:
            self.fail(f"expected {what}")
        self.i = i + 1
        return i

    def expect_eof(self):
        if self.kinds[self.i] != "EOF":
            self.fail("unexpected trailing input")

    # -- types --------------------------------------------------------------

    def type_(self) -> HolType:
        a = self.tyatom()
        if self.kinds[self.i] == "->":
            self.i += 1
            return mk_fun(a, self.type_())
        return a

    def tyatom(self) -> HolType:
        i = self.i
        kind = self.kinds[i]
        if kind == "TYVAR":
            self.i = i + 1
            return TypeVariable(self.texts[i])
        if kind == "IDENT":
            self.i = i + 1
            try:
                return TypeApplication(self.texts[i], ())
            except KernelError as e:
                self.fail(str(e), i)
        if kind == "(":
            self.i = i + 1
            ty = self.type_()
            self.expect(")", ")")
            return ty
        self.fail("expected a type")

    def _opt_ann(self) -> HolType | None:
        if self.kinds[self.i] == ":":
            self.i += 1
            return self.tyatom()
        return None

    # -- terms --------------------------------------------------------------

    def term(self, level=_TERM):
        """Parse the longest form of grammar level ``level`` or tighter.

        One frame per nesting level: prefix forms and atoms are parsed here,
        then application and the infix connectives loop on what was read.
        """
        kinds, starts = self.kinds, self.starts
        i = self.i
        kind = kinds[i]
        off = starts[i]
        if kind in _BINDERS:
            if level > _TERM:
                self.fail("expected a term")
            return self._binder()
        if kind == "~":
            if level > _NEG:
                self.fail("expected a term")
            self.i = i + 1
            lhs = (_T_APP, (_T_ID, "~", None, off), self.term(_NEG), off)
        elif kind == "eval":
            if level > _COMB:
                self.fail("expected a term")
            if self.ctx and self.ctx[-1] == "q":
                self.fail("evaluation is not allowed inside a quotation")
            self.i = i + 1
            body = self.term(_APP)
            self.expect("to", "'to' in an eval form")
            lhs = (_T_EVAL, body, self.tyatom(), off)
        else:
            if kind == "IDENT":
                self.i = i + 1
                lhs = (_T_ID, self.texts[i], self._opt_ann(), off)
            elif kind == "(":
                if kinds[i + 1] in _OP_ATOMS and kinds[i + 2] == ")":
                    self.i = i + 3
                    lhs = (_T_ID, kinds[i + 1], self._opt_ann(), off)
                else:
                    self.i = i + 1
                    lhs = self.term()
                    self.expect(")", ")")
            elif kind == "NUMERAL":
                self.i = i + 1
                lhs = (_T_NUM, int(self.texts[i]), off)
            elif kind == "STRING":
                self.i = i + 1
                lhs = (_T_STR, self.texts[i][1:-1])
            elif kind == "Q_":
                self.i = i + 1
                self.ctx.append("q")
                body = self.term()
                self.expect("_Q", "'_Q' closing a quotation")
                self.ctx.pop()
                lhs = (_T_QUOTE, body)
            elif kind == "H_":
                if not (self.ctx and self.ctx[-1] == "q"):
                    line, col = _linecol(self.text, off)
                    raise HoleOutsideQuotation(
                        f"hole outside any quotation at {line}:{col}"
                    )
                self.i = i + 1
                self.ctx.append("h")
                body = self.term()
                self.expect("_H", "'_H' closing a hole")
                self.ctx.pop()
                lhs = (_T_HOLE, body, self._opt_ann(), off)
            else:
                self.fail("expected a term")
            if level == _ATOM:
                return lhs
            while kinds[self.i] in _ATOM_START:
                off = starts[self.i]
                lhs = (_T_APP, lhs, self.term(_ATOM), off)
        while True:
            i = self.i
            op = kinds[i]
            entry = _INFIX.get(op)
            if entry is None or entry[0] < level:
                return lhs
            off = starts[i]
            self.i = i + 1
            rhs = self.term(entry[2])
            if op == "=" and kinds[self.i] == "=":
                self.fail("'=' does not associate; parenthesize one side")
            lhs = (_T_APP, (_T_APP, (_T_ID, op, None, off), lhs, off), rhs, off)

    def _binder(self):
        op = self.kinds[self.i]
        self.i += 1
        bvars = [self._bvar()]
        while self.kinds[self.i] == "IDENT":
            bvars.append(self._bvar())
        self.expect(".", "'.' after binder variables")
        body = self.term()
        for name, ann, off in reversed(bvars):
            body = (_T_ABS, name, ann, body, off)
            if op != "\\":
                body = (_T_APP, (_T_ID, op, None, off), body, off)
        return body

    def _bvar(self):
        i = self.expect("IDENT", "a binder variable")
        return self.texts[i], self._opt_ann(), self.starts[i]


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
    cls = type(t)
    if cls is TypeApplication or cls is TypeVariable:
        return t  # an interned type holds no metas
    if cls is _Meta:
        if t.ref is None:
            raise _Unresolved
        t.ref = _zonk(t.ref)
        return t.ref
    return TypeApplication(t.constructor, tuple(_zonk(a) for a in t.arguments))


# Type variables of each constant signature, found once per signature.
# Signatures are interned types, which are never freed, so this table keeps
# alive nothing that the type table does not.
_SIGNATURE_TYVARS: dict = {}


def _tyvars_of_signature(ty: HolType) -> tuple:
    tvs = _SIGNATURE_TYVARS.get(ty)
    if tvs is None:
        tvs = _SIGNATURE_TYVARS[ty] = tuple(type_variables_in(ty))
    return tvs


# Elaboration turns a tree into a plan: a tuple whose first item is the
# node's elaboration type and whose second is one of these tags.
#   (ty, _P_CONST, name)   (ty, _P_VAR, name)
#   (ty, _P_APP, fn plan, arg plan)   (ty, _P_NUM, value)
#   (ty, _P_ABS, name, variable type, body plan)
#   (ty, _P_QUOTE, body plan)   (ty, _P_HOLE, plan)   (ty, _P_EVAL, plan)
# A bound occurrence is a _P_VAR at its binder's type, so it builds the
# binder's own (interned) Variable.
_P_CONST, _P_VAR, _P_APP, _P_NUM, _P_ABS, _P_QUOTE, _P_HOLE, _P_EVAL = range(8)


class _Elab:
    def __init__(self, text):
        self.text = text
        self.constants = session.current().constants
        self.eps = epsilon_ty()
        self.free = {}  # free-variable name -> elaboration type
        self.scope = {}  # bound name -> [elaboration type], innermost last
        self.names = []  # names of the binders in scope, innermost last
        self.trail = []
        self.saved = None  # len(names) at the outermost open quotation

    def _at(self, off) -> str:
        line, col = _linecol(self.text, off)
        return f"(at {line}:{col})"

    def _unify_at(self, a, b, off, what):
        try:
            _unify(a, b, self.trail)
        except _UnifyFail:
            raise ElaborationError(f"{what} {self._at(off)}") from None

    def elab(self, p) -> tuple:
        """The plan of tree ``p``; unifications run in tree order."""
        tag = p[0]
        if tag == _T_ID:
            return self._ident(p)
        if tag == _T_APP:
            _, fn, arg, off = p
            fplan = self.elab(fn)
            aplan = self.elab(arg)
            fe, ae = fplan[0], aplan[0]
            if type(fe) is _Meta:
                fe = _resolve(fe)
            if isinstance(fe, TypeApplication) and fe.constructor == "fun":
                dom, res = fe.arguments
                if dom is not ae:
                    self._unify_at(dom, ae, off, "operator/operand types do not agree")
            else:
                res = _Meta()
                self._unify_at(
                    fe, mk_fun(ae, res), off, "operator/operand types do not agree"
                )
            return (res, _P_APP, fplan, aplan)
        if tag == _T_ABS:
            return self._abs(p)
        if tag == _T_STR:
            return (str_ty(), _P_CONST, '"' + p[1] + '"')
        if tag == _T_NUM:
            if "_0" not in self.constants or "SUC" not in self.constants:
                raise ElaborationError(f"no numerals in this session {self._at(p[2])}")
            return (num_ty(), _P_NUM, p[1])
        if tag == _T_QUOTE:
            entered = self.saved is None
            if entered:
                self.saved = len(self.names)
            bplan = self.elab(p[1])
            if entered:
                self.saved = None
            return (self.eps, _P_QUOTE, bplan)
        if tag == _T_HOLE:
            return self._hole(p)
        if tag == _T_EVAL:
            _, body, ty, off = p
            cplan = self.elab(body)
            if cplan[0] is not self.eps:
                self._unify_at(
                    cplan[0], self.eps, off, "eval expects a construction (type epsilon)"
                )
            return (ty, _P_EVAL, cplan)
        raise AssertionError(f"unhandled parse node {p!r}")

    def _ident(self, p) -> tuple:
        _, name, ann, off = p
        for vty in reversed(self.scope.get(name, ())):
            if ann is not None:
                mark = len(self.trail)
                try:
                    _unify(vty, ann, self.trail)
                except _UnifyFail:
                    _undo(self.trail, mark)
                    continue  # annotation escapes this binder; look outward
            return (vty, _P_VAR, name)
        generic = self.constants.get(name)
        if generic is not None:
            tvs = _tyvars_of_signature(generic)
            ety = subst_type(generic, {tv: _Meta() for tv in tvs}) if tvs else generic
            if ann is not None and ann is not ety:
                self._unify_at(ety, ann, off, f"annotation does not fit constant {name!r}")
            return (ety, _P_CONST, name)
        ety = self.free.get(name)
        if ety is None:
            ety = self.free[name] = ann if ann is not None else _Meta()
        elif ann is not None:
            self._unify_at(ety, ann, off, f"conflicting types for free variable {name!r}")
        return (ety, _P_VAR, name)

    def _abs(self, p) -> tuple:
        _, name, ann, body, off = p
        if name in self.constants:
            raise ParseError(f"binder variable {name!r} shadows a constant {self._at(off)}")
        vty = ann if ann is not None else _Meta()
        self.scope.setdefault(name, []).append(vty)
        self.names.append(name)
        bplan = self.elab(body)
        self.names.pop()
        self.scope[name].pop()
        return (mk_fun(vty, bplan[0]), _P_ABS, name, vty, bplan)

    def _hole(self, p) -> tuple:
        # Hole contents live outside the quotation: the binders entered since
        # the outermost open quotation began are out of scope in them.
        _, body, ann, off = p
        saved, names, scope = self.saved, self.names, self.scope
        hidden = names[saved:]
        del names[saved:]
        entries = [scope[n].pop() for n in reversed(hidden)]
        self.saved = None
        cplan = self.elab(body)
        self.saved = saved
        for n, entry in zip(hidden, reversed(entries)):
            scope[n].append(entry)
        names.extend(hidden)
        if cplan[0] is not self.eps:
            self._unify_at(
                cplan[0], self.eps, off, "hole content must be a construction (type epsilon)"
            )
        return (ann if ann is not None else _Meta(), _P_HOLE, cplan)


def _build(plan) -> Term:
    """The kernel term of an elaborated plan; parts are built left to right."""
    tag = plan[1]
    if tag == _P_APP:
        return Application(_build(plan[2]), _build(plan[3]))
    if tag == _P_CONST:
        return Constant(plan[2], _zonk(plan[0]))
    if tag == _P_VAR:
        return Variable(plan[2], _zonk(plan[0]))
    if tag == _P_ABS:
        _, _, name, vty, bplan = plan
        return Abstraction(Variable(name, _zonk(vty)), _build(bplan))
    if tag == _P_NUM:
        t: Term = Constant("_0", num_ty())
        suc = Constant("SUC", mk_fun(num_ty(), num_ty()))
        for _ in range(plan[2]):
            t = Application(suc, t)
        return t
    if tag == _P_QUOTE:
        return Quotation(_build(plan[2]))
    if tag == _P_HOLE:
        return Hole(_build(plan[2]), _zonk(plan[0]))
    return Evaluation(_build(plan[2]), plan[0])


def parse_type(text: str) -> HolType:
    par = _Parser(text)
    ty = par.type_()
    par.expect_eof()
    return ty


def parse_term(text: str) -> Term:
    par = _Parser(text)
    tree = par.term()
    par.expect_eof()
    plan = _Elab(text).elab(tree)
    try:
        return _build(plan)
    except _Unresolved:
        raise ElaborationError(
            "could not infer a unique type; add an annotation"
        ) from None


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

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


# tree tag -> node class and the kind of each field, in ``_parts`` order
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
    for p in t._parts:
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
