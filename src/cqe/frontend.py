"""Concrete syntax for terms and types.

The surface language is a small HOL-style notation:

    !x:epsilon. isExprType x (TyBase "bool") ==> ((eval x to bool) \\/ ~(eval x to bool))

* ``!`` / ``?`` / ``\\`` bind variables (``!x y:bool. p``); binder variables
  may carry a ``:type`` annotation, and the printer always emits one.  A
  type is a type variable, a constructor name, ``ty -> ty``, or a
  constructor applied to type atoms, ``(c t1 ... tn)``.
* ``==>`` ``\\/`` ``/\\`` ``~`` ``=`` are the usual connectives; ``=`` does
  not associate, so chained equations need parentheses.
* ``Q_ t _Q`` quotes a term, ``H_ c _H`` splices a construction into a
  quotation (optionally annotated ``H_ c _H:bool`` with the type of the
  expression it stands for), and ``eval c to ty`` evaluates a construction.
* Prefix atoms for operators are written ``(=)``, ``(+)``, ``(<=)`` and so
  on; string literals like ``"bool"`` are the names used by syntax
  constructors; numerals abbreviate ``SUC (SUC ... _0)`` on input only.

``parse_term`` reads a text once per session and signature: the session
keeps one memo of texts read, each with its term and its free names' types
(see ``parse_term``).  A parenthesized group looks its inside up in that
memo too, and reuses the term wherever those names resolve as they did; a
group that read no name from outside itself reads as its text alone does,
so it is kept there, even when the text around it is refused.  One
regular-expression scan lexes the input into parallel lists of token kinds,
texts and offsets, and matches its parentheses; a keyword is an identifier
found in a set, and ``line:col`` is worked out from an offset only for a
message.  One reading pass then parses
and elaborates together: a binding-power loop (Pratt, "Top down operator
precedence", POPL 1973) reads one nesting level per frame, handling prefix
forms, application and the infix connectives of ``_INFIX``, the table the
printer also uses, and each form is elaborated into a plan as soon as it is
read.  ``_build`` then makes the kernel term of the finished plan; a group
kept or reused is built already and is a leaf of that plan.

Elaboration resolves identifier scoping and fills in types.  Its types are
kernel types plus two frontend-only classes that the kernel never sees: a
unification variable (``_Meta``), created only where a type is not known,
and a type constructor applied to such types (``_Open``).  A monomorphic
constant has its signature as its type, an application whose operator
already has a function type checks the operand against its domain, and an
annotation is used as the type it states.  Each occurrence of a polymorphic
constant gets fresh metas for its type variables, free variables get one
type per name, and ``_zonk`` replaces solved metas when the kernel terms are
built.  An elaboration error is held until the input has been read, so a
syntax error anywhere in the text is reported first.  Anything left
undetermined is an error rather than a guess.  ``print_term`` emits text
that parses back to an equal term.

The structure-tree codecs serialise terms for export and read them back.
Terms are DAGs (hash-consing shares every repeated subterm), so the writers
take memos: ``term_to_tree`` builds each node's tree once and
``tree_to_sexp`` writes each tuple once.  ``tree_to_term`` reads each type
tree and each variable or constant leaf once per call.
"""

from __future__ import annotations

import json
import re

from . import session
from .errors import (
    CqeError,
    ElaborationError,
    HoleOutsideQuotation,
    IllTyped,
    KernelError,
    ParseError,
    SourceSpan,
)
from .syntax import (
    IDENT,
    KEYWORDS,
    OPERATORS,
    TYVAR,
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

# One token and the blanks before it.  A token's kind is IDENT, TYVAR,
# NUMERAL, STRING or EOF, or for an operator or keyword its own text; a
# character that starts no token is a BAD token.
_OP_TOKENS = ("==>", "->", "<=", "/\\", "\\/", "(", ")", ".", ":", "\\", "~", "=", "!", "?", "+", "*")
_TOKEN_RE = re.compile(
    rf'\s*(?:"[^"\n]*"|{TYVAR}|{IDENT}|[0-9]+|{"|".join(map(re.escape, _OP_TOKENS))}|\Z|.)'
)
# the kind of a token by its text: an operator, a keyword, the end, or a
# lone quote (an unterminated string, or a quote that starts no type variable)
_KIND = {tok: tok for tok in _OP_TOKENS + KEYWORDS}
_KIND.update({"": "EOF", '"': "BAD", "'": "BAD"})
# the kind of any other token by its first character
_KIND_BY_FIRST = dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT")
_KIND_BY_FIRST.update(dict.fromkeys("0123456789", "NUMERAL"))
_KIND_BY_FIRST.update({'"': "STRING", "'": "TYVAR"})


class _Kinds(dict):
    """Token text -> kind, starting from ``_KIND``.  Any other text gets
    the kind of its first character and is remembered, up to a bound, so
    that the lexer looks most tokens up once, in C."""

    def __missing__(self, tok):
        kind = _KIND_BY_FIRST.get(tok[0], "BAD")
        if len(self) < 4096:
            self[tok] = kind
        return kind


_kind = _Kinds(_KIND).__getitem__


def _linecol(text: str, offset: int) -> tuple:
    """1-based line and 0-based column of an offset into ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset) - 1


def _lex(text: str) -> tuple:
    """Parallel lists (kinds, texts, offsets), ending with one EOF token, and
    ``close``: the index of each ``(`` that has a matching ``)`` -> the index
    of that ``)``."""
    spans = _TOKEN_RE.findall(text)
    if len(spans) > 1 and spans[-2].isspace():
        del spans[-1]  # after trailing blanks and the end, the end again
    texts = [span.lstrip() for span in spans]
    kinds = list(map(_kind, texts))
    starts = []
    close = {}
    opened = []  # indices of the open parentheses, innermost last
    end = 0
    for span, tok in zip(spans, texts):
        end += len(span)
        if tok == "(":
            opened.append(len(starts))
        elif tok == ")" and opened:
            close[opened.pop()] = len(starts)
        starts.append(end - len(tok))
    if "BAD" in kinds:
        j = kinds.index("BAD")
        line, col = _linecol(text, starts[j])
        raise ParseError(
            f"unexpected character {texts[j]!r}",
            SourceSpan(text, (line, col), (line, col + 1)),
        )
    return kinds, texts, starts, close


# ---------------------------------------------------------------------------
# reader: text -> elaboration plan -> kernel term
# ---------------------------------------------------------------------------

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
_OP_ATOMS = frozenset(OPERATORS)

_BINDERS = frozenset({"!", "?", "\\"})

_ATOM_START = frozenset({"IDENT", "STRING", "NUMERAL", "Q_", "H_", "("})
_TYATOM_START = frozenset({"TYVAR", "IDENT", "("})


class _UnifyFail(Exception):
    pass


class _Unresolved(Exception):
    pass


class _Meta:
    """A type to be found by unification; ``ref`` is its solution, if any."""

    __slots__ = ("ref",)

    def __init__(self):
        self.ref = None


class _Open:
    """A type constructor applied to arguments of which some are not kernel
    types (a ``_Meta`` or another ``_Open``); ``_zonk`` makes it one."""

    __slots__ = ("constructor", "arguments")

    def __init__(self, constructor, arguments):
        self.constructor = constructor
        self.arguments = arguments


_KERNEL_TYPES = (TypeApplication, TypeVariable)


def _fun(dom, cod):
    """``dom -> cod``: a kernel type when both parts are kernel types."""
    if type(dom) in _KERNEL_TYPES and type(cod) in _KERNEL_TYPES:
        return mk_fun(dom, cod)
    return _Open("fun", (dom, cod))


def _resolve(t):
    while isinstance(t, _Meta) and t.ref is not None:
        t = t.ref
    return t


def _occurs(m, t):
    t = _resolve(t)
    if t is m:
        return True
    if type(t) is _Open:  # a kernel type holds no metas
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
    # rigid type variables unify only with themselves
    if isinstance(a, TypeVariable) or isinstance(b, TypeVariable):
        raise _UnifyFail
    if a.constructor != b.constructor or len(a.arguments) != len(b.arguments):
        raise _UnifyFail
    for x, y in zip(a.arguments, b.arguments):
        _unify(x, y, trail)


def _is(t, ty) -> bool:
    """Whether the elaboration type ``t`` is now exactly the kernel type ``ty``."""
    t = _resolve(t)
    if t is ty:
        return True
    return (
        type(t) is _Open
        and type(ty) is TypeApplication
        and t.constructor == ty.constructor
        and len(t.arguments) == len(ty.arguments)
        and all(map(_is, t.arguments, ty.arguments))
    )


def _zonk(t) -> HolType:
    """``t`` with its metas replaced by their solutions; ``t`` itself when
    it is a kernel type.  Raises ``_Unresolved`` on an unsolved meta.

    Terms are built only once unification is over, so a meta keeps its
    zonked solution and later occurrences share it.
    """
    cls = type(t)
    if cls is TypeApplication or cls is TypeVariable:
        return t
    if cls is _Meta:
        if t.ref is None:
            raise _Unresolved
        t.ref = _zonk(t.ref)
        return t.ref
    return TypeApplication(t.constructor, tuple([_zonk(a) for a in t.arguments]))


def _instance(ty: HolType, metas: dict):
    """``ty`` with each type variable replaced by its meta in ``metas``."""
    if type(ty) is TypeVariable:
        return metas[ty]
    args = tuple([_instance(a, metas) for a in ty.arguments])
    return ty if args == ty.arguments else _Open(ty.constructor, args)


# A plan is what the reader makes of a form: a tuple whose first item is the
# form's elaboration type and whose second is one of these tags.
#   (ty, _P_CONST, name)   (ty, _P_VAR, name)
#   (ty, _P_APP, fn plan, arg plan)
#   (ty, _P_ABS, name, variable type, body plan)
#   (ty, _P_QUOTE, body plan)   (ty, _P_HOLE, plan)   (ty, _P_EVAL, plan)
#   (ty, _P_TERM, term)   -- a numeral, or a group built at its ``)`` or
#                            taken from the memo
# A bound occurrence is a _P_VAR at its binder's type, so it builds the
# binder's own (interned) Variable.
_P_CONST, _P_VAR, _P_APP, _P_ABS, _P_QUOTE, _P_HOLE, _P_EVAL, _P_TERM = range(8)

class _Reader:
    """Parses a text and elaborates each form as soon as it is read.

    A syntax error is raised where it is found.  An elaboration error is
    held in ``error`` while reading goes on, so that a syntax error later in
    the text still wins; ``parse_term`` raises it once the input has ended.

    A parenthesized group of more than one token looks its inside up in the
    session's read memo (``_reuse``).  On a miss it is read, and it is
    closed if no name in it resolved outside it: the least depth its names
    resolved to, ``low``, is still len(names) at its ``)``.  A closed group
    read with no elaboration error held reads as its text alone does, so it
    is kept (``_keep``), even if the text is refused later; what is not kept
    is built by the final ``_build``, so errors and their order are those of
    a read without the memo.
    """

    def __init__(self, text):
        self.text = text
        self.kinds, self.texts, self.starts, self.close = _lex(text)
        self.i = 0
        s = session.current()
        self.constants = s.constants
        self.reads = s.reads
        self.sig = (len(s.constants), len(s.type_arities))
        self.eps = epsilon_ty()
        self.free = {}  # free-variable name -> elaboration type
        # bound name -> [(elaboration type, depth)], innermost last; a
        # binder's depth is len(names) where it binds
        self.scope = {}
        self.names = []  # names of the binders in scope, innermost last
        # the least depth a name read inside the innermost open group
        # resolved to: its binder's, or -1 for a free name
        self.low = -1
        # len(names) at the outermost open quotation; None outside any
        # quotation and directly inside a hole
        self.saved = None
        self.error = None  # the first elaboration error

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

    def _at(self, off) -> str:
        line, col = _linecol(self.text, off)
        return f"(at {line}:{col})"

    def _hold(self, error):
        if self.error is None:
            self.error = error

    def _unify_at(self, a, b, off, what):
        try:
            _unify(a, b, [])
        except _UnifyFail:
            self._hold(ElaborationError(f"{what} {self._at(off)}"))

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
            if self.kinds[i + 1] == "IDENT" and self.kinds[i + 2] in _TYATOM_START:
                return self._tyapp()
            self.i = i + 1
            ty = self.type_()
            self.expect(")", ")")
            return ty
        self.fail("expected a type")

    def _tyapp(self) -> HolType:
        """``(c t1 ... tn)``: a type constructor applied to type atoms."""
        j = self.i + 1
        self.i = j + 1
        args = []
        while self.kinds[self.i] in _TYATOM_START:
            args.append(self.tyatom())
        self.expect(")", ")")
        try:
            return TypeApplication(self.texts[j], tuple(args))
        except KernelError as e:
            self.fail(str(e), j)

    def _opt_ann(self) -> HolType | None:
        if self.kinds[self.i] == ":":
            self.i += 1
            return self.tyatom()
        return None

    # -- terms --------------------------------------------------------------

    def term(self, level=_TERM) -> tuple:
        """The plan of the longest form of grammar level ``level`` or tighter.

        One frame per nesting level: prefix forms and atoms are read here,
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
            neg = self._ident("~", None, off)
            lhs = self._app(neg, self.term(_NEG), off)
        elif kind == "eval":
            if level > _COMB:
                self.fail("expected a term")
            if self.saved is not None:
                self.fail("evaluation is not allowed inside a quotation")
            self.i = i + 1
            body = self.term(_APP)
            self.expect("to", "'to' in an eval form")
            ty = self.tyatom()
            if body[0] is not self.eps:
                self._unify_at(
                    body[0], self.eps, off, "eval expects a construction (type epsilon)"
                )
            lhs = (ty, _P_EVAL, body)
        else:
            if kind == "IDENT":
                self.i = i + 1
                lhs = self._ident(self.texts[i], self._opt_ann(), off)
            elif kind == "(":
                if kinds[i + 1] in _OP_ATOMS and kinds[i + 2] == ")":
                    self.i = i + 3
                    lhs = self._ident(kinds[i + 1], self._opt_ann(), off)
                else:
                    # the group is read here, so that nesting costs one
                    # frame per level
                    j = self.close.get(i, 0)
                    inner = self.text[off + 1 : starts[j]] if j > i + 2 else None
                    lhs = None if inner is None else self._reuse(inner, j)
                    if lhs is None:
                        self.i = i + 1
                        if inner is None:
                            lhs = self.term()
                            self.expect(")", ")")
                        else:
                            outer, self.low = self.low, len(self.names)
                            lhs = self.term()
                            self.expect(")", ")")
                            if self.low == len(self.names) and self.error is None:
                                lhs = self._keep(inner, lhs)
                            if outer < self.low:
                                self.low = outer
            elif kind == "NUMERAL":
                self.i = i + 1
                num = Constant("_0", num_ty())
                suc = Constant("SUC", mk_fun(num_ty(), num_ty()))
                for _ in range(int(self.texts[i])):
                    num = Application(suc, num)
                lhs = (num.ty, _P_TERM, num)
            elif kind == "STRING":
                self.i = i + 1
                lhs = (str_ty(), _P_CONST, self.texts[i])
            elif kind == "Q_":
                self.i = i + 1
                entered = self.saved is None
                if entered:
                    self.saved = len(self.names)
                body = self.term()
                self.expect("_Q", "'_Q' closing a quotation")
                if entered:
                    self.saved = None
                lhs = (self.eps, _P_QUOTE, body)
            elif kind == "H_":
                if self.saved is None:
                    line, col = _linecol(self.text, off)
                    raise HoleOutsideQuotation(
                        f"hole outside any quotation at {line}:{col}"
                    )
                self.i = i + 1
                lhs = self._hole(off)
            else:
                self.fail("expected a term")
            if level == _ATOM:
                return lhs
            while kinds[self.i] in _ATOM_START:
                off = starts[self.i]
                lhs = self._app(lhs, self.term(_ATOM), off)
        while True:
            i = self.i
            op = kinds[i]
            entry = _INFIX.get(op)
            if entry is None or entry[0] < level:
                return lhs
            off = starts[i]
            self.i = i + 1
            lhs = self._app(self._ident(op, None, off), lhs, off)
            rhs = self.term(entry[2])
            if op == "=" and kinds[self.i] == "=":
                self.fail("'=' does not associate; parenthesize one side")
            lhs = self._app(lhs, rhs, off)

    def _binder(self) -> tuple:
        op = self.kinds[self.i]
        self.i += 1
        bound = []  # (name, variable type, offset, quantifier plan or None)
        while True:
            i = self.expect("IDENT", "a binder variable")
            name, off = self.texts[i], self.starts[i]
            ann = self._opt_ann()
            quantifier = None if op == "\\" else self._ident(op, None, off)
            if name in self.constants:
                self._hold(
                    ParseError(f"binder variable {name!r} shadows a constant {self._at(off)}")
                )
            vty = ann if ann is not None else _Meta()
            self.scope.setdefault(name, []).append((vty, len(self.names)))
            self.names.append(name)
            bound.append((name, vty, off, quantifier))
            if self.kinds[self.i] != "IDENT":
                break
        self.expect(".", "'.' after binder variables")
        body = self.term()
        for name, vty, off, quantifier in reversed(bound):
            self.names.pop()
            self.scope[name].pop()
            body = (_fun(vty, body[0]), _P_ABS, name, vty, body)
            if quantifier is not None:
                body = self._app(quantifier, body, off)
        return body

    def _hole(self, off) -> tuple:
        # Hole contents live outside the quotation: the binders entered since
        # the outermost open quotation began are out of scope in them.
        saved, names, scope = self.saved, self.names, self.scope
        hidden = names[saved:]
        del names[saved:]
        entries = [scope[n].pop() for n in reversed(hidden)]
        self.saved = None
        body = self.term()
        self.expect("_H", "'_H' closing a hole")
        self.saved = saved
        for n, entry in zip(hidden, reversed(entries)):
            scope[n].append(entry)
        names.extend(hidden)
        ann = self._opt_ann()
        if body[0] is not self.eps:
            self._unify_at(
                body[0], self.eps, off, "hole content must be a construction (type epsilon)"
            )
        return (ann if ann is not None else _Meta(), _P_HOLE, body)

    def _app(self, fplan, aplan, off) -> tuple:
        fe, ae = fplan[0], aplan[0]
        if type(fe) is _Meta:
            fe = _resolve(fe)
        if isinstance(fe, (TypeApplication, _Open)) and fe.constructor == "fun":
            dom, res = fe.arguments
            if dom is not ae:
                self._unify_at(dom, ae, off, "operator/operand types do not agree")
        else:
            res = _Meta()
            self._unify_at(
                fe, _Open("fun", (ae, res)), off, "operator/operand types do not agree"
            )
        return (res, _P_APP, fplan, aplan)

    def _ident(self, name, ann, off) -> tuple:
        for vty, depth in reversed(self.scope.get(name, ())):
            if ann is not None:
                trail = []
                try:
                    _unify(vty, ann, trail)
                except _UnifyFail:
                    for m in trail:
                        m.ref = None
                    continue  # annotation escapes this binder; look outward
            if depth < self.low:
                self.low = depth
            return (vty, _P_VAR, name)
        generic = self.constants.get(name)
        if generic is not None:
            tvs = type_variables_in(generic)
            ety = _instance(generic, {tv: _Meta() for tv in tvs}) if tvs else generic
            if ann is not None and ann is not ety:
                self._unify_at(ety, ann, off, f"annotation does not fit constant {name!r}")
            return (ety, _P_CONST, name)
        self.low = -1
        ety = self.free.get(name)
        if ety is None:
            ety = self.free[name] = ann if ann is not None else _Meta()
        elif ann is not None:
            self._unify_at(ety, ann, off, f"conflicting types for free variable {name!r}")
        return (ety, _P_VAR, name)

    # -- the group memo -----------------------------------------------------

    def _reuse(self, inner, j):
        """The plan of the group whose text is ``inner`` and whose ``)`` is
        token ``j``, from the memo entry of that text if it reads so here;
        None if not.

        Each name the entry lists must resolve here, as an unannotated
        occurrence does, to exactly its type there, or be neither bound nor
        free, and it then enters the free table at that type.  Nothing is
        unified: a mismatch is a miss, and the group is read.
        """
        entry = self.reads.get((inner, *self.sig))
        if entry is None:
            return None
        t, names = entry
        if self.saved is not None and (not t.eval_free or t.has_hole):
            return None  # a quotation refuses an evaluation; a hole sees another scope
        scope, free = self.scope, self.free
        low = self.low
        new = []
        for name, ty in names:
            stack = scope.get(name)
            cur, depth = stack[-1] if stack else (free.get(name), -1)
            if cur is None:
                new.append((name, ty))
            elif not _is(cur, ty):
                return None
            elif depth < low:
                low = depth
        free.update(new)
        self.low = -1 if new else low
        self.i = j + 1
        return (t.ty, _P_TERM, t)

    def _keep(self, inner, plan) -> tuple:
        """The plan of the closed group ``inner`` just read: a built leaf,
        kept in the memo unless its text has an entry there, if every type
        in it is determined and it holds no hole; ``plan`` otherwise, for
        the final ``_build``."""
        try:
            t = _build(plan)
        except (_Unresolved, CqeError, RecursionError):
            # undetermined here, refused, or too deep to build from inside
            # the reader: the final build decides
            return plan
        if t.has_hole:
            return plan  # its contents see a scope that depends on the context
        key = (inner, *self.sig)
        self.reads.setdefault(key, (t, ()))
        return (t.ty, _P_TERM, t)


def _build(plan) -> Term:
    """The kernel term of an elaborated plan; parts are built left to right."""
    tag = plan[1]
    if tag == _P_APP:
        return Application(_build(plan[2]), _build(plan[3]))
    if tag == _P_TERM:
        return plan[2]
    if tag == _P_CONST:
        return Constant(plan[2], _zonk(plan[0]))
    if tag == _P_VAR:
        return Variable(plan[2], _zonk(plan[0]))
    if tag == _P_ABS:
        _, _, name, vty, bplan = plan
        return Abstraction(Variable(name, _zonk(vty)), _build(bplan))
    if tag == _P_QUOTE:
        return Quotation(_build(plan[2]))
    if tag == _P_HOLE:
        return Hole(_build(plan[2]), _zonk(plan[0]))
    return Evaluation(_build(plan[2]), plan[0])


def parse_type(text: str) -> HolType:
    reader = _Reader(text)
    try:
        ty = reader.type_()
    except RecursionError:
        raise ParseError("input is nested too deeply") from None
    reader.expect_eof()
    return ty


def parse_term(text: str) -> Term:
    """The term that ``text`` reads as in the active session.

    A text read once is not read again: the session keeps each term read,
    with each free variable's name and type, under (text, number of
    constants, number of type constructors).  The signature only grows, so
    that key fixes everything a read depends on.

    A parenthesized group of more than one token looks its inside up under
    the same key, and reuses the term where each of those names resolves as
    it did, or is new (packrat parsing; Ford, ICFP 2002).  A group that
    reads no name from outside itself reads exactly as its text alone does,
    so it is kept under its inside, with no names, and answers
    ``parse_term`` of that text too; it never replaces an entry.  A refused
    text is not kept and raises on every call, but the closed groups it read
    stay: each reads as its text alone does.
    """
    s = session.current()
    key = (text, len(s.constants), len(s.type_arities))
    entry = s.reads.get(key)
    if entry is None:
        reader = _Reader(text)
        try:
            plan = reader.term()
            reader.expect_eof()
            if reader.error is not None:
                raise reader.error
            t = _build(plan)
        except _Unresolved:
            raise ElaborationError("could not infer a unique type; add an annotation") from None
        except RecursionError:
            raise ParseError("input is nested too deeply") from None
        names = tuple([(name, _zonk(ety)) for name, ety in reader.free.items()])
        entry = s.reads[key] = (t, names)
    return entry[0]


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------


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
    # the form the type reader reads back: (c t1 ... tn)
    return "(" + " ".join([ty.constructor] + [_pty(a, True) for a in ty.arguments]) + ")"


def _tyann(ty: HolType) -> str:
    return ":" + _pty(ty, True)


def print_term(t: Term) -> str:
    return _print(t, _TERM, (), None)


def print_theorem(th) -> str:
    hyps = sorted(print_term(h) for h in th.hyps)
    lead = ", ".join(hyps) + " " if hyps else ""
    return lead + "|- " + print_term(th.concl)


def _const_atom(t: Constant) -> str:
    if _is_name_literal(t.name):
        return t.name
    base = "(" + t.name + ")" if t.name in _OP_ATOMS else t.name
    generic = session.current().constants.get(t.name)
    if generic is not None and type_variables_in(generic):
        return base + _tyann(t.ty)
    return base


def _print(t: Term, req: int, env: tuple, live) -> str:
    """The text of ``t``, in parentheses when its grammar level is looser
    than ``req``; one frame per nesting level.  ``env`` holds the binders
    in scope, and ``live`` their number outside the open quotations."""
    if isinstance(t, Variable):
        for v in reversed(env):
            if v.name == t.name:
                if v == t:
                    return t.name
                break
        return t.name + _tyann(t.ty)
    if isinstance(t, Constant):
        return _const_atom(t)
    binder = None
    if isinstance(t, Application):
        fn, arg = t.fn, t.arg
        entry = None
        if isinstance(fn, Application) and isinstance(fn.fn, Constant):
            entry = _INFIX.get(fn.fn.name)
        if entry is not None:
            lvl, lreq, rreq = entry
            s = f"{_print(fn.arg, lreq, env, live)} {fn.fn.name} {_print(arg, rreq, env, live)}"
        elif isinstance(fn, Constant) and fn.name == "~":
            s, lvl = "~" + _print(arg, _NEG, env, live), _NEG
        elif isinstance(fn, Constant) and fn.name in ("!", "?") and isinstance(arg, Abstraction):
            binder = fn.name, arg
        else:
            s = _print(fn, _APP, env, live) + " " + _print(arg, _ATOM, env, live)
            lvl = _APP
    elif isinstance(t, Abstraction):
        binder = "\\", t
    elif isinstance(t, Quotation):
        inner_live = len(env) if live is None else live
        return "Q_ " + _print(t.body, _TERM, env, inner_live) + " _Q"
    elif isinstance(t, Hole):
        content = _print(t.content, _TERM, env[:live], None)
        return "H_ " + content + " _H" + _tyann(t.slot_type)
    else:
        s = f"eval {_print(t.content, _APP, env, live)} to {_pty(t.result_type, True)}"
        lvl = _COMB
    if binder is not None:
        op, abs_t = binder
        v = abs_t.var
        body = _print(abs_t.body, _TERM, env + (v,), live)
        s, lvl = f"{op}{v.name}{_tyann(v.ty)}. {body}", _TERM
    return "(" + s + ")" if lvl < req else s


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


def term_to_tree(t: Term, memo=None):
    """The structure tree of ``t``.  ``memo`` maps each node, term or type,
    to its tree; calls that share one build a shared node's tree once."""
    if memo is None:
        memo = {}
    tree = memo.get(t)
    if tree is None:
        out = [_TREE_TAG[type(t)]]
        for p in t._parts:
            if isinstance(p, Term):
                out.append(term_to_tree(p, memo))
            elif isinstance(p, HolType):
                ty = memo.get(p)
                if ty is None:
                    ty = memo[p] = type_to_tree(p)
                out.append(ty)
            else:
                out.append(p)
        tree = memo[t] = tuple(out)
    return tree


def tree_to_term(tree) -> Term:
    """The term of a structure tree.  Within one call, each type tree and
    each variable or constant leaf is read once, keyed by its value."""
    return _tree_to_term(tree, {})


def _tree_to_term(tree, memo) -> Term:
    try:
        tag = tree[0]
        leaf = tag == "var" or tag == "const"
        if leaf:
            t = memo.get(tree)
            if t is not None:
                return t
        cls, kinds = _TREE_NODES[tag]
        parts = []
        for kind, sub in zip(kinds, tree[1:], strict=True):
            if kind is HolType:
                ty = memo.get(sub)
                if ty is None:
                    ty = memo[sub] = tree_to_type(sub)
                parts.append(ty)
            elif kind is str:
                parts.append(sub)
            else:
                part = _tree_to_term(sub, memo)
                if not isinstance(part, kind):
                    raise ParseError(f"{tag} tree: expected a {kind.__name__}")
                parts.append(part)
        t = cls(*parts)
        if leaf:
            memo[tree] = t
        return t
    except (ValueError, TypeError, IndexError, KeyError):
        raise ParseError(f"malformed term tree: {tree!r}") from None


def tree_to_sexp(tree, memo=None) -> str:
    """The s-expression of a tree.  ``memo`` maps ``id(tree)`` to the text of
    each tuple already written, so a shared subtree is written once; calls
    that share one must keep every tree they pass alive while it is used."""
    if isinstance(tree, str):
        return '"' + tree.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if memo is None:
        memo = {}
    text = memo.get(id(tree))
    if text is None:
        parts = []
        for x in tree:
            if type(x) is str:
                parts.append('"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"')
            else:
                parts.append(tree_to_sexp(x, memo))
        text = memo[id(tree)] = "(" + " ".join(parts) + ")"
    return text


# one s-expression token: a parenthesis, a string with its quotes (its text
# still escaped), or any other character, such as the quote of an
# unterminated string
_SEXP_TOKEN = re.compile(r'''\s*(\(|\)|"[^"\\]*(?:\\.[^"\\]*)*"|\S)''', re.S)
_SEXP_ESCAPE = re.compile(r"\\(.)", re.S)


def sexp_to_tree(text: str):
    items = []  # the items of the innermost open list
    outer = []  # the items of each enclosing open list, outermost first
    for tok in _SEXP_TOKEN.findall(text):
        if tok == "(":
            outer.append(items)
            items = []
        elif tok == ")":
            if not outer:
                raise ParseError("unbalanced ')' in s-expression")
            done = tuple(items)
            items = outer.pop()
            items.append(done)
        elif tok[0] == '"' and len(tok) > 1:
            atom = tok[1:-1]
            items.append(_SEXP_ESCAPE.sub(r"\1", atom) if "\\" in atom else atom)
        elif tok == '"':
            raise ParseError("unterminated string in s-expression")
        else:
            raise ParseError(f"unexpected character {tok!r} in s-expression")
    if outer:
        raise ParseError("unbalanced parentheses in s-expression")
    if not items:
        raise ParseError("unexpected end of s-expression")
    if len(items) > 1:
        raise ParseError("trailing input after s-expression")
    return items[0]


def tree_to_json(tree) -> str:
    return json.dumps(tree, separators=(",", ":"))


def json_to_tree(text: str):
    def tupleize(items):
        out = []
        for x in items:
            if type(x) is list:
                out.append(tupleize(x))
            elif type(x) is str:
                out.append(x)
            else:
                raise ParseError("json tree must contain only lists and strings")
        return tuple(out)

    try:
        data = json.loads(text)
    except ValueError as e:
        raise ParseError(f"bad json: {e}") from None
    return tupleize([data])[0]
