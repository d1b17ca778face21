"""Core term language: simple types and the seven-constructor term tree.

Types and terms are hash-consed (Filliâtre & Conchon, "Type-Safe Modular
Hash-Consing", 2006) in the active session's ``types`` table and its
``terms`` tables, one per node class and keyed by the node's parts: a
constructor returns the one object already built for the structure, so
``==`` and ``hash`` on types and on terms are the object's identity and
its address, and a table key hashes in C.  Every formation
check, the arity check of a type and the signature check of a constant
included, runs once, on the table miss that builds the node.  A hit needs
none: a session's signature only grows (redeclaration is refused), and
every session starts from a copy of the bootstrap template's tables.  A
type's arguments must be types; anything else, such as the elaborator's
unification variables, is refused with ``IllTyped``.

A node lives until its session is reset (``cqe repl`` never resets, so it
keeps every node it builds).  Template nodes are shared by every session.
A node kept from a discarded session is not ``is`` the same structure
formed anew, yet would print and read back as it, so formation refuses it
as a part and the kernel as a conclusion (``_interned``).  Each node is
stamped with the ``serial`` of the session it was formed in.  A session's
tables hold exactly the nodes formed in it or in the template, whose
tables every session starts from, so the guard compares two integers and
looks nothing up.  A node holds no reference to a session or a table.

Terms are immutable.  A constructor looks the active session up once; on a
table miss the new node's class validates its formation conditions once,
in ``__post_init__``: that each part is of its kind (a type part a
``HolType``, a term part a ``Term``) and formed in the active session or
the template (``_want``), then the rest, so a constructed Term is
well-typed by construction.  It then stores the node's fields and caches
in its ``__dict__``; flags that are the same for every node of a class are
class attributes.  ``Application`` and ``Abstraction``, the nodes built
most, make ``_want``'s tests inline and call it only to raise.  Three node
kinds go beyond the simply typed lambda calculus:

* ``Quotation`` wraps a term and denotes that term's syntax tree.  Its body
  must not contain an evaluation except inside a hole — quoting a term whose
  value can depend on evaluation would let a formula talk about its own
  truth, which is exactly the trap the formation rule exists to close.
* ``Hole`` is an antiquotation: a live slot of type ``epsilon`` spliced into
  a quotation.  Hole contents stay part of the surrounding (unquoted)
  world — they are substituted into, their free variables are free.
* ``Evaluation`` maps a syntax value back to the value of the term it
  represents, at a stated result type.

Eval-freeness, hole bookkeeping, the free-variable set and the term's type
are computed once at construction and cached on the node, as is each
type's set of type variables (``_tyvars``).  The free set
(``_fv``) comes from the parts' sets, reusing a part's set whenever the
node's is no larger, so a deep term holds few distinct sets and ``_frees``
only reads it.

Walkers reach a node's parts through ``_parts``, via ``subterms`` and
``map_parts``, rather than dispatching on its kind.  Inside a quotation only
hole contents are live; ``holes`` and ``map_holes`` state that rule once, for
the free set, ``_alpha`` and the kernel's ``_vsubst``.  ``_alpha`` threads the
invariant "``env_s is env_t`` exactly while every binder pair so far was the
same variable" (the root's ``()`` qualifies).  Under it, ``s is t`` proves
alpha-equivalence at once; with interned terms it fires on every shared
subterm.
"""

from __future__ import annotations

import re

from . import session
from .errors import (
    HoleOutsideQuotation,
    IllTyped,
    NotAVariable,
    NotEvalFree,
    UnknownName,
)

# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


class HolType:
    """Base class for object-logic types; interned, see the module docstring."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("types are immutable")

    def __repr__(self):
        try:
            from .frontend import _pty

            return _pty(self, True)
        except Exception:
            return f"<{type(self).__name__}>"


# The surface shapes of names, stated once: the lexer (frontend._TOKEN_RE)
# builds its IDENT and TYVAR groups and its keyword set from these, cli its
# script names and proof-expression tokens from IDENT, and the reader takes
# each of OPERATORS, written (=) and so on, as a constant name.
# Formation refuses a variable or type-variable name the lexer would not read
# back, and kernel.new_constant a constant name (is_constant_name).
IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
TYVAR = r"'[A-Za-z_][A-Za-z0-9_]*"
KEYWORDS = ("eval", "to", "Q_", "_Q", "H_", "_H")
KEYWORD = "(?:" + "|".join(KEYWORDS) + ")"
OPERATORS = ("=", "==>", "/\\", "\\/", "~", "!", "?", "+", "*", "<=")
_TYVAR_NAME = re.compile(TYVAR)
_VAR_NAME = re.compile(rf"(?!{KEYWORD}\Z){IDENT}")


def is_constant_name(name) -> bool:
    """Whether the reader reads ``name`` as a constant's name: an identifier
    that is not a keyword, or an operator."""
    if not isinstance(name, str):
        return False
    return name in OPERATORS or _VAR_NAME.fullmatch(name) is not None


class TypeVariable(HolType):
    # _tyvars is None: the set would hold the type variable itself
    __slots__ = ("name", "_tyvars", "_serial")

    def __new__(cls, name):
        # the key is the name, a str; a TypeApplication's key is a tuple
        s = session._current or session.current()
        ty = s.types.get(name) if type(name) is str else None
        if ty is None:
            # the name must print as the lexer's type-variable token reads it
            if not isinstance(name, str) or not _TYVAR_NAME.fullmatch(name):
                raise IllTyped(f"not a type variable name (' and an identifier): {name!r}")
            ty = object.__new__(cls)
            object.__setattr__(ty, "name", name)
            object.__setattr__(ty, "_tyvars", None)
            object.__setattr__(ty, "_serial", s.serial)
            s.types[name] = ty
        return ty

    def __reduce__(self):
        return (TypeVariable, (self.name,))


class TypeApplication(HolType):
    __slots__ = ("constructor", "arguments", "_tyvars", "_serial")

    def __new__(cls, constructor, arguments=()):
        if type(arguments) is not tuple:
            arguments = tuple(arguments)
        key = (constructor, arguments)
        s = session._current or session.current()
        try:
            ty = s.types.get(key)
        except TypeError:  # an unhashable part: formation below refuses it
            ty = None
        if ty is None:
            ty = object.__new__(TypeApplication)
            object.__setattr__(ty, "constructor", constructor)
            object.__setattr__(ty, "arguments", arguments)
            object.__setattr__(ty, "_serial", s.serial)
            ty.__post_init__()
            s.types[key] = ty
        return ty

    def __post_init__(self):
        # runs once per node built, never on a table hit; __new__ has made
        # the session current
        try:
            arity = session._current.type_arities.get(self.constructor)
        except TypeError:  # an unhashable name names no constructor
            arity = None
        if arity is None:
            raise UnknownName(f"unknown type constructor: {self.constructor!r}")
        if arity != len(self.arguments):
            raise IllTyped(
                f"type constructor {self.constructor!r} expects {arity} "
                f"argument(s), got {len(self.arguments)}"
            )
        tyvars = frozenset()
        for a in self.arguments:
            if type(a) not in (TypeApplication, TypeVariable) or not _formed_in(a, self._serial):
                raise IllTyped(f"type argument not a type or from another session: {a!r}")
            tyvars = _union(tyvars, type_variables_in(a))
        object.__setattr__(self, "_tyvars", tyvars)

    def __reduce__(self):
        return (TypeApplication, (self.constructor, self.arguments))


def bool_ty() -> TypeApplication:
    return TypeApplication("bool", ())


def epsilon_ty() -> TypeApplication:
    return TypeApplication("epsilon", ())


def type_ty() -> TypeApplication:
    return TypeApplication("type", ())


def num_ty() -> TypeApplication:
    return TypeApplication("num", ())


def str_ty() -> TypeApplication:
    return TypeApplication("str", ())


def mk_fun(dom: HolType, cod: HolType) -> TypeApplication:
    return TypeApplication("fun", (dom, cod))


def is_fun(ty: HolType) -> bool:
    return isinstance(ty, TypeApplication) and ty.constructor == "fun" and len(ty.arguments) == 2


def type_variables_in(ty: HolType) -> frozenset:
    tyvars = ty._tyvars
    return frozenset((ty,)) if tyvars is None else tyvars


def match_type(generic: HolType, concrete: HolType, env: dict) -> bool:
    """Match ``concrete`` against ``generic``, binding generic's type variables."""
    if isinstance(generic, TypeVariable):
        bound = env.get(generic)
        if bound is None:
            env[generic] = concrete
            return True
        return bound == concrete
    if not isinstance(concrete, TypeApplication):
        return False
    if generic.constructor != concrete.constructor:
        return False
    if len(generic.arguments) != len(concrete.arguments):
        return False
    for g, c in zip(generic.arguments, concrete.arguments):
        if not match_type(g, c, env):
            return False
    return True


def subst_type(ty: HolType, env: dict) -> HolType:
    """Instantiate type variables; ``ty`` itself when nothing changes."""
    if isinstance(ty, TypeVariable):
        return env.get(ty, ty)
    args = []
    changed = False
    for a in ty.arguments:
        b = subst_type(a, env)
        changed = changed or b is not a
        args.append(b)
    return TypeApplication(ty.constructor, tuple(args)) if changed else ty


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


class Term:
    """Base class of the seven node kinds; interned in the active session's
    ``terms`` table, see the module docstring.

    ``Cls(*parts)`` takes the parts in the order of ``Cls._fields``, the
    names under which the node also keeps them, and keeps them as the
    node's ``_parts`` tuple.
    """

    __slots__ = ()
    _fields: tuple = ()

    # Caches set by each subclass's __post_init__, or fixed for the class:
    #   ty               -- the term's type (a field on Variable/Constant)
    #   eval_free        -- no Evaluation anywhere, including hole contents
    #   ef_outside_holes -- no Evaluation outside hole contents
    #   has_hole         -- some Hole occurs anywhere
    #   has_naked_hole   -- some Hole occurs outside any Quotation
    #   _fv              -- the syntactic free-variable set; None on a
    #                       Variable, whose set would hold the Variable
    #                       itself, a cycle only the garbage collector frees
    # and by __new__:
    #   _serial          -- the serial of the session the node was formed in

    def __new__(cls, *parts):
        s = session._current or session.current()  # the call only before any reset
        table = s.terms[cls]
        try:
            t = table.get(parts)
        except TypeError:  # an unhashable part: formation below refuses it
            t = None
        if t is None:
            if len(parts) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes {len(cls._fields)} parts")
            t = object.__new__(cls)
            d = t.__dict__
            d["_parts"] = parts
            d["_serial"] = s.serial
            t.__post_init__()
            table[parts] = t
        return t

    def __setattr__(self, name, value):
        raise AttributeError("terms are immutable")

    def __reduce__(self):
        return (type(self), self._parts)

    def __repr__(self):
        try:
            from .frontend import print_term

            return f"`{print_term(self)}`"
        except Exception:
            return f"<{type(self).__name__}>"


_NO_FREES = frozenset()


def _formed_in(node, serial) -> bool:
    """Whether ``node`` was formed in the session of ``serial`` or in the
    template: exactly the nodes that session's tables hold."""
    return node._serial == serial or node._serial == session.template_serial


def _interned(node) -> bool:
    """Whether ``node`` is the active session's node for its structure."""
    return _formed_in(node, session.current().serial)


def _want(node: Term, part, kind) -> None:
    """Refuse a part of ``node`` that is not a ``kind``, or that is a term or
    type not formed in ``node``'s session, the active one, or the template."""
    if not isinstance(part, kind):
        raise IllTyped(f"{type(node).__name__} part is not a {kind.__name__}: {part!r}")
    if kind is not str and not _formed_in(part, node._serial):
        raise IllTyped(f"part formed in another session: {part!r}")


def _is_name_literal(name: str) -> bool:
    return len(name) >= 2 and name.startswith('"') and name.endswith('"')


class Variable(Term):
    _fields = ("name", "ty")
    eval_free = ef_outside_holes = True
    has_hole = has_naked_hole = False
    _fv = None

    def __post_init__(self):
        name, ty = self._parts
        _want(self, name, str)
        _want(self, ty, HolType)
        # the name must print as the lexer's identifier token reads it
        if not _VAR_NAME.fullmatch(name):
            raise IllTyped(f"not a variable name (an identifier, not a keyword): {name!r}")
        self.__dict__.update(name=name, ty=ty)


class Constant(Term):
    _fields = ("name", "ty")
    eval_free = ef_outside_holes = True
    has_hole = has_naked_hole = False
    _fv = _NO_FREES

    def __post_init__(self):
        name, ty = self._parts
        _want(self, name, str)
        _want(self, ty, HolType)
        if not name:
            raise IllTyped("constant name must be non-empty")
        if _is_name_literal(name):
            # A name literal like "bool" denotes itself; its type is fixed.
            if ty != str_ty():
                raise IllTyped(f"name literal {name} must have type str")
        else:
            # __new__ has made the session current
            generic = session._current.constants.get(name)
            if generic is None:
                raise UnknownName(f"unknown constant: {name!r}")
            if ty is not generic and not match_type(generic, ty, {}):
                raise IllTyped(
                    f"constant {name!r} at type {ty!r} is not an "
                    f"instance of its generic type {generic!r}"
                )
        self.__dict__.update(name=name, ty=ty)


class Application(Term):
    _fields = ("fn", "arg")

    def __post_init__(self):
        # _want's and is_fun's tests made inline; _want is called only to raise
        fn, arg = self._parts
        serial, template = self._serial, session.template_serial
        if not (isinstance(fn, Term) and (fn._serial == serial or fn._serial == template)):
            _want(self, fn, Term)
        if not (isinstance(arg, Term) and (arg._serial == serial or arg._serial == template)):
            _want(self, arg, Term)
        fty = fn.ty
        if type(fty) is not TypeApplication or fty.constructor != "fun":
            raise IllTyped(f"operator is not function-typed: {fty!r}")
        dom, cod = fty.arguments
        if dom is not arg.ty:
            raise IllTyped(
                f"operand type {arg.ty!r} does not match operator domain {dom!r}"
            )
        a, b = fn._fv, arg._fv
        d = self.__dict__
        d["fn"] = fn
        d["arg"] = arg
        d["ty"] = cod
        d["eval_free"] = fn.eval_free and arg.eval_free
        d["ef_outside_holes"] = fn.ef_outside_holes and arg.ef_outside_holes
        d["has_hole"] = fn.has_hole or arg.has_hole
        d["has_naked_hole"] = fn.has_naked_hole or arg.has_naked_hole
        d["_fv"] = _union(
            frozenset((fn,)) if a is None else a, frozenset((arg,)) if b is None else b
        )


class Abstraction(Term):
    _fields = ("var", "body")

    def __post_init__(self):
        var, body = self._parts
        serial, template = self._serial, session.template_serial
        if not (isinstance(body, Term) and (body._serial == serial or body._serial == template)):
            _want(self, body, Term)
        if not isinstance(var, Variable):
            raise NotAVariable("abstraction binder must be a Variable")
        if var._serial != serial and var._serial != template:
            _want(self, var, Variable)  # formed in another session
        fv = body._fv
        if fv is None:
            fv = frozenset((body,))
        if var in fv:
            fv = fv - frozenset((var,))
        d = self.__dict__
        d["var"] = var
        d["body"] = body
        d["ty"] = mk_fun(var.ty, body.ty)
        d["eval_free"] = body.eval_free
        d["ef_outside_holes"] = body.ef_outside_holes
        d["has_hole"] = body.has_hole
        d["has_naked_hole"] = body.has_naked_hole
        d["_fv"] = fv


class Quotation(Term):
    _fields = ("body",)
    ef_outside_holes = True
    has_naked_hole = False

    def __post_init__(self):
        (body,) = self._parts
        _want(self, body, Term)
        if not body.ef_outside_holes:
            raise NotEvalFree(
                "cannot quote a term containing an evaluation outside holes"
            )
        # quoted binders bind nothing in hole contents: nothing is subtracted
        fv = _NO_FREES
        for h in holes(body):
            fv = _union(fv, _frees(h))
        self.__dict__.update(
            body=body, ty=epsilon_ty(), eval_free=body.eval_free, has_hole=body.has_hole, _fv=fv
        )


class Hole(Term):
    _fields = ("content", "slot_type")
    ef_outside_holes = has_hole = has_naked_hole = True

    def __post_init__(self):
        c, slot_type = self._parts
        _want(self, c, Term)
        _want(self, slot_type, HolType)
        if c.ty != epsilon_ty():
            raise IllTyped("hole content must have type epsilon")
        if c.has_naked_hole:
            raise HoleOutsideQuotation("hole content contains a hole of its own")
        self.__dict__.update(
            content=c, slot_type=slot_type, ty=slot_type, eval_free=c.eval_free, _fv=_frees(c)
        )


class Evaluation(Term):
    _fields = ("content", "result_type")
    eval_free = ef_outside_holes = has_naked_hole = False

    def __post_init__(self):
        c, result_type = self._parts
        _want(self, c, Term)
        _want(self, result_type, HolType)
        if c.ty != epsilon_ty():
            raise IllTyped("evaluation content must have type epsilon")
        if c.has_naked_hole:
            raise HoleOutsideQuotation(
                "evaluation content contains a hole outside any quotation"
            )
        self.__dict__.update(
            content=c, result_type=result_type, ty=result_type, has_hole=c.has_hole, _fv=_frees(c)
        )


def subterms(t: Term) -> list:
    """The Term parts of t, in field order."""
    return [p for p in t._parts if isinstance(p, Term)]


def map_parts(t: Term, on_term, on_type, *args) -> Term:
    """Rebuild t from ``on_term(part, *args)`` of its Term parts and
    ``on_type(part, *args)`` of its type parts (kept when on_type is None).

    Returns t itself when every part comes back identical; otherwise the node
    is rebuilt through its class, so every formation check runs again.
    """
    parts = []
    changed = False
    for p in t._parts:
        if isinstance(p, Term):
            q = on_term(p, *args)
        elif on_type is not None and isinstance(p, HolType):
            q = on_type(p, *args)
        else:
            q = p
        changed = changed or q is not p
        parts.append(q)
    return type(t)(*parts) if changed else t


def holes(body: Term) -> list:
    """The Hole nodes of a quotation body outside hole contents, in field order.

    These are the body's only live parts: quoted binders bind nothing in
    them, and the holes of a nested quotation are live as well (the value of
    the outer quotation still varies with their contents).
    """
    out = []
    stack = [body]
    while stack:
        t = stack.pop()
        if isinstance(t, Hole):
            out.append(t)
        elif t.has_hole:
            stack.extend(reversed(subterms(t)))
    return out


def map_holes(body: Term, fn, *args) -> Term:
    """Rebuild a quotation body with each of its ``holes`` h replaced, in
    order, by ``fn(h, *args)``; the body itself when nothing changes."""
    if isinstance(body, Hole):
        return fn(body, *args)
    if not body.has_hole:
        return body
    return map_parts(body, map_holes, None, fn, *args)


# ---------------------------------------------------------------------------
# free variables
# ---------------------------------------------------------------------------



def _union(a: frozenset, b: frozenset) -> frozenset:
    # a part's own set when it already holds the other's
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _frees(t: Term) -> frozenset:
    """Syntactic free-variable set, defined for every term.

    For an Evaluation node this is the free variables of the content term;
    note that for non-eval-free terms syntactic freeness understates semantic
    dependence, which is why the kernel's substitution has its own guards.
    """
    fv = t._fv
    return frozenset((t,)) if fv is None else fv


def free_variables(t: Term) -> frozenset:
    """Free variables of an eval-free term.

    Quotations contribute nothing from their bodies except what is free in
    hole contents: a quoted occurrence names syntax, it does not use the
    variable.  Terms containing evaluations are rejected because "free in"
    is not a syntactic notion for them.
    """
    if not t.eval_free:
        raise NotEvalFree("free_variables is only defined for eval-free terms")
    return _frees(t)


def _nodes(t: Term) -> set:
    """Every distinct node of t, quoted ones and hole contents included."""
    seen, stack = {t}, [t]
    while stack:
        for p in stack.pop()._parts:
            if isinstance(p, Term) and p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def variables_in(t: Term) -> frozenset:
    """Every variable occurring anywhere in t (bound, free, or quoted)."""
    return frozenset(s for s in _nodes(t) if isinstance(s, Variable))


def fresh_variant(x: Variable, avoid) -> Variable:
    """Prime x's name until it collides with nothing in ``avoid``.

    ``avoid`` is a collection of Variables; collision is by name so the
    result is also readable next to same-named variables of other types.
    """
    names = {v.name for v in avoid}
    name = x.name
    while name in names:
        name = name + "'"
    return x if name == x.name else Variable(name, x.ty)


def type_variables_in_term(t: Term) -> frozenset:
    return frozenset().union(
        *(type_variables_in(p) for s in _nodes(t) for p in s._parts if isinstance(p, HolType))
    )


# ---------------------------------------------------------------------------
# alpha-equivalence
# ---------------------------------------------------------------------------


def _bound_index(v: Variable, env: tuple):
    # innermost binding of this exact variable, or None
    for i in range(len(env) - 1, -1, -1):
        if env[i] == v:
            return i
    return None


def _alpha(s: Term, t: Term, env_s: tuple, env_t: tuple) -> bool:
    # env_s is env_t only while every binder pair so far was one variable:
    # then both stacks are equal and a shared subterm is alpha-equal to itself.
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
        return _alpha(s.fn, t.fn, env_s, env_t) and _alpha(s.arg, t.arg, env_s, env_t)
    if isinstance(s, Abstraction):
        if s.var.ty != t.var.ty:
            return False
        if s.var != t.var:
            # Renaming a binder over a body whose value can depend on the
            # very name (through an evaluation) is not meaning-preserving,
            # so alpha-steps are only admitted across eval-free bodies.
            if not (s.body.eval_free and t.body.eval_free):
                return False
        elif env_s is env_t:
            env = env_s + (s.var,)
            return _alpha(s.body, t.body, env, env)
        return _alpha(s.body, t.body, env_s + (s.var,), env_t + (t.var,))
    if isinstance(s, Quotation):
        # Quoted syntax is compared verbatim, hole contents in the enclosing
        # environment: the holes pairwise, then the bodies with s's holes
        # replaced by t's, in order.
        hs, ht = holes(s.body), holes(t.body)
        if len(hs) != len(ht) or not all(
            _alpha(a, b, env_s, env_t) for a, b in zip(hs, ht)
        ):
            return False
        it = iter(ht)
        return map_holes(s.body, lambda h: next(it)) is t.body
    if isinstance(s, Hole):
        return s.slot_type == t.slot_type and _alpha(
            s.content, t.content, env_s, env_t
        )
    if isinstance(s, Evaluation):
        return s.result_type == t.result_type and _alpha(
            s.content, t.content, env_s, env_t
        )
    raise TypeError(f"not a term: {s!r}")


def alpha_equivalent(s: Term, t: Term) -> bool:
    return s is t or _alpha(s, t, (), ())
