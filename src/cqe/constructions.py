"""Reflection of term syntax into the object logic.

Terms of type ``epsilon`` built from the constructor constants below are
*constructions* — object-level syntax trees.  This module installs those
constants, maps terms and types to the constructions denoting them, reads
back the term a closed construction denotes, and provides the meta-level
predicates the trusted conversions certify.

``construction_to_term`` (``type_from_construction`` for types) is the one
reader of what a closed construction denotes.  Of its errors, ``Improper``
(no well-formed term is denoted, and that cannot change) is a verdict, while
``NotAConstruction`` (a part that cannot be read) and ``UnknownName`` (a
name the session does not know yet) are refusals.

Names of variables, constants, and type constructors are carried by *name
literals*: a quoted token like ``"bool"`` is a constant of type ``str`` that
denotes itself.  Name literals live outside the constant signature — they
are self-introducing and cannot be redefined.
"""

from __future__ import annotations

from . import session
from .errors import (
    ContainsHole,
    Improper,
    KernelError,
    NotAConstruction,
    NotAVariable,
    NotEvalFree,
    UnknownName,
    UnsupportedArity,
)
from .syntax import (
    Abstraction,
    Application,
    Constant,
    HolType,
    Quotation,
    Hole,
    Term,
    TypeApplication,
    TypeVariable,
    Variable,
    bool_ty,
    epsilon_ty,
    mk_fun,
    str_ty,
    subterms,
    type_ty,
    variables_in,
)

# constructor name -> (the node class whose parts its arguments encode, or
# None for a constructor of type ``type``; its argument kinds).  ARG_TYPES
# gives each kind's type.
CONSTRUCTORS = {
    "QuoVar": (Variable, ("str", "type")),
    "QuoConst": (Constant, ("str", "type")),
    "App": (Application, ("epsilon", "epsilon")),
    "Abs": (Abstraction, ("epsilon", "epsilon")),
    "Quo": (Quotation, ("epsilon",)),
    "TyVar": (None, ("str",)),
    "TyBase": (None, ("str",)),
    "TyMonoCons": (None, ("str", "type")),
    "TyBiCons": (None, ("str", "type", "type")),
}

ARG_TYPES = {"str": str_ty, "type": type_ty, "epsilon": epsilon_ty}

NODE_CONSTRUCTOR = {cls: name for name, (cls, _) in CONSTRUCTORS.items() if cls}
# _TYPE_CONS[n] encodes a type constructor of arity n
_TYPE_CONS = [
    name for name, (cls, _) in CONSTRUCTORS.items() if cls is None and name != "TyVar"
]


def _sig_type(name: str) -> HolType:
    cls, kinds = CONSTRUCTORS[name]
    ty = type_ty() if cls is None else epsilon_ty()
    for kind in reversed(kinds):
        ty = mk_fun(ARG_TYPES[kind](), ty)
    return ty


def install(s) -> None:
    """Register the reflection signature in the bootstrap session, which
    declares nothing else yet but ``=``."""
    s.type_arities["str"] = 0
    for name in CONSTRUCTORS:
        s.constants[name] = _sig_type(name)
    s.constants["isExprType"] = mk_fun(epsilon_ty(), mk_fun(type_ty(), bool_ty()))
    s.constants["isFreeIn"] = mk_fun(epsilon_ty(), mk_fun(epsilon_ty(), bool_ty()))


def constructor_constant(name: str) -> Constant:
    if name not in CONSTRUCTORS:
        raise NotAConstruction(f"not a constructor constant: {name!r}")
    return Constant(name, session.current().constants[name])


def name_literal(text: str) -> Constant:
    return Constant('"' + text + '"', str_ty())


def dest_name_literal(t: Term) -> str:
    if isinstance(t, Constant) and t.name.startswith('"') and t.name.endswith('"'):
        return t.name[1:-1]
    raise NotAConstruction(f"not a name literal: {t!r}")


def apply_terms(head: Term, args) -> Term:
    """``head a1 ... an``: the inverse of ``strip_application``."""
    t = head
    for a in args:
        t = Application(t, a)
    return t


def strip_application(t: Term):
    args = []
    while isinstance(t, Application):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def type_to_construction(ty: HolType) -> Term:
    return _encode_type(ty, {})


def _encode_type(ty: HolType, types: dict) -> Term:
    c = types.get(ty)
    if c is not None:
        return c
    if isinstance(ty, TypeVariable):
        c = apply_terms(constructor_constant("TyVar"), [name_literal(ty.name)])
    else:
        n = len(ty.arguments)
        if n > 2:
            raise UnsupportedArity(
                f"type constructor {ty.constructor!r} has arity {n}; "
                "constructions only encode arities 0-2"
            )
        args = [name_literal(ty.constructor)]
        for a in ty.arguments:
            args.append(_encode_type(a, types))
        c = apply_terms(constructor_constant(_TYPE_CONS[n]), args)
    types[ty] = c
    return c


def term_to_construction(t: Term) -> Term:
    """The construction denoting t, for eval-free, hole-free t."""
    if not t.eval_free:
        raise NotEvalFree("only eval-free terms have quotations")
    if t.has_hole:
        raise ContainsHole(
            "term contains holes; expand_quasiquote handles quotations with holes"
        )
    return _encode(t, False, {})


def expand_quasiquote(q: Quotation) -> Term:
    """Rewrite a quotation to constructor form, splicing hole contents verbatim.

    On a hole-free quotation this agrees with ``term_to_construction`` of the
    body.  Hole contents are left untouched at every nesting depth — they are
    already terms of type epsilon describing the syntax that belongs in the
    slot.
    """
    if not isinstance(q, Quotation):
        raise NotAConstruction("expand_quasiquote expects a Quotation")
    return _encode(q.body, True, {})


def _encode(t: Term, splice: bool, types: dict) -> Term:
    # ``types`` lives for one call, so each distinct type is encoded once.
    # No Evaluation or Hole reaches here: term_to_construction refuses them,
    # and a quotation body has evaluations only inside holes, all spliced.
    if splice and isinstance(t, Hole):
        return t.content
    args = []
    for p in t._parts:
        if isinstance(p, Term):
            args.append(_encode(p, splice, types))
        elif isinstance(p, HolType):
            args.append(_encode_type(p, types))
        else:
            args.append(name_literal(p))
    return apply_terms(constructor_constant(NODE_CONSTRUCTOR[type(t)]), args)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _whnf(t: Term):
    """The head and arguments of t once the beta redexes on its spine are
    reduced.  An evaluation is refused first: ``vsubst`` suspends a redex
    whose body holds one, so reducing it would never end.
    """
    if not t.eval_free:
        raise NotAConstruction(f"an evaluation has no construction value: {t!r}")
    head, args = strip_application(t)
    while args and isinstance(head, Abstraction):
        from .kernel import vsubst  # the kernel imports this module

        head, rest = strip_application(vsubst(((head.var, args[0]),), head.body))
        args = rest + args[1:]
    return head, args


def _formed(build, *parts):
    # A name the session does not know yet may be declared later, so that
    # refusal passes through; every other formation error is permanent.
    try:
        return build(*parts)
    except UnknownName:
        raise
    except KernelError as e:
        raise Improper(f"construction denotes nothing: {e}") from e


def type_from_construction(c: Term) -> HolType:
    """The type that c denotes; accepts and refuses as construction_to_term."""
    head, args = _whnf(c)
    con = head.name if isinstance(head, Constant) else None
    entry = CONSTRUCTORS.get(con)
    if entry is None or entry[0] is not None or len(args) != len(entry[1]):
        raise NotAConstruction(f"not a type construction: {c!r}")
    name = dest_name_literal(_whnf(args[0])[0])
    if con == "TyVar":
        return _formed(TypeVariable, name)
    tys = tuple(map(type_from_construction, args[1:]))
    return _formed(TypeApplication, name, tys)


def construction_to_term(c: Term) -> Term:
    """The term that the closed construction c denotes.

    Accepts any eval-free term of type epsilon whose value can be read
    node by node: spine beta redexes are reduced first, a quotation gives
    its body with each hole replaced by the term its content denotes, and a
    constructor applied to all of its arguments gives the node built from
    what they denote.

    Raises Improper when c denotes no well-formed term: an ill-typed
    application, a constant at a type that is not an instance of its
    generic type, a type constructor at the wrong arity, an empty name.
    These are verdicts.  Raises NotAConstruction when a part has no value
    that can be read, and UnknownName when a part names a constant or type
    constructor the session does not know yet.  These are refusals.
    """
    head, args = _whnf(c)
    if isinstance(head, Quotation):
        return _read_quoted(head.body)
    con = head.name if isinstance(head, Constant) else None
    cls, kinds = CONSTRUCTORS.get(con, (None, ()))
    if cls is None or len(args) != len(kinds):
        raise NotAConstruction(f"not a construction: {c!r}")
    parts = []
    for kind, a in zip(kinds, args):
        if kind == "str":
            parts.append(dest_name_literal(_whnf(a)[0]))
        elif kind == "type":
            parts.append(type_from_construction(a))
        else:
            parts.append(construction_to_term(a))
    return _formed(cls, *parts)


def _read_quoted(t: Term) -> Term:
    # Agrees with reading ``expand_quasiquote`` of the quotation, without
    # encoding and decoding the syntax around the holes.  Not ``map_holes``:
    # each node is formed through ``_formed`` between the hole reads, so an
    # improper node is a verdict and an unreadable hole stays a refusal.
    if not t.has_hole:
        return t
    if isinstance(t, Hole):
        return construction_to_term(t.content)
    parts = [_read_quoted(p) if isinstance(p, Term) else p for p in t._parts]
    return _formed(type(t), *parts)


def is_proper(c: Term) -> bool:
    try:
        construction_to_term(c)
    except Improper:
        return False
    return True


# ---------------------------------------------------------------------------
# meta-level predicates (the semantics certified by trusted conversions)
# ---------------------------------------------------------------------------


def is_expr_type_meta(c: Term, tyc: Term) -> bool:
    """Does construction c denote a term of the type that tyc denotes?

    An improper construction denotes no term, so the answer is False; an
    argument that cannot be read is refused as in construction_to_term.
    """
    try:
        return construction_to_term(c).ty == type_from_construction(tyc)
    except Improper:
        return False


def is_free_in_meta(xc: Term, bc: Term) -> bool:
    """Is the variable denoted by xc free in the expression denoted by bc?

    The test is deliberately transparent to quotation on the target side: an
    occurrence of the variable anywhere inside a quoted body counts, because
    the quoted syntax can be disquoted later and the occurrence then becomes
    live.  A variable bound by a live abstraction does not count.
    """
    try:
        v = construction_to_term(xc)
    except Improper as e:
        raise NotAVariable(f"first argument denotes no variable: {e}") from e
    if not isinstance(v, Variable):
        raise NotAVariable("first argument must denote a variable")
    try:
        b = construction_to_term(bc)
    except Improper:
        return False
    return _occurs(v, b, True)


def _occurs(v: Variable, t: Term, live: bool) -> bool:
    # ``live`` is false under a live binder of v.  Inside a quotation every
    # occurrence counts, binder positions included.
    if isinstance(t, Quotation):
        return v in variables_in(t)
    if isinstance(t, Variable):
        return live and t == v
    if isinstance(t, Abstraction) and t.var == v:
        live = False
    for s in subterms(t):
        if _occurs(v, s, live):
            return True
    return False
