"""Mutable proof-session state: signature and named theorems.

A session owns the type-constructor arity table, the constant signature, the
one table of named theorems (the bootstrap's, and each axiom, script
definition and ``thm``, bound once under its name), the support theorems the
derived rules instantiate, the registry of proved not-effective facts
that the substitution discipline consults, the intern tables of the
types and terms formed while it is active (see ``syntax``), and the
reader's memo of the terms it has read (see ``frontend.parse_term``).
Each session has its own ``serial``, stamped on every node formed and every
theorem derived while it is active; ``syntax._formed_in`` compares stamps.

The initial session is built once per process (the bootstrap installs the
syntax-reflection constants, the logical connectives and their support
theorems, the datatype facts, and the arithmetic signature) and then cloned,
so ``reset()`` is cheap and tests are isolated.  A clone starts with the
template's intern tables, so a node formed by the bootstrap is one object in
every session.  ``terms`` holds one table per node class, keyed by the
node's parts; ``copy()`` copies each, so a session never writes into the
template's.  ``reset()`` is the only caller of ``copy()``, so a session's
tables hold exactly the nodes stamped with its own serial or the template's.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

_BASE_ARITIES = {
    "bool": 0,
    "ind": 0,
    "epsilon": 0,
    "type": 0,
    "num": 0,
    "fun": 2,
}

_serials = itertools.count()


class Session:
    def __init__(self):
        self.type_arities = {}
        self.constants = {}
        # name -> theorem, bound once: the one table logic.theorem reads
        self.theorems = {}
        self.basis = {}
        self.nei_registry = {}
        # the intern tables of syntax: node class -> parts -> the one term
        # formed, and structure key -> the one type formed
        self.terms = defaultdict(dict)
        self.types = {}
        # the reader's memo (see frontend.parse_term): (text,
        # len(constants), len(type_arities)) -> (term, names), where names
        # lists each free variable of the text with its type; a closed
        # group's inside is kept there too, with no names, even when the
        # text around it is refused
        self.reads = {}
        self.serial = next(_serials)

    def copy(self) -> "Session":
        """A new session, with its own serial, starting from these tables."""
        s = Session()
        vars(s).update({name: dict(t) for name, t in vars(self).items() if name != "serial"})
        s.terms = defaultdict(dict, {cls: dict(t) for cls, t in self.terms.items()})
        return s


_current = None
_template = None
# the template's serial once it is built; syntax compares node serials with it
template_serial = None


def current() -> Session:
    """The active session; a fresh bootstrap clone on first use."""
    if _current is None:
        reset()
    return _current


def reset() -> Session:
    """Discard the active session and start from a fresh bootstrap clone."""
    global _current
    _current = _build_template().copy()
    return _current


def _build_template() -> Session:
    global _template, _current, template_serial
    if _template is None:
        s = Session()
        s.type_arities.update(_BASE_ARITIES)
        prev = _current
        # Make the in-progress session visible so the bootstrap's own term
        # formation validates against, and interns into, the growing template.
        _current = s
        try:
            _populate(s)
            _template = s
            template_serial = s.serial
        finally:
            _current = prev
    return _template


def _populate(s: Session) -> None:
    from . import constructions, logic
    from .syntax import TypeVariable, bool_ty, mk_fun

    a = TypeVariable("'A")
    s.constants["="] = mk_fun(a, mk_fun(a, bool_ty()))

    constructions.install(s)
    logic.bootstrap_logic(s)
    logic.install_datatype_facts()
    logic.arithmetic_base()
    logic.define_arith_predicates()
