"""Seeded random term/type generators shared by the test modules.

Everything is driven by an explicit ``random.Random`` seed so failures
reproduce exactly.  Generation is type-directed: ask for a term of a type
and you get a well-formed term of that type, by construction.  Free and
bound variable names are drawn from a per-type prefix pool so a single
generated term never uses one name at two different types — the kernel
allows that, but substitution and printing tests are much easier to read
without it.
"""

from __future__ import annotations

import random

from cqe.constructions import (
    apply_terms,
    constructor_constant,
    name_literal,
    type_to_construction,
)
from cqe.errors import IllTyped
from cqe.kernel import (
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
    Term,
    TypeApplication,
    Variable,
    bool_ty,
    epsilon_ty,
    is_fun,
    mk_fun,
    num_ty,
)


def ind_ty() -> TypeApplication:
    return TypeApplication("ind", ())


def dest_fun(ty) -> tuple:
    if is_fun(ty):
        return ty.arguments
    raise IllTyped(f"not a function type: {ty!r}")


_BASES = (bool_ty, num_ty, ind_ty, epsilon_ty)


class TermGen:
    """Deterministic random terms of requested types.

    ``evals=True`` lets the generator place Evaluation nodes (outside
    quotations); ``holes=True`` lets quotation bodies contain holes.
    """

    def __init__(self, seed: int, evals: bool = False, holes: bool = False):
        self.rng = random.Random(seed)
        self.evals = evals
        self.holes = holes
        self._prefixes = {}

    # -- types ---------------------------------------------------------------

    def type(self, depth: int = 2):
        if depth <= 0 or self.rng.random() < 0.6:
            return self.rng.choice(_BASES)()
        return mk_fun(self.type(depth - 1), self.type(depth - 1))

    # -- variables -------------------------------------------------------------

    def _prefix(self, ty) -> str:
        key = repr(ty)
        if key not in self._prefixes:
            self._prefixes[key] = f"v{len(self._prefixes)}"
        return self._prefixes[key]

    def var(self, ty) -> Variable:
        return Variable(f"{self._prefix(ty)}_{self.rng.randrange(3)}", ty)

    # -- terms ----------------------------------------------------------------

    def term(self, ty=None, depth: int = 3) -> Term:
        if ty is None:
            ty = self.type()
        if depth <= 0:
            return self._leaf(ty)
        r = self.rng.random()
        if is_fun(ty) and r < 0.35:
            dom, cod = dest_fun(ty)
            return Abstraction(self.var(dom), self.term(cod, depth - 1))
        if ty == bool_ty() and r < 0.60:
            return self._boolean(depth)
        if ty == epsilon_ty() and r < 0.55:
            return self._construction(depth)
        if self.evals and r < 0.68:
            return Evaluation(self.term(epsilon_ty(), depth - 1), ty)
        if r < 0.85:
            aty = self.type(1)
            fn = self.term(mk_fun(aty, ty), depth - 1)
            return Application(fn, self.term(aty, depth - 1))
        return self._leaf(ty)

    def eval_free(self, ty=None, depth: int = 3) -> Term:
        saved = self.evals
        self.evals = False
        try:
            return self.term(ty, depth)
        finally:
            self.evals = saved

    def _leaf(self, ty) -> Term:
        r = self.rng.random()
        if ty == bool_ty() and r < 0.4:
            return Constant(self.rng.choice("TF"), bool_ty())
        if ty == num_ty() and r < 0.5:
            t: Term = Constant("_0", num_ty())
            suc = Constant("SUC", mk_fun(num_ty(), num_ty()))
            for _ in range(self.rng.randrange(3)):
                t = Application(suc, t)
            return t
        return self.var(ty)

    def _boolean(self, depth: int) -> Term:
        kind = self.rng.randrange(6)
        if kind == 0:
            return mk_conj(self.term(bool_ty(), depth - 1), self.term(bool_ty(), depth - 1))
        if kind == 1:
            return mk_disj(self.term(bool_ty(), depth - 1), self.term(bool_ty(), depth - 1))
        if kind == 2:
            return mk_imp(self.term(bool_ty(), depth - 1), self.term(bool_ty(), depth - 1))
        if kind == 3:
            return mk_neg(self.term(bool_ty(), depth - 1))
        if kind == 4:
            ty = self.type(1)
            return mk_eq(self.term(ty, depth - 1), self.term(ty, depth - 1))
        binder = mk_forall if self.rng.random() < 0.5 else mk_exists
        return binder(self.var(self.type(1)), self.term(bool_ty(), depth - 1))

    def _construction(self, depth: int) -> Term:
        kind = self.rng.randrange(6)
        if kind == 0:
            body = self.quoted_body(self.type(1), depth - 1) if self.holes else None
            if body is not None:
                return Quotation(body)
            return Quotation(self.eval_free(self.type(1), depth - 1))
        if kind == 1:
            return apply_terms(
                constructor_constant("QuoVar"),
                [name_literal(self.rng.choice("abc")), type_to_construction(self.type(1))],
            )
        if kind == 2:
            return apply_terms(
                constructor_constant("QuoConst"),
                [
                    name_literal(self.rng.choice(("T", "F", "SUC"))),
                    type_to_construction(self.type(1)),
                ],
            )
        if kind == 3:
            return apply_terms(
                constructor_constant("App"),
                [self.term(epsilon_ty(), depth - 1), self.term(epsilon_ty(), depth - 1)],
            )
        if kind == 4:
            return apply_terms(
                constructor_constant("Quo"), [self.term(epsilon_ty(), depth - 1)]
            )
        return self._leaf(epsilon_ty())

    def quoted_body(self, ty, depth: int) -> Term | None:
        """A term of type ty that may contain holes (for quotation bodies)."""
        if depth <= 0:
            return None
        if self.rng.random() < 0.45:
            return Hole(self.term(epsilon_ty(), depth - 1), ty)
        if is_fun(ty) and self.rng.random() < 0.4:
            dom, cod = dest_fun(ty)
            inner = self.quoted_body(cod, depth - 1)
            if inner is not None:
                return Abstraction(self.var(dom), inner)
        if self.rng.random() < 0.5:
            aty = self.type(1)
            fn = self.quoted_body(mk_fun(aty, ty), depth - 1)
            arg = self.eval_free(aty, depth - 1)
            if fn is not None:
                return Application(fn, arg)
        return self.eval_free(ty, depth - 1)


def distinct_terms(gen: TermGen, count: int, **kw) -> list:
    """``count`` pairwise-distinct eval-free terms."""
    seen = {}
    budget = count * 60
    while len(seen) < count and budget:
        budget -= 1
        t = gen.eval_free(**kw)
        seen.setdefault(t, t)
    if len(seen) < count:
        raise RuntimeError(f"generator too repetitive: {len(seen)}/{count}")
    return list(seen.values())


class TextGen:
    """Seeded reader texts, mostly well typed, for the read memo.

    Unlike ``TermGen`` it writes text, and it reuses one name at several
    types on purpose: ``x`` names a ``bool``, a ``num`` and an ``epsilon``.
    Binders and free names come annotated or not, ``=`` at three types,
    with quotations, holes, evaluations and numerals.  Some groups are
    closed: their leaves are constants or names bound inside them.  Each
    group it writes, and each whole text, may join a pool, which later
    texts restate as groups, under other binders, or as a whole text, so
    that the memo is exercised.
    """

    VARS = {"bool": ("p", "q", "x"), "num": ("n", "m", "x"), "eps": ("e", "c", "x")}
    TYPES = {"bool": "bool", "num": "num", "eps": "epsilon"}
    ATOMS = {
        "bool": ("T", "F", "(f:(num->bool) n)", "(f n)", "((=) T)"),
        "num": ("_0", "1", "2", "(SUC _0)", "(g:(bool->num) p)"),
        "eps": ('(QuoVar "n" (TyBase "num"))', "Q_ n:num _Q", "Q_ T _Q"),
    }
    CLOSED_ATOMS = {
        "bool": ("T", "F", "((=) T)"),
        "num": ("_0", "1", "(SUC _0)"),
        "eps": ('(QuoVar "n" (TyBase "num"))', "Q_ T _Q"),
    }

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.pool: list = []  # (type, text inside the parentheses)
        self.bound: list = []  # (name, type) of the binders written, innermost last
        self.closed = False  # whether the group being written is closed

    def var(self, ty: str) -> str:
        r = self.rng
        name = r.choice(self.VARS[ty])
        if r.random() < 0.4:  # an annotation, now and then a wrong one
            return name + ":" + (self.TYPES[ty] if r.random() < 0.93 else r.choice(["num", "bool"]))
        return name

    def leaf(self, ty: str) -> str:
        r = self.rng
        if self.closed:
            return r.choice([n for n, t in self.bound if t == ty] + list(self.CLOSED_ATOMS[ty]))
        return self.var(ty) if r.random() < 0.5 else r.choice(self.ATOMS[ty])

    def form(self, ty: str, depth: int, quoted: bool = False) -> str:
        r = self.rng
        if depth <= 0 or r.random() < 0.15:
            return self.leaf(ty)
        c = r.random()
        if c < 0.15 and quoted and ty != "eps":
            return f"H_ {self.group('eps', depth - 1, False)} _H:{self.TYPES[ty]}"
        if c < 0.25 and not quoted:
            return f"eval {self.group('eps', depth - 1, quoted)} to {self.TYPES[ty]}"
        if ty == "eps":
            return f"Q_ {self.form(r.choice(['bool', 'num']), depth - 1, True)} _Q"
        if ty == "num":
            if c < 0.5:
                return "SUC " + self.group("num", depth - 1, quoted)
            if c < 0.7:
                a, b = self.group("num", depth - 1, quoted), self.group("num", depth - 1, quoted)
                return f"(+) {a} {b}"
            body, arg = self.form("num", depth - 1, quoted), self.group("num", depth - 1, quoted)
            return f"(\\{self.var('num')}. {body}) {arg}"
        if c < 0.45:
            side = r.choice(["num", "bool", "eps"])
            a, b = self.group(side, depth - 1, quoted), self.group(side, depth - 1, quoted)
            return f"{a} = {b}"
        if c < 0.6:
            a, b = self.group("bool", depth - 1, quoted), self.group("bool", depth - 1, quoted)
            return " ".join([a, r.choice(["/\\", "\\/", "==>"]), b])
        if c < 0.65:
            return "~" + self.group("bool", depth - 1, quoted)
        binder = r.choice(["!", "?", "\\"]) if ty == "bool" else "!"
        vty = r.choice(["num", "bool"])
        v = self.var(vty)
        self.bound.append((v.split(":")[0], vty))
        body = self.form("bool", depth - 1, quoted)
        self.bound.pop()
        return f"{binder}{v}. {body}"

    def group(self, ty: str, depth: int, quoted: bool) -> str:
        r = self.rng
        same = [text for t, text in self.pool if t == ty]
        if same and r.random() < 0.35:
            return "(" + r.choice(same) + ")"
        outer = self.closed, self.bound
        closing = not self.closed and r.random() < 0.2  # a closed group, always pooled
        if closing:
            self.closed, self.bound = True, []
        inner = self.form(ty, depth, quoted)
        self.closed, self.bound = outer
        if closing or r.random() < 0.3:
            self.pool = self.pool[-39:] + [(ty, inner)]
        return "(" + inner + ")"

    def text(self) -> str:
        """A whole text: new, a pooled one, or now and then one with a stray
        token, a syntax error.  A new text may join the pool."""
        r = self.rng
        if self.pool and r.random() < 0.15:
            text = r.choice(self.pool)[1]
        else:
            ty = r.choice(["bool", "bool", "num", "eps"])
            text = self.form(ty, r.randint(1, 5))
            if r.random() < 0.3:
                self.pool = self.pool[-39:] + [(ty, text)]
        if r.random() < 0.05:
            words = text.split(" ")
            words.insert(r.randrange(len(words)), r.choice(["=", ")", "(", ".", "to", "_Q"]))
            text = " ".join(words)
        return text
