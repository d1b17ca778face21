"""Seeded proof-script generators with known-answer verdicts.

Every generator returns ``Case`` objects: the script text plus the verdict
the checker must reach.  Expected verdicts are written from the way each
script is constructed (which conjuncts, which instantiations, which line was
mutated), never by running the checker.

A verdict is either

* ``accept``: exit code 0, each ``check`` command reported ok in order, and
  the closing ``ok: N commands, M checks`` line with the expected counts; or
* ``reject``: exit code 1 with ``file:L: error: ...`` on stderr, where L is
  the expected line and the message falls in the expected error class.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass

# A run cycles over its workload's corpus.  Sizes, verdict kinds and their
# pairing are fixed per corpus slot and the seed draws each script's
# contents, so the latency distribution, whose median and 90th percentile
# are the end-to-end metrics, does not drift with the seed.  About one
# script in five is rejected by design.
CORPUS_SIZE = 30


@dataclass(frozen=True)
class Case:
    name: str
    text: str
    reject: tuple | None  # (line, error class) or None when accepted
    checks: tuple = ()  # names of the check commands, in order
    commands: int = 0  # commands the runner counts (all but echo)
    theorems: frozenset = frozenset()  # names the thm commands define
    export: bool = False  # also export as sexp and json-like and read back


def _strip_comment(line: str) -> str:
    # '#' starts a comment only outside backtick-quoted terms
    ticks = 0
    for i, c in enumerate(line):
        if c == "`":
            ticks += 1
        elif c == "#" and ticks % 2 == 0:
            return line[:i]
    return line


def _counts(text: str):
    """Commands, check names and theorem names of a script, as ``cqe
    check`` counts them."""
    commands, checks, theorems = 0, [], set()
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line or line.split()[0] == "echo":
            continue
        commands += 1
        m = re.match(r"(check|thm)\s+([A-Za-z_][A-Za-z0-9_']*)", line)
        if m and m.group(1) == "check":
            checks.append(m.group(2))
        elif m:
            theorems.add(m.group(2))
    return commands, tuple(checks), frozenset(theorems)


def _line_of(text: str, prefix: str) -> int:
    for i, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith(prefix):
            return i
    raise ValueError(f"no line starts with {prefix!r}")


def accepted(name, text, export=False) -> Case:
    commands, checks, theorems = _counts(text)
    return Case(name, text, None, checks, commands, theorems, export)


def rejected(name, text, line, kind) -> Case:
    return Case(name, text, (line, kind))


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"mutation anchor {old!r} is not unique in the script")
    return text.replace(old, new)


def _drop_line(text: str, prefix: str) -> str:
    lines = text.splitlines(keepends=True)
    i = _line_of(text, prefix) - 1
    return "".join(lines[:i] + lines[i + 1 :])


# ---------------------------------------------------------------------------
# shipped: the four scripts in src/cqe/scripts and hand-mutated variants
# ---------------------------------------------------------------------------

SHIPPED = ("lem.cqe", "lem_instance.cqe", "peano.cqe", "presburger.cqe")


def _shipped_mutants(src: dict) -> list:
    out = []

    t = _replace_once(
        src["lem.cqe"], "==> ((eval x to bool) \\/ ~", "==> ((eval x to bool) /\\ ~"
    )
    out.append(rejected("lem/wrong_target", t, _line_of(t, "check lem "), "CheckMismatch"))

    for script, thm in (("peano.cqe", "peano_body"), ("presburger.cqe", "pres_body")):
        t = _drop_line(src[script], "register_nei ")
        out.append(
            rejected(
                script[:-4] + "/no_register_nei",
                t,
                _line_of(t, f"thm {thm} "),
                "SubstitutionBlocked",
            )
        )

    t = _replace_once(
        src["lem_instance.cqe"],
        'thm iet := (IS_EXPR_TYPE_CONV `Q_ T \\/ F _Q` `TyBase "bool"`)',
        'thm iet := (IS_EXPR_TYPE_CONV `Q_ T \\/ F _Q` `TyBase "num"`)',
    )
    out.append(rejected("lem_instance/wrong_type", t, _line_of(t, "thm step1 "), "WrongShape"))

    t = _replace_once(
        src["lem_instance.cqe"],
        "matches `(T \\/ F) \\/ ~(T \\/ F)`",
        "matches `(T \\/ F) \\/ ~(F \\/ T)`",
    )
    out.append(
        rejected("lem_instance/wrong_target", t, _line_of(t, "check lem_inst "), "CheckMismatch")
    )

    t = _replace_once(src["peano.cqe"], "/\\ isPeano f ==>", "/\\ isPresburger f ==>")
    out.append(rejected("peano/wrong_target", t, _line_of(t, "check peano "), "CheckMismatch"))
    return out


# Copies of each shipped script per pass.  The checks take about 12 ms
# (lem), 27 ms (peano, presburger) and 39 ms (lem_instance) with export and
# read-back, the mutants under 8 ms.  These weights centre the median in the
# peano/presburger cluster instead of on the edge between two clusters,
# where run-to-run noise would move it from one cluster to the other.
SHIPPED_COPIES = {"lem.cqe": 3, "lem_instance.cqe": 9, "peano.cqe": 6, "presburger.cqe": 6}


def shipped(seed: int, script_dir: str) -> list:
    """The shipped scripts, SHIPPED_COPIES times each, and each of the six
    mutants once, in seeded order."""
    src = {}
    for name in SHIPPED:
        with open(os.path.join(script_dir, name), encoding="utf-8") as fh:
            src[name] = fh.read()
    cases = []
    for name in SHIPPED:
        cases += [accepted(name[:-4], src[name], export=True)] * SHIPPED_COPIES[name]
    cases += _shipped_mutants(src)
    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# binder_chain: INST under n binders, an n-step SPEC chain, DISCH, GEN
# ---------------------------------------------------------------------------

_EVAL = "eval e:epsilon to bool"


def _bc_atom(kind, a, b, env):
    a, b = env.get(a, a), env.get(b, b)
    c = env.get("c", "c:num")
    if kind == 0:
        return f"{a} = {b}"
    if kind == 1:
        return f"(+) {a} {c} = {b}"
    return f"SUC {a} = (+) {b} {c}"


def binder_chain_script(rng, n, with_eval, spec=True, fault=None, width=None):
    """One binder_chain script and its verdict.

    ``fault`` selects a rejected variant: ``mismatch`` (wrong check target),
    ``hyps`` (DISCH of a term that is not the hypothesis, so GEN finds its
    variable free in a hypothesis), ``shape`` (one SPEC too many) or
    ``blocked`` (an eval variant missing one register_nei).
    """
    label = f"binder_chain/n{n}" + ("/eval" if with_eval else "")
    xs = [f"x{i}" for i in range(1, n + 1)]
    width = n + 2 if width is None else width
    atoms = [(rng.randrange(3), rng.choice(xs), rng.choice(xs)) for _ in range(width)]
    ts = []
    for i in range(1, n + 1):
        r = rng.randrange(3)
        ts.append(("_0", f"(SUC y{i}:num)", f"((+) y{i}:num _0)")[r])

    def body(env, p):
        parts = [_bc_atom(k, a, b, env) for k, a, b in atoms]
        if with_eval:
            parts.append(p)
        return " /\\ ".join(f"({s})" for s in parts)

    quant = "".join(f"!{x}:num. " for x in xs)
    lines = []
    skip = rng.choice(xs) if fault == "blocked" else None
    if with_eval:
        for x in xs:
            lines.append(
                f"axiom nei_{x} := `~(?y:num. ~((\\{x}:num. {_EVAL}) y = {_EVAL}))`"
            )
            if x != skip:
                lines.append(f"register_nei nei_{x}")
    lines.append(f"thm h0 := (ASSUME `{quant}{body({}, 'p:bool')}`)")
    inst_eval = f"`p:bool` `{_EVAL}` " if with_eval else ""
    lines.append(f"thm h1 := (INST `c:num` `SUC k:num` {inst_eval}h0)")
    inst_line = len(lines)
    env1 = {"c": "(SUC k:num)"}
    hyp = quant + body(env1, f"({_EVAL})")
    last = "h1"
    if spec:
        for i, t in enumerate(ts, start=1):
            lines.append(f"thm s{i} := (SPEC `{t}` {last})")
            last = f"s{i}"
        if fault == "shape":
            lines.append(f"thm s{n + 1} := (SPEC `_0` {last})")
            text = "\n".join(lines) + "\n"
            return rejected(label + "/extra_spec", text, len(lines), "WrongShape")
        env2 = dict(env1)
        env2.update(zip(xs, ts))
        # SPEC of x1 suspends its substitution into the evaluation as a
        # redex; the registered facts keep every later binder out of it.
        concl = body(env2, f"((\\x1:num. {_EVAL}) {ts[0]})")
    else:
        concl = hyp
    # the "hyps" variant discharges a term that is not the hypothesis, so
    # k stays free in a hypothesis and GEN must refuse
    dis = f"({hyp}) /\\ T" if fault == "hyps" else hyp
    lines.append(f"thm d := (DISCH `{dis}` {last})")
    lines.append("thm g := (GEN `k:num` d)")
    gen_line = len(lines)
    target = f"!k:num. ({hyp}) ==> ({concl})"
    if fault == "mismatch":
        bad = dict(env2)
        bad["c"] = "(SUC (SUC k:num))"
        target = f"!k:num. ({hyp}) ==> ({body(bad, '(T)')})"
    lines.append(f"check g matches `{target}`")
    text = "\n".join(lines) + "\n"
    if fault == "blocked":
        return rejected(label + "/blocked", text, inst_line, "SubstitutionBlocked")
    if fault == "hyps":
        return rejected(label + "/wrong_disch", text, gen_line, "FreeOccurrence")
    if fault == "mismatch":
        return rejected(label + "/wrong_target", text, len(lines), "CheckMismatch")
    return accepted(label, text)


BINDER_MIN, BINDER_MAX = 6, 30
# corpus slot -> rejected variant; slots are in increasing depth
BINDER_FAULTS = {2: "blocked", 7: "mismatch", 12: "hyps", 17: "shape", 22: "mismatch", 27: "hyps"}


def binder_chain(seed: int) -> list:
    """Depths spread evenly over BINDER_MIN..BINDER_MAX; every third slot
    (and the blocked variant) instantiates p with an evaluation."""
    rng = random.Random(seed)
    k = CORPUS_SIZE
    cases = []
    for i in range(k):
        n = BINDER_MIN + round((BINDER_MAX - BINDER_MIN) * i / (k - 1))
        fault = BINDER_FAULTS.get(i)
        with_eval = i % 3 == 1 or fault == "blocked"
        cases.append(binder_chain_script(rng, n, with_eval, fault=fault))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# quote_compute: decision conversions and quotation laws on seeded formulas
# ---------------------------------------------------------------------------

_B, _N = '(TyBase "bool")', '(TyBase "num")'


def _fun(a, b):
    return f'(TyBiCons "fun" {a} {b})'


_CONST_TY = {
    "_0": _N,
    "SUC": _fun(_N, _N),
    "+": _fun(_N, _fun(_N, _N)),
    "*": _fun(_N, _fun(_N, _N)),
    "<=": _fun(_N, _fun(_N, _B)),
    "=": _fun(_N, _fun(_N, _B)),
    "/\\": _fun(_B, _fun(_B, _B)),
    "\\/": _fun(_B, _fun(_B, _B)),
    "==>": _fun(_B, _fun(_B, _B)),
    "~": _fun(_B, _B),
    "!": _fun(_fun(_N, _B), _B),
    "?": _fun(_fun(_N, _B), _B),
}
_BINOP = {"add": "+", "mul": "*", "le": "<=", "eq": "=", "and": "/\\", "or": "\\/", "imp": "==>"}
_QUANT = {"all": "!", "ex": "?"}


def _render(t, bound=frozenset()):
    """Surface syntax; variables not bound in scope carry ``:num``."""
    op = t[0]
    if op == "var":
        return t[1] if t[1] in bound else f"{t[1]}:num"
    if op == "zero":
        return "_0"
    if op == "suc":
        return f"SUC ({_render(t[1], bound)})"
    if op in ("add", "mul", "le"):
        return f"({_BINOP[op]}) ({_render(t[1], bound)}) ({_render(t[2], bound)})"
    if op in ("eq", "and", "or", "imp"):
        return f"({_render(t[1], bound)}) {_BINOP[op]} ({_render(t[2], bound)})"
    if op == "not":
        return f"~({_render(t[1], bound)})"
    if op in ("all", "ex"):
        return f"({_QUANT[op]}{t[1]}:num. {_render(t[2], bound | {t[1]})})"
    if op == "lam":
        return f"\\{t[1]}:num. {_render(t[2], bound | {t[1]})}"
    raise ValueError(op)


def _qconst(name):
    return f'(QuoConst "{name}" {_CONST_TY[name]})'


def _app(f, *args):
    for a in args:
        f = f"(App {f} {a})"
    return f


def _encode(t):
    """The construction denoting ``t``, in the checker's constructor syntax."""
    op = t[0]
    if op == "var":
        return f'(QuoVar "{t[1]}" {_N})'
    if op == "zero":
        return _qconst("_0")
    if op == "suc":
        return _app(_qconst("SUC"), _encode(t[1]))
    if op in _BINOP:
        return _app(_qconst(_BINOP[op]), _encode(t[1]), _encode(t[2]))
    if op == "not":
        return _app(_qconst("~"), _encode(t[1]))
    if op in _QUANT:
        return _app(_qconst(_QUANT[op]), _encode(("lam", t[1], t[2])))
    if op == "lam":
        return f"(Abs {_encode(('var', t[1]))} {_encode(t[2])})"
    raise ValueError(op)


def _ops(t):
    if not isinstance(t, tuple):
        return set()
    out = {t[0]}
    for a in t[1:]:
        out |= _ops(a)
    return out


def _frees(t):
    op = t[0]
    if op == "var":
        return {t[1]}
    if op in ("all", "ex", "lam"):
        return _frees(t[2]) - {t[1]}
    out = set()
    for a in t[1:]:
        if isinstance(a, tuple):
            out |= _frees(a)
    return out


class _Formulas:
    """Random formulas with an exact number of AST nodes."""

    def __init__(self, rng, allow_mul=True):
        self.rng = rng
        self.allow_mul = allow_mul

    def num(self, size, scope):
        if size == 1:
            return ("var", self.rng.choice(scope)) if scope and self.rng.random() < 0.7 else ("zero",)
        if size == 2 or self.rng.random() < 0.3:
            return ("suc", self.num(size - 1, scope))
        op = "mul" if self.allow_mul and self.rng.random() < 0.3 else "add"
        a = self.rng.randint(1, size - 2)
        return (op, self.num(a, scope), self.num(size - 1 - a, scope))

    def formula(self, size, scope):
        r = self.rng.random()
        if size < 7 or r < 0.15:
            a = self.rng.randint(1, size - 2)
            return ("eq", self.num(a, scope), self.num(size - 1 - a, scope))
        if r < 0.3:
            return ("not", self.formula(size - 1, scope))
        if r < 0.5:
            v = f"m{len(scope)}"
            return (self.rng.choice(("all", "ex")), v, self.formula(size - 1, scope + [v]))
        a = self.rng.randint(3, size - 4)
        op = self.rng.choice(("and", "or", "imp"))
        return (op, self.formula(a, scope), self.formula(size - 1 - a, scope))


def _predicate(rng, size, kind):
    """A ``\\n:num. ...`` predicate with a body of ``size`` nodes.

    ``kind`` is ``presburger`` (no ``*``), ``peano`` (has ``*``) or
    ``neither`` (uses ``<=``, which no arithmetic class admits).
    """
    if kind == "neither":
        le = ("le", ("var", "n"), ("suc", ("zero",)))
        return ("lam", "n", ("and", _Formulas(rng).formula(size - 5, ["n"]), le))
    f = _Formulas(rng, allow_mul=kind == "peano")
    while True:
        body = f.formula(size, ["n"])
        if kind == "presburger" or "mul" in _ops(body):
            return ("lam", "n", body)


def quote_compute_script(rng, size, kind, fault=False):
    pred = _predicate(rng, size, kind)
    q = f"Q_ {_render(pred)} _Q"
    body = pred[2]
    qb = f"Q_ {_render(body)} _Q"
    fn_ty = _fun(_N, _B)
    lines = []

    def claim(name, rule, holds, stmt):
        lines.append(f"thm {name} := {rule}")
        lines.append(f"check {name} matches `{stmt if holds else '~' + stmt}`")

    claim("pe", f"(IS_PEANO_CONV `{q}`)", kind != "neither", f"isPeano ({q})")
    claim("pr", f"(IS_PRESBURGER_CONV `{q}`)", kind == "presburger", f"isPresburger ({q})")
    wrong = rng.random() < 0.5
    ty = _B if wrong else fn_ty
    claim("et", f"(IS_EXPR_TYPE_CONV `{q}` `{ty}`)", not wrong, f"isExprType ({q}) {ty}")
    v = rng.choice(["n", "m0", "m1", "k"])
    claim(
        "fi",
        f"(IS_FREE_IN_CONV `Q_ {v}:num _Q` `{qb}`)",
        v in _frees(body),
        f"isFreeIn (Q_ {v}:num _Q) ({qb})",
    )
    claim("lq", f"(LAW_OF_QUO `{q}`)", True, f"{q} = {_encode(pred)}")
    claim("qs", f"(QUO_STEP `{q}`)", True, f"{q} = Abs (Q_ n:num _Q) ({qb})")

    bt = _render(_Formulas(rng).formula(max(3, size // 2), []))
    claim("ev", f"(EVAL_CONV `eval Q_ {bt} _Q to bool`)", True, f"eval Q_ {bt} _Q to bool = ({bt})")
    # the lem_instance pattern: excluded middle instantiated at Q_ b _Q
    lines += [
        "thm l0 := (INST `p:bool` `eval x:epsilon to bool` EXCLUDED_MIDDLE)",
        'thm l1 := (DISCH `isExprType x:epsilon (TyBase "bool")` l0)',
        "thm l2 := (GEN `x:epsilon` l1)",
        f"thm i0 := (SPEC `Q_ {bt} _Q` l2)",
        f'thm i1 := (MP i0 (IS_EXPR_TYPE_CONV `Q_ {bt} _Q` `TyBase "bool"`))',
        f"thm r0 := (BETA_REVAL `x:epsilon` `x:epsilon` `Q_ {bt} _Q` `bool`)",
        f'thm r1 := (IS_EXPR_TYPE_CONV `(\\x:epsilon. x) Q_ {bt} _Q` `TyBase "bool"`)',
        f"thm r2 := (IS_FREE_IN_CONV `Q_ x:epsilon _Q` `Q_ (\\x:epsilon. x) Q_ {bt} _Q _Q`)",
        f"thm r3 := (TRANS (MP r0 (CONJ r1 r2)) (EVAL_CONV `eval ((\\x:epsilon. x) Q_ {bt} _Q) to bool`))",
        "thm li := (SUBS r3 i1)",
    ]
    lines.append(f"check li matches `({bt}) \\/ ~({bt})`")
    if fault:
        lines[-1] = f"check li matches `({bt}) /\\ ~({bt})`"
    text = "\n".join(lines) + "\n"
    label = f"quote_compute/s{size}/{kind}"
    if fault:
        return rejected(label + "/wrong_target", text, len(lines), "CheckMismatch")
    return accepted(label, text)


QUOTE_MIN, QUOTE_MAX = 8, 40  # AST nodes in a predicate's body


def quote_compute(seed: int) -> list:
    """Body sizes spread evenly over QUOTE_MIN..QUOTE_MAX; the predicate
    classes rotate with the slot and every fifth slot is a wrong target."""
    rng = random.Random(seed)
    k = CORPUS_SIZE
    cases = []
    for i in range(k):
        size = QUOTE_MIN + round((QUOTE_MAX - QUOTE_MIN) * i / (k - 1))
        kind = ("presburger", "peano", "neither")[i % 3]
        cases.append(quote_compute_script(rng, size, kind, fault=i % 5 == 2))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# capacity probes: one accepted script per size, sizes doubling
# ---------------------------------------------------------------------------


def probe_binders(n: int) -> Case:
    # a two-atom body, so that depth comes from the binders alone
    return binder_chain_script(random.Random(n), n, False, spec=False, width=2)


def probe_conjuncts(n: int) -> Case:
    conj = " /\\ ".join(f"(v{i}:num = v{i})" for i in range(n))
    text = f"thm r := (REFL `{conj}`)\ncheck r matches `({conj}) = ({conj})`\n"
    return accepted(f"probe/conjuncts{n}", text)


def probe_parens(n: int) -> Case:
    text = f"thm r := (REFL `{'(' * n}T{')' * n}`)\ncheck r matches `T = T`\n"
    return accepted(f"probe/parens{n}", text)


PROBES = {
    "kernel.max_ok_binders": (probe_binders, 25, 1600),
    "frontend.max_ok_conjuncts": (probe_conjuncts, 125, 16000),
    "frontend.max_ok_parens": (probe_parens, 25, 12800),
}


SIZES = {
    "shipped": "30 scripts a pass: lem x3, lem_instance x9, peano x6, presburger x6, 6 mutants",
    "binder_chain": f"30 scripts a pass: binder depth {BINDER_MIN}..{BINDER_MAX}, width depth+2",
    "quote_compute": f"30 scripts a pass: predicate body {QUOTE_MIN}..{QUOTE_MAX} nodes",
}


def corpus(workload: str, seed: int, script_dir: str) -> list:
    if workload == "shipped":
        return shipped(seed, script_dir)
    if workload == "binder_chain":
        return binder_chain(seed)
    if workload == "quote_compute":
        return quote_compute(seed)
    raise ValueError(f"unknown workload {workload!r}")
