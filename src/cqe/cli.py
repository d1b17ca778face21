"""Command-line proof-script checker.

A script is a sequence of one-line commands::

    # comments run to end of line (outside backticks)
    constant weird : epsilon->bool
    axiom ax1 := `weird Q_ T _Q`
    define two := `SUC (SUC _0)`
    thm two_eq := (SYM two)
    thm step := (MP (INST `p:bool` `T` imp_something) other_thm)
    register_nei ax_saying_not_effective
    check step matches `T \\/ ~T`
    echo all done

Proof expressions are s-expressions ``(RULE arg ...)``.  Every upper-case
function of :mod:`cqe.kernel` and :mod:`cqe.logic` is a rule, and the
annotation of each parameter gives its argument: a backtick-quoted term
(``Term``), variable (``Variable``) or type (``HolType``), or a theorem name
or nested proof expression (``Theorem``).  ``INST`` and ``INST_TYPE`` take
alternating variable/replacement pairs before the final theorem.

``cqe check`` runs a script and fails on the first error, ``cqe repl`` is
the same loop hooked to stdin, and ``cqe export`` runs a script and writes
every theorem it defines — name, surface text, hypotheses, conclusion, and
the axiom/trusted provenance — in a stable, replayable form.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from . import kernel, logic, session
from .errors import CqeError, FrontendError, ScriptError, SubstitutionBlocked
from .frontend import (
    parse_term,
    parse_type,
    print_term,
    print_theorem,
    print_type,
    term_to_tree,
    tree_to_json,
    tree_to_sexp,
)
from .syntax import IDENT, TypeVariable, Variable, alpha_equivalent

# ---------------------------------------------------------------------------
# rule signatures: how to coerce proof-expression arguments
# ---------------------------------------------------------------------------

TERM, TYPE, VAR, THM = "term", "type", "variable", "theorem"

# a rule parameter's annotation -> the kind of argument a script passes
_KINDS = {"Term": TERM, "Variable": VAR, "Theorem": THM, "HolType": TYPE, "HolType | None": TYPE}


def _rule_sigs(*modules) -> dict:
    """name -> (callable, argument kinds, minimum arity) for every upper-case
    function defined in ``modules``, read from its annotations and defaults.
    ``INST`` and ``INST_TYPE`` take pairs, so ``_inst_call`` handles them."""
    sigs = {}
    for mod in modules:
        for name, fn in vars(mod).items():
            if not (
                name.isupper() and callable(fn) and name not in ("INST", "INST_TYPE")
                and getattr(fn, "__module__", None) == mod.__name__
            ):
                continue
            code = fn.__code__
            params = code.co_varnames[: code.co_argcount]
            kinds = [_KINDS.get(fn.__annotations__.get(p)) for p in params]
            if None in kinds:
                p = params[kinds.index(None)]
                raise TypeError(f"{name}: parameter {p!r} has no script argument kind")
            sigs[name] = (fn, kinds, len(params) - len(fn.__defaults__ or ()))
    return sigs


RULE_SIGS = _rule_sigs(kernel, logic)


# ---------------------------------------------------------------------------
# proof expressions
# ---------------------------------------------------------------------------

# a token and the blanks before it: a parenthesis, a backtick literal or a
# name, or else one character that starts none of them
_PTOKEN = re.compile(rf"\s*(?:([()]|`[^`]*`|{IDENT})|(\S))")


def _parse_proof(text: str, lineno: int):
    """The call tree of a proof expression ``text``, which starts with
    ``(``: a rule call is a tuple ``(rule, arg, ...)``, and a theorem name
    or a backtick literal is its token."""
    toks = _PTOKEN.findall(text)
    for _, bad in toks:
        if bad:
            raise ScriptError(f"bad character {bad!r} in proof expression", lineno)
    items = []  # the items of the innermost open call, or the whole expression
    outer = []  # the items of each enclosing open call, outermost first
    for tok, _ in toks:
        if not outer and items:
            raise ScriptError("trailing input after proof expression", lineno)
        if outer and not items and tok[0] in "()`":
            raise ScriptError("expected a rule name after '('", lineno)
        if tok == "(":
            outer.append(items)
            items = []
        elif tok == ")":
            call = tuple(items)
            items = outer.pop()
            items.append(call)
        else:
            items.append(tok)
    if outer:
        raise ScriptError("unclosed '(' in proof expression", lineno)
    return items[0]


def _parse_arg(parse, text: str, lineno: int):
    """``parse(text)``, or a ScriptError quoting at most 60 characters of it."""
    try:
        return parse(text)
    except FrontendError as e:
        shown = text if len(text) <= 60 else text[:57] + "..."
        raise ScriptError(f"in `{shown}`: {e}", lineno, cause=e) from e


def _eval_proof(call, lineno: int):
    rule, args = call[0], call[1:]
    if rule in ("INST", "INST_TYPE"):
        fn, vals = _inst_call(rule, args, lineno)
    else:
        entry = RULE_SIGS.get(rule)
        if entry is None:
            raise ScriptError(f"unknown rule {rule!r}", lineno)
        fn, kinds, least = entry
        if not (least <= len(args) <= len(kinds)):
            want = str(least) if least == len(kinds) else f"{least} to {len(kinds)}"
            raise ScriptError(f"{rule} takes {want} arguments, got {len(args)}", lineno)
        vals = [_coerce(rule, a, k, lineno) for a, k in zip(args, kinds)]
    try:
        return fn(*vals)
    except SubstitutionBlocked as e:
        raise ScriptError(_blocked_message(rule, e), lineno, cause=e) from e
    except CqeError as e:
        raise ScriptError(f"{rule}: {type(e).__name__}: {e}", lineno, cause=e) from e


def _inst_call(rule, args, lineno):
    """The kernel function and its arguments for an INST/INST_TYPE call."""
    if len(args) < 3 or len(args) % 2 == 0:
        raise ScriptError(
            f"{rule} takes variable/replacement pairs and then a theorem", lineno
        )
    th = _coerce(rule, args[-1], THM, lineno)
    pairs = []
    for vnode, tnode in zip(args[:-1:2], args[1:-1:2]):
        if rule == "INST":
            v = _coerce(rule, vnode, VAR, lineno)
            t = _coerce(rule, tnode, TERM, lineno)
        else:
            v = _coerce(rule, vnode, TYPE, lineno)
            if not isinstance(v, TypeVariable):
                raise ScriptError(
                    f"{rule}: expected a type variable, got {print_type(v)}", lineno
                )
            t = _coerce(rule, tnode, TYPE, lineno)
        pairs.append((v, t))
    return (kernel.INST if rule == "INST" else kernel.INST_TYPE), (pairs, th)


def _coerce(rule, node, kind, lineno):
    """The value of a call-tree ``node`` as an argument of ``kind`` to
    ``rule``; theorem names are looked up here and nowhere else."""
    literal = node[0] == "`"  # a call's first item is its rule name
    if kind != THM:
        if not literal:
            raise ScriptError(f"{rule}: expected a quoted {kind}", lineno)
        t = _parse_arg(parse_type if kind == TYPE else parse_term, node[1:-1], lineno)
        if kind == VAR and not isinstance(t, Variable):
            raise ScriptError(
                f"{rule}: expected a variable, got {print_term(t)}", lineno
            )
        return t
    if type(node) is tuple:
        return _eval_proof(node, lineno)
    if literal:
        raise ScriptError(f"{rule}: expected a theorem, got {node}", lineno)
    try:
        return logic.theorem(node)
    except CqeError as e:
        raise ScriptError(str(e), lineno, cause=e) from e


def _blocked_message(rule, e: SubstitutionBlocked) -> str:
    hint = "; register_nei an axiom or theorem saying so to proceed" if e.needed else ""
    return f"{rule}: {e}{hint}"


# ---------------------------------------------------------------------------
# script commands
# ---------------------------------------------------------------------------


def _unbound(name: str, lineno: int) -> str:
    """``name``, if it names no theorem yet: a declaration binds it once."""
    if name in session.current().theorems:
        raise ScriptError(f"theorem name already used: {name!r}", lineno)
    return name


def _strip_comment(line: str) -> str:
    if "#" not in line:
        return line
    in_tick = False
    for i, c in enumerate(line):
        if c == "`":
            in_tick = not in_tick
        elif c == "#" and not in_tick:
            return line[:i]
    return line


_CMD_RES = {
    "constant": re.compile(rf"constant\s+({IDENT})\s*:\s*([^:]+?)\s*$"),
    "axiom": re.compile(rf"axiom\s+({IDENT})\s*:=\s*`([^`]*)`\s*$"),
    "define": re.compile(rf"define\s+({IDENT})\s*:=\s*`([^`]*)`\s*$"),
    "register_nei": re.compile(rf"register_nei\s+({IDENT})\s*$"),
    "thm": re.compile(rf"thm\s+({IDENT})\s*:=\s*(\(.*)$"),
    "check": re.compile(rf"check\s+({IDENT})\s+matches\s+`([^`]*)`\s*$"),
}


def _want_color(stream) -> bool:
    if os.environ.get("CQE_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


class Runner:
    """Executes script commands against the current session."""

    def __init__(self, trace=False, quiet=False):
        self.trace = trace
        self.quiet = quiet
        self.color = _want_color(sys.stdout)
        self.defined = {}  # theorem name -> line of its thm command, in order
        self.steps = 0
        self.checks = 0

    def _paint(self, s, code):
        return f"\x1b[{code}m{s}\x1b[0m" if self.color else s

    def emit(self, s):
        print(s)

    def run_text(self, text: str):
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            self.command(line, lineno)

    def command(self, line: str, lineno: int):
        word = line.split(None, 1)[0]
        if word == "echo":
            if not self.quiet:
                self.emit(line[4:].strip())
            return
        rx = _CMD_RES.get(word)
        if rx is None:
            raise ScriptError(f"unknown command {word!r}", lineno)
        m = rx.match(line)
        if m is None:
            raise ScriptError(f"malformed {word} command", lineno)
        try:
            getattr(self, "_cmd_" + word)(m, lineno)
        except ScriptError:
            raise
        except CqeError as e:
            raise ScriptError(f"{type(e).__name__}: {e}", lineno, cause=e) from e
        except (RecursionError, MemoryError) as e:
            raise ScriptError("input is nested too deeply", lineno, cause=e) from e
        self.steps += 1

    # -- individual commands

    def _cmd_constant(self, m, lineno):
        name, tytext = m.group(1), m.group(2)
        ty = _parse_arg(parse_type, tytext, lineno)
        kernel.new_constant(name, ty)
        if self.trace:
            self.emit(f"constant {name} : {print_type(ty)}")

    def _cmd_axiom(self, m, lineno):
        name, text = m.group(1), m.group(2)
        th = kernel.new_axiom(name, _parse_arg(parse_term, text, lineno))
        if self.trace:
            self.emit(f"axiom {name} : {print_theorem(th)}")

    def _cmd_define(self, m, lineno):
        name, text = _unbound(m.group(1), lineno), m.group(2)
        th = kernel.new_basic_definition(name, _parse_arg(parse_term, text, lineno))
        session.current().theorems[name] = th
        if self.trace:
            self.emit(f"define {name} : {print_theorem(th)}")

    def _cmd_register_nei(self, m, lineno):
        name = m.group(1)
        kernel.register_not_effective(_coerce(None, name, THM, lineno))
        if self.trace:
            self.emit(f"register_nei {name}")

    def _cmd_thm(self, m, lineno):
        name, expr = _unbound(m.group(1), lineno), m.group(2)
        th = _eval_proof(_parse_proof(expr, lineno), lineno)
        session.current().theorems[name] = th
        self.defined[name] = lineno
        if self.trace:
            self.emit(f"{name} : {print_theorem(th)}")

    def _cmd_check(self, m, lineno):
        name, text = m.group(1), m.group(2)
        th = _coerce(None, name, THM, lineno)
        target = _parse_arg(parse_term, text, lineno)
        if th.hyps:
            raise ScriptError(
                f"check {name}: theorem still has hypotheses: {print_theorem(th)}",
                lineno,
            )
        if not alpha_equivalent(th.concl, target):
            raise ScriptError(
                f"check {name}: conclusion is {print_term(th.concl)}\n"
                f"  but the script expects {print_term(target)}",
                lineno,
            )
        self.checks += 1
        if not self.quiet:
            self.emit(f"check {name}: " + self._paint("ok", "32"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        # reported like a file that cannot be read: exit 2, no traceback
        raise OSError(f"{path}: not UTF-8 text: {e}") from None


def _cmd_check(args) -> int:
    text = _read(args.file)
    session.reset()
    runner = Runner(trace=args.trace)
    runner.run_text(text)
    runner.emit(
        runner._paint(f"ok: {runner.steps} commands, {runner.checks} checks", "32")
    )
    return 0


def _theorem_tree(name: str, th, trees: dict, texts: dict) -> tuple:
    """The export tree of a theorem.  ``trees`` is the export's node -> tree
    memo and ``texts`` this theorem's tree -> s-expression memo, which the
    hypotheses' sort key fills for the theorem's own s-expression."""
    hyp_trees = sorted(
        (term_to_tree(h, trees) for h in th.hyps), key=lambda t: tree_to_sexp(t, texts)
    )
    return (
        "theorem",
        name,
        ("text", print_theorem(th)),
        ("hyps",) + tuple(hyp_trees),
        ("concl", term_to_tree(th.concl, trees)),
        ("axioms",) + tuple(sorted(th.axioms)),
        ("trusted",) + tuple(sorted(th.trusted)),
    )


def _cmd_export(args) -> int:
    text = _read(args.file)
    session.reset()
    runner = Runner(quiet=True)
    runner.run_text(text)
    s = session.current()
    lines = []
    trees = {}  # each node's tree, built once per export
    for name in sorted(runner.defined):
        texts = {}  # keyed by id: every tree here is kept alive by ``trees``
        try:
            tree = _theorem_tree(name, s.theorems[name], trees, texts)
            lines.append(
                tree_to_sexp(tree, texts) if args.format == "sexp" else tree_to_json(tree)
            )
        except (RecursionError, MemoryError) as e:
            line = runner.defined[name]
            raise ScriptError("input is nested too deeply", line, cause=e) from e
    data = "\n".join(lines) + ("\n" if lines else "")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(data)
    print(f"wrote {len(lines)} theorems to {args.out}")
    return 0


def _cmd_repl(args) -> int:
    session.reset()
    runner = Runner(trace=True)
    runner.emit("cqe proof checker; :state :thms :quit")
    if args.load:
        try:
            runner.run_text(_read(args.load))
        except ScriptError as e:
            runner.emit(f"{args.load}:{e.line}: error: {e}")
    n = 0
    while True:
        sys.stdout.write("cqe> ")
        sys.stdout.flush()
        raw = sys.stdin.readline()
        if not raw:
            break
        line = _strip_comment(raw).strip()
        n += 1
        if not line:
            continue
        if line == ":quit":
            break
        if line == ":state":
            s = session.current()
            axioms = sum(th.axioms == {name} for name, th in s.theorems.items())
            runner.emit(
                f"{len(s.constants)} constants, {axioms} axioms, "
                f"{len(s.theorems)} theorems, {len(s.nei_registry)} registered"
            )
            continue
        if line == ":thms":
            for name in sorted(session.current().theorems):
                runner.emit(name)
            continue
        try:
            runner.command(line, n)
        except ScriptError as e:
            runner.emit(runner._paint(f"error: {e}", "31"))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it is the same on
    every call of ``main``."""
    ap = argparse.ArgumentParser(
        prog="cqe",
        description="Proof checker for a logic with quotation and evaluation.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="run a proof script")
    p_check.add_argument("file", help="script to run")
    p_check.add_argument(
        "--trace", action="store_true", help="print every theorem as it is proved"
    )

    p_repl = sub.add_parser("repl", help="interactive command loop")
    p_repl.add_argument("--load", metavar="FILE", help="script to run first")

    p_exp = sub.add_parser("export", help="run a script and export its theorems")
    p_exp.add_argument("file", help="script to run")
    p_exp.add_argument("--out", required=True, help="output path")
    p_exp.add_argument(
        "--format", choices=["sexp", "json-like"], default="sexp"
    )
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {"check": _cmd_check, "export": _cmd_export, "repl": _cmd_repl}[args.cmd]
    try:
        return handler(args)
    except ScriptError as e:
        target = getattr(args, "file", None) or getattr(args, "load", None) or "<input>"
        print(f"{target}:{e.line}: error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"cqe: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
