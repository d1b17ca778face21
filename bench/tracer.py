"""Per-layer tracing of the cqe checker from outside its source tree.

``Tracer.install`` wraps the entry points of each cqe module (the names
other modules import from it) at every namespace that binds them: module
globals, ``cli.RULE_SIGS`` and the benchmark's own read-back table.  A
function that recurses through its own global name is not rebound in its
defining module, so only calls into the layer are spans, not its internal
recursion.  Node formation is timed and counted by wrapping the node
classes' ``__post_init__``; it is not recorded as spans, because there are
hundreds of thousands, but its time is taken out of the enclosing span's
self time.

Spans (name, start, end, self time, parent, script id) are kept in arrays
in memory and written out when the run ends.  A span's self time is its
duration minus the time of its child spans and of node formation inside it.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys
import time
from array import array

import workloads

# per-layer metric -> unit, in the order of BENCHMARK.json
METRIC_UNITS = {
    "syntax.frees.calls": "count",
    "syntax.frees.self_ms": "ms",
    "syntax.alpha.calls": "count",
    "syntax.alpha.self_ms": "ms",
    "syntax.nodes_built": "count",
    "syntax.nodes_distinct_share": "share",
    "syntax.form.self_ms": "ms",
    "kernel.vsubst.calls": "count",
    "kernel.vsubst.self_ms": "ms",
    "kernel.vsubst.depth_exponent": "1",
    "kernel.inst_type.self_ms": "ms",
    "kernel.rule.calls": "count",
    "kernel.rule.self_ms": "ms",
    "kernel.blocked": "count",
    "kernel.max_ok_binders": "count",
    "constructions.encode.calls": "count",
    "constructions.encode.self_ms": "ms",
    "constructions.decode.calls": "count",
    "constructions.decode.self_ms": "ms",
    "constructions.meta.self_ms": "ms",
    "logic.conv.calls": "count",
    "logic.conv.self_ms": "ms",
    "logic.derived.calls": "count",
    "logic.derived.self_ms": "ms",
    "frontend.parse_term.calls": "count",
    "frontend.parse_term.self_ms": "ms",
    "frontend.parse_term.chars_per_s": "chars/s",
    "frontend.print.calls": "count",
    "frontend.print.self_ms": "ms",
    "frontend.codec.calls": "count",
    "frontend.codec.self_ms": "ms",
    "frontend.max_ok_conjuncts": "count",
    "frontend.max_ok_parens": "count",
    "cli.commands": "count",
    "cli.command.self_ms": "ms",
    "session.bootstrap_ms": "ms",
    "session.reset.self_ms": "ms",
    "trace.overhead_share": "share",
}

_CONVS = (
    "IS_EXPR_TYPE_CONV",
    "IS_FREE_IN_CONV",
    "EVAL_CONV",
    "IS_PEANO_CONV",
    "IS_PRESBURGER_CONV",
)
_KERNEL_EXTENSIONS = (
    "new_type_constructor",
    "new_constant",
    "new_axiom",
    "new_basic_definition",
    "register_not_effective",
    "trusted_theorem",
)


def _rules(mod, exclude=()):
    return [
        n for n, v in vars(mod).items()
        if n.isupper() and callable(v) and getattr(v, "__module__", None) == mod.__name__
        and n not in exclude
    ]


def entry_points():
    """(span group, module, function names) for every traced layer entry."""
    from cqe import cli, constructions, frontend, kernel, logic, session, syntax

    return [
        ("cli.main", cli, ["main"]),
        ("frontend.parse_term", frontend, ["parse_term", "parse_type"]),
        ("frontend.print", frontend, ["print_term", "print_theorem", "print_type"]),
        ("frontend.codec", frontend, [
            "term_to_tree", "tree_to_term", "tree_to_sexp", "sexp_to_tree",
            "tree_to_json", "json_to_tree",
        ]),
        ("syntax.frees", syntax, ["_frees", "free_variables"]),
        ("syntax.alpha", syntax, ["alpha_equivalent"]),
        ("kernel.vsubst", kernel, ["vsubst"]),
        ("kernel.inst_type", kernel, ["inst_type"]),
        ("kernel.rule", kernel, _rules(kernel) + list(_KERNEL_EXTENSIONS)),
        ("constructions.encode", constructions, [
            "term_to_construction", "type_to_construction", "expand_quasiquote",
        ]),
        ("constructions.decode", constructions, ["construction_to_term", "type_from_construction"]),
        ("constructions.meta", constructions, ["is_expr_type_meta", "is_free_in_meta", "is_proper"]),
        ("logic.conv", logic, list(_CONVS)),
        ("logic.derived", logic, _rules(logic, exclude=_CONVS)),
        ("session.reset", session, ["reset"]),
    ]


class Tracer:
    def __init__(self):
        self.groups = []  # span name table
        self.gid = {}
        self.s_group = array("i")
        self.s_parent = array("i")
        self.s_script = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_self = array("q")
        self.stack = []  # open spans: [span index, child ns]
        self.script = -1
        self.blocked = 0
        self.chars = 0
        self.nodes_built = 0
        self.node_keys = set()
        self.form_depth = 0
        self.form_ns = 0
        self._undo = []
        self.missing = []
        from cqe.errors import SubstitutionBlocked

        self.blocked_exc = SubstitutionBlocked

    def _group(self, name):
        if name not in self.gid:
            self.gid[name] = len(self.groups)
            self.groups.append(name)
        return self.gid[name]

    def wrap(self, fn, group, count_chars=False):
        gid = self._group(group)
        kernel = group.startswith("kernel.")
        is_kernel = self._is_kernel
        blocked_exc = self.blocked_exc
        tr = self
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack = tr.stack
            parent = stack[-1][0] if stack else -1
            idx = len(tr.s_group)
            tr.s_group.append(gid)
            tr.s_parent.append(parent)
            tr.s_script.append(tr.script)
            tr.s_start.append(0)
            tr.s_end.append(0)
            tr.s_self.append(0)
            if count_chars:
                tr.chars += len(args[0])
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            tr.s_start[idx] = t0
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                # count a blocked substitution once, where it leaves the kernel
                if kernel and isinstance(e, blocked_exc) and not is_kernel(parent):
                    tr.blocked += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tr.s_end[idx] = t1
                tr.s_self[idx] = dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        span.__wrapped__ = fn
        return span

    def _is_kernel(self, parent):
        return parent >= 0 and self.groups[self.s_group[parent]].startswith("kernel.")

    def wrap_formation(self, cls):
        orig = cls.__dict__["__post_init__"]
        tr = self
        clock = time.perf_counter_ns
        tag = cls.__name__

        def post_init(node):
            tr.nodes_built += 1
            if tr.form_depth:
                tr.form_depth += 1
                try:
                    orig(node)
                finally:
                    tr.form_depth -= 1
            else:
                tr.form_depth = 1
                t0 = clock()
                try:
                    orig(node)
                finally:
                    dur = clock() - t0
                    tr.form_depth = 0
                    tr.form_ns += dur
                    if tr.stack:
                        tr.stack[-1][1] += dur
            tr.node_keys.add((tag, hash(node)))

        return post_init

    def _set(self, ns, key, value):
        self._undo.append((ns, key, ns[key]))
        ns[key] = value

    def install(self, tables=()):
        """Wrap every entry point; ``tables`` are extra name -> function dicts."""
        from cqe import cli, syntax

        modules = [m for n, m in sorted(sys.modules.items()) if n == "cqe" or n.startswith("cqe.")]
        namespaces = [vars(m) for m in modules] + list(tables)
        for group, mod, names in entry_points():
            for name in names:
                fn = vars(mod).get(name)
                if fn is None:
                    self.missing.append(f"{mod.__name__}.{name}")
                    continue
                w = self.wrap(fn, group, count_chars=group == "frontend.parse_term")
                code = getattr(fn, "__code__", None)
                recursive = code is not None and name in code.co_names
                for ns in namespaces:
                    if recursive and ns is vars(mod):
                        continue
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._set(ns, key, w)
                for key, entry in list(cli.RULE_SIGS.items()):
                    if entry[0] is fn:
                        self._set(cli.RULE_SIGS, key, (w,) + tuple(entry[1:]))
        self._undo.append((cli.Runner, "command", cli.Runner.command))
        cli.Runner.command = self.wrap(cli.Runner.command, "cli.command")
        for cls in (
            syntax.TypeApplication, syntax.Variable, syntax.Constant, syntax.Application,
            syntax.Abstraction, syntax.Quotation, syntax.Hole, syntax.Evaluation,
        ):
            if "__post_init__" not in cls.__dict__:
                self.missing.append(f"syntax.{cls.__name__}.__post_init__")
                continue
            self._undo.append((cls, "__post_init__", cls.__dict__["__post_init__"]))
            cls.__post_init__ = self.wrap_formation(cls)

    def uninstall(self):
        for ns, key, value in reversed(self._undo):
            if isinstance(ns, dict):
                ns[key] = value
            else:
                setattr(ns, key, value)
        self._undo.clear()

    # -- aggregation ---------------------------------------------------------

    def totals(self, scripts):
        """calls and self ns per group, over spans of the given script ids."""
        calls = [0] * len(self.groups)
        self_ns = [0] * len(self.groups)
        for g, s, ns in zip(self.s_group, self.s_script, self.s_self):
            if s in scripts:
                calls[g] += 1
                self_ns[g] += ns
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.groups)}

    def per_script(self, groups, scripts):
        """script id -> (calls, self ns) summed over the given groups."""
        want = {self.gid[g] for g in groups if g in self.gid}
        out = {s: [0, 0] for s in scripts}
        for g, s, ns in zip(self.s_group, self.s_script, self.s_self):
            if g in want and s in out:
                out[s][0] += 1
                out[s][1] += ns
        return out

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("script\tname\tparent\tstart_ns\tend_ns\tself_ns\n")
            groups = self.groups
            for i in range(len(self.s_group)):
                fh.write(
                    f"{self.s_script[i]}\t{groups[self.s_group[i]]}\t{self.s_parent[i]}\t"
                    f"{self.s_start[i]}\t{self.s_end[i]}\t{self.s_self[i]}\n"
                )


def slope(xs, ys):
    """Least-squares slope of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# Depths of the binder_chain scripts whose vsubst and alpha time per call
# gives kernel.vsubst.depth_exponent: near 1 when both are linear in depth.
SWEEP_DEPTHS = (8, 12, 16, 24, 32)


def probe(checker, make, start, cap):
    """Largest size in a doubling sweep whose script reaches its known verdict."""
    best, n, i = 0, start, 0
    while n <= cap:
        _, ok = checker.run(i, make(n))
        if not ok:
            break
        best, n, i = n, n * 2, i + 1
    return best


def traced_run(workload, seed, cases, Checker, measure_setup, info):
    """One untraced and one traced pass over the corpus, plus the probes and
    the depth sweep; returns (metrics, attempted, failed, mismatches)."""
    _, bootstrap_s = measure_setup(5)
    checker = Checker(workload)
    for i, case in enumerate(cases[:3]):  # bootstrap and warm caches, untimed
        checker.run(i, case)
    checker.mismatches.clear()

    prober = Checker("probe")
    capacity = {
        name: probe(prober, make, start, cap)
        for name, (make, start, cap) in workloads.PROBES.items()
    }

    plain = [checker.run(i, case) for i, case in enumerate(cases)]

    rng = random.Random(seed)
    sweep = [workloads.binder_chain_script(rng, n, False) for n in SWEEP_DEPTHS]
    sweeper = Checker("sweep")

    tr = Tracer()
    tr.install(tables=(checker.codec, sweeper.codec))
    try:
        traced = []
        for i, case in enumerate(cases):
            tr.script = i
            traced.append(checker.run(i, case))
        counters = (tr.nodes_built, len(tr.node_keys), tr.form_ns, tr.blocked, tr.chars)
        sweep_ids = []
        for j, case in enumerate(sweep):
            tr.script = len(cases) + j
            sweep_ids.append(tr.script)
            sweeper.run(j, case)
    finally:
        tr.script = -1
        tr.uninstall()

    nodes_built, nodes_distinct, form_ns, blocked, chars = counters
    tot = tr.totals(set(range(len(cases))))

    def calls(group):
        return tot.get(group, (0, 0))[0]

    def self_ms(group):
        return tot.get(group, (0, 0))[1] / 1e6

    per = tr.per_script(("kernel.vsubst", "syntax.alpha"), sweep_ids)
    xs, ys = [], []
    for n, sid in zip(SWEEP_DEPTHS, sweep_ids):
        c, ns = per[sid]
        if c and ns > 0:
            xs.append(math.log(n))
            ys.append(math.log(ns / c))
    exponent = slope(xs, ys) if len(xs) >= 2 else float("nan")

    parse_ms = self_ms("frontend.parse_term")
    p50_plain = statistics.median(dt for dt, _ in plain)
    p50_traced = statistics.median(dt for dt, _ in traced)
    values = {
        "syntax.frees.calls": calls("syntax.frees"),
        "syntax.frees.self_ms": self_ms("syntax.frees"),
        "syntax.alpha.calls": calls("syntax.alpha"),
        "syntax.alpha.self_ms": self_ms("syntax.alpha"),
        "syntax.nodes_built": nodes_built,
        "syntax.nodes_distinct_share": nodes_distinct / nodes_built if nodes_built else 0.0,
        "syntax.form.self_ms": form_ns / 1e6,
        "kernel.vsubst.calls": calls("kernel.vsubst"),
        "kernel.vsubst.self_ms": self_ms("kernel.vsubst"),
        "kernel.vsubst.depth_exponent": exponent,
        "kernel.inst_type.self_ms": self_ms("kernel.inst_type"),
        "kernel.rule.calls": calls("kernel.rule"),
        "kernel.rule.self_ms": self_ms("kernel.rule"),
        "kernel.blocked": blocked,
        "kernel.max_ok_binders": capacity["kernel.max_ok_binders"],
        "constructions.encode.calls": calls("constructions.encode"),
        "constructions.encode.self_ms": self_ms("constructions.encode"),
        "constructions.decode.calls": calls("constructions.decode"),
        "constructions.decode.self_ms": self_ms("constructions.decode"),
        "constructions.meta.self_ms": self_ms("constructions.meta"),
        "logic.conv.calls": calls("logic.conv"),
        "logic.conv.self_ms": self_ms("logic.conv"),
        "logic.derived.calls": calls("logic.derived"),
        "logic.derived.self_ms": self_ms("logic.derived"),
        "frontend.parse_term.calls": calls("frontend.parse_term"),
        "frontend.parse_term.self_ms": parse_ms,
        "frontend.parse_term.chars_per_s": chars / (parse_ms / 1e3) if parse_ms else 0.0,
        "frontend.print.calls": calls("frontend.print"),
        "frontend.print.self_ms": self_ms("frontend.print"),
        "frontend.codec.calls": calls("frontend.codec"),
        "frontend.codec.self_ms": self_ms("frontend.codec"),
        "frontend.max_ok_conjuncts": capacity["frontend.max_ok_conjuncts"],
        "frontend.max_ok_parens": capacity["frontend.max_ok_parens"],
        "cli.commands": calls("cli.command"),
        "cli.command.self_ms": self_ms("cli.command"),
        "session.bootstrap_ms": bootstrap_s * 1e3,
        "session.reset.self_ms": self_ms("session.reset"),
        "trace.overhead_share": p50_traced / p50_plain - 1.0,
    }
    notes = {
        "kernel.vsubst.depth_exponent": f"slope over depths {SWEEP_DEPTHS}",
        "trace.overhead_share": f"p50 {p50_traced * 1e3:.3f} ms traced vs {p50_plain * 1e3:.3f} ms untraced",
        "session.bootstrap_ms": "median first reset() of 5 fresh interpreters",
    }
    metrics = {
        k: (v, METRIC_UNITS[k], notes.get(k, f"one traced pass over {len(cases)} scripts"))
        for k, v in values.items()
    }

    out_dir = os.path.join(os.path.dirname(checker.dir), "trace")
    os.makedirs(out_dir, exist_ok=True)
    header = dict(info, spans=len(tr.s_group), scripts=len(cases), sweep=list(SWEEP_DEPTHS),
                  missing_entry_points=tr.missing)
    tr.write(os.path.join(out_dir, f"{workload}-seed{seed}.tsv"), header)
    if tr.missing:
        print("# entry points not found: " + ", ".join(tr.missing), file=sys.stderr)

    mismatches = checker.mismatches + sweeper.mismatches
    return metrics, 2 * len(cases) + len(sweep), len(mismatches), mismatches
