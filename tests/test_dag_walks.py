"""Substitution and type instantiation on terms that share subterms.

Terms are interned, so a theorem is a DAG: a script of n lines can state a
conclusion whose tree has 2^n leaves.  Each kernel walk visits each distinct
subterm once per call.  The tests count the walks' calls on such a script, and
compare the kernel with the tree walks kept in ``tree_walks`` over generated
terms, shared ones among them: the same results by identity, the same
refusals, and the same facts consulted, in order of first consultation.
"""

import os
import subprocess
import sys
from collections import Counter
from itertools import islice

import cqe
from cqe import kernel, session
from cqe.cli import Runner
from cqe.errors import CqeError
from cqe.kernel import (
    ASSUME,
    DEDUCT_ANTISYM,
    INST,
    INST_TYPE,
    inst_type,
    mk_conj,
    mk_eq,
    mk_forall,
    mk_not_effective,
    new_axiom,
    register_not_effective,
    vsubst,
)
from cqe.syntax import (
    Abstraction,
    Constant,
    TypeApplication,
    TypeVariable,
    Variable,
    _frees,
    _nodes,
    bool_ty,
    map_parts,
    num_ty,
    type_variables_in_term,
    variables_in,
)

import tree_walks
from genterms import TermGen

A = "'A"


def _doubling(n):
    """A script whose conclusions double in tree size on each line, under a
    binder, then take an INST that renames every binder and an INST_TYPE."""
    lines = ["thm a0 := (ASSUME `p:bool`)"]
    for i in range(1, n + 1):
        lines.append(f"thm a{i} := (INST `p:bool` `p /\\ (!x:'A. p)` a{i - 1})")
    lines.append(f"thm b := (INST `p:bool` `(x:'A) = x` a{n})")
    lines.append("thm c := (INST_TYPE `'A` `num` b)")
    return lines


def test_each_walk_visits_a_distinct_node_a_bounded_number_of_times(monkeypatch):
    calls = Counter()
    for name in ("_vsubst", "_inst_type"):
        walk = getattr(kernel, name)
        monkeypatch.setattr(
            kernel, name, lambda *args, walk=walk, name=name: calls.update((name,)) or walk(*args)
        )
    runner = Runner(quiet=True)
    for lineno, line in enumerate(_doubling(60), start=1):
        calls.clear()
        runner.command(line, lineno)
        nodes = len(_nodes(session.current().theorems[line.split()[1]].concl))
        assert nodes <= 250
        assert calls["_vsubst"] <= 4 * nodes and calls["_inst_type"] <= 5 * nodes, (line, calls)
    assert calls["_inst_type"] >= nodes  # the last line instantiated every node


def test_cqe_check_of_the_doubling_script_exits_0(tmp_path):
    path = tmp_path / "doubling.cqe"
    path.write_text("\n".join(_doubling(60)) + "\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cqe.__file__)))
    run = subprocess.run(  # a fresh process, as users run it
        [sys.executable, "-m", "cqe.cli", "check", str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0 and run.stderr == "", run.stderr[-300:]
    assert run.stdout.endswith("ok: 63 commands, 0 checks\n")


# ---------------------------------------------------------------------------
# the same results as the tree walks
# ---------------------------------------------------------------------------


def _doubled(t, k):
    """A term holding t 2^k times over k + 1 distinct nodes of its own."""
    d = mk_eq(t, t)
    for _ in range(k):
        d = mk_conj(d, d)
    return d


def _mixed(t, pairs):
    """t shared between contexts that substitute into it differently: under a
    binder of the first substituted variable, under a binder of a variable
    free in a payload (which capture renames), with and without the first
    binder inside, and last as it is."""
    x = pairs[0][0]
    contexts = [Abstraction(x, t)]
    for v in sorted(frozenset().union(*(_frees(tm) for _, tm in pairs)), key=repr)[:1]:
        contexts += [Abstraction(v, Abstraction(x, t)), Abstraction(v, t)]
    out = mk_eq(t, t)
    for c in reversed(contexts):
        out = mk_conj(mk_eq(c, c), out)
    return out


def _register_facts(t, x, limit=2):
    """Register 'x is not effective in s' for up to ``limit`` binder bodies s
    of t that hold an evaluation, so that substitution consults them."""
    bodies = [
        s.body
        for s in _nodes(t)
        if isinstance(s, Abstraction) and not s.body.eval_free and not s.body.has_naked_hole
    ]
    for s in sorted(bodies, key=repr)[:limit]:
        name = f"nei_{len(session.current().nei_registry)}"
        register_not_effective(new_axiom(name, mk_not_effective(x, s)))


def _outcome(call):
    try:
        return call()
    except CqeError as e:
        return type(e), str(e)


def _same(got, want):
    return got is want or (isinstance(got, tuple) and got == want)


def _corpus(seed):
    """Generated terms, each also doubled and mixed, with the pairs that
    substitute into them; facts for the first substituted variable are
    registered."""
    gen = TermGen(seed, evals=True, holes=True)
    for i in range(10):
        t = gen.term(depth=4)
        vs = sorted(variables_in(t), key=lambda v: (v.name, repr(v.ty)))
        if not vs:
            continue
        xs = list(dict.fromkeys([vs[i % len(vs)], vs[(i * 7 + 3) % len(vs)]][: 1 + i % 2]))
        pairs = [(x, gen.term(x.ty, depth=1 + i % 3)) for x in xs]
        if seed % 2:
            _register_facts(t, xs[0])
        yield t, pairs
        yield _doubled(t, 5), pairs
        yield _mixed(t, pairs), pairs


def test_vsubst_agrees_with_the_tree_walk():
    outcomes = Counter()
    for seed in range(60):
        session.reset()
        for t, pairs in _corpus(seed):
            used, want_used = [], []
            got = _outcome(lambda: vsubst(pairs, t, used))
            want = _outcome(lambda: tree_walks.vsubst(pairs, t, want_used))
            assert _same(got, want), (t, pairs, got, want)
            first, want_first = list(dict.fromkeys(used)), list(dict.fromkeys(want_used))
            assert len(first) == len(want_first)
            assert all(a is b for a, b in zip(first, want_first))
            outcomes["refused" if isinstance(got, tuple) else "same" if got is t else "changed"] += 1
            outcomes["repeated"] += len(want_used) > len(used)
            assert variables_in(t) == tree_walks.variables_in(t)
    assert outcomes["changed"] >= 600 and outcomes["same"] >= 150, outcomes
    assert outcomes["refused"] >= 80 and outcomes["repeated"] >= 20, outcomes


def test_a_shared_subterm_takes_the_substitution_of_each_context():
    x, w, v = (Variable(name, bool_ty()) for name in "xwv")
    t = mk_conj(x, w)
    pairs = [(x, Constant("T", bool_ty())), (w, mk_conj(v, v)), (Variable("v'", bool_ty()), v)]
    # under \x only w acts; \v would capture w's payload, so it is renamed,
    # to v'' as v' is substituted for, and inside it \x again lets only w
    # act; the last t takes the pairs of x and w
    for c in (Abstraction(x, t), Abstraction(v, Abstraction(x, t)), Abstraction(v, t)):
        term = mk_conj(mk_eq(c, c), t)
        got = vsubst(pairs, term)
        assert got is tree_walks.vsubst(pairs, term)
        assert got.arg is vsubst(pairs, t) is mk_conj(pairs[0][1], pairs[1][1])


def _general_type(ty):
    if ty is TypeApplication("ind"):
        return TypeVariable(A)
    if isinstance(ty, TypeVariable):
        return ty
    return TypeApplication(ty.constructor, tuple(map(_general_type, ty.arguments)))


def _generalized(t):
    """t with the type ind made the type variable 'A throughout."""
    return map_parts(t, _generalized, _general_type)


def _polymorphic(seed):
    """Generated terms over 'A, each also doubled and bound under a binder
    that instantiation merges with a free variable of its body."""
    gen = TermGen(seed, evals=True, holes=True)
    for _ in range(10):
        t = _outcome(lambda: _generalized(gen.term(depth=4)))
        if isinstance(t, tuple) or TypeVariable(A) not in type_variables_in_term(t):
            continue
        pairs = [(TypeVariable(A), gen.type(2))]
        v, w = Variable("w", TypeVariable(A)), Variable("w", pairs[0][1])
        merged = Abstraction(v, mk_conj(mk_eq(v, v), mk_conj(mk_eq(w, w), mk_eq(t, t))))
        for u in (t, _doubled(t, 5), merged, _doubled(merged, 5)):
            yield u, pairs


def test_inst_type_agrees_with_the_tree_walk():
    outcomes = Counter()
    for seed in range(60):
        session.reset()
        for t, pairs in _polymorphic(seed):
            got = _outcome(lambda: inst_type(pairs, t))
            want = _outcome(lambda: tree_walks.inst_type(pairs, t))
            assert _same(got, want), (t, pairs, got, want)
            assert type_variables_in_term(t) == tree_walks.type_variables_in_term(t)
            outcomes[got[0].__name__ if isinstance(got, tuple) else "changed"] += 1
    assert outcomes["changed"] >= 500, outcomes
    assert outcomes["QuotationTypePolymorphism"] >= 60, outcomes
    assert outcomes["VariableCollision"] >= 300, outcomes


def _theorem(th):
    return th if isinstance(th, tuple) else (th.concl, th.hyps, th.axioms, th.trusted)


def test_inst_and_inst_type_theorems_agree_with_the_tree_walks():
    compared = Counter()
    for seed in range(60):
        session.reset()
        for t, pairs in islice(_corpus(seed), 0, None, 3):  # doubled below
            th = DEDUCT_ANTISYM(ASSUME(mk_eq(t, t)), ASSUME(_doubled(t, 3)))
            got = _theorem(_outcome(lambda: INST(pairs, th)))
            assert got == _theorem(_outcome(lambda: tree_walks.INST(pairs, th))), (th, pairs)
            compared["INST"] += not isinstance(got[0], type) and bool(got[2])
        for t, pairs in islice(_polymorphic(seed), 0, None, 2):
            th = DEDUCT_ANTISYM(ASSUME(mk_eq(t, t)), ASSUME(_doubled(t, 3)))
            got = _theorem(_outcome(lambda: INST_TYPE(pairs, th)))
            assert got == _theorem(_outcome(lambda: tree_walks.INST_TYPE(pairs, th))), (th, pairs)
            compared["INST_TYPE"] += not isinstance(got[0], type)
    # INST results with registered facts among their axioms, and INST_TYPE
    # results that are theorems
    assert compared["INST"] >= 20 and compared["INST_TYPE"] >= 250, compared


def test_inst_and_inst_type_read_their_pairs_once():
    # every hypothesis takes the pairs the conclusion took, also when they
    # come from a one-shot iterator
    x = Variable("x", bool_ty())
    T, F = Constant("T", bool_ty()), Constant("F", bool_ty())
    th = INST(iter([(x, F)]), ASSUME(mk_eq(x, T)))
    assert th.concl == mk_eq(F, T) and th.hyps == {th.concl}
    a = TypeVariable(A)
    y = Variable("y", a)
    th = INST_TYPE(iter([(a, num_ty())]), ASSUME(mk_forall(y, mk_eq(y, y))))
    assert th.hyps == {th.concl} and not type_variables_in_term(th.concl)
