"""The benchmark tracer still finds every function and class it wraps.

``bench/tracer.py`` names cqe functions and node classes by attribute; one
that moved or vanished is only reported at run time, as a missing entry point.
"""

from pathlib import Path

from cqe import syntax

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_entry_point_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    for _, mod, names in tracer.entry_points():
        for name in names:
            assert callable(vars(mod).get(name)), f"{mod.__name__}.{name}"
    tr = tracer.Tracer()
    frees = syntax._frees
    try:
        tr.install()
    finally:
        tr.uninstall()
    # the names above, and each traced node class's __post_init__
    assert tr.missing == []
    assert syntax._frees is frees


def test_nodes_built_counts_each_node_a_script_adds(monkeypatch):
    # each new node runs its class's __post_init__ once: a term enters the
    # session's terms table, a TypeApplication its types table (a type
    # variable has no __post_init__)
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    from cqe import cli, session

    def nodes(s):  # every term, and every type but the type variables
        terms = sum(len(table) for table in s.terms.values())
        return terms + sum(type(ty) is syntax.TypeApplication for ty in s.types.values())

    text = (BENCH.parent / "src" / "cqe" / "scripts" / "lem_instance.cqe").read_text()
    s = session.reset()
    before = nodes(s)
    tr = tracer.Tracer()
    tr.install()
    try:
        cli.Runner(quiet=True).run_text(text)
    finally:
        tr.uninstall()
    added = nodes(s) - before
    assert tr.nodes_built == added > 0
