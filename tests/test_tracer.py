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
