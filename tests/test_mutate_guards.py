"""The guard audit's mutant list and allowlist (the audit itself runs outside
tier-1: ``python tests/mutate_guards.py``)."""

import ast

import mutate_guards as mg


def _raises(source):
    return sum(isinstance(n, ast.Raise) for n in ast.walk(ast.parse(source)))


def test_each_mutant_removes_exactly_its_raise():
    for module in mg.MODULES:
        source = (mg.PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        mutants = mg.find_mutants(module)
        assert len(mutants) == _raises(source)
        assert len({m.name for m in mutants}) == len(mutants)
        for m in mutants:
            mutated = m.apply(source)
            assert _raises(mutated) == len(mutants) - 1
            assert len(mutated.splitlines()) == len(source.splitlines())


def _check_allowlist():
    # whether a listed name exists is the script's stale check, made on the
    # unmutated source: in a mutant's workspace this test reads the mutated
    # copy, where the listed raise is gone
    for name, instead in mg.read_allowlist().items():
        assert name.split(".")[0] in ("constructions", "logic")
        assert instead  # the check that fires instead


def test_every_allowlisted_survivor_is_outside_the_kernel_and_syntax():
    _check_allowlist()


def test_the_last_raise_of_a_function_can_stay_listed(tmp_path, monkeypatch):
    source = (mg.PACKAGE / "logic.py").read_text(encoding="utf-8")
    mutants = mg.find_mutants("logic")
    last = max(mutants, key=lambda m: int(m.name.rpartition("#")[2]))
    assert not last.name.endswith("#1")
    # the mutant's workspace: its copy of the package and of the allowlist
    (tmp_path / "logic.py").write_text(last.apply(source), encoding="utf-8")
    allowlist = tmp_path / "allowlist.txt"
    allowlist.write_text(f"{last.name} a check that fires instead\n", encoding="utf-8")
    monkeypatch.setattr(mg, "PACKAGE", tmp_path)
    monkeypatch.setattr(mg, "ALLOWLIST", allowlist)
    assert last.name not in {m.name for m in mg.find_mutants("logic")}
    _check_allowlist()
