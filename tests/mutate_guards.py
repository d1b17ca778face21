"""Guard mutation audit: is every ``raise`` in the trusted core load-bearing?

For each ``raise`` statement in ``kernel``, ``syntax``, ``constructions``,
``logic``, ``frontend`` and ``cli`` (found by AST), this script builds a
mutant whose only change is
that statement replaced by ``pass``, in a temporary copy of the checkout,
and runs the tier-1 suite on it with ``-x``.  A mutant whose suite fails is
killed; one whose suite does not finish within the per-run timeout counts as
killed too (a deleted loop guard can make the suite hang).  A mutant whose
suite passes survives: no test notices the guard is gone.

Survivors are compared with ``mutate_guards_allowlist.txt`` next to this
file.  Each allowlist line names one mutant and the check that refuses the
same input instead.  The script exits 1 when a survivor is not listed, when
a listed mutant no longer survives or no longer exists, or when the
unmutated suite fails; 0 otherwise.

Run it from anywhere (stdlib only; pytest must be importable):

    python tests/mutate_guards.py

It runs one suite per CPU at a time, each for at most ``TIMEOUT`` seconds,
and takes about fifteen minutes on two cores.  The checkout itself is never
modified.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cqe"
MODULES = ("kernel", "syntax", "constructions", "logic", "frontend", "cli")
ALLOWLIST = Path(__file__).resolve().parent / "mutate_guards_allowlist.txt"
# what the suite reads besides the package: the README (a docs test) and the
# benchmark tracer (a tracer test)
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
SUITE = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")
TIMEOUT = 120  # seconds one suite run may take before it counts as a hang
JOBS = os.cpu_count() or 1


class Mutant:
    """One ``raise`` statement, named ``module.function#n``: the n-th raise
    (1-based, in source order) inside that function."""

    def __init__(self, module, name, exc, start, end, col):
        self.module = module
        self.name = name
        self.exc = exc
        self.start = start  # 1-based first and last line of the statement
        self.end = end
        self.col = col

    def apply(self, source: str) -> str:
        # the statement becomes `pass`; the lines it spanned stay, blank, so
        # every other line keeps its number
        lines = source.splitlines(keepends=True)
        lines[self.start - 1] = " " * self.col + "pass\n"
        for i in range(self.start, self.end):
            lines[i] = "\n"
        return "".join(lines)


def _exception_name(node: ast.Raise) -> str:
    exc = node.exc
    if exc is None:
        return "(re-raise)"
    if isinstance(exc, ast.Call):
        exc = exc.func
    return ast.unparse(exc)


def find_mutants(module: str) -> list:
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    found = []
    counts = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                where = ".".join(scope) or "<module>"
                n = counts[where] = counts.get(where, 0) + 1
                found.append(
                    Mutant(
                        module,
                        f"{module}.{where}#{n}",
                        _exception_name(child),
                        child.lineno,
                        child.end_lineno,
                        child.col_offset,
                    )
                )
            visit(child, scope)

    visit(tree, ())
    return found


def read_allowlist() -> dict:
    """Mutant name -> the check that fires instead, from the allowlist file."""
    out = {}
    for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        out[name] = reason.strip()
    return out


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        elif src.exists():
            shutil.copy2(src, dest / name)


def run_suite(mutant) -> str:
    """'killed', 'hang' or 'survived' for a mutant; for None, the unmutated
    suite, 'survived' means it passes."""
    with tempfile.TemporaryDirectory(prefix="cqe-mutant-") as tmp:
        work = Path(tmp)
        _copy_checkout(work)
        if mutant is not None:
            target = work / "src" / "cqe" / f"{mutant.module}.py"
            target.write_text(mutant.apply(target.read_text(encoding="utf-8")), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                (sys.executable, *SUITE),
                cwd=work,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return "hang"
        return "survived" if proc.returncode == 0 else "killed"


def main() -> int:
    mutants = [m for module in MODULES for m in find_mutants(module)]

    if run_suite(None) != "survived":
        print("the unmutated suite does not pass; nothing to audit", file=sys.stderr)
        return 1

    t0 = time.monotonic()
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        verdicts = []
        for m, v in zip(mutants, pool.map(run_suite, mutants)):
            verdicts.append(v)
            print(f"{v:8} {m.name:45} {m.exc:28} {m.module}.py:{m.start}", flush=True)
    survivors = {m.name for m, v in zip(mutants, verdicts) if v == "survived"}

    allowed = read_allowlist()
    unexpected = sorted(survivors - allowed.keys())
    stale = sorted(allowed.keys() - survivors)
    print(
        f"\n{len(mutants)} mutants, {len(mutants) - len(survivors)} killed "
        f"({verdicts.count('hang')} by timeout), {len(survivors)} survived, "
        f"{len(survivors) - len(unexpected)} of them allowlisted; "
        f"{time.monotonic() - t0:.0f} s with {JOBS} worker(s)"
    )
    for name in unexpected:
        print(f"SURVIVED, not allowlisted: {name}")
    for name in stale:
        print(f"allowlisted but killed or gone: {name}")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
