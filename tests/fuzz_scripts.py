"""Token-level mutants of the shipped scripts through ``cqe check`` and
``cqe export``.

Each mutant is one shipped script with one token deleted, duplicated or
replaced by another token of the same script, chosen from a seed.  A token
is a run of identifier characters or any other non-blank character.  Each
mutant goes through ``cli.main`` ``check`` and ``export`` in process, and
every call must return 0, 1 or 2 and raise nothing.  The script exits 1 at
the first call that does not and prints the seed and the mutant.

    PYTHONPATH=src python tests/fuzz_scripts.py --mutants 10000
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import random
import re
import sys
import tempfile
import traceback
from pathlib import Path

from cqe import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "src" / "cqe" / "scripts"
_TOKEN = re.compile(r"[A-Za-z0-9_']+|\S")


@functools.cache
def shipped() -> tuple:
    """The texts of the shipped scripts, read once."""
    return tuple(path.read_text(encoding="utf-8") for path in sorted(SCRIPTS.glob("*.cqe")))


def mutant(seed: int) -> str:
    """A shipped script with one token deleted, duplicated or replaced."""
    rng = random.Random(seed)
    text = rng.choice(shipped())
    spans = [m.span() for m in _TOKEN.finditer(text)]
    start, end = rng.choice(spans)
    token = text[start:end]
    other = text[slice(*rng.choice(spans))]
    new = rng.choice(["", token + " " + token, other])
    return text[:start] + new + text[end:]


def run(seed: int, workdir: Path) -> tuple:
    """The exit codes of ``check`` and ``export`` on mutant ``seed``; what
    they print is dropped."""
    path = workdir / "mutant.cqe"
    path.write_text(mutant(seed), encoding="utf-8")
    out = str(workdir / "mutant.out")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return (cli.main(["check", str(path)]), cli.main(["export", str(path), "--out", out]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mutants", type=int, default=1000)
    args = parser.parse_args(argv)
    counts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(1000, 1000 + args.mutants):  # tier-1 runs seeds 0-499
            try:
                codes = run(seed, Path(tmp))
                failed = not set(codes) <= {0, 1, 2}
            except Exception:  # reported with its traceback
                codes, failed = traceback.format_exc(), True
            if failed:
                print(f"seed {seed}: {codes}\n{mutant(seed)}")
                return 1
            counts[codes] = counts.get(codes, 0) + 1
    print(f"{args.mutants} mutants: exit codes (check, export) {dict(sorted(counts.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
