"""Memo reads against fresh reads, over seeded sequences of reader texts.

Each sequence starts from a fresh session and reads 40 ``genterms.TextGen``
texts, with one declaration partway through.  Each text is read through the
session's memo, then again with an empty memo and group reuse turned off.
The two reads must give the same term (the same interned node) or the same
refusal (class, message and span).  The script exits 1 at the first
difference and prints the seed and the text.

    PYTHONPATH=src python tests/fuzz_reader.py --sequences 2500
"""

from __future__ import annotations

import argparse
import sys

from cqe import frontend, session
from cqe.errors import CqeError
from cqe.kernel import new_constant, new_type_constructor
from cqe.syntax import Term, bool_ty, num_ty
from genterms import TextGen


def outcome(text):
    """The term ``text`` reads as, or its refusal's class, message and span."""
    try:
        return frontend.parse_term(text)
    except CqeError as e:
        span = getattr(e, "span", None)
        return type(e), str(e), None if span is None else (span.text, span.start, span.end)


def fresh_outcome(text):
    """``outcome`` with no memo: an empty table and no group reuse."""
    s = session.current()
    reads, s.reads = s.reads, {}
    reuse = frontend._Reader._reuse
    frontend._Reader._reuse = lambda self, inner, j: None
    try:
        return outcome(text)
    finally:
        frontend._Reader._reuse = reuse
        s.reads = reads


def sequence(seed: int, length: int = 40):
    """(text, memo outcome, fresh outcome) for each text of one sequence."""
    session.reset()
    gen = TextGen(seed)
    declare_at = gen.rng.randrange(length)
    for k in range(length):
        if k == declare_at:  # a declaration partway through the sequence
            if seed % 3 == 0:
                new_constant("k", num_ty())
            elif seed % 3 == 1:
                new_constant("p", bool_ty())  # p is also a variable in TextGen
            else:
                new_type_constructor("box", 1)
        text = gen.text()
        yield text, outcome(text), fresh_outcome(text)


def same(got, want) -> bool:
    return got is want if isinstance(want, Term) else got == want


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sequences", type=int, default=100)
    args = parser.parse_args(argv)
    texts = 0
    for seed in range(1000, 1000 + args.sequences):  # tier-1 reads seeds 0-119
        for text, got, want in sequence(seed):
            texts += 1
            if not same(got, want):
                print(f"seed {seed}: {text!r}\n  memo:  {got!r}\n  fresh: {want!r}")
                return 1
    print(f"{texts} texts in {args.sequences} sequences: 0 differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
