"""End-to-end and per-layer benchmark of the cqe proof checker.

Usage, from the root of a checkout::

    python3 bench/run.py --workload binder_chain --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --smoke

One process runs one workload as a closed loop with one caller: each
generated script goes through ``cqe.cli.main(argv)`` and the next starts
only when the previous verdict is in.  Every verdict is compared with the
known answer its generator wrote.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes one untraced and one traced pass over the
workload's corpus and reports per-layer counts and self times (see
``tracer.py``) plus the capacity probes.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans of a traced run are written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRIPTS = os.path.join(SRC, "cqe", "scripts")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_LAUNCHES = 11

# Fresh interpreter to bootstrapped session; prints the first reset()'s
# seconds, which the traced run reports as the bootstrap time.
SETUP_CODE = (
    "import time\n"
    "import cqe\n"
    "t = time.perf_counter()\n"
    "cqe.reset()\n"
    "print(time.perf_counter() - t)\n"
)


def _die(msg):
    print("bench: " + msg, file=sys.stderr)
    sys.exit(2)


def _import_cqe():
    """Import cqe from this checkout's ``src``; exit 2 when it is absent."""
    sys.path.insert(0, SRC)
    try:
        import cqe
    except ImportError as e:
        _die(f"cannot import cqe from {SRC}: {e}")
    here = os.path.realpath(os.path.dirname(cqe.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        _die(f"cqe was imported from {here}, not from {SRC}")


def provenance(workload, seed):
    return {
        "workload": workload,
        "seed": seed,
        "sizes": workloads.SIZES[workload],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset (random per process)"),
    }


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

_ERR_LINE = re.compile(r"^.*?:(\d+): error: (.*)$", re.S)


def error_class(msg: str) -> str:
    """Classify a ``cqe check`` error message by the failure it reports."""
    if re.match(r"check \S+: conclusion is", msg):
        return "CheckMismatch"
    if re.match(r"check \S+: theorem still has hypotheses", msg):
        return "CheckHypotheses"
    if "register_nei an axiom or theorem" in msg:
        return "SubstitutionBlocked"
    m = re.match(r"[A-Z_]+: ([A-Za-z]+): ", msg)
    if m:
        return m.group(1)
    return "ScriptError"


def verdict_of(rc, out, err):
    """The verdict ``main`` reported, in the shape generators predict."""
    if rc == 0:
        checks = tuple(re.findall(r"^check (\S+): ok$", out, re.M))
        m = re.search(r"^ok: (\d+) commands, (\d+) checks$", out, re.M)
        if m is None or int(m.group(2)) != len(checks):
            return ("malformed", out[-200:])
        return ("accept", int(m.group(1)), checks)
    if rc == 1:
        m = _ERR_LINE.match(err.strip())
        if m:
            return ("reject", int(m.group(1)), error_class(m.group(2)))
    return ("exit", rc, err[-200:])


def expected_verdict(case):
    if case.reject is None:
        return ("accept", case.commands, case.checks)
    return ("reject",) + tuple(case.reject)


# ---------------------------------------------------------------------------
# running one script
# ---------------------------------------------------------------------------


class Checker:
    """Runs cases through ``cqe.cli.main`` and judges each verdict."""

    def __init__(self, workload):
        from cqe import cli, frontend, session

        self.cli, self.session = cli, session
        self.dir = os.path.join(WORK, workload)
        os.makedirs(self.dir, exist_ok=True)
        self.paths = {}
        self.mismatches = []
        # read-back entry points, looked up here so a tracer can rebind them
        self.codec = {
            name: getattr(frontend, name)
            for name in ("sexp_to_tree", "json_to_tree", "tree_to_term")
        }

    def path(self, i, case):
        """The script file of corpus slot i, written on first use."""
        written = self.paths.get(i)
        if written is None or written[0] is not case:
            p = os.path.join(self.dir, f"case{i:03d}.cqe")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(case.text)
            self.paths[i] = written = (case, p)
        return written[1]

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def _export_and_read_back(self, path, stem, names):
        """Export in both formats; what reads back must be exactly the
        script's theorems as the session holds them."""
        codec = self.codec
        to_term = codec["tree_to_term"]
        for fmt, reader in (("sexp", codec["sexp_to_tree"]), ("json-like", codec["json_to_tree"])):
            out = f"{stem}.{fmt}"
            rc, _, err = self._main(["export", path, "--out", out, "--format", fmt])
            if rc != 0:
                return f"export {fmt} exited {rc}: {err.strip()[-200:]}"
            theorems = self.session.current().theorems
            with open(out, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if len(lines) != len(names):
                return f"{fmt} export has {len(lines)} theorems, expected {len(names)}"
            for line in lines:
                tree = reader(line)
                name, concl = tree[1], tree[4][1]
                hyps = {to_term(h) for h in tree[3][1:]}
                th = theorems.get(name) if name in names else None
                if th is None or to_term(concl) != th.concl or hyps != set(th.hyps):
                    return f"{fmt} read-back of {name!r} differs from the session"
        return None

    def run(self, i, case):
        """Check one case; returns (seconds, ok).  Timing covers main() calls
        and, for exported cases, the exports and their read-back."""
        path = self.path(i, case)
        crash = problem = None
        t0 = time.perf_counter()
        try:
            rc, out, err = self._main(["check", path])
            if case.export and rc == 0:
                problem = self._export_and_read_back(path, path[:-4], case.theorems)
        except Exception as e:  # a raw exception is a failed verdict
            crash = f"{type(e).__name__}: {str(e)[:200]}"
        dt = time.perf_counter() - t0
        if crash is not None:
            got = ("crash", crash)
        else:
            got = verdict_of(rc, out, err)
        want = expected_verdict(case)
        ok = got == want and problem is None
        if not ok:
            self.mismatches.append(
                {"case": case.name, "expected": want, "got": got, "problem": problem}
            )
        return dt, ok


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------


def percentile(values, q):
    """Nearest-rank percentile of a non-empty sample."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


class Setup:
    """Launches fresh interpreters that import cqe and reset(), one at a
    time; records each launch's wall seconds and its first-reset seconds."""

    def __init__(self):
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
        self.walls, self.boots = [], []
        self._launch()  # fills the bytecode cache; not recorded

    def _launch(self):
        t0 = time.perf_counter()
        r = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        wall = time.perf_counter() - t0
        if r.returncode != 0:
            _die(f"setup launch failed: {r.stderr.strip()[-500:]}")
        return wall, float(r.stdout)

    def launch(self):
        wall, boot = self._launch()
        self.walls.append(wall)
        self.boots.append(boot)
        return wall


def measure_setup(launches):
    """Median wall and first-reset seconds of ``launches`` back-to-back launches."""
    setup = Setup()
    for _ in range(launches):
        setup.launch()
    return statistics.median(setup.walls), statistics.median(setup.boots)


def closed_loop(checker, cases, seconds, setup):
    """Cycle over the corpus for about ``seconds``.

    Only whole passes run, so every run samples the corpus evenly: the loop
    stops at the pass boundary nearest to ``seconds``.  Between passes the
    set-up launches run, spread evenly over the run so that their median
    sees the same machine as the scripts do; their time is not loop time.
    """
    samples, oks = [], 0
    every = seconds / SETUP_LAUNCHES
    in_setup = 0.0
    t_start = time.perf_counter()
    passes = 0
    while True:
        for i, case in enumerate(cases):
            dt, ok = checker.run(i, case)
            samples.append(dt)
            oks += ok
        passes += 1
        loop = time.perf_counter() - t_start - in_setup
        if len(setup.walls) < SETUP_LAUNCHES and loop >= every * len(setup.walls):
            in_setup += setup.launch()
        if loop + loop / passes / 2 >= seconds:
            break
    while len(setup.walls) < SETUP_LAUNCHES:
        setup.launch()
    return samples, oks, loop


def end_to_end(workload, seconds, cases):
    setup = Setup()
    checker = Checker(workload)
    for i, case in enumerate(cases[:3]):  # bootstrap and warm caches, untimed
        checker.run(i, case)
    checker.mismatches.clear()
    samples, oks, wall = closed_loop(checker, cases, seconds, setup)
    n = len(samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup.walls), "s", f"median of {SETUP_LAUNCHES} launches"),
        "script_p50_ms": (percentile(samples, 0.5) * 1e3, "ms", f"n={n}"),
        "script_p90_ms": (percentile(samples, 0.9) * 1e3, "ms", f"n={n}"),
        "scripts_per_s": (n / wall, "1/s", f"{n} scripts in {wall:.2f} s"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the workload process"),
        "verdict_ok_share": (oks / n, "share", f"{oks} of {n} scripts"),
    }
    print(f"verdict_fail_share {(n - oks) / n:.6g} ({n - oks} of {n} scripts)")
    return metrics, n, n - oks, checker.mismatches


def measure(workload, seed, seconds, trace, cases):
    """Run one workload; returns the result object the last line prints."""
    info = provenance(workload, seed)
    print("# " + json.dumps(info, sort_keys=True))
    if trace:
        import tracer

        metrics, attempted, failed, mismatches = tracer.traced_run(
            workload, seed, cases, Checker, measure_setup, info
        )
    else:
        metrics, attempted, failed, mismatches = end_to_end(workload, seconds, cases)
    for m in mismatches[:5]:
        print("# verdict mismatch: " + json.dumps(m), file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:8s} {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def validate(result, spec, trace):
    """Problems with a result object, checked against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number of at least 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not a whole number")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metrics missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != want.get(name):
            problems.append(f"{name}: {m} does not match unit {want.get(name)!r}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    return problems


def smoke():
    """One script per workload in both modes, each result validated."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        cases = workloads.corpus(wl, 0, SCRIPTS)[:1]
        for trace in (0, 1):
            result = measure(wl, 0, 0, trace, cases)
            problems += [f"{wl} --trace {trace}: {p}" for p in validate(result, spec, trace)]
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true", help="one script per workload in both modes; validate the output"
    )
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    if args.trace and "PYTHONHASHSEED" not in os.environ:
        # Hash order decides how soon some searches over hypothesis sets
        # stop, so traced counts repeat exactly only under a fixed hash seed.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

    _import_cqe()
    if args.smoke:
        return smoke()
    cases = workloads.corpus(args.workload, args.seed, SCRIPTS)
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace, cases)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
