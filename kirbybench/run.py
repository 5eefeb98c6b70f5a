"""kirby4 decision benchmark.

    python3 kirbybench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 kirbybench/run.py --baseline

Run from the root of a kirby4 checkout; kirby4 is imported from ./src.
One process and one thread decide one case at a time (a closed loop).  A
run repeats whole passes over the workload's seeded case list until S
seconds have passed and at least MIN_DECISIONS decisions were timed, so
every pass holds the same cases and failure shares repeat exactly.  Each
decision is timed from its input bytes to its verdict, under a wall-time
budget enforced with an interval timer.  A verdict that differs from the
case's answer ends the run with exit code 1 and no metrics.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1 the run spends half of S untraced and half traced, writes the
spans to kirbybench/out/, and the last line holds the per-layer metrics.
--baseline runs the roadmap.* cases once each and prints their table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("links_ks", "forms_definite", "forms_indefinite", "homeo_corpus")
MIN_DECISIONS = 100  # so that at least ten samples lie beyond the p90
SETUPS = 5  # set-up repetitions; setup_s is their median
WARMUP_CASES = 3  # the first cases of each list, all cheap


class BudgetExceeded(BaseException):
    """Raised from the interval-timer signal when a decision overruns its budget."""


def _on_alarm(signum, frame):
    raise BudgetExceeded


def kirby4_src() -> Path:
    src = ROOT / "src"
    if not (src / "kirby4" / "__init__.py").is_file():
        raise SystemExit(f"kirbybench: no kirby4 sources under {src}")
    return src


class Kirby4:
    """The kirby4 modules, looked up at call time so that tracing patches apply."""

    def __init__(self):
        src = kirby4_src()
        if sys.path[0] != str(src):
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules if m == "kirby4" or m.startswith("kirby4.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        for layer in ("errors", "matrices", "diagram", "forms", "knot", "invariants",
                      "classify", "cli", "fixtures"):
            setattr(self, layer, importlib.import_module(f"kirby4.{layer}"))
        if not Path(self.cli.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"kirbybench: kirby4 imported from {self.cli.__file__}")


# --- decisions: input bytes -> verdict ---------------------------------------


def _matrix(k, data):
    return k.matrices.SymIntMatrix.from_rows(json.loads(data)["entries"])


def decide_links(k, case):
    inv = k.invariants.kirby_siebenmann(k.diagram.parse_framed_link(case.inputs[0]))
    return (inv.ks, inv.signature, inv.form.entries)


def decide_definite(k, case):
    v, w = (_matrix(k, d) for d in case.inputs)
    return k.forms.congruent_with_witness(v, w)


def decide_indefinite(k, case):
    v, w = (_matrix(k, d) for d in case.inputs)
    c = k.forms.classify(v)
    ok, _ = k.forms.congruent_with_witness(v, w)
    return (c.rank, c.signature, c.parity, c.definiteness, ok)


def decide_homeo(k, case):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = k.cli.run(case.inputs[0])
    return (code, json.loads(out.getvalue())["homeomorphic"] if code == 0 else None)


def check_definite(case, got):
    ok, witness = got
    if ok != case.expect or ok != (witness is not None):
        return False
    if not ok:
        return True
    v, w = (json.loads(d)["entries"] for d in case.inputs)
    a = [list(r) for r in witness]
    return workloads.gram(v, a) == w and abs(workloads.det(a)) == 1


DECIDE = {"links_ks": decide_links, "forms_definite": decide_definite,
          "forms_indefinite": decide_indefinite, "homeo_corpus": decide_homeo}


def check(workload, case, got):
    if workload == "forms_definite":
        return check_definite(case, got)
    return got == case.expect


# --- set-up --------------------------------------------------------------------


def build(name, seed, k, work_dir):
    if name == "links_ks":
        return workloads.links_ks(seed, k)
    if name == "forms_definite":
        return workloads.forms_definite(seed)
    if name == "forms_indefinite":
        return workloads.forms_indefinite(seed)
    return workloads.homeo_corpus(seed, k, work_dir)


def setup(name, seed, work_dir):
    """Fresh kirby4 import, input generation and warm-up; returns (k, workload)."""
    k = Kirby4()
    wl = build(name, seed, k, work_dir)
    for case in wl.cases[:WARMUP_CASES]:
        attempt(k, DECIDE[name], case, wl.budget_s)
    return k, wl


# --- measurement ---------------------------------------------------------------


def attempt(k, decide, case, budget):
    """Run one decision under the budget: (seconds, status, verdict)."""
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            got = decide(k, case)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        elapsed = perf_counter() - start
        # The frames the timer interrupted hold reference cycles; left to the
        # collector they are freed pass by pass later, and peak_rss_mb would
        # grow with the number of passes a run makes.
        gc.collect()
        return elapsed, "budget", None
    except k.errors.InputError:
        return perf_counter() - start, "input_error", None
    except k.errors.ResourceLimitExceeded:
        return perf_counter() - start, "resource_limit", None
    except Exception:
        elapsed = perf_counter() - start
        traceback.print_exc()
        return elapsed, "error", None
    return perf_counter() - start, "ok", got


class WrongVerdict(Exception):
    pass


def measure(k, wl, seconds, rng, min_decisions, tracer=None):
    """Whole passes over the shuffled cases until `seconds` and `min_decisions` are met."""
    decide = DECIDE[wl.name]
    times, failed, tripped, passes = [], 0, set(), 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds or len(times) < min_decisions:
        order = list(wl.cases)
        rng.shuffle(order)
        for case in order:
            if tracer is not None:
                tracer.begin(len(times))
            elapsed, status, got = attempt(k, decide, case, wl.budget_s)
            if tracer is not None:
                tracer.end()
            times.append(elapsed)
            if status == "ok":
                if case.expect_error or not check(wl.name, case, got):
                    raise WrongVerdict(f"{wl.name}/{case.name}: expected "
                                       f"{'InputError' if case.expect_error else case.expect!r}"
                                       f", got {got!r}")
            elif not (status == "input_error" and case.expect_error):
                failed += 1
                if status == "budget":
                    tripped.add(case.name)
        passes += 1
    wall = perf_counter() - start
    return {"times": times, "failed": failed, "tripped": tripped, "passes": passes,
            "wall": wall}


def end_to_end(result, setup_times):
    times = result["times"]
    attempted, failed = len(times), result["failed"]
    return {
        "decide_ms_p50": (1000.0 * statistics.median(times), "ms"),
        "decide_ms_p90": (1000.0 * statistics.quantiles(times, n=10)[-1], "ms"),
        "decisions_per_s": ((attempted - failed) / result["wall"], "1/s"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


PER_LAYER_UNITS = {"_ms": "ms", "_calls": "count", "_bits": "bits", "_growth": "ratio",
                   "_useful": "ratio", "_overhead": "ratio"}


def _unit(metric):
    return next((u for suffix, u in PER_LAYER_UNITS.items() if metric.endswith(suffix)), "count")


def run(args) -> int:
    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        setup_times = []
        for i in range(SETUPS):
            work_dir = work_root / str(i)
            work_dir.mkdir()
            t0 = perf_counter()
            k, wl = setup(args.workload, args.seed, work_dir)
            setup_times.append(perf_counter() - t0)
        rng = random.Random(args.seed)
        try:
            if not args.trace:
                result = measure(k, wl, args.seconds, rng, MIN_DECISIONS)
                metrics = end_to_end(result, setup_times)
            else:
                plain = measure(k, wl, args.seconds / 2, rng, 0)
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced = measure(k, wl, args.seconds / 2, rng, 0, tracer)
                finally:
                    tracer.uninstall()
                tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
                result = traced
                layer = tracer.metrics(len(traced["times"]), traced["passes"])
                layer["bench.budget_trips"] = len(traced["tripped"])
                layer["bench.trace_overhead"] = ((len(plain["times"]) / plain["wall"])
                                                 / (len(traced["times"]) / traced["wall"]))
                metrics = {m: (v, _unit(m)) for m, v in layer.items()}
        except WrongVerdict as exc:
            print(f"kirbybench: wrong verdict: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print(f"kirbybench: {args.workload} seed {args.seed}: {len(result['times'])} decisions in "
          f"{result['passes']} passes of {len(wl.cases)} cases, {result['failed']} failed, "
          f"budget {wl.budget_s} s tripped by {sorted(result['tripped'])}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": len(result["times"]),
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def baseline() -> int:
    """The ROADMAP baseline rows: each roadmap.* case once, traced, under its budget."""
    OUT.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        k = Kirby4()
        print("| case | outcome | ms | Kc crossings (from) | short vectors | diag bits |")
        print("|---|---|---|---|---|---|")
        for name in WORKLOADS:
            wl = build(name, 0, k, work_root)
            for case in wl.cases:
                if not case.name.startswith("roadmap."):
                    continue
                tracer = spans.Tracer()
                tracer.install()
                try:
                    tracer.begin(0)
                    elapsed, status, got = attempt(k, DECIDE[name], case, wl.budget_s)
                    tracer.end()
                finally:
                    tracer.uninstall()
                if status == "ok" and not check(name, case, got):
                    print(f"kirbybench: wrong verdict on {case.name}: {got!r}", file=sys.stderr)
                    return 1
                c = tracer.counts
                outcome = f"tripped {wl.budget_s} s budget" if status == "budget" else status
                print(f"| {case.name} | {outcome} | {1000 * elapsed:.1f} | "
                      f"{c['kc_crossings']} ({c['sublink_crossings']}) | {c['short_vectors']} | "
                      f"{tracer.maxima['diag_bits']} |")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args(argv)
    kirby4_src()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.baseline:
        return baseline()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
