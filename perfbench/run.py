"""Benchmark of the planeaut library: one workload, one seed, one process.

    python3 perfbench/run.py --workload dynamics|decide|largep --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 gives the end-to-end metrics: set-up time (import plus input
generation, the median of several set-ups), then a closed loop, one task
at a time, over the seeded task list for S seconds.  Task times are scaled
to a reference speed (see REF_MS); the wall-clock figures are printed too.

--trace 1 gives the per-layer metrics: a fixed prefix of the task list
(its length depends on S only) runs once untraced and once under the span
tracer of tracer.py, then a few cold command-line processes are timed.
Spans are written to .perfbench_out/ at exit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads
from tasks import Pipeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 5
# About the tasks per second the seed code completes.  A run generates twice
# that many tasks per second of run time, so a faster program still sees
# fresh inputs before the list wraps around; the traced run takes a quarter,
# so that its two passes fill about half the run time.
SEED_RATE = {"dynamics": 4, "decide": 7, "largep": 1}
CLI_PROBES = 5
CLI_MAP = "(2*x1 + x2^3, 1/2*x2)"
# The speed of a shared machine drifts by tens of percent within a minute,
# mostly in memory access: a reference loop that allocates and frees fresh
# objects tracked the tasks' drift better than an arithmetic loop did.
# That loop, independent of the library, is timed between tasks (and before
# each set-up), and each task's time is scaled by how much slower or faster
# the nearby samples ran than REF_MS, a fixed nominal time.  A library change
# cannot move the reference loop, so it shows in full in the scaled figures,
# while the machine's drift mostly cancels.
REF_MS = 4.0
REF_EVERY_S = 0.1     # task time between two reference samples
REF_WINDOW = 7        # samples on each side that a task's scale is taken over


def git_rev():
    """The checked-out commit, read from .git without running git; None outside
    a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    return {"python": platform.python_version(), "git_rev": git_rev(),
            "nproc": os.cpu_count()}


def setup(workload, seed, n):
    """Import the library afresh and generate the inputs; returns
    (library, tasks, import_s, inputs_s), in wall-clock seconds."""
    for name in [m for m in sys.modules if m == "planeaut" or m.startswith("planeaut.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    lib = importlib.import_module("planeaut")
    t1 = time.perf_counter()
    tasks = workloads.WORKLOADS[workload](seed, n)
    t2 = time.perf_counter()
    return lib, tasks, t1 - t0, t2 - t1


def _reference_work():
    fresh = [(i, i + 1, str(i)) for i in range(20000)]
    return len(fresh)


def reference_loop():
    """Seconds one pass of the reference loop takes, freeing included, with
    the cyclic collector off so that the heap the tasks left behind does not
    enter the sample."""
    gc.disable()
    t0 = time.perf_counter()
    _reference_work()
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def run_task(pipeline, task):
    """(seconds, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        reason = pipeline.run(task)
    except Exception as exc:  # every exception is a failed task, never a crash
        reason = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, reason


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def untraced(pipeline, tasks, seconds):
    """Closed loop over the task list until the time is up; at least one task.
    Returns the wall-clock task times, the same scaled to the reference
    speed, the failures, the loop's duration and the reference samples."""
    latencies, sample_of, failures, refs = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    next_ref = start
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if time.perf_counter() >= next_ref:
            refs.append(reference_loop())
            next_ref = time.perf_counter() + REF_EVERY_S
        task = tasks[i % len(tasks)]
        dt, reason = run_task(pipeline, task)
        latencies.append(dt)
        sample_of.append(len(refs) - 1)
        if reason:
            failures.append((task.stratum, reason))
        i += 1
    elapsed = time.perf_counter() - start
    scale = [REF_MS / 1000 / statistics.median(refs[max(0, j - REF_WINDOW):j + REF_WINDOW + 1])
             for j in range(len(refs))]
    scaled = [dt * scale[j] for dt, j in zip(latencies, sample_of)]
    return latencies, scaled, failures, elapsed, refs


def cli_probe(failures):
    """Cold `python -m planeaut.cli classify` processes, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "planeaut.cli", "classify", CLI_MAP],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=60)
        except subprocess.TimeoutExpired:
            failures.append(("cli", "no answer within 60 s"))
            continue
        finally:
            times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or not proc.stdout.startswith("verdict: family I\n"):
            failures.append(("cli", f"exit {proc.returncode}: {proc.stdout[:80]!r}"))
    return statistics.median(times) * 1000


def layer_metrics(tr):
    """The per-layer metrics from a finished trace."""
    cnt, peak = tr.count, tr.peak
    mul_calls = tr.calls_of("poly.MultiPoly.__mul__")
    verdicts = sum(cnt["verdict_" + v] for v in ("yes", "no", "unknown"))
    roots = ("rings.RationalField.sqrt", "rings.RationalField.nth_roots",
             "rings.PrimeField.sqrt", "rings.PrimeField.nth_roots")
    infinity = ("endo.indeterminacy_point", "endo.image_point_at_infinity",
                "endo.InfinityPoint.apply_matrix")
    aut = [n for n in tr.names if n.startswith("endo.PlaneAut.")]
    witness = ("degeneration.degenerate_family_ii", "degeneration.degenerate_family_iii",
               "degeneration.degenerate_family_iv")
    witness_methods = [n for n in tr.names if n.startswith("degeneration.DegenerationWitness.")]
    parse = ("parsing.parse_automorphism", "parsing.parse_polynomial")
    return {
        "rings.root_calls": (tr.calls_of(*roots), "count"),
        "rings.root_s": (tr.self_of(*roots), "s"),
        "rings.scan_elems": (cnt["scan_elems"], "count"),
        "rings.coeff_bits_max": (peak["coeff_bits"], "bits"),
        "rings.self_s": (tr.layer_self("rings"), "s"),
        "poly.mul_calls": (mul_calls, "count"),
        "poly.mul_self_s": (tr.self_of("poly.MultiPoly.__mul__"), "s"),
        "poly.term_products": (cnt["term_products"], "count"),
        "poly.products_per_mul": (cnt["term_products"] / mul_calls if mul_calls else 0.0,
                                  "count"),
        "poly.mul_terms_max": (peak["mul_terms"], "terms"),
        "poly.compose_calls": (tr.calls_of("poly.MultiPoly.compose"), "count"),
        "poly.compose_self_s": (tr.self_of("poly.MultiPoly.compose"), "s"),
        "poly.add_calls": (tr.calls_of("poly.MultiPoly.__add__"), "count"),
        "poly.add_self_s": (tr.self_of("poly.MultiPoly.__add__"), "s"),
        "poly.add_terms_copied": (cnt["add_terms_copied"], "terms"),
        "poly.pow_calls": (tr.calls_of("poly.MultiPoly.__pow__"), "count"),
        "poly.pow_self_s": (tr.self_of("poly.MultiPoly.__pow__"), "s"),
        "poly.str_self_s": (tr.self_of("poly.MultiPoly.__str__", "poly.poly_str"), "s"),
        "poly.self_s": (tr.layer_self("poly"), "s"),
        "endo.compose_calls": (tr.calls_of("endo.Endo.compose"), "count"),
        "endo.compose_self_s": (tr.self_of("endo.Endo.compose"), "s"),
        "endo.degree_max": (peak["endo_degree"], "count"),
        "endo.aut_compose_self_s": (tr.self_of(*aut), "s"),
        "endo.infinity_self_s": (tr.self_of(*infinity), "s"),
        "endo.jacobian_self_s": (tr.self_of("endo.Endo.jacobian"), "s"),
        "endo.self_s": (tr.layer_self("endo"), "s"),
        "amalgam.from_endo_calls": (tr.calls_of("amalgam.plane_aut_from_endo"), "count"),
        "amalgam.from_endo_self_s": (tr.self_of("amalgam.plane_aut_from_endo"), "s"),
        "amalgam.factor_calls": (tr.calls_of("amalgam.jvdk_factor"), "count"),
        "amalgam.factor_self_s": (tr.self_of("amalgam.jvdk_factor"), "s"),
        "amalgam.word_factors": (cnt["word_factors"], "count"),
        "amalgam.reduce_calls": (tr.calls_of("amalgam.reduce_word"), "count"),
        "amalgam.normalize_self_s": (tr.self_of("amalgam.henon_normalize"), "s"),
        "amalgam.self_s": (tr.layer_self("amalgam"), "s"),
        "conjugacy.normal_form_calls": (tr.calls_of("conjugacy.normal_form"), "count"),
        "conjugacy.normal_form_self_s": (tr.self_of("conjugacy.normal_form"), "s"),
        "conjugacy.decide_self_s": (tr.self_of("conjugacy.decide_conjugacy",
                                               "conjugacy.are_conjugate_algebraic"), "s"),
        "conjugacy.solve_self_s": (tr.self_of("conjugacy.solve_scalar_power_system"), "s"),
        "conjugacy.cert_self_s": (tr.self_of("conjugacy.verify_conjugacy_certificate"), "s"),
        "conjugacy.yes": (cnt["verdict_yes"], "count"),
        "conjugacy.no": (cnt["verdict_no"], "count"),
        "conjugacy.unknown": (cnt["verdict_unknown"], "count"),
        "conjugacy.decided_ratio": ((cnt["verdict_yes"] + cnt["verdict_no"]) / verdicts
                                    if verdicts else 0.0, "ratio"),
        "conjugacy.self_s": (tr.layer_self("conjugacy"), "s"),
        "degeneration.witness_calls": (tr.calls_of(*witness), "count"),
        "degeneration.witness_self_s": (tr.self_of(*witness, *witness_methods), "s"),
        "degeneration.xalpha_self_s": (tr.self_of("degeneration.x_alpha"), "s"),
        "degeneration.pole_check_self_s": (tr.self_of("degeneration.pole_propagation_check"),
                                           "s"),
        "degeneration.self_s": (tr.layer_self("degeneration"), "s"),
        "parsing.calls": (tr.calls_of(*parse), "count"),
        "parsing.self_s": (tr.self_of(*parse), "s"),
        "parsing.chars": (cnt["parse_chars"], "count"),
    }


def traced(args, lib, tasks, metrics, env):
    """One untraced and one traced pass over a fixed prefix of the task list."""
    failures = []
    n = math.ceil(args.seconds * SEED_RATE[args.workload] / 4)
    prefix = [tasks[i % len(tasks)] for i in range(n)]

    def one_pass():
        pipeline = Pipeline(lib)
        t0 = time.perf_counter()
        for task in prefix:
            reason = run_task(pipeline, task)[1]
            if reason:
                failures.append((task.stratum, reason))
        return time.perf_counter() - t0

    untraced_s = one_pass()
    tr = tracer.Tracer()
    tracer.install(tr, lib)
    traced_s = one_pass()

    metrics.update(layer_metrics(tr))
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["cli.process_ms"] = (cli_probe(failures), "ms")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.tsv.gz"
    tr.write(path, json.dumps({"workload": args.workload, "seed": args.seed,
                                   "tasks": n, **env}))
    print(f"# spans: {len(tr.span_start)} written to {path.relative_to(ROOT)}")
    return 2 * n, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "planeaut" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'planeaut'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment()
    print(f"# env {json.dumps(env)}")
    pool = max(len(workloads.CYCLES[args.workload]),
               math.ceil(2 * args.seconds * SEED_RATE[args.workload]))
    runs = []
    for _ in range(SETUPS):
        ref = statistics.median(reference_loop() for _ in range(3))
        runs.append((*setup(args.workload, args.seed, pool), REF_MS / 1000 / ref))
    lib, tasks = runs[-1][0], runs[-1][1]
    import_s = statistics.median(r[2] for r in runs)
    inputs_s = statistics.median(r[3] for r in runs)

    metrics = {}
    if args.trace:
        metrics["setup.import_s"] = (import_s, "s")
        metrics["setup.inputs_s"] = (inputs_s, "s")
        attempted, failures = traced(args, lib, tasks, metrics, env)
    else:
        latencies, scaled, failures, elapsed, refs = untraced(Pipeline(lib), tasks,
                                                              args.seconds)
        attempted = len(latencies)
        ms = [x * 1000 for x in scaled]
        p90 = percentile(ms, 90)
        metrics["setup_s"] = (statistics.median((r[2] + r[3]) * r[4] for r in runs), "s")
        metrics["tasks_per_s"] = (attempted / sum(scaled), "1/s")
        metrics["task_p50_ms"] = (statistics.median(ms), "ms")
        metrics["task_p90_ms"] = (p90, "ms")
        metrics["ok_ratio"] = ((attempted - len(failures)) / attempted, "ratio")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
        wall = [x * 1000 for x in latencies]
        wall_setup = statistics.median(r[2] + r[3] for r in runs)
        print(f"# tasks: {attempted} in {elapsed:.3f} s, {sum(x > p90 for x in ms)} beyond p90,"
              f" fail_ratio {len(failures) / attempted}")
        print(f"# wall clock: {attempted / sum(latencies)} tasks/s, p50 {statistics.median(wall)}"
              f" ms, p90 {percentile(wall, 90)} ms, set-up {wall_setup} s")
        print(f"# reference loop: {len(refs)} samples, median {statistics.median(refs) * 1000} ms,"
              f" REF_MS {REF_MS}")

    for stratum, reason in failures[:20]:
        print(f"# FAILED {stratum}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
