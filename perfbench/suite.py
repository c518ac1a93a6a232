"""Run every workload, each in a fresh process, and print its metrics.

    python3 perfbench/suite.py [--trace]
    python3 perfbench/suite.py --check

The first form prints the end-to-end metrics (with --trace, the per-layer
metrics) of dynamics, decide and largep by name and unit, for seed 1 and
the run length of BENCHMARK.json; run.py takes any other seed or length.  --check is the
self-check of the benchmark: every workload runs at a tiny size, untraced
and traced, and every metric named in BENCHMARK.json must be present with
its unit and no task may fail.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [ln for ln in lines[:-1] if ln.startswith("# ")]


def check(spec):
    problems = []
    for wl in spec["workloads"]:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run(wl["name"], 1, 1, trace)
            got = result["metrics"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{wl['name']}: result keys {sorted(result)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{wl['name']} trace={int(trace)}: {result['failed']} of "
                                f"{result['attempted']} tasks failed")
            for m in spec[kind]:
                if m["name"] not in got:
                    problems.append(f"{wl['name']}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{wl['name']}: {m['name']} in {got[m['name']]['unit']}")
            extra = set(got) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{wl['name']}: metrics not in BENCHMARK.json {sorted(extra)}")
            print(f"{wl['name']:9s} trace={int(trace)} attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(got)}")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.check:
        return check(spec)
    for wl in spec["workloads"]:
        result, notes = run(wl["name"], 1, spec["run_seconds"], args.trace)
        print(f"== {wl['name']}: {wl['why']}")
        for note in notes:
            if note.startswith(("# env", "# tasks:", "# FAILED")):
                print("  " + note[2:])
        print(f"  attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {result['failed'] / result['attempted']}")
        for name, m in result["metrics"].items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
