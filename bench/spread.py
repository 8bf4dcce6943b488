"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py [--workloads search notation]
    python3 bench/spread.py --trace-check [--workloads ...]

Each workload runs 10 times, on seeds 1 to 10, one run after another, for
BENCHMARK.json's ``run_seconds``.  For every workload and end-to-end metric
this prints the median of the runs and the spread, the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json.  It then
prints the end-to-end metrics under their per-workload names
(``search.wall_cost``, ``sim.bald_cost_per_acq``, ...), with
``failed_share`` per workload.

``--trace-check`` instead makes two traced runs per workload at seed 1,
checks that every count metric repeats exactly, and prints the tracing
overhead of each run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = 10
FIRST_SEED = 1

# the per-workload name of a (workload, metric) pair, and its scale
NAMED = {
    ("search", "unit_cost"): ("search.wall_cost", 43),  # 43 entries in one suite pass
    ("sim_uniform", "unit_cost"): ("sim.uniform_cost_per_acq", 1),
    ("sim_bald", "unit_cost"): ("sim.bald_cost_per_acq", 1),
    ("sim_csd", "unit_cost"): ("sim.csd_cost_per_acq", 1),
    ("sim_batch_bald", "unit_cost"): ("sim.batch_bald_cost_per_acq", 1),
    ("sim_batch_csd", "unit_cost"): ("sim.batch_csd_cost_per_acq", 1),
    ("sim_pool32", "unit_cost"): ("sim.pool32_cost_per_acq", 1),
    ("notation", "op_cost_p50"): ("notation.cmd_cost_p50", 1),
    ("notation", "unit_cost"): ("notation.cmd_cost_mean", 1),
}


def run_once(workload, seed, trace=0):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args()
    if args.trace_check:
        return trace_check(args)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    named, worst, worst_setup = [], 0.0, 0.0
    for workload in args.workloads:
        results = [run_once(workload, FIRST_SEED + k) for k in range(RUNS)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {RUNS} runs, correct={all(r['correct'] for r in results)}, "
              f"failed_share={failed}/{attempted}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            if metric == "setup_s":
                worst_setup = max(worst_setup, spread / bound)
            else:
                worst = max(worst, spread / bound)
            print(f"  {metric:12s} median {median:12.6g} {unit:3s} spread {spread:7.2%} "
                  f"(bound {bound:.0%}, {'ok' if spread < bound / 3 else 'WIDE'})")
            name, scale = NAMED.get((workload, metric), (f"{workload}.{metric}", 1))
            named.append((name, median * scale, unit))
        named.append((f"{workload}.failed_share", failed / attempted, "share"))
    print("\nend-to-end metrics by name (medians over the runs):")
    for name, value, unit in named:
        print(f"  {name:30s} {value:12.6g} {unit}")
    print(f"\nwidest spread, as a share of its bound: {worst:.2f}, "
          f"and {worst_setup:.2f} for setup_s, which has no spread limit")
    return 0


def trace_check(args):
    ok = True
    for workload in args.workloads:
        a, b = (run_once(workload, FIRST_SEED, trace=1) for _ in range(2))
        counts = [k for k, m in a["metrics"].items() if m["unit"] == "count"]
        differ = [k for k in counts if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        ok = ok and not differ and a["correct"] and b["correct"]
        overhead = [r["metrics"]["trace.overhead_ratio"]["value"] for r in (a, b)]
        print(f"{workload}: {len(counts)} counts, {'all repeat' if not differ else f'DIFFER: {differ}'}; "
              f"tracing overhead x{overhead[0]:.3f}, x{overhead[1]:.3f}; "
              f"correct={a['correct'] and b['correct']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
