"""Regenerate bench/reference/sim.json, the simulator rows the benchmark
expects at the default and held-out seeds.

    python3 bench/make_reference.py

Run it only when a change to the simulator's output is intended; the rows
pin the acquired (x, y) sequence, including tie-breaking, exactly.
"""

import json
import sys

import run
import workloads


def main():
    di = run._import_package()
    doc = {}
    for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
        rows = {}
        for pool in (512, 32):
            sim = workloads.Sim(di, seed, None, pool=pool, acquisitions=workloads.ACQUISITIONS,
                                trace_cycles=1)
            for cfg, op in zip(sim.configs, sim.ops):
                rows[f"{pool}/{cfg.acquisition}"] = workloads.reference_rows(op().rows)
        doc[str(seed)] = rows
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    sys.exit(main())
