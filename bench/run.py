"""discinfo benchmark: one workload, closed loop, one caller at a time.

    python3 bench/run.py --workload search --seed 1 --seconds 7 --trace 0

Builds the workload's inputs from ``--seed`` and checks every output.
``--trace 0`` splits ``--seconds`` of measurement over fresh processes run
one after another and reports the end-to-end metrics; ``--trace 1`` runs a
fixed amount of work untraced and then traced in this process and reports
the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before ``import discinfo``

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20211
WORKERS = 5  # fresh measuring processes per run, one after another
SETUP_ONLY = 4  # fresh processes per run that only set up, between the measuring ones
SLOW_SPEED = 1.25  # a process whose fastest calibration loop is this much slower ran slow
REFERENCE_CALIBRATION_S = 1e-3  # setup_s is scaled to a host where the loop takes this long
IMPORT_SAMPLES = 3
TRACE_ROUNDS = 3
CALIBRATE_EVERY_S = 0.02
MIN_CYCLES = 2  # so each op's fastest call in a process has at least two chances


def _import_package():
    """Import discinfo from this checkout's sources, never from elsewhere."""
    if not (SRC / "discinfo" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {SRC / 'discinfo'}")
    sys.path.insert(0, str(SRC))
    import discinfo

    if Path(discinfo.__file__).resolve().parent != (SRC / "discinfo").resolve():
        sys.exit(f"error: imported discinfo from {discinfo.__file__}, not {SRC}")
    return discinfo


def _worker(args, setup_only=False):
    """Measure in a fresh interpreter for a share of the run, or only set up
    there; return its report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / WORKERS)]
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        sys.exit(f"error: measuring process failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _import_times():
    """(import discinfo, import scipy.special) in seconds, from ``-X importtime``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import discinfo"
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return cumulative.get("discinfo", 0.0), cumulative.get("scipy.special", 0.0)


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        name = "unknown"
    threads = next((f"{v}={os.environ[v]}" for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    if v in os.environ), f"unset (library default, nproc={os.cpu_count()})")
    return name, threads


def environment(args):
    import numpy as np

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown"  # also when ROOT sits inside some other repository
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            rev = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    blas, threads = _blas()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version, "blas": blas, "blas_threads": threads,
        "git_revision": rev,
    }


@functools.cache
def _calibration_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    p = rng.exponential(size=(4, 4, 6, 7, 8))
    lik = rng.random((129, 128, 2))
    pool = [(x, 0) for x in range(128)]
    return p / p.sum(), lik / lik.sum(axis=2, keepdims=True), np.full(129, 1 / 129), pool


def calibration_loop():
    """Fixed work shaped like the package's, using no discinfo code: the
    oracle's conditional entropies on a 5376-cell tensor and its bald scores
    for a 128-point pool.  Its fastest time tracks how fast the host runs
    such code at that moment; host slowdowns stretch it by about as much as
    they stretch the workloads' ops, which tighter loops do not."""
    import oracle

    p, lik, post, pool = _calibration_inputs()
    for head in "ABC":
        oracle.entropy(p, "ABCDE", [(head, None)], [("E", None)])
    oracle.acquisition_scores("bald", lik, post, list(range(128)), pool, [])


def run_ops(wl, cycles=None, seconds=None, before=None):
    """Run whole cycles of ``wl.ops``, one call at a time, for ``cycles``, or
    until ``seconds`` pass and at least ``MIN_CYCLES`` are done, calling
    ``before()`` untimed before each op.

    Returns (seconds of each call, per op), the first output of each op, the
    number of cycles, and how many repeated calls returned an output that
    differs from the op's first."""
    times = [[] for _ in wl.ops]
    first, changed, done = [], 0, 0
    start = time.perf_counter()
    while True:
        for i, op in enumerate(wl.ops):
            if before is not None:
                before()
            t = time.perf_counter()
            out = op()
            times[i].append(time.perf_counter() - t)
            if done == 0:
                first.append((out, wl.digest(out)))
            elif wl.digest(out) != first[i][1]:
                changed += 1
        done += 1
        if cycles is not None and done >= cycles:
            break
        if (seconds is not None and done >= MIN_CYCLES
                and time.perf_counter() - start >= seconds):
            break
    return times, [out for out, _ in first], done, changed


def failed_ops(wl, first, cycles, changed):
    """Failed calls: a wrong first output fails every repetition of its op."""
    return changed + cycles * sum(1 for i, out in enumerate(first) if not wl.check(i, out))


def measure(args, wl, setup_s):
    """One measuring process's report: set-up time, each op's fastest call,
    the calibration loop's fastest call, units, peak RSS, and failures."""
    calibration, last = [], 0.0

    def calibrate():
        nonlocal last
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            t = time.perf_counter()
            calibration_loop()
            last = time.perf_counter()
            calibration.append(last - t)

    times, first, cycles, changed = run_ops(wl, seconds=args.seconds, before=calibrate)
    return {
        "setup_s": setup_s,
        "best_s": [min(ts) for ts in times],
        "calibration_s": min(calibration),
        "units": [wl.units(out) for out in first],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cycles": cycles,
        "attempted": cycles * len(wl.ops),
        "failed": failed_ops(wl, first, cycles, changed),
        "counts": wl.counts(first, cycles),
    }


def end_to_end(args):
    """Split the run over fresh processes and combine them with medians.

    Set-up happens once per process and cannot be repeated in it, and one
    set-up varies by about 20 % from one process to the next, so processes
    that only set up run between the measuring ones.  ``setup_s`` is the
    median over all of them, scaled by the run's fastest calibration loop to
    a host on which that loop takes ``REFERENCE_CALIBRATION_S``: the speed
    of the host can change by a third from one minute to the next.

    Neighbours on a shared host slow the CPU.  A process runs for seconds at
    one of two speeds: its fastest calibration loop takes about 1.0-1.15 ms,
    or 1.4-1.6 ms.  Within a process, the fastest call of each op drops short
    bursts, and dividing it by the fastest calibration loop of the same
    process takes out most of the speed the process ran at, but not all of
    it.  So costs come from the processes whose fastest calibration loop is
    within ``SLOW_SPEED`` of the run's fastest, and each is the median over
    them, which also drops the bias that memory layout gives one process."""
    reports, setups = [], []
    for k in range(WORKERS):
        reports.append(_worker(args))
        if k < SETUP_ONLY:
            setups.append(_worker(args, setup_only=True)["setup_s"])
    setups += [r["setup_s"] for r in reports]
    fastest = min(r["calibration_s"] for r in reports)
    fast = [r for r in reports if r["calibration_s"] <= SLOW_SPEED * fastest]
    cost = [statistics.median(col) for col in
            zip(*([b / r["calibration_s"] for b in r["best_s"]] for r in fast))]
    best_ms = [1e3 * statistics.median(col) for col in zip(*(r["best_s"] for r in fast))]
    units = reports[0]["units"]
    metrics = {
        "setup_s": (statistics.median(setups) * REFERENCE_CALIBRATION_S / fastest, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        "unit_cost": (sum(cost) / sum(units), "cal_loops"),
        "op_cost_p50": (statistics.median(c / u for c, u in zip(cost, units)), "cal_loops"),
    }
    counts = dict(reports[0]["counts"])
    if "simulate.acquisitions" in counts:
        counts["simulate.acquisitions"] = sum(r["counts"]["simulate.acquisitions"] for r in reports)
    notes = {
        "counts": counts,
        "cycles": [r["cycles"] for r in reports],
        "setup_s": setups,
        "uncalibrated_setup_s": statistics.median(setups),
        "calibration_ms": [1e3 * r["calibration_s"] for r in reports],
        "fast_processes": len(fast),
        # medians over the fast processes of the fastest calls, not divided by the calibration
        "uncalibrated_unit_ms": sum(best_ms) / sum(units),
        "uncalibrated_op_ms_p50": statistics.median(b / u for b, u in zip(best_ms, units)),
    }
    return metrics, sum(r["attempted"] for r in reports), sum(r["failed"] for r in reports), notes


def per_layer(args, wl):
    """Per-layer metrics of ``wl.trace_cycles`` cycles, from the spans of a
    traced pass.  Untraced and traced passes alternate, and the overhead is
    the fastest traced pass over the fastest untraced one."""
    import layers

    cycles = wl.trace_cycles
    _, first, _, failed = run_ops(wl, cycles=cycles)  # warm-up, and the outputs to check
    failed += failed_ops(wl, first, cycles, 0)
    plain, traced = [], []
    for _ in range(TRACE_ROUNDS):
        t = time.perf_counter()
        run_ops(wl, cycles=cycles)
        plain.append(time.perf_counter() - t)
        tracer = layers.Tracer()
        with tracer.installed():
            t = time.perf_counter()
            _, traced_first, _, changed = run_ops(wl, cycles=cycles)
            traced.append(time.perf_counter() - t)
        failed += changed + sum(1 for a, b in zip(first, traced_first)
                                if wl.digest(a) != wl.digest(b))
    imports = [_import_times() for _ in range(IMPORT_SAMPLES)]
    counts = wl.counts(traced_first, cycles)
    metrics = layers.layer_metrics(tracer.spans, counts)
    metrics["init.import_s"] = (statistics.median(i[0] for i in imports), "s")
    metrics["init.scipy_import_s"] = (statistics.median(i[1] for i in imports), "s")
    overhead = min(traced) / min(plain)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    out = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    layers.write_spans(tracer.spans, out)
    print(f"traced {cycles} cycle(s): fastest of {TRACE_ROUNDS} passes {min(plain):.3f} s "
          f"untraced, {min(traced):.3f} s traced (overhead x{overhead:.3f}); "
          f"{len(tracer.spans)} spans of the last pass written to {out}")
    return metrics, cycles * len(wl.ops), failed, {"counts": counts}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=7.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.worker or args.trace:
        di = _import_package()
        workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            wl = workloads.make(args.workload, di, args.seed, workdir)
            setup_s = time.perf_counter() - T0
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            if args.worker:
                print(json.dumps(measure(args, wl, setup_s)))
                return 0
            metrics, attempted, failed, notes = per_layer(args, wl)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    else:
        metrics, attempted, failed, notes = end_to_end(args)

    env = environment(args)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(
        json.dumps({"environment": env, **result, "notes": notes}, indent=2) + "\n",
        encoding="utf-8")
    for key, value in notes.items():
        if key != "counts":
            print(f"{key}: {value}")
    for key, (value, unit) in metrics.items():
        print(f"{key:36s} {value:14.6g} {unit}")
    print(f"failed_share {failed}/{attempted} = {failed / attempted:.4g}")
    bad = notes["counts"].get("simulate.csv_bad_fields")
    if bad is not None:
        print(f"sim.csv_bad_fields {bad} "
              "(numeric CSV fields float() rejects; not counted as failures)")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
