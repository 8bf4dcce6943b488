"""Outside-in layer tracing for the benchmark's traced run.

The tracer replaces the public entry points of each ``discinfo`` module,
wherever the package binds them, with wrappers that record one span per call
(name, start, end, parent, note, exception) in memory; nothing under
``src/`` changes.  A span's self time is its duration minus its direct
children's durations, so the self times of all spans add up to the traced
wall time of the outermost ones.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# layer -> public functions traced as "<layer>.<function>"
ENTRY_POINTS = {
    "dist": ("load_distribution", "dump_distribution", "marginalize", "condition", "product",
             "prob_of", "scale", "power", "multiply", "mixture"),
    "quantities": ("entropy", "cross_entropy", "kl_divergence", "mutual_info", "triple_mi",
                   "expected_marginal_ic", "information_content", "evaluate_query", "diagram"),
    "expr": ("parse", "evaluate", "format_expression", "collect_identifiers",
             "free_tied_identifiers"),
    "identities": ("check_suite", "check_entry", "random_distribution", "grid_distributions",
                   "default_suite", "parse_suite_file", "verify_reference_witnesses"),
    "bayes": ("posterior", "log_evidence", "update", "predictive", "joint_label_hypothesis",
              "bald", "csd", "surprise", "csd_decomposition", "batch_score", "load_model"),
    "simulate": ("run_sim", "threshold_task", "load_config"),
    "cli": ("main",),
}
# constructors traced as "dist.construct"
CONSTRUCTED = ("JointDistribution", "UnnormalizedWeight")
# failures the identity search skips silently
SKIPPED = ("ZeroProbabilityEvent", "SupportMismatch")


def _cells(d, *args, **kwargs):
    probs = getattr(d, "probs", None)
    return probs.size if probs is not None else 0


def _programmatic(entry, *args, **kwargs):
    return getattr(entry, "check", None) is not None


NOTES = {"quantities": _cells, "identities.check_entry": _programmatic}

NAME, START, END, PARENT, NOTE, ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    note(*args, **kwargs) if note else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[END] = clock()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "discinfo" or n.startswith("discinfo."))]
        undo = []
        try:
            for layer, names in ENTRY_POINTS.items():
                mod = importlib.import_module(f"discinfo.{layer}")
                for fn_name in names:
                    fn = getattr(mod, fn_name, None)
                    if fn is None:
                        print(f"trace: discinfo.{layer}.{fn_name} not found; not traced",
                              file=sys.stderr)
                        continue
                    note = NOTES.get(f"{layer}.{fn_name}", NOTES.get(layer))
                    wrapped = self.wrap(f"{layer}.{fn_name}", fn, note)
                    for m in modules:  # every module that bound the function by name
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                undo.append((m, attr, fn))
                                setattr(m, attr, wrapped)
            dist = importlib.import_module("discinfo.dist")
            for cls_name in CONSTRUCTED:
                cls = getattr(dist, cls_name)
                undo.append((cls, "__init__", cls.__init__))
                cls.__init__ = self.wrap("dist.construct", cls.__init__)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _self_times(spans):
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) / 1e9 for s, c in zip(spans, child)]


def layer_metrics(spans, counts):
    """Every per-layer metric, as {name: (value, unit)}.

    ``calls`` of a layer counts entries into it from another layer (or from
    the benchmark), so nested calls inside one layer are not double counted.
    Per-call times are inclusive means in microseconds, and 0 for a function
    the workload never calls."""
    self_s = _self_times(spans)
    layer = [s[NAME].split(".", 1)[0] for s in spans]

    def named(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def mean_us(idx):
        return statistics.fmean((spans[i][END] - spans[i][START]) / 1e3 for i in idx) if idx else 0.0

    def layer_self(name):
        return sum(t for t, lay in zip(self_s, layer) if lay == name)

    def entries(name):
        return [i for i, s in enumerate(spans)
                if layer[i] == name and (s[PARENT] < 0 or layer[s[PARENT]] != name)]

    construct, load = named("dist.construct"), named("dist.load_distribution")
    q_entries = entries("quantities")
    parse, evaluate = named("expr.parse"), named("expr.evaluate")
    eval_failed = sum(1 for i in evaluate if spans[i][ERROR] in SKIPPED)
    eval_useful = sum(1 for i in evaluate if spans[i][ERROR] is None)
    bald, csd, batch = named("bayes.bald"), named("bayes.csd"), named("bayes.batch_score")
    predictive, update = named("bayes.predictive"), named("bayes.update")
    score_calls = len(bald) + len(csd) + len(batch)
    acquisitions = counts.get("simulate.acquisitions", 0)
    main = named("cli.main")
    return {
        "dist.construct_calls": (len(construct), "count"),
        "dist.construct_us": (mean_us(construct), "us"),
        "dist.load_calls": (len(load), "count"),
        "dist.load_us": (mean_us(load), "us"),
        "quantities.calls": (len(q_entries), "count"),
        "quantities.self_s": (layer_self("quantities"), "s"),
        "quantities.us_per_call": (mean_us(q_entries), "us"),
        "quantities.cells_per_call": (
            statistics.fmean(spans[i][NOTE] for i in q_entries) if q_entries else 0.0, "count"),
        "expr.parse_calls": (len(parse), "count"),
        "expr.parse_us": (mean_us(parse), "us"),
        "expr.evaluate_calls": (len(evaluate), "count"),
        "expr.evaluate_self_s": (sum(self_s[i] for i in evaluate), "s"),
        "expr.evaluate_failed": (eval_failed, "count"),
        "expr.evaluate_useful_ratio": (eval_useful / len(evaluate) if evaluate else 0.0, "ratio"),
        "identities.samples": (counts.get("identities.samples", 0), "count"),
        "identities.random_dist_us": (mean_us(named("identities.random_distribution")), "us"),
        "identities.programmatic_s": (
            sum((spans[i][END] - spans[i][START]) / 1e9
                for i in named("identities.check_entry") if spans[i][NOTE]), "s"),
        "identities.self_s": (layer_self("identities"), "s"),
        "bayes.bald_us": (mean_us(bald), "us"),
        "bayes.csd_us": (mean_us(csd), "us"),
        "bayes.batch_score_us": (mean_us(batch), "us"),
        "bayes.score_calls": (score_calls, "count"),
        "bayes.predictive_calls": (len(predictive), "count"),
        "bayes.predictive_us": (mean_us(predictive), "us"),
        "bayes.update_calls": (len(update), "count"),
        "bayes.update_us": (mean_us(update), "us"),
        "simulate.acquisitions": (acquisitions, "count"),
        "simulate.candidates_per_acquisition": (
            score_calls / acquisitions if acquisitions else 0.0, "count"),
        "simulate.self_s": (layer_self("simulate"), "s"),
        "simulate.csv_bad_fields": (counts.get("simulate.csv_bad_fields", 0), "count"),
        "cli.commands": (len(main), "count"),
        "cli.self_us": (statistics.fmean(self_s[i] * 1e6 for i in main) if main else 0.0, "us"),
    }


def write_spans(spans, path):
    """Write the spans as gzipped CSV: id, parent, name, start_ns, end_ns, note, error."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", newline="", compresslevel=1) as fh:
        out = csv.writer(fh)
        out.writerow(["id", "parent", "name", "start_ns", "end_ns", "note", "error"])
        for i, s in enumerate(spans):
            out.writerow([i, s[PARENT], s[NAME], s[START], s[END], s[NOTE], s[ERROR] or ""])
