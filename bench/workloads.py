"""The benchmark's workloads.

Each workload builds its inputs from the seed at set-up, exposes ``ops``
(callables whose calls are timed, one caller at a time), and checks the
outputs afterwards against references that share no code with the package.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from functools import cache, partial
from pathlib import Path

import numpy as np

import oracle

SEARCH_SEEDS = 50  # random samples per entry; the CLI default is 500 (see README)
SIM_STEPS = 1
SIM_BATCH = 3
ACQUISITIONS = ("uniform", "bald", "csd", "batch_bald", "batch_csd")
NOTATION_SHAPES = ((5, 5, 5), (4, 5, 6, 7), (4, 4, 6, 7, 8))  # 125, 840, 5376 cells
REFERENCE = Path(__file__).resolve().parent / "reference" / "sim.json"


class Search:
    """``discinfo search``'s suite at ``SEARCH_SEEDS`` random samples per
    entry, one op per entry (``check_suite`` on a one-entry suite), so each
    entry is timed alone."""

    trace_cycles = 1

    def __init__(self, di, seed, workdir):
        # ops look the function up per call, so the traced run sees its wrapper
        self.ops = [
            partial(lambda suite, r: di.check_suite(suite, seeds=SEARCH_SEEDS, rng_seed=r),
                    di.IdentitySuite((entry,)), 1000 * seed + i)
            for i, entry in enumerate(di.default_suite().entries)
        ]

    def units(self, out):
        return 1

    def digest(self, out):
        return [r.to_json_dict() for r in out]

    def check(self, i, out):
        return all(r.passed for r in out)

    def counts(self, outputs, cycles):
        return {"identities.samples": cycles * sum(r.seeds_tried for out in outputs for r in out)}


class Sim:
    """One op is one ``run_sim`` on ``threshold_task``; its units are the
    points it acquires."""

    def __init__(self, di, seed, workdir, *, pool, acquisitions, trace_cycles):
        self.seed = seed
        self.trace_cycles = trace_cycles
        self.model, points, eval_set = di.threshold_task(pool, seed=seed)
        self.configs = [
            di.SimConfig(
                model=self.model, pool=points, eval_set=eval_set, acquisition=acq,
                batch_size=SIM_BATCH if acq.startswith("batch_") else 1,
                steps=SIM_STEPS, seed=seed,
            )
            for acq in acquisitions
        ]
        self.ops = [partial(lambda cfg: di.run_sim(cfg), cfg) for cfg in self.configs]

    def units(self, out):
        return len(out.rows)

    def digest(self, out):
        return out.rows

    def check(self, i, out):
        cfg, m = self.configs[i], self.model
        want = _golden().get(str(self.seed), {}).get(f"{len(cfg.pool)}/{cfg.acquisition}")
        return oracle.replay_sim(
            m.likelihood, m.prior, cfg.pool, cfg.eval_set, cfg.acquisition, cfg.seed,
            out.rows, m.inputs, m.labels,
        ) and (want is None or _rows_match(out.rows, want))

    def counts(self, outputs, cycles):
        # every run of one config prints the same CSV, so its fields count once
        return {
            "simulate.acquisitions": cycles * sum(self.units(out) for out in outputs),
            "simulate.csv_bad_fields": sum(csv_bad_fields(out.to_csv()) for out in outputs),
        }


def reference_rows(rows):
    return [
        [r.x, r.y, float(r.score), float(r.posterior_entropy), float(r.accuracy), float(r.logloss)]
        for r in rows
    ]


def _rows_match(rows, want):
    got = reference_rows(rows)
    return len(got) == len(want) and all(
        g[:2] == w[:2]
        and all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9) for a, b in zip(g[2:], w[2:]))
        for g, w in zip(got, want)
    )


@cache
def _golden():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def csv_bad_fields(text):
    """Numeric CSV fields (every column but x and y) that ``float()`` rejects."""
    bad = 0
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        for value in fields[:1] + fields[3:]:
            try:
                float(value)
            except ValueError:
                bad += 1
    return bad


class Notation:
    """One op is one in-process ``discinfo`` CLI command with stdout captured."""

    trace_cycles = 8

    def __init__(self, di, seed, workdir):
        from discinfo import cli

        self.cli = cli  # looked up per call, so the traced run sees a wrapped main
        rng = np.random.default_rng(seed)
        self.commands = []  # (argv, check(code, stdout) -> bool)
        for k, shape in enumerate(NOTATION_SHAPES):
            names = [chr(ord("A") + i) for i in range(len(shape))]
            p = _random_tensor(rng, shape)
            q = _random_tensor(rng, shape)
            path = _write_dist(workdir / f"p{k}.json", names, p)
            qpath = _write_dist(workdir / f"q{k}.json", names, q)
            self.commands += _commands(str(path), str(qpath), names, shape, p, q, rng)
        self.ops = [partial(self.run, argv) for argv, _ in self.commands]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def units(self, out):
        return 1

    def digest(self, out):
        return out

    def check(self, i, out):
        return self.commands[i][1](*out)

    def counts(self, outputs, cycles):
        return {}


def _random_tensor(rng, shape):
    cells = rng.exponential(1.0, size=shape) + 1e-3
    return cells / cells.sum()


def _write_dist(path, names, probs):
    doc = {
        "variables": [
            {"name": n, "support": [str(i) for i in range(size)]}
            for n, size in zip(names, probs.shape)
        ],
        "probs": [float(x) for x in probs.ravel()],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _value_check(ref):
    def check(code, stdout):
        try:
            return code == 0 and _close(float(stdout.strip()), ref())
        except ValueError:
            return False
    return check


def _comparison_check(lhs, op, rhs):
    """The README's exit codes: 0 and ``true`` when the comparison holds
    within its 1e-9 slack, 1 and ``false`` when it fails.  Either answer is
    accepted only within 1e-12 of that boundary, a band that the rounding of
    an exact identity (about 1e-15) cannot reach."""
    def check(code, stdout):
        margin = {"==": abs(lhs() - rhs()), "<=": lhs() - rhs(), ">=": rhs() - lhs()}[op] - 1e-9
        got = {(0, "true"): True, (1, "false"): False}.get((code, stdout.strip()))
        if got is None:
            return False
        return abs(margin) < 1e-12 or got == (margin <= 0)
    return check


def _diagram_check(refs):
    def check(code, stdout):
        lines = stdout.strip().splitlines()
        if code != 0 or len(lines) != len(refs):
            return False
        try:
            return all(_close(float(line.split()[-1]), ref()) for line, ref in zip(lines, refs))
        except ValueError:
            return False
    return check


def _commands(path, qpath, names, shape, p, q, rng):
    """The command mix for one distribution file: every node kind of the
    notation, tied outcomes on each side, ``--observe``, ``--base bits``,
    true and false comparisons, and a diagram."""
    o = oracle
    X, Y, Z, W = names[0], names[1], names[2], names[-1]
    x, y, z = X.lower(), Y.lower(), Z.lower()
    oy = int(rng.integers(shape[1]))
    oz = int(rng.integers(shape[2]))
    u = lambda *ns: [(n, None) for n in ns]  # noqa: E731 - untied terms
    H = partial(o.entropy, p, names)
    MI = partial(o.mutual_info, p, names)
    E = partial(o.expectation, p, names)
    # with a fourth variable the body of the 3-variable expectation keeps one untied
    body3 = f"H[{W}|{x},{y},{z}]" if W != Z else f"H[{x},{y}|{z}]"

    def ref_body3(b):
        if W != Z:
            return H(u(W), [(X, b[X]), (Y, b[Y]), (Z, b[Z])])
        return H([(X, b[X]), (Y, b[Y])], [(Z, b[Z])])

    values = [
        (f"H[{X}]", lambda: H(u(X))),
        (f"H[{X},{Y}|{Z}]", lambda: H(u(X, Y), u(Z))),
        (f"H[{X},{y}={oy}|{Z}]", lambda: H(u(X) + [(Y, oy)], u(Z))),
        (f"H[{X}|{y}={oy},{Z}]", lambda: H(u(X), [(Y, oy)] + u(Z))),
        (f"I[{X};{y}={oy}]", lambda: MI([u(X), [(Y, oy)]])),
        (f"I[{y}={oy};{X}]", lambda: MI([[(Y, oy)], u(X)])),
        (f"I[{X};{Y}|{Z}]", lambda: MI([u(X), u(Y)], u(Z))),
        (f"I[{X};{Y};{Z}]", lambda: MI([u(X), u(Y), u(Z)])),
        (f"CE[p({X}|{Y}) || q({X}|{Y})]", lambda: o.cross_entropy(p, q, names, u(X), u(Y))),
        (f"KL[p({X},{Y}) || q({X},{Y})]", lambda: o.kl(p, q, names, u(X, Y))),
        (f"KL[p({X}|{y}={oy}) || q({X}|{y}={oy})]", lambda: o.kl(p, q, names, u(X), [(Y, oy)])),
        (
            f"IC[0.25] + 0.5 * H[{X}] - H[{Y}|{X}]",
            lambda: o.information_content(0.25) + 0.5 * H(u(X)) - H(u(Y), u(X)),
        ),
        (f"E_{{p({x})}}[H[{Y}|{x}]]", lambda: E([X], {}, lambda b: H(u(Y), [(X, b[X])]))),
        (
            f"E_{{p({x},{y}|{z}={oz})}}[H[{W}|{x},{y}]]",
            lambda: E([X, Y], {Z: oz}, lambda b: H(u(W), [(X, b[X]), (Y, b[Y])])),
        ),
        (
            f"E_{{p({x},{y},{z})}}[IC[0.5] + {body3}]",
            lambda: E([X, Y, Z], {}, lambda b: o.information_content(0.5) + ref_body3(b)),
        ),
        (
            f"E_{{p({x})}}[E_{{p({y}|{x})}}[H[{Z}|{x},{y}]]]",
            lambda: E([X], {}, lambda b: E(
                [Y], {X: b[X]}, lambda c: H(u(Z), [(X, c[X]), (Y, c[Y])]),
            )),
        ),
    ]
    commands = [(["eval", "--dist", path, "--q", qpath, e], _value_check(r)) for e, r in values]
    commands.append((
        ["--base", "bits", "eval", "--dist", path, f"H[{X},{Y}|{Z}]"],
        _value_check(lambda: H(u(X, Y), u(Z)) / math.log(2)),
    ))
    commands.append((
        ["eval", "--dist", path, "--observe", f"{Y}={oy}", f"H[{X}|{y}]"],
        _value_check(lambda: H(u(X), [(Y, oy)])),
    ))
    comparisons = [
        (f"H[{X},{Y}] == H[{X}] + H[{Y}|{X}]", lambda: H(u(X, Y)), "==", lambda: H(u(X)) + H(u(Y), u(X))),
        (f"H[{X},{Y}] == H[{X}] + H[{Y}]", lambda: H(u(X, Y)), "==", lambda: H(u(X)) + H(u(Y))),
        (f"H[{X}|{Y}] <= H[{X}]", lambda: H(u(X), u(Y)), "<=", lambda: H(u(X))),
        (f"I[{X};{y}={oy}] >= 0", lambda: MI([u(X), [(Y, oy)]]), ">=", lambda: 0.0),
    ]
    commands += [
        (["eval", "--dist", path, e], _comparison_check(lhs, op, rhs))
        for e, lhs, op, rhs in comparisons
    ]
    xs = u(*[n for n in names if n != Y])
    obs = [(Y, oy)]
    diagram = [
        lambda: H(xs + obs), lambda: H(obs), lambda: H(xs),
        lambda: MI([xs, obs]), lambda: MI([obs, xs]),
        lambda: H(xs, obs), lambda: H(obs, xs),
        lambda: o.cross_entropy(p, p, names, xs, obs, q_head=xs, q_given=()),
    ]
    commands.append((["diagram", "--dist", path, "--observe", f"{Y}={oy}"], _diagram_check(diagram)))
    return commands


def make(name, di, seed, workdir):
    if name == "search":
        return Search(di, seed, workdir)
    if name == "notation":
        return Notation(di, seed, workdir)
    if name == "sim_pool32":
        return Sim(di, seed, workdir, pool=32, acquisitions=ACQUISITIONS, trace_cycles=200)
    acq = name.removeprefix("sim_")
    if acq in ACQUISITIONS:
        cycles = {"uniform": 300, "bald": 60, "csd": 80, "batch_bald": 15, "batch_csd": 30}[acq]
        return Sim(di, seed, workdir, pool=512, acquisitions=(acq,), trace_cycles=cycles)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("search", "notation", "sim_pool32") + tuple(f"sim_{a}" for a in ACQUISITIONS)
