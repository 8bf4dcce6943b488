"""Command-line front end.

Subcommands: ``eval``, ``diagram``, ``check``, ``search``, ``verify-paper``,
``stirling``, ``sim``.  Exit codes: 0 on success, 1 when a verification
fails, 2 on usage errors (bad flags, unreadable files, malformed
expressions).  ``--log-level`` sets what the package logs to stderr:
``INFO`` adds one line per searched entry, ``DEBUG`` each simulator step.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .dist import DEFAULT_SEEDS, Assignment, load_distribution
from .errors import CounterexampleMismatch, DiscinfoError, ParseError
from .quantities import LogBase


def _base(args) -> LogBase:
    return LogBase(args.base)


def _parse_observe(text: str) -> dict:
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"--observe entries look like NAME=OUTCOME, got {piece!r}")
        name, label = piece.split("=", 1)
        out[name.strip()] = label.strip()
    return out


def _cmd_eval(args) -> int:
    from .expr import evaluate

    d = load_distribution(args.dist)
    q = load_distribution(args.q) if args.q else None
    bindings = None
    if args.observe:
        bindings = Assignment.from_labels(d, _parse_observe(args.observe)).as_dict()
    value = evaluate(args.expression, d, q=q, bindings=bindings, base=_base(args))
    if isinstance(value, bool):
        print("true" if value else "false")
        return 0 if value else 1
    print(f"{value:.12g}")
    return 0


def _cmd_diagram(args) -> int:
    from .expr import diagram

    d = load_distribution(args.dist)
    a = Assignment.from_labels(d, _parse_observe(args.observe))
    table = diagram(d, a, base=_base(args))
    width = max(len(label) for label, _ in table.rows())
    for label, value in table.rows():
        print(f"{label:<{width}}  {value:.12g}")
    return 0


def _run_suite(suite, args) -> int:
    from .identities import check_suite

    reports = check_suite(suite, seeds=args.seeds, rng_seed=args.rng_seed)
    for report in reports:
        print(report.format_line())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_json_dict() for r in reports], fh, indent=2)
            fh.write("\n")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} entries passed")
    return 1 if failed else 0


def _cmd_check(args) -> int:
    from .identities import parse_suite_file

    with open(args.suite, "r", encoding="utf-8") as fh:
        suite = parse_suite_file(fh.read())
    return _run_suite(suite, args)


def _cmd_search(args) -> int:
    from .identities import default_suite

    return _run_suite(default_suite(), args)


def _cmd_verify_paper(args) -> int:
    from .identities import verify_reference_witnesses

    try:
        report = verify_reference_witnesses()
    except CounterexampleMismatch as exc:
        print(f"MISMATCH: {exc}", file=sys.stderr)
        return 1
    for label, got, want in report.golden_values():
        print(f"ok {label} = {got:.12g} (expected {want:.12g})")
    print(
        "ok chaining equation sides differ: "
        f"{report.chaining_lhs:.12g} vs {report.chaining_rhs:.12g}"
    )
    return 0


def _cmd_stirling(args) -> int:
    from . import stirling

    report = stirling.stirling_bound(args.n, args.r, args.rho, base=_base(args))
    if args.csv:
        print("n,r,rho,exact,bound,error,error_bound")
        print(
            f"{report.n},{report.r},{report.rho!r},{report.exact!r},"
            f"{report.bound!r},{report.error!r},{report.error_bound!r}"
        )
        return 0
    print(f"exact        {report.exact:.12g}")
    print(f"bound        {report.bound:.12g}")
    print(f"error        {report.error:.12g}")
    print(f"error_bound  {report.error_bound:.12g}")
    return 0


def _cmd_sim(args) -> int:
    from . import simulate

    cfg = simulate.load_config(args.config)
    result = simulate.run_sim(cfg)
    csv_text = result.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discinfo",
        description="Exact information quantities over finite discrete distributions.",
    )
    parser.add_argument(
        "--base", choices=["nats", "bits"], default="nats",
        help="logarithm base for reported values (default: nats)",
    )
    parser.add_argument(
        "--log-level", choices=["DEBUG", "INFO", "WARNING", "ERROR"], default="WARNING",
        help="what to log to stderr (default: WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression against a distribution")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--q", help="second distribution JSON file (for q(...) references)")
    p.add_argument("--observe", help="bindings for bare tied identifiers, e.g. 'Y=1,Z=0'")
    p.add_argument("expression")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("diagram", help="print the eight-quantity table for one observed outcome")
    p.add_argument("--dist", required=True)
    p.add_argument("--observe", required=True, help="the observed outcome, e.g. 'Y=1'")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser("check", help="run an identity suite file")
    p.add_argument("--suite", required=True, help="suite file (one comparison per line)")
    p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                   help="random cases per entry (default: %(default)s)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", help="also write the reports as JSON to this path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", help="run the built-in identity suite and counterexample search")
    p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                   help="random cases per entry (default: %(default)s)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--json", help="also write the reports as JSON to this path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "verify-paper",
        help="check the two built-in reference counterexamples against their expected values",
    )
    p.set_defaults(func=_cmd_verify_paper)

    p = sub.add_parser("stirling", help="entropy-form bound on a log binomial coefficient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--csv", action="store_true", help="emit a CSV row instead of labeled lines")
    p.set_defaults(func=_cmd_stirling)

    p = sub.add_parser("sim", help="run an active-learning simulation from a config file")
    p.add_argument("--config", required=True, help="simulation config JSON file")
    p.add_argument("--out", help="write the CSV trace here (default: stdout)")
    p.set_defaults(func=_cmd_sim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=args.log_level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc} (expected {sorted(exc.expected)})", file=sys.stderr)
        return 2
    except (DiscinfoError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
