"""Command-line front end.

Subcommands: ``eval``, ``diagram``, ``check``, ``search``, ``verify-paper``,
``stirling``, ``sim``.  Exit codes: 0 on success, 1 when a verification
fails, 2 on usage errors (bad flags, unreadable files, malformed
expressions).  ``--log-level`` sets what the package logs to stderr:
``INFO`` adds one line per searched entry and per simulator phase,
``DEBUG`` each simulator step.

:func:`main` may be called many times in one process.  It parses with one
parser built on its first call; everything else, from the files it reads to
the logging set-up, belongs to the call.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from contextlib import contextmanager

from .dist import DEFAULT_SEEDS, load_distribution, write_json
from .errors import CounterexampleMismatch, DiscinfoError, ParseError
from .quantities import LogBase


def _base(args) -> LogBase:
    return LogBase(args.base)


def _observed(text: str) -> list[tuple[str, str]]:
    """The ``--observe`` entries NAME=OUTCOME as (name, label) pairs: bindings,
    which the evaluator resolves and checks."""
    pairs = []
    for piece in filter(None, map(str.strip, text.split(","))):
        if "=" not in piece:
            raise ValueError(f"--observe entries look like NAME=OUTCOME, got {piece!r}")
        name, label = piece.split("=", 1)
        pairs.append((name.strip(), label.strip()))
    return pairs


def _cmd_eval(args) -> int:
    from .expr import evaluate

    d = load_distribution(args.dist)
    q = load_distribution(args.q) if args.q else None
    bindings = _observed(args.observe) if args.observe else None
    value = evaluate(args.expression, d, q=q, bindings=bindings, base=_base(args))
    if isinstance(value, bool):
        print("true" if value else "false")
        return 0 if value else 1
    print(f"{value:.12g}")
    return 0


def _cmd_diagram(args) -> int:
    from .expr import diagram

    d = load_distribution(args.dist)
    table = diagram(d, _observed(args.observe), base=_base(args))
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
        write_json(args.json, [r.to_json_dict() for r in reports])
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
    """A new parser for the ``discinfo`` command line on every call."""
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

    check = sub.add_parser("check", help="run an identity suite file")
    check.add_argument("--suite", required=True, help="suite file (one comparison per line)")
    check.set_defaults(func=_cmd_check)
    search = sub.add_parser(
        "search", help="run the built-in identity suite and counterexample search")
    search.set_defaults(func=_cmd_search)
    for p in (check, search):
        p.add_argument("--seeds", type=int, default=DEFAULT_SEEDS,
                       help="random cases per entry (default: %(default)s)")
        p.add_argument("--rng-seed", type=int, default=0)
        p.add_argument("--json", help="also write the reports as JSON to this path")

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call.  Parsing does not
    change a parser, and no caller but :func:`main` sees this one."""
    return build_parser()


@contextmanager
def _package_logging(level: str):
    """Send the package's records at ``level`` and above to the current
    ``sys.stderr`` for one call, then put the ``discinfo`` logger back."""
    logger = logging.getLogger("discinfo")
    saved_level, saved_propagate = logger.level, logger.propagate
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False  # a handler the caller put on root would print each record again
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)
        logger.propagate = saved_propagate


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with _package_logging(args.log_level):
            return args.func(args)
    except ParseError as exc:
        listed = str(sorted(exc.expected))  # most messages already list it
        print(f"error: {exc}" + ("" if listed in str(exc) else f" (expected {listed})"),
              file=sys.stderr)
        return 2
    except (DiscinfoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
