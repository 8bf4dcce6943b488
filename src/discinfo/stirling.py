"""Stirling-style entropy bound for log binomial coefficients.

For N trials with r successes and a success probability rho, the optimal
per-outcome code length ``-r log(rho) - (N - r) log(1 - rho)`` is an upper
bound on ``log C(N, r)``.  At the maximum-likelihood choice rho = r/N the
bound becomes ``r log(N/r) + (N - r) log(N/(N - r))``, the gap is exactly
the information content of the success count under Binomial(N, rho), and
that gap never exceeds ``log N``.

Everything is computed in log space: O(r) time, O(1) extra space, no big
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import integer
from .quantities import LogBase


def log_binomial_exact(n: int, r: int) -> float:
    """log C(n, r) in nats via the exactly-summed series
    sum_{k=1..m} [log(n - m + k) - log k] with m = min(r, n - r)."""
    n, r = _check_domain(n, r)
    m = min(r, n - r)
    return math.fsum(
        math.log(n - m + k) - math.log(k) for k in range(1, m + 1)
    )


def log_binomial_sweep(n: int) -> np.ndarray:
    """log C(n, r) for every r in 0..n (nats), via a cumulative recurrence."""
    n = integer(n, f"n = {n!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    r = np.arange(1, n + 1, dtype=float)
    steps = np.log(n - r + 1.0) - np.log(r)
    out = np.empty(n + 1)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    return out


@dataclass(frozen=True)
class StirlingReport:
    """The bound, the exact value, and the error for one (n, r, rho)."""

    n: int
    r: int
    rho: float
    exact: float  # log C(n, r)
    bound: float  # -r log rho - (n - r) log(1 - rho)
    error: float  # bound - exact; equals IC of r under Binomial(n, rho)
    error_bound: float  # log n; valid at the default rho = r/n
    base: LogBase


def stirling_bound(n: int, r: int, rho: float | None = None, *,
                   base: LogBase = LogBase.NATS) -> StirlingReport:
    """Evaluate the entropy-form upper bound on log C(n, r).

    ``rho`` defaults to the maximum-likelihood value r/n, which minimizes
    the bound and guarantees ``error <= log n``.  The boundary cases
    r in {0, n} use the 0 * log(...) = 0 convention and meet the bound with
    equality.
    """
    n, r = _check_domain(n, r)
    if rho is None:
        rho = r / n if n else 0.0
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if (r > 0 and rho == 0.0) or (r < n and rho == 1.0):
        raise ValueError(
            f"rho={rho} assigns zero probability to r={r} of n={n} trials"
        )
    bound = 0.0
    if r > 0:
        bound -= r * math.log(rho)
    if r < n:
        bound -= (n - r) * math.log(1.0 - rho)
    exact = log_binomial_exact(n, r)
    return StirlingReport(
        n=n,
        r=r,
        rho=rho,
        exact=base.from_nats(exact),
        bound=base.from_nats(bound),
        error=base.from_nats(bound - exact),
        error_bound=base.from_nats(math.log(n)) if n else 0.0,
        base=base,
    )


def report_sweep(n: int):
    """Vectorized (exact, bound, error) in nats for every r in 0..n, at the
    default rho = r/n.  Useful for scanning the invariants over a range."""
    n = integer(n, f"n = {n!r}")
    if n <= 0:
        raise ValueError("n must be positive")
    exact = log_binomial_sweep(n)
    r = np.arange(n + 1, dtype=float)
    bound = np.zeros(n + 1)
    inner = slice(1, n)  # r in {0, n} stays 0 by the boundary convention
    ri = r[inner]
    bound[inner] = ri * np.log(n / ri) + (n - ri) * np.log(n / (n - ri))
    return exact, bound, bound - exact


def _check_domain(n, r):
    n, r = integer(n, f"n = {n!r}"), integer(r, f"r = {r!r}")
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in 0..{n}, got {r}")
    return n, r
