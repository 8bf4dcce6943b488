"""A slow, independent reference implementation used only by the tests.

Distributions are plain dicts from full outcome tuples to probabilities and
everything is computed with explicit Python loops, straight from the
definition: an expectation over the untied variables conditioned on all
tied outcomes of -log p(head | given).  No numpy, no shared code with the
package under test.
"""

import itertools
import math


def dist_to_cells(d):
    """(names, sizes, cells) from a package JointDistribution."""
    names = list(d.names)
    sizes = [v.size for v in d.variables]
    cells = {}
    for idx in itertools.product(*(range(s) for s in sizes)):
        cells[idx] = float(d.probs[idx])
    return names, sizes, cells


def _mass(cells, names, fixed):
    """Total probability of all outcomes consistent with ``fixed``."""
    total = 0.0
    positions = {n: i for i, n in enumerate(names)}
    for idx, p in cells.items():
        if all(idx[positions[n]] == v for n, v in fixed.items()):
            total += p
    return total


def oracle_entropy(names, sizes, cells, head, given=()):
    """Entropy of head given the conditioning side, nats.

    ``head`` and ``given`` are lists of (variable name, outcome index or
    None).  Returns None when the tied outcomes have zero probability.
    """
    tied = {n: i for n, i in list(head) + list(given) if i is not None}
    untied = [n for n, i in list(head) + list(given) if i is None]
    head_names = [n for n, _ in head]
    given_names = [n for n, _ in given]
    positions = {n: i for i, n in enumerate(names)}

    mass_tied = _mass(cells, names, tied)
    if mass_tied <= 1e-12:
        return None

    total = 0.0
    for combo in itertools.product(*(range(sizes[positions[n]]) for n in untied)):
        values = dict(tied)
        values.update(dict(zip(untied, combo)))
        weight = _mass(cells, names, values) / mass_tied
        if weight <= 1e-15:
            continue
        joint = _mass(cells, names, {n: values[n] for n in head_names + given_names})
        cond = _mass(cells, names, {n: values[n] for n in given_names}) if given_names else 1.0
        total += weight * (-math.log(joint / cond))
    return total


def oracle_mutual_info(names, sizes, cells, groups, given=()):
    groups = [list(g) for g in groups]
    if len(groups) == 2:
        left, right = groups
        a = oracle_entropy(names, sizes, cells, left, given)
        b = oracle_entropy(names, sizes, cells, left, list(given) + right)
        if a is None or b is None:
            return None
        return a - b
    a = oracle_mutual_info(names, sizes, cells, groups[:-1], given)
    b = oracle_mutual_info(names, sizes, cells, groups[:-1], list(given) + groups[-1])
    if a is None or b is None:
        return None
    return a - b


def oracle_cross_entropy(names, sizes, p_cells, q_cells, head, given=(),
                         q_head=None, q_given=None):
    """E_p IC(q(q_head | q_given)); q_cells may be unnormalized weights.

    The expectation runs over the untied variables of the p side (``head``
    and ``given``), conditioned on its tied outcomes.  The q sides default
    to the p sides; a q-side term takes its own tie, else the p side's tie
    of that name, else the value at the expectation point.  Returns None
    when the p side's tied outcomes have zero probability, and inf when q is
    zero where p has mass.
    """
    q_head = list(head) if q_head is None else list(q_head)
    q_given = list(given) if q_given is None else list(q_given)
    tied = {n: i for n, i in list(head) + list(given) if i is not None}
    untied = [n for n, i in list(head) + list(given) if i is None]
    positions = {n: i for i, n in enumerate(names)}

    mass_tied = _mass(p_cells, names, tied)
    if mass_tied <= 1e-12:
        return None
    total = 0.0
    for combo in itertools.product(*(range(sizes[positions[n]]) for n in untied)):
        values = dict(tied)
        values.update(dict(zip(untied, combo)))
        weight = _mass(p_cells, names, values) / mass_tied
        if weight <= 1e-15:
            continue

        def q_value(n, i):
            return values[n] if i is None else i

        q_joint = _mass(q_cells, names, {n: q_value(n, i) for n, i in q_head + q_given})
        if q_given:
            q_cond_mass = _mass(q_cells, names, {n: q_value(n, i) for n, i in q_given})
            q_cond = q_joint / q_cond_mass if q_cond_mass > 0 else 0.0
        else:
            q_cond = q_joint
        if q_cond <= 0:
            return math.inf
        total += weight * (-math.log(q_cond))
    return total
