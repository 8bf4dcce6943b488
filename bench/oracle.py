"""Independent numpy reference values for the benchmark's output checks.

Shares no code with ``discinfo``: the information quantities are computed
straight from their definition (an expectation over the untied variables,
conditioned on every tied outcome, of ``-log p(head | given)``), and the
simulator is replayed step by step from the likelihood table.

A *term* is ``(name, outcome_index)`` with ``None`` for an untied variable.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_CELL = 1e-15  # cells at or below this weigh nothing (0 * log 0 == 0)


def _marginal(tensor, names, keep, ties):
    """Marginal onto ``keep`` with all axes kept (size 1 where summed out)
    and tied axes sliced to their outcome, so results broadcast together."""
    drop = tuple(i for i, n in enumerate(names) if n not in keep)
    out = tensor.sum(axis=drop, keepdims=True) if drop else tensor
    ix = tuple(
        slice(ties[n], ties[n] + 1) if n in ties and n in keep else slice(None)
        for n in names
    )
    return out[ix]


def cross_entropy(p, q, names, head, given=(), q_head=None, q_given=None):
    """E over p(untied | tied) of -log q(q_head | q_given), in nats.

    The q side defaults to the p side's terms; its variables take their
    value from the p side's tie or from the expectation point."""
    q_head = head if q_head is None else q_head
    q_given = given if q_given is None else q_given
    ties = {n: o for n, o in list(head) + list(given) if o is not None}
    query = {n for n, _ in list(head) + list(given)}
    joint = _marginal(p, names, query, ties)
    mass = joint.sum()
    q_num = _marginal(q, names, {n for n, _ in list(q_head) + list(q_given)}, ties)
    q_den = _marginal(q, names, {n for n, _ in q_given}, ties) if q_given else 1.0
    joint, values = np.broadcast_arrays(joint, q_num / q_den)
    mask = joint > ZERO_CELL
    return float(-(joint[mask] * np.log(values[mask])).sum() / mass)


def entropy(p, names, head, given=()):
    return cross_entropy(p, p, names, head, given)


def kl(p, q, names, head, given=()):
    return cross_entropy(p, q, names, head, given) - entropy(p, names, head, given)


def mutual_info(p, names, groups, given=()):
    """I[G1; G2 | given] = H[G1 | given] - H[G1 | G2, given]; more groups
    recurse as I[A; B; C] = I[A; B] - I[A; B | C]."""
    groups = [list(g) for g in groups]
    given = list(given)
    if len(groups) == 2:
        left, right = groups
        return entropy(p, names, left, given) - entropy(p, names, left, given + right)
    return mutual_info(p, names, groups[:-1], given) - mutual_info(
        p, names, groups[:-1], given + groups[-1]
    )


def information_content(rho):
    return -math.log(rho)


def expectation(p, names, over, ties, body):
    """E over p(over | ties) of ``body(bindings)``; ``bindings`` maps each
    name in ``over`` (and each tie) to an outcome index."""
    weights = _marginal(p, names, set(over) | set(ties), ties)
    axes = tuple(i for i, n in enumerate(names) if n not in over)
    weights = weights.sum(axis=axes) if axes else weights  # axes of `over`, in names order
    weights = weights / weights.sum()
    order = [n for n in names if n in over]
    total = 0.0
    for idx in np.ndindex(weights.shape):
        w = weights[idx]
        if w <= ZERO_CELL:
            continue
        total += w * body({**ties, **dict(zip(order, idx))})
    return total


# ---------------------------------------------------------------------------
# Simulator replay


def _h(p):
    p = p[p > ZERO_CELL]
    return float(-(p * np.log(p)).sum())


def _h_rows(p):
    """Entropy of each row of a 2-d array of distributions."""
    safe = np.where(p > ZERO_CELL, p, 1.0)
    return -(p * np.log(safe)).sum(axis=-1)


def acquisition_scores(acquisition, lik, post, cands, pool, prefix):
    """Acquisition score of ``prefix + [c]`` for every candidate pool index."""
    xs = np.array([pool[c][0] for c in cands])
    if acquisition in ("bald", "batch_bald"):
        configs = np.ones((len(post), 1))
        for j in prefix:
            configs = (configs[:, :, None] * lik[:, pool[j][0], None, :]).reshape(len(post), -1)
        joint = (configs[:, None, :, None] * lik[:, xs, None, :]).reshape(len(post), len(xs), -1)
        pred = np.einsum("h,hcy->cy", post, joint)
        cond = np.einsum("h,hc->c", post, _h_rows(joint))
        return _h_rows(pred) - cond
    weights = post.copy()
    for j in prefix:
        weights = weights * lik[:, pool[j][0], pool[j][1]]
    ys = np.array([pool[c][1] for c in cands])
    after = weights[:, None] * lik[:, xs, ys]
    after = after / after.sum(axis=0, keepdims=True)
    return _h(post) - _h_rows(after.T)


def _evaluate(lik, post, eval_set):
    correct, total_ll = 0, 0.0
    for x, y in eval_set:
        pred = post @ lik[:, x, :]
        correct += int(np.argmax(pred)) == y
        total_ll += -math.log(pred[y])
    return correct / len(eval_set), total_ll / len(eval_set)


def replay_sim(lik, prior, pool, eval_set, acquisition, seed, rows, inputs, labels):
    """Check simulator rows against an exact replay; True when all match.

    Each row must acquire a remaining pool point whose reference score is
    within a relative 1e-9 of the best remaining score (ties inside that
    band are accepted in any order), and its score, posterior entropy,
    accuracy and log loss must match the replay within 1e-9.  The replay
    then follows the row's choice.
    """
    rng = np.random.default_rng(seed)
    post = np.asarray(prior, dtype=float)
    remaining = list(range(len(pool)))
    index_of = {(inputs[x], labels[y]): i for i, (x, y) in enumerate(pool)}
    steps: dict[int, list] = {}
    for row in rows:
        steps.setdefault(row.step, []).append(row)
    for step in sorted(steps):
        step_post = post
        prefix: list[int] = []
        uniform = {i: rng.random() for i in remaining} if acquisition == "uniform" else None
        for row in steps[step]:
            pick = index_of.get((row.x, row.y))
            if pick not in remaining:
                return False
            if uniform is not None:
                score = uniform[pick]
                if pick != max(remaining, key=lambda i: (uniform[i], -i)):
                    return False
            else:
                scores = acquisition_scores(acquisition, lik, step_post, remaining, pool, prefix)
                top = float(scores.max())
                score = float(scores[remaining.index(pick)])
                if score < top - 1e-9 * max(1.0, abs(top)):
                    return False
            remaining.remove(pick)
            prefix.append(pick)
            x, y = pool[pick]
            post = post * lik[:, x, y]
            post = post / post.sum()
            accuracy, logloss = _evaluate(lik, post, eval_set)
            want = (score, _h(post), accuracy, logloss)
            got = (row.score, row.posterior_entropy, row.accuracy, float(row.logloss))
            if not all(math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-9) for g, w in zip(got, want)):
                return False
    return True
