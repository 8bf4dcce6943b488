"""Exact-enumeration Bayesian discriminative models on finite spaces.

A :class:`BayesModel` holds a finite hypothesis space with a prior and a
full likelihood table p(y | x, omega).  Posteriors are computed exactly (in
log space) by enumeration, which makes every identity in this module
testable to float precision: the evidence decomposition of the variational
lower bound, the expected-information-gain form of BALD, the decomposition
of the per-label information gain into a posterior code shift plus the
surprise, and the importance-sampling form of the label entropy.

Models and posteriors are immutable; updates return new values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import (
    RENORM_TOLERANCE,
    ZERO_CELL,
    ZERO_MASS,
    JointDistribution,
    Variable,
    known_keys,
    names_of,
    number_array,
    read_json,
    write_json,
)
from .errors import (
    BatchTooLarge,
    MalformedInput,
    SupportMismatch,
    ZeroEvidence,
    ZeroProbabilityEvent,
    malformed_input,
)
from .quantities import Stack, _plogq, plogq

MAX_HYPOTHESES = 10_000
MAX_LABEL_CONFIGS = 10**6
MAX_BATCH = 6
# cells in one temporary of the joint BALD scores and of the label-entropy
# table (512 KiB of float64), so neither holds a second array the size of the
# likelihood table (a block still holds at least one whole row)
_BLOCK_CELLS = 1 << 16


def _row_sums(table: np.ndarray) -> np.ndarray:
    """``table.sum(axis=-1, keepdims=True)``, bit for bit.

    A short last axis of a table of rows is summed one slice at a time,
    which runs several times faster than numpy's reduction over it.  numpy
    adds up fewer than 8 entries in order, as the slices do; from 8 on it
    pairs them, so a longer axis keeps ``np.sum``.
    """
    n = table.shape[-1]
    if not 0 < n < 8:
        return table.sum(axis=-1, keepdims=True)
    total = table[..., 0].copy()
    for k in range(1, n):
        total += table[..., k]
    return total[..., None]


def _log(v: np.ndarray) -> np.ndarray:
    """``np.log(v)`` of non-negative ``v``, -inf at its zeros, without
    numpy's divide-by-zero warning."""
    if np.minimum.reduce(v, axis=None, initial=np.inf) > 0:
        return np.log(v)
    return np.log(v, where=v > 0, out=np.full(v.shape, -np.inf))


def _sums_to_one(lo, hi) -> bool:
    return abs(lo - 1.0) <= RENORM_TOLERANCE and abs(hi - 1.0) <= RENORM_TOLERANCE


def _normalized(table, what: str, *, least: bool = False):
    """``table`` as floats, each row along its last axis divided by its sum;
    raises unless every entry is finite and non-negative and every row sums
    to 1 within ``RENORM_TOLERANCE``.  With ``least``, also a lower bound on
    every entry of it: the least entry over the largest sum (division rounds
    monotonically).

    A table of rows is summed and divided a block of its first axis at a
    time, into the one array returned, so no other temporary as large as its
    row sums or its quotient is held.  A block is divided only when its sums
    pass, so an infinite entry is reported before any division warns."""
    table = np.asarray(table, dtype=float)
    # the least entry is NaN if any is, so one reduction rules out NaN and negatives
    low = np.minimum.reduce(table, axis=None, initial=np.inf) if table.ndim else np.nan
    if not low >= 0:
        raise ValueError(f"{what} must hold finite, non-negative numbers")
    if table.ndim == 1:  # one row, one sum: no keepdims reduction and no min/max wrappers
        lo = hi = float(np.add.reduce(table))
        out = table / lo if _sums_to_one(lo, hi) else None
    else:
        out, lo, hi = np.empty(table.shape), np.inf, -np.inf
        step = _block(math.prod(table.shape[1:]))
        # a table of no rows takes one empty block, whose min raises numpy's zero-size error
        for start in range(0, max(len(table), 1), step):
            block = table[start:start + step]
            total = _row_sums(block)
            block_lo, block_hi = total.min(), total.max()  # no temporary the size of ``total``
            lo, hi = min(lo, block_lo), max(hi, block_hi)
            if _sums_to_one(block_lo, block_hi):
                np.divide(block, total, out=out[start:start + step])
    if hi == np.inf and np.isinf(table).any():  # an infinite entry, not an overflowing sum
        raise ValueError(f"{what} must hold finite, non-negative numbers")
    for extreme in (lo, hi):
        if abs(extreme - 1.0) > RENORM_TOLERANCE:
            raise ValueError(f"{what} sums to {float(extreme)!r}, not 1")
    return (out, low / hi) if least else out


@dataclass(frozen=True, eq=False)
class BayesModel:
    """Finite hypothesis space, prior, and likelihood table p(y | x, omega);
    the hypotheses, inputs and labels are the outcomes of its variables."""

    hypotheses: tuple[str, ...]
    prior: np.ndarray  # (n_omega,)
    inputs: tuple[str, ...]
    labels: tuple[str, ...]
    likelihood: np.ndarray  # (n_omega, n_x, n_y)
    hypothesis_var: Variable = field(init=False, repr=False)  # Omega
    input_var: Variable = field(init=False, repr=False)  # X
    label_var: Variable = field(init=False, repr=False)  # Y

    def __post_init__(self):
        omega = Variable("Omega", self.hypotheses)  # the cap reads its size: any iterable
        if omega.size > MAX_HYPOTHESES:
            raise ValueError(f"{omega.size} hypotheses exceeds the cap of {MAX_HYPOTHESES}")
        x, y = Variable("X", self.inputs), Variable("Y", self.labels)
        prior = _normalized(self.prior, "prior")
        if prior.shape != (omega.size,):
            raise ValueError("prior length must match the hypothesis count")
        lik = np.asarray(self.likelihood, dtype=float)
        if lik.shape != (expected := (omega.size, x.size, y.size)):
            raise ValueError(f"likelihood must have shape {expected}, got {lik.shape}")
        lik, least = _normalized(lik, "a likelihood row p(. | x, omega)", least=True)
        prior.setflags(write=False)
        lik.setflags(write=False)
        for name, value in (("hypotheses", omega.support), ("inputs", x.support),
                            ("labels", y.support), ("hypothesis_var", omega), ("input_var", x),
                            ("label_var", y), ("prior", prior), ("likelihood", lik)):
            object.__setattr__(self, name, value)
        # every cell above ZERO_CELL: the score tables need no 0 * log 0 mask
        object.__setattr__(self, "_positive", bool(least > ZERO_CELL))

    @property
    def n_hypotheses(self) -> int:
        return len(self.hypotheses)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def input_index(self, x) -> int:
        """The position of input ``x``, given by position or by name."""
        return self.input_var.index_of(x)

    def label_index(self, y) -> int:
        """The position of label ``y``, given by position or by name."""
        return self.label_var.index_of(y)

    def to_json_dict(self) -> dict:
        return {
            "hypotheses": list(self.hypotheses),
            "prior": self.prior.tolist(),
            "inputs": list(self.inputs),
            "labels": list(self.labels),
            "likelihood": self.likelihood.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BayesModel":
        with malformed_input("model"):
            known_keys(doc, ("hypotheses", "prior", "inputs", "labels", "likelihood"), "model")
            hypotheses, inputs, labels = (
                names_of(doc[key], "model", key) for key in ("hypotheses", "inputs", "labels")
            )
            table = doc["likelihood"]
            shape = (len(hypotheses), len(inputs), len(labels))
            layout = ("likelihood must be {} lists (one per hypothesis) of {} rows (one per input) "
                      "of {} numbers (one per label), in declared order".format(*shape))
            if not isinstance(table, (list, tuple)):
                raise MalformedInput(f"malformed model JSON: {layout}; the layout changed, and "
                                     f"a mapping keyed by name is no longer read")
            lik = number_array(table, "model", "likelihood", layout)
            prior = number_array(doc["prior"], "model", "prior")
        if lik.shape != shape and all(shape):  # the constructor reports an empty name list
            raise MalformedInput(f"malformed model JSON: {layout}; got shape {lik.shape}")
        return cls(hypotheses, prior, inputs, labels, lik)


def _resolve_all(var: Variable, keys, arg: str, what: str) -> np.ndarray:
    """``var.index_of`` of each of ``keys``, the list of ``what`` keys ``arg``;
    an integer array (not a list, which may hold booleans) is checked in one
    pass by ``var.positions``."""
    idx = np.asarray(keys)
    if idx.ndim != 1:
        raise ValueError(f"{arg} must be a list of {what}s; got {idx.ndim} dimensions")
    if isinstance(keys, np.ndarray) and idx.dtype.kind in "iu":
        return var.positions(idx).astype(np.intp, copy=False)
    return np.array([var.index_of(k) for k in keys], dtype=np.intp)


def load_model(path) -> BayesModel:
    return read_json(path, "model", BayesModel.from_json_dict)


def dump_model(model: BayesModel, path) -> None:
    write_json(path, model.to_json_dict())


@dataclass(frozen=True, eq=False)
class Posterior:
    """An exact posterior over hypotheses."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _normalized(self.probs, "posterior")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def entropy(self) -> float:
        return _entropy(self.probs)


def _entropy(probs: np.ndarray) -> float:
    return float(-np.add.reduce(plogq(probs)))


def _renormalized(probs: np.ndarray) -> np.ndarray:
    """The division that :class:`Posterior` applies, without its checks."""
    return probs / np.add.reduce(probs)


def _observations(model: BayesModel, data, arg: str = "data") -> list[tuple[int, int]]:
    """The positions of ``arg``, a list of (input, label) pairs, each given
    by position or name, in order."""
    pairs = np.asarray(data, dtype=object)
    if pairs.shape != (0,) and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"{arg} must be a list of (input, label) pairs")
    input_index, label_index = model.input_var.index_of, model.label_var.index_of
    return [(input_index(x), label_index(y)) for x, y in pairs.tolist()]


def _log_joint(model: BayesModel, pairs) -> tuple[np.ndarray, np.floating]:
    """log p(omega) + sum log p(y | x, omega) over the (input, label) positions
    (the columns summed from zeros, then added to the log prior) less its
    finite maximum, and that maximum; raises if no entry is finite."""
    total = np.zeros(model.n_hypotheses)
    for xi, yi in pairs:
        total += _log(model.likelihood[:, xi, yi])
    log_joint = _log(model.prior) + total
    if not (top := np.maximum.reduce(log_joint)) > -np.inf:
        raise ZeroEvidence("the dataset has probability zero under every hypothesis")
    return log_joint - top, top


def _posterior(model: BayesModel, pairs) -> np.ndarray:
    """:func:`posterior` at (input, label) positions, before :class:`Posterior`."""
    return _renormalized(np.exp(_log_joint(model, pairs)[0]))  # exp(-inf) is an exact 0


def posterior(model: BayesModel, data) -> Posterior:
    """Exact posterior over hypotheses given a list of (input, label) pairs
    (log-space update)."""
    return Posterior(_posterior(model, _observations(model, data)))


def log_evidence(model: BayesModel, data) -> float:
    """log p(data) by exact enumeration over hypotheses."""
    shifted, top = _log_joint(model, _observations(model, data))
    return float(top + np.log(np.exp(shifted).sum()))


def _probs(model: BayesModel, post: Posterior) -> np.ndarray:
    """The posterior's probabilities, checked to be one per hypothesis of the
    model: every function that weighs the model's tables by a posterior reads
    them here, so a wrong length is never broadcast or reported by numpy."""
    if post.probs.shape != model.prior.shape:
        raise ValueError(f"posterior has length {post.probs.size}; the model has "
                         f"{model.n_hypotheses} hypotheses")
    return post.probs


def update(model: BayesModel, post: Posterior, x, y) -> Posterior:
    """One exact Bayes step: reweight the posterior by p(y | x, omega)."""
    return Posterior(_update(model, _probs(model, post), model.input_index(x),
                             model.label_index(y)))


def _update(model: BayesModel, probs: np.ndarray, xi: int, yi: int) -> np.ndarray:
    """:func:`update` at positions ``xi``, ``yi``, before :class:`Posterior`."""
    weights = probs * model.likelihood[:, xi, yi]
    total = np.add.reduce(weights)
    if total <= ZERO_MASS:
        raise ZeroEvidence(f"observation (x={model.inputs[xi]!r}, y={model.labels[yi]!r}) has "
                           f"zero probability under the current posterior")
    return weights / total


def predictive(model: BayesModel, post: Posterior, x) -> np.ndarray:
    """The posterior-mixture label distribution p(y | x, data)."""
    xi = model.input_index(x)
    return _probs(model, post) @ model.likelihood[:, xi, :]


def joint_label_hypothesis(model: BayesModel, post: Posterior, x) -> JointDistribution:
    """The joint over (Omega, Y) at input x: csd_decomposition and surprise
    evaluate their expressions over it, and tests check the fast scores."""
    xi = model.input_index(x)
    cells = _probs(model, post)[:, None] * model.likelihood[:, xi, :]
    return JointDistribution((model.hypothesis_var, model.label_var), cells)


def predictive_table(model: BayesModel, post: Posterior) -> np.ndarray:
    """p(y | x, data) for every input, shape (n_x, n_y): one matmul of the
    posterior with the likelihood table."""
    return _predictive_table(model, _probs(model, post))


def _predictive_table(model: BayesModel, probs: np.ndarray) -> np.ndarray:
    return (probs @ model.likelihood.reshape(len(probs), -1)).reshape(model.likelihood.shape[1:])


def _label_entropy(lik: np.ndarray, positive=False, buf=None, out=None) -> np.ndarray:
    """H[Y | x, omega] of likelihood rows p(. | x, omega) on the last axis,
    into ``out`` if given; ``positive`` and ``buf`` go to ``_plogq``.

    The label axis is short, so it is summed one slice at a time: a numpy
    reduction over a short innermost axis runs several times slower.
    """
    terms, _ = _plogq(lik, positive=positive, out=buf)
    entropy = np.negative(terms[..., 0], out=out)
    for y in range(1, terms.shape[-1]):
        entropy -= terms[..., y]
    return entropy


def _block(cells_per_slice: int) -> int:
    return max(1, _BLOCK_CELLS // max(1, cells_per_slice))


def label_entropy_table(model: BayesModel) -> np.ndarray:
    """The conditional label entropy H[Y | x, omega] of every hypothesis and
    input, shape (n_omega, n_x).

    This is the posterior-independent half of every BALD score, so a
    simulation builds it once and reuses it at every step.  It is built a
    block of hypotheses at a time, each block one contiguous run of the
    likelihood table, so no temporary as large as that table is held.  A
    model whose every cell is above ``ZERO_CELL`` (decided when it is built)
    takes its terms p log p through one reused buffer with no 0 * log 0
    scan; the table is bit-identical either way.
    """
    lik = model.likelihood
    n_omega, n_x, n_y = lik.shape
    table = np.empty((n_omega, n_x))
    step = _block(n_x * n_y)
    buf = np.empty((min(step, n_omega), n_x, n_y))
    for start in range(0, n_omega, step):
        block = lik[start:start + step]
        _label_entropy(block, model._positive, buf[:len(block)], table[start:start + step])
    return table


def _prefix(model: BayesModel, xis) -> tuple[np.ndarray, np.ndarray] | None:
    """The batch prefix at input positions ``xis`` (None if empty): p(y_1..y_k
    = c | x_1..x_k, omega) of each of the n_y**k label configurations c,
    shape (n_omega, n_y**k), and H[Y_1..Y_k | x_1..x_k, omega], shape
    (n_omega,).  The labels are independent given omega, so both grow one
    input at a time (:func:`_grown`)."""
    if not len(xis):
        return None
    prefix = None
    for xi, entropy in zip(xis, _label_entropy(model.likelihood[:, xis, :], model._positive).T):
        prefix = _grown(model, prefix, xi, entropy)
    return prefix


def _grown(model: BayesModel, prefix, xi, entropy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``prefix`` (None: no input) grown by input ``xi`` of H[Y | xi, omega] ``entropy``, which
    a column of :func:`label_entropy_table` holds bit for bit; 0 + H maps -0.0 to 0.0."""
    lik = model.likelihood[:, xi]
    if prefix is None:
        return lik, 0.0 + entropy
    return (prefix[0][:, :, None] * lik[:, None, :]).reshape(len(lik), -1), prefix[1] + entropy


def _joint_bald(probs: np.ndarray, lik: np.ndarray, cond: np.ndarray, prefix) -> np.ndarray:
    """I[Omega; Y_1..Y_k, Y | x_1..x_k, x] for each input x of the likelihood
    block ``lik`` (n_omega, n, n_y), whose posterior-mean label entropies
    E_probs[H[Y | x, omega]] are ``cond`` (n,): the entropy of the joint label
    predictive minus the posterior mean of the prefix's and x's conditional
    entropies.  ``prefix`` is :func:`_prefix` of x_1..x_k; none (k = 0)
    skips the products by 1 and the sum with 0, which changes no bit."""
    n_omega, n, n_y = lik.shape
    # (n_configs, n_omega)
    weighted = probs[None] if prefix is None else (probs[:, None] * prefix[0]).T
    n_configs = len(weighted)
    joint_entropy = np.empty(n)
    step = _block(n_configs * n_y)
    for start in range(0, n, step):
        block = lik[:, start:start + step].reshape(n_omega, -1)
        joint = (weighted @ block).reshape(n_configs, -1, n_y)
        joint_entropy[start:start + step] = np.add.reduce(_label_entropy(joint), axis=0)
    if prefix is None:
        return joint_entropy - cond
    return joint_entropy - (probs @ prefix[1] + cond)


def bald_scores(model: BayesModel, post: Posterior, table: np.ndarray, chosen=()) -> np.ndarray:
    """The joint gain I[Omega; Y_1..Y_k, Y | x_1..x_k, x] of the ``chosen``
    inputs x_1..x_k (a list, each by position or name) followed by x, for
    every input x, shape (n_x,); without ``chosen``, BALD's I[Omega; Y | x].
    ``table`` is :func:`label_entropy_table` of the model.  Greedy batch
    acquisition maximises the gain one input at a time."""
    if table.shape != model.likelihood.shape[:2]:
        raise ValueError(f"label entropy table has shape {table.shape}, not (hypotheses, "
                         f"inputs) = {model.likelihood.shape[:2]}")
    cond = _probs(model, post) @ table
    xis = _resolve_all(model.input_var, chosen, "chosen", "input")
    check_batch_size(model, len(xis) + 1, labelled=False)
    return _joint_bald(post.probs, model.likelihood, cond, _prefix(model, xis))


@dataclass(frozen=True, eq=False)
class CsdTable:
    """The likelihood columns p(y | x, omega) of labelled candidates and
    their terms p log p, each of shape (n_omega, n): the
    posterior-independent half of every csd score on ``model``."""

    lik: np.ndarray
    plogp: np.ndarray
    model: BayesModel = field(repr=False)


def csd_table(model: BayesModel, xs, ys) -> CsdTable:
    """The :class:`CsdTable` of the labelled candidates (xs[i], ys[i]); a
    simulation builds it once over its pool and reuses it at every step.  A
    model whose every cell is above ``ZERO_CELL`` needs no scan in p log p.

    Here and in :func:`csd_scores`, p log p is 0 at exact zeros only: unlike
    :func:`plogq`, no cell up to ``ZERO_CELL`` is dropped, because
    reweighting by a candidate of small predictive probability can lift such
    a cell to real mass."""
    xs = _resolve_all(model.input_var, xs, "xs", "input")
    ys = _resolve_all(model.label_var, ys, "ys", "label")
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    return _csd_table(model, xs, ys)


def _csd_table(model: BayesModel, xs: np.ndarray, ys: np.ndarray) -> CsdTable:
    """:func:`csd_table` at positions: the columns are gathered in one call
    (``np.take`` into a block of ``out`` buffers its writes, so a gather per
    block is slower), then p log p is taken a block of hypotheses at a time,
    each multiply reading the logs it has just written while they are in
    cache, as :func:`label_entropy_table` does."""
    cells = model.likelihood.reshape(model.n_hypotheses, -1)
    lik = np.take(cells, xs * model.n_labels + ys, axis=1)
    plogp = np.empty(lik.shape)
    step = _block(len(xs))
    for start in range(0, len(lik), step):
        _plogq(lik[start:start + step], floor=0.0, positive=model._positive,
               out=plogp[start:start + step])
    lik.setflags(write=False)
    plogp.setflags(write=False)
    return CsdTable(lik, plogp, model)


def csd_scores(model: BayesModel, post: Posterior, table: CsdTable, given=()) -> np.ndarray:
    """The realized information gain H[Omega] - H[Omega | y, x] of every
    candidate of ``table`` (:func:`csd_table`), shape (n,); -inf where the
    label's predictive probability is at most ``ZERO_MASS``.

    With ``given`` labelled pairs the gain is H[Omega] - H[Omega | given,
    y, x], the joint gain of the pairs followed by the candidate.  By Bayes'
    rule h(omega | y, x) = h(omega) + h(y | x, omega) - h(y | x), so the
    entropy after each candidate is three matvecs against the table.  Both
    entropies are exact: 0 log 0 = 0 at exact zeros only.
    """
    probs = _probs(model, post)
    if table.model is not model:
        raise ValueError("csd table was built on another model")
    return _csd_scores(model, probs, table, _observations(model, given, "given"))


def _csd_scores(model: BayesModel, probs: np.ndarray, table: CsdTable, given) -> np.ndarray:
    """:func:`csd_scores` with ``given`` (input, label) positions."""
    weights = probs
    for xi, yi in given:
        weights = weights * model.likelihood[:, xi, yi]
    total = weights @ table.lik  # unnormalised, so the floor is on the joint mass
    possible = total > ZERO_MASS
    scale = np.add.reduce(weights) or 1.0  # without mass every candidate is impossible
    p = weights / scale
    z = np.where(possible, total / scale, 1.0)
    # E_p[log p] is taken out of the matvec, so it sums only the small centred
    # terms, and scores equal in exact arithmetic round well inside TIE_TOLERANCE
    plogp = _plogq(p, floor=0.0)[0]
    mean = np.add.reduce(plogp)
    after = np.log(z) - (p @ table.plogp + (plogp - mean * p) @ table.lik) / z - mean
    # with no pair given and a unit sum, p is the posterior bit for bit (most
    # csd picks and first batch_csd picks: uniform priors and most later steps)
    reweighted = weights is not probs or scale != 1.0
    before = np.add.reduce(_plogq(probs, floor=0.0)[0]) if reweighted else mean
    return np.where(possible, -before - after, -np.inf)


def bald(model: BayesModel, post: Posterior, x) -> float:
    """Expected information gain about the hypotheses from labelling x:
    the predictive entropy minus the posterior-average conditional entropy.
    The batch of x alone, ``batch_score(model, post, [x])``."""
    return batch_score(model, post, [x])


def csd(model: BayesModel, post: Posterior, x, y) -> float:
    """Realized information gain of the labelled pair (x, y): the posterior
    entropy drop after the exact Bayes step.  May be negative.  The batch of
    (x, y) alone, ``batch_score(model, post, [x], [y])``."""
    return batch_score(model, post, [x], [y])


# Each CsdDecomposition field the notation writes, over joint_label_hypothesis
# at the input, with y the observed label
_CSD_ROWS = {
    "info_gain": "I[Omega; y]",
    "code_shift": "H[Omega] - CE[p(Omega|y) || p(Omega)]",
    "surprise": "KL[p(Omega|y) || p(Omega)]",
    "label_entropy_direct": "H[y|Omega]",
}


def _label_rows(model: BayesModel, post: Posterior, x, y, *fields) -> dict:
    """The named ``_CSD_ROWS`` fields at input x with y the observed label."""
    from .expr import evaluate

    joint, bindings = joint_label_hypothesis(model, post, x), {"Y": model.label_index(y)}
    return {f: evaluate(_CSD_ROWS[f], joint, bindings=bindings) for f in fields}


def surprise(model: BayesModel, post: Posterior, x, y) -> float:
    """KL of the updated posterior from the current one; always >= 0."""
    return _label_rows(model, post, x, y, "surprise")["surprise"]


@dataclass(frozen=True)
class CsdDecomposition:
    """The information gain split into a posterior code shift plus the
    surprise, with both routes to the conditional label entropy."""

    info_gain: float  # posterior entropy drop (may be negative)
    code_shift: float  # old-code expected length change under the new belief
    surprise: float  # KL(new posterior || old posterior)
    label_entropy_direct: float  # E_new IC(p(y | x, omega))
    label_entropy_importance: float  # same, by importance-weighting the old posterior


def csd_decomposition(model: BayesModel, post: Posterior, x, y) -> CsdDecomposition:
    """Split csd(x, y) as code_shift + surprise and compute the conditional
    label entropy by both the direct and the importance-sampling route.

    ``code_shift`` is ``E_old IC(old) - E_new IC(old)``: how much shorter the
    old posterior code becomes under the updated belief.  It vanishes when
    the current posterior is uniform, in which case the information gain
    equals the surprise exactly.
    """
    rows = _label_rows(model, post, x, y, *_CSD_ROWS)
    old, lik = post.probs, model.likelihood[:, model.input_index(x), model.label_index(y)]
    # the notation cannot write an importance weight, so this route stays numpy
    importance = float(-plogq(old * lik / (old @ lik), lik).sum())
    return CsdDecomposition(**rows, label_entropy_importance=importance)


def batch_score(model: BayesModel, post: Posterior, xs, ys=None) -> float:
    """Joint acquisition score for a batch of inputs, the last one scored as
    one candidate on its own (so it may differ in the last bits from its
    entry of :func:`bald_scores` or :func:`csd_scores`).

    Without labels this is the joint expected information gain
    I[Omega; Y_1..Y_b | x_1..x_b] over all label configurations; with labels
    it is the realized joint information gain of the labelled batch.
    """
    xis = _resolve_all(model.input_var, xs, "xs", "input")
    check_batch_size(model, len(xis), labelled=ys is not None)
    if ys is not None:
        yis = _resolve_all(model.label_var, ys, "ys", "label")
        if len(yis) != len(xis):
            raise ValueError("xs and ys must have equal length")
        table = _csd_table(model, xis[-1:], yis[-1:])
        score = float(_csd_scores(model, _probs(model, post), table, zip(xis[:-1], yis[:-1]))[0])
        if score == -np.inf:
            raise ZeroProbabilityEvent(
                f"label {model.labels[yis[-1]]!r} has zero predictive probability at "
                f"x={model.inputs[xis[-1]]!r}" + (" given the earlier pairs" if len(xis) > 1 else ""))
        return score
    lik, probs = model.likelihood[:, xis[-1]:xis[-1] + 1], _probs(model, post)
    return float(_joint_bald(probs, lik, probs @ _label_entropy(lik), _prefix(model, xis[:-1]))[0])


def check_batch_size(model: BayesModel, b: int, *, labelled: bool) -> None:
    """Raise unless a joint score over ``b`` inputs is allowed: at least one
    and at most ``MAX_BATCH`` inputs, and for an unlabelled batch at most
    ``MAX_LABEL_CONFIGS`` label configurations."""
    if b < 1:
        raise ValueError("batch must contain at least one input")
    if b > MAX_BATCH:
        raise BatchTooLarge(f"batch size {b} exceeds the cap of {MAX_BATCH}")
    if not labelled and model.n_labels**b > MAX_LABEL_CONFIGS:
        raise BatchTooLarge(f"{model.n_labels**b} label configurations exceed the cap of "
                            f"{MAX_LABEL_CONFIGS}")


# ---------------------------------------------------------------------------
# Evidence lower bounds on finite spaces


@dataclass(frozen=True)
class ElboVIResult:
    elbo: float
    log_evidence: float
    kl_gap: float  # KL(q || posterior); log_evidence == elbo + kl_gap


_VI_KL = "KL[q(Omega) || p(Omega)]"


def elbo_vi(model: BayesModel, data, q) -> ElboVIResult:
    """The variational lower bound on log p(data), exactly.

    ``q`` is a distribution over hypotheses.  Returns the bound, the exact
    log evidence, and the KL gap to the exact posterior; the three satisfy
    log_evidence = elbo + kl_gap identically.
    """
    from .expr import evaluate

    pairs = _observations(model, data)
    q = _normalized(q, "variational distribution")
    if q.shape != model.prior.shape:
        raise ValueError(f"q has length {q.size}; the model has {model.n_hypotheses} hypotheses")
    post = posterior(model, pairs)
    if np.any((post.probs > ZERO_CELL) & (q <= 0)):
        raise SupportMismatch("q must be positive wherever the posterior has mass")
    xs, ys = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    # E_q IC(p(data | omega)), one observation per column; q mass on a
    # hypothesis that rules the data out makes the bound vacuous (SupportMismatch)
    # (not an expression: that would condition on p(data), often under ZERO_MASS)
    expected_nll = float(-plogq(q[:, None], model.likelihood[:, xs, ys]).sum())
    omega = (model.hypothesis_var,)
    q_dist = JointDistribution(omega, q)
    return ElboVIResult(
        elbo=-expected_nll - evaluate(_VI_KL, JointDistribution(omega, model.prior), q_dist),
        log_evidence=log_evidence(model, pairs),
        kl_gap=evaluate(_VI_KL, JointDistribution(omega, post.probs), q_dist),
    )


@dataclass(frozen=True, eq=False)
class LatentVarModel:
    """A discrete latent-variable model with a variational encoder.

    ``prior_z`` is p(z); ``decoder`` rows are p(x | z); ``encoder`` rows are
    q(z | x).  The model marginal is p(x) = sum_z p(z) p(x | z).
    """

    prior_z: np.ndarray  # (n_z,)
    decoder: np.ndarray  # (n_z, n_x)
    encoder: np.ndarray  # (n_x, n_z)

    def __post_init__(self):
        prior_z = _normalized(self.prior_z, "latent prior")
        decoder = np.asarray(self.decoder, dtype=float)
        encoder = np.asarray(self.encoder, dtype=float)
        if decoder.ndim != 2 or decoder.shape[0] != prior_z.size:
            raise ValueError("decoder must have one row per latent outcome")
        if encoder.shape != (decoder.shape[1], prior_z.size):
            raise ValueError("encoder must have shape (n_x, n_z)")
        decoder = _normalized(decoder, "a decoder row")
        encoder = _normalized(encoder, "an encoder row")
        for arr in (prior_z, decoder, encoder):
            arr.setflags(write=False)
        object.__setattr__(self, "prior_z", prior_z)
        object.__setattr__(self, "decoder", decoder)
        object.__setattr__(self, "encoder", encoder)

    @property
    def marginal_x(self) -> np.ndarray:
        return self.prior_z @ self.decoder


@dataclass(frozen=True, eq=False)
class ElboVAEResult:
    """Per-input and expected reconstruction bounds.

    Per input x: ``nll[x] <= reconstruction[x] + kl_prior[x]`` with
    ``gap[x] = KL(q(Z|x) || p(Z|x))`` closing the bound exactly.  The
    expected rows weight the per-x rows by ``x_weights``.
    """

    x_weights: np.ndarray
    nll: np.ndarray  # IC(p(x)) under the model marginal
    reconstruction: np.ndarray  # E_{q(z|x)} IC(p(x|z))
    kl_prior: np.ndarray  # KL(q(Z|x) || p(Z))
    gap: np.ndarray  # KL(q(Z|x) || p(Z|x))
    expected_nll: float
    expected_reconstruction: float
    expected_kl_prior: float
    expected_gap: float


# The per-input rows of an ElboVAEResult, over the joints p(x, z) = p(z) p(x|z)
# and q(x, z) = q(z|x) / n_x with x the input
_VAE_ROWS = {
    "nll": "H[x]",
    "reconstruction": "CE[q(Z|x) || p(x|Z)]",
    "kl_prior": "KL[q(Z|x) || p(Z)]",
    "gap": "KL[q(Z|x) || p(Z|x)]",
}


def elbo_vae(lv: LatentVarModel, x_weights=None) -> ElboVAEResult:
    """Evaluate the reconstruction bound of a latent-variable model exactly.

    ``x_weights`` is the distribution over inputs used for the expected
    bound; it defaults to the model marginal p(x), in which case the
    expected negative log likelihood is exactly the entropy of p(x).
    Inputs of zero weight are skipped, and so by default is an input of model
    probability at most ``ZERO_MASS``; a positive weight on one is an error.
    """
    from .expr import evaluate, evaluate_stack

    marginal = lv.marginal_x
    n_x = marginal.size
    if x_weights is None:
        weights = marginal.copy()
        keep = marginal > ZERO_MASS
    else:
        weights = _normalized(x_weights, "x_weights")
        if weights.shape != marginal.shape:
            raise ValueError(f"x_weights has length {weights.size}; the model has {n_x} inputs")
        keep = weights > ZERO_CELL
    variables = (Variable("X", range(n_x)), Variable("Z", range(lv.prior_z.size)))
    joint = (lv.prior_z[:, None] * lv.decoder).T  # p(x, z), one row per input
    p, q = (JointDistribution(variables, t) for t in (joint, lv.encoder / n_x))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero p(x) raises at H[x]
        faults = keep & ((joint / marginal[:, None] > ZERO_CELL) & (lv.encoder <= 0)).any(axis=1)
    rows = {}
    for field, text in _VAE_ROWS.items():
        values, defined = evaluate_stack(text, Stack.of(p), Stack.of(q), {"X": np.arange(n_x)})
        rows[field] = np.where(keep, values, 0.0)
        faults |= keep & ~defined
    if faults.any():  # the lowest faulty input raises the first error of its rows
        x = int(np.argmax(faults))
        for text in _VAE_ROWS.values():
            evaluate(text, p, q, {"X": x})
        raise SupportMismatch(f"encoder is zero where the exact latent posterior has mass (x={x})")
    expected = {f"expected_{field}": float(weights @ row) for field, row in rows.items()}
    return ElboVAEResult(x_weights=weights, **rows, **expected)
