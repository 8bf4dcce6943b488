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

import json
import math
from dataclasses import dataclass

import numpy as np

from .dist import RENORM_TOLERANCE, ZERO_CELL, ZERO_MASS, JointDistribution, Variable
from .errors import (
    BatchTooLarge,
    InvalidIndex,
    MalformedInput,
    SupportMismatch,
    ZeroEvidence,
    ZeroProbabilityEvent,
    malformed_input,
)
from .quantities import plogq

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
    pairs them, so a longer axis keeps ``np.sum``, and so does a 1-D table,
    which is a single row.
    """
    n = table.shape[-1]
    if table.ndim == 1 or not 0 < n < 8:
        return table.sum(axis=-1, keepdims=True)
    total = table[..., 0].copy()
    for k in range(1, n):
        total += table[..., k]
    return total[..., None]


def _normalized(table, what: str) -> np.ndarray:
    """``table`` as floats, each row along its last axis divided by its sum;
    raises unless every entry is finite and non-negative and every row sums
    to 1 within ``RENORM_TOLERANCE``."""
    table = np.asarray(table, dtype=float)
    # the least entry is NaN if any is, so one reduction rules out NaN and negatives
    if table.ndim == 0 or (table.size and not np.minimum.reduce(table, axis=None) >= 0):
        raise ValueError(f"{what} must hold finite, non-negative numbers")
    total = _row_sums(table)
    lo, hi = total.min(), total.max()  # no temporary the size of ``total``
    if hi == np.inf and np.isinf(table).any():  # an infinite entry, not an overflowing sum
        raise ValueError(f"{what} must hold finite, non-negative numbers")
    for extreme in (lo, hi):
        if abs(extreme - 1.0) > RENORM_TOLERANCE:
            raise ValueError(f"{what} sums to {float(extreme)!r}, not 1")
    return table / total


@dataclass(frozen=True, eq=False)
class BayesModel:
    """Finite hypothesis space, prior, and likelihood table p(y | x, omega)."""

    hypotheses: tuple[str, ...]
    prior: np.ndarray  # (n_omega,)
    inputs: tuple[str, ...]
    labels: tuple[str, ...]
    likelihood: np.ndarray  # (n_omega, n_x, n_y)

    def __post_init__(self):
        hypotheses = tuple(str(h) for h in self.hypotheses)
        inputs = tuple(str(x) for x in self.inputs)
        labels = tuple(str(y) for y in self.labels)
        if len(hypotheses) > MAX_HYPOTHESES:
            raise ValueError(
                f"{len(hypotheses)} hypotheses exceeds the cap of {MAX_HYPOTHESES}"
            )
        for name, seq in (("hypotheses", hypotheses), ("inputs", inputs), ("labels", labels)):
            if not seq:
                raise ValueError(f"{name} must be non-empty")
            if len(set(seq)) != len(seq):
                raise ValueError(f"duplicate {name}")
        prior = _normalized(self.prior, "prior")
        if prior.shape != (len(hypotheses),):
            raise ValueError("prior length must match the hypothesis count")
        lik = np.asarray(self.likelihood, dtype=float)
        expected = (len(hypotheses), len(inputs), len(labels))
        if lik.shape != expected:
            raise ValueError(f"likelihood must have shape {expected}, got {lik.shape}")
        lik = _normalized(lik, "a likelihood row p(. | x, omega)")
        prior.setflags(write=False)
        lik.setflags(write=False)
        object.__setattr__(self, "hypotheses", hypotheses)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "likelihood", lik)

    @property
    def n_hypotheses(self) -> int:
        return len(self.hypotheses)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def input_index(self, x) -> int:
        """The position of input ``x``, given by position or by name."""
        return _resolve(self.inputs, x, "input")

    def label_index(self, y) -> int:
        """The position of label ``y``, given by position or by name."""
        return _resolve(self.labels, y, "label")

    def to_json_dict(self) -> dict:
        return {
            "hypotheses": list(self.hypotheses),
            "prior": [float(p) for p in self.prior],
            "inputs": list(self.inputs),
            "labels": list(self.labels),
            "likelihood": {
                h: {
                    x: [float(v) for v in self.likelihood[i, j]]
                    for j, x in enumerate(self.inputs)
                }
                for i, h in enumerate(self.hypotheses)
            },
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BayesModel":
        with malformed_input("model"):
            hypotheses = [str(h) for h in doc["hypotheses"]]
            inputs = [str(x) for x in doc["inputs"]]
            labels = [str(y) for y in doc["labels"]]
            table = doc["likelihood"]
            rows = [[table[h][x] for x in inputs] for h in hypotheses]
            try:
                lik = np.array(rows, dtype=float)
            except ValueError as exc:  # ragged rows, or an entry that is not a number
                raise MalformedInput(f"malformed model JSON: likelihood: {exc}") from None
            prior = np.asarray(doc["prior"], dtype=float)
        shape = (len(hypotheses), len(inputs), len(labels))
        if lik.shape != shape and all(shape):  # the constructor reports an empty name list
            raise MalformedInput(
                f"malformed model JSON: every likelihood row must be a list of "
                f"{len(labels)} numbers, one per label"
            )
        return cls(tuple(hypotheses), prior, tuple(inputs), tuple(labels), lik)


def _resolve(names: tuple[str, ...], key, what: str) -> int:
    """Integers (Python or numpy) are positions and must lie in range; any
    other key is looked up by its string form."""
    if isinstance(key, (int, np.integer)):
        if 0 <= key < len(names):
            return int(key)
        raise InvalidIndex(f"{what} index {key} is out of range 0..{len(names) - 1}")
    try:
        return names.index(str(key))
    except ValueError:
        raise InvalidIndex(f"unknown {what} {key!r}") from None


def _resolve_all(names: tuple[str, ...], keys, what: str) -> np.ndarray:
    """:func:`_resolve` for many keys; an integer array already in range is
    checked in one pass."""
    idx = np.asarray(keys)
    if idx.dtype.kind in "iu" and idx.size and idx.min() >= 0 and idx.max() < len(names):
        return idx.astype(np.intp, copy=False)
    return np.array([_resolve(names, k, what) for k in keys], dtype=np.intp)


def load_model(path) -> BayesModel:
    with open(path, "r", encoding="utf-8") as fh:
        return BayesModel.from_json_dict(json.load(fh))


def dump_model(model: BayesModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class Dataset:
    """An ordered list of (input index, label index) observations."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, model: BayesModel, pairs) -> "Dataset":
        return cls(tuple(
            (model.input_index(x), model.label_index(y)) for x, y in pairs
        ))

    def __len__(self) -> int:
        return len(self.pairs)


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
        return float(-plogq(self.probs).sum())


def _log_likelihood_sum(model: BayesModel, data: Dataset) -> np.ndarray:
    total = np.zeros(model.n_hypotheses)
    with np.errstate(divide="ignore"):
        for xi, yi in data.pairs:
            total += np.log(model.likelihood[:, xi, yi])
    return total


def posterior(model: BayesModel, data: Dataset | list) -> Posterior:
    """Exact posterior over hypotheses given a dataset (log-space update)."""
    if not isinstance(data, Dataset):
        data = Dataset.from_pairs(model, data)
    with np.errstate(divide="ignore"):
        log_post = np.log(model.prior) + _log_likelihood_sum(model, data)
    return _posterior_from_log(log_post)


def log_evidence(model: BayesModel, data: Dataset | list) -> float:
    """log p(data) by exact enumeration over hypotheses."""
    if not isinstance(data, Dataset):
        data = Dataset.from_pairs(model, data)
    with np.errstate(divide="ignore"):
        log_joint = np.log(model.prior) + _log_likelihood_sum(model, data)
    top = log_joint.max()
    if not np.isfinite(top):
        raise ZeroEvidence("the dataset has probability zero under every hypothesis")
    return float(top + np.log(np.exp(log_joint - top).sum()))


def _posterior_from_log(log_post: np.ndarray) -> Posterior:
    finite = np.isfinite(log_post)
    if not np.any(finite):
        raise ZeroEvidence("the dataset has probability zero under every hypothesis")
    shifted = log_post - log_post[finite].max()
    probs = np.exp(shifted, where=np.isfinite(shifted), out=np.zeros_like(shifted))
    return Posterior(probs / probs.sum())


def update(model: BayesModel, post: Posterior, x, y) -> Posterior:
    """One exact Bayes step: reweight the posterior by p(y | x, omega)."""
    xi, yi = model.input_index(x), model.label_index(y)
    weights = post.probs * model.likelihood[:, xi, yi]
    total = weights.sum()
    if total <= ZERO_MASS:
        raise ZeroEvidence(
            f"observation (x={model.inputs[xi]!r}, y={model.labels[yi]!r}) has zero "
            f"probability under the current posterior"
        )
    return Posterior(weights / total)


def predictive(model: BayesModel, post: Posterior, x) -> np.ndarray:
    """The posterior-mixture label distribution p(y | x, data)."""
    xi = model.input_index(x)
    return post.probs @ model.likelihood[:, xi, :]


def joint_label_hypothesis(model: BayesModel, post: Posterior, x) -> JointDistribution:
    """The joint over (Omega, Y) at input x -- a bridge to the exact
    information-quantity engine for cross-checking the fast scores."""
    xi = model.input_index(x)
    cells = post.probs[:, None] * model.likelihood[:, xi, :]
    return JointDistribution(
        (Variable("Omega", model.hypotheses), Variable("Y", model.labels)),
        cells,
    )


def predictive_table(model: BayesModel, post: Posterior) -> np.ndarray:
    """p(y | x, data) for every input, shape (n_x, n_y): one matmul of the
    posterior with the likelihood table."""
    n_omega, n_x, n_y = model.likelihood.shape
    return (post.probs @ model.likelihood.reshape(n_omega, n_x * n_y)).reshape(n_x, n_y)


def _label_entropy(lik: np.ndarray) -> np.ndarray:
    """H[Y | x, omega] of likelihood rows p(. | x, omega) on the last axis.

    The label axis is short, so it is summed one slice at a time: a numpy
    reduction over a short innermost axis runs several times slower.
    """
    terms = plogq(lik)
    entropy = -terms[..., 0]
    for y in range(1, terms.shape[-1]):
        entropy -= terms[..., y]
    return entropy


def _block(cells_per_slice: int) -> int:
    return max(1, _BLOCK_CELLS // cells_per_slice)


def label_entropy_table(model: BayesModel) -> np.ndarray:
    """The conditional label entropy H[Y | x, omega] of every hypothesis and
    input, shape (n_omega, n_x).

    This is the posterior-independent half of every BALD score, so a
    simulation builds it once and reuses it at every step.  It is built a
    block of hypotheses at a time, each block one contiguous run of the
    likelihood table, so no temporary as large as that table is held.
    """
    lik = model.likelihood
    n_omega, n_x, n_y = lik.shape
    table = np.empty((n_omega, n_x))
    step = _block(n_x * n_y)
    for start in range(0, n_omega, step):
        table[start:start + step] = _label_entropy(lik[start:start + step])
    return table


@dataclass(frozen=True, eq=False)
class LabelConfigs:
    """The labels of a batch prefix x_1..x_k under each hypothesis.

    ``probs[omega, c]`` is p(y_1..y_k = c | x_1..x_k, omega) for each of the
    n_y**k label configurations c, and ``cond[omega]`` is
    H[Y_1..Y_k | x_1..x_k, omega].  The labels are independent given omega,
    so both grow by one input at a time (BatchBALD) instead of being rebuilt
    for every candidate.
    """

    probs: np.ndarray  # (n_omega, n_y**k)
    cond: np.ndarray  # (n_omega,)

    @classmethod
    def empty(cls, model: BayesModel) -> "LabelConfigs":
        return cls(np.ones((model.n_hypotheses, 1)), np.zeros(model.n_hypotheses))

    def extend(self, model: BayesModel, x) -> "LabelConfigs":
        """The configurations of the prefix followed by input ``x``."""
        lik = model.likelihood[:, model.input_index(x), :]
        probs = (self.probs[:, :, None] * lik[:, None, :]).reshape(len(lik), -1)
        return LabelConfigs(probs, self.cond + _label_entropy(lik))


def _joint_bald(probs: np.ndarray, lik: np.ndarray, table: np.ndarray,
                prefix: LabelConfigs) -> np.ndarray:
    """I[Omega; Y_1..Y_k, Y | x_1..x_k, x] for each input x of the likelihood
    block ``lik`` (n_omega, n, n_y), whose label entropies are ``table``
    (n_omega, n): the entropy of the joint label predictive minus the
    posterior mean of the prefix's and x's conditional entropies."""
    n_omega, n, n_y = lik.shape
    weighted = (probs[:, None] * prefix.probs).T  # (n_configs, n_omega)
    n_configs = len(weighted)
    joint_entropy = np.empty(n)
    step = _block(n_configs * n_y)
    for start in range(0, n, step):
        block = lik[:, start:start + step].reshape(n_omega, -1)
        joint = (weighted @ block).reshape(n_configs, -1, n_y)
        joint_entropy[start:start + step] = _label_entropy(joint).sum(axis=0)
    return joint_entropy - (probs @ prefix.cond + probs @ table)


def bald_scores(model: BayesModel, post: Posterior, table: np.ndarray,
                prefix: LabelConfigs | None = None) -> np.ndarray:
    """The BALD score of every input, shape (n_x,).

    ``table`` is :func:`label_entropy_table` of the model.  Without a
    ``prefix``, entry x is the expected information gain I[Omega; Y | x];
    with one it is the joint gain I[Omega; Y_1..Y_k, Y | x_1..x_k, x] of the
    prefix's inputs followed by x, which greedy batch acquisition maximises
    one input at a time.
    """
    if prefix is None:
        prefix = LabelConfigs.empty(model)
    return _joint_bald(post.probs, model.likelihood, table, prefix)


def _xlogx(v: np.ndarray) -> np.ndarray:
    """v log v elementwise, 0 only at exact zeros: unlike :func:`plogq`, no
    cell up to ``ZERO_CELL`` is dropped, because reweighting by a candidate of
    small predictive probability can lift such a cell to real mass."""
    out = np.maximum(v, np.nextafter(0.0, 1.0))  # a positive cell stays as it is
    np.log(out, out=out)
    out *= v
    return out


@dataclass(frozen=True, eq=False)
class CsdTable:
    """The likelihood columns p(y | x, omega) of labelled candidates and
    their terms p log p, each of shape (n_omega, n): the
    posterior-independent half of every csd score."""

    lik: np.ndarray
    plogp: np.ndarray


def csd_table(model: BayesModel, xs, ys) -> CsdTable:
    """The :class:`CsdTable` of the labelled candidates (xs[i], ys[i]); a
    simulation builds it once over its pool and reuses it at every step."""
    xs = _resolve_all(model.inputs, xs, "input")
    ys = _resolve_all(model.labels, ys, "label")
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    cells = model.likelihood.reshape(model.n_hypotheses, -1)
    lik = np.take(cells, xs * model.n_labels + ys, axis=1)
    plogp = _xlogx(lik)
    lik.setflags(write=False)
    plogp.setflags(write=False)
    return CsdTable(lik, plogp)


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
    weights = post.probs
    for x, y in given:
        weights = weights * model.likelihood[:, model.input_index(x), model.label_index(y)]
    total = weights @ table.lik  # unnormalised, so the floor is on the joint mass
    possible = total > ZERO_MASS
    scale = weights.sum() or 1.0  # without mass every candidate is impossible
    p = weights / scale
    z = np.where(possible, total / scale, 1.0)
    # E_p[log p] is taken out of the matvec, so it sums only the small centred
    # terms, and scores equal in exact arithmetic round well inside TIE_TOLERANCE
    plogp = _xlogx(p)
    mean = plogp.sum()
    after = np.log(z) - (p @ table.plogp + (plogp - mean * p) @ table.lik) / z - mean
    return np.where(possible, -_xlogx(post.probs).sum() - after, -np.inf)


def bald(model: BayesModel, post: Posterior, x) -> float:
    """Expected information gain about the hypotheses from labelling x:
    the predictive entropy minus the posterior-average conditional entropy.
    One input of :func:`bald_scores`."""
    return _bald_at(model, post, model.input_index(x), LabelConfigs.empty(model))


def _bald_at(model: BayesModel, post: Posterior, xi: int, prefix: LabelConfigs) -> float:
    """:func:`bald_scores` restricted to input ``xi``."""
    lik = model.likelihood[:, xi:xi + 1]
    return float(_joint_bald(post.probs, lik, _label_entropy(lik), prefix)[0])


def csd(model: BayesModel, post: Posterior, x, y) -> float:
    """Realized information gain of the labelled pair (x, y): the posterior
    entropy drop after the exact Bayes step.  May be negative.  One
    candidate of :func:`csd_scores`."""
    xi, yi = model.input_index(x), model.label_index(y)
    score = float(csd_scores(model, post, csd_table(model, [xi], [yi]))[0])
    if score == -np.inf:
        raise ZeroProbabilityEvent(
            f"label {model.labels[yi]!r} has zero predictive probability at "
            f"x={model.inputs[xi]!r}"
        )
    return score


def surprise(model: BayesModel, post: Posterior, x, y) -> float:
    """KL of the updated posterior from the current one; always >= 0."""
    new_post, _, _ = _updated(model, post, x, y)
    return _kl(new_post.probs, post.probs)


def _updated(model: BayesModel, post: Posterior, x, y):
    """The posterior after observing (x, y), the evidence p(y | x, data),
    and the likelihood column p(y | x, omega)."""
    xi, yi = model.input_index(x), model.label_index(y)
    lik = model.likelihood[:, xi, yi]
    evidence = float(post.probs @ lik)
    if evidence <= ZERO_MASS:
        raise ZeroProbabilityEvent(
            f"label {model.labels[yi]!r} has zero predictive probability at "
            f"x={model.inputs[xi]!r}"
        )
    return Posterior(post.probs * lik / evidence), evidence, lik


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) of two vectors: the expectation under p of -log(q / p)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(-plogq(p, q / p).sum())


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
    new_post, evidence, lik = _updated(model, post, x, y)
    old, new = post.probs, new_post.probs
    return CsdDecomposition(
        info_gain=post.entropy - new_post.entropy,
        # the old posterior code's expected length under the old and new beliefs
        code_shift=post.entropy + float(plogq(new, old).sum()),
        surprise=_kl(new, old),
        label_entropy_direct=float(-plogq(new, lik).sum()),
        label_entropy_importance=float(-plogq(old * lik / evidence, lik).sum()),
    )


def batch_score(model: BayesModel, post: Posterior, xs, ys=None) -> float:
    """Joint acquisition score for a batch of inputs.

    Without labels this is the joint expected information gain
    I[Omega; Y_1..Y_b | x_1..x_b] over all label configurations; with labels
    it is the realized joint information gain of the labelled batch.
    """
    xis = [model.input_index(x) for x in xs]
    check_batch_size(model, len(xis), labelled=ys is not None)
    if ys is not None:
        yis = [model.label_index(y) for y in ys]
        if len(yis) != len(xis):
            raise ValueError("xs and ys must have equal length")
        table = csd_table(model, xis[-1:], yis[-1:])
        score = float(csd_scores(model, post, table, given=zip(xis[:-1], yis[:-1]))[0])
        if score == -np.inf:
            raise ZeroProbabilityEvent("the labelled batch has zero probability")
        return score
    prefix = LabelConfigs.empty(model)
    for xi in xis[:-1]:
        prefix = prefix.extend(model, xi)
    return _bald_at(model, post, xis[-1], prefix)


def check_batch_size(model: BayesModel, b: int, *, labelled: bool) -> None:
    """Raise unless a joint score over ``b`` inputs is allowed: at least one
    and at most ``MAX_BATCH`` inputs, and for an unlabelled batch at most
    ``MAX_LABEL_CONFIGS`` label configurations."""
    if b < 1:
        raise ValueError("batch must contain at least one input")
    if b > MAX_BATCH:
        raise BatchTooLarge(f"batch size {b} exceeds the cap of {MAX_BATCH}")
    if not labelled and model.n_labels**b > MAX_LABEL_CONFIGS:
        raise BatchTooLarge(
            f"{model.n_labels**b} label configurations exceed the cap of "
            f"{MAX_LABEL_CONFIGS}"
        )


# ---------------------------------------------------------------------------
# Evidence lower bounds on finite spaces


@dataclass(frozen=True)
class ElboVIResult:
    elbo: float
    log_evidence: float
    kl_gap: float  # KL(q || posterior); log_evidence == elbo + kl_gap


def elbo_vi(model: BayesModel, data: Dataset | list, q) -> ElboVIResult:
    """The variational lower bound on log p(data), exactly.

    ``q`` is a distribution over hypotheses.  Returns the bound, the exact
    log evidence, and the KL gap to the exact posterior; the three satisfy
    log_evidence = elbo + kl_gap identically.
    """
    if not isinstance(data, Dataset):
        data = Dataset.from_pairs(model, data)
    q = _normalized(q, "variational distribution")
    post = posterior(model, data)
    if np.any((post.probs > ZERO_CELL) & (q <= 0)):
        raise SupportMismatch("q must be positive wherever the posterior has mass")
    xs, ys = np.array(data.pairs, dtype=np.intp).reshape(-1, 2).T
    # E_q IC(p(data | omega)), one observation per column; q mass on a
    # hypothesis that rules the data out makes the bound vacuous (SupportMismatch)
    expected_nll = float(-plogq(q[:, None], model.likelihood[:, xs, ys]).sum())
    return ElboVIResult(
        elbo=-expected_nll - _kl(q, model.prior),
        log_evidence=log_evidence(model, data),
        kl_gap=_kl(q, post.probs),
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


def elbo_vae(lv: LatentVarModel, x_weights=None) -> ElboVAEResult:
    """Evaluate the reconstruction bound of a latent-variable model exactly.

    ``x_weights`` is the distribution over inputs used for the expected
    bound; it defaults to the model marginal p(x), in which case the
    expected negative log likelihood is exactly the entropy of p(x).
    Inputs with zero weight are skipped; a positive weight on an input of
    zero model probability is an error.
    """
    marginal = lv.marginal_x
    if x_weights is None:
        weights = marginal.copy()
    else:
        weights = _normalized(x_weights, "x_weights")
        if weights.size != marginal.size:
            raise ValueError("x_weights length must match the input space")
    n_x = marginal.size
    nll = np.zeros(n_x)
    recon = np.zeros(n_x)
    kl_prior = np.zeros(n_x)
    gap = np.zeros(n_x)
    for xi in range(n_x):
        if weights[xi] <= ZERO_CELL and x_weights is not None:
            continue
        if marginal[xi] <= ZERO_CELL:
            if weights[xi] > ZERO_CELL:
                raise ZeroProbabilityEvent(
                    f"input {xi} has zero model probability but positive weight"
                )
            continue
        q_z = lv.encoder[xi]
        post_z = lv.prior_z * lv.decoder[:, xi] / marginal[xi]
        if np.any((post_z > ZERO_CELL) & (q_z <= 0)):
            raise SupportMismatch(
                f"encoder is zero where the exact latent posterior has mass (x={xi})"
            )
        nll[xi] = -math.log(marginal[xi])
        # SupportMismatch where q reaches a latent that cannot produce x
        recon[xi] = float(-plogq(q_z, lv.decoder[:, xi]).sum())
        kl_prior[xi] = _kl(q_z, lv.prior_z)
        gap[xi] = _kl(q_z, post_z)
    return ElboVAEResult(
        x_weights=weights,
        nll=nll,
        reconstruction=recon,
        kl_prior=kl_prior,
        gap=gap,
        expected_nll=float(weights @ nll),
        expected_reconstruction=float(weights @ recon),
        expected_kl_prior=float(weights @ kl_prior),
        expected_gap=float(weights @ gap),
    )
