"""Desk-scale pool-based active-learning / core-set simulator.

Each step scores every remaining pool candidate with the configured
acquisition function, acquires the top scorer(s) (a score within
``TIE_TOLERANCE`` of the best ties with it; ties go to the lowest pool index),
performs an exact posterior update, and records evaluation metrics.  Runs are
deterministic given the config and seed; the CSV output is byte-identical.

Scoring is whole-pool: one pass of the ``bayes`` kernels scores every
candidate at once, on the posterior's array and the positions ``SimConfig``
checked, and the evaluation pass is one predictive matmul.  A greedy batch
step shares the label entropies of every input between its picks.

Label-aware acquisitions (csd, batch_csd) see the pool labels; bald only
ever receives the input, so it cannot peek at labels by construction.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import bayes
from .bayes import BayesModel
from .dist import TIE_TOLERANCE, integer, known_keys, read_json
from .errors import ZeroEvidence, malformed_input

logger = logging.getLogger(__name__)

ACQUISITIONS = ("uniform", "bald", "csd", "batch_bald", "batch_csd")

CSV_HEADER = "step,x,y,score,posterior_entropy,accuracy,logloss"

_NUMBERS = (("batch_size", int), ("steps", int), ("seed", int), ("noise_rate", float))


@dataclass(frozen=True)
class SimConfig:
    """A declarative active-learning experiment.

    ``noise_rate`` flips that fraction of pool labels (chosen by the run
    seed) before the run starts -- the mislabeling ablation.  The
    evaluation set is never touched by noise.
    """

    model: BayesModel
    pool: tuple[tuple[int, int], ...]  # (input index, label index)
    eval_set: tuple[tuple[int, int], ...]
    initial: tuple[tuple[int, int], ...] = ()
    acquisition: str = "bald"
    batch_size: int = 1
    steps: int = 10
    seed: int = 0
    noise_rate: float = 0.0

    def __post_init__(self):
        for key, kind in _NUMBERS:  # in Python as in a config file
            object.__setattr__(self, key, _number(key, getattr(self, key), kind))
        if self.acquisition not in ACQUISITIONS:
            raise ValueError(f"acquisition must be one of {ACQUISITIONS}, got {self.acquisition!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ValueError("noise_rate must lie in [0, 1]")
        _seed(self.seed)
        for name in ("pool", "eval_set", "initial"):
            pairs = tuple(bayes._observations(self.model, getattr(self, name), name))
            if not pairs and name != "initial":
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, pairs)

    @classmethod
    def from_json_dict(cls, doc: dict, *, model: BayesModel | None = None) -> "SimConfig":
        with malformed_input("simulation config"):
            known_keys(doc, ("model", "pool", "eval", "initial", "acquisition", "batch_size",
                             "steps", "seed", "noise_rate"), "simulation config")
            if model is None:
                spec = doc["model"]
                model = (bayes.load_model(spec) if isinstance(spec, str)
                         else BayesModel.from_json_dict(spec))
            fields = dict(
                pool=_pairs(doc["pool"]),
                eval_set=_pairs(doc["eval"]),
                initial=_pairs(doc.get("initial", ())),
                acquisition=doc.get("acquisition", "bald"),
                **{key: doc[key] for key, _ in _NUMBERS if key in doc},
            )
            return cls(model=model, **fields)  # its numbers are read by _number


def _pairs(entries) -> tuple:
    """A config's [input, label] lists as pairs: a string or a mapping of two is not one."""
    if any(not isinstance(p, list) or len(p) != 2 for p in entries):
        raise TypeError("every pool, eval and initial entry must be an [input, label] pair")
    return tuple(map(tuple, entries))


def _number(key, value, kind):
    """The config field ``key`` as ``kind``: a number (Python or numpy), not
    a bool or a string, and for an int, without a fraction and, given as a
    float, below 2**63 in magnitude (``read_json`` hands a larger integer
    over as a float, its digits lost)."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not number or kind is int and value % 1:
        raise TypeError(f"{key}: expected {kind.__name__}, got {value!r}")
    if kind is int and isinstance(value, (float, np.floating)) and abs(value) >= 2**63:
        raise TypeError(f"{key}: the float {value!r} is too large to be an exact integer; "
                        f"give an integer in [-2**63, 2**64)")
    return kind(value)


def _seed(seed) -> int:
    """``seed`` read as a config's: an integer in [0, 2**64), numpy's range."""
    if not 0 <= (seed := _number("seed", seed, int)) < 2**64:
        raise ValueError(f"seed = {seed!r}: a seed must lie in [0, 2**64)")
    return seed


def load_config(path) -> SimConfig:
    return read_json(path, "simulation config", SimConfig.from_json_dict)


@dataclass(frozen=True)
class SimRow:
    step: int
    x: str
    y: str
    score: float
    posterior_entropy: float
    accuracy: float
    logloss: float


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    rows: tuple[SimRow, ...]

    def to_csv(self) -> str:
        lines = [CSV_HEADER] + [f"{r.step},{r.x},{r.y},{r.score!r},{r.posterior_entropy!r},"
                                f"{r.accuracy!r},{r.logloss!r}" for r in self.rows]
        return "\n".join(lines) + "\n"

    def acquisitions_to_accuracy(self, target: float = 1.0) -> int | None:
        """1-based count of acquisitions until eval accuracy first reaches
        ``target``; None if it never does."""
        return next((i + 1 for i, row in enumerate(self.rows) if row.accuracy >= target), None)


def _evaluate(model: BayesModel, probs, eval_x, eval_y, cells) -> tuple[float, float]:
    """Accuracy and mean log loss over the evaluation set, as Python floats;
    ``cells`` are the flat positions ``eval_x * n_labels + eval_y`` of its
    labels in the predictive table.

    Each is what ``ndarray.mean`` returns, a sum over the count, taken
    without its wrappers; a label of zero predictive probability has log 0 =
    -inf, as ``np.log`` gives it, without the warning."""
    n = len(eval_y)
    table = bayes._predictive_table(model, probs)
    correct = int(np.count_nonzero(table.argmax(axis=1)[eval_x] == eval_y))  # ties: lowest label
    loss = bayes._log(table.ravel()[cells])
    np.negative(loss, out=loss)
    return correct / n, float(np.add.reduce(loss)) / n


def _apply_label_noise(pool, n_labels: int, rate: float, rng) -> tuple:
    n_flip = int(round(rate * len(pool)))
    if n_flip == 0:
        return tuple(pool)
    idx = rng.choice(len(pool), size=n_flip, replace=False)
    noisy = list(pool)
    for i in sorted(int(j) for j in idx):
        xi, yi = noisy[i]
        if n_labels == 2:
            flipped = 1 - yi
        else:
            others = [y for y in range(n_labels) if y != yi]
            flipped = int(others[rng.integers(len(others))])
        noisy[i] = (xi, flipped)
    return tuple(noisy)


def _score_table(model, acquisition, pool_x, pool_y):
    """The posterior-independent half of the scores, built once per run."""
    if acquisition in ("bald", "batch_bald"):
        return bayes.label_entropy_table(model)
    if acquisition in ("csd", "batch_csd"):
        return bayes._csd_table(model, pool_x, pool_y)
    return None


def _tied(scores: np.ndarray) -> np.ndarray:
    """Which scores lie within ``TIE_TOLERANCE`` of the best (all if all are -inf)."""
    return scores >= np.maximum.reduce(scores) - TIE_TOLERANCE


def _select_batch(model, probs, remaining, pool_x, pool_y, cfg, rng, table):
    """One step's batch as [(pool index, score), ...] in acquisition order,
    and the first scoring pass's score of every remaining candidate.

    ``probs`` is the posterior's array and ``remaining`` is in ascending
    pool order.  Uniform draws are ranked by a stable sort; every other pick
    is the lowest remaining pool index tied with the best score.  The greedy
    batch variants rescore after each pick the joint gain of the batch so far
    plus one candidate.
    """
    cands = np.asarray(remaining)
    b = min(cfg.batch_size, len(cands))
    if cfg.acquisition == "uniform":
        scores = rng.random(len(cands))
        order = np.argsort(-scores, kind="stable")[:b]
        return [(int(cands[k]), float(scores[k])) for k in order], scores
    greedy, labelled = cfg.acquisition.startswith("batch_"), cfg.acquisition.endswith("csd")
    if greedy:
        bayes.check_batch_size(model, b, labelled=labelled)
    xs = pool_x[cands]
    if not labelled:  # E_post H[Y | x, omega] of every input, shared by the step's picks
        cond = probs @ table
    left = np.arange(len(cands))  # positions into cands not yet chosen
    chosen: list[tuple[int, float]] = []
    prefix = None  # of the greedy bald picks so far
    for _ in range(b):
        if not chosen or greedy:
            if labelled:
                given = [(pool_x[i], pool_y[i]) for i, _ in chosen]
                scores = bayes._csd_scores(model, probs, table, given)[cands]
            else:
                scores = bayes._joint_bald(probs, model.likelihood, cond, prefix)[xs]
            first = scores if not chosen else first
        k = left[_tied(scores[left]).argmax()]
        chosen.append((int(cands[k]), float(scores[k])))
        if len(chosen) < b:  # another pick follows
            left = left[left != k]
            if greedy and not labelled:
                prefix = bayes._grown(model, prefix, xs[k], table[:, xs[k]])
    return chosen, first


def _leaders(model, scores, remaining, pool_x, k=3) -> str:
    """The ``k`` best (input, score) pairs of one scoring pass, for the log."""
    order = np.argsort(-scores, kind="stable")[:k]
    return ", ".join(f"{model.inputs[pool_x[remaining[j]]]}={scores[j]:.6g}" for j in order)


def run_sim(cfg: SimConfig) -> SimResult:
    """Run the experiment; deterministic given the config (incl. its seed).

    At DEBUG level the run first logs its set-up time (label noise, initial
    posterior and score table), then each step its wall time, the top three
    candidate scores of its first scoring pass, and how many tied at the top.
    """
    debug, started = logger.isEnabledFor(logging.DEBUG), time.perf_counter()
    # the seed feeds only uniform's draws and the label noise
    draws = cfg.acquisition == "uniform" or cfg.noise_rate > 0
    rng = np.random.default_rng(cfg.seed) if draws else None
    model = cfg.model
    pool = _apply_label_noise(cfg.pool, model.n_labels, cfg.noise_rate, rng)
    probs = bayes._renormalized(bayes._posterior(model, cfg.initial))
    pool_x, pool_y = (np.array(col, dtype=np.intp) for col in zip(*pool))
    table = _score_table(model, cfg.acquisition, pool_x, pool_y)
    eval_x, eval_y = (np.array(col, dtype=np.intp) for col in zip(*cfg.eval_set))
    eval_cells = eval_x * model.n_labels + eval_y
    if debug:
        logger.debug("set-up: %.3f ms; label noise, initial posterior and score table",
                     1e3 * (time.perf_counter() - started))
    remaining = list(range(len(pool)))
    rows: list[SimRow] = []
    for step in range(1, cfg.steps + 1):
        if not remaining:
            break
        started = time.perf_counter()
        batch, scores = _select_batch(model, probs, remaining, pool_x, pool_y, cfg, rng, table)
        if debug:
            leaders = _leaders(model, scores, remaining, pool_x)
            ties = int(_tied(scores).sum())
        for pool_idx, score in batch:
            remaining.remove(pool_idx)
            xi, yi = pool[pool_idx]
            try:
                probs = bayes._renormalized(bayes._update(model, probs, xi, yi))
            except ZeroEvidence as err:
                logger.warning("step %d: skipped: %s", step, err)
            accuracy, logloss = _evaluate(model, probs, eval_x, eval_y, eval_cells)
            rows.append(SimRow(step, model.inputs[xi], model.labels[yi], score,
                               bayes._entropy(probs), accuracy, logloss))
        if debug:
            logger.debug("step %d: %.3f ms; top candidates %s; %d tied at the top", step,
                         1e3 * (time.perf_counter() - started), leaders, ties)
    return SimResult(config=cfg, rows=tuple(rows))


def threshold_task(n_points: int = 32, true_threshold: int | None = None, *,
                   label_flip: float = 0.02, seed: int = 0):
    """The default synthetic task: 1-D threshold classifiers on a grid.

    Hypotheses are thresholds t in 0..n_points; hypothesis t labels input x
    as 1 iff x >= t, softened by ``label_flip`` likelihood noise.  Returns
    ``(model, pool, eval_set)`` where the pool and evaluation set are the
    full grid labelled by the true threshold (no label noise -- pass
    ``noise_rate`` to the config for the mislabeling ablation).
    """
    if not 0.0 < label_flip < 0.5:
        raise ValueError("label_flip must lie in (0, 0.5)")
    n_points = integer(n_points, f"n_points = {n_points!r}")
    rng = np.random.default_rng(_seed(seed))
    if true_threshold is None:
        if n_points < 2:
            raise ValueError(f"n_points = {n_points}: a drawn threshold needs at least 2 points")
        true_threshold = int(rng.integers(1, n_points))
    true_threshold = integer(true_threshold, f"true_threshold = {true_threshold!r}")
    if not 0 < true_threshold <= n_points:
        raise ValueError("true_threshold must lie in 1..n_points")
    inputs = tuple(str(i) for i in range(n_points))
    hypotheses = tuple(f"t{t}" for t in range(n_points + 1))
    lik = np.empty((n_points + 1, n_points, 2))
    above = np.arange(n_points)[None, :] >= np.arange(n_points + 1)[:, None]  # x >= t
    ones = (label_flip, 1.0 - label_flip)  # p(y = 1 | x, t) for x < t and for x >= t
    # each label's column is filled in place, p(y = 0) as 1 - p(y = 1)
    for column, (below, at) in ((lik[..., 1], ones), (lik[..., 0], (1.0 - ones[0], 1.0 - ones[1]))):
        column.fill(below)
        np.copyto(column, at, where=above)
    model = BayesModel(
        hypotheses=hypotheses,
        prior=np.full(n_points + 1, 1.0 / (n_points + 1)),
        inputs=inputs,
        labels=("0", "1"),
        likelihood=lik,
    )
    labelled = tuple((x, 1 if x >= true_threshold else 0) for x in range(n_points))
    return model, labelled, labelled
