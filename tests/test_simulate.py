import hashlib
import itertools
import json
import math
import re

import numpy as np
import pytest

from discinfo import (
    BatchTooLarge,
    BayesModel,
    InvalidIndex,
    MalformedInput,
    SimConfig,
    ZeroEvidence,
    ZeroProbabilityEvent,
    evaluate,
    run_sim,
    threshold_task,
)
from discinfo import bayes
from discinfo.cli import main
from discinfo.bayes import (
    bald_scores,
    csd_scores,
    csd_table,
    label_entropy_table,
    posterior,
    predictive_table,
    update,
)
from discinfo.simulate import (
    ACQUISITIONS,
    CSV_HEADER,
    _apply_label_noise,
    _score_table,
    _select_batch,
    load_config,
)

from notation import batch_gains, batch_joint

LN2 = math.log(2.0)


def disambiguation_model():
    """x1 separates the two hypotheses deterministically; x0 tells nothing."""
    lik = np.array(
        [
            [[0.5, 0.5], [1.0, 0.0]],
            [[0.5, 0.5], [0.0, 1.0]],
        ]
    )
    return BayesModel(("A", "B"), [0.5, 0.5], ("x0", "x1"), ("0", "1"), lik)


def small_config(**overrides):
    model = disambiguation_model()
    base = dict(
        model=model,
        pool=(("x0", "0"), ("x1", "0")),
        eval_set=(("x1", "0"),),
        acquisition="bald",
        steps=2,
        seed=0,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestAcquisitionChoices:
    def test_bald_and_csd_take_the_discriminating_point_first(self):
        for acq in ("bald", "csd"):
            result = run_sim(small_config(acquisition=acq))
            assert result.rows[0].x == "x1"
            assert result.rows[0].score == pytest.approx(LN2, abs=1e-12)

    def test_no_sample_acquired_twice(self):
        model, pool, eval_set = threshold_task(16, 5)
        for acq in ("uniform", "bald", "csd"):
            cfg = SimConfig(
                model=model, pool=pool, eval_set=eval_set,
                acquisition=acq, steps=16, seed=3,
            )
            rows = run_sim(cfg).rows
            assert len(rows) == 16
            assert len({(r.x, r.step, i) for i, r in enumerate(rows)}) == 16
            assert sorted(r.x for r in rows) == sorted(p for p, _ in
                                                       ((model.inputs[x], y) for x, y in cfg.pool))

    def test_bald_never_consults_pool_labels(self):
        # flipping every pool label cannot change what bald scores or picks
        # first (after that the posterior legitimately depends on what was
        # acquired); the scorer interface only ever receives the input
        model, pool, eval_set = threshold_task(16, 7)
        flipped = tuple((x, 1 - y) for x, y in pool)
        first = {}
        for name, p in (("clean", pool), ("flipped", flipped)):
            cfg = SimConfig(model=model, pool=p, eval_set=eval_set,
                            acquisition="bald", steps=1, seed=1)
            row = run_sim(cfg).rows[0]
            first[name] = (row.x, row.score)
        assert first["clean"] == first["flipped"]

    def test_initial_training_set_is_applied(self):
        # after seeing (x1, 0) the posterior is a point mass, so the
        # disambiguation point carries no further expected gain
        result = run_sim(small_config(initial=(("x1", "0"),), acquisition="bald"))
        assert result.rows[0].score == pytest.approx(0.0, abs=1e-12)

    def test_ties_break_to_lowest_pool_index(self):
        # two copies of the uninformative input score identically
        cfg = small_config(
            pool=(("x0", "0"), ("x0", "1"), ("x1", "0")),
            acquisition="csd",
            steps=3,
        )
        rows = run_sim(cfg).rows
        assert rows[0].x == "x1"  # strictly best
        assert rows[1].y == "0"  # then the index-0 copy of x0


class TestDeterminism:
    def test_same_seed_same_csv(self):
        model, pool, eval_set = threshold_task(16, 9)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set,
                        acquisition="uniform", steps=10, seed=11, noise_rate=0.2)
        assert run_sim(cfg).to_csv() == run_sim(cfg).to_csv()

    def test_different_seed_differs(self):
        model, pool, eval_set = threshold_task(16, 9)
        rows = []
        for seed in (0, 1):
            cfg = SimConfig(model=model, pool=pool, eval_set=eval_set,
                            acquisition="uniform", steps=10, seed=seed)
            rows.append(run_sim(cfg).to_csv())
        assert rows[0] != rows[1]

    @pytest.mark.parametrize("acquisition", ["bald", "csd", "batch_bald", "batch_csd"])
    def test_seed_feeds_only_uniform_draws_and_label_noise(self, acquisition):
        # without label noise these runs draw nothing, so every seed prints the same CSV
        model, pool, eval_set = threshold_task(16, 9)
        csvs = {
            run_sim(SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                              batch_size=2, steps=4, seed=seed)).to_csv()
            for seed in (0, 1, 2**63)
        }
        assert len(csvs) == 1
        noisy = {
            run_sim(SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                              batch_size=2, steps=4, seed=seed, noise_rate=0.25)).to_csv()
            for seed in (0, 1, 2**63)
        }
        assert len(noisy) > 1  # the noise is drawn from the seed

    def test_every_numeric_csv_field_parses_as_a_float(self):
        model, pool, eval_set = threshold_task(16, 9)
        for acq in ACQUISITIONS:
            cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acq,
                            batch_size=2, steps=3, seed=4, noise_rate=0.25)
            for line in run_sim(cfg).to_csv().splitlines()[1:]:
                fields = line.split(",")
                for value in fields[:1] + fields[3:]:
                    float(value)

    def test_csv_shape(self):
        result = run_sim(small_config(steps=2))
        text = result.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(result.rows)
        assert len(lines[1].split(",")) == 7


class TestNoise:
    # _apply_label_noise takes and returns the pool's label positions, in pool order

    def test_flip_count_is_rounded_fraction(self):
        model, pool, eval_set = threshold_task(20, 10)
        from discinfo.simulate import _apply_label_noise

        rng = np.random.default_rng(0)
        clean = np.array([model.label_index(y) for _, y in pool])
        noisy = _apply_label_noise(clean, 2, 0.3, rng)
        assert np.count_nonzero(noisy != clean) == 6  # round(0.3 * 20)

    def test_zero_rate_is_identity(self):
        from discinfo.simulate import _apply_label_noise

        rng = np.random.default_rng(0)
        labels = np.array([1, 0])
        assert _apply_label_noise(labels, 2, 0.0, rng).tolist() == [1, 0]

    def test_a_rate_that_rounds_to_no_flip_draws_nothing(self):
        from discinfo.simulate import _apply_label_noise

        rng = np.random.default_rng(0)
        labels = np.array([1, 0, 1])
        assert _apply_label_noise(labels, 2, 0.1, rng).tolist() == [1, 0, 1]  # round(0.3) flips none
        assert rng.random() == np.random.default_rng(0).random()

    def test_more_than_two_labels_flip_to_one_of_the_others(self):
        from discinfo.simulate import _apply_label_noise

        clean = np.arange(30) % 3
        noisy = _apply_label_noise(clean, 3, 0.5, np.random.default_rng(5))
        # the documented draws: the pairs to flip, then in pool order one other label each
        rng = np.random.default_rng(5)
        expected = clean.tolist()
        for i in sorted(rng.choice(30, size=15, replace=False).tolist()):
            expected[i] = [y for y in range(3) if y != i % 3][rng.integers(2)]
        assert noisy.tolist() == expected
        assert clean.tolist() == [x % 3 for x in range(30)]  # flipped in a copy
        assert {*((noisy - clean) % 3).tolist()} == {0, 1, 2}  # 15 kept, both others drawn

    def test_a_one_label_model_has_no_label_to_flip_to(self, tmp_path):
        model = BayesModel(("a", "b"), [.5, .5], ("x0", "x1"), ("only",), np.ones((2, 2, 1)))
        pool = ((0, 0), (1, 0))
        # before, run_sim raised numpy's bare "high <= 0" from rng.integers(0)
        message = ("noise_rate = 0.5 flips 1 pool labels, but the model has the one label "
                   "'only': none to flip to")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimConfig(model, pool, pool, noise_rate=0.5)
        # a rate that rounds to no flip runs as before, and so does a clean run
        for rate in (0.2, 0.0):
            rows = run_sim(SimConfig(model, pool, pool, acquisition="uniform", steps=2,
                                     noise_rate=rate)).rows
            assert [(r.x, r.y) for r in rows] == [("x0", "only"), ("x1", "only")]


class TestZeroEvidenceHandling:
    def test_contradictory_pair_is_skipped_not_fatal(self, caplog):
        model = disambiguation_model()
        # two contradictory deterministic observations for x1
        cfg = SimConfig(
            model=model,
            pool=(("x1", "0"), ("x1", "1")),
            eval_set=(("x1", "0"),),
            acquisition="csd",
            steps=2,
            seed=0,
        )
        with caplog.at_level("WARNING"):
            result = run_sim(cfg)
        assert len(result.rows) == 2  # both consumed, one skipped
        # hypothesis B gives (x1, 1) probability 1; the posterior after (x1, 0) gives it none
        assert [rec.getMessage() for rec in caplog.records] == [
            "step 2: skipped: observation (x='x1', y='1') has zero probability under the current "
            "posterior"]


    def test_a_faint_pair_is_skipped_with_the_mass_it_was_refused_at(self, caplog):
        # label 0 has predictive mass 1.5e-20: at most ZERO_MASS, but not zero
        model = BayesModel(("a", "b"), [0.5, 0.5], ("x",), ("0", "1"),
                           [[[1e-20, 1 - 1e-20]], [[2e-20, 1 - 2e-20]]])
        cfg = SimConfig(model, (("x", "0"),), (("x", "1"),), acquisition="uniform", steps=1)
        with caplog.at_level("WARNING"):
            rows = run_sim(cfg).rows
        assert len(rows) == 1
        assert [rec.getMessage() for rec in caplog.records] == [
            "step 1: skipped: observation (x='x', y='0') has probability at most 1e-12 under "
            "the current posterior"]


class TestOrderingClaim:
    @staticmethod
    def _median_counts(acq, noise_rate=0.0, draws=10):
        counts = []
        for s in range(draws):
            rng = np.random.default_rng(200 + s)
            t = int(rng.integers(1, 32))
            model, pool, eval_set = threshold_task(32, t)
            cfg = SimConfig(model=model, pool=pool, eval_set=eval_set,
                            acquisition=acq, steps=32, seed=s,
                            noise_rate=noise_rate)
            counts.append(run_sim(cfg).acquisitions_to_accuracy(1.0) or 33)
        return float(np.median(counts))

    def test_median_ordering(self):
        # a 10-draw version; the acceptance suite runs the canonical 20
        csd = self._median_counts("csd")
        bald = self._median_counts("bald")
        uniform = self._median_counts("uniform")
        assert csd <= bald <= uniform

    def test_noise_hurts_csd(self):
        clean = self._median_counts("csd")
        noisy = self._median_counts("csd", noise_rate=0.3)
        assert noisy > clean


class TestBatchAcquisitions:
    def test_batch_bald_runs_and_respects_batch_size(self):
        model, pool, eval_set = threshold_task(12, 5)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set,
                        acquisition="batch_bald", batch_size=3, steps=2, seed=0)
        rows = run_sim(cfg).rows
        assert len(rows) == 6
        assert {r.step for r in rows} == {1, 2}

    def test_batch_csd_beats_uniform_on_the_default_task(self):
        medians = {}
        for acq in ("batch_csd", "uniform"):
            counts = []
            for s in range(8):
                model, pool, eval_set = threshold_task(24, 3 * s % 22 + 1)
                cfg = SimConfig(model=model, pool=pool, eval_set=eval_set,
                                acquisition=acq, batch_size=2, steps=12, seed=s)
                counts.append(run_sim(cfg).acquisitions_to_accuracy(1.0) or 25)
            medians[acq] = float(np.median(counts))
        assert medians["batch_csd"] <= medians["uniform"]


class TestConfigJson:
    def test_a_config_holds_the_checked_pairs_as_read_only_arrays(self):
        model, pool, eval_set = threshold_task(512, 200)
        cfg = SimConfig(model=model, pool=[list(p) for p in pool],
                        eval_set=np.array(eval_set, dtype=np.int32))
        assert cfg.pool == cfg.eval_set == pool and cfg.initial == ()
        assert all(type(v) is int for pair in cfg.pool + cfg.eval_set for v in pair)
        for positions in (cfg._pool, cfg._eval_set):
            assert positions.dtype == np.intp and positions.tolist() == [list(p) for p in pool]
            assert not positions.flags.writeable

    def test_load_inline_model(self, tmp_path):
        model = disambiguation_model()
        doc = {
            "model": model.to_json_dict(),
            "pool": [["x0", "0"], ["x1", "0"]],
            "eval": [["x1", "0"]],
            "acquisition": "csd",
            "steps": 2,
            "seed": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.acquisition == "csd"
        assert cfg.seed == 5
        assert run_sim(cfg).rows

    def test_load_model_by_path(self, tmp_path):
        from discinfo.bayes import dump_model

        model = disambiguation_model()
        model_path = tmp_path / "model.json"
        dump_model(model, model_path)
        doc = {
            "model": str(model_path),
            "pool": [["x1", "1"]],
            "eval": [["x1", "1"]],
            "steps": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.model.hypotheses == model.hypotheses

    @pytest.mark.parametrize("pool, variable", [([[True, 0], [2, 1]], "X"),
                                                ([[1, 0], [2, True]], "Y")])
    def test_a_boolean_pool_entry_is_refused(self, tmp_path, pool, variable):
        # JSON true would otherwise load as position 1
        model, _, eval_set = threshold_task(4)
        doc = {"model": model.to_json_dict(), "pool": pool, "eval": [list(p) for p in eval_set]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert "true" in path.read_text()
        message = f"outcome index True for variable {variable!r} is not an integer"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(acquisition="surprise")
        with pytest.raises(ValueError):
            small_config(noise_rate=1.5)
        with pytest.raises(ValueError):
            small_config(batch_size=0)

    @pytest.mark.parametrize("overrides, message", [
        (dict(steps=0), "steps must be >= 1"),
        (dict(pool=()), "pool must be non-empty"),
        (dict(eval_set=()), "eval_set must be non-empty"),
    ])
    def test_refuses_an_empty_run(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**overrides)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(label_flip=0.5), "label_flip must lie in (0, 0.5)"),
        (dict(label_flip=0.0), "label_flip must lie in (0, 0.5)"),
        (dict(true_threshold=0), "true_threshold must lie in 1..n_points"),
        (dict(true_threshold=5), "true_threshold must lie in 1..n_points"),
    ])
    def test_threshold_task_refuses_what_is_outside_its_range(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            threshold_task(4, **kwargs)

    @pytest.mark.parametrize("args, message", [
        ((1,), "n_points = 1: a drawn threshold needs at least 2 points"),
        ((0,), "n_points = 0: a drawn threshold needs at least 2 points"),
        ((True,), "n_points = True is not an integer"),
        ((2.5,), "n_points = 2.5 is not an integer"),
        ((8.0, 3), "n_points = 8.0 is not an integer"),
        ((8, 3.5), "true_threshold = 3.5 is not an integer"),
        ((8, True), "true_threshold = True is not an integer"),
    ])
    def test_threshold_task_checks_its_integers(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            threshold_task(*args)

    def test_threshold_task_of_one_point_with_its_threshold(self):
        model, pool, eval_set = threshold_task(1, 1)
        assert model.inputs == ("0",) and pool == eval_set == ((0, 0),)
        assert threshold_task(2)[1] == ((0, 0), (1, 1))  # the one threshold a draw can give
        assert threshold_task(np.int64(8), np.int64(3))[1] == threshold_task(8, 3)[1]

    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", True, "batch_size: expected int, got True"),
        ("steps", True, "steps: expected int, got True"),
        ("seed", True, "seed: expected int, got True"),
        ("seed", np.True_, f"seed: expected int, got {np.True_!r}"),
        ("batch_size", 2.5, "batch_size: expected int, got 2.5"),
        ("steps", 2.5, "steps: expected int, got 2.5"),
        ("seed", 1.5, "seed: expected int, got 1.5"),
        ("seed", "1", "seed: expected int, got '1'"),
        ("seed", 1e19, "seed: the float 1e+19 is too large to be an exact integer; "
                       "give an integer in [-2**63, 2**64)"),
        ("noise_rate", "0.1", "noise_rate: expected float, got '0.1'"),
        ("noise_rate", True, "noise_rate: expected float, got True"),
        ("noise_rate", None, "noise_rate: expected float, got None"),
    ])
    def test_config_fields_are_read_as_the_json_reader_reads_them(self, field, value, message):
        model, pool, eval_set = threshold_task(8)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            SimConfig(model=model, pool=pool, eval_set=eval_set, **{field: value})

    def test_config_integral_numbers_become_ints(self):
        model, pool, eval_set = threshold_task(8)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition="batch_bald",
                        batch_size=2.0, steps=np.int64(2), seed=np.float64(1.0), noise_rate=0)
        assert [(type(v), v) for v in (cfg.batch_size, cfg.steps, cfg.seed, cfg.noise_rate)] == [
            (int, 2), (int, 2), (int, 1), (float, 0.0)]
        same = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition="batch_bald",
                         batch_size=2, steps=2, seed=1)
        assert run_sim(cfg).to_csv() == run_sim(same).to_csv()

    @pytest.mark.parametrize("field, value, message", [
        ("steps", 2.7, "steps: expected int, got 2.7"),
        ("seed", True, "seed: expected int, got True"),
        ("batch_size", "2", "batch_size: expected int, got '2'"),
        ("noise_rate", "0.1", "noise_rate: expected float, got '0.1'"),
    ])
    def test_json_reader_messages(self, tmp_path, field, value, message):
        model, pool, eval_set = threshold_task(8)
        doc = {"model": model.to_json_dict(), "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set], field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedInput, match=(
                f"^{re.escape('malformed simulation config JSON: TypeError: ' + message)}$")):
            load_config(path)

    def test_pool_indices_are_checked(self):
        with pytest.raises(InvalidIndex):
            small_config(pool=((-1, 0),))
        with pytest.raises(InvalidIndex):
            small_config(pool=((99, 0),))
        with pytest.raises(InvalidIndex):
            small_config(eval_set=(("x1", "7"),))
        cfg = small_config(pool=((np.int64(1), np.int64(0)),))
        assert cfg.pool == ((1, 0),)

    @pytest.mark.parametrize("field", ["pool", "eval_set", "initial"])
    @pytest.mark.parametrize("pairs", [[(0, 1, 2)], [5], [(0, 1), (1,)], "01"],
                             ids=["triple", "scalar", "ragged", "string"])
    def test_pairs_are_read_as_posterior_reads_its_data(self, field, pairs):
        # a list of (input, label) pairs, never Python's unpacking error ("too many values
        # to unpack (expected 2)", "cannot unpack non-iterable int object")
        message = f"{field} must be a list of (input, label) pairs"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: pairs})

    @pytest.mark.parametrize("seed", [-1, -1.0, np.int64(-5), -2**63, 2**64])
    def test_a_seed_lies_in_numpy_s_range(self, seed):
        # before, a negative seed was accepted and a uniform run failed inside numpy
        message = f"seed = {int(seed)}: a seed must lie in [0, 2**64)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(seed=seed, acquisition="uniform")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            threshold_task(8, seed=seed)
        assert small_config(seed=2**64 - 1).seed == 2**64 - 1
        assert threshold_task(8, seed=2**64 - 1)[0].n_hypotheses == 9

    @pytest.mark.parametrize("seed", [-1, -1.0, -2**63])
    def test_a_seed_in_a_config_file_lies_in_numpy_s_range(self, tmp_path, capsys, seed):
        model, pool, eval_set = threshold_task(8)
        doc = {"model": model.to_json_dict(), "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set], "acquisition": "uniform", "seed": seed}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        message = f"seed = {int(seed)}: a seed must lie in [0, 2**64)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert main(["sim", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _entropy(p):
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum())


def _reference_score(model, probs, pool, prefix, i, acquisition):
    """One candidate's score computed on its own, as the simulator did before
    scoring became whole-pool: the joint score of the batch prefix plus i."""
    lik = model.likelihood
    batch = [pool[j] for j in prefix] + [pool[i]]
    if acquisition in ("bald", "batch_bald"):
        configs = np.ones((len(probs), 1))
        for x, _ in batch:
            configs = (configs[:, :, None] * lik[:, x, None, :]).reshape(len(probs), -1)
        cond = np.array([_entropy(row) for row in configs])
        return _entropy(probs @ configs) - float(probs @ cond)
    weights = probs.copy()
    for x, y in batch:
        weights = weights * lik[:, x, y]
    if weights.sum() <= 1e-300:
        return -np.inf
    return _entropy(probs) - _entropy(weights / weights.sum())


def _pool_arrays(pool):
    return tuple(np.array(col, dtype=np.intp) for col in zip(*pool))


class TestWholePoolSelection:
    @pytest.mark.parametrize("acquisition", ["bald", "csd", "batch_bald", "batch_csd"])
    def test_matches_the_per_candidate_reference(self, acquisition):
        model, pool, eval_set = threshold_task(24, 9)
        pool = pool + pool[3:8] + pool[20:22]  # duplicate entries tie exactly
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                        batch_size=3 if acquisition.startswith("batch_") else 1, seed=0)
        pool_x, pool_y = _pool_arrays(cfg.pool)
        table = _score_table(model, acquisition, pool_x, pool_y)
        post = posterior(model, [])
        remaining = list(range(len(pool)))
        for _ in range(6):
            batch, _ = _select_batch(model, post.probs, remaining, pool_x, pool_y, cfg, None, table)
            if acquisition in ("bald", "csd"):
                ref = {j: _reference_score(model, post.probs, cfg.pool, [], j, acquisition)
                       for j in remaining}
            prefix = []
            for i, score in batch:
                if acquisition.startswith("batch_"):
                    ref = {j: _reference_score(model, post.probs, cfg.pool, prefix, j, acquisition)
                           for j in remaining if j not in prefix}
                assert score == pytest.approx(ref[i], abs=1e-12)
                assert ref[i] >= max(v for j, v in ref.items() if j not in prefix) - 1e-12
                # of identical entries, the lowest pool index goes first
                assert i == min(j for j in ref if j not in prefix and cfg.pool[j] == cfg.pool[i])
                prefix.append(i)
            for i in prefix:
                remaining.remove(i)
                post = update(model, post, *cfg.pool[i])

    def test_uniform_draws_one_number_per_candidate_in_pool_order(self):
        model, pool, eval_set = threshold_task(20, 5)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition="uniform",
                        batch_size=4, seed=3)
        rng = np.random.default_rng(3)
        draws = {i: rng.random() for i in range(len(pool))}
        ranked = sorted(draws, key=lambda i: (-draws[i], i))[:4]
        batch, _ = _select_batch(model, posterior(model, []).probs, list(range(len(pool))),
                                 *_pool_arrays(cfg.pool), cfg, np.random.default_rng(3), None)
        assert batch == [(i, draws[i]) for i in ranked]

    def test_symmetric_inputs_tie_to_the_lower_index(self):
        # the uniform prior makes inputs 255 and 256 of a 512-point grid
        # mirror images, so their expected gains are exactly equal
        model, pool, eval_set = threshold_task(512, seed=1)
        scores = bald_scores(model, posterior(model, []), label_entropy_table(model))
        assert scores[255] == scores[256] == scores.max()
        for acq in ("bald", "batch_bald"):
            cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acq,
                            batch_size=2, steps=1, seed=1)
            assert run_sim(cfg).rows[0].x == "255"

    def test_all_minus_inf_csd_pool_takes_the_first_candidate(self):
        # after (x0, 0) only hypothesis A is left, and A never labels 1
        lik = np.array([[[1.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [0.0, 1.0]]])
        model = BayesModel(("A", "B"), [0.5, 0.5], ("x0", "x1"), ("0", "1"), lik)
        for acq in ("csd", "batch_csd"):
            cfg = SimConfig(model=model, pool=(("x1", "1"), ("x0", "1")),
                            eval_set=(("x1", "0"),), initial=(("x0", "0"),),
                            acquisition=acq, batch_size=2, steps=1)
            pool_x, pool_y = _pool_arrays(cfg.pool)
            batch, _ = _select_batch(model, posterior(model, list(cfg.initial)).probs, [0, 1],
                                     pool_x, pool_y, cfg, None,
                                     _score_table(model, acq, pool_x, pool_y))
            assert batch == [(0, -np.inf), (1, -np.inf)]

    def test_batch_larger_than_the_remaining_pool(self):
        model, pool, eval_set = threshold_task(8, 3)
        for acq in ACQUISITIONS:
            cfg = SimConfig(model=model, pool=pool[:2], eval_set=eval_set, acquisition=acq,
                            batch_size=3, steps=2, seed=0)
            rows = run_sim(cfg).rows
            assert [r.step for r in rows] == [1, 1]
            assert sorted(r.x for r in rows) == ["0", "1"]

    def test_batch_too_large(self):
        model, pool, eval_set = threshold_task(8, 3)
        for acq in ("batch_bald", "batch_csd"):
            cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acq,
                            batch_size=7, steps=1)
            with pytest.raises(BatchTooLarge):
                run_sim(cfg)
            # the batch shrinks to the six remaining points, within the cap
            cfg = SimConfig(model=model, pool=pool[:6], eval_set=eval_set, acquisition=acq,
                            batch_size=7, steps=1)
            assert len(run_sim(cfg).rows) == 6
        # 11 labels: six unlabelled inputs have 11**6 > 10**6 configurations
        lik = np.full((2, 6, 11), 1.0 / 11)
        many = BayesModel(("A", "B"), [0.5, 0.5], tuple("abcdef"), tuple("0123456789X"), lik)
        pairs = tuple((x, 0) for x in range(6))
        for acq, raises in (("batch_bald", True), ("batch_csd", False)):
            cfg = SimConfig(model=many, pool=pairs, eval_set=pairs, acquisition=acq,
                            batch_size=6, steps=1)
            if raises:
                with pytest.raises(BatchTooLarge):
                    run_sim(cfg)
            else:
                assert len(run_sim(cfg).rows) == 6


class TestTieBand:
    """Scores within TIE_TOLERANCE of the best tie with it, and every tie
    goes to the lowest remaining pool index."""

    @pytest.mark.parametrize("acquisition", ["bald", "csd", "batch_bald", "batch_csd"])
    @pytest.mark.parametrize("x", [30, 100, 255])
    def test_mirror_image_pairs_pick_the_lower_index(self, acquisition, x):
        # under the uniform prior, (x, 1) and (511 - x, 0) are mirror images,
        # so their scores are equal but may differ in the last bits
        model, _, eval_set = threshold_task(512, seed=1)
        for pool in (((x, 1), (511 - x, 0)), ((511 - x, 0), (x, 1))):
            cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                            steps=1, seed=0)
            pool_x, pool_y = _pool_arrays(cfg.pool)
            table = _score_table(model, acquisition, pool_x, pool_y)
            batch, scores = _select_batch(model, posterior(model, []).probs, [0, 1], pool_x, pool_y,
                                          cfg, None, table)
            assert scores[0] == pytest.approx(scores[1], abs=1e-13)
            assert batch[0][0] == 0

    def test_csd_and_batch_csd_agree_at_batch_size_one(self):
        model, pool, eval_set = threshold_task(8, seed=1)
        csv = {
            acq: run_sim(SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acq,
                                   steps=8, seed=1)).to_csv()
            for acq in ("csd", "batch_csd")
        }
        assert csv["csd"] == csv["batch_csd"]

    @pytest.mark.parametrize("acquisition", ["bald", "csd", "batch_bald", "batch_csd"])
    def test_of_duplicate_entries_the_lowest_index_goes_first(self, acquisition):
        model, pool, eval_set = threshold_task(16, seed=2)
        pool = pool + pool[::-1]
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                        batch_size=3 if acquisition.startswith("batch_") else 1, seed=0)
        pool_x, pool_y = _pool_arrays(cfg.pool)
        table = _score_table(model, acquisition, pool_x, pool_y)
        post, remaining = posterior(model, []), list(range(len(pool)))
        for _ in range(8):
            batch, _ = _select_batch(model, post.probs, remaining, pool_x, pool_y, cfg, None, table)
            for i, _ in batch:
                twin = len(pool) - 1 - i
                assert i < twin or twin not in remaining
                remaining.remove(i)
                post = update(model, post, *cfg.pool[i])

    @pytest.mark.parametrize("acquisition", ["bald", "batch_bald"])
    @pytest.mark.parametrize("scores, picks", [
        ([0.5, 0.5 + 5e-14, 0.3], [0, 1]),
        ([0.5, 0.5 + 2e-13, 0.3], [1, 0]),
        ([-4e-14, 1e-16, -1.0], [0, 1]),
        ([0.1, -np.inf, 0.1 + 2e-13], [2, 0]),
        ([-np.inf, -np.inf, -np.inf], [0, 1]),
    ])
    def test_band_width(self, monkeypatch, acquisition, scores, picks):
        model, pool, eval_set = threshold_task(3, seed=0)
        monkeypatch.setattr(bayes, "_joint_bald", lambda *args: np.array(scores))
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                        batch_size=2, steps=1)
        batch, _ = _select_batch(model, posterior(model, []).probs, [0, 1, 2],
                                 *_pool_arrays(cfg.pool), cfg, None, label_entropy_table(model))
        assert [i for i, _ in batch] == picks

    def test_uniform_draws_keep_their_exact_order(self):
        class Draws:
            def random(self, n):
                return np.array([0.5, 0.5 + 5e-14, 0.5])

        model, pool, eval_set = threshold_task(3, seed=0)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition="uniform",
                        batch_size=3, steps=1)
        batch, _ = _select_batch(model, posterior(model, []).probs, [0, 1, 2],
                                 *_pool_arrays(cfg.pool), cfg, Draws(), None)
        assert [i for i, _ in batch] == [1, 0, 2]


class TestObservability:
    def test_debug_logs_step_time_and_top_scores(self, caplog):
        model, pool, eval_set = threshold_task(16, 5)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition="bald",
                        steps=3, seed=0)
        with caplog.at_level("DEBUG", logger="discinfo.simulate"):
            run_sim(cfg)
        steps = [r.getMessage() for r in caplog.records
                 if r.levelname == "DEBUG" and r.getMessage().startswith("step ")]
        assert len(steps) == 3
        assert all(" ms; top candidates " in m and m.count("=") == 3 for m in steps)
        # under the uniform prior the mirror-image inputs 7 and 8 tie
        assert [m.rsplit("; ", 1)[1] for m in steps] == [
            "2 tied at the top", "1 tied at the top", "1 tied at the top"]
        caplog.clear()
        with caplog.at_level("INFO", logger="discinfo.simulate"):
            run_sim(cfg)
        # at INFO the run's two phase records only (score table, steps), no step record
        assert [(r.levelname, r.getMessage().split(":")[0]) for r in caplog.records] == [
            ("INFO", "score table"), ("INFO", "steps")]

    @pytest.mark.parametrize("acquisition", ACQUISITIONS)
    def test_debug_logs_the_set_up_once_before_the_first_step(self, caplog, acquisition):
        model, pool, eval_set = threshold_task(16, 5)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                        batch_size=2, steps=2, seed=0, noise_rate=0.25)
        with caplog.at_level("DEBUG", logger="discinfo.simulate"):
            run_sim(cfg)
        messages = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
        assert len(messages) == 3 and messages[1].startswith("step 1: ")
        match = re.fullmatch(r"set-up: (\d+\.\d{3}) ms; label noise, initial posterior and "
                             r"score table", messages[0])
        assert match and float(match[1]) >= 0.0

    # the INFO phase records of a config file's run, as the README documents them
    PHASES = (
        r"model: (\d+\.\d{3}) ms; (\d+) hypotheses, (\d+) inputs, (\d+) labels",
        r"config check: (\d+\.\d{3}) ms; (\d+) pool, (\d+) eval and (\d+) initial pairs",
        r"config file: (\d+) bytes; loaded in (\d+\.\d{3}) ms",
        r"score table: (\d+\.\d{3}) ms; (\w+) over (\d+) pool points",
        r"steps: (\d+\.\d{3}) ms; (\d+) steps, (\d+) points acquired",
    )

    def test_info_logs_each_phase_of_a_config_file_run(self, tmp_path, caplog, capsys):
        model, pool, eval_set = threshold_task(16, 5)
        doc = {"model": model.to_json_dict(), "pool": [list(p) for p in pool],
               "eval": [list(p) for p in eval_set[:4]], "initial": [[0, 0]],
               "acquisition": "batch_bald", "batch_size": 2, "steps": 3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        # the fields besides each time: the model's sizes; the pair counts; bytes; the
        # acquisition and pool size; the steps run and the points acquired
        want = [[17, 16, 2], [16, 4, 1], [path.stat().st_size], ["batch_bald", 16], [3, 6]]
        with caplog.at_level("INFO", logger="discinfo.simulate"):
            run_sim(load_config(path))
        assert {r.levelname for r in caplog.records} == {"INFO"}
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == len(self.PHASES)
        for message, pattern, fields in zip(messages, self.PHASES, want):
            match = re.fullmatch(pattern, message)
            assert match, message
            times = [float(g) for g in match.groups() if "." in g]
            assert times and min(times) >= 0.0
            rest = [int(g) if g.isdigit() else g for g in match.groups() if "." not in g]
            assert rest == fields, message
        # discinfo sim prints the same records at --log-level INFO, and none by default
        out = str(tmp_path / "out.csv")
        assert main(["sim", "--config", str(path), "--out", out]) == 0
        assert capsys.readouterr().err == ""
        assert main(["--log-level", "INFO", "sim", "--config", str(path), "--out", out]) == 0
        lines = capsys.readouterr().err.splitlines()
        prefix = "INFO discinfo.simulate: "
        assert len(lines) == len(self.PHASES)
        assert all(line.startswith(prefix) for line in lines)
        assert [re.fullmatch(p, line[len(prefix):]) is not None
                for p, line in zip(self.PHASES, lines)] == [True] * len(self.PHASES)


# sha256 of run_sim(...).to_csv() on threshold_task(n, seed=1), 12 steps,
# batch 3, run seed 1, recorded before the score tables skipped the 0 * log 0
# scan on models whose every cell is above ZERO_CELL; they hold where numpy's
# float kernels give _FLOAT_KERNELS_SHA256
_FLOAT_KERNELS_SHA256 = "d0b4cf70dd364d655498e42cbb3100bb0a60aee24c57233798597e0458644ba4"
_GOLDEN_CSV_SHA256 = {
    (32, "uniform", 0.0): "95a8b7c289e01466cde1d4468bc2f93190984897997f56e491cf5859ee7292ee",
    (32, "uniform", 0.1): "e729e944c5b746707f90d038e2a909e357ff65a8a0a923d42746ee2b19e45161",
    (32, "bald", 0.0): "8f996af6cedeef38cb155f5159c4e9b5f9a8630c9fc16b7ac66ed4244771c362",
    (32, "bald", 0.1): "b3f7b2e55a734460262f01c7f11916a4a2e6ce00e8f8f589554c6f561cd2574b",
    (32, "csd", 0.0): "701615e439d765d180fc30adddf32634a135490a4b9ffe22d1ec223de3c45ef8",
    (32, "csd", 0.1): "817b165224f07de71d17b3884d4c95f165118660c778f8f041fc73b0b01d894f",
    (32, "batch_bald", 0.0): "6957a9ce265f970a4145bed2863f5b96e6c31852fa339aeff755cf16b7eae8da",
    (32, "batch_bald", 0.1): "1b8cbf97d071de1a555e48b644d1da177d11f213d8903d8ec844fef5713cea1f",
    (32, "batch_csd", 0.0): "0aa8b382a3c0f28a567115fda9ac3fa49f2d9b006fa9f57d70d8cd3b64f6578c",
    (32, "batch_csd", 0.1): "51660d6b86d197c6eb571fd598357cba95558866e4ef6f047fa8880d19ce5541",
    (128, "uniform", 0.0): "bf1daddf55eee01726a5d0235d5b3c944e1825fe9eeb13b3aa4699138e67b121",
    (128, "uniform", 0.1): "ae6d2096849cff7ad11e4449ef22a057a921ebae289ac2ede80c5568009a0ee9",
    (128, "bald", 0.0): "d3ae150139259cb5d5dde7c5071c48d7b6f78d7dcfb12678cd449c898b86d4df",
    (128, "bald", 0.1): "8bfae36ae7e5a3b7d3b6a3bc7d5ba549e4b5a9264640ef0fcb629c7406d7b915",
    (128, "csd", 0.0): "b23b8d65258ee7f6fc3672ca94ff565dc1cfb8a829dd547d73ad3397fd957b89",
    (128, "csd", 0.1): "b7d1cbf38d5638097d39209dcb74752f370c8a52b5d2da9891acea71899a699a",
    (128, "batch_bald", 0.0): "66b96eaac967064a8a421c7b8d0d5366fe4ce86a02e55b58cdf4d1607b57cd0d",
    (128, "batch_bald", 0.1): "eb3bddaf666c270bc4eea9375e9c785b8c15b57b07549e2da65c21a9a2620d65",
    (128, "batch_csd", 0.0): "db18d301e84cbaec34a6d28233decc9dfe48ac616435e06a506c8b4c497ce53e",
    (128, "batch_csd", 0.1): "d32b5228c8f2b2956057c64d65daeb8d9efd085e0c6feeaa84c11435b00508d8",
    # a csd table of several blocks of hypotheses, recorded before it was built a block at a time
    (512, "csd", 0.0): "260991cc399291d8f1c49254954bdc47af868022eb992ef23b2ee785c683b353",
    (512, "csd", 0.1): "47ba339752e195bddb3fa81365d037c95578edac1527b0889560faf9a0ee0da4",
    (512, "batch_csd", 0.0): "2235f4e3d58a857638aa8914cdb0bf12fa1d91b1bc16fb83d2c7b6d1f48731dd",
    (512, "batch_csd", 0.1): "d2cbd55598522d0f2fd651c9fc3ceafab520226d50966b942e6b5162921fea37",
}




def _float_kernels_digest() -> str:
    """A fingerprint of the numpy log, exp and matrix-vector product the
    simulator runs on: a numpy build or CPU that rounds them differently in
    the last bit also changes the CSV bytes, so the hashes do not apply."""
    x = np.linspace(1e-6, 1.0, 4099)
    m = np.random.default_rng(0).random((97, 4099))
    parts = (np.log(x), np.exp(-30 * x), x @ m.T, m[:, :97] @ x[:97])
    return hashlib.sha256(b"".join(a.tobytes() for a in parts)).hexdigest()


def zero_cell_task(n_points: int, seed: int = 1):
    """``threshold_task(n_points, seed=seed)`` with every likelihood cell more
    than three inputs from its threshold set to exactly 0 or 1, so the score
    tables, scores and posteriors take their 0 * log 0 paths, candidates of
    impossible labels score -inf, and a flipped pool label can have zero
    likelihood under every hypothesis."""
    model, pool, eval_set = threshold_task(n_points, seed=seed)
    lik = model.likelihood.copy()
    x, t = np.arange(n_points)[None, :], np.arange(n_points + 1)[:, None]
    lik[..., 1] = np.where(np.abs(x - t + 0.5) > 3, x >= t, lik[..., 1])
    lik[..., 0] = 1.0 - lik[..., 1]
    model = BayesModel(model.hypotheses, model.prior, model.inputs, model.labels, lik)
    return model, pool, eval_set


# the same runs on zero_cell_task(32), recorded before csd's p log p moved
# from a clamp at the least positive float to the kernel's mask at exact zeros
_ZERO_CELL_CSV_SHA256 = {
    (32, "uniform", 0.0): "458b599d938a8b9778161f218553e60da50911b15fd9bfa09d144f90530798b2",
    (32, "uniform", 0.2): "3a0fd21cd617481045c27570f0d1ae78c0f6c13bb3232e3099ab5d3945bd26fa",
    (32, "bald", 0.0): "96c75837bad16baa1c0fa2a1c0822824ec3d557a69c17f7a3272ab70d6086282",
    (32, "bald", 0.2): "63bfbc4e798ec1a9128139127b32444fff033194d7402891c45ad93e641357f5",
    (32, "csd", 0.0): "2ad109ecfa573477620328238c1fa51517def8adf64400a5adde8327bdaed467",
    (32, "csd", 0.2): "1bac040fe5d4ca2f6b83e1068b87a856882f7c3c8326e3b4c4cb528a781db0ef",
    (32, "batch_bald", 0.0): "f720016de1138c973acbe5720f395f1fc4246235744dddca5f3e4470ebc4480d",
    (32, "batch_bald", 0.2): "b6800807c13a9d626d83f48b4eddb486b86fd5dadbdbaaa2af52af01b7925237",
    (32, "batch_csd", 0.0): "f4308be2dbcf08788242540741806d4ba7b05ed98acbabb11698779feb3137e7",
    (32, "batch_csd", 0.2): "0f6f44c5e5eb5b060bd9c21ab2e1b0bc014d66981239e7badabbee3271eaefbe",
    # a csd table of several blocks holding 0 * log 0 cells, recorded before it was built a
    # block at a time
    (512, "csd", 0.0): "ba05d0f2599a28b0e03a8f789e3cd6b46f8918ead2ec40b2176251b09576bd7d",
    (512, "csd", 0.2): "468e3fc5152863b69af3c6fbd13ac43508b86ae2a2aad032dfbc49f8070f8a27",
    (512, "batch_csd", 0.0): "1dc59c564e54c5d8e1041e0ead73429d755218617c6db644f95c8d10f113b061",
    (512, "batch_csd", 0.2): "1aed2ee6fc92a4938e75dad6cb5d741ac44b116896bd48e10eea856f2ca2693d",
}

# small_config's CSV for each acquisition: its certain evaluation label prints
# a log loss of 0.0, its one-hot posterior an entropy of -0.0, and the csd
# score of the uninformative input -0.0 where bald's is 0.0
_CERTAIN = "1,x1,0,0.6931471805599453,-0.0,1.0,0.0\n2,x0,0,{},-0.0,1.0,0.0\n"
_SIGNED_ZERO_CSV = {
    "uniform": "1,x0,0,0.6369616873214543,0.6931471805599453,1.0,0.6931471805599453\n"
               "2,x1,0,0.04097352393619469,-0.0,1.0,0.0\n",
    "bald": _CERTAIN.format("0.0"),
    "csd": _CERTAIN.format("-0.0"),
    "batch_bald": _CERTAIN.format("0.0"),
    "batch_csd": _CERTAIN.format("-0.0"),
}


def _skip_unless_recorded_kernels():
    if _float_kernels_digest() != _FLOAT_KERNELS_SHA256:
        pytest.skip("numpy's log, exp or matmul rounds differently from where the "
                    "hashes were recorded")


class TestGoldenCsv:
    @pytest.mark.parametrize("n_points, acquisition, noise_rate", list(_GOLDEN_CSV_SHA256))
    def test_csv_hash(self, n_points, acquisition, noise_rate):
        _skip_unless_recorded_kernels()
        model, pool, eval_set = threshold_task(n_points, seed=1)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                        batch_size=3, steps=12, seed=1, noise_rate=noise_rate)
        digest = hashlib.sha256(run_sim(cfg).to_csv().encode()).hexdigest()
        assert digest == _GOLDEN_CSV_SHA256[n_points, acquisition, noise_rate]

    @pytest.mark.parametrize("n_points, acquisition, noise_rate", list(_ZERO_CELL_CSV_SHA256))
    def test_zero_cell_csv_hash(self, n_points, acquisition, noise_rate):
        _skip_unless_recorded_kernels()
        model, pool, eval_set = zero_cell_task(n_points)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                        batch_size=3, steps=12, seed=1, noise_rate=noise_rate)
        digest = hashlib.sha256(run_sim(cfg).to_csv().encode()).hexdigest()
        assert digest == _ZERO_CELL_CSV_SHA256[n_points, acquisition, noise_rate]

    @pytest.mark.parametrize("acquisition", ACQUISITIONS)
    def test_signed_zeros(self, acquisition):
        _skip_unless_recorded_kernels()
        csv = run_sim(small_config(acquisition=acquisition)).to_csv()
        assert csv == f"{CSV_HEADER}\n{_SIGNED_ZERO_CSV[acquisition]}"


class TestGreedyPicksReplay:
    """Every column of every row, rebuilt from the CSV rows alone with the
    public, checked ``bayes`` functions: the run steps on the posterior's
    array through the kernels behind them, and this pins the two to each
    other bit for bit.  It needs no recorded hash, so it runs where numpy
    rounds differently too.  uniform's scores are draws, with no rebuild."""

    @pytest.mark.parametrize("initial", [(), (5, 20, 2)], ids=["", "initial"])
    @pytest.mark.parametrize("noise_rate", [0.0, 0.2])
    @pytest.mark.parametrize("task", [threshold_task, zero_cell_task],
                             ids=lambda task: task.__name__)
    @pytest.mark.parametrize("acquisition, batch_size", [
        ("uniform", 1), ("bald", 1), ("csd", 1), ("batch_bald", 2), ("batch_bald", 3),
        ("batch_bald", 4), ("batch_csd", 2), ("batch_csd", 3), ("batch_csd", 4),
    ])
    def test_each_row_is_rebuilt_from_the_public_functions(self, acquisition, batch_size,
                                                           task, noise_rate, initial):
        model, pool, eval_set = task(32, seed=1)
        initial = tuple(pool[x] for x in initial)  # entry x of the pool is input x, truly labelled
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, initial=initial,
                        acquisition=acquisition, batch_size=batch_size, steps=6, seed=1,
                        noise_rate=noise_rate)
        rows = run_sim(cfg).rows
        assert len(rows) == 6 * batch_size
        labels = _apply_label_noise(np.array([y for _, y in cfg.pool]), model.n_labels,
                                    noise_rate, np.random.default_rng(cfg.seed))
        noisy = tuple(zip([x for x, _ in cfg.pool], labels.tolist()))
        position = {x: i for i, (x, _) in enumerate(noisy)}  # one pool entry per input
        tables = {"bald": label_entropy_table(model),
                  "csd": csd_table(model, *zip(*noisy))}
        eval_x, eval_y = _pool_arrays(cfg.eval_set)
        greedy, kind = acquisition.startswith("batch_"), acquisition.rsplit("_", 1)[-1]
        post = start = posterior(model, list(cfg.initial))
        step, chosen = 0, []
        for row in rows:
            if row.step != step:  # every pick of a step scores against its first posterior
                step, start, chosen = row.step, post, []
            x, y = model.input_index(row.x), model.label_index(row.y)
            assert noisy[position[x]] == (x, y)
            given = chosen if greedy else []
            if kind == "bald":
                prefix = [xi for xi, _ in given]
                assert row.score == bald_scores(model, start, tables[kind], prefix)[x]
            elif kind == "csd":
                scores = csd_scores(model, start, tables[kind], given)
                assert row.score == scores[position[x]]
            chosen.append((x, y))
            try:
                post = update(model, post, x, y)
            except ZeroEvidence:  # the run skips such a label, as logged
                pass
            table = predictive_table(model, post)
            correct = np.count_nonzero(table[eval_x].argmax(axis=1) == eval_y)
            with np.errstate(divide="ignore"):
                loss = -np.log(table[eval_x, eval_y]).sum()
            assert row.posterior_entropy == post.entropy
            assert row.accuracy == correct / len(eval_y)
            assert row.logloss == float(loss) / len(eval_y)


class TestRowsAgainstExpressions:
    """Each scored row is its expression over the joint of its step's first
    posterior, the step's earlier picks (for a greedy batch) and its own
    input: I[Omega; Y1, .., Yk, Y] for bald, and I[Omega; y1, .., yk, y] with
    the picks' labels bound for csd, -inf where that raises
    ZeroProbabilityEvent.  uniform's scores are draws, with no expression.

    The expression's value is known to the evaluator's own rounding, which
    shows as the spread between its two orders, I[Omega; ..] and I[..; Omega]:
    on a peaked posterior that spread passes 1e-12 while the score stays
    within 1e-15 of the exact value."""

    @pytest.mark.parametrize("noise_rate", [0.0, 0.2])
    @pytest.mark.parametrize("task", [threshold_task, zero_cell_task],
                             ids=lambda task: task.__name__)
    @pytest.mark.parametrize("acquisition, batch_size", [
        ("bald", 1), ("csd", 1), ("bald", 3), ("csd", 3), ("batch_bald", 3), ("batch_csd", 3),
    ])
    def test_each_score_is_its_expression(self, acquisition, batch_size, task, noise_rate):
        model, pool, eval_set = task(32, seed=1)
        cfg = SimConfig(model=model, pool=pool, eval_set=eval_set, acquisition=acquisition,
                        batch_size=batch_size, steps=6, seed=1, noise_rate=noise_rate)
        rows = run_sim(cfg).rows
        assert len(rows) == 6 * batch_size
        greedy, labelled = acquisition.startswith("batch_"), acquisition.endswith("csd")
        post = start = posterior(model, [])
        step, chosen = 0, []
        for row in rows:
            if row.step != step:
                step, start, chosen = row.step, post, []
            x, y = model.input_index(row.x), model.label_index(row.y)
            prefix = chosen if greedy else []
            names, gain, swapped = batch_gains(len(prefix), observed=labelled)
            joint = batch_joint(model, start, [xi for xi, _ in prefix] + [x])
            bindings = dict(zip(names, [yi for _, yi in prefix] + [y])) if labelled else None
            try:
                expected = evaluate(gain, joint, bindings=bindings)
            except ZeroProbabilityEvent:
                assert row.score == -np.inf
            else:
                spread = abs(expected - evaluate(swapped, joint, bindings=bindings))
                assert abs(row.score - expected) <= 1e-12 + spread
            chosen.append((x, y))
            try:
                post = update(model, post, x, y)
            except ZeroEvidence:  # the run skips such a label, as logged
                pass


def _bound_model(rng, n_x):
    """A random model of 2-5 hypotheses over ``n_x`` inputs and 2-3 labels,
    every cell positive; with one chance in three input 1 copies input 0,
    so two candidates tie exactly."""
    n_omega, n_y = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    lik = (rng.dirichlet(np.ones(n_y), size=(n_omega, n_x)) + 0.02) / (1 + 0.02 * n_y)
    if rng.random() < 1 / 3:
        lik[:, 1] = lik[:, 0]
    return BayesModel(tuple(f"w{i}" for i in range(n_omega)), rng.dirichlet(np.ones(n_omega)),
                      tuple(f"x{i}" for i in range(n_x)), tuple(f"y{i}" for i in range(n_y)), lik)


def _greedy_batch(model, probs, pool, acquisition, b):
    """One step's batch of ``run_sim``'s selection, as pool indices in pick order."""
    cfg = SimConfig(model=model, pool=pool, eval_set=pool[:1], acquisition=acquisition,
                    batch_size=b)
    pool_x, pool_y = _pool_arrays(cfg.pool)
    table = _score_table(model, acquisition, pool_x, pool_y)
    batch, _ = _select_batch(model, probs, list(range(len(pool))), pool_x, pool_y, cfg, None,
                             table)
    return [i for i, _ in batch]


class TestGreedyBounds:
    """BatchBALD's guarantee: a model's labels are independent given Omega,
    so the joint gain I[Omega; Y_1..Y_k | x_1..x_k] is monotone submodular,
    and the greedy batch scores at least (1 - 1/e) of the best batch of its
    size.  The labelled gain of ``batch_csd`` has no such bound."""

    BOUND = 1 - 1 / math.e

    def test_the_joint_gain_is_submodular(self):
        rng = np.random.default_rng(20211)
        for _ in range(300):
            model = _bound_model(rng, 5)
            post = bayes.Posterior(rng.dirichlet(np.ones(model.n_hypotheses)))
            table = label_entropy_table(model)
            order = [int(x) for x in rng.permutation(5)[:3]]
            # the gain of every input x given each prefix B of ``order``, from the
            # joint gains: I[B, x] - I[B], with I[B] the last pick's joint gain
            gains = []
            for k in range(len(order) + 1):
                joint = bayes.bald_scores(model, post, table, order[:k])
                before = bayes.bald_scores(model, post, table, order[:k - 1])[order[k - 1]] \
                    if k else 0.0
                gains.append(joint - before)
            for j in range(len(gains)):  # A = order[:j] is a prefix of B = order[:k]
                for k in range(j, len(gains)):
                    assert (gains[k] <= gains[j] + 1e-12).all()

    def test_the_greedy_batch_meets_the_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n_x = int(rng.integers(2, 9))
            model = _bound_model(rng, n_x)
            probs = rng.dirichlet(np.ones(model.n_hypotheses))
            post = bayes.Posterior(probs)
            pool = [(x, int(rng.integers(model.n_labels))) for x in range(n_x)]
            b = int(rng.integers(1, min(3, n_x) + 1))
            greedy = bayes.batch_score(model, post, _greedy_batch(model, post.probs, pool,
                                                                  "batch_bald", b))
            best = max(bayes.batch_score(model, post, list(batch))
                       for batch in itertools.combinations(range(n_x), b))
            assert greedy >= self.BOUND * best - 1e-12

    def test_the_labelled_greedy_batch_has_no_bound(self):
        # the prior favours A; the greedy pair first confirms it with (x2, 0), and then
        # each other pair pulls towards B, while (x0, 0) and (x1, 1) together favour B
        # firmly: a realized gain is neither monotone nor submodular
        lik = np.array([[0.2, 0.7, 0.6], [0.8, 0.1, 0.4]])  # p(y = 0 | x, omega)
        model = BayesModel(("A", "B"), [0.75, 0.25], ("x0", "x1", "x2"), ("0", "1"),
                           np.stack([lik, 1 - lik], axis=-1))
        post, pool = bayes.Posterior(model.prior), [(0, 0), (1, 1), (2, 0)]
        greedy = _greedy_batch(model, post.probs, pool, "batch_csd", 2)
        assert greedy == [2, 1]

        def score(batch):
            return bayes.batch_score(model, post, [pool[i][0] for i in batch],
                                     [pool[i][1] for i in batch])

        scores = {batch: score(batch) for batch in itertools.combinations(range(3), 2)}
        assert max(scores, key=scores.get) == (0, 1)
        assert score(greedy) == pytest.approx(-0.110677, abs=1e-6)
        assert scores[(0, 1)] == pytest.approx(0.061933, abs=1e-6)
        assert score(greedy) < 0 < self.BOUND * scores[(0, 1)]
