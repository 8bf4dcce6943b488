import math
import re

import numpy as np
import pytest

from discinfo import (
    BatchTooLarge,
    BayesModel,
    DiscinfoError,
    InvalidIndex,
    JointDistribution,
    LatentVarModel,
    MalformedInput,
    SupportMismatch,
    Variable,
    ZeroEvidence,
    ZeroProbabilityEvent,
    bald,
    batch_score,
    condition,
    csd,
    csd_decomposition,
    elbo_vae,
    elbo_vi,
    entropy,
    joint_label_hypothesis,
    log_evidence,
    mutual_info,
    posterior,
    predictive,
    surprise,
    threshold_task,
    update,
)
from discinfo import bayes
from discinfo.bayes import (
    _BLOCK_CELLS,
    Posterior,
    _log_joint,
    _normalized,
    bald_scores,
    csd_scores,
    csd_table,
    dump_model,
    label_entropy_table,
    load_model,
)
from discinfo.dist import ZERO_CELL, ZERO_MASS
from discinfo.expr import evaluate
from discinfo.quantities import plogq
from hypothesis import given, settings
from hypothesis import strategies as st
from notation import batch_gains, batch_joint
from oracle import oracle_cross_entropy, oracle_entropy, oracle_mutual_info

LN2 = math.log(2.0)


def opposite_coins_model():
    """Two hypotheses with opposite deterministic likelihoods on input x1 and
    an uninformative input x0."""
    lik = np.array(
        [
            [[0.5, 0.5], [1.0, 0.0]],  # omega A: x0 fair, x1 -> label 0
            [[0.5, 0.5], [0.0, 1.0]],  # omega B: x0 fair, x1 -> label 1
        ]
    )
    return BayesModel(
        hypotheses=("A", "B"),
        prior=[0.5, 0.5],
        inputs=("x0", "x1"),
        labels=("0", "1"),
        likelihood=lik,
    )


def random_model(rng, n_omega=None, n_x=None, n_y=None):
    n_omega = n_omega or int(rng.integers(2, 6))
    n_x = n_x or int(rng.integers(1, 4))
    n_y = n_y or int(rng.integers(2, 4))
    prior = rng.dirichlet(np.ones(n_omega))
    lik = rng.dirichlet(np.ones(n_y), size=(n_omega, n_x))
    # keep everything strictly positive so conditioning never degenerates
    lik = (lik + 0.02) / (1 + 0.02 * n_y)
    prior = (prior + 0.02) / (1 + 0.02 * n_omega)
    return BayesModel(
        hypotheses=tuple(f"w{i}" for i in range(n_omega)),
        prior=prior,
        inputs=tuple(f"x{i}" for i in range(n_x)),
        labels=tuple(f"y{i}" for i in range(n_y)),
        likelihood=lik,
    )


def random_data(rng, model, n):
    return [
        (int(rng.integers(len(model.inputs))), int(rng.integers(model.n_labels)))
        for _ in range(n)
    ]


class TestPosterior:
    def test_empty_dataset_gives_prior(self):
        m = opposite_coins_model()
        post = posterior(m, [])
        np.testing.assert_allclose(post.probs, m.prior)

    def test_deterministic_collapse(self):
        m = opposite_coins_model()
        post = posterior(m, [("x1", "0")])
        np.testing.assert_allclose(post.probs, [1.0, 0.0], atol=1e-15)

    def test_sequential_equals_batch(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_model(rng)
            data = random_data(rng, m, int(rng.integers(1, 6)))
            batch = posterior(m, data)
            seq = posterior(m, [])
            for x, y in data:
                seq = update(m, seq, x, y)
            np.testing.assert_allclose(seq.probs, batch.probs, atol=1e-12)

    def test_zero_evidence(self):
        m = opposite_coins_model()
        with pytest.raises(ZeroEvidence):
            posterior(m, [("x1", "0"), ("x1", "1")])

    @pytest.mark.parametrize("probs", [[1.0], [0.2, 0.3, 0.5]])
    def test_update_rejects_a_posterior_of_another_length(self, probs):
        # a one-entry posterior would broadcast against both hypotheses
        m = opposite_coins_model()
        with pytest.raises(ValueError, match=f"length {len(probs)}; the model has 2 hypotheses"):
            update(m, Posterior(probs), "x0", "1")

    @pytest.mark.parametrize("name,args", [
        ("update", ("0", "1")),
        ("predictive", ("0",)),
        ("predictive_table", ()),
        ("bald", ("0",)),
        ("bald_scores", ("entropy table",)),
        ("csd", ("0", "1")),
        ("csd_scores", ("csd table",)),
        ("batch_score", (["0", "1"],)),
        ("batch_score", (["0", "1"], ["1", "1"])),
        ("surprise", ("0", "1")),
        ("csd_decomposition", ("0", "1")),
    ])
    def test_every_posterior_reader_refuses_another_length(self, name, args):
        # never numpy's matmul mismatch, and never a one-entry posterior broadcast
        m = threshold_task(2)[0]  # three hypotheses
        tables = {"entropy table": label_entropy_table(m), "csd table": csd_table(m, [0], [1])}
        args = [tables.get(a, a) if isinstance(a, str) else a for a in args]
        with pytest.raises(ValueError, match="^posterior has length 1; the model has 3 hypotheses"):
            getattr(bayes, name)(m, Posterior([1.0]), *args)

    def test_long_dataset_no_underflow(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, n_omega=3, n_x=1, n_y=2)
        data = random_data(rng, m, 5000)
        post = posterior(m, data)
        assert np.isfinite(post.probs).all()
        assert post.probs.sum() == pytest.approx(1.0)


class TestPredictive:
    def test_mixture_of_deterministic(self):
        m = opposite_coins_model()
        pred = predictive(m, posterior(m, []), "x1")
        np.testing.assert_allclose(pred, [0.5, 0.5])

    def test_matches_full_joint_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 3))
            x = int(rng.integers(len(m.inputs)))
            joint = joint_label_hypothesis(m, post, x)
            np.testing.assert_allclose(
                predictive(m, post, x), joint.probs.sum(axis=0), atol=1e-12
            )


class TestBald:
    def test_identical_deterministic_likelihoods_score_zero(self):
        lik = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        m = BayesModel(("A", "B"), [0.5, 0.5], ("x0",), ("0", "1"), lik)
        assert bald(m, posterior(m, []), "x0") == pytest.approx(0.0, abs=1e-12)

    def test_opposite_deterministic_gives_ln2(self):
        m = opposite_coins_model()
        assert bald(m, posterior(m, []), "x1") == pytest.approx(LN2, abs=1e-12)

    def test_equals_joint_mutual_information(self):
        # independent route: build the explicit (Omega, Y) joint and use the
        # exact information engine
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x = int(rng.integers(len(m.inputs)))
            joint = joint_label_hypothesis(m, post, x)
            via_engine = mutual_info(joint, [["Omega"], ["Y"]])
            assert bald(m, post, x) == pytest.approx(via_engine, abs=1e-9)

    def test_is_expected_csd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x = int(rng.integers(len(m.inputs)))
            pred = predictive(m, post, x)
            expected = sum(
                pred[y] * csd(m, post, x, y)
                for y in range(m.n_labels)
                if pred[y] > 0
            )
            assert bald(m, post, x) == pytest.approx(expected, abs=1e-9)


class TestCsdAndSurprise:
    def test_label_independent_of_hypothesis_scores_zero(self):
        lik = np.array([[[0.3, 0.7]], [[0.3, 0.7]]])
        m = BayesModel(("A", "B"), [0.4, 0.6], ("x0",), ("0", "1"), lik)
        post = posterior(m, [])
        assert csd(m, post, "x0", "1") == pytest.approx(0.0, abs=1e-12)
        assert surprise(m, post, "x0", "1") == pytest.approx(0.0, abs=1e-12)

    def test_two_hypothesis_collapse_gives_ln2(self):
        m = opposite_coins_model()
        post = posterior(m, [])
        for y in ("0", "1"):
            assert csd(m, post, "x1", y) == pytest.approx(LN2, abs=1e-12)
            assert surprise(m, post, "x1", y) == pytest.approx(LN2, abs=1e-12)

    def test_zero_probability_label(self):
        m = opposite_coins_model()
        post = posterior(m, [("x1", "0")])  # collapses onto A
        with pytest.raises(ZeroProbabilityEvent):
            csd(m, post, "x1", "1")

    def test_csd_can_be_negative(self):
        rng = np.random.default_rng(5)
        found = None
        for _ in range(500):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            for x in range(len(m.inputs)):
                for y in range(m.n_labels):
                    if csd(m, post, x, y) < -1e-6:
                        found = (m, post, x, y)
                        break
        assert found is not None

    def test_surprise_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            for x in range(len(m.inputs)):
                for y in range(m.n_labels):
                    assert surprise(m, post, x, y) >= -1e-12

    def test_surprise_is_label_entropy_drop(self):
        # I[y; Omega | x] = IC(p(y|x, data)) - E_new IC(p(y|x, omega))
        rng = np.random.default_rng(60)
        for _ in range(40):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x = int(rng.integers(len(m.inputs)))
            y = int(rng.integers(m.n_labels))
            pred_y = predictive(m, post, x)[y]
            direct = csd_decomposition(m, post, x, y).label_entropy_direct
            assert surprise(m, post, x, y) == pytest.approx(
                -math.log(pred_y) - direct, abs=1e-9
            )

    def test_bald_nonnegative(self):
        rng = np.random.default_rng(61)
        for _ in range(60):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            for x in range(len(m.inputs)):
                assert bald(m, post, x) >= -1e-12

    def test_csd_equals_engine_information_gain(self):
        # independent route through the joint-distribution engine
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x = int(rng.integers(len(m.inputs)))
            y = int(rng.integers(m.n_labels))
            joint = joint_label_hypothesis(m, post, x)
            via_engine = mutual_info(joint, [["Omega"], [("Y", y)]])
            assert csd(m, post, x, y) == pytest.approx(via_engine, abs=1e-9)

    def test_surprise_equals_engine_surprise(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x = int(rng.integers(len(m.inputs)))
            y = int(rng.integers(m.n_labels))
            joint = joint_label_hypothesis(m, post, x)
            via_engine = mutual_info(joint, [[("Y", y)], ["Omega"]])
            assert surprise(m, post, x, y) == pytest.approx(via_engine, abs=1e-9)


class TestEvidenceFloor:
    """One floor, ``ZERO_MASS`` = 1e-12, for observing or conditioning on an
    outcome, whichever layer does it."""

    @pytest.mark.parametrize("rho,possible", [(1e-13, False), (1e-11, True)])
    def test_layers_agree(self, rho, possible):
        from discinfo import condition, entropy

        lik = np.array([[[1.0 - 2.0 * rho, 2.0 * rho]], [[1.0, 0.0]]])
        m = BayesModel(("A", "B"), [0.5, 0.5], ("x0",), ("0", "1"), lik)
        post = posterior(m, [])
        assert predictive(m, post, "x0")[1] == pytest.approx(rho, rel=1e-12)
        joint = joint_label_hypothesis(m, post, "x0")
        scores = csd_scores(m, post, csd_table(m, [0], [1]))
        if possible:
            assert condition(joint, {"Y": 1}).probs.tolist() == [1.0, 0.0]
            assert entropy(joint, ["Omega"], [("Y", 1)]) == 0.0
            assert update(m, post, "x0", "1").probs.tolist() == [1.0, 0.0]
            assert csd(m, post, "x0", "1") == pytest.approx(LN2, abs=1e-12)
            assert scores[0] == pytest.approx(LN2, abs=1e-12)
        else:
            with pytest.raises(ZeroProbabilityEvent):
                condition(joint, {"Y": 1})
            with pytest.raises(ZeroProbabilityEvent):
                entropy(joint, ["Omega"], [("Y", 1)])
            with pytest.raises(ZeroEvidence):
                update(m, post, "x0", "1")
            with pytest.raises(ZeroProbabilityEvent):
                csd(m, post, "x0", "1")
            assert scores[0] == -np.inf

    def test_an_impossible_labelled_batch_names_its_last_pair(self):
        m = opposite_coins_model()
        post = posterior(m, [])
        with pytest.raises(ZeroProbabilityEvent,
                           match="^label '1' has zero predictive probability at x='x1'$"):
            csd(m, Posterior([1.0, 0.0]), "x1", "1")
        with pytest.raises(ZeroProbabilityEvent, match="^label '1' has zero predictive "
                                                       "probability at x='x1' given the earlier"):
            batch_score(m, post, ["x0", "x1", "x1"], ["0", "0", "1"])


class TestCsdDecomposition:
    def test_identity_holds(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x = int(rng.integers(len(m.inputs)))
            y = int(rng.integers(m.n_labels))
            dec = csd_decomposition(m, post, x, y)
            assert dec.info_gain == pytest.approx(
                dec.code_shift + dec.surprise, abs=1e-9
            )
            assert dec.label_entropy_direct == pytest.approx(
                dec.label_entropy_importance, abs=1e-9
            )
            assert dec.info_gain == pytest.approx(csd(m, post, x, y), abs=1e-12)

    def test_uniform_posterior_kills_code_shift(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = random_model(rng)
            uniform = Posterior(np.full(m.n_hypotheses, 1.0 / m.n_hypotheses))
            x = int(rng.integers(len(m.inputs)))
            y = int(rng.integers(m.n_labels))
            dec = csd_decomposition(m, uniform, x, y)
            assert dec.code_shift == pytest.approx(0.0, abs=1e-12)
            assert abs(dec.info_gain - dec.surprise) <= 1e-9

    def test_nonuniform_posterior_shifts(self):
        rng = np.random.default_rng(11)
        found = False
        for _ in range(50):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 3))
            x = int(rng.integers(len(m.inputs)))
            y = int(rng.integers(m.n_labels))
            if abs(csd_decomposition(m, post, x, y).code_shift) > 1e-6:
                found = True
                break
        assert found

    def test_deterministic_model_all_zero(self):
        lik = np.array([[[1.0, 0.0]], [[1.0, 0.0]]])
        m = BayesModel(("A", "B"), [0.5, 0.5], ("x0",), ("0", "1"), lik)
        dec = csd_decomposition(m, posterior(m, []), "x0", "0")
        assert dec.info_gain == pytest.approx(0.0, abs=1e-12)
        assert dec.code_shift == pytest.approx(0.0, abs=1e-12)
        assert dec.surprise == pytest.approx(0.0, abs=1e-12)


class TestApplicationsAgainstOracle:
    """The paper's applications against ``tests/oracle.py``, which shares no
    code with the notation kernel they are now evaluated by."""

    def test_csd_decomposition_and_surprise(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, int(rng.integers(0, 3))))
            x, y = int(rng.integers(len(m.inputs))), int(rng.integers(m.n_labels))
            names, sizes = ["W", "Y"], [m.n_hypotheses, m.n_labels]
            cells = {(w, c): float(post.probs[w] * m.likelihood[w, x, c])
                     for w in range(sizes[0]) for c in range(sizes[1])}
            omega, label = [("W", None)], [("Y", y)]
            h_omega = oracle_entropy(names, sizes, cells, omega)
            ce = oracle_cross_entropy(names, sizes, cells, cells, omega, label,
                                      q_head=omega, q_given=[])
            h_new = oracle_entropy(names, sizes, cells, omega, label)
            direct = oracle_entropy(names, sizes, cells, label, omega)
            dec = csd_decomposition(m, post, x, y)
            expected = {
                "info_gain": oracle_mutual_info(names, sizes, cells, [omega, label]),
                "code_shift": h_omega - ce,
                "surprise": ce - h_new,
                "label_entropy_direct": direct,
                "label_entropy_importance": direct,
            }
            for field, want in expected.items():
                assert getattr(dec, field) == pytest.approx(want, abs=1e-12), field
            assert surprise(m, post, x, y) == pytest.approx(ce - h_new, abs=1e-12)

    def test_elbo_vae_rows(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            lv = random_latent_model(rng, n_z=int(rng.integers(1, 4)), n_x=int(rng.integers(1, 5)))
            n_z, n_x = lv.prior_z.size, lv.marginal_x.size
            names, sizes = ["X", "Z"], [n_x, n_z]
            p = {(x, z): float(lv.prior_z[z] * lv.decoder[z, x])
                 for x in range(n_x) for z in range(n_z)}
            q = {(x, z): float(lv.encoder[x, z]) / n_x for x in range(n_x) for z in range(n_z)}
            weights = None if rng.random() < 0.5 else rng.dirichlet(np.ones(n_x))
            res = elbo_vae(lv, weights)
            latent = [("Z", None)]
            for x in range(n_x):
                at = [("X", x)]
                h_q = oracle_entropy(names, sizes, q, latent, at)
                rows = {
                    "nll": oracle_entropy(names, sizes, p, at),
                    "reconstruction": oracle_cross_entropy(names, sizes, q, p, latent, at,
                                                           q_head=at, q_given=latent),
                    "kl_prior": oracle_cross_entropy(names, sizes, q, p, latent, at,
                                                     q_head=latent, q_given=[]) - h_q,
                    "gap": oracle_cross_entropy(names, sizes, q, p, latent, at) - h_q,
                }
                for field, want in rows.items():
                    assert getattr(res, field)[x] == pytest.approx(want, abs=1e-12), (field, x)


class TestBatchScore:
    def test_single_input_reduces_to_bald_and_csd(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x = int(rng.integers(len(m.inputs)))
            y = int(rng.integers(m.n_labels))
            assert batch_score(m, post, [x]) == pytest.approx(
                bald(m, post, x), abs=1e-12
            )
            assert batch_score(m, post, [x], [y]) == pytest.approx(
                csd(m, post, x, y), abs=1e-12
            )

    def test_duplicate_deterministic_input_no_double_counting(self):
        m = opposite_coins_model()
        post = posterior(m, [])
        assert batch_score(m, post, ["x1", "x1"]) == pytest.approx(
            bald(m, post, "x1"), abs=1e-12
        )

    def test_labelled_batch_chains(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            m = random_model(rng)
            post = posterior(m, random_data(rng, m, 2))
            x1, x2 = (int(rng.integers(len(m.inputs))) for _ in range(2))
            y1, y2 = (int(rng.integers(m.n_labels)) for _ in range(2))
            joint = batch_score(m, post, [x1, x2], [y1, y2])
            first = csd(m, post, x1, y1)
            second = csd(m, update(m, post, x1, y1), x2, y2)
            assert joint == pytest.approx(first + second, abs=1e-9)

    def test_unlabelled_matches_engine_joint(self):
        rng = np.random.default_rng(14)
        m = random_model(rng, n_omega=3, n_x=2, n_y=2)
        post = posterior(m, [])
        # brute-force joint over (omega, y1, y2) through the engine
        from discinfo import JointDistribution, Variable

        xs = [0, 1]
        cells = np.einsum(
            "w,wa,wb->wab",
            post.probs,
            m.likelihood[:, xs[0], :],
            m.likelihood[:, xs[1], :],
        )
        joint = JointDistribution(
            (
                Variable("Omega", m.hypotheses),
                Variable("Y1", m.labels),
                Variable("Y2", m.labels),
            ),
            cells,
        )
        via_engine = mutual_info(joint, [["Omega"], ["Y1", "Y2"]])
        assert batch_score(m, post, xs) == pytest.approx(via_engine, abs=1e-9)

    def test_batch_cap(self):
        m = opposite_coins_model()
        with pytest.raises(BatchTooLarge):
            batch_score(m, posterior(m, []), ["x0"] * 7)


class TestElboVI:
    def test_exact_posterior_closes_the_gap(self):
        rng = np.random.default_rng(15)
        m = random_model(rng)
        data = random_data(rng, m, 3)
        post = posterior(m, data)
        res = elbo_vi(m, data, post.probs)
        assert res.kl_gap == pytest.approx(0.0, abs=1e-12)
        assert res.elbo == pytest.approx(res.log_evidence, abs=1e-9)

    def test_prior_with_empty_data(self):
        m = opposite_coins_model()
        res = elbo_vi(m, [], m.prior)
        assert res.elbo == pytest.approx(0.0, abs=1e-12)
        assert res.log_evidence == pytest.approx(0.0, abs=1e-12)

    def test_identity_for_random_q(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            m = random_model(rng)
            data = random_data(rng, m, int(rng.integers(1, 5)))
            q = rng.dirichlet(np.ones(m.n_hypotheses)) + 1e-3
            q /= q.sum()
            res = elbo_vi(m, data, q)
            assert res.log_evidence == pytest.approx(
                res.elbo + res.kl_gap, abs=1e-9
            )
            assert res.elbo <= res.log_evidence + 1e-12

    def test_support_mismatch(self):
        m = opposite_coins_model()
        with pytest.raises(SupportMismatch):
            elbo_vi(m, [], [1.0, 0.0])  # posterior (= prior) has mass on B

    @pytest.mark.parametrize("q", [[1.0], [0.2, 0.3, 0.5]])
    def test_q_of_another_length(self, q):
        # a one-entry q would broadcast to both hypotheses and break the identity
        m = opposite_coins_model()
        with pytest.raises(ValueError, match=f"q has length {len(q)}; the model has 2 hypotheses"):
            elbo_vi(m, [("x0", "1")], q)


def random_latent_model(rng, n_z=3, n_x=4):
    return LatentVarModel(
        prior_z=rng.dirichlet(np.ones(n_z)) + 0.0,
        decoder=(rng.dirichlet(np.ones(n_x), size=n_z) + 0.01) / (1 + 0.01 * n_x),
        encoder=(rng.dirichlet(np.ones(n_z), size=n_x) + 0.01) / (1 + 0.01 * n_z),
    )


class TestElboVAE:
    @pytest.mark.parametrize("table", ["prior_z", "decoder", "encoder"])
    @pytest.mark.parametrize("fault", ["sum", "negative"])
    def test_the_last_row_of_every_table_is_checked(self, table, fault):
        lv = random_latent_model(np.random.default_rng(5))
        tables = {name: getattr(lv, name).copy() for name in ("prior_z", "decoder", "encoder")}
        row = tables[table] if table == "prior_z" else tables[table][-1]
        if fault == "sum":
            row[0] += 1e-3
        else:  # the row still sums to 1
            row[:2] = row[0] + row[1] + 0.5, -0.5
        with pytest.raises(ValueError, match="sums to" if fault == "sum" else "non-negative"):
            LatentVarModel(**tables)

    @pytest.mark.parametrize("table, message", [
        ("decoder", "decoder must have one row per latent outcome"),
        ("encoder", "encoder must have shape (n_x, n_z)"),
    ])
    def test_the_tables_fit_the_latent_prior(self, table, message):
        lv = random_latent_model(np.random.default_rng(5))
        tables = {name: getattr(lv, name) for name in ("prior_z", "decoder", "encoder")}
        tables[table] = tables[table][:-1]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LatentVarModel(**tables)

    def test_exact_encoder_meets_bound(self):
        rng = np.random.default_rng(17)
        lv = random_latent_model(rng)
        marginal = lv.marginal_x
        exact_posterior = (lv.prior_z[:, None] * lv.decoder / marginal).T
        tight = LatentVarModel(lv.prior_z, lv.decoder, exact_posterior)
        res = elbo_vae(tight)
        np.testing.assert_allclose(res.gap, 0.0, atol=1e-12)
        np.testing.assert_allclose(
            res.nll, res.reconstruction + res.kl_prior, atol=1e-9
        )

    def test_independent_decoder_collapses(self):
        # p(x | z) = p(x) for every z: the latent carries nothing, so the gap
        # equals KL(q(Z|x) || p(Z)) and the bound is entropy plus that excess
        rng = np.random.default_rng(18)
        n_z, n_x = 3, 4
        p_x = rng.dirichlet(np.ones(n_x))
        lv = LatentVarModel(
            prior_z=rng.dirichlet(np.ones(n_z)),
            decoder=np.tile(p_x, (n_z, 1)),
            encoder=rng.dirichlet(np.ones(n_z), size=n_x),
        )
        res = elbo_vae(lv)
        np.testing.assert_allclose(res.gap, res.kl_prior, atol=1e-12)
        np.testing.assert_allclose(res.nll, res.reconstruction, atol=1e-12)

    def test_random_models_bound_and_gap(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            lv = random_latent_model(rng)
            res = elbo_vae(lv)
            np.testing.assert_array_less(
                res.nll, res.reconstruction + res.kl_prior + 1e-9
            )
            np.testing.assert_allclose(
                res.nll + res.gap, res.reconstruction + res.kl_prior, atol=1e-9
            )
            assert res.expected_nll + res.expected_gap == pytest.approx(
                res.expected_reconstruction + res.expected_kl_prior, abs=1e-9
            )

    def test_expected_nll_is_marginal_entropy_under_model_weights(self):
        rng = np.random.default_rng(20)
        lv = random_latent_model(rng)
        res = elbo_vae(lv)
        marginal = lv.marginal_x
        entropy_x = float(-(marginal * np.log(marginal)).sum())
        assert res.expected_nll == pytest.approx(entropy_x, abs=1e-12)

    def test_custom_weights(self):
        rng = np.random.default_rng(21)
        lv = random_latent_model(rng)
        w = rng.dirichlet(np.ones(lv.marginal_x.size))
        res = elbo_vae(lv, w)
        assert res.expected_nll + res.expected_gap == pytest.approx(
            res.expected_reconstruction + res.expected_kl_prior, abs=1e-9
        )

    @staticmethod
    def rare_input_model(rho):
        """p(x1) = rho: only the rare latent z1 produces x1, and the encoder
        covers the exact latent posterior of both inputs."""
        return LatentVarModel([1 - 2 * rho, 2 * rho], [[1.0, 0.0], [0.5, 0.5]],
                              [[0.9, 0.1], [0.0, 1.0]])

    def test_default_weights_skip_an_input_at_most_zero_mass(self):
        # its weight is its marginal, at most ZERO_MASS: no term to condition on
        res = elbo_vae(self.rare_input_model(1e-13))
        assert res.x_weights[1] == pytest.approx(1e-13)
        for row in (res.nll, res.reconstruction, res.kl_prior, res.gap):
            assert row[1] == 0.0
        assert res.expected_nll == res.x_weights[0] * res.nll[0]

    def test_default_weights_keep_an_input_above_zero_mass(self):
        res = elbo_vae(self.rare_input_model(1e-11))
        assert res.nll[1] == pytest.approx(-math.log(1e-11), rel=1e-12)
        assert res.nll[1] + res.gap[1] == pytest.approx(
            res.reconstruction[1] + res.kl_prior[1], abs=1e-9)

    def test_positive_weight_on_an_input_at_most_zero_mass(self):
        lv = self.rare_input_model(1e-13)
        with pytest.raises(ZeroProbabilityEvent):
            elbo_vae(lv, [0.5, 0.5])
        res = elbo_vae(lv, [1.0, 0.0])  # a zero weight skips it
        assert res.nll[1] == 0.0 and res.expected_nll == res.nll[0] > 0.0

    @pytest.mark.parametrize("fault,error", [
        ("zero_marginal", ZeroProbabilityEvent),
        ("uncovered", SupportMismatch),
        ("decoder_zero", SupportMismatch),
    ])
    def test_the_lowest_faulty_input_decides_the_error(self, fault, error):
        # input 1 has the fault; input 2 a support fault that comes later
        prior_z = np.array([0.5, 0.5, 0.0])
        decoder = np.array([[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 1.0, 0.0]])
        encoder = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]])
        weights = [0.25, 0.5, 0.25]
        if fault == "zero_marginal":
            decoder = np.array([[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        elif fault == "uncovered":
            decoder[0] = [0.4, 0.1, 0.5]  # z0 now produces x1, which the encoder misses
        else:
            encoder[1] = [0.5, 0.5, 0.0]  # q reaches z0, which cannot produce x1
        with pytest.raises(error):
            elbo_vae(LatentVarModel(prior_z, decoder, encoder), weights)

    def test_weights_of_another_length(self):
        lv = random_latent_model(np.random.default_rng(22))
        with pytest.raises(ValueError, match="x_weights has length 3; the model has 4 inputs"):
            elbo_vae(lv, [0.2, 0.3, 0.5])


class TestModelJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        m = random_model(rng)
        path = tmp_path / "model.json"
        dump_model(m, path)
        loaded = load_model(path)
        assert loaded.hypotheses == m.hypotheses
        assert loaded.inputs == m.inputs
        assert loaded.labels == m.labels
        assert loaded.prior.tobytes() == m.prior.tobytes()
        assert loaded.likelihood.tobytes() == m.likelihood.tobytes()

    def test_validation_on_load(self, tmp_path):
        doc = {
            "hypotheses": ["A"],
            "prior": [1.0],
            "inputs": ["x0"],
            "labels": ["0", "1"],
            "likelihood": [[[0.9, 0.3]]],
        }
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)

    def test_the_last_likelihood_row_is_checked(self):
        m = opposite_coins_model()
        lik = m.likelihood.copy()
        lik[-1, -1] = [0.5, 0.6]
        with pytest.raises(ValueError, match="sums to 1.1"):
            BayesModel(m.hypotheses, m.prior, m.inputs, m.labels, lik)

    @pytest.mark.parametrize("row", [0.5, [0.5], [], [0.5, 0.25, 0.25], [[0.5], [0.5]],
                                     [0.5, [0.5]]])
    def test_a_short_scalar_or_ragged_row_is_malformed(self, row):
        # a row of the wrong length is never broadcast to the label count
        doc = opposite_coins_model().to_json_dict()
        doc["likelihood"][1][1] = row
        with pytest.raises(MalformedInput, match="malformed model JSON"):
            BayesModel.from_json_dict(doc)

    def test_one_label_rows_still_need_a_list(self):
        doc = {"hypotheses": ["A"], "prior": [1.0], "inputs": ["x"], "labels": ["0"],
               "likelihood": [[[1.0]]]}
        assert BayesModel.from_json_dict(doc).likelihood.shape == (1, 1, 1)
        doc["likelihood"][0][0] = 1.0
        with pytest.raises(MalformedInput, match=re.escape(
                "likelihood must be 1 lists (one per hypothesis) of 1 rows (one per input) of 1 "
                "numbers (one per label), in declared order; got shape (1, 1)")):
            BayesModel.from_json_dict(doc)

    @pytest.mark.parametrize("table", [
        {"A": {"x0": [0.5, 0.5], "x1": [1.0, 0.0]}, "B": {"x0": [0.5, 0.5], "x1": [0.0, 1.0]}},
        "AB", 0.5, None,
    ], ids=["mapping", "string", "number", "null"])
    def test_only_the_nested_layout_is_read(self, table):
        # the mapping keyed by hypothesis and input name is refused, naming the new layout
        doc = opposite_coins_model().to_json_dict()
        doc["likelihood"] = table
        with pytest.raises(MalformedInput, match=re.escape(
                "malformed model JSON: likelihood must be 2 lists (one per hypothesis) of 2 rows "
                "(one per input) of 2 numbers (one per label), in declared order; the layout "
                "changed, and a mapping keyed by name is no longer read")):
            BayesModel.from_json_dict(doc)

    def test_the_table_is_written_in_declared_order(self):
        m = opposite_coins_model()
        assert m.to_json_dict()["likelihood"] == [[[0.5, 0.5], [1.0, 0.0]],
                                                  [[0.5, 0.5], [0.0, 1.0]]]

    def test_load_is_bit_identical_to_the_model_written(self):
        model, _, _ = threshold_task(64, seed=5)
        loaded = BayesModel.from_json_dict(model.to_json_dict())
        assert loaded.likelihood.tobytes() == model.likelihood.tobytes()
        assert loaded.prior.tobytes() == model.prior.tobytes()

    def test_hypothesis_cap(self):
        with pytest.raises(ValueError, match="cap"):
            BayesModel(
                hypotheses=tuple(f"w{i}" for i in range(10_001)),
                prior=np.full(10_001, 1 / 10_001),
                inputs=("x0",),
                labels=("0", "1"),
                likelihood=np.full((10_001, 1, 2), 0.5),
            )


def _near_rows(rng, shape):
    t = rng.random(shape) * rng.choice([1e-3, 1.0, 1e3], size=shape)
    return t / t.sum(axis=-1, keepdims=True)


class TestNormalized:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_short_last_axis_is_bit_identical_to_numpy(self, n):
        rng = np.random.default_rng(n)
        for shape in [(n,), (300, n), (7, 11, n)]:
            t = _near_rows(rng, shape)
            for table in (t, np.asfortranarray(t), t[::-1]):
                want = table / table.sum(axis=-1, keepdims=True)
                assert _normalized(table, "t").tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_y", [2, 3, 9])  # from 8 labels on numpy sums pairwise
    def test_tables_of_several_blocks_are_bit_identical_to_numpy(self, n_y):
        rng = np.random.default_rng(n_y)
        for shape in [(3 * _BLOCK_CELLS // n_y + 7, n_y), (150, 500, n_y)]:
            step = _BLOCK_CELLS // math.prod(shape[1:])
            assert shape[0] > 2 * step and shape[0] % step  # a ragged last block
            t = _near_rows(rng, shape)
            for table in (t, np.asfortranarray(t), t[::-1]):
                sums = table.sum(axis=-1, keepdims=True)
                got, least = _normalized(table, "t", least=True)
                assert got.tobytes() == (table / sums).tobytes()
                assert least == table.min() / sums.max()

    @pytest.mark.parametrize("low_first", [True, False])
    def test_a_table_of_several_blocks_reports_its_extremes_in_order(self, low_first):
        t = np.full((3 * _BLOCK_CELLS // 2, 2), 0.5)  # blocks of _BLOCK_CELLS // 2 rows
        t[(10, -10) if low_first else (-10, 10), 1] = (0.4, 0.6)
        with pytest.raises(ValueError, match=r"^t sums to 0\.9, not 1$"):
            _normalized(t, "t")
        t[-10 if low_first else 10, 1] = np.inf  # reported before any block divides an inf
        with pytest.raises(ValueError, match="^t must hold finite, non-negative numbers$"):
            _normalized(t, "t")

    def test_long_prior_is_bit_identical_to_numpy(self):
        t = _near_rows(np.random.default_rng(513), (513,))
        assert _normalized(t, "t").tobytes() == (t / t.sum(keepdims=True)).tobytes()

    @pytest.mark.parametrize("table,message", [
        ([0.5, np.nan], "t must hold finite, non-negative numbers"),
        ([[[0.5, 0.5]], [[0.5, np.nan]]], "t must hold finite, non-negative numbers"),
        ([0.5, np.inf], "t must hold finite, non-negative numbers"),
        ([[0.5, 0.5], [np.inf, 0.0]], "t must hold finite, non-negative numbers"),
        ([-np.inf, 1.0], "t must hold finite, non-negative numbers"),
        ([[0.5, 0.5], [-0.1, 1.1]], "t must hold finite, non-negative numbers"),
        (1.0, "t must hold finite, non-negative numbers"),
        ([], "t sums to 0.0, not 1"),
        (np.zeros((3, 0)), "t sums to 0.0, not 1"),
        ([[0.5, 0.4], [0.5, 0.6]], "t sums to 0.9, not 1"),
        ([[0.5, 0.5], [0.5, 0.6]], "t sums to 1.1, not 1"),
        ([1e308, 1e308], "t sums to inf, not 1"),
        ([[0.5, 0.5], [1e308, 1e308]], "t sums to inf, not 1"),
        (np.zeros((0, 3)), "zero-size array to reduction operation minimum"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_errors_keep_their_type_and_message(self, table, message):
        with pytest.raises(ValueError) as err:
            _normalized(table, "t")
        assert type(err.value) is ValueError
        assert str(err.value).startswith(message)


class TestDatasetAndEvidence:
    def test_log_evidence_matches_direct_sum(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = random_model(rng)
            data = random_data(rng, m, 3)
            direct = 0.0
            probs = m.prior.copy()
            post = posterior(m, [])
            for x, y in data:
                pred = predictive(m, post, x)
                direct += math.log(pred[y])
                post = update(m, post, x, y)
            assert log_evidence(m, data) == pytest.approx(direct, abs=1e-9)

    def test_dataset_validation(self):
        m = opposite_coins_model()
        with pytest.raises(ValueError):
            posterior(m, [("x9", "0")])

    def test_zero_evidence(self):
        # x1 labels 0 only under A and 1 only under B, so seeing both has probability zero
        m = opposite_coins_model()
        with pytest.raises(ZeroEvidence, match="^the dataset has probability zero"):
            log_evidence(m, [("x1", "0"), ("x1", "1")])

    @staticmethod
    def faint_label_model():
        # label 0 has predictive mass 1.5e-20 <= ZERO_MASS under the uniform prior
        return BayesModel(("a", "b"), [0.5, 0.5], ("x",), ("0", "1"),
                          [[[1e-20, 1 - 1e-20]], [[2e-20, 1 - 2e-20]]])

    def test_a_dataset_is_refused_only_at_zero_evidence(self):
        m = self.faint_label_model()
        np.testing.assert_allclose(posterior(m, [("x", "0")]).probs, [1 / 3, 2 / 3], rtol=1e-12)
        assert log_evidence(m, [("x", "0")]) == pytest.approx(math.log(1.5e-20), rel=1e-12)
        # thirty ordinary labels: evidence 1e-30, far under ZERO_MASS
        m = BayesModel(("a",), [1.0], ("x",), ("0", "1"), [[[0.1, 0.9]]])
        assert log_evidence(m, [("x", "0")] * 30) == pytest.approx(30 * math.log(0.1))
        assert posterior(m, [("x", "0")] * 30).probs.tolist() == [1.0]

    def test_a_step_is_refused_at_mass_at_most_zero_mass(self):
        m = self.faint_label_model()
        with pytest.raises(ZeroEvidence, match="has zero probability under the current"):
            update(m, posterior(m, []), "x", "0")
        with pytest.raises(ZeroProbabilityEvent, match="zero predictive probability"):
            csd(m, posterior(m, []), "x", "0")
        xs, ys = np.array([0]), np.array([0])
        assert csd_scores(m, posterior(m, []), csd_table(m, xs, ys)).tolist() == [-np.inf]


class TestIndexResolver:
    def test_negative_index_is_rejected(self):
        m = opposite_coins_model()
        with pytest.raises(InvalidIndex):
            bald(m, posterior(m, []), -1)
        with pytest.raises(InvalidIndex):
            csd(m, posterior(m, []), "x1", -1)

    def test_index_past_the_end_is_a_package_error(self):
        m = opposite_coins_model()
        post = posterior(m, [])
        for call in (
            lambda: bald(m, post, 99),
            lambda: predictive(m, post, 99),
            lambda: update(m, post, 0, 99),
            lambda: posterior(m, [(99, 0)]),
        ):
            with pytest.raises(DiscinfoError):
                call()

    def test_numpy_integers_are_positions(self):
        m = opposite_coins_model()
        post = posterior(m, [])
        assert bald(m, post, np.int64(1)) == bald(m, post, "x1")
        assert m.label_index(np.uint8(1)) == 1
        with pytest.raises(InvalidIndex):
            m.input_index(np.int64(2))

    def test_unknown_names(self):
        m = opposite_coins_model()
        with pytest.raises(InvalidIndex):
            m.input_index("x9")
        with pytest.raises(InvalidIndex):
            m.label_index("2")

    def test_whole_pool_indices_are_checked(self):
        m = opposite_coins_model()
        post = posterior(m, [])
        with pytest.raises(InvalidIndex):
            csd_table(m, np.array([0, -1]), np.array([0, 0]))
        np.testing.assert_array_equal(
            csd_scores(m, post, csd_table(m, ["x1", "x1"], ["0", "1"])),
            csd_scores(m, post, csd_table(m, np.array([1, 1]), np.array([0, 1]))),
        )

    @pytest.mark.parametrize("xs,ys,arg", [(0, 0, "xs"), ([0], 0, "ys"), ("1", ["0"], "xs"),
                                           ([[0]], [0], "xs")])
    def test_whole_pool_indices_are_lists(self, xs, ys, arg):
        # a scalar is not taken for a list of one, nor a string for its characters
        m = threshold_task(4)[0]
        with pytest.raises(ValueError, match=f"^{arg} must be a list of"):
            csd_table(m, xs, ys)

    @pytest.mark.parametrize("call, arg", [
        (lambda m, post, t: csd_scores(m, post, t, given=5), "given"),
        (lambda m, post, t: csd_scores(m, post, t, given="01"), "given"),
        (lambda m, post, t: csd_scores(m, post, t, given=[(0, 1, 0)]), "given"),
        (lambda m, post, t: batch_score(m, post, 3), "xs"),
        (lambda m, post, t: batch_score(m, post, [0], 1), "ys"),
        (lambda m, post, t: posterior(m, [0, 1]), "data"),
    ])
    def test_pairs_and_batches_are_lists(self, call, arg):
        # a scalar or a string is named as the argument it stands in for, never unpacked
        m = threshold_task(4)[0]
        post, table = posterior(m, []), csd_table(m, [0, 1], [0, 0])
        with pytest.raises(ValueError, match=f"^{arg} must be a list of"):
            call(m, post, table)
        by_name = csd_scores(m, post, table, given=[("2", "1")])
        np.testing.assert_array_equal(by_name, csd_scores(m, post, table, given=np.array([[2, 1]])))

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_a_boolean_is_not_a_position(self, flag):
        # True == 1 and False == 0 in Python, but a flag names no input or label
        m = threshold_task(4)[0]
        post = posterior(m, [])
        for call, variable, shown in (
            (lambda: bald(m, post, flag), "X", flag),
            (lambda: update(m, post, flag, 0), "X", flag),
            (lambda: update(m, post, 0, flag), "Y", flag),
            (lambda: m.input_index(flag), "X", flag),
            (lambda: csd_table(m, [flag, 1], [0, 0]), "X", flag),
            # an array's entry is a numpy boolean, whatever the flag was
            (lambda: csd_table(m, np.array([flag]), [0]), "X", np.bool_(flag)),
        ):
            message = f"outcome index {shown!r} for variable {variable!r} is not an integer"
            with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize("key", [1.5, np.float64(1.5), None, (0,)])
    def test_a_name_is_a_string(self, key):
        # an input named "1.5" is found by the string "1.5" only, never by the float 1.5
        m = BayesModel(("a", "b"), [0.5, 0.5], ("1.5", "x"), ("0", "1"),
                       np.full((2, 2, 2), 0.5))
        assert m.input_index("1.5") == 0 and m.input_index(1) == 1
        message = f"outcome index {key!r} for variable 'X' is not an integer"
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message)}$"):
            m.input_index(key)
        with pytest.raises(InvalidIndex, match=f"^{re.escape(message.replace('X', 'Y'))}$"):
            m.label_index(key)

    @pytest.mark.parametrize("field, variable", [("hypotheses", "Omega"), ("inputs", "X"),
                                                 ("labels", "Y")])
    @pytest.mark.parametrize("names, message", [
        ((), "variable {!r} needs at least one outcome"),
        (("a", "a"), "variable {!r} has duplicate outcome labels")])
    def test_a_name_list_is_non_empty_and_distinct(self, field, variable, names, message):
        lists = {"hypotheses": ("h0", "h1"), "inputs": ("x0", "x1"), "labels": ("0", "1")}
        lists[field] = names
        shape = tuple(len(lists[k]) for k in ("hypotheses", "inputs", "labels"))
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(variable))}$"):
            BayesModel(lists["hypotheses"], np.full(shape[0], 1 / max(shape[0], 1)),
                       lists["inputs"], lists["labels"], np.full(shape, 1 / max(shape[2], 1)))

    def test_names_may_be_any_iterable(self):
        # the cap on the hypotheses reads the built variable, not len() of its argument
        m = BayesModel((h for h in ("a", "b")), [0.5, 0.5], iter(("x",)), range(2),
                       np.full((2, 1, 2), 0.5))
        assert (m.hypotheses, m.inputs, m.labels) == (("a", "b"), ("x",), ("0", "1"))

    @pytest.mark.parametrize("prior, likelihood, message", [
        ([1.0], np.full((2, 2, 2), 0.5), "prior length must match the hypothesis count"),
        ([0.5, 0.5], np.full((2, 2), 0.5), "likelihood must have shape (2, 2, 2), got (2, 2)"),
    ])
    def test_the_tables_fit_the_name_lists(self, prior, likelihood, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BayesModel(("h0", "h1"), prior, ("x0", "x1"), ("0", "1"), likelihood)

    @pytest.mark.parametrize("call, message", [
        (lambda m, post: csd_table(m, [0, 1], [0]), "xs and ys must have equal length"),
        (lambda m, post: batch_score(m, post, [0, 1], [0]), "xs and ys must have equal length"),
        (lambda m, post: batch_score(m, post, []), "batch must contain at least one input"),
    ], ids=["csd_table", "batch_score", "empty batch"])
    def test_one_label_per_input_and_at_least_one_input(self, call, message):
        m = threshold_task(4)[0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(m, posterior(m, []))

    def test_a_prefix_must_fit_the_model(self):
        # the batch so far is a list of inputs resolved by the model, so no prefix built on
        # another model can be passed; an unknown input or too many of them is refused
        m = threshold_task(4)[0]
        post, table = posterior(m, []), label_entropy_table(m)
        with pytest.raises(InvalidIndex, match="^'x9' is not an outcome of variable 'X'$"):
            bald_scores(m, post, table, ["0", "x9"])
        with pytest.raises(BatchTooLarge, match="^batch size 7 exceeds the cap of 6"):
            bald_scores(m, post, table, [0, 1, 2, 3, 0, 1])
        with pytest.raises(ValueError, match="^chosen must be a list of inputs"):
            bald_scores(m, post, table, 1)

    def test_a_prefix_must_have_the_models_labels(self):
        # a labelled prefix is a list of pairs whose labels the model resolves: a label of
        # another label set, by name or by position, is refused, never read past the end
        m = threshold_task(4, 2)[0]
        post, table = posterior(m, []), csd_table(m, [0, 1], [0, 0])
        with pytest.raises(InvalidIndex, match="^'c' is not an outcome of variable 'Y'$"):
            csd_scores(m, post, table, given=[(0, "c")])
        with pytest.raises(InvalidIndex, match="^outcome index 2 out of range for variable 'Y'$"):
            csd_scores(m, post, table, given=[(0, 0), (1, 2)])

    def test_score_tables_must_fit_the_model(self):
        # never numpy's broadcast error: the message names the table
        m = threshold_task(4)[0]
        post = posterior(m, [])
        with pytest.raises(ValueError, match="^label entropy table has shape"):
            bald_scores(m, post, label_entropy_table(m)[:, :2])
        with pytest.raises(ValueError, match="^csd table was built on another model"):
            csd_scores(m, post, csd_table(threshold_task(8)[0], [0, 1], [0, 1]))

    def test_a_csd_table_of_the_same_shape_belongs_to_its_model(self):
        # a table from threshold_task(8, 4, label_flip=0.3) was scored on threshold_task(8, 4)
        # as [0.043, 0.062], where the model's own table gives [0.223, 0.356]
        m, other = threshold_task(8, 4)[0], threshold_task(8, 4, label_flip=0.3)[0]
        post = posterior(m, [])
        np.testing.assert_allclose(csd_scores(m, post, csd_table(m, [1, 2], [0, 0])),
                                   [0.223, 0.356], atol=5e-4)
        with pytest.raises(ValueError, match="^csd table was built on another model"):
            csd_scores(m, post, csd_table(other, [1, 2], [0, 0]))

    def test_a_list_of_pairs_reports_its_first_fault_in_pair_order(self):
        model = threshold_task(512, 200)[0]  # inputs "0".."511", labels ("0", "1")
        pairs = [[x, int(x >= 200)] for x in range(512)]
        pairs[3][1], pairs[5][0] = 7, 999
        with pytest.raises(InvalidIndex, match="outcome index 7 out of range for variable 'Y'"):
            bayes._observations(model, pairs)


@st.composite
def models_with_posteriors(draw):
    """Small models whose likelihoods and posterior may hold exact zeros."""
    n_omega = draw(st.integers(1, 5))
    n_x = draw(st.integers(1, 4))
    n_y = draw(st.integers(2, 4))
    cells = draw(st.lists(st.integers(0, 4), min_size=n_omega * n_x * n_y,
                          max_size=n_omega * n_x * n_y))
    lik = np.array(cells, dtype=float).reshape(n_omega, n_x, n_y)
    lik[..., 0] += lik.sum(axis=2) == 0  # no all-zero row
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=n_omega,
                                     max_size=n_omega)), dtype=float)
    weights[0] += weights.sum() == 0
    model = BayesModel(
        hypotheses=tuple(f"w{i}" for i in range(n_omega)),
        prior=np.full(n_omega, 1.0 / n_omega),
        inputs=tuple(f"x{i}" for i in range(n_x)),
        labels=tuple(f"y{i}" for i in range(n_y)),
        likelihood=lik / lik.sum(axis=2, keepdims=True),
    )
    return model, Posterior(weights / weights.sum())


class TestWholePoolScores:
    """The whole-pool scores against the information engine, cell by cell."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(models_with_posteriors())
    def test_bald_and_csd_equal_engine(self, case):
        m, post = case
        table = label_entropy_table(m)
        pool_bald = bald_scores(m, post, table)
        xs, ys = np.divmod(np.arange(len(m.inputs) * m.n_labels), m.n_labels)
        pool_csd = csd_scores(m, post, csd_table(m, xs, ys))
        for x in range(len(m.inputs)):
            joint = joint_label_hypothesis(m, post, x)
            assert pool_bald[x] == pytest.approx(
                mutual_info(joint, [["Omega"], ["Y"]]), abs=1e-9)
            assert bald(m, post, x) == pytest.approx(pool_bald[x], abs=1e-12)
            for y in range(m.n_labels):
                score = pool_csd[x * m.n_labels + y]
                if joint.probs[:, y].sum() == 0:
                    assert score == -np.inf
                    with pytest.raises(ZeroProbabilityEvent):
                        csd(m, post, x, y)
                    continue
                assert score == pytest.approx(
                    mutual_info(joint, [["Omega"], [("Y", y)]]), abs=1e-9)
                assert csd(m, post, x, y) == pytest.approx(score, abs=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(models_with_posteriors(), st.data())
    def test_joint_scores_with_a_prefix_equal_engine(self, case, data):
        # the batch scorers, whole-pool and single, are their expressions, I[Omega; Y1, .., Yk, Y]
        # for chosen inputs and I[Omega; y1, .., yk, y] for given pairs, k = 0..2, with -inf (or
        # ZeroProbabilityEvent) where the labelled batch is impossible
        m, post = case
        k = data.draw(st.integers(0, 2))
        chosen = [data.draw(st.integers(0, len(m.inputs) - 1)) for _ in range(k)]
        labels = [data.draw(st.integers(0, m.n_labels - 1)) for _ in range(k + 1)]
        pool_bald = bald_scores(m, post, label_entropy_table(m), chosen)
        xs = np.arange(len(m.inputs))
        pool_csd = csd_scores(m, post, csd_table(m, xs, np.full(len(xs), labels[-1])),
                              given=list(zip(chosen, labels)))
        names, unobserved, _ = batch_gains(k, observed=False)
        _, observed, _ = batch_gains(k, observed=True)
        for x in xs:
            joint = batch_joint(m, post, chosen + [x])
            expected = evaluate(unobserved, joint)
            assert abs(pool_bald[x] - expected) <= 1e-12
            assert abs(batch_score(m, post, chosen + [x]) - expected) <= 1e-12
            try:
                gain = evaluate(observed, joint, bindings=dict(zip(names, labels)))
            except ZeroProbabilityEvent:
                assert pool_csd[x] == -np.inf
                with pytest.raises(ZeroProbabilityEvent):
                    batch_score(m, post, chosen + [x], labels)
            else:
                assert abs(pool_csd[x] - gain) <= 1e-12
                assert abs(batch_score(m, post, chosen + [x], labels) - gain) <= 1e-12

    def test_log_likelihood_sum_matches_the_full_table_log(self):
        # _log_joint sums the columns from zeros, adds the log prior, then subtracts the
        # maximum: the same bits as the full table's log; zero cells (opposite coins) are -inf
        rng = np.random.default_rng(31)
        models = [(random_model(rng), None) for _ in range(20)]
        models += [(opposite_coins_model(), [(1, 0), (0, 1)]), (opposite_coins_model(), [])]
        for m, data in models:
            data = random_data(rng, m, 4) if data is None else data
            with np.errstate(divide="ignore"):
                full, expected = np.log(m.likelihood), np.log(m.prior)
            total = np.zeros(m.n_hypotheses)
            for xi, yi in data:
                total += full[:, xi, yi]
            expected = expected + total
            shifted, top = _log_joint(m, data)
            assert top == expected.max()
            assert shifted.tobytes() == (expected - expected.max()).tobytes()
        # log_evidence is top + log(sum(exp(shifted))), also under ZERO_MASS
        m = TestDatasetAndEvidence.faint_label_model()
        for data in ([], [(0, 0)], [(0, 0)] * 30, [(0, 1)] * 3):
            shifted, top = _log_joint(m, data)
            assert log_evidence(m, data) == float(top + np.log(np.sum(np.exp(shifted))))


def block_csd_scores(m, post, xs, ys, given=()):
    """The block code csd_scores replaced: each candidate's reweighted
    posterior built and normalised, with the 0 * log 0 rule on its cells.
    The reference for which candidates are impossible and for the masked
    value (test pools fit in one block)."""
    weights = post.probs
    for x, y in given:
        weights = weights * m.likelihood[:, x, y]
    cells = m.likelihood.reshape(len(weights), -1)
    joint = np.multiply(np.take(cells, xs * m.n_labels + ys, axis=1).T, weights, order="C")
    total = joint.sum(axis=1)
    possible = total > ZERO_MASS
    joint /= np.where(possible, total, 1.0)[:, None]
    after = -plogq(joint).sum(axis=1)
    return np.where(possible, post.entropy - after, -np.inf)


def engine_csd(m, post, given, x, y):
    """H[Omega] - H[Omega | given, y] at input x from the information engine:
    the joint over (Omega, Y) under the posterior after ``given``,
    conditioned on Y = y."""
    weights = post.probs
    for gx, gy in given:
        weights = weights * m.likelihood[:, gx, gy]
    joint = joint_label_hypothesis(m, Posterior(weights / weights.sum()), x)
    before = entropy(joint_label_hypothesis(m, post, x), ["Omega"])
    return before - entropy(condition(joint, {"Y": y}), ["Omega"])


@st.composite
def concentrated_cases(draw):
    """Models with exact-zero likelihood cells, a posterior concentrated by
    10 to 40 updates, and 0 to 2 given pairs, each the least likely pair of
    positive probability, so their joint mass is far below 1."""
    n_omega, n_x, n_y = draw(st.integers(2, 6)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    cells = draw(st.lists(st.integers(0, 4), min_size=n_omega * n_x * n_y,
                          max_size=n_omega * n_x * n_y))
    cells = np.array(cells, dtype=float).reshape(n_omega, n_x, n_y)
    # odds up to 1e18 between labels, so some likelihood cells lie below ZERO_CELL
    lik = np.where(cells > 0, 10.0 ** (6 * cells), 0.0)
    lik[..., 0] += lik.sum(axis=2) == 0
    m = BayesModel(
        hypotheses=tuple(f"w{i}" for i in range(n_omega)),
        prior=np.full(n_omega, 1.0 / n_omega),
        inputs=tuple(f"x{i}" for i in range(n_x)),
        labels=tuple(f"y{i}" for i in range(n_y)),
        likelihood=lik / lik.sum(axis=2, keepdims=True),
    )
    post = posterior(m, [])
    # labels drawn from one hypothesis, so the posterior concentrates on it
    truth = draw(st.integers(0, n_omega - 1))
    observed = st.tuples(st.integers(0, n_x - 1), st.integers(0, n_y - 1))
    for x, k in draw(st.lists(observed, min_size=10, max_size=40)):
        possible = predictive(m, post, x) > ZERO_MASS
        labels = np.flatnonzero(possible & (m.likelihood[truth, x] > 0))
        labels = labels if len(labels) else np.flatnonzero(possible)
        post = update(m, post, x, labels[k % len(labels)])
    weights, given_pairs = post.probs, []
    for _ in range(draw(st.integers(0, 2))):
        pred = np.einsum("w,wxy->xy", weights, m.likelihood)
        x, y = np.unravel_index(np.argmin(np.where(pred > 0, pred, np.inf)), pred.shape)
        given_pairs.append((int(x), int(y)))
        weights = weights * m.likelihood[:, x, y]
    return m, post, given_pairs


# labelled points from a batch_csd run on threshold_task(512, seed=1) at
# noise_rate 0.1: 18 observed, then the two given pairs of a greedy step
NOISY_OBSERVED = [(31, 1), (9, 1), (6, 0), (13, 1), (8, 0), (7, 0), (16, 1), (41, 1), (5, 0),
                  (47, 1), (4, 0), (59, 1), (3, 0), (60, 1), (2, 0), (61, 1), (1, 0), (62, 0)]
NOISY_GIVEN = [(66, 1), (68, 0)]


class TestCsdClosedForm:
    """csd_scores is H[Omega] - H[Omega | given, y, x] by Bayes' rule in
    information-content form: three matvecs against the pool table."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(concentrated_cases())
    def test_equals_the_engine_and_the_block_code(self, case):
        m, post, given_pairs = case
        xs, ys = np.divmod(np.arange(len(m.inputs) * m.n_labels), m.n_labels)
        scores = csd_scores(m, post, csd_table(m, xs, ys), given_pairs)
        block = block_csd_scores(m, post, xs, ys, given_pairs)
        np.testing.assert_array_equal(np.isneginf(scores), np.isneginf(block))
        # the block code drops cells of the reweighted posterior at or below
        # ZERO_CELL; the closed form is exact, at most this far from it
        masked_gap = m.n_hypotheses * ZERO_CELL * math.log(1 / ZERO_CELL)
        for k in np.flatnonzero(np.isfinite(scores)):
            assert scores[k] == pytest.approx(
                engine_csd(m, post, given_pairs, xs[k], ys[k]), abs=1e-12)
            assert abs(scores[k] - block[k]) <= masked_gap + 1e-12

    def test_a_cell_below_zero_cell_that_the_candidate_lifts(self):
        # the label has predictive probability 0.02, so posterior cells of
        # 2.7e-14 and 5.6e-16 carry real mass after the update.  Dropping the
        # 5.6e-16 cell's terms (the 0 * log 0 rule on p) moves the score by
        # about 2e-12; applying that rule to the unnormalised given weights
        # made it +4.7e-9.  The 40-digit value is -1.62532464908571e-8.
        model, _, _ = threshold_task(512, seed=1)
        post = posterior(model, NOISY_OBSERVED)
        score = csd_scores(model, post, csd_table(model, [63], [0]), NOISY_GIVEN)[0]
        assert score == pytest.approx(-1.62532464908571e-8, abs=1e-13)
        assert score == pytest.approx(engine_csd(model, post, NOISY_GIVEN, 63, 0), abs=1e-12)
        xs, ys = zip(*NOISY_GIVEN, (63, 0))
        assert batch_score(model, post, xs, ys) == score

    def test_a_likelihood_cell_below_zero_cell_that_the_update_lifts(self):
        # p(y | x, A) = 1e-17, but A holds almost all the mass and B labels y
        # with 1e-5, so A keeps about 1e-6 of the updated posterior
        lik = np.array([[[1.0 - 1e-17, 1e-17]], [[1.0 - 1e-5, 1e-5]]])
        m = BayesModel(("A", "B"), [1.0 - 1e-6, 1e-6], ("x0",), ("0", "1"), lik)
        post = posterior(m, [])
        score = csd_scores(m, post, csd_table(m, [0], [1]))[0]
        assert score == pytest.approx(engine_csd(m, post, [], 0, 1), abs=1e-12)

    def test_an_uninformative_input_scores_zero(self):
        m = random_model(np.random.default_rng(4), n_omega=7, n_x=3, n_y=2)
        lik = m.likelihood.copy()
        lik[:, 1] = [0.3, 0.7]  # input 1 tells nothing about omega
        m = BayesModel(m.hypotheses, m.prior, m.inputs, m.labels, lik)
        post = posterior(m, [(0, 1), (2, 0)])
        scores = csd_scores(m, post, csd_table(m, [1, 1], [0, 1]))
        np.testing.assert_allclose(scores, 0.0, atol=1e-15)


def input_blocked_table(lik):
    """The label-entropy table built a block of inputs at a time, with the
    0 * log 0 mask on every cell: the reference the hypothesis-blocked
    build must match bit for bit."""
    n_omega, n_x, n_y = lik.shape
    table = np.empty((n_omega, n_x))
    step = max(1, _BLOCK_CELLS // (n_omega * n_y))
    for start in range(0, n_x, step):
        block = lik[:, start:start + step]
        terms = np.where(block > ZERO_CELL, block, 1.0)
        np.log(terms, out=terms)
        terms *= block
        h = -terms[..., 0]
        for y in range(1, n_y):
            h -= terms[..., y]
        table[:, start:start + step] = h
    return table


class TestLabelEntropyTable:
    """The table is H[Y | x, omega] cell by cell, whatever its blocking."""

    @staticmethod
    def model_with_zeros(rng, n_omega, n_x, n_y=3):
        lik = rng.dirichlet(np.ones(n_y), size=(n_omega, n_x))
        # exact zeros in the first half of the hypotheses only, so blocks
        # with and without a zero cell both occur
        zeros = rng.random(lik.shape) < 0.2
        zeros[n_omega // 2:] = False
        lik[zeros] = 0.0
        lik[lik.sum(axis=-1) == 0, 0] = 1.0
        lik /= lik.sum(axis=-1, keepdims=True)
        return BayesModel(
            hypotheses=tuple(f"w{i}" for i in range(n_omega)),
            prior=np.full(n_omega, 1.0 / n_omega),
            inputs=tuple(f"x{i}" for i in range(n_x)),
            labels=tuple(f"y{i}" for i in range(n_y)),
            likelihood=lik,
        )

    @pytest.mark.parametrize("n_omega, n_x", [
        (4, 5),
        (50, 1000),  # blocks of 21 hypotheses, the last one ragged
        (3, _BLOCK_CELLS // 3 + 1),  # n_x * n_y > _BLOCK_CELLS: one row per block
    ])
    def test_equals_input_blocked_build_and_per_cell_entropy(self, n_omega, n_x):
        rng = np.random.default_rng(n_omega * 7919 + n_x)
        m = self.model_with_zeros(rng, n_omega, n_x)
        lik = m.likelihood
        assert (lik[0] == 0).any() and (lik[-1] > 0).all()
        table = label_entropy_table(m)
        assert table.shape == (n_omega, n_x)
        assert np.array_equal(table, input_blocked_table(lik))
        omegas = rng.integers(n_omega, size=60)
        xs = rng.integers(n_x, size=60)
        for w, x in zip(omegas, xs):
            row = JointDistribution((Variable("Y", m.labels),), lik[w, x])
            assert table[w, x] == pytest.approx(entropy(row, ["Y"]), abs=1e-12)


def masked_label_entropy_table(lik):
    """The label-entropy table as built before the model decided positivity:
    a block of hypotheses at a time, each block scanned for 0 * log 0 cells
    and masked if it holds one."""
    n_omega, n_x, n_y = lik.shape
    table = np.empty((n_omega, n_x))
    step = max(1, _BLOCK_CELLS // (n_x * n_y))
    for start in range(0, n_omega, step):
        block = lik[start:start + step]
        if block.min() > ZERO_CELL:
            terms = np.log(block)
        else:
            terms = np.where(block > ZERO_CELL, block, 1.0)
            np.log(terms, out=terms)
        terms *= block
        h = -terms[..., 0]
        for y in range(1, n_y):
            h -= terms[..., y]
        table[start:start + step] = h
    return table


def clamped_xlogx(v):
    """p log p of the csd table with the clamp at the least positive float."""
    out = np.maximum(v, np.nextafter(0.0, 1.0))
    np.log(out, out=out)
    out *= v
    return out


def zero_masked_xlogx(v):
    """p log p of the csd table with exact zeros masked to log 1: 0 there,
    as the clamp gives it but for the sign of zero."""
    out = np.where(v > 0, v, 1.0)
    np.log(out, out=out)
    out *= v
    return out


_Z = ZERO_CELL
_ABOVE_Z = np.nextafter(ZERO_CELL, 1.0)
# rows holding a small cell: normalised to exactly ZERO_CELL (the row sums to
# 1.0 in order), to just above it, and a raw cell just above it in a row
# that sums above 1, so that the normalised cell falls below it
_SMALL_ROWS = {
    "at": [_Z, 0.5, 1.0 - (_Z + 0.5)],
    "just_above": [_ABOVE_Z, 0.5, 1.0 - (_ABOVE_Z + 0.5)],
    "raw_above_row_over_1": [_ABOVE_Z, 0.5, 0.5 + 1e-9],
}


@st.composite
def table_models(draw):
    """Models with n_y = 3 whose likelihood may hold exact zeros and cells
    at or near ZERO_CELL, in shapes whose last block is ragged or whose
    blocks hold one hypothesis each."""
    n_x, n_omega = draw(st.sampled_from([
        (1, st.integers(1, 6)), (7, st.integers(1, 30)),
        (1000, st.integers(20, 50)),  # 21 hypotheses a block, the last ragged
        (_BLOCK_CELLS // 3 + 1, st.integers(1, 3)),  # one hypothesis a block
    ]))
    n_omega = draw(n_omega)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lik = rng.dirichlet(np.ones(3), size=(n_omega, n_x))
    zeros = rng.random(lik.shape) < draw(st.sampled_from([0.0, 0.0, 0.05]))
    lik[zeros] = 0.0
    lik[lik.sum(axis=-1) == 0, 0] = 1.0
    lik /= lik.sum(axis=-1, keepdims=True)
    for kind in draw(st.lists(st.sampled_from(sorted(_SMALL_ROWS)), max_size=2)):
        lik[rng.integers(n_omega), rng.integers(n_x)] = _SMALL_ROWS[kind]
    model = BayesModel(
        hypotheses=tuple(f"w{i}" for i in range(n_omega)),
        prior=np.full(n_omega, 1.0 / n_omega),
        inputs=tuple(f"x{i}" for i in range(n_x)),
        labels=("a", "b", "c"),
        likelihood=lik,
    )
    n = draw(st.integers(1, 40))
    return model, rng.integers(n_x, size=n), rng.integers(3, size=n)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestScoreTablePositivity:
    """Positivity is decided once, when the model is built; both score
    tables are bit-identical to their masked builds either way, and the csd
    table equals its clamped build in value."""

    @given(table_models())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_tables_match_masked_builds_bit_for_bit(self, case):
        m, xs, ys = case
        lik = m.likelihood
        if (lik <= ZERO_CELL).any():
            assert not m._positive
        assert _same_bits(label_entropy_table(m), masked_label_entropy_table(lik))
        every = np.arange(lik[0].size)  # the drawn candidates, then every cell
        for xs, ys in ((xs, ys), (every // 3, every % 3)):
            table = csd_table(m, xs, ys)
            columns = lik.reshape(m.n_hypotheses, -1)[:, xs * 3 + ys]
            assert _same_bits(table.lik, columns)
            assert _same_bits(table.plogp, zero_masked_xlogx(columns))
            assert np.array_equal(table.plogp, clamped_xlogx(columns))

    @pytest.mark.parametrize("kind, cell_at_most_zero_cell", [
        ("at", True), ("just_above", False), ("raw_above_row_over_1", True),
    ])
    def test_small_cells(self, kind, cell_at_most_zero_cell):
        lik = np.full((2, 2, 3), 1.0 / 3.0)
        lik[1, 0] = _SMALL_ROWS[kind]
        m = BayesModel(("a", "b"), [0.5, 0.5], ("x", "y"), ("0", "1", "2"), lik)
        assert (m.likelihood[1, 0, 0] <= ZERO_CELL) == cell_at_most_zero_cell
        assert m._positive == (not cell_at_most_zero_cell)
        assert _same_bits(label_entropy_table(m), masked_label_entropy_table(m.likelihood))

    def test_positive_models_take_the_fast_path(self):
        assert threshold_task(32)[0]._positive
        assert not opposite_coins_model()._positive
