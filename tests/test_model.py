import math
import tracemalloc

import numpy as np
import pytest

import recdro.model as model_mod
from recdro.config import (BslForm, ConfigError, LossKind, LossSpec, NegSampler,
                           SamplingMode, TrainConfig)
from recdro.data import Dataset
from recdro.losses import LossResult, ScoreBatch, bsl_loss, loss_fn_from_spec
from recdro.model import (AdamState, CheckpointError, EmbeddingTable,
                          TrainingDivergedError, UnitRows, _normalize_backward,
                          _normalize_rows, cosine_score, dense_batch_grads,
                          inbatch_batch_grads, init_embeddings, load_checkpoint,
                          sampled_batch_grads, save_checkpoint, score_all_items,
                          train, unique_rows)
from recdro.sampling import SamplerState, in_batch_negatives, sample_negatives
from recdro.synthetic import planted_clusters, zipf_preferences


class TestInitEmbeddings:
    def test_bound_for_dim_64(self):
        emb = init_embeddings(50, 40, 64, seed=0)
        bound = math.sqrt(6.0 / 128)
        assert bound == pytest.approx(0.2165, abs=1e-4)
        for mat in (emb.user_vecs, emb.item_vecs):
            assert np.abs(mat).max() <= bound

    def test_same_seed_same_table(self):
        a = init_embeddings(10, 12, 8, seed=3)
        b = init_embeddings(10, 12, 8, seed=3)
        assert np.array_equal(a.user_vecs, b.user_vecs)
        assert np.array_equal(a.item_vecs, b.item_vecs)
        c = init_embeddings(10, 12, 8, seed=4)
        assert not np.array_equal(a.user_vecs, c.user_vecs)

    def test_uniform_moments(self):
        emb = init_embeddings(1000, 1000, 64, seed=5)
        entries = np.concatenate([emb.user_vecs.ravel(), emb.item_vecs.ravel()])
        bound = math.sqrt(6.0 / 128)
        expected_var = (2 * bound) ** 2 / 12
        assert np.var(entries) == pytest.approx(expected_var, rel=0.05)


class TestCosineScore:
    def test_parallel_and_antiparallel(self):
        emb = EmbeddingTable(np.array([[1.0, 2.0, 0.5]]),
                             np.array([[2.0, 4.0, 1.0], [-1.0, -2.0, -0.5]]))
        scores, _ = cosine_score(emb, 0, [0, 1])
        assert scores[0] == pytest.approx(1.0, abs=1e-12)
        assert scores[1] == pytest.approx(-1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        emb = EmbeddingTable(rng.normal(size=(2, 8)), rng.normal(size=(5, 8)))
        base, _ = cosine_score(emb, 1, [0, 3])
        emb.user_vecs[1] *= 10.0
        scaled, _ = cosine_score(emb, 1, [0, 3])
        assert np.max(np.abs(scaled - base)) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        emb = EmbeddingTable(rng.normal(size=(3, 8)), rng.normal(size=(6, 8)))
        items = [0, 2, 5]
        g = rng.normal(size=3)
        scores, ctx = cosine_score(emb, 1, items)
        grad_u, grad_items = ctx.backward(g)

        h = 1e-6
        fd_u = np.zeros(8)
        for a in range(8):
            e1, e2 = emb.copy(), emb.copy()
            e1.user_vecs[1, a] += h
            e2.user_vecs[1, a] -= h
            s1, _ = cosine_score(e1, 1, items)
            s2, _ = cosine_score(e2, 1, items)
            fd_u[a] = ((s1 - s2) @ g) / (2 * h)
        assert np.linalg.norm(fd_u - grad_u) / np.linalg.norm(grad_u) < 1e-5

        fd_i = np.zeros_like(grad_items)
        for k, item in enumerate(items):
            for a in range(8):
                e1, e2 = emb.copy(), emb.copy()
                e1.item_vecs[item, a] += h
                e2.item_vecs[item, a] -= h
                s1, _ = cosine_score(e1, 1, items)
                s2, _ = cosine_score(e2, 1, items)
                fd_i[k, a] = (s1[k] - s2[k]) * g[k] / (2 * h)
        assert np.linalg.norm(fd_i - grad_items) / np.linalg.norm(grad_items) < 1e-5

    def test_zero_norm_vector_is_finite(self):
        emb = EmbeddingTable(np.zeros((1, 4)), np.ones((2, 4)))
        scores, ctx = cosine_score(emb, 0, [0, 1])
        assert np.isfinite(scores).all()
        gu, gi = ctx.backward(np.ones(2))
        assert np.isfinite(gu).all() and np.isfinite(gi).all()

    @pytest.mark.parametrize("user, items", [(1, [0, 2, 5]), (1, [3, 0, 3, 3]),
                                             (0, [1, 4, 1])],
                             ids=["distinct", "repeated-item", "zero-user"])
    def test_backward_matches_the_written_out_chain(self, user, items):
        rng = np.random.default_rng(8)
        user_vecs = rng.normal(size=(3, 8))
        user_vecs[0] = 0.0
        emb = EmbeddingTable(user_vecs, rng.normal(size=(6, 8)))
        g = rng.normal(size=len(items))
        scores, ctx = cosine_score(emb, user, items)
        grad_u, grad_items = ctx.backward(g)

        # the chain as each step was once spelled out by hand
        u_raw, i_raw = emb.user_vecs[user], emb.item_vecs[items]
        u_hat, u_norm, u_shift = _normalize_rows(u_raw[None, :])
        i_hat, i_norms, i_shifts = _normalize_rows(i_raw)
        want_u = _normalize_backward(u_raw[None, :], np.array([float(u_norm[0])]),
                                     np.array([float(u_shift[0])]), (g @ i_hat)[None, :])[0]
        want_items = _normalize_backward(i_raw, i_norms, i_shifts,
                                         g[:, None] * u_hat[0][None, :])
        assert np.array_equal(scores, i_hat @ u_hat[0])
        assert np.array_equal(grad_u, want_u)
        assert np.array_equal(grad_items, want_items)


@pytest.mark.parametrize("shape", [(1, 8), (5, 3), (4, 2, 6)])
def test_unit_rows_are_normalize_rows_and_its_backward(shape):
    rng = np.random.default_rng(9)
    x = rng.normal(size=shape)
    x[0] = 0.0
    g = rng.normal(size=shape)
    rows = UnitRows.of(x)
    hat, norms, shifts = _normalize_rows(x)
    assert rows.raw is x
    for got, want in ((rows.hat, hat), (rows.norms, norms), (rows.shifts, shifts)):
        assert np.array_equal(got, want)
    assert np.array_equal(rows.backward(g), _normalize_backward(x, *_normalize_rows(x)[1:], g))


class TestScoreAllItems:
    def test_consistent_with_cosine_score(self):
        rng = np.random.default_rng(8)
        emb = EmbeddingTable(rng.normal(size=(3, 6)), rng.normal(size=(9, 6)))
        full = score_all_items(emb, 2)
        assert full.shape == (9,)
        per_item, _ = cosine_score(emb, 2, np.arange(9))
        assert np.max(np.abs(full - per_item)) < 1e-12

    def test_inner_product_mode_skips_normalization(self):
        rng = np.random.default_rng(10)
        emb = EmbeddingTable(rng.normal(size=(2, 4)), rng.normal(size=(5, 4)))
        raw = score_all_items(emb, 0, inner_product=True)
        assert np.allclose(raw, emb.item_vecs @ emb.user_vecs[0])
        assert not np.allclose(raw, score_all_items(emb, 0))

    def test_top_item_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        emb = EmbeddingTable(rng.normal(size=(4, 5)), rng.normal(size=(20, 5)))
        full = score_all_items(emb, 1)
        u = emb.user_vecs[1]
        u = u / np.linalg.norm(u)
        best, best_score = None, -np.inf
        for i in range(20):
            v = emb.item_vecs[i]
            s = float(u @ (v / np.linalg.norm(v)))
            if s > best_score:
                best, best_score = i, s
        assert int(np.argmax(full)) == best


class TestScoreBlockRows:
    """Score blocks hold about SCORE_BLOCK_BYTES up to SCORE_BLOCK_MAX_ITEMS
    items, and the rows of a SCORE_BLOCK_MAX_ITEMS-item block above."""

    @pytest.mark.parametrize("n_items, rows", [
        (1500, 174), (4095, 64), (4096, 64), (4097, 64), (6000, 64), (20000, 64)])
    def test_default_budget(self, n_items, rows):
        assert model_mod.SCORE_BLOCK_MAX_ITEMS == 4096
        assert model_mod.score_block_rows(n_items) == rows
        # a block's bytes are bounded by the catalog, not by the user count
        assert rows * 8 * n_items <= max(model_mod.SCORE_BLOCK_BYTES, 64 * 8 * n_items)

    def test_wide_catalog_rows_follow_the_budget(self, monkeypatch):
        monkeypatch.setattr(model_mod, "SCORE_BLOCK_BYTES", 3 * 8 * 4096)
        assert model_mod.score_block_rows(4096) == 3
        assert model_mod.score_block_rows(20000) == 3
        assert model_mod.score_block_rows(1000) == 12


class TestAdam:
    def test_fresh_state_step_is_sign_preserving_ratio(self):
        emb = EmbeddingTable(np.zeros((2, 3)), np.zeros((4, 3)))
        adam = AdamState.for_table(emb)
        g = np.array([[0.5, -0.2, 1e-12]])
        before = emb.user_vecs[1].copy()
        adam.apply(emb, np.array([1]), g.copy(), np.array([], int),
                   np.empty((0, 3)), lr=0.01)
        delta = emb.user_vecs[1] - before
        expected = -0.01 * g[0] / (np.abs(g[0]) + adam.eps)
        assert np.allclose(delta, expected, atol=1e-15)
        assert adam.step == 1

    def test_two_steps_match_reference_formulas(self):
        emb = EmbeddingTable(np.array([[1.0, -1.0]]), np.zeros((1, 2)))
        adam = AdamState.for_table(emb)
        g1, g2 = np.array([[0.3, -0.7]]), np.array([[-0.1, 0.4]])
        theta = np.array([1.0, -1.0])
        m = v = np.zeros(2)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        for t, g in ((1, g1[0]), (2, g2[0])):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        adam.apply(emb, np.array([0]), g1.copy(), np.array([], int), np.empty((0, 2)), lr)
        adam.apply(emb, np.array([0]), g2.copy(), np.array([], int), np.empty((0, 2)), lr)
        assert np.allclose(emb.user_vecs[0], theta, atol=1e-15)


def tiny_dataset() -> Dataset:
    return Dataset.from_positive_lists(
        [[0, 2], [1, 3], [0, 1]], [[], [], []], n_items=4)


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        ds = tiny_dataset()
        cfg = TrainConfig(embedding_dim=5, learning_rate=0.0, epochs=3,
                          batch_size=4, n_negatives=2, rng_seed=11)
        emb, log = train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.5))
        fresh = init_embeddings(3, 4, 5, seed=11)
        assert np.array_equal(emb.user_vecs, fresh.user_vecs)
        assert np.array_equal(emb.item_vecs, fresh.item_vecs)
        assert len(log) == 3

    def test_single_step_matches_scalar_oracle(self):
        """Replays one whole-batch Adam step with plain python floats."""
        ds = tiny_dataset()
        seed, tau, lr, l2 = 13, 0.5, 0.01, 0.1
        n_neg = 2
        cfg = TrainConfig(embedding_dim=3, learning_rate=lr, l2_reg=l2, epochs=1,
                          batch_size=64, n_negatives=n_neg, rng_seed=seed)
        emb, _ = train(ds, cfg, LossSpec(kind=LossKind.SL, tau=tau))

        # reproduce the batch the trainer saw (same seeded streams)
        emb0 = init_embeddings(3, 4, 3, seed=seed)
        pairs = ds.train_pairs()
        order = np.random.default_rng(seed).permutation(pairs.shape[0])
        users = [int(pairs[i, 0]) for i in order]
        pos = [int(pairs[i, 1]) for i in order]
        sampler = SamplerState.create(seed=seed + 1)
        negs = {}
        batch_users = np.array(users)
        for u in np.unique(batch_users):
            idx = np.flatnonzero(batch_users == u)
            draws = sample_negatives(sampler, ds, int(u), idx.size * n_neg)
            for row, i0 in enumerate(idx):
                negs[int(i0)] = [int(x) for x in draws[row * n_neg:(row + 1) * n_neg]]

        def unit(vec):
            n = math.sqrt(sum(x * x for x in vec))
            s = n + 1e-12
            return [x / s for x in vec], n, s

        def chain(raw, n, s, ghat):
            dot = sum(r * g for r, g in zip(raw, ghat))
            return [g / s - r * dot / (n * s * s) for r, g in zip(raw, ghat)]

        B = len(users)
        user_hat_g = {u: [0.0] * 3 for u in set(users)}
        item_hat_g = {}
        for i in range(B):
            u_raw = [float(x) for x in emb0.user_vecs[users[i]]]
            uh, _, _ = unit(u_raw)
            p_raw = [float(x) for x in emb0.item_vecs[pos[i]]]
            ph, _, _ = unit(p_raw)
            j_hats = []
            for j in negs[i]:
                jh, _, _ = unit([float(x) for x in emb0.item_vecs[j]])
                j_hats.append(jh)
            n_scores = [sum(a * b for a, b in zip(uh, jh)) for jh in j_hats]
            exps = [math.exp(x / tau) for x in n_scores]
            z = sum(exps)
            gpos = -1.0 / B
            gnegs = [e / z / B for e in exps]
            for a in range(3):
                user_hat_g[users[i]][a] += gpos * ph[a] + sum(
                    gn * jh[a] for gn, jh in zip(gnegs, j_hats))
            item_hat_g.setdefault(pos[i], [0.0] * 3)
            for a in range(3):
                item_hat_g[pos[i]][a] += gpos * uh[a]
            for gn, j in zip(gnegs, negs[i]):
                item_hat_g.setdefault(j, [0.0] * 3)
                for a in range(3):
                    item_hat_g[j][a] += gn * uh[a]

        expect_users = emb0.user_vecs.copy()
        expect_items = emb0.item_vecs.copy()
        for u, ghat in user_hat_g.items():
            raw = [float(x) for x in emb0.user_vecs[u]]
            _, n, s = unit(raw)
            g = chain(raw, n, s, ghat)
            g = [ga + l2 * ra for ga, ra in zip(g, raw)]
            for a in range(3):
                expect_users[u, a] -= lr * g[a] / (abs(g[a]) + 1e-8)
        for it, ghat in item_hat_g.items():
            raw = [float(x) for x in emb0.item_vecs[it]]
            _, n, s = unit(raw)
            g = chain(raw, n, s, ghat)
            g = [ga + l2 * ra for ga, ra in zip(g, raw)]
            for a in range(3):
                expect_items[it, a] -= lr * g[a] / (abs(g[a]) + 1e-8)

        assert np.max(np.abs(emb.user_vecs - expect_users)) < 1e-10
        assert np.max(np.abs(emb.item_vecs - expect_items)) < 1e-10

    def test_deterministic_per_seed(self):
        ds = planted_clusters(n_users=30, n_items=20, seed=1)
        cfg = TrainConfig(embedding_dim=6, learning_rate=5e-3, epochs=3,
                          batch_size=32, n_negatives=4, rng_seed=21)
        a, _ = train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.2))
        b, _ = train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.2))
        assert np.array_equal(a.user_vecs, b.user_vecs)
        assert np.array_equal(a.item_vecs, b.item_vecs)

    @pytest.mark.parametrize("spec", [
        LossSpec(kind=LossKind.BPR),
        LossSpec(kind=LossKind.BCE),
        LossSpec(kind=LossKind.MSE),
        LossSpec(kind=LossKind.SL, tau=0.2),
        LossSpec(kind=LossKind.SL_NOVAR, tau=0.2),
        LossSpec(kind=LossKind.BSL, tau_pos=0.25, tau_neg=0.2),
        LossSpec(kind=LossKind.BSL, tau_pos=0.25, tau_neg=0.2,
                 bsl_form=BslForm.CANONICAL),
    ], ids=lambda s: f"{s.kind.value}-{s.bsl_form.value}")
    def test_epoch_loss_nonincreasing(self, spec):
        ds = planted_clusters(n_users=60, n_items=40, seed=2)
        cfg = TrainConfig(embedding_dim=8, learning_rate=1e-2, epochs=12,
                          batch_size=512, n_negatives=8, rng_seed=3)
        _, log = train(ds, cfg, spec)
        losses = [e["mean_loss"] for e in log]
        assert losses[-1] < losses[0]
        for prev, cur in zip(losses, losses[1:]):
            slack = 0.05 * abs(prev) + 1e-6
            assert cur <= prev + slack

    def test_l2_shrinks_norms_monotonically(self):
        ds = planted_clusters(n_users=40, n_items=30, seed=4)
        spec = LossSpec(kind=LossKind.SL, tau=0.2)
        norms = []
        for l2 in (0.0, 0.1, 1.0, 10.0):
            cfg = TrainConfig(embedding_dim=6, learning_rate=1e-2, epochs=10,
                              batch_size=512, n_negatives=8, rng_seed=5, l2_reg=l2)
            emb, _ = train(ds, cfg, spec)
            norms.append(float(np.linalg.norm(emb.item_vecs, axis=1).mean()))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_in_batch_mode_trains(self):
        ds = planted_clusters(n_users=60, n_items=40, seed=6)
        cfg = TrainConfig(embedding_dim=8, learning_rate=1e-2, epochs=10,
                          batch_size=128, sampling_mode=SamplingMode.IN_BATCH,
                          rng_seed=7)
        _, log = train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.2))
        assert log[-1]["mean_loss"] < log[0]["mean_loss"]

    def test_divergence_guard(self, monkeypatch):
        ds = tiny_dataset()
        cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=1,
                          batch_size=8, n_negatives=2, rng_seed=8)

        def poisoned(spec):
            def fn(batch):
                n, m = batch.n_examples, batch.n_negatives
                return LossResult(float("nan"), np.zeros(n), np.zeros((n, m)))
            return fn

        monkeypatch.setattr(model_mod, "loss_fn_from_spec", poisoned)
        with pytest.raises(TrainingDivergedError) as err:
            train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.2))
        assert err.value.batch_index == 0

    @pytest.mark.parametrize("phase", ["loss", "backward"])
    def test_divergence_names_its_batch_and_phase(self, monkeypatch, phase):
        ds = tiny_dataset()
        cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=1,
                          batch_size=2, n_negatives=2, rng_seed=8)
        calls = []
        adam_steps = []

        def poisoned(spec):
            real = loss_fn_from_spec(spec)

            def fn(batch):
                res = real(batch)
                calls.append(None)
                if len(calls) < 3:
                    return res
                if phase == "loss":
                    return LossResult(float("inf"), res.grad_pos, res.grad_neg)
                grad_neg = res.grad_neg.copy()
                grad_neg[0, 0] = np.nan
                return LossResult(res.value, res.grad_pos, grad_neg)
            return fn

        real_apply = AdamState.apply

        def counting_apply(self, *args):
            adam_steps.append(None)
            real_apply(self, *args)

        monkeypatch.setattr(model_mod, "loss_fn_from_spec", poisoned)
        monkeypatch.setattr(AdamState, "apply", counting_apply)
        with pytest.raises(TrainingDivergedError, match=f"batch index 2: .* {phase} phase"
                           ) as err:
            train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.2))
        assert (err.value.batch_index, err.value.phase) == (2, phase)
        assert len(adam_steps) == 2  # the diverged batch reached no Adam step

    @pytest.mark.parametrize("mode", list(SamplingMode))
    def test_adam_step_that_overflows_the_table_is_the_adam_phase(self, monkeypatch, mode):
        """At lr = 1e308 the loss and gradients stay finite, but an Adam step
        writes inf into the table; the batch that did it is named, not the next
        batch's score check."""
        ds = zipf_preferences(40, 30, interactions_per_user=6, seed=0)
        cfg = TrainConfig(learning_rate=1e308, epochs=3, batch_size=64, n_negatives=4,
                          embedding_dim=4, sampling_mode=mode)
        adam_wrote = []
        real_apply = AdamState.apply

        def recording_apply(self, emb, *args):
            real_apply(self, emb, *args)
            adam_wrote.append(np.isfinite(emb.user_vecs).all()
                              and np.isfinite(emb.item_vecs).all())

        monkeypatch.setattr(AdamState, "apply", recording_apply)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDivergedError, match="adam phase") as err:
            train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.1))
        assert err.value.phase == "adam"
        # the named batch is the first whose step left a non-finite table
        assert adam_wrote.index(False) == err.value.batch_index == len(adam_wrote) - 1

    def test_callback_metrics_land_in_log(self):
        ds = tiny_dataset()
        cfg = TrainConfig(embedding_dim=4, learning_rate=1e-3, epochs=2,
                          batch_size=8, n_negatives=2, rng_seed=9)
        _, log = train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.5),
                       epoch_callback=lambda e, emb: {"marker": e * 10})
        assert [entry["marker"] for entry in log] == [0, 10]


def test_planted_fixture_beats_popularity_baseline_and_nears_ceiling():
    """Trains the block-structured fixture and checks ranking quality.

    Two in-test oracles pin the thresholds: (a) a non-personalized
    popularity ranker, which any working model must clearly beat, and (b)
    the exchangeability ceiling: within a block, held-out items are
    indistinguishable from unseen ones, so the best possible expected recall
    per user is min(20, c) / c over the c within-block candidates.
    """
    from recdro.evaluate import evaluate
    from recdro.synthetic import item_cluster_of

    ds = planted_clusters(seed=0)  # 200 users, 100 items, 2x2 blocks
    cfg = TrainConfig(embedding_dim=16, learning_rate=1e-2, epochs=50,
                      batch_size=1024, n_negatives=64, rng_seed=0, l2_reg=1e-6)
    emb, log = train(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.2))
    report = evaluate(emb, ds, [20], n_groups=10)

    item_block = item_cluster_of(ds.n_items, 2)
    user_block = np.arange(ds.n_users) * 2 // ds.n_users
    ceiling_terms = []
    for u in range(ds.n_users):
        test = ds.test_pos[u]
        if not test.size:
            continue
        block_items = np.flatnonzero(item_block == user_block[u])
        cands = np.setdiff1d(block_items, ds.train_pos[u])
        in_block = int(np.isin(test, cands).sum())
        ceiling_terms.append(in_block * min(20, cands.size) / cands.size / test.size)
    ceiling = float(np.mean(ceiling_terms))

    pop_order = np.lexsort((np.arange(ds.n_items), -ds.item_popularity))
    pop_recalls = []
    for u in range(ds.n_users):
        test = set(int(i) for i in ds.test_pos[u])
        if not test:
            continue
        train_items = set(int(i) for i in ds.train_pos[u])
        top = [i for i in pop_order if i not in train_items][:20]
        pop_recalls.append(len(test.intersection(top)) / len(test))
    baseline = float(np.mean(pop_recalls))

    assert report.recall[20] >= baseline + 0.2
    assert report.recall[20] >= 0.85 * ceiling
    assert log[-1]["mean_loss"] < log[0]["mean_loss"]


END_TO_END_SPECS = [
    LossSpec(kind=LossKind.BPR),
    LossSpec(kind=LossKind.BCE, bce_mse_balance=1.2),
    LossSpec(kind=LossKind.MSE, bce_mse_balance=0.8),
    LossSpec(kind=LossKind.SL, tau=0.2),
    LossSpec(kind=LossKind.SL_NOVAR, tau=0.2),
    LossSpec(kind=LossKind.BSL, tau_pos=0.3, tau_neg=0.2),
    LossSpec(kind=LossKind.BSL, tau_pos=0.3, tau_neg=0.2,
             bsl_form=BslForm.CANONICAL),
]


def assert_grads_match_finite_differences(kernel, spec):
    """c02's recipe: central differences, h = 1e-6, relative error < 1e-4."""
    rng = np.random.default_rng(30)
    emb = EmbeddingTable(rng.normal(scale=0.5, size=(3, 5)),
                         rng.normal(scale=0.5, size=(6, 5)))
    users = np.array([0, 2, 1, 0])
    pos = np.array([1, 4, 0, 5])
    negs = np.array([[2, 3], [0, 1], [5, 2], [3, 4]])
    fn = loss_fn_from_spec(spec)

    value, ur, ug, ir, ig = kernel(emb, users, pos, negs, fn)
    analytic_u = np.zeros_like(emb.user_vecs)
    analytic_u[ur] = ug
    analytic_i = np.zeros_like(emb.item_vecs)
    analytic_i[ir] = ig

    h = 1e-6
    for mat_name, analytic in (("user_vecs", analytic_u), ("item_vecs", analytic_i)):
        fd = np.zeros_like(analytic)
        for r in range(fd.shape[0]):
            for a in range(fd.shape[1]):
                e1, e2 = emb.copy(), emb.copy()
                getattr(e1, mat_name)[r, a] += h
                getattr(e2, mat_name)[r, a] -= h
                v1 = kernel(e1, users, pos, negs, fn)[0]
                v2 = kernel(e2, users, pos, negs, fn)[0]
                fd[r, a] = (v1 - v2) / (2 * h)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-12)
        assert rel < 1e-4, f"{mat_name} rel err {rel}"


@pytest.mark.parametrize("spec", END_TO_END_SPECS,
                         ids=lambda s: f"{s.kind.value}-{s.bsl_form.value}")
def test_end_to_end_gradients_match_finite_differences(spec):
    assert_grads_match_finite_differences(sampled_batch_grads, spec)


@pytest.mark.parametrize("spec", END_TO_END_SPECS,
                         ids=lambda s: f"{s.kind.value}-{s.bsl_form.value}")
def test_dense_gradients_match_finite_differences(monkeypatch, spec):
    # blocks of two users: the batch's three users span two score blocks
    monkeypatch.setattr(model_mod, "SCORE_BLOCK_BYTES", 2 * 8 * 6)
    assert_grads_match_finite_differences(dense_batch_grads, spec)


def test_in_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    emb = EmbeddingTable(rng.normal(scale=0.5, size=(4, 5)),
                         rng.normal(scale=0.5, size=(6, 5)))
    users = np.array([0, 2, 1, 3])
    items = np.array([1, 4, 0, 4])  # duplicate item on purpose
    fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.3))

    value, ur, ug, ir, ig = inbatch_batch_grads(emb, users, items, fn)
    analytic = np.zeros_like(emb.item_vecs)
    analytic[ir] = ig
    h = 1e-6
    fd = np.zeros_like(analytic)
    for r in range(6):
        for a in range(5):
            e1, e2 = emb.copy(), emb.copy()
            e1.item_vecs[r, a] += h
            e2.item_vecs[r, a] -= h
            fd[r, a] = (inbatch_batch_grads(e1, users, items, fn)[0]
                        - inbatch_batch_grads(e2, users, items, fn)[0]) / (2 * h)
    rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
    assert rel < 1e-4


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(32)
        emb = EmbeddingTable(rng.normal(size=(4, 6)), rng.normal(size=(7, 6)))
        adam = AdamState.for_table(emb)
        adam.apply(emb, np.array([0, 2]), rng.normal(size=(2, 6)),
                   np.array([1]), rng.normal(size=(1, 6)), lr=0.01)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, emb, epoch=17, seed=42, adam=adam)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 17 and loaded.seed == 42
        assert np.array_equal(loaded.emb.user_vecs, emb.user_vecs)
        assert np.array_equal(loaded.emb.item_vecs, emb.item_vecs)
        assert loaded.adam.step == 1
        assert np.array_equal(loaded.adam.m_user, adam.m_user)
        assert np.array_equal(loaded.adam.v_item, adam.v_item)

    def test_corrupted_file_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestFastPathsBitIdentical:
    """Each fast kernel against the slow form it replaced, compared exactly."""

    @staticmethod
    def per_column_scatter(inv, grads, n_rows):
        out = np.empty((n_rows, grads.shape[1]))
        for col in range(grads.shape[1]):
            out[:, col] = np.bincount(inv, weights=grads[:, col], minlength=n_rows)
        return out

    @pytest.mark.parametrize("d", [1, 8, 13, 64])
    def test_blocked_scatter_matches_per_column_bincount(self, d):
        rng = np.random.default_rng(d)
        inv = rng.integers(0, 37, size=900)  # many repeated target rows
        inv[:5] = 36  # the last row is hit, and rows 0..35 may be empty
        grads = rng.normal(size=(inv.size, d)) * 10.0 ** rng.integers(-8, 8, size=(inv.size, 1))
        fast = model_mod._scatter_rows(inv, grads, 40)
        assert np.array_equal(fast, self.per_column_scatter(inv, grads, 40))

    @staticmethod
    def looped_scatter(inv, grads, out):
        for k in np.ndindex(inv.shape):
            out[inv[k]] += grads[k]
        return out

    @staticmethod
    def assert_same_bits(got, want):
        # array_equal alone takes -0.0 for 0.0
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("shape", [(300,), (20, 15)], ids=["rows", "rows-m"])
    def test_scatter_adds_onto_out_in_row_order(self, shape):
        rng = np.random.default_rng(len(shape))
        n_rows, d = 12, 5
        inv = rng.integers(0, n_rows - 1, size=shape)  # repeats; row 11 gets nothing
        scale = 10.0 ** rng.integers(-9, 9, size=shape + (1,))
        grads = rng.normal(size=shape + (d,)) * scale
        start = rng.normal(size=(n_rows, d))
        out = start.copy()
        got = model_mod._scatter_rows(inv, grads, n_rows, out=out)
        assert got is out
        self.assert_same_bits(out, self.looped_scatter(inv, grads, start.copy()))
        assert np.array_equal(out[-1], start[-1])
        fresh = model_mod._scatter_rows(inv, grads, n_rows)
        self.assert_same_bits(fresh, self.looped_scatter(inv, grads, np.zeros((n_rows, d))))

    def test_scatter_keeps_the_sign_of_zero_terms(self):
        inv = np.array([0, 0, 1, 2])
        grads = np.array([[-0.0, 1.0], [-0.0, -1.0], [-0.0, -0.0], [0.0, -0.0]])
        start = np.array([[-0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
        out = model_mod._scatter_rows(inv, grads, 4, out=start.copy())
        # -0.0 + -0.0 stays -0.0, where a sum formed first and then added
        # (-0.0 + (0.0 + -0.0)) would read 0.0
        self.assert_same_bits(out, self.looped_scatter(inv, grads, start.copy()))
        assert np.signbit(out[[0, 1, 3], [0, 1, 1]]).all()
        fresh = model_mod._scatter_rows(inv, grads, 4)
        self.assert_same_bits(fresh, self.looped_scatter(inv, grads, np.zeros((4, 2))))
        assert not np.signbit(fresh).any()

    @pytest.mark.parametrize("b", [2, 3, 17])
    def test_off_diagonal_view_matches_in_batch_mask(self, b):
        rng = np.random.default_rng(b)
        sim = rng.normal(size=(b, b))
        mask = in_batch_negatives(np.arange(b), np.arange(b))
        assert np.array_equal(model_mod._off_diagonal(sim).reshape(b, b - 1),
                              sim[mask].reshape(b, b - 1))
        grad = rng.normal(size=(b, b - 1))
        written, expected = np.zeros((b, b)), np.zeros((b, b))
        model_mod._off_diagonal(written)[...] = grad.reshape(b - 1, b)
        expected[mask] = grad.ravel()
        assert np.array_equal(written, expected)

    # at b = 2 the negatives are a view of the released similarity matrix
    # (np.shares_memory); every larger b copies them out
    @pytest.mark.parametrize("b", [2, 3, 16])
    def test_in_batch_grads_match_masked_reference(self, b):
        rng = np.random.default_rng(41)
        emb = EmbeddingTable(rng.normal(size=(9, 7)), rng.normal(size=(11, 7)))
        users = rng.integers(0, 9, size=b)
        items = rng.integers(0, 11, size=b)
        fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.2))
        got = inbatch_batch_grads(emb, users, items, fn)

        mask = in_batch_negatives(users, items)
        u_hat, u_n, u_s = model_mod._normalize_rows(emb.user_vecs[users])
        i_hat, i_n, i_s = model_mod._normalize_rows(emb.item_vecs[items])
        sim = u_hat @ i_hat.T
        res = fn(ScoreBatch(np.diag(sim).copy(), sim[mask].reshape(b, b - 1)))
        g_sim = np.zeros_like(sim)
        g_sim[np.arange(b), np.arange(b)] = res.grad_pos
        g_sim[mask] = res.grad_neg.ravel()
        g_u = model_mod._normalize_backward(emb.user_vecs[users], u_n, u_s, g_sim @ i_hat)
        g_i = model_mod._normalize_backward(emb.item_vecs[items], i_n, i_s, g_sim.T @ u_hat)
        uu, u_inv = np.unique(users, return_inverse=True)
        ii, i_inv = np.unique(items, return_inverse=True)
        assert got[0] == res.value
        assert np.array_equal(got[1], uu) and np.array_equal(got[3], ii)
        assert np.array_equal(got[2], self.per_column_scatter(u_inv, g_u, uu.size))
        assert np.array_equal(got[4], self.per_column_scatter(i_inv, g_i, ii.size))

    def test_in_batch_step_holds_two_square_arrays(self):
        # one SL step at B = 512: the similarity matrix is released before
        # the loss runs, so no more than two (B, B) float64 arrays (plus
        # small change) are alive at once; three would read above 3.0
        b = 512
        rng = np.random.default_rng(5)
        emb = EmbeddingTable(rng.normal(size=(b, 8)), rng.normal(size=(b, 8)))
        fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.1))
        users, items = rng.permutation(b), rng.permutation(b)
        tracemalloc.start()
        try:
            inbatch_batch_grads(emb, users, items, fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * b * b * 8

    @pytest.mark.parametrize("kind", [LossKind.BPR, LossKind.BCE])
    def test_in_batch_pairwise_losses_reuse_their_arrays(self, kind):
        # BPR and BCE run softplus and sigmoid in arrays they own: one step at
        # B = 512 stays within 4.5 (B, B) float64 arrays, where allocating a
        # fresh array per elementwise operation reads 7.2 and 5.2
        b = 512
        rng = np.random.default_rng(5)
        emb = EmbeddingTable(rng.normal(size=(b, 8)), rng.normal(size=(b, 8)))
        fn = loss_fn_from_spec(LossSpec(kind=kind))
        users, items = rng.permutation(b), rng.permutation(b)
        tracemalloc.start()
        try:
            inbatch_batch_grads(emb, users, items, fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * b * b * 8

    def test_in_batch_rejects_a_single_pair(self):
        emb = init_embeddings(3, 3, 4, seed=0)
        fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.2))
        with pytest.raises(ValueError, match="two or more"):
            inbatch_batch_grads(emb, [0], [1], fn)

    # b rows of m negatives over 4m items, d columns; chunk_rows=None keeps
    # GATHER_CHUNK_BYTES, whose chunks are 64 rows at m = d = 64
    @pytest.mark.parametrize("b, m, d, n_users, chunk_rows, loss", [
        pytest.param(12, 5, 13, 6, None, "sl", id="base"),  # one chunk
        pytest.param(150, 64, 64, 40, None, "sl", id="3x64"),  # 64 + 64 + 22 rows
        pytest.param(150, 5, 13, 40, 64, "sl", id="d13"),  # 13 = 8 + 5 columns
        pytest.param(150, 5, 13, 3, 64, "sl", id="repeat"),  # ~50 rows per user
        pytest.param(150, 5, 13, 7, 64, "bsl", id="bsl"),  # canonical, grouped
        pytest.param(150, 5, 13, 7, 1, "sl", id="rows1"),
    ])
    def test_sampled_grads_match_concatenated_reference(self, monkeypatch, b, m, d,
                                                        n_users, chunk_rows, loss):
        if chunk_rows is not None:
            monkeypatch.setattr(model_mod, "GATHER_CHUNK_BYTES", chunk_rows * m * d * 8)
        rng = np.random.default_rng(43)
        emb = EmbeddingTable(rng.normal(size=(n_users, d)), rng.normal(size=(4 * m, d)))
        users = rng.integers(0, n_users, size=b)
        pos = rng.integers(0, 4 * m, size=b)
        negs = rng.integers(0, 4 * m, size=(b, m))
        if loss == "bsl":
            users = np.sort(users)
            sizes = np.unique(users, return_counts=True)[1]
            fn = lambda batch: bsl_loss(batch, 0.4, 0.2, BslForm.CANONICAL,  # noqa: E731
                                        pos_group_sizes=sizes)
        else:
            fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.3))
        got = sampled_batch_grads(emb, users, pos, negs, fn)

        uu, u_inv = np.unique(users, return_inverse=True)
        ii, i_inv = np.unique(np.concatenate([pos, negs.ravel()]), return_inverse=True)
        uu_hat, uu_n, uu_s = model_mod._normalize_rows(emb.user_vecs[uu])
        ii_hat, ii_n, ii_s = model_mod._normalize_rows(emb.item_vecs[ii])
        u_hat, p_hat = uu_hat[u_inv], ii_hat[i_inv[:b]]
        j_hat = ii_hat[i_inv[b:].reshape(b, m)]
        res = fn(ScoreBatch(np.sum(u_hat * p_hat, axis=1),
                            np.einsum("bd,bmd->bm", u_hat, j_hat)))
        g_uhat = res.grad_pos[:, None] * p_hat + np.einsum("bm,bmd->bd", res.grad_neg, j_hat)
        g_items = np.concatenate([res.grad_pos[:, None] * u_hat,
                                  (res.grad_neg[:, :, None] * u_hat[:, None, :]).reshape(b * m, d)])
        user_grads = model_mod._normalize_backward(
            emb.user_vecs[uu], uu_n, uu_s, self.per_column_scatter(u_inv, g_uhat, uu.size))
        item_grads = model_mod._normalize_backward(
            emb.item_vecs[ii], ii_n, ii_s, self.per_column_scatter(i_inv, g_items, ii.size))
        assert got[0] == res.value
        assert np.array_equal(got[2], user_grads)
        assert np.array_equal(got[4], item_grads)

    def test_adam_single_gather_matches_double_gather(self):
        rng = np.random.default_rng(44)
        emb = EmbeddingTable(rng.normal(size=(5, 3)), rng.normal(size=(7, 3)))
        adam = AdamState.for_table(emb)
        rows = np.array([4, 0, 2])
        param, m, v = emb.item_vecs.copy(), adam.m_item.copy(), adam.v_item.copy()
        for step in range(1, 4):
            grads = rng.normal(size=(3, 3))
            adam.apply(emb, [], None, rows, grads, 0.01)
            b1, b2 = adam.beta1, adam.beta2
            m[rows] = b1 * m[rows] + (1.0 - b1) * grads
            v[rows] = b2 * v[rows] + (1.0 - b2) * grads * grads
            m_hat = m[rows] / (1.0 - b1 ** step)
            v_hat = v[rows] / (1.0 - b2 ** step)
            param[rows] -= 0.01 * m_hat / (np.sqrt(v_hat) + adam.eps)
            assert np.array_equal(emb.item_vecs, param)
            assert np.array_equal(adam.m_item, m) and np.array_equal(adam.v_item, v)

    @pytest.mark.parametrize("users, items, n_items", [
        pytest.param(np.random.default_rng(46).integers(0, 50, size=300),
                     np.random.default_rng(47).integers(0, 90, size=(300, 9)), 90, id="random"),
        pytest.param(np.array([3]), np.array([[5]]), 6, id="one-id"),
        pytest.param(np.full(40, 7), np.full((40, 3), 2), 10, id="all-equal"),
        pytest.param(np.array([0, 4, 4, 1]), np.array([[11, 0], [3, 3], [11, 11], [5, 0]]),
                     12, id="largest-id-last"),
    ])
    def test_unique_rows_matches_np_unique(self, users, items, n_items):
        pos, negs = items[:, 0], items[:, 1:]
        assert items.max() <= n_items - 1
        got = unique_rows(users, pos, negs)
        expected = (*np.unique(users, return_inverse=True),
                    *np.unique(np.concatenate([pos, negs.ravel()]), return_inverse=True))
        for a, b in zip(got, expected):
            assert np.array_equal(a, b) and a.dtype == b.dtype and a.shape == b.shape

    def test_unique_rows_rejects_a_negative_id(self):
        with pytest.raises(ValueError, match="non-negative"):
            unique_rows([0, -1], [0, 1], [[1], [2]])

    @staticmethod
    def dense_reference(emb, users, pos_items, neg_items, loss_fn):
        """``dense_batch_grads`` with np.unique and a fresh per-block bincount."""
        b, m = np.shape(neg_items)
        uniq_users, u_inv = np.unique(users, return_inverse=True)
        uniq_items, i_inv = np.unique(np.concatenate([pos_items, neg_items.ravel()]),
                                      return_inverse=True)
        n_items = uniq_items.size
        uu, ii = UnitRows.of(emb.user_vecs[uniq_users]), UnitRows.of(emb.item_vecs[uniq_items])
        keys = np.empty((b, m + 1), dtype=np.int64)
        keys[:, 0] = i_inv[:b]
        keys[:, 1:] = i_inv[b:].reshape(b, m)
        keys += (u_inv * n_items)[:, None]
        rows = model_mod.score_block_rows(n_items)
        scores = np.empty((b, m + 1))
        blocks = []
        for lo in range(0, uniq_users.size, rows):
            hi = min(lo + rows, uniq_users.size)
            ex = np.flatnonzero((u_inv >= lo) & (u_inv < hi))
            ex_keys = keys[ex] - lo * n_items
            scores[ex] = np.take(uu.hat[lo:hi] @ ii.hat.T, ex_keys)
            blocks.append((lo, hi, ex, ex_keys))
        res = loss_fn(ScoreBatch(scores[:, 0].copy(), scores[:, 1:].copy()))
        grads = np.column_stack([res.grad_pos, res.grad_neg])
        user_hat_grads = np.empty((uniq_users.size, emb.d))
        item_hat_grads = np.zeros((n_items, emb.d))
        for lo, hi, ex, ex_keys in blocks:
            g = np.bincount(ex_keys.ravel(), weights=grads[ex].ravel(),
                            minlength=(hi - lo) * n_items).reshape(hi - lo, n_items)
            user_hat_grads[lo:hi] = g @ ii.hat
            item_hat_grads += g.T @ uu.hat[lo:hi]
        return (res.value, uniq_users, uu.backward(user_hat_grads),
                uniq_items, ii.backward(item_hat_grads))

    # 10 users in blocks of 3, 3, 3 and a 1-row remainder; None keeps one block
    @pytest.mark.parametrize("block_rows, loss", [(3, "sl"), (3, "bsl"), (None, "sl")])
    def test_dense_grads_match_per_block_bincount(self, monkeypatch, block_rows, loss):
        rng = np.random.default_rng(48)
        b, m, d, n_users = 150, 5, 13, 10
        emb = EmbeddingTable(rng.normal(size=(n_users, d)), rng.normal(size=(4 * m, d)))
        users = np.concatenate([np.arange(n_users), rng.integers(0, n_users, b - n_users)])
        pos = rng.integers(0, 4 * m, size=b)
        negs = rng.integers(0, 4 * m, size=(b, m))
        negs[0, 1:] = negs[0, 0]  # repeated keys within one example
        if loss == "bsl":
            users = np.sort(users)
            sizes = np.unique(users, return_counts=True)[1]
            fn = lambda batch: bsl_loss(batch, 0.4, 0.2, BslForm.CANONICAL,  # noqa: E731
                                        pos_group_sizes=sizes)
        else:
            fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.3))
        if block_rows is not None:
            n_items = np.unique(np.concatenate([pos, negs.ravel()])).size
            monkeypatch.setattr(model_mod, "SCORE_BLOCK_BYTES", block_rows * 8 * n_items)
            assert model_mod.score_block_rows(n_items) == block_rows
        got = dense_batch_grads(emb, users, pos, negs, fn)
        expected = self.dense_reference(emb, users, pos, negs, fn)
        assert got[0] == expected[0]
        for k in range(1, 5):
            assert np.array_equal(got[k], expected[k])

    @pytest.mark.parametrize("l2_reg", [0.0, 1e-3])
    def test_adam_in_place_matches_allocating_formula(self, l2_reg):
        rng = np.random.default_rng(49)
        emb = EmbeddingTable(rng.normal(size=(6, 4)), rng.normal(size=(9, 4)))
        adam = AdamState.for_table(emb)
        ref = {"user": [emb.user_vecs.copy(), adam.m_user.copy(), adam.v_user.copy()],
               "item": [emb.item_vecs.copy(), adam.m_item.copy(), adam.v_item.copy()]}
        b1, b2, eps, lr = adam.beta1, adam.beta2, adam.eps, 0.01
        for step in range(1, 6):
            user_rows = rng.permutation(6)[:rng.integers(0, 4)]  # empty on some steps
            item_rows = rng.permutation(9)[:5]
            grads = {"user": rng.normal(size=(user_rows.size, 4)),
                     "item": rng.normal(size=(5, 4)) * 10.0 ** rng.integers(-6, 3, (5, 1))}
            applied = {}
            for side, rows, table in (("user", user_rows, emb.user_vecs),
                                      ("item", item_rows, emb.item_vecs)):
                g = grads[side]
                if l2_reg:  # as train adds it
                    g = g + l2_reg * table[rows]
                applied[side] = g
                param, m, v = ref[side]
                m_rows = b1 * m[rows] + (1.0 - b1) * g
                v_rows = b2 * v[rows] + (1.0 - b2) * g * g
                m[rows] = m_rows
                v[rows] = v_rows
                m_hat = m_rows / (1.0 - b1 ** step)
                v_hat = v_rows / (1.0 - b2 ** step)
                param[rows] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            adam.apply(emb, user_rows, applied["user"], item_rows, applied["item"], lr)
            assert adam.step == step
            for got, want in zip((emb.user_vecs, adam.m_user, adam.v_user,
                                  emb.item_vecs, adam.m_item, adam.v_item),
                                 (*ref["user"], *ref["item"])):
                assert np.array_equal(got, want)

    def test_grouped_negatives_match_per_user_scan(self):
        ds = planted_clusters(n_users=40, n_items=30, seed=3)
        users = np.random.default_rng(45).integers(0, 40, size=200)
        for mode_kwargs in ({}, {"r_noise": 0.5}):
            fast = SamplerState.create(seed=9, **mode_kwargs)
            slow = SamplerState.create(seed=9, **mode_kwargs)
            got = model_mod._gather_negatives(fast, ds, users, 4)
            expected = np.empty((users.size, 4), dtype=np.int64)
            for u in np.unique(users):
                idx = np.flatnonzero(users == u)
                expected[idx] = sample_negatives(slow, ds, int(u), idx.size * 4).reshape(-1, 4)
            assert np.array_equal(got, expected)


class TestDenseKernel:
    """The dense unique-rows kernel against the reference kernel, and the
    rule by which ``train`` picks one of them per batch."""

    # the reference test's shapes; block_rows=None keeps SCORE_BLOCK_BYTES,
    # one block here, and "blocks" cuts 10 users into blocks of 3, 3, 3, 1
    @pytest.mark.parametrize("b, m, d, n_users, block_rows, loss", [
        pytest.param(12, 5, 13, 6, None, "sl", id="base"),
        pytest.param(150, 64, 64, 40, None, "sl", id="3x64"),
        pytest.param(150, 5, 13, 40, None, "sl", id="d13"),
        pytest.param(150, 5, 13, 3, None, "sl", id="repeat"),
        pytest.param(150, 5, 13, 7, None, "bsl", id="bsl"),
        pytest.param(150, 5, 13, 7, 1, "sl", id="rows1"),
        pytest.param(150, 5, 13, 10, 3, "sl", id="blocks"),
        pytest.param(150, 5, 13, 10, 3, "bsl", id="bsl-blocks"),
    ])
    def test_matches_reference_kernel(self, monkeypatch, b, m, d, n_users,
                                      block_rows, loss):
        rng = np.random.default_rng(43)
        emb = EmbeddingTable(rng.normal(size=(n_users, d)), rng.normal(size=(4 * m, d)))
        users = rng.integers(0, n_users, size=b)
        pos = rng.integers(0, 4 * m, size=b)
        negs = rng.integers(0, 4 * m, size=(b, m))
        negs[0, 1:] = negs[0, 0]  # a row whose negatives repeat one id
        negs[1, 0] = pos[1]  # a negative that is the row's own positive
        if loss == "bsl":
            users = np.sort(users)
            sizes = np.unique(users, return_counts=True)[1]
            fn = lambda batch: bsl_loss(batch, 0.4, 0.2, BslForm.CANONICAL,  # noqa: E731
                                        pos_group_sizes=sizes)
        else:
            fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.3))
        unique = unique_rows(users, pos, negs)
        if block_rows is not None:
            monkeypatch.setattr(model_mod, "SCORE_BLOCK_BYTES",
                                block_rows * 8 * unique[2].size)
            assert model_mod.score_block_rows(unique[2].size) == block_rows
        if block_rows == 3:
            assert unique[0].size == 10

        ref = sampled_batch_grads(emb, users, pos, negs, fn)
        for got in (dense_batch_grads(emb, users, pos, negs, fn),
                    dense_batch_grads(emb, users, pos, negs, fn, unique=unique)):
            assert np.array_equal(got[1], ref[1]) and np.array_equal(got[3], ref[3])
            assert abs(got[0] - ref[0]) <= 1e-12 * abs(ref[0])
            for k in (2, 4):
                assert np.linalg.norm(got[k] - ref[k]) <= 1e-12 * np.linalg.norm(ref[k])

    def test_matches_reference_kernel_past_the_block_item_cap(self):
        # over 4096 unique items, the default budget gives 64-user blocks:
        # 150 users fall in blocks of 64, 64 and 22
        rng = np.random.default_rng(44)
        n_users, n_items, b, m, d = 150, 20000, 600, 16, 8
        emb = EmbeddingTable(rng.normal(size=(n_users, d)), rng.normal(size=(n_items, d)))
        users = np.concatenate([np.arange(n_users), rng.integers(0, n_users, b - n_users)])
        pos = rng.integers(0, n_items, size=b)
        negs = rng.integers(0, n_items, size=(b, m))
        unique = unique_rows(users, pos, negs)
        assert unique[0].size == n_users and unique[2].size > model_mod.SCORE_BLOCK_MAX_ITEMS
        assert model_mod.score_block_rows(unique[2].size) == 64
        fn = loss_fn_from_spec(LossSpec(kind=LossKind.SL, tau=0.3))
        ref = sampled_batch_grads(emb, users, pos, negs, fn)
        got = dense_batch_grads(emb, users, pos, negs, fn)
        assert np.array_equal(got[1], ref[1]) and np.array_equal(got[3], ref[3])
        assert abs(got[0] - ref[0]) <= 1e-12 * abs(ref[0])
        for k in (2, 4):
            assert np.linalg.norm(got[k] - ref[k]) <= 1e-12 * np.linalg.norm(ref[k])

    # sizes and sampler of the sl-narrow and bsl-pop-wide benchmark
    # workloads, of c10's training runs, and of a wide uniform catalog
    @pytest.mark.parametrize("n_users, n_items, per_user, sampler, d, dense", [
        pytest.param(1000, 1500, 30, NegSampler.UNIFORM, 64, True, id="sl-narrow"),
        pytest.param(500, 20000, 20, NegSampler.POPULARITY, 64, True, id="bsl-pop-wide"),
        pytest.param(200, 150, 24, NegSampler.UNIFORM, 16, True, id="c10"),
        pytest.param(500, 20000, 20, NegSampler.UNIFORM, 64, False, id="wide-uniform"),
    ])
    def test_rule_picks_the_kernel_by_batch_shape(self, n_users, n_items, per_user,
                                                  sampler, d, dense):
        ds = zipf_preferences(n_users=n_users, n_items=n_items,
                              interactions_per_user=per_user, seed=0)
        cfg = TrainConfig(embedding_dim=d, batch_size=1024, n_negatives=64,
                          neg_sampler=sampler, r_noise=0.1, rng_seed=0)
        pairs = ds.train_pairs()
        chunk = pairs[np.random.default_rng(0).permutation(pairs.shape[0])[:1024]]
        negs = model_mod._gather_negatives(SamplerState.for_config(ds, cfg, seed=1),
                                           ds, chunk[:, 0], 64)
        unique = unique_rows(chunk[:, 0], chunk[:, 1], negs)
        assert model_mod.prefers_dense(unique[0].size, unique[2].size, 1024, 64, d) is dense

    @pytest.mark.parametrize("spec, sampler", [
        (LossSpec(kind=LossKind.SL, tau=0.2), NegSampler.UNIFORM),
        (LossSpec(kind=LossKind.BSL, tau_pos=0.25, tau_neg=0.2,
                  bsl_form=BslForm.CANONICAL), NegSampler.POPULARITY),
    ], ids=["sl-uniform", "bsl-popularity"])
    def test_either_kernel_trains_the_same_table(self, monkeypatch, spec, sampler):
        ds = zipf_preferences(seed=0)
        cfg = TrainConfig(embedding_dim=16, learning_rate=1e-2, epochs=1, batch_size=256,
                          n_negatives=16, neg_sampler=sampler, rng_seed=4)
        used = set()

        def counting(name):
            kernel = getattr(model_mod, name)

            def wrapped(*args, **kwargs):
                used.add(name)
                return kernel(*args, **kwargs)
            return wrapped

        for name in ("dense_batch_grads", "sampled_batch_grads"):
            monkeypatch.setattr(model_mod, name, counting(name))
        tables = {}
        for name, ratio in (("dense_batch_grads", math.inf), ("sampled_batch_grads", 0.0)):
            used.clear()
            monkeypatch.setattr(model_mod, "DENSE_COST_RATIO", ratio)
            first, second = train(ds, cfg, spec)[0], train(ds, cfg, spec)[0]
            assert used == {name}
            assert np.array_equal(first.user_vecs, second.user_vecs)
            assert np.array_equal(first.item_vecs, second.item_vecs)
            tables[name] = first
        dense, gather = tables["dense_batch_grads"], tables["sampled_batch_grads"]
        assert np.max(np.abs(dense.user_vecs - gather.user_vecs)) <= 1e-9
        assert np.max(np.abs(dense.item_vecs - gather.item_vecs)) <= 1e-9


def test_train_rejects_unspent_pos_noise_ratio():
    from recdro.config import ConfigError
    from recdro.sampling import contaminate_positives, prepare_dataset

    ds = planted_clusters(30, 20, seed=0)
    cfg = TrainConfig(embedding_dim=4, epochs=1, batch_size=64, n_negatives=4,
                      pos_noise_ratio=0.4, rng_seed=3)
    spec = LossSpec(kind=LossKind.SL, tau=0.2)
    with pytest.raises(ConfigError, match="pos_noise_ratio"):
        train(ds, cfg, spec)
    ds_p, cfg_p = prepare_dataset(ds, cfg)
    assert cfg_p.pos_noise_ratio == 0.0
    assert ds_p.equals(contaminate_positives(ds, 0.4, cfg.rng_seed))
    train(ds_p, cfg_p, spec)


@pytest.mark.parametrize("r_noise", [0.0, 0.5])
def test_popularity_training_is_seed_deterministic(r_noise):
    ds = planted_clusters(n_users=30, n_items=20, seed=1)
    spec = LossSpec(kind=LossKind.BSL, tau_pos=0.25, tau_neg=0.2,
                    bsl_form=BslForm.CANONICAL)

    def run(seed):
        cfg = TrainConfig(embedding_dim=6, learning_rate=5e-3, epochs=3, batch_size=32,
                          n_negatives=4, rng_seed=seed, neg_sampler=NegSampler.POPULARITY,
                          r_noise=r_noise)
        return train(ds, cfg, spec)

    (a, log_a), (b, log_b), (c, _) = run(21), run(21), run(22)
    assert np.array_equal(a.user_vecs, b.user_vecs)
    assert np.array_equal(a.item_vecs, b.item_vecs)
    assert log_a == log_b
    assert not np.array_equal(a.item_vecs, c.item_vecs)


@pytest.mark.parametrize("d", [math.nan, math.inf, 0])
def test_init_embeddings_dimension_outside_its_range_is_a_config_error(d):
    with pytest.raises(ConfigError, match="^d must"):
        init_embeddings(3, 4, d, seed=0)


def test_checkpoint_with_foreign_adam_hyperparameters_is_refused(tmp_path):
    emb = init_embeddings(3, 4, 2, seed=0)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, emb, epoch=0, seed=0, adam=AdamState.for_table(emb))
    with np.load(path) as data:
        payload = dict(data)
    assert list(payload["adam_hyper"]) == [AdamState.beta1, AdamState.beta2, AdamState.eps]
    payload["adam_hyper"] = np.array([0.8, 0.999, 1e-8])
    np.savez(path, **payload)
    with pytest.raises(CheckpointError, match="Adam hyperparameters"):
        load_checkpoint(path)
