import importlib
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from recdro.config import (ConfigError, LossKind, LossSpec, SamplingMode, TrainConfig,
                           check_values, check_whole)
from recdro.data import Dataset, popularity_groups
from recdro.evaluate import (VARIANCE_SAMPLES_PER_USER, EvalReport, _top_k, evaluate,
                             grid_search_train, noise_sweep, rank_items, report_as_dict,
                             report_rows, selection_cutoff)
from recdro.model import (EmbeddingTable, _normalize_rows, score_all_items,
                          score_block_bounds)
from recdro.sampling import complement_ids, contaminate_positives
from recdro.synthetic import planted_clusters, random_interactions

# the package re-exports a function named evaluate over the module
evaluate_module = importlib.import_module("recdro.evaluate")
sampling_module = importlib.import_module("recdro.sampling")
model_module = importlib.import_module("recdro.model")


def brute_force_metrics(emb, ds, ks):
    """Naive per-user ranking evaluator used as the exactness oracle."""
    recall = {k: [] for k in ks}
    ndcg = {k: [] for k in ks}
    for u in range(ds.n_users):
        test = set(int(i) for i in ds.test_pos[u])
        if not test:
            continue
        scores = score_all_items(emb, u)
        train = set(int(i) for i in ds.train_pos[u])
        candidates = [i for i in range(ds.n_items) if i not in train]
        ranked = sorted(candidates, key=lambda i: (-scores[i], i))
        for k in ks:
            top = ranked[:k]
            hits = [r for r, i in enumerate(top) if i in test]
            recall[k].append(len(hits) / len(test))
            dcg = sum(1.0 / math.log2(r + 2) for r in hits)
            idcg = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(test))))
            ndcg[k].append(dcg / idcg)
    return ({k: float(np.mean(v)) for k, v in recall.items()},
            {k: float(np.mean(v)) for k, v in ndcg.items()})


def embedding_for(ds, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(rng.normal(size=(ds.n_users, d)),
                          rng.normal(size=(ds.n_items, d)))


class TestEvaluate:
    def test_perfect_single_item(self):
        # one test item sitting on top of the ranking
        ds = Dataset.from_positive_lists([[0]], [[1]], n_items=5)
        emb = EmbeddingTable(np.array([[1.0, 0.0]]),
                             np.array([[0.9, 0.1], [1.0, 0.0], [0.0, 1.0],
                                       [-1.0, 0.0], [0.1, -0.9]]))
        report = evaluate(emb, ds, [20], n_groups=1)
        assert report.recall[20] == 1.0
        assert report.ndcg[20] == 1.0

    def test_second_rank_discount(self):
        ds = Dataset.from_positive_lists([[]], [[1]], n_items=3)
        emb = EmbeddingTable(np.array([[1.0, 0.0]]),
                             np.array([[1.0, 0.0], [0.8, 0.2], [0.0, 1.0]]))
        report = evaluate(emb, ds, [20], n_groups=1)
        assert report.ndcg[20] == pytest.approx(1.0 / math.log2(3), abs=1e-12)
        assert report.recall[20] == 1.0

    def test_matches_brute_force_exactly(self):
        for seed in range(4):
            ds = random_interactions(np.random.default_rng(seed).integers(5, 21),
                                     50, per_user=9, seed=seed, test_fraction=0.4)
            emb = embedding_for(ds, seed=seed)
            ks = [1, 5, 20]
            report = evaluate(emb, ds, ks, n_groups=10)
            recall, ndcg = brute_force_metrics(emb, ds, ks)
            for k in ks:
                assert report.recall[k] == recall[k]
                assert report.ndcg[k] == ndcg[k]

    def test_monotone_in_k(self):
        ds = random_interactions(15, 40, per_user=8, seed=3, test_fraction=0.4)
        emb = embedding_for(ds, seed=3)
        report = evaluate(emb, ds, [1, 3, 5, 10, 20, 40], n_groups=5)
        ks = sorted(report.recall)
        assert all(report.recall[a] <= report.recall[b] + 1e-12
                   for a, b in zip(ks, ks[1:]))
        assert all(report.ndcg[a] <= report.ndcg[b] + 1e-12
                   for a, b in zip(ks, ks[1:]))

    def test_group_decomposition_sums_to_total(self):
        ds = random_interactions(20, 50, per_user=10, seed=4, test_fraction=0.4)
        emb = embedding_for(ds, seed=4)
        report = evaluate(emb, ds, [20], n_groups=10)
        assert report.group_ndcg.sum() == pytest.approx(report.ndcg[20], abs=1e-9)
        assert (report.group_ndcg >= 0).all()

    def test_single_group_equals_total(self):
        ds = random_interactions(12, 30, per_user=6, seed=5, test_fraction=0.4)
        emb = embedding_for(ds, seed=5)
        report = evaluate(emb, ds, [20], n_groups=1)
        assert report.group_ndcg.shape == (1,)
        assert report.group_ndcg[0] == pytest.approx(report.ndcg[20], abs=1e-12)

    def test_no_test_users_is_error(self):
        ds = Dataset.from_positive_lists([[0, 1]], [[]], n_items=4)
        emb = embedding_for(ds)
        with pytest.raises(ValueError, match="no user has test items"):
            evaluate(emb, ds, [20], n_groups=2)

    def test_excludes_users_without_test_items(self):
        ds = Dataset.from_positive_lists([[0], [1]], [[2], []], n_items=4)
        emb = embedding_for(ds, seed=6)
        report = evaluate(emb, ds, [2], n_groups=2)
        assert report.n_eval_users == 1

    def test_report_serialization_shapes(self):
        ds = random_interactions(10, 25, per_user=5, seed=7, test_fraction=0.4)
        emb = embedding_for(ds, seed=7)
        report = evaluate(emb, ds, [5, 20], n_groups=4)
        as_dict = report_as_dict(report)
        assert set(as_dict["recall"]) == {"5", "20"}
        assert len(as_dict["group_ndcg"]) == 4
        rows = report_rows(report)
        metrics = [r[0] for r in rows]
        assert metrics.count("recall") == 2
        assert metrics.count("ndcg") == 2
        assert metrics.count("group_ndcg") == 4


class TestRankItems:
    def test_ties_break_by_item_id(self):
        order = rank_items(np.array([0.5, 0.9, 0.5, 0.1]))
        assert order.tolist() == [1, 0, 2, 3]

    def test_excluded_items_sink(self):
        order = rank_items(np.array([0.9, 0.8, 0.7]), exclude_items=[0])
        assert order.tolist() == [1, 2, 0]

    def test_invariant_to_strictly_increasing_transforms(self):
        rng = np.random.default_rng(8)
        scores = rng.uniform(-1, 1, 30)
        base = rank_items(scores, exclude_items=[3, 7])
        for transform in (lambda s: 2 * s + 1, np.tanh,
                          lambda s: s ** 3 + 0.5 * s):
            assert np.array_equal(base, rank_items(transform(scores),
                                                   exclude_items=[3, 7]))


class TestTopKBitIdentical:
    """The partitioned top-k against the full stable ranking, exactly."""

    @staticmethod
    def check(scores, exclude, k):
        expected = rank_items(scores, exclude_items=exclude)[:k]
        got = evaluate_module._top_k(scores, exclude, k)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k", [1, 3, 5, 8, 11, 12, 40])
    def test_ties_signed_zeros_and_exclusions(self, k):
        scores = np.array([0.5, -0.0, 0.5, 0.0, 0.9, 0.5, -0.0, 0.9, 0.1, 0.0, 0.5, -1.0])
        for exclude in ([], [4], [0, 3, 7], [1, 2, 4, 5, 6, 8, 9, 10, 11]):
            self.check(scores, np.array(exclude, dtype=np.int64), k)

    def test_k_reaches_into_the_excluded_tail(self):
        scores = np.array([0.3, 0.3, 0.1, 0.3])
        # three of four items excluded; the -inf tail keeps id order
        self.check(scores, np.array([0, 1, 3]), 3)
        self.check(scores, np.array([0, 1, 2, 3]), 4)
        self.check(scores, np.array([0, 1, 2, 3]), 9)

    def test_random_catalogs_with_coarse_scores(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            scores = rng.integers(-3, 4, size=n) / 2.0  # many exact ties
            scores[rng.random(n) < 0.2] *= -1.0
            exclude = np.flatnonzero(rng.random(n) < 0.3)
            self.check(scores, exclude, int(rng.integers(1, n + 5)))

    def test_nan_scores_rank_last(self):
        scores = np.array([0.2, np.nan, 0.7, np.nan, 0.2])
        for k in range(1, 7):
            self.check(scores, np.array([2]), k)

    def test_evaluate_scores_match_score_all_items(self, monkeypatch):
        ds = random_interactions(30, 45, per_user=6, seed=13, test_fraction=0.3)
        emb = embedding_for(ds, d=13, seed=13)
        seen = []
        real = evaluate_module._top_k
        monkeypatch.setattr(evaluate_module, "_top_k",
                            lambda scores, exclude, k: seen.append(scores) or real(scores, exclude, k))
        evaluate(emb, ds, [5, 20], n_groups=3)
        eval_users = [u for u in range(ds.n_users) if ds.test_pos[u].size]
        assert len(seen) == len(eval_users)
        for u, scores in zip(eval_users, seen):
            assert np.array_equal(scores, score_all_items(emb, u))


class TestScorePartition:
    """evaluate scores users in GEMM blocks of a fixed partition, exactly."""

    N_USERS, N_ITEMS = 23, 300
    # at 4 rows a block, block 2 (users 8-11) holds no user with test items
    NO_TEST = range(8, 12)

    def fixture(self):
        base = random_interactions(self.N_USERS, self.N_ITEMS, per_user=9, seed=21,
                                   test_fraction=0.4)
        test = [[] if u in self.NO_TEST else t for u, t in enumerate(base.test_pos)]
        ds = Dataset.from_positive_lists(base.train_pos, test, n_items=self.N_ITEMS)
        assert [u for u in range(ds.n_users) if not ds.test_pos[u].size] == list(self.NO_TEST)
        return ds, embedding_for(ds, d=16, seed=21)

    @staticmethod
    def set_rows(monkeypatch, rows, n_items):
        monkeypatch.setattr(model_module, "SCORE_BLOCK_BYTES", rows * 8 * n_items)

    @staticmethod
    def old_variance(emb, ds):
        """The variance draw as a mask of candidates and choice() over them."""
        rng = np.random.default_rng(0)
        pooled = []
        for u in range(ds.n_users):
            if not ds.test_pos[u].size:
                continue
            candidate = np.ones(ds.n_items, dtype=bool)
            candidate[ds.train_pos[u]] = False
            pool = np.flatnonzero(candidate)
            take = min(evaluate_module.VARIANCE_SAMPLES_PER_USER, pool.size)
            if take:
                sampled = rng.choice(pool, size=take, replace=False)
                pooled.append(score_all_items(emb, u)[sampled])
        return float(np.var(np.concatenate(pooled)))

    @pytest.mark.parametrize("rows", [1, 4, 7, 23, 64])
    def test_blocks_are_fixed_by_the_table_shape(self, monkeypatch, rows):
        self.set_rows(monkeypatch, rows, self.N_ITEMS)
        bounds = [score_block_bounds(u, self.N_USERS, self.N_ITEMS)
                  for u in range(self.N_USERS)]
        starts = sorted({lo for lo, _ in bounds})
        assert starts == list(range(0, self.N_USERS, rows))
        for u, (lo, hi) in enumerate(bounds):
            assert lo <= u < hi == min(lo + rows, self.N_USERS)

    def test_byte_budget_below_one_row_gives_one_row_blocks(self, monkeypatch):
        monkeypatch.setattr(model_module, "SCORE_BLOCK_BYTES", 1)
        assert [score_block_bounds(u, 5, 300) for u in range(5)] == [
            (u, u + 1) for u in range(5)]

    @pytest.mark.parametrize("rows", [1, 4, 7, 23, 64])
    def test_ranked_scores_are_rows_of_the_block_gemm(self, monkeypatch, rows):
        ds, emb = self.fixture()
        self.set_rows(monkeypatch, rows, ds.n_items)
        seen = []
        real = evaluate_module._top_k
        monkeypatch.setattr(evaluate_module, "_top_k",
                            lambda scores, exclude, k: seen.append(scores.copy())
                            or real(scores, exclude, k))
        evaluate(emb, ds, [5, 20], n_groups=3)
        eval_users = [u for u in range(ds.n_users) if ds.test_pos[u].size]
        assert len(seen) == len(eval_users)
        u_hat, _, _ = _normalize_rows(emb.user_vecs)
        i_hat, _, _ = _normalize_rows(emb.item_vecs)
        for u, scores in zip(eval_users, seen):
            lo, hi = score_block_bounds(u, ds.n_users, ds.n_items)
            assert np.array_equal(scores, score_all_items(emb, u))
            assert np.array_equal(scores, (u_hat[lo:hi] @ i_hat.T)[u - lo])

    def test_wide_catalog_blocks_hold_64_users(self, monkeypatch):
        # past SCORE_BLOCK_MAX_ITEMS items the default budget still gives
        # 64-user blocks: 150 users fall in blocks of 64, 64 and 22
        n_users, n_items = 150, 5000
        ds = random_interactions(n_users, n_items, per_user=10, seed=25, test_fraction=0.4)
        emb = embedding_for(ds, d=8, seed=25)
        # one test item per user sits next to that user, so hits occur
        for u in range(n_users):
            if ds.test_pos[u].size:
                emb.item_vecs[ds.test_pos[u][0]] = emb.user_vecs[u] + 1e-3
        assert [score_block_bounds(u, n_users, n_items)[0] for u in (63, 64, 128, 149)] == [
            0, 64, 128, 128]
        seen = []
        real = evaluate_module._top_k
        monkeypatch.setattr(evaluate_module, "_top_k",
                            lambda scores, exclude, k: seen.append(scores.copy())
                            or real(scores, exclude, k))
        ks = [1, 5, 20]
        report = evaluate(emb, ds, ks, n_groups=4)
        eval_users = [u for u in range(n_users) if ds.test_pos[u].size]
        assert len(seen) == len(eval_users)
        for u, scores in zip(eval_users, seen):
            assert np.array_equal(scores, score_all_items(emb, u))
        recall, ndcg = brute_force_metrics(emb, ds, ks)
        assert report.recall == recall
        assert report.ndcg == ndcg
        assert report.recall[1] > 0

    @pytest.mark.parametrize("rows", [1, 4, 7, 23])
    def test_metrics_and_variance_match_the_oracles(self, monkeypatch, rows):
        ds, emb = self.fixture()
        self.set_rows(monkeypatch, rows, ds.n_items)
        ks = [1, 5, 20]
        report = evaluate(emb, ds, ks, n_groups=4)
        recall, ndcg = brute_force_metrics(emb, ds, ks)
        assert report.recall == recall
        assert report.ndcg == ndcg
        assert report.neg_score_variance == self.old_variance(emb, ds)

    def test_rank_mapped_draw_equals_choice_over_the_candidates(self):
        rng = np.random.default_rng(22)
        for trial in range(300):
            n_items = int(rng.integers(1, 400))
            n_pos = int(rng.integers(0, n_items))
            pos = np.sort(rng.choice(n_items, size=n_pos, replace=False))
            if trial % 3 == 0:  # hold the first and the last item
                pos = np.union1d(pos, [0, n_items - 1])
            pool = np.setdiff1d(np.arange(n_items), pos)
            take = min(evaluate_module.VARIANCE_SAMPLES_PER_USER, pool.size)
            if not take:
                continue
            old = np.random.default_rng(trial).choice(pool, size=take, replace=False)
            ranks = np.random.default_rng(trial).choice(pool.size, size=take, replace=False)
            assert np.array_equal(complement_ids(pos, ranks), old)

    def test_table_rows_past_the_catalog_are_not_candidates(self):
        ds = random_interactions(12, 45, per_user=8, seed=23, test_fraction=0.4)
        rng = np.random.default_rng(23)
        d = 6
        # users near e0, two extra items on e0: they top every user's ranking
        users = np.zeros((ds.n_users + 3, d))
        users[:, 0] = 1.0
        users += 0.01 * rng.normal(size=users.shape)
        extra = np.zeros((2, d))
        extra[:, 0] = [1.0, 2.0]
        emb = EmbeddingTable(users, np.vstack([rng.normal(size=(ds.n_items, d)), extra]))
        for u in range(ds.n_users):
            scores = score_all_items(emb, u)
            assert scores[ds.n_items:].min() > scores[:ds.n_items].max()
        ks = [1, 5, 20]
        report = evaluate(emb, ds, ks, n_groups=4)
        recall, ndcg = brute_force_metrics(emb, ds, ks)
        assert report.recall == recall
        assert report.ndcg == ndcg
        assert report.recall[1] > 0

    @pytest.mark.parametrize("users, items", [(-1, 0), (0, -1), (-1, -1)])
    def test_table_smaller_than_the_dataset_is_error(self, users, items):
        ds = random_interactions(12, 45, per_user=8, seed=24, test_fraction=0.4)
        rng = np.random.default_rng(24)
        emb = EmbeddingTable(rng.normal(size=(ds.n_users + users, 4)),
                             rng.normal(size=(ds.n_items + items, 4)))
        message = (f"{ds.n_users + users} users x {ds.n_items + items} items .* "
                   f"{ds.n_users} x {ds.n_items}")
        with pytest.raises(ValueError, match=message):
            evaluate(emb, ds, [20], n_groups=2)


def per_user_evaluate(emb, ds, ks, n_groups=10):
    """The per-user evaluation loop that :func:`evaluate` batches, kept as its
    exactness oracle: every step, metric bookkeeping and variance gather
    included, runs one evaluated user at a time."""
    ks = sorted(check_whole("ks", k) for k in check_values("ks", ks, 1))
    kmax = ks[-1]
    group_cutoff = selection_cutoff(ks)
    n_groups = min(check_whole("n_groups", n_groups), ds.n_items)
    groups = popularity_groups(ds, n_groups)
    eval_users = [u for u in range(ds.n_users) if ds.test_pos[u].size]

    rng = np.random.default_rng(0)
    discounts = 1.0 / np.log2(np.arange(2, kmax + 2))
    max_test = max(ds.test_pos[u].size for u in eval_users)
    idcg = [discounts[:n].sum() for n in range(min(kmax, max_test) + 1)]
    recall_acc = {k: [] for k in ks}
    ndcg_acc = {k: [] for k in ks}
    group_acc = np.zeros(n_groups)
    u_hat, _, _ = _normalize_rows(emb.user_vecs)
    i_hat, _, _ = _normalize_rows(emb.item_vecs)
    pooled = []
    block_lo = -1
    for u in eval_users:
        lo, hi = score_block_bounds(u, emb.n_users, emb.n_items)
        if lo != block_lo:
            block_lo, block = lo, (u_hat[lo:hi] @ i_hat.T)[:, :ds.n_items]
        scores = block[u - lo]
        train_items, test_items = ds.train_pos[u], ds.test_pos[u]
        topk = _top_k(scores, train_items, kmax)
        n_test = test_items.size
        at = np.searchsorted(test_items, topk)
        hit_ranks = np.flatnonzero(test_items[np.minimum(at, n_test - 1)] == topk)
        for k in ks:
            h = hit_ranks.searchsorted(k)
            recall_acc[k].append(h / n_test)
            ndcg_acc[k].append(float(discounts[hit_ranks[:h]].sum()) / idcg[min(k, n_test)])
        idcg_g = idcg[min(group_cutoff, n_test)]
        for r in hit_ranks[:hit_ranks.searchsorted(group_cutoff)]:
            group_acc[groups[topk[r]]] += discounts[r] / idcg_g
        n_neg = ds.n_items - train_items.size
        take = min(VARIANCE_SAMPLES_PER_USER, n_neg)
        if take:
            ranks = rng.choice(n_neg, size=take, replace=False)
            pooled.append(scores[complement_ids(train_items, ranks)])

    pooled = np.concatenate([np.empty(0), *pooled])
    return EvalReport(
        recall={k: float(np.mean(recall_acc[k])) for k in ks},
        ndcg={k: float(np.mean(ndcg_acc[k])) for k in ks},
        group_ndcg=group_acc / len(eval_users),
        group_cutoff=group_cutoff,
        neg_score_variance=float(np.var(pooled)) if pooled.size else float("nan"),
        n_eval_users=len(eval_users),
    )


def assert_same_report(got, expected):
    """Every field of two reports, floats compared bit for bit."""
    def bits(values):
        return np.asarray(values, dtype=np.float64).tobytes()

    assert list(got.recall) == list(expected.recall)
    assert list(got.ndcg) == list(expected.ndcg)
    assert bits(list(got.recall.values())) == bits(list(expected.recall.values()))
    assert bits(list(got.ndcg.values())) == bits(list(expected.ndcg.values()))
    assert got.group_ndcg.shape == expected.group_ndcg.shape
    assert bits(got.group_ndcg) == bits(expected.group_ndcg)
    assert got.group_cutoff == expected.group_cutoff
    assert bits(got.neg_score_variance) == bits(expected.neg_score_variance)
    assert got.n_eval_users == expected.n_eval_users


class TestBatchedMetricsMatchThePerUserLoop:
    """evaluate's batched metrics and variance gather against the per-user
    loop, every field bit for bit."""

    N_USERS = 23

    def fixture(self, n_items, wide_table=False):
        rng = np.random.default_rng(n_items)
        train, test = [], []
        for u in range(self.N_USERS):
            items = rng.permutation(n_items)
            if u in (8, 9, 10, 11):  # at 4 rows a block, block 2 has no test user
                n_train, n_test = int(rng.integers(0, n_items // 2)), 0
            elif u == 12:  # every item in training: no test, no negatives
                n_train, n_test = n_items, 0
            elif u == 13:  # a single non-training item, its test item
                n_train, n_test = n_items - 1, 1
            elif u == 14:  # fewer than 100 non-training items, most of them test
                n_train = n_items - min(n_items, 40)
                n_test = min(n_items, 40) - 3
            else:
                n_test = int(rng.integers(1, max(2, min(n_items // 3, 30))))
                n_train = int(rng.integers(0, n_items - n_test))
            train.append(items[:n_train])
            test.append(items[n_train:n_train + n_test])
        ds = Dataset.from_positive_lists(train, test, n_items=n_items)
        d = 8
        users = rng.normal(size=(self.N_USERS, d))
        items = rng.normal(size=(n_items + (5 if wide_table else 0), d))
        # users 0 and 14 sit on their test items: many hits at the top
        for u in (0, 14):
            items[ds.test_pos[u]] = users[u] + 1e-3 * rng.normal(size=(ds.test_pos[u].size, d))
        # coarse item rows: exact score ties across items
        items[: n_items // 4] = np.round(items[: n_items // 4])
        return ds, EmbeddingTable(users, items)

    @pytest.mark.parametrize("rows", [1, 4, 7, 23])
    @pytest.mark.parametrize("ks", [[1, 5, 20], [10, 20]])
    @pytest.mark.parametrize("n_items, wide_table", [(300, False), (300, True),
                                                      (60, False), (15, False)])
    def test_every_field_is_bit_identical(self, monkeypatch, rows, ks, n_items, wide_table):
        ds, emb = self.fixture(n_items, wide_table)
        monkeypatch.setattr(model_module, "SCORE_BLOCK_BYTES", rows * 8 * emb.n_items)
        if n_items >= 60:
            hits = [np.isin(_top_k(score_all_items(emb, u)[:ds.n_items], ds.train_pos[u], 20),
                            ds.test_pos[u]).sum() for u in (0, 14)]
            assert min(hits) >= 8
        assert_same_report(evaluate(emb, ds, ks, n_groups=4),
                           per_user_evaluate(emb, ds, ks, n_groups=4))

    def test_random_splits(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n_items = int(rng.integers(2, 120))
            ds = random_interactions(int(rng.integers(1, 40)), n_items,
                                     per_user=int(rng.integers(1, n_items + 1)),
                                     seed=seed, test_fraction=0.4)
            if not any(t.size for t in ds.test_pos):
                continue
            emb = embedding_for(ds, d=4, seed=seed)
            ks = sorted({int(k) for k in rng.integers(1, 45, size=3)})
            assert_same_report(evaluate(emb, ds, ks, n_groups=3),
                               per_user_evaluate(emb, ds, ks, n_groups=3))


class TestNoiseSweep:
    def fixture(self):
        return planted_clusters(n_users=60, n_items=40, seed=9)

    def cfg(self):
        return TrainConfig(embedding_dim=8, learning_rate=1e-2, epochs=15,
                           batch_size=512, n_negatives=16, rng_seed=10)

    def test_single_level_is_plain_grid_search(self):
        ds = self.fixture()
        spec = LossSpec(kind=LossKind.SL, tau=0.2)
        rows = noise_sweep(ds, self.cfg(), spec, [0.0], tau_grid=(0.1, 0.2))
        assert len(rows) == 1
        assert rows[0].r_noise == 0.0
        assert rows[0].best_tau in (0.1, 0.2)
        grid = grid_search_train(ds, self.cfg(), spec, tau_grid=(0.1, 0.2))
        assert rows[0].ndcg == grid.report.ndcg[20]
        assert math.isfinite(rows[0].eta_mean) and rows[0].eta_mean >= 0

    def test_noise_hurts_metrics_and_inflates_radius(self):
        ds = planted_clusters(n_users=200, n_items=160, n_user_clusters=4,
                              n_item_clusters=4, p_in=0.25, p_out=0.005, seed=9)
        spec = LossSpec(kind=LossKind.SL, tau=0.2)
        cfg = TrainConfig(embedding_dim=16, learning_rate=1e-2, epochs=40,
                          batch_size=1024, n_negatives=64, rng_seed=9, l2_reg=1e-6)
        rows = noise_sweep(ds, cfg, spec, [0.0, 3.0], tau_grid=(0.2,))
        assert rows[0].ndcg > rows[1].ndcg
        # noisier negatives carry more score spread, so the implied radius grows
        assert rows[1].eta_mean > rows[0].eta_mean

    def test_temperature_free_loss_has_nan_radius(self):
        ds = self.fixture()
        rows = noise_sweep(ds, self.cfg(), LossSpec(kind=LossKind.BPR), [0.0])
        assert len(rows) == 1
        assert math.isnan(rows[0].best_tau)
        assert math.isnan(rows[0].eta_mean)

    def test_catalog_smaller_than_ten_items(self):
        ds = planted_clusters(n_users=30, n_items=6, p_in=0.6, seed=4)
        assert ds.n_items < 10
        rows = noise_sweep(ds, self.cfg(), LossSpec(kind=LossKind.SL, tau=0.2),
                           [0.0, 1.0], tau_grid=(0.2,))
        assert [row.r_noise for row in rows] == [0.0, 1.0]
        assert all(math.isfinite(row.ndcg) for row in rows)

    def test_negative_levels_rejected(self):
        with pytest.raises(ValueError):
            noise_sweep(self.fixture(), self.cfg(),
                        LossSpec(kind=LossKind.SL), [-0.5])

    @pytest.mark.parametrize("level", [math.inf, math.nan])
    def test_non_finite_levels_rejected_before_training(self, monkeypatch, level):
        trained = []
        monkeypatch.setattr(evaluate_module, "train",
                            lambda *args, **kwargs: trained.append(args))
        with pytest.raises(ConfigError, match="finite"):
            noise_sweep(self.fixture(), self.cfg(), LossSpec(kind=LossKind.SL),
                        [0.0, level])
        assert trained == []

    def test_config_pos_noise_ratio_contaminates_the_split(self):
        ds = self.fixture()
        spec = LossSpec(kind=LossKind.SL, tau=0.2)
        noisy_cfg = replace(self.cfg(), pos_noise_ratio=0.4)
        rows = noise_sweep(ds, noisy_cfg, spec, [0.0], tau_grid=(0.2,))
        noisy_ds = contaminate_positives(ds, 0.4, noisy_cfg.rng_seed)
        expected = noise_sweep(noisy_ds, self.cfg(), spec, [0.0], tau_grid=(0.2,))
        clean = noise_sweep(ds, self.cfg(), spec, [0.0], tau_grid=(0.2,))
        assert rows == expected
        assert rows != clean


class TestGroupCountClamp:
    """``evaluate`` clamps ``n_groups`` to the catalog; its callers do not."""

    def fixture(self):
        ds = planted_clusters(n_users=30, n_items=6, p_in=0.6, seed=4)
        assert ds.n_items == 6
        return ds

    def test_evaluate_default_groups_on_a_small_catalog(self):
        ds = self.fixture()
        emb = embedding_for(ds, seed=3)
        report = evaluate(emb, ds, [5, 20])
        assert report.group_ndcg.shape == (6,)
        assert report_as_dict(report) == report_as_dict(evaluate(emb, ds, [5, 20], n_groups=6))

    def test_grid_search_default_groups_on_a_small_catalog(self):
        ds = self.fixture()
        cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=2,
                          batch_size=64, n_negatives=3, rng_seed=2)
        spec = LossSpec(kind=LossKind.SL, tau=0.2)
        result = grid_search_train(ds, cfg, spec, tau_grid=(0.2,))
        explicit = grid_search_train(ds, cfg, spec, tau_grid=(0.2,), n_groups=6)
        assert report_as_dict(result.report) == report_as_dict(explicit.report)
        assert result.report.group_ndcg.shape == (6,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 1e-9, 0.0, -1.0])
def test_noise_sweep_tau_grid_checked_before_training(monkeypatch, bad):
    trained = []
    monkeypatch.setattr(evaluate_module, "train",
                        lambda *args, **kwargs: trained.append(args))
    ds = planted_clusters(n_users=20, n_items=15, seed=1)
    with pytest.raises(ConfigError, match="tau_grid"):
        noise_sweep(ds, TrainConfig(epochs=1, embedding_dim=4), LossSpec(kind=LossKind.SL),
                    [0.0, 0.5], tau_grid=(0.1, bad))
    assert trained == []


def test_empty_tau_grid_is_rejected_before_training(monkeypatch):
    trained = []
    monkeypatch.setattr(evaluate_module, "train",
                        lambda *args, **kwargs: trained.append(args))
    ds = planted_clusters(n_users=20, n_items=15, seed=1)
    cfg, spec = TrainConfig(epochs=1, embedding_dim=4), LossSpec(kind=LossKind.SL)
    with pytest.raises(ConfigError, match="tau_grid must be nonempty"):
        grid_search_train(ds, cfg, spec, tau_grid=())
    with pytest.raises(ConfigError, match="tau_grid must be nonempty"):
        noise_sweep(ds, cfg, spec, [0.0], tau_grid=())
    assert trained == []


def test_cutoffs_must_be_whole_numbers():
    ds = planted_clusters(n_users=30, n_items=20, seed=2)
    emb = embedding_for(ds, seed=1)
    with pytest.raises(ConfigError, match="ks"):
        evaluate(emb, ds, [2.7])
    with pytest.raises(ConfigError, match="ks"):
        evaluate(emb, ds, [5, 2.5])
    expected = report_as_dict(evaluate(emb, ds, [5]))
    assert report_as_dict(evaluate(emb, ds, [np.int64(5)])) == expected
    assert report_as_dict(evaluate(emb, ds, [5.0])) == expected


@pytest.mark.parametrize("cfg_negatives, axes", [
    (0, dict(r_values=[0.0])),
    (8, dict(n_negatives_values=[0])),
], ids=["config", "axis"])
def test_in_batch_sweep_without_negatives_fails_before_training(monkeypatch, cfg_negatives,
                                                                 axes):
    # the radius estimates draw cfg.n_negatives negatives in every sampling mode
    trained = []
    monkeypatch.setattr(evaluate_module, "train",
                        lambda *args, **kwargs: trained.append(args))
    ds = planted_clusters(n_users=20, n_items=15, seed=1)
    cfg = TrainConfig(epochs=1, embedding_dim=4, batch_size=8, n_negatives=cfg_negatives,
                      sampling_mode=SamplingMode.IN_BATCH)
    with pytest.raises(ConfigError, match="^n_negatives must"):
        noise_sweep(ds, cfg, LossSpec(kind=LossKind.SL), tau_grid=(0.1, 0.2), **axes)
    assert trained == []


def counting_train(monkeypatch):
    """Spy on the ``train`` the sweeps call; returns the list of its calls."""
    calls = []
    real_train = evaluate_module.train

    def spy(*args, **kwargs):
        calls.append(args)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(evaluate_module, "train", spy)
    return calls


@pytest.mark.parametrize("mode, axes, n_trained", [
    (SamplingMode.IN_BATCH, dict(r_values=[0.0, 0.5], n_negatives_values=[4, 8]), 2),
    (SamplingMode.IN_BATCH, dict(pos_noise_values=[0.0, 0.2], r_values=[0.0, 0.5]), 4),
    (SamplingMode.NEGATIVE_SAMPLING, dict(r_values=[0.0, 0.0], n_negatives_values=[4, 8]),
     4),
], ids=["in-batch", "in-batch-pos-noise", "negative-sampling-equal-cells"])
def test_sweep_trains_each_distinct_grid_once(monkeypatch, mode, axes, n_trained):
    ds = planted_clusters(n_users=40, n_items=30, seed=3)
    cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=2, batch_size=16,
                      n_negatives=4, sampling_mode=mode, rng_seed=5)
    spec = LossSpec(kind=LossKind.SL, tau=0.2)
    trained = counting_train(monkeypatch)
    rows = noise_sweep(ds, cfg, spec, tau_grid=(0.1, 0.2), **axes)
    assert len(trained) == n_trained
    for row in rows:
        own = {"r_values": [row.r_noise], "n_negatives_values": [row.n_negatives],
               "pos_noise_values": [row.pos_noise_ratio]}
        one_cell = noise_sweep(ds, cfg, spec, tau_grid=(0.1, 0.2),
                               **{axis: own[axis] for axis in axes})
        assert one_cell == [row]


@pytest.mark.parametrize("mode", [SamplingMode.NEGATIVE_SAMPLING, SamplingMode.IN_BATCH])
def test_sweep_contaminates_each_pos_noise_level_once(monkeypatch, mode):
    calls = []
    real_contaminate = sampling_module.contaminate_positives

    def spy(ds, ratio, seed):
        calls.append(ratio)
        return real_contaminate(ds, ratio, seed)

    monkeypatch.setattr(sampling_module, "contaminate_positives", spy)
    ds = planted_clusters(n_users=40, n_items=30, seed=3)
    cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=2, batch_size=16,
                      n_negatives=4, sampling_mode=mode, rng_seed=5)
    spec = LossSpec(kind=LossKind.SL, tau=0.2)
    axes = dict(pos_noise_values=[0.0, 0.2, 0.4], r_values=[0.0, 0.5, 1.0])
    rows = noise_sweep(ds, cfg, spec, tau_grid=(0.2,), **axes)
    assert calls == [0.2, 0.4]
    for row in rows:
        one_cell = noise_sweep(ds, cfg, spec, tau_grid=(0.2,), r_values=[row.r_noise],
                               pos_noise_values=[row.pos_noise_ratio])
        assert one_cell == [row]


def test_sweep_radius_skips_a_user_who_holds_every_item():
    """User 0 has no negative to sample; the radius is read over the users
    with both positives and negatives, as ``recdro dro-diagnose`` picks them."""
    ds = Dataset.from_positive_lists([[0, 1, 2, 3, 4, 5], [0, 1], [2, 3], [4], [1, 5]],
                                     [[], [2], [0], [1], [3]], n_items=6)
    cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=2, batch_size=4,
                      n_negatives=2, sampling_mode=SamplingMode.IN_BATCH, rng_seed=5)
    spec = LossSpec(kind=LossKind.SL, tau=0.2)
    (row,) = noise_sweep(ds, cfg, spec, r_values=[0.0], tau_grid=(0.2,))
    assert math.isfinite(row.eta_mean) and math.isfinite(row.eta_median)
    emb = grid_search_train(ds, cfg, spec, tau_grid=(0.2,)).emb
    etas = evaluate_module.negative_radius_estimates(emb, ds, cfg, 0.2)
    assert etas.size == 4 and (row.eta_mean, row.eta_median) == (etas.mean(), np.median(etas))


def test_sweep_with_no_probe_user_reports_nan_radii_without_a_warning():
    """Every user with training items holds the whole catalog: in-batch mode
    trains, but no user has negatives to probe."""
    ds = Dataset.from_positive_lists([[0, 1, 2, 3], [0, 1, 2, 3], [], [0, 1, 2, 3]],
                                     [[], [], [1], []], n_items=4)
    cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=2, batch_size=4,
                      n_negatives=2, sampling_mode=SamplingMode.IN_BATCH, rng_seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = noise_sweep(ds, cfg, LossSpec(kind=LossKind.SL, tau=0.2), r_values=[0.0],
                             tau_grid=(0.2,))
    assert evaluate_module.probe_users(ds).size == 0
    assert math.isnan(row.eta_mean) and math.isnan(row.eta_median)


def test_sl_novar_grid_is_one_temperature_free_run(monkeypatch):
    ds = planted_clusters(n_users=40, n_items=30, seed=3)
    cfg = TrainConfig(embedding_dim=4, learning_rate=1e-2, epochs=2, batch_size=64,
                      n_negatives=4, rng_seed=5)
    spec = LossSpec(kind=LossKind.SL_NOVAR, tau=0.2)
    trained = counting_train(monkeypatch)
    result = grid_search_train(ds, cfg, spec, tau_grid=(0.05, 0.1, 1.0))
    assert len(trained) == 1
    assert math.isnan(result.best_tau) and result.best_spec == spec
    (row,) = noise_sweep(ds, cfg, spec, [0.0], tau_grid=(0.05, 0.1, 1.0))
    assert len(trained) == 2
    assert math.isnan(row.best_tau)
    assert math.isnan(row.eta_mean) and math.isnan(row.eta_median)
