import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from recdro.config import ConfigError, NegSampler, SamplingMode, TrainConfig
from recdro.data import Dataset
import recdro.model as model_mod
import recdro.sampling as sampling_mod
from recdro.sampling import (SamplerState, batch_complement_ids, complement_ids,
                             contaminate_positives, in_batch_negatives, positive_fraction,
                             popularity_weights_from_counts, prepare_dataset,
                             sample_negatives, sample_negatives_batch,
                             sample_uniform_batch)
from recdro.synthetic import random_interactions, zipf_preferences


def one_user_dataset(n_items: int, n_pos: int) -> Dataset:
    return Dataset.from_positive_lists([list(range(n_pos))], [[]], n_items=n_items)


class TestSampleNegatives:
    def test_zero_noise_never_returns_positives(self):
        ds = one_user_dataset(100, 10)
        st = SamplerState.create(seed=0)
        draws = sample_negatives(st, ds, 0, 100_000)
        assert not np.isin(draws, ds.train_pos[0]).any()
        assert ((draws >= 10) & (draws < 100)).all()

    def test_symmetric_mixture(self):
        ds = one_user_dataset(100, 50)
        st = SamplerState.create(seed=1, r_noise=1.0)
        draws = sample_negatives(st, ds, 0, 100_000)
        frac = np.isin(draws, ds.train_pos[0]).mean()
        assert abs(frac - 0.5) < 0.01

    def test_closed_form_mixture_probability(self):
        # 10 positives, 90 negatives, weight 3 => 30 / 120 of draws positive
        ds = one_user_dataset(100, 10)
        st = SamplerState.create(seed=2, r_noise=3.0)
        expected = positive_fraction(3.0, 10, 90)
        assert expected == pytest.approx(0.25)
        draws = sample_negatives(st, ds, 0, 100_000)
        frac = np.isin(draws, ds.train_pos[0]).mean()
        assert abs(frac - expected) < 0.01

    def test_deterministic_per_seed(self):
        ds = random_interactions(20, 50, per_user=6, seed=3)
        a = sample_negatives(SamplerState.create(seed=9), ds, 4, 1000)
        b = sample_negatives(SamplerState.create(seed=9), ds, 4, 1000)
        assert np.array_equal(a, b)
        c = sample_negatives(SamplerState.create(seed=10), ds, 4, 1000)
        assert not np.array_equal(a, c)

    def test_no_negatives_and_zero_noise_is_error(self):
        ds = Dataset.from_positive_lists([[0, 1, 2]], [[]], n_items=3)
        st = SamplerState.create(seed=0)
        with pytest.raises(ValueError, match="no negatives"):
            sample_negatives(st, ds, 0, 4)
        noisy = SamplerState.create(seed=0, r_noise=0.5)
        draws = sample_negatives(noisy, ds, 0, 16)
        assert np.isin(draws, [0, 1, 2]).all()

    def test_popularity_mode_matches_weights(self):
        n_items = 10
        counts = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], dtype=float)
        # user 0 has no positives so every item is a candidate
        ds = Dataset.from_positive_lists([[], [0, 5]], [[], []], n_items=n_items)
        st = SamplerState.create(seed=4, mode=NegSampler.POPULARITY,
                                 popularity_weights=counts)
        n = 1_000_000
        draws = sample_negatives(st, ds, 0, n)
        freq = np.bincount(draws, minlength=n_items) / n
        probs = counts / counts.sum()
        sigma = np.sqrt(probs * (1 - probs) / n)
        assert (np.abs(freq - probs) <= 3 * sigma).all()

    def test_popularity_weight_validation(self):
        with pytest.raises(ValueError):
            SamplerState.create(seed=0, mode=NegSampler.POPULARITY)
        with pytest.raises(ValueError):
            SamplerState.create(seed=0, popularity_weights=np.ones(3))
        with pytest.raises(ValueError):
            SamplerState.create(seed=0, mode=NegSampler.POPULARITY,
                                popularity_weights=np.zeros(3))

    @pytest.mark.parametrize("weights", [
        [1, np.nan, 1, 1, 1], [1, np.inf, 1, 1, 1], [1e308, 1e308, 1, 1, 1],
    ])
    def test_non_finite_popularity_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            SamplerState.create(seed=0, mode=NegSampler.POPULARITY,
                                popularity_weights=weights)

    @pytest.mark.parametrize("r_noise", [math.inf, math.nan, -0.5])
    def test_r_noise_outside_finite_nonnegative_rejected(self, r_noise):
        with pytest.raises(ValueError, match="r_noise"):
            SamplerState.create(seed=0, r_noise=r_noise)

    def test_non_finite_user_weight_is_error(self):
        ds = Dataset.from_positive_lists([[1, 2], [3]], [[], []], n_items=5)
        st = SamplerState.create(seed=0, mode=NegSampler.POPULARITY,
                                 popularity_weights=np.ones(5))
        st.popularity_weights[1] = np.nan  # corrupted after validation
        for user in (0, 1):  # item 1 is a positive of user 0, a negative of user 1
            with pytest.raises(ValueError, match="non-finite"):
                sample_negatives(st, ds, user, 8)

    def test_exponent_weights(self):
        w = popularity_weights_from_counts(np.array([1, 4, 9]), exponent=0.5)
        assert np.allclose(w, [1, 2, 3])

    def test_state_reused_on_second_dataset_sees_its_positives(self):
        first = one_user_dataset(100, 10)
        second = Dataset.from_positive_lists([list(range(50, 60))], [[]], n_items=100)
        st = SamplerState.create(seed=5)
        sample_negatives(st, first, 0, 100)
        draws = sample_negatives(st, second, 0, 10_000)
        assert not np.isin(draws, second.train_pos[0]).any()

    @staticmethod
    def materialized_reference(st, ds, user, n):
        """Sample from the sorted complement, making the same RNG calls."""
        pos = ds.train_pos[user]
        neg = np.setdiff1d(np.arange(ds.n_items), pos)
        if st.mode is NegSampler.UNIFORM:
            w_pos, w_neg, pos_p, neg_p = float(pos.size), float(neg.size), None, None
        else:
            pos_w, neg_w = st.popularity_weights[pos], st.popularity_weights[neg]
            w_pos, w_neg = float(pos_w.sum()), float(neg_w.sum())
            pos_p, neg_p = pos_w / w_pos, neg_w / w_neg
        take_pos = st.rng.random(n) < st.r_noise * w_pos / (st.r_noise * w_pos + w_neg)
        k = int(take_pos.sum())
        out = np.empty(n, dtype=np.int64)
        if st.mode is NegSampler.UNIFORM:
            if k:
                out[take_pos] = pos[st.rng.integers(0, pos.size, size=k)]
            if k < n:
                out[~take_pos] = neg[st.rng.integers(0, neg.size, size=n - k)]
        else:
            if k:
                out[take_pos] = st.rng.choice(pos, size=k, replace=True, p=pos_p)
            if k < n:
                out[~take_pos] = st.rng.choice(neg, size=n - k, replace=True, p=neg_p)
        return out

    @staticmethod
    def oracle_catalog(n_items):
        """Users 0 and 1 hold the catalog's first and last item, user 3 is one
        positive short of the whole catalog; popularity weights are linear on
        the small catalog and Zipf counts^0.75 on the large one."""
        if n_items == 40:
            lists = [[0, 1, 7, 39], [0, 20, 38, 39], [5, 6, 7, 8, 30], list(range(1, 40))]
            return lists, popularity_weights_from_counts(np.arange(1, n_items + 1))
        rng = np.random.default_rng(n_items)
        lists = [[0, 1, 7, n_items - 1], [0, n_items // 2, n_items - 2, n_items - 1],
                 rng.choice(n_items, size=n_items // 10, replace=False),
                 list(range(1, n_items))]
        return lists, popularity_weights_from_counts(rng.zipf(1.5, size=n_items), 0.75)

    @pytest.mark.parametrize("n_items", [40, 3000])
    @pytest.mark.parametrize("mode", list(NegSampler))
    @pytest.mark.parametrize("r_noise", [0.0, 0.1, 3.0])
    def test_matches_materialized_complement_oracle(self, mode, r_noise, n_items):
        lists, popularity = self.oracle_catalog(n_items)
        ds = Dataset.from_positive_lists(lists, [[]] * len(lists), n_items=n_items)
        weights = popularity if mode is NegSampler.POPULARITY else None
        fast = SamplerState.create(seed=11, mode=mode, r_noise=r_noise,
                                   popularity_weights=weights)
        slow = SamplerState.create(seed=11, mode=mode, r_noise=r_noise,
                                   popularity_weights=weights)
        for user in (0, 1, 2, 3, 0, 3):
            for n in (1, 64, 500):
                expect = self.materialized_reference(slow, ds, user, n)
                assert np.array_equal(sample_negatives(fast, ds, user, n), expect)
                assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


class TestContaminatePositives:
    def test_zero_ratio_is_identity(self):
        ds = random_interactions(30, 40, per_user=5, seed=5)
        out = contaminate_positives(ds, 0.0, seed=1)
        assert out.equals(ds)

    def test_forty_percent_of_ten(self):
        ds = Dataset.from_positive_lists([list(range(10))], [[10, 11]], n_items=30)
        out = contaminate_positives(ds, 0.4, seed=2)
        added = np.setdiff1d(out.train_pos[0], ds.train_pos[0])
        assert added.size == 4
        assert not np.isin(added, ds.train_pos[0]).any()
        assert not np.isin(added, ds.test_pos[0]).any()

    def test_input_untouched_and_popularity_recomputed(self):
        ds = random_interactions(30, 40, per_user=5, seed=6)
        before = [a.copy() for a in ds.train_pos]
        out = contaminate_positives(ds, 0.3, seed=3)
        assert all(np.array_equal(a, b) for a, b in zip(before, ds.train_pos))
        expect = np.bincount(np.concatenate(out.train_pos), minlength=out.n_items)
        assert np.array_equal(out.item_popularity, expect)

    def test_total_injected_count_oracle(self):
        ds = random_interactions(1000, 200, per_user=12, seed=7, test_fraction=0.25)
        out = contaminate_positives(ds, 0.2, seed=4)
        injected = sum(out.train_pos[u].size - ds.train_pos[u].size
                       for u in range(ds.n_users))
        expected = sum(math.ceil(0.2 * ds.train_pos[u].size)
                       for u in range(ds.n_users))
        assert injected == expected

    def test_never_inserts_test_items(self):
        ds = random_interactions(200, 60, per_user=10, seed=8, test_fraction=0.4)
        out = contaminate_positives(ds, 0.5, seed=5)
        for u in range(ds.n_users):
            assert not np.isin(out.train_pos[u], ds.test_pos[u]).any()

    def test_shortfall_warns_and_caps(self, caplog):
        # user 0 has only one free negative available
        ds = Dataset.from_positive_lists([[0, 1, 2, 3]], [[4]], n_items=6)
        with caplog.at_level(logging.WARNING, logger="recdro.sampling"):
            out = contaminate_positives(ds, 0.9, seed=6)
        assert out.train_pos[0].size == 5
        assert "shortfall" in caplog.text

    def test_ratio_validation(self):
        ds = random_interactions(5, 10, per_user=2, seed=9)
        with pytest.raises(ValueError):
            contaminate_positives(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            contaminate_positives(ds, -0.1, seed=0)


class TestInBatchNegatives:
    def test_pair_batch(self):
        mask = in_batch_negatives([0, 1], [5, 6])
        assert mask.tolist() == [[False, True], [True, False]]

    def test_four_examples(self):
        mask = in_batch_negatives([0, 1, 2, 3], [4, 5, 6, 7])
        assert np.array_equal(mask, ~np.eye(4, dtype=bool))
        assert mask.sum(axis=1).tolist() == [3, 3, 3, 3]

    def test_duplicate_positive_item_still_used_as_negative(self):
        # replay a 3-example batch by hand: user 0's positive (item 9) shows
        # up again as example 2's item, and only the diagonal is masked, so
        # item 9 is a negative for example 0
        users = [0, 1, 0]
        items = [9, 3, 9]
        mask = in_batch_negatives(users, items)
        negatives_of_example_0 = [items[j] for j in range(3) if mask[0, j]]
        assert negatives_of_example_0 == [3, 9]

    def test_too_small_batch(self):
        with pytest.raises(ValueError):
            in_batch_negatives([0], [1])
        with pytest.raises(ValueError):
            in_batch_negatives([0, 1], [1])


class TestContaminationMatchesMaterializedComplement:
    """The rank-mapped draw equals choice() over each user's free ids."""

    @staticmethod
    def materialized_reference(ds, ratio, seed):
        rng = np.random.default_rng(seed)
        all_items = np.arange(ds.n_items)
        out = []
        for pos, test in zip(ds.train_pos, ds.test_pos):
            want = math.ceil(ratio * pos.size - 1e-9)
            avail = np.setdiff1d(all_items, np.union1d(pos, test))
            take = min(want, avail.size)
            if take:
                pos = np.union1d(pos, rng.choice(avail, size=take, replace=False))
            out.append(pos)
        return out

    @staticmethod
    def edge_dataset():
        n_items = 12
        train = [[0, 1, 2], [n_items - 1], [0, n_items - 1], [],
                 list(range(1, n_items - 1)), [5, 6], [3]]
        test = [[n_items - 1], [], [5], [0], [0, n_items - 1], [0], []]
        return Dataset.from_positive_lists(train, test, n_items=n_items)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("ratio", [0.0, 0.2, 0.5, 0.9])
    def test_matches_reference(self, seed, ratio):
        for ds in (self.edge_dataset(),
                   random_interactions(40, 25, per_user=6, seed=seed, test_fraction=0.3)):
            out = contaminate_positives(ds, ratio, seed)
            expect = self.materialized_reference(ds, ratio, seed)
            assert all(np.array_equal(a, b) for a, b in zip(out.train_pos, expect))
            assert all(np.array_equal(a, b) for a, b in zip(out.test_pos, ds.test_pos))

    def test_edge_users_cover_the_catalog_ends_and_an_empty_draw(self):
        ds = self.edge_dataset()
        # user 4 wants a false positive but has no free item: an empty draw
        assert ds.n_items - np.union1d(ds.train_pos[4], ds.test_pos[4]).size == 0
        injected = np.concatenate([
            np.setdiff1d(out, before) for seed in range(20)
            for out, before in zip(contaminate_positives(ds, 0.9, seed).train_pos,
                                   ds.train_pos)])
        assert {0, ds.n_items - 1} <= set(injected.tolist())


class TestSampleNegativesBatch:
    """The batch draw against the exact per-user target distribution."""

    M = 64

    @staticmethod
    def target(ds, weights, r_noise, user):
        """P(i) ∝ w_i · (r_noise if i is one of ``user``'s positives else 1)."""
        p = weights.copy()
        p[ds.train_pos[user]] *= r_noise
        return p / p.sum()

    @staticmethod
    def chi_square(draws, p):
        """Pearson's statistic over bins expected >= 5 times (the rest pooled)
        and its degrees of freedom."""
        expected = draws.size * p
        counts = np.bincount(draws, minlength=p.size)
        big = expected >= 5
        obs = np.append(counts[big], counts[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        obs, exp = obs[exp > 0], exp[exp > 0]
        return float(((obs - exp) ** 2 / exp).sum()), exp.size - 1

    @staticmethod
    def catalog(n_items, r_noise):
        """The oracle catalog with three zero-weight items (positives of users 0,
        1 and 2 among them) plus a user with no positives and, when positives
        may leak, a user holding every item."""
        lists, weights = TestSampleNegatives.oracle_catalog(n_items)
        weights = weights.copy()
        weights[[3, 7, n_items // 2]] = 0.0
        lists = [list(a) for a in lists] + [[]]
        if r_noise > 0:
            lists.append(list(range(n_items)))
        return Dataset.from_positive_lists(lists, [[]] * len(lists), n_items=n_items), weights

    @pytest.mark.parametrize("n_items", [40, 3000])
    @pytest.mark.parametrize("r_noise", [0.0, 0.1, 3.0])
    def test_matches_target_distribution(self, n_items, r_noise, monkeypatch):
        import recdro.sampling as sampling_mod

        ds, weights = self.catalog(n_items, r_noise)
        exact_users = []

        def spy(st, ds_, user, n):
            exact_users.append(user)
            return sample_negatives(st, ds_, user, n)

        monkeypatch.setattr(sampling_mod, "sample_negatives", spy)
        rows_per_user = 400
        rng = np.random.default_rng(n_items)
        users = rng.permutation(np.repeat(np.arange(ds.n_users), rows_per_user))
        st = SamplerState.create(seed=12, mode=NegSampler.POPULARITY, r_noise=r_noise,
                                 popularity_weights=weights)
        block = sampling_mod.sample_negatives_batch(st, ds, users, self.M)
        assert block.shape == (users.size, self.M)

        # the exact per-user draw serves the users holding >= half the weight:
        # user 3 (every item but item 0) and the user holding every item
        heavy = [u for u in range(ds.n_users)
                 if 2 * weights[ds.train_pos[u]].sum() >= weights.sum()]
        assert sorted(exact_users) == heavy
        assert 3 in heavy and (r_noise == 0 or ds.n_users - 1 in heavy)

        for user in range(ds.n_users):
            draws = block[users == user].ravel()
            p = self.target(ds, weights, r_noise, user)
            assert not np.isin(draws, np.flatnonzero(p == 0)).any()
            stat, df = self.chi_square(draws, p)
            # bound fixed in advance: six standard deviations of chi2(df) above its mean
            assert stat <= df + 6 * math.sqrt(2 * df), (user, stat, df)
        if r_noise == 0:
            assert not np.isin(block[users == 0], ds.train_pos[0]).any()
        else:
            assert np.isin(block[users == ds.n_users - 1], np.flatnonzero(weights)).all()

    def test_catalog_ends_are_drawn(self):
        # users 0 and 1 hold items 0 and n_items-1; user 2 draws both
        ds, weights = self.catalog(40, 0.0)
        st = SamplerState.create(seed=3, mode=NegSampler.POPULARITY, r_noise=0.0,
                                 popularity_weights=weights)
        block = sample_negatives_batch(st, ds, np.array([2] * 100 + [0, 1] * 50), self.M)
        assert {0, 39} <= set(block[:100].ravel().tolist())
        assert not np.isin(block[100::2], [0, 39]).any()
        assert not np.isin(block[101::2], [0, 39]).any()

    def test_seed_determinism(self):
        ds, weights = self.catalog(3000, 0.1)
        users = np.random.default_rng(1).integers(0, ds.n_users, size=300)

        def draw(seed):
            st = SamplerState.create(seed=seed, mode=NegSampler.POPULARITY, r_noise=0.1,
                                     popularity_weights=weights)
            return sample_negatives_batch(st, ds, users, 8)

        assert np.array_equal(draw(5), draw(5))
        assert not np.array_equal(draw(5), draw(6))

    def test_rows_follow_their_users(self):
        # disjoint positives: at r_noise 0 each row avoids exactly its own user's
        ds = Dataset.from_positive_lists([[0, 1, 2], [3, 4, 5], [6, 7, 8]], [[]] * 3,
                                         n_items=10)
        st = SamplerState.create(seed=4, mode=NegSampler.POPULARITY,
                                 popularity_weights=np.ones(10))
        users = np.array([2, 0, 1, 0, 2, 1] * 50)
        block = sample_negatives_batch(st, ds, users, 16)
        for row, user in zip(block, users):
            assert not np.isin(row, ds.train_pos[user]).any()
        for user in range(3):
            others = np.setdiff1d(np.arange(9), ds.train_pos[user])
            assert np.isin(others, block[users == user]).all()

    @pytest.mark.parametrize("lists, weights, r_noise", [
        ([[0, 1, 2]], [1.0, 1.0, 1.0], 0.0),   # every item positive
        ([[0, 1]], [1.0, 1.0, 0.0], 0.0),      # negatives weigh zero
    ])
    def test_errors_match_per_user_sampler(self, lists, weights, r_noise):
        ds = Dataset.from_positive_lists(lists, [[]], n_items=len(weights))

        def state():
            return SamplerState.create(seed=0, mode=NegSampler.POPULARITY, r_noise=r_noise,
                                       popularity_weights=np.array(weights))

        with pytest.raises(ValueError) as per_user:
            sample_negatives(state(), ds, 0, 4)
        with pytest.raises(ValueError, match=re.escape(str(per_user.value))):
            sample_negatives_batch(state(), ds, np.array([0, 0]), 2)

    def test_zero_weight_negatives_leak_only_positives(self):
        ds = Dataset.from_positive_lists([[0, 1]], [[]], n_items=3)
        st = SamplerState.create(seed=0, mode=NegSampler.POPULARITY, r_noise=0.5,
                                 popularity_weights=np.array([1.0, 3.0, 0.0]))
        block = sample_negatives_batch(st, ds, np.zeros(50, dtype=np.int64), 8)
        assert np.isin(block, [0, 1]).all()

    def test_invalid_calls(self):
        ds = Dataset.from_positive_lists([[1, 2], [3]], [[], []], n_items=5)
        st = SamplerState.create(seed=0, mode=NegSampler.POPULARITY,
                                 popularity_weights=np.ones(5))
        with pytest.raises(ValueError, match="m must be"):
            sample_negatives_batch(st, ds, np.array([0]), 0)
        with pytest.raises(ValueError, match="popularity"):
            sample_negatives_batch(SamplerState.create(seed=0), ds, np.array([0]), 2)
        short = SamplerState.create(seed=0, mode=NegSampler.POPULARITY,
                                    popularity_weights=np.ones(4))
        with pytest.raises(ValueError, match="length"):
            sample_negatives_batch(short, ds, np.array([0]), 2)
        st.popularity_weights[1] = np.nan  # corrupted after validation
        with pytest.raises(ValueError, match="non-finite"):
            sample_negatives_batch(st, ds, np.array([0, 1]), 2)


def searchsorted_popularity_batch(st, ds, users, m):
    """The popularity batch draw as a binary search over the whole CDF and a
    binary search over sorted (user slot, item) keys of the positives: the
    reference :func:`sample_negatives_batch` must match bit for bit."""
    if m < 1:
        raise ValueError("m must be >= 1")
    weights = st.popularity_weights
    users = np.asarray(users, dtype=np.int64)
    out = np.empty((users.size, m), dtype=np.int64)

    uniq, inv = np.unique(users, return_inverse=True)
    indptr, indices = sampling_mod._batch_csr(ds, uniq)
    pos_cum = np.zeros(indices.size + 1)
    np.cumsum(weights[indices], out=pos_cum[1:])
    w_pos = pos_cum[indptr[1:]] - pos_cum[indptr[:-1]]
    cdf = np.cumsum(weights)
    total = cdf[-1]
    if not np.isfinite(total):
        raise ValueError("popularity weights have a non-finite total")
    cdf /= total
    w_neg = total - w_pos

    exact = 2 * w_pos >= total
    for j in np.flatnonzero(exact):
        rows = np.flatnonzero(inv == j)
        out[rows] = sample_negatives(st, ds, int(uniq[j]), rows.size * m).reshape(-1, m)

    rows = np.flatnonzero(~exact[inv])
    slot_user = np.repeat(inv[rows], m)
    items = np.empty(slot_user.size, dtype=np.int64)
    leak = np.zeros(slot_user.size, dtype=bool)
    r = st.r_noise
    if r > 0:
        p_leak = r * w_pos / (r * w_pos + w_neg)
        leak = st.rng.random(slot_user.size) < p_leak[slot_user]
        lu = slot_user[leak]
        start, end = pos_cum[indptr[lu]], pos_cum[indptr[lu + 1]]
        target = start + st.rng.random(lu.size) * (end - start)
        t = np.minimum(pos_cum.searchsorted(target, side="right"),
                       pos_cum.searchsorted(end, side="left"))
        items[leak] = indices[t - 1]

    n_items = ds.n_items
    pos_keys = np.append(np.repeat(np.arange(uniq.size), np.diff(indptr)) * n_items
                         + indices, uniq.size * n_items)
    need = np.flatnonzero(~leak)
    while need.size:
        cand = cdf.searchsorted(st.rng.random(need.size), side="right")
        keys = slot_user[need] * n_items + cand
        hit = pos_keys[pos_keys.searchsorted(keys)] == keys
        items[need[~hit]] = cand[~hit]
        need = need[hit]
    out[rows] = items.reshape(-1, m)
    return out


def zero_weight_catalog():
    """400 items, a third of them (in runs) at weight zero, held by some users."""
    rng = np.random.default_rng(5)
    weights = rng.pareto(1.5, size=400) + 0.01
    weights[rng.random(400) < 1 / 3] = 0.0
    weights[100:160] = 0.0
    lists = [np.sort(rng.choice(400, size=size, replace=False)) for size in (0, 3, 40, 150)]
    lists.append(np.arange(100, 170))
    return Dataset.from_positive_lists(lists, [[]] * len(lists), n_items=400), weights


def tiny_weight_catalog():
    """Unit weights, but item 7's weight is too small to move its CDF step."""
    weights = np.ones(60)
    weights[7] = 1e-30
    cum = np.cumsum(weights)
    assert cum[7] == cum[6]
    lists = [[0, 7], [7, 8, 9], list(range(20, 50)), []]
    return Dataset.from_positive_lists(lists, [[]] * len(lists), n_items=60), weights


class TestPopularityBatchBits:
    """The guide-table CDF inversion and the bit-table rejection test draw
    exactly what binary searches draw: the same ids, the same final state."""

    @pytest.mark.parametrize("catalog, r_noise", [
        *[(n_items, r_noise) for n_items in (40, 3000) for r_noise in (0.0, 0.1, 3.0)],
        ("zero weights", 0.1), ("tiny weight", 0.1)])
    def test_matches_the_searchsorted_draw(self, catalog, r_noise):
        if catalog == "zero weights":
            ds, weights = zero_weight_catalog()
        elif catalog == "tiny weight":
            ds, weights = tiny_weight_catalog()
        else:
            ds, weights = TestSampleNegativesBatch.catalog(catalog, r_noise)
        rng = np.random.default_rng(ds.n_items)
        for m in (1, 16):
            users = rng.integers(0, ds.n_users, size=300)
            got, want = (SamplerState.create(seed=m, mode=NegSampler.POPULARITY,
                                             r_noise=r_noise, popularity_weights=weights)
                         for _ in range(2))
            block = sample_negatives_batch(got, ds, users, m)
            assert np.array_equal(block, searchsorted_popularity_batch(want, ds, users, m))
            assert same_state(got.rng.bit_generator.state, want.rng.bit_generator.state)

    @pytest.mark.parametrize("weights", [
        np.ones(1), np.ones(1000), np.array([0.0, 0.0, 2.0, 0.0]),
        zero_weight_catalog()[1], tiny_weight_catalog()[1],
        # one heavy head item leaves the rest to share the top bucket
        np.concatenate([[1e6], np.ones(50)]),
        np.random.default_rng(0).pareto(0.5, size=5000),
    ], ids=["one item", "uniform", "one drawable", "zero weights", "tiny weight",
            "heavy head", "heavy tail"])
    def test_guided_search_is_searchsorted(self, weights):
        cum = np.cumsum(weights)
        cdf = cum / cum[-1]
        guide = sampling_mod._CdfGuide.build(weights)
        k = guide.guide.size - 1
        assert k >= 2 * np.count_nonzero(weights) and k & (k - 1) == 0
        edges = np.concatenate([np.arange(k) / k, cdf])
        u = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1)])
        u = u[(u >= 0) & (u < 1)]
        assert np.array_equal(guide.invert(u), cdf.searchsorted(u, side="right"))

    def test_heavy_head_takes_several_digits(self):
        # so the search above runs more than one digit and pads its values
        guide = sampling_mod._CdfGuide.build(np.concatenate([[1e6], np.ones(50)]))
        assert guide.steps >= 3 and guide.vals.size > 51

    def test_working_memory_is_bounded_by_the_batch(self):
        """One call's peak allocation stays below four 8-byte arrays per
        catalog item plus 64 bytes per drawn slot; a users × items bitmap
        would take 10 MB here, past the bound.

        The weights are the library's, item counts: the 13,501 items with a
        training interaction are the drawable ones. The guide table holds 16
        to 32 bytes per drawable item, so a catalog whose every item is
        drawable would exceed the bound's catalog term through it alone."""
        n_items, batch, m = 200_000, 512, 16
        ds = random_interactions(400, n_items, 50, seed=0)
        st = SamplerState.create(seed=0, mode=NegSampler.POPULARITY, r_noise=0.1,
                                 popularity_weights=popularity_weights_from_counts(
                                     ds.item_popularity))
        users = np.random.default_rng(1).integers(0, ds.n_users, size=batch)
        tracemalloc.start()
        try:
            sample_negatives_batch(st, ds, users, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * n_items + 64 * batch * m


@pytest.mark.parametrize("r_noise", [math.nan, math.inf])
def test_positive_fraction_rejects_non_finite_r_noise(r_noise):
    with pytest.raises(ConfigError, match="^r_noise must"):
        positive_fraction(r_noise, 10, 90)


@pytest.mark.parametrize("ratio", [math.nan, math.inf, -0.1, 1.0])
def test_contamination_ratio_outside_its_range_is_a_config_error(ratio):
    with pytest.raises(ConfigError, match="^ratio must"):
        contaminate_positives(one_user_dataset(10, 3), ratio, seed=0)


class TestPrepareDatasetChecksPopularityWeights:
    # item 1 has no training interactions, so a negative exponent weighs it inf
    DS = Dataset.from_positive_lists([[0]], [[]], n_items=2)

    def cfg(self, **kwargs):
        # user 0 holds every item of positive weight (both items once one is
        # injected), which a sampler can draw negatives for only at r_noise > 0
        return TrainConfig(neg_sampler=NegSampler.POPULARITY, r_noise=0.5, **kwargs)

    def test_weight_the_split_cannot_take_is_a_config_error(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ConfigError, match="popularity weights"):
                prepare_dataset(self.DS, self.cfg(popularity_exponent=-1.0))
        assert prepare_dataset(self.DS, self.cfg(popularity_exponent=1.0))[0] is self.DS

    def test_weights_are_checked_on_the_contaminated_split(self):
        # the one injected false positive is item 1, which then has a count
        ds, _ = prepare_dataset(self.DS, self.cfg(popularity_exponent=-1.0,
                                                  pos_noise_ratio=0.5))
        assert list(ds.item_popularity) == [1, 1]

    def test_sampler_state_raises_the_same_error(self):
        with pytest.raises(ConfigError, match="finite"):
            SamplerState.create(seed=0, mode=NegSampler.POPULARITY,
                                popularity_weights=[1.0, np.inf])


class TestPrepareDatasetChecksNegatives:
    """At r_noise 0 a negative-sampling split is one every user can draw
    negatives from, or the sampler's own error is raised before training."""

    # user 1 holds every item
    FULL = Dataset.from_positive_lists([[0], [0, 1, 2, 3], [2]], [[]] * 3, n_items=4)
    # item 2 has no training interactions, so user 1 holds every item of
    # positive popularity weight
    NO_WEIGHT = Dataset.from_positive_lists([[0], [0, 1, 3], [1]], [[]] * 3, n_items=4)

    @pytest.mark.parametrize("ds, sampler", [
        (FULL, NegSampler.UNIFORM), (FULL, NegSampler.POPULARITY),
        (NO_WEIGHT, NegSampler.POPULARITY)])
    def test_raises_the_samplers_error(self, ds, sampler):
        cfg = TrainConfig(neg_sampler=sampler)
        with pytest.raises(ValueError) as per_user:
            sample_negatives(SamplerState.for_config(ds, cfg, seed=0), ds, 1, 1)
        assert str(per_user.value).startswith("user 1 ")
        with pytest.raises(ValueError, match=f"^{re.escape(str(per_user.value))}$"):
            prepare_dataset(ds, cfg)

    @pytest.mark.parametrize("ds, sampler", [
        (FULL, NegSampler.UNIFORM), (FULL, NegSampler.POPULARITY),
        (NO_WEIGHT, NegSampler.POPULARITY)])
    @pytest.mark.parametrize("settings", [
        {"sampling_mode": SamplingMode.IN_BATCH}, {"r_noise": 0.5}])
    def test_in_batch_or_leaking_samplers_take_the_split(self, ds, sampler, settings):
        assert prepare_dataset(ds, TrainConfig(neg_sampler=sampler, **settings))[0] is ds

    def test_uniform_sampler_ignores_zero_popularity(self):
        cfg = TrainConfig(neg_sampler=NegSampler.UNIFORM)
        assert prepare_dataset(self.NO_WEIGHT, cfg)[0] is self.NO_WEIGHT


def per_user_loop(st, ds, users, m):
    """The uniform batch as one sample_negatives call per distinct user, in
    ascending user order, each user's rows in batch order."""
    out = np.empty((users.size, m), dtype=np.int64)
    for u in np.unique(users):
        idx = np.flatnonzero(users == u)
        out[idx] = sample_negatives(st, ds, int(u), idx.size * m).reshape(-1, m)
    return out


def same_state(a, b) -> bool:
    """Whether two ``bit_generator.state`` dicts are equal (MT19937's holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def lemire_rejects_scalar(value, n):
    """numpy's bounded 32-bit draw for integers(0, n), on one 32-bit value."""
    leftover = (value * n) % 2**32
    return leftover < n and leftover < (2**32 - n) % n


class TestUniformBatchDraw:
    """The one-call uniform batch draw against the per-user loop it replaces:
    the same ids and the same final generator state."""

    NARROW = zipf_preferences(n_users=200, n_items=150, seed=5)
    WIDE = zipf_preferences(n_users=300, n_items=1500, seed=6)

    @staticmethod
    def assert_matches_loop(ds, users, m, make_state):
        fast, slow = make_state(), make_state()
        got = model_mod._gather_negatives(fast, ds, users, m)
        assert np.array_equal(got, per_user_loop(slow, ds, users, m))
        assert same_state(fast.rng.bit_generator.state, slow.rng.bit_generator.state)

    def assert_falls_back(self, ds, users, make_state):
        st = make_state()
        before = st.rng.bit_generator.state
        assert sample_uniform_batch(st, ds, users, 8) is None
        assert same_state(st.rng.bit_generator.state, before)
        self.assert_matches_loop(ds, users, 8, make_state)

    @pytest.mark.parametrize("r_noise", [0.0, 0.5])
    @pytest.mark.parametrize("split", ["narrow", "wide"])
    def test_matches_per_user_loop(self, split, r_noise, monkeypatch):
        ds = self.NARROW if split == "narrow" else self.WIDE
        fallbacks = []
        monkeypatch.setattr(model_mod, "sample_negatives",
                            lambda *args: fallbacks.append(args[2]) or sample_negatives(*args))
        batches = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for m in (1, 3, 8, 64):
                fast = SamplerState.create(seed=seed, r_noise=r_noise)
                slow = SamplerState.create(seed=seed, r_noise=r_noise)
                for _ in range(3):  # chained: each batch starts where the last ended
                    users = rng.integers(0, ds.n_users, size=int(rng.integers(1, 48)))
                    got = model_mod._gather_negatives(fast, ds, users, m)
                    assert np.array_equal(got, per_user_loop(slow, ds, users, m))
                    assert same_state(fast.rng.bit_generator.state, slow.rng.bit_generator.state)
                    batches += 1
        # the loop ran in a handful of batches at most (Lemire rejections)
        assert len(fallbacks) < 0.01 * batches * 48

    # user 1 has one negative left, user 2 none
    TIGHT = Dataset.from_positive_lists([[0], [0, 1, 2, 3], [0, 1, 2, 3, 4]], [[]] * 3,
                                        n_items=5)
    # user 1 has one positive: a range-1 integers() consumes no word
    SINGLE = Dataset.from_positive_lists([[0, 5], [3]], [[]] * 2, n_items=20)

    @pytest.mark.parametrize("case", ["one negative", "one positive, leaking", "MT19937"])
    def test_fallback_leaves_the_state_and_runs_the_loop(self, case):
        ds, users, make_state = {
            "one negative": (self.TIGHT, [1, 0, 1], lambda: SamplerState.create(seed=4)),
            "one positive, leaking": (self.SINGLE, [1, 0, 1, 1],
                                      lambda: SamplerState.create(seed=4, r_noise=0.5)),
            "MT19937": (self.NARROW, np.arange(0, 200, 3), lambda: SamplerState(
                rng=np.random.Generator(np.random.MT19937(4)))),
        }[case]
        self.assert_falls_back(ds, np.asarray(users), make_state)

    def test_fallback_is_limited_to_its_cases(self):
        # without leaks a one-positive user takes the batch draw
        assert sample_uniform_batch(SamplerState.create(seed=0), self.SINGLE,
                                    np.array([0, 1]), 4) is not None
        # a user with no negatives keeps the loop's error
        with pytest.raises(ValueError, match="no negatives"):
            model_mod._gather_negatives(SamplerState.create(seed=0), self.TIGHT,
                                        np.array([0, 2]), 4)

    def test_r_noise_is_held_as_a_python_float(self):
        # numpy scalar arithmetic would form the loop's p_take_pos in float32
        st = SamplerState.create(seed=0, r_noise=np.float32(0.3))
        assert type(st.r_noise) is float and st.r_noise == float(np.float32(0.3))

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 150, 1499, 1500, 2**31 + 1, 2**32 - 1])
    def test_lemire_check_matches_a_scalar_reference(self, n):
        rng = np.random.default_rng(n % 1000)
        values = [0, 1, 2**31, 2**32 - 1, *rng.integers(0, 2**32, size=200).tolist()]
        if n % 2:
            # values whose products land just below, on and above the threshold
            inverse = pow(n, -1, 2**32)
            threshold = (2**32 - n) % n
            values += [(c * inverse) % 2**32 for c in (0, threshold - 1, threshold,
                                                         threshold + 1, n - 1, n)]
        for v in values:
            expect = lemire_rejects_scalar(v, n)
            got = sampling_mod._lemire_rejects(np.array([v], np.uint32),
                                               np.array([n], np.uint64))
            assert got == expect, (v, n)
        # v = 0 is rejected wherever the threshold is above 0
        rejected = [v for v in values if lemire_rejects_scalar(v, n)]
        assert bool(rejected) == ((2**32 - n) % n > 0)
        both = np.array(values, np.uint32)
        assert sampling_mod._lemire_rejects(both, np.full(both.size, n, np.uint64)) == \
            bool(rejected)

    @pytest.mark.parametrize("r_noise", [0.0, 0.5])
    def test_a_rejection_restores_the_state_and_runs_the_loop(self, r_noise, monkeypatch):
        def pending_state():
            st = SamplerState.create(seed=8, r_noise=r_noise)
            st.rng.random(3)
            st.rng.integers(0, 10)  # leaves a 32-bit half pending
            return st

        assert pending_state().rng.bit_generator.state["has_uint32"] == 1
        monkeypatch.setattr(sampling_mod, "_lemire_rejects", lambda values, ranges: True)
        users = np.random.default_rng(3).integers(0, 200, size=40)
        self.assert_falls_back(self.NARROW, users, pending_state)


class TestBatchComplementIds:
    """The batch rank -> id map against complement_ids, row by row."""

    @staticmethod
    def check(lists, n_items, rng):
        lists = [np.asarray(p, dtype=np.int64) for p in lists]
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([p.size for p in lists], out=indptr[1:])
        indices = np.concatenate([np.empty(0, np.int64), *lists])
        rows, ranks = [], []
        for j, pos in enumerate(lists):
            n_neg = n_items - pos.size
            if not n_neg:
                continue
            # both ends of the rank range, then a few in between, unsorted
            picked = [0, n_neg - 1, *rng.integers(0, n_neg, size=5).tolist()]
            rows += [j] * len(picked)
            ranks += picked
        order = rng.permutation(len(rows))  # rows interleaved, not grouped
        rows, ranks = np.array(rows)[order], np.array(ranks, dtype=np.int64)[order]
        got = batch_complement_ids(indptr, indices, n_items, rows, ranks)
        for j, pos in enumerate(lists):
            at = rows == j
            assert np.array_equal(got[at], complement_ids(pos, ranks[at]))
            assert not np.isin(got[at], pos).any()

    def test_edge_rows(self):
        n_items = 12
        lists = [[], [0], [11], [0, 11], [0, 1, 2], [9, 10, 11], [], [0, 3, 4, 11],
                 list(range(1, 12)), list(range(11)), list(range(12)), [5]]
        self.check(lists, n_items, np.random.default_rng(0))

    def test_random_lists(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n_items = int(rng.integers(1, 80))
            lists = []
            for _ in range(int(rng.integers(1, 9))):
                pos = np.flatnonzero(rng.random(n_items) < rng.random())
                if rng.random() < 0.3:  # the catalog's first and last item
                    pos = np.union1d(pos, [0, n_items - 1])
                lists.append(pos)
            self.check(lists, n_items, rng)


def test_uniform_fallback_draws_once_per_distinct_user(monkeypatch):
    ds = zipf_preferences(n_users=60, n_items=80, seed=3)
    users = np.array([5, 2, 5, 9, 2, 2, 40, 5, 17])
    calls = []
    monkeypatch.setattr(model_mod, "sample_negatives",
                        lambda *args: calls.append(args[2]) or sample_negatives(*args))
    st = SamplerState(rng=np.random.Generator(np.random.MT19937(11)))
    model_mod._gather_negatives(st, ds, users, 4)
    assert calls == sorted(set(users.tolist()))
