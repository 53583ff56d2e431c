import math

import numpy as np
import pytest

from recdro.config import (ConfigError, DEFAULT_TAU_GRID, LossKind, SamplingMode,
                           build_config, config_as_dict, load_config,
                           override_config, parse_config_text)
from recdro.data import (DataFormatError, Dataset, load_dataset,
                         popularity_groups, save_dataset)
from recdro.synthetic import dataset_with_popularity, random_interactions


class TestLoadDataset:
    def test_small_example(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("0 1 2\n1 0\n")
        test.write_text("0 3\n")
        ds = load_dataset(train, test)
        assert ds.n_users == 2
        assert ds.n_items == 4
        assert [list(a) for a in ds.train_pos] == [[1, 2], [0]]
        assert [list(a) for a in ds.test_pos] == [[3], []]
        assert list(ds.item_popularity) == [1, 1, 1, 0]

    def test_empty_test_file(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("0 1 2\n1 0\n")
        test.write_text("")
        ds = load_dataset(train, test)
        assert all(a.size == 0 for a in ds.test_pos)

    def test_malformed_line_reports_lineno(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("0 1 2\n1 x 3\n")
        test.write_text("")
        with pytest.raises(DataFormatError, match=":2:"):
            load_dataset(train, test)

    def test_test_only_user_and_item_extend_counts(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("0 1\n")
        test.write_text("3 7\n")
        ds = load_dataset(train, test)
        assert ds.n_users == 4
        assert ds.n_items == 8
        assert ds.train_pos[3].size == 0

    def test_repeated_user_lines_merge(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("0 3 1\n0 2 1\n")
        test.write_text("")
        ds = load_dataset(train, test)
        assert list(ds.train_pos[0]) == [1, 2, 3]

    def test_overlapping_split_rejected(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        train.write_text("0 1 2\n")
        test.write_text("0 2\n")
        with pytest.raises(DataFormatError, match="user 0"):
            load_dataset(train, test)

    def test_roundtrip_through_save(self, tmp_path):
        ds = random_interactions(100, 50, per_user=8, seed=11, cover_all_items=True)
        save_dataset(ds, tmp_path / "t.txt", tmp_path / "e.txt")
        again = load_dataset(tmp_path / "t.txt", tmp_path / "e.txt")
        assert ds.equals(again)


class TestDatasetInvariants:
    def test_lists_are_sorted_unique_and_disjoint(self):
        ds = Dataset.from_positive_lists([[3, 1, 1, 2]], [[0, 4]])
        assert list(ds.train_pos[0]) == [1, 2, 3]
        assert list(ds.test_pos[0]) == [0, 4]

    def test_popularity_counts_users_not_occurrences(self):
        ds = Dataset.from_positive_lists([[0, 1], [1]], [[], []])
        assert list(ds.item_popularity) == [1, 2]

    def test_train_pairs(self):
        ds = Dataset.from_positive_lists([[1, 2], [0]], [[], []])
        assert ds.train_pairs().tolist() == [[0, 1], [0, 2], [1, 0]]


class TestPopularityGroups:
    def test_two_groups(self):
        ds = dataset_with_popularity([5, 1, 3, 2])
        assert list(popularity_groups(ds, 2)) == [1, 0, 1, 0]

    def test_single_group(self):
        ds = dataset_with_popularity([5, 1, 3, 2])
        assert list(popularity_groups(ds, 1)) == [0, 0, 0, 0]

    def test_too_many_groups(self):
        ds = dataset_with_popularity([5, 1, 3, 2])
        with pytest.raises(ValueError):
            popularity_groups(ds, 5)

    def test_every_item_assigned_once(self):
        ds = dataset_with_popularity(np.arange(17) % 5)
        groups = popularity_groups(ds, 4)
        assert groups.shape == (17,)
        assert ((groups >= 0) & (groups < 4)).all()

    def test_zipf_thousand_items(self):
        counts = np.maximum(1, (500 / np.arange(1, 1001)).astype(int))
        rng = np.random.default_rng(3)
        counts = counts[rng.permutation(1000)]
        ds = dataset_with_popularity(counts, seed=4)
        groups = popularity_groups(ds, 10)
        sizes = np.bincount(groups, minlength=10)
        assert (sizes == 100).all()
        # independent oracle: sorting the raw counts must reproduce the
        # nondecreasing per-group popularity means
        means = [counts[groups == g].mean() for g in range(10)]
        assert all(means[g] <= means[g + 1] + 1e-12 for g in range(9))
        by_sort = np.sort(counts).reshape(10, 100).mean(axis=1)
        assert np.allclose(sorted(means), by_sort)


CONFIG_TEXT = """
# example experiment
train_file = train.txt
test_file = test.txt
loss = bsl
tau_neg = 0.2
tau_pos = 0.3
embedding_dim = 16
epochs = 3
eval_ks = 5, 20
"""


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = build_config(parse_config_text(CONFIG_TEXT))
        assert cfg.loss.kind is LossKind.BSL
        assert cfg.loss.tau_neg == 0.2
        assert cfg.train.embedding_dim == 16
        assert cfg.train.batch_size == 1024  # untouched default
        assert cfg.eval_ks == (5, 20)
        assert cfg.tau_grid == DEFAULT_TAU_GRID
        assert cfg.train.sampling_mode is SamplingMode.NEGATIVE_SAMPLING

    def test_unknown_key_is_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rte = 0.1")

    def test_bad_value_is_error(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text("epochs = three"))
        with pytest.raises(ConfigError):
            build_config(parse_config_text("loss = hinge"))

    def test_invalid_combination_is_error(self):
        with pytest.raises(ConfigError, match="batch_size"):
            build_config(parse_config_text("sampling_mode = in_batch\nbatch_size = 1"))
        with pytest.raises(ConfigError, match="tau"):
            build_config(parse_config_text("tau = -0.5"))

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "-1"])
    def test_r_noise_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ConfigError, match="r_noise"):
            build_config(parse_config_text(f"r_noise = {value}"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no_such.cfg"):
            load_config(tmp_path / "no_such.cfg")

    def test_dict_roundtrip_and_override(self):
        cfg = build_config(parse_config_text(CONFIG_TEXT))
        again = build_config(config_as_dict(cfg))
        assert again == cfg
        bumped = override_config(cfg, {"epochs": "9"})
        assert bumped.train.epochs == 9
        with pytest.raises(ConfigError):
            override_config(cfg, {"nope": "1"})


def test_overlap_error_names_the_first_overlapping_user():
    train = [[0]] * 3 + [[1, 2]] + [[0]] * 3 + [[4]]
    test = [[1]] * 3 + [[2]] + [[1]] * 3 + [[4]]
    with pytest.raises(DataFormatError, match=r"user 3 has overlapping"):
        Dataset.from_positive_lists(train, test)


def test_save_dataset_failing_midway_leaves_previous_files(tmp_path):
    ds = random_interactions(20, 15, per_user=4, seed=1, test_fraction=0.3)
    paths = (tmp_path / "train.txt", tmp_path / "test.txt")
    save_dataset(ds, *paths)
    before = [p.read_bytes() for p in paths]

    class FailingList:
        size = 2

        def __iter__(self):
            yield 1
            raise OSError("device full")

    broken = Dataset(n_users=2, n_items=3, train_pos=(np.array([0, 2]), FailingList()),
                     test_pos=(np.empty(0, np.int64),) * 2,
                     item_popularity=np.ones(3, np.int64))
    with pytest.raises(OSError, match="device full"):
        save_dataset(broken, *paths)
    assert [p.read_bytes() for p in paths] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["test.txt", "train.txt"]


@pytest.mark.parametrize("bad", [[1.5, 2.9], ["3"], [True], np.array([1.0, 2.0])],
                         ids=["fractional", "string", "bool", "integral-float"])
def test_non_integer_item_ids_rejected(bad):
    with pytest.raises(DataFormatError, match="non-integer id in train list of user 1"):
        Dataset.from_positive_lists([[0], bad], [[], []])
    with pytest.raises(DataFormatError, match="non-integer id in test list of user 0"):
        Dataset.from_positive_lists([[0]], [bad])


def test_empty_item_lists_stay_valid():
    ds = Dataset.from_positive_lists([[], np.array([2], np.uint8), np.empty(0)],
                                     [(), [], [0]])
    assert (ds.n_users, ds.n_items) == (3, 3)
    assert [a.tolist() for a in ds.train_pos] == [[], [2], []]
    assert all(a.dtype == np.int64 for a in ds.train_pos + ds.test_pos)


@pytest.mark.parametrize("n_groups", [math.nan, math.inf, 0, 5])
def test_popularity_groups_outside_one_to_n_items_is_a_config_error(n_groups):
    ds = Dataset.from_positive_lists([[0, 1], [1, 2, 3]], [[], []])
    with pytest.raises(ConfigError, match="^n_groups must"):
        popularity_groups(ds, n_groups)


class TestTrainingCsr:
    # users 1 and 4 have no training items, user 5 has neither split's
    DS = Dataset.from_positive_lists([[3, 0], [], [1, 2, 4], [5], []], [[1], [0], [], [], [2]],
                                     n_users=6, n_items=7)

    def test_slices_are_the_training_lists(self):
        ds = random_interactions(40, 25, per_user=3, seed=2, test_fraction=0.5)
        for split in (ds, self.DS):
            assert split.indptr.shape == (split.n_users + 1,)
            for u in range(split.n_users):
                got = split.indices[split.indptr[u]:split.indptr[u + 1]]
                assert np.array_equal(got, split.train_pos[u])
                assert got.dtype == np.int64
            assert split.n_train_interactions == split.indices.size

    def test_train_pairs_match_the_per_user_concatenation(self):
        ds = random_interactions(40, 25, per_user=3, seed=2, test_fraction=0.5)
        for split in (ds, self.DS, Dataset.from_positive_lists([[], []], [[0], []])):
            users = np.repeat(np.arange(split.n_users, dtype=np.int64),
                              [a.size for a in split.train_pos])
            items = np.concatenate([a for a in split.train_pos if a.size]
                                   or [np.empty(0, np.int64)])
            pairs = split.train_pairs()
            assert pairs.dtype == np.int64 and pairs.shape == (users.size, 2)
            assert np.array_equal(pairs, np.stack([users, items], axis=1))

    def test_construction_does_not_build_it(self):
        ds = Dataset.from_positive_lists([[0, 2], [1]], [[], [0]])
        assert "indptr" not in vars(ds) and "indices" not in vars(ds)
        ds.train_pairs()
        assert "indptr" in vars(ds) and "indices" in vars(ds)
