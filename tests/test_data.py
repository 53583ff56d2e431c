import dataclasses
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest

from recdro.config import (CONFIG_KEYS, BslForm, ConfigError, DEFAULT_TAU_GRID,
                           ExperimentConfig, LossKind, LossSpec, NegSampler, SamplingMode,
                           TrainConfig, build_config, check_range, config_as_dict,
                           load_config, override_config, parse_config_text)
from recdro.data import (DataFormatError, Dataset, load_dataset,
                         popularity_groups, save_dataset)
from recdro.evaluate import evaluate, report_as_dict
from recdro.model import init_embeddings, train
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


def small_split():
    return Dataset.from_positive_lists([[0, 1], [2, 3], [1]], [[2], [0], [3]], n_items=5)


@pytest.mark.parametrize("name, call", [
    ("embedding_dim", lambda: TrainConfig(embedding_dim=2.5).validate()),
    ("batch_size", lambda: TrainConfig(batch_size=7.5).validate()),
    ("epochs", lambda: TrainConfig(epochs=1.5).validate()),
    ("n_negatives", lambda: TrainConfig(n_negatives=2.5).validate()),
    ("eval_every", lambda: ExperimentConfig(eval_every=2.5).validate()),
    ("eval_ks", lambda: ExperimentConfig(eval_ks=(5, 2.5)).validate()),
    ("d", lambda: init_embeddings(3, 4, 2.5, seed=0)),
    ("n_users", lambda: Dataset.from_positive_lists([[0]], [[1]], n_users=2.7)),
    ("n_items", lambda: Dataset.from_positive_lists([[0]], [[1]], n_items=5.9)),
    ("n_groups", lambda: popularity_groups(small_split(), 1.5)),
    ("n_groups", lambda: evaluate(init_embeddings(3, 5, 4, seed=0), small_split(), [5],
                                  n_groups=2.5)),
], ids=["embedding_dim", "batch_size", "epochs", "n_negatives", "eval_every", "eval_ks",
        "init_embeddings_d", "n_users", "n_items", "popularity_groups",
        "evaluate_n_groups"])
def test_fractional_count_is_a_config_error_naming_the_setting(name, call):
    with pytest.raises(ConfigError, match=f"^{name} must be a whole number"):
        call()


def test_whole_floats_and_numpy_integers_count_as_their_int():
    ds = small_split()
    assert Dataset.from_positive_lists(ds.train_pos, ds.test_pos, n_users=np.int64(3),
                                       n_items=5.0).equals(ds)
    assert np.array_equal(popularity_groups(ds, 2.0), popularity_groups(ds, 2))
    emb = init_embeddings(3, 5, 4.0, seed=0)
    assert np.array_equal(emb.user_vecs, init_embeddings(3, 5, np.int64(4), seed=0).user_vecs)
    expected = report_as_dict(evaluate(emb, ds, [5], n_groups=2))
    assert report_as_dict(evaluate(emb, ds, [5], n_groups=2.0)) == expected
    assert report_as_dict(evaluate(emb, ds, [5], n_groups=np.int64(2))) == expected

    spec = LossSpec(kind=LossKind.SL, tau=0.2)
    whole = TrainConfig(embedding_dim=4, epochs=2, batch_size=3, n_negatives=2)
    floats = TrainConfig(embedding_dim=4.0, epochs=2.0, batch_size=3.0, n_negatives=2.0)
    assert floats == whole
    (a, log_a), (b, log_b) = train(ds, whole, spec), train(ds, floats, spec)
    assert np.array_equal(a.user_vecs, b.user_vecs) and log_a == log_b


def test_an_int_no_float_can_hold_is_a_config_error_naming_the_setting():
    with pytest.raises(ConfigError, match="^epochs must"):
        check_range("epochs", 10**400, 1, math.inf)
    with pytest.raises(ConfigError, match="^epochs must"):
        check_range("epochs", -10**400, -math.inf, math.inf)


def test_an_int_past_the_string_digit_limit_is_a_config_error_naming_the_setting():
    """str() refuses an int of more than 4300 digits, so the message must not
    print the value."""
    with pytest.raises(ConfigError, match="^epochs must.* more than 4300 digits"):
        check_range("epochs", 10**5000, 1, math.inf)
    with pytest.raises(ConfigError, match="^pos_noise_ratio must"):
        check_range("pos_noise_ratio", -10**5000, 0, 1)


def test_experiment_whole_floats_round_trip_as_ints():
    cfg = ExperimentConfig(eval_every=5.0, eval_ks=(20.0, 5))
    cfg.validate()
    text = config_as_dict(cfg)
    assert (text["eval_every"], text["eval_ks"]) == ("5", "20,5")
    bumped = override_config(cfg, {"epochs": "3"})
    assert (bumped.eval_every, bumped.eval_ks, bumped.train.epochs) == (5, (20, 5), 3)
    assert bumped == dataclasses.replace(cfg, train=TrainConfig(epochs=3))


def test_list_settings_are_stored_as_tuples_and_round_trip():
    cfg = ExperimentConfig(eval_ks=[5, 20.0], tau_grid=[0.1, 0.2])
    cfg.validate()
    assert (cfg.eval_ks, cfg.tau_grid) == ((5, 20), (0.1, 0.2))
    assert cfg == ExperimentConfig(eval_ks=(5, 20), tau_grid=(0.1, 0.2))
    bumped = override_config(cfg, {"epochs": "3"})
    assert bumped == dataclasses.replace(cfg, train=TrainConfig(epochs=3))


@pytest.mark.parametrize("name, call", [
    ("eval_ks", lambda: ExperimentConfig(eval_ks=5).validate()),
    ("eval_ks", lambda: ExperimentConfig(eval_ks="5, 20").validate()),
    ("tau_grid", lambda: ExperimentConfig(tau_grid=0.2).validate()),
    ("ks", lambda: evaluate(init_embeddings(3, 5, 4, seed=0), small_split(), 20)),
], ids=["eval_ks", "eval_ks_text", "tau_grid", "evaluate_ks"])
def test_a_bare_value_in_a_list_setting_is_a_config_error_naming_it(name, call):
    with pytest.raises(ConfigError, match=f"^{name} must be a list of numbers"):
        call()


@pytest.mark.parametrize("name", ["embedding_dim", "n_negatives", "batch_size", "epochs",
                                  "rng_seed"])
def test_a_huge_whole_count_fails_validation_naming_it(name):
    with pytest.raises(ConfigError, match=f"^{name} must"):
        TrainConfig(**{name: 10**400}).validate()


def test_every_setting_reads_back_its_own_text():
    cfg = ExperimentConfig(
        train_file="a/train.txt", test_file="a/test.txt", eval_every=3, eval_ks=(5, 10),
        tau_grid=(0.2, 0.3),
        loss=LossSpec(kind=LossKind.BSL, tau=0.3, tau_pos=0.4, tau_neg=0.5,
                      bce_mse_balance=0.7, bsl_form=BslForm.CANONICAL),
        train=TrainConfig(embedding_dim=8, learning_rate=0.01, l2_reg=1e-4, n_negatives=5,
                          batch_size=32, epochs=3, sampling_mode=SamplingMode.IN_BATCH,
                          neg_sampler=NegSampler.POPULARITY, popularity_exponent=0.5,
                          r_noise=0.25, pos_noise_ratio=0.1, rng_seed=9))
    defaults = config_as_dict(ExperimentConfig())
    assert [key for key, value in config_as_dict(cfg).items() if value == defaults[key]] == []
    assert build_config(config_as_dict(cfg)) == cfg


def numeric_settings():
    """(class, field, declared type) of every numeric setting of the config classes."""
    numeric = (int, float, tuple[int, ...], tuple[float, ...])
    for cls in (ExperimentConfig, LossSpec, TrainConfig):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            if hints[f.name] in numeric:
                yield cls, f.name, hints[f.name]


def bad_value_cases():
    for cls, name, hint in numeric_settings():
        default = getattr(cls(), name)
        for value in [math.nan] + ([2.5] if int in (hint, *typing.get_args(hint)) else []):
            if isinstance(default, tuple):  # each entry in turn
                for i in range(len(default)):
                    yield pytest.param(cls, name, default[:i] + (value,) + default[i + 1:],
                                       id=f"{name}[{i}]-{value}")
            else:
                yield pytest.param(cls, name, value, id=f"{name}-{value}")


@pytest.mark.parametrize("cls, name, value", list(bad_value_cases()))
def test_nan_or_fraction_in_a_numeric_setting_fails_naming_it(cls, name, value):
    if cls is ExperimentConfig:
        cfg = ExperimentConfig(**{name: value})
    else:
        section = "train" if cls is TrainConfig else "loss"
        cfg = ExperimentConfig(**{section: cls(**{name: value})})
    with pytest.raises(ConfigError, match=f"^{name} must"):
        cfg.validate()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_builds_and_names_every_key():
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    pairs = parse_config_text(block, source=str(README))
    build_config(pairs)
    assert sorted(pairs) == sorted(CONFIG_KEYS)
