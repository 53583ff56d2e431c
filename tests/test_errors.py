"""The user-facing errors that no other test reaches: each raises its own
exception type with its own message."""

import re

import numpy as np
import pytest

from recdro.config import (ConfigError, LossSpec, NegSampler, TrainConfig, check_whole,
                           parse_config_text, spec_with_tau)
from recdro.data import DataFormatError, Dataset, load_dataset
from recdro.dro import worst_case_weights
from recdro.losses import ScoreBatch, bsl_loss, loss_fn_from_spec
from recdro.model import CheckpointError, load_checkpoint, train
from recdro.sampling import (SamplerState, popularity_weights_from_counts,
                             positive_fraction, sample_negatives)
from recdro.synthetic import dataset_with_popularity


def negative_id_file(tmp):
    (tmp / "train.txt").write_text("0 1 2\n1 -3\n")
    (tmp / "test.txt").write_text("")
    load_dataset(tmp / "train.txt", tmp / "test.txt")


def future_checkpoint(tmp):
    np.savez(tmp / "m.npz", version=np.array("9"), user_vecs=np.zeros((1, 2)),
             item_vecs=np.zeros((1, 2)), epoch=np.array(0), seed=np.array(0))
    load_checkpoint(tmp / "m.npz")


def one_user_split():
    return Dataset.from_positive_lists([[0]], [[]], n_items=4)


CASES = {
    "non-numeric-whole": (lambda tmp: check_whole("epochs", "ten"), ConfigError,
                          "epochs must be a whole number, got 'ten'"),
    "config-line-without-equals": (lambda tmp: parse_config_text("epochs 5"), ConfigError,
                                   "<config>:1: expected 'key = value'"),
    "unknown-temperature": (lambda tmp: spec_with_tau(LossSpec(), "tau_mid", 0.1),
                            ValueError, "unknown temperature parameter 'tau_mid'"),
    "negative-id-in-list": (lambda tmp: Dataset.from_positive_lists([[0, -2]], [[]]),
                            DataFormatError, "negative id in train list of user 0"),
    "negative-id-in-file": (negative_id_file, DataFormatError, "train.txt:2: negative id"),
    "too-few-users": (lambda tmp: Dataset.from_positive_lists([[0], [1]], [[]], n_users=1),
                      DataFormatError, "n_users=1 smaller than number of user lists 2"),
    "too-few-items": (lambda tmp: Dataset.from_positive_lists([[0, 3]], [[]], n_items=3),
                      DataFormatError, "n_items=3 smaller than max item id + 1 (4)"),
    "empty-scores": (lambda tmp: worst_case_weights([], [], 0.1), ValueError,
                     "empty score vector"),
    "non-finite-scores": (lambda tmp: worst_case_weights([0.0, np.nan], [0.5, 0.5], 0.1),
                          ValueError, "scores must be finite"),
    "zero-base-entry": (lambda tmp: worst_case_weights([0.0, 1.0], [1.0, 0.0], 0.1),
                        ValueError, "base distribution entries must be > 0"),
    "base-not-summing-to-1": (lambda tmp: worst_case_weights([0.0, 1.0], [0.5, 0.6], 0.1),
                              ValueError, "base distribution must sum to 1"),
    "2d-positives": (lambda tmp: ScoreBatch(np.zeros((2, 1)), np.zeros((2, 3))),
                     ValueError, "pos_scores must be 1-D"),
    "1d-negatives": (lambda tmp: ScoreBatch(np.zeros(2), np.zeros(2)), ValueError,
                     "neg_scores must be 2-D"),
    "unknown-bsl-form": (
        lambda tmp: bsl_loss(ScoreBatch(np.zeros(2), np.zeros((2, 3))), 0.1, 0.1,
                             form="grouped"),
        ValueError, "unknown form 'grouped'"),
    "unknown-loss-kind": (lambda tmp: loss_fn_from_spec(LossSpec(kind="hinge")),
                          ValueError, "unknown loss kind 'hinge'"),
    "no-training-interactions": (
        lambda tmp: train(Dataset.from_positive_lists([[], []], [[0], [1]]),
                          TrainConfig(embedding_dim=2, epochs=1), LossSpec()),
        ValueError, "dataset has no training interactions"),
    "unsupported-checkpoint": (future_checkpoint, CheckpointError,
                               "unsupported checkpoint version '9'"),
    "no-negatives-asked": (
        lambda tmp: sample_negatives(SamplerState.create(seed=0), one_user_split(), 0, 0),
        ValueError, "n must be >= 1"),
    "popularity-weights-of-wrong-length": (
        lambda tmp: sample_negatives(
            SamplerState.create(seed=0, mode=NegSampler.POPULARITY,
                                popularity_weights=np.ones(3)), one_user_split(), 0, 2),
        ValueError, "popularity_weights length must equal n_items"),
    "empty-support": (lambda tmp: positive_fraction(0.0, 3, 0), ValueError,
                      "empty sampling support"),
    "negative-popularity-count": (lambda tmp: popularity_weights_from_counts([1, -1]),
                                  ValueError, "counts must be nonnegative"),
    "negative-planted-count": (lambda tmp: dataset_with_popularity([1, -1]), ValueError,
                               "counts must be nonnegative"),
}


@pytest.mark.parametrize("call, exc, message", CASES.values(), ids=CASES.keys())
def test_error_type_and_message(tmp_path, call, exc, message):
    with pytest.raises(exc, match=re.escape(message)):
        call(tmp_path)
