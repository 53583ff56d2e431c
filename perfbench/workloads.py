"""The benchmark's three workloads: seeded inputs, one timed iteration, checks.

Every call into recdro that the benchmark times goes through a module
attribute (``model.train``, ``evaluate.evaluate``, ``cli.main``, ...), so
that the spans :mod:`tracer` patches in are the ones that run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import shutil
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import recdro.cli  # noqa: F401  (the package does not import cli itself)
from recdro.config import (BslForm, LossKind, LossSpec, NegSampler,
                           SamplingMode, TrainConfig)
from recdro.synthetic import zipf_preferences

data = sys.modules["recdro.data"]
model = sys.modules["recdro.model"]
evaluate = sys.modules["recdro.evaluate"]
cli = sys.modules["recdro.cli"]

#: Users re-ranked by the brute-force oracle after every iteration.
CHECK_USERS = 64
CUTOFF = 20


@dataclass(frozen=True)
class Sizes:
    n_users: int
    n_items: int
    per_user: int


@dataclass
class Outcome:
    """One iteration: its wall time, operations and the checks' verdict."""

    wall_s: float
    attempted: int
    failed: int
    ndcg_at_20: float
    fingerprint: str


@dataclass
class Inputs:
    """Generated per-user lists; the benchmark's own copy for the oracle."""

    train: list
    test: list
    n_items: int
    check: object  # Dataset holding only the sampled users' test lists
    check_users: list


def generate(sizes: Sizes, seed: int, tight_items: bool = False) -> Inputs:
    """Seeded inputs plus the oracle's user sample (never timed).

    ``tight_items`` sizes the catalog by the largest item id drawn, as a
    load from text files does.
    """
    ds = zipf_preferences(n_users=sizes.n_users, n_items=sizes.n_items,
                          interactions_per_user=sizes.per_user, seed=seed)
    train = [a.copy() for a in ds.train_pos]
    test = [a.copy() for a in ds.test_pos]
    rng = np.random.default_rng(seed)
    with_test = [u for u, t in enumerate(test) if t.size]
    users = sorted(int(u) for u in rng.choice(with_test, replace=False,
                                               size=min(CHECK_USERS, len(with_test))))
    chosen = set(users)
    check = data.Dataset.from_positive_lists(
        train, [t if u in chosen else [] for u, t in enumerate(test)],
        n_users=sizes.n_users, n_items=None if tight_items else sizes.n_items)
    return Inputs(train, test, check.n_items, check, users)


def table_fingerprint(emb) -> str:
    h = hashlib.sha256()
    for table in (emb.user_vecs, emb.item_vecs):
        h.update(np.ascontiguousarray(table, dtype="<f8").tobytes())
    return h.hexdigest()


def oracle_mismatches(emb, inputs: Inputs) -> int:
    """Sampled users failed by the exactness check of criterion c06.

    ``evaluate`` on the sampled users must give exactly the Recall@20 and
    NDCG@20 of an independent ranking: descending score, ascending id,
    training items excluded. A mismatch fails every sampled user.
    """
    discounts = 1.0 / np.log2(np.arange(2, CUTOFF + 2))
    all_items = np.arange(inputs.n_items)
    recalls, ndcgs = [], []
    for u in inputs.check_users:
        scores = model.score_all_items(emb, u)
        keep = np.setdiff1d(all_items, inputs.train[u])
        top = keep[np.lexsort((keep, -scores[keep]))][:CUTOFF]
        test = inputs.test[u]
        hit_ranks = np.flatnonzero(np.isin(top, test))
        recalls.append(hit_ranks.size / test.size)
        ndcgs.append(float(discounts[hit_ranks].sum())
                     / discounts[:min(CUTOFF, test.size)].sum())
    report = evaluate.evaluate(emb, inputs.check, [CUTOFF],
                               n_groups=min(10, inputs.n_items))
    exact = (report.recall[CUTOFF] == float(np.mean(recalls))
             and report.ndcg[CUTOFF] == float(np.mean(ndcgs)))
    return 0 if exact else len(inputs.check_users)


def _batches_per_epoch(inputs: Inputs, batch_size: int) -> int:
    return math.ceil(sum(t.size for t in inputs.train) / batch_size)


def _n_eval_users(inputs: Inputs) -> int:
    return sum(1 for t in inputs.test if t.size)


class LibraryWorkload:
    """``train()`` then one ``evaluate(ks=[20])`` through the library API.

    ``min_ndcg`` is a quality floor on NDCG@20, far below what the workload
    reaches and far above chance; an iteration under it fails its users.
    """

    def __init__(self, sizes: Sizes, cfg: TrainConfig, spec: LossSpec,
                 min_ndcg: float = 0.0):
        self.sizes, self.cfg, self.spec, self.min_ndcg = sizes, cfg, spec, min_ndcg

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        self.cfg = replace(self.cfg, rng_seed=seed)
        self.inputs = generate(self.sizes, seed)
        return self.inputs

    def build(self, inputs: Inputs):
        return data.Dataset.from_positive_lists(inputs.train, inputs.test,
                                                n_users=self.sizes.n_users,
                                                n_items=self.sizes.n_items)

    def iterate(self, ds, index: int, instrumented) -> Outcome:
        cfg, inputs = self.cfg, self.inputs
        per_epoch = _batches_per_epoch(inputs, cfg.batch_size)
        users = _n_eval_users(inputs)
        attempted = cfg.epochs * per_epoch + users
        with instrumented():
            start = perf_counter()
            try:
                emb, log = model.train(ds, cfg, self.spec)
                report = evaluate.evaluate(emb, ds, [CUTOFF])
            except Exception:
                traceback.print_exc()
                return Outcome(perf_counter() - start, attempted, attempted, math.nan, "")
            wall = perf_counter() - start
        ndcg = report.ndcg[CUTOFF]
        try:
            failed = per_epoch * sum(1 for e in log if not math.isfinite(e["mean_loss"]))
            failed += oracle_mismatches(emb, inputs)
        except Exception:
            traceback.print_exc()
            failed = attempted
        if not ndcg >= self.min_ndcg:
            failed += users
        return Outcome(wall, attempted, min(failed, attempted), ndcg, table_fingerprint(emb))


class CliWorkload:
    """In-process ``recdro train`` on adjacency text files."""

    def __init__(self, sizes: Sizes, settings: dict[str, str]):
        self.sizes, self.settings = sizes, settings

    def make_inputs(self, seed: int, workdir: Path) -> tuple[Path, Path]:
        self.inputs = generate(self.sizes, seed, tight_items=True)
        self.workdir = workdir
        train_path, test_path = workdir / "train.txt", workdir / "test.txt"
        with open(train_path, "w", encoding="utf-8") as fh:
            for u, items in enumerate(self.inputs.train):
                fh.write(" ".join(map(str, [u, *items])) + "\n")
        with open(test_path, "w", encoding="utf-8") as fh:
            for u, items in enumerate(self.inputs.test):
                if items.size:
                    fh.write(" ".join(map(str, [u, *items])) + "\n")
        settings = dict(self.settings, train_file=str(train_path),
                        test_file=str(test_path), rng_seed=str(seed))
        self.config_path = workdir / "train.cfg"
        self.config_path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()),
                                    encoding="utf-8")
        return train_path, test_path

    def build(self, inputs):
        return data.load_dataset(*inputs)

    def iterate(self, ds, index: int, instrumented) -> Outcome:
        epochs = int(self.settings["epochs"])
        per_epoch = _batches_per_epoch(self.inputs, int(self.settings["batch_size"]))
        evals = epochs // int(self.settings["eval_every"])
        attempted = 1 + epochs * per_epoch + evals * _n_eval_users(self.inputs)
        out_dir = self.workdir / f"run{index}"
        with instrumented():
            start = perf_counter()
            try:
                rc = cli.main(["train", "--config", str(self.config_path),
                               "--out", str(out_dir)])
            except Exception:
                traceback.print_exc()
                rc = None
            wall = perf_counter() - start
        failed_run = Outcome(wall, attempted, attempted, math.nan, "")
        try:
            if rc != 0:
                return failed_run
            csv_bytes = (out_dir / "epochs.csv").read_bytes()
            rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
            if len(rows) != epochs:
                return failed_run
            failed = per_epoch * sum(1 for r in rows if not math.isfinite(float(r["mean_loss"])))
            failed += oracle_mismatches(model.load_checkpoint(out_dir / "last.npz").emb,
                                        self.inputs)
            return Outcome(wall, attempted, failed, float(rows[-1][f"ndcg@{CUTOFF}"]),
                           hashlib.sha256(csv_bytes).hexdigest())
        except Exception:
            traceback.print_exc()
            return failed_run
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


_COMMON = dict(embedding_dim=64, learning_rate=0.01, n_negatives=64, batch_size=1024)

#: name -> (sizes, toy sizes for the smoke test, factory). The reasons for
#: each workload are in BENCHMARK.json and README.md.
WORKLOADS = {
    "sl-narrow": (
        Sizes(1000, 1500, 30), Sizes(100, 60, 12),
        lambda sizes, toy: LibraryWorkload(
            sizes, TrainConfig(epochs=3, neg_sampler=NegSampler.UNIFORM, **_COMMON),
            LossSpec(kind=LossKind.SL, tau=0.1), min_ndcg=0.0 if toy else 0.2)),
    "bsl-pop-wide": (
        Sizes(500, 20000, 20), Sizes(100, 400, 10),
        lambda sizes, toy: LibraryWorkload(
            sizes, TrainConfig(epochs=1, neg_sampler=NegSampler.POPULARITY,
                               r_noise=0.1, **_COMMON),
            LossSpec(kind=LossKind.BSL, tau_pos=0.1, tau_neg=0.1,
                     bsl_form=BslForm.CANONICAL))),
    "cli-inbatch-eval": (
        Sizes(1000, 6000, 30), Sizes(100, 200, 12),
        lambda sizes, toy: CliWorkload(sizes, {
            "loss": "sl", "tau": "0.1", "sampling_mode": SamplingMode.IN_BATCH.value,
            "embedding_dim": "64", "learning_rate": "0.01", "batch_size": "1024",
            "epochs": "3", "eval_every": "1", "eval_ks": "10,20"})),
}


def make_workload(name: str, toy: bool = False):
    full, small, factory = WORKLOADS[name]
    return factory(small if toy else full, toy)
