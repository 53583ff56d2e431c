"""Full-ranking evaluation: Recall@K, NDCG@K, popularity groups, sweeps."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (DEFAULT_TAU_GRID, MIN_TAU, LossKind, LossSpec, SamplingMode,
                     TrainConfig, check_values, check_whole, spec_with_tau)
from .data import Dataset, popularity_groups
from .dro import estimate_eta
from .model import (EmbeddingTable, _normalize_rows, cosine_score,
                    score_block_bounds, train)
# the per-user scorer evaluate() reproduces; bound here so that profilers can
# patch it by name beside rank_items
from .model import score_all_items  # noqa: F401
from .sampling import (SamplerState, complement_ids, prepare_dataset,
                       sample_negatives)

#: Non-training items per evaluated user pooled into ``neg_score_variance``.
VARIANCE_SAMPLES_PER_USER = 100
#: Users, and the sampler seed, behind :func:`negative_radius_estimates`.
RADIUS_USERS = 100
RADIUS_SEED = 7


@dataclass(frozen=True)
class EvalReport:
    """Ranking metrics averaged over users with test interactions.

    ``group_ndcg[g]`` is the average per-user NDCG mass contributed by hits
    on items of popularity group ``g`` (larger ids = more popular items), so
    the entries sum to the overall NDCG at the grouping cutoff.
    """

    recall: dict[int, float]
    ndcg: dict[int, float]
    group_ndcg: np.ndarray
    group_cutoff: int
    neg_score_variance: float
    n_eval_users: int


def selection_cutoff(ks) -> int:
    """The NDCG cutoff that selects models: 20 when evaluated, else the largest."""
    return 20 if 20 in ks else max(ks)


def rank_items(scores: np.ndarray, exclude_items=None) -> np.ndarray:
    """Full item ranking by descending score, ties broken by ascending id.

    ``exclude_items`` are pushed to the bottom (used to drop training items
    from the candidate list). Only relative score order matters, so any
    strictly increasing transform of the scores yields the same ranking.
    """
    masked = np.asarray(scores, dtype=np.float64).copy()
    if exclude_items is not None:
        masked[np.asarray(exclude_items, dtype=np.int64)] = -np.inf
    return np.argsort(-masked, kind="stable")


def _top_k(scores: np.ndarray, exclude_items, k: int) -> np.ndarray:
    """``rank_items(scores, exclude_items)[:k]`` without a full sort.

    The k-th smallest negated score is a threshold; every item at or below
    it (ties included) is a candidate, and the candidates are ordered by
    (negated score, id), which is the stable sort's order restricted to them.
    """
    neg = -np.asarray(scores, dtype=np.float64)
    neg[np.asarray(exclude_items, dtype=np.int64)] = np.inf
    kth = min(k, neg.size) - 1
    threshold = np.partition(neg, kth)[kth]
    # `not >` rather than `<=` keeps NaN scores, which the stable sort puts last
    candidates = np.flatnonzero(~(neg > threshold))
    return candidates[np.lexsort((candidates, neg[candidates]))][:k]


def evaluate(emb: EmbeddingTable, ds: Dataset, ks, n_groups: int = 10) -> EvalReport:
    """Rank every item per user (training items excluded) and score the split.

    Items are scored by cosine similarity; ties are broken by ascending item
    id. Every cutoff in ``ks`` must be a whole number of at least 1. Users
    with empty test sets are skipped entirely; it is an error if no user
    has test items. ``neg_score_variance`` pools
    ``VARIANCE_SAMPLES_PER_USER`` non-training items per evaluated user, drawn
    uniformly from a stream seeded with 0, and reports the population
    variance of their scores.

    Users are scored a block at a time over the fixed partition of
    :func:`~recdro.model.score_block_bounds`: one GEMM of the block's unit
    user rows against the unit item table, computed once for each block that
    holds an evaluated user. The scores are that GEMM's bits, which are
    exactly what :func:`~recdro.model.score_all_items` returns. A block
    holds :func:`~recdro.model.score_block_rows` users: about 2 MiB of scores
    up to 4096 items, and 64 users (``512 * n_items`` bytes) on a wider
    catalog, so the scores in memory are bounded by the catalog, not by
    users x items. Only the split's ``ds.n_items`` items are candidates: rows
    of a larger item table past the catalog are never ranked. A table with
    fewer users or items than ``ds`` is a ``ValueError``. ``n_groups`` is
    clamped to ``ds.n_items``, so ``group_ndcg`` has
    ``min(n_groups, ds.n_items)`` entries.
    """
    ks = sorted(check_whole("ks", k) for k in check_values("ks", ks, 1))
    if emb.n_users < ds.n_users or emb.n_items < ds.n_items:
        raise ValueError(f"embedding table of {emb.n_users} users x {emb.n_items} items "
                         f"is smaller than the dataset's {ds.n_users} x {ds.n_items}")
    kmax = ks[-1]
    group_cutoff = selection_cutoff(ks)
    n_groups = min(check_whole("n_groups", n_groups), ds.n_items)
    groups = popularity_groups(ds, n_groups)

    eval_users = [u for u in range(ds.n_users) if ds.test_pos[u].size]
    if not eval_users:
        raise ValueError("no user has test items")

    rng = np.random.default_rng(0)
    discounts = 1.0 / np.log2(np.arange(2, kmax + 2))
    # idcg[n] is the DCG of n hits at the top, summed as a user's DCG is
    max_test = max(ds.test_pos[u].size for u in eval_users)
    idcg = [discounts[:n].sum() for n in range(min(kmax, max_test) + 1)]

    recall_acc = {k: [] for k in ks}
    ndcg_acc = {k: [] for k in ks}
    group_acc = np.zeros(n_groups)

    u_hat, _, _ = _normalize_rows(emb.user_vecs)
    i_hat, _, _ = _normalize_rows(emb.item_vecs)
    # one block buffer and one variance pool per call: a block per GEMM and
    # an array per user fragment the heap, and the training batches between
    # evaluations then page-fault several times as often
    lo, hi = score_block_bounds(0, emb.n_users, emb.n_items)
    block_buf = np.empty((hi - lo, emb.n_items))
    pooled = np.empty(len(eval_users) * VARIANCE_SAMPLES_PER_USER)
    n_pooled = 0
    block_lo = -1

    for u in eval_users:
        lo, hi = score_block_bounds(u, emb.n_users, emb.n_items)
        if lo != block_lo:
            # score_all_items' product, cut to the split's catalog
            block = np.matmul(u_hat[lo:hi], i_hat.T, out=block_buf[:hi - lo])
            block_lo, block = lo, block[:, :ds.n_items]
        scores = block[u - lo]
        train_items, test_items = ds.train_pos[u], ds.test_pos[u]
        topk = _top_k(scores, train_items, kmax)
        n_test = test_items.size
        # test_items is sorted: a hit is where searchsorted lands on an equal id
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
            # choice() over a count makes the RNG calls of choice() over the
            # non-training ids themselves; their ranks map back to the ids
            ranks = rng.choice(n_neg, size=take, replace=False)
            np.take(scores, complement_ids(train_items, ranks),
                    out=pooled[n_pooled:n_pooled + take])
            n_pooled += take

    n_eval = len(eval_users)
    pooled = pooled[:n_pooled]
    return EvalReport(
        recall={k: float(np.mean(recall_acc[k])) for k in ks},
        ndcg={k: float(np.mean(ndcg_acc[k])) for k in ks},
        group_ndcg=group_acc / n_eval,
        group_cutoff=group_cutoff,
        neg_score_variance=float(np.var(pooled)) if pooled.size else float("nan"),
        n_eval_users=n_eval,
    )


def report_as_dict(report: EvalReport) -> dict:
    return {
        "recall": {str(k): v for k, v in report.recall.items()},
        "ndcg": {str(k): v for k, v in report.ndcg.items()},
        "group_ndcg": [float(v) for v in report.group_ndcg],
        "group_cutoff": report.group_cutoff,
        "neg_score_variance": report.neg_score_variance,
        "n_eval_users": report.n_eval_users,
    }


def report_rows(report: EvalReport) -> list[tuple[str, str, str]]:
    """Flatten a report to (metric, key, value) CSV rows."""
    rows = [("recall", str(k), repr(v)) for k, v in report.recall.items()]
    rows += [("ndcg", str(k), repr(v)) for k, v in report.ndcg.items()]
    rows += [("group_ndcg", str(g), repr(float(v)))
             for g, v in enumerate(report.group_ndcg)]
    rows.append(("neg_score_variance", "", repr(report.neg_score_variance)))
    rows.append(("n_eval_users", "", str(report.n_eval_users)))
    return rows


def default_tau_param(kind: LossKind, positive_side: bool = False) -> str | None:
    """Which LossSpec temperature a grid search should vary for this loss.

    None for a temperature-free loss: BPR, BCE, MSE and SL_NOVAR, whose
    gradient does not depend on ``tau`` (it only checks it).
    """
    if kind is LossKind.SL:
        return "tau"
    if kind is LossKind.BSL:
        return "tau_pos" if positive_side else "tau_neg"
    return None


@dataclass(frozen=True)
class GridSearchResult:
    best_tau: float
    best_spec: LossSpec
    emb: EmbeddingTable
    report: EvalReport


def grid_search_train(ds: Dataset, cfg: TrainConfig, spec: LossSpec,
                      tau_grid=None, tau_param: str | None = "auto",
                      eval_ks=(20,), n_groups: int = 10) -> GridSearchResult:
    """Train once per grid temperature and keep the best NDCG model.

    ``tau_param`` picks which LossSpec field the grid drives ("tau",
    "tau_pos" or "tau_neg"); "auto" resolves it from the loss kind, and
    ``None`` (or a temperature-free loss) collapses the grid to one run.
    ``tau_grid=None`` means :data:`DEFAULT_TAU_GRID`; every grid temperature
    is checked, and an empty grid rejected, before the first one trains.
    """
    if tau_param == "auto":
        tau_param = default_tau_param(spec.kind)
    grid = check_values("tau_grid", DEFAULT_TAU_GRID if tau_grid is None else tau_grid,
                        MIN_TAU)
    if tau_param is None:
        grid = (math.nan,)
    select_k = selection_cutoff(eval_ks)

    best = None
    for tau in grid:
        cell_spec = spec if tau_param is None else spec_with_tau(spec, tau_param, tau)
        emb, _ = train(ds, cfg, cell_spec)
        report = evaluate(emb, ds, eval_ks, n_groups=n_groups)
        score = report.ndcg[select_k]
        if best is None or score > best[0]:
            best = (score, tau, cell_spec, emb, report)
    _, best_tau, best_spec, emb, report = best
    return GridSearchResult(best_tau=best_tau, best_spec=best_spec, emb=emb,
                            report=report)


def negative_radius_estimates(emb: EmbeddingTable, ds: Dataset, cfg: TrainConfig,
                              tau: float) -> np.ndarray:
    """Per-user implied KL radius of sampled negative-score batches.

    For each of the first ``RADIUS_USERS`` users with both training items and
    negatives (``0 < |train| < n_items``, the rule of ``recdro dro-diagnose``),
    sample the configured number of negatives (sampler seeded with ``RADIUS_SEED``),
    score them, and convert the score variance into a radius at temperature
    ``tau`` (uniform base).
    """
    sampler = SamplerState.for_config(ds, cfg, seed=RADIUS_SEED)
    out = []
    for u in range(ds.n_users):
        if len(out) >= RADIUS_USERS:
            break
        if not 0 < ds.train_pos[u].size < ds.n_items:
            continue
        items = sample_negatives(sampler, ds, u, cfg.n_negatives)
        scores, _ = cosine_score(emb, u, items)
        base = np.full(items.size, 1.0 / items.size)
        out.append(estimate_eta(scores, base, tau))
    return np.asarray(out)


@dataclass(frozen=True)
class NoiseSweepRow:
    """One sweep cell; an axis that was not swept reads None."""

    r_noise: float | None
    pos_noise_ratio: float | None
    n_negatives: int | None
    best_tau: float
    recall: float
    ndcg: float
    eta_mean: float
    eta_median: float


def _shared(cache: dict, keys: list, i: int, make):
    """``cache[keys[i]]``, made by ``make()`` at the first cell with that key
    and dropped from ``cache`` at the last."""
    if keys[i] not in cache:
        cache[keys[i]] = make()
    return cache[keys[i]] if keys[i] in keys[i + 1:] else cache.pop(keys[i])


def noise_sweep(ds: Dataset, cfg: TrainConfig, spec: LossSpec, r_values=(),
                tau_grid=None, eval_ks=(20,), n_negatives_values=(),
                pos_noise_values=()) -> list[NoiseSweepRow]:
    """Grid-search the temperature in every cell of a noise sweep.

    The axes are the false-negative weight ``r_values`` (``cfg.r_noise``),
    the false-positive ratio ``pos_noise_values`` (injected by
    :func:`prepare_dataset`, seeded with ``cfg.rng_seed``) and the sample
    count ``n_negatives_values``; an empty axis keeps ``cfg``'s setting, so
    without a pos-noise axis the split carries ``cfg.pos_noise_ratio``.
    Cells run pos-noise, then r_noise, then n_negatives. Every cell's config
    passes :meth:`TrainConfig.validate`, and ``tau_grid`` the temperature
    rule, before the first cell trains.

    Each row reports the best-temperature metrics at the selection cutoff and
    the mean/median implied radius of negative batches under that model,
    taken at ``tau_neg`` for BSL and ``tau`` otherwise. Giving the pos-noise
    axis makes BSL grid ``tau_pos``, the temperature that counters positive
    noise. Temperature-free losses train once per cell and report a NaN
    ``best_tau`` and radii.

    Cells at one pos-noise level share one prepared split. Cells that train
    the same models share one grid search: cells with equal configs, and in
    in-batch mode, which reads no sampler setting, every cell at one
    pos-noise level. The radius is still estimated per cell.
    """
    p_axis = [float(p) for p in pos_noise_values]
    cells = []
    for p, r, n_neg in itertools.product(p_axis or [None],
                                         [float(r) for r in r_values] or [None],
                                         [int(n) for n in n_negatives_values] or [None]):
        settings = {"pos_noise_ratio": p, "r_noise": r, "n_negatives": n_neg}
        cell_cfg = replace(cfg, **{k: v for k, v in settings.items() if v is not None})
        cell_cfg.validate()
        cells.append((p, r, n_neg, cell_cfg))
    select_k = selection_cutoff(eval_ks)
    tau_param = default_tau_param(spec.kind, positive_side=bool(p_axis))
    # the radius is read at the negative-side temperature
    eta_param = default_tau_param(spec.kind)
    # one split per pos-noise level and one grid per key, each made at the
    # first cell with its key and kept until the last
    ratios = [cell_cfg.pos_noise_ratio for *_, cell_cfg in cells]
    in_batch = cfg.sampling_mode is SamplingMode.IN_BATCH
    keys = ratios if in_batch else [cell_cfg for *_, cell_cfg in cells]
    splits, grids = {}, {}
    rows = []
    for i, (p, r, n_neg, cell_cfg) in enumerate(cells):
        ds_p = _shared(splits, ratios, i, lambda: prepare_dataset(ds, cell_cfg)[0])
        # the ratio is spent on the split, as prepare_dataset spends it
        cell_cfg = replace(cell_cfg, pos_noise_ratio=0.0)
        result = _shared(grids, keys, i, lambda: grid_search_train(
            ds_p, cell_cfg, spec, tau_grid=tau_grid, tau_param=tau_param, eval_ks=eval_ks))
        if eta_param is None:
            eta_mean = eta_median = float("nan")
        else:
            etas = negative_radius_estimates(result.emb, ds_p, cell_cfg,
                                             getattr(result.best_spec, eta_param))
            eta_mean = float(np.mean(etas))
            eta_median = float(np.median(etas))
        rows.append(NoiseSweepRow(
            r_noise=r, pos_noise_ratio=p, n_negatives=n_neg,
            best_tau=result.best_tau,
            recall=result.report.recall[select_k],
            ndcg=result.report.ndcg[select_k],
            eta_mean=eta_mean, eta_median=eta_median))
    return rows
