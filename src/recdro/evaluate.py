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
                    score_block_bounds, score_block_rows, train)
# the per-user scorer evaluate() reproduces; bound here so that profilers can
# patch it by name beside rank_items
from .model import score_all_items  # noqa: F401
from .sampling import (SamplerState, _batch_csr, batch_complement_ids,
                       prepare_dataset, sample_negatives)

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
    catalog. Only the split's ``ds.n_items`` items are candidates: rows
    of a larger item table past the catalog are never ranked. A table with
    fewer users or items than ``ds`` is a ``ValueError``. ``n_groups`` is
    clamped to ``ds.n_items``, so ``group_ndcg`` has
    ``min(n_groups, ds.n_items)`` entries.

    Per user, only two steps run: the top ``max(ks)`` of the user's block
    row (:func:`_top_k`) and the variance pool's ``choice`` of ranks among
    the user's non-training items, whose stream is drawn user by user. Per
    block, one :func:`~recdro.sampling.batch_complement_ids` call maps the
    block's ranks to item ids and one gather pools their scores. Once per
    call, hits, Recall@k, NDCG@k and the group NDCG are read off the
    ``(users, min(max(ks), n_items))`` top-k array, each summed in the
    per-user order, so every figure keeps the bits of a per-user loop.
    Memory beyond the score block grows with users x max(ks) and the pool of
    ``VARIANCE_SAMPLES_PER_USER`` scores per user, never with users x items.
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
    n_eval = len(eval_users)
    users = np.array(eval_users, dtype=np.int64)
    n_test = np.array([ds.test_pos[u].size for u in eval_users])
    n_neg = ds.n_items - (ds.indptr[users + 1] - ds.indptr[users])
    take = np.minimum(VARIANCE_SAMPLES_PER_USER, n_neg)
    # user e's variance draws fill pooled[first[e]:first[e + 1]]
    first = np.zeros(n_eval + 1, dtype=np.int64)
    np.cumsum(take, out=first[1:])

    u_hat, _, _ = _normalize_rows(emb.user_vecs)
    i_hat, _, _ = _normalize_rows(emb.item_vecs)
    # one block buffer, one rank buffer and one variance pool per call: a
    # block per GEMM and an array per user fragment the heap, and the
    # training batches between evaluations then page-fault several times
    # as often
    rows = score_block_rows(emb.n_items)
    block_buf = np.empty((min(rows, emb.n_users), emb.n_items))
    rank_buf = np.empty(min(rows, n_eval) * VARIANCE_SAMPLES_PER_USER, dtype=np.int64)
    pooled = np.empty(first[-1])
    topk = np.empty((n_eval, min(kmax, ds.n_items)), dtype=np.int64)

    rng = np.random.default_rng(0)
    # eval users [a, b) share the block that starts at users[a]'s lo
    cuts = np.flatnonzero(np.diff(users // rows)) + 1
    for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), n_eval]):
        lo, hi = score_block_bounds(eval_users[a], emb.n_users, emb.n_items)
        # score_all_items' product, cut to the split's catalog
        block = np.matmul(u_hat[lo:hi], i_hat.T, out=block_buf[:hi - lo])[:, :ds.n_items]
        base = first[a]
        for e, u, n, t, f in zip(range(a, b), eval_users[a:b], n_neg[a:b].tolist(),
                                 take[a:b].tolist(), (first[a:b] - base).tolist()):
            topk[e] = _top_k(block[u - lo], ds.train_pos[u], kmax)
            # choice() over a count makes the RNG calls of choice() over the
            # non-training ids themselves; their ranks map back to ids below
            rank_buf[f:f + t] = rng.choice(n, size=t, replace=False)
        owner = np.repeat(np.arange(b - a), take[a:b])
        ids = batch_complement_ids(*_batch_csr(ds, users[a:b]), ds.n_items, owner,
                                   rank_buf[:first[b] - base])
        # the ids' scores, read off the flat block buffer
        ids += ((users[a:b] - lo) * emb.n_items)[owner]
        np.take(block_buf, ids, out=pooled[base:first[b]])

    # hits: test keys are sorted per user, and a sentinel above every key
    # keeps the search on the array
    n_items = ds.n_items
    test_keys = np.append(np.repeat(np.arange(n_eval), n_test) * n_items
                          + np.concatenate([ds.test_pos[u] for u in eval_users]),
                          n_eval * n_items)
    keys = np.arange(n_eval)[:, None] * n_items + topk
    hits = test_keys[test_keys.searchsorted(keys)] == keys

    discounts = 1.0 / np.log2(np.arange(2, kmax + 2))
    # idcg[n] is the DCG of n hits at the top, summed as a user's DCG is
    idcg = np.array([discounts[:n].sum() for n in range(min(kmax, int(n_test.max())) + 1)])
    # each row's hit discounts packed to its front in rank order: a user's
    # DCG@k is the sum of its first h_k, taken as the per-user sum is, over
    # the rows with equal h_k (an empty sum is 0.0)
    packed = discounts[np.argsort(~hits, axis=1, kind="stable")]
    recall, ndcg = {}, {}
    for k in ks:
        h = np.count_nonzero(hits[:, :k], axis=1)
        dcg = np.zeros(n_eval)
        for n in np.unique(h[h > 0]).tolist():
            at = np.flatnonzero(h == n)
            dcg[at] = packed[at, :n].sum(axis=1)
        recall[k] = float(np.mean(h / n_test))
        ndcg[k] = float(np.mean(dcg / idcg[np.minimum(k, n_test)]))

    # group NDCG adds each hit in user-then-rank order, as a loop would
    hit_user, hit_rank = np.nonzero(hits[:, :group_cutoff])
    group_acc = np.zeros(n_groups)
    np.add.at(group_acc, groups[topk[hit_user, hit_rank]],
              discounts[hit_rank] / idcg[np.minimum(group_cutoff, n_test)][hit_user])

    return EvalReport(
        recall=recall,
        ndcg=ndcg,
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


def probe_users(ds: Dataset) -> np.ndarray:
    """The users a negative probe can read, ascending: those with both
    training items and negatives (``0 < |train| < n_items``)."""
    n_train = np.diff(ds.indptr)
    return np.flatnonzero((n_train > 0) & (n_train < ds.n_items))


def negative_probes(emb: EmbeddingTable, ds: Dataset, sampler: SamplerState,
                    n_negatives: int, users):
    """The negative probe of each of ``users`` in turn, as ``(items, scores,
    base)``: ``n_negatives`` draws of :func:`~recdro.sampling.sample_negatives`,
    their cosine scores under ``emb`` and the uniform base over them.

    ``recdro dro-diagnose`` and :func:`negative_radius_estimates` both read
    their users' scores through this probe.
    """
    for u in users:
        items = sample_negatives(sampler, ds, int(u), n_negatives)
        scores, _ = cosine_score(emb, int(u), items)
        yield items, scores, np.full(items.size, 1.0 / items.size)


def negative_radius_estimates(emb: EmbeddingTable, ds: Dataset, cfg: TrainConfig,
                              tau: float) -> np.ndarray:
    """Per-user implied KL radius of sampled negative-score batches.

    :func:`~recdro.dro.estimate_eta` at temperature ``tau`` over the
    :func:`negative_probes` of the first ``RADIUS_USERS`` :func:`probe_users`,
    each of the configured number of negatives (sampler seeded with
    ``RADIUS_SEED``). Empty when no user can be probed.
    """
    sampler = SamplerState.for_config(ds, cfg, seed=RADIUS_SEED)
    probes = negative_probes(emb, ds, sampler, cfg.n_negatives,
                             probe_users(ds)[:RADIUS_USERS])
    return np.array([estimate_eta(scores, base, tau) for _, scores, base in probes])


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
    ``best_tau`` and radii; a split with no :func:`probe_users` reports NaN
    radii.

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
        etas = [] if eta_param is None else negative_radius_estimates(
            result.emb, ds_p, cell_cfg, getattr(result.best_spec, eta_param))
        eta_mean, eta_median = ((float(np.mean(etas)), float(np.median(etas)))
                                if len(etas) else (math.nan, math.nan))
        rows.append(NoiseSweepRow(
            r_noise=r, pos_noise_ratio=p, n_negatives=n_neg,
            best_tau=result.best_tau,
            recall=result.report.recall[select_k],
            ndcg=result.report.ndcg[select_k],
            eta_mean=eta_mean, eta_median=eta_median))
    return rows
