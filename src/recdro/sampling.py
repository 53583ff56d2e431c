"""Seed-deterministic negative samplers and noise-injection utilities."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import ConfigError, NegSampler, TrainConfig, check_range
from .data import Dataset

logger = logging.getLogger(__name__)


@dataclass
class SamplerState:
    """Mutable sampler bound to one RNG stream.

    ``r_noise`` is the relative weight at which a user's own positives leak
    into their negative draws: each draw picks a positive with probability
    r_noise * W+ / (r_noise * W+ + W-), where W+/W- are the base-sampler
    weights of the positive/negative item sets (set sizes in uniform mode).
    """

    rng: np.random.Generator
    mode: NegSampler = NegSampler.UNIFORM
    r_noise: float = 0.0
    popularity_weights: np.ndarray | None = None

    def __post_init__(self):
        # a Python float, so that every draw path forms p_take_pos in float64
        self.r_noise = check_range("r_noise", self.r_noise, 0, math.inf)
        has_weights = self.popularity_weights is not None
        if (self.mode is NegSampler.POPULARITY) != has_weights:
            raise ValueError("popularity_weights must be given exactly in popularity mode")
        if has_weights:
            self.popularity_weights = check_popularity_weights(self.popularity_weights)

    @classmethod
    def create(cls, seed: int, mode: NegSampler = NegSampler.UNIFORM,
               r_noise: float = 0.0,
               popularity_weights: np.ndarray | None = None) -> "SamplerState":
        return cls(rng=np.random.default_rng(seed), mode=mode,
                   r_noise=r_noise, popularity_weights=popularity_weights)

    @classmethod
    def for_config(cls, ds: Dataset, cfg: TrainConfig, seed: int) -> "SamplerState":
        """The sampler ``cfg`` configures, weighted by ``ds``'s popularity."""
        weights = None
        if cfg.neg_sampler is NegSampler.POPULARITY:
            weights = popularity_weights_from_counts(ds.item_popularity,
                                                     cfg.popularity_exponent)
        return cls.create(seed=seed, mode=cfg.neg_sampler, r_noise=cfg.r_noise,
                          popularity_weights=weights)


def check_popularity_weights(weights) -> np.ndarray:
    """``weights`` as float64, if they are finite, nonnegative and not all
    zero, with a finite total; otherwise a :class:`ConfigError`."""
    w = np.asarray(weights, dtype=np.float64)
    with np.errstate(over="ignore"):
        total = w.sum()
    if not (np.all(np.isfinite(w)) and math.isfinite(total)):
        raise ConfigError("popularity weights and their total must be finite")
    if np.any(w < 0) or not np.any(w > 0):
        raise ConfigError("popularity weights must be nonnegative and not all zero")
    return w


def sample_negatives(st: SamplerState, ds: Dataset, user: int, n: int) -> np.ndarray:
    """Draw ``n`` items i.i.d. (with replacement) as negatives for ``user``.

    Draws mix the user's true negatives with their positives at relative
    weight ``st.r_noise`` (see :class:`SamplerState`); with ``r_noise = 0``
    no training positive is ever returned. A negative is drawn as its rank
    among the user's non-positive items, so no complement is materialized.

    One ``Generator.choice`` rule serves both modes: each side draws with one
    call over its count, at ``p`` the side's normalized popularity weights,
    or ``None`` in uniform mode (which numpy serves as ``integers(0, count)``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pos = ds.train_pos[user]
    n_neg = ds.n_items - pos.size
    r = st.r_noise
    if n_neg == 0 and r == 0:
        raise ValueError(f"user {user} has no negatives and r_noise is 0")

    if st.mode is NegSampler.UNIFORM:
        w_pos, w_neg = float(pos.size), float(n_neg)
        pos_w = neg_w = None
    else:
        weights = st.popularity_weights
        if weights.shape[0] != ds.n_items:
            raise ValueError("popularity_weights length must equal n_items")
        pos_w = weights[pos]
        neg_w = np.delete(weights, pos)
        w_pos = float(pos_w.sum())
        w_neg = float(neg_w.sum())
    if not (math.isfinite(w_pos) and math.isfinite(w_neg)):
        raise ValueError(f"user {user} has a non-finite total sampling weight")

    denom = r * w_pos + w_neg
    if denom <= 0:
        raise ValueError(f"user {user} has zero total sampling weight")
    p_take_pos = (r * w_pos) / denom

    take_pos = st.rng.random(n) < p_take_pos
    k = int(take_pos.sum())
    out = np.empty(n, dtype=np.int64)
    if k:
        p = None if pos_w is None else pos_w / w_pos
        out[take_pos] = pos[st.rng.choice(pos.size, size=k, p=p)]
    if k < n:
        # in uniform mode k < n implies a negative exists
        if w_neg <= 0:
            raise ValueError(f"user {user} has zero-weight negatives")
        p = None if neg_w is None else neg_w / w_neg
        out[~take_pos] = complement_ids(pos, st.rng.choice(n_neg, size=n - k, p=p))
    return out


def sample_negatives_batch(st: SamplerState, ds: Dataset, users, m: int) -> np.ndarray:
    """Popularity-mode negatives for a whole batch: ``m`` per row, as (B, m).

    Row ``b`` holds ``m`` i.i.d. draws for ``users[b]`` from the distribution
    of :func:`sample_negatives` (item ``i`` at weight ``w_i``, times
    ``st.r_noise`` if it is one of the user's positives), but from one RNG
    stream for the whole batch, so the draws themselves differ from a
    per-user loop of :func:`sample_negatives`.

    Each slot leaks with probability r·W+ / (r·W+ + W-) and then draws from
    its user's positives ∝ weight, through one cumulative sum over the
    batch's flat positive lists. Every other slot proposes an item from the
    catalog's popularity CDF and is redrawn while the item is one of its
    user's positives. A user whose positives hold at least half of the
    catalog weight, where a proposal would be rejected at least half the
    time, takes the exact per-user :func:`sample_negatives` draw instead;
    so does a user with no negative weight, which keeps its ``ValueError``.
    Nothing of size users × items is built.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if st.mode is not NegSampler.POPULARITY:
        raise ValueError("sample_negatives_batch needs a popularity sampler")
    weights = st.popularity_weights
    if weights.shape[0] != ds.n_items:
        raise ValueError("popularity_weights length must equal n_items")
    users = np.asarray(users, dtype=np.int64)
    out = np.empty((users.size, m), dtype=np.int64)

    uniq, inv = np.unique(users, return_inverse=True)
    indptr, indices = _batch_csr(ds, uniq)
    # pos_cum[t] is the weight of the first t flat positives
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
    slot_user = np.repeat(inv[rows], m)  # index into uniq of each slot
    items = np.empty(slot_user.size, dtype=np.int64)
    leak = np.zeros(slot_user.size, dtype=bool)
    r = st.r_noise
    if r > 0:
        p_leak = r * w_pos / (r * w_pos + w_neg)
        leak = st.rng.random(slot_user.size) < p_leak[slot_user]
        lu = slot_user[leak]
        start, end = pos_cum[indptr[lu]], pos_cum[indptr[lu + 1]]
        target = start + st.rng.random(lu.size) * (end - start)
        # a target rounded up to its slice's end takes the slice's last
        # item of positive weight, never a zero-weight or foreign one
        t = np.minimum(pos_cum.searchsorted(target, side="right"),
                       pos_cum.searchsorted(end, side="left"))
        items[leak] = indices[t - 1]

    # sorted (user slot, item) keys of the positives, with a sentinel above
    # every key so a search never runs off the end
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


def sample_uniform_batch(st: SamplerState, ds: Dataset, users,
                         m: int) -> np.ndarray | None:
    """Uniform-mode negatives for a whole batch, ``m`` per row, as (B, m);
    bit for bit what a loop of :func:`sample_negatives` draws, or ``None``.

    The loop visits the distinct users in ascending order and draws
    ``n = rows * m`` items per user: ``random(n)`` (one raw word per double),
    then ``choice`` over the leaked and the true-negative counts, which numpy
    serves as ``integers(0, count)``: Lemire's bounded method fed by 32-bit
    halves of raw words. PCG64 hands out a word's low half first and keeps
    its high half pending (``has_uint32`` / ``uinteger``) for the next
    32-bit request, so a user's word count follows from ``n`` and the
    pending bit alone, and one ``random_raw`` call covers the batch. The
    pending state is written back, so the stream goes on exactly as after
    the loop.

    ``None`` means "run the loop", with the generator's state as it was:
    for a generator other than ``PCG64``, an empty batch, ``m < 1``, a
    catalog of 2**32 items or more, a user with at most one negative, or, at
    ``r_noise > 0``, a user with one positive (its range-1 ``integers``
    consumes no word), and for a batch in which Lemire's method would reject
    a value and draw again (:func:`_lemire_rejects`).
    """
    users = np.asarray(users, dtype=np.int64)
    bitgen = st.rng.bit_generator
    if (type(bitgen) is not np.random.PCG64 or users.size == 0 or m < 1
            or ds.n_items >= 2**32):
        return None
    by_user = np.argsort(users, kind="stable")
    uniq, rows = np.unique(users[by_user], return_counts=True)
    indptr, indices = _batch_csr(ds, uniq)
    n_pos = np.diff(indptr)
    n_neg = ds.n_items - n_pos
    r = st.r_noise
    if np.any(n_neg <= 1) or (r > 0 and np.any(n_pos == 1)):
        return None

    # user j's n[j] draws hold flat slots first[j]:first[j] + n[j]
    n = rows * m
    first = np.cumsum(n) - n
    saved = bitgen.state
    pending = saved["has_uint32"]
    # user j takes n[j] words for its doubles, then the words whose halves
    # its n[j] 32-bit values need beyond one still pending from before
    n_words32 = (n - ((pending + first) & 1) + 1) // 2
    words = bitgen.random_raw(int(n.sum() + n_words32.sum()))
    is_double = np.repeat(np.tile([True, False], uniq.size),
                          np.column_stack([n, n_words32]).ravel())
    # the 32-bit values in the order they are handed out, low half first
    halves = words[~is_double].astype("<u8", copy=False).view("<u4")
    if pending:
        halves = np.concatenate([np.array([saved["uinteger"]], np.uint32), halves])

    slot_user = np.repeat(np.arange(uniq.size), n)
    slot_first = first[slot_user]
    if r > 0:
        w_pos = n_pos.astype(np.float64)
        p_take_pos = (r * w_pos) / (r * w_pos + n_neg)
        # random()'s doubles: a word's top 53 bits over 2**53
        take_pos = (words[is_double] >> 11) * 2.0**-53 < p_take_pos[slot_user]
        # a user's leaked draws take its first k values, over pos.size; the
        # true negatives take the rest, each in slot order
        taken = np.concatenate([[0], np.cumsum(take_pos)])
        k = taken[first + n] - taken[first]
        leaked_before = taken[:-1] - taken[slot_first]  # within the slot's user
        local = np.arange(slot_user.size) - slot_first
        values = halves[slot_first + np.where(take_pos, leaked_before,
                                              k[slot_user] + local - leaked_before)]
        ranges = np.where(take_pos, n_pos[slot_user], n_neg[slot_user])
    else:
        take_pos = None
        values = halves[:slot_user.size]
        ranges = n_neg[slot_user]
    ranges = ranges.astype(np.uint64)
    if _lemire_rejects(values, ranges):
        bitgen.state = saved
        return None
    ranks = ((values * ranges) >> 32).astype(np.int64)

    # the complement rule of complement_ids over the whole batch: user j's
    # positive i has pos[i] - i negatives below it, keyed j * n_items + that
    gap_user = np.repeat(np.arange(uniq.size), n_pos)
    gap_keys = gap_user * ds.n_items + indices - (np.arange(indices.size) - indptr[gap_user])
    ids = ranks + gap_keys.searchsorted(slot_user * ds.n_items + ranks, side="right")
    ids -= indptr[slot_user]
    if take_pos is not None:
        ids[take_pos] = indices[indptr[slot_user[take_pos]] + ranks[take_pos]]

    state = bitgen.state
    state["has_uint32"] = (pending + slot_user.size) & 1
    # the last word's high half, kept even once it has been handed out
    state["uinteger"] = int(halves[-1])
    bitgen.state = state
    out = np.empty((users.size, m), dtype=np.int64)
    out[by_user] = ids.reshape(-1, m)
    return out


def _lemire_rejects(values: np.ndarray, ranges: np.ndarray) -> bool:
    """Whether numpy's bounded 32-bit draw of ``integers(0, ranges)`` would
    reject any of the 32-bit ``values`` and draw again.

    Lemire's method takes ``(v * range) >> 32`` and rejects ``v`` when the
    low 32 bits of the product fall below ``(2**32 - range) % range``, a
    threshold below ``range`` itself, which is checked first.
    """
    leftover = (values * ranges) & 0xFFFFFFFF
    low = np.flatnonzero(leftover < ranges)
    return bool(np.any(leftover[low] < (2**32 - ranges[low]) % ranges[low]))


def _batch_csr(ds: Dataset, uniq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The training lists of users ``uniq`` as one flat CSR ``(indptr,
    indices)``, sliced from the split's own CSR."""
    starts = ds.indptr[uniq]
    sizes = ds.indptr[uniq + 1] - starts
    indptr = np.zeros(uniq.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    flat = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], sizes)
    return indptr, ds.indices[flat]


def complement_ids(pos: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Ids of the items at ``ranks`` among those not in the sorted ``pos``.

    ``pos[j] - j`` non-positive items precede positive j, so every positive
    at or below that count shifts the rank-th negative up by one.
    """
    return ranks + np.searchsorted(pos - np.arange(pos.size), ranks, side="right")


def positive_fraction(r_noise: float, n_pos: int, n_neg: int) -> float:
    """Closed-form probability that a single uniform-mode draw is a positive."""
    check_range("r_noise", r_noise, 0, math.inf)
    denom = r_noise * n_pos + n_neg
    if denom <= 0:
        raise ValueError("empty sampling support")
    return (r_noise * n_pos) / denom


def contaminate_positives(ds: Dataset, ratio: float, seed: int) -> Dataset:
    """Inject false positives into every user's training list.

    For each user, ceil(ratio * |train positives|) items are drawn uniformly
    without replacement from the user's negatives (test items excluded) and
    added to the training list. Popularity counts are recomputed; the input
    dataset is untouched. Users with too few available negatives get as many
    as exist; the total shortfall is logged as a warning.
    """
    check_range("ratio", ratio, 0, 1)
    rng = np.random.default_rng(seed)
    new_train = []
    shortfall = 0
    for pos, test in zip(ds.train_pos, ds.test_pos):
        # target count: exact integer products must not round up twice
        want = math.ceil(ratio * pos.size - 1e-9)
        if want:
            blocked = np.union1d(pos, test)
            n_free = ds.n_items - blocked.size
            take = min(want, n_free)
            shortfall += want - take
            # choice() over a count makes the RNG calls of choice() over the
            # free ids themselves (none for an empty draw); ranks map to ids
            ranks = rng.choice(n_free, size=take, replace=False)
            pos = np.union1d(pos, complement_ids(blocked, ranks))
        new_train.append(pos)
    if shortfall:
        logger.warning("contamination shortfall: %d injections skipped "
                       "(users with too few free negatives)", shortfall)
    return Dataset.from_positive_lists(new_train, ds.test_pos,
                                       n_users=ds.n_users, n_items=ds.n_items)


def prepare_dataset(ds: Dataset, cfg: TrainConfig) -> tuple[Dataset, TrainConfig]:
    """The training split and config ``cfg`` describes, ready for ``train``.

    The split is ``ds`` with ``cfg.pos_noise_ratio`` false positives injected
    (seeded with ``cfg.rng_seed``), or ``ds`` itself at ratio 0; the config is
    ``cfg`` with that ratio spent (0). This is the only place the ratio acts:
    :func:`~recdro.model.train` rejects a config that still carries one.

    A popularity sampler's weights on the returned split are checked here, so
    an exponent this data cannot take fails before anything trains.
    """
    if cfg.pos_noise_ratio > 0:
        ds, cfg = (contaminate_positives(ds, cfg.pos_noise_ratio, cfg.rng_seed),
                   replace(cfg, pos_noise_ratio=0.0))
    if cfg.neg_sampler is NegSampler.POPULARITY:
        unseen = np.flatnonzero(ds.item_popularity == 0)
        if cfg.popularity_exponent < 0 and unseen.size:
            raise ConfigError(
                f"popularity_exponent {cfg.popularity_exponent:g} gives item {unseen[0]}, "
                "which has no training interactions, an infinite weight: "
                "popularity weights must be finite")
        check_popularity_weights(popularity_weights_from_counts(
            ds.item_popularity, cfg.popularity_exponent))
    return ds, cfg


def in_batch_negatives(batch_users, batch_items) -> np.ndarray:
    """Negative mask for in-batch training: everything but the diagonal.

    Example ``i`` uses every other example's item as a negative, even when
    that item happens to be one of user i's positives; only the example's own
    positive (the diagonal) is masked out.
    """
    users = np.asarray(batch_users)
    items = np.asarray(batch_items)
    if users.shape != items.shape or users.ndim != 1:
        raise ValueError("batch_users and batch_items must be equal-length vectors")
    b = users.shape[0]
    if b < 2:
        raise ValueError("in-batch mode needs at least 2 examples")
    return ~np.eye(b, dtype=bool)


def popularity_weights_from_counts(counts: np.ndarray, exponent: float = 1.0) -> np.ndarray:
    """Raise training interaction counts to ``exponent`` for popularity sampling.

    A zero count under a negative exponent weighs ``inf``, without a
    warning; :func:`check_popularity_weights` is what rejects it.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    with np.errstate(divide="ignore"):
        return counts ** exponent
