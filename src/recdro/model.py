"""Matrix-factorization backbone: embeddings, cosine scoring, Adam, training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import (BslForm, ConfigError, LossKind, LossSpec, NegSampler,
                     SamplingMode, TrainConfig, check_range)
from .data import Dataset, atomic_open
from .losses import ScoreBatch, bsl_loss, loss_fn_from_spec
from .sampling import (SamplerState, sample_negatives, sample_negatives_batch,
                       sample_uniform_batch)

#: Added to every row norm before dividing; keeps zero vectors finite.
NORM_EPS = 1e-12


class TrainingDivergedError(RuntimeError):
    def __init__(self, batch_index: int):
        super().__init__(f"non-finite loss at batch index {batch_index}")
        self.batch_index = batch_index


class CheckpointError(RuntimeError):
    """Raised when a checkpoint file cannot be read back."""


@dataclass
class EmbeddingTable:
    user_vecs: np.ndarray
    item_vecs: np.ndarray

    @property
    def d(self) -> int:
        return self.user_vecs.shape[1]

    @property
    def n_users(self) -> int:
        return self.user_vecs.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_vecs.shape[0]

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.user_vecs.copy(), self.item_vecs.copy())


def init_embeddings(n_users: int, n_items: int, d: int, seed: int) -> EmbeddingTable:
    """Xavier-uniform init: entries in +-sqrt(6 / (d + d)), deterministic per seed."""
    check_range("d", d, 1, math.inf)
    bound = math.sqrt(6.0 / (d + d))
    rng = np.random.default_rng(seed)
    user_vecs = rng.uniform(-bound, bound, size=(n_users, d))
    item_vecs = rng.uniform(-bound, bound, size=(n_items, d))
    return EmbeddingTable(user_vecs, item_vecs)


def _normalize_rows(x: np.ndarray):
    """Return (unit rows, true norms, shifted norms) with the NORM_EPS guard."""
    norms = np.linalg.norm(x, axis=-1)
    shifts = norms + NORM_EPS
    return x / shifts[..., None], norms, shifts


def _normalize_backward(x_raw, norms, shifts, grad_hat) -> np.ndarray:
    """Chain a gradient on unit rows back to the raw rows.

    For v_hat = v / (|v| + eps): dv = g/(|v|+eps) - v (v.g) / (|v| (|v|+eps)^2).
    """
    dot = np.sum(x_raw * grad_hat, axis=-1)
    # the floor only engages for zero rows, where x_raw makes the term vanish
    denom = np.maximum(norms, 1e-100) * shifts * shifts
    return grad_hat / shifts[..., None] - x_raw * (dot / denom)[..., None]


@dataclass
class CosineContext:
    """Enough state to push score gradients back to raw embedding rows."""

    user: int
    items: np.ndarray
    u_raw: np.ndarray
    u_hat: np.ndarray
    u_norm: float
    u_shift: float
    i_raw: np.ndarray
    i_hat: np.ndarray
    i_norms: np.ndarray
    i_shifts: np.ndarray

    def backward(self, grad_scores: np.ndarray):
        grad_scores = np.asarray(grad_scores, dtype=np.float64)
        g_uhat = grad_scores @ self.i_hat
        grad_u = _normalize_backward(self.u_raw[None, :], np.array([self.u_norm]),
                                     np.array([self.u_shift]), g_uhat[None, :])[0]
        g_ihat = grad_scores[:, None] * self.u_hat[None, :]
        grad_items = _normalize_backward(self.i_raw, self.i_norms, self.i_shifts, g_ihat)
        return grad_u, grad_items


def cosine_score(emb: EmbeddingTable, user: int, items) -> tuple[np.ndarray, CosineContext]:
    """Cosine similarity between a user and a set of items, with Jacobian state."""
    items = np.asarray(items, dtype=np.int64).ravel()
    u_raw = emb.user_vecs[user]
    u_hat, u_norm, u_shift = _normalize_rows(u_raw[None, :])
    i_raw = emb.item_vecs[items]
    i_hat, i_norms, i_shifts = _normalize_rows(i_raw)
    scores = i_hat @ u_hat[0]
    ctx = CosineContext(user=user, items=items, u_raw=u_raw, u_hat=u_hat[0],
                        u_norm=float(u_norm[0]), u_shift=float(u_shift[0]),
                        i_raw=i_raw, i_hat=i_hat, i_norms=i_norms, i_shifts=i_shifts)
    return scores, ctx


#: Bytes of one (rows, n_items) block of cosine scores: users are scored
#: ``rows = max(1, SCORE_BLOCK_BYTES // (8 * n_items))`` at a time.
SCORE_BLOCK_BYTES = 2 << 20


def score_block_bounds(user: int, n_users: int, n_items: int) -> tuple[int, int]:
    """The rows ``lo:hi`` of the fixed user block that holds ``user``.

    The partition depends only on the table's shape, so every caller scores
    a user inside the same block product.
    """
    rows = max(1, SCORE_BLOCK_BYTES // (8 * n_items))
    lo = user - user % rows
    return lo, min(lo + rows, n_users)


def score_all_items(emb: EmbeddingTable, user: int,
                    inner_product: bool = False) -> np.ndarray:
    """Scores for a user against every item; no gradient state.

    Cosine by default: the user's row of the GEMM ``u_hat[lo:hi] @ i_hat.T``
    over the user's fixed block (:func:`score_block_bounds`), the very
    product ``evaluate`` ranks. A GEMM's last bits depend on the block's
    shape, so this matches ``evaluate`` bit for bit where a matrix-vector
    product per user may differ in the last place. ``inner_product=True``
    skips the normalization (a non-default test-time alternative, never used
    during training here).
    """
    if inner_product:
        return emb.item_vecs @ emb.user_vecs[user]
    lo, hi = score_block_bounds(user, emb.n_users, emb.n_items)
    u_hat, _, _ = _normalize_rows(emb.user_vecs[lo:hi])
    i_hat, _, _ = _normalize_rows(emb.item_vecs)
    # a copy, so that a kept row does not hold the whole block alive
    return (u_hat @ i_hat.T)[user - lo].copy()


@dataclass
class AdamState:
    m_user: np.ndarray
    v_user: np.ndarray
    m_item: np.ndarray
    v_item: np.ndarray
    step: int = 0
    #: The moment decay rates and the denominator guard. They are fixed;
    #: checkpoints record them as ``adam_hyper`` and must match them.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    @classmethod
    def for_table(cls, emb: EmbeddingTable) -> "AdamState":
        return cls(m_user=np.zeros_like(emb.user_vecs),
                   v_user=np.zeros_like(emb.user_vecs),
                   m_item=np.zeros_like(emb.item_vecs),
                   v_item=np.zeros_like(emb.item_vecs))

    def _update_rows(self, param, m, v, rows, grads, lr):
        # rows are unique, so the gathered moments are what m[rows]/v[rows] hold
        b1, b2 = self.beta1, self.beta2
        m_rows = b1 * m[rows] + (1.0 - b1) * grads
        v_rows = b2 * v[rows] + (1.0 - b2) * grads * grads
        m[rows] = m_rows
        v[rows] = v_rows
        m_hat = m_rows / (1.0 - b1 ** self.step)
        v_hat = v_rows / (1.0 - b2 ** self.step)
        param[rows] -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def apply(self, emb: EmbeddingTable, user_rows, user_grads,
              item_rows, item_grads, lr: float) -> None:
        """One optimizer step touching only the given (unique) rows."""
        self.step += 1
        if len(user_rows):
            self._update_rows(emb.user_vecs, self.m_user, self.v_user,
                              user_rows, user_grads, lr)
        if len(item_rows):
            self._update_rows(emb.item_vecs, self.m_item, self.v_item,
                              item_rows, item_grads, lr)


#: Columns summed per ``bincount`` call in :func:`_scatter_rows`.
SCATTER_BLOCK = 8

#: Bytes of one (rows, m, d) block of gathered negatives in
#: :func:`sampled_batch_grads` (64 rows at m = d = 64), so that a block stays
#: in cache instead of a (B, m, d) gather passing through memory twice.
GATHER_CHUNK_BYTES = 2 << 20


def _scatter_rows(inv: np.ndarray, grads, n_rows: int) -> np.ndarray:
    """Sum gradient rows that share a target row.

    ``grads`` is a (B, d) array, or a pair ``(d, block)`` where
    ``block(lo, hi)`` returns columns lo:hi as a (hi - lo, B) array, so that
    a caller can form each block's products just before they are summed.
    One ``bincount`` sums SCATTER_BLOCK columns at once: column c of the
    block goes to bins ``c * n_rows + inv``. Every bin still receives its
    contributions in row order, so the sums match a per-column ``bincount``
    bit for bit, while the index stays SCATTER_BLOCK x B rather than d x B.
    Column-major ``grads`` (a transposed C array) are read without a copy.
    """
    if isinstance(grads, np.ndarray):
        d, block = grads.shape[1], lambda lo, hi: grads[:, lo:hi].T
    else:
        d, block = grads
    out = np.empty((n_rows, d))
    index = None
    for lo in range(0, d, SCATTER_BLOCK):
        cols = block(lo, min(lo + SCATTER_BLOCK, d))
        width = cols.shape[0]
        if index is None or index.size != width * inv.size:
            index = (np.arange(width)[:, None] * n_rows + inv).ravel()
        sums = np.bincount(index, weights=cols.ravel(), minlength=width * n_rows)
        out[:, lo:lo + width] = sums.reshape(width, n_rows).T
    return out


def sampled_batch_grads(emb: EmbeddingTable, users, pos_items, neg_items, loss_fn):
    """Forward + backward for a (user, positive, negatives-row) batch.

    Returns (loss value, unique user rows, their grads, unique item rows,
    their grads); gradients include the cosine normalization Jacobian but not
    regularization. Rows are normalized once per unique id; hat-space
    gradients are accumulated per unique row before the Jacobian chain (the
    chain is linear in the gradient, so this matches per-occurrence work).

    The negatives' unit rows are gathered in chunks of batch rows of about
    GATHER_CHUNK_BYTES, once for the scores and once more for the user
    gradient after the loss; each einsum output element reduces over its own
    row, so chunking changes no bit. The item hat-gradient products are
    formed SCATTER_BLOCK columns at a time inside the scatter. Every sum
    keeps row order, so the result equals the unchunked computation exactly.
    """
    users = np.asarray(users, dtype=np.int64)
    pos_items = np.asarray(pos_items, dtype=np.int64)
    neg_items = np.asarray(neg_items, dtype=np.int64)
    b, m = neg_items.shape
    d = emb.d

    uniq_users, u_inv = np.unique(users, return_inverse=True)
    all_items = np.concatenate([pos_items, neg_items.ravel()])
    uniq_items, i_inv = np.unique(all_items, return_inverse=True)
    p_inv, j_inv = i_inv[:b], i_inv[b:].reshape(b, m)

    uu_raw = emb.user_vecs[uniq_users]
    ii_raw = emb.item_vecs[uniq_items]
    uu_hat, uu_norms, uu_shifts = _normalize_rows(uu_raw)
    ii_hat, ii_norms, ii_shifts = _normalize_rows(ii_raw)

    u_hat = uu_hat[u_inv]
    p_hat = ii_hat[p_inv]

    rows = max(1, GATHER_CHUNK_BYTES // (m * d * 8))
    chunks = [(lo, min(lo + rows, b)) for lo in range(0, b, rows)]
    j_hat = np.empty((min(rows, b), m, d))

    def gathered(lo, hi):
        # i_inv indexes ii_hat by construction, so no bounds pass is needed
        return np.take(ii_hat, j_inv[lo:hi], axis=0, out=j_hat[:hi - lo], mode="clip")

    pos_scores = np.sum(u_hat * p_hat, axis=1)
    neg_scores = np.empty((b, m))
    for lo, hi in chunks:
        np.einsum("bd,bmd->bm", u_hat[lo:hi], gathered(lo, hi), out=neg_scores[lo:hi])
    res = loss_fn(ScoreBatch(pos_scores, neg_scores))

    g_uhat = np.empty((b, d))
    for lo, hi in chunks:
        np.einsum("bm,bmd->bd", res.grad_neg[lo:hi], gathered(lo, hi), out=g_uhat[lo:hi])
    g_uhat += res.grad_pos[:, None] * p_hat
    del j_hat

    # item hat-gradients, one column per all_items entry (positives, then
    # negatives), written one SCATTER_BLOCK of embedding columns at a time
    u_hat_t = u_hat.T
    products = np.empty((min(SCATTER_BLOCK, d), b * (m + 1)))

    def item_block(lo, hi):
        out = products[:hi - lo]
        np.multiply(u_hat_t[lo:hi], res.grad_pos, out=out[:, :b])
        np.multiply(u_hat_t[lo:hi, :, None], res.grad_neg,
                    out=out[:, b:].reshape(hi - lo, b, m))
        return out

    user_hat_grads = _scatter_rows(u_inv, g_uhat, uniq_users.size)
    item_hat_grads = _scatter_rows(i_inv, (d, item_block), uniq_items.size)

    user_grads = _normalize_backward(uu_raw, uu_norms, uu_shifts, user_hat_grads)
    item_grads = _normalize_backward(ii_raw, ii_norms, ii_shifts, item_hat_grads)
    return res.value, uniq_users, user_grads, uniq_items, item_grads


def _off_diagonal(square: np.ndarray) -> np.ndarray:
    """Writable (b-1, b) view of a C-ordered (b, b) array's off-diagonal.

    Row r is the b entries between diagonal entries r and r+1 in memory, so
    read row-major it is ``square[in_batch_negatives(...)]`` in that order.
    """
    b = square.shape[0]
    return square.ravel()[1:].reshape(b - 1, b + 1)[:, :-1]


def inbatch_batch_grads(emb: EmbeddingTable, users, items, loss_fn):
    """Forward + backward for an in-batch minibatch of (user, item) pairs.

    Each example's positive is its own item; its negatives are every other
    example's item (the off-diagonal of the pairwise similarity matrix).
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if users.shape != items.shape or users.ndim != 1 or users.size < 2:
        raise ValueError("in-batch mode needs two or more (user, item) pairs")
    b = users.size

    u_raw = emb.user_vecs[users]
    i_raw = emb.item_vecs[items]
    u_hat, u_norms, u_shifts = _normalize_rows(u_raw)
    i_hat, i_norms, i_shifts = _normalize_rows(i_raw)

    sim = u_hat @ i_hat.T
    pos_scores = np.diag(sim).copy()
    neg_scores = _off_diagonal(sim).reshape(b, b - 1)
    res = loss_fn(ScoreBatch(pos_scores, neg_scores))

    g_sim = np.empty_like(sim)
    g_sim.ravel()[::b + 1] = res.grad_pos
    _off_diagonal(g_sim)[...] = res.grad_neg.reshape(b - 1, b)

    g_uhat = g_sim @ i_hat
    g_ihat = g_sim.T @ u_hat
    g_u = _normalize_backward(u_raw, u_norms, u_shifts, g_uhat)
    g_i = _normalize_backward(i_raw, i_norms, i_shifts, g_ihat)

    uniq_users, u_inv = np.unique(users, return_inverse=True)
    user_grads = _scatter_rows(u_inv, g_u, uniq_users.size)
    uniq_items, i_inv = np.unique(items, return_inverse=True)
    item_grads = _scatter_rows(i_inv, g_i, uniq_items.size)

    return res.value, uniq_users, user_grads, uniq_items, item_grads


def _gather_negatives(sampler: SamplerState, ds: Dataset, users: np.ndarray,
                      m: int) -> np.ndarray:
    """Sample an (B, m) negative block for the batch's ``users``.

    A popularity sampler draws the whole block in one
    :func:`~recdro.sampling.sample_negatives_batch` call. A uniform sampler
    draws what one :func:`~recdro.sampling.sample_negatives` call per
    distinct user draws, visiting users in ascending order and a user's rows
    in batch order: in one :func:`~recdro.sampling.sample_uniform_batch`
    call where it can, and in that loop where it cannot.
    """
    if sampler.mode is NegSampler.POPULARITY:
        return sample_negatives_batch(sampler, ds, users, m)
    out = sample_uniform_batch(sampler, ds, users, m)
    if out is not None:
        return out
    out = np.empty((users.size, m), dtype=np.int64)
    by_user = np.argsort(users, kind="stable")
    uniq, starts = np.unique(users[by_user], return_index=True)
    for u, idx in zip(uniq, np.split(by_user, starts[1:])):
        draws = sample_negatives(sampler, ds, int(u), idx.size * m)
        out[idx] = draws.reshape(idx.size, m)
    return out


def train(ds: Dataset, cfg: TrainConfig, spec: LossSpec,
          epoch_callback=None) -> tuple[EmbeddingTable, list[dict]]:
    """Run the full training loop and return the table plus per-epoch stats.

    One epoch is a seed-shuffled pass over all (user, item) training pairs.
    Per batch: sample negatives (or build the in-batch mask), score with
    cosine similarity, compute the configured loss, chain gradients through
    the normalization Jacobian, add the L2 term on touched rows, and apply
    one Adam step. Everything is driven by ``cfg.rng_seed``; two runs with
    the same inputs produce bit-identical tables.

    In negative-sampling mode the canonical bilateral loss groups each
    batch's rows by user so that a user's positives share one log-mean-exp
    positive term; every other configuration (including the pseudocode
    bilateral form and the in-batch mode) treats rows independently.

    ``epoch_callback(epoch, emb) -> dict | None`` may attach extra metrics to
    an epoch's log entry (the table must be treated as read-only inside).

    A nonzero ``cfg.pos_noise_ratio`` is a ``ConfigError``: train the split
    and config that :func:`~recdro.sampling.prepare_dataset` returns.
    """
    cfg.validate()
    spec.validate()
    if cfg.pos_noise_ratio:
        raise ConfigError("pos_noise_ratio is applied by prepare_dataset, not train")
    emb = init_embeddings(ds.n_users, ds.n_items, cfg.embedding_dim, seed=cfg.rng_seed)
    adam = AdamState.for_table(emb)
    loss_fn = loss_fn_from_spec(spec)
    rng = np.random.default_rng(cfg.rng_seed)

    sampler = SamplerState.for_config(ds, cfg, seed=cfg.rng_seed + 1)

    pairs = ds.train_pairs()
    if pairs.shape[0] == 0:
        raise ValueError("dataset has no training interactions")

    grouped_bsl = (spec.kind is LossKind.BSL and spec.bsl_form is BslForm.CANONICAL)

    log: list[dict] = []
    batch_index = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(pairs.shape[0])
        loss_sum = 0.0
        n_seen = 0
        for start in range(0, pairs.shape[0], cfg.batch_size):
            chunk = pairs[order[start:start + cfg.batch_size]]
            users, pos_items = chunk[:, 0], chunk[:, 1]
            if cfg.sampling_mode is SamplingMode.NEGATIVE_SAMPLING:
                batch_loss_fn = loss_fn
                if grouped_bsl:
                    by_user = np.argsort(users, kind="stable")
                    users, pos_items = users[by_user], pos_items[by_user]
                    sizes = np.unique(users, return_counts=True)[1]
                    batch_loss_fn = lambda b: bsl_loss(  # noqa: E731
                        b, spec.tau_pos, spec.tau_neg, BslForm.CANONICAL,
                        pos_group_sizes=sizes)
                negs = _gather_negatives(sampler, ds, users, cfg.n_negatives)
                value, urows, ugrads, irows, igrads = sampled_batch_grads(
                    emb, users, pos_items, negs, batch_loss_fn)
            else:
                if chunk.shape[0] < 2:
                    continue  # a trailing singleton has no in-batch negatives
                value, urows, ugrads, irows, igrads = inbatch_batch_grads(
                    emb, users, pos_items, loss_fn)
            if not np.isfinite(value):
                raise TrainingDivergedError(batch_index)
            if cfg.l2_reg:
                ugrads = ugrads + cfg.l2_reg * emb.user_vecs[urows]
                igrads = igrads + cfg.l2_reg * emb.item_vecs[irows]
            adam.apply(emb, urows, ugrads, irows, igrads, cfg.learning_rate)
            loss_sum += value * chunk.shape[0]
            n_seen += chunk.shape[0]
            batch_index += 1
        entry = {"epoch": epoch, "mean_loss": loss_sum / max(n_seen, 1)}
        if epoch_callback is not None:
            extra = epoch_callback(epoch, emb)
            if extra:
                entry.update(extra)
        log.append(entry)
    return emb, log


CHECKPOINT_VERSION = "1"


def save_checkpoint(path, emb: EmbeddingTable, *, epoch: int, seed: int,
                    adam: AdamState | None = None) -> None:
    """Write a bit-exact snapshot of the table (and optionally Adam state).

    The file is replaced atomically: a failed write leaves the previous one.
    """
    payload = {
        "version": np.array(CHECKPOINT_VERSION),
        "user_vecs": emb.user_vecs,
        "item_vecs": emb.item_vecs,
        "epoch": np.array(int(epoch)),
        "seed": np.array(int(seed)),
    }
    if adam is not None:
        payload.update(m_user=adam.m_user, v_user=adam.v_user,
                       m_item=adam.m_item, v_item=adam.v_item,
                       adam_step=np.array(adam.step),
                       adam_hyper=np.array([adam.beta1, adam.beta2, adam.eps]))
    with atomic_open(path, "wb") as fh:
        np.savez(fh, **payload)


@dataclass
class Checkpoint:
    emb: EmbeddingTable
    epoch: int
    seed: int
    adam: AdamState | None


def load_checkpoint(path) -> Checkpoint:
    try:
        with np.load(path, allow_pickle=False) as data:
            version = str(data["version"])
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version!r}")
            emb = EmbeddingTable(data["user_vecs"].copy(), data["item_vecs"].copy())
            epoch = int(data["epoch"])
            seed = int(data["seed"])
            adam = None
            if "m_user" in data.files:
                hyper = tuple(data["adam_hyper"].tolist())
                if hyper != (AdamState.beta1, AdamState.beta2, AdamState.eps):
                    raise CheckpointError(f"unsupported Adam hyperparameters {hyper}")
                adam = AdamState(m_user=data["m_user"].copy(), v_user=data["v_user"].copy(),
                                 m_item=data["m_item"].copy(), v_item=data["v_item"].copy(),
                                 step=int(data["adam_step"]))
    except CheckpointError:
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return Checkpoint(emb=emb, epoch=epoch, seed=seed, adam=adam)
