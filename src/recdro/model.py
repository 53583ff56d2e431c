"""Matrix-factorization backbone: embeddings, cosine scoring, Adam, training."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .config import (BslForm, ConfigError, LossKind, LossSpec, NegSampler,
                     SamplingMode, TrainConfig, check_range, check_whole)
from .data import Dataset, atomic_open
from .losses import ScoreBatch, bsl_loss, loss_fn_from_spec
from .sampling import (SamplerState, sample_negatives, sample_negatives_batch,
                       sample_uniform_batch)

#: Added to every row norm before dividing; keeps zero vectors finite.
NORM_EPS = 1e-12


class TrainingDivergedError(RuntimeError):
    """A batch produced non-finite values; ``phase`` is where they appeared:
    ``"loss"`` (the loss value), ``"backward"`` (the embedding gradients) or
    ``"adam"`` (the table rows the optimizer step wrote)."""

    def __init__(self, batch_index: int, phase: str):
        super().__init__(f"training diverged at batch index {batch_index}: "
                         f"non-finite values in the {phase} phase")
        self.batch_index = batch_index
        self.phase = phase


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
    d = check_whole("d", d)
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
class UnitRows:
    """Raw rows with their unit rows and norms: the one owner of the cosine
    normalization's Jacobian, which every score gradient passes through."""

    raw: np.ndarray
    hat: np.ndarray
    norms: np.ndarray
    shifts: np.ndarray

    @classmethod
    def of(cls, raw: np.ndarray) -> "UnitRows":
        return cls(raw, *_normalize_rows(raw))

    def backward(self, grad_hat: np.ndarray) -> np.ndarray:
        """Chain a gradient on the unit rows back to the raw rows."""
        return _normalize_backward(self.raw, self.norms, self.shifts, grad_hat)


@dataclass
class CosineContext:
    """Enough state to push score gradients back to raw embedding rows:
    the user's row as a one-row table ``u``, and the item rows ``i``."""

    u: UnitRows
    i: UnitRows

    def backward(self, grad_scores: np.ndarray):
        grad_scores = np.asarray(grad_scores, dtype=np.float64)
        grad_u = self.u.backward((grad_scores @ self.i.hat)[None, :])[0]
        grad_items = self.i.backward(grad_scores[:, None] * self.u.hat)
        return grad_u, grad_items


def cosine_score(emb: EmbeddingTable, user: int, items) -> tuple[np.ndarray, CosineContext]:
    """Cosine similarity between a user and a set of items, with Jacobian state."""
    items = np.asarray(items, dtype=np.int64).ravel()
    u = UnitRows.of(emb.user_vecs[user][None, :])
    i = UnitRows.of(emb.item_vecs[items])
    return i.hat @ u.hat[0], CosineContext(u, i)


#: Bytes of one block of cosine scores at up to SCORE_BLOCK_MAX_ITEMS items:
#: users are scored :func:`score_block_rows` at a time.
SCORE_BLOCK_BYTES = 2 << 20

#: The widest catalog a block's rows are budgeted against. A wider one keeps
#: that many rows (64 at the default budget), so the block GEMM stays tall
#: enough for BLAS while a block grows only with the catalog.
SCORE_BLOCK_MAX_ITEMS = 4096


def score_block_rows(n_items: int) -> int:
    """Users per score block:
    ``max(1, SCORE_BLOCK_BYTES // (8 * min(n_items, SCORE_BLOCK_MAX_ITEMS)))``.

    At the default budget that is about 2 MiB of scores up to 4096 items and
    64 users above, so one block holds at most ``max(2 MiB, 512 * n_items)``
    bytes (10 MiB at 20000 items): bounded by the catalog, not by users x items.
    """
    return max(1, SCORE_BLOCK_BYTES // (8 * min(n_items, SCORE_BLOCK_MAX_ITEMS)))


def score_block_bounds(user: int, n_users: int, n_items: int) -> tuple[int, int]:
    """The rows ``lo:hi`` of the fixed user block that holds ``user``.

    The partition depends only on the table's shape, so every caller scores
    a user inside the same block product.
    """
    rows = score_block_rows(n_items)
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
    #: Whether every value the last :meth:`apply` wrote into the table is finite.
    wrote_finite: bool = True
    #: The moment decay rates and the denominator guard. They are fixed;
    #: checkpoints record them as ``adam_hyper`` and must match them.
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    @classmethod
    def for_table(cls, emb: EmbeddingTable) -> "AdamState":
        # np.zeros, unlike zeros_like, maps pages that read as zero until
        # written, so the moments of rows no batch touches take no memory
        def zeros(table):
            return np.zeros(table.shape, dtype=table.dtype)

        return cls(m_user=zeros(emb.user_vecs), v_user=zeros(emb.user_vecs),
                   m_item=zeros(emb.item_vecs), v_item=zeros(emb.item_vecs))

    def _update_rows(self, param, m, v, rows, grads, lr):
        # rows are unique, so the gathered moments are what m[rows]/v[rows] hold.
        # The operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
        # param -= lr m_hat / (sqrt(v_hat) + eps), in their order, run in place
        # in the gathered rows and one scratch array: the same bits, fewer arrays
        b1, b2 = self.beta1, self.beta2
        scratch = np.multiply(grads, 1.0 - b1)
        m_rows = m[rows]
        m_rows *= b1
        m_rows += scratch
        m[rows] = m_rows
        np.multiply(grads, 1.0 - b2, out=scratch)
        scratch *= grads
        v_rows = v[rows]
        v_rows *= b2
        v_rows += scratch
        v[rows] = v_rows
        m_rows /= 1.0 - b1 ** self.step  # m_hat
        v_rows /= 1.0 - b2 ** self.step  # v_hat
        np.sqrt(v_rows, out=v_rows)
        v_rows += self.eps
        m_rows *= lr
        m_rows /= v_rows
        # the updated rows are written from m_rows, so checking them needs no
        # second gather
        np.subtract(param[rows], m_rows, out=m_rows)
        param[rows] = m_rows
        return bool(np.isfinite(m_rows).all())

    def apply(self, emb: EmbeddingTable, user_rows, user_grads,
              item_rows, item_grads, lr: float) -> None:
        """One optimizer step touching only the given (unique) rows."""
        self.step += 1
        self.wrote_finite = True
        if len(user_rows):
            self.wrote_finite &= self._update_rows(emb.user_vecs, self.m_user, self.v_user,
                                                   user_rows, user_grads, lr)
        if len(item_rows):
            self.wrote_finite &= self._update_rows(emb.item_vecs, self.m_item, self.v_item,
                                                   item_rows, item_grads, lr)


#: Bytes of one (rows, m, d) block of gathered negatives in
#: :func:`sampled_batch_grads` (64 rows at m = d = 64), so that a block stays
#: in cache instead of a (B, m, d) gather passing through memory twice.
GATHER_CHUNK_BYTES = 2 << 20


def _scatter_rows(inv: np.ndarray, grads: np.ndarray, n_rows: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Add each gradient row into its target row: ``out[inv[k]] += grads[k]``.

    ``grads`` has shape ``inv.shape + (d,)``, such as (B, d) or (rows, m, d).
    ``out`` is a C-ordered (n_rows, d) array to add onto, or zeros when
    omitted. This is the one scatter rule of the training kernels: one flat
    ``np.add.at`` adds each entry's terms in row order onto its start (0.0
    in fresh zeros), as a per-column ``bincount`` does, bit for bit.
    """
    d = grads.shape[-1]
    if out is None:
        out = np.zeros((n_rows, d))
    index = inv.reshape(-1, 1) * d + np.arange(d)
    np.add.at(out.reshape(-1), index.ravel(), grads.ravel())
    return out


#: :func:`train` takes :func:`dense_batch_grads` for a batch of B rows of m
#: negatives over U unique users and I unique items when
#: ``U * I < DENSE_COST_RATIO * B * m * d``, and :func:`sampled_batch_grads`
#: otherwise. The kernels cost the same at U * I of about 2.2M with one BLAS
#: thread and B = 1024, m = d = 64 (a ratio of 0.53): the dense kernel took
#: 33 ms against 36 ms at U * I = 2.0M, and 43 ms against 38 ms at 2.6M.
DENSE_COST_RATIO = 0.5


def _unique_inverse(ids: np.ndarray):
    """``np.unique(ids, return_inverse=True)`` for a 1-D array of row ids.

    Read off a ``max(ids) + 1`` presence table instead of a sort: the unique
    ids are the set flags, and an id's inverse is the number of set flags
    below it. The table is bounded by the catalog, not by the batch.
    """
    if ids.min(initial=0) < 0:
        raise ValueError("row ids must be non-negative")
    present = np.zeros(ids.max(initial=-1) + 1, dtype=bool)
    present[ids] = True
    rank = np.cumsum(present)
    rank -= 1
    return np.flatnonzero(present), rank[ids]


def unique_rows(users, pos_items, neg_items):
    """A sampled batch's (unique users, user inverse, unique items, item inverse).

    The item inverse lists the positives, then the negatives row by row.
    Both training kernels take the tuple as ``unique=``.
    """
    uniq_users, u_inv = _unique_inverse(np.asarray(users, dtype=np.int64))
    all_items = np.concatenate([np.asarray(pos_items, dtype=np.int64),
                                np.asarray(neg_items, dtype=np.int64).ravel()])
    uniq_items, i_inv = _unique_inverse(all_items)
    return uniq_users, u_inv, uniq_items, i_inv


def prefers_dense(n_users: int, n_items: int, b: int, m: int, d: int) -> bool:
    """The kernel rule of :func:`train` (see :data:`DENSE_COST_RATIO`)."""
    return n_users * n_items < DENSE_COST_RATIO * b * m * d


def sampled_batch_grads(emb: EmbeddingTable, users, pos_items, neg_items, loss_fn,
                        unique=None):
    """Forward + backward for a (user, positive, negatives-row) batch.

    Returns (loss value, unique user rows, their grads, unique item rows,
    their grads); gradients include the cosine normalization Jacobian but not
    regularization. Rows are normalized once per unique id; hat-space
    gradients are accumulated per unique row before the Jacobian chain (the
    chain is linear in the gradient, so this matches per-occurrence work).
    ``unique`` is the batch's :func:`unique_rows`, computed here if omitted.

    This is the reference kernel, and :func:`train`'s kernel for wide
    catalogs, where :func:`dense_batch_grads`' U x I products cost more than
    the B x m gathers here. The negatives' unit rows are gathered in chunks
    of batch rows of about GATHER_CHUNK_BYTES, once for the scores and once
    more for the user gradient after the loss; each einsum output element
    reduces over its own row, so chunking changes no bit. The item
    hat-gradients are then scattered by :func:`_scatter_rows`: the
    positives' terms, then the negatives' in row order, whose products are
    formed in the spent gather buffer a quarter of a chunk of rows at a
    time. Every sum keeps row order, so the result equals the unchunked
    computation exactly.
    """
    b, m = np.shape(neg_items)
    d = emb.d

    if unique is None:
        unique = unique_rows(users, pos_items, neg_items)
    uniq_users, u_inv, uniq_items, i_inv = unique
    p_inv, j_inv = i_inv[:b], i_inv[b:].reshape(b, m)

    uu, ii = map(UnitRows.of, (emb.user_vecs[uniq_users], emb.item_vecs[uniq_items]))

    u_hat = uu.hat[u_inv]
    p_hat = ii.hat[p_inv]

    rows = max(1, GATHER_CHUNK_BYTES // (m * d * 8))
    chunks = [(lo, min(lo + rows, b)) for lo in range(0, b, rows)]
    j_hat = np.empty((min(rows, b), m, d))

    def gathered(lo, hi):
        # i_inv indexes ii.hat by construction, so no bounds pass is needed
        return np.take(ii.hat, j_inv[lo:hi], axis=0, out=j_hat[:hi - lo], mode="clip")

    pos_scores = np.sum(u_hat * p_hat, axis=1)
    neg_scores = np.empty((b, m))
    for lo, hi in chunks:
        np.einsum("bd,bmd->bm", u_hat[lo:hi], gathered(lo, hi), out=neg_scores[lo:hi])
    res = loss_fn(ScoreBatch(pos_scores, neg_scores))

    g_uhat = np.empty((b, d))
    for lo, hi in chunks:
        np.einsum("bm,bmd->bd", res.grad_neg[lo:hi], gathered(lo, hi), out=g_uhat[lo:hi])
    g_uhat += res.grad_pos[:, None] * p_hat
    user_hat_grads = _scatter_rows(u_inv, g_uhat, uniq_users.size)

    # item hat-gradients in unique_rows' order: the positives' terms, then
    # the negatives' row by row, formed in the spent gather buffer
    item_hat_grads = _scatter_rows(p_inv, res.grad_pos[:, None] * u_hat, uniq_items.size)
    step = max(1, rows // 4)
    for lo in range(0, b, step):
        hi = min(lo + step, b)
        products = np.multiply(res.grad_neg[lo:hi, :, None], u_hat[lo:hi, None, :],
                               out=j_hat[:hi - lo])
        _scatter_rows(j_inv[lo:hi], products, uniq_items.size, out=item_hat_grads)

    return (res.value, uniq_users, uu.backward(user_hat_grads),
            uniq_items, ii.backward(item_hat_grads))


def dense_batch_grads(emb: EmbeddingTable, users, pos_items, neg_items, loss_fn,
                      unique=None):
    """:func:`sampled_batch_grads` as GEMMs over the batch's unique rows.

    With U the unique users and I the unique items, each normalized once,
    an example's scores are entries of its user's row of
    ``S = U_hat @ I_hat.T``. The loss gradients are summed into ``G``
    (U x I) by the rule of :func:`_scatter_rows`: one flat ``np.add.at``
    adds each entry's terms in example order from 0.0. The hat-space
    gradients are ``G @ I_hat`` and ``G.T @ U_hat``. Users are taken a block
    at a time, in blocks of :func:`score_block_rows` users as in
    ``evaluate``, and ``S`` and ``G`` share one block buffer: about 2 MiB up
    to 4096 unique items, and 64 users' rows (``512 * I`` bytes) above. The
    sums run in another order than the reference kernel's, so the results
    agree with it to rounding, not bit for bit.
    """
    b, m = np.shape(neg_items)
    if unique is None:
        unique = unique_rows(users, pos_items, neg_items)
    uniq_users, u_inv, uniq_items, i_inv = unique
    n_items = uniq_items.size

    uu, ii = map(UnitRows.of, (emb.user_vecs[uniq_users], emb.item_vecs[uniq_items]))

    # keys[e] are example e's flat (user, item) positions in S: its positive
    # in column 0, its negatives after it
    keys = np.empty((b, m + 1), dtype=np.int64)
    keys[:, 0] = i_inv[:b]
    keys[:, 1:] = i_inv[b:].reshape(b, m)
    keys += (u_inv * n_items)[:, None]

    rows = score_block_rows(n_items)
    block = np.empty((min(rows, uniq_users.size), n_items))
    scores = np.empty((b, m + 1))
    blocks = []
    for lo in range(0, uniq_users.size, rows):
        hi = min(lo + rows, uniq_users.size)
        ex = np.flatnonzero((u_inv >= lo) & (u_inv < hi))
        ex_keys = keys[ex] - lo * n_items
        s = np.matmul(uu.hat[lo:hi], ii.hat.T, out=block[:hi - lo])
        scores[ex] = np.take(s, ex_keys)
        blocks.append((lo, hi, ex, ex_keys))
    res = loss_fn(ScoreBatch(scores[:, 0].copy(), scores[:, 1:].copy()))

    grads = scores  # the scores are spent; their buffer takes the gradients
    grads[:, 0] = res.grad_pos
    grads[:, 1:] = res.grad_neg
    user_hat_grads = np.empty((uniq_users.size, emb.d))
    item_hat_grads = np.zeros((n_items, emb.d))
    for lo, hi, ex, ex_keys in blocks:
        # the spent score block, zeroed, takes G's block
        g = block[:hi - lo]
        g.fill(0.0)
        np.add.at(g.reshape(-1), ex_keys.ravel(), grads[ex].ravel())
        np.matmul(g, ii.hat, out=user_hat_grads[lo:hi])
        item_hat_grads += g.T @ uu.hat[lo:hi]

    return (res.value, uniq_users, uu.backward(user_hat_grads),
            uniq_items, ii.backward(item_hat_grads))


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

    Memory grows with the batch size squared: the step holds at most two
    (B, B) float64 arrays at once, 16 MiB at B = 1024. The similarity matrix
    is released once its diagonal and off-diagonal are copied out, so the
    loss runs on the negatives and its own scaled copy of them, and the
    gradient matrix is built fresh beside the loss's negative gradients.
    That holds for the softmax family and MSE; BPR and BCE allocate more
    (B, B) temporaries of their own and peak near 7.2 and 5.2 of them.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    if users.shape != items.shape or users.ndim != 1 or users.size < 2:
        raise ValueError("in-batch mode needs two or more (user, item) pairs")
    b = users.size

    u, i = map(UnitRows.of, (emb.user_vecs[users], emb.item_vecs[items]))

    sim = u.hat @ i.hat.T
    scores = ScoreBatch(np.diag(sim).copy(), _off_diagonal(sim).reshape(b, b - 1))
    del sim  # only b = 2's negatives are still a view of it
    res = loss_fn(scores)
    del scores

    # every entry of the gradient matrix is written below
    g_sim = np.empty((b, b))
    g_sim.ravel()[::b + 1] = res.grad_pos
    _off_diagonal(g_sim)[...] = res.grad_neg.reshape(b - 1, b)

    g_uhat, g_ihat = g_sim @ i.hat, g_sim.T @ u.hat
    g_u, g_i = u.backward(g_uhat), i.backward(g_ihat)

    uniq_users, u_inv = _unique_inverse(users)
    user_grads = _scatter_rows(u_inv, g_u, uniq_users.size)
    uniq_items, i_inv = _unique_inverse(items)
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
    Per batch: draw fresh negatives and find the batch's unique rows (in
    in-batch mode, every other example's item is a negative instead), score
    with cosine similarity, compute the configured loss, chain gradients
    through the normalization Jacobian, add the L2 term on touched rows, and
    apply one Adam step. Everything is driven by ``cfg.rng_seed``; two runs
    with the same inputs produce bit-identical tables.

    In negative-sampling mode the canonical bilateral loss groups each
    batch's rows by user so that a user's positives share one log-mean-exp
    positive term; every other configuration (including the pseudocode
    bilateral form and the in-batch mode) treats rows independently.

    Each negative-sampling batch of B rows of m negatives, over U unique
    users and I unique items, takes :func:`dense_batch_grads` when
    ``U * I < DENSE_COST_RATIO * B * m * d`` and :func:`sampled_batch_grads`
    otherwise; the two agree to rounding, and either choice is fixed by the
    batch, so a run stays deterministic per seed.

    A non-finite loss value, or a non-finite entry in a batch's embedding
    gradients, raises :class:`TrainingDivergedError` with the batch index and
    the phase (``"loss"`` or ``"backward"``) before Adam touches the table; a
    non-finite entry in the rows an Adam step wrote raises it with phase
    ``"adam"`` after that step.

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
                if grouped_bsl:
                    by_user = np.argsort(users, kind="stable")
                    users, pos_items = users[by_user], pos_items[by_user]
                negs = _gather_negatives(sampler, ds, users, cfg.n_negatives)
                unique = unique_rows(users, pos_items, negs)
                batch_loss_fn = loss_fn
                if grouped_bsl:
                    # users are sorted, so the inverse counts are the group sizes
                    sizes = np.bincount(unique[1])
                    batch_loss_fn = lambda b: bsl_loss(  # noqa: E731
                        b, spec.tau_pos, spec.tau_neg, BslForm.CANONICAL,
                        pos_group_sizes=sizes)
                kernel = (dense_batch_grads
                          if prefers_dense(unique[0].size, unique[2].size, *negs.shape, emb.d)
                          else sampled_batch_grads)
                value, urows, ugrads, irows, igrads = kernel(
                    emb, users, pos_items, negs, batch_loss_fn, unique=unique)
            else:
                if chunk.shape[0] < 2:
                    continue  # a trailing singleton has no in-batch negatives
                value, urows, ugrads, irows, igrads = inbatch_batch_grads(
                    emb, users, pos_items, loss_fn)
            if not np.isfinite(value):
                raise TrainingDivergedError(batch_index, "loss")
            if not (np.isfinite(ugrads).all() and np.isfinite(igrads).all()):
                raise TrainingDivergedError(batch_index, "backward")
            if cfg.l2_reg:
                ugrads = ugrads + cfg.l2_reg * emb.user_vecs[urows]
                igrads = igrads + cfg.l2_reg * emb.item_vecs[irows]
            adam.apply(emb, urows, ugrads, irows, igrads, cfg.learning_rate)
            if not adam.wrote_finite:
                raise TrainingDivergedError(batch_index, "adam")
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
