"""Ranking losses over batches of prediction scores, with exact gradients.

Every loss is a pure map from a :class:`ScoreBatch` to a scalar value plus
the analytic gradient with respect to each score. The score function itself
(and its Jacobian) lives in :mod:`recdro.model`, so these functions stay
backbone-agnostic.

Conventions shared by the softmax family:

* the denominator sums (not averages) over the sampled negatives, so a batch
  with ``m`` negatives per row carries an additive ``tau * log(m)`` constant
  relative to the expectation form;
* the positive score is not included in the denominator;
* log-sum-exp is always evaluated max-shifted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MIN_TAU, BslForm, LossKind, LossSpec, check_range


@dataclass
class ScoreBatch:
    """One score per positive example plus a row of negative scores each.

    ``pos_scores`` has shape (n,), ``neg_scores`` shape (n, m). All entries
    must be finite.
    """

    pos_scores: np.ndarray
    neg_scores: np.ndarray

    def __post_init__(self):
        self.pos_scores = np.asarray(self.pos_scores, dtype=np.float64)
        self.neg_scores = np.asarray(self.neg_scores, dtype=np.float64)
        if self.pos_scores.ndim != 1:
            raise ValueError("pos_scores must be 1-D")
        if self.neg_scores.ndim != 2:
            raise ValueError("neg_scores must be 2-D")
        if self.neg_scores.shape[0] != self.pos_scores.shape[0]:
            raise ValueError("neg_scores row count must equal pos_scores length")
        if self.pos_scores.shape[0] < 1 or self.neg_scores.shape[1] < 1:
            raise ValueError("batch needs at least one example and one negative")
        if not (np.isfinite(self.pos_scores).all() and np.isfinite(self.neg_scores).all()):
            raise ValueError("scores must be finite")

    @property
    def n_examples(self) -> int:
        return self.pos_scores.shape[0]

    @property
    def n_negatives(self) -> int:
        return self.neg_scores.shape[1]


@dataclass(frozen=True)
class LossResult:
    value: float
    grad_pos: np.ndarray
    grad_neg: np.ndarray


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) without overflow on either tail."""
    return _softplus(np.array(x, dtype=np.float64))


def _softplus(x: np.ndarray) -> np.ndarray:
    """:func:`softplus` of a float64 array that the caller owns and gives up:
    ``maximum(x, 0) + log1p(exp(-abs(x)))``, each step the allocating form's
    operation, written into ``x`` and one scratch array."""
    t = np.abs(x)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(x, 0.0, out=x)
    x += t
    return x


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -softplus(-x)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return _sigmoid(np.array(x, dtype=np.float64))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """:func:`sigmoid` of a float64 array that the caller owns and gives up:
    with ``t = exp(-abs(x))``, ``1 / (1 + t)`` where ``x >= 0`` and
    ``t / (1 + t)`` elsewhere, written into ``x`` beside ``1 + t`` and a
    mask."""
    nonneg = x >= 0
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    denom = 1.0 + x
    np.divide(x, denom, out=x)
    np.divide(1.0, denom, out=x, where=nonneg)
    return x


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted log-sum-exp along ``axis``."""
    return _logsumexp_softmax(np.array(x, dtype=np.float64), axis)[0]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    return _logsumexp_softmax(np.array(x, dtype=np.float64), axis)[1]


def _logsumexp_softmax(x: np.ndarray, axis: int = -1):
    """``(logsumexp(x, axis), softmax(x, axis))`` from one max-shifted exp:
    the one log-sum-exp kernel, of which the two functions are the halves.

    ``x`` is a float64 array that the caller owns and gives up: it is
    overwritten in place (shifted, exponentiated, normalized) and returned as
    the softmax. Each step is the same elementwise operation the allocating
    form ``exp(x - max) / sum`` runs, so the bits are the same.
    """
    m = np.max(x, axis=axis, keepdims=True)
    x -= m
    np.exp(x, out=x)
    total = np.sum(x, axis=axis, keepdims=True)
    x /= total
    return m.squeeze(axis) + np.log(total.squeeze(axis)), x


def bpr_loss(batch: ScoreBatch) -> LossResult:
    """Pairwise log-sigmoid ranking loss.

    value = -mean over all (positive, negative) pairs of
    log sigmoid(pos - neg).
    """
    # -diff, the argument of both the value's softplus and the gradient's
    # sigmoid; each works in place on an array of its own
    neg_diff = batch.pos_scores[:, None] - batch.neg_scores
    np.negative(neg_diff, out=neg_diff)
    log_sig = _softplus(neg_diff.copy())
    np.negative(log_sig, out=log_sig)  # log sigmoid(diff)
    value = float(-np.mean(log_sig))
    del log_sig
    n_pairs = neg_diff.size
    # d(-log sigmoid(d))/dd = -sigmoid(-d)
    s = _sigmoid(neg_diff)
    grad_pos = -s.sum(axis=1) / n_pairs
    s /= n_pairs
    return LossResult(value, grad_pos, s)


def bce_loss(batch: ScoreBatch, balance: float) -> LossResult:
    """Binary cross-entropy with labels 1 (positives) and 0 (negatives).

    value = mean[-log sigmoid(pos)] + balance * mean[-log(1 - sigmoid(neg))].
    """
    balance = check_range("balance", balance, 0, math.inf)
    n, m = batch.n_examples, batch.n_negatives
    value = float(np.mean(softplus(-batch.pos_scores))
                  + balance * np.mean(softplus(batch.neg_scores)))
    grad_pos = -sigmoid(-batch.pos_scores) / n
    grad_neg = sigmoid(batch.neg_scores)
    grad_neg *= balance
    grad_neg /= n * m
    return LossResult(value, grad_pos, grad_neg)


def mse_loss(batch: ScoreBatch, balance: float) -> LossResult:
    """Squared-error regression toward labels 1 (positives) and 0 (negatives)."""
    balance = check_range("balance", balance, 0, math.inf)
    n, m = batch.n_examples, batch.n_negatives
    value = float(np.mean((batch.pos_scores - 1.0) ** 2)
                  + balance * np.mean(batch.neg_scores ** 2))
    grad_pos = 2.0 * (batch.pos_scores - 1.0) / n
    grad_neg = 2.0 * balance * batch.neg_scores / (n * m)
    return LossResult(value, grad_pos, grad_neg)


def softmax_loss(batch: ScoreBatch, tau: float) -> LossResult:
    """Temperature-scaled sampled softmax ranking loss.

    Per example: -pos + tau * log sum_j exp(neg_j / tau), averaged over the
    batch. The gradient over a row of negatives is exactly the softmax weight
    vector of that row at temperature ``tau`` (divided by the batch size), so
    hard negatives receive proportionally more pressure.
    """
    tau = check_range("tau", tau, MIN_TAU, math.inf)
    n = batch.n_examples
    lse, weights = _logsumexp_softmax(batch.neg_scores / tau, axis=1)
    value = float(np.mean(-batch.pos_scores + tau * lse))
    grad_pos = np.full(n, -1.0 / n)
    weights /= n
    return LossResult(value, grad_pos, weights)


def softmax_loss_no_variance(batch: ScoreBatch, tau: float) -> LossResult:
    """First-order surrogate of the softmax loss with its spread penalty removed.

    Per example: -pos + mean_j neg_j. Expanding the log-sum-exp of
    :func:`softmax_loss` in 1/tau gives, up to score-independent constants,
    mean_j neg_j plus Var_j[neg] / (2 tau); this surrogate keeps only the
    linear term, so every negative receives the same uniform gradient
    regardless of its score.
    """
    tau = check_range("tau", tau, MIN_TAU, math.inf)
    n, m = batch.n_examples, batch.n_negatives
    value = float(np.mean(-batch.pos_scores + batch.neg_scores.mean(axis=1)))
    grad_pos = np.full(n, -1.0 / n)
    grad_neg = np.full((n, m), 1.0 / (n * m))
    return LossResult(value, grad_pos, grad_neg)


def bsl_loss(batch: ScoreBatch, tau_pos: float, tau_neg: float,
             form: BslForm = BslForm.PSEUDOCODE,
             pos_group_sizes=None) -> LossResult:
    """Bilateral softmax loss with separate positive/negative temperatures.

    Two algebraic forms are supported:

    * ``CANONICAL``: per group of positives,
      -tau_pos * log mean_i exp(pos_i / tau_pos)
      + tau_neg * log sum_j exp(neg_j / tau_neg),
      averaged over groups. ``pos_group_sizes`` partitions the batch rows
      into per-user groups (default: every row its own group); a group's
      negative part pools the negative entries of all its rows. With a
      single positive the positive part reduces exactly to ``-pos``.
      Groups of equal size are evaluated together, one per row of a
      ``(groups, size)`` and a ``(groups, size * m)`` array, and the group
      terms are added sequentially in group order: the value and gradients
      carry exactly the bits of a loop over groups.
    * ``PSEUDOCODE``: one positive per row,
      -pos / tau_pos + (tau_pos / tau_neg) * log sum_j exp(neg_j / tau_neg),
      averaged over rows. With ``tau_pos == tau_neg`` this is the softmax
      loss scaled by ``1 / tau_pos``, so gradient directions coincide.
    """
    tau_pos = check_range("tau_pos", tau_pos, MIN_TAU, math.inf)
    tau_neg = check_range("tau_neg", tau_neg, MIN_TAU, math.inf)
    n = batch.n_examples

    if form is BslForm.PSEUDOCODE:
        if pos_group_sizes is not None and any(s != 1 for s in pos_group_sizes):
            raise ValueError("pseudocode form takes one positive per example")
        lse, weights = _logsumexp_softmax(batch.neg_scores / tau_neg, axis=1)
        value = float(np.mean(-batch.pos_scores / tau_pos + (tau_pos / tau_neg) * lse))
        grad_pos = np.full(n, -1.0 / (tau_pos * n))
        weights *= tau_pos / tau_neg ** 2
        weights /= n
        return LossResult(value, grad_pos, weights)

    if form is not BslForm.CANONICAL:
        raise ValueError(f"unknown form {form!r}")

    if pos_group_sizes is None:
        sizes = np.ones(n, dtype=np.int64)
    else:
        sizes = np.asarray(pos_group_sizes, dtype=np.int64).ravel()
        if np.any(sizes < 1):
            raise ValueError("every positive group needs at least one positive")
        if sizes.sum() != n:
            raise ValueError("pos_group_sizes must sum to the batch size")

    # one pass per distinct group size: the (G, size) positives and the
    # (G, size * m) pooled negatives of its groups, reduced along rows;
    # a row reduction sums exactly as the 1-D reduction of that row would
    n_groups, m = sizes.size, batch.n_negatives
    starts = np.cumsum(sizes) - sizes
    terms = np.empty(n_groups)
    grad_pos = np.empty(n)
    grad_neg = np.empty_like(batch.neg_scores)
    for size in np.unique(sizes):
        groups = np.flatnonzero(sizes == size)
        rows = (starts[groups, None] + np.arange(size)).ravel()
        pos_lse, pos_w = _logsumexp_softmax(
            batch.pos_scores[rows].reshape(-1, size) / tau_pos, axis=1)
        neg_lse, neg_w = _logsumexp_softmax(
            batch.neg_scores[rows].reshape(-1, size * m) / tau_neg, axis=1)
        # -tau_pos * log mean exp(p/tau_pos) = -tau_pos * (lse(p/tau_pos) - log size)
        terms[groups] = -tau_pos * (pos_lse - np.log(size)) + tau_neg * neg_lse
        grad_pos[rows] = (-pos_w / n_groups).ravel()
        neg_w /= n_groups
        grad_neg[rows] = neg_w.reshape(-1, m)
    # the groups' terms added one after another in group order (cumsum),
    # not pairwise as np.sum would
    return LossResult(float(np.cumsum(terms)[-1] / n_groups), grad_pos, grad_neg)


def loss_fn_from_spec(spec: LossSpec):
    """Bind a LossSpec to a `batch -> LossResult` callable."""
    kind = spec.kind
    if kind is LossKind.BPR:
        return bpr_loss
    if kind is LossKind.BCE:
        return lambda b: bce_loss(b, spec.bce_mse_balance)
    if kind is LossKind.MSE:
        return lambda b: mse_loss(b, spec.bce_mse_balance)
    if kind is LossKind.SL:
        return lambda b: softmax_loss(b, spec.tau)
    if kind is LossKind.SL_NOVAR:
        return lambda b: softmax_loss_no_variance(b, spec.tau)
    if kind is LossKind.BSL:
        return lambda b: bsl_loss(b, spec.tau_pos, spec.tau_neg, spec.bsl_form)
    raise ValueError(f"unknown loss kind {kind!r}")
