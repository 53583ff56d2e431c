import math

import numpy as np
import pytest

from recdro.config import BslForm, ConfigError
from recdro.dro import dual_value
from recdro.losses import (LossResult, ScoreBatch, bce_loss, bpr_loss, bsl_loss,
                           logsumexp, mse_loss, softmax, softmax_loss,
                           softmax_loss_no_variance)


def random_batch(rng, n=None, m=None, lo=-1.0, hi=1.0):
    n = n or int(rng.integers(1, 6))
    m = m or int(rng.integers(2, 9))
    return ScoreBatch(rng.uniform(lo, hi, n), rng.uniform(lo, hi, (n, m)))


def fd_relative_error(loss_fn, batch, h=1e-5):
    """Norm-relative gap between analytic gradients and central differences."""
    res = loss_fn(batch)
    pos, neg = batch.pos_scores, batch.neg_scores

    fd_pos = np.zeros_like(res.grad_pos)
    for i in range(pos.size):
        p1, p2 = pos.copy(), pos.copy()
        p1[i] += h
        p2[i] -= h
        fd_pos[i] = (loss_fn(ScoreBatch(p1, neg)).value
                     - loss_fn(ScoreBatch(p2, neg)).value) / (2 * h)
    fd_neg = np.zeros_like(res.grad_neg)
    for i in range(neg.shape[0]):
        for j in range(neg.shape[1]):
            n1, n2 = neg.copy(), neg.copy()
            n1[i, j] += h
            n2[i, j] -= h
            fd_neg[i, j] = (loss_fn(ScoreBatch(pos, n1)).value
                            - loss_fn(ScoreBatch(pos, n2)).value) / (2 * h)

    full_fd = np.concatenate([fd_pos, fd_neg.ravel()])
    full_an = np.concatenate([res.grad_pos, res.grad_neg.ravel()])
    return np.linalg.norm(full_fd - full_an) / max(np.linalg.norm(full_an), 1e-12)


def flat_grads(res: LossResult) -> np.ndarray:
    return np.concatenate([res.grad_pos, res.grad_neg.ravel()])


class TestBprLoss:
    def test_tied_pair(self):
        res = bpr_loss(ScoreBatch([0.4], [[0.4]]))
        assert res.value == pytest.approx(math.log(2), abs=1e-12)
        assert res.grad_pos[0] == pytest.approx(-0.5)
        assert res.grad_neg[0, 0] == pytest.approx(0.5)

    def test_dominant_positive_vanishes(self):
        res = bpr_loss(ScoreBatch([30.0], [[0.0, -0.5]]))
        assert 0 < res.value < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        err = fd_relative_error(bpr_loss, ScoreBatch([0.8], [[0.1, -0.3]]))
        assert err < 1e-6
        for _ in range(20):
            assert fd_relative_error(bpr_loss, random_batch(rng)) < 1e-6


class TestBceLoss:
    def test_zero_scores(self):
        res = bce_loss(ScoreBatch([0.0], [[0.0]]), 1.0)
        assert res.value == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_zero_balance_drops_negatives(self):
        res = bce_loss(ScoreBatch([0.3], [[0.9, -0.2]]), 0.0)
        assert (res.grad_neg == 0).all()
        assert res.value == pytest.approx(-math.log(1 / (1 + math.exp(-0.3))))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            fn = lambda b: bce_loss(b, 1.7)
            assert fd_relative_error(fn, random_batch(rng)) < 1e-6


class TestMseLoss:
    def test_perfect_fit(self):
        res = mse_loss(ScoreBatch([1.0], [[0.0]]), 1.0)
        assert res.value == 0.0
        assert (res.grad_pos == 0).all() and (res.grad_neg == 0).all()

    def test_direct_substitution(self):
        assert mse_loss(ScoreBatch([0.0], [[1.0]]), 1.0).value == pytest.approx(2.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            fn = lambda b: mse_loss(b, 0.6)
            assert fd_relative_error(fn, random_batch(rng)) < 1e-6


class TestSoftmaxLoss:
    def test_equal_scores_value(self):
        s, n, tau = 0.27, 9, 0.13
        res = softmax_loss(ScoreBatch([s], [[s] * n]), tau)
        assert res.value == pytest.approx(tau * math.log(n), abs=1e-12)

    def test_equal_scores_weights_uniform(self):
        res = softmax_loss(ScoreBatch([0.1], [[0.4] * 5]), 0.2)
        assert np.allclose(res.grad_neg, 1 / 5)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            tau = rng.uniform(0.05, 1.0)
            fn = lambda b: softmax_loss(b, tau)
            assert fd_relative_error(fn, random_batch(rng)) < 1e-6

    def test_consistent_with_dual_bound(self):
        # per example the negative part is the dual bound at radius zero plus
        # the documented tau*log(m) sum-vs-mean offset
        rng = np.random.default_rng(11)
        batch = random_batch(rng, n=4, m=6)
        tau = 0.21
        res = softmax_loss(batch, tau)
        base = np.full(6, 1 / 6)
        expected = np.mean([
            -batch.pos_scores[i] + tau * math.log(6)
            + dual_value(batch.neg_scores[i], base, tau, 0.0)
            for i in range(4)
        ])
        assert res.value == pytest.approx(expected, abs=1e-10)

    def test_shift_invariant_negative_weights(self):
        rng = np.random.default_rng(12)
        batch = random_batch(rng, n=3, m=7)
        shifted = ScoreBatch(batch.pos_scores, batch.neg_scores + 0.37)
        g1 = softmax_loss(batch, 0.11).grad_neg
        g2 = softmax_loss(shifted, 0.11).grad_neg
        assert np.max(np.abs(g1 - g2)) < 1e-12

    def test_tiny_tau_rejected(self):
        with pytest.raises(ValueError):
            softmax_loss(ScoreBatch([0.0], [[0.0]]), 1e-9)


class TestSoftmaxLossNoVariance:
    def test_equal_scores_cancel(self):
        res = softmax_loss_no_variance(ScoreBatch([0.3], [[0.3, 0.3]]), 0.5)
        assert res.value == pytest.approx(0.0, abs=1e-15)

    def test_uniform_negative_gradient(self):
        rng = np.random.default_rng(13)
        batch = random_batch(rng, n=4, m=5)
        res = softmax_loss_no_variance(batch, 0.5)
        assert np.allclose(res.grad_neg, 1 / (4 * 5))

    def test_gap_to_softmax_is_variance_term(self):
        # removing the documented tau*log(m) offset, the gap approaches
        # Var[neg] / (2 tau) as tau grows
        rng = np.random.default_rng(14)
        batch = random_batch(rng, n=1, m=12)
        var = np.var(batch.neg_scores[0])
        for tau in (5.0, 10.0, 20.0):
            gap = (softmax_loss(batch, tau).value
                   - softmax_loss_no_variance(batch, tau).value
                   - tau * math.log(12))
            assert gap / (var / (2 * tau)) == pytest.approx(1.0, rel=0.05)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            fn = lambda b: softmax_loss_no_variance(b, 0.3)
            assert fd_relative_error(fn, random_batch(rng)) < 1e-6


class TestBilateralLoss:
    def test_pseudocode_equals_scaled_softmax(self):
        rng = np.random.default_rng(16)
        batch = random_batch(rng, n=3, m=6)
        tau = 0.17
        b = bsl_loss(batch, tau, tau, BslForm.PSEUDOCODE)
        s = softmax_loss(batch, tau)
        assert b.value == pytest.approx(s.value / tau, rel=1e-12)

    def test_canonical_single_positive_equals_softmax(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, n=3, m=6)
        tau = 0.17
        b = bsl_loss(batch, tau, tau, BslForm.CANONICAL)
        s = softmax_loss(batch, tau)
        assert b.value == pytest.approx(s.value, abs=1e-12)
        assert np.allclose(flat_grads(b), flat_grads(s), atol=1e-14)

    def test_gradient_direction_matches_softmax(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            batch = random_batch(rng)
            tau = rng.uniform(0.05, 1.0)
            g_s = flat_grads(softmax_loss(batch, tau))
            for form in (BslForm.PSEUDOCODE, BslForm.CANONICAL):
                g_b = flat_grads(bsl_loss(batch, tau, tau, form))
                cos = g_s @ g_b / (np.linalg.norm(g_s) * np.linalg.norm(g_b))
                assert cos == pytest.approx(1.0, abs=1e-12)

    def test_canonical_positive_part_is_plain_score(self):
        # one positive: -tau1 * log mean of a single exp collapses exactly
        batch = ScoreBatch([0.42], [[0.0, 0.1]])
        res = bsl_loss(batch, 0.07, 0.5, BslForm.CANONICAL)
        neg_part = 0.5 * logsumexp(batch.neg_scores[0] / 0.5)
        assert res.value == pytest.approx(-0.42 + neg_part, abs=1e-12)

    def test_grouped_low_temperature_approaches_max(self):
        rng = np.random.default_rng(19)
        pos = rng.uniform(-1, 1, 3)
        batch = ScoreBatch(pos, rng.uniform(-1, 1, (3, 4)))
        res = bsl_loss(batch, 1e-4, 0.5, BslForm.CANONICAL, pos_group_sizes=[3])
        neg_part = 0.5 * logsumexp(batch.neg_scores.ravel() / 0.5)
        pos_part = res.value - neg_part
        assert pos_part == pytest.approx(-pos.max(), abs=1e-3)

    def test_grouped_sizes_validated(self):
        batch = ScoreBatch([0.1, 0.2], [[0.0], [0.0]])
        with pytest.raises(ValueError):
            bsl_loss(batch, 0.1, 0.1, BslForm.CANONICAL, pos_group_sizes=[3])
        with pytest.raises(ValueError):
            bsl_loss(batch, 0.1, 0.1, BslForm.CANONICAL, pos_group_sizes=[2, 0])
        with pytest.raises(ValueError):
            bsl_loss(batch, 0.1, 0.1, BslForm.PSEUDOCODE, pos_group_sizes=[2])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(20)
        for form in (BslForm.PSEUDOCODE, BslForm.CANONICAL):
            for _ in range(10):
                fn = lambda b: bsl_loss(b, 0.3, 0.2, form)
                assert fd_relative_error(fn, random_batch(rng)) < 1e-6
        fn = lambda b: bsl_loss(b, 0.25, 0.4, BslForm.CANONICAL,
                                pos_group_sizes=[2, 2])
        assert fd_relative_error(fn, random_batch(rng, n=4, m=5)) < 1e-6


ALL_LOSSES = [
    ("bpr", bpr_loss),
    ("bce", lambda b: bce_loss(b, 1.0)),
    ("mse", lambda b: mse_loss(b, 1.0)),
    ("sl", lambda b: softmax_loss(b, 0.05)),
    ("sl_novar", lambda b: softmax_loss_no_variance(b, 0.05)),
    ("bsl", lambda b: bsl_loss(b, 0.06, 0.05)),
]


@pytest.mark.parametrize("name,fn", ALL_LOSSES)
def test_permutation_equivariance(name, fn):
    rng = np.random.default_rng(21)
    batch = random_batch(rng, n=3, m=6)
    perm = rng.permutation(6)
    res = fn(batch)
    res_p = fn(ScoreBatch(batch.pos_scores, batch.neg_scores[:, perm]))
    assert res_p.value == pytest.approx(res.value, rel=1e-12)
    assert np.allclose(res_p.grad_neg, res.grad_neg[:, perm], atol=1e-14)


@pytest.mark.parametrize("name,fn", ALL_LOSSES)
def test_finite_on_unit_range_scores(name, fn):
    rng = np.random.default_rng(22)
    for _ in range(10):
        batch = random_batch(rng)
        res = fn(batch)
        assert np.isfinite(res.value)
        assert np.isfinite(res.grad_pos).all()
        assert np.isfinite(res.grad_neg).all()


@pytest.mark.parametrize("tau", [0.01, 0.05, 1.0])
def test_softmax_family_finite_at_low_temperature(tau):
    rng = np.random.default_rng(23)
    batch = random_batch(rng, n=4, m=8)
    for fn in (lambda b: softmax_loss(b, tau),
               lambda b: softmax_loss_no_variance(b, tau),
               lambda b: bsl_loss(b, tau, tau)):
        res = fn(batch)
        assert np.isfinite(res.value)
        assert np.isfinite(flat_grads(res)).all()


def test_stable_logsumexp_matches_naive_at_benign_magnitudes():
    rng = np.random.default_rng(24)
    x = rng.uniform(-5, 5, (4, 9))
    naive = np.log(np.sum(np.exp(x), axis=1))
    assert np.allclose(logsumexp(x, axis=1), naive, atol=1e-12)
    naive_sm = np.exp(x) / np.sum(np.exp(x), axis=1, keepdims=True)
    assert np.allclose(softmax(x, axis=1), naive_sm, atol=1e-12)


def test_stable_logsumexp_survives_extreme_magnitudes():
    x = np.array([[1000.0, 999.0], [-1000.0, -1001.0]])
    out = logsumexp(x, axis=1)
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1000.0 + math.log(1 + math.exp(-1.0)))


def test_score_batch_validation():
    with pytest.raises(ValueError):
        ScoreBatch([0.1, 0.2], [[0.1]])
    with pytest.raises(ValueError):
        ScoreBatch([np.inf], [[0.1]])
    with pytest.raises(ValueError):
        ScoreBatch([], np.empty((0, 3)))


class TestSharedExpBitIdentical:
    """The one-exp losses against the logsumexp + softmax forms, exactly."""

    def batch(self, seed):
        rng = np.random.default_rng(seed)
        return random_batch(rng, n=7, m=13, lo=-3.0, hi=3.0)

    @staticmethod
    def assert_same(res, value, grad_pos, grad_neg):
        assert res.value == value
        assert np.array_equal(res.grad_pos, grad_pos)
        assert np.array_equal(res.grad_neg, grad_neg)

    @pytest.mark.parametrize("tau", [0.05, 0.3, 2.0])
    def test_softmax_loss(self, tau):
        b = self.batch(1)
        n = b.n_examples
        lse = logsumexp(b.neg_scores / tau, axis=1)
        self.assert_same(softmax_loss(b, tau),
                         float(np.mean(-b.pos_scores + tau * lse)),
                         np.full(n, -1.0 / n),
                         softmax(b.neg_scores / tau, axis=1) / n)

    @pytest.mark.parametrize("tau_pos, tau_neg", [(0.1, 0.1), (0.4, 0.07)])
    def test_bsl_pseudocode(self, tau_pos, tau_neg):
        b = self.batch(2)
        n = b.n_examples
        lse = logsumexp(b.neg_scores / tau_neg, axis=1)
        self.assert_same(
            bsl_loss(b, tau_pos, tau_neg, BslForm.PSEUDOCODE),
            float(np.mean(-b.pos_scores / tau_pos + (tau_pos / tau_neg) * lse)),
            np.full(n, -1.0 / (tau_pos * n)),
            (tau_pos / tau_neg ** 2) * softmax(b.neg_scores / tau_neg, axis=1) / n)

    @pytest.mark.parametrize("sizes", [None, [3, 1, 2, 1]])
    def test_bsl_canonical(self, sizes):
        b = self.batch(3)
        tau_pos, tau_neg = 0.3, 0.08
        groups = sizes or [1] * b.n_examples
        grad_pos = np.zeros(b.n_examples)
        grad_neg = np.zeros_like(b.neg_scores)
        total, start = 0.0, 0
        for size in groups:
            rows = slice(start, start + size)
            p, negs = b.pos_scores[rows], b.neg_scores[rows]
            pos_part = -tau_pos * (logsumexp(p / tau_pos) - np.log(size))
            neg_part = tau_neg * logsumexp(negs.ravel() / tau_neg)
            total += pos_part + neg_part
            grad_pos[rows] = -softmax(p / tau_pos) / len(groups)
            grad_neg[rows] = softmax(negs.ravel() / tau_neg).reshape(negs.shape) / len(groups)
            start += size
        self.assert_same(bsl_loss(b, tau_pos, tau_neg, BslForm.CANONICAL, pos_group_sizes=sizes),
                         total / len(groups), grad_pos, grad_neg)

    @pytest.mark.parametrize("form", list(BslForm))
    def test_bsl_value_is_a_python_float(self, form):
        b = self.batch(4)
        assert type(bsl_loss(b, 0.3, 0.08, form).value) is float


def per_group_bsl(batch, tau_pos, tau_neg, sizes):
    """Canonical BSL one group at a time, with the 1-D logsumexp and softmax."""
    grad_pos = np.zeros(batch.n_examples)
    grad_neg = np.zeros_like(batch.neg_scores)
    total, start = 0.0, 0
    for size in sizes:
        rows = slice(start, start + size)
        p, negs = batch.pos_scores[rows], batch.neg_scores[rows]
        total += (-tau_pos * (logsumexp(p / tau_pos) - np.log(size))
                  + tau_neg * logsumexp(negs.ravel() / tau_neg))
        grad_pos[rows] = -softmax(p / tau_pos) / len(sizes)
        grad_neg[rows] = softmax(negs.ravel() / tau_neg).reshape(negs.shape) / len(sizes)
        start += size
    return float(total / len(sizes)), grad_pos, grad_neg


class TestCanonicalBslAtTrainingShape:
    """Size-grouped canonical BSL against the per-group loop, bit for bit, on
    a 1024-row batch with 64 negatives per row."""

    N, M = 1024, 64

    @staticmethod
    def realistic_sizes(rng, n, n_groups):
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_groups - 1, replace=False))
        return np.diff(np.concatenate([[0], cuts, [n]]))

    @pytest.mark.parametrize("case", ["430-groups", "all-ones", "one-group"])
    @pytest.mark.parametrize("tau_pos, tau_neg", [(0.1, 0.1), (0.3, 0.08)])
    def test_matches_per_group_loop(self, case, tau_pos, tau_neg):
        rng = np.random.default_rng(17)
        b = ScoreBatch(rng.uniform(-1, 1, self.N), rng.uniform(-1, 1, (self.N, self.M)))
        sizes = {"430-groups": self.realistic_sizes(rng, self.N, 430),
                 "all-ones": np.ones(self.N, dtype=np.int64),
                 "one-group": np.array([self.N])}[case]
        if case == "430-groups":
            # sizes repeat and are out of order, as a user-sorted batch gives them
            assert np.unique(sizes).size < sizes.size
            assert np.any(np.diff(sizes) < 0) and np.any(np.diff(sizes) > 0)
        res = bsl_loss(b, tau_pos, tau_neg, BslForm.CANONICAL, pos_group_sizes=sizes)
        value, grad_pos, grad_neg = per_group_bsl(b, tau_pos, tau_neg, sizes)
        assert res.value == value
        assert np.array_equal(res.grad_pos, grad_pos)
        assert np.array_equal(res.grad_neg, grad_neg)


@pytest.mark.parametrize("loss", [bce_loss, mse_loss])
@pytest.mark.parametrize("balance", [math.nan, math.inf, -math.inf])
def test_pointwise_balance_outside_range_is_a_config_error(loss, balance):
    with pytest.raises(ConfigError, match="^balance must"):
        loss(ScoreBatch([0.1, 0.4], [[0.2], [-0.3]]), balance)


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_logsumexp_and_softmax_equal_their_formulas_bit_for_bit(axis):
    x = np.random.default_rng(33).normal(scale=20.0, size=(3, 5, 4))
    m = np.max(x, axis=axis, keepdims=True)
    lse = m.squeeze(axis) + np.log(np.sum(np.exp(x - m), axis=axis))
    e = np.exp(x - np.max(x, axis=axis, keepdims=True))
    assert np.array_equal(logsumexp(x, axis), lse)
    assert np.array_equal(softmax(x, axis), e / np.sum(e, axis=axis, keepdims=True))
    # a vector still reduces to a numpy scalar, not a 0-d array
    assert type(logsumexp(x[0, 0])) is np.float64
