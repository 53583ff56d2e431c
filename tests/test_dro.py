import math

import numpy as np
import pytest

from recdro.config import MIN_TAU, ConfigError
from recdro.dro import (base_mean_and_variance, dual_value, estimate_eta,
                        kl_ball_sup, kl_divergence, taylor_negative_part,
                        tau_star, worst_case_weights)


def random_instance(rng, n_atoms=None):
    n = n_atoms or int(rng.integers(3, 9))
    scores = rng.uniform(-1, 1, n)
    base = rng.dirichlet(np.ones(n) * 5)
    return scores, base


def entropy(p):
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def projected_ascent_lower_bound(scores, base, eta, iters=10_000, step=0.05):
    """Feasible ascent of E_p[scores] on the KL ball (always a lower bound).

    Euclidean simplex projection after each gradient step, then a binary
    search toward the base along the mixing segment whenever the KL
    constraint is violated (KL is convex and vanishes at the base, so it is
    nonincreasing along that segment).
    """
    def project_simplex(v):
        u = np.sort(v)[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1))[0][-1]
        theta = (css[rho] - 1.0) / (rho + 1)
        return np.maximum(v - theta, 0.0)

    def pull_inside(p):
        if kl_divergence(p, base) <= eta:
            return p
        lo, hi = 0.0, 1.0  # hi = fully at base
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            q = (1 - mid) * p + mid * base
            if kl_divergence(q, base) > eta:
                lo = mid
            else:
                hi = mid
        return (1 - hi) * p + hi * base

    p = base.copy()
    best_val = p @ scores
    for t in range(iters):
        p = project_simplex(p + step / math.sqrt(t + 1) * scores)
        p = pull_inside(p)
        best_val = max(best_val, p @ scores)
    return float(best_val)


def constrained_solver_oracle(scores, base, eta):
    """Independent oracle: generic SQP solve of the constrained program."""
    from scipy.optimize import minimize

    n = len(scores)

    def kl_slack(p):
        p = np.maximum(p, 1e-300)
        return eta - float(np.sum(p * (np.log(p) - np.log(base))))

    res = minimize(
        lambda p: -float(p @ scores), base,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0},
                     {"type": "ineq", "fun": kl_slack}],
        options={"maxiter": 500, "ftol": 1e-14})
    assert res.success
    return -float(res.fun)


class TestWorstCaseWeights:
    def test_equal_scores_keep_base(self):
        base = np.array([0.2, 0.5, 0.3])
        wc = worst_case_weights(np.full(3, 0.7), base, 0.1)
        assert np.allclose(wc.weights, base, atol=1e-12)
        assert wc.kl_radius == pytest.approx(0.0, abs=1e-12)

    def test_two_atom_exponential_ratio(self):
        tau = 0.35
        wc = worst_case_weights([tau * math.log(3), 0.0], [0.5, 0.5], tau)
        assert np.allclose(wc.weights, [0.75, 0.25], atol=1e-12)

    def test_weights_are_normalized_and_radius_consistent(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores, base = random_instance(rng)
            wc = worst_case_weights(scores, base, rng.uniform(0.05, 2.0))
            assert wc.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (wc.weights >= 0).all()
            assert wc.kl_radius == pytest.approx(
                kl_divergence(wc.weights, base), abs=1e-10)

    def test_entropy_grows_sharper_as_temperature_drops(self):
        rng = np.random.default_rng(1)
        scores, _ = random_instance(rng, n_atoms=5)
        base = np.full(5, 0.2)
        ents = [entropy(worst_case_weights(scores, base, t).weights)
                for t in (0.5, 0.2, 0.1)]
        assert ents[0] > ents[1] > ents[2]

    def test_preserves_score_ranking(self):
        rng = np.random.default_rng(2)
        scores, base = random_instance(rng, n_atoms=6)
        wc = worst_case_weights(scores, base, 0.2)
        lifts = wc.weights / base
        order = np.argsort(scores)
        assert (np.diff(lifts[order]) > 0).all()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            worst_case_weights([1.0, 2.0], [0.5, 0.25, 0.25], 0.1)


class TestDualValue:
    def test_constant_scores(self):
        assert dual_value([0.4, 0.4], [0.5, 0.5], 0.7, 0.0) == pytest.approx(0.4)

    def test_two_atom_closed_form(self):
        v = dual_value([1.0, 0.0], [0.5, 0.5], 1.0, 0.0)
        assert v == pytest.approx(math.log((math.e + 1) / 2), abs=1e-12)

    def test_radius_term_is_linear(self):
        v0 = dual_value([0.3, -0.2], [0.5, 0.5], 0.4, 0.0)
        v1 = dual_value([0.3, -0.2], [0.5, 0.5], 0.4, 0.25)
        assert v1 - v0 == pytest.approx(0.4 * 0.25, abs=1e-12)

    def test_nonincreasing_in_temperature(self):
        # power-mean inequality: tau * log E exp(f/tau) falls as tau grows
        rng = np.random.default_rng(3)
        scores, base = random_instance(rng)
        taus = np.geomspace(0.01, 50, 40)
        vals = [dual_value(scores, base, t, 0.0) for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            dual_value([0.1], [1.0], -1.0, 0.0)
        with pytest.raises(ValueError):
            dual_value([0.1], [1.0], 1.0, -0.1)


class TestKlBallSup:
    def test_zero_radius_degenerates_to_base_mean(self):
        scores = np.array([0.5, -0.5, 0.1])
        base = np.array([0.2, 0.3, 0.5])
        res = kl_ball_sup(scores, base, 0.0)
        assert res.value == pytest.approx(float(base @ scores))
        assert np.allclose(res.argmax, base)

    def test_constant_scores_any_radius(self):
        res = kl_ball_sup([0.3, 0.3, 0.3], [0.1, 0.4, 0.5], 2.0)
        assert res.value == pytest.approx(0.3)

    def test_binding_constraint_spends_whole_radius(self):
        rng = np.random.default_rng(4)
        scores, base = random_instance(rng)
        res = kl_ball_sup(scores, base, 0.05)
        assert kl_divergence(res.argmax, base) == pytest.approx(0.05, abs=1e-9)

    def test_huge_radius_clamps_to_max_support(self):
        res = kl_ball_sup([0.9, 0.1, 0.9], [0.25, 0.5, 0.25], 10.0)
        assert res.value == pytest.approx(0.9)
        assert np.allclose(res.argmax, [0.5, 0.0, 0.5])

    def test_matches_independent_solver_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            scores, base = random_instance(rng, n_atoms=4)
            eta = 0.08
            res = kl_ball_sup(scores, base, eta)
            assert abs(res.value - constrained_solver_oracle(scores, base, eta)) < 1e-5
            # any feasible point found by projected ascent stays below the sup
            assert projected_ascent_lower_bound(scores, base, eta) <= res.value + 1e-9

    def test_value_nondecreasing_in_radius(self):
        rng = np.random.default_rng(6)
        scores, base = random_instance(rng)
        values = [kl_ball_sup(scores, base, e).value
                  for e in (0.0, 0.01, 0.05, 0.2, 1.0, 5.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_agrees_with_tilt_at_achieved_radius(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            scores, base = random_instance(rng)
            wc = worst_case_weights(scores, base, rng.uniform(0.05, 1.0))
            res = kl_ball_sup(scores, base, wc.kl_radius)
            assert np.max(np.abs(res.argmax - wc.weights)) < 1e-8

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            kl_ball_sup([0.1, 0.2], [0.5, 0.5], -0.01)


class TestDuality:
    def test_dual_minimum_equals_constrained_supremum(self):
        rng = np.random.default_rng(8)
        taus = np.geomspace(1e-3, 1e3, 600)
        for _ in range(10):
            scores, base = random_instance(rng)
            for eta in (0.01, 0.1, 0.5):
                sup = kl_ball_sup(scores, base, eta).value
                duals = [dual_value(scores, base, t, eta) for t in taus]
                i = int(np.argmin(duals))
                # refine around the coarse grid minimum
                fine = np.geomspace(taus[max(i - 1, 0)], taus[min(i + 1, len(taus) - 1)], 400)
                mins = min(dual_value(scores, base, t, eta) for t in fine)
                assert abs(mins - sup) < 1e-5


class TestTaylorExpansion:
    def test_constant_scores(self):
        assert taylor_negative_part([0.3, 0.3], [0.5, 0.5], 2.0) == pytest.approx(0.3)

    def test_symmetric_two_atoms(self):
        assert taylor_negative_part([1.0, -1.0], [0.5, 0.5], 1.0) == pytest.approx(0.5)

    def test_error_shrinks_quadratically(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            scores, base = random_instance(rng)
            errs = {}
            for tau in (10.0, 20.0):
                exact = dual_value(scores, base, tau, 0.0)
                errs[tau] = abs(exact - taylor_negative_part(scores, base, tau))
            assert errs[20.0] <= 0.30 * errs[10.0] + 1e-15


class TestTemperatureRadiusLink:
    def test_tau_star_direct(self):
        assert tau_star(2.0, 1.0) == pytest.approx(1.0)
        assert tau_star(0.0, 0.5) == 0.0

    def test_tau_star_validation(self):
        with pytest.raises(ValueError):
            tau_star(1.0, 0.0)
        with pytest.raises(ValueError):
            tau_star(-1.0, 0.1)

    def test_estimate_eta_trivial(self):
        assert estimate_eta([0.5, 0.5], [0.5, 0.5], 0.3) == 0.0
        assert estimate_eta([1.0, -1.0], [0.5, 0.5], 1.0) == pytest.approx(0.5)

    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            scores, base = random_instance(rng)
            tau = rng.uniform(0.05, 5.0)
            eta = estimate_eta(scores, base, tau)
            _, var = base_mean_and_variance(scores, base)
            if var == 0:
                continue
            assert tau_star(var, eta) == pytest.approx(tau, abs=1e-12)

    def test_grid_argmin_matches_closed_form_for_small_radius(self):
        rng = np.random.default_rng(11)
        scores, base = random_instance(rng, n_atoms=5)
        eta = 1e-3
        taus = np.geomspace(0.05, 1000, 4000)
        duals = [dual_value(scores, base, t, eta) for t in taus]
        tau_grid = taus[int(np.argmin(duals))]
        _, var = base_mean_and_variance(scores, base)
        assert tau_grid == pytest.approx(tau_star(var, eta), rel=0.10)


def test_kl_divergence_basics():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))


_SCORES, _BASE = [0.1, 0.5, -0.2], [0.25, 0.5, 0.25]
# (argument name, call with that argument set to v, values outside its range)
_RANGE_CASES = {
    "worst_case_weights": ("tau", lambda v: worst_case_weights(_SCORES, _BASE, v),
                           [math.nan, math.inf, 1e-9]),
    "dual_value/tau": ("tau", lambda v: dual_value(_SCORES, _BASE, v, 0.1),
                       [math.nan, math.inf, 1e-9]),
    "dual_value/eta": ("eta", lambda v: dual_value(_SCORES, _BASE, 0.1, v),
                       [math.nan, math.inf]),
    "kl_ball_sup": ("eta", lambda v: kl_ball_sup(_SCORES, _BASE, v), [math.nan, math.inf]),
    "taylor_negative_part": ("tau", lambda v: taylor_negative_part(_SCORES, _BASE, v),
                             [math.nan, math.inf, 1e-9]),
    "estimate_eta": ("tau", lambda v: estimate_eta(_SCORES, _BASE, v),
                     [math.nan, math.inf, 1e-9]),
    "tau_star/variance": ("variance", lambda v: tau_star(v, 0.1), [math.nan, math.inf]),
    "tau_star/eta": ("eta", lambda v: tau_star(1.0, v), [math.nan, math.inf]),
}


@pytest.mark.parametrize("case, value", [
    pytest.param(case, value, id=f"{case}={value:g}")
    for case, (_, _, values) in _RANGE_CASES.items() for value in values])
def test_argument_outside_the_range_rule_is_a_config_error(case, value):
    """NaN, an infinite value and a temperature under the losses' floor all
    fail by name; none returns a NaN or a silent limit."""
    name, call, _ = _RANGE_CASES[case]
    with pytest.raises(ConfigError, match=f"^{name} must"):
        call(value)


def test_temperature_floor_is_the_losses_floor():
    assert worst_case_weights(_SCORES, _BASE, MIN_TAU).weights.argmax() == 1
    assert estimate_eta(_SCORES, _BASE, MIN_TAU) > 0


def test_tau_star_whose_result_would_overflow_names_eta():
    """The smallest positive eta passes the range rule, but 1 / (2 eta) is inf."""
    with pytest.raises(ConfigError, match="^eta must"):
        tau_star(1.0, 5e-324)
    with pytest.raises(ConfigError, match="^eta must"):
        tau_star(1e300, 1e-10)
    assert math.isfinite(tau_star(1e-300, 5e-324))
