"""Worst-case distributions over KL divergence balls and their dual bound.

Given scores ``f`` over a finite negative batch with base distribution
``base``, the supremum of the expected score over {P : KL(P || base) <= eta}
is attained by an exponentially tilted distribution

    w_j  proportional to  base_j * exp(f_j / tau),

where the tilt temperature ``tau`` plays the role of the Lagrange multiplier
of the KL constraint. The matching dual bound is

    tau * log E_base[exp(f / tau)] + tau * eta,

whose minimum over tau > 0 equals the constrained supremum. For large tau
the dual's first term expands to E[f] + Var[f] / (2 tau) + O(1/tau^2), which
links the temperature and the radius through tau* ~ sqrt(Var / (2 eta)).

All functions take an explicit base distribution; nothing here silently
converts between tau and eta. Float arguments obey the one range rule,
:func:`recdro.config.check_range`; temperatures take the losses' MIN_TAU floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import MIN_TAU, ConfigError, check_range
from .losses import logsumexp, softmax

#: |KL(w || base) - eta| target for the bisection in kl_ball_sup.
BISECTION_TOL = 1e-12
BISECTION_MAX_STEPS = 200


class ConvergenceError(RuntimeError):
    """Raised when the tilt-temperature bisection fails to reach tolerance."""


@dataclass(frozen=True)
class WorstCaseDistribution:
    """Tilted probability weights over a negative batch.

    ``kl_radius`` is the achieved KL divergence from the weights back to the
    base distribution, i.e. the amount of budget this tilt consumes.
    """

    weights: np.ndarray
    kl_radius: float
    tau: float


def _validate_base(scores: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64).ravel()
    base = np.asarray(base, dtype=np.float64).ravel()
    if scores.shape != base.shape:
        raise ValueError(
            f"scores and base must have equal length ({scores.size} vs {base.size})")
    if scores.size == 0:
        raise ValueError("empty score vector")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    if np.any(base <= 0):
        raise ValueError("base distribution entries must be > 0")
    if abs(base.sum() - 1.0) > 1e-9:
        raise ValueError("base distribution must sum to 1")
    return scores, base


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) for finite distributions; entries of p may be zero."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > 0
    p = p[mask]
    return float((p * (np.log(p) - np.log(q[mask]))).sum())


def _tilt(scores: np.ndarray, base: np.ndarray, tau: float) -> np.ndarray:
    return softmax(np.log(base) + scores / tau)


def worst_case_weights(scores, base, tau: float) -> WorstCaseDistribution:
    """Exponentially tilt ``base`` toward high scores at temperature ``tau``.

    weights_j ~ base_j * exp(scores_j / tau), normalized max-shifted. Smaller
    temperatures concentrate the mass on the highest-scoring entries.
    """
    scores, base = _validate_base(scores, base)
    tau = check_range("tau", tau, MIN_TAU, math.inf)
    weights = _tilt(scores, base, tau)
    return WorstCaseDistribution(weights=weights,
                                 kl_radius=kl_divergence(weights, base),
                                 tau=tau)


def dual_value(scores, base, tau: float, eta: float) -> float:
    """Dual upper bound: tau * log E_base[exp(scores / tau)] + tau * eta."""
    scores, base = _validate_base(scores, base)
    tau = check_range("tau", tau, MIN_TAU, math.inf)
    eta = check_range("eta", eta, 0, math.inf)
    return float(tau * logsumexp(np.log(base) + scores / tau) + tau * eta)


class KlBallSupremum(NamedTuple):
    value: float
    argmax: np.ndarray


def kl_ball_sup(scores, base, eta: float) -> KlBallSupremum:
    """Maximize the expected score over {P : KL(P || base) <= eta}.

    Solved by bisecting on the tilt temperature: the KL divergence of the
    tilted distribution is continuous and strictly decreasing in tau (from
    -log of the base mass on the argmax set, as tau -> 0, down to 0), so the
    binding constraint pins a unique temperature. The bisection halves
    ``log tau`` over the fixed bracket [1e-15, 1e12], so its cost does not
    depend on the score scale; an ``eta`` whose temperature lies outside the
    bracket is a :class:`ConvergenceError`. When ``eta`` meets or exceeds the
    tau -> 0 limit, the result clamps to that limit: all mass on the maximal
    scores, proportional to the base. ``eta`` must be finite.
    """
    scores, base = _validate_base(scores, base)
    eta = check_range("eta", eta, 0, math.inf)
    if eta == 0 or np.all(scores == scores[0]):
        return KlBallSupremum(float(base @ scores), base.copy())

    top = scores == scores.max()
    kl_cap = -float(np.log(base[top].sum()))
    if eta >= kl_cap:
        limit = np.where(top, base, 0.0)
        limit = limit / limit.sum()
        return KlBallSupremum(float(scores.max()), limit)

    # KL falls as tau grows; halving log tau over one fixed bracket takes the
    # same number of steps at any score scale
    lo, hi = 1e-15, 1e12
    if not (kl_divergence(_tilt(scores, base, hi), base) <= eta
            <= kl_divergence(_tilt(scores, base, lo), base)):
        raise ConvergenceError(
            f"eta = {eta} is not reached by a tilt temperature in [{lo:g}, {hi:g}]")
    for _ in range(BISECTION_MAX_STEPS):
        tau = math.sqrt(lo * hi)
        weights = _tilt(scores, base, tau)
        kl = kl_divergence(weights, base)
        if abs(kl - eta) <= BISECTION_TOL:
            return KlBallSupremum(float(weights @ scores), weights)
        if kl > eta:
            lo = tau
        else:
            hi = tau
    raise ConvergenceError(
        f"tilt bisection did not reach |KL - eta| <= {BISECTION_TOL} "
        f"in {BISECTION_MAX_STEPS} steps")


def base_mean_and_variance(scores, base) -> tuple[float, float]:
    """Population mean and variance of ``scores`` under ``base``."""
    scores, base = _validate_base(scores, base)
    mean = float(base @ scores)
    var = float(base @ (scores - mean) ** 2)
    return mean, var


def taylor_negative_part(scores, base, tau: float) -> float:
    """Second-order expansion of the dual's log-expectation term.

    Returns E_base[scores] + Var_base[scores] / (2 tau); the gap to the exact
    tau * log E exp(scores / tau) shrinks as O(1/tau^2).
    """
    tau = check_range("tau", tau, MIN_TAU, math.inf)
    mean, var = base_mean_and_variance(scores, base)
    return mean + var / (2.0 * tau)


def tau_star(variance: float, eta: float) -> float:
    """Closed-form temperature that balances a score variance against a radius.

    tau* = sqrt(variance / (2 eta)); the approximate minimizer of the dual
    bound when the radius is small. A radius so small that tau* overflows is
    a :class:`ConfigError` naming ``eta``.
    """
    # the smallest positive float as the floor: eta must be > 0
    eta = check_range("eta", eta, math.ulp(0.0), math.inf)
    variance = check_range("variance", variance, 0, math.inf)
    tau = math.sqrt(variance / (2.0 * eta))
    if not math.isfinite(tau):
        raise ConfigError(f"eta must be large enough for a finite tau*, got {eta} "
                          f"with variance {variance}")
    return tau


def estimate_eta(scores, base, tau: float) -> float:
    """Invert :func:`tau_star`: the radius implied by a temperature.

    Returns Var_base[scores] / (2 tau^2).
    """
    tau = check_range("tau", tau, MIN_TAU, math.inf)
    _, var = base_mean_and_variance(scores, base)
    return var / (2.0 * tau * tau)
