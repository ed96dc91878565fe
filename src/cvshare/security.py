"""Statistics of attainable MSEs, access thresholds and mutual information.

The empirical summed MSE over N probes per quadrature follows a scaled
chi-squared law with 2N degrees of freedom: mean mu, variance mu^2/N.
Access control compares that statistic to a threshold v_T; the breach
probability delta (a lone party under the threshold) and the success
probability P_s (a coalition under the threshold) are both tail values
of the same distribution family.

Convention: a distribution's mu always refers to the summed
two-quadrature MSE with N probes per quadrature. Mutual-information
conversions use the per-quadrature value mu/2 under the symmetric
assumption that both quadratures are estimated equally well.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True, slots=True)
class MseDistribution:
    """Scaled chi-squared law of the summed two-quadrature MSE.

    :param mu: mean summed MSE, > 0 (shot-noise units squared).
    :param n_probes: probes per quadrature, >= 1; the statistic has
        2 * n_probes degrees of freedom.
    """

    mu: float
    n_probes: int

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise InvalidArgumentError("mu must be finite and > 0")
        if not isinstance(self.n_probes, int) or self.n_probes < 1:
            raise InvalidArgumentError("n_probes must be an integer >= 1")


@dataclass(frozen=True, slots=True)
class SecurityReport:
    """Threshold comparison for one coalition against the lone party."""

    v_t: float
    delta: float
    p_success: float
    coalition: str
    n_probes: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_x(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("MSE values must be finite")
    return arr


def mse_pdf(x, dist: MseDistribution):
    """Density of the summed-MSE law at x (vectorized; 0 for x < 0).

    Evaluated in the log domain so large probe counts do not overflow
    the gamma function.
    """
    from scipy import special

    arr = _check_x(x)
    n = dist.n_probes
    mu = dist.mu
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    xp = arr[pos]
    log_pdf = (
        math.log(2.0 * n / mu)
        - n * math.log(2.0)
        - special.gammaln(n)
        + (n - 1.0) * np.log(2.0 * xp * n / mu)
        - xp * n / mu
    )
    out[pos] = np.exp(log_pdf)
    if np.any(arr == 0.0):
        out[arr == 0.0] = 1.0 / mu if n == 1 else 0.0
    return float(out[0]) if scalar else out


def mse_cdf_over_n(x, mu, n_probes):
    """Probability that the summed MSE at mean mu and n_probes probes per
    quadrature is at most x; broadcasts over all three, so one call covers a
    sweep over N. The arguments are taken as checked."""
    from scipy import special

    return special.gammainc(n_probes, np.clip(x, 0.0, None) * n_probes / mu)


def mse_cdf(x, dist: MseDistribution):
    """Probability that the summed MSE is at most x (vectorized)."""
    arr = _check_x(x)
    val = mse_cdf_over_n(arr, dist.mu, dist.n_probes)
    return float(val) if arr.ndim == 0 else val


def crossing_threshold(mu_a: float, mu_b: float) -> float:
    """Threshold where the two same-N density curves cross.

    v* = mu_a * mu_b * ln(mu_b / mu_a) / (mu_b - mu_a); the power and
    exponential factors of the two densities balance at the same point
    for every N, so the crossing is N-independent.
    """
    for name, mu in (("mu_a", mu_a), ("mu_b", mu_b)):
        if not (math.isfinite(mu) and mu > 0.0):
            raise InvalidArgumentError(f"{name} must be finite and > 0")
    if mu_a == mu_b:
        raise InvalidArgumentError("equal means have no crossing")
    return mu_a * mu_b * math.log(mu_b / mu_a) / (mu_b - mu_a)


def security_probabilities(
    v_t: float,
    single: MseDistribution,
    coalition: MseDistribution,
    coalition_name: str = "abc",
) -> SecurityReport:
    """Breach probability of the lone party and success probability of the coalition.

    delta = Pr(single MSE <= v_t), p_success = Pr(coalition MSE <= v_t),
    both at the shared probe count.
    """
    if not (math.isfinite(v_t) and v_t >= 0.0):
        raise InvalidArgumentError("v_t must be finite and >= 0")
    if single.n_probes != coalition.n_probes:
        raise InvalidArgumentError("distributions must share the probe count")
    return SecurityReport(
        v_t=v_t,
        delta=mse_cdf(v_t, single),
        p_success=mse_cdf(v_t, coalition),
        coalition=coalition_name,
        n_probes=single.n_probes,
    )


def mutual_information(v_dist: float, v_alpha):
    """Bits shared per use for modulation variance v_dist and per-quadrature MSE v_alpha.

    v_alpha may be an array, such as one MSE per probe count of a sweep.
    ``math.log2`` is applied per value: numpy's log2 differs from it in
    the last bit on some inputs.
    """
    alphas = np.asarray(v_alpha, dtype=float)
    for name, v in (("v_dist", np.asarray(v_dist, dtype=float)), ("v_alpha", alphas)):
        if not np.all(np.isfinite(v) & (v > 0.0)):
            raise InvalidArgumentError(f"{name} must be finite and > 0")
    bits = [math.log2(v_dist + a) - math.log2(a) for a in alphas.ravel().tolist()]
    return bits[0] if alphas.ndim == 0 else np.reshape(bits, alphas.shape)


def required_mse(c_bits: float, v_dist: float) -> float:
    """Per-quadrature MSE needed for at least c bits: v_dist / (2^c - 1)."""
    if not (math.isfinite(c_bits) and c_bits > 0.0):
        raise InvalidArgumentError("c_bits must be finite and > 0")
    if not (math.isfinite(v_dist) and v_dist > 0.0):
        raise InvalidArgumentError("v_dist must be finite and > 0")
    try:
        target = v_dist / (2.0**c_bits - 1.0)
    except (OverflowError, ZeroDivisionError):
        target = math.nan
    if not (math.isfinite(target) and target > 0.0):
        raise InvalidArgumentError(
            f"c_bits = {c_bits!r} at v_dist = {v_dist!r} gives no finite positive MSE target"
        )
    return target


def prob_mi_above(c_bits: float, v_dist: float, dist: MseDistribution) -> float:
    """Probability of attaining at least c bits of mutual information.

    The required per-quadrature MSE is doubled to place it on the
    summed-MSE scale of the distribution (symmetric quadratures).
    """
    return mse_cdf(2.0 * required_mse(c_bits, v_dist), dist)

