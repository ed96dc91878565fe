"""Linear displacement estimators for each coalition, gain optimization and MSE accounting.

One table, :data:`WEIGHTS`, holds every estimator: per coalition and
quadrature, weight vectors w0 and w1 over the (A, B, C) outcomes t, for
the estimate bias_scale * (t @ w0 + g * (t @ w1)) with g the coalition's
gain and bias_scale = 1/sqrt(eta_A). A lone A has w1 = 0. w1 flips sign
from x to p, because the partners' p quadratures are anticorrelated
where their x quadratures are correlated. The witness is the all-three
row at g = 1, scaled by 1/sqrt(2). The gains (auxiliary -w1), the gain
fit, the batch sampler and the closed forms read the same table.

MSE reporting convention: when a coalition measures a single quadrature
per round, the probe budget is split between the two secrets, so the
reported per-quadrature MSE is twice the raw empirical mean squared
error. The single-party dual-homodyne path reads both quadratures from
every probe and is reported raw.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DegenerateAuxiliaryError,
    InvalidArgumentError,
    NoSignalError,
    check_scalar,
)
from .gaussian_core import (  # noqa: F401 (build_dealer_state: perfbench/tracing.py wraps it here)
    ExperimentModel,
    build_dealer_state,
    dealer_covariances,
)

#: variance below which an auxiliary combination is treated as degenerate
DEGENERATE_VARIANCE_TOL = 1e-12
#: per-quadrature MSE inflation when the probe budget is split between quadratures
RESOURCE_SPLIT_FACTOR = 2.0

# quadrature indices of the (C, B, A) dealer state
X_C, P_C, X_B, P_B, X_A, P_A = range(6)
#: the parties in the order of the weight vectors
PARTIES = ("a", "b", "c")
#: dealer-state quadrature index of each party's outcome, per quadrature (0 = x, 1 = p)
TRIPLE_INDICES = ((X_A, X_B, X_C), (P_A, P_B, P_C))


class Coalition(enum.Enum):
    """Subsets of parties that can pool outcomes to estimate the secret."""

    A_ALONE = "a_alone"
    AB = "ab"
    AC = "ac"
    ABC = "abc"

    @property
    def party_columns(self) -> tuple[str, ...]:
        """Parties whose outcomes the coalition's estimator reads: a nonzero weight."""
        w0, w1 = WEIGHTS[self, 0]
        return tuple(p for p, v0, v1 in zip(PARTIES, w0, w1) if v0 or v1)


_H = 1.0 / math.sqrt(2.0)
#: the estimators: (w0, w1) weight vectors over the (A, B, C) outcomes of one
#: quadrature, per (coalition, quadrature 0 = x or 1 = p); the estimate of a round
#: with outcomes t is bias_scale * (t @ w0 + g * (t @ w1))
WEIGHTS = {
    (Coalition.A_ALONE, 0): np.array(((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
    (Coalition.A_ALONE, 1): np.array(((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))),
    (Coalition.AB, 0): np.array(((1.0, 0.0, 0.0), (0.0, -1.0, 0.0))),
    (Coalition.AB, 1): np.array(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))),
    (Coalition.AC, 0): np.array(((1.0, 0.0, 0.0), (0.0, 0.0, -1.0))),
    (Coalition.AC, 1): np.array(((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))),
    (Coalition.ABC, 0): np.array(((1.0, 0.0, 0.0), (0.0, -_H, _H))),
    (Coalition.ABC, 1): np.array(((1.0, 0.0, 0.0), (0.0, _H, -_H))),
}
for _w in WEIGHTS.values():
    _w.setflags(write=False)


#: inputs that are rejected because they carry no information about the secret
NO_SIGNAL_COALITIONS = ("b", "c", "bc", "b_alone", "c_alone")


def parse_coalition(text: str) -> Coalition:
    """Parse a coalition name; subsets without party A are rejected."""
    key = text.strip().lower()
    if key in NO_SIGNAL_COALITIONS:
        raise NoSignalError(f"coalition {text!r} has no access to the secret")
    for c in Coalition:
        if key == c.value or key == c.name.lower():
            return c
    raise InvalidArgumentError(f"unknown coalition {text!r}")


@dataclass(frozen=True, slots=True)
class GainSet:
    """Gains and loss correction used by the coalition estimators.

    :param g_b: signed pair gain applied to the partner's outcome
        (x convention; the p estimator uses the opposite sign).
    :param g_bc: three-party gain on (x_B - x_C)/sqrt(2).
    :param bias_scale: loss-inversion factor 1/sqrt(eta_A), > 0.
    """

    g_b: float
    g_bc: float
    bias_scale: float = 1.0

    def __post_init__(self):
        for name in ("g_b", "g_bc", "bias_scale"):
            object.__setattr__(self, name, check_scalar(
                name, getattr(self, name), "finite", ends="()"))
        check_scalar("bias_scale", self.bias_scale, "> 0", 0.0, ends="(]")

    def gain(self, coalition: Coalition) -> float:
        """The gain the coalition's estimator applies: g_bc for all three, else g_b."""
        return self.g_bc if coalition is Coalition.ABC else self.g_b


#: the witness combination: the all-three estimator at g = 1, scaled by 1/sqrt(2)
_WITNESS_GAINS = GainSet(g_b=0.0, g_bc=1.0, bias_scale=_H)


@dataclass(frozen=True, slots=True)
class MseReport:
    """Empirical estimation error of one coalition.

    mse_x and mse_p follow the resource-split convention described in
    the module docstring; mse_sum is always their sum.
    """

    coalition: Coalition
    mse_x: float
    mse_p: float
    mse_sum: float
    n_x: int
    n_p: int
    gains: GainSet

    def to_json_dict(self) -> dict:
        return {**asdict(self), "coalition": self.coalition.value}


def optimal_gain(cov: np.ndarray, target_index: int, aux_coefficients: np.ndarray) -> float:
    """Gain minimizing Var(target - g * u) for u = aux_coefficients . quadratures.

    :return: g* = Cov(target, u) / Var(u).
    """
    cov = np.asarray(cov, dtype=float)
    c = np.asarray(aux_coefficients, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise InvalidArgumentError("cov must be square")
    if c.shape != (cov.shape[0],):
        raise InvalidArgumentError("aux_coefficients must match cov dimension")
    if not (0 <= target_index < cov.shape[0]):
        raise InvalidArgumentError("target_index out of range")
    return float(optimal_gains(cov[np.newaxis], target_index, c)[0])


def optimal_gains(cov: np.ndarray, target_index: int, aux_coefficients: np.ndarray) -> np.ndarray:
    """:func:`optimal_gain` for every matrix of an (n, d, d) covariance stack.

    Var(u) is reduced with ``np.vecdot``, which keeps each gain bit for bit
    the one computed on that matrix alone; an (n, d) @ (d,) product sums
    in another order.
    """
    c = aux_coefficients
    var_u = np.vecdot(c @ cov, c)
    if np.any(var_u <= DEGENERATE_VARIANCE_TOL):
        raise DegenerateAuxiliaryError("auxiliary combination has (near) zero variance")
    return (cov @ c)[:, target_index] / var_u


def aux_coefficients(coalition: Coalition, quad: int) -> np.ndarray:
    """The auxiliary combination u = -(t @ w1), which the estimate weighs by -g, as
    coefficients over the six dealer quadratures."""
    c = np.zeros(6)
    c[list(TRIPLE_INDICES[quad])] -= WEIGHTS[coalition, quad][1]
    return c


def pair_aux_coefficients(partner: str) -> np.ndarray:
    """:func:`aux_coefficients` of the pair with ``partner`` (b or c) in x."""
    return aux_coefficients(Coalition.AB if partner == "b" else Coalition.AC, 0)


def triple_aux_coefficients() -> np.ndarray:
    """:func:`aux_coefficients` of all three in x: (x_B - x_C)/sqrt(2)."""
    return aux_coefficients(Coalition.ABC, 0)


def gains_for_model(model: ExperimentModel, coalition: Coalition) -> GainSet:
    """Analytic gains from the model covariance, plus the 1/sqrt(eta_A) bias scale:
    g_b of the pair (A with C for AC, else with B) and g_bc of all three."""
    return _gains(dealer_covariances([model.r], model), coalition, model.eta_a)


def _gains(cov: np.ndarray, coalition: Coalition, eta_a: float) -> GainSet:
    """:func:`gains_for_model` from the model's dealer covariance, a (1, 6, 6) stack, for a
    caller that has built it already."""
    pair = Coalition.AC if coalition is Coalition.AC else Coalition.AB
    g_b, g_bc = (float(optimal_gains(cov, X_A, aux_coefficients(c, 0))[0])
                 for c in (pair, Coalition.ABC))
    return GainSet(g_b=g_b, g_bc=g_bc, bias_scale=1.0 / math.sqrt(eta_a))


def fit_gain(target_residuals: np.ndarray, aux_values: np.ndarray) -> float:
    """Least-squares gain from calibration data: minimizes sum((r - g*u)^2).

    :param target_residuals: target outcomes minus the known truths.
    :param aux_values: auxiliary combination per calibration round.
    """
    r = np.asarray(target_residuals, dtype=float)
    u = np.asarray(aux_values, dtype=float)
    if r.shape != u.shape or r.ndim != 1 or r.size == 0:
        raise InvalidArgumentError("residuals and aux values must be equal-length vectors")
    return fit_gain_from_sums(float(r @ u), float(u @ u), r.size)


def fit_gain_from_sums(sum_ru: float, sum_uu: float, n: int) -> float:
    """:func:`fit_gain` from sum(r * u) and sum(u * u) over n calibration rounds."""
    if sum_uu <= DEGENERATE_VARIANCE_TOL * n:
        raise DegenerateAuxiliaryError("auxiliary calibration data has (near) zero variance")
    return sum_ru / sum_uu


def weighted_sum(columns, w: np.ndarray) -> np.ndarray:
    """t @ w per round from the (A, B, C) outcome columns, reading only those with a
    nonzero weight; summed in party order one numpy operation at a time, so the
    rounding does not depend on the BLAS kernel, and into one fresh array, never into a
    column. A single weight of 1 returns its column."""
    first, *rest = np.flatnonzero(w)
    out = columns[first] if w[first] == 1.0 else w[first] * columns[first]
    for i, j in enumerate(rest):
        term = columns[j] if w[j] == 1.0 else w[j] * columns[j]
        # add in place, except into the first column itself, which a weight of 1 borrows
        out = np.add(out, term, out=out if i or w[first] != 1.0 else None)
    return out


def combine(columns, coalition: Coalition, quad: int, gains: GainSet) -> np.ndarray:
    """Estimates bias_scale * (t @ w0 + g * (t @ w1)) from the (A, B, C) outcome columns
    of one quadrature (:func:`weighted_sum`), the sum and the scale taken in place in the
    fresh product g * (t @ w1); a lone A reads A's column alone."""
    w0, w1 = WEIGHTS[coalition, quad]
    est = weighted_sum(columns, w0)
    if not w1.any():
        return gains.bias_scale * est
    aux = gains.gain(coalition) * weighted_sum(columns, w1)
    return np.multiply(gains.bias_scale, np.add(est, aux, out=aux), out=aux)


def _columns(outcomes: dict[str, np.ndarray], quadrature: str, parties) -> list:
    """The (A, B, C) columns of one quadrature; None for a party not in ``parties``."""
    cols = dict.fromkeys(PARTIES)
    for party in parties:
        key = f"{quadrature}_{party}"
        if key not in outcomes:
            raise InvalidArgumentError(f"missing outcome column {key!r}")
        cols[party] = np.asarray(outcomes[key], dtype=float)
    return list(cols.values())


def estimate(
    coalition: Coalition,
    outcomes: dict[str, np.ndarray],
    gains: GainSet,
    quadrature: str,
) -> np.ndarray:
    """Per-round estimates of one displacement component (:func:`combine`).

    :param outcomes: columns keyed "<quadrature>_<party>", e.g. "x_a";
        for A alone the single column is the dual-homodyne outcome.
    :param quadrature: "x" or "p".
    """
    if quadrature not in ("x", "p"):
        raise InvalidArgumentError("quadrature must be 'x' or 'p'")
    if not isinstance(coalition, Coalition):
        raise NoSignalError(f"coalition {coalition!r} has no access to the secret")
    columns = _columns(outcomes, quadrature, coalition.party_columns)
    return combine(columns, coalition, "xp".index(quadrature), gains)


def witness_estimate(triple_x: np.ndarray, triple_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three-party witness combinations, unbiased for (alpha_x, alpha_p)/sqrt(2), from
    the (A, B, C) outcomes of x rounds and of p rounds, one row per party.

    x_minus = x_A/sqrt(2) - (x_B - x_C)/2 and
    p_plus = p_A/sqrt(2) + (p_B - p_C)/2: the all-three estimator at
    g = 1, scaled by 1/sqrt(2).
    """
    return (combine(triple_x, Coalition.ABC, 0, _WITNESS_GAINS),
            combine(triple_p, Coalition.ABC, 1, _WITNESS_GAINS))


def empirical_mse(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Mean squared error of estimates against per-round truths."""
    e = np.asarray(estimates, dtype=float)
    t = np.asarray(truths, dtype=float)
    if e.shape != t.shape or e.ndim != 1:
        raise InvalidArgumentError("estimates and truths must be equal-length vectors")
    if e.size == 0:
        raise InvalidArgumentError("empirical_mse requires at least one round")
    return float(np.mean((e - t) ** 2))


def mse_standard_error(estimates: np.ndarray, truths: np.ndarray) -> float:
    """Standard error of the empirical MSE (sample std of squared errors / sqrt(n))."""
    sq = (np.asarray(estimates, dtype=float) - np.asarray(truths, dtype=float)) ** 2
    if sq.size < 2:
        raise InvalidArgumentError("standard error requires at least two rounds")
    return float(np.std(sq, ddof=1) / math.sqrt(sq.size))


def make_mse_report(
    coalition: Coalition,
    estimates_x: np.ndarray,
    truths_x: np.ndarray,
    estimates_p: np.ndarray,
    truths_p: np.ndarray,
    gains: GainSet,
) -> MseReport:
    """Assemble an MseReport with the resource-split convention applied."""
    split = 1.0 if coalition is Coalition.A_ALONE else RESOURCE_SPLIT_FACTOR
    mse_x = split * empirical_mse(estimates_x, truths_x)
    mse_p = split * empirical_mse(estimates_p, truths_p)
    return MseReport(
        coalition=coalition,
        mse_x=mse_x,
        mse_p=mse_p,
        mse_sum=mse_x + mse_p,
        n_x=int(np.asarray(estimates_x).size),
        n_p=int(np.asarray(estimates_p).size),
        gains=gains,
    )


class RunningMoments:
    """Count, mean and sum of squared deviations of values added chunk by chunk.

    Each :meth:`merge` adds one chunk's count, mean and sum of squared
    deviations to the totals with the pairwise update of Chan, Golub and
    LeVeque, so no chunk is kept; :meth:`add` reduces a chunk's values to
    those three and merges them. After a single chunk added, ``mean`` and
    :meth:`standard_error` are bit for bit ``np.mean`` and
    ``np.std(ddof=1) / sqrt(n)`` of it: the reductions behind
    :func:`empirical_mse`, :func:`mse_standard_error` and :func:`bias_check`.
    """

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        if values.size:
            mean = float(np.mean(values))
            self.merge(values.size, mean, float(np.sum((values - mean) ** 2)))

    def merge(self, k: int, mean: float, m2: float) -> None:
        """Merge k values of the given mean and sum of squared deviations about it."""
        if k == 0:
            return
        n = self.n + k
        delta = mean - self.mean
        self.mean += delta * (k / n)
        self.m2 += m2 + delta * delta * (self.n * k / n)
        self.n = n

    def standard_error(self) -> float:
        """Sample standard deviation (ddof = 1) over sqrt(n); needs n >= 2."""
        return math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n)


def bias_check(estimates: np.ndarray, truths: np.ndarray) -> tuple[float, float]:
    """Mean residual and its standard error; callers flag |mean| > 5 * SE."""
    e = np.asarray(estimates, dtype=float)
    t = np.asarray(truths, dtype=float)
    if e.shape != t.shape or e.ndim != 1 or e.size < 2:
        raise InvalidArgumentError("bias_check requires at least two rounds")
    resid = e - t
    return float(np.mean(resid)), float(np.std(resid, ddof=1) / math.sqrt(resid.size))
