"""Linear displacement estimators for each coalition, gain optimization and MSE accounting.

Estimator forms on the dealer state (modes C, B, A):

* A alone: the dual-homodyne outcome itself, scaled for loss.
* pair (AB or AC): x_A - g * x_partner, with the signed gain g chosen to
  minimize the residual variance; the p estimator flips the sign of g
  because the partner's p quadrature is anticorrelated exactly where its
  x quadrature is correlated.
* all three: x_A - g * (x_B - x_C)/sqrt(2) and p_A + g * (p_B - p_C)/sqrt(2).

MSE reporting convention: when a coalition measures a single quadrature
per round, the probe budget is split between the two secrets, so the
reported per-quadrature MSE is twice the raw empirical mean squared
error. The single-party dual-homodyne path reads both quadratures from
every probe and is reported raw.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAuxiliaryError,
    InvalidArgumentError,
    NoSignalError,
)
from .gaussian_core import ExperimentModel, build_dealer_state

#: variance below which an auxiliary combination is treated as degenerate
DEGENERATE_VARIANCE_TOL = 1e-12
#: per-quadrature MSE inflation when the probe budget is split between quadratures
RESOURCE_SPLIT_FACTOR = 2.0

# quadrature indices of the (C, B, A) dealer state
X_C, P_C, X_B, P_B, X_A, P_A = range(6)


class Coalition(enum.Enum):
    """Subsets of parties that can pool outcomes to estimate the secret."""

    A_ALONE = "a_alone"
    AB = "ab"
    AC = "ac"
    ABC = "abc"

    @property
    def uses_dual_homodyne(self) -> bool:
        return self is Coalition.A_ALONE

    @property
    def party_columns(self) -> tuple[str, ...]:
        """Outcome columns the coalition's estimator consumes, per quadrature."""
        return {
            Coalition.A_ALONE: ("a",),
            Coalition.AB: ("a", "b"),
            Coalition.AC: ("a", "c"),
            Coalition.ABC: ("a", "b", "c"),
        }[self]


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
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")
        if self.bias_scale <= 0.0:
            raise InvalidArgumentError("bias_scale must be > 0")

    def to_json_dict(self) -> dict:
        return {"g_b": self.g_b, "g_bc": self.g_bc, "bias_scale": self.bias_scale}


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
        return {
            "coalition": self.coalition.value,
            "mse_x": self.mse_x,
            "mse_p": self.mse_p,
            "mse_sum": self.mse_sum,
            "n_x": self.n_x,
            "n_p": self.n_p,
            "gains": self.gains.to_json_dict(),
        }


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


def pair_aux_coefficients(partner: str) -> np.ndarray:
    """Unit vector selecting the partner's x quadrature (b or c)."""
    c = np.zeros(6)
    c[X_B if partner == "b" else X_C] = 1.0
    return c


def triple_aux_coefficients() -> np.ndarray:
    """Coefficients of (x_B - x_C)/sqrt(2)."""
    c = np.zeros(6)
    c[X_B] = 1.0 / math.sqrt(2.0)
    c[X_C] = -1.0 / math.sqrt(2.0)
    return c


def gains_for_model(model: ExperimentModel, coalition: Coalition) -> GainSet:
    """Analytic gains from the model covariance, plus the 1/sqrt(eta_A) bias scale."""
    cov = build_dealer_state(model, 0.0, 0.0).cov
    partner = "c" if coalition is Coalition.AC else "b"
    g_b = optimal_gain(cov, X_A, pair_aux_coefficients(partner))
    g_bc = optimal_gain(cov, X_A, triple_aux_coefficients())
    return GainSet(g_b=g_b, g_bc=g_bc, bias_scale=1.0 / math.sqrt(model.eta_a))


def fit_gain(target_residuals: np.ndarray, aux_values: np.ndarray) -> float:
    """Least-squares gain from calibration data: minimizes sum((r - g*u)^2).

    :param target_residuals: target outcomes minus the known truths.
    :param aux_values: auxiliary combination per calibration round.
    """
    r = np.asarray(target_residuals, dtype=float)
    u = np.asarray(aux_values, dtype=float)
    if r.shape != u.shape or r.ndim != 1 or r.size == 0:
        raise InvalidArgumentError("residuals and aux values must be equal-length vectors")
    denom = float(u @ u)
    if denom <= DEGENERATE_VARIANCE_TOL * r.size:
        raise DegenerateAuxiliaryError("auxiliary calibration data has (near) zero variance")
    return float(r @ u) / denom


def estimate(
    coalition: Coalition,
    outcomes: dict[str, np.ndarray],
    gains: GainSet,
    quadrature: str,
) -> np.ndarray:
    """Per-round estimates of one displacement component.

    :param outcomes: columns keyed "<quadrature>_<party>", e.g. "x_a";
        for A alone the single column is the dual-homodyne outcome.
    :param quadrature: "x" or "p".
    """
    if quadrature not in ("x", "p"):
        raise InvalidArgumentError("quadrature must be 'x' or 'p'")
    if not isinstance(coalition, Coalition):
        raise NoSignalError(f"coalition {coalition!r} has no access to the secret")
    cols = {}
    for party in coalition.party_columns:
        key = f"{quadrature}_{party}"
        if key not in outcomes:
            raise InvalidArgumentError(f"missing outcome column {key!r}")
        cols[party] = np.asarray(outcomes[key], dtype=float)
    a = cols["a"]
    sign = 1.0 if quadrature == "x" else -1.0
    if coalition is Coalition.A_ALONE:
        combined = a
    elif coalition is Coalition.ABC:
        combined = a - sign * gains.g_bc * (cols["b"] - cols["c"]) / math.sqrt(2.0)
    else:
        partner = "b" if coalition is Coalition.AB else "c"
        combined = a - sign * gains.g_b * cols[partner]
    return gains.bias_scale * combined


def witness_estimate(
    outcomes_x: dict[str, np.ndarray], outcomes_p: dict[str, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Three-party witness combinations, unbiased for (alpha_x, alpha_p)/sqrt(2).

    x_minus = x_A/sqrt(2) - (x_B - x_C)/2 and
    p_plus = p_A/sqrt(2) + (p_B - p_C)/2.
    """
    def pull(d: dict[str, np.ndarray], quad: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        vals = []
        for party in ("a", "b", "c"):
            key = f"{quad}_{party}"
            if key not in d:
                raise InvalidArgumentError(f"missing outcome column {key!r}")
            vals.append(np.asarray(d[key], dtype=float))
        return vals[0], vals[1], vals[2]

    x_a, x_b, x_c = pull(outcomes_x, "x")
    p_a, p_b, p_c = pull(outcomes_p, "p")
    x_minus = x_a / math.sqrt(2.0) - (x_b - x_c) / 2.0
    p_plus = p_a / math.sqrt(2.0) + (p_b - p_c) / 2.0
    return x_minus, p_plus


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
    split = 1.0 if coalition.uses_dual_homodyne else RESOURCE_SPLIT_FACTOR
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


def bias_check(estimates: np.ndarray, truths: np.ndarray) -> tuple[float, float]:
    """Mean residual and its standard error; callers flag |mean| > 5 * SE."""
    e = np.asarray(estimates, dtype=float)
    t = np.asarray(truths, dtype=float)
    if e.shape != t.shape or e.ndim != 1 or e.size < 2:
        raise InvalidArgumentError("bias_check requires at least two rounds")
    resid = e - t
    return float(np.mean(resid)), float(np.std(resid, ddof=1) / math.sqrt(resid.size))
