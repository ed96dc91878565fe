"""Closed-form metrological limits and analytic MSE predictions.

The single-party limit for simultaneous estimation of both displacement
components on a (possibly unbalanced) thermal state is 4 + 2*n1 + 2*n2
in shot-noise units squared; it is attained by dual-homodyne detection.
Coalition predictions come from exact Gaussian channel composition plus
the conditional variance of the optimal linear combination, normalized
with the same resource-split and loss-correction conventions as the
estimators module.

:func:`predicted_mse_grid` computes them for every coalition over a
whole array of squeezing values in one numpy pass: one dealer covariance
stack (:func:`~cvshare.gaussian_core.dealer_covariances`, which checks
the squeezing values), then the gains and residuals on the stack.
:func:`predicted_mse` is that pass on a stack of one, so both give the
same bits. ``cvshare bounds``
evaluates its grid and its ``--band`` r-samples, clipped to [0, R_MAX],
in fixed-size chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators
from .errors import InvalidArgumentError, UnsupportedStateError, check_scalar
from .estimators import Coalition
from .gaussian_core import (  # noqa: F401 (build_dealer_state: perfbench/tracing.py wraps it here)
    _R_MAX_RULE,
    R_MAX,
    THERMAL_MAX,
    ExperimentModel,
    GaussianState,
    build_dealer_state,
    dealer_covariances,
)

#: allowed off-diagonal magnitude when reading thermal parameters off a state
DIAGONAL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class ThermalParams:
    """Thermal occupation parameters of the single-party reduced state.

    Stored so that v1 = 1 + 2*n1 >= v2 = 1 + 2*n2; inputs in the other
    order are swapped on construction. Both are at most
    :data:`THERMAL_MAX`.
    """

    n1: float
    n2: float

    def __post_init__(self):
        n1, n2 = check_thermal(check_scalar, self.n1, self.n2)
        if n1 < n2:
            n1, n2 = n2, n1
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)

    @property
    def v1(self) -> float:
        return 1.0 + 2.0 * self.n1

    @property
    def v2(self) -> float:
        return 1.0 + 2.0 * self.n2


def check_thermal(check, n1, n2):
    """n1 and n2 through ``check``, ``check_scalar`` for floats or ``check_array`` for
    arrays: finite, then >= 0, then at most :data:`THERMAL_MAX`, each rule on both
    before the next, so the error names the first rule broken."""
    n1, n2 = (check("thermal parameters", n, "finite", ends="()") for n in (n1, n2))
    n1, n2 = (check("thermal parameters", n, ">= 0", 0.0) for n in (n1, n2))
    return tuple(check(f"thermal parameter {name}", n, f"at most {THERMAL_MAX:g}",
                       hi=THERMAL_MAX) for name, n in (("n1", n1), ("n2", n2)))


def hcrb_thermal(params: ThermalParams) -> float:
    """Lower bound on the summed MSE of both displacement estimates: 4 + 2*n1 + 2*n2."""
    return 4.0 + 2.0 * params.n1 + 2.0 * params.n2


def thermal_params_from_state(reduced: GaussianState) -> ThermalParams:
    """Read thermal parameters off a diagonal one-mode reduced state."""
    if reduced.n_modes != 1:
        raise UnsupportedStateError("expected a one-mode reduced state")
    cov = reduced.cov
    if abs(cov[0, 1]) > DIAGONAL_TOL:
        raise UnsupportedStateError("reduced covariance must be diagonal")
    return ThermalParams(n1=(cov[0, 0] - 1.0) / 2.0, n2=(cov[1, 1] - 1.0) / 2.0)


def ideal_two_party_mse_sum() -> float:
    """Two-party summed MSE in the ideal model: 4, independent of squeezing."""
    return 4.0


def ideal_three_party_mse_sum(r: float) -> float:
    """Three-party summed MSE in the ideal model: 8 / (e^{2r} + e^{-2r}), r in [0, R_MAX]."""
    r = check_scalar("r", r, "finite and >= 0", 0.0, ends="[)")
    r = check_scalar("r", r, _R_MAX_RULE, hi=R_MAX)
    return 8.0 / (math.exp(2.0 * r) + math.exp(-2.0 * r))


def witness_bound(r: float) -> float:
    """Resource-split witness MSE sum attainable with the entangled resource: 4 e^{-2r},
    r in [0, R_MAX]."""
    r = check_scalar("r", r, "finite and >= 0", 0.0, ends="[)")
    r = check_scalar("r", r, _R_MAX_RULE, hi=R_MAX)
    return 4.0 * math.exp(-2.0 * r)


def _conditional_residuals(cov: np.ndarray, target: int, aux: np.ndarray) -> np.ndarray:
    """Var(target) - Cov(target, u)^2 / Var(u) for u = aux . quadratures, per matrix."""
    g = estimators.optimal_gains(cov, target, aux)
    return cov[:, target, target] - g * (cov @ aux)[:, target]


def predicted_mse_grid(
    rs, arms: ExperimentModel
) -> dict[Coalition, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Analytic (mse_x, mse_p, mse_sum) arrays of every coalition, one entry per r.

    Takes the conditional variance of the optimal linear combination per
    quadrature, divides by eta_A for the loss correction and doubles
    single-quadrature coalitions for the resource split. The single-party
    entry holds the dual-homodyne values, which sum to 4 + 2*n1 + 2*n2
    when eta_A = 1.

    :param rs: 1-D array of squeezing values, each in [0, R_MAX].
    :param arms: transmissivity and excess noise per arm (its r is not used).
    """
    cov = dealer_covariances(rs, arms)
    eta = arms.eta_a
    mse_x = (cov[:, estimators.X_A, estimators.X_A] + 1.0) / eta
    mse_p = (cov[:, estimators.P_A, estimators.P_A] + 1.0) / eta
    out = {Coalition.A_ALONE: (mse_x, mse_p, mse_x + mse_p)}
    split = estimators.RESOURCE_SPLIT_FACTOR
    for coalition in (Coalition.AB, Coalition.AC, Coalition.ABC):
        # the estimator's own auxiliary combination; the Schur complement keeps
        # the precision that w . cov . w loses, about e^{4r}, at the optimal gain
        aux_x, aux_p = (estimators.aux_coefficients(coalition, q) for q in (0, 1))
        mse_x = split * _conditional_residuals(cov, estimators.X_A, aux_x) / eta
        mse_p = split * _conditional_residuals(cov, estimators.P_A, aux_p) / eta
        out[coalition] = (mse_x, mse_p, mse_x + mse_p)
    return out


def predicted_mse(model: ExperimentModel, coalition: Coalition) -> tuple[float, float, float]:
    """Analytic (mse_x, mse_p, mse_sum) for a coalition: :func:`predicted_mse_grid` at model.r."""
    if not isinstance(coalition, Coalition):
        raise InvalidArgumentError(f"unknown coalition {coalition!r}")
    mse_x, mse_p, mse_sum = predicted_mse_grid([model.r], model)[coalition]
    return float(mse_x[0]), float(mse_p[0]), float(mse_sum[0])
