"""Analytic limits and channel-composed MSE predictions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvshare import bounds, estimators
from cvshare.bounds import (
    ThermalParams,
    hcrb_thermal,
    ideal_three_party_mse_sum,
    ideal_two_party_mse_sum,
    predicted_mse,
    predicted_mse_grid,
    thermal_params_from_state,
    witness_bound,
)
from cvshare.errors import InvalidArgumentError, UnsupportedStateError
from cvshare.estimators import Coalition
from cvshare.gaussian_core import (
    R_MAX,
    ExperimentModel,
    build_dealer_state,
    dealer_covariances,
    partial_trace,
)


def test_thermal_params_ordering_and_validation():
    p = ThermalParams(n1=0.2, n2=1.5)
    assert p.n1 == 1.5 and p.n2 == 0.2
    assert p.v1 == pytest.approx(4.0)
    assert p.v2 == pytest.approx(1.4)
    with pytest.raises(InvalidArgumentError):
        ThermalParams(n1=-0.1, n2=0.0)
    with pytest.raises(InvalidArgumentError):
        ThermalParams(n1=math.inf, n2=0.0)


def test_hcrb_thermal_values():
    assert hcrb_thermal(ThermalParams(0.0, 0.0)) == 4.0
    assert hcrb_thermal(ThermalParams(1.0, 2.0)) == pytest.approx(10.0)


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.5])
def test_reduced_single_party_occupation(r):
    # tracing the dealer state down to the last mode leaves a symmetric
    # thermal state with n = sinh^2 r
    st = build_dealer_state(ExperimentModel(r=r), 0.0, 0.0)
    reduced = partial_trace(st, [2])
    p = thermal_params_from_state(reduced)
    assert p.n1 == pytest.approx(math.sinh(r) ** 2, rel=1e-12)
    assert p.n2 == pytest.approx(math.sinh(r) ** 2, rel=1e-12)


def test_reduced_occupation_under_loss_and_noise():
    r, eta, eps = 1.0, 0.7, 0.1
    st = build_dealer_state(ExperimentModel(r=r, eta_a=eta, eps_a=eps), 0.0, 0.0)
    p = thermal_params_from_state(partial_trace(st, [2]))
    expect = eta * math.sinh(r) ** 2 + eps / 2.0
    assert p.n1 == pytest.approx(expect, rel=1e-12)


def test_thermal_params_from_state_rejections():
    st = build_dealer_state(ExperimentModel(r=0.5), 0.0, 0.0)
    with pytest.raises(UnsupportedStateError):
        thermal_params_from_state(st)
    cov = np.array([[2.0, 0.5], [0.5, 2.0]])
    from cvshare.gaussian_core import GaussianState

    rotated = GaussianState(n_modes=1, mean=np.zeros(2), cov=cov)
    with pytest.raises(UnsupportedStateError):
        thermal_params_from_state(rotated)


def test_ideal_closed_forms_frozen():
    assert ideal_two_party_mse_sum() == 4.0
    assert ideal_three_party_mse_sum(1.0) == pytest.approx(1.063208915336319, rel=1e-14)
    assert ideal_three_party_mse_sum(0.0) == pytest.approx(4.0)
    assert witness_bound(1.0) == pytest.approx(0.5413411329464508, rel=1e-14)
    assert witness_bound(0.0) == pytest.approx(4.0)
    with pytest.raises(InvalidArgumentError):
        ideal_three_party_mse_sum(-0.1)
    with pytest.raises(InvalidArgumentError):
        witness_bound(math.nan)


@pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 1.5])
def test_predicted_mse_ideal_matches_closed_forms(r):
    m = ExperimentModel(r=r)
    _, _, s_ab = predicted_mse(m, Coalition.AB)
    assert s_ab == pytest.approx(4.0, rel=1e-12)
    _, _, s_ac = predicted_mse(m, Coalition.AC)
    assert s_ac == pytest.approx(4.0, rel=1e-12)
    _, _, s_abc = predicted_mse(m, Coalition.ABC)
    assert s_abc == pytest.approx(ideal_three_party_mse_sum(r), rel=1e-12)
    mx, mp, s_a = predicted_mse(m, Coalition.A_ALONE)
    assert mx == pytest.approx(mp)
    assert s_a == pytest.approx(4.0 + 4.0 * math.sinh(r) ** 2, rel=1e-12)


def test_predicted_mse_single_party_is_hcrb():
    m = ExperimentModel(r=1.0)
    reduced = partial_trace(build_dealer_state(m, 0.0, 0.0), [2])
    _, _, s = predicted_mse(m, Coalition.A_ALONE)
    assert s == pytest.approx(hcrb_thermal(thermal_params_from_state(reduced)), rel=1e-12)


def test_predicted_mse_schur_oracle():
    # independent check: conditional variance via the 2x2 Schur complement
    m = ExperimentModel(r=0.8, eta_a=0.85, eta_b=0.9, eps_b=0.05)
    cov = build_dealer_state(m, 0.0, 0.0).cov
    i_a, i_b = estimators.X_A, 2  # x_a, x_b
    sub = cov[np.ix_([i_a, i_b], [i_a, i_b])]
    resid = sub[0, 0] - sub[0, 1] ** 2 / sub[1, 1]
    mx, _, _ = predicted_mse(m, Coalition.AB)
    assert mx == pytest.approx(2.0 * resid / m.eta_a, rel=1e-12)


def test_predicted_mse_monotone_in_loss_and_noise():
    base = ExperimentModel(r=1.0)
    for coalition in (Coalition.AB, Coalition.ABC, Coalition.A_ALONE):
        _, _, s0 = predicted_mse(base, coalition)
        _, _, s_loss = predicted_mse(ExperimentModel(r=1.0, eta_a=0.7), coalition)
        _, _, s_noise = predicted_mse(ExperimentModel(r=1.0, eps_a=0.2), coalition)
        assert s_loss > s0
        assert s_noise > s0


@pytest.mark.parametrize("r", [0.3, 1.0, 1.5])
def test_access_hierarchy(r):
    m = ExperimentModel(r=r)
    _, _, s3 = predicted_mse(m, Coalition.ABC)
    _, _, s2 = predicted_mse(m, Coalition.AB)
    _, _, s1 = predicted_mse(m, Coalition.A_ALONE)
    assert s3 < s2 < s1


def test_predicted_mse_rejects_non_coalition():
    with pytest.raises(InvalidArgumentError):
        predicted_mse(ExperimentModel(r=1.0), "ab")


def test_separability_threshold_constant():
    assert bounds.SEPARABILITY_THRESHOLD == 4.0


def scalar_dealer_cov(model: ExperimentModel) -> np.ndarray:
    """Reference copy of the one-matrix channel chain the stacked path replaced."""
    lo, hi = math.exp(-2.0 * model.r), math.exp(2.0 * model.r)
    cov = np.diag([1.0, 1.0, lo, hi, hi, lo])
    h = math.sqrt(0.5)
    for bi, bj in ((2, 4), (2, 0)):
        s = np.eye(6)
        for k in range(2):
            s[bi + k, bi + k] = s[bj + k, bj + k] = s[bi + k, bj + k] = h
            s[bj + k, bi + k] = -h
        cov = s @ cov @ s.T
        cov = 0.5 * (cov + cov.T)
    for b, eta, eps in ((0, model.eta_c, model.eps_c), (2, model.eta_b, model.eps_b),
                        (4, model.eta_a, model.eps_a)):
        if eta < 1.0:
            g = np.eye(6)
            g[b, b] = g[b + 1, b + 1] = math.sqrt(eta)
            cov = g @ cov @ g.T
            cov[b, b] += 1.0 - eta
            cov[b + 1, b + 1] += 1.0 - eta
            cov = 0.5 * (cov + cov.T)
        if eps > 0.0:
            cov[b, b] += eps
            cov[b + 1, b + 1] += eps
    return 0.5 * (cov + cov.T)


def scalar_pair_mse(cov: np.ndarray, eta_a: float, target: int, aux: np.ndarray) -> float:
    """Reference one-matrix conditional residual, split and loss-corrected."""
    var_u = float(aux @ cov @ aux)
    g = float((cov @ aux)[target]) / var_u
    return 2.0 * float(cov[target, target] - g * (cov @ aux)[target]) / eta_a


unit = st.floats(0.05, 1.0)
noise = st.floats(0.0, 0.5)


@given(
    rs=st.lists(st.floats(0.0, R_MAX), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    etas=st.tuples(unit, unit, unit),
    epss=st.tuples(noise, noise, noise),
)
def test_stacked_path_matches_scalar_oracle(rs, seed, etas, epss):
    # hypothesis favours round floats; the seeded draws add arbitrary bit
    # patterns, where e^{2r} or a reduction order would show a last-bit change
    spread = np.random.default_rng(seed).uniform(0.0, R_MAX, 8)
    rs = np.array([0.0, *rs, *spread, R_MAX])
    (eta_c, eta_b, eta_a), (eps_c, eps_b, eps_a) = etas, epss
    arms = ExperimentModel(0.0, eta_a, eta_b, eta_c, eps_a, eps_b, eps_c)
    covs = dealer_covariances(rs, arms)
    grid = predicted_mse_grid(rs, arms)
    aux = {Coalition.AB: estimators.pair_aux_coefficients("b"),
           Coalition.AC: estimators.pair_aux_coefficients("c"),
           Coalition.ABC: estimators.triple_aux_coefficients()}
    for i, r in enumerate(rs.tolist()):
        model = ExperimentModel(r, eta_a, eta_b, eta_c, eps_a, eps_b, eps_c)
        want = scalar_dealer_cov(model)
        assert np.array_equal(covs[i].view(np.uint64), want.view(np.uint64)), r
        for coalition in Coalition:
            got = tuple(float(v[i]) for v in grid[coalition])
            assert got == predicted_mse(model, coalition), (r, coalition)
            if coalition in aux:
                ax = aux[coalition]
                mx = scalar_pair_mse(want, eta_a, estimators.X_A, ax)
                mp = scalar_pair_mse(want, eta_a, estimators.P_A, np.roll(ax, 1))
                assert got == (mx, mp, mx + mp), (r, coalition)


@given(
    r=st.floats(0.0, 3.0),
    etas=st.tuples(unit, unit, unit),
    epss=st.tuples(noise, noise, noise),
)
def test_weights_table_reproduces_the_closed_form(r, etas, epss):
    # the variance of the estimator the run applies, at the analytic gain, is the
    # closed form. r stops at 3: at the optimal all-three gain this quadratic form
    # cancels about e^{4r}, and was measured off predicted_mse by 4e-12 relative at
    # r = 3, 1.8e-8 at r = 5 and 3.7e-3 at r = 8, which is why bounds keeps the Schur
    # complement
    (eta_c, eta_b, eta_a), (eps_c, eps_b, eps_a) = etas, epss
    model = ExperimentModel(r, eta_a, eta_b, eta_c, eps_a, eps_b, eps_c)
    cov = dealer_covariances([r], model)[0]
    for coalition in Coalition:
        gains = estimators.gains_for_model(model, coalition)
        lone = coalition is Coalition.A_ALONE
        split = 1.0 if lone else estimators.RESOURCE_SPLIT_FACTOR
        want = predicted_mse(model, coalition)
        for q in (0, 1):
            idx = list(estimators.TRIPLE_INDICES[q])
            sigma = cov[np.ix_(idx, idx)]
            if lone:
                # dual homodyne adds a vacuum unit to A's outcome
                sigma = sigma + np.diag([1.0, 0.0, 0.0])
            w0, w1 = estimators.WEIGHTS[coalition, q]
            w = w0 + gains.gain(coalition) * w1
            got = split * gains.bias_scale**2 * (w @ sigma @ w)
            assert got == pytest.approx(want[q], rel=1e-10, abs=0.0), (coalition, q)
