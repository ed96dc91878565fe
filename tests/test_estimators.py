"""Gains, linear estimators, witness combinations, error accounting."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cvshare import estimators
from cvshare.errors import (
    DegenerateAuxiliaryError,
    InvalidArgumentError,
    NoSignalError,
)
from cvshare.estimators import (
    Coalition,
    GainSet,
    RunningMoments,
    X_A,
    bias_check,
    empirical_mse,
    estimate,
    fit_gain,
    fit_gain_from_sums,
    gains_for_model,
    make_mse_report,
    mse_standard_error,
    optimal_gain,
    pair_aux_coefficients,
    parse_coalition,
    triple_aux_coefficients,
    witness_estimate,
)
from cvshare.gaussian_core import R_MAX, ExperimentModel, build_dealer_state


def _ideal_cov(r):
    return build_dealer_state(ExperimentModel(r=r), 0.0, 0.0).cov


def test_parse_coalition_names():
    assert parse_coalition("ab") is Coalition.AB
    assert parse_coalition(" ABC ") is Coalition.ABC
    assert parse_coalition("a_alone") is Coalition.A_ALONE
    with pytest.raises(NoSignalError):
        parse_coalition("bc")
    with pytest.raises(NoSignalError):
        parse_coalition("b")
    with pytest.raises(InvalidArgumentError):
        parse_coalition("abcd")


def test_coalition_properties():
    assert Coalition.AC.party_columns == ("a", "c")


@pytest.mark.parametrize("r", [0.2, 0.7, 1.0, 1.4])
def test_pair_gain_closed_form(r):
    cov = _ideal_cov(r)
    g = optimal_gain(cov, X_A, pair_aux_coefficients("b"))
    assert g == pytest.approx(math.sqrt(2.0) * math.tanh(r), rel=1e-12)
    g_c = optimal_gain(cov, X_A, pair_aux_coefficients("c"))
    assert g_c == pytest.approx(-math.sqrt(2.0) * math.tanh(r), rel=1e-12)


@pytest.mark.parametrize("r", [0.2, 0.7, 1.0, 1.4])
def test_triple_gain_closed_form(r):
    g = optimal_gain(_ideal_cov(r), X_A, triple_aux_coefficients())
    assert g == pytest.approx(math.tanh(2.0 * r), rel=1e-12)


def test_optimal_gain_rejects_degenerate_aux():
    cov = np.eye(6)
    with pytest.raises(DegenerateAuxiliaryError):
        optimal_gain(cov, X_A, np.zeros(6))


@given(r=st.floats(0.05, 1.5), bump=st.sampled_from([-0.01, 0.01]))
def test_optimal_gain_is_the_minimizer(r, bump):
    # residual variance is quadratic in g; nudging the optimum by 1%
    # can only increase it
    cov = _ideal_cov(r)
    c = triple_aux_coefficients()
    g = optimal_gain(cov, X_A, c)

    def residual(gain):
        w = -gain * c
        w[X_A] += 1.0
        return float(w @ cov @ w)

    assert residual(g * (1.0 + bump)) >= residual(g) - 1e-12


def test_gains_for_model_signs_and_bias():
    m = ExperimentModel(r=1.0, eta_a=0.8)
    gab = gains_for_model(m, Coalition.AB)
    gac = gains_for_model(m, Coalition.AC)
    assert gab.g_b > 0.0
    assert gac.g_b < 0.0
    assert gab.bias_scale == pytest.approx(1.0 / math.sqrt(0.8))


def _bits(value: float) -> str:
    return float(value).hex()  # tells -0.0 from 0.0


@given(
    r=st.floats(0.0, R_MAX),
    etas=st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
    epss=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    coalition=st.sampled_from(list(Coalition)),
)
@example(r=R_MAX, etas=(1.0, 1.0, 1.0), epss=(0.0, 0.0, 0.0), coalition=Coalition.ABC)
@example(r=0.0, etas=(1.0, 1.0, 1.0), epss=(0.0, 0.0, 0.0), coalition=Coalition.AC)
def test_gains_for_model_keeps_the_bits_of_the_state_path(r, etas, epss, coalition):
    # oracle: the gains off the checked dealer state, with the auxiliary combinations
    # written out, x_B or x_C for a pair and (x_B - x_C)/sqrt(2) for all three
    (eta_c, eta_b, eta_a), (eps_c, eps_b, eps_a) = etas, epss
    model = ExperimentModel(r, eta_a, eta_b, eta_c, eps_a, eps_b, eps_c)
    cov = build_dealer_state(model, 0.0, 0.0).cov
    pair, triple = np.zeros(6), np.zeros(6)
    pair[estimators.X_C if coalition is Coalition.AC else estimators.X_B] = 1.0
    triple[estimators.X_B] = 1.0 / math.sqrt(2.0)
    triple[estimators.X_C] = -1.0 / math.sqrt(2.0)
    gains = gains_for_model(model, coalition)
    assert _bits(gains.g_b) == _bits(optimal_gain(cov, X_A, pair))
    assert _bits(gains.g_bc) == _bits(optimal_gain(cov, X_A, triple))
    assert _bits(gains.bias_scale) == _bits(1.0 / math.sqrt(eta_a))


def _kept_terms_sum(columns, w):
    terms = [columns[j] if w[j] == 1.0 else w[j] * columns[j] for j in np.flatnonzero(w)]
    return sum(terms[1:], terms[0])


@given(
    w=st.tuples(*[st.sampled_from([0.0, 1.0, -1.0])] * 3).filter(any),
    values=st.lists(st.floats(-1e6, 1e6), min_size=12, max_size=12),
    coalition=st.sampled_from(list(Coalition)),
    quad=st.sampled_from([0, 1]),
    gain=st.floats(-10.0, 10.0),
    bias_scale=st.floats(0.5, 2.0),
)
def test_sums_keep_the_bits_of_the_kept_terms_and_write_no_column(w, values, coalition,
                                                                  quad, gain, bias_scale):
    # oracle: the expressions that held every term, sum(terms[1:], terms[0]) and
    # bias_scale * (est + g * aux); the sums now accumulate into one fresh array. The
    # columns come as a list and as the (3, n) stack the witness check passes
    w = np.array(w)
    gains = GainSet(g_b=gain, g_bc=gain, bias_scale=bias_scale)
    stack = np.array(values).reshape(3, 4)
    for columns in (list(stack.copy()), stack.copy()):
        before = [col.tobytes() for col in columns]
        got = estimators.weighted_sum(columns, w)
        assert got.tobytes() == _kept_terms_sum(columns, w).tobytes()
        if np.count_nonzero(w) == 1 and w.max() == 1.0:
            # a single weight of 1 returns that column itself
            assert np.shares_memory(got, columns[int(np.argmax(w))])
        else:
            assert not any(np.shares_memory(got, col) for col in columns)
        w0, w1 = estimators.WEIGHTS[coalition, quad]
        want = _kept_terms_sum(columns, w0)
        if w1.any():
            want = want + gains.gain(coalition) * _kept_terms_sum(columns, w1)
        got = estimators.combine(columns, coalition, quad, gains)
        assert got.tobytes() == (gains.bias_scale * want).tobytes()
        assert [col.tobytes() for col in columns] == before


def test_weights_table_shape_and_aux_coefficients():
    for (coalition, q), (w0, w1) in estimators.WEIGHTS.items():
        assert w0.shape == w1.shape == (3,)
        assert list(w0) == [1.0, 0.0, 0.0]
        # x and p weigh the partners with opposite signs
        assert np.array_equal(w1, -estimators.WEIGHTS[coalition, 1 - q][1])
        assert not w0.flags.writeable and not w1.flags.writeable
    assert not estimators.WEIGHTS[Coalition.A_ALONE, 0][1].any()
    assert np.array_equal(pair_aux_coefficients("b"), np.eye(6)[estimators.X_B])
    assert np.array_equal(pair_aux_coefficients("c"), np.eye(6)[estimators.X_C])
    h = 1.0 / math.sqrt(2.0)
    assert list(triple_aux_coefficients()) == [-h, 0.0, h, 0.0, 0.0, 0.0]


def test_gain_set_validation():
    with pytest.raises(InvalidArgumentError):
        GainSet(g_b=0.0, g_bc=0.0, bias_scale=0.0)
    with pytest.raises(InvalidArgumentError):
        GainSet(g_b=math.nan, g_bc=0.0, bias_scale=1.0)


def test_estimate_sign_conventions():
    gains = GainSet(g_b=0.5, g_bc=0.25, bias_scale=2.0)
    a = np.array([1.0])
    b = np.array([0.4])
    c = np.array([-0.2])
    est_x = estimate(Coalition.AB, {"x_a": a, "x_b": b}, gains, "x")
    assert est_x[0] == pytest.approx(2.0 * (1.0 - 0.5 * 0.4))
    est_p = estimate(Coalition.AB, {"p_a": a, "p_b": b}, gains, "p")
    assert est_p[0] == pytest.approx(2.0 * (1.0 + 0.5 * 0.4))
    est3 = estimate(Coalition.ABC, {"x_a": a, "x_b": b, "x_c": c}, gains, "x")
    assert est3[0] == pytest.approx(2.0 * (1.0 - 0.25 * (0.4 + 0.2) / math.sqrt(2.0)))
    est1 = estimate(Coalition.A_ALONE, {"x_a": a}, gains, "x")
    assert est1[0] == pytest.approx(2.0)


def test_estimate_missing_column():
    gains = GainSet(g_b=0.5, g_bc=0.25, bias_scale=1.0)
    with pytest.raises(InvalidArgumentError):
        estimate(Coalition.AB, {"x_a": np.array([1.0])}, gains, "x")


def test_estimate_unbiased_under_loss():
    # the 1/sqrt(eta) scale undoes the signal attenuation
    eta = 0.64
    m = ExperimentModel(r=1.0, eta_a=eta)
    gains = gains_for_model(m, Coalition.AB)
    alpha = 1.25
    a = np.array([math.sqrt(eta) * alpha])
    b = np.array([0.0])
    est = estimate(Coalition.AB, {"x_a": a, "x_b": b}, gains, "x")
    assert est[0] == pytest.approx(alpha, rel=1e-12)


def test_witness_estimate_algebra():
    # party-major (A, B, C) triples of one x round and one p round
    x_minus, p_plus = witness_estimate(np.array([[2.0], [1.0], [0.5]]),
                                       np.array([[-1.0], [0.5], [1.5]]))
    assert x_minus[0] == pytest.approx(2.0 / math.sqrt(2.0) - (1.0 - 0.5) / 2.0)
    assert p_plus[0] == pytest.approx(-1.0 / math.sqrt(2.0) + (0.5 - 1.5) / 2.0)


def test_empirical_mse_and_se():
    est = np.array([1.0, 2.0, 3.0])
    tr = np.array([0.0, 2.0, 1.0])
    assert empirical_mse(est, tr) == pytest.approx((1.0 + 0.0 + 4.0) / 3.0)
    se = mse_standard_error(est, tr)
    assert se == pytest.approx(np.std([1.0, 0.0, 4.0], ddof=1) / math.sqrt(3.0))
    with pytest.raises(InvalidArgumentError):
        empirical_mse(np.array([]), np.array([]))


def test_fit_gain_recovers_projection():
    rng = np.random.default_rng(1)
    u = rng.standard_normal(4000)
    noise = 0.1 * rng.standard_normal(4000)
    resid = 0.7 * u + noise
    g = fit_gain(resid, u)
    assert g == pytest.approx(0.7, abs=0.01)
    with pytest.raises(DegenerateAuxiliaryError):
        fit_gain(resid, np.zeros(4000))


def test_make_mse_report_split_convention():
    gains = GainSet(g_b=0.0, g_bc=0.0, bias_scale=1.0)
    ex = np.array([1.0, -1.0])
    tx = np.zeros(2)
    rep = make_mse_report(Coalition.AB, ex, tx, ex, tx, gains)
    assert rep.mse_x == pytest.approx(2.0)  # raw MSE 1.0, doubled
    assert rep.mse_sum == pytest.approx(rep.mse_x + rep.mse_p)
    rep1 = make_mse_report(Coalition.A_ALONE, ex, tx, ex, tx, gains)
    assert rep1.mse_x == pytest.approx(1.0)  # dual homodyne, no split
    d = rep.to_json_dict()
    assert d["coalition"] == "ab"
    assert d["gains"]["bias_scale"] == 1.0


def test_bias_check_values():
    est = np.array([1.1, 0.9, 1.0, 1.2])
    tr = np.ones(4)
    mean, se = bias_check(est, tr)
    resid = est - tr
    assert mean == pytest.approx(resid.mean())
    assert se == pytest.approx(np.std(resid, ddof=1) / 2.0)
    assert abs(mean) <= 5.0 * se


@pytest.mark.parametrize("cuts", [[], [1, 2, 700], [500, 1001, 1002, 2500]],
                         ids=["one-chunk", "uneven", "with-empty"])
def test_running_moments_match_the_array_reductions(cuts):
    rng = np.random.default_rng(47)
    est = 3.0 + 1.7 * rng.standard_normal(3000)
    truth = np.full(3000, 3.2)
    err = est - truth
    sq = RunningMoments()
    res = RunningMoments()
    for chunk in np.split(err, cuts):
        sq.add(chunk * chunk)
        res.add(chunk)
    assert sq.n == res.n == 3000
    assert sq.mean == pytest.approx(empirical_mse(est, truth), rel=1e-12)
    assert sq.standard_error() == pytest.approx(mse_standard_error(est, truth), rel=1e-12)
    mean_err, se = bias_check(est, truth)
    assert res.mean == pytest.approx(mean_err, rel=1e-12)
    assert res.standard_error() == pytest.approx(se, rel=1e-12)
    if not cuts:
        # one chunk gives the very bits of the array reductions
        assert (sq.mean, sq.standard_error()) == (empirical_mse(est, truth),
                                                 mse_standard_error(est, truth))
        assert (res.mean, res.standard_error()) == bias_check(est, truth)


def test_fit_gain_from_sums_matches_fit_gain():
    rng = np.random.default_rng(53)
    u = rng.standard_normal(1000)
    r = 0.7 * u + 0.1 * rng.standard_normal(1000)
    assert fit_gain_from_sums(float(r @ u), float(u @ u), 1000) == fit_gain(r, u)
    with pytest.raises(DegenerateAuxiliaryError):
        fit_gain_from_sums(0.0, 1e-20, 1000)
