"""Batch MSE statistics, access thresholds, leaked-information measures."""

import math

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import MU_PAIR_ANCHOR, MU_SINGLE_ANCHOR, MU_TRIPLE_ANCHOR
from cvshare import security
from cvshare.errors import InvalidArgumentError
from cvshare.security import (
    MseDistribution,
    crossing_threshold,
    mse_cdf,
    mse_cdf_over_n,
    mse_pdf,
    mutual_information,
    prob_mi_above,
    required_mse,
    security_probabilities,
)


def test_distribution_validation():
    with pytest.raises(InvalidArgumentError):
        MseDistribution(mu=0.0, n_probes=5)
    with pytest.raises(InvalidArgumentError):
        MseDistribution(mu=1.0, n_probes=0)
    with pytest.raises(InvalidArgumentError):
        MseDistribution(mu=1.0, n_probes=1.5)
    # 10**400 raised a bare OverflowError from mse_cdf and mse_pdf
    assert MseDistribution(mu=1.0, n_probes=security.MAX_PROBES).n_probes == 10**9
    message = r"^n_probes must be an integer in \[1, MAX_PROBES = 1000000000\]$"
    for n in (security.MAX_PROBES + 1, 10**400):
        with pytest.raises(InvalidArgumentError, match=message):
            MseDistribution(mu=1.0, n_probes=n)


@pytest.mark.parametrize("mu,n", [(8.0, 1), (8.0, 10), (4.0, 50), (1.3, 100)])
def test_pdf_matches_gamma_family(mu, n):
    # the summed MSE over n probes averages n scaled chi-square terms,
    # i.e. a Gamma(shape=n, scale=mu/n) variable
    dist = MseDistribution(mu=mu, n_probes=n)
    xs = np.linspace(0.01, 4.0 * mu, 300)
    ref = scipy.stats.gamma.pdf(xs, a=n, scale=mu / n)
    assert np.allclose(mse_pdf(xs, dist), ref, rtol=1e-10, atol=1e-300)
    ref_cdf = scipy.stats.gamma.cdf(xs, a=n, scale=mu / n)
    assert np.allclose(mse_cdf(xs, dist), ref_cdf, rtol=1e-10)


def test_pdf_edge_cases():
    d1 = MseDistribution(mu=2.0, n_probes=1)
    assert mse_pdf(0.0, d1) == pytest.approx(0.5)
    d2 = MseDistribution(mu=2.0, n_probes=3)
    assert mse_pdf(0.0, d2) == 0.0
    assert mse_pdf(-1.0, d2) == 0.0
    assert mse_cdf(-1.0, d2) == 0.0
    with pytest.raises(InvalidArgumentError):
        mse_pdf(math.nan, d2)


@pytest.mark.parametrize("mu", [2.0, 0.3, 7.5])
def test_pdf_at_one_probe_is_the_exponential_density(mu):
    # mse_pdf(1e-300, MseDistribution(2.0, 1)) read 0.4999999999999825 through the
    # saddle-point form
    dist = MseDistribution(mu=mu, n_probes=1)
    ratios = [0.0, 1e-300, 1e-17, 1e-3, 1.0, 700.0]
    xs = [t * mu for t in ratios]
    got = mse_pdf(np.array(xs), dist)
    for x, g in zip(xs, got.tolist()):
        want = math.exp(-x / mu) / mu
        assert abs(g - want) <= math.ulp(want), (x, g)
        assert mse_pdf(x, dist) == g
    assert mse_pdf(-1.0, dist) == 0.0 and mse_pdf(-1e-300, dist) == 0.0


def test_pdf_no_overflow_at_large_n():
    dist = MseDistribution(mu=4.0, n_probes=5000)
    val = mse_pdf(4.0, dist)
    assert math.isfinite(val) and val > 0.0


@pytest.mark.parametrize("n", [10**5, 10**6, 10**9])
def test_pdf_matches_mpmath_at_large_n(n):
    # within 8 standard deviations of the mean; the log-space exponent
    # (n - 1) ln y - y - ln (n-1)! cancelled to 3.4e-10 relative at n = 1e5 and 3.5e-6
    # at 1e9, and the tails' prefactor leaves the rounding of y = x n / mu, about
    # 8 sqrt(n) units in the last place of E at the edge
    mu = 4.0
    xs = mu * (1.0 + np.linspace(-8.0, 8.0, 41) / math.sqrt(n))
    got = mse_pdf(xs, MseDistribution(mu, n))
    with mpmath.workdps(50):
        for x, g in zip(xs.tolist(), got.tolist()):
            y = mpmath.mpf(x) * n / mu
            want = n / mpmath.mpf(mu) * mpmath.exp((n - 1) * mpmath.log(y) - y - mpmath.loggamma(n))
            assert abs(g - want) <= 4e-11 * want, (x, g)


def test_crossing_threshold_frozen_values():
    assert crossing_threshold(8.0, 4.0) == pytest.approx(8.0 * math.log(2.0), rel=1e-14)
    assert crossing_threshold(8.0, 4.0) == pytest.approx(5.545177444479562, rel=1e-14)
    # symmetric in its arguments
    assert crossing_threshold(4.0, 8.0) == crossing_threshold(8.0, 4.0)
    assert crossing_threshold(MU_SINGLE_ANCHOR, MU_PAIR_ANCHOR) == pytest.approx(6.8, abs=1e-12)


@pytest.mark.parametrize("n", [1, 7, 40])
def test_crossing_is_density_equality_for_every_n(n):
    v = crossing_threshold(8.0, 4.0)
    pa = mse_pdf(v, MseDistribution(mu=8.0, n_probes=n))
    pb = mse_pdf(v, MseDistribution(mu=4.0, n_probes=n))
    assert pa == pytest.approx(pb, rel=1e-10)


_MEANS = st.floats(min_value=5e-324, max_value=np.finfo(float).max)


@st.composite
def _mean_pairs(draw):
    """Two distinct positive means: any two floats, within a factor of 2, or a few ulp apart."""
    mu_a = draw(_MEANS)
    kind = draw(st.sampled_from(["any", "factor", "ulps"]))
    if kind == "any":
        mu_b = draw(_MEANS)
    elif kind == "factor":
        mu_b = mu_a * draw(st.floats(0.5, 2.0))
    else:
        mu_b = float((np.float64(mu_a).view(np.int64) + draw(st.integers(-64, 64))).view(float))
    assume(0.0 < mu_b < math.inf and mu_b != mu_a)
    return mu_a, mu_b


@settings(max_examples=1000)
@given(means=_mean_pairs())
@example(means=(1e-200, 2e-200))  # read 0.0
@example(means=(1e200, 2e200))  # read inf
@example(means=(1e-160, 2e-160))  # off by 3.9e-5: mu_a * mu_b is subnormal
@example(means=(1e10, 1e296))  # mu_a * mu_b * ln(mu_b / mu_a) overflowed
@example(means=(7.0, 7.00001))  # off by 1.7e5 ulp: ln of a rounded ratio near 1
@example(means=(5e-324, np.finfo(float).max))
@example(means=(5e-324, 1e-323))
@example(means=(MU_SINGLE_ANCHOR, MU_PAIR_ANCHOR))
def test_crossing_threshold_matches_mpmath(means):
    # a few ulp anywhere: the worst of 1e6 random pairs was 4.97 ulp, for means
    # at least 1.3 apart, where ln amplifies the rounding of their ratio by up to
    # 1 / ln(1.3) = 3.8
    mu_a, mu_b = means
    got = crossing_threshold(mu_a, mu_b)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(mu_a), mpmath.mpf(mu_b)
        want = a * b * mpmath.log(b / a) / (b - a)
        assert abs(got - want) <= 8 * math.ulp(float(want)), (got, float(want))


@given(mu_a=st.floats(1e-12, 1e12), mu_b=st.floats(1e-12, 1e12))
def test_crossing_threshold_keeps_its_bits_on_the_cli_range(mu_a, mu_b):
    # the security subcommand's means, at least 1.3 apart, keep the closed
    # form's bits, so its outputs keep their bytes
    assume(max(mu_a, mu_b) / min(mu_a, mu_b) >= 1.3)
    assert crossing_threshold(mu_a, mu_b) == mu_a * mu_b * math.log(mu_b / mu_a) / (mu_b - mu_a)


def test_crossing_threshold_rejects_equal_means():
    with pytest.raises(InvalidArgumentError):
        crossing_threshold(3.0, 3.0)
    with pytest.raises(InvalidArgumentError):
        crossing_threshold(-1.0, 3.0)


def test_security_probabilities_frozen_triple():
    # lone party mu = 8 against the full coalition mu = 4 at v_T = 8 ln 2
    v_t = crossing_threshold(MU_SINGLE_ANCHOR, MU_TRIPLE_ANCHOR)
    expect_delta = {
        10: 0.16262356086410654,
        50: 0.008331905148266778,
        100: 0.00031311917314236063,
    }
    expect_ps = {
        10: 0.8839513483516421,
        50: 0.9935830524024817,
        100: 0.9997554491130155,
    }
    for n in (10, 50, 100):
        rep = security_probabilities(
            v_t,
            MseDistribution(mu=MU_SINGLE_ANCHOR, n_probes=n),
            MseDistribution(mu=MU_TRIPLE_ANCHOR, n_probes=n),
        )
        assert rep.delta == pytest.approx(expect_delta[n], rel=1e-12)
        assert rep.p_success == pytest.approx(expect_ps[n], rel=1e-12)
        assert rep.coalition == "abc"
        d = rep.to_json_dict()
        assert d["n_probes"] == n
        assert d["v_t"] == pytest.approx(v_t)


def test_security_probabilities_frozen_pair():
    # two-party coalition at its own crossing with the lone party
    v_t = 6.8
    expect_delta = [0.34702634193947507, 0.1420622355107561, 0.06074409565146009]
    expect_ps = [0.7272944079561339, 0.8780757364025674, 0.9468702751961268]
    for n, ed, ep in zip((10, 50, 100), expect_delta, expect_ps):
        rep = security_probabilities(
            v_t,
            MseDistribution(mu=MU_SINGLE_ANCHOR, n_probes=n),
            MseDistribution(mu=MU_PAIR_ANCHOR, n_probes=n),
            coalition_name="ab",
        )
        assert rep.delta == pytest.approx(ed, rel=1e-12)
        assert rep.p_success == pytest.approx(ep, rel=1e-12)


def test_security_probabilities_probe_count_mismatch():
    with pytest.raises(InvalidArgumentError):
        security_probabilities(
            5.0,
            MseDistribution(mu=8.0, n_probes=10),
            MseDistribution(mu=4.0, n_probes=20),
        )


def test_mutual_information_values():
    assert mutual_information(1.0, 1.0) == 1.0
    assert mutual_information(3.0, 1.0) == 2.0
    with pytest.raises(InvalidArgumentError):
        mutual_information(0.0, 1.0)


@given(
    c=st.floats(0.1, 4.0, allow_nan=False),
    v=st.floats(0.1, 20.0, allow_nan=False),
)
def test_required_mse_inverts_mutual_information(c, v):
    v_alpha = required_mse(c, v)
    assert mutual_information(v, v_alpha) == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("c", [2000.0, 1e-300])
def test_required_mse_rejects_targets_out_of_float_range(c):
    # 2^c overflows, or 2^c - 1 rounds to zero: no finite positive target
    with pytest.raises(InvalidArgumentError, match="c_bits"):
        required_mse(c, 5.0)


def test_prob_mi_above_orderings():
    dist = MseDistribution(mu=4.0, n_probes=30)
    # more demanded bits -> smaller success probability
    ps = [prob_mi_above(c, 5.0, dist) for c in (0.5, 1.0, 2.0)]
    assert ps[0] > ps[1] > ps[2]
    # a better coalition (smaller mu) attains the target more often
    better = MseDistribution(mu=1.0, n_probes=30)
    assert prob_mi_above(1.0, 5.0, better) > prob_mi_above(1.0, 5.0, dist)


def test_prob_mi_above_uses_summed_scale():
    dist = MseDistribution(mu=4.0, n_probes=12)
    c, v = 1.0, 5.0
    manual = mse_cdf(2.0 * required_mse(c, v), dist)
    assert prob_mi_above(c, v, dist) == manual


def test_rejects_non_real_inputs():
    # each raised a bare ValueError or TypeError, or ran with True as 1.0
    dist = MseDistribution(mu=4.0, n_probes=3)
    for bad in ("x", True, [1.0, "x"], None, [[1.0], [1.0, 2.0]], 1j):
        for f in (mse_cdf, mse_pdf):
            with pytest.raises(InvalidArgumentError, match="^MSE values must be finite$"):
                f(bad, dist)
    for bad in (True, [1.0, 2.0], np.float64("nan"), "1"):
        with pytest.raises(InvalidArgumentError, match="^v_dist must be finite and > 0$"):
            mutual_information(bad, 1.0)
    for bad in (True, np.array([True, False]), "x", [1.0, None]):
        with pytest.raises(InvalidArgumentError, match="^v_alpha must be finite and > 0$"):
            mutual_information(1.0, bad)
    assert mutual_information(np.int64(3), np.array([1, 3])).tolist() == [2.0, 1.0]


# P(n, x) and Q(n, x) = 1 - P(n, x) at integer n by their Poisson sums, at 50
# digits: P = e^-x sum_(k >= n) x^k / k! and Q = e^-x sum_(k < n) x^k / k!,
# every term positive, summed outward from k = n and downward from k = n - 1
def _mp_tail(n: int, x: float):
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        upper = x >= n
        first = n - 1 if upper else n
        lead = mpmath.exp(first * mpmath.log(x) - x - mpmath.loggamma(first + 1))
        term = total = mpmath.mpf(1)
        j = 0
        while term > total * mpmath.mpf(10) ** -45:
            j += 1
            term *= (n - j) / x if upper else x / (n + j)
            total += term
        return lead * total


@pytest.mark.parametrize("n, x", [(1, 0.5), (7, 3.0), (7, 11.0), (40, 40.0), (300, 270.0),
                                  (300, 340.0)])
def test_poisson_oracle_matches_mpmath_gammainc(n, x):
    with mpmath.workdps(50):
        want = mpmath.gammainc(n, 0, x, regularized=True) if x < n else \
            mpmath.gammainc(n, x, mpmath.inf, regularized=True)
        assert abs(_mp_tail(n, x) / want - 1) < mpmath.mpf(10) ** -40


_TINY = 2.0**-1022
_HALF_SUBNORMAL = 2.0**-1075


def _check_tail(n: int, x: float):
    # the smaller tail, P below x = n and Q from x = n on, keeps 5e-13 relative
    # where it is a normal double and is 0.0 where it rounds below the subnormals
    tail, upper = security._gamma_tail(n, x)
    assert bool(upper) == (x >= n)
    want = _mp_tail(n, x)
    if want >= _TINY:
        assert abs(float(tail) - want) <= 5e-13 * want, (n, x, float(tail), want)
    elif want < _HALF_SUBNORMAL:
        assert float(tail) == 0.0, (n, x, float(tail), want)
    else:
        assert abs(float(tail) - want) <= 5e-13 * want + 2.0 * 2.0**-1074


@settings(max_examples=200)
@given(n=st.integers(1, 100_000), ratio=st.floats(0.3, 3.0))
def test_gamma_tail_matches_mpmath(n, ratio):
    _check_tail(n, n * ratio)


@settings(max_examples=200)
@given(n=st.integers(1, 100_000), exponent=st.floats(0.0, 760.0), upper=st.booleans())
def test_gamma_tail_matches_mpmath_down_to_underflow(n, exponent, upper):
    # x/n solves n (lam - 1 - ln lam) = exponent on one side of 1, so the draws
    # spread over the tails down to the smallest doubles, where the exponent's
    # round-off counts most
    lo, hi = (1.0, 3.0) if upper else (0.3, 1.0)

    def gap(lam):
        return n * (lam - 1.0 - math.log(lam)) - exponent

    assume(gap(hi if upper else lo) >= 0.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (gap(mid) < 0.0) == upper:
            lo = mid
        else:
            hi = mid
    _check_tail(n, n * 0.5 * (lo + hi))


@pytest.mark.parametrize("x", [1e-300, 1e-17, 1e-8, 0.3, 1.0, 2.5, 30.0, 700.0])
def test_gamma_tail_at_one_probe_is_the_exponential_law(x):
    tail, upper = security._gamma_tail(1, x)
    want = math.exp(-x) if upper else -math.expm1(-x)
    assert float(tail) == pytest.approx(want, rel=4e-16)


def test_cdf_at_zero_and_beyond_float_range():
    for n in (1, 2, 19, 20, 100_000):
        assert mse_cdf_over_n(0.0, 4.0, n) == 0.0
        assert mse_cdf_over_n(-3.0, 4.0, n) == 0.0
        assert mse_cdf_over_n(np.inf, 4.0, n) == 1.0
        tail, upper = security._gamma_tail(n, 0.0)
        assert float(tail) == 0.0 and not upper
    assert math.isnan(mse_cdf_over_n(np.nan, 4.0, 3))
    # x / n below the subnormals and n * x/n beyond the largest float: the
    # tails are far below the smallest double, with no overflow or divide warning
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        assert mse_cdf_over_n(5e-324, 1.0, 7) == 0.0
        assert mse_cdf_over_n(1e303, 1.0, 100_000) == 1.0
        # x n / mu itself beyond the largest float overflowed with a RuntimeWarning
        dist = MseDistribution(1e-3, 10)
        assert mse_cdf(1e308, dist) == 1.0
        assert mse_pdf(1e308, dist) == 0.0


# the smaller tail at the CLI's probe cap, MAX_SWEEP_PROBES = 100,000, from
# the Poisson sums at 50 digits
_CAP_TAILS = [
    (100_000.0, 0.4995794778896348),
    (99_000.0, 0.0007574199211747679),
    (101_000.0, 0.0008084215129255907),
    (98_000.0, 9.690835158160487e-11),
    (102_500.0, 2.220496052041097e-15),
]


@pytest.mark.parametrize("x, want", _CAP_TAILS)
def test_gamma_tail_at_the_probe_cap(x, want):
    tail, upper = security._gamma_tail(100_000, x)
    assert bool(upper) == (x >= 100_000)
    assert float(tail) == pytest.approx(want, rel=1e-14)
    cdf = mse_cdf(x * 4.0 / 100_000, MseDistribution(mu=4.0, n_probes=100_000))
    assert cdf == pytest.approx(1.0 - want if upper else want, rel=1e-14)


def test_cdf_broadcasts_like_a_ufunc():
    # the CLI passes (chunk, coalition, 2) grids; every cell is the scalar value
    v_t = np.array([6.8, 5.545177444479562])
    means = np.array([[8.0, 5.83], [8.0, 4.0]])
    n = np.array([1, 19, 20, 200, 5000])[:, None, None]
    grid = mse_cdf_over_n(v_t[:, None], means, n)
    assert grid.shape == (5, 2, 2)
    for i, k in enumerate(n.ravel().tolist()):
        for c in range(2):
            for m in range(2):
                dist = MseDistribution(mu=float(means[c, m]), n_probes=k)
                assert grid[i, c, m] == mse_cdf(float(v_t[c]), dist)
    assert isinstance(mse_cdf_over_n(1.0, 2.0, 3), np.float64)


def test_gamma_tail_does_not_depend_on_the_array_around_it():
    # the CLI's tables must keep their bits whatever chunk a row falls in, so a
    # value must not depend on its neighbours, as a BLAS product's last bits can
    gen = np.random.default_rng(7)
    n = np.floor(10.0 ** gen.uniform(0.0, 5.0, 600))
    x = n * gen.uniform(0.05, 4.0, 600)
    whole, _ = security._gamma_tail(n, x)
    assert np.count_nonzero(whole) > 300
    for step in (1, 7, 64):
        parts = [security._gamma_tail(n[i:i + step], x[i:i + step])[0] for i in range(0, 600, step)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_atanh_fit_holds_on_its_range():
    # the fit of sum_k w^k / (2k + 3) that the saddle-point exponent uses near x = n
    w = np.linspace(0.0, 0.36, 2001)
    got = security._horner(w, security._ATANH_FIT)
    with mpmath.workdps(40):
        want = [mpmath.mpf(1) / 3 if v == 0 else
                (mpmath.atanh(mpmath.sqrt(v)) - mpmath.sqrt(v)) / mpmath.mpf(v) ** 1.5
                for v in w.tolist()]
        worst = max(abs(mpmath.mpf(g) / t - 1) for g, t in zip(got.tolist(), want))
    assert worst <= 1.5 * 2.0**-53


def test_stirling_error_and_temme_leading_coefficients():
    n = np.arange(1.0, 40.0)
    with mpmath.workdps(40):
        want = [float(mpmath.log(mpmath.factorial(k)) - (k * mpmath.log(k) - k
                                                         + mpmath.log(2 * mpmath.pi * k) / 2))
                for k in range(1, 40)]
    # e^-s(n) enters the tails, so what counts is the absolute error of s(n)
    assert np.max(np.abs(security._stirling_error(n) - want)) <= 4e-17
    # g_0(eta) = 1 / (lam - 1) - 1 / eta, whose Taylor coefficients DiDonato and
    # Morris list as -1/3, 1/12, -2/135, 1/864, 1/2835, -139/777600
    g0 = security._temme_table()[:6, 0, 0]
    assert np.allclose(g0, [-1 / 3, 1 / 12, -2 / 135, 1 / 864, 1 / 2835, -139 / 777600],
                       rtol=1e-14, atol=0.0)
