"""Batch MSE statistics, access thresholds, leaked-information measures."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from conftest import MU_PAIR_ANCHOR, MU_SINGLE_ANCHOR, MU_TRIPLE_ANCHOR
from cvshare.errors import InvalidArgumentError
from cvshare.security import (
    MseDistribution,
    crossing_threshold,
    mse_cdf,
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


def test_pdf_no_overflow_at_large_n():
    dist = MseDistribution(mu=4.0, n_probes=5000)
    val = mse_pdf(4.0, dist)
    assert math.isfinite(val) and val > 0.0


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
