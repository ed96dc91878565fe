"""The one scalar rule, check_scalar, and the library inputs that go through it."""

import math
import re

import numpy as np
import pytest

from cvshare.bounds import ThermalParams, ideal_three_party_mse_sum, witness_bound
from cvshare.certificates import verify_certificates
from cvshare.errors import InvalidArgumentError, check_scalar
from cvshare.estimators import GainSet
from cvshare.gaussian_core import ExperimentModel, build_dealer_state
from cvshare.protocol import DisplacementPlan, ProtocolPolicy, witness_verification_run
from cvshare.sampler import RandomStream
from cvshare.security import (
    MseDistribution,
    crossing_threshold,
    required_mse,
    security_probabilities,
)


@pytest.mark.parametrize(
    "value, lo, hi, ends, accepted",
    [(0.0, 0.0, 1.0, "[]", True), (1.0, 0.0, 1.0, "[]", True), (0.0, 0.0, 1.0, "(]", False),
     (1.0, 0.0, 1.0, "[)", False), (math.inf, 0.0, math.inf, "[]", True),
     (math.inf, 0.0, math.inf, "[)", False), (-math.inf, -math.inf, 0.0, "(]", False),
     (math.nan, -math.inf, math.inf, "[]", False), (10**400, 0.0, math.inf, "[]", False)],
)
def test_ends_and_nan(value, lo, hi, ends, accepted):
    if accepted:
        assert check_scalar("x", value, "ok", lo, hi, ends) == value
    else:
        with pytest.raises(InvalidArgumentError, match=r"^x must be ok$"):
            check_scalar("x", value, "ok", lo, hi, ends)


def test_values_come_back_as_python_scalars():
    for value in (2, 2.0, np.int64(2), np.float32(2.0), np.float64(2.0), np.uint8(2)):
        got = check_scalar("x", value, "real")
        assert type(got) is float and got == 2.0
    for value in (2, np.int64(2), np.uint64(2)):
        got = check_scalar("n", value, ">= 1", 1, integer=True)
        assert type(got) is int and got == 2
    # an integer beyond every float is still exact
    assert check_scalar("n", 10**30, ">= 1", 1, integer=True) == 10**30


#: each real-valued library input: (its error message, a valid integer value, a call
#: that passes the value in its place)
_REALS = {
    "plan-alpha_x": ("alpha_x must be finite", 1, lambda v: DisplacementPlan.fixed(v, 0.0)),
    "plan-alpha_p": ("alpha_p must be finite", 1, lambda v: DisplacementPlan.fixed(0.0, v)),
    "plan-v_dist": ("v_dist must be finite", 2,
                    lambda v: DisplacementPlan.gaussian_modulated(v, n_rep=2)),
    "eta_min": ("eta_min must be in (0, 1]", 1, lambda v: ProtocolPolicy(eta_min=v)),
    "witness_fraction": ("witness_fraction must be in [0, 0.5]", 0,
                         lambda v: ProtocolPolicy(witness_fraction=v)),
    "bias_fraction": ("bias_fraction must be in [0, 0.5]", 0,
                      lambda v: ProtocolPolicy(bias_fraction=v)),
    "witness-alpha_x": ("alpha_x must be finite", 1, lambda v: witness_verification_run(
        ExperimentModel(r=1.0), v, 0.0, 200, RandomStream(3))),
    "mu": ("mu must be finite and > 0", 4, lambda v: MseDistribution(v, 10)),
    "mu_a": ("mu_a must be finite and > 0", 8, lambda v: crossing_threshold(v, 4.0)),
    "mu_b": ("mu_b must be finite and > 0", 4, lambda v: crossing_threshold(8.0, v)),
    "v_t": ("v_t must be finite and >= 0", 3, lambda v: security_probabilities(
        v, MseDistribution(8.0, 10), MseDistribution(4.0, 10))),
    "c_bits": ("c_bits must be finite and > 0", 1, lambda v: required_mse(v, 5.0)),
    "required-v_dist": ("v_dist must be finite and > 0", 5, lambda v: required_mse(1.0, v)),
    "g_b": ("g_b must be finite", 1, lambda v: GainSet(v, 0.0)),
    "g_bc": ("g_bc must be finite", 1, lambda v: GainSet(0.0, v)),
    "bias_scale": ("bias_scale must be finite", 1, lambda v: GainSet(0.0, 0.0, v)),
    "r": ("r must be finite and >= 0", 1, lambda v: ExperimentModel(r=v)),
    "eta_a": ("eta_a must be in [ETA_MIN = 1e-12, 1]", 1,
              lambda v: ExperimentModel(r=1.0, eta_a=v)),
    "eps_c": ("eps_c must be in [0, EPS_MAX = 1e+12]", 0,
              lambda v: ExperimentModel(r=1.0, eps_c=v)),
    "n1": ("thermal parameters must be finite", 1, lambda v: ThermalParams(v, 0.0)),
    "n2": ("thermal parameters must be finite", 0, lambda v: ThermalParams(1.0, v)),
    "displacement": ("displacement must be finite", 1, lambda v: build_dealer_state(
        ExperimentModel(r=1.0), 0.0, v).mean.tolist()),
    "witness_bound": ("r must be finite and >= 0", 1, witness_bound),
    "ideal_three_party": ("r must be finite and >= 0", 1, ideal_three_party_mse_sum),
    "tol": ("tol must be in [0, 1]", 1, lambda v: verify_certificates(ThermalParams(1.0, 0.5),
                                                                    tol=v)),
}


@pytest.mark.parametrize("case", list(_REALS))
def test_real_inputs_follow_one_rule(case):
    message, good, run = _REALS[case]
    # "1" was accepted or raised a bare TypeError, True ran as 1 and an array
    # passed some checks whole
    for bad in ("1", None, True, np.array([1.0, 2.0]), math.nan):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            run(bad)
    # a numpy scalar gives what the Python float or int gives, down to its repr
    want = repr(run(good))
    for twin in (float(good), np.int64(good), np.float64(good)):
        assert repr(run(twin)) == want


def test_inputs_once_rejected_or_let_through():
    # each raised a bare TypeError, or ran where it should fail, or failed where
    # it should run
    assert RandomStream(np.uint64(5)) == RandomStream(5)
    assert (RandomStream(np.uint64(5)).generator().standard_normal(3).tolist()
            == RandomStream(5).generator().standard_normal(3).tolist())
    assert repr(MseDistribution(4.0, np.int64(10))) == repr(MseDistribution(4.0, 10))
    for make, message in [
        (lambda: ExperimentModel(r=np.array([1.0, 2.0])), "r must be finite and >= 0"),
        (lambda: ExperimentModel(r=1.0, eta_a="0.5"), "eta_a must be in [ETA_MIN = 1e-12, 1]"),
        (lambda: ProtocolPolicy(eta_min="0.5"), "eta_min must be in (0, 1]"),
        (lambda: GainSet("1", 0.0), "g_b must be finite"),
        (lambda: ThermalParams("1", 0.0), "thermal parameters must be finite"),
    ]:
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            make()
