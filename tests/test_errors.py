"""The one scalar rule, check_scalar, its array twin, check_array, the library
inputs that go through them, and a guard over the whole public surface."""

import enum
import inspect
import math
import re

import numpy as np
import pytest

import cvshare
from cvshare.bounds import (
    ThermalParams,
    ideal_three_party_mse_sum,
    predicted_mse_grid,
    witness_bound,
)
from cvshare.certificates import certificate_columns, verify_certificates
from cvshare.errors import CvshareError, InvalidArgumentError, check_array, check_scalar
from cvshare.estimators import Coalition, GainSet
from cvshare.gaussian_core import (
    ExperimentModel,
    GaussianState,
    build_dealer_state,
    dealer_covariances,
)
from cvshare.protocol import (
    ROUND_COLUMNS,
    DisplacementPlan,
    ProtocolPolicy,
    RoundTable,
    witness_verification_run,
)
from cvshare.sampler import RandomStream
from cvshare.security import (
    MseDistribution,
    crossing_threshold,
    mse_cdf,
    mse_pdf,
    mutual_information,
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
    # the array rule applies the same ends, to each value of an array
    values = [0.5 * (max(lo, -1.0) + min(hi, 1.0)), value]
    if accepted:
        assert check_scalar("x", value, "ok", lo, hi, ends) == value
        assert check_array("x", values, "ok", lo, hi, ends).tolist() == values
    else:
        with pytest.raises(InvalidArgumentError, match=r"^x must be ok$"):
            check_scalar("x", value, "ok", lo, hi, ends)
        with pytest.raises(InvalidArgumentError, match=r"^x must be ok$"):
            check_array("x", values, "ok", lo, hi, ends)


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


def test_arrays_come_back_as_float_arrays():
    a = np.linspace(0.0, 1.0, 5)
    assert check_array("x", a, "real") is a
    for values in (a.tolist(), a.astype(np.float32), np.arange(3), np.arange(3, dtype=np.uint8),
                   [[1, 2], [3, 4]], 2, np.float64(2.0), []):
        got = check_array("x", values, "real")
        assert got.dtype == np.float64 and got.tolist() == np.asarray(values, dtype=float).tolist()
    for bad in (True, [True], np.array([1, 0], dtype=bool), "1", ["1"], b"1", [1j], 1j,
                None, [1.0, None], [10**400], [[1.0], [1.0, 2.0]], np.array(["2020"], "M8[D]")):
        with pytest.raises(InvalidArgumentError, match=r"^x must be real$"):
            check_array("x", bad, "real")


#: each array input of the library: (its error message, a call that passes the value in
#: its place)
_ARRAYS = {
    "mse_cdf-x": ("MSE values must be finite", lambda v: mse_cdf(v, MseDistribution(4.0, 10))),
    "mse_pdf-x": ("MSE values must be finite", lambda v: mse_pdf(v, MseDistribution(4.0, 10))),
    "v_alpha": ("v_alpha must be finite and > 0", lambda v: mutual_information(1.0, v)),
    "dealer_covariances-rs": ("r must be finite and >= 0",
                              lambda v: dealer_covariances(v, ExperimentModel(r=0.0))),
    "predicted_mse_grid-rs": ("r must be finite and >= 0",
                              lambda v: predicted_mse_grid(v, ExperimentModel(r=0.0))),
    "certificate-n1": ("thermal parameters must be finite",
                       lambda v: certificate_columns(v, [0.5])),
    "certificate-n2": ("thermal parameters must be finite",
                       lambda v: certificate_columns([0.5], v)),
    "mean": ("mean and cov must be finite", lambda v: GaussianState(1, v, np.eye(2))),
    "cov": ("mean and cov must be finite", lambda v: GaussianState(1, [0.0, 0.0], v)),
}


@pytest.mark.parametrize("case", list(_ARRAYS))
def test_array_inputs_follow_one_rule(case):
    message, run = _ARRAYS[case]
    # bools and numeric strings ran as 1.0, and the rest raised a bare ValueError or
    # TypeError, or warned a ComplexWarning, in some of these
    for bad in ([True], ["1"], ["x"], [1j], [[0.5], [0.5, 0.5]], [0.5, None], [math.nan],
                True, "1", None, 1j):
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            run(bad)


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


#: a valid call of each exported callable with a numeric or array parameter, and of the
#: three stack builders, by keyword; _DIST's mu makes x n / mu overflow at x = 1e300
_MODEL = ExperimentModel(r=0.5, eta_a=0.9, eps_b=0.1)
_DIST = MseDistribution(1e-9, 100)
#: 100 witness rounds per quadrature, every party in the dealer's basis
_BASES = np.repeat(np.array([0, 1], dtype=np.int8), 100)
_WITNESS_ROUNDS = RoundTable(
    round_index=np.arange(200), alpha_x=np.ones(200), alpha_p=np.ones(200),
    dealer_basis=_BASES, basis_a=_BASES, basis_b=_BASES, basis_c=_BASES,
    **{name: np.where(_BASES == "xp".index(name[0]), 0.5, np.nan)
       for name in ("x_c", "p_c", "x_b", "p_b", "x_a", "p_a")},
    kept=np.ones(200, dtype=bool))
_VALID_CALLS = {
    "ThermalParams": dict(n1=0.5, n2=0.25),
    "ideal_three_party_mse_sum": dict(r=0.5),
    "witness_bound": dict(r=0.5),
    "CertificateReport": dict(
        n1=0.5, n2=0.25, primal_value=5.5, dual_value=5.5, x1_eigs=(0.0, 1.0),
        x2_eigs=(0.0, 1.0), y1_eigs=(0.0, 1.0), y2_eigs=(0.5, 1.0), y3_eigs=(0.0, 1.0),
        feasible_primal=True, feasible_dual=True, values_match=True,
        constraint_residuals=(0.0,) * 6, status="ok"),
    "verify_certificates": dict(params=ThermalParams(0.5, 0.25), tol=1e-9),
    "GainSet": dict(g_b=0.5, g_bc=0.5, bias_scale=1.0),
    "MseReport": dict(coalition=Coalition.ABC, mse_x=1.0, mse_p=1.0, mse_sum=2.0, n_x=10,
                      n_p=10, gains=GainSet(0.5, 0.5)),
    "ExperimentModel": dict(r=0.5, eta_a=0.9, eta_b=0.8, eta_c=0.7, eps_a=0.1, eps_b=0.2,
                            eps_c=0.3),
    "GaussianState": dict(n_modes=1, mean=[0.0, 0.0], cov=np.eye(2)),
    "build_dealer_state": dict(model=_MODEL, alpha_x=1.0, alpha_p=0.5),
    "DisplacementPlan": dict(kind="fixed", alpha_x=1.0, alpha_p=0.5, v_dist=1.0, n_rep=2),
    "ProtocolPolicy": dict(eta_min=0.5, witness_fraction=0.05, bias_fraction=0.05),
    "RoundTable": dict.fromkeys(ROUND_COLUMNS, np.zeros(2)),
    "entanglement_check": dict(witness_records=_WITNESS_ROUNDS, eta_a=0.9),
    "batch_mse_distribution": dict(model=_MODEL, coalition=Coalition.ABC,
                                   n_probes_per_quadrature=2, n_batches=100,
                                   stream=RandomStream(3)),
    "run_protocol": dict(model=_MODEL, plan=DisplacementPlan.fixed(1.0, 0.5), n_rounds=400,
                         coalition=Coalition.ABC, policy=ProtocolPolicy(),
                         stream=RandomStream(3), keep_records=False),
    "RandomStream": dict(seed=3, stream_id=1),
    "MseDistribution": dict(mu=4.0, n_probes=10),
    "SecurityReport": dict(v_t=5.0, delta=0.1, p_success=0.9, coalition="abc", n_probes=10),
    "crossing_threshold": dict(mu_a=8.0, mu_b=4.0),
    "mse_cdf": dict(x=0.5, dist=_DIST),
    "mse_pdf": dict(x=0.5, dist=_DIST),
    "mutual_information": dict(v_dist=2.0, v_alpha=0.5),
    "prob_mi_above": dict(c_bits=1.0, v_dist=2.0, dist=_DIST),
    "required_mse": dict(c_bits=1.0, v_dist=2.0),
    "security_probabilities": dict(v_t=5.0, single=MseDistribution(8.0, 10),
                                   coalition=MseDistribution(4.0, 10)),
    "dealer_covariances": dict(rs=[0.0, 0.5], arms=_MODEL),
    "predicted_mse_grid": dict(rs=[0.0, 0.5], arms=_MODEL),
    "certificate_columns": dict(n1=[0.5, 0.0], n2=[0.25, 0.0], tol=1e-9),
}
#: every exported callable that takes input (the error classes and the Coalition enum
#: take none), then the three stack builders
_CALLABLES = {
    **{name: getattr(cvshare, name) for names in cvshare._EXPORTS.values() for name in names
       if not (isinstance(getattr(cvshare, name), type)
               and issubclass(getattr(cvshare, name), (Exception, enum.Enum)))},
    "dealer_covariances": dealer_covariances, "predicted_mse_grid": predicted_mse_grid,
    "certificate_columns": certificate_columns,
}
#: the annotations of a numeric or array parameter; an unannotated one takes an array
_NUMERIC = {"float", "int", "np.ndarray", "tuple[float, ...]", inspect.Parameter.empty}
_BAD_VALUES = {
    "None": None, "str": "x", "bool": True, "nan": math.nan, "inf": math.inf,
    "-inf": -math.inf, "-1": -1, "1e300": 1e300, "empty": [], "[bool]": [True],
    "[str]": ["1"], "[complex]": [1j], "ragged": [[1.0], [1.0, 2.0]],
    "2-array": np.array([0.5, 0.25]), "2-D": np.array([[0.5, 0.25], [0.5, 0.25]]),
}


def _numeric_params(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values() if p.annotation in _NUMERIC]


def test_guard_has_a_valid_call_of_every_numeric_input():
    # a newly exported callable with a numeric parameter joins the guard once it is
    # given a valid call here
    assert {name for name, fn in _CALLABLES.items() if _numeric_params(fn)} == set(_VALID_CALLS)
    for name, kwargs in _VALID_CALLS.items():
        _CALLABLES[name](**kwargs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, param, label", [
    pytest.param(name, param, label, id=f"{name}-{param}-{label}")
    for name, fn in _CALLABLES.items() for param in _numeric_params(fn) for label in _BAD_VALUES])
def test_public_surface_fails_only_with_its_own_errors(name, param, label):
    # parameters typed as objects (dist, model, params, state, a coalition) are left
    # out: a caller passes the package's own types there, which check themselves
    try:
        _CALLABLES[name](**{**_VALID_CALLS[name], param: _BAD_VALUES[label]})
    except CvshareError:
        pass
