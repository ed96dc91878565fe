"""Simulator and analysis toolkit for three-party continuous-variable secret sharing.

Gaussian-state modeling of a dealer distributing displaced entangled
modes to three parties, homodyne estimation under loss and excess
noise, estimation-theoretic bounds with verifiable certificates, and
threshold security analysis of which coalitions can recover the
dealer's secret displacement.

``import cvshare`` loads no submodule. Each public name, and each
submodule such as ``cvshare.protocol``, is imported on its first access
and then kept in the package namespace, so a caller pays only for the
layers it uses.
"""

import importlib

__version__ = "0.1.0"


def backend_name() -> str:
    """Compute backend recorded in manifests; numpy is the only one."""
    return "python"


#: each submodule and the public names it exports at the package level
_EXPORTS = {
    "bounds": ("ThermalParams", "hcrb_thermal", "ideal_three_party_mse_sum",
               "ideal_two_party_mse_sum", "predicted_mse", "thermal_params_from_state",
               "witness_bound"),
    "certificates": ("CertificateReport", "verify_certificates"),
    "cli": (),
    "errors": ("AbortLossError", "CvshareError", "DegenerateAuxiliaryError",
               "DegenerateDualError", "InvalidArgumentError", "NoSignalError",
               "ProtocolFailureError", "ResourceLimitError", "UnsupportedStateError"),
    "estimators": ("Coalition", "GainSet", "MseReport", "parse_coalition"),
    "gaussian_core": ("ExperimentModel", "GaussianState", "build_dealer_state"),
    "protocol": ("DisplacementPlan", "ProtocolPolicy", "ProtocolResult", "RoundTable",
                 "batch_mse_distribution", "entanglement_check", "run_protocol", "sift"),
    "sampler": ("MeasurementAssignment", "RandomStream"),
    "security": ("MseDistribution", "SecurityReport", "crossing_threshold", "mse_cdf",
                 "mse_pdf", "mutual_information", "prob_mi_above", "required_mse",
                 "security_probabilities"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "backend_name", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
