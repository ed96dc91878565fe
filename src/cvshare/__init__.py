"""Simulator and analysis toolkit for three-party continuous-variable secret sharing.

Gaussian-state modeling of a dealer distributing displaced entangled
modes to three parties, homodyne estimation under loss and excess
noise, estimation-theoretic bounds with verifiable certificates, and
threshold security analysis of which coalitions can recover the
dealer's secret displacement.
"""

__version__ = "0.1.0"

from .bounds import (
    ThermalParams,
    hcrb_thermal,
    ideal_three_party_mse_sum,
    ideal_two_party_mse_sum,
    predicted_mse,
    thermal_params_from_state,
    witness_bound,
)
from .certificates import CertificateReport, verify_certificates
from .errors import (
    AbortLossError,
    CvshareError,
    DegenerateAuxiliaryError,
    DegenerateDualError,
    InvalidArgumentError,
    NoSignalError,
    ProtocolFailureError,
    ResourceLimitError,
    UnsupportedStateError,
)
from .estimators import Coalition, GainSet, MseReport, parse_coalition
from .gaussian_core import ExperimentModel, GaussianState, build_dealer_state
from .protocol import (
    DisplacementPlan,
    ProtocolPolicy,
    ProtocolResult,
    RoundTable,
    batch_mse_distribution,
    entanglement_check,
    run_protocol,
    sift,
)
from .sampler import MeasurementAssignment, RandomStream
from .security import (
    MseDistribution,
    SecurityReport,
    crossing_threshold,
    mse_cdf,
    mse_pdf,
    mutual_information,
    prob_mi_above,
    required_mse,
    security_probabilities,
)


def backend_name() -> str:
    """Compute backend recorded in manifests; numpy is the only one."""
    return "python"


__all__ = [
    "__version__",
    "AbortLossError",
    "CvshareError",
    "Coalition",
    "CertificateReport",
    "DegenerateAuxiliaryError",
    "DegenerateDualError",
    "DisplacementPlan",
    "ExperimentModel",
    "GainSet",
    "GaussianState",
    "InvalidArgumentError",
    "MeasurementAssignment",
    "MseDistribution",
    "MseReport",
    "NoSignalError",
    "ProtocolFailureError",
    "ProtocolPolicy",
    "ProtocolResult",
    "ResourceLimitError",
    "RandomStream",
    "RoundTable",
    "SecurityReport",
    "ThermalParams",
    "UnsupportedStateError",
    "backend_name",
    "batch_mse_distribution",
    "build_dealer_state",
    "crossing_threshold",
    "entanglement_check",
    "hcrb_thermal",
    "ideal_three_party_mse_sum",
    "ideal_two_party_mse_sum",
    "mse_cdf",
    "mse_pdf",
    "mutual_information",
    "parse_coalition",
    "predicted_mse",
    "prob_mi_above",
    "required_mse",
    "run_protocol",
    "security_probabilities",
    "sift",
    "thermal_params_from_state",
    "verify_certificates",
    "witness_bound",
]
