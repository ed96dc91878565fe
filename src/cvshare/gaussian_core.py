"""Gaussian states in shot-noise units and the dealer's distributed state.

Conventions: quadratures obey [x, p] = 2i, the vacuum has unit variance
per quadrature, and vectors/matrices are ordered x1, p1, x2, p2, ...
The three-mode state shared by the dealer is stored in mode order
(C, B, A), so party A's quadratures occupy the last 2x2 block.

:func:`check_covariances` is the one covariance check (symmetry,
uncertainty relation, positivity); it works on a stack of matrices. The
:class:`GaussianState` constructor runs it on a stack of one, so every
state passes through it once: user-built states, parsed state files,
partial traces and the dealer state. :func:`dealer_covariances` builds
the dealer covariance for a whole array of squeezing values in one pass
by physicality-preserving channel maps, so it checks its inputs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedStateError, check_array, check_scalar

#: relative tolerance for covariance symmetry
SYMMETRY_RTOL = 1e-10
#: eigenvalue slack allowed when testing physicality of cov + i*Omega,
#: relative to the largest |cov| entry (and never below this absolute value)
PHYSICALITY_SLACK = 1e-9
#: largest accepted squeezing: beyond it the e^{-2r} variance is lost in the
#: round-off of the e^{2r} one, and the dealer state cannot be told from an
#: unphysical one (the limit keeps a margin of about 50x above round-off)
R_MAX = 8.0
#: largest accepted excess noise per arm, the scale of the thermal parameters
#: (THERMAL_MAX) and of v_dist; far above it, at r = 8 from about 1e16,
#: round-off made physical dealer states fail the positivity check
EPS_MAX = 1e12
#: smallest accepted transmissivity per arm, the reciprocal of EPS_MAX; the
#: predicted MSEs divide by eta_A, and far smaller values overflow them
ETA_MIN = 1.0 / EPS_MAX
# The limits below belong to bounds, certificates and protocol, which re-export
# them; they are declared here so that the CLI parser, which states every flag's
# range, loads none of those modules.
#: largest thermal parameter: the certificate terms grow like n**4, so they
#: stay finite (below about 1e49); a dealer state at R_MAX has n of about 2e6
THERMAL_MAX = 1e12
#: default numerical tolerance for certificate verification
DEFAULT_TOL = 1e-9
#: largest |alpha_x|, |alpha_p| and sqrt(v_dist); the round-off of a
#: displacement this large (about 1e-10) stays far below the unit shot noise
ALPHA_MAX = 1e6


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with [[0, 1], [-1, 0]] per mode.

    :param n_modes: number of modes.
    :return: 2n x 2n real antisymmetric matrix.
    """
    n_modes = check_scalar("n_modes", n_modes, ">= 1", 1, integer=True)
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for m in range(n_modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


@dataclass(frozen=True, slots=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state.

    Both arrays are stored read-only; operations return new states.

    :param n_modes: number of modes (>= 1).
    :param mean: length-2n mean vector in shot-noise units.
    :param cov: 2n x 2n covariance matrix, vacuum variance 1.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        n_modes = check_scalar("n_modes", self.n_modes, ">= 1", 1, integer=True)
        mean, cov = (check_array("mean and cov", a, "finite", ends="()")
                     for a in (self.mean, self.cov))
        mean = mean.copy()  # it is stored read-only; check_covariances returns a new cov
        d = 2 * n_modes
        if mean.shape != (d,):
            raise InvalidArgumentError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise InvalidArgumentError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        cov = check_covariances(cov[np.newaxis])[0]
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "n_modes", n_modes)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def physicality_min_eigenvalues(cov: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of cov + i*Omega per matrix of a (..., d, d) stack.

    It is >= 0, up to round-off, exactly for physical states.
    """
    h = cov.astype(complex) + 1j * symplectic_form(cov.shape[-1] // 2)
    return np.linalg.eigvalsh(h)[..., 0]


def physicality_min_eigenvalue(state: GaussianState) -> float:
    """Minimum eigenvalue of state.cov + i*Omega."""
    return float(physicality_min_eigenvalues(state.cov))


def check_covariances(cov: np.ndarray) -> np.ndarray:
    """Check a finite (n, d, d) stack of covariances and return it symmetrized.

    Each matrix must be symmetric to SYMMETRY_RTOL of its largest |entry|
    (at least 1), obey the uncertainty relation cov + i*Omega >= 0 within
    PHYSICALITY_SLACK of that scale, and be positive definite. The checks
    run batched over the stack; for a stack of more than one, the error
    names the first failing member.
    """

    def reject(message: str, bad: np.ndarray) -> None:
        if np.any(bad):
            if len(cov) > 1:
                message += f" (stack member {int(np.argmax(bad))})"
            raise InvalidArgumentError(message)

    scale = np.maximum(1.0, np.max(np.abs(cov), axis=(1, 2)))
    reject("cov must be symmetric",
           np.max(np.abs(cov - cov.mT), axis=(1, 2)) > SYMMETRY_RTOL * scale)
    cov = 0.5 * (cov + cov.mT)
    reject("cov violates the uncertainty relation",
           physicality_min_eigenvalues(cov) < -PHYSICALITY_SLACK * scale)
    reject("cov must be positive definite", np.linalg.eigvalsh(cov)[:, 0] <= 0.0)
    return cov


_R_MAX_RULE = f"<= R_MAX = {R_MAX}: beyond it e^(-2r) is lost in the round-off of e^(2r)"


@dataclass(frozen=True, slots=True)
class ExperimentModel:
    """Squeezing plus per-arm transmissivity and excess noise.

    Fully determines the distributed three-mode state: with unit
    transmissivities and zero excess noise the state is the ideal
    dealer resource.

    :param r: squeezing parameter, in [0, R_MAX].
    :param eta_a, eta_b, eta_c: transmissivity per arm, each in [ETA_MIN, 1].
    :param eps_a, eps_b, eps_c: excess thermal noise per arm, in [0, EPS_MAX]
        shot-noise units.
    """

    r: float
    eta_a: float = 1.0
    eta_b: float = 1.0
    eta_c: float = 1.0
    eps_a: float = 0.0
    eps_b: float = 0.0
    eps_c: float = 0.0

    def __post_init__(self):
        r = check_scalar("r", self.r, "finite and >= 0", 0.0, ends="[)")
        object.__setattr__(self, "r", check_scalar("r", r, _R_MAX_RULE, hi=R_MAX))
        for name in ("eta_a", "eta_b", "eta_c"):
            object.__setattr__(self, name, check_scalar(
                name, getattr(self, name), f"in [ETA_MIN = {ETA_MIN:g}, 1]", ETA_MIN, 1.0))
        for name in ("eps_a", "eps_b", "eps_c"):
            object.__setattr__(self, name, check_scalar(
                name, getattr(self, name), f"in [0, EPS_MAX = {EPS_MAX:g}]", 0.0, EPS_MAX))


def partial_trace(state: GaussianState, keep: list[int]) -> GaussianState:
    """Restrict to the listed modes, in the order given.

    :param keep: non-empty, duplicate-free mode indices.
    """
    keep = [check_scalar("keep", m, f"mode indices in [0, {state.n_modes})", 0, state.n_modes,
                         ends="[)", integer=True) for m in keep]
    if len(keep) == 0:
        raise InvalidArgumentError("keep must be non-empty")
    if len(set(keep)) != len(keep):
        raise InvalidArgumentError("keep must be duplicate-free")
    idx = np.array([2 * m + k for m in keep for k in range(2)])
    return GaussianState(len(keep), state.mean[idx], state.cov[np.ix_(idx, idx)])


def dealer_covariances(rs, arms: ExperimentModel) -> np.ndarray:
    """Covariances of the dealer state, one per squeezing value in rs.

    Pipeline: an x-squeezed and a p-squeezed vacuum (same r) meet on a
    50:50 beamsplitter to form the entangled pair; the first output is
    split again with vacuum on a 50:50 beamsplitter, yielding shares C
    and B, while the unsplit arm becomes A. Each arm then passes through
    its loss channel and picks up its excess noise.

    The steps are the standard symplectic and channel maps (Weedbrook et
    al., Rev. Mod. Phys. 84, 621 (2012)), applied to the whole stack with
    the same arithmetic, matrix for matrix, as on a single covariance.
    They preserve physicality, so only the inputs are checked (rs here, eta
    and eps by the model); a test proves over the whole box of inputs that
    :func:`check_covariances` accepts the stack as built, bit for bit.

    :param rs: 1-D array of squeezing values, each in [0, R_MAX].
    :param arms: transmissivity and excess noise per arm (its r is not used).
    :return: (len(rs), 6, 6) stack in mode order (C, B, A).
    """
    rs = check_array("r", rs, "finite and >= 0", 0.0, ends="[)")
    rs = check_array("r", rs, _R_MAX_RULE, hi=R_MAX)
    if rs.ndim != 1:
        raise InvalidArgumentError("r must be a 1-D array of squeezing values")
    # math.exp per value: np.exp differs from it in the last bit for a few
    # percent of r, which would change the bytes of state and bounds files
    values = rs.tolist()
    lo = [math.exp(-2.0 * r) for r in values]
    hi = [math.exp(2.0 * r) for r in values]
    # inputs: vacuum C, x-squeezed B, p-squeezed A; each sandwich below comes
    # out exactly symmetric, which the box tests prove bit for bit
    cov = np.zeros((len(rs), 6, 6))
    cov[:, 0, 0] = cov[:, 1, 1] = 1.0
    cov[:, 2, 2] = cov[:, 5, 5] = lo
    cov[:, 3, 3] = cov[:, 4, 4] = hi
    h = math.sqrt(0.5)
    for bi, bj in ((2, 4), (2, 0)):
        # 50:50 beamsplitter [[h I2, h I2], [-h I2, h I2]] on the mode blocks
        # starting at bi and bj: first B with A, then B with C's vacuum
        s = np.eye(6)
        for k in range(2):
            s[bi + k, bi + k] = s[bj + k, bj + k] = s[bi + k, bj + k] = h
            s[bj + k, bi + k] = -h
        cov = s @ cov @ s.T
    for b, eta, eps in ((0, arms.eta_c, arms.eps_c), (2, arms.eta_b, arms.eps_b),
                        (4, arms.eta_a, arms.eps_a)):
        if eta < 1.0:
            # pure loss: the arm's cross-covariances scale by sqrt(eta),
            # its block becomes eta * block + (1 - eta) * I2
            g = np.eye(6)
            g[b, b] = g[b + 1, b + 1] = math.sqrt(eta)
            cov = g @ cov @ g.T
            cov[:, b, b] += 1.0 - eta
            cov[:, b + 1, b + 1] += 1.0 - eta
        if eps > 0.0:
            cov[:, b, b] += eps
            cov[:, b + 1, b + 1] += eps
    return cov


def build_dealer_state(model: ExperimentModel, alpha_x: float, alpha_p: float) -> GaussianState:
    """Build the three-mode state distributed to parties (C, B, A).

    The covariance is :func:`dealer_covariances` at model.r; the secret
    displacement (alpha_x, alpha_p) is applied to arm A before its loss
    channel, which scales it by sqrt(eta_A).

    :return: three-mode state, mode order (C, B, A), mean
        (0, 0, 0, 0, alpha_x, alpha_p) before loss.
    """
    alpha_x, alpha_p = (check_scalar("displacement", a, "finite", ends="()")
                        for a in (alpha_x, alpha_p))
    mean = np.zeros(6)
    # += rather than =, so a -0.0 displacement is stored as 0.0
    mean[4] += alpha_x
    mean[5] += alpha_p
    if model.eta_a < 1.0:
        mean *= math.sqrt(model.eta_a)
    return GaussianState(3, mean, dealer_covariances([model.r], model)[0])


def state_to_text(state: GaussianState) -> str:
    """Serialize a state: first line n_modes, then the mean row, then cov rows."""
    lines = [str(state.n_modes)]
    lines.append(" ".join(repr(float(v)) for v in state.mean))
    for row in state.cov:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> GaussianState:
    """Parse the textual state format produced by :func:`state_to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise UnsupportedStateError("empty state text")
    try:
        n_modes = int(lines[0].strip())
    except ValueError as exc:
        raise UnsupportedStateError(f"bad n_modes line: {lines[0]!r}") from exc
    d = 2 * n_modes
    if len(lines) != 2 + d:
        raise UnsupportedStateError(f"expected {2 + d} lines for {n_modes} modes, got {len(lines)}")
    try:
        mean = np.array([float(v) for v in lines[1].split()])
        cov = np.array([[float(v) for v in lines[2 + i].split()] for i in range(d)])
    except ValueError as exc:
        raise UnsupportedStateError("non-numeric entry in state text") from exc
    if mean.shape != (d,) or cov.shape != (d, d):
        raise UnsupportedStateError("wrong row length in state text")
    return GaussianState(n_modes, mean, cov)
