"""Gaussian states in shot-noise units and the dealer's distributed state.

Conventions: quadratures obey [x, p] = 2i, the vacuum has unit variance
per quadrature, and vectors/matrices are ordered x1, p1, x2, p2, ...
The three-mode state shared by the dealer is stored in mode order
(C, B, A), so party A's quadratures occupy the last 2x2 block.

The :class:`GaussianState` constructor is the one place where a state
is checked (shape, symmetry, uncertainty relation, positivity). Every
state passes through it once: user-built states, parsed state files,
partial traces and the dealer state, which is assembled on plain arrays
and checked when it is wrapped at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, UnsupportedStateError

#: relative tolerance for covariance symmetry
SYMMETRY_RTOL = 1e-10
#: eigenvalue slack allowed when testing physicality of cov + i*Omega,
#: relative to the largest |cov| entry (and never below this absolute value)
PHYSICALITY_SLACK = 1e-9
#: largest accepted squeezing: beyond it the e^{-2r} variance is lost in the
#: round-off of the e^{2r} one, and the dealer state cannot be told from an
#: unphysical one (the limit keeps a margin of about 50x above round-off)
R_MAX = 8.0


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with [[0, 1], [-1, 0]] per mode.

    :param n_modes: number of modes.
    :return: 2n x 2n real antisymmetric matrix.
    """
    if n_modes < 1:
        raise InvalidArgumentError("n_modes must be >= 1")
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
        if self.n_modes < 1:
            raise InvalidArgumentError("n_modes must be >= 1")
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        d = 2 * self.n_modes
        if mean.shape != (d,):
            raise InvalidArgumentError(f"mean must have shape ({d},), got {mean.shape}")
        if cov.shape != (d, d):
            raise InvalidArgumentError(f"cov must have shape ({d}, {d}), got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise InvalidArgumentError("mean and cov must be finite")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_RTOL * scale:
            raise InvalidArgumentError("cov must be symmetric")
        cov = 0.5 * (cov + cov.T)
        if physicality_min_eigenvalue_of(cov) < -PHYSICALITY_SLACK * scale:
            raise InvalidArgumentError("cov violates the uncertainty relation")
        if np.linalg.eigvalsh(cov)[0] <= 0.0:
            raise InvalidArgumentError("cov must be positive definite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def physicality_min_eigenvalue_of(cov: np.ndarray) -> float:
    """Minimum eigenvalue of cov + i*Omega (>= 0 up to slack for physical states)."""
    n_modes = cov.shape[0] // 2
    h = cov.astype(complex) + 1j * symplectic_form(n_modes)
    return float(np.linalg.eigvalsh(h)[0])


def physicality_min_eigenvalue(state: GaussianState) -> float:
    """Minimum eigenvalue of state.cov + i*Omega."""
    return physicality_min_eigenvalue_of(state.cov)


@dataclass(frozen=True, slots=True)
class ExperimentModel:
    """Squeezing plus per-arm transmissivity and excess noise.

    Fully determines the distributed three-mode state: with unit
    transmissivities and zero excess noise the state is the ideal
    dealer resource.

    :param r: squeezing parameter, in [0, R_MAX].
    :param eta_a, eta_b, eta_c: transmissivity per arm, each in (0, 1].
    :param eps_a, eps_b, eps_c: excess thermal noise per arm, >= 0 shot-noise units.
    """

    r: float
    eta_a: float = 1.0
    eta_b: float = 1.0
    eta_c: float = 1.0
    eps_a: float = 0.0
    eps_b: float = 0.0
    eps_c: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise InvalidArgumentError("r must be finite and >= 0")
        if self.r > R_MAX:
            raise InvalidArgumentError(
                f"r must be <= R_MAX = {R_MAX}: beyond it e^(-2r) is lost in the "
                "round-off of e^(2r)"
            )
        for name in ("eta_a", "eta_b", "eta_c"):
            eta = getattr(self, name)
            if not (math.isfinite(eta) and 0.0 < eta <= 1.0):
                raise InvalidArgumentError(f"{name} must be in (0, 1]")
        for name in ("eps_a", "eps_b", "eps_c"):
            eps = getattr(self, name)
            if not (math.isfinite(eps) and eps >= 0.0):
                raise InvalidArgumentError(f"{name} must be >= 0")

    @property
    def is_ideal(self) -> bool:
        return (
            self.eta_a == self.eta_b == self.eta_c == 1.0
            and self.eps_a == self.eps_b == self.eps_c == 0.0
        )


def partial_trace(state: GaussianState, keep: list[int]) -> GaussianState:
    """Restrict to the listed modes, in the order given.

    :param keep: non-empty, duplicate-free mode indices.
    """
    if len(keep) == 0:
        raise InvalidArgumentError("keep must be non-empty")
    if len(set(keep)) != len(keep):
        raise InvalidArgumentError("keep must be duplicate-free")
    for m in keep:
        if not (0 <= m < state.n_modes):
            raise InvalidArgumentError(f"mode {m} out of range for {state.n_modes} modes")
    idx = np.array([2 * m + k for m in keep for k in range(2)])
    return GaussianState(len(keep), state.mean[idx], state.cov[np.ix_(idx, idx)])


def build_dealer_state(model: ExperimentModel, alpha_x: float, alpha_p: float) -> GaussianState:
    """Build the three-mode state distributed to parties (C, B, A).

    Pipeline: an x-squeezed and a p-squeezed vacuum (same r) meet on a
    50:50 beamsplitter to form the entangled pair; the first output is
    split again with vacuum on a 50:50 beamsplitter, yielding shares C
    and B, while the unsplit arm becomes A. The secret displacement
    (alpha_x, alpha_p) is applied to arm A, then each arm passes through
    its loss channel and picks up its excess noise.

    The steps are the standard symplectic and channel maps (Weedbrook et
    al., Rev. Mod. Phys. 84, 621 (2012)) applied to one (mean, cov) pair;
    they keep the state physical, so it is checked once, at the end.

    :return: three-mode state, mode order (C, B, A), mean
        (0, 0, 0, 0, alpha_x, alpha_p) before loss.
    """
    if not (math.isfinite(alpha_x) and math.isfinite(alpha_p)):
        raise InvalidArgumentError("displacement must be finite")
    lo, hi = math.exp(-2.0 * model.r), math.exp(2.0 * model.r)
    # inputs: vacuum C, x-squeezed B, p-squeezed A; each matrix sandwich
    # below is symmetric only up to round-off, so it is symmetrized after
    mean = np.zeros(6)
    cov = np.diag([1.0, 1.0, lo, hi, hi, lo])
    h = math.sqrt(0.5)
    for bi, bj in ((2, 4), (2, 0)):
        # 50:50 beamsplitter [[h I2, h I2], [-h I2, h I2]] on the mode blocks
        # starting at bi and bj: first B with A, then B with C's vacuum
        s = np.eye(6)
        for k in range(2):
            s[bi + k, bi + k] = s[bj + k, bj + k] = s[bi + k, bj + k] = h
            s[bj + k, bi + k] = -h
        mean = s @ mean
        cov = s @ cov @ s.T
        cov = 0.5 * (cov + cov.T)
    mean[4] += alpha_x
    mean[5] += alpha_p
    for b, eta, eps in ((0, model.eta_c, model.eps_c), (2, model.eta_b, model.eps_b),
                        (4, model.eta_a, model.eps_a)):
        if eta < 1.0:
            # pure loss: the arm's mean and cross-covariances scale by
            # sqrt(eta), its block becomes eta * block + (1 - eta) * I2
            g = np.eye(6)
            g[b, b] = g[b + 1, b + 1] = math.sqrt(eta)
            cov = g @ cov @ g.T
            cov[b, b] += 1.0 - eta
            cov[b + 1, b + 1] += 1.0 - eta
            cov = 0.5 * (cov + cov.T)
            mean = g @ mean
        if eps > 0.0:
            cov[b, b] += eps
            cov[b + 1, b + 1] += eps
    return GaussianState(3, mean, cov)


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
