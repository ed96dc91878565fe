"""Measurement outcome sampling with reproducible seeded streams.

Homodyne outcomes are multivariate-normal draws from the sub-mean and
sub-covariance of the selected quadratures. Dual-homodyne outcomes pick
up the unit vacuum penalty on both quadratures of the measured mode:
the outcome covariance is the mode block plus the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, check_scalar
from .gaussian_core import GaussianState

#: valid per-mode measurement choices
CHOICES = ("x", "p", "xp", "none")

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True, slots=True)
class RandomStream:
    """Seeded, splittable source of randomness.

    Identical (seed, stream_id) pairs give identical outcome sequences
    across runs and platforms for a fixed numpy version (the underlying
    PCG64 and SFC64 algorithms are platform-independent). Distinct
    stream_ids give statistically independent sequences.
    :meth:`generator` runs PCG64 and :meth:`chunk_generator` SFC64.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, check_scalar(
                name, getattr(self, name), "a 64-bit unsigned integer", 0, _UINT64_MAX,
                integer=True))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def chunk_generator(self, index: int) -> np.random.Generator:
        """Generator of chunk ``index`` of this stream: its own independent child stream.

        ``SeedSequence(seed, spawn_key=(stream_id, index))`` is the
        ``index``-th child that ``SeedSequence.spawn`` would give this
        stream, so a chunk can be replayed on its own. The chunks feed the
        sampled runs, whose cost is mostly normals, so they run SFC64: a
        normal in about two thirds of PCG64's time.
        """
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, index))
        return np.random.Generator(np.random.SFC64(seq))


@dataclass(frozen=True, slots=True)
class MeasurementAssignment:
    """Per-mode measurement choice: "x", "p", "xp" (dual-homodyne) or "none".

    At least one mode must be measured. Outcome columns are ordered by
    mode, with the x column before the p column for an "xp" mode.
    """

    choices: tuple[str, ...]

    def __post_init__(self):
        if len(self.choices) == 0:
            raise InvalidArgumentError("assignment must cover at least one mode")
        for c in self.choices:
            if c not in CHOICES:
                raise InvalidArgumentError(f"bad measurement choice {c!r}")
        if all(c == "none" for c in self.choices):
            raise InvalidArgumentError("at least one mode must be measured")

    @property
    def n_modes(self) -> int:
        return len(self.choices)

    def quadrature_indices(self) -> list[int]:
        """Indices into the length-2n quadrature vector, one per outcome column."""
        idx = []
        for mode, c in enumerate(self.choices):
            if c in ("x", "xp"):
                idx.append(2 * mode)
            if c in ("p", "xp"):
                idx.append(2 * mode + 1)
        return idx

    def dual_modes(self) -> list[int]:
        """Modes measured with dual-homodyne."""
        return [m for m, c in enumerate(self.choices) if c == "xp"]

    def labels(self, mode_names: tuple[str, ...] | None = None) -> list[str]:
        """Column labels like ``x_b``; mode_names defaults to mode indices."""
        if mode_names is None:
            mode_names = tuple(str(m) for m in range(self.n_modes))
        if len(mode_names) != self.n_modes:
            raise InvalidArgumentError("one name per mode required")
        out = []
        for mode, c in enumerate(self.choices):
            if c in ("x", "xp"):
                out.append(f"x_{mode_names[mode]}")
            if c in ("p", "xp"):
                out.append(f"p_{mode_names[mode]}")
        return out


def outcome_moments(
    state: GaussianState, assignment: MeasurementAssignment
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and covariance of the outcome columns.

    Homodyne columns carry the sub-mean/sub-covariance of the selected
    quadratures; dual-homodyne columns add the unit vacuum penalty to
    their mode's diagonal block.
    """
    if assignment.n_modes != state.n_modes:
        raise InvalidArgumentError("assignment must cover every state mode")
    idx = assignment.quadrature_indices()
    mean = state.mean[idx]
    cov = state.cov[np.ix_(idx, idx)].copy()
    dual_quads = set()
    for m in assignment.dual_modes():
        dual_quads.update((2 * m, 2 * m + 1))
    for col, q in enumerate(idx):
        if q in dual_quads:
            cov[col, col] += 1.0
    return mean, cov


def wigner_sample(gen: np.random.Generator, chol: np.ndarray, n_shots: int) -> np.ndarray:
    """Sample n_shots rows of every quadrature from N(0, chol @ chol.T).

    For a Gaussian state these are draws of its Wigner function, so any
    set of commuting quadratures on distinct modes, read off one row, is
    a joint homodyne outcome.

    :param chol: d x d lower-triangular Cholesky factor of the covariance.
    """
    return gen.standard_normal((n_shots, chol.shape[0])) @ chol.T


def mvn_sample(
    gen: np.random.Generator, mean: np.ndarray, chol: np.ndarray, n_shots: int
) -> np.ndarray:
    """Sample n_shots rows from N(mean, chol @ chol.T).

    :param mean: length-d mean vector.
    :param chol: d x d lower-triangular Cholesky factor of the covariance.
    """
    return mean[None, :] + wigner_sample(gen, chol, n_shots)


def sample_joint(
    state: GaussianState,
    assignment: MeasurementAssignment,
    n_shots: int,
    stream: RandomStream | np.random.Generator,
) -> np.ndarray:
    """Draw joint outcomes for an arbitrary mix of homodyne and dual-homodyne modes.

    :param n_shots: number of independent rounds, >= 1.
    :param stream: a RandomStream, or an already-positioned Generator
        (used by callers that interleave several sampling steps).
    :return: (n_shots, n_columns) outcome matrix.
    """
    n_shots = check_scalar("n_shots", n_shots, ">= 1", 1, integer=True)
    mean, cov = outcome_moments(state, assignment)
    gen = stream.generator() if isinstance(stream, RandomStream) else stream
    chol = np.linalg.cholesky(cov)
    return mvn_sample(gen, mean, chol, n_shots)

