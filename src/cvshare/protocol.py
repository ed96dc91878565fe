"""Full protocol rounds: displacements, basis choices, measurement, sifting and verification.

Per round the dealer draws a displacement and a basis; every party
measures a basis of its own (coalition members coordinate on one shared
coin per round, outsiders flip independent coins, and a lone party A
runs dual-homodyne so both quadratures are read every round). Rounds
whose coalition basis disagrees with the dealer's are discarded by
sifting. A random subset of the rounds in which all three parties
happened to match the dealer's basis is reserved for entanglement
verification (none for a lone A, whose dual-homodyne outcomes witness
nothing), and a further random subset of the kept rounds feeds an
unbiasedness spot-check; the remainder produces the coalition's MSE
report.

Rounds are drawn in chunks of ``_CHUNK_ROUNDS`` (stream layout 7), chunk
i from its own SFC64 child stream,
:meth:`~cvshare.sampler.RandomStream.chunk_generator`. A dealer state
has no x-p correlation, so the (A, B, C) triple of each quadrature is an
independent draw of its Wigner function, L z with L the lower Cholesky
factor of its block and z standard normals, one per party, the parties
the estimator reads first (:func:`_party_order`). Every quantity a
report reads from a round is a fixed linear functional of its normals
(:class:`_Functionals`): its error c·z at the analytic gain, its gain
auxiliary, its calibration residual and, in a witness round, its witness
error. The displacement cancels from each of them, so no report reads
it. One derivation gives the factors, gains and functionals of a run
and of a batch (:func:`_coalition_laws`), and each role of a run's
rounds reads them through one whitened law (:class:`_Whitened`).

So a chunk draws the exact law of what its reports read, not its rounds
(:meth:`_ProtocolRun._draw`): the counts of its rounds per basis cell
(one multinomial), the witness, bias and calibration splits
(multivariate hypergeometric draws), per quadrature the estimation
rounds' sum of squared errors, 2|c|²·Γ(k/2), or in a fitted run the
2 x 2 Wishart scatter of (error, auxiliary) and of (residual, auxiliary)
by Bartlett's decomposition, and one normal per functional of each bias
and witness round, whose standard errors read per-round values. A run
without records draws nothing else: a few numbers per chunk and about
one normal per tenth of its rounds. A run that keeps its records draws
the same statistics first, so its reports are the same, and then the
rounds conditioned on them (:meth:`_ProtocolRun._records`): a uniform
arrangement of the counts over the chunk, the bases no count fixes, a
gaussian plan's displacement blocks, and every round's normals, moved
along the read functionals so that they give the drawn statistics.
Those records are the per-round simulation: the reference estimators
applied to them give back the reports.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields, make_dataclass
from typing import NamedTuple

import numpy as np

from . import estimators
from .errors import (
    AbortLossError,
    InvalidArgumentError,
    ProtocolFailureError,
    ResourceLimitError,
    UnsupportedStateError,
    check_scalar,
)
from .estimators import Coalition, GainSet, MseReport, RunningMoments, weighted_sum
from .gaussian_core import (
    ALPHA_MAX,
    ETA_MIN,
    ExperimentModel,
    GaussianState,
    build_dealer_state,
    dealer_covariances,
)
from .sampler import RandomStream
# the benchmark tracer wraps protocol.sample_joint and protocol.partial_trace by name
# until stage hooks replace them
from .gaussian_core import partial_trace  # noqa: F401
from .sampler import sample_joint  # noqa: F401

#: witness rounds needed per quadrature before the entanglement verdict is meaningful
WITNESS_MIN_ROUNDS = 100
#: witness MSE sums at or above this are consistent with a separable state
WITNESS_THRESHOLD = 4.0
#: cap on n_batches * n_probes * modes of a batch distribution run; a run draws one
#: chi-squared value per batch and quadrature, so its time scales with n_batches alone
DEFAULT_BATCH_TERM_CAP = 200_000_000
#: cap on n_rounds of a run that keeps no records; memory is bounded by the
#: chunk, so the cap only bounds the run time
MAX_ROUNDS = 1_000_000_000
#: cap on n_rounds of a run that keeps its records: it holds run_protocol's round table
#: (77 B a round) to about 1.5 GB, and the rounds.csv of simulate --dump-rounds (89 B a
#: row for abc under a fixed plan, 139 B for a lone A under a gaussian one) to 1.8-2.8 GB
MAX_RECORD_ROUNDS = 20_000_000
#: random-stream layout of the sampled outputs, recorded in their manifests
STREAM_LAYOUT = 7
#: rounds drawn and reduced at a time, each chunk from its own child stream
_CHUNK_ROUNDS = 65536

#: basis name per code in the basis columns: 0 = x, 1 = p, 2 = dual-homodyne
BASIS_NAMES = ("x", "p", "xp")


@dataclass(frozen=True, slots=True)
class DisplacementPlan:
    """How the dealer draws the secret displacement.

    kind "fixed" repeats (alpha_x, alpha_p); kind "gaussian" draws a
    fresh pair per block from N(0, v_dist) per quadrature. With
    n_rep > 1 the same draw is applied, scaled by 1/sqrt(n_rep), to
    n_rep consecutive rounds (the repetition construction), n_rep in
    [1, :data:`MAX_ROUNDS`]. |alpha_x|, |alpha_p| and sqrt(v_dist) are at
    most :data:`ALPHA_MAX`.
    """

    kind: str
    alpha_x: float = 0.0
    alpha_p: float = 0.0
    v_dist: float = 1.0
    n_rep: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "gaussian"):
            raise InvalidArgumentError("plan kind must be 'fixed' or 'gaussian'")
        for name in ("alpha_x", "alpha_p"):
            alpha = check_scalar(name, getattr(self, name), "finite", ends="()")
            check_scalar(f"|{name}|", alpha, f"at most {ALPHA_MAX:g}", -ALPHA_MAX, ALPHA_MAX)
            object.__setattr__(self, name, alpha)
        v_dist = check_scalar("v_dist", self.v_dist, "finite", ends="()")
        check_scalar("v_dist", v_dist, f"at most {ALPHA_MAX**2:g}", hi=ALPHA_MAX**2)
        if self.kind == "gaussian":
            check_scalar("v_dist", v_dist, "> 0 for gaussian modulation", 0.0, ends="(]")
        object.__setattr__(self, "v_dist", v_dist)
        # no block is longer than the longest run
        object.__setattr__(self, "n_rep", check_scalar(
            "n_rep", self.n_rep, f"an integer in [1, MAX_ROUNDS = {MAX_ROUNDS}]", 1, MAX_ROUNDS,
            integer=True))

    @property
    def scale(self) -> float:
        """Probe scaling 1/sqrt(n_rep) applied to every displacement."""
        return 1.0 / math.sqrt(self.n_rep)

    @classmethod
    def fixed(cls, alpha_x: float, alpha_p: float, n_rep: int = 1) -> "DisplacementPlan":
        return cls(kind="fixed", alpha_x=alpha_x, alpha_p=alpha_p, n_rep=n_rep)

    @classmethod
    def gaussian_modulated(cls, v_dist: float, n_rep: int = 1) -> "DisplacementPlan":
        return cls(kind="gaussian", v_dist=v_dist, n_rep=n_rep)


@dataclass(frozen=True, slots=True)
class ProtocolPolicy:
    """Abort and verification policy knobs.

    ``witness_fraction`` of the rounds are reserved for the entanglement
    witness and ``bias_fraction`` for the unbiasedness check, each in
    [0, 0.5]. The witness share does not apply to a lone A: its
    dual-homodyne outcomes witness nothing, so none of its rounds are
    reserved and every kept round but the bias ones is estimated.
    """

    eta_min: float = 0.5
    witness_fraction: float = 0.05
    bias_fraction: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "eta_min", check_scalar(
            "eta_min", self.eta_min, "in (0, 1]", 0.0, 1.0, ends="(]"))
        for name in ("witness_fraction", "bias_fraction"):
            object.__setattr__(self, name, check_scalar(
                name, getattr(self, name), "in [0, 0.5]", 0.0, 0.5))


BASIS_COLUMNS = ("dealer_basis", "basis_a", "basis_b", "basis_c")
OUTCOME_COLUMNS = ("x_c", "p_c", "x_b", "p_b", "x_a", "p_a")
#: rows converted to RoundRecords at a time while iterating a table
_ROW_CHUNK = 4096
#: dtype of each round-table column that is not float64
_COLUMN_DTYPES = {"round_index": np.int64, **dict.fromkeys(BASIS_COLUMNS, np.int8), "kept": bool}


@dataclass(frozen=True, eq=False)
class RoundTable:
    """Every protocol round as numpy columns, one entry per round.

    ``round_index`` is int64, the basis columns hold int8 codes into
    :data:`BASIS_NAMES`, outcome columns hold NaN for unmeasured
    quadratures, and ``kept`` is bool. ``table[mask_or_slice]`` and
    ``table + other`` give tables. :meth:`named_columns` gives the rounds.csv
    columns, and iteration gives :data:`RoundRecord` rows of them, built on
    demand, which the benchmark harness and the tests read.
    """

    round_index: np.ndarray
    alpha_x: np.ndarray
    alpha_p: np.ndarray
    dealer_basis: np.ndarray
    basis_a: np.ndarray
    basis_b: np.ndarray
    basis_c: np.ndarray
    x_c: np.ndarray
    p_c: np.ndarray
    x_b: np.ndarray
    p_b: np.ndarray
    x_a: np.ndarray
    p_a: np.ndarray
    kept: np.ndarray

    @classmethod
    def empty(cls, n_rounds: int = 0) -> "RoundTable":
        """A table of n_rounds rounds whose values are not set yet (none by default)."""
        return cls(*(np.empty(n_rounds, dtype=_COLUMN_DTYPES.get(name, float))
                     for name in ROUND_COLUMNS))

    def __len__(self) -> int:
        return self.round_index.shape[0]

    def __getitem__(self, key) -> "RoundTable":
        # a mask becomes indices once, not once per column: numpy takes a mask's rows
        # several times slower than the same rows by index
        if isinstance(key, np.ndarray) and key.dtype == bool and key.shape == (len(self),):
            key = np.flatnonzero(key)
        return RoundTable(*(getattr(self, name)[key] for name in ROUND_COLUMNS))

    def __add__(self, other: "RoundTable") -> "RoundTable":
        if not isinstance(other, RoundTable):
            return NotImplemented
        return RoundTable(
            *(np.concatenate((getattr(self, n), getattr(other, n))) for n in ROUND_COLUMNS)
        )

    def named_columns(self) -> list[np.ndarray]:
        """The columns in :data:`ROUND_COLUMNS` order, with basis names for basis codes."""
        return [np.array(BASIS_NAMES)[getattr(self, name)] if name in BASIS_COLUMNS
                else getattr(self, name) for name in ROUND_COLUMNS]

    def __iter__(self) -> Iterator[RoundRecord]:
        for start in range(0, len(self), _ROW_CHUNK):
            columns = []
            for name, col in zip(ROUND_COLUMNS, self[start : start + _ROW_CHUNK].named_columns()):
                values = col.tolist()
                if name in OUTCOME_COLUMNS:
                    values = [None if v != v else v for v in values]
                columns.append(values)
            yield from map(RoundRecord, *columns)


#: round table columns, in field order (also the rounds.csv order)
ROUND_COLUMNS = tuple(f.name for f in fields(RoundTable))
#: one round of a table as a row, with basis names and None for an unmeasured outcome
RoundRecord = make_dataclass("RoundRecord", ROUND_COLUMNS, namespace={"__module__": __name__},
                             frozen=True, slots=True)


@dataclass(frozen=True, slots=True)
class WitnessResult:
    """Entanglement verification outcome on the witness rounds."""

    mse_x: float | None
    mse_p: float | None
    mse_sum: float | None
    standard_error: float | None
    entangled: bool | None
    n_x: int
    n_p: int
    threshold: float
    status: str

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, slots=True)
class BiasResult:
    """Unbiasedness spot-check on the reserved rounds."""

    mean_error: float | None
    standard_error: float | None
    n_rounds: int
    passed: bool | None
    status: str

    def to_json_dict(self) -> dict:
        return asdict(self)


class ProtocolResult(NamedTuple):
    records: RoundTable
    mse_report: MseReport
    witness: WitnessResult
    bias: BiasResult


def _party_order(coalition: Coalition) -> tuple[int, int, int]:
    """The party (0 = A, 1 = B, 2 = C) of each row of the coalition's factors and triples.

    A pair puts its partner second and its outsider last, so the partner's
    outcome needs no outsider normal. Every order here is its own inverse,
    so it also gives the row of each party.
    """
    return (0, 2, 1) if coalition is Coalition.AC else (0, 1, 2)


def _triple_factors(cov: np.ndarray, order: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of the x block and the p block of a dealer covariance, their
    parties in ``order``: the one rule by which a run, a witness run and a batch turn a
    covariance into the factors they draw through.

    Squeezing, the beamsplitters, loss and noise act on x and p
    separately, so a dealer state has no x-p correlation and its x and
    p triples are independent draws of its Wigner function.
    """
    x, p = estimators.TRIPLE_INDICES
    if np.any(cov[np.ix_(x, p)] != 0.0):
        raise UnsupportedStateError("the dealer covariance correlates x and p quadratures")
    return tuple(np.linalg.cholesky(cov[np.ix_(idx, idx)])
                 for idx in ([quad[j] for j in order] for quad in (x, p)))


def _apply(factor: np.ndarray, z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Outcomes ``factor @ z`` of the first ``z.shape[0]`` rows, before A's displacement.

    ``z`` holds one row of normals per party, so every row read and
    written is contiguous. The factor is lower-triangular, so a row's
    value needs only the normals of the rows before it; computing the
    rows last to first lets ``out`` be ``z`` itself. Each round's
    values are computed element by element, so they do not depend on
    which rounds are drawn with it.
    """
    out = np.empty_like(z) if out is None else out
    for j in reversed(range(z.shape[0])):
        row = factor[j, 0] * z[0]
        for i in range(1, j + 1):
            row += factor[j, i] * z[i]
        out[j] = row
    return out


class _Functionals(NamedTuple):
    """The linear functionals of a round's normals z that the reports take, in one quadrature.

    ``c`` and ``aux`` hold one coefficient per normal, in the factors'
    order (:func:`_party_order`), zero past the rows the estimator reads.
    A round's error is ``c @ z`` with c = w^T L, w = bias_scale (w0 + g0 w1)
    the estimator's weights at the analytic gain g0 and L the quadrature's
    factor. Its gain auxiliary is ``aux @ z``, aux = (-w1)^T L, and its
    calibration residual x_A - sqrt(eta_A) alpha is ``l00 * z[0]``.
    """

    c: np.ndarray
    aux: np.ndarray
    l00: float


def _coefficients(factor: np.ndarray, weights) -> np.ndarray:
    """The coefficients w^T L over the normals of every row of a lower factor L, for weights
    w on its first len(w) rows, each one ``math.fsum`` of its terms: L is lower-triangular,
    so the coefficient of normal i sums over the rows j >= i, and it is zero past len(w)."""
    n = len(weights)
    return np.array([math.fsum(weights[j] * factor[j, i] for j in range(i, n))
                     for i in range(factor.shape[0])])


def _functionals(factor: np.ndarray, coalition: Coalition, quad: int,
                 gains: GainSet) -> _Functionals:
    """The :class:`_Functionals` of one quadrature's factor.

    A's outcome carries sqrt(eta_A) alpha, which its estimate weighs by
    bias_scale w0[A] + g0 w1[A]. Every estimator has w0[A] = 1 and
    w1[A] = 0 (:data:`~cvshare.estimators.WEIGHTS`), and every run's bias
    scale is 1/sqrt(eta_A), so that weight is 1 and the displacement
    cancels from the error: it is c @ z alone, with no alpha to read.
    """
    w0, w1 = estimators.WEIGHTS[coalition, quad]
    parties = _party_order(coalition)[: len(coalition.party_columns)]
    g = gains.gain(coalition)
    return _Functionals(
        _coefficients(factor, [gains.bias_scale * (w0[p] + g * w1[p]) for p in parties]),
        _coefficients(factor, [-w1[p] for p in parties]), float(factor[0, 0]))


class _CoalitionLaws(NamedTuple):
    """A coalition's estimate gains, and per quadrature (x, then p) its factor, parties in
    ``order``, and the :class:`_Functionals` its reads take (:func:`_coalition_laws`)."""

    gains: GainSet
    order: tuple[int, int, int]
    factors: tuple[np.ndarray, np.ndarray]
    functionals: list[_Functionals]


def _coalition_laws(model: ExperimentModel, coalition: Coalition) -> _CoalitionLaws:
    """The laws a run and a batch sample a coalition's reads from, under a model.

    Every error a report reads is a fixed linear functional of the normals
    behind a round's outcomes, so this is the one derivation of them: the
    dealer covariance, its factors (:func:`_triple_factors`), the gains and
    the functionals at those gains. A lone A's dual homodyne adds a unit
    vacuum to each of A's quadratures, so its outcome is one normal of the
    model's variance plus 1, and B's and C's are drawn conditional on it;
    its estimate reads A alone, with no gain, only the 1/sqrt(eta_A) bias
    scale.

    :raises InvalidArgumentError: ``coalition`` is not a :class:`Coalition`.
    """
    if not isinstance(coalition, Coalition):
        raise InvalidArgumentError(f"unknown coalition {coalition!r}")
    cov = dealer_covariances([model.r], model)[0]
    if coalition is Coalition.A_ALONE:
        a = [estimators.X_A, estimators.P_A]
        cov[a, a] += 1.0
        gains = GainSet(g_b=0.0, g_bc=0.0, bias_scale=1.0 / math.sqrt(model.eta_a))
    else:
        gains = estimators.gains_for_model(model, coalition)
    order = _party_order(coalition)
    factors = _triple_factors(cov, order)
    return _CoalitionLaws(gains, order, factors,
                          [_functionals(f, coalition, q, gains) for q, f in enumerate(factors)])


class _Whitened(NamedTuple):
    """Functionals F z of iid standard normals z, as F = lower @ basis.T.

    ``basis`` holds orthonormal columns (one row per normal), so
    y = basis.T @ z is a standard normal vector and F z = lower @ y, with
    ``lower`` lower-triangular: the Cholesky factor of the scale F Fᵀ.
    """

    lower: tuple[tuple[float, ...], ...]
    basis: np.ndarray


def _whiten(rows: list[np.ndarray]) -> _Whitened:
    """Gram-Schmidt of the functionals' coefficient rows, each product one ``math.fsum``
    and each projection taken twice. A row in the span of those before it, such as an
    auxiliary proportional to the error or a zero one, gets a diagonal entry of zero (or
    of rounding size, with a direction that then weighs nothing), so its functional is a
    multiple of the earlier ones."""
    lower = [[0.0] * len(rows) for _ in rows]
    basis = []
    for j, f in enumerate(rows):
        v = [float(x) for x in f]
        for _ in range(2):
            for i, b in enumerate(basis):
                s = math.fsum(x * y for x, y in zip(b, v))
                lower[j][i] += s
                v = [x - s * y for x, y in zip(v, b)]
        norm = math.sqrt(math.fsum(x * x for x in v))
        lower[j][j] = norm
        basis.append([x / norm for x in v] if norm > 0.0 else [0.0] * len(v))
    return _Whitened(tuple(map(tuple, lower)), np.array(basis).T)


def _witness_laws(factors, order: tuple[int, int, int]) -> tuple[np.ndarray, list[_Whitened]]:
    """The witness weights c over (A, B, C) per quadrature, folded once, and the law of
    each quadrature's witness error c·t over the normals of its factor, parties in ``order``.

    The witness weighs A by 1/sqrt(2) and subtracts sqrt(eta_A) alpha/sqrt(2), the mean
    A's outcome carries, so its error is a functional of the three normals, with no alpha."""
    weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    return weights, [_whiten([_coefficients(f, [c[p] for p in order])])
                     for f, c in zip(factors, weights)]


def _bartlett(gamma: tuple[float, ...], normal: float, k: int) -> tuple[tuple[float, ...], ...]:
    """Lower Bartlett factor A of a standard Wishart of k degrees of freedom, A Aᵀ ~ W(I, k):
    sqrt(2 Gamma(k/2)) and sqrt(2 Gamma((k - 1)/2)) on the diagonal and a standard normal
    below it (Anderson, An Introduction to Multivariate Statistical Analysis, 3rd ed.,
    §7.2). k < 2 gives the singular Wishart of k normal vectors, and 1 x 1 a chi-squared."""
    a = math.sqrt(2.0 * gamma[0])
    if len(gamma) == 1:
        return ((a,),)
    return ((a, 0.0), (normal if k > 0 else 0.0, math.sqrt(2.0 * gamma[1])))


def _scatter(lower, bartlett) -> tuple[float, float, float]:
    """(S_00, S_01, S_11) of the scatter T Tᵀ, T = lower @ bartlett, of the functionals
    whose scale has Cholesky factor ``lower``; S_01 and S_11 are 0 for one functional."""
    if len(lower) == 1:
        t00 = lower[0][0] * bartlett[0][0]
        return t00 * t00, 0.0, 0.0
    (l00, _), (l10, l11) = lower
    (a00, _), (a10, a11) = bartlett
    t00, t10, t11 = l00 * a00, l10 * a00 + l11 * a10, l11 * a11
    return t00 * t00, t00 * t10, t10 * t10 + t11 * t11


def _values(lower, y: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The functionals lower @ y of whitened coordinates y (one row per functional)."""
    e = lower[0][0] * y[0]
    if len(lower) == 1:
        return e, None
    return e, lower[1][0] * y[0] + lower[1][1] * y[1]


def _coordinates(z: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """basis.T @ z, one row per basis column and one column per round, from the normals z
    (one row per normal); a normal whose coefficient is zero is not read, and a zero column
    gives zeros. Element by element, without the BLAS, so the records' bytes do not depend
    on its kernel. One column is returned without a copy: the copy raised the peak RSS
    of a --dump-rounds run by about 2 MB."""
    if basis.shape[1] == 1:
        return weighted_sum(z, basis[:, 0])[None]
    return np.stack([weighted_sum(z, b) if b.any() else np.zeros(z.shape[1]) for b in basis.T])


def _shift(z: np.ndarray, basis: np.ndarray, delta: np.ndarray) -> None:
    """Move the normals z (one row per normal) in place by basis @ delta: their coordinates
    along the orthonormal basis columns change by delta and their orthogonal components
    stay."""
    for i, row in enumerate(basis):
        for j in np.flatnonzero(row):
            z[i] += delta[j] if row[j] == 1.0 else row[j] * delta[j]


def _stiefel_shift(free: np.ndarray, bartlett) -> np.ndarray:
    """The change bartlett @ Q - free that takes the rows ``free`` to bartlett @ Q, with Q
    the rows of ``free`` orthonormalised (Gram-Schmidt with a positive diagonal, each
    projection taken twice). For standard normal rows Q is uniform on the Stiefel
    manifold and independent of their scatter, so bartlett @ Q are standard normal rows
    conditioned on their scatter being bartlett @ bartlettᵀ: the whitened form of
    Y (YᵀY)^(-1/2) W^(1/2). One row is scaled, by bartlett / |free|."""
    if len(bartlett) == 1:
        norm = math.sqrt(_dot(free[0], free[0]))
        return (bartlett[0][0] / norm - 1.0) * free if norm > 0.0 else -free
    q = np.empty_like(free)
    for j in range(free.shape[0]):
        v = free[j].copy()
        for _ in range(2):
            for i in range(j):
                v -= _dot(q[i], v) * q[i]
        norm = math.sqrt(_dot(v, v))
        q[j] = v / norm if norm > 0.0 else 0.0
    out = -free
    for j, row in enumerate(bartlett):
        for i in range(j + 1):
            if row[i]:
                out[j] += row[i] * q[i]
    return out


def _displacements(plan: DisplacementPlan, start: int, end: int, carry: list[float],
                   gen: np.random.Generator) -> tuple:
    """The applied displacement of each round of [start, end), x and p.

    Only the records read a displacement (it cancels from every error a
    report reads). A fixed plan's is one scalar per quadrature. A gaussian
    plan's blocks of n_rep rounds share one draw per quadrature: a block
    that began in an earlier chunk was drawn there and its draw is in
    ``carry``, the others are drawn here, x values before p values, and
    the last block's draw becomes the carry of the next chunk.
    """
    if plan.kind == "fixed":
        return plan.alpha_x * plan.scale, plan.alpha_p * plan.scale
    n_rep = plan.n_rep
    carried = start % n_rep != 0
    first = start // n_rep
    n_blocks = (end - 1) // n_rep - first + 1
    values = np.empty((2, n_blocks))
    sd = math.sqrt(plan.v_dist)
    for q in (0, 1):
        draw = gen.standard_normal(n_blocks - carried)
        draw *= sd
        values[q, carried:] = draw
        if carried:
            values[q, 0] = carry[q]
    carry[:] = values[:, -1].tolist()
    if n_rep == 1:
        return values[0], values[1]
    block = np.arange(start, end) // n_rep - first
    return tuple(v[block] * plan.scale for v in values)


def _coin(gen: np.random.Generator, n: int) -> np.ndarray:
    """n fair coins as int8 0 or 1: the bits of ceil(n / 8) random bytes, high bit first."""
    return np.unpackbits(np.frombuffer(gen.bytes(-(-n // 8)), np.uint8), count=n).view(np.int8)


def _split(gen: np.random.Generator, cells: np.ndarray, take: int) -> np.ndarray:
    """How many of a uniformly random subset of the cells' rounds, ``take`` of them or
    every one if fewer, fall in each cell: a multivariate hypergeometric draw."""
    take = min(take, int(cells.sum()))
    if take <= 0:
        return np.zeros_like(cells)
    return gen.multivariate_hypergeometric(cells.ravel(), take).reshape(cells.shape)


def _chunks(stream: RandomStream, n: int) -> Iterator[tuple[int, int, np.random.Generator]]:
    """(start, end, generator) of each chunk of n rounds, chunk i drawing from the
    stream's child i, which opens only when the chunk is asked for."""
    for i, start in enumerate(range(0, n, _CHUNK_ROUNDS)):
        yield start, min(start + _CHUNK_ROUNDS, n), stream.chunk_generator(i)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's own loop, without a temporary. ``a @ b`` would go to
    the BLAS, whose kernel and thread split can change the last bits per host."""
    return float(np.einsum("i,i->", a, b))


#: a round's role, the first index of a chunk's counts: its witness, bias, calibration and
#: estimation rounds, all kept, then the discarded ones
WITNESS, BIAS, CALIB, EST, DISCARDED = range(5)
#: per label (role, dealer basis, pool), the chunk's counts flattened: the dealer basis, whether
#: the round is kept, A's basis (a lone A's is dual homodyne, code 2) and the outsider's basis,
#: the dealer's in the witness pool and the other one outside it (-1 for a discarded round, whose
#: outsider flips a coin of its own)
_LABELS = [(role, d, pool) for role in range(5) for d in (0, 1) for pool in (0, 1)]
_LABEL_ROLE = np.array([role for role, _, _ in _LABELS], dtype=np.int8)
_LABEL_DEALER = np.array([d for _, d, _ in _LABELS], dtype=np.int8)
_LABEL_KEPT = np.array([role != DISCARDED for role, _, _ in _LABELS])
_LABEL_BASIS_A = np.array([d if role != DISCARDED else 1 - d for role, d, _ in _LABELS],
                          dtype=np.int8)
_LABEL_OUTSIDER = np.array([d ^ pool if role != DISCARDED else -1 for role, d, pool in _LABELS],
                           dtype=np.int8)


class _Stats(NamedTuple):
    """The statistics a chunk's reports read, indexed by role (:data:`WITNESS` to
    :data:`EST`) and then by quadrature (x, then p), in the whitened coordinates of the
    role's law (:attr:`_ProtocolRun.laws`).

    The witness and bias rounds' entries hold their coordinates, one row
    per functional and one column per round. The calibration and
    estimation rounds' hold the Bartlett factor of their scatter
    (``calib`` is None unless the gains are fitted).
    """

    witness: tuple[np.ndarray, np.ndarray]
    bias: tuple[np.ndarray, np.ndarray]
    calib: tuple | None
    est: tuple


class _Chunk(NamedTuple):
    """The draws of one chunk of rounds: its counts per label (role, dealer basis, pool; see
    :data:`WITNESS`), the statistics the reports read and, when the records are kept, the
    label of each round (an index into the flattened counts) and the chunk's
    :class:`RoundTable`."""

    counts: np.ndarray
    stats: _Stats
    labels: np.ndarray | None
    table: RoundTable | None

    @property
    def roles(self) -> np.ndarray:
        """The role of each round, :data:`WITNESS` to :data:`DISCARDED`."""
        return _LABEL_ROLE[self.labels]


class _Fit:
    """The sums a fitted run gathers in its one pass over the chunks.

    The calibration rounds give sum(r u) and sum(u u) for the gain, with
    r = x_A - sqrt(eta_A) alpha the calibration residual and u = -(t @ w1)
    the auxiliary combination of the coalition's weights in the read's
    quadrature (:data:`~cvshare.estimators.WEIGHTS`), both linear in the
    round's normals (:class:`_Functionals`), so each chunk adds the
    off-diagonal and the second diagonal entry of their drawn scatter. The
    estimate weighs u by -g in x and in p alike, so one gain fits both
    quadratures. Every other round is estimated with the analytic gain g0,
    and its error is affine in the gain: e(g) = e0 - s u with
    s = (g - g0) bias_scale. So the estimation rounds keep sum(e0 u) and
    sum(u u) per quadrature, entries of their drawn scatter, and the bias
    rounds keep the moments of u and the co-moment of (e0, u), merged chunk
    by chunk with the pairwise update of Chan, Golub and LeVeque. The sums
    are taken about g0, not about g = 0: e0 is already close to the least
    error, so applying the shift cancels nothing large, even at high
    squeezing where A's outcome and u grow as e^r.
    """

    __slots__ = ("coalition", "sum_ru", "sum_uu", "n", "est", "bias_u", "bias_c")

    def __init__(self, coalition: Coalition):
        self.coalition = coalition
        self.sum_ru = self.sum_uu = 0.0
        self.n = 0
        self.est = ([0.0, 0.0], [0.0, 0.0])
        self.bias_u = RunningMoments()
        self.bias_c = 0.0

    def add(self, quad: int, est: tuple[float, float, float], calib: tuple[float, float, float],
            n_calib: int) -> None:
        """Add a quadrature's estimation and calibration scatters (S_00, S_01, S_11)."""
        sums = self.est[quad]
        sums[0] += est[1]
        sums[1] += est[2]
        self.sum_ru += calib[1]
        self.sum_uu += calib[2]
        self.n += n_calib

    def add_bias(self, e: np.ndarray, u: np.ndarray, bias_err: RunningMoments) -> None:
        """Add bias rounds' errors e0 and auxiliaries u; ``bias_err`` holds the moments of
        e0 over the bias rounds added before these."""
        k = e.size
        if k:
            mean_e, mean_u = float(np.mean(e)), float(np.mean(u))
            n = self.bias_u.n
            shift = (mean_e - bias_err.mean) * (mean_u - self.bias_u.mean) * (n * k / (n + k))
            self.bias_c += _dot(e - mean_e, u - mean_u) + shift
            self.bias_u.add(u)

    def apply(self, gains: GainSet, sq_err: tuple[list, list],
              bias_err: RunningMoments) -> GainSet:
        """The fitted gains; moves the sums of squared errors and the bias moments to them."""
        if self.n < 2:
            raise ProtocolFailureError("not enough calibration rounds to fit gains")
        g = estimators.fit_gain_from_sums(self.sum_ru, self.sum_uu, self.n)
        s = (g - gains.gain(self.coalition)) * gains.bias_scale
        for sq, (sum_eu, sum_uu) in zip(sq_err, self.est):
            sq[0] = sq[0] - 2.0 * s * sum_eu + s * s * sum_uu
        bias_err.mean = bias_err.mean - s * self.bias_u.mean
        bias_err.m2 = bias_err.m2 - 2.0 * s * self.bias_c + s * s * self.bias_u.m2
        three = self.coalition is Coalition.ABC
        return GainSet(g_b=0.0 if three else g, g_bc=g if three else 0.0,
                       bias_scale=gains.bias_scale)


def _witness_result(sq_x: RunningMoments, sq_p: RunningMoments) -> WitnessResult:
    """Witness MSE from the squared errors per quadrature; the verdict needs 100 rounds each."""
    n_x, n_p = sq_x.n, sq_p.n
    if n_x < 1 or n_p < 1:
        return WitnessResult(None, None, None, None, None, n_x, n_p, WITNESS_THRESHOLD, "insufficient-rounds")
    split = estimators.RESOURCE_SPLIT_FACTOR
    mse_x = split * sq_x.mean
    mse_p = split * sq_p.mean
    mse_sum = mse_x + mse_p
    if n_x < 2 or n_p < 2:
        return WitnessResult(mse_x, mse_p, mse_sum, None, None, n_x, n_p, WITNESS_THRESHOLD, "insufficient-rounds")
    se = math.hypot(split * sq_x.standard_error(), split * sq_p.standard_error())
    if n_x < WITNESS_MIN_ROUNDS or n_p < WITNESS_MIN_ROUNDS:
        return WitnessResult(mse_x, mse_p, mse_sum, se, None, n_x, n_p, WITNESS_THRESHOLD, "insufficient-rounds")
    entangled = bool(mse_sum < WITNESS_THRESHOLD - 5.0 * se)
    return WitnessResult(mse_x, mse_p, mse_sum, se, entangled, n_x, n_p, WITNESS_THRESHOLD, "ok")


class _ProtocolRun:
    """One protocol run, the owner of its draws and running sums. Constructing it checks
    every input, so each error fires before a chunk stream is opened. Iterating it draws
    each chunk from its own child stream (:meth:`_draw`), adds its statistics to the sums
    and, with ``keep_records``, yields the chunk's rounds as a :class:`RoundTable` of their
    own; ``result()`` then gives the reports. :func:`run_protocol` copies the tables into
    its whole-run table and ``simulate --dump-rounds`` writes them to rounds.csv; a caller
    that drops each table before asking for the next holds at most one chunk's rounds."""

    def __init__(self, model: ExperimentModel, plan: DisplacementPlan, n_rounds: int,
                 coalition: Coalition, policy: ProtocolPolicy, stream: RandomStream,
                 gain_mode: str, keep_records: bool):
        n_rounds = check_scalar("n_rounds", n_rounds, ">= 10", 10, integer=True)
        if keep_records and n_rounds > MAX_RECORD_ROUNDS:
            raise ResourceLimitError(f"n_rounds exceeds the cap of {MAX_RECORD_ROUNDS} for a run "
                                     "that keeps its records")
        if n_rounds > MAX_ROUNDS:
            raise ResourceLimitError(f"n_rounds exceeds the cap of {MAX_ROUNDS}")
        if gain_mode not in ("analytic", "fitted"):
            raise InvalidArgumentError("gain_mode must be 'analytic' or 'fitted'")
        laws = _coalition_laws(model, coalition)
        if model.eta_a < policy.eta_min:
            raise AbortLossError(
                f"declared eta_A={model.eta_a} below policy minimum {policy.eta_min}")
        lone = coalition is Coalition.A_ALONE
        self.gains, self.order, self.factors, self.functionals = laws
        self.plan, self.policy, self.stream = plan, policy, stream
        self.coalition, self.lone, self.n_rounds = coalition, lone, n_rounds
        self.keep_records, self.root_eta = keep_records, math.sqrt(model.eta_a)
        fitted = gain_mode == "fitted" and not lone
        self.fit = _Fit(coalition) if fitted else None
        # per role and quadrature the whitened functionals its rounds read: the witness
        # error (a lone A witnesses nothing, so its law weighs no normal); the error, and
        # its auxiliary in a fitted run, of the bias and estimation rounds; the residual
        # and auxiliary of a fitted run's calibration rounds
        witness = ([_whiten([np.zeros(3)])] * 2 if lone
                   else _witness_laws(self.factors, self.order)[1])
        read = [_whiten([f.c, f.aux] if fitted else [f.c]) for f in self.functionals]
        calib = ([_whiten([np.eye(3)[0] * f.l00, f.aux]) for f in self.functionals] if fitted
                 else None)
        self.laws = (witness, read, calib, read)
        # a round's cell per dealer basis: kept in the witness pool, kept outside it,
        # discarded. A lone A keeps every round and witnesses none; all three keep a
        # round where the shared coin meets the dealer's, and that round is in the pool;
        # a pair's kept round is in it where the outsider's coin meets the dealer's too
        cells = (0.0, 0.5, 0.0) if lone else (0.25, 0.0, 0.25) if coalition is Coalition.ABC \
            else (0.125, 0.125, 0.25)
        self.cells = cells * 2
        # the block draw carried into the next chunk; the witness and bias rounds taken so
        # far, since a chunk takes what is due by its end, round(fraction * end), so the run
        # takes round(fraction * n_rounds) unless its eligible rounds run short; and the
        # estimation rounds seen so far
        self.carry = [0.0, 0.0]
        self.taken_witness = self.taken_bias = self.seen_est = 0
        # per quadrature the sum of the squared errors and their count; the witness and
        # the bias check read a standard error too, so they keep moments
        self.sq_err = ([0.0, 0], [0.0, 0])
        self.sq_witness = (RunningMoments(), RunningMoments())
        self.bias_err = RunningMoments()

    def _counts(self, gen: np.random.Generator, m: int, end: int) -> np.ndarray:
        """The chunk's rounds per label (role, dealer basis, pool), a (5, 2, 2) array."""
        policy = self.policy
        cells = gen.multinomial(m, self.cells).reshape(2, 3)
        counts = np.zeros((5, 2, 2), dtype=np.int64)
        counts[DISCARDED, :, 0] = cells[:, 2]
        kept = cells[:, :2]
        counts[WITNESS, :, 0] = _split(gen, kept[:, 0],
                                       round(policy.witness_fraction * end) - self.taken_witness)
        self.taken_witness += int(counts[WITNESS].sum())
        kept = kept - counts[WITNESS]
        counts[BIAS] = _split(gen, kept, round(policy.bias_fraction * end) - self.taken_bias)
        self.taken_bias += int(counts[BIAS].sum())
        kept = kept - counts[BIAS]
        if self.fit is not None:
            # half of the estimation rounds so far, counted across chunks
            k = int(kept.sum())
            counts[CALIB] = _split(gen, kept, (self.seen_est + k) // 2 - self.seen_est // 2)
            self.seen_est += k
        counts[EST] = kept - counts[CALIB]
        return counts

    def _read(self, counts: np.ndarray) -> np.ndarray:
        """Rounds per role and quadrature whose outcomes in it the reports read, a (4, 2)
        array: the kept rounds of the dealer's basis, or every round twice for a lone A."""
        if self.lone:
            return np.repeat(counts[:EST + 1].sum(axis=(1, 2))[:, None], 2, axis=1)
        return counts[:EST + 1].sum(axis=2)

    def _draw(self, start: int, end: int, gen: np.random.Generator) -> _Chunk:
        """The chunk of rounds [start, end), drawn from its generator, its statistics
        added to the run's sums.

        First come the statistics, the same with and without records: the
        counts per label (one multinomial over the cells, then the witness,
        bias and calibration splits, :meth:`_counts`), one standard gamma
        array (per quadrature, x first, the Bartlett chi-squared entries of
        the estimation rounds and then of the calibration rounds) and one
        standard normal array (Bartlett's normals, then per quadrature the
        bias rounds' whitened coordinates, one row per functional, then the
        witness rounds' one coordinate, x before p in each). A run without
        records draws nothing else. A run with records then draws the rounds
        conditioned on those statistics (:meth:`_records`).
        """
        counts = self._counts(gen, end - start, end)
        read = self._read(counts)
        d = 1 if self.fit is None else 2
        dfs = read[EST].tolist() + ([] if self.fit is None else read[CALIB].tolist())
        gammas = gen.standard_gamma([max(k - j, 0) / 2.0 for k in dfs for j in range(d)]).tolist()
        n_bias, n_witness = read[BIAS].tolist(), read[WITNESS].tolist()
        sizes = [(d - 1) * len(dfs), d * n_bias[0], d * n_bias[1], *n_witness]
        parts = np.split(gen.standard_normal(sum(sizes)), np.cumsum(sizes[:-1]).tolist())
        wisharts = [_bartlett(gammas[d * i : d * i + d], float(parts[0][i]) if d == 2 else 0.0, k)
                    for i, k in enumerate(dfs)]
        coords = [part.reshape(k, -1) for part, k in zip(parts[1:], (d, d, 1, 1))]
        stats = _Stats(tuple(coords[2:]), tuple(coords[:2]), tuple(wisharts[2:]) or None,
                       tuple(wisharts[:2]))
        self._add(read, stats)
        if not self.keep_records:
            return _Chunk(counts, stats, None, None)
        return _Chunk(counts, stats, *self._records(start, end, counts, stats, gen))

    def _add(self, read: np.ndarray, stats: _Stats) -> None:
        """Add a chunk's statistics to the run's sums."""
        for q in (0, 1):
            # the bias rounds read the estimation rounds' law
            lower = self.laws[EST][q].lower
            est = _scatter(lower, stats.est[q])
            sq = self.sq_err[q]
            sq[0] += est[0]
            sq[1] += int(read[EST, q])
            e, u = _values(lower, stats.bias[q])
            if self.fit is not None:
                calib = _scatter(self.laws[CALIB][q].lower, stats.calib[q])
                self.fit.add(q, est, calib, int(read[CALIB, q]))
                self.fit.add_bias(e, u, self.bias_err)
            self.bias_err.add(e)
            e_w, _ = _values(self.laws[WITNESS][q].lower, stats.witness[q])
            self.sq_witness[q].add(e_w * e_w)

    def _records(self, start: int, end: int, counts: np.ndarray, stats: _Stats,
                 gen: np.random.Generator) -> tuple[np.ndarray, RoundTable]:
        """The label of each round of the chunk and its :class:`RoundTable`, drawn after
        and conditioned on the chunk's statistics.

        First comes a uniform random arrangement of the labels over the
        chunk's rounds: the labels laid out in the order of the counts and
        then permuted. Then come the coins of the bases that no label fixes
        (a pair's outsider in its discarded rounds; a lone A's B and C in
        every round), a gaussian plan's blocks (:func:`_displacements`), and
        per quadrature, x first, every round's three normals in the factors'
        order, as (3, m) arrays in the layout's order. Each role's rounds
        read in a quadrature (its witness, bias, calibration and estimation
        rounds, contiguous in the layout) then have their normals moved along
        the span of the role's law (:func:`_shift`) so that they give the
        drawn statistics: the witness and bias rounds' drawn coordinates, and
        for the calibration and estimation rounds coordinates whose scatter
        is the drawn one (:func:`_stiefel_shift`). The components orthogonal
        to the law keep their free draws. ``_apply`` turns the normals
        into outcomes, which the permutation takes to the table's rounds,
        and A's outcome gains sqrt(eta_A) alpha.
        """
        m = end - start
        perm = gen.permutation(m)
        label = np.repeat(np.arange(20, dtype=np.int8), counts.ravel())[perm]
        dealer, kept = _LABEL_DEALER[label], _LABEL_KEPT[label]
        if self.lone:
            basis_a = np.full(m, 2, dtype=np.int8)
            bases = (basis_a, _coin(gen, m), _coin(gen, m))
        else:
            basis_a = _LABEL_BASIS_A[label]
            if self.coalition is Coalition.ABC:
                bases = (basis_a, basis_a, basis_a)
            else:
                outsider = _LABEL_OUTSIDER[label]
                outsider[~kept] = _coin(gen, int(counts[DISCARDED].sum()))
                bases = ((basis_a, basis_a, outsider) if self.coalition is Coalition.AB
                         else (basis_a, outsider, basis_a))
        alphas = _displacements(self.plan, start, end, self.carry, gen)
        outcomes = np.empty((2, 3, m))
        offsets = np.concatenate(([0], np.cumsum(counts.ravel()))).tolist()
        # each quadrature's normals in the layout's order, x first: the (2, 3, m) draw in two
        z = np.empty((3, m))
        for q in (0, 1):
            gen.standard_normal(out=z)
            for role in (WITNESS, BIAS, CALIB, EST):
                # the layout's rounds of this role read in q: those of dealer basis q, or both
                # dealer bases for a lone A
                first = 4 * role + (0 if self.lone else 2 * q)
                rows = slice(offsets[first], offsets[first + (4 if self.lone else 2)])
                if rows.start == rows.stop:
                    continue
                basis, zr, drawn = self.laws[role][q].basis, z[:, rows], stats[role][q]
                free = _coordinates(zr, basis)
                _shift(zr, basis, drawn - free if role < CALIB else _stiefel_shift(free, drawn))
            _apply(self.factors[q], z, out=z)
            out = outcomes[q]
            for j in range(3):
                # the indices are in range, so clipping checks nothing and spares numpy's buffer
                np.take(z[j], perm, out=out[j], mode="clip")
            out[0] += self.root_eta * alphas[q]
            # the x quadrature is unread in p rounds (code 1), the p one in x rounds (code 0)
            for j, basis in enumerate(bases):
                np.putmask(out[self.order[j]], basis == 1 - q, np.nan)
        if self.plan.kind == "fixed":
            alphas = tuple(np.broadcast_to(alpha, m) for alpha in alphas)
        table = RoundTable(
            round_index=np.arange(start, end), alpha_x=alphas[0], alpha_p=alphas[1],
            dealer_basis=dealer, basis_a=bases[0], basis_b=bases[1], basis_c=bases[2], kept=kept,
            **{name: outcomes["xp".index(name[0]), self.order["abc".index(name[2])]]
               for name in OUTCOME_COLUMNS})
        return label, table

    def __iter__(self) -> Iterator[RoundTable]:
        for start, end, gen in _chunks(self.stream, self.n_rounds):
            table = self._draw(start, end, gen).table
            # the chunk's table must not outlive the draw of the next chunk
            if table is not None:
                yield table
                del table

    def result(self) -> tuple[MseReport, WitnessResult, BiasResult]:
        """The reports of the drawn chunks; call it once, after iterating."""
        sq_err, bias_err, gains = self.sq_err, self.bias_err, self.gains
        if self.fit is not None:
            gains = self.fit.apply(gains, sq_err, bias_err)
        (sum_x, n_x), (sum_p, n_p) = sq_err
        if n_x < 2 or n_p < 2:
            raise ProtocolFailureError("fewer than 2 usable rounds per quadrature")
        split = 1.0 if self.lone else estimators.RESOURCE_SPLIT_FACTOR
        mse_x, mse_p = split * (sum_x / n_x), split * (sum_p / n_p)
        mse_report = MseReport(self.coalition, mse_x, mse_p, mse_x + mse_p, n_x, n_p, gains)

        if self.lone:
            # dual-homodyne outcomes carry an extra vacuum unit per quadrature,
            # so they cannot test the bound 4 e^{-2r}, and no round is reserved for it
            witness = WitnessResult(None, None, None, None, None, 0, 0,
                                    WITNESS_THRESHOLD, "not-applicable")
        else:
            witness = _witness_result(*self.sq_witness)

        # a lone A's bias rounds give an x and a p residual each
        n_bias = bias_err.n // 2 if self.lone else bias_err.n
        if bias_err.n < 2:
            bias = BiasResult(None, None, n_bias, None, "insufficient-rounds")
        else:
            mean_err, se = bias_err.mean, bias_err.standard_error()
            bias = BiasResult(mean_err, se, n_bias, bool(abs(mean_err) <= 5.0 * se), "ok")
        return mse_report, witness, bias


def run_protocol(
    model: ExperimentModel,
    plan: DisplacementPlan,
    n_rounds: int,
    coalition: Coalition,
    policy: ProtocolPolicy,
    stream: RandomStream,
    gain_mode: str = "analytic",
    keep_records: bool = True,
) -> ProtocolResult:
    """Run the full protocol and produce the coalition's MSE report.

    :param gain_mode: "analytic" computes gains from the model
        covariance; "fitted" reserves half of the estimation rounds to
        fit the gain by least squares, mirroring an experimental
        calibration, and reports the MSE on the other half. Both modes
        draw every chunk once: a fitted run estimates with the analytic
        gain and moves its sums to the fitted gain at the end (:class:`_Fit`).
    :param keep_records: return every round as a :class:`RoundTable`,
        allocated once and filled from each chunk's table as the chunk
        is drawn; with False the table is empty, memory does not grow
        with n_rounds, and each chunk draws only the statistics its
        reports read (for large runs where only the reports matter). The
        reports are the same either way.
    :raises ResourceLimitError: n_rounds is above :data:`MAX_ROUNDS`, or
        above :data:`MAX_RECORD_ROUNDS` when the records are kept.
    :raises AbortLossError: the declared signal-arm transmissivity is
        below policy.eta_min.
    :raises ProtocolFailureError: fewer than two usable rounds remain
        for either quadrature after sifting and subset removal.
    """
    run = _ProtocolRun(model, plan, n_rounds, coalition, policy, stream, gain_mode, keep_records)
    records = RoundTable.empty(n_rounds if keep_records else 0)
    row = 0
    for table in run:
        for name in ROUND_COLUMNS:
            getattr(records, name)[row : row + len(table)] = getattr(table, name)
        row += len(table)
        # the chunk's table must not outlive the draw of the next chunk
        del table
    return ProtocolResult(records, *run.result())


def sift(records: RoundTable, basis: str) -> RoundTable:
    """Rounds the coalition kept for the given dealer basis."""
    if basis not in ("x", "p"):
        raise InvalidArgumentError("basis must be 'x' or 'p'")
    return records[records.kept & (records.dealer_basis == BASIS_NAMES.index(basis))]


def entanglement_check(witness_records: RoundTable, eta_a: float = 1.0) -> WitnessResult:
    """Witness MSE and entanglement verdict from witness rounds.

    Every party must have homodyned the dealer's basis in every round,
    so dual-homodyne rounds are rejected; at least 100 rounds per
    quadrature are required. The table holds each round's displacement
    before loss, and A's outcome carries sqrt(eta_A) times it, so the
    witness subtracts sqrt(eta_a) alpha/sqrt(2): pass the run's eta_A, in
    [ETA_MIN, 1] as the model takes it, for records of a lossy signal arm.
    """
    root_eta = math.sqrt(check_scalar("eta_a", eta_a, f"in [ETA_MIN = {ETA_MIN:g}, 1]",
                                      ETA_MIN, 1.0))
    t = witness_records
    if len(t) == 0:
        raise InvalidArgumentError("no witness rounds supplied")
    off = np.stack((t.basis_a, t.basis_b, t.basis_c)) != t.dealer_basis
    if off.any():
        i = int(np.argmax(off.any(axis=0)))
        party = "abc"[int(np.argmax(off[:, i]))]
        raise InvalidArgumentError(
            f"round {t.round_index[i]}: basis_{party} differs from the dealer basis "
            f"{BASIS_NAMES[t.dealer_basis[i]]!r}; not a witness round"
        )
    is_x = t.dealer_basis == 0
    n_x, n_p = int(np.sum(is_x)), int(np.sum(~is_x))
    if n_x < WITNESS_MIN_ROUNDS or n_p < WITNESS_MIN_ROUNDS:
        raise InvalidArgumentError(
            f"need >= {WITNESS_MIN_ROUNDS} witness rounds per quadrature, got {n_x}/{n_p}"
        )
    x_minus, p_plus = estimators.witness_estimate(np.stack((t.x_a, t.x_b, t.x_c))[:, is_x],
                                                  np.stack((t.p_a, t.p_b, t.p_c))[:, ~is_x])
    sq = (RunningMoments(), RunningMoments())
    sq[0].add((x_minus - root_eta * t.alpha_x[is_x] / math.sqrt(2.0)) ** 2)
    sq[1].add((p_plus - root_eta * t.alpha_p[~is_x] / math.sqrt(2.0)) ** 2)
    return _witness_result(*sq)


def surrogate_intercept_state(
    model: ExperimentModel, alpha_x: float, alpha_p: float
) -> GaussianState:
    """Dealer state with party A's mode replaced by an independent thermal state.

    Matches A's marginal (variance and mean) but severs all correlations
    with B and C, modeling an intercept-and-resend of the A share. The
    witness MSE on this state sits at or above the separability
    threshold.
    """
    st = build_dealer_state(model, alpha_x, alpha_p)
    cov = st.cov.copy()
    cov[0:4, 4:6] = 0.0
    cov[4:6, 0:4] = 0.0
    return GaussianState(st.n_modes, st.mean, cov)


def witness_verification_run(
    model: ExperimentModel,
    alpha_x: float,
    alpha_p: float,
    n_rounds: int,
    stream: RandomStream,
    surrogate: bool = False,
) -> WitnessResult:
    """Dedicated verification mode: all three parties measure the dealer's basis.

    Every round contributes to the witness statistic for its quadrature.
    With surrogate=True the distributed state is the intercept-and-resend
    stand-in from :func:`surrogate_intercept_state`. Rounds are drawn in
    chunks, each from its own child stream, and reduced to running sums.
    A round's witness error c·t − √η_A·α_q/√2 is linear in its (A, B, C)
    outcomes t ~ N(μ_q, Σ_q), and A's outcome carries √η_A·α_q, so each
    chunk draws its dealer basis coins and then one normal per round, the
    x rounds' first, scaled by the sd of the witness law over the normals
    of Σ_q's factor (:func:`_triple_factors` in (A, B, C) order and
    :func:`_witness_laws`, as a run's witness law) and shifted by
    c·μ_q − √η_A·α_q/√2, which is 0 up to rounding.
    """
    n_rounds = check_scalar("n_rounds", n_rounds, f">= {2 * WITNESS_MIN_ROUNDS}",
                            2 * WITNESS_MIN_ROUNDS, integer=True)
    if n_rounds > MAX_ROUNDS:
        raise ResourceLimitError(f"n_rounds exceeds the cap of {MAX_ROUNDS}")
    # the plan checks the displacement as a run's fixed plan does
    plan = DisplacementPlan.fixed(alpha_x, alpha_p)
    if surrogate:
        st = surrogate_intercept_state(model, plan.alpha_x, plan.alpha_p)
    else:
        st = build_dealer_state(model, plan.alpha_x, plan.alpha_p)
    abc = (0, 1, 2)
    weights, witness = _witness_laws(_triple_factors(st.cov, abc), abc)
    root_eta = math.sqrt(model.eta_a)
    laws = [(law.lower[0][0], float(c @ st.mean[list(idx)]) - root_eta * alpha / math.sqrt(2.0))
            for law, c, idx, alpha in zip(witness, weights, estimators.TRIPLE_INDICES,
                                          (plan.alpha_x, plan.alpha_p))]
    sq = (RunningMoments(), RunningMoments())
    for start, end, gen in _chunks(stream, n_rounds):
        m = end - start
        n_x = m - int(np.count_nonzero(_coin(gen, m)))
        e = gen.standard_normal(m)
        for sq_q, (sd, shift), e_q in zip(sq, laws, (e[:n_x], e[n_x:])):
            e_q *= sd
            e_q += shift
            sq_q.add(e_q * e_q)
    return _witness_result(*sq)


def batch_mse_distribution(
    model: ExperimentModel,
    coalition: Coalition,
    n_probes_per_quadrature: int,
    n_batches: int,
    stream: RandomStream,
) -> np.ndarray:
    """Summed MSE of many independent batches of N probes per quadrature.

    Samples without sifting (bases pre-agreed), estimates with analytic
    gains at zero displacement and returns one summed, resource-split
    MSE per batch, for comparison against the scaled chi-squared law.
    An estimate is linear in the outcomes it reads, so a probe's error
    in quadrature q is normal with variance split·sd_q², with sd_q the
    norm of its coefficients over the normals of a run's factor (the
    diagonal of its :func:`_whiten`), from the laws a run of the same
    coalition takes (:func:`_coalition_laws`, with its vacuum unit for a
    lone A). A batch's sum of its N squared errors in q is then
    split·sd_q²·χ²_N = 2·split·sd_q²·Γ(N/2, 1), so each batch draws one
    standard gamma per quadrature and nothing per probe. Batches are
    drawn in chunks, each from its own child stream: a (2, m) array per
    chunk, x sums then p sums.

    :raises InvalidArgumentError: ``coalition`` is not a :class:`Coalition`.
    """
    n_batches = check_scalar("n_batches", n_batches, ">= 100", 100, integer=True)
    n_probes_per_quadrature = check_scalar("n_probes_per_quadrature", n_probes_per_quadrature,
                                           ">= 1", 1, integer=True)
    if n_batches * n_probes_per_quadrature * 3 > DEFAULT_BATCH_TERM_CAP:
        raise ResourceLimitError(
            f"n_batches * n_probes * modes exceeds the cap of {DEFAULT_BATCH_TERM_CAP}"
        )
    laws = _coalition_laws(model, coalition)
    # dual homodyne reads x_A and p_A of each probe, as in a run; a coalition that reads
    # one quadrature per probe splits its probes between the two
    split = 1.0 if coalition is Coalition.A_ALONE else estimators.RESOURCE_SPLIT_FACTOR
    # 2 split sd_q^2 per quadrature, the scale of a batch's gamma draw
    scale = np.empty((2, 1))
    for q, f in enumerate(laws.functionals):
        sd = _whiten([f.c]).lower[0][0]
        scale[q] = 2.0 * split * sd * sd
    n_probes = n_probes_per_quadrature
    total = np.empty(n_batches)
    for start, end, gen in _chunks(stream, n_batches):
        sums = gen.standard_gamma(n_probes / 2.0, (2, end - start))
        sums *= scale
        np.add(sums[0], sums[1], out=total[start:end])
    return total / n_probes
