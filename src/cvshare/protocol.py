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

A run draws its counts once for the whole run (stream layout 12), from
the first child stream of its :class:`~cvshare.sampler.RandomStream`,
:meth:`~cvshare.sampler.RandomStream.chunk_generator` ``(0)``. A dealer
state has no x-p correlation, so the (A, B, C) triple of each quadrature
is an independent draw of its Wigner function, L z with L the lower
Cholesky factor of its block and z standard normals, one per party, the
parties the estimator reads first (:func:`_party_order`). Every quantity
a report reads from a round is a fixed linear functional of its normals
(:func:`_functionals`): its error c·z at the analytic gain, its gain
auxiliary, its calibration residual and, in a witness round, its witness
error. The displacement cancels from each of them, so no report reads
it. One derivation, the law record (:func:`_coalition_laws`), gives the
factors, gains and resource split of a run and of a batch, and per role
of a run's rounds the whitened law (:class:`_Whitened`) of what they read.

A run draws (:meth:`_ProtocolRun._counts`) the counts of its rounds per
basis cell (one multinomial) and the witness, bias and calibration
subsets (multivariate hypergeometric draws). One function of the
statistics of the rounds read gives the run's reports (:func:`_reports`):
per quadrature the witness and estimation rounds' scatter, 2 x 2 of
(error, auxiliary) and of (residual, auxiliary) in a fitted run, and the
bias rounds' mean and scatter about it, the functionals' own sums. A run
without records draws those statistics from their exact laws role by role
(:meth:`_ProtocolRun._draw`: a Bartlett Wishart per role and quadrature,
:func:`_wishart`, and the bias rounds' means), the same few numbers
whatever its size, and no array of its rounds. A run that keeps its
records simulates its rounds in chunks of ``_CHUNK_ROUNDS``, chunk i
from child stream i (:meth:`_ProtocolRun._records`): the chunk's share
of the counts, a uniform arrangement of them, the bases no count fixes,
a gaussian plan's displacement blocks and every round's normals, free.
Its statistics are its records' own, summed chunk by chunk, so the
reference estimators applied to the records give back its reports, which
have the same law as those of a run without records, not the same value.
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
#: cap on n_batches of a batch distribution run. It draws one gamma per batch and
#: quadrature whatever the probe count, and holds 8 B a batch: 1.6 GB at the cap
DEFAULT_BATCH_TERM_CAP = 200_000_000
#: cap on n_rounds of a run that keeps no records. Such a run draws the same few statistics
#: whatever its size, so neither its memory nor its time grows with n_rounds; the cap keeps
#: every cell of its counts below the 1e9 rounds numpy's hypergeometric draw takes
MAX_ROUNDS = 1_000_000_000
#: cap on n_rounds of a run that keeps its records: it holds run_protocol's round table
#: (61 B a round under a fixed plan, 77 B under a gaussian one) to 1.2-1.5 GB, and the
#: rounds.csv of simulate --dump-rounds (89 B a row for abc under a fixed plan, 139 B for
#: a lone A under a gaussian one) to 1.8-2.8 GB
MAX_RECORD_ROUNDS = 20_000_000
#: random-stream layout of the sampled outputs, recorded in their manifests
STREAM_LAYOUT = 12
#: rounds of a recorded run drawn at a time, each chunk from its own child stream
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
    quadratures, and ``kept`` is bool. A fixed plan's ``alpha_x`` and
    ``alpha_p`` are read-only views of one value (stride 0), and stay so in
    every table taken from them. ``table[key]``, for a mask, a slice, an index
    array or an integer (one row), and ``table + other`` give tables.
    :meth:`named_columns` gives the rounds.csv columns, and iteration gives
    :data:`RoundRecord` rows of them, built on demand, which the benchmark
    harness and the tests read.
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
        if isinstance(key, (int, np.integer)):
            row = range(len(self))[key]
            key = slice(row, row + 1)
        # a mask becomes indices once, not once per column: numpy takes a mask's rows
        # several times slower than the same rows by index
        elif isinstance(key, np.ndarray) and key.dtype == bool and key.shape == (len(self),):
            key = np.flatnonzero(key)
        index = self.round_index[key]
        return RoundTable(index, *(_column((getattr(self, name),), len(index),
                                           lambda col: col[key]) for name in ROUND_COLUMNS[1:]))

    def __add__(self, other: "RoundTable") -> "RoundTable":
        if not isinstance(other, RoundTable):
            return NotImplemented
        n = len(self) + len(other)
        return RoundTable(*(_column((getattr(self, name), getattr(other, name)), n,
                                    lambda *cols: np.concatenate(cols))
                            for name in ROUND_COLUMNS))

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


def _column(cols: tuple, n: int, take) -> np.ndarray:
    """``take(*cols)``, a table's column of n rounds taken from the columns ``cols``,
    except where each of cols that holds a round is a view of one value (stride 0, a
    fixed plan's displacement) and their values have the same bits: then that value as
    a read-only view of n rounds, which holds 8 B, not 8 B a round."""
    held = [col for col in cols if len(col)]
    if held and all(col.strides == (0,) for col in held) and len(
            {col[:1].tobytes() for col in held}) == 1:
        return np.broadcast_to(held[0][0], n)
    return take(*cols)


@dataclass(frozen=True, slots=True)
class WitnessResult:
    """Entanglement verification outcome on the witness rounds: ``standard_error`` is the
    SE of ``mse_sum``, ``null_standard_error`` the one the verdict reads."""

    mse_x: float | None
    mse_p: float | None
    mse_sum: float | None
    standard_error: float | None
    null_standard_error: float | None
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


def _apply(factor: np.ndarray, z: np.ndarray) -> None:
    """The outcomes ``factor @ z`` before A's displacement, written over the normals ``z``.

    ``z`` holds one row of normals per party, so every row read and
    written is contiguous. The factor is lower-triangular, so a row's
    value needs only the normals of the rows before it, and the rows are
    computed last to first. Each round's values are computed element by
    element, so they do not depend on which rounds are drawn with it.
    """
    for j in reversed(range(z.shape[0])):
        row = factor[j, 0] * z[0]
        for i in range(1, j + 1):
            row += factor[j, i] * z[i]
        z[j] = row


def _coefficients(factor: np.ndarray, weights) -> np.ndarray:
    """The coefficients w^T L over the normals of every row of a lower factor L, for weights
    w on its first len(w) rows, each one ``math.fsum`` of its terms: L is lower-triangular,
    so the coefficient of normal i sums over the rows j >= i, and it is zero past len(w)."""
    n = len(weights)
    return np.array([math.fsum(weights[j] * factor[j, i] for j in range(i, n))
                     for i in range(factor.shape[0])])


def _functionals(factor: np.ndarray, coalition: Coalition, quad: int, gains: GainSet,
                 fitted: bool) -> list[np.ndarray]:
    """The coefficient rows, over the normals z of one quadrature's factor L in the
    factors' order (:func:`_party_order`), of what an estimate reads from a round: its error
    c @ z, c = w^T L with w = bias_scale (w0 + g0 w1) the estimator's weights at the
    analytic gain g0, and in a fitted run its gain auxiliary aux @ z, aux = (-w1)^T L. Each
    row is zero past the rows the estimator reads.

    A's outcome carries sqrt(eta_A) alpha, which its estimate weighs by
    bias_scale w0[A] + g0 w1[A]. Every estimator has w0[A] = 1 and
    w1[A] = 0 (:data:`~cvshare.estimators.WEIGHTS`), and every run's bias
    scale is 1/sqrt(eta_A), so that weight is 1 and the displacement
    cancels from the error: it is c @ z alone, with no alpha to read.
    """
    w0, w1 = estimators.WEIGHTS[coalition, quad]
    parties = _party_order(coalition)[: len(coalition.party_columns)]
    g = gains.gain(coalition)
    rows = [_coefficients(factor, [gains.bias_scale * (w0[p] + g * w1[p]) for p in parties])]
    if fitted:
        rows.append(_coefficients(factor, [-w1[p] for p in parties]))
    return rows


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


def _witness_laws(factors, order: tuple[int, int, int]) -> list[_Whitened]:
    """The law of each quadrature's witness error c·t over the normals of its factor,
    parties in ``order``, with c the witness weights over (A, B, C), folded once.

    The witness weighs A by 1/sqrt(2) and subtracts sqrt(eta_A) alpha/sqrt(2), the mean
    A's outcome carries, so its error is a functional of the three normals, with no alpha."""
    weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    return [_whiten([_coefficients(f, [c[p] for p in order])]) for f, c in zip(factors, weights)]


#: a round's role, the first index of a chunk's counts: its witness, bias, calibration and
#: estimation rounds, all kept, then the discarded ones
WITNESS, BIAS, CALIB, EST, DISCARDED = range(5)


class _CoalitionLaws(NamedTuple):
    """The law record of a coalition under a model (:func:`_coalition_laws`).

    Its first four fields are indexed by role, :data:`WITNESS` to
    :data:`EST`: per quadrature (x, then p) the whitened law of what the
    role's rounds read, or None where its caller reads no such round. The
    witness rounds read their witness error; the bias and estimation rounds
    one law, their error at the analytic gain and, in a fitted run, its
    gain auxiliary; a fitted run's calibration rounds read their
    calibration residual x_A - sqrt(eta_A) alpha = l00 z[0] and the
    auxiliary. Then come the coalition, its estimate gains, the resource
    split of its MSE, and per quadrature its factor, parties in ``order``.
    """

    witness: list[_Whitened] | None
    bias: list[_Whitened]
    calib: list[_Whitened] | None
    est: list[_Whitened]
    coalition: Coalition
    gains: GainSet
    split: float
    order: tuple[int, int, int]
    factors: tuple[np.ndarray, np.ndarray]


def _coalition_laws(model: ExperimentModel, coalition: Coalition,
                    gain_mode: str | None = None) -> _CoalitionLaws:
    """The law record a run or a batch samples a coalition's reads from, under a model.

    Every quantity a report reads is a fixed linear functional of the normals
    behind a round's outcomes, so this is the one derivation of them: the
    dealer covariance, its factors (:func:`_triple_factors`), the gains, the
    functionals at those gains (:func:`_functionals`) and their whitened
    laws. A lone A's dual homodyne adds a unit vacuum to each of A's
    quadratures, so its outcome is one normal of the model's variance plus 1,
    and B's and C's are drawn conditional on it; its estimate reads A alone,
    with no gain, only the 1/sqrt(eta_A) bias scale, and reads both
    quadratures of every round, so its MSE takes no resource split. Without
    a ``gain_mode`` (a batch) the record holds the estimation law alone; a
    run's gain mode adds the witness law, which a lone A lacks, and
    "fitted" the auxiliary and the calibration law.

    :raises InvalidArgumentError: ``coalition`` is not a :class:`Coalition`.
    """
    if not isinstance(coalition, Coalition):
        raise InvalidArgumentError(f"unknown coalition {coalition!r}")
    covs = dealer_covariances([model.r], model)
    cov = covs[0]
    lone = coalition is Coalition.A_ALONE
    if lone:
        a = [estimators.X_A, estimators.P_A]
        cov[a, a] += 1.0
        gains = GainSet(g_b=0.0, g_bc=0.0, bias_scale=1.0 / math.sqrt(model.eta_a))
    else:
        gains = estimators._gains(covs, coalition, model.eta_a)
    order = _party_order(coalition)
    factors = _triple_factors(cov, order)
    fitted = gain_mode == "fitted" and not lone
    est, calib = [], []
    for q, factor in enumerate(factors):
        rows = _functionals(factor, coalition, q, gains, fitted)
        est.append(_whiten(rows))
        if fitted:
            calib.append(_whiten([np.eye(3)[0] * factor[0, 0], rows[1]]))
    witness = None if gain_mode is None or lone else _witness_laws(factors, order)
    split = 1.0 if lone else estimators.RESOURCE_SPLIT_FACTOR
    return _CoalitionLaws(witness, est, calib if fitted else None, est, coalition, gains, split,
                          order, factors)


def _bartlett(gamma: tuple[float, ...], normal: float, k: int) -> tuple[tuple[float, ...], ...]:
    """Lower Bartlett factor A of a standard Wishart of k degrees of freedom, A Aᵀ ~ W(I, k):
    sqrt(2 Gamma(k/2)) and sqrt(2 Gamma((k - 1)/2)) on the diagonal and a standard normal
    below it (Anderson, An Introduction to Multivariate Statistical Analysis, 3rd ed.,
    §7.2). k < 2 gives the singular Wishart of k normal vectors, and 1 x 1 a chi-squared."""
    a = math.sqrt(2.0 * gamma[0])
    if len(gamma) == 1:
        return ((a,),)
    return ((a, 0.0), (normal if k > 0 else 0.0, math.sqrt(2.0 * gamma[1])))


def _wishart(gen: np.random.Generator, k: int, d: int) -> tuple[tuple[float, ...], ...]:
    """The Bartlett factor (:func:`_bartlett`) of a d x d standard Wishart of k degrees of
    freedom, drawn from ``gen``: its d chi-squared halves, then its normal when d = 2, each
    one scalar draw (an array draw of the same numbers took 6 us a call, not 0.7)."""
    gamma = [gen.standard_gamma(max(k - j, 0) / 2.0) for j in range(d)]
    return _bartlett(gamma, gen.standard_normal() if d == 2 else 0.0, k)


def _cholesky(s: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """Lower Cholesky factor of a 1 x 1 or 2 x 2 scatter s in :func:`_bartlett`'s form, which
    :func:`_scatter` reads. A zero pivot gives a zero column, and a diagonal entry that
    rounding takes below zero gives zero."""
    a = math.sqrt(max(float(s[0, 0]), 0.0))
    if len(s) == 1:
        return ((a,),)
    b = float(s[1, 0]) / a if a > 0.0 else 0.0
    return ((a, 0.0), (b, math.sqrt(max(float(s[1, 1]) - b * b, 0.0))))


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


def _values(lower, y) -> tuple[float, float | None]:
    """The functionals lower @ y of whitened coordinates y, one per functional."""
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
    every one if fewer, fall in each cell: a multivariate hypergeometric draw.

    It is numpy's ``multivariate_hypergeometric`` by its marginals rule, with
    its numbers: one hypergeometric draw per cell, of what is left of the
    take from what is left of the rounds, the complement's take when the take
    is more than half. numpy's own refuses 1e9 rounds; here a rest of 1e9
    rounds, which only empty cells can leave in a run of at most
    :data:`MAX_ROUNDS`, takes nothing from the empty cell before it.
    """
    colors = cells.ravel().tolist()
    total = sum(colors)
    take = min(take, total)
    half = take > total // 2
    left, rest, out = (total - take if half else take), total, []
    for cell in colors[:-1]:
        rest -= cell
        out.append(int(gen.hypergeometric(cell, rest, left)) if left > 0 and rest < 10**9 else 0)
        left -= out[-1]
    out.append(left)
    if half:
        out = [c - v for c, v in zip(colors, out)]
    return np.array(out, dtype=np.int64).reshape(cells.shape)


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) by numpy's own loop, without a temporary. ``a @ b`` would go to
    the BLAS, whose kernel and thread split can change the last bits per host."""
    return float(np.einsum("i,i->", a, b))


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
    """The statistics a run's reports read, indexed by role (:data:`WITNESS` to :data:`EST`)
    and then by quadrature (x, then p): the functionals' own numbers, which the role's law
    (:attr:`_ProtocolRun.laws`) gives through :func:`_scatter` and :func:`_values`.

    The witness, calibration and estimation rounds' entries hold the
    scatter (S_00, S_01, S_11) of their witness error, of (r, u) or of
    (e, u), 0 for a functional not read. ``calib`` is None unless the gains
    are fitted, and ``witness`` is None for a lone A. The bias rounds'
    entries hold ((e, u), scatter): the means of their error and auxiliary
    (u None unless fitted) and their scatter about them.
    """

    witness: tuple | None
    bias: tuple
    calib: tuple | None
    est: tuple


def _record_stats(laws: _CoalitionLaws, read: np.ndarray, sums: list) -> _Stats:
    """A recorded run's statistics (:class:`_Stats`) from its rounds read ``read`` times per
    role and quadrature and their sums per role and quadrature, (Σy, Σyyᵀ) in the whitened
    coordinates y of the role's law, or None for a role without a law: the scatter of each
    Σyyᵀ through its Cholesky factor (:func:`_cholesky`), and for the bias rounds the
    functionals of the mean ȳ = Σy/k and the scatter about it, Σyyᵀ − Σy ȳᵀ."""
    stats = [None if s is None else [_scatter(law.lower, _cholesky(syy))
                                     for law, (_, syy) in zip(role, s)]
             for role, s in zip(laws[:EST + 1], sums)]
    for q, (law, (sy, syy)) in enumerate(zip(laws.bias, sums[BIAS])):
        mean = sy / max(int(read[BIAS, q]), 1)
        stats[BIAS][q] = (_values(law.lower, mean.tolist()),
                          _scatter(law.lower, _cholesky(syy - np.outer(sy, mean))))
    return _Stats(*stats)


class _Chunk(NamedTuple):
    """One chunk of a recorded run: its counts per label (role, dealer basis, pool; see
    :data:`WITNESS`), the label of each round (an index into the flattened counts) and the
    chunk's :class:`RoundTable`."""

    counts: np.ndarray
    labels: np.ndarray
    table: RoundTable

    @property
    def roles(self) -> np.ndarray:
        """The role of each round, :data:`WITNESS` to :data:`DISCARDED`."""
        return _LABEL_ROLE[self.labels]


def _witness_result(sq_x: tuple[float, int], sq_p: tuple[float, int]) -> WitnessResult:
    """The witness report from each quadrature's (sum of squared errors, rounds). A witness
    error is a centred normal, so mse_q is μ_q·χ²_n/n, of SE μ_q·sqrt(2/n), taken at
    μ_q = mse_q. The verdict needs 100 rounds per quadrature and reads Σe² and n alone:
    entangled when mse_sum < 4 − 5·SE₀, SE₀ = 4·sqrt(2/min(n_x, n_p)) the largest SE over
    the separability boundary μ_x + μ_p = 4 (a sample SE falls with a low sample mean)."""
    (sum_x, n_x), (sum_p, n_p) = sq_x, sq_p
    if n_x < 1 or n_p < 1:
        return WitnessResult(None, None, None, None, None, None, n_x, n_p, WITNESS_THRESHOLD,
                             "insufficient-rounds")
    split = estimators.RESOURCE_SPLIT_FACTOR
    mse_x, mse_p = split * (sum_x / n_x), split * (sum_p / n_p)
    se = math.hypot(mse_x * math.sqrt(2.0 / n_x), mse_p * math.sqrt(2.0 / n_p))
    se0 = WITNESS_THRESHOLD * math.sqrt(2.0 / min(n_x, n_p))
    ok = min(n_x, n_p) >= WITNESS_MIN_ROUNDS
    entangled = bool(mse_x + mse_p < WITNESS_THRESHOLD - 5.0 * se0) if ok else None
    return WitnessResult(mse_x, mse_p, mse_x + mse_p, se, se0, entangled, n_x, n_p,
                         WITNESS_THRESHOLD, "ok" if ok else "insufficient-rounds")


def _reports(laws: _CoalitionLaws, read: np.ndarray,
             stats: _Stats) -> tuple[MseReport, WitnessResult, BiasResult]:
    """A run's reports from the statistics (:class:`_Stats`) of its rounds read ``read`` times
    per role and quadrature (:meth:`_ProtocolRun._read`), drawn from the laws of its record
    (:meth:`_ProtocolRun._draw`) or summed from its records (:func:`_record_stats`): the
    functionals' own numbers, so no law is read here.

    Per quadrature, the estimation and witness rounds give their sum of
    squared errors, the first entry of their scatter, and the bias rounds'
    count, mean and centred scatter merge, x then p, into the moments of
    the pooled residuals (:class:`~cvshare.estimators.RunningMoments`).

    A fitted run estimates at the analytic gain g0, then moves to the gain
    g fitted from its calibration scatters' sum(r u) and sum(u u), with r
    the calibration residual and u the auxiliary, which the estimate
    weighs by -g in x and p alike. A round's error is affine in the gain,
    e(g) = e0 - s u with s = (g - g0) bias_scale, so the sums of squares
    move by their scatters' sum(e0 u) and sum(u u), and the bias moments
    by u's moments and the co-moment of (e0, u), merged by the pairwise
    update of Chan, Golub and LeVeque. Taken about g0, not about g = 0,
    the shift cancels nothing large, even at high squeezing, where A's
    outcome and u grow as e^r.

    A run's counts are checked before its statistics (:meth:`_ProtocolRun._check`).

    :raises DegenerateAuxiliaryError: a fitted run's auxiliary has (near)
        zero variance over the calibration rounds.
    """
    coalition, gains = laws.coalition, laws.gains
    fitted = stats.calib is not None
    bias_err, bias_u = RunningMoments(), RunningMoments()
    sum_ru = sum_uu = bias_c = 0.0
    for q in (0, 1):
        k, ((e, u), scatter) = int(read[BIAS, q]), stats.bias[q]
        if fitted:
            sum_ru += stats.calib[q][1]
            sum_uu += stats.calib[q][2]
            if k:
                # the co-moment of (e0, u) gains the scatter's and the means' shift
                n = bias_u.n
                bias_c += scatter[1] + (e - bias_err.mean) * (u - bias_u.mean) * (n * k / (n + k))
                bias_u.merge(k, u, scatter[2])
        bias_err.merge(k, e, scatter[0])
    sq_err = [est[0] for est in stats.est]
    if fitted:
        g = estimators.fit_gain_from_sums(sum_ru, sum_uu, int(read[CALIB].sum()))
        s = (g - gains.gain(coalition)) * gains.bias_scale
        sq_err = [sq - 2.0 * s * sum_eu + s * s * sum_u2 for sq, sum_eu, sum_u2 in stats.est]
        bias_err.mean = bias_err.mean - s * bias_u.mean
        bias_err.m2 = bias_err.m2 - 2.0 * s * bias_c + s * s * bias_u.m2
        three = coalition is Coalition.ABC
        gains = GainSet(g_b=0.0 if three else g, g_bc=g if three else 0.0,
                        bias_scale=gains.bias_scale)
    n_x, n_p = read[EST].tolist()
    mse_x, mse_p = laws.split * (sq_err[0] / n_x), laws.split * (sq_err[1] / n_p)
    mse_report = MseReport(coalition, mse_x, mse_p, mse_x + mse_p, n_x, n_p, gains)

    if stats.witness is None:
        # a lone A's dual-homodyne outcomes carry an extra vacuum unit per quadrature,
        # so they cannot test the bound 4 e^{-2r}, and no round is reserved for it
        witness = WitnessResult(None, None, None, None, None, None, 0, 0,
                                WITNESS_THRESHOLD, "not-applicable")
    else:
        witness = _witness_result(*zip([s[0] for s in stats.witness], read[WITNESS].tolist()))

    # a lone A's bias rounds give an x and a p residual each
    n_bias = bias_err.n // 2 if coalition is Coalition.A_ALONE else bias_err.n
    if bias_err.n < 2:
        bias = BiasResult(None, None, n_bias, None, "insufficient-rounds")
    else:
        mean_err, se = bias_err.mean, bias_err.standard_error()
        bias = BiasResult(mean_err, se, n_bias, bool(abs(mean_err) <= 5.0 * se), "ok")
    return mse_report, witness, bias


class _ProtocolRun:
    """One protocol run, the owner of its draws. Constructing it checks every input and
    derives the run's law record (:func:`_coalition_laws`), so each error fires before a
    chunk stream is opened. Iterating it draws the run's counts once and checks them
    (:meth:`_check`), so a run too small to report fails before any record. Without
    ``keep_records`` it then draws its statistics (:meth:`_draw`); with them it yields each
    chunk's rounds as a :class:`RoundTable` of their own (:meth:`_records`) and sums their
    statistics, the sums and the carried block being locals of :meth:`_chunks`. Either way
    it ends by setting ``reports`` to the reports its statistics give (:func:`_reports`).
    :func:`run_protocol` copies the tables into its whole-run table and ``simulate
    --dump-rounds`` writes them to rounds.csv; a caller that drops each table before asking
    for the next holds at most one chunk's rounds."""

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
        self.laws = _coalition_laws(model, coalition, gain_mode)
        if model.eta_a < policy.eta_min:
            raise AbortLossError(
                f"declared eta_A={model.eta_a} below policy minimum {policy.eta_min}")
        lone = coalition is Coalition.A_ALONE
        self.plan, self.policy, self.stream = plan, policy, stream
        self.coalition, self.lone, self.n_rounds = coalition, lone, n_rounds
        self.keep_records, self.root_eta = keep_records, math.sqrt(model.eta_a)
        # a round's cell per dealer basis: kept in the witness pool, kept outside it,
        # discarded. A lone A keeps every round and witnesses none; all three keep a
        # round where the shared coin meets the dealer's, and that round is in the pool;
        # a pair's kept round is in it where the outsider's coin meets the dealer's too
        cells = (0.0, 0.5, 0.0) if lone else (0.25, 0.0, 0.25) if coalition is Coalition.ABC \
            else (0.125, 0.125, 0.25)
        self.cells = cells * 2

    def _counts(self, gen: np.random.Generator) -> np.ndarray:
        """The run's rounds per label (role, dealer basis, pool), a (5, 2, 2) array: one
        multinomial over the cells, then uniformly random subsets of the run's rounds, the
        witness rounds (round(witness_fraction * n_rounds) of the pool, or all of it if
        fewer), the bias rounds (likewise of the kept rounds left) and, in a fitted run,
        half of the estimation rounds for calibration."""
        policy, n = self.policy, self.n_rounds
        cells = gen.multinomial(n, self.cells).reshape(2, 3)
        counts = np.zeros((5, 2, 2), dtype=np.int64)
        counts[DISCARDED, :, 0] = cells[:, 2]
        kept = cells[:, :2]
        counts[WITNESS, :, 0] = _split(gen, kept[:, 0], round(policy.witness_fraction * n))
        kept = kept - counts[WITNESS]
        counts[BIAS] = _split(gen, kept, round(policy.bias_fraction * n))
        kept = kept - counts[BIAS]
        if self.laws.calib is not None:
            counts[CALIB] = _split(gen, kept, int(kept.sum()) // 2)
        counts[EST] = kept - counts[CALIB]
        return counts

    def _read(self, counts: np.ndarray) -> np.ndarray:
        """Rounds per role and quadrature whose outcomes in it the reports read, a (4, 2)
        array: the kept rounds of the dealer's basis, or every round twice for a lone A."""
        if self.lone:
            return np.repeat(counts[:EST + 1].sum(axis=(1, 2))[:, None], 2, axis=1)
        return counts[:EST + 1].sum(axis=2)

    def _draw(self, gen: np.random.Generator, read: np.ndarray) -> _Stats:
        """The statistics (:class:`_Stats`) of rounds read ``read`` times per role and
        quadrature (:meth:`_read`), drawn from their exact laws role by role, x before p,
        and each taken through its role's law (:func:`_scatter`, :func:`_values`): the
        estimation rounds' Wishart (:func:`_wishart`), a fitted run's calibration rounds'
        and the witness rounds' (none for a lone A); then the bias rounds' means, one
        normal per functional, as k standard normals have a mean N(0, 1/k), and their
        scatters about them, Wisharts of k - 1 degrees of freedom, independent of the
        means. As many numbers whatever the counts; no bias round (k = 0) adds nothing."""
        laws = self.laws

        def scatters(role: int, lost: int = 0) -> tuple | None:
            # each quadrature's Wishart of k - lost degrees of freedom through the role's law
            return None if laws[role] is None else tuple(
                _scatter(law.lower, _wishart(gen, k - lost, len(law.lower)))
                for law, k in zip(laws[role], read[role].tolist()))

        est, calib, witness = scatters(EST), scatters(CALIB), scatters(WITNESS)
        means = [_values(law.lower, [gen.standard_normal() / math.sqrt(max(k, 1))
                                     for _ in law.lower])
                 for law, k in zip(laws.bias, read[BIAS].tolist())]
        return _Stats(witness, tuple(zip(means, scatters(BIAS, 1))), calib, est)

    def _check(self, read: np.ndarray) -> None:
        """Fail a run whose counts, read ``read`` times per role and quadrature, cannot report.

        :raises ProtocolFailureError: a fitted run has fewer than two
            calibration rounds, or a quadrature fewer than two estimation rounds.
        """
        if self.laws.calib is not None and read[CALIB].sum() < 2:
            raise ProtocolFailureError("not enough calibration rounds to fit gains")
        if read[EST].min() < 2:
            raise ProtocolFailureError("fewer than 2 usable rounds per quadrature")

    def _chunks(self) -> Iterator[_Chunk]:
        """Draw the run's counts from child stream 0 and check them. Without records, draw
        its statistics from stream 0 and take its reports from them. With records, draw its
        chunks, chunk i from child stream i (stream 0 going on), each its share of the counts
        left (:meth:`_records`), then take its reports from their rounds' statistics."""
        gen = self.stream.chunk_generator(0)
        counts = self._counts(gen)
        read = self._read(counts)
        self._check(read)
        if not self.keep_records:
            self.reports = _reports(self.laws, read, self._draw(gen, read))
            return
        # per role and quadrature the read rounds' Σy and Σyyᵀ in their law's whitened
        # coordinates, or None for a role without a law
        sums = [None if laws is None else [[np.zeros(d), np.zeros((d, d))] for d in
                                           (law.basis.shape[1] for law in laws)]
                for laws in self.laws[:EST + 1]]
        # the block draw carried into the next chunk
        carry = [0.0, 0.0]
        for i, start in enumerate(range(0, self.n_rounds, _CHUNK_ROUNDS)):
            if i:
                gen = self.stream.chunk_generator(i)
            yield self._records(start, min(start + _CHUNK_ROUNDS, self.n_rounds), gen,
                                counts, sums, carry)
        self.reports = _reports(self.laws, read, _record_stats(self.laws, read, sums))

    def _records(self, start: int, end: int, gen: np.random.Generator, left: np.ndarray,
                 sums: list, carry: list[float]) -> _Chunk:
        """The chunk of rounds [start, end), drawn free: its counts a share of what is left
        of the run's, ``left``, which it takes in place, its read rounds' statistics added
        into ``sums`` (see :meth:`_chunks`) and its last block's draw left in ``carry``.

        First comes the share: the last chunk takes what is left and draws
        nothing; another takes a uniformly random m of the rounds left, their
        labels a multivariate hypergeometric draw of the counts left. Then
        comes a uniform random arrangement of the labels over the chunk's
        rounds: the labels laid out in the order of the counts and then
        permuted. Then come the coins of the bases that no label fixes (a
        pair's outsider in its discarded rounds; a lone A's B and C in every
        round), a gaussian plan's blocks (:func:`_displacements`), and per
        quadrature, x first, every round's three normals in the factors'
        order, as (3, m) arrays in the layout's order. Each role's rounds read
        in a quadrature (its witness, bias, calibration and estimation rounds,
        contiguous in the layout) add their whitened coordinates y along the
        role's law (:func:`_coordinates`) into its Σy and Σyyᵀ. ``_apply``
        turns the normals into outcomes, which the permutation takes to the
        table's rounds, and A's outcome gains sqrt(eta_A) alpha.
        """
        m = end - start
        counts = left.copy() if end == self.n_rounds else _split(gen, left, m)
        left -= counts
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
        alphas = _displacements(self.plan, start, end, carry, gen)
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
                y = _coordinates(z[:, rows], self.laws[role][q].basis)
                sy, syy = sums[role][q]
                sy += y.sum(axis=1)
                syy += [[_dot(a, b) for b in y] for a in y]
            _apply(self.laws.factors[q], z)
            out = outcomes[q]
            for j in range(3):
                # the indices are in range, so clipping checks nothing and spares numpy's buffer
                np.take(z[j], perm, out=out[j], mode="clip")
            out[0] += self.root_eta * alphas[q]
            # the x quadrature is unread in p rounds (code 1), the p one in x rounds (code 0)
            for j, basis in enumerate(bases):
                np.putmask(out[self.laws.order[j]], basis == 1 - q, np.nan)
        if self.plan.kind == "fixed":
            alphas = tuple(np.broadcast_to(alpha, m) for alpha in alphas)
        table = RoundTable(
            round_index=np.arange(start, end), alpha_x=alphas[0], alpha_p=alphas[1],
            dealer_basis=dealer, basis_a=bases[0], basis_b=bases[1], basis_c=bases[2], kept=kept,
            **{name: outcomes["xp".index(name[0]), self.laws.order["abc".index(name[2])]]
               for name in OUTCOME_COLUMNS})
        return _Chunk(counts, label, table)

    def __iter__(self) -> Iterator[RoundTable]:
        for chunk in self._chunks():
            table = chunk.table
            # the chunk's table must not outlive the draw of the next chunk
            del chunk
            yield table
            del table


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
        calibration, and reports the MSE on the other half. In both modes
        one function of the run's statistics gives the reports
        (:func:`_reports`): a fitted run estimates with the analytic gain
        and moves its sums to the fitted gain.
    :param keep_records: return every round as a :class:`RoundTable`,
        allocated once and filled from each chunk's table as the chunk
        is drawn, and take the reports from those rounds; with False the
        table is empty, and the run draws only the statistics its reports
        read, whose memory and time do not grow with n_rounds (for large
        runs where only the reports matter). The reports are the same in
        law either way, not in value.
    :raises ResourceLimitError: n_rounds is above :data:`MAX_ROUNDS`, or
        above :data:`MAX_RECORD_ROUNDS` when the records are kept.
    :raises AbortLossError: the declared signal-arm transmissivity is
        below policy.eta_min.
    :raises ProtocolFailureError: fewer than two usable rounds remain
        for either quadrature after sifting and subset removal, or fewer
        than two calibration rounds in a fitted run; the run fails before
        it draws any record.
    :raises DegenerateAuxiliaryError: a fitted run's auxiliary has (near)
        zero variance over its calibration rounds; a run that keeps its
        records fails after its last chunk.
    """
    run = _ProtocolRun(model, plan, n_rounds, coalition, policy, stream, gain_mode, keep_records)
    records, row = RoundTable.empty(), 0
    for table in run:
        if not row:
            # a column of one value in the chunk (a fixed plan's displacement, scale
            # included) stays one value in the run's table
            records = RoundTable(*(_column((getattr(table, name),), n_rounds,
                                           lambda col: np.empty(n_rounds, col.dtype))
                                   for name in ROUND_COLUMNS))
        for name in ROUND_COLUMNS:
            column = getattr(records, name)
            if column.flags.writeable:
                column[row : row + len(table)] = getattr(table, name)
        row += len(table)
        # the chunk's table must not outlive the draw of the next chunk
        del table
    return ProtocolResult(records, *run.reports)


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
    del off
    is_x = t.dealer_basis == 0
    n_x = int(np.count_nonzero(is_x))
    n_p = len(t) - n_x
    if n_x < WITNESS_MIN_ROUNDS or n_p < WITNESS_MIN_ROUNDS:
        raise InvalidArgumentError(
            f"need >= {WITNESS_MIN_ROUNDS} witness rounds per quadrature, got {n_x}/{n_p}"
        )
    # one quadrature at a time, so the check holds one quadrature's rounds, not both
    return _witness_result(_witness_sum(0, is_x, (t.x_a, t.x_b, t.x_c), t.alpha_x, root_eta),
                           _witness_sum(1, ~is_x, (t.p_a, t.p_b, t.p_c), t.alpha_p, root_eta))


def _witness_sum(q: int, rounds: np.ndarray, columns: tuple, alpha: np.ndarray,
                 root_eta: float) -> tuple[float, int]:
    """Σe² and the count of the witness errors e of quadrature q over the rounds that the
    mask ``rounds`` selects, from the (A, B, C) outcome ``columns`` and the displacement
    ``alpha``. The rounds are taken from each column into one (3, n) stack: no stack of
    every round is made."""
    triple = np.empty((3, np.count_nonzero(rounds)))
    for j, column in enumerate(columns):
        np.compress(rounds, column, out=triple[j])
    error = estimators.combine(triple, Coalition.ABC, q, estimators._WITNESS_GAINS)
    del triple
    error -= root_eta * alpha[rounds] / math.sqrt(2.0)
    return _dot(error, error), error.size


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
    stand-in from :func:`surrogate_intercept_state`. A round's witness error
    c·t − √η_A·α_q/√2 is linear in its (A, B, C) outcomes t ~ N(μ_q, Σ_q), and
    A's outcome carries √η_A·α_q, so it is N(0, sd_q²) up to rounding, sd_q the
    sd of the witness law over the normals of Σ_q's factor
    (:func:`_triple_factors` in (A, B, C) order and :func:`_witness_laws`, as a
    run's). So the run draws, from child stream 0, its count of x rounds,
    Binomial(n_rounds, 1/2) as the dealer's fair coins give it, and per
    quadrature, x first, its k rounds' sum of squares 2·sd_q²·Γ(k/2), and
    nothing per round.
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
    sds = [law.lower[0][0] for law in _witness_laws(_triple_factors(st.cov, abc), abc)]
    gen = stream.chunk_generator(0)
    n_x = int(gen.binomial(n_rounds, 0.5))
    ks = (n_x, n_rounds - n_x)
    return _witness_result(*((2.0 * sd * sd * g, k) for sd, k, g in
                             zip(sds, ks, gen.standard_gamma([k / 2.0 for k in ks]).tolist())))


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
    in quadrature q is normal with variance split·sd_q², with split the
    coalition's resource split and sd_q the scale of the estimation law
    of its law record (:func:`_coalition_laws`, the record a run of the
    same coalition reads, with its vacuum unit for a lone A). A batch's
    sum of its N squared errors in q is then
    split·sd_q²·χ²_N = 2·split·sd_q²·Γ(N/2, 1), so each batch draws one
    standard gamma per quadrature and nothing per probe. Batches are
    drawn in chunks, each from its own child stream: a (2, m) array per
    chunk, x sums then p sums. The call holds 8 B a batch and one chunk,
    whatever N is.

    :raises InvalidArgumentError: ``coalition`` is not a :class:`Coalition`.
    :raises ResourceLimitError: n_batches is above
        :data:`DEFAULT_BATCH_TERM_CAP`, or n_probes_per_quadrature above
        :data:`MAX_ROUNDS`.
    """
    n_batches = check_scalar("n_batches", n_batches, ">= 100", 100, integer=True)
    n_probes = check_scalar("n_probes_per_quadrature", n_probes_per_quadrature, ">= 1", 1,
                            integer=True)
    if n_batches > DEFAULT_BATCH_TERM_CAP:
        raise ResourceLimitError(f"n_batches exceeds the cap of {DEFAULT_BATCH_TERM_CAP}")
    if n_probes > MAX_ROUNDS:
        raise ResourceLimitError(f"n_probes_per_quadrature exceeds the cap of {MAX_ROUNDS}")
    laws = _coalition_laws(model, coalition)
    # 2 split sd_q^2 per quadrature, the scale of a batch's gamma draw
    scale = np.array([[2.0 * laws.split * law.lower[0][0] * law.lower[0][0]] for law in laws.est])
    total = np.empty(n_batches)
    for i, start in enumerate(range(0, n_batches, _CHUNK_ROUNDS)):
        end = min(start + _CHUNK_ROUNDS, n_batches)
        sums = stream.chunk_generator(i).standard_gamma(n_probes / 2.0, (2, end - start))
        sums *= scale
        np.add(sums[0], sums[1], out=total[start:end])
    total /= n_probes
    return total
