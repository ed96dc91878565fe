"""Full protocol rounds: displacements, basis choices, measurement, sifting and verification.

Per round the dealer draws a displacement and a basis; every party
measures a basis of its own (coalition members coordinate on one shared
coin per round, outsiders flip independent coins, and a lone party A
runs dual-homodyne so both quadratures are read every round). Rounds
whose coalition basis disagrees with the dealer's are discarded by
sifting. A random subset of the rounds in which all three parties
happened to match the dealer's basis is reserved for entanglement
verification, and a further random subset of the kept rounds feeds an
unbiasedness spot-check; the remainder produces the coalition's MSE
report.

Rounds are drawn and reduced in chunks of ``_CHUNK_ROUNDS`` (stream
layout 5). Chunk i draws from its own SFC64 child stream,
:meth:`~cvshare.sampler.RandomStream.chunk_generator`, only the normals
the reports read, in this order: the dealer's basis and the parties'
bases (each basis a coin per round, taken from random bytes), the
witness, bias and calibration subsets, a gaussian plan's displacement
blocks that hold a kept round or run past the chunk's end, and then the
reads' normals. A dealer state has no x-p correlation, so the (A, B, C)
triple of each quadrature is an independent draw of its Wigner function,
drawn party-major through the lower Cholesky factor of its block: one
row of normals per party, the parties the estimator reads first. One
rule serves every coalition: a read round draws the first ``n_read``
rows of its quadrature's factor, the number of parties the estimator
reads (3 for all three, 2 for a pair, 1 for a lone A, whose factors
carry the unit vacuum of dual homodyne and who reads both quadratures
of every round), and a witness round then draws the remaining
3 - n_read rows. A kept round reads the dealer's basis (calibration
rounds first, x rounds before p rounds), a discarded round draws
nothing. With lower-triangular factors a normal drawn later is a draw
conditional on those before it, so every law stays exact. A run that
keeps its records then draws the blocks and normals still missing, so
that every party's outcome is its basis's entry of a full Wigner
sample, and hands out the chunk's rounds as a :class:`RoundTable` of
their own. Reports come from running sums over the chunks, so only
:func:`run_protocol` with records, which copies each chunk's table into
one whole-run table, holds anything per round.
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
from .estimators import Coalition, GainSet, MseReport, RunningMoments
from .gaussian_core import (
    ALPHA_MAX,
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
#: cap on n_batches * n_probes * modes of a batch distribution run
DEFAULT_BATCH_TERM_CAP = 200_000_000
#: cap on n_rounds of a run that keeps no records; memory is bounded by the
#: chunk, so the cap only bounds the run time
MAX_ROUNDS = 1_000_000_000
#: cap on n_rounds of a run that keeps its records: it holds run_protocol's round table
#: (77 B a round) to about 1.5 GB, and the rounds.csv of simulate --dump-rounds (89 B a
#: row for abc under a fixed plan, 139 B for a lone A under a gaussian one) to 1.8-2.8 GB
MAX_RECORD_ROUNDS = 20_000_000
#: random-stream layout of the sampled outputs, recorded in their manifests
STREAM_LAYOUT = 5
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
    """Abort and verification policy knobs."""

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


def _columns(triple: np.ndarray, order: tuple[int, int, int]) -> list:
    """The (A, B, C) columns of a triple whose rows follow ``order``, None for a party
    it holds no row of; the estimators read only the columns they weigh."""
    columns = [None, None, None]
    for party, row in zip(order, triple):
        columns[party] = row
    return columns


def _triple_factors(cov: np.ndarray, order: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of the x block and the p block of a dealer covariance, their
    parties in ``order``.

    Squeezing, the beamsplitters, loss and noise act on x and p
    separately, so a dealer state has no x-p correlation and its x and
    p triples are independent draws of its Wigner function.
    """
    x, p = estimators.TRIPLE_INDICES
    if np.any(cov[np.ix_(x, p)] != 0.0):
        raise UnsupportedStateError("the dealer covariance correlates x and p quadratures")
    return tuple(np.linalg.cholesky(cov[np.ix_(idx, idx)])
                 for idx in ([quad[j] for j in order] for quad in (x, p)))


def _apply(
    factor: np.ndarray, z: np.ndarray, shift_a: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Outcomes ``factor @ z`` of the first ``z.shape[0]`` rows, plus ``shift_a`` on A.

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
    out[0] += shift_a
    return out


class _Reads(NamedTuple):
    """Rounds of a chunk whose outcomes in quadrature ``quad`` (0 = x, 1 = p) the reports read.

    ``triple`` holds their outcomes in that quadrature, with A's
    displacement added, one row for each of the ``n_read`` parties the
    estimator reads: the first rows of the factors' order
    (:func:`_party_order`). ``rows`` indexes the rounds in the chunk and
    ``truth`` is the displacement each estimates. ``witness`` and
    ``bias`` mark the read's witness and bias rounds.
    """

    quad: int
    rows: np.ndarray
    triple: np.ndarray
    truth: np.ndarray
    witness: np.ndarray
    bias: np.ndarray


class _Chunk(NamedTuple):
    """The draws of one chunk of rounds.

    The subset masks run over every round of the chunk and carry their
    table names; ``calib`` selects no round unless the gains are fitted.
    ``calibration`` holds the calibration rounds per quadrature when the
    gains are fitted and ``reads`` the other rounds the reports read: per
    quadrature the kept rounds whose A reads it, so every round twice for
    a lone A. ``witnessed`` holds per quadrature the witness rounds' (A,
    B, C) outcomes, one row per party, their displacements, their rows in
    the chunk and the normals they drew after the reads' (no rounds for a
    lone A). ``table`` holds the chunk's rounds only when the records are
    kept.
    """

    dealer_basis: np.ndarray
    kept: np.ndarray
    witness: np.ndarray
    bias: np.ndarray
    calib: np.ndarray
    calibration: tuple[_Reads, ...]
    reads: tuple[_Reads, ...]
    witnessed: tuple[tuple[np.ndarray, np.ndarray], ...]
    table: RoundTable | None


class _Blocks:
    """A gaussian plan's displacement blocks over the rounds [start, end) of one chunk.

    A block of n_rep rounds shares one draw per quadrature. A block that
    began in an earlier chunk was drawn there and its draw is carried in;
    :meth:`draw` draws, x values before p values, the blocks a mask
    selects among those not drawn yet, so a chunk need not hold whole
    blocks and need not draw the blocks no kept round reads.
    """

    def __init__(self, plan: DisplacementPlan, start: int, end: int,
                 carry: list[float]):
        self.plan = plan
        n_rep = plan.n_rep
        # block of each round, counted from the first block the chunk touches
        self.block = None if n_rep == 1 else np.arange(start, end) // n_rep - start // n_rep
        n_blocks = end - start if n_rep == 1 else int(self.block[-1]) + 1
        self.values = np.full((2, n_blocks), np.nan)
        self.todo = np.ones(n_blocks, dtype=bool)
        self.runs_on = end % n_rep != 0
        if start % n_rep:
            self.values[:, 0] = carry
            self.todo[0] = False

    def draw(self, gen: np.random.Generator, kept: np.ndarray | None = None) -> None:
        """Draw the blocks not drawn yet; given ``kept``, only those that hold a kept round
        or run past the chunk's end, whose draw the next chunk carries on."""
        todo = self.todo
        if kept is not None and self.block is None:
            todo = todo & kept
        elif kept is not None:
            due = np.zeros_like(todo)
            due[self.block[kept]] = True
            due[-1] |= self.runs_on
            todo = todo & due
        idx = np.flatnonzero(todo)
        sd = math.sqrt(self.plan.v_dist)
        for values in self.values:
            values[idx] = sd * gen.standard_normal(idx.size)
        self.todo &= ~todo

    def alphas(self) -> tuple[np.ndarray, np.ndarray]:
        """Applied displacement of each round, x and p; NaN in a block not drawn yet."""
        if self.block is None:
            return self.values[0], self.values[1]
        return tuple(values[self.block] * self.plan.scale for values in self.values)


def _coin(gen: np.random.Generator, n: int) -> np.ndarray:
    """n fair coins as int8 0 or 1: the bits of ceil(n / 8) random bytes, high bit first."""
    return np.unpackbits(np.frombuffer(gen.bytes(-(-n // 8)), np.uint8), count=n).view(np.int8)


def _party_bases(
    coalition: Coalition, n: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis code per party (a, b, c) and round: 0 = x, 1 = p, 2 = dual-homodyne."""
    if coalition is Coalition.A_ALONE:
        return np.full(n, 2, dtype=np.int8), _coin(gen, n), _coin(gen, n)
    shared = _coin(gen, n)
    if coalition is Coalition.AB:
        return shared, shared, _coin(gen, n)
    if coalition is Coalition.AC:
        return shared, _coin(gen, n), shared
    return shared, shared, shared


def _pick(eligible: np.ndarray, take: int, gen: np.random.Generator) -> np.ndarray:
    """Mask of a random subset of the eligible rounds, at most ``take`` of them."""
    idx = np.flatnonzero(eligible)
    take = min(take, idx.size)
    mask = np.zeros(eligible.shape[0], dtype=bool)
    if take > 0:
        mask[gen.choice(idx, take, replace=False, shuffle=False)] = True
    return mask


def _chunks(stream: RandomStream, n: int) -> Iterator[tuple[int, int, np.random.Generator]]:
    """(start, end, generator) of each chunk of n rounds, chunk i drawing from the
    stream's child i, which opens only when the chunk is asked for."""
    for i, start in enumerate(range(0, n, _CHUNK_ROUNDS)):
        yield start, min(start + _CHUNK_ROUNDS, n), stream.chunk_generator(i)


class _Fit:
    """The sums a fitted run gathers in its one pass over the chunks.

    The calibration rounds give sum(r u) and sum(u u) for the gain, with
    r = x_A - sqrt(eta_A) alpha and u = -(t @ w1), the auxiliary
    combination of the coalition's weights in the read's quadrature
    (:data:`~cvshare.estimators.WEIGHTS`). The estimate weighs u by -g
    in x and in p alike, so one gain fits both quadratures. Every other
    round is estimated with the analytic gain g0, and its error is affine in the gain:
    e(g) = e0 - s u with s = (g - g0) bias_scale. So the estimation
    rounds keep sum(e0 u) and sum(u u) per quadrature, and the bias
    rounds keep the moments of u and the co-moment of (e0, u), merged
    chunk by chunk with the pairwise update of Chan, Golub and LeVeque.
    The sums are taken about g0, not about g = 0: e0 is already close to
    the least error, so applying the shift cancels nothing large, even
    at high squeezing where A's outcome and u grow as e^r.
    """

    __slots__ = ("coalition", "order", "root_eta", "sum_ru", "sum_uu", "n", "est", "bias_u",
                 "bias_c")

    def __init__(self, coalition: Coalition, root_eta: float):
        self.coalition, self.order = coalition, _party_order(coalition)
        self.root_eta = root_eta
        self.sum_ru = self.sum_uu = 0.0
        self.n = 0
        self.est = ([0.0, 0.0], [0.0, 0.0])
        self.bias_u = RunningMoments()
        self.bias_c = 0.0

    def _aux(self, read: _Reads) -> np.ndarray:
        # weighing by -w1 leaves a pair's x auxiliary the partner's column itself, as the
        # gain fit always read it, so the dot products below keep their bits
        w1 = estimators.WEIGHTS[self.coalition, read.quad][1]
        return estimators.weighted_sum(_columns(read.triple, self.order), -w1)

    def calibrate(self, c: _Reads) -> None:
        r = c.triple[0] - self.root_eta * c.truth
        u = self._aux(c)
        self.sum_ru += float(r @ u)
        self.sum_uu += float(u @ u)
        self.n += r.size

    def add(self, read: _Reads, e: np.ndarray, e_bias: np.ndarray,
            bias_err: RunningMoments) -> None:
        """Add a read's errors e0, of which ``e_bias`` are those of its bias rounds.
        ``bias_err`` holds the moments of e0 over the bias rounds of the reads
        before this one."""
        u = self._aux(read)
        # the estimation rounds are the read's rounds but its few witness and bias ones
        out = np.flatnonzero(read.witness | read.bias)
        e_out, u_out = e[out], u[out]
        sums = self.est[read.quad]
        sums[0] += float(e @ u) - float(e_out @ u_out)
        sums[1] += float(u @ u) - float(u_out @ u_out)
        k = e_bias.size
        if k:
            u = u_out[read.bias[out]]
            mean_e, mean_u = float(np.mean(e_bias)), float(np.mean(u))
            n = self.bias_u.n
            shift = (mean_e - bias_err.mean) * (mean_u - self.bias_u.mean) * (n * k / (n + k))
            self.bias_c += float((e_bias - mean_e) @ (u - mean_u)) + shift
            self.bias_u.add(u)

    def apply(self, gains: GainSet, sq_err: tuple[RunningMoments, RunningMoments],
              bias_err: RunningMoments) -> GainSet:
        """The fitted gains; moves the squared errors' means and the bias moments to them."""
        if self.n < 2:
            raise ProtocolFailureError("not enough calibration rounds to fit gains")
        g = estimators.fit_gain_from_sums(self.sum_ru, self.sum_uu, self.n)
        s = (g - gains.gain(self.coalition)) * gains.bias_scale
        for sq, (sum_eu, sum_uu) in zip(sq_err, self.est):
            if sq.n:
                sq.mean = sq.mean - 2.0 * s * (sum_eu / sq.n) + s * s * (sum_uu / sq.n)
        bias_err.mean = bias_err.mean - s * self.bias_u.mean
        bias_err.m2 = bias_err.m2 - 2.0 * s * self.bias_c + s * s * self.bias_u.m2
        three = self.coalition is Coalition.ABC
        return GainSet(g_b=0.0 if three else g, g_bc=g if three else 0.0,
                       bias_scale=gains.bias_scale)


def _add_witness(
    sq: tuple[RunningMoments, RunningMoments],
    triple_x: np.ndarray,
    triple_p: np.ndarray,
    alpha_x: np.ndarray,
    alpha_p: np.ndarray,
) -> None:
    """Add the squared witness errors of x rounds' and p rounds' (A, B, C) triples, one
    row per party."""
    x_minus, p_plus = estimators.witness_estimate(triple_x, triple_p)
    sq[0].add((x_minus - alpha_x / math.sqrt(2.0)) ** 2)
    sq[1].add((p_plus - alpha_p / math.sqrt(2.0)) ** 2)


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
    each chunk from its own child stream (:meth:`_draw`), adds it to the sums and, with
    ``keep_records``, yields the chunk's rounds as a :class:`RoundTable` of their own;
    ``result()`` then gives the reports. :func:`run_protocol` copies the tables into its
    whole-run table and ``simulate --dump-rounds`` writes them to rounds.csv; a caller
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
        if not isinstance(coalition, Coalition):
            raise InvalidArgumentError(f"unknown coalition {coalition!r}")
        if model.eta_a < policy.eta_min:
            raise AbortLossError(
                f"declared eta_A={model.eta_a} below policy minimum {policy.eta_min}")
        lone = coalition is Coalition.A_ALONE
        root_eta = math.sqrt(model.eta_a)
        cov = dealer_covariances([model.r], model)[0]
        if lone:
            # dual homodyne adds a unit vacuum to each of A's quadratures, so A's outcome
            # is one normal of the model's variance plus 1, and B's and C's are drawn
            # conditional on it
            a = [estimators.X_A, estimators.P_A]
            cov[a, a] += 1.0
            self.gains = GainSet(g_b=0.0, g_bc=0.0, bias_scale=1.0 / root_eta)
        else:
            self.gains = estimators.gains_for_model(model, coalition)
        self.plan, self.policy, self.stream = plan, policy, stream
        self.coalition, self.lone, self.n_rounds = coalition, lone, n_rounds
        self.keep_records, self.root_eta = keep_records, root_eta
        self.order = _party_order(coalition)
        # the parties the estimator reads, which the order puts first
        self.n_read = len(coalition.party_columns)
        self.factors = _triple_factors(cov, self.order)
        self.fit = _Fit(coalition, root_eta) if gain_mode == "fitted" and not lone else None
        # the block draw carried into the next chunk; the witness and bias rounds taken so
        # far, since a chunk takes what is due by its end, round(fraction * end), so the run
        # takes round(fraction * n_rounds) unless its eligible rounds run short; and the
        # estimation rounds seen so far
        self.carry = [0.0, 0.0]
        self.taken_witness = self.taken_bias = self.seen_est = 0
        self.sq_err, self.sq_witness = [(RunningMoments(), RunningMoments()) for _ in range(2)]
        self.bias_err, self.n_witness = RunningMoments(), [0, 0]

    def _draw(self, start: int, end: int, gen: np.random.Generator) -> _Chunk:
        """The chunk of rounds [start, end), drawn from its generator.

        After the coins and the subsets come a gaussian plan's blocks
        that hold a kept round or run past the chunk's end, and then only
        the normals the reports read, party-major through the factors
        (:func:`_party_order`). A read needs the first ``n_read`` rows of
        its quadrature's factor: 3 for all three, 2 for a pair (A and the
        partner) and 1 for a lone A, whose factors carry the unit vacuum
        of dual homodyne and who reads every round in both quadratures.
        The read rounds draw one (n_read, k) array, calibration rounds
        first and x rounds before p rounds in each group. Each witness
        round then draws its remaining 3 - n_read rows, one
        (3 - n_read, w) array with x rounds first; a lone A's rounds
        witness nothing. With ``keep_records`` the blocks still missing
        are drawn afterwards, then per quadrature, x first, the normals
        still missing: the remaining rows of its other read rounds, then
        every row of the rounds it did not read. They fill one (2, 3, m)
        array of every round's x and p triples, whose rows are the
        table's outcome columns.
        """
        factors, policy, plan, n_read = self.factors, self.policy, self.plan, self.n_read
        m = end - start
        dealer = _coin(gen, m)
        bases = _party_bases(self.coalition, m, gen)
        basis_a, basis_b, basis_c = bases
        # A reads quadrature q where its basis is not the other one, so dual homodyne reads
        # both; a round is kept where A reads the dealer's basis
        on = (basis_a != 1, basis_a != 0)
        kept = basis_a != 1 - dealer
        pool = kept & (basis_b == dealer) & (basis_c == dealer)
        witness = _pick(pool, round(policy.witness_fraction * end) - self.taken_witness, gen)
        self.taken_witness += int(np.count_nonzero(witness))
        eligible = kept & ~witness
        bias = _pick(eligible, round(policy.bias_fraction * end) - self.taken_bias, gen)
        self.taken_bias += int(np.count_nonzero(bias))
        calib = np.zeros(m, dtype=bool)
        if self.fit is not None:
            # half of the estimation rounds so far, counted across chunks
            est = eligible & ~bias
            k = int(np.count_nonzero(est))
            calib = _pick(est, (self.seen_est + k) // 2 - self.seen_est // 2, gen)
            self.seen_est += k
        if plan.kind == "fixed":
            blocks = None
            alphas = (np.broadcast_to(plan.alpha_x * plan.scale, m),
                      np.broadcast_to(plan.alpha_p * plan.scale, m))
        else:
            blocks = _Blocks(plan, start, end, self.carry)
            blocks.draw(gen, kept)
            # the last block's draw, which the next chunk carries on when the block runs on
            self.carry = blocks.values[:, -1].tolist()
            alphas = blocks.alphas()
        # the read rows of each kept round: calibration rounds first, x before p in each part
        parts = (kept,) if self.fit is None else (calib, kept & ~calib)
        rows = [np.flatnonzero(part & on[q]) for part in parts for q in (0, 1)]
        sizes = [r.size for r in rows]
        z = gen.standard_normal((n_read, sum(sizes)))
        groups = list(zip((0, 1) * len(parts), rows, np.split(z, np.cumsum(sizes)[:-1], axis=1)))
        reads = []
        for q, r, z_r in groups:
            truth = alphas[q][r]
            # the displacement reaches A through its loss channel
            reads.append(_Reads(q, r, _apply(factors[q], z_r, self.root_eta * truth), truth,
                                witness[r], bias[r]))
        n_calib = len(reads) - 2
        picks = [np.flatnonzero(read.witness) for read in reads[n_calib:]]
        if self.lone:
            # dual-homodyne outcomes carry a vacuum unit, so they cannot witness
            picks = [w[:0] for w in picks]
        # each witness round draws the rows its read left, x rounds first; per quadrature
        # the witness rounds' (A, B, C) outcomes, displacements, rows and those normals
        z_rest = gen.standard_normal((3 - n_read, picks[0].size + picks[1].size))
        witnessed = []
        for read, w, (_, _, z_r), z_o in zip(reads[n_calib:], picks, groups[n_calib:],
                                             np.split(z_rest, [picks[0].size], axis=1)):
            truth = read.truth[w]
            triple = _apply(factors[read.quad], np.concatenate((z_r[:, w], z_o)),
                            self.root_eta * truth)
            witnessed.append((triple[list(self.order)], truth, read.rows[w], z_o))
        table = None
        if self.keep_records:
            if blocks is not None:
                blocks.draw(gen)
                alphas = blocks.alphas()
            # every round's x and p normals, one row per party in the factors' order,
            # turned into outcomes in place
            normals = np.empty((2, 3, m))
            for q, r, z_r in groups:
                normals[q][:n_read, r] = z_r
            for q in (0, 1):
                z_q, (_, _, done, z_o) = normals[q], witnessed[q]
                z_q[n_read:, done] = z_o
                # the remaining rows of the other read rounds, then every row of the rest
                read = kept & on[q]
                rest = read.copy()
                rest[done] = False
                r = np.flatnonzero(rest)
                z_q[n_read:, r] = gen.standard_normal((3 - n_read, r.size))
                r = np.flatnonzero(~read)
                z_q[:, r] = gen.standard_normal((3, r.size))
                _apply(factors[q], z_q, self.root_eta * alphas[q], out=z_q)
                # the x quadrature is unread in p rounds (code 1), the p one in x rounds (code 0)
                for j, basis in enumerate(bases):
                    z_q[self.order[j]][basis == 1 - q] = np.nan
            table = RoundTable(
                round_index=np.arange(start, end), alpha_x=alphas[0], alpha_p=alphas[1],
                dealer_basis=dealer, basis_a=basis_a, basis_b=basis_b, basis_c=basis_c, kept=kept,
                **{name: normals["xp".index(name[0]), self.order["abc".index(name[2])]]
                   for name in OUTCOME_COLUMNS})
        return _Chunk(dealer, kept, witness, bias, calib, tuple(reads[:n_calib]),
                      tuple(reads[n_calib:]), tuple(witnessed), table)

    def __iter__(self) -> Iterator[RoundTable]:
        for start, end, gen in _chunks(self.stream, self.n_rounds):
            ch = self._draw(start, end, gen)
            if self.fit is not None:
                for r in ch.calibration:
                    self.fit.calibrate(r)
            for r in ch.reads:
                # estimate minus truth on every read round
                e = estimators.combine(_columns(r.triple, self.order), self.coalition, r.quad,
                                       self.gains) - r.truth
                e_est = e[~(r.witness | r.bias)]
                self.sq_err[r.quad].add(e_est * e_est)
                e_bias = e[r.bias]
                if self.fit is not None:
                    self.fit.add(r, e, e_bias, self.bias_err)
                self.bias_err.add(e_bias)
            if self.lone:
                w_x = int(np.count_nonzero(ch.witness & (ch.dealer_basis == 0)))
                self.n_witness[0] += w_x
                self.n_witness[1] += int(np.count_nonzero(ch.witness)) - w_x
            else:
                (triple_x, alpha_x, *_), (triple_p, alpha_p, *_) = ch.witnessed
                _add_witness(self.sq_witness, triple_x, triple_p, alpha_x, alpha_p)
            table = ch.table
            # drop the chunk's reads before its table goes out, and the table before the
            # next chunk is drawn
            del ch, r
            if table is not None:
                yield table
                del table

    def result(self) -> tuple[MseReport, WitnessResult, BiasResult]:
        """The reports of the drawn chunks; call it once, after iterating."""
        sq_err, bias_err, gains = self.sq_err, self.bias_err, self.gains
        if self.fit is not None:
            gains = self.fit.apply(gains, sq_err, bias_err)
        n_x, n_p = sq_err[0].n, sq_err[1].n
        if n_x < 2 or n_p < 2:
            raise ProtocolFailureError("fewer than 2 usable rounds per quadrature")
        split = 1.0 if self.lone else estimators.RESOURCE_SPLIT_FACTOR
        mse_x, mse_p = split * sq_err[0].mean, split * sq_err[1].mean
        mse_report = MseReport(self.coalition, mse_x, mse_p, mse_x + mse_p, n_x, n_p, gains)

        if self.lone:
            # dual-homodyne outcomes carry an extra vacuum unit per quadrature,
            # so they cannot test the bound 4 e^{-2r}
            witness = WitnessResult(None, None, None, None, None, *self.n_witness,
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
        is drawn; with False the table is empty and memory does not grow
        with n_rounds (for large runs where only the reports matter).
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


def entanglement_check(witness_records: RoundTable) -> WitnessResult:
    """Witness MSE and entanglement verdict from witness rounds.

    Every party must have homodyned the dealer's basis in every round,
    so dual-homodyne rounds are rejected; at least 100 rounds per
    quadrature are required.
    """
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
    sq = (RunningMoments(), RunningMoments())
    _add_witness(sq, np.stack((t.x_a, t.x_b, t.x_c))[:, is_x],
                 np.stack((t.p_a, t.p_b, t.p_c))[:, ~is_x], t.alpha_x[is_x], t.alpha_p[~is_x])
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
    A round's witness error c·t − α_q/√2 is linear in its (A, B, C)
    outcomes t ~ N(μ_q, Σ_q), so each chunk draws its dealer basis coins
    and then one normal per round, the x rounds' first, scaled by
    √(cᵀΣ_q c) and shifted by c·μ_q − α_q/√2.
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
    # the witness weights c over (A, B, C), per quadrature
    weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    laws = []
    for c, idx, alpha in zip(weights, estimators.TRIPLE_INDICES, (plan.alpha_x, plan.alpha_p)):
        idx = list(idx)
        laws.append((math.sqrt(c @ st.cov[np.ix_(idx, idx)] @ c),
                     float(c @ st.mean[idx]) - alpha / math.sqrt(2.0)))
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
    Probe j of every quadrature belongs to batch j // N; probes are
    drawn in chunks, each from its own child stream, and only the
    per-batch sums of squared errors are kept. An estimate is linear in
    the outcomes it reads, so a probe's error in quadrature q is one
    normal scaled by √(wᵀΣ_q w), with w the estimator's weights and Σ_q
    the covariance of the outcomes it reads (with its vacuum unit for a
    lone A): each chunk draws a (2, m) array, x errors then p errors.
    """
    n_batches = check_scalar("n_batches", n_batches, ">= 100", 100, integer=True)
    n_probes_per_quadrature = check_scalar("n_probes_per_quadrature", n_probes_per_quadrature,
                                           ">= 1", 1, integer=True)
    if n_batches * n_probes_per_quadrature * 3 > DEFAULT_BATCH_TERM_CAP:
        raise ResourceLimitError(
            f"n_batches * n_probes * modes exceeds the cap of {DEFAULT_BATCH_TERM_CAP}"
        )
    cov = dealer_covariances([model.r], model)[0]
    gains = estimators.gains_for_model(model, coalition)
    g, bias = gains.gain(coalition), gains.bias_scale
    lone = coalition is Coalition.A_ALONE
    # dual homodyne reads x_A and p_A of each probe, each with a vacuum unit; a coalition
    # that reads one quadrature per probe splits its probes between the two
    vacuum, split = (1.0, 1.0) if lone else (0.0, estimators.RESOURCE_SPLIT_FACTOR)
    # per quadrature, the dealer quadratures of the parties the estimator reads and
    # their weights bias_scale * (w0 + g w1)
    parties = [estimators.PARTIES.index(p) for p in coalition.party_columns]
    sd = np.empty((2, 1))
    for q in (0, 1):
        w0, w1 = estimators.WEIGHTS[coalition, q]
        idx = [estimators.TRIPLE_INDICES[q][j] for j in parties]
        w = bias * (w0 + g * w1)[parties]
        sub = cov[np.ix_(idx, idx)] + vacuum * np.eye(len(idx))
        sd[q] = math.sqrt(split * (w @ sub @ w))
    n_probes = n_probes_per_quadrature
    n_tot = n_batches * n_probes
    total = np.zeros(n_batches)
    for start, end, gen in _chunks(stream, n_tot):
        err = gen.standard_normal((2, end - start))
        err *= sd
        err *= err
        first = start // n_probes
        sums = np.bincount(np.arange(start, end) // n_probes - first, weights=err[0] + err[1])
        total[first : first + sums.size] += sums
    return total / n_probes
