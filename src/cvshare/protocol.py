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
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import estimators
from .errors import (
    AbortLossError,
    InvalidArgumentError,
    ProtocolFailureError,
    ResourceLimitError,
)
from .estimators import Coalition, GainSet, MseReport
from .gaussian_core import ExperimentModel, GaussianState, build_dealer_state, partial_trace
from .sampler import MeasurementAssignment, RandomStream, sample_joint

#: witness rounds needed per quadrature before the entanglement verdict is meaningful
WITNESS_MIN_ROUNDS = 100
#: witness MSE sums at or above this are consistent with a separable state
WITNESS_THRESHOLD = 4.0
#: default cap on n_batches * n_probes * modes for batch distribution runs
DEFAULT_BATCH_TERM_CAP = 200_000_000
#: cap on n_rounds of one protocol or witness run: the round columns take
#: about 125 B per round, so the cap holds a run to about 2.5 GB
MAX_ROUNDS = 20_000_000

#: basis name per code in the basis columns: 0 = x, 1 = p, 2 = dual-homodyne
BASIS_NAMES = ("x", "p", "xp")
PARTY_NAMES = ("c", "b", "a")


@dataclass(frozen=True, slots=True)
class DisplacementPlan:
    """How the dealer draws the secret displacement.

    kind "fixed" repeats (alpha_x, alpha_p); kind "gaussian" draws a
    fresh pair per block from N(0, v_dist) per quadrature. With
    n_rep > 1 the same draw is applied, scaled by 1/sqrt(n_rep), to
    n_rep consecutive rounds (the repetition construction).
    """

    kind: str
    alpha_x: float = 0.0
    alpha_p: float = 0.0
    v_dist: float = 1.0
    n_rep: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "gaussian"):
            raise InvalidArgumentError("plan kind must be 'fixed' or 'gaussian'")
        for name in ("alpha_x", "alpha_p", "v_dist"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")
        if self.kind == "gaussian" and self.v_dist <= 0.0:
            raise InvalidArgumentError("v_dist must be > 0 for gaussian modulation")
        if not isinstance(self.n_rep, int) or self.n_rep < 1:
            raise InvalidArgumentError("n_rep must be an integer >= 1")

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
        if not (0.0 < self.eta_min <= 1.0):
            raise InvalidArgumentError("eta_min must be in (0, 1]")
        for name in ("witness_fraction", "bias_fraction"):
            f = getattr(self, name)
            if not (math.isfinite(f) and 0.0 <= f <= 0.5):
                raise InvalidArgumentError(f"{name} must be in [0, 0.5]")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    """One protocol round: the truth, every basis, the outcomes, and the sifting flag.

    Outcome fields are None for unmeasured quadratures; party A's
    basis is "xp" when it runs dual-homodyne.
    """

    round_index: int
    alpha_x: float
    alpha_p: float
    dealer_basis: str
    basis_a: str
    basis_b: str
    basis_c: str
    x_c: float | None
    p_c: float | None
    x_b: float | None
    p_b: float | None
    x_a: float | None
    p_a: float | None
    kept: bool


#: round table columns, in RoundRecord field order (also the rounds.csv order)
ROUND_COLUMNS = tuple(f.name for f in fields(RoundRecord))
BASIS_COLUMNS = ("dealer_basis", "basis_a", "basis_b", "basis_c")
OUTCOME_COLUMNS = ("x_c", "p_c", "x_b", "p_b", "x_a", "p_a")
#: rows converted to RoundRecords at a time while iterating a table
_ROW_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class RoundTable:
    """Every protocol round as numpy columns, one entry per round.

    Columns follow :class:`RoundRecord`: ``round_index`` is int64, the
    basis columns hold int8 codes into :data:`BASIS_NAMES`, outcome
    columns hold NaN for unmeasured quadratures, and ``kept`` is bool.
    ``table[mask_or_slice]`` and ``table + other`` give tables;
    ``table[i]`` and iteration give :class:`RoundRecord` rows, built on
    demand.
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
    def empty(cls) -> "RoundTable":
        """A table with no rounds."""
        f, b = np.empty(0), np.empty(0, dtype=np.int8)
        return cls(np.empty(0, dtype=np.int64), f, f, b, b, b, b, f, f, f, f, f, f,
                   np.empty(0, dtype=bool))

    def __len__(self) -> int:
        return self.round_index.shape[0]

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return next(iter(self[i : i + 1]))
        return RoundTable(*(getattr(self, name)[key] for name in ROUND_COLUMNS))

    def __add__(self, other: "RoundTable") -> "RoundTable":
        if not isinstance(other, RoundTable):
            return NotImplemented
        return RoundTable(
            *(np.concatenate((getattr(self, n), getattr(other, n))) for n in ROUND_COLUMNS)
        )

    def __iter__(self) -> Iterator[RoundRecord]:
        for start in range(0, len(self), _ROW_CHUNK):
            yield from map(RoundRecord, *self[start : start + _ROW_CHUNK]._row_values())

    def _row_values(self) -> list[list]:
        """Columns as Python lists in RoundRecord form: basis names, None for NaN."""
        out = []
        for name in ROUND_COLUMNS:
            values = getattr(self, name).tolist()
            if name in BASIS_COLUMNS:
                values = [BASIS_NAMES[v] for v in values]
            elif name in OUTCOME_COLUMNS:
                values = [None if v != v else v for v in values]
            out.append(values)
        return out


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
        return {
            "mse_x": self.mse_x,
            "mse_p": self.mse_p,
            "mse_sum": self.mse_sum,
            "standard_error": self.standard_error,
            "entangled": self.entangled,
            "n_x": self.n_x,
            "n_p": self.n_p,
            "threshold": self.threshold,
            "status": self.status,
        }


@dataclass(frozen=True, slots=True)
class BiasResult:
    """Unbiasedness spot-check on the reserved rounds."""

    mean_error: float | None
    standard_error: float | None
    n_rounds: int
    passed: bool | None
    status: str

    def to_json_dict(self) -> dict:
        return {
            "mean_error": self.mean_error,
            "standard_error": self.standard_error,
            "n_rounds": self.n_rounds,
            "passed": self.passed,
            "status": self.status,
        }


class ProtocolResult(NamedTuple):
    records: RoundTable
    mse_report: MseReport
    witness: WitnessResult
    bias: BiasResult


def _draw_alphas(
    plan: DisplacementPlan, n_rounds: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Applied per-round displacements (block draws repeated and scaled)."""
    n_blocks = -(-n_rounds // plan.n_rep)
    if plan.kind == "fixed":
        block_x = np.full(n_blocks, plan.alpha_x)
        block_p = np.full(n_blocks, plan.alpha_p)
    else:
        sd = math.sqrt(plan.v_dist)
        block_x = sd * gen.standard_normal(n_blocks)
        block_p = sd * gen.standard_normal(n_blocks)
    ax = np.repeat(block_x, plan.n_rep)[:n_rounds] * plan.scale
    ap = np.repeat(block_p, plan.n_rep)[:n_rounds] * plan.scale
    return ax, ap


def _party_bases(
    coalition: Coalition, n_rounds: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Basis index per party and round: 0 = x, 1 = p, 2 = dual-homodyne."""
    if coalition is Coalition.A_ALONE:
        basis_a = np.full(n_rounds, 2, dtype=np.int64)
        basis_b = gen.integers(0, 2, n_rounds)
        basis_c = gen.integers(0, 2, n_rounds)
    elif coalition is Coalition.AB:
        shared = gen.integers(0, 2, n_rounds)
        basis_a, basis_b = shared, shared
        basis_c = gen.integers(0, 2, n_rounds)
    elif coalition is Coalition.AC:
        shared = gen.integers(0, 2, n_rounds)
        basis_a, basis_c = shared, shared
        basis_b = gen.integers(0, 2, n_rounds)
    else:
        shared = gen.integers(0, 2, n_rounds)
        basis_a = basis_b = basis_c = shared
    return basis_a, basis_b, basis_c


def _sample_rounds(
    base: GaussianState,
    basis_c: np.ndarray,
    basis_b: np.ndarray,
    basis_a: np.ndarray,
    gen: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Jointly sample all rounds, grouped by the (C, B, A) basis pattern.

    Returns full-length per-quadrature outcome arrays with NaN where a
    quadrature was not measured.
    """
    n = basis_c.shape[0]
    cols = {k: np.full(n, np.nan) for k in ("x_c", "p_c", "x_b", "p_b", "x_a", "p_a")}
    keys = basis_c * 9 + basis_b * 3 + basis_a
    for key in np.unique(keys):
        idx = np.flatnonzero(keys == key)
        kc, kb, ka = key // 9, (key // 3) % 3, key % 3
        choices = (BASIS_NAMES[kc], BASIS_NAMES[kb], BASIS_NAMES[ka])
        assignment = MeasurementAssignment(choices)
        out = sample_joint(base, assignment, idx.size, gen)
        labels = assignment.labels(PARTY_NAMES)
        for col, label in enumerate(labels):
            cols[label][idx] = out[:, col]
    return cols


def _mask_subset(
    eligible: np.ndarray, target: int, gen: np.random.Generator
) -> np.ndarray:
    """Random subset of the eligible rounds, at most `target` of them, as a mask."""
    idx = np.flatnonzero(eligible)
    take = min(target, idx.size)
    mask = np.zeros(eligible.shape[0], dtype=bool)
    if take > 0:
        perm = gen.permutation(idx.size)
        mask[idx[perm[:take]]] = True
    return mask


def _witness_from_arrays(
    cols: dict[str, np.ndarray],
    alpha_x: np.ndarray,
    alpha_p: np.ndarray,
    x_rounds: np.ndarray,
    p_rounds: np.ndarray,
    require_min: bool,
) -> WitnessResult:
    """Witness MSE on the given round masks; verdict needs the minimum round count."""
    n_x, n_p = int(np.sum(x_rounds)), int(np.sum(p_rounds))
    if n_x < 1 or n_p < 1:
        return WitnessResult(None, None, None, None, None, n_x, n_p, WITNESS_THRESHOLD, "insufficient-rounds")
    split = estimators.RESOURCE_SPLIT_FACTOR
    ox = {k: cols[k][x_rounds] for k in ("x_a", "x_b", "x_c")}
    op = {k: cols[k][p_rounds] for k in ("p_a", "p_b", "p_c")}
    x_minus, p_plus = estimators.witness_estimate(ox, op)
    tx = alpha_x[x_rounds] / math.sqrt(2.0)
    tp = alpha_p[p_rounds] / math.sqrt(2.0)
    mse_x = split * estimators.empirical_mse(x_minus, tx)
    mse_p = split * estimators.empirical_mse(p_plus, tp)
    mse_sum = mse_x + mse_p
    if n_x < 2 or n_p < 2:
        return WitnessResult(mse_x, mse_p, mse_sum, None, None, n_x, n_p, WITNESS_THRESHOLD, "insufficient-rounds")
    se = math.hypot(
        split * estimators.mse_standard_error(x_minus, tx),
        split * estimators.mse_standard_error(p_plus, tp),
    )
    if require_min and (n_x < WITNESS_MIN_ROUNDS or n_p < WITNESS_MIN_ROUNDS):
        return WitnessResult(mse_x, mse_p, mse_sum, se, None, n_x, n_p, WITNESS_THRESHOLD, "insufficient-rounds")
    entangled = bool(mse_sum < WITNESS_THRESHOLD - 5.0 * se)
    return WitnessResult(mse_x, mse_p, mse_sum, se, entangled, n_x, n_p, WITNESS_THRESHOLD, "ok")


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
        calibration, and reports the MSE on the other half.
    :param keep_records: return every round as a :class:`RoundTable`;
        with False the table is empty (for large runs where only the
        reports matter).
    :raises AbortLossError: the declared signal-arm transmissivity is
        below policy.eta_min.
    :raises ProtocolFailureError: fewer than two usable rounds remain
        for either quadrature after sifting and subset removal.
    """
    if n_rounds < 10:
        raise InvalidArgumentError("n_rounds must be >= 10")
    if n_rounds > MAX_ROUNDS:
        raise ResourceLimitError(f"n_rounds exceeds the cap of {MAX_ROUNDS}")
    if gain_mode not in ("analytic", "fitted"):
        raise InvalidArgumentError("gain_mode must be 'analytic' or 'fitted'")
    if not isinstance(coalition, Coalition):
        raise InvalidArgumentError(f"unknown coalition {coalition!r}")
    if model.eta_a < policy.eta_min:
        raise AbortLossError(
            f"declared eta_A={model.eta_a} below policy minimum {policy.eta_min}"
        )
    gen = stream.generator()
    base = build_dealer_state(model, 0.0, 0.0)

    alpha_x, alpha_p = _draw_alphas(plan, n_rounds, gen)
    dealer = gen.integers(0, 2, n_rounds)
    basis_a, basis_b, basis_c = _party_bases(coalition, n_rounds, gen)
    cols = _sample_rounds(base, basis_c, basis_b, basis_a, gen)

    # the displacement reaches party A through its loss channel
    root_eta = math.sqrt(model.eta_a)
    cols["x_a"] = cols["x_a"] + root_eta * alpha_x
    cols["p_a"] = cols["p_a"] + root_eta * alpha_p

    if coalition is Coalition.A_ALONE:
        kept = np.ones(n_rounds, dtype=bool)
        match_a = np.ones(n_rounds, dtype=bool)
    else:
        kept = basis_a == dealer
        match_a = kept
    witness_pool = match_a & (basis_b == dealer) & (basis_c == dealer)
    witness_mask = _mask_subset(witness_pool, round(policy.witness_fraction * n_rounds), gen)
    est_eligible = kept & ~witness_mask
    bias_mask = _mask_subset(est_eligible, round(policy.bias_fraction * n_rounds), gen)
    est_mask = est_eligible & ~bias_mask

    if coalition is Coalition.A_ALONE:
        gains = GainSet(g_b=0.0, g_bc=0.0, bias_scale=1.0 / root_eta)
        calib_mask = np.zeros(n_rounds, dtype=bool)
    elif gain_mode == "analytic":
        gains = estimators.gains_for_model(model, coalition)
        calib_mask = np.zeros(n_rounds, dtype=bool)
    else:
        calib_mask = _mask_subset(est_mask, int(np.sum(est_mask)) // 2, gen)
        est_mask = est_mask & ~calib_mask
        gains = _fit_gains(model, coalition, cols, alpha_x, alpha_p, dealer, calib_mask)

    if coalition is Coalition.A_ALONE:
        x_rounds = est_mask
        p_rounds = est_mask
    else:
        x_rounds = est_mask & (dealer == 0)
        p_rounds = est_mask & (dealer == 1)
    if int(np.sum(x_rounds)) < 2 or int(np.sum(p_rounds)) < 2:
        raise ProtocolFailureError("fewer than 2 usable rounds per quadrature")

    def coalition_estimates(mask: np.ndarray, quad: str) -> tuple[np.ndarray, np.ndarray]:
        outcomes = {
            f"{quad}_{party}": cols[f"{quad}_{party}"][mask]
            for party in coalition.party_columns
        }
        est = estimators.estimate(coalition, outcomes, gains, quad)
        truth = (alpha_x if quad == "x" else alpha_p)[mask]
        return est, truth

    est_x, truth_x = coalition_estimates(x_rounds, "x")
    est_p, truth_p = coalition_estimates(p_rounds, "p")
    mse_report = estimators.make_mse_report(coalition, est_x, truth_x, est_p, truth_p, gains)

    witness_x = witness_mask & (dealer == 0)
    witness_p = witness_mask & (dealer == 1)
    if coalition is Coalition.A_ALONE:
        # dual-homodyne outcomes carry an extra vacuum unit per quadrature,
        # so they cannot test the bound 4 e^{-2r}
        witness = WitnessResult(
            None, None, None, None, None, int(np.sum(witness_x)), int(np.sum(witness_p)),
            WITNESS_THRESHOLD, "not-applicable",
        )
    else:
        witness = _witness_from_arrays(
            cols, alpha_x, alpha_p, witness_x, witness_p, require_min=True
        )

    if coalition is Coalition.A_ALONE:
        bias_x, bias_p = bias_mask, bias_mask
    else:
        bias_x = bias_mask & (dealer == 0)
        bias_p = bias_mask & (dealer == 1)
    n_bias = int(np.sum(bias_x)) + int(np.sum(bias_p))
    if n_bias < 2:
        bias = BiasResult(None, None, n_bias, None, "insufficient-rounds")
    else:
        parts = []
        for mask, quad in ((bias_x, "x"), (bias_p, "p")):
            if np.any(mask):
                e, t = coalition_estimates(mask, quad)
                parts.append(e - t)
        resid = np.concatenate(parts)
        mean_err, se = estimators.bias_check(resid, np.zeros_like(resid))
        bias = BiasResult(mean_err, se, n_bias, bool(abs(mean_err) <= 5.0 * se), "ok")

    if keep_records:
        records = RoundTable(
            np.arange(n_rounds),
            alpha_x,
            alpha_p,
            dealer.astype(np.int8),
            basis_a.astype(np.int8),
            basis_b.astype(np.int8),
            basis_c.astype(np.int8),
            *(cols[name] for name in OUTCOME_COLUMNS),
            kept,
        )
    else:
        records = RoundTable.empty()
    return ProtocolResult(records, mse_report, witness, bias)


def _fit_gains(
    model: ExperimentModel,
    coalition: Coalition,
    cols: dict[str, np.ndarray],
    alpha_x: np.ndarray,
    alpha_p: np.ndarray,
    dealer: np.ndarray,
    calib_mask: np.ndarray,
) -> GainSet:
    """Least-squares gain from the calibration rounds, pooled over quadratures.

    The x rounds regress (x_A - sqrt(eta_A) alpha_x) on the auxiliary
    combination; the p rounds enter with the auxiliary sign flipped,
    matching the estimator's p convention, so one shared gain fits both.
    """
    root_eta = math.sqrt(model.eta_a)
    cx = calib_mask & (dealer == 0)
    cp = calib_mask & (dealer == 1)
    if int(np.sum(cx)) + int(np.sum(cp)) < 2:
        raise ProtocolFailureError("not enough calibration rounds to fit gains")

    def aux(quad: str, mask: np.ndarray) -> np.ndarray:
        if coalition is Coalition.ABC:
            return (cols[f"{quad}_b"][mask] - cols[f"{quad}_c"][mask]) / math.sqrt(2.0)
        partner = "b" if coalition is Coalition.AB else "c"
        return cols[f"{quad}_{partner}"][mask]

    resid_parts, aux_parts = [], []
    if np.any(cx):
        resid_parts.append(cols["x_a"][cx] - root_eta * alpha_x[cx])
        aux_parts.append(aux("x", cx))
    if np.any(cp):
        resid_parts.append(cols["p_a"][cp] - root_eta * alpha_p[cp])
        aux_parts.append(-aux("p", cp))
    g = estimators.fit_gain(np.concatenate(resid_parts), np.concatenate(aux_parts))
    if coalition is Coalition.ABC:
        return GainSet(g_b=0.0, g_bc=g, bias_scale=1.0 / root_eta)
    return GainSet(g_b=g, g_bc=0.0, bias_scale=1.0 / root_eta)


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
    cols = {name: getattr(t, name) for name in OUTCOME_COLUMNS}
    return _witness_from_arrays(cols, t.alpha_x, t.alpha_p, is_x, ~is_x, require_min=True)


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
    stand-in from :func:`surrogate_intercept_state`.
    """
    if n_rounds < 2 * WITNESS_MIN_ROUNDS:
        raise InvalidArgumentError(f"n_rounds must be >= {2 * WITNESS_MIN_ROUNDS}")
    if n_rounds > MAX_ROUNDS:
        raise ResourceLimitError(f"n_rounds exceeds the cap of {MAX_ROUNDS}")
    if surrogate:
        st = surrogate_intercept_state(model, alpha_x, alpha_p)
    else:
        st = build_dealer_state(model, alpha_x, alpha_p)
    gen = stream.generator()
    dealer = gen.integers(0, 2, n_rounds)
    basis = dealer.astype(np.int64)
    cols = _sample_rounds(st, basis, basis, basis, gen)
    ax = np.full(n_rounds, alpha_x)
    ap = np.full(n_rounds, alpha_p)
    return _witness_from_arrays(cols, ax, ap, dealer == 0, dealer == 1, require_min=True)


def linear_mse_batches(
    outcomes: np.ndarray, weights: np.ndarray, truths: np.ndarray, n_batches: int
) -> np.ndarray:
    """Per-batch mean squared error of a linear estimator.

    Rows of ``outcomes`` are grouped into n_batches equal consecutive
    batches; returns, per batch, mean((outcomes @ weights - truths)^2).
    """
    err = outcomes @ weights - truths
    return np.mean(err.reshape(n_batches, -1) ** 2, axis=1)


def batch_mse_distribution(
    model: ExperimentModel,
    coalition: Coalition,
    n_probes_per_quadrature: int,
    n_batches: int,
    stream: RandomStream,
    max_terms: int = DEFAULT_BATCH_TERM_CAP,
) -> np.ndarray:
    """Summed MSE of many independent batches of N probes per quadrature.

    Samples without sifting (bases pre-agreed), estimates with analytic
    gains at zero displacement and returns one summed, resource-split
    MSE per batch, for comparison against the scaled chi-squared law.
    """
    if n_batches < 100:
        raise InvalidArgumentError("n_batches must be >= 100")
    if n_probes_per_quadrature < 1:
        raise InvalidArgumentError("n_probes_per_quadrature must be >= 1")
    if n_batches * n_probes_per_quadrature * 3 > max_terms:
        raise ResourceLimitError(
            f"n_batches * n_probes * modes exceeds the cap of {max_terms}"
        )
    gen = stream.generator()
    n_tot = n_batches * n_probes_per_quadrature
    zeros = np.zeros(n_tot)
    if coalition is Coalition.A_ALONE:
        reduced = partial_trace(build_dealer_state(model, 0.0, 0.0), [2])
        bias = 1.0 / math.sqrt(model.eta_a)
        out = sample_joint(reduced, MeasurementAssignment(("xp",)), n_tot, gen)
        mse_x = linear_mse_batches(out, np.array([bias, 0.0]), zeros, n_batches)
        mse_p = linear_mse_batches(out, np.array([0.0, bias]), zeros, n_batches)
        return mse_x + mse_p

    base = build_dealer_state(model, 0.0, 0.0)
    gains = estimators.gains_for_model(model, coalition)
    bias = gains.bias_scale
    g = gains.g_bc if coalition is Coalition.ABC else gains.g_b
    weights = {}
    if coalition is Coalition.ABC:
        choices = {"x": ("x", "x", "x"), "p": ("p", "p", "p")}
        s = 1.0 / math.sqrt(2.0)
        weights["x"] = bias * np.array([g * s, -g * s, 1.0])
        weights["p"] = bias * np.array([-g * s, g * s, 1.0])
    elif coalition is Coalition.AB:
        choices = {"x": ("none", "x", "x"), "p": ("none", "p", "p")}
        weights["x"] = bias * np.array([-g, 1.0])
        weights["p"] = bias * np.array([g, 1.0])
    else:
        choices = {"x": ("x", "none", "x"), "p": ("p", "none", "p")}
        weights["x"] = bias * np.array([-g, 1.0])
        weights["p"] = bias * np.array([g, 1.0])
    split = estimators.RESOURCE_SPLIT_FACTOR
    total = np.zeros(n_batches)
    for quad in ("x", "p"):
        out = sample_joint(base, MeasurementAssignment(choices[quad]), n_tot, gen)
        total += split * linear_mse_batches(out, weights[quad], zeros, n_batches)
    return total
