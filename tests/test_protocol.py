"""End-to-end protocol runs: sifting, verification subsets, reports."""

import json
import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cvshare import estimators, protocol
from cvshare.bounds import predicted_mse, witness_bound
from cvshare.errors import (
    AbortLossError,
    InvalidArgumentError,
    ProtocolFailureError,
    ResourceLimitError,
)
from cvshare.estimators import Coalition, fit_gain
from cvshare.gaussian_core import (
    ExperimentModel,
    GaussianState,
    build_dealer_state,
    partial_trace,
    state_to_text,
)
from cvshare.protocol import (
    MAX_RECORD_ROUNDS,
    MAX_ROUNDS,
    ROUND_COLUMNS,
    WITNESS_THRESHOLD,
    DisplacementPlan,
    ProtocolPolicy,
    RoundRecord,
    RoundTable,
    batch_mse_distribution,
    entanglement_check,
    run_protocol,
    sift,
    surrogate_intercept_state,
    witness_verification_run,
)
from cvshare.sampler import MeasurementAssignment, RandomStream, outcome_moments, sample_joint
from cvshare.security import MseDistribution, security_probabilities

IDEAL = ExperimentModel(r=1.0)
PLAN = DisplacementPlan.fixed(1.0, -0.5)
POLICY = ProtocolPolicy()
# basis codes of the round table's basis columns
X, P, XP = range(3)


def _assert_same_rounds(got: RoundTable, want: RoundTable) -> None:
    assert len(got) == len(want)
    for name in ROUND_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


def test_plan_validation():
    with pytest.raises(InvalidArgumentError):
        DisplacementPlan(kind="uniform")
    with pytest.raises(InvalidArgumentError):
        DisplacementPlan.gaussian_modulated(0.0)
    with pytest.raises(InvalidArgumentError):
        DisplacementPlan.fixed(1.0, 1.0, n_rep=0)
    with pytest.raises(InvalidArgumentError):
        DisplacementPlan(kind="fixed", alpha_x=math.inf)
    assert DisplacementPlan.fixed(1.0, 1.0, n_rep=4).scale == 0.5


@pytest.mark.parametrize("n_rep", [0, MAX_ROUNDS + 1, 2**63 - 1, 2**63, 10**30])
def test_n_rep_above_the_longest_run_is_rejected(n_rep):
    # at 2**63 the block index np.arange(start, end) // n_rep raised OverflowError
    for make in (lambda: DisplacementPlan.gaussian_modulated(2.0, n_rep=n_rep),
                 lambda: DisplacementPlan.fixed(1.0, 1.0, n_rep=n_rep)):
        with pytest.raises(InvalidArgumentError, match=r"n_rep must be an integer in \[1, "
                                                       r"MAX_ROUNDS = 1000000000\]"):
            make()


def test_n_rep_up_to_the_longest_run_is_one_block():
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=MAX_ROUNDS)
    rounds = run_protocol(IDEAL, plan, 2000, Coalition.ABC, POLICY, RandomStream(3),
                          keep_records=True).records
    assert np.unique(rounds.alpha_x).size == 1 and np.unique(rounds.alpha_p).size == 1


def test_policy_validation():
    with pytest.raises(InvalidArgumentError):
        ProtocolPolicy(eta_min=0.0)
    with pytest.raises(InvalidArgumentError):
        ProtocolPolicy(eta_min=1.5)
    with pytest.raises(InvalidArgumentError):
        ProtocolPolicy(witness_fraction=0.6)
    with pytest.raises(InvalidArgumentError):
        ProtocolPolicy(bias_fraction=-0.1)


def test_run_protocol_argument_errors():
    with pytest.raises(InvalidArgumentError):
        run_protocol(IDEAL, PLAN, 9, Coalition.AB, POLICY, RandomStream(0))
    with pytest.raises(InvalidArgumentError):
        run_protocol(IDEAL, PLAN, 100, Coalition.AB, POLICY, RandomStream(0), gain_mode="ml")
    with pytest.raises(InvalidArgumentError):
        run_protocol(IDEAL, PLAN, 100, "ab", POLICY, RandomStream(0))


def test_n_rounds_cap(monkeypatch):
    # both caps are checked before any chunk stream is opened, so nothing is allocated
    def no_rounds(self, *args):
        raise AssertionError("the rounds' random stream was opened")

    monkeypatch.setattr(RandomStream, "generator", no_rounds)
    monkeypatch.setattr(RandomStream, "chunk_generator", no_rounds)
    with pytest.raises(ResourceLimitError, match=f"{MAX_RECORD_ROUNDS} for a run that keeps"):
        run_protocol(IDEAL, PLAN, MAX_RECORD_ROUNDS + 1, Coalition.AB, POLICY, RandomStream(0))
    with pytest.raises(ResourceLimitError, match=str(MAX_ROUNDS)):
        run_protocol(IDEAL, PLAN, MAX_ROUNDS + 1, Coalition.AB, POLICY, RandomStream(0),
                     keep_records=False)
    with pytest.raises(ResourceLimitError, match=str(MAX_ROUNDS)):
        witness_verification_run(IDEAL, 0.0, 0.0, MAX_ROUNDS + 1, RandomStream(0))


def test_abort_on_declared_loss():
    lossy = ExperimentModel(r=1.0, eta_a=0.4)
    with pytest.raises(AbortLossError):
        run_protocol(lossy, PLAN, 1000, Coalition.AB, POLICY, RandomStream(0))
    # tighter policy rejects what the default allows
    ok = ExperimentModel(r=1.0, eta_a=0.8)
    with pytest.raises(AbortLossError):
        run_protocol(ok, PLAN, 1000, Coalition.AB, ProtocolPolicy(eta_min=0.9), RandomStream(0))


def test_too_few_usable_rounds():
    # aggressive verification fractions starve the estimation set
    greedy = ProtocolPolicy(witness_fraction=0.5, bias_fraction=0.5)
    with pytest.raises(ProtocolFailureError):
        run_protocol(IDEAL, PLAN, 10, Coalition.ABC, greedy, RandomStream(0))


def test_readme_describes_the_current_stream_layout():
    # the manifests name the layout, and the README's section of that name says what it draws
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"\n### Stream layout {protocol.STREAM_LAYOUT}\n" in readme


def test_determinism_and_stream_independence():
    a = run_protocol(IDEAL, PLAN, 2000, Coalition.ABC, POLICY, RandomStream(7))
    b = run_protocol(IDEAL, PLAN, 2000, Coalition.ABC, POLICY, RandomStream(7))
    assert a.mse_report.mse_sum == b.mse_report.mse_sum
    assert a.witness.mse_sum == b.witness.mse_sum
    _assert_same_rounds(a.records, b.records)
    c = run_protocol(IDEAL, PLAN, 2000, Coalition.ABC, POLICY, RandomStream(7, stream_id=1))
    assert a.mse_report.mse_sum != c.mse_report.mse_sum


def test_record_structure_pair_coalition():
    res = run_protocol(IDEAL, PLAN, 4000, Coalition.AB, POLICY, RandomStream(3))
    assert len(res.records) == 4000
    t = res.records[:200]
    assert np.array_equal(t.basis_a, t.basis_b)  # shared coin
    assert np.array_equal(t.kept, t.basis_a == t.dealer_basis)
    # exactly the chosen quadrature was measured
    on_x = t.basis_b == X
    assert np.array_equal(on_x, ~np.isnan(t.x_b))
    assert np.array_equal(~on_x, ~np.isnan(t.p_b))
    assert np.all(t.alpha_x == 1.0) and np.all(t.alpha_p == -0.5)


def test_record_structure_single_party():
    res = run_protocol(IDEAL, PLAN, 500, Coalition.A_ALONE, POLICY, RandomStream(3))
    t = res.records
    assert np.all(t.basis_a == XP)
    assert not np.isnan(t.x_a).any() and not np.isnan(t.p_a).any()
    assert t.kept.all()


def test_keep_records_off():
    res = run_protocol(IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(1), keep_records=False)
    assert isinstance(res.records, RoundTable)
    assert len(res.records) == 0
    assert all(getattr(res.records, name).size == 0 for name in ROUND_COLUMNS)
    assert res.mse_report.n_x >= 2
    # the reports do not depend on whether the rounds are kept
    full = run_protocol(IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(1))
    assert full.mse_report == res.mse_report
    assert full.witness == res.witness


def _assert_round(table: RoundTable, i: int, **want) -> None:
    """Round i of the table holds ``want``, one value per column; NaN where unmeasured."""
    assert sorted(want) == sorted(ROUND_COLUMNS)
    for name in ROUND_COLUMNS:
        assert np.array_equal(getattr(table, name)[i], want[name], equal_nan=True), name


def _replay_first_chunk(coalition: Coalition, n: int, v_dist: float, seed: int) -> dict:
    """The round-table columns of an n-round analytic run on IDEAL with a gaussian plan
    of n_rep 1, replayed by hand from chunk 0's stream in stream layout 6."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0, 0))))
    lone = coalition is Coalition.A_ALONE
    three = coalition is Coalition.ABC

    def coins():
        # the bits of ceil(n / 8) random bytes, most significant bit first
        return np.unpackbits(np.frombuffer(gen.bytes(-(-n // 8)), np.uint8))[:n].astype(np.int8)

    dealer = coins()
    if lone:
        bases = {"a": np.full(n, XP, dtype=np.int8), "b": coins(), "c": coins()}
    else:
        # the coalition's shared coin, then the outsider's own
        shared = coins()
        other = shared if three else coins()
        bases = {"a": shared, "b": other if coalition is Coalition.AC else shared,
                 "c": shared if coalition is Coalition.AC else other}
    kept = np.ones(n, dtype=bool) if lone else bases["a"] == dealer
    witness = np.zeros(n, dtype=bool)
    if not lone:
        # a lone A's rounds witness nothing, so it picks no witness rounds
        pool = np.flatnonzero(kept & (bases["b"] == dealer) & (bases["c"] == dealer))
        witness[gen.choice(pool, round(POLICY.witness_fraction * n), replace=False,
                           shuffle=False)] = True
    # the bias subset, which the table does not show
    gen.choice(np.flatnonzero(kept & ~witness), round(POLICY.bias_fraction * n), replace=False,
               shuffle=False)
    alpha = np.empty((2, n))

    def blocks(rounds):
        # one displacement block per round: the x draws of the given rounds, then the p ones
        for q in (0, 1):
            alpha[q, rounds] = math.sqrt(v_dist) * gen.standard_normal(rounds.size)

    # the blocks of the witness rounds, the only rounds that read one before the records
    blocks(np.flatnonzero(witness))
    # every round's normals per quadrature, one row per party in the factors' order:
    # A, then a pair's partner before its outsider
    order = (0, 2, 1) if coalition is Coalition.AC else (0, 1, 2)
    normals = np.empty((2, 3, n))
    cov = build_dealer_state(IDEAL, 0.0, 0.0).cov
    vacuum = np.diag([1.0 if lone else 0.0, 0.0, 0.0])
    factors = [np.linalg.cholesky(cov[np.ix_(idx, idx)] + vacuum)
               for idx in ([quad[j] for j in order] for quad in estimators.TRIPLE_INDICES)]
    if lone:
        # A's dual-homodyne outcomes in x and in p
        normals[:, 0] = gen.standard_normal((2, n))
    else:
        # the kept rounds' normals in the dealer's basis, x rounds first: three rows for
        # all three, two for a pair, whose outsider's normals follow for its witness rounds
        rows = 3 if three else 2
        drawn = [np.flatnonzero(kept & (dealer == q)) for q in (0, 1)]
        z = gen.standard_normal((rows, drawn[0].size + drawn[1].size))
        normals[0][:rows, drawn[0]], normals[1][:rows, drawn[1]] = np.split(
            z, [drawn[0].size], axis=1)
        if not three:
            w = [np.flatnonzero(witness & (dealer == q)) for q in (0, 1)]
            normals[0][2, w[0]], normals[1][2, w[1]] = np.split(
                gen.standard_normal(w[0].size + w[1].size), [w[0].size])
    # the records' draws: the blocks of the other rounds, then per quadrature a pair's
    # outsider in its other read rounds and every normal of the unread rounds
    blocks(np.flatnonzero(~witness))
    for q in (0, 1):
        if lone:
            normals[q, 1:] = gen.standard_normal((2, n))
            continue
        read = kept & (dealer == q)
        if not three:
            other = np.flatnonzero(read & ~witness)
            normals[q][2, other] = gen.standard_normal(other.size)
        missing = np.flatnonzero(~read)
        normals[q][:, missing] = gen.standard_normal((3, missing.size))
    want = {"round_index": np.arange(n), "alpha_x": alpha[0], "alpha_p": alpha[1],
            "dealer_basis": dealer, "kept": kept}
    for j, party in enumerate("abc"):
        want[f"basis_{party}"] = bases[party]
        row = order.index(j)
        for q, quad in enumerate("xp"):
            f, z = factors[q][row], normals[q]
            value = f[0] * z[0]
            for i in range(1, row + 1):
                value = value + f[i] * z[i]
            if party == "a":
                value = value + alpha[q]
            want[f"{quad}_{party}"] = np.where(bases[party] == 1 - q, np.nan, value)
    return want


def test_round_columns_hold_the_drawn_rounds():
    # every round of a one-chunk run as drawn by stream layout 6: the basis coins from
    # random bytes, the witness and bias picks, the witness rounds' displacements, the
    # party-major normals of the kept rounds, then the displacements and normals
    # still missing
    n = 100
    plan = DisplacementPlan.gaussian_modulated(1.5)
    for coalition in Coalition:
        res = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(3))
        want = _replay_first_chunk(coalition, n, 1.5, 3)
        for i in range(n):
            _assert_round(res.records, i, **{name: col[i] for name, col in want.items()})
        assert len(res.records) == n


def test_row_view_matches_round_record():
    # iteration crosses the row-conversion chunks, keeps the order and gives each
    # round's columns with basis names and None for an unmeasured outcome
    t = run_protocol(IDEAL, PLAN, 10_000, Coalition.AB, POLICY, RandomStream(19)).records
    rows = list(t)
    assert len(rows) == 10_000 and all(type(r) is RoundRecord for r in rows)
    assert [r.round_index for r in rows] == list(range(10_000))
    assert [r.kept for r in rows] == t.kept.tolist()
    for name in protocol.BASIS_COLUMNS:
        assert [getattr(r, name) for r in rows] == [protocol.BASIS_NAMES[v]
                                                     for v in getattr(t, name)]
    for name in protocol.OUTCOME_COLUMNS:
        col = getattr(t, name)
        assert [getattr(r, name) for r in rows] == [None if np.isnan(v) else v
                                                     for v in col.tolist()]
    assert type(rows[-1].round_index) is int and type(rows[-1].kept) is bool


@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(1.5)],
                         ids=["fixed", "gaussian"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_rows_are_the_named_columns(coalition, plan):
    # the rounds.csv columns and the rows come from one mapping: each row holds the
    # named columns' entries at its round, an unmeasured outcome as None, across the
    # row-conversion chunks
    t = run_protocol(IDEAL, plan, 5_000, coalition, POLICY, RandomStream(23)).records
    columns = t.named_columns()
    assert [len(col) for col in columns] == [5_000] * len(ROUND_COLUMNS)
    rows = [tuple(getattr(r, name) for name in ROUND_COLUMNS) for r in t]
    assert rows == [tuple(None if v != v else v for v in row)
                    for row in zip(*(col.tolist() for col in columns))]
    for name in protocol.BASIS_COLUMNS:
        j = ROUND_COLUMNS.index(name)
        assert all(type(row[j]) is str for row in rows)
        assert set(columns[j].tolist()) <= set(protocol.BASIS_NAMES)


def test_round_table_operations():
    res = run_protocol(IDEAL, PLAN, 10_000, Coalition.ABC, POLICY, RandomStream(19))
    table = res.records
    assert [f.name for f in fields(RoundTable)] == list(ROUND_COLUMNS)
    assert table.round_index.dtype == np.int64
    assert table.dealer_basis.dtype == np.int8 and table.basis_a.dtype == np.int8
    assert table.kept.dtype == bool
    assert np.array_equal(table.round_index, np.arange(10_000))
    # mask selection
    mask = table.kept & (table.alpha_x > 0.0)
    picked = table[mask]
    assert isinstance(picked, RoundTable)
    assert len(picked) == int(mask.sum())
    assert np.array_equal(picked.round_index, np.flatnonzero(mask))
    _assert_same_rounds(picked[:20], table[np.flatnonzero(mask)[:20]])
    # concatenation
    head, tail = table[:300], table[300:]
    joined = head + tail
    assert len(joined) == len(table)
    for name in ROUND_COLUMNS:
        col = getattr(joined, name)
        assert col.dtype == getattr(table, name).dtype
        assert np.array_equal(col, getattr(table, name), equal_nan=True)
    _assert_same_rounds(table[5:8] + table[:2], table[np.array([5, 6, 7, 0, 1])])
    assert len(RoundTable.empty() + table[:3]) == 3


def test_table_selection_takes_each_columns_rows_by_the_key():
    # a mask is turned into indices once for all the columns; every key gives each
    # column's own numpy selection, bit for bit and with its dtype
    t = run_protocol(IDEAL, DisplacementPlan.gaussian_modulated(1.5), 3000, Coalition.AB, POLICY,
                     RandomStream(47)).records
    rng = np.random.default_rng(0)
    keys = {
        "random-mask": rng.random(3000) < 0.3,
        "sparse-mask": rng.random(3000) < 0.001,
        "no-round": np.zeros(3000, dtype=bool),
        "every-round": np.ones(3000, dtype=bool),
        "kept": t.kept,
        "indices": rng.permutation(3000)[:500],
        "slice": slice(10, 2000, 7),
        "reversed": slice(None, None, -3),
        "empty-slice": slice(5, 5),
    }
    for name, key in keys.items():
        got = t[key]
        for column in ROUND_COLUMNS:
            want = getattr(t, column)[key]
            col = getattr(got, column)
            assert col.dtype == want.dtype and col.tobytes() == want.tobytes(), (name, column)
    empty = RoundTable.empty()
    assert len(empty[np.zeros(0, dtype=bool)]) == 0
    # a mask of another length is refused as numpy refuses it
    with pytest.raises(IndexError):
        t[np.ones(2999, dtype=bool)]


def test_sift():
    res = run_protocol(IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(5))
    t = res.records
    xs = sift(t, "x")
    assert len(xs) and np.all(xs.kept & (xs.dealer_basis == X))
    ps = sift(t, "p")
    assert len(ps) and np.all(ps.kept & (ps.dealer_basis == P))
    assert len(xs) + len(ps) == int(t.kept.sum())
    both = xs + ps
    _assert_same_rounds(both[np.argsort(both.round_index)], t[t.kept])
    with pytest.raises(InvalidArgumentError):
        sift(res.records, "xp")


def test_three_party_accuracy_against_prediction():
    res = run_protocol(IDEAL, PLAN, 60_000, Coalition.ABC, POLICY, RandomStream(11))
    _, _, expect = predicted_mse(IDEAL, Coalition.ABC)
    assert res.mse_report.mse_sum == pytest.approx(expect, rel=0.08)
    assert res.witness.entangled is True
    assert res.witness.status == "ok"
    assert res.witness.mse_sum < WITNESS_THRESHOLD
    assert res.bias.passed is True
    assert res.bias.status == "ok"


def test_single_party_accuracy_against_prediction():
    res = run_protocol(IDEAL, PLAN, 20_000, Coalition.A_ALONE, POLICY, RandomStream(13))
    _, _, expect = predicted_mse(IDEAL, Coalition.A_ALONE)
    assert res.mse_report.mse_sum == pytest.approx(expect, rel=0.08)


def test_fitted_gain_close_to_analytic():
    res = run_protocol(
        IDEAL, PLAN, 40_000, Coalition.ABC, POLICY, RandomStream(17), gain_mode="fitted"
    )
    assert res.mse_report.gains.g_bc == pytest.approx(math.tanh(2.0), rel=0.05)
    _, _, expect = predicted_mse(IDEAL, Coalition.ABC)
    assert res.mse_report.mse_sum == pytest.approx(expect, rel=0.15)


def test_repetition_blocks():
    plan = DisplacementPlan.fixed(2.0, 0.0, n_rep=4)
    res = run_protocol(IDEAL, plan, 200, Coalition.AB, POLICY, RandomStream(2))
    assert np.all(res.records.alpha_x == 1.0)  # 2.0 / sqrt(4)
    gplan = DisplacementPlan.gaussian_modulated(2.0, n_rep=4)
    res = run_protocol(IDEAL, gplan, 200, Coalition.AB, POLICY, RandomStream(2))
    ax = res.records.alpha_x.tolist()
    for start in range(0, 200, 4):
        assert len(set(ax[start : start + 4])) == 1
    assert len(set(ax)) == 50


def test_entanglement_check_from_records():
    res = run_protocol(IDEAL, PLAN, 8000, Coalition.ABC, POLICY, RandomStream(23))
    t = res.records
    pool = t[t.kept & (t.basis_b == t.dealer_basis) & (t.basis_c == t.dealer_basis)]
    wit = entanglement_check(pool)
    assert wit.entangled is True
    assert wit.mse_sum == pytest.approx(witness_bound(1.0), rel=0.25)
    # sifted abc rounds are all witness rounds, whichever order they come in
    assert entanglement_check(sift(t, "x") + sift(t, "p")) == wit
    with pytest.raises(InvalidArgumentError):
        entanglement_check(pool[:50])
    with pytest.raises(InvalidArgumentError):
        entanglement_check(RoundTable.empty())


def test_entanglement_check_rejects_partial_records():
    res = run_protocol(IDEAL, PLAN, 2000, Coalition.AB, POLICY, RandomStream(29))
    t = res.records
    bad = t[t.kept & (t.basis_c != t.dealer_basis)]
    first = int(bad.round_index[0])
    with pytest.raises(InvalidArgumentError, match=f"round {first}: basis_c"):
        entanglement_check(bad[:300])


def test_entanglement_check_rejects_dual_homodyne_rounds():
    # a lone party A reads both quadratures every round, each with an extra
    # vacuum unit, so its rounds cannot test the witness bound
    res = run_protocol(IDEAL, PLAN, 8000, Coalition.A_ALONE, POLICY, RandomStream(23))
    t = res.records
    pool = t[(t.basis_b == t.dealer_basis) & (t.basis_c == t.dealer_basis)]
    first = int(pool.round_index[0])
    with pytest.raises(InvalidArgumentError, match=f"round {first}: basis_a"):
        entanglement_check(pool)


def test_single_party_witness_not_applicable():
    res = run_protocol(ExperimentModel(r=0.25), PLAN, 40_000, Coalition.A_ALONE, POLICY,
                       RandomStream(3))
    wit = res.witness
    assert wit.status == "not-applicable"
    assert wit.entangled is None
    assert wit.mse_x is None and wit.mse_p is None and wit.mse_sum is None
    assert wit.standard_error is None
    # no witness round is reserved, so only the bias subset (5%) leaves estimation
    assert wit.n_x == wit.n_p == 0
    assert res.mse_report.n_x == res.mse_report.n_p == 40_000 - 2_000


def test_witness_verification_run_entangled():
    wit = witness_verification_run(IDEAL, 1.0, 1.0, 4000, RandomStream(31))
    assert wit.entangled is True
    assert wit.mse_sum == pytest.approx(witness_bound(1.0), rel=0.2)
    assert wit.n_x + wit.n_p == 4000
    with pytest.raises(InvalidArgumentError):
        witness_verification_run(IDEAL, 1.0, 1.0, 199, RandomStream(31))


def test_witness_verification_run_surrogate_separable():
    wit = witness_verification_run(IDEAL, 1.0, 1.0, 4000, RandomStream(37), surrogate=True)
    assert wit.entangled is False
    assert wit.mse_sum >= WITNESS_THRESHOLD
    expect = 4.0 * math.cosh(2.0)  # severed correlations leave the bare variances
    assert wit.mse_sum == pytest.approx(expect, rel=0.15)


def test_surrogate_state_structure():
    st = surrogate_intercept_state(IDEAL, 0.3, -0.2)
    full = build_dealer_state(IDEAL, 0.3, -0.2)
    assert np.array_equal(st.mean, full.mean)
    assert np.all(st.cov[0:4, 4:6] == 0.0)
    assert np.array_equal(st.cov[0:4, 0:4], full.cov[0:4, 0:4])
    assert np.array_equal(st.cov[4:6, 4:6], full.cov[4:6, 4:6])


def test_batch_mse_distribution_moments():
    stream = RandomStream(41)
    out = batch_mse_distribution(IDEAL, Coalition.AB, 10, 400, stream)
    assert out.shape == (400,)
    # Gamma(shape=N, scale=mu/N): mean mu, sd mu/sqrt(N)
    assert out.mean() == pytest.approx(4.0, abs=0.35)
    assert out.std(ddof=1) == pytest.approx(4.0 / math.sqrt(10.0), rel=0.2)


def test_batch_mse_distribution_single_party():
    out = batch_mse_distribution(IDEAL, Coalition.A_ALONE, 10, 300, RandomStream(43))
    _, _, mu = predicted_mse(IDEAL, Coalition.A_ALONE)
    assert out.mean() == pytest.approx(mu, rel=0.1)


# each counted argument: (its name, a valid count, a call with the count in its place)
_COUNTS = {
    "run_protocol": ("n_rounds", 1000, lambda n: run_protocol(
        IDEAL, PLAN, n, Coalition.AB, POLICY, RandomStream(7), keep_records=False).mse_report),
    "witness_verification_run": ("n_rounds", 1000, lambda n: witness_verification_run(
        IDEAL, 1.0, 1.0, n, RandomStream(7))),
    "batch_n_probes": ("n_probes_per_quadrature", 10, lambda n: batch_mse_distribution(
        IDEAL, Coalition.AB, n, 100, RandomStream(7)).tolist()),
    "batch_n_batches": ("n_batches", 100, lambda n: batch_mse_distribution(
        IDEAL, Coalition.AB, 10, n, RandomStream(7)).tolist()),
    "n_rep": ("n_rep", 2, lambda n: run_protocol(
        IDEAL, DisplacementPlan.gaussian_modulated(2.0, n_rep=n), 1000, Coalition.AB, POLICY,
        RandomStream(7), keep_records=False).mse_report),
    "seed": ("seed", 7, lambda n: run_protocol(
        IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(n), keep_records=False).mse_report),
    "stream_id": ("stream_id", 3, lambda n: run_protocol(
        IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(7, n),
        keep_records=False).mse_report),
    # the report's JSON text, which a numpy integer in it would fail to give
    "mse_n_probes": ("n_probes", 10, lambda n: json.dumps(security_probabilities(
        3.0, MseDistribution(4.0, n), MseDistribution(2.0, n)).to_json_dict())),
    "n_modes": ("n_modes", 1, lambda n: state_to_text(GaussianState(n, [0.0, 0.0], np.eye(2)))),
    "n_shots": ("n_shots", 5, lambda n: sample_joint(
        build_dealer_state(IDEAL, 0.0, 0.0), MeasurementAssignment(("x", "p", "x")), n,
        RandomStream(7)).tolist()),
}


@pytest.mark.parametrize("case", list(_COUNTS))
def test_counts_must_be_integers(case):
    name, good, run = _COUNTS[case]
    # a float count once raised a bare TypeError from range, a float n_modes made a
    # state file that state_from_text rejects, and True ran as 1
    for bad in (float(good), str(good), None, True):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an integer$"):
            run(bad)
    # a numpy integer runs as the int does
    assert run(np.int64(good)) == run(good)


def test_batch_mse_distribution_limits():
    with pytest.raises(InvalidArgumentError):
        batch_mse_distribution(IDEAL, Coalition.AB, 10, 99, RandomStream(0))
    with pytest.raises(InvalidArgumentError):
        batch_mse_distribution(IDEAL, Coalition.AB, 0, 100, RandomStream(0))
    with pytest.raises(ResourceLimitError):
        batch_mse_distribution(IDEAL, Coalition.AB, 10_000_000, 100, RandomStream(0))


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "job",
    [
        lambda n: run_protocol(IDEAL, PLAN, n, Coalition.ABC, POLICY, RandomStream(61),
                               keep_records=False),
        lambda n: run_protocol(IDEAL, DisplacementPlan.gaussian_modulated(2.0, n_rep=3), n,
                               Coalition.AB, POLICY, RandomStream(61), gain_mode="fitted",
                               keep_records=False),
        lambda n: run_protocol(IDEAL, PLAN, n, Coalition.A_ALONE, POLICY, RandomStream(61),
                               keep_records=False),
        lambda n: witness_verification_run(IDEAL, 1.0, -1.0, n, RandomStream(61)),
        lambda n: batch_mse_distribution(IDEAL, Coalition.ABC, n // 100, 100, RandomStream(61)),
    ],
    ids=["abc", "ab-fitted-gaussian", "a_alone", "witness", "batch"],
)
def test_peak_memory_does_not_grow_with_n_rounds(monkeypatch, job):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 4096)
    small = _peak_bytes(lambda: job(4 * 4096 + 100))
    large = _peak_bytes(lambda: job(4 * (4 * 4096 + 100)))
    # full-length round columns would take about 4x the small run's peak
    assert large <= 1.1 * small


def test_peak_memory_of_a_recorded_run_is_its_table_plus_a_few_chunks(monkeypatch):
    # a run that keeps its records holds its whole-run table and, while a chunk is
    # drawn, that chunk's arrays: about 2.3 chunk tables at the peak here; a chunk
    # table that outlived the draw of the next chunk added one more
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 4096)
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=3)

    def job(n):
        return run_protocol(IDEAL, plan, n, Coalition.AB, POLICY, RandomStream(61),
                            gain_mode="fitted")

    row = sum(column.nbytes for column in vars(RoundTable.empty(1)).values())
    assert row == 77
    job(4096)  # the first run fills caches that later runs reuse
    for n in (4 * 4096 + 100, 16 * 4096 + 100):
        assert _peak_bytes(lambda: job(n)) <= row * (n + 2.75 * 4096)


@pytest.mark.parametrize("n_rep", [3, 120])
def test_chunk_edges_keep_blocks_subsets_and_fitted_counts(monkeypatch, n_rep):
    # chunks of 50 rounds: n_rep = 3 blocks cross chunk edges, n_rep = 120
    # blocks span whole chunks, and the last chunk holds 31 rounds
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 50)
    n = 1031
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=n_rep)
    res = run_protocol(IDEAL, plan, n, Coalition.ABC, POLICY, RandomStream(59),
                       gain_mode="fitted")
    t = res.records
    assert np.array_equal(t.round_index, np.arange(n))
    blocks = np.arange(n) // n_rep
    for col in (t.alpha_x, t.alpha_p):
        assert np.array_equal(col, col[blocks * n_rep])
        assert np.unique(col).size == blocks[-1] + 1
    # the chunks' subset shares add up to the run's targets
    n_witness = res.witness.n_x + res.witness.n_p
    assert n_witness == round(POLICY.witness_fraction * n)
    assert res.bias.n_rounds == round(POLICY.bias_fraction * n)
    # calibration takes half of the estimation rounds, counted across chunks
    n_est = int(t.kept.sum()) - n_witness - res.bias.n_rounds
    assert res.mse_report.n_x + res.mse_report.n_p == n_est - n_est // 2
    assert res.bias.status == "ok"
    # for ab the witness pool is a quarter of the rounds, so a witness fraction
    # of 0.22 leaves some chunks short; later chunks make up the shortfall as far as
    # their own pools reach: each takes what is due by its end, or its whole pool
    greedy = ProtocolPolicy(witness_fraction=0.22)
    run = protocol._ProtocolRun(IDEAL, plan, n, Coalition.AB, greedy, RandomStream(59),
                                "analytic", keep_records=True)
    taken, made_up = 0, False
    for ch in _drawn(run):
        start, end = ch.table.round_index[0], ch.table.round_index[-1] + 1
        t = ch.table
        pool = int(np.count_nonzero(ch.kept & (t.basis_b == t.dealer_basis)
                                    & (t.basis_c == t.dealer_basis)))
        due = round(0.22 * end) - taken
        took = int(np.count_nonzero(ch.witness))
        assert took == min(due, pool)
        made_up |= took > round(0.22 * end) - round(0.22 * start)
        taken += took
    assert made_up
    res = run_protocol(IDEAL, plan, n, Coalition.AB, greedy, RandomStream(59),
                       keep_records=False)
    assert res.witness.n_x + res.witness.n_p == taken


def _drawn(run):
    """Every chunk of a run as its draw method gives it, before any reduction."""
    for start, end, gen in protocol._chunks(run.stream, run.n_rounds):
        yield run._draw(start, end, gen)


def _chunks(coalition, n, fitted, plan=PLAN):
    run = protocol._ProtocolRun(IDEAL, plan, n, coalition, POLICY, RandomStream(67),
                                "fitted" if fitted else "analytic", keep_records=True)
    return list(_drawn(run))


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_chunk_masks_partition_the_rounds(monkeypatch, coalition):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    n = 1000
    lone = coalition is Coalition.A_ALONE
    chunks = _chunks(coalition, n, fitted=not lone)
    assert [ch.table.round_index[0] for ch in chunks] == list(range(0, n, 64))
    counts = dict.fromkeys(("discarded", "witness", "bias", "calib", "estimation"), 0)
    for ch in chunks:
        est = ch.kept & ~ch.witness & ~ch.bias & ~ch.calib
        parts = {"discarded": ~ch.kept, "witness": ch.witness, "bias": ch.bias,
                 "calib": ch.calib, "estimation": est}
        # every round falls in exactly one part
        assert np.array_equal(sum(p.astype(int) for p in parts.values()),
                              np.ones(ch.kept.size, dtype=int))
        # witness rounds are rounds where every party homodyned the dealer's basis
        others = (ch.table.basis_b == ch.dealer_basis) & (ch.table.basis_c == ch.dealer_basis)
        assert np.all(others[ch.witness])
        if not lone:
            assert np.all(ch.kept[ch.witness])
        for name, mask in parts.items():
            counts[name] += int(mask.sum())
    assert sum(counts.values()) == n
    res = run_protocol(IDEAL, PLAN, n, coalition, POLICY, RandomStream(67),
                       gain_mode="analytic" if lone else "fitted")
    # a lone A's bias check reads both quadratures of each of its rounds, but
    # counts rounds
    assert res.bias.n_rounds == counts["bias"]
    assert res.witness.n_x + res.witness.n_p == counts["witness"]
    n_est = res.mse_report.n_x if lone else res.mse_report.n_x + res.mse_report.n_p
    assert n_est == counts["estimation"]
    if lone:
        assert res.mse_report.n_p == counts["estimation"]


def test_fitted_gain_is_exact_over_the_calibration_reads(monkeypatch):
    # one pass: each chunk's calibration reads are its calibration rounds in the
    # dealer's basis, and the run's gain is the least-squares fit over them; the
    # reference residuals and auxiliaries come from the chunk's records
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    n = 1000
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=3)
    r, u = [], []
    for ch in _chunks(Coalition.ABC, n, fitted=True, plan=plan):
        assert [c.quad for c in ch.calibration] == [0, 1]
        for c in ch.calibration:
            assert np.array_equal(c.rows, np.flatnonzero(ch.calib & (ch.dealer_basis == c.quad)))
            quad = "xp"[c.quad]
            a, b, cc = (getattr(ch.table, f"{quad}_{party}")[c.rows] for party in "abc")
            truth = getattr(ch.table, f"alpha_{quad}")[c.rows]
            # the read holds a normal of each of the three parties for each of its rounds
            assert c.z.shape == (3, truth.size) and c.err is None
            r.append(a - truth)
            sign = -1.0 if c.quad else 1.0
            u.append(sign * (b - cc) / math.sqrt(2.0))
        # no calibration round is read again by the reports
        for read in ch.reads:
            assert not ch.calib[read.rows].any()
    res = run_protocol(IDEAL, plan, n, Coalition.ABC, POLICY, RandomStream(67),
                       gain_mode="fitted", keep_records=False)
    expect = fit_gain(np.concatenate(r), np.concatenate(u))
    assert res.mse_report.gains.g_bc == pytest.approx(expect, rel=1e-12)


class _CountingGenerator:
    """A chunk generator that records the size of every normal draw made through it, and
    the shape and size of every gamma draw."""

    def __init__(self, gen, sizes, gammas):
        self._gen, self._sizes, self._gammas = gen, sizes, gammas

    def standard_normal(self, size):
        out = self._gen.standard_normal(size)
        self._sizes.append(out.size)
        return out

    def standard_gamma(self, shape, size):
        out = self._gen.standard_gamma(shape, size)
        self._gammas.append((shape, out.size))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_draws(monkeypatch) -> tuple[list, list]:
    sizes, gammas = [], []
    chunk_generator = RandomStream.chunk_generator
    monkeypatch.setattr(RandomStream, "chunk_generator", lambda self, i: _CountingGenerator(
        chunk_generator(self, i), sizes, gammas))
    return sizes, gammas


def _count_normals(monkeypatch) -> list:
    return _count_draws(monkeypatch)[0]


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_run_draws_the_normals_its_reads_need(monkeypatch, coalition, gain_mode):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    n, n_chunks = 5000, 5
    plan = DisplacementPlan.gaussian_modulated(2.0)
    t = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71),
                     gain_mode=gain_mode).records
    kept = int(t.kept.sum())
    # a kept round is read in each quadrature its A reads: the dealer's, or both for a
    # lone A's dual homodyne
    reads = sum(int(np.count_nonzero(t.kept & (t.basis_a != 1 - q))) for q in (X, P))
    sizes = _count_normals(monkeypatch)
    res = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71),
                       gain_mode=gain_mode, keep_records=False)
    lone = coalition is Coalition.A_ALONE
    n_read = 1 if lone else 3 if coalition is Coalition.ABC else 2
    n_witness = res.witness.n_x + res.witness.n_p
    if lone:
        assert reads == 2 * n and n_witness == 0
    else:
        assert reads == kept and n_witness == round(POLICY.witness_fraction * n)
        n_est = kept - n_witness - res.bias.n_rounds
        n_calib = n_est - (res.mse_report.n_x + res.mse_report.n_p)
        assert n_calib == (n_est // 2 if gain_mode == "fitted" else 0)
    # one pass in either gain mode: the x and the p values of the blocks due, one per
    # witness round at n_rep = 1 (a lone A's rounds witness nothing, so it makes no
    # block draw); n_read normals per read round, calibration rounds included; and
    # 3 - n_read per witness round, the rows the witness reads and the reports do not.
    # A discarded round draws nothing
    per_chunk = 2 if lone else 4
    assert len(sizes) == per_chunk * n_chunks
    if not lone:
        assert sum(sizes[0::4]) == sum(sizes[1::4]) == n_witness
    assert sum(sizes[per_chunk - 2 :: per_chunk]) == n_read * reads
    assert sum(sizes[per_chunk - 1 :: per_chunk]) == (3 - n_read) * n_witness
    # with the records every round draws its x and p triple once, its blocks included
    sizes.clear()
    run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71), gain_mode=gain_mode)
    assert sum(sizes) == 2 * n + 6 * n


@pytest.mark.parametrize("coalition", [Coalition.AB, Coalition.ABC], ids=lambda c: c.value)
def test_blocks_are_drawn_where_a_witness_round_reads_them(monkeypatch, coalition):
    # chunks of 1024 rounds and blocks of 3: a chunk draws, before its reads, the blocks
    # that start in it and hold one of its witness rounds or run past its end, two
    # normals each; the other blocks wait for the records
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    n, n_rep = 5000, 3
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=n_rep)
    run = protocol._ProtocolRun(IDEAL, plan, n, coalition, POLICY, RandomStream(71), "analytic",
                                keep_records=False)
    witness = np.concatenate([ch.witness for ch in _drawn(run)])
    assert witness.sum() == round(POLICY.witness_fraction * n)
    due = 0
    for start in range(0, n, 1024):
        end = min(start + 1024, n)
        for first in range(-(-start // n_rep) * n_rep, end, n_rep):
            due += first + n_rep > end or bool(witness[first : first + n_rep].any())
    sizes = _count_normals(monkeypatch)
    run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71), keep_records=False)
    # the chunk's first two draws are its blocks' x and p values
    n_chunks = -(-n // 1024)
    assert len(sizes) == 4 * n_chunks
    assert sum(sizes[0::4]) == sum(sizes[1::4]) == due
    # far fewer than the blocks that hold a kept round
    assert due < (n // n_rep) // 4


def test_a_lone_a_draws_no_block_without_its_records(monkeypatch):
    # a lone A's rounds witness nothing and the displacement cancels from its reads, so
    # without records a chunk draws only its reads' normals and an empty witness draw,
    # even where a block runs past the chunk's end; with records every block is drawn
    # once
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    n, n_chunks = 5000, 5
    sizes = _count_normals(monkeypatch)
    for n_rep in (1, 3, 1000):
        plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=n_rep)
        sizes.clear()
        off = run_protocol(IDEAL, plan, n, Coalition.A_ALONE, POLICY, RandomStream(71),
                           keep_records=False)
        assert sizes == [2 * min(1024, n - start) if i % 2 == 0 else 0
                         for start in range(0, n, 1024) for i in (0, 1)]
        sizes.clear()
        on = run_protocol(IDEAL, plan, n, Coalition.A_ALONE, POLICY, RandomStream(71))
        assert tuple(on[1:]) == tuple(off[1:])
        # the reads' normals, an empty witness draw, then the records' blocks (x and p),
        # B's and C's normals in x and in p, and the empty draws of the unread rounds
        assert len(sizes) == 8 * n_chunks
        assert sum(sizes[2::8]) == sum(sizes[3::8]) == -(-n // n_rep)
        assert sum(sizes) == 2 * -(-n // n_rep) + 6 * n


def test_witness_run_draws_one_normal_per_round(monkeypatch):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    sizes = _count_normals(monkeypatch)
    witness_verification_run(IDEAL, 1.0, -1.0, 5000, RandomStream(71))
    assert len(sizes) == 5 and sum(sizes) == 5000


def test_batch_run_draws_one_gamma_per_batch_and_quadrature(monkeypatch):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    sizes, gammas = _count_draws(monkeypatch)
    batch_mse_distribution(IDEAL, Coalition.ABC, 30, 150, RandomStream(71))
    # one draw per chunk of batches: a batch's summed squared errors in x and in p, each
    # a Gamma(N / 2) draw; no normal is drawn per probe
    assert sizes == []
    assert gammas == [(15.0, 128), (15.0, 128), (15.0, 44)]


@pytest.mark.parametrize("m", [1, 7, 8, 9, 65535, 65536])
def test_coins_at_the_byte_edges(m):
    gen = RandomStream(5).chunk_generator(0)
    coins = protocol._coin(gen, m)
    assert coins.dtype == np.int8 and coins.shape == (m,)
    assert np.isin(coins, (0, 1)).all()
    # a coin array takes whole bytes of the stream
    after = gen.bytes(1)
    gen = RandomStream(5).chunk_generator(0)
    gen.bytes(-(-m // 8))
    assert gen.bytes(1) == after


def test_coins_are_fair():
    n = 1_000_000
    coins = protocol._coin(RandomStream(7).chunk_generator(0), n)
    assert abs(coins.mean() - 0.5) <= 5.0 * 0.5 / math.sqrt(n)


def test_a_last_chunk_of_one_round():
    # 65537 rounds leave one round for the last chunk: one coin per basis, and a
    # subset share and a triple of at most one round
    n = protocol._CHUNK_ROUNDS + 1
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=3)
    for coalition in (Coalition.AB, Coalition.A_ALONE):
        on = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(79))
        off = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(79),
                           keep_records=False)
        assert on.mse_report == off.mse_report and on.bias == off.bias
        last = on.records[n - 1 :]
        assert last.round_index.tolist() == [n - 1]
        # its block began in the chunk before, at round n - 2
        assert last.alpha_x[0] == on.records.alpha_x[n - 2] != on.records.alpha_x[n - 3]
        for name in protocol.BASIS_COLUMNS:
            assert getattr(last, name)[0] in ((0, 1, 2) if name == "basis_a" else (0, 1))
        read = [name for name in protocol.OUTCOME_COLUMNS if not np.isnan(getattr(last, name)[0])]
        assert len(read) == (4 if coalition is Coalition.A_ALONE else 3)
        assert all(np.isfinite(getattr(last, name)[0]) for name in read)


def test_lone_factor_carries_the_vacuum():
    # a lone A draws its dual-homodyne outcome from the Cholesky factor of the
    # (A, B, C) block with a unit on A, which is the law outcome_moments gives
    model = ExperimentModel(r=0.8, eta_a=0.9, eta_b=0.8, eps_c=0.05)
    seen = [protocol._ProtocolRun(model, PLAN, 100, Coalition.A_ALONE, POLICY, RandomStream(3),
                                  "analytic", keep_records=True).factors]
    state = build_dealer_state(model, 0.0, 0.0)
    unit_on_a = np.diag([1.0, 0.0, 0.0])
    for q, quad in enumerate("xp"):
        idx = estimators.TRIPLE_INDICES[q]
        assert np.array_equal(seen[0][q],
                              np.linalg.cholesky(state.cov[np.ix_(idx, idx)] + unit_on_a))
        # outcome columns of homodyne C and B and dual-homodyne A, in mode order
        _, law = outcome_moments(state, MeasurementAssignment((quad, quad, "xp")))
        cols = [2 + q, 1, 0]  # (A's quad, B, C) among the columns (C, B, x_A, p_A)
        np.testing.assert_allclose(seen[0][q] @ seen[0][q].T, law[np.ix_(cols, cols)],
                                   rtol=1e-13, atol=1e-13)


def test_lone_outcomes_follow_the_model_plus_the_vacuum():
    model = ExperimentModel(r=0.8, eta_a=0.9, eta_b=0.8, eps_c=0.05)
    t = run_protocol(model, DisplacementPlan.gaussian_modulated(2.0), 40_000, Coalition.A_ALONE,
                     POLICY, RandomStream(83)).records
    cov = build_dealer_state(model, 0.0, 0.0).cov
    x_a = t.x_a - math.sqrt(model.eta_a) * t.alpha_x
    p_a = t.p_a - math.sqrt(model.eta_a) * t.alpha_p
    # the outcomes have mean 0, so the moments are taken about 0
    for a, var in ((x_a, cov[estimators.X_A, estimators.X_A] + 1.0),
                   (p_a, cov[estimators.P_A, estimators.P_A] + 1.0)):
        k = a.size
        assert abs(a @ a / k - var) <= 5.0 * var * math.sqrt(2.0 / k)
    on_x = t.basis_b == X
    a, b = x_a[on_x], t.x_b[on_x]
    k = a.size
    var_a, var_b = cov[estimators.X_A, estimators.X_A] + 1.0, cov[estimators.X_B, estimators.X_B]
    c = cov[estimators.X_A, estimators.X_B]
    assert abs(a @ b / k - c) <= 5.0 * math.sqrt((var_a * var_b + c * c) / k)


@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0, n_rep=3)],
                         ids=["fixed", "gaussian"])
@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_keep_records_off_gives_the_same_reports(monkeypatch, coalition, gain_mode, plan):
    # the records draw their missing normals after every draw the reports use
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 512)
    off = run_protocol(IDEAL, plan, 3000, coalition, POLICY, RandomStream(1),
                       gain_mode=gain_mode, keep_records=False)
    on = run_protocol(IDEAL, plan, 3000, coalition, POLICY, RandomStream(1),
                      gain_mode=gain_mode)
    assert len(on.records) == 3000 and len(off.records) == 0
    assert on.mse_report == off.mse_report
    assert on.witness == off.witness
    assert on.bias == off.bias


@pytest.mark.parametrize("n_rep", [1, 3, 1000])
@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_gaussian_reports_do_not_depend_on_the_records(monkeypatch, coalition, gain_mode,
                                                       n_rep):
    # a chunk draws the blocks of its witness rounds, and those running on into the next
    # chunk, before its reads, and the records draw the rest after every draw the reports
    # use; chunks of 256 rounds end on a partial one, blocks of 3 cross chunk edges and
    # blocks of 1000 span several chunks
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 256)
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=n_rep)
    off = run_protocol(IDEAL, plan, 6000, coalition, POLICY, RandomStream(5),
                       gain_mode=gain_mode, keep_records=False)
    on = run_protocol(IDEAL, plan, 6000, coalition, POLICY, RandomStream(5),
                      gain_mode=gain_mode)
    assert tuple(on[1:]) == tuple(off[1:])
    if coalition is not Coalition.A_ALONE:
        assert on.witness.status == "ok"
    # the records hold one draw per block
    blocks = np.arange(6000) // n_rep
    for col in (on.records.alpha_x, on.records.alpha_p):
        assert np.array_equal(col, col[blocks * n_rep])
        assert np.unique(col).size == blocks[-1] + 1


@pytest.mark.parametrize("policy", [ProtocolPolicy(witness_fraction=0.0),
                                    ProtocolPolicy(witness_fraction=0.0, bias_fraction=0.0)],
                         ids=["no-witness", "no-witness-no-bias"])
@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0, n_rep=3)],
                         ids=["fixed", "gaussian"])
@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_runs_without_witness_rounds(monkeypatch, coalition, gain_mode, plan, policy):
    # every chunk makes zero-size witness draws, and the records still draw after them
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 512)
    off = run_protocol(IDEAL, plan, 3000, coalition, policy, RandomStream(2),
                       gain_mode=gain_mode, keep_records=False)
    on = run_protocol(IDEAL, plan, 3000, coalition, policy, RandomStream(2),
                      gain_mode=gain_mode)
    assert tuple(on[1:]) == tuple(off[1:])
    assert on.witness.n_x == on.witness.n_p == 0
    assert on.bias.n_rounds == round(policy.bias_fraction * 3000)
    # an outcome is finite exactly where its party's basis read its quadrature
    t = on.records
    for party in "abc":
        basis = getattr(t, f"basis_{party}")
        for q, quad in enumerate("xp"):
            col = getattr(t, f"{quad}_{party}")
            assert np.array_equal(np.isfinite(col), basis != 1 - q), (party, quad)


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_chunk_tables_and_the_run_table_hold_the_same_rounds(monkeypatch, coalition, gain_mode):
    # simulate --dump-rounds writes the tables a run yields and run_protocol copies them
    # into its whole-run table; runs of 1 to 4 chunks of 64 rounds, with blocks of 3
    # rounds crossing the chunk edges
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=3)
    for n in (64, 100, 191, 256):
        run = protocol._ProtocolRun(IDEAL, plan, n, coalition, POLICY, RandomStream(n),
                                    gain_mode, keep_records=True)
        tables = list(run)
        assert [len(t) for t in tables] == [min(64, n - start) for start in range(0, n, 64)]
        joined = sum(tables[1:], tables[0])
        whole = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(n),
                             gain_mode=gain_mode)
        for name in ROUND_COLUMNS:
            got, want = getattr(joined, name), getattr(whole.records, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, name)
        assert run.result() == tuple(whole[1:])
        off = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(n),
                           gain_mode=gain_mode, keep_records=False)
        assert tuple(off[1:]) == tuple(whole[1:])


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_records_hold_the_outcomes_the_reports_read(monkeypatch, coalition):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    lone = coalition is Coalition.A_ALONE
    # a read's rows follow the factors' order, and a pair's read holds A's and the
    # partner's rows only
    order = protocol._party_order(coalition)
    run = protocol._ProtocolRun(IDEAL, PLAN, 1000, coalition, POLICY, RandomStream(67),
                                "analytic" if lone else "fitted", keep_records=True)
    for ch in _drawn(run):
        assert len(ch.reads) == 2 and len(ch.calibration) == (0 if lone else 2)
        for r in ch.calibration + ch.reads:
            assert r.z.shape[0] == (1 if lone else 3 if coalition is Coalition.ABC else 2)
            # the table's outcomes of the read rounds are those of the read's normals, and
            # a party's outcome in a quadrature its basis did not read is NaN in the table
            truth = getattr(ch.table, f"alpha_{'xp'[r.quad]}")[r.rows]
            outcomes = protocol._apply(run.factors[r.quad], r.z, run.root_eta * truth)
            for j, triple_row in enumerate(outcomes):
                party = "abc"[order[j]]
                col = getattr(ch.table, f"{'xp'[r.quad]}_{party}")[r.rows]
                read = getattr(ch.table, f"basis_{party}")[r.rows] != 1 - r.quad
                assert np.array_equal(col[read], triple_row[read])
                assert np.isnan(col[~read]).all()
        # the witness reads every party's outcome of its rounds, in (A, B, C) order, and
        # holds the normals those rounds drew after the reads'; a lone A's rounds witness
        # nothing
        assert len(ch.witnessed) == 2
        for q, (triple, truth, rows, normals) in enumerate(ch.witnessed):
            want = np.flatnonzero(ch.witness & (ch.dealer_basis == q))
            assert np.array_equal(rows, want[:0] if lone else want)
            assert triple.shape == (3, rows.size)
            assert normals.shape == (3 - ch.reads[q].z.shape[0], rows.size)
            assert np.all(truth == getattr(ch.table, f"alpha_{'xp'[q]}")[rows])
            for j, party in enumerate("abc"):
                assert np.array_equal(getattr(ch.table, f"{'xp'[q]}_{party}")[rows], triple[j])


def _magnitude(columns, weights, alpha=0.0):
    """Root mean square over the rounds of sum_j |w_j t_j| + |alpha|: the size of the
    terms a reference sums, so its rounding error is a small multiple of eps times it."""
    total = np.abs(alpha) + sum(abs(w) * np.abs(col) for w, col in zip(weights, columns) if w)
    return math.sqrt(float(np.mean(total * total)))


@pytest.mark.parametrize("r", [0.0, 1.0, 8.0])
@pytest.mark.parametrize("arms", ["ideal", "lossy"])
@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0),
                                  DisplacementPlan.gaussian_modulated(2.0, n_rep=3)],
                         ids=["fixed", "gaussian-1", "gaussian-3"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_reads_are_linear_functionals_of_the_recorded_outcomes(monkeypatch, coalition, plan,
                                                               gain_mode, arms, r):
    # every read's error, auxiliary and calibration residual, computed from its normals
    # by the run's coefficient rows, match the estimator applied to the chunk's recorded
    # outcomes, within 1e-13 of the spread of the terms the reference sums. The
    # reference subtracts alpha from an estimate whose A outcome carries sqrt(eta_A) alpha,
    # so on lossy arms it checks that the bias scale cancels the displacement
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 256)
    model = (ExperimentModel(r=r) if arms == "ideal"
             else ExperimentModel(r=r, eta_a=0.82, eta_b=0.9, eps_c=0.05))
    run = protocol._ProtocolRun(model, plan, 600, coalition, POLICY, RandomStream(97), gain_mode,
                                keep_records=True)
    fitted = run.fit is not None
    n_reads = 0
    for ch in _drawn(run):
        for i, read in enumerate(ch.calibration + ch.reads):
            quad = "xp"[read.quad]
            cols = [getattr(ch.table, f"{quad}_{party}")[read.rows]
                    if party in coalition.party_columns else None for party in "abc"]
            alpha = getattr(ch.table, f"alpha_{quad}")[read.rows]
            w0, w1 = estimators.WEIGHTS[coalition, read.quad]
            if i < len(ch.calibration):
                assert read.err is None
                want = cols[0] - run.root_eta * alpha
                got = run.functionals[read.quad].l00 * read.z[0]
                bound = 1e-13 * _magnitude(cols[:1], [1.0], run.root_eta * alpha)
                assert np.max(np.abs(got - want)) <= bound
            else:
                want = estimators.combine(cols, coalition, read.quad, run.gains) - alpha
                g = run.gains.gain(coalition)
                weights = run.gains.bias_scale * (w0 + g * w1)
                bound = 1e-13 * _magnitude(cols, weights, alpha)
                assert np.max(np.abs(read.err - want)) <= bound, (quad, bound)
            if fitted:
                want = estimators.weighted_sum(cols, -w1)
                bound = 1e-13 * _magnitude(cols, w1)
                assert np.max(np.abs(read.aux - want)) <= bound, (quad, bound)
            else:
                assert read.aux is None
            n_reads += 1
    assert n_reads == (4 if fitted else 2) * 3


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_only_witness_rounds_and_records_compute_outcomes(monkeypatch, coalition, gain_mode):
    # the reads reduce to functionals of their normals, so a run without records turns
    # normals into outcomes only for its witness rounds (none for a lone A); with records
    # every round's x and p triples as well
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    columns = []
    apply = protocol._apply

    def counting_apply(factor, z, shift_a, out=None):
        columns.append(z.shape[1])
        return apply(factor, z, shift_a, out)

    monkeypatch.setattr(protocol, "_apply", counting_apply)
    n, plan = 5000, DisplacementPlan.gaussian_modulated(2.0)
    res = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71), gain_mode=gain_mode,
                       keep_records=False)
    lone = coalition is Coalition.A_ALONE
    n_witness = 0 if lone else res.witness.n_x + res.witness.n_p
    assert n_witness > 0 or lone
    assert sum(columns) == n_witness
    columns.clear()
    run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71), gain_mode=gain_mode)
    assert sum(columns) == n_witness + 2 * n


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_recorded_outcomes_follow_the_dealer_covariance(coalition):
    # the outcomes a round records, whether the reports drew them or the records
    # drew them afterwards, are a sample of the dealer covariance (plus a vacuum
    # unit on each of a lone A's quadratures)
    model = ExperimentModel(r=0.8, eta_a=0.9, eta_b=0.8, eps_c=0.05)
    t = run_protocol(model, DisplacementPlan.gaussian_modulated(2.0), 40_000, coalition,
                     POLICY, RandomStream(73)).records
    cov = build_dealer_state(model, 0.0, 0.0).cov
    values = {name: getattr(t, name) for name in protocol.OUTCOME_COLUMNS}
    values["x_a"] = values["x_a"] - math.sqrt(model.eta_a) * t.alpha_x
    values["p_a"] = values["p_a"] - math.sqrt(model.eta_a) * t.alpha_p
    bases = np.stack((t.dealer_basis, t.basis_a, t.basis_b, t.basis_c), axis=1)
    groups = np.unique(bases, axis=0)
    assert len(groups) == (4 if coalition is Coalition.ABC else 8)
    for group in groups:
        rows = (bases == group).all(axis=1)
        names = [n for n in protocol.OUTCOME_COLUMNS if not np.isnan(values[n][rows]).any()]
        assert all(np.isnan(values[n][rows]).all() for n in protocol.OUTCOME_COLUMNS
                   if n not in names)
        assert len(names) == (4 if coalition is Coalition.A_ALONE else 3)
        idx = [protocol.OUTCOME_COLUMNS.index(n) for n in names]
        expect = cov[np.ix_(idx, idx)] + np.diag([1.0 if n[2] == "a" and group[1] == 2 else 0.0
                                                  for n in names])
        x = np.column_stack([values[n][rows] for n in names])
        k = x.shape[0]
        sample = x.T @ x / k
        se = np.sqrt((np.outer(np.diag(expect), np.diag(expect)) + expect**2) / k)
        assert np.all(np.abs(sample - expect) <= 5.0 * se), (group, names)


def _two_pass_reports(model, plan, n, coalition, stream, gains):
    """A fitted run's reports the long way: draw every chunk again with its records,
    estimate each read round from the records' outcomes with the final gain and
    reduce with RunningMoments."""
    sq = (estimators.RunningMoments(), estimators.RunningMoments())
    bias = estimators.RunningMoments()
    for ch in _drawn(protocol._ProtocolRun(model, plan, n, coalition, POLICY, stream, "fitted",
                                           keep_records=True)):
        for r in ch.reads:
            quad = "xp"[r.quad]
            outcomes = {f"{quad}_{party}": getattr(ch.table, f"{quad}_{party}")[r.rows]
                        for party in coalition.party_columns}
            truth = getattr(ch.table, f"alpha_{quad}")[r.rows]
            e = estimators.estimate(coalition, outcomes, gains, quad) - truth
            witness, is_bias = ch.witness[r.rows], ch.bias[r.rows]
            e_est = e[~(witness | is_bias)]
            sq[r.quad].add(e_est * e_est)
            bias.add(e[is_bias])
    split = estimators.RESOURCE_SPLIT_FACTOR
    return split * sq[0].mean, split * sq[1].mean, bias.mean, bias.standard_error()


@pytest.mark.parametrize("r", [1.0, 4.0, 8.0])
@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0, n_rep=3)],
                         ids=["fixed", "gaussian"])
@pytest.mark.parametrize("coalition", [Coalition.AB, Coalition.AC, Coalition.ABC],
                         ids=lambda c: c.value)
def test_one_pass_fitted_reports_match_the_two_pass_reference(monkeypatch, coalition, plan, r):
    # the one-pass sums, shifted from the analytic gain to the fitted one, give the
    # reports of estimating every round again with the fitted gain; sizes put the
    # run's end on a chunk edge, one round past it and one round short of it
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    model = ExperimentModel(r=r, eta_a=0.9, eta_b=0.95, eps_c=0.02)
    for seed, n in ((1, 640), (2, 641), (3, 1023)):
        res = run_protocol(model, plan, n, coalition, POLICY, RandomStream(seed),
                           gain_mode="fitted", keep_records=False)
        mse_x, mse_p, mean, se = _two_pass_reports(model, plan, n, coalition,
                                                   RandomStream(seed), res.mse_report.gains)
        assert res.mse_report.mse_x == pytest.approx(mse_x, rel=1e-12, abs=0.0)
        assert res.mse_report.mse_p == pytest.approx(mse_p, rel=1e-12, abs=0.0)
        assert res.bias.standard_error == pytest.approx(se, rel=1e-9, abs=0.0)
        assert abs(res.bias.mean_error - mean) <= 1e-9 * se


def _reference_sd(model, coalition) -> np.ndarray:
    """Per quadrature the spread of a probe's error through the reference sampler's law:
    the resource-split variance of the weighted outcomes, (outcome_moments' covariance)
    @ w, square-rooted."""
    base = build_dealer_state(model, 0.0, 0.0)
    if coalition is Coalition.A_ALONE:
        bias = 1.0 / math.sqrt(model.eta_a)
        draws = [(partial_trace(base, [2]), ("xp",), np.diag([bias, bias]), 1.0)]
    else:
        gains = estimators.gains_for_model(model, coalition)
        bias = gains.bias_scale
        if coalition is Coalition.ABC:
            g = gains.g_bc / math.sqrt(2.0)
            draws = [(base, (q, q, q), bias * np.array([[s * g], [-s * g], [1.0]]), 2.0)
                     for q, s in (("x", 1.0), ("p", -1.0))]
        else:
            g = gains.g_b
            def choice(q):
                return ("none", q, q) if coalition is Coalition.AB else (q, "none", q)
            draws = [(base, choice(q), bias * np.array([[-s * g], [1.0]]), 2.0)
                     for q, s in (("x", 1.0), ("p", -1.0))]
    variances = []
    for state, assignment, w, factor in draws:
        _, cov = outcome_moments(state, MeasurementAssignment(assignment))
        variances.extend(factor * np.diag(w.T @ cov @ w))
    sd = np.sqrt(variances)
    assert sd.shape == (2,)
    return sd


def _sample_joint_batches(model, coalition, n_probes, n_batches, stream):
    """batch_mse_distribution through the reference sampler's law: a batch's summed
    squared errors in a quadrature are sd^2 chi^2_N = 2 sd^2 Gamma(N / 2), one gamma
    per batch and quadrature, x before p, from the same chunk generators."""
    sd = _reference_sd(model, coalition)
    total = np.zeros(n_batches)
    for i, start in enumerate(range(0, n_batches, protocol._CHUNK_ROUNDS)):
        m = min(protocol._CHUNK_ROUNDS, n_batches - start)
        gamma = stream.chunk_generator(i).standard_gamma(n_probes / 2.0, (2, m))
        total[start : start + m] = np.sum(2.0 * sd[:, None] ** 2 * gamma, axis=0)
    return total / n_probes


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_batch_distribution_matches_the_reference_sampler(monkeypatch, coalition):
    # a batch's sum of squared errors in a quadrature is one gamma draw scaled by twice
    # the variance of the estimator's weighted outcomes, drawn in the same order as the
    # reference; 150 batches in chunks of 64 end on a partial chunk
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    model = ExperimentModel(r=1.2, eta_a=0.85, eta_b=0.9, eps_c=0.05)
    for seed in (3, 4):
        got = batch_mse_distribution(model, coalition, 7, 150, RandomStream(seed))
        want = _sample_joint_batches(model, coalition, 7, 150, RandomStream(seed))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _per_probe_batches(sd, n_probes, n_batches, gen) -> np.ndarray:
    """Each batch's summed MSE the long way: one error normal per probe and quadrature,
    scaled by its spread, squared and summed over the batch's N probes."""
    err = sd[:, None] * gen.standard_normal((2, n_batches * n_probes))
    return np.sum(err * err, axis=0).reshape(n_batches, n_probes).sum(axis=1) / n_probes


def _moments_and_errors(values) -> tuple[float, float, float, float]:
    """Sample mean and variance of the values, each with its standard error."""
    k = values.size
    mean, var = float(np.mean(values)), float(np.var(values, ddof=1))
    m4 = float(np.mean((values - mean) ** 4))
    return mean, math.sqrt(var / k), var, math.sqrt(max(m4 - var * var, 0.0) / k)


@pytest.mark.parametrize("n_probes", [1, 7, 500])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_batch_distribution_follows_the_per_probe_normal_sum(coalition, n_probes):
    # the one-gamma batch sums follow the law of summing each probe's squared error
    # normal: batch means and variances agree within 5 standard errors of their
    # difference, for a single probe, a few and many
    model = ExperimentModel(r=1.2, eta_a=0.85, eta_b=0.9, eps_c=0.05)
    n_batches = 4000
    got = batch_mse_distribution(model, coalition, n_probes, n_batches, RandomStream(101))
    want = _per_probe_batches(_reference_sd(model, coalition), n_probes, n_batches,
                              np.random.default_rng(103))
    mean_g, se_mean_g, var_g, se_var_g = _moments_and_errors(got)
    mean_w, se_mean_w, var_w, se_var_w = _moments_and_errors(want)
    assert abs(mean_g - mean_w) <= 5.0 * math.hypot(se_mean_g, se_mean_w)
    assert abs(var_g - var_w) <= 5.0 * math.hypot(se_var_g, se_var_w)


@pytest.mark.parametrize("surrogate", [False, True], ids=["plain", "surrogate"])
def test_witness_run_follows_the_law_of_its_folded_combination(surrogate):
    # a round's witness error c.t - alpha_q/sqrt(2) is normal, with t ~ N(mu_q, Sigma_q)
    # the outcomes of the distributed state, so split * e^2 has mean
    # split (sigma_q^2 + offset_q^2) and variance split^2 (2 sigma_q^4 + 4 sigma_q^2 offset_q^2);
    # under loss on A the offset is (sqrt(eta_A) - 1) alpha_q / sqrt(2)
    model = ExperimentModel(r=0.8, eta_a=0.9, eta_b=0.8, eps_c=0.05)
    alpha = (2.0, -1.5)
    res = witness_verification_run(model, *alpha, 200_000, RandomStream(89), surrogate=surrogate)
    st = (surrogate_intercept_state if surrogate else build_dealer_state)(model, *alpha)
    h = 1.0 / math.sqrt(2.0)
    # x_A/sqrt(2) - (x_B - x_C)/2 and p_A/sqrt(2) + (p_B - p_C)/2 over (A, B, C)
    weights = (np.array([h, -0.5, 0.5]), np.array([h, 0.5, -0.5]))
    split = estimators.RESOURCE_SPLIT_FACTOR
    for c, idx, a, mse, n in zip(weights, estimators.TRIPLE_INDICES, alpha,
                                 (res.mse_x, res.mse_p), (res.n_x, res.n_p)):
        idx = list(idx)
        var = c @ st.cov[np.ix_(idx, idx)] @ c
        offset = c @ st.mean[idx] - a * h
        se = split * math.sqrt((2.0 * var * var + 4.0 * var * offset * offset) / n)
        assert abs(mse - split * (var + offset * offset)) <= 5.0 * se
