"""End-to-end protocol runs: sifting, verification subsets, reports."""

import contextlib
import copy
import functools
import json
import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cvshare import estimators, protocol
from cvshare.bounds import predicted_mse, witness_bound
from cvshare.errors import (
    AbortLossError,
    DegenerateAuxiliaryError,
    InvalidArgumentError,
    ProtocolFailureError,
    ResourceLimitError,
)
from cvshare.estimators import Coalition, fit_gain
from cvshare.gaussian_core import (
    ALPHA_MAX,
    EPS_MAX,
    ETA_MIN,
    R_MAX,
    ExperimentModel,
    GaussianState,
    build_dealer_state,
    dealer_covariances,
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
    # both runs draw the same counts; a recorded run's reports are its records' own
    run, chunks, reports = _run_chunks(IDEAL, PLAN, 1000, Coalition.AB, "analytic", 1)
    assert _counted(reports) == _counted(res[1:])
    _assert_the_records_give_the_reports(run, chunks, reports, IDEAL.eta_a)


def _replay_first_chunk(coalition: Coalition, n: int, v_dist: float, seed: int) -> dict:
    """The round-table columns of an n-round analytic run on IDEAL with a gaussian plan
    of n_rep 1, replayed by hand from chunk 0's stream in stream layout 11: the counts,
    then the records drawn free, with numpy's own linear algebra."""
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0, 0))))
    lone = coalition is Coalition.A_ALONE
    three = coalition is Coalition.ABC
    # a round's cell per dealer basis: kept in the witness pool, kept outside it, discarded
    cells = (0.0, 0.5, 0.0) if lone else (0.25, 0.0, 0.25) if three else (0.125, 0.125, 0.25)
    cell = gen.multinomial(n, cells * 2).reshape(2, 3)
    # rounds per (role, dealer basis, pool); roles witness, bias, calibration, estimation,
    # discarded
    counts = np.zeros((5, 2, 2), dtype=np.int64)
    counts[4, :, 0] = cell[:, 2]
    kept = cell[:, :2].copy()
    take = min(round(POLICY.witness_fraction * n), int(kept[:, 0].sum()))
    if take:
        counts[0, :, 0] = gen.multivariate_hypergeometric(kept[:, 0], take)
    kept -= counts[0]
    take = min(round(POLICY.bias_fraction * n), int(kept.sum()))
    counts[1] = gen.multivariate_hypergeometric(kept.ravel(), take).reshape(2, 2)
    counts[3] = kept - counts[1]
    # the records: a uniform arrangement of the labels, the coins no label fixes, the
    # blocks, then every round's normals in the layout, x then p
    perm = gen.permutation(n)
    label = np.repeat(np.arange(20), counts.ravel())[perm]
    role, dealer, pool = label // 4, (label // 2) % 2, label % 2
    kept = role != 4
    if lone:
        bases = {"a": np.full(n, XP), "b": _coins(gen, n), "c": _coins(gen, n)}
    else:
        shared = np.where(kept, dealer, 1 - dealer)
        other = np.where(pool == 0, dealer, 1 - dealer)
        if not three:
            other[~kept] = _coins(gen, int((~kept).sum()))
        else:
            other = shared
        bases = {"a": shared, "b": other if coalition is Coalition.AC else shared,
                 "c": shared if coalition is Coalition.AC else other}
    alpha = math.sqrt(v_dist) * gen.standard_normal((2, n))
    normals = gen.standard_normal((2, 3, n))
    order = (0, 2, 1) if coalition is Coalition.AC else (0, 1, 2)
    cov = build_dealer_state(IDEAL, 0.0, 0.0).cov
    vacuum = np.diag([1.0 if lone else 0.0, 0.0, 0.0])
    factors = [np.linalg.cholesky(cov[np.ix_(idx, idx)] + vacuum)
               for idx in ([quad[j] for j in order] for quad in estimators.TRIPLE_INDICES)]
    want = {"round_index": np.arange(n), "alpha_x": alpha[0], "alpha_p": alpha[1],
            "dealer_basis": dealer, "kept": kept}
    for q in (0, 1):
        outcomes = (factors[q] @ normals[q])[:, perm]
        outcomes[0] += alpha[q]
        for j, party in enumerate("abc"):
            value = outcomes[order.index(j)]
            want[f"{'xp'[q]}_{party}"] = np.where(bases[party] == 1 - q, np.nan, value)
    for party in "abc":
        want[f"basis_{party}"] = bases[party]
    return want


def _coins(gen, n):
    """n fair coins: the bits of ceil(n / 8) random bytes, most significant bit first."""
    return np.unpackbits(np.frombuffer(gen.bytes(-(-n // 8)), np.uint8))[:n].astype(np.int8)


def test_round_columns_hold_the_drawn_rounds():
    # every round of a one-chunk run as drawn by stream layout 11: the counts, then the
    # arrangement, the coins, the displacements and the normals, free; the outcomes are
    # replayed with numpy's linear algebra, so they agree to rounding, and every other
    # column exactly
    n = 100
    plan = DisplacementPlan.gaussian_modulated(1.5)
    for coalition in Coalition:
        res = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(3))
        want = _replay_first_chunk(coalition, n, 1.5, 3)
        assert len(res.records) == n
        for name in ROUND_COLUMNS:
            got = getattr(res.records, name)
            if name in protocol.OUTCOME_COLUMNS:
                np.testing.assert_allclose(got, want[name], rtol=1e-12, atol=1e-13,
                                           err_msg=name)
            else:
                assert np.array_equal(got, want[name]), (coalition, name)


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
    # a table adds only a table
    with pytest.raises(TypeError):
        RoundTable.empty() + 1


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


@pytest.mark.parametrize("plan", [DisplacementPlan.fixed(2.0, -1.0, n_rep=4),
                                  DisplacementPlan.gaussian_modulated(1.5)],
                         ids=["fixed", "gaussian"])
def test_an_integer_key_gives_the_one_row_table(plan):
    # an integer key gave 0-d columns, whose len() raised IndexError
    t = run_protocol(IDEAL, plan, 3000, Coalition.AB, POLICY, RandomStream(47)).records
    for key in (0, 5, 2999, -1, -3000, np.int64(7), np.int32(-3), np.uint8(200)):
        got = t[key]
        row = int(key) % len(t)
        want = t[row : row + 1]
        assert len(got) == 1 and got.round_index[0] == row
        for name in ROUND_COLUMNS:
            col, ref = getattr(got, name), getattr(want, name)
            assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes(), (key, name)
            assert col.strides == getattr(t, name).strides, (key, name)
    for key in (3000, -3001, np.int64(10**6)):
        with pytest.raises(IndexError):
            t[key]


def _assert_broadcast(table: RoundTable, alphas) -> None:
    """The table's displacement columns are read-only views of one value each (stride 0)."""
    for name, alpha in zip(("alpha_x", "alpha_p"), alphas):
        col = getattr(table, name)
        assert col.strides == (0,) and not col.flags.writeable, name
        assert col.shape == (len(table),) and np.all(col == alpha), name


def test_fixed_plan_displacements_stay_one_broadcast_value():
    # 2/sqrt(4) and -1/sqrt(4): the value is the chunk's own, scale included
    alphas = (1.0, -0.5)
    plan = DisplacementPlan.fixed(2.0, -1.0, n_rep=4)
    t = run_protocol(IDEAL, plan, 3000, Coalition.ABC, POLICY, RandomStream(5)).records
    _assert_broadcast(t, alphas)
    xs, ps = sift(t, "x"), sift(t, "p")
    rng = np.random.default_rng(3)
    for got in (xs, ps, t[t.kept], t[10:2000:7], t[::-1], t[5:5], t[rng.permutation(3000)[:50]],
                t[np.array([], dtype=np.int64)], t[7], t[np.int64(-1)], xs + ps,
                RoundTable.empty() + t[:3], t[:3] + RoundTable.empty()):
        _assert_broadcast(got, alphas)
    _assert_same_rounds(xs + ps, t[np.concatenate((np.flatnonzero(t.kept & (t.dealer_basis == X)),
                                                   np.flatnonzero(t.kept & (t.dealer_basis == P))))])
    # two broadcast values that differ give each table's own value for its rows
    other = run_protocol(IDEAL, DisplacementPlan.fixed(-0.25, 3.0), 500, Coalition.ABC, POLICY,
                         RandomStream(6)).records
    joined = t[:200] + other
    assert joined.alpha_x.tolist() == [1.0] * 200 + [-0.25] * 500
    assert joined.alpha_p.tolist() == [-0.5] * 200 + [3.0] * 500
    # -0.0 and 0.0 compare equal but are two values
    zero = run_protocol(IDEAL, DisplacementPlan.fixed(0.0, 0.0), 500, Coalition.AB, POLICY,
                        RandomStream(7)).records
    minus_zero = run_protocol(IDEAL, DisplacementPlan.fixed(-0.0, 0.0), 500, Coalition.AB,
                              POLICY, RandomStream(7)).records
    signs = np.signbit((zero + minus_zero).alpha_x)
    assert not signs[:500].any() and signs[500:].all()
    _assert_broadcast(zero + zero, (0.0, 0.0))


def test_gaussian_plan_displacements_stay_full_columns():
    t = run_protocol(IDEAL, DisplacementPlan.gaussian_modulated(1.5), 3000, Coalition.ABC, POLICY,
                     RandomStream(5)).records
    for got in (t, sift(t, "x"), t[10:20], t[4], sift(t, "x") + sift(t, "p")):
        for col in (got.alpha_x, got.alpha_p):
            assert col.strides == (8,)
    assert np.unique(t.alpha_x).size == 3000


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
    # the caps count what the call holds, 8 B a batch, and the probes up to the longest run;
    # a product of the two refused 67,000 probes x 1,000 batches, which draw 2,000 gammas
    with pytest.raises(ResourceLimitError, match=r"^n_batches exceeds the cap of 200000000$"):
        batch_mse_distribution(IDEAL, Coalition.AB, 10, protocol.DEFAULT_BATCH_TERM_CAP + 1,
                               RandomStream(0))
    with pytest.raises(ResourceLimitError,
                       match=r"^n_probes_per_quadrature exceeds the cap of 1000000000$"):
        batch_mse_distribution(IDEAL, Coalition.AB, MAX_ROUNDS + 1, 100, RandomStream(0))
    for n_probes, n_batches in ((67_000, 1_000), (MAX_ROUNDS, 100)):
        values = batch_mse_distribution(IDEAL, Coalition.ABC, n_probes, n_batches,
                                        RandomStream(1))
        assert values.shape == (n_batches,) and np.all(np.isfinite(values) & (values > 0))


@pytest.mark.parametrize("coalition", ["ab", None])
def test_sampled_paths_reject_a_coalition_that_is_not_one(coalition):
    # a string or None was an AttributeError in the batch; every path that
    # takes a Coalition names it in an InvalidArgumentError
    message = f"^unknown coalition {coalition!r}$"
    with pytest.raises(InvalidArgumentError, match=message):
        batch_mse_distribution(ExperimentModel(r=1.0), coalition, 5, 100, RandomStream(1))
    with pytest.raises(InvalidArgumentError, match=message):
        run_protocol(IDEAL, PLAN, 100, coalition, POLICY, RandomStream(1))
    with pytest.raises(InvalidArgumentError, match=message):
        predicted_mse(IDEAL, coalition)
    # the run checks the gain mode before the coalition, and the coalition before the
    # loss abort
    with pytest.raises(InvalidArgumentError, match="^gain_mode"):
        run_protocol(IDEAL, PLAN, 100, coalition, POLICY, RandomStream(1), gain_mode="x")
    lossy = ExperimentModel(r=1.0, eta_a=0.2)
    with pytest.raises(InvalidArgumentError, match=message):
        run_protocol(lossy, PLAN, 100, coalition, POLICY, RandomStream(1))
    with pytest.raises(AbortLossError):
        run_protocol(lossy, PLAN, 100, Coalition.AB, POLICY, RandomStream(1))


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


def _held_bytes(table: RoundTable) -> int:
    """Bytes of the arrays that hold the table's columns, each base counted once."""
    bases = {}
    for name in ROUND_COLUMNS:
        col = getattr(table, name)
        while isinstance(col.base, np.ndarray):
            col = col.base
        bases[id(col)] = col.nbytes
    return sum(bases.values())


def test_a_fixed_plan_records_table_holds_61_bytes_a_round():
    # a fixed plan's displacement columns held 16 B a round that repeat one value
    n = 50_000
    full = sum(getattr(RoundTable.empty(1), name).nbytes for name in ROUND_COLUMNS)
    assert full == 77
    job = functools.partial(run_protocol, IDEAL, DisplacementPlan.fixed(1.0, 1.0, n_rep=3), n,
                            Coalition.ABC, POLICY, RandomStream(61))
    job()  # the first run fills caches that later runs reuse
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        records = job().records
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held <= 61 * n + 64 * 1024
    assert _held_bytes(records) <= 61 * n + 64
    gaussian = run_protocol(IDEAL, DisplacementPlan.gaussian_modulated(2.0), n, Coalition.ABC,
                            POLICY, RandomStream(61)).records
    assert _held_bytes(gaussian) == 77 * n


@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0)],
                         ids=["fixed", "gaussian"])
def test_witness_check_holds_one_quadrature_at_a_time(plan):
    # the check stacked each quadrature's three outcome columns at full length and then
    # took their rounds: 57 B a round above its input, about 2.4 (3, n) float stacks of
    # its n rounds. It holds one quadrature's rounds, taken from each column into one
    # stack, and the estimator's two temporaries of them: 22 B a round
    records = run_protocol(IDEAL, plan, 100_000, Coalition.ABC, POLICY, RandomStream(61)).records
    rounds = sift(records, "x") + sift(records, "p")
    del records
    # the stacked arithmetic, bit for bit
    is_x = rounds.dealer_basis == 0
    estimates = estimators.witness_estimate(np.stack((rounds.x_a, rounds.x_b, rounds.x_c))[:, is_x],
                                            np.stack((rounds.p_a, rounds.p_b, rounds.p_c))[:, ~is_x])
    errors = [e - math.sqrt(0.5) * alpha / math.sqrt(2.0)
              for e, alpha in zip(estimates, (rounds.alpha_x[is_x], rounds.alpha_p[~is_x]))]
    want = protocol._witness_result(*((float(np.einsum("i,i->", e, e)), e.size) for e in errors))
    del is_x, estimates, errors
    assert entanglement_check(rounds, eta_a=0.5) == want
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert entanglement_check(rounds, eta_a=0.5) == want
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 28 * len(rounds)


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
    # the subsets are uniformly random subsets of the whole run: for ab the witness pool is
    # a quarter of the rounds, so a witness fraction of 0.3 takes all of it, which the
    # chunks' records hold
    greedy = ProtocolPolicy(witness_fraction=0.3)
    run = protocol._ProtocolRun(IDEAL, plan, n, Coalition.AB, greedy, RandomStream(59),
                                "analytic", keep_records=True)
    pool = took = 0
    for ch in _drawn(run):
        t = ch.table
        pool += int(np.count_nonzero(t.kept & (t.basis_b == t.dealer_basis)
                                     & (t.basis_c == t.dealer_basis)))
        took += int(np.count_nonzero(ch.roles == protocol.WITNESS))
    assert took == pool < round(0.3 * n)
    res = run_protocol(IDEAL, plan, n, Coalition.AB, greedy, RandomStream(59),
                       keep_records=False)
    assert res.witness.n_x + res.witness.n_p == took


def _drawn(run):
    """Every chunk of a recorded run: its counts, its rounds' labels and its table."""
    return run._chunks()


def _returned(run, name):
    """The list of what the run's method ``name`` returns, call by call, from now on: copies,
    which the run's later work in place leaves as they were returned."""
    got, method = [], getattr(run, name)

    def record(*args):
        value = method(*args)
        got.append(copy.deepcopy(value))
        return value

    setattr(run, name, record)
    return got


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_chunk_masks_partition_the_rounds(monkeypatch, coalition):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    n = 1000
    lone = coalition is Coalition.A_ALONE
    gain_mode = "analytic" if lone else "fitted"
    _, chunks, _ = _run_chunks(IDEAL, PLAN, n, coalition, gain_mode, 67)
    assert [ch.table.round_index[0] for ch in chunks] == list(range(0, n, 64))
    names = ("witness", "bias", "calib", "estimation", "discarded")
    counts = dict.fromkeys(names, 0)
    for ch in chunks:
        t = ch.table
        # every round has one role, and the chunk's counts per label are the table's
        assert ch.roles.dtype == np.int8 and set(np.unique(ch.roles)) <= set(range(5))
        assert np.array_equal(ch.roles != protocol.DISCARDED, t.kept)
        for role in range(5):
            for d in (0, 1):
                rounds = (ch.roles == role) & (t.dealer_basis == d)
                assert int(rounds.sum()) == int(ch.counts[role, d].sum())
        # witness rounds are rounds where every party homodyned the dealer's basis
        others = (t.basis_b == t.dealer_basis) & (t.basis_c == t.dealer_basis)
        assert np.all(others[ch.roles == protocol.WITNESS])
        if not lone:
            assert np.array_equal(t.kept, t.basis_a == t.dealer_basis)
            # a kept round's pool cell is whether the others homodyned the dealer's basis
            for d in (0, 1):
                for role in range(4):
                    rounds = (ch.roles == role) & (t.dealer_basis == d)
                    assert int(np.count_nonzero(rounds & others)) == int(ch.counts[role, d, 0])
        for role, name in enumerate(names):
            counts[name] += int(np.count_nonzero(ch.roles == role))
    assert sum(counts.values()) == n
    res = run_protocol(IDEAL, PLAN, n, coalition, POLICY, RandomStream(67), gain_mode=gain_mode)
    # a lone A's bias check reads both quadratures of each of its rounds, but
    # counts rounds
    assert res.bias.n_rounds == counts["bias"]
    assert res.witness.n_x + res.witness.n_p == counts["witness"]
    n_est = res.mse_report.n_x if lone else res.mse_report.n_x + res.mse_report.n_p
    assert n_est == counts["estimation"]
    if lone:
        assert res.mse_report.n_p == counts["estimation"] and counts["discarded"] == 0


def _read_rounds(ch, coalition, quad):
    """A chunk's rounds read in a quadrature, as a mask over its table: the kept rounds of
    that dealer basis, or every round for a lone A."""
    t = ch.table
    if coalition is Coalition.A_ALONE:
        return np.ones(len(t), dtype=bool)
    return t.kept & (t.dealer_basis == quad)


def _columns(table, coalition, quad, rows):
    """The (A, B, C) outcome columns of a quadrature at the given rows; None for a party
    the coalition's estimator does not read."""
    return [getattr(table, f"{'xp'[quad]}_{party}")[rows] if party in coalition.party_columns
            else None for party in "abc"]


def test_fitted_gain_is_exact_over_the_calibration_reads(monkeypatch):
    # one pass: the run's gain is the least-squares fit over its calibration rounds, as
    # the estimators fit it from the records' residuals and auxiliaries
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    n = 1000
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=3)
    r, u = [], []
    _, chunks, (report, _, _) = _run_chunks(IDEAL, plan, n, Coalition.ABC, "fitted", 67)
    for ch in chunks:
        for q, quad in enumerate("xp"):
            rows = _read_rounds(ch, Coalition.ABC, q) & (ch.roles == protocol.CALIB)
            a, b, cc = _columns(ch.table, Coalition.ABC, q, rows)
            r.append(a - getattr(ch.table, f"alpha_{quad}")[rows])
            u.append((-1.0 if q else 1.0) * (b - cc) / math.sqrt(2.0))
    expect = fit_gain(np.concatenate(r), np.concatenate(u))
    assert report.gains.g_bc == pytest.approx(expect, rel=1e-12)


class _CountingGenerator:
    """A chunk generator that records the size of every normal draw made through it, and
    the shape and size of every gamma draw."""

    def __init__(self, gen, sizes, gammas):
        self._gen, self._sizes, self._gammas = gen, sizes, gammas

    def standard_normal(self, size=None, out=None):
        out = self._gen.standard_normal(size, out=out)
        self._sizes.append(np.size(out))
        return out

    def standard_gamma(self, shape, size=None):
        out = self._gen.standard_gamma(shape, size)
        self._gammas.append((shape, np.size(out)))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_draws(monkeypatch) -> tuple[list, list]:
    sizes, gammas = [], []
    chunk_generator = RandomStream.chunk_generator
    monkeypatch.setattr(RandomStream, "chunk_generator", lambda self, i: _CountingGenerator(
        chunk_generator(self, i), sizes, gammas))
    return sizes, gammas


def _count_streams(monkeypatch) -> list:
    """The index of every child stream opened, in order."""
    opened = []
    chunk_generator = RandomStream.chunk_generator

    def counting(self, i):
        opened.append(i)
        return chunk_generator(self, i)

    monkeypatch.setattr(RandomStream, "chunk_generator", counting)
    return opened


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_run_without_records_opens_one_stream_and_draws_as_much_at_any_size(monkeypatch,
                                                                            coalition,
                                                                            gain_mode):
    # stream layout 12: without records a run opens child stream 0 alone and draws its
    # statistics once, the same calls at 1e3 rounds as at MAX_ROUNDS, each one scalar.
    # Role by role, x before p, one Wishart each (its d chi-squared halves, then its
    # Bartlett normal when d = 2): the estimation rounds' scatter, a fitted run's
    # calibration rounds', the witness rounds' chi-squared half (none for a lone A); then
    # the bias rounds' means, d normals each, and their scatters about them, Wisharts of
    # k - 1 degrees of freedom. No round draws a number, and a run of MAX_ROUNDS rounds
    # reads MSEs within 5 standard errors of predicted_mse
    lone = coalition is Coalition.A_ALONE
    fitted = gain_mode == "fitted" and not lone
    d = 2 if fitted else 1
    # the estimation and, fitted, calibration rounds' Wisharts
    wisharts = 4 if fitted else 2
    sizes, gammas = _count_draws(monkeypatch)
    opened = _count_streams(monkeypatch)
    draws = []
    for n in (1000, MAX_ROUNDS):
        sizes.clear()
        gammas.clear()
        opened.clear()
        res = run_protocol(IDEAL, DisplacementPlan.gaussian_modulated(2.0), n, coalition,
                           POLICY, RandomStream(71), gain_mode=gain_mode, keep_records=False)
        assert opened == [0]
        n_witness = res.witness.n_x + res.witness.n_p
        n_bias = res.bias.n_rounds * (2 if lone else 1)
        assert n_witness == (0 if lone else round(POLICY.witness_fraction * n))
        assert n_bias == (2 if lone else 1) * round(POLICY.bias_fraction * n)
        assert sizes == [1] * ((d - 1) * wisharts + 2 * d + 2 * (d - 1))
        assert [size for _, size in gammas] == [1] * (d * wisharts + 2 * (not lone) + 2 * d)
        # a Gamma(k/2) for the k witness rounds of x and of p; the bias rounds' first entry
        # per quadrature is a Gamma((k - 1)/2)
        witness = gammas[d * wisharts : len(gammas) - 2 * d]
        assert 2 * sum(shape for shape, _ in witness) == n_witness
        assert sum(2 * gammas[-j][0] + 1 for j in (2 * d, d)) == n_bias
        draws.append((list(sizes), [size for _, size in gammas]))
        report = res.mse_report
        for mse, n_q, want in zip((report.mse_x, report.mse_p), (report.n_x, report.n_p),
                                  predicted_mse(IDEAL, coalition)[:2]):
            assert abs(mse - want) <= 5.0 * want * math.sqrt(2.0 / n_q), (n, mse, want)
    assert draws[0] == draws[1]


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_a_run_without_records_draws_no_block(monkeypatch, coalition, gain_mode):
    # the displacement cancels from every error a report reads, the witness's included,
    # so without records a gaussian plan draws no block: every n_rep draws what the fixed
    # plan draws and gives its reports, byte for byte
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    sizes, gammas = _count_draws(monkeypatch)
    fixed = run_protocol(IDEAL, PLAN, 5000, coalition, POLICY, RandomStream(71),
                         gain_mode=gain_mode, keep_records=False)
    want = (list(sizes), [size for _, size in gammas])
    for n_rep in (1, 3, 1000):
        sizes.clear()
        gammas.clear()
        plan = DisplacementPlan.gaussian_modulated(100.0, n_rep=n_rep)
        res = run_protocol(IDEAL, plan, 5000, coalition, POLICY, RandomStream(71),
                           gain_mode=gain_mode, keep_records=False)
        assert (sizes, [size for _, size in gammas]) == want
        assert tuple(res[1:]) == tuple(fixed[1:])


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_records_draw_every_round_once_and_no_statistic(monkeypatch, coalition):
    # with records a run draws no statistic and no gamma: each chunk draws its blocks (x
    # values, then p values) and every round's x triple, then its p triple
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    n, n_rep = 5000, 3
    sizes, gammas = _count_draws(monkeypatch)
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=n_rep)
    opened = _count_streams(monkeypatch)
    run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71))
    assert opened == list(range(5)) and gammas == []
    # a chunk draws the blocks that begin in it
    starts = [-(-start // n_rep) for start in range(0, n, 1024)] + [-(-n // n_rep)]
    blocks = [b - a for a, b in zip(starts, starts[1:])]
    triples = [3 * min(1024, n - start) for start in range(0, n, 1024)]
    assert sizes == [size for block, triple in zip(blocks, triples)
                     for size in (block, block, triple, triple)]


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_only_the_records_compute_outcomes(monkeypatch, coalition, gain_mode):
    # the reports read statistics drawn from their exact laws, so a run without records
    # turns no normal into an outcome; with records every round's x and p triples once
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    columns = []
    apply = protocol._apply

    def counting_apply(factor, z):
        columns.append(z.shape[1])
        apply(factor, z)

    monkeypatch.setattr(protocol, "_apply", counting_apply)
    n, plan = 5000, DisplacementPlan.gaussian_modulated(2.0)
    run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71), gain_mode=gain_mode,
                 keep_records=False)
    assert columns == []
    run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71), gain_mode=gain_mode)
    assert sum(columns) == 2 * n


def test_witness_run_draws_one_gamma_pair_and_no_normal(monkeypatch):
    # stream layout 10: the run's k rounds of a quadrature sum their squared witness
    # errors to 2 sd^2 Gamma(k/2), so it draws, from child stream 0 alone, its count of x
    # rounds and one (x, p) gamma pair, at any size
    sizes, gammas = _count_draws(monkeypatch)
    opened = _count_streams(monkeypatch)
    for n in (5000, MAX_ROUNDS):
        gammas.clear()
        opened.clear()
        res = witness_verification_run(IDEAL, 1.0, -1.0, n, RandomStream(71))
        assert sizes == [] and opened == [0]
        assert [size for _, size in gammas] == [2]
        assert 2 * sum(gammas[0][0]) == n and 2 * gammas[0][0][0] == res.n_x
        assert res.entangled is True


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


def test_split_draws_numpys_multivariate_hypergeometric():
    # the subset split is numpy's multivariate_hypergeometric by its marginals rule, the
    # same numbers from the same stream, so a run of one chunk keeps layout 9's bytes:
    # with empty cells, and takes of none, of all, of more than half and of more than
    # there are. numpy's own refuses a total of 1e9 rounds, which a lone A's MAX_ROUNDS
    # run reaches behind its empty witness-pool cells; the split takes none of those
    rng = np.random.default_rng(3)
    for seed in range(600):
        cells = rng.integers(0, (5, 60, 70_000)[seed % 3], (2, 2))
        cells[rng.random((2, 2)) < 0.3] = 0
        take = int(rng.integers(0, cells.sum() + 5))
        want, got = (RandomStream(seed).chunk_generator(0) for _ in range(2))
        drawn = want.multivariate_hypergeometric(cells.ravel(), min(take, int(cells.sum())))
        assert protocol._split(got, cells, take).tolist() == drawn.reshape(2, 2).tolist()
        assert got.bytes(8) == want.bytes(8)
    cells = np.array([[0, 500_000_123], [0, 499_999_877]])
    gen = RandomStream(5).chunk_generator(0)
    with pytest.raises(ValueError):
        gen.multivariate_hypergeometric(cells.ravel(), 50_000_000)
    got = protocol._split(gen, cells, 50_000_000)
    assert got[:, 0].tolist() == [0, 0] and int(got.sum()) == 50_000_000


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
        run, chunks, reports = _run_chunks(IDEAL, plan, n, coalition, "analytic", 79)
        off = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(79),
                           keep_records=False)
        assert _counted(reports) == _counted(off[1:])
        _assert_the_records_give_the_reports(run, chunks, reports, IDEAL.eta_a)
        records = _joined(chunks)
        last = records[n - 1 :]
        assert last.round_index.tolist() == [n - 1]
        # its block began in the chunk before, at round n - 2
        assert last.alpha_x[0] == records.alpha_x[n - 2] != records.alpha_x[n - 3]
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
                                  "analytic", keep_records=True).laws.factors]
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
def test_keep_records_off_gives_the_same_counts(monkeypatch, coalition, gain_mode, plan):
    # both runs draw their counts first, from child stream 0; the recorded run's reports
    # are its records' own
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 512)
    off = run_protocol(IDEAL, plan, 3000, coalition, POLICY, RandomStream(1),
                       gain_mode=gain_mode, keep_records=False)
    run, chunks, reports = _run_chunks(IDEAL, plan, 3000, coalition, gain_mode, 1)
    assert len(_joined(chunks)) == 3000 and len(off.records) == 0
    assert _counted(reports) == _counted(off[1:])
    _assert_the_records_give_the_reports(run, chunks, reports, IDEAL.eta_a)


@pytest.mark.parametrize("n_rep", [1, 3, 1000])
@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_gaussian_reports_are_their_records_own(monkeypatch, coalition, gain_mode, n_rep):
    # the displacement cancels from every error a report reads, so a recorded gaussian
    # run's reports are its records' own whatever its blocks; chunks of 256 rounds end on a
    # partial one, blocks of 3 cross chunk edges and blocks of 1000 span several chunks
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 256)
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=n_rep)
    off = run_protocol(IDEAL, plan, 6000, coalition, POLICY, RandomStream(5),
                       gain_mode=gain_mode, keep_records=False)
    run, chunks, reports = _run_chunks(IDEAL, plan, 6000, coalition, gain_mode, 5)
    assert _counted(reports) == _counted(off[1:])
    _assert_the_records_give_the_reports(run, chunks, reports, IDEAL.eta_a)
    if coalition is not Coalition.A_ALONE:
        assert reports[1].status == "ok"
    # the records hold one draw per block
    blocks = np.arange(6000) // n_rep
    records = _joined(chunks)
    for col in (records.alpha_x, records.alpha_p):
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
    # no witness round is read, with or without records, and the records' reports are
    # their own
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 512)
    off = run_protocol(IDEAL, plan, 3000, coalition, policy, RandomStream(2),
                       gain_mode=gain_mode, keep_records=False)
    run, chunks, reports = _run_chunks(IDEAL, plan, 3000, coalition, gain_mode, 2, policy)
    assert _counted(reports) == _counted(off[1:])
    _assert_the_records_give_the_reports(run, chunks, reports, IDEAL.eta_a)
    _, witness, bias = reports
    assert witness.n_x == witness.n_p == 0
    assert bias.n_rounds == round(policy.bias_fraction * 3000)
    # an outcome is finite exactly where its party's basis read its quadrature
    t = _joined(chunks)
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
        assert run.reports == tuple(whole[1:])
        run, chunks, reports = _run_chunks(IDEAL, plan, n, coalition, gain_mode, n)
        assert reports == tuple(whole[1:])
        _assert_the_records_give_the_reports(run, chunks, reports, IDEAL.eta_a)
        off = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(n),
                           gain_mode=gain_mode, keep_records=False)
        assert _counted(off[1:]) == _counted(reports)


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_records_hold_the_outcomes_the_reports_read(monkeypatch, coalition, gain_mode):
    # the chunks' records give back through the reference estimators the statistics the
    # run's reports read: the witness rounds' witness errors, the bias rounds' mean errors
    # (and auxiliaries) and their scatter about it, and the estimation and calibration
    # rounds' scatter
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    model = ExperimentModel(r=1.0, eta_a=0.9, eta_b=0.95, eps_c=0.02)
    run = protocol._ProtocolRun(model, DisplacementPlan.gaussian_modulated(2.0, n_rep=3), 1000,
                                coalition, POLICY, RandomStream(67), gain_mode,
                                keep_records=True)
    read = _read_by_the_reports(monkeypatch)
    chunks = list(_drawn(run))
    stats = read[0]
    fitted = run.laws.calib is not None
    d = 2 if fitted else 1
    w_weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    for q, quad in enumerate("xp"):
        w1 = estimators.WEIGHTS[coalition, q][1]

        def reads(role):
            """Per chunk the outcome columns and alphas of the role's rounds read in q."""
            for ch in chunks:
                rows = _read_rounds(ch, coalition, q) & (ch.roles == role)
                yield ch.table, rows, getattr(ch.table, f"alpha_{quad}")[rows]

        def errors(role):
            e, u = [], []
            for t, rows, alpha in reads(role):
                cols = _columns(t, coalition, q, rows)
                e.append(estimators.combine(cols, coalition, q, run.laws.gains) - alpha)
                u.append(estimators.weighted_sum(cols, -w1) if fitted else None)
            return np.concatenate(e), np.concatenate(u) if fitted else None

        # the witness rounds' sum of squared errors: every party's outcome, less the
        # sqrt(eta_A) alpha/sqrt(2) that A's carries; a lone A has none, and no witness law
        e_w = np.concatenate([
            w_weights[q] @ np.stack([getattr(t, f"{quad}_{p}")[rows] for p in "abc"])
            - run.root_eta * alpha / math.sqrt(2.0) for t, rows, alpha in reads(protocol.WITNESS)])
        if coalition is Coalition.A_ALONE:
            assert e_w.size == 0 and run.laws[protocol.WITNESS] is stats.witness is None
        else:
            want = stats.witness[q]
            np.testing.assert_allclose(_sum(e_w, e_w), want[0], rtol=1e-12, atol=1e-300)
            assert want[1:] == (0.0, 0.0)
        # the bias rounds' means and scatter about them
        e, u = errors(protocol.BIAS)
        mean, want = stats.bias[q]
        assert e.size > 10
        got = [float(np.mean(e))] + ([float(np.mean(u))] if fitted else [])
        np.testing.assert_allclose(got, mean[:d], rtol=1e-12, atol=1e-13)
        assert fitted or mean[1] is None
        e, u = e - np.mean(e), (u - np.mean(u) if fitted else None)
        got = (_sum(e, e),) + ((_sum(e, u), _sum(u, u)) if fitted else (0.0, 0.0))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * (1.0 + want[2]))
        # the estimation rounds' scatter of (e, u)
        e, u = errors(protocol.EST)
        want = stats.est[q]
        got = (_sum(e, e),) + ((_sum(e, u), _sum(u, u)) if fitted else (0.0, 0.0))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * (1.0 + want[2]))
        if fitted:
            r_c, u_c = [], []
            for t, rows, alpha in reads(protocol.CALIB):
                cols = _columns(t, coalition, q, rows)
                r_c.append(cols[0] - run.root_eta * alpha)
                u_c.append(estimators.weighted_sum(cols, -w1))
            r_c, u_c = np.concatenate(r_c), np.concatenate(u_c)
            want = stats.calib[q]
            got = (_sum(r_c, r_c), _sum(r_c, u_c), _sum(u_c, u_c))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * (1.0 + want[2]))


def _sum(a, b) -> float:
    return float(np.sum(a * b))


def _read_by_the_reports(monkeypatch) -> list:
    """The statistics every later call of ``protocol._reports`` reads, call by call."""
    got, reports = [], protocol._reports

    def record(laws, read, stats):
        got.append(stats)
        return reports(laws, read, stats)

    monkeypatch.setattr(protocol, "_reports", record)
    return got


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
def test_reads_are_linear_functionals_of_the_recorded_outcomes(coalition, plan, gain_mode, arms,
                                                               r):
    # a round's error, auxiliary and calibration residual, and its witness error, computed
    # from its normals through the whitened laws of the run's law record, match the
    # estimators applied to the outcomes the factors make of those normals, within 1e-13 of
    # the spread of the terms the reference sums. The reference subtracts alpha from an estimate whose A outcome
    # carries sqrt(eta_A) alpha, so on lossy arms it checks that the bias scale cancels
    # the displacement; the witness subtracts sqrt(eta_A) alpha/sqrt(2)
    model = (ExperimentModel(r=r) if arms == "ideal"
             else ExperimentModel(r=r, eta_a=0.82, eta_b=0.9, eps_c=0.05))
    run = protocol._ProtocolRun(model, plan, 600, coalition, POLICY, RandomStream(97), gain_mode,
                                keep_records=True)
    fitted = gain_mode == "fitted" and coalition is not Coalition.A_ALONE
    assert (run.laws.calib is not None) == fitted
    gen = np.random.default_rng(97)
    alpha = (2.0 * gen.standard_normal(600) if plan.kind == "gaussian"
             else np.full(600, plan.alpha_x))
    order = protocol._party_order(coalition)
    for q, quad in enumerate("xp"):
        z = gen.standard_normal((3, 600))
        outcomes = z.copy()
        protocol._apply(run.laws.factors[q], outcomes)
        outcomes[0] += run.root_eta * alpha
        by_party = {party: outcomes[order.index(j)] for j, party in enumerate("abc")}
        cols = [by_party[party] if party in coalition.party_columns else None
                for party in "abc"]
        law = run.laws[protocol.EST][q]
        e, u = protocol._values(law.lower, law.basis.T @ z)
        w0, w1 = estimators.WEIGHTS[coalition, q]
        gains = run.laws.gains
        want = estimators.combine(cols, coalition, q, gains) - alpha
        g = gains.gain(coalition)
        bound = 1e-13 * _magnitude(cols, gains.bias_scale * (w0 + g * w1), alpha)
        assert np.max(np.abs(e - want)) <= bound, (quad, bound)
        assert run.laws[protocol.BIAS][q] is law
        if fitted:
            want = estimators.weighted_sum(cols, -w1)
            assert np.max(np.abs(u - want)) <= 1e-13 * _magnitude(cols, w1)
            # the calibration rounds read the residual and the same auxiliary
            law = run.laws[protocol.CALIB][q]
            residual, u = protocol._values(law.lower, law.basis.T @ z)
            want = cols[0] - run.root_eta * alpha
            bound = 1e-13 * _magnitude(cols[:1], [1.0], run.root_eta * alpha)
            assert np.max(np.abs(residual - want)) <= bound
            want = estimators.weighted_sum(cols, -w1)
            assert np.max(np.abs(u - want)) <= 1e-13 * _magnitude(cols, w1)
        else:
            assert u is None
        if coalition is not Coalition.A_ALONE:
            # the witness reads all three outcomes; its law's sd times its direction
            c_w = estimators.witness_estimate(np.eye(3), np.eye(3))[q]
            triple = [by_party[party] for party in "abc"]
            want = c_w @ np.stack(triple) - run.root_eta * alpha / math.sqrt(2.0)
            law = run.laws[protocol.WITNESS][q]
            got = law.lower[0][0] * (law.basis[:, 0] @ z)
            bound = 1e-13 * _magnitude(triple, c_w, run.root_eta * alpha)
            assert np.max(np.abs(got - want)) <= bound, (quad, bound)


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
        for q, quad in enumerate("xp"):
            rows = _read_rounds(ch, coalition, q)
            outcomes = {f"{quad}_{party}": getattr(ch.table, f"{quad}_{party}")[rows]
                        for party in coalition.party_columns}
            truth = getattr(ch.table, f"alpha_{quad}")[rows]
            e = estimators.estimate(coalition, outcomes, gains, quad) - truth
            roles = ch.roles[rows]
            e_est = e[roles == protocol.EST]
            sq[q].add(e_est * e_est)
            bias.add(e[roles == protocol.BIAS])
    split = estimators.RESOURCE_SPLIT_FACTOR
    return split * sq[0].mean, split * sq[1].mean, bias.mean, bias.standard_error()


@pytest.mark.parametrize("r", [1.0, 4.0, 8.0])
@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0, n_rep=3)],
                         ids=["fixed", "gaussian"])
@pytest.mark.parametrize("coalition", [Coalition.AB, Coalition.AC, Coalition.ABC],
                         ids=lambda c: c.value)
def test_one_pass_fitted_reports_match_the_two_pass_reference(monkeypatch, coalition, plan, r):
    # a recorded run's one-pass sums, shifted from the analytic gain to the fitted one, give
    # the reports of estimating every round again with the fitted gain; sizes put the
    # run's end on a chunk edge, one round past it and one round short of it
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    model = ExperimentModel(r=r, eta_a=0.9, eta_b=0.95, eps_c=0.02)
    for seed, n in ((1, 640), (2, 641), (3, 1023)):
        res = run_protocol(model, plan, n, coalition, POLICY, RandomStream(seed),
                           gain_mode="fitted")
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


def _own_sd(factor, c) -> float:
    """sqrt(c^T Sigma c), Sigma = L L^T, as each sampled path took it for itself before
    they shared one derivation: the fsum norm of the coefficients L^T c over the normals
    of the first len(c) rows of L."""
    n = len(c)
    coefficients = [math.fsum(c[j] * factor[j, i] for j in range(i, n)) for i in range(n)]
    return math.sqrt(math.fsum(x * x for x in coefficients))


def _own_run_laws(model, coalition):
    """A run's factors and witness sds as the run derived them itself: the dealer
    covariance with a lone A's vacuum unit, its blocks' Cholesky factors in the run's
    party order, and the witness weights' norm over them (none for a lone A)."""
    cov = dealer_covariances([model.r], model)[0]
    lone = coalition is Coalition.A_ALONE
    if lone:
        a = [estimators.X_A, estimators.P_A]
        cov[a, a] += 1.0
    order = (0, 2, 1) if coalition is Coalition.AC else (0, 1, 2)
    factors = [np.linalg.cholesky(cov[np.ix_(idx, idx)])
               for idx in ([quad[j] for j in order] for quad in estimators.TRIPLE_INDICES)]
    if lone:
        return factors, None
    weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    return factors, [_own_sd(f, [c[p] for p in order]) for f, c in zip(factors, weights)]


def _own_batch_scale(model, coalition) -> np.ndarray:
    """2 split sd_q^2 per quadrature as the batch derived it itself: the Cholesky factor of
    the read parties' sub-block of the dealer covariance, with a lone A's vacuum unit, and
    the estimator's weights at the model's gains."""
    cov = dealer_covariances([model.r], model)[0]
    gains = estimators.gains_for_model(model, coalition)
    g, bias = gains.gain(coalition), gains.bias_scale
    lone = coalition is Coalition.A_ALONE
    split = 1.0 if lone else estimators.RESOURCE_SPLIT_FACTOR
    if lone:
        a = [estimators.X_A, estimators.P_A]
        cov[a, a] += 1.0
    parties = [estimators.PARTIES.index(p) for p in coalition.party_columns]
    scale = np.empty((2, 1))
    for q in (0, 1):
        w0, w1 = estimators.WEIGHTS[coalition, q]
        idx = [estimators.TRIPLE_INDICES[q][j] for j in parties]
        sd = _own_sd(np.linalg.cholesky(cov[np.ix_(idx, idx)]), bias * (w0 + g * w1)[parties])
        scale[q] = 2.0 * split * sd * sd
    return scale


def _own_witness_run(model, alpha_x, alpha_p, n_rounds, stream, surrogate):
    """witness_verification_run as it derived its law itself, the Cholesky factor of each
    quadrature's (A, B, C) block of the state and the witness weights' norm over it, with
    its draws (stream layout 10: its count of x rounds and a Gamma(k/2) per quadrature,
    from child stream 0); and those sds."""
    state = (surrogate_intercept_state if surrogate else build_dealer_state)(model, alpha_x,
                                                                             alpha_p)
    weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    sds = [_own_sd(np.linalg.cholesky(state.cov[np.ix_(idx, idx)]), c)
           for c, idx in zip(weights, map(list, estimators.TRIPLE_INDICES))]
    gen = stream.chunk_generator(0)
    n_x = int(gen.binomial(n_rounds, 0.5))
    ks = (n_x, n_rounds - n_x)
    sq = [(2.0 * sd * sd * float(g), k)
          for sd, k, g in zip(sds, ks, gen.standard_gamma([k / 2.0 for k in ks]))]
    return protocol._witness_result(*sq), sds


_arm_eta = st.floats(ETA_MIN, 1.0)
_arm_eps = st.floats(0.0, EPS_MAX)


# a failing draw is reported unshrunk: any draw that breaks a bit shows the break, and
# shrinking one took minutes and half a gigabyte
@settings(max_examples=150, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(r=st.floats(0.0, R_MAX), etas=st.tuples(_arm_eta, _arm_eta, _arm_eta),
       epss=st.tuples(_arm_eps, _arm_eps, _arm_eps),
       alphas=st.tuples(st.floats(-ALPHA_MAX, ALPHA_MAX), st.floats(-ALPHA_MAX, ALPHA_MAX)),
       seed=st.integers(0, 2**32 - 1))
def test_shared_derivation_is_each_path_own_bit_for_bit(r, etas, epss, alphas, seed):
    # the run, the witness run and the batch each took their own Cholesky factors and
    # norms; the shared derivation gives every one of them bit for bit over the model's
    # box (hypothesis favours round floats, so a seeded r adds arbitrary bit patterns)
    (eta_a, eta_b, eta_c), (eps_a, eps_b, eps_c) = etas, epss
    spread = float(np.random.default_rng(seed).uniform(0.0, R_MAX))
    for r_ in (r, spread):
        model = ExperimentModel(r_, eta_a, eta_b, eta_c, eps_a, eps_b, eps_c)
        policy = ProtocolPolicy(eta_min=ETA_MIN)
        for coalition in Coalition:
            # the batch's record holds the estimation law alone
            laws = protocol._coalition_laws(model, coalition)
            assert laws.witness is laws.calib is None and laws.bias is laws.est
            n_read = len(coalition.party_columns)
            factors, witness_sd = _own_run_laws(model, coalition)
            scale = _own_batch_scale(model, coalition)
            split = 1.0 if coalition is Coalition.A_ALONE else estimators.RESOURCE_SPLIT_FACTOR
            assert laws.split == split
            run = protocol._ProtocolRun(model, PLAN, 10, coalition, policy, RandomStream(0),
                                        "fitted", keep_records=False)
            fitted = run.laws.calib is not None
            assert fitted == (coalition is not Coalition.A_ALONE)
            assert (run.laws.witness is None) == (witness_sd is None)
            for q in (0, 1):
                assert laws.factors[q].tobytes() == factors[q].tobytes(), (coalition, q)
                assert run.laws.factors[q].tobytes() == factors[q].tobytes(), (coalition, q)
                # the batch's sd, the run's estimation sd and the run's witness sd
                sd = laws.est[q].lower[0][0]
                assert 2.0 * split * sd * sd == scale[q, 0], (coalition, q)
                assert run.laws.est[q].lower[0][0] == sd
                if witness_sd is not None:
                    assert run.laws[protocol.WITNESS][q].lower[0][0] == witness_sd[q]
                # the zero-padded rows whiten as the read rows alone did
                rows = protocol._functionals(factors[q], coalition, q, run.laws.gains, fitted)
                want = protocol._whiten([row[:n_read] for row in rows])
                got = run.laws[protocol.EST][q]
                assert got.lower == want.lower and not got.basis[n_read:].any()
                assert got.basis[:n_read].tobytes() == want.basis.tobytes()
            got = batch_mse_distribution(model, coalition, 3, 100, RandomStream(seed))
            sums = RandomStream(seed).chunk_generator(0).standard_gamma(1.5, (2, 100))
            sums *= scale
            assert got.tobytes() == ((sums[0] + sums[1]) / 3).tobytes(), coalition
        for surrogate in (False, True):
            state = (surrogate_intercept_state if surrogate
                     else build_dealer_state)(model, *alphas)
            factors = protocol._triple_factors(state.cov, (0, 1, 2))
            want, sds = _own_witness_run(model, *alphas, 200, RandomStream(seed), surrogate)
            assert [law.lower[0][0] for law in protocol._witness_laws(factors, (0, 1, 2))] == sds
            assert witness_verification_run(model, *alphas, 200, RandomStream(seed),
                                            surrogate=surrogate) == want


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
    # a round's witness error c.t - sqrt(eta_A) alpha_q/sqrt(2) is normal, with
    # t ~ N(mu_q, Sigma_q) the outcomes of the distributed state, so split * e^2 has mean
    # split (sigma_q^2 + offset_q^2) and variance split^2 (2 sigma_q^4 + 4 sigma_q^2 offset_q^2);
    # A's outcome carries sqrt(eta_A) alpha_q, so the offset is 0 under loss on A too
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
        offset = c @ st.mean[idx] - math.sqrt(model.eta_a) * a * h
        se = split * math.sqrt((2.0 * var * var + 4.0 * var * offset * offset) / n)
        assert abs(mse - split * (var + offset * offset)) <= 5.0 * se


@settings(max_examples=200)
@given(r=st.floats(0.0, R_MAX), etas=st.tuples(_arm_eta, _arm_eta, _arm_eta),
       epss=st.tuples(_arm_eps, _arm_eps, _arm_eps),
       alphas=st.tuples(st.floats(-ALPHA_MAX, ALPHA_MAX), st.floats(-ALPHA_MAX, ALPHA_MAX)))
def test_the_witness_error_has_no_mean_to_rounding(r, etas, epss, alphas):
    # a witness error c.t - sqrt(eta_A) alpha_q/sqrt(2) has mean c.mu_q - sqrt(eta_A)
    # alpha_q/sqrt(2), since t ~ N(mu_q, Sigma_q); only A's mean carries the secret, so
    # that mean is rounding alone, for the dealer state and the surrogate, and the witness
    # run draws the centred law
    model = ExperimentModel(r, *etas, *epss)
    weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    eps = np.finfo(float).eps
    for make in (build_dealer_state, surrogate_intercept_state):
        state = make(model, *alphas)
        for c, idx, alpha in zip(weights, estimators.TRIPLE_INDICES, alphas):
            mean = float(c @ state.mean[list(idx)])
            shift = mean - math.sqrt(model.eta_a) * alpha / math.sqrt(2.0)
            assert abs(shift) <= 4.0 * eps * max(1.0, abs(alpha)), (make.__name__, shift)


@pytest.mark.parametrize("n", [100, 240, 1000])
def test_witness_verdict_keeps_its_size_at_the_separability_boundary(n):
    # at the boundary mu_x + mu_p = 4 a separable state's mse_sum is
    # mu_x chi2_n/n + (4 - mu_x) chi2_n/n, its sum of squared errors per quadrature
    # mu_q chi2_n/split = mu_q Gamma(n/2). A 5-SE rule promises a false alarm with
    # probability at most Phi(-5) = 2.9e-7, a mean count of 0.29 in 1e6 draws: the
    # verdict may call at most 3 of 1e6 boundary draws entangled (a Poisson count of mean
    # 0.29 exceeds 3 with probability 2.5e-4). The sample-SE rule it replaces read 24 of
    # 200,000 vacuum runs of 240 rounds entangled
    split = estimators.RESOURCE_SPLIT_FACTOR
    gen = np.random.default_rng(n)
    for mu_x in (0.0, 1.0, 2.0, 3.0, 4.0):
        mus = (mu_x, WITNESS_THRESHOLD - mu_x)
        chi2 = 2.0 * gen.standard_gamma(n / 2.0, (2, 1_000_000))
        sums = np.array(mus)[:, None] * chi2 / split
        # the verdict reads mse_sum alone at a fixed n, and falls with it: the library's
        # verdicts on the smallest draws, up to one it calls separable, are the count
        smallest = np.argsort(sums.sum(axis=0))[:20]
        verdicts = [protocol._witness_result((sums[0, i], n), (sums[1, i], n)).entangled
                    for i in smallest]
        assert verdicts[-1] is False, mu_x
        assert sum(verdicts) <= 3, (mu_x, sum(verdicts))
    # the exact rates where the law has a closed form: one chi-squared at mu_x = 0 or 4,
    # and chi2_2n at mu_x = 2; each is below Phi(-5)
    cut = protocol._witness_result((1.0, n), (1.0, n))
    cut = WITNESS_THRESHOLD - 5.0 * cut.null_standard_error
    assert scipy.stats.chi2.cdf(n * cut / WITNESS_THRESHOLD, n) < scipy.stats.norm.cdf(-5.0)
    assert scipy.stats.chi2.cdf(n * cut / 2.0, 2 * n) < scipy.stats.norm.cdf(-5.0)


def test_witness_mse_follows_its_scaled_chi_squared_law():
    # over 2,000 seeds of 240-round witness runs a quadrature's mse over its n rounds is
    # mu chi2_n/n, of mean mu and variance 2 mu^2/n: z = (mse/mu - 1) sqrt(n/2) has mean 0
    # and variance 1 at every n, within 5 standard errors. A wrong gamma shape, such as
    # Gamma(k) for Gamma(k/2), moves both
    model = ExperimentModel(r=1.0, eta_a=0.9, eta_b=0.8, eps_c=0.05)
    runs = [witness_verification_run(model, 0.5, -0.5, 240, RandomStream(seed))
            for seed in range(2000)]
    # a run's x rounds are as many as the dealer's fair coins give: Binomial(240, 1/2)
    n_x = np.array([run.n_x for run in runs])
    assert all(run.n_x + run.n_p == 240 for run in runs)
    mean, se_mean, var, se_var = _moments_and_errors((n_x - 120.0) / math.sqrt(60.0))
    assert abs(mean) <= 5.0 * se_mean and abs(var - 1.0) <= 5.0 * se_var
    cov = build_dealer_state(model, 0.0, 0.0).cov
    weights = estimators.witness_estimate(np.eye(3), np.eye(3))
    for q, (c, idx) in enumerate(zip(weights, estimators.TRIPLE_INDICES)):
        mu = estimators.RESOURCE_SPLIT_FACTOR * (c @ cov[np.ix_(idx, idx)] @ c)
        mse = np.array([(run.mse_x, run.mse_p)[q] for run in runs])
        n = np.array([(run.n_x, run.n_p)[q] for run in runs])
        mean, se_mean, var, se_var = _moments_and_errors((mse / mu - 1.0) * np.sqrt(n / 2.0))
        assert abs(mean) <= 5.0 * se_mean, (q, mean, se_mean)
        assert abs(var - 1.0) <= 5.0 * se_var, (q, var, se_var)


def test_witness_reads_entangled_at_r_1_at_the_default_rounds():
    # power: at r = 1 mse_sum is near 4 e^-2 = 0.54, and at the witness subcommand's
    # default 2,000 rounds the verdict's cut 4 - 5 SE0 is near 3.1
    for seed in range(20):
        wit = witness_verification_run(IDEAL, 0.0, 0.0, 2000, RandomStream(seed))
        assert wit.status == "ok" and wit.entangled is True, seed
        assert wit.null_standard_error == 4.0 * math.sqrt(2.0 / min(wit.n_x, wit.n_p))


LOSSY = ExperimentModel(r=1.0, eta_a=0.9, eta_b=0.95, eps_c=0.02)


def _run_chunks(model, plan, n, coalition, gain_mode, seed, policy=POLICY):
    """A run that keeps its records, drawn chunk by chunk, and its reports."""
    run = protocol._ProtocolRun(model, plan, n, coalition, policy, RandomStream(seed), gain_mode,
                                keep_records=True)
    chunks = list(_drawn(run))
    return run, chunks, run.reports


def _joined(chunks) -> RoundTable:
    return sum((ch.table for ch in chunks[1:]), chunks[0].table)


def _counted(reports) -> tuple:
    """What a run's reports take from its counts alone: the rounds each report read and the
    statuses that read no value."""
    report, witness, bias = reports
    return (report.n_x, report.n_p), (witness.n_x, witness.n_p, witness.status), \
        (bias.n_rounds, bias.status)


def _assert_the_records_give_the_reports(run, chunks, reports, eta_a):
    """The reference estimators applied to a recorded run's chunks give back its reports,
    each value to 1e-12 relative: the gain fitted by fit_gain, the MSEs, the bias check and
    the witness, through entanglement_check where it has 100 rounds per quadrature."""
    report, witness, bias = reports
    coalition = run.coalition
    lone = coalition is Coalition.A_ALONE
    reads = []
    for ch in chunks:
        for q in (0, 1):
            rows = _read_rounds(ch, coalition, q)
            reads.append((q, _columns(ch.table, coalition, q, rows),
                          getattr(ch.table, f"alpha_{'xp'[q]}")[rows], ch.roles[rows]))
    gains = run.laws.gains
    if run.laws.calib is not None:
        r, u = [], []
        for q, cols, alpha, roles in reads:
            calib = roles == protocol.CALIB
            r.append(cols[0][calib] - run.root_eta * alpha[calib])
            w1 = estimators.WEIGHTS[coalition, q][1]
            u.append(estimators.weighted_sum([None if c is None else c[calib] for c in cols], -w1))
        g = fit_gain(np.concatenate(r), np.concatenate(u))
        three = coalition is Coalition.ABC
        gains = estimators.GainSet(0.0 if three else g, g if three else 0.0, gains.bias_scale)
        assert report.gains.gain(coalition) == pytest.approx(g, rel=1e-12)
    sq, residuals = ([], []), []
    for q, cols, alpha, roles in reads:
        e = estimators.combine(cols, coalition, q, gains) - alpha
        sq[q].append(e[roles == protocol.EST])
        residuals.append(e[roles == protocol.BIAS])
    split = 1.0 if lone else estimators.RESOURCE_SPLIT_FACTOR
    for got, n, errors in ((report.mse_x, report.n_x, sq[0]), (report.mse_p, report.n_p, sq[1])):
        errors = np.concatenate(errors)
        assert errors.size == n
        assert got == pytest.approx(split * estimators.empirical_mse(errors, np.zeros(n)),
                                    rel=1e-12)
    residuals = np.concatenate(residuals)
    assert residuals.size == bias.n_rounds * (2 if lone else 1)
    if residuals.size < 2:
        assert bias.status == "insufficient-rounds" and bias.mean_error is None
    else:
        mean, se = estimators.bias_check(residuals, np.zeros(residuals.size))
        assert bias.standard_error == pytest.approx(se, rel=1e-12)
        assert abs(bias.mean_error - mean) <= 1e-12 * se
    if lone:
        assert witness.status == "not-applicable"
        return
    rounds = _joined([ch._replace(table=ch.table[ch.roles == protocol.WITNESS]) for ch in chunks])
    is_x = rounds.dealer_basis == 0
    if min(int(is_x.sum()), int((~is_x).sum())) >= protocol.WITNESS_MIN_ROUNDS:
        got = entanglement_check(rounds, eta_a=eta_a)
    else:
        # the witness errors entanglement_check would take, below its 100 rounds
        w = estimators.witness_estimate(np.eye(3), np.eye(3))
        errors = [w[q] @ np.stack([getattr(rounds, f"{quad}_{p}")[rows] for p in "abc"])
                  - run.root_eta * getattr(rounds, f"alpha_{quad}")[rows] / math.sqrt(2.0)
                  for q, quad, rows in ((0, "x", is_x), (1, "p", ~is_x))]
        got = protocol._witness_result(*((_sum(e, e), e.size) for e in errors))
    assert (got.n_x, got.n_p, got.entangled, got.status) == (
        witness.n_x, witness.n_p, witness.entangled, witness.status)
    for name in ("mse_x", "mse_p", "mse_sum", "standard_error", "null_standard_error"):
        want = getattr(witness, name)
        assert getattr(got, name) == (None if want is None else pytest.approx(want, rel=1e-12))


@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0, n_rep=3)],
                         ids=["fixed", "gaussian"])
@pytest.mark.parametrize("gain_mode, chunk", [("analytic", 256), ("fitted", 256), ("fitted", 16)],
                         ids=["analytic", "fitted", "fitted-chunks-of-16"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_reports_recomputed_from_the_records_match_the_run(monkeypatch, coalition, gain_mode,
                                                          chunk, plan):
    # a recorded run's reports are its records reduced by _reports, so the reference
    # estimators applied to the records (the gain fitted by fit_gain, the MSE, the bias
    # check and the witness through entanglement_check) give the same reports, across
    # chunks of 256 rounds and of 16, which take a few rounds of each role
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", chunk)
    run, chunks, reports = _run_chunks(LOSSY, plan, 6000, coalition, gain_mode, 3)
    assert coalition is Coalition.A_ALONE or min(reports[1].n_x, reports[1].n_p) >= 100
    _assert_the_records_give_the_reports(run, chunks, reports, LOSSY.eta_a)


@pytest.mark.parametrize("plan", [PLAN, DisplacementPlan.gaussian_modulated(2.0, n_rep=3)],
                         ids=["fixed", "gaussian"])
@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_recorded_errors_follow_their_normal_law(monkeypatch, coalition, gain_mode, plan):
    # a recorded estimation round's error at the analytic gain is N(0, |c|^2), with |c|^2
    # the per-quadrature MSE that bounds.predicted_mse gives through its Schur complement
    # (split between the quadratures for a coalition that reads one per round), although
    # the records draw it conditioned on the chunk's drawn sum of squares
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    run, chunks, _ = _run_chunks(LOSSY, plan, 8000, coalition, gain_mode, 29)
    split = 1.0 if coalition is Coalition.A_ALONE else estimators.RESOURCE_SPLIT_FACTOR
    for q, mse in enumerate(predicted_mse(LOSSY, coalition)[:2]):
        errors = []
        for ch in chunks:
            rows = _read_rounds(ch, coalition, q) & (ch.roles == protocol.EST)
            alpha = getattr(ch.table, f"alpha_{'xp'[q]}")[rows]
            cols = _columns(ch.table, coalition, q, rows)
            errors.append(estimators.combine(cols, coalition, q, run.laws.gains) - alpha)
        errors = np.concatenate(errors)
        assert errors.size > 500
        p = scipy.stats.kstest(errors, scipy.stats.norm(scale=math.sqrt(mse / split)).cdf).pvalue
        assert p > 1e-3, (q, p)


def _per_round_fitted_run(model, coalition, n, gen):
    """A one-chunk fitted run's mse_x and bias statistic mean_error / standard_error the
    long way, round by round: a coin per basis, the witness, bias and calibration subsets
    picked round by round under the run's take rule, every kept round's outcomes as a
    draw of the dealer covariance, the gain fitted by least squares over the calibration
    rounds, the x estimation rounds' squared errors at that gain and the bias check of
    the bias rounds' errors at it, x and p pooled."""
    dealer, shared, outsider = gen.integers(0, 2, (3, n))
    kept = shared == dealer
    pool = kept if coalition is Coalition.ABC else kept & (outsider == dealer)

    def pick(mask, take):
        chosen = np.zeros(n, dtype=bool)
        idx = np.flatnonzero(mask)
        chosen[gen.choice(idx, min(take, idx.size), replace=False)] = True
        return chosen

    witness = pick(pool, round(POLICY.witness_fraction * n))
    bias = pick(kept & ~witness, round(POLICY.bias_fraction * n))
    est = kept & ~witness & ~bias
    calib = pick(est, int(est.sum()) // 2)
    cov = build_dealer_state(model, 0.0, 0.0).cov
    r, u, reads = [], [], []
    for q, idx in enumerate(estimators.TRIPLE_INDICES):
        rows = kept & (dealer == q)
        t = gen.multivariate_normal(np.zeros(3), cov[np.ix_(idx, idx)], int(rows.sum())).T
        cols = [t[j] if party in coalition.party_columns else None
                for j, party in enumerate("abc")]
        c = calib[rows]
        r.append(cols[0][c])
        u.append(estimators.weighted_sum([None if x is None else x[c] for x in cols],
                                         -estimators.WEIGHTS[coalition, q][1]))
        reads.append((cols, rows))
    g = fit_gain(np.concatenate(r), np.concatenate(u))
    three = coalition is Coalition.ABC
    gains = estimators.gains_for_model(model, coalition)
    gains = estimators.GainSet(0.0 if three else g, g if three else 0.0, gains.bias_scale)

    def errors(q, mask):
        cols, rows = reads[q]
        return estimators.combine([None if x is None else x[mask[rows]] for x in cols],
                                  coalition, q, gains)

    e = errors(0, est & ~calib)
    residuals = np.concatenate([errors(q, bias) for q in (0, 1)])
    mean, se = estimators.bias_check(residuals, np.zeros(residuals.size))
    return estimators.RESOURCE_SPLIT_FACTOR * float(np.mean(e * e)), mean / se


@pytest.mark.parametrize("coalition", [Coalition.AB, Coalition.AC, Coalition.ABC],
                         ids=lambda c: c.value)
def test_fitted_mse_follows_the_per_round_simulation(coalition):
    # a fitted run draws its calibration and estimation scatters from their exact Wishart
    # laws; over 2,000 seeds of a 400-round run its mse_x follows the law of simulating
    # every round, picking every subset and fitting the gain (two-sample KS)
    model = ExperimentModel(r=1.0, eta_a=0.9, eta_b=0.95, eps_c=0.02)
    got = [run_protocol(model, DisplacementPlan.fixed(0.0, 0.0), 400, coalition, POLICY,
                        RandomStream(seed), gain_mode="fitted",
                        keep_records=False).mse_report.mse_x for seed in range(2000)]
    gen = np.random.default_rng(113)
    want = [_per_round_fitted_run(model, coalition, 400, gen)[0] for _ in range(2000)]
    assert scipy.stats.ks_2samp(got, want).pvalue > 1e-3


@functools.cache
def _unrecorded_reports(coalition: Coalition, gain_mode: str) -> list[tuple]:
    """The reports of 2,000 seeds of a 400-round run at ideal arms, without records."""
    return [run_protocol(IDEAL, DisplacementPlan.fixed(0.0, 0.0), 400, coalition, POLICY,
                         RandomStream(seed), gain_mode=gain_mode, keep_records=False)[1:]
            for seed in range(2000)]


def _bias_statistics(coalition: Coalition, gain_mode: str) -> tuple[int, list[float]]:
    """The residual pool n and the bias statistic mean_error / standard_error of
    :func:`_unrecorded_reports`."""
    runs = [bias for _, _, bias in _unrecorded_reports(coalition, gain_mode)]
    pools = {b.n_rounds * (2 if coalition is Coalition.A_ALONE else 1) for b in runs}
    assert len(pools) == 1
    return pools.pop(), [b.mean_error / b.standard_error for b in runs]


@pytest.mark.parametrize("coalition, gain_mode", [
    (Coalition.AB, "analytic"), (Coalition.AB, "fitted"), (Coalition.ABC, "analytic"),
    (Coalition.ABC, "fitted"), (Coalition.A_ALONE, "analytic")],
    ids=lambda v: getattr(v, "value", v))
def test_bias_statistic_follows_student_t(coalition, gain_mode):
    # a run draws its bias rounds' mean and scatter about it, not the rounds. At ideal
    # arms x and p errors have one law at every gain, so the pooled residuals are iid
    # centred normals given the fitted gain, which the calibration rounds alone fix, and
    # mean_error / standard_error over n of them is Student's t with n - 1 degrees of
    # freedom
    run = protocol._ProtocolRun(IDEAL, PLAN, 400, coalition, POLICY, RandomStream(0), gain_mode,
                                keep_records=False)
    x, p = (law.lower for law in run.laws[protocol.EST])
    np.testing.assert_allclose(p, x, rtol=1e-12, atol=1e-12)
    n, stats = _bias_statistics(coalition, gain_mode)
    assert n == (40 if coalition is Coalition.A_ALONE else 20)
    assert scipy.stats.kstest(stats, scipy.stats.t(n - 1).cdf).pvalue > 1e-3


def test_fitted_bias_statistic_follows_the_per_round_simulation():
    # a fitted pair's bias statistic, from the drawn bias means and scatters merged at the
    # fitted gain, against simulating every round, picking every subset, fitting the gain
    # and applying the bias check (two-sample KS)
    _, got = _bias_statistics(Coalition.AB, "fitted")
    gen = np.random.default_rng(127)
    want = [_per_round_fitted_run(IDEAL, Coalition.AB, 400, gen)[1] for _ in range(2000)]
    assert scipy.stats.ks_2samp(got, want).pvalue > 1e-3


@pytest.mark.parametrize("coalition, gain_mode", [
    (Coalition.AB, "analytic"), (Coalition.ABC, "fitted"), (Coalition.A_ALONE, "analytic")],
    ids=lambda v: getattr(v, "value", v))
def test_recorded_reports_follow_the_law_of_unrecorded_ones(coalition, gain_mode):
    # a recorded run reduces its simulated rounds and a run without records draws their
    # statistics from their exact laws; over 2,000 seeds of a 400-round run at ideal arms
    # the two give each report one law (two-sample KS, p > 1e-3): mse_x, mse_p, the witness
    # mse_sum and the bias statistic mean_error / standard_error. The recorded runs
    # alternate a fixed and a gaussian plan by seed and draw from stream 1 of the seed,
    # apart from the unrecorded runs' stream 0, whose reports no plan moves
    def laws(reports):
        report, witness, bias = zip(*reports)
        return {"mse_x": [r.mse_x for r in report], "mse_p": [r.mse_p for r in report],
                "witness": [w.mse_sum for w in witness if w.mse_sum is not None],
                "bias": [b.mean_error / b.standard_error for b in bias]}

    plans = (DisplacementPlan.fixed(0.0, 0.0), DisplacementPlan.gaussian_modulated(2.0))
    on = laws([run_protocol(IDEAL, plans[seed % 2], 400, coalition, POLICY,
                            RandomStream(seed, 1), gain_mode=gain_mode)[1:]
               for seed in range(2000)])
    off = laws(_unrecorded_reports(coalition, gain_mode))
    lone = coalition is Coalition.A_ALONE
    for name in on:
        if name == "witness" and lone:
            assert on[name] == off[name] == []
            continue
        assert min(len(on[name]), len(off[name])) > 1990, name
        p = scipy.stats.ks_2samp(on[name], off[name]).pvalue
        assert p > 1e-3, (name, p)


def test_wishart_draws_of_one_round_or_none():
    # Bartlett's factor for k < 2 rounds: no round gives a zero scatter, one round the
    # outer product of one normal vector; the records' factor of their summed scatter is
    # the same for no round and a factor of that outer product for one
    assert protocol._bartlett((0.0, 0.0), 0.7, 0) == ((0.0, 0.0), (0.0, 0.0))
    one = protocol._bartlett((1.3, 0.0), 0.7, 1)
    assert one == ((math.sqrt(2.6), 0.0), (0.7, 0.0))
    assert protocol._cholesky(np.zeros((2, 2))) == ((0.0, 0.0), (0.0, 0.0))
    y = np.array([0.4, -1.1])
    got = np.array(protocol._cholesky(np.outer(y, y)))
    np.testing.assert_allclose(got @ got.T, np.outer(y, y), rtol=1e-15)
    assert protocol._cholesky(np.array([[4.0]])) == ((2.0,),)
    # a scatter of several rounds: the factor's scatter is the rows'
    y = np.random.default_rng(5).standard_normal((2, 7))
    got = np.array(protocol._cholesky(y @ y.T))
    np.testing.assert_allclose(got @ got.T, y @ y.T, rtol=1e-14, atol=1e-15)
    assert got[0, 1] == 0.0 and got[0, 0] > 0.0 and got[1, 1] > 0.0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 7])
def test_bias_rows_give_their_mean_and_scatter(k, d):
    # the records' reduction of the bias rounds: from the sums Σy and Σyyᵀ of k rows of d
    # coordinates per quadrature, summed as a recorded run sums them, the rows' mean and
    # their scatter about it, here through a law whose functionals are the coordinates
    # themselves; one round has no scatter, and no round gives a zero mean and no scatter.
    # The roles without sums keep no statistics
    rows = np.random.default_rng(10 * k + d).standard_normal((2, d, k))
    read = np.zeros((4, 2), dtype=np.int64)
    read[protocol.BIAS] = k
    sums = [None] * 4
    sums[protocol.BIAS] = [[y.sum(axis=1), np.array([[protocol._dot(a, b) for b in y]
                                                     for a in y])] for y in rows]
    identity = protocol._Whitened(tuple(map(tuple, np.eye(d))), np.eye(d))
    laws = protocol._CoalitionLaws(*[None] * 9)._replace(bias=[identity, identity])
    stats = protocol._record_stats(laws, read, sums)
    assert stats.witness is stats.calib is stats.est is None
    for q, y in enumerate(rows):
        mean, scatter = stats.bias[q]
        assert len(mean) == 2 and (mean[1] is None) == (d == 1) and len(scatter) == 3
        if k == 0:
            assert mean[:d] == (0.0,) * d and scatter == (0.0, 0.0, 0.0)
            continue
        np.testing.assert_allclose(mean[:d], y.mean(axis=1), rtol=1e-14, atol=1e-14)
        centred = y - y.mean(axis=1, keepdims=True)
        want = centred @ centred.T
        want = (want[0, 0], want[0, 1], want[1, 1]) if d == 2 else (want[0, 0], 0.0, 0.0)
        np.testing.assert_allclose(scatter, want, rtol=1e-14, atol=1e-14)
        if k == 1:
            assert scatter == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("coalition, gain_mode", [(Coalition.AB, "analytic"),
                                                 (Coalition.ABC, "fitted")],
                         ids=["ab-analytic", "abc-fitted"])
def test_a_chunk_takes_its_share_by_the_split_law(monkeypatch, coalition, gain_mode):
    # the first of four chunks of a recorded 400-round run takes its share of the run's
    # counts by the split law, and over 2,000 seeds its rounds follow the laws of rounds
    # drawn free. In units of the error's sd, in each quadrature its k estimation rounds'
    # sum of squared errors is chi-squared with k degrees of freedom, its bias rounds'
    # mean times sqrt(k) is standard normal and their scatter about it chi-squared with
    # k - 1; and its pooled bias residuals' mean over their SE is Student's t with n - 1,
    # as the run's (test_bias_statistic_follows_student_t). Each through its probability
    # integral transform, one-sample KS against the uniform, p > 1e-3, and the mean's
    # variance within 5 standard errors of 1. Its label counts have the hypergeometric
    # mean, a quarter of the run's
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 100)
    plan, policy = DisplacementPlan.fixed(0.0, 0.0), ProtocolPolicy(bias_fraction=0.25)
    laws = {name: [] for name in ("est", "mean", "scatter", "t")}
    shares = []
    for seed in range(2000):
        run = protocol._ProtocolRun(IDEAL, plan, 400, coalition, policy, RandomStream(seed),
                                    gain_mode, keep_records=True)
        counts = _returned(run, "_counts")
        ch = next(run._chunks())
        residuals = []
        for q in (0, 1):
            sd = run.laws[protocol.EST][q].lower[0][0]
            read = _read_rounds(ch, coalition, q)
            est, bias = (estimators.combine(_columns(ch.table, coalition, q,
                                                     read & (ch.roles == role)),
                                            coalition, q, run.laws.gains) / sd
                         for role in (protocol.EST, protocol.BIAS))
            if est.size:
                laws["est"].append((_sum(est, est), est.size))
            if bias.size >= 2:
                laws["mean"].append((float(np.mean(bias)) * math.sqrt(bias.size),))
                centred = bias - np.mean(bias)
                laws["scatter"].append((_sum(centred, centred), bias.size - 1))
            residuals.append(bias)
        residuals = np.concatenate(residuals)
        if residuals.size >= 2:
            mean, se = estimators.bias_check(residuals, np.zeros(residuals.size))
            laws["t"].append((mean / se, residuals.size - 1))
        shares.append(ch.counts - counts[0] / 4.0)
    assert min(len(values) for values in laws.values()) > 1900
    for name, law in (("est", scipy.stats.chi2), ("mean", scipy.stats.norm),
                      ("scatter", scipy.stats.chi2), ("t", scipy.stats.t)):
        p = scipy.stats.kstest(law.cdf(*np.array(laws[name]).T), "uniform").pvalue
        assert p > 1e-3, (name, p)
    # KS sees a change of scale weakly: the mean's variance is 1 within 5 standard errors
    _, _, var, se_var = _moments_and_errors(np.array(laws["mean"])[:, 0])
    assert abs(var - 1.0) <= 5.0 * se_var, (var, se_var)
    shares = np.array(shares).reshape(2000, -1)
    spread = shares.std(axis=0, ddof=1)
    assert spread.any()
    assert np.all(np.abs(shares.mean(axis=0)) <= 5.0 * spread / math.sqrt(2000))


@pytest.mark.parametrize("aux", ["proportional", "zero"])
def test_degenerate_wishart_scales(monkeypatch, aux):
    # an auxiliary proportional to the error, or zero, makes the scale of their Wishart
    # singular: the whitening gives it a diagonal entry of rounding size at most, and
    # every scatter and bias mean the records give keeps u = -2 e (or u = 0)
    orig = protocol._functionals

    def degenerate(factor, coalition, quad, gains, fitted):
        c, _ = orig(factor, coalition, quad, gains, fitted)
        return [c, -2.0 * c if aux == "proportional" else np.zeros_like(c)]

    monkeypatch.setattr(protocol, "_functionals", degenerate)
    # chunks of 8 rounds take 0, 1, 2 and more of a role's rounds
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 8)
    plan = DisplacementPlan.gaussian_modulated(2.0)
    if aux == "zero":
        # a zero auxiliary cannot fit a gain: without records the run fails at its draw
        with pytest.raises(DegenerateAuxiliaryError):
            run_protocol(IDEAL, plan, 1000, Coalition.ABC, POLICY, RandomStream(7),
                         gain_mode="fitted", keep_records=False)
    run = protocol._ProtocolRun(IDEAL, plan, 1000, Coalition.ABC, POLICY, RandomStream(7),
                                "fitted", keep_records=True)
    for q in (0, 1):
        (l00, _), (l10, l11) = run.laws[protocol.EST][q].lower
        assert abs(l11) <= 1e-15 * l00
        assert l10 == (pytest.approx(-2.0 * l00, rel=1e-15) if aux == "proportional" else 0.0)
    factor = -2.0 if aux == "proportional" else 0.0
    # with records a zero auxiliary fails the run after its last chunk, which the
    # auxiliary's rounds decide
    read, chunks = _read_by_the_reports(monkeypatch), []
    with pytest.raises(DegenerateAuxiliaryError) if aux == "zero" else contextlib.nullcontext():
        for ch in _drawn(run):
            chunks.append(ch)
    assert len(_joined(chunks)) == 1000
    stats = read[0]
    taken, errors = set(), {role: ([], []) for role in (protocol.BIAS, protocol.EST)}
    for ch in chunks:
        for q in (0, 1):
            for role, got in errors.items():
                rows = _read_rounds(ch, Coalition.ABC, q) & (ch.roles == role)
                taken.add((role, int(rows.sum())))
                cols = _columns(ch.table, Coalition.ABC, q, rows)
                alpha = getattr(ch.table, f"alpha_{'xp'[q]}")[rows]
                got[q].append(estimators.combine(cols, Coalition.ABC, q, run.laws.gains) - alpha)
    assert {(role, k) for role in errors for k in (0, 1, 2)} <= taken
    for q in (0, 1):
        (mean_e, mean_u), bias = stats.bias[q]
        for s_ee, s_eu, s_uu in (stats.est[q], bias):
            assert s_eu == pytest.approx(factor * s_ee, rel=1e-12, abs=1e-300)
            assert s_uu == pytest.approx(factor * factor * s_ee, rel=1e-12, abs=1e-300)
        assert mean_u == pytest.approx(factor * mean_e, rel=1e-12, abs=1e-15)
        # the records' errors give the statistics back
        e = np.concatenate(errors[protocol.EST][q])
        assert _sum(e, e) == pytest.approx(stats.est[q][0], rel=1e-12)
        e = np.concatenate(errors[protocol.BIAS][q])
        assert float(np.mean(e)) == pytest.approx(mean_e, abs=1e-13)
        e = e - np.mean(e)
        assert _sum(e, e) == pytest.approx(bias[0], rel=1e-12)


def test_fewer_than_two_calibration_rounds_fail_with_and_without_records():
    greedy = ProtocolPolicy(witness_fraction=0.5, bias_fraction=0.5)
    for keep_records in (False, True):
        with pytest.raises(ProtocolFailureError, match="not enough calibration rounds"):
            run_protocol(IDEAL, PLAN, 10, Coalition.ABC, greedy, RandomStream(0),
                         gain_mode="fitted", keep_records=keep_records)


def test_witness_under_loss_does_not_depend_on_the_secret():
    # A's outcome carries sqrt(eta_A) alpha and the witness subtracts sqrt(eta_A)
    # alpha/sqrt(2), so at eta_A = 0.5 a large secret reads as entangled as none
    lossy = ExperimentModel(r=1.0, eta_a=0.5)

    def within(a, b):
        assert a.status == b.status == "ok" and a.entangled is b.entangled is True
        assert abs(a.mse_sum - b.mse_sum) <= 5.0 * math.hypot(a.standard_error,
                                                              b.standard_error)

    within(witness_verification_run(lossy, 30.0, 30.0, 200_000, RandomStream(9)),
           witness_verification_run(lossy, 0.0, 0.0, 200_000, RandomStream(10)))
    runs = [run_protocol(lossy, plan, 200_000, Coalition.ABC, POLICY, RandomStream(seed),
                         keep_records=False).witness
            for plan, seed in ((DisplacementPlan.gaussian_modulated(100.0), 9), (PLAN, 10))]
    within(*runs)
    # the records hold the displacement before loss, so their witness check takes eta_A
    _, chunks, (_, witness, _) = _run_chunks(lossy, DisplacementPlan.gaussian_modulated(100.0),
                                             20_000, Coalition.ABC, "analytic", 9)
    rounds = chunks[0].table[chunks[0].roles == protocol.WITNESS]
    got = entanglement_check(rounds, eta_a=0.5)
    assert got.entangled is True
    assert got.mse_sum == pytest.approx(witness.mse_sum, rel=1e-12)
    # read as eta_A = 1, each round's witness error gains (1 - sqrt(eta_A)) alpha / sqrt(2)
    assert entanglement_check(rounds).mse_sum > 5.0 * got.mse_sum
    with pytest.raises(InvalidArgumentError, match=r"^eta_a must be in \[ETA_MIN = 1e-12, 1\]$"):
        entanglement_check(rounds, eta_a=1.5)


def test_readme_states_the_size_of_the_bias_rule():
    # the bias verdict |mean| <= 5 SE over n residuals is a t test with n - 1 degrees of
    # freedom; the README's false-alarm rates are its two-sided tails, to the digits shown
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("| pool n |"))
    pools = [cell.strip() for cell in lines[head].strip("|").split("|")][1:]
    # the row's label holds escaped pipes, |t|
    rates = [cell.strip() for cell in lines[head + 2].replace("\\|", "").strip("|").split("|")][1:]
    assert pools == ["2", "5", "10", "20", "100", "normal"]
    for pool, rate in zip(pools, rates):
        want = (2.0 * scipy.stats.norm.sf(5.0) if pool == "normal"
                else 2.0 * scipy.stats.t.sf(5.0, int(pool) - 1))
        digits = len(rate.split("e")[0].replace(".", "").lstrip("0"))
        assert float(rate) == float(f"{want:.{digits}g}"), (pool, rate, want)
    # the smallest pool that reads ok is 2 residuals, as a lone A's single bias round gives
    res = run_protocol(IDEAL, PLAN, 20, Coalition.A_ALONE, POLICY, RandomStream(0),
                       keep_records=False)
    assert res.bias.n_rounds == 1 and res.bias.status == "ok"
    res = run_protocol(IDEAL, PLAN, 10, Coalition.A_ALONE, POLICY, RandomStream(0),
                       keep_records=False)
    assert res.bias.status == "insufficient-rounds"


class _ReferenceFit:
    """Stream layout 10's fitted-gain sums as a run kept them, the oracle of
    ``protocol._reports``: the calibration rounds' sum(r u) and sum(u u), the estimation
    rounds' sum(e0 u) and sum(u u) per quadrature, and the bias rounds' moments of u and
    co-moment of (e0, u), each added from 0 quadrature by quadrature and moved to the
    fitted gain at the end."""

    __slots__ = ("coalition", "sum_ru", "sum_uu", "n", "est", "bias_u", "bias_c")

    def __init__(self, coalition: Coalition):
        self.coalition = coalition
        self.sum_ru = self.sum_uu = 0.0
        self.n = 0
        self.est = ([0.0, 0.0], [0.0, 0.0])
        self.bias_u = estimators.RunningMoments()
        self.bias_c = 0.0

    def add(self, quad, est, calib, n_calib) -> None:
        sums = self.est[quad]
        sums[0] += est[1]
        sums[1] += est[2]
        self.sum_ru += calib[1]
        self.sum_uu += calib[2]
        self.n += n_calib

    def add_bias(self, k, mean_e, mean_u, scatter, bias_err) -> None:
        if k:
            n = self.bias_u.n
            shift = (mean_e - bias_err.mean) * (mean_u - self.bias_u.mean) * (n * k / (n + k))
            self.bias_c += scatter[1] + shift
            self.bias_u.merge(k, mean_u, scatter[2])

    def apply(self, gains, sq_err, bias_err):
        if self.n < 2:
            raise ProtocolFailureError("not enough calibration rounds to fit gains")
        g = estimators.fit_gain_from_sums(self.sum_ru, self.sum_uu, self.n)
        s = (g - gains.gain(self.coalition)) * gains.bias_scale
        for sq, (sum_eu, sum_uu) in zip(sq_err, self.est):
            sq[0] = sq[0] - 2.0 * s * sum_eu + s * s * sum_uu
        bias_err.mean = bias_err.mean - s * self.bias_u.mean
        bias_err.m2 = bias_err.m2 - 2.0 * s * self.bias_c + s * s * self.bias_u.m2
        three = self.coalition is Coalition.ABC
        return estimators.GainSet(g_b=0.0 if three else g, g_bc=g if three else 0.0,
                                  bias_scale=gains.bias_scale)


class _ReferenceReduction:
    """Stream layout 10's reduction of a run's draw to its reports, the oracle of
    ``protocol._reports``: a run's running sums, fed by ``add`` and read once by
    ``result``, over the statistics of the run's draw (a lone A draws no witness
    statistic, and its witness sum, which its reports never read, stays 0)."""

    def __init__(self, laws):
        self.coalition, self.gains = laws.coalition, laws.gains
        self.lone = laws.coalition is Coalition.A_ALONE
        self.fit = _ReferenceFit(laws.coalition) if laws.calib is not None else None
        self.sq_err = ([0.0, 0], [0.0, 0])
        self.sq_witness = ([0.0, 0], [0.0, 0])
        self.bias_err = estimators.RunningMoments()

    def add(self, read, stats) -> None:
        for q in (0, 1):
            est = stats.est[q]
            witness = 0.0 if stats.witness is None else stats.witness[q][0]
            for sq, value, role in ((self.sq_err[q], est[0], protocol.EST),
                                    (self.sq_witness[q], witness, protocol.WITNESS)):
                sq[0] += value
                sq[1] += int(read[role, q])
            k, ((e, u), scatter) = int(read[protocol.BIAS, q]), stats.bias[q]
            if self.fit is not None:
                self.fit.add(q, est, stats.calib[q], int(read[protocol.CALIB, q]))
                self.fit.add_bias(k, e, u, scatter, self.bias_err)
            self.bias_err.merge(k, e, scatter[0])

    def result(self):
        sq_err, bias_err, gains = self.sq_err, self.bias_err, self.gains
        if self.fit is not None:
            gains = self.fit.apply(gains, sq_err, bias_err)
        (sum_x, n_x), (sum_p, n_p) = sq_err
        if n_x < 2 or n_p < 2:
            raise ProtocolFailureError("fewer than 2 usable rounds per quadrature")
        split = 1.0 if self.lone else estimators.RESOURCE_SPLIT_FACTOR
        mse_x, mse_p = split * (sum_x / n_x), split * (sum_p / n_p)
        mse_report = estimators.MseReport(self.coalition, mse_x, mse_p, mse_x + mse_p, n_x, n_p,
                                          gains)
        if self.lone:
            witness = protocol.WitnessResult(None, None, None, None, None, None, 0, 0,
                                             WITNESS_THRESHOLD, "not-applicable")
        else:
            witness = protocol._witness_result(*self.sq_witness)
        n_bias = bias_err.n // 2 if self.lone else bias_err.n
        if bias_err.n < 2:
            bias = protocol.BiasResult(None, None, n_bias, None, "insufficient-rounds")
        else:
            mean_err, se = bias_err.mean, bias_err.standard_error()
            bias = protocol.BiasResult(mean_err, se, n_bias, bool(abs(mean_err) <= 5.0 * se),
                                       "ok")
        return mse_report, witness, bias


def _outcome(fn):
    """What ``fn()`` returns, or the protocol error it raises."""
    try:
        return fn()
    except (ProtocolFailureError, DegenerateAuxiliaryError) as exc:
        return exc


def _reports_match_the_reference(model, n, coalition, policy, seed, gain_mode):
    """A run's reports, or its error, against the reference reduction of the same draw: the
    reports bit for bit (their reprs hold every float's exact digits and the sign of a
    zero), an error by its type and message. Returns the rounds read per role and
    quadrature, and the outcome."""
    run = protocol._ProtocolRun(model, PLAN, n, coalition, policy, RandomStream(seed), gain_mode,
                                keep_records=False)
    counts, drawn = _returned(run, "_counts"), _returned(run, "_draw")
    got = _outcome(lambda: (list(run._chunks()), run.reports)[1])
    read = run._read(counts[0])
    if isinstance(got, ProtocolFailureError):
        # a run whose counts cannot report fails before its draw; the reference reduces
        # the draw that would have come next
        assert drawn == []
        gen = RandomStream(seed).chunk_generator(0)
        run._counts(gen)
        run._draw(gen, read)
    reference = _ReferenceReduction(run.laws)
    reference.add(read, drawn[0])
    want = _outcome(reference.result)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert repr(got) == repr(want)
    return read, want


# a failing draw is reported unshrunk, as in the shared-derivation test
@settings(max_examples=200, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(coalition=st.sampled_from(list(Coalition)), gain_mode=st.sampled_from(["analytic",
                                                                              "fitted"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(10, 40), r=st.floats(0.0, R_MAX),
       eta_a=st.floats(0.5, 1.0), fractions=st.sampled_from([(0.05, 0.05), (0.0, 0.25),
                                                            (0.25, 0.1), (0.5, 0.5)]))
def test_reports_are_the_reference_reduction_bit_for_bit(coalition, gain_mode, seed, n, r,
                                                         eta_a, fractions):
    # the one function from a run's draw to its reports gives what the running sums, the
    # fitted-gain accumulator and the result call of stream layout 10 gave, to the bit,
    # and raises what they raised
    policy = ProtocolPolicy(witness_fraction=fractions[0], bias_fraction=fractions[1])
    model = ExperimentModel(r=r, eta_a=eta_a, eta_b=0.9, eps_c=0.05)
    _reports_match_the_reference(model, n, coalition, policy, seed, gain_mode)


def test_the_reference_reduction_covers_small_counts_and_every_failure(monkeypatch):
    # over small runs the oracle meets bias and calibration counts of 0, 1 and 2, both
    # ProtocolFailureErrors, the witness's and the bias check's insufficient-rounds reports,
    # and (with a zero auxiliary, which no model makes) the DegenerateAuxiliaryError; a
    # few runs of 5,000 rounds give the witness its 100 rounds per quadrature
    policies = [POLICY, ProtocolPolicy(witness_fraction=0.25, bias_fraction=0.1),
                ProtocolPolicy(witness_fraction=0.5, bias_fraction=0.5)]
    seen = set()
    for seed in range(123):
        n, policy = (10 + seed % 31, policies[seed % 3]) if seed < 120 else (5000, POLICY)
        for coalition in Coalition:
            for gain_mode in ("analytic", "fitted"):
                read, want = _reports_match_the_reference(LOSSY, n, coalition, policy, seed,
                                                          gain_mode)
                seen.add(("bias", int(read[protocol.BIAS].sum())))
                if gain_mode == "fitted" and coalition is not Coalition.A_ALONE:
                    seen.add(("calib", int(read[protocol.CALIB].sum())))
                if isinstance(want, Exception):
                    seen.add(str(want))
                else:
                    seen.add(("witness", want[1].status))
                    seen.add(("bias", want[2].status))
    assert {(role, k) for role in ("bias", "calib") for k in (0, 1, 2)} <= seen
    assert {"not enough calibration rounds to fit gains",
            "fewer than 2 usable rounds per quadrature", ("witness", "insufficient-rounds"),
            ("witness", "ok"), ("witness", "not-applicable"), ("bias", "insufficient-rounds"),
            ("bias", "ok")} <= seen
    orig = protocol._functionals

    def zero_aux(factor, coalition, quad, gains, fitted):
        return [orig(factor, coalition, quad, gains, fitted)[0], np.zeros(3)]

    monkeypatch.setattr(protocol, "_functionals", zero_aux)
    _, want = _reports_match_the_reference(IDEAL, 1000, Coalition.ABC, POLICY, 7, "fitted")
    assert isinstance(want, DegenerateAuxiliaryError)
