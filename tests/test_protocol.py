"""End-to-end protocol runs: sifting, verification subsets, reports."""

import math
from dataclasses import fields

import numpy as np
import pytest

from cvshare.bounds import predicted_mse, witness_bound
from cvshare.errors import (
    AbortLossError,
    InvalidArgumentError,
    ProtocolFailureError,
    ResourceLimitError,
)
from cvshare.estimators import Coalition
from cvshare.gaussian_core import ExperimentModel, build_dealer_state
from cvshare.protocol import (
    MAX_ROUNDS,
    ROUND_COLUMNS,
    WITNESS_THRESHOLD,
    DisplacementPlan,
    ProtocolPolicy,
    RoundRecord,
    RoundTable,
    batch_mse_distribution,
    entanglement_check,
    linear_mse_batches,
    run_protocol,
    sift,
    surrogate_intercept_state,
    witness_verification_run,
)
from cvshare.sampler import RandomStream

IDEAL = ExperimentModel(r=1.0)
PLAN = DisplacementPlan.fixed(1.0, -0.5)
POLICY = ProtocolPolicy()


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
    # the cap is checked before the random stream is opened, so nothing is allocated
    def no_rounds(self):
        raise AssertionError("the rounds' random stream was opened")

    monkeypatch.setattr(RandomStream, "generator", no_rounds)
    with pytest.raises(ResourceLimitError, match=str(MAX_ROUNDS)):
        run_protocol(IDEAL, PLAN, MAX_ROUNDS + 1, Coalition.AB, POLICY, RandomStream(0))
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


def test_determinism_and_stream_independence():
    a = run_protocol(IDEAL, PLAN, 2000, Coalition.ABC, POLICY, RandomStream(7))
    b = run_protocol(IDEAL, PLAN, 2000, Coalition.ABC, POLICY, RandomStream(7))
    assert a.mse_report.mse_sum == b.mse_report.mse_sum
    assert a.witness.mse_sum == b.witness.mse_sum
    assert list(a.records[:50]) == list(b.records[:50])
    for name in ROUND_COLUMNS:
        assert np.array_equal(getattr(a.records, name), getattr(b.records, name), equal_nan=True)
    c = run_protocol(IDEAL, PLAN, 2000, Coalition.ABC, POLICY, RandomStream(7, stream_id=1))
    assert a.mse_report.mse_sum != c.mse_report.mse_sum


def test_record_structure_pair_coalition():
    res = run_protocol(IDEAL, PLAN, 4000, Coalition.AB, POLICY, RandomStream(3))
    assert len(res.records) == 4000
    for rec in res.records[:200]:
        assert rec.basis_a == rec.basis_b  # shared coin
        assert rec.kept == (rec.basis_a == rec.dealer_basis)
        # exactly the chosen quadrature was measured
        if rec.basis_b == "x":
            assert rec.x_b is not None and rec.p_b is None
        else:
            assert rec.p_b is not None and rec.x_b is None
        assert rec.alpha_x == 1.0 and rec.alpha_p == -0.5


def test_record_structure_single_party():
    res = run_protocol(IDEAL, PLAN, 500, Coalition.A_ALONE, POLICY, RandomStream(3))
    for rec in res.records:
        assert rec.basis_a == "xp"
        assert rec.x_a is not None and rec.p_a is not None
        assert rec.kept


def test_keep_records_off():
    res = run_protocol(IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(1), keep_records=False)
    assert isinstance(res.records, RoundTable)
    assert len(res.records) == 0
    assert list(res.records) == []
    assert res.mse_report.n_x >= 2
    # the reports do not depend on whether the rounds are kept
    full = run_protocol(IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(1))
    assert full.mse_report == res.mse_report
    assert full.witness == res.witness


def test_row_view_matches_round_record():
    # rounds 0 and 1 as RoundRecord objects were built before the table existed
    res = run_protocol(IDEAL, PLAN, 100, Coalition.AB, POLICY, RandomStream(3))
    assert res.records[0] == RoundRecord(
        round_index=0, alpha_x=1.0, alpha_p=-0.5, dealer_basis="p", basis_a="x",
        basis_b="x", basis_c="p", x_c=None, p_c=0.6119166457868633,
        x_b=-0.10857395485024525, p_b=None, x_a=2.1769674782871586, p_a=None, kept=False,
    )
    assert res.records[1] == RoundRecord(
        round_index=1, alpha_x=1.0, alpha_p=-0.5, dealer_basis="p", basis_a="p",
        basis_b="p", basis_c="x", x_c=1.4964210607193285, p_c=None, x_b=None,
        p_b=0.19060606396099042, x_a=None, p_a=0.47268194892808413, kept=True,
    )
    res = run_protocol(IDEAL, PLAN, 100, Coalition.A_ALONE, POLICY, RandomStream(3))
    assert res.records[0] == RoundRecord(
        round_index=0, alpha_x=1.0, alpha_p=-0.5, dealer_basis="p", basis_a="xp",
        basis_b="x", basis_c="p", x_c=None, p_c=-3.208951902486326,
        x_b=-0.36080058896677925, p_b=None, x_a=1.1075747487454481,
        p_a=-2.9143668898002977, kept=True,
    )
    row = res.records[-1]
    assert row.round_index == 99 and type(row.round_index) is int
    assert type(row.x_a) is float and type(row.kept) is bool
    assert res.records[99] == row == list(res.records)[-1]
    with pytest.raises(IndexError):
        res.records[100]


def test_round_table_operations():
    res = run_protocol(IDEAL, PLAN, 10_000, Coalition.ABC, POLICY, RandomStream(19))
    table = res.records
    assert [f.name for f in fields(RoundTable)] == list(ROUND_COLUMNS)
    assert table.round_index.dtype == np.int64
    assert table.dealer_basis.dtype == np.int8 and table.basis_a.dtype == np.int8
    assert table.kept.dtype == bool
    # iteration crosses the row-conversion chunks and keeps the order
    assert [r.round_index for r in table] == list(range(10_000))
    # mask selection
    mask = table.kept & (table.alpha_x > 0.0)
    picked = table[mask]
    assert isinstance(picked, RoundTable)
    assert len(picked) == int(mask.sum())
    assert np.array_equal(picked.round_index, np.flatnonzero(mask))
    assert list(picked[:20]) == [table[int(i)] for i in np.flatnonzero(mask)[:20]]
    # concatenation
    head, tail = table[:300], table[300:]
    joined = head + tail
    assert len(joined) == len(table)
    for name in ROUND_COLUMNS:
        col = getattr(joined, name)
        assert col.dtype == getattr(table, name).dtype
        assert np.array_equal(col, getattr(table, name), equal_nan=True)
    assert list(table[5:8] + table[:2]) == [table[5], table[6], table[7], table[0], table[1]]
    assert len(RoundTable.empty() + table[:3]) == 3


def test_sift():
    res = run_protocol(IDEAL, PLAN, 1000, Coalition.AB, POLICY, RandomStream(5))
    xs = sift(res.records, "x")
    assert len(xs) and all(r.kept and r.dealer_basis == "x" for r in xs)
    ps = sift(res.records, "p")
    assert len(ps) and all(r.kept and r.dealer_basis == "p" for r in ps)
    assert len(xs) + len(ps) == sum(r.kept for r in res.records)
    kept = [r for r in res.records if r.kept]
    assert sorted(list(xs) + list(ps), key=lambda r: r.round_index) == kept
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
    assert all(r.alpha_x == 1.0 for r in res.records)  # 2.0 / sqrt(4)
    gplan = DisplacementPlan.gaussian_modulated(2.0, n_rep=4)
    res = run_protocol(IDEAL, gplan, 200, Coalition.AB, POLICY, RandomStream(2))
    ax = [r.alpha_x for r in res.records]
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
    # the witness subset is still reserved, so estimation rounds are unchanged
    assert wit.n_x + wit.n_p == round(POLICY.witness_fraction * 40_000)
    assert res.mse_report.n_x == 40_000 - 2_000 - 2_000  # witness and bias subsets, 5% each


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


def test_linear_mse_batches_against_reshape():
    rng = np.random.Generator(np.random.PCG64(5))
    out = rng.standard_normal((600, 3))
    w = np.array([0.25, -1.0, 0.5])
    t = rng.standard_normal(600)
    want = np.mean((out @ w - t).reshape(4, 150) ** 2, axis=1)
    assert np.allclose(linear_mse_batches(out, w, t, 4), want, rtol=1e-12)


def test_linear_mse_batches_validates_shapes():
    out = np.zeros((10, 2))
    w = np.zeros(2)
    t = np.zeros(10)
    with pytest.raises(ValueError):
        linear_mse_batches(out, w, t, 3)
    with pytest.raises(ValueError):
        linear_mse_batches(out, np.zeros(3), t, 2)
    with pytest.raises(ValueError):
        linear_mse_batches(out, w, np.zeros(9), 2)


def test_batch_mse_distribution_limits():
    with pytest.raises(InvalidArgumentError):
        batch_mse_distribution(IDEAL, Coalition.AB, 10, 99, RandomStream(0))
    with pytest.raises(InvalidArgumentError):
        batch_mse_distribution(IDEAL, Coalition.AB, 0, 100, RandomStream(0))
    with pytest.raises(ResourceLimitError):
        batch_mse_distribution(IDEAL, Coalition.AB, 10_000_000, 100, RandomStream(0))
