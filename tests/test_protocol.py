"""End-to-end protocol runs: sifting, verification subsets, reports."""

import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from cvshare import protocol
from cvshare.bounds import predicted_mse, witness_bound
from cvshare.errors import (
    AbortLossError,
    InvalidArgumentError,
    ProtocolFailureError,
    ResourceLimitError,
)
from cvshare.estimators import Coalition, fit_gain
from cvshare.gaussian_core import ExperimentModel, build_dealer_state
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
    # rounds 0 and 1 as drawn by stream layout 3: the dealer-basis triple of each
    # kept round first, then the normals still missing
    res = run_protocol(IDEAL, PLAN, 100, Coalition.AB, POLICY, RandomStream(3))
    assert res.records[0] == RoundRecord(
        round_index=0, alpha_x=1.0, alpha_p=-0.5, dealer_basis="p", basis_a="x",
        basis_b="x", basis_c="x", x_c=-1.395049359813273, p_c=None,
        x_b=1.8399223546309884, p_b=None, x_a=3.6632337730819247, p_a=None, kept=False,
    )
    assert res.records[1] == RoundRecord(
        round_index=1, alpha_x=1.0, alpha_p=-0.5, dealer_basis="p", basis_a="p",
        basis_b="p", basis_c="x", x_c=0.2874825697005943, p_c=None, x_b=None,
        p_b=1.2337770400114467, x_a=None, p_a=-0.5105116203114373, kept=True,
    )
    res = run_protocol(IDEAL, PLAN, 100, Coalition.A_ALONE, POLICY, RandomStream(3))
    assert res.records[0] == RoundRecord(
        round_index=0, alpha_x=1.0, alpha_p=-0.5, dealer_basis="p", basis_a="xp",
        basis_b="x", basis_c="x", x_c=-0.1898308438777777, p_c=None,
        x_b=1.5089215788405625, p_b=None, x_a=1.6682066719473845,
        p_a=-0.48040110389602814, kept=True,
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
    # of 0.22 leaves some chunks short; later chunks make up the shortfall
    greedy = ProtocolPolicy(witness_fraction=0.22)
    res = run_protocol(IDEAL, plan, n, Coalition.AB, greedy, RandomStream(59),
                       keep_records=False)
    assert res.witness.n_x + res.witness.n_p == round(0.22 * n)


def _chunks(coalition, n, fitted, calibrating=False, plan=PLAN):
    factors = protocol._triple_factors(build_dealer_state(IDEAL, 0.0, 0.0).cov)
    return list(protocol._draw_chunks(plan, n, coalition, POLICY, RandomStream(67), factors,
                                      1.0, fitted, calibrating))


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_chunk_masks_partition_the_rounds(monkeypatch, coalition):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    n = 1000
    lone = coalition is Coalition.A_ALONE
    chunks = _chunks(coalition, n, fitted=not lone)
    assert [ch.start for ch in chunks] == list(range(0, n, 64))
    counts = dict.fromkeys(("discarded", "witness", "bias", "calib", "estimation"), 0)
    for ch in chunks:
        est = ch.kept & ~ch.witness & ~ch.bias & ~ch.calib
        parts = {"discarded": ~ch.kept, "witness": ch.witness, "bias": ch.bias,
                 "calib": ch.calib, "estimation": est}
        # every round falls in exactly one part
        assert np.array_equal(sum(p.astype(int) for p in parts.values()),
                              np.ones(ch.kept.size, dtype=int))
        # witness rounds are rounds where every party homodyned the dealer's basis
        others = (ch.basis_b == ch.dealer_basis) & (ch.basis_c == ch.dealer_basis)
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


def test_fitted_gain_is_exact_over_the_replayed_chunks(monkeypatch):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    n = 1000
    plan = DisplacementPlan.gaussian_modulated(2.0, n_rep=3)
    full = _chunks(Coalition.ABC, n, fitted=True, plan=plan)
    calibration = _chunks(Coalition.ABC, n, fitted=True, calibrating=True, plan=plan)
    r, u = [], []
    for a, b in zip(full, calibration, strict=True):
        for name in a._fields:
            if name not in ("start", "calibration", "reads", "outcomes"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name
        # the calibration pass draws the calibration rounds alone, and the same ones
        assert b.reads == () and b.outcomes is None
        for ca, cb in zip(a.calibration, b.calibration, strict=True):
            assert ca.quad == cb.quad
            for name in ("rows", "triple", "truth"):
                assert np.array_equal(getattr(ca, name), getattr(cb, name)), name
            assert np.array_equal(ca.rows, np.flatnonzero(a.calib & (a.dealer_basis == ca.quad)))
            truth = (a.alpha_p if ca.quad else a.alpha_x)[ca.rows]
            assert np.array_equal(ca.truth, truth)
            r.append(ca.triple[:, 0] - truth)
            sign = -1.0 if ca.quad else 1.0
            u.append(sign * (ca.triple[:, 1] - ca.triple[:, 2]) / math.sqrt(2.0))
    res = run_protocol(IDEAL, plan, n, Coalition.ABC, POLICY, RandomStream(67),
                       gain_mode="fitted", keep_records=False)
    expect = fit_gain(np.concatenate(r), np.concatenate(u))
    assert res.mse_report.gains.g_bc == pytest.approx(expect, rel=1e-12)


class _CountingGenerator:
    """A chunk generator that records the shape of every normal draw made through it."""

    def __init__(self, gen, shapes):
        self._gen, self._shapes = gen, shapes

    def standard_normal(self, size):
        out = self._gen.standard_normal(size)
        self._shapes.append(out.shape)
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_normals(monkeypatch) -> list:
    shapes = []
    chunk_generator = RandomStream.chunk_generator
    monkeypatch.setattr(RandomStream, "chunk_generator",
                        lambda self, i: _CountingGenerator(chunk_generator(self, i), shapes))
    return shapes


@pytest.mark.parametrize("gain_mode", ["analytic", "fitted"])
@pytest.mark.parametrize("coalition", [Coalition.AB, Coalition.AC, Coalition.ABC],
                         ids=lambda c: c.value)
def test_non_lone_run_draws_one_triple_per_kept_round(monkeypatch, coalition, gain_mode):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    n = 5000
    plan = DisplacementPlan.gaussian_modulated(2.0)
    kept = int(run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71),
                            gain_mode=gain_mode).records.kept.sum())
    shapes = _count_normals(monkeypatch)
    res = run_protocol(IDEAL, plan, n, coalition, POLICY, RandomStream(71),
                       gain_mode=gain_mode, keep_records=False)
    n_est = kept - (res.witness.n_x + res.witness.n_p) - res.bias.n_rounds
    n_calib = n_est - (res.mse_report.n_x + res.mse_report.n_p)
    assert n_calib == (n_est // 2 if gain_mode == "fitted" else 0)
    passes = 2 if gain_mode == "fitted" else 1
    # one x and one p displacement normal per round and pass
    assert sum(s[0] for s in shapes if len(s) == 1) == 2 * n * passes
    # three normals per kept round, none for a discarded one; the calibration
    # pass draws the calibration rounds' triples again
    triples = [s for s in shapes if len(s) == 2]
    assert all(s[1] == 3 for s in triples)
    assert sum(s[0] for s in triples) == kept + n_calib
    assert len(shapes) == sum(1 for s in shapes if len(s) == 1) + len(triples)


def test_lone_run_draws_four_normals_per_round(monkeypatch):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    shapes = _count_normals(monkeypatch)
    run_protocol(IDEAL, PLAN, 5000, Coalition.A_ALONE, POLICY, RandomStream(71),
                 keep_records=False)
    # A's x and p normals and its two vacuum units
    assert all(s[1:] == (4,) for s in shapes)
    assert sum(s[0] for s in shapes) == 5000


def test_witness_run_draws_three_normals_per_round(monkeypatch):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 1024)
    shapes = _count_normals(monkeypatch)
    witness_verification_run(IDEAL, 1.0, -1.0, 5000, RandomStream(71))
    assert all(s[1:] == (3,) for s in shapes)
    assert sum(s[0] for s in shapes) == 5000


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


@pytest.mark.parametrize("coalition", list(Coalition), ids=lambda c: c.value)
def test_records_hold_the_outcomes_the_reports_read(monkeypatch, coalition):
    monkeypatch.setattr(protocol, "_CHUNK_ROUNDS", 64)
    lone = coalition is Coalition.A_ALONE
    factors = protocol._triple_factors(build_dealer_state(IDEAL, 0.0, 0.0).cov)
    for ch in protocol._draw_chunks(PLAN, 1000, coalition, POLICY, RandomStream(67), factors,
                                    1.0, fitted=not lone, records=True):
        assert len(ch.reads) == 2 and len(ch.calibration) == (0 if lone else 2)
        for r in ch.calibration + ch.reads:
            assert np.array_equal(ch.outcomes[r.quad, r.rows, : r.triple.shape[1]], r.triple)


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
