"""Outcome sampling: stream reproducibility, moments, dual-homodyne penalty."""

import math

import numpy as np
import pytest

from cvshare.errors import InvalidArgumentError
from cvshare.gaussian_core import ExperimentModel, GaussianState, build_dealer_state, partial_trace
from cvshare.sampler import (
    MeasurementAssignment,
    RandomStream,
    mvn_sample,
    outcome_moments,
    sample_joint,
)


def test_mvn_sample_matches_manual_expression():
    mean = np.array([1.0, -2.0, 0.5])
    a = np.array([[2.0, 0.0, 0.0], [0.3, 1.0, 0.0], [-0.2, 0.4, 0.7]])
    got = mvn_sample(np.random.Generator(np.random.PCG64(42)), mean, a, 50)
    z = np.random.Generator(np.random.PCG64(42)).standard_normal((50, 3))
    assert np.array_equal(got, mean[None, :] + z @ a.T)


def test_stream_reproducibility_and_independence():
    st3 = build_dealer_state(ExperimentModel(r=0.8), 0.1, 0.2)
    asn = MeasurementAssignment(("x", "x", "x"))
    a = sample_joint(st3, asn, 100, RandomStream(123))
    b = sample_joint(st3, asn, 100, RandomStream(123))
    c = sample_joint(st3, asn, 100, RandomStream(123, stream_id=1))
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_stream_validation():
    with pytest.raises(InvalidArgumentError):
        RandomStream(-1)
    with pytest.raises(InvalidArgumentError):
        RandomStream(2**64)
    with pytest.raises(InvalidArgumentError):
        RandomStream(1.5)


def test_stream_and_chunk_bit_generators():
    # the whole-stream generator, which bounds --band and the reference sampler
    # read, stays PCG64; the chunk streams of the sampled runs are SFC64
    s = RandomStream(5, stream_id=2)
    assert type(s.generator().bit_generator) is np.random.PCG64
    for i in (0, 1, 7):
        gen = s.chunk_generator(i)
        assert type(gen.bit_generator) is np.random.SFC64
        want = np.random.Generator(np.random.SFC64(np.random.SeedSequence(5, spawn_key=(2, i))))
        assert np.array_equal(gen.standard_normal(8), want.standard_normal(8))


def test_assignment_validation():
    with pytest.raises(InvalidArgumentError):
        MeasurementAssignment(())
    with pytest.raises(InvalidArgumentError):
        MeasurementAssignment(("none", "none"))
    with pytest.raises(InvalidArgumentError):
        MeasurementAssignment(("x", "bogus"))


def test_assignment_indices_and_labels():
    asn = MeasurementAssignment(("p", "none", "xp"))
    assert asn.quadrature_indices() == [1, 4, 5]
    assert asn.dual_modes() == [2]
    assert asn.labels(("c", "b", "a")) == ["p_c", "x_a", "p_a"]


def test_outcome_moments_homodyne_are_submatrix():
    st3 = build_dealer_state(ExperimentModel(r=1.0), 0.4, -0.6)
    asn = MeasurementAssignment(("x", "none", "p"))
    mean, cov = outcome_moments(st3, asn)
    assert np.array_equal(mean, st3.mean[[0, 5]])
    assert np.array_equal(cov, st3.cov[np.ix_([0, 5], [0, 5])])


def test_dual_homodyne_moments_match_beamsplitter_model():
    # independent derivation of the +1 penalty: split the mode on a
    # balanced coupler against vacuum, then read x on one output and p
    # on the other, rescaled by sqrt(2)
    target = partial_trace(
        build_dealer_state(ExperimentModel(r=1.0, eta_a=0.7, eps_a=0.1), 0.4, -0.2), [2]
    )
    mean_d, cov_d = outcome_moments(target, MeasurementAssignment(("xp",)))

    # balanced beamsplitter [[I2, I2], [-I2, I2]] / sqrt(2) on target (+) vacuum
    s = math.sqrt(0.5) * np.kron([[1.0, 1.0], [-1.0, 1.0]], np.eye(2))
    mean4 = np.concatenate([target.mean, np.zeros(2)])
    cov4 = np.block([[target.cov, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    two = GaussianState(2, s @ mean4, s @ cov4 @ s.T)
    mean2, cov2 = outcome_moments(two, MeasurementAssignment(("x", "p")))
    scale = np.diag([math.sqrt(2.0), -math.sqrt(2.0)])
    assert np.allclose(scale @ mean2, mean_d, atol=1e-12)
    assert np.allclose(scale @ cov2 @ scale.T, cov_d, atol=1e-12)


def test_sample_moments_converge():
    st3 = build_dealer_state(ExperimentModel(r=1.0), 0.5, -0.5)
    asn = MeasurementAssignment(("x", "x", "x"))
    mean, cov = outcome_moments(st3, asn)
    out = sample_joint(st3, asn, 200_000, RandomStream(7))
    assert np.allclose(out.mean(axis=0), mean, atol=0.03)
    assert np.allclose(np.cov(out.T), cov, atol=0.05)


def test_sample_dual_homodyne_variances():
    red = partial_trace(build_dealer_state(ExperimentModel(r=1.0), 0.0, 0.0), [2])
    out = sample_joint(red, MeasurementAssignment(("xp",)), 200_000, RandomStream(9))
    want = math.cosh(2.0) + 1.0
    assert np.var(out[:, 0]) == pytest.approx(want, rel=0.02)
    assert np.var(out[:, 1]) == pytest.approx(want, rel=0.02)


def test_sample_joint_validates_shots():
    with pytest.raises(InvalidArgumentError):
        sample_joint(
            GaussianState(1, np.zeros(2), np.eye(2)), MeasurementAssignment(("x",)), 0, RandomStream(0)
        )

