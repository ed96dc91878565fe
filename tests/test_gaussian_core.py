"""State construction and checks, the dealer state, partial trace and state files."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvshare.errors import InvalidArgumentError, UnsupportedStateError
from cvshare.gaussian_core import (
    ALPHA_MAX,
    EPS_MAX,
    ETA_MIN,
    PHYSICALITY_SLACK,
    R_MAX,
    ExperimentModel,
    GaussianState,
    build_dealer_state,
    check_covariances,
    dealer_covariances,
    partial_trace,
    physicality_min_eigenvalue,
    state_from_text,
    state_to_text,
    symplectic_form,
)


def ideal_dealer_cov(r: float) -> np.ndarray:
    """Closed-form covariance of the distributed (C, B, A) state."""
    c2 = math.cosh(r) ** 2
    s2 = math.sinh(r) ** 2
    cross = math.sqrt(2.0) * math.cosh(r) * math.sinh(r)
    cov = np.zeros((6, 6))
    cov[0, 0] = cov[1, 1] = cov[2, 2] = cov[3, 3] = c2
    cov[4, 4] = cov[5, 5] = math.cosh(2.0 * r)
    cov[0, 2] = cov[2, 0] = -s2
    cov[1, 3] = cov[3, 1] = -s2
    cov[0, 4] = cov[4, 0] = -cross
    cov[1, 5] = cov[5, 1] = cross
    cov[2, 4] = cov[4, 2] = cross
    cov[3, 5] = cov[5, 3] = -cross
    return cov


def test_vacuum_is_identity_covariance():
    # without squeezing every input is vacuum, and beamsplitters keep it so
    st3 = build_dealer_state(ExperimentModel(r=0.0), 0.0, 0.0)
    assert st3.n_modes == 3
    assert np.allclose(st3.cov, np.eye(6), rtol=0.0, atol=1e-15)
    assert np.array_equal(st3.mean, np.zeros(6))


def test_squeezed_vacuum_variances():
    # undoing both beamsplitters recovers the inputs: vacuum C, x-squeezed
    # B and p-squeezed A; rows are the input modes over outputs (C, B, A)
    r = 0.7
    h = math.sqrt(0.5)
    undo = np.kron([[h, h, 0.0], [-0.5, 0.5, -h], [-0.5, 0.5, h]], np.eye(2))
    cov = build_dealer_state(ExperimentModel(r=r), 0.0, 0.0).cov
    lo, hi = math.exp(-2 * r), math.exp(2 * r)
    assert np.allclose(undo @ cov @ undo.T, np.diag([1.0, 1.0, lo, hi, hi, lo]), atol=1e-12)


def test_symplectic_form_block_structure():
    om = symplectic_form(2)
    expect = np.zeros((4, 4))
    expect[0, 1] = 1.0
    expect[1, 0] = -1.0
    expect[2, 3] = 1.0
    expect[3, 2] = -1.0
    assert np.array_equal(om, expect)


def test_beamsplitter_preserves_symplectic_form():
    # the ideal state is pure, cov = S S^T with S symplectic, so that
    # (cov Omega)^2 = -I: the beamsplitter network preserves Omega
    om = symplectic_form(3)
    for r in (0.0, 0.4, 1.0, 1.5):
        cov = build_dealer_state(ExperimentModel(r=r), 0.0, 0.0).cov
        assert np.allclose(cov @ om @ cov @ om, -np.eye(6), atol=1e-9)


def test_beamsplitter_balanced_mixes_variances():
    r = 0.8
    cov = build_dealer_state(ExperimentModel(r=r), 0.0, 0.0).cov
    # the first 50:50 gives A the mean of the e^{-2r} and e^{2r} variances
    va = 0.5 * (math.exp(-2 * r) + math.exp(2 * r))
    assert cov[4, 4] == pytest.approx(va)
    # the second mixes the other output with vacuum into C and B
    assert cov[0, 0] == pytest.approx(0.5 * (va + 1.0))
    assert cov[2, 2] == pytest.approx(0.5 * (va + 1.0))


def test_displace_shifts_mean_only():
    model = ExperimentModel(r=0.6)
    out = build_dealer_state(model, 0.3, -0.4)
    assert np.array_equal(out.cov, build_dealer_state(model, 0.0, 0.0).cov)
    assert np.array_equal(out.mean, [0.0, 0.0, 0.0, 0.0, 0.3, -0.4])


def test_loss_interpolates_to_vacuum():
    ideal = build_dealer_state(ExperimentModel(r=1.0), 0.0, 0.0).cov
    near = build_dealer_state(ExperimentModel(1.0, 1e-12, 1e-12, 1e-12), 0.0, 0.0)
    assert np.allclose(near.cov, np.eye(6), atol=1e-10)
    half = build_dealer_state(ExperimentModel(1.0, 0.5, 0.5, 0.5), 0.0, 0.0)
    assert np.allclose(half.cov, 0.5 * ideal + 0.5 * np.eye(6), atol=1e-12)
    with pytest.raises(InvalidArgumentError):
        ExperimentModel(r=1.0, eta_b=0.0)
    assert ExperimentModel(r=1.0, eta_c=ETA_MIN).eta_c == 1e-12
    with pytest.raises(InvalidArgumentError, match="ETA_MIN"):
        ExperimentModel(r=1.0, eta_a=math.nextafter(ETA_MIN, 0.0))
    with pytest.raises(InvalidArgumentError):
        ExperimentModel(r=1.0, eta_b=1.1)


def test_loss_scales_mean_by_root_eta():
    out = build_dealer_state(ExperimentModel(r=0.5, eta_a=0.25, eta_b=0.5), 2.0, -1.0)
    assert out.mean[4] == pytest.approx(1.0)
    assert out.mean[5] == pytest.approx(-0.5)


def test_excess_noise_adds_to_block():
    base = build_dealer_state(ExperimentModel(r=0.7, eta_b=0.8), 0.0, 0.0).cov
    model = ExperimentModel(r=0.7, eta_b=0.8, eps_a=0.2, eps_b=0.1, eps_c=0.3)
    noisy = build_dealer_state(model, 0.0, 0.0).cov
    assert np.allclose(noisy - base, np.diag([0.3, 0.3, 0.1, 0.1, 0.2, 0.2]), atol=1e-12)


def test_partial_trace_picks_mode_blocks():
    model = ExperimentModel(r=0.9)
    st3 = build_dealer_state(model, 0.5, -0.5)
    red = partial_trace(st3, [2])
    assert red.n_modes == 1
    assert np.allclose(red.cov, st3.cov[4:6, 4:6])
    assert np.allclose(red.mean, [0.5, -0.5])


def test_partial_trace_reads_integer_mode_indices():
    st3 = build_dealer_state(ExperimentModel(r=0.9), 0.5, -0.5)
    assert np.array_equal(partial_trace(st3, [np.int64(2)]).cov, partial_trace(st3, [2]).cov)
    # True ran as mode 1 and 0.0 raised numpy's IndexError
    for keep in ([True], [0.0], [np.float64(1.0)], ["0"]):
        with pytest.raises(InvalidArgumentError, match="^keep must be an integer$"):
            partial_trace(st3, keep)
    for keep in ([3], [-1], [0, 5]):
        with pytest.raises(InvalidArgumentError, match=r"^keep must be mode indices in \[0, 3\)$"):
            partial_trace(st3, keep)
    for keep, message in (([], "keep must be non-empty"), ([1, 1], "keep must be duplicate-free")):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            partial_trace(st3, keep)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.5, 1.0, 1.5])
def test_dealer_state_matches_closed_form(r):
    st3 = build_dealer_state(ExperimentModel(r=r), 0.3, -0.7)
    assert np.allclose(st3.cov, ideal_dealer_cov(r), atol=1e-12)
    assert np.allclose(st3.mean, [0, 0, 0, 0, 0.3, -0.7], atol=1e-15)


def test_dealer_state_loss_and_noise():
    eta, eps = 0.8, 0.05
    model = ExperimentModel(r=1.0, eta_a=eta, eps_a=eps)
    st3 = build_dealer_state(model, 1.0, 0.0)
    ideal = ideal_dealer_cov(1.0)
    # signal arm block: eta * V + (1 - eta) + eps; cross terms scale by sqrt(eta)
    assert st3.cov[4, 4] == pytest.approx(eta * ideal[4, 4] + (1 - eta) + eps)
    assert st3.cov[0, 4] == pytest.approx(math.sqrt(eta) * ideal[0, 4])
    assert st3.mean[4] == pytest.approx(math.sqrt(eta))


def test_dealer_state_is_checked_once(monkeypatch):
    # the dealer state is assembled on arrays and validated only when wrapped
    calls = []
    post_init = GaussianState.__post_init__

    def counted(self):
        calls.append(self.n_modes)
        post_init(self)

    monkeypatch.setattr(GaussianState, "__post_init__", counted)
    build_dealer_state(ExperimentModel(r=1.0), 0.3, -0.7)
    assert calls == [3]
    model = ExperimentModel(r=1.0, eta_a=0.8, eta_b=0.7, eta_c=0.9, eps_a=0.1, eps_b=0.2, eps_c=0.3)
    build_dealer_state(model, 0.3, -0.7)
    assert calls == [3, 3]


@pytest.mark.parametrize(
    "bad, message",
    [
        (0.5 * np.eye(6), "cov violates the uncertainty relation"),
        (np.eye(6) + np.triu(np.ones((6, 6)), 1), "cov must be symmetric"),
    ],
    ids=["unphysical", "asymmetric"],
)
def test_covariance_stack_check_names_the_bad_member(bad, message):
    model = ExperimentModel(r=0.0, eta_a=0.8, eps_b=0.1)
    covs = dealer_covariances(np.array([0.0, 0.5, 1.0, 1.5]), model)
    assert np.array_equal(check_covariances(covs), covs)
    covs[2] = bad
    with pytest.raises(InvalidArgumentError, match=rf"^{message} \(stack member 2\)$"):
        check_covariances(covs)
    # a stack of one, as the state constructor passes, keeps the bare message
    with pytest.raises(InvalidArgumentError, match=rf"^{message}$"):
        GaussianState(3, np.zeros(6), bad)


def test_dealer_covariances_check_every_squeezing_value():
    model = ExperimentModel(r=0.0)
    with pytest.raises(InvalidArgumentError, match="R_MAX"):
        dealer_covariances(np.array([1.0, math.nextafter(R_MAX, math.inf)]), model)
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError, match="r must be finite and >= 0"):
            dealer_covariances(np.array([0.5, bad]), model)
    # a 0-d r raised a bare TypeError and a 2-D one a bare ValueError
    for bad in (0.5, np.array(0.5), [[0.5, 1.0]]):
        with pytest.raises(InvalidArgumentError,
                           match="^r must be a 1-D array of squeezing values$"):
            dealer_covariances(bad, model)


def _assert_check_keeps_every_bit(rs, model):
    covs = dealer_covariances(rs, model)
    checked = check_covariances(covs)
    assert np.array_equal(checked.view(np.uint64), covs.view(np.uint64)), model


# dealer_covariances does not check what it builds: its channel maps keep a state
# physical, and these two tests prove over the whole box of accepted inputs (r in
# [0, R_MAX], each eta in [ETA_MIN, 1], each eps in [0, EPS_MAX]) that the check
# would accept every stack and leave every bit; that also proves each stack exactly
# symmetric as built, so dealer_covariances symmetrises none
BOX_RS = [0.0, 1e-300, 0.5, 4.0, math.nextafter(R_MAX, 0.0), R_MAX]


def test_dealer_covariances_pass_the_check_at_every_corner_of_the_box():
    # 27 eta and 64 eps corners, 6 squeezing values each: 10,368 matrices
    for etas in itertools.product([ETA_MIN, 0.5, 1.0], repeat=3):
        for epss in itertools.product([0.0, 1e-12, 1.0, EPS_MAX], repeat=3):
            _assert_check_keeps_every_bit(BOX_RS, ExperimentModel(0.0, *etas, *epss))


eta_box = st.floats(ETA_MIN, 1.0)
eps_box = st.floats(0.0, EPS_MAX)


@settings(max_examples=300)
@given(
    rs=st.lists(st.floats(0.0, R_MAX), min_size=1, max_size=8),
    etas=st.tuples(eta_box, eta_box, eta_box),
    epss=st.tuples(eps_box, eps_box, eps_box),
)
@example(rs=BOX_RS, etas=(ETA_MIN,) * 3, epss=(EPS_MAX,) * 3)
@example(rs=BOX_RS, etas=(1.0, ETA_MIN, 0.5), epss=(0.0, 1e-12, EPS_MAX))
def test_dealer_covariances_pass_the_check_across_the_box(rs, etas, epss):
    _assert_check_keeps_every_bit(rs, ExperimentModel(0.0, *etas, *epss))


def test_dealer_state_is_physical_under_heavy_loss():
    model = ExperimentModel(r=1.5, eta_a=0.3, eta_b=0.6, eta_c=0.9, eps_a=0.1)
    st3 = build_dealer_state(model, 0.0, 0.0)
    assert physicality_min_eigenvalue(st3) >= -1e-9


def test_state_rejects_unphysical_covariance():
    with pytest.raises(InvalidArgumentError):
        GaussianState(1, np.zeros(2), 0.5 * np.eye(2))


def test_state_rejects_asymmetric_covariance():
    cov = np.eye(2)
    cov[0, 1] = 0.5
    with pytest.raises(InvalidArgumentError):
        GaussianState(1, np.zeros(2), cov)


def test_state_arrays_are_read_only():
    st1 = GaussianState(1, np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        st1.cov[0, 0] = 5.0


def test_experiment_model_validation():
    with pytest.raises(InvalidArgumentError):
        ExperimentModel(r=-0.1)
    assert ExperimentModel(r=R_MAX).r == R_MAX
    with pytest.raises(InvalidArgumentError, match="R_MAX"):
        ExperimentModel(r=math.nextafter(R_MAX, math.inf))
    with pytest.raises(InvalidArgumentError):
        ExperimentModel(r=0.5, eta_a=1.5)
    with pytest.raises(InvalidArgumentError):
        ExperimentModel(r=0.5, eps_b=-0.01)


def test_state_text_roundtrip():
    st3 = build_dealer_state(ExperimentModel(r=0.8, eta_a=0.9), 0.2, 0.4)
    text = state_to_text(st3)
    back = state_from_text(text)
    assert back.n_modes == 3
    assert np.array_equal(back.mean, st3.mean)
    assert np.array_equal(back.cov, st3.cov)


def test_dealer_displacement_is_bounded_by_alpha_max():
    # only finiteness was checked, so a displacement of 2e6 built a state
    model = ExperimentModel(r=1.0)
    assert build_dealer_state(model, ALPHA_MAX, -ALPHA_MAX).mean[4:].tolist() == [1e6, -1e6]
    for bad in (np.nextafter(ALPHA_MAX, math.inf), -2e6):
        with pytest.raises(InvalidArgumentError, match=r"^\|alpha_x\| must be at most 1e\+06$"):
            build_dealer_state(model, bad, 0.0)
        with pytest.raises(InvalidArgumentError, match=r"^\|alpha_p\| must be at most 1e\+06$"):
            build_dealer_state(model, 0.0, bad)
    with pytest.raises(InvalidArgumentError, match="^displacement must be finite$"):
        build_dealer_state(model, math.inf, 0.0)


def test_state_from_text_rejects_malformed():
    with pytest.raises(UnsupportedStateError):
        state_from_text("not a state\n")
    with pytest.raises(UnsupportedStateError):
        state_from_text("2\n0 0 0 0\n1 0 0\n")


unit = st.floats(0.05, 1.0)
noise = st.floats(0.0, 0.5)


@given(
    r=st.floats(0.0, R_MAX),
    etas=st.tuples(unit, unit, unit),
    epss=st.tuples(noise, noise, noise),
    alpha=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
)
def test_channel_chain_preserves_physicality(r, etas, epss, alpha):
    # per arm (C, B, A), loss scales that arm's rows and columns by sqrt(eta)
    # and adds (1 - eta) + eps to its diagonal; the mean is A's scaled alpha
    eta_c, eta_b, eta_a = etas
    eps_c, eps_b, eps_a = epss
    model = ExperimentModel(r, eta_a, eta_b, eta_c, eps_a, eps_b, eps_c)
    st3 = build_dealer_state(model, *alpha)
    scale = max(1.0, float(np.max(np.abs(st3.cov))))
    assert physicality_min_eigenvalue(st3) >= -PHYSICALITY_SLACK * scale
    root = np.sqrt(np.repeat(etas, 2))
    want_cov = ideal_dealer_cov(r) * np.outer(root, root)
    want_cov += np.diag(np.repeat(1.0 - np.array(etas) + np.array(epss), 2))
    assert np.max(np.abs(st3.cov - want_cov)) <= 1e-12 * scale
    want_mean = root * np.array([0.0, 0.0, 0.0, 0.0, *alpha])
    assert np.allclose(st3.mean, want_mean, rtol=1e-12, atol=1e-12)
    ideal = build_dealer_state(ExperimentModel(r), 0.0, 0.0)
    assert np.max(np.abs(ideal.cov - ideal_dealer_cov(r))) <= 1e-12 * np.max(np.abs(ideal.cov))
