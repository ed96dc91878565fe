"""Closed-form primal/dual certificate pairs for the estimation bound."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvshare import certificates
from cvshare.bounds import ThermalParams, hcrb_thermal
from cvshare.certificates import (
    STATUS_DEGENERATE_DUAL,
    STATUS_OK,
    build_dual_certificate,
    build_primal_certificate,
    build_sdp_data,
    constraint_residuals,
    dual_vector,
    primal_value_blockwise,
    verify_certificates,
    x1_eigenvalue_formulas,
    x2_eigenvalue_formula,
    y1_eigenvalue_formulas,
    y2_eigenvalue_formulas,
    y3_eigenvalue_formula,
)
from cvshare.errors import DegenerateDualError


def test_vacuum_point_eigenvalues():
    p = ThermalParams(0.0, 0.0)
    assert x1_eigenvalue_formulas(p) == (5.0, 5.0)
    assert x2_eigenvalue_formula(p) == 8.0
    x1, x2 = build_primal_certificate(p)
    assert sorted(np.linalg.eigvalsh(x1)) == pytest.approx([0.0, 0.0, 5.0, 5.0], abs=1e-12)
    assert sorted(np.linalg.eigvalsh(x2)) == pytest.approx([0.0, 0.0, 0.0, 8.0], abs=1e-12)


def test_vacuum_point_m_is_identity():
    data = build_sdp_data(ThermalParams(0.0, 0.0))
    assert np.array_equal(data.m_matrix, np.eye(2))
    assert data.c_core is None


def test_d_matrix_entries_at_unit_occupation():
    data = build_sdp_data(ThermalParams(1.0, 1.0))
    assert data.d_matrix[0, 1] == pytest.approx(2.0 / 3.0)
    assert data.d_matrix[1, 0] == pytest.approx(-2.0 / 3.0)
    assert data.d_matrix[0, 0] == 0.0


def test_dual_vector_reproduces_bound():
    for p in (ThermalParams(0.0, 0.0), ThermalParams(0.4, 1.1), ThermalParams(2.0, 0.3)):
        data = build_sdp_data(p)
        assert float(dual_vector(p) @ data.b) == pytest.approx(hcrb_thermal(p), rel=1e-14)


def test_x2_hermitian_psd():
    _, x2 = build_primal_certificate(ThermalParams(0.3, 1.7))
    assert np.allclose(x2, x2.conj().T)
    assert np.linalg.eigvalsh(x2).min() >= -1e-12


def test_y2_eigenvalues_at_least_half():
    for p in (ThermalParams(0.0, 0.0), ThermalParams(0.01, 3.0), ThermalParams(5.0, 5.0)):
        lo, hi = y2_eigenvalue_formulas(p)
        assert min(lo, hi) >= 0.5


def test_y3_formula_matches_matrix():
    p = ThermalParams(1.0, 2.0)
    _, _, _, y3 = build_dual_certificate(p)
    eigs = sorted(np.linalg.eigvalsh(y3))
    assert eigs[0] == pytest.approx(0.0, abs=1e-12)
    assert eigs[1] == pytest.approx(y3_eigenvalue_formula(p), rel=1e-12)


def test_y1_eigenvalue_formulas_match():
    p = ThermalParams(0.6, 1.4)
    _, y1, _, _ = build_dual_certificate(p)
    eigs = sorted(np.linalg.eigvalsh(y1))
    expect = sorted((0.0, 0.0) + y1_eigenvalue_formulas(p))
    assert eigs == pytest.approx(expect, abs=1e-10)


def test_constraint_residuals_vanish():
    p = ThermalParams(0.8, 0.2)
    data = build_sdp_data(p)
    x1, x2 = build_primal_certificate(p)
    res = constraint_residuals(x1, x2, data)
    assert res.shape == (6,)
    assert res.max() <= 1e-12


def test_primal_value_blockwise_matches_bound():
    p = ThermalParams(0.5, 1.5)
    data = build_sdp_data(p)
    _, x2 = build_primal_certificate(p)
    assert primal_value_blockwise(x2, data) == pytest.approx(hcrb_thermal(p), rel=1e-12)


def test_degenerate_point_raises_where_undefined():
    p = ThermalParams(0.0, 0.0)
    with pytest.raises(DegenerateDualError):
        build_dual_certificate(p)
    with pytest.raises(DegenerateDualError):
        y3_eigenvalue_formula(p)
    data = build_sdp_data(p)
    _, x2 = build_primal_certificate(p)
    with pytest.raises(DegenerateDualError):
        primal_value_blockwise(x2, data)


def test_verify_at_degenerate_point():
    rep = verify_certificates(ThermalParams(0.0, 0.0))
    assert rep.status == STATUS_DEGENERATE_DUAL
    assert rep.primal_value == 4.0
    assert rep.dual_value == 4.0
    assert rep.feasible_primal and rep.feasible_dual
    assert rep.values_match
    assert rep.y3_eigs == ()


def test_verify_regular_point():
    rep = verify_certificates(ThermalParams(0.5, 0.5))
    assert rep.status == STATUS_OK
    assert rep.feasible_primal and rep.feasible_dual and rep.values_match
    assert rep.primal_value == pytest.approx(6.0, rel=1e-12)
    assert len(rep.y3_eigs) == 2
    d = rep.to_json_dict()
    assert d["status"] == "ok"
    assert d["n1"] == 0.5


def test_zero_tolerance_exposes_rounding():
    # primal and dual agree to ~1e-16 here but not bitwise
    rep = verify_certificates(ThermalParams(0.1, 0.1), tol=0.0)
    assert rep.primal_value != rep.dual_value
    assert not rep.values_match


@given(
    n1=st.floats(0.01, 5.0, allow_nan=False),
    n2=st.floats(0.01, 5.0, allow_nan=False),
)
def test_strong_duality_holds(n1, n2):
    p = ThermalParams(n1, n2)
    rep = verify_certificates(p)
    assert rep.status == STATUS_OK
    assert rep.feasible_primal
    assert rep.feasible_dual
    assert rep.values_match
    assert rep.primal_value == pytest.approx(hcrb_thermal(p), rel=1e-9)


@pytest.mark.parametrize("n1, n2", [(1e8, 0.0), (0.0, 1e8), (1e12, 0.0), (1e12, 1e12), (3e3, 0.5)])
def test_large_occupation_certificates_hold(n1, n2):
    # X1's largest eigenvalue is about 4 n^2, so eigvalsh's round-off on its zero
    # eigenvalues grows with n; an absolute tolerance read it as infeasible
    rep = verify_certificates(ThermalParams(n1, n2))
    assert rep.feasible_primal and rep.feasible_dual and rep.values_match


@pytest.mark.parametrize("n1", [0.5, 1e8, 1e12])
def test_x1_with_a_negative_eigenvalue_fails(monkeypatch, n1):
    params = ThermalParams(n1, 0.0)
    build = certificates.build_primal_certificate
    x1, _ = build(params)
    # a real negative eigenvalue of a millionth of the block's scale; with the
    # block's own eigenvalues as its formulas, only the PSD check can fail
    shift = 1e-6 * np.linalg.eigvalsh(x1)[-1] * np.eye(4)
    eigs, bad = np.linalg.eigvalsh(x1), np.linalg.eigvalsh(x1 - shift)
    assert certificates._block_ok(eigs, eigs, certificates.DEFAULT_TOL)
    assert not certificates._block_ok(bad, bad, certificates.DEFAULT_TOL)

    def shifted(p):
        a, b = build(p)
        return a - shift, b

    monkeypatch.setattr(certificates, "build_primal_certificate", shifted)
    rep = verify_certificates(params)
    assert min(rep.x1_eigs) < 0.0
    assert not rep.feasible_primal
