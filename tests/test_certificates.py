"""Closed-form primal/dual certificate pairs for the estimation bound."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    verify_certificate_stack,
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


def _reference_report(params, tol):
    """The check of one point as it ran before the stacked check: the builders and
    checks of verify_certificates copied with Python floats, np.array blocks and
    one eigvalsh per block, so the stack can be held to its bits."""
    n1, n2, v1, v2 = params.n1, params.n2, params.v1, params.v2
    x1 = np.array([[1.0, 0.0, -2.0 - 2.0 * n1, 0.0], [0.0, 1.0, 0.0, -2.0 - 2.0 * n2],
                   [-2.0 - 2.0 * n1, 0.0, 4.0 * (1.0 + n1) ** 2, 0.0],
                   [0.0, -2.0 - 2.0 * n2, 0.0, 4.0 * (1.0 + n2) ** 2]])
    c, d = 4.0 * (1.0 + n2) ** 2 / v2, 4.0 * (1.0 + n1) ** 2 / v1
    x2 = np.zeros((4, 4), dtype=complex)
    x2[2, 2], x2[3, 3] = c, d
    x2[2, 3], x2[3, 2] = 1j * math.sqrt(c * d), -1j * math.sqrt(c * d)
    a1, a2 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    a3, zero2 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))
    ul = x1[0:2, 0:2] + x2[0:2, 0:2].real
    residuals = [abs(float(np.trace(ul @ bj)) - bval) for bj, bval in
                 zip((zero2, zero2, zero2, a1, a2, a3), (0.0, 0.0, 0.0, 1.0, 1.0, 0.0))]
    degenerate = n1 == 0.0 and n2 == 0.0
    if degenerate:
        primal = 4.0
    elif v1 * v2 == 1.0:
        raise DegenerateDualError("objective core is singular at n1 = n2 = 0")
    else:
        off = 2.0 / math.sqrt(v1 * v2)
        d_matrix = np.array([[0.0, off], [-off, 0.0]])
        c_core = np.linalg.inv(np.eye(2, dtype=complex) + 1j * d_matrix / 2.0)
        primal = float(np.real(np.trace(x2[2:4, 2:4] @ c_core)))

    def block_ok(eigs, formulas):
        values = eigs.tolist()
        scale = max(1.0, -values[0], values[-1])
        return values[0] >= -certificates.DEFAULT_TOL * scale and all(
            abs(e - f) <= tol * (abs(f) + scale) for e, f in zip(values, sorted(formulas)))

    x1_eigs, x2_eigs = np.linalg.eigvalsh(x1), np.linalg.eigvalsh(x2)
    feasible_primal = bool(
        max(residuals) <= max(tol, certificates.DEFAULT_TOL)
        and block_ok(x1_eigs, (0.0, 0.0, 5.0 + 4.0 * n1 * (2.0 + n1), 5.0 + 4.0 * n2 * (2.0 + n2)))
        and block_ok(x2_eigs, (0.0, 0.0, 0.0, c + d)))
    y = np.array([v2 / (2.0 + 2.0 * n2), v1 / (2.0 + 2.0 * n1), 0.0, 2.0 + 2.0 * n1,
                  2.0 + 2.0 * n2, 0.0])
    dual = float(y @ np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    y1 = np.array([[2.0 * (1.0 + n1), 0.0, 1.0, 0.0], [0.0, 2.0 * (1.0 + n2), 0.0, 1.0],
                   [1.0, 0.0, 1.0 / (2.0 + 2.0 * n1), 0.0],
                   [0.0, 1.0, 0.0, 1.0 / (2.0 + 2.0 * n2)]])
    y2_diag = [1.0 - 1.0 / (2.0 * (1.0 + n2)), 1.0 - 1.0 / (2.0 * (1.0 + n1))]
    e, f = 2.0 * (1.0 + n1), 2.0 * (1.0 + n2)
    y1_eigs, y2_eigs = np.linalg.eigvalsh(y1), np.linalg.eigvalsh(np.diag(y2_diag))
    blocks = [(y1_eigs, (0.0, 0.0, e + 1.0 / e, f + 1.0 / f)), (y2_eigs, y2_diag)]
    y3_eigs = np.array([])
    if not degenerate:
        denom = 2.0 * n1 + 2.0 * n2 + 4.0 * n1 * n2
        off = math.sqrt((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2)) / denom
        y3_eigs = np.linalg.eigvalsh(np.array(
            [[1.0 / (2.0 * (1.0 + n2)) + 1.0 / denom, -1j * off],
             [1j * off, 1.0 / (2.0 * (1.0 + n1)) + 1.0 / denom]], dtype=complex))
        num = (1.0 + (2.0 + n2 / 2.0) * n2 + n1**2 * (0.5 + n2)
               + n1 * (2.0 + n2 * (4.0 + n2)))
        blocks.append((y3_eigs, (0.0, num / ((1.0 + n1) * (1.0 + n2) * (n1 + n2 + 2.0 * n1 * n2)))))
    bound = 4.0 + 2.0 * n1 + 2.0 * n2
    values_match = bool(abs(primal - dual) <= max(tol, 0.0) * (1.0 + abs(primal))
                        and abs(primal - bound) <= tol * (1.0 + abs(bound)))
    if tol == 0.0:
        values_match = bool(primal == dual == bound)
    return {
        "n1": n1, "n2": n2, "primal_value": primal, "dual_value": dual,
        "x1_eigs": x1_eigs.tolist(), "x2_eigs": x2_eigs.tolist(), "y1_eigs": y1_eigs.tolist(),
        "y2_eigs": y2_eigs.tolist(), "y3_eigs": y3_eigs.tolist(),
        "feasible_primal": feasible_primal, "feasible_dual": all(block_ok(*b) for b in blocks),
        "values_match": values_match, "constraint_residuals": residuals,
        "status": STATUS_DEGENERATE_DUAL if degenerate else STATUS_OK,
    }


_SPECIAL_OCCUPATIONS = [0.0, 1e-12, 1e-7, 0.5, 3e3, 1e8, 1e12]
_occupation = st.one_of(st.sampled_from(_SPECIAL_OCCUPATIONS),
                        st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
                        st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(_occupation, _occupation), min_size=1, max_size=40),
       tol=st.sampled_from([0.0, certificates.DEFAULT_TOL]))
@example(points=[(0.0, 0.0)], tol=certificates.DEFAULT_TOL)
@example(points=[(0.0, 0.0)], tol=0.0)
@example(points=[(a, b) for a in _SPECIAL_OCCUPATIONS for b in _SPECIAL_OCCUPATIONS], tol=0.0)
@example(points=[(a, b) for a in _SPECIAL_OCCUPATIONS for b in _SPECIAL_OCCUPATIONS],
         tol=certificates.DEFAULT_TOL)
@example(points=[(0.1, 0.1), (0.2, 3.0), (0.0, 1e-12)], tol=0.0)
# points where (1 + n) ** 2 through libm pow and (1 + n) * (1 + n) round apart
@example(points=[(4.854727400604526, 3.6563962320681256),
                 (175.06096189371112, 4.686711494159911e-10),
                 (0.14624780096198772, 0.00040206272163356)], tol=certificates.DEFAULT_TOL)
def test_stacked_check_matches_scalar_reference(points, tol):
    # every field, bit for bit (JSON text carries each float's shortest repr),
    # with the points checked as one stack; n1 < n2 is swapped by both
    try:
        want = [_reference_report(ThermalParams(a, b), tol) for a, b in points]
    except DegenerateDualError:
        # a point with 1 + 2 n == 1 in floating point but n > 0 has a singular core
        with pytest.raises(DegenerateDualError):
            verify_certificate_stack([a for a, _ in points], [b for _, b in points], tol)
        return
    got = verify_certificate_stack([a for a, _ in points], [b for _, b in points], tol)
    assert len(got) == len(points)
    for rep, ref in zip(got, want):
        assert json.dumps(rep.to_json_dict(), sort_keys=True) == json.dumps(ref, sort_keys=True)
    one = verify_certificates(ThermalParams(*points[-1]), tol)
    assert json.dumps(one.to_json_dict(), sort_keys=True) == json.dumps(want[-1], sort_keys=True)
