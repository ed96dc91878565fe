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
    CONSTRAINT_RHS,
    STATUS_DEGENERATE_DUAL,
    STATUS_OK,
    build_dual_certificate,
    build_primal_certificate,
    certificate_columns,
    constraint_residuals,
    dual_vector,
    primal_value,
    verify_certificate_stack,
    verify_certificates,
    x1_eigenvalue_formulas,
    x2_eigenvalue_formula,
    y1_eigenvalue_formulas,
    y2_eigenvalue_formulas,
    y3_eigenvalue_formula,
)
from cvshare.errors import DegenerateDualError, InvalidArgumentError
from cvshare.gaussian_core import THERMAL_MAX


def test_vacuum_point_eigenvalues():
    p = ThermalParams(0.0, 0.0)
    assert x1_eigenvalue_formulas(p) == (5.0, 5.0)
    assert x2_eigenvalue_formula(p) == 8.0
    x1, x2 = build_primal_certificate(p)
    assert sorted(np.linalg.eigvalsh(x1)) == pytest.approx([0.0, 0.0, 5.0, 5.0], abs=1e-12)
    assert sorted(np.linalg.eigvalsh(x2)) == pytest.approx([0.0, 0.0, 0.0, 8.0], abs=1e-12)


def test_objective_is_singular_only_at_the_vacuum():
    # 1 + i D / 2 is singular where v1 v2 = 1; s from n is 0 only at n1 = n2 = 0, so
    # the points where 1 + 2 n rounds to 1 keep their objective, 4 to the last bit
    for n in (1e-17, 1e-300, 2.2250738585072014e-308):
        p = ThermalParams(n, 0.0)
        assert p.v1 * p.v2 == 1.0
        assert primal_value(build_primal_certificate(p)[1], p) == 4.0


def test_objective_pairs_x2_with_the_core_at_unit_occupation():
    # at n1 = n2 = 1, D = [[0, 2/3], [-2/3, 0]] and the traced objective is the bound 8
    p = ThermalParams(1.0, 1.0)
    _, x2 = build_primal_certificate(p)
    core = np.linalg.inv(np.eye(2) + 0.5j * np.array([[0.0, 2.0 / 3.0], [-2.0 / 3.0, 0.0]]))
    traced = np.trace(x2[2:4, 2:4] @ core)
    assert traced.real == pytest.approx(8.0, rel=1e-15)
    assert primal_value(x2, p) == pytest.approx(traced.real, rel=1e-15)


def test_dual_vector_reproduces_bound():
    for p in (ThermalParams(0.0, 0.0), ThermalParams(0.4, 1.1), ThermalParams(2.0, 0.3)):
        assert float(dual_vector(p) @ CONSTRAINT_RHS) == pytest.approx(hcrb_thermal(p), rel=1e-14)


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
    x1, x2 = build_primal_certificate(p)
    res = constraint_residuals(x1, x2)
    assert res.shape == (6,)
    assert res.max() <= 1e-12


def test_primal_value_matches_bound():
    p = ThermalParams(0.5, 1.5)
    _, x2 = build_primal_certificate(p)
    assert primal_value(x2, p) == pytest.approx(hcrb_thermal(p), rel=1e-12)


def test_degenerate_point_raises_where_undefined():
    p = ThermalParams(0.0, 0.0)
    with pytest.raises(DegenerateDualError):
        build_dual_certificate(p)
    with pytest.raises(DegenerateDualError):
        y3_eigenvalue_formula(p)
    _, x2 = build_primal_certificate(p)
    with pytest.raises(DegenerateDualError):
        primal_value(x2, p)


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
    rep = verify_certificates(ThermalParams(0.3, 0.3), tol=0.0)
    assert rep.primal_value != rep.dual_value
    assert not rep.values_match


@settings(max_examples=300, deadline=None)
@given(points=st.lists(st.tuples(*2 * [st.one_of(st.just(0.0), st.floats(1e-300, THERMAL_MAX))]),
                       min_size=1, max_size=20))
@example(points=[(0.0, 0.0), (0.1, 0.1), (0.5, 0.5), (THERMAL_MAX, THERMAL_MAX)])
@example(points=[(1e-17, 0.0), (0.0, 1e-12), (1e-300, 1e-300), (3e-8, 1e-16)])
def test_zero_tolerance_is_bitwise_equality(points):
    # every value is finite, so the relative rule at tol 0 passes exactly the points
    # whose primal, dual and bound are bitwise equal
    cols = certificate_columns([a for a, _ in points], [b for _, b in points], tol=0.0)
    exact = (cols.primal_value == cols.dual_value) & (cols.dual_value == hcrb_thermal(cols))
    assert np.array_equal(cols.values_match, exact)


@pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan, -1.0, -5e-324, 1.5])
def test_tolerance_outside_the_unit_interval_is_rejected(tol):
    # tol = inf once marked every point ok, and NaN or a negative tol every point failed
    for check in (lambda: certificate_columns([0.5], [0.5], tol),
                  lambda: verify_certificate_stack([0.5], [0.5], tol),
                  lambda: verify_certificates(ThermalParams(0.5, 0.5), tol)):
        with pytest.raises(InvalidArgumentError, match=r"^tol must be in \[0, 1\]$"):
            check()
    assert verify_certificates(ThermalParams(0.5, 0.5), 1.0).values_match


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
    else:
        root_diff = math.sqrt(c) - math.sqrt(d)
        primal = (root_diff * root_diff * (v1 * v2) / (2.0 * n1 + 2.0 * n2 + 4.0 * n1 * n2)
                  + 2.0 * math.sqrt(c * d) / (1.0 + 1.0 / math.sqrt(v1 * v2)))

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


_TINY = np.finfo(float).tiny
_SPECIAL_OCCUPATIONS = [0.0, _TINY, 1e-300, 1e-17, 1e-12, 1e-7, 0.5, 3e3, 1e8, 1e12]
# 0 or at least the smallest normal float; Y3 overflows below that (see
# test_y3_overflow_below_the_smallest_normal_float_is_an_error)
_occupation = st.one_of(st.sampled_from(_SPECIAL_OCCUPATIONS),
                        st.floats(_TINY, 1e12, allow_nan=False, allow_infinity=False),
                        st.floats(_TINY, 5.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(points=st.lists(st.tuples(_occupation, _occupation), min_size=1, max_size=40),
       tol=st.sampled_from([0.0, certificates.DEFAULT_TOL]))
@example(points=[(0.0, 0.0)], tol=certificates.DEFAULT_TOL)
@example(points=[(0.0, 0.0)], tol=0.0)
@example(points=[(a, b) for a in _SPECIAL_OCCUPATIONS for b in _SPECIAL_OCCUPATIONS], tol=0.0)
@example(points=[(a, b) for a in _SPECIAL_OCCUPATIONS for b in _SPECIAL_OCCUPATIONS],
         tol=certificates.DEFAULT_TOL)
@example(points=[(0.1, 0.1), (0.2, 3.0), (0.0, 1e-12), (1e-17, 0.0), (_TINY, 0.0)], tol=0.0)
# points where (1 + n) ** 2 through libm pow and (1 + n) * (1 + n) round apart
@example(points=[(4.854727400604526, 3.6563962320681256),
                 (175.06096189371112, 4.686711494159911e-10),
                 (0.14624780096198772, 0.00040206272163356)], tol=certificates.DEFAULT_TOL)
def test_stacked_check_matches_scalar_reference(points, tol):
    # every field, bit for bit (JSON text carries each float's shortest repr),
    # with the points checked as one stack; n1 < n2 is swapped by both
    want = [_reference_report(ThermalParams(a, b), tol) for a, b in points]
    got = verify_certificate_stack([a for a, _ in points], [b for _, b in points], tol)
    assert len(got) == len(points)
    for rep, ref in zip(got, want):
        assert json.dumps(rep.to_json_dict(), sort_keys=True) == json.dumps(ref, sort_keys=True)
    one = verify_certificates(ThermalParams(*points[-1]), tol)
    assert json.dumps(one.to_json_dict(), sort_keys=True) == json.dumps(want[-1], sort_keys=True)


@pytest.mark.parametrize("n1, n2", [(5e-324, 0.0), (1e-310, 1e-310), (_TINY / 2, _TINY / 4)])
def test_y3_overflow_below_the_smallest_normal_float_is_an_error(n1, n2):
    # Y3's eigenvalue is about 2 / s, which overflows where n1 + n2 is below the
    # smallest normal float; the check raises before it builds any Y3
    p = ThermalParams(n1, n2)
    for check in (lambda: certificate_columns([0.5, n1], [0.5, n2]),
                  lambda: verify_certificates(p), lambda: y3_eigenvalue_formula(p),
                  lambda: build_dual_certificate(p),
                  lambda: primal_value(build_primal_certificate(p)[1], p)):
        with pytest.raises(DegenerateDualError,
                           match=r"overflowing where 0 < n1 \+ n2 < 2.2e-308$"):
            check()


def _oracle_objective(n1: float, n2: float, c: float, d: float):
    """tr{[[c, i sqrt(cd)], [-i sqrt(cd), d]] (1 + i D / 2)^{-1}} with complex mpmath
    matrices, D / 2 = [[0, delta], [-delta, 0]] and delta = 1 / sqrt(v1 v2) from the
    exact n; 1 - delta^2 is about s, so the precision grows with the digits of 1 / s."""
    mpmath = pytest.importorskip("mpmath")
    s = 2 * mpmath.mpf(n1) + 2 * mpmath.mpf(n2) + 4 * mpmath.mpf(n1) * mpmath.mpf(n2)
    with mpmath.workdps(40 + max(0, int(mpmath.ceil(-mpmath.log10(s))))):
        n1, n2, c, d = map(mpmath.mpf, (n1, n2, c, d))
        delta = 1 / mpmath.sqrt((1 + 2 * n1) * (1 + 2 * n2))
        off = mpmath.sqrt(c * d)
        block = mpmath.matrix([[c, 1j * off], [-1j * off, d]])
        core = mpmath.matrix([[1, 1j * delta], [-1j * delta, 1]]) ** -1
        product = block * core
        return mpmath.re(product[0, 0] + product[1, 1])


@settings(max_examples=300, deadline=None)
@given(n1=st.one_of(st.just(0.0), st.floats(1e-300, THERMAL_MAX)),
       n2=st.one_of(st.just(0.0), st.floats(1e-300, THERMAL_MAX)))
@example(n1=1e-17, n2=0.0)
@example(n1=0.0, n2=1e-12)
@example(n1=1e-300, n2=0.0)
@example(n1=7.4e-17, n2=3.1e-17)
def test_objective_matches_a_high_precision_trace(n1, n2):
    # the closed form against the trace it replaces, evaluated directly; the c and d
    # of the float X2 are taken as exact, so only the objective's own rounding counts
    if n1 == n2 == 0.0:
        return
    p = ThermalParams(n1, n2)
    _, x2 = build_primal_certificate(p)
    want = _oracle_objective(p.n1, p.n2, x2[2, 2].real, x2[3, 3].real)
    got = float(primal_value(x2, p))
    assert abs(got - want) <= 4 * math.ulp(float(want))


@pytest.mark.parametrize(
    "n1, n2, message",
    [([math.nan], [0.5], "thermal parameters must be finite"),
     ([math.inf], [0.0], "thermal parameters must be finite"),
     ([0.0], [-math.inf], "thermal parameters must be finite"),
     ([-1.0], [0.0], "thermal parameters must be >= 0"),
     ([0.5], [-5e-324], "thermal parameters must be >= 0"),
     ([2e12], [0.0], "thermal parameter n1 must be at most 1e\\+12"),
     ([0.0, 0.5], [0.5, 1.5e12], "thermal parameter n2 must be at most 1e\\+12"),
     ([0.5, 0.5], [0.5], "n1 and n2 must be 1-D sequences of one length"),
     ([[0.5]], [[0.5]], "n1 and n2 must be 1-D sequences of one length"),
     (0.5, 0.5, "n1 and n2 must be 1-D sequences of one length")],
    ids=["nan", "inf", "minus-inf", "negative", "minus-denormal", "above-thermal-max-n1",
         "above-thermal-max-n2", "lengths", "two-d", "scalars"],
)
def test_points_are_checked_where_they_enter(monkeypatch, n1, n2, message):
    # NaN raised numpy's LinAlgError, -1 and inf warned, 2e12 read ok and arrays of
    # different lengths failed to broadcast; each is now one InvalidArgumentError
    # with ThermalParams' wording, raised before any eigvalsh
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh ran before the points were checked")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    for check in (certificate_columns, verify_certificate_stack):
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            check(n1, n2)
