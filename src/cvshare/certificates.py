"""Closed-form primal and dual certificates for the thermal-state estimation bound.

The bound 4 + 2*n1 + 2*n2 is certified by exhibiting a feasible primal
matrix X = X1 (+) X2 and a feasible dual vector y whose objective
values coincide. All blocks below are closed forms in (n1, n2); this
module rebuilds them and verifies every printed eigenvalue formula,
positive semidefiniteness, the constraint traces and the matching of
the primal and dual values.

The certificate data pairs blocks of different sizes, so the trace
objective and the constraints are evaluated blockwise: the constraint
basis acts on the upper-left 2x2 blocks of X1 and X2, and the objective
pairs the lower-right 2x2 block of X2 with the complex core matrix
C_core = (1 + i D / 2)^{-1}. With that bookkeeping every printed
quantity is reproduced exactly.

:func:`certificate_columns` checks a stack of points in one numpy pass,
with one batched ``eigvalsh`` per block kind; LAPACK runs the same
routine on each member as on a single matrix. It returns the checks as
arrays, and :func:`verify_certificate_stack` turns them into one report
per point. The builders take a ThermalParams or a stack alike, and
:func:`verify_certificates` is the stacked check on a stack of one, so
both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import ThermalParams, hcrb_thermal
from .errors import DegenerateDualError

#: default numerical tolerance for certificate verification
DEFAULT_TOL = 1e-9

#: status values a CertificateReport can carry
STATUS_OK = "ok"
STATUS_DEGENERATE_DUAL = "degenerate-dual"


@dataclass(frozen=True, slots=True)
class SdpData:
    """Constraint and objective data for the certificate problem.

    The point-dependent matrices carry the leading axes of the points.
    c_core is None when a point is n1 = n2 = 0, where 1 + i D / 2 is
    exactly singular; the objective there is the analytic limit handled
    by :func:`verify_certificate_stack`.
    """

    a_basis: tuple[np.ndarray, ...]
    b_basis: tuple[np.ndarray, ...]
    b: np.ndarray
    m_matrix: np.ndarray
    d_matrix: np.ndarray
    c_upper: np.ndarray
    c_middle: np.ndarray
    c_core: np.ndarray | None


@dataclass(frozen=True, slots=True)
class CertificateReport:
    """Verification outcome for one (n1, n2) point."""

    n1: float
    n2: float
    primal_value: float
    dual_value: float
    x1_eigs: tuple[float, ...]
    x2_eigs: tuple[float, ...]
    y1_eigs: tuple[float, ...]
    y2_eigs: tuple[float, ...]
    y3_eigs: tuple[float, ...]
    feasible_primal: bool
    feasible_dual: bool
    values_match: bool
    constraint_residuals: tuple[float, ...]
    status: str

    def to_json_dict(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "x1_eigs": list(self.x1_eigs),
            "x2_eigs": list(self.x2_eigs),
            "y1_eigs": list(self.y1_eigs),
            "y2_eigs": list(self.y2_eigs),
            "y3_eigs": list(self.y3_eigs),
            "feasible_primal": self.feasible_primal,
            "feasible_dual": self.feasible_dual,
            "values_match": self.values_match,
            "constraint_residuals": list(self.constraint_residuals),
            "status": self.status,
        }


@dataclass(frozen=True, slots=True)
class _ThermalStack:
    """Arrays of thermal parameters, n1 >= n2 per point, read as a ThermalParams is."""

    n1: np.ndarray
    n2: np.ndarray
    v1 = ThermalParams.v1
    v2 = ThermalParams.v2


def _square(a) -> np.ndarray:
    """a ** 2 through libm pow, as Python's float ``**`` computes it; a * a differs
    from it in the last bit for about one value in 2,000."""
    a = np.asarray(a, dtype=float)
    return np.reshape([v**2 for v in a.ravel().tolist()], a.shape)


def _columns(*cols) -> np.ndarray:
    """Scalars and arrays of the stack's shape as the columns of one array."""
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def build_sdp_data(params: ThermalParams) -> SdpData:
    """Constraint basis, objective blocks and core matrices for (n1, n2)."""
    v1, v2 = np.asarray(params.v1), np.asarray(params.v2)
    a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    a3 = np.array([[0.0, 1.0], [1.0, 0.0]])
    zero2 = np.zeros((2, 2))
    m_matrix = np.zeros(v1.shape + (2, 2))
    m_matrix[..., 0, 0], m_matrix[..., 1, 1] = 1.0 / np.sqrt(v1), 1.0 / np.sqrt(v2)
    d_matrix = np.zeros(v1.shape + (2, 2))
    d_matrix[..., 0, 1] = 2.0 / np.sqrt(v1 * v2)
    d_matrix[..., 1, 0] = -d_matrix[..., 0, 1]
    # det(1 + i D / 2) = 1 - 1/(v1 v2): singular exactly at the vacuum point
    singular = np.any(v1 * v2 == 1.0)
    return SdpData(
        a_basis=(a1, a2, a3, zero2, zero2, zero2),
        b_basis=(zero2, zero2, zero2, a1, a2, a3),
        b=np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0]),
        m_matrix=m_matrix,
        d_matrix=d_matrix,
        c_upper=np.block([[zero2, np.eye(2)], [np.eye(2), zero2]]),
        c_middle=np.zeros((4, 4)),
        c_core=None if singular else np.linalg.inv(np.eye(2, dtype=complex) + 1j * d_matrix / 2.0),
    )


def build_primal_certificate(params: ThermalParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form primal blocks (X1 real 4x4, X2 complex Hermitian 4x4)."""
    n1, n2 = np.asarray(params.n1), np.asarray(params.n2)
    x1 = np.zeros(n1.shape + (4, 4))
    x1[..., 0, 0] = x1[..., 1, 1] = 1.0
    x1[..., 0, 2] = x1[..., 2, 0] = -2.0 - 2.0 * n1
    x1[..., 1, 3] = x1[..., 3, 1] = -2.0 - 2.0 * n2
    x1[..., 2, 2], x1[..., 3, 3] = 4.0 * _square(1.0 + n1), 4.0 * _square(1.0 + n2)
    c = 4.0 * _square(1.0 + n2) / params.v2
    d = 4.0 * _square(1.0 + n1) / params.v1
    x2 = np.zeros(n1.shape + (4, 4), dtype=complex)
    x2[..., 2, 2], x2[..., 3, 3] = c, d
    x2.imag[..., 2, 3] = np.sqrt(c * d)
    x2.imag[..., 3, 2] = -np.sqrt(c * d)
    return x1, x2


def x1_eigenvalue_formulas(params: ThermalParams) -> tuple[float, float]:
    """Nonzero eigenvalues of X1: 5 + 4*n_i*(2 + n_i)."""
    return (
        5.0 + 4.0 * params.n1 * (2.0 + params.n1),
        5.0 + 4.0 * params.n2 * (2.0 + params.n2),
    )


def x2_eigenvalue_formula(params: ThermalParams) -> float:
    """Sole nonzero eigenvalue of X2: c + d."""
    return (
        4.0 * _square(1.0 + params.n2) / params.v2
        + 4.0 * _square(1.0 + params.n1) / params.v1
    )


def _dual_y1_y2(params: ThermalParams) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = np.asarray(params.n1), np.asarray(params.n2)
    y1 = np.zeros(n1.shape + (4, 4))
    y1[..., 0, 0], y1[..., 1, 1] = 2.0 * (1.0 + n1), 2.0 * (1.0 + n2)
    y1[..., 0, 2] = y1[..., 2, 0] = y1[..., 1, 3] = y1[..., 3, 1] = 1.0
    y1[..., 2, 2], y1[..., 3, 3] = 1.0 / (2.0 + 2.0 * n1), 1.0 / (2.0 + 2.0 * n2)
    y2 = np.zeros(n1.shape + (2, 2))
    y2[..., 0, 0], y2[..., 1, 1] = y2_eigenvalue_formulas(params)
    return y1, y2


def build_dual_certificate(
    params: ThermalParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form dual data (y, Y1, Y2, Y3).

    Y3's closed form divides by 2*n1 + 2*n2 + 4*n1*n2, so the point
    n1 = n2 = 0 is rejected with a degenerate-dual error; the bound
    there is the vacuum value 4 and the Y3 block is vacuous.
    """
    n1, n2 = np.asarray(params.n1), np.asarray(params.n2)
    y = dual_vector(params)
    y1, y2 = _dual_y1_y2(params)
    denom = 2.0 * n1 + 2.0 * n2 + 4.0 * n1 * n2
    if np.any(denom == 0.0):
        raise DegenerateDualError("Y3 is undefined at n1 = n2 = 0")
    off = np.sqrt((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2)) / denom
    y3 = np.zeros(n1.shape + (2, 2), dtype=complex)
    y3[..., 0, 0] = 1.0 / (2.0 * (1.0 + n2)) + 1.0 / denom
    y3[..., 1, 1] = 1.0 / (2.0 * (1.0 + n1)) + 1.0 / denom
    y3.imag[..., 0, 1], y3.imag[..., 1, 0] = -off, off
    return y, y1, y2, y3


def dual_vector(params: ThermalParams) -> np.ndarray:
    """Dual solution y = [v2/(2+2n2), v1/(2+2n1), 0, 2+2n1, 2+2n2, 0]."""
    n1, n2 = np.asarray(params.n1), np.asarray(params.n2)
    return _columns(params.v2 / (2.0 + 2.0 * n2), params.v1 / (2.0 + 2.0 * n1), 0.0,
                    2.0 + 2.0 * n1, 2.0 + 2.0 * n2, 0.0)


def y1_eigenvalue_formulas(params: ThermalParams) -> tuple[float, float]:
    """Nonzero eigenvalues of Y1: 2(1+n_i) + 1/(2(1+n_i))."""
    e = 2.0 * (1.0 + params.n1)
    f = 2.0 * (1.0 + params.n2)
    return (e + 1.0 / e, f + 1.0 / f)


def y2_eigenvalue_formulas(params: ThermalParams) -> tuple[float, float]:
    """Eigenvalues of Y2: 1 - 1/(2(1+n2)) and 1 - 1/(2(1+n1)), both >= 1/2."""
    return (
        1.0 - 1.0 / (2.0 * (1.0 + params.n2)),
        1.0 - 1.0 / (2.0 * (1.0 + params.n1)),
    )


def y3_eigenvalue_formula(params: ThermalParams) -> float:
    """Sole nonzero eigenvalue of Y3 (rational closed form)."""
    n1, n2 = params.n1, params.n2
    denom = (1.0 + n1) * (1.0 + n2) * (n1 + n2 + 2.0 * n1 * n2)
    if np.any(denom == 0.0):
        raise DegenerateDualError("Y3 is undefined at n1 = n2 = 0")
    num = (
        1.0
        + (2.0 + n2 / 2.0) * n2
        + _square(n1) * (0.5 + n2)
        + n1 * (2.0 + n2 * (4.0 + n2))
    )
    return num / denom


def constraint_residuals(x1: np.ndarray, x2: np.ndarray, data: SdpData) -> np.ndarray:
    """|tr{X B_j} - b_j| per j, pairing B_j with the upper-left 2x2 blocks of X1 and X2."""
    ul = x1[..., None, 0:2, 0:2] + x2[..., None, 0:2, 0:2].real
    return np.abs(np.trace(ul @ np.array(data.b_basis), axis1=-2, axis2=-1) - data.b)


def primal_value_blockwise(x2: np.ndarray, data: SdpData) -> float:
    """Objective tr{X C} under the blockwise pairing: tr{X2[2:4, 2:4] C_core}."""
    if data.c_core is None:
        raise DegenerateDualError("objective core is singular at n1 = n2 = 0")
    return np.real(np.trace(x2[..., 2:4, 2:4] @ data.c_core, axis1=-2, axis2=-1))


def _block_ok(eigs: np.ndarray, formulas, tol: float) -> np.ndarray:
    """A block is PSD up to round-off and its eigenvalues equal their closed forms within tol.

    ``eigvalsh`` is backward stable, so its round-off grows with the
    block's largest |eigenvalue|, which is 5 + 4 n (2 + n) for X1: both
    checks are relative to that scale (and to at least 1). ``eigs``
    comes from ``eigvalsh``, in ascending order along the last axis.
    """
    scale = np.maximum(1.0, np.maximum(-eigs[..., 0], eigs[..., -1]))[..., None]
    formulas = np.sort(formulas, axis=-1)
    return (eigs[..., :1] >= -DEFAULT_TOL * scale)[..., 0] & np.all(
        np.abs(eigs - formulas) <= tol * (np.abs(formulas) + scale), axis=-1
    )


class CertificateColumns(NamedTuple):
    """The checks of a stack of points as arrays, one row per point (the fields of
    :class:`CertificateReport`). ``y3_eigs`` has rows for the regular points
    only, in order; the degenerate points have no Y3 block."""

    n1: np.ndarray
    n2: np.ndarray
    primal_value: np.ndarray
    dual_value: np.ndarray
    x1_eigs: np.ndarray
    x2_eigs: np.ndarray
    y1_eigs: np.ndarray
    y2_eigs: np.ndarray
    y3_eigs: np.ndarray
    degenerate: np.ndarray
    feasible_primal: np.ndarray
    feasible_dual: np.ndarray
    values_match: np.ndarray
    constraint_residuals: np.ndarray


def certificate_columns(n1, n2, tol: float = DEFAULT_TOL) -> CertificateColumns:
    """Rebuild both certificates at each point (n1[k], n2[k]) and check every printed property.

    Checks eigenvalue closed forms against numerical eigendecomposition,
    positive semidefiniteness of every block, the constraint traces, and
    the agreement of primal and dual objective values. Eigenvalues are
    judged relative to their block's largest one, since that sets their
    round-off. At n1 = n2 = 0 the dual Y3 block is skipped and the
    point is marked degenerate; the remaining checks still run. The
    points are swapped into n1 >= n2 as ThermalParams does, and are
    taken as valid thermal parameters without a check.
    """
    n1, n2 = np.asarray(n1, dtype=float), np.asarray(n2, dtype=float)
    swap = n1 < n2
    params = _ThermalStack(np.where(swap, n2, n1), np.where(swap, n1, n2))
    degenerate = (params.n1 == 0.0) & (params.n2 == 0.0)
    regular = _ThermalStack(params.n1[~degenerate], params.n2[~degenerate])
    data = build_sdp_data(regular)
    x1, x2 = build_primal_certificate(params)
    x1_eigs, x2_eigs = np.linalg.eigvalsh(x1), np.linalg.eigvalsh(x2)
    residuals = constraint_residuals(x1, x2, data)
    # objective core is singular at the vacuum point; the traced value has the finite limit 4
    primal = np.full(degenerate.shape, 4.0)
    primal[~degenerate] = primal_value_blockwise(x2[~degenerate], data)
    feasible_primal = (
        (residuals.max(axis=-1) <= max(tol, DEFAULT_TOL))
        & _block_ok(x1_eigs, _columns(0.0, 0.0, *x1_eigenvalue_formulas(params)), tol)
        & _block_ok(x2_eigs, _columns(0.0, 0.0, 0.0, x2_eigenvalue_formula(params)), tol)
    )

    dual = dual_vector(params) @ data.b
    y1, y2 = _dual_y1_y2(params)
    y1_eigs, y2_eigs = np.linalg.eigvalsh(y1), np.linalg.eigvalsh(y2)
    y3_eigs = np.linalg.eigvalsh(build_dual_certificate(regular)[3])
    feasible_dual = (
        _block_ok(y1_eigs, _columns(0.0, 0.0, *y1_eigenvalue_formulas(params)), tol)
        & _block_ok(y2_eigs, _columns(*y2_eigenvalue_formulas(params)), tol)
    )
    feasible_dual[~degenerate] &= _block_ok(
        y3_eigs, _columns(0.0, y3_eigenvalue_formula(regular)), tol
    )

    bound = hcrb_thermal(params)
    values_match = (np.abs(primal - dual) <= max(tol, 0.0) * (1.0 + np.abs(primal))) & (
        np.abs(primal - bound) <= tol * (1.0 + np.abs(bound))
    )
    if tol == 0.0:
        # exact comparison of float expressions; only bitwise-equal values pass
        values_match = (primal == dual) & (dual == bound)

    return CertificateColumns(
        params.n1, params.n2, primal, dual, x1_eigs, x2_eigs, y1_eigs, y2_eigs, y3_eigs,
        degenerate, feasible_primal, feasible_dual, values_match, residuals)


def reports_from_columns(cols: CertificateColumns) -> list[CertificateReport]:
    """One :class:`CertificateReport` per row of ``cols``."""
    y3_rows = iter(cols.y3_eigs.tolist())
    return [
        CertificateReport(
            n1=a, n2=b, primal_value=pv, dual_value=dv,
            x1_eigs=tuple(e1), x2_eigs=tuple(e2), y1_eigs=tuple(f1), y2_eigs=tuple(f2),
            y3_eigs=() if deg else tuple(next(y3_rows)),
            feasible_primal=fp, feasible_dual=fd, values_match=vm,
            constraint_residuals=tuple(res),
            status=STATUS_DEGENERATE_DUAL if deg else STATUS_OK,
        )
        for a, b, pv, dv, e1, e2, f1, f2, deg, fp, fd, vm, res in zip(*(
            v.tolist() for v in (cols.n1, cols.n2, cols.primal_value, cols.dual_value,
                                 cols.x1_eigs, cols.x2_eigs, cols.y1_eigs, cols.y2_eigs,
                                 cols.degenerate, cols.feasible_primal, cols.feasible_dual,
                                 cols.values_match, cols.constraint_residuals)))
    ]


def verify_certificate_stack(n1, n2, tol: float = DEFAULT_TOL) -> list[CertificateReport]:
    """:func:`certificate_columns` as one report per point (n1[k], n2[k])."""
    return reports_from_columns(certificate_columns(n1, n2, tol))


def verify_certificates(params: ThermalParams, tol: float = DEFAULT_TOL) -> CertificateReport:
    """:func:`verify_certificate_stack` at the one point ``params``."""
    return verify_certificate_stack([params.n1], [params.n2], tol)[0]
