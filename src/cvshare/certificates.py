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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    c_core is None at n1 = n2 = 0, where 1 + i D / 2 is exactly
    singular; the objective there is the analytic limit handled by
    :func:`verify_certificates`.
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


def build_sdp_data(params: ThermalParams) -> SdpData:
    """Constraint basis, objective blocks and core matrices for (n1, n2)."""
    v1, v2 = params.v1, params.v2
    a1 = np.array([[1.0, 0.0], [0.0, 0.0]])
    a2 = np.array([[0.0, 0.0], [0.0, 1.0]])
    a3 = np.array([[0.0, 1.0], [1.0, 0.0]])
    zero2 = np.zeros((2, 2))
    a_basis = (a1, a2, a3, zero2, zero2, zero2)
    b_basis = (zero2, zero2, zero2, a1, a2, a3)
    b = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    m_matrix = np.diag([1.0 / math.sqrt(v1), 1.0 / math.sqrt(v2)])
    off = 2.0 / math.sqrt(v1 * v2)
    d_matrix = np.array([[0.0, off], [-off, 0.0]])
    c_upper = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    c_middle = np.zeros((4, 4))
    # det(1 + i D / 2) = 1 - 1/(v1 v2): singular exactly at the vacuum point
    if v1 * v2 == 1.0:
        c_core = None
    else:
        c_core = np.linalg.inv(np.eye(2, dtype=complex) + 1j * d_matrix / 2.0)
    return SdpData(
        a_basis=a_basis,
        b_basis=b_basis,
        b=b,
        m_matrix=m_matrix,
        d_matrix=d_matrix,
        c_upper=c_upper,
        c_middle=c_middle,
        c_core=c_core,
    )


def build_primal_certificate(params: ThermalParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form primal blocks (X1 real 4x4, X2 complex Hermitian 4x4)."""
    n1, n2 = params.n1, params.n2
    x1 = np.array(
        [
            [1.0, 0.0, -2.0 - 2.0 * n1, 0.0],
            [0.0, 1.0, 0.0, -2.0 - 2.0 * n2],
            [-2.0 - 2.0 * n1, 0.0, 4.0 * (1.0 + n1) ** 2, 0.0],
            [0.0, -2.0 - 2.0 * n2, 0.0, 4.0 * (1.0 + n2) ** 2],
        ]
    )
    c = 4.0 * (1.0 + n2) ** 2 / params.v2
    d = 4.0 * (1.0 + n1) ** 2 / params.v1
    x2 = np.zeros((4, 4), dtype=complex)
    x2[2, 2] = c
    x2[3, 3] = d
    x2[2, 3] = 1j * math.sqrt(c * d)
    x2[3, 2] = -1j * math.sqrt(c * d)
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
        4.0 * (1.0 + params.n2) ** 2 / params.v2
        + 4.0 * (1.0 + params.n1) ** 2 / params.v1
    )


def _dual_y1_y2(params: ThermalParams) -> tuple[np.ndarray, np.ndarray]:
    n1, n2 = params.n1, params.n2
    y1 = np.array(
        [
            [2.0 * (1.0 + n1), 0.0, 1.0, 0.0],
            [0.0, 2.0 * (1.0 + n2), 0.0, 1.0],
            [1.0, 0.0, 1.0 / (2.0 + 2.0 * n1), 0.0],
            [0.0, 1.0, 0.0, 1.0 / (2.0 + 2.0 * n2)],
        ]
    )
    y2 = np.diag([1.0 - 1.0 / (2.0 * (1.0 + n2)), 1.0 - 1.0 / (2.0 * (1.0 + n1))])
    return y1, y2


def build_dual_certificate(
    params: ThermalParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form dual data (y, Y1, Y2, Y3).

    Y3's closed form divides by 2*n1 + 2*n2 + 4*n1*n2, so the point
    n1 = n2 = 0 is rejected with a degenerate-dual error; the bound
    there is the vacuum value 4 and the Y3 block is vacuous.
    """
    n1, n2 = params.n1, params.n2
    y = dual_vector(params)
    y1, y2 = _dual_y1_y2(params)
    denom = 2.0 * n1 + 2.0 * n2 + 4.0 * n1 * n2
    if denom == 0.0:
        raise DegenerateDualError("Y3 is undefined at n1 = n2 = 0")
    off = math.sqrt((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2)) / denom
    y3 = np.array(
        [
            [1.0 / (2.0 * (1.0 + n2)) + 1.0 / denom, -1j * off],
            [1j * off, 1.0 / (2.0 * (1.0 + n1)) + 1.0 / denom],
        ],
        dtype=complex,
    )
    return y, y1, y2, y3


def dual_vector(params: ThermalParams) -> np.ndarray:
    """Dual solution y = [v2/(2+2n2), v1/(2+2n1), 0, 2+2n1, 2+2n2, 0]."""
    n1, n2 = params.n1, params.n2
    return np.array(
        [
            params.v2 / (2.0 + 2.0 * n2),
            params.v1 / (2.0 + 2.0 * n1),
            0.0,
            2.0 + 2.0 * n1,
            2.0 + 2.0 * n2,
            0.0,
        ]
    )


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
    if denom == 0.0:
        raise DegenerateDualError("Y3 is undefined at n1 = n2 = 0")
    num = (
        1.0
        + (2.0 + n2 / 2.0) * n2
        + n1**2 * (0.5 + n2)
        + n1 * (2.0 + n2 * (4.0 + n2))
    )
    return num / denom


def constraint_residuals(x1: np.ndarray, x2: np.ndarray, data: SdpData) -> np.ndarray:
    """|tr{X B_j} - b_j| per j, pairing B_j with the upper-left 2x2 blocks of X1 and X2."""
    ul = x1[0:2, 0:2] + x2[0:2, 0:2].real
    res = np.empty(6)
    for j, (bj, bval) in enumerate(zip(data.b_basis, data.b)):
        res[j] = abs(float(np.trace(ul @ bj)) - bval)
    return res


def primal_value_blockwise(x2: np.ndarray, data: SdpData) -> float:
    """Objective tr{X C} under the blockwise pairing: tr{X2[2:4, 2:4] C_core}."""
    if data.c_core is None:
        raise DegenerateDualError("objective core is singular at n1 = n2 = 0")
    return float(np.real(np.trace(x2[2:4, 2:4] @ data.c_core)))


def _block_ok(eigs: np.ndarray, formulas, tol: float) -> bool:
    """A block is PSD up to round-off and its eigenvalues equal their closed forms within tol.

    ``eigvalsh`` is backward stable, so its round-off grows with the
    block's largest |eigenvalue|, which is 5 + 4 n (2 + n) for X1: both
    checks are relative to that scale (and to at least 1). ``eigs``
    comes from ``eigvalsh``, in ascending order.
    """
    values = eigs.tolist()
    scale = max(1.0, -values[0], values[-1])
    return values[0] >= -DEFAULT_TOL * scale and all(
        abs(e - f) <= tol * (abs(f) + scale) for e, f in zip(values, sorted(formulas))
    )


def verify_certificates(params: ThermalParams, tol: float = DEFAULT_TOL) -> CertificateReport:
    """Rebuild both certificates at (n1, n2) and check every printed property.

    Checks eigenvalue closed forms against numerical eigendecomposition,
    positive semidefiniteness of every block, the constraint traces, and
    the agreement of primal and dual objective values. Eigenvalues are
    judged relative to their block's largest one, since that sets their
    round-off. At n1 = n2 = 0 the dual Y3 block is skipped and the
    report status records the degenerate case; the remaining checks
    still run.
    """
    data = build_sdp_data(params)
    x1, x2 = build_primal_certificate(params)
    x1_eigs = np.linalg.eigvalsh(x1)
    x2_eigs = np.linalg.eigvalsh(x2)
    residuals = constraint_residuals(x1, x2, data)
    degenerate = params.n1 == 0.0 and params.n2 == 0.0
    if degenerate:
        # objective core is singular; the traced value has the finite limit 4
        primal_value = 4.0
    else:
        primal_value = primal_value_blockwise(x2, data)
    feasible_primal = bool(
        max(residuals) <= max(tol, DEFAULT_TOL)
        and _block_ok(x1_eigs, (0.0, 0.0) + x1_eigenvalue_formulas(params), tol)
        and _block_ok(x2_eigs, (0.0, 0.0, 0.0, x2_eigenvalue_formula(params)), tol)
    )

    y = dual_vector(params)
    dual_value = float(y @ data.b)
    y1, y2 = _dual_y1_y2(params)
    y1_eigs = np.linalg.eigvalsh(y1)
    y2_eigs = np.linalg.eigvalsh(y2)
    blocks = [(y1_eigs, (0.0, 0.0) + y1_eigenvalue_formulas(params)),
              (y2_eigs, y2_eigenvalue_formulas(params))]
    if degenerate:
        status = STATUS_DEGENERATE_DUAL
        y3_eigs = np.array([])
    else:
        status = STATUS_OK
        y3_eigs = np.linalg.eigvalsh(build_dual_certificate(params)[3])
        blocks.append((y3_eigs, (0.0, y3_eigenvalue_formula(params))))
    feasible_dual = all(_block_ok(eigs, formulas, tol) for eigs, formulas in blocks)

    def close(a, b):
        return abs(a - b) <= tol * (1.0 + abs(b))

    values_match = bool(
        abs(primal_value - dual_value) <= max(tol, 0.0) * (1.0 + abs(primal_value))
        and close(primal_value, hcrb_thermal(params))
    )
    if tol == 0.0:
        # exact comparison of float expressions; only bitwise-equal values pass
        values_match = bool(primal_value == dual_value == hcrb_thermal(params))

    return CertificateReport(
        n1=params.n1,
        n2=params.n2,
        primal_value=primal_value,
        dual_value=dual_value,
        x1_eigs=tuple(float(v) for v in x1_eigs),
        x2_eigs=tuple(float(v) for v in x2_eigs),
        y1_eigs=tuple(float(v) for v in y1_eigs),
        y2_eigs=tuple(float(v) for v in y2_eigs),
        y3_eigs=tuple(float(v) for v in y3_eigs),
        feasible_primal=feasible_primal,
        feasible_dual=feasible_dual,
        values_match=values_match,
        constraint_residuals=tuple(float(v) for v in residuals),
        status=status,
    )
