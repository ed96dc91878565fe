"""Closed-form primal and dual certificates for the thermal-state estimation bound.

The bound 4 + 2*n1 + 2*n2 is certified by exhibiting a feasible primal
matrix X = X1 (+) X2 and a feasible dual vector y whose objective
values coincide. All blocks below are closed forms in (n1, n2); this
module rebuilds them and verifies every printed eigenvalue formula,
positive semidefiniteness, the constraint traces and the matching of
the primal and dual values.

The constraint basis (0, 0, 0, a1, a2, a3) reads single entries of the
upper-left 2x2 blocks of X1 and X2. The objective pairs X2's lower-right
block [[c, i sqrt(cd)], [-i sqrt(cd), d]] with (1 + i D / 2)^{-1}, where
D / 2 = [[0, delta], [-delta, 0]] and delta = 1 / sqrt(v1 v2); its trace
is (sqrt(c) - sqrt(d))^2 v1 v2 / s + 2 sqrt(cd) / (1 + delta), with c and
d read off the built X2. s = v1 v2 - 1 is taken from n as 2 n1 + 2 n2 +
4 n1 n2, since v1 v2 - 1 cancels near the vacuum; so the objective holds
its precision down to n1 = n2 = 0, the one point where s = 0 and the
objective is its limit 4.

:func:`certificate_columns` checks a stack of points in one numpy pass,
with one batched ``eigvalsh`` per block kind; LAPACK runs the same
routine on each member as on a single matrix. It returns the checks as
arrays, which :func:`reports_from_columns` turns into one report per
point and :func:`reports_to_text` into the reports' certificates.json
text. The builders take a ThermalParams or a stack alike, and
:func:`verify_certificates` is the stacked check on a stack of one, so
both give the same bits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .bounds import ThermalParams, check_thermal, hcrb_thermal
from .errors import DegenerateDualError, InvalidArgumentError, check_array, check_scalar
from .gaussian_core import DEFAULT_TOL

#: status values a CertificateReport can carry
STATUS_OK = "ok"
STATUS_DEGENERATE_DUAL = "degenerate-dual"

#: right-hand sides b of the constraints tr{X B_j} = b_j
CONSTRAINT_RHS = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 0.0])

#: smallest s at which Y3's eigenvalue, about 2 / s, and twice it are finite
_S_MIN = 2.0 * np.finfo(float).tiny


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
        return asdict(self)


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


def _excess(params: ThermalParams) -> np.ndarray:
    """s = v1 v2 - 1, as 2 n1 + 2 n2 + 4 n1 n2, which Y3 and the objective divide by:
    0 only at the vacuum point, and below _S_MIN Y3 overflows."""
    n1, n2 = np.asarray(params.n1), np.asarray(params.n2)
    s = 2.0 * n1 + 2.0 * n2 + 4.0 * n1 * n2
    if np.any(s < _S_MIN):
        raise DegenerateDualError("the certificate divides by 2 n1 + 2 n2 + 4 n1 n2: undefined "
                                  "at n1 = n2 = 0, overflowing where 0 < n1 + n2 < 2.2e-308")
    return s


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


def _dual_y3(params: ThermalParams) -> np.ndarray:
    n1, n2 = np.asarray(params.n1), np.asarray(params.n2)
    denom = _excess(params)
    off = np.sqrt((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2)) / denom
    y3 = np.zeros(n1.shape + (2, 2), dtype=complex)
    y3[..., 0, 0] = 1.0 / (2.0 * (1.0 + n2)) + 1.0 / denom
    y3[..., 1, 1] = 1.0 / (2.0 * (1.0 + n1)) + 1.0 / denom
    y3.imag[..., 0, 1], y3.imag[..., 1, 0] = -off, off
    return y3


def build_dual_certificate(
    params: ThermalParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form dual data (y, Y1, Y2, Y3).

    Y3's closed form divides by 2*n1 + 2*n2 + 4*n1*n2, so the point
    n1 = n2 = 0 is rejected with a degenerate-dual error; the bound
    there is the vacuum value 4 and the Y3 block is vacuous. So are the
    points with 0 < n1 + n2 below the smallest normal float, 2.2e-308,
    where Y3 overflows.
    """
    return (dual_vector(params), *_dual_y1_y2(params), _dual_y3(params))


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
    denom = (1.0 + n1) * (1.0 + n2) * (_excess(params) / 2.0)
    num = (
        1.0
        + (2.0 + n2 / 2.0) * n2
        + _square(n1) * (0.5 + n2)
        + n1 * (2.0 + n2 * (4.0 + n2))
    )
    return num / denom


def constraint_residuals(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """|tr{X B_j} - b_j| per j for B = (0, 0, 0, a1, a2, a3) on the upper-left 2x2
    blocks of X1 and X2: the traces there are 0, ul[0, 0], ul[1, 1] and ul[0, 1] + ul[1, 0]."""
    ul = x1[..., 0:2, 0:2] + x2[..., 0:2, 0:2].real
    return np.abs(_columns(0.0, 0.0, 0.0, ul[..., 0, 0], ul[..., 1, 1],
                           ul[..., 0, 1] + ul[..., 1, 0]) - CONSTRAINT_RHS)


def primal_value(x2: np.ndarray, params: ThermalParams) -> np.ndarray:
    """Objective tr{X2[2:4, 2:4] (1 + i D / 2)^{-1}} in closed form, from c and d read
    off X2: (sqrt(c) - sqrt(d))^2 v1 v2 / s + 2 sqrt(cd) / (1 + 1 / sqrt(v1 v2)).

    :raises DegenerateDualError: a point is n1 = n2 = 0, where s = 0, or has
        0 < n1 + n2 below the smallest normal float.
    """
    s = _excess(params)
    c, d = x2[..., 2, 2].real, x2[..., 3, 3].real
    v1v2 = params.v1 * params.v2
    return (np.square(np.sqrt(c) - np.sqrt(d)) * v1v2 / s
            + 2.0 * np.sqrt(c * d) / (1.0 + 1.0 / np.sqrt(v1v2)))


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
    round-off. At n1 = n2 = 0 the dual Y3 block is skipped, the
    objective is its limit 4 and the point is marked degenerate; the
    remaining checks still run. The points are checked and swapped into
    n1 >= n2 as ThermalParams does.

    :raises InvalidArgumentError: tol is not in [0, 1]; a point is not a
        finite real, is negative or exceeds THERMAL_MAX; n1 and n2 are not
        1-D sequences of one length.
    """
    tol = check_scalar("tol", tol, "in [0, 1]", 0.0, 1.0)
    n1, n2 = check_thermal(check_array, n1, n2)
    if n1.ndim != 1 or n1.shape != n2.shape:
        raise InvalidArgumentError("n1 and n2 must be 1-D sequences of one length")
    swap = n1 < n2
    params = _ThermalStack(np.where(swap, n2, n1), np.where(swap, n1, n2))
    degenerate = (params.n1 == 0.0) & (params.n2 == 0.0)
    regular = _ThermalStack(params.n1[~degenerate], params.n2[~degenerate])
    x1, x2 = build_primal_certificate(params)
    x1_eigs, x2_eigs = np.linalg.eigvalsh(x1), np.linalg.eigvalsh(x2)
    residuals = constraint_residuals(x1, x2)
    # 1 + i D / 2 is singular at the vacuum point; the traced value has the finite limit 4
    primal = np.full(degenerate.shape, 4.0)
    primal[~degenerate] = primal_value(x2[~degenerate], regular)
    feasible_primal = (
        (residuals.max(axis=-1) <= max(tol, DEFAULT_TOL))
        & _block_ok(x1_eigs, _columns(0.0, 0.0, *x1_eigenvalue_formulas(params)), tol)
        & _block_ok(x2_eigs, _columns(0.0, 0.0, 0.0, x2_eigenvalue_formula(params)), tol)
    )

    dual = dual_vector(params) @ CONSTRAINT_RHS
    y1, y2 = _dual_y1_y2(params)
    y1_eigs, y2_eigs = np.linalg.eigvalsh(y1), np.linalg.eigvalsh(y2)
    y3_eigs = np.linalg.eigvalsh(_dual_y3(regular))
    feasible_dual = (
        _block_ok(y1_eigs, _columns(0.0, 0.0, *y1_eigenvalue_formulas(params)), tol)
        & _block_ok(y2_eigs, _columns(*y2_eigenvalue_formulas(params)), tol)
    )
    feasible_dual[~degenerate] &= _block_ok(
        y3_eigs, _columns(0.0, y3_eigenvalue_formula(regular)), tol
    )

    bound = hcrb_thermal(params)
    # every value is finite, so at tol 0 only bitwise-equal values pass
    values_match = (np.abs(primal - dual) <= tol * (1.0 + np.abs(primal))) & (
        np.abs(primal - bound) <= tol * (1.0 + np.abs(bound))
    )

    return CertificateColumns(
        params.n1, params.n2, primal, dual, x1_eigs, x2_eigs, y1_eigs, y2_eigs, y3_eigs,
        degenerate, feasible_primal, feasible_dual, values_match, residuals)


def _statuses(cols: CertificateColumns) -> list[str]:
    """The status of each point: degenerate-dual at a point without a Y3 block."""
    return np.where(cols.degenerate, STATUS_DEGENERATE_DUAL, STATUS_OK).tolist()


def _y3_per_point(cols: CertificateColumns, rows: list, empty) -> list:
    """``rows``, one per regular point, spread over every point with ``empty`` at a
    degenerate one, which has no Y3 block."""
    if not cols.degenerate.any():
        return rows
    regular = iter(rows)
    return [empty if deg else next(regular) for deg in cols.degenerate.tolist()]


def reports_from_columns(cols: CertificateColumns) -> list[CertificateReport]:
    """One :class:`CertificateReport` per row of ``cols``."""
    return [
        CertificateReport(
            n1=a, n2=b, primal_value=pv, dual_value=dv,
            x1_eigs=tuple(e1), x2_eigs=tuple(e2), y1_eigs=tuple(f1), y2_eigs=tuple(f2),
            y3_eigs=y3, feasible_primal=fp, feasible_dual=fd, values_match=vm,
            constraint_residuals=tuple(res), status=status,
        )
        for a, b, pv, dv, e1, e2, f1, f2, fp, fd, vm, res, y3, status in zip(
            *(v.tolist() for v in (cols.n1, cols.n2, cols.primal_value, cols.dual_value,
                                   cols.x1_eigs, cols.x2_eigs, cols.y1_eigs, cols.y2_eigs,
                                   cols.feasible_primal, cols.feasible_dual,
                                   cols.values_match, cols.constraint_residuals)),
            _y3_per_point(cols, list(map(tuple, cols.y3_eigs.tolist())), ()),
            _statuses(cols))
    ]


def _json_floats(values: np.ndarray) -> list[str]:
    """The JSON text of each value, as json.dumps writes a float: its repr when
    every value is finite, else NaN, Infinity or -Infinity where they are. Each
    distinct bit pattern is formatted once (bits, not ==, since -0.0 == 0.0); a
    grid's symmetric points and zero eigenvalues repeat most values."""
    bits, index = np.unique(np.ascontiguousarray(values).view(np.uint64), return_inverse=True)
    encode = float.__repr__ if np.isfinite(values).all() else json.dumps
    cells = np.array(list(map(encode, bits.view(float).tolist())), dtype=object)
    return cells[index.ravel()].tolist()


def _json_list(n: int) -> str:
    """A slot for each of n values of a list at the depth of a report's keys."""
    return "[" + ",".join(["\n      %s"] * n) + "\n    ]"


#: one report of certificates.json, laid out as json.dumps(report, sort_keys=True,
#: indent=2) lays it out with every line indented two more spaces
_CERTIFICATE_TEMPLATE = "  {\n" + ",\n".join(f'    "{key}": {slot}' for key, slot in (
    ("constraint_residuals", _json_list(6)),
    ("dual_value", "%s"),
    ("feasible_dual", "%s"),
    ("feasible_primal", "%s"),
    ("n1", "%s"),
    ("n2", "%s"),
    ("primal_value", "%s"),
    ("status", '"%s"'),
    ("values_match", "%s"),
    ("x1_eigs", _json_list(4)),
    ("x2_eigs", _json_list(4)),
    ("y1_eigs", _json_list(4)),
    ("y2_eigs", _json_list(2)),
    ("y3_eigs", "%s"),
)) + "\n  }"
_Y3_TEMPLATE = _json_list(2)


def _certificate_cells(cols: CertificateColumns):
    """The cells of each report of ``cols``, in _CERTIFICATE_TEMPLATE's order."""
    k = len(cols.n1)
    floats = _json_floats(np.concatenate(
        [cols.constraint_residuals, cols.dual_value[:, None], cols.n1[:, None],
         cols.n2[:, None], cols.primal_value[:, None], cols.x1_eigs, cols.x2_eigs,
         cols.y1_eigs, cols.y2_eigs], axis=1).T)
    floats = [floats[i : i + k] for i in range(0, len(floats), k)]
    y3 = _json_floats(cols.y3_eigs)
    y3 = _y3_per_point(cols, list(map(_Y3_TEMPLATE.__mod__, zip(y3[0::2], y3[1::2]))), "[]")
    fp, fd, vm = (np.where(v, "true", "false").tolist()
                  for v in (cols.feasible_primal, cols.feasible_dual, cols.values_match))
    return zip(*floats[:7], fd, fp, *floats[7:10], _statuses(cols), vm, *floats[10:], y3)


def reports_to_text(cols: CertificateColumns) -> str:
    """The reports of ``cols`` as certificates.json holds them, joined by ",\n". The
    cells are freed once every report is formatted, before the join."""
    return ",\n".join(list(map(_CERTIFICATE_TEMPLATE.__mod__, _certificate_cells(cols))))


def verify_certificates(params: ThermalParams, tol: float = DEFAULT_TOL) -> CertificateReport:
    """:func:`certificate_columns` at the one point ``params``, as its report."""
    return reports_from_columns(certificate_columns([params.n1], [params.n2], tol))[0]
