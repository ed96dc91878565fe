"""Exception types shared across the package, and its one scalar and one array check.

Every error carries a stable machine-readable ``code`` that the CLI
reports in its error JSON. The CLI exits with 2 on an
:class:`InvalidArgumentError` (bad usage) and with 1 on any other error
(a runtime failure).
"""

import math
import numbers
import operator

import numpy as np


class CvshareError(Exception):
    """Base class for all package-specific errors."""

    code = "error"


class InvalidArgumentError(CvshareError):
    """An input failed validation before any computation ran."""

    code = "invalid-argument"


class DegenerateAuxiliaryError(InvalidArgumentError):
    """The auxiliary combination used for gain optimization has (near) zero variance."""

    code = "degenerate-auxiliary"


class NoSignalError(InvalidArgumentError):
    """The requested coalition excludes party A and therefore carries no signal."""

    code = "no-signal"


class UnsupportedStateError(InvalidArgumentError):
    """The state does not have the structure an operation requires."""

    code = "unsupported-state"


class DegenerateDualError(CvshareError):
    """The closed-form dual certificate is undefined at n1 = n2 = 0."""

    code = "degenerate-dual"


class ResourceLimitError(InvalidArgumentError):
    """A request exceeds a resource cap (batch terms, protocol rounds)."""

    code = "resource-limit"


class AbortLossError(CvshareError):
    """Declared transmissivity on the signal arm fell below the abort policy."""

    code = "abort-loss"


class OutputError(CvshareError):
    """An output directory or file could not be made or written."""

    code = "output-error"


class ProtocolFailureError(CvshareError):
    """A protocol run could not produce the required estimates."""

    code = "protocol-failure"


def _in_range(value, lo: float, hi: float, ends: str):
    """Whether value, or each value of a float array, lies in the range of check_scalar."""
    above = lo < value if ends[0] == "(" else lo <= value
    below = value < hi if ends[1] == ")" else value <= hi
    return above & below


def check_scalar(name: str, value, rule: str, lo: float = -math.inf, hi: float = math.inf,
                 ends: str = "[]", integer: bool = False):
    """``value`` as a Python int (``integer``) or float, checked to lie in [lo, hi],
    strict at an end that ``ends`` marks open with "(" or ")"; NaN lies in no range.

    Python and numpy reals pass, numpy integers as the int they equal; a bool, a
    string, None or an array does not, nor, when ``integer``, a float. The error is
    the InvalidArgumentError "{name} must be {rule}", or "{name} must be an
    integer" for an ``integer`` value that is not one.
    """
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        raise InvalidArgumentError(f"{name} must be {'an integer' if integer else rule}")
    try:
        value = operator.index(value) if integer else float(value)
    except OverflowError:  # an int beyond the largest float
        value = math.nan
    if not _in_range(value, lo, hi, ends):
        raise InvalidArgumentError(f"{name} must be {rule}")
    return value


def check_array(name: str, values, rule: str, lo: float = -math.inf, hi: float = math.inf,
                ends: str = "[]") -> np.ndarray:
    """``values`` as a float ndarray, each value checked as :func:`check_scalar` checks
    one; a float64 array comes back uncopied. Integer and float dtypes pass; a bool,
    string, complex or object dtype (None among the values, say) or a ragged nesting
    fails with the InvalidArgumentError "{name} must be {rule}", as a value out of range.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # a ragged nesting of sequences
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"{name} must be {rule}")
    arr = arr.astype(float, copy=False)
    if not np.all(_in_range(arr, lo, hi, ends)):
        raise InvalidArgumentError(f"{name} must be {rule}")
    return arr
