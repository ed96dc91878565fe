"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` that the CLI
reports in its error JSON and maps to an exit status: usage-level codes
exit with 2, runtime protocol failures exit with 1.
"""


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


#: Error codes that indicate bad usage rather than a runtime failure.
USAGE_ERROR_CODES = frozenset(
    {
        "invalid-argument",
        "degenerate-auxiliary",
        "no-signal",
        "unsupported-state",
        "resource-limit",
    }
)
