"""Exception hierarchy shared across the toolkit.

Contract violations (bad arguments, malformed data) map to CLI exit code 1;
transport and credential failures map to exit code 2.
"""


class TransductError(Exception):
    """Base class for all toolkit errors."""


class ContractError(TransductError):
    """A precondition or type invariant was violated."""


class DatasetParseError(TransductError):
    """A data file could not be parsed."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class SchemaError(TransductError):
    """A data file disagrees with its declared schema."""


class ValidationError(TransductError):
    """A value failed semantic validation (e.g. probability simplex)."""


class DegenerateInputError(ContractError):
    """Input for which the requested quantity is undefined (zero-norm vector)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NumericError(TransductError):
    """A numeric kernel produced a non-finite intermediate."""


class TokenBudgetError(TransductError):
    """The rendered prompt exceeds the token budget.

    ``max_feasible_k`` is the largest number of reference lines (keeping the
    most representative tail of the plan) that would still fit.
    """

    def __init__(self, message, max_feasible_k):
        super().__init__(message)
        self.max_feasible_k = max_feasible_k


class CompletionParseError(TransductError):
    """No usable integer label could be read from a completion."""

    def __init__(self, message, completion):
        super().__init__(message)
        self.completion = completion


class LabelOutOfRangeError(CompletionParseError):
    """The completion's integer is not a valid class index."""


class GrammarError(TransductError):
    """A prompt does not match the feature-label line grammar."""


class CredentialError(TransductError):
    """Authentication with the remote endpoint failed (not retried)."""


class TransportError(TransductError):
    """Remote request failed after exhausting retries."""


class RequestBudgetError(TransductError):
    """The per-run request budget was exhausted."""
