"""Exception and warning types shared across the package."""


class MnpredError(Exception):
    """Base class for every error raised by this package."""


class ParseError(MnpredError):
    """Malformed input file (ragged rows, bad header, non-numeric cells)."""


class ValidationError(MnpredError):
    """Structurally sound input whose content is invalid."""


class DegenerateDesign(ValidationError):
    """Fewer than two clusters or two categories: nothing to estimate."""


class ZeroCategory(MnpredError):
    """A category has zero counts in every historical cluster."""


class ZeroProbability(ValidationError):
    """A probability is zero (or negative) where strict positivity is required."""


class InvalidDispersion(ValidationError):
    """Dispersion outside the open interval (1, n) needed for generation."""


class NotPSD(MnpredError):
    """A nominally positive semi-definite matrix has a clearly negative eigenvalue."""


class DomainError(MnpredError):
    """Argument outside the mathematical domain of the function."""


class InitializationError(MnpredError):
    """No starting point with finite posterior density could be found."""


class FailureCapError(MnpredError):
    """Too many simulation iterations failed for the report to be trustworthy."""


class ConvergenceWarning(UserWarning):
    """An iterative routine stopped before reaching its tolerance."""


class DegenerateRankWarning(UserWarning):
    """A rank-based critical value sits at the edge of the replicate ensemble."""
