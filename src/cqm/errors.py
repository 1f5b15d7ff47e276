"""Exception types shared across the package."""


class CqmError(Exception):
    """Base class for every package-specific error."""


class InvalidParams(CqmError):
    """A model parameter or input violates its documented constraint."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class RegimeError(CqmError):
    """A formula was requested outside its regime of validity."""


class TruncationLeak(CqmError):
    """Evolved state leaked measurable weight into the Fock-space tail."""


class CutoffNotConverged(CqmError):
    """Doubling the Fock cutoff did not stabilize observables by max_cut."""


class StepTooLarge(CqmError):
    """A finite-difference step failed its self-consistency check."""


class NonFinite(CqmError):
    """A computed value that should be finite is NaN or infinite."""


class NonPositiveData(CqmError):
    """Log-log fitting requires strictly positive data."""


class ConfigError(CqmError):
    """An experiment configuration is malformed or inconsistent."""
