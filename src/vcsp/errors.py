"""Exception hierarchy for the solver."""


class VcspError(Exception):
    """Base class for all library errors."""


class FormatError(VcspError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapExceeded(VcspError):
    """An enumeration, or with ``table`` one term's table, would exceed the
    configured cap."""

    def __init__(self, required, cap, table=False):
        self.required = required
        self.cap = cap
        super().__init__(
            f"table of {required} entries exceeds cap of {cap}" if table
            else f"enumeration of {required} tuples exceeds cap of {cap}"
        )


class ValidationError(VcspError):
    """An operation system or table failed a structural check.

    ``witness`` holds the offending indices when available.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class StageError(VcspError):
    """A pipeline stage aborted; ``stage`` names it, ``witness`` the evidence."""

    def __init__(self, stage, message, witness=None):
        self.stage = stage
        self.witness = witness
        super().__init__(f"stage {stage}: {message}")
