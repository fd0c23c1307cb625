"""Exception hierarchy shared across the package."""


class TtpsimError(Exception):
    """Base class for all package errors."""


class OutOfDomain(TtpsimError):
    """Position or time outside a provider's validity region."""


class NegativePressure(TtpsimError):
    """Kinetic pressure evaluated below zero."""


class NotFound(TtpsimError):
    """Requested name is absent from the provider registry."""


class DegenerateGradient(TtpsimError):
    """Pressure gradient magnitude at or below the degeneracy threshold."""


class EmptyEnsemble(TtpsimError):
    """Statistics requested over zero surviving particles."""


class InitialTangencyViolation(TtpsimError):
    """Initial direction not orthogonal to the isobaric normal."""


class NoOracle(TtpsimError):
    """No closed-form reference trajectory for the given provider/state."""


class ParseError(TtpsimError):
    """Malformed config or grid file."""

    @classmethod
    def undecodable(cls, path, encoding):
        """The error for a file that is not ``encoding`` text, naming its first bad byte."""
        with open(path, "rb") as fh:
            data = fh.read()  # a text stream's decode offset counts from its chunk
        try:
            data.decode(encoding)
        except UnicodeDecodeError as err:
            return cls(f"{path}: byte 0x{data[err.start]:02x} at offset {err.start} "
                       f"is not {encoding} text")
        return cls(f"{path}: not {encoding} text")


class ValidationError(TtpsimError):
    """Structurally valid input with an invalid value."""
