"""Exception hierarchy shared across the package, and the count and real-number rules."""

import math
import numbers
import operator


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


def check_count(name, value, low, note=""):
    """The count rule: ``value`` as an int, if it is an integer >= ``low``; else ValidationError.

    An integer is what ``operator.index`` takes (int, numpy integers, 0-d integer
    arrays), except a bool.  A float, even 2.0, a string or None raises
    ``name must be an integer``; an integer below ``low`` raises
    ``name must be >= low`` followed by ``note``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if count < low:
        raise ValidationError(f"{name} must be >= {low}{note}")
    return count


def check_real(name, value, low=None, strict=False):
    """The real-number rule: ``value`` as a float, if a finite real in range; else ValidationError.

    A real number is a ``numbers.Real`` (int, float, numpy integer and floating
    scalars), except a bool.  A string, None, a complex number, an array, or a
    value that is not finite raises ``name must be a finite real number``; a
    value below ``low``, or equal to it where ``strict``, raises
    ``name must be >= low`` (``> low``).
    """
    x = value
    if type(x) is not float:  # a float, the common case, skips the ABC check
        try:
            x = float(x) if isinstance(x, numbers.Real) and not isinstance(x, bool) else math.nan
        except OverflowError:  # an int beyond the largest float
            x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")
    if low is not None and (x < low or strict and x == low):
        raise ValidationError(f"{name} must be {'>' if strict else '>='} {low:g}")
    return x
