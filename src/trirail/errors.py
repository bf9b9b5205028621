"""Exception types shared across the kinematics modules."""

import sys

#: Longest repr of an offending value that an error message echoes.
CLIP = 60


def clipped(value) -> str:
    """``repr(value)``, cut to ``CLIP`` characters ending in ``...`` when longer.

    An int with more decimal digits than the interpreter converts to text
    (``sys.get_int_max_str_digits()``, 4300 by default) has no ``repr``, nor
    has a container of one; they show as their sign, type and that limit.
    """
    try:
        text = repr(value)
    except ValueError:
        sign = "-" if isinstance(value, int) and value < 0 else ""
        text = f"{sign}<{type(value).__name__} of more than {sys.get_int_max_str_digits()} digits>"
    return text if len(text) <= CLIP else text[:CLIP - 3] + "..."


class TrirailError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameter(TrirailError):
    """A geometric parameter or numeric input violates an invariant."""

    def __init__(self, name: str, reason: str):
        self.name = name
        self.reason = reason
        super().__init__(f"{name}: {reason}")


class IndeterminateGamma(TrirailError):
    """yA1 - l3 - yA2 = 0: the planar-loop angle is undetermined.

    The two coaxial rails are at the spacing where links B1C1 and B2C2 are
    parallel; the loop gains a shear freedom and direct kinematics cannot
    pick a pose (parallel singularity).
    """


class GammaOutOfRange(TrirailError):
    """|yA1 - l3 - yA2| > 2*l2: the planar loop cannot close."""


class ChainIIUnreachable(TrirailError):
    """|y - yA3| > l6: the parallelogram chain cannot reach the platform."""


class AlphaUnreachable(TrirailError):
    """No real distal-link angle closes the second loop for the given t."""


class Unreachable(TrirailError):
    """Target x lies outside the arccos domain of a distal link."""


class CotangentSingular(TrirailError):
    """sin(alpha) or sin(beta) vanishes: the velocity model is undefined.

    A distal link is folded onto the X axis, which is the fold of the
    pose-to-input map in the x direction.
    """


class NonComparable(TrirailError):
    """A finite-difference check lost track of the solution branch, or has no
    analytic Jacobian to compare with."""


class InvalidAkc(TrirailError):
    """Loop constraint degrees do not sum to zero."""


class OutOfRange(TrirailError):
    """Requested cross-section value lies outside the scan bounds."""
