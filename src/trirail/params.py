"""Geometry, frames, and unit conventions shared by all modules.

The mechanism is a three-translation parallel platform driven by three
prismatic rails that run along the base Y axis.  Rails 1 and 2 are coaxial
at x = -b; rail 3 sits at x = +b.  Each rail carries a vertical link of
length l1 ending at B_i.  Rails 1 and 2 close a planar loop through links
of length l2 and the intermediate link l3; a link of length l4 connects
that loop to the moving platform.  Rail 3 reaches the platform through a
stacked-parallelogram chain with long links l6 (and optional spacer links
l7, l8).  The platform half-length is d.

Conventions:

* Base frame O-XYZ at the centre of the fixed platform; Z up.
* The platform is located by its reference point O' = (x, y, z).
* Lengths in millimetres, angles in radians everywhere in the library
  (the CLI can render degrees).
* gamma is the angle of link B1C1 against the Y axis; alpha and beta are
  the angles of the distal links against the X axis.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from .errors import InvalidParameter, clipped

PARAM_KEYS = ("a", "b", "d", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8")


class _LongInt(float):
    """A JSON integer with more digits than ``int`` converts from text (the
    interpreter's limit, 4300 by default): the float it overflows to, whose
    repr is its digits.  The check of its key then rejects it as it rejects
    any integer past the float range, and echoes the digits."""

    def __repr__(self) -> str:
        return self.digits


def json_int(digits: str) -> int | float:
    """``parse_int`` for :mod:`json`: the int, or a :class:`_LongInt` when
    ``int`` refuses that many digits."""
    try:
        return int(digits)
    except ValueError:
        number = _LongInt(digits)
        number.digits = digits
        return number


def _real(name, value) -> float:
    """``value``, a real number other than a bool, as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameter(name, f"must be a real number, got {clipped(value)}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        return math.inf


def _finite(name, value) -> float:
    if type(value) is float and value - value == 0.0:  # finite: inf - inf and nan are nan
        return value
    number = _real(name, value)
    if not math.isfinite(number):
        raise InvalidParameter(name, f"must be finite, got {clipped(value)}")
    return number


def _finite_fields(values) -> tuple[float, ...]:
    """The fields of the named tuple ``values`` as finite floats.

    ``values`` itself when every field is already a finite plain float, the
    first test of :func:`_finite`; otherwise a new tuple from :func:`_finite`
    field by field, which converts or raises.
    """
    for value in values:
        if type(value) is not float or value - value != 0.0:
            return tuple(map(_finite, values._fields, values))
    return values


class _Checked(tuple):
    """The one base of every checked value type, ahead of its named tuple:
    ``MechanismParams``, ``ValidatedParams``, ``JointInputs``, ``Pose``,
    ``topology.LoopSpec`` and ``workspace.ScanSpec``.

    Every way to build one, ``_make`` and ``_replace`` included, binds the
    fields through the named tuple and keeps what the class's
    ``__post_init__(values)`` returns for them: the bound tuple itself when
    that is what it returns, as :func:`_finite_fields` does for finite plain
    floats, else a new instance of those fields.  A subclass declares only
    that staticmethod; none overrides ``__new__`` or ``_make``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        values = super().__new__(cls, *args, **kwargs)
        fields = cls.__post_init__(values)
        return values if fields is values else tuple.__new__(cls, fields)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


class MechanismParams(_Checked, namedtuple("MechanismParams", PARAM_KEYS)):
    """Link lengths and platform dimensions (mm), in the order of ``PARAM_KEYS``.

    ``a`` (base half-length) and ``l5`` (parallelogram short links) locate
    structure that never enters the position equations; they are validated
    for positivity but otherwise inert.
    """

    __slots__ = ()
    __post_init__ = staticmethod(_finite_fields)

    def validate(self) -> "ValidatedParams":
        return validate(self)


_POSITIVE = ("a", "b", "d", "l1", "l2", "l3", "l4", "l5", "l6")
_NON_NEGATIVE = ("l7", "l8")
#: Longest accepted length (mm).  The float spacing at this length,
#: about 1.2e-10 mm, stays below the solvers' absolute tolerances
#: (1e-9 mm singularity test, 1e-6 mm closure), and every square, product
#: and discriminant of lengths stays far from overflow.
MAX_LENGTH = 1e6


class ValidatedParams(MechanismParams):
    """Parameters that hold every geometric invariant.

    Every way to build one checks them and raises :class:`InvalidParameter`
    naming the first offending field, so downstream modules accept only
    this type and never re-check length positivity.  Instances are
    immutable and safe to share across tasks.
    """

    __slots__ = ()

    @staticmethod
    def __post_init__(values) -> tuple[float, ...]:
        fields = _finite_fields(values)
        length = dict(zip(PARAM_KEYS, fields))
        for name in _POSITIVE:
            if length[name] <= 0.0:
                raise InvalidParameter(name, f"must be > 0, got {length[name]}")
        for name in _NON_NEGATIVE:
            if length[name] < 0.0:
                raise InvalidParameter(name, f"must be >= 0, got {length[name]}")
        for name in PARAM_KEYS:
            if length[name] > MAX_LENGTH:
                raise InvalidParameter(name, f"must be <= {MAX_LENGTH:g} mm, got {length[name]}")
        if length["l3"] >= 2.0 * length["l2"]:
            raise InvalidParameter(
                "l3",
                f"must be < 2*l2 = {2.0 * length['l2']} (planar loop could never close), "
                f"got {length['l3']}",
            )
        return fields


def validate(params: MechanismParams) -> ValidatedParams:
    """Check all geometric invariants.

    Idempotent: a :class:`ValidatedParams` is returned unchanged.  Raises
    :class:`InvalidParameter` naming the first offending field.
    """
    return params if isinstance(params, ValidatedParams) else ValidatedParams(*params)


class JointInputs(_Checked, namedtuple("JointInputs", ("yA1", "yA2", "yA3"))):
    """Signed rail displacements (mm) along the base Y axis."""

    __slots__ = ()
    # own attribute of the class: perfbench/tracer.py rebinds it to time the check
    __post_init__ = staticmethod(_finite_fields)


class Pose(_Checked, namedtuple("Pose", ("x", "y", "z"))):
    """Platform reference point O' in the base frame (mm)."""

    __slots__ = ()
    # own attribute of the class: perfbench/tracer.py rebinds it to time the check
    __post_init__ = staticmethod(_finite_fields)


def load_params(path) -> ValidatedParams:
    """Load and validate a flat JSON object with exactly the eleven keys.

    Unknown keys are an error (catches typos); missing keys are an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_int=json_int)
        except json.JSONDecodeError as exc:
            raise InvalidParameter("<file>", f"{path}: not valid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise InvalidParameter("<file>", f"{path}: not UTF-8 text ({exc})") from exc
        except RecursionError as exc:
            raise InvalidParameter("<file>", f"{path}: JSON nested too deeply ({exc})") from exc
    if not isinstance(raw, dict):
        raise InvalidParameter("<file>", f"{path}: expected a JSON object")
    for key in raw:
        if key not in PARAM_KEYS:
            raise InvalidParameter(key, f"unknown key in {path}")
    for key in PARAM_KEYS:
        if key not in raw:
            raise InvalidParameter(key, f"missing from {path}")
    return MechanismParams(**raw).validate()


#: Dimension set of the reference design (mm).  Used by the verification
#: suite, the CLI default, and the docs.
REFERENCE_PARAMS = MechanismParams(
    a=300.0, b=150.0, d=50.0,
    l1=30.0, l2=280.0, l3=140.0, l4=180.0,
    l5=90.0, l6=230.0, l7=0.0, l8=0.0,
).validate()
