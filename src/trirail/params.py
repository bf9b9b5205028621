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
from dataclasses import dataclass, fields

from .errors import InvalidParameter

PARAM_KEYS = ("a", "b", "d", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8")


def _check_finite(obj, names):
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidParameter(name, f"must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise InvalidParameter(name, f"must be finite, got {value!r}")
        object.__setattr__(obj, name, float(value))


@dataclass(frozen=True)
class MechanismParams:
    """Link lengths and platform dimensions (mm).

    ``a`` (base half-length) and ``l5`` (parallelogram short links) locate
    structure that never enters the position equations; they are validated
    for positivity but otherwise inert.
    """

    a: float
    b: float
    d: float
    l1: float
    l2: float
    l3: float
    l4: float
    l5: float
    l6: float
    l7: float
    l8: float

    def __post_init__(self):
        _check_finite(self, PARAM_KEYS)

    def validate(self) -> "ValidatedParams":
        return validate(self)


class ValidatedParams(MechanismParams):
    """Marker subtype: every invariant has been checked.

    Downstream modules accept only this type and never re-check length
    positivity.  Instances are immutable and safe to share across tasks.
    """


_POSITIVE = ("a", "b", "d", "l1", "l2", "l3", "l4", "l5", "l6")
_NON_NEGATIVE = ("l7", "l8")
#: Longest accepted length (mm).  The float spacing at this length,
#: about 1.2e-10 mm, stays below the solvers' absolute tolerances
#: (1e-9 mm singularity test, 1e-6 mm closure), and every square, product
#: and discriminant of lengths stays far from overflow.
MAX_LENGTH = 1e6


def validate(params: MechanismParams) -> ValidatedParams:
    """Check all geometric invariants.

    Idempotent: a :class:`ValidatedParams` is returned unchanged.  Raises
    :class:`InvalidParameter` naming the first offending field.
    """
    if isinstance(params, ValidatedParams):
        return params
    for name in _POSITIVE:
        if getattr(params, name) <= 0.0:
            raise InvalidParameter(name, f"must be > 0, got {getattr(params, name)}")
    for name in _NON_NEGATIVE:
        if getattr(params, name) < 0.0:
            raise InvalidParameter(name, f"must be >= 0, got {getattr(params, name)}")
    for name in PARAM_KEYS:
        if getattr(params, name) > MAX_LENGTH:
            raise InvalidParameter(
                name, f"must be <= {MAX_LENGTH:g} mm, got {getattr(params, name)}"
            )
    if params.l3 >= 2.0 * params.l2:
        raise InvalidParameter(
            "l3",
            f"must be < 2*l2 = {2.0 * params.l2} (planar loop could never close), got {params.l3}",
        )
    return ValidatedParams(**{f.name: getattr(params, f.name) for f in fields(params)})


@dataclass(frozen=True)
class JointInputs:
    """Signed rail displacements (mm) along the base Y axis."""

    yA1: float
    yA2: float
    yA3: float

    def __post_init__(self):
        _check_finite(self, ("yA1", "yA2", "yA3"))

    @classmethod
    def _trusted(cls, yA1: float, yA2: float, yA3: float) -> "JointInputs":
        """Inputs from rail positions already known to be finite floats, unvalidated."""
        inputs = object.__new__(cls)
        inputs.__dict__.update(yA1=yA1, yA2=yA2, yA3=yA3)
        return inputs

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.yA1, self.yA2, self.yA3)


@dataclass(frozen=True)
class Pose:
    """Platform reference point O' in the base frame (mm)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_finite(self, ("x", "y", "z"))

    @classmethod
    def _trusted(cls, x: float, y: float, z: float) -> "Pose":
        """Pose from coordinates already known to be finite floats, unvalidated."""
        pose = object.__new__(cls)
        pose.__dict__.update(x=x, y=y, z=z)
        return pose

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def load_params(path) -> ValidatedParams:
    """Load and validate a flat JSON object with exactly the eleven keys.

    Unknown keys are an error (catches typos); missing keys are an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidParameter("<file>", f"{path}: not valid JSON ({exc})") from exc
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
