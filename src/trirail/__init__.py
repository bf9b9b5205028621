"""Kinematics engine for a three-rail translational parallel platform.

Analytical direct and inverse position solutions with rigorous branch
enumeration and closure filtering, Jacobian-based singularity
classification, grid workspace mapping, and the mobility arithmetic that
motivates the design.

The scan types :class:`ScanResult` and :class:`ScanSpec` are served lazily
(PEP 562): the first access imports :mod:`trirail.workspace`, and numpy with
it, so importing the package or running any command but ``workspace`` never
loads numpy.
"""

from . import errors
from .fk import FkBranch, FkIntermediates, FkSolution
from .ik import IkBranch, IkSolution
from .jacobian import Classification, JacobianPair, SingularityKind
from .params import (
    JointInputs,
    MechanismParams,
    Pose,
    REFERENCE_PARAMS,
    ValidatedParams,
    load_params,
    validate,
)
from .topology import LoopSpec, TopologyReport

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "FkBranch",
    "FkIntermediates",
    "FkSolution",
    "IkBranch",
    "IkSolution",
    "JacobianPair",
    "JointInputs",
    "LoopSpec",
    "MechanismParams",
    "Pose",
    "REFERENCE_PARAMS",
    "ScanResult",
    "ScanSpec",
    "SingularityKind",
    "TopologyReport",
    "ValidatedParams",
    "errors",
    "load_params",
    "validate",
    "__version__",
]


def __getattr__(name):
    if name in ("ScanResult", "ScanSpec"):
        from . import workspace

        return getattr(workspace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
