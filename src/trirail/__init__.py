"""Kinematics engine for a three-rail translational parallel platform.

Analytical direct and inverse position solutions with rigorous branch
enumeration and closure filtering, Jacobian-based singularity
classification, grid workspace mapping, and the mobility arithmetic that
motivates the design.
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
from .workspace import ScanResult, ScanSpec, WorkspaceSample

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
    "WorkspaceSample",
    "errors",
    "load_params",
    "validate",
    "__version__",
]
