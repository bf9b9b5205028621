"""Contract of the solver result and value types: immutable named tuples
whose field names, field order and ``Name(field=value, ...)`` repr are part
of the API, and which compare as tuples."""

import ast
import math
from pathlib import Path

import pytest

from trirail import fk, ik, jacobian, topology, verify, workspace
from trirail.errors import InvalidParameter
from trirail.params import (
    PARAM_KEYS,
    REFERENCE_PARAMS,
    JointInputs,
    MechanismParams,
    Pose,
    ValidatedParams,
)
from trirail.verify import REFERENCE_INPUTS, REFERENCE_POSE

P = REFERENCE_PARAMS

FIELDS = {
    fk.FkBranch: ("sin_gamma_sign", "t_sign", "alpha_sign"),
    fk.FkIntermediates: ("gamma", "alpha", "beta", "t"),
    fk.FkSolution: ("pose", "branch", "intermediates", "residual", "residual_vector"),
    ik.IkBranch: ("alpha_sign", "beta_sign", "root_signs"),
    ik.IkSolution: ("inputs", "branch", "M1", "M3", "alpha", "beta", "serial_witnesses",
                    "parallel_singular", "roundtrip", "roundtrip_residual"),
    jacobian.JacobianPair: ("jp", "jq", "det_jp", "det_jq"),
    jacobian.Classification: ("kind", "norm_det_jp", "norm_det_jq"),
    Pose: ("x", "y", "z"),
    JointInputs: ("yA1", "yA2", "yA3"),
    MechanismParams: PARAM_KEYS,
    ValidatedParams: PARAM_KEYS,
    topology.LoopSpec: ("joint_dof_sum", "actuated_count", "independent_eq_count"),
    topology.TopologyReport: ("dof", "deltas", "coupling_degree"),
    verify.CheckResult: ("name", "passed", "detail"),
    workspace.ScanSpec: ("x_range", "y_range", "z_range", "resolution", "singularity_threshold"),
}


def worked_results():
    """One instance of every result and value type, from the worked example."""
    fk_sol = fk.solve(REFERENCE_INPUTS, P)[0]
    ik_sol = next(s for s in ik.solve(REFERENCE_POSE, P) if not s.parallel_singular)
    pair = jacobian.build(REFERENCE_POSE, ik_sol, P)
    return {
        fk.FkBranch: fk_sol.branch,
        fk.FkIntermediates: fk_sol.intermediates,
        fk.FkSolution: fk_sol,
        ik.IkBranch: ik_sol.branch,
        ik.IkSolution: ik_sol,
        jacobian.JacobianPair: pair,
        jacobian.Classification: jacobian.classify(pair, P),
        Pose: REFERENCE_POSE,
        JointInputs: REFERENCE_INPUTS,
        MechanismParams: MechanismParams(*P),
        ValidatedParams: P,
        topology.LoopSpec: topology.REFERENCE_LOOPS[0],
        topology.TopologyReport: topology.reference_report(),
        verify.CheckResult: verify.CheckResult("direct-worked-example", True, "4 poses"),
        workspace.ScanSpec: workspace.ScanSpec((-110.0, 90.0), (-250.0, 250.0), (180.0, 480.0),
                                               resolution=21),
    }


RESULTS = worked_results()
TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


@TYPES
def test_field_names_and_order(cls):
    assert cls._fields == FIELDS[cls]
    assert type(RESULTS[cls]) is cls


@TYPES
def test_attributes_cannot_be_assigned(cls):
    value = RESULTS[cls]
    with pytest.raises(AttributeError):
        setattr(value, FIELDS[cls][0], None)
    with pytest.raises(AttributeError):
        value.extra = None


@TYPES
def test_repr_names_every_field(cls):
    value = RESULTS[cls]
    body = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls])
    assert repr(value) == f"{cls.__name__}({body})"


@TYPES
def test_unpacks_and_compares_as_a_tuple(cls):
    value = RESULTS[cls]
    assert tuple(value) == tuple(getattr(value, name) for name in FIELDS[cls])
    assert value == tuple(value)


def test_ik_solution_consistent():
    solution = RESULTS[ik.IkSolution]
    assert solution.roundtrip == "direct" and solution.consistent
    assert solution._replace(roundtrip="singular-family").consistent
    for roundtrip in ("failed", "skipped"):
        assert not solution._replace(roundtrip=roundtrip).consistent


def test_jacobian_pair_u_is_the_diagonal_of_jq():
    pair = RESULTS[jacobian.JacobianPair]
    assert pair.u == (pair.jq[0][0], pair.jq[1][1], pair.jq[2][2])
    assert all(type(u) is float for u in pair.u)


@pytest.mark.parametrize("cls, field, bad", [
    (Pose, "x", math.nan),
    (JointInputs, "yA2", math.inf),
    (MechanismParams, "l4", "180"),
    (ValidatedParams, "l2", -1.0),
    (topology.LoopSpec, "independent_eq_count", 7),
    (workspace.ScanSpec, "resolution", 1),
    (workspace.ScanSpec, "y_range", (1.0, 1.0)),
], ids=lambda item: getattr(item, "__name__", None))
def test_make_and_replace_check_like_the_constructor(cls, field, bad):
    value = RESULTS[cls]
    fields = [bad if name == field else v for name, v in zip(FIELDS[cls], value)]
    for build in (lambda: cls(*fields), lambda: cls(**dict(zip(FIELDS[cls], fields))),
                  lambda: value._replace(**{field: bad}), lambda: cls._make(iter(fields))):
        with pytest.raises(InvalidParameter) as err:
            build()
        assert err.value.name == field
    rebuilt = cls._make(value)
    assert type(rebuilt) is cls and rebuilt == value


def test_checked_is_the_one_construction_path():
    """Only ``_Checked`` defines ``__new__`` or ``_make``; the checked types
    declare a ``__post_init__`` staticmethod.  ``ScanResult`` is the one
    dataclass."""
    builders, dataclasses = set(), set()
    for path in (Path(__file__).resolve().parent.parent / "src" / "trirail").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                names = ([item.name] if isinstance(item, ast.FunctionDef)
                         else [t.id for t in getattr(item, "targets", ()) if isinstance(t, ast.Name)])
                if {"__new__", "_make"} & set(names):
                    builders.add(node.name)
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
                    dataclasses.add(node.name)
    assert builders == {"_Checked"}
    assert dataclasses == {"ScanResult"}
