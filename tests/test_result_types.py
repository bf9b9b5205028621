"""Contract of the solver result types: immutable named tuples whose field
names, field order and ``Name(field=value, ...)`` repr are part of the API."""

import pytest

from trirail import fk, ik, jacobian
from trirail.params import REFERENCE_PARAMS
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
}


def worked_results():
    """One instance of every result type, from the worked example."""
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
    if cls is not jacobian.JacobianPair:  # array fields have no truth value
        assert value == tuple(value)


def test_fk_branch_as_tuple_is_a_plain_tuple():
    branch = RESULTS[fk.FkBranch]
    got = branch.as_tuple()
    assert type(got) is tuple
    assert got == (branch.sin_gamma_sign, branch.t_sign, branch.alpha_sign)


def test_ik_solution_consistent():
    solution = RESULTS[ik.IkSolution]
    assert solution.roundtrip == "direct" and solution.consistent
    assert solution._replace(roundtrip="singular-family").consistent
    for roundtrip in ("failed", "skipped"):
        assert not solution._replace(roundtrip=roundtrip).consistent


def test_jacobian_pair_u_is_the_diagonal_of_jq():
    pair = RESULTS[jacobian.JacobianPair]
    assert pair.u == (pair.jq[0, 0], pair.jq[1, 1], pair.jq[2, 2])
    assert all(type(u) is float for u in pair.u)
