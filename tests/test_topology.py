import pytest
from hypothesis import given, strategies as st

from trirail import topology
from trirail.errors import InvalidAkc, InvalidParameter
from trirail.topology import LoopSpec


def test_reference_fixture_exact():
    rep = topology.reference_report()
    assert rep.dof == 3
    assert rep.deltas == (1, -1)
    assert rep.coupling_degree == 1
    assert isinstance(rep.dof, int)
    assert all(isinstance(d, int) for d in rep.deltas)
    assert isinstance(rep.coupling_degree, int)


def test_dof_worked_example():
    assert topology.dof(11, [LoopSpec(6, 2, 3), LoopSpec(5, 1, 5)]) == 3


def test_dof_serial_chain_without_loops():
    assert topology.dof(7, []) == 7


def test_dof_rigid_structure():
    assert topology.dof(6, [LoopSpec(6, 0, 6)]) == 0


def test_constraint_degrees_worked_example():
    assert topology.constraint_degrees([LoopSpec(6, 2, 3), LoopSpec(5, 1, 5)]) == (1, -1)


def test_constraint_degree_zero_loop():
    assert topology.constraint_degrees([LoopSpec(4, 1, 3), LoopSpec(4, 1, 3)]) == (0, 0)


def test_unbalanced_decomposition_rejected():
    with pytest.raises(InvalidAkc):
        topology.constraint_degrees([LoopSpec(6, 2, 3), LoopSpec(5, 1, 4)])


def test_coupling_degree_examples():
    assert topology.coupling_degree((1, -1)) == 1
    assert topology.coupling_degree((0, 0)) == 0
    assert topology.coupling_degree((2, -1, -1)) == 2


def test_coupling_degree_requires_zero_sum():
    with pytest.raises(InvalidAkc):
        topology.coupling_degree((1, 1))


@pytest.mark.parametrize("total", [-1, 11.0, 3.5, float("inf"), True, "11", None])
def test_report_rejects_a_total_that_is_not_a_non_negative_integer(total):
    with pytest.raises(InvalidParameter, match="total_joint_dof_sum"):
        topology.report(total, [LoopSpec(6, 2, 3), LoopSpec(5, 1, 5)])


@pytest.mark.parametrize("build, message", [
    (lambda: LoopSpec(-10 ** 5000, 0, 0),
     "joint_dof_sum: must be a non-negative integer, got -<int of more than 4300 digits>"),
    (lambda: LoopSpec(0, 0, 10 ** 5000),
     "independent_eq_count: must be <= 6, got <int of more than 4300 digits>"),
    (lambda: topology.report(-10 ** 5000, [LoopSpec(6, 2, 3), LoopSpec(5, 1, 5)]),
     "total_joint_dof_sum: must be a non-negative integer, got "
     "-<int of more than 4300 digits>"),
    (lambda: topology.report(0, [LoopSpec(10 ** 5000, 0, 0)]),
     "constraint degrees <tuple of more than 4300 digits> sum to "
     "<int of more than 4300 digits>, expected 0"),
], ids=["negative-count", "equation-count", "total", "unbalanced"])
def test_an_int_too_long_for_repr_is_named_not_printed(build, message):
    with pytest.raises((InvalidParameter, InvalidAkc)) as err:
        build()
    assert str(err.value) == message


def test_loop_spec_validation():
    with pytest.raises(InvalidParameter):
        LoopSpec(-1, 0, 3)
    with pytest.raises(InvalidParameter):
        LoopSpec(6, 2, 7)
    with pytest.raises(InvalidParameter):
        LoopSpec(6.0, 2, 3)  # floats are rejected: integer arithmetic only


@given(st.lists(st.integers(-6, 8), min_size=1, max_size=6))
def test_coupling_is_half_the_magnitude_sum(deltas):
    if sum(deltas) != 0:
        with pytest.raises(InvalidAkc):
            topology.coupling_degree(deltas)
        return
    kappa = topology.coupling_degree(deltas)
    assert kappa * 2 == sum(abs(d) for d in deltas)  # zero sum makes it even
    assert kappa >= 0


@given(
    st.integers(0, 40),
    st.lists(
        st.builds(LoopSpec, st.integers(0, 9), st.integers(0, 4), st.integers(0, 6)),
        max_size=5,
    ),
)
def test_dof_is_total_minus_equations(total, loops):
    assert topology.dof(total, loops) == total - sum(l.independent_eq_count for l in loops)
