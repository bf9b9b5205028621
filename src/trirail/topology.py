"""Mobility and loop-coupling arithmetic, in exact integers.

The mechanism decomposes into single-opened-chain loops.  Its full-cycle
degrees of freedom are the total joint freedoms minus the independent
displacement equations of every loop; each loop additionally carries a
constraint degree ``delta = joint_dof_sum - actuated_count - eq_count``
whose values must sum to zero over a valid decomposition, and half the
sum of their magnitudes is the coupling degree (0 means loop-by-loop
solvable, higher means interdependent loops).
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .errors import InvalidAkc, InvalidParameter, clipped
from .params import _Checked


def _check_count(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidParameter(name, f"must be a non-negative integer, got {clipped(value)}")


class LoopSpec(_Checked, namedtuple("LoopSpec",
                                    "joint_dof_sum actuated_count independent_eq_count")):
    """One loop of the decomposition.

    joint_dof_sum: total joint freedoms along the loop's chain.
    actuated_count: actuated joints among them.
    independent_eq_count: independent displacement equations (0..6).
    """

    __slots__ = ()

    @staticmethod
    def __post_init__(loop):
        for name, value in zip(loop._fields, loop):
            _check_count(name, value)
        if loop.independent_eq_count > 6:
            raise InvalidParameter(
                "independent_eq_count", f"must be <= 6, got {clipped(loop.independent_eq_count)}"
            )
        return loop


class TopologyReport(NamedTuple):
    dof: int
    deltas: tuple[int, ...]
    coupling_degree: int


def dof(total_joint_dof_sum: int, loops: list[LoopSpec] | tuple[LoopSpec, ...]) -> int:
    """Full-cycle degrees of freedom: total joint freedoms minus all loop equations."""
    return total_joint_dof_sum - sum(loop.independent_eq_count for loop in loops)


def _balanced(deltas) -> tuple[int, ...]:
    """``deltas`` as a tuple; raises :class:`InvalidAkc` unless they sum to zero."""
    deltas = tuple(deltas)
    if sum(deltas) != 0:
        raise InvalidAkc(f"constraint degrees {clipped(deltas)} sum to {clipped(sum(deltas))}, "
                         "expected 0")
    return deltas


def constraint_degrees(loops: list[LoopSpec] | tuple[LoopSpec, ...]) -> tuple[int, ...]:
    """Per-loop constraint degrees; raises :class:`InvalidAkc` unless they sum to zero."""
    return _balanced(loop.joint_dof_sum - loop.actuated_count - loop.independent_eq_count
                     for loop in loops)


def coupling_degree(deltas: list[int] | tuple[int, ...]) -> int:
    """Half the sum of |delta| for the given decomposition.

    The minimum over alternative decompositions is the caller's concern;
    this evaluates the one supplied.  Zero-sum guarantees the result is an
    integer.
    """
    return sum(abs(delta) for delta in _balanced(deltas)) // 2


def report(total_joint_dof_sum: int, loops: list[LoopSpec] | tuple[LoopSpec, ...]) -> TopologyReport:
    """Mobility report of a decomposition; :class:`InvalidParameter` unless
    ``total_joint_dof_sum`` is a non-negative integer."""
    _check_count("total_joint_dof_sum", total_joint_dof_sum)
    deltas = constraint_degrees(loops)
    return TopologyReport(
        dof=dof(total_joint_dof_sum, loops),
        deltas=deltas,
        coupling_degree=coupling_degree(deltas),
    )


#: Loop decomposition of the reference design: the planar loop closed by
#: the two coaxial rails (six joint freedoms, two actuated, three
#: independent equations) and the spatial loop through the parallelogram
#: chain (five freedoms, one actuated, five equations).
REFERENCE_LOOPS = (LoopSpec(6, 2, 3), LoopSpec(5, 1, 5))
#: Total joint freedoms of the reference design across both loops.
REFERENCE_JOINT_DOF_SUM = 11


def reference_report() -> TopologyReport:
    """Mobility report of the reference design: 3 DOF, deltas (+1, -1), coupling 1."""
    return report(REFERENCE_JOINT_DOF_SUM, REFERENCE_LOOPS)
