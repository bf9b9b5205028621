"""The branch rules and chain terms that the scalar solver and the workspace kernel share.

Each decision about solution structure is one function in the module that
owns it: whether a chain has 0, 1 or 2 roots (``ik._roots``), whether rails
1 and 2 sit at the parallel singularity (``fk._parallel``), whether a distal
link folds (``jacobian._folded``), the normalised det Jq
(``jacobian._norm_det_jq``) and the class index (``jacobian._class_index``).
The arccos clamp is one function too, ``fk._clamp``, though only the scalar
path calls it.

Each term of the chain geometry that those rules read is one function as
well: the C-joint y's (``fk._joint_ys``), the rail gap B (``fk._gap``), the
chain heights h12 and h3 (``fk._h12``, ``fk._h3``), the gamma term H1
(``fk._h1``), the radicands M1, M3 and H2 (``fk._radicand``) and the rows of
Jp (``jacobian._jp``).  So only ``fk._h1`` and ``fk._h3`` read the spacers
l7 and l8.

``ik.solve``, ``fk``, ``jacobian.build`` and ``classify`` call them on
Python floats, and ``workspace._label`` on numpy arrays.  The kernel agrees
with the scalar path bit for bit only while a rule or term gives the same
bits on an array as on each of its floats, and while the kernel states none
of them itself.
"""

import ast
import math
import pkgutil
import struct
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trirail
from trirail import fk, ik, jacobian, workspace
from trirail.params import REFERENCE_PARAMS

from conftest import SPACER_PARAMS, readers

P = REFERENCE_PARAMS
TINY = math.ulp(0.0)  # 5e-324


def around(*centres: float) -> list[float]:
    """Each centre and its negation, with their neighbours one ulp either side."""
    return [math.nextafter(v, direction) if direction else v
            for c in centres for v in (c, -c) for direction in (-math.inf, 0.0, math.inf)]


def floats(*centres: float):
    """Floats up to 1e100 in magnitude (so a product of three stays finite),
    mostly the signed zeros, the smallest subnormals and the floats around
    ``centres``."""
    edges = st.sampled_from([0.0, -0.0, TINY, -TINY, *around(*centres)])
    return st.one_of(edges, edges, st.floats(-1e100, 1e100))


def bits(value):
    """A scalar's identity: a float's IEEE bits, a bool's or an int's value and type."""
    return struct.pack("<d", value) if type(value) is float else (type(value), value)


def assert_elementwise(rule, rows):
    """``rule`` on numpy columns equals, bit for bit, ``rule`` on each row of
    Python scalars, and each scalar call returns a Python bool, int or float:
    a numpy scalar's repr would change the bytes of ``trirail ik --format csv``."""
    scalars = [rule(*row) for row in rows]
    assert {type(s) for s in scalars} <= {bool, int, float}
    array = rule(*(np.array(column) for column in zip(*rows)))
    assert isinstance(array, np.ndarray) and array.shape == (len(rows),)
    assert [bits(a) for a in array.tolist()] == [bits(s) for s in scalars]


@settings(max_examples=100, deadline=None)
@given(st.lists(floats(P.l2 ** 2, P.l6 ** 2, 1.0), min_size=1, max_size=16))
def test_roots_count(values):
    assert_elementwise(ik._roots, [(M,) for M in values])
    for M in values:
        # the zero-root test it replaces: sqrt(M) is zero only at M = 0
        assert ik._roots(M) == (0 if M < 0.0 else 1 if math.sqrt(M) == 0.0 else 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(floats(fk.EPS_B), min_size=1, max_size=16))
def test_parallel(values):
    assert_elementwise(fk._parallel, [(B,) for B in values])
    # |B| = EPS_B is parallel, the next float above it is not
    assert fk._parallel(fk.EPS_B) is True
    assert fk._parallel(math.nextafter(fk.EPS_B, math.inf)) is False


@settings(max_examples=100, deadline=None)
@given(st.lists(floats(jacobian.COT_GUARD, 1.0), min_size=1, max_size=16))
def test_folded(values):
    assert_elementwise(jacobian._folded, [(s,) for s in values])
    # |sin| = COT_GUARD does not fold, the next float below it does
    assert jacobian._folded(jacobian.COT_GUARD) is False
    assert jacobian._folded(math.nextafter(jacobian.COT_GUARD, 0.0)) is True


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(*[floats(P.l2, P.l6)] * 3), min_size=1, max_size=16),
       st.sampled_from([P, SPACER_PARAMS]))
def test_norm_det_jq(rows, params):
    assert_elementwise(lambda *u: jacobian._norm_det_jq(*u, params), rows)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([P, SPACER_PARAMS]))
def test_class_index(data, params):
    # |u| / l lands on either side of SERIAL_THRESHOLD around these
    u = floats(*(jacobian.SERIAL_THRESHOLD * length for length in (params.l2, params.l6)))
    rows = data.draw(st.lists(st.tuples(u, u, u, st.booleans()), min_size=1, max_size=16))
    assert_elementwise(lambda u11, u22, u33, parallel:
                       jacobian._class_index(u11, u22, u33, params, parallel), rows)
    # chain 3's serial band on the reference design: |u33| / l6 up to
    # SERIAL_THRESHOLD is serial (index 1), the next float above it regular
    edge = jacobian.SERIAL_THRESHOLD * P.l6
    assert edge / P.l6 == jacobian.SERIAL_THRESHOLD
    for u33, index in ((edge, 1), (-edge, 1), (0.5e-9 * P.l6, 1),
                       (math.nextafter(edge, math.inf), 0)):
        assert jacobian._class_index(P.l2, P.l2, u33, P, False) == index


def boundary_heights(params) -> tuple[float, float, float]:
    """The platform heights at which chain 1 and chain 3 reach their stroke
    boundaries with sin(alpha) = sin(beta) = 0.8 (as on the stroke-boundary
    sweep), and l1 + l7 + l8."""
    spacers = params.l1 + params.l7 + params.l8
    return params.l1 + 0.8 * params.l4 + params.l2, spacers + 0.8 * params.l6 + params.l6, spacers


def term_draws(p) -> dict:
    """Each chain-geometry term of design ``p`` by name: a function of floats
    (one per output of ``fk._joint_ys``), and a strategy for each argument.
    The spacer design's nonzero l7 and l8 make the order of the subtractions
    of h1 and h3 matter."""
    z = floats(*boundary_heights(p))
    # l4 sin(alpha) and l6 sin(beta), around 0.8 of the lengths and around l2 and l6
    length_sin = floats(0.8 * p.l4, 0.8 * p.l6, p.l2, p.l6)
    return {
        "joint_y1": (lambda y: fk._joint_ys(y, p)[0], [floats(p.l3 / 2.0)]),
        "joint_y2": (lambda y: fk._joint_ys(y, p)[1], [floats(p.l3 / 2.0)]),
        "joint_y3": (lambda y: fk._joint_ys(y, p)[2], [floats(p.l3 / 2.0)]),
        "gap": (lambda yA1, yA2: fk._gap(yA1, yA2, p), [floats(p.l3, 2.0 * p.l2)] * 2),
        # H1 = 0 where l2 sin(gamma) = l7 + l8
        "h1": (lambda sin: fk._h1(sin, p), [floats((p.l7 + p.l8) / p.l2, 1.0)]),
        "h12": (lambda z, l4_sin_a: fk._h12(z, l4_sin_a, p), [z, length_sin]),
        "h3": (lambda z, l6_sin_b: fk._h3(z, l6_sin_b, p), [z, length_sin]),
        "radicand": (fk._radicand, [st.sampled_from([p.l2, p.l6]), floats(p.l2, p.l6)]),
    }


@pytest.mark.parametrize("name", list(term_draws(P)))
@settings(max_examples=50, deadline=None)
@given(data=st.data(), params=st.sampled_from([P, SPACER_PARAMS]))
def test_chain_terms(name, data, params):
    term, args = term_draws(params)[name]
    assert_elementwise(term, data.draw(st.lists(st.tuples(*args), min_size=1, max_size=16)))


def test_the_heights_reach_the_link_lengths_at_the_stroke_boundaries():
    # on the spacer design too: h3 counts l7 and l8, h12 does not
    p = SPACER_PARAMS
    z12, z3, _ = boundary_heights(p)
    assert fk._h12(z12, 0.8 * p.l4, p) == p.l2
    assert fk._h3(z3, 0.8 * p.l6, p) == p.l6


MODULES = [import_module(f"trirail.{m.name}") for m in pkgutil.iter_modules(trirail.__path__)]


def readers_in_src(name: str) -> set[str]:
    """``module.function`` of every function in the package that reads ``name``."""
    return {f"{m.__name__.rsplit('.', 1)[1]}.{f}" for m in MODULES for f in readers(m, name)}


def test_each_tolerance_is_read_by_its_rule_alone():
    assert readers_in_src("EPS_B") == {"fk._parallel"}
    assert readers_in_src("COT_GUARD") == {"jacobian._folded"}
    assert readers_in_src("SERIAL_THRESHOLD") == {"jacobian._class_index"}
    assert readers_in_src("ACOS_CLAMP") == {"fk._clamp"}


def test_the_chain_geometry_is_written_once():
    """The solvers and the kernel take the joint y's, the rail gap and the
    chain heights from the term functions of ``fk``, so they read no length
    those terms hold; only those terms and the sweep's boundary height read
    the spacers."""
    callers = {"ik.solve", "jacobian.build", "workspace._label", "fk._chain_residuals"}
    for name in ("l1", "l3", "l7", "l8"):
        assert readers_in_src(name) & callers == set(), name
    assert (readers_in_src("l7") == readers_in_src("l8")
            == {"fk._h1", "fk._h3", "verify.stroke_boundary_sweep"})


def label_function() -> ast.FunctionDef:
    tree = ast.parse(Path(workspace.__file__).read_text(encoding="utf-8"))
    return next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_label")


def float_constants() -> set[str]:
    """The names the solver modules bind to a float literal at module level:
    every tolerance, guard and threshold of FK, IK and the velocity model."""
    return {target.id for module in (fk, ik, jacobian)
            for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and type(node.value.value) is float for target in node.targets}


def test_the_kernel_names_no_tolerance():
    """``_label`` takes every branch decision from the rules: it names no
    solver constant (its class threshold is an argument) and no arccos clamp."""
    assert {"EPS_B", "COT_GUARD", "SERIAL_THRESHOLD", "ACOS_CLAMP"} <= float_constants()
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(label_function()) if isinstance(node, (ast.Name, ast.Attribute))}
    assert named & (float_constants() | {"_clamped_acos", "_clamp"}) == set()


def is_zero(node: ast.expr) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return False
    return type(value) in (int, float) and value == 0


def test_the_kernel_compares_nothing_with_zero():
    """Sign and root tests with 0.0 belong to the rules, not to ``_label``."""
    compared = [ast.unparse(node) for node in ast.walk(label_function())
                if isinstance(node, ast.Compare)
                and any(map(is_zero, [node.left, *node.comparators]))]
    assert compared == []
