import json
import math
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trirail import params
from trirail.errors import InvalidParameter, clipped
from trirail.params import (
    MAX_LENGTH,
    JointInputs,
    MechanismParams,
    PARAM_KEYS,
    Pose,
    REFERENCE_PARAMS,
    ValidatedParams,
    json_int,
    load_params,
    validate,
)

REFERENCE_VALUES = dict(
    a=300.0, b=150.0, d=50.0, l1=30.0, l2=280.0, l3=140.0, l4=180.0,
    l5=90.0, l6=230.0, l7=0.0, l8=0.0,
)


def make(**overrides):
    values = dict(REFERENCE_VALUES)
    values.update(overrides)
    return MechanismParams(**values)


def test_reference_set_is_valid():
    p = validate(make())
    assert isinstance(p, ValidatedParams)
    for key, value in REFERENCE_VALUES.items():
        assert getattr(p, key) == value


def test_validate_is_idempotent():
    p = validate(make())
    assert validate(p) is p
    assert p.validate() is p


def test_zero_l2_rejected():
    with pytest.raises(InvalidParameter) as err:
        validate(make(l2=0.0))
    assert err.value.name == "l2"


def test_l3_closure_feasibility():
    with pytest.raises(InvalidParameter) as err:
        validate(make(l3=600.0, l2=280.0))
    assert err.value.name == "l3"
    # boundary: l3 == 2*l2 is already infeasible
    with pytest.raises(InvalidParameter):
        validate(make(l3=560.0))


def test_l7_l8_may_be_zero_but_not_negative():
    validate(make(l7=0.0, l8=0.0))
    with pytest.raises(InvalidParameter) as err:
        validate(make(l7=-1.0))
    assert err.value.name == "l7"


def test_inert_lengths_still_checked():
    for name in ("a", "l5"):
        with pytest.raises(InvalidParameter) as err:
            validate(make(**{name: 0.0}))
        assert err.value.name == name


def test_non_finite_rejected_at_construction():
    with pytest.raises(InvalidParameter) as err:
        make(l4=math.nan)
    assert err.value.name == "l4"
    with pytest.raises(InvalidParameter):
        make(b=math.inf)
    with pytest.raises(InvalidParameter):
        JointInputs(0.0, math.nan, 0.0)
    with pytest.raises(InvalidParameter):
        Pose(math.inf, 0.0, 0.0)


@pytest.mark.parametrize("cls, values", [
    (Pose, (-15.4714, 0.0, 456.3315)),
    (Pose, (-0.0, 1e-300, -2.5e5)),
    (JointInputs, (162.6907, -143.3209, -24.6776)),
    (JointInputs, (0.0, -0.0, 3.0)),
], ids=["pose", "pose-edge", "inputs", "inputs-edge"])
def test_unchecked_equals_the_validated_constructor(cls, values):
    # the solvers build values already known to be finite floats this way
    unchecked, checked = tuple.__new__(cls, values), cls(*values)
    assert type(unchecked) is cls
    assert unchecked == checked and checked == unchecked
    assert hash(unchecked) == hash(checked)
    assert repr(unchecked) == repr(checked)
    assert unchecked.as_tuple() == values
    name = cls._fields[1]
    with pytest.raises(AttributeError):
        setattr(unchecked, name, 1.0)
    # _replace builds through the constructor, so it still checks
    with pytest.raises(InvalidParameter) as err:
        unchecked._replace(**{name: math.nan})
    assert err.value.name == name
    assert unchecked._replace(**{name: 1.0}) == cls(
        *(1.0 if field == name else getattr(unchecked, field) for field in cls._fields))


def test_validated_params_cannot_hold_invalid_values():
    values = dict(REFERENCE_VALUES, l3=1000.0)
    with pytest.raises(InvalidParameter) as err:
        ValidatedParams(**values)
    assert err.value.name == "l3"
    with pytest.raises(InvalidParameter) as err:
        REFERENCE_PARAMS._replace(l2=-1.0)
    assert err.value.name == "l2"
    assert str(err.value) == "l2: must be > 0, got -1.0"


def test_reference_params_constant():
    assert isinstance(REFERENCE_PARAMS, ValidatedParams)
    assert REFERENCE_PARAMS.l2 == 280.0 and REFERENCE_PARAMS.l6 == 230.0


@given(
    st.builds(
        dict,
        a=st.floats(1.0, 1000.0), b=st.floats(1.0, 1000.0), d=st.floats(1.0, 1000.0),
        l1=st.floats(1.0, 1000.0), l2=st.floats(1.0, 1000.0),
        l4=st.floats(1.0, 1000.0), l5=st.floats(1.0, 1000.0),
        l6=st.floats(1.0, 1000.0), l7=st.floats(0.0, 1000.0), l8=st.floats(0.0, 1000.0),
        ratio=st.floats(0.05, 1.95),
    )
)
def test_any_consistent_dimension_set_validates(values):
    ratio = values.pop("ratio")
    values["l3"] = ratio * values["l2"]  # keeps l3 < 2*l2
    p = validate(MechanismParams(**values))
    assert isinstance(p, ValidatedParams)


@given(st.sampled_from(("a", "b", "d", "l1", "l2", "l3", "l4", "l5", "l6")),
       st.floats(-1000.0, 0.0))
def test_nonpositive_required_length_names_field(name, bad):
    with pytest.raises(InvalidParameter) as err:
        validate(make(**{name: bad}))
    assert err.value.name == name


@pytest.mark.parametrize("name", PARAM_KEYS)
def test_overflowing_length_names_field(name):
    # squares of 1e200 overflow to inf inside the solvers
    with pytest.raises(InvalidParameter) as err:
        validate(make(**{name: 1e200}))
    assert err.value.name == name
    with pytest.raises(InvalidParameter) as err:
        validate(make(**{name: math.nextafter(MAX_LENGTH, math.inf)}))
    assert err.value.name == name


def test_max_length_is_accepted():
    p = validate(MechanismParams(**{name: MAX_LENGTH for name in PARAM_KEYS}))
    assert all(getattr(p, name) == MAX_LENGTH for name in PARAM_KEYS)


def test_load_params_roundtrip(tmp_path):
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(REFERENCE_VALUES))
    p = load_params(path)
    assert p == REFERENCE_PARAMS


def test_load_params_missing_key(tmp_path):
    values = dict(REFERENCE_VALUES)
    del values["l6"]
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(values))
    with pytest.raises(InvalidParameter) as err:
        load_params(path)
    assert err.value.name == "l6"


def test_load_params_unknown_key(tmp_path):
    values = dict(REFERENCE_VALUES, l9=1.0)
    path = tmp_path / "geometry.json"
    path.write_text(json.dumps(values))
    with pytest.raises(InvalidParameter) as err:
        load_params(path)
    assert err.value.name == "l9"


def test_load_params_rejects_non_object(tmp_path):
    path = tmp_path / "geometry.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(InvalidParameter):
        load_params(path)


@pytest.mark.parametrize("content, reason", [
    (b'{"a": "\xff"}', "not UTF-8 text"),
    (b"[" * 100000, "JSON nested too deeply"),
], ids=["not-utf8", "deeply-nested"])
def test_load_params_rejects_undecodable_file(tmp_path, content, reason):
    path = tmp_path / "geometry.json"
    path.write_bytes(content)
    with pytest.raises(InvalidParameter) as err:
        load_params(path)
    assert err.value.name == "<file>"
    assert err.value.reason.startswith(f"{path}: {reason} (")


@pytest.mark.parametrize("value, shown", [
    (10 ** 5000, "<int of more than 4300 digits>"),
    (-10 ** 5000, "-<int of more than 4300 digits>"),
    ([10 ** 5000], "<list of more than 4300 digits>"),
], ids=["int", "negative-int", "list"])
def test_clipped_shows_an_int_too_long_for_repr(value, shown):
    assert clipped(value) == shown
    with pytest.raises(InvalidParameter, match=f"^x: must be (finite|a real number), got "
                                                f"{re.escape(shown)}$"):
        Pose(value, 0.0, 0.0)


def test_param_keys_cover_all_fields():
    assert MechanismParams._fields == PARAM_KEYS
    assert set(PARAM_KEYS) == set(REFERENCE_VALUES)


#: Inputs a checked field accepts: each comes out as the plain float(v).
ACCEPTED = [3, -2, 10 ** 20, np.float64(-15.25), -0.0, 5e-324, sys.float_info.max, 1.5]
#: Inputs it rejects, and the reason it gives.
REJECTED = [
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
    (-math.inf, "must be finite, got -inf"),
    (json_int("9" * 5000), "must be finite, got " + "9" * 57 + "..."),
    (True, "must be a real number, got True"),
    (False, "must be a real number, got False"),
    ("1", "must be a real number, got '1'"),
]
VALUE_TYPES = [pytest.param(Pose, (1.0, 2.0, 3.0), id="Pose"),
               pytest.param(JointInputs, (4.0, 5.0, 6.0), id="JointInputs"),
               pytest.param(MechanismParams, tuple(REFERENCE_VALUES.values()),
                            id="MechanismParams")]


def bits(value) -> bytes:
    return struct.pack("<d", value)


@pytest.mark.parametrize("cls, plain", VALUE_TYPES)
@pytest.mark.parametrize("value", ACCEPTED, ids=repr)
def test_checked_fields_come_out_as_plain_floats(cls, plain, value):
    fields = (*plain[:1], value, *plain[2:])
    made = cls(*fields)
    assert all(type(f) is float for f in made)
    assert list(map(bits, made)) == [bits(float(v)) for v in fields]
    assert list(map(bits, cls._make(fields))) == list(map(bits, made))
    # the bound tuple is kept only when every field is a finite plain float
    bound = tuple.__new__(cls, fields)
    checked = params._finite_fields(bound)
    assert (checked is bound) == (type(value) is float)
    assert list(map(bits, checked)) == list(map(bits, made))


@pytest.mark.parametrize("cls, plain", VALUE_TYPES)
@pytest.mark.parametrize("value, reason", REJECTED, ids=lambda v: clipped(v)[:12])
def test_checked_fields_reject_with_the_field_name(cls, plain, value, reason):
    name = cls._fields[1]
    with pytest.raises(InvalidParameter) as err:
        cls(*plain[:1], value, *plain[2:])
    assert str(err.value) == f"{name}: {reason}"
    with pytest.raises(InvalidParameter) as err:
        cls._make(plain)._replace(**{name: value})
    assert str(err.value) == f"{name}: {reason}"


@pytest.mark.parametrize("fields", [(1.0, 2.0, 3.0), (1, np.float64(2.0), -0.0)],
                         ids=["plain", "converted"])
def test_every_pose_construction_runs_the_check_once(monkeypatch, fields):
    calls = []

    def counting(values):
        calls.append(values)
        return params._finite_fields(values)

    monkeypatch.setattr(Pose, "__post_init__", staticmethod(counting))
    pose = Pose(*fields)
    assert len(calls) == 1
    assert Pose._make(fields) == pose
    assert len(calls) == 2
    assert pose._replace(y=7.0) == (pose.x, 7.0, pose.z)
    assert len(calls) == 3
