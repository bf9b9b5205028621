import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from trirail.errors import InvalidParameter
from trirail.params import (
    MAX_LENGTH,
    JointInputs,
    MechanismParams,
    PARAM_KEYS,
    Pose,
    REFERENCE_PARAMS,
    ValidatedParams,
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
def test_trusted_equals_the_validated_constructor(cls, values):
    trusted, checked = cls._trusted(*values), cls(*values)
    assert type(trusted) is cls
    assert trusted == checked and checked == trusted
    assert hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    assert trusted.as_tuple() == values
    name = dataclasses.fields(cls)[1].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(trusted, name, 1.0)
    # replace builds through the constructor, so __post_init__ still checks
    with pytest.raises(InvalidParameter) as err:
        dataclasses.replace(trusted, **{name: math.nan})
    assert err.value.name == name
    assert dataclasses.replace(trusted, **{name: 1.0}) == cls(
        *(1.0 if f.name == name else getattr(trusted, f.name) for f in dataclasses.fields(cls)))


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


def test_param_keys_cover_all_fields():
    assert set(PARAM_KEYS) == set(REFERENCE_VALUES)
