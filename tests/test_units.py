import math
import re

import pytest
from hypothesis import given, strategies as st

from wastefigure import db_to_linear, linear_to_db
from wastefigure.units import finite, finite_power


def test_db_to_linear_known_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == 10.0
    assert db_to_linear(30.0) == 1000.0
    assert abs(db_to_linear(-3.0) - 0.501187) < 1e-6


def test_linear_to_db_known_points():
    assert linear_to_db(1.0) == 0.0
    assert linear_to_db(100.0) == 20.0
    # ln 2 as a ratio is the classic -1.59 dB figure
    assert abs(linear_to_db(math.log(2.0)) - (-1.59)) < 0.01


@given(st.floats(min_value=1e-30, max_value=1e30))
def test_round_trip_from_linear(x):
    assert math.isclose(db_to_linear(linear_to_db(x)), x, rel_tol=1e-12)


@given(st.floats(min_value=-300.0, max_value=300.0))
def test_round_trip_from_db(x_db):
    assert math.isclose(linear_to_db(db_to_linear(x_db)), x_db, rel_tol=1e-12, abs_tol=1e-12)


@given(st.floats(min_value=1e-30, max_value=1e30), st.floats(min_value=1.0 + 1e-9, max_value=1e3))
def test_monotone(x, factor):
    assert linear_to_db(x * factor) > linear_to_db(x)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_linear_to_db_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        linear_to_db(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_db_to_linear_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        db_to_linear(bad)


@pytest.mark.parametrize("big", [4000.0, 3084.0, 1e300])
def test_db_to_linear_overflow_is_a_named_error(big):
    with pytest.raises(ValueError, match=re.escape(f"dB value {big!r} is outside the float range")):
        db_to_linear(big)


def test_finite_power_and_finite_pass_values_in_range():
    assert finite_power("p", 10.0, 2.0) == 100.0
    assert finite_power("p", 1e-300, 1.05) > 0.0  # a subnormal power is still in range
    assert finite("v", -1e308) == -1e308
    assert finite("v", 0.0) == 0.0


@pytest.mark.parametrize("base, exp", [(1e200, 2.0), (1e-200, 2.0), (2.0, 1e300)])
def test_finite_power_names_an_overflow_or_an_underflow_to_zero(base, exp):
    with pytest.raises(ValueError) as raised:
        finite_power("sweep: d3**alpha", base, exp)
    assert str(raised.value) == f"sweep: d3**alpha = {base!r}**{exp!r} is outside the float range"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_finite_names_a_non_finite_value(bad):
    with pytest.raises(ValueError) as raised:
        finite("energy per bit", bad)
    assert str(raised.value) == f"energy per bit = {bad!r} is outside the float range"
