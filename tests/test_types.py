import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnssins.frames import EulerAngles
from gnssins.types import Constellation, EpochMeasurements, StateLayout, check_numbers

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def finite(lo=-1e6, hi=1e6):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def with_one(values, bad):
    """``values`` (a list of finite numbers) with one entry replaced by ``bad``."""
    return st.tuples(values, st.integers(0, 2), bad).map(
        lambda v: [*v[0][: v[1]], v[2], *v[0][v[1] + 1 :]]
    )


TRIPLE = st.lists(finite(), min_size=3, max_size=3)
GOOD = {
    "t": finite(),
    "dt": finite(1e-6, 1e3),
    "accel_body_mean": TRIPLE.map(np.array),
    "attitude": TRIPLE.map(lambda v: EulerAngles(*v)),
    "fix_pos": st.one_of(st.none(), TRIPLE.map(np.array)),
    "fix_hdop": st.one_of(st.none(), finite(1e-6, 1e3)),
}
BAD_TRIPLE = st.one_of(
    with_one(TRIPLE, NONFINITE).map(np.array),
    st.lists(finite(), min_size=0, max_size=6).filter(lambda v: len(v) != 3).map(np.array),
)
BAD = {
    "t": NONFINITE,
    "dt": st.one_of(NONFINITE, finite(-1e3, 0.0)),
    "accel_body_mean": BAD_TRIPLE,
    "attitude": with_one(TRIPLE, NONFINITE).map(lambda v: EulerAngles(*v)),
    "fix_pos": BAD_TRIPLE,
    "fix_hdop": st.one_of(NONFINITE, finite(-1e3, 0.0)),
}


@settings(max_examples=200, deadline=None)
@given(fields=st.fixed_dictionaries(GOOD))
def test_finite_epoch_accepted(fields):
    meas = EpochMeasurements(**fields)
    assert meas.accel_body_mean.dtype == float
    assert meas.fix_available == (fields["fix_pos"] is not None)


@settings(max_examples=300, deadline=None)
@given(fields=st.fixed_dictionaries(GOOD), data=st.data())
def test_bad_field_rejected_naming_the_epoch(fields, data):
    name = data.draw(st.sampled_from(sorted(BAD)))
    fields[name] = data.draw(BAD[name])
    if name == "fix_hdop" and fields["fix_pos"] is None:
        # an HDOP weights a fix; without one it is not read
        fields["fix_pos"] = np.zeros(3)
    with pytest.raises(ValueError, match=re.escape(f"epoch at t={fields['t']}")):
        EpochMeasurements(**fields)


def test_layout_columns():
    # position and velocity, then one clock per constellation
    tc = StateLayout((Constellation.GPS, Constellation.BEIDOU))
    assert (StateLayout().dim, tc.dim) == (6, 8)
    assert [tc.clock_index(c) for c in tc.constellations] == [6, 7]
    assert tc.clock_slice() == slice(6, 8)


@pytest.mark.parametrize(
    "constellations, named",
    [
        ((Constellation.GPS, Constellation.GPS), "GPS"),
        ((Constellation.BEIDOU, Constellation.GPS, Constellation.BEIDOU), "BEIDOU"),
        (("GPS",), "'GPS'"),
        ((Constellation.GPS, None), "None"),
    ],
)
def test_layout_rejects_a_repeated_or_unknown_clock(constellations, named):
    # a repeated clock had a column clock_index never returned; a name that
    # is not a Constellation failed only at first use
    with pytest.raises(ValueError, match=re.escape(named)):
        StateLayout(constellations)


@dataclass
class Named:
    # annotations as strings, as a module with postponed annotations has them
    name: "str"
    count: "Optional[int]" = None
    scale: "Optional[float]" = None


@pytest.mark.parametrize(
    "record", [Named("x"), Named("", 3, 2.5), Named("1", np.int64(2), np.float64(0.5))]
)
def test_check_numbers_skips_text_and_none(record):
    check_numbers(record)


@pytest.mark.parametrize(
    "name, value", [("count", 2.5), ("count", "3"), ("count", True), ("scale", math.nan), ("scale", "1")]
)
def test_check_numbers_checks_an_optional_as_its_kind(name, value):
    with pytest.raises(ValueError, match=f"^{name} must hold only"):
        check_numbers(Named("x", **{name: value}))
