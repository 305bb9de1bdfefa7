import math
import re
import struct

import numpy as np
import pytest

from pcil.metrics import MetricsRow

FIELDS = ["step", "eval_return_mean", "eval_return_std", "learned_reward_spearman",
          "encoder_or_disc_loss", "critic_loss", "actor_loss", "al_gap"]

#: NaN, both infinities, both zeros, the smallest and the largest subnormal,
#: the smallest normal, the largest finite value and values with no short
#: decimal form
AWKWARD = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.225073858507201e-308,
           2.2250738585072014e-308, 1.7976931348623157e308, 0.1, -1.0 / 3.0, 285.16228108456534]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def test_header_is_the_field_order():
    assert MetricsRow.header() == ",".join(FIELDS)


def test_to_csv_pins_one_row():
    row = MetricsRow(1000, 285.2, 0.5, 0.875, 1.25, -0.0, math.nan, math.inf)
    assert row.to_csv() == "1000,285.2,0.5,0.875,1.25,-0.0,nan,inf"


@pytest.mark.parametrize("start", range(0, len(AWKWARD), 7))
def test_to_csv_fields_read_back_bit_for_bit(start):
    values = (AWKWARD * 2)[start:start + 7]
    row = MetricsRow(12, *values)
    step, *fields = row.to_csv().split(",")
    assert step == "12"
    assert fields == [repr(v) for v in values]
    assert [bits(float(field)) for field in fields] == [bits(v) for v in values]


def test_to_csv_writes_numbers_of_any_real_type_as_floats():
    row = MetricsRow(np.int64(3), np.float32(0.5), 1, np.float64(0.25), 0.0, 0.0, 0.0, 0.0)
    assert row.to_csv() == "3,0.5,1.0,0.25,0.0,0.0,0.0,0.0"


@pytest.mark.parametrize("step", [2.7, 3.0, True, False, "3", None])
def test_to_csv_rejects_a_step_that_is_no_integer(step):
    row = MetricsRow(step, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match=re.escape(f"step must be an integer, got {step!r}")):
        row.to_csv()
