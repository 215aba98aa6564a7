"""The numpy CSV kernel writes each value as CPython's % does."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimag.spectrum import CSV_KERNEL_MIN_ROWS, csv_text

from strategies import SPECIAL_FLOATS

FORMATS = ("%.12g", "%.12e")


@settings(max_examples=60, deadline=None)
@example(values=SPECIAL_FLOATS)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_kernel_writes_each_value_as_percent(values):
    # CSV_KERNEL_MIN_ROWS rows, so that the block goes through the kernel;
    # it stays quiet on NaN, inf and subnormals where the CLI raises
    column = np.resize(np.array(values), CSV_KERNEL_MIN_ROWS)
    table = np.column_stack([column, column])
    with np.errstate(all="raise"):
        lines = csv_text("g,e", FORMATS, table).splitlines()
    assert lines[0] == "g,e"
    assert [line.split(",") for line in lines[1:]] == [
        [fmt % v for fmt in FORMATS] for v in column.tolist()]
