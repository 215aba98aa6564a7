"""Hypothesis strategies shared by the CSV writer tests."""

import math

import numpy as np
from hypothesis import strategies as st

from trimag.spectrum import CSV_BLOCK_ROWS

#: values every drawn table mixes in: the non-finite ones, signed zeros,
#: subnormals and the largest magnitudes float64 holds; exact ties at 12
#: and 13 digits; the neighbours of powers of ten; the bounds of %g's
#: fixed notation; and a value at the scale of fig2's zero imaginary parts
SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 1e-300, 1.7e308, -1.7e308,
    1000000000005.0, 10000000000005.0, -1000000000005.0,
    *(math.nextafter(float(f"1e{k}"), to)
      for k in (-5, -4, 0, 11, 12, 13, 23, 300) for to in (0.0, math.inf)),
    9.999999999995e-05, 1e-4, 999999999999.5, 1e12, -1.2345678901234e-79]

#: row counts around the writer's block boundaries
CSV_ROW_COUNTS = [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                  2 * CSV_BLOCK_ROWS + 1]


@st.composite
def float_tables(draw, columns: int) -> np.ndarray:
    """A float64 table of CSV_ROW_COUNTS rows whose values are drawn from
    SPECIAL_FLOATS plus up to 32 arbitrary floats, placed at random."""
    rows = draw(st.sampled_from(CSV_ROW_COUNTS))
    palette = SPECIAL_FLOATS + draw(st.lists(st.floats(), max_size=32))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    picks = np.random.default_rng(seed).integers(len(palette),
                                                 size=(rows, columns))
    return np.array(palette)[picks]
