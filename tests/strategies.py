"""Hypothesis strategies shared by the CSV writer tests."""

import math

import numpy as np
from hypothesis import strategies as st

from trimag.spectrum import CSV_BLOCK_ROWS

#: values every drawn table mixes in: the non-finite ones, signed zeros,
#: subnormals and the largest magnitudes float64 holds
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                  1e-310, 2.2250738585072014e-308, 1e-300, 1.7e308, -1.7e308]

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
