"""The per-column sliding max against the one-window one at the sizes the
benchmark's control functions slide: a window that is the same in every
column, and the empty columns (lo = hi = m) of an n >= 2 affine stencil,
read exactly what the one-window kernel reads."""

import numpy as np
import pytest

from wamalgam.amalgam import _sliding_max


@pytest.mark.parametrize("shape", [(256, 256), (80, 48), (160, 96)])
@pytest.mark.parametrize("axis", [0, 1])
def test_constant_columns_equal_one_window(rng, shape, axis):
    values = rng.standard_normal(shape)
    m, columns = shape[axis], shape[1 - axis]
    empty = np.arange(columns) % 3 == 1
    nothing = _sliding_max(values, axis, m, m)
    for lo, hi in [(-8, 8), (-16, 16), (0, 0), (-300, 300), (m, 2 * m)]:
        one = _sliding_max(values, axis, lo, hi)
        assert np.array_equal(
            _sliding_max(values, axis, np.full(columns, lo), np.full(columns, hi)), one)
        expected = np.where(np.expand_dims(empty, axis), nothing, one)
        assert np.array_equal(_sliding_max(values, axis, np.where(empty, m, lo),
                                           np.where(empty, m, hi)), expected)
