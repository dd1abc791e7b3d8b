"""One grow-only scratch buffer per thread for the numerical kernels.

A kernel (the sliding folds, the row loop and its tables) takes its
temporaries at once, ``with scratch(spec, ...) as arrays``: views of this
thread's buffer, valid while the block runs. A block inside another one carves after the other's arrays, and a kernel
returns none of them: every array it returns is its own. The buffer
grows to exactly the largest request so far and is kept, so a kernel run
again on the same shapes allocates no temporaries, and the allocator
does not hand their pages back to the OS to fault them in again on the
next call.

While a block runs, numpy's ufunc buffer size is its smallest, 16
elements. An elementwise ufunc on strided or broadcast operands builds
an iterator that allocates a buffer of ``np.getbufsize()`` elements
(8,192 by default) per operand on every call, whether it buffers or not;
the kernels' operands share one float or complex dtype, so nothing is
buffered and only the allocation changes. Their ufuncs are elementwise
or accumulate in a fixed order (``cumsum``, ``reduceat``), and give the
same results at any buffer size.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_ALIGN = 64  # bytes between the starts of two carved arrays
_SMALLEST_BUFSIZE = 16
_local = threading.local()


class scratch:
    """``with scratch(spec, ...) as arrays``: arrays of the ``(shape, dtype)``
    specs, one after another in this thread's workspace, their contents
    undefined."""

    def __init__(self, *specs):
        self._specs = specs

    def __enter__(self):
        self._used = start = getattr(_local, "used", 0)
        buffer = getattr(_local, "buffer", None)
        spans = []
        for shape, dtype in self._specs:
            dtype = np.dtype(dtype)
            size = math.prod(shape) * dtype.itemsize
            spans.append((start, size, shape, dtype))
            start += -(-size // _ALIGN) * _ALIGN
        if buffer is None or len(buffer) < start:
            # an enclosing block keeps the old buffer alive through its arrays
            _local.buffer = None
            buffer = _local.buffer = np.empty(start, np.uint8)
        _local.used = start
        # an enclosing block has set it already
        self._bufsize = np.setbufsize(_SMALLEST_BUFSIZE) if not self._used else None
        return [buffer[at:at + size].view(dtype).reshape(shape)
                for at, size, shape, dtype in spans]

    def __exit__(self, *exc):
        # a generator's block can end after the block around it
        _local.used = min(_local.used, self._used)
        if self._bufsize is not None:
            np.setbufsize(self._bufsize)
