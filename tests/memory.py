"""Peak memory of one call, as ``tracemalloc`` sees it.

A Python line tracer whose trace function closes over each frame it traces, as
a coverage tool's may, allocates while the call runs, and ``tracemalloc``
would count those allocations against the call. :func:`traced_peak` suspends
this thread's tracer for the call, as ``test_finished_step_leaves_no_garbage_cycles``
does for its cycle count.
"""

import sys
import tracemalloc


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the call's result and the peak bytes that
    ``tracemalloc`` traced while it ran, with any line tracer suspended."""
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)
