"""Minimal dense-tensor engine with reverse-mode differentiation.

A :class:`Tensor` keeps float32 or float64 data as given and stores any
other input as float32. ``mean`` and ``layer_norm``'s statistics accumulate
in float64; every other sum runs in the tensors' dtype, so for float32
tensors ``softmax``'s normaliser, the sums that take a broadcast gradient
back to its operand's shape and the GEMMs of ``matmul`` and the convolutions
accumulate in float32. A :class:`Tape` records executed ops in execution
order; :meth:`Tape.backward` replays it once in reverse. A thread has at most
one tape open, and entering a second raises ``RuntimeError``; tapes open in
different threads record independently and may run concurrently.
"""

from . import checkpoint, convops, engine
from .checkpoint import *  # noqa: F403
from .convops import *  # noqa: F403
from .engine import *  # noqa: F403

__all__ = engine.__all__ + convops.__all__ + checkpoint.__all__
