"""Minimal dense-tensor engine with reverse-mode differentiation.

A :class:`Tensor` keeps float32 or float64 data as given and stores any
other input as float32; reductions accumulate in float64, and gradient checks
run entirely in float64. A :class:`Tape` records executed ops in execution
order; :meth:`Tape.backward` replays it once in reverse. Tapes are confined
to a single thread; independent tapes may run concurrently.
"""

from .engine import (
    NumericFault,
    Tape,
    Tensor,
    add,
    concat,
    grad_check,
    layer_norm,
    matmul,
    mean,
    mul,
    permute,
    relu,
    reshape,
    scale,
    softmax,
    sub,
    tensor_sum,
)
from .convops import adaptive_avg_pool, conv2d, conv_transpose2d, max_pool2d
from .checkpoint import CHECKPOINT_MAGIC, load_params, save_params

__all__ = [
    "NumericFault",
    "Tape",
    "Tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "relu",
    "matmul",
    "reshape",
    "permute",
    "concat",
    "tensor_sum",
    "mean",
    "softmax",
    "layer_norm",
    "grad_check",
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "adaptive_avg_pool",
    "save_params",
    "load_params",
    "CHECKPOINT_MAGIC",
]
