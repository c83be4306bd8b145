"""Parameter checkpoints: an ``.npz``, which ``np.load`` reads, of one float32
entry ``<name>.npy`` per parameter, sorted by name."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .._checks import finite_array, read_arrays, write_arrays
from .engine import Tensor

__all__ = ["save_params", "load_params"]


def save_params(params: dict[str, Tensor], path) -> None:
    """Write ``params`` at exactly ``path``, as float32. A ``params`` that is not a
    mapping, a name that is not a ``str`` or that a file entry cannot hold (see
    :func:`mbce._checks.write_arrays`), a value that is not a :class:`Tensor`, and
    tensor data that is not finite (it may have changed since the tensor was made)
    or beyond the float32 range raise ``ValueError`` and write nothing."""
    if not isinstance(params, Mapping):
        raise ValueError(f"params maps str to Tensor, got a {type(params).__name__}")
    for name, value in params.items():
        if not isinstance(name, str) or not isinstance(value, Tensor):
            raise ValueError(f"params maps {name!r} to a {type(value).__name__}, not str to Tensor")
        finite_array(value.data, f"parameter {name!r}", value.dtype)
        if np.any(np.abs(value.data) > np.finfo(np.float32).max):
            raise ValueError(f"parameter {name!r} has values beyond the float32 range")
    write_arrays(path, {k: params[k].data.astype("<f4", copy=False) for k in sorted(params)})


def load_params(path) -> dict[str, Tensor]:
    """Read a checkpoint that :func:`save_params` wrote. A malformed file (see
    :func:`mbce._checks.read_arrays`), an entry that is not float32 and a
    non-finite value raise ``ValueError``."""
    params = {}
    for name, data in read_arrays(path, "checkpoint").items():
        if data.dtype != np.float32:
            raise ValueError(f"parameter {name!r} is stored as {data.dtype}, not float32")
        data = finite_array(data, f"parameter {name!r}", np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params
