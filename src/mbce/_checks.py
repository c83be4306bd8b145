"""The rules for a number entering ``mbce``: counts, reals, finite arrays and points.

Each conversion returns the accepted value or raises ``ValueError`` naming the
argument, so a malformed input is one typed error wherever it enters.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = ["count", "count_fields", "real", "finite_array", "point"]


def count(value, name: str, low: int | None = None) -> int:
    """``value`` as the int that ``operator.index`` gives, at least ``low`` if given."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")
    return n


def count_fields(obj, *names: str, low: int | None = None) -> None:
    """Store each named field of the frozen dataclass ``obj`` as :func:`count` gives it."""
    for name in names:
        object.__setattr__(obj, name, count(getattr(obj, name), name, low))


def real(value, name: str, positive: bool = False):
    """``value``, unchanged, if ``math.isfinite`` accepts it (no str, ``None`` or
    complex) and, when ``positive``, it is > 0."""
    try:
        ok = math.isfinite(value) and (not positive or value > 0)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite{' and > 0' if positive else ''}, got {value!r}")
    return value


def finite_array(value, name: str, dtype=np.float64, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a ``dtype`` array of finite entries, of ``shape`` if given. Text
    (str or bytes, or entries of them) is not numeric, though numpy parses it; an
    ``ndarray`` of ``dtype`` passes uncopied. A non-finite error names the entry."""
    try:
        raw = np.asarray(value)
        if raw.dtype.kind in "SU" or (
                raw.dtype == object and any(isinstance(v, (str, bytes)) for v in raw.flat)):
            raise TypeError
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numeric") from None
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not (finite := np.isfinite(arr)).all():
        at = np.unravel_index(finite.argmin(), arr.shape)
        raise ValueError(f"{name}{list(map(int, at)) if at else ''}={arr[at]} is not finite")
    return arr


def point(value, name: str, n: int = 3) -> np.ndarray:
    """``value`` as a float64 array of ``n`` finite coordinates."""
    return finite_array(value, name, shape=(n,))
