"""The rules for what enters ``mbce``: counts, reals, finite arrays, points and files.

Each conversion returns the accepted value or raises ``ValueError`` naming the
argument, so a malformed input is one typed error wherever it enters.
"""

from __future__ import annotations

import io
import math
import operator
import pathlib
import tokenize
import zipfile

import numpy as np

__all__ = ["count", "count_fields", "real", "finite_array", "point", "write_arrays", "read_arrays"]


def count(value, name: str, low: int | None = None) -> int:
    """``value`` as the int that ``operator.index`` gives, at least ``low`` if given.
    A bool, Python's or numpy's, is a flag, not a count."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
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
    complex) and, when ``positive``, it is > 0. A bool, Python's or numpy's, is a
    flag, not a real, as :func:`count` has it."""
    try:
        ok = (not isinstance(value, (bool, np.bool_)) and math.isfinite(value)
              and (not positive or value > 0))
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


def write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` at exactly ``path`` as an ``.npz`` of stored ``<name>.npy``
    entries stamped 1980, so equal arrays give equal bytes. A name with a NUL or over
    65,531 utf-8 bytes, which no zip entry holds, raises ``ValueError`` and writes nothing."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, arr in arrays.items():
            if "\0" in name or len(name.encode("utf-8")) > 0xFFFF - 4:
                raise ValueError(f"name {name[:32]!r} holds a NUL or is too long for a file entry")
            with zf.open(f"{name}.npy", "w") as fh:
                np.lib.format.write_array(fh, arr, allow_pickle=False)
    pathlib.Path(path).write_bytes(buf.getvalue())


def read_arrays(path, what: str) -> dict[str, np.ndarray]:
    """The arrays of a file that :func:`write_arrays` wrote, by name. Any other
    content raises ``ValueError`` naming ``what``: a cut, bytes after the archive or
    an array, an object array, a corrupt, compressed, repeated or non-``.npy`` entry."""
    raw, arrays = pathlib.Path(path).read_bytes(), {}
    try:
        # zipfile ignores bytes after the end record, which holds no comment here
        if raw[-22:-18] != b"PK\x05\x06" or raw[-2:] != b"\0\0":
            raise ValueError("the file does not end with a zip end record")
        with zipfile.ZipFile(io.BytesIO(raw)) as zf:
            for info in zf.infolist():
                name = info.filename.removesuffix(".npy")
                stored = info.compress_type == zipfile.ZIP_STORED
                if not stored or name == info.filename or name in arrays:
                    raise ValueError(f"entry {info.filename!r} is not a new stored .npy entry")
                entry = io.BytesIO(zf.read(info))
                arrays[name] = np.lib.format.read_array(entry, allow_pickle=False)
                if entry.read(1):
                    raise ValueError(f"entry {info.filename!r} has bytes after its array")
    # zipfile's errors on a cut or unsupported entry; numpy's on a crafted header or shape
    except (zipfile.BadZipFile, EOFError, RuntimeError, ValueError, TypeError,
            tokenize.TokenError, MemoryError) as err:
        raise ValueError(f"malformed {what} file: {err}") from None
    return arrays
