"""Hand-made ``.npz`` files for the loader tests: archives whose entries, names
and ``.npy`` headers ``mbce``'s own writer would never produce."""

import io
import warnings
import zipfile

import numpy as np


def npy_bytes(arr) -> bytes:
    """``arr`` as a ``.npy`` file; an object array is pickled into it."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=True)
    return buf.getvalue()


def npy_with_header(header: str) -> bytes:
    """A version 1.0 ``.npy`` file whose header is the text ``header``, then 16
    zero bytes of data."""
    raw = header.encode("latin1")
    raw += b" " * (-(10 + len(raw) + 1) % 64) + b"\n"
    return b"\x93NUMPY\x01\x00" + len(raw).to_bytes(2, "little") + raw + b"\0" * 16


def npz_bytes(*entries, **central) -> bytes:
    """A zip of ``(entry name, array or raw bytes)`` pairs, in order, repeated
    names kept. ``central`` overrides ``ZipInfo`` fields in every entry's central
    directory record, which is what a reader goes by, e.g. ``flag_bits=1``
    (encrypted)."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zipfile warns of a duplicate name
        for name, value in entries:
            zf.writestr(name, value if isinstance(value, bytes) else npy_bytes(value))
        for zinfo in zf.infolist():
            for field, value in central.items():
                setattr(zinfo, field, value)
    return buf.getvalue()
