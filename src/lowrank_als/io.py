"""Binary matrix serialization.

Binary layout (little-endian): magic ``ALSM``, version u32, field tag u8
(0 = real, 1 = complex), rows u64, cols u64, then row-major float64 entries
(re/im interleaved for complex).
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .matrix import as_matrix

MAGIC = b"ALSM"
VERSION = 1

_HEADER = struct.Struct("<4sIBQQ")


def save_matrix(path, a) -> None:
    """Write a matrix in the ALSM binary format."""
    a = as_matrix(a)
    tag = 1 if np.iscomplexobj(a) else 0
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, tag, a.shape[0], a.shape[1]))
        dtype = "<c16" if tag else "<f8"
        np.ascontiguousarray(a).astype(dtype, copy=False).tofile(f)


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix.

    Raises ValueError for a bad header, a payload shorter or longer than the
    header's rows * cols entries, an empty shape or non-finite entries.
    """
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, tag, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if tag not in (0, 1):
            raise ValueError(f"{path}: bad field tag {tag}")
        dtype = np.dtype("<c16" if tag else "<f8")
        # Python ints: a header claiming 2^32 x 2^32 entries cannot overflow here.
        expected = rows * cols * dtype.itemsize
        remaining = os.fstat(f.fileno()).st_size - _HEADER.size
        if remaining < expected:
            raise ValueError(f"{path}: truncated payload")
        if remaining > expected:
            raise ValueError(f"{path}: trailing bytes after the payload")
        data = np.fromfile(f, dtype=dtype, count=rows * cols)
    return as_matrix(data.reshape(rows, cols), str(path))
