"""Reader/writer for the IDX container used by the MNIST-family datasets.

The format is big-endian throughout:

    [offset] [size]  [meaning]
    0000     4 bytes magic: 0x00 0x00 <dtype> <ndim>
    0004     4*ndim  dimension sizes, unsigned 32-bit
    ...      payload row-major

Supported dtypes: 0x08 unsigned byte (images and small labels; values are
rescaled to [0, 1] on read) and 0x0C signed 32-bit int (label vectors whose
values exceed 255, e.g. word indices; kept raw).
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_DTYPE_UBYTE = 0x08
_DTYPE_INT32 = 0x0C

_ITEMSIZE = {_DTYPE_UBYTE: 1, _DTYPE_INT32: 4}
_NPDTYPE = {_DTYPE_UBYTE: ">u1", _DTYPE_INT32: ">i4"}


class IdxParseError(ValueError):
    """Malformed IDX payload; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class IdxTensor:
    """Parsed IDX tensor: sizes plus a flat row-major float array.

    Unsigned-byte payloads are divided by 255 so values land in [0, 1];
    int32 payloads keep their raw values.  ``dtype_code`` remembers the
    on-disk type so writing is exact.
    """

    dims: tuple
    data: np.ndarray
    dtype_code: int = _DTYPE_UBYTE

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float).ravel()
        dims = tuple(int(x) for x in self.dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", d)
        if math.prod(dims) != d.size:
            raise ValueError(f"dims {dims} do not match {d.size} values")
        if self.dtype_code not in _ITEMSIZE:
            raise ValueError(f"unsupported dtype code {self.dtype_code:#x}")
        if self.dtype_code == _DTYPE_UBYTE and d.size and (d.min() < 0.0 or d.max() > 1.0):
            raise ValueError("ubyte tensors must hold values in [0, 1]")

    def reshaped(self) -> np.ndarray:
        return self.data.reshape(self.dims)


def parse_idx(payload: bytes) -> IdxTensor:
    """Decode one IDX blob; raises IdxParseError with the failing offset."""
    if len(payload) < 4:
        raise IdxParseError("truncated header: no room for the magic number", len(payload))
    magic = struct.unpack(">I", payload[:4])[0]
    if magic >> 16 != 0:
        raise IdxParseError(f"bad magic {magic:#010x}: first two bytes must be zero", 0)
    dtype_code = (magic >> 8) & 0xFF
    ndim = magic & 0xFF
    if dtype_code not in _ITEMSIZE:
        raise IdxParseError(f"bad magic {magic:#010x}: unsupported dtype", 0)
    if ndim == 0:
        raise IdxParseError(f"bad magic {magic:#010x}: zero dimensions", 0)
    header_end = 4 + 4 * ndim
    if len(payload) < header_end:
        raise IdxParseError("truncated header: missing dimension sizes", len(payload))
    dims = struct.unpack(f">{ndim}I", payload[4:header_end])
    count = math.prod(dims)
    expected = header_end + count * _ITEMSIZE[dtype_code]
    if len(payload) < expected:
        raise IdxParseError(
            f"truncated payload: expected {expected} bytes total", len(payload))
    if len(payload) > expected:
        raise IdxParseError("trailing bytes after the payload", expected)
    raw = np.frombuffer(payload, dtype=_NPDTYPE[dtype_code], count=count,
                        offset=header_end)
    if dtype_code == _DTYPE_UBYTE:
        data = np.divide(raw, 255.0)
    else:
        data = raw.astype(float)
    return IdxTensor(dims=dims, data=data, dtype_code=dtype_code)


def write_idx(tensor: IdxTensor) -> bytes:
    """Inverse of parse_idx: parse_idx(write_idx(t)) recovers t exactly."""
    magic = (tensor.dtype_code << 8) | len(tensor.dims)
    header = struct.pack(">I", magic) + struct.pack(f">{len(tensor.dims)}I", *tensor.dims)
    if tensor.dtype_code == _DTYPE_UBYTE:
        values = np.round(tensor.data * 255.0)
        if values.size and (values.min() < 0 or values.max() > 255):
            raise ValueError("ubyte tensor values fall outside [0, 1]")
        body = values.astype(">u1").tobytes()
    else:
        values = np.round(tensor.data)
        if not np.allclose(values, tensor.data, atol=1e-9):
            raise ValueError("int32 tensor holds non-integral values")
        body = values.astype(">i4").tobytes()
    return header + body


def read_idx_file(path) -> IdxTensor:
    """Read a raw or gzip-compressed IDX file."""
    p = Path(path)
    blob = p.read_bytes()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return parse_idx(blob)


def write_idx_file(path, tensor: IdxTensor) -> None:
    Path(path).write_bytes(write_idx(tensor))


def images_tensor(images: np.ndarray, rows: int = 28) -> IdxTensor:
    """Wrap a (B, rows*cols) float matrix in [0, 1] as a 3-D ubyte tensor."""
    imgs = np.asarray(images, dtype=float)
    if imgs.ndim != 2 or imgs.shape[1] % rows:
        raise ValueError(f"images must be (B, {rows}*cols)")
    cols = imgs.shape[1] // rows
    return IdxTensor(dims=(imgs.shape[0], rows, cols), data=imgs.ravel())


def labels_tensor(labels) -> IdxTensor:
    """Wrap an integer label vector; uses int32 storage so any index fits."""
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise ValueError("labels must be a vector")
    return IdxTensor(dims=(lab.size,), data=lab.astype(float),
                     dtype_code=_DTYPE_INT32)
