"""Binary checkpoint container.

Layout, all integers little-endian:

    magic "MPPN" | version u32 | config_len u64 | config utf-8 bytes |
    tensor_count u32 | per tensor:
        name_len u32 | name utf-8 | rank u32 | dims u64 * rank |
        payload float64-LE (product(dims) values)

Loading checks every length against the file's size before it allocates
or reads anything, so a truncated file fails cleanly with the offending
byte offset, and reads each payload straight into its own array.  A
source that cannot seek, such as a pipe, is read into memory first.  A
repeated tensor name, dims no array can take (even with a zero among
them) and a payload holding NaN or an infinity are rejected, naming the
tensor.
"""
from __future__ import annotations

import io
import math
import struct
import sys

import numpy as np

from .errors import FormatError

MAGIC = b"MPPN"
VERSION = 1
_MAX_RANK = 16


def save_checkpoint(path, config_text: str, tensors: list[tuple[str, np.ndarray]]) -> None:
    """Write the container, streaming each payload from its array: no
    copy of a payload or of the whole file is built in memory."""
    cfg = config_text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", VERSION, len(cfg)) + cfg
                 + struct.pack("<I", len(tensors)))
        for name, arr in tensors:
            # order="C" keeps a 0-d array 0-d, unlike ascontiguousarray
            arr = np.asarray(arr, dtype="<f8", order="C")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)) + nb
                     + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(arr.data)


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    """Return (config text, {name: float64 array}).  Each payload is read
    into its own array once its length is checked against the file's size;
    a source that cannot seek (a pipe) is read into memory first."""
    with open(path, "rb") as fh:
        src = fh if fh.seekable() else io.BytesIO(fh.read())
        size = src.seek(0, io.SEEK_END)
        src.seek(0)

        def take(n: int, what: str, into=bytearray):
            off, have = src.tell(), size - src.tell()
            if n <= have:  # allocate only what the file holds
                buf = into(n)
                have = src.readinto(buf)
                if have == n:
                    return buf
            raise FormatError(f"{path}: truncated while reading {what} at byte {off} "
                              f"(need {n}, have {have})")

        def uint(fmt: str, what: str) -> int:
            return struct.unpack(fmt, take(struct.calcsize(fmt), what))[0]

        def text(n: int, what: str, label: str) -> str:
            try:
                return take(n, what).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(
                    f"{path}: {label} is not valid UTF-8 at byte {src.tell()}") from exc

        magic = bytes(take(4, "magic"))
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
        version = uint("<I", "version")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version} at byte 4")
        config_text = text(uint("<Q", "config length"), "config", "config")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(uint("<I", "tensor count")):
            at = src.tell()
            name = text(uint("<I", "name length"), "name", "tensor name")
            if name in tensors:
                raise FormatError(f"{path}: tensor '{name}' repeated at byte {at}")
            rank = uint("<I", "rank")
            if rank > _MAX_RANK:
                raise FormatError(f"{path}: implausible rank {rank} at byte {src.tell() - 4}")
            at = src.tell()
            dims = tuple(uint("<Q", f"dim {i}") for i in range(rank))
            # an empty payload passes every length check; numpy still needs the dims
            if 8 * math.prod(d for d in dims if d) > sys.maxsize:
                raise FormatError(f"{path}: tensor '{name}' has implausible dims {dims} "
                                  f"at byte {at}")
            arr = take(8 * math.prod(dims), f"payload of '{name}'",
                       lambda _: np.empty(dims, dtype="<f8"))
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: tensor '{name}' holds a non-finite value "
                                  f"in its payload ending at byte {src.tell()}")
            tensors[name] = arr
        if src.tell() != size:
            raise FormatError(f"{path}: {size - src.tell()} trailing bytes at byte {src.tell()}")
    return config_text, tensors
