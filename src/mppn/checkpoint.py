"""Binary checkpoint container.

Layout, all integers little-endian:

    magic "MPPN" | version u32 | config_len u64 | config utf-8 bytes |
    tensor_count u32 | per tensor:
        name_len u32 | name utf-8 | rank u32 | dims u64 * rank |
        payload float64-LE (product(dims) values)

Loading validates magic/version and every length before touching payload
bytes, so a truncated file fails cleanly with the offending byte offset.
A payload holding NaN or an infinity is rejected, naming the tensor.
"""
from __future__ import annotations

import struct
from pathlib import Path

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


class _Reader:
    def __init__(self, blob: bytes, label: str):
        self.blob = blob
        self.off = 0
        self.label = label

    def skip(self, n: int, what: str) -> int:
        """Step past the next n bytes; returns the offset they start at."""
        if self.off + n > len(self.blob):
            raise FormatError(
                f"{self.label}: truncated while reading {what} at byte {self.off} "
                f"(need {n}, have {len(self.blob) - self.off})")
        self.off += n
        return self.off - n

    def take(self, n: int, what: str) -> bytes:
        start = self.skip(n, what)
        return self.blob[start:self.off]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def load_checkpoint(path) -> tuple[str, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    r = _Reader(blob, str(path))
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    cfg_len = r.u64("config length")
    try:
        config_text = r.take(cfg_len, "config").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: config is not valid UTF-8 at byte {r.off}") from exc
    count = r.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u32("name length")
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: tensor name is not valid UTF-8 at byte {r.off}") from exc
        rank = r.u32("rank")
        if rank > _MAX_RANK:
            raise FormatError(f"{path}: implausible rank {rank} at byte {r.off - 4}")
        dims = tuple(r.u64(f"dim {i}") for i in range(rank))
        numel = 1
        for d in dims:
            numel *= d
        start = r.skip(numel * 8, f"payload of '{name}'")
        # a view of the file's bytes, then the one copy the tensor keeps
        arr = np.frombuffer(blob, dtype="<f8", count=numel, offset=start).astype(np.float64)
        arr = arr.reshape(dims)
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor '{name}' holds a non-finite value "
                              f"in its payload ending at byte {r.off}")
        tensors[name] = arr
    if r.off != len(blob):
        raise FormatError(f"{path}: {len(blob) - r.off} trailing bytes at byte {r.off}")
    return config_text, tensors
