"""IDX-format dataset loading (MNIST family), subsetting and batching."""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class IdxFormatError(ValueError):
    pass


_DTYPES = {
    0x08: np.dtype(np.uint8),
    0x09: np.dtype(np.int8),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def _read_bytes(path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def load_idx(path) -> np.ndarray:
    """Parse one IDX file (optionally gzipped) into a numpy array."""
    raw = _read_bytes(path)
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: only {len(raw)} bytes, no header")
    zero1, zero2, type_code, rank = struct.unpack(">BBBB", raw[:4])
    if zero1 != 0 or zero2 != 0:
        raise IdxFormatError(f"{path}: bad magic {raw[:4]!r}")
    if type_code not in _DTYPES:
        raise IdxFormatError(f"{path}: unknown type code 0x{type_code:02x}")
    header_len = 4 + 4 * rank
    if len(raw) < header_len:
        raise IdxFormatError(f"{path}: truncated dimension header")
    dims = struct.unpack(f">{rank}I", raw[4:header_len])
    dtype = _DTYPES[type_code]
    count = int(np.prod(dims)) if rank else 1
    expected = header_len + count * dtype.itemsize
    if len(raw) != expected:
        raise IdxFormatError(f"{path}: payload is {len(raw) - header_len} "
                             f"bytes, expected {expected - header_len}")
    data = np.frombuffer(raw, dtype=dtype, offset=header_len)
    return data.reshape(dims)


def write_idx(path, array: np.ndarray, compress: bool = False) -> None:
    """Serialize a uint8 array as IDX (the only type the datasets use)."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    header = struct.pack(">BBBB", 0, 0, 0x08, arr.ndim)
    header += struct.pack(f">{arr.ndim}I", *arr.shape)
    blob = header + arr.tobytes()
    if compress:
        blob = gzip.compress(blob)
    Path(path).write_bytes(blob)


@dataclass
class Dataset:
    """Images scaled to [0, 1] float64 with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int = 10

    def __post_init__(self):
        if self.images.ndim != 3:
            raise ValueError("images must be [n, height, width]")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("one label per image")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError("label outside [0, n_classes)")

    def __len__(self) -> int:
        return self.images.shape[0]


def load_dataset(images_path, labels_path, n_classes: int = 10) -> Dataset:
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise IdxFormatError(f"{images_path}: expected rank 3, got {images.ndim}")
    if labels.ndim != 1:
        raise IdxFormatError(f"{labels_path}: expected rank 1, got {labels.ndim}")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError("image/label counts disagree: "
                             f"{images.shape[0]} vs {labels.shape[0]}")
    return Dataset(images.astype(np.float64) / 255.0,
                   labels.astype(np.int64), n_classes)


def subset(ds: Dataset, n: int, rng: np.random.Generator) -> Dataset:
    """Random stratified subset of ``n`` examples: class proportions are kept
    (largest-remainder rounding).  ``n == len(ds)`` returns the dataset
    unchanged, in order."""
    total = len(ds)
    if n > total or n < 1:
        raise ValueError(f"cannot take {n} of {total} examples")
    if n == total:
        return ds
    counts = np.bincount(ds.labels, minlength=ds.n_classes)
    exact = n * counts / total
    quota = np.floor(exact).astype(np.int64)
    short = n - quota.sum()
    # hand the leftovers to the largest fractional remainders; ties break
    # toward the lower class id for determinism
    order = sorted(range(ds.n_classes), key=lambda c: (-(exact[c] - quota[c]), c))
    for c in order:
        if short == 0:
            break
        if quota[c] < counts[c]:
            quota[c] += 1
            short -= 1
    picks = []
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.labels == c)
        picks.append(rng.permutation(members)[:quota[c]])
    pick = rng.permutation(np.concatenate(picks))
    return Dataset(ds.images[pick], ds.labels[pick], ds.n_classes)


def batches(ds: Dataset, batch_size: int, rng: np.random.Generator | None = None,
            shuffle: bool = False):
    """Yield (images, labels) slices; the final short batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if shuffle:
        if rng is None:
            raise ValueError("shuffle requires an rng")
        order = rng.permutation(len(ds))
    else:
        order = np.arange(len(ds))
    for start in range(0, len(ds), batch_size):
        sel = order[start:start + batch_size]
        yield ds.images[sel], ds.labels[sel]
