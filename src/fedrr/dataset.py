"""LIBSVM-format dataset loading and equisized federated partitioning."""

from __future__ import annotations

import gzip
import io
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .rng import stream
from .shuffling import fisher_yates


class DatasetError(ValueError):
    """Malformed input file or invalid partitioning request."""


@dataclass
class SparseDataset:
    """Sparse binary-classification dataset with labels in {-1, +1}.

    Feature indices are stored 0-based; files use the 1-based LIBSVM
    convention.  ``rows[i]`` is a pair of aligned arrays (indices, values).
    """

    rows: list[tuple[np.ndarray, np.ndarray]]
    labels: np.ndarray
    dim: int

    @property
    def count(self) -> int:
        return len(self.rows)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.count, self.dim))
        for i, (idx, val) in enumerate(self.rows):
            out[i, idx] = val
        return out

    def to_libsvm_text(self) -> str:
        # Python ints and floats format exactly like the numpy scalars
        # (np.float64 subclasses float), without a numpy scalar per feature
        lines = []
        for (idx, val), y in zip(self.rows, self.labels.tolist()):
            feats = " ".join(f"{i + 1}:{v:.17g}" for i, v in zip(idx.tolist(), val.tolist()))
            lines.append(f"{int(y):+d} {feats}".rstrip())
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseDataset):
            return NotImplemented
        if self.dim != other.dim or self.count != other.count:
            return False
        if not np.array_equal(self.labels, other.labels):
            return False
        return all(
            np.array_equal(ia, ib) and np.array_equal(va, vb)
            for (ia, va), (ib, vb) in zip(self.rows, other.rows)
        )


_LABEL_MAP = {"+1": 1.0, "1": 1.0, "-1": -1.0, "0": -1.0, "2": -1.0, "1.0": 1.0, "-1.0": -1.0, "0.0": -1.0, "2.0": -1.0}


def parse_libsvm(text: str) -> SparseDataset:
    """Parse LIBSVM text into a :class:`SparseDataset`.

    Labels {0,1,2} are mapped onto {-1,+1} ({0,2} -> -1); anything else is
    rejected, and so is a NaN or infinite feature value.
    """
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    labels: list[float] = []
    dim = 0
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        raw_label = tokens[0]
        if raw_label not in _LABEL_MAP:
            raise DatasetError(f"line {lineno}: unsupported label {raw_label!r}")
        idx: list[int] = []
        val: list[float] = []
        prev = 0
        for tok in tokens[1:]:
            try:
                k, v = tok.split(":", 1)
                index = int(k)
                value = float(v)
            except ValueError as exc:
                raise DatasetError(f"line {lineno}: malformed feature {tok!r}") from exc
            if not math.isfinite(value):
                raise DatasetError(f"line {lineno}: non-finite feature value {tok!r}")
            if index <= prev:
                raise DatasetError(f"line {lineno}: feature indices must be strictly increasing")
            prev = index
            idx.append(index - 1)
            val.append(value)
        dim = max(dim, prev)  # prev: the row's last 1-based index, 0 for an empty row
        rows.append((np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64)))
        labels.append(_LABEL_MAP[raw_label])
    return SparseDataset(rows=rows, labels=np.asarray(labels), dim=dim)


def load_libsvm_file(path) -> SparseDataset:
    """Read a LIBSVM file of UTF-8 text, gunzipping it first if it starts with the gzip magic."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = (gzip.decompress(data) if data[:2] == b"\x1f\x8b" else data).decode("utf-8")
    except (EOFError, OSError, UnicodeDecodeError, zlib.error) as exc:
        raise DatasetError(f"{path} is neither UTF-8 text nor gzipped UTF-8 text: {exc}") from exc
    return parse_libsvm(text)


def partition(dataset: SparseDataset, M: int, seed: int) -> np.ndarray:
    """Shuffle row indices with a seeded stream and split them among M clients.

    Returns the (M, N) int64 array whose row m lists client m's dataset
    rows.  N = floor(count / M); the ``count - M*N`` leftover rows are
    dropped so that every client holds exactly N samples.
    """
    if M < 1 or M > dataset.count:
        raise DatasetError(f"cannot split {dataset.count} rows into {M} clients")
    N = dataset.count // M
    order = fisher_yates(dataset.count, stream(seed, "partition", dataset.count, M))
    return order[: M * N].reshape(M, N)


def synthetic_libsvm_like(
    count: int = 11055,
    dim: int = 68,
    seed: int = 2024,
    nnz_per_row: int = 30,
    feature_scale: float | None = None,
    signal: float = 1.0,
) -> SparseDataset:
    """Generate a sparse binary dataset shaped like a LIBSVM benchmark file.

    Rows get ``nnz_per_row`` active binary features; labels are drawn from a
    weak logistic teacher with strength ``signal``.  ``feature_scale``
    rescales values so the maximal squared row norm can be pinned (used to
    target a specific smoothness constant in downstream problems).
    """
    if count < 1 or dim < 1:
        raise DatasetError(f"synthetic dataset needs count and dim of at least 1, got count={count}, dim={dim}")
    if nnz_per_row < 1:
        raise DatasetError(f"synthetic dataset needs nnz_per_row of at least 1, got {nnz_per_row}")
    if feature_scale is None:
        feature_scale = 1.0
    if not math.isfinite(signal) or not math.isfinite(feature_scale):
        raise DatasetError(f"synthetic signal and feature_scale must be finite, got {signal} and {feature_scale}")
    rng = stream(seed, "synthetic_dataset", count, dim, nnz_per_row)
    teacher = rng.normal(size=dim) * signal / np.sqrt(dim)
    rows = []
    labels = np.empty(count)
    for i in range(count):
        k = int(rng.integers(max(1, nnz_per_row - 5), nnz_per_row + 6))
        idx = np.sort(rng.choice(dim, size=min(k, dim), replace=False)).astype(np.int64)
        val = np.full(idx.shape, feature_scale)
        z = float(val @ teacher[idx])
        p = 1.0 / (1.0 + np.exp(-z))
        labels[i] = 1.0 if rng.random() < p else -1.0
        rows.append((idx, val))
    return SparseDataset(rows=rows, labels=labels, dim=dim)
