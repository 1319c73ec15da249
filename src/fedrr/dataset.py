"""LIBSVM-format dataset loading and equisized federated partitioning.

A dataset is a pair ``(X, labels)``: a C-contiguous (count, dim) float64
matrix whose row i holds sample i's features, and its labels in {-1, +1}.
"""

from __future__ import annotations

import gzip
import math
import zlib
from array import array

import numpy as np

from .errors import DatasetError
from .rng import stream
from .shuffling import fisher_yates


_LABEL_MAP = {"+1": 1.0, "1": 1.0, "-1": -1.0, "0": -1.0, "2": -1.0, "1.0": 1.0, "-1.0": -1.0, "0.0": -1.0, "2.0": -1.0}


def _dense(count: int, dim: int) -> np.ndarray:
    """A zeroed (count, dim) float64 matrix, or a DatasetError if it cannot be allocated."""
    try:
        return np.zeros((count, dim))
    except (MemoryError, ValueError):  # numpy raises ValueError for a size past its index range
        raise DatasetError(f"{count} rows of {dim} features do not fit in memory as a dense matrix") from None


def _lines(text: str):
    """The lines of ``text``, split at "\\n" alone as ``io.StringIO`` splits them, without a copy of the text.

    ``str.splitlines`` would also split at "\\x1c", "\\u2028" and other
    separators, which a line's ``split`` treats as spaces between tokens.
    """
    start = 0
    while start < len(text):
        stop = text.find("\n", start)
        if stop < 0:
            stop = len(text)
        yield text[start:stop]
        start = stop + 1


def parse_libsvm(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse LIBSVM text into ``(X, labels)``; ``dim`` is the largest feature index.

    Labels {0,1,2} are mapped onto {-1,+1} ({0,2} -> -1); anything else is
    rejected, and so is a NaN or infinite feature value.
    """
    # every row's listed features, scattered into X once dim is known
    counts, cols, vals = array("q"), array("q"), array("d")
    labels: list[float] = []
    dim = 0
    for lineno, line in enumerate(_lines(text), start=1):
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
            if index < 1:  # LIBSVM indices are 1-based; a 0 usually means a 0-based export
                raise DatasetError(f"line {lineno}: feature index must be at least 1, got {tok!r}")
            if index <= prev:
                raise DatasetError(f"line {lineno}: feature indices must be strictly increasing")
            prev = index
            idx.append(index)
            val.append(value)
        dim = max(dim, prev)  # prev: the row's last 1-based index, 0 for an empty row
        if dim < 2**63:  # past int64, X cannot be allocated: _dense says so once every line is checked
            cols.extend(idx)
        counts.append(len(idx))
        vals.extend(val)
        labels.append(_LABEL_MAP[raw_label])
    X = _dense(len(labels), dim)
    flat = np.repeat(np.arange(len(labels)) * dim - 1, counts)  # each feature's row offset, less 1 for 1-based indices
    flat += np.frombuffer(cols, dtype=np.int64)
    X.ravel()[flat] = np.frombuffer(vals)
    return X, np.asarray(labels)


def load_libsvm_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a LIBSVM file of UTF-8 text, gunzipping it first if it starts with the gzip magic."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = (gzip.decompress(data) if data[:2] == b"\x1f\x8b" else data).decode("utf-8")
    except (EOFError, OSError, UnicodeDecodeError, zlib.error) as exc:
        raise DatasetError(f"{path} is neither UTF-8 text nor gzipped UTF-8 text: {exc}") from exc
    return parse_libsvm(text)


def libsvm_text(X: np.ndarray, labels: np.ndarray) -> str:
    """LIBSVM text of ``(X, labels)``: each row's label as ``%+d``, then its nonzero features as ``j:v``.

    ``j`` is 1-based and ``v`` has 17 significant digits, so parsing the text
    gives back every nonzero of X and the labels bit for bit.  The dataset
    hash reads this text.
    """
    # one row's Python floats at a time: they format exactly like the numpy
    # scalars (np.float64 subclasses float), without a scalar per feature; each
    # column's " j:%.17g" template is made once per call, and a row's templates,
    # joined, format all its values with one % (no assumption on the values)
    cols = [f" {j}:%.17g" for j in range(1, X.shape[1] + 1)]
    lines = []
    for x, y in zip(X, labels.tolist()):
        (idx,) = x.nonzero()
        lines.append(f"{int(y):+d}" + "".join([cols[j] for j in idx.tolist()]) % tuple(x[idx].tolist()) + "\n")
    return "".join(lines) or "\n"  # no rows: the newline that ends the text


def partition(count: int, M: int, seed: int) -> np.ndarray:
    """Shuffle the row indices of ``count`` rows with a seeded stream and split them among M clients.

    Returns the (M, N) int64 array whose row m lists client m's dataset
    rows.  N = floor(count / M); the ``count - M*N`` leftover rows are
    dropped so that every client holds exactly N samples.
    """
    if M < 1 or M > count:
        raise DatasetError(f"cannot split {count} rows into {M} clients")
    N = count // M
    order = fisher_yates(count, seed, "partition", count, M)
    return order[: M * N].reshape(M, N)


def synthetic_libsvm_like(
    count: int = 11055,
    dim: int = 68,
    seed: int = 2024,
    nnz_per_row: int = 30,
    feature_scale: float | None = None,
    signal: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(X, labels)`` shaped like a sparse LIBSVM benchmark file.

    Rows get ``nnz_per_row`` active binary features; labels are drawn from a
    weak logistic teacher with strength ``signal``.  ``feature_scale``
    rescales values so the maximal squared row norm can be pinned (used to
    target a specific smoothness constant in downstream problems).
    """
    if count < 1 or dim < 1:
        raise DatasetError(f"synthetic dataset needs count and dim of at least 1, got count={count}, dim={dim}")
    if nnz_per_row < 1:
        raise DatasetError(f"synthetic dataset needs nnz_per_row of at least 1, got {nnz_per_row}")
    if nnz_per_row > 2**63 - 6:  # its row sizes are drawn below nnz_per_row + 6, an int64 bound
        raise DatasetError(f"synthetic dataset needs nnz_per_row of at most 2**63 - 6, got {nnz_per_row}")
    if feature_scale is None:
        feature_scale = 1.0
    if not math.isfinite(signal) or not math.isfinite(feature_scale):
        raise DatasetError(f"synthetic signal and feature_scale must be finite, got {signal} and {feature_scale}")
    X = _dense(count, dim)  # before the first draw, which would be dim normals
    rng = stream(seed, "synthetic_dataset", count, dim, nnz_per_row)
    teacher = rng.normal(size=dim) * signal / np.sqrt(dim)
    labels = np.empty(count)
    for i in range(count):
        k = int(rng.integers(max(1, nnz_per_row - 5), nnz_per_row + 6))
        idx = np.sort(rng.choice(dim, size=min(k, dim), replace=False))
        X[i, idx] = feature_scale
        z = float(X[i, idx] @ teacher[idx])
        p = 1.0 / (1.0 + np.exp(-z))
        labels[i] = 1.0 if rng.random() < p else -1.0
    return X, labels
