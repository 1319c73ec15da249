import gzip
import re

import numpy as np
import pytest

from fedrr.dataset import (
    DatasetError,
    libsvm_text,
    load_libsvm_file,
    parse_libsvm,
    partition,
    synthetic_libsvm_like,
)

SAMPLE = """+1 1:0.5 3:1.25
-1 2:2 4:-0.75
+1 1:1
"""


def same_dataset(a, b):
    return all(np.array_equal(u, v) and u.tobytes() == v.tobytes() for u, v in zip(a, b))


def test_parse_basic():
    X, labels = parse_libsvm(SAMPLE)
    assert len(labels) == 3
    assert X.shape[1] == 4
    assert list(labels) == [1.0, -1.0, 1.0]
    assert X[0, 0] == 0.5 and X[0, 2] == 1.25
    assert X[1, 1] == 2.0 and X[1, 3] == -0.75


def test_label_mapping_zero_and_two():
    _, labels = parse_libsvm("0 1:1\n2 1:1\n1 1:1\n")
    assert list(labels) == [-1.0, -1.0, 1.0]


def test_bad_label_rejected_with_line_number():
    with pytest.raises(DatasetError, match="line 2"):
        parse_libsvm("+1 1:1\n3 1:1\n")


def test_blank_lines_are_skipped_and_an_error_names_its_physical_line():
    text = "\n+1 1:0.5 3:1.25\n   \n\t\n-1 2:2 4:-0.75\n+1 1:1\n"
    assert same_dataset(parse_libsvm(text), parse_libsvm(SAMPLE))
    with pytest.raises(DatasetError, match=r"^line 6: unsupported label '3'$"):
        parse_libsvm(text.replace("+1 1:1", "3 1:1"))


@pytest.mark.parametrize(
    "text, error",
    [
        ("+1 1:0.5 3:1.25\r\n-1 2:2 4:-0.75\r\n+1 1:1\r\n", "line 3: unsupported label '3'"),  # CRLF
        ("+1 1:0.5 3:1.25\n-1 2:2 4:-0.75\n+1 1:1", "line 3: unsupported label '3'"),  # no final newline
        ("\n+1 1:0.5 3:1.25\n\n-1 2:2 4:-0.75\n \n+1 1:1\n\n", "line 6: unsupported label '3'"),  # blank lines
        # "\x1c" and "\u2028" end a line for str.splitlines, but only separate tokens here
        ("+1 1:0.5\x1c3:1.25\n-1 2:2 4:-0.75\x1c\n+1 1:1\n", "line 3: unsupported label '3'"),
        ("+1 1:0.5 3:1.25\u2028\n-1\u20282:2 4:-0.75\n+1 1:1\n", "line 3: unsupported label '3'"),
    ],
    ids=["crlf", "no-final-newline", "blank-lines", "file-separator", "line-separator"],
)
def test_lines_end_only_at_newlines(text, error):
    assert same_dataset(parse_libsvm(text), parse_libsvm(SAMPLE))
    with pytest.raises(DatasetError, match=f"^{re.escape(error)}$"):
        parse_libsvm(text.replace("+1 1:1", "3 1:1"))


def test_nonincreasing_indices_rejected():
    with pytest.raises(DatasetError, match="strictly increasing"):
        parse_libsvm("+1 2:1 2:2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("+1 0:1 2:1\n", "line 1: feature index must be at least 1, got '0:1'"),
        ("+1 1:1\n-1 -3:1\n", "line 2: feature index must be at least 1, got '-3:1'"),
        ("+1 2:1 0:1\n", "line 1: feature index must be at least 1, got '0:1'"),
        ("+1 2:1 1:1 0:1\n", "line 1: feature indices must be strictly increasing"),
    ],
    ids=["zero", "negative", "zero-after-increasing", "nonincreasing-before-zero"],
)
def test_index_below_one_rejected_in_token_order(text, message):
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        parse_libsvm(text)


def test_malformed_feature_rejected():
    with pytest.raises(DatasetError, match="malformed"):
        parse_libsvm("+1 1:abc\n")


def test_roundtrip_through_text():
    ds = parse_libsvm(SAMPLE)
    again = parse_libsvm(libsvm_text(*ds))
    assert same_dataset(ds, again)


def test_gzip_transparent(tmp_path):
    path = tmp_path / "data.txt.gz"
    path.write_bytes(gzip.compress(SAMPLE.encode()))
    assert same_dataset(load_libsvm_file(path), parse_libsvm(SAMPLE))


GZ = gzip.compress(SAMPLE.encode())


@pytest.mark.parametrize(
    "data",
    [b"+1 1:0.5 # caf\xe9\n", GZ[:20], GZ[:10] + b"\xff" * 30, GZ[:-8] + bytes(8), gzip.compress(b"+1 1:\xe9\n")],
    ids=["latin-1", "truncated-gzip", "corrupt-deflate", "bad-crc", "gzipped-latin-1"],
)
def test_unreadable_file_is_a_dataset_error_naming_the_path(tmp_path, data):
    path = tmp_path / "data"
    path.write_bytes(data)
    with pytest.raises(DatasetError, match=f"^{re.escape(str(path))} is neither UTF-8 text nor gzipped UTF-8 text: "):
        load_libsvm_file(path)


@pytest.mark.parametrize("sizes", [{"count": 0}, {"dim": 0}, {"count": -3, "dim": 4}])
def test_synthetic_sizes_must_be_positive(sizes):
    with pytest.raises(DatasetError, match="synthetic dataset needs count and dim of at least 1"):
        synthetic_libsvm_like(**sizes)


def test_partition_shapes_and_disjoint():
    _, labels = synthetic_libsvm_like(count=103, dim=10, seed=5, nnz_per_row=4)
    part = partition(len(labels), 10, seed=1)
    assert part.shape == (10, 10) and part.dtype == np.int64
    flat = part.ravel().tolist()
    assert len(flat) == len(set(flat)) == 100  # 3 remainder rows dropped
    assert all(0 <= i < 103 for i in flat)


def test_partition_deterministic():
    _, labels = synthetic_libsvm_like(count=40, dim=6, seed=5, nnz_per_row=3)
    count = len(labels)
    assert np.array_equal(partition(count, 4, seed=9), partition(count, 4, seed=9))
    assert not np.array_equal(partition(count, 4, seed=9), partition(count, 4, seed=10))


def test_partition_rejects_too_many_clients():
    _, labels = parse_libsvm(SAMPLE)
    with pytest.raises(DatasetError):
        partition(len(labels), 4, seed=0)


def test_synthetic_shape_and_determinism():
    ds = X, labels = synthetic_libsvm_like(count=50, dim=12, seed=3, nnz_per_row=5)
    assert len(labels) == 50 and X.shape[1] == 12
    assert set(np.unique(labels)) <= {-1.0, 1.0}
    again = synthetic_libsvm_like(count=50, dim=12, seed=3, nnz_per_row=5)
    assert same_dataset(ds, again)


def test_every_line_is_checked_before_the_matrix_is_allocated():
    with pytest.raises(DatasetError, match="line 2: malformed feature '3:x'"):
        parse_libsvm("+1 1:1 1000000000000:1\n-1 2:1 3:x\n")


def test_text_lists_only_nonzero_features():
    X, labels = parse_libsvm("+1 1:0 2:-0 3:1.5\n-1 2:0\n")
    assert libsvm_text(X, labels) == "+1 3:1.5\n-1\n"
