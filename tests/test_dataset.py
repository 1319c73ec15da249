import gzip
import re

import numpy as np
import pytest

from fedrr.dataset import (
    DatasetError,
    load_libsvm_file,
    parse_libsvm,
    partition,
    synthetic_libsvm_like,
)

SAMPLE = """+1 1:0.5 3:1.25
-1 2:2 4:-0.75
+1 1:1
"""


def test_parse_basic():
    ds = parse_libsvm(SAMPLE)
    assert ds.count == 3
    assert ds.dim == 4
    assert list(ds.labels) == [1.0, -1.0, 1.0]
    dense = ds.to_dense()
    assert dense[0, 0] == 0.5 and dense[0, 2] == 1.25
    assert dense[1, 1] == 2.0 and dense[1, 3] == -0.75


def test_label_mapping_zero_and_two():
    ds = parse_libsvm("0 1:1\n2 1:1\n1 1:1\n")
    assert list(ds.labels) == [-1.0, -1.0, 1.0]


def test_bad_label_rejected_with_line_number():
    with pytest.raises(DatasetError, match="line 2"):
        parse_libsvm("+1 1:1\n3 1:1\n")


def test_nonincreasing_indices_rejected():
    with pytest.raises(DatasetError, match="strictly increasing"):
        parse_libsvm("+1 2:1 2:2\n")


def test_malformed_feature_rejected():
    with pytest.raises(DatasetError, match="malformed"):
        parse_libsvm("+1 1:abc\n")


def test_roundtrip_through_text():
    ds = parse_libsvm(SAMPLE)
    again = parse_libsvm(ds.to_libsvm_text())
    assert ds == again


def test_gzip_transparent(tmp_path):
    path = tmp_path / "data.txt.gz"
    path.write_bytes(gzip.compress(SAMPLE.encode()))
    assert load_libsvm_file(path) == parse_libsvm(SAMPLE)


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
    ds = synthetic_libsvm_like(count=103, dim=10, seed=5, nnz_per_row=4)
    part = partition(ds, 10, seed=1)
    assert part.shape == (10, 10) and part.dtype == np.int64
    flat = part.ravel().tolist()
    assert len(flat) == len(set(flat)) == 100  # 3 remainder rows dropped
    assert all(0 <= i < 103 for i in flat)


def test_partition_deterministic():
    ds = synthetic_libsvm_like(count=40, dim=6, seed=5, nnz_per_row=3)
    assert np.array_equal(partition(ds, 4, seed=9), partition(ds, 4, seed=9))
    assert not np.array_equal(partition(ds, 4, seed=9), partition(ds, 4, seed=10))


def test_partition_rejects_too_many_clients():
    ds = parse_libsvm(SAMPLE)
    with pytest.raises(DatasetError):
        partition(ds, 4, seed=0)


def test_synthetic_shape_and_determinism():
    ds = synthetic_libsvm_like(count=50, dim=12, seed=3, nnz_per_row=5)
    assert ds.count == 50 and ds.dim == 12
    assert set(np.unique(ds.labels)) <= {-1.0, 1.0}
    again = synthetic_libsvm_like(count=50, dim=12, seed=3, nnz_per_row=5)
    assert ds == again
