"""The float contract bytes, pinned as sha256 digests per numpy version and kernel set.

Every contract file (``runs.csv``, ``aggregate_*.csv``, ``best_multipliers.json``
and ``manifest.json``), ``solve-optimum``'s x* and ``verify-variance``'s text
come from float kernels that numpy and OpenBLAS pick by CPU: gemv and stacked
matmul, QR, ``exp`` and ``log1p``, and libm's ``pow``.  So the digests hold
only where those kernels give the bytes they gave when an entry was recorded.
``contract_digests.json`` keys each entry by numpy's version and by
``kernel_fingerprint``, the sha256 of a fixed probe of those kernels; where the
table has the running environment's key the test compares every digest, and
elsewhere it skips and names the key it lacks.

An entry that changes is a contract byte change, and is announced as one.
``python tests/test_contract_digests.py`` prints the running environment's
entry as JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedrr.cli import main
from fedrr.dataset import libsvm_text, synthetic_libsvm_like
from fedrr.harness import ExperimentConfig, run_experiment
from fedrr.optimizer import ALGORITHMS

TABLE = Path(__file__).with_name("contract_digests.json")

QUAD = dict(dataset={"quadratic": {"M": 4, "N": 3, "d": 2, "seed": 5}}, M=4, C=2, T=5, seeds=[0, 1])
PLAN = [[[0, 1], [2, 3]], [[3, 1], [0, 2]], [[2, 0], [1, 3]]]  # three epochs of the 4 clients in cohorts of 2
# out_dir and fixed_schedule_path are relative: the manifest records both
GRIDS = {
    "quad_reshuffled": ExperimentConfig(**QUAD, algorithms=list(ALGORITHMS), out_dir="quad_reshuffled"),
    "quad_shuffle_once": ExperimentConfig(
        **QUAD, algorithms=list(ALGORITHMS), client_mode="shuffle_once", data_mode="shuffle_once",
        out_dir="quad_shuffle_once",
    ),
    "quad_fixed": ExperimentConfig(
        **QUAD, algorithms=["rrcli"], client_mode="deterministic_fixed", fixed_schedule_path="plan.json",
        out_dir="quad_fixed",
    ),
    "logistic": ExperimentConfig(
        dataset={"synthetic": {"count": 240, "dim": 6, "nnz_per_row": 3, "seed": 11}}, M=4, C=2, T=3, alpha=1e-2,
        multipliers=[1.0, 2.0], seeds=[0, 1], out_dir="logistic",
    ),
}
VERIFY = {
    "verify_max_size_6": ["--max-size", "6"],
    "verify_max_size_10_inputs_5": ["--max-size", "10", "--inputs", "5"],
}


def kernel_fingerprint() -> str:
    """sha256 of a fixed probe of every kernel that contract bytes pass through.

    A 921 x 68 gemv and its back product, a stacked (12, 5, 5) @ (12, 5, 2) matmul and QR, ``np.exp`` and
    ``np.log1p`` on 276 values, and Python's ``(j / k) ** 2``, which calls libm's ``pow``.  The probe's inputs come
    from ``Generator.random``, whose doubles are raw Philox words scaled exactly, and IEEE arithmetic.
    """
    rng = np.random.default_rng(15)
    A, x, t = rng.random((921, 68)) - 0.5, rng.random(68) - 0.5, rng.random(921) - 0.5
    H, V, u = rng.random((12, 5, 5)), rng.random((12, 5, 2)), rng.random(276) * 20.0 - 10.0
    ratios = np.array([(j / k) ** 2 for k in range(1, 200) for j in range(k + 1)])
    h = hashlib.sha256()
    for part in (A @ x, A.T @ t, H @ V, *np.linalg.qr(H), np.exp(u), np.log1p(np.abs(u)), ratios):
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return h.hexdigest()


def contract_digests() -> dict:
    """sha256 of every contract file of ``GRIDS``, of ``solve-optimum --out`` and of ``VERIFY``'s text, by name.

    Runs in the working directory, which it fills with the grids' output directories and their inputs.
    """
    Path("plan.json").write_text(json.dumps(PLAN))
    digests = {}
    for name, cfg in GRIDS.items():
        out = run_experiment(cfg)["out_dir"]
        for path in sorted(out.iterdir()):
            if path.is_file() and path.name != "timings.csv":  # timings are wall-clock, not contract
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    Path("small.svm").write_text(libsvm_text(*synthetic_libsvm_like(count=60, dim=5, seed=3, nnz_per_row=3)))
    solve = ["solve-optimum", "--dataset", "small.svm", "--alpha", "0.01", "--clients", "3", "--out", "x_star.npy"]
    for name, argv in {"solve_optimum": solve, **{k: ["verify-variance", *v] for k, v in VERIFY.items()}}.items():
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(argv) == 0, name
        digests[name] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    digests["solve_optimum/x_star.npy"] = hashlib.sha256(Path("x_star.npy").read_bytes()).hexdigest()
    return digests


def environment_key() -> dict:
    return {"numpy": np.__version__, "kernels": kernel_fingerprint()}


def test_contract_files_hash_as_recorded(tmp_path, monkeypatch):
    key = environment_key()
    entries = [entry for entry in json.loads(TABLE.read_text())["entries"] if key.items() <= entry.items()]
    if not entries:
        pytest.skip(f"no contract digests recorded for numpy {key['numpy']} with kernels {key['kernels']}")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEDRR_WORKERS", raising=False)
    got, want = contract_digests(), entries[0]["digests"]
    moved = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
    assert not moved, f"contract bytes moved under numpy {key['numpy']} with kernels {key['kernels']}: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        names = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
        settings = [f"{name}={os.environ[name]}" for name in names if name in os.environ]
        recorded_with = " ".join([f"Python {platform.python_version()}", *settings])
        entry = {**environment_key(), "recorded_with": recorded_with, "digests": contract_digests()}
    json.dump(entry, sys.stdout, indent=2)
    print()
