import gzip
import json

import numpy as np
import pytest

from fedrr.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_VERIFY, _geometries, main
from fedrr.dataset import libsvm_text, synthetic_libsvm_like

QUAD_CFG = {
    "dataset": {"quadratic": {"M": 4, "N": 3, "d": 3, "mu": 1.0, "L": 5.0, "client_spread": 1.0, "sample_spread": 0.5, "seed": 2}},
    "M": 4,
    "C": 2,
    "T": 3,
    "algorithms": ["rrcli"],
    "seeds": [0],
    "local_steps": None,
}
SMALL_LOGISTIC = {**QUAD_CFG, "dataset": {"synthetic": {"count": 40, "dim": 6, "seed": 4, "nnz_per_row": 3}}}
NASTYA_CFG = {**QUAD_CFG, "algorithms": ["nastya"]}


def quadratic_with(**kw):
    return {**QUAD_CFG, "dataset": {"quadratic": {**QUAD_CFG["dataset"]["quadratic"], **kw}}}



def test_run_command(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(QUAD_CFG))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "runs.csv").exists()
    assert "1 runs completed" in capsys.readouterr().out


def test_run_command_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(QUAD_CFG))
    code = main([
        "run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        "--seeds", "0,1", "--multipliers", "1,2",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "4 runs completed" in out
    assert "best multipliers" in out


def test_run_command_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"algorithms": ["adam"]}))
    code = main(["run", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("client_mode", "bogus"), ("local_steps", 0)])
def test_run_command_bad_value_is_one_line(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**QUAD_CFG, key: value}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert len(err.splitlines()) == 1


def test_run_command_all_multipliers_diverge_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**QUAD_CFG, "multipliers": [1e6, 1e7]}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert err == "divergence: all runs diverged for algorithm 'rrcli'\n"


def test_all_diverging_sweep_leaves_a_used_out_dir_as_it_was(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(QUAD_CFG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--multipliers", "1,2"]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--multipliers", "1e6,1e7"]) == EXIT_DIVERGED
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # with one multiplier there is nothing to select: the diverged runs are written and counted
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--multipliers", "1e6"]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["multipliers"] == [1e6]
    assert manifest["diverged_count"] == len(manifest["runs"]) == 1


def test_run_command_decay_flag_reaches_the_manifest(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(QUAD_CFG))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--decay"]) == EXIT_OK
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["decay"] is True


@pytest.mark.parametrize("compress", [False, True], ids=["text", "gzip"])
def test_run_command_reads_a_dataset_file(tmp_path, capsys, compress):
    path = tmp_path / ("data.txt.gz" if compress else "data.txt")
    text = libsvm_text(*synthetic_libsvm_like(count=40, dim=6, seed=4, nnz_per_row=3)).encode()
    path.write_bytes(gzip.compress(text) if compress else text)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_LOGISTIC, "dataset": {"path": str(path)}}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "file")]) == EXIT_OK
    cfg_path.write_text(json.dumps(SMALL_LOGISTIC))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "synthetic")]) == EXIT_OK
    # the same rows from a file or from the generator make the same contract files
    for name in ("runs.csv", "aggregate_rrcli.csv"):
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "synthetic" / name).read_bytes()
    hashes = [json.loads((tmp_path / out / "manifest.json").read_text())["dataset_hash"] for out in ("file", "synthetic")]
    assert hashes[0] == hashes[1]


def test_verify_variance_command(capsys):
    code = main(["verify-variance", "--max-size", "4", "--inputs", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "worst relative error" in out
    assert "FAIL" not in out


@pytest.mark.parametrize(
    "flag, value",
    [("--max-size", "0"), ("--inputs", "0"), ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf")],
)
def test_verify_variance_rejects_arguments_that_check_nothing(capsys, flag, value):
    code = main(["verify-variance", "--max-size", "2", "--inputs", "1", flag, value])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {flag}") and len(captured.err.splitlines()) == 1


def test_geometries_are_every_small_enough_one_in_scan_order():
    for max_size in range(1, 13):
        scan = [
            (M, N, C)
            for M in range(1, max_size + 1)
            for N in range(1, max_size + 1)
            if M * N <= max_size
            for C in range(1, M + 1)
            if M % C == 0
        ]
        assert list(_geometries(max_size)) == scan


def test_verify_variance_failures_exit_4(capsys):
    code = main(["verify-variance", "--max-size", "3", "--inputs", "1", "--tol", "1e-300"])
    assert code == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith(" FAIL") for line in lines)
    assert lines[-1].startswith("worst relative error")


def test_run_command_schedule_geometry_is_one_line(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps([[[0, 1], [2, 3]]]))
    quad = {**QUAD_CFG["dataset"]["quadratic"], "M": 6}
    cfg_path = tmp_path / "cfg.json"
    cfg = {
        **QUAD_CFG, "dataset": {"quadratic": quad}, "M": 6,
        "client_mode": "deterministic_fixed", "fixed_schedule_path": str(plan),
    }
    cfg_path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: fixed schedule") and len(err.splitlines()) == 1


def test_run_command_quadratic_client_count_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**QUAD_CFG, "M": 6}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: quadratic dataset M=4") and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_solve_optimum_command(tmp_path, capsys):
    path = tmp_path / "data.txt"
    path.write_text(libsvm_text(*synthetic_libsvm_like(count=40, dim=6, seed=4, nnz_per_row=3)))
    out_npy = tmp_path / "xstar.npy"
    code = main([
        "solve-optimum", "--dataset", str(path), "--alpha", "0.1",
        "--tol", "1e-10", "--out", str(out_npy),
    ])
    assert code == EXIT_OK
    assert "kappa" in capsys.readouterr().out
    x = np.load(out_npy)
    assert x.shape == (6,)
    # a path without the .npy suffix is written as it is, through a temporary file
    out_bare = tmp_path / "xstar"
    assert main(["solve-optimum", "--dataset", str(path), "--alpha", "0.1", "--tol", "1e-10", "--out", str(out_bare)]) == EXIT_OK
    assert f"solution written to {out_bare}" in capsys.readouterr().out
    with open(out_bare, "rb") as fh:
        assert np.lib.format.read_array(fh, allow_pickle=False).tobytes() == x.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.txt", "xstar", "xstar.npy"]


def test_solve_optimum_missing_file(capsys):
    code = main(["solve-optimum", "--dataset", "/nonexistent", "--alpha", "0.1"])
    assert code == EXIT_CONFIG



@pytest.mark.parametrize(
    "command, config, flags, env, message",
    [
        ("run", [1, 2], [], {}, ""),
        ("run", QUAD_CFG, ["--seeds", "1,,2"], {}, ""),
        ("run", QUAD_CFG, ["--multipliers", "abc"], {}, ""),
        ("run", QUAD_CFG, [], {"FEDRR_WORKERS": "two"}, ""),
        ("run", {**QUAD_CFG, "seeds": [0, 0]}, [], {}, ""),
        ("run", QUAD_CFG, ["--algo", "rrcli,rrcli"], {}, ""),
        ("run", {**QUAD_CFG, "algorithms": []}, [], {}, ""),
        ("run", {**QUAD_CFG, "multipliers": []}, [], {}, ""),
        ("run", {**SMALL_LOGISTIC, "alpha": -1}, [], {}, ""),
        ("run", {**SMALL_LOGISTIC, "alpha": float("nan")}, [], {}, ""),
        ("run", {**SMALL_LOGISTIC, "optimum_tol": -1}, [], {}, ""),
        ("run", {**QUAD_CFG, "dataset": {"quadratic": {**QUAD_CFG["dataset"]["quadratic"], "mu": 0}}}, [], {}, ""),
        ("solve-optimum", None, ["--alpha", "-1"], {}, ""),
        ("solve-optimum", None, ["--alpha", "nan"], {}, ""),
        ("solve-optimum", None, ["--alpha", "0.1", "--tol", "-1"], {}, ""),
        ("solve-optimum", None, ["--alpha", "0.1", "--tol", "nan"], {}, ""),
        ("run", {**QUAD_CFG, "T": 2.5}, [], {}, "T must be an integer, got 2.5"),
        ("run", {**QUAD_CFG, "M": 6.0}, [], {}, "M must be an integer, got 6.0"),
        ("run", {**QUAD_CFG, "master_seed": "a"}, [], {}, "master_seed must be an integer, got 'a'"),
        ("run", {**QUAD_CFG, "dataset": {"quadratic": 3}}, [], {}, "dataset.quadratic must be an object, got 3"),
        ("run", {**QUAD_CFG, "dataset": {"quadratic": {"N": "4"}}}, [], {}, "dataset.quadratic.N must be an integer"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"count": "x"}}}, [], {}, "dataset.synthetic.count must be an integer"),
        ("run", {**QUAD_CFG, "seeds": 5}, [], {}, "seeds must be a list, got 5"),
        ("run", {**QUAD_CFG, "algorithms": "rrcli"}, [], {}, "algorithms must be a list, got 'rrcli'"),
        ("run", {**QUAD_CFG, "C": "2"}, [], {}, "C must be an integer, got '2'"),
        ("run", {**QUAD_CFG, "seeds": [0.5]}, [], {}, "seeds[0] must be an integer, got 0.5"),
        ("run", {**QUAD_CFG, "seeds": ["x"]}, [], {}, "seeds[0] must be an integer, got 'x'"),
        ("run", {**QUAD_CFG, "multipliers": [True]}, [], {}, "multipliers[0] must be a number, got True"),
        ("run", {**QUAD_CFG, "dataset": {"path": 2}}, [], {}, "dataset.path must be a string, got 2"),
        ("run", {**QUAD_CFG, "dataset": {"path": 0}}, [], {}, "dataset.path must be a string, got 0"),
        ("run", {**QUAD_CFG, "multipliers": [float("nan"), 1.0]}, [], {}, "multipliers must be positive"),
        ("run", {**NASTYA_CFG, "nastya_gamma": -1.0}, [], {}, "nastya_gamma must be positive and finite, got -1.0"),
        ("run", {**NASTYA_CFG, "nastya_gamma": float("nan")}, [], {}, "nastya_gamma must be positive and finite, got nan"),
        ("run", quadratic_with(N=0), [], {}, "quadratic sizes must be at least 1, got M=4, N=0, d=3"),
        ("run", quadratic_with(d=0), [], {}, "quadratic sizes must be at least 1, got M=4, N=3, d=0"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"dim": 0}}}, [], {}, "synthetic dataset needs count and dim"),
        ("run", {**QUAD_CFG, "dataset": {**QUAD_CFG["dataset"], "path": "x.txt"}}, [], {}, "dataset must hold exactly"),
        ("run", {**QUAD_CFG, "dataset": {**QUAD_CFG["dataset"], "typo": 1}}, [], {}, "dataset must hold exactly"),
        ("run", {**QUAD_CFG, "fixed_schedule_path": "plan.json"}, [], {}, "client_mode 'reshuffling' takes no fixed"),
        ("run", {**QUAD_CFG, "dataset": {"path": "latin1.txt"}}, [], {}, "latin1.txt is neither UTF-8 text nor gzipped"),
        ("run", {**QUAD_CFG, "dataset": {"path": "truncated.gz"}}, [], {}, "truncated.gz is neither UTF-8 text nor gzipped"),
        ("run", {**QUAD_CFG, "dataset": {"path": "folder"}}, [], {}, "[Errno 21] Is a directory: 'folder'"),
        ("run", QUAD_CFG, ["--config", "folder"], {}, "[Errno 21] Is a directory: 'folder'"),
        ("run", QUAD_CFG, ["--config", "latin1.txt"], {}, "'utf-8' codec can't decode byte 0xe9"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "latin1.txt"], {}, "latin1.txt is neither UTF-8 text"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "truncated.gz"], {}, "truncated.gz is neither UTF-8 text"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "folder"], {}, "[Errno 21] Is a directory: 'folder'"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"nnz_per_row": -10}}}, [], {},
         "synthetic dataset needs nnz_per_row of at least 1, got -10"),
        ("run", quadratic_with(L=float("inf")), [], {}, "spectrum bounds must satisfy 0 < mu <= L < inf, got mu=1.0, L=inf"),
        ("run", quadratic_with(client_spread=float("nan")), [], {},
         "spreads must be finite, got client_spread=nan, sample_spread=0.5"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"feature_scale": float("nan")}}}, [], {},
         "synthetic signal and feature_scale must be finite, got 1.0 and nan"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"signal": float("inf")}}}, [], {},
         "synthetic signal and feature_scale must be finite, got inf and 1.0"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "nan.txt"], {}, "line 2: non-finite feature value '1:nan'"),
        ("run", {**QUAD_CFG, "dataset": {"path": "missing.txt"}, "M": 12, "C": 5}, [], {},
         "cohort size 5 does not divide client count 12"),
        ("run", {**SMALL_LOGISTIC, "alpha": float("inf")}, [], {}, "regularizer alpha must be positive and finite, got inf"),
        ("run", {**SMALL_LOGISTIC, "optimum_tol": float("inf")}, [], {}, "tolerance must be positive and finite, got inf"),
        ("solve-optimum", None, ["--alpha", "0.1", "--tol", "inf"], {}, "tolerance must be positive and finite, got inf"),
        ("run", {**QUAD_CFG, "multipliers": [float("inf")]}, [], {}, "multipliers must be positive and finite, got inf"),
        ("run", {**NASTYA_CFG, "nastya_gamma": float("inf")}, [], {}, "nastya_gamma must be positive and finite, got inf"),
        ("run", {**QUAD_CFG, "alpha": float("inf")}, [], {}, "regularizer alpha must be positive and finite, got inf"),
        ("run", {**QUAD_CFG, "alpha": -1}, [], {}, "regularizer alpha must be positive and finite, got -1"),
        ("run", {**QUAD_CFG, "optimum_tol": float("inf")}, [], {}, "tolerance must be positive and finite, got inf"),
        ("run", {**QUAD_CFG, "optimum_tol": 0}, [], {}, "tolerance must be positive and finite, got 0"),
        ("run", {**QUAD_CFG, "client_mode": "deterministic_fixed", "fixed_schedule_path": "fractional.json"}, [], {},
         "fixed schedule fractional.json is not epochs of cohorts of client ids: client id 0.5 is not an integer"),
        ("run", {**QUAD_CFG, "client_mode": "deterministic_fixed", "fixed_schedule_path": "bool.json"}, [], {},
         "fixed schedule bool.json is not epochs of cohorts of client ids: client id True is not an integer"),
        ("run", QUAD_CFG, [], {"FEDRR_WORKERS": "0"}, "FEDRR_WORKERS must be a positive integer, got '0'"),
        ("run", QUAD_CFG, [], {"FEDRR_WORKERS": "-3"}, "FEDRR_WORKERS must be a positive integer, got '-3'"),
        ("run", QUAD_CFG, ["--seeds", ""], {}, "--seeds takes a comma-separated list of ints, got ''"),
        ("run", QUAD_CFG, ["--multipliers", ""], {}, "--multipliers takes a comma-separated list of floats, got ''"),
        ("run", QUAD_CFG, ["--algo", ""], {}, "unknown algorithm ''"),
        ("run", QUAD_CFG, ["--out", ""], {}, "output directory must be a nonempty path"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "wide.txt"], {},
         "2 rows of 1000000000000 features do not fit in memory as a dense matrix"),
        ("run", {**QUAD_CFG, "dataset": {"path": "wide.txt"}, "M": 2}, [], {},
         "2 rows of 1000000000000 features do not fit in memory as a dense matrix"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"dim": 10**12}}}, [], {},
         "11055 rows of 1000000000000 features do not fit in memory as a dense matrix"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "past_int64.txt"], {},
         "2 rows of 100000000000000000000000000000 features do not fit in memory as a dense matrix"),
    ],
    ids=[
        "config-not-an-object", "empty-seed", "non-numeric-multiplier", "non-integer-workers", "repeated-seed",
        "repeated-algorithm", "no-algorithms", "no-multipliers", "negative-alpha", "nan-alpha",
        "negative-optimum-tol", "quadratic-mu-zero", "solve-negative-alpha", "solve-nan-alpha", "solve-negative-tol",
        "solve-nan-tol",
        "fractional-T", "fractional-M", "string-master-seed", "quadratic-not-an-object", "string-quadratic-N",
        "string-synthetic-count", "seeds-not-a-list", "algorithms-not-a-list", "string-C", "fractional-seed",
        "string-seed", "bool-multiplier", "integer-path-stderr", "integer-path-stdin",
        "nan-multiplier", "negative-nastya-gamma", "nan-nastya-gamma", "quadratic-N-zero", "quadratic-d-zero",
        "synthetic-dim-zero", "quadratic-and-path", "quadratic-and-unknown-key", "schedule-without-fixed-mode",
        "non-utf8-dataset", "truncated-gzip-dataset", "directory-dataset", "directory-config", "non-utf8-config",
        "solve-non-utf8-dataset", "solve-truncated-gzip-dataset", "solve-directory-dataset",
        "synthetic-negative-nnz", "quadratic-infinite-L", "quadratic-nan-client-spread", "synthetic-nan-feature-scale",
        "synthetic-infinite-signal", "solve-nan-feature", "cohort-not-dividing-before-missing-dataset",
        "infinite-alpha", "infinite-optimum-tol", "solve-infinite-tol", "infinite-multiplier", "infinite-nastya-gamma",
        "quadratic-infinite-alpha", "quadratic-negative-alpha", "quadratic-infinite-optimum-tol",
        "quadratic-zero-optimum-tol", "fractional-schedule-id", "bool-schedule-id", "zero-workers", "negative-workers",
        "empty-seeds", "empty-multipliers", "empty-algo", "empty-out",
        "solve-dataset-too-large", "dataset-too-large", "synthetic-too-large", "solve-index-past-int64",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, config, flags, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # unreadable inputs, named relative to tmp_path: a dataset that is not UTF-8, a truncated gzip, a directory,
    # a dataset with a NaN feature, datasets too wide to hold as a dense matrix
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.txt").write_bytes("+1 1:0.5\n-1 2:1 # caf\u00e9\n".encode("latin-1"))
    (tmp_path / "truncated.gz").write_bytes(gzip.compress(b"+1 1:0.5\n" * 50)[:20])
    (tmp_path / "folder").mkdir()
    (tmp_path / "nan.txt").write_text("+1 1:0.5\n-1 1:nan\n+1 2:1\n-1 1:1 2:1\n")
    (tmp_path / "wide.txt").write_text("+1 1:1 1000000000000:1\n-1 2:1\n")
    (tmp_path / "past_int64.txt").write_text("+1 1:1 100000000000000000000000000000:1\n-1 2:1\n")
    (tmp_path / "plan.json").write_text(json.dumps([[[0, 1], [2, 3]]]))
    (tmp_path / "fractional.json").write_text(json.dumps([[[0.5, 1], [2, 3]], [[True, "0"], [2, 3]]]))
    (tmp_path / "bool.json").write_text(json.dumps([[[True, 0], [2, 3]]]))
    if command == "run":
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    else:
        (tmp_path / "data.txt").write_text(libsvm_text(*synthetic_libsvm_like(count=40, dim=6, seed=4, nnz_per_row=3)))
        argv = ["solve-optimum", "--dataset", str(tmp_path / "data.txt")]
    code = main(argv + flags)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not (tmp_path / "runs.csv").exists()
