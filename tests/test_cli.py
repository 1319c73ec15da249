import contextlib
import gzip
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eager_reference import max_rel_error_loop, verify_variance_loop
from fedrr import cli
from fedrr.cli import CHECK_ROWS, EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_VERIFY, main
from fedrr.dataset import libsvm_text, synthetic_libsvm_like
from fedrr.problem import SolverError
from fedrr.rng import stream
from fedrr.variance_lab import VarianceInputs, _batch_layout, _prefix_gram, max_rel_errors

SRC = Path(__file__).resolve().parents[1] / "src"

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
# 12 x 10^12 x 5 eigenvalues alone take 437 TiB, so no allocation of it can succeed
QUADRATIC_TOO_LARGE = {"dataset": {"quadratic": {"N": 10**12, "d": 5}}, "M": 12, "C": 3, "T": 1, "algorithms": ["rrcli"], "seeds": [0]}


# JSON texts that json.dumps cannot write: an integer past Python's 4,300-digit limit, and 100,000-deep nesting
HUGE_INT_CFG = '{"T": ' + "9" * 5000 + "}"
DEEP_CFG = "[" * 100_000 + "]" * 100_000


def quadratic_with(**kw):
    return {**QUAD_CFG, "dataset": {"quadratic": {**QUAD_CFG["dataset"]["quadratic"], **kw}}}


# SMALL_LOGISTIC's dataset as a LIBSVM file's text
SMALL_LOGISTIC_TEXT = libsvm_text(*synthetic_libsvm_like(**SMALL_LOGISTIC["dataset"]["synthetic"]))
# in-range settings whose derived constants overflow: the gradients at the optimum and their squared norms, and L / mu
STAR_OVERFLOW_CFG = quadratic_with(d=2, L=1e300)
KAPPA_OVERFLOW_CFG = quadratic_with(d=2, mu=1e-300, L=1e10)


def config_text(config) -> str:
    """A config file's text: a string as it is, anything else as JSON."""
    return config if isinstance(config, str) else json.dumps(config)



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
    # one multiplier is held to the same rule: every run of rrcli diverged, so nothing is written
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--multipliers", "1e6"]) == EXIT_DIVERGED
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-variance", "--max-size", "x"], "fedrr verify-variance: argument --max-size: invalid int value: 'x'"),
        (["solve-optimum", "--dataset", "d.txt", "--alpha", "abc"], "fedrr solve-optimum: argument --alpha: invalid float value: 'abc'"),
        ([], "fedrr: the following arguments are required: command"),
        (["train"], "fedrr: argument command: invalid choice: 'train'"),
        (["run"], "fedrr run: the following arguments are required: --config"),
        (["run", "--config", "c.json", "--bogus"], "fedrr: unrecognized arguments: --bogus"),
        (["verify-variance", "--max-size", "2", "--bogus"], "fedrr: unrecognized arguments: --bogus"),
        (["solve-optimum", "--dataset", "d.txt", "--alpha", "1", "--bogus"], "fedrr: unrecognized arguments: --bogus"),
        (["verify-variance", "--max-size=x"], "fedrr verify-variance: argument --max-size: invalid int value: 'x'"),
        (["verify-variance", "--max", "x"], "fedrr verify-variance: argument --max-size: invalid int value: 'x'"),
    ],
    ids=[
        "bad-int", "bad-float", "no-command", "unknown-command", "missing-flag", "unknown-flag-run",
        "unknown-flag-verify", "unknown-flag-solve", "bad-int-equals", "bad-int-abbreviated",
    ],
)
def test_malformed_arguments_are_one_config_error_line(capsys, argv, message):
    # main returns the exit code itself rather than letting argparse raise SystemExit after its usage text
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}") and len(captured.err.splitlines()) == 1


def test_a_commands_own_parser_gives_the_full_parsers_namespace(monkeypatch):
    # a command line with a known command and no argument its parser leaves over is parsed by that parser alone,
    # into the namespace the full fedrr parser gives: abbreviations, = forms, negative numbers and repeated flags
    corpus = [
        ["run", "--config", "c.json"],
        ["run", "--config=c.json", "--out", "o", "--seeds", "0,1", "--algo", "rrcli", "--multipliers", "1,2", "--decay"],
        ["run", "--conf", "c.json", "--dec", "--out", "a", "--out=b", "--mult=0.5"],
        ["verify-variance"],
        ["verify-variance", "--max-size", "8", "--inputs", "1", "--seed", "3", "--tol", "1e-10"],
        ["verify-variance", "--max=3", "--inp", "2", "--seed", "-5", "--seed", "7", "--tol=0.5"],
        ["verify-variance", "--seed=-12", "--max-size", "4", "--max-size", "2"],
        ["solve-optimum", "--dataset", "d.txt", "--alpha", "5e-4"],
        ["solve-optimum", "--data=d.txt", "--alpha=-1", "--tol", "1e-8", "--cl", "3", "--seed", "-2", "--out", "x.npy"],
        ["solve-optimum", "--alpha", "2", "--dataset", "a", "--dataset", "b", "--clients=4", "--clients", "5"],
    ]
    full = [cli._PARSER.parse_args(argv) for argv in corpus]
    monkeypatch.setattr(cli._PARSER, "parse_args", lambda argv: pytest.fail(f"{argv} reached the full parser"))
    for argv, want in zip(corpus, full):
        assert cli._parse(argv) == want


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-variance", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fedrr verify-variance")


def _geometries(max_size):
    """verify-variance's scan order: M, then N with M*N <= max_size, then every C dividing M."""
    pairs = [(M, N) for M in range(1, max_size + 1) for N in range(1, max_size // M + 1)]
    return [(M, N, C) for M, N in pairs for C in range(1, M + 1) if M % C == 0]


def test_geometries_are_every_small_enough_one_in_scan_order(capsys):
    for max_size in range(1, 13):
        scan = [
            (M, N, C)
            for M in range(1, max_size + 1)
            for N in range(1, max_size + 1)
            if M * N <= max_size
            for C in range(1, M + 1)
            if M % C == 0
        ]
        assert _geometries(max_size) == scan
        assert main(["verify-variance", "--max-size", str(max_size), "--inputs", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[:-1]  # one line per geometry at one input
        assert [line.split(":")[0] for line in lines] == [f"M={M} N={N} C={C}" for M, N, C in scan]


def test_verify_variance_checks_every_input_of_every_geometry(capsys):
    # no geometry is skipped, those past the oracles' 10^7-outcome enumeration guard (M*N >= 11) included: every input
    # of every (M, N, C) gets an ok line, and the text is the per-input loop's
    assert main(["verify-variance", "--max-size", "16", "--inputs", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [f"M={M} N={N} C={C}" for M, N, C in _geometries(16) for _ in range(2)]
    assert all(line.endswith(" ok") for line in lines[:-1])
    assert lines[-1].startswith("worst relative error")
    assert verify_variance_loop(16, 2) == EXIT_OK
    assert capsys.readouterr().out == out


def test_one_draw_of_many_inputs_is_their_per_input_draws():
    # verify-variance draws a batch, or a block it checks in slices, with one standard_normal call in place of one
    # normal call per C and input, and the stream goes on as the per-input calls leave it
    for M, N, n_c, inputs in ((11, 1, 2, 3), (1, 11, 1, 1), (6, 2, 4, 5)):
        one, each = stream(5, "verify_variance"), stream(5, "verify_variance")
        draws = one.standard_normal(n_c * inputs * M * N * 2)
        assert draws.tobytes() == np.concatenate([each.normal(size=(M, N, 2)).ravel() for _ in range(n_c * inputs)]).tobytes()
        assert one.normal(size=(M, N, 2)).tobytes() == each.normal(size=(M, N, 2)).tobytes()


def test_an_input_past_the_row_budget_is_checked_alone():
    # one input of (1, 513) has 513 (input, k) rows, past CHECK_ROWS: it is a step of its own, drawn and checked
    # alone, and its error has the bytes of the per-k loop's
    steps = [step for step in itertools.islice(cli._verify_plan(520, 1), 600) if (1, 513) in [run[:2] for run in step[1]]]
    assert len(steps) == 1
    draws, runs, part = steps[0]
    assert (draws, runs, part) == (513 * 2, ((1, 513, 1, 1),), slice(0, 513 * 2))
    normals = stream(7, "row_budget").standard_normal(draws)
    heads, errors = max_rel_errors(runs, normals[part].reshape(-1, 2))
    assert heads == ("M=1 N=513 C=1: max rel error ",)
    assert np.array(errors).tobytes() == np.array([max_rel_error_loop(VarianceInputs(normals.reshape(1, 513, 2)))]).tobytes()


@pytest.mark.parametrize(
    "max_size, inputs, seed, tol",
    [(11, 3, 0, 1e-10), (10, 5, 0, 1e-10), (8, 20, 3, 1e-10), (4, 5, 0, 1e-300)],
    ids=["past-the-oracle-guard", "ci-check", "many-inputs", "failures"],
)
def test_verify_variance_prints_what_the_per_input_loop_prints(capsys, max_size, inputs, seed, tol):
    # the inputs of an (M, N) are drawn and summarised together, and nothing of the output moves
    argv = ["--max-size", str(max_size), "--inputs", str(inputs), "--seed", str(seed), "--tol", repr(tol)]
    code = main(["verify-variance", *argv])
    out = capsys.readouterr().out
    assert (code, out) == (verify_variance_loop(max_size, inputs, seed, tol), capsys.readouterr().out)


@pytest.mark.parametrize("inputs", [10**15, 10**19])
def test_verify_variance_rejects_inputs_past_memory_with_one_line(capsys, inputs):
    # numpy refuses 2e15 draws (MemoryError) and 2e19 (ValueError, past its index range) before allocating them
    code = main(["verify-variance", "--max-size", "11", "--inputs", str(inputs)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: --inputs {inputs} takes {2 * inputs} draws at M=1 N=1, more than fit in memory\n"


def test_verify_variance_many_inputs_stay_within_the_per_input_loops_peak():
    # the per-(M, N) code this replaced peaked at 2,119,013 bytes here (x86-64, Python 3.11, numpy 2.4.6), warm and
    # with the text discarded: its 1,200 VarianceInputs objects at M=8, N=1. The bound was fixed from that figure
    # before the batched checks were written; the text goes to devnull so that only the program's memory counts
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["verify-variance", "--max-size", "8", "--inputs", "1"]) == EXIT_OK  # warm the caches
        tracemalloc.start()
        try:
            code = main(["verify-variance", "--max-size", "8", "--inputs", "300"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 2_200_000


def test_verify_variance_replays_its_kept_plan_with_the_same_text(capsys, monkeypatch):
    # a finished plan of at most PLAN_STEPS steps is kept by (max-size, inputs), and a repeated call replays it
    # whatever its seed, with no step worked out again: the text is the per-input loop's all the same
    monkeypatch.setattr(cli, "_PLANS", {})
    argv = ["verify-variance", "--max-size", "10", "--inputs", "5"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert list(cli._PLANS) == [(10, 5)] and cli._PLANS[10, 5] == tuple(cli._verify_plan(10, 5))
    monkeypatch.setattr(cli, "_verify_plan", lambda *key: pytest.fail(f"the plan of {key} was worked out again"))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    assert main([*argv, "--seed", "7"]) == EXIT_OK
    replayed = capsys.readouterr().out
    assert verify_variance_loop(10, 5, 7) == EXIT_OK
    assert replayed == capsys.readouterr().out


def test_verify_variance_keeps_no_plan_past_its_bounds(monkeypatch):
    # --max-size 8 --inputs 2000 takes 560 steps, past PLAN_STEPS; a call that exits 2 keeps nothing; and the memo
    # keeps the eight latest plans
    monkeypatch.setattr(cli, "_PLANS", {})
    assert len(list(cli._verify_plan(8, 2000))) > cli.PLAN_STEPS
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["verify-variance", "--max-size", "8", "--inputs", "2000"]) == EXIT_OK
    assert main(["verify-variance", "--max-size", "11", "--inputs", str(10**15)]) == EXIT_CONFIG
    assert cli._PLANS == {}
    for max_size in range(1, 11):
        assert main(["verify-variance", "--max-size", str(max_size), "--inputs", "1"]) == EXIT_OK
    assert list(cli._PLANS) == [(max_size, 1) for max_size in range(3, 11)]
    assert all(len(plan) <= cli.PLAN_STEPS for plan in cli._PLANS.values())


@pytest.mark.parametrize("max_size, inputs", [(10, 5), (8, 300), (11, 3)])
def test_verify_variance_batches_keep_the_row_budget_and_check_every_input_once(monkeypatch, max_size, inputs):
    # every batch holds at most CHECK_ROWS (input, k) rows, or one input, whole blocks and split ones alike, and the
    # batches, read in order, hold every input of every geometry once, as the per-input loop draws them. Each batch's
    # block is one contiguous array that holds its runs' normals, input after input, and nothing else
    batches = []

    def recording(runs, block):
        batches.append((runs, block))
        return max_rel_errors(runs, block)

    monkeypatch.setattr(cli, "max_rel_errors", recording)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["verify-variance", "--max-size", str(max_size), "--inputs", str(inputs)]) == EXIT_OK
    checked = []
    for runs, block in batches:
        assert all(count for *_, count in runs)
        assert sum(N * M // C * count for M, N, C, count in runs) <= CHECK_ROWS or [run[3] for run in runs] == [1]
        assert block.flags.c_contiguous and block.shape[-1] == 2
        assert block.size == sum(M * N * 2 * count for M, N, _, count in runs)
        samples = iter(block.reshape(-1, 2))
        for M, N, C, count in runs:
            checked += [(M, N, C, np.array(list(itertools.islice(samples, M * N))).tobytes()) for _ in range(count)]
    rng = stream(0, "verify_variance")
    drawn = [(M, N, C, rng.normal(size=(M, N, 2)).tobytes()) for M, N, C in _geometries(max_size) for _ in range(inputs)]
    assert checked == drawn
    assert len(batches) > 1


def test_verify_variance_failures_exit_4(capsys):
    # every error up to M*N = 3 is exactly 0, which no --tol fails; M*N = 4 has nonzero ones
    code = main(["verify-variance", "--max-size", "4", "--inputs", "1", "--tol", "1e-300"])
    assert code == EXIT_VERIFY
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith(" FAIL") for line in lines)
    assert lines[-1].startswith("worst relative error")


def test_verify_variance_builds_no_gram(monkeypatch):
    # the exact side of every check comes from the class sums' two coefficients, and no guard is asked: a call that
    # works out its plan and its batch layouts afresh leaves the Gram cache empty
    monkeypatch.setattr(cli, "_PLANS", {})
    _batch_layout.cache_clear()
    _prefix_gram.cache_clear()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["verify-variance", "--max-size", "16", "--inputs", "2"]) == EXIT_OK
    assert _batch_layout.cache_info().misses > 0
    assert _prefix_gram.cache_info().currsize == 0


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
        ("solve-optimum", None, ["--alpha", "0.1", "--out", ""], {}, "--out must be a nonempty path"),
        ("solve-optimum", None, ["--alpha", "0.1", "--out", "nodir/x.npy"], {},
         "--out must be a nonempty path in an existing directory, got 'nodir/x.npy'"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "wide.txt"], {},
         "2 rows of 1000000000000 features do not fit in memory as a dense matrix"),
        ("run", {**QUAD_CFG, "dataset": {"path": "wide.txt"}, "M": 2}, [], {},
         "2 rows of 1000000000000 features do not fit in memory as a dense matrix"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"dim": 10**12}}}, [], {},
         "11055 rows of 1000000000000 features do not fit in memory as a dense matrix"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "past_int64.txt"], {},
         "2 rows of 100000000000000000000000000000 features do not fit in memory as a dense matrix"),
        ("run", QUADRATIC_TOO_LARGE, [], {}, "a quadratic of M=12, N=1000000000000, d=5 does not fit in memory"),
        ("run", {**QUADRATIC_TOO_LARGE, "dataset": {"quadratic": {"N": 10**19, "d": 5}}}, [], {},
         "a quadratic of M=12, N=10000000000000000000, d=5 does not fit in memory"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "zero_index.txt"], {},
         "line 1: feature index must be at least 1, got '0:1'"),
        ("run", HUGE_INT_CFG, [], {}, "Exceeds the limit (4300 digits) for integer string conversion"),
        ("run", DEEP_CFG, [], {}, "maximum recursion depth exceeded"),
        ("run", {**QUAD_CFG, "client_mode": "deterministic_fixed", "fixed_schedule_path": "deep.json"}, [], {},
         "fixed schedule deep.json is not epochs of cohorts of client ids: maximum recursion depth exceeded"),
        ("run", QUAD_CFG, ["--multipliers", "5e-324"], {}, "rrcli at multiplier 5e-324: all step sizes must be positive"),
        ("run", {**quadratic_with(mu=1e-320, L=10.0), "regime": "thm2"}, [], {},
         "rrcli at multiplier 1.0: all step sizes must be positive"),
        ("run", {**QUAD_CFG, "dataset": {"path": "bare.txt"}, "M": 2, "C": 1}, [], {},
         "a logistic problem needs at least one feature; the dataset lists none"),
        ("solve-optimum", None, ["--alpha", "0.1", "--dataset", "bare.txt"], {},
         "a logistic problem needs at least one feature; the dataset lists none"),
        ("run", {**QUAD_CFG, "dataset": {"synthetic": {"nnz_per_row": 9223372036854775803}}}, [], {},
         "synthetic dataset needs nnz_per_row of at most 2**63 - 6, got 9223372036854775803"),
        ("run", STAR_OVERFLOW_CFG, [], {}, "the problem's sigma_star2 is inf, which manifest.json cannot record"),
        ("run", KAPPA_OVERFLOW_CFG, [], {}, "the problem's kappa is inf, which manifest.json cannot record"),
        ("run", {**SMALL_LOGISTIC, "alpha": 1e-310}, [], {}, "the problem's kappa is inf, which manifest.json cannot record"),
        ("solve-optimum", None, ["--alpha", "1e-310"], {}, "the problem's kappa is inf, which the optimum solver cannot use"),
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
        "empty-seeds", "empty-multipliers", "empty-algo", "empty-out", "solve-empty-out",
        "solve-out-in-missing-directory",
        "solve-dataset-too-large", "dataset-too-large", "synthetic-too-large", "solve-index-past-int64",
        "quadratic-too-large", "quadratic-index-past-int64", "solve-zero-index", "huge-int-config", "deep-config",
        "deep-schedule", "underflowing-multiplier", "quadratic-kappa-overflow", "featureless-dataset",
        "solve-featureless-dataset", "synthetic-nnz-past-int64", "quadratic-star-variance-overflow",
        "quadratic-kappa-past-float", "logistic-kappa-past-float", "solve-kappa-past-float",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command, config, flags, env, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # unreadable inputs, named relative to tmp_path: a dataset that is not UTF-8, a truncated gzip, a directory,
    # a dataset with a NaN feature, datasets too wide to hold as a dense matrix, one that lists no feature
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.txt").write_bytes("+1 1:0.5\n-1 2:1 # caf\u00e9\n".encode("latin-1"))
    (tmp_path / "truncated.gz").write_bytes(gzip.compress(b"+1 1:0.5\n" * 50)[:20])
    (tmp_path / "folder").mkdir()
    (tmp_path / "nan.txt").write_text("+1 1:0.5\n-1 1:nan\n+1 2:1\n-1 1:1 2:1\n")
    (tmp_path / "wide.txt").write_text("+1 1:1 1000000000000:1\n-1 2:1\n")
    (tmp_path / "past_int64.txt").write_text("+1 1:1 100000000000000000000000000000:1\n-1 2:1\n")
    (tmp_path / "zero_index.txt").write_text("+1 0:1 2:1\n")
    (tmp_path / "bare.txt").write_text("+1\n-1\n+1\n-1\n")
    (tmp_path / "plan.json").write_text(json.dumps([[[0, 1], [2, 3]]]))
    (tmp_path / "fractional.json").write_text(json.dumps([[[0.5, 1], [2, 3]], [[True, "0"], [2, 3]]]))
    (tmp_path / "bool.json").write_text(json.dumps([[[True, 0], [2, 3]]]))
    (tmp_path / "deep.json").write_text(DEEP_CFG)
    if command == "run":
        (tmp_path / "cfg.json").write_text(config_text(config))
        argv = ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]
    else:
        (tmp_path / "data.txt").write_text(libsvm_text(*synthetic_libsvm_like(count=40, dim=6, seed=4, nnz_per_row=3)))
        argv = ["solve-optimum", "--dataset", str(tmp_path / "data.txt")]
    before = sorted(tmp_path.rglob("*"))
    code = main(argv + flags)
    out, err = capsys.readouterr()
    assert code == EXIT_CONFIG
    assert err.startswith(f"config error: {message}") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("config", [QUAD_CFG, SMALL_LOGISTIC], ids=["quadratic", "logistic"])
def test_out_naming_a_regular_file_is_one_config_error_line(tmp_path, capsys, config):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.write_text("not a directory")
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: [Errno ") and len(err.splitlines()) == 1
    assert out.read_text() == "not a directory"


@pytest.mark.parametrize("command", ["solve-optimum", "run"])
def test_solver_failure_exits_4_with_one_line(tmp_path, capsys, monkeypatch, command):
    def fail(problem, tol):
        raise SolverError("optimum solver hit the 3-iteration cap at grad norm 1.000e-01", grad_norm=0.1)

    monkeypatch.setattr("fedrr.cli.solve_optimum", fail)
    monkeypatch.setattr("fedrr.harness.solve_optimum", fail)
    data = tmp_path / "data.txt"
    data.write_text(libsvm_text(*synthetic_libsvm_like(count=40, dim=6, seed=4, nnz_per_row=3)))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_LOGISTIC, "dataset": {"path": str(data)}}))
    if command == "run":
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    else:
        argv = ["solve-optimum", "--dataset", str(data), "--alpha", "0.1", "--out", str(tmp_path / "xstar.npy")]
    assert main(argv) == EXIT_VERIFY
    assert capsys.readouterr().err == "solver failed: optimum solver hit the 3-iteration cap at grad norm 1.000e-01\n"
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["cfg.json", "data.txt"]
    assert not (tmp_path / "out").exists()


def process_env(**env) -> dict:
    """The environment of a new interpreter with ``src/`` on its path and one worker; a value of None unsets a variable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    environ = {**os.environ, "PYTHONPATH": path, "FEDRR_WORKERS": "1", **env}
    return {k: v for k, v in environ.items() if v is not None}


def python_process(args, cwd, **env):
    """``python *args`` in a new interpreter with ``process_env(**env)``; a hang fails after 120 s."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=process_env(**env), capture_output=True, text=True, timeout=120)


def fedrr_process(args, cwd, **env):
    """``python -m fedrr.cli *args`` in a new interpreter, as ``python_process``."""
    return python_process(["-m", "fedrr.cli", *args], cwd, **env)


def test_a_one_worker_process_never_loads_multiprocessing(tmp_path):
    # the process pool, and multiprocessing with it, is imported only when FEDRR_WORKERS > 1
    (tmp_path / "cfg.json").write_text(json.dumps(QUAD_CFG))
    script = (
        "import sys, fedrr.cli\n"
        "loaded = ['multiprocessing' in sys.modules]\n"
        "code = fedrr.cli.main(['run', '--config', 'cfg.json', '--out', 'out'])\n"
        "print(code, loaded + ['multiprocessing' in sys.modules])\n"
    )
    done = python_process(["-c", script], tmp_path)
    assert done.stderr == ""
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} [False, False]"


def test_verify_variance_streams_its_first_lines_in_a_process(tmp_path):
    # a --max-size of 10^8 has about 1.9e9 (M, N) to scan: its steps are worked out one at a time, so its first 200
    # lines (M = 1, N = 1..200) print within seconds, and a plan built in full first would print none
    argv = [sys.executable, "-m", "fedrr.cli", "verify-variance", "--max-size", "100000000", "--inputs", "1"]
    proc = subprocess.Popen(argv, cwd=tmp_path, env=process_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(itertools.islice(proc.stdout, 200)), daemon=True)
    try:
        reader.start()
        reader.join(timeout=5)
    finally:
        proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    assert len(lines) == 200
    assert [line.split(":")[0] for line in lines] == [f"M=1 N={N} C=1" for N in range(1, 201)]
    assert all(line.endswith(" ok\n") for line in lines)


def test_verify_variance_exits_quietly_when_its_reader_closes_the_pipe(tmp_path):
    # a reader that takes one line and closes the pipe, as `| head -n 1` does: the next flush meets the closed pipe, and
    # the command ends at once with exit 141 and nothing on stderr, never a config error
    argv = [sys.executable, "-m", "fedrr.cli", "verify-variance", "--max-size", "100000000", "--inputs", "1"]
    proc = subprocess.Popen(argv, cwd=tmp_path, env=process_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert first == "M=1 N=1 C=1: max rel error 0.000e+00 ok\n"
    assert (proc.returncode, err) == (141, "")


@pytest.mark.parametrize(
    "args, config, env, message",
    [
        (["run", "--config", "cfg.json", "--out", "out"], [1, 2], {}, "cfg.json must hold a JSON object, not a list"),
        (["run", "--config", "cfg.json", "--out", "out"], QUAD_CFG, {"FEDRR_WORKERS": "0"},
         "FEDRR_WORKERS must be a positive integer, got '0'"),
        (["run", "--config", "cfg.json", "--out", "out"], {**QUAD_CFG, "dataset": {"synthetic": {"dim": 10**12}}}, {},
         "11055 rows of 1000000000000 features do not fit in memory as a dense matrix"),
        (["run", "--config", "cfg.json", "--out", ""], QUAD_CFG, {}, "output directory must be a nonempty path"),
        (["verify-variance", "--max-size", "x"], QUAD_CFG, {},
         "fedrr verify-variance: argument --max-size: invalid int value: 'x'"),
        (["run", "--config", "cfg.json", "--out", "out"], QUADRATIC_TOO_LARGE, {},
         "a quadratic of M=12, N=1000000000000, d=5 does not fit in memory"),
        (["verify-variance", "--max-size", "2", "--inputs", str(10**15)], QUAD_CFG, {},
         "--inputs 1000000000000000 takes 2000000000000000 draws at M=1 N=1, more than fit in memory"),
        (["run", "--config", "cfg.json", "--out", "out"], DEEP_CFG, {}, "maximum recursion depth exceeded"),
        (["run", "--config", "cfg.json", "--out", "out"], HUGE_INT_CFG, {},
         "Exceeds the limit (4300 digits) for integer string conversion"),
        (["run", "--config", "cfg.json", "--out", "out"], STAR_OVERFLOW_CFG, {},
         "the problem's sigma_star2 is inf, which manifest.json cannot record"),
        (["run", "--config", "cfg.json", "--out", "out"], KAPPA_OVERFLOW_CFG, {},
         "the problem's kappa is inf, which manifest.json cannot record"),
        (["run", "--config", "cfg.json", "--out", "out"], {**SMALL_LOGISTIC, "alpha": 1e-310}, {},
         "the problem's kappa is inf, which manifest.json cannot record"),
        # the dataset goes where the config would, as the only file the test leaves
        (["solve-optimum", "--dataset", "cfg.json", "--alpha", "1e-310", "--out", "x.npy"], SMALL_LOGISTIC_TEXT, {},
         "the problem's kappa is inf, which the optimum solver cannot use"),
    ],
    ids=[
        "config-not-an-object", "zero-workers", "synthetic-too-large", "empty-out", "bad-int", "quadratic-too-large",
        "verify-inputs-too-large", "deep-config", "huge-int-config", "quadratic-star-variance-overflow",
        "quadratic-kappa-past-float", "logistic-kappa-past-float", "solve-kappa-past-float",
    ],
)
def test_bad_input_in_a_process_exits_2_with_one_line(tmp_path, args, config, env, message):
    (tmp_path / "cfg.json").write_text(config_text(config))
    done = fedrr_process(args, tmp_path, **env)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr.startswith(f"config error: {message}") and len(done.stderr.splitlines()) == 1
    # nothing is written, a runs.csv in the working directory and an empty --out directory included
    assert [p.name for p in tmp_path.rglob("*")] == ["cfg.json"]


def test_empty_fixed_schedule_in_a_process_exits_2_with_one_line(tmp_path):
    # a schedule file that lists no epoch is named as such, not as a missing schedule
    (tmp_path / "plan.json").write_text("[]")
    (tmp_path / "cfg.json").write_text(json.dumps({**QUAD_CFG, "client_mode": "deterministic_fixed", "fixed_schedule_path": "plan.json"}))
    done = fedrr_process(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr == "config error: fixed schedule plan.json does not fit M=4, C=2: the fixed schedule lists no epoch\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "plan.json"]


def test_all_diverging_sweep_in_a_process_exits_3_and_leaves_the_out_dir_as_it_was(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps(QUAD_CFG))
    run = ["run", "--config", "cfg.json", "--out", "out"]
    assert fedrr_process(run, tmp_path).returncode == EXIT_OK
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    done = fedrr_process(run + ["--multipliers", "1e6,1e7"], tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_DIVERGED, "", "divergence: all runs diverged for algorithm 'rrcli'\n")
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


@pytest.mark.parametrize("workers", [None, "2"], ids=["workers-unset", "two-workers"])
@pytest.mark.parametrize("multipliers", ["1e308", "1e308,1e307"], ids=["one-multiplier", "sweep"])
def test_diverging_grid_in_a_process_exits_3_with_one_line_and_writes_nothing(tmp_path, multipliers, workers):
    # every run of every algorithm diverges; their floating-point warnings, in pool workers too, stay off stderr
    (tmp_path / "cfg.json").write_text(json.dumps(QUAD_CFG))
    run = ["run", "--config", "cfg.json", "--out", "out", "--algo", "fedavg,nastya,rrcli", "--multipliers", multipliers]
    done = fedrr_process(run, tmp_path, FEDRR_WORKERS=workers)
    assert (done.returncode, done.stdout) == (EXIT_DIVERGED, "")
    assert done.stderr == "divergence: all runs diverged for algorithms 'fedavg', 'nastya', 'rrcli'\n"
    assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == []


def test_cold_and_warm_runs_in_interpreters_with_different_hash_seeds_write_the_same_bytes(tmp_path):
    cfg = {
        "dataset": {"synthetic": {"count": 60, "dim": 8, "seed": 1, "nnz_per_row": 4}},
        "M": 4, "C": 2, "T": 2, "algorithms": ["rrcli"], "seeds": [0], "local_steps": 3,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    written = []
    for hash_seed in ("1", "2"):  # the first run solves x* and caches it, the second reads the cache
        done = fedrr_process(["run", "--config", "cfg.json", "--out", "out"], tmp_path, PYTHONHASHSEED=hash_seed)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        written.append({p.name: p.read_bytes() for p in out.iterdir() if p.is_file() and p.name != "timings.csv"})
    assert sorted(written[0]) == ["aggregate_rrcli.csv", "manifest.json", "runs.csv"]
    assert written[0] == written[1]
    assert len(list((out / "cache").glob("optimum_*.npy"))) == 1
