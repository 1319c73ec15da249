import hashlib
import json

import numpy as np
import pytest

from fedrr.harness import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    algorithm_steps,
    build_problem,
    run_experiment,
    select_best_multiplier,
)
from fedrr.optimizer import DivergenceError, RunTrace, TracePoint

QUAD = {"quadratic": {"M": 6, "N": 4, "d": 5, "mu": 1.0, "L": 10.0, "client_spread": 1.0, "sample_spread": 0.5, "seed": 3}}


def quad_config(tmp_path, **kw):
    defaults = dict(
        dataset=QUAD, M=6, C=2, T=4, algorithms=["rrcli"], multipliers=[1.0],
        seeds=[0, 1], local_steps=None, out_dir=str(tmp_path / "out"),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def csv_hashes(out_dir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out_dir.glob("*.csv")
        if p.name != "timings.csv"
    }


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(seeds=[])
    with pytest.raises(ConfigError):
        ExperimentConfig(multipliers=[0.0])
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithms=["adam"])
    with pytest.raises(ConfigError):
        ExperimentConfig(regime="thm7")


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": 4, "C": 2, "T": 3, "seeds": [1, 2]}))
    cfg = ExperimentConfig.from_file(path, {"seeds": [7], "out_dir": None})
    assert cfg.M == 4 and cfg.seeds == [7]
    path.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


def test_run_experiment_outputs(tmp_path):
    cfg = quad_config(tmp_path, algorithms=["rrcli", "nastya"])
    summary = run_experiment(cfg)
    out = summary["out_dir"]
    assert (out / "runs.csv").exists()
    assert (out / "aggregate_rrcli.csv").exists()
    assert (out / "aggregate_nastya.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diverged_count"] == 0
    assert len(manifest["runs"]) == 2 * 2
    assert manifest["constants"]["kappa"] == pytest.approx(10.0)
    header = (out / "runs.csv").read_text().splitlines()[0]
    assert header == "algorithm,multiplier,seed,epoch,dist_sq,func_gap,grad_evals"


def test_rerun_is_byte_identical(tmp_path):
    cfg = quad_config(tmp_path, algorithms=["rrcli", "fedavg"], local_steps=2)
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(cfg, out_dir=tmp_path / "b")
    assert csv_hashes(first["out_dir"]) == csv_hashes(second["out_dir"])


def test_seed_derivation_stable_across_grid_growth(tmp_path):
    small = run_experiment(quad_config(tmp_path, algorithms=["rrcli"]), out_dir=tmp_path / "s")
    big = run_experiment(quad_config(tmp_path, algorithms=["rrcli", "nastya"]), out_dir=tmp_path / "b")
    small_rr = [r.seed for r in small["results"]]
    big_rr = [r.seed for r in big["results"] if r.algorithm == "rrcli"]
    assert small_rr == big_rr


def test_multiplier_selection_rules():
    def result(algo, mult, final, diverged=False):
        trace = None
        if not diverged:
            trace = RunTrace([TracePoint(1.0, 1, final, 0.0, 4, 0.0)])
        return RunResult(algo, mult, 0, 0, trace, diverged)

    results = [
        result("rrcli", 1.0, 1e-15),
        result("rrcli", 2.0, 1e-15),
        result("rrcli", 4.0, 0.0, diverged=True),
        result("nastya", 1.0, 0.5),
        result("nastya", 2.0, 0.1),
    ]
    best = select_best_multiplier(results)
    assert best["rrcli"] == 1.0  # tie broken toward the smaller multiplier
    assert best["nastya"] == 2.0
    with pytest.raises(DivergenceError):
        select_best_multiplier([result("x", 1.0, 0.0, diverged=True)])


def test_single_multiplier_is_itself():
    trace = RunTrace([TracePoint(1.0, 1, 0.3, 0.0, 4, 0.0)])
    best = select_best_multiplier([RunResult("rrcli", 3.0, 0, 0, trace, False)])
    assert best == {"rrcli": 3.0}


def test_diverged_runs_excluded_and_counted(tmp_path):
    cfg = quad_config(tmp_path, multipliers=[1.0, 1e6], T=30)
    summary = run_experiment(cfg)
    manifest = summary["manifest"]
    assert manifest["diverged_count"] == 2  # both seeds at the absurd multiplier
    assert summary["best_multipliers"]["rrcli"] == 1.0
    text = (summary["out_dir"] / "runs.csv").read_text()
    assert ",1000000," not in text


def test_multiplier_scales_all_step_levels(tmp_path):
    cfg = quad_config(tmp_path)
    problem, _ = build_problem(cfg)
    s1 = algorithm_steps("rrcli", problem, cfg, 1.0)
    s3 = algorithm_steps("rrcli", problem, cfg, 3.0)
    assert s3.gamma == pytest.approx(3 * s1.gamma)
    assert s3.eta == pytest.approx(3 * s1.eta)
    assert s3.theta == pytest.approx(3 * s1.theta)


def test_fedavg_theoretical_step(tmp_path):
    cfg = quad_config(tmp_path, local_steps=10)
    problem, _ = build_problem(cfg)
    steps = algorithm_steps("fedavg", problem, cfg, 1.0)
    assert steps.gamma == pytest.approx(1.0 / (problem.L + problem.mu))


def test_nastya_gamma_override(tmp_path):
    cfg = quad_config(tmp_path, nastya_gamma=1e-3, local_steps=None)
    problem, _ = build_problem(cfg)
    steps = algorithm_steps("nastya", problem, cfg, 1.0)
    assert steps.gamma == pytest.approx(1e-3)
    assert steps.eta == pytest.approx(1e-3 * problem.N)


def test_worker_pool_matches_sequential(tmp_path, monkeypatch):
    cfg = quad_config(tmp_path, algorithms=["rrcli", "nastya"])
    seq = run_experiment(cfg, out_dir=tmp_path / "seq")
    monkeypatch.setenv("FEDRR_WORKERS", "2")
    par = run_experiment(cfg, out_dir=tmp_path / "par")
    assert csv_hashes(seq["out_dir"]) == csv_hashes(par["out_dir"])


def test_logistic_config_builds(tmp_path):
    cfg = ExperimentConfig(
        dataset={"synthetic": {"count": 60, "dim": 8, "seed": 1, "nnz_per_row": 4}},
        M=4, C=2, T=2, algorithms=["rrcli"], seeds=[0], local_steps=3,
        out_dir=str(tmp_path / "out"),
    )
    summary = run_experiment(cfg)
    assert summary["manifest"]["diverged_count"] == 0
    assert summary["optimum"].grad_norm <= cfg.optimum_tol
    # cached optimum reused on rerun
    again = run_experiment(cfg)
    assert np.array_equal(again["optimum"].x_star, summary["optimum"].x_star)


def test_truncated_optimum_cache_is_resolved(tmp_path):
    cfg = ExperimentConfig(
        dataset={"synthetic": {"count": 60, "dim": 8, "seed": 1, "nnz_per_row": 4}},
        M=4, C=2, T=2, algorithms=["rrcli"], seeds=[0], local_steps=3,
        out_dir=str(tmp_path / "out"),
    )
    first = run_experiment(cfg)
    (sidecar,) = (tmp_path / "out" / "cache").glob("optimum_*.bin")
    intact = sidecar.read_bytes()
    sidecar.write_bytes(intact[: len(intact) // 2])
    again = run_experiment(cfg)
    assert np.array_equal(again["optimum"].x_star, first["optimum"].x_star)
    assert again["manifest"] == first["manifest"]
    assert sidecar.read_bytes() == intact


def test_cohort_size_must_divide(tmp_path):
    cfg = quad_config(tmp_path, C=4)
    with pytest.raises(ConfigError):
        run_experiment(cfg)
