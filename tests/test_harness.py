import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eager_reference
from fedrr.harness import (
    WORKERS_ENV,
    ConfigError,
    ExperimentConfig,
    RunResult,
    algorithm_steps,
    build_problem,
    run_experiment,
    select_best_multiplier,
)
from fedrr.optimizer import ALGORITHMS, DivergenceError, RunTrace, TracePoint
from fedrr.rng import derive_seed
from fedrr.shuffling import ClientMode, DataMode, load_fixed_schedule
from fedrr.theory import REGIMES

FIXED_PLAN = [[[0, 1], [2, 3], [4, 5]], [[5, 3], [1, 4], [0, 2]]]
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("client_mode", "bogus"),
        ("client_mode", "deterministic_fixed"),
        ("data_mode", "bogus"),
        ("local_steps", 0),
        ("batch_fraction", 0.0),
        ("batch_fraction", 1.5),
        ("C", 0),
    ],
)
def test_config_rejects_bad_values_when_built(field, value):
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seeds", [0, 0], "seeds list repeats 0"),
        ("seeds", [0, 1, 0], "seeds list repeats 0"),
        ("multipliers", [1.0, 1], "multipliers list repeats 1"),
        ("multipliers", [], "multipliers list must be nonempty"),
        ("algorithms", ["rrcli", "nastya", "rrcli"], "algorithms list repeats 'rrcli'"),
        ("algorithms", [], "algorithms list must be nonempty"),
        ("seeds", [], "seeds list must be nonempty"),
    ],
)
def test_config_rejects_repeated_or_empty_grid_lists(field, value, message):
    # a repeated entry would run the same seeded runs twice and weight them twice in the means
    with pytest.raises(ConfigError, match=f"^{message}$"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("alpha", True, "alpha must be a number, got True"),
        ("local_steps", False, "local_steps must be an integer or null, got False"),
        ("decay", 1, "decay must be true or false, got 1"),
        ("fixed_schedule_path", 0, "fixed_schedule_path must be a string or null, got 0"),
        ("seeds", (0, 1), r"seeds must be a list, got \(0, 1\)"),
        ("dataset", [], r"dataset must be an object, got \[\]"),
        ("dataset", {"quadratic": {"mu": True}}, "dataset.quadratic.mu must be a number, got True"),
        ("dataset", {"synthetic": {"rows": 5}}, "unknown dataset.synthetic key 'rows'"),
    ],
)
def test_config_rejects_wrong_types_by_name(field, value, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"dataset": {}}, r"dataset must hold exactly one of 'path', 'synthetic' and 'quadratic', got \[\]"),
        ({"dataset": {"synthetic": {}, "path": "x.txt"}}, r"dataset must hold exactly one of .*, got \['path', 'synthetic'\]"),
        ({"dataset": {"quadratic": {}, "seed": 1}}, r"dataset must hold exactly one of .*, got \['quadratic', 'seed'\]"),
        ({"fixed_schedule_path": "plan.json"}, "client_mode 'reshuffling' takes no fixed_schedule_path"),
        ({"client_mode": "shuffle_once", "fixed_schedule_path": "p"}, "client_mode 'shuffle_once' takes no"),
        ({"client_mode": "deterministic_fixed"}, "client_mode 'deterministic_fixed' needs a fixed_schedule_path"),
        ({"nastya_gamma": 0.0}, "nastya_gamma must be positive and finite, got 0.0"),
        ({"nastya_gamma": float("nan")}, "nastya_gamma must be positive and finite, got nan"),
        ({"nastya_gamma": float("inf")}, "nastya_gamma must be positive and finite, got inf"),
        ({"multipliers": [1.0, float("nan")]}, "multipliers must be positive and finite, got nan"),
        ({"multipliers": [1.0, float("inf")]}, "multipliers must be positive and finite, got inf"),
        ({"dataset": {"quadratic": {}}, "alpha": float("inf")}, "regularizer alpha must be positive and finite, got inf"),
        ({"dataset": {"quadratic": {}}, "alpha": 0}, "regularizer alpha must be positive and finite, got 0"),
        ({"dataset": {"quadratic": {}}, "optimum_tol": float("inf")}, "tolerance must be positive and finite, got inf"),
        ({"dataset": {"quadratic": {}}, "optimum_tol": -1.0}, "tolerance must be positive and finite, got -1.0"),
    ],
)
def test_config_states_each_setting_once_and_in_range(kw, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        ExperimentConfig(**kw)


def test_config_accepts_boundary_values():
    ExperimentConfig(local_steps=None, batch_fraction=1.0, C=1, client_mode="shuffle_once", data_mode="shuffle_once")
    ExperimentConfig(local_steps=1, client_mode="deterministic_fixed", fixed_schedule_path="plan.json")
    ExperimentConfig(M=np.int64(12), alpha=1, seeds=[np.int64(0)], multipliers=[2], dataset={"synthetic": {"feature_scale": None}})


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": 4, "C": 2, "T": 3, "seeds": [1, 2]}))
    cfg = ExperimentConfig.from_file(path, {"seeds": [7], "out_dir": None})
    assert cfg.M == 4 and cfg.seeds == [7]
    path.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(path)


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
TEXT = st.text(max_size=20)


@st.composite
def experiment_configs(draw):
    """Any valid ExperimentConfig: every field drawn, the datasets of all three kinds."""
    M = draw(st.integers(min_value=1, max_value=64))
    quadratic = st.fixed_dictionaries(
        {"M": st.just(M), "N": st.integers(1, 50), "d": st.integers(1, 20)}, optional={"seed": st.integers(0, 2**31)}
    )
    dataset = draw(
        st.one_of(
            st.fixed_dictionaries({"synthetic": st.fixed_dictionaries({}, optional={"count": st.integers(1, 10**6)})}),
            st.fixed_dictionaries({"path": TEXT}),
            st.fixed_dictionaries({"quadratic": quadratic}),
        )
    )
    client_mode = draw(st.sampled_from([m.value for m in ClientMode]))
    fixed = TEXT if client_mode == ClientMode.DETERMINISTIC_FIXED.value else st.none()
    return ExperimentConfig(
        dataset=dataset,
        M=M,
        C=draw(st.sampled_from([c for c in range(1, M + 1) if M % c == 0])),
        T=draw(st.integers(min_value=1, max_value=10**6)),
        alpha=draw(POSITIVE),
        algorithms=draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=4, unique=True)),
        regime=draw(st.sampled_from(REGIMES)),
        multipliers=draw(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=5, unique=True)),
        decay=draw(st.booleans()),
        local_steps=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=10**6))),
        batch_fraction=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        nastya_gamma=draw(st.one_of(st.none(), POSITIVE)),
        seeds=draw(st.lists(st.integers(-(2**63), 2**63), min_size=1, max_size=6, unique=True)),
        master_seed=draw(st.integers(-(2**63), 2**63)),
        client_mode=client_mode,
        data_mode=draw(st.sampled_from([m.value for m in DataMode])),
        fixed_schedule_path=draw(fixed),
        optimum_tol=draw(POSITIVE),
        out_dir=draw(TEXT),
    )


@given(experiment_configs())
@settings(max_examples=150, deadline=None)
def test_config_survives_json_file_round_trip(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = ExperimentConfig.from_file(path)
    assert back == cfg
    assert back.to_dict() == cfg.to_dict()


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
            trace = RunTrace([TracePoint(1.0, final, 0.0, 4, 0.0)])
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
    trace = RunTrace([TracePoint(1.0, 0.3, 0.0, 4, 0.0)])
    best = select_best_multiplier([RunResult("rrcli", 3.0, 0, 0, trace, False)])
    assert best == {"rrcli": 3.0}


@st.composite
def finished_grids(draw):
    """A grid and, in grid order, each run's trace (None: it diverged).

    Traces record ascending subsets of a shared epoch set, so runs miss
    epochs that others reach; one algorithm may diverge in every run.
    """
    algorithms = draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True))
    multipliers = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3, unique=True))
    seeds = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True))
    epochs = draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=6, unique=True))
    all_diverged = draw(st.sampled_from([None, *algorithms]))
    value = st.floats(0.0, 1e6)
    traces = []
    for algorithm in algorithms:
        for _ in range(len(multipliers) * len(seeds)):
            if algorithm == all_diverged or draw(st.integers(0, 3)) == 0:
                traces.append(None)
                continue
            kept = sorted(draw(st.lists(st.sampled_from(epochs), min_size=1, unique=True)))
            traces.append(RunTrace([
                TracePoint(e, draw(value), draw(value), i + 1, draw(st.floats(0.0, 10.0))) for i, e in enumerate(kept)
            ]))
    return algorithms, multipliers, seeds, traces


@given(finished_grids())
@settings(max_examples=60, deadline=None)
def test_output_files_match_the_eager_scans(grid):
    algorithms, multipliers, seeds, traces = grid
    pending = iter(traces)

    def replay(problem, algo_cfg, optimum):
        trace = next(pending)
        if trace is None:
            raise DivergenceError("replayed divergence")
        return trace

    results = [
        RunResult(a, m, s, derive_seed(2024, "run", a, m, s), trace, trace is None)
        for (a, m, s), trace in zip([(a, m, s) for a in algorithms for m in multipliers for s in seeds], traces)
    ]
    try:
        best = eager_reference.select_best_multiplier_scan(results)
    except DivergenceError:
        best = None
    with tempfile.TemporaryDirectory() as tmp, mock.patch("fedrr.harness.run_algorithm", replay), mock.patch.dict(os.environ):
        os.environ.pop(WORKERS_ENV, None)
        out, ref = Path(tmp) / "out", Path(tmp) / "ref"
        ref.mkdir()
        cfg = ExperimentConfig(
            dataset=QUAD, M=6, C=2, T=1, algorithms=algorithms, multipliers=multipliers, seeds=seeds, out_dir=str(out)
        )
        if best is None and len(multipliers) > 1:
            with pytest.raises(DivergenceError, match="all runs diverged"):
                run_experiment(cfg)
            assert list(out.iterdir()) == []  # the selection fails before any file is written
            return
        run_experiment(cfg)
        eager_reference.write_runs_csv(ref / "runs.csv", results)
        eager_reference.write_timings_csv(ref / "timings.csv", results)
        names = ["runs.csv", "timings.csv"]
        for a in algorithms:
            eager_reference.write_aggregate_csv(ref / f"aggregate_{a}.csv", [r for r in results if r.algorithm == a])
            names.append(f"aggregate_{a}.csv")
        if best is not None and len(multipliers) > 1:
            (ref / "best_multipliers.json").write_text(json.dumps(best, indent=2, sort_keys=True))
            names.append("best_multipliers.json")
        assert (out / "best_multipliers.json").exists() == ("best_multipliers.json" in names)
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name


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
    # the second grid sends the loaded fixed schedule to the workers inside the job tuples
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(FIXED_PLAN))
    fixed = {"client_mode": "deterministic_fixed", "fixed_schedule_path": str(plan)}
    for name, extra in (("sampled", {}), ("fixed", fixed)):
        cfg = quad_config(tmp_path, algorithms=list(ALGORITHMS), **extra)
        monkeypatch.delenv("FEDRR_WORKERS", raising=False)
        seq = run_experiment(cfg, out_dir=tmp_path / name / "seq")
        monkeypatch.setenv("FEDRR_WORKERS", "2")
        par = run_experiment(cfg, out_dir=tmp_path / name / "par")
        assert csv_hashes(seq["out_dir"]) == csv_hashes(par["out_dir"])
        assert len(csv_hashes(seq["out_dir"])) == 1 + len(ALGORITHMS)


def test_worker_pool_is_never_larger_than_the_job_count(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records the pool size it is asked for and runs the jobs in this process, in order."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("fedrr.harness.ProcessPoolExecutor", SerialPool)
    cfg = quad_config(tmp_path)  # one algorithm, one multiplier, two seeds: two jobs
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    seq = run_experiment(cfg, out_dir=tmp_path / "seq")
    monkeypatch.setenv(WORKERS_ENV, "64")
    pooled = run_experiment(cfg, out_dir=tmp_path / "pooled")
    assert sizes == [2]
    assert csv_hashes(seq["out_dir"]) == csv_hashes(pooled["out_dir"])
    assert (seq["out_dir"] / "manifest.json").read_bytes() == (pooled["out_dir"] / "manifest.json").read_bytes()


def test_explicit_zero_feature_hashes_like_an_absent_one(tmp_path):
    # the dataset hash reads the text of X and the labels, so a feature listed as 0 or -0 changes nothing
    plain = ["+1 1:0.5 3:1", "-1 2:2", "+1 1:1 2:1", "-1 3:0.25"]
    zeros = ["+1 1:0.5 2:0 3:1", "-1 1:-0 2:2", "+1 1:1 2:1 3:0", "-1 1:0 3:0.25"]
    built = []
    for name, lines in (("plain", plain), ("zeros", zeros)):
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(lines) + "\n")
        built.append(build_problem(quad_config(tmp_path, dataset={"path": str(path)}, M=2)))
    (a, a_hash), (b, b_hash) = built
    assert a_hash == b_hash
    assert np.array_equal(a._A, b._A) and np.array_equal(a._b, b._b)


def test_fixed_schedule_read_once_per_grid(tmp_path, monkeypatch):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(FIXED_PLAN))
    loads = []
    monkeypatch.setattr("fedrr.harness.load_fixed_schedule", lambda path: loads.append(path) or load_fixed_schedule(path))
    cfg = quad_config(
        tmp_path, algorithms=list(ALGORITHMS), multipliers=[0.5, 1.0],
        client_mode="deterministic_fixed", fixed_schedule_path=str(plan),
    )
    summary = run_experiment(cfg)
    assert len(summary["results"]) == 16
    assert loads == [str(plan)]


@pytest.mark.parametrize("algorithm", ["rrcli", "rrcli-wr", "nastya"])
def test_local_steps_beyond_pass_length_change_nothing(tmp_path, algorithm):
    # a shuffled pass over N = 4 points has at most 4 local steps, so the
    # step sizes and the runs at local_steps = 2N are those at local_steps = N
    at_n = run_experiment(quad_config(tmp_path, algorithms=[algorithm], local_steps=4), out_dir=tmp_path / "n")
    at_2n = run_experiment(quad_config(tmp_path, algorithms=[algorithm], local_steps=8), out_dir=tmp_path / "2n")
    assert at_2n["manifest"]["diverged_count"] == 0
    assert (at_n["out_dir"] / "runs.csv").read_bytes() == (at_2n["out_dir"] / "runs.csv").read_bytes()


def test_failed_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch):
    cfg = quad_config(tmp_path)
    out = run_experiment(cfg)["out_dir"]
    before = (out / "manifest.json").read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write("{")
        raise RuntimeError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(RuntimeError, match="disk full"):
        run_experiment(cfg)
    assert (out / "manifest.json").read_bytes() == before
    assert not [p.name for p in out.rglob("*") if p.name.endswith(".tmp")]


LOGISTIC = dict(
    dataset={"synthetic": {"count": 60, "dim": 8, "seed": 1, "nnz_per_row": 4}},
    M=4, C=2, T=2, algorithms=["rrcli"], seeds=[0], local_steps=3,
)


def test_logistic_config_builds(tmp_path):
    cfg = ExperimentConfig(**LOGISTIC, out_dir=str(tmp_path / "out"))
    summary = run_experiment(cfg)
    assert summary["manifest"]["diverged_count"] == 0
    assert summary["optimum"].grad_norm <= cfg.optimum_tol
    contract = {name: (tmp_path / "out" / name).read_bytes() for name in ("runs.csv", "manifest.json")}
    (cache,) = (tmp_path / "out" / "cache").iterdir()
    assert cache.name.startswith("optimum_") and cache.suffix == ".npy"
    stored = cache.read_bytes(), cache.stat().st_mtime_ns
    # the warm rerun reads x* from the cache, leaves the file alone and writes the same contract bytes
    again = run_experiment(cfg)
    assert np.array_equal(again["optimum"].x_star, summary["optimum"].x_star)
    assert {name: (tmp_path / "out" / name).read_bytes() for name in contract} == contract
    assert (cache.read_bytes(), cache.stat().st_mtime_ns) == stored


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda intact, d: b"",
        lambda intact, d: intact[: len(intact) // 2],
        lambda intact, d: intact[:-8],
        lambda intact, d: _npy(np.zeros(d)),
        lambda intact, d: _npy(np.full(d, 1e300)),
        lambda intact, d: _npy(np.ones(d + 1)),
        lambda intact, d: _npy(np.arange(d, dtype=np.int64)),
        lambda intact, d: _npy(np.array([None] * d, dtype=object)),
        lambda intact, d: b"FEDRROPT1" + bytes(12 + 8 * d + 16),
    ],
    ids=[
        "empty", "truncated-header", "truncated-body", "zero-vector", "overflowing-vector", "wrong-length", "int64",
        "pickled-objects", "garbage",
    ],
)
@pytest.mark.filterwarnings("error")  # checking a stray vector must not warn either
def test_truncated_optimum_cache_is_resolved(tmp_path, corrupt):
    cfg = ExperimentConfig(**LOGISTIC, out_dir=str(tmp_path / "out"))
    first = run_experiment(cfg)
    (cache,) = (tmp_path / "out" / "cache").iterdir()
    intact = cache.read_bytes()
    cache.write_bytes(corrupt(intact, first["problem"].d))
    again = run_experiment(cfg)
    assert np.array_equal(again["optimum"].x_star, first["optimum"].x_star)
    assert again["manifest"] == first["manifest"]
    assert cache.read_bytes() == intact
    assert list((tmp_path / "out" / "cache").iterdir()) == [cache]


def test_cohort_size_must_divide(tmp_path):
    with pytest.raises(ConfigError, match=r"^cohort size 4 does not divide client count 6$"):
        quad_config(tmp_path, C=4)


def test_quadratic_client_count_must_match_config():
    with pytest.raises(ConfigError, match="M=4 differs from the config's M=6"):
        ExperimentConfig(dataset={"quadratic": {"M": 4}}, M=6)
    ExperimentConfig(dataset={"quadratic": {"N": 3}}, M=6)  # M comes from the config


@pytest.mark.parametrize(
    "plan, message",
    [
        ([[[0, 1], [2, 3]]], "does not fit M=6, C=2"),  # 4 clients
        ([[[0, 1, 2], [3, 4, 5]]], "does not fit M=6, C=2"),  # cohorts of 3
        ([[[0, 1], [2, 3], [4, 5]], [[0, 1], [2, 3], [4, 4]]], "does not fit M=6, C=2"),  # epoch 1 repeats a client
        ([], "does not fit M=6, C=2"),
        ([[["a", "b"], [2, 3], [4, 5]]], "is not epochs of cohorts of client ids"),
        ([[0, 1, 2, 3, 4, 5]], "is not epochs of cohorts of client ids"),
        ([[[0.5, 1], [2, 3], [4, 5]]], r"is not epochs of cohorts of client ids: client id 0.5 is not an integer"),
        ([[[0.0, 1], [2, 3], [4, 5]]], r"is not epochs of cohorts of client ids: client id 0.0 is not an integer"),
        ([[[True, 1], [2, 3], [4, 5]]], r"is not epochs of cohorts of client ids: client id True is not an integer"),
        ([[["0", 1], [2, 3], [4, 5]]], r"is not epochs of cohorts of client ids: client id '0' is not an integer"),
        ([[[None, 1], [2, 3], [4, 5]]], r"is not epochs of cohorts of client ids: client id None is not an integer"),
    ],
    ids=[
        "four-clients", "cohorts-of-three", "repeated-client", "empty", "string-ids", "flat-list", "fractional-id",
        "integral-float-id", "bool-id", "numeric-string-id", "null-id",
    ],
)
def test_fixed_schedule_checked_before_any_job(tmp_path, monkeypatch, plan, message):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    cfg = quad_config(tmp_path, client_mode="deterministic_fixed", fixed_schedule_path=str(path))
    monkeypatch.setattr("fedrr.harness.resolve_optimum", lambda *a, **k: pytest.fail("optimum resolved"))
    with pytest.raises(ConfigError, match=message):
        run_experiment(cfg)
    assert not (tmp_path / "out" / "runs.csv").exists()


def test_empty_output_directory_rejected_before_any_read_or_write(tmp_path, monkeypatch):
    # Path("") is the working directory, which would receive every output file
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("fedrr.harness._load_shuffle_mode", lambda cfg: pytest.fail("schedule read"))
    for cfg, out_dir in ((quad_config(tmp_path, out_dir=""), None), (quad_config(tmp_path), "")):
        with pytest.raises(ConfigError, match="^output directory must be a nonempty path$"):
            run_experiment(cfg, out_dir)
    assert list(tmp_path.iterdir()) == []


def test_fixed_schedule_runs(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps([[[0, 1], [2, 3], [4, 5]], [[5, 3], [1, 4], [0, 2]]]))
    summary = run_experiment(quad_config(tmp_path, client_mode="deterministic_fixed", fixed_schedule_path=str(path)))
    assert summary["manifest"]["diverged_count"] == 0
